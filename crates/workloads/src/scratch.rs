//! An anonymous-memory churn workload (paper §V: demand paging for
//! anonymous pages).
//!
//! The workload treats a mapped region as scratch memory: each operation
//! picks a random page, *reads* an 8-byte counter from it (verifying the
//! value — a never-touched page must read zero, an updated page must read
//! exactly the last value written, even across swap-out/swap-in), then
//! *writes* an incremented counter back. With the region larger than
//! memory, this continuously exercises zero-fill first touches, swap-out
//! of dirty pages, and swap-in — the complete §V anonymous-paging
//! lifecycle.

use hwdp_sim::rng::Prng;

use crate::{ReadSnapshot, RegionId, Step, Workload};

/// Anonymous scratch-memory churn with full value verification.
#[derive(Debug)]
pub struct ScratchChurn {
    region: RegionId,
    pages: u64,
    rng: Prng,
    ops_target: u64,
    ops_done: u64,
    verify_failures: u64,
    expected: Vec<u64>,
    state: State,
    current_page: u64,
    counter: u64,
    think_instructions: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Compute,
    Read,
    Write,
}

impl ScratchChurn {
    /// Creates a churn job of `ops_target` read-verify-write operations
    /// over `pages` pages.
    ///
    /// # Panics
    ///
    /// Panics if `pages` or `ops_target` is zero.
    pub fn new(region: RegionId, pages: u64, ops_target: u64, rng: Prng) -> Self {
        assert!(pages > 0 && ops_target > 0, "empty churn job");
        ScratchChurn {
            region,
            pages,
            rng,
            ops_target,
            ops_done: 0,
            verify_failures: 0,
            expected: vec![0; pages as usize],
            state: State::Compute,
            current_page: 0,
            counter: 0,
            think_instructions: 2_000,
        }
    }
}

impl Workload for ScratchChurn {
    fn next(&mut self, last_read: Option<&ReadSnapshot>) -> Step {
        if self.state == State::Write {
            // Verify the read that just completed; a missing or short read
            // fails.
            let mut counter = [0u8; 8];
            let whole = last_read.is_some_and(|read| read.copy_to(&mut counter) == counter.len());
            if !whole || u64::from_le_bytes(counter) != self.expected[self.current_page as usize] {
                self.verify_failures += 1;
            }
            // Write the next counter value.
            self.counter += 1;
            self.expected[self.current_page as usize] = self.counter;
            self.state = State::Compute;
            self.ops_done += 1;
            return Step::Write {
                region: self.region,
                offset: self.current_page * 4096,
                data: self.counter.to_le_bytes().to_vec(),
            };
        }
        if self.ops_done >= self.ops_target {
            return Step::Finish;
        }
        match self.state {
            State::Compute => {
                self.state = State::Read;
                Step::Compute { instructions: self.think_instructions }
            }
            State::Read => {
                self.state = State::Write;
                self.current_page = self.rng.below(self.pages);
                Step::Read { region: self.region, offset: self.current_page * 4096, len: 8 }
            }
            State::Write => unreachable!("handled above"),
        }
    }

    fn ops_done(&self) -> u64 {
        self.ops_done
    }

    fn verify_failures(&self) -> u64 {
        self.verify_failures
    }

    fn name(&self) -> String {
        format!("scratch-churn({} pages)", self.pages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwdp_mem::PageData;
    use std::collections::HashMap;

    /// What an 8-byte read sees on a page whose counter is `v`.
    fn counter_read(v: u64) -> ReadSnapshot {
        let mut page = PageData::Zero;
        page.write(0, &v.to_le_bytes());
        ReadSnapshot::of(&page, 0, 8)
    }

    /// Drives the workload against a perfect in-memory page store.
    fn run_perfect(pages: u64, ops: u64) -> ScratchChurn {
        let mut w = ScratchChurn::new(RegionId(0), pages, ops, Prng::seed_from(1));
        let mut mem: HashMap<u64, u64> = HashMap::new();
        let mut last: Option<ReadSnapshot> = None;
        let mut pending_page = None;
        loop {
            let step = w.next(last.as_ref());
            last = None;
            match step {
                Step::Read { offset, .. } => {
                    let page = offset / 4096;
                    pending_page = Some(page);
                    let v = mem.get(&page).copied().unwrap_or(0);
                    last = Some(counter_read(v));
                }
                Step::Write { offset, data, .. } => {
                    let page = offset / 4096;
                    assert_eq!(Some(page), pending_page, "write follows its read");
                    mem.insert(page, u64::from_le_bytes(data[..8].try_into().unwrap()));
                }
                Step::Compute { .. } => {}
                Step::Finish => break,
            }
        }
        w
    }

    #[test]
    fn perfect_memory_verifies_clean() {
        let w = run_perfect(64, 500);
        assert_eq!(w.ops_done(), 500);
        assert_eq!(w.verify_failures(), 0);
    }

    #[test]
    fn first_touch_expects_zero() {
        let mut w = ScratchChurn::new(RegionId(0), 4, 1, Prng::seed_from(2));
        assert!(matches!(w.next(None), Step::Compute { .. }));
        assert!(matches!(w.next(None), Step::Read { .. }));
        // Return nonzero for a never-written page: must be flagged.
        let step = w.next(Some(&counter_read(7)));
        assert!(matches!(step, Step::Write { .. }));
        assert_eq!(w.verify_failures(), 1);
    }

    #[test]
    fn stale_value_detected() {
        let mut w = ScratchChurn::new(RegionId(0), 1, 2, Prng::seed_from(3));
        // Op 1: read 0 (ok), write 1.
        w.next(None); // compute
        w.next(None); // read
        let step = w.next(Some(&counter_read(0)));
        let Step::Write { data, .. } = step else { panic!("write") };
        assert_eq!(u64::from_le_bytes(data[..8].try_into().unwrap()), 1);
        // Op 2: same page; returning stale 0 must be flagged.
        w.next(None); // compute
        w.next(None); // read
        w.next(Some(&counter_read(0)));
        assert_eq!(w.verify_failures(), 1, "stale read caught");
    }
}
