//! FIO with the `mmap` engine: random 4 KiB reads over a memory-mapped
//! file (the paper's demand-paging microbenchmark, Figs. 12/13/16).
//!
//! Each operation is a tiny amount of user work (loop bookkeeping) plus a
//! 4 KiB load from a uniformly random page. With the file far larger than
//! memory (or cold), nearly every read is a page miss — exactly the
//! behavior the paper uses to expose raw demand-paging latency.

use hwdp_sim::rng::Prng;

use crate::{ReadSnapshot, RegionId, Step, Workload};

/// Per-op user instructions: the mmap engine's 4 KiB buffer handling,
/// verification and loop bookkeeping, calibrated so FIO's user/kernel
/// instruction split matches Fig. 16's totals.
const THINK_INSTRUCTIONS: u64 = 6_000;

/// FIO `--rw=randread --bs=4k` over an mmap'd file.
#[derive(Debug)]
pub struct FioRandRead {
    region: RegionId,
    pages: u64,
    rng: Prng,
    ops_target: u64,
    ops_done: u64,
    state: State,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Compute,
    Read,
}

impl FioRandRead {
    /// Creates a FIO job issuing `ops_target` random 4 KiB reads over a
    /// `pages`-page region.
    ///
    /// # Panics
    ///
    /// Panics if `pages` or `ops_target` is zero.
    pub fn new(region: RegionId, pages: u64, ops_target: u64, rng: Prng) -> Self {
        assert!(pages > 0 && ops_target > 0, "empty FIO job");
        FioRandRead {
            region,
            pages,
            rng,
            ops_target,
            ops_done: 0,
            state: State::Compute,
        }
    }
}

impl Workload for FioRandRead {
    fn next(&mut self, _last_read: Option<&ReadSnapshot>) -> Step {
        if self.ops_done >= self.ops_target {
            return Step::Finish;
        }
        match self.state {
            State::Compute => {
                self.state = State::Read;
                Step::Compute { instructions: THINK_INSTRUCTIONS }
            }
            State::Read => {
                self.state = State::Compute;
                self.ops_done += 1;
                let page = self.rng.below(self.pages);
                Step::Read { region: self.region, offset: page * 4096, len: 4096 }
            }
        }
    }

    fn ops_done(&self) -> u64 {
        self.ops_done
    }

    fn name(&self) -> String {
        format!("fio-randread({} pages)", self.pages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut dyn Workload) -> Vec<Step> {
        let mut steps = Vec::new();
        loop {
            let s = w.next(None);
            let done = s == Step::Finish;
            steps.push(s);
            if done {
                break;
            }
        }
        steps
    }

    #[test]
    fn alternates_compute_and_read_until_target() {
        let mut f = FioRandRead::new(RegionId(0), 100, 3, Prng::seed_from(1));
        let steps = drain(&mut f);
        // 3 × (Compute, Read) + Finish.
        assert_eq!(steps.len(), 7);
        assert!(matches!(steps[0], Step::Compute { .. }));
        assert!(matches!(steps[1], Step::Read { .. }));
        assert!(matches!(steps[6], Step::Finish));
        assert_eq!(f.ops_done(), 3);
    }

    #[test]
    fn reads_are_page_aligned_4k() {
        let mut f = FioRandRead::new(RegionId(0), 1000, 50, Prng::seed_from(2));
        loop {
            let s = f.next(None);
            if s == Step::Finish {
                break;
            }
            s.validate();
            if let Step::Read { offset, len, .. } = s {
                assert_eq!(offset % 4096, 0);
                assert_eq!(len, 4096);
                assert!(offset / 4096 < 1000);
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = FioRandRead::new(RegionId(0), 64, 10, Prng::seed_from(7));
        let mut b = FioRandRead::new(RegionId(0), 64, 10, Prng::seed_from(7));
        for _ in 0..21 {
            assert_eq!(a.next(None), b.next(None));
        }
    }

    #[test]
    fn covers_many_distinct_pages() {
        let mut f = FioRandRead::new(RegionId(0), 512, 300, Prng::seed_from(3));
        let mut pages = std::collections::HashSet::new();
        loop {
            match f.next(None) {
                Step::Finish => break,
                Step::Read { offset, .. } => {
                    pages.insert(offset / 4096);
                }
                _ => {}
            }
        }
        assert!(pages.len() > 150, "uniform reads touch many pages: {}", pages.len());
    }
}

/// FIO `--rw=read --bs=4k`: sequential 4 KiB reads over the mapped file
/// (wrapping at the end). The spatial locality makes it the natural
/// beneficiary of readahead/prefetching (paper §V "Prefetching Support").
#[derive(Debug)]
pub struct FioSeqRead {
    region: RegionId,
    pages: u64,
    next_page: u64,
    ops_target: u64,
    ops_done: u64,
    state: State,
}

impl FioSeqRead {
    /// Creates a sequential-read job of `ops_target` reads over a
    /// `pages`-page region.
    ///
    /// # Panics
    ///
    /// Panics if `pages` or `ops_target` is zero.
    pub fn new(region: RegionId, pages: u64, ops_target: u64) -> Self {
        assert!(pages > 0 && ops_target > 0, "empty FIO job");
        FioSeqRead {
            region,
            pages,
            next_page: 0,
            ops_target,
            ops_done: 0,
            state: State::Compute,
        }
    }
}

impl Workload for FioSeqRead {
    fn next(&mut self, _last_read: Option<&ReadSnapshot>) -> Step {
        if self.ops_done >= self.ops_target {
            return Step::Finish;
        }
        match self.state {
            State::Compute => {
                self.state = State::Read;
                Step::Compute { instructions: THINK_INSTRUCTIONS }
            }
            State::Read => {
                self.state = State::Compute;
                self.ops_done += 1;
                let page = self.next_page;
                self.next_page = (self.next_page + 1) % self.pages;
                Step::Read { region: self.region, offset: page * 4096, len: 4096 }
            }
        }
    }

    fn ops_done(&self) -> u64 {
        self.ops_done
    }

    fn name(&self) -> String {
        format!("fio-seqread({} pages)", self.pages)
    }
}

#[cfg(test)]
mod seq_tests {
    use super::*;

    #[test]
    fn reads_are_sequential_and_wrap() {
        let mut f = FioSeqRead::new(RegionId(0), 4, 10);
        let mut pages = Vec::new();
        loop {
            match f.next(None) {
                Step::Read { offset, .. } => pages.push(offset / 4096),
                Step::Finish => break,
                _ => {}
            }
        }
        assert_eq!(pages, vec![0, 1, 2, 3, 0, 1, 2, 3, 0, 1]);
        assert_eq!(f.ops_done(), 10);
    }
}
