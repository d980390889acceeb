//! Differential equivalence suite for [`SortedMap`] against the
//! `BTreeMap` it replaces for the watchdog and in-flight fault tables.
//!
//! Both maps are driven with identical operation streams — insert
//! (appends above the largest key, inserts below it, overwrites), remove
//! (present and absent keys), get, get_mut, contains_key, retain, and a
//! take-then-reinsert sweep shaped like the controller-failure watchdog
//! sweep — and after every op the lengths must agree; iteration (pairs,
//! keys, owned pairs) is compared in full at intervals. Any difference in
//! a returned value or in iteration order fails the test.
//!
//! Two fixed 5,000-op streams pin exact traces; the property test draws
//! 256 streams from a fixed-seed [`Prng`], and a failing case is named
//! with its index and drawn input.

use std::collections::BTreeMap;

use hwdp_sim::{Prng, SortedMap};

/// One step of the interpreted operation stream.
#[derive(Clone, Copy, Debug)]
enum Op {
    Insert(u64, u32),
    Remove(u64),
    Get(u64),
    GetMut(u64, u32),
    /// Keep the entries whose key is not `r` modulo `m`, bumping the
    /// values of those kept.
    Retain(u64, u64),
    /// Take the whole map, put back the entries whose key is not `r`
    /// modulo `m`, and for each one dropped insert a fresh key above every
    /// key seen so far (a recovery re-arming a watchdog mid-sweep).
    TakeReinsert(u64, u64),
    /// Compare every iterator of both maps in full.
    Iterate,
}

/// Both maps side by side; every method applies the op to each and
/// asserts the results agree.
#[derive(Default)]
struct Pair {
    sorted: SortedMap<u64, u32>,
    model: BTreeMap<u64, u32>,
    /// One past the largest key either map has held.
    end: u64,
}

impl Pair {
    fn apply(&mut self, op: Op) {
        match op {
            Op::Insert(k, v) => {
                self.end = self.end.max(k + 1);
                assert_eq!(self.sorted.insert(k, v), self.model.insert(k, v), "{op:?}");
            }
            Op::Remove(k) => assert_eq!(self.sorted.remove(&k), self.model.remove(&k), "{op:?}"),
            Op::Get(k) => {
                assert_eq!(self.sorted.get(&k), self.model.get(&k), "{op:?}");
                assert_eq!(self.sorted.contains_key(&k), self.model.contains_key(&k), "{op:?}");
            }
            Op::GetMut(k, d) => {
                let a = self.sorted.get_mut(&k).map(|v| {
                    *v = v.wrapping_add(d);
                    *v
                });
                let b = self.model.get_mut(&k).map(|v| {
                    *v = v.wrapping_add(d);
                    *v
                });
                assert_eq!(a, b, "{op:?}");
            }
            Op::Retain(m, r) => {
                let (mut seen_a, mut seen_b) = (Vec::new(), Vec::new());
                self.sorted.retain(|&k, v| {
                    seen_a.push(k);
                    *v = v.wrapping_add(1);
                    k % m != r
                });
                self.model.retain(|&k, v| {
                    seen_b.push(k);
                    *v = v.wrapping_add(1);
                    k % m != r
                });
                assert_eq!(seen_a, seen_b, "{op:?}: visit order");
            }
            Op::TakeReinsert(m, r) => {
                let mut fresh = self.end;
                for (k, v) in std::mem::take(&mut self.sorted) {
                    if k % m != r {
                        self.sorted.insert(k, v);
                    } else {
                        self.sorted.insert(fresh, v ^ 1);
                        fresh += 1;
                    }
                }
                let mut fresh = self.end;
                for (k, v) in std::mem::take(&mut self.model) {
                    if k % m != r {
                        self.model.insert(k, v);
                    } else {
                        self.model.insert(fresh, v ^ 1);
                        fresh += 1;
                    }
                }
                self.end = fresh;
            }
            Op::Iterate => self.compare_iteration(),
        }
        assert_eq!(self.sorted.len(), self.model.len(), "len after {op:?}");
        assert_eq!(self.sorted.is_empty(), self.model.is_empty(), "is_empty after {op:?}");
    }

    fn compare_iteration(&self) {
        let sorted: Vec<(u64, u32)> = self.sorted.iter().map(|(&k, &v)| (k, v)).collect();
        let model: Vec<(u64, u32)> = self.model.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(sorted, model, "iteration order");
        assert!(self.sorted.keys().eq(self.model.keys()));
        assert!(self.sorted.clone().into_iter().eq(self.model.clone()), "owned iteration");
    }
}

/// Decodes raw `(kind, a, b)` triples into ops. Keys mostly fall inside a
/// window that widens as the stream goes on; one op in four aims just
/// past the largest key seen, as increasing completion tokens do.
fn decode(raw: &[(u8, u64, u64)]) -> Vec<Op> {
    let mut end = 16u64;
    raw.iter()
        .map(|&(kind, a, b)| {
            let key = if kind % 4 == 0 { end + a % 4 } else { a % end };
            end = end.max(key + 1);
            let v = b as u32;
            match kind % 32 {
                0..=12 => Op::Insert(key, v),
                13..=19 => Op::Remove(key),
                20..=23 => Op::Get(key),
                24..=26 => Op::GetMut(key, v),
                27 => Op::Retain(2 + b % 5, a % 7),
                28 => Op::TakeReinsert(2 + b % 5, a % 7),
                _ => Op::Iterate,
            }
        })
        .collect()
}

fn run_diff(ops: &[Op]) -> Pair {
    let mut pair = Pair::default();
    for &op in ops {
        pair.apply(op);
    }
    pair.compare_iteration();
    pair
}

/// SplitMix64: a fixed, self-contained op-stream generator.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn seeded_stream(seed: u64, n: usize) -> Vec<(u8, u64, u64)> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            let x = splitmix64(&mut state);
            (x as u8, splitmix64(&mut state), x >> 8)
        })
        .collect()
}

/// A seeded stream over the full op mix: the same trace on every run.
#[test]
fn seeded_op_stream_matches_btreemap() {
    let raw = seeded_stream(0x0050_A7ED_5EED, 5_000);
    let ops = decode(&raw);
    let sweeps = ops.iter().filter(|op| matches!(op, Op::TakeReinsert(..))).count();
    assert!(sweeps > 100, "the stream sweeps ({sweeps})");
    let pair = run_diff(&ops);
    assert!(pair.model.len() > 20, "the map ends populated ({})", pair.model.len());
    assert!(
        pair.model.keys().next_back().is_some_and(|&k| k > 2_000),
        "keys grew past the initial window"
    );
}

/// Watchdog-shaped churn: keys arrive in increasing order and leave
/// mostly oldest first, with occasional out-of-order removals and
/// device-wide retains.
#[test]
fn token_churn_matches_btreemap() {
    let mut state = 0x070C_3E45_u64;
    let mut ops = Vec::new();
    let (mut next, mut oldest) = (0u64, 0u64);
    for i in 0..5_000u64 {
        let x = splitmix64(&mut state);
        ops.push(match x % 8 {
            0..=2 => {
                next += 1;
                Op::Insert(next, i as u32)
            }
            3 | 4 => {
                oldest += 1;
                Op::Remove(oldest)
            }
            5 => Op::Remove(oldest + x % 16),
            6 => Op::Retain(2, (x >> 8) & 1),
            _ => Op::Iterate,
        });
    }
    run_diff(&ops);
}

/// Arbitrary op streams observe no difference between the sorted map and
/// the `BTreeMap` model.
#[test]
fn sorted_map_and_btreemap_are_observationally_identical() {
    let mut g = Prng::seed_from(0x50_0001);
    for case in 0..256 {
        let n = g.range(1, 399);
        let raw: Vec<(u8, u64, u64)> = (0..n).map(|_| (g.next_u64() as u8, g.next_u64(), g.next_u64())).collect();
        if let Err(panic) = std::panic::catch_unwind(|| run_diff(&decode(&raw))) {
            eprintln!("failing case {case}: {raw:?}");
            std::panic::resume_unwind(panic);
        }
    }
}
