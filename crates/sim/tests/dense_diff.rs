//! Differential equivalence suite for [`DenseMap`] against the
//! `BTreeMap<u64, V>` it replaces at the simulator's dense-keyed sites.
//!
//! Both maps are driven with identical operation streams — insert
//! (including overwrites and keys past the current end, so the slot
//! vector grows), remove (including absent and past-the-end keys), range
//! removal, get, get_mut, get-or-insert — and after every op the lengths
//! must agree; iteration (pairs, keys, values, mutable pairs) is compared
//! in full at intervals. Any difference in a returned value or in
//! iteration order fails the test.
//!
//! Two fixed 5,000-op streams pin exact traces; the property test draws
//! 256 streams from a fixed-seed [`Prng`], and a failing case is named
//! with its index and drawn input.

use std::collections::BTreeMap;

use hwdp_sim::{DenseMap, Prng};

/// One step of the interpreted operation stream.
#[derive(Clone, Copy, Debug)]
enum Op {
    Insert(u64, u32),
    Remove(u64),
    Get(u64),
    GetMut(u64, u32),
    GetOrInsert(u64, u32),
    /// Remove every key in `start..end`.
    RemoveRange(u64, u64),
    /// Compare every iterator of both maps in full.
    Iterate,
}

/// Both maps side by side; every method applies the op to each and
/// asserts the results agree.
#[derive(Default)]
struct Pair {
    dense: DenseMap<u32>,
    model: BTreeMap<u64, u32>,
}

impl Pair {
    fn apply(&mut self, op: Op) {
        match op {
            Op::Insert(k, v) => assert_eq!(self.dense.insert(k, v), self.model.insert(k, v), "{op:?}"),
            Op::Remove(k) => assert_eq!(self.dense.remove(k), self.model.remove(&k), "{op:?}"),
            Op::Get(k) => assert_eq!(self.dense.get(k), self.model.get(&k), "{op:?}"),
            Op::GetMut(k, d) => {
                let a = self.dense.get_mut(k).map(|v| {
                    *v = v.wrapping_add(d);
                    *v
                });
                let b = self.model.get_mut(&k).map(|v| {
                    *v = v.wrapping_add(d);
                    *v
                });
                assert_eq!(a, b, "{op:?}");
            }
            Op::GetOrInsert(k, v) => {
                let a = *self.dense.get_or_insert_with(k, || v);
                let b = *self.model.entry(k).or_insert(v);
                assert_eq!(a, b, "{op:?}");
            }
            Op::RemoveRange(start, end) => {
                self.dense.remove_range(start..end);
                self.model.retain(|k, _| !(start..end).contains(k));
            }
            Op::Iterate => self.compare_iteration(),
        }
        assert_eq!(self.dense.len(), self.model.len(), "len after {op:?}");
        assert_eq!(self.dense.is_empty(), self.model.is_empty(), "is_empty after {op:?}");
    }

    fn compare_iteration(&mut self) {
        let dense: Vec<(u64, u32)> = self.dense.iter().map(|(k, &v)| (k, v)).collect();
        let model: Vec<(u64, u32)> = self.model.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(dense, model, "iteration order");
        assert!(self.dense.keys().eq(self.model.keys().copied()));
        assert!(self.dense.values().eq(self.model.values()));
        for (k, v) in self.dense.iter_mut() {
            *v = v.rotate_left(1) ^ k as u32;
        }
        for (&k, v) in self.model.iter_mut() {
            *v = v.rotate_left(1) ^ k as u32;
        }
        assert!(self.dense.values().eq(self.model.values()), "mutable iteration");
    }
}

/// Decodes raw `(kind, a, b)` triples into ops. Keys mostly fall inside a
/// window that widens as the stream goes on; one op in eight aims just
/// past the largest key seen, so the slot vector keeps growing.
fn decode(raw: &[(u8, u64, u64)]) -> Vec<Op> {
    let mut end = 16u64;
    raw.iter()
        .map(|&(kind, a, b)| {
            let key = if kind % 8 == 0 { end + a % 16 } else { a % end };
            end = end.max(key + 1);
            let v = b as u32;
            match kind % 32 {
                0..=10 => Op::Insert(key, v),
                11..=16 => Op::Remove(key),
                17..=21 => Op::Get(key),
                22..=24 => Op::GetMut(key, v),
                25..=27 => Op::GetOrInsert(key, v),
                28 => Op::RemoveRange(key, key + b % 8),
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
    let raw = seeded_stream(0xD3A5_E0AA_5EED, 5_000);
    let ops = decode(&raw);
    let grows = ops.iter().filter(|op| matches!(op, Op::Insert(..) | Op::GetOrInsert(..))).count();
    assert!(grows > 1_500, "the stream inserts ({grows})");
    let pair = run_diff(&ops);
    assert!(pair.model.len() > 100, "the map ends well populated ({})", pair.model.len());
    assert!(
        pair.model.keys().next_back().is_some_and(|&k| k > 2_000),
        "keys grew past the initial window"
    );
}

/// Removal-heavy churn over a small key range: holes appear and refill
/// in every position, including the current last slot.
#[test]
fn churn_with_holes_matches_btreemap() {
    let mut state = 0x0BAD_C0DEu64;
    let mut ops = Vec::new();
    for i in 0..5_000u64 {
        let x = splitmix64(&mut state);
        let key = x % 40;
        ops.push(match x % 5 {
            0 | 1 => Op::Insert(key, i as u32),
            2 | 3 => Op::Remove(key),
            _ => Op::Iterate,
        });
    }
    run_diff(&ops);
}

/// Arbitrary op streams observe no difference between the dense map and
/// the `BTreeMap` model.
#[test]
fn dense_map_and_btreemap_are_observationally_identical() {
    let mut g = Prng::seed_from(0xDE_0001);
    for case in 0..256 {
        let n = g.range(1, 399);
        let raw: Vec<(u8, u64, u64)> = (0..n).map(|_| (g.next_u64() as u8, g.next_u64(), g.next_u64())).collect();
        if let Err(panic) = std::panic::catch_unwind(|| run_diff(&decode(&raw))) {
            eprintln!("failing case {case}: {raw:?}");
            std::panic::resume_unwind(panic);
        }
    }
}
