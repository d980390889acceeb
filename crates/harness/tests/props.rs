//! Property tests of the harness seeding and statistics layers.
//!
//! Each property is a seeded loop: a [`Prng`] with the test's own fixed
//! seed draws every case's inputs, and each assertion names the case
//! index and those inputs, so a failure reproduces exactly.

use hwdp_harness::{job_seed, repeat_seed, summarize, t95};
use hwdp_sim::Prng;

/// Cases per property.
const CASES: usize = 256;

/// Maps a raw draw in `[0, 2·half)` onto an integer-valued f64 in
/// `[-half, half)`: integer samples keep sums exact, so closed-form
/// comparisons below are bit-level, not approximate.
fn centered(v: u64, half: u64) -> f64 {
    v as f64 - half as f64
}

/// `n` integer-valued samples, each `centered(below(2·half), half)`, with
/// `n` drawn from `[lo, hi]`.
fn sample(g: &mut Prng, lo: u64, hi: u64, half: u64) -> Vec<f64> {
    let n = g.range(lo, hi);
    (0..n).map(|_| centered(g.below(2 * half), half)).collect()
}

/// Repeat 0 is the job seed itself: `repeats = 1` campaigns stay
/// byte-identical to plain runs for every possible seed.
#[test]
fn repeat_zero_anchors_to_job_seed() {
    let mut g = Prng::seed_from(0x4A_0001);
    for case in 0..CASES {
        let seed = g.next_u64();
        assert_eq!(repeat_seed(seed, 0), seed, "case {case}: seed {seed:#x}");
    }
}

/// Per-repeat seeds are pairwise distinct within any realistic repeat
/// count, for any job seed.
#[test]
fn repeat_seeds_pairwise_distinct() {
    let mut g = Prng::seed_from(0x4A_0002);
    for case in 0..CASES {
        let (seed, k) = (g.next_u64(), g.range(2, 63) as u32);
        let seeds: Vec<u64> = (0..k).map(|i| repeat_seed(seed, i)).collect();
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), seeds.len(), "case {case}: seed {seed:#x}, k {k}: repeat seeds collided: {seeds:?}");
    }
}

/// `repeat_seed` is a pure function of `(seed, k)`: evaluating the
/// repeats in any order (here: reversed) yields the same values, so a
/// resumed or partially parallel campaign reproduces the same runs.
#[test]
fn repeat_seeds_order_independent() {
    let mut g = Prng::seed_from(0x4A_0003);
    for case in 0..CASES {
        let (seed, k) = (g.next_u64(), g.range(1, 63) as u32);
        let forward: Vec<u64> = (0..k).map(|i| repeat_seed(seed, i)).collect();
        let mut backward: Vec<u64> = (0..k).rev().map(|i| repeat_seed(seed, i)).collect();
        backward.reverse();
        assert_eq!(forward, backward, "case {case}: seed {seed:#x}, k {k}");
    }
}

/// The repeat tree of a derived job seed stays disjoint from the
/// job-seed tree of the same campaign: repeats never replay a sibling
/// job's run.
#[test]
fn repeat_tree_disjoint_from_job_tree() {
    let mut g = Prng::seed_from(0x4A_0004);
    for case in 0..CASES {
        let (campaign, idx, k) = (g.next_u64(), g.below(32), g.range(1, 31) as u32);
        let job = job_seed(campaign, idx);
        let repeat = repeat_seed(job, k);
        for other in 0..32u64 {
            assert_ne!(
                repeat,
                job_seed(campaign, other),
                "case {case}: campaign {campaign:#x}, job {idx}, repeat {k}, sibling {other}"
            );
        }
    }
}

/// Mean lies within the sample range; spread measures are
/// non-negative and the interval brackets the mean.
#[test]
fn summary_basic_invariants() {
    let mut g = Prng::seed_from(0x4A_0005);
    for case in 0..CASES {
        let sample = sample(&mut g, 1, 15, 1_000_000);
        let ctx = format!("case {case}: sample {sample:?}");
        let s = summarize(&sample);
        let min = sample.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = sample.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(s.mean >= min && s.mean <= max, "{ctx}");
        assert!(s.stddev >= 0.0 && s.ci95_half >= 0.0, "{ctx}");
        let (lo, hi) = s.interval();
        assert!(lo <= s.mean && s.mean <= hi, "{ctx}");
    }
}

/// The reported CI half-width matches the closed form
/// `t95(n−1) · sd / √n` exactly.
#[test]
fn ci_matches_closed_form() {
    let mut g = Prng::seed_from(0x4A_0006);
    for case in 0..CASES {
        let sample = sample(&mut g, 2, 11, 1_000);
        let s = summarize(&sample);
        let n = sample.len();
        assert_eq!(s.ci95_half, t95(n - 1) * s.stddev / (n as f64).sqrt(), "case {case}: sample {sample:?}");
    }
}

/// Closed-form check against the two-point distribution {a, b}:
/// mean = (a+b)/2, sd = |a−b|/2 · √2, CI = t95(1)·sd/√2.
#[test]
fn two_point_distribution_closed_form() {
    let mut g = Prng::seed_from(0x4A_0007);
    for case in 0..CASES {
        let (a, b) = (centered(g.below(2_000), 1_000), centered(g.below(2_000), 1_000));
        let ctx = format!("case {case}: a {a}, b {b}");
        let s = summarize(&[a, b]);
        assert_eq!(s.mean, (a + b) / 2.0, "{ctx}");
        let sd = ((a - b) / 2.0).abs() * 2.0_f64.sqrt();
        assert!((s.stddev - sd).abs() <= 1e-9 * (1.0 + sd), "{ctx}");
        let ci = t95(1) * sd / 2.0_f64.sqrt();
        assert!((s.ci95_half - ci).abs() <= 1e-9 * (1.0 + ci), "{ctx}");
    }
}

/// Constant samples have exactly zero spread at any size.
#[test]
fn constant_sample_zero_spread() {
    let mut g = Prng::seed_from(0x4A_0008);
    for case in 0..CASES {
        let (x, n) = (centered(g.below(2_000_000), 1_000_000), g.range(1, 15) as usize);
        let ctx = format!("case {case}: {n} x {x}");
        let s = summarize(&vec![x; n]);
        assert_eq!(s.mean, x, "{ctx}");
        assert_eq!(s.stddev, 0.0, "{ctx}");
        assert_eq!(s.ci95_half, 0.0, "{ctx}");
    }
}

/// Shifting every sample by a constant shifts the mean and leaves the
/// spread (nearly) unchanged.
#[test]
fn shift_moves_mean_not_spread() {
    let mut g = Prng::seed_from(0x4A_0009);
    for case in 0..CASES {
        let base = sample(&mut g, 2, 11, 1_000);
        let shift = centered(g.below(2_000), 1_000);
        let ctx = format!("case {case}: shift {shift}, base {base:?}");
        let shifted: Vec<f64> = base.iter().map(|v| v + shift).collect();
        let (s0, s1) = (summarize(&base), summarize(&shifted));
        assert!((s1.mean - (s0.mean + shift)).abs() <= 1e-9 * (1.0 + shift.abs()), "{ctx}");
        assert!((s1.stddev - s0.stddev).abs() <= 1e-9 * (1.0 + s0.stddev), "{ctx}");
    }
}

/// Integer-valued samples summarize order-independently: their sum is
/// exact in any order, so the mean is bit-identical; the spread (whose
/// squared deviations round) agrees to rounding error.
#[test]
fn integer_samples_order_invariant() {
    let mut g = Prng::seed_from(0x4A_000A);
    for case in 0..CASES {
        let forward = sample(&mut g, 2, 11, 100_000);
        let ctx = format!("case {case}: sample {forward:?}");
        let mut backward = forward.clone();
        backward.reverse();
        let (a, b) = (summarize(&forward), summarize(&backward));
        assert_eq!(a.mean, b.mean, "{ctx}");
        assert!((a.stddev - b.stddev).abs() <= 1e-9 * (1.0 + a.stddev), "{ctx}");
        assert!((a.ci95_half - b.ci95_half).abs() <= 1e-9 * (1.0 + a.ci95_half), "{ctx}");
    }
}
