//! Property tests of the simulation kernel.
//!
//! Each property is a seeded loop: a [`Prng`] with the test's own fixed
//! seed draws every case's inputs, and each assertion names the case
//! index and those inputs, so a failure reproduces exactly.

use hwdp_sim::dist::{Latest, ScrambledZipfian, Zipfian, YCSB_ZIPFIAN_THETA};
use hwdp_sim::events::EventQueue;
use hwdp_sim::rng::Prng;
use hwdp_sim::stats::LatencyHist;
use hwdp_sim::time::{Duration, Freq, Time};

/// Cases per property.
const CASES: usize = 256;

/// below(bound) is always within bound, for any seed and bound.
#[test]
fn rng_below_in_range() {
    let mut g = Prng::seed_from(0x51_0001);
    for case in 0..CASES {
        let (seed, bound) = (g.next_u64(), g.range(1, u64::MAX - 1));
        let mut r = Prng::seed_from(seed);
        for _ in 0..64 {
            assert!(r.below(bound) < bound, "case {case}: seed {seed:#x}, bound {bound}");
        }
    }
}

/// range(lo, hi) is inclusive-bounded.
#[test]
fn rng_range_inclusive() {
    let mut g = Prng::seed_from(0x51_0002);
    for case in 0..CASES {
        let (seed, lo, width) = (g.next_u64(), g.below(1_000_000), g.below(1_000_000));
        let mut r = Prng::seed_from(seed);
        let hi = lo + width;
        for _ in 0..32 {
            let v = r.range(lo, hi);
            assert!((lo..=hi).contains(&v), "case {case}: seed {seed:#x}, [{lo}, {hi}] gave {v}");
        }
    }
}

/// Zipfian samples stay in range for arbitrary populations and skews.
#[test]
fn zipfian_in_range() {
    let mut g = Prng::seed_from(0x51_0003);
    for case in 0..CASES {
        let (seed, items) = (g.next_u64(), g.range(1, 99_999));
        let theta = 0.01 + g.f64() * (0.999 - 0.01);
        let mut z = Zipfian::new(items, theta);
        let mut r = Prng::seed_from(seed);
        for _ in 0..64 {
            let s = z.sample(&mut r);
            assert!(s < items, "case {case}: seed {seed:#x}, items {items}, theta {theta} gave {s}");
        }
    }
}

/// Scrambled Zipfian and Latest stay in range too.
#[test]
fn derived_distributions_in_range() {
    let mut g = Prng::seed_from(0x51_0004);
    for case in 0..CASES {
        let (seed, items) = (g.next_u64(), g.range(1, 99_999));
        let z = Zipfian::new(items, YCSB_ZIPFIAN_THETA);
        let mut s = ScrambledZipfian::new(z.clone());
        let mut l = Latest::new(z);
        let mut r = Prng::seed_from(seed);
        for _ in 0..32 {
            assert!(s.sample(&mut r) < items, "case {case}: scrambled, seed {seed:#x}, items {items}");
            assert!(l.sample(&mut r) < items, "case {case}: latest, seed {seed:#x}, items {items}");
        }
    }
}

/// Growing a Zipfian never shrinks its range and keeps samples valid.
#[test]
fn zipfian_grow_valid() {
    let mut g = Prng::seed_from(0x51_0005);
    for case in 0..CASES {
        let (seed, start, extra) = (g.next_u64(), g.range(1, 999), g.below(5000));
        let mut z = Zipfian::new(start, 0.99);
        z.grow_to(start + extra);
        let mut r = Prng::seed_from(seed);
        for _ in 0..32 {
            let s = z.sample(&mut r);
            assert!(s < start + extra, "case {case}: seed {seed:#x}, {start} + {extra} gave {s}");
        }
    }
}

/// Histogram percentiles are monotone in q and bracket the exact
/// min/max; the mean is exact.
#[test]
fn hist_percentiles_monotone() {
    let mut g = Prng::seed_from(0x51_0006);
    for case in 0..CASES {
        let n = g.range(1, 199);
        let samples: Vec<u64> = (0..n).map(|_| g.range(1, 9_999_999)).collect();
        let mut h = LatencyHist::new();
        let mut exact_sum = 0u64;
        for &ns in &samples {
            h.record(Duration::from_nanos(ns));
            exact_sum += ns;
        }
        let mut last = Duration::ZERO;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let p = h.percentile(q);
            assert!(p >= last, "case {case}: percentiles must be monotone (q {q}) over {samples:?}");
            last = p;
        }
        let max = *samples.iter().max().unwrap();
        assert_eq!(h.percentile(1.0).as_nanos(), max, "case {case}: p100 over {samples:?}");
        assert_eq!(h.mean().as_nanos(), exact_sum / n, "case {case}: mean over {samples:?}");
        // p0..p100 bracket every bucketed sample within log-bucket error.
        let min = *samples.iter().min().unwrap();
        assert!(h.percentile(0.0).as_nanos() <= min, "case {case}: p0 over {samples:?}");
    }
}

/// The event queue pops everything it was given, in time order, with
/// same-time FIFO stability.
#[test]
fn event_queue_total_order() {
    let mut g = Prng::seed_from(0x51_0007);
    for case in 0..CASES {
        let n = g.range(1, 99);
        let times: Vec<u64> = (0..n).map(|_| g.below(1000)).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(Time::ZERO + Duration::from_nanos(t), (t, i));
        }
        let mut popped = Vec::new();
        while let Some((at, (t, i))) = q.pop() {
            assert_eq!(at.since_start().as_nanos(), t, "case {case}: times {times:?}");
            popped.push((t, i));
        }
        assert_eq!(popped.len(), times.len(), "case {case}: times {times:?}");
        for w in popped.windows(2) {
            assert!(w[0].0 <= w[1].0, "case {case}: time order over {times:?}");
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "case {case}: FIFO among equal times over {times:?}");
            }
        }
    }
}

/// The same total-order law over the whole picosecond domain, with
/// pops interleaved so later schedules can land behind the clock (the
/// full observational diff lives in `tests/scheduler_diff.rs`).
#[test]
fn event_queue_total_order_over_the_full_time_domain() {
    let mut g = Prng::seed_from(0x51_0008);
    for case in 0..CASES {
        let n = g.range(1, 99);
        let times: Vec<u64> = (0..n).map(|_| g.next_u64()).collect();
        let mut q = EventQueue::new();
        let mut popped = Vec::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(Time::ZERO + Duration::from_ps(t), (t, i));
            if i % 3 == 2 {
                popped.extend(q.pop());
            }
        }
        popped.extend(std::iter::from_fn(|| q.pop()));
        assert_eq!(popped.len(), times.len(), "case {case}: times {times:?}");
        for win in popped.windows(2) {
            // Pops report the clamped time: never backwards.
            assert!(win[0].0 <= win[1].0, "case {case}: clock order over {times:?}");
        }
        // Without interleaved pops the raw order is exactly (time, id).
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(Time::ZERO + Duration::from_ps(t), (t, i));
        }
        let order: Vec<(u64, usize)> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        let mut expected: Vec<(u64, usize)> = times.iter().copied().zip(0..).collect();
        expected.sort_unstable();
        assert_eq!(order, expected, "case {case}: times {times:?}");
    }
}

/// Cycle/duration conversions round-trip for any frequency.
#[test]
fn freq_roundtrip() {
    let mut g = Prng::seed_from(0x51_0009);
    for case in 0..CASES {
        let (mhz, cycles) = (g.range(100, 5999), g.below(1_000_000));
        let f = Freq::from_mhz(mhz);
        let d = f.cycles(cycles);
        let back = f.cycles_in(d);
        // Rounding to picoseconds loses at most one cycle.
        assert!(back.abs_diff(cycles) <= 1, "case {case}: {mhz} MHz: {cycles} -> {d} -> {back}");
    }
}

/// Duration arithmetic is consistent: (a + b) - b == a.
#[test]
fn duration_add_sub() {
    let mut g = Prng::seed_from(0x51_000A);
    for case in 0..CASES {
        let (a, b) = (g.below(u64::MAX / 4), g.below(u64::MAX / 4));
        let da = Duration::from_ps(a);
        let db = Duration::from_ps(b);
        assert_eq!((da + db) - db, da, "case {case}: a {a}, b {b}");
        assert_eq!(da.saturating_sub(da + db), Duration::ZERO, "case {case}: a {a}, b {b}");
    }
}
