//! Property-based tests of the simulation kernel.

use hwdp_sim::dist::{Latest, ScrambledZipfian, Zipfian};
use hwdp_sim::events::EventQueue;
use hwdp_sim::rng::Prng;
use hwdp_sim::stats::LatencyHist;
use hwdp_sim::time::{Duration, Freq, Time};
use proptest::prelude::*;

proptest! {
    /// below(bound) is always within bound, for any seed and bound.
    #[test]
    fn rng_below_in_range(seed: u64, bound in 1u64..u64::MAX) {
        let mut r = Prng::seed_from(seed);
        for _ in 0..64 {
            prop_assert!(r.below(bound) < bound);
        }
    }

    /// range(lo, hi) is inclusive-bounded.
    #[test]
    fn rng_range_inclusive(seed: u64, lo in 0u64..1_000_000, width in 0u64..1_000_000) {
        let mut r = Prng::seed_from(seed);
        let hi = lo + width;
        for _ in 0..32 {
            let v = r.range(lo, hi);
            prop_assert!((lo..=hi).contains(&v));
        }
    }

    /// Zipfian samples stay in range for arbitrary populations and skews.
    #[test]
    fn zipfian_in_range(seed: u64, items in 1u64..100_000, theta in 0.01f64..0.999) {
        let mut z = Zipfian::new(items, theta);
        let mut r = Prng::seed_from(seed);
        for _ in 0..64 {
            prop_assert!(z.sample(&mut r) < items);
        }
    }

    /// Scrambled Zipfian and Latest stay in range too.
    #[test]
    fn derived_distributions_in_range(seed: u64, items in 1u64..100_000) {
        let mut s = ScrambledZipfian::new(items);
        let mut l = Latest::new(items);
        let mut r = Prng::seed_from(seed);
        for _ in 0..32 {
            prop_assert!(s.sample(&mut r) < items);
            prop_assert!(l.sample(&mut r) < items);
        }
    }

    /// Growing a Zipfian never shrinks its range and keeps samples valid.
    #[test]
    fn zipfian_grow_valid(seed: u64, start in 1u64..1000, extra in 0u64..5000) {
        let mut z = Zipfian::new(start, 0.99);
        z.grow_to(start + extra);
        let mut r = Prng::seed_from(seed);
        for _ in 0..32 {
            prop_assert!(z.sample(&mut r) < start + extra);
        }
    }

    /// Histogram percentiles are monotone in q and bracket the exact
    /// min/max; the mean is exact.
    #[test]
    fn hist_percentiles_monotone(samples in prop::collection::vec(1u64..10_000_000u64, 1..200)) {
        let mut h = LatencyHist::new();
        let mut exact_sum = 0u64;
        for &ns in &samples {
            h.record(Duration::from_nanos(ns));
            exact_sum += ns;
        }
        let mut last = Duration::ZERO;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let p = h.percentile(q);
            prop_assert!(p >= last, "percentiles must be monotone");
            last = p;
        }
        prop_assert_eq!(h.percentile(1.0).as_nanos(), *samples.iter().max().unwrap());
        prop_assert_eq!(h.mean().as_nanos(), exact_sum / samples.len() as u64);
        // p0..p100 bracket every bucketed sample within log-bucket error.
        let min = *samples.iter().min().unwrap();
        prop_assert!(h.percentile(0.0).as_nanos() <= min);
    }

    /// The event queue pops everything it was given, in time order, with
    /// same-time FIFO stability.
    #[test]
    fn event_queue_total_order(times in prop::collection::vec(0u64..1000u64, 1..100)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(Time::ZERO + Duration::from_nanos(t), (t, i));
        }
        let mut popped = Vec::new();
        while let Some((at, (t, i))) = q.pop() {
            prop_assert_eq!(at.since_start().as_nanos(), t);
            popped.push((t, i));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO among equal times");
            }
        }
    }

    /// The same total-order law over the whole picosecond domain, with
    /// pops interleaved so later schedules can land behind the clock (the
    /// full observational diff lives in `tests/scheduler_diff.rs`).
    #[test]
    fn event_queue_total_order_over_the_full_time_domain(
        times in prop::collection::vec(any::<u64>(), 1..100)
    ) {
        let mut q = EventQueue::new();
        let mut popped = Vec::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(Time::ZERO + Duration::from_ps(t), (t, i));
            if i % 3 == 2 {
                popped.extend(q.pop());
            }
        }
        popped.extend(std::iter::from_fn(|| q.pop()));
        prop_assert_eq!(popped.len(), times.len());
        for win in popped.windows(2) {
            // Pops report the clamped time: never backwards.
            prop_assert!(win[0].0 <= win[1].0, "clock order");
        }
        // Without interleaved pops the raw order is exactly (time, id).
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(Time::ZERO + Duration::from_ps(t), (t, i));
        }
        let order: Vec<(u64, usize)> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        let mut expected: Vec<(u64, usize)> = times.iter().copied().zip(0..).collect();
        expected.sort_unstable();
        prop_assert_eq!(order, expected);
    }

    /// Cycle/duration conversions round-trip for any frequency.
    #[test]
    fn freq_roundtrip(mhz in 100u64..6000, cycles in 0u64..1_000_000) {
        let f = Freq::from_mhz(mhz);
        let d = f.cycles(cycles);
        let back = f.cycles_in(d);
        // Rounding to picoseconds loses at most one cycle.
        prop_assert!(back.abs_diff(cycles) <= 1, "{} -> {} -> {}", cycles, d, back);
    }

    /// Duration arithmetic is consistent: (a + b) - b == a.
    #[test]
    fn duration_add_sub(a in 0u64..u64::MAX / 4, b in 0u64..u64::MAX / 4) {
        let da = Duration::from_ps(a);
        let db = Duration::from_ps(b);
        prop_assert_eq!((da + db) - db, da);
        prop_assert_eq!(da.saturating_sub(da + db), Duration::ZERO);
    }
}
