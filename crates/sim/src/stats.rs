//! Measurement plumbing: counters, running means, and latency histograms.

use std::fmt;

use crate::time::Duration;

/// A monotonically increasing event counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a zeroed counter.
    pub const fn new() -> Self {
        Counter(0)
    }

    /// Adds one.
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current count.
    pub const fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Running mean/min/max over `f64` samples (Welford's online mean).
#[derive(Clone, Copy, Debug, Default)]
pub struct Running {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Running {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Running { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Records a sample.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 if fewer than 2 samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample (`None` if empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest sample (`None` if empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }
}

/// Log-scaled latency histogram with percentile queries.
///
/// Buckets are log-spaced (32 sub-buckets per power of two of nanoseconds)
/// covering 1 ns to ~4.3 s with bounded relative error, which is plenty for
/// page-miss latencies spanning ~100 ns (HWDP overhead) to milliseconds.
///
/// ```
/// use hwdp_sim::stats::LatencyHist;
/// use hwdp_sim::time::Duration;
/// let mut h = LatencyHist::new();
/// for us in [10u64, 11, 12, 13, 100] {
///     h.record(Duration::from_micros(us));
/// }
/// assert!(h.percentile(0.5) >= Duration::from_micros(10));
/// assert!(h.percentile(1.0) >= Duration::from_micros(99));
/// ```
#[derive(Clone)]
pub struct LatencyHist {
    buckets: Vec<u64>,
    count: u64,
    sum: Duration,
    max: Duration,
    min: Duration,
}

const SUB: u64 = 32; // sub-buckets per octave
const OCTAVES: u64 = 33; // 1ns .. 2^32 ns (~4.3 s)

fn bucket_of(d: Duration) -> usize {
    let ns = d.as_nanos().max(1);
    let oct = 63 - ns.leading_zeros() as u64; // floor(log2 ns)
    let oct = oct.min(OCTAVES - 1);
    // (ns - base) * SUB / base, with the power-of-two division a shift.
    let frac = ((ns - (1u64 << oct)) * SUB) >> oct; // 0..SUB
    (oct * SUB + frac.min(SUB - 1)) as usize
}

fn bucket_lower(i: usize) -> Duration {
    let oct = (i as u64) / SUB;
    let frac = (i as u64) % SUB;
    let base = 1u64 << oct;
    Duration::from_nanos(base + (base * frac) / SUB)
}

impl Default for LatencyHist {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHist {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHist {
            buckets: vec![0; (SUB * OCTAVES) as usize],
            count: 0,
            sum: Duration::ZERO,
            max: Duration::ZERO,
            min: Duration::from_secs(u64::MAX / 2_000_000_000_000),
        }
    }

    /// Records one latency sample.
    pub fn record(&mut self, d: Duration) {
        self.buckets[bucket_of(d)] += 1;
        self.count += 1;
        self.sum += d;
        self.max = self.max.max(d);
        self.min = self.min.min(d);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency ([`Duration::ZERO`] if empty).
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            Duration::ZERO
        } else {
            self.sum / self.count
        }
    }

    /// Exact maximum recorded sample.
    pub fn max(&self) -> Duration {
        self.max
    }

    /// Exact minimum recorded sample ([`Duration::ZERO`] if empty).
    pub fn min(&self) -> Duration {
        if self.count == 0 {
            Duration::ZERO
        } else {
            self.min
        }
    }

    /// Approximate percentile `q` in `[0, 1]` (bucket lower bound; `q = 1`
    /// returns the exact max).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn percentile(&self, q: f64) -> Duration {
        assert!((0.0..=1.0).contains(&q), "percentile out of range");
        if self.count == 0 {
            return Duration::ZERO;
        }
        if q >= 1.0 {
            return self.max;
        }
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_lower(i);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        if other.count > 0 {
            self.min = self.min.min(other.min);
        }
    }
}

impl fmt::Debug for LatencyHist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LatencyHist")
            .field("count", &self.count)
            .field("mean", &self.mean())
            .field("p50", &self.percentile(0.5))
            .field("p99", &self.percentile(0.99))
            .field("max", &self.max)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `bucket_of` shifts where it used to divide by the octave's base;
    /// the two agree at every octave's edges and at random points in it,
    /// the clamped top octave included.
    #[test]
    fn bucket_of_matches_the_division_form() {
        fn by_division(d: Duration) -> usize {
            let ns = d.as_nanos().max(1);
            let oct = (63 - ns.leading_zeros() as u64).min(OCTAVES - 1);
            let base = 1u64 << oct;
            let frac = ((ns - base) * SUB) / base;
            (oct * SUB + frac.min(SUB - 1)) as usize
        }
        let mut g = crate::rng::Prng::seed_from(0x51_5701);
        for oct in 0..OCTAVES + 2 {
            let base = 1u64 << oct;
            let mut probes = vec![base - 1, base, base + 1, 2 * base - 1];
            probes.extend((0..64).map(|_| base + g.below(base)));
            for ns in probes {
                let d = Duration::from_nanos(ns);
                assert_eq!(bucket_of(d), by_division(d), "octave {oct}: {ns} ns");
            }
        }
        assert_eq!(bucket_of(Duration::ZERO), by_division(Duration::ZERO));
    }

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(format!("{c}"), "5");
    }

    #[test]
    fn running_moments() {
        let mut r = Running::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            r.record(x);
        }
        assert_eq!(r.count(), 8);
        assert!((r.mean() - 5.0).abs() < 1e-12);
        assert!((r.variance() - 4.0).abs() < 1e-12);
        assert_eq!(r.min(), Some(2.0));
        assert_eq!(r.max(), Some(9.0));
    }

    #[test]
    fn running_empty() {
        let r = Running::new();
        assert_eq!(r.mean(), 0.0);
        assert_eq!(r.variance(), 0.0);
        assert_eq!(r.min(), None);
        assert_eq!(r.max(), None);
    }

    #[test]
    fn hist_mean_exact() {
        let mut h = LatencyHist::new();
        h.record(Duration::from_micros(10));
        h.record(Duration::from_micros(20));
        assert_eq!(h.mean(), Duration::from_micros(15));
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), Duration::from_micros(10));
        assert_eq!(h.max(), Duration::from_micros(20));
    }

    #[test]
    fn hist_percentiles_ordered() {
        let mut h = LatencyHist::new();
        for i in 1..=1000u64 {
            h.record(Duration::from_micros(i));
        }
        let p50 = h.percentile(0.50);
        let p90 = h.percentile(0.90);
        let p99 = h.percentile(0.99);
        assert!(p50 <= p90 && p90 <= p99);
        // Relative error of log buckets is < 1/32 + rounding.
        let p50us = p50.as_micros_f64();
        assert!((450.0..=520.0).contains(&p50us), "p50 {p50us}us");
    }

    #[test]
    fn hist_p100_is_max() {
        let mut h = LatencyHist::new();
        h.record(Duration::from_nanos(123));
        h.record(Duration::from_micros(9));
        assert_eq!(h.percentile(1.0), Duration::from_micros(9));
    }

    #[test]
    fn hist_tiny_and_huge_samples() {
        let mut h = LatencyHist::new();
        h.record(Duration::ZERO); // clamps into first bucket
        h.record(Duration::from_secs(10)); // clamps into last octave
        assert_eq!(h.count(), 2);
        assert!(h.percentile(1.0) >= Duration::from_secs(10));
    }

    #[test]
    fn hist_merge() {
        let mut a = LatencyHist::new();
        let mut b = LatencyHist::new();
        a.record(Duration::from_micros(1));
        b.record(Duration::from_micros(100));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), Duration::from_micros(100));
        assert_eq!(a.min(), Duration::from_micros(1));
    }

    #[test]
    fn hist_empty_percentile_zero() {
        let h = LatencyHist::new();
        assert_eq!(h.percentile(0.5), Duration::ZERO);
        assert_eq!(h.mean(), Duration::ZERO);
        assert_eq!(h.min(), Duration::ZERO);
    }

    #[test]
    fn bucket_monotonic_in_duration() {
        let mut last = 0usize;
        for ns in [1u64, 2, 3, 5, 8, 13, 100, 1000, 10_000, 1_000_000] {
            let b = bucket_of(Duration::from_nanos(ns));
            assert!(b >= last, "bucket not monotonic at {ns}ns");
            last = b;
        }
    }
}
