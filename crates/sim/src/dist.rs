//! Workload and service-time distributions.
//!
//! * [`Zipfian`] / [`ScrambledZipfian`] — the YCSB request-popularity
//!   distributions (Gray et al.'s rejection-free method, as used in the YCSB
//!   core driver). Their normalization constant, the zeta sum, comes from
//!   a per-thread table of prefix sums per skew: the same additions in the
//!   same order as a fresh loop, so every value is bit-identical, while
//!   building a distribution costs no `powf` for a size the thread has
//!   already reached.
//! * [`Latest`] — YCSB-D's "latest" distribution: recency-skewed access over
//!   a growing keyspace.
//! * [`ServiceJitter`] — multiplicative lognormal-ish jitter for device
//!   service times (ultra-low-latency SSDs have tight but nonzero
//!   variation).

use std::cell::RefCell;
use std::collections::BTreeMap;

use crate::rng::Prng;

/// Default Zipfian skew used by YCSB.
pub const YCSB_ZIPFIAN_THETA: f64 = 0.99;

/// Zipfian distribution over `0..n` (item 0 most popular), using the
/// Gray et al. analytic method so each sample is O(1).
///
/// ```
/// use hwdp_sim::dist::Zipfian;
/// use hwdp_sim::rng::Prng;
/// let mut z = Zipfian::new(1000, 0.99);
/// let mut r = Prng::seed_from(1);
/// let v = z.sample(&mut r);
/// assert!(v < 1000);
/// ```
#[derive(Clone, Debug)]
pub struct Zipfian {
    items: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    zeta2: f64,
    /// `1 + 0.5^theta`: draws with `u * zetan` below it are rank 1.
    rank1_bound: f64,
}

/// Largest `n` whose zeta prefix sum is kept in the table (8 MiB per
/// skew); larger populations continue the sum from the last kept entry.
const ZETA_TABLE_MAX: u64 = 1 << 20;

thread_local! {
    /// Per-skew prefix sums `[zeta(1), zeta(2), …]`, keyed by the skew's
    /// bits and grown on demand. Every entry is the previous one plus
    /// `1/i^theta`, the same additions in the same order as a fresh loop,
    /// so a lookup returns the loop's bits and later jobs on this thread
    /// reuse the `powf` calls of earlier ones.
    static ZETA_PREFIX: RefCell<BTreeMap<u64, Vec<f64>>> = const { RefCell::new(BTreeMap::new()) };
}

/// `1/i^theta`, the zeta sum's `i`-th term.
fn zeta_term(i: u64, theta: f64) -> f64 {
    1.0 / (i as f64).powf(theta)
}

/// Zeta: sum_{i=1..=n} 1/i^theta, added in ascending `i`.
fn zeta(n: u64, theta: f64) -> f64 {
    let kept = n.min(ZETA_TABLE_MAX);
    let mut sum = ZETA_PREFIX.with(|table| {
        let mut table = table.borrow_mut();
        let prefix = table.entry(theta.to_bits()).or_default();
        let mut last = prefix.last().copied().unwrap_or(0.0);
        for i in prefix.len() as u64 + 1..=kept {
            last += zeta_term(i, theta);
            prefix.push(last);
        }
        kept.checked_sub(1).map_or(0.0, |k| prefix[k as usize])
    });
    for i in kept + 1..=n {
        sum += zeta_term(i, theta);
    }
    sum
}

impl Zipfian {
    /// Creates a Zipfian distribution over `0..items` with skew `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `items` is zero or `theta` is not in `(0, 1)`.
    pub fn new(items: u64, theta: f64) -> Self {
        assert!(items > 0, "zipfian needs at least one item");
        assert!(theta > 0.0 && theta < 1.0, "theta must be in (0,1)");
        let zetan = zeta(items, theta);
        let zeta2 = zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / items as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        let rank1_bound = 1.0 + 0.5f64.powf(theta);
        Zipfian { items, theta, alpha, zetan, eta, zeta2, rank1_bound }
    }

    /// Number of items in the population.
    pub fn items(&self) -> u64 {
        self.items
    }

    /// Draws a rank in `0..items` (0 = most popular).
    pub fn sample(&mut self, rng: &mut Prng) -> u64 {
        let u = rng.f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < self.rank1_bound {
            return 1;
        }
        let rank = (self.items as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.items - 1)
    }

    /// Grows the population (used by insert-heavy workloads). The
    /// normalization constant comes from the shared zeta table.
    pub fn grow_to(&mut self, items: u64) {
        if items <= self.items {
            return;
        }
        // `zetan` is `zeta(self.items)`, so extending the sum in place
        // and reading the table give the same bits.
        self.zetan = zeta(items, self.theta);
        self.items = items;
        self.eta = (1.0 - (2.0 / items as f64).powf(1.0 - self.theta))
            / (1.0 - self.zeta2 / self.zetan);
    }
}

/// Zipfian with ranks scattered over the keyspace by an FNV-style hash, so
/// popular items are not clustered (YCSB's `ScrambledZipfianGenerator`).
#[derive(Clone, Debug)]
pub struct ScrambledZipfian {
    inner: Zipfian,
}

/// 64-bit FNV-1a over the little-endian bytes of `x`.
pub fn fnv1a_u64(x: u64) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = OFFSET;
    for b in x.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

impl ScrambledZipfian {
    /// Scrambles the ranks of `inner` over its own population. Callers
    /// with several clients over one keyspace build `inner` once and hand
    /// each a clone.
    pub fn new(inner: Zipfian) -> Self {
        ScrambledZipfian { inner }
    }

    /// Draws a key in `0..items`.
    pub fn sample(&mut self, rng: &mut Prng) -> u64 {
        let rank = self.inner.sample(rng);
        fnv1a_u64(rank) % self.inner.items()
    }

    /// Number of items in the population.
    pub fn items(&self) -> u64 {
        self.inner.items()
    }
}

/// YCSB "latest" distribution: skewed towards recently inserted keys.
/// Sampling over a population of `n` keys returns `n - 1 - zipf(n)`.
#[derive(Clone, Debug)]
pub struct Latest {
    inner: Zipfian,
}

impl Latest {
    /// Skews `inner` towards the highest indices of its population.
    pub fn new(inner: Zipfian) -> Self {
        Latest { inner }
    }

    /// Draws a key, biased towards the highest (most recent) indices.
    pub fn sample(&mut self, rng: &mut Prng) -> u64 {
        let n = self.inner.items();
        n - 1 - self.inner.sample(rng)
    }

    /// Extends the population after an insert.
    pub fn grow_to(&mut self, items: u64) {
        self.inner.grow_to(items);
    }
}

/// Multiplicative service-time jitter: `exp(sigma * N(0,1))`, mean-corrected
/// so the expected multiplier is 1.
///
/// Ultra-low-latency SSDs have small but real service variation; sigma
/// around 0.05–0.12 matches published Z-SSD latency CDFs.
#[derive(Clone, Copy, Debug)]
pub struct ServiceJitter {
    sigma: f64,
}

impl ServiceJitter {
    /// Creates jitter with lognormal sigma. Zero sigma means deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or non-finite.
    pub fn new(sigma: f64) -> Self {
        assert!(sigma.is_finite() && sigma >= 0.0, "sigma must be finite and >= 0");
        ServiceJitter { sigma }
    }

    /// No jitter at all.
    pub const fn none() -> Self {
        ServiceJitter { sigma: 0.0 }
    }

    /// Draws a multiplier with expected value 1.
    pub fn multiplier(&self, rng: &mut Prng) -> f64 {
        if self.sigma == 0.0 {
            return 1.0;
        }
        // E[exp(sigma Z)] = exp(sigma^2/2); divide it out.
        (self.sigma * rng.normal() - self.sigma * self.sigma / 2.0).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `Zipfian::new` as it was before the zeta table: two fresh loops.
    fn reference_zipfian(items: u64, theta: f64) -> Zipfian {
        let zeta = |n: u64| {
            let mut sum = 0.0;
            for i in 1..=n {
                sum += 1.0 / (i as f64).powf(theta);
            }
            sum
        };
        let (zetan, zeta2) = (zeta(items), zeta(2));
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / items as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        let rank1_bound = 1.0 + 0.5f64.powf(theta);
        Zipfian { items, theta, alpha, zetan, eta, zeta2, rank1_bound }
    }

    /// Every field bit for bit, then 10,000 draws from one seed.
    fn assert_bit_identical(z: &Zipfian, reference: &Zipfian, ctx: &str) {
        let bits = |z: &Zipfian| {
            [z.theta, z.alpha, z.zetan, z.eta, z.zeta2, z.rank1_bound].map(f64::to_bits)
        };
        assert_eq!(z.items, reference.items, "{ctx}: items");
        assert_eq!(bits(z), bits(reference), "{ctx}: fields");
        let (mut a, mut b) = (z.clone(), reference.clone());
        let (mut ra, mut rb) = (Prng::seed_from(z.items), Prng::seed_from(z.items));
        for i in 0..10_000 {
            assert_eq!(a.sample(&mut ra), b.sample(&mut rb), "{ctx}: draw {i}");
        }
    }

    /// Sizes in ascending, descending and repeated order, two skews
    /// interleaved, growth, and a second thread with a table of its own.
    fn check_zeta_table_orders() {
        let ascending = [1, 2, 3, 17, 500, 4096];
        let descending = [5000, 1024, 333, 2, 1];
        let repeated = [777, 777, 12, 777];
        let orders = [("ascending", &ascending[..]), ("descending", &descending[..])];
        for (order, sizes) in orders.into_iter().chain([("repeated", &repeated[..])]) {
            for &n in sizes {
                for theta in [YCSB_ZIPFIAN_THETA, 0.5] {
                    let ctx = format!("{order} n {n} theta {theta}");
                    let reference = reference_zipfian(n, theta);
                    assert_bit_identical(&Zipfian::new(n, theta), &reference, &ctx);
                }
            }
        }
        for (start, end) in [(1, 2), (10, 6000), (700, 701), (3000, 3000)] {
            let mut z = Zipfian::new(start, YCSB_ZIPFIAN_THETA);
            z.grow_to(end);
            let reference = reference_zipfian(end, YCSB_ZIPFIAN_THETA);
            assert_bit_identical(&z, &reference, &format!("grow {start}→{end}"));
        }
        // Growing one step at a time, as inserts do.
        let mut z = Zipfian::new(100, 0.5);
        for n in 101..=300 {
            z.grow_to(n);
        }
        assert_bit_identical(&z, &reference_zipfian(300, 0.5), "grow by ones");
    }

    #[test]
    fn zeta_table_is_bit_exact() {
        check_zeta_table_orders();
        std::thread::spawn(check_zeta_table_orders).join().expect("second thread passes");
    }

    #[test]
    fn zeta_past_the_table_continues_the_same_sum() {
        let n = ZETA_TABLE_MAX + 3;
        assert_bit_identical(&Zipfian::new(n, 0.9), &reference_zipfian(n, 0.9), "past the table");
    }

    #[test]
    fn zipfian_in_range() {
        let mut z = Zipfian::new(100, 0.99);
        let mut r = Prng::seed_from(2);
        for _ in 0..5000 {
            assert!(z.sample(&mut r) < 100);
        }
    }

    #[test]
    fn zipfian_is_skewed() {
        let mut z = Zipfian::new(1000, 0.99);
        let mut r = Prng::seed_from(3);
        let n = 50_000;
        let mut top10 = 0u64;
        for _ in 0..n {
            if z.sample(&mut r) < 10 {
                top10 += 1;
            }
        }
        // Under uniform, top-10 share would be 1%. Zipf(0.99) gives far more.
        let share = top10 as f64 / n as f64;
        assert!(share > 0.30, "top-10 share {share} not skewed");
    }

    #[test]
    fn zipfian_rank_zero_most_popular() {
        let mut z = Zipfian::new(1000, 0.99);
        let mut r = Prng::seed_from(4);
        let mut counts = [0u64; 3];
        for _ in 0..50_000 {
            let v = z.sample(&mut r);
            if v < 3 {
                counts[v as usize] += 1;
            }
        }
        assert!(counts[0] > counts[1], "{counts:?}");
        assert!(counts[1] > counts[2], "{counts:?}");
    }

    #[test]
    fn zipfian_grow_extends_range() {
        let mut z = Zipfian::new(10, 0.99);
        z.grow_to(1000);
        assert_eq!(z.items(), 1000);
        let mut r = Prng::seed_from(5);
        let any_large = (0..20_000).any(|_| z.sample(&mut r) >= 10);
        assert!(any_large, "grown distribution should reach new items");
    }

    /// `Zipfian::sample` with `1 + 0.5^theta` recomputed on every draw,
    /// as it was before the bound was cached at construction.
    fn recomputing_sample(z: &Zipfian, rng: &mut Prng) -> u64 {
        let u = rng.f64();
        let uz = u * z.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(z.theta) {
            return 1;
        }
        let rank = (z.items as f64 * (z.eta * u - z.eta + 1.0).powf(z.alpha)) as u64;
        rank.min(z.items - 1)
    }

    #[test]
    fn cached_rank1_bound_matches_recomputing_reference() {
        for (items, theta) in [(1, 0.99), (2, 0.5), (10, 0.99), (1024, 0.99), (5000, 0.3)] {
            let mut z = Zipfian::new(items, theta);
            let mut cached = Prng::seed_from(items);
            let mut reference = Prng::seed_from(items);
            let mut rank1 = 0;
            for grown in 0..3 {
                for _ in 0..20_000 {
                    let v = z.sample(&mut cached);
                    let expected = recomputing_sample(&z, &mut reference);
                    assert_eq!(v, expected, "n={} theta={theta}", z.items);
                    rank1 += u64::from(v == 1);
                }
                z.grow_to(z.items * 2 + grown);
            }
            assert!(rank1 > 0, "n={items}: the rank-1 branch must be taken");
        }
    }

    #[test]
    fn zipfian_grow_smaller_is_noop() {
        let mut z = Zipfian::new(100, 0.5);
        z.grow_to(50);
        assert_eq!(z.items(), 100);
    }

    #[test]
    #[should_panic(expected = "at least one item")]
    fn zipfian_zero_items_panics() {
        let _ = Zipfian::new(0, 0.5);
    }

    #[test]
    fn scrambled_zipfian_spreads_hot_keys() {
        let mut z = ScrambledZipfian::new(Zipfian::new(1000, YCSB_ZIPFIAN_THETA));
        let mut r = Prng::seed_from(6);
        // The two hottest scrambled keys should not be adjacent ranks 0,1.
        let mut counts = std::collections::HashMap::new();
        for _ in 0..50_000 {
            *counts.entry(z.sample(&mut r)).or_insert(0u64) += 1;
        }
        let mut by_count: Vec<_> = counts.into_iter().collect();
        by_count.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        let hottest = by_count[0].0;
        let second = by_count[1].0;
        assert_ne!(hottest.abs_diff(second), 1, "hot keys should be scattered");
    }

    #[test]
    fn latest_prefers_recent() {
        let mut l = Latest::new(Zipfian::new(1000, YCSB_ZIPFIAN_THETA));
        let mut r = Prng::seed_from(7);
        let n = 20_000;
        let recent = (0..n).filter(|_| l.sample(&mut r) >= 990).count();
        let share = recent as f64 / n as f64;
        assert!(share > 0.30, "recent-10 share {share}");
    }

    #[test]
    fn latest_grow() {
        let mut l = Latest::new(Zipfian::new(10, YCSB_ZIPFIAN_THETA));
        l.grow_to(20);
        let mut r = Prng::seed_from(8);
        for _ in 0..1000 {
            assert!(l.sample(&mut r) < 20);
        }
    }

    #[test]
    fn jitter_mean_near_one() {
        let j = ServiceJitter::new(0.1);
        let mut r = Prng::seed_from(9);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| j.multiplier(&mut r)).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn jitter_none_is_exact() {
        let j = ServiceJitter::none();
        let mut r = Prng::seed_from(10);
        assert_eq!(j.multiplier(&mut r), 1.0);
    }

    #[test]
    fn fnv_is_stable() {
        // Pin the hash so persisted workloads stay reproducible.
        assert_eq!(fnv1a_u64(0), fnv1a_u64(0));
        assert_ne!(fnv1a_u64(1), fnv1a_u64(2));
    }
}
