//! A set-associative TLB with true-LRU replacement and shootdown.
//!
//! Used by the MMU model in `hwdp-core`: a hit skips the page-table walk
//! entirely; a miss pays the walk cost and, on a non-present PTE, enters
//! the demand-paging machinery.

use std::ops::Range;

use crate::addr::{Pfn, Vpn};

#[derive(Clone, Copy, Debug)]
struct Way {
    vpn: Vpn,
    pfn: Pfn,
    /// Larger = more recently used.
    stamp: u64,
    valid: bool,
}

/// TLB hit/miss statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries discarded by invalidation.
    pub invalidations: u64,
}

impl TlbStats {
    /// Hit ratio in `[0, 1]` (zero when no lookups yet).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A set-associative translation lookaside buffer.
///
/// ```
/// use hwdp_mem::addr::{Pfn, Vpn};
/// use hwdp_mem::tlb::Tlb;
/// let mut tlb = Tlb::new(64, 4);
/// assert_eq!(tlb.lookup(Vpn(5)), None);
/// tlb.fill(Vpn(5), Pfn(9));
/// assert_eq!(tlb.lookup(Vpn(5)), Some(Pfn(9)));
/// ```
#[derive(Clone, Debug)]
pub struct Tlb {
    /// Every way, set-major: set `s` is `ways[s * assoc..(s + 1) * assoc]`.
    ways: Vec<Way>,
    assoc: usize,
    /// `ways.len() / assoc - 1`, the set-index mask.
    set_mask: usize,
    /// Valid ways, so a shootdown or flush of an empty TLB is free.
    live: usize,
    tick: u64,
    stats: TlbStats,
}

impl Tlb {
    /// Creates a TLB with `entries` total entries and `ways` associativity.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a positive multiple of `ways`, or the set
    /// count is not a power of two.
    pub fn new(entries: usize, ways: usize) -> Self {
        assert!(ways > 0 && entries > 0, "TLB must have capacity");
        assert!(entries % ways == 0, "entries must divide evenly into ways");
        let nsets = entries / ways;
        assert!(nsets.is_power_of_two(), "set count must be a power of two");
        Tlb {
            ways: vec![Way { vpn: Vpn(0), pfn: Pfn(0), stamp: 0, valid: false }; entries],
            assoc: ways,
            set_mask: nsets - 1,
            live: 0,
            tick: 0,
            stats: TlbStats::default(),
        }
    }

    /// The indices in `ways` of `vpn`'s set.
    fn set_of(&self, vpn: Vpn) -> Range<usize> {
        let start = ((vpn.0 as usize) & self.set_mask) * self.assoc;
        start..start + self.assoc
    }

    /// Looks up a translation, updating LRU state and statistics.
    pub fn lookup(&mut self, vpn: Vpn) -> Option<Pfn> {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_of(vpn);
        for way in &mut self.ways[set] {
            if way.valid && way.vpn == vpn {
                way.stamp = tick;
                self.stats.hits += 1;
                return Some(way.pfn);
            }
        }
        self.stats.misses += 1;
        None
    }

    /// Inserts a translation after a walk, evicting the LRU way if the set
    /// is full.
    pub fn fill(&mut self, vpn: Vpn, pfn: Pfn) {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_of(vpn);
        let set = &mut self.ways[set];
        // Update in place if already present (refill after permission change).
        if let Some(way) = set.iter_mut().find(|w| w.valid && w.vpn == vpn) {
            way.pfn = pfn;
            way.stamp = tick;
            return;
        }
        if let Some(victim) = set.iter_mut().min_by_key(|w| if w.valid { w.stamp } else { 0 }) {
            let refills_empty = !victim.valid;
            *victim = Way { vpn, pfn, stamp: tick, valid: true };
            self.live += usize::from(refills_empty);
        }
    }

    /// Invalidates one page (single-page shootdown). Returns `true` if an
    /// entry was removed.
    pub fn invalidate(&mut self, vpn: Vpn) -> bool {
        if self.live == 0 {
            return false;
        }
        let set = self.set_of(vpn);
        for way in &mut self.ways[set] {
            if way.valid && way.vpn == vpn {
                way.valid = false;
                self.live -= 1;
                self.stats.invalidations += 1;
                return true;
            }
        }
        false
    }

    /// Invalidates everything (full flush, e.g. on context switch without
    /// PCID).
    pub fn flush(&mut self) {
        if self.live == 0 {
            return;
        }
        for way in &mut self.ways {
            way.valid = false;
        }
        self.stats.invalidations += self.live as u64;
        self.live = 0;
    }

    /// Statistics so far.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Total capacity in entries.
    pub fn capacity(&self) -> usize {
        self.ways.len()
    }

    /// Read-only iteration over the live `(vpn, pfn)` translations, in
    /// deterministic set/way order. Unlike [`Tlb::lookup`] this touches no
    /// LRU state and no statistics — it exists for the hwdp-audit
    /// `tlb-pte-match` cross-check, which must be observation-only.
    pub fn entries(&self) -> impl Iterator<Item = (Vpn, Pfn)> + '_ {
        self.ways.iter().filter(|w| w.valid).map(|w| (w.vpn, w.pfn))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_fill_then_hit() {
        let mut tlb = Tlb::new(16, 4);
        assert_eq!(tlb.lookup(Vpn(1)), None);
        tlb.fill(Vpn(1), Pfn(10));
        assert_eq!(tlb.lookup(Vpn(1)), Some(Pfn(10)));
        let s = tlb.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn lru_evicts_least_recent() {
        // One set of 2 ways.
        let mut tlb = Tlb::new(2, 2);
        tlb.fill(Vpn(0), Pfn(100));
        tlb.fill(Vpn(16), Pfn(116)); // same set (set index masks low bits)
        assert_eq!(tlb.lookup(Vpn(0)), Some(Pfn(100))); // touch 0 → 16 is LRU
        tlb.fill(Vpn(32), Pfn(132));
        assert_eq!(tlb.lookup(Vpn(16)), None, "LRU way evicted");
        assert_eq!(tlb.lookup(Vpn(0)), Some(Pfn(100)));
        assert_eq!(tlb.lookup(Vpn(32)), Some(Pfn(132)));
    }

    #[test]
    fn fill_updates_existing_entry() {
        let mut tlb = Tlb::new(4, 2);
        tlb.fill(Vpn(3), Pfn(1));
        tlb.fill(Vpn(3), Pfn(2));
        assert_eq!(tlb.lookup(Vpn(3)), Some(Pfn(2)));
    }

    #[test]
    fn invalidate_single_page() {
        let mut tlb = Tlb::new(8, 2);
        tlb.fill(Vpn(5), Pfn(50));
        assert!(tlb.invalidate(Vpn(5)));
        assert!(!tlb.invalidate(Vpn(5)), "second invalidate finds nothing");
        assert_eq!(tlb.lookup(Vpn(5)), None);
        assert_eq!(tlb.stats().invalidations, 1);
    }

    #[test]
    fn flush_clears_all() {
        let mut tlb = Tlb::new(8, 2);
        for i in 0..8 {
            tlb.fill(Vpn(i), Pfn(i));
        }
        tlb.flush();
        for i in 0..8 {
            assert_eq!(tlb.lookup(Vpn(i)), None);
        }
        assert_eq!(tlb.stats().invalidations, 8);
    }

    #[test]
    fn distinct_sets_dont_conflict() {
        let mut tlb = Tlb::new(8, 1); // 8 sets, direct-mapped
        for i in 0..8 {
            tlb.fill(Vpn(i), Pfn(i + 100));
        }
        for i in 0..8 {
            assert_eq!(tlb.lookup(Vpn(i)), Some(Pfn(i + 100)));
        }
    }

    #[test]
    fn hit_ratio() {
        let mut tlb = Tlb::new(4, 4);
        tlb.fill(Vpn(1), Pfn(1));
        tlb.lookup(Vpn(1));
        tlb.lookup(Vpn(2));
        assert!((tlb.stats().hit_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(TlbStats::default().hit_ratio(), 0.0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_sets() {
        let _ = Tlb::new(12, 4);
    }

    #[test]
    fn capacity_reported() {
        assert_eq!(Tlb::new(64, 4).capacity(), 64);
    }

    #[test]
    fn entries_iterates_live_translations_without_side_effects() {
        let mut tlb = Tlb::new(8, 2);
        tlb.fill(Vpn(1), Pfn(10));
        tlb.fill(Vpn(2), Pfn(20));
        tlb.invalidate(Vpn(2));
        let stats_before = tlb.stats();
        let mut live: Vec<_> = tlb.entries().collect();
        live.sort();
        assert_eq!(live, vec![(Vpn(1), Pfn(10))]);
        assert_eq!(tlb.stats(), stats_before, "audit iteration is observation-only");
    }
}
