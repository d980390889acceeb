//! Page-table walker timing model with paging-structure caches.
//!
//! x86-64 MMUs cache upper-level page-table entries (Intel's paging
//! structure caches / AMD's page walk caches) so that a TLB miss rarely
//! pays four dependent memory accesses: a PWC hit on the PMD level means
//! only the leaf PTE must be fetched, typically from the LLC.
//!
//! The model tracks small per-level caches of upper-level entries (keyed
//! by the relevant VPN prefix) and charges per-level access latencies:
//! a PWC lookup is effectively free; each uncached level costs an
//! LLC-resident access; leaf PTE fetches hit the LLC with high probability
//! (the paper makes the same assumption for the SMU's updater — Fig. 11(b)
//! charges three *LLC* read-modify-writes).

use crate::addr::Vpn;
use hwdp_sim::time::Duration;

/// Per-level access cost when the entry is not in a paging-structure
/// cache (an LLC hit; ~35 ns at 2.8 GHz).
const LEVEL_FETCH: Duration = Duration::from_nanos(35);
/// Leaf PTE fetch (LLC hit).
const LEAF_FETCH: Duration = Duration::from_nanos(30);
/// A full miss to DRAM for the leaf (rare; cold tables).
const LEAF_DRAM: Duration = Duration::from_nanos(90);

/// One small fully-associative cache of upper-level entries, LRU.
#[derive(Clone, Debug)]
struct LevelCache {
    tags: Vec<u64>,
    stamps: Vec<u64>,
    tick: u64,
    capacity: usize,
}

impl LevelCache {
    fn new(capacity: usize) -> Self {
        LevelCache { tags: Vec::new(), stamps: Vec::new(), tick: 0, capacity }
    }

    /// Returns `true` on hit; inserts on miss (evicting LRU).
    #[inline]
    fn touch(&mut self, tag: u64) -> bool {
        self.tick += 1;
        if let Some(i) = self.tags.iter().position(|&t| t == tag) {
            self.stamps[i] = self.tick;
            return true;
        }
        if self.tags.len() < self.capacity {
            self.tags.push(tag);
            self.stamps.push(self.tick);
        } else {
            if let Some(lru) =
                self.stamps.iter().enumerate().min_by_key(|(_, &s)| s).map(|(i, _)| i)
            {
                self.tags[lru] = tag;
                self.stamps[lru] = self.tick;
            }
        }
        false
    }

    fn flush(&mut self) {
        self.tags.clear();
        self.stamps.clear();
    }
}

/// Walker statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalkerStats {
    /// Walks performed.
    pub walks: u64,
    /// Upper-level fetches skipped thanks to PWC hits.
    pub pwc_hits: u64,
    /// Upper-level fetches that went to the cache hierarchy.
    pub pwc_misses: u64,
}

/// The hardware page-table walker's timing model.
///
/// ```
/// use hwdp_mem::addr::Vpn;
/// use hwdp_mem::walker::Walker;
/// let mut w = Walker::new();
/// let first = w.walk(Vpn(0x123));
/// let again = w.walk(Vpn(0x124)); // same upper levels: PWC hits
/// assert!(again < first);
/// ```
#[derive(Clone, Debug)]
pub struct Walker {
    pgd: LevelCache,
    pud: LevelCache,
    pmd: LevelCache,
    stats: WalkerStats,
}

impl Default for Walker {
    fn default() -> Self {
        Self::new()
    }
}

impl Walker {
    /// Creates a walker with typical paging-structure-cache sizes
    /// (PML4/PDPTE: 4 entries, PDE: 32 entries — Skylake-class).
    pub fn new() -> Self {
        Walker {
            pgd: LevelCache::new(4),
            pud: LevelCache::new(4),
            pmd: LevelCache::new(32),
            stats: WalkerStats::default(),
        }
    }

    /// Performs (and times) one walk to `vpn`'s leaf PTE, updating the
    /// paging-structure caches.
    #[inline]
    pub fn walk(&mut self, vpn: Vpn) -> Duration {
        self.stats.walks += 1;
        let mut t = Duration::ZERO;
        let mut missed_upper = false;
        // Tags are the VPN prefixes covered by each level's entry.
        for (cache, shift) in
            [(&mut self.pgd, 27u32), (&mut self.pud, 18), (&mut self.pmd, 9)]
        {
            if cache.touch(vpn.0 >> shift) {
                self.stats.pwc_hits += 1;
            } else {
                self.stats.pwc_misses += 1;
                t += LEVEL_FETCH;
                missed_upper = true;
            }
        }
        // Leaf fetch: cold subtrees (any upper miss) tend to find the PTE
        // line in DRAM; warm walks find it in the LLC.
        t += if missed_upper { LEAF_DRAM } else { LEAF_FETCH };
        t
    }

    /// Flushes the paging-structure caches (context switch / full TLB
    /// shootdown).
    pub fn flush(&mut self) {
        self.pgd.flush();
        self.pud.flush();
        self.pmd.flush();
    }

    /// Statistics so far.
    pub fn stats(&self) -> WalkerStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_walks_are_cheap() {
        let mut w = Walker::new();
        let cold = w.walk(Vpn(0));
        let warm = w.walk(Vpn(1)); // same PGD/PUD/PMD entries
        assert!(warm < cold, "warm {warm} vs cold {cold}");
        assert_eq!(warm, LEAF_FETCH);
        // Cold: 3 level fetches + DRAM leaf.
        assert_eq!(cold, LEVEL_FETCH * 3 + LEAF_DRAM);
    }

    #[test]
    fn crossing_a_2mib_boundary_misses_pmd_only() {
        let mut w = Walker::new();
        w.walk(Vpn(0));
        let cross = w.walk(Vpn(512)); // new PMD entry, same PUD/PGD
        assert_eq!(cross, LEVEL_FETCH + LEAF_DRAM);
    }

    #[test]
    fn pwc_capacity_evicts_lru() {
        let mut w = Walker::new();
        // 33 distinct 2 MiB regions overflow the 32-entry PDE cache.
        for i in 0..33u64 {
            w.walk(Vpn(i * 512));
        }
        // Region 0 was evicted: walking it again misses the PMD level.
        let t = w.walk(Vpn(0));
        assert!(t >= LEVEL_FETCH + LEAF_FETCH.min(LEAF_DRAM), "{t}");
        assert!(w.stats().pwc_misses > 33);
    }

    #[test]
    fn flush_cools_everything() {
        let mut w = Walker::new();
        w.walk(Vpn(7));
        w.flush();
        let t = w.walk(Vpn(7));
        assert_eq!(t, LEVEL_FETCH * 3 + LEAF_DRAM);
    }

    #[test]
    fn stats_add_up() {
        let mut w = Walker::new();
        for i in 0..10 {
            w.walk(Vpn(i));
        }
        let s = w.stats();
        assert_eq!(s.walks, 10);
        assert_eq!(s.pwc_hits + s.pwc_misses, 30, "3 levels per walk");
    }
}
