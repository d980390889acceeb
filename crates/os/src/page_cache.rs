//! The OS page cache, LRU lists and reverse mapping.
//!
//! The page cache maps `(file, page)` to the frame caching it. The LRU is
//! a second-chance clock (the paper notes Linux uses a clock variant,
//! §VI-C) over *OS-known* pages only: under HWDP, a hardware-handled page
//! is **not** in these structures until `kpted` synchronizes it — exactly
//! the paper's deferred-metadata design — and therefore cannot be chosen
//! for eviction until then.

use std::collections::VecDeque;

use crate::fs::FileId;
use hwdp_mem::addr::{Pfn, Vpn};
use hwdp_sim::DenseMap;

/// One cached page's metadata.
#[derive(Clone, Copy, Debug)]
struct CachedPage {
    pfn: Pfn,
    /// The VPN mapping it (single process ⇒ at most one mapping), i.e. the
    /// reverse map used by reclaim to find and rewrite the PTE.
    vpn: Option<Vpn>,
}

/// A reclaim victim chosen by the clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Victim {
    /// File identity of the evicted page.
    pub file: FileId,
    /// Page index within the file.
    pub page: u64,
    /// Frame being reclaimed.
    pub pfn: Pfn,
    /// Mapped VPN whose PTE must be rewritten (and TLB entry shot down).
    pub vpn: Option<Vpn>,
}

/// The page cache + clock LRU + reverse map.
#[derive(Debug, Default)]
pub struct PageCache {
    /// Cached pages by file id, then by page index (both dense).
    map: DenseMap<DenseMap<CachedPage>>,
    /// Clock order; entries may be stale (removed from `map`) and are
    /// skipped lazily.
    clock: VecDeque<(u32, u64)>,
}

impl PageCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        PageCache::default()
    }

    /// Number of OS-known cached pages.
    pub fn len(&self) -> usize {
        self.map.values().map(DenseMap::len).sum()
    }

    /// `true` when no pages are tracked.
    pub fn is_empty(&self) -> bool {
        self.map.values().all(DenseMap::is_empty)
    }

    fn get(&self, file: u32, page: u64) -> Option<&CachedPage> {
        self.map.get(u64::from(file))?.get(page)
    }

    fn take(&mut self, file: u32, page: u64) -> Option<CachedPage> {
        self.map.get_mut(u64::from(file))?.remove(page)
    }

    /// Looks up the frame caching `(file, page)`.
    pub fn lookup(&self, file: FileId, page: u64) -> Option<Pfn> {
        self.get(file.0, page).map(|c| c.pfn)
    }

    /// The reverse mapping of `(file, page)`, if mapped.
    pub fn rmap(&self, file: FileId, page: u64) -> Option<Vpn> {
        self.get(file.0, page).and_then(|c| c.vpn)
    }

    /// Inserts a page (OSDP fault completion, or `kpted` syncing a
    /// hardware-handled page). Pages enter at the clock's tail (most
    /// recently used end).
    ///
    /// # Panics
    ///
    /// Panics if the page is already tracked (double insert indicates an
    /// aliasing bug — the very thing the PMSHR exists to prevent, §V).
    pub fn insert(&mut self, file: FileId, page: u64, pfn: Pfn, vpn: Option<Vpn>) {
        let prev = self
            .map
            .get_or_insert_with(u64::from(file.0), DenseMap::new)
            .insert(page, CachedPage { pfn, vpn });
        assert!(prev.is_none(), "page ({file:?},{page}) already cached: alias!");
        self.clock.push_back((file.0, page));
    }

    /// Removes a page (munmap teardown or explicit invalidation). The
    /// clock entry is dropped lazily.
    pub fn remove(&mut self, file: FileId, page: u64) -> Option<Pfn> {
        self.take(file.0, page).map(|c| c.pfn)
    }

    /// Read-only iteration over every cached page in deterministic
    /// `(file, page)` order: `(file, page, pfn, mapped vpn)`. Exists for
    /// the hwdp-audit cache ↔ frame-pool cross-check, which must be
    /// observation-only (no clock rotation, no LRU touches).
    pub fn iter(&self) -> impl Iterator<Item = (FileId, u64, Pfn, Option<Vpn>)> + '_ {
        self.map.iter().flat_map(|(f, pages)| {
            // File ids are `u32`s, so the key narrows back losslessly.
            let file = FileId(f as u32);
            pages.iter().map(move |(p, c)| (file, p, c.pfn, c.vpn))
        })
    }

    /// Runs the second-chance clock to select up to `n` victims into
    /// `victims` (cleared first). `referenced(file, page, vpn)` reports
    /// whether the page was touched since the last sweep (its PTE accessed
    /// bit) — if so the page gets a second chance and rotates to the tail;
    /// the callback should clear the accessed bit.
    pub fn select_victims_into(
        &mut self,
        n: usize,
        mut referenced: impl FnMut(FileId, u64, Option<Vpn>) -> bool,
        victims: &mut Vec<Victim>,
    ) {
        victims.clear();
        // Bound the sweep: each live page is inspected at most twice per
        // call (first pass may grant a second chance).
        let mut budget = self.clock.len() * 2;
        while victims.len() < n && budget > 0 {
            let Some(key) = self.clock.pop_front() else { break };
            budget -= 1;
            let Some(&cached) = self.get(key.0, key.1) else {
                continue; // stale entry
            };
            let (file, page) = (FileId(key.0), key.1);
            if referenced(file, page, cached.vpn) {
                self.clock.push_back(key);
                continue;
            }
            self.take(key.0, key.1);
            victims.push(Victim { file, page, pfn: cached.pfn, vpn: cached.vpn });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(id: u32) -> FileId {
        FileId(id)
    }

    #[test]
    fn insert_lookup_remove() {
        let mut pc = PageCache::new();
        pc.insert(f(1), 5, Pfn(50), Some(Vpn(500)));
        assert_eq!(pc.lookup(f(1), 5), Some(Pfn(50)));
        assert_eq!(pc.rmap(f(1), 5), Some(Vpn(500)));
        assert_eq!(pc.len(), 1);
        assert_eq!(pc.remove(f(1), 5), Some(Pfn(50)));
        assert_eq!(pc.lookup(f(1), 5), None);
        assert!(pc.is_empty());
    }

    #[test]
    #[should_panic(expected = "alias")]
    fn double_insert_panics() {
        let mut pc = PageCache::new();
        pc.insert(f(1), 5, Pfn(50), None);
        pc.insert(f(1), 5, Pfn(51), None);
    }

    #[test]
    fn clock_evicts_oldest_unreferenced_first() {
        let mut pc = PageCache::new();
        for p in 0..4 {
            pc.insert(f(0), p, Pfn(p), None);
        }
        let mut victims = Vec::new();
        pc.select_victims_into(2, |_, _, _| false, &mut victims);
        let pages: Vec<u64> = victims.iter().map(|v| v.page).collect();
        assert_eq!(pages, vec![0, 1], "FIFO order when nothing is referenced");
        assert_eq!(pc.len(), 2);
    }

    #[test]
    fn second_chance_for_referenced_pages() {
        let mut pc = PageCache::new();
        for p in 0..3 {
            pc.insert(f(0), p, Pfn(p), None);
        }
        // Page 0 is referenced on first inspection; pages 1, 2 are not.
        let mut first_pass_for_0 = true;
        let mut victims = Vec::new();
        let referenced = |_, page, _| {
            if page == 0 && first_pass_for_0 {
                first_pass_for_0 = false;
                true
            } else {
                false
            }
        };
        pc.select_victims_into(2, referenced, &mut victims);
        let pages: Vec<u64> = victims.iter().map(|v| v.page).collect();
        assert_eq!(pages, vec![1, 2], "page 0 got its second chance");
        assert_eq!(pc.lookup(f(0), 0), Some(Pfn(0)), "survivor still cached");
    }

    #[test]
    fn victims_carry_reverse_mapping() {
        let mut pc = PageCache::new();
        pc.insert(f(2), 9, Pfn(99), Some(Vpn(0x900)));
        let mut victims = Vec::new();
        pc.select_victims_into(1, |_, _, _| false, &mut victims);
        assert_eq!(
            victims,
            vec![Victim { file: f(2), page: 9, pfn: Pfn(99), vpn: Some(Vpn(0x900)) }]
        );
    }

    #[test]
    fn everything_referenced_yields_no_victims() {
        let mut pc = PageCache::new();
        for p in 0..3 {
            pc.insert(f(0), p, Pfn(p), None);
        }
        let mut victims = Vec::new();
        pc.select_victims_into(3, |_, _, _| true, &mut victims);
        assert!(victims.is_empty(), "sweep budget prevents livelock");
        assert_eq!(pc.len(), 3);
    }

    #[test]
    fn iter_is_deterministic_and_observation_only() {
        let mut pc = PageCache::new();
        pc.insert(f(2), 9, Pfn(99), Some(Vpn(0x900)));
        pc.insert(f(1), 3, Pfn(13), None);
        let all: Vec<_> = pc.iter().collect();
        assert_eq!(
            all,
            vec![(f(1), 3, Pfn(13), None), (f(2), 9, Pfn(99), Some(Vpn(0x900)))],
            "key order: sorted by (file, page)"
        );
        // Iteration must not rotate the clock: the oldest insert is still
        // the first victim.
        let mut victims = Vec::new();
        pc.select_victims_into(1, |_, _, _| false, &mut victims);
        assert_eq!(victims[0].page, 9);
    }

    #[test]
    fn iter_yields_file_then_page_order_after_out_of_order_inserts() {
        let mut pc = PageCache::new();
        for (file, page) in [(3, 7), (0, 900), (3, 2), (1, 0), (0, 4), (3, 40)] {
            pc.insert(f(file), page, Pfn(page), None);
        }
        pc.remove(f(1), 0);
        let keys: Vec<(FileId, u64)> = pc.iter().map(|(file, page, _, _)| (file, page)).collect();
        assert_eq!(keys, [(f(0), 4), (f(0), 900), (f(3), 2), (f(3), 7), (f(3), 40)]);
        assert_eq!(pc.len(), 5);
        // File 1's pages are all gone, yet the cache is not empty.
        assert!(!pc.is_empty());
    }

    #[test]
    fn stale_clock_entries_skipped() {
        let mut pc = PageCache::new();
        pc.insert(f(0), 0, Pfn(0), None);
        pc.insert(f(0), 1, Pfn(1), None);
        pc.remove(f(0), 0); // clock entry for (0,0) is now stale
        let mut victims = Vec::new();
        pc.select_victims_into(1, |_, _, _| false, &mut victims);
        assert_eq!(victims[0].page, 1);
    }
}
