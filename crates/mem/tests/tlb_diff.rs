//! Differential test of [`Tlb`] against [`Reference`], a nested-`Vec`
//! set-associative TLB with true-LRU replacement written independently of
//! the flat set-major layout.
//!
//! Both are driven with identical seeded streams of lookups, fills,
//! single-page invalidations and full flushes over a few geometries, and
//! must agree after every operation: lookup results (hits and misses),
//! invalidation booleans, which way a fill evicts (seen through the
//! `entries()` order), and [`TlbStats`].

use hwdp_mem::addr::{Pfn, Vpn};
use hwdp_mem::tlb::{Tlb, TlbStats};

/// One way: `(vpn, pfn, last use)`, `None` while invalid.
type Slot = Option<(Vpn, Pfn, u64)>;

/// The reference TLB: one `Vec` of ways per set. A fill takes the set's
/// first invalid way, else the way used longest ago.
struct Reference {
    sets: Vec<Vec<Slot>>,
    clock: u64,
    stats: TlbStats,
}

impl Reference {
    fn new(entries: usize, ways: usize) -> Self {
        Reference {
            sets: vec![vec![None; ways]; entries / ways],
            clock: 0,
            stats: TlbStats::default(),
        }
    }

    fn set(&mut self, vpn: Vpn) -> &mut Vec<Slot> {
        let n = self.sets.len() as u64;
        &mut self.sets[(vpn.0 % n) as usize]
    }

    fn lookup(&mut self, vpn: Vpn) -> Option<Pfn> {
        self.clock += 1;
        let now = self.clock;
        let hit = self
            .set(vpn)
            .iter_mut()
            .flatten()
            .find(|w| w.0 == vpn)
            .map(|w| {
                w.2 = now;
                w.1
            });
        match hit {
            Some(_) => self.stats.hits += 1,
            None => self.stats.misses += 1,
        }
        hit
    }

    fn fill(&mut self, vpn: Vpn, pfn: Pfn) {
        self.clock += 1;
        let now = self.clock;
        let set = self.set(vpn);
        if let Some(w) = set.iter_mut().flatten().find(|w| w.0 == vpn) {
            *w = (vpn, pfn, now);
            return;
        }
        let victim = set.iter().position(Option::is_none).unwrap_or_else(|| {
            (0..set.len())
                .min_by_key(|&i| set[i].map_or(0, |w| w.2))
                .expect("a set has ways")
        });
        set[victim] = Some((vpn, pfn, now));
    }

    fn invalidate(&mut self, vpn: Vpn) -> bool {
        let set = self.set(vpn);
        match set.iter().position(|w| w.is_some_and(|w| w.0 == vpn)) {
            Some(i) => {
                set[i] = None;
                self.stats.invalidations += 1;
                true
            }
            None => false,
        }
    }

    fn flush(&mut self) {
        for set in &mut self.sets {
            for way in set.iter_mut() {
                if way.take().is_some() {
                    self.stats.invalidations += 1;
                }
            }
        }
    }

    fn entries(&self) -> Vec<(Vpn, Pfn)> {
        self.sets
            .iter()
            .flatten()
            .flatten()
            .map(|w| (w.0, w.1))
            .collect()
    }
}

/// SplitMix64: a fixed, self-contained stream generator.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `ops` seeded operations on a `entries`/`ways` TLB and the
/// reference, comparing after each. VPNs span twice the capacity so
/// sets overflow and evict. Returns the final statistics.
fn run_diff(entries: usize, ways: usize, seed: u64, ops: usize) -> TlbStats {
    let mut tlb = Tlb::new(entries, ways);
    let mut reference = Reference::new(entries, ways);
    let mut state = seed;
    let span = 2 * entries as u64;
    for step in 0..ops {
        let x = splitmix64(&mut state);
        let vpn = Vpn(splitmix64(&mut state) % span);
        match x % 16 {
            0..=8 => assert_eq!(
                tlb.lookup(vpn),
                reference.lookup(vpn),
                "lookup {vpn:?} at step {step}"
            ),
            9..=13 => {
                let pfn = Pfn(x >> 8);
                tlb.fill(vpn, pfn);
                reference.fill(vpn, pfn);
            }
            14 if x % 64 == 14 => {
                tlb.flush();
                reference.flush();
            }
            _ => assert_eq!(
                tlb.invalidate(vpn),
                reference.invalidate(vpn),
                "invalidate {vpn:?} at step {step}"
            ),
        }
        assert_eq!(tlb.stats(), reference.stats, "stats at step {step}");
        assert!(
            tlb.entries().eq(reference.entries()),
            "entries at step {step}"
        );
    }
    tlb.stats()
}

#[test]
fn flat_tlb_matches_the_nested_reference() {
    for (i, &(entries, ways)) in [(64, 4), (16, 2), (8, 1), (4, 4), (32, 8)]
        .iter()
        .enumerate()
    {
        let stats = run_diff(entries, ways, 0x71B_D1FF ^ i as u64, 20_000);
        assert!(
            stats.hits > 1_000 && stats.misses > 1_000 && stats.invalidations > 1_000,
            "{entries}x{ways}: the stream hits, misses and invalidates ({stats:?})"
        );
    }
}

#[test]
fn flushing_or_shooting_down_an_empty_tlb_changes_nothing() {
    let mut tlb = Tlb::new(64, 4);
    tlb.flush();
    assert!(!tlb.invalidate(Vpn(3)));
    assert_eq!(tlb.stats(), TlbStats::default());
    tlb.fill(Vpn(3), Pfn(30));
    tlb.fill(Vpn(19), Pfn(190));
    tlb.flush();
    assert_eq!(tlb.stats().invalidations, 2);
    assert_eq!(tlb.entries().count(), 0);
    tlb.flush();
    assert!(!tlb.invalidate(Vpn(19)));
    assert_eq!(tlb.stats().invalidations, 2, "a second flush finds nothing");
    tlb.fill(Vpn(19), Pfn(191));
    assert_eq!(
        tlb.lookup(Vpn(19)),
        Some(Pfn(191)),
        "the TLB refills after a flush"
    );
}
