//! hwdp-audit checkers for the memory layer.
//!
//! [`MemAudit`] borrows the live memory-side structures (frame pool, page
//! table, TLBs) and registers three invariants:
//!
//! * `frame-accounting` / `frame-free-*` — the frame pool's free list and
//!   per-frame states agree (no leak, no double free) — cheap.
//! * `pte-roundtrip` — every populated PTE is a fixed point of
//!   [`Pte::reencode`], i.e. the Fig. 6 bit layout can express exactly the
//!   word stored (no stray reserved bits) — full.
//! * `tlb-pte-match` — every live TLB translation matches the current leaf
//!   PTE (shootdowns were not missed) — full.
//! * `pt-memo-coherent` — the page table's leaf memo names the tables a
//!   fresh walk reaches (tables are never freed or relinked) — full.

use hwdp_sim::sanitize::{AuditReport, SanitizeLevel, Sanitizer};

use crate::page_table::PageTable;
use crate::phys::FramePool;
use crate::tlb::Tlb;

/// Borrowed view of the memory layer for one audit pass.
pub struct MemAudit<'a> {
    /// The physical frame pool.
    pub frames: &'a FramePool,
    /// The process page table.
    pub page_table: &'a PageTable,
    /// Per-hardware-thread TLBs, tagged with their hardware-thread index
    /// for violation messages.
    pub tlbs: Vec<(usize, &'a Tlb)>,
}

impl Sanitizer for MemAudit<'_> {
    fn layer(&self) -> &'static str {
        "mem"
    }

    fn sanitize(&self, level: SanitizeLevel, report: &mut AuditReport) {
        if level.cheap_checks() {
            self.frames.audit(report);
        }
        if !level.full_checks() {
            return;
        }
        self.page_table.audit_memo(report);
        self.page_table.for_each_pte(|vpn, pte| {
            report.check("mem", "pte-roundtrip", pte.reencode() == pte, || {
                format!("PTE at {vpn:?} holds {:#x}: not expressible in the Fig. 6 layout", pte.0)
            });
            if let Some(pfn) = pte.pfn() {
                report.check(
                    "mem",
                    "pte-frame-allocated",
                    (pfn.0 as usize) < self.frames.total()
                        && self.frames.state(pfn) == crate::phys::FrameState::Allocated,
                    || format!("resident PTE at {vpn:?} maps {pfn:?}, which is not an allocated frame"),
                );
            }
        });
        for &(hw, tlb) in &self.tlbs {
            for (vpn, pfn) in tlb.entries() {
                let pte = self.page_table.pte(vpn);
                report.check("mem", "tlb-pte-match", pte.pfn() == Some(pfn), || {
                    format!(
                        "hw thread {hw}: TLB maps {vpn:?} -> {pfn:?} but the live PTE is {pte:?} (missed shootdown?)"
                    )
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Vpn;
    use crate::pte::{Pte, PteFlags};

    fn clean_setup() -> (FramePool, PageTable, Tlb) {
        let mut frames = FramePool::new(16);
        let mut pt = PageTable::new();
        let mut tlb = Tlb::new(8, 2);
        let pfn = frames.alloc().expect("pool has frames");
        pt.set_pte(Vpn(5), Pte::present(pfn, PteFlags::user_data()));
        tlb.fill(Vpn(5), pfn);
        (frames, pt, tlb)
    }

    fn run(frames: &FramePool, pt: &PageTable, tlb: &Tlb, level: SanitizeLevel) -> AuditReport {
        let audit = MemAudit { frames, page_table: pt, tlbs: vec![(0, tlb)] };
        assert_eq!(audit.layer(), "mem");
        let mut report = AuditReport::new();
        audit.sanitize(level, &mut report);
        report
    }

    #[test]
    fn consistent_state_audits_clean_at_full() {
        let (frames, pt, tlb) = clean_setup();
        let report = run(&frames, &pt, &tlb, SanitizeLevel::Full);
        assert!(report.is_clean(), "{:?}", report.violations);
        assert!(report.checks >= 3);
    }

    #[test]
    fn off_level_runs_no_checks() {
        let (frames, pt, tlb) = clean_setup();
        let report = run(&frames, &pt, &tlb, SanitizeLevel::Off);
        assert_eq!(report.checks, 0);
    }

    #[test]
    fn negative_stale_tlb_entry_detected() {
        // Injected corruption: the PTE is torn down (eviction) but the TLB
        // shootdown is "forgotten".
        let (frames, mut pt, tlb) = clean_setup();
        pt.set_pte(Vpn(5), Pte::EMPTY);
        let report = run(&frames, &pt, &tlb, SanitizeLevel::Full);
        assert!(!report.is_clean());
        assert_eq!(report.violations[0].layer, "mem");
        assert_eq!(report.violations[0].invariant, "tlb-pte-match");
    }

    #[test]
    fn negative_corrupt_pte_word_detected() {
        // Injected corruption: a reserved bit (7) flipped in a stored PTE.
        let (frames, mut pt, tlb) = clean_setup();
        let good = pt.pte(Vpn(5));
        pt.set_pte(Vpn(5), Pte(good.0 | 1 << 7));
        let report = run(&frames, &pt, &tlb, SanitizeLevel::Full);
        assert!(report.violations.iter().any(|v| v.invariant == "pte-roundtrip"));
    }

    #[test]
    fn negative_pte_to_freed_frame_detected() {
        // Injected corruption: a PTE still maps a frame that was freed
        // (use-after-free in the making).
        let (mut frames, pt, tlb) = clean_setup();
        let pfn = pt.pte(Vpn(5)).pfn().expect("resident");
        frames.free(pfn);
        let report = run(&frames, &pt, &tlb, SanitizeLevel::Full);
        assert!(report.violations.iter().any(|v| v.invariant == "pte-frame-allocated"));
    }

    #[test]
    fn negative_stale_leaf_memo_detected() {
        // Injected corruption: the leaf memo names another table than the
        // one its VPN's walk reaches, as if a table had been freed or a
        // child link rewritten under it.
        let (frames, pt, tlb) = clean_setup();
        assert!(run(&frames, &pt, &tlb, SanitizeLevel::Full).is_clean());
        pt.corrupt_memo_for_test();
        let report = run(&frames, &pt, &tlb, SanitizeLevel::Full);
        assert!(report.violations.iter().any(|v| v.invariant == "pt-memo-coherent"), "{:?}", report.violations);
    }

    #[test]
    fn cheap_level_skips_deep_sweeps() {
        let (frames, mut pt, tlb) = clean_setup();
        pt.set_pte(Vpn(5), Pte(pt.pte(Vpn(5)).0 | 1 << 7));
        let report = run(&frames, &pt, &tlb, SanitizeLevel::Cheap);
        assert!(report.is_clean(), "cheap level does not re-encode PTEs");
        assert!(report.checks > 0, "frame accounting still ran");
    }

    #[test]
    fn negative_report_names_invariant_for_export() {
        let (frames, mut pt, tlb) = clean_setup();
        pt.set_pte(Vpn(5), Pte::EMPTY);
        let report = run(&frames, &pt, &tlb, SanitizeLevel::Full);
        let counts = report.by_invariant();
        assert_eq!(counts.get(&("mem", "tlb-pte-match")), Some(&1));
    }
}
