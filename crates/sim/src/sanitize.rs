//! hwdp-audit: the cross-layer invariant sanitizer.
//!
//! The simulator's claims rest on protocol-level invariants (LBA-augmented
//! PTE round-trips, NVMe phase-bit discipline, PMSHR uniqueness, frame
//! accounting) that must never be violated silently. Each simulation crate
//! registers concrete checkers by implementing [`Sanitizer`]; the system
//! driver invokes them at a configurable [`SanitizeLevel`] and collects
//! [`Violation`]s into an [`AuditReport`].
//!
//! Design rules, in order of importance:
//!
//! 1. **Observation only.** A sanitizer receives `&self` state and may not
//!    mutate the simulation, schedule events, or perturb RNG streams — a
//!    run at [`SanitizeLevel::Full`] must be byte-identical (in its
//!    canonical artifact) to one at [`SanitizeLevel::Off`].
//! 2. **Reports, not panics.** A violated invariant is recorded and
//!    surfaced through metrics/artifacts so a campaign can finish and
//!    report *all* corruptions, not die on the first.
//! 3. **Cheap vs. Full.** `Cheap` checks are O(live structure size)
//!    accounting comparisons safe to run every audit point; `Full` adds
//!    deep sweeps (every PTE re-encoded, every TLB entry cross-checked
//!    against the live page table).

use std::collections::BTreeMap;
use std::fmt;

/// How much invariant checking a run performs.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
pub enum SanitizeLevel {
    /// No checks (the default; zero overhead).
    #[default]
    Off,
    /// Cheap accounting checks only (counter consistency, occupancy).
    Cheap,
    /// Everything: cheap checks plus deep structural sweeps.
    Full,
}

impl SanitizeLevel {
    /// Stable lower-case name (CLI flag value and artifact key).
    pub fn name(self) -> &'static str {
        match self {
            SanitizeLevel::Off => "off",
            SanitizeLevel::Cheap => "cheap",
            SanitizeLevel::Full => "full",
        }
    }

    /// Parses a CLI flag value. Accepts the names produced by
    /// [`SanitizeLevel::name`].
    pub fn parse(s: &str) -> Option<SanitizeLevel> {
        match s {
            "off" => Some(SanitizeLevel::Off),
            "cheap" => Some(SanitizeLevel::Cheap),
            "full" => Some(SanitizeLevel::Full),
            _ => None,
        }
    }

    /// `true` when cheap accounting checks should run.
    pub fn cheap_checks(self) -> bool {
        self >= SanitizeLevel::Cheap
    }

    /// `true` when deep structural sweeps should run.
    pub fn full_checks(self) -> bool {
        self >= SanitizeLevel::Full
    }
}

impl fmt::Display for SanitizeLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One detected invariant violation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Violation {
    /// The layer that registered the check (`"mem"`, `"nvme"`, `"os"`,
    /// `"smu"`, `"core"`).
    pub layer: &'static str,
    /// Stable invariant identifier (kebab-case, e.g. `"pte-roundtrip"`).
    pub invariant: &'static str,
    /// Human-readable description of the specific violation.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}/{}] {}", self.layer, self.invariant, self.message)
    }
}

/// Collected violations plus check-execution counts.
#[derive(Clone, Debug, Default)]
pub struct AuditReport {
    /// Every violation recorded, in detection order.
    pub violations: Vec<Violation>,
    /// Number of individual invariant evaluations performed (evidence the
    /// audit actually ran; a clean report with zero checks is vacuous).
    pub checks: u64,
}

impl AuditReport {
    /// Creates an empty report.
    pub fn new() -> Self {
        AuditReport::default()
    }

    /// Counts one invariant evaluation.
    pub fn checked(&mut self) {
        self.checks += 1;
    }

    /// Counts one invariant evaluation and records a violation if `ok` is
    /// false. Returns `ok` so callers can chain early-outs.
    pub fn check(
        &mut self,
        layer: &'static str,
        invariant: &'static str,
        ok: bool,
        message: impl FnOnce() -> String,
    ) -> bool {
        self.checks += 1;
        if !ok {
            self.violations.push(Violation { layer, invariant, message: message() });
        }
        ok
    }

    /// [`AuditReport::check`] with a preformatted [`fmt::Arguments`]
    /// message. The message string is only materialized on failure, so a
    /// passing check performs no allocation — checkers on event-loop
    /// completion paths use this form to stay out of the hot-path-alloc
    /// census without giving up descriptive violation messages.
    pub fn check_args(
        &mut self,
        layer: &'static str,
        invariant: &'static str,
        ok: bool,
        message: fmt::Arguments<'_>,
    ) -> bool {
        self.checks += 1;
        if !ok {
            self.violations.push(Violation { layer, invariant, message: fmt::format(message) });
        }
        ok
    }

    /// Records a violation directly (for checks whose evaluation was
    /// already counted).
    pub fn record(&mut self, layer: &'static str, invariant: &'static str, message: String) {
        self.violations.push(Violation { layer, invariant, message });
    }

    /// `true` when no violation was recorded.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Violation counts keyed by `(layer, invariant)`, deterministic order.
    pub fn by_invariant(&self) -> BTreeMap<(&'static str, &'static str), u64> {
        let mut out = BTreeMap::new();
        for v in &self.violations {
            *out.entry((v.layer, v.invariant)).or_insert(0) += 1;
        }
        out
    }

    /// Folds another report into this one.
    pub fn merge(&mut self, other: AuditReport) {
        self.checks += other.checks;
        self.violations.extend(other.violations);
    }
}

/// A layer's registered invariant checkers.
///
/// Implementations must be observation-only: no simulation state change,
/// no event scheduling, no RNG draws. Panicking is forbidden — corruption
/// is *reported*, never thrown (design rule 2).
pub trait Sanitizer {
    /// The layer name used in [`Violation::layer`].
    fn layer(&self) -> &'static str;

    /// Runs this layer's checks at `level`, recording into `report`.
    /// Implementations should early-out when `level` is
    /// [`SanitizeLevel::Off`].
    fn sanitize(&self, level: SanitizeLevel, report: &mut AuditReport);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_names_round_trip() {
        for l in [SanitizeLevel::Off, SanitizeLevel::Cheap, SanitizeLevel::Full] {
            assert_eq!(SanitizeLevel::parse(l.name()), Some(l));
            assert_eq!(format!("{l}"), l.name());
        }
        assert_eq!(SanitizeLevel::parse("bogus"), None);
    }

    #[test]
    fn level_ordering_gates_checks() {
        assert!(!SanitizeLevel::Off.cheap_checks());
        assert!(!SanitizeLevel::Off.full_checks());
        assert!(SanitizeLevel::Cheap.cheap_checks());
        assert!(!SanitizeLevel::Cheap.full_checks());
        assert!(SanitizeLevel::Full.cheap_checks());
        assert!(SanitizeLevel::Full.full_checks());
    }

    #[test]
    fn default_is_off() {
        assert_eq!(SanitizeLevel::default(), SanitizeLevel::Off);
    }

    #[test]
    fn check_records_on_failure_only() {
        let mut r = AuditReport::new();
        assert!(r.check("mem", "demo", true, || "never".into()));
        assert!(!r.check("mem", "demo", false, || "boom".into()));
        assert_eq!(r.checks, 2);
        assert_eq!(r.violations.len(), 1);
        assert!(!r.is_clean());
        assert_eq!(r.violations[0].invariant, "demo");
        assert_eq!(format!("{}", r.violations[0]), "[mem/demo] boom");
    }

    #[test]
    fn check_args_records_on_failure_only() {
        let mut r = AuditReport::new();
        assert!(r.check_args("nvme", "ring", true, format_args!("never {}", 1)));
        assert!(!r.check_args("nvme", "ring", false, format_args!("qid {} broken", 2)));
        assert_eq!(r.checks, 2);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(format!("{}", r.violations[0]), "[nvme/ring] qid 2 broken");
    }

    #[test]
    fn by_invariant_counts_deterministically() {
        let mut r = AuditReport::new();
        r.record("nvme", "phase", "a".into());
        r.record("nvme", "phase", "b".into());
        r.record("mem", "tlb", "c".into());
        let counts = r.by_invariant();
        assert_eq!(counts.get(&("nvme", "phase")), Some(&2));
        assert_eq!(counts.get(&("mem", "tlb")), Some(&1));
        // BTreeMap iteration order is the deterministic artifact order.
        let keys: Vec<_> = counts.keys().collect();
        assert_eq!(keys, vec![&("mem", "tlb"), &("nvme", "phase")]);
    }

    #[test]
    fn merge_folds_counts_and_violations() {
        let mut a = AuditReport::new();
        a.check("os", "cache", true, String::new);
        let mut b = AuditReport::new();
        b.record("os", "cache", "lost page".into());
        b.checked();
        a.merge(b);
        assert_eq!(a.checks, 2);
        assert_eq!(a.violations.len(), 1);
    }
}
