//! The microarchitectural pollution model.
//!
//! Each thread carries a *warmth* scalar in `[0, 1]`: 1 means its user
//! working set fully occupies the caches and branch predictor, 0 means the
//! state has been completely displaced. Kernel entries multiply warmth
//! down in proportion to the kernel path length; user execution recovers
//! it exponentially. User IPC and the architectural miss events of
//! Figs. 4/14 derive from warmth:
//!
//! * `ipc = base_ipc × (floor + (1 − floor) × warmth)`
//! * `misses/kilo-instruction = base_mpki + cold_mpki × (1 − warmth)`
//!
//! Defaults are calibrated so YCSB-C-like fault rates produce the paper's
//! ≈7 % user-IPC gap between OSDP and HWDP, with OSDP showing elevated
//! L1/L2/LLC/branch miss counts.

/// Model parameters.
#[derive(Clone, Copy, Debug)]
pub struct PollutionParams {
    /// Warmth multiplier floor on IPC (`floor ≤ eff ≤ 1`).
    pub ipc_floor: f64,
    /// Warmth lost per kernel instruction executed in this thread's
    /// context: `warmth *= (1 - per_kinstr)^(kernel_instr / 1000)`.
    pub cooling_per_kilo_kernel_instr: f64,
    /// User instructions to recover ~63 % of the lost warmth.
    pub recovery_instr: f64,
    /// Baseline misses per kilo-instruction when fully warm:
    /// (L1D, L2, LLC, branch).
    pub base_mpki: [f64; 4],
    /// Additional MPKI at warmth 0 (fully polluted).
    pub cold_mpki: [f64; 4],
}

impl Default for PollutionParams {
    fn default() -> Self {
        PollutionParams {
            ipc_floor: 0.65,
            cooling_per_kilo_kernel_instr: 0.012,
            recovery_instr: 150_000.0,
            base_mpki: [22.0, 8.0, 3.0, 6.0],
            cold_mpki: [14.0, 6.0, 2.5, 5.0],
        }
    }
}

/// The results of a pure function of a `u64` for its last `N` distinct
/// inputs, most recent first. A hit returns the bits the function gave.
#[derive(Clone, Copy, Debug)]
struct Memo<const N: usize> {
    slots: [Option<(u64, f64)>; N],
}

impl<const N: usize> Memo<N> {
    fn new() -> Self {
        Memo { slots: [None; N] }
    }

    fn get_or(&mut self, input: u64, f: impl FnOnce(u64) -> f64) -> f64 {
        if let Some(&(_, out)) = self.slots.iter().flatten().find(|(k, _)| *k == input) {
            return out;
        }
        let out = f(input);
        self.slots.rotate_right(1);
        self.slots[0] = Some((input, out));
        out
    }
}

/// Per-thread pollution state.
#[derive(Clone, Copy, Debug)]
pub struct Pollution {
    params: PollutionParams,
    warmth: f64,
    /// Warmth kept by a kernel entry, per path length. Two slots: entries
    /// alternate between a few path-length constants.
    cooling: Memo<2>,
    /// Share of lost warmth regained, per user segment length, which
    /// mostly repeats from one segment to the next.
    rewarming: Memo<1>,
}

impl Pollution {
    /// A fresh, fully warm thread.
    pub fn new(params: PollutionParams) -> Self {
        Pollution { params, warmth: 1.0, cooling: Memo::new(), rewarming: Memo::new() }
    }

    /// Current warmth in `[0, 1]`.
    pub fn warmth(&self) -> f64 {
        self.warmth
    }

    /// Applies a kernel intervention of `kernel_instr` instructions in this
    /// thread's context (fault handler, IRQ, context switch...).
    pub fn kernel_entry(&mut self, kernel_instr: u64) {
        let per_kilo = 1.0 - self.params.cooling_per_kilo_kernel_instr;
        self.warmth *= self.cooling.get_or(kernel_instr, |k| per_kilo.powf(k as f64 / 1000.0));
    }

    /// Retires `n` user instructions: returns the effective IPC factor for
    /// the segment (computed at entry warmth) and re-warms the state.
    pub fn retire_user(&mut self, n: u64) -> f64 {
        let factor = self.ipc_factor();
        let recovery = self.params.recovery_instr;
        let delta = self.rewarming.get_or(n, |n| 1.0 - (-(n as f64) / recovery).exp());
        self.warmth += (1.0 - self.warmth) * delta;
        factor
    }

    /// The IPC multiplier at current warmth.
    pub fn ipc_factor(&self) -> f64 {
        self.params.ipc_floor + (1.0 - self.params.ipc_floor) * self.warmth
    }

    /// Misses per kilo-instruction at current warmth:
    /// `[L1D, L2, LLC, branch]`.
    pub fn mpki(&self) -> [f64; 4] {
        let cold = 1.0 - self.warmth;
        [
            self.params.base_mpki[0] + self.params.cold_mpki[0] * cold,
            self.params.base_mpki[1] + self.params.cold_mpki[1] * cold,
            self.params.base_mpki[2] + self.params.cold_mpki[2] * cold,
            self.params.base_mpki[3] + self.params.cold_mpki[3] * cold,
        ]
    }
}

impl Default for Pollution {
    fn default() -> Self {
        Pollution::new(PollutionParams::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_thread_is_warm() {
        let p = Pollution::default();
        assert_eq!(p.warmth(), 1.0);
        assert_eq!(p.ipc_factor(), 1.0);
    }

    #[test]
    fn kernel_entry_cools() {
        let mut p = Pollution::default();
        p.kernel_entry(13_000); // one OSDP fault path
        assert!(p.warmth() < 0.95, "warmth {}", p.warmth());
        assert!(p.ipc_factor() < 1.0);
    }

    #[test]
    fn user_execution_rewarms() {
        let mut p = Pollution::default();
        p.kernel_entry(13_000);
        let cooled = p.warmth();
        p.retire_user(200_000);
        assert!(p.warmth() > cooled);
        assert!(p.warmth() > 0.95, "recovers after long user runs: {}", p.warmth());
    }

    #[test]
    fn steady_state_gap_matches_paper_band() {
        // YCSB-C-ish: 30k user instructions per op, with ~0.35 page misses
        // per op ⇒ an average of ~4.7k kernel instructions injected per op
        // under OSDP; HWDP injects nothing.
        let mut osdp = Pollution::default();
        let mut hwdp = Pollution::default();
        let mut osdp_f = 0.0;
        let mut hwdp_f = 0.0;
        let iters = 2_000;
        for _ in 0..iters {
            osdp.kernel_entry(4_700);
            osdp_f += osdp.retire_user(30_000);
            hwdp_f += hwdp.retire_user(30_000);
        }
        let gain = (hwdp_f / iters as f64) / (osdp_f / iters as f64) - 1.0;
        // Paper: user-level IPC improves by ~7 % (Fig. 14); accept 4–12 %.
        assert!((0.04..0.12).contains(&gain), "IPC gain {gain}");
    }

    /// The model's formulas with no memo.
    struct Recomputing {
        params: PollutionParams,
        warmth: f64,
    }

    impl Recomputing {
        fn kernel_entry(&mut self, kernel_instr: u64) {
            let kilo = kernel_instr as f64 / 1000.0;
            self.warmth *= (1.0 - self.params.cooling_per_kilo_kernel_instr).powf(kilo);
        }

        fn retire_user(&mut self, n: u64) -> f64 {
            let factor = self.params.ipc_floor + (1.0 - self.params.ipc_floor) * self.warmth;
            let delta = 1.0 - (-(n as f64) / self.params.recovery_instr).exp();
            self.warmth += (1.0 - self.warmth) * delta;
            factor
        }
    }

    #[test]
    fn memoized_model_matches_recomputing_formulas() {
        let params = PollutionParams { recovery_instr: 90_000.0, ..PollutionParams::default() };
        let mut memo = Pollution::new(params);
        let mut reference = Recomputing { params, warmth: 1.0 };
        let mut rng = hwdp_sim::rng::Prng::seed_from(0x9011);
        for i in 0..20_000u64 {
            // Repeated and alternating inputs, as the simulator gives, with
            // a fresh one now and then to evict the memo slots.
            let fresh = rng.below(8) == 0;
            let kernel =
                if fresh { rng.below(60_000) } else { [6_800, 6_700, 13_000][i as usize % 3] };
            let user = if fresh { rng.below(400_000) } else { 30_000 };
            if rng.below(3) == 0 {
                memo.kernel_entry(kernel);
                reference.kernel_entry(kernel);
            } else {
                let (a, b) = (memo.retire_user(user), reference.retire_user(user));
                assert_eq!(a.to_bits(), b.to_bits(), "call {i}: ipc factor");
            }
            assert_eq!(memo.warmth().to_bits(), reference.warmth.to_bits(), "call {i}: warmth");
        }
    }

    #[test]
    fn mpki_rises_when_cold() {
        let mut p = Pollution::default();
        let warm = p.mpki();
        p.kernel_entry(20_000);
        let cold = p.mpki();
        for i in 0..4 {
            assert!(cold[i] > warm[i], "event {i} should rise when polluted");
        }
    }

    #[test]
    fn ipc_factor_bounded_below_by_floor() {
        let mut p = Pollution::default();
        for _ in 0..100 {
            p.kernel_entry(50_000);
        }
        assert!(p.ipc_factor() >= PollutionParams::default().ipc_floor - 1e-12);
        assert!(p.warmth() >= 0.0);
    }
}
