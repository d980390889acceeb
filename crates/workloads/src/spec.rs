//! SPEC-CPU-2017-like compute kernels for the SMT co-location experiment
//! (Fig. 16): pure CPU-bound threads with per-benchmark base IPC.
//!
//! The experiment pins one FIO thread and one SPEC thread on the two
//! hardware threads of a physical core and measures how much the SPEC
//! thread suffers from the FIO thread's fault handling. Only the SPEC
//! workloads' *IPC personalities* matter for that, so each kernel is an
//! endless stream of compute chunks at its benchmark's characteristic IPC.

use crate::{ReadSnapshot, Step, Workload};

/// IPC personality of one SPEC CPU 2017 benchmark.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpecProfile {
    /// Benchmark name.
    pub name: &'static str,
    /// Solo (un-colocated, unpolluted) IPC on the modeled core.
    pub base_ipc: f64,
}

impl SpecProfile {
    /// The six benchmarks used for Fig. 16 in this reproduction, spanning
    /// low-IPC memory-bound (mcf, lbm) to high-IPC compute-bound
    /// (perlbench, deepsjeng).
    pub const ALL: [SpecProfile; 6] = [
        SpecProfile { name: "perlbench", base_ipc: 2.0 },
        SpecProfile { name: "gcc", base_ipc: 1.7 },
        SpecProfile { name: "mcf", base_ipc: 0.9 },
        SpecProfile { name: "lbm", base_ipc: 1.1 },
        SpecProfile { name: "deepsjeng", base_ipc: 1.6 },
        SpecProfile { name: "xz", base_ipc: 1.3 },
    ];

    /// Finds a profile by name.
    pub fn by_name(name: &str) -> Option<SpecProfile> {
        SpecProfile::ALL.iter().copied().find(|p| p.name == name)
    }
}

/// An endless CPU-bound kernel emitting fixed-size compute chunks.
#[derive(Clone, Copy, Debug)]
pub struct SpecKernel {
    profile: SpecProfile,
    chunk: u64,
    chunks_done: u64,
}

impl SpecKernel {
    /// Creates the kernel with ~1 µs-scale chunks (2 800 instructions at
    /// IPC 1 on a 2.8 GHz clock) so SMT interaction is sampled finely.
    pub fn new(profile: SpecProfile) -> Self {
        SpecKernel { profile, chunk: 2_800, chunks_done: 0 }
    }

    /// The benchmark's IPC personality.
    pub fn profile(&self) -> SpecProfile {
        self.profile
    }
}

impl Workload for SpecKernel {
    fn next(&mut self, _last_read: Option<&ReadSnapshot>) -> Step {
        self.chunks_done += 1;
        Step::Compute { instructions: self.chunk }
    }

    fn ops_done(&self) -> u64 {
        self.chunks_done
    }

    fn name(&self) -> String {
        format!("spec-{}", self.profile.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_cover_ipc_range() {
        let ipcs: Vec<f64> = SpecProfile::ALL.iter().map(|p| p.base_ipc).collect();
        assert!(ipcs.iter().cloned().fold(f64::INFINITY, f64::min) < 1.0, "memory-bound present");
        assert!(ipcs.iter().cloned().fold(0.0, f64::max) >= 1.8, "compute-bound present");
    }

    #[test]
    fn by_name_lookup() {
        assert_eq!(SpecProfile::by_name("mcf").unwrap().base_ipc, 0.9);
        assert!(SpecProfile::by_name("nonexistent").is_none());
    }

    #[test]
    fn kernel_runs_forever() {
        let mut k = SpecKernel::new(SpecProfile::by_name("xz").unwrap());
        for _ in 0..1000 {
            assert!(matches!(k.next(None), Step::Compute { .. }));
        }
        assert_eq!(k.ops_done(), 1000);
        assert_eq!(k.name(), "spec-xz");
    }
}
