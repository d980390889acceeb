//! The traced mirror must run exactly what the harness runner runs.

use hwdp_benchmark::trace::{mirror, PHASES};
use hwdp_benchmark::workloads::WORKLOADS;
use hwdp_core::Mode;
use hwdp_harness::runner::run_job;
use hwdp_harness::{JobSpec, Scenario};

#[test]
fn mirror_matches_run_job_on_every_quick_job() {
    for workload in &WORKLOADS {
        for spec in workload.campaign(42, true).jobs {
            let traced = mirror(&spec).expect("the mirror covers every benchmark job");
            assert_eq!(
                traced.metrics,
                run_job(&spec),
                "{}: {}",
                workload.name,
                spec.label()
            );
            let names: Vec<&str> = traced.phases.iter().map(|s| s.name).collect();
            assert_eq!(names, PHASES);
            assert!(traced.events > 0);
        }
    }
}

#[test]
fn mirror_refuses_what_it_does_not_cover() {
    assert!(mirror(&JobSpec::new(Scenario::Anon, Mode::Hwdp, 1)).is_err());
    let mut pinned = JobSpec::new(Scenario::FioRand, Mode::Hwdp, 1);
    pinned.pin = Some(0);
    assert!(mirror(&pinned).is_err());
}
