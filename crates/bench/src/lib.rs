//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§VI), plus ablations of the design's key parameters.
//!
//! * [`figures`] — Fig. 1–4, Table I/II, Fig. 11–17, and the §VI-D area
//!   table, each as a function returning a printable [`tables::Table`].
//! * [`ablations`] — `kpoold`, PMSHR size, free-queue depth, prefetch
//!   buffer, and `kpted` period sweeps, plus the §V extension tables.
//! * [`campaigns`] — the experiment [`Scale`](campaigns::Scale) and the
//!   `hwdp-harness` jobs and campaigns the figures run (Fig. 12–17 and
//!   the knob sweeps on a worker pool).
//!
//! Run everything with `cargo run -p hwdp-bench --bin repro --release`;
//! Criterion wrappers live in `benches/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod campaigns;
pub mod figures;
pub mod tables;

use campaigns::Scale;
use tables::Table;

/// Generates one table at a scale; campaign-backed tables run on the
/// given number of harness workers.
pub type Generator = fn(&Scale, usize) -> Table;

/// Every experiment table in paper order: its id and its generator.
///
/// `repro` checks its filter against these ids before it runs anything.
pub const TABLES: [(&str, Generator); 24] = [
    ("fig01", |s, _| figures::fig01_breakdown(s)),
    ("fig02", |_, _| figures::fig02_trends()),
    ("fig03", |_, _| figures::fig03_osdp_anatomy()),
    ("fig04", |s, _| figures::fig04_pollution(s)),
    ("table1", |_, _| figures::table1_pte_semantics()),
    ("table2", |_, _| figures::table2_config()),
    ("fig11a", |_, _| figures::fig11a_split()),
    ("fig11b", |_, _| figures::fig11b_timeline()),
    ("fig12", |s, w| figures::fig12_latency_with(s, w).0),
    ("fig13", figures::fig13_throughput_with),
    ("fig14", figures::fig14_user_ipc_with),
    ("fig15", figures::fig15_kernel_cost_with),
    ("fig16", figures::fig16_smt_with),
    ("fig17", |_, w| figures::fig17_sw_vs_hw_with(w)),
    ("area", |_, _| figures::area_overhead()),
    ("abl-kpoold", ablations::ablation_kpoold_with),
    ("abl-pmshr", ablations::ablation_pmshr_with),
    ("abl-freeq", ablations::ablation_free_queue_with),
    ("abl-prefetch", |s, _| ablations::ablation_prefetch(s)),
    ("abl-kpted", ablations::ablation_kpted_with),
    ("ext-anon", |s, _| ablations::extension_anon(s)),
    ("ext-percore", |s, _| ablations::extension_per_core_queues(s)),
    ("ext-longio", |s, _| ablations::extension_long_io(s)),
    ("ext-prefetch", |s, _| ablations::extension_prefetching(s)),
];

/// Generates every experiment table at the given scale, in paper order,
/// running the campaign-backed figures on the default worker pool.
pub fn all_tables(scale: &Scale) -> Vec<Table> {
    all_tables_with(scale, campaigns::default_workers())
}

/// [`all_tables`] with an explicit harness worker count for the
/// campaign-backed tables.
pub fn all_tables_with(scale: &Scale, workers: usize) -> Vec<Table> {
    TABLES.iter().map(|(_, generate)| generate(scale, workers)).collect()
}
