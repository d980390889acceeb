//! Criterion wrappers: one bench target per paper table/figure.
//!
//! Each bench times a quick-scale regeneration of its experiment and
//! prints the resulting table once, so `cargo bench` both exercises and
//! displays every reproduction. Use the `repro` binary for full-scale
//! tables.

use criterion::{criterion_group, criterion_main, Criterion};
use hwdp_bench::campaigns::Scale;
use hwdp_bench::{ablations, figures};

fn scale() -> Scale {
    let mut s = Scale::quick();
    s.ops_per_thread = 200;
    s
}

macro_rules! fig_bench {
    ($fn_name:ident, $id:literal, $gen:expr) => {
        fn $fn_name(c: &mut Criterion) {
            let s = scale();
            // Print the table once so bench output doubles as results.
            println!("{}", $gen(&s));
            c.bench_function($id, |b| b.iter(|| std::hint::black_box($gen(&s))));
        }
    };
}

macro_rules! fig_bench_static {
    ($fn_name:ident, $id:literal, $gen:expr) => {
        fn $fn_name(c: &mut Criterion) {
            println!("{}", $gen());
            c.bench_function($id, |b| b.iter(|| std::hint::black_box($gen())));
        }
    };
}

fig_bench!(fig01, "fig01_breakdown", figures::fig01_breakdown);
fig_bench_static!(fig02, "fig02_trends", figures::fig02_trends);
fig_bench_static!(fig03, "fig03_osdp_anatomy", figures::fig03_osdp_anatomy);
fig_bench!(fig04, "fig04_pollution", figures::fig04_pollution);
fig_bench_static!(table1, "table1_pte_semantics", figures::table1_pte_semantics);
fig_bench_static!(fig11a, "fig11a_split", figures::fig11a_split);
fig_bench_static!(fig11b, "fig11b_timeline", figures::fig11b_timeline);
fig_bench_static!(fig17, "fig17_sw_vs_hw", figures::fig17_sw_vs_hw);
fig_bench_static!(area, "area_overhead", figures::area_overhead);
fig_bench!(abl_kpoold, "ablation_kpoold", ablations::ablation_kpoold);
fig_bench!(abl_prefetch, "ablation_prefetch", ablations::ablation_prefetch);

fn fig12(c: &mut Criterion) {
    let s = scale();
    println!("{}", figures::fig12_latency(&s).0);
    c.bench_function("fig12_latency_scaling", |b| {
        b.iter(|| std::hint::black_box(figures::fig12_latency(&s)))
    });
}

fn fig13(c: &mut Criterion) {
    let mut s = scale();
    s.ops_per_thread = 120;
    println!("{}", figures::fig13_throughput(&s));
    let mut g = c.benchmark_group("fig13");
    g.sample_size(10);
    g.bench_function("fig13_throughput", |b| {
        b.iter(|| std::hint::black_box(figures::fig13_throughput(&s)))
    });
    g.finish();
}

fn fig14(c: &mut Criterion) {
    let s = scale();
    println!("{}", figures::fig14_user_ipc(&s));
    c.bench_function("fig14_user_ipc", |b| {
        b.iter(|| std::hint::black_box(figures::fig14_user_ipc(&s)))
    });
}

fn fig15(c: &mut Criterion) {
    let s = scale();
    println!("{}", figures::fig15_kernel_cost(&s));
    c.bench_function("fig15_kernel_cost", |b| {
        b.iter(|| std::hint::black_box(figures::fig15_kernel_cost(&s)))
    });
}

fn fig16(c: &mut Criterion) {
    let s = scale();
    println!("{}", figures::fig16_smt(&s));
    let mut g = c.benchmark_group("fig16");
    g.sample_size(10);
    g.bench_function("fig16_smt_corun", |b| b.iter(|| std::hint::black_box(figures::fig16_smt(&s))));
    g.finish();
}

fn abl_sweeps(c: &mut Criterion) {
    let s = scale();
    println!("{}", ablations::ablation_pmshr(&s));
    println!("{}", ablations::ablation_free_queue(&s));
    println!("{}", ablations::ablation_kpted(&s));
    let mut g = c.benchmark_group("ablations");
    g.sample_size(10);
    g.bench_function("ablation_pmshr", |b| {
        b.iter(|| std::hint::black_box(ablations::ablation_pmshr(&s)))
    });
    g.finish();
}

criterion_group! {
    name = paper_figures;
    config = Criterion::default().sample_size(10);
    targets = fig01, fig02, fig03, fig04, table1, fig11a, fig11b, fig12, fig13,
              fig14, fig15, fig16, fig17, area, abl_kpoold, abl_prefetch, abl_sweeps
}
criterion_main!(paper_figures);
