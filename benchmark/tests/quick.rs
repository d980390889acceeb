//! `run --quick` and `trace --quick` print every metric `BENCHMARK.json`
//! names, with its unit, for every workload.

use std::path::Path;
use std::process::Command;

use hwdp_harness::Json;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to the package");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names<'a>(bench: &'a Json, key: &str) -> Vec<&'a Json> {
    bench
        .get(key)
        .and_then(Json::as_arr)
        .expect(key)
        .iter()
        .collect()
}

fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry.get(key).and_then(Json::as_str).expect(key)
}

/// Runs `command --quick` into its own output directory and checks its
/// metric lines against the `metrics` list of `BENCHMARK.json`.
fn check_quick(command: &str, metrics: &str, result_file: &str) {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("quick-{command}"));
    let output = Command::new(env!("CARGO_BIN_EXE_hwdp-benchmark"))
        .args([command, "--quick", "--seed", "7", "--out"])
        .arg(&out)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{command} --quick failed:\n{stdout}"
    );

    let bench = benchmark_json();
    let lines: Vec<Vec<&str>> = stdout
        .lines()
        .map(|l| l.split_whitespace().collect())
        .collect();
    for workload in names(&bench, "workloads") {
        let workload = field(workload, "name");
        for metric in names(&bench, metrics) {
            let (name, unit) = (field(metric, "name"), field(metric, "unit"));
            let printed = lines
                .iter()
                .any(|l| l.len() >= 4 && l[0] == workload && l[1] == name && l[3] == unit);
            assert!(
                printed,
                "{command} printed no '{workload} {name} <value> {unit}' line:\n{stdout}"
            );
        }
    }

    let result = std::fs::read_to_string(out.join(result_file)).expect("result file written");
    let result = Json::parse(&result).expect("result file parses");
    for entry in result
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
    {
        let Json::Obj(fields) = entry else {
            panic!("workload entry is an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["name", "correct", "attempted", "failed", "metrics"]);
        assert_eq!(entry.get("correct"), Some(&Json::Bool(true)));
    }
}

#[test]
fn quick_run_prints_every_end_to_end_metric() {
    check_quick("run", "end_to_end", "result.json");
}

#[test]
fn quick_trace_prints_every_per_layer_metric() {
    check_quick("trace", "per_layer", "trace.json");
}
