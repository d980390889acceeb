//! One workload's result: metric lines for people, one JSON line for
//! machines.

use hwdp_harness::Json;

/// A named measurement. `Err` carries why no value could be given (a
/// percentile refused for too few samples).
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value, with all its digits.
    pub value: Result<f64, String>,
}

impl Metric {
    /// A metric that has a value.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value: Ok(value),
        }
    }
}

/// What one workload run produced.
pub struct Report {
    /// The workload's name.
    pub workload: &'static str,
    /// Jobs run in the measured rounds.
    pub attempted: usize,
    /// Jobs among them that failed or broke a correctness check.
    pub failed: usize,
    /// Every correctness check that failed, one line each.
    pub problems: Vec<String>,
    /// Context printed before the metrics (round and sample counts).
    pub note: String,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Whether every correctness check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// Prints notes, problems and `<workload> <metric> <value> <unit>`
    /// lines, then the result object as the last line.
    pub fn print(&self) {
        println!("# {}: {}", self.workload, self.note);
        for problem in &self.problems {
            println!("# {}: CHECK FAILED: {problem}", self.workload);
        }
        for m in &self.metrics {
            match &m.value {
                Ok(v) => println!("{} {} {v} {}", self.workload, m.name, m.unit),
                Err(why) => println!("{} {} n/a {} ({why})", self.workload, m.name, m.unit),
            }
        }
        println!("{}", one_line(&self.to_json()));
    }

    /// `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
    pub fn to_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|m| {
            let value = m.value.as_ref().map_or(Json::Null, |v| Json::Num(*v));
            (
                m.name,
                Json::obj([("value", value), ("unit", Json::str(m.unit))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

/// Renders `json` on a single line. String values never hold raw
/// newlines (the writer escapes them), so joining trimmed lines is exact.
pub fn one_line(json: &Json) -> String {
    json.pretty().lines().map(str::trim).collect()
}
