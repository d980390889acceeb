//! `compare`: two sets of result files, judged metric by metric against
//! the bounds in `BENCHMARK.json`.

use hwdp_harness::Json;

use crate::stats::quartiles;

/// How the head side of one (workload, metric) pair compares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse than the base median by more than the bound.
    Regressed,
    /// The base side's own interquartile range is wider than the bound,
    /// so a change of that size cannot be told from noise.
    Unresolved,
    /// Noisy base, but every head run beats every base run.
    Better,
}

impl Verdict {
    /// The word printed for it.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Better => "better",
        }
    }
}

/// Median and quartiles of both sides, the relative delta of the medians,
/// and the verdict.
pub struct Comparison {
    /// Base first quartile, median, third quartile.
    pub base: [f64; 3],
    /// Head first quartile, median, third quartile.
    pub head: [f64; 3],
    /// `(head - base) / base` of the medians.
    pub delta: f64,
    /// The judgement.
    pub verdict: Verdict,
}

/// Judges `head` against `base` for a metric where lower (or higher) is
/// better and `bound` is the share by which the median may worsen. Needs
/// at least two values a side.
pub fn judge(base: &[f64], head: &[f64], lower_is_better: bool, bound: f64) -> Option<Comparison> {
    let b = quartiles(base)?;
    let h = quartiles(head)?;
    let delta = (h[1] - b[1]) / b[1].abs();
    let worse = if lower_is_better { delta } else { -delta };
    let spread = (b[2] - b[0]) / b[1].abs();
    let all_better = if lower_is_better {
        head.iter().all(|x| base.iter().all(|y| x < y))
    } else {
        head.iter().all(|x| base.iter().all(|y| x > y))
    };
    let verdict = if spread > bound {
        if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    Some(Comparison {
        base: b,
        head: h,
        delta,
        verdict,
    })
}

fn values(files: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    files
        .iter()
        .filter_map(|f| {
            f.get("workloads")?
                .as_arr()?
                .iter()
                .find(|w| w.get("name").and_then(Json::as_str) == Some(workload))?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

/// Prints one line per (workload, end-to-end metric) of `bench` and
/// returns whether any regressed.
pub fn compare(bench: &Json, base: &[Json], head: &[Json]) -> Result<bool, String> {
    let list = |key: &str| {
        bench
            .get(key)
            .and_then(Json::as_arr)
            .ok_or(format!("BENCHMARK.json has no {key}"))
    };
    let mut regressed = false;
    for workload in list("workloads")? {
        let workload = workload
            .get("name")
            .and_then(Json::as_str)
            .ok_or("workload without a name")?;
        for metric in list("end_to_end")? {
            let field = |k: &str| metric.get(k).ok_or(format!("end_to_end entry without {k}"));
            let name = field("name")?.as_str().unwrap_or("?");
            let lower = field("better")?.as_str() == Some("lower");
            let bound = field("bound")?.as_f64().ok_or("bound is not a number")?;
            let (b, h) = (values(base, workload, name), values(head, workload, name));
            let Some(c) = judge(&b, &h, lower, bound) else {
                println!(
                    "{workload} {name} missing ({} base, {} head values; need 2 each)",
                    b.len(),
                    h.len()
                );
                regressed = true;
                continue;
            };
            regressed |= c.verdict == Verdict::Regressed;
            println!(
                "{workload} {name} base {} [{}, {}] head {} [{}, {}] delta {:+.2}% bound {}% {}",
                c.base[1],
                c.base[0],
                c.base[2],
                c.head[1],
                c.head[0],
                c.head[2],
                c.delta * 100.0,
                bound * 100.0,
                c.verdict.label()
            );
        }
    }
    Ok(regressed)
}
