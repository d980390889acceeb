//! Command line of the repository benchmark; see README.md.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use hwdp_benchmark::measure::{self, Options, WORKERS};
use hwdp_benchmark::report::one_line;
use hwdp_benchmark::workloads::{Workload, WORKLOADS};
use hwdp_benchmark::{compare, trace};
use hwdp_harness::Json;

const USAGE: &str = "usage:
  hwdp-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--quick] [--out DIR]
  hwdp-benchmark run   [--seed N] [--seconds S] [--quick] [--workload NAME] [--out DIR]
  hwdp-benchmark trace [--seed N] [--seconds S] [--quick] [--workload NAME] [--out DIR]
  hwdp-benchmark compare --base FILE FILE... --head FILE FILE... [--bench BENCHMARK.json]";

/// The package directory, where `out/` and `../BENCHMARK.json` live.
const HOME: &str = env!("CARGO_MANIFEST_DIR");

/// Parsed `--flag value...` pairs; `--quick` takes no value.
struct Flags(Vec<(String, Vec<String>)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut flags: Vec<(String, Vec<String>)> = Vec::new();
        for arg in args {
            match (arg.strip_prefix("--"), flags.last_mut()) {
                (Some(name), _) => flags.push((name.to_string(), Vec::new())),
                (None, Some((_, values))) => values.push(arg.clone()),
                (None, None) => return Err(format!("unexpected argument '{arg}'")),
            }
        }
        Ok(Flags(flags))
    }

    fn check(&self, known: &[&str]) -> Result<(), String> {
        match self
            .0
            .iter()
            .find(|(name, _)| !known.contains(&name.as_str()))
        {
            Some((name, _)) => Err(format!("unknown flag --{name}")),
            None => Ok(()),
        }
    }

    fn values(&self, name: &str) -> &[String] {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map_or(&[], |(_, v)| v)
    }

    fn one(&self, name: &str) -> Result<Option<&str>, String> {
        match (self.0.iter().any(|(n, _)| n == name), self.values(name)) {
            (false, _) => Ok(None),
            (true, [v]) => Ok(Some(v)),
            _ => Err(format!("--{name} takes one value")),
        }
    }

    fn num<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.one(name)?
            .map(|v| v.parse().map_err(|_| format!("--{name}: bad number '{v}'")))
            .transpose()
    }

    fn quick(&self) -> bool {
        self.0.iter().any(|(n, _)| n == "quick")
    }

    fn out(&self) -> Result<PathBuf, String> {
        Ok(self
            .one("out")?
            .map_or_else(|| Path::new(HOME).join("out"), PathBuf::from))
    }

    fn workloads(&self) -> Result<Vec<&'static Workload>, String> {
        match self.one("workload")? {
            None => Ok(WORKLOADS.iter().collect()),
            Some(name) => Workload::find(name)
                .map(|w| vec![w])
                .ok_or(format!("unknown workload '{name}'")),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => all(&args[1..], false),
        Some("trace") => all(&args[1..], true),
        Some("compare") => compare_files(&args[1..]),
        _ => one(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("hwdp-benchmark: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}

/// One workload in this process: the form `BENCHMARK.json`'s command
/// takes and `run` and `trace` spawn. The last stdout line is the result
/// object.
fn one(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args)?;
    flags.check(&["workload", "seed", "seconds", "trace", "quick", "out"])?;
    cap_malloc_arenas();
    for knob in ["HWDP_THROUGHPUT", "HWDP_SCHEDULER"] {
        if std::env::var_os(knob).is_some() {
            return Err(format!(
                "{knob} is set; the benchmark measures the default configuration"
            ));
        }
    }
    let name = flags.one("workload")?.ok_or("--workload is required")?;
    let workload = Workload::find(name).ok_or(format!("unknown workload '{name}'"))?;
    let opts = Options {
        seed: flags.num("seed")?.ok_or("--seed is required")?,
        seconds: flags.num("seconds")?.ok_or("--seconds is required")?,
        quick: flags.quick(),
    };
    let report = match flags.one("trace")?.ok_or("--trace is required")? {
        "0" => measure::run(workload, &opts),
        "1" => {
            let out = flags.out()?;
            std::fs::create_dir_all(&out)
                .map_err(|e| format!("cannot create {}: {e}", out.display()))?;
            trace::run(workload, &opts, &out)
        }
        other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
    };
    report.print();
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// glibc's `mallopt` parameter for the most malloc arenas a process keeps.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
const M_ARENA_MAX: i32 = -8;

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Caps glibc's malloc arenas at one per thread that allocates at a time:
/// the main thread and the workers. Each round starts its workers afresh,
/// and a worker that starts before an ended one has handed back its arena
/// gets a new one; which runs grow a fourth arena, and 3 to 5 MiB more
/// `peak_rss_mb`, was left to chance (a ten-seed spread of 27 %).
fn cap_malloc_arenas() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `mallopt` only sets an allocator parameter, and it runs
    // before this process starts a thread.
    unsafe {
        mallopt(M_ARENA_MAX, WORKERS as i32 + 1);
    }
}

/// `run` / `trace`: every workload in a child process of its own, one
/// after another, so each has its own peak RSS and allocator state.
fn all(args: &[String], traced: bool) -> Result<ExitCode, String> {
    let flags = Flags::parse(args)?;
    flags.check(&["seed", "seconds", "quick", "workload", "out"])?;
    let seed: u64 = flags.num("seed")?.unwrap_or(42);
    let seconds: f64 = flags
        .num("seconds")?
        .unwrap_or(if traced { 0.0 } else { 20.0 });
    let out = flags.out()?;
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;

    let header = header();
    println!("# {}", one_line(&header));
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut ok = true;
    let mut results = Vec::new();
    for workload in flags.workloads()? {
        let mut child = Command::new(&exe);
        child.args([
            "--workload",
            workload.name,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ]);
        child
            .args(["--trace", if traced { "1" } else { "0" }, "--out"])
            .arg(&out);
        if flags.quick() {
            child.arg("--quick");
        }
        let output = child
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start child: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for line in lines {
            println!("{line}");
        }
        ok &= output.status.success();
        match Json::parse(last) {
            Ok(Json::Obj(fields)) => {
                let mut entry = vec![("name".to_string(), Json::str(workload.name))];
                entry.extend(fields);
                results.push(Json::Obj(entry));
            }
            _ => {
                println!("# {}: no result ({})", workload.name, output.status);
                ok = false;
            }
        }
    }
    let file = out.join(if traced { "trace.json" } else { "result.json" });
    let result = Json::obj([
        ("header", header),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("quick", Json::Bool(flags.quick())),
        ("workloads", Json::Arr(results)),
    ]);
    std::fs::write(&file, result.pretty())
        .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
    println!("# wrote {}", file.display());
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// What a result depends on besides the code: revision, compiler, cores,
/// executor threads.
fn header() -> Json {
    let rustc = Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()))
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        (
            "git_rev",
            Json::str(git_rev().unwrap_or_else(|| "unknown".into())),
        ),
        ("rustc", Json::str(rustc)),
        ("nproc", Json::Num(nproc as f64)),
        ("workers", Json::Num(WORKERS as f64)),
    ])
}

/// The checked-out commit, read from `.git` next to the package without
/// running git (which would search directories above the checkout).
fn git_rev() -> Option<String> {
    let git = Path::new(HOME).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let Some(reference) = head.trim().strip_prefix("ref: ") else {
        return Some(head.trim().to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(&format!(" {reference}")).map(str::to_string))
}

fn compare_files(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args)?;
    flags.check(&["base", "head", "bench"])?;
    let read = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {}", e.message))
    };
    let side = |name: &str| {
        let files = flags.values(name);
        if files.len() < 2 {
            return Err(format!("--{name} needs two or more result files"));
        }
        files.iter().map(|f| read(f)).collect::<Result<Vec<_>, _>>()
    };
    let default_bench = Path::new(HOME).join("../BENCHMARK.json");
    let bench = read(
        flags
            .one("bench")?
            .unwrap_or(&default_bench.to_string_lossy()),
    )?;
    let regressed = compare::compare(&bench, &side("base")?, &side("head")?)?;
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
