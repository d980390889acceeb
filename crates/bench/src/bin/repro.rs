//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run -p hwdp-bench --bin repro --release             # everything
//! cargo run -p hwdp-bench --bin repro --release -- fig12    # one experiment
//! cargo run -p hwdp-bench --bin repro --release -- --quick  # smaller scale
//! cargo run -p hwdp-bench --bin repro --release -- --markdown > results.md
//! cargo run -p hwdp-bench --bin repro --release -- --workers 8
//! ```
//!
//! A table argument selects every table whose id contains it. An unknown
//! option, a `--workers` without a number, or an argument that no table id
//! contains exits with status 2 before anything runs.

// A binary: stdout is its output, and a panic ends only this process.
#![allow(
    clippy::print_stdout,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

use std::process::ExitCode;

use hwdp_bench::campaigns::{self, Scale};
use hwdp_bench::TABLES;

const USAGE: &str = "usage: repro [--quick] [--markdown] [--workers N] [TABLE...]";

/// One `repro` invocation's command line.
#[derive(Debug, Default, PartialEq)]
struct Options {
    quick: bool,
    markdown: bool,
    /// Worker-pool size for the campaign-backed figures; results are
    /// identical for any value (harness determinism), only wall time moves.
    workers: Option<usize>,
    /// Table-id substrings to print; empty prints every table.
    filter: Vec<String>,
}

/// Parses `repro`'s arguments (without the program name).
fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--markdown" => opts.markdown = true,
            "--workers" => {
                let value = args.next().ok_or("--workers needs a number")?;
                let workers = value
                    .parse()
                    .map_err(|_| format!("--workers needs a number, got '{value}'"))?;
                opts.workers = Some(workers);
            }
            option if option.starts_with('-') => {
                return Err(format!("unknown option '{option}'"));
            }
            id if TABLES.iter().any(|(table, _)| table.contains(id)) => {
                opts.filter.push(id.to_string());
            }
            id => return Err(format!("no table id contains '{id}'")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("repro: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scale = if opts.quick { Scale::quick() } else { Scale::default() };
    let workers = opts.workers.unwrap_or_else(campaigns::default_workers);

    if !opts.markdown {
        println!("hwdp repro — \"A Case for Hardware-Based Demand Paging\" (ISCA 2020)");
    }

    for (id, generate) in TABLES {
        if !opts.filter.is_empty() && !opts.filter.iter().any(|f| id.contains(f.as_str())) {
            continue;
        }
        let table = generate(&scale, workers);
        if opts.markdown {
            println!("{}", table.to_markdown());
        } else {
            println!("{table}");
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(line: &str) -> Result<Options, String> {
        parse(&line.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn accepts_every_option_and_table_filters() {
        let opts = parse_str("--quick --workers 3 --markdown fig1 abl-pmshr").unwrap();
        assert_eq!(
            opts,
            Options {
                quick: true,
                markdown: true,
                workers: Some(3),
                filter: vec!["fig1".into(), "abl-pmshr".into()],
            }
        );
        assert_eq!(parse_str("").unwrap(), Options::default());
    }

    #[test]
    fn rejects_unknown_options_bad_worker_counts_and_unknown_tables() {
        for (line, error) in [
            ("--quik", "unknown option '--quik'"),
            ("--workers=2", "unknown option '--workers=2'"),
            ("-q", "unknown option '-q'"),
            ("--workers", "--workers needs a number"),
            ("--workers four", "--workers needs a number, got 'four'"),
            ("--workers --quick", "--workers needs a number, got '--quick'"),
            ("fig99", "no table id contains 'fig99'"),
            ("fig12 fig99", "no table id contains 'fig99'"),
        ] {
            assert_eq!(parse_str(line), Err(error.to_string()), "{line}");
        }
    }
}
