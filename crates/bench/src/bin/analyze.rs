//! `epidemic-analyze` — consumers for the run-analytics artifacts.
//!
//! ```text
//! epidemic-analyze report <file.agg.json>...
//! epidemic-analyze bench-diff <baseline.json> <candidate.json> [flags]
//! ```
//!
//! `report` renders each `.agg.json` (written by `repro --trace` /
//! `--json`) as a percentile report with predicted-vs-observed lines
//! against the paper's closed forms.
//!
//! `bench-diff` compares two `BENCH_repro.json` records and exits with
//! status 1 when any experiment's seconds / allocations / peak RSS blew
//! past its ratio threshold (default 3x, tunable per metric with
//! `--max-seconds-ratio`, `--max-alloc-ratio`, `--max-rss-ratio`; the
//! `--min-seconds` noise floor exempts sub-threshold wall-clocks).
//! Usage or parse errors exit with status 2.

use std::process::ExitCode;

use epidemic_bench::analyze::{bench_diff, report, DiffThresholds};

const USAGE: &str = "usage: epidemic-analyze <command>\n\
  report <file.agg.json>...\n\
      Render percentile reports (delay p50/p90/p99/max, link traffic,\n\
      predicted-vs-observed) for each aggregate file.\n\
  bench-diff <baseline.json> <candidate.json>\n\
      [--max-seconds-ratio X] [--max-alloc-ratio X] [--max-rss-ratio X]\n\
      [--min-seconds S]\n\
      Compare two BENCH_repro.json records; exit 1 on any regression.\n";

fn fail(message: &str) -> ExitCode {
    eprintln!("epidemic-analyze: {message}");
    ExitCode::from(2)
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

/// Pulls `--flag <value>` out of `args` (mutating it), parsing the value
/// as a finite f64 that is positive, or also zero when `zero_ok`: every
/// comparison against NaN is false, so a NaN threshold would pass any
/// regression. `Ok(None)` when the flag is absent.
fn take_f64_flag(args: &mut Vec<String>, flag: &str, zero_ok: bool) -> Result<Option<f64>, String> {
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if pos + 1 >= args.len() {
        return Err(format!("{flag} requires a value"));
    }
    let value = args.remove(pos + 1);
    args.remove(pos);
    let x = value
        .parse::<f64>()
        .map_err(|_| format!("{flag}: not a number: {value:?}"))?;
    if !x.is_finite() || x < 0.0 || (x == 0.0 && !zero_ok) {
        let rule = if zero_ok { "at least 0" } else { "positive" };
        return Err(format!("{flag}: must be finite and {rule}: {value:?}"));
    }
    Ok(Some(x))
}

fn run_report(files: &[String]) -> Result<(), String> {
    if files.is_empty() {
        return Err("report: no input files".to_string());
    }
    for path in files {
        let rendered = report(&read(path)?).map_err(|e| format!("{path}: {e}"))?;
        print!("{rendered}");
    }
    Ok(())
}

fn run_bench_diff(mut args: Vec<String>) -> Result<bool, String> {
    let mut thresholds = DiffThresholds::default();
    if let Some(x) = take_f64_flag(&mut args, "--max-seconds-ratio", false)? {
        thresholds.max_seconds_ratio = x;
    }
    if let Some(x) = take_f64_flag(&mut args, "--max-alloc-ratio", false)? {
        thresholds.max_alloc_ratio = x;
    }
    if let Some(x) = take_f64_flag(&mut args, "--max-rss-ratio", false)? {
        thresholds.max_rss_ratio = x;
    }
    if let Some(x) = take_f64_flag(&mut args, "--min-seconds", true)? {
        thresholds.min_seconds = x;
    }
    let [baseline, candidate] = args.as_slice() else {
        return Err(format!(
            "bench-diff takes exactly two files, got {}",
            args.len()
        ));
    };
    let diff = bench_diff(&read(baseline)?, &read(candidate)?, &thresholds)?;
    print!("{}", diff.rendered);
    Ok(diff.passed())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) if cmd == "report" => match run_report(rest) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => fail(&e),
        },
        Some((cmd, rest)) if cmd == "bench-diff" => match run_bench_diff(rest.to_vec()) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => fail(&e),
        },
        _ => {
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
