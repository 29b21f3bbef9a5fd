//! `epidemic-analyze` — consumers for the run-analytics artifacts.
//!
//! ```text
//! epidemic-analyze report <file.agg.json>...
//! epidemic-analyze bench-diff <baseline.json> <candidate.json>
//! ```
//!
//! `report` renders each `.agg.json` (written by `repro --trace` /
//! `--json`) as a percentile report with predicted-vs-observed lines
//! against the paper's closed forms.
//!
//! `bench-diff` compares two `BENCH_repro.json` records and exits with
//! status 1 when any experiment's seconds or `rss_delta_kb` grew past 3x
//! the baseline's (wall-clocks under 0.25 s and memory deltas under 10 MB
//! are noise and never flagged), or when its allocation count differs
//! from the baseline's at all, in either direction. Usage or parse errors
//! exit with status 2.

use std::process::ExitCode;

use epidemic_bench::analyze::{bench_diff, report};

const USAGE: &str = "usage: epidemic-analyze <command>\n\
  report <file.agg.json>...\n\
      Render percentile reports (delay p50/p90/p99/max, link traffic,\n\
      predicted-vs-observed) for each aggregate file.\n\
  bench-diff <baseline.json> <candidate.json>\n\
      Compare two BENCH_repro.json records; exit 1 on any regression.\n";

fn fail(message: &str) -> ExitCode {
    eprintln!("epidemic-analyze: {message}");
    ExitCode::from(2)
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
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

fn run_bench_diff(args: &[String]) -> Result<bool, String> {
    let [baseline, candidate] = args else {
        return Err(format!(
            "bench-diff takes exactly two files, got {}",
            args.len()
        ));
    };
    let diff = bench_diff((baseline, &read(baseline)?), (candidate, &read(candidate)?))?;
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
        Some((cmd, rest)) if cmd == "bench-diff" => match run_bench_diff(rest) {
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
