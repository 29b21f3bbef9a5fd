//! `repro` — regenerates every table and figure of the paper at full
//! trial counts. `repro --help` lists the flags and every experiment with
//! its trial rule; the experiments themselves are the rows of
//! [`epidemic_bench::registry`]. What the usage text cannot say:
//!
//! * `--only SELECTOR` selects by name or name prefix (`--only table`,
//!   `--only scenario-`), may repeat, and adds to the positional names.
//! * `--trace DIR` / `--json DIR` attach the observers (a plain run has
//!   none) and write `<name>.{jsonl,summary.json,agg.json}` /
//!   `<name>.{rows.json,agg.json}` plus a `manifest.json`; no artifact
//!   carries a wall-clock field, so every byte is identical at any
//!   `EPIDEMIC_THREADS`. `epidemic-analyze` reads them.
//! * `--timings [PATH]` records per-experiment seconds, allocations (with
//!   the `count-allocs` feature), `rss_delta_kb`/`peak_rss_kb` (see
//!   `epidemic_bench::rss`), the engine and runner phases, the thread
//!   count and the compiler that built `repro`. PATH may be omitted only
//!   with `all`: the default, `BENCH_repro.json`, is the committed
//!   baseline of the whole suite.
//! * `--digest` prints one `<name> <hash>` line per experiment in place
//!   of its tables (see `registry::write_output`); `OUTPUTS.digest` holds the
//!   committed lines, the same at any `EPIDEMIC_THREADS`.

use std::collections::HashSet;
use std::io::Write;

use epidemic_bench::registry::{self, Experiment};
use epidemic_bench::{alloc_counter, figures};
use epidemic_trace::profile;

// With the `count-allocs` feature, every heap allocation in this process is
// counted and `--timings` reports a per-experiment allocation column (see
// `alloc_counter`). Default builds keep the stock allocator.
#[cfg(feature = "count-allocs")]
#[global_allocator]
static ALLOC: alloc_counter::CountingAlloc = alloc_counter::CountingAlloc;

/// Ends the process on a failed write to stdout: quietly and successfully
/// when the reader has gone away (`repro --list | grep -q table1`), as an
/// error otherwise.
fn stdout_failed(error: &std::io::Error) -> ! {
    if error.kind() == std::io::ErrorKind::BrokenPipe {
        std::process::exit(0);
    }
    eprintln!("failed to write to stdout: {error}");
    std::process::exit(1);
}

/// One experiment's row in the `--timings` report.
struct ExperimentTiming {
    name: String,
    seconds: f64,
    allocations: u64,
    /// How far this experiment pushed the process peak RSS (`VmHWM`
    /// delta across the experiment, kB). 0 when the experiment fit
    /// inside an earlier experiment's peak — per-experiment, unlike the
    /// monotone process-wide mark.
    rss_delta_kb: u64,
    /// The process high-water mark right after the experiment (kB) —
    /// monotone across rows, kept for context.
    peak_rss_kb: u64,
}

/// Writes the timing report as JSON (hand-rolled: experiment and phase
/// names come from fixed in-tree lists and need no escaping), exiting 1
/// when the file cannot be written. Its `"rustc"` line, which CI's
/// bench-diff job reads, names the compiler that built this binary. When the
/// `count-allocs` feature is active each experiment row additionally
/// carries its heap-allocation count. Memory per row is `rss_delta_kb`
/// (attributable to the experiment) plus the monotone `peak_rss_kb`
/// context reading — both 0 on platforms without `/proc` (see
/// `epidemic_bench::rss`).
fn write_timings(
    path: &str,
    threads: usize,
    timings: &[ExperimentTiming],
    phases: &[epidemic_trace::PhaseStat],
) {
    let total: f64 = timings.iter().map(|t| t.seconds).sum();
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"threads\": {threads},\n"));
    let rustc = env!("BUILD_RUSTC_VERSION");
    json.push_str(&format!("  \"rustc\": \"{rustc}\",\n"));
    json.push_str(&format!("  \"total_seconds\": {total:.3},\n"));
    json.push_str("  \"experiments\": [\n");
    for (i, t) in timings.iter().enumerate() {
        let comma = if i + 1 < timings.len() { "," } else { "" };
        let allocs = if alloc_counter::enabled() {
            format!(", \"allocations\": {}", t.allocations)
        } else {
            String::new()
        };
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"seconds\": {:.3}{allocs}, \
             \"rss_delta_kb\": {}, \"peak_rss_kb\": {}}}{comma}\n",
            t.name, t.seconds, t.rss_delta_kb, t.peak_rss_kb
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"phases\": [\n");
    for (i, p) in phases.iter().enumerate() {
        let comma = if i + 1 < phases.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"calls\": {}, \"seconds\": {:.3}}}{comma}\n",
            p.name,
            p.calls,
            p.seconds()
        ));
    }
    json.push_str("  ]\n}\n");
    match std::fs::write(path, json) {
        Ok(()) => eprintln!("[timings written to {path}]"),
        Err(e) => {
            eprintln!("[failed to write {path}: {e}]");
            std::process::exit(1);
        }
    }
}

/// Removes the first `flag` and the value after it from `args` and
/// returns the value; a `flag` without one is a usage error saying what
/// it `needs`.
fn take_value(args: &mut Vec<String>, flag: &str, needs: &str) -> Option<String> {
    let pos = args.iter().position(|a| a == flag)?;
    let value = args.get(pos + 1).cloned().unwrap_or_else(|| {
        eprintln!("{flag} needs {needs}");
        std::process::exit(2);
    });
    args.drain(pos..=pos + 1);
    Some(value)
}

/// Where `--timings` writes when given no PATH: the committed baseline of
/// the whole suite.
const DEFAULT_TIMINGS_PATH: &str = "BENCH_repro.json";

/// Every `EPIDEMIC_*` variable `repro` reads.
const KNOWN_ENV: [&str; 2] = [
    epidemic_sim::runner::THREADS_ENV_VAR,
    figures::MEGASCALE_MAX_N_ENV,
];

/// Refuses an environment `repro` would otherwise misread: a known
/// variable with an unusable value, or an `EPIDEMIC_*` name it does not
/// read at all (a typo, or a variable a past version had).
fn check_environment() -> Result<(), String> {
    epidemic_sim::runner::thread_override()?;
    figures::megascale_max_n_override()?;
    for (name, value) in std::env::vars_os() {
        let name = name.to_string_lossy();
        if name.starts_with("EPIDEMIC_") && !KNOWN_ENV.contains(&name.as_ref()) {
            return Err(format!(
                "{name}={value:?} is not a variable repro reads\nknown: {}",
                KNOWN_ENV.join(" ")
            ));
        }
    }
    Ok(())
}

/// A selection error: what went wrong, then every known name.
fn unknown(problem: &str) -> ! {
    eprintln!("{problem}\nknown: {}", registry::names());
    std::process::exit(2);
}

fn main() {
    if let Err(message) = check_environment() {
        eprintln!("{message}");
        std::process::exit(2);
    }
    let mut stdout = std::io::stdout().lock();
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        if let Err(error) = stdout.write_all(registry::list().as_bytes()) {
            stdout_failed(&error);
        }
        return;
    }
    let trials_flag = take_value(&mut args, "--trials", "a positive integer").map(|value| {
        let trials = value.parse().ok().filter(|&trials: &u64| trials > 0);
        trials.unwrap_or_else(|| {
            eprintln!("--trials needs a positive integer");
            std::process::exit(2);
        })
    });
    let mut timings_path: Option<String> = None;
    if let Some(pos) = args.iter().position(|a| a == "--timings") {
        // An optional path follows; anything that is not an experiment
        // name or flag is treated as the output file.
        let path = match args.get(pos + 1) {
            Some(next)
                if next != "all" && !next.starts_with('-') && registry::find(next).is_none() =>
            {
                let p = next.clone();
                args.drain(pos..=pos + 1);
                p
            }
            _ => {
                args.remove(pos);
                // The default file is the committed suite baseline: only
                // a run of the whole suite may overwrite it.
                if !args.iter().any(|a| a == "all") {
                    eprintln!(
                        "--timings needs a PATH unless the selection is `all` \
                         (the default, {DEFAULT_TIMINGS_PATH}, is the suite baseline)"
                    );
                    std::process::exit(2);
                }
                String::from(DEFAULT_TIMINGS_PATH)
            }
        };
        timings_path = Some(path);
    }
    let digest = args.iter().any(|a| a == "--digest");
    args.retain(|a| a != "--digest");
    let trace_dir = take_value(&mut args, "--trace", "an output directory");
    let json_dir = take_value(&mut args, "--json", "an output directory");
    let mut selectors: Vec<String> = Vec::new();
    let needs = "a selector (an experiment name or prefix)";
    while let Some(selector) = take_value(&mut args, "--only", needs) {
        selectors.push(selector);
    }
    if (args.is_empty() && selectors.is_empty()) || args.iter().any(|a| a == "--help" || a == "-h")
    {
        eprintln!(
            "usage: repro [--trials N] [--timings [PATH]] [--trace DIR] [--json DIR] \
             [--digest] [--only SELECTOR]... [--list] <experiment>... | all\n\
             experiments, and where their trial count comes from:\n{}",
            registry::usage()
        );
        std::process::exit(2);
    }
    // The whole selection is resolved before the first experiment runs.
    let mut selection: Vec<&Experiment> = if args.iter().any(|a| a == "all") {
        registry::all().iter().collect()
    } else {
        args.iter()
            .map(|name| {
                registry::find(name)
                    .unwrap_or_else(|| unknown(&format!("unknown experiment: {name}")))
            })
            .collect()
    };
    for selector in &selectors {
        let before = selection.len();
        selection.extend(
            registry::all()
                .iter()
                .filter(|e| e.name.starts_with(selector.as_str())),
        );
        if selection.len() == before {
            unknown(&format!("--only {selector} matches no experiment"));
        }
    }
    // An experiment selected twice — by name and by prefix, or by two
    // selectors — runs once, where it was first selected.
    let mut seen = HashSet::new();
    selection.retain(|experiment| seen.insert(&experiment.name));
    if timings_path.is_some() {
        profile::enable();
    }
    let observe = trace_dir.is_some() || json_dir.is_some();
    let mut timings: Vec<ExperimentTiming> = Vec::new();
    for &experiment in &selection {
        let name = &experiment.name;
        if let Some(why) = trials_flag.and_then(|_| experiment.trials.ignores_flag()) {
            eprintln!("[{name}: --trials does not apply ({why})]");
        }
        let allocs_before = alloc_counter::allocations();
        let rss_before = epidemic_bench::rss::peak_rss_kb();
        let start = std::time::Instant::now();
        let output = experiment.run(&experiment.ctx(trials_flag, observe));
        if let Err(error) = registry::write_output(
            experiment,
            &output,
            &mut stdout,
            trace_dir.as_deref(),
            json_dir.as_deref(),
            digest,
        ) {
            stdout_failed(&error);
        }
        let seconds = start.elapsed().as_secs_f64();
        let allocations = alloc_counter::allocations() - allocs_before;
        let peak_rss_kb = epidemic_bench::rss::peak_rss_kb();
        let rss_delta_kb = peak_rss_kb.saturating_sub(rss_before);
        if alloc_counter::enabled() {
            eprintln!("[{name}: {seconds:.1}s, {allocations} allocations]");
        } else {
            eprintln!("[{name}: {seconds:.1}s]");
        }
        timings.push(ExperimentTiming {
            name: name.clone(),
            seconds,
            allocations,
            rss_delta_kb,
            peak_rss_kb,
        });
    }
    let manifest = registry::manifest_json(&selection);
    for dir in [&trace_dir, &json_dir].into_iter().flatten() {
        registry::write_artifact(dir, "manifest.json", &manifest);
    }
    if let Some(path) = timings_path {
        let phases = profile::take();
        if !phases.is_empty() {
            eprintln!("[phases]");
            for p in &phases {
                eprintln!(
                    "  {:<22} {:>9.3}s over {} spans",
                    p.name,
                    p.seconds(),
                    p.calls
                );
            }
        }
        write_timings(
            &path,
            epidemic_sim::runner::default_threads(),
            &timings,
            &phases,
        );
    }
}
