//! `repro` — regenerates every table and figure of the paper at full
//! trial counts.
//!
//! ```text
//! cargo run -p epidemic-bench --release --bin repro -- all
//! cargo run -p epidemic-bench --release --bin repro -- table1 table4
//! cargo run -p epidemic-bench --release --bin repro -- --timings all
//! cargo run -p epidemic-bench --release --bin repro -- --timings out.json table1
//! cargo run -p epidemic-bench --release --bin repro -- --list
//! cargo run -p epidemic-bench --release --bin repro -- --only table
//! cargo run -p epidemic-bench --release --bin repro -- --only table1 --trace out/
//! ```
//!
//! `--list` prints every experiment name, one per line, grouped under
//! `[tables]` / `[figures]` / `[scenarios]` headers, and exits.
//! `--only <selector>` runs the experiments whose name equals or starts
//! with the selector — `--only table` runs the five tables, `--only fig`
//! the figures, `--only scenario-` the bundled declarative scenarios,
//! `--only table4` exactly one experiment.
//!
//! `--trace <dir>` writes structured artifacts for **every** experiment:
//! a summary record (`<name>.summary.json`) and a streaming-aggregate
//! report (`<name>.agg.json` — mergeable delay histograms with
//! quantiles, the bounded link-traffic matrix, S/I/R curves and contact
//! totals; see `epidemic_trace::RunAggregate`). Tables and scenarios
//! additionally write a per-contact run trace (`<name>.jsonl`, one JSON
//! object per line); figures have no per-contact trace and skip the
//! file. `--json <dir>` writes the machine-readable rows
//! (`<name>.rows.json`) plus the same `<name>.agg.json`. Both modes add
//! a top-level `manifest.json` naming the experiments run and the
//! worker-thread count. No artifact carries wall-clock fields, so every
//! written byte is identical at any `EPIDEMIC_THREADS`.
//! `epidemic-analyze` consumes these artifacts.
//!
//! `--timings [PATH]` additionally records per-experiment wall-clock
//! seconds, per-experiment memory (`rss_delta_kb`, the experiment's own
//! push on the process high-water mark, plus the raw monotone
//! `peak_rss_kb` — see `epidemic_bench::rss`), a per-phase breakdown
//! (legacy engine setup / contact loop / end-of-cycle, fast-path
//! active_setup / active_contact_loop / active_apply, trial fan-out /
//! aggregation) and the worker-thread count to a JSON file. PATH may be
//! omitted only when the selection is `all`: the default,
//! `BENCH_repro.json`, is the committed baseline of the whole suite, and
//! a partial run must not overwrite it (exit 2). Thread count is controlled by the
//! `EPIDEMIC_THREADS` environment variable (see `epidemic_sim::runner`).

use epidemic_bench::alloc_counter;
use epidemic_bench::figures;
use epidemic_bench::scenarios::{print_scenarios, scenario_artifacts};
use epidemic_bench::tables::{
    print_mixing, print_spatial, table1, table2, table3, table45, PAPER_TABLE1, PAPER_TABLE2,
    PAPER_TABLE3, TITLE_TABLE1, TITLE_TABLE2, TITLE_TABLE3, TITLE_TABLE4, TITLE_TABLE5,
};
use epidemic_bench::trace::table_artifacts;
use epidemic_sim::runner::TrialRunner;
use epidemic_trace::json::{array_of, JsonObject};
use epidemic_trace::profile;

// With the `count-allocs` feature, every heap allocation in this process is
// counted and `--timings` reports a per-experiment allocation column (see
// `alloc_counter`). Default builds keep the stock allocator.
#[cfg(feature = "count-allocs")]
#[global_allocator]
static ALLOC: alloc_counter::CountingAlloc = alloc_counter::CountingAlloc;

const N: usize = 1000;

fn run(experiment: &str, mix_trials: u64, spatial_trials: u64) -> bool {
    #[allow(non_snake_case)]
    let MIX_TRIALS = mix_trials;
    #[allow(non_snake_case)]
    let SPATIAL_TRIALS = spatial_trials;
    match experiment {
        "table1" => print_mixing(TITLE_TABLE1, &table1(N, MIX_TRIALS), &PAPER_TABLE1),
        "table2" => print_mixing(TITLE_TABLE2, &table2(N, MIX_TRIALS), &PAPER_TABLE2),
        "table3" => print_mixing(TITLE_TABLE3, &table3(N, MIX_TRIALS), &PAPER_TABLE3),
        "table4" => print_spatial(TITLE_TABLE4, &table45(SPATIAL_TRIALS, None)),
        "table5" => print_spatial(TITLE_TABLE5, &table45(SPATIAL_TRIALS, Some(1))),
        // Figure experiments (one dispatcher, fixed per-figure trial
        // counts) and scenario experiments (fig-scenarios and
        // scenario-<name>); unknown names return false and surface the
        // usual error.
        other => {
            return figures::print_figure(other, N, MIX_TRIALS)
                || print_scenarios(other, scenario_trials(MIX_TRIALS))
        }
    }
    true
}

/// Scenario sweeps carry full fault timelines per trial, so they run far
/// fewer seeds than the mixing tables: capped at 10 unless `--trials`
/// asks for less.
fn scenario_trials(mix_trials: u64) -> u64 {
    mix_trials.min(10)
}

/// Experiment grouping for `--list`: tables (numbered paper tables),
/// scenarios (declarative `.scenario` sweeps), figures (everything else,
/// including ablations).
fn kind(name: &str) -> &'static str {
    if name.starts_with("table") {
        "tables"
    } else if name == "fig-scenarios" || name.starts_with("scenario-") {
        "scenarios"
    } else {
        "figures"
    }
}

const ALL: &[&str] = &[
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "fig-rumor-ode",
    "fig-residue-traffic",
    "fig-ae-convergence",
    "fig-line-traffic",
    "fig1-pathology",
    "fig2-pathology",
    "death-certs",
    "fig-dc-scaling",
    "fig-spatial-rumor",
    "fig-sir-curve",
    "fig-checksum-window",
    "fig-async",
    "fig-cin-steady",
    "fig-megascale",
    "ablation-hierarchy",
    "ablation-weighted-cin",
    "ablation-churn",
    "fig-topology-robustness",
    "fig-pull-vs-push-rate",
    "ablation-counter-reset",
    "ablation-hunting",
    "ablation-comparison",
    "ablation-redistribution",
    "fig-scenarios",
    "scenario-clearinghouse",
    "scenario-dormant-death",
    "scenario-partition",
    "scenario-crash",
    "scenario-churn",
    "scenario-flash-crowd-lossy",
    "scenario-churn-partition-heal",
];

/// Writes `contents` (with a guaranteed trailing newline) to
/// `<dir>/<file>`, creating the directory as needed. Exits on I/O errors:
/// a user who asked for artifacts should not silently get none.
fn write_artifact(dir: &str, file: &str, contents: &str) {
    let path = std::path::Path::new(dir).join(file);
    if let Some(parent) = path.parent() {
        if let Err(e) = std::fs::create_dir_all(parent) {
            eprintln!("failed to create {}: {e}", parent.display());
            std::process::exit(1);
        }
    }
    let mut text = String::with_capacity(contents.len() + 1);
    text.push_str(contents);
    if !text.ends_with('\n') {
        text.push('\n');
    }
    match std::fs::write(&path, text) {
        Ok(()) => eprintln!("[wrote {}]", path.display()),
        Err(e) => {
            eprintln!("failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// The top-level `manifest.json` written to every `--trace`/`--json`
/// directory: which experiments ran (in order) and the worker-thread
/// count. The thread count documents the parallelism used; the artifacts
/// themselves are byte-identical at any value of it.
fn manifest_json(experiments: &[&str]) -> String {
    let mut o = JsonObject::new();
    // Experiment names come from the fixed in-tree list: no escaping.
    o.field_raw(
        "experiments",
        &array_of(experiments.iter().map(|name| format!("\"{name}\""))),
    )
    .field_u64("threads", epidemic_sim::runner::default_threads() as u64);
    o.finish()
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
/// names come from fixed in-tree lists and need no escaping). When the
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
        Err(e) => eprintln!("[failed to write {path}: {e}]"),
    }
}

/// Extracts the directory argument of `flag` (e.g. `--trace out/`),
/// removing both tokens from `args`.
fn take_dir_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let pos = args.iter().position(|a| a == flag)?;
    let dir = args.get(pos + 1).cloned().unwrap_or_else(|| {
        eprintln!("{flag} needs an output directory");
        std::process::exit(2);
    });
    args.drain(pos..=pos + 1);
    Some(dir)
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

fn main() {
    if let Err(message) = check_environment() {
        eprintln!("{message}");
        std::process::exit(2);
    }
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for group in ["tables", "figures", "scenarios"] {
            println!("[{group}]");
            for name in ALL.iter().filter(|name| kind(name) == group) {
                println!("{name}");
            }
        }
        return;
    }
    let mut mix_trials: u64 = 100;
    let mut spatial_trials: u64 = 250;
    if let Some(pos) = args.iter().position(|a| a == "--trials") {
        let value = args
            .get(pos + 1)
            .and_then(|v| v.parse().ok())
            .filter(|&trials: &u64| trials > 0)
            .unwrap_or_else(|| {
                eprintln!("--trials needs a positive integer");
                std::process::exit(2);
            });
        mix_trials = value;
        spatial_trials = value;
        args.drain(pos..=pos + 1);
    }
    let mut timings_path: Option<String> = None;
    if let Some(pos) = args.iter().position(|a| a == "--timings") {
        // An optional path follows; anything that is not an experiment
        // name or flag is treated as the output file.
        let path = match args.get(pos + 1) {
            Some(next)
                if next != "all" && !next.starts_with('-') && !ALL.contains(&next.as_str()) =>
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
    let trace_dir = take_dir_flag(&mut args, "--trace");
    let json_dir = take_dir_flag(&mut args, "--json");
    let mut selectors: Vec<String> = Vec::new();
    while let Some(pos) = args.iter().position(|a| a == "--only") {
        let selector = args.get(pos + 1).cloned().unwrap_or_else(|| {
            eprintln!("--only needs a selector (an experiment name or prefix)");
            std::process::exit(2);
        });
        selectors.push(selector);
        args.drain(pos..=pos + 1);
    }
    if (args.is_empty() && selectors.is_empty()) || args.iter().any(|a| a == "--help" || a == "-h")
    {
        eprintln!(
            "usage: repro [--trials N] [--timings [PATH]] [--trace DIR] [--json DIR] \
             [--only SELECTOR]... [--list] <experiment>... | all\nexperiments: {}",
            ALL.join(" ")
        );
        std::process::exit(2);
    }
    let mut list: Vec<&str> = if args.iter().any(|a| a == "all") {
        ALL.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    for selector in &selectors {
        let matched: Vec<&str> = ALL
            .iter()
            .copied()
            .filter(|name| name == selector || name.starts_with(selector.as_str()))
            .collect();
        if matched.is_empty() {
            eprintln!(
                "--only {selector} matches no experiment\nknown: {}",
                ALL.join(" ")
            );
            std::process::exit(2);
        }
        list.extend(matched);
    }
    if timings_path.is_some() {
        profile::enable();
    }
    let mut timings: Vec<ExperimentTiming> = Vec::new();
    let mut ran: Vec<&str> = Vec::new();
    for experiment in list {
        let allocs_before = alloc_counter::allocations();
        let rss_before = epidemic_bench::rss::peak_rss_kb();
        let start = std::time::Instant::now();
        let handled = if trace_dir.is_some() || json_dir.is_some() {
            // Every experiment kind has an artifact writer: traced tables,
            // scenario sweeps, figures. A None from all three means the
            // name is unknown.
            match table_artifacts(
                TrialRunner::new(),
                experiment,
                N,
                mix_trials,
                spatial_trials,
            )
            .or_else(|| {
                scenario_artifacts(TrialRunner::new(), experiment, scenario_trials(mix_trials))
            })
            .or_else(|| figures::figure_artifacts(TrialRunner::new(), experiment, N, mix_trials))
            {
                Some(artifacts) => {
                    print!("{}", artifacts.rendered);
                    if let Some(dir) = &trace_dir {
                        // Figures have no per-contact trace; skip the
                        // empty .jsonl rather than writing a blank file.
                        if !artifacts.jsonl.is_empty() {
                            write_artifact(dir, &format!("{experiment}.jsonl"), &artifacts.jsonl);
                        }
                        write_artifact(
                            dir,
                            &format!("{experiment}.summary.json"),
                            &artifacts.summary,
                        );
                        write_artifact(dir, &format!("{experiment}.agg.json"), &artifacts.agg);
                    }
                    if let Some(dir) = &json_dir {
                        write_artifact(dir, &format!("{experiment}.rows.json"), &artifacts.rows);
                        write_artifact(dir, &format!("{experiment}.agg.json"), &artifacts.agg);
                    }
                    true
                }
                None => false,
            }
        } else {
            run(experiment, mix_trials, spatial_trials)
        };
        if !handled {
            eprintln!("unknown experiment: {experiment}\nknown: {}", ALL.join(" "));
            std::process::exit(2);
        }
        ran.push(experiment);
        let seconds = start.elapsed().as_secs_f64();
        let allocations = alloc_counter::allocations() - allocs_before;
        let peak_rss_kb = epidemic_bench::rss::peak_rss_kb();
        let rss_delta_kb = peak_rss_kb.saturating_sub(rss_before);
        if alloc_counter::enabled() {
            eprintln!("[{experiment}: {seconds:.1}s, {allocations} allocations]");
        } else {
            eprintln!("[{experiment}: {seconds:.1}s]");
        }
        timings.push(ExperimentTiming {
            name: experiment.to_string(),
            seconds,
            allocations,
            rss_delta_kb,
            peak_rss_kb,
        });
    }
    if trace_dir.is_some() || json_dir.is_some() {
        let manifest = manifest_json(&ran);
        for dir in [&trace_dir, &json_dir].into_iter().flatten() {
            write_artifact(dir, "manifest.json", &manifest);
        }
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
