//! Integration tests for the `repro` binary's CLI contract: selector
//! errors must be loud (nonzero exit + the list of valid names), every
//! experiment — tables, figures, scenarios — must write `--trace`/`--json`
//! artifacts (no experiment runs untraced), and each artifact directory
//! must carry a `manifest.json` recording what ran and under which
//! parallelism knobs.

use std::path::PathBuf;
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

/// A unique scratch directory per test (no tempfile dependency).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn only_with_no_match_exits_nonzero_and_lists_names() {
    let out = repro(&["--only", "no-such-experiment"]);
    assert_eq!(out.status.code(), Some(2), "zero-match --only must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("matches no experiment"),
        "stderr must explain the empty match: {stderr}"
    );
    // The valid names must be offered so the user can fix the selector.
    for name in ["table1", "fig-cin-steady", "ablation-churn"] {
        assert!(stderr.contains(name), "stderr must list {name}: {stderr}");
    }
}

#[test]
fn unknown_experiment_exits_nonzero_and_lists_names() {
    // The second name is the retired twin of fig-cin-steady, spelled in
    // pieces so a search for it finds no live use. The third selection
    // has a typo behind a valid name: the whole selection is resolved
    // before anything runs, so table1 must neither print nor write.
    let dir = scratch("unknown-after-known");
    let dir_str = dir.to_str().unwrap();
    for args in [
        &["definitely-not-real"][..],
        &[concat!("fig-cin-steady-", "sh", "arded")][..],
        &["--trials", "1", "--json", dir_str, "table1", "tabel5"][..],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown experiment: {}", args[args.len() - 1])),
            "{stderr}"
        );
        assert!(stderr.contains("known: table1"), "{stderr}");
        assert!(out.stdout.is_empty(), "nothing may run: {args:?}");
    }
    assert!(!dir.exists(), "nothing may be written");
}

#[test]
fn an_experiment_selected_twice_runs_once() {
    let once = scratch("selected-once");
    let twice = scratch("selected-twice");
    let run = |dir: &PathBuf, extra: &[&str]| {
        let json = dir.to_str().unwrap();
        let out = repro(&[&["--trials", "1", "--json", json, "table1"][..], extra].concat());
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let manifest =
            std::fs::read_to_string(dir.join("manifest.json")).expect("manifest.json written");
        (String::from_utf8(out.stdout).expect("utf-8"), manifest)
    };
    let (stdout, manifest) = run(&once, &[]);
    assert_eq!(run(&twice, &["--only", "table1"]), (stdout, manifest));
    let _ = std::fs::remove_dir_all(&once);
    let _ = std::fs::remove_dir_all(&twice);
}

#[test]
fn trials_says_where_it_does_not_reach() {
    let out = repro(&["--trials", "3", "fig-line-traffic", "table1"]);
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("[fig-line-traffic: --trials does not apply (exact)]"),
        "{stderr}"
    );
    assert!(!stderr.contains("[table1: --trials"), "{stderr}");
    // Without the flag there is nothing to say.
    let out = repro(&["fig-line-traffic"]);
    assert!(!String::from_utf8_lossy(&out.stderr).contains("--trials"));
}

#[test]
fn unwritable_timings_path_exits_1_after_running() {
    let out = repro(&[
        "--trials",
        "1",
        "--timings",
        "/nonexistent/t.json",
        "table1",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(!out.stdout.is_empty(), "the experiment still ran");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("failed to write /nonexistent/t.json"),
        "{stderr}"
    );
}

#[test]
fn closed_stdout_ends_the_run_quietly() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    let dir = scratch("closed-stdout");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let timings = dir.join("timings.json");
    // Full trial counts: the reader is gone long before table2 prints.
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--timings")
        .arg(&timings)
        .args(["table1", "table2", "table3"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("repro binary runs");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("one line arrives");
    drop(stdout);
    let out = child.wait_with_output().expect("repro exits");
    assert_eq!(out.status.code(), Some(0), "a closed pipe is not a failure");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(
        !stderr.contains("[table3:"),
        "nothing runs after the pipe closed: {stderr}"
    );
    assert!(!timings.exists(), "no timings file either");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn zero_trials_is_a_usage_error() {
    // Zero trials used to print all-NaN tables and exit 0.
    let out = repro(&["--trials", "0", "table1"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no table may be printed");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--trials needs a positive integer"),
        "{stderr}"
    );
}

#[test]
fn timings_without_a_path_is_refused_for_a_partial_selection() {
    // The default path is the committed suite baseline; a partial run
    // used to overwrite it with a file holding only what was selected.
    let dir = scratch("timings-default");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    for selection in [&["table1"][..], &["--only", "table"][..]] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .current_dir(&dir)
            .args(["--trials", "1", "--timings"])
            .args(selection)
            .output()
            .expect("repro binary runs");
        assert_eq!(out.status.code(), Some(2), "{selection:?}");
        assert!(out.stdout.is_empty(), "nothing may run: {selection:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--timings needs a PATH"), "{stderr}");
        assert!(!dir.join("BENCH_repro.json").exists(), "{selection:?}");
    }
    // An explicit path keeps working for any selection.
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .current_dir(&dir)
        .args(["--trials", "1", "--timings", "partial.json", "table1"])
        .output()
        .expect("repro binary runs");
    assert!(out.status.success());
    assert!(dir.join("partial.json").exists());
    assert!(!dir.join("BENCH_repro.json").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--timings` keeps reporting the trial runner's two phases with their
/// meanings now that the fold streams: one span each per fold (table1
/// sweeps five `k`, fig-rumor-ode eight), the engines' time inside
/// `runner.trials`, and `runner.aggregate` only the fold function. The
/// report names the compiler that built `repro` on the committed
/// baseline's `"rustc"` line, which CI's bench-diff job reads.
#[test]
fn timings_report_the_runner_phases() {
    let dir = scratch("timings-phases");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    for threads in ["1", "2"] {
        let path = dir.join(format!("timings-{threads}.json"));
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .env("EPIDEMIC_THREADS", threads)
            .args(["--trials", "6", "--timings"])
            .arg(&path)
            .args(["table1", "fig-rumor-ode"])
            .output()
            .expect("repro binary runs");
        assert!(out.status.success());
        let report = std::fs::read_to_string(&path).expect("timings file written");
        let baseline = include_str!("../../../BENCH_repro.json");
        for report in [&report[..], baseline] {
            let rustc = report
                .lines()
                .find(|l| l.starts_with("  \"rustc\": \"rustc 1."));
            assert!(rustc.is_some(), "no rustc line: {report}");
        }
        let built = format!("  \"rustc\": \"{}\",", env!("BUILD_RUSTC_VERSION"));
        assert!(report.lines().any(|line| line == built), "{report}");
        let phase = |name: &str| -> (u64, f64) {
            let line = report
                .lines()
                .find(|line| line.contains(&format!("\"name\": \"{name}\"")))
                .unwrap_or_else(|| panic!("no {name} phase in {report}"));
            let field = |key: &str| -> &str {
                let rest = &line[line.find(key).expect("field present") + key.len()..];
                rest[..rest.find([',', '}']).expect("field ends")].trim()
            };
            (
                field("\"calls\":").parse().expect("calls is an integer"),
                field("\"seconds\":").parse().expect("seconds is a number"),
            )
        };
        let (trial_spans, trial_seconds) = phase("runner.trials");
        let (fold_spans, fold_seconds) = phase("runner.aggregate");
        assert_eq!((trial_spans, fold_spans), (13, 13), "threads={threads}");
        assert_eq!(phase("engine.contact_loop").0, 13 * 6, "one per trial");
        assert!(fold_seconds >= 0.0);
        if threads == "1" {
            // On one worker the engines run inside `runner.trials`
            // (seconds are printed to the millisecond).
            let engines = phase("engine.contact_loop").1 + phase("engine.end_of_cycle").1;
            assert!(
                trial_seconds + 0.002 >= engines,
                "runner.trials {trial_seconds} < engine phases {engines}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--digest` prints one `<name> <16 hex digits>` line per experiment in
/// place of its tables, the same at any worker count and across runs whose
/// cost columns differ (fig-megascale's seconds); under `--json` it also
/// covers the artifacts, which it still writes.
#[test]
fn digest_prints_one_stable_line_per_experiment() {
    let dir = scratch("digest");
    let digest = |threads: &str, args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .envs([
                ("EPIDEMIC_THREADS", threads),
                ("EPIDEMIC_MEGASCALE_MAX_N", "10000"),
            ])
            .args([&["--digest", "--trials", "2"], args].concat())
            .output()
            .expect("repro binary runs");
        assert!(out.status.success());
        String::from_utf8(out.stdout).expect("utf-8")
    };
    let plain = digest("1", &["table1", "fig-megascale"]);
    let lines: Vec<_> = plain.lines().filter_map(|l| l.split_once(' ')).collect();
    let names: Vec<_> = lines.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, ["table1", "fig-megascale"], "{plain}");
    let hex = |h: &str| h.len() == 16 && u64::from_str_radix(h, 16).is_ok();
    assert!(lines.iter().all(|(_, hash)| hex(hash)), "{plain}");
    assert_eq!(plain, digest("2", &["table1", "fig-megascale"]));
    let observed = digest("1", &["--json", dir.to_str().unwrap(), "table1"]);
    assert_ne!(observed.lines().next(), plain.lines().next());
    assert!(dir.join("table1.rows.json").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn invalid_environment_is_rejected_naming_variable_and_value() {
    // A bad value used to fall back silently (threads) or panic mid-run
    // (megascale cap); a name `repro` does not read — retired, or a typo
    // — used to be ignored.
    const KNOWN: &str = "known: EPIDEMIC_THREADS EPIDEMIC_MEGASCALE_MAX_N";
    for (var, bad, unknown) in [
        ("EPIDEMIC_THREADS", "abc", false),
        ("EPIDEMIC_THREADS", "0", false),
        ("EPIDEMIC_MEGASCALE_MAX_N", "ten", false),
        // The retired storage switch and the retired partition count of
        // the third cycle engine, spelled in pieces so a search for the
        // names finds no live use.
        (concat!("EPIDEMIC_", "BACKEND"), "flat", true),
        (concat!("EPIDEMIC_", "SH", "ARDS"), "8", true),
        ("EPIDEMIC_THREAD", "4", true),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .env(var, bad)
            .args(["table1", "fig-megascale"])
            .output()
            .expect("repro binary runs");
        assert_eq!(out.status.code(), Some(2), "{var}={bad}");
        assert!(out.stdout.is_empty(), "no table may be printed");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("{var}=\"{bad}\"")) && (!unknown || stderr.contains(KNOWN)),
            "stderr must name {var}={bad} (and list the known names for an unknown one): {stderr}"
        );
    }
}

#[test]
fn trace_with_empty_selection_is_a_usage_error() {
    // `--trace DIR` with neither experiments nor selectors would write
    // nothing at all; that must be a usage error, not a silent no-op.
    let dir = scratch("empty-trace");
    let out = repro(&["--trace", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        !dir.exists(),
        "an empty selection must not create the artifact directory"
    );
}

#[test]
fn figures_write_artifacts_and_a_manifest() {
    let dir = scratch("figure-artifacts");
    let dir_str = dir.to_str().unwrap();
    let out = repro(&["--trace", dir_str, "--json", dir_str, "fig-line-traffic"]);
    assert!(out.status.success(), "fig-line-traffic runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("untraced"), "{stderr}");
    assert!(!dir.join("untraced.json").exists());
    for ext in ["rows.json", "agg.json", "summary.json"] {
        assert!(
            dir.join(format!("fig-line-traffic.{ext}")).exists(),
            "fig-line-traffic.{ext} must be written"
        );
    }
    // Figures stream into aggregates instead of tracing per cycle, so an
    // empty .jsonl is skipped rather than written.
    assert!(!dir.join("fig-line-traffic.jsonl").exists());
    let rows = std::fs::read_to_string(dir.join("fig-line-traffic.rows.json")).unwrap();
    assert!(rows.contains(r#""kind":"figure""#), "{rows}");
    let manifest = std::fs::read_to_string(dir.join("manifest.json"))
        .expect("manifest.json written next to the artifacts");
    for key in ["\"fig-line-traffic\"", "\"threads\""] {
        assert!(manifest.contains(key), "manifest records {key}: {manifest}");
    }
    for retired in ["backend", concat!("sh", "ards")] {
        assert!(
            !manifest.contains(retired),
            "one store layout, one way to run a cycle — nothing to record: {manifest}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn list_knows_fig_megascale() {
    let out = repro(&["--list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.lines().any(|l| l == "fig-megascale"),
        "--list must include fig-megascale: {stdout}"
    );
}

/// The committed suite baseline has one row per experiment, in `--list`
/// order: adding or retiring an experiment without re-recording
/// `BENCH_repro.json` fails here rather than surfacing as bench-diff's
/// "missing from candidate, not gated" line.
#[test]
fn list_equals_the_committed_baselines_experiments() {
    let out = repro(&["--list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let listed: Vec<&str> = stdout.lines().filter(|l| !l.starts_with('[')).collect();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_repro.json");
    let baseline = std::fs::read_to_string(path).expect("BENCH_repro.json is committed");
    let baseline = epidemic_trace::json::parse(&baseline).expect("BENCH_repro.json parses");
    let recorded: Vec<&str> = baseline
        .get("experiments")
        .and_then(|e| e.as_array())
        .expect("an experiments array")
        .iter()
        .map(|row| {
            row.get("name")
                .and_then(|n| n.as_str())
                .expect("every row is named")
        })
        .collect();
    assert_eq!(listed, recorded, "re-record BENCH_repro.json");
}

/// `bench-diff` takes exactly two readable files and no flags: anything
/// else is a usage error (exit 2) before any comparison, and the
/// committed baseline against itself passes (exit 0).
#[test]
fn bench_diff_takes_two_readable_files() {
    let baseline = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_repro.json");
    let bench_diff = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_epidemic-analyze"))
            .arg("bench-diff")
            .args(args)
            .output()
            .expect("epidemic-analyze runs")
    };
    for args in [
        &[baseline][..],
        &[baseline, baseline, "--min-seconds", "0"],
        &[baseline, "no-such-file.json"],
    ] {
        let out = bench_diff(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
    assert_eq!(bench_diff(&[baseline, baseline]).status.code(), Some(0));
}

#[test]
fn list_groups_experiments_by_kind() {
    let out = repro(&["--list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    let header = |h: &str| {
        lines
            .iter()
            .position(|l| *l == h)
            .unwrap_or_else(|| panic!("--list must print a {h} header: {stdout}"))
    };
    let (tables, figures, scenarios) = (
        header("[tables]"),
        header("[figures]"),
        header("[scenarios]"),
    );
    assert!(
        tables < figures && figures < scenarios,
        "groups in tables/figures/scenarios order: {stdout}"
    );
    // Bare names stay on their own lines, sorted into the right group.
    let position = |name: &str| {
        lines
            .iter()
            .position(|l| *l == name)
            .unwrap_or_else(|| panic!("--list must include {name}: {stdout}"))
    };
    assert!(position("table4") > tables && position("table4") < figures);
    assert!(position("fig-sir-curve") > figures && position("fig-sir-curve") < scenarios);
    assert!(position("fig-scenarios") > scenarios);
    assert!(position("scenario-churn-partition-heal") > scenarios);
}

#[test]
fn scenario_prefix_selection_writes_artifacts_without_untraced_json() {
    // `--only scenario-` must prefix-match every bundled scenario and
    // write the full artifact trio per experiment; none of them run
    // untraced.
    let dir = scratch("scenario-prefix");
    let dir_str = dir.to_str().unwrap();
    let out = repro(&[
        "--trials",
        "2",
        "--trace",
        dir_str,
        "--json",
        dir_str,
        "--only",
        "scenario-",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("untraced"), "{stderr}");
    assert!(!dir.join("untraced.json").exists());
    for name in [
        "scenario-clearinghouse",
        "scenario-dormant-death",
        "scenario-partition",
        "scenario-crash",
        "scenario-churn",
        "scenario-flash-crowd-lossy",
        "scenario-churn-partition-heal",
    ] {
        for ext in ["jsonl", "summary.json", "rows.json", "agg.json"] {
            assert!(
                dir.join(format!("{name}.{ext}")).exists(),
                "{name}.{ext} must be written"
            );
        }
    }
    let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
    assert!(manifest.contains("\"scenario-crash\""), "{manifest}");
    let rows = std::fs::read_to_string(dir.join("scenario-partition.rows.json")).unwrap();
    assert!(rows.contains(r#""scenario":"partition""#), "{rows}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn megascale_honors_the_max_n_cap_and_still_writes_artifacts() {
    // EPIDEMIC_MEGASCALE_MAX_N=0 keeps the sweep empty, so the CLI
    // contract (selection, artifact trio, manifest) is testable without
    // paying for a real epidemic.
    let dir = scratch("megascale");
    let dir_str = dir.to_str().unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--json", dir_str, "--only", "fig-megascale"])
        .env("EPIDEMIC_MEGASCALE_MAX_N", "0")
        .output()
        .expect("repro binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("untraced"), "{stderr}");
    assert!(!dir.join("untraced.json").exists());
    let rows = std::fs::read_to_string(dir.join("fig-megascale.rows.json"))
        .expect("capped sweep still writes rows");
    assert!(rows.contains(r#""experiment":"fig-megascale""#), "{rows}");
    let agg = std::fs::read_to_string(dir.join("fig-megascale.agg.json"))
        .expect("capped sweep still writes aggregates");
    assert!(agg.contains(r#""aggregates":[]"#), "empty sweep: {agg}");
    let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
    assert!(manifest.contains("\"fig-megascale\""), "{manifest}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn traced_tables_write_rows_and_aggregates() {
    let dir = scratch("tables-only");
    let dir_str = dir.to_str().unwrap();
    let out = repro(&["--trials", "1", "--json", dir_str, "table1"]);
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("untraced"), "{stderr}");
    assert!(!dir.join("untraced.json").exists());
    assert!(dir.join("table1.rows.json").exists());
    let agg = std::fs::read_to_string(dir.join("table1.agg.json")).unwrap();
    assert!(agg.contains(r#""kind":"table""#), "{agg}");
    assert!(
        agg.contains(r#""p90":"#),
        "aggregates carry quantiles: {agg}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
