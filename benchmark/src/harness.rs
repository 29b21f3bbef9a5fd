//! Driving `repro` from outside: set-up, the timed children, the counting
//! child and the traced child of one workload.
//!
//! The load is a closed loop with one client: the next child starts only
//! after the previous one has exited, and nothing else is started while a
//! child is being timed.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use epidemic_trace::json::JsonObject;

use crate::artifact::{self, Binaries, Paths};
use crate::checks::{self, Checks};
use crate::child::{self, Invocation, Sample};
use crate::machine::Machine;
use crate::readers::{self, Table, Timings};
use crate::replay;
use crate::report;
use crate::workloads::{scrubbed_env, Workload};

/// The cheapest real run of the program: what a set-up's warm-up child is
/// asked to do. It pulls the binary into the page cache and touches the
/// mixing and the CIN code paths; a workload-sized warm-up would cost as
/// much as a timed sample.
const WARM_UP_ARGV: [&str; 4] = ["--trials", "1", "table1", "table4"];

pub struct Harness {
    pub paths: Paths,
    pub binaries: Binaries,
    pub machine: Machine,
    pub smoke: bool,
    ambient: Vec<(String, String)>,
}

/// One timed or traced child with what it printed.
pub struct ChildRun {
    pub sample: Sample,
    /// Stdout with the volatile megascale columns masked.
    pub stdout: String,
}

/// The traced pass: the program's own phase report from one child, its
/// contact totals and machine-readable rows from another, read as they
/// are. Two children, because `--json` switches the aggregating sinks on
/// and those would otherwise be timed into every phase.
pub struct Traced {
    /// The `--timings` child and its report.
    pub profiled: ChildRun,
    pub timings: Timings,
    /// The `--json` child.
    pub run: ChildRun,
    /// Contacts summed over the experiments that keep aggregates.
    pub contacts: Option<u64>,
    pub tables: Vec<(&'static str, Table)>,
}

impl Harness {
    /// Builds both binaries; nothing before this returns is timed.
    pub fn new(smoke: bool) -> Result<Harness, String> {
        let paths = Paths::discover()?;
        let binaries = artifact::build(&paths)?;
        let machine = Machine::probe(&paths.root);
        Ok(Harness {
            paths,
            binaries,
            machine,
            smoke,
            ambient: std::env::vars().collect(),
        })
    }

    fn invocation(
        &self,
        workload: &Workload,
        program: &Path,
        argv: Vec<String>,
        single_threaded: bool,
        dir: &Path,
        tag: &str,
    ) -> Invocation {
        let set = workload.env(self.smoke, self.machine.nproc, single_threaded);
        Invocation {
            program: program.to_path_buf(),
            argv,
            env: scrubbed_env(self.ambient.iter().cloned(), &set),
            cwd: dir.to_path_buf(),
            stdout: dir.join(format!("{tag}.out")),
            stderr: dir.join(format!("{tag}.err")),
            // Ten times the expected run (at least ten seconds, so process
            // start on a loaded machine is never mistaken for a hang).
            timeout: Duration::from_secs_f64((workload.expected_s * 10.0).max(10.0)),
        }
    }

    fn run_child(&self, checks: &mut Checks, inv: &Invocation) -> Result<ChildRun, String> {
        let result = child::run(inv);
        checks.record("child", result.as_ref().map(|_| ()).map_err(String::clone));
        Ok(ChildRun {
            sample: result?,
            stdout: checks::mask_volatile(&readers::read(&inv.stdout)?),
        })
    }

    /// One set-up, timed: the program lists every experiment the workload
    /// names, the replay's inputs are generated from `seed`, and the
    /// warm-up child runs. `cargo build` is not part of it.
    pub fn set_up(
        &self,
        checks: &mut Checks,
        workload: &Workload,
        seed: u64,
        dir: &Path,
    ) -> Result<f64, String> {
        let start = Instant::now();
        let plain = &self.binaries.plain;
        let list = self.invocation(
            workload,
            plain,
            vec!["--list".to_string()],
            true,
            dir,
            "list",
        );
        let listed = self.run_child(checks, &list)?.stdout;
        for experiment in workload.experiments {
            if !listed.lines().any(|line| line == *experiment) {
                return Err(format!(
                    "{} --list does not name experiment {experiment:?}",
                    plain.display()
                ));
            }
        }
        std::hint::black_box(replay::trial_seeds(seed));
        let argv = WARM_UP_ARGV.iter().map(|a| a.to_string()).collect();
        let warm_up = self.invocation(workload, plain, argv, true, dir, "warm-up");
        self.run_child(checks, &warm_up)?;
        Ok(start.elapsed().as_secs_f64())
    }

    /// One timed child of the shipped binary; `single_threaded` forces
    /// one worker thread (the twin of the parallel workload).
    pub fn timed(
        &self,
        checks: &mut Checks,
        workload: &Workload,
        single_threaded: bool,
        dir: &Path,
        tag: &str,
    ) -> Result<ChildRun, String> {
        let inv = self.invocation(
            workload,
            &self.binaries.plain,
            workload.argv(self.smoke),
            single_threaded,
            dir,
            tag,
        );
        self.run_child(checks, &inv)
    }

    /// The workload once on the counting build with one worker thread:
    /// heap allocations summed over its `--timings` rows, and its stdout
    /// (the single-threaded reference every other run must print too).
    pub fn count_allocations(
        &self,
        checks: &mut Checks,
        workload: &Workload,
        dir: &Path,
    ) -> Result<(u64, String), String> {
        let mut argv = vec!["--timings".to_string(), "allocs.timings.json".to_string()];
        argv.extend(workload.argv(self.smoke));
        let inv = self.invocation(workload, &self.binaries.counting, argv, true, dir, "allocs");
        let run = self.run_child(checks, &inv)?;
        let path = dir.join("allocs.timings.json");
        let timings = Timings::parse(&readers::read(&path)?, &path.display().to_string())?;
        Ok((timings.allocations(workload.experiments)?, run.stdout))
    }

    /// The traced pass on the shipped binary: one `--timings` child, one
    /// `--json` child.
    pub fn traced(
        &self,
        checks: &mut Checks,
        workload: &Workload,
        dir: &Path,
    ) -> Result<Traced, String> {
        let child = |checks: &mut Checks, flag: &str, value: &str, tag: &str| {
            let mut argv = vec![flag.to_string(), value.to_string()];
            argv.extend(workload.argv(self.smoke));
            let inv = self.invocation(workload, &self.binaries.plain, argv, false, dir, tag);
            self.run_child(checks, &inv)
        };
        let origin = |path: &PathBuf| path.display().to_string();
        let profiled = child(checks, "--timings", "profiled.timings.json", "profiled")?;
        let path = dir.join("profiled.timings.json");
        let timings = Timings::parse(&readers::read(&path)?, &origin(&path))?;
        let run = child(checks, "--json", "traced", "traced")?;
        let mut contacts = None;
        let mut tables = Vec::new();
        for &experiment in workload.experiments {
            let agg = dir.join(format!("traced/{experiment}.agg.json"));
            if let Some(c) = readers::agg_contacts(&readers::read(&agg)?, &origin(&agg))? {
                *contacts.get_or_insert(0) += c;
            }
            let rows = dir.join(format!("traced/{experiment}.rows.json"));
            let table = readers::table_from_rows_json(&readers::read(&rows)?, &origin(&rows))?;
            tables.push((experiment, table));
        }
        Ok(Traced {
            profiled,
            timings,
            run,
            contacts,
            tables,
        })
    }

    /// Runs the paper-anchored checks, one operation per experiment.
    pub fn check_tables(&self, checks: &mut Checks, tables: &[(&'static str, Table)]) {
        let scale = checks::band_scale(self.smoke);
        for (experiment, table) in tables {
            checks.record(
                &format!("{experiment} against the paper"),
                checks::paper_bands(experiment, table, scale),
            );
        }
    }

    /// The child's argv and the variables set on top of the scrubbed
    /// environment, for the evidence file.
    pub fn describe(&self, workload: &Workload) -> String {
        let mut env = JsonObject::new();
        for (key, value) in workload.env(self.smoke, self.machine.nproc, false) {
            env.field_str(&key, &value);
        }
        let mut o = JsonObject::new();
        o.field_str("program", &self.binaries.plain.display().to_string())
            .field_raw(
                "argv",
                &epidemic_trace::json::array_of(
                    workload.argv(self.smoke).iter().map(|a| report::quoted(a)),
                ),
            )
            .field_raw("env_set_after_scrub", &env.finish());
        o.finish()
    }
}

/// The tables a plain child printed, by experiment: each experiment of
/// these workloads prints exactly one table, in argv order.
pub fn stdout_tables(
    workload: &Workload,
    stdout: &str,
    origin: &str,
) -> Result<Vec<(&'static str, Table)>, String> {
    let tables = readers::tables_from_stdout(stdout, origin);
    if tables.len() != workload.experiments.len() {
        return Err(format!(
            "{origin}: {} tables for {} experiments",
            tables.len(),
            workload.experiments.len()
        ));
    }
    Ok(workload.experiments.iter().copied().zip(tables).collect())
}

/// Checks that two masked stdouts are byte-identical.
pub fn same_output(what: &str, a: &str, b: &str) -> Result<(), String> {
    if a == b {
        return Ok(());
    }
    let line = a
        .lines()
        .zip(b.lines())
        .position(|(x, y)| x != y)
        .unwrap_or_else(|| a.lines().count().min(b.lines().count()));
    Err(format!("{what}: stdout differs from line {}", line + 1))
}
