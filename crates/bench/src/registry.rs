//! The experiment registry: the one place an experiment is named.
//!
//! [`all`] is the ordered table of everything `repro` can run. `--list`,
//! `--only`, `all`, the usage text, dispatch, the artifact files, the
//! criterion bench and DESIGN.md's per-experiment index all derive from
//! it; adding an experiment is one row here (plus the re-recorded
//! `BENCH_repro.json`).
//!
//! A row's `run` takes a [`Ctx`] — the trial runner, the site count, the
//! trial count already resolved from the row's [`Trials`] rule, and
//! whether artifacts were asked for — and returns one [`Output`], from
//! which [`write_output`] produces stdout and every artifact file.

use std::fmt;
use std::io::{self, Write};
use std::sync::OnceLock;

use epidemic_sim::runner::{Arenas, TrialRunner};
use epidemic_sim::scenario::bundled;
use epidemic_trace::json::{array_of, JsonObject};
use epidemic_trace::{RunAggregate, RunTracer, TraceConfig};

use crate::render::FigTable;
use crate::trace::{agg_json, AggEntry, Seen, Sinks};
use crate::{figures, scenarios, tables};

/// The paper's §1.4 site count: every complete-mixing experiment runs on
/// this many sites.
pub const N: usize = 1000;

/// The `--list` section an experiment is printed under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// The paper's numbered tables.
    Tables,
    /// In-text figures, displayed equations and ablations.
    Figures,
    /// Declarative `.scenario` sweeps.
    Scenarios,
}

impl Group {
    /// The `--list` header (`tables`, `figures`, `scenarios`).
    pub(crate) fn label(self) -> &'static str {
        match self {
            Group::Tables => "tables",
            Group::Figures => "figures",
            Group::Scenarios => "scenarios",
        }
    }

    /// The `kind` field of the group's artifacts: the label's singular.
    pub(crate) fn kind(self) -> &'static str {
        self.label().trim_end_matches('s')
    }
}

/// How an experiment's trial count relates to `--trials`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trials {
    /// `--trials` sets the count, up to `cap`; `default` without the flag.
    Flag {
        /// Trials when `--trials` is absent.
        default: u64,
        /// Largest count the flag can ask for (`u64::MAX`: no limit).
        cap: u64,
    },
    /// The count is part of the experiment; `--trials` does not reach it.
    Fixed(u64),
    /// Nothing is sampled: a closed form or a deterministic exchange.
    Exact,
}

impl Trials {
    /// `--trials` wherever it is given.
    pub(crate) const fn flag(default: u64) -> Self {
        Trials::Flag {
            default,
            cap: u64::MAX,
        }
    }

    /// The count a run gets under `--trials flag`.
    pub(crate) fn resolve(self, flag: Option<u64>) -> u64 {
        match self {
            Trials::Flag { default, cap } => flag.unwrap_or(default).min(cap),
            Trials::Fixed(count) => count,
            Trials::Exact => 1,
        }
    }

    /// Why `--trials` does not apply, for the rules it does not reach.
    pub fn ignores_flag(self) -> Option<String> {
        match self {
            Trials::Flag { .. } => None,
            Trials::Fixed(count) => Some(format!("fixed at {count}")),
            Trials::Exact => Some("exact".to_string()),
        }
    }
}

impl fmt::Display for Trials {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Trials::Flag {
                default,
                cap: u64::MAX,
            } => write!(f, "--trials, default {default}"),
            Trials::Flag { cap, .. } => write!(f, "--trials, at most {cap}"),
            Trials::Fixed(count) => write!(f, "fixed {count}"),
            Trials::Exact => write!(f, "exact"),
        }
    }
}

/// What a row's `run` is given.
#[derive(Debug, Clone, Copy)]
pub struct Ctx<'a> {
    /// The experiment's name: the label on its trace lines and artifacts.
    pub experiment: &'a str,
    /// Where the trials run.
    pub runner: TrialRunner,
    /// Sites of the complete-mixing experiments ([`N`] in `repro`).
    pub n: usize,
    /// Trials per swept configuration, already resolved by the caller
    /// from the row's [`Trials`] rule and `--trials`.
    pub trials: u64,
    /// Whether artifacts were asked for (`--trace`/`--json`): observers
    /// are attached iff this is set.
    pub observe: bool,
}

impl Ctx<'_> {
    /// The observers a sweep that wants `wanted` attaches on this run.
    pub(crate) fn sinks(&self, wanted: Sinks) -> Sinks {
        if self.observe {
            wanted
        } else {
            Sinks::Off
        }
    }

    /// A cycle-granularity tracer labelled with the experiment; a sweep
    /// adds its configuration and trial labels.
    pub(crate) fn tracer(&self) -> RunTracer {
        RunTracer::new(TraceConfig::cycles_only()).label_str("experiment", self.experiment)
    }

    /// The mean over `self.trials` trials of `K` measurements, summed in
    /// trial order: bit-identical at any thread count. Each worker lends
    /// its trials one `make_state()`: an arena from the experiment's pool
    /// (`|| arenas.take()`), so the next row's trials reuse it.
    pub(crate) fn mean<const K: usize, S>(
        &self,
        make_state: impl Fn() -> S + Sync,
        run: impl Fn(&mut S, u64) -> [f64; K] + Sync,
    ) -> [f64; K] {
        self.mean_seen(make_state, |state, trial| {
            (run(state, trial), Seen::default())
        })
        .0
    }

    /// [`Ctx::mean`], also folding what each trial's observers saw, in
    /// trial order.
    pub(crate) fn mean_seen<const K: usize, S>(
        &self,
        make_state: impl Fn() -> S + Sync,
        run: impl Fn(&mut S, u64) -> ([f64; K], Seen) + Sync,
    ) -> ([f64; K], Seen) {
        let (mut sums, seen) = self.runner.fold_with(
            self.trials,
            0,
            make_state,
            run,
            ([0.0f64; K], Seen::default()),
            |(mut sums, mut seen), (values, trial_seen)| {
                for (sum, value) in sums.iter_mut().zip(values) {
                    *sum += value;
                }
                seen.absorb(trial_seen);
                (sums, seen)
            },
        );
        for sum in &mut sums {
            *sum /= self.trials as f64;
        }
        (sums, seen)
    }
}

/// Everything one experiment produced.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Output {
    /// The tables printed to stdout, in order.
    pub tables: Vec<FigTable>,
    /// `<name>.rows.json` contents (filled when [`Ctx::observe`] is set).
    pub rows_json: String,
    /// One streaming aggregate per observed configuration, in sweep order.
    pub aggregates: Vec<AggEntry>,
    /// `<name>.jsonl` contents: per-trial run traces in sweep and trial
    /// order (empty for figures, which aggregate instead of tracing).
    pub jsonl: String,
    /// Invariant violations over all trials — `Some` for the observed
    /// tables, the only sweeps the invariant checker rides on.
    pub violations: Option<u64>,
}

impl Output {
    /// A figure's output: its tables, plus the aggregates of its deep
    /// sweeps when they were observed.
    pub(crate) fn figure(ctx: &Ctx<'_>, tables: Vec<FigTable>, aggregates: Vec<AggEntry>) -> Self {
        let rows_json = if ctx.observe {
            let mut rows = JsonObject::new();
            rows.field_str("experiment", ctx.experiment)
                .field_str("kind", Group::Figures.kind())
                .field_raw("tables", &array_of(tables.iter().map(FigTable::to_json)));
            rows.finish()
        } else {
            String::new()
        };
        Output {
            tables,
            rows_json,
            aggregates,
            ..Output::default()
        }
    }

    /// Folds in what one swept configuration's observers saw; `entry`
    /// labels its aggregate.
    pub(crate) fn absorb(&mut self, seen: Seen, entry: impl FnOnce(RunAggregate) -> AggEntry) {
        self.jsonl.push_str(&seen.jsonl);
        if let Some(violations) = &mut self.violations {
            *violations += seen.violations;
        }
        self.aggregates.extend(seen.agg.map(entry));
    }

    /// The stdout text: every table, rendered.
    pub fn text(&self) -> String {
        self.tables.iter().map(FigTable::render).collect()
    }

    /// `<name>.summary.json` contents: the rows, the invariant tally where
    /// there is one, and the trace line count.
    pub(crate) fn summary_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_raw("table", &self.rows_json);
        if let Some(violations) = self.violations {
            o.field_u64("invariant_violations", violations);
        }
        o.field_u64("trace_lines", self.jsonl.lines().count() as u64);
        o.finish()
    }
}

/// One row of the registry.
#[derive(Debug)]
pub struct Experiment {
    /// The name `repro` selects it by.
    pub name: String,
    /// Its `--list` section.
    pub group: Group,
    /// The section, table or figure of the paper it reproduces.
    pub paper: &'static str,
    /// One line on what it measures.
    pub summary: String,
    /// How `--trials` reaches it.
    pub trials: Trials,
    body: fn(&Ctx<'_>) -> Output,
}

impl Experiment {
    /// The context `repro` runs this row in: the default runner, [`N`]
    /// sites and the row's trial rule applied to `--trials flag`.
    pub fn ctx(&self, flag: Option<u64>, observe: bool) -> Ctx<'_> {
        Ctx {
            experiment: &self.name,
            runner: TrialRunner::new(),
            n: N,
            trials: self.trials.resolve(flag),
            observe,
        }
    }

    /// Runs the experiment.
    pub fn run(&self, ctx: &Ctx<'_>) -> Output {
        (self.body)(ctx)
    }

    /// `<name>.agg.json` contents for `output`: every streaming aggregate
    /// the run produced, in sweep order.
    pub(crate) fn agg_json(&self, output: &Output) -> String {
        agg_json(&self.name, self.group.kind(), &output.aggregates)
    }
}

/// Prefix of the rows derived from [`bundled::SOURCES`].
const SCENARIO_PREFIX: &str = "scenario-";

/// One bundled scenario alone: the row's name carries which.
fn one_scenario(ctx: &Ctx<'_>) -> Output {
    let spec = ctx
        .experiment
        .strip_prefix(SCENARIO_PREFIX)
        .and_then(bundled::by_name)
        .expect("scenario rows are derived from the bundled sources");
    scenarios::scenario_sweep(ctx, &Arenas::default(), &[spec])
}

/// A single-table figure without aggregates.
fn fig(ctx: &Ctx<'_>, table: FigTable) -> Output {
    Output::figure(ctx, vec![table], Vec::new())
}

/// What runs an experiment.
type Body = fn(&Ctx<'_>) -> Output;

/// A row as it is written down: name, paper reference, summary, trial
/// rule, body. Its `--list` section is the table it stands in.
type Row = (&'static str, &'static str, &'static str, Trials, Body);

const MIXING: Trials = Trials::flag(100);
const SPATIAL: Trials = Trials::flag(250);
/// Scenario sweeps carry a full fault timeline per trial, so they run far
/// fewer seeds than the mixing tables.
const FEW: Trials = Trials::Flag {
    default: 10,
    cap: 10,
};
use Trials::{Exact, Fixed};

/// The paper's numbered tables.
const TABLES: &[Row] = &[
    (
        "table1",
        "§1.4 Table 1",
        "push rumor, feedback + counter, k = 1..5",
        MIXING,
        tables::table1,
    ),
    (
        "table2",
        "§1.4 Table 2",
        "push rumor, blind + coin, k = 1..5",
        MIXING,
        tables::table2,
    ),
    (
        "table3",
        "§1.4 Table 3",
        "pull rumor, feedback + counter (footnote semantics), k = 1..3",
        MIXING,
        tables::table3,
    ),
    (
        "table4",
        "§3.1 Table 4",
        "push-pull anti-entropy on the CIN, uniform and a = 1.2..2.0",
        SPATIAL,
        tables::table4,
    ),
    (
        "table5",
        "§3.1 Table 5",
        "Table 4 under connection limit 1, hunt limit 0",
        SPATIAL,
        tables::table5,
    ),
];

/// In-text figures, displayed equations and ablations.
const FIGURES: &[Row] = &[
    (
        "fig-rumor-ode",
        "§1.4 ODE",
        "residue s = e^-(k+1)(1-s) against simulation, k = 1..8",
        MIXING,
        figures::rumor_ode,
    ),
    (
        "fig-residue-traffic",
        "§1.4",
        "(m, s) of four push variants against s = e^-m",
        MIXING,
        |c| fig(c, figures::residue_traffic_table(c)),
    ),
    (
        "fig-ae-convergence",
        "§1.3",
        "cover time, n = 100..10^4: push against log2 n + ln n, pull, push-pull",
        Fixed(50),
        figures::ae_convergence,
    ),
    (
        "fig-line-traffic",
        "§3 T(n)",
        "expected traffic per link on a line under d^-a",
        Exact,
        |c| fig(c, figures::line_traffic_table()),
    ),
    (
        "fig1-pathology",
        "§3.2 Figure 1",
        "push and pull rumor failure between the s-t pair under Qs^-2",
        Fixed(500),
        |c| fig(c, figures::figure1_table(c)),
    ),
    (
        "fig2-pathology",
        "§3.2 Figure 2",
        "the distant site missing a push rumor from the binary tree",
        Fixed(500),
        |c| fig(c, figures::figure2_table(c)),
    ),
    (
        "death-certs",
        "§2-2.3",
        "dormant-certificate equal-space law; resurrection and its cancellation",
        Fixed(1),
        |c| Output::figure(c, figures::death_certificates_tables(), Vec::new()),
    ),
    (
        "fig-dc-scaling",
        "§2.1",
        "P(propagation time > tau1) for n = 64..4096",
        Fixed(200),
        |c| fig(c, figures::dc_scaling_table(c)),
    ),
    (
        "fig-spatial-rumor",
        "§3.2",
        "minimal k for 100% distribution of push-pull rumors on the CIN",
        Fixed(50),
        |c| fig(c, figures::spatial_rumor_table(c)),
    ),
    (
        "fig-sir-curve",
        "§1.4 i(s)",
        "phase curve: ODE against simulation (coin k = 2)",
        MIXING,
        |c| fig(c, figures::sir_curve_table(c)),
    ),
    (
        "fig-checksum-window",
        "§1.3",
        "full-compare rate and traffic against the recent-list window",
        Fixed(1),
        |c| fig(c, figures::checksum_window_table()),
    ),
    (
        "fig-async",
        "§1.3 (model)",
        "Table 4 on per-site timers with 30% jitter",
        Fixed(50),
        |c| fig(c, figures::async_ablation_table(c)),
    ),
    (
        "fig-cin-steady",
        "§3.1",
        "steady-state recent-list anti-entropy on the CIN, 2 updates/cycle",
        Fixed(20),
        |c| fig(c, figures::cin_steady_table(c)),
    ),
    (
        "fig-megascale",
        "beyond",
        "coin k = 4 push rumors at n = 10^4..10^7, uniform and scale-free graphs",
        Fixed(1),
        figures::megascale,
    ),
    (
        "ablation-hierarchy",
        "§4",
        "dynamic hierarchy against flat spatial selection on the CIN",
        Fixed(50),
        |c| fig(c, figures::hierarchy_table(c)),
    ),
    (
        "ablation-weighted-cin",
        "§3",
        "transatlantic link cost 1, 3, 6 under Qs^-2 anti-entropy",
        Fixed(50),
        |c| fig(c, figures::weighted_cin_table(c)),
    ),
    (
        "ablation-churn",
        "§2",
        "Qs^-2 anti-entropy on the CIN with 0..50% of the sites down",
        Fixed(30),
        |c| fig(c, figures::churn_table(c)),
    ),
    (
        "fig-topology-robustness",
        "§4",
        "uniform against Qs^-2 anti-entropy on six 64-site families",
        Fixed(40),
        |c| fig(c, figures::topology_robustness_table(c)),
    ),
    (
        "fig-pull-vs-push-rate",
        "§1.4",
        "push against pull rumors at 0..4 updates/cycle, 200 sites",
        Fixed(20),
        |c| fig(c, figures::pull_vs_push_rate_table(c)),
    ),
    (
        "ablation-counter-reset",
        "§1.4 Table 3",
        "pull counters: reset on a useful contact against monotone",
        MIXING,
        |c| fig(c, figures::counter_reset_table(c)),
    ),
    (
        "ablation-hunting",
        "§1.4",
        "hunt limit 0..inf under connection limit 1",
        MIXING,
        |c| fig(c, figures::hunting_table(c)),
    ),
    (
        "ablation-comparison",
        "§1.3",
        "full, checksum, recent-list and peel-back on one diverged pair",
        Exact,
        |c| fig(c, figures::comparison_table()),
    ),
    (
        "ablation-redistribution",
        "§1.5",
        "none, rumor and re-mail under 30% mail loss",
        Fixed(20),
        |c| fig(c, figures::redistribution_table(c)),
    ),
];

/// The sweep of every bundled scenario; one row per bundled file follows it.
const SCENARIOS: &[Row] = &[(
    "fig-scenarios",
    "§1.5, §2",
    "every bundled .scenario file",
    FEW,
    |c| scenarios::scenario_sweep(c, &Arenas::default(), &bundled::all()),
)];

fn build() -> Vec<Experiment> {
    let written = |group, rows: &'static [Row]| {
        rows.iter()
            .map(move |&(name, paper, summary, trials, body)| Experiment {
                name: name.to_string(),
                group,
                paper,
                summary: summary.to_string(),
                trials,
                body,
            })
    };
    let derived = bundled::SOURCES.iter().map(|(name, _)| Experiment {
        name: format!("{SCENARIO_PREFIX}{name}"),
        group: Group::Scenarios,
        paper: SCENARIOS[0].1,
        summary: format!("`{name}.scenario` alone"),
        trials: FEW,
        body: one_scenario,
    });
    written(Group::Tables, TABLES)
        .chain(written(Group::Figures, FIGURES))
        .chain(written(Group::Scenarios, SCENARIOS))
        .chain(derived)
        .collect()
}

/// Every experiment, in `--list`, `all` and `BENCH_repro.json` order.
pub fn all() -> &'static [Experiment] {
    static ROWS: OnceLock<Vec<Experiment>> = OnceLock::new();
    ROWS.get_or_init(build)
}

/// The experiment called `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    all().iter().find(|experiment| experiment.name == name)
}

/// Every experiment name on one line (the `known: …` of a selection error).
pub fn names() -> String {
    let names: Vec<&str> = all().iter().map(|e| e.name.as_str()).collect();
    names.join(" ")
}

/// The `--list` text: bare names on their own lines under a `[group]`
/// header each.
pub fn list() -> String {
    let mut text = String::new();
    let mut section = None;
    for experiment in all() {
        if section != Some(experiment.group) {
            section = Some(experiment.group);
            text.push_str(&format!("[{}]\n", experiment.group.label()));
        }
        text.push_str(&format!("{}\n", experiment.name));
    }
    text
}

/// The experiments of the usage text, one per line with its trial rule.
pub fn usage() -> String {
    let width = all().iter().map(|e| e.name.len()).max().unwrap_or(0);
    all()
        .iter()
        .map(|e| format!("  {:<width$}  {}\n", e.name, e.trials))
        .collect()
}

/// Writes `contents` (with a guaranteed trailing newline) to
/// `<dir>/<file>`, creating the directory as needed. Exits on I/O errors:
/// a user who asked for artifacts should not silently get none.
pub fn write_artifact(dir: &str, file: &str, contents: &str) {
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

/// The 64-bit FNV-1a hash `repro --digest` prints for one experiment: its
/// tables as [`FigTable::to_json`] gives them (stdout's cells without the
/// wall-clock, allocation and RSS columns), then, when `observed`, its
/// `.rows.json` and `.agg.json` texts.
fn digest(experiment: &Experiment, output: &Output, observed: bool) -> u64 {
    let tables = output.tables.iter().map(FigTable::to_json);
    let artifacts = observed.then(|| [output.rows_json.clone(), experiment.agg_json(output)]);
    tables
        .chain(artifacts.into_iter().flatten())
        .fold(0xcbf2_9ce4_8422_2325, |hash, text| {
            text.bytes().fold(hash, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        })
}

/// Writes everything `output` turns into: its tables on `stdout` (or,
/// with `digest`, one `<name> <hash>` line of the experiment's digest),
/// then —
/// through [`write_artifact`] — the `--trace` files (`.jsonl` unless
/// empty, `.summary.json`, `.agg.json`) under `trace_dir` and the `--json`
/// files (`.rows.json`, `.agg.json`) under `json_dir`.
///
/// # Errors
///
/// Returns the error of a failed write to `stdout` (a closed pipe, say);
/// nothing further is written after it.
pub fn write_output(
    experiment: &Experiment,
    output: &Output,
    stdout: &mut impl Write,
    trace_dir: Option<&str>,
    json_dir: Option<&str>,
    digest: bool,
) -> io::Result<()> {
    let name = &experiment.name;
    let observed = trace_dir.is_some() || json_dir.is_some();
    if digest {
        let hash = self::digest(experiment, output, observed);
        writeln!(stdout, "{name} {hash:016x}")?;
    } else {
        for table in &output.tables {
            stdout.write_all(table.render().as_bytes())?;
        }
    }
    stdout.flush()?;
    if !observed {
        return Ok(());
    }
    let agg = experiment.agg_json(output);
    if let Some(dir) = trace_dir {
        if !output.jsonl.is_empty() {
            write_artifact(dir, &format!("{name}.jsonl"), &output.jsonl);
        }
        write_artifact(dir, &format!("{name}.summary.json"), &output.summary_json());
        write_artifact(dir, &format!("{name}.agg.json"), &agg);
    }
    if let Some(dir) = json_dir {
        write_artifact(dir, &format!("{name}.rows.json"), &output.rows_json);
        write_artifact(dir, &format!("{name}.agg.json"), &agg);
    }
    Ok(())
}

/// The `manifest.json` of an artifact directory: which experiments ran
/// (in order) and on how many worker threads. The thread count documents
/// the run; the artifacts are byte-identical at any value of it.
pub fn manifest_json(ran: &[&Experiment]) -> String {
    let mut o = JsonObject::new();
    // Names come from the registry: nothing to escape.
    o.field_raw(
        "experiments",
        &array_of(ran.iter().map(|e| format!("\"{}\"", e.name))),
    )
    .field_u64("threads", epidemic_sim::runner::default_threads() as u64);
    o.finish()
}

/// The row `name` at reduced scale, for the unit tests of the sweeps.
#[cfg(test)]
pub(crate) fn run_small(name: &str, n: usize, trials: u64, observe: bool) -> Output {
    let experiment = find(name).expect("a registry row");
    experiment.run(&Ctx {
        n,
        trials,
        ..experiment.ctx(None, observe)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const DESIGN_MD: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md");

    /// First and last line of the generated block in DESIGN.md.
    const DESIGN_INDEX_MARKERS: [&str; 2] = ["<!-- registry:begin -->", "<!-- registry:end -->"];

    /// DESIGN.md's per-experiment index, markers included.
    fn design_index() -> String {
        let mut text = format!(
            "{}\n| id | group | paper | trials | summary |\n|-|-|-|-|-|\n",
            DESIGN_INDEX_MARKERS[0]
        );
        for e in all() {
            text.push_str(&format!(
                "| `{}` | {} | {} | {} | {} |\n",
                e.name,
                e.group.label(),
                e.paper,
                e.trials,
                e.summary
            ));
        }
        text.push_str(DESIGN_INDEX_MARKERS[1]);
        text.push('\n');
        text
    }

    #[test]
    fn names_are_unique_and_list_follows_registry_order() {
        let names: Vec<&str> = all().iter().map(|e| e.name.as_str()).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "duplicate name in {names:?}");
        let listed: Vec<String> = list()
            .lines()
            .filter(|line| !line.starts_with('['))
            .map(String::from)
            .collect();
        assert_eq!(listed, names, "groups are contiguous in the registry");
    }

    #[test]
    fn scenario_rows_are_exactly_the_bundled_sources() {
        let derived: Vec<&str> = all()
            .iter()
            .filter_map(|e| e.name.strip_prefix(SCENARIO_PREFIX))
            .collect();
        let bundled: Vec<&str> = bundled::SOURCES.iter().map(|(name, _)| *name).collect();
        assert_eq!(derived, bundled);
        for name in derived {
            assert!(bundled::by_name(name).is_some(), "{name} resolves");
        }
    }

    #[test]
    fn a_capped_trial_rule_follows_the_flag_up_to_its_cap() {
        let capped = Trials::Flag {
            default: 10,
            cap: 10,
        };
        let counts = [None, Some(3), Some(20)].map(|flag| capped.resolve(flag));
        assert_eq!(counts, [10, 3, 10]);
        assert_eq!(Trials::flag(100).resolve(Some(20)), 20);
        assert_eq!(Trials::Fixed(500).resolve(Some(20)), 500);
    }

    /// Observers never touch the RNG, so asking for artifacts changes
    /// nothing an experiment prints; and the trial runner folds results in
    /// trial order and no artifact carries a host measurement, so the
    /// worker count changes no byte of any of them — for every row.
    /// (`fig-megascale` prints wall-clock columns; plain ≡ observed is
    /// asserted on its drivers,
    /// `observed_fast_run_matches_unobserved_and_aggregates`.)
    #[test]
    fn observation_never_perturbs_any_experiment() {
        for experiment in all().iter().filter(|e| e.name != "fig-megascale") {
            let name = &experiment.name;
            // Two trials, so two workers really split them and fold.
            let run = |threads, observe| {
                experiment.run(&Ctx {
                    runner: TrialRunner::new().threads(threads),
                    n: 120,
                    trials: 2,
                    ..experiment.ctx(None, observe)
                })
            };
            let (plain, observed, parallel) = (run(1, false), run(1, true), run(2, true));
            assert_eq!(plain.text(), observed.text(), "{name}");
            assert!(!plain.text().is_empty(), "{name} prints something");
            assert!(
                plain.aggregates.is_empty() && plain.jsonl.is_empty(),
                "{name}"
            );
            assert!(
                plain.rows_json.is_empty() && plain.violations.is_none(),
                "{name}"
            );
            assert!(observed.rows_json.contains(name.as_str()), "{name}");
            match experiment.group {
                Group::Tables => assert_eq!(observed.violations, Some(0), "{name}"),
                _ => assert_eq!(observed.violations, None, "{name}"),
            }
            // Tables and scenarios trace and aggregate every trial; of
            // the figures, only the deep sweeps aggregate.
            let deep = ["fig-rumor-ode", "fig-ae-convergence"].contains(&name.as_str());
            let traced = experiment.group != Group::Figures;
            assert_eq!(!observed.aggregates.is_empty(), traced || deep, "{name}");
            assert_eq!(!observed.jsonl.is_empty(), traced, "{name}");

            let agg = experiment.agg_json(&observed);
            assert_eq!(observed.text(), parallel.text(), "{name}");
            assert_eq!(observed.jsonl, parallel.jsonl, "{name}");
            assert_eq!(observed.rows_json, parallel.rows_json, "{name}");
            assert_eq!(observed.summary_json(), parallel.summary_json(), "{name}");
            assert_eq!(agg, experiment.agg_json(&parallel), "{name}");
            for needle in [
                "seconds",
                "alloc",
                "rss",
                "wall_clock",
                "elapsed",
                "time",
                "duration",
            ] {
                assert!(
                    !agg.contains(needle) && !observed.jsonl.contains(needle),
                    "{name} leaks a host-dependent field ({needle:?})"
                );
            }
            let kind = format!(r#""kind":"{}""#, experiment.group.kind());
            assert!(agg.contains(&kind), "{name}");
            assert_eq!(agg.contains(r#""p50":"#), traced || deep, "{name}");
            if name == "table5" {
                assert!(observed.jsonl.contains(r#""distribution":"a = 2.0""#));
            }
        }
    }

    /// The block between the markers in DESIGN.md.
    fn committed_index(design: &str) -> &str {
        let begin = design.find(DESIGN_INDEX_MARKERS[0]).expect("begin marker");
        let end = design.find(DESIGN_INDEX_MARKERS[1]).expect("end marker");
        &design[begin..end + DESIGN_INDEX_MARKERS[1].len() + 1]
    }

    #[test]
    fn design_index_is_the_generated_one() {
        let design = std::fs::read_to_string(DESIGN_MD).expect("DESIGN.md is committed");
        assert_eq!(
            committed_index(&design),
            design_index(),
            "regenerate: cargo test -p epidemic-bench --lib -- --ignored regenerate_design_index"
        );
    }

    #[test]
    #[ignore = "overwrites the generated block of DESIGN.md"]
    fn regenerate_design_index() {
        let design = std::fs::read_to_string(DESIGN_MD).expect("DESIGN.md is committed");
        let updated = design.replace(committed_index(&design), &design_index());
        std::fs::write(DESIGN_MD, updated).expect("write DESIGN.md");
    }
}
