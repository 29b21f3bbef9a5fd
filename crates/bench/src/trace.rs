//! Observation for the sweeps: the machinery behind `repro --trace` and
//! `repro --json`.
//!
//! A sweep hands every trial to its driver's generic observer entry
//! point. On the plain path the observer is `&mut ()`, which compiles
//! away per contact; when artifacts were asked for ([`Ctx::observe`]) it
//! is the composition the sweep names with `Sinks`. Observers never
//! touch the RNG, so a sweep's rows are the same either way, and no
//! observed field is wall-clock derived: the [`TrialRunner`] hands
//! per-trial results back in trial order, so every artifact byte is
//! identical at any `EPIDEMIC_THREADS`.
//!
//! [`Ctx::observe`]: crate::registry::Ctx::observe
//! [`TrialRunner`]: epidemic_sim::runner::TrialRunner

use epidemic_trace::json::{array_of, JsonObject};
use epidemic_trace::RunAggregate;

use crate::tables::{MixRow, SpatialRow, MIX_COLUMNS, SPATIAL_COLUMNS};

/// Which observers a sweep composes onto each trial once artifacts were
/// asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Sinks {
    /// The no-op observer `&mut ()`: what every sweep gets on the plain path.
    Off,
    /// The streaming aggregate alone (the figure sweeps).
    Aggregate,
    /// Cycle trace + aggregate (scenarios) — and, where the sweep rides
    /// one, the invariant checker between them (the tables).
    Traced,
}

/// What the observers of one trial — or, folded in trial order, of one
/// swept configuration — saw. All empty under [`Sinks::Off`].
#[derive(Debug, Clone, Default)]
pub(crate) struct Seen {
    /// Run traces, concatenated in trial order.
    pub jsonl: String,
    /// Invariant violations recorded (0 on a healthy sweep).
    pub violations: u64,
    /// The streaming aggregate, merged in trial order.
    pub agg: Option<RunAggregate>,
}

impl Seen {
    /// Folds a later trial's observations onto this one.
    pub(crate) fn absorb(&mut self, later: Seen) {
        self.jsonl.push_str(&later.jsonl);
        self.violations += later.violations;
        if let Some(agg) = later.agg {
            self.agg.get_or_insert_with(RunAggregate::new).merge(&agg);
        }
    }
}

/// Runs `$run` — a call of a driver's generic observer entry point, with
/// `$obs` standing for the observer — under the observers `$sinks` names,
/// and evaluates to `(result, Seen)`. `$tracer` (a labelled
/// [`RunTracer`](epidemic_trace::RunTracer)) is evaluated only when a
/// trace is kept. Naming a `$check` variable also rides an
/// [`InvariantChecker`](epidemic_trace::InvariantChecker) on every traced
/// trial; its rules need per-site digests, so only sweeps of a protocol
/// that has them (the tables') can ask. A macro because the observer type
/// must be static for the compile-away contract and a closure cannot be
/// generic over it.
macro_rules! observed {
    ($sinks:expr, $tracer:expr $(, $check:ident)?, |$obs:ident| $run:expr) => {{
        use ::epidemic_trace::AggregatingSink;
        let mut seen = $crate::trace::Seen::default();
        let result = match $sinks {
            $crate::trace::Sinks::Off => {
                let $obs = &mut ();
                $run
            }
            $crate::trace::Sinks::Aggregate => {
                let mut sink = AggregatingSink::new();
                let result = {
                    let $obs = &mut sink;
                    $run
                };
                seen.agg = Some(sink.finish());
                result
            }
            $crate::trace::Sinks::Traced => {
                let mut trace = $tracer;
                $(let mut $check = ::epidemic_trace::InvariantChecker::default();)?
                let mut sink = AggregatingSink::new();
                let result = {
                    let $obs = &mut (&mut trace, ($(&mut $check,)? &mut sink));
                    $run
                };
                seen.jsonl = trace.finish();
                $(seen.violations = $check.violation_count();)?
                seen.agg = Some(sink.finish());
                result
            }
        };
        (result, seen)
    }};
}
pub(crate) use observed;

/// One labelled streaming aggregate inside a `.agg.json` artifact: which
/// sub-configuration of the experiment it covers (`params`), the scalar
/// observations the rendered table reports for that configuration
/// (`observed` — what the analytics report lines up against the
/// closed-form predictions), and the full [`RunAggregate`].
#[derive(Debug, Clone, PartialEq)]
pub struct AggEntry {
    /// Human-readable entry label (e.g. `k=2`, `uniform`, `n=10000 flat`).
    pub label: String,
    /// Sweep parameters as `(name, value)` strings.
    pub params: Vec<(String, String)>,
    /// Scalar observations for this configuration (table-row values).
    pub observed: Vec<(String, f64)>,
    /// The streaming aggregate folded over every trial, in trial order.
    pub agg: RunAggregate,
}

impl AggEntry {
    /// An entry from borrowed names (sweeps label their entries with
    /// literals).
    pub(crate) fn new(
        label: String,
        params: &[(&str, String)],
        observed: &[(&str, f64)],
        agg: RunAggregate,
    ) -> Self {
        AggEntry {
            label,
            params: params
                .iter()
                .map(|(name, value)| (name.to_string(), value.clone()))
                .collect(),
            observed: observed
                .iter()
                .map(|&(name, value)| (name.to_string(), value))
                .collect(),
            agg,
        }
    }

    /// Serializes the entry as one JSON object.
    pub(crate) fn to_json(&self) -> String {
        let mut params = JsonObject::new();
        for (name, value) in &self.params {
            params.field_str(name, value);
        }
        let mut observed = JsonObject::new();
        for (name, value) in &self.observed {
            observed.field_f64(name, *value);
        }
        let mut o = JsonObject::new();
        o.field_str("label", &self.label)
            .field_raw("params", &params.finish())
            .field_raw("observed", &observed.finish())
            .field_raw("aggregate", &self.agg.to_json());
        o.finish()
    }
}

/// The `<name>.agg.json` document for one experiment: every streaming
/// aggregate the run produced, in sweep order. Deterministic and free of
/// wall-clock fields, so the bytes are identical at any
/// `EPIDEMIC_THREADS` (see DESIGN.md §Run analytics).
pub(crate) fn agg_json(experiment: &str, kind: &str, entries: &[AggEntry]) -> String {
    let mut o = JsonObject::new();
    o.field_str("experiment", experiment)
        .field_str("kind", kind)
        .field_raw(
            "aggregates",
            &array_of(entries.iter().map(AggEntry::to_json)),
        );
    o.finish()
}

/// `names` zipped with `values`: the `observed` list of an [`AggEntry`]
/// whose sweep names its measurements once, as its row columns.
pub(crate) fn named<'a>(names: &[&'a str], values: &[f64]) -> Vec<(&'a str, f64)> {
    names.iter().copied().zip(values.iter().copied()).collect()
}

/// Finishes `row` — an object holding its key field — with the row's
/// means under their column names.
fn row_json(mut row: JsonObject, columns: &[&str], means: &[f64]) -> String {
    for (name, mean) in columns.iter().zip(means) {
        row.field_f64(name, *mean);
    }
    row.finish()
}

/// Machine-readable rows for a mixing table (`repro --json`).
pub(crate) fn mixing_rows_json(experiment: &str, n: usize, trials: u64, rows: &[MixRow]) -> String {
    let rows = rows.iter().map(|(k, means)| {
        let mut row = JsonObject::new();
        row.field_u64("k", u64::from(*k));
        row_json(row, &MIX_COLUMNS, means)
    });
    let mut o = JsonObject::new();
    o.field_str("experiment", experiment)
        .field_u64("n", n as u64)
        .field_u64("trials", trials)
        .field_raw("rows", &array_of(rows));
    o.finish()
}

/// Machine-readable rows for a spatial table (`repro --json`).
pub(crate) fn spatial_rows_json(
    experiment: &str,
    trials: u64,
    connection_limit: Option<u32>,
    rows: &[SpatialRow],
) -> String {
    let rows = rows.iter().map(|(label, means)| {
        let mut row = JsonObject::new();
        row.field_str("distribution", label);
        row_json(row, &SPATIAL_COLUMNS, means)
    });
    let mut o = JsonObject::new();
    o.field_str("experiment", experiment)
        .field_u64("trials", trials);
    match connection_limit {
        Some(limit) => o.field_u64("connection_limit", u64::from(limit)),
        None => o.field_raw("connection_limit", "null"),
    };
    o.field_raw("rows", &array_of(rows));
    o.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_json_is_well_formed() {
        let json = mixing_rows_json("table1", 1000, 100, &[(2, [0.05, 3.25, 11.5, 17.0])]);
        assert_eq!(
            json,
            r#"{"experiment":"table1","n":1000,"trials":100,"rows":[{"k":2,"residue":0.05,"traffic":3.25,"t_ave":11.5,"t_last":17}]}"#
        );
    }

    #[test]
    fn spatial_rows_json_encodes_the_connection_limit() {
        let row = ("uniform".to_string(), [8.0, 5.0, 6.0, 75.0, 6.0, 74.0]);
        let unlimited = spatial_rows_json("table4", 10, None, std::slice::from_ref(&row));
        assert!(unlimited.contains(r#""connection_limit":null"#));
        let limited = spatial_rows_json("table5", 10, Some(1), &[row]);
        assert!(limited.contains(r#""connection_limit":1"#));
        assert!(limited.contains(r#""cmp_bushey":75"#));
    }
}
