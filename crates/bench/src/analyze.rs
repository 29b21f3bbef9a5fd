//! Consumers for the run-analytics artifacts: the `.agg.json` percentile
//! report and the `BENCH_repro.json` regression gate.
//!
//! Both consumers parse their inputs with the dependency-free
//! [`epidemic_trace::json`] parser, so they accept exactly what the
//! producers (`repro --json` and `repro --bench`) emit.
//!
//! * [`report`] renders one `.agg.json` file as a human-readable
//!   percentile report: per-entry contact totals, delay quantiles
//!   (p50/p90/p99/max), link-traffic summary, and predicted-vs-observed
//!   lines against the closed forms in `epidemic-analysis`.
//! * [`bench_diff`] compares two `BENCH_repro.json` records experiment by
//!   experiment and flags 3x blowups in seconds and attributable RSS, and
//!   any change at all in an allocation count. The `epidemic-analyze`
//!   binary exits non-zero when any regression is flagged.

use epidemic_analysis::residue_from_traffic;
use epidemic_trace::json::{parse, Value};

/// A candidate's seconds or `rss_delta_kb` regress when `candidate /
/// baseline` exceeds this ratio. Allocation counts are exact at one
/// thread on one toolchain, so any difference in one, either way, is
/// flagged: a change that saves allocations re-records the baseline.
const MAX_RATIO: f64 = 3.0;

/// Seconds gate noise floor: experiments where both sides run faster than
/// this are never flagged on wall-clock (timer jitter dominates).
const MIN_SECONDS: f64 = 0.25;

/// Memory gate noise floor in kB: experiments where both sides'
/// attributable RSS is below this are never flagged on memory — an
/// experiment that fits inside an earlier experiment's peak reports a
/// delta of 0, and ratios of small deltas are allocator jitter.
const MIN_RSS_KB: f64 = 10_000.0;

/// Outcome of a [`bench_diff`] comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDiff {
    /// Human-readable comparison table plus any regression lines.
    pub rendered: String,
    /// One line per flagged regression; empty means the gate passes.
    pub regressions: Vec<String>,
}

impl BenchDiff {
    /// `true` when no metric breached its threshold.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

fn num(v: &Value, key: &str) -> Option<f64> {
    v.get(key).and_then(Value::as_f64)
}

fn require_num(v: &Value, key: &str, ctx: &str) -> Result<f64, String> {
    num(v, key).ok_or_else(|| format!("{ctx}: missing numeric field {key:?}"))
}

/// One experiment row from a `BENCH_repro.json` record.
#[derive(Debug, Clone, PartialEq)]
struct BenchRow {
    name: String,
    seconds: f64,
    allocations: Option<f64>,
    /// Attributable memory: how far this experiment pushed the process
    /// peak.
    rss_delta_kb: f64,
}

fn parse_bench(text: &str, ctx: &str) -> Result<(f64, Vec<BenchRow>), String> {
    let root = parse(text).map_err(|e| format!("{ctx}: {e}"))?;
    let total = require_num(&root, "total_seconds", ctx)?;
    let experiments = root
        .get("experiments")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{ctx}: missing \"experiments\" array"))?;
    let mut rows = Vec::with_capacity(experiments.len());
    for e in experiments {
        let name = e
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{ctx}: experiment without a \"name\""))?
            .to_string();
        let row_ctx = format!("{ctx}: {name}");
        rows.push(BenchRow {
            seconds: require_num(e, "seconds", &row_ctx)?,
            allocations: num(e, "allocations"),
            rss_delta_kb: require_num(e, "rss_delta_kb", &row_ctx)?,
            name,
        });
    }
    Ok((total, rows))
}

fn ratio(base: f64, cand: f64) -> f64 {
    if base <= 0.0 {
        if cand <= 0.0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        cand / base
    }
}

/// Compares two `BENCH_repro.json` records, each given as `(file name,
/// text)`, baseline first; errors name the file. Experiments present on
/// only one side are reported but never flagged — the gate exists to
/// catch perf blowups, not roster drift.
pub fn bench_diff(baseline: (&str, &str), candidate: (&str, &str)) -> Result<BenchDiff, String> {
    let (base_total, base_rows) = parse_bench(baseline.1, baseline.0)?;
    let (cand_total, cand_rows) = parse_bench(candidate.1, candidate.0)?;
    let mut out = String::new();
    let mut regressions = Vec::new();
    out.push_str(&format!(
        "bench-diff: total_seconds {base_total:.3} -> {cand_total:.3} ({:.2}x)\n",
        ratio(base_total, cand_total)
    ));
    out.push_str(&format!(
        "{:<24} {:>10} {:>10} {:>7}  {:>9} {:>9}\n",
        "experiment", "base s", "cand s", "s x", "alloc +-", "rss x"
    ));
    for cand in &cand_rows {
        let Some(base) = base_rows.iter().find(|b| b.name == cand.name) else {
            out.push_str(&format!("{:<24} (new experiment, not gated)\n", cand.name));
            continue;
        };
        let s_ratio = ratio(base.seconds, cand.seconds);
        let allocations = base.allocations.zip(cand.allocations);
        let rss_ratio = ratio(base.rss_delta_kb, cand.rss_delta_kb);
        out.push_str(&format!(
            "{:<24} {:>10.3} {:>10.3} {:>6.2}x {:>9} {:>9.2}\n",
            cand.name,
            base.seconds,
            cand.seconds,
            s_ratio,
            allocations.map_or_else(|| "-".to_string(), |(b, c)| format!("{:+.0}", c - b)),
            rss_ratio,
        ));
        let above_floor = base.seconds >= MIN_SECONDS || cand.seconds >= MIN_SECONDS;
        if above_floor && s_ratio > MAX_RATIO {
            regressions.push(format!(
                "{}: seconds {:.3} -> {:.3} ({s_ratio:.2}x > {MAX_RATIO:.2}x)",
                cand.name, base.seconds, cand.seconds
            ));
        }
        if let Some((b, c)) = allocations.filter(|(b, c)| b != c) {
            regressions.push(format!(
                "{}: allocations {b:.0} -> {c:.0} (counts must match exactly)",
                cand.name
            ));
        }
        let rss_above_floor = base.rss_delta_kb >= MIN_RSS_KB || cand.rss_delta_kb >= MIN_RSS_KB;
        if rss_above_floor && rss_ratio > MAX_RATIO {
            regressions.push(format!(
                "{}: rss_delta_kb {:.0} -> {:.0} ({rss_ratio:.2}x > {MAX_RATIO:.2}x)",
                cand.name, base.rss_delta_kb, cand.rss_delta_kb
            ));
        }
    }
    for base in &base_rows {
        if !cand_rows.iter().any(|c| c.name == base.name) {
            out.push_str(&format!(
                "{:<24} (missing from candidate, not gated)\n",
                base.name
            ));
        }
    }
    if regressions.is_empty() {
        out.push_str("PASS: no metric exceeded its threshold\n");
    } else {
        out.push_str(&format!("FAIL: {} regression(s)\n", regressions.len()));
        for r in &regressions {
            out.push_str(&format!("  {r}\n"));
        }
    }
    Ok(BenchDiff {
        rendered: out,
        regressions,
    })
}

fn push_line(out: &mut String, s: &str) {
    out.push_str(s);
    out.push('\n');
}

fn fmt_pairs(v: &Value) -> String {
    v.as_object().map_or_else(String::new, |fields| {
        fields
            .iter()
            .map(|(k, val)| match val {
                Value::Str(s) => format!("{k}={s}"),
                Value::Num(x) => format!("{k}={}", crate::render::fmt(*x)),
                other => format!("{k}={other:?}"),
            })
            .collect::<Vec<_>>()
            .join(" ")
    })
}

fn report_entry(out: &mut String, entry: &Value, ctx: &str) -> Result<(), String> {
    let label = entry
        .get("label")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{ctx}: aggregate entry without a \"label\""))?;
    push_line(out, &format!("## {label}"));
    if let Some(params) = entry.get("params") {
        let rendered = fmt_pairs(params);
        if !rendered.is_empty() {
            push_line(out, &format!("  params: {rendered}"));
        }
    }
    let agg = entry
        .get("aggregate")
        .ok_or_else(|| format!("{ctx}: {label}: missing \"aggregate\""))?;
    let runs = require_num(agg, "runs", ctx)?;
    let sites = require_num(agg, "sites", ctx)?;
    push_line(
        out,
        &format!(
            "  runs={runs} sites={sites} max_cycle={}",
            require_num(agg, "max_cycle", ctx)?
        ),
    );
    let totals = agg
        .get("totals")
        .ok_or_else(|| format!("{ctx}: {label}: missing \"totals\""))?;
    let sent = require_num(totals, "sent", ctx)?;
    push_line(
        out,
        &format!(
            "  contacts={} sent={sent} useful={} fruitless={}",
            require_num(totals, "contacts", ctx)?,
            require_num(totals, "useful", ctx)?,
            require_num(totals, "fruitless", ctx)?
        ),
    );
    let delay = agg
        .get("delay")
        .ok_or_else(|| format!("{ctx}: {label}: missing \"delay\""))?;
    push_line(
        out,
        &format!(
            "  delay: count={} mean={:.3} p50={:.3} p90={:.3} p99={:.3} max={}",
            require_num(delay, "count", ctx)?,
            require_num(delay, "mean", ctx)?,
            require_num(delay, "p50", ctx)?,
            require_num(delay, "p90", ctx)?,
            require_num(delay, "p99", ctx)?,
            require_num(delay, "max", ctx)?
        ),
    );
    if let Some(links) = agg.get("links") {
        let link_totals = links
            .get("totals")
            .ok_or_else(|| format!("{ctx}: {label}: links without \"totals\""))?;
        let truncated = links
            .get("truncated")
            .and_then(|v| match v {
                Value::Bool(b) => Some(*b),
                _ => None,
            })
            .unwrap_or(false);
        push_line(
            out,
            &format!(
                "  links: tracked_pairs={} contacts={} sent={}{}",
                require_num(links, "tracked_pairs", ctx)?,
                require_num(link_totals, "contacts", ctx)?,
                require_num(link_totals, "sent", ctx)?,
                if truncated { " (truncated)" } else { "" }
            ),
        );
    }
    if let Some(observed) = entry.get("observed") {
        let rendered = fmt_pairs(observed);
        if !rendered.is_empty() {
            push_line(out, &format!("  observed: {rendered}"));
        }
        // Predicted-vs-observed against the paper's closed forms. The
        // e^-m residue law applies whenever the aggregate saw traffic;
        // producer-embedded predictions (ode_residue, predicted_log2_ln)
        // pair with their observed columns when present.
        if runs > 0.0 && sites > 0.0 {
            let m = sent / (runs * sites);
            let observed_residue =
                num(observed, "residue").or_else(|| num(observed, "residue_mean"));
            push_line(
                out,
                &format!(
                    "  residue vs e^-m: m={m:.4} predicted={:.6} observed={}",
                    residue_from_traffic(m),
                    observed_residue.map_or_else(|| "-".to_string(), |r| format!("{r:.6}"))
                ),
            );
        }
        if let (Some(pred), Some(obs)) = (
            num(observed, "predicted_log2_ln"),
            num(observed, "cycles_mean"),
        ) {
            push_line(
                out,
                &format!("  push cover time: predicted log2(n)+ln(n)={pred:.3} observed={obs:.3}"),
            );
        }
        if let (Some(pred), Some(obs)) = (num(observed, "ode_residue"), num(observed, "residue")) {
            push_line(
                out,
                &format!("  rumor ODE residue: predicted={pred:.6} observed={obs:.6}"),
            );
        }
    }
    Ok(())
}

/// Renders one `.agg.json` document (as produced by `repro --trace` /
/// `--json`) as a percentile report with predicted-vs-observed lines.
pub fn report(text: &str) -> Result<String, String> {
    let root = parse(text).map_err(|e| format!("agg.json: {e}"))?;
    let experiment = root
        .get("experiment")
        .and_then(Value::as_str)
        .ok_or_else(|| "agg.json: missing \"experiment\"".to_string())?;
    let kind = root
        .get("kind")
        .and_then(Value::as_str)
        .ok_or_else(|| "agg.json: missing \"kind\"".to_string())?;
    let entries = root
        .get("aggregates")
        .and_then(Value::as_array)
        .ok_or_else(|| "agg.json: missing \"aggregates\" array".to_string())?;
    let mut out = String::new();
    push_line(
        &mut out,
        &format!("# {experiment} ({kind}) — {} aggregate(s)", entries.len()),
    );
    for entry in entries {
        report_entry(&mut out, entry, experiment)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{agg_json, AggEntry};
    use epidemic_trace::{AggregatingSink, Sir};

    /// A record around `rows`, each one experiment's JSON object.
    fn record(total: &dyn std::fmt::Display, rows: impl Iterator<Item = String>) -> String {
        let rows = rows.collect::<Vec<_>>().join(", ");
        format!(r#"{{"total_seconds": {total}, "experiments": [{rows}]}}"#)
    }

    fn bench(total: f64, rows: &[(&str, f64, f64, f64)]) -> String {
        let rows = rows.iter().map(|&(name, s, a, d)| {
            format!(
                r#"{{"name": "{name}", "seconds": {s}, "allocations": {a}, "rss_delta_kb": {d}}}"#
            )
        });
        record(&total, rows)
    }

    fn diff(baseline: &str, candidate: &str) -> Result<BenchDiff, String> {
        bench_diff(("baseline", baseline), ("candidate", candidate))
    }

    #[test]
    fn identical_benches_pass() {
        let text = bench(10.0, &[("table1", 1.0, 1000.0, 5000.0)]);
        let diff = diff(&text, &text).unwrap();
        assert!(diff.passed(), "{}", diff.rendered);
        assert!(diff.rendered.contains("PASS"));
    }

    #[test]
    fn injected_seconds_regression_is_flagged() {
        let base = bench(10.0, &[("table1", 1.0, 1000.0, 5000.0)]);
        let cand = bench(40.0, &[("table1", 4.0, 1000.0, 5000.0)]);
        let diff = diff(&base, &cand).unwrap();
        assert!(!diff.passed());
        assert_eq!(diff.regressions.len(), 1);
        assert!(diff.regressions[0].contains("table1: seconds"), "{diff:?}");
        assert!(diff.rendered.contains("FAIL: 1 regression(s)"));
    }

    #[test]
    fn the_gate_is_three_times_the_baseline() {
        let base = bench(10.0, &[("table1", 1.0, 1000.0, 20_000.0)]);
        let under = bench(10.0, &[("table1", 2.9, 1000.0, 58_000.0)]);
        assert!(diff(&base, &under).unwrap().passed());
        let over = bench(10.0, &[("table1", 3.1, 1000.0, 62_000.0)]);
        assert_eq!(diff(&base, &over).unwrap().regressions.len(), 2);
    }

    #[test]
    fn one_allocation_either_way_is_flagged() {
        let base = bench(10.0, &[("table1", 1.0, 1000.0, 5000.0)]);
        for (count, sign) in [(1001.0, "+1"), (999.0, "-1")] {
            let cand = bench(10.0, &[("table1", 1.0, count, 5000.0)]);
            let diff = diff(&base, &cand).unwrap();
            assert!(!diff.passed(), "{}", diff.rendered);
            assert_eq!(
                diff.regressions,
                [format!(
                    "table1: allocations 1000 -> {count} (counts must match exactly)"
                )]
            );
            assert!(diff.rendered.contains(sign), "{}", diff.rendered);
        }
    }

    #[test]
    fn sub_floor_wall_clock_jitter_is_not_flagged() {
        // 10x blowup, but both sides are under the noise floor.
        let base = bench(0.1, &[("fig-line-traffic", 0.001, 100.0, 500.0)]);
        let cand = bench(0.1, &[("fig-line-traffic", 0.010, 100.0, 500.0)]);
        let diff = diff(&base, &cand).unwrap();
        assert!(diff.passed(), "{}", diff.rendered);
    }

    #[test]
    fn alloc_and_rss_regressions_are_flagged_independently() {
        let base = bench(10.0, &[("table1", 1.0, 1000.0, 5000.0)]);
        let cand = bench(10.0, &[("table1", 1.0, 9000.0, 25000.0)]);
        let diff = diff(&base, &cand).unwrap();
        assert_eq!(diff.regressions.len(), 2, "{:?}", diff.regressions);
        assert!(diff.regressions[0].contains("allocations"));
        assert!(diff.regressions[1].contains("rss_delta_kb"));
    }

    #[test]
    fn the_monotone_peak_is_not_gated() {
        // The candidate's process peak is inherited from an earlier
        // experiment (monotone VmHWM), but its own delta is unchanged.
        let row = |peak: u32| {
            format!(
                r#"{{"name": "table1", "seconds": 1, "allocations": 1000, "rss_delta_kb": 20000, "peak_rss_kb": {peak}}}"#
            )
        };
        let base = record(&10.0, std::iter::once(row(25_000)));
        let inherited = record(&10.0, std::iter::once(row(300_000)));
        let diff = diff(&base, &inherited).unwrap();
        assert!(diff.passed(), "{}", diff.rendered);
    }

    #[test]
    fn a_row_without_an_rss_delta_is_an_error_naming_file_and_experiment() {
        let base = bench(10.0, &[("table1", 1.0, 1000.0, 5000.0)]);
        let legacy = record(
            &10.0,
            std::iter::once(
                r#"{"name": "table2", "seconds": 1, "allocations": 1000, "peak_rss_kb": 25000}"#
                    .to_string(),
            ),
        );
        let err = bench_diff(("BENCH_old.json", &legacy), ("new.json", &base)).unwrap_err();
        assert_eq!(
            err,
            r#"BENCH_old.json: table2: missing numeric field "rss_delta_kb""#
        );
    }

    #[test]
    fn sub_floor_rss_delta_jitter_is_not_flagged() {
        // 0 -> 3MB is an infinite ratio, but both sides are below the
        // memory noise floor: an experiment that fits inside an earlier
        // peak reports a delta of 0.
        let base = bench(10.0, &[("table2", 1.0, 1000.0, 0.0)]);
        let cand = bench(10.0, &[("table2", 1.0, 1000.0, 3000.0)]);
        let diff = diff(&base, &cand).unwrap();
        assert!(diff.passed(), "{}", diff.rendered);
    }

    #[test]
    fn roster_drift_is_reported_but_not_gated() {
        let base = bench(10.0, &[("old-exp", 1.0, 1000.0, 5000.0)]);
        let cand = bench(10.0, &[("new-exp", 1.0, 1000.0, 5000.0)]);
        let diff = diff(&base, &cand).unwrap();
        assert!(diff.passed(), "{}", diff.rendered);
        assert!(diff.rendered.contains("new-exp"));
        assert!(diff.rendered.contains("missing from candidate"));
    }

    #[test]
    fn malformed_bench_json_is_a_readable_error() {
        let err = diff("{nope", "{}").unwrap_err();
        assert!(err.starts_with("baseline:"), "{err}");
        let no_rows = r#"{"total_seconds": 1.0}"#;
        let err = diff(&bench(1.0, &[]), no_rows).unwrap_err();
        assert!(err.contains("candidate"), "{err}");
        // The committed record cut short at any character is an error.
        let record = include_str!("../../../BENCH_repro.json").trim_end();
        assert!(diff(record, record).unwrap().passed());
        for (cut, _) in record.char_indices() {
            let cut_short = diff(record, &record[..cut]);
            assert!(cut_short.is_err(), "cut at byte {cut}");
        }
    }

    /// Generated records: `total_seconds` and each row field take one of
    /// `VALUES` — non-numeric, negative, zero, 1e308 — or are left
    /// out (pick 0); names are empty or shared; a record may list nothing.
    fn generated() -> impl proptest::strategy::Strategy<Value = String> {
        use proptest::{collection::vec, strategy::Strategy};
        const VALUES: [&str; 7] = ["", r#""""#, r#""a""#, "-2.5", "0", "1e308", "0.5"];
        let fields = "name seconds allocations rss_delta_kb peak_rss_kb".split(' ');
        let row = move |picks: &Vec<usize>| {
            let row = fields.clone().zip(picks).filter(|&(_, &v)| v > 0);
            let row: Vec<_> = row
                .map(|(f, &v)| format!(r#""{f}": {}"#, VALUES[v]))
                .collect();
            format!("{{{}}}", row.join(", "))
        };
        (1..7usize, vec(vec(0..7usize, 5), 0..4))
            .prop_map(move |(total, rows)| record(&VALUES[total], rows.iter().map(&row)))
    }

    proptest::proptest! {
        /// `bench_diff` on generated records returns `Ok` or `Err`, never
        /// panics.
        #[test]
        fn bench_diff_never_panics(base in generated(), cand in generated()) {
            let _ = diff(&base, &cand);
        }
    }

    /// Builds a small real aggregate: 2 runs over 4 sites, with one
    /// useful contact each so the delay histogram is non-empty.
    fn sample_entry() -> AggEntry {
        let mut sink = AggregatingSink::new();
        for run in 0..2u32 {
            sink.run_start(Sir {
                susceptible: 3,
                infective: 1,
                removed: 0,
            });
            sink.contact(1, 0, 1, 2, 1);
            sink.cycle(
                1,
                Sir {
                    susceptible: 2,
                    infective: 2,
                    removed: 0,
                },
            );
            sink.contact(2, 1, 2, 1, u64::from(run));
            sink.cycle(
                2,
                Sir {
                    susceptible: 1,
                    infective: 3,
                    removed: 0,
                },
            );
        }
        AggEntry {
            label: "k=1".to_string(),
            params: vec![("k".to_string(), "1".to_string())],
            observed: vec![
                ("residue".to_string(), 0.25),
                ("ode_residue".to_string(), 0.2032),
            ],
            agg: sink.finish(),
        }
    }

    #[test]
    fn report_prints_percentiles_and_predicted_vs_observed() {
        let text = agg_json("fig-rumor-ode", "figure", &[sample_entry()]);
        let rendered = report(&text).unwrap();
        assert!(
            rendered.starts_with("# fig-rumor-ode (figure) — 1 aggregate(s)"),
            "{rendered}"
        );
        assert!(rendered.contains("## k=1"), "{rendered}");
        assert!(rendered.contains("p50="), "{rendered}");
        assert!(rendered.contains("p99="), "{rendered}");
        assert!(rendered.contains("residue vs e^-m: m="), "{rendered}");
        assert!(rendered.contains("observed=0.250000"), "{rendered}");
        assert!(
            rendered.contains("rumor ODE residue: predicted=0.203200 observed=0.250000"),
            "{rendered}"
        );
        assert!(rendered.contains("links: tracked_pairs="), "{rendered}");
    }

    #[test]
    fn report_rejects_malformed_documents() {
        assert!(report("[]").unwrap_err().contains("experiment"));
        assert!(report("{oops").unwrap_err().starts_with("agg.json:"));
        let no_aggs = r#"{"experiment": "x", "kind": "table"}"#;
        assert!(report(no_aggs).unwrap_err().contains("aggregates"));
    }
}
