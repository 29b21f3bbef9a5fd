//! The metrics by name: how each is computed from what was measured, how
//! they are printed, and the JSON that carries them.

use epidemic_trace::json::{array_of, JsonObject};

use crate::checks::Checks;
use crate::child::Sample;
use crate::harness::Traced;
use crate::replay::Replay;
use crate::spans::{Op, PARTNER_DRAWS};
use crate::stats::Summary;
use crate::workloads::{Workload, END_TO_END};

/// Every sample of a workload's end-to-end metrics. `allocs` is exact and
/// taken once per run; the others have one sample per timed child, and
/// one per set-up (before the allocation count and before every child).
#[derive(Debug, Clone, Default)]
pub struct EndToEnd {
    pub wall_s: Vec<f64>,
    pub cpu_s: Vec<f64>,
    pub peak_rss_kb: Vec<f64>,
    pub allocs: Vec<f64>,
    pub setup_s: Vec<f64>,
}

impl EndToEnd {
    pub fn push(&mut self, sample: &Sample) {
        self.wall_s.push(sample.wall_s);
        self.cpu_s.push(sample.cpu_s);
        self.peak_rss_kb.push(sample.peak_rss_kb as f64);
    }

    pub fn samples(&self, metric: &str) -> &[f64] {
        match metric {
            "wall_s" => &self.wall_s,
            "cpu_s" => &self.cpu_s,
            "peak_rss_kb" => &self.peak_rss_kb,
            "allocs" => &self.allocs,
            "setup_s" => &self.setup_s,
            _ => &[],
        }
    }

    /// `(name, unit, bound, summary)` of every end-to-end metric, in
    /// report order; an error names the first metric without a sample.
    pub fn summaries(&self) -> Result<Vec<(&'static str, &'static str, f64, Summary)>, String> {
        END_TO_END
            .iter()
            .map(|&(name, unit, bound)| {
                Summary::of(self.samples(name))
                    .map(|s| (name, unit, bound, s))
                    .ok_or_else(|| format!("no sample of {name}"))
            })
            .collect()
    }
}

/// Everything the per-layer metrics of one workload are computed from.
pub struct LayerInputs<'a> {
    /// The replay with spans on, and the wall seconds of the same replay
    /// with spans on and off.
    pub replay: &'a Replay,
    pub replay_spans_s: f64,
    pub replay_plain_s: f64,
    pub traced: &'a Traced,
    /// A plain child of the same workload, for the tracing overhead.
    pub plain: Sample,
    /// For the parallel workload: the same argv on one worker thread.
    pub single_threaded: Option<Sample>,
}

impl LayerInputs<'_> {
    fn ns(&self, ops: &[Op]) -> Option<f64> {
        self.replay.rec.per_call_ns(ops).map(|(median, _)| median)
    }

    fn p99(&self, ops: &[Op]) -> Option<f64> {
        self.replay.rec.per_call_ns(ops).and_then(|(_, p99)| p99)
    }

    fn phase_s(&self, name: &str) -> Option<f64> {
        self.traced.timings.phase(name).map(|p| p.seconds)
    }

    /// Seconds of the program's contact loops, whichever engine ran them.
    fn loop_s(&self) -> Option<f64> {
        let parts = [
            "engine.contact_loop",
            "engine.active_contact_loop",
            "engine.active_apply",
        ]
        .map(|name| self.phase_s(name));
        parts
            .iter()
            .any(Option::is_some)
            .then(|| parts.iter().flatten().sum())
    }

    /// Phase seconds that do not nest inside another phase: the trial
    /// fan-out and its aggregation where the runner drove the engines,
    /// else the engines' own phases.
    fn top_level_phase_s(&self) -> f64 {
        let of = |names: &[&str]| -> f64 { names.iter().filter_map(|n| self.phase_s(n)).sum() };
        let active = [
            "engine.active_setup",
            "engine.active_contact_loop",
            "engine.active_apply",
        ];
        if self.phase_s("runner.trials").is_some() {
            of(&["runner.trials", "runner.aggregate"]) + of(&active)
        } else {
            of(&["engine.setup", "engine.contact_loop", "engine.end_of_cycle"]) + of(&active)
        }
    }
}

/// A count of zero means the workload never reached that boundary.
fn count(n: u64) -> Option<f64> {
    (n > 0).then_some(n as f64)
}

fn ratio(numerator: u64, denominator: u64) -> Option<f64> {
    (denominator > 0).then(|| numerator as f64 / denominator as f64)
}

type Get = fn(&LayerInputs) -> Option<f64>;

/// The per-layer metrics: `(name, unit, how)`. A metric is `None` where
/// the workload does not exercise the layer or the program's report lacks
/// the phase — printed as `null`, never a failure.
pub const PER_LAYER: &[(&str, &str, Get)] = &[
    // From the layer replay: nanoseconds per call (median over spans).
    ("rand.stdrng_draw_ns", "ns", |x| x.ns(&[Op::StdRngDraw])),
    ("rand.contact_rng_ns", "ns", |x| x.ns(&[Op::ContactRng])),
    ("db.client_update_ns", "ns", |x| x.ns(&[Op::ClientUpdate])),
    ("db.offer_accept_ns", "ns", |x| x.ns(&[Op::OfferAccept])),
    ("db.offer_stale_ns", "ns", |x| x.ns(&[Op::OfferStale])),
    ("db.checksum_ns", "ns", |x| x.ns(&[Op::Checksum])),
    ("db.recent_scan_ns_per_entry", "ns", |x| {
        x.ns(&[Op::RecentScan])
    }),
    ("db.lazy_push_ns", "ns", |x| x.ns(&[Op::LazyPush])),
    ("net.setup_s", "s", |x| {
        let s = x.replay.rec.stats(Op::NetSetup);
        (s.spans > 0).then(|| s.sum_ns as f64 / 1e9)
    }),
    ("net.partner_draw_ns", "ns", |x| x.ns(&PARTNER_DRAWS)),
    ("net.partner_draw.uniform_ns", "ns", |x| {
        x.ns(&[Op::PartnerDrawUniform])
    }),
    ("net.partner_draw.a2_0_ns", "ns", |x| {
        x.ns(&[Op::PartnerDrawA2_0])
    }),
    ("net.route_record_ns", "ns", |x| x.ns(&[Op::RouteRecord])),
    ("net.route_links_per_contact", "count", |x| {
        ratio(x.replay.counts.route_links, x.replay.counts.route_contacts)
    }),
    // The largest graph built.
    ("net.scale_free_build_s", "s", |x| {
        let s = x.replay.rec.stats(Op::ScaleFreeBuild);
        (s.spans > 0).then(|| s.max_ns as f64 / 1e9)
    }),
    ("net.neighbor_draw_ns", "ns", |x| x.ns(&[Op::NeighborDraw])),
    ("core.ae_exchange_ns", "ns", |x| x.ns(&[Op::AeExchange])),
    ("core.ae_exchange_p99_ns", "ns", |x| {
        x.p99(&[Op::AeExchange])
    }),
    ("core.ae_exchanges", "count", |x| {
        count(x.replay.counts.ae_exchanges)
    }),
    ("core.ae_entries_per_exchange", "count", |x| {
        ratio(x.replay.counts.ae_entries, x.replay.counts.ae_exchanges)
    }),
    ("core.ae_useful_ratio", "ratio", |x| {
        ratio(x.replay.counts.ae_useful, x.replay.counts.ae_exchanges)
    }),
    ("core.ae_full_compare_ratio", "ratio", |x| {
        ratio(
            x.replay.counts.ae_full_compares,
            x.replay.counts.ae_exchanges,
        )
    }),
    ("core.ae_exchange_1key_ns", "ns", |x| {
        x.ns(&[Op::AeExchangeOneKey])
    }),
    ("core.rumor_contact_ns", "ns", |x| x.ns(&[Op::RumorContact])),
    ("core.rumor_contacts", "count", |x| {
        count(x.replay.counts.rumor_contacts)
    }),
    ("core.rumor_useful_ratio", "ratio", |x| {
        ratio(x.replay.counts.rumor_useful, x.replay.counts.rumor_contacts)
    }),
    ("core.rumor_end_cycle_ns", "ns", |x| {
        x.ns(&[Op::RumorEndCycle])
    }),
    ("core.rumor_contact_hot_ns", "ns", |x| {
        x.ns(&[Op::RumorContactHot])
    }),
    ("core.hot_len_mean", "count", |x| {
        ratio(x.replay.counts.hot_len_sum, x.replay.counts.hot_contacts)
    }),
    ("core.replica_new_ns", "ns", |x| x.ns(&[Op::ReplicaNew])),
    // Heap allocations per call, by this binary's own counting allocator.
    ("core.replica_new_allocs", "count", |x| {
        x.replay.rec.allocs_per_call(Op::ReplicaNew)
    }),
    ("core.rumor_contact_allocs", "count", |x| {
        x.replay.rec.allocs_per_call(Op::RumorContact)
    }),
    ("core.ae_exchange_allocs", "count", |x| {
        x.replay.rec.allocs_per_call(Op::AeExchange)
    }),
    ("trace.sink_contact_ns", "ns", |x| x.ns(&[Op::SinkContact])),
    // From the traced run: the program's own phase report, as it is.
    ("sim.engine.contact_loop_s", "s", |x| {
        x.phase_s("engine.contact_loop")
    }),
    ("sim.engine.end_of_cycle_s", "s", |x| {
        x.phase_s("engine.end_of_cycle")
    }),
    ("sim.engine.setup_s", "s", |x| x.phase_s("engine.setup")),
    ("sim.engine.active_apply_s", "s", |x| {
        x.phase_s("engine.active_apply")
    }),
    ("sim.engine.active_contact_loop_s", "s", |x| {
        x.phase_s("engine.active_contact_loop")
    }),
    ("sim.engine.active_setup_s", "s", |x| {
        x.phase_s("engine.active_setup")
    }),
    // One record per engine run (a trial), whatever its cycle count.
    ("sim.engine.runs", "count", |x| {
        x.traced
            .timings
            .phase("engine.contact_loop")
            .map(|p| p.calls as f64)
    }),
    ("sim.runner.trials_s", "s", |x| x.phase_s("runner.trials")),
    ("sim.runner.aggregate_s", "s", |x| {
        x.phase_s("runner.aggregate")
    }),
    ("sim.contacts", "count", |x| {
        x.traced.contacts.map(|c| c as f64)
    }),
    ("sim.ns_per_contact", "ns", |x| {
        Some(x.loop_s()? * 1e9 / x.traced.contacts.filter(|&c| c > 0)? as f64)
    }),
    // Derived.
    // The contact loops minus the replay's leaf time scaled to the
    // program's trial counts: the engine's own roster, shuffle, admission
    // and dispatch.
    ("sim.engine.residual_s", "s", |x| {
        Some(x.loop_s()? - x.replay.leaf_scaled_s)
    }),
    ("sim.runner.speedup", "ratio", |x| {
        Some(x.single_threaded?.wall_s / x.plain.wall_s)
    }),
    ("sim.runner.cpu_inflation", "ratio", |x| {
        Some(x.plain.cpu_s / x.single_threaded?.cpu_s)
    }),
    // Process start, dispatch, rendering and set-up outside any phase.
    ("bench.residual_s", "s", |x| {
        Some(x.traced.profiled.sample.wall_s - x.top_level_phase_s())
    }),
    // The `--timings` child and the `--json` child over a plain one.
    ("bench.profile_overhead_ratio", "ratio", |x| {
        Some(x.traced.profiled.sample.wall_s / x.plain.wall_s)
    }),
    ("bench.trace_overhead_ratio", "ratio", |x| {
        Some(x.traced.run.sample.wall_s / x.plain.wall_s)
    }),
    ("bench.replay_overhead_ratio", "ratio", |x| {
        Some(x.replay_spans_s / x.replay_plain_s)
    }),
    ("bench.replay_self_s", "s", |x| Some(x.replay.rec.self_s())),
    ("bench.span_overhead_ns", "ns", |x| {
        Some(x.replay.rec.overhead_ns)
    }),
];

/// One computed per-layer metric.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: Option<f64>,
}

pub fn per_layer(inputs: &LayerInputs) -> Vec<LayerMetric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit, get)| LayerMetric {
            name,
            unit,
            value: get(inputs).filter(|v| v.is_finite()),
        })
        .collect()
}

/// Why a per-layer metric can read `null`.
pub fn null_reason(name: &str) -> &'static str {
    if name.starts_with("sim.runner.speedup") || name.starts_with("sim.runner.cpu") {
        "needs the parallel workload beside its single-threaded twin"
    } else if name.starts_with("sim.") {
        "absent from the program's own report for this workload"
    } else {
        "not exercised by this workload (predicted: no change)"
    }
}

/// The per-operation aggregates of a replay (count, sum, min, max, log₂
/// buckets), as a JSON array.
pub fn span_aggregates(replay: &Replay) -> String {
    array_of(Op::ALL.iter().filter_map(|&op| {
        let s = replay.rec.stats(op);
        (s.spans > 0).then(|| {
            let last = s.buckets.iter().rposition(|&b| b > 0).unwrap_or(0);
            let mut o = JsonObject::new();
            o.field_str("op", op.name())
                .field_u64("spans", s.spans)
                .field_u64("calls", s.calls)
                .field_u64("sum_ns", s.sum_ns)
                .field_u64("min_ns", s.min_ns)
                .field_u64("max_ns", s.max_ns)
                .field_u64_array("log2_buckets", s.buckets[..=last].iter().copied());
            o.finish()
        })
    }))
}

fn summary_json(unit: &str, bound: f64, summary: &Summary, samples: &[f64]) -> String {
    let mut o = JsonObject::new();
    o.field_str("unit", unit)
        .field_f64("bound", bound)
        .field_f64("median", summary.median)
        .field_f64("min", summary.min)
        .field_f64("max", summary.max)
        .field_f64("spread", summary.spread.unwrap_or(f64::NAN))
        .field_u64("n", summary.n as u64)
        .field_f64_array("samples", samples.iter().copied());
    o.finish()
}

/// `text` as a JSON string literal.
pub fn quoted(text: &str) -> String {
    let mut quoted = String::from("\"");
    epidemic_trace::json::escape_into(&mut quoted, text);
    quoted.push('"');
    quoted
}

/// One workload's section of a result or evidence file: the end-to-end
/// samples and the per-layer values with the replay's span aggregates,
/// whichever of the two were measured.
pub fn workload_json(
    workload: &Workload,
    describe: &str,
    end_to_end: Option<&EndToEnd>,
    layers: Option<(&[LayerMetric], &str)>,
    checks: &Checks,
) -> Result<String, String> {
    let mut o = JsonObject::new();
    o.field_str("name", workload.name)
        .field_str("why", workload.why)
        .field_raw("child", describe);
    if let Some(end_to_end) = end_to_end {
        let mut e2e = JsonObject::new();
        for (name, unit, bound, summary) in end_to_end.summaries()? {
            e2e.field_raw(
                name,
                &summary_json(unit, bound, &summary, end_to_end.samples(name)),
            );
        }
        o.field_raw("end_to_end", &e2e.finish());
    }
    if let Some((layers, spans)) = layers {
        let mut per_layer = JsonObject::new();
        for m in layers {
            let mut value = JsonObject::new();
            value.field_str("unit", m.unit);
            match m.value {
                Some(v) => value.field_f64("value", v),
                None => value
                    .field_raw("value", "null")
                    .field_str("reason", null_reason(m.name)),
            };
            per_layer.field_raw(m.name, &value.finish());
        }
        o.field_raw("per_layer", &per_layer.finish())
            .field_raw("span_aggregates", spans);
    }
    let mut c = JsonObject::new();
    c.field_u64("attempted", checks.attempted)
        .field_u64("failed", checks.failed())
        .field_raw(
            "failures",
            &array_of(checks.failures.iter().map(|f| quoted(f))),
        );
    o.field_raw("checks", &c.finish());
    Ok(o.finish())
}

/// Prints one end-to-end row per metric: median with unit, range, spread
/// and sample count.
pub fn print_end_to_end(workload: &Workload, end_to_end: &EndToEnd) -> Result<(), String> {
    for (name, unit, bound, s) in end_to_end.summaries()? {
        let spread = s
            .spread
            .map_or_else(|| "n/a".to_string(), |x| format!("{:.1} %", x * 100.0));
        println!(
            "{:<16} {:<12} {:>14.6} {:<5} min {:.6} max {:.6} spread {spread} n {} bound {:.1} %",
            workload.name,
            name,
            s.median,
            unit,
            s.min,
            s.max,
            s.n,
            bound * 100.0
        );
    }
    Ok(())
}

pub fn print_per_layer(workload: &Workload, layers: &[LayerMetric]) {
    for m in layers {
        match m.value {
            Some(v) => println!(
                "{:<16} {:<34} {:>16.6} {}",
                workload.name, m.name, v, m.unit
            ),
            None => println!(
                "{:<16} {:<34} {:>16} {} ({})",
                workload.name,
                m.name,
                "null",
                m.unit,
                null_reason(m.name)
            ),
        }
    }
}

/// The contract's result line: `correct`, `attempted`, `failed` and one
/// `{value, unit}` per metric. A per-layer metric the workload does not
/// exercise reads 0 there (the line carries numbers only).
pub fn contract_line(checks: &Checks, metrics: &[(&str, &str, f64)]) -> String {
    let mut m = JsonObject::new();
    for &(name, unit, value) in metrics {
        let mut o = JsonObject::new();
        o.field_f64("value", value).field_str("unit", unit);
        m.field_raw(name, &o.finish());
    }
    let mut o = JsonObject::new();
    o.field_bool("correct", checks.failed() == 0)
        .field_u64("attempted", checks.attempted)
        .field_u64("failed", checks.failed())
        .field_raw("metrics", &m.finish());
    o.finish()
}

/// Median of each end-to-end metric: one run's value under the contract.
pub fn contract_end_to_end(
    end_to_end: &EndToEnd,
) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    Ok(end_to_end
        .summaries()?
        .into_iter()
        .map(|(name, unit, _, summary)| (name, unit, summary.median))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use epidemic_trace::json;

    #[test]
    fn per_layer_names_are_unique_and_fit_the_contract() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert!(names.len() <= 128);
        for name in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys_and_full_precision() {
        let mut checks = Checks::default();
        checks.record("a", Ok(()));
        let line = contract_line(&checks, &[("wall_s", "s", 1.2345678901234567)]);
        let doc = json::parse(&line).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let wall = doc.get("metrics").unwrap().get("wall_s").unwrap();
        assert_eq!(
            wall.get("value").unwrap().as_f64(),
            Some(1.2345678901234567)
        );
        assert_eq!(wall.get("unit").unwrap().as_str(), Some("s"));
        assert!(line.contains("\"correct\":true"));
    }

    #[test]
    fn end_to_end_needs_a_sample_of_every_metric() {
        let mut e = EndToEnd::default();
        e.push(&Sample {
            wall_s: 2.0,
            cpu_s: 1.5,
            peak_rss_kb: 1000,
        });
        assert_eq!(contract_end_to_end(&e).unwrap_err(), "no sample of allocs");
        e.allocs.push(42.0);
        e.setup_s.extend([0.3, 0.1, 0.2]);
        let m = contract_end_to_end(&e).unwrap();
        assert_eq!(m[3], ("allocs", "count", 42.0));
        assert_eq!(m[4], ("setup_s", "s", 0.2));
    }
}
