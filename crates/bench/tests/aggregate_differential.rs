//! Differential check of the streaming [`AggregatingSink`]: the same run
//! observed by a full-granularity tracer and by the sink must agree —
//! a naive post-hoc scan over the JSONL contact/cycle lines, replaying
//! the sink's delay rule (a useful contact marks both endpoints; the
//! first mark per site per run records the delay), must reproduce the
//! sink's delay histogram, contact totals, and link totals exactly.
//!
//! One mixing-table driver and one declarative scenario are exercised,
//! so both contact-loop implementations feed the seam identically.

use epidemic_core::{Direction, Feedback, Removal, RumorConfig};
use epidemic_sim::runner::TrialRunner;
use epidemic_sim::scenario::{bundled, ScenarioArena, ScenarioEngine};
use epidemic_sim::{MixingArena, SpatialSim};
use epidemic_trace::json::{parse, Value};
use epidemic_trace::{AggregatingSink, RunAggregate, RunTracer, TraceConfig, DELAY_BUCKETS};

/// What the naive scan recovers from a full-granularity JSONL trace.
#[derive(Debug, Default, PartialEq)]
struct Replay {
    runs: u64,
    sites: u64,
    max_cycle: u64,
    contacts: u64,
    sent: u64,
    useful: u64,
    fruitless: u64,
    delay_count: u64,
    delay_sum: f64,
    delay_max: u64,
    delay_buckets: Vec<u64>,
    link_contacts: u64,
    link_sent: u64,
    link_useful: u64,
}

fn field(v: &Value, key: &str) -> u64 {
    v.get(key)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("missing u64 field {key:?}"))
}

/// Replays the sink's aggregation rules over raw trace lines.
fn scan(jsonl: &str) -> Replay {
    let mut r = Replay {
        delay_buckets: vec![0; DELAY_BUCKETS.len() + 1],
        ..Replay::default()
    };
    let mut seen: Vec<bool> = Vec::new();
    for line in jsonl.lines() {
        let v = parse(line).expect("trace lines are JSON objects");
        match v.get("event").and_then(Value::as_str).expect("event tag") {
            "run_start" => {
                let n = field(&v, "s") + field(&v, "i") + field(&v, "r");
                r.runs += 1;
                r.sites = r.sites.max(n);
                seen.clear();
                seen.resize(n as usize, false);
            }
            "contact" => {
                let (sent, useful) = (field(&v, "sent"), field(&v, "useful"));
                r.contacts += 1;
                r.sent += sent;
                r.useful += useful;
                if useful == 0 {
                    r.fruitless += 1;
                } else {
                    let cycle = field(&v, "cycle");
                    for site in [field(&v, "from"), field(&v, "to")] {
                        if let Some(slot) = seen.get_mut(site as usize) {
                            if !*slot {
                                *slot = true;
                                r.delay_count += 1;
                                r.delay_sum += cycle as f64;
                                r.delay_max = r.delay_max.max(cycle);
                                let idx = DELAY_BUCKETS
                                    .iter()
                                    .position(|&b| cycle as f64 <= b)
                                    .unwrap_or(DELAY_BUCKETS.len());
                                r.delay_buckets[idx] += 1;
                            }
                        }
                    }
                }
            }
            "cycle" => r.max_cycle = r.max_cycle.max(field(&v, "cycle")),
            // Totals-only summary line; everything in it is derived from
            // the contact lines the scan already replays.
            "run_end" => {}
            "link" => {
                r.link_contacts += field(&v, "contacts");
                r.link_sent += field(&v, "sent");
                r.link_useful += field(&v, "useful");
            }
            other => panic!("unexpected event {other:?}"),
        }
    }
    r
}

/// Reads the same quantities out of the sink's serialized aggregate.
fn from_aggregate(agg: &RunAggregate) -> Replay {
    let v = parse(&agg.to_json()).expect("RunAggregate::to_json is valid JSON");
    let totals = v.get("totals").expect("totals");
    let delay = v.get("delay").expect("delay");
    let links = v.get("links").expect("links");
    let link_totals = links.get("totals").expect("link totals");
    Replay {
        runs: field(&v, "runs"),
        sites: field(&v, "sites"),
        max_cycle: field(&v, "max_cycle"),
        contacts: field(totals, "contacts"),
        sent: field(totals, "sent"),
        useful: field(totals, "useful"),
        fruitless: field(totals, "fruitless"),
        delay_count: field(delay, "count"),
        delay_sum: delay.get("sum").and_then(Value::as_f64).expect("delay sum"),
        delay_max: field(delay, "max"),
        delay_buckets: delay
            .get("buckets")
            .and_then(Value::as_array)
            .expect("delay buckets")
            .iter()
            .map(|b| b.as_u64().expect("bucket count"))
            .collect(),
        link_contacts: field(link_totals, "contacts"),
        link_sent: field(link_totals, "sent"),
        link_useful: field(link_totals, "useful"),
    }
}

/// Runs `trials` seeds through `run`, which must observe each trial with
/// a full tracer and a sink; returns the concatenated trace and merged
/// aggregate.
fn observe_trials(
    trials: u64,
    run: impl Fn(u64) -> (String, RunAggregate) + Sync,
) -> (String, RunAggregate) {
    TrialRunner::new().threads(1).fold_with(
        trials,
        0,
        || (),
        |(), seed| run(seed),
        (String::new(), RunAggregate::default()),
        |(mut jsonl, mut agg), (text, trial_agg)| {
            jsonl.push_str(&text);
            agg.merge(&trial_agg);
            (jsonl, agg)
        },
    )
}

#[test]
fn sink_matches_post_hoc_scan_for_a_mixing_table() {
    let driver = SpatialSim::mixing(
        64,
        RumorConfig::new(
            Direction::Push,
            Feedback::Feedback,
            Removal::Counter { k: 2 },
        ),
    );
    let (jsonl, agg) = observe_trials(3, |trial| {
        let mut trace = RunTracer::new(TraceConfig::full()).label_u64("trial", trial);
        let mut sink = AggregatingSink::new();
        let seed = trial.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 2;
        driver.run(&mut MixingArena::new(), seed, &mut (&mut trace, &mut sink));
        (trace.finish(), sink.finish())
    });
    let replayed = scan(&jsonl);
    assert!(replayed.delay_count > 0, "the epidemic must spread");
    assert_eq!(replayed, from_aggregate(&agg));
}

#[test]
fn sink_matches_post_hoc_scan_for_a_scenario() {
    let spec = bundled::by_name("partition").expect("bundled scenario");
    let engine = ScenarioEngine::new(spec).expect("bundled scenarios validate");
    let (jsonl, agg) = observe_trials(2, |trial| {
        let mut trace = RunTracer::new(TraceConfig::full()).label_u64("trial", trial);
        let mut sink = AggregatingSink::new();
        engine.run(
            &mut ScenarioArena::new(),
            trial.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            &mut (&mut trace, &mut sink),
        );
        (trace.finish(), sink.finish())
    });
    let replayed = scan(&jsonl);
    assert!(replayed.contacts > 0, "the scenario must run contacts");
    assert_eq!(replayed, from_aggregate(&agg));
}
