//! The invariant checker must pass cleanly on every shipped driver —
//! rumor mongering in all three directions, complete-mixing anti-entropy
//! in all three, and the spatial driver's two mechanisms — must catch a
//! lossy event stream, and
//! the trace observer composed alongside it must agree with the driver's
//! own accounting.

use epidemic_core::{Direction, Feedback, Removal, RumorConfig};
use epidemic_net::{topologies, Routes, Spatial};
use epidemic_sim::engine::{ContactStats, Observer, TraceView};
use epidemic_sim::mixing::MixingArena;
use epidemic_sim::spatial::SpatialSim;
use epidemic_trace::{InvariantChecker, RunTracer, TraceConfig, TraceTotals};

/// Asserts `check` saw no violation, naming `case` and listing them if it
/// did.
fn assert_clean(check: &InvariantChecker, case: &str) {
    assert_eq!(check.violation_count(), 0, "{case}: {}", check.to_jsonl());
}

fn rumor_cfg(direction: Direction) -> RumorConfig {
    RumorConfig::new(direction, Feedback::Feedback, Removal::Counter { k: 3 })
}

#[test]
fn rumor_mongering_is_invariant_clean_in_every_direction() {
    for direction in [Direction::Push, Direction::Pull, Direction::PushPull] {
        for seed in 0..5 {
            let mut check = InvariantChecker::default();
            let result = SpatialSim::mixing(300, rumor_cfg(direction)).run(
                &mut MixingArena::new(),
                seed,
                &mut check,
            );
            assert_clean(&check, &format!("{direction:?} seed {seed}"));
            assert!(result.cycles > 0);
        }
    }
}

#[test]
fn blind_coin_rumors_are_invariant_clean() {
    // The degenerate variant (blind, coin, k = 1) mostly dies early — the
    // invariants must hold on failed epidemics too.
    let cfg = RumorConfig::new(Direction::Push, Feedback::Blind, Removal::Coin { k: 1 });
    for seed in 0..10 {
        let mut check = InvariantChecker::default();
        SpatialSim::mixing(200, cfg).run(&mut MixingArena::new(), seed, &mut check);
        assert_clean(&check, &format!("seed {seed}"));
    }
}

#[test]
fn complete_mixing_anti_entropy_is_invariant_clean() {
    for direction in [Direction::Push, Direction::Pull, Direction::PushPull] {
        let mut check = InvariantChecker::default();
        let run =
            SpatialSim::anti_entropy(256, direction).run(&mut MixingArena::new(), 11, &mut check);
        assert!(run.complete);
        assert_clean(&check, &format!("{direction:?}"));
    }
}

#[test]
fn spatial_anti_entropy_is_invariant_clean() {
    let topo = topologies::grid(&[6, 6]);
    let routes = Routes::compute(&topo);
    let sim = SpatialSim::new(&topo, &routes, Spatial::QsPower { a: 1.5 }).origin(topo.sites()[0]);
    let mut arena = MixingArena::new();
    for seed in 0..3 {
        let mut check = InvariantChecker::default();
        let r = sim.run(&mut arena, seed, &mut check);
        assert!(r.t_last > 0.0);
        assert_clean(&check, &format!("seed {seed}"));
    }
}

#[test]
fn spatial_rumor_mongering_is_invariant_clean() {
    let topo = topologies::ring(24);
    let sim = SpatialSim::new(&topo, &Routes::compute(&topo), Spatial::Uniform)
        .rumor(rumor_cfg(Direction::PushPull))
        .origin(topo.sites()[0]);
    let mut arena = MixingArena::new();
    for seed in 0..3 {
        let mut check = InvariantChecker::default();
        let r = sim.run(&mut arena, seed, &mut check);
        assert_clean(&check, &format!("seed {seed}"));
        assert!(r.cycles > 0);
    }
}

/// Forwards every event to the checker but every other contact: what a
/// sink that loses records looks like.
struct Lossy(InvariantChecker, bool);

impl<P: TraceView> Observer<P> for Lossy {
    fn on_run_start(&mut self, protocol: &P) {
        self.0.on_run_start(protocol);
    }
    fn on_contact(&mut self, cycle: u32, i: usize, j: usize, stats: &ContactStats) {
        self.1 = !self.1;
        if self.1 {
            Observer::<P>::on_contact(&mut self.0, cycle, i, j, stats);
        }
    }
    fn on_cycle_end(&mut self, cycle: u32, protocol: &P) {
        self.0.on_cycle_end(cycle, protocol);
    }
    fn on_run_end(&mut self, totals: &TraceTotals) {
        Observer::<P>::on_run_end(&mut self.0, totals);
    }
}

#[test]
fn lost_contacts_break_the_totals_rule_at_run_end() {
    let mut lossy = Lossy(InvariantChecker::default(), false);
    SpatialSim::mixing(150, rumor_cfg(Direction::Push)).run(&mut MixingArena::new(), 5, &mut lossy);
    let rules: Vec<_> = lossy.0.violations().iter().map(|v| v.rule).collect();
    assert!(rules.contains(&"totals_consistency"), "{rules:?}");
}

#[test]
fn trace_and_invariants_compose_and_agree_with_the_driver() {
    let mut trace = RunTracer::new(TraceConfig::full());
    let mut check = InvariantChecker::default();
    let result = SpatialSim::mixing(150, rumor_cfg(Direction::PushPull)).run(
        &mut MixingArena::new(),
        5,
        &mut (&mut trace, &mut check),
    );
    assert_clean(&check, "composed with a tracer");

    // The tracer's aggregate totals must reproduce the driver's traffic
    // figure exactly.
    let totals = trace.totals();
    assert!((totals.sent as f64 / 150.0 - result.traffic).abs() < 1e-12);

    let jsonl = trace.finish();
    let run_end = jsonl.lines().last().expect("trace has a run_end line");
    assert!(run_end.contains(r#""event":"run_end""#));
    assert!(run_end.contains(&format!(r#""cycles":{}"#, result.cycles)));
    // Residue at quiescence: final susceptible count / n.
    let expected_s = (result.residue * 150.0).round() as u64;
    assert!(
        run_end.contains(&format!(r#""s":{expected_s},"i":0"#)),
        "{run_end}"
    );
}
