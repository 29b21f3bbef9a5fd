//! Traces one rumor-mongering epidemic end to end through the
//! observability stack: per-contact JSONL events, per-cycle SIR
//! snapshots, the per-link traffic matrix, runtime invariant checking,
//! and the run's streaming aggregate (totals, delay percentiles, SIR
//! curve).
//!
//! ```text
//! cargo run --example trace_rumor            # seed 42
//! cargo run --example trace_rumor -- 7       # another seed
//! ```
//!
//! The JSONL on stdout carries no wall-clock fields, so two runs with the
//! same seed print identical traces — pipe them through `diff` to compare
//! protocol variants cycle by cycle.

use epidemic_core::{Direction, Feedback, Removal, RumorConfig};
use epidemic_sim::{MixingArena, SpatialSim};
use epidemic_trace::{AggregatingSink, InvariantChecker, RunTracer, TraceConfig};

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    let n = 64;
    let cfg = RumorConfig::new(
        Direction::Push,
        Feedback::Feedback,
        Removal::Counter { k: 2 },
    )
    .with_reset_on_useful(true);

    // Everything on: contact events, cycle snapshots, the link matrix.
    let mut trace = RunTracer::new(TraceConfig::full())
        .label_str("example", "trace_rumor")
        .label_u64("seed", seed);
    let mut check = InvariantChecker::default();
    let mut aggregate = AggregatingSink::new();

    let observer = &mut (&mut trace, (&mut check, &mut aggregate));
    let result = SpatialSim::mixing(n, cfg).run(&mut MixingArena::new(), seed, observer);

    println!("# run trace (JSONL; diffable, no wall-clock fields)");
    print!("{}", trace.finish());

    println!("\n# run aggregate");
    println!("{}", aggregate.finish().to_json());

    println!(
        "\n# summary: n {n}, seed {seed} -> residue {:.3}, traffic {:.2}, t_ave {:.1}, t_last {:.0}, cycles {}",
        result.residue, result.traffic, result.t_ave, result.t_last, result.cycles
    );
    if check.violation_count() == 0 {
        println!("# invariants: clean");
    } else {
        println!("# invariants VIOLATED:");
        print!("{}", check.to_jsonl());
        std::process::exit(1);
    }
}
