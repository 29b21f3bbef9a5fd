//! The trial arena is invisible: a [`RumorEpidemic`] run on a
//! [`MixingArena`] that earlier runs have used — other site counts,
//! directions, feedback and removal rules, round semantics, connection
//! limits — equals a run on fresh state, field for field and event for
//! event.

use epidemic_core::{Direction, Feedback, Removal, RumorConfig};
use epidemic_sim::engine::{InvariantObserver, TraceObserver};
use epidemic_sim::mixing::{MixingArena, RumorEpidemic};
use epidemic_trace::TraceConfig;
use proptest::prelude::*;

/// One run: a driver, a site count and a seed.
#[derive(Debug, Clone)]
struct Trial {
    driver: RumorEpidemic,
    n: usize,
    seed: u64,
}

fn trial() -> impl Strategy<Value = Trial> {
    (
        (0u8..3, any::<bool>(), any::<bool>(), 1u32..4),
        (any::<bool>(), 0u32..3, 0u32..3),
        (2usize..90, any::<u64>()),
    )
        .prop_map(
            |((direction, feedback, counter, k), (synchronous, limit, hunt), (n, seed))| {
                let direction =
                    [Direction::Push, Direction::Pull, Direction::PushPull][usize::from(direction)];
                let feedback = if feedback {
                    Feedback::Feedback
                } else {
                    Feedback::Blind
                };
                let removal = if counter {
                    Removal::Counter { k }
                } else {
                    Removal::Coin { k }
                };
                let driver = RumorEpidemic::new(RumorConfig::new(direction, feedback, removal))
                    .synchronous(synchronous)
                    .connection_limit((limit > 0).then_some(limit))
                    .hunt_limit(hunt)
                    .max_cycles(300);
                Trial { driver, n, seed }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn a_used_arena_runs_like_a_fresh_one(
        earlier in prop::collection::vec(trial(), 0..5),
        last in trial(),
    ) {
        let mut arena = MixingArena::new();
        for t in &earlier {
            t.driver.run_in(&mut arena, t.n, t.seed, &mut ());
        }
        let mut trace = TraceObserver::new(TraceConfig::full());
        let mut check = InvariantObserver::new();
        let reused = last
            .driver
            .run_in(&mut arena, last.n, last.seed, &mut (&mut trace, &mut check));
        prop_assert!(check.is_clean(), "{:?}", check.violations());

        let mut fresh_trace = TraceObserver::new(TraceConfig::full());
        let fresh = last.driver.run_observed(last.n, last.seed, &mut fresh_trace);
        prop_assert_eq!(reused, fresh);
        prop_assert_eq!(reused, last.driver.run(last.n, last.seed));
        prop_assert_eq!(trace.finish(), fresh_trace.finish());
    }
}
