//! The [`TrialRunner`] contract: aggregated multi-trial results are
//! bit-identical no matter how many worker threads execute the fan-out.
//! One mixing-table cell (Table 1's push/feedback/counter protocol) and
//! one spatial Table 4 cell (anti-entropy on a grid under Qs^-2) are
//! exercised at one thread and at the machine's full parallelism.

use epidemic_core::{Direction, Feedback, Removal, RumorConfig};
use epidemic_net::{topologies, LinkTraffic, Routes, Spatial};
use epidemic_sim::engine::RouteCharge;
use epidemic_sim::runner::TrialRunner;
use epidemic_sim::{EpidemicResult, MixingArena, SpatialSim};

fn full_parallelism() -> usize {
    // At least 4 workers so the fan-out is exercised even on small CI
    // machines (the runner allows oversubscription).
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
        .max(4)
}

/// `run` over `trials` seeds from `seed_base` on `threads` workers, one
/// `A` arena per worker, collected in trial order.
fn trials<A, T: Send>(
    threads: usize,
    trials: u64,
    seed_base: u64,
    arena: impl Fn() -> A + Sync,
    run: impl Fn(&mut A, u64) -> T + Sync,
) -> Vec<T> {
    TrialRunner::new().threads(threads).fold_with(
        trials,
        seed_base,
        arena,
        run,
        Vec::new(),
        |mut results, r| {
            results.push(r);
            results
        },
    )
}

#[test]
fn mixing_table_cell_is_thread_count_invariant() {
    // Table 1 cell: (feedback, counter k = 2, push) at a reduced n.
    let cfg = RumorConfig::new(
        Direction::Push,
        Feedback::Feedback,
        Removal::Counter { k: 2 },
    );
    let epidemic = SpatialSim::mixing(200, cfg);
    let run = |arena: &mut MixingArena, seed| epidemic.run(arena, seed, &mut ());
    let sequential = trials(1, 16, 42, MixingArena::new, run);
    let parallel = trials(full_parallelism(), 16, 42, MixingArena::new, run);
    assert_eq!(sequential, parallel, "results must not depend on threads");
    // And both must equal a plain sequential loop with the same seeds, each
    // on fresh state.
    let reference: Vec<_> = (0..16)
        .map(|t| epidemic.run(&mut MixingArena::new(), 42 + t, &mut ()))
        .collect();
    assert_eq!(sequential, reference);
}

#[test]
fn spatial_table4_cell_is_thread_count_invariant() {
    // Table 4 cell: push-pull anti-entropy on a grid under Qs^-2.
    let topo = topologies::grid(&[8, 8]);
    let routes = Routes::compute(&topo);
    let sim = SpatialSim::new(&topo, &routes, Spatial::QsPower { a: 2.0 }).origin(topo.sites()[0]);
    type Cell = (EpidemicResult, [LinkTraffic; 2]);
    type State = (MixingArena, [LinkTraffic; 2]);
    let run = |(arena, counters): &mut State, seed| -> Cell {
        let r = sim.run(
            arena,
            seed,
            &mut RouteCharge::new(&topo, &routes, 0, counters),
        );
        (r, counters.clone())
    };
    let one = trials(1, 8, 7, State::default, run);
    let many = trials(full_parallelism(), 8, 7, State::default, run);
    assert_eq!(one, many);
    let reference: Vec<Cell> = (0..8).map(|t| run(&mut State::default(), 7 + t)).collect();
    assert_eq!(one, reference);
}
