//! The one single-update driver: one update spreading from one origin,
//! by rumor mongering (§1.4, Tables 1–3; §3.2, Figures 1 and 2) or by
//! anti-entropy (§1.3's cover times; §3.1, Tables 4 and 5), over complete
//! mixing or a network topology's spatial partner selection.
//!
//! Every run is [`MixingProtocol`] on the shared [`CycleEngine`]; only
//! the partner distribution differs. No run holds a replica: a site is
//! its receive-log mark (it holds the update), and for a rumor its active
//! bit and `core::rumor` interest record. [`SpatialSim::mixing`] (rumors) and
//! [`SpatialSim::anti_entropy`] are the uniform case on `n` sites (the
//! paper's synchronous rounds, the update at site 0); [`SpatialSim::new`]
//! draws partners from a [`Spatial`] distribution on a topology (or
//! [`SpatialSim::with_selection`] from any [`PartnerSelection`]), with
//! push-pull anti-entropy, sequential contacts and the update at a random
//! site. Connection limits and hunting are the engine's (§1.4
//! *Connection Limit* and *Hunting*; Table 5's pessimistic model): a site
//! can *accept* at most `C` inbound conversations per cycle (its own
//! outgoing conversation is not charged against it, matching the paper's
//! 0.63 success fraction at limit 1), and rejected initiators may hunt.
//!
//! Link traffic is observation: a caller that reads it passes a
//! [`RouteCharge`](crate::engine::RouteCharge) as (part of) the run's
//! observer, which charges every conversation to each link on the
//! shortest route between the participants — *compare traffic* counts
//! conversations per link, *update traffic* the update units sent.
//!
//! Anti-entropy runs until every site holds the update. Rumor mongering
//! "runs to quiescence", so on irregular topologies with nonuniform
//! distributions it can fail outright — the Figure 1 and Figure 2
//! pathologies. The paper's methodology is to increase `k` until the
//! protocol achieves 100% distribution in every one of `N` trials
//! ([`minimum_k`]), then compare traffic and convergence against Table 4.

use epidemic_core::rumor::RumorConfig;
use epidemic_core::{Direction, Removal};
use epidemic_db::SiteId;
use epidemic_net::{PartnerSampler, PartnerSelection, Routes, Spatial, Topology};
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::SeedableRng;

use crate::engine::protocols::{check_rumor, Mechanism, MixingProtocol, MixingState};
use crate::engine::{CycleEngine, Observer, UniformPartners};
use crate::mixing::{EpidemicResult, MixingArena};
use crate::runner::{Arenas, TrialRunner};

/// The ids of a driver's sites, by dense index.
#[derive(Debug, Clone, Copy)]
enum Sites<'a> {
    /// Complete mixing: site `i` is `SiteId(i)`.
    Dense(usize),
    /// A topology's sites, sorted.
    Of(&'a [SiteId]),
}

/// Driver for every single-update experiment: rumor mongering under
/// complete mixing ([`SpatialSim::mixing`], Tables 1–3), anti-entropy
/// under complete mixing ([`SpatialSim::anti_entropy`], §1.3) and on a
/// topology ([`SpatialSim::new`], Tables 4 and 5), and rumor mongering
/// on a topology once given a [`RumorConfig`] through
/// [`SpatialSim::rumor`] (§3.2). Building one allocates nothing beyond
/// its sampler; reuse it across runs.
///
/// # Example
///
/// ```
/// use epidemic_core::{Direction, Feedback, Removal, RumorConfig};
/// use epidemic_net::{topologies, LinkTraffic, Routes, Spatial};
/// use epidemic_sim::engine::RouteCharge;
/// use epidemic_sim::{MixingArena, SpatialSim};
///
/// let mut arena = MixingArena::new();
/// let cfg = RumorConfig::new(Direction::Push, Feedback::Feedback, Removal::Counter { k: 3 });
/// let r = SpatialSim::mixing(500, cfg).run(&mut arena, 7, &mut ());
/// assert!(r.residue < 0.1); // k = 3 reaches almost everyone
///
/// let r = SpatialSim::anti_entropy(256, Direction::Push).run(&mut arena, 1, &mut ());
/// assert!(r.complete);
/// // Expected cover time is log2(256) + ln(256) ≈ 13.5 cycles.
/// assert!(r.cycles > 4 && r.cycles < 40);
///
/// let topo = topologies::ring(24);
/// let routes = Routes::compute(&topo);
/// let sim = SpatialSim::new(&topo, &routes, Spatial::QsPower { a: 2.0 });
/// let mut counters = <[LinkTraffic; 2]>::default();
/// let mut charge = RouteCharge::new(&topo, &routes, 0, &mut counters);
/// assert!(sim.run(&mut arena, 7, &mut charge).complete);
/// assert!(charge.compare.total() > 0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SpatialSim<'a, S = PartnerSampler> {
    sites: Sites<'a>,
    pub(crate) sampler: S,
    mechanism: Mechanism,
    synchronous: bool,
    origin: Option<SiteId>,
    connection_limit: Option<u32>,
    hunt_limit: u32,
}

impl SpatialSim<'static, UniformPartners> {
    /// Rumor mongering under `cfg` on `n` sites with uniform partner
    /// selection (complete mixing), synchronous rounds, no connection
    /// limit and no hunting; every run injects the update at site 0.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn mixing(n: usize, cfg: RumorConfig) -> Self {
        Self::dense(n, Mechanism::Rumor(cfg))
    }

    /// §1.3 anti-entropy resolving differences in `direction` on `n` sites
    /// with uniform partner selection: every site contacts one partner a
    /// cycle, judged against the start of the cycle, and every run injects
    /// the update at site 0 and ends when every site holds it.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn anti_entropy(n: usize, direction: Direction) -> Self {
        Self::dense(n, Mechanism::AntiEntropy(direction))
    }

    /// `mechanism` on `n` sites under complete mixing, in synchronous
    /// rounds with no connection limit and no hunting.
    fn dense(n: usize, mechanism: Mechanism) -> Self {
        SpatialSim {
            sites: Sites::Dense(n),
            sampler: UniformPartners::new(n),
            mechanism,
            synchronous: true,
            origin: None,
            connection_limit: None,
            hunt_limit: 0,
        }
    }
}

impl<'a> SpatialSim<'a, PartnerSampler> {
    /// Anti-entropy on `topology` under the given spatial distribution,
    /// sampling along `routes` (which must be
    /// [`Routes::compute`]`(topology)`; a sweep computes them once).
    pub fn new(topology: &'a Topology, routes: &Routes, spatial: Spatial) -> Self {
        Self::with_selection(topology, PartnerSampler::new(topology, routes, spatial))
    }
}

impl<'a, S: PartnerSelection> SpatialSim<'a, S> {
    /// Push-pull anti-entropy on `topology` with an arbitrary
    /// [`PartnerSelection`] strategy — e.g. the §4
    /// [`HierarchicalSampler`](epidemic_net::HierarchicalSampler), or a
    /// `&PartnerSampler` a sweep lends to several drivers — with
    /// sequential contacts and the update at a random site.
    pub fn with_selection(topology: &'a Topology, sampler: S) -> Self {
        SpatialSim {
            sites: Sites::Of(topology.sites()),
            sampler,
            mechanism: Mechanism::AntiEntropy(Direction::PushPull),
            synchronous: false,
            origin: None,
            connection_limit: None,
            hunt_limit: 0,
        }
    }

    /// Spreads the update by rumor mongering under `cfg` instead of by
    /// anti-entropy: push initiators are the infective sites, pull and
    /// push-pull initiators everyone, and the run ends at quiescence.
    pub fn rumor(mut self, cfg: RumorConfig) -> Self {
        self.mechanism = Mechanism::Rumor(cfg);
        self
    }

    /// Chooses round semantics. When `true` (complete mixing's default,
    /// matching the paper's cycle model), a contact is judged against the
    /// state at the *start* of the cycle: a rumor sender's feedback
    /// against the recipient's, so two infectives pushing to the same
    /// susceptible site in one cycle both receive useful feedback, and an
    /// anti-entropy delivery against its sender's, so an update travels
    /// one hop a cycle. When `false` (a topology's default), contacts
    /// within a cycle are fully sequential.
    pub fn synchronous(mut self, synchronous: bool) -> Self {
        self.synchronous = synchronous;
        self
    }

    /// Injects every run's update at `origin` instead of at site 0 under
    /// complete mixing, or at a site drawn uniformly at random on a
    /// topology (that draw is a run's first).
    pub fn origin(mut self, origin: SiteId) -> Self {
        self.origin = Some(origin);
        self
    }

    /// Limits how many connections a site can accept per cycle (§1.4
    /// *Connection Limit*; Table 5 uses `Some(1)`). `None` means
    /// unlimited.
    pub fn connection_limit(mut self, limit: Option<u32>) -> Self {
        self.connection_limit = limit;
        self
    }

    /// Number of alternate partners a rejected initiator may try (§1.4
    /// *Hunting*).
    pub fn hunt_limit(mut self, hunt: u32) -> Self {
        self.hunt_limit = hunt;
        self
    }

    /// Runs one epidemic — a single update injected at one site and
    /// spread until every site holds it (anti-entropy) or no site is
    /// infective (rumor mongering) — on the heap state `arena` kept from
    /// earlier runs (of any driver and any site count), reporting every
    /// contact and cycle boundary to `observer`: any composition of
    /// [`Observer<MixingProtocol>`] implementations, e.g. a
    /// [`RouteCharge`](crate::engine::RouteCharge) for link traffic, a
    /// [`SirObserver`](crate::engine::SirObserver), or a
    /// [`RunTracer`](epidemic_trace::RunTracer) paired with an
    /// [`InvariantChecker`](epidemic_trace::InvariantChecker), and
    /// `&mut ()` for none. The result, the arena's
    /// [`received`](MixingArena::received) log and every observed event
    /// equal a fresh arena's, and once the arena has grown to this run's
    /// size nothing is allocated. Trial loops hold one arena per worker.
    pub fn run<O: Observer<MixingProtocol>>(
        &self,
        arena: &mut MixingArena,
        seed: u64,
        observer: &mut O,
    ) -> EpidemicResult {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut protocol = self.start(&mut arena.state, self.origin, &mut rng);
        let report = CycleEngine::new()
            .connection_limit(self.connection_limit)
            .hunt_limit(self.hunt_limit)
            .run(
                &mut protocol,
                &self.sampler,
                &mut rng,
                observer,
                &mut arena.buffers,
            );
        let result = EpidemicResult::new(report, &protocol);
        arena.state = protocol.state;
        result
    }

    /// The protocol every scheduler of this driver's runs (the cycle
    /// engine, the event-driven timers) drives, on the heap state taken
    /// from `state`, with the update at `origin`: by default site 0 under
    /// complete mixing, or a topology's site drawn as the run's first draw.
    /// It panics on a rumor configuration that [`check_rumor`] refuses.
    pub(crate) fn start(
        &self,
        state: &mut MixingState,
        origin: Option<SiteId>,
        rng: &mut StdRng,
    ) -> MixingProtocol {
        if let Mechanism::Rumor(cfg) = self.mechanism {
            check_rumor(&cfg).unwrap_or_else(|refusal| panic!("{refusal}"));
        }
        let (n, origin) = match self.sites {
            Sites::Dense(n) => (n, origin.map_or(0, SiteId::as_usize)),
            Sites::Of(sites) => {
                let origin = origin.unwrap_or_else(|| *sites.choose(rng).expect("sites"));
                (
                    sites.len(),
                    sites.binary_search(&origin).expect("site exists"),
                )
            }
        };
        let state = std::mem::take(state);
        MixingProtocol::new(self.mechanism, self.synchronous, n, origin, state)
    }
}

/// The paper's §3.2 methodology: the smallest `k ≤ max_k` for which the
/// rumor protocol `base` (its `k` replaced) achieves 100% distribution in
/// each of `trials` runs (random origins) on `topology`, partners drawn
/// from `sampler`. Returns `None` if no such `k` exists within the bound.
///
/// Trials run in parallel waves of the runner's worker count, on trial
/// arenas from `arenas`. A wave runs all of its trials even after one of
/// them fails, and only then abandons its `k`; so only the verdict per `k`
/// is identical to a sequential scan's (seeds are fixed per trial index),
/// not the number of runs it took.
pub fn minimum_k<S: PartnerSelection + Sync>(
    runner: TrialRunner,
    arenas: &Arenas<MixingArena>,
    topology: &Topology,
    sampler: &S,
    base: RumorConfig,
    trials: u32,
    max_k: u32,
) -> Option<u32> {
    let trials = u64::from(trials);
    let wave = u64::try_from(runner.effective_threads(trials)).expect("usize fits u64");
    (1..=max_k).find(|&k| {
        let removal = match base.removal {
            Removal::Counter { .. } => Removal::Counter { k },
            Removal::Coin { .. } => Removal::Coin { k },
        };
        let sim =
            SpatialSim::with_selection(topology, sampler).rumor(RumorConfig { removal, ..base });
        let mut all_complete = true;
        let mut done = 0u64;
        while all_complete && done < trials {
            let batch = wave.min(trials - done);
            // Seeds `k << 32 | t` with `t < 2^32` make `or` and `add`
            // coincide, so the runner's additive derivation reproduces the
            // historical per-trial seeds exactly.
            all_complete = runner.fold_with(
                batch,
                u64::from(k) << 32 | done,
                || arenas.take(),
                |arena, seed| sim.run(arena, seed, &mut ()).complete,
                true,
                |all, complete| all && complete,
            );
            done += batch;
        }
        all_complete
    })
}

/// Estimates the probability that `sim`'s epidemic fails to reach all
/// sites, over `trials` runs; 0 when `trials` is 0. Trials run on `runner`
/// with trial arenas from `arenas`; the estimate is identical to the
/// sequential loop's.
pub fn failure_probability<S: PartnerSelection + Sync>(
    runner: TrialRunner,
    arenas: &Arenas<MixingArena>,
    sim: &SpatialSim<'_, S>,
    trials: u64,
) -> f64 {
    if trials == 0 {
        return 0.0;
    }
    let failures = runner.fold_with(
        trials,
        0,
        || arenas.take(),
        |arena, t| {
            !sim.run(arena, t.wrapping_mul(0x9E37_79B9), &mut ())
                .complete
        },
        0u64,
        |acc, failed| acc + u64::from(failed),
    );
    failures as f64 / trials as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RouteCharge;
    use epidemic_core::{Direction, Feedback};
    use epidemic_net::{topologies, LinkTraffic};

    fn cfg(direction: Direction, k: u32) -> RumorConfig {
        RumorConfig::new(direction, Feedback::Feedback, Removal::Counter { k })
    }

    /// One run of `sim` on `topo`, its links charged to `counters`.
    fn charged(
        sim: &SpatialSim<'_>,
        topo: &Topology,
        arena: &mut MixingArena,
        seed: u64,
        counters: &mut [LinkTraffic; 2],
    ) -> EpidemicResult {
        let routes = Routes::compute(topo);
        sim.run(
            arena,
            seed,
            &mut RouteCharge::new(topo, &routes, 0, counters),
        )
    }

    #[test]
    fn anti_entropy_converges_on_a_ring() {
        let topo = topologies::ring(20);
        let routes = Routes::compute(&topo);
        let sim = SpatialSim::new(&topo, &routes, Spatial::Uniform).origin(topo.sites()[0]);
        let mut counters = Default::default();
        let r = charged(&sim, &topo, &mut MixingArena::new(), 1, &mut counters);
        assert!(r.complete && r.residue == 0.0);
        assert!(r.t_last > 0.0);
        assert!(r.t_ave <= r.t_last);
        assert_eq!(
            f64::from(r.cycles),
            r.t_last,
            "run stops exactly at convergence"
        );
        assert!(counters[1].total() > 0);
    }

    #[test]
    fn spatial_distribution_cuts_far_link_traffic() {
        // On a line, the end-to-end links carry far less traffic under
        // Qs^-2 than under uniform selection.
        let topo = topologies::line(30);
        let routes = Routes::compute(&topo);
        let at = |spatial| SpatialSim::new(&topo, &routes, spatial).origin(topo.sites()[0]);
        let (uniform, local) = (at(Spatial::Uniform), at(Spatial::QsPower { a: 2.0 }));
        let mid_link = topo
            .link_between(topo.sites()[14], topo.sites()[15])
            .unwrap();
        let mut arena = MixingArena::new();
        let mut mid = |sim: &SpatialSim<'_>, seed| {
            let mut counters = Default::default();
            let r = charged(sim, &topo, &mut arena, seed, &mut counters);
            counters[0].at(mid_link) as f64 / f64::from(r.cycles)
        };
        let (mut uniform_mid, mut local_mid) = (0.0, 0.0);
        for seed in 0..10 {
            uniform_mid += mid(&uniform, seed);
            local_mid += mid(&local, seed);
        }
        assert!(
            local_mid < uniform_mid / 2.0,
            "local {local_mid} vs uniform {uniform_mid}"
        );
    }

    #[test]
    fn connection_limit_slows_but_still_converges() {
        let topo = topologies::grid(&[5, 5]);
        let routes = Routes::compute(&topo);
        let unlimited = SpatialSim::new(&topo, &routes, Spatial::Uniform).origin(topo.sites()[0]);
        let limited = unlimited.clone().connection_limit(Some(1));
        let mut arena = MixingArena::new();
        let mut t_unlimited = 0.0;
        let mut t_limited = 0.0;
        for seed in 0..10 {
            t_unlimited += unlimited.run(&mut arena, seed, &mut ()).t_last;
            t_limited += limited.run(&mut arena, seed, &mut ()).t_last;
        }
        assert!(t_limited > t_unlimited, "{t_limited} vs {t_unlimited}");
    }

    #[test]
    fn minimum_k_finds_the_smallest_working_k() {
        let topo = topologies::line(24);
        let sampler = PartnerSampler::new(&topo, &Routes::compute(&topo), Spatial::Uniform);
        let base = cfg(Direction::PushPull, 1);
        let arenas = Arenas::default();
        let search = |max_k| {
            minimum_k(
                TrialRunner::new(),
                &arenas,
                &topo,
                &sampler,
                base,
                10,
                max_k,
            )
        };
        let k = search(16).expect("some k works");
        assert!(k >= 1);
        if k > 1 {
            // Every smaller k must fail at least one of the same trials.
            assert_eq!(search(k - 1), None);
        }
    }

    #[test]
    fn push_needs_larger_k_under_local_distributions_on_figure1() {
        // §3.2: push rumor mongering is much more sensitive than push-pull
        // to the combination of a local distribution and an irregular
        // topology. On the Figure 1 pathology, the s–t pair mostly talk to
        // each other under Qs^-2 and k must grow to guarantee escape.
        let topo = topologies::figure1(30);
        let routes = Routes::compute(&topo);
        let s = topo.node_by_label("s").unwrap();
        // A run is a *catastrophic* failure when the rumor dies inside the
        // s–t pair and most of the network stays susceptible — the paper's
        // Figure 1 scenario. It essentially never happens under uniform
        // selection; under Qs^-2 it has significant probability.
        let mut arena = MixingArena::new();
        let mut catastrophic = |spatial| {
            let sim = SpatialSim::new(&topo, &routes, spatial)
                .rumor(cfg(Direction::Push, 2))
                .origin(s);
            (0..300)
                .filter(|&t| sim.run(&mut arena, t, &mut ()).residue > 0.5)
                .count()
        };
        let uniform = catastrophic(Spatial::Uniform);
        let local = catastrophic(Spatial::QsPower { a: 2.0 });
        assert!(
            local > uniform + 3,
            "local catastrophic failures {local}/300 should dwarf uniform {uniform}/300"
        );
    }

    /// `failure_probability` of push with counter `k` from the Figure 1
    /// pathology's `s` under Qs^-2.
    fn figure1_failures(k: u32, trials: u64) -> f64 {
        let topo = topologies::figure1(30);
        let s = topo.node_by_label("s").unwrap();
        let sim = SpatialSim::new(&topo, &Routes::compute(&topo), Spatial::QsPower { a: 2.0 })
            .rumor(cfg(Direction::Push, k))
            .origin(s);
        failure_probability(TrialRunner::new(), &Arenas::default(), &sim, trials)
    }

    #[test]
    fn figure1_push_fails_with_small_k_and_local_distribution() {
        // §3.2 Figure 1: with m >> k, push rumors between the s-t pair can
        // die before escaping to the u_i sites.
        let p = figure1_failures(1, 200);
        assert!(p > 0.05, "failure probability {p}");
    }

    #[test]
    fn figure1_failures_shrink_with_larger_k() {
        let (p1, p6) = (figure1_failures(1, 100), figure1_failures(6, 100));
        assert!(p6 < p1, "k=6 {p6} should fail less than k=1 {p1}");
    }

    #[test]
    #[should_panic(expected = "`minimize` needs counter removal")]
    fn minimization_under_coins_is_refused_before_the_first_cycle() {
        let coin = Removal::Coin { k: 2 };
        let cfg = RumorConfig::new(Direction::PushPull, Feedback::Feedback, coin);
        SpatialSim::mixing(16, cfg.with_minimization()).run(&mut MixingArena::new(), 1, &mut ());
    }

    #[test]
    fn no_trials_estimate_no_failures() {
        assert_eq!(figure1_failures(1, 0), 0.0);
    }
}
