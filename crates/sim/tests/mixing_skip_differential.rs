//! `MixingProtocol`'s rumor contacts against the replica contacts they
//! replace.
//!
//! `AlwaysProbe` below keeps one replica per site, as every rumor run once
//! did. Its synchronous push and pull offer the update on every contact —
//! every push to its partner, every pull from a source hot at cycle start —
//! and read who holds the update and who was hot at cycle start off the
//! replicas themselves. Every other arm (asynchronous push and pull, and
//! push-pull with or without minimization) is `core::rumor`'s multi-key
//! replica contact, `rumor::contact_with`. Both protocols go through the
//! same engine, policy and seed, under complete mixing and on a topology's
//! spatial partners, so the `EpidemicResult`s and every line of the
//! `RunTracer` event log must be equal — a skipped push that forgets its
//! sender's feedback shows as a rumor that lives longer and sends more, a
//! skipped pull that forgets the source's pending flag as a source that
//! loses interest later, a misapplied interest rule as a different
//! residue.

use epidemic_core::rumor::{self, RumorConfig, RumorScratch};
use epidemic_core::{Direction, Feedback, Removal, Replica};
use epidemic_db::SiteId;
use epidemic_net::{topologies, PartnerSampler, PartnerSelection, Routes, Spatial};
use epidemic_sim::engine::{
    ContactStats, CycleEngine, EngineBuffers, EpidemicProtocol, ReceiveLog, Roster, SirView,
    UniformPartners,
};
use epidemic_sim::{EpidemicResult, MixingArena, SpatialSim};
use epidemic_trace::{RunTracer, Sir, TraceConfig};
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::SeedableRng;

const KEY: u32 = 0;
const SITES: usize = 120;
const LIMITS: [(Option<u32>, u32); 3] = [(None, 0), (Some(1), 0), (Some(1), 2)];

struct AlwaysProbe {
    cfg: RumorConfig,
    synchronous: bool,
    sites: Vec<Replica<u32, u32>>,
    received: ReceiveLog,
    /// Start-of-cycle "holds the update", read off each database.
    state0: Vec<bool>,
    /// Start-of-cycle "is infective", read off each hot list.
    hot0: Vec<bool>,
    scratch: RumorScratch<u32>,
}

impl AlwaysProbe {
    /// A synchronous push from `i` to `j`, judged against `j`'s
    /// start-of-cycle state.
    fn sync_push(&mut self, cycle: u32, i: usize, j: usize, rng: &mut StdRng) -> ContactStats {
        let [a, b] = self
            .sites
            .get_disjoint_mut([i, j])
            .expect("two distinct sites");
        let Some(entry) = a.db().entry(&KEY) else {
            a.hot_mut().remove(&KEY);
            return ContactStats::default();
        };
        let applied = b.receive_rumor_ref(&KEY, entry).was_useful();
        rumor::record_feedback(&self.cfg, a, &KEY, !self.state0[j], rng);
        if applied {
            self.received.mark(j, cycle);
        }
        ContactStats {
            sent: 1,
            useful: u64::from(applied),
        }
    }

    /// A synchronous pull by `i` from `j`, served from `j`'s start-of-cycle
    /// state.
    fn sync_pull(&mut self, cycle: u32, i: usize, j: usize, rng: &mut StdRng) -> ContactStats {
        let [requester, source] = self
            .sites
            .get_disjoint_mut([i, j])
            .expect("two distinct sites");
        if !self.hot0[j] {
            return ContactStats::default();
        }
        let Some(entry) = source.db().entry(&KEY) else {
            return ContactStats::default();
        };
        let applied = requester.receive_rumor_ref(&KEY, entry).was_useful();
        let needed = match self.cfg.feedback {
            Feedback::Feedback => !self.state0[i],
            Feedback::Blind => false,
        };
        match self.cfg.removal {
            Removal::Counter { .. } => source.hot_mut().record_pending(&KEY, needed),
            Removal::Coin { .. } => {
                rumor::record_feedback(&self.cfg, source, &KEY, needed, rng);
            }
        }
        if applied {
            self.received.mark(i, cycle);
        }
        ContactStats {
            sent: 1,
            useful: u64::from(applied),
        }
    }

    /// Any other contact: the multi-key replica contact, after which both
    /// endpoints are probed for the update.
    fn replica_contact(
        &mut self,
        cycle: u32,
        i: usize,
        j: usize,
        rng: &mut StdRng,
    ) -> ContactStats {
        let [a, b] = self
            .sites
            .get_disjoint_mut([i, j])
            .expect("two distinct sites");
        let stats = rumor::contact_with(&self.cfg, a, b, rng, &mut self.scratch);
        for idx in [i, j] {
            if self.sites[idx].db().entry(&KEY).is_some() {
                self.received.mark(idx, cycle);
            }
        }
        stats.into()
    }
}

impl EpidemicProtocol for AlwaysProbe {
    fn site_count(&self) -> usize {
        self.sites.len()
    }

    fn roster(&self) -> Roster {
        match self.cfg.direction {
            Direction::Push => Roster::Active,
            Direction::Pull | Direction::PushPull => Roster::Everyone,
        }
    }

    fn is_active(&self, i: usize) -> bool {
        !self.sites[i].hot().is_empty()
    }

    fn finished(&self, _cycle: u32, active: &[usize]) -> bool {
        active.is_empty()
    }

    fn begin_cycle(&mut self, _cycle: u32, _rng: &mut StdRng) {
        for (i, site) in self.sites.iter().enumerate() {
            self.state0[i] = site.db().entry(&KEY).is_some();
            self.hot0[i] = site.is_infective(&KEY);
        }
    }

    fn contact(&mut self, cycle: u32, i: usize, j: usize, rng: &mut StdRng) -> ContactStats {
        match (self.cfg.direction, self.synchronous) {
            (Direction::Push, true) => self.sync_push(cycle, i, j, rng),
            (Direction::Pull, true) => self.sync_pull(cycle, i, j, rng),
            _ => self.replica_contact(cycle, i, j, rng),
        }
    }

    fn end_cycle(&mut self, _cycle: u32, _rng: &mut StdRng) {
        if self.cfg.direction == Direction::Pull {
            for site in &mut self.sites {
                rumor::end_cycle(&self.cfg, site);
            }
        }
    }
}

impl SirView for AlwaysProbe {
    fn sir_counts(&self) -> Sir {
        let have = self.received.received_count();
        let infective = (0..self.sites.len()).filter(|&i| self.is_active(i)).count();
        Sir {
            susceptible: self.sites.len() - have,
            infective,
            removed: have - infective,
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone, Copy)]
struct Case {
    cfg: RumorConfig,
    synchronous: bool,
    limits: (Option<u32>, u32),
    seed: u64,
}

/// `SpatialSim::run` with `AlwaysProbe` in the protocol's place on the
/// sites `ids`: the same set-up draws, engine settings and result
/// assembly. `topology` says whether the origin is drawn (a topology's
/// first draw) or site 0 (complete mixing). Also returns how many offers
/// went to a site that already held the update.
fn always_probe_run(
    case: Case,
    ids: &[SiteId],
    topology: bool,
    policy: &impl PartnerSelection,
    observer: &mut RunTracer,
) -> (EpidemicResult, u64) {
    let mut rng = StdRng::seed_from_u64(case.seed);
    let origin = if topology {
        let origin = *ids.choose(&mut rng).expect("sites");
        ids.binary_search(&origin).expect("site exists")
    } else {
        0
    };
    let n = ids.len();
    let mut sites: Vec<Replica<u32, u32>> = ids.iter().map(|&id| Replica::new(id)).collect();
    sites[origin].client_update(KEY, 1);
    let mut received = ReceiveLog::new(n);
    received.mark(origin, 0);
    let mut protocol = AlwaysProbe {
        cfg: case.cfg,
        synchronous: case.synchronous,
        sites,
        received,
        state0: vec![false; n],
        hot0: vec![false; n],
        scratch: RumorScratch::new(),
    };
    let report = CycleEngine::new()
        .connection_limit(case.limits.0)
        .hunt_limit(case.limits.1)
        .run(
            &mut protocol,
            policy,
            &mut rng,
            observer,
            &mut EngineBuffers::default(),
        );
    let received = &protocol.received;
    let result = EpidemicResult {
        n,
        residue: received.residue(),
        traffic: report.totals.sent as f64 / n as f64,
        t_ave: received.t_ave_received(),
        t_last: f64::from(received.t_last().unwrap_or(0)),
        cycles: report.cycles,
        complete: received.complete(),
    };
    (result, report.totals.sent - report.totals.useful)
}

/// Every rumor configuration in `direction` with counters or coins of
/// each `k` in `ks`, both feedback rules, the counter-reset rule both
/// ways and, for push-pull with counters, with and without minimization
/// (§1.4 defines it for counters: under coins a push-pull run whose
/// every site is hot never quiesces).
fn configs(direction: Direction, ks: &[u32]) -> Vec<RumorConfig> {
    let mut out = Vec::new();
    for feedback in [Feedback::Feedback, Feedback::Blind] {
        for &k in ks {
            for removal in [Removal::Counter { k }, Removal::Coin { k }] {
                let cfg = RumorConfig::new(direction, feedback, removal);
                for cfg in [cfg, cfg.with_reset_on_useful(!cfg.reset_on_useful)] {
                    out.push(cfg);
                    if direction == Direction::PushPull
                        && matches!(removal, Removal::Counter { .. })
                    {
                        out.push(cfg.with_minimization());
                    }
                }
            }
        }
    }
    out
}

/// Runs `driver(cfg)` and `AlwaysProbe` on the sites `ids` (partners from
/// `policy`) for every configuration of [`configs`] with counters and
/// coins of each `k` in `ks`, in synchronous and sequential rounds, at
/// every connection and hunt limit of [`LIMITS`] and on two seeds, and
/// asserts equal results and event logs; how many offers reached a site
/// that already held the update.
fn assert_equal_runs<'a, S: PartnerSelection>(
    ids: &[SiteId],
    topology: bool,
    policy: &impl PartnerSelection,
    ks: &[u32],
    driver: impl Fn(RumorConfig) -> SpatialSim<'a, S>,
) -> u64 {
    let mut arena = MixingArena::new();
    let mut redundant = 0;
    for direction in [Direction::Push, Direction::Pull, Direction::PushPull] {
        for cfg in configs(direction, ks) {
            for synchronous in [true, false] {
                for limits in LIMITS {
                    for seed in 0..2 {
                        let case = Case {
                            cfg,
                            synchronous,
                            limits,
                            seed,
                        };
                        let mut log = RunTracer::new(TraceConfig::full());
                        let got = driver(cfg)
                            .synchronous(synchronous)
                            .connection_limit(limits.0)
                            .hunt_limit(limits.1)
                            .run(&mut arena, seed, &mut log);
                        let mut reference_log = RunTracer::new(TraceConfig::full());
                        let (want, wasted) =
                            always_probe_run(case, ids, topology, policy, &mut reference_log);
                        redundant += wasted;

                        // Every configuration `check_rumor` accepts ends
                        // before `CycleEngine`'s default bound.
                        assert!(got.cycles < 100_000, "{case:?} reached the cycle bound");
                        assert_eq!(got, want, "{case:?}");
                        let (log, reference_log) = (log.finish(), reference_log.finish());
                        assert_eq!(
                            log.lines().count(),
                            reference_log.lines().count(),
                            "{case:?}"
                        );
                        for (line, (got, want)) in
                            log.lines().zip(reference_log.lines()).enumerate()
                        {
                            assert_eq!(got, want, "{case:?}, event log line {}", line + 1);
                        }
                    }
                }
            }
        }
    }
    redundant
}

#[test]
fn every_rumor_arm_equals_the_replica_contact_under_complete_mixing() {
    let ids: Vec<SiteId> = (0..SITES)
        .map(|i| SiteId::new(u32::try_from(i).expect("site count fits u32")))
        .collect();
    let policy = UniformPartners::new(SITES);
    let redundant = assert_equal_runs(&ids, false, &policy, &[1, 2, 3, 4], |cfg| {
        SpatialSim::mixing(SITES, cfg)
    });
    assert!(
        redundant > 100_000,
        "only {redundant} offers reached a site that held the update"
    );
}

#[test]
fn every_rumor_arm_equals_the_replica_contact_on_a_topology() {
    let topo = topologies::grid(&[6, 6]);
    let routes = Routes::compute(&topo);
    let sampler = PartnerSampler::new(&topo, &routes, Spatial::QsPower { a: 2.0 });
    let redundant = assert_equal_runs(topo.sites(), true, &sampler, &[2], |cfg| {
        SpatialSim::with_selection(&topo, &sampler).rumor(cfg)
    });
    assert!(
        redundant > 10_000,
        "only {redundant} offers reached a site that held the update"
    );
}
