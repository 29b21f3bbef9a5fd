//! The complete-mixing skip in `MixingProtocol`'s synchronous push and pull
//! against a protocol that probes both replicas on every contact.
//!
//! `AlwaysProbe` below is the synchronous contact as it stood before the
//! skip: every push offers the update to its partner, every pull from a
//! source asks it for the update, and who is active, who holds the update
//! and who was hot at cycle start are read off the replicas themselves.
//! Both protocols go through the same engine, policy and seed, so the
//! `EpidemicResult`s and every line of the `RunTracer` event log must
//! be equal — a skipped push that forgets its sender's feedback shows as a
//! rumor that lives longer and sends more, a skipped pull that forgets the
//! source's pending flag as a source that loses interest later.

use epidemic_core::rumor::{self, RumorConfig};
use epidemic_core::{Direction, Feedback, Removal, Replica};
use epidemic_db::SiteId;
use epidemic_sim::engine::{
    ContactStats, CycleEngine, EngineBuffers, EpidemicProtocol, ReceiveLog, Roster, SirView,
    UniformPartners,
};
use epidemic_sim::{EpidemicResult, MixingArena, SpatialSim};
use epidemic_trace::{RunTracer, Sir, TraceConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const KEY: u32 = 0;
const SITES: usize = 120;

struct AlwaysProbe {
    cfg: RumorConfig,
    sites: Vec<Replica<u32, u32>>,
    received: ReceiveLog,
    /// Start-of-cycle "holds the update", read off each database.
    state0: Vec<bool>,
    /// Start-of-cycle "is infective", read off each hot list.
    hot0: Vec<bool>,
}

impl AlwaysProbe {
    /// `n` sites, the update seeded at site 0.
    fn new(cfg: RumorConfig, n: usize) -> Self {
        let mut sites: Vec<Replica<u32, u32>> = (0..n)
            .map(|i| Replica::new(SiteId::new(u32::try_from(i).expect("site count fits u32"))))
            .collect();
        sites[0].client_update(KEY, 1);
        let mut received = ReceiveLog::new(n);
        received.mark(0, 0);
        AlwaysProbe {
            cfg,
            sites,
            received,
            state0: vec![false; n],
            hot0: vec![false; n],
        }
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
        let [a, b] = self
            .sites
            .get_disjoint_mut([i, j])
            .expect("two distinct sites");
        match self.cfg.direction {
            Direction::Push => {
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
            Direction::Pull => {
                let (requester, source) = (a, b);
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
            Direction::PushPull => unreachable!("the skip covers synchronous push and pull"),
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

/// `SpatialSim::mixing`'s run with `AlwaysProbe` in the protocol's place: the
/// same engine settings and result assembly. Also returns how many offers
/// went to a site that already held the update.
fn always_probe_run(
    cfg: RumorConfig,
    (connection_limit, hunt_limit): (Option<u32>, u32),
    seed: u64,
    observer: &mut RunTracer,
) -> (EpidemicResult, u64) {
    let mut protocol = AlwaysProbe::new(cfg, SITES);
    let report = CycleEngine::new()
        .connection_limit(connection_limit)
        .hunt_limit(hunt_limit)
        .max_cycles(100_000)
        .run(
            &mut protocol,
            &UniformPartners::new(SITES),
            &mut StdRng::seed_from_u64(seed),
            observer,
            &mut EngineBuffers::default(),
        );
    let received = &protocol.received;
    let result = EpidemicResult {
        n: SITES,
        residue: received.residue(),
        traffic: report.totals.sent as f64 / SITES as f64,
        t_ave: received.t_ave_received(),
        t_last: f64::from(received.t_last().unwrap_or(0)),
        cycles: report.cycles,
        complete: received.complete(),
    };
    (result, report.totals.sent - report.totals.useful)
}

#[test]
fn skipping_offers_the_log_decides_changes_nothing_observable() {
    let mut arena = MixingArena::new();
    let mut redundant = 0;
    for direction in [Direction::Push, Direction::Pull] {
        for feedback in [Feedback::Feedback, Feedback::Blind] {
            for k in 1..=4 {
                for removal in [Removal::Counter { k }, Removal::Coin { k }] {
                    let cfg = RumorConfig::new(direction, feedback, removal);
                    for limits in [(None, 0), (Some(1), 0), (Some(1), 2)] {
                        let driver = SpatialSim::mixing(SITES, cfg)
                            .connection_limit(limits.0)
                            .hunt_limit(limits.1);
                        for seed in 0..2 {
                            let mut skipping_log = RunTracer::new(TraceConfig::full());
                            let skipping = driver.run(&mut arena, seed, &mut skipping_log);
                            let mut reference_log = RunTracer::new(TraceConfig::full());
                            let (reference, wasted) =
                                always_probe_run(cfg, limits, seed, &mut reference_log);
                            redundant += wasted;

                            let case = format!("{cfg:?}, {limits:?}, seed {seed}");
                            assert_eq!(skipping, reference, "{case}");
                            let (skipping_log, reference_log) =
                                (skipping_log.finish(), reference_log.finish());
                            assert_eq!(
                                skipping_log.lines().count(),
                                reference_log.lines().count(),
                                "{case}"
                            );
                            for (line, (got, want)) in
                                skipping_log.lines().zip(reference_log.lines()).enumerate()
                            {
                                assert_eq!(got, want, "{case}, event log line {}", line + 1);
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(
        redundant > 10_000,
        "only {redundant} offers reached a site that held the update"
    );
}
