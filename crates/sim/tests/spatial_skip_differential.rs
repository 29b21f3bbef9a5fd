//! `MixingProtocol`'s anti-entropy contact, which reads and writes only
//! the receive log's marks, against §1.3's full compare of two replicas.
//!
//! `AlwaysExchange` below is the contact as it stood before the marks
//! replaced the replicas: one replica per site, and every conversation
//! runs the full push-pull compare. Both protocols go through the same
//! engine, policy and seed, so every field of the run's result and every
//! line of the `RunTracer` event log must be equal — a mark contact that
//! delivers in the wrong direction or misses a delivery shows as a later
//! `t_last` and missing update traffic, one whose conversation goes
//! uncharged as lower compare traffic.

use epidemic_core::{AntiEntropy, Comparison, Direction, ExchangeScratch, Replica};
use epidemic_db::SiteId;
use epidemic_net::{topologies, LinkTraffic, PartnerSampler, Routes, Spatial, Topology};
use epidemic_sim::engine::{
    ContactStats, CycleEngine, EngineBuffers, EpidemicProtocol, ReceiveLog, RouteCharge, SirView,
};
use epidemic_sim::{MixingArena, SpatialSim};
use epidemic_trace::{RunTracer, Sir, TraceConfig};
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::SeedableRng;

const KEY: u32 = 0;

struct AlwaysExchange<'a> {
    exchange: AntiEntropy,
    sites: &'a [SiteId],
    replicas: Vec<Replica<u32, u32>>,
    received: ReceiveLog,
    routes: &'a Routes,
    compare: LinkTraffic,
    update: LinkTraffic,
    scratch: ExchangeScratch<u32>,
}

impl EpidemicProtocol for AlwaysExchange<'_> {
    fn site_count(&self) -> usize {
        self.replicas.len()
    }

    fn finished(&self, _cycle: u32, _active: &[usize]) -> bool {
        self.received.complete()
    }

    fn contact(&mut self, cycle: u32, i: usize, j: usize, _rng: &mut StdRng) -> ContactStats {
        let [a, b] = self
            .replicas
            .get_disjoint_mut([i, j])
            .expect("two distinct sites");
        let stats = self.exchange.exchange_with(a, b, &mut self.scratch);
        let flowed = stats.update_flowed();
        let (from, to) = (self.sites[i], self.sites[j]);
        self.compare.record_route(self.routes, from, to);
        self.update
            .record_route_units(self.routes, from, to, u64::from(flowed));
        if flowed {
            for idx in [i, j] {
                if self.replicas[idx].db().entry(&KEY).is_some() {
                    self.received.mark(idx, cycle);
                }
            }
        }
        ContactStats {
            sent: u64::from(flowed),
            useful: u64::from(flowed),
        }
    }
}

impl SirView for AlwaysExchange<'_> {
    fn sir_counts(&self) -> Sir {
        let have = self.received.received_count();
        Sir {
            susceptible: self.replicas.len() - have,
            infective: have,
            removed: 0,
        }
    }
}

/// What a run reports: `t_last`, `t_ave`, cycles, and the compare and
/// update counters.
type Outcome = (f64, f64, u32, LinkTraffic, LinkTraffic);

/// `SpatialSim::run` with `AlwaysExchange` in the protocol's place:
/// the same set-up draws, engine settings and result assembly, with the
/// links charged inside the protocol rather than by a `RouteCharge`.
fn always_exchange_run(
    topology: &Topology,
    spatial: Spatial,
    (connection_limit, hunt_limit): (Option<u32>, u32),
    seed: u64,
    observer: &mut RunTracer,
) -> Outcome {
    let routes = Routes::compute(topology);
    let sampler = PartnerSampler::new(topology, &routes, spatial);
    let mut rng = StdRng::seed_from_u64(seed);
    let sites = topology.sites();
    let mut replicas: Vec<Replica<u32, u32>> = sites.iter().map(|&s| Replica::new(s)).collect();
    let origin = *sites.choose(&mut rng).expect("sites");
    let origin_idx = sites.binary_search(&origin).expect("site exists");
    replicas[origin_idx].client_update(KEY, 1);
    replicas[origin_idx].hot_mut().clear();
    let mut received = ReceiveLog::new(sites.len());
    received.mark(origin_idx, 0);

    let mut protocol = AlwaysExchange {
        exchange: AntiEntropy::new(Direction::PushPull, Comparison::Full),
        sites,
        replicas,
        received,
        routes: &routes,
        compare: LinkTraffic::new(topology.link_count()),
        update: LinkTraffic::new(topology.link_count()),
        scratch: ExchangeScratch::new(),
    };
    let report = CycleEngine::new()
        .connection_limit(connection_limit)
        .hunt_limit(hunt_limit)
        .run(
            &mut protocol,
            &sampler,
            &mut rng,
            observer,
            &mut EngineBuffers::default(),
        );

    (
        f64::from(protocol.received.t_last().unwrap_or(0)),
        protocol.received.t_ave_received(),
        report.cycles,
        protocol.compare,
        protocol.update,
    )
}

#[test]
fn the_mark_contact_equals_the_full_replica_compare() {
    let cases = [
        (topologies::ring(24), Spatial::Uniform),
        (topologies::grid(&[6, 6]), Spatial::QsPower { a: 2.0 }),
        (
            topologies::cin(&topologies::CinConfig::default()).topology,
            Spatial::QsPower { a: 1.2 },
        ),
    ];
    let mut arena = MixingArena::new();
    let mut counters = Default::default();
    for (topology, spatial) in &cases {
        let routes = Routes::compute(topology);
        for limits in [(None, 0), (Some(1), 2)] {
            let sim = SpatialSim::new(topology, &routes, *spatial)
                .connection_limit(limits.0)
                .hunt_limit(limits.1);
            for seed in 0..3 {
                let mut marked_log = RunTracer::new(TraceConfig::full());
                let mut charge = RouteCharge::new(topology, &routes, 0, &mut counters);
                let r = sim.run(&mut arena, seed, &mut (&mut charge, &mut marked_log));
                let marked = (
                    r.t_last,
                    r.t_ave,
                    r.cycles,
                    charge.compare.clone(),
                    charge.update.clone(),
                );
                let mut reference_log = RunTracer::new(TraceConfig::full());
                let reference =
                    always_exchange_run(topology, *spatial, limits, seed, &mut reference_log);

                let case = format!(
                    "{spatial} on {} sites, {limits:?}, seed {seed}",
                    topology.site_count()
                );
                assert_eq!(marked.1.to_bits(), reference.1.to_bits(), "{case}");
                assert_eq!(marked, reference, "{case}");
                let (marked_log, reference_log) = (marked_log.finish(), reference_log.finish());
                assert_eq!(
                    marked_log.lines().count(),
                    reference_log.lines().count(),
                    "{case}"
                );
                for (line, (got, want)) in marked_log.lines().zip(reference_log.lines()).enumerate()
                {
                    assert_eq!(got, want, "{case}, event log line {}", line + 1);
                }
            }
        }
    }
}
