//! Steady-state anti-entropy under continuous update injection (§1.3).
//!
//! The checksum and recent-update-list refinements only pay off while "the
//! time required for an update to be sent to all sites is small relative to
//! the expected time between new updates" — and the window `τ` must exceed
//! the expected distribution time, or "checksum comparisons will usually
//! fail and network traffic will rise to a level slightly higher than what
//! would be produced by anti-entropy without checksums". This driver
//! measures exactly that: a fleet under a constant update rate, running one
//! anti-entropy exchange per site per cycle, reporting how often each
//! comparison strategy had to fall back to a full database comparison.

use epidemic_core::{AntiEntropy, Comparison, Direction, ExchangeScratch, Replica};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::engine::{
    ContactStats, CycleEngine, EngineBuffers, EpidemicProtocol, UniformPartners, UpdateInjector,
};
use crate::util::{pair_mut, site_ids};

/// Configuration for the steady-state experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SteadyStateSim {
    /// Number of sites.
    pub sites: usize,
    /// New client updates injected per cycle (at random sites, fresh keys).
    pub updates_per_cycle: f64,
    /// Warm-up cycles excluded from measurement.
    pub warmup: u32,
    /// Measured cycles.
    pub cycles: u32,
}

impl Default for SteadyStateSim {
    fn default() -> Self {
        SteadyStateSim {
            sites: 60,
            updates_per_cycle: 1.0,
            warmup: 30,
            cycles: 100,
        }
    }
}

/// Measurements from one steady-state run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SteadyStateReport {
    /// Fraction of exchanges that needed a full database comparison.
    pub full_compare_rate: f64,
    /// Mean entries transmitted per exchange.
    pub entries_per_exchange: f64,
    /// Mean entries *scanned* per exchange (the diffing work).
    pub scanned_per_exchange: f64,
    /// Database size at the end of the run.
    pub final_db_len: usize,
}

impl SteadyStateSim {
    /// Runs the workload under the given comparison strategy.
    pub fn run(&self, comparison: Comparison, seed: u64) -> SteadyStateReport {
        assert!(self.sites >= 2);
        let n = self.sites;
        let mut rng = StdRng::seed_from_u64(seed);
        let replicas: Vec<Replica<u32, u64>> = site_ids(n).map(Replica::new).collect();
        let total = self.warmup + self.cycles;
        let mut protocol = SteadyStateProtocol {
            exchange: AntiEntropy::new(Direction::PushPull, comparison),
            replicas,
            injector: UpdateInjector::new(self.updates_per_cycle),
            warmup: self.warmup,
            total,
            exchanges: 0,
            full_compares: 0,
            sent: 0,
            scanned: 0,
            scratch: ExchangeScratch::new(),
        };
        CycleEngine::new().max_cycles(total).run(
            &mut protocol,
            &UniformPartners::new(n),
            &mut rng,
            &mut (),
            &mut EngineBuffers::default(),
        );
        SteadyStateReport {
            full_compare_rate: protocol.full_compares as f64 / protocol.exchanges as f64,
            entries_per_exchange: protocol.sent as f64 / protocol.exchanges as f64,
            scanned_per_exchange: protocol.scanned as f64 / protocol.exchanges as f64,
            final_db_len: protocol.replicas[0].db().len(),
        }
    }
}

/// Push-pull anti-entropy under continuous update injection: one exchange
/// per site per cycle, with the diffing counters accumulated only after
/// the warm-up period.
struct SteadyStateProtocol {
    exchange: AntiEntropy,
    replicas: Vec<Replica<u32, u64>>,
    injector: UpdateInjector,
    warmup: u32,
    total: u32,
    exchanges: u64,
    full_compares: u64,
    sent: u64,
    scanned: u64,
    scratch: ExchangeScratch<u32>,
}

impl EpidemicProtocol for SteadyStateProtocol {
    fn site_count(&self) -> usize {
        self.replicas.len()
    }

    fn finished(&self, cycle: u32, _active: &[usize]) -> bool {
        cycle >= self.total
    }

    fn begin_cycle(&mut self, cycle: u32, rng: &mut StdRng) {
        let time = u64::from(cycle) * 10;
        for r in self.replicas.iter_mut() {
            r.advance_clock(time);
        }
        let replicas = &mut self.replicas;
        self.injector.inject(replicas.len(), rng, |site, key| {
            replicas[site].client_update(key, u64::from(cycle));
        });
    }

    fn contact(&mut self, cycle: u32, i: usize, j: usize, _rng: &mut StdRng) -> ContactStats {
        let (a, b) = pair_mut(&mut self.replicas, i, j);
        let stats = self.exchange.exchange_with(a, b, &mut self.scratch);
        let sent = stats.total_sent() as u64;
        if cycle > self.warmup {
            self.exchanges += 1;
            self.full_compares += u64::from(stats.full_compare);
            self.sent += sent;
            self.scanned += stats.entries_scanned as u64;
        }
        ContactStats { sent, useful: sent }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generous_window_avoids_full_compares() {
        // Distribution time on 60 sites is O(log n) ≈ 10 cycles = 100
        // ticks; τ = 400 ticks is comfortable.
        let sim = SteadyStateSim::default();
        let r = sim.run(Comparison::RecentList { tau: 400 }, 1);
        assert!(
            r.full_compare_rate < 0.05,
            "full compare rate {}",
            r.full_compare_rate
        );
    }

    #[test]
    fn tight_window_degenerates_to_full_compares() {
        // τ = 10 ticks (one cycle) is far below the distribution time:
        // the paper predicts checksum comparisons "will usually fail".
        let sim = SteadyStateSim::default();
        let r = sim.run(Comparison::RecentList { tau: 10 }, 1);
        assert!(
            r.full_compare_rate > 0.5,
            "full compare rate {}",
            r.full_compare_rate
        );
    }

    #[test]
    fn naive_checksums_fail_under_any_update_traffic() {
        // With one update/cycle somewhere in the network, two random sites
        // almost always have different contents at comparison time.
        let sim = SteadyStateSim::default();
        let r = sim.run(Comparison::Checksum, 2);
        assert!(r.full_compare_rate > 0.3, "{}", r.full_compare_rate);
    }

    #[test]
    fn peel_back_ships_only_the_diff() {
        let sim = SteadyStateSim::default();
        let full = sim.run(Comparison::Full, 3);
        let peel = sim.run(Comparison::PeelBack, 3);
        // Peel back scans far less than a full comparison of ~100-entry
        // databases while sending a similar number of entries.
        assert!(peel.scanned_per_exchange < full.scanned_per_exchange / 2.0);
        assert!(peel.entries_per_exchange <= full.entries_per_exchange + 1.0);
    }

    #[test]
    fn quiescent_network_costs_nothing_but_checksums() {
        let sim = SteadyStateSim {
            updates_per_cycle: 0.0,
            ..SteadyStateSim::default()
        };
        let r = sim.run(Comparison::Checksum, 4);
        assert_eq!(r.full_compare_rate, 0.0);
        assert_eq!(r.entries_per_exchange, 0.0);
        assert_eq!(r.final_db_len, 0);
    }

    #[test]
    fn higher_update_rates_need_wider_windows() {
        let tau = 150;
        let slow = SteadyStateSim {
            updates_per_cycle: 0.2,
            ..SteadyStateSim::default()
        }
        .run(Comparison::RecentList { tau }, 5);
        let fast = SteadyStateSim {
            updates_per_cycle: 4.0,
            ..SteadyStateSim::default()
        }
        .run(Comparison::RecentList { tau }, 5);
        assert!(
            fast.full_compare_rate >= slow.full_compare_rate,
            "fast {} vs slow {}",
            fast.full_compare_rate,
            slow.full_compare_rate
        );
    }
}
