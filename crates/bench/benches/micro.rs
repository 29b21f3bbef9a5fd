//! Microbenchmarks of the substrate operations: store updates, incremental
//! checksums, anti-entropy comparison strategies and partner sampling.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use std::hint::black_box;

use epidemic_core::{AntiEntropy, Comparison, Direction, Replica};
use epidemic_db::{Aux, Checksum, Database, Entry, FlatStore, SimClock, SiteId, Timestamp};
use epidemic_net::{topologies, LinkTraffic, PartnerSampler, Routes, Spatial};
use epidemic_sim::engine::{ContactStats, EpidemicProtocol};
use epidemic_sim::BitSet;
use epidemic_trace::{AggregatingSink, RunAggregate, Sir};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

fn bench_store(c: &mut Criterion) {
    let mut group = c.benchmark_group("store");
    group.bench_function("update", |b| {
        let mut clock = SimClock::new(SiteId::new(0));
        let mut db: Database<u32, u64> = Database::new();
        let mut key = 0u32;
        b.iter(|| {
            key = key.wrapping_add(1) % 10_000;
            db.update(key, u64::from(key), &mut clock)
        })
    });
    group.bench_function("checksum_recompute_10k", |b| {
        let mut clock = SimClock::new(SiteId::new(0));
        let mut db: Database<u32, u64> = Database::new();
        for key in 0..10_000u32 {
            db.update(key, 1, &mut clock);
        }
        b.iter(|| black_box(db.recompute_checksum()))
    });
    bench_store_fleet(&mut group);
    group.finish();
}

/// The steady-state figures' shape: 200 sites that each hold the same 400
/// keys, ~2.5 MB of rows in all. Every bench below is one round-robin
/// pass — one operation at each of the 200 stores — because a single hot
/// store would sit in L1 and hide the cache cost the workloads pay for.
const FLEET: usize = 200;
const KEYS: u32 = 400;

/// Stored keys are even (odd ones miss); key `2k` is stamped `10k`.
fn fleet_entry(k: u32) -> (u32, Entry<u32>) {
    let at = Timestamp::new(u64::from(k) * 10, SiteId::new(k % 7));
    (2 * k, Entry::live(k, at))
}

struct Site {
    store: FlatStore<u32, u32>,
    checksum: Checksum,
    live: usize,
}

impl Site {
    fn offer(&mut self, key: &u32, entry: &Entry<u32>) -> epidemic_db::ApplyOutcome {
        let aux = Aux {
            checksum: &mut self.checksum,
            live: &mut self.live,
        };
        self.store.apply_ref(key, entry, aux)
    }

    fn remove(&mut self, key: &u32) {
        let aux = Aux {
            checksum: &mut self.checksum,
            live: &mut self.live,
        };
        self.store.remove(key, aux);
    }
}

/// Each site receives the keys in its own order, newest-first-ish like a
/// rumor's arrivals: ascending with a site-dependent local scramble.
fn fleet() -> Vec<Site> {
    (0..FLEET)
        .map(|s| {
            let mut site = Site {
                store: FlatStore::new(),
                checksum: Checksum::new(),
                live: 0,
            };
            let mut order: Vec<u32> = (0..KEYS).collect();
            let mut rng = StdRng::seed_from_u64(s as u64);
            for window in order.chunks_mut(16) {
                for i in (1..window.len()).rev() {
                    window.swap(i, rng.random_range(0..=i));
                }
            }
            for k in order {
                let (key, entry) = fleet_entry(k);
                site.offer(&key, &entry);
            }
            site
        })
        .collect()
}

fn bench_store_fleet(group: &mut criterion::BenchmarkGroup<'_>) {
    let mut sites = fleet();
    // A different key at every store of a pass, a different one next pass.
    let mut draw = 0u32;
    let mut next = move || {
        draw = draw.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        (draw >> 8) % KEYS
    };
    group.bench_function("probe_hit_x200", |b| {
        b.iter(|| {
            for site in &sites {
                black_box(site.store.get(&(2 * next())));
            }
        })
    });
    group.bench_function("probe_miss_x200", |b| {
        b.iter(|| {
            for site in &sites {
                black_box(site.store.get(&(2 * next() + 1)));
            }
        })
    });
    // The rumor figures' common case: the recipient already holds exactly
    // the offered version.
    group.bench_function("offer_stale_x200", |b| {
        b.iter(|| {
            for site in &mut sites {
                let (key, entry) = fleet_entry(next());
                black_box(site.offer(&key, &entry));
            }
        })
    });
    // A key the site has not seen, stamped three rows below its newest:
    // accepted, placed near the column tail. Removed again outside the
    // timed pass so the fleet keeps its size.
    let fresh_key = 2 * KEYS + 1;
    let fresh = Entry::live(
        0,
        Timestamp::new(u64::from(KEYS - 4) * 10 + 5, SiteId::new(0)),
    );
    let sites = std::cell::RefCell::new(sites);
    group.bench_function("offer_accept_near_tail_x200", |b| {
        b.iter_batched(
            || {
                for site in sites.borrow_mut().iter_mut() {
                    site.remove(&fresh_key);
                }
            },
            |()| {
                for site in sites.borrow_mut().iter_mut() {
                    black_box(site.offer(&fresh_key, &fresh));
                }
            },
            BatchSize::SmallInput,
        )
    });
}

fn diverged_pair(shared: u32, fresh: u32) -> (Replica<u32, u64>, Replica<u32, u64>) {
    let mut a: Replica<u32, u64> = Replica::new(SiteId::new(0));
    let mut b: Replica<u32, u64> = Replica::new(SiteId::new(1));
    for key in 0..shared {
        a.client_update(key, 1);
    }
    AntiEntropy::new(Direction::PushPull, Comparison::Full).exchange(&mut a, &mut b);
    a.advance_clock(1_000_000);
    b.advance_clock(1_000_000);
    for key in 0..fresh {
        a.client_update(1_000_000 + key, 2);
    }
    (a, b)
}

fn bench_anti_entropy(c: &mut Criterion) {
    let mut group = c.benchmark_group("anti_entropy_10k_shared_10_fresh");
    for (label, comparison) in [
        ("full", Comparison::Full),
        ("checksum", Comparison::Checksum),
        ("recent_list", Comparison::RecentList { tau: 10_000 }),
        ("peel_back", Comparison::PeelBack),
    ] {
        group.bench_function(BenchmarkId::from_parameter(label), |bench| {
            let protocol = AntiEntropy::new(Direction::PushPull, comparison);
            bench.iter_batched(
                || diverged_pair(10_000, 10),
                |(mut a, mut b)| black_box(protocol.exchange(&mut a, &mut b)),
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

/// One draw from each of the CIN's 254 choosers per pass, as a cycle of
/// the engine makes them: a single chooser's row would sit in L1 and hide
/// the table (773 KB a sampler) the workloads walk. `binary_search` is the
/// draw as it was before the guide table — `partition_point` over the same
/// row from the same word — kept beside it as the reference.
fn bench_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("partner_sampling");
    let net = topologies::cin(&topologies::CinConfig::default());
    let routes = Routes::compute(&net.topology);
    let sites = net.topology.site_count();
    for (label, spatial) in [
        ("uniform", Spatial::Uniform),
        ("qs_power_2", Spatial::QsPower { a: 2.0 }),
    ] {
        let sampler = PartnerSampler::new(&net.topology, &routes, spatial);
        group.bench_function(BenchmarkId::new("guide_x254", label), |b| {
            let mut rng = StdRng::seed_from_u64(1);
            b.iter(|| {
                for from in 0..sites {
                    black_box(sampler.sample_position(from, &mut rng));
                }
            })
        });
        group.bench_function(BenchmarkId::new("binary_search_x254", label), |b| {
            let mut rng = StdRng::seed_from_u64(1);
            b.iter(|| {
                for from in 0..sites {
                    let u: f64 = rng.random();
                    let row = sampler.cumulative(from);
                    let idx = row.partition_point(|&c| c < u).min(row.len() - 1);
                    black_box(sampler.partners(from)[idx]);
                }
            })
        });
    }
    group.bench_function("build_tables_cin", |b| {
        b.iter(|| {
            black_box(PartnerSampler::new(
                &net.topology,
                &routes,
                Spatial::QsPower { a: 2.0 },
            ))
        })
    });
    group.finish();
}

/// `contacts` uniform initiator/partner pairs over `n` sites — the contact
/// stream a complete-mixing run hands its sink.
fn mixing_stream(n: usize, contacts: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..contacts)
        .map(|_| {
            let i = rng.random_range(0..n);
            let j = (i + rng.random_range(1..n)) % n;
            (i, j)
        })
        .collect()
}

fn fresh_sink(n: usize) -> AggregatingSink {
    let mut sink = AggregatingSink::new();
    sink.run_start(Sir {
        susceptible: n - 1,
        infective: 1,
        removed: 0,
    });
    sink
}

fn feed(sink: &mut AggregatingSink, stream: &[(usize, usize)]) {
    for (idx, &(i, j)) in stream.iter().enumerate() {
        sink.contact(1, i, j, 1, (idx & 1) as u64);
    }
}

/// The always-on run aggregate's own cost (time is per whole stream or
/// merge, not per contact): a fresh per-trial sink admitting new pairs
/// below `LINK_CAP`, a full sink folding an n = 10⁴ stream into its
/// overflow cell, and the per-trial merge into a full running total.
fn bench_aggregating_sink(c: &mut Criterion) {
    let mut group = c.benchmark_group("aggregating_sink");
    let below = mixing_stream(1_000, 4_000, 1);
    group.bench_function("contact_below_cap_n1000_x4000", |b| {
        b.iter_batched(
            || fresh_sink(1_000),
            |mut sink| {
                feed(&mut sink, &below);
                sink
            },
            BatchSize::SmallInput,
        )
    });
    let past = mixing_stream(10_000, 20_000, 2);
    group.bench_function("contact_past_cap_n10000_x20000", |b| {
        let mut sink = fresh_sink(10_000);
        feed(&mut sink, &past);
        assert_eq!(sink.aggregate().links().tracked_pairs(), 4_096);
        b.iter(|| feed(&mut sink, &past))
    });
    group.bench_function("merge_full_trial_into_full_total", |b| {
        let full = |seed| {
            let mut sink = fresh_sink(1_000);
            feed(&mut sink, &mixing_stream(1_000, 8_000, seed));
            sink.finish()
        };
        let trial = full(3);
        let mut total = RunAggregate::new();
        total.merge(&full(4));
        b.iter(|| total.merge(&trial))
    });
    group.finish();
}

/// A protocol with a hot list per site and nothing else: what the engine's
/// roster computation sees of a rumor protocol. `tracked` switches
/// [`EpidemicProtocol::active_sites`] from the default `is_active` scan to
/// the incrementally kept bitset, as `MixingProtocol` does.
struct HotLists {
    lists: Vec<Vec<u32>>,
    active: BitSet,
    tracked: bool,
}

impl EpidemicProtocol for HotLists {
    fn site_count(&self) -> usize {
        self.lists.len()
    }
    fn is_active(&self, i: usize) -> bool {
        !self.lists[i].is_empty()
    }
    fn active_sites(&self, out: &mut Vec<usize>) {
        out.clear();
        if self.tracked {
            out.extend(self.active.iter_ones());
        } else {
            out.extend((0..self.site_count()).filter(|&i| self.is_active(i)));
        }
    }
    fn finished(&self, _cycle: u32, active: &[usize]) -> bool {
        active.is_empty()
    }
    fn contact(&mut self, _cycle: u32, _i: usize, _j: usize, _rng: &mut StdRng) -> ContactStats {
        unreachable!("only the roster is measured")
    }
}

/// The roster computation the cycle engine makes twice a cycle, at
/// n = 1000: the `is_active` scan against the active-set bitset, with 1 %,
/// 10 % and every site active. The scan costs the network, the bitset the
/// active set; where they cross is the record this group keeps.
fn bench_roster(c: &mut Criterion) {
    const N: usize = 1_000;
    let mut group = c.benchmark_group("roster");
    for percent in [1usize, 10, 100] {
        let mut rng = StdRng::seed_from_u64(9);
        let mut protocol = HotLists {
            lists: vec![Vec::new(); N],
            active: BitSet::new(N),
            tracked: false,
        };
        let mut sites: Vec<usize> = (0..N).collect();
        sites.shuffle(&mut rng);
        for &i in &sites[..N * percent / 100] {
            protocol.lists[i].push(0);
            protocol.active.set(i, true);
        }
        let mut roster = Vec::with_capacity(N);
        for (name, tracked) in [("scan", false), ("active_set", true)] {
            protocol.tracked = tracked;
            group.bench_function(BenchmarkId::new(name, format!("{percent}pct")), |b| {
                b.iter(|| {
                    black_box(&protocol).active_sites(&mut roster);
                    black_box(roster.len())
                })
            });
            assert_eq!(roster.len(), N * percent / 100);
        }
    }
    group.finish();
}

fn bench_routing(c: &mut Criterion) {
    let net = topologies::cin(&topologies::CinConfig::default());
    c.bench_function("routing/all_pairs_bfs_cin", |b| {
        b.iter(|| black_box(Routes::compute(&net.topology)))
    });
    // What a contact pays the route table: one compare charge along the
    // route between two random sites, 254 a pass (a cycle's worth), so the
    // walk meets the 636 KB hop table cold as the engine does.
    let routes = Routes::compute(&net.topology);
    let sites = net.topology.sites();
    c.bench_function("routing/charge_random_routes_cin_x254", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        let mut traffic = LinkTraffic::new(net.topology.link_count());
        b.iter(|| {
            for _ in 0..sites.len() {
                let from = sites[rng.random_range(0..sites.len())];
                let to = sites[rng.random_range(0..sites.len())];
                traffic.record_route(&routes, from, to);
            }
            black_box(traffic.total())
        })
    });
}

criterion_group! {
    name = micro;
    config = Criterion::default().sample_size(10);
    targets = bench_store, bench_anti_entropy, bench_sampling, bench_aggregating_sink,
        bench_roster, bench_routing
}
criterion_main!(micro);
