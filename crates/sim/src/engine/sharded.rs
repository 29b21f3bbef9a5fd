//! Deterministic shard-parallel cycle execution.
//!
//! [`ShardedCycleEngine`] runs the same round-synchronous loop as
//! [`CycleEngine`](super::CycleEngine), but partitions the sites into a
//! fixed number of **shards** and executes each cycle's contacts
//! shard-parallel. The output is a pure function of `(protocol, policy,
//! seed, shard count)` — never of the worker-thread count or of thread
//! scheduling — which the equivalence suite pins byte-for-byte at
//! `EPIDEMIC_THREADS` ∈ {1, 2, 8}.
//!
//! # How determinism survives parallelism
//!
//! * **Per-shard RNG streams.** A master RNG seeded from the trial seed
//!   derives one control stream (for `begin_cycle`/`end_cycle`) plus one
//!   independent stream per shard. Every partner draw for an initiator in
//!   shard `s` comes from stream `s`, and every in-contact draw for a
//!   contact *initiated* by shard `s` comes from stream `s` — so the draw
//!   sequences are fixed by the shard layout alone.
//! * **Two-phase cycles.** Phase one walks the shards in order and
//!   performs all partner draws sequentially on the shard streams,
//!   bucketing each accepted contact by `(initiator shard, partner
//!   shard)`. Phase two executes the buckets round by round using the
//!   circle method (round-robin tournament scheduling): round 0 runs every
//!   shard's internal contacts, and each subsequent round runs a perfect
//!   matching of shard *pairs* — disjoint pairs, so every pair-task owns
//!   both of its shard slices and all tasks in a round run in parallel,
//!   cross-shard contacts included.
//! * **Deterministic merge order.** The rounds, the pairs within a round,
//!   and the contacts within a bucket are all pure functions of `(cycle,
//!   shard ids)`. Contact events are recorded per pair-task and replayed
//!   to the [`Observer`] in exactly that order, so traces serialize
//!   identically at any worker count. Per-shard accumulators are absorbed
//!   into the protocol in ascending shard order each cycle.
//!
//! # The sharded path is a new RNG universe
//!
//! Re-deriving RNG streams necessarily changes which random numbers feed
//! which decision, so a sharded run does **not** reproduce the sequential
//! engine's output byte-for-byte — not even at one shard. The golden
//! tables pin the sequential path; the sharded path is pinned by
//! sharded-vs-sharded byte identity across worker counts plus
//! sharded-vs-sequential *statistical* agreement (see
//! `tests/sharded_equivalence.rs` and DESIGN.md §Deterministic parallel
//! cycle).
//!
//! Connection limits and hunting are deliberately unsupported here: both
//! serialize on a global `accepted[j]` counter whose draw-order coupling
//! is exactly what sharding removes. Drivers assert this at their
//! `run_sharded` entry points and fall back to the sequential engine.

use std::time::Instant;

use epidemic_trace::{profile, MetricsSink};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use super::{ContactStats, EngineReport, EngineTotals, EpidemicProtocol, Observer, Roster};
use crate::engine::PartnerPolicy;
use crate::util::pair_mut;

/// Environment variable overriding the shard count (default
/// [`DEFAULT_SHARDS`]). Distinct from `EPIDEMIC_THREADS`, which controls
/// *worker* counts: shards fix the output, workers only the wall-clock.
pub const SHARDS_ENV_VAR: &str = "EPIDEMIC_SHARDS";

/// Shard count used when neither the builder nor the environment says
/// otherwise.
pub const DEFAULT_SHARDS: usize = 8;

/// The shard count to use by default: `EPIDEMIC_SHARDS` if present and a
/// positive integer, else [`DEFAULT_SHARDS`]. A program that wants to
/// refuse an invalid value calls [`shard_override`] first (as `repro` does).
pub fn default_shards() -> usize {
    shard_override().ok().flatten().unwrap_or(DEFAULT_SHARDS)
}

/// Reads `EPIDEMIC_SHARDS`: `Ok(None)` when unset, `Ok(Some(n))` for a
/// positive integer.
///
/// # Errors
///
/// Returns a message naming the variable and the offending value when it
/// is set to anything else (`abc`, `0`, non-UTF-8).
pub fn shard_override() -> Result<Option<usize>, String> {
    crate::runner::positive_override(SHARDS_ENV_VAR)
}

/// One contact's endpoints as seen by [`ShardableProtocol::contact_sharded`]:
/// global site indices plus exclusive references to both sites.
pub struct ContactPair<'s, S> {
    /// Global index of the initiating site.
    pub i: usize,
    /// The initiating site.
    pub a: &'s mut S,
    /// Global index of the partner site.
    pub j: usize,
    /// The partner site.
    pub b: &'s mut S,
}

/// A protocol that can run its contacts shard-parallel.
///
/// The contract mirrors [`EpidemicProtocol::contact`] but splits the
/// protocol state three ways for the parallel phase:
///
/// * a [`Sync`] **context** (`Ctx`) shared read-only by every pair-task
///   (configuration, routing tables, start-of-cycle snapshots);
/// * the per-site state (`Site`), sliced by shard so each pair-task owns
///   its two slices exclusively;
/// * a per-shard **accumulator** (`Shard`) collecting everything a contact
///   would have written to shared protocol state (receive-log marks,
///   traffic counters, scratch buffers). Accumulators are drained back
///   into the protocol by [`absorb`](Self::absorb) in ascending shard
///   order at the end of every cycle.
///
/// `begin_cycle`/`end_cycle`/`finished`/rosters still run sequentially on
/// the full protocol, exactly as in the sequential engine.
pub trait ShardableProtocol: EpidemicProtocol {
    /// Per-site state moved into the parallel phase.
    type Site: Send;
    /// Read-only context shared by all pair-tasks during a cycle.
    type Ctx<'p>: Sync
    where
        Self: 'p;
    /// Per-shard accumulator (scratch buffers + deferred writes).
    type Shard: Send;

    /// Creates one (empty) per-shard accumulator.
    fn make_shard(&self) -> Self::Shard;

    /// Splits the protocol into the shared read-only context and the
    /// per-site state for one cycle's parallel phase. The slice must have
    /// exactly [`site_count`](EpidemicProtocol::site_count) elements, in
    /// site order.
    fn split(&mut self) -> (Self::Ctx<'_>, &mut [Self::Site]);

    /// Performs one contact, writing only to the two sites, the initiating
    /// shard's accumulator and the initiating shard's RNG stream. Must
    /// match [`EpidemicProtocol::contact`] semantics.
    fn contact_sharded(
        ctx: &Self::Ctx<'_>,
        shard: &mut Self::Shard,
        cycle: u32,
        pair: ContactPair<'_, Self::Site>,
        rng: &mut StdRng,
    ) -> ContactStats;

    /// Drains one shard accumulator back into the protocol. Called once
    /// per shard per cycle, in ascending shard order, after every contact
    /// of the cycle has run.
    fn absorb(&mut self, shard: &mut Self::Shard);
}

/// Contiguous partition of `n` sites into `shards` balanced ranges: the
/// first `n % shards` shards hold `n / shards + 1` sites each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardLayout {
    n: usize,
    shards: usize,
    quot: usize,
    rem: usize,
}

impl ShardLayout {
    /// Partitions `n` sites into `shards` ranges (shards beyond `n` are
    /// empty).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(n: usize, shards: usize) -> Self {
        assert!(shards >= 1, "shard count must be at least 1");
        ShardLayout {
            n,
            shards,
            quot: n / shards,
            rem: n % shards,
        }
    }

    /// Number of shards (including empty ones).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// First site index of shard `s` (== `n` for the tail of empty
    /// shards).
    pub fn start(&self, s: usize) -> usize {
        s * self.quot + s.min(self.rem)
    }

    /// The site-index range owned by shard `s`.
    pub fn range(&self, s: usize) -> std::ops::Range<usize> {
        self.start(s)..self.start(s + 1)
    }

    /// The shard owning site `i`.
    pub fn shard_of(&self, i: usize) -> usize {
        debug_assert!(i < self.n);
        let wide = self.rem * (self.quot + 1);
        if i < wide {
            i / (self.quot + 1)
        } else {
            self.rem + (i - wide) / self.quot
        }
    }
}

/// The per-cycle execution schedule: round 0 pairs every shard with
/// itself (internal contacts); each later round is a perfect matching of
/// distinct shard pairs from the circle method, so over all rounds every
/// unordered pair meets exactly once and no shard appears twice in a
/// round. Pure function of the shard count.
fn pair_rounds(shards: usize) -> Vec<Vec<(usize, usize)>> {
    let mut rounds: Vec<Vec<(usize, usize)>> = Vec::new();
    rounds.push((0..shards).map(|s| (s, s)).collect());
    if shards > 1 {
        // Circle method on `t` seats (a dummy seat pads odd counts; its
        // opponent sits the round out).
        let t = if shards.is_multiple_of(2) {
            shards
        } else {
            shards + 1
        };
        for r in 0..t - 1 {
            let mut round: Vec<(usize, usize)> = Vec::new();
            for k in 0..t / 2 {
                let (x, y) = if k == 0 {
                    (t - 1, r)
                } else {
                    ((r + k) % (t - 1), (r + t - 1 - k) % (t - 1))
                };
                if x >= shards || y >= shards {
                    continue; // paired with the dummy seat
                }
                round.push((x.min(y), x.max(y)));
            }
            round.sort_unstable();
            if !round.is_empty() {
                rounds.push(round);
            }
        }
    }
    rounds
}

/// One bucketed contact: `(initiator, partner)` global site indices.
type Draw = (usize, usize);
/// One executed contact in replay order: `(initiator, partner, stats)`.
type ContactEvent = (usize, usize, ContactStats);

/// Everything one pair-task owns exclusively while a round executes: the
/// two shard slices, the initiating streams and accumulators, and the
/// task's event log. For the self round (`a == b`) the `_b` halves are
/// `None`.
struct PairTask<'x, Site, Shard> {
    a: usize,
    b: usize,
    base_a: usize,
    base_b: usize,
    sites_a: &'x mut [Site],
    sites_b: Option<&'x mut [Site]>,
    rng_a: &'x mut StdRng,
    rng_b: Option<&'x mut StdRng>,
    shard_a: &'x mut Shard,
    shard_b: Option<&'x mut Shard>,
    events: &'x mut Vec<ContactEvent>,
}

/// Splits `sites` into per-shard slices (wrapped in `Option` so each
/// pair-task can take exclusive ownership of its two).
fn shard_slices<'x, T>(mut sites: &'x mut [T], layout: &ShardLayout) -> Vec<Option<&'x mut [T]>> {
    let mut out = Vec::with_capacity(layout.shards());
    for s in 0..layout.shards() {
        let (head, tail) = sites.split_at_mut(layout.range(s).len());
        out.push(Some(head));
        sites = tail;
    }
    out
}

/// Executes one pair-task: the contacts initiated by shard `a` toward
/// shard `b`, then (for cross pairs) the contacts initiated by shard `b`
/// toward shard `a` — each bucket in draw order, on the initiator's RNG
/// stream and accumulator.
fn run_pair<'p, P>(
    ctx: &P::Ctx<'p>,
    buckets: &[Vec<Vec<Draw>>],
    cycle: u32,
    task: &mut PairTask<'_, P::Site, P::Shard>,
) where
    P: ShardableProtocol + 'p,
{
    match task.sites_b.as_deref_mut() {
        None => {
            // Self round: both endpoints live in `sites_a`.
            for &(i, j) in &buckets[task.a][task.b] {
                let (a, b) = pair_mut(task.sites_a, i - task.base_a, j - task.base_a);
                let stats = P::contact_sharded(
                    ctx,
                    task.shard_a,
                    cycle,
                    ContactPair { i, a, j, b },
                    task.rng_a,
                );
                task.events.push((i, j, stats));
            }
        }
        Some(sites_b) => {
            for &(i, j) in &buckets[task.a][task.b] {
                let pair = ContactPair {
                    i,
                    a: &mut task.sites_a[i - task.base_a],
                    j,
                    b: &mut sites_b[j - task.base_b],
                };
                let stats = P::contact_sharded(ctx, task.shard_a, cycle, pair, task.rng_a);
                task.events.push((i, j, stats));
            }
            let rng_b = task
                .rng_b
                .as_mut()
                .expect("cross pair carries both streams");
            let shard_b = task
                .shard_b
                .as_mut()
                .expect("cross pair carries both shards");
            for &(i, j) in &buckets[task.b][task.a] {
                let pair = ContactPair {
                    i,
                    a: &mut sites_b[i - task.base_b],
                    j,
                    b: &mut task.sites_a[j - task.base_a],
                };
                let stats = P::contact_sharded(ctx, shard_b, cycle, pair, rng_b);
                task.events.push((i, j, stats));
            }
        }
    }
}

/// The shard-parallel round loop. See the [module docs](self) for the
/// determinism contract; [`CycleEngine`](super::CycleEngine) remains the
/// sequential reference (and the golden-pinned RNG universe).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardedCycleEngine {
    shards: usize,
    workers: usize,
    max_cycles: u32,
}

impl ShardedCycleEngine {
    /// An engine with `shards` shards, one worker (the sequential
    /// reference mode) and a generous cycle bound.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "shard count must be at least 1");
        ShardedCycleEngine {
            shards,
            workers: 1,
            max_cycles: 100_000,
        }
    }

    /// Worker threads executing each round's pair-tasks. Affects only
    /// wall-clock, never output; `1` runs every task inline with no
    /// thread spawns.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        assert!(workers >= 1, "worker count must be at least 1");
        self.workers = workers;
        self
    }

    /// Safety bound on simulated cycles.
    #[must_use]
    pub fn max_cycles(mut self, max: u32) -> Self {
        self.max_cycles = max;
        self
    }

    /// Drives `protocol` to completion. The run is a pure function of
    /// `(protocol, policy, seed, shards)`; the worker count only changes
    /// wall-clock. Pass `&mut ()` to observe nothing.
    pub fn run<P, L, O>(
        &self,
        protocol: &mut P,
        policy: &L,
        seed: u64,
        observer: &mut O,
    ) -> EngineReport
    where
        P: ShardableProtocol,
        L: PartnerPolicy + Sync + ?Sized,
        O: Observer<P>,
    {
        self.run_instrumented(protocol, policy, seed, observer, &mut ())
    }

    /// As [`ShardedCycleEngine::run`], additionally reporting run metrics
    /// and phase timings to `sink` under the same counter/phase names as
    /// the sequential engine (`engine.setup` / `engine.contact_loop` /
    /// `engine.end_of_cycle`), so BENCH phase breakdowns compare directly.
    pub fn run_instrumented<P, L, O, S>(
        &self,
        protocol: &mut P,
        policy: &L,
        seed: u64,
        observer: &mut O,
        sink: &mut S,
    ) -> EngineReport
    where
        P: ShardableProtocol,
        L: PartnerPolicy + Sync + ?Sized,
        O: Observer<P>,
        S: MetricsSink,
    {
        // Same audited gate as the sequential engine: `Instant::now` is
        // only read when a recording sink or the global profiler asks.
        let timed = S::ENABLED || profile::is_enabled();
        let setup_start = timed.then(Instant::now);
        let n = protocol.site_count();
        let layout = ShardLayout::new(n, self.shards);
        let shards = layout.shards();

        // RNG derivation: one control stream (begin/end_cycle) plus one
        // stream per shard, all from a master seeded with the trial seed.
        // The draw sequences depend on (seed, shards) only.
        let mut master = StdRng::seed_from_u64(seed);
        let mut control = StdRng::seed_from_u64(master.next_u64());
        let mut shard_rngs: Vec<StdRng> = (0..shards)
            .map(|_| StdRng::seed_from_u64(master.next_u64()))
            .collect();

        // Reused cycle scratch (nothing below allocates after warm-up).
        let mut orders: Vec<Vec<usize>> = (0..shards).map(|s| layout.range(s).collect()).collect();
        let mut actives: Vec<Vec<usize>> = vec![Vec::new(); shards];
        let mut global_active: Vec<usize> = Vec::with_capacity(n);
        let mut buckets: Vec<Vec<Vec<Draw>>> = vec![vec![Vec::new(); shards]; shards];
        let rounds = pair_rounds(shards);
        let mut round_events: Vec<Vec<Vec<ContactEvent>>> =
            rounds.iter().map(|r| vec![Vec::new(); r.len()]).collect();
        let mut shard_states: Vec<P::Shard> = (0..shards).map(|_| protocol.make_shard()).collect();

        let mut totals = EngineTotals::default();
        let mut cycle = 0u32;
        observer.on_run_start(protocol);
        let setup_nanos = setup_start.map_or(0, profile::span_nanos);
        let mut contact_nanos = 0u64;
        let mut end_nanos = 0u64;

        while cycle < self.max_cycles {
            let cycle_start = timed.then(Instant::now);
            let contacts_before = totals.contacts;
            global_active.clear();
            global_active.extend((0..n).filter(|&i| protocol.is_active(i)));
            if protocol.finished(cycle, &global_active) {
                break;
            }
            cycle += 1;
            protocol.begin_cycle(cycle, &mut control);

            // Phase 1 (sequential): per-shard rosters and partner draws,
            // walked in ascending shard order on the shard streams.
            let roster_kind = protocol.roster();
            for row in buckets.iter_mut() {
                for bucket in row.iter_mut() {
                    bucket.clear();
                }
            }
            for s in 0..shards {
                let rng = &mut shard_rngs[s];
                let roster: &mut Vec<usize> = match roster_kind {
                    Roster::Active => {
                        let list = &mut actives[s];
                        list.clear();
                        list.extend(layout.range(s).filter(|&i| protocol.is_active(i)));
                        list
                    }
                    Roster::Everyone => &mut orders[s],
                };
                roster.shuffle(rng);
                for &i in roster.iter() {
                    if !protocol.initiates(i) {
                        continue;
                    }
                    let j = policy.attempt(i, rng);
                    if !protocol.admits(j) {
                        continue;
                    }
                    buckets[s][layout.shard_of(j)].push((i, j));
                }
            }

            // Phase 2 (parallel): execute the buckets round by round.
            // Every pair-task owns its shard slices, streams and
            // accumulators exclusively; rounds are barriers. The scope
            // bounds the `split()` borrow so the protocol is whole again
            // for the absorb/end-of-cycle phase below.
            {
                let (ctx, sites) = protocol.split();
                debug_assert_eq!(sites.len(), n, "split() must expose every site");
                for (r, pairs) in rounds.iter().enumerate() {
                    let events = &mut round_events[r];
                    if self.workers <= 1 || pairs.len() <= 1 {
                        // Sequential reference mode: identical draw order,
                        // no spawns. Each pair-task's exclusive borrows are
                        // carved on the fly instead of staging per-round
                        // option vectors, so a steady-state cycle allocates
                        // nothing on this path (pinned by `zero_alloc.rs`).
                        for (&(a, b), events) in pairs.iter().zip(events.iter_mut()) {
                            events.clear();
                            if a == b {
                                let mut task = PairTask {
                                    a,
                                    b,
                                    base_a: layout.start(a),
                                    base_b: layout.start(b),
                                    sites_a: &mut sites[layout.range(a)],
                                    sites_b: None,
                                    rng_a: &mut shard_rngs[a],
                                    rng_b: None,
                                    shard_a: &mut shard_states[a],
                                    shard_b: None,
                                    events,
                                };
                                run_pair::<P>(&ctx, &buckets, cycle, &mut task);
                            } else {
                                // Cross pairs are ordered (a < b), so the
                                // two shard ranges split cleanly.
                                let (head, tail) = sites.split_at_mut(layout.start(b));
                                let (rng_a, rng_b) = pair_mut(&mut shard_rngs, a, b);
                                let (shard_a, shard_b) = pair_mut(&mut shard_states, a, b);
                                let mut task = PairTask {
                                    a,
                                    b,
                                    base_a: layout.start(a),
                                    base_b: layout.start(b),
                                    sites_a: &mut head[layout.range(a)],
                                    sites_b: Some(&mut tail[..layout.range(b).len()]),
                                    rng_a,
                                    rng_b: Some(rng_b),
                                    shard_a,
                                    shard_b: Some(shard_b),
                                    events,
                                };
                                run_pair::<P>(&ctx, &buckets, cycle, &mut task);
                            }
                        }
                    } else {
                        let mut slices = shard_slices(&mut *sites, &layout);
                        let mut rngs: Vec<Option<&mut StdRng>> =
                            shard_rngs.iter_mut().map(Some).collect();
                        let mut states: Vec<Option<&mut P::Shard>> =
                            shard_states.iter_mut().map(Some).collect();
                        let mut tasks: Vec<PairTask<'_, P::Site, P::Shard>> = pairs
                            .iter()
                            .zip(events.iter_mut())
                            .map(|(&(a, b), events)| {
                                events.clear();
                                let cross = a != b;
                                PairTask {
                                    a,
                                    b,
                                    base_a: layout.start(a),
                                    base_b: layout.start(b),
                                    sites_a: slices[a].take().expect("shard used once per round"),
                                    sites_b: cross.then(|| {
                                        slices[b].take().expect("shard used once per round")
                                    }),
                                    rng_a: rngs[a].take().expect("stream used once per round"),
                                    rng_b: cross.then(|| {
                                        rngs[b].take().expect("stream used once per round")
                                    }),
                                    shard_a: states[a]
                                        .take()
                                        .expect("accumulator used once per round"),
                                    shard_b: cross.then(|| {
                                        states[b].take().expect("accumulator used once per round")
                                    }),
                                    events,
                                }
                            })
                            .collect();
                        let ctx = &ctx;
                        let buckets = &buckets;
                        let per_worker = tasks.len().div_ceil(self.workers);
                        std::thread::scope(|scope| {
                            for group in tasks.chunks_mut(per_worker) {
                                scope.spawn(move || {
                                    for task in group.iter_mut() {
                                        run_pair::<P>(ctx, buckets, cycle, task);
                                    }
                                });
                            }
                        });
                    }
                }
            }

            // Phase 3 (sequential): replay events in schedule order —
            // round, then pair within round, then draw within bucket — a
            // pure function of (cycle, shard ids); then absorb the shard
            // accumulators in ascending shard order.
            for (events, pairs) in round_events.iter().zip(rounds.iter()) {
                for task_events in events.iter().take(pairs.len()) {
                    for &(i, j, stats) in task_events.iter() {
                        totals.contacts += 1;
                        totals.sent += stats.sent;
                        totals.useful += stats.useful;
                        if stats.useful == 0 {
                            totals.fruitless += 1;
                        }
                        observer.on_contact(cycle, i, j, &stats);
                    }
                }
            }
            for state in shard_states.iter_mut() {
                protocol.absorb(state);
            }

            let contacts_end = timed.then(Instant::now);
            if let (Some(start), Some(end)) = (cycle_start, contacts_end) {
                contact_nanos += u64::try_from((end - start).as_nanos()).unwrap_or(u64::MAX);
            }
            protocol.end_cycle(cycle, &mut control);
            observer.on_cycle_end(cycle, protocol);
            if let Some(end) = contacts_end {
                end_nanos += profile::span_nanos(end);
            }
            if S::ENABLED {
                sink.observe(
                    "engine.cycle_contacts",
                    (totals.contacts - contacts_before) as f64,
                );
            }
        }

        if S::ENABLED {
            sink.counter("engine.cycles", u64::from(cycle));
            sink.counter("engine.contacts", totals.contacts);
            sink.counter("engine.sent", totals.sent);
            sink.counter("engine.useful", totals.useful);
            sink.counter("engine.fruitless", totals.fruitless);
            sink.phase("engine.setup", setup_nanos);
            sink.phase("engine.contact_loop", contact_nanos);
            sink.phase("engine.end_of_cycle", end_nanos);
        }
        if profile::is_enabled() {
            profile::record("engine.setup", setup_nanos);
            profile::record("engine.contact_loop", contact_nanos);
            profile::record("engine.end_of_cycle", end_nanos);
        }

        EngineReport {
            cycles: cycle,
            totals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::UniformPartners;

    #[test]
    fn layout_partitions_all_sites_contiguously() {
        for (n, shards) in [(10, 4), (8, 8), (7, 3), (5, 8), (1000, 8), (3, 1)] {
            let layout = ShardLayout::new(n, shards);
            let mut seen = Vec::new();
            for s in 0..shards {
                for i in layout.range(s) {
                    assert_eq!(layout.shard_of(i), s, "n={n} shards={shards} i={i}");
                    seen.push(i);
                }
            }
            assert_eq!(seen, (0..n).collect::<Vec<_>>(), "n={n} shards={shards}");
            // Balanced: sizes differ by at most one.
            let sizes: Vec<usize> = (0..shards).map(|s| layout.range(s).len()).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "unbalanced layout {sizes:?}");
        }
    }

    #[test]
    fn pair_rounds_cover_every_pair_exactly_once_without_conflicts() {
        for shards in 1..=9 {
            let rounds = pair_rounds(shards);
            assert_eq!(rounds[0], (0..shards).map(|s| (s, s)).collect::<Vec<_>>());
            let mut seen = std::collections::BTreeSet::new();
            for round in &rounds[1..] {
                let mut used = std::collections::BTreeSet::new();
                for &(a, b) in round {
                    assert!(a < b, "cross pairs are ordered");
                    assert!(used.insert(a) && used.insert(b), "shard conflict in round");
                    assert!(seen.insert((a, b)), "pair ({a},{b}) scheduled twice");
                }
            }
            let expected = shards * (shards - 1) / 2;
            assert_eq!(seen.len(), expected, "shards={shards}");
        }
    }

    /// One-bit push epidemic, shardable: snapshot in the ctx, infection
    /// delta in the accumulator.
    struct ShardBitPush {
        infected: Vec<bool>,
        snapshot: Vec<bool>,
        count: usize,
    }

    impl EpidemicProtocol for ShardBitPush {
        fn site_count(&self) -> usize {
            self.infected.len()
        }
        fn finished(&self, _cycle: u32, _active: &[usize]) -> bool {
            self.count == self.infected.len()
        }
        fn begin_cycle(&mut self, _cycle: u32, _rng: &mut StdRng) {
            self.snapshot.clone_from(&self.infected);
        }
        fn contact(&mut self, _cycle: u32, i: usize, j: usize, _rng: &mut StdRng) -> ContactStats {
            let useful = u64::from(self.snapshot[i] && !self.infected[j]);
            if useful > 0 {
                self.infected[j] = true;
                self.count += 1;
            }
            ContactStats { sent: 1, useful }
        }
    }

    struct BitCtx<'p> {
        snapshot: &'p [bool],
    }

    impl ShardableProtocol for ShardBitPush {
        type Site = bool;
        type Ctx<'p>
            = BitCtx<'p>
        where
            Self: 'p;
        type Shard = usize;

        fn make_shard(&self) -> usize {
            0
        }
        fn split(&mut self) -> (BitCtx<'_>, &mut [bool]) {
            (
                BitCtx {
                    snapshot: &self.snapshot,
                },
                &mut self.infected,
            )
        }
        fn contact_sharded(
            ctx: &BitCtx<'_>,
            shard: &mut usize,
            _cycle: u32,
            pair: ContactPair<'_, bool>,
            _rng: &mut StdRng,
        ) -> ContactStats {
            let useful = u64::from(ctx.snapshot[pair.i] && !*pair.b);
            if useful > 0 {
                *pair.b = true;
                *shard += 1;
            }
            ContactStats { sent: 1, useful }
        }
        fn absorb(&mut self, shard: &mut usize) {
            self.count += *shard;
            *shard = 0;
        }
    }

    /// Records every observer event, for byte-identity comparisons.
    #[derive(Default, Debug, PartialEq, Eq)]
    struct EventLog {
        events: Vec<(u32, usize, usize, ContactStats)>,
        cycles: Vec<u32>,
    }

    impl<P: ?Sized> Observer<P> for EventLog {
        fn on_contact(&mut self, cycle: u32, i: usize, j: usize, stats: &ContactStats) {
            self.events.push((cycle, i, j, *stats));
        }
        fn on_cycle_end(&mut self, cycle: u32, _protocol: &P) {
            self.cycles.push(cycle);
        }
    }

    fn run_bit_push(
        n: usize,
        shards: usize,
        workers: usize,
        seed: u64,
    ) -> (EngineReport, Vec<bool>, EventLog) {
        let mut protocol = ShardBitPush {
            infected: {
                let mut v = vec![false; n];
                v[0] = true;
                v
            },
            snapshot: vec![false; n],
            count: 1,
        };
        let mut log = EventLog::default();
        let report = ShardedCycleEngine::new(shards).workers(workers).run(
            &mut protocol,
            &UniformPartners::new(n),
            seed,
            &mut log,
        );
        (report, protocol.infected, log)
    }

    #[test]
    fn sharded_run_completes_and_counts_match() {
        let (report, infected, log) = run_bit_push(64, 4, 1, 3);
        assert!(infected.iter().all(|&b| b));
        assert_eq!(report.totals.contacts, log.events.len() as u64);
        assert_eq!(report.totals.useful, 63, "each site infected exactly once");
    }

    #[test]
    fn output_is_invariant_under_worker_count() {
        for shards in [1, 3, 4, 8] {
            let reference = run_bit_push(96, shards, 1, 7);
            for workers in [2, 3, 8] {
                let parallel = run_bit_push(96, shards, workers, 7);
                assert_eq!(reference, parallel, "shards={shards} workers={workers}");
            }
        }
    }

    #[test]
    fn shard_count_changes_the_rng_universe_but_stays_deterministic() {
        let a = run_bit_push(96, 4, 1, 7);
        let b = run_bit_push(96, 4, 1, 7);
        assert_eq!(a, b, "same (seed, shards) is bit-identical");
        let c = run_bit_push(96, 8, 1, 7);
        assert_ne!(
            a.2.events, c.2.events,
            "different shard counts draw different streams"
        );
        assert!(c.1.iter().all(|&x| x), "still converges at 8 shards");
    }

    #[test]
    fn more_workers_than_tasks_is_safe() {
        let (report, infected, _) = run_bit_push(16, 2, 64, 1);
        assert!(infected.iter().all(|&b| b));
        assert!(report.cycles > 0);
    }

    #[test]
    fn max_cycles_bounds_the_sharded_run() {
        struct Never {
            sites: Vec<()>,
        }
        impl EpidemicProtocol for Never {
            fn site_count(&self) -> usize {
                self.sites.len()
            }
            fn finished(&self, _cycle: u32, _active: &[usize]) -> bool {
                false
            }
            fn contact(
                &mut self,
                _cycle: u32,
                _i: usize,
                _j: usize,
                _rng: &mut StdRng,
            ) -> ContactStats {
                ContactStats::default()
            }
        }
        impl ShardableProtocol for Never {
            type Site = ();
            type Ctx<'p>
                = ()
            where
                Self: 'p;
            type Shard = ();
            fn make_shard(&self) {}
            fn split(&mut self) -> ((), &mut [()]) {
                ((), &mut self.sites)
            }
            fn contact_sharded(
                _ctx: &(),
                _shard: &mut (),
                _cycle: u32,
                _pair: ContactPair<'_, ()>,
                _rng: &mut StdRng,
            ) -> ContactStats {
                ContactStats::default()
            }
            fn absorb(&mut self, _shard: &mut ()) {}
        }
        let report = ShardedCycleEngine::new(2).max_cycles(17).run(
            &mut Never { sites: vec![(); 6] },
            &UniformPartners::new(6),
            0,
            &mut (),
        );
        assert_eq!(report.cycles, 17);
    }
}
