//! Differential property test for the in-place rumor walk.
//!
//! Push and pull contacts ([`rumor::contact_with`]) walk the sender's
//! hot list by position and apply every edit at the cursor. That must be
//! *observationally invisible*: this test pins it against a reference
//! written the snapshot way — copy the sender's hot keys, then re-find
//! each one through the keyed [`HotList`](epidemic_core::hot::HotList)
//! API. For random replica pairs (hot rumors whose entries are gone,
//! counters one short of the threshold, pending pull feedback, dormant
//! death certificates) and every [`RumorConfig`], both paths must agree
//! on the stats, both databases, both hot lists (order, counters and
//! pending flags) and the next RNG draw.

use epidemic_core::rumor::{self, Feedback, Removal, RumorConfig, RumorScratch, RumorStats};
use epidemic_core::{Direction, Replica};
use epidemic_db::{GcPolicy, SiteId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

type Rep = Replica<u8, u16>;

/// Keys that are written and shared.
const DATA_KEYS: u8 = 10;
/// Keys `DATA_KEYS..ALL_KEYS` are only ever made hot, never written: hot
/// rumors with no entry, which a contact must drop unsent.
const ALL_KEYS: u8 = 12;

// ---------------------------------------------------------------------------
// The reference: snapshot the hot keys, then re-find each key.
// ---------------------------------------------------------------------------

fn ref_offer(from: &mut Rep, to: &mut Rep, key: &u8) -> Option<bool> {
    let Some(entry) = from.db().entry(key) else {
        from.hot_mut().remove(key);
        return None;
    };
    Some(to.receive_rumor_ref(key, entry).was_useful())
}

fn ref_interest_loss(
    cfg: &RumorConfig,
    holder: &mut Rep,
    key: &u8,
    useful: bool,
    rng: &mut StdRng,
    stats: &mut RumorStats,
) {
    let counts_against = match cfg.feedback {
        Feedback::Feedback => !useful,
        Feedback::Blind => true,
    };
    if !counts_against {
        if useful && cfg.reset_on_useful {
            holder.hot_mut().mark_useful(key);
        }
        return;
    }
    match cfg.removal {
        Removal::Counter { k } => {
            if let Some(c) = holder.hot_mut().bump_counter(key, 1) {
                if c >= k {
                    holder.hot_mut().remove(key);
                    stats.deactivated += 1;
                }
            }
        }
        Removal::Coin { k } => {
            if rng.random::<f64>() < 1.0 / f64::from(k.max(1)) && holder.hot_mut().remove(key) {
                stats.deactivated += 1;
            }
        }
    }
}

fn ref_minimize(cfg: &RumorConfig, a: &mut Rep, b: &mut Rep, key: &u8, stats: &mut RumorStats) {
    let Removal::Counter { k } = cfg.removal else {
        return;
    };
    let ca = a.hot().counter(key).unwrap_or(0);
    let cb = b.hot().counter(key).unwrap_or(0);
    for (holder, bump) in [(&mut *a, ca <= cb), (&mut *b, cb <= ca)] {
        if !bump {
            continue;
        }
        if let Some(c) = holder.hot_mut().bump_counter(key, 1) {
            if c >= k {
                holder.hot_mut().remove(key);
                stats.deactivated += 1;
            }
        }
    }
}

fn snapshot(replica: &Rep) -> Vec<u8> {
    replica.hot().keys().copied().collect()
}

fn ref_push(
    cfg: &RumorConfig,
    sender: &mut Rep,
    receiver: &mut Rep,
    rng: &mut StdRng,
) -> RumorStats {
    let mut stats = RumorStats::default();
    for key in &snapshot(sender) {
        let Some(useful) = ref_offer(sender, receiver, key) else {
            continue;
        };
        stats.sent += 1;
        stats.useful += usize::from(useful);
        ref_interest_loss(cfg, sender, key, useful, rng, &mut stats);
    }
    stats
}

fn ref_pull(
    cfg: &RumorConfig,
    requester: &mut Rep,
    source: &mut Rep,
    rng: &mut StdRng,
) -> RumorStats {
    let mut stats = RumorStats::default();
    for key in &snapshot(source) {
        let Some(useful) = ref_offer(source, requester, key) else {
            continue;
        };
        stats.sent += 1;
        stats.useful += usize::from(useful);
        match cfg.removal {
            Removal::Counter { .. } => {
                let needed = cfg.feedback == Feedback::Feedback && useful;
                source.hot_mut().record_pending(key, needed);
            }
            Removal::Coin { .. } => ref_interest_loss(cfg, source, key, useful, rng, &mut stats),
        }
    }
    stats
}

fn ref_push_pull(cfg: &RumorConfig, a: &mut Rep, b: &mut Rep, rng: &mut StdRng) -> RumorStats {
    let mut stats = RumorStats::default();
    let (a_keys, b_keys) = (snapshot(a), snapshot(b));
    for key in &a_keys {
        let both_hot = b_keys.contains(key);
        let Some(useful) = ref_offer(a, b, key) else {
            continue;
        };
        stats.sent += 1;
        stats.useful += usize::from(useful);
        if cfg.minimization && both_hot && !useful {
            ref_minimize(cfg, a, b, key, &mut stats);
            continue;
        }
        ref_interest_loss(cfg, a, key, useful, rng, &mut stats);
    }
    for key in &b_keys {
        if cfg.minimization && a_keys.contains(key) {
            continue;
        }
        let Some(useful) = ref_offer(b, a, key) else {
            continue;
        };
        stats.sent += 1;
        stats.useful += usize::from(useful);
        ref_interest_loss(cfg, b, key, useful, rng, &mut stats);
    }
    stats
}

fn ref_contact(cfg: &RumorConfig, a: &mut Rep, b: &mut Rep, rng: &mut StdRng) -> RumorStats {
    match cfg.direction {
        Direction::Push => ref_push(cfg, a, b, rng),
        Direction::Pull => ref_pull(cfg, a, b, rng),
        Direction::PushPull => ref_push_pull(cfg, a, b, rng),
    }
}

// ---------------------------------------------------------------------------
// Random replica pairs.
// ---------------------------------------------------------------------------

/// One step of a pair's history. `pick` chooses among the side's hot
/// rumors by index, so the step always lands on one when there is any.
#[derive(Debug, Clone)]
enum Step {
    Write {
        on_b: bool,
        key: u8,
        value: u16,
    },
    /// The other side learns the entry quietly: a later offer is
    /// "already known".
    Share {
        from_b: bool,
        key: u8,
    },
    /// A hot rumor with no entry behind it.
    Ghost {
        on_b: bool,
        key: u8,
    },
    /// The side stops spreading a rumor it keeps holding.
    Cool {
        on_b: bool,
        pick: usize,
    },
    /// The rumor's counter is brought to `k − 1`: one more strike ends it.
    Threshold {
        on_b: bool,
        pick: usize,
    },
    Bump {
        on_b: bool,
        pick: usize,
    },
    /// Deferred feedback left by earlier pulls this cycle.
    Pending {
        on_b: bool,
        pick: usize,
        needed: bool,
    },
    /// The side holds a dormant death certificate for `key` that the other
    /// side's older hot copy would awaken.
    Dormant {
        on_b: bool,
        key: u8,
    },
    Advance {
        dt: u16,
    },
}

fn step() -> impl Strategy<Value = Step> {
    let side = any::<bool>;
    let data = || 0..DATA_KEYS;
    prop_oneof![
        (side(), data(), any::<u16>()).prop_map(|(on_b, key, value)| Step::Write {
            on_b,
            key,
            value
        }),
        (side(), data(), any::<u16>()).prop_map(|(on_b, key, value)| Step::Write {
            on_b,
            key,
            value
        }),
        (side(), data()).prop_map(|(from_b, key)| Step::Share { from_b, key }),
        (side(), data()).prop_map(|(from_b, key)| Step::Share { from_b, key }),
        (side(), DATA_KEYS..ALL_KEYS).prop_map(|(on_b, key)| Step::Ghost { on_b, key }),
        (side(), any::<usize>()).prop_map(|(on_b, pick)| Step::Cool { on_b, pick }),
        (side(), any::<usize>()).prop_map(|(on_b, pick)| Step::Threshold { on_b, pick }),
        (side(), any::<usize>()).prop_map(|(on_b, pick)| Step::Bump { on_b, pick }),
        (side(), any::<usize>(), side()).prop_map(|(on_b, pick, needed)| Step::Pending {
            on_b,
            pick,
            needed
        }),
        (side(), data()).prop_map(|(on_b, key)| Step::Dormant { on_b, key }),
        (1u16..200).prop_map(|dt| Step::Advance { dt }),
    ]
}

fn sides<'r>(a: &'r mut Rep, b: &'r mut Rep, on_b: bool) -> (&'r mut Rep, &'r mut Rep) {
    if on_b {
        (b, a)
    } else {
        (a, b)
    }
}

fn picked(side: &Rep, pick: usize) -> Option<u8> {
    let hot = side.hot();
    hot.keys().nth(pick % hot.len().max(1)).copied()
}

/// Replays a history onto a fresh pair, for threshold `k`.
fn build(hist: &[Step], k: u32) -> (Rep, Rep) {
    let mut a: Rep = Replica::new(SiteId::new(0));
    let mut b: Rep = Replica::new(SiteId::new(1));
    let mut time = 10;
    for step in hist {
        time += 10;
        a.advance_clock(time);
        b.advance_clock(time);
        match *step {
            Step::Write { on_b, key, value } => {
                sides(&mut a, &mut b, on_b).0.client_update(key, value);
            }
            Step::Share { from_b, key } => {
                let (from, to) = sides(&mut a, &mut b, from_b);
                if let Some(entry) = from.db().entry(&key) {
                    to.receive_quietly_ref(&key, entry);
                }
            }
            Step::Ghost { on_b, key } => sides(&mut a, &mut b, on_b).0.hot_mut().insert(key),
            Step::Cool { on_b, pick } => {
                let side = sides(&mut a, &mut b, on_b).0;
                if let Some(key) = picked(side, pick) {
                    side.hot_mut().remove(&key);
                }
            }
            Step::Threshold { on_b, pick } => {
                let side = sides(&mut a, &mut b, on_b).0;
                if let Some(key) = picked(side, pick) {
                    let now = side.hot().counter(&key).unwrap_or(0);
                    side.hot_mut()
                        .bump_counter(&key, (k - 1).saturating_sub(now));
                }
            }
            Step::Bump { on_b, pick } => {
                let side = sides(&mut a, &mut b, on_b).0;
                if let Some(key) = picked(side, pick) {
                    side.hot_mut().bump_counter(&key, 1);
                }
            }
            Step::Pending { on_b, pick, needed } => {
                let side = sides(&mut a, &mut b, on_b).0;
                if let Some(key) = picked(side, pick) {
                    side.hot_mut().record_pending(&key, needed);
                }
            }
            Step::Dormant { on_b, key } => {
                let (holder, other) = sides(&mut a, &mut b, on_b);
                // The other side writes; the holder learns it, deletes it
                // later with itself as retention site, and lets the
                // certificate age past τ₁.
                other.client_update(key, 7);
                holder.receive_quietly_ref(&key, other.db().entry(&key).expect("just written"));
                holder.advance_clock(time + 5);
                let site = holder.site();
                holder.client_delete_with_retention(&key, vec![site]);
                time += 100;
                holder.advance_clock(time);
                holder.collect_garbage(GcPolicy::Dormant {
                    tau1: 50,
                    tau2: 100_000,
                });
            }
            Step::Advance { dt } => time += u64::from(dt),
        }
    }
    (a, b)
}

fn every_config(k: u32) -> Vec<RumorConfig> {
    let mut configs = Vec::new();
    for direction in [Direction::Push, Direction::Pull, Direction::PushPull] {
        for feedback in [Feedback::Feedback, Feedback::Blind] {
            for removal in [Removal::Counter { k }, Removal::Coin { k }] {
                for reset in [false, true] {
                    let cfg =
                        RumorConfig::new(direction, feedback, removal).with_reset_on_useful(reset);
                    configs.push(cfg);
                    configs.push(cfg.with_minimization());
                }
            }
        }
    }
    configs
}

fn assert_same(want: &Rep, got: &Rep, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(want.db(), got.db(), "{} db", what);
    prop_assert_eq!(
        want.db().checksum(),
        got.db().checksum(),
        "{} checksum",
        what
    );
    prop_assert_eq!(
        want.db().dormant_len(),
        got.db().dormant_len(),
        "{} dormant",
        what
    );
    for key in 0..ALL_KEYS {
        prop_assert_eq!(
            want.db().dormant_certificate(&key),
            got.db().dormant_certificate(&key),
            "{} dormant {}",
            what,
            key
        );
    }
    prop_assert_eq!(want.hot(), got.hot(), "{} hot list", what);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any pair and every configuration, a contact each way through
    /// one dirty reused scratch matches the snapshot reference: same
    /// stats, databases, checksums, dormant certificates, hot lists and
    /// RNG position.
    #[test]
    fn in_place_walk_matches_snapshot_reference(
        hist in prop::collection::vec(step(), 0..40),
        seed in any::<u64>(),
    ) {
        let mut scratch = RumorScratch::new();
        for k in 1..=4 {
            let (a0, b0) = build(&hist, k);
            for cfg in every_config(k) {
                let (mut ar, mut br) = (a0.clone(), b0.clone());
                let (mut ax, mut bx) = (a0.clone(), b0.clone());
                let mut rng_r = StdRng::seed_from_u64(seed);
                let mut rng_x = StdRng::seed_from_u64(seed);
                for forward in [true, false] {
                    let (want, got) = if forward {
                        (
                            ref_contact(&cfg, &mut ar, &mut br, &mut rng_r),
                            rumor::contact_with(&cfg, &mut ax, &mut bx, &mut rng_x, &mut scratch),
                        )
                    } else {
                        (
                            ref_contact(&cfg, &mut br, &mut ar, &mut rng_r),
                            rumor::contact_with(&cfg, &mut bx, &mut ax, &mut rng_x, &mut scratch),
                        )
                    };
                    let what = format!("{cfg:?} forward={forward}");
                    prop_assert_eq!(want, got, "stats: {}", what);
                    assert_same(&ar, &ax, &format!("a, {what}"))?;
                    assert_same(&br, &bx, &format!("b, {what}"))?;
                    prop_assert_eq!(rng_r.random::<u64>(), rng_x.random::<u64>(), "rng: {}", what);
                }
            }
        }
    }
}
