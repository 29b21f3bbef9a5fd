//! Per-replica hot-rumor state (paper §1.4).
//!
//! "The sender keeps a list of infective updates, and the recipient tries to
//! insert each update into its own database and adds all new updates to its
//! infective list. The only complication lies in deciding when to remove an
//! update from the infective list." This module is the list: each hot key
//! beside its [`Interest`] record, in activity order. The removal rules
//! that change a record live in [`rumor`](crate::rumor), where a
//! single-update run, which keeps one record per site and no list, applies
//! the same ones.

use crate::rumor::{Interest, RumorConfig};

/// One hot rumor: a key the replica is actively spreading, and its
/// interest record.
#[derive(Debug, Clone, PartialEq, Eq)]
struct HotItem<K> {
    key: K,
    interest: Interest,
}

/// The infective list of one replica: hot rumors in *local activity order*
/// (most recently useful first, per the §1.5 combination with peel back).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HotList<K> {
    items: Vec<HotItem<K>>,
}

impl<K: Eq + Clone> HotList<K> {
    /// Creates an empty list.
    pub(crate) fn new() -> Self {
        HotList { items: Vec::new() }
    }

    /// Number of hot rumors.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether no rumor is hot — the replica is not infective.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Where `key` sits in activity order, if hot: the index the
    /// positional edits (`*_at`) take.
    pub(crate) fn position(&self, key: &K) -> Option<usize> {
        self.items.iter().position(|i| &i.key == key)
    }

    /// The key at position `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len()`, as do all the positional edits.
    pub(crate) fn key_at(&self, idx: usize) -> &K {
        &self.items[idx].key
    }

    /// The interest record of the rumor at position `idx`.
    pub(crate) fn interest_at_mut(&mut self, idx: usize) -> &mut Interest {
        &mut self.items[idx].interest
    }

    /// The counter for `key`, if hot.
    pub fn counter(&self, key: &K) -> Option<u32> {
        self.items
            .iter()
            .find(|i| &i.key == key)
            .map(|i| i.interest.counter)
    }

    /// Makes `key` hot with a fresh interest record (new rumor, or
    /// reactivated death certificate per §2.3). Re-inserting an already-hot
    /// key moves it to the front and renews its record.
    pub fn insert(&mut self, key: K) {
        let fresh = HotItem {
            key,
            interest: Interest::default(),
        };
        // Keys are unique in the list: an already-hot key is rotated to
        // the front in the same pass that finds it.
        match self.position(&fresh.key) {
            Some(pos) => {
                self.items[..=pos].rotate_right(1);
                self.items[0] = fresh;
            }
            None => self.items.insert(0, fresh),
        }
    }

    /// Removes `key` from the hot list (the rumor becomes *removed* in the
    /// epidemic sense). Returns whether it was present.
    pub fn remove(&mut self, key: &K) -> bool {
        match self.position(key) {
            Some(pos) => {
                self.remove_at(pos);
                true
            }
            None => false,
        }
    }

    /// Removes the rumor at position `idx`; the item after it moves up to
    /// `idx`.
    pub(crate) fn remove_at(&mut self, idx: usize) {
        self.items.remove(idx);
    }

    /// Drops every rumor.
    pub fn clear(&mut self) {
        self.items.clear();
    }

    /// Iterates the hot keys in activity order (hottest first).
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.items.iter().map(|i| &i.key)
    }

    /// Adds `delta` unnecessary contacts to `key`'s counter and returns the
    /// new value; `None` if the key is not hot.
    pub fn bump_counter(&mut self, key: &K, delta: u32) -> Option<u32> {
        let pos = self.position(key)?;
        let interest = &mut self.items[pos].interest;
        interest.counter += delta;
        Some(interest.counter)
    }

    /// Resets `key`'s counter to zero (a useful contact under the
    /// reset-on-useful rule) and moves it to the front of the activity
    /// order.
    pub fn mark_useful(&mut self, key: &K) {
        if let Some(pos) = self.position(key) {
            self.items[pos].interest.counter = 0;
            self.promote_at(pos);
        }
    }

    /// Moves the rumor at position `idx` to the front of the activity
    /// order: the items before it move down one place, so the one after it
    /// stays at `idx + 1`.
    pub(crate) fn promote_at(&mut self, idx: usize) {
        self.items[..=idx].rotate_right(1);
    }

    /// Records deferred feedback for `key` during the current cycle (pull
    /// semantics, Table 3 footnote). Applied at the end of the cycle by
    /// [`rumor::end_cycle`](crate::rumor::end_cycle).
    pub fn record_pending(&mut self, key: &K, needed: bool) {
        if let Some(pos) = self.position(key) {
            self.items[pos].interest.pend(needed);
        }
    }

    /// Settles every rumor's cycle under `cfg` ([`Interest::settle`], the
    /// Table 3 footnote) and removes the rumors whose interest is lost.
    ///
    /// Returns how many rumors ceased to be hot.
    pub(crate) fn end_cycle(&mut self, cfg: &RumorConfig) -> usize {
        let before = self.items.len();
        self.items.retain_mut(|item| item.interest.settle(cfg));
        before - self.items.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The list's order is defined by "drop the key wherever it is, then
    /// put it in front"; the one-pass edits, keyed and positional, must
    /// produce exactly that.
    #[test]
    fn one_pass_edits_match_retain_then_push_front() {
        // The definition, on bare `(key, counter, pending_needed,
        // pending_useless)` tuples.
        type Model = Vec<(u8, u32, bool, bool)>;
        fn drop_key(model: &mut Model, key: u8) -> Option<(u8, u32, bool, bool)> {
            let item = model.iter().find(|m| m.0 == key).copied();
            model.retain(|m| m.0 != key);
            item
        }
        fn promote(model: &mut Model, key: u8) -> bool {
            let Some((_, _, needed, useless)) = drop_key(model, key) else {
                return false;
            };
            model.insert(0, (key, 0, needed, useless));
            true
        }
        fn pend(item: &mut (u8, u32, bool, bool), needed: bool) {
            if needed {
                item.2 = true;
            } else {
                item.3 = true;
            }
        }
        let mut list = HotList::new();
        let mut model: Model = Vec::new();
        // A scripted history over six keys that re-inserts hot keys at
        // the front, middle and back, makes every keyed edit on hot and
        // absent keys, bumps by 1 to 3, and applies every positional edit
        // (a counter bump or a pending flag on the record, a promotion, a
        // removal) at every position the list reaches.
        for step in 0..1_000u32 {
            let key = ((step * step / 7) % 6) as u8;
            let op = step % 10;
            if op >= 5 && model.is_empty() {
                continue;
            }
            let idx = (step / 10) as usize % model.len().max(1);
            if op >= 5 {
                assert_eq!(*list.key_at(idx), model[idx].0, "step {step}");
            }
            match op {
                0 | 1 => {
                    list.insert(key);
                    drop_key(&mut model, key);
                    model.insert(0, (key, 0, false, false));
                }
                2 => {
                    let delta = 1 + step % 3;
                    let bumped = list.bump_counter(&key, delta);
                    let slot = model.iter_mut().find(|m| m.0 == key);
                    assert_eq!(bumped.is_some(), slot.is_some());
                    if let Some(m) = slot {
                        m.1 += delta;
                        assert_eq!(bumped, Some(m.1));
                    }
                }
                3 => {
                    list.mark_useful(&key);
                    promote(&mut model, key);
                }
                4 => {
                    let removed = list.remove(&key);
                    assert_eq!(removed, drop_key(&mut model, key).is_some());
                }
                5 => {
                    model[idx].1 += 1;
                    list.interest_at_mut(idx).counter += 1;
                }
                6 => {
                    list.promote_at(idx);
                    let item = model.remove(idx);
                    model.insert(0, item);
                }
                7 => {
                    list.remove_at(idx);
                    model.remove(idx);
                }
                8 => {
                    list.interest_at_mut(idx).pend(step % 3 == 0);
                    pend(&mut model[idx], step % 3 == 0);
                }
                _ => {
                    list.record_pending(&key, step % 4 == 1);
                    if let Some(m) = model.iter_mut().find(|m| m.0 == key) {
                        pend(m, step % 4 == 1);
                    }
                }
            }
            let got: Model = list
                .items
                .iter()
                .map(|HotItem { key, interest: i }| {
                    (*key, i.counter, i.pending_needed, i.pending_useless)
                })
                .collect();
            assert_eq!(got, model, "after step {step}");
            assert_eq!(list.position(&key), model.iter().position(|m| m.0 == key));
            assert_eq!(list.len(), model.len());
            assert_eq!(list.is_empty(), model.is_empty());
        }
    }

    /// Table 3's pull rule with counters, `k` and the footnote's reset.
    fn pull(k: u32) -> RumorConfig {
        use crate::{Direction, Feedback, Removal};
        RumorConfig::new(Direction::Pull, Feedback::Feedback, Removal::Counter { k })
    }

    #[test]
    fn end_cycle_applies_footnote_rule() {
        let mut list = HotList::new();
        list.insert("reset"); // pulled by someone who needed it
        list.insert("bump"); // pulled only by those who knew it
        list.insert("idle"); // not pulled at all
        list.bump_counter(&"reset", 1);
        list.bump_counter(&"idle", 1);
        list.record_pending(&"reset", true);
        list.record_pending(&"reset", false); // mixed: any-needed wins
        list.record_pending(&"bump", false);
        // "bump" reached k=1 and is deactivated; "idle" already sat at the
        // threshold; "reset" went back to 0 and stays hot.
        assert_eq!(list.end_cycle(&pull(1)), 2);
        assert!(list.keys().eq(&["reset"]));
        assert_eq!(list.counter(&"reset"), Some(0));
        assert_eq!(list.counter(&"bump"), None);
    }

    #[test]
    fn end_cycle_removes_any_item_at_threshold() {
        let mut list = HotList::new();
        list.insert("a");
        list.bump_counter(&"a", 2);
        assert_eq!(list.end_cycle(&pull(2)), 1);
        assert!(list.is_empty());
    }
}
