//! Per-replica hot-rumor state (paper §1.4).
//!
//! "The sender keeps a list of infective updates, and the recipient tries to
//! insert each update into its own database and adds all new updates to its
//! infective list. The only complication lies in deciding when to remove an
//! update from the infective list." The removal rules themselves live in
//! [`rumor`](crate::rumor); this module is the list.

/// One hot rumor: a key the replica is actively spreading, with the
/// unnecessary-contact counter used by the counter removal rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotItem<K> {
    key: K,
    counter: u32,
    // Deferred feedback accumulated during the current cycle, used by the
    // pull rule of Table 3's footnote: "if any recipient needed the update
    // then the counter is reset; if all recipients did not need the update
    // then one is added".
    pending_needed: bool,
    pending_useless: bool,
}

impl<K> HotItem<K> {
    /// The rumor's key.
    pub fn key(&self) -> &K {
        &self.key
    }

    /// Unnecessary contacts accumulated so far.
    pub fn counter(&self) -> u32 {
        self.counter
    }
}

/// The infective list of one replica: hot rumors in *local activity order*
/// (most recently useful first, per the §1.5 combination with peel back).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HotList<K> {
    items: Vec<HotItem<K>>,
}

impl<K: Eq + Clone> HotList<K> {
    /// Creates an empty list.
    pub fn new() -> Self {
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

    fn position(&self, key: &K) -> Option<usize> {
        self.items.iter().position(|i| &i.key == key)
    }

    /// Whether `key` is hot here.
    pub fn contains(&self, key: &K) -> bool {
        self.items.iter().any(|i| &i.key == key)
    }

    /// The counter for `key`, if hot.
    pub fn counter(&self, key: &K) -> Option<u32> {
        self.items.iter().find(|i| &i.key == key).map(|i| i.counter)
    }

    /// Makes `key` hot with a zero counter (new rumor, or reactivated death
    /// certificate per §2.3). Re-inserting an already-hot key moves it to
    /// the front and resets its counter.
    pub fn insert(&mut self, key: K) {
        let fresh = HotItem {
            key,
            counter: 0,
            pending_needed: false,
            pending_useless: false,
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
                self.items.remove(pos);
                true
            }
            None => false,
        }
    }

    /// Drops every rumor.
    pub fn clear(&mut self) {
        self.items.clear();
    }

    /// Iterates the hot keys in activity order (hottest first).
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.items.iter().map(|i| &i.key)
    }

    /// Iterates the hot items in activity order.
    pub fn iter(&self) -> impl Iterator<Item = &HotItem<K>> {
        self.items.iter()
    }

    /// Snapshot of the hot keys (hottest first). Convenient when the caller
    /// must mutate the replica while walking its rumors.
    pub fn keys_snapshot(&self) -> Vec<K> {
        self.items.iter().map(|i| i.key.clone()).collect()
    }

    /// Adds `delta` unnecessary contacts to `key`'s counter and returns the
    /// new value; `None` if the key is not hot.
    pub fn bump_counter(&mut self, key: &K, delta: u32) -> Option<u32> {
        self.items.iter_mut().find(|i| &i.key == key).map(|i| {
            i.counter += delta;
            i.counter
        })
    }

    /// Resets `key`'s counter to zero (a useful contact under the
    /// reset-on-useful rule) and moves it to the front of the activity
    /// order.
    pub fn mark_useful(&mut self, key: &K) {
        if let Some(pos) = self.position(key) {
            self.items[..=pos].rotate_right(1);
            self.items[0].counter = 0;
        }
    }

    /// Records deferred feedback for `key` during the current cycle (pull
    /// semantics, Table 3 footnote). Applied by [`HotList::end_cycle`].
    pub fn record_pending(&mut self, key: &K, needed: bool) {
        if let Some(item) = self.items.iter_mut().find(|i| &i.key == key) {
            if needed {
                item.pending_needed = true;
            } else {
                item.pending_useless = true;
            }
        }
    }

    /// Applies the Table 3 footnote at end of cycle: for each rumor that was
    /// pulled at least once, reset the counter if *any* recipient needed it
    /// (when `reset_on_useful` is set — the footnote's rule), otherwise add
    /// one. Rumors whose counter reaches `k` are removed.
    ///
    /// Returns the keys that ceased to be hot.
    pub fn end_cycle(&mut self, k: u32, reset_on_useful: bool) -> Vec<K> {
        let mut deactivated = Vec::new();
        self.end_cycle_retain(k, reset_on_useful, |key| deactivated.push(key.clone()));
        deactivated
    }

    /// [`HotList::end_cycle`] when only the number of deactivations is
    /// needed: identical bookkeeping, no key collection, no allocation.
    pub fn end_cycle_count(&mut self, k: u32, reset_on_useful: bool) -> usize {
        let mut deactivated = 0;
        self.end_cycle_retain(k, reset_on_useful, |_| deactivated += 1);
        deactivated
    }

    fn end_cycle_retain(
        &mut self,
        k: u32,
        reset_on_useful: bool,
        mut on_deactivate: impl FnMut(&K),
    ) {
        for item in &mut self.items {
            if item.pending_needed {
                if reset_on_useful {
                    item.counter = 0;
                }
            } else if item.pending_useless {
                item.counter += 1;
            }
            item.pending_needed = false;
            item.pending_useless = false;
        }
        self.items.retain(|i| {
            if i.counter >= k {
                on_deactivate(&i.key);
                false
            } else {
                true
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_remove() {
        let mut list = HotList::new();
        assert!(list.is_empty());
        list.insert("a");
        list.insert("b");
        assert_eq!(list.len(), 2);
        assert!(list.contains(&"a"));
        assert!(list.remove(&"a"));
        assert!(!list.remove(&"a"));
        assert_eq!(list.len(), 1);
    }

    #[test]
    fn reinsert_resets_counter_and_moves_to_front() {
        let mut list = HotList::new();
        list.insert("a");
        list.insert("b");
        list.bump_counter(&"a", 3);
        list.insert("a");
        assert_eq!(list.counter(&"a"), Some(0));
        assert_eq!(list.keys_snapshot(), ["a", "b"]);
        assert_eq!(list.len(), 2);
    }

    #[test]
    fn bump_counter_accumulates() {
        let mut list = HotList::new();
        list.insert("a");
        assert_eq!(list.bump_counter(&"a", 1), Some(1));
        assert_eq!(list.bump_counter(&"a", 2), Some(3));
        assert_eq!(list.bump_counter(&"zzz", 1), None);
    }

    #[test]
    fn mark_useful_resets_and_promotes() {
        let mut list = HotList::new();
        list.insert("a");
        list.insert("b"); // b now in front
        list.bump_counter(&"a", 2);
        list.mark_useful(&"a");
        assert_eq!(list.counter(&"a"), Some(0));
        assert_eq!(list.keys_snapshot(), ["a", "b"]);
    }

    /// The list's order is defined by "drop the key wherever it is, then
    /// put it in front"; the one-pass edits must produce exactly that.
    #[test]
    fn one_pass_edits_match_retain_then_push_front() {
        // The old definition, on bare `(key, counter)` pairs.
        fn drop_key(model: &mut Vec<(u8, u32)>, key: u8) -> Option<u32> {
            let counter = model.iter().find(|(k, _)| *k == key).map(|(_, c)| *c);
            model.retain(|(k, _)| *k != key);
            counter
        }
        let mut list = HotList::new();
        let mut model: Vec<(u8, u32)> = Vec::new();
        // A scripted history over six keys that re-inserts hot keys at
        // the front, middle and back, and edits absent keys too.
        for step in 0..400u32 {
            let key = ((step * 7 + step / 5) % 6) as u8;
            match step % 5 {
                0 | 1 => {
                    list.insert(key);
                    drop_key(&mut model, key);
                    model.insert(0, (key, 0));
                }
                2 => {
                    let bumped = list.bump_counter(&key, 1);
                    let slot = model.iter_mut().find(|(k, _)| *k == key);
                    assert_eq!(bumped.is_some(), slot.is_some());
                    if let Some((_, c)) = slot {
                        *c += 1;
                    }
                }
                3 => {
                    list.mark_useful(&key);
                    if drop_key(&mut model, key).is_some() {
                        model.insert(0, (key, 0));
                    }
                }
                _ => {
                    let removed = list.remove(&key);
                    assert_eq!(removed, drop_key(&mut model, key).is_some());
                }
            }
            let got: Vec<(u8, u32)> = list.iter().map(|i| (*i.key(), i.counter())).collect();
            assert_eq!(got, model, "after step {step}");
        }
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
        let mut removed = list.end_cycle(1, true);
        removed.sort_unstable();
        // "bump" reached k=1 and is deactivated; "idle" already sat at the
        // threshold; "reset" went back to 0 and stays hot.
        assert_eq!(removed, ["bump", "idle"]);
        assert_eq!(list.counter(&"reset"), Some(0));
        assert!(!list.contains(&"bump"));
    }

    #[test]
    fn end_cycle_removes_any_item_at_threshold() {
        let mut list = HotList::new();
        list.insert("a");
        list.bump_counter(&"a", 2);
        let removed = list.end_cycle(2, true);
        assert_eq!(removed, ["a"]);
        assert!(list.is_empty());
    }
}
