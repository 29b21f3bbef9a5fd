//! Dense key interning for the flat store columns.
//!
//! [`FlatStore`](crate::FlatStore) columns are at their best when keys are
//! small `Copy` values: rows move during sorting, and comparisons sit on
//! the lookup path. A [`KeyInterner`] maps an application's rich keys
//! (strings, tuples, …) to dense `u32` ids exactly once, *shared across
//! every replica of a simulation*, so all sites agree on the id of a key
//! and databases can be keyed by the id instead of the key itself.
//!
//! Interning must be shared (or at least deterministic) because epidemic
//! checksums compare database *contents* across sites: two replicas
//! holding the same logical entries under different ids would checksum
//! differently. With one interner handing out ids in first-seen order —
//! drivers intern the key universe up front — ids are as comparable across
//! sites as the original keys were.
//!
//! # Example
//!
//! ```
//! use epidemic_db::{Database, KeyInterner, SimClock, SiteId};
//!
//! let mut interner = KeyInterner::new();
//! let alice = interner.intern(&"user:alice");
//! let bob = interner.intern(&"user:bob");
//! assert_eq!(interner.intern(&"user:alice"), alice); // stable
//!
//! let mut clock = SimClock::new(SiteId::new(0));
//! let mut db: Database<u32, &str> = Database::new();
//! db.update(alice, "MV:PARC", &mut clock);
//! assert_eq!(db.get(&alice), Some(&"MV:PARC"));
//! assert_eq!(interner.resolve(bob), Some(&"user:bob"));
//! ```

use std::collections::BTreeMap;

/// Maps keys to dense `u32` ids in first-intern order; see the module docs.
#[derive(Debug, Clone, Default)]
pub struct KeyInterner<K> {
    ids: BTreeMap<K, u32>,
    keys: Vec<K>,
}

impl<K: Ord + Clone> KeyInterner<K> {
    /// Creates an empty interner.
    pub fn new() -> Self {
        KeyInterner {
            ids: BTreeMap::new(),
            keys: Vec::new(),
        }
    }

    /// The id for `key`, assigning the next dense id on first sight.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX` distinct keys are interned.
    pub fn intern(&mut self, key: &K) -> u32 {
        if let Some(&id) = self.ids.get(key) {
            return id;
        }
        let id = u32::try_from(self.keys.len()).expect("interner holds at most u32::MAX keys");
        self.ids.insert(key.clone(), id);
        self.keys.push(key.clone());
        id
    }

    /// The id previously assigned to `key`, if any. Borrow-only: never
    /// assigns.
    pub fn id(&self, key: &K) -> Option<u32> {
        self.ids.get(key).copied()
    }

    /// The key behind `id`, if assigned.
    pub fn resolve(&self, id: u32) -> Option<&K> {
        self.keys.get(id as usize)
    }

    /// Number of interned keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether no key has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Iterates `(id, key)` pairs in id (first-intern) order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &K)> {
        self.keys.iter().enumerate().map(|(i, k)| (i as u32, k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_and_stable() {
        let mut interner = KeyInterner::new();
        let a = interner.intern(&"a");
        let b = interner.intern(&"b");
        let c = interner.intern(&"c");
        assert_eq!([a, b, c], [0, 1, 2]);
        assert_eq!(interner.intern(&"b"), b);
        assert_eq!(interner.len(), 3);
    }

    #[test]
    fn resolve_round_trips() {
        let mut interner = KeyInterner::new();
        for key in ["x", "y", "z"] {
            let id = interner.intern(&key);
            assert_eq!(interner.resolve(id), Some(&key));
            assert_eq!(interner.id(&key), Some(id));
        }
        assert_eq!(interner.resolve(99), None);
        assert_eq!(interner.id(&"missing"), None);
    }

    #[test]
    fn iter_is_in_id_order() {
        let mut interner = KeyInterner::new();
        for key in ["delta", "alpha", "charlie"] {
            interner.intern(&key);
        }
        let pairs: Vec<_> = interner.iter().collect();
        assert_eq!(pairs, [(0, &"delta"), (1, &"alpha"), (2, &"charlie")]);
    }
}
