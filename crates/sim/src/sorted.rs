//! [`SortedMap`]: an ordered map kept as one vector sorted by key.
//!
//! Some bookkeeping holds only a handful of entries at a time under keys
//! that grow over a run: per-command watchdogs keyed by completion token,
//! in-flight OS faults keyed by file page. A `BTreeMap` pays a node
//! allocation and a tree search for each insert and remove of such a
//! short-lived entry; a [`DenseMap`](crate::DenseMap) would size itself by
//! the largest key ever seen. A [`SortedMap`] stores the entries in a
//! vector sorted by key: a lookup is a binary search, an insert of a key
//! above every present one (the common case when keys are issued in
//! increasing order) is a push, and iteration walks the vector in
//! ascending key order, as a `BTreeMap`'s would.
//!
//! Inserting or removing below the largest key shifts the entries above
//! it, so use it only where the map stays small.

/// An ordered map from `K` to `V`, backed by a vector sorted by key.
///
/// Offers the subset of the `BTreeMap` API the simulator uses; iteration
/// order is ascending key order.
///
/// ```
/// use hwdp_sim::SortedMap;
///
/// let mut m = SortedMap::new();
/// m.insert((1, 7), "seven");
/// m.insert((0, 9), "nine");
/// assert_eq!(m.get(&(1, 7)), Some(&"seven"));
/// let keys: Vec<_> = m.keys().copied().collect();
/// assert_eq!(keys, [(0, 9), (1, 7)]);
/// ```
#[derive(Clone, Debug)]
pub struct SortedMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K, V> Default for SortedMap<K, V> {
    fn default() -> Self {
        SortedMap { entries: Vec::new() }
    }
}

impl<K: Ord, V> SortedMap<K, V> {
    /// Creates an empty map; nothing is allocated until the first insert.
    pub const fn new() -> Self {
        SortedMap { entries: Vec::new() }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the map holds no entry.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn find(&self, key: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(key))
    }

    /// Whether `key` has an entry.
    pub fn contains_key(&self, key: &K) -> bool {
        self.find(key).is_ok()
    }

    /// The value at `key`, if any.
    pub fn get(&self, key: &K) -> Option<&V> {
        let i = self.find(key).ok()?;
        Some(&self.entries[i].1)
    }

    /// Mutable access to the value at `key`, if any.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let i = self.find(key).ok()?;
        Some(&mut self.entries[i].1)
    }

    /// Stores `value` at `key`, returning the value it replaced. A key
    /// above every present one is appended without a search.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if self.entries.last().map_or(true, |(last, _)| *last < key) {
            self.entries.push((key, value));
            return None;
        }
        match self.find(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    /// Removes and returns the value at `key`, if any.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let i = self.find(key).ok()?;
        Some(self.entries.remove(i).1)
    }

    /// Keeps only the entries for which `keep` returns `true`, visiting
    /// them in ascending key order.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &mut V) -> bool) {
        self.entries.retain_mut(|(k, v)| keep(k, v));
    }

    /// `(&key, &value)` pairs in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> + '_ {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = &K> + '_ {
        self.entries.iter().map(|(k, _)| k)
    }
}

/// Owned `(key, value)` pairs in ascending key order.
impl<K, V> IntoIterator for SortedMap<K, V> {
    type Item = (K, V);
    type IntoIter = std::vec::IntoIter<(K, V)>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_track_len() {
        let mut m = SortedMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(3, 'a'), None);
        assert_eq!(m.insert(3, 'b'), Some('a'), "replacing keeps len");
        assert_eq!(m.insert(1, 'c'), None, "insert below the last key");
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(&3), Some(&'b'));
        assert_eq!(m.get(&2), None);
        assert!(m.contains_key(&1));
        assert_eq!(m.remove(&3), Some('b'));
        assert_eq!(m.remove(&3), None, "double remove");
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn iteration_is_in_key_order() {
        let mut m = SortedMap::new();
        for k in [9, 0, 4, 7] {
            m.insert(k, k * 10);
        }
        m.retain(|&k, v| {
            *v += 1;
            k != 7
        });
        assert_eq!(m.iter().collect::<Vec<_>>(), [(&0, &1), (&4, &41), (&9, &91)]);
        assert_eq!(m.into_iter().map(|(k, _)| k).collect::<Vec<_>>(), [0, 4, 9]);
    }
}
