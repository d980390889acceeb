//! [`DenseMap`]: an ordered map over dense integer keys.
//!
//! Much of the simulator's bookkeeping is keyed by ids that are dense by
//! construction: file ids and page indices, LBAs handed out by a bump
//! allocator, fast-tier slots. A `BTreeMap` over such keys pays a tree
//! search on every lookup for an ordering the key already has. A
//! [`DenseMap`] stores one `Option<V>` slot per key in a `Vec`, so a lookup
//! is an index, and iteration walks the slots in ascending key order —
//! the same order a `BTreeMap` gives, with no hashing involved (see the
//! determinism policy in DESIGN.md).
//!
//! Memory is proportional to the largest key ever inserted, not to the
//! number of entries, so use it only where keys are dense.

/// An ordered map from dense `u64` keys to `V`, backed by a slot vector.
///
/// Offers the subset of the `BTreeMap` API the simulator uses; iteration
/// order is ascending key order.
///
/// ```
/// use hwdp_sim::DenseMap;
///
/// let mut m = DenseMap::new();
/// m.insert(7, "seven");
/// m.insert(2, "two");
/// assert_eq!(m.get(7), Some(&"seven"));
/// assert_eq!(m.len(), 2);
/// let keys: Vec<u64> = m.keys().collect();
/// assert_eq!(keys, [2, 7]);
/// ```
#[derive(Clone, Debug)]
pub struct DenseMap<V> {
    slots: Vec<Option<V>>,
    len: usize,
}

impl<V> Default for DenseMap<V> {
    fn default() -> Self {
        DenseMap::new()
    }
}

impl<V> DenseMap<V> {
    /// Creates an empty map; nothing is allocated until the first insert.
    pub const fn new() -> Self {
        DenseMap { slots: Vec::new(), len: 0 }
    }

    /// Number of occupied keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no key is occupied.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value at `key`, if any.
    pub fn get(&self, key: u64) -> Option<&V> {
        self.slots.get(slot_index(key))?.as_ref()
    }

    /// Mutable access to the value at `key`, if any.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        self.slots.get_mut(slot_index(key))?.as_mut()
    }

    /// Stores `value` at `key`, returning the value it replaced. Grows the
    /// slot vector to cover `key` if needed.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        let i = self.grow_to(key);
        let prev = self.slots[i].replace(value);
        if prev.is_none() {
            self.len += 1;
        }
        prev
    }

    /// The value at `key`, inserting `make()` first if the key is vacant
    /// (`BTreeMap::entry(key).or_insert_with(make)`).
    pub fn get_or_insert_with(&mut self, key: u64, make: impl FnOnce() -> V) -> &mut V {
        let i = self.grow_to(key);
        let slot = &mut self.slots[i];
        if slot.is_none() {
            self.len += 1;
        }
        slot.get_or_insert_with(make)
    }

    /// Removes and returns the value at `key`, if any. The slot vector
    /// keeps its length.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let prev = self.slots.get_mut(slot_index(key))?.take();
        if prev.is_some() {
            self.len -= 1;
        }
        prev
    }

    /// Removes every value whose key lies in `keys`. Costs nothing past
    /// the highest key ever inserted.
    pub fn remove_range(&mut self, keys: std::ops::Range<u64>) {
        let end = slot_index(keys.end).min(self.slots.len());
        let start = slot_index(keys.start).min(end);
        for slot in &mut self.slots[start..end] {
            if slot.take().is_some() {
                self.len -= 1;
            }
        }
    }

    /// `(key, &value)` pairs in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> + '_ {
        self.slots.iter().enumerate().filter_map(|(k, v)| Some((k as u64, v.as_ref()?)))
    }

    /// `(key, &mut value)` pairs in ascending key order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (u64, &mut V)> + '_ {
        self.slots.iter_mut().enumerate().filter_map(|(k, v)| Some((k as u64, v.as_mut()?)))
    }

    /// Occupied keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter().map(|(k, _)| k)
    }

    /// Values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.slots.iter().filter_map(Option::as_ref)
    }

    /// Grows the slot vector to cover `key`; returns its slot index.
    fn grow_to(&mut self, key: u64) -> usize {
        let i = slot_index(key);
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        i
    }
}

/// Slot index of `key`. A key that does not fit a `usize` (only possible
/// on hosts narrower than 64 bits) saturates to an index no lookup
/// reaches.
fn slot_index(key: u64) -> usize {
    usize::try_from(key).unwrap_or(usize::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_track_len() {
        let mut m = DenseMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(3, 'a'), None);
        assert_eq!(m.insert(3, 'b'), Some('a'), "replacing keeps len");
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(3), Some(&'b'));
        assert_eq!(m.get(2), None, "hole below the end");
        assert_eq!(m.get(99), None, "past the end");
        assert_eq!(m.remove(99), None);
        assert_eq!(m.remove(3), Some('b'));
        assert_eq!(m.remove(3), None, "double remove");
        assert!(m.is_empty());
    }

    #[test]
    fn get_or_insert_with_inserts_once() {
        let mut m = DenseMap::new();
        *m.get_or_insert_with(5, || 10) += 1;
        *m.get_or_insert_with(5, || 100) += 1;
        assert_eq!(m.get(5), Some(&12));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn iteration_is_in_key_order_and_skips_holes() {
        let mut m = DenseMap::new();
        for k in [9, 0, 4] {
            m.insert(k, k * 10);
        }
        m.remove(0);
        assert_eq!(m.iter().collect::<Vec<_>>(), [(4, &40), (9, &90)]);
        for (_, v) in m.iter_mut() {
            *v += 1;
        }
        assert_eq!(m.values().copied().collect::<Vec<_>>(), [41, 91]);
        assert_eq!(m.keys().collect::<Vec<_>>(), [4, 9]);
    }

    #[test]
    fn remove_range_clears_only_its_keys() {
        let mut m = DenseMap::new();
        for k in [1, 2, 5, 8] {
            m.insert(k, k);
        }
        m.remove_range(2..8);
        assert_eq!(m.keys().collect::<Vec<_>>(), [1, 8]);
        assert_eq!(m.len(), 2);
        m.remove_range(8..u64::MAX);
        assert_eq!(m.keys().collect::<Vec<_>>(), [1]);
        for (k, v) in m.iter_mut() {
            *v += k;
        }
        assert_eq!(m.get(1), Some(&2));
    }

    #[test]
    fn far_keys_are_absent_without_growing() {
        let mut m: DenseMap<u8> = DenseMap::new();
        m.insert(0, 1);
        assert_eq!(m.get(u64::MAX), None);
        assert_eq!(m.get_mut(u64::MAX), None);
        assert_eq!(m.remove(u64::MAX), None);
        assert_eq!(m.len(), 1);
    }
}
