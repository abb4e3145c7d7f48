//! One open-addressed table of `u32` ids, filed under 32-bit hashes the
//! caller computes: the lookup structure under the symbol namespaces
//! ([`crate::symbol`]), the fact store's dedup ([`crate::store`]) and the
//! chase's null interning (`NullFactory` in `ndl-chase`).
//!
//! The table stores no keys. Each occupied slot holds an entry's hash in
//! its high 32 bits and its id in the low 32, and the owner keeps the key
//! behind the id (a name in a string, a row in a column, an application in
//! an argument arena). A probe compares the stored hash first and asks the
//! caller about the id only on a hash match, so a lookup touches one slot
//! array plus the keys of equal-hash ids.
//!
//! - **Home slot from the high bits.** A hash `h` starts probing at
//!   `h * len / 2^32`, its high bits scaled to the table. Fx-style hashes
//!   mix their high bits best; a home taken from the low bits clusters.
//! - **Linear probing, at most half full.** Growing doubles the table and
//!   re-files every entry by its *stored* hash, so no key is rehashed.
//! - **Backward-shift removal.** [`IdTable::remove`] pulls later entries
//!   of the probe run back into the hole, so the table is exactly as if
//!   the removed entry had never been filed.
//!
//! Interning `n` entries allocates `O(log n)` times (each growth one new
//! slot array), and [`IdTable::reserve`] or [`IdTable::with_capacity`]
//! make it none.

/// A free slot (no id is `u32::MAX`).
const EMPTY: u64 = u64::MAX;

/// The smallest slot array a table allocates.
const MIN_SLOTS: usize = 16;

/// An open-addressed `hash → id` table: see the module docs.
///
/// ```
/// use ndl_core::idtable::IdTable;
/// let names = ["a", "b"];
/// let hash = |s: &str| s.len() as u32 * 0x9e37_79b9;
/// let mut t = IdTable::new();
/// for (id, name) in names.iter().enumerate() {
///     let at = t.find(hash(name), |i| names[i as usize] == *name).unwrap_err();
///     t.insert(at, hash(name), id as u32);
/// }
/// assert_eq!(t.find(hash("b"), |i| names[i as usize] == "b"), Ok(1));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IdTable {
    /// Per occupied slot, `hash << 32 | id`; [`EMPTY`] marks a free one.
    /// Its length is 0 or a power of two.
    slots: Vec<u64>,
    /// Occupied slots; at most half of `slots.len()`.
    len: usize,
}

/// Where a failed [`IdTable::find`] ended: the free slot an
/// [`IdTable::insert`] of the same hash files its id in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Vacant(usize);

impl IdTable {
    /// An empty table; it allocates on the first insert.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty table that holds `entries` ids before it grows.
    pub fn with_capacity(entries: usize) -> Self {
        let mut t = Self::new();
        t.reserve(entries);
        t
    }

    /// Number of ids filed.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is no id filed?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The slot a hash starts probing from: the hash scaled to the table.
    #[inline]
    fn home(&self, hash: u32) -> usize {
        ((u64::from(hash) * self.slots.len() as u64) >> 32) as usize
    }

    /// The first id filed under `hash` for which `is` holds, or where the
    /// probe found a free slot. `is` is asked only about ids whose stored
    /// hash equals `hash`.
    #[inline]
    pub fn find(&self, hash: u32, mut is: impl FnMut(u32) -> bool) -> Result<u32, Vacant> {
        if self.slots.is_empty() {
            return Err(Vacant(0));
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(hash);
        loop {
            let slot = self.slots[i];
            if slot == EMPTY {
                return Err(Vacant(i));
            }
            if (slot >> 32) as u32 == hash && is(slot as u32) {
                return Ok(slot as u32);
            }
            i = (i + 1) & mask;
        }
    }

    /// Files `id` under `hash` at `at`, which a [`find`](Self::find) of the
    /// same hash returned with no insert in between. Grows the table (and
    /// files the id in the grown one) when it would be more than half
    /// full; returns whether it grew.
    #[inline]
    pub fn insert(&mut self, at: Vacant, hash: u32, id: u32) -> bool {
        debug_assert_ne!(id, u32::MAX, "u32::MAX marks a free slot");
        let grew = (self.len + 1) * 2 > self.slots.len();
        let i = if grew {
            self.grow_to((self.slots.len() * 2).max(MIN_SLOTS));
            self.free_slot(hash)
        } else {
            debug_assert_eq!(self.slots[at.0], EMPTY, "a stale Vacant");
            at.0
        };
        self.slots[i] = (u64::from(hash) << 32) | u64::from(id);
        self.len += 1;
        grew
    }

    /// Removes the entry `id` filed under `hash` by backward shift: later
    /// entries of its probe run move back into the hole unless their home
    /// slot lies after it.
    ///
    /// # Panics
    /// Panics if `id` is not filed under `hash`.
    pub fn remove(&mut self, hash: u32, id: u32) {
        let target = (u64::from(hash) << 32) | u64::from(id);
        let mask = self.slots.len().wrapping_sub(1);
        let mut hole = self.home(hash);
        while self.slots.get(hole) != Some(&target) {
            assert!(
                self.slots.get(hole).is_some_and(|&s| s != EMPTY),
                "id {id} is not filed under hash {hash:#x}"
            );
            hole = (hole + 1) & mask;
        }
        let mut j = (hole + 1) & mask;
        while self.slots[j] != EMPTY {
            let home = self.home((self.slots[j] >> 32) as u32);
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = self.slots[j];
                hole = j;
            }
            j = (j + 1) & mask;
        }
        self.slots[hole] = EMPTY;
        self.len -= 1;
    }

    /// Makes room for `additional` more ids without growing; returns
    /// whether the table grew. A growth at least doubles the table, so
    /// reserving round by round stays amortized.
    pub fn reserve(&mut self, additional: usize) -> bool {
        let need = (self.len + additional) * 2;
        if need <= self.slots.len() {
            return false;
        }
        let len = need
            .next_power_of_two()
            .max(self.slots.len() * 2)
            .max(MIN_SLOTS);
        self.grow_to(len);
        true
    }

    /// Forgets every id, keeping the slot array.
    pub fn clear(&mut self) {
        if self.len > 0 {
            self.slots.fill(EMPTY);
            self.len = 0;
        }
    }

    /// The first free slot of `hash`'s probe run.
    #[inline]
    fn free_slot(&self, hash: u32) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = self.home(hash);
        while self.slots[i] != EMPTY {
            i = (i + 1) & mask;
        }
        i
    }

    /// Moves every entry into a new slot array of `len` slots, filed by
    /// its stored hash.
    fn grow_to(&mut self, len: usize) {
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; len]);
        for slot in old.into_iter().filter(|&s| s != EMPTY) {
            let i = self.free_slot((slot >> 32) as u32);
            self.slots[i] = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// A table filing ids `0..` under hashes the test picks, the key of id
    /// `i` being `keys[i]`.
    #[derive(Default)]
    struct Keyed {
        table: IdTable,
        keys: Vec<u32>,
        hashes: Vec<u32>,
    }

    impl Keyed {
        fn find(&self, key: u32, hash: u32) -> Option<u32> {
            self.table
                .find(hash, |id| self.keys[id as usize] == key)
                .ok()
        }

        fn intern(&mut self, key: u32, hash: u32) -> u32 {
            match self.table.find(hash, |id| self.keys[id as usize] == key) {
                Ok(id) => id,
                Err(at) => {
                    let id = self.keys.len() as u32;
                    self.keys.push(key);
                    self.hashes.push(hash);
                    self.table.insert(at, hash, id);
                    id
                }
            }
        }

        /// Forgets the newest id, as `SymbolTable::rollback` does.
        fn pop(&mut self) {
            let id = self.keys.len() - 1;
            self.table.remove(self.hashes[id], id as u32);
            self.keys.pop();
            self.hashes.pop();
        }
    }

    #[test]
    fn equal_hashes_are_told_apart_by_the_caller() {
        let mut t = Keyed::default();
        for key in 0..40 {
            assert_eq!(t.intern(key, 7), key);
        }
        for key in 0..40 {
            assert_eq!(t.find(key, 7), Some(key));
        }
        assert_eq!(t.find(40, 7), None);
        assert_eq!(t.table.len(), 40);
    }

    #[test]
    fn probe_runs_wrap_around_the_end() {
        // `u32::MAX` homes at the last slot; its run continues at slot 0.
        let mut t = Keyed::default();
        t.table.reserve(4);
        let cap = t.table.slots.len() / 2;
        for key in 0..cap as u32 {
            t.intern(key, u32::MAX);
        }
        assert_eq!(
            t.table.slots.len() / 2,
            cap,
            "filled to capacity without growing"
        );
        assert_ne!(t.table.slots[0], EMPTY, "the run wrapped to slot 0");
        for key in 0..cap as u32 {
            assert_eq!(t.find(key, u32::MAX), Some(key));
        }
        // Removing from the middle of a wrapped run keeps the rest found.
        t.pop();
        t.pop();
        for key in 0..cap as u32 - 2 {
            assert_eq!(t.find(key, u32::MAX), Some(key));
        }
        assert_eq!(t.find(cap as u32 - 1, u32::MAX), None);
    }

    #[test]
    fn reserve_grows_at_least_by_doubling_and_clear_keeps_the_slots() {
        let mut t = IdTable::with_capacity(100);
        let cap = t.slots.len() / 2;
        assert!(cap >= 100);
        assert!(!t.reserve(cap));
        assert!(t.reserve(cap + 1));
        assert!(t.slots.len() / 2 >= 2 * cap);
        let at = t.find(3, |_| false).unwrap_err();
        t.insert(at, 3, 0);
        let slots = t.slots.len();
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.slots.len(), slots);
        assert!(t.find(3, |_| true).is_err());
    }

    /// splitmix64 over `state`: the draws depend only on the seed.
    fn below(state: &mut u64, n: u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// Against a `BTreeMap` model, under hashes drawn from a handful
        /// of values near both ends of the range: equal-hash collisions,
        /// runs that wrap past the last slot, growth and backward-shift
        /// removal all happen.
        #[test]
        fn agrees_with_a_map_under_forced_collisions(seed in 0u64..u64::MAX, ops in 0usize..200) {
            let mut state = seed;
            let hashes: Vec<u32> = (0..64)
                .map(|_| match below(&mut state, 8) as u32 {
                    h @ 0..=3 => h,
                    h => u32::MAX - (h - 4),
                })
                .collect();
            let mut t = Keyed::default();
            let mut model: BTreeMap<u32, u32> = BTreeMap::new();
            for _ in 0..ops {
                if below(&mut state, 5) > 0 {
                    let key = below(&mut state, 64) as u32;
                    let next = model.len() as u32;
                    let want = *model.entry(key).or_insert(next);
                    prop_assert_eq!(t.intern(key, hashes[key as usize]), want);
                } else if let Some(&key) = t.keys.last() {
                    t.pop();
                    model.remove(&key);
                }
                prop_assert_eq!(t.table.len(), model.len());
                prop_assert!(t.table.len() * 2 <= t.table.slots.len() || t.table.is_empty());
            }
            for key in 0..64 {
                prop_assert_eq!(t.find(key, hashes[key as usize]), model.get(&key).copied());
            }
        }
    }
}
