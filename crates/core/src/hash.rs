//! Fast non-cryptographic hashing for the workspace's small keys.
//!
//! Hashing uses a hand-rolled Fx-style multiply-xor hasher ([`FxHasher`]):
//! the keys are tiny (ids and small tuples), where SipHash's
//! per-finalization cost dominates; Fx is the standard fix (rustc uses the
//! same scheme) and keeps the workspace free of external dependencies.

use crate::value::Value;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A fast, non-cryptographic hasher for small keys (ids, short tuples),
/// after the `rustc-hash` / FxHash scheme: rotate, xor, multiply.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

/// The odd constant of the Fx multiply step (π's fractional bits).
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

impl std::fmt::Debug for FxHasher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FxHasher({:#x})", self.hash)
    }
}

/// Builds [`FxHasher`]s for the std hash containers.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;
/// A `HashMap` keyed with the fast [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;
/// A `HashSet` keyed with the fast [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// The 32-bit hash an [`IdTable`](crate::idtable::IdTable) files a tuple
/// under: `head` (a relation or function symbol id), then each value as
/// one word (`Const(c)` as `c`, `Null(n)` as `2^32 + n`), through
/// [`FxHasher`], keeping the high 32 bits — the ones Fx mixes best. The
/// fact store files facts under it, the chase's null factory Skolem
/// applications.
#[inline]
pub fn tuple_hash(head: u32, values: &[Value]) -> u32 {
    let mut h = FxHasher::default();
    h.write_u32(head);
    for v in values {
        h.write_u64(match *v {
            Value::Const(c) => u64::from(c.0),
            Value::Null(n) => (1 << 32) | u64::from(n.0),
        });
    }
    (h.finish() >> 32) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fx_hasher_distributes() {
        // Smoke-test the hasher: distinct small keys get distinct hashes.
        use std::hash::BuildHasher;
        let bh = FxBuildHasher::default();
        let mut seen = std::collections::BTreeSet::new();
        for i in 0u32..1000 {
            seen.insert(bh.hash_one(i));
        }
        assert_eq!(seen.len(), 1000);
    }
}
