//! Hash chains over append-only positions: the lookup structure of the
//! value store's layers and of relation membership (both engines).
//!
//! The owner keeps the items (nodes, tuples) in a `Vec` of its own and
//! hashes each one once with a std `RandomState`; [`HashChains`] keeps only
//! positions, so no item is ever stored twice or used as a map key.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The end of a position chain.
const NONE: u32 = u32::MAX;

/// Passes a precomputed `u64` hash through, so a map keyed by hashes does
/// not hash them a second time. The keys are `RandomState` hashes, so the
/// map keeps its protection against inputs crafted to collide.
#[derive(Debug, Default, Clone, Copy)]
struct Prehashed(u64);

impl Hasher for Prehashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("only u64 hashes are keys")
    }

    fn write_u64(&mut self, h: u64) {
        self.0 = h;
    }
}

/// Hash-chained positions `0..len()`: each hash (computed by the owner
/// with a std `RandomState`) maps to the newest position stored under it,
/// and `next` links every position to the next older one with the same
/// hash. A lookup compares the stored items along the chain, so a hash
/// collision can never merge two of them.
#[derive(Debug, Clone, Default)]
pub struct HashChains {
    newest: HashMap<u64, u32, BuildHasherDefault<Prehashed>>,
    next: Vec<u32>,
}

impl HashChains {
    /// The position under hash `h` for which `is` holds, if any.
    pub fn find(&self, h: u64, mut is: impl FnMut(u32) -> bool) -> Option<u32> {
        let mut pos = self.newest.get(&h).copied().unwrap_or(NONE);
        while pos != NONE {
            if is(pos) {
                return Some(pos);
            }
            pos = self.next[pos as usize];
        }
        None
    }

    /// Records the next position under hash `h`.
    pub fn push(&mut self, h: u64) {
        let pos = u32::try_from(self.next.len()).expect("position overflow");
        let older = self.newest.insert(h, pos).unwrap_or(NONE);
        self.next.push(older);
    }

    /// Number of positions recorded.
    pub fn len(&self) -> usize {
        self.next.len()
    }

    /// Were no positions recorded?
    pub fn is_empty(&self) -> bool {
        self.next.is_empty()
    }
}
