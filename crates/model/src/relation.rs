//! The relation store both engines share: rows of interned ids.
//!
//! An [`IdRelation`] keeps its rows flat, in insertion order — the
//! deterministic scan order of both engines — with hash-chained membership
//! and incremental per-column indexes ([`ColIndex`]). Rows never move, so
//! the rows one batch of inserts added are a position range: that is how
//! both engines read a semi-naive delta. A Datalog relation stores one row
//! per tuple. An IQL relation stores one row per fact, keyed on its first
//! column: the fact id, then, for a tuple type or a union of them, one
//! field id per attribute, or [`ValueId::ABSENT`] where the fact lacks the
//! attribute.

use crate::chains::HashChains;
use crate::store::ValueId;
use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// The end of a position chain.
const NONE: u32 = u32::MAX;

/// Runs `k` on the tuple of ids yielded by `ids`, or returns `None` if any
/// is `None`. Arities up to 8 use a stack buffer, so the per-tuple paths
/// (loading, membership tests, negation guards) allocate nothing.
pub fn with_id_tuple<R>(
    mut ids: impl ExactSizeIterator<Item = Option<ValueId>>,
    k: impl FnOnce(&[ValueId]) -> R,
) -> Option<R> {
    let n = ids.len();
    let Some(first) = ids.next() else {
        return Some(k(&[]));
    };
    let first = first?;
    let mut small = [first; 8];
    let mut big = Vec::new();
    let buf: &mut [ValueId] = if n <= small.len() {
        &mut small[..n]
    } else {
        big.resize(n, first);
        &mut big
    };
    for (slot, id) in buf[1..].iter_mut().zip(ids) {
        *slot = id?;
    }
    Some(k(buf))
}

/// A row whose width differs from its relation's arity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArityMismatch {
    /// The relation's arity.
    pub expected: usize,
    /// The row's width.
    pub found: usize,
}

/// What a batch of inserts did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Inserted {
    /// How many rows were new.
    pub new: usize,
    /// Did the relation's length, or a built index's distinct-value count,
    /// reach a power of two — the cue that statistics a planner cached are
    /// stale enough to re-plan?
    pub crossed: bool,
}

/// Membership of an [`IdRelation`]: its row positions, chained by row
/// hash.
#[derive(Debug, Clone, Default)]
struct Members {
    hasher: RandomState,
    chains: HashChains,
}

/// Is `key`, whose membership hash is `h`, the key of a row of `data` (of
/// `arity` ids each) that `chains` holds?
fn holds(data: &[ValueId], arity: usize, chains: &HashChains, key: &[ValueId], h: u64) -> bool {
    chains
        .find(h, |pos| {
            let start = pos as usize * arity;
            data[start..start + key.len()] == *key
        })
        .is_some()
}

/// An index on one column over the positions `base..base + n` of a
/// relation: each value maps to the `(first, last)` positions holding it,
/// and `next` chains every position to the next one with the same value,
/// so postings walk in ascending position order and adding a position
/// allocates nothing per key. Positions are absolute: a relation's own
/// incremental index starts at 0, and a semi-naive delta's one-off index
/// at the delta's first position. A position whose cell is
/// [`ValueId::ABSENT`] is in no posting list.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ColIndex {
    base: u32,
    ends: HashMap<ValueId, (u32, u32)>,
    next: Vec<u32>,
}

impl ColIndex {
    /// Records the next position, whose column value is `key`; returns
    /// whether `key` is new to the index.
    fn push(&mut self, key: ValueId) -> bool {
        let pos = u32::try_from(self.next.len())
            .ok()
            .and_then(|n| self.base.checked_add(n))
            .expect("relation overflow");
        self.next.push(NONE);
        if key == ValueId::ABSENT {
            return false;
        }
        match self.ends.entry(key) {
            Entry::Occupied(mut e) => {
                let last = &mut e.get_mut().1;
                self.next[(*last - self.base) as usize] = pos;
                *last = pos;
                false
            }
            Entry::Vacant(e) => {
                e.insert((pos, pos));
                true
            }
        }
    }

    /// The first (lowest) position whose column value is `key`.
    fn first(&self, key: ValueId) -> Option<u32> {
        self.ends.get(&key).map(|&(first, _)| first)
    }

    /// The position after `pos` with the same column value.
    fn next(&self, pos: u32) -> Option<u32> {
        let next = self.next[(pos - self.base) as usize];
        (next != NONE).then_some(next)
    }

    /// Number of distinct values in the column — the cardinality
    /// statistic both planners rank probe columns by.
    pub fn distinct(&self) -> usize {
        self.ends.len()
    }
}

/// A relation over interned rows: append-only, insertion-ordered flat
/// storage, hash-chained membership, and incremental per-column indexes.
/// An index is built through a shared reference, so building one on a
/// shared relation copies nothing, and every sharer gets it.
///
/// Rows are never moved or removed in place (a removal builds a new
/// relation, see [`IdRelation::retain`]), so the rows a batch of inserts
/// added are exactly the positions from the relation's length before the
/// batch to its length after: a semi-naive delta is such a range.
#[derive(Debug, Clone, Default)]
pub struct IdRelation {
    /// Arity; fixed at creation or by the first insert.
    arity: Option<usize>,
    /// Rows are unique on, and determined by, their first `key` columns:
    /// membership hashes and compares only those. The arity unless
    /// created with [`Self::with_key`].
    key: usize,
    /// Rows in insertion order, `arity` ids each — the deterministic scan
    /// order.
    data: Vec<ValueId>,
    members: Members,
    /// One index slot per column, created with the arity. A column's index
    /// is built on demand by [`Self::ensure_index`] and from then on
    /// maintained *incrementally* by every insert, so semi-naive steps
    /// never rebuild it — and a built index's key count doubles as the
    /// column's distinct-value statistic. Loading builds none.
    indexes: Vec<OnceLock<Arc<ColIndex>>>,
}

/// The writable parts of an unshared [`IdRelation`], taken once per batch
/// of inserts, so that storing a row pays no copy-on-write check.
struct Writer<'a> {
    arity: usize,
    key: usize,
    data: &'a mut Vec<ValueId>,
    members: &'a mut Members,
    /// The built indexes, each with its column.
    indexes: Vec<(usize, &'a mut ColIndex)>,
    crossed: bool,
}

impl Writer<'_> {
    /// Appends `t`, known to be absent, under membership hash `h`.
    fn push(&mut self, t: &[ValueId], h: u64) {
        self.data.extend_from_slice(t);
        self.members.chains.push(h);
        self.crossed |= self.members.chains.len().is_power_of_two();
        for (col, idx) in &mut self.indexes {
            if idx.push(t[*col]) && idx.distinct().is_power_of_two() {
                self.crossed = true;
            }
        }
    }

    /// Appends `t` unless it is stored already; returns whether it was new.
    fn insert(&mut self, t: &[ValueId]) -> bool {
        let key = &t[..self.key];
        let h = self.members.hasher.hash_one(key);
        if holds(self.data, self.arity, &self.members.chains, key, h) {
            return false;
        }
        self.push(t, h);
        true
    }
}

impl IdRelation {
    /// An empty relation of `arity` columns.
    pub fn with_arity(arity: usize) -> IdRelation {
        IdRelation::with_key(arity, arity)
    }

    /// An empty relation of `arity` columns whose rows are unique on, and
    /// determined by, their first `key` columns, such as an IQL fact id
    /// and the field ids it determines.
    pub fn with_key(arity: usize, key: usize) -> IdRelation {
        assert!(key <= arity, "a key is a prefix of the row");
        IdRelation {
            arity: Some(arity),
            key,
            indexes: (0..arity).map(|_| OnceLock::new()).collect(),
            ..IdRelation::default()
        }
    }

    /// Fails unless a row of `len` columns fits the relation's arity.
    pub fn check_arity(&self, len: usize) -> Result<(), ArityMismatch> {
        match self.arity {
            Some(expected) if expected != len => Err(ArityMismatch {
                expected,
                found: len,
            }),
            _ => Ok(()),
        }
    }

    /// The membership hash of `key`.
    fn hash(&self, key: &[ValueId]) -> u64 {
        self.members.hasher.hash_one(key)
    }

    /// Is a row with key `key`, whose membership hash is `h`, stored?
    fn contains_hashed(&self, key: &[ValueId], h: u64) -> bool {
        holds(
            &self.data,
            self.arity.unwrap_or(0),
            &self.members.chains,
            key,
            h,
        )
    }

    /// Membership test: is a row with key `key` (its first `key` columns;
    /// the whole row unless created [`Self::with_key`]) stored?
    pub fn contains(&self, key: &[ValueId]) -> bool {
        self.arity.is_some() && key.len() == self.key && self.contains_hashed(key, self.hash(key))
    }

    /// Unshares the row data, the membership map and every built index
    /// for a batch of inserts of `arity` columns (already checked against
    /// the relation's); the first write fixes the arity.
    fn writer(&mut self, arity: usize) -> Writer<'_> {
        if self.arity.is_none() {
            self.arity = Some(arity);
            self.key = arity;
            self.indexes = (0..arity).map(|_| OnceLock::new()).collect();
        }
        Writer {
            arity,
            key: self.key,
            data: &mut self.data,
            members: &mut self.members,
            indexes: self
                .indexes
                .iter_mut()
                .enumerate()
                .filter_map(|(col, slot)| slot.get_mut().map(|idx| (col, Arc::make_mut(idx))))
                .collect(),
            crossed: false,
        }
    }

    /// Appends to `rel` each of the `count` rows of `arity` ids that `ids`
    /// holds back to back and `rel` does not hold yet, in order. `rel` is
    /// unshared — its data, membership and built indexes copied if a clone
    /// shares them — only once a first new row turns up.
    pub fn insert_all(
        rel: &mut Arc<IdRelation>,
        arity: usize,
        ids: &[ValueId],
        count: usize,
    ) -> Result<Inserted, ArityMismatch> {
        rel.check_arity(arity)?;
        let mut rows = (0..count).map(|i| &ids[i * arity..(i + 1) * arity]);
        // Before the first write fixes the arity, the key is the row.
        let key = if rel.arity.is_some() { rel.key } else { arity };
        let Some((first, h)) = rows
            .by_ref()
            .map(|t| (t, rel.hash(&t[..key])))
            .find(|&(t, h)| !rel.contains_hashed(&t[..key], h))
        else {
            return Ok(Inserted::default());
        };
        let mut w = Arc::make_mut(rel).writer(arity);
        w.push(first, h);
        let new = 1 + rows.filter(|t| w.insert(t)).count();
        Ok(Inserted {
            new,
            crossed: w.crossed,
        })
    }

    /// A relation of the same layout holding the rows `keep` accepts, in
    /// order, with no index built — how a removal rebuilds a relation.
    pub fn retain(&self, mut keep: impl FnMut(&[ValueId]) -> bool) -> IdRelation {
        let Some(arity) = self.arity else {
            return IdRelation::default();
        };
        let mut out = IdRelation::with_key(arity, self.key);
        let mut w = out.writer(arity);
        for t in self.iter().filter(|t| keep(t)) {
            let h = w.members.hasher.hash_one(&t[..w.key]);
            w.push(t, h);
        }
        out
    }

    /// The rows, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &[ValueId]> + '_ {
        (0..self.len()).map(|pos| self.tuple_at(pos as u32))
    }

    /// Column `col` of every row, in insertion order.
    pub fn column(&self, col: usize) -> impl ExactSizeIterator<Item = ValueId> + '_ {
        let a = self.arity.unwrap_or(0);
        (0..self.len()).map(move |pos| self.data[pos * a + col])
    }

    /// Every position, `0..len()`.
    pub fn all(&self) -> Range<u32> {
        0..u32::try_from(self.len()).expect("relation overflow")
    }

    /// The positions a scan of `range` visits, ascending: with
    /// `Some((index, key))`, those whose indexed column holds `key`
    /// (`index` must be one of this relation's over exactly `range`); with
    /// `None`, every position in `range`.
    pub fn positions<'a>(
        &self,
        range: Range<u32>,
        probe: Option<(&'a ColIndex, ValueId)>,
    ) -> impl Iterator<Item = u32> + 'a {
        debug_assert!(range.end as usize <= self.len());
        let first = match probe {
            Some((idx, key)) => idx.first(key),
            None => (range.start < range.end).then_some(range.start),
        };
        std::iter::successors(first, move |&pos| match probe {
            Some((idx, _)) => idx.next(pos),
            None => (pos + 1 < range.end).then_some(pos + 1),
        })
    }

    /// The row at `pos` (a position from a range or an index).
    pub fn tuple_at(&self, pos: u32) -> &[ValueId] {
        let a = self.arity.unwrap_or(0);
        let start = pos as usize * a;
        &self.data[start..start + a]
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.members.chains.len()
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The arity; `None` while a relation created without one was never
    /// written.
    pub fn arity(&self) -> Option<usize> {
        self.arity
    }

    /// The incremental index on `col`, if built.
    pub fn index(&self, col: usize) -> Option<&ColIndex> {
        self.indexes.get(col)?.get().map(Arc::as_ref)
    }

    /// A one-off index on `col` over the positions in `range` — how a
    /// semi-naive step indexes the previous step's delta.
    pub fn index_over(&self, col: usize, range: Range<u32>) -> ColIndex {
        let mut idx = ColIndex {
            base: range.start,
            ..ColIndex::default()
        };
        for pos in range {
            idx.push(self.tuple_at(pos)[col]);
        }
        idx
    }

    /// Builds the index on `col` if absent; later inserts maintain it.
    /// Columns beyond the arity have no index to build. Returns whether
    /// this call built it.
    pub fn ensure_index(&self, col: usize) -> bool {
        let mut built = false;
        if let Some(slot) = self.indexes.get(col) {
            slot.get_or_init(|| {
                built = true;
                Arc::new(self.index_over(col, self.all()))
            });
        }
        built
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Constant, ValueInterner, ValueStore};

    fn ids(n: i64) -> Vec<ValueId> {
        let mut store = ValueStore::new();
        (0..n).map(|k| store.const_id(Constant::int(k))).collect()
    }

    impl IdRelation {
        /// Inserts `t` as if its membership hash were `h` — the seam that
        /// lets tests force hash collisions; returns whether it was new.
        fn insert_hashed(&mut self, t: &[ValueId], h: u64) -> Result<bool, ArityMismatch> {
            self.check_arity(t.len())?;
            if self.contains_hashed(t, h) {
                return Ok(false);
            }
            self.writer(t.len()).push(t, h);
            Ok(true)
        }
    }

    fn postings(rel: &IdRelation, col: usize, key: ValueId) -> Vec<u32> {
        let idx = rel.index(col).expect("index built");
        rel.positions(rel.all(), Some((idx, key))).collect()
    }

    #[test]
    fn forced_hash_collisions_never_merge_tuples() {
        let ids = ids(6);
        let mut rel = IdRelation::default();
        let mut stored = Vec::new();
        for (i, &x) in ids.iter().enumerate() {
            for &y in &ids[i % 3..] {
                // Every tuple gets the same hash.
                assert!(rel.insert_hashed(&[x, y], 7).unwrap(), "{x:?},{y:?} is new");
                stored.push([x, y]);
                // Column 0 is maintained by every later insert.
                rel.ensure_index(0);
            }
        }
        assert_eq!(rel.len(), stored.len());
        for t in &stored {
            assert!(!rel.insert_hashed(t, 7).unwrap(), "true duplicate rejected");
            assert!(rel.contains_hashed(t, 7));
        }
        assert!(!rel.contains_hashed(&[ids[5], ids[0]], 7));
        assert!(
            !rel.contains_hashed(&stored[0], 8),
            "a different hash misses"
        );
        assert_eq!(
            rel.iter().map(<[ValueId]>::to_vec).collect::<Vec<_>>(),
            stored
        );
        // Every column's postings stay ascending and agree with a scan,
        // whether maintained (column 0) or built at once (column 1).
        rel.ensure_index(1);
        for col in 0..2 {
            assert_eq!(rel.index(col), Some(&rel.index_over(col, rel.all())));
            for &key in &ids {
                let got: Vec<u32> = postings(&rel, col, key);
                let want: Vec<u32> = (0..stored.len() as u32)
                    .filter(|&p| stored[p as usize][col] == key)
                    .collect();
                assert_eq!(got, want, "column {col}, key {key:?}");
            }
        }
    }

    #[test]
    fn absent_cells_are_in_no_posting_list() {
        let ids = ids(3);
        let absent = ValueId::ABSENT;
        let mut rel = Arc::new(IdRelation::with_arity(2));
        assert!(rel.ensure_index(1), "an empty relation's index is built");
        assert!(!rel.ensure_index(1), "and built once");
        assert!(!rel.ensure_index(2), "no column 2");
        let rows = [ids[0], ids[1], ids[1], absent, ids[2], ids[1]];
        let added = IdRelation::insert_all(&mut rel, 2, &rows, 3).unwrap();
        assert_eq!(
            added,
            Inserted {
                new: 3,
                crossed: true
            }
        );
        assert_eq!(postings(&rel, 1, ids[1]), vec![0, 2]);
        assert!(postings(&rel, 1, absent).is_empty());
        assert_eq!(rel.index(1).map(ColIndex::distinct), Some(1));
        assert_eq!(rel.index_over(1, 1..3).distinct(), 1);
        assert_eq!(rel.column(0).collect::<Vec<_>>(), [ids[0], ids[1], ids[2]]);
        // A row that makes the length 5, no power of two, and brings no new
        // key moves no statistic.
        let added = IdRelation::insert_all(&mut rel, 2, &[ids[0], absent], 1).unwrap();
        assert_eq!(
            added,
            Inserted {
                new: 1,
                crossed: true
            },
            "length 4"
        );
        let added = IdRelation::insert_all(&mut rel, 2, &[ids[1], ids[1]], 1).unwrap();
        assert_eq!(
            added,
            Inserted {
                new: 1,
                crossed: false
            }
        );
        assert_eq!(
            IdRelation::insert_all(&mut rel, 1, &[ids[0]], 1),
            Err(ArityMismatch {
                expected: 2,
                found: 1
            })
        );
    }

    #[test]
    fn a_keyed_relation_dedups_on_its_key() {
        let ids = ids(3);
        let mut rel = Arc::new(IdRelation::with_key(2, 1));
        let rows = [ids[0], ids[1], ids[0], ids[2], ids[1], ids[1]];
        let added = IdRelation::insert_all(&mut rel, 2, &rows, 3).unwrap();
        assert_eq!(added.new, 2, "the second row repeats the first's key");
        assert!(rel.contains(&[ids[0]]) && rel.contains(&[ids[1]]));
        assert!(!rel.contains(&[ids[2]]));
        assert!(!rel.contains(&[ids[0], ids[1]]), "membership takes the key");
        let kept = rel.retain(|t| t[0] != ids[0]);
        assert!(kept.contains(&[ids[1]]) && !kept.contains(&[ids[0]]));
    }

    #[test]
    fn retain_rebuilds_without_indexes() {
        let ids = ids(4);
        let mut rel = Arc::new(IdRelation::with_arity(1));
        IdRelation::insert_all(&mut rel, 1, &ids, 4).unwrap();
        rel.ensure_index(0);
        let kept = rel.retain(|t| t[0] != ids[1]);
        assert_eq!(kept.arity(), Some(1));
        assert_eq!(kept.column(0).collect::<Vec<_>>(), [ids[0], ids[2], ids[3]]);
        assert!(kept.index(0).is_none(), "a rebuild drops the indexes");
        assert!(kept.contains(&[ids[3]]) && !kept.contains(&[ids[1]]));
        assert_eq!(rel.len(), 4, "the original is untouched");
        assert_eq!(IdRelation::default().retain(|_| true).arity(), None);
    }
}
