//! The interned representation — the only one a [`crate::Database`] stores.
//!
//! A database interns every constant once into the model's
//! [`ValueStore`], the interner IQL uses too (a Datalog constant is the
//! o-value [`Node::Const`]), and from then on tuples are runs of
//! [`ValueId`]s — `Copy` handles with O(1) equality and trivially cheap
//! hashing. [`Database::insert`](crate::Database::insert) interns on the
//! way in, so a loaded database already holds ids, and evaluation starts
//! from an O(#relations) copy-on-write fork of it: the store is a frozen,
//! shared root plus a per-fork top, relations sit behind `Arc`s and are
//! copied on their first write. Constants are resolved back only as a
//! caller reads them, through the borrowed [`crate::Relation`] view.
//!
//! An [`IdRelation`] stores its tuples flat (one `Vec<ValueId>`, stride =
//! arity) in insertion order, which makes fixpoint iteration deterministic,
//! next to a hash-chained membership map and *incremental* per-column
//! indexes: each built on demand when the join planner may probe its
//! column, shared with every fork of the relation, and maintained by every
//! later insert — so no probe needs a per-round index rebuild once its
//! column has been ensured. Tuples never move, so the tuples one batch of
//! inserts added are a position range, which is how semi-naive evaluation
//! reads a delta; a scan covers a range, and a [`ColIndex`] can cover just
//! one. Inserts come in batches ([`IdDatabase::insert_all`]) that unshare
//! the relation once, at the first new tuple; storing a tuple allocates
//! nothing beyond amortized vector and map growth.

use crate::{DlError, Result};
use iql_model::{Constant, HashChains, Node, ValueId, ValueInterner, ValueReader, ValueStore};
use std::collections::hash_map::{Entry, RandomState};
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasher;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// The end of a position chain.
const NONE: u32 = u32::MAX;

/// The constant behind `id`: a Datalog database interns only constants.
pub(crate) fn constant(store: &ValueStore, id: ValueId) -> &Constant {
    match store.node(id) {
        Node::Const(c) => c,
        other => unreachable!("a Datalog store holds only constants, not {other:?}"),
    }
}

/// The id of `c`, if `store` interned it.
pub(crate) fn lookup_constant(store: &ValueStore, c: &Constant) -> Option<ValueId> {
    store.lookup(&Node::Const(c.clone()))
}

/// Runs `k` on the tuple of ids yielded by `ids`, or returns `None` if any
/// is `None`. Arities up to 8 use a stack buffer, so the per-tuple paths
/// (loading, `contains`, negation guards) allocate nothing.
pub(crate) fn with_id_tuple<R>(
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

/// Membership of an [`IdRelation`]: its tuple positions, chained by tuple
/// hash.
#[derive(Debug, Clone, Default)]
struct Members {
    hasher: RandomState,
    chains: HashChains,
}

/// Is `t`, whose membership hash is `h`, among the tuples of `data` (of
/// `arity` ids each) that `chains` holds?
fn holds(data: &[ValueId], arity: usize, chains: &HashChains, t: &[ValueId], h: u64) -> bool {
    chains
        .find(h, |pos| {
            let start = pos as usize * arity;
            data[start..start + arity] == *t
        })
        .is_some()
}

/// An index on one column over the positions `base..base + n` of a
/// relation: each value maps to the `(first, last)` positions holding it,
/// and `next` chains every position to the next one with the same value,
/// so postings walk in ascending position order and adding a position
/// allocates nothing per key. Positions are absolute: a relation's own
/// incremental index starts at 0, and a semi-naive delta's one-off index
/// at the delta's first position.
#[derive(Debug, Clone, Default)]
pub(crate) struct ColIndex {
    base: u32,
    ends: HashMap<ValueId, (u32, u32)>,
    next: Vec<u32>,
}

impl ColIndex {
    /// Records the next position, whose column value is `key`.
    fn push(&mut self, key: ValueId) {
        let pos = u32::try_from(self.next.len())
            .ok()
            .and_then(|n| self.base.checked_add(n))
            .expect("relation overflow");
        self.next.push(NONE);
        match self.ends.entry(key) {
            Entry::Occupied(mut e) => {
                let last = &mut e.get_mut().1;
                self.next[(*last - self.base) as usize] = pos;
                *last = pos;
            }
            Entry::Vacant(e) => {
                e.insert((pos, pos));
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
    /// statistic the join planner ranks probe columns by.
    pub(crate) fn distinct(&self) -> usize {
        self.ends.len()
    }
}

/// A relation over interned tuples: append-only, insertion-ordered flat
/// storage, hash-chained membership, and incremental per-column indexes.
/// The tuple data, the membership map and each built index sit behind
/// their own `Arc`, so clones share them and copy each only on its first
/// write. An index is built through a shared reference, so building one on
/// a shared relation copies nothing, and every sharer gets it.
///
/// Tuples are never moved or removed, so the tuples a batch of inserts
/// added are exactly the positions from the relation's length before the
/// batch to its length after: a semi-naive delta is such a range.
#[derive(Debug, Clone, Default)]
pub(crate) struct IdRelation {
    /// Arity; fixed by the first insert.
    arity: Option<usize>,
    /// Tuples in insertion order, `arity` ids each — the deterministic
    /// scan order.
    data: Arc<Vec<ValueId>>,
    members: Arc<Members>,
    /// One index slot per column, created by the first insert. A column's
    /// index is built on demand by [`Self::ensure_index`] when the join
    /// planner may probe it, and from then on maintained *incrementally* by
    /// every insert, so semi-naive rounds never rebuild — and a built
    /// index's key count doubles as the column's distinct-value statistic.
    /// Loading builds none: a loaded database gets each index once, from
    /// the first evaluation that probes it, and keeps it for later ones.
    indexes: Vec<OnceLock<Arc<ColIndex>>>,
}

/// The writable parts of an unshared [`IdRelation`], taken once per batch
/// of inserts, so that storing a tuple pays no copy-on-write check.
struct Writer<'a> {
    arity: usize,
    data: &'a mut Vec<ValueId>,
    members: &'a mut Members,
    /// The built indexes, each with its column.
    indexes: Vec<(usize, &'a mut ColIndex)>,
}

impl Writer<'_> {
    /// Appends `t`, known to be absent, under membership hash `h`.
    fn push(&mut self, t: &[ValueId], h: u64) {
        self.data.extend_from_slice(t);
        self.members.chains.push(h);
        for (col, idx) in &mut self.indexes {
            idx.push(t[*col]);
        }
    }

    /// Appends `t` unless it is stored already; returns whether it was new.
    fn insert(&mut self, t: &[ValueId]) -> bool {
        let h = self.members.hasher.hash_one(t);
        if holds(self.data, self.arity, &self.members.chains, t, h) {
            return false;
        }
        self.push(t, h);
        true
    }
}

impl IdRelation {
    /// Fails unless a tuple of `len` columns fits the relation's arity.
    fn check_arity(&self, len: usize) -> Result<()> {
        match self.arity {
            Some(a) if a != len => Err(DlError::Arity {
                rel: String::new(),
                expected: a,
                found: len,
            }),
            _ => Ok(()),
        }
    }

    /// The membership hash of `t`.
    fn hash(&self, t: &[ValueId]) -> u64 {
        self.members.hasher.hash_one(t)
    }

    /// Is `t`, whose membership hash is `h`, stored?
    fn contains_hashed(&self, t: &[ValueId], h: u64) -> bool {
        holds(
            &self.data,
            self.arity.unwrap_or(0),
            &self.members.chains,
            t,
            h,
        )
    }

    /// Membership test.
    pub(crate) fn contains(&self, t: &[ValueId]) -> bool {
        self.arity == Some(t.len()) && self.contains_hashed(t, self.hash(t))
    }

    /// Unshares the tuple data, the membership map and every built index
    /// for a batch of inserts of `arity` columns (already checked against
    /// the relation's); the first write fixes the arity.
    fn writer(&mut self, arity: usize) -> Writer<'_> {
        if self.arity.is_none() {
            self.arity = Some(arity);
            self.indexes = (0..arity).map(|_| OnceLock::new()).collect();
        }
        Writer {
            arity,
            data: Arc::make_mut(&mut self.data),
            members: Arc::make_mut(&mut self.members),
            indexes: self
                .indexes
                .iter_mut()
                .enumerate()
                .filter_map(|(col, slot)| slot.get_mut().map(|idx| (col, Arc::make_mut(idx))))
                .collect(),
        }
    }

    /// Inserts `t` as if its membership hash were `h` — the seam that lets
    /// tests force hash collisions; returns whether it was new.
    #[cfg(test)]
    fn insert_hashed(&mut self, t: &[ValueId], h: u64) -> Result<bool> {
        self.check_arity(t.len())?;
        if self.contains_hashed(t, h) {
            return Ok(false);
        }
        self.writer(t.len()).push(t, h);
        Ok(true)
    }

    /// Inserts a tuple; returns whether it was new.
    #[cfg(test)]
    fn insert(&mut self, t: &[ValueId]) -> Result<bool> {
        self.insert_hashed(t, self.hash(t))
    }

    /// The tuples, in insertion order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &[ValueId]> + '_ {
        (0..self.len()).map(|pos| self.tuple_at(pos as u32))
    }

    /// Every position, `0..len()`.
    pub(crate) fn all(&self) -> Range<u32> {
        0..u32::try_from(self.len()).expect("relation overflow")
    }

    /// The positions a scan of `range` visits, ascending: with
    /// `Some((index, key))`, those whose indexed column holds `key`
    /// (`index` must be one of this relation's over exactly `range`); with
    /// `None`, every position in `range`.
    pub(crate) fn positions<'a>(
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

    /// The tuple at `pos` (a position from an index).
    pub(crate) fn tuple_at(&self, pos: u32) -> &[ValueId] {
        let a = self.arity.unwrap_or(0);
        let start = pos as usize * a;
        &self.data[start..start + a]
    }

    /// Number of tuples.
    pub(crate) fn len(&self) -> usize {
        self.members.chains.len()
    }

    /// Is the relation empty?
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The arity, fixed by the first insert; `None` while nothing was ever
    /// stored.
    pub(crate) fn arity(&self) -> Option<usize> {
        self.arity
    }

    /// The incremental index on `col`, if built.
    pub(crate) fn index(&self, col: usize) -> Option<&ColIndex> {
        self.indexes.get(col)?.get().map(Arc::as_ref)
    }

    /// A one-off index on `col` over the positions in `range` — how a
    /// semi-naive round indexes the previous round's delta.
    pub(crate) fn index_over(&self, col: usize, range: Range<u32>) -> ColIndex {
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
    /// Columns beyond the arity have no index to build.
    fn ensure_index(&self, col: usize) {
        if let Some(slot) = self.indexes.get(col) {
            slot.get_or_init(|| Arc::new(self.index_over(col, self.all())));
        }
    }
}

/// Appends to `rel` each of the `count` tuples of `arity` ids (the
/// relation's arity) that `ids` holds back to back and `rel` does not hold
/// yet, in order; returns how many were new. `rel` is unshared — its data,
/// membership and built indexes copied if a clone shares them — only once
/// a first new tuple turns up.
fn insert_new(rel: &mut Arc<IdRelation>, arity: usize, ids: &[ValueId], count: usize) -> usize {
    let mut tuples = (0..count).map(|i| &ids[i * arity..(i + 1) * arity]);
    let Some((first, h)) = tuples
        .by_ref()
        .map(|t| (t, rel.hash(t)))
        .find(|&(t, h)| !rel.contains_hashed(t, h))
    else {
        return 0;
    };
    let mut w = Arc::make_mut(rel).writer(arity);
    w.push(first, h);
    1 + tuples.filter(|t| w.insert(t)).count()
}

/// A database over interned relations. Cloning shares every relation.
#[derive(Debug, Clone, Default)]
pub(crate) struct IdDatabase {
    relations: BTreeMap<String, Arc<IdRelation>>,
}

/// Names the relation in an arity error raised by an [`IdRelation`].
fn name_arity_error(r: &str) -> impl FnOnce(DlError) -> DlError + '_ {
    move |e| match e {
        DlError::Arity {
            expected, found, ..
        } => DlError::Arity {
            rel: r.to_string(),
            expected,
            found,
        },
        other => other,
    }
}

impl IdDatabase {
    /// An empty database.
    pub(crate) fn new() -> IdDatabase {
        IdDatabase::default()
    }

    /// The relation named `r`, if present.
    pub(crate) fn relation(&self, r: &str) -> Option<&IdRelation> {
        self.relations.get(r).map(Arc::as_ref)
    }

    /// The shared storage of relation `r`, if present.
    #[cfg(test)]
    pub(crate) fn shared(&self, r: &str) -> Option<&Arc<IdRelation>> {
        self.relations.get(r)
    }

    /// The relations with their names, in name order.
    pub(crate) fn relations(&self) -> impl Iterator<Item = (&str, &IdRelation)> {
        self.relations.iter().map(|(n, r)| (n.as_str(), r.as_ref()))
    }

    /// Number of relations.
    pub(crate) fn count(&self) -> usize {
        self.relations.len()
    }

    /// Creates relation `r`, empty, if absent.
    pub(crate) fn declare(&mut self, r: &str) {
        self.relation_mut(r);
    }

    /// Relation `r`, created empty if absent.
    fn relation_mut(&mut self, r: &str) -> &mut Arc<IdRelation> {
        if !self.relations.contains_key(r) {
            self.relations.insert(r.to_string(), Arc::default());
        }
        self.relations.get_mut(r).expect("declared above")
    }

    /// Ensures the incremental index on `col` of relation `r` is built.
    /// A no-op for relations that don't exist (yet). A shared relation
    /// stays shared: every database sharing it gets the index.
    pub(crate) fn ensure_index(&self, r: &str, col: usize) {
        if let Some(rel) = self.relation(r) {
            rel.ensure_index(col);
        }
    }

    /// Inserts into relation `r` the `count` tuples of `arity` ids that
    /// `ids` holds back to back, in order, skipping those already stored;
    /// returns how many were new. The relation is looked up once, created
    /// only when `count > 0`, and unshared only by its first new tuple, so a
    /// relation that gains nothing stays shared with every clone.
    pub(crate) fn insert_all(
        &mut self,
        r: &str,
        arity: usize,
        ids: &[ValueId],
        count: usize,
    ) -> Result<usize> {
        if count == 0 {
            return Ok(0);
        }
        let rel = self.relation_mut(r);
        rel.check_arity(arity).map_err(name_arity_error(r))?;
        Ok(insert_new(rel, arity, ids, count))
    }

    /// Inserts a tuple into relation `r` (created if needed); returns
    /// whether it was new.
    #[cfg(test)]
    pub(crate) fn insert(&mut self, r: &str, t: &[ValueId]) -> Result<bool> {
        Ok(self.insert_all(r, t.len(), t, 1)? == 1)
    }

    /// Interns the constants of `t` into `store` and inserts the result into
    /// relation `r` (created if needed); returns whether it was new. A
    /// tuple of the wrong arity fails before any constant is interned.
    pub(crate) fn insert_constants(
        &mut self,
        r: &str,
        t: Vec<Constant>,
        store: &mut ValueStore,
    ) -> Result<bool> {
        let rel = self.relation_mut(r);
        rel.check_arity(t.len()).map_err(name_arity_error(r))?;
        Ok(
            with_id_tuple(t.into_iter().map(|c| Some(store.const_id(c))), |t| {
                insert_new(rel, t.len(), t, 1) == 1
            })
            .expect("every constant interns"),
        )
    }

    /// Total tuple count.
    pub(crate) fn size(&self) -> usize {
        self.relations.values().map(|r| r.len()).sum()
    }

    /// The named relations, sharing their storage with this database:
    /// names without a stored relation are simply absent, which reads as
    /// empty. An empty name set yields an empty database — how the
    /// stratified evaluator skips the freeze entirely for negation-free
    /// strata.
    pub(crate) fn freeze_view<'n>(&self, names: impl IntoIterator<Item = &'n str>) -> IdDatabase {
        let relations = names
            .into_iter()
            .filter_map(|name| self.relations.get_key_value(name))
            .map(|(name, rel)| (name.clone(), Arc::clone(rel)))
            .collect();
        IdDatabase { relations }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cid(store: &mut ValueStore, n: i64) -> ValueId {
        store.const_id(Constant::int(n))
    }

    fn distinct(rel: &IdRelation, col: usize) -> Option<usize> {
        rel.index(col).map(ColIndex::distinct)
    }

    fn postings(rel: &IdRelation, col: usize, key: ValueId) -> Vec<u32> {
        let idx = rel.index(col).expect("index built");
        rel.positions(rel.all(), Some((idx, key))).collect()
    }

    #[test]
    fn pool_fork_continues_ids_and_flattens() {
        // The store a database interns its constants into, forked as
        // evaluation forks the database.
        let mut base = ValueStore::new();
        let a = cid(&mut base, 1);
        let mut fork = base.fork();
        assert_eq!(fork.heap_bytes(), base.heap_bytes(), "nothing copied");
        let b = cid(&mut fork, 2);
        assert_eq!(b.raw(), 1, "new ids continue above the root");
        assert_eq!(cid(&mut fork, 1), a, "root hit");
        assert_eq!(base.len(), 1, "the parent never sees the fork's constants");
        assert_eq!(base.lookup(&Node::Const(Constant::int(2))), None);
        // Root and top both populated: the next fork flattens them and
        // still resolves every constant under its old id.
        let mut leaf = fork.fork();
        assert_eq!(leaf.len(), 2);
        assert_eq!(leaf.heap_bytes(), fork.heap_bytes());
        assert_eq!(leaf.node(a), &Node::Const(Constant::int(1)));
        assert_eq!(leaf.node(b), &Node::Const(Constant::int(2)));
        // A fork with nothing new on top numbers above the same root.
        let mut again = leaf.fork();
        assert_eq!(cid(&mut again, 3).raw(), 2);
        assert_eq!(cid(&mut leaf, 3).raw(), 2);
        assert_eq!(cid(&mut again, 2), b, "root hit after the flatten");
        assert_eq!(fork.len(), 2);
    }

    #[test]
    fn relation_dedups_and_indexes_first_column() {
        let mut store = ValueStore::new();
        let (a, b, c) = (cid(&mut store, 1), cid(&mut store, 2), cid(&mut store, 3));
        let mut rel = IdRelation::default();
        assert!(rel.insert(&[a, b]).unwrap());
        assert!(!rel.insert(&[a, b]).unwrap(), "duplicate");
        assert!(rel.insert(&[a, c]).unwrap());
        assert!(rel.insert(&[b, c]).unwrap());
        assert_eq!(rel.len(), 3);
        assert!(rel.contains(&[a, c]));
        assert!(!rel.contains(&[c, a]));
        assert!(!rel.contains(&[a]), "wrong arity is never contained");
        assert!(rel.index(0).is_none(), "inserts build no index");
        rel.ensure_index(0);
        assert_eq!(postings(&rel, 0, a), vec![0, 1]);
        assert_eq!(postings(&rel, 0, b), vec![2]);
        assert_eq!(
            rel.positions(rel.all(), None).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        // A later column's index, built over the stored tuples, agrees
        // with a scan; ensured indexes are maintained by later inserts and
        // expose the column's distinct count.
        assert!(rel.index(1).is_none());
        rel.ensure_index(1);
        assert_eq!(postings(&rel, 1, c), vec![1, 2]);
        assert_eq!(rel.index(1).map(ColIndex::distinct), Some(2)); // {b, c}
        assert!(rel.insert(&[c, a]).unwrap());
        assert_eq!(postings(&rel, 1, a), vec![3]);
        assert_eq!(rel.index(1).map(ColIndex::distinct), Some(3));
        assert_eq!(postings(&rel, 0, c), vec![3]);
        // Columns beyond the arity have no index.
        rel.ensure_index(2);
        assert!(rel.index(2).is_none());
        assert_eq!(rel.arity(), Some(2));
        // Insertion order is preserved.
        let scan: Vec<&[ValueId]> = rel.iter().collect();
        assert_eq!(scan, vec![&[a, b][..], &[a, c], &[b, c], &[c, a]]);
    }

    #[test]
    fn nullary_relations_hold_at_most_one_tuple() {
        let mut rel = IdRelation::default();
        assert!(!rel.contains(&[]));
        assert!(rel.insert(&[]).unwrap());
        assert!(!rel.insert(&[]).unwrap());
        assert_eq!(rel.len(), 1);
        assert!(rel.contains(&[]));
        assert_eq!(rel.iter().collect::<Vec<_>>(), vec![&[] as &[ValueId]]);
    }

    #[test]
    fn forced_hash_collisions_never_merge_tuples() {
        let mut store = ValueStore::new();
        let ids: Vec<ValueId> = (0..6).map(|n| cid(&mut store, n)).collect();
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
    fn relation_arity_enforced() {
        let mut store = ValueStore::new();
        let a = cid(&mut store, 1);
        let mut rel = IdRelation::default();
        rel.insert(&[a, a]).unwrap();
        assert!(matches!(rel.insert(&[a]), Err(DlError::Arity { .. })));
        let mut db = IdDatabase::new();
        db.insert("R", &[a, a]).unwrap();
        assert!(matches!(
            db.insert("R", &[a]),
            Err(DlError::Arity { rel, expected: 2, found: 1 }) if rel == "R"
        ));
    }

    #[test]
    fn clones_share_storage_until_written() {
        let mut store = ValueStore::new();
        let (a, b) = (cid(&mut store, 1), cid(&mut store, 2));
        let mut db = IdDatabase::new();
        db.insert("Edge", &[a, b]).unwrap();
        let mut fork = db.clone();
        let shared = |x: &IdDatabase, y: &IdDatabase| {
            Arc::ptr_eq(x.shared("Edge").unwrap(), y.shared("Edge").unwrap())
        };
        // A duplicate leaves the relation shared, and so does an index
        // build, which both sides then see.
        assert!(!fork.insert("Edge", &[a, b]).unwrap());
        fork.ensure_index("Edge", 1);
        fork.ensure_index("Edge", 7); // beyond the arity: nothing to build
        assert!(shared(&fork, &db));
        assert_eq!(postings(db.relation("Edge").unwrap(), 1, b), vec![0]);
        // A write copies the relation, and the other side never sees it.
        assert!(fork.insert("Edge", &[b, a]).unwrap());
        assert!(!shared(&fork, &db));
        assert_eq!(db.size(), 1);
        assert_eq!(fork.size(), 2);
        assert!(!db.relation("Edge").unwrap().contains(&[b, a]));
        assert_eq!(postings(fork.relation("Edge").unwrap(), 1, a), vec![1]);
        assert!(postings(db.relation("Edge").unwrap(), 1, a).is_empty());
        // After the split, an index built on one side stays on that side.
        db.ensure_index("Edge", 0);
        assert!(fork.relation("Edge").unwrap().index(0).is_none());
        fork.ensure_index("Edge", 0);
        assert_eq!(postings(fork.relation("Edge").unwrap(), 0, b), vec![1]);
        assert!(postings(db.relation("Edge").unwrap(), 0, b).is_empty());
    }

    #[test]
    fn freeze_view_shares_only_the_negated_relations() {
        let mut store = ValueStore::new();
        let (a, b) = (cid(&mut store, 1), cid(&mut store, 2));
        let mut db = IdDatabase::new();
        db.insert("Neg", &[a, b]).unwrap();
        db.insert("Other", &[b]).unwrap();
        db.ensure_index("Neg", 1);
        let view = db.freeze_view(["Neg", "Missing"]);
        let neg = view.relation("Neg").expect("frozen relation present");
        assert!(neg.contains(&[a, b]));
        assert_eq!(neg.len(), 1);
        // The view shares the relation's storage instead of copying it.
        assert!(Arc::ptr_eq(
            view.shared("Neg").unwrap(),
            db.shared("Neg").unwrap()
        ));
        // Un-negated and missing relations are simply absent.
        assert_eq!(
            view.relations().map(|(n, _)| n).collect::<Vec<_>>(),
            vec!["Neg"]
        );
        assert!(view.relation("Other").is_none());
        assert!(view.relation("Missing").is_none());
        // The empty name set freezes nothing.
        assert_eq!(db.freeze_view([]).count(), 0);
    }

    #[test]
    fn distinct_counts_feed_the_shared_probe_policy() {
        let mut store = ValueStore::new();
        let (a, b, c) = (cid(&mut store, 1), cid(&mut store, 2), cid(&mut store, 3));
        let mut db = IdDatabase::new();
        db.insert("Edge", &[a, b]).unwrap();
        db.insert("Edge", &[a, c]).unwrap();
        let edge = db.relation("Edge").unwrap();
        assert_eq!(edge.len(), 2);
        assert!(db.relation("Nope").is_none());
        // Columns are indexed on demand only.
        assert_eq!(distinct(edge, 0), None);
        db.ensure_index("Edge", 0);
        assert_eq!(distinct(edge, 0), Some(1));
        assert_eq!(distinct(edge, 1), None);
        db.ensure_index("Edge", 1);
        assert_eq!(distinct(edge, 1), Some(2));
        // The shared probe policy picks the more selective column.
        let cands = [0, 1].map(|col| (col, distinct(edge, col)));
        assert_eq!(iql_exec::choose_probe(cands), Some(1));
    }

    #[test]
    fn a_batch_unshares_only_for_a_new_tuple() {
        let mut store = ValueStore::new();
        let (a, b, c) = (cid(&mut store, 1), cid(&mut store, 2), cid(&mut store, 3));
        let mut db = IdDatabase::new();
        db.insert("Edge", &[a, b]).unwrap();
        db.ensure_index("Edge", 0);
        let mut fork = db.clone();
        let shared =
            |x: &IdDatabase| Arc::ptr_eq(x.shared("Edge").unwrap(), db.shared("Edge").unwrap());
        // An empty batch creates nothing; a batch of duplicates writes
        // nothing and leaves the relation shared.
        assert_eq!(fork.insert_all("New", 2, &[], 0).unwrap(), 0);
        assert!(fork.relation("New").is_none());
        assert_eq!(fork.insert_all("Edge", 2, &[a, b, a, b], 2).unwrap(), 0);
        assert!(shared(&fork));
        // A mixed batch appends its new tuples in order, once each, and
        // maintains the built index; the clone it was shared with is
        // untouched.
        let batch = [a, b, b, c, a, b, b, c, c, a];
        assert_eq!(fork.insert_all("Edge", 2, &batch, 5).unwrap(), 2);
        assert!(!shared(&fork));
        let edge = fork.relation("Edge").unwrap();
        let scan: Vec<&[ValueId]> = edge.iter().collect();
        assert_eq!(scan, vec![&[a, b][..], &[b, c], &[c, a]]);
        assert_eq!(postings(edge, 0, c), vec![2]);
        assert_eq!(db.size(), 1);
        // A batch of the wrong arity fails, naming the relation.
        assert!(matches!(
            fork.insert_all("Edge", 1, &[a], 1),
            Err(DlError::Arity { rel, expected: 2, found: 1 }) if rel == "Edge"
        ));
        // Nullary tuples: a batch of several holds one.
        assert_eq!(fork.insert_all("Done", 0, &[], 3).unwrap(), 1);
        assert_eq!(fork.relation("Done").unwrap().len(), 1);
    }

    #[test]
    fn a_range_scans_and_indexes_only_its_positions() {
        let mut store = ValueStore::new();
        let ids: Vec<ValueId> = (0..3).map(|n| cid(&mut store, n)).collect();
        let mut rel = IdRelation::default();
        for (x, y) in [(0, 1), (1, 2), (0, 2), (2, 0), (0, 0), (1, 1)] {
            rel.insert(&[ids[x], ids[y]]).unwrap();
        }
        let range = 2..5;
        assert_eq!(
            rel.positions(range.clone(), None).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert_eq!(rel.positions(3..3, None).count(), 0);
        // A one-off index over the range holds absolute positions, and
        // counts only the range's distinct values.
        let idx = rel.index_over(0, range.clone());
        assert_eq!(idx.distinct(), 2); // {0, 2}
        let probe = |key| {
            rel.positions(range.clone(), Some((&idx, key)))
                .collect::<Vec<_>>()
        };
        assert_eq!(probe(ids[0]), vec![2, 4]);
        assert_eq!(probe(ids[2]), vec![3]);
        assert!(probe(ids[1]).is_empty(), "positions 1 and 5 are outside");
    }
}
