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
//! Relations are the model's [`IdRelation`], the store IQL's `ρ` uses too:
//! one row per tuple in insertion order, hash-chained membership and
//! incremental column indexes, built on demand and shared across forks.
//! Rows never move, so the tuples one batch of inserts added are a position
//! range, which is how semi-naive evaluation reads a delta. Inserts come in
//! batches ([`IdDatabase::insert_all`]) that unshare a relation once, at
//! its first new tuple.

use crate::{DlError, Result};
use iql_model::relation::with_id_tuple;
use iql_model::{
    ArityMismatch, Constant, IdRelation, Node, ValueId, ValueInterner, ValueReader, ValueStore,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The constant behind `id`: a Datalog database interns only constants.
pub(crate) fn constant(store: &ValueStore, id: ValueId) -> &Constant {
    match store.node(id) {
        Node::Const(c) => c,
        other => unreachable!("a Datalog store holds only constants, not {other:?}"),
    }
}

/// The id of `c`, if `store` interned it. Clones nothing.
pub(crate) fn lookup_constant(store: &ValueStore, c: &Constant) -> Option<ValueId> {
    store.lookup_const(c)
}

/// A database over interned relations. Cloning shares every relation.
#[derive(Debug, Clone, Default)]
pub(crate) struct IdDatabase {
    relations: BTreeMap<String, Arc<IdRelation>>,
}

/// Names relation `r` in the arity mismatch of one of its rows.
fn arity_error(r: &str) -> impl FnOnce(ArityMismatch) -> DlError + '_ {
    move |m| DlError::Arity {
        rel: r.to_string(),
        expected: m.expected,
        found: m.found,
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
        IdRelation::insert_all(self.relation_mut(r), arity, ids, count)
            .map(|added| added.new)
            .map_err(arity_error(r))
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
        rel.check_arity(t.len()).map_err(arity_error(r))?;
        let added = with_id_tuple(t.into_iter().map(|c| Some(store.const_id(c))), |t| {
            IdRelation::insert_all(rel, t.len(), t, 1)
        })
        .expect("every constant interns")
        .expect("arity checked above");
        Ok(added.new == 1)
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
    use iql_model::ColIndex;

    /// Inserts one tuple into `rel`; returns whether it was new.
    fn insert(
        rel: &mut Arc<IdRelation>,
        t: &[ValueId],
    ) -> std::result::Result<bool, ArityMismatch> {
        IdRelation::insert_all(rel, t.len(), t, 1).map(|added| added.new == 1)
    }

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
        let mut rel = Arc::new(IdRelation::default());
        assert!(insert(&mut rel, &[a, b]).unwrap());
        assert!(!insert(&mut rel, &[a, b]).unwrap(), "duplicate");
        assert!(insert(&mut rel, &[a, c]).unwrap());
        assert!(insert(&mut rel, &[b, c]).unwrap());
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
        assert!(insert(&mut rel, &[c, a]).unwrap());
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
        let mut rel = Arc::new(IdRelation::default());
        assert!(!rel.contains(&[]));
        assert!(insert(&mut rel, &[]).unwrap());
        assert!(!insert(&mut rel, &[]).unwrap());
        assert_eq!(rel.len(), 1);
        assert!(rel.contains(&[]));
        assert_eq!(rel.iter().collect::<Vec<_>>(), vec![&[] as &[ValueId]]);
    }

    #[test]
    fn relation_arity_enforced() {
        let mut store = ValueStore::new();
        let a = cid(&mut store, 1);
        let mut rel = Arc::new(IdRelation::default());
        insert(&mut rel, &[a, a]).unwrap();
        assert_eq!(
            insert(&mut rel, &[a]),
            Err(ArityMismatch {
                expected: 2,
                found: 1
            })
        );
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
        let mut rel = Arc::new(IdRelation::default());
        for (x, y) in [(0, 1), (1, 2), (0, 2), (2, 0), (0, 0), (1, 1)] {
            insert(&mut rel, &[ids[x], ids[y]]).unwrap();
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
