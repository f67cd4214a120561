//! Instances (Definition 2.3.2) and their ground-fact representation.
//!
//! An instance of schema `(R, P, T)` is a triple `(ρ, π, ν)`:
//!
//! * `ρ` assigns each relation name a finite set of o-values of type `T(R)`;
//! * `π` assigns each class name a finite, pairwise-disjoint set of oids;
//! * `ν` partially maps the oids of the instance to o-values of their
//!   class's type, and is **total** on set-valued classes (condition 3) —
//!   "knowing nothing about a set" is represented as the empty set
//!   (Remark 2.3.3).
//!
//! Oids with undefined `ν` model incomplete information (like `other` in the
//! Genesis example) and, crucially, the intermediate stages of IQL
//! evaluation, where objects are built incrementally.
//!
//! Cyclicity lives entirely in `ν`: o-values are finite trees, and following
//! `ν` through oids may loop (e.g. `adam ↦ [spouse: eve, …]`,
//! `eve ↦ [spouse: adam, …]`).

use crate::constant::Constant;
use crate::error::ModelError;
use crate::idgen::{Oid, OidGen};
use crate::names::{AttrName, ClassName, RelName};
use crate::ovalue::OValue;
use crate::relation::{ColIndex, IdRelation, Inserted};
use crate::schema::Schema;
use crate::stats::InstanceStats;
use crate::store::{Node, Overlay, ValueId, ValueInterner, ValueReader, ValueStore};
use crate::types::{ClassMap, EnumUniverse, OidClasses, TypeExpr};
use crate::Result;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fmt;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// One ground fact of the logic-programming representation of an instance
/// (Section 2.3):
///
/// ```text
/// R(v)      for v ∈ ρ(R)
/// P(o)      for o ∈ π(P)
/// ô(v)      for v ∈ ν(o), o set-valued
/// ô = v     for v = ν(o), o non-set-valued
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum GroundFact {
    /// `R(v)` — membership of an o-value in a relation.
    Rel(RelName, OValue),
    /// `P(o)` — membership of an oid in a class.
    Class(ClassName, Oid),
    /// `ô(v)` — membership in the value of a set-valued oid.
    SetMember(Oid, OValue),
    /// `ô = v` — the value of a non-set-valued oid.
    Value(Oid, OValue),
}

impl fmt::Display for GroundFact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GroundFact::Rel(r, v) => write!(f, "{r}({v})"),
            GroundFact::Class(p, o) => write!(f, "{p}({o})"),
            GroundFact::SetMember(o, v) => write!(f, "{o}^({v})"),
            GroundFact::Value(o, v) => write!(f, "{o}^ = {v}"),
        }
    }
}

/// An instance `(ρ, π, ν)` of a schema.
///
/// `ρ` and `ν` are stored **only as interned ids** (`rels`, `nu_ids`) over
/// a hash-consing [`ValueStore`]: hash-consing gives each o-value exactly
/// one [`ValueId`], so the id already is the value. Every mutator writes
/// ids; the `OValue`-taking ones intern their argument and call the id
/// version. The trees returned by [`Instance::relation`] and
/// [`Instance::value`] are a read-only view, built from the ids on first
/// read — one cache per relation plus one for `ν` — and dropped by any
/// write to that part.
///
/// Each relation is an [`IdRelation`], the store the Datalog engine uses
/// too, holding one row per fact in insertion order: the fact id, then —
/// when `T(R)` is a tuple type or a union of tuple types — one column per
/// attribute, in attribute order, holding the fact's field id, or
/// [`ValueId::ABSENT`] where the fact lacks the attribute. The fact id is
/// the row's key, so membership probes it alone; a probe on an attribute
/// reads that column's incremental index.
///
/// Every part is **copy-on-write**: each relation (with its built column
/// indexes), each class extent, `ν`, the class inverse, the value store
/// and any built tree view sit behind `Arc`s and are copied only on the
/// first write through [`Arc::make_mut`]. Cloning is therefore
/// O(#relations + #classes) whatever the data size, and [`Instance::fork`]
/// widens a snapshot to a larger schema at the same cost without copying a
/// single fact.
#[derive(Clone)]
pub struct Instance {
    schema: Arc<Schema>,
    /// `ρ`: each relation's facts as interned ids, with its tree view.
    rels: BTreeMap<RelName, RelFacts>,
    classes: BTreeMap<ClassName, Arc<BTreeSet<Oid>>>,
    /// `ν` as interned ids.
    nu_ids: Arc<BTreeMap<Oid, ValueId>>,
    /// The tree view of `ν`, built from `nu_ids` on first read.
    nu_view: OnceLock<Arc<BTreeMap<Oid, OValue>>>,
    /// Inverse of `π` — enforces disjointness and gives O(log n) class-of.
    oid_class: Arc<BTreeMap<Oid, ClassName>>,
    gen: OidGen,
    /// Hash-consing arena every id of `ρ` and `ν` resolves through.
    store: ValueStore,
    /// Monotone statistics epoch: bumped whenever the cardinality picture a
    /// planner might have cached goes stale — a relation or class extent
    /// crosses a power-of-two threshold, a built index's distinct-key count
    /// does, a new index is built, or facts are deleted. Cached plans keyed
    /// by this epoch stay valid exactly while it holds still.
    stats_epoch: u64,
    /// Set once [`Instance::validate`] has passed, and cleared by every
    /// write to ρ, π or ν, so a snapshot that is validated again and again
    /// (one per request) is checked once.
    valid: OnceLock<()>,
}

/// One relation's facts: their rows, which are the state, with the
/// attributes of the field columns, and the tree view built from the rows
/// on first read. Clones share all three.
#[derive(Clone)]
struct RelFacts {
    rows: Arc<IdRelation>,
    /// The attribute of each column after the first, in attribute order.
    attrs: Arc<[AttrName]>,
    view: OnceLock<Arc<BTreeSet<OValue>>>,
}

/// The attributes of `ty` if it is a tuple type or a union of them.
fn tuple_attrs(ty: &TypeExpr) -> Option<BTreeSet<AttrName>> {
    match ty {
        TypeExpr::Tuple(fields) => Some(fields.keys().copied().collect()),
        TypeExpr::Union(a, b) => Some(&tuple_attrs(a)? | &tuple_attrs(b)?),
        _ => None,
    }
}

impl RelFacts {
    /// No facts, in the row layout of `schema`'s relation `r`.
    fn new(schema: &Schema, r: RelName) -> RelFacts {
        let ty = schema.relation_type(r).expect("own relation");
        let attrs: Arc<[AttrName]> = tuple_attrs(ty).unwrap_or_default().into_iter().collect();
        RelFacts {
            rows: Arc::new(IdRelation::with_key(1 + attrs.len(), 1)),
            attrs,
            view: OnceLock::new(),
        }
    }

    /// The fact ids, in insertion order.
    fn ids(&self) -> impl ExactSizeIterator<Item = ValueId> + '_ {
        self.rows.column(0)
    }

    /// Is `fid` a fact? The fact id is the key of its row.
    fn holds(&self, fid: ValueId) -> bool {
        self.rows.contains(&[fid])
    }

    /// The row layout of this relation.
    fn layout(&self) -> RowLayout<'_> {
        RowLayout { attrs: &self.attrs }
    }

    /// Appends those of the `count` rows of `rows` (see
    /// [`Instance::insert_rows`]) that are not facts yet. Only a new fact
    /// unshares the rows and drops the tree view.
    fn insert_rows(&mut self, rows: &[ValueId], count: usize) -> Inserted {
        let arity = self.layout().arity();
        assert_eq!(
            rows.len(),
            count * arity,
            "whole rows of the relation's layout"
        );
        let added = IdRelation::insert_all(&mut self.rows, arity, rows, count)
            .expect("a fact row fits its relation");
        if added.new > 0 {
            self.view.take();
        }
        added
    }

    /// The facts `keep` accepts, with no index built.
    fn retain(&self, mut keep: impl FnMut(ValueId) -> bool) -> RelFacts {
        RelFacts {
            rows: Arc::new(self.rows.retain(|row| keep(row[0]))),
            attrs: Arc::clone(&self.attrs),
            view: OnceLock::new(),
        }
    }

    /// The column holding field `attr`, if the layout has one.
    fn column(&self, attr: AttrName) -> Option<usize> {
        self.attrs.binary_search(&attr).ok().map(|a| a + 1)
    }

    /// The built index on field `attr`, if any.
    fn index(&self, attr: AttrName) -> Option<&ColIndex> {
        self.rows.index(self.column(attr)?)
    }
}

/// How an IQL relation lays out a fact as a row (see [`Instance`]): the
/// fact id, then one column per attribute of the layout, in attribute
/// order, holding the fact's field id or [`ValueId::ABSENT`].
#[derive(Clone, Copy, Debug)]
pub struct RowLayout<'a> {
    attrs: &'a [AttrName],
}

impl<'a> RowLayout<'a> {
    /// Ids per row: the fact id and one per field column.
    pub fn arity(&self) -> usize {
        1 + self.attrs.len()
    }

    /// Writes the row of fact `fid` into `row`, which holds
    /// [`RowLayout::arity`] ids. `fields` are the fact's tuple entries,
    /// sorted by attribute, or empty if it is no tuple.
    pub fn write_row(&self, row: &mut [ValueId], fid: ValueId, fields: &[(AttrName, ValueId)]) {
        row[0] = fid;
        for (cell, a) in row[1..].iter_mut().zip(self.attrs) {
            *cell = fields
                .binary_search_by_key(a, |(b, _)| *b)
                .map_or(ValueId::ABSENT, |i| fields[i].1);
        }
    }

    /// [`RowLayout::write_row`] for the fact `fid`, whose node `reader`
    /// resolves.
    pub fn write_fact<R: ValueReader + ?Sized>(
        &self,
        row: &mut [ValueId],
        fid: ValueId,
        reader: &R,
    ) {
        match reader.node(fid) {
            Node::Tuple(fields) => self.write_row(row, fid, fields),
            _ => self.write_row(row, fid, &[]),
        }
    }

    /// Appends the row of fact `fid` to `out` (see
    /// [`RowLayout::write_row`]).
    pub fn push_row(&self, out: &mut Vec<ValueId>, fid: ValueId, fields: &[(AttrName, ValueId)]) {
        let start = out.len();
        out.resize(start + self.arity(), ValueId::ABSENT);
        self.write_row(&mut out[start..], fid, fields);
    }

    /// Appends the row of fact `fid`, whose node `reader` resolves.
    pub fn push_fact<R: ValueReader + ?Sized>(
        &self,
        out: &mut Vec<ValueId>,
        fid: ValueId,
        reader: &R,
    ) {
        let start = out.len();
        out.resize(start + self.arity(), ValueId::ABSENT);
        self.write_fact(&mut out[start..], fid, reader);
    }
}

impl Instance {
    /// An empty instance of `schema`: all relations and classes empty.
    pub fn new(schema: Arc<Schema>) -> Instance {
        let rels = schema
            .relations()
            .map(|r| (r, RelFacts::new(&schema, r)))
            .collect();
        let classes = schema.classes().map(|c| (c, Arc::default())).collect();
        Instance {
            schema,
            rels,
            classes,
            nu_ids: Arc::default(),
            nu_view: OnceLock::new(),
            oid_class: Arc::default(),
            gen: OidGen::new(),
            store: ValueStore::new(),
            stats_epoch: 0,
            valid: OnceLock::new(),
        }
    }

    /// Widens this instance to `schema`, of which its own schema must be a
    /// projection: the result holds the same ρ, π and ν, with the relations
    /// and classes only `schema` has starting empty. O(#relations +
    /// #classes): every relation with its built indexes, `ν` and the
    /// value store are shared copy-on-write (the store through
    /// [`ValueStore::fork`], so values interned by either side never reach
    /// the other), and value ids keep their numbering.
    ///
    /// The fork's oid generator restarts just above the live oids rather
    /// than inheriting this instance's, so equal instances (equality
    /// ignores the generator) invent equal oids whatever their history.
    pub fn fork(&self, schema: &Arc<Schema>) -> Result<Instance> {
        if !schema.is_projection_of(&self.schema) {
            return Err(ModelError::NotASubschema(format!("{}", self.schema)));
        }
        let mut rels = self.rels.clone();
        for r in schema.relations() {
            rels.entry(r).or_insert_with(|| RelFacts::new(schema, r));
        }
        let mut classes = self.classes.clone();
        for p in schema.classes() {
            classes.entry(p).or_default();
        }
        Ok(Instance {
            schema: Arc::clone(schema),
            rels,
            classes,
            nu_ids: Arc::clone(&self.nu_ids),
            nu_view: self.nu_view.clone(),
            oid_class: Arc::clone(&self.oid_class),
            gen: live_oid_floor(&self.oid_class),
            store: self.store.fork(),
            stats_epoch: self.stats_epoch,
            valid: OnceLock::new(),
        })
    }

    /// The instance's schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    // ------------------------------------------------------------------
    // ρ — relations
    // ------------------------------------------------------------------

    /// `ρ(R)` — the contents of relation `r`, as o-value trees. The set is
    /// built from the interned facts on the first read after a write to
    /// `r`; use [`Instance::relation_ids`] to read without building it.
    pub fn relation(&self, r: RelName) -> Result<&BTreeSet<OValue>> {
        let facts = self.rels.get(&r).ok_or(ModelError::UnknownRelation(r))?;
        // Sorting the ids in tree order first hands the set its elements
        // in order, so building it compares each value once.
        let resolve = || {
            let mut ids: Vec<ValueId> = facts.ids().collect();
            ids.sort_unstable_by(|&a, &b| self.store.cmp_resolved(a, b));
            ids.into_iter().map(|id| self.store.resolve(id)).collect()
        };
        Ok(facts.view.get_or_init(|| Arc::new(resolve())))
    }

    /// Inserts `v` into `ρ(R)` after type-checking it against `T(R)`.
    /// Returns `true` if the fact was new (relations are duplicate-free).
    pub fn insert(&mut self, r: RelName, v: OValue) -> Result<bool> {
        let ty = self.schema.relation_type(r)?.clone();
        if !ty.member(&v, self) {
            return Err(ModelError::IllTypedRelation {
                rel: r,
                value: v.to_string(),
            });
        }
        self.insert_unchecked(r, v)
    }

    /// Inserts without type-checking — the IQL evaluator uses this on facts
    /// whose well-typedness is guaranteed statically by rule-head typing
    /// (Section 3.3).
    pub fn insert_unchecked(&mut self, r: RelName, v: OValue) -> Result<bool> {
        let id = self.store.intern(&v);
        self.insert_id(r, id)
    }

    /// Id-native variant of [`Instance::insert_unchecked`]: `id` must come
    /// from this instance's [`ValueStore`]. A new fact is folded into `r`'s
    /// built indexes and the statistics epoch.
    pub fn insert_id(&mut self, r: RelName, id: ValueId) -> Result<bool> {
        let facts = self
            .rels
            .get_mut(&r)
            .ok_or(ModelError::UnknownRelation(r))?;
        // Rows of up to eight ids are built on the stack.
        let arity = facts.layout().arity();
        let mut small = [ValueId::ABSENT; 8];
        let mut big = Vec::new();
        let row = match small.get_mut(..arity) {
            Some(row) => row,
            None => {
                big.resize(arity, ValueId::ABSENT);
                &mut big[..]
            }
        };
        facts.layout().write_fact(row, id, &self.store);
        let added = facts.insert_rows(row, 1);
        self.wrote(added);
        if added.new > 0 {
            self.reserve_oids_of(id);
        }
        Ok(added.new > 0)
    }

    /// Adds to `ρ(R)` the facts of the rows that `rows` holds back to back,
    /// in order, skipping those already present, with one write to the
    /// relation and its built indexes. Each row must be a fact id from
    /// this instance's [`ValueStore`] followed by its field columns, as
    /// [`RowLayout::push_row`] lays them out for `r`. Returns the positions
    /// of the rows added: they are consecutive.
    pub fn insert_rows(&mut self, r: RelName, rows: &[ValueId]) -> Result<Range<u32>> {
        let facts = self
            .rels
            .get_mut(&r)
            .ok_or(ModelError::UnknownRelation(r))?;
        let arity = facts.layout().arity();
        debug_assert!(
            rows.chunks(arity).all(|row| {
                let mut want = Vec::with_capacity(arity);
                facts.layout().push_fact(&mut want, row[0], &self.store);
                *row == want
            }),
            "each row is its fact id and the fact's fields"
        );
        let start = facts.rows.all().end;
        let added = facts.insert_rows(rows, rows.len() / arity);
        let new = start..facts.rows.all().end;
        // Keep the oid generator above the new facts' oids (see
        // `reserve_oids_of`).
        for pos in new.clone() {
            for &o in self.store.oids(facts.rows.tuple_at(pos)[0]) {
                self.gen.reserve_above(o);
            }
        }
        self.wrote(added);
        Ok(new)
    }

    /// Folds a write to a relation into the statistics epoch and the
    /// validation memo.
    fn wrote(&mut self, added: Inserted) {
        if added.new > 0 {
            if added.crossed {
                self.stats_epoch += 1;
            }
            self.valid.take();
        }
    }

    /// Removes `v` from `ρ(R)`; returns whether it was present. A value the
    /// store has never seen is not interned: it is probed through an
    /// [`Overlay`], whose local ids prove absence.
    pub fn remove(&mut self, r: RelName, v: &OValue) -> Result<bool> {
        let id = Overlay::new(&self.store).intern(v);
        if id.raw() as usize >= self.store.len() {
            return self.relation_ids(r).map(|_| false);
        }
        self.remove_id(r, id)
    }

    /// Id-native variant of [`Instance::remove`]: `id` must come from this
    /// instance's [`ValueStore`].
    pub fn remove_id(&mut self, r: RelName, id: ValueId) -> Result<bool> {
        let facts = self
            .rels
            .get_mut(&r)
            .ok_or(ModelError::UnknownRelation(r))?;
        if !facts.holds(id) {
            return Ok(false);
        }
        // Rows never move in place: the relation is rebuilt without the
        // fact, and its indexes rebuild lazily.
        *facts = facts.retain(|fid| fid != id);
        self.stats_epoch += 1;
        self.valid.take();
        Ok(true)
    }

    // ------------------------------------------------------------------
    // π — classes and oid invention
    // ------------------------------------------------------------------

    /// `π(P)` — the extent of class `p`.
    pub fn class(&self, p: ClassName) -> Result<&BTreeSet<Oid>> {
        shared(&self.classes, p, ModelError::UnknownClass).map(|set| &**set)
    }

    /// Invents a fresh oid in class `p` (the IQL invention primitive). The
    /// new oid receives the paper's default value: the empty set for
    /// set-valued classes, undefined otherwise.
    pub fn create_oid(&mut self, p: ClassName) -> Result<Oid> {
        if !self.schema.has_class(p) {
            return Err(ModelError::UnknownClass(p));
        }
        let oid = self.gen.fresh();
        self.register_oid(p, oid)?;
        Ok(oid)
    }

    /// Adopts a caller-chosen oid into class `p` — used by tests and by the
    /// φ translation from the value-based model. Fails if the oid already
    /// belongs to a class (disjointness, Definition 2.1.2).
    pub fn adopt_oid(&mut self, p: ClassName, oid: Oid) -> Result<()> {
        if !self.schema.has_class(p) {
            return Err(ModelError::UnknownClass(p));
        }
        self.gen.reserve_above(oid);
        self.register_oid(p, oid)
    }

    fn register_oid(&mut self, p: ClassName, oid: Oid) -> Result<()> {
        if let Some(existing) = self.oid_class.get(&oid) {
            if *existing == p {
                return Ok(()); // idempotent
            }
            return Err(ModelError::NonDisjointClasses {
                first: *existing,
                second: p,
                oid: oid.raw(),
            });
        }
        self.valid.take();
        Arc::make_mut(&mut self.oid_class).insert(oid, p);
        let extent = Arc::make_mut(
            self.classes
                .get_mut(&p)
                .expect("class present by construction"),
        );
        extent.insert(oid);
        if extent.len().is_power_of_two() {
            self.stats_epoch += 1;
        }
        if self.schema.is_set_valued_class(p)? {
            let empty = self.store.set_id(Vec::new());
            self.nu_mut().insert(oid, empty);
        }
        Ok(())
    }

    /// The class an oid belongs to, if any.
    pub fn class_of(&self, oid: Oid) -> Option<ClassName> {
        self.oid_class.get(&oid).copied()
    }

    /// Is `oid` set-valued (its class's type is `{t}`)?
    pub fn is_set_valued(&self, oid: Oid) -> bool {
        self.class_of(oid)
            .and_then(|p| self.schema.is_set_valued_class(p).ok())
            .unwrap_or(false)
    }

    // ------------------------------------------------------------------
    // ν — values
    // ------------------------------------------------------------------

    /// `ν(o)` — the value of `oid` if defined, as an o-value tree.
    /// Set-valued oids always have a value (possibly `{}`). The trees of
    /// the whole of `ν` are built from the interned values on the first
    /// read after a write to `ν`; use [`Instance::value_id`] to read
    /// without building them.
    pub fn value(&self, oid: Oid) -> Option<&OValue> {
        self.nu_tree().get(&oid)
    }

    /// The tree view of `ν`, built on first read.
    fn nu_tree(&self) -> &BTreeMap<Oid, OValue> {
        self.nu_view.get_or_init(|| {
            Arc::new(
                self.nu_ids
                    .iter()
                    .map(|(&o, &id)| (o, self.store.resolve(id)))
                    .collect(),
            )
        })
    }

    /// `ν` for writing: unshared, with the tree view and the validation
    /// memo dropped.
    fn nu_mut(&mut self) -> &mut BTreeMap<Oid, ValueId> {
        self.nu_view.take();
        self.valid.take();
        Arc::make_mut(&mut self.nu_ids)
    }

    /// The *weak assignment* `ô = v` (Section 3.2, condition (†)): succeeds
    /// only if `ν(oid)` is currently undefined. Use on non-set-valued oids;
    /// the caller (the evaluator) handles per-step conflict resolution.
    pub fn define_value(&mut self, oid: Oid, v: OValue) -> Result<bool> {
        let id = self.store.intern(&v);
        self.define_value_id(oid, id)
    }

    /// Id-native variant of [`Instance::define_value`]: `id` must come from
    /// this instance's [`ValueStore`].
    pub fn define_value_id(&mut self, oid: Oid, id: ValueId) -> Result<bool> {
        let class = self.class_of(oid).ok_or(ModelError::StrayOid(oid.raw()))?;
        if self.schema.is_set_valued_class(class)? {
            return Err(ModelError::Invalid(format!(
                "oid {oid} of class {class} is set-valued; use add_set_member"
            )));
        }
        if self.nu_ids.contains_key(&oid) {
            return Ok(false);
        }
        self.reserve_oids_of(id);
        self.nu_mut().insert(oid, id);
        Ok(true)
    }

    /// Adds `v` to the set value of a set-valued oid (`ô(v)` facts are
    /// inflationary: the set only grows). Returns whether it was new.
    pub fn add_set_member(&mut self, oid: Oid, v: OValue) -> Result<bool> {
        let id = self.store.intern(&v);
        self.add_set_member_id(oid, id)
    }

    /// Id-native variant of [`Instance::add_set_member`]: `id` must come from
    /// this instance's [`ValueStore`].
    pub fn add_set_member_id(&mut self, oid: Oid, id: ValueId) -> Result<bool> {
        Ok(self.add_set_members_id(oid, &[id])? == 1)
    }

    /// Adds every id of `ids` (from this instance's [`ValueStore`]) to the
    /// set value of a set-valued oid, interning one new set node for all of
    /// them, and returns how many members were new. A set that gains k
    /// members this way leaves no intermediate set nodes in the store.
    pub fn add_set_members_id(&mut self, oid: Oid, ids: &[ValueId]) -> Result<usize> {
        let class = self.class_of(oid).ok_or(ModelError::StrayOid(oid.raw()))?;
        if !self.schema.is_set_valued_class(class)? {
            return Err(ModelError::Invalid(format!(
                "oid {oid} of class {class} is not set-valued; use define_value"
            )));
        }
        let old = *self
            .nu_ids
            .get(&oid)
            .expect("set-valued oids always carry a set value");
        let elems = self
            .store
            .as_set(old)
            .expect("set-valued oids always carry a set value");
        let mut fresh: Vec<ValueId> = ids
            .iter()
            .copied()
            .filter(|id| elems.binary_search(id).is_err())
            .collect();
        if fresh.is_empty() {
            return Ok(0);
        }
        fresh.sort_unstable();
        fresh.dedup();
        let elems = [elems, &fresh].concat();
        for &id in &fresh {
            self.reserve_oids_of(id);
        }
        let new_id = self.store.set_id(elems);
        self.nu_mut().insert(oid, new_id);
        Ok(fresh.len())
    }

    /// Removes `id` from the value of `oid` when that value is a set
    /// holding it — the IQL\* deletion of an `ô(v)` fact. Returns whether
    /// it was a member; an undefined or non-set value holds nothing.
    pub fn remove_set_member_id(&mut self, oid: Oid, id: ValueId) -> bool {
        let Some(elems) = self.value_id(oid).and_then(|old| self.store.as_set(old)) else {
            return false;
        };
        if elems.binary_search(&id).is_err() {
            return false;
        }
        let rest = elems.iter().copied().filter(|&e| e != id).collect();
        let new_id = self.store.set_id(rest);
        self.nu_mut().insert(oid, new_id);
        true
    }

    /// Overwrites `ν(oid)` unconditionally. Not part of IQL's semantics
    /// (which is inflationary); provided for instance construction and for
    /// IQL\* deletion cascades.
    pub fn overwrite_value(&mut self, oid: Oid, v: OValue) -> Result<()> {
        let id = self.store.intern(&v);
        self.overwrite_value_id(oid, id)
    }

    /// Id-native variant of [`Instance::overwrite_value`]: `id` must come
    /// from this instance's [`ValueStore`].
    pub fn overwrite_value_id(&mut self, oid: Oid, id: ValueId) -> Result<()> {
        if self.class_of(oid).is_none() {
            return Err(ModelError::StrayOid(oid.raw()));
        }
        self.reserve_oids_of(id);
        self.nu_mut().insert(oid, id);
        Ok(())
    }

    /// Makes `ν(oid)` undefined (only legal for non-set-valued oids; used by
    /// deletion cascades).
    pub fn undefine_value(&mut self, oid: Oid) -> Result<()> {
        if self.is_set_valued(oid) {
            let empty = self.store.set_id(Vec::new());
            self.nu_mut().insert(oid, empty);
        } else if self.nu_ids.contains_key(&oid) {
            self.nu_mut().remove(&oid);
        }
        Ok(())
    }

    /// Deletes an oid entirely: removes it from its class, drops `ν(oid)`,
    /// and cascades through the instance (IQL\*, Section 4.5): relation
    /// tuples mentioning it outside set positions are removed; set members
    /// mentioning it are removed; non-set values mentioning it become
    /// undefined. Only the values mentioning the oid are resolved, cleaned
    /// with [`OValue::without_oid`] and re-interned.
    pub fn delete_oid(&mut self, oid: Oid) -> Result<()> {
        let Some(class) = self.class_of(oid) else {
            return Ok(());
        };
        self.valid.take();
        Arc::make_mut(self.classes.get_mut(&class).expect("class exists")).remove(&oid);
        Arc::make_mut(&mut self.oid_class).remove(&oid);
        if self.nu_ids.contains_key(&oid) {
            self.nu_mut().remove(&oid);
        }
        self.stats_epoch += 1;
        // Cascade through relations. Only relations with a fact mentioning
        // the dead oid are rebuilt, and only they lose their indexes; the
        // rest keep their rows and indexes — still shared with any fork.
        let touched: Vec<RelName> = self
            .rels
            .iter()
            .filter(|(_, facts)| facts.ids().any(|id| self.store.mentions_oid(id, oid)))
            .map(|(r, _)| *r)
            .collect();
        for r in touched {
            let old = &self.rels[&r];
            let dirty: Vec<ValueId> = old
                .ids()
                .filter(|&id| self.store.mentions_oid(id, oid))
                .collect();
            let mut facts = old.retain(|id| !self.store.mentions_oid(id, oid));
            let (mut rows, mut count) = (Vec::new(), 0);
            for id in dirty {
                if let Some(clean) = self.store.resolve(id).without_oid(oid) {
                    let id = self.store.intern(&clean);
                    facts.layout().push_fact(&mut rows, id, &self.store);
                    count += 1;
                }
            }
            facts.insert_rows(&rows, count);
            self.rels.insert(r, facts);
        }
        // Cascade through ν.
        let touched: Vec<(Oid, ValueId)> = self
            .nu_ids
            .iter()
            .filter(|(_, &id)| self.store.mentions_oid(id, oid))
            .map(|(&o, &id)| (o, id))
            .collect();
        for (o, id) in touched {
            match self.store.resolve(id).without_oid(oid) {
                Some(clean) => {
                    let id = self.store.intern(&clean);
                    self.nu_mut().insert(o, id);
                }
                // The value irreparably mentions the dead oid.
                None => self.undefine_value(o)?,
            }
        }
        Ok(())
    }

    /// Keeps the oid generator above every oid the value behind `id`
    /// mentions, so invention can never collide with adopted oids. Reads
    /// the store's cached oid metadata instead of walking the value.
    fn reserve_oids_of(&mut self, id: ValueId) {
        for &o in self.store.oids(id) {
            self.gen.reserve_above(o);
        }
    }

    // ------------------------------------------------------------------
    // Interned state — ρ and ν as ValueIds
    // ------------------------------------------------------------------

    /// The hash-consing arena every id of `ρ` and `ν` resolves through.
    /// Ids obtained from accessors on this instance resolve here.
    pub fn store(&self) -> &ValueStore {
        &self.store
    }

    /// Mutable access to the arena — for interning query-side values and
    /// absorbing worker overlays. The store is append-only, so this cannot
    /// invalidate any id already handed out.
    pub fn store_mut(&mut self) -> &mut ValueStore {
        &mut self.store
    }

    /// Interns an o-value into this instance's store without inserting it
    /// anywhere. Equal values get equal ids.
    pub fn intern_value(&mut self, v: &OValue) -> ValueId {
        self.store.intern(v)
    }

    /// `ρ(R)` as interned ids, in insertion order — the facts
    /// [`Instance::relation`] resolves.
    pub fn relation_ids(&self, r: RelName) -> Result<impl ExactSizeIterator<Item = ValueId> + '_> {
        self.id_view().relation_ids(r)
    }

    /// The rows `ρ(R)` is stored as: column 0 holds the fact ids, and each
    /// later column one attribute's field ids (see [`Instance`]).
    pub fn relation_rows(&self, r: RelName) -> Result<&IdRelation> {
        self.id_view().relation_rows(r)
    }

    /// `ν(oid)` as an interned id — the value [`Instance::value`] resolves.
    pub fn value_id(&self, oid: Oid) -> Option<ValueId> {
        self.nu_ids.get(&oid).copied()
    }

    /// The whole of `ν` as interned ids.
    pub fn value_id_map(&self) -> &BTreeMap<Oid, ValueId> {
        &self.nu_ids
    }

    // ------------------------------------------------------------------
    // Column indexes and statistics
    // ------------------------------------------------------------------

    /// Builds the index on the `(r, attr)` column if absent; cheap once
    /// built. Relations without such a column are ignored (there is
    /// nothing to index). The index is shared with every instance sharing
    /// the relation, such as a fork. A fresh build changes the statistics
    /// picture (a new distinct-count census exists), so it bumps the stats
    /// epoch.
    pub fn ensure_rel_index(&mut self, r: RelName, attr: AttrName) {
        let facts = self.rels.get(&r);
        if facts.and_then(|f| Some(f.rows.ensure_index(f.column(attr)?))) == Some(true) {
            self.stats_epoch += 1;
        }
    }

    /// The index on the `(r, attr)` column, if built.
    pub fn rel_index(&self, r: RelName, attr: AttrName) -> Option<&ColIndex> {
        self.rels.get(&r)?.index(attr)
    }

    /// Cardinality statistics for cost-based planning.
    pub fn stats(&self) -> InstanceStats<'_> {
        InstanceStats::new(self)
    }

    /// The monotone statistics epoch: advances whenever cached cardinality
    /// estimates (extents, distinct counts, which indexes exist) may have
    /// gone stale enough to re-plan. A plan computed at epoch `e` stays
    /// valid while `stats_epoch()` still returns `e`.
    pub fn stats_epoch(&self) -> u64 {
        self.stats_epoch
    }

    /// A read-only view of the interned state (ρ, π, ν as ids) that does
    /// **not** borrow the store — so callers can hold it alongside a
    /// worker-local [`crate::Overlay`] over [`Instance::store`].
    pub fn id_view(&self) -> IdView<'_> {
        IdView {
            schema: &self.schema,
            rels: &self.rels,
            classes: &self.classes,
            nu_ids: &self.nu_ids,
            oid_class: &self.oid_class,
        }
    }

    /// Splits a mutable instance borrow into the mutable store and the
    /// read-only id view — how the evaluator's apply phase interns derived
    /// values while reading the current state.
    pub fn store_and_view(&mut self) -> (&mut ValueStore, IdView<'_>) {
        (
            &mut self.store,
            IdView {
                schema: &self.schema,
                rels: &self.rels,
                classes: &self.classes,
                nu_ids: &self.nu_ids,
                oid_class: &self.oid_class,
            },
        )
    }

    // ------------------------------------------------------------------
    // Derived views
    // ------------------------------------------------------------------

    /// `objects(I)` — every oid occurring in the instance. Uses the store's
    /// cached per-node oid sets instead of re-walking value trees.
    pub fn objects(&self) -> BTreeSet<Oid> {
        let mut out: BTreeSet<Oid> = self.oid_class.keys().copied().collect();
        for id in self.fact_ids() {
            out.extend(self.store.oids(id).iter().copied());
        }
        out
    }

    /// The ids of `o-values(I)`'s roots: every relation fact and every
    /// defined `ν` value.
    fn fact_ids(&self) -> impl Iterator<Item = ValueId> + '_ {
        self.rels
            .values()
            .flat_map(RelFacts::ids)
            .chain(self.nu_ids.values().copied())
    }

    /// Calls `visit` once on every distinct interned node of `o-values(I)`
    /// — shared substructure is visited once, not once per occurrence.
    fn for_each_node(&self, mut visit: impl FnMut(&Node)) {
        let mut seen: HashSet<ValueId> = HashSet::new();
        let mut stack: Vec<ValueId> = self.fact_ids().collect();
        while let Some(id) = stack.pop() {
            if !seen.insert(id) {
                continue;
            }
            let node = self.store.node(id);
            match node {
                Node::Tuple(fields) => stack.extend(fields.iter().map(|&(_, v)| v)),
                Node::Set(elems) => stack.extend(elems.iter().copied()),
                Node::Const(_) | Node::Oid(_) => {}
            }
            visit(node);
        }
    }

    /// `constants(I)` — every constant occurring in the instance.
    pub fn constants(&self) -> BTreeSet<Constant> {
        let mut out = BTreeSet::new();
        self.for_each_node(|node| {
            if let Node::Const(c) = node {
                out.insert(c.clone());
            }
        });
        out
    }

    /// `ground-facts(I)` — the logic-programming representation
    /// (Section 2.3). Per the paper's convention, set-valued oids with empty
    /// value and non-set oids with undefined value produce no `ô` facts.
    pub fn ground_facts(&self) -> Vec<GroundFact> {
        let mut out = Vec::new();
        for &r in self.rels.keys() {
            for v in self.relation(r).expect("own relation") {
                out.push(GroundFact::Rel(r, v.clone()));
            }
        }
        for (p, oids) in &self.classes {
            for o in oids.iter() {
                out.push(GroundFact::Class(*p, *o));
            }
        }
        for (&o, v) in self.nu_tree() {
            if self.is_set_valued(o) {
                if let OValue::Set(elems) = v {
                    for e in elems {
                        out.push(GroundFact::SetMember(o, e.clone()));
                    }
                }
            } else {
                out.push(GroundFact::Value(o, v.clone()));
            }
        }
        out
    }

    /// Total number of ground facts — the instance "size" used for
    /// data-complexity statements (Section 5).
    pub fn fact_count(&self) -> usize {
        let rel: usize = self.rels.values().map(|facts| facts.rows.len()).sum();
        let cls: usize = self.classes.values().map(|set| set.len()).sum();
        let vals: usize = self
            .nu_ids
            .iter()
            .map(|(o, &id)| {
                if self.is_set_valued(*o) {
                    self.store.as_set(id).map_or(0, <[ValueId]>::len)
                } else {
                    1
                }
            })
            .sum();
        rel + cls + vals
    }

    /// The maximum branching factor over `o-values(I)` (Lemma 5.7): the
    /// widest tuple or set node.
    pub fn branching_factor(&self) -> usize {
        let mut widest = 0;
        self.for_each_node(|node| {
            let width = match node {
                Node::Tuple(fields) => fields.len(),
                Node::Set(elems) => elems.len(),
                Node::Const(_) | Node::Oid(_) => 0,
            };
            widest = widest.max(width);
        });
        widest
    }

    /// A [`ClassMap`] view of `π`, for type enumeration.
    pub fn class_map(&self) -> ClassMap {
        ClassMap {
            classes: self
                .classes
                .iter()
                .map(|(p, extent)| (*p, (**extent).clone()))
                .collect(),
        }
    }

    /// Builds an [`EnumUniverse`] over this instance's active domain.
    /// The returned pair borrows nothing from `self`; pass references into
    /// [`crate::TypeExpr::enumerate`].
    pub fn enum_universe(&self) -> (Vec<Constant>, ClassMap) {
        (self.constants().into_iter().collect(), self.class_map())
    }

    /// Convenience wrapper around [`crate::TypeExpr::enumerate`] over this
    /// instance's active domain.
    pub fn enumerate_type(
        &self,
        ty: &crate::types::TypeExpr,
        budget: usize,
    ) -> Result<Vec<OValue>> {
        let (consts, cm) = self.enum_universe();
        ty.enumerate(&EnumUniverse {
            constants: &consts,
            classes: &cm,
            budget,
        })
    }

    /// Ground-fact difference against another instance of the same schema:
    /// `(added, removed)` — the facts in `self` but not `other`, and vice
    /// versa. A debugging/testing aid (e.g. comparing evaluator modes).
    pub fn diff(&self, other: &Instance) -> (Vec<GroundFact>, Vec<GroundFact>) {
        let mine: BTreeSet<GroundFact> = self.ground_facts().into_iter().collect();
        let theirs: BTreeSet<GroundFact> = other.ground_facts().into_iter().collect();
        (
            mine.difference(&theirs).cloned().collect(),
            theirs.difference(&mine).cloned().collect(),
        )
    }

    // ------------------------------------------------------------------
    // Validation (Definition 2.3.2)
    // ------------------------------------------------------------------

    /// Checks all conditions of Definition 2.3.2 plus the closure condition
    /// that every occurring oid belongs to some class. Values are checked
    /// on their interned form and resolved only to report a violation.
    ///
    /// A pass is remembered until the next write to ρ, π or ν (a clone
    /// keeps it; a fork, projection or renaming starts without it), so
    /// validating an unchanged snapshot again costs nothing. A failure is
    /// not remembered: it is found again on every call.
    pub fn validate(&self) -> Result<()> {
        if self.valid.get().is_none() {
            self.check()?;
            let _ = self.valid.set(());
        }
        Ok(())
    }

    /// The checks of [`Instance::validate`], always run.
    fn check(&self) -> Result<()> {
        // Condition 1: ρ(R) ⊆ ⟦T(R)⟧π.
        for (r, facts) in &self.rels {
            let ty = self.schema.relation_type(*r)?;
            for id in facts.ids() {
                if !ty.member_id(id, &self.store, self) {
                    return Err(ModelError::IllTypedRelation {
                        rel: *r,
                        value: self.store.resolve(id).to_string(),
                    });
                }
            }
        }
        // Condition 2: ν(o) ∈ ⟦T(P)⟧π for o ∈ π(P);
        // Condition 3: ν total on set-valued classes.
        for (p, oids) in &self.classes {
            let ty = self.schema.class_type(*p)?;
            let set_valued = self.schema.is_set_valued_class(*p)?;
            for o in oids.iter() {
                match self.value_id(*o) {
                    Some(id) => {
                        if !ty.member_id(id, &self.store, self) {
                            return Err(ModelError::IllTypedOid {
                                class: *p,
                                oid: o.raw(),
                                value: self.store.resolve(id).to_string(),
                            });
                        }
                    }
                    None => {
                        if set_valued {
                            return Err(ModelError::UndefinedSetValuedOid {
                                class: *p,
                                oid: o.raw(),
                            });
                        }
                    }
                }
            }
        }
        // Closure: every occurring oid is in some class.
        for o in self.objects() {
            if self.class_of(o).is_none() {
                return Err(ModelError::StrayOid(o.raw()));
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Projection and renaming
    // ------------------------------------------------------------------

    /// `I[S']` — the projection of the instance onto a projection `sub` of
    /// its schema (Section 3). The kept relations with their indexes,
    /// the kept class extents and the value store are shared, not copied;
    /// `ν` is shared too unless a dropped class holds oids, in which case
    /// it is restricted to the kept oids.
    pub fn project(&self, sub: &Arc<Schema>) -> Result<Instance> {
        if !self.schema.is_projection_of(sub) {
            return Err(ModelError::NotASubschema(format!("{sub}")));
        }
        let rels = share_keys(&self.rels, sub.relations(), ModelError::UnknownRelation)?;
        let classes = share_keys(&self.classes, sub.classes(), ModelError::UnknownClass)?;
        let keeps_every_oid = self
            .classes
            .iter()
            .all(|(p, extent)| extent.is_empty() || classes.contains_key(p));
        let (nu_ids, nu_view, oid_class) = if keeps_every_oid {
            (
                Arc::clone(&self.nu_ids),
                self.nu_view.clone(),
                Arc::clone(&self.oid_class),
            )
        } else {
            let kept = |o: &Oid| self.class_of(*o).is_some_and(|p| classes.contains_key(&p));
            (
                restrict(&self.nu_ids, kept),
                OnceLock::new(),
                restrict(&self.oid_class, kept),
            )
        };
        Ok(Instance {
            schema: Arc::clone(sub),
            rels,
            classes,
            gen: live_oid_floor(&oid_class),
            nu_ids,
            nu_view,
            oid_class,
            store: self.store.clone(),
            stats_epoch: self.stats_epoch,
            valid: OnceLock::new(),
        })
    }

    /// Applies a constant renaming to the whole instance; `map` must be
    /// injective on `constants(I)` (checked). Composing with
    /// [`Instance::rename_oids`] realizes an arbitrary DO-isomorphism
    /// (Section 4.1) — the transformation group under which
    /// db-transformations are generic (Definition 4.1.1, condition 3).
    pub fn rename_constants(&self, map: &BTreeMap<Constant, Constant>) -> Result<Instance> {
        let consts = self.constants();
        let mut seen = BTreeSet::new();
        for c in &consts {
            let target = map.get(c).cloned().unwrap_or_else(|| c.clone());
            if !seen.insert(target) {
                return Err(ModelError::Invalid(
                    "constant renaming is not injective".into(),
                ));
            }
        }
        self.rewrite(|o| o, |store, id| store.rename_constants_id(id, map))
    }

    /// Rebuilds an instance from ground facts over `schema` — the inverse
    /// of [`Instance::ground_facts`] (the paper's alternative
    /// representation, Section 2.3).
    pub fn from_ground_facts<I>(schema: Arc<Schema>, facts: I) -> Result<Instance>
    where
        I: IntoIterator<Item = GroundFact>,
    {
        let mut out = Instance::new(schema);
        let mut deferred: Vec<GroundFact> = Vec::new();
        // First pass: class facts (so oids exist for value facts).
        for fact in facts {
            match fact {
                GroundFact::Class(p, o) => out.adopt_oid(p, o)?,
                other => deferred.push(other),
            }
        }
        for fact in deferred {
            match fact {
                GroundFact::Rel(r, v) => {
                    out.insert_unchecked(r, v)?;
                }
                GroundFact::SetMember(o, v) => {
                    out.add_set_member(o, v)?;
                }
                GroundFact::Value(o, v) => {
                    if !out.define_value(o, v)? {
                        return Err(ModelError::Invalid(format!(
                            "conflicting value facts for {o}"
                        )));
                    }
                }
                GroundFact::Class(..) => unreachable!("handled in first pass"),
            }
        }
        Ok(out)
    }

    /// Applies an oid renaming to the whole instance; `map` must be
    /// injective on `objects(I)` (checked). The result is O-isomorphic to
    /// `self` when `map` is a bijection (Section 4.1).
    pub fn rename_oids(&self, map: &BTreeMap<Oid, Oid>) -> Result<Instance> {
        let objects = self.objects();
        let mut seen = BTreeSet::new();
        for o in &objects {
            let target = map.get(o).copied().unwrap_or(*o);
            if !seen.insert(target) {
                return Err(ModelError::Invalid(format!(
                    "oid renaming is not injective at {target}"
                )));
            }
        }
        self.rewrite(
            |o| map.get(&o).copied().unwrap_or(o),
            |store, id| store.rename_oids_id(id, map),
        )
    }

    /// A fresh instance of the same schema holding every fact of this one
    /// with each oid `o` moved to `oid(o)` and each value id rewritten by
    /// `value` — the shared body of the renamings. The result interns into
    /// a copy-on-write clone of this instance's store, so untouched values
    /// keep their ids.
    fn rewrite(
        &self,
        oid: impl Fn(Oid) -> Oid,
        mut value: impl FnMut(&mut ValueStore, ValueId) -> ValueId,
    ) -> Result<Instance> {
        let mut out = Instance::new(Arc::clone(&self.schema));
        out.store = self.store.clone();
        for (&r, facts) in &self.rels {
            for id in facts.ids() {
                let renamed = value(&mut out.store, id);
                out.insert_id(r, renamed)?;
            }
        }
        for p in self.schema.classes() {
            for &o in self.class(p)? {
                out.adopt_oid(p, oid(o))?;
                if let Some(id) = self.value_id(o) {
                    let renamed = value(&mut out.store, id);
                    out.overwrite_value_id(oid(o), renamed)?;
                }
            }
        }
        Ok(out)
    }
}

/// The entry stored under `key`, or `missing(key)` as the error.
fn shared<K: Ord + Copy, V>(
    map: &BTreeMap<K, V>,
    key: K,
    missing: fn(K) -> ModelError,
) -> Result<&V> {
    map.get(&key).ok_or_else(|| missing(key))
}

/// The entries of `map` under `keys`, each shared rather than copied.
fn share_keys<K: Ord + Copy, V: Clone>(
    map: &BTreeMap<K, V>,
    keys: impl Iterator<Item = K>,
    missing: fn(K) -> ModelError,
) -> Result<BTreeMap<K, V>> {
    keys.map(|k| Ok((k, shared(map, k, missing)?.clone())))
        .collect()
}

/// The entries of an oid-keyed map whose oid `keep` accepts.
fn restrict<V: Clone>(
    map: &BTreeMap<Oid, V>,
    keep: impl Fn(&Oid) -> bool,
) -> Arc<BTreeMap<Oid, V>> {
    Arc::new(
        map.iter()
            .filter(|(o, _)| keep(o))
            .map(|(o, v)| (*o, v.clone()))
            .collect(),
    )
}

/// An oid generator starting just above the highest live oid — the floor
/// a fresh instance built from the same facts would have.
fn live_oid_floor(oid_class: &BTreeMap<Oid, ClassName>) -> OidGen {
    OidGen::starting_at(oid_class.keys().next_back().map_or(0, |o| o.raw() + 1))
}

impl OidClasses for Instance {
    fn oid_in_class(&self, oid: Oid, class: ClassName) -> bool {
        self.class_of(oid) == Some(class)
    }
}

/// A borrow of an instance's interned state that leaves the backing
/// [`ValueStore`] free — see [`Instance::id_view`] and
/// [`Instance::store_and_view`].
#[derive(Clone, Copy)]
pub struct IdView<'a> {
    schema: &'a Arc<Schema>,
    rels: &'a BTreeMap<RelName, RelFacts>,
    classes: &'a BTreeMap<ClassName, Arc<BTreeSet<Oid>>>,
    nu_ids: &'a BTreeMap<Oid, ValueId>,
    oid_class: &'a BTreeMap<Oid, ClassName>,
}

impl<'a> IdView<'a> {
    /// The instance's schema.
    pub fn schema(&self) -> &'a Arc<Schema> {
        self.schema
    }

    /// `ρ(R)` as interned ids, in insertion order.
    pub fn relation_ids(&self, r: RelName) -> Result<impl ExactSizeIterator<Item = ValueId> + 'a> {
        shared(self.rels, r, ModelError::UnknownRelation).map(RelFacts::ids)
    }

    /// The rows `ρ(R)` is stored as (see [`Instance::relation_rows`]).
    pub fn relation_rows(&self, r: RelName) -> Result<&'a IdRelation> {
        shared(self.rels, r, ModelError::UnknownRelation).map(|facts| &*facts.rows)
    }

    /// How `ρ(R)` lays out a fact as a row.
    pub fn row_layout(&self, r: RelName) -> Result<RowLayout<'a>> {
        shared(self.rels, r, ModelError::UnknownRelation).map(RelFacts::layout)
    }

    /// Is `id` a fact of `ρ(R)`? A hash probe of the fact id, the key of
    /// its row.
    pub fn holds(&self, r: RelName, id: ValueId) -> Result<bool> {
        shared(self.rels, r, ModelError::UnknownRelation).map(|facts| facts.holds(id))
    }

    /// `π(P)` — the extent of class `p`.
    pub fn class(&self, p: ClassName) -> Result<&'a BTreeSet<Oid>> {
        shared(self.classes, p, ModelError::UnknownClass).map(|set| &**set)
    }

    /// `ν(oid)` as an interned id.
    pub fn value_id(&self, oid: Oid) -> Option<ValueId> {
        self.nu_ids.get(&oid).copied()
    }

    /// The class an oid belongs to, if any.
    pub fn class_of(&self, oid: Oid) -> Option<ClassName> {
        self.oid_class.get(&oid).copied()
    }

    /// Is `oid` set-valued (its class's type is `{t}`)?
    pub fn is_set_valued(&self, oid: Oid) -> bool {
        self.class_of(oid)
            .and_then(|p| self.schema.is_set_valued_class(p).ok())
            .unwrap_or(false)
    }

    /// The column of `ρ(R)`'s rows holding field `attr`, if any.
    pub fn rel_column(&self, r: RelName, attr: AttrName) -> Option<usize> {
        self.rels.get(&r)?.column(attr)
    }
}

impl OidClasses for IdView<'_> {
    fn oid_in_class(&self, oid: Oid, class: ClassName) -> bool {
        self.class_of(oid) == Some(class)
    }
}

impl PartialEq for Instance {
    fn eq(&self, other: &Self) -> bool {
        // Equality of data, not of generators: two instances are equal iff
        // they have the same schema contents, ρ, π, and ν.
        *self.schema == *other.schema
            && self
                .rels
                .keys()
                .all(|&r| self.relation(r).ok() == other.relation(r).ok())
            && self.classes == other.classes
            && self.nu_tree() == other.nu_tree()
    }
}

impl Eq for Instance {}

impl fmt::Debug for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "instance {{")?;
        for fact in self.ground_facts() {
            writeln!(f, "  {fact}")?;
        }
        write!(f, "}}")
    }
}

/// Builds the Genesis instance of Example 1.1 over [`genesis_schema`].
/// Returns the instance together with the oids
/// `(adam, eve, cain, abel, seth, other)`.
///
/// [`genesis_schema`]: crate::schema::genesis_schema
pub fn genesis_instance() -> (Instance, [Oid; 6]) {
    use crate::schema::genesis_schema;
    let schema = genesis_schema().into_shared();
    let mut i = Instance::new(Arc::clone(&schema));
    let gen1 = ClassName::new("Gen1");
    let gen2 = ClassName::new("Gen2");
    let adam = i.create_oid(gen1).unwrap();
    let eve = i.create_oid(gen1).unwrap();
    let cain = i.create_oid(gen2).unwrap();
    let abel = i.create_oid(gen2).unwrap();
    let seth = i.create_oid(gen2).unwrap();
    let other = i.create_oid(gen2).unwrap();

    let children = OValue::set([
        OValue::oid(cain),
        OValue::oid(abel),
        OValue::oid(seth),
        OValue::oid(other),
    ]);
    i.define_value(
        adam,
        OValue::tuple([
            ("name", OValue::str("Adam")),
            ("spouse", OValue::oid(eve)),
            ("children", children.clone()),
        ]),
    )
    .unwrap();
    i.define_value(
        eve,
        OValue::tuple([
            ("name", OValue::str("Eve")),
            ("spouse", OValue::oid(adam)),
            ("children", children),
        ]),
    )
    .unwrap();
    i.define_value(
        cain,
        OValue::tuple([
            ("name", OValue::str("Cain")),
            (
                "occupations",
                OValue::set([
                    OValue::str("Farmer"),
                    OValue::str("Nomad"),
                    OValue::str("Artisan"),
                ]),
            ),
        ]),
    )
    .unwrap();
    i.define_value(
        abel,
        OValue::tuple([
            ("name", OValue::str("Abel")),
            ("occupations", OValue::set([OValue::str("Shepherd")])),
        ]),
    )
    .unwrap();
    i.define_value(
        seth,
        OValue::tuple([
            ("name", OValue::str("Seth")),
            ("occupations", OValue::empty_set()),
        ]),
    )
    .unwrap();
    // ν(other) stays undefined — Genesis is vague on this point.

    let founded = RelName::new("FoundedLineage");
    i.insert(founded, OValue::oid(cain)).unwrap();
    i.insert(founded, OValue::oid(seth)).unwrap();
    i.insert(founded, OValue::oid(other)).unwrap();

    let anc = RelName::new("AncestorOfCelebrity");
    i.insert(
        anc,
        OValue::tuple([("anc", OValue::oid(seth)), ("desc", OValue::str("Noah"))]),
    )
    .unwrap();
    i.insert(
        anc,
        OValue::tuple([
            ("anc", OValue::oid(cain)),
            ("desc", OValue::tuple([("spouse", OValue::str("Ada"))])),
        ]),
    )
    .unwrap();

    (i, [adam, eve, cain, abel, seth, other])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaBuilder;
    use crate::types::TypeExpr;

    #[test]
    fn genesis_instance_validates() {
        let (i, oids) = genesis_instance();
        i.validate().unwrap();
        let [adam, _, cain, _, _, other] = oids;
        assert_eq!(i.class_of(adam), Some(ClassName::new("Gen1")));
        assert_eq!(i.class_of(cain), Some(ClassName::new("Gen2")));
        assert!(i.value(other).is_none(), "ν(other) is undefined");
        assert!(i.constants().contains(&Constant::str("Noah")));
        // Cyclicity: adam's value mentions eve and vice versa.
        let adam_val = i.value(adam).unwrap();
        assert!(adam_val.mentions_oid(oids[1]));
    }

    #[test]
    fn ground_facts_roundtrip_shape() {
        let (i, _) = genesis_instance();
        let facts = i.ground_facts();
        // 2 gen1 + 4 gen2 class facts, 3 + 2 relation facts, 5 value facts.
        let classes = facts
            .iter()
            .filter(|f| matches!(f, GroundFact::Class(..)))
            .count();
        let rels = facts
            .iter()
            .filter(|f| matches!(f, GroundFact::Rel(..)))
            .count();
        let vals = facts
            .iter()
            .filter(|f| matches!(f, GroundFact::Value(..)))
            .count();
        assert_eq!(classes, 6);
        assert_eq!(rels, 5);
        assert_eq!(vals, 5);
        assert_eq!(i.fact_count(), facts.len());
    }

    #[test]
    fn disjointness_is_enforced() {
        let schema = SchemaBuilder::new()
            .class("P1", TypeExpr::set_of(TypeExpr::base()))
            .class("P2", TypeExpr::set_of(TypeExpr::base()))
            .build()
            .unwrap()
            .into_shared();
        let mut i = Instance::new(schema);
        let o = i.create_oid(ClassName::new("P1")).unwrap();
        let err = i.adopt_oid(ClassName::new("P2"), o).unwrap_err();
        assert!(matches!(err, ModelError::NonDisjointClasses { .. }));
    }

    #[test]
    fn set_valued_default_is_empty_set() {
        let schema = SchemaBuilder::new()
            .class("PS", TypeExpr::set_of(TypeExpr::base()))
            .build()
            .unwrap()
            .into_shared();
        let mut i = Instance::new(schema);
        let o = i.create_oid(ClassName::new("PS")).unwrap();
        assert_eq!(i.value(o), Some(&OValue::empty_set()));
        i.validate().unwrap();
        assert!(i.add_set_member(o, OValue::int(1)).unwrap());
        assert!(!i.add_set_member(o, OValue::int(1)).unwrap());
        // A batch counts only its new members, duplicates once, and
        // interns one set node for all of them.
        let ids = [2, 1, 3, 2].map(|n| i.intern_value(&OValue::int(n)));
        let nodes = i.store().len();
        assert_eq!(i.add_set_members_id(o, &ids).unwrap(), 2);
        assert_eq!(i.store().len(), nodes + 1);
        let want = OValue::set([1, 2, 3].map(OValue::int));
        assert_eq!(i.value(o), Some(&want));
        assert_eq!(i.add_set_members_id(o, &ids).unwrap(), 0);
        assert_eq!(i.store().len(), nodes + 1);
    }

    #[test]
    fn weak_assignment_only_once() {
        let schema = SchemaBuilder::new()
            .class("PT", TypeExpr::tuple([("a", TypeExpr::base())]))
            .build()
            .unwrap()
            .into_shared();
        let mut i = Instance::new(schema);
        let o = i.create_oid(ClassName::new("PT")).unwrap();
        assert!(i
            .define_value(o, OValue::tuple([("a", OValue::int(1))]))
            .unwrap());
        // Second definition is refused (weak assignment).
        assert!(!i
            .define_value(o, OValue::tuple([("a", OValue::int(2))]))
            .unwrap());
        assert_eq!(i.value(o), Some(&OValue::tuple([("a", OValue::int(1))])));
    }

    #[test]
    fn stats_epoch_tracks_statistics_changes() {
        let schema = SchemaBuilder::new()
            .relation("R", TypeExpr::tuple([("a", TypeExpr::base())]))
            .class("P", TypeExpr::set_of(TypeExpr::base()))
            .build()
            .unwrap()
            .into_shared();
        let r = RelName::new("R");
        let a = |n| OValue::tuple([("a", OValue::int(n))]);
        let mut i = Instance::new(schema);
        assert_eq!(i.stats_epoch(), 0);
        // The first insert crosses the power-of-two extent boundary at 1.
        i.insert(r, a(0)).unwrap();
        let e1 = i.stats_epoch();
        assert!(e1 > 0);
        // A duplicate changes no statistic.
        assert!(!i.insert(r, a(0)).unwrap());
        assert_eq!(i.stats_epoch(), e1);
        // Extent 2 crosses; extent 3 does not; extent 4 crosses again.
        i.insert(r, a(1)).unwrap();
        let e2 = i.stats_epoch();
        assert!(e2 > e1);
        i.insert(r, a(2)).unwrap();
        assert_eq!(i.stats_epoch(), e2, "extent 3 is not a crossing");
        i.insert(r, a(3)).unwrap();
        let e3 = i.stats_epoch();
        assert!(e3 > e2, "extent 4 is a crossing");
        // A fresh index build is a new distinct-count census; re-ensuring
        // the same index is not, and neither is an attribute with no
        // column.
        i.ensure_rel_index(r, AttrName::new("a"));
        let e4 = i.stats_epoch();
        assert!(e4 > e3);
        i.ensure_rel_index(r, AttrName::new("a"));
        i.ensure_rel_index(r, AttrName::new("b"));
        assert_eq!(i.stats_epoch(), e4);
        // Removal invalidates indexes and shrinks the extent: always a bump.
        i.remove(r, &a(0)).unwrap();
        let e5 = i.stats_epoch();
        assert!(e5 > e4);
        // Class extents participate in planning too: the first oid crosses.
        i.create_oid(ClassName::new("P")).unwrap();
        assert!(i.stats_epoch() > e5);
    }

    #[test]
    fn ill_typed_insert_rejected() {
        let schema = SchemaBuilder::new()
            .relation("R", TypeExpr::base())
            .build()
            .unwrap()
            .into_shared();
        let mut i = Instance::new(schema);
        assert!(matches!(
            i.insert(RelName::new("R"), OValue::empty_set()),
            Err(ModelError::IllTypedRelation { .. })
        ));
    }

    #[test]
    fn stray_oid_detected_by_validate() {
        let schema = SchemaBuilder::new()
            .relation(
                "R",
                TypeExpr::union(TypeExpr::base(), TypeExpr::class("PX")),
            )
            .class("PX", TypeExpr::unit())
            .build()
            .unwrap()
            .into_shared();
        let mut i = Instance::new(schema);
        // Insert an oid that belongs to no class, bypassing checks. Since
        // class membership is part of typing, this is caught as an ill-typed
        // relation fact (the StrayOid check is a belt-and-braces backstop
        // for values that escape typing altogether).
        i.insert_unchecked(RelName::new("R"), OValue::oid(Oid::from_raw(99)))
            .unwrap();
        assert!(matches!(
            i.validate(),
            Err(ModelError::IllTypedRelation { .. })
        ));
    }

    #[test]
    fn projection_keeps_only_subschema() {
        let (i, _) = genesis_instance();
        let sub = i
            .schema()
            .project(
                &BTreeSet::from([RelName::new("FoundedLineage")]),
                &BTreeSet::from([ClassName::new("Gen2"), ClassName::new("Gen1")]),
            )
            .unwrap()
            .into_shared();
        let j = i.project(&sub).unwrap();
        j.validate().unwrap();
        assert_eq!(j.relation(RelName::new("FoundedLineage")).unwrap().len(), 3);
        assert!(j.relation(RelName::new("AncestorOfCelebrity")).is_err());
        // Kept parts are shared, not re-interned.
        let founded = RelName::new("FoundedLineage");
        assert!(Arc::ptr_eq(&i.rels[&founded].rows, &j.rels[&founded].rows));
        assert!(Arc::ptr_eq(&i.nu_ids, &j.nu_ids));
        assert!(i.store.shares_nodes_with(&j.store));
    }

    #[test]
    fn rename_oids_produces_equal_structure() {
        let (i, oids) = genesis_instance();
        let map: BTreeMap<Oid, Oid> = oids
            .iter()
            .enumerate()
            .map(|(k, o)| (*o, Oid::from_raw(100 + k as u64)))
            .collect();
        let j = i.rename_oids(&map).unwrap();
        j.validate().unwrap();
        assert_ne!(i, j);
        // Renaming back gives the original.
        let back: BTreeMap<Oid, Oid> = map.iter().map(|(a, b)| (*b, *a)).collect();
        assert_eq!(j.rename_oids(&back).unwrap(), i);
    }

    #[test]
    fn non_injective_rename_rejected() {
        let (i, oids) = genesis_instance();
        let map = BTreeMap::from([(oids[2], oids[3])]); // cain ↦ abel (collision)
        assert!(i.rename_oids(&map).is_err());
    }

    #[test]
    fn delete_oid_cascades() {
        let (mut i, oids) = genesis_instance();
        let cain = oids[2];
        i.delete_oid(cain).unwrap();
        // cain left his class, FoundedLineage, adam/eve's children sets, and
        // the AncestorOfCelebrity tuple mentioning him is gone.
        assert_eq!(i.class_of(cain), None);
        assert!(!i
            .relation(RelName::new("FoundedLineage"))
            .unwrap()
            .contains(&OValue::oid(cain)));
        assert_eq!(
            i.relation(RelName::new("AncestorOfCelebrity"))
                .unwrap()
                .len(),
            1
        );
        for o in i.objects() {
            assert_ne!(o, cain);
        }
        i.validate().unwrap();
    }

    #[test]
    fn invention_avoids_adopted_oids() {
        let schema = SchemaBuilder::new()
            .class("PA", TypeExpr::unit())
            .build()
            .unwrap()
            .into_shared();
        let mut i = Instance::new(schema);
        i.adopt_oid(ClassName::new("PA"), Oid::from_raw(10))
            .unwrap();
        let fresh = i.create_oid(ClassName::new("PA")).unwrap();
        assert!(fresh.raw() > 10);
    }

    #[test]
    fn branching_factor_tracks_widest_node() {
        let (i, _) = genesis_instance();
        // adam's children set has 4 elements — the widest node around
        // (tuples have 3 fields).
        assert_eq!(i.branching_factor(), 4);
        let empty = Instance::new(Arc::clone(i.schema()));
        assert_eq!(empty.branching_factor(), 0);
    }

    #[test]
    fn diff_reports_fact_changes() {
        let (a, oids) = genesis_instance();
        let (mut b, _) = genesis_instance();
        b.remove(RelName::new("FoundedLineage"), &OValue::oid(oids[2]))
            .unwrap();
        b.insert(RelName::new("FoundedLineage"), OValue::oid(oids[3]))
            .unwrap();
        let (added, removed) = a.diff(&b);
        assert_eq!(added.len(), 1);
        assert_eq!(removed.len(), 1);
        let (a2, r2) = a.diff(&a);
        assert!(a2.is_empty() && r2.is_empty());
    }

    #[test]
    fn ground_facts_reconstruct_the_instance() {
        let (i, _) = genesis_instance();
        let j = Instance::from_ground_facts(Arc::clone(i.schema()), i.ground_facts()).unwrap();
        assert_eq!(i, j);
        j.validate().unwrap();
    }

    #[test]
    fn rename_constants_is_invertible() {
        let (i, _) = genesis_instance();
        let map = BTreeMap::from([
            (Constant::str("Adam"), Constant::str("Adamo")),
            (Constant::str("Noah"), Constant::str("Noe")),
        ]);
        let j = i.rename_constants(&map).unwrap();
        assert!(j.constants().contains(&Constant::str("Adamo")));
        assert!(!j.constants().contains(&Constant::str("Adam")));
        let back = BTreeMap::from([
            (Constant::str("Adamo"), Constant::str("Adam")),
            (Constant::str("Noe"), Constant::str("Noah")),
        ]);
        assert_eq!(j.rename_constants(&back).unwrap(), i);
    }

    #[test]
    fn non_injective_constant_rename_rejected() {
        let (i, _) = genesis_instance();
        let map = BTreeMap::from([(Constant::str("Adam"), Constant::str("Eve"))]);
        assert!(i.rename_constants(&map).is_err());
    }

    #[test]
    fn enumerate_type_over_instance() {
        let (i, _) = genesis_instance();
        let gen2 = TypeExpr::class("Gen2");
        let vals = i.enumerate_type(&gen2, 1000).unwrap();
        assert_eq!(vals.len(), 4);
    }

    // ------------------------------------------------------------------
    // Copy-on-write forks
    // ------------------------------------------------------------------

    /// `(narrow, wide)`: `narrow` is a projection of `wide`, which adds a
    /// relation and a class.
    fn fork_schemas() -> (Arc<Schema>, Arc<Schema>) {
        let narrow = SchemaBuilder::new()
            .relation(
                "R",
                TypeExpr::tuple([("a", TypeExpr::base()), ("b", TypeExpr::base())]),
            )
            .class("PS", TypeExpr::set_of(TypeExpr::base()))
            .class("PT", TypeExpr::tuple([("n", TypeExpr::base())]))
            .build()
            .unwrap();
        let wide = narrow
            .disjoint_union(
                &SchemaBuilder::new()
                    .relation("S", TypeExpr::base())
                    .class("PW", TypeExpr::set_of(TypeExpr::base()))
                    .build()
                    .unwrap(),
            )
            .unwrap();
        (narrow.into_shared(), wide.into_shared())
    }

    fn rab(a: i64, b: i64) -> OValue {
        OValue::tuple([("a", OValue::int(a)), ("b", OValue::int(b))])
    }

    /// An instance over the narrow schema with facts in every part and a
    /// built `(R, a)` index. Returns it with its set-valued oid, its
    /// defined tuple-valued oid, and an undefined tuple-valued oid.
    fn fork_parent() -> (Instance, [Oid; 3]) {
        let (narrow, _) = fork_schemas();
        let mut i = Instance::new(narrow);
        for k in 0..4 {
            i.insert(RelName::new("R"), rab(k, k % 2)).unwrap();
        }
        let ps = i.create_oid(ClassName::new("PS")).unwrap();
        i.add_set_member(ps, OValue::int(7)).unwrap();
        let pt = i.create_oid(ClassName::new("PT")).unwrap();
        i.define_value(pt, OValue::tuple([("n", OValue::int(1))]))
            .unwrap();
        let undefined = i.create_oid(ClassName::new("PT")).unwrap();
        i.ensure_rel_index(RelName::new("R"), AttrName::new("a"));
        (i, [ps, pt, undefined])
    }

    /// The fact ids the built `(r, attr)` index lists under `key`, in
    /// scan order.
    fn postings(i: &Instance, r: RelName, attr: AttrName, key: ValueId) -> Vec<ValueId> {
        let rows = i.relation_rows(r).unwrap();
        let idx = i.rel_index(r, attr).expect("index built");
        rows.positions(rows.all(), Some((idx, key)))
            .map(|pos| rows.tuple_at(pos)[0])
            .collect()
    }

    /// Everything a side of a fork exposes, for before/after comparison.
    /// Which indexes are built is not part of it: a relation's indexes are
    /// shared with every instance sharing the relation.
    fn observe(i: &Instance) -> impl PartialEq + fmt::Debug {
        let (r, a) = (RelName::new("R"), AttrName::new("a"));
        let postings = i.rel_index(r, a).map(|idx| {
            (
                idx.distinct(),
                (0..8)
                    .map(|k| {
                        let key = i.store().lookup(&Node::Const(Constant::Int(k)));
                        key.map_or(0, |key| postings(i, r, a, key).len())
                    })
                    .collect::<Vec<_>>(),
            )
        });
        (
            i.ground_facts(),
            i.store().len(),
            i.store().heap_bytes(),
            i.stats_epoch(),
            postings,
            i.gen.peek(),
        )
    }

    /// Asserts that every tree view of `i` equals what its ids resolve to.
    /// Reading the views builds and caches them, so calling this before a
    /// write makes a view the write failed to drop show up as stale after.
    fn assert_views_match_ids(i: &Instance, what: &str) {
        let store = i.store();
        for r in i.schema().relations() {
            let resolved: BTreeSet<OValue> = i
                .relation_ids(r)
                .unwrap()
                .map(|id| store.resolve(id))
                .collect();
            assert_eq!(i.relation(r).unwrap(), &resolved, "{what}: stale {r}");
        }
        for o in (0..64).map(Oid::from_raw) {
            let resolved = i.value_id(o).map(|id| store.resolve(id));
            assert_eq!(i.value(o), resolved.as_ref(), "{what}: stale ν({o})");
        }
        let resolved: BTreeMap<Oid, OValue> = i
            .value_id_map()
            .iter()
            .map(|(&o, &id)| (o, store.resolve(id)))
            .collect();
        assert_eq!(i.nu_tree(), &resolved, "{what}: stale ν");
    }

    /// Asserts that every built `(r, attr)` index of `i` equals an index
    /// rebuilt from scratch over `relation_ids(r)` and the facts' fields:
    /// incremental maintenance and invalidation never leave a posting list
    /// stale.
    fn assert_indexes_match_rebuild(i: &Instance, what: &str) {
        for r in i.schema().relations() {
            let TypeExpr::Tuple(fields) = i.schema().relation_type(r).unwrap() else {
                continue;
            };
            for &attr in fields.keys() {
                let Some(built) = i.rel_index(r, attr) else {
                    continue;
                };
                let mut rebuilt: BTreeMap<ValueId, Vec<ValueId>> = BTreeMap::new();
                for fid in i.relation_ids(r).unwrap() {
                    if let Node::Tuple(fs) = i.store().node(fid) {
                        if let Some(&(_, key)) = fs.iter().find(|(a, _)| *a == attr) {
                            rebuilt.entry(key).or_default().push(fid);
                        }
                    }
                }
                assert_eq!(
                    built.distinct(),
                    rebuilt.len(),
                    "{what}: ({r}, {attr}) keys"
                );
                for (key, fids) in rebuilt {
                    assert_eq!(
                        postings(i, r, attr, key),
                        fids,
                        "{what}: stale ({r}, {attr})"
                    );
                }
            }
        }
    }

    #[test]
    fn fork_writes_never_reach_the_other_side() {
        let (_, wide) = fork_schemas();
        type Mutation = fn(&mut Instance, [Oid; 3]);
        let mutations: [(&str, Mutation); 11] = [
            ("insert", |i, _| {
                i.insert(RelName::new("R"), rab(9, 9)).unwrap();
            }),
            ("remove", |i, _| {
                i.remove(RelName::new("R"), &rab(0, 0)).unwrap();
            }),
            ("adopt_oid", |i, _| {
                i.adopt_oid(ClassName::new("PS"), Oid::from_raw(50))
                    .unwrap();
            }),
            ("create_oid", |i, _| {
                i.create_oid(ClassName::new("PT")).unwrap();
            }),
            ("define_value", |i, [_, _, undefined]| {
                i.define_value(undefined, OValue::tuple([("n", OValue::int(2))]))
                    .unwrap();
            }),
            ("add_set_member", |i, [ps, _, _]| {
                i.add_set_member(ps, OValue::int(8)).unwrap();
            }),
            ("intern", |i, _| {
                i.intern_value(&OValue::str("fresh"));
            }),
            ("index build", |i, _| {
                i.ensure_rel_index(RelName::new("R"), AttrName::new("b"));
            }),
            ("delete_oid", |i, [ps, _, _]| {
                i.delete_oid(ps).unwrap();
            }),
            ("indexed insert", |i, _| {
                // Lands in the shared (R, a) index under an existing key.
                i.insert(RelName::new("R"), rab(1, 5)).unwrap();
            }),
            ("remove_set_member_id", |i, [ps, _, _]| {
                let seven = i.intern_value(&OValue::int(7));
                assert!(i.remove_set_member_id(ps, seven));
            }),
        ];
        for (what, mutate) in mutations {
            // Write to the fork; the parent must not move. The parent's
            // views are built before the fork, so the fork starts out
            // sharing them.
            let (parent, oids) = fork_parent();
            assert_views_match_ids(&parent, what);
            let mut child = parent.fork(&wide).unwrap();
            assert_views_match_ids(&child, what);
            let before = observe(&parent);
            let child_before = observe(&child);
            mutate(&mut child, oids);
            assert_views_match_ids(&child, what);
            assert_views_match_ids(&parent, what);
            assert_indexes_match_rebuild(&child, what);
            assert_indexes_match_rebuild(&parent, what);
            assert_ne!(observe(&child), child_before, "{what} changed nothing");
            assert_eq!(observe(&parent), before, "{what} on the fork leaked");

            // Write to the parent; the fork must not move.
            let (mut parent, oids) = fork_parent();
            let child = parent.fork(&wide).unwrap();
            assert_views_match_ids(&parent, what);
            assert_views_match_ids(&child, what);
            let before = observe(&child);
            mutate(&mut parent, oids);
            assert_views_match_ids(&parent, what);
            assert_views_match_ids(&child, what);
            assert_indexes_match_rebuild(&parent, what);
            assert_indexes_match_rebuild(&child, what);
            assert_eq!(observe(&child), before, "{what} on the parent leaked");
        }
    }

    #[test]
    fn remove_of_an_unseen_value_leaves_the_store_alone() {
        let (mut i, _) = fork_parent();
        let r = RelName::new("R");
        let (len, bytes) = (i.store().len(), i.store().heap_bytes());
        assert!(!i.remove(r, &rab(40, 41)).unwrap());
        assert_eq!((i.store().len(), i.store().heap_bytes()), (len, bytes));
        // A value the store knows but `R` does not hold is a miss as well;
        // an unknown relation stays an error either way.
        assert!(!i.remove(r, &OValue::int(7)).unwrap());
        assert!(matches!(
            i.remove(RelName::new("Nope"), &rab(40, 41)),
            Err(ModelError::UnknownRelation(_))
        ));
        assert!(i.remove(r, &rab(0, 0)).unwrap());
    }

    #[test]
    fn fork_shares_what_it_never_writes() {
        let (_, wide) = fork_schemas();
        let (r, s) = (RelName::new("R"), RelName::new("S"));
        let (ps, pw) = (ClassName::new("PS"), ClassName::new("PW"));
        let a = AttrName::new("a");
        let (parent, _) = fork_parent();
        let mut child = parent.fork(&wide).unwrap();
        // Writes that only touch parts the parent does not have.
        child.insert(s, OValue::int(1)).unwrap();
        let w = child.create_oid(pw).unwrap();
        child.add_set_member(w, OValue::int(3)).unwrap();
        assert!(child.relation(s).unwrap().contains(&OValue::int(1)));
        assert!(parent.relation(s).is_err(), "the parent never had S");

        // R and its (R, a) index are one shared relation.
        assert!(Arc::ptr_eq(&parent.rels[&r].rows, &child.rels[&r].rows));
        assert!(child.rel_index(r, a).is_some());
        assert!(Arc::ptr_eq(&parent.classes[&ps], &child.classes[&ps]));
        assert!(parent.store.shares_nodes_with(&child.store));
        // Inventing in PW wrote π's inverse and ν: those were copied.
        assert!(!Arc::ptr_eq(&parent.oid_class, &child.oid_class));
        assert!(!Arc::ptr_eq(&parent.nu_ids, &child.nu_ids));
        // Projecting the fork back drops S and the populated class PW:
        // the same data as the parent, ν restricted to the kept oids.
        let (narrow, _) = fork_schemas();
        let back = child.project(&narrow).unwrap();
        assert_eq!(back, parent);
        assert_eq!(back.value_id_map(), parent.value_id_map());
        assert_eq!(back.class_of(w), None);
        assert!(Arc::ptr_eq(&back.rels[&r].rows, &parent.rels[&r].rows));

        // The first write to R unshares R (and its index), nothing else.
        child.insert(r, rab(1, 7)).unwrap();
        assert!(!Arc::ptr_eq(&parent.rels[&r].rows, &child.rels[&r].rows));
        let one = child
            .store()
            .lookup(&Node::Const(Constant::Int(1)))
            .unwrap();
        assert_eq!(postings(&child, r, a, one).len(), 2);
        assert_eq!(postings(&parent, r, a, one).len(), 1);
        assert!(Arc::ptr_eq(&parent.classes[&ps], &child.classes[&ps]));
        assert!(parent.store.shares_nodes_with(&child.store));
    }

    #[test]
    fn fork_keeps_ids_and_data() {
        let (narrow, wide) = fork_schemas();
        let (parent, _) = fork_parent();
        let child = parent.fork(&wide).unwrap();
        assert_eq!(child.project(&narrow).unwrap(), parent);
        assert_eq!(child.store().len(), parent.store().len());
        assert_eq!(child.stats_epoch(), parent.stats_epoch());
        let r = RelName::new("R");
        assert!(child
            .relation_ids(r)
            .unwrap()
            .eq(parent.relation_ids(r).unwrap()));
        assert_eq!(child.value_id_map(), parent.value_id_map());
        assert!(child.relation(RelName::new("S")).unwrap().is_empty());
        assert!(child.class(ClassName::new("PW")).unwrap().is_empty());
        child.validate().unwrap();
        // Forking to a schema that does not contain this one is refused.
        let other = SchemaBuilder::new()
            .relation("R", TypeExpr::base())
            .build()
            .unwrap()
            .into_shared();
        assert!(matches!(
            parent.fork(&other),
            Err(ModelError::NotASubschema(_))
        ));
    }

    #[test]
    fn fork_restarts_the_oid_generator_above_live_oids() {
        let (narrow, wide) = fork_schemas();
        let pt = ClassName::new("PT");
        // Three oids, the highest deleted: the generator stays at 3.
        let mut churned = Instance::new(Arc::clone(&narrow));
        let kept = [
            churned.create_oid(pt).unwrap(),
            churned.create_oid(pt).unwrap(),
        ];
        let dead = churned.create_oid(pt).unwrap();
        churned.delete_oid(dead).unwrap();
        assert_eq!(churned.gen.peek(), 3);
        // The same live data, built without the churn.
        let mut fresh = Instance::new(narrow);
        for o in kept {
            fresh.adopt_oid(pt, o).unwrap();
        }
        assert_eq!(churned, fresh);
        let (mut a, mut b) = (churned.fork(&wide).unwrap(), fresh.fork(&wide).unwrap());
        assert_eq!(a.create_oid(pt).unwrap(), b.create_oid(pt).unwrap());
        assert_eq!(a.gen.peek(), 3);
        // An empty instance forks to a generator at 0.
        let empty = Instance::new(Arc::clone(&wide)).fork(&wide).unwrap();
        assert_eq!(empty.gen.peek(), 0);
    }

    #[test]
    fn clone_shares_indexes_and_data() {
        let (parent, _) = fork_parent();
        let r = RelName::new("R");
        let a = AttrName::new("a");
        let mut copy = parent.clone();
        assert_eq!(copy, parent);
        assert!(Arc::ptr_eq(&parent.rels[&r].rows, &copy.rels[&r].rows));
        assert!(copy.rel_index(r, a).is_some());
        let before = observe(&parent);
        copy.insert(r, rab(5, 5)).unwrap();
        assert_eq!(observe(&parent), before);
        assert_eq!(copy.rel_index(r, a).unwrap().distinct(), 5);
    }

    /// A batch of rows lands as one-at-a-time inserts would: duplicates
    /// (in the batch or already stored) are skipped, the added rows are
    /// consecutive, built indexes follow, and union layouts hold
    /// `ValueId::ABSENT` where a fact lacks an attribute.
    #[test]
    fn insert_rows_matches_insert_id() {
        let schema = SchemaBuilder::new()
            .relation(
                "U",
                TypeExpr::union(
                    TypeExpr::tuple([("a", TypeExpr::base())]),
                    TypeExpr::tuple([("a", TypeExpr::base()), ("b", TypeExpr::base())]),
                ),
            )
            .build()
            .unwrap()
            .into_shared();
        let u = RelName::new("U");
        let values = [
            OValue::tuple([("a", OValue::int(1))]),
            OValue::tuple([("a", OValue::int(1)), ("b", OValue::int(2))]),
            OValue::tuple([("a", OValue::int(1))]),
            OValue::tuple([("a", OValue::int(3))]),
        ];
        let mut one = Instance::new(Arc::clone(&schema));
        one.insert(u, values[0].clone()).unwrap();
        one.ensure_rel_index(u, AttrName::new("a"));
        let mut batch = one.clone();
        for v in &values {
            one.insert(u, v.clone()).unwrap();
        }
        let mut rows = Vec::new();
        for v in &values {
            let fid = batch.intern_value(v);
            let layout = batch.id_view().row_layout(u).unwrap();
            assert_eq!(layout.arity(), 3);
            layout.push_fact(&mut rows, fid, batch.store());
        }
        assert_eq!(rows[2], ValueId::ABSENT, "the first fact has no b");
        assert_eq!(batch.insert_rows(u, &rows).unwrap(), 1..3);
        assert_eq!(batch.insert_rows(u, &rows).unwrap(), 3..3, "all present");
        assert_eq!(
            batch.relation_ids(u).unwrap().collect::<Vec<_>>(),
            one.relation_ids(u).unwrap().collect::<Vec<_>>()
        );
        assert_eq!(batch.relation_rows(u).unwrap().tuple_at(1), &rows[3..6]);
        assert_eq!(batch.relation(u).unwrap(), one.relation(u).unwrap());
        assert_indexes_match_rebuild(&batch, "after a batch");
    }
}
