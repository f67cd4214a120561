//! Hash-consed o-values: an interned arena of canonical value nodes.
//!
//! [`OValue`] represents the paper's o-values as plain trees — ideal as a
//! parse/display/API surface, but every comparison, hash, and clone pays
//! O(tree). This module adds the classic *hash-consing* representation on
//! top: a [`ValueStore`] arena maps each structurally-canonical node
//! (constant, oid, tuple of `(AttrName, ValueId)`, set of `ValueId`) to a
//! unique, dense [`ValueId`]. Interning is injective on canonical forms, so
//!
//! * equality and hashing of whole values are O(1) (`u32` compare),
//! * shared substructure is stored once,
//! * per-node metadata (oid set, depth, size) is computed once at intern
//!   time and reused forever.
//!
//! The arena is append-only: a `ValueId` stays valid for the life of the
//! store. The boundary contract with the tree world is *lossless*:
//! `resolve(intern(v)) == v` for every `OValue`, and `intern(a) ==
//! intern(b)` iff `a == b`.
//!
//! The store is the one interner of the workspace: IQL interns whole
//! o-values into it, and a Datalog database interns its constants into one
//! (a Datalog constant is the o-value [`Node::Const`]). Each node is stored
//! once, in its layer's arena; a layer finds a node through
//! [`HashChains`] over arena positions, keyed by one hash that the store
//! computes with its own `RandomState`. A lookup therefore hashes the node
//! once, however many layers it probes, and compares nodes along the chain,
//! so a hash collision can never merge two of them.
//!
//! [`Overlay`] layers a worker-local interner over a frozen base store so
//! parallel evaluation can intern new values without synchronization, then
//! replay them deterministically into the base via [`ValueStore::absorb`].
//! [`ValueStore::fork`] is its owned counterpart: a store that shares its
//! parent's nodes as a frozen `Arc` root and interns into a top of its own.
//! Forks and overlays share the store's hasher.

use crate::chains::HashChains;
use crate::constant::Constant;
use crate::idgen::Oid;
use crate::names::AttrName;
use crate::ovalue::OValue;
use std::cmp::Ordering;
use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// A handle to an interned o-value: dense, `Copy`, O(1) equality/hash.
///
/// Ids are ordered by interning order, so a `BTreeSet<ValueId>` iterates in
/// first-occurrence order — deterministic for deterministic construction.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ValueId(u32);

impl ValueId {
    /// The one id no store hands out. A relation row holds it in a field
    /// column where the fact lacks that attribute (see
    /// [`crate::relation`]).
    pub const ABSENT: ValueId = ValueId(u32::MAX);

    /// The raw index into the arena. For display and external maps only.
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// One structurally-canonical node of the interned representation.
///
/// Canonicalization invariants (enforced by the constructors, relied on by
/// the injectivity argument):
///
/// * `Tuple` entries are strictly sorted by attribute (hence distinct);
/// * `Set` elements are strictly sorted by id (hence duplicate-free) —
///   sorting by *id* is canonical because interning is injective, so equal
///   ids are equal values.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Node {
    /// A constant leaf.
    Const(Constant),
    /// An oid leaf.
    Oid(Oid),
    /// A tuple node; entries strictly sorted by attribute.
    Tuple(Arc<[(AttrName, ValueId)]>),
    /// A set node; elements strictly sorted by id.
    Set(Arc<[ValueId]>),
}

/// A [`Node`] by reference: the key of a lookup that builds no node (no
/// clone of a constant, no `Arc` of a tuple's fields). It hashes exactly
/// like the node it borrows — `Node`'s `Hash` goes through it — so one
/// hash finds a node whether the key is owned or borrowed.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum NodeRef<'a> {
    /// A constant leaf.
    Const(&'a Constant),
    /// An oid leaf.
    Oid(Oid),
    /// A tuple node's entries, strictly sorted by attribute.
    Tuple(&'a [(AttrName, ValueId)]),
    /// A set node's elements, strictly sorted by id.
    Set(&'a [ValueId]),
}

impl Node {
    /// This node as a borrowed key.
    #[inline]
    pub fn as_node_ref(&self) -> NodeRef<'_> {
        match self {
            Node::Const(c) => NodeRef::Const(c),
            Node::Oid(o) => NodeRef::Oid(*o),
            Node::Tuple(fields) => NodeRef::Tuple(fields),
            Node::Set(elems) => NodeRef::Set(elems),
        }
    }
}

impl Hash for Node {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_node_ref().hash(state);
    }
}

/// A node's hash under its store's hasher, carried from a lookup that
/// missed to the insert that follows it, so the node is hashed once. Only
/// [`ValueStore::hash_key`] makes one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeHash(u64);

impl NodeHash {
    /// The hash itself, for a caller's own [`HashChains`].
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// The facts an interned node caches, read through [`ValueReader`]. All
/// but one are computed once at intern time; a set node's elements in tree
/// order are sorted by the first [`ValueReader::cmp_resolved`] that needs
/// them, so interning pays nothing for them.
#[derive(Clone)]
pub struct Meta {
    /// Sorted, distinct oids of the whole subtree. Empty ⇔ oid-free.
    oids: Arc<[Oid]>,
    /// Does the subtree mention any constant?
    has_consts: bool,
    /// Height of the tree (leaves and empty constructors are 1).
    depth: u32,
    /// Node count of the resolved tree (shared substructure counted per
    /// occurrence, matching [`OValue::size`]); saturating.
    size: u32,
    /// A set node's elements in the order of its resolved `BTreeSet`.
    tree_order: OnceLock<Box<[ValueId]>>,
}

/// Heap bytes of one node's chain entry: its `next` link and at most one
/// `newest` slot (hash key and position) in its layer's [`HashChains`].
const CHAIN_BYTES: usize = std::mem::size_of::<u32>() + std::mem::size_of::<(u64, u32)>();

/// Heap-byte estimate of one freshly interned node: the fixed per-node
/// bookkeeping (arena [`Node`] and [`Meta`] entries plus chain entry) and
/// the payloads it
/// retains (tuple/set spines, a set's tree-order cache whether or not a
/// comparison fills it, string bytes, the cached oid slice).
fn node_heap_bytes(node: &Node, oids: &[Oid]) -> usize {
    use std::mem::size_of;
    let payload = match node {
        Node::Const(Constant::Str(s)) => s.len(),
        Node::Const(_) | Node::Oid(_) => 0,
        Node::Tuple(fields) => fields.len() * size_of::<(AttrName, ValueId)>(),
        Node::Set(elems) => 2 * elems.len() * size_of::<ValueId>(),
    };
    size_of::<Node>() + size_of::<Meta>() + CHAIN_BYTES + payload + std::mem::size_of_val(oids)
}

/// Read access to interned nodes and their metadata — implemented by both
/// [`ValueStore`] and [`Overlay`], so evaluation code can run against either.
pub trait ValueReader {
    /// The node behind `id`. Panics on a foreign id.
    fn node(&self, id: ValueId) -> &Node;

    /// The cached facts of the node behind `id`. Panics on a foreign id.
    fn meta(&self, id: ValueId) -> &Meta;

    /// The sorted, distinct oids of the subtree behind `id`.
    fn oids(&self, id: ValueId) -> &[Oid] {
        &self.meta(id).oids
    }

    /// Does the subtree behind `id` mention any oid?
    fn contains_oids(&self, id: ValueId) -> bool {
        !self.oids(id).is_empty()
    }

    /// Does the subtree behind `id` mention `oid`?
    fn mentions_oid(&self, id: ValueId, oid: Oid) -> bool {
        self.oids(id).binary_search(&oid).is_ok()
    }

    /// Rebuilds the o-value tree behind `id` (the lossless inverse of
    /// interning).
    fn resolve(&self, id: ValueId) -> OValue {
        match self.node(id) {
            Node::Const(c) => OValue::Const(c.clone()),
            Node::Oid(o) => OValue::Oid(*o),
            Node::Tuple(fields) => {
                // The entries come in attribute order: inserting them one
                // by one builds the map without collecting and sorting.
                let mut map = BTreeMap::new();
                for (a, v) in fields.iter() {
                    map.insert(*a, self.resolve(*v));
                }
                OValue::Tuple(map)
            }
            Node::Set(elems) => OValue::Set(elems.iter().map(|v| self.resolve(*v)).collect()),
        }
    }

    /// The oid behind `id`, if it is an oid leaf.
    fn as_oid(&self, id: ValueId) -> Option<Oid> {
        match self.node(id) {
            Node::Oid(o) => Some(*o),
            _ => None,
        }
    }

    /// The elements behind `id`, if it is a set node (sorted by id).
    fn as_set(&self, id: ValueId) -> Option<&[ValueId]> {
        match self.node(id) {
            Node::Set(elems) => Some(elems),
            _ => None,
        }
    }

    /// Is `member` an element of the set behind `id`? `None` if `id` is not
    /// a set. O(log n) — elements are sorted by id.
    fn set_contains(&self, id: ValueId, member: ValueId) -> Option<bool> {
        self.as_set(id).map(|s| s.binary_search(&member).is_ok())
    }

    /// Total order on the *resolved trees* behind two ids:
    /// `cmp_resolved(a, b) == resolve(a).cmp(&resolve(b))`, without
    /// materializing either tree. Equal ids short-circuit (interning is
    /// injective), which prunes shared substructure.
    ///
    /// This order is id-numbering-independent, so two stores that interned
    /// the same values in different orders still agree on it — the property
    /// the evaluator's canonical merge order rests on.
    fn cmp_resolved(&self, a: ValueId, b: ValueId) -> Ordering {
        if a == b {
            return Ordering::Equal;
        }
        // Variant rank mirrors OValue's declaration (and thus derived Ord)
        // order: Const < Oid < Tuple < Set.
        fn rank(n: &Node) -> u8 {
            match n {
                Node::Const(_) => 0,
                Node::Oid(_) => 1,
                Node::Tuple(_) => 2,
                Node::Set(_) => 3,
            }
        }
        let (na, nb) = (self.node(a), self.node(b));
        match (na, nb) {
            (Node::Const(x), Node::Const(y)) => x.cmp(y),
            (Node::Oid(x), Node::Oid(y)) => x.cmp(y),
            // BTreeMap's Ord: lexicographic over (attr, value) pairs in
            // attr order — exactly the tuple node's stored order.
            (Node::Tuple(xs), Node::Tuple(ys)) => {
                for ((ax, vx), (ay, vy)) in xs.iter().zip(ys.iter()) {
                    let o = ax.cmp(ay).then_with(|| self.cmp_resolved(*vx, *vy));
                    if o != Ordering::Equal {
                        return o;
                    }
                }
                xs.len().cmp(&ys.len())
            }
            // BTreeSet's Ord: lexicographic over elements in ascending tree
            // order, which each set node caches.
            (Node::Set(_), Node::Set(_)) => {
                let (xs, ys) = (tree_order(self, a), tree_order(self, b));
                for (&p, &q) in xs.iter().zip(ys.iter()) {
                    let o = self.cmp_resolved(p, q);
                    if o != Ordering::Equal {
                        return o;
                    }
                }
                xs.len().cmp(&ys.len())
            }
            _ => rank(na).cmp(&rank(nb)),
        }
    }
}

/// The elements of set node `id` in resolved-tree order, sorted on the
/// first call and cached in its [`Meta`]. Sorting compares only elements,
/// which sit strictly below `id`, so filling one cache never waits on
/// itself.
fn tree_order<R: ValueReader + ?Sized>(r: &R, id: ValueId) -> &[ValueId] {
    r.meta(id).tree_order.get_or_init(|| {
        let mut elems = r.as_set(id).expect("a set node").to_vec();
        elems.sort_by(|&p, &q| r.cmp_resolved(p, q));
        elems.into()
    })
}

/// Write access: interning new values. Every node goes through
/// [`ValueInterner::insert_node`]; the canonical constructors build nodes
/// that keep the [`Node`] invariants.
pub trait ValueInterner: ValueReader {
    /// Interns `node`, which must be canonical (see [`Node`]), and returns
    /// its id: the id it already has, if interned, else a fresh one. Prefer
    /// the constructors below, which canonicalize.
    fn insert_node(&mut self, node: Node) -> ValueId;

    /// The id of the node `key` borrows, if interned. Builds no node.
    fn lookup_ref(&self, key: NodeRef<'_>) -> Option<ValueId>;

    /// The id of constant `c`, if interned. Clones nothing.
    fn lookup_const(&self, c: &Constant) -> Option<ValueId> {
        self.lookup_ref(NodeRef::Const(c))
    }

    /// Interns a constant leaf.
    fn const_id(&mut self, c: Constant) -> ValueId {
        self.insert_node(Node::Const(c))
    }

    /// Interns a borrowed constant leaf, cloning it only when it is new.
    fn intern_const(&mut self, c: &Constant) -> ValueId {
        match self.lookup_const(c) {
            Some(id) => id,
            None => self.const_id(c.clone()),
        }
    }

    /// Interns an oid leaf.
    fn oid_id(&mut self, o: Oid) -> ValueId {
        self.insert_node(Node::Oid(o))
    }

    /// Interns a tuple node; `fields` may arrive in any attribute order but
    /// must have distinct attributes.
    fn tuple_id(&mut self, mut fields: Vec<(AttrName, ValueId)>) -> ValueId {
        fields.sort_by_key(|f| f.0);
        self.insert_node(Node::Tuple(Arc::from(fields)))
    }

    /// Interns a set node; `elems` may arrive unsorted and with duplicates.
    fn set_id(&mut self, mut elems: Vec<ValueId>) -> ValueId {
        elems.sort_unstable();
        elems.dedup();
        self.insert_node(Node::Set(Arc::from(elems)))
    }

    /// Interns a whole o-value tree.
    fn intern(&mut self, v: &OValue) -> ValueId {
        match v {
            OValue::Const(c) => self.const_id(c.clone()),
            OValue::Oid(o) => self.oid_id(*o),
            OValue::Tuple(fields) => {
                let ids: Vec<(AttrName, ValueId)> = fields
                    .iter()
                    .map(|(a, child)| (*a, self.intern(child)))
                    .collect();
                self.tuple_id(ids)
            }
            OValue::Set(elems) => {
                let ids: Vec<ValueId> = elems.iter().map(|e| self.intern(e)).collect();
                self.set_id(ids)
            }
        }
    }
}

/// One append-only run of interned nodes, holding ids `start..end()`. A
/// layer only ever stacks on frozen layers that hold every id below
/// `start`, so absolute ids stay dense across the stack.
///
/// Nodes and their [`Meta`]s sit in two parallel arenas, so reading a node
/// (a Datalog tuple's constants, a pattern match) streams through nodes
/// only.
#[derive(Clone)]
struct Layer {
    start: u32,
    nodes: Vec<Node>,
    metas: Vec<Meta>,
    /// The positions of `nodes`, chained by node hash.
    chains: HashChains,
    /// Running heap-byte estimate of this layer's nodes (see
    /// [`ValueStore::heap_bytes`]).
    heap_bytes: usize,
}

impl Layer {
    fn at(start: u32) -> Layer {
        Layer {
            start,
            nodes: Vec::new(),
            metas: Vec::new(),
            chains: HashChains::default(),
            heap_bytes: 0,
        }
    }

    fn end(&self) -> u32 {
        self.start
            .checked_add(u32::try_from(self.nodes.len()).expect("value store exhausted"))
            .expect("value store exhausted (2^32 nodes)")
    }

    fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    #[inline]
    fn node(&self, id: ValueId) -> &Node {
        &self.nodes[(id.0 - self.start) as usize]
    }

    #[inline]
    fn meta(&self, id: ValueId) -> &Meta {
        &self.metas[(id.0 - self.start) as usize]
    }

    /// The id of the node `key` borrows, whose hash is `h`, if this layer
    /// holds it.
    fn find(&self, h: u64, key: NodeRef<'_>) -> Option<ValueId> {
        self.chains
            .find(h, |pos| self.nodes[pos as usize].as_node_ref() == key)
            .map(|pos| ValueId(self.start + pos))
    }

    /// Appends `node`, whose hash is `h` and whose facts are `meta`, known
    /// to be absent from the whole stack.
    fn push(&mut self, h: u64, node: Node, meta: Meta) -> ValueId {
        let id = ValueId(self.end());
        assert!(id != ValueId::ABSENT, "value store exhausted");
        self.heap_bytes += node_heap_bytes(&node, &meta.oids);
        self.chains.push(h);
        self.nodes.push(node);
        self.metas.push(meta);
        id
    }
}

/// A stack of layers, lowest first, each starting where the ones below it
/// end — the one place the layered resolution lives. Lookups try the
/// lowest layer first, so a value a lower layer already holds always
/// resolves to its lower id.
struct Stacked<'s, const N: usize>([&'s Layer; N]);

impl<'s, const N: usize> Stacked<'s, N> {
    /// The layer holding `id`.
    #[inline]
    fn layer(&self, id: ValueId) -> &'s Layer {
        let layer = self.0.iter().rev().find(|l| l.start <= id.0);
        layer.expect("the lowest layer starts at id 0")
    }

    fn find(&self, h: u64, key: NodeRef<'_>) -> Option<ValueId> {
        self.0.iter().find_map(|layer| layer.find(h, key))
    }

    fn compute_meta(&self, node: &Node, empty_oids: &Arc<[Oid]>) -> Meta {
        debug_assert!(
            match node {
                Node::Tuple(fields) => fields.windows(2).all(|w| w[0].0 < w[1].0),
                Node::Set(elems) => elems.windows(2).all(|w| w[0] < w[1]),
                Node::Const(_) | Node::Oid(_) => true,
            },
            "tuple attributes and set elements must be strictly sorted"
        );
        let (oids, has_consts, depth, size) = match node {
            Node::Const(_) => (Arc::clone(empty_oids), true, 1, 1),
            Node::Oid(o) => (Arc::from([*o]), false, 1, 1),
            Node::Tuple(fields) => self.combine_meta(fields.iter().map(|(_, v)| *v), empty_oids),
            Node::Set(elems) => self.combine_meta(elems.iter().copied(), empty_oids),
        };
        Meta {
            oids,
            has_consts,
            depth,
            size,
            tree_order: OnceLock::new(),
        }
    }

    fn combine_meta<I: Iterator<Item = ValueId>>(
        &self,
        children: I,
        empty_oids: &Arc<[Oid]>,
    ) -> (Arc<[Oid]>, bool, u32, u32) {
        let mut oids: Vec<Oid> = Vec::new();
        let mut single: Option<&Arc<[Oid]>> = None;
        let mut merged = false;
        let mut has_consts = false;
        let mut depth = 0u32;
        let mut size = 1u32;
        for child in children {
            let layer = self.layer(child);
            // A constant's facts are its node's: its metadata, which lives
            // apart from the nodes, is not read.
            if let Node::Const(_) = layer.node(child) {
                has_consts = true;
                depth = depth.max(1);
                size = size.saturating_add(1);
                continue;
            }
            let m = layer.meta(child);
            has_consts |= m.has_consts;
            depth = depth.max(m.depth);
            size = size.saturating_add(m.size);
            if m.oids.is_empty() {
                continue;
            }
            match single {
                None if !merged => single = Some(&m.oids),
                _ => {
                    if let Some(first) = single.take() {
                        oids.extend_from_slice(first);
                    }
                    merged = true;
                    oids.extend_from_slice(&m.oids);
                }
            }
        }
        let oids = match (single, merged) {
            // Exactly one oid-bearing child: share its (sorted) slice.
            (Some(one), false) => Arc::clone(one),
            (None, false) => Arc::clone(empty_oids),
            _ => {
                oids.sort_unstable();
                oids.dedup();
                Arc::from(oids)
            }
        };
        (oids, has_consts, depth + 1, size)
    }
}

/// The hash-consing arena. Append-only, and copy-on-write: nodes live in a
/// frozen, `Arc`-shared **root** layer plus a **top** layer that takes new
/// interns with ids continuing above the root. [`ValueStore::fork`] starts
/// a new top over the current contents in O(1), so a forked store never
/// copies its parent's arena; cloning shares both layers and copies the top
/// only on the first write to either side. Lookups are at most one level
/// deep (root, then top) — a fork flattens rather than chains — and hash
/// the node once for both.
#[derive(Clone)]
pub struct ValueStore {
    /// Hashes nodes for every layer; forks and overlays share it.
    hasher: RandomState,
    root: Arc<Layer>,
    top: Arc<Layer>,
    empty_oids: Arc<[Oid]>,
}

impl Default for ValueStore {
    fn default() -> ValueStore {
        ValueStore::new()
    }
}

impl ValueStore {
    /// An empty store.
    pub fn new() -> ValueStore {
        ValueStore {
            hasher: RandomState::new(),
            root: Arc::new(Layer::at(0)),
            top: Arc::new(Layer::at(0)),
            empty_oids: Arc::from([]),
        }
    }

    #[inline]
    fn stacked(&self) -> Stacked<'_, 2> {
        Stacked([&self.root, &self.top])
    }

    /// A store holding exactly this store's nodes, under the same ids, that
    /// interns new nodes into a fresh top layer of its own. O(1) when at
    /// most one of this store's layers is non-empty (the top of a store
    /// that was never forked becomes the fork's root as is); otherwise the
    /// two layers are flattened into one new root, so lookups never chain.
    pub fn fork(&self) -> ValueStore {
        let root = if self.top.is_empty() {
            Arc::clone(&self.root)
        } else if self.root.is_empty() {
            Arc::clone(&self.top)
        } else {
            let mut flat = (*self.root).clone();
            for (node, meta) in self.top.nodes.iter().zip(&self.top.metas) {
                flat.push(self.hasher.hash_one(node), node.clone(), meta.clone());
            }
            Arc::new(flat)
        };
        ValueStore {
            hasher: self.hasher.clone(),
            top: Arc::new(Layer::at(root.end())),
            root,
            empty_oids: Arc::clone(&self.empty_oids),
        }
    }

    /// Is every non-empty layer of this store shared by `other` (as its
    /// root or its top) rather than copied?
    #[cfg(test)]
    pub(crate) fn shares_nodes_with(&self, other: &ValueStore) -> bool {
        [&self.root, &self.top]
            .into_iter()
            .filter(|layer| !layer.is_empty())
            .all(|layer| Arc::ptr_eq(layer, &other.root) || Arc::ptr_eq(layer, &other.top))
    }

    /// Number of interned nodes, the shared root included.
    pub fn len(&self) -> usize {
        self.top.end() as usize
    }

    /// Approximate heap bytes retained by the arena, the shared root
    /// included: per-node bookkeeping (arena entry plus chain entry) and
    /// the owned payloads (tuple/set spines and a set's tree-order cache,
    /// string constants, cached oid slices). Shared `Arc` payloads are
    /// counted per referencing node, so this over- rather than
    /// under-estimates — the safe direction for a memory budget. Monotone (the arena is append-only), so it doubles as
    /// a high-water mark for memory governance.
    pub fn heap_bytes(&self) -> usize {
        self.root.heap_bytes + self.top.heap_bytes
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The id of an already-interned canonical node, if present.
    pub fn lookup(&self, node: &Node) -> Option<ValueId> {
        self.lookup_ref(node.as_node_ref())
    }

    /// The hash of the node `key` borrows, for
    /// [`ValueStore::find_hashed`] and [`ValueStore::insert_hashed`], which
    /// then hash nothing.
    pub fn hash_key(&self, key: NodeRef<'_>) -> NodeHash {
        NodeHash(self.hasher.hash_one(key))
    }

    /// The id of the node `key` borrows, whose hash
    /// [`ValueStore::hash_key`] gave as `h`, if interned.
    pub fn find_hashed(&self, key: NodeRef<'_>, h: NodeHash) -> Option<ValueId> {
        self.stacked().find(h.0, key)
    }

    /// Height of the tree behind `id`.
    pub fn depth(&self, id: ValueId) -> u32 {
        self.meta(id).depth
    }

    /// Node count of the resolved tree behind `id` (saturating).
    pub fn size(&self, id: ValueId) -> u32 {
        self.meta(id).size
    }

    /// Does the subtree behind `id` mention any constant?
    pub fn contains_constants(&self, id: ValueId) -> bool {
        self.meta(id).has_consts
    }

    /// Interns `node`, which must be canonical, under the hash
    /// [`ValueStore::hash_key`] gave for it — by this store, or by the
    /// store it has grown from since, which shares its hasher.
    pub fn insert_hashed(&mut self, node: Node, h: NodeHash) -> ValueId {
        debug_assert_eq!(
            self.hasher.hash_one(&node),
            h.0,
            "a hash from another store"
        );
        self.insert_at(node, h.0)
    }

    /// Interns `node` as if its hash were `h` — the seam that lets tests
    /// force hash collisions.
    fn insert_at(&mut self, node: Node, h: u64) -> ValueId {
        if let Some(id) = self.stacked().find(h, node.as_node_ref()) {
            return id;
        }
        let meta = self.stacked().compute_meta(&node, &self.empty_oids);
        Arc::make_mut(&mut self.top).push(h, node, meta)
    }

    /// Replays a worker [`OverlayLog`] into this store, in the overlay's
    /// creation order: the log's nodes from `remap.len()` up to `end`, each
    /// one's base id pushed onto `remap`, which maps overlay-local index to
    /// base id. The store must be the one the overlay was layered over (and
    /// may only have grown — by earlier `absorb` calls — since the overlay
    /// froze it); ids below the log's base length are stable by
    /// append-onlyness. Replay order is deterministic, so absorbing the
    /// per-task logs of a chunked parallel search reproduces the sequential
    /// interning order exactly. A log may be absorbed in installments: a
    /// caller that interns nodes of its own between them places those
    /// where a worker that interned them at that point of its log would
    /// have.
    pub fn absorb(&mut self, log: &OverlayLog, end: usize, remap: &mut Vec<ValueId>) {
        debug_assert!(self.len() >= log.base_len as usize);
        let fix = |id: ValueId, remap: &Vec<ValueId>| -> ValueId {
            if id.0 < log.base_len {
                id
            } else {
                remap[(id.0 - log.base_len) as usize]
            }
        };
        for node in &log.nodes[remap.len()..end] {
            let new_id = match node {
                Node::Const(c) => self.const_id(c.clone()),
                Node::Oid(o) => self.oid_id(*o),
                Node::Tuple(fields) => {
                    let fixed: Vec<(AttrName, ValueId)> =
                        fields.iter().map(|(a, v)| (*a, fix(*v, remap))).collect();
                    self.tuple_id(fixed)
                }
                Node::Set(elems) => {
                    // Re-sort through set_id: remapping may permute ids.
                    let fixed: Vec<ValueId> = elems.iter().map(|v| fix(*v, remap)).collect();
                    self.set_id(fixed)
                }
            };
            remap.push(new_id);
        }
    }

    /// Applies an oid renaming to the value behind `id`, reusing ids for
    /// every subtree the map does not touch (checked against the cached oid
    /// metadata, so untouched subtrees cost O(oids) — no tree walk). The
    /// interned counterpart of [`OValue::rename_oids`].
    pub fn rename_oids_id(&mut self, id: ValueId, map: &BTreeMap<Oid, Oid>) -> ValueId {
        if map.is_empty() {
            return id;
        }
        let mut memo: HashMap<ValueId, ValueId> = HashMap::new();
        self.rename_oids_rec(id, map, &mut memo)
    }

    fn rename_oids_rec(
        &mut self,
        id: ValueId,
        map: &BTreeMap<Oid, Oid>,
        memo: &mut HashMap<ValueId, ValueId>,
    ) -> ValueId {
        if let Some(done) = memo.get(&id) {
            return *done;
        }
        // Untouched subtree: none of its oids are renamed.
        if !self.oids(id).iter().any(|o| map.contains_key(o)) {
            memo.insert(id, id);
            return id;
        }
        let out = match self.node(id).clone() {
            Node::Const(_) => id,
            Node::Oid(o) => {
                let renamed = *map.get(&o).unwrap_or(&o);
                self.oid_id(renamed)
            }
            Node::Tuple(fields) => {
                let fixed: Vec<(AttrName, ValueId)> = fields
                    .iter()
                    .map(|(a, v)| (*a, self.rename_oids_rec(*v, map, memo)))
                    .collect();
                self.tuple_id(fixed)
            }
            Node::Set(elems) => {
                let fixed: Vec<ValueId> = elems
                    .iter()
                    .map(|v| self.rename_oids_rec(*v, map, memo))
                    .collect();
                self.set_id(fixed)
            }
        };
        memo.insert(id, out);
        out
    }

    /// Applies a constant renaming to the value behind `id`, leaving
    /// unmapped constants in place and reusing ids for constant-free
    /// subtrees (checked against cached metadata). Together with
    /// [`ValueStore::rename_oids_id`] this is the action of a
    /// DO-isomorphism (Section 4.1) on interned values.
    pub fn rename_constants_id(
        &mut self,
        id: ValueId,
        map: &BTreeMap<Constant, Constant>,
    ) -> ValueId {
        if map.is_empty() {
            return id;
        }
        let mut memo: HashMap<ValueId, ValueId> = HashMap::new();
        self.rename_constants_rec(id, map, &mut memo)
    }

    fn rename_constants_rec(
        &mut self,
        id: ValueId,
        map: &BTreeMap<Constant, Constant>,
        memo: &mut HashMap<ValueId, ValueId>,
    ) -> ValueId {
        if let Some(done) = memo.get(&id) {
            return *done;
        }
        if !self.meta(id).has_consts {
            memo.insert(id, id);
            return id;
        }
        let out = match self.node(id).clone() {
            Node::Const(c) => match map.get(&c) {
                Some(renamed) => self.const_id(renamed.clone()),
                None => id,
            },
            Node::Oid(_) => id,
            Node::Tuple(fields) => {
                let fixed: Vec<(AttrName, ValueId)> = fields
                    .iter()
                    .map(|(a, v)| (*a, self.rename_constants_rec(*v, map, memo)))
                    .collect();
                self.tuple_id(fixed)
            }
            Node::Set(elems) => {
                let fixed: Vec<ValueId> = elems
                    .iter()
                    .map(|v| self.rename_constants_rec(*v, map, memo))
                    .collect();
                self.set_id(fixed)
            }
        };
        memo.insert(id, out);
        out
    }
}

impl fmt::Debug for ValueStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ValueStore({} nodes)", self.len())
    }
}

// The read path is `#[inline]` down to the arena index, so it inlines
// across crates: a Datalog view resolves every constant it reads through
// `node`.
impl ValueReader for ValueStore {
    #[inline]
    fn node(&self, id: ValueId) -> &Node {
        self.stacked().layer(id).node(id)
    }

    #[inline]
    fn meta(&self, id: ValueId) -> &Meta {
        self.stacked().layer(id).meta(id)
    }
}

impl ValueInterner for ValueStore {
    fn insert_node(&mut self, node: Node) -> ValueId {
        let h = self.hasher.hash_one(&node);
        self.insert_at(node, h)
    }

    fn lookup_ref(&self, key: NodeRef<'_>) -> Option<ValueId> {
        self.stacked().find(self.hasher.hash_one(key), key)
    }
}

/// The nodes a worker-local [`Overlay`] interned beyond its frozen base, in
/// creation order — everything [`ValueStore::absorb`] needs to replay them.
#[derive(Clone, Debug, Default)]
pub struct OverlayLog {
    base_len: u32,
    nodes: Vec<Node>,
}

impl OverlayLog {
    /// The size the base store had when the overlay froze it — ids below
    /// this are base ids and survive [`ValueStore::absorb`] unchanged.
    pub fn base_len(&self) -> u32 {
        self.base_len
    }

    /// Number of overlay-local nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Did the overlay intern nothing new?
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// A worker-local interner layered over a frozen base store.
///
/// Lookups hit the base first, so a value already interned in the base
/// always resolves to its base id — an overlay-local id (`≥ base.len()`)
/// therefore *proves* the value is absent from the base, which is what makes
/// membership probes against base-built indexes sound without promotion.
/// New nodes get consecutive local ids; the creation log is replayed into
/// the base by [`ValueStore::absorb`] during the deterministic merge phase.
pub struct Overlay<'a> {
    base: &'a ValueStore,
    local: Layer,
}

impl<'a> Overlay<'a> {
    /// A fresh overlay over `base` (frozen for the overlay's lifetime).
    pub fn new(base: &'a ValueStore) -> Overlay<'a> {
        Overlay {
            base,
            local: Layer::at(base.top.end()),
        }
    }

    fn stacked(&self) -> Stacked<'_, 3> {
        Stacked([&self.base.root, &self.base.top, &self.local])
    }

    /// The frozen store under this overlay.
    pub fn base(&self) -> &'a ValueStore {
        self.base
    }

    /// Total nodes visible (base + local).
    pub fn len(&self) -> usize {
        self.local.end() as usize
    }

    /// Is the overlay (including its base) empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Extracts the creation log for [`ValueStore::absorb`].
    pub fn into_log(self) -> OverlayLog {
        OverlayLog {
            base_len: self.local.start,
            nodes: self.local.nodes,
        }
    }
}

impl fmt::Debug for Overlay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Overlay({} base + {} local nodes)",
            self.local.start,
            self.local.nodes.len()
        )
    }
}

impl ValueReader for Overlay<'_> {
    fn node(&self, id: ValueId) -> &Node {
        self.stacked().layer(id).node(id)
    }

    fn meta(&self, id: ValueId) -> &Meta {
        self.stacked().layer(id).meta(id)
    }
}

impl ValueInterner for Overlay<'_> {
    fn insert_node(&mut self, node: Node) -> ValueId {
        let h = self.base.hasher.hash_one(&node);
        if let Some(id) = self.stacked().find(h, node.as_node_ref()) {
            return id;
        }
        let meta = self.stacked().compute_meta(&node, &self.base.empty_oids);
        self.local.push(h, node, meta)
    }

    fn lookup_ref(&self, key: NodeRef<'_>) -> Option<ValueId> {
        self.stacked().find(self.base.hasher.hash_one(key), key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::idgen::Oid;

    fn o(n: u64) -> Oid {
        Oid::from_raw(n)
    }

    fn sample() -> OValue {
        OValue::tuple([
            ("name", OValue::str("Adam")),
            (
                "children",
                OValue::set([OValue::oid(o(2)), OValue::oid(o(3)), OValue::oid(o(4))]),
            ),
            ("spouse", OValue::oid(o(1))),
        ])
    }

    #[test]
    fn intern_resolve_roundtrip() {
        let mut s = ValueStore::new();
        let v = sample();
        let id = s.intern(&v);
        assert_eq!(s.resolve(id), v);
        let es = s.intern(&OValue::empty_set());
        assert_eq!(s.resolve(es), OValue::empty_set());
        let ut = s.intern(&OValue::unit());
        assert_eq!(s.resolve(ut), OValue::unit());
    }

    #[test]
    fn intern_is_injective_and_idempotent() {
        let mut s = ValueStore::new();
        let a = s.intern(&sample());
        let b = s.intern(&sample());
        assert_eq!(a, b, "equal values get equal ids");
        let c = s.intern(&OValue::str("Adam"));
        assert_ne!(a, c);
        // {} vs [] — the paper's favourite distinction survives interning.
        let empty_set = s.intern(&OValue::empty_set());
        let empty_tuple = s.intern(&OValue::unit());
        assert_ne!(empty_set, empty_tuple);
    }

    #[test]
    fn set_canonicalization_by_id() {
        let mut s = ValueStore::new();
        let one = s.intern(&OValue::int(1));
        let two = s.intern(&OValue::int(2));
        let a = s.set_id(vec![two, one, one]);
        let b = s.set_id(vec![one, two]);
        assert_eq!(a, b);
        assert_eq!(s.as_set(a).unwrap(), &[one, two]);
        assert_eq!(s.set_contains(a, one), Some(true));
        assert_eq!(s.set_contains(one, two), None);
    }

    #[test]
    fn shared_substructure_is_stored_once() {
        let mut s = ValueStore::new();
        let shared = OValue::set([OValue::int(1), OValue::int(2)]);
        let a = OValue::tuple([("x", shared.clone())]);
        let b = OValue::tuple([("y", shared.clone())]);
        s.intern(&a);
        let before = s.len();
        s.intern(&b);
        // Only the new tuple node is added; the shared set is reused.
        assert_eq!(s.len(), before + 1);
    }

    #[test]
    fn metadata_is_cached_correctly() {
        let mut s = ValueStore::new();
        let v = sample();
        let id = s.intern(&v);
        assert!(s.contains_oids(id));
        assert!(s.contains_constants(id));
        assert_eq!(
            s.oids(id),
            &[o(1), o(2), o(3), o(4)],
            "sorted distinct subtree oids"
        );
        assert!(s.mentions_oid(id, o(3)));
        assert!(!s.mentions_oid(id, o(9)));
        assert_eq!(s.size(id), v.size() as u32);
        // depth: tuple(1) → set(2) → oid leaf(3) counted from leaves up.
        assert_eq!(s.depth(id), 3);
        let leaf = s.intern(&OValue::int(7));
        assert_eq!(s.depth(leaf), 1);
        assert!(!s.contains_oids(leaf));
    }

    #[test]
    fn overlay_prefers_base_ids() {
        let mut base = ValueStore::new();
        let base_id = base.intern(&sample());
        let one = base.intern(&OValue::int(1));
        let mut ov = Overlay::new(&base);
        assert_eq!(ov.intern(&sample()), base_id);
        // A composite of known parts that exists in base resolves to base.
        assert_eq!(ov.intern(&OValue::int(1)), one);
        // A genuinely new value gets a local id past the base.
        let new = ov.intern(&OValue::set([OValue::int(1), OValue::str("zzz")]));
        assert!(new.raw() as usize >= base.len());
        assert_eq!(
            ov.resolve(new),
            OValue::set([OValue::int(1), OValue::str("zzz")])
        );
    }

    /// Absorbs the whole of `log` into `store`.
    fn absorb_all(store: &mut ValueStore, log: &OverlayLog) -> Vec<ValueId> {
        let mut remap = Vec::new();
        store.absorb(log, log.len(), &mut remap);
        remap
    }

    #[test]
    fn absorb_replays_deterministically() {
        let mut base = ValueStore::new();
        base.intern(&OValue::int(1));
        let novel = OValue::tuple([("a", OValue::int(1)), ("b", OValue::str("new"))]);
        let novel2 = OValue::set([novel.clone(), OValue::int(1)]);

        let (local_ids, log) = {
            let mut ov = Overlay::new(&base);
            let x = ov.intern(&novel);
            let y = ov.intern(&novel2);
            (vec![x, y], ov.into_log())
        };
        let remap = absorb_all(&mut base, &log);
        let base_len = log.base_len;
        let fix = |id: ValueId| -> ValueId {
            if id.raw() < base_len {
                id
            } else {
                remap[(id.raw() - base_len) as usize]
            }
        };
        assert_eq!(base.resolve(fix(local_ids[0])), novel);
        assert_eq!(base.resolve(fix(local_ids[1])), novel2);
        // Absorbing the same log twice dedups to the same ids.
        let remap2 = absorb_all(&mut base, &log);
        assert_eq!(remap, remap2);
    }

    #[test]
    fn two_overlays_absorb_in_task_order() {
        let mut base = ValueStore::new();
        base.intern(&OValue::int(0));
        let frozen = base.clone();
        // Two workers intern overlapping novel values against the same
        // frozen base.
        let mut ov1 = Overlay::new(&frozen);
        let a1 = ov1.intern(&OValue::str("x"));
        let mut ov2 = Overlay::new(&frozen);
        let a2 = ov2.intern(&OValue::str("x"));
        let b2 = ov2.intern(&OValue::str("y"));
        assert_eq!(a1, a2, "same frozen base, same local numbering");
        let log1 = ov1.into_log();
        let log2 = ov2.into_log();
        let r1 = absorb_all(&mut base, &log1);
        let r2 = absorb_all(&mut base, &log2);
        assert_eq!(r1[0], r2[0], "shared value dedups across tasks");
        assert_ne!(r2[(b2.raw() - log2.base_len) as usize], r2[0]);
    }

    #[test]
    fn rename_oids_id_reuses_untouched_subtrees() {
        let mut s = ValueStore::new();
        let untouched = s.intern(&OValue::set([OValue::oid(o(10)), OValue::int(5)]));
        let v = OValue::tuple([
            ("keep", OValue::set([OValue::oid(o(10)), OValue::int(5)])),
            ("move", OValue::oid(o(1))),
        ]);
        let id = s.intern(&v);
        // Empty map: identity, no work.
        assert_eq!(s.rename_oids_id(id, &BTreeMap::new()), id);
        let map = BTreeMap::from([(o(1), o(99))]);
        let renamed = s.rename_oids_id(id, &map);
        assert_ne!(renamed, id);
        assert_eq!(s.resolve(renamed), v.rename_oids(&map));
        // The untouched subtree keeps its id inside the renamed tuple.
        match s.node(renamed) {
            Node::Tuple(fields) => {
                let keep = fields.iter().find(|(a, _)| a.as_str() == "keep").unwrap();
                assert_eq!(keep.1, untouched);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn rename_constants_id_reuses_constant_free_subtrees() {
        let mut s = ValueStore::new();
        let oid_only = s.intern(&OValue::set([OValue::oid(o(1)), OValue::oid(o(2))]));
        let v = OValue::tuple([
            ("who", OValue::set([OValue::oid(o(1)), OValue::oid(o(2))])),
            ("name", OValue::str("Adam")),
        ]);
        let id = s.intern(&v);
        assert_eq!(s.rename_constants_id(id, &BTreeMap::new()), id);
        let map = BTreeMap::from([(Constant::str("Adam"), Constant::str("Adamo"))]);
        let renamed = s.rename_constants_id(id, &map);
        assert_eq!(
            s.resolve(renamed),
            OValue::tuple([
                ("who", OValue::set([OValue::oid(o(1)), OValue::oid(o(2))])),
                ("name", OValue::str("Adamo")),
            ])
        );
        match s.node(renamed) {
            Node::Tuple(fields) => {
                let who = fields.iter().find(|(a, _)| a.as_str() == "who").unwrap();
                assert_eq!(who.1, oid_only);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn fork_keeps_ids_and_interns_on_its_own_top() {
        let mut parent = ValueStore::new();
        let v = parent.intern(&sample());
        let n = parent.len();
        let mut child = parent.fork();
        assert!(parent.shares_nodes_with(&child), "O(1) fork: no copy");
        assert_eq!((child.len(), child.heap_bytes()), (n, parent.heap_bytes()));
        assert_eq!(child.intern(&sample()), v, "parent ids carry over");
        let x = child.intern(&OValue::str("child only"));
        assert_eq!(x.raw() as usize, n, "new ids continue above the root");
        assert_eq!(parent.len(), n);
        assert_eq!(
            parent.lookup(&Node::Const(Constant::str("child only"))),
            None
        );
        // The parent interning after the fork numbers its own nodes from
        // the same point, invisibly to the child.
        let y = parent.intern(&OValue::str("parent only"));
        assert_eq!(x, y);
        assert_eq!(child.resolve(x), OValue::str("child only"));
        assert_eq!(parent.resolve(y), OValue::str("parent only"));
        assert_eq!(child.len(), n + 1);
        // Metadata of nodes built over root children is computed as usual.
        let t = child.intern(&OValue::tuple([
            ("k", sample()),
            ("x", OValue::str("child only")),
        ]));
        assert_eq!(child.oids(t), child.oids(v));
        assert_eq!(child.depth(t), child.depth(v) + 1);
    }

    #[test]
    fn constants_intern_and_resolve() {
        let mut s = ValueStore::new();
        let a = s.const_id(Constant::int(1));
        let b = s.const_id(Constant::int(2));
        assert_ne!(a, b);
        assert_eq!(s.const_id(Constant::int(1)), a, "re-interning is stable");
        assert_eq!(s.node(a), &Node::Const(Constant::int(1)));
        assert_eq!(s.node(b), &Node::Const(Constant::int(2)));
        assert_eq!(s.lookup(&Node::Const(Constant::int(3))), None);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn forced_hash_collisions_never_merge_nodes() {
        let mut s = ValueStore::new();
        // Leaves and the composites built over them, every one chained
        // under the same hash.
        let mut nodes: Vec<Node> = (0..4).map(|n| Node::Const(Constant::int(n))).collect();
        nodes.push(Node::Oid(o(1)));
        let leaves: Vec<ValueId> = nodes.iter().map(|n| s.insert_at(n.clone(), 7)).collect();
        nodes.push(Node::Set(Arc::from(&leaves[..2])));
        nodes.push(Node::Set(Arc::from(&leaves[1..3])));
        nodes.push(Node::Tuple(Arc::from([(AttrName::new("a"), leaves[0])])));
        nodes.push(Node::Tuple(Arc::from([(AttrName::new("b"), leaves[0])])));
        let mut ids: Vec<ValueId> = leaves;
        ids.extend(nodes[5..].iter().map(|n| s.insert_at(n.clone(), 7)));
        assert_eq!(
            ids.iter().map(|id| id.raw()).collect::<Vec<_>>(),
            (0..9).collect::<Vec<_>>(),
            "every node is new"
        );
        // A fork chains its top under the same hash: true duplicates are
        // found in either layer, and the new nodes stay apart.
        let mut fork = s.fork();
        let top = fork.insert_at(Node::Const(Constant::int(4)), 7);
        assert_eq!(top.raw(), 9);
        nodes.push(Node::Const(Constant::int(4)));
        ids.push(top);
        for (node, &id) in nodes.iter().zip(&ids) {
            assert_eq!(fork.insert_at(node.clone(), 7), id, "duplicate found");
            assert_eq!(fork.stacked().find(7, node.as_node_ref()), Some(id));
            assert_eq!(fork.node(id), node);
            assert_eq!(
                fork.stacked().find(8, node.as_node_ref()),
                None,
                "another hash misses"
            );
        }
        assert_eq!(fork.len(), 10);
    }

    #[test]
    fn borrowed_keys_hash_and_find_like_owned_nodes() {
        let mut s = ValueStore::new();
        let v = s.intern(&sample());
        let mut fork = s.fork();
        let w = fork.intern(&OValue::set([OValue::str("top"), OValue::int(3)]));
        let ids: Vec<ValueId> = (0..fork.len() as u32).map(ValueId).collect();
        assert!(ids.contains(&v) && ids.contains(&w));
        for &id in &ids {
            let node = fork.node(id).clone();
            let key = node.as_node_ref();
            assert_eq!(fork.hasher.hash_one(&node), fork.hasher.hash_one(key));
            assert_eq!(fork.lookup_ref(key), Some(id));
            let h = fork.hash_key(key);
            assert_eq!(h, NodeHash(fork.hasher.hash_one(&node)));
            assert_eq!(fork.find_hashed(key, h), Some(id));
            assert_eq!(Overlay::new(&fork).lookup_ref(key), Some(id));
        }
        // A borrowed constant finds its node without a clone, and a miss
        // interns it once, under the probed hash.
        let adam = Constant::str("Adam");
        assert_eq!(
            fork.lookup_const(&adam),
            fork.lookup(&Node::Const(adam.clone()))
        );
        assert!(fork.lookup_const(&adam).is_some());
        let eve = Constant::str("Eve");
        assert_eq!(fork.lookup_const(&eve), None);
        let h = fork.hash_key(NodeRef::Const(&eve));
        assert_eq!(fork.find_hashed(NodeRef::Const(&eve), h), None);
        let id = fork.insert_hashed(Node::Const(eve.clone()), h);
        assert_eq!(
            (fork.lookup_const(&eve), fork.intern_const(&eve)),
            (Some(id), id)
        );
        let mut ov = Overlay::new(&fork);
        let zed = ov.intern_const(&Constant::str("Zed"));
        assert_eq!(ov.lookup_const(&Constant::str("Zed")), Some(zed));
        assert_eq!(ov.intern_const(&eve), id, "base first");
        // Under forced collisions, borrowed keys tell the chained nodes apart.
        let mut c = ValueStore::new();
        let nodes: Vec<Node> = (0..4).map(|n| Node::Const(Constant::int(n))).collect();
        let ids: Vec<ValueId> = nodes.iter().map(|n| c.insert_at(n.clone(), 7)).collect();
        let pair = c.insert_at(Node::Tuple(Arc::from([(AttrName::new("a"), ids[0])])), 7);
        for (node, &id) in nodes.iter().zip(&ids) {
            assert_eq!(c.stacked().find(7, node.as_node_ref()), Some(id));
        }
        let fields = [(AttrName::new("a"), ids[0])];
        assert_eq!(c.stacked().find(7, NodeRef::Tuple(&fields)), Some(pair));
        let other = [(AttrName::new("a"), ids[1])];
        assert_eq!(c.stacked().find(7, NodeRef::Tuple(&other)), None);
    }

    #[test]
    fn fork_of_a_fork_flattens_to_one_root() {
        let mut base = ValueStore::new();
        let a = base.intern(&sample());
        let mut mid = base.fork();
        let b = mid.intern(&OValue::set([OValue::int(1), OValue::str("mid")]));
        let leaf = mid.fork();
        // Root and top both populated: the new root holds both, so lookups
        // stay one level deep.
        assert!(leaf.top.is_empty());
        assert_eq!(leaf.root.end() as usize, mid.len());
        assert_eq!(leaf.heap_bytes(), mid.heap_bytes());
        for id in [a, b] {
            assert_eq!(leaf.resolve(id), mid.resolve(id));
            assert_eq!(leaf.lookup(mid.node(id)), Some(id));
        }
        // A fork of a fork with nothing new on top shares the root as is,
        // and numbers new nodes above the flattened root.
        let mut again = leaf.fork();
        assert!(leaf.shares_nodes_with(&again));
        let c = again.intern(&OValue::str("again"));
        assert_eq!(c.raw() as usize, mid.len());
        assert_eq!(again.intern(&sample()), a, "root hit after the flatten");
        assert_eq!(leaf.lookup(again.node(c)), None);
    }

    #[test]
    fn overlays_over_a_fork_absorb_back_into_it() {
        let mut base = ValueStore::new();
        let one = base.intern(&OValue::int(1));
        let mut fork = base.fork();
        let two = fork.intern(&OValue::int(2));
        let novel = OValue::set([OValue::int(1), OValue::int(2), OValue::int(3)]);
        let log = {
            let mut ov = Overlay::new(&fork);
            assert_eq!(ov.intern(&OValue::int(1)), one, "root hit");
            assert_eq!(ov.intern(&OValue::int(2)), two, "top hit");
            let local = ov.intern(&novel);
            assert!(local.raw() as usize >= fork.len());
            ov.into_log()
        };
        let remap = absorb_all(&mut fork, &log);
        assert_eq!(fork.resolve(*remap.last().unwrap()), novel);
        assert_eq!(
            base.len(),
            1,
            "absorbing into the fork leaves its parent alone"
        );
    }

    #[test]
    fn ids_are_ordered_by_interning_order() {
        let mut s = ValueStore::new();
        let a = s.intern(&OValue::str("first"));
        let b = s.intern(&OValue::str("second"));
        let c = s.intern(&OValue::str("first"));
        assert!(a < b);
        assert_eq!(a, c);
    }
}
