//! O-isomorphism and DO-isomorphism of instances (Section 4.1).
//!
//! Two instances "contain the same information" when they are equal up to a
//! renaming of oids — an **O-isomorphism**. This is the equivalence under
//! which IQL programs are determinate (Theorem 4.1.3) and the foundation of
//! the db-transformation definition (Definition 4.1.1, condition 4).
//!
//! The search is a color-refinement-guided backtracking: oids are first
//! partitioned by a structural *color* (class, shape of their ν-value, and
//! their occurrences in relations, iterated to a fixpoint), then a DFS maps
//! same-colored oids across the two instances, with a final exact
//! verification by renaming. Worst-case exponential (graph isomorphism),
//! entirely adequate at reproduction scale; colors almost always
//! discriminate.
//!
//! [`orbits`] additionally computes automorphism orbits *within* one
//! instance — used by the IQL⁺ `choose` primitive (Section 4.4) to check
//! that a deterministic choice does not violate genericity.

use crate::idgen::Oid;
use crate::instance::Instance;
use crate::names::RelName;
use crate::store::{Node, ValueId, ValueReader, ValueStore};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};

type Color = u64;

/// Computes content-derived colors for every oid of the instance.
/// Colors are comparable *across* instances because they hash structure,
/// never raw oid ids (or [`ValueId`]s, which are just as instance-local).
fn refine_colors(inst: &Instance) -> BTreeMap<Oid, Color> {
    let store = inst.store();
    let oids: Vec<Oid> = inst.objects().into_iter().collect();

    // Per-oid fact occurrences, computed once up front: the store caches
    // the oid set of every interned node, so finding which facts mention
    // an oid is a scan over each fact's precomputed sorted oid slice —
    // not a `mentions_oid` tree walk per (oid, fact, round).
    let mut occurrences: BTreeMap<Oid, Vec<(RelName, ValueId)>> =
        oids.iter().map(|&o| (o, Vec::new())).collect();
    for r in inst.schema().relations() {
        for fid in inst.relation_ids(r).expect("schema relation") {
            for &o in store.oids(fid) {
                if let Some(list) = occurrences.get_mut(&o) {
                    list.push((r, fid));
                }
            }
        }
    }

    let mut colors: BTreeMap<Oid, Color> = oids
        .iter()
        .map(|&o| {
            let mut h = DefaultHasher::new();
            match inst.class_of(o) {
                Some(c) => c.as_str().hash(&mut h),
                None => "?stray".hash(&mut h),
            }
            inst.value_id(o).is_some().hash(&mut h);
            (o, h.finish())
        })
        .collect();

    // Iterate refinement until stable (or a conservative bound).
    for _round in 0..oids.len().max(2) {
        let mut next: BTreeMap<Oid, Color> = BTreeMap::new();
        for &o in &oids {
            let mut h = DefaultHasher::new();
            colors[&o].hash(&mut h);
            if let Some(vid) = inst.value_id(o) {
                hash_skeleton(store, vid, &colors, &mut h);
            }
            // Occurrences in relations: multiset of focused skeletons.
            let mut occ: Vec<u64> = Vec::new();
            for &(r, fid) in &occurrences[&o] {
                let mut fh = DefaultHasher::new();
                r.as_str().hash(&mut fh);
                hash_focused(store, fid, o, &colors, &mut fh);
                occ.push(fh.finish());
            }
            occ.sort_unstable();
            occ.hash(&mut h);
            next.insert(o, h.finish());
        }
        if next == colors {
            break;
        }
        colors = next;
    }
    colors
}

/// Hashes an interned o-value with oids replaced by their colors.
fn hash_skeleton(
    store: &ValueStore,
    id: ValueId,
    colors: &BTreeMap<Oid, Color>,
    h: &mut DefaultHasher,
) {
    match store.node(id) {
        Node::Const(c) => {
            0u8.hash(h);
            c.hash(h);
        }
        Node::Oid(o) => {
            1u8.hash(h);
            colors.get(o).copied().unwrap_or(0).hash(h);
        }
        Node::Tuple(fields) => {
            2u8.hash(h);
            for &(a, fv) in fields.iter() {
                a.as_str().hash(h);
                hash_skeleton(store, fv, colors, h);
            }
        }
        Node::Set(elems) => {
            3u8.hash(h);
            let mut hs: Vec<u64> = elems
                .iter()
                .map(|&e| {
                    let mut eh = DefaultHasher::new();
                    hash_skeleton(store, e, colors, &mut eh);
                    eh.finish()
                })
                .collect();
            hs.sort_unstable();
            hs.hash(h);
        }
    }
}

/// Like [`hash_skeleton`] but distinguishes the focused oid from others.
fn hash_focused(
    store: &ValueStore,
    id: ValueId,
    focus: Oid,
    colors: &BTreeMap<Oid, Color>,
    h: &mut DefaultHasher,
) {
    match store.node(id) {
        Node::Const(c) => {
            0u8.hash(h);
            c.hash(h);
        }
        Node::Oid(o) => {
            if *o == focus {
                9u8.hash(h);
            } else {
                1u8.hash(h);
                colors.get(o).copied().unwrap_or(0).hash(h);
            }
        }
        Node::Tuple(fields) => {
            2u8.hash(h);
            for &(a, fv) in fields.iter() {
                a.as_str().hash(h);
                hash_focused(store, fv, focus, colors, h);
            }
        }
        Node::Set(elems) => {
            3u8.hash(h);
            let mut hs: Vec<u64> = elems
                .iter()
                .map(|&e| {
                    let mut eh = DefaultHasher::new();
                    hash_focused(store, e, focus, colors, &mut eh);
                    eh.finish()
                })
                .collect();
            hs.sort_unstable();
            hs.hash(h);
        }
    }
}

struct Search<'a> {
    a: &'a Instance,
    b: &'a Instance,
    a_oids: Vec<Oid>,
    colors_a: BTreeMap<Oid, Color>,
    colors_b: BTreeMap<Oid, Color>,
    by_color_b: BTreeMap<Color, Vec<Oid>>,
    map: BTreeMap<Oid, Oid>,
    used: BTreeSet<Oid>,
    nodes: usize,
    node_budget: usize,
}

impl<'a> Search<'a> {
    /// Can the value behind `va` (in `a`'s store) map onto the one behind
    /// `vb` (in `b`'s store) under the current partial bijection?
    fn value_compatible(&self, va: ValueId, vb: ValueId) -> bool {
        match (self.a.store().node(va), self.b.store().node(vb)) {
            (Node::Const(c1), Node::Const(c2)) => c1 == c2,
            (Node::Oid(o1), Node::Oid(o2)) => match self.map.get(o1) {
                Some(m) => m == o2,
                None => !self.used.contains(o2) && self.colors_a.get(o1) == self.colors_b.get(o2),
            },
            // Both tuple nodes are sorted by attribute.
            (Node::Tuple(f1), Node::Tuple(f2)) => {
                f1.len() == f2.len()
                    && f1
                        .iter()
                        .zip(f2.iter())
                        .all(|(&(a1, v1), &(a2, v2))| a1 == a2 && self.value_compatible(v1, v2))
            }
            // Sets: only a size check here (exact matching deferred to the
            // leaf verification) — cheap and sound.
            (Node::Set(s1), Node::Set(s2)) => s1.len() == s2.len(),
            _ => false,
        }
    }

    fn consistent(&self, oa: Oid, ob: Oid) -> bool {
        if self.a.class_of(oa) != self.b.class_of(ob) {
            return false;
        }
        match (self.a.value_id(oa), self.b.value_id(ob)) {
            (None, None) => true,
            (Some(va), Some(vb)) => self.value_compatible(va, vb),
            _ => false,
        }
    }

    fn dfs(&mut self, idx: usize) -> bool {
        self.nodes += 1;
        if self.nodes > self.node_budget {
            return false;
        }
        if idx == self.a_oids.len() {
            // Exact leaf verification.
            return match self.a.rename_oids(&self.map) {
                Ok(renamed) => renamed == *self.b,
                Err(_) => false,
            };
        }
        let oa = self.a_oids[idx];
        if self.map.contains_key(&oa) {
            return self.dfs(idx + 1);
        }
        let color = self.colors_a[&oa];
        let candidates: Vec<Oid> = self.by_color_b.get(&color).cloned().unwrap_or_default();
        for ob in candidates {
            if self.used.contains(&ob) || !self.consistent(oa, ob) {
                continue;
            }
            self.map.insert(oa, ob);
            self.used.insert(ob);
            if self.dfs(idx + 1) {
                return true;
            }
            self.map.remove(&oa);
            self.used.remove(&ob);
        }
        false
    }
}

/// Searches for an O-isomorphism `h` with `h(a) = b`, honoring `pins`
/// (forced assignments). Returns the full oid bijection if found.
pub fn find_o_isomorphism_pinned(
    a: &Instance,
    b: &Instance,
    pins: &BTreeMap<Oid, Oid>,
) -> Option<BTreeMap<Oid, Oid>> {
    if a.schema() != b.schema() {
        return None;
    }
    let a_objs = a.objects();
    let b_objs = b.objects();
    if a_objs.len() != b_objs.len() {
        return None;
    }
    // Constants must agree exactly (DO-isomorphism with identity on D).
    if a.constants() != b.constants() {
        return None;
    }
    let colors_a = refine_colors(a);
    let colors_b = refine_colors(b);
    // Color histograms must agree.
    let mut hist_a: BTreeMap<Color, usize> = BTreeMap::new();
    for c in colors_a.values() {
        *hist_a.entry(*c).or_default() += 1;
    }
    let mut hist_b: BTreeMap<Color, usize> = BTreeMap::new();
    for c in colors_b.values() {
        *hist_b.entry(*c).or_default() += 1;
    }
    if hist_a != hist_b {
        return None;
    }
    let mut by_color_b: BTreeMap<Color, Vec<Oid>> = BTreeMap::new();
    for (&o, &c) in &colors_b {
        by_color_b.entry(c).or_default().push(o);
    }
    // Order a-oids by candidate-set size (most constrained first).
    let mut a_oids: Vec<Oid> = a_objs.iter().copied().collect();
    a_oids.sort_by_key(|o| by_color_b.get(&colors_a[o]).map_or(0, Vec::len));

    let mut search = Search {
        a,
        b,
        a_oids,
        colors_a,
        colors_b,
        by_color_b,
        map: BTreeMap::new(),
        used: BTreeSet::new(),
        nodes: 0,
        node_budget: 2_000_000,
    };
    // Install pins.
    for (&oa, &ob) in pins {
        if !a_objs.contains(&oa) || !b_objs.contains(&ob) {
            return None;
        }
        if !search.consistent(oa, ob) {
            return None;
        }
        search.map.insert(oa, ob);
        search.used.insert(ob);
    }
    if search.dfs(0) {
        Some(search.map)
    } else {
        None
    }
}

/// Searches for an O-isomorphism `h` with `h(a) = b`.
pub fn find_o_isomorphism(a: &Instance, b: &Instance) -> Option<BTreeMap<Oid, Oid>> {
    find_o_isomorphism_pinned(a, b, &BTreeMap::new())
}

/// Are `a` and `b` O-isomorphic (equal up to renaming of oids)?
///
/// ```
/// use iql_model::instance::genesis_instance;
/// use iql_model::iso::are_o_isomorphic;
/// use std::collections::BTreeMap;
/// use iql_model::Oid;
/// let (i, oids) = genesis_instance();
/// let map: BTreeMap<Oid, Oid> = oids
///     .iter()
///     .enumerate()
///     .map(|(k, o)| (*o, Oid::from_raw(700 + k as u64)))
///     .collect();
/// let j = i.rename_oids(&map).unwrap();
/// assert!(are_o_isomorphic(&i, &j));
/// ```
pub fn are_o_isomorphic(a: &Instance, b: &Instance) -> bool {
    find_o_isomorphism(a, b).is_some()
}

/// Partitions `candidates` into automorphism orbits of `inst`: two oids
/// share an orbit iff some automorphism of the instance maps one to the
/// other. Used by `choose` (Section 4.4): picking any element of a full
/// orbit is generic.
pub fn orbits(inst: &Instance, candidates: &[Oid]) -> Vec<Vec<Oid>> {
    let mut remaining: Vec<Oid> = candidates.to_vec();
    let mut out: Vec<Vec<Oid>> = Vec::new();
    while let Some(rep) = remaining.first().copied() {
        let mut orbit = vec![rep];
        let mut rest = Vec::new();
        for &o in &remaining[1..] {
            let pins = BTreeMap::from([(rep, o)]);
            if find_o_isomorphism_pinned(inst, inst, &pins).is_some() {
                orbit.push(o);
            } else {
                rest.push(o);
            }
        }
        out.push(orbit);
        remaining = rest;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::genesis_instance;
    use crate::names::{ClassName, RelName};
    use crate::schema::SchemaBuilder;
    use crate::types::TypeExpr;
    use std::sync::Arc;

    #[test]
    fn instance_is_isomorphic_to_itself() {
        let (i, _) = genesis_instance();
        assert!(are_o_isomorphic(&i, &i));
    }

    #[test]
    fn renamed_instance_is_isomorphic() {
        let (i, oids) = genesis_instance();
        let map: BTreeMap<Oid, Oid> = oids
            .iter()
            .enumerate()
            .map(|(k, o)| (*o, Oid::from_raw(1000 - k as u64)))
            .collect();
        let j = i.rename_oids(&map).unwrap();
        let found = find_o_isomorphism(&i, &j).unwrap();
        assert_eq!(i.rename_oids(&found).unwrap(), j);
    }

    #[test]
    fn different_data_is_not_isomorphic() {
        let (i, _) = genesis_instance();
        let (mut j, _) = genesis_instance();
        j.insert(
            RelName::new("AncestorOfCelebrity"),
            crate::ovalue::OValue::tuple([
                (
                    "anc",
                    crate::ovalue::OValue::oid(
                        *j.class(ClassName::new("Gen2"))
                            .unwrap()
                            .iter()
                            .next()
                            .unwrap(),
                    ),
                ),
                ("desc", crate::ovalue::OValue::str("Enoch")),
            ]),
        )
        .unwrap();
        assert!(!are_o_isomorphic(&i, &j));
    }

    #[test]
    fn constants_must_match_exactly() {
        // O-isomorphisms fix constants pointwise: renaming a constant breaks
        // isomorphism even if the structure is identical.
        let schema = SchemaBuilder::new()
            .relation("R", TypeExpr::base())
            .build()
            .unwrap()
            .into_shared();
        let mut a = Instance::new(Arc::clone(&schema));
        a.insert(RelName::new("R"), OValue::str("x")).unwrap();
        let mut b = Instance::new(schema);
        b.insert(RelName::new("R"), OValue::str("y")).unwrap();
        assert!(!are_o_isomorphic(&a, &b));
    }

    fn quadrangle() -> (Instance, [Oid; 4]) {
        // The Figure-1 instance: four oids in a directed cycle, with a and b
        // attached to opposite diagonals.
        let schema = SchemaBuilder::new()
            .class("Q", TypeExpr::unit())
            .relation(
                "E",
                TypeExpr::tuple([
                    ("b", TypeExpr::class("Q")),
                    ("c", TypeExpr::union(TypeExpr::base(), TypeExpr::class("Q"))),
                ]),
            )
            .build()
            .unwrap()
            .into_shared();
        let mut i = Instance::new(schema);
        let q = ClassName::new("Q");
        let o1 = i.create_oid(q).unwrap();
        let o2 = i.create_oid(q).unwrap();
        let o3 = i.create_oid(q).unwrap();
        let o4 = i.create_oid(q).unwrap();
        let e = RelName::new("E");
        let pairs = [
            (o1, OValue::str("a")),
            (o3, OValue::str("a")),
            (o2, OValue::str("b")),
            (o4, OValue::str("b")),
            (o4, OValue::oid(o1)),
            (o3, OValue::oid(o4)),
            (o2, OValue::oid(o3)),
            (o1, OValue::oid(o2)),
        ];
        for (src, dst) in pairs {
            i.insert(e, OValue::tuple([("b", OValue::oid(src)), ("c", dst)]))
                .unwrap();
        }
        (i, [o1, o2, o3, o4])
    }

    #[test]
    fn quadrangle_automorphism_orbits() {
        // The paper's Claim 4.3.2 automorphism h0 (with constants swapped)
        // is a DO-isomorphism, not an O-isomorphism; with constants fixed,
        // the quadrangle still has the rotation o1↦o3, o3↦o1, o2↦o4, o4↦o2.
        let (i, [o1, o2, o3, o4]) = quadrangle();
        let orbs = orbits(&i, &[o1, o2, o3, o4]);
        // o1,o3 are attached to "a"; o2,o4 to "b"; rotation by two maps
        // o1↔o3 and o2↔o4, so there are exactly two orbits of size two.
        assert_eq!(orbs.len(), 2);
        assert!(orbs.iter().all(|o| o.len() == 2));
    }

    #[test]
    fn pinned_search_respects_pins() {
        let (i, oids) = genesis_instance();
        // Pinning cain to abel cannot extend to an isomorphism (their
        // occupation sets differ).
        let pins = BTreeMap::from([(oids[2], oids[3])]);
        assert!(find_o_isomorphism_pinned(&i, &i, &pins).is_none());
        // Pinning cain to itself succeeds.
        let pins = BTreeMap::from([(oids[2], oids[2])]);
        assert!(find_o_isomorphism_pinned(&i, &i, &pins).is_some());
    }

    #[test]
    fn genesis_orbits_are_singletons_except_symmetry() {
        let (i, oids) = genesis_instance();
        // All six persons are structurally distinguishable (names are
        // constants), so every orbit is a singleton.
        let orbs = orbits(&i, &oids);
        assert_eq!(orbs.len(), 6);
    }

    use crate::ovalue::OValue;
}
