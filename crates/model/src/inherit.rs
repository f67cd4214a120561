//! Type inheritance (Section 6).
//!
//! A schema with inheritance is `(R, P, T, ≤)` where `≤` is a partial order
//! on class names (the *isa hierarchy*, Definition 6.2). Oids are created in
//! a single class and automatically belong to its ancestors — the
//! **inherited oid assignment** `π̄(P) = ∪{π(P') | P' ≤ P}`
//! (Definition 6.1.1).
//!
//! Structure sharing between classes is forced through the
//! `*`-interpretation of tuple types (Section 6.2 / Cardelli): the effective
//! type of a class is the intersection of its own and all its ancestors'
//! types, where tuple-type intersection *merges* fields. The paper's key
//! observation, reproduced by [`SchemaWithIsa::translate`], is that
//! inheritance is a **shorthand for union types**: replacing every class
//! reference `P` by the union of its `≤`-smaller classes yields a plain
//! schema on which IQL runs unchanged (Definition 6.2.2 and the discussion
//! following it).

use crate::error::ModelError;
use crate::instance::Instance;
use crate::names::ClassName;
use crate::schema::Schema;
use crate::store::ValueReader;
use crate::types::{OidClasses, TypeExpr};
use crate::Result;
use std::collections::{BTreeMap, BTreeSet};

/// A partial order on class names: `sub isa sup` edges, transitively closed
/// on demand.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IsaHierarchy {
    /// Direct supertypes per class.
    supers: BTreeMap<ClassName, BTreeSet<ClassName>>,
}

impl IsaHierarchy {
    /// An empty hierarchy (no isa edges — the disjoint-class case).
    pub fn new() -> Self {
        IsaHierarchy::default()
    }

    /// Declares `sub isa sup`.
    pub fn add(&mut self, sub: ClassName, sup: ClassName) {
        self.supers.entry(sub).or_default().insert(sup);
    }

    /// Checks antisymmetry/acyclicity — `≤` must be a partial order.
    pub fn validate(&self) -> Result<()> {
        // DFS cycle detection over the direct-super graph.
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Grey,
            Black,
        }
        let mut marks: BTreeMap<ClassName, Mark> = BTreeMap::new();
        fn visit(
            h: &IsaHierarchy,
            c: ClassName,
            marks: &mut BTreeMap<ClassName, Mark>,
        ) -> Result<()> {
            match marks.get(&c).copied().unwrap_or(Mark::White) {
                Mark::Grey => return Err(ModelError::IsaCycle(c)),
                Mark::Black => return Ok(()),
                Mark::White => {}
            }
            marks.insert(c, Mark::Grey);
            if let Some(sups) = h.supers.get(&c) {
                for &s in sups {
                    if s != c {
                        visit(h, s, marks)?;
                    } else {
                        // Reflexive self-edges are harmless.
                    }
                }
            }
            marks.insert(c, Mark::Black);
            Ok(())
        }
        for &c in self.supers.keys() {
            visit(self, c, &mut marks)?;
        }
        Ok(())
    }

    /// All supertypes of `c`, including `c` itself (reflexive-transitive
    /// closure of the isa edges).
    pub fn ancestors(&self, c: ClassName) -> BTreeSet<ClassName> {
        let mut out = BTreeSet::from([c]);
        let mut stack = vec![c];
        while let Some(x) = stack.pop() {
            if let Some(sups) = self.supers.get(&x) {
                for &s in sups {
                    if out.insert(s) {
                        stack.push(s);
                    }
                }
            }
        }
        out
    }

    /// All subtypes of `c` within `universe`, including `c` itself — the
    /// classes whose oids `π̄` pours into `π̄(c)`.
    pub fn descendants<I>(&self, c: ClassName, universe: I) -> BTreeSet<ClassName>
    where
        I: IntoIterator<Item = ClassName>,
    {
        universe.into_iter().filter(|&p| self.leq(p, c)).collect()
    }

    /// Is `sub ≤ sup` (every `sub` isa `sup`)?
    pub fn leq(&self, sub: ClassName, sup: ClassName) -> bool {
        self.ancestors(sub).contains(&sup)
    }

    /// Is the hierarchy empty (no edges)?
    pub fn is_empty(&self) -> bool {
        self.supers.values().all(BTreeSet::is_empty)
    }
}

/// A schema paired with an isa hierarchy — the quadruple `(R, P, T, ≤)` of
/// Definition 6.2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaWithIsa {
    /// The underlying `(R, P, T)`.
    pub schema: Schema,
    /// The isa partial order on `P`.
    pub isa: IsaHierarchy,
}

impl SchemaWithIsa {
    /// Builds and validates (isa must be acyclic and mention only declared
    /// classes).
    pub fn new(schema: Schema, isa: IsaHierarchy) -> Result<SchemaWithIsa> {
        isa.validate()?;
        for (sub, sups) in &isa.supers {
            if !schema.has_class(*sub) {
                return Err(ModelError::UnknownClass(*sub));
            }
            for s in sups {
                if !schema.has_class(*s) {
                    return Err(ModelError::UnknownClass(*s));
                }
            }
        }
        Ok(SchemaWithIsa { schema, isa })
    }

    /// The *merged* type `tP` of class `p`: the `*`-intersection of `T(P')`
    /// over all ancestors `P' ≥ p` (Section 6.2) — record fields accumulate
    /// down the hierarchy, same-name fields intersect.
    pub fn merged_type(&self, p: ClassName) -> Result<TypeExpr> {
        let mut ancestors: Vec<ClassName> = self.isa.ancestors(p).into_iter().collect();
        ancestors.sort();
        let mut acc: Option<TypeExpr> = None;
        for a in ancestors {
            let t = self.schema.class_type(a)?.clone();
            acc = Some(match acc {
                None => t,
                Some(prev) => star_intersect(&prev, &t),
            });
        }
        Ok(acc.expect("ancestors always include p"))
    }

    /// The paper's reduction (Definition 6.2.2 and following): a plain
    /// schema `S' = (R, P, T*)` *without* isa, where `T*` uses the merged
    /// type of each class and replaces each class reference `Q` by the union
    /// of its `≤`-smaller classes. Instances of `(S, ≤)` are exactly
    /// instances of `S'`, so IQL runs on inheritance schemas unchanged.
    pub fn translate(&self) -> Result<Schema> {
        let all: Vec<ClassName> = self.schema.classes().collect();
        // All class references are replaced *simultaneously*: each Q maps to
        // the union of its ≤-smaller classes (which are original names).
        let map: BTreeMap<ClassName, TypeExpr> = all
            .iter()
            .map(|&q| {
                let subs = self.isa.descendants(q, all.iter().copied());
                (
                    q,
                    TypeExpr::union_all(subs.into_iter().map(TypeExpr::Class)),
                )
            })
            .collect();
        let expand = |t: &TypeExpr| substitute_all(t, &map);
        Schema::new(
            self.schema
                .relations()
                .map(|r| Ok((r, expand(self.schema.relation_type(r)?))))
                .collect::<Result<Vec<_>>>()?,
            all.iter()
                .map(|&p| Ok((p, expand(&self.merged_type(p)?))))
                .collect::<Result<Vec<_>>>()?,
        )
    }

    /// Validates an instance against the inheritance semantics of
    /// Definition 6.2.2: relations against `⟦T(R)⟧π̄` and class values
    /// against `⟦tP⟧π̄`, with `π̄` the inherited assignment. The instance's
    /// own `π` stays disjoint (design choice (1) of Remark 6.2.3).
    pub fn validate_instance(&self, inst: &Instance) -> Result<()> {
        let view = InheritedView {
            inst,
            isa: &self.isa,
        };
        // Membership checks run on interned ids: shared substructure is
        // visited via the store, and a failing value is resolved to a tree
        // only to render the error.
        let store = inst.store();
        for r in self.schema.relations() {
            let ty = self.schema.relation_type(r)?;
            for fid in inst.relation_ids(r)? {
                if !ty.member_id(fid, store, &view) {
                    return Err(ModelError::IllTypedRelation {
                        rel: r,
                        value: store.resolve(fid).to_string(),
                    });
                }
            }
        }
        for p in self.schema.classes() {
            let tp = self.merged_type(p)?;
            let set_valued = matches!(tp, TypeExpr::Set(_));
            for o in inst.class(p)? {
                match inst.value_id(*o) {
                    Some(vid) => {
                        if !tp.member_id(vid, store, &view) {
                            return Err(ModelError::IllTypedOid {
                                class: p,
                                oid: o.raw(),
                                value: store.resolve(vid).to_string(),
                            });
                        }
                    }
                    None => {
                        if set_valued {
                            return Err(ModelError::UndefinedSetValuedOid {
                                class: p,
                                oid: o.raw(),
                            });
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// `π̄`-backed [`OidClasses`] view: an oid is "in" class `P` when its actual
/// class is `≤ P`.
pub struct InheritedView<'a> {
    /// The instance providing the base disjoint assignment `π`.
    pub inst: &'a Instance,
    /// The hierarchy inducing `π̄`.
    pub isa: &'a IsaHierarchy,
}

impl OidClasses for InheritedView<'_> {
    fn oid_in_class(&self, oid: crate::idgen::Oid, class: ClassName) -> bool {
        match self.inst.class_of(oid) {
            Some(actual) => self.isa.leq(actual, class),
            None => false,
        }
    }
}

/// The `*`-intersection of two types: like plain intersection but tuple
/// types *merge* their fields (Section 6.2's `⟦·⟧*` equivalence
/// `[A1:D,A2:D] ∧ [A2:D,A3:D] ≡* [A1:D,A2:D,A3:D]`).
pub fn star_intersect(a: &TypeExpr, b: &TypeExpr) -> TypeExpr {
    use TypeExpr as T;
    match (a, b) {
        (T::Empty, _) | (_, T::Empty) => T::Empty,
        (T::Union(x, y), other) => T::union(star_intersect(x, other), star_intersect(y, other)),
        (other, T::Union(x, y)) => T::union(star_intersect(other, x), star_intersect(other, y)),
        (T::Base, T::Base) => T::Base,
        (T::Class(p), T::Class(q)) => {
            if p == q {
                T::Class(*p)
            } else {
                // Not reducible without the hierarchy; keep the intersection
                // (its π̄-interpretation is the common subclasses' oids).
                T::inter(T::Class(*p), T::Class(*q))
            }
        }
        (T::Set(x), T::Set(y)) => T::set_of(star_intersect(x, y)),
        (T::Tuple(fa), T::Tuple(fb)) => {
            let mut out = fa.clone();
            for (attr, tb) in fb {
                match out.get(attr) {
                    Some(ta) => {
                        let merged = star_intersect(ta, tb);
                        out.insert(*attr, merged);
                    }
                    None => {
                        out.insert(*attr, tb.clone());
                    }
                }
            }
            if out.values().any(|t| matches!(t, T::Empty)) {
                T::Empty
            } else {
                T::Tuple(out)
            }
        }
        _ => T::Empty,
    }
}

/// Replaces every class reference according to `map` in a single pass
/// (simultaneous substitution — never re-expands names the map introduced).
fn substitute_all(t: &TypeExpr, map: &BTreeMap<ClassName, TypeExpr>) -> TypeExpr {
    match t {
        TypeExpr::Empty | TypeExpr::Base => t.clone(),
        TypeExpr::Class(c) => map.get(c).cloned().unwrap_or_else(|| t.clone()),
        TypeExpr::Tuple(fields) => TypeExpr::Tuple(
            fields
                .iter()
                .map(|(a, x)| (*a, substitute_all(x, map)))
                .collect(),
        ),
        TypeExpr::Set(x) => TypeExpr::set_of(substitute_all(x, map)),
        TypeExpr::Union(a, b) => TypeExpr::union(substitute_all(a, map), substitute_all(b, map)),
        TypeExpr::Intersect(a, b) => {
            TypeExpr::inter(substitute_all(a, map), substitute_all(b, map))
        }
    }
}

/// Builds the university schema-with-isa of Examples 6.1.2/6.2.1:
/// `ta ≤ student ≤ person`, `ta ≤ instructor ≤ person`, with the succinct
/// per-class types of Example 6.2.1 (fields accumulate via merging).
pub fn university_schema() -> SchemaWithIsa {
    use crate::schema::SchemaBuilder;
    use TypeExpr as T;
    let schema = SchemaBuilder::new()
        .class("Person", T::tuple([("name", T::base())]))
        .class("Student", T::tuple([("course_taken", T::base())]))
        .class("Instructor", T::tuple([("course_taught", T::base())]))
        .class("Ta", T::unit())
        .relation(
            "Assists",
            T::tuple([("who", T::class("Ta")), ("prof", T::class("Instructor"))]),
        )
        .build()
        .expect("university schema well-formed");
    let mut isa = IsaHierarchy::new();
    let (person, student, instructor, ta) = (
        ClassName::new("Person"),
        ClassName::new("Student"),
        ClassName::new("Instructor"),
        ClassName::new("Ta"),
    );
    isa.add(student, person);
    isa.add(instructor, person);
    isa.add(ta, student);
    isa.add(ta, instructor);
    SchemaWithIsa::new(schema, isa).expect("university isa acyclic")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::idgen::Oid;
    use crate::names::RelName;
    use crate::ovalue::OValue;
    use std::sync::Arc;

    fn c(n: &str) -> ClassName {
        ClassName::new(n)
    }

    #[test]
    fn ancestors_and_leq() {
        let u = university_schema();
        assert!(u.isa.leq(c("Ta"), c("Person")));
        assert!(u.isa.leq(c("Ta"), c("Ta")));
        assert!(!u.isa.leq(c("Person"), c("Ta")));
        assert_eq!(u.isa.ancestors(c("Ta")).len(), 4);
    }

    #[test]
    fn descendants_inverts_ancestors() {
        let u = university_schema();
        let all: Vec<ClassName> = u.schema.classes().collect();
        let subs = u.isa.descendants(c("Person"), all.iter().copied());
        assert_eq!(subs.len(), 4, "everyone is a person");
        let subs_i = u.isa.descendants(c("Instructor"), all.iter().copied());
        assert_eq!(subs_i, BTreeSet::from([c("Instructor"), c("Ta")]));
    }

    #[test]
    fn cycles_are_rejected() {
        let mut isa = IsaHierarchy::new();
        isa.add(c("A1"), c("B1"));
        isa.add(c("B1"), c("A1"));
        assert!(matches!(isa.validate(), Err(ModelError::IsaCycle(_))));
    }

    #[test]
    fn merged_type_accumulates_fields() {
        // Example 6.2.1: ta's merged type has name, course_taken,
        // course_taught — exactly Example 6.1.2's explicit type.
        let u = university_schema();
        let t = u.merged_type(c("Ta")).unwrap();
        let expected = TypeExpr::tuple([
            ("name", TypeExpr::base()),
            ("course_taken", TypeExpr::base()),
            ("course_taught", TypeExpr::base()),
        ]);
        assert_eq!(t, expected);
        let ts = u.merged_type(c("Student")).unwrap();
        assert_eq!(
            ts,
            TypeExpr::tuple([
                ("name", TypeExpr::base()),
                ("course_taken", TypeExpr::base())
            ])
        );
    }

    #[test]
    fn star_intersect_paper_example() {
        // [A1:D,A2:D] ∧* [A2:D,A3:D] = [A1:D,A2:D,A3:D]
        let a = TypeExpr::tuple([("A1", TypeExpr::base()), ("A2", TypeExpr::base())]);
        let b = TypeExpr::tuple([("A2", TypeExpr::base()), ("A3", TypeExpr::base())]);
        let m = star_intersect(&a, &b);
        assert_eq!(
            m,
            TypeExpr::tuple([
                ("A1", TypeExpr::base()),
                ("A2", TypeExpr::base()),
                ("A3", TypeExpr::base())
            ])
        );
    }

    fn university_instance() -> (SchemaWithIsa, Instance, Oid, Oid) {
        let u = university_schema();
        let mut i = Instance::new(Arc::new(u.schema.clone()));
        let ta = i.create_oid(c("Ta")).unwrap();
        let prof = i.create_oid(c("Instructor")).unwrap();
        i.define_value(
            ta,
            OValue::tuple([
                ("name", OValue::str("Kim")),
                ("course_taken", OValue::str("DB2")),
                ("course_taught", OValue::str("DB1")),
            ]),
        )
        .unwrap();
        i.define_value(
            prof,
            OValue::tuple([
                ("name", OValue::str("Codd")),
                ("course_taught", OValue::str("Rel")),
            ]),
        )
        .unwrap();
        i.insert_unchecked(
            RelName::new("Assists"),
            OValue::tuple([("who", OValue::oid(ta)), ("prof", OValue::oid(prof))]),
        )
        .unwrap();
        (u, i, ta, prof)
    }

    #[test]
    fn inherited_validation_accepts_subclass_use() {
        let (u, i, _, _) = university_instance();
        // Plain validation fails (ta's value is not of shape [], and Assists
        // expects who: Ta which holds, but prof's merged fields don't match
        // the raw Instructor type [course_taught: D]).
        assert!(i.validate().is_err());
        // Inheritance-aware validation succeeds.
        u.validate_instance(&i).unwrap();
    }

    #[test]
    fn inherited_view_membership() {
        let (u, i, ta, prof) = university_instance();
        let view = InheritedView {
            inst: &i,
            isa: &u.isa,
        };
        let person = TypeExpr::class("Person");
        assert!(person.member(&OValue::oid(ta), &view));
        assert!(person.member(&OValue::oid(prof), &view));
        let student = TypeExpr::class("Student");
        assert!(student.member(&OValue::oid(ta), &view));
        assert!(!student.member(&OValue::oid(prof), &view));
    }

    #[test]
    fn translation_to_union_types() {
        let (u, i, _, _) = university_instance();
        let plain = u.translate().unwrap();
        // In the translated schema, Person references become unions over
        // {Person, Student, Instructor, Ta}.
        let assists = plain.relation_type(RelName::new("Assists")).unwrap();
        let mut classes = BTreeSet::new();
        assists.classes_mentioned(&mut classes);
        assert!(classes.contains(&c("Ta")));
        // The same instance (same π, same ν) validates as a *plain* instance
        // of the translated schema — inheritance reduced to union types.
        let mut j = Instance::new(Arc::new(plain));
        for p in u.schema.classes() {
            for o in i.class(p).unwrap() {
                j.adopt_oid(p, *o).unwrap();
                if let Some(v) = i.value(*o) {
                    j.overwrite_value(*o, v.clone()).unwrap();
                }
            }
        }
        for r in u.schema.relations() {
            for v in i.relation(r).unwrap() {
                j.insert_unchecked(r, v.clone()).unwrap();
            }
        }
        j.validate().unwrap();
    }

    #[test]
    fn ill_typed_under_inheritance_rejected() {
        let u = university_schema();
        let mut i = Instance::new(Arc::new(u.schema.clone()));
        let ta = i.create_oid(c("Ta")).unwrap();
        // Missing the course_taught field required by the merged type.
        i.define_value(
            ta,
            OValue::tuple([
                ("name", OValue::str("Kim")),
                ("course_taken", OValue::str("DB2")),
            ]),
        )
        .unwrap();
        assert!(matches!(
            u.validate_instance(&i),
            Err(ModelError::IllTypedOid { .. })
        ));
    }

    #[test]
    fn substitute_all_is_simultaneous() {
        // A ↦ B and B ↦ A must swap, not chain.
        let map = BTreeMap::from([
            (c("SwA"), TypeExpr::class("SwB")),
            (c("SwB"), TypeExpr::class("SwA")),
        ]);
        let t = TypeExpr::tuple([("x", TypeExpr::class("SwA")), ("y", TypeExpr::class("SwB"))]);
        let s = substitute_all(&t, &map);
        assert_eq!(
            s,
            TypeExpr::tuple([("x", TypeExpr::class("SwB")), ("y", TypeExpr::class("SwA"))])
        );
    }
}
