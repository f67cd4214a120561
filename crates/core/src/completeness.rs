//! The "completeness up to copy" machinery of Section 4.2.
//!
//! Theorem 4.2.4 shows every dio-transformation is expressible in IQL *up
//! to copy*: instead of one output instance, a program may produce finitely
//! many O-isomorphic copies with pairwise-disjoint oid sets, separated by a
//! fresh relation `R̄` of type `{P1 ∨ … ∨ Pn}` listing each copy's object
//! set (Definition 4.2.3). Theorem 4.3.1 shows the final selection — *copy
//! elimination* — is not expressible in IQL; IQL⁺'s `choose` recovers it
//! (Theorem 4.4.1).
//!
//! This module makes the definition executable:
//!
//! * [`copy_schema`] — builds `S̄`, the schema for copies of `S`;
//! * [`make_copies`] — materializes an *instance with copies* of `I`;
//! * [`check_instance_with_copies`] — verifies the two conditions of
//!   Definition 4.2.3 (ground facts partition into blocks; every block is
//!   an O-isomorphic copy of `I`);
//! * [`eliminate_copies`] — the extra-linguistic selection step (what IQL
//!   itself cannot do): picks one block and projects back to `S`.

use crate::error::{IqlError, Result};
use iql_model::iso::find_o_isomorphism;
use iql_model::{GroundFact, Instance, OValue, Oid, RelName, Schema, TypeExpr, ValueReader};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The base name used for the copy-separating relation `R̄`. When copying
/// an instance that already has a copies relation (copies of copies), a
/// numeric suffix keeps the new one fresh.
pub fn copies_relation() -> RelName {
    RelName::new("CopiesBar")
}

/// A `R̄` name not declared by `s`.
fn fresh_copies_relation(s: &Schema) -> RelName {
    if !s.has_relation(copies_relation()) {
        return copies_relation();
    }
    for k in 2.. {
        let r = RelName::new(&format!("CopiesBar{k}"));
        if !s.has_relation(r) {
            return r;
        }
    }
    unreachable!("unbounded search")
}

/// The copy-separating relation of a schema produced by [`copy_schema`]:
/// the `CopiesBar*`-named relation with the largest suffix.
fn copies_relation_of(s: &Schema) -> Result<RelName> {
    s.relations()
        .filter(|r| {
            let n = r.as_str();
            n.strip_prefix("CopiesBar")
                .is_some_and(|rest| rest.is_empty() || rest.chars().all(|c| c.is_ascii_digit()))
        })
        .max_by_key(|r| (r.as_str().len(), *r))
        .ok_or_else(|| IqlError::Invalid("schema has no copies relation".into()))
}

/// Builds `S̄`: `S` plus the relation `R̄ : {P1 ∨ … ∨ Pn}` (Definition
/// 4.2.3). Errors if `S` has no classes (copies of a pure-relational
/// instance need no separation — Proposition 4.2.7's automatic case).
pub fn copy_schema(s: &Schema) -> Result<Schema> {
    let classes: Vec<_> = s.classes().collect();
    if classes.is_empty() {
        return Err(IqlError::Invalid(
            "copy schemas need at least one class; relational outputs don't need copies (Prop 4.2.7)"
                .into(),
        ));
    }
    let union = TypeExpr::union_all(classes.into_iter().map(TypeExpr::Class));
    let bar = fresh_copies_relation(s);
    let with_bar = Schema::new(
        std::iter::once((bar, TypeExpr::set_of(union)))
            .chain(
                s.relations()
                    .map(|r| (r, s.relation_type(r).expect("declared").clone())),
            )
            .collect::<Vec<_>>(),
        s.classes()
            .map(|c| (c, s.class_type(c).expect("declared").clone()))
            .collect::<Vec<_>>(),
    )?;
    Ok(with_bar)
}

/// Materializes an instance with `k ≥ 1` copies of `original` over
/// [`copy_schema`]: copies are O-isomorphic, their oid sets pairwise
/// disjoint, and `R̄` holds each copy's object set.
pub fn make_copies(original: &Instance, k: usize) -> Result<Instance> {
    if k == 0 {
        return Err(IqlError::Invalid("need at least one copy".into()));
    }
    let bar_schema = Arc::new(copy_schema(original.schema())?);
    let mut out = Instance::new(Arc::clone(&bar_schema));
    let objects: Vec<Oid> = original.objects().into_iter().collect();
    for _ in 0..k {
        // Fresh oids for this copy, drawn from the combined instance so
        // disjointness is automatic.
        let mut map: BTreeMap<Oid, Oid> = BTreeMap::new();
        for &o in &objects {
            let class = original
                .class_of(o)
                .ok_or_else(|| IqlError::Invalid(format!("stray oid {o}")))?;
            let fresh = out.create_oid(class)?;
            map.insert(o, fresh);
        }
        let store = original.store();
        for r in original.schema().relations() {
            for id in original.relation_ids(r)? {
                out.insert_unchecked(r, store.resolve(id).rename_oids(&map))?;
            }
        }
        for (&o, &fresh) in &map {
            if let Some(id) = original.value_id(o) {
                out.overwrite_value(fresh, store.resolve(id).rename_oids(&map))?;
            }
        }
        let block: OValue = OValue::Set(map.values().map(|o| OValue::Oid(*o)).collect());
        let bar = copies_relation_of(&bar_schema)?;
        out.insert_unchecked(bar, block)?;
    }
    out.validate().map_err(IqlError::Model)?;
    Ok(out)
}

/// Extracts the copy blocks (sets of oids) recorded in `R̄`.
fn blocks(with_copies: &Instance) -> Result<Vec<BTreeSet<Oid>>> {
    let mut out = Vec::new();
    let bar = copies_relation_of(with_copies.schema())?;
    let store = with_copies.store();
    for id in with_copies.relation_ids(bar)? {
        let elems = store
            .as_set(id)
            .ok_or_else(|| IqlError::Invalid("R̄ must hold sets of oids".into()))?;
        let mut block = BTreeSet::new();
        for &e in elems {
            let o = store
                .as_oid(e)
                .ok_or_else(|| IqlError::Invalid("R̄ elements must be oids".into()))?;
            block.insert(o);
        }
        out.push(block);
    }
    Ok(out)
}

/// Restricts `with_copies` to one block and reprojects onto `schema`.
fn restrict_to_block(
    with_copies: &Instance,
    schema: &Arc<Schema>,
    block: &BTreeSet<Oid>,
) -> Result<Instance> {
    let mut out = Instance::new(Arc::clone(schema));
    let store = with_copies.store();
    for p in schema.classes() {
        for o in with_copies.class(p)? {
            if block.contains(o) {
                out.adopt_oid(p, *o)?;
                if let Some(id) = with_copies.value_id(*o) {
                    out.overwrite_value(*o, store.resolve(id))?;
                }
            }
        }
    }
    for r in schema.relations() {
        for id in with_copies.relation_ids(r)? {
            if store.oids(id).iter().all(|o| block.contains(o)) {
                out.insert_unchecked(r, store.resolve(id))?;
            }
        }
    }
    Ok(out)
}

/// Checks Definition 4.2.3 and returns the number of copies:
///
/// 1. the blocks listed in `R̄` are pairwise disjoint and cover every oid;
/// 2. each block, restricted to `S`, is O-isomorphic to `original`;
/// 3. the `S`-ground-facts of the whole instance are exactly the union of
///    the blocks' ground facts.
pub fn check_instance_with_copies(with_copies: &Instance, original: &Instance) -> Result<usize> {
    let schema = original.schema();
    let blocks = blocks(with_copies)?;
    // Disjointness and coverage.
    let mut seen: BTreeSet<Oid> = BTreeSet::new();
    for b in &blocks {
        for o in b {
            if !seen.insert(*o) {
                return Err(IqlError::Invalid(format!("oid {o} in two copy blocks")));
            }
        }
    }
    let mut class_oids: BTreeSet<Oid> = BTreeSet::new();
    for p in schema.classes() {
        class_oids.extend(with_copies.class(p)?.iter().copied());
    }
    if seen != class_oids {
        return Err(IqlError::Invalid(
            "copy blocks do not cover exactly the instance's oids".into(),
        ));
    }
    // Per-block isomorphism, and ground-fact union.
    let mut union_facts: BTreeSet<GroundFact> = BTreeSet::new();
    for b in &blocks {
        let restricted = restrict_to_block(with_copies, schema, b)?;
        if find_o_isomorphism(&restricted, original).is_none() {
            return Err(IqlError::Invalid(
                "a copy block is not O-isomorphic to the original".into(),
            ));
        }
        union_facts.extend(restricted.ground_facts());
    }
    let bar = copies_relation_of(with_copies.schema())?;
    let s_facts: BTreeSet<GroundFact> = with_copies
        .ground_facts()
        .into_iter()
        .filter(|f| !matches!(f, GroundFact::Rel(r, _) if *r == bar))
        .collect();
    if s_facts != union_facts {
        return Err(IqlError::Invalid(
            "instance facts are not the union of the copies' facts".into(),
        ));
    }
    Ok(blocks.len())
}

/// Copy elimination — the step Theorem 4.3.1 proves inexpressible in IQL.
/// Selects the block whose canonical rendering is smallest (any block works:
/// they are pairwise O-isomorphic) and reprojects onto `schema`.
pub fn eliminate_copies(with_copies: &Instance, schema: &Arc<Schema>) -> Result<Instance> {
    let blocks = blocks(with_copies)?;
    let first = blocks
        .into_iter()
        .min()
        .ok_or_else(|| IqlError::Invalid("no copies to select from".into()))?;
    restrict_to_block(with_copies, schema, &first)
}

#[cfg(test)]
mod tests {
    use super::*;
    use iql_model::instance::genesis_instance;
    use iql_model::iso::are_o_isomorphic;

    #[test]
    fn copies_of_genesis_verify_and_eliminate() {
        let (genesis, _) = genesis_instance();
        for k in 1..=3usize {
            let with_copies = make_copies(&genesis, k).unwrap();
            assert_eq!(
                check_instance_with_copies(&with_copies, &genesis).unwrap(),
                k
            );
            let one = eliminate_copies(&with_copies, genesis.schema()).unwrap();
            assert!(are_o_isomorphic(&one, &genesis));
        }
    }

    #[test]
    fn copy_schema_shape() {
        let (genesis, _) = genesis_instance();
        let bar = copy_schema(genesis.schema()).unwrap();
        let t = bar.relation_type(copies_relation()).unwrap();
        // {Gen1 ∨ Gen2}
        assert!(matches!(t, TypeExpr::Set(_)));
        assert_eq!(bar.classes().count(), 2);
    }

    #[test]
    fn tampered_copies_are_rejected() {
        let (genesis, _) = genesis_instance();
        let mut with_copies = make_copies(&genesis, 2).unwrap();
        // Damage one copy: drop a relation fact.
        let r = RelName::new("FoundedLineage");
        let victim = with_copies
            .relation(r)
            .unwrap()
            .iter()
            .next()
            .cloned()
            .unwrap();
        with_copies.remove(r, &victim).unwrap();
        assert!(check_instance_with_copies(&with_copies, &genesis).is_err());
    }

    #[test]
    fn relational_schemas_do_not_need_copies() {
        let schema = iql_model::SchemaBuilder::new()
            .relation("Ronly", TypeExpr::base())
            .build()
            .unwrap();
        assert!(copy_schema(&schema).is_err());
    }
}
