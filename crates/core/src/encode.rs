//! The relational encoding of arbitrary instances (Proposition 4.2.2).
//!
//! The proof of Proposition 4.2.2 starts: *"The instance is first encoded by
//! an IQL program in a relational schema. Oids are invented to denote more
//! structured o-values."* This module materializes that encoding as a data
//! transformation: any instance flattens into the fixed schema
//! [`flat_schema`], in which one class `Node` supplies identifiers for
//! original oids **and** for every distinct composite (tuple/set) o-value,
//! and flat relations record the structure:
//!
//! ```text
//! class Node: [];
//! relation KindTuple:  [node: Node];
//! relation KindSet:    [node: Node];
//! relation TupleField: [parent: Node, attr: D, child: D | Node];
//! relation SetElem:    [parent: Node, elem: D | Node];
//! relation OrigClass:  [node: Node, class: D];     // π, class name as a constant
//! relation RelFact:    [rel: D, value: D | Node];  // ρ
//! relation ValueOf:    [obj: Node, value: D | Node];  // ν
//! ```
//!
//! [`decode`] inverts it exactly (up to O-isomorphism on oids), which the
//! tests verify on the Genesis instance and on cyclic graph instances.
//! Because every structured value becomes a flat identifier, the encoded
//! instance is "essentially relational": the only class has the unit type,
//! so any relationally-complete machinery can now operate on it — the hinge
//! of the paper's completeness argument.

use crate::error::{IqlError, Result};
use iql_model::{
    AttrName, ClassName, Constant, Instance, OValue, Oid, RelName, Schema, SchemaBuilder, TypeExpr,
    ValueId, ValueReader,
};
use std::collections::BTreeMap;
use std::sync::Arc;

fn node_class() -> ClassName {
    ClassName::new("Node")
}

/// The fixed flat target schema (see module docs).
pub fn flat_schema() -> Schema {
    use TypeExpr as T;
    let node_or_d = || T::union(T::base(), T::class("Node"));
    SchemaBuilder::new()
        .class("Node", T::unit())
        .relation("KindTuple", T::tuple([("node", T::class("Node"))]))
        .relation("KindSet", T::tuple([("node", T::class("Node"))]))
        .relation(
            "TupleField",
            T::tuple([
                ("parent", T::class("Node")),
                ("attr", T::base()),
                ("child", node_or_d()),
            ]),
        )
        .relation(
            "SetElem",
            T::tuple([("parent", T::class("Node")), ("elem", node_or_d())]),
        )
        .relation(
            "OrigClass",
            T::tuple([("node", T::class("Node")), ("class", T::base())]),
        )
        .relation(
            "RelFact",
            T::tuple([("rel", T::base()), ("value", node_or_d())]),
        )
        .relation(
            "ValueOf",
            T::tuple([("obj", T::class("Node")), ("value", node_or_d())]),
        )
        .build()
        .expect("flat schema is well-formed")
}

struct Encoder {
    flat: Instance,
    /// Original oid → node oid.
    oid_node: BTreeMap<Oid, Oid>,
    /// Distinct composite o-value → node oid (values deduplicate).
    value_node: BTreeMap<OValue, Oid>,
}

impl Encoder {
    fn tuple2(a: (&str, OValue), b: (&str, OValue)) -> OValue {
        OValue::tuple([a, b])
    }

    /// Encodes an o-value to its flat representative: constants stay,
    /// oids map to their node, composites get (shared) structure nodes.
    fn enc(&mut self, v: &OValue) -> Result<OValue> {
        match v {
            OValue::Const(c) => Ok(OValue::Const(c.clone())),
            OValue::Oid(o) => self
                .oid_node
                .get(o)
                .map(|n| OValue::Oid(*n))
                .ok_or_else(|| IqlError::Invalid(format!("stray oid {o} during encode"))),
            OValue::Tuple(fields) => {
                if let Some(n) = self.value_node.get(v) {
                    return Ok(OValue::Oid(*n));
                }
                let n = self.flat.create_oid(node_class())?;
                self.value_node.insert(v.clone(), n);
                self.flat.insert_unchecked(
                    RelName::new("KindTuple"),
                    OValue::tuple([("node", OValue::Oid(n))]),
                )?;
                for (a, fv) in fields {
                    let child = self.enc(fv)?;
                    self.flat.insert_unchecked(
                        RelName::new("TupleField"),
                        OValue::tuple([
                            ("parent", OValue::Oid(n)),
                            ("attr", OValue::str(a.as_str())),
                            ("child", child),
                        ]),
                    )?;
                }
                Ok(OValue::Oid(n))
            }
            OValue::Set(elems) => {
                if let Some(n) = self.value_node.get(v) {
                    return Ok(OValue::Oid(*n));
                }
                let n = self.flat.create_oid(node_class())?;
                self.value_node.insert(v.clone(), n);
                self.flat.insert_unchecked(
                    RelName::new("KindSet"),
                    OValue::tuple([("node", OValue::Oid(n))]),
                )?;
                for e in elems {
                    let elem = self.enc(e)?;
                    self.flat.insert_unchecked(
                        RelName::new("SetElem"),
                        Self::tuple2(("parent", OValue::Oid(n)), ("elem", elem)),
                    )?;
                }
                Ok(OValue::Oid(n))
            }
        }
    }
}

/// Flattens an instance into [`flat_schema`] (Proposition 4.2.2's encoding).
pub fn encode(inst: &Instance) -> Result<Instance> {
    let mut enc = Encoder {
        flat: Instance::new(Arc::new(flat_schema())),
        oid_node: BTreeMap::new(),
        value_node: BTreeMap::new(),
    };
    // Nodes for the original oids, tagged with their class.
    for p in inst.schema().classes() {
        for o in inst.class(p)? {
            let n = enc.flat.create_oid(node_class())?;
            enc.oid_node.insert(*o, n);
            enc.flat.insert_unchecked(
                RelName::new("OrigClass"),
                Encoder::tuple2(("node", OValue::Oid(n)), ("class", OValue::str(p.as_str()))),
            )?;
        }
    }
    // ρ: relation facts, in id order, so structure nodes are numbered
    // independently of insertion order.
    let store = inst.store();
    for r in inst.schema().relations() {
        let mut ids: Vec<ValueId> = inst.relation_ids(r)?.collect();
        ids.sort_unstable();
        for id in ids {
            let value = enc.enc(&store.resolve(id))?;
            enc.flat.insert_unchecked(
                RelName::new("RelFact"),
                Encoder::tuple2(("rel", OValue::str(r.as_str())), ("value", value)),
            )?;
        }
    }
    // ν: values of oids.
    for p in inst.schema().classes() {
        for o in inst.class(p)? {
            if let Some(id) = inst.value_id(*o) {
                let value = enc.enc(&store.resolve(id))?;
                let n = enc.oid_node[o];
                enc.flat.insert_unchecked(
                    RelName::new("ValueOf"),
                    Encoder::tuple2(("obj", OValue::Oid(n)), ("value", value)),
                )?;
            }
        }
    }
    enc.flat.validate().map_err(IqlError::Model)?;
    Ok(enc.flat)
}

/// Inverts [`encode`] against the original schema. The result is equal to
/// the original instance up to renaming of oids (tests pin exact equality
/// of the relational parts and O-isomorphism overall).
pub fn decode(flat: &Instance, schema: &Arc<Schema>) -> Result<Instance> {
    // Facts in id order, so the decoded oids are numbered independently
    // of insertion order.
    let get = |rel: &str| -> Result<Vec<OValue>> {
        let store = flat.store();
        let mut ids: Vec<ValueId> = flat.relation_ids(RelName::new(rel))?.collect();
        ids.sort_unstable();
        Ok(ids.into_iter().map(|id| store.resolve(id)).collect())
    };
    let field = |v: &OValue, a: &str| -> Result<OValue> {
        match v {
            OValue::Tuple(fields) => fields
                .get(&AttrName::new(a))
                .cloned()
                .ok_or_else(|| IqlError::Invalid(format!("missing field {a}"))),
            _ => Err(IqlError::Invalid("expected a tuple fact".into())),
        }
    };
    let as_oid = |v: OValue| -> Result<Oid> {
        match v {
            OValue::Oid(o) => Ok(o),
            other => Err(IqlError::Invalid(format!("expected oid, got {other}"))),
        }
    };
    let as_str = |v: OValue| -> Result<String> {
        match v {
            OValue::Const(Constant::Str(s)) => Ok(s.to_string()),
            other => Err(IqlError::Invalid(format!("expected string, got {other}"))),
        }
    };

    let mut out = Instance::new(Arc::clone(schema));
    // Original oids from OrigClass.
    let mut node_oid: BTreeMap<Oid, Oid> = BTreeMap::new();
    for fact in &get("OrigClass")? {
        let n = as_oid(field(fact, "node")?)?;
        let class = ClassName::new(&as_str(field(fact, "class")?)?);
        let o = out.create_oid(class)?;
        node_oid.insert(n, o);
    }
    // Structure tables.
    let mut kind: BTreeMap<Oid, u8> = BTreeMap::new(); // 1 tuple, 2 set
    for fact in &get("KindTuple")? {
        kind.insert(as_oid(field(fact, "node")?)?, 1);
    }
    for fact in &get("KindSet")? {
        kind.insert(as_oid(field(fact, "node")?)?, 2);
    }
    let mut tuple_fields: BTreeMap<Oid, Vec<(String, OValue)>> = BTreeMap::new();
    for fact in &get("TupleField")? {
        let parent = as_oid(field(fact, "parent")?)?;
        tuple_fields
            .entry(parent)
            .or_default()
            .push((as_str(field(fact, "attr")?)?, field(fact, "child")?));
    }
    let mut set_elems: BTreeMap<Oid, Vec<OValue>> = BTreeMap::new();
    for fact in &get("SetElem")? {
        let parent = as_oid(field(fact, "parent")?)?;
        set_elems
            .entry(parent)
            .or_default()
            .push(field(fact, "elem")?);
    }

    // Recursive value reconstruction. Structure nodes form a DAG (they
    // dedup by value), so plain recursion with a depth guard suffices.
    fn rebuild(
        v: &OValue,
        node_oid: &BTreeMap<Oid, Oid>,
        kind: &BTreeMap<Oid, u8>,
        tuple_fields: &BTreeMap<Oid, Vec<(String, OValue)>>,
        set_elems: &BTreeMap<Oid, Vec<OValue>>,
        depth: usize,
    ) -> Result<OValue> {
        if depth > 10_000 {
            return Err(IqlError::Invalid("flat structure is cyclic".into()));
        }
        match v {
            OValue::Const(c) => Ok(OValue::Const(c.clone())),
            OValue::Oid(n) => {
                if let Some(o) = node_oid.get(n) {
                    return Ok(OValue::Oid(*o));
                }
                match kind.get(n) {
                    Some(1) => {
                        let mut fields: BTreeMap<AttrName, OValue> = BTreeMap::new();
                        for (a, child) in tuple_fields.get(n).into_iter().flatten() {
                            fields.insert(
                                AttrName::new(a),
                                rebuild(child, node_oid, kind, tuple_fields, set_elems, depth + 1)?,
                            );
                        }
                        Ok(OValue::Tuple(fields))
                    }
                    Some(2) => {
                        let mut elems = std::collections::BTreeSet::new();
                        for e in set_elems.get(n).into_iter().flatten() {
                            elems.insert(rebuild(
                                e,
                                node_oid,
                                kind,
                                tuple_fields,
                                set_elems,
                                depth + 1,
                            )?);
                        }
                        Ok(OValue::Set(elems))
                    }
                    _ => Err(IqlError::Invalid(format!("node {n} has no kind"))),
                }
            }
            other => Err(IqlError::Invalid(format!(
                "unexpected composite {other} in flat relation"
            ))),
        }
    }

    // ρ.
    for fact in &get("RelFact")? {
        let rel = RelName::new(&as_str(field(fact, "rel")?)?);
        let value = rebuild(
            &field(fact, "value")?,
            &node_oid,
            &kind,
            &tuple_fields,
            &set_elems,
            0,
        )?;
        out.insert_unchecked(rel, value)?;
    }
    // ν.
    for fact in &get("ValueOf")? {
        let n = as_oid(field(fact, "obj")?)?;
        let o = *node_oid
            .get(&n)
            .ok_or_else(|| IqlError::Invalid(format!("ValueOf on non-oid node {n}")))?;
        let value = rebuild(
            &field(fact, "value")?,
            &node_oid,
            &kind,
            &tuple_fields,
            &set_elems,
            0,
        )?;
        out.overwrite_value(o, value)?;
    }
    out.validate().map_err(IqlError::Model)?;
    Ok(out)
}

// ---------------------------------------------------------------------
// The encoding as an IQL program (Proposition 4.2.2, literally)
// ---------------------------------------------------------------------

/// How to obtain the flat representative of a value bound to a variable.
enum Child {
    /// The value is its own representative (base-domain constants).
    Direct,
    /// Look the representative up in a two-column temp relation
    /// `(value, representative)`.
    Lookup(RelName, AttrName, AttrName),
}

struct Gen {
    temps: Vec<(RelName, TypeExpr)>,
    rules: Vec<crate::ast::Rule>,
    counter: usize,
}

impl Gen {
    fn fresh_rel(&mut self, prefix: &str, ty: TypeExpr) -> RelName {
        self.counter += 1;
        let name = RelName::new(&format!("Enc{prefix}{}", self.counter));
        self.temps.push((name, ty));
        name
    }

    /// Literals that bind `c` to the representative of the value in `var`.
    fn lookup_literals(&self, child: &Child, var: &str, c: &str) -> Vec<crate::ast::Literal> {
        use crate::ast::{Literal, Term};
        match child {
            Child::Direct => vec![Literal::eq(Term::var(c), Term::var(var))],
            Child::Lookup(rel, va, ca) => vec![Literal::member(
                Term::Rel(*rel),
                Term::tuple([(va.as_str(), Term::var(var)), (ca.as_str(), Term::var(c))]),
            )],
        }
    }

    /// Generates the encoding rules for values of (normalized) type `t`
    /// flowing through the unary source relation `src : [v: t]`; returns
    /// how parents reference those values.
    fn gen_type(&mut self, t: &TypeExpr, src: RelName) -> Result<Child> {
        use crate::ast::{Head, Literal, Rule, Term};
        let v = |x: &str| Term::var(x);
        let node_ty = TypeExpr::class("Node");
        match t {
            TypeExpr::Empty | TypeExpr::Base => Ok(Child::Direct),
            TypeExpr::Class(q) => Ok(Child::Lookup(
                RelName::new(&format!("EncOid_{q}")),
                AttrName::new("o"),
                AttrName::new("n"),
            )),
            TypeExpr::Set(te) => {
                let node_rel = self.fresh_rel(
                    "Node",
                    TypeExpr::tuple([("v", t.clone()), ("n", node_ty.clone())]),
                );
                let src_atom = Literal::member(Term::Rel(src), Term::tuple([("v", v("v"))]));
                self.rules.push(Rule::new(
                    Head::Rel(node_rel, Term::tuple([("v", v("v")), ("n", v("n"))])),
                    vec![src_atom.clone()],
                ));
                let node_atom = Literal::member(
                    Term::Rel(node_rel),
                    Term::tuple([("v", v("v")), ("n", v("n"))]),
                );
                self.rules.push(Rule::new(
                    Head::Rel(RelName::new("KindSet"), Term::tuple([("node", v("n"))])),
                    vec![node_atom.clone()],
                ));
                // Element source and recursion.
                let elem_src = self.fresh_rel("Src", TypeExpr::tuple([("v", (**te).clone())]));
                self.rules.push(
                    Rule::new(
                        Head::Rel(elem_src, Term::tuple([("v", v("x"))])),
                        vec![src_atom.clone(), Literal::member(v("v"), v("x"))],
                    )
                    .with_var("x", (**te).clone()),
                );
                let child = self.gen_type(te, elem_src)?;
                let mut body = vec![node_atom, Literal::member(v("v"), v("x"))];
                body.extend(self.lookup_literals(&child, "x", "c"));
                self.rules.push(
                    Rule::new(
                        Head::Rel(
                            RelName::new("SetElem"),
                            Term::tuple([("parent", v("n")), ("elem", v("c"))]),
                        ),
                        body,
                    )
                    .with_var("x", (**te).clone()),
                );
                Ok(Child::Lookup(
                    node_rel,
                    AttrName::new("v"),
                    AttrName::new("n"),
                ))
            }
            TypeExpr::Tuple(fields) => {
                let node_rel = self.fresh_rel(
                    "Node",
                    TypeExpr::tuple([("v", t.clone()), ("n", node_ty.clone())]),
                );
                let src_atom = Literal::member(Term::Rel(src), Term::tuple([("v", v("v"))]));
                self.rules.push(Rule::new(
                    Head::Rel(node_rel, Term::tuple([("v", v("v")), ("n", v("n"))])),
                    vec![src_atom],
                ));
                let node_atom = Literal::member(
                    Term::Rel(node_rel),
                    Term::tuple([("v", v("v")), ("n", v("n"))]),
                );
                self.rules.push(Rule::new(
                    Head::Rel(RelName::new("KindTuple"), Term::tuple([("node", v("n"))])),
                    vec![node_atom.clone()],
                ));
                // Destructuring pattern [a1: x1, …, ak: xk].
                let pattern = Term::Tuple(
                    fields
                        .keys()
                        .enumerate()
                        .map(|(i, a)| (*a, Term::var(format!("x{i}").as_str())))
                        .collect(),
                );
                for (i, (attr, ft)) in fields.iter().enumerate() {
                    let xi = format!("x{i}");
                    let field_src = self.fresh_rel("Src", TypeExpr::tuple([("v", ft.clone())]));
                    self.rules.push(Rule::new(
                        Head::Rel(field_src, Term::tuple([("v", v(&xi))])),
                        vec![node_atom.clone(), Literal::eq(v("v"), pattern.clone())],
                    ));
                    let child = self.gen_type(ft, field_src)?;
                    let mut body = vec![node_atom.clone(), Literal::eq(v("v"), pattern.clone())];
                    body.extend(self.lookup_literals(&child, &xi, "c"));
                    self.rules.push(Rule::new(
                        Head::Rel(
                            RelName::new("TupleField"),
                            Term::tuple([
                                ("parent", v("n")),
                                ("attr", Term::str(attr.as_str())),
                                ("child", v("c")),
                            ]),
                        ),
                        body,
                    ));
                }
                Ok(Child::Lookup(
                    node_rel,
                    AttrName::new("v"),
                    AttrName::new("n"),
                ))
            }
            TypeExpr::Union(_, _) => {
                // One branch source per union component; a shared Ref
                // relation collects each value's representative. The
                // branch-filtering coercion `w = v` with `w` typed at the
                // branch is the paper's Example-3.4.3 idiom: the typed
                // valuation semantics makes it a runtime discriminator.
                let mut branches = Vec::new();
                flatten_union(t, &mut branches);
                let ref_rel = self.fresh_rel(
                    "Ref",
                    TypeExpr::tuple([
                        ("v", t.clone()),
                        (
                            "c",
                            TypeExpr::union(TypeExpr::base(), TypeExpr::class("Node")),
                        ),
                    ]),
                );
                for b in branches {
                    let branch_src = self.fresh_rel("Src", TypeExpr::tuple([("v", b.clone())]));
                    self.rules.push(
                        Rule::new(
                            Head::Rel(branch_src, Term::tuple([("v", v("w"))])),
                            vec![
                                Literal::member(Term::Rel(src), Term::tuple([("v", v("v"))])),
                                Literal::eq(v("w"), v("v")),
                            ],
                        )
                        .with_var("w", b.clone())
                        .with_var("v", t.clone()),
                    );
                    let child = self.gen_type(&b, branch_src)?;
                    let mut body = vec![Literal::member(
                        Term::Rel(branch_src),
                        Term::tuple([("v", v("w"))]),
                    )];
                    body.extend(self.lookup_literals(&child, "w", "c"));
                    self.rules.push(
                        Rule::new(
                            Head::Rel(ref_rel, Term::tuple([("v", v("w")), ("c", v("c"))])),
                            body,
                        )
                        .with_var("w", b.clone()),
                    );
                }
                Ok(Child::Lookup(
                    ref_rel,
                    AttrName::new("v"),
                    AttrName::new("c"),
                ))
            }
            TypeExpr::Intersect(_, _) => Err(IqlError::Invalid(
                "normalize types before generating the flattener".into(),
            )),
        }
    }
}

fn flatten_union(t: &TypeExpr, out: &mut Vec<TypeExpr>) {
    match t {
        TypeExpr::Union(a, b) => {
            flatten_union(a, out);
            flatten_union(b, out);
        }
        other => out.push(other.clone()),
    }
}

/// Generates the IQL program that flattens instances of `schema` into
/// [`flat_schema`] — Proposition 4.2.2's "the instance is first encoded by
/// an IQL program in a relational schema. Oids are invented to denote more
/// structured o-values", as an actual program. Running it and [`decode`]-ing
/// the output reproduces the input up to O-isomorphism (tested).
///
/// Intersection types are normalized away first (Proposition 2.2.1); the
/// schema must not already use the flat/temporary names (`Node`, `Enc…`,
/// `KindTuple`, …).
pub fn generate_flattener(schema: &Schema) -> Result<crate::ast::Program> {
    use crate::ast::{Head, Literal, Rule, Term};
    let flat = flat_schema();
    // Collision checks.
    for r in flat.relations() {
        if schema.has_relation(r) {
            return Err(IqlError::Invalid(format!("schema already declares {r}")));
        }
    }
    if schema.has_class(node_class()) {
        return Err(IqlError::Invalid(
            "schema already declares class Node".into(),
        ));
    }
    for r in schema.relations() {
        if r.as_str().starts_with("Enc") {
            return Err(IqlError::Invalid(format!(
                "relation {r} collides with Enc* temps"
            )));
        }
    }

    let mut g = Gen {
        temps: Vec::new(),
        rules: Vec::new(),
        counter: 0,
    };
    let v = |x: &str| Term::var(x);

    // Per class: oid nodes, OrigClass, and ν encoding.
    for p in schema.classes() {
        let oid_rel = RelName::new(&format!("EncOid_{p}"));
        g.temps.push((
            oid_rel,
            TypeExpr::tuple([("o", TypeExpr::Class(p)), ("n", TypeExpr::class("Node"))]),
        ));
        g.rules.push(Rule::new(
            Head::Rel(oid_rel, Term::tuple([("o", v("o")), ("n", v("n"))])),
            vec![Literal::member(Term::Class(p), v("o"))],
        ));
        let oid_atom = Literal::member(
            Term::Rel(oid_rel),
            Term::tuple([("o", v("o")), ("n", v("n"))]),
        );
        g.rules.push(Rule::new(
            Head::Rel(
                RelName::new("OrigClass"),
                Term::tuple([("node", v("n")), ("class", Term::str(p.as_str()))]),
            ),
            vec![oid_atom.clone()],
        ));
        // ν values: w = o^ skips undefined ν, exactly like the encoder.
        let t = schema.class_type(p)?.intersection_free_disjoint();
        let val_src = g.fresh_rel("Src", TypeExpr::tuple([("v", t.clone())]));
        g.rules.push(
            Rule::new(
                Head::Rel(val_src, Term::tuple([("v", v("w"))])),
                vec![oid_atom.clone(), Literal::eq(v("w"), Term::deref("o"))],
            )
            .with_var("w", t.clone()),
        );
        let child = g.gen_type(&t, val_src)?;
        let mut body = vec![oid_atom, Literal::eq(v("w"), Term::deref("o"))];
        body.extend(g.lookup_literals(&child, "w", "c"));
        g.rules.push(
            Rule::new(
                Head::Rel(
                    RelName::new("ValueOf"),
                    Term::tuple([("obj", v("n")), ("value", v("c"))]),
                ),
                body,
            )
            .with_var("w", t.clone()),
        );
    }

    // Per relation: RelFact over encoded values.
    for r in schema.relations() {
        let t = schema.relation_type(r)?.intersection_free_disjoint();
        let src = g.fresh_rel("Src", TypeExpr::tuple([("v", t.clone())]));
        g.rules.push(
            Rule::new(
                Head::Rel(src, Term::tuple([("v", v("x"))])),
                vec![Literal::member(Term::Rel(r), v("x"))],
            )
            .with_var("x", t.clone()),
        );
        let child = g.gen_type(&t, src)?;
        let mut body = vec![Literal::member(
            Term::Rel(src),
            Term::tuple([("v", v("x"))]),
        )];
        body.extend(g.lookup_literals(&child, "x", "c"));
        g.rules.push(
            Rule::new(
                Head::Rel(
                    RelName::new("RelFact"),
                    Term::tuple([("rel", Term::str(r.as_str())), ("value", v("c"))]),
                ),
                body,
            )
            .with_var("x", t.clone()),
        );
    }

    // Assemble the program schema in one shot: original + flat + temps
    // (temp types reference both original classes and Node, so the parts
    // cannot be validated separately).
    let combined = Schema::new(
        schema
            .relations()
            .map(|r| Ok((r, schema.relation_type(r)?.clone())))
            .chain(
                flat.relations()
                    .map(|r| Ok((r, flat.relation_type(r)?.clone()))),
            )
            .chain(g.temps.iter().map(|(r, t)| Ok((*r, t.clone()))))
            .collect::<Result<Vec<_>>>()?,
        schema
            .classes()
            .map(|c| Ok((c, schema.class_type(c)?.clone())))
            .chain(flat.classes().map(|c| Ok((c, flat.class_type(c)?.clone()))))
            .collect::<Result<Vec<_>>>()?,
    )
    .map_err(IqlError::Model)?;
    let input_rels = schema.relations().collect();
    let input_classes = schema.classes().collect();
    let output_rels = flat.relations().collect();
    let output_classes = flat.classes().collect();
    let combined = Arc::new(combined);
    let input = Arc::new(combined.project(&input_rels, &input_classes)?);
    let output = Arc::new(combined.project(&output_rels, &output_classes)?);
    let mut prog = crate::ast::Program {
        schema: combined,
        input,
        output,
        stages: vec![crate::ast::Stage::new(g.rules)],
    };
    crate::typecheck::check_program(&mut prog)?;
    Ok(prog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use iql_model::instance::genesis_instance;
    use iql_model::iso::are_o_isomorphic;

    #[test]
    fn genesis_roundtrips_through_the_flat_encoding() {
        let (genesis, _) = genesis_instance();
        let flat = encode(&genesis).unwrap();
        // The flat instance is "essentially relational": its single class
        // has the unit type and carries no values.
        assert_eq!(flat.schema().classes().count(), 1);
        for o in flat.class(super::node_class()).unwrap() {
            assert!(flat.value(*o).is_none());
        }
        let back = decode(&flat, genesis.schema()).unwrap();
        assert!(are_o_isomorphic(&back, &genesis));
    }

    #[test]
    fn structured_values_share_nodes() {
        // Two relation facts containing the same set share its node.
        let schema = SchemaBuilder::new()
            .relation("A", TypeExpr::set_of(TypeExpr::base()))
            .relation("B", TypeExpr::set_of(TypeExpr::base()))
            .build()
            .unwrap()
            .into_shared();
        let mut inst = Instance::new(schema);
        let v = OValue::set([OValue::int(1), OValue::int(2)]);
        inst.insert(RelName::new("A"), v.clone()).unwrap();
        inst.insert(RelName::new("B"), v).unwrap();
        let flat = encode(&inst).unwrap();
        // One set node, two RelFacts.
        assert_eq!(flat.relation(RelName::new("KindSet")).unwrap().len(), 1);
        assert_eq!(flat.relation(RelName::new("RelFact")).unwrap().len(), 2);
        let back = decode(&flat, inst.schema()).unwrap();
        assert_eq!(back, inst);
    }

    #[test]
    fn cyclic_nu_survives_encoding() {
        // adam/eve-style mutual reference entirely through ν.
        let schema = SchemaBuilder::new()
            .class("Cp", TypeExpr::tuple([("other", TypeExpr::class("Cp"))]))
            .build()
            .unwrap()
            .into_shared();
        let mut inst = Instance::new(schema);
        let a = inst.create_oid(ClassName::new("Cp")).unwrap();
        let b = inst.create_oid(ClassName::new("Cp")).unwrap();
        inst.define_value(a, OValue::tuple([("other", OValue::oid(b))]))
            .unwrap();
        inst.define_value(b, OValue::tuple([("other", OValue::oid(a))]))
            .unwrap();
        inst.validate().unwrap();
        let flat = encode(&inst).unwrap();
        let back = decode(&flat, inst.schema()).unwrap();
        assert!(are_o_isomorphic(&back, &inst));
    }

    #[test]
    fn generated_flattener_matches_native_encode_on_genesis() {
        use crate::eval::{run, EvalConfig};
        let (genesis, _) = genesis_instance();
        let prog = generate_flattener(genesis.schema()).unwrap();
        let input = genesis.project(&prog.input).unwrap();
        let out = run(&prog, &input, &EvalConfig::default()).unwrap();
        // The program's flat output decodes back to Genesis.
        let reprojected = out.output.project(&Arc::new(flat_schema())).unwrap();
        let back = decode(&reprojected, genesis.schema()).unwrap();
        assert!(
            are_o_isomorphic(&back, &genesis),
            "decode(run(flattener, I)) ≅ I — Prop 4.2.2's encoding, in IQL itself"
        );
    }

    #[test]
    fn generated_flattener_handles_union_types() {
        use crate::eval::{run, EvalConfig};
        // The Example-3.4.3 union schema: P : P ∨ [A1:P, A2:P].
        let schema = SchemaBuilder::new()
            .class(
                "P",
                TypeExpr::union(
                    TypeExpr::class("P"),
                    TypeExpr::tuple([("A1", TypeExpr::class("P")), ("A2", TypeExpr::class("P"))]),
                ),
            )
            .build()
            .unwrap()
            .into_shared();
        let mut inst = Instance::new(Arc::clone(&schema));
        let p = ClassName::new("P");
        let a = inst.create_oid(p).unwrap();
        let b = inst.create_oid(p).unwrap();
        inst.define_value(a, OValue::oid(b)).unwrap();
        inst.define_value(
            b,
            OValue::tuple([("A1", OValue::oid(a)), ("A2", OValue::oid(b))]),
        )
        .unwrap();
        inst.validate().unwrap();

        let prog = generate_flattener(&schema).unwrap();
        let input = inst.project(&prog.input).unwrap();
        let out = run(&prog, &input, &EvalConfig::default()).unwrap();
        let reprojected = out.output.project(&Arc::new(flat_schema())).unwrap();
        let back = decode(&reprojected, &schema).unwrap();
        assert!(are_o_isomorphic(&back, &inst));
    }

    #[test]
    fn generated_flattener_handles_nested_sets() {
        use crate::eval::{run, EvalConfig};
        let schema = SchemaBuilder::new()
            .relation("Deep", TypeExpr::set_of(TypeExpr::set_of(TypeExpr::base())))
            .build()
            .unwrap()
            .into_shared();
        let mut inst = Instance::new(Arc::clone(&schema));
        inst.insert(
            RelName::new("Deep"),
            OValue::set([
                OValue::set([OValue::int(1), OValue::int(2)]),
                OValue::empty_set(),
            ]),
        )
        .unwrap();
        let prog = generate_flattener(&schema).unwrap();
        let out = run(
            &prog,
            &inst.project(&prog.input).unwrap(),
            &EvalConfig::default(),
        )
        .unwrap();
        let back = decode(
            &out.output.project(&Arc::new(flat_schema())).unwrap(),
            &schema,
        )
        .unwrap();
        assert_eq!(back, inst);
    }

    #[test]
    fn flattener_rejects_name_collisions() {
        let schema = SchemaBuilder::new()
            .relation("RelFact", TypeExpr::base())
            .build()
            .unwrap();
        assert!(generate_flattener(&schema).is_err());
    }

    #[test]
    fn empty_instance_encodes_to_empty_tables() {
        let schema = SchemaBuilder::new()
            .relation("R", TypeExpr::base())
            .build()
            .unwrap()
            .into_shared();
        let inst = Instance::new(schema);
        let flat = encode(&inst).unwrap();
        assert_eq!(flat.fact_count(), 0);
        let back = decode(&flat, inst.schema()).unwrap();
        assert_eq!(back, inst);
    }
}
