//! Property-based tests on the core invariants: canonical o-values, type
//! normalization, subtyping soundness, engine agreement, translation
//! round-trips, and determinacy.
//!
//! Each property runs on a fixed number of seeded cases through
//! [`iql_testkit::check`]; a failure names the property, the case and its
//! seed, and rerunning the test replays it.

#![deny(deprecated)]

use iql::model::types::{ClassMap, EnumUniverse};
use iql::model::{Node, Oid, OidGen, ValueReader};
use iql::prelude::*;
use iql_testkit::{check, Rng};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::sync::Arc;

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

/// How a recursive generator branches, after proptest's
/// `prop_recursive(depth, size, branch, ..)`: at level `l`, counting down
/// from `depth`, a value is a branch node with probability
/// `min(0.9, size / (2·branch)^(depth − l + 1))` and otherwise a value of
/// level `l − 1`; level 0 is a leaf. Nesting never exceeds `depth`.
struct Recursion {
    depth: u32,
    size: f64,
    branch: f64,
}

impl Recursion {
    fn branches(&self, rng: &mut Rng, level: u32) -> bool {
        let p = self.size / (2.0 * self.branch).powi((self.depth - level + 1) as i32);
        rng.chance(p.min(0.9))
    }
}

const OVALUE_SHAPE: Recursion = Recursion {
    depth: 3,
    size: 24.0,
    branch: 4.0,
};

const TYPE_SHAPE: Recursion = Recursion {
    depth: 3,
    size: 20.0,
    branch: 3.0,
};

/// An o-value of nesting depth at most `level` over `leaf`: sets of 0–3
/// and tuples of 0–2 fields (`f0`, `f1`).
fn ovalue(rng: &mut Rng, level: u32, leaf: fn(&mut Rng) -> OValue) -> OValue {
    if level == 0 {
        return leaf(rng);
    }
    if !OVALUE_SHAPE.branches(rng, level) {
        return ovalue(rng, level - 1, leaf);
    }
    if rng.chance(0.5) {
        let n = rng.below(4);
        OValue::set(
            (0..n)
                .map(|_| ovalue(rng, level - 1, leaf))
                .collect::<Vec<_>>(),
        )
    } else {
        let n = rng.below(3);
        OValue::tuple(
            (0..n)
                .map(|i| {
                    (
                        format!("f{i}").as_str().into(),
                        ovalue(rng, level - 1, leaf),
                    )
                })
                .collect::<Vec<(AttrName, OValue)>>(),
        )
    }
}

/// Random oid-free o-values: integers `0..5` and strings `[a-c]{1,2}`.
fn pure_ovalue(rng: &mut Rng) -> OValue {
    ovalue(rng, OVALUE_SHAPE.depth, |rng| {
        if rng.chance(0.5) {
            OValue::int(rng.below(5) as i64)
        } else {
            let len = rng.range(1..3);
            let s: String = (0..len)
                .map(|_| (b'a' + rng.below(3) as u8) as char)
                .collect();
            OValue::str(&s)
        }
    })
}

/// Random o-values over integers `0..5` and the oids o0..o3.
fn ovalue_with_oids(rng: &mut Rng) -> OValue {
    ovalue(rng, OVALUE_SHAPE.depth, |rng| {
        if rng.chance(0.5) {
            OValue::int(rng.below(5) as i64)
        } else {
            OValue::oid(Oid::from_raw(rng.below(4) as u64))
        }
    })
}

/// Random type expressions over classes PropA/PropB with all constructors.
fn type_expr(rng: &mut Rng) -> TypeExpr {
    type_at(rng, TYPE_SHAPE.depth)
}

fn type_at(rng: &mut Rng, level: u32) -> TypeExpr {
    if level == 0 {
        return match rng.below(4) {
            0 => TypeExpr::Base,
            1 => TypeExpr::Empty,
            2 => TypeExpr::class("PropA"),
            _ => TypeExpr::class("PropB"),
        };
    }
    if !TYPE_SHAPE.branches(rng, level) {
        return type_at(rng, level - 1);
    }
    let choice = rng.below(4);
    let a = type_at(rng, level - 1);
    if choice == 0 {
        return TypeExpr::set_of(a);
    }
    let b = type_at(rng, level - 1);
    match choice {
        1 => TypeExpr::union(a, b),
        2 => TypeExpr::inter(a, b),
        _ => TypeExpr::tuple([("g0", a), ("g1", b)]),
    }
}

/// A set of exactly `len` distinct elements, `len` drawn from `size` — the
/// way proptest's `btree_set(element, size)` draws one.
fn btree_set<T: Ord>(
    rng: &mut Rng,
    size: Range<usize>,
    mut element: impl FnMut(&mut Rng) -> T,
) -> BTreeSet<T> {
    let len = rng.range(size);
    let mut set = BTreeSet::new();
    while set.len() < len {
        set.insert(element(rng));
    }
    set
}

/// A pair of node indices below `n`.
fn node_pair(n: usize) -> impl Fn(&mut Rng) -> (usize, usize) {
    move |rng| (rng.below(n), rng.below(n))
}

/// Fisher–Yates shuffle.
fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// Index pairs as `n{a} → n{b}` edges, self loops dropped.
fn named(pairs: impl IntoIterator<Item = (usize, usize)>) -> Vec<(String, String)> {
    pairs
        .into_iter()
        .filter(|(a, b)| a != b)
        .map(|(a, b)| (format!("n{a}"), format!("n{b}")))
        .collect()
}

/// The self-loop-free edges of a set of `size` node pairs below `nodes`,
/// drawn again until there is at least one.
fn edges(rng: &mut Rng, nodes: usize, size: Range<usize>) -> Vec<(String, String)> {
    loop {
        let edges = named(btree_set(rng, size.clone(), node_pair(nodes)));
        if !edges.is_empty() {
            return edges;
        }
    }
}

/// An input for `prog` with `edges` in `rel` (fields `src`, `dst`), plus
/// the first edge's source in `Source` when the program reads one.
fn edge_input(prog: &Program, rel: &str, edges: &[(String, String)]) -> Instance {
    let mut input = Instance::new(Arc::clone(&prog.input));
    for (s, d) in edges {
        input
            .insert(
                RelName::new(rel),
                OValue::tuple([("src", OValue::str(s)), ("dst", OValue::str(d))]),
            )
            .unwrap();
    }
    if prog.input.has_relation(RelName::new("Source")) {
        input
            .insert(
                RelName::new("Source"),
                OValue::tuple([("node", OValue::str(&edges[0].0))]),
            )
            .unwrap();
    }
    input
}

fn sample_universe() -> (Vec<Constant>, ClassMap) {
    let mut cm = ClassMap::default();
    cm.classes.insert(
        ClassName::new("PropA"),
        BTreeSet::from([Oid::from_raw(100)]),
    );
    cm.classes.insert(
        ClassName::new("PropB"),
        BTreeSet::from([Oid::from_raw(200)]),
    );
    (vec![Constant::int(0), Constant::int(1)], cm)
}

/// Values to probe type membership with.
fn probe_values(cm: &ClassMap, consts: &[Constant]) -> Vec<OValue> {
    let base: Vec<OValue> = consts
        .iter()
        .cloned()
        .map(OValue::Const)
        .chain([
            OValue::oid(Oid::from_raw(100)),
            OValue::oid(Oid::from_raw(200)),
        ])
        .collect();
    let mut out = base.clone();
    // Tuples and sets over the base values.
    for a in &base {
        for b in &base {
            out.push(OValue::tuple([("g0", a.clone()), ("g1", b.clone())]));
            out.push(OValue::set([a.clone(), b.clone()]));
        }
        out.push(OValue::set([a.clone()]));
    }
    out.push(OValue::empty_set());
    out.push(OValue::unit());
    let _ = cm;
    out
}

// ---------------------------------------------------------------------
// O-values (64 cases each)
// ---------------------------------------------------------------------

#[test]
fn pure_ovalues_convert_to_algebra_values() {
    check("pure_ovalues_convert_to_algebra_values", 64, |rng| {
        // Oid-free o-values are exactly the algebra's complex values.
        let v = pure_ovalue(rng);
        let cv = iql::algebra::from_ovalue(&v).expect("pure value converts");
        assert_eq!(iql::algebra::to_ovalue(&cv), v);
    });
}

#[test]
fn ovalue_rename_roundtrip() {
    check("ovalue_rename_roundtrip", 64, |rng| {
        // Renaming by a bijection and back is the identity.
        let v = ovalue_with_oids(rng);
        let map: BTreeMap<Oid, Oid> = (0..4)
            .map(|i| (Oid::from_raw(i), Oid::from_raw(i + 10)))
            .collect();
        let back: BTreeMap<Oid, Oid> = map.iter().map(|(a, b)| (*b, *a)).collect();
        assert_eq!(v.rename_oids(&map).rename_oids(&back), v);
    });
}

#[test]
fn ovalue_size_positive_and_oids_sound() {
    check("ovalue_size_positive_and_oids_sound", 64, |rng| {
        let v = ovalue_with_oids(rng);
        assert!(v.size() >= 1);
        let mut oids = BTreeSet::new();
        v.collect_oids(&mut oids);
        for o in &oids {
            assert!(v.mentions_oid(*o));
        }
        assert!(!v.mentions_oid(Oid::from_raw(999)));
    });
}

#[test]
fn without_oid_removes_all_traces() {
    check("without_oid_removes_all_traces", 64, |rng| {
        let v = ovalue_with_oids(rng);
        let target = Oid::from_raw(1);
        match v.without_oid(target) {
            Some(clean) => assert!(!clean.mentions_oid(target)),
            None => assert!(v.mentions_oid(target)),
        }
    });
}

// ---------------------------------------------------------------------
// Types, Proposition 2.2.1 (64 cases each)
// ---------------------------------------------------------------------

#[test]
fn intersection_free_preserves_membership() {
    check("intersection_free_preserves_membership", 64, |rng| {
        let t = type_expr(rng);
        let (consts, cm) = sample_universe();
        let free = t.intersection_free_disjoint();
        assert!(free.is_intersection_free());
        for v in probe_values(&cm, &consts) {
            assert_eq!(
                t.member(&v, &cm),
                free.member(&v, &cm),
                "value {} distinguishes {} from {}",
                v,
                t,
                free
            );
        }
    });
}

#[test]
fn intersection_reduce_preserves_membership() {
    check("intersection_reduce_preserves_membership", 64, |rng| {
        let t = type_expr(rng);
        let (consts, cm) = sample_universe();
        let reduced = t.intersection_reduce();
        assert!(reduced.is_intersection_reduced());
        for v in probe_values(&cm, &consts) {
            assert_eq!(t.member(&v, &cm), reduced.member(&v, &cm));
        }
    });
}

#[test]
fn intersection_reduce_holds_over_nondisjoint_assignments() {
    check(
        "intersection_reduce_holds_over_nondisjoint_assignments",
        64,
        |rng| {
            // Proposition 2.2.1(1) claims equivalence over ALL oid assignments,
            // disjoint or not — probe with an overlapping ClassMap.
            let t = type_expr(rng);
            let mut cm = ClassMap::default();
            let shared = Oid::from_raw(300);
            cm.classes.insert(
                ClassName::new("PropA"),
                BTreeSet::from([Oid::from_raw(100), shared]),
            );
            cm.classes.insert(
                ClassName::new("PropB"),
                BTreeSet::from([Oid::from_raw(200), shared]),
            );
            let consts = vec![Constant::int(0), Constant::int(1)];
            let reduced = t.intersection_reduce();
            let mut probes = probe_values(&cm, &consts);
            probes.push(OValue::oid(shared));
            probes.push(OValue::tuple([
                ("g0", OValue::oid(shared)),
                ("g1", OValue::int(0)),
            ]));
            probes.push(OValue::set([OValue::oid(shared)]));
            for v in probes {
                assert_eq!(
                    t.member(&v, &cm),
                    reduced.member(&v, &cm),
                    "non-disjoint assignment distinguishes {} from {} at {}",
                    t,
                    reduced,
                    v
                );
            }
        },
    );
}

#[test]
fn normalization_is_canonical() {
    check("normalization_is_canonical", 64, |rng| {
        // Normalizing twice gives the same normal form.
        let t = type_expr(rng);
        let once = t.intersection_free_disjoint();
        let twice = once.intersection_free_disjoint();
        assert!(once.equivalent_disjoint(&twice));
        assert!(t.equivalent_disjoint(&once));
    });
}

#[test]
fn subtype_is_sound() {
    check("subtype_is_sound", 64, |rng| {
        let a = type_expr(rng);
        let b = type_expr(rng);
        let (consts, cm) = sample_universe();
        if iql::lang::typecheck::subtype(&a, &b) {
            for v in probe_values(&cm, &consts) {
                if a.member(&v, &cm) {
                    assert!(
                        b.member(&v, &cm),
                        "subtype({}, {}) held but {} ∈ a \\ b",
                        a,
                        b,
                        v
                    );
                }
            }
        }
        // Union injections are always subtypes.
        let union = TypeExpr::union(a.clone(), b.clone());
        assert!(iql::lang::typecheck::subtype(&a, &union));
        assert!(iql::lang::typecheck::subtype(&b, &union));
    });
}

#[test]
fn enumeration_agrees_with_membership() {
    check("enumeration_agrees_with_membership", 64, |rng| {
        let t = type_expr(rng);
        let (consts, cm) = sample_universe();
        let u = EnumUniverse {
            constants: &consts,
            classes: &cm,
            budget: 2048,
        };
        if let Ok(values) = t.enumerate(&u) {
            for v in &values {
                assert!(t.member(v, &cm), "enumerated {} ∉ ⟦{}⟧", v, t);
            }
            // Deduplicated.
            let set: BTreeSet<_> = values.iter().collect();
            assert_eq!(set.len(), values.len());
        }
    });
}

// ---------------------------------------------------------------------
// Oid generation, algebra, Datalog, value model, isomorphism (64 cases)
// ---------------------------------------------------------------------

#[test]
fn oidgen_never_repeats() {
    check("oidgen_never_repeats", 64, |rng| {
        let reserve = rng.below(1000) as u64;
        let n = rng.range(1..50);
        let mut g = OidGen::new();
        g.reserve_above(Oid::from_raw(reserve));
        let mut seen = BTreeSet::new();
        for _ in 0..n {
            let o = g.fresh();
            assert!(o.raw() > reserve);
            assert!(seen.insert(o));
        }
    });
}

#[test]
fn nest_unnest_inverse() {
    check("nest_unnest_inverse", 64, |rng| {
        use iql::algebra::{nest, unnest, Rel, Value};
        let pairs = btree_set(rng, 1..20, node_pair(6));
        let rel: Rel = pairs
            .iter()
            .map(|(a, b)| {
                Value::tuple([("ka", Value::int(*a as i64)), ("vb", Value::int(*b as i64))])
            })
            .collect();
        let nested = nest(&rel, "vb".into());
        let back = unnest(&nested, "vb".into());
        assert_eq!(back, rel);
    });
}

#[test]
fn powerset_has_right_size() {
    check("powerset_has_right_size", 64, |rng| {
        use iql::algebra::{powerset, Rel, Value};
        let elems = btree_set(rng, 0..7, |rng| rng.below(30) as i64);
        let rel: Rel = elems.iter().map(|i| Value::int(*i)).collect();
        let ps = powerset(&rel);
        assert_eq!(ps.len(), 1usize << rel.len());
        // Every subset is a subset.
        for s in &ps {
            assert!(s.is_subset(&rel));
        }
    });
}

#[test]
fn naive_and_seminaive_agree() {
    check("naive_and_seminaive_agree", 64, |rng| {
        let edges = btree_set(rng, 1..24, node_pair(8));
        let prog = iql::datalog::parse_program(
            "Tc(x, y) :- Edge(x, y). Tc(x, z) :- Tc(x, y), Edge(y, z).",
        )
        .unwrap();
        let mut db = iql::datalog::Database::new();
        for (s, d) in &edges {
            db.insert(
                "Edge",
                vec![Constant::int(*s as i64), Constant::int(*d as i64)],
            )
            .unwrap();
        }
        let (a, _) = iql::datalog::eval(&prog, &db, iql::datalog::Strategy::Naive).unwrap();
        let (b, _) = iql::datalog::eval(&prog, &db, iql::datalog::Strategy::SemiNaive).unwrap();
        assert_eq!(&a, &b);
        // The worker pool merges in deterministic order: same database out.
        for threads in [2usize, 4, 8] {
            let (c, stats) =
                iql::datalog::eval_with(&prog, &db, iql::datalog::Strategy::SemiNaive, threads)
                    .unwrap();
            assert_eq!(&b, &c);
            assert_eq!(stats.threads, threads);
        }
    });
}

#[test]
fn psi_phi_identity_on_random_rings() {
    check("psi_phi_identity_on_random_rings", 64, |rng| {
        use iql::vtree::{phi, psi, vinstances_equal, Node, VInstance, VSchema};
        let perm: Vec<usize> = (0..rng.range(2..6)).map(|_| rng.below(6)).collect();
        let class = ClassName::new("PropRing");
        let schema = VSchema::new([(
            class,
            TypeExpr::tuple([
                ("tag", TypeExpr::base()),
                ("next", TypeExpr::set_of(TypeExpr::class("PropRing"))),
            ]),
        )])
        .unwrap();
        let n = perm.len();
        let mut vinst = VInstance::new(&schema);
        let slots: Vec<_> = (0..n).map(|_| vinst.forest.reserve()).collect();
        for (i, p) in perm.iter().enumerate() {
            let tag = vinst.forest.add_const(Constant::int((p % 3) as i64));
            let next = vinst.forest.add_set([slots[(i + 1) % n]]);
            vinst.forest.set_node(
                slots[i],
                Node::Tuple(
                    [("tag", tag), ("next", next)]
                        .map(|(a, id)| (AttrName::new(a), id))
                        .into(),
                ),
            );
            vinst.add(class, slots[i]);
        }
        vinst.validate(&schema).unwrap();
        let (obj, _) = phi(&schema, &vinst).unwrap();
        obj.validate().unwrap();
        let back = psi(&obj).unwrap();
        assert!(vinstances_equal(&back, &vinst));
    });
}

#[test]
fn renamed_instances_are_isomorphic() {
    check("renamed_instances_are_isomorphic", 64, |rng| {
        use iql::model::iso::are_o_isomorphic;
        let vals = btree_set(rng, 1..10, |rng| rng.below(20) as i64);
        let schema = SchemaBuilder::new()
            .class("PropP", TypeExpr::set_of(TypeExpr::base()))
            .build()
            .unwrap()
            .into_shared();
        let mut inst = Instance::new(Arc::clone(&schema));
        let p = ClassName::new("PropP");
        for chunk in vals.iter().collect::<Vec<_>>().chunks(3) {
            let o = inst.create_oid(p).unwrap();
            for v in chunk {
                inst.add_set_member(o, OValue::int(**v)).unwrap();
            }
        }
        let objects: Vec<Oid> = inst.objects().into_iter().collect();
        let map: BTreeMap<Oid, Oid> = objects
            .iter()
            .enumerate()
            .map(|(i, o)| (*o, Oid::from_raw(500 + i as u64)))
            .collect();
        let renamed = inst.rename_oids(&map).unwrap();
        assert!(are_o_isomorphic(&inst, &renamed));
    });
}

// ---------------------------------------------------------------------
// Semi-naive IQL evaluation agrees with naive (16 cases)
// ---------------------------------------------------------------------

#[test]
fn seminaive_agrees_with_naive_iql() {
    check("seminaive_agrees_with_naive_iql", 16, |rng| {
        // The delta-driven evaluator must be observationally identical to
        // the paper's naive evaluator — on plain Datalog, on negation, and
        // on the invention-heavy graph transformation.
        use iql::lang::programs::{
            graph_to_class_program, transitive_closure_program, unreachable_program,
        };
        use iql::model::iso::are_o_isomorphic;
        let edges = edges(rng, 7, 1..20);
        let naive = EvalConfig::builder().seminaive(false).build();
        let semi = EvalConfig::default();
        for (prog, rel) in [
            (transitive_closure_program(), "Edge"),
            (unreachable_program(), "Edge"),
            (graph_to_class_program(), "R"),
        ] {
            let input = edge_input(&prog, rel, &edges);
            let a = run(&prog, &input, &naive).unwrap();
            let b = run(&prog, &input, &semi).unwrap();
            assert!(
                are_o_isomorphic(&a.output, &b.output),
                "naive and semi-naive disagree"
            );
        }
    });
}

// ---------------------------------------------------------------------
// Determinacy as a property (slower: 8 cases)
// ---------------------------------------------------------------------

#[test]
fn graph_transform_is_determinate() {
    check("graph_transform_is_determinate", 8, |rng| {
        use iql::lang::programs::graph_to_class_program;
        use iql::model::iso::are_o_isomorphic;
        let (edges, shuffled) = loop {
            let pairs: Vec<(usize, usize)> =
                btree_set(rng, 1..16, node_pair(8)).into_iter().collect();
            let mut shuffled = pairs.clone();
            shuffle(rng, &mut shuffled);
            let (edges, shuffled) = (named(pairs), named(shuffled));
            if !edges.is_empty() {
                break (edges, shuffled);
            }
        };
        let prog = graph_to_class_program();
        let build = |order: &[(String, String)]| edge_input(&prog, "R", order);
        let mut rev = edges.clone();
        rev.reverse();
        let o1 = run(&prog, &build(&edges), &EvalConfig::default()).unwrap();
        let o2 = run(&prog, &build(&rev), &EvalConfig::default()).unwrap();
        assert!(are_o_isomorphic(&o1.output, &o2.output));
        // Insertion-order independence, oid numbers included: a run keeps
        // its input's value-id numbering, which follows insertion order, so
        // the canonical fire order must hide it completely.
        let o3 = run(&prog, &build(&shuffled), &EvalConfig::default()).unwrap();
        assert_eq!(&o1.output, &o2.output);
        assert_eq!(&o1.output, &o3.output);
        assert_eq!(&o1.full, &o3.full);
    });
}

// ---------------------------------------------------------------------
// Parallel evaluation is bit-identical to sequential (12 cases)
// ---------------------------------------------------------------------

#[test]
fn parallel_eval_is_bit_identical() {
    check("parallel_eval_is_bit_identical", 12, |rng| {
        // Not just isomorphic: the deterministic merge must reproduce the
        // *same* instance as sequential evaluation — same invented-oid
        // numbers, same facts, same report counters — on invention-heavy
        // programs. This is the correctness contract of the worker pool.
        use iql::lang::programs::{
            graph_to_class_program, parallel_join_program, transitive_closure_program,
            unreachable_program,
        };
        use iql::model::iso::are_o_isomorphic;
        let edges = edges(rng, 8, 1..20);
        for (prog, rel) in [
            (graph_to_class_program(), "R"),
            (parallel_join_program(), "Edge"),
            (transitive_closure_program(), "Edge"),
            (unreachable_program(), "Edge"),
        ] {
            let input = edge_input(&prog, rel, &edges);
            let sequential = run(&prog, &input, &EvalConfig::default()).unwrap();
            for (seminaive, threads) in [(true, 2usize), (true, 4), (true, 8), (false, 4)] {
                let cfg = EvalConfig::builder()
                    .threads(threads)
                    .seminaive(seminaive)
                    .build();
                let par = run(&prog, &input, &cfg).unwrap();
                if seminaive {
                    // Same strategy, more workers: everything matches,
                    // including the full fixpoint and the counters.
                    assert_eq!(
                        sequential.full.ground_facts(),
                        par.full.ground_facts(),
                        "full instance drift in {} at {} threads",
                        prog,
                        threads
                    );
                    assert_eq!(
                        sequential.report.counters(),
                        par.report.counters(),
                        "report drift in {} at {} threads",
                        prog,
                        threads
                    );
                } else {
                    // Different strategy: oids may be numbered differently,
                    // but outputs still agree up to isomorphism.
                    assert!(
                        are_o_isomorphic(&sequential.output, &par.output),
                        "naive-parallel disagrees in {} at {} threads",
                        prog,
                        threads
                    );
                }
            }
        }
    });
}

// ---------------------------------------------------------------------
// Cost-based planning is a pure optimization (12 cases)
// ---------------------------------------------------------------------

#[test]
fn planner_and_indexes_are_pure_optimizations() {
    check("planner_and_indexes_are_pure_optimizations", 12, |rng| {
        // Every cell of the planner×seminaive on/off matrix must produce
        // the bit-identical EvalOutput — same output facts, same full
        // fixpoint, same semantic counters. Plan order and delta-driven
        // evaluation may only change *how* the valuations are found, never
        // *which*.
        use iql::lang::programs::{
            graph_to_class_program, parallel_join_program, skewed_join_program,
            transitive_closure_program, unreachable_program,
        };
        let edges = edges(rng, 8, 1..20);
        let mut inputs: Vec<(Program, Instance)> = Vec::new();
        for (prog, rel) in [
            (graph_to_class_program(), "R"),
            (parallel_join_program(), "Edge"),
            (transitive_closure_program(), "Edge"),
            (unreachable_program(), "Edge"),
        ] {
            let input = edge_input(&prog, rel, &edges);
            inputs.push((prog, input));
        }
        // The skewed three-way join: reuse the edges as (Big, Mid, Tiny).
        {
            let prog = skewed_join_program();
            let mut input = Instance::new(Arc::clone(&prog.input));
            for (i, (s, d)) in edges.iter().enumerate() {
                for (rel, a1, a2) in [("Big", "k", "v"), ("Mid", "k", "w"), ("Tiny", "w", "t")] {
                    if rel != "Tiny" || i % 3 == 0 {
                        input
                            .insert(
                                RelName::new(rel),
                                OValue::tuple([(a1, OValue::str(s)), (a2, OValue::str(d))]),
                            )
                            .unwrap();
                    }
                }
            }
            inputs.push((prog, input));
        }
        for (prog, input) in &inputs {
            let base = run(prog, input, &EvalConfig::default()).unwrap();
            for planner in [true, false] {
                for seminaive in [true, false] {
                    let cfg = EvalConfig::builder()
                        .planner(planner)
                        .seminaive(seminaive)
                        .build();
                    let arm = run(prog, input, &cfg).unwrap();
                    assert_eq!(
                        base.output.ground_facts(),
                        arm.output.ground_facts(),
                        "output drift in {} at planner={} seminaive={}",
                        prog,
                        planner,
                        seminaive
                    );
                    assert_eq!(
                        base.full.ground_facts(),
                        arm.full.ground_facts(),
                        "full-instance drift in {} at planner={} seminaive={}",
                        prog,
                        planner,
                        seminaive
                    );
                    assert_eq!(
                        base.report.counters(),
                        arm.report.counters(),
                        "counter drift in {} at planner={} seminaive={}",
                        prog,
                        planner,
                        seminaive
                    );
                }
            }
        }
    });
}

// ---------------------------------------------------------------------
// Hash-consed value store: intern/resolve round-trip and injectivity
// (64 cases each)
// ---------------------------------------------------------------------

/// `resolve(intern(v)) == v` for arbitrary o-values, including ones
/// that mention oids. The arena is a lossless mirror of the tree.
#[test]
fn intern_resolve_roundtrip() {
    check("intern_resolve_roundtrip", 64, |rng| {
        use iql::model::{ValueInterner, ValueReader, ValueStore};
        let v = ovalue_with_oids(rng);
        let mut store = ValueStore::new();
        let id = store.intern(&v);
        assert_eq!(store.resolve(id), v.clone());
        // Interning is idempotent: the same tree maps to the same id.
        assert_eq!(store.intern(&v), id);
    });
}

/// Interning is injective on canonical forms: two values get the same
/// id exactly when they are equal as o-values. This is the O(1)
/// equality contract every downstream layer relies on.
#[test]
fn intern_is_injective() {
    check("intern_is_injective", 64, |rng| {
        use iql::model::{ValueInterner, ValueStore};
        let a = ovalue_with_oids(rng);
        let b = ovalue_with_oids(rng);
        let mut store = ValueStore::new();
        let ia = store.intern(&a);
        let ib = store.intern(&b);
        assert_eq!(ia == ib, a == b, "id equality must mirror value equality");
    });
}

/// Pure (oid-free) values have an empty cached oid set; values built
/// around a known oid report it. The metadata drives `objects(I)` and
/// the isomorphism refinement, so it must be exact.
#[test]
fn cached_oid_metadata_is_exact() {
    check("cached_oid_metadata_is_exact", 64, |rng| {
        use iql::model::{ValueInterner, ValueReader, ValueStore};
        let v = ovalue_with_oids(rng);
        let mut store = ValueStore::new();
        let id = store.intern(&v);
        let mut expected = BTreeSet::new();
        v.collect_oids(&mut expected);
        let cached: BTreeSet<Oid> = store.oids(id).iter().copied().collect();
        assert_eq!(cached, expected);
    });
}

/// `cmp_resolved` orders interned values exactly as their trees order
/// (`OValue`'s derived `Ord`), read through a store, a fork of it and an
/// overlay over the fork. Sets of sets and tuples holding sets are built
/// from elements interned in random order, so a set's id order and its
/// tree order differ, and comparing them fills the cached tree order of
/// set nodes in every layer.
#[test]
fn cmp_resolved_matches_tree_order() {
    check("cmp_resolved_matches_tree_order", 64, |rng| {
        use iql::model::{Overlay, ValueId, ValueInterner, ValueReader, ValueStore};
        let mut values: Vec<OValue> = (0..4).map(|_| ovalue_with_oids(rng)).collect();
        let nested = OValue::set(values.iter().take(rng.range(1..4)).cloned());
        values.push(OValue::set([nested.clone(), values[3].clone()]));
        values.push(OValue::tuple([("s", nested), ("t", values[0].clone())]));
        shuffle(rng, &mut values);
        let mut store = ValueStore::new();
        let mut ids: Vec<ValueId> = values[..2].iter().map(|v| store.intern(v)).collect();
        let mut fork = store.fork();
        ids.extend(values[2..4].iter().map(|v| fork.intern(v)));
        let mut overlay = Overlay::new(&fork);
        ids.extend(values[4..].iter().map(|v| overlay.intern(v)));
        for (i, (&a, va)) in ids.iter().zip(&values).enumerate() {
            for (j, (&b, vb)) in ids.iter().zip(&values).enumerate() {
                let want = va.cmp(vb);
                assert_eq!(overlay.cmp_resolved(a, b), want, "{va} vs {vb}");
                if i.max(j) < 4 {
                    assert_eq!(fork.cmp_resolved(a, b), want, "fork: {va} vs {vb}");
                }
                if i.max(j) < 2 {
                    assert_eq!(store.cmp_resolved(a, b), want, "store: {va} vs {vb}");
                }
            }
        }
    });
}

// ---------------------------------------------------------------------
// Resource governor: tight budgets never panic, abort deterministically
// (12 cases each)
// ---------------------------------------------------------------------

/// Random inputs under a random tight governor: the run never panics,
/// always returns, aborts only for a budget that was actually set, and
/// the partial result is (a) identical at every thread count and
/// (b) a subset of the un-governed fixpoint — i.e. a consistent
/// prefix of the run it interrupted.
#[test]
fn tight_governor_aborts_cleanly_and_deterministically() {
    check(
        "tight_governor_aborts_cleanly_and_deterministically",
        12,
        |rng| {
            use iql::lang::eval::run_governed;
            use iql::lang::programs::{graph_to_class_program, transitive_closure_program};
            use iql::prelude::{AbortReason, RunOutcome};
            let edges = edges(rng, 8, 1..16);
            let max_steps = rng.range(1..12);
            let max_facts = rng.range(4..40);
            let max_oids = rng.range(1..24);
            let gfacts = |inst: &Instance| {
                let mut v: Vec<String> =
                    inst.ground_facts().iter().map(|f| f.to_string()).collect();
                v.sort();
                v
            };
            for (prog, rel) in [
                (graph_to_class_program(), "R"),
                (transitive_closure_program(), "Edge"),
            ] {
                let input = edge_input(&prog, rel, &edges);
                let full = run(&prog, &input, &EvalConfig::default()).unwrap();
                let full_facts = gfacts(&full.full);
                let mut results: Vec<(Option<AbortReason>, Vec<String>)> = Vec::new();
                for threads in [1usize, 4] {
                    let cfg = EvalConfig::builder()
                        .threads(threads)
                        .max_steps(max_steps)
                        .max_facts(max_facts)
                        .max_oids(max_oids)
                        .build();
                    // Never an Err, never a panic — a trip degrades gracefully.
                    let outcome = run_governed(&prog, &input, &cfg).unwrap();
                    results.push(match outcome {
                        RunOutcome::Complete(out) => (None, gfacts(&out.full)),
                        RunOutcome::Aborted(a) => {
                            assert!(
                                matches!(
                                    a.reason,
                                    AbortReason::StepLimit { .. }
                                        | AbortReason::FactBudget { .. }
                                        | AbortReason::OidBudget { .. }
                                ),
                                "aborted for a budget that was never set: {:?}",
                                a.reason
                            );
                            // `max_steps` limits each stage; `at_step` counts
                            // steps across stages, so a later stage can trip
                            // with a larger cumulative count.
                            assert!(
                                a.at_step <= max_steps * prog.stages.len(),
                                "at_step {} vs per-stage limit {} over {} stages",
                                a.at_step,
                                max_steps,
                                prog.stages.len()
                            );
                            (Some(a.reason), gfacts(&a.partial.full))
                        }
                    });
                }
                let (reason1, partial1) = &results[0];
                let (reason4, partial4) = &results[1];
                assert_eq!(reason1, reason4, "trip reason depends on thread count");
                assert_eq!(partial1, partial4, "partial result depends on thread count");
                for fact in partial1 {
                    assert!(
                        full_facts.contains(fact),
                        "partial fact {} is not in the un-governed fixpoint",
                        fact
                    );
                }
            }
        },
    );
}

/// A random (tiny) deadline on an invention-heavy program: never a
/// panic, never an `Err`, and a deadline trip reports an elapsed time
/// in the same order of magnitude as the deadline itself.
#[test]
fn random_deadlines_degrade_gracefully() {
    check("random_deadlines_degrade_gracefully", 12, |rng| {
        use iql::lang::eval::run_governed;
        use iql::lang::programs::graph_to_class_program;
        use iql::prelude::{AbortReason, RunOutcome};
        use std::time::Duration;
        // Self loops stay in: this property never filtered them.
        let edges: Vec<(String, String)> = btree_set(rng, 4..24, node_pair(10))
            .into_iter()
            .map(|(s, d)| (format!("n{s}"), format!("n{d}")))
            .collect();
        let deadline_ms = rng.range(1..20) as u64;
        let prog = graph_to_class_program();
        let input = edge_input(&prog, "R", &edges);
        let cfg = EvalConfig::builder()
            .threads(4)
            .deadline(Duration::from_millis(deadline_ms))
            .build();
        match run_governed(&prog, &input, &cfg).unwrap() {
            RunOutcome::Complete(_) => {} // beat the clock — fine
            RunOutcome::Aborted(a) => {
                assert_eq!(a.reason, AbortReason::Deadline);
                assert!(
                    a.elapsed < Duration::from_millis(2 * deadline_ms + 100),
                    "deadline of {}ms only tripped after {:?}",
                    deadline_ms,
                    a.elapsed
                );
            }
        }
    });
}

/// Regression for the paper's Section 2 Genesis instance: ν(adam) and
/// ν(eve) mention each other's oids (spouse fields), so the *instance* is
/// cyclic even though every interned value is a finite DAG — oid leaves
/// cut the cycle. Interning each ν-value must round-trip and stay stable.
#[test]
fn cyclic_nu_values_intern_losslessly() {
    use iql::model::instance::genesis_instance;
    use iql::model::{ValueInterner, ValueReader, ValueStore};
    let (inst, _oids) = genesis_instance();
    let mut fresh = ValueStore::new();
    for o in inst.objects() {
        let Some(vid) = inst.value_id(o) else {
            continue;
        };
        let v = inst.store().resolve(vid);
        assert_eq!(
            inst.value(o),
            Some(&v),
            "tree view of ν drifted from its ids"
        );
        let re = fresh.intern(&v);
        assert_eq!(fresh.resolve(re), v, "round-trip through a fresh store");
        assert_eq!(fresh.intern(&v), re, "re-interning is stable");
    }
}

// ---------------------------------------------------------------------
// Rule order within a stage is unobservable (8 cases)
// ---------------------------------------------------------------------

/// Every terminating example program, and a stage that fills a set-valued
/// object while another rule of it reads the object's value.
const RULE_ORDER_UNITS: [&str; 7] = [
    include_str!("../examples/iql/deletions.iql"),
    include_str!("../examples/iql/genesis.iql"),
    include_str!("../examples/iql/graph.iql"),
    include_str!("../examples/iql/powerset.iql"),
    include_str!("../examples/iql/tc.iql"),
    include_str!("../examples/iql/university.iql"),
    r#"
    schema {
      relation A: [v: D];
      relation Has: [c: C];
      relation Out: [s: {D}];
      class C: {D};
    }
    program {
      input A;
      output Out;
      stage { Has(c) :- A("k"); }
      stage {
        c^(x) :- Has(c), A(x);
        Out(c^) :- Has(c);
      }
    }
    instance { A("k"); A("m"); }
    "#,
];

#[test]
fn rule_order_within_a_stage_is_unobservable() {
    use iql::model::iso::are_o_isomorphic;
    let units: Vec<(Program, Instance)> = RULE_ORDER_UNITS
        .iter()
        .map(|src| {
            let unit = parse_unit(src).unwrap();
            let prog = unit.program.unwrap();
            let input = unit
                .instance
                .unwrap_or_else(|| Instance::new(Arc::clone(&prog.input)));
            (prog, input)
        })
        .collect();
    check("rule_order_within_a_stage_is_unobservable", 8, |rng| {
        for (prog, input) in &units {
            // `perms[s][j]` is the original index of the rule listed j-th
            // in stage `s` of the permuted program.
            let perms: Vec<Vec<usize>> = prog
                .stages
                .iter()
                .map(|stage| {
                    let mut perm: Vec<usize> = (0..stage.rules.len()).collect();
                    shuffle(rng, &mut perm);
                    perm
                })
                .collect();
            let mut permuted = prog.clone();
            for (stage, perm) in permuted.stages.iter_mut().zip(&perms) {
                stage.rules = perm.iter().map(|&i| stage.rules[i].clone()).collect();
            }
            for threads in [1, 4] {
                let cfg = EvalConfig::builder().threads(threads).build();
                let a = run(prog, input, &cfg).unwrap();
                let b = run(&permuted, input, &cfg).unwrap();
                let label = format!("{perms:?} at {threads} threads in\n{prog}");
                assert!(are_o_isomorphic(&a.output, &b.output), "output: {label}");
                assert!(are_o_isomorphic(&a.full, &b.full), "full: {label}");
                let (ra, rb) = (&a.report, &b.report);
                assert_eq!(
                    (ra.steps, ra.invented, ra.facts_added),
                    (rb.steps, rb.invented, rb.facts_added),
                    "{label}"
                );
                assert_eq!(
                    (ra.facts_deleted, ra.enum_fallbacks),
                    (rb.facts_deleted, rb.enum_fallbacks),
                    "{label}"
                );
                let fires: BTreeMap<(usize, usize), usize> = rb
                    .rule_fires
                    .iter()
                    .map(|(&(s, j), &n)| ((s, perms[s][j]), n))
                    .collect();
                assert_eq!(ra.rule_fires, fires, "{label}");
            }
        }
    });
}

// ---------------------------------------------------------------------
// IQL relations on the shared row store
// ---------------------------------------------------------------------

/// Every built column index of `inst` lists, under each key, exactly the
/// facts whose field holds that key, in scan order, and nothing else: the
/// index equals one rebuilt from scratch over the facts. A fact that lacks
/// the attribute is in no posting list.
fn assert_indexes_match_facts(inst: &Instance, what: &str) {
    for r in inst.schema().relations() {
        let rows = inst.relation_rows(r).unwrap();
        for attr in ["a", "b"].map(AttrName::new) {
            let Some(built) = inst.rel_index(r, attr) else {
                continue;
            };
            let mut want: BTreeMap<_, Vec<_>> = BTreeMap::new();
            for fid in inst.relation_ids(r).unwrap() {
                if let Node::Tuple(fields) = inst.store().node(fid) {
                    if let Some(&(_, key)) = fields.iter().find(|(a, _)| *a == attr) {
                        want.entry(key).or_default().push(fid);
                    }
                }
            }
            assert_eq!(built.distinct(), want.len(), "{what}: ({r}, {attr}) keys");
            for (key, fids) in want {
                let got: Vec<_> = rows
                    .positions(rows.all(), Some((built, key)))
                    .map(|pos| rows.tuple_at(pos)[0])
                    .collect();
                assert_eq!(got, fids, "{what}: ({r}, {attr}) postings");
            }
        }
    }
}

/// Membership, `relation()` and `relation_ids` all agree with `model`.
fn assert_relations_match(
    inst: &Instance,
    model: &BTreeMap<RelName, BTreeSet<OValue>>,
    what: &str,
) {
    let view = inst.id_view();
    for (&r, want) in model {
        assert_eq!(inst.relation(r).unwrap(), want, "{what}: relation({r})");
        let ids: Vec<_> = inst.relation_ids(r).unwrap().collect();
        let resolved: BTreeSet<OValue> = ids.iter().map(|&id| inst.store().resolve(id)).collect();
        assert_eq!(ids.len(), want.len(), "{what}: {r} holds a duplicate");
        assert_eq!(&resolved, want, "{what}: relation_ids({r})");
        for id in ids {
            assert_eq!(view.holds(r, id), Ok(true), "{what}: {r} membership");
        }
    }
}

#[test]
fn instance_relations_match_a_set_model() {
    let schema = SchemaBuilder::new()
        .relation(
            "R",
            TypeExpr::tuple([("a", TypeExpr::base()), ("b", TypeExpr::base())]),
        )
        .relation(
            "U",
            TypeExpr::union(
                TypeExpr::tuple([("a", TypeExpr::base())]),
                TypeExpr::tuple([("b", TypeExpr::base())]),
            ),
        )
        .build()
        .unwrap()
        .into_shared();
    let rels = [RelName::new("R"), RelName::new("U")];
    let int = |rng: &mut Rng| OValue::int(rng.below(4) as i64);
    // A value for `r`: well-typed, or an ill-typed one that lacks an
    // attribute, carries one too many, or is no tuple at all.
    let value = |rng: &mut Rng, r: RelName, typed: bool| match (r.as_str(), typed) {
        ("R", true) => OValue::tuple([("a", int(rng)), ("b", int(rng))]),
        ("R", false) if rng.chance(0.5) => OValue::tuple([("a", int(rng))]),
        ("R", false) => int(rng),
        (_, true) if rng.chance(0.5) => OValue::tuple([("a", int(rng))]),
        (_, true) => OValue::tuple([("b", int(rng))]),
        (_, false) => OValue::tuple([("a", int(rng)), ("b", int(rng))]),
    };
    check("instance_relations_match_a_set_model", 48, |rng| {
        let mut inst = Instance::new(Arc::clone(&schema));
        let mut model: BTreeMap<RelName, BTreeSet<OValue>> =
            rels.iter().map(|&r| (r, BTreeSet::new())).collect();
        // Forks taken so far: each parent with the model it must keep.
        let mut parents: Vec<(Instance, BTreeMap<RelName, BTreeSet<OValue>>)> = Vec::new();
        for step in 0..40 {
            let r = rels[rng.below(2)];
            let what = match rng.below(10) {
                0..=3 => {
                    let v = value(rng, r, true);
                    let fresh = model.get_mut(&r).unwrap().insert(v.clone());
                    assert_eq!(inst.insert(r, v).unwrap(), fresh);
                    "insert"
                }
                4 => {
                    let typed = rng.chance(0.3);
                    let v = value(rng, r, typed);
                    let fresh = model.get_mut(&r).unwrap().insert(v.clone());
                    assert_eq!(inst.insert_unchecked(r, v).unwrap(), fresh);
                    "insert_unchecked"
                }
                5 | 6 => {
                    let typed = rng.chance(0.8);
                    let v = value(rng, r, typed);
                    let present = model.get_mut(&r).unwrap().remove(&v);
                    assert_eq!(inst.remove(r, &v).unwrap(), present);
                    "remove"
                }
                7 => {
                    let child = inst.fork(&schema).unwrap();
                    parents.push((std::mem::replace(&mut inst, child), model.clone()));
                    if parents.len() > 3 {
                        parents.remove(0);
                    }
                    "fork"
                }
                _ => {
                    let attr = AttrName::new(["a", "b", "c"][rng.below(3)]);
                    inst.ensure_rel_index(r, attr);
                    "ensure_rel_index"
                }
            };
            let what = format!("step {step} ({what} on {r})");
            assert_relations_match(&inst, &model, &what);
            assert_indexes_match_facts(&inst, &what);
            let typed = model.iter().all(|(&r, vs)| {
                vs.iter()
                    .all(|v| schema.relation_type(r).unwrap().member(v, &inst))
            });
            assert_eq!(inst.validate().is_ok(), typed, "{what}: validate");
            for (parent, kept) in &parents {
                assert_relations_match(parent, kept, &format!("{what}, parent"));
                assert_indexes_match_facts(parent, &format!("{what}, parent"));
            }
        }
    });
}

/// `Instance::validate` remembers a pass until the next write to ρ, π or
/// ν. After every step of a random sequence of writes, some well typed
/// and some not, the memoized answer equals a fresh validation of a copy
/// rebuilt from the instance's ground facts, which starts with no memo.
#[test]
fn validate_memo_matches_a_fresh_check() {
    let schema = Arc::new(
        parse_unit(
            "schema {
               class P: [name: D];
               class S: {P};
               relation R: [a: D, b: P];
             }",
        )
        .unwrap()
        .schema,
    );
    let (r, p, s) = (RelName::new("R"), ClassName::new("P"), ClassName::new("S"));
    check("validate_memo_matches_a_fresh_check", 32, |rng| {
        let mut inst = Instance::new(Arc::clone(&schema));
        let mut oids: Vec<Oid> = Vec::new();
        for step in 0..40 {
            // An oid of P, or now and then one no class holds.
            let oid = |rng: &mut Rng| match oids.len() {
                n if n > 0 && rng.chance(0.9) => oids[rng.below(n)],
                _ => Oid::from_raw(1000 + rng.below(3) as u64),
            };
            let what = match rng.below(8) {
                0 => {
                    let v = OValue::tuple([
                        ("a", OValue::int(rng.below(3) as i64)),
                        ("b", OValue::oid(oid(rng))),
                    ]);
                    let _ = inst.insert(r, v);
                    "insert"
                }
                1 => {
                    let v = OValue::tuple([
                        ("a", OValue::oid(oid(rng))),
                        ("b", OValue::int(rng.below(3) as i64)),
                    ]);
                    inst.insert_unchecked(r, v).unwrap();
                    "ill-typed insert_unchecked"
                }
                2 => {
                    let facts: Vec<OValue> = inst.relation(r).unwrap().iter().cloned().collect();
                    if let Some(v) = facts.get(rng.below(facts.len() + 1)) {
                        inst.remove(r, v).unwrap();
                    }
                    "remove"
                }
                3 => {
                    let class = if rng.chance(0.7) { p } else { s };
                    let o = inst.create_oid(class).unwrap();
                    if class == p {
                        oids.push(o);
                    }
                    "create_oid"
                }
                4 => {
                    let target = oid(rng);
                    let v = if rng.chance(0.7) {
                        OValue::tuple([("name", OValue::str("x"))])
                    } else {
                        OValue::tuple([("name", OValue::oid(oid(rng)))])
                    };
                    let _ = inst.define_value(target, v);
                    "define_value"
                }
                5 => {
                    let sets: Vec<Oid> = inst.class(s).unwrap().iter().copied().collect();
                    if let Some(&o) = sets.get(rng.below(sets.len() + 1)) {
                        inst.add_set_member(o, OValue::oid(oid(rng))).unwrap();
                    }
                    "add_set_member"
                }
                6 => {
                    let target = oid(rng);
                    inst.delete_oid(target).unwrap();
                    oids.retain(|&o| o != target);
                    "delete_oid"
                }
                _ => {
                    inst = if rng.chance(0.5) {
                        inst.fork(&schema).unwrap()
                    } else {
                        inst.clone()
                    };
                    "fork or clone"
                }
            };
            let fresh = Instance::from_ground_facts(Arc::clone(&schema), inst.ground_facts())
                .unwrap()
                .validate()
                .is_ok();
            for _ in 0..2 {
                assert_eq!(
                    inst.validate().is_ok(),
                    fresh,
                    "step {step} ({what}): memoized validate against a fresh copy"
                );
            }
        }
    });
}
