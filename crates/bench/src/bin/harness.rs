//! The experiment harness: regenerates every example, figure, and
//! complexity theorem of the paper as a printed table or artifact.
//!
//! ```text
//! cargo run -p iql-bench --bin harness --release            # all experiments
//! cargo run -p iql-bench --bin harness --release -- e4 e10  # a subset
//! ```
//!
//! Experiment ids follow `DESIGN.md` §4 / `EXPERIMENTS.md`. Every
//! experiment asserts its shape and panics on a mismatch, so a clean run
//! is the check.

use iql_bench::*;
use iql_core::eval::run;
use iql_core::programs::*;
use iql_core::sublang::{classify, SubLanguage};
use iql_core::Program;
use iql_model::instance::genesis_instance;
use iql_model::iso::are_o_isomorphic;
use iql_model::{
    ClassName, Instance, OValue, RelName, TypeExpr, ValueId, ValueInterner, ValueStore,
};
use iql_testkit::{random_digraph, Rng};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hint::black_box;
use std::sync::Arc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = [
        "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
        "e16", "e17", "e18", "e19",
    ];
    let selected: Vec<&str> = if args.is_empty() {
        all.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    for exp in selected {
        match exp {
            "e1" => e1_genesis(),
            "e2" => e2_graph_transform(),
            "e3" => e3_nest_unnest(),
            "e4" => e4_powerset(),
            "e5" => e5_union_types(),
            "e6" => e6_determinacy(),
            "e7" | "e8" => e7_quadrangle_choose(),
            "e9" => e9_deletions(),
            "e10" => e10_ptime_shape(),
            "e11" => e11_datalog_baseline(),
            "e12" => e12_inheritance(),
            "e13" => e13_value_model(),
            "e14" => e14_type_normalization(),
            "e15" => e15_iqlv(),
            "e16" => e16_flattener(),
            "e17" => e17_parallel_ablation(),
            "e18" => e18_planner_ablation(),
            "e19" => e19_value_representation(),
            other => eprintln!("unknown experiment {other}"),
        }
    }
}

// ---------------------------------------------------------------------
// E1 — Example 1.1: the Genesis schema and instance
// ---------------------------------------------------------------------

fn e1_genesis() {
    println!("\n== E1: Example 1.1 — Genesis schema & instance ==");
    let (inst, oids) = genesis_instance();
    inst.validate()
        .expect("Genesis instance validates (Def 2.3.2)");
    println!("{}", inst.schema());
    println!("{inst}");
    let [_, _, _, _, _, other] = oids;
    println!(
        "ν(other) undefined: {} (incomplete information, Remark 2.3.3)",
        inst.value(other).is_none()
    );
    println!("ground facts: {}", inst.fact_count());
    println!(
        "paper check: 6 class facts, 5 relation facts, 5 value facts → 16 total: {}",
        if inst.fact_count() == 16 {
            "OK"
        } else {
            "MISMATCH"
        }
    );
}

// ---------------------------------------------------------------------
// E2 — Example 1.2: graph relation → cyclic class representation
// ---------------------------------------------------------------------

fn e2_graph_transform() {
    println!("\n== E2: Example 1.2 — acyclic→cyclic representation (scaling) ==");
    let cfg = bench_config();
    let enc = graph_to_class_program();
    let dec = class_to_graph_program();
    println!(
        "classification: encode = {}, decode = {}",
        classify(&enc),
        classify(&dec)
    );
    let mut rows = Vec::new();
    for n in [10usize, 30, 100, 300] {
        let edges = random_digraph(n, 2 * n, 7);
        let input = edge_instance(&enc, "R", ("src", "dst"), &edges);
        let (out, t_enc) = timed_run(&enc, &input, &cfg);
        let nodes = out.output.class(ClassName::new("P")).unwrap().len();
        // Round-trip back to edges.
        let back_in = out.output.project(&dec.input).unwrap();
        let (flat, t_dec) = timed_run(&dec, &back_in, &cfg);
        let edges_back = flat.output.relation(RelName::new("Out")).unwrap().len();
        assert_eq!(edges_back, edges.len(), "lossless roundtrip");
        rows.push(Row {
            n,
            cells: vec![
                ("encode".into(), t_enc.as_secs_f64(), Some(nodes)),
                ("decode".into(), t_dec.as_secs_f64(), Some(edges_back)),
                ("invented".into(), 0.0, Some(out.report.invented)),
            ],
        });
    }
    print_table(
        "graph transform (n nodes, 2n edges); counts = P-oids / edges-back / invented",
        &rows,
    );
    println!("shape check: invented oids = 2·nodes (one P + one P' per node): OK by construction");
}

// ---------------------------------------------------------------------
// E3 — Example 3.4.1: nest/unnest, IQL vs complex-object algebra
// ---------------------------------------------------------------------

fn e3_nest_unnest() {
    println!("\n== E3: Example 3.4.1 — nest/unnest: IQL (invented oids) vs algebra ==");
    let cfg = bench_config();
    let nest_p = nest_program();
    let unnest_p = unnest_program();
    let mut rows = Vec::new();
    for n in [10usize, 30, 100, 300] {
        let pairs = grouped_pairs(n, 8);
        let input = edge_instance(&nest_p, "R2", ("a", "b"), &pairs);
        let (nested, t_iql) = timed_run(&nest_p, &input, &cfg);
        let groups = nested.output.relation(RelName::new("R3")).unwrap().len();

        // Algebra baseline.
        let rel: iql_algebra::Rel = pairs
            .iter()
            .map(|(a, b)| {
                iql_algebra::Value::tuple([
                    ("a", iql_algebra::Value::str(a)),
                    ("b", iql_algebra::Value::str(b)),
                ])
            })
            .collect();
        let (alg_nested, t_alg) = timed(|| iql_algebra::nest(&rel, "b".into()));
        assert_eq!(alg_nested.len(), groups, "IQL and algebra agree");

        // Unnest both ways back.
        let mut back_in = Instance::new(Arc::clone(&unnest_p.input));
        for v in nested.output.relation(RelName::new("R3")).unwrap() {
            back_in
                .insert_unchecked(RelName::new("R1"), v.clone())
                .unwrap();
        }
        let (_flat, t_unnest) = timed_run(&unnest_p, &back_in, &cfg);
        let (_alg_flat, t_alg_unnest) = timed(|| iql_algebra::unnest(&alg_nested, "b".into()));

        rows.push(Row {
            n: n * 8,
            cells: vec![
                ("iql-nest".into(), t_iql.as_secs_f64(), Some(groups)),
                (
                    "alg-nest".into(),
                    t_alg.as_secs_f64(),
                    Some(alg_nested.len()),
                ),
                ("iql-unnest".into(), t_unnest.as_secs_f64(), None),
                ("alg-unnest".into(), t_alg_unnest.as_secs_f64(), None),
            ],
        });
    }
    print_table("nest/unnest (n = flat tuples, 8 per group)", &rows);
    println!("shape check: algebra beats IQL by a constant-to-growing factor (no rule engine), same results");
}

// ---------------------------------------------------------------------
// E4 — Example 3.4.2: the two powerset programs (exponential)
// ---------------------------------------------------------------------

fn e4_powerset() {
    println!("\n== E4: Example 3.4.2 — powerset: range-restricted (oids) vs X=X vs algebra ==");
    let cfg = bench_config();
    let constructive = powerset_program();
    let unrestricted = powerset_unrestricted_program();
    println!(
        "classification: constructive = {}, unrestricted = {} (both escape IQLpr, as the paper requires)",
        classify(&constructive),
        classify(&unrestricted)
    );
    let mut rows = Vec::new();
    for n in 2usize..=6 {
        let vals = universe(n);
        let i1 = unary_instance(&constructive, "R", "a", &vals);
        let (o1, t1) = timed_run(&constructive, &i1, &cfg);
        let c1 = o1.output.relation(RelName::new("R1")).unwrap().len();
        let i2 = unary_instance(&unrestricted, "R", "a", &vals);
        let (o2, t2) = timed_run(&unrestricted, &i2, &cfg);
        let c2 = o2.output.relation(RelName::new("R1")).unwrap().len();
        let rel: iql_algebra::Rel = vals.iter().map(|v| iql_algebra::Value::str(v)).collect();
        let (ps, t3) = timed(|| iql_algebra::powerset(&rel));
        assert_eq!(c1, 1 << n);
        assert_eq!(c2, 1 << n);
        assert_eq!(ps.len(), 1 << n);
        rows.push(Row {
            n,
            cells: vec![
                ("iql-oids".into(), t1.as_secs_f64(), Some(c1)),
                ("iql-X=X".into(), t2.as_secs_f64(), Some(c2)),
                ("algebra".into(), t3.as_secs_f64(), Some(ps.len())),
            ],
        });
    }
    print_table("powerset of n elements (counts = 2^n subsets)", &rows);
    println!("shape check: all three grow exponentially; the constructive program pays oid-invention overhead");
}

// ---------------------------------------------------------------------
// E5 — Example 3.4.3: union-type encode/decode is lossless
// ---------------------------------------------------------------------

fn random_union_instance(prog: &Program, n: usize, seed: u64) -> Instance {
    let mut rng = Rng::new(seed);
    let mut inst = Instance::new(Arc::clone(&prog.input));
    let p = ClassName::new("P");
    let oids: Vec<_> = (0..n).map(|_| inst.create_oid(p).unwrap()).collect();
    for &o in &oids {
        if rng.chance(0.5) {
            let target = oids[rng.below(n)];
            inst.define_value(o, OValue::oid(target)).unwrap();
        } else {
            let a = oids[rng.below(n)];
            let b = oids[rng.below(n)];
            inst.define_value(
                o,
                OValue::tuple([("A1", OValue::oid(a)), ("A2", OValue::oid(b))]),
            )
            .unwrap();
        }
    }
    inst.validate().unwrap();
    inst
}

fn e5_union_types() {
    println!("\n== E5: Example 3.4.3 — union-type encode/decode roundtrip ==");
    let cfg = bench_config();
    let enc = union_encode_program();
    let dec = union_decode_program();
    let mut rows = Vec::new();
    for n in [2usize, 4, 8, 16] {
        let input = random_union_instance(&enc, n, 11 + n as u64);
        let (encoded, t_enc) = timed_run(&enc, &input, &cfg);
        let back_in = encoded.output.project(&dec.input).unwrap();
        let (decoded, t_dec) = timed_run(&dec, &back_in, &cfg);
        let (iso, t_iso) = timed(|| are_o_isomorphic(&decoded.output, &input));
        assert!(iso, "decode(encode(I)) ≅ I at n={n}");
        rows.push(Row {
            n,
            cells: vec![
                ("encode".into(), t_enc.as_secs_f64(), Some(n)),
                ("decode".into(), t_dec.as_secs_f64(), Some(n)),
                (
                    "iso-check".into(),
                    t_iso.as_secs_f64(),
                    Some(usize::from(iso)),
                ),
            ],
        });
    }
    print_table(
        "union encode/decode over random cyclic P-instances; iso-check = 1 when decode(encode(I)) ≅ I",
        &rows,
    );
    println!("shape check: every roundtrip O-isomorphic — no information lost (paper's claim)");
}

// ---------------------------------------------------------------------
// E6 — Theorem 4.1.3: determinacy up to O-isomorphism
// ---------------------------------------------------------------------

fn e6_determinacy() {
    println!("\n== E6: Theorem 4.1.3 — determinate up to renaming of oids ==");
    let cfg = bench_config();
    let prog = graph_to_class_program();
    let mut checks = 0;
    let mut ok = 0;
    for n in [5usize, 10, 20] {
        for seed in 0..3u64 {
            let edges = random_digraph(n, 2 * n, seed);
            let i1 = edge_instance(&prog, "R", ("src", "dst"), &edges);
            let mut rev = edges.clone();
            rev.reverse();
            let i2 = edge_instance(&prog, "R", ("src", "dst"), &rev);
            let o1 = run(&prog, &i1, &cfg).unwrap();
            let o2 = run(&prog, &i2, &cfg).unwrap();
            checks += 1;
            if are_o_isomorphic(&o1.output, &o2.output) {
                ok += 1;
            }
        }
    }
    println!("{ok}/{checks} permuted-input runs produced O-isomorphic outputs");
    assert_eq!(ok, checks);
}

// ---------------------------------------------------------------------
// E7/E8 — Figure 1 + Theorems 4.2.4/4.3.1/4.4.1
// ---------------------------------------------------------------------

fn e7_quadrangle_choose() {
    println!("\n== E7/E8: Figure 1 — copies in IQL, selection with IQL⁺ choose ==");
    let cfg = bench_config();
    let copies = quadrangle_program();
    let full = quadrangle_choose_program();
    let mk_input = |prog: &Program| {
        let mut input = Instance::new(Arc::clone(&prog.input));
        for v in ["a", "b"] {
            input
                .insert(RelName::new("R"), OValue::tuple([("a", OValue::str(v))]))
                .unwrap();
        }
        input
    };
    let out1 = run(&copies, &mk_input(&copies), &cfg).unwrap();
    println!(
        "plain IQL (Thm 4.2.4): built {} Q-objects, {} Rp arcs — TWO copies of the quadrangle",
        out1.output.class(ClassName::new("Q")).unwrap().len(),
        out1.output.relation(RelName::new("Rp")).unwrap().len()
    );
    println!("plain IQL cannot pick one copy (Thm 4.3.1: copy elimination is inexpressible).");
    let out2 = run(&full, &mk_input(&full), &cfg).unwrap();
    println!(
        "IQL⁺ (Thm 4.4.1): choose selected one copy generically → {} Qout objects, {} OutRp arcs",
        out2.output.class(ClassName::new("Qout")).unwrap().len(),
        out2.output.relation(RelName::new("OutRp")).unwrap().len()
    );
    for f in out2.output.ground_facts() {
        println!("  {f}");
    }
    // Section 4.4 solution 2: with an explicit order on constants, plain
    // IQL (no choose) eliminates copies.
    let ordered = quadrangle_ordered_program();
    let mut input = Instance::new(Arc::clone(&ordered.input));
    for v in ["a", "b"] {
        input
            .insert(RelName::new("R"), OValue::tuple([("a", OValue::str(v))]))
            .unwrap();
    }
    input
        .insert(
            RelName::new("Lt"),
            OValue::tuple([("lo", OValue::str("a")), ("hi", OValue::str("b"))]),
        )
        .unwrap();
    let out3 = run(&ordered, &input, &cfg).unwrap();
    println!(
        "ordered-database variant (no choose): {} Qout objects, {} arcs — order breaks the symmetry",
        out3.output.class(ClassName::new("Qout")).unwrap().len(),
        out3.output.relation(RelName::new("OutRp")).unwrap().len()
    );
}

// ---------------------------------------------------------------------
// E9 — Section 4.5: IQL* deletions with cascade
// ---------------------------------------------------------------------

fn e9_deletions() {
    println!("\n== E9: Section 4.5 — IQL* deletions ==");
    let unit = iql_core::parser::parse_unit(
        r#"
        schema {
          relation Emp: [name: D, dept: D];
          relation Closed: [dept: D];
        }
        program {
          input Emp, Closed;
          output Emp;
          del Emp(x, d) :- Closed(d), Emp(x, d);
        }
        "#,
    )
    .unwrap();
    let prog = unit.program.unwrap();
    println!(
        "classification: {} (deletions are an IQL* extension)",
        classify(&prog)
    );
    let mut input = Instance::new(Arc::clone(&prog.input));
    for (n, d) in [("ann", "sales"), ("bob", "sales"), ("cal", "eng")] {
        input
            .insert(
                RelName::new("Emp"),
                OValue::tuple([("name", OValue::str(n)), ("dept", OValue::str(d))]),
            )
            .unwrap();
    }
    input
        .insert(
            RelName::new("Closed"),
            OValue::tuple([("dept", OValue::str("sales"))]),
        )
        .unwrap();
    let out = run(&prog, &input, &bench_config()).unwrap();
    let left = out.output.relation(RelName::new("Emp")).unwrap();
    println!(
        "after closing 'sales': {} employees remain (expected 1)",
        left.len()
    );
    assert_eq!(left.len(), 1);
}

// ---------------------------------------------------------------------
// E10 — Theorem 5.4: PTIME shape for IQLrr vs exponential escape
// ---------------------------------------------------------------------

fn e10_ptime_shape() {
    println!("\n== E10: Theorem 5.4 — IQLrr scales polynomially; powerset escapes ==");
    let cfg = bench_config();
    let tc = transitive_closure_program();
    assert_eq!(classify(&tc), SubLanguage::Iqlrr);
    let mut rows = Vec::new();
    let mut times = Vec::new();
    for n in [10usize, 20, 40, 80] {
        let edges = chain(n, "c");
        let input = edge_instance(&tc, "Edge", ("src", "dst"), &edges);
        let (out, t) = timed_run(&tc, &input, &cfg);
        let pairs = out.output.relation(RelName::new("Tc")).unwrap().len();
        assert_eq!(pairs, n * (n + 1) / 2, "closure of an {n}-edge chain");
        let random = edge_instance(&tc, "Edge", ("src", "dst"), &random_digraph(n, 2 * n, 3));
        let (out, t_random) = timed_run(&tc, &random, &cfg);
        let random_pairs = out.output.relation(RelName::new("Tc")).unwrap().len();
        times.push((n as f64, t.as_secs_f64()));
        rows.push(Row {
            n,
            cells: vec![
                ("tc-chain".into(), t.as_secs_f64(), Some(pairs)),
                (
                    "tc-random".into(),
                    t_random.as_secs_f64(),
                    Some(random_pairs),
                ),
            ],
        });
    }
    print_table(
        "IQLrr transitive closure on chains and random digraphs with 2n edges (counts = closure pairs)",
        &rows,
    );
    // Log-log slope of the chain series between its first and last points
    // ≈ polynomial degree.
    let (n0, t0) = times[0];
    let (n1, t1) = times[times.len() - 1];
    let slope = (t1 / t0).ln() / (n1 / n0).ln();
    println!(
        "empirical log-log slope ≈ {slope:.2} (polynomial; naive evaluation of TC is ~n^3-n^4)"
    );

    let ps = powerset_program();
    let mut ratios = Vec::new();
    let mut prev: Option<f64> = None;
    for n in 2usize..=6 {
        let vals = universe(n);
        let input = unary_instance(&ps, "R", "a", &vals);
        let (_, t) = timed_run(&ps, &input, &cfg);
        if let Some(p) = prev {
            ratios.push(t.as_secs_f64() / p);
        }
        prev = Some(t.as_secs_f64());
    }
    println!(
        "powerset per-increment time ratios: {:?} (≫ constant — exponential escape from PTIME)",
        ratios
            .iter()
            .map(|r| format!("{r:.1}x"))
            .collect::<Vec<_>>()
    );
}

// ---------------------------------------------------------------------
// E11 — Section 5: Datalog-in-IQL vs dedicated engines
// ---------------------------------------------------------------------

fn e11_datalog_baseline() {
    println!("\n== E11: Datalog TC — IQL evaluator vs naive vs semi-naive engines ==");
    let cfg = bench_config();
    let iql_tc = transitive_closure_program();
    let dl =
        iql_datalog::parse_program("Tc(x, y) :- Edge(x, y). Tc(x, z) :- Tc(x, y), Edge(y, z).")
            .unwrap();
    let mut rows = Vec::new();
    for n in [10usize, 20, 40, 80] {
        let edges = random_digraph(n, 2 * n, 3);
        let input = edge_instance(&iql_tc, "Edge", ("src", "dst"), &edges);
        let (iql_out, t_iql) = timed_run(&iql_tc, &input, &cfg);
        let iql_pairs = iql_out.output.relation(RelName::new("Tc")).unwrap().len();
        let naive_cfg = cfg.to_builder().seminaive(false).build();
        let (_, t_iql_naive) = timed_run(&iql_tc, &input, &naive_cfg);

        let mut db = iql_datalog::Database::new();
        for (s, d) in &edges {
            db.insert(
                "Edge",
                vec![iql_model::Constant::str(s), iql_model::Constant::str(d)],
            )
            .unwrap();
        }
        let ((naive_out, _), t_naive) =
            timed(|| iql_datalog::eval(&dl, &db, iql_datalog::Strategy::Naive).unwrap());
        let ((semi_out, _), t_semi) =
            timed(|| iql_datalog::eval(&dl, &db, iql_datalog::Strategy::SemiNaive).unwrap());
        let naive_pairs = naive_out.relation("Tc").unwrap().len();
        let semi_pairs = semi_out.relation("Tc").unwrap().len();
        assert_eq!(iql_pairs, naive_pairs);
        assert_eq!(naive_pairs, semi_pairs);
        rows.push(Row {
            n,
            cells: vec![
                ("iql-semi".into(), t_iql.as_secs_f64(), Some(iql_pairs)),
                ("iql-naive".into(), t_iql_naive.as_secs_f64(), None),
                ("dl-naive".into(), t_naive.as_secs_f64(), Some(naive_pairs)),
                (
                    "dl-seminaive".into(),
                    t_semi.as_secs_f64(),
                    Some(semi_pairs),
                ),
            ],
        });
    }
    print_table(
        "transitive closure, random digraphs (n nodes, 2n edges)",
        &rows,
    );
    println!("shape check: identical closures; semi-naive beats naive in BOTH engines by a growing factor;\n  the typed IQL evaluator tracks the relational engines within small constants");
}

// ---------------------------------------------------------------------
// E12 — Section 6: inheritance via union types
// ---------------------------------------------------------------------

fn e12_inheritance() {
    println!("\n== E12: Section 6 — person/student/instructor/ta inheritance ==");
    let u = iql_model::inherit::university_schema();
    println!("merged type of Ta (Example 6.2.1 → 6.1.2):");
    println!("  tTa = {}", u.merged_type(ClassName::new("Ta")).unwrap());
    let plain = u.translate().unwrap();
    println!("translated (union-type) schema — inheritance as shorthand:");
    println!("{plain}");

    // A program querying all persons' names across the hierarchy, run over
    // the translated schema: IQL unchanged (Section 6 conclusion).
    let unit = iql_core::parser::parse_unit(
        r#"
        schema {
          class Person: [name: D];
          class Student isa Person: [course_taken: D];
          class Instructor isa Person: [course_taught: D];
          class Ta isa Student, Instructor: [];
          relation Names: [n: D];
        }
        program {
          input Person, Student, Instructor, Ta;
          output Names;
          Names(x) :- Person(p), p^ = [name: x];
          Names(x) :- Student(p), p^ = [name: x, course_taken: c];
          Names(x) :- Instructor(p), p^ = [name: x, course_taught: c];
          Names(x) :- Ta(p), p^ = [name: x, course_taken: c, course_taught: d];
        }
        "#,
    )
    .unwrap();
    let prog = unit.program.unwrap();
    let mut input = Instance::new(Arc::clone(&prog.input));
    let mk = |i: &mut Instance, class: &str, fields: &[(&str, &str)]| {
        let o = i.create_oid(ClassName::new(class)).unwrap();
        i.define_value(
            o,
            OValue::tuple(
                fields
                    .iter()
                    .map(|(a, v)| (*a, OValue::str(v)))
                    .collect::<Vec<_>>(),
            ),
        )
        .unwrap();
    };
    mk(&mut input, "Person", &[("name", "plato")]);
    mk(
        &mut input,
        "Student",
        &[("name", "sue"), ("course_taken", "db")],
    );
    mk(
        &mut input,
        "Instructor",
        &[("name", "ike"), ("course_taught", "db")],
    );
    mk(
        &mut input,
        "Ta",
        &[
            ("name", "tina"),
            ("course_taken", "ai"),
            ("course_taught", "db"),
        ],
    );
    let out = run(&prog, &input, &bench_config()).unwrap();
    let names = out.output.relation(RelName::new("Names")).unwrap();
    println!("names across the hierarchy: {names:?} (expected 4)");
    assert_eq!(names.len(), 4);
}

// ---------------------------------------------------------------------
// E13 — Section 7 / Figure 2: φ, ψ, and ψ∘φ = id
// ---------------------------------------------------------------------

fn e13_value_model() {
    println!("\n== E13: Figure 2 / Prop 7.1.3-7.1.4 — value-based model roundtrip ==");
    use iql_vtree::{phi, psi, vinstances_equal, VInstance, VSchema};
    let schema = VSchema::new([(
        ClassName::new("Vnode"),
        TypeExpr::tuple([
            ("label", TypeExpr::base()),
            ("next", TypeExpr::set_of(TypeExpr::class("Vnode"))),
        ]),
    )])
    .unwrap();
    let mut rows = Vec::new();
    for n in [4usize, 16, 64, 256] {
        // Build a ring of n persons, each pointing to the next — a deeply
        // cyclic family of pure values.
        let mut vinst = VInstance::new(&schema);
        let slots: Vec<_> = (0..n).map(|_| vinst.forest.reserve()).collect();
        for i in 0..n {
            let label = vinst
                .forest
                .add_const(iql_model::Constant::str(&format!("p{i}")));
            let next = vinst.forest.add_set([slots[(i + 1) % n]]);
            vinst.forest.set_node(
                slots[i],
                iql_vtree::Node::Tuple(
                    [("label", label), ("next", next)]
                        .map(|(a, id)| (iql_model::AttrName::new(a), id))
                        .into(),
                ),
            );
            vinst.add(ClassName::new("Vnode"), slots[i]);
        }
        vinst.validate(&schema).unwrap();
        let ((obj, _), t_phi) = timed(|| phi(&schema, &vinst).unwrap());
        let (back, t_psi) = timed(|| psi(&obj).unwrap());
        let (equal, t_eq) = timed(|| vinstances_equal(&back, &vinst));
        assert!(equal, "ψ(φ(I)) = I at n={n}");
        rows.push(Row {
            n,
            cells: vec![
                ("phi".into(), t_phi.as_secs_f64(), Some(obj.objects().len())),
                ("psi".into(), t_psi.as_secs_f64(), Some(back.size())),
                (
                    "bisim-eq".into(),
                    t_eq.as_secs_f64(),
                    Some(usize::from(equal)),
                ),
            ],
        });
    }
    print_table("φ/ψ roundtrip over n-rings of mutual references", &rows);
    println!("shape check: near-linear-with-log growth; every roundtrip exact (Prop 7.1.4)");
}

// ---------------------------------------------------------------------
// E14 — Propositions 2.2.1/6.1: intersection reduction & elimination
// ---------------------------------------------------------------------

fn random_type(depth: usize, rng: &mut Rng) -> TypeExpr {
    use TypeExpr as T;
    if depth == 0 {
        return match rng.below(3) {
            0 => T::base(),
            1 => T::class(["Ca", "Cb"][rng.below(2)]),
            _ => T::empty(),
        };
    }
    match rng.below(5) {
        0 => random_type(0, rng),
        1 => T::set_of(random_type(depth - 1, rng)),
        2 => T::tuple([
            ("f1", random_type(depth - 1, rng)),
            ("f2", random_type(depth - 1, rng)),
        ]),
        3 => T::union(random_type(depth - 1, rng), random_type(depth - 1, rng)),
        _ => T::inter(random_type(depth - 1, rng), random_type(depth - 1, rng)),
    }
}

fn e14_type_normalization() {
    println!("\n== E14: Prop 2.2.1 — intersection reduction & elimination ==");
    use iql_model::types::{ClassMap, EnumUniverse};
    let mut rng = Rng::new(99);
    let mut checked = 0usize;
    let mut agreed = 0usize;
    // A small disjoint universe to sample membership against.
    let mut cm = ClassMap::default();
    cm.classes
        .insert(ClassName::new("Ca"), [iql_model::Oid::from_raw(1)].into());
    cm.classes
        .insert(ClassName::new("Cb"), [iql_model::Oid::from_raw(2)].into());
    let consts = vec![iql_model::Constant::int(0), iql_model::Constant::int(1)];
    for _ in 0..500 {
        let t = random_type(3, &mut rng);
        let free = t.intersection_free_disjoint();
        assert!(free.is_intersection_free());
        let reduced = t.intersection_reduce();
        assert!(reduced.is_intersection_reduced());
        // Sample membership agreement over the enumerable fragment.
        let u = EnumUniverse {
            constants: &consts,
            classes: &cm,
            budget: 4096,
        };
        let probe = TypeExpr::union(
            TypeExpr::union(TypeExpr::base(), TypeExpr::class("Ca")),
            TypeExpr::union(
                TypeExpr::class("Cb"),
                TypeExpr::set_of(TypeExpr::union(TypeExpr::base(), TypeExpr::class("Ca"))),
            ),
        );
        if let Ok(samples) = probe.enumerate(&u) {
            checked += 1;
            let ok = samples.iter().all(|v| {
                t.member(v, &cm) == free.member(v, &cm)
                    && t.member(v, &cm) == reduced.member(v, &cm)
            });
            if ok {
                agreed += 1;
            }
        }
    }
    println!("{agreed}/{checked} random types: normal forms agree with the original on all sampled values");
    assert_eq!(agreed, checked);
}

// ---------------------------------------------------------------------
// E15 — Theorem 7.1.5: IQLv on value-based instances
// ---------------------------------------------------------------------

fn e15_iqlv() {
    println!("\n== E15: Theorem 7.1.5 — IQLv = ψ ∘ IQL ∘ φ ==");
    use iql_vtree::{run_on_values, VInstance, VSchema};
    let schema = VSchema::new([(
        ClassName::new("Vnode"),
        TypeExpr::tuple([
            ("label", TypeExpr::base()),
            ("next", TypeExpr::set_of(TypeExpr::class("Vnode"))),
        ]),
    )])
    .unwrap();
    // Copy nodes with a successor into a second class, purely value-based.
    let unit = iql_core::parser::parse_unit(
        r#"
        schema {
          class Vnode: [label: D, next: {Vnode}];
          class Vbusy: [label: D, next: {Vnode}];
          relation Has: [p: Vnode, s: Vbusy];
        }
        program {
          input Vnode;
          output Vbusy, Vnode;
          stage {
            Has(p, s) :- Vnode(p), p^ = [label: n, next: F], F != {};
          }
          stage {
            s^ = p^ :- Has(p, s);
          }
        }
        "#,
    )
    .unwrap();
    let prog = unit.program.unwrap();
    let mut vinst = VInstance::new(&schema);
    // One self-loop node and one sink.
    let loop_slot = vinst.forest.reserve();
    let l1 = vinst.forest.add_const(iql_model::Constant::str("loop"));
    let n1 = vinst.forest.add_set([loop_slot]);
    vinst.forest.set_node(
        loop_slot,
        iql_vtree::Node::Tuple(
            [("label", l1), ("next", n1)]
                .map(|(a, id)| (iql_model::AttrName::new(a), id))
                .into(),
        ),
    );
    let l2 = vinst.forest.add_const(iql_model::Constant::str("sink"));
    let n2 = vinst.forest.add_set([]);
    let sink = vinst.forest.add_tuple([("label", l2), ("next", n2)]);
    vinst.add(ClassName::new("Vnode"), loop_slot);
    vinst.add(ClassName::new("Vnode"), sink);
    vinst.validate(&schema).unwrap();

    let out = run_on_values(&prog, &schema, &vinst, &bench_config()).unwrap();
    let busy = out.classes[&ClassName::new("Vbusy")].len();
    println!("Vbusy values: {busy} (expected 1: only the self-loop node has a successor)");
    assert_eq!(busy, 1);
    println!("oids served purely as language primitives — none appear in the value-based output");
}

// ---------------------------------------------------------------------
// E16 — Proposition 4.2.2: the generated flattening program
// ---------------------------------------------------------------------

fn e16_flattener() {
    println!("\n== E16: Prop 4.2.2 — schema-driven flattener, generated as IQL ==");
    use iql_core::encode::{decode, encode, flat_schema, generate_flattener};
    let cfg = bench_config();
    let mut rows = Vec::new();
    for n in [10usize, 30, 100] {
        let enc_prog_schema = iql_model::SchemaBuilder::new()
            .relation(
                "E",
                TypeExpr::tuple([("s", TypeExpr::base()), ("d", TypeExpr::base())]),
            )
            .build()
            .unwrap();
        let prog = generate_flattener(&enc_prog_schema).unwrap();
        let mut input = Instance::new(Arc::clone(&prog.input));
        for (s, d) in random_digraph(n, 2 * n, 5) {
            input
                .insert_unchecked(
                    RelName::new("E"),
                    OValue::tuple([("s", OValue::str(&s)), ("d", OValue::str(&d))]),
                )
                .unwrap();
        }
        let (out, t_prog) = timed_run(&prog, &input, &cfg);
        let flat_view = out.output.project(&Arc::new(flat_schema())).unwrap();
        let (native, t_native) = timed(|| encode(&input).unwrap());
        let back = decode(&flat_view, input.schema()).unwrap();
        assert!(are_o_isomorphic(&back, &input), "decode ∘ flattener = id");
        rows.push(Row {
            n,
            cells: vec![
                (
                    "iql-flatten".into(),
                    t_prog.as_secs_f64(),
                    Some(flat_view.fact_count()),
                ),
                (
                    "native-encode".into(),
                    t_native.as_secs_f64(),
                    Some(native.fact_count()),
                ),
            ],
        });
    }
    print_table(
        "flattening a binary relation (n nodes, 2n edges); counts = flat facts",
        &rows,
    );
    println!("shape check: the generated IQL program and the native encoder agree up to decode;");
    println!("  the Genesis and union-type schemas are covered by unit tests (encode::tests)");
}

// ---------------------------------------------------------------------
// E17 — parallel evaluation ablation (both engines)
// ---------------------------------------------------------------------

fn e17_parallel_ablation() {
    println!("\n== E17: parallel rule evaluation — worker-count ablation ==");
    let prog = parallel_join_program();
    let mut rows = Vec::new();
    for n in [60usize, 120, 240] {
        let edges = random_digraph(n, 4 * n, 11);
        let input = edge_instance(&prog, "Edge", ("src", "dst"), &edges);
        let mut cells = Vec::new();
        let mut baseline: Option<iql_core::eval::EvalOutput> = None;
        for threads in [1usize, 2, 4, 8] {
            let cfg = bench_config().to_builder().threads(threads).build();
            let (out, t) = timed_run(&prog, &input, &cfg);
            cells.push((format!("iql-t{threads}"), t.as_secs_f64(), None));
            match &baseline {
                None => baseline = Some(out),
                Some(b) => {
                    assert_eq!(
                        b.full.ground_facts(),
                        out.full.ground_facts(),
                        "parallel output differs at {threads} threads"
                    );
                    assert_eq!(
                        b.report.counters(),
                        out.report.counters(),
                        "report drift at {threads} threads"
                    );
                }
            }
        }
        rows.push(Row { n, cells });
    }
    print_table(
        "parallel_join_program, random digraphs (n nodes, 4n edges)",
        &rows,
    );

    let dl =
        iql_datalog::parse_program("Tc(x, y) :- Edge(x, y). Tc(x, z) :- Tc(x, y), Edge(y, z).")
            .unwrap();
    let mut rows = Vec::new();
    for n in [40usize, 80, 160] {
        let edges = random_digraph(n, 2 * n, 3);
        let mut db = iql_datalog::Database::new();
        for (s, d) in &edges {
            db.insert(
                "Edge",
                vec![iql_model::Constant::str(s), iql_model::Constant::str(d)],
            )
            .unwrap();
        }
        let mut cells = Vec::new();
        let mut baseline = None;
        for threads in [1usize, 2, 4, 8] {
            let ((out, _), t) = timed(|| {
                iql_datalog::eval_with(&dl, &db, iql_datalog::Strategy::SemiNaive, threads).unwrap()
            });
            match &baseline {
                None => baseline = Some(out),
                Some(b) => assert_eq!(*b, out, "datalog drift at {threads} threads"),
            }
            cells.push((format!("dl-t{threads}"), t.as_secs_f64(), None));
        }
        rows.push(Row { n, cells });
    }
    print_table("datalog semi-naive TC (n nodes, 2n edges)", &rows);
    println!("shape check: every thread count yields the bit-identical instance (same oids);");
    println!("  speedup appears once the per-step search work dominates the merge");
}

// ---------------------------------------------------------------------
// E18 — cost-based join planning ablation
// ---------------------------------------------------------------------

/// Runs `prog` on `input` with the planner on and off (best of `runs`
/// each), asserts both arms compute the bit-identical result, and returns
/// the two wall times with the output's fact count.
fn planner_arms(prog: &Program, input: &Instance, runs: usize) -> (f64, f64, usize) {
    let arm = |on: bool| {
        let cfg = bench_config().to_builder().planner(on).build();
        best_of(runs, || {
            run(prog, input, &cfg).expect("experiment program runs")
        })
    };
    let (on, t_on) = arm(true);
    let (off, t_off) = arm(false);
    assert_eq!(
        on.output.ground_facts(),
        off.output.ground_facts(),
        "output drift in {prog}"
    );
    assert_eq!(
        on.full.ground_facts(),
        off.full.ground_facts(),
        "fixpoint drift in {prog}"
    );
    assert_eq!(
        on.report.counters(),
        off.report.counters(),
        "counter drift in {prog}"
    );
    (
        t_on.as_secs_f64(),
        t_off.as_secs_f64(),
        on.output.fact_count(),
    )
}

fn e18_planner_ablation() {
    println!("\n== E18: cost-based join planning — planner on vs off ==");
    let skewed = skewed_join_program();
    let mut rows = Vec::new();
    for keys in [500usize, 2000] {
        let (big, mid, tiny) = skewed_join_tables(keys, 8, 200);
        let input = skewed_join_instance(&skewed, &big, &mid, &tiny);
        let (t_on, t_off, facts) = planner_arms(&skewed, &input, 1);
        println!(
            "skewed, {keys} keys: planner-off / planner-on = {:.1}x",
            t_off / t_on
        );
        assert!(
            t_off > 2.0 * t_on,
            "the planner must win the skewed join by over 2x at {keys} keys"
        );
        rows.push(Row {
            n: keys,
            cells: vec![
                ("planner-on".into(), t_on, Some(facts)),
                ("planner-off".into(), t_off, Some(facts)),
            ],
        });
    }
    print_table(
        "skewed three-way join (n keys × 8 in Big, 200 survivors in Tiny); counts = output facts",
        &rows,
    );

    let guard = parallel_join_program();
    let input = edge_instance(&guard, "Edge", ("src", "dst"), &random_digraph(80, 320, 11));
    let (t_on, t_off, facts) = planner_arms(&guard, &input, 5);
    print_table(
        "parallel_join_program regression guard (80 nodes, 320 edges; best of 5)",
        &[Row {
            n: 80,
            cells: vec![
                ("planner-on".into(), t_on, Some(facts)),
                ("planner-off".into(), t_off, Some(facts)),
            ],
        }],
    );
    println!(
        "parallel_join: planner-on / planner-off = {:.3}",
        t_on / t_off
    );
    println!("shape check: both arms compute the bit-identical instance and counters;");
    println!("  the planner wins the skewed join by a wide margin and stays within noise on parallel_join");
}

// ---------------------------------------------------------------------
// E19 — value-representation ablation (DESIGN.md §5.1)
// ---------------------------------------------------------------------

/// The strawman representation: string-keyed tuples, no interning.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
enum NaiveValue {
    Str(String),
    Tuple(BTreeMap<String, NaiveValue>),
}

/// `n` flat `[src, dst]` tuples over 97 node names, as o-values.
fn flat_ovalues(n: usize) -> Vec<OValue> {
    (0..n)
        .map(|i| {
            OValue::tuple([
                ("src", OValue::str(&format!("node{}", i % 97))),
                ("dst", OValue::str(&format!("node{}", (i * 7) % 97))),
            ])
        })
        .collect()
}

/// The same tuples as [`flat_ovalues`], in the strawman representation.
fn flat_naive(n: usize) -> Vec<NaiveValue> {
    (0..n)
        .map(|i| {
            NaiveValue::Tuple(BTreeMap::from([
                (
                    "src".to_string(),
                    NaiveValue::Str(format!("node{}", i % 97)),
                ),
                (
                    "dst".to_string(),
                    NaiveValue::Str(format!("node{}", (i * 7) % 97)),
                ),
            ]))
        })
        .collect()
}

/// Deep values with heavy shared substructure — the shape ν-values take
/// after a few derivation rounds, where hash-consing pays off most.
fn deep_ovalues(n: usize) -> Vec<OValue> {
    let leaf = |k: usize| {
        OValue::tuple([
            ("name", OValue::str(&format!("node{}", k % 23))),
            ("rank", OValue::int((k % 7) as i64)),
        ])
    };
    (0..n)
        .map(|i| {
            OValue::tuple([
                ("left", leaf(i)),
                ("right", leaf(i * 7)),
                ("kids", OValue::set((0..4).map(|j| leaf((i + j) % 31)))),
            ])
        })
        .collect()
}

/// Equal pairs among all ordered pairs of `values`.
fn equal_pairs<T: PartialEq>(values: &[T]) -> usize {
    values
        .iter()
        .map(|a| {
            values
                .iter()
                .filter(|b| black_box(a) == black_box(*b))
                .count()
        })
        .sum()
}

fn e19_value_representation() {
    println!("\n== E19: value representation — string-keyed tree vs interned tree vs hash-consed arena ==");
    const RUNS: usize = 5;
    let mut ladder = Vec::new();
    let mut arena = Vec::new();
    for n in [1000usize, 10_000] {
        // Rungs 1–2: build + dedup and sort, string-keyed vs interned names.
        let (naive_set, t_naive_dedup) = best_of(RUNS, || {
            flat_naive(n).into_iter().collect::<BTreeSet<_>>().len()
        });
        let (interned_set, t_interned_dedup) = best_of(RUNS, || {
            flat_ovalues(n).into_iter().collect::<BTreeSet<_>>().len()
        });
        assert_eq!(naive_set, interned_set, "both representations dedup alike");
        let naive = flat_naive(n);
        let (_, t_naive_sort) = best_of(RUNS, || {
            let mut v = naive.clone();
            v.sort();
            v.len()
        });
        let interned = flat_ovalues(n);
        let (_, t_interned_sort) = best_of(RUNS, || {
            let mut v = interned.clone();
            v.sort();
            v.len()
        });
        ladder.push(Row {
            n,
            cells: vec![
                (
                    "naive-dedup".into(),
                    t_naive_dedup.as_secs_f64(),
                    Some(naive_set),
                ),
                (
                    "interned-dedup".into(),
                    t_interned_dedup.as_secs_f64(),
                    Some(interned_set),
                ),
                ("naive-sort".into(), t_naive_sort.as_secs_f64(), None),
                ("interned-sort".into(), t_interned_sort.as_secs_f64(), None),
            ],
        });

        // Rungs 2–3: tree vs hash-consed arena on deep values.
        let deep = deep_ovalues(n);
        let ((store, ids), t_intern) = best_of(RUNS, || {
            let mut store = ValueStore::new();
            let ids: Vec<ValueId> = deep.iter().map(|v| store.intern(v)).collect();
            (store, ids)
        });
        let window = deep.len().min(256);
        let (tree_eq, t_tree_eq) = best_of(RUNS, || equal_pairs(&deep[..window]));
        let (id_eq, t_id_eq) = best_of(RUNS, || equal_pairs(&ids[..window]));
        assert_eq!(tree_eq, id_eq, "id equality mirrors tree equality");
        let tree_index: HashMap<&OValue, usize> =
            deep.iter().enumerate().map(|(i, v)| (v, i)).collect();
        let (tree_hits, t_tree_probe) = best_of(RUNS, || {
            deep.iter()
                .filter(|v| tree_index.contains_key(black_box(*v)))
                .count()
        });
        let id_index: HashMap<ValueId, usize> =
            ids.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        let (id_hits, t_id_probe) = best_of(RUNS, || {
            ids.iter()
                .filter(|v| id_index.contains_key(black_box(*v)))
                .count()
        });
        assert_eq!((tree_hits, id_hits), (n, n), "every probe hits");
        assert!(
            t_id_eq < t_tree_eq && t_id_probe < t_tree_probe,
            "ids must beat trees on equality and join probes at n={n}"
        );
        arena.push(Row {
            n,
            cells: vec![
                (
                    "intern-batch".into(),
                    t_intern.as_secs_f64(),
                    Some(store.len()),
                ),
                (
                    "tree-equality".into(),
                    t_tree_eq.as_secs_f64(),
                    Some(tree_eq),
                ),
                ("id-equality".into(), t_id_eq.as_secs_f64(), Some(id_eq)),
                (
                    "tree-join-probe".into(),
                    t_tree_probe.as_secs_f64(),
                    Some(tree_hits),
                ),
                (
                    "id-join-probe".into(),
                    t_id_probe.as_secs_f64(),
                    Some(id_hits),
                ),
            ],
        });
    }
    // Rung 4: the Datalog load path (the `dl_*` setup) — n distinct
    // two-column tuples over about 2·√n string constants, each inserted
    // through `Database::insert`, which interns its constants.
    let mut load = Vec::new();
    for n in [10_000usize, 100_000] {
        let side = (n as f64).sqrt().ceil() as usize;
        let names: Vec<String> = (0..side).map(|k| format!("node{k}")).collect();
        let (size, t_load) = best_of(RUNS, || {
            let mut db = iql_datalog::Database::new();
            for i in 0..n {
                let t = vec![
                    iql_model::Constant::str(&names[i % side]),
                    iql_model::Constant::str(&names[i / side]),
                ];
                db.insert("Edge", t).expect("one arity");
            }
            db.size()
        });
        assert_eq!(size, n, "every loaded tuple is distinct");
        load.push(Row {
            n,
            cells: vec![("dl-load".into(), t_load.as_secs_f64(), Some(size))],
        });
    }
    // Rung 5: a fork plus one write over a loaded relation of n
    // two-column tuples — what a writer publishing a new version of a
    // dataset pays. IQL forks through `Instance::fork`, Datalog through
    // `Database::clone`; the time includes dropping the fork.
    let mut write = Vec::new();
    for n in [10_000usize, 100_000, 400_000] {
        let side = (n as f64).sqrt().ceil() as usize;
        let names: Vec<String> = (0..side).map(|k| format!("node{k}")).collect();
        let pair = |i: usize| (names[i % side].as_str(), names[i / side].as_str());
        let schema = Arc::new(
            iql_model::SchemaBuilder::new()
                .relation(
                    "Edge",
                    TypeExpr::tuple([("src", TypeExpr::base()), ("dst", TypeExpr::base())]),
                )
                .build()
                .expect("edge schema"),
        );
        let edge = RelName::new("Edge");
        let tuple = |(s, d): (&str, &str)| {
            OValue::tuple([("src", OValue::str(s)), ("dst", OValue::str(d))])
        };
        let mut inst = Instance::new(Arc::clone(&schema));
        let mut db = iql_datalog::Database::new();
        for i in 0..n {
            inst.insert(edge, tuple(pair(i))).expect("typed edge");
            let (s, d) = pair(i);
            let t = vec![iql_model::Constant::str(s), iql_model::Constant::str(d)];
            db.insert("Edge", t).expect("one arity");
        }
        let (iql_size, t_iql) = best_of(RUNS, || {
            let mut fork = inst.fork(&schema).expect("same schema");
            fork.insert(edge, tuple(("node0", "fresh")))
                .expect("typed edge");
            let size = fork.relation_ids(edge).expect("edge").len();
            size
        });
        let (dl_size, t_dl) = best_of(RUNS, || {
            let mut fork = db.clone();
            let t = vec![
                iql_model::Constant::str("node0"),
                iql_model::Constant::str("fresh"),
            ];
            fork.insert("Edge", t).expect("one arity");
            fork.size()
        });
        assert_eq!(
            (iql_size, dl_size),
            (n + 1, n + 1),
            "each fork gained one tuple"
        );
        assert_eq!(
            inst.relation_ids(edge).expect("edge").len(),
            n,
            "the parent is untouched"
        );
        assert_eq!(db.size(), n, "the parent is untouched");
        write.push(Row {
            n,
            cells: vec![
                ("iql-fork+write".into(), t_iql.as_secs_f64(), Some(iql_size)),
                ("dl-clone+write".into(), t_dl.as_secs_f64(), Some(dl_size)),
            ],
        });
    }
    print_table(
        "build+dedup and sort of n flat tuples (best of 5); counts = distinct values",
        &ladder,
    );
    print_table(
        "n deep values: intern into a fresh arena, all-pairs equality over 256, n join probes (best of 5); counts = arena nodes / equal pairs / hits",
        &arena,
    );
    print_table(
        "load n two-column string tuples into a Datalog database (best of 5); counts = Database::size()",
        &load,
    );
    print_table(
        "fork a loaded relation of n two-column tuples and insert one (best of 5); counts = the fork's size",
        &write,
    );
    println!("shape check: identical dedup, equality and probe results in every representation;");
    println!("  id equality and id join probes beat their tree counterparts by a wide margin");
}
