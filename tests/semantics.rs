//! Integration tests pinning the fine points of IQL's semantics
//! (Section 3.2) and the db-transformation properties (Definition 4.1.1).

use iql::model::iso::are_o_isomorphic;
use iql::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

fn cfg() -> EvalConfig {
    EvalConfig::default()
}

// ---------------------------------------------------------------------
// Genericity (Definition 4.1.1, condition 3)
// ---------------------------------------------------------------------

#[test]
fn programs_are_generic_under_constant_renaming() {
    // h a D-isomorphism ⇒ (hI, hJ) ∈ g: run on renamed input, expect the
    // renamed output (up to O-isomorphism).
    let prog = iql::lang::programs::graph_to_class_program();
    let mut input = Instance::new(Arc::clone(&prog.input));
    for (s, d) in [("a", "b"), ("b", "c"), ("c", "a")] {
        input
            .insert(
                RelName::new("R"),
                OValue::tuple([("src", OValue::str(s)), ("dst", OValue::str(d))]),
            )
            .unwrap();
    }
    let out = run(&prog, &input, &cfg()).unwrap();

    let h: BTreeMap<Constant, Constant> = [("a", "x"), ("b", "y"), ("c", "z")]
        .into_iter()
        .map(|(from, to)| (Constant::str(from), Constant::str(to)))
        .collect();
    let renamed_input = input.rename_constants(&h).unwrap();
    let out_h = run(&prog, &renamed_input, &cfg()).unwrap();
    let expected = out.output.rename_constants(&h).unwrap();
    assert!(
        are_o_isomorphic(&out_h.output, &expected),
        "g(hI) ≅ h(g(I)) — the program does not interpret constants"
    );
}

// ---------------------------------------------------------------------
// Weak assignment, condition (†)
// ---------------------------------------------------------------------

#[test]
fn conflicting_parallel_assignments_are_ignored() {
    // Two rules derive different values for the same oid in the same step:
    // (†) ignores both, and the value stays undefined at the fixpoint.
    let unit = parse_unit(
        r#"
        schema {
          class P: [v: D];
          relation Src: [a: D];
        }
        program {
          input P, Src;
          output P;
          x^ = [v: "left"]  :- P(x), Src(s);
          x^ = [v: "right"] :- P(x), Src(s);
        }
        "#,
    )
    .unwrap();
    let prog = unit.program.unwrap();
    let mut input = Instance::new(Arc::clone(&prog.input));
    let o = input.create_oid(ClassName::new("P")).unwrap();
    input
        .insert(
            RelName::new("Src"),
            OValue::tuple([("a", OValue::str("go"))]),
        )
        .unwrap();
    let out = run(&prog, &input, &cfg()).unwrap();
    assert!(
        out.output.value(o).is_none(),
        "ambiguous parallel derivations leave ν undefined (condition †)"
    );
}

#[test]
fn first_assignment_wins_forever() {
    // Stage 1 defines ν(x); stage 2 derives a different value — ignored.
    let unit = parse_unit(
        r#"
        schema {
          class P: [v: D];
          relation Src: [a: D];
        }
        program {
          input P, Src;
          output P;
          stage {
            x^ = [v: "first"] :- P(x), Src(s);
          }
          stage {
            x^ = [v: "second"] :- P(x), Src(s);
          }
        }
        "#,
    )
    .unwrap();
    let prog = unit.program.unwrap();
    let mut input = Instance::new(Arc::clone(&prog.input));
    let o = input.create_oid(ClassName::new("P")).unwrap();
    input
        .insert(
            RelName::new("Src"),
            OValue::tuple([("a", OValue::str("go"))]),
        )
        .unwrap();
    let out = run(&prog, &input, &cfg()).unwrap();
    assert_eq!(
        out.output.value(o),
        Some(&OValue::tuple([("v", OValue::str("first"))])),
        "no further changes are made to ν(x) once defined"
    );
}

#[test]
fn agreeing_parallel_assignments_apply() {
    // Two rules derive the SAME value: a single distinct fact — applied.
    let unit = parse_unit(
        r#"
        schema {
          class P: [v: D];
          relation Src: [a: D];
        }
        program {
          input P, Src;
          output P;
          x^ = [v: s] :- P(x), Src(s);
          x^ = [v: t] :- P(x), Src(t);
        }
        "#,
    )
    .unwrap();
    let prog = unit.program.unwrap();
    let mut input = Instance::new(Arc::clone(&prog.input));
    let o = input.create_oid(ClassName::new("P")).unwrap();
    input
        .insert(
            RelName::new("Src"),
            OValue::tuple([("a", OValue::str("only"))]),
        )
        .unwrap();
    let out = run(&prog, &input, &cfg()).unwrap();
    assert_eq!(
        out.output.value(o),
        Some(&OValue::tuple([("v", OValue::str("only"))]))
    );
}

// ---------------------------------------------------------------------
// Invention (valuation-maps)
// ---------------------------------------------------------------------

#[test]
fn parallel_inventions_are_pairwise_distinct() {
    // One rule, k valuations, two invention variables each: 2k distinct
    // oids in a single step ("all inventions happen in parallel, producing
    // distinct oids for each parallel branch").
    let unit = parse_unit(
        r#"
        schema {
          relation Src: [a: D];
          relation Out: [a: D, p: P, q: P];
          class P: [];
        }
        program {
          input Src;
          output Out, P;
          Out(a, p, q) :- Src(a);
        }
        "#,
    )
    .unwrap();
    let prog = unit.program.unwrap();
    let mut input = Instance::new(Arc::clone(&prog.input));
    for i in 0..5 {
        input
            .insert(RelName::new("Src"), OValue::tuple([("a", OValue::int(i))]))
            .unwrap();
    }
    let out = run(&prog, &input, &cfg()).unwrap();
    assert_eq!(out.report.invented, 10);
    assert_eq!(out.output.class(ClassName::new("P")).unwrap().len(), 10);
    assert_eq!(
        out.report.steps, 2,
        "all invention happens in one step (+1 to detect fixpoint)"
    );
}

#[test]
fn invention_guard_stops_reinvention() {
    // Re-running the same rule never re-invents: the extension check finds
    // the existing fact.
    let unit = parse_unit(
        r#"
        schema {
          relation Src: [a: D];
          relation Out: [a: D, p: P];
          class P: [];
        }
        program {
          input Src;
          output Out, P;
          Out(a, p) :- Src(a);
          Out(a, p) :- Src(a), Src(b);
        }
        "#,
    )
    .unwrap();
    let prog = unit.program.unwrap();
    let mut input = Instance::new(Arc::clone(&prog.input));
    for i in 0..3 {
        input
            .insert(RelName::new("Src"), OValue::tuple([("a", OValue::int(i))]))
            .unwrap();
    }
    let out = run(&prog, &input, &cfg()).unwrap();
    // In step 1 the valuation-map hands DISTINCT oids to every (rule, θ):
    // rule 1 fires per a (3), rule 2 per (a, b) pair (9) — 12 inventions.
    // From step 2 on, the "no extension satisfies the head" guard finds
    // the existing facts and nothing more is ever invented.
    assert_eq!(out.output.class(ClassName::new("P")).unwrap().len(), 12);
    assert_eq!(out.report.invented, 12);
    assert_eq!(
        out.report.steps, 2,
        "one productive step, one fixpoint check"
    );
}

// ---------------------------------------------------------------------
// Undefinedness (valuations must be defined on their terms)
// ---------------------------------------------------------------------

#[test]
fn literals_over_undefined_dereferences_do_not_fire() {
    let unit = parse_unit(
        r#"
        schema {
          class P: [v: D];
          relation Known: [x: P];
          relation NotSelf: [x: P];
        }
        program {
          input P;
          output Known, NotSelf;
          Known(x) :- P(x), x^ = [v: n];
          NotSelf(x) :- P(x), x^ != [v: "me"];
        }
        "#,
    )
    .unwrap();
    let prog = unit.program.unwrap();
    let mut input = Instance::new(Arc::clone(&prog.input));
    let p = ClassName::new("P");
    let defined = input.create_oid(p).unwrap();
    let _undefined = input.create_oid(p).unwrap();
    input
        .define_value(defined, OValue::tuple([("v", OValue::str("hello"))]))
        .unwrap();
    let out = run(&prog, &input, &cfg()).unwrap();
    // Both queries silently skip the undefined oid: the valuation is not
    // defined on x̂ for it (Section 3.2, "Satisfaction").
    assert_eq!(out.output.relation(RelName::new("Known")).unwrap().len(), 1);
    assert_eq!(
        out.output.relation(RelName::new("NotSelf")).unwrap().len(),
        1
    );
}

// ---------------------------------------------------------------------
// Set-pattern matching (the coercion programs rely on it)
// ---------------------------------------------------------------------

#[test]
fn set_literal_patterns_match_bijectively() {
    let unit = parse_unit(
        r#"
        schema {
          relation Pairs: [s: {D}];
          relation Split: [a: D, b: D];
        }
        program {
          input Pairs;
          output Split;
          Split(x, y) :- Pairs(S), {x, y} = S, x != y;
        }
        "#,
    )
    .unwrap();
    let prog = unit.program.unwrap();
    let mut input = Instance::new(Arc::clone(&prog.input));
    input
        .insert(
            RelName::new("Pairs"),
            OValue::tuple([("s", OValue::set([OValue::int(1), OValue::int(2)]))]),
        )
        .unwrap();
    // A singleton can't match a two-element pattern.
    input
        .insert(
            RelName::new("Pairs"),
            OValue::tuple([("s", OValue::set([OValue::int(9)]))]),
        )
        .unwrap();
    let out = run(&prog, &input, &cfg()).unwrap();
    // {1,2} splits as (1,2) and (2,1).
    assert_eq!(out.output.relation(RelName::new("Split")).unwrap().len(), 2);
}

// ---------------------------------------------------------------------
// Output projection discipline
// ---------------------------------------------------------------------

#[test]
fn output_is_a_projection_of_the_fixpoint() {
    let prog = iql::lang::programs::graph_to_class_program();
    let mut input = Instance::new(Arc::clone(&prog.input));
    input
        .insert(
            RelName::new("R"),
            OValue::tuple([("src", OValue::str("a")), ("dst", OValue::str("b"))]),
        )
        .unwrap();
    let out = run(&prog, &input, &cfg()).unwrap();
    // Temporaries (R0, Rp, Pp) exist in the fixpoint but not the output.
    assert!(out.full.relation(RelName::new("R0")).is_ok());
    assert!(out.output.relation(RelName::new("R0")).is_err());
    assert!(out.full.class(ClassName::new("Pp")).is_ok());
    assert!(out.output.class(ClassName::new("Pp")).is_err());
    out.output.validate().unwrap();
}

#[test]
fn bad_input_schema_is_rejected() {
    let prog = iql::lang::programs::transitive_closure_program();
    // Hand the program an instance of the WRONG schema.
    let other = SchemaBuilder::new()
        .relation("Whatever", TypeExpr::base())
        .build()
        .unwrap()
        .into_shared();
    let input = Instance::new(other);
    let err = run(&prog, &input, &cfg()).unwrap_err();
    assert!(matches!(err, iql::lang::IqlError::BadInput(_)));
}

// ---------------------------------------------------------------------
// Copies machinery (Section 4.2) through the public API
// ---------------------------------------------------------------------

#[test]
fn copies_and_elimination_roundtrip() {
    use iql::lang::completeness::{check_instance_with_copies, eliminate_copies, make_copies};
    let (genesis, _) = iql::model::instance::genesis_instance();
    let with_copies = make_copies(&genesis, 3).unwrap();
    assert_eq!(
        check_instance_with_copies(&with_copies, &genesis).unwrap(),
        3
    );
    let one = eliminate_copies(&with_copies, genesis.schema()).unwrap();
    assert!(are_o_isomorphic(&one, &genesis));
}

// ---------------------------------------------------------------------
// Runs start from a copy-on-write fork of the input
// ---------------------------------------------------------------------

#[test]
fn invented_oids_ignore_the_input_generator_history() {
    // Equal inputs must give equal outputs, oid numbers included, even when
    // one input's generator ran ahead: here it numbered an object that was
    // later deleted. The run's generator restarts above the live oids.
    let unit = parse_unit(
        r#"
        schema {
          class P: [v: D];
          class Q: [of: D];
          relation Tag: [p: P, q: Q];
        }
        program {
          input P;
          output P, Q, Tag;
          stage { Tag(x, q) :- P(x); }
          stage { q^ = [of: "tagged"] :- Tag(x, q); }
        }
        "#,
    )
    .unwrap();
    let prog = unit.program.unwrap();
    let p = ClassName::new("P");
    let value = |s: &str| OValue::tuple([("v", OValue::str(s))]);

    let mut churned = Instance::new(Arc::clone(&prog.input));
    let mut live = Vec::new();
    for s in ["a", "b"] {
        let o = churned.create_oid(p).unwrap();
        churned.define_value(o, value(s)).unwrap();
        live.push((o, s));
    }
    let dead = churned.create_oid(p).unwrap();
    churned.define_value(dead, value("gone")).unwrap();
    churned.delete_oid(dead).unwrap();

    let mut fresh = Instance::new(Arc::clone(&prog.input));
    for (o, s) in live {
        fresh.adopt_oid(p, o).unwrap();
        fresh.define_value(o, value(s)).unwrap();
    }
    assert_eq!(churned, fresh);

    let a = run(&prog, &churned, &cfg()).unwrap();
    let b = run(&prog, &fresh, &cfg()).unwrap();
    assert_eq!(a.output.class(ClassName::new("Q")).unwrap().len(), 2);
    assert_eq!(a.output, b.output, "same input, same invented oids");
    assert_eq!(a.full, b.full);
}

#[test]
fn insertion_order_and_runs_leave_no_trace() {
    // The run keeps the input's value-id numbering, which follows insertion
    // order; the canonical fire order must make that unobservable. And the
    // input is only ever forked, never written.
    let prog = iql::lang::programs::graph_to_class_program();
    let edges = [("a", "b"), ("b", "c"), ("c", "a"), ("a", "c"), ("d", "a")];
    let build = |order: &[(&str, &str)]| {
        let mut input = Instance::new(Arc::clone(&prog.input));
        for (s, d) in order {
            input
                .insert(
                    RelName::new("R"),
                    OValue::tuple([("src", OValue::str(s)), ("dst", OValue::str(d))]),
                )
                .unwrap();
        }
        input
    };
    let input = build(&edges);
    let (snapshot, nodes) = (input.clone(), input.store().len());
    let first = run(&prog, &input, &cfg()).unwrap();
    for rotation in 1..edges.len() {
        let mut order = edges.to_vec();
        order.rotate_left(rotation);
        order.swap(0, edges.len() - 1);
        let out = run(&prog, &build(&order), &cfg()).unwrap();
        assert_eq!(out.output, first.output, "order {order:?}");
        assert_eq!(out.full, first.full, "order {order:?}");
    }
    assert_eq!(input, snapshot);
    assert_eq!(input.store().len(), nodes, "the run interned into a fork");
    assert_eq!(run(&prog, &input, &cfg()).unwrap().output, first.output);
}

// ---------------------------------------------------------------------
// Head terms are evaluated in the pre-step instance (Section 3.2)
// ---------------------------------------------------------------------

/// A program whose second stage fills the set-valued object `c` and, in
/// the same step, derives `Out(c^)`. `swapped` lists the two rules of that
/// stage the other way round.
fn fill_and_read(swapped: bool) -> String {
    let (fill, read) = ("c^(x) :- Has(c), A(x);", "Out(c^) :- Has(c);");
    let (first, second) = if swapped { (read, fill) } else { (fill, read) };
    format!(
        r#"
        schema {{
          relation A: [v: D];
          relation Has: [c: C];
          relation Out: [s: {{D}}];
          class C: {{D}};
        }}
        program {{
          input A;
          output Out;
          stage {{ Has(c) :- A("k"); }}
          stage {{
            {first}
            {second}
          }}
        }}
        instance {{ A("k"); A("m"); }}
        "#
    )
}

/// `{[s: {e1, …}], …}` over string constants.
fn string_sets(sets: &[&[&str]]) -> BTreeSet<OValue> {
    sets.iter()
        .map(|s| OValue::tuple([("s", OValue::set(s.iter().map(|e| OValue::str(e))))]))
        .collect()
}

/// The evaluator configurations a semantic pin must hold under.
fn arms() -> Vec<EvalConfig> {
    let mut out = Vec::new();
    for threads in [1, 4] {
        for seminaive in [true, false] {
            out.push(
                EvalConfig::builder()
                    .threads(threads)
                    .seminaive(seminaive)
                    .build(),
            );
        }
    }
    out
}

#[test]
fn head_terms_read_the_pre_step_instance_in_any_rule_order() {
    // Step 1 of the second stage adds "k" and "m" to c's set and derives
    // Out(c^) with c^ as it was before the step, {}; step 2 derives
    // Out({"k", "m"}). Listing order of the two rules must not matter.
    let want = string_sets(&[&[], &["k", "m"]]);
    for swapped in [false, true] {
        let unit = parse_unit(&fill_and_read(swapped)).unwrap();
        let (prog, input) = (unit.program.unwrap(), unit.instance.unwrap());
        for cfg in arms() {
            let out = run(&prog, &input, &cfg).unwrap();
            let got = out.output.relation(RelName::new("Out")).unwrap();
            assert_eq!(got, &want, "swapped={swapped} {cfg:?}");
        }
    }
}

#[test]
fn a_set_gaining_k_members_in_one_step_interns_one_set_node() {
    // Step 1 of the second stage adds all k values of A to c's set. The
    // store grows by the same nodes whatever k is — c's oid, its empty
    // default set, Has(c)'s tuple and one new set node — because the k
    // members are written as one set, not as k growing ones.
    let growth = |k: usize, cfg: &EvalConfig| {
        let facts: String = (0..k).map(|i| format!("A(\"v{i}\"); ")).collect();
        let src = format!(
            r#"
            schema {{
              relation A: [v: D];
              relation Has: [c: C];
              class C: {{D}};
            }}
            program {{
              input A;
              output C;
              stage {{ Has(c) :- A("v0"); }}
              stage {{ c^(x) :- Has(c), A(x); }}
            }}
            instance {{ {facts} }}
            "#
        );
        let unit = parse_unit(&src).unwrap();
        let (prog, input) = (unit.program.unwrap(), unit.instance.unwrap());
        let out = run(&prog, &input, cfg).unwrap();
        let c = *out
            .output
            .class(ClassName::new("C"))
            .unwrap()
            .first()
            .unwrap();
        let want = OValue::set((0..k).map(|i| OValue::str(&format!("v{i}"))));
        assert_eq!(out.output.value(c), Some(&want), "k={k} {cfg:?}");
        assert_eq!(out.report.facts_added, k + 1, "Has(c) and k members");
        out.full.store().len() - input.store().len()
    };
    for cfg in arms() {
        let one = growth(1, &cfg);
        assert_eq!(one, 4, "{cfg:?}");
        for k in [2, 8, 40] {
            assert_eq!(growth(k, &cfg), one, "k={k} {cfg:?}");
        }
    }
}

#[test]
fn a_fired_deletion_deletes_the_fact_its_guard_saw() {
    // `del Out(c^)` fires in the step that fills c's set, because Out({})
    // holds before it; the fact deleted is that one, not Out(c^) read after
    // the fill.
    let src = r#"
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
          stage { Out({}); }
          stage {
            c^(x) :- Has(c), A(x);
            del Out(c^) :- Has(c);
          }
        }
        instance { A("k"); A("m"); }
    "#;
    let unit = parse_unit(src).unwrap();
    let (prog, input) = (unit.program.unwrap(), unit.instance.unwrap());
    for cfg in arms() {
        let out = run(&prog, &input, &cfg).unwrap();
        let got = out.output.relation(RelName::new("Out")).unwrap();
        assert!(got.is_empty(), "{cfg:?}: Out = {got:?}");
        assert_eq!(out.report.facts_deleted, 1, "{cfg:?}");
    }
}
