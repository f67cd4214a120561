//! Integration tests pinning IQL\* (deletions, Section 4.5) corner cases
//! and the interaction of additions and deletions within one step.

#![deny(deprecated)]

use iql::model::{Node, ValueReader};
use iql::prelude::*;
use std::sync::Arc;

fn cfg() -> EvalConfig {
    EvalConfig::default()
}

#[test]
fn deletion_wins_over_same_step_addition() {
    // Add(x) and Del(x) both applicable in the same step: our documented
    // conflict policy is deletion-wins (the paper leaves the policy to the
    // *-language machinery; see eval.rs module docs).
    let unit = parse_unit(
        r#"
        schema {
          relation Src: [a: D];
          relation Out: [a: D];
        }
        program {
          input Src, Out;
          output Out;
          Out(x) :- Src(x);
          del Out(x) :- Src(x), Out(x);
        }
        "#,
    )
    .unwrap();
    let prog = unit.program.unwrap();
    let mut input = Instance::new(Arc::clone(&prog.input));
    input
        .insert(
            RelName::new("Src"),
            OValue::tuple([("a", OValue::str("v"))]),
        )
        .unwrap();
    // Pre-populate Out so the delete rule fires in step 1 alongside the add.
    input
        .insert(
            RelName::new("Out"),
            OValue::tuple([("a", OValue::str("v"))]),
        )
        .unwrap();
    // This program oscillates (add when absent, delete when present); the
    // step limit is the documented backstop.
    let mut c = cfg();
    c.max_steps = 10;
    let err = run(&prog, &input, &c).unwrap_err();
    assert!(matches!(err, iql::lang::IqlError::StepLimit { .. }));
}

#[test]
fn delete_set_members() {
    let unit = parse_unit(
        r#"
        schema {
          class Box: {D};
          relation Banned: [b: D];
          relation Holder: [h: Box];
        }
        program {
          input Box, Banned, Holder;
          output Box, Holder;
          del x^(v) :- Holder(x), Banned(v), x^(v);
        }
        "#,
    )
    .unwrap();
    let prog = unit.program.unwrap();
    let mut input = Instance::new(Arc::clone(&prog.input));
    let b = input.create_oid(ClassName::new("Box")).unwrap();
    for v in ["keep", "drop1", "drop2"] {
        input.add_set_member(b, OValue::str(v)).unwrap();
    }
    for v in ["drop1", "drop2"] {
        input
            .insert(
                RelName::new("Banned"),
                OValue::tuple([("b", OValue::str(v))]),
            )
            .unwrap();
    }
    input
        .insert(
            RelName::new("Holder"),
            OValue::tuple([("h", OValue::oid(b))]),
        )
        .unwrap();
    let out = run(&prog, &input, &cfg()).unwrap();
    assert_eq!(
        out.output.value(b),
        Some(&OValue::set([OValue::str("keep")]))
    );
}

#[test]
fn deleting_an_oid_in_a_set_value_cascades() {
    let unit = parse_unit(
        r#"
        schema {
          class Team: {Player};
          class Player: [name: D];
          relation Cut: [n: D];
        }
        program {
          input Team, Player, Cut;
          output Team, Player;
          del Player(p) :- Cut(n), Player(p), p^ = [name: n];
        }
        "#,
    )
    .unwrap();
    let prog = unit.program.unwrap();
    let mut input = Instance::new(Arc::clone(&prog.input));
    let team = input.create_oid(ClassName::new("Team")).unwrap();
    let p1 = input.create_oid(ClassName::new("Player")).unwrap();
    let p2 = input.create_oid(ClassName::new("Player")).unwrap();
    input
        .define_value(p1, OValue::tuple([("name", OValue::str("ann"))]))
        .unwrap();
    input
        .define_value(p2, OValue::tuple([("name", OValue::str("bob"))]))
        .unwrap();
    input.add_set_member(team, OValue::oid(p1)).unwrap();
    input.add_set_member(team, OValue::oid(p2)).unwrap();
    input
        .insert(
            RelName::new("Cut"),
            OValue::tuple([("n", OValue::str("ann"))]),
        )
        .unwrap();
    let out = run(&prog, &input, &cfg()).unwrap();
    // ann's oid left Player AND the team's set value.
    assert_eq!(out.output.class(ClassName::new("Player")).unwrap().len(), 1);
    assert_eq!(
        out.output.value(team),
        Some(&OValue::set([OValue::oid(p2)]))
    );
    out.output.validate().unwrap();
}

#[test]
fn insert_then_delete_across_stages_is_deterministic() {
    // Stage 1 inserts everything; stage 2 deletes the flagged ones — the
    // staged (stratified) idiom, no oscillation.
    let unit = parse_unit(
        r#"
        schema {
          relation Src: [a: D];
          relation Flag: [a: D];
          relation Out: [a: D];
        }
        program {
          input Src, Flag;
          output Out;
          stage {
            Out(x) :- Src(x);
          }
          stage {
            del Out(x) :- Flag(x);
          }
        }
        "#,
    )
    .unwrap();
    let prog = unit.program.unwrap();
    let mut input = Instance::new(Arc::clone(&prog.input));
    for v in ["a", "b", "c"] {
        input
            .insert(RelName::new("Src"), OValue::tuple([("a", OValue::str(v))]))
            .unwrap();
    }
    input
        .insert(
            RelName::new("Flag"),
            OValue::tuple([("a", OValue::str("b"))]),
        )
        .unwrap();
    let out = run(&prog, &input, &cfg()).unwrap();
    assert_eq!(out.output.relation(RelName::new("Out")).unwrap().len(), 2);
    assert_eq!(out.report.facts_deleted, 1);
}

/// Asserts that every built `(r, attr)` column index of `inst` equals an
/// index rebuilt from scratch over the relation's current rows, lists
/// exactly the facts whose `attr` field holds each key, and returns how
/// many were checked.
fn assert_indexes_match_rebuild(inst: &Instance) -> usize {
    let mut checked = 0;
    for r in inst.schema().relations() {
        let TypeExpr::Tuple(fields) = inst.schema().relation_type(r).unwrap() else {
            continue;
        };
        let rows = inst.relation_rows(r).unwrap();
        for &attr in fields.keys() {
            let Some(built) = inst.rel_index(r, attr) else {
                continue;
            };
            let col = inst
                .id_view()
                .rel_column(r, attr)
                .expect("an indexed attribute has a column");
            assert_eq!(
                built,
                &rows.index_over(col, rows.all()),
                "stale ({r}, {attr}) index"
            );
            for fid in inst.relation_ids(r).unwrap() {
                let Node::Tuple(fs) = inst.store().node(fid) else {
                    panic!("({r}) holds a non-tuple fact {fid:?}")
                };
                let (_, key) = fs.iter().find(|(a, _)| *a == attr).expect("typed fact");
                let listed = rows
                    .positions(rows.all(), Some((built, *key)))
                    .any(|pos| rows.tuple_at(pos)[0] == fid);
                assert!(listed, "({r}, {attr}) misses {fid:?}");
            }
            checked += 1;
        }
    }
    checked
}

#[test]
fn indexes_match_a_rebuild_after_deletions() {
    // Stage 1 builds indexes while closing T, stage 2 deletes from T (which
    // drops T's indexes, rebuilt on the next plan), and stage 3 inserts into
    // T again through the rebuilt indexes.
    let unit = parse_unit(
        r#"
        schema {
          relation E: [src: D, dst: D];
          relation Cut: [n: D];
          relation Extra: [src: D, dst: D];
          relation T: [src: D, dst: D];
          relation U: [src: D, dst: D];
        }
        program {
          input E, Cut, Extra;
          output T, U;
          stage {
            T(x, y) :- E(x, y);
            T(x, z) :- T(x, y), E(y, z);
          }
          stage {
            del T(x, y) :- T(x, y), Cut(y);
          }
          stage {
            U(x, z) :- T(x, y), E(y, z);
            T(x, y) :- Extra(x, y);
          }
        }
        instance {
          E("a", "b"); E("b", "c"); E("c", "d"); E("d", "e");
          Cut("c");
          Extra("e", "a"); Extra("c", "a");
        }
        "#,
    )
    .unwrap();
    let prog = unit.program.unwrap();
    let input = unit.instance.unwrap();
    for planner in [true, false] {
        let cfg = EvalConfig::builder().planner(planner).build();
        let out = run(&prog, &input, &cfg).unwrap();
        assert!(out.report.facts_deleted > 0);
        assert!(
            assert_indexes_match_rebuild(&out.full) > 0,
            "planner={planner}: no index was built"
        );
    }
}

#[test]
fn flattener_program_is_available_from_public_api() {
    // The Prop-4.2.2 compiler end-to-end through the umbrella crate.
    use iql::lang::encode::{decode, flat_schema, generate_flattener};
    let (genesis, _) = iql::model::instance::genesis_instance();
    let prog = generate_flattener(genesis.schema()).unwrap();
    // The generated program is honest IQL: it classifies, prints, reparses.
    let reparsed = parse_unit(&prog.to_source()).unwrap().program.unwrap();
    assert_eq!(reparsed.stages, prog.stages);
    let out = run(&prog, &genesis.project(&prog.input).unwrap(), &cfg()).unwrap();
    let back = decode(
        &out.output.project(&Arc::new(flat_schema())).unwrap(),
        genesis.schema(),
    )
    .unwrap();
    assert!(iql::model::iso::are_o_isomorphic(&back, &genesis));
}
