//! Pinned evaluation counters: what the evaluator computes on the example
//! programs must not change when its search strategy does.

use iql_core::eval::explain_rule;
use iql_core::parser::parse_unit;
use iql_core::{run, EvalConfig, IqlError};
use iql_model::Instance;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The deterministic counters and fact counts of every terminating example
/// program and of a set-pattern program, at one and four workers:
/// `(steps, invented, facts_added, enum_fallbacks, facts_deleted, rule
/// fires, output facts, full facts)`.
#[test]
fn eval_report_is_pinned() {
    let split = r#"
        schema {
          relation Pairs: [s: {D}];
          relation Split: [a: D, b: D];
        }
        program {
          input Pairs;
          output Split;
          Split(x, y) :- Pairs(S), {x, y} = S, x != y;
        }
        instance {
          Pairs({1, 2});
          Pairs({9});
        }
    "#;
    let cases = [
        (
            "deletions",
            include_str!("../../../examples/iql/deletions.iql"),
            (2, 0, 0, 0, 2, 2, 3, 4),
        ),
        (
            "genesis",
            include_str!("../../../examples/iql/genesis.iql"),
            (2, 0, 2, 0, 0, 2, 2, 16),
        ),
        (
            "graph",
            include_str!("../../../examples/iql/graph.iql"),
            (8, 6, 13, 0, 0, 18, 6, 23),
        ),
        (
            "powerset",
            include_str!("../../../examples/iql/powerset.iql"),
            (10, 64, 216, 0, 0, 278, 8, 283),
        ),
        (
            "tc",
            include_str!("../../../examples/iql/tc.iql"),
            (4, 0, 6, 0, 0, 6, 6, 9),
        ),
        (
            "university",
            include_str!("../../../examples/iql/university.iql"),
            (2, 0, 2, 0, 0, 2, 2, 8),
        ),
        ("split", split, (2, 0, 2, 0, 0, 2, 2, 4)),
    ];
    for (name, src, want) in cases {
        let unit = parse_unit(src).unwrap();
        let prog = unit.program.unwrap();
        let input = unit
            .instance
            .unwrap_or_else(|| Instance::new(Arc::clone(&prog.input)));
        for threads in [1, 4] {
            let cfg = EvalConfig::builder().threads(threads).build();
            let out = run(&prog, &input, &cfg).unwrap();
            let r = &out.report;
            let got = (
                r.steps,
                r.invented,
                r.facts_added,
                r.enum_fallbacks,
                r.facts_deleted,
                r.rule_fires.values().sum::<usize>(),
                out.output.fact_count(),
                out.full.fact_count(),
            );
            assert_eq!(got, want, "{name} at {threads} threads");
        }
    }
}

/// An enumeration behind a scan of an empty relation is never reached, so
/// its budget cannot trip; the plan's fallback is still counted.
#[test]
fn unreached_enumeration_raises_nothing() {
    let src = |edge: &str| {
        format!(
            r#"
            schema {{
              relation E:  [a: D];
              relation R:  [a: D];
              relation R1: [s: {{D}}];
            }}
            program {{
              input E, R;
              output R1;
              var X: {{D}};
              R1(X) :- E(x), X = X;
            }}
            instance {{
              {edge}
              R(0); R(1); R(2); R(3); R(4); R(5); R(6); R(7); R(8); R(9);
            }}
            "#
        )
    };
    let cfg = EvalConfig::builder().enum_budget(16).build(); // 2^10 subsets won't fit
    let unit = parse_unit(&src("")).unwrap();
    let prog = unit.program.unwrap();
    assert!(explain_rule(&prog.stages[0].rules[0])
        .unwrap()
        .contains("1: enumerate X"));
    let out = run(&prog, &unit.instance.unwrap(), &cfg).unwrap();
    assert_eq!(out.report.counters(), (1, 0, 0, 1, 0, &BTreeMap::new()));
    // With E non-empty the enumeration is reached and its budget trips.
    let unit = parse_unit(&src("E(0);")).unwrap();
    let err = run(&unit.program.unwrap(), &unit.instance.unwrap(), &cfg).unwrap_err();
    assert!(
        matches!(err, IqlError::EnumBudget { budget: 16, .. }),
        "{err:?}"
    );
}
