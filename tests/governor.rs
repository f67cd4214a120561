//! Integration tests for the resource-governance subsystem: deadlines,
//! deterministic budgets, cancellation tokens, and contained worker panics
//! across both the IQL evaluator and the Datalog baseline.
//!
//! The randomized governor properties live in `tests/proptests.rs`.

use iql::datalog::{
    eval_governed as dl_eval_governed, eval_with as dl_eval_with, parse_program, Database, DlError,
    Strategy,
};
use iql::exec::TEST_PANIC_RULE;
use iql::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The divergent chain-grower from `examples/iql/divergent.iql`: every
/// step invents a fresh oid for the head-only class-typed variable `z`,
/// so the fixpoint never closes.
const DIVERGENT: &str = r#"
schema {
  class Node: [tag: D];
  relation R3: [src: Node, dst: Node];
}
program {
  input Node, R3;
  output R3;
  R3(y, z) :- R3(x, y);
}
instance {
  Node(a); a^ = [tag: "seed-a"];
  Node(b); b^ = [tag: "seed-b"];
  R3(a, b);
}
"#;

/// Two independent rules over a shared input; used for panic-containment
/// tests (rule 0 is sacrificed, rule 1 must survive).
const TWO_RULES: &str = r#"
schema {
  relation Edge: [s: D, d: D];
  relation A: [x: D];
  relation B: [x: D];
}
program {
  input Edge;
  output A, B;
  A(x) :- Edge(x, y);
  B(y) :- Edge(x, y);
}
instance {
  Edge("a", "b");
  Edge("b", "c");
  Edge("c", "d");
}
"#;

fn parsed(src: &str) -> (Program, Instance) {
    let unit = parse_unit(src).expect("test program parses");
    (
        unit.program.expect("program block"),
        unit.instance.expect("instance block"),
    )
}

/// Sorted rendering of an instance's ground facts, for exact comparison
/// of partial results across engine configurations.
fn facts(inst: &Instance) -> Vec<String> {
    let mut v: Vec<String> = inst.ground_facts().iter().map(|f| f.to_string()).collect();
    v.sort();
    v
}

/// A named budget scenario: a label, the builder knob that sets the
/// budget, and the abort reason it must produce.
type BudgetCase = (
    &'static str,
    fn(EvalConfigBuilder) -> EvalConfigBuilder,
    fn(&AbortReason) -> bool,
);

fn expect_aborted(outcome: RunOutcome) -> Aborted {
    match outcome {
        RunOutcome::Aborted(a) => *a,
        RunOutcome::Complete(_) => panic!("expected an aborted run, got a completed fixpoint"),
    }
}

// ---------------------------------------------------------------------
// IQL: asynchronous trips (deadline, cancellation)
// ---------------------------------------------------------------------

#[test]
fn deadline_stops_divergent_run_at_any_thread_count() {
    let deadline = Duration::from_millis(300);
    for threads in [1usize, 2, 4] {
        let (prog, inst) = parsed(DIVERGENT);
        let cfg = EvalConfig::builder()
            .threads(threads)
            .deadline(deadline)
            .build();
        let outcome = Engine::new(prog)
            .with_config(cfg)
            .run_governed(&inst)
            .expect("governed run is not an error");
        let aborted = expect_aborted(outcome);
        assert_eq!(aborted.reason, AbortReason::Deadline, "threads={threads}");
        assert!(
            aborted.elapsed < deadline * 2,
            "threads={threads}: stopped only after {:?}",
            aborted.elapsed
        );
        assert!(aborted.at_step > 0, "threads={threads}");
        // The partial result is the last consistent snapshot: the seed
        // fact plus one chain link per completed step.
        let partial = facts(&aborted.partial.output);
        assert!(!partial.is_empty(), "threads={threads}");
        assert!(partial.len() >= aborted.at_step, "threads={threads}");
    }
}

#[test]
fn pre_set_cancel_token_aborts_before_the_first_step() {
    let (prog, inst) = parsed(DIVERGENT);
    let token = Arc::new(AtomicBool::new(true));
    let cfg = EvalConfig::builder()
        .cancel_token(Arc::clone(&token))
        .build();
    let aborted = expect_aborted(
        Engine::new(prog)
            .with_config(cfg)
            .run_governed(&inst)
            .unwrap(),
    );
    assert_eq!(aborted.reason, AbortReason::Cancelled);
    assert_eq!(aborted.at_step, 0);
    // Nothing was derived: the partial is just the seeded input.
    assert_eq!(facts(&aborted.partial.output), facts(&aborted.partial.full));
}

#[test]
fn cancel_token_flipped_mid_run_stops_the_run() {
    let (prog, inst) = parsed(DIVERGENT);
    let token = Arc::new(AtomicBool::new(false));
    let cfg = EvalConfig::builder()
        .threads(2)
        .cancel_token(Arc::clone(&token))
        .build();
    let flipper = {
        let token = Arc::clone(&token);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            token.store(true, Ordering::Relaxed);
        })
    };
    let start = Instant::now();
    let aborted = expect_aborted(
        Engine::new(prog)
            .with_config(cfg)
            .run_governed(&inst)
            .unwrap(),
    );
    flipper.join().unwrap();
    assert_eq!(aborted.reason, AbortReason::Cancelled);
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "cancellation token ignored for {:?}",
        start.elapsed()
    );
    assert!(!facts(&aborted.partial.output).is_empty());
}

// ---------------------------------------------------------------------
// IQL: deterministic budgets — the abort-reason × engine-config matrix
// ---------------------------------------------------------------------

/// Step-boundary budgets are deterministic: the same budget must produce
/// the same abort reason AND the same partial result at every thread
/// count and under every planner/seminaive combination, because budget
/// checks only happen between steps and step semantics are confluent.
#[test]
fn deterministic_budgets_abort_identically_across_engine_configs() {
    let budgets: &[BudgetCase] = &[
        (
            "step limit",
            |b| b.max_steps(25),
            |r| matches!(r, AbortReason::StepLimit { limit: 25 }),
        ),
        (
            "fact budget",
            |b| b.max_facts(60),
            |r| matches!(r, AbortReason::FactBudget { limit: 60 }),
        ),
        (
            "oid budget",
            |b| b.max_oids(40),
            |r| matches!(r, AbortReason::OidBudget { limit: 40 }),
        ),
    ];
    for (name, setup, is_expected) in budgets {
        let mut reference: Option<Vec<String>> = None;
        for threads in [1usize, 2, 4] {
            for seminaive in [true, false] {
                for planner in [true, false] {
                    let (prog, inst) = parsed(DIVERGENT);
                    let cfg = setup(EvalConfig::builder())
                        .threads(threads)
                        .seminaive(seminaive)
                        .planner(planner)
                        .build();
                    let aborted = expect_aborted(
                        Engine::new(prog)
                            .with_config(cfg)
                            .run_governed(&inst)
                            .unwrap(),
                    );
                    assert!(
                        is_expected(&aborted.reason),
                        "{name} (threads={threads} seminaive={seminaive} planner={planner}): \
                         got {:?}",
                        aborted.reason
                    );
                    let partial = facts(&aborted.partial.output);
                    assert!(!partial.is_empty(), "{name}: empty partial");
                    match &reference {
                        None => reference = Some(partial),
                        Some(expected) => assert_eq!(
                            &partial, expected,
                            "{name} (threads={threads} seminaive={seminaive} \
                             planner={planner}): partial result diverged"
                        ),
                    }
                }
            }
        }
    }
}

/// Store budgets trip deterministically across thread counts (store
/// growth per step is merge-order-independent).
#[test]
fn store_budgets_trip_identically_across_thread_counts() {
    let budgets: &[BudgetCase] = &[
        (
            "store nodes",
            |b| b.max_store_nodes(120),
            |r| matches!(r, AbortReason::StoreBudget { limit: 120 }),
        ),
        (
            "store bytes",
            |b| b.max_store_bytes(4096),
            |r| matches!(r, AbortReason::MemoryBudget { limit: 4096 }),
        ),
    ];
    for (name, setup, is_expected) in budgets {
        let mut reference: Option<Vec<String>> = None;
        for threads in [1usize, 2, 4] {
            let (prog, inst) = parsed(DIVERGENT);
            let cfg = setup(EvalConfig::builder()).threads(threads).build();
            let aborted = expect_aborted(
                Engine::new(prog)
                    .with_config(cfg)
                    .run_governed(&inst)
                    .unwrap(),
            );
            assert!(
                is_expected(&aborted.reason),
                "{name} (threads={threads}): got {:?}",
                aborted.reason
            );
            let partial = facts(&aborted.partial.output);
            match &reference {
                None => reference = Some(partial),
                Some(expected) => assert_eq!(&partial, expected, "{name} threads={threads}"),
            }
        }
    }
}

/// A budget-tripped partial is a prefix of the (finite) full run: rerun
/// the divergent program under a looser step limit and check containment.
#[test]
fn budget_partial_is_a_prefix_of_a_longer_run() {
    let run_with_steps = |max_steps: usize| {
        let (prog, inst) = parsed(DIVERGENT);
        let cfg = EvalConfig::builder().max_steps(max_steps).build();
        let aborted = expect_aborted(
            Engine::new(prog)
                .with_config(cfg)
                .run_governed(&inst)
                .unwrap(),
        );
        facts(&aborted.partial.output)
    };
    let short = run_with_steps(10);
    let long = run_with_steps(30);
    for fact in &short {
        assert!(long.contains(fact), "{fact} lost between step 10 and 30");
    }
    assert!(long.len() > short.len());
}

// ---------------------------------------------------------------------
// IQL: contained worker panics
// ---------------------------------------------------------------------

/// Injected through the same thread-local hook as the Datalog case below.
#[test]
fn worker_panic_is_contained_and_sibling_rules_survive() {
    TEST_PANIC_RULE.set(0);
    for threads in [1usize, 2] {
        let (prog, inst) = parsed(TWO_RULES);
        let cfg = EvalConfig::builder().threads(threads).build();
        let aborted = expect_aborted(
            Engine::new(prog)
                .with_config(cfg)
                .run_governed(&inst)
                .unwrap(),
        );
        assert_eq!(
            aborted.reason,
            AbortReason::WorkerPanic { rule: 0 },
            "threads={threads}"
        );
        let partial = facts(&aborted.partial.output);
        // Rule 1 (B) ran in the same step and its derivations are kept;
        // rule 0 (A) panicked before deriving anything.
        assert!(
            partial.iter().any(|f| f.starts_with("B(")),
            "threads={threads}: sibling rule's facts lost: {partial:?}"
        );
        assert!(
            partial.iter().all(|f| !f.starts_with("A(")),
            "threads={threads}: panicked rule still derived: {partial:?}"
        );
        assert_eq!(aborted.reason.exit_code(), 101);
    }
    TEST_PANIC_RULE.set(usize::MAX);
}

// ---------------------------------------------------------------------
// Datalog: the same guard surface on the baseline engine
// ---------------------------------------------------------------------

const DL_TC: &str = "Tc(x, y) :- Edge(x, y). Tc(x, z) :- Tc(x, y), Edge(y, z).";

fn dl_chain(n: i64) -> Database {
    let mut db = Database::new();
    for i in 0..n {
        db.insert("Edge", vec![Constant::int(i), Constant::int(i + 1)])
            .unwrap();
    }
    db
}

#[test]
fn datalog_round_limit_returns_partial_database() {
    let prog = parse_program(DL_TC).unwrap();
    let edb = dl_chain(6);
    let gov = Governor::unlimited().with_max_steps(2);
    let mut reference: Option<usize> = None;
    for strategy in [
        Strategy::Naive,
        Strategy::SemiNaive,
        Strategy::Inflationary,
        Strategy::Stratified,
    ] {
        for threads in [1usize, 4] {
            let (db, stats) = dl_eval_governed(&prog, &edb, strategy, threads, &gov).unwrap();
            assert_eq!(
                stats.trip,
                Some(AbortReason::StepLimit { limit: 2 }),
                "{strategy:?} threads={threads}"
            );
            // Partial: more than the EDB, less than the full closure.
            assert!(db.size() > edb.size(), "{strategy:?} threads={threads}");
            let full = dl_eval_with(&prog, &edb, strategy, 1).unwrap().0;
            assert!(db.size() < full.size(), "{strategy:?} threads={threads}");
            match reference {
                None => reference = Some(db.size()),
                Some(expected) => assert_eq!(
                    db.size(),
                    expected,
                    "{strategy:?} threads={threads}: partial size diverged"
                ),
            }
        }
    }
}

#[test]
fn datalog_fact_budget_trips() {
    let prog = parse_program(DL_TC).unwrap();
    let edb = dl_chain(8);
    let gov = Governor::unlimited().with_max_facts(12);
    let (db, stats) = dl_eval_governed(&prog, &edb, Strategy::SemiNaive, 2, &gov).unwrap();
    assert_eq!(stats.trip, Some(AbortReason::FactBudget { limit: 12 }));
    assert!(db.size() > 12, "trip fires once the budget is exceeded");
}

#[test]
fn datalog_pre_set_cancel_returns_the_edb() {
    let prog = parse_program(DL_TC).unwrap();
    let edb = dl_chain(4);
    let token = Arc::new(AtomicBool::new(true));
    let gov = Governor::unlimited().with_cancel_token(Arc::clone(&token));
    let (db, stats) = dl_eval_governed(&prog, &edb, Strategy::SemiNaive, 1, &gov).unwrap();
    assert_eq!(stats.trip, Some(AbortReason::Cancelled));
    assert_eq!(db.size(), edb.size());
}

#[test]
fn datalog_deadline_stops_a_heavy_closure() {
    let prog = parse_program(DL_TC).unwrap();
    // The closure must take several times the deadline to complete: a
    // 3000-node chain derives about 4.5M tuples over 3000 rounds.
    let edb = dl_chain(3000);
    let deadline = Duration::from_millis(500);
    for threads in [1usize, 4] {
        let gov = Governor::unlimited().with_deadline(deadline);
        let start = Instant::now();
        let (db, stats) =
            dl_eval_governed(&prog, &edb, Strategy::SemiNaive, threads, &gov).unwrap();
        let took = start.elapsed();
        assert_eq!(stats.trip, Some(AbortReason::Deadline), "threads={threads}");
        assert!(
            took < deadline * 2,
            "threads={threads}: stopped only after {took:?}"
        );
        // The interrupted round is discarded wholesale, so the partial is
        // a consistent round boundary: at least the EDB survives.
        assert!(db.size() >= edb.size(), "threads={threads}");
    }
}

/// The `TEST_PANIC_RULE` switch is thread-local and read once per
/// evaluation on the calling thread, so it reaches the worker threads of
/// this test's evaluations and no evaluation of a concurrently running test.
#[test]
fn datalog_worker_panic_is_contained() {
    let prog = parse_program("A(y) :- Edge(x, y). B(x) :- Edge(x, y).").unwrap();
    let edb = dl_chain(3);
    TEST_PANIC_RULE.set(0);
    // Governed entry point: graceful — rule 1's tuples survive the round.
    let (db, stats) =
        dl_eval_governed(&prog, &edb, Strategy::Naive, 2, &Governor::unlimited()).unwrap();
    assert_eq!(stats.trip, Some(AbortReason::WorkerPanic { rule: 0 }));
    assert!(db.relation("B").is_some_and(|r| !r.is_empty()));
    assert!(db.relation("A").is_none_or(|r| r.is_empty()));
    // Legacy entry point: a contained panic is a fault, not a budget.
    let err = dl_eval_with(&prog, &edb, Strategy::Naive, 2).unwrap_err();
    assert_eq!(err, DlError::WorkerPanic { rule: 0 });
    // The recursive rule of the closure first runs in a delta-driven
    // round: round 1 derives `Tc = Edge`, and its only task panics in
    // round 2.
    let tc = parse_program(DL_TC).unwrap();
    TEST_PANIC_RULE.set(1);
    for strategy in [Strategy::SemiNaive, Strategy::Stratified] {
        let (db, stats) = dl_eval_governed(&tc, &edb, strategy, 2, &Governor::unlimited()).unwrap();
        assert_eq!(stats.trip, Some(AbortReason::WorkerPanic { rule: 1 }));
        assert_eq!(stats.rounds, 2, "{strategy:?}");
        assert_eq!(db.relation("Tc"), db.relation("Edge"), "{strategy:?}");
        let err = dl_eval_with(&tc, &edb, strategy, 2).unwrap_err();
        assert_eq!(err, DlError::WorkerPanic { rule: 1 });
    }
    TEST_PANIC_RULE.set(usize::MAX);
}
