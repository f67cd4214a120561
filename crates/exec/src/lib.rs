//! # iql-exec — the shared execution runtime
//!
//! Both engines in this workspace — the IQL evaluator (`iql-core`) and the
//! relational Datalog baseline (`iql-datalog`) — bottom out in the same
//! execution shape: rules are lowered to a short program of physical
//! operators (scan, index probe, bind-equality, filter, negation guard),
//! the per-step/per-round work is fanned out over a deterministic worker
//! pool, and the whole run is supervised by a resource governor. This
//! crate is that shared substrate, extracted so each engine contributes
//! only its *language*: how patterns match and what a tuple is.
//!
//! * [`ir`] — the physical-plan IR: [`ir::PhysOp`], generic over a
//!   [`ir::PlanLang`] (the engine-specific operand types), plus the
//!   abstract [`ir::Storage`] cardinality interface and the shared
//!   probe-column choice both planners use;
//! * [`driver`] — the worker-pool driver: a fixed task list executed by a
//!   scoped pool with slot-per-task collection, so results merge in task
//!   order regardless of thread count ([`driver::run_tasks`]);
//! * [`govern`] — the resource governor: budgets, deadline, cancellation,
//!   and the strided [`govern::Pacer`] workers poll mid-task.
//!
//! Each engine keeps its own semi-naive early exit, one quantifier over its
//! sources: IQL runs a rule when *any* scan source gained facts, Datalog
//! when *all* its positive sources are non-empty.
//!
//! The crate depends on nothing (not even the data model): operand types,
//! tuple representations, and error types are all supplied by the engines.

pub mod driver;
pub mod govern;
pub mod ir;

pub use driver::{chunk_ranges, effective_threads, run_tasks};
pub use govern::{AbortReason, Governor, Pacer};
pub use ir::{choose_probe, PhysOp, PlanLang, Storage};
