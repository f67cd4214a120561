//! # iql-exec — the shared execution runtime
//!
//! Both engines in this workspace — the IQL evaluator (`iql-core`) and the
//! relational Datalog baseline (`iql-datalog`) — bottom out in the same
//! execution shape: the per-step/per-round work is fanned out over a
//! deterministic worker pool, and the whole run is supervised by a
//! resource governor. This crate is that shared substrate. Each engine
//! owns its plan: IQL's planner lowers a rule body into its own operator
//! enum, and Datalog walks its compiled positive atoms, then its negative
//! atoms, directly — the two share only the probe-column policy.
//!
//! * [`probe`] — [`choose_probe`], the one probe-column policy both
//!   engines apply to `(candidate, distinct-key count)` pairs;
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
//! The crate depends on nothing (not even the data model): tuple
//! representations, statistics and error types are all supplied by the
//! engines.

pub mod driver;
pub mod govern;
pub mod probe;

pub use driver::{chunk_ranges, effective_threads, run_tasks, TEST_PANIC_RULE};
pub use govern::{AbortReason, Governor, Pacer};
pub use probe::choose_probe;
