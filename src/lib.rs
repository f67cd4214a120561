//! # iql — Object Identity as a Query Language Primitive
//!
//! An open-source reproduction of Serge Abiteboul and Paris C. Kanellakis,
//! *Object Identity as a Query Language Primitive* (SIGMOD 1989; journal
//! version JACM 45(5), 1998): the object-based data model, the IQL query
//! language (with IQL⁺ `choose` and IQL\* deletions), its PTIME
//! sublanguages, type inheritance, and the value-based regular-tree model —
//! plus the Datalog and complex-object-algebra baselines the paper compares
//! against.
//!
//! This crate is an umbrella re-exporting the workspace members:
//!
//! * [`model`] — o-values, types, schemas, instances, isomorphism,
//!   inheritance (paper Sections 2, 4.1, 6);
//! * [`lang`] — the IQL language: parser, type checker, evaluator,
//!   sublanguage analysis (Sections 3–5);
//! * [`exec`] — the shared execution runtime both engines run on: the
//!   deterministic worker-pool driver, the resource governor, and the
//!   probe-column policy;
//! * [`datalog`] — a standalone relational Datalog engine (naive,
//!   semi-naive, stratified/inflationary negation) as the rule-language
//!   baseline;
//! * [`algebra`] — a complex-object algebra (nest/unnest/powerset) as the
//!   algebraic baseline (Section 3.4);
//! * [`vtree`] — regular trees, bisimulation, and the φ/ψ translations of
//!   the value-based model (Section 7).
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory, and
//! `EXPERIMENTS.md` for the reproduction of every example, figure, and
//! complexity theorem in the paper.

pub use iql_algebra as algebra;
pub use iql_core as lang;
pub use iql_core::Engine;
pub use iql_datalog as datalog;
pub use iql_exec as exec;
pub use iql_model as model;
pub use iql_vtree as vtree;

/// Convenience prelude for examples and downstream users.
pub mod prelude {
    pub use iql_core::engine::Engine;
    pub use iql_core::eval::{
        run, run_governed, EvalConfig, EvalConfigBuilder, EvalOutput, EvalReport,
    };
    pub use iql_core::govern::{AbortReason, Aborted, Governor, RunOutcome};
    pub use iql_core::parser::parse_unit;
    pub use iql_core::{Head, Literal, Program, ProgramBuilder, Rule, Term};
    pub use iql_datalog::Strategy;
    pub use iql_model::{
        AttrName, ClassName, Constant, Instance, OValue, Oid, RelName, Schema, SchemaBuilder,
        TypeExpr,
    };
}
