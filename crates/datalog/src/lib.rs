//! # iql-datalog — the relational rule-language baseline
//!
//! The paper grounds IQL in "popular rule-based formalisms" (Sections 3.4
//! and 5): on relational schemas, IQL restricted to flat tuples *is*
//! Datalog, and Datalog with inflationary or stratified negation embeds
//! verbatim. This crate is a standalone relational Datalog engine used as
//! the baseline for experiment E11 (IQL-as-Datalog vs. a dedicated engine):
//!
//! * [`ast`] — flat rules over constant tuples, with a small text parser,
//!   and the [`Database`] they run on. A database stores only the ids of
//!   its constants, interned into an [`iql_model::ValueStore`] — the one
//!   interner both engines use, since a Datalog constant is an o-value: it
//!   is loaded once, and a relation is read in place through the borrowed
//!   view [`Database::relation`] returns;
//! * [`engine`] — one [`eval`]`(prog, edb, `[`Strategy`]`)` entry point
//!   over **naive** and **semi-naive** bottom-up evaluation with
//!   hash-indexed joins, plus **inflationary** Datalog¬ (the fixpoint
//!   semantics IQL generalizes, Kolaitis–Papadimitriou style) and
//!   **stratified** Datalog¬; every evaluation starts from a copy-on-write
//!   fork of its input and never writes the input itself; [`eval_with`]
//!   adds a worker-pool knob with order-deterministic merging, so parallel
//!   output is identical to sequential;
//! * [`stratify`](fn@stratify) — SCC-based stratification;
//! * [`convert`] — translation of a Datalog program into an equivalent IQL
//!   [`iql_core::Program`], realizing the paper's claim that "each Datalog
//!   program can be viewed as a valid IQL program … and its Datalog and IQL
//!   semantics are identical".

pub mod ast;
pub mod convert;
pub mod engine;
mod interned;
pub mod stratify;

pub use ast::{parse_program, Atom, Database, DlTerm, Lit, Program, Relation, Rule, TupleRef};
pub use engine::{eval, eval_governed, eval_with, EvalStats, Strategy, DEFAULT_MAX_ROUNDS};
pub use iql_core::govern::{AbortReason, Governor};
pub use stratify::stratify;

/// Errors from the Datalog layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DlError {
    /// Parse error with position.
    Parse(String),
    /// A relation was used with inconsistent arities.
    Arity {
        /// The relation.
        rel: String,
        /// First arity seen.
        expected: usize,
        /// Conflicting arity.
        found: usize,
    },
    /// A head variable does not occur positively in the body
    /// (range-restriction, required for safety).
    Unsafe {
        /// The offending variable.
        var: String,
        /// The rule, rendered.
        rule: String,
    },
    /// Negation through a recursive cycle — not stratifiable.
    NotStratifiable(String),
    /// Semi-naive evaluation requires a positive program (use
    /// [`Strategy::Stratified`] or [`Strategy::Inflationary`] for
    /// negation).
    NegationUnsupported(String),
    /// A worker thread panicked while evaluating a rule; the panic was
    /// contained by the engine and did not poison the worker pool.
    WorkerPanic {
        /// Index of the rule whose join task panicked.
        rule: usize,
    },
}

impl std::fmt::Display for DlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DlError::Parse(m) => write!(f, "datalog parse error: {m}"),
            DlError::Arity {
                rel,
                expected,
                found,
            } => {
                let name = if rel.is_empty() { "<relation>" } else { rel };
                write!(
                    f,
                    "relation {name} used with arity {found}, expected {expected}"
                )
            }
            DlError::Unsafe { var, rule } => {
                write!(
                    f,
                    "unsafe rule `{rule}`: head variable {var} not bound positively"
                )
            }
            DlError::NotStratifiable(r) => {
                write!(
                    f,
                    "negation through recursion on {r}; program not stratifiable"
                )
            }
            DlError::NegationUnsupported(r) => {
                write!(
                    f,
                    "semi-naive engine is positive-only; rule `{r}` uses negation"
                )
            }
            DlError::WorkerPanic { rule } => {
                write!(f, "worker evaluating rule {rule} panicked (contained)")
            }
        }
    }
}

impl std::error::Error for DlError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, DlError>;
