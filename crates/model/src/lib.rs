//! # iql-model — the object-based data model
//!
//! This crate implements the *structural part* of the data model of
//! Abiteboul & Kanellakis, *Object Identity as a Query Language Primitive*
//! (SIGMOD 1989 / JACM 45(5) 1998), Sections 2 and 6:
//!
//! * [`OValue`] — o-values: constants, oids, and finite trees built from
//!   them with tuple and set constructors (Definition 2.1.1).
//! * [`TypeExpr`] — the type language `∅ | D | P | [A1:t,…] | {t} | t∨t | t∧t`
//!   with its interpretation relative to an oid assignment (Section 2.2),
//!   intersection reduction and elimination (Proposition 2.2.1), and the
//!   `*`-interpretation used for inheritance (Section 6.2).
//! * [`Schema`] and [`Instance`] — database schemas `(R, P, T)` and instances
//!   `(ρ, π, ν)` with disjoint oid assignments and a partial value map
//!   (Definitions 2.3.1 and 2.3.2), including the `ground-facts`
//!   representation and instance validation.
//! * [`relation`] — [`IdRelation`], the one relation store: rows of
//!   interned ids with hash-chained membership and incremental column
//!   indexes. IQL's `ρ` and the Datalog engine's database both use it.
//! * [`iso`] — O-isomorphism and DO-isomorphism testing (Section 4.1), the
//!   equivalence under which IQL programs are determinate.
//! * [`inherit`] — isa hierarchies, inherited oid assignments, and the
//!   reduction of inheritance to union types (Section 6).
//!
//! Cyclic structures (the raison d'être of oids) are represented exactly as
//! in the paper: o-values themselves are finite trees, and cyclicity lives
//! only in the partial map `ν : Oid → OValue`. This sidesteps the
//! ownership problems cyclic data usually causes in Rust — an oid is a plain
//! interned identifier, and dereferencing goes through the instance.

pub mod chains;
pub mod constant;
pub mod error;
pub mod idgen;
pub mod inherit;
pub mod instance;
pub mod iso;
pub mod names;
pub mod ovalue;
pub mod relation;
pub mod schema;
pub mod stats;
pub mod store;
pub mod types;

pub use chains::HashChains;
pub use constant::Constant;
pub use error::ModelError;
pub use idgen::{Oid, OidGen};
pub use inherit::{IsaHierarchy, SchemaWithIsa};
pub use instance::{GroundFact, IdView, Instance, RowLayout};
pub use names::{AttrName, ClassName, RelName};
pub use ovalue::OValue;
pub use relation::{ArityMismatch, ColIndex, IdRelation, Inserted};
pub use schema::{Schema, SchemaBuilder};
pub use stats::InstanceStats;
pub use store::{
    Node, NodeHash, NodeRef, Overlay, OverlayLog, ValueId, ValueInterner, ValueReader, ValueStore,
};
pub use types::{ClassMap, EnumUniverse, OidClasses, TypeExpr};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ModelError>;
