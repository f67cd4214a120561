//! Cheap cardinality statistics over an instance, for cost-based planning.
//!
//! Everything here is O(1) reads off state the instance already maintains:
//! a relation's size is its row count, a class extent's is its `BTreeSet`
//! length, and per-attribute distinct counts come from the relation's
//! built column indexes (a built index *is* a distinct-key census of its
//! column). No sampling, no histograms — the planner only needs coarse
//! relative sizes to avoid pathological join orders, and these are exact.

use crate::instance::Instance;
use crate::names::{AttrName, ClassName, RelName};
use crate::relation::ColIndex;

/// A read-only statistics view over one instance.
#[derive(Clone, Copy)]
pub struct InstanceStats<'a> {
    inst: &'a Instance,
}

impl<'a> InstanceStats<'a> {
    pub fn new(inst: &'a Instance) -> Self {
        InstanceStats { inst }
    }

    /// `|ρ(R)|`, or `None` for an unknown relation.
    pub fn relation_len(&self, r: RelName) -> Option<usize> {
        self.inst.relation_ids(r).ok().map(|s| s.len())
    }

    /// `|π(P)|`, or `None` for an unknown class.
    pub fn class_len(&self, p: ClassName) -> Option<usize> {
        self.inst.class(p).ok().map(|s| s.len())
    }

    /// Distinct values of `attr` across `ρ(R)` — available exactly when the
    /// `(r, attr)` column index is built (the planner ensures indexes for
    /// every probe candidate before reading this).
    pub fn attr_distinct(&self, r: RelName, attr: AttrName) -> Option<usize> {
        self.inst.rel_index(r, attr).map(ColIndex::distinct)
    }

    /// Estimated facts of `R` matching a probe on `attr`: `len / distinct`,
    /// rounded up. Falls back to `len` when the attribute has no built
    /// index (no statistic ⇒ assume the probe does not narrow).
    pub fn probe_estimate(&self, r: RelName, attr: AttrName) -> Option<usize> {
        let len = self.relation_len(r)?;
        Some(match self.attr_distinct(r, attr) {
            Some(d) if d > 0 => len.div_ceil(d),
            _ => len,
        })
    }

    /// The instance's statistics epoch — see [`Instance::stats_epoch`].
    /// Plans (and anything else derived from these statistics) cached at
    /// epoch `e` stay valid while the epoch still reads `e`.
    pub fn epoch(&self) -> u64 {
        self.inst.stats_epoch()
    }
}
