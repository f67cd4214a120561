//! The naive inflationary evaluator (Section 3.2).
//!
//! Semantics follows the paper exactly: evaluation proceeds in *steps*; each
//! step is a function of the pre-step instance `I`:
//!
//! 1. computes the **valuation-domain** — all `(rule, θ)` with `I ⊨ θ body`
//!    such that *no extension* of `θ` already satisfies the head (this
//!    head-satisfaction guard is what terminates oid invention). Both
//!    searches run on one pattern matcher: the body search walks the rule's
//!    plan depth-first over one register array, the guard stops at the
//!    first extension it finds;
//! 2. picks a **valuation-map** — fresh, pairwise-distinct oids for every
//!    head-only variable of every `(rule, θ)` (or, under IQL⁺ `choose`, an
//!    existing object chosen generically, Section 4.4);
//! 3. adds the derived ground facts, every head term evaluated in `I` (plus
//!    this step's fresh oids), subject to the **weak-assignment** condition
//!    (†): a non-set oid's value is set only if currently undefined and
//!    uniquely derived this step.
//!
//! Each stage compiles its rules once (`planner::CompiledRule`):
//! variables become dense slots, so a valuation is a register array during
//! the search and a flat row of body-slot ids afterwards, and the head term
//! the guard evaluated travels with its fire to the apply phase. A relation
//! head travels as the row its fact is stored as: the guard evaluates the
//! head's fields and looks the tuple up without interning it, the merge
//! interns the tuples that are new, and the apply phase writes each rule's
//! facts to their relation in one batch.
//!
//! A relation scan walks the rows of the relation store both engines share
//! ([`iql_model::IdRelation`]) in insertion order: a probe reads the
//! incremental index of the probed attribute's column, and a semi-naive
//! delta is the range of row positions each relation gained in the
//! previous step, as in the Datalog engine.
//!
//! Stages (`;` composition) run each rule set to its inflationary fixpoint
//! before the next starts. IQL\* deletion heads are applied at the end of
//! each step with cascading oid deletion (Section 4.5); a fact both added
//! and deleted in one step ends up deleted (a documented choice — the paper
//! leaves the conflict policy to the `*`-language machinery).
//!
//! Variables not bound by any positive literal fall back to **active-domain
//! enumeration** of their type — precisely the paper's valuation semantics,
//! and the engine behind the non-range-restricted powerset program of
//! Example 3.4.2. Enumeration is guarded by a configurable budget.

use crate::ast::{Program, Rule, Stage, Term};
use crate::error::{IqlError, Result};
use crate::govern::{governor_from_config, AbortReason, Aborted, Governor, Pacer, RunOutcome};
use crate::planner::{
    plan_rule, CompiledRule, Op, PlanSource, Probe, RulePlan, SHead, SLit, STerm, Slot,
};
use iql_exec::{chunk_ranges, run_tasks};
use iql_model::iso::orbits;
use iql_model::{
    AttrName, ClassName, ColIndex, HashChains, IdRelation, IdView, Instance, Node, NodeHash,
    NodeRef, Oid, Overlay, OverlayLog, RelName, RowLayout, TypeExpr, ValueId, ValueInterner,
    ValueReader, ValueStore,
};
use std::borrow::Cow;
use std::cell::OnceCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::{ControlFlow, Range};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

/// Evaluation limits and switches.
///
/// The struct is `#[non_exhaustive]`: construct it with
/// [`EvalConfig::default`] or the fluent [`EvalConfig::builder`] so new
/// knobs stop being breaking changes. Individual fields stay public and may
/// be reassigned on an existing value.
///
/// ```
/// use iql_core::eval::EvalConfig;
/// let cfg = EvalConfig::builder().threads(8).seminaive(false).build();
/// assert_eq!(cfg.threads, 8);
/// assert!(!cfg.use_seminaive);
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct EvalConfig {
    /// Maximum inflationary steps per stage before reporting
    /// [`IqlError::StepLimit`].
    pub max_steps: usize,
    /// Budget for active-domain type enumeration (per variable, per step).
    pub enum_budget: usize,
    /// Hard cap on total ground facts in the working instance.
    pub max_facts: usize,
    /// Cost-based join ordering: reorder body literals by estimated
    /// selectivity from the instance's cardinality statistics; off, bodies
    /// run in the syntactic order of the `explain` plan. Either order gets
    /// the same statically chosen probes into the persistent column
    /// indexes of the instance's relations. A pure optimization — outputs are bit-identical
    /// with the planner on or off (the merge phase canonicalizes fire order
    /// wherever it is observable). The ablation knob for the `eval_planner`
    /// benchmark; on by default.
    pub use_planner: bool,
    /// Delta-driven (semi-naive) evaluation of eligible rules: rules whose
    /// bodies read only relations/classes (no dereferences, no enumeration
    /// fallbacks, no choose, no deletion heads) are re-evaluated only
    /// against the facts added in the previous step. Sound for inflationary
    /// semantics because negation and the invention guard are *monotone
    /// blockers*: once a valuation is blocked it stays blocked, so every
    /// valuation fires at exactly its first-valid step either way. The
    /// ablation knob for the naive-vs-seminaive comparison; on by default.
    pub use_seminaive: bool,
    /// N-IQL mode (the paper's Remark N-IQL): `choose` may pick among
    /// candidates even when the choice violates genericity — the language
    /// becomes *nondeterministic complete* instead of determinate. Off by
    /// default; when off, a non-generic choice raises
    /// [`IqlError::ChoiceNotGeneric`].
    pub nondeterministic_choice: bool,
    /// Worker threads for the per-step valuation search: `1` evaluates
    /// rules sequentially (the default), `0` uses one worker per available
    /// core, and any other value pins the pool size. Workers only *search*
    /// — fact insertion, condition-(†) dedup, and oid allocation happen in
    /// a deterministic merge phase — so the output instance is bit-identical
    /// (same invented-oid numbering) for every setting.
    pub threads: usize,
    /// Wall-clock deadline for the whole run (all stages). Polled inside
    /// the valuation search, so a deadline stops evaluation mid-step; the
    /// governed entry point ([`run_governed`]) then returns the last
    /// *completed* step as a partial result. `None` (default) = no limit.
    pub deadline: Option<Duration>,
    /// Cap on oids invented over the whole run. `None` = no limit.
    pub max_oids: Option<usize>,
    /// High-water mark on interned nodes in the working instance's value
    /// store. `None` = no limit.
    pub max_store_nodes: Option<usize>,
    /// High-water mark on the value store's (approximate) heap bytes —
    /// the `--max-memory` CLI knob. `None` = no limit.
    pub max_store_bytes: Option<usize>,
    /// External cancellation token: flip it to `true` (e.g. from a Ctrl-C
    /// handler) and evaluation stops at the next poll point, mid-step.
    pub cancel_token: Option<Arc<AtomicBool>>,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            max_steps: 10_000,
            enum_budget: 1 << 20,
            max_facts: 10_000_000,
            use_planner: true,
            use_seminaive: true,
            nondeterministic_choice: false,
            threads: 1,
            deadline: None,
            max_oids: None,
            max_store_nodes: None,
            max_store_bytes: None,
            cancel_token: None,
        }
    }
}

impl EvalConfig {
    /// Starts a fluent builder seeded with the defaults.
    pub fn builder() -> EvalConfigBuilder {
        EvalConfigBuilder::default()
    }

    /// Re-opens this configuration as a builder, for deriving a variant:
    /// `cfg.to_builder().threads(4).build()`.
    pub fn to_builder(&self) -> EvalConfigBuilder {
        EvalConfigBuilder { cfg: self.clone() }
    }

    /// The worker-pool size this configuration resolves to: `threads`
    /// itself, or one per available core when `threads == 0`.
    pub fn effective_threads(&self) -> usize {
        iql_exec::effective_threads(self.threads)
    }
}

/// Fluent builder for [`EvalConfig`] (see [`EvalConfig::builder`]).
#[derive(Debug, Clone, Default)]
pub struct EvalConfigBuilder {
    cfg: EvalConfig,
}

impl EvalConfigBuilder {
    /// Sets the inflationary step limit per stage.
    pub fn max_steps(mut self, n: usize) -> Self {
        self.cfg.max_steps = n;
        self
    }

    /// Sets the active-domain enumeration budget.
    pub fn enum_budget(mut self, n: usize) -> Self {
        self.cfg.enum_budget = n;
        self
    }

    /// Sets the hard cap on total ground facts.
    pub fn max_facts(mut self, n: usize) -> Self {
        self.cfg.max_facts = n;
        self
    }

    /// Toggles cost-based join ordering (off: syntactic literal order).
    pub fn planner(mut self, on: bool) -> Self {
        self.cfg.use_planner = on;
        self
    }

    /// Toggles delta-driven (semi-naive) evaluation of eligible rules.
    pub fn seminaive(mut self, on: bool) -> Self {
        self.cfg.use_seminaive = on;
        self
    }

    /// Toggles N-IQL nondeterministic `choose`.
    pub fn nondeterministic_choice(mut self, on: bool) -> Self {
        self.cfg.nondeterministic_choice = on;
        self
    }

    /// Sets the worker-pool size (`1` sequential, `0` one per core).
    pub fn threads(mut self, n: usize) -> Self {
        self.cfg.threads = n;
        self
    }

    /// Sets a wall-clock deadline for the whole run.
    pub fn deadline(mut self, d: Duration) -> Self {
        self.cfg.deadline = Some(d);
        self
    }

    /// Caps the number of oids invented over the whole run.
    pub fn max_oids(mut self, n: usize) -> Self {
        self.cfg.max_oids = Some(n);
        self
    }

    /// Caps the interned-node count of the working value store.
    pub fn max_store_nodes(mut self, n: usize) -> Self {
        self.cfg.max_store_nodes = Some(n);
        self
    }

    /// Caps the working value store's approximate heap bytes.
    pub fn max_store_bytes(mut self, n: usize) -> Self {
        self.cfg.max_store_bytes = Some(n);
        self
    }

    /// Attaches an external cancellation token.
    pub fn cancel_token(mut self, token: Arc<AtomicBool>) -> Self {
        self.cfg.cancel_token = Some(token);
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> EvalConfig {
        self.cfg
    }
}

/// Wall-clock profile of one inflationary step.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StepTiming {
    /// Stage index (in program order).
    pub stage: usize,
    /// Step index within the stage.
    pub step: usize,
    /// Nanoseconds spent in the (parallelisable) valuation-search phase.
    pub search_nanos: u64,
    /// Nanoseconds spent in the deterministic merge/apply phase.
    pub apply_nanos: u64,
    /// `(rule, θ)` pairs fired this step.
    pub fires: usize,
}

/// Statistics from one program run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EvalReport {
    /// Total inflationary steps across stages.
    pub steps: usize,
    /// Stages started.
    pub stages: usize,
    /// Oids invented.
    pub invented: usize,
    /// Ground facts added.
    pub facts_added: usize,
    /// Times the enumeration fallback fired.
    pub enum_fallbacks: usize,
    /// Facts deleted (IQL\*).
    pub facts_deleted: usize,
    /// Rule plans the cost-based planner reordered away from textual order
    /// (counted per rule per step, whether the step's plan was fresh or
    /// cached).
    pub plans_reordered: usize,
    /// Rule plans built fresh — the first step of a stage and every
    /// statistics-epoch invalidation.
    pub plans_fresh: usize,
    /// Rule plans reused from the epoch-keyed plan cache (counted per rule
    /// per step on a hit).
    pub plans_cached: usize,
    /// Scan probes answered by a relation's persistent column index.
    pub index_hits: usize,
    /// Scan probes answered by a one-off index built over the scanned
    /// range of rows: delta and chunk-restricted scans, and whole-relation
    /// scans whose persistent index is missing.
    pub index_misses: usize,
    /// Per-step wall-clock timings, in evaluation order. Timing varies run
    /// to run; compare [`EvalReport::counters`] when checking determinism.
    pub step_timings: Vec<StepTiming>,
    /// Per-rule derivation counters: `(stage, rule) → fired valuations`.
    pub rule_fires: BTreeMap<(usize, usize), usize>,
}

/// The deterministic counters of an [`EvalReport`]: `(steps, invented,
/// facts_added, enum_fallbacks, facts_deleted, rule_fires)`.
pub type RunCounters<'a> = (
    usize,
    usize,
    usize,
    usize,
    usize,
    &'a BTreeMap<(usize, usize), usize>,
);

impl EvalReport {
    /// The run's deterministic counters, without wall-clock timings —
    /// identical across reruns and thread counts of the same program/input.
    /// Planner counters are excluded: they describe *how* the engine
    /// evaluated (ablation-arm-dependent), not *what* it computed.
    pub fn counters(&self) -> RunCounters<'_> {
        (
            self.steps,
            self.invented,
            self.facts_added,
            self.enum_fallbacks,
            self.facts_deleted,
            &self.rule_fires,
        )
    }
}

impl fmt::Display for EvalReport {
    /// Two summary lines: the semantic counters, then the planner's
    /// decisions — what `iql run --stats` prints.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "steps={} stages={} invented={} facts_added={} facts_deleted={} enum_fallbacks={}",
            self.steps,
            self.stages,
            self.invented,
            self.facts_added,
            self.facts_deleted,
            self.enum_fallbacks,
        )?;
        write!(
            f,
            "planner: plans_reordered={} plans_fresh={} plans_cached={} index_hits={} index_misses={}",
            self.plans_reordered,
            self.plans_fresh,
            self.plans_cached,
            self.index_hits,
            self.index_misses,
        )
    }
}

/// The result of running a program.
#[derive(Debug, Clone)]
pub struct EvalOutput {
    /// The full fixpoint instance over `S`.
    pub full: Instance,
    /// The projection `J[Sout]`.
    pub output: Instance,
    /// Run statistics.
    pub report: EvalReport,
}

/// Runs `prog` on `input` (an instance of `Sin`), producing `J[Sout]`.
///
/// All-or-nothing semantics: a tripped resource limit (step/fact/oid/store
/// budget, deadline, cancellation, contained worker panic) surfaces as the
/// corresponding hard [`IqlError`] and the partial work is discarded. Use
/// [`run_governed`] to keep the last consistent snapshot instead.
pub fn run(prog: &Program, input: &Instance, cfg: &EvalConfig) -> Result<EvalOutput> {
    run_governed(prog, input, cfg)?.into_result()
}

/// Runs `prog` on `input` under the limits of `cfg`, degrading gracefully:
/// a tripped limit yields [`RunOutcome::Aborted`] carrying the working
/// instance after the last *completed* inflationary step — a valid partial
/// answer under inflationary semantics — instead of an error.
///
/// Real faults (bad input, unknown relations, non-generic `choose`, …)
/// still return `Err`; only resource trips degrade.
pub fn run_governed(prog: &Program, input: &Instance, cfg: &EvalConfig) -> Result<RunOutcome> {
    // Input must be an instance of Sin.
    if !prog.input.is_projection_of(input.schema()) || !input.schema().is_projection_of(&prog.input)
    {
        return Err(IqlError::BadInput(format!(
            "input instance schema differs from the program's input projection\nexpected: {}\nfound: {}",
            prog.input,
            input.schema()
        )));
    }
    // Validation is memoized on the instance, so a snapshot served to many
    // requests is checked on the first one only.
    input
        .validate()
        .map_err(|e| IqlError::BadInput(e.to_string()))?;

    // Working instance over the full schema S: a copy-on-write fork of the
    // input, so the run starts from the loaded snapshot without copying it
    // and the input is never written.
    let mut work = input.fork(&prog.schema)?;

    // One governor for the whole run: the deadline clock spans all stages.
    let gov = governor_from_config(cfg);
    let panic_rule = iql_exec::TEST_PANIC_RULE.get();
    let mut report = EvalReport::default();
    let mut trip: Option<AbortReason> = None;
    for stage in &prog.stages {
        if let Some(reason) =
            run_stage_governed(stage, &mut work, cfg, &gov, panic_rule, &mut report)?
        {
            trip = Some(reason);
            break;
        }
    }

    let output = work.project(&prog.output)?;
    match trip {
        None => {
            output
                .validate()
                .map_err(|e| IqlError::Invalid(format!("output instance invalid: {e}")))?;
            Ok(RunOutcome::Complete(Box::new(EvalOutput {
                full: work,
                output,
                report,
            })))
        }
        Some(reason) => {
            // No output validation on a partial snapshot: an invented oid
            // whose weak assignment has not fired yet is expected mid-run.
            let at_step = report.steps;
            let elapsed = gov.elapsed();
            let partial = EvalOutput {
                full: work,
                output,
                report: report.clone(),
            };
            Ok(RunOutcome::Aborted(Box::new(Aborted {
                reason,
                at_step,
                elapsed,
                partial,
                report,
            })))
        }
    }
}

/// A stage's rules, compiled once when the stage starts (every plan, step
/// and valuation of the stage reads them), and the stage-wide facts its
/// steps consult.
struct StageRules<'a> {
    rules: Vec<CompiledRule<'a>>,
    /// Deletions un-block guards (a deleted head fact lets an old valuation
    /// fire again), so any deletion rule in the stage disables delta-driven
    /// evaluation for the whole stage.
    deletes: bool,
    /// Is fire order observable? Oid invention numbers fresh oids in fire
    /// order, and deletions apply in it; elsewhere facts and assignments
    /// merge as sets.
    order_observable: bool,
}

impl<'a> StageRules<'a> {
    fn new(stage: &'a Stage) -> Self {
        let rules: Vec<CompiledRule<'a>> = stage.rules.iter().map(CompiledRule::new).collect();
        let deletes = stage.rules.iter().any(|r| r.head.is_deletion());
        let order_observable = deletes || rules.iter().any(|cr| !cr.invent.is_empty());
        StageRules {
            rules,
            deletes,
            order_observable,
        }
    }
}

/// Runs one stage to its inflationary fixpoint under `gov`, returning
/// `Ok(Some(reason))` on a resource trip with `work` left at the last
/// consistent snapshot (the deterministic budgets are checked at step
/// boundaries; an asynchronous mid-step trip discards the whole
/// interrupted step). `panic_rule` is the run's
/// [`iql_exec::TEST_PANIC_RULE`].
fn run_stage_governed(
    stage: &Stage,
    work: &mut Instance,
    cfg: &EvalConfig,
    gov: &Governor,
    panic_rule: usize,
    report: &mut EvalReport,
) -> Result<Option<AbortReason>> {
    let stage_idx = report.stages;
    report.stages += 1;
    let compiled = StageRules::new(stage);
    // None ⇒ first step: full evaluation.
    let mut delta: Option<Delta> = None;
    // Epoch-keyed plan cache: a compiled plan borrows only its rule, never
    // the instance, so it survives across steps — it is rebuilt exactly
    // when the instance's statistics epoch has moved since it was planned.
    // The epoch is recorded *after* planning, because planning itself
    // ensures indexes (which bumps the epoch); a plan must not invalidate
    // itself.
    let mut cached: Option<(u64, Vec<RulePlan<'_>>)> = None;
    for step in 0.. {
        if let Some(reason) = gov.trip_async() {
            return Ok(Some(reason));
        }
        if step >= gov.max_steps {
            return Ok(Some(AbortReason::StepLimit {
                limit: gov.max_steps,
            }));
        }
        report.steps += 1;
        let hit = cached
            .as_ref()
            .is_some_and(|(epoch, _)| *epoch == work.stats_epoch());
        if hit {
            report.plans_cached += compiled.rules.len();
        } else {
            let plans: Vec<RulePlan<'_>> = compiled
                .rules
                .iter()
                .map(|cr| plan_rule(cr, work, cfg))
                .collect::<Result<Vec<_>>>()?;
            report.plans_fresh += plans.len();
            cached = Some((work.stats_epoch(), plans));
        }
        let plans = &cached.as_ref().expect("planned above").1;
        report.plans_reordered += plans.iter().filter(|p| p.reordered).count();
        let (changed, delta_out) = match one_step(
            &compiled,
            stage_idx,
            step,
            work,
            cfg,
            gov,
            panic_rule,
            report,
            delta.as_ref(),
            plans,
        )? {
            StepOut::Tripped(reason) => return Ok(Some(reason)),
            StepOut::Done {
                trip: Some(reason), ..
            } => {
                // A contained worker panic: the step applied minus the
                // panicked rule's derivations, then the run aborts so
                // the fault is never silent.
                return Ok(Some(reason));
            }
            StepOut::Done {
                changed,
                delta,
                trip: None,
            } => (changed, delta),
        };
        if !changed {
            break;
        }
        delta = if cfg.use_seminaive {
            Some(delta_out)
        } else {
            None
        };
        // Deterministic budgets, checked at the step boundary: the trip
        // point depends only on program and input, so the partial snapshot
        // is identical across thread counts. `fact_count` walks the
        // instance, so only pay for it when a budget is actually set.
        if gov.max_facts != usize::MAX && work.fact_count() > gov.max_facts {
            return Ok(Some(AbortReason::FactBudget {
                limit: gov.max_facts,
            }));
        }
        if let Some(limit) = gov.max_oids {
            if report.invented > limit {
                return Ok(Some(AbortReason::OidBudget { limit }));
            }
        }
        if let Some(limit) = gov.max_store_nodes {
            if work.store().len() > limit {
                return Ok(Some(AbortReason::StoreBudget { limit }));
            }
        }
        if let Some(limit) = gov.max_store_bytes {
            if work.store().heap_bytes() > limit {
                return Ok(Some(AbortReason::MemoryBudget { limit }));
            }
        }
    }
    Ok(None)
}

/// What [`one_step`] reports back to the stage driver.
enum StepOut {
    /// An asynchronous signal (deadline/cancellation) tripped mid-search;
    /// the whole step was discarded and the instance is untouched (the
    /// value store may have absorbed interned nodes — harmless, facts are
    /// what define the snapshot).
    Tripped(AbortReason),
    /// The step applied. `trip` carries a contained worker panic: the
    /// panicked rule's derivations are missing from this step and the run
    /// must abort after it.
    Done {
        changed: bool,
        delta: Delta,
        trip: Option<AbortReason>,
    },
}

/// The facts added by one step — what semi-naive evaluation joins against.
/// A relation's delta is the range of row positions it gained in the
/// step's merge: rows never move, and a stage that deletes evaluates no
/// delta, so the range still holds exactly those facts in the next step.
#[derive(Debug, Default, Clone)]
struct Delta {
    /// Non-empty ranges only.
    ranges: BTreeMap<RelName, Range<u32>>,
    classes: BTreeMap<ClassName, BTreeSet<Oid>>,
}

/// The registers of one rule: one value per slot (`None` while unbound),
/// and the trail of the slots the match in progress has bound.
struct Regs {
    vals: Vec<Option<ValueId>>,
    trail: Vec<Slot>,
}

impl Regs {
    fn new(nslots: usize) -> Self {
        Regs {
            vals: vec![None; nslots],
            trail: Vec::new(),
        }
    }

    fn bind(&mut self, s: Slot, id: ValueId) {
        self.vals[s] = Some(id);
        self.trail.push(s);
    }

    /// Unbinds every slot bound since the trail had length `mark`.
    fn unwind(&mut self, mark: usize) {
        for s in self.trail.drain(mark..) {
            self.vals[s] = None;
        }
    }

    /// Binds `slots` to the ids of `row`, in order.
    fn load(&mut self, slots: &[Slot], row: &[ValueId]) {
        for (&s, &id) in slots.iter().zip(row) {
            self.vals[s] = Some(id);
        }
    }

    /// Sets the registers to one fire's valuation: its row over the body
    /// slots, and its invented ids over the invention slots.
    fn load_fire(&mut self, cr: &CompiledRule<'_>, row: &[ValueId], invented: &[ValueId]) {
        self.vals.clear();
        self.vals.resize(cr.nslots(), None);
        self.load(&cr.body_slots, row);
        for (&(s, _), &id) in cr.invent.iter().zip(invented) {
            self.vals[s] = Some(id);
        }
    }
}

/// Valuations as flat rows of ids: each row holds one valuation's body
/// slots in slot order, and the rows are concatenated.
struct Rows {
    width: usize,
    len: usize,
    ids: Vec<ValueId>,
}

impl Rows {
    fn new(width: usize) -> Self {
        Rows {
            width,
            len: 0,
            ids: Vec::new(),
        }
    }

    fn row(&self, i: usize) -> &[ValueId] {
        &self.ids[i * self.width..(i + 1) * self.width]
    }

    /// Appends the valuation held in `regs` over `slots`.
    fn push(&mut self, regs: &[Option<ValueId>], slots: &[Slot]) {
        for &s in slots {
            self.ids
                .push(regs[s].expect("a valuation binds every body variable"));
        }
        self.len += 1;
    }

    /// Sorts the rows lexicographically by raw id and drops duplicates.
    fn sort_dedup(&mut self) {
        let mut order: Vec<usize> = (0..self.len).collect();
        order.sort_unstable_by(|&a, &b| self.row(a).cmp(self.row(b)));
        order.dedup_by(|a, b| self.row(*a) == self.row(*b));
        let ids = order.iter().flat_map(|&i| self.row(i)).copied().collect();
        self.len = order.len();
        self.ids = ids;
    }
}

/// One unit of the phase-1 valuation search: one rule, optionally
/// restricted to the `outer`-th slice of its outermost relation/class scan
/// (how a single large rule is spread across workers).
struct SearchTask {
    ri: usize,
    /// `(skip, take)` over the first plan op's source scan.
    outer: Option<(usize, usize)>,
    /// Evaluate delta-driven (the rule is seminaive-eligible this step).
    delta_driven: bool,
}

/// What a search task produces: *pending* derivations only — the rows of
/// the guard-filtered valuations in canonical (plan/delta) order, each
/// with the head term's value where the guard evaluated it, or the row of
/// its fact for a relation head without invention — plus local statistics
/// and the worker's overlay log. Ids below the log's base length are store
/// ids of the frozen pre-step instance; ids at or above it index into the
/// log and are remapped when the merge phase absorbs it. Nothing here
/// touches the instance; all mutation happens in the deterministic merge.
struct SearchOut {
    fires: Rows,
    heads: Vec<Option<ValueId>>,
    facts: Facts,
    enum_fallbacks: usize,
    index_hits: usize,
    index_misses: usize,
    log: OverlayLog,
}

/// The facts a task's fires derive for a relation head without invention
/// variables, as rows in the head relation's [`RowLayout`]. A fact whose
/// tuple the frozen store lacks is *pending*: its row starts with
/// [`ValueId::ABSENT`] in place of the fact id, and the merge interns its
/// tuple at the point of the overlay log where the guard first missed it —
/// where the guard used to intern it — so the store numbers its nodes as a
/// guard that interned every head would have. A pending tuple has one row
/// however many fires derive it.
#[derive(Default)]
struct Facts {
    rows: Vec<ValueId>,
    /// Where each fire's row starts in `rows`.
    of_fire: Vec<usize>,
    pending: Vec<Pending>,
    /// The positions of `pending`, chained by hash.
    chains: HashChains,
    /// The pending tuples' entries, back to back.
    fields: Vec<(AttrName, ValueId)>,
}

/// A tuple node the merge interns.
struct Pending {
    /// Where its fact's row starts in [`Facts::rows`].
    row: usize,
    /// Its entries in [`Facts::fields`].
    fields: Range<usize>,
    /// How many nodes the overlay held beyond its base when the guard
    /// missed the tuple.
    at: usize,
    /// The tuple's hash, when every entry is a store id: the frozen store's
    /// probe computed it, and the merge's insert reuses it.
    hash: Option<NodeHash>,
}

/// Per-task scan statistics, threaded through [`find_valuations_id`].
#[derive(Default)]
struct ScanCounters {
    /// Probes answered by a relation's persistent column index.
    index_hits: usize,
    /// Probes answered by a scan-local index over the candidates.
    index_misses: usize,
}

/// Does the previous step's delta contain any fact a scan over `source`
/// could draw? An empty source makes the whole delta-restricted run empty.
fn delta_has_source(delta: &Delta, source: &PlanSource) -> bool {
    match source {
        PlanSource::Rel(r) => delta.ranges.contains_key(r),
        PlanSource::Class(p) => delta.classes.get(p).is_some_and(|s| !s.is_empty()),
    }
}

/// [`run_search_task`] behind a panic barrier: a panic anywhere in the
/// search (or injected for rule `panic_rule`, the run's
/// [`iql_exec::TEST_PANIC_RULE`]) is contained here, on the worker's own
/// stack, and surfaced as [`IqlError::WorkerPanic`] carrying the rule
/// index — it never unwinds through the scoped pool, so sibling tasks
/// finish normally and their results survive.
#[allow(clippy::too_many_arguments)]
fn run_search_task_caught(
    task: &SearchTask,
    cr: &CompiledRule<'_>,
    plan: &RulePlan<'_>,
    work: &Instance,
    cfg: &EvalConfig,
    gov: &Governor,
    panic_rule: usize,
    delta_in: Option<&Delta>,
) -> Result<SearchOut> {
    catch_unwind(AssertUnwindSafe(|| {
        if panic_rule == task.ri {
            panic!("injected panic for rule {} (test hook)", task.ri);
        }
        run_search_task(task, cr, plan, work, cfg, gov, delta_in)
    }))
    .unwrap_or(Err(IqlError::WorkerPanic { rule: task.ri }))
}

/// Runs one search task against the frozen pre-step instance. Values the
/// body conjures that the store has not seen (constants from the rule text,
/// freshly built tuples/sets) are interned into a worker-local [`Overlay`];
/// the base store is never touched, so tasks run in parallel borrow-free.
fn run_search_task(
    task: &SearchTask,
    cr: &CompiledRule<'_>,
    plan: &RulePlan<'_>,
    work: &Instance,
    cfg: &EvalConfig,
    gov: &Governor,
    delta_in: Option<&Delta>,
) -> Result<SearchOut> {
    let view = work.id_view();
    let mut ov = Overlay::new(work.store());
    let mut enum_fallbacks = 0usize;
    let mut counters = ScanCounters::default();
    let mut rows = Rows::new(cr.body_slots.len());
    if task.delta_driven {
        // One run per relation/class scan, with that scan restricted to the
        // previous step's delta (a valuation is new only if at least one of
        // its supporting facts is). Positions whose source has no delta
        // facts are skipped — their restricted run is empty by definition.
        let delta = delta_in.expect("delta-driven task requires a delta");
        for i in 0..plan.nscans() {
            if !delta_has_source(delta, &plan.sources[i]) {
                continue;
            }
            find_valuations_id(
                cr,
                plan,
                work,
                &view,
                &mut ov,
                cfg,
                gov,
                Some((delta, i)),
                None,
                &mut counters,
                &mut rows,
            )?;
            enum_fallbacks += plan.enum_fallbacks;
        }
        rows.sort_dedup();
    } else {
        find_valuations_id(
            cr,
            plan,
            work,
            &view,
            &mut ov,
            cfg,
            gov,
            None,
            task.outer,
            &mut counters,
            &mut rows,
        )?;
        enum_fallbacks += plan.enum_fallbacks;
    }
    // The head guard, over each row in turn; the rows that fire are
    // compacted in place.
    let mut regs = Regs::new(cr.nslots());
    let mut heads = Vec::new();
    let mut facts = Facts::default();
    let fact_head = match &cr.head {
        SHead::Rel(r, t) if cr.invent.is_empty() => Some((*r, t, view.row_layout(*r)?)),
        _ => None,
    };
    let mut pacer = Pacer::new(gov);
    let w = rows.width;
    for i in 0..rows.len {
        if let Some(reason) = pacer.tick(gov) {
            return Err(reason.into());
        }
        regs.load(&cr.body_slots, rows.row(i));
        let mut head = None;
        let fire = if let Some((r, t, layout)) = fact_head {
            guard_fact(cr, r, t, layout, &regs.vals, &view, &mut ov, &mut facts)?
        } else if cr.rule.head.is_deletion() {
            // Deletion rules fire when the fact to delete exists.
            deletion_applicable_id(cr, &regs.vals, &view, &mut ov, &mut head)
        } else {
            !head_satisfiable_id(cr, &mut regs, &view, &mut ov, &mut head)
        };
        if fire {
            rows.ids.copy_within(i * w..(i + 1) * w, heads.len() * w);
            heads.push(head);
        }
    }
    rows.len = heads.len();
    rows.ids.truncate(rows.len * w);
    Ok(SearchOut {
        fires: rows,
        heads,
        facts,
        enum_fallbacks,
        index_hits: counters.index_hits,
        index_misses: counters.index_misses,
        log: ov.into_log(),
    })
}

/// Extent of a rule's outermost relation/class scan, when the rule is
/// eligible for chunked parallel evaluation: the plan must open with a
/// source scan and contain no enumeration fallback (enumeration cost would
/// be duplicated per chunk, and fallback counters would drift from the
/// sequential run).
fn outer_scan_len(plan: &RulePlan<'_>, inst: &Instance) -> Option<usize> {
    if plan.enum_fallbacks > 0 {
        return None;
    }
    match plan.ops.first() {
        Some(Op::Scan {
            src: Term::Rel(r), ..
        }) => inst.relation_ids(*r).ok().map(|s| s.len()),
        Some(Op::Scan {
            src: Term::Class(p),
            ..
        }) => inst.class(*p).ok().map(|s| s.len()),
        _ => None,
    }
}

/// Minimum slice of an outermost scan worth handing to a worker.
const OUTER_CHUNK_MIN: usize = 32;

/// One fired valuation in the merge: its rule, where its row starts in the
/// step's id buffer, where its invented ids start, the head term's value
/// once known, and, for a relation head, where its fact's row starts in the
/// step's fact buffer once known.
struct Fire {
    ri: usize,
    row: usize,
    invented: usize,
    head: Option<ValueId>,
    fact: Option<usize>,
}

/// One application of the inflationary one-step operator `g1`.
#[allow(clippy::too_many_arguments)]
fn one_step(
    stage: &StageRules<'_>,
    stage_idx: usize,
    step: usize,
    work: &mut Instance,
    cfg: &EvalConfig,
    gov: &Governor,
    panic_rule: usize,
    report: &mut EvalReport,
    delta_in: Option<&Delta>,
    plans: &[RulePlan<'_>],
) -> Result<StepOut> {
    // Phase 1: valuation-domain against the frozen pre-step instance. Rule
    // bodies only *read* the snapshot, so the search is embarrassingly
    // parallel: partition the eligible rules (and the outermost scan of
    // large single rules) across the shared runtime's worker pool. Workers
    // produce pending derivations only; the merge below walks tasks in
    // fixed (rule, chunk) order, so the fires list — and with it fact
    // insertion and oid numbering — is bit-identical to the sequential run.
    // Plans arrive from the stage driver (freshly built or cache-reused;
    // either way their probe indexes are ensured on the instance).
    let search_started = std::time::Instant::now();
    let nthreads = cfg.effective_threads();
    let mut tasks: Vec<SearchTask> = Vec::new();
    for (ri, cr) in stage.rules.iter().enumerate() {
        let delta_driven = delta_in.is_some()
            && cfg.use_seminaive
            && !stage.deletes
            && cr.seminaive
            && plans[ri].enum_fallbacks == 0;
        if delta_driven {
            // Early exit: when every scan source of the rule is empty in
            // the delta, each delta-restricted run is empty — don't even
            // schedule the task. (`changed` bookkeeping can keep a stage
            // running on ν-only progress with an empty relation delta.)
            let delta = delta_in.expect("delta-driven requires a delta");
            if !plans[ri].sources.iter().any(|s| delta_has_source(delta, s)) {
                continue;
            }
            tasks.push(SearchTask {
                ri,
                outer: None,
                delta_driven: true,
            });
            continue;
        }
        let chunkable = if nthreads > 1 {
            outer_scan_len(&plans[ri], work)
        } else {
            None
        };
        match chunkable {
            Some(len) => {
                // Slice the outermost scan into `(skip, take)` ranges via
                // the shared runtime (same arithmetic for both engines).
                // A single-range answer means "don't slice": `outer: None`
                // keeps the persistent-index fast path available.
                let ranges = chunk_ranges(len, nthreads, OUTER_CHUNK_MIN);
                if ranges.len() <= 1 {
                    tasks.push(SearchTask {
                        ri,
                        outer: None,
                        delta_driven: false,
                    });
                } else {
                    for (skip, take) in ranges {
                        tasks.push(SearchTask {
                            ri,
                            outer: Some((skip, take)),
                            delta_driven: false,
                        });
                    }
                }
            }
            None => tasks.push(SearchTask {
                ri,
                outer: None,
                delta_driven: false,
            }),
        }
    }

    // The shared worker-pool driver: inline when sequential, else a scoped
    // pool over an atomic task cursor, results returned in task order.
    let frozen: &Instance = work;
    let results: Vec<Result<SearchOut>> = run_tasks(&tasks, nthreads, |t| {
        let cr = &stage.rules[t.ri];
        run_search_task_caught(t, cr, &plans[t.ri], frozen, cfg, gov, panic_rule, delta_in)
    });

    // Deterministic merge of the search outputs: fixed rule order (tasks
    // are (rule, chunk)-sorted by construction), then each task's canonical
    // valuation order. The first error in task order wins. Each task's
    // overlay log is absorbed into the base store in that same order:
    // chunks slice the outermost scan in extent order, so replaying the
    // logs in task order reproduces the interning sequence of a sequential
    // run id for id — which is what keeps parallel output bit-identical.
    //
    // Governor routing: a deadline/cancellation trip inside any task
    // abandons the whole step (partial fires would make the snapshot
    // thread-count-dependent). A contained worker panic skips only the
    // panicked task's output — the surviving rules' derivations still
    // apply — and is reported upward so the run aborts after this step.
    let mut step_trip: Option<AbortReason> = None;
    let mut ids: Vec<ValueId> = Vec::new();
    let mut facts: Vec<ValueId> = Vec::new();
    let mut fires: Vec<Fire> = Vec::new();
    for (task, out) in tasks.iter().zip(results) {
        let out = match out {
            Ok(out) => out,
            Err(IqlError::Deadline) => return Ok(StepOut::Tripped(AbortReason::Deadline)),
            Err(IqlError::Cancelled) => return Ok(StepOut::Tripped(AbortReason::Cancelled)),
            Err(IqlError::WorkerPanic { rule }) => {
                if step_trip.is_none() {
                    step_trip = Some(AbortReason::WorkerPanic { rule });
                }
                continue;
            }
            Err(e) => return Err(e),
        };
        report.enum_fallbacks += out.enum_fallbacks;
        report.index_hits += out.index_hits;
        report.index_misses += out.index_misses;
        if !out.heads.is_empty() {
            *report.rule_fires.entry((stage_idx, task.ri)).or_default() += out.heads.len();
        }
        let (log, mut task_facts) = (out.log, out.facts);
        let base_len = log.base_len();
        // Replay the log, interning each pending tuple where its guard
        // missed it; a tuple's entries are log ids only of nodes before it.
        let store = work.store_mut();
        let mut remap: Vec<ValueId> = Vec::with_capacity(log.len());
        let mut fids: Vec<ValueId> = Vec::with_capacity(task_facts.pending.len());
        for p in &task_facts.pending {
            store.absorb(&log, p.at, &mut remap);
            let fields: Arc<[(AttrName, ValueId)]> = task_facts.fields[p.fields.clone()]
                .iter()
                .map(|&(a, v)| (a, remapped(v, base_len, &remap)))
                .collect();
            let node = Node::Tuple(fields);
            fids.push(match p.hash {
                Some(h) => store.insert_hashed(node, h),
                None => store.insert_node(node),
            });
        }
        store.absorb(&log, log.len(), &mut remap);
        let remap = |id: ValueId| remapped(id, base_len, &remap);
        let mut rows = out.fires;
        for id in rows.ids.iter_mut().chain(&mut task_facts.rows) {
            *id = remap(*id);
        }
        for (p, fid) in task_facts.pending.iter().zip(fids) {
            task_facts.rows[p.row] = fid;
        }
        for (k, head) in out.heads.into_iter().enumerate() {
            let fact = task_facts.of_fire.get(k).map(|&row| facts.len() + row);
            fires.push(Fire {
                ri: task.ri,
                row: ids.len() + k * rows.width,
                invented: 0,
                head: head.map(remap),
                fact,
            });
        }
        ids.append(&mut rows.ids);
        facts.append(&mut task_facts.rows);
    }
    let row = |f: &Fire| &ids[f.row..f.row + stage.rules[f.ri].body_slots.len()];
    // Canonical merge order: where fire order is observable, sort fires by
    // rule, then by the *tree order* of the row values. The key compares
    // resolved value structure, not raw ids, so every ablation arm
    // (planner, index, threads) lands on the same canonical order even
    // though each discovers and interns valuations differently. Elsewhere
    // the sort — and its cost — is skipped.
    if stage.order_observable && fires.len() > 1 {
        let store = work.store();
        fires.sort_by(|a, b| {
            a.ri.cmp(&b.ri)
                .then_with(|| cmp_rows(store, row(a), row(b)))
        });
    }
    let search_nanos = search_started.elapsed().as_nanos() as u64;
    let nfires = fires.len();
    let apply_started = std::time::Instant::now();

    // Phase 2: valuation-map (invention / choose) and fact derivation, in
    // passes over the canonically ordered fires, so that every head term
    // is evaluated against the pre-step instance (Section 3.2) whatever
    // the order of the stage's rules.
    let mut changed = false;
    let mut delta_out = Delta::default();
    // Choose candidates are computed against the frozen pre-step state, so
    // resolve every needed choice before any mutation happens.
    let mut choose_cache: BTreeMap<ClassName, Oid> = BTreeMap::new();
    for f in &fires {
        let cr = &stage.rules[f.ri];
        if cr.has_choose && !cr.rule.head.is_deletion() {
            for &(_, class) in &cr.invent {
                if let Some(p) = class {
                    choose_existing(work, p, &mut choose_cache, cfg)?;
                }
            }
        }
    }

    // (a) Extend each valuation over its rule's invention slots, in fire
    // order — fresh oids are numbered in this order.
    let mut invented: Vec<ValueId> = Vec::new();
    for f in &mut fires {
        let cr = &stage.rules[f.ri];
        if cr.rule.head.is_deletion() {
            continue;
        }
        f.invented = invented.len();
        for &(s, class) in &cr.invent {
            let Some(class) = class else {
                return Err(IqlError::Invalid(format!(
                    "invention variable {} lost its class type",
                    cr.names[s]
                )));
            };
            let oid = if cr.has_choose {
                choose_existing(work, class, &mut choose_cache, cfg)?
            } else {
                report.invented += 1;
                changed = true;
                let fresh = work.create_oid(class)?;
                delta_out.classes.entry(class).or_default().insert(fresh);
                fresh
            };
            invented.push(work.store_mut().oid_id(oid));
        }
    }

    // (b) Evaluate the head terms the guard did not carry, against the
    // instance (a) left: the pre-step instance plus this step's fresh
    // oids, which still have their default values. Head terms are
    // evaluated over a split borrow of the working instance — mutable
    // store (the head may build values the store has not seen) plus an id
    // view of ρ/π/ν. A relation head's fact becomes a row of the fact
    // buffer.
    let mut regs = Regs::new(0);
    let invented_of = |f: &Fire, cr: &CompiledRule<'_>| &invented[f.invented..][..cr.invent.len()];
    for f in &mut fires {
        let cr = &stage.rules[f.ri];
        if f.head.is_some() || f.fact.is_some() || cr.rule.head.is_deletion() {
            continue;
        }
        let Some(t) = cr.head.term() else {
            continue;
        };
        regs.load_fire(cr, row(f), invented_of(f, cr));
        let (store, view) = work.store_and_view();
        let v = eval_term_id(t, &regs.vals, &view, store).ok_or_else(|| undefined_head(cr))?;
        match &cr.head {
            SHead::Rel(r, _) => {
                f.fact = Some(facts.len());
                view.row_layout(*r)?.push_fact(&mut facts, v, &*store);
            }
            _ => f.head = Some(v),
        }
    }

    // (c) Write the facts, each rule's run of fires to its relation in one
    // batch, and collect the set members per oid (so a set gains all of
    // this step's members as one new set node) and the weak assignments.
    let mut members: BTreeMap<Oid, Vec<ValueId>> = BTreeMap::new();
    let mut assignments: BTreeMap<Oid, BTreeSet<ValueId>> = BTreeMap::new();
    let mut batch: Vec<ValueId> = Vec::new();
    // Fires of one pending tuple share its row: the first one writes it.
    let mut written = vec![false; facts.len()];
    let widths = stage
        .rules
        .iter()
        .map(|cr| match &cr.head {
            SHead::Rel(r, _) => Ok(work.id_view().row_layout(*r)?.arity()),
            _ => Ok(0),
        })
        .collect::<Result<Vec<usize>>>()?;
    for (k, f) in fires.iter().enumerate() {
        let cr = &stage.rules[f.ri];
        match &cr.head {
            SHead::Rel(r, _) => {
                let start = f.fact.expect("fact row built");
                if !std::mem::replace(&mut written[start], true) {
                    batch.extend_from_slice(&facts[start..start + widths[f.ri]]);
                }
                // Fires are in rule order: the rule's run ends where the
                // next fire's rule differs.
                if fires.get(k + 1).is_some_and(|next| next.ri == f.ri) {
                    continue;
                }
                let added = work.insert_rows(*r, &batch)?;
                batch.clear();
                if !added.is_empty() {
                    report.facts_added += added.len();
                    changed = true;
                    // The step's inserts into `r` are consecutive rows.
                    delta_out.ranges.entry(*r).or_insert(added.clone()).end = added.end;
                }
            }
            SHead::Class(..) => {
                // Membership was established by invention (or was already
                // true for body-bound variables).
            }
            SHead::SetMember(x, _) => {
                regs.load_fire(cr, row(f), invented_of(f, cr));
                let oid = binding_oid_id(cr, &regs.vals, *x, work.store())?;
                let v = f.head.expect("head evaluated");
                members.entry(oid).or_default().push(v);
            }
            SHead::Assign(x, _) => {
                regs.load_fire(cr, row(f), invented_of(f, cr));
                let oid = binding_oid_id(cr, &regs.vals, *x, work.store())?;
                let v = f.head.expect("head evaluated");
                assignments.entry(oid).or_default().insert(v);
            }
            SHead::DeleteRel(..) | SHead::DeleteOid(..) | SHead::DeleteSetMember(..) => {
                // Applied in phase 4.
            }
        }
    }

    for (oid, ids) in members {
        let added = work.add_set_members_id(oid, &ids)?;
        report.facts_added += added;
        changed |= added > 0;
    }

    // Phase 3: weak assignments per condition (†): a value is set only if
    // it was undefined before the step — no phase before this one defines
    // a non-set value, and `define_value_id` leaves a defined one alone —
    // and derived uniquely this step.
    for (oid, values) in assignments {
        if values.len() != 1 {
            continue; // ambiguous parallel derivations — ignore all
        }
        let v = values.into_iter().next().expect("len checked");
        if work.define_value_id(oid, v)? {
            report.facts_added += 1;
            changed = true;
        }
    }

    // Phase 4: deletions (IQL*) — applied last; deletion wins over a
    // same-step addition. A deleted value is the one the guard found in
    // the pre-step instance.
    for f in &fires {
        let cr = &stage.rules[f.ri];
        let deleted = match &cr.head {
            SHead::DeleteRel(r, _) => match f.head {
                Some(v) => work.remove_id(*r, v)?,
                None => false,
            },
            SHead::DeleteOid(_, x) => {
                regs.load_fire(cr, row(f), &[]);
                let oid = binding_oid_id(cr, &regs.vals, *x, work.store())?;
                let live = work.class_of(oid).is_some();
                if live {
                    work.delete_oid(oid)?;
                }
                live
            }
            SHead::DeleteSetMember(x, _) => {
                regs.load_fire(cr, row(f), &[]);
                let oid = binding_oid_id(cr, &regs.vals, *x, work.store())?;
                f.head.is_some_and(|v| work.remove_set_member_id(oid, v))
            }
            _ => continue,
        };
        if deleted {
            report.facts_deleted += 1;
            changed = true;
        }
    }

    report.step_timings.push(StepTiming {
        stage: stage_idx,
        step,
        search_nanos,
        apply_nanos: apply_started.elapsed().as_nanos() as u64,
        fires: nfires,
    });
    Ok(StepOut::Done {
        changed,
        delta: delta_out,
        trip: step_trip,
    })
}

/// Total order on two valuation rows of the same rule, slot by slot, by
/// the tree order of the bound values ([`ValueReader::cmp_resolved`]) —
/// id-numbering-independent, hence canonical across evaluation strategies.
fn cmp_rows(store: &ValueStore, a: &[ValueId], b: &[ValueId]) -> std::cmp::Ordering {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| store.cmp_resolved(x, y))
        .find(|o| o.is_ne())
        .unwrap_or(std::cmp::Ordering::Equal)
}

/// The oid in register `x`, or an error naming the variable.
fn binding_oid_id<R: ValueReader + ?Sized>(
    cr: &CompiledRule<'_>,
    regs: &[Option<ValueId>],
    x: Slot,
    reader: &R,
) -> Result<Oid> {
    match regs[x].map(|id| reader.as_oid(id)) {
        Some(Some(o)) => Ok(o),
        _ => {
            let found = regs[x].map(|id| reader.resolve(id));
            Err(IqlError::Invalid(format!(
                "variable {} should be bound to an oid, found {found:?}",
                cr.names[x]
            )))
        }
    }
}

/// Picks an existing object of `class` generically (Section 4.4): legal when
/// the candidates are pairwise automorphic (then any pick yields an
/// isomorphic result — we take the canonical minimum) or unique.
fn choose_existing(
    work: &Instance,
    class: ClassName,
    cache: &mut BTreeMap<ClassName, Oid>,
    cfg: &EvalConfig,
) -> Result<Oid> {
    if let Some(o) = cache.get(&class) {
        return Ok(*o);
    }
    let candidates: Vec<Oid> = work.class(class)?.iter().copied().collect();
    if candidates.is_empty() {
        return Err(IqlError::ChoiceEmpty);
    }
    let picked = if candidates.len() == 1 {
        candidates[0]
    } else {
        if cfg.nondeterministic_choice {
            // N-IQL: any pick is allowed; take the canonical minimum so
            // runs stay reproducible even though the semantics is
            // nondeterministic.
            candidates[0]
        } else {
            let orbs = orbits(work, &candidates);
            if orbs.len() > 1 {
                return Err(IqlError::ChoiceNotGeneric { orbits: orbs.len() });
            }
            candidates[0]
        }
    };
    cache.insert(class, picked);
    Ok(picked)
}

// ---------------------------------------------------------------------
// Term evaluation and pattern matching
//
// The evaluator works entirely on ValueIds: scans iterate interned fact
// sets, joins probe id-keyed hash indexes, and a valuation is a register
// array indexed by the rule's variable slots. Reads go through an IdView
// of the frozen instance; values the rule text conjures out of thin air
// are interned into the worker's Overlay (base-first lookup, so anything
// the base store already knows keeps its base id — which makes base-id
// membership probes sound even against overlay-produced ids).
//
// One matcher serves both searches of Section 3.2: the body search wants
// every valuation, the head guard only whether some extension exists. It
// binds registers in place, pushing each bound slot on the trail, hands
// each extension to a continuation and unbinds before trying the next, so
// neither search copies a valuation per extension and the guard stops at
// its first hit.
// ---------------------------------------------------------------------

/// Evaluates a term under the registers; `None` means the valuation is
/// undefined on the term (unbound variable, or dereference of an undefined
/// oid). Values the term builds are interned into `interner`.
fn eval_term_id<I: ValueInterner>(
    term: &STerm<'_>,
    regs: &[Option<ValueId>],
    view: &IdView<'_>,
    interner: &mut I,
) -> Option<ValueId> {
    match term {
        STerm::Var(s) => regs[*s],
        STerm::Const(c) => Some(interner.intern_const(c)),
        STerm::Rel(r) => {
            let ids: Vec<ValueId> = view.relation_ids(*r).ok()?.collect();
            Some(interner.set_id(ids))
        }
        STerm::Class(p) => {
            let oids: Vec<Oid> = view.class(*p).ok()?.iter().copied().collect();
            let ids: Vec<ValueId> = oids.into_iter().map(|o| interner.oid_id(o)).collect();
            Some(interner.set_id(ids))
        }
        STerm::Deref(s) => {
            let o = interner.as_oid(regs[*s]?)?;
            view.value_id(o)
        }
        STerm::Set(elems) => {
            let mut ids = Vec::with_capacity(elems.len());
            for e in elems {
                ids.push(eval_term_id(e, regs, view, interner)?);
            }
            Some(interner.set_id(ids))
        }
        STerm::Tuple { fields, .. } => {
            let mut entries = Vec::with_capacity(fields.len());
            for (a, t) in fields {
                entries.push((*a, eval_term_id(t, regs, view, interner)?));
            }
            Some(interner.tuple_id(entries))
        }
    }
}

/// The continuation a match hands each extension to, with the extended
/// registers and the interner; `Break` stops the enumeration.
type Cont<'k, I, B> = dyn FnMut(&mut Regs, &mut I) -> ControlFlow<B> + 'k;

/// Matches `pattern` against the value behind `value`, calling `k` once per
/// extension of the registers that makes them equal. Most patterns are
/// deterministic (zero or one extension); set-literal patterns may match
/// in several ways (`{x, y} = {1, 2}` binds both assignments), and each is
/// a distinct valuation per the paper's semantics.
///
/// Slots are bound in place and pushed on the trail. On return the
/// registers are as they were on entry, whether `k` let the enumeration
/// finish or stopped it with `Break` (which is returned).
///
/// Newly bound slots are checked against their declared type: a valuation
/// must satisfy `θx ∈ ⟦t⟧π` (Section 3.2). This is what makes
/// union-coercion equalities (`w = v` with `w` typed at one branch of
/// `v`'s union type) act as runtime branch filters — exactly how the
/// paper's Example 3.4.3 discriminates union values — and what restricts
/// the head guard's extensions to *existing* objects of an invention
/// variable's class.
fn match_term<I: ValueInterner, B>(
    pattern: &STerm<'_>,
    value: ValueId,
    regs: &mut Regs,
    types: &[Option<&TypeExpr>],
    view: &IdView<'_>,
    interner: &mut I,
    k: &mut Cont<'_, I, B>,
) -> ControlFlow<B> {
    let mark = regs.trail.len();
    let matched = match pattern {
        STerm::Var(s) => match regs.vals[*s] {
            Some(bound) => bound == value,
            None => bind_checked(*s, value, regs, types, view, interner),
        },
        STerm::Const(c) => matches!(interner.node(value), Node::Const(c2) if *c == c2),
        STerm::Rel(_) | STerm::Class(_) | STerm::Deref(_) => {
            eval_term_id(pattern, &regs.vals, view, interner) == Some(value)
        }
        STerm::Tuple { fields, flat: true } => {
            // Every field is a variable or a constant: one pass over the
            // tuple's entries binds or compares them all.
            let Node::Tuple(entries) = interner.node(value) else {
                return ControlFlow::Continue(());
            };
            fields.len() == entries.len()
                && fields.iter().zip(entries.iter()).all(|((a, f), &(a2, v))| {
                    *a == a2
                        && match f {
                            STerm::Var(s) => match regs.vals[*s] {
                                Some(bound) => bound == v,
                                None => bind_checked(*s, v, regs, types, view, interner),
                            },
                            STerm::Const(c) => {
                                matches!(interner.node(v), Node::Const(c2) if *c == c2)
                            }
                            _ => unreachable!("a flat tuple holds variables and constants"),
                        }
                })
        }
        STerm::Tuple { fields, .. } => {
            let Node::Tuple(entries) = interner.node(value) else {
                return ControlFlow::Continue(());
            };
            if fields.len() != entries.len()
                || !fields
                    .iter()
                    .map(|(a, _)| *a)
                    .eq(entries.iter().map(|(a, _)| *a))
            {
                return ControlFlow::Continue(());
            }
            // Both sides are attribute-sorted, so position i of the node
            // is the value of the i-th pattern field.
            let entries = Arc::clone(entries);
            return match_fields(fields, &entries, regs, types, view, interner, k);
        }
        STerm::Set(pats) => {
            let Node::Set(vals) = interner.node(value) else {
                return ControlFlow::Continue(());
            };
            // Bijective match: pattern elements map to distinct set
            // elements (duplicates among instantiated pattern elements
            // would collapse, so sizes must agree).
            if pats.len() != vals.len() {
                return ControlFlow::Continue(());
            }
            let vals = Arc::clone(vals);
            // Distinct assignments can produce identical extensions. Every
            // assignment binds the same slots, so an extension is its new
            // bindings in slot order: collect them, sort, dedup, and
            // continue from each distinct one, keeping valuations set-like.
            let mut exts: Vec<Vec<(Slot, ValueId)>> = Vec::new();
            let mut used = vec![false; vals.len()];
            let _ = match_bijections(
                pats,
                &vals,
                &mut used,
                regs,
                types,
                view,
                interner,
                &mut |r: &mut Regs, _: &mut I| {
                    let mut ext: Vec<(Slot, ValueId)> = r.trail[mark..]
                        .iter()
                        .map(|&s| (s, r.vals[s].expect("trailed slots are bound")))
                        .collect();
                    ext.sort();
                    exts.push(ext);
                    ControlFlow::<()>::Continue(())
                },
            );
            exts.sort();
            exts.dedup();
            for ext in exts {
                for &(s, id) in &ext {
                    regs.bind(s, id);
                }
                let flow = k(regs, interner);
                regs.unwind(mark);
                flow?;
            }
            return ControlFlow::Continue(());
        }
    };
    let flow = if matched {
        k(regs, interner)
    } else {
        ControlFlow::Continue(())
    };
    regs.unwind(mark);
    flow
}

/// Binds unbound slot `s` to `value` if the value has the slot's declared
/// type; an ill-typed binding is not a valuation.
fn bind_checked<I: ValueReader>(
    s: Slot,
    value: ValueId,
    regs: &mut Regs,
    types: &[Option<&TypeExpr>],
    view: &IdView<'_>,
    interner: &I,
) -> bool {
    if types[s].is_some_and(|ty| !ty.member_id(value, interner, view)) {
        return false;
    }
    regs.bind(s, value);
    true
}

/// Matches tuple field patterns in order against the aligned field values,
/// then calls `k`.
fn match_fields<I: ValueInterner, B>(
    pats: &[(AttrName, STerm<'_>)],
    vals: &[(AttrName, ValueId)],
    regs: &mut Regs,
    types: &[Option<&TypeExpr>],
    view: &IdView<'_>,
    interner: &mut I,
    k: &mut Cont<'_, I, B>,
) -> ControlFlow<B> {
    let (Some(((_, p), rest)), Some(&(_, v))) = (pats.split_first(), vals.first()) else {
        return k(regs, interner);
    };
    let next = &mut |r: &mut Regs, i: &mut I| match_fields(rest, &vals[1..], r, types, view, i, k);
    match_term(p, v, regs, types, view, interner, next)
}

/// Matches each of `pats` onto a distinct unused element of `vals`, calling
/// `k` once per complete assignment.
#[allow(clippy::too_many_arguments)]
fn match_bijections<I: ValueInterner, B>(
    pats: &[STerm<'_>],
    vals: &[ValueId],
    used: &mut [bool],
    regs: &mut Regs,
    types: &[Option<&TypeExpr>],
    view: &IdView<'_>,
    interner: &mut I,
    k: &mut Cont<'_, I, B>,
) -> ControlFlow<B> {
    let Some((p, rest)) = pats.split_first() else {
        return k(regs, interner);
    };
    for (i, &v) in vals.iter().enumerate() {
        if used[i] {
            continue;
        }
        used[i] = true;
        let next =
            &mut |r: &mut Regs, i: &mut I| match_bijections(rest, vals, used, r, types, view, i, k);
        let flow = match_term(p, v, regs, types, view, interner, next);
        used[i] = false;
        flow?;
    }
    ControlFlow::Continue(())
}

// ---------------------------------------------------------------------
// Valuation search
// ---------------------------------------------------------------------

/// Renders the execution plan of a rule body — `EXPLAIN` for IQL. Useful
/// for understanding evaluation cost (scans vs. hash joins vs. enumeration
/// fallbacks) and exposed through the `iql explain` CLI subcommand.
pub fn explain_rule(rule: &Rule) -> Result<String> {
    let cr = CompiledRule::new(rule);
    let (plan, _) = cr.syntactic.as_ref().map_err(Clone::clone)?;
    let mut out = format!("plan for: {rule}\n");
    render_ops(plan, &mut out);
    Ok(out)
}

/// Renders the plan the evaluator would execute for `rule` against the
/// current statistics of `work`: cost-based order and static probe choices
/// applied, probe indexes ensured — exactly what the planner's `plan_rule`
/// hands the executor. Backs the CLI's `run --explain`.
pub fn explain_rule_planned(rule: &Rule, work: &mut Instance, cfg: &EvalConfig) -> Result<String> {
    let plan = plan_rule(&CompiledRule::new(rule), work, cfg)?;
    let mut out = format!(
        "plan for: {rule}{}\n",
        if plan.reordered { "  [reordered]" } else { "" }
    );
    render_ops(&plan.ops, &mut out);
    Ok(out)
}

fn render_ops(ops: &[Op<'_>], out: &mut String) {
    use std::fmt::Write;
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Scan {
                src,
                pat,
                probe: Some(Probe { attr, key, .. }),
                ..
            } => {
                let _ = writeln!(
                    out,
                    "  {i}: scan {src} via index .{attr}={key}, match {pat}"
                );
            }
            Op::Scan {
                src,
                pat,
                probe: None,
                ..
            } => {
                let _ = writeln!(out, "  {i}: scan {src}, match {pat}");
            }
            Op::BindEq { src, pat, .. } => {
                let _ = writeln!(out, "  {i}: eval {src}, match {pat}");
            }
            Op::Enumerate {
                item: (var, ty), ..
            } => {
                let _ = writeln!(
                    out,
                    "  {i}: enumerate {var} over active-domain {ty}  [expensive]"
                );
            }
            Op::Filter { guard, .. } => {
                let _ = writeln!(out, "  {i}: filter {guard}");
            }
            Op::NegGuard { guard, .. } => {
                let _ = writeln!(out, "  {i}: filter {guard}");
            }
        }
    }
}

/// Appends to `out` the row of every valuation `θ` of the body variables
/// with `I ⊨ θ body`, executing a pre-built [`RulePlan`] depth-first over
/// one register array: each op binds registers in place and recurses into
/// the next, and the body slots are copied out as a row after the last op.
/// Valuations come out in breadth-first order all the same — each op's
/// extensions of a valuation in order, concatenated over the valuations in
/// order.
///
/// When `delta` is `Some((d, i))`, the `i`-th relation/class scan of the
/// plan draws from the delta instead of the full extent — the
/// differentiated join of semi-naive evaluation; a relation's delta is a
/// range of its row positions. When `outer` is `Some((skip, take))`, the
/// *first* plan op (a relation/class scan — the caller checks eligibility
/// via [`outer_scan_len`]) iterates only that slice of its extent, in
/// extent order — how one large rule is partitioned across parallel
/// workers without perturbing valuation order.
///
/// A relation scan walks a range of row positions, reading each row's
/// fact id. With a statically chosen probe it looks each valuation's key
/// up in one [`ColIndex`] on the probed attribute's column: the relation's
/// *persistent* index for a whole-relation scan (counted as
/// `index_hits`), or a one-off index over the delta's or slice's range, or
/// over the whole relation when the persistent index is missing
/// (`index_misses`). Such binding-independent [`OpState`] is built when
/// the first valuation reaches its op, so an op that no valuation reaches
/// reads nothing and raises no error.
#[allow(clippy::too_many_arguments)]
fn find_valuations_id(
    cr: &CompiledRule<'_>,
    plan: &RulePlan<'_>,
    inst: &Instance,
    view: &IdView<'_>,
    ov: &mut Overlay<'_>,
    cfg: &EvalConfig,
    gov: &Governor,
    delta: Option<(&Delta, usize)>,
    outer: Option<(usize, usize)>,
    counters: &mut ScanCounters,
    out: &mut Rows,
) -> Result<()> {
    let search = Search {
        cr,
        ops: &plan.ops,
        inst,
        view: *view,
        cfg,
        gov,
        delta,
        outer,
        state: plan.ops.iter().map(|_| OnceCell::new()).collect(),
    };
    let mut walk = Walk {
        pacer: Pacer::new(gov),
        counters,
        out,
    };
    match search.descend(0, &mut Regs::new(cr.nslots()), ov, &mut walk) {
        ControlFlow::Continue(()) => Ok(()),
        ControlFlow::Break(e) => Err(e),
    }
}

/// One valuation search: the read-only inputs of [`find_valuations_id`]
/// and the state of each op.
struct Search<'s, 'p, 'v> {
    cr: &'s CompiledRule<'p>,
    ops: &'s [Op<'p>],
    inst: &'s Instance,
    view: IdView<'v>,
    cfg: &'s EvalConfig,
    gov: &'s Governor,
    delta: Option<(&'s Delta, usize)>,
    outer: Option<(usize, usize)>,
    state: Vec<OnceCell<OpState<'v>>>,
}

/// What an op reads that does not depend on the valuation.
enum OpState<'v> {
    /// A relation scan: the relation's rows, the positions it reads, and
    /// with a probe the probed pattern field and an index over exactly
    /// those positions.
    Rows {
        rows: &'v IdRelation,
        range: Range<u32>,
        probe: Option<(usize, Cow<'v, ColIndex>)>,
    },
    /// An enumeration: the candidate values, in order.
    Values(Vec<ValueId>),
    /// A class scan: the candidate oids, in extent order.
    Oids(Vec<Oid>),
    /// Nothing beyond the valuation.
    Stateless,
}

/// What a search writes as it walks.
struct Walk<'c> {
    pacer: Pacer,
    counters: &'c mut ScanCounters,
    out: &'c mut Rows,
}

impl Walk<'_> {
    /// Counts one unit of work; `Break` on a deadline/cancellation trip.
    fn tick(&mut self, gov: &Governor) -> ControlFlow<IqlError> {
        match self.pacer.tick(gov) {
            Some(reason) => ControlFlow::Break(reason.into()),
            None => ControlFlow::Continue(()),
        }
    }
}

fn is_source_scan(op: &Op<'_>) -> bool {
    matches!(
        op,
        Op::Scan {
            src: Term::Rel(_) | Term::Class(_),
            ..
        }
    )
}

/// The oids a class scan iterates, in extent order: `source` (`None` is
/// empty), cut to the `(skip, take)` slice of a parallel worker.
fn class_candidates(source: Option<&BTreeSet<Oid>>, slice: Option<(usize, usize)>) -> Vec<Oid> {
    let (skip, take) = slice.unwrap_or((0, usize::MAX));
    source
        .into_iter()
        .flatten()
        .skip(skip)
        .take(take)
        .copied()
        .collect()
}

impl<'v> Search<'_, '_, 'v> {
    /// The set and element terms of the membership literal a scan reads.
    fn member(&self, lit: usize) -> (&STerm<'_>, &STerm<'_>) {
        match &self.cr.body[lit] {
            SLit::Member { set, elem, .. } => (set, elem),
            _ => unreachable!("a scan reads a membership literal"),
        }
    }

    /// Extends the registers through ops `i..`, appending the row of every
    /// complete valuation to `walk.out`.
    fn descend(
        &self,
        i: usize,
        regs: &mut Regs,
        ov: &mut Overlay<'_>,
        walk: &mut Walk<'_>,
    ) -> ControlFlow<IqlError> {
        let Some(op) = self.ops.get(i) else {
            debug_assert!(
                self.cr.invent.iter().all(|&(s, _)| regs.vals[s].is_none()),
                "a valuation binds exactly the body variables"
            );
            walk.out.push(&regs.vals, &self.cr.body_slots);
            return ControlFlow::Continue(());
        };
        // Cooperative poll for deadline/cancellation, strided so the
        // ungoverned hot path pays one predictable branch per tick. Ticks
        // sit on the loops that can run away: per valuation at every op,
        // and per candidate in `each` (a divergent program spends whole
        // steps inside a single valuation's scan).
        walk.tick(self.gov)?;
        let state = match self.state(i, ov) {
            Ok(state) => state,
            Err(e) => return ControlFlow::Break(e),
        };
        let view = &self.view;
        match (op, state) {
            (Op::Scan { lit, .. }, OpState::Rows { rows, range, probe }) => {
                let (_, pat) = self.member(*lit);
                let key = match probe {
                    Some((field, index)) => {
                        if let Cow::Borrowed(_) = index {
                            walk.counters.index_hits += 1;
                        } else {
                            walk.counters.index_misses += 1;
                        }
                        let STerm::Tuple { fields, .. } = pat else {
                            unreachable!("a probe reads a tuple pattern's field")
                        };
                        // The probe term is fully bound under every
                        // valuation (planner invariant); if it is
                        // undefined, no fact can match. Postings walk in
                        // position order, the order of a scan, so probing
                        // never changes valuation order.
                        match eval_term_id(&fields[*field].1, &regs.vals, view, ov) {
                            Some(key) => Some((&**index, key)),
                            None => return ControlFlow::Continue(()),
                        }
                    }
                    None => None,
                };
                for pos in rows.positions(range.clone(), key) {
                    self.each(i, pat, rows.tuple_at(pos)[0], regs, ov, walk)?;
                }
            }
            (Op::Scan { lit, .. }, OpState::Oids(oids)) => {
                let (_, pat) = self.member(*lit);
                for &o in oids {
                    let vid = ov.oid_id(o);
                    self.each(i, pat, vid, regs, ov, walk)?;
                }
            }
            (Op::Scan { lit, .. }, _) => {
                let (set, pat) = self.member(*lit);
                // Undefined or non-set ⇒ unsatisfied (typing!).
                let Some(sid) = eval_term_id(set, &regs.vals, view, ov) else {
                    return ControlFlow::Continue(());
                };
                let Node::Set(elems) = ov.node(sid) else {
                    return ControlFlow::Continue(());
                };
                for &vid in Arc::clone(elems).iter() {
                    self.each(i, pat, vid, regs, ov, walk)?;
                }
            }
            (Op::BindEq { lit, left_src, .. }, _) => {
                let SLit::Eq { left, right, .. } = &self.cr.body[*lit] else {
                    unreachable!("a bind reads an equality")
                };
                let (src, pat) = if *left_src {
                    (left, right)
                } else {
                    (right, left)
                };
                if let Some(val) = eval_term_id(src, &regs.vals, view, ov) {
                    self.each(i, pat, val, regs, ov, walk)?;
                }
            }
            (Op::Enumerate { slot, .. }, OpState::Values(ids)) => match regs.vals[*slot] {
                Some(bound) => {
                    if ids.contains(&bound) {
                        self.descend(i + 1, regs, ov, walk)?;
                    }
                }
                None => {
                    for &id in ids {
                        regs.vals[*slot] = Some(id);
                        let flow = self.descend(i + 1, regs, ov, walk);
                        regs.vals[*slot] = None;
                        flow?;
                    }
                }
            },
            (Op::Enumerate { .. }, _) => unreachable!("an enumeration prepares its values"),
            // Positive guards and negation guards execute identically here
            // (`literal_satisfied_id` honours the literal's own polarity);
            // the plan keeps them distinct because negation placement is
            // the semantically delicate part of planning.
            (Op::Filter { lit, .. } | Op::NegGuard { lit, .. }, _) => {
                if literal_satisfied_id(&self.cr.body[*lit], &regs.vals, view, ov) {
                    self.descend(i + 1, regs, ov, walk)?;
                }
            }
        }
        ControlFlow::Continue(())
    }

    /// Matches `pat` against one candidate `value` of op `i` and continues
    /// with the next op, after a pacer tick.
    fn each(
        &self,
        i: usize,
        pat: &STerm<'_>,
        value: ValueId,
        regs: &mut Regs,
        ov: &mut Overlay<'_>,
        walk: &mut Walk<'_>,
    ) -> ControlFlow<IqlError> {
        walk.tick(self.gov)?;
        let next = &mut |r: &mut Regs, ov: &mut Overlay<'_>| self.descend(i + 1, r, ov, walk);
        match_term(pat, value, regs, &self.cr.types, &self.view, ov, next)
    }

    /// The state of op `i`, built on the first call.
    fn state(&self, i: usize, ov: &mut Overlay<'_>) -> Result<&OpState<'v>> {
        if let Some(state) = self.state[i].get() {
            return Ok(state);
        }
        let state = self.prepare(i, ov)?;
        Ok(self.state[i].get_or_init(|| state))
    }

    fn prepare(&self, i: usize, ov: &mut Overlay<'_>) -> Result<OpState<'v>> {
        let op = &self.ops[i];
        // Only op 0 is sliced; the delta replaces the extent of the
        // relation/class scan whose ordinal it names.
        let slice = self.outer.filter(|_| i == 0);
        let restrict = self.delta.filter(|&(_, at)| {
            is_source_scan(op) && self.ops[..i].iter().filter(|op| is_source_scan(op)).count() == at
        });
        Ok(match op {
            Op::Scan {
                src: Term::Rel(r),
                probe,
                ..
            } => {
                // Error parity across access paths: an unknown relation is
                // an error no matter which index (if any) would serve the
                // scan.
                let rows = self.view.relation_rows(*r)?;
                let all = rows.all();
                let range = match (restrict, slice) {
                    (Some((d, _)), _) => {
                        let range = d.ranges.get(r).cloned().unwrap_or(all.end..all.end);
                        debug_assert_eq!(range.end, all.end, "a delta range never spans a removal");
                        range
                    }
                    (None, Some((skip, take))) => {
                        let end = (skip + take).min(rows.len()) as u32;
                        (skip as u32).min(end)..end
                    }
                    (None, None) => all,
                };
                // A whole-relation scan probes the frozen instance's
                // persistent index on the planner-chosen attribute's
                // column. A probe key the base store has never seen gets
                // an overlay-local id, which correctly misses every
                // (base-id) index entry. Otherwise the index is built over
                // the range.
                let probe = probe.as_ref().and_then(|p| {
                    let col = self.view.rel_column(*r, p.attr)?;
                    let index = match rows.index(col) {
                        Some(index) if slice.is_none() && restrict.is_none() => {
                            Cow::Borrowed(index)
                        }
                        _ => Cow::Owned(rows.index_over(col, range.clone())),
                    };
                    Some((p.field, index))
                });
                OpState::Rows { rows, range, probe }
            }
            Op::Scan {
                src: Term::Class(p),
                ..
            } => {
                let extent = self.view.class(*p)?;
                let source = match restrict {
                    Some((d, _)) => d.classes.get(p),
                    None => Some(extent),
                };
                OpState::Oids(class_candidates(source, slice))
            }
            Op::Enumerate {
                item: (var, ty), ..
            } => {
                let values = self
                    .inst
                    .enumerate_type(ty, self.cfg.enum_budget)
                    .map_err(|e| {
                        // Surface the variable whose active-domain
                        // enumeration blew the budget; other model errors
                        // pass through.
                        match e {
                            iql_model::ModelError::EnumerationBudget { budget, ty } => {
                                IqlError::EnumBudget {
                                    var: var.clone(),
                                    ty,
                                    budget,
                                }
                            }
                            other => IqlError::Model(other),
                        }
                    })?;
                // Intern in enumeration (tree) order — deterministic, and
                // shared substructure across enumerated values is free.
                OpState::Values(values.iter().map(|v| ov.intern(v)).collect())
            }
            _ => OpState::Stateless,
        })
    }
}

/// `I ⊨ θ lit` for a fully-bound literal. Membership in a relation or
/// class extent is decided against the id sets directly — no set value is
/// materialized for the common `x ∈ R` / `x ∉ R` probes.
fn literal_satisfied_id<I: ValueInterner>(
    lit: &SLit<'_>,
    regs: &[Option<ValueId>],
    view: &IdView<'_>,
    interner: &mut I,
) -> bool {
    match lit {
        SLit::Member {
            set,
            elem,
            positive,
        } => {
            let Some(ev) = eval_term_id(elem, regs, view, interner) else {
                return false; // valuation must be defined on both terms
            };
            match set {
                STerm::Rel(r) => view.holds(*r, ev).is_ok_and(|member| member == *positive),
                STerm::Class(p) => {
                    let Ok(s) = view.class(*p) else { return false };
                    let member = interner.as_oid(ev).map(|o| s.contains(&o)).unwrap_or(false);
                    member == *positive
                }
                _ => {
                    let Some(sv) = eval_term_id(set, regs, view, interner) else {
                        return false;
                    };
                    match interner.set_contains(sv, ev) {
                        Some(m) => m == *positive,
                        None => false, // non-set ⇒ unsatisfied
                    }
                }
            }
        }
        SLit::Eq {
            left,
            right,
            positive,
        } => {
            let (Some(lv), Some(rv)) = (
                eval_term_id(left, regs, view, interner),
                eval_term_id(right, regs, view, interner),
            ) else {
                return false;
            };
            (lv == rv) == *positive
        }
        SLit::Choose => true,
    }
}

// ---------------------------------------------------------------------
// Head-satisfaction guard (the val-dom "no extension" condition)
// ---------------------------------------------------------------------

/// Is there an extension `θ̄` of the valuation in `regs` over the invention
/// slots such that `I ⊨ θ̄ head`? (If so, the pair is *not* in the
/// valuation-domain.) Where the guard evaluates the head term — a head
/// without invention variables — it leaves the value in `head`, so apply
/// derives the fact the guard tested, evaluated in the pre-step instance.
///
/// Fully-bound heads reduce to a single id-set membership probe (a
/// relation head without invention variables takes [`guard_fact`]
/// instead). With invention variables, candidate facts go through
/// [`match_term`] with a continuation that stops at the first extension;
/// an overlay-local id on either side proves the value is absent from the
/// frozen base store, so base-id comparisons stay sound throughout.
fn head_satisfiable_id<I: ValueInterner>(
    cr: &CompiledRule<'_>,
    regs: &mut Regs,
    view: &IdView<'_>,
    interner: &mut I,
    head: &mut Option<ValueId>,
) -> bool {
    let no_invention = cr.invent.is_empty();
    // The matcher restores the registers it extends, so one register array
    // serves every candidate.
    let extends = |t: &STerm<'_>, value: ValueId, regs: &mut Regs, interner: &mut I| {
        let stop = &mut |_: &mut Regs, _: &mut I| ControlFlow::Break(());
        match_term(t, value, regs, &cr.types, view, interner, stop).is_break()
    };
    match &cr.head {
        SHead::Rel(r, t) => view
            .relation_ids(*r)
            .is_ok_and(|mut facts| facts.any(|fid| extends(t, fid, regs, interner))),
        SHead::Class(p, v) => match regs.vals[*v] {
            Some(id) => match interner.as_oid(id) {
                Some(o) => view.class(*p).map(|s| s.contains(&o)).unwrap_or(false),
                None => false,
            },
            // Invention variable: satisfied iff some existing oid inhabits P.
            None => view.class(*p).map(|s| !s.is_empty()).unwrap_or(false),
        },
        SHead::SetMember(x, t) => head_oids(cr, &regs.vals, *x, view, interner)
            .into_iter()
            .any(|o| {
                let Some(Node::Set(elems)) = view.value_id(o).map(|sid| interner.node(sid)) else {
                    return false;
                };
                let elems = Arc::clone(elems);
                if no_invention {
                    *head = eval_term_id(t, &regs.vals, view, interner);
                    return head.is_some_and(|v| elems.binary_search(&v).is_ok());
                }
                elems
                    .iter()
                    .any(|&member| extends(t, member, regs, interner))
            }),
        SHead::Assign(x, t) => head_oids(cr, &regs.vals, *x, view, interner)
            .into_iter()
            .any(|o| match view.value_id(o) {
                Some(vid) if no_invention => {
                    *head = eval_term_id(t, &regs.vals, view, interner);
                    *head == Some(vid)
                }
                Some(vid) => extends(t, vid, regs, interner),
                None => false,
            }),
        SHead::DeleteRel(..) | SHead::DeleteOid(..) | SHead::DeleteSetMember(..) => false,
    }
}

/// The guard of a relation head `r(t)` without invention variables: is the
/// head's fact new to `r` in the frozen instance? If so, its row goes to
/// `facts`. A tuple term's entries are evaluated — slots are register
/// reads, and constants and nested terms are interned in the overlay — and
/// the tuple itself is looked up in the frozen store without being
/// interned: a tuple the store lacks is a new fact, without a membership
/// probe, and is left to the merge to intern. Any other term is evaluated
/// whole and probed.
#[allow(clippy::too_many_arguments)]
fn guard_fact(
    cr: &CompiledRule<'_>,
    r: RelName,
    t: &STerm<'_>,
    layout: RowLayout<'_>,
    regs: &[Option<ValueId>],
    view: &IdView<'_>,
    ov: &mut Overlay<'_>,
    facts: &mut Facts,
) -> Result<bool> {
    let STerm::Tuple { fields: pats, .. } = t else {
        let fid = eval_term_id(t, regs, view, ov).ok_or_else(|| undefined_head(cr))?;
        if view.holds(r, fid)? {
            return Ok(false);
        }
        facts.of_fire.push(facts.rows.len());
        layout.push_fact(&mut facts.rows, fid, &*ov);
        return Ok(true);
    };
    let start = facts.fields.len();
    for (a, p) in pats {
        let Some(v) = eval_term_id(p, regs, view, ov) else {
            facts.fields.truncate(start);
            return Err(undefined_head(cr));
        };
        facts.fields.push((*a, v));
    }
    let fields = &facts.fields[start..];
    let frozen = ov.base();
    let key = NodeRef::Tuple(fields);
    let row = facts.rows.len();
    // An entry the overlay interned is new to the frozen store, and so is
    // any tuple holding it.
    let base_len = frozen.len() as u32;
    let mut hash = None;
    if fields.iter().all(|(_, v)| v.raw() < base_len) {
        let h = frozen.hash_key(key);
        // A tuple this task found new before is new again, on the same
        // row; only a tuple it has not seen takes a probe of the store.
        let pending = &facts.pending;
        let same = |p: u32| facts.fields[pending[p as usize].fields.clone()] == *fields;
        if let Some(p) = facts.chains.find(h.raw(), same) {
            facts.fields.truncate(start);
            facts.of_fire.push(facts.pending[p as usize].row);
            return Ok(true);
        }
        if let Some(fid) = frozen.find_hashed(key, h) {
            let fire = !view.holds(r, fid)?;
            if fire {
                facts.of_fire.push(row);
                layout.push_row(&mut facts.rows, fid, fields);
            }
            facts.fields.truncate(start);
            return Ok(fire);
        }
        hash = Some(h);
    }
    // A tuple without a hash holds an overlay id, so no probe (of store ids
    // only) can match it: chaining it under 0 is safe.
    facts.chains.push(hash.map_or(0, NodeHash::raw));
    facts.pending.push(Pending {
        row,
        fields: start..facts.fields.len(),
        at: ov.len() - frozen.len(),
        hash,
    });
    facts.of_fire.push(row);
    layout.push_row(&mut facts.rows, ValueId::ABSENT, fields);
    Ok(true)
}

/// An id of a task's fires or facts as a store id: a log id at or above
/// `base_len` goes through the merge's `remap`; store ids and
/// [`ValueId::ABSENT`] stay.
fn remapped(id: ValueId, base_len: u32, remap: &[ValueId]) -> ValueId {
    if id.raw() < base_len || id == ValueId::ABSENT {
        id
    } else {
        remap[(id.raw() - base_len) as usize]
    }
}

/// The error of a head term the valuation leaves undefined.
fn undefined_head(cr: &CompiledRule<'_>) -> IqlError {
    IqlError::Invalid(format!("head term of {} undefined at application", cr.rule))
}

/// The objects an `x^` head can write: the oid in register `x`, or every
/// existing member of the class of an invention variable `x`.
fn head_oids<I: ValueInterner>(
    cr: &CompiledRule<'_>,
    regs: &[Option<ValueId>],
    x: Slot,
    view: &IdView<'_>,
    interner: &I,
) -> Vec<Oid> {
    match regs[x] {
        Some(id) => interner.as_oid(id).into_iter().collect(),
        None => match cr.types[x] {
            Some(TypeExpr::Class(p)) => view
                .class(*p)
                .map(|s| s.iter().copied().collect())
                .unwrap_or_default(),
            _ => Vec::new(),
        },
    }
}

/// Does the deletion head's target fact exist under the valuation? The
/// value to delete, where the head has a term, is left in `head`.
fn deletion_applicable_id<I: ValueInterner>(
    cr: &CompiledRule<'_>,
    regs: &[Option<ValueId>],
    view: &IdView<'_>,
    interner: &mut I,
    head: &mut Option<ValueId>,
) -> bool {
    match &cr.head {
        SHead::DeleteRel(r, t) => {
            *head = eval_term_id(t, regs, view, interner);
            head.is_some_and(|v| view.holds(*r, v) == Ok(true))
        }
        SHead::DeleteOid(p, x) => match regs[*x].and_then(|id| interner.as_oid(id)) {
            Some(o) => view.class(*p).map(|s| s.contains(&o)).unwrap_or(false),
            None => false,
        },
        SHead::DeleteSetMember(x, t) => {
            let Some(o) = regs[*x].and_then(|id| interner.as_oid(id)) else {
                return false;
            };
            *head = eval_term_id(t, regs, view, interner);
            let Some(v) = *head else {
                return false;
            };
            view.value_id(o)
                .map(|sid| interner.set_contains(sid, v) == Some(true))
                .unwrap_or(false)
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_unit;
    use iql_model::{OValue, RelName};

    fn tc_unit() -> crate::parser::Unit {
        parse_unit(
            r#"
            schema {
              relation Edge: [src: D, dst: D];
              relation Tc:  [src: D, dst: D];
            }
            program {
              input Edge;
              output Tc;
              Tc(x, y) :- Edge(x, y);
              Tc(x, z) :- Tc(x, y), Edge(y, z);
            }
            instance {
              Edge("a", "b");
              Edge("b", "c");
            }
            "#,
        )
        .unwrap()
    }

    #[test]
    fn explain_shows_scans_in_join_order() {
        let unit = tc_unit();
        let prog = unit.program.unwrap();
        let rule = &prog.stages[0].rules[1];
        let plan = explain_rule(rule).unwrap();
        assert!(plan.contains("scan Tc"));
        assert!(plan.contains("scan Edge"));
        // Tc is scanned first (source order at score ties), then Edge joins
        // on the shared variable.
        let tc_pos = plan.find("scan Tc").unwrap();
        let edge_pos = plan.find("scan Edge").unwrap();
        assert!(tc_pos < edge_pos);
    }

    #[test]
    fn explain_marks_enumeration_fallbacks() {
        let prog = crate::programs::powerset_unrestricted_program();
        let rule = &prog.stages[0].rules[0];
        let plan = explain_rule(rule).unwrap();
        assert!(plan.contains("enumerate"), "{plan}");
        assert!(plan.contains("[expensive]"));
    }

    #[test]
    fn indexes_do_not_change_results() {
        // Join order, delta-driven evaluation and the worker pool are pure
        // optimizations over the same index probes: every cell of the
        // planner × seminaive × threads matrix must produce the
        // bit-identical output and the identical semantic counters.
        let unit = tc_unit();
        let prog = unit.program.unwrap();
        let input = unit.instance.unwrap();
        let base = run(&prog, &input, &EvalConfig::default()).unwrap();
        for planner in [true, false] {
            for seminaive in [true, false] {
                for threads in [1, 4] {
                    let cfg = EvalConfig::builder()
                        .planner(planner)
                        .seminaive(seminaive)
                        .threads(threads)
                        .build();
                    let arm = run(&prog, &input, &cfg).unwrap();
                    let label =
                        format!("planner={planner} seminaive={seminaive} threads={threads}");
                    assert_eq!(
                        arm.output.ground_facts(),
                        base.output.ground_facts(),
                        "{label}"
                    );
                    assert_eq!(arm.full.ground_facts(), base.full.ground_facts(), "{label}");
                    assert_eq!(arm.report.counters(), base.report.counters(), "{label}");
                }
            }
        }
    }

    /// A transitive-closure unit over a chain of `n` edges — enough steps
    /// for the working instance's statistics to cross several power-of-two
    /// extent boundaries mid-run.
    fn chain_unit(n: usize) -> crate::parser::Unit {
        let mut src = String::from(
            r#"
            schema {
              relation Edge: [src: D, dst: D];
              relation Tc:  [src: D, dst: D];
            }
            program {
              input Edge;
              output Tc;
              Tc(x, y) :- Edge(x, y);
              Tc(x, z) :- Tc(x, y), Edge(y, z);
            }
            instance {
            "#,
        );
        for i in 0..n {
            src.push_str(&format!("Edge(\"n{i}\", \"n{}\");\n", i + 1));
        }
        src.push('}');
        parse_unit(&src).unwrap()
    }

    #[test]
    fn plan_cache_hits_and_replans_on_epoch_bump() {
        let unit = chain_unit(12);
        let prog = unit.program.unwrap();
        let input = unit.instance.unwrap();
        let nrules = prog.stages[0].rules.len();

        let cached = run(&prog, &input, &EvalConfig::default()).unwrap();
        // Steady-state steps (no statistics change) reuse the cached plans…
        assert!(cached.report.plans_cached > 0, "{}", cached.report);
        // …and the growing Tc extent bumps the epoch at power-of-two
        // crossings, forcing mid-run re-plans beyond the initial one.
        assert!(cached.report.plans_fresh > nrules, "{}", cached.report);

        // Every step of the single stage either plans every rule afresh or
        // reuses every cached plan: hits and misses add up to the
        // replan-every-step total.
        assert_eq!(
            cached.report.plans_fresh + cached.report.plans_cached,
            cached.report.steps * nrules,
            "{}",
            cached.report
        );

        // Planner off: same fixpoint again (plans are pure optimization).
        let unplanned = run(&prog, &input, &EvalConfig::builder().planner(false).build()).unwrap();
        assert_eq!(
            unplanned.output.ground_facts(),
            cached.output.ground_facts()
        );
        assert_eq!(unplanned.full.ground_facts(), cached.full.ground_facts());
    }

    #[test]
    fn epoch_bump_produces_a_different_plan() {
        let unit = chain_unit(12);
        let prog = unit.program.unwrap();
        let input = unit.instance.unwrap();
        let cfg = EvalConfig::default();
        // Tc(x, z) :- Tc(x, y), Edge(y, z);
        let rule = &prog.stages[0].rules[1];

        // Step-0 statistics: Tc is empty, so scanning it first is already
        // optimal and the costed plan keeps the textual order.
        let mut early = Instance::new(Arc::clone(&prog.schema));
        for r in prog.input.relations() {
            for v in input.relation(r).unwrap() {
                early.insert_unchecked(r, v.clone()).unwrap();
            }
        }
        let before = explain_rule_planned(rule, &mut early, &cfg).unwrap();
        assert!(!before.contains("[reordered]"), "{before}");

        // Fixpoint statistics: Tc (78 pairs) outgrew Edge (12), so the
        // cost-based plan scans Edge first — the epoch bumps along the way
        // are what forced the evaluator to pick this up mid-run.
        let out = run(&prog, &input, &cfg).unwrap();
        let mut late = out.full.clone();
        let after = explain_rule_planned(rule, &mut late, &cfg).unwrap();
        assert!(after.contains("[reordered]"), "{after}");
        assert_ne!(before, after, "the epoch bump must change the plan");
    }

    #[test]
    fn fact_budget_is_enforced() {
        let unit = tc_unit();
        let prog = unit.program.unwrap();
        let input = unit.instance.unwrap();
        let cfg = EvalConfig::builder().max_facts(2).build();
        let err = run(&prog, &input, &cfg).unwrap_err();
        assert!(matches!(err, IqlError::FactBudget { limit: 2 }));
    }

    #[test]
    fn enum_budget_is_enforced() {
        let prog = crate::programs::powerset_unrestricted_program();
        let mut input = Instance::new(Arc::clone(&prog.input));
        for i in 0..10 {
            input
                .insert(RelName::new("R"), OValue::tuple([("a", OValue::int(i))]))
                .unwrap();
        }
        let cfg = EvalConfig::builder().enum_budget(16).build(); // 2^10 subsets won't fit
        let err = run(&prog, &input, &cfg).unwrap_err();
        match err {
            IqlError::EnumBudget { var, ty, budget } => {
                assert_eq!(budget, 16);
                assert!(!var.to_string().is_empty());
                assert!(!ty.is_empty());
            }
            other => panic!("expected EnumBudget, got {other:?}"),
        }
    }

    /// Relation heads of every shape reach their relation as rows: flat
    /// tuples, tuples holding a constant the input lacks or a nested set,
    /// a head that is a whole variable (a tuple-typed one, and one of type
    /// D), and a union-typed relation; many fires derive the same fact.
    /// Every worker count and both evaluation modes agree on the facts,
    /// their order and the store, and the facts are the expected ones.
    #[test]
    fn relation_heads_of_every_shape_write_rows() {
        let unit = parse_unit(
            r#"
            schema {
              relation E: [a: D, b: D];
              relation Flat: [x: D, tag: D];
              relation Nest: [x: D, s: {D}];
              relation Whole: [a: D, b: D];
              relation Name: D;
              relation U: [x: D] | [x: D, y: D];
              relation Reach: [x: D];
            }
            program {
              input E;
              output Flat, Nest, Whole, Name, U, Reach;
              Flat(x, "fresh") :- E(x, y);
              Nest(x, {y, "k"}) :- E(x, y);
              Whole(e) :- E(e), e = [a: x, b: y];
              Name(x) :- E(x, y);
              U([x: y]) :- E(x, y);
              U([x: x, y: y]) :- E(x, y);
              Reach(y) :- E("a", y);
              Reach(z) :- Reach(y), E(y, z);
            }
            instance {
              E("a", "b"); E("a", "c"); E("b", "c"); E("c", "d"); E("b", "d");
            }
            "#,
        )
        .unwrap();
        let prog = unit.program.unwrap();
        let input = unit.instance.unwrap();
        let observe = |out: &EvalOutput| {
            let rels = ["Flat", "Nest", "Whole", "Name", "U", "Reach"];
            let facts: Vec<Vec<String>> = rels
                .iter()
                .map(|r| {
                    let ids = out.full.relation_ids(RelName::new(r)).unwrap();
                    ids.map(|id| out.full.store().resolve(id).to_string())
                        .collect()
                })
                .collect();
            (facts, out.full.store().len(), out.report.rule_fires.clone())
        };
        let default = run(&prog, &input, &EvalConfig::default()).unwrap();
        let base = observe(&default);
        for threads in [1, 4] {
            for seminaive in [true, false] {
                let cfg = EvalConfig::builder()
                    .threads(threads)
                    .seminaive(seminaive)
                    .build();
                let out = run(&prog, &input, &cfg).unwrap();
                if seminaive {
                    assert_eq!(observe(&out), base, "{threads} thread(s)");
                }
                assert_eq!(out.output, default.output);
            }
        }
        let sorted = |k: usize| {
            let mut v = base.0[k].clone();
            v.sort();
            v
        };
        assert_eq!(
            sorted(0),
            [
                "[tag: \"fresh\", x: \"a\"]",
                "[tag: \"fresh\", x: \"b\"]",
                "[tag: \"fresh\", x: \"c\"]"
            ]
        );
        assert_eq!(base.0[1].len(), 5, "one nested set per edge");
        assert_eq!(base.0[2].len(), 5, "each edge whole");
        assert_eq!(sorted(3), ["\"a\"", "\"b\"", "\"c\""]);
        assert_eq!(
            base.0[4].len(),
            3 + 5,
            "U: one [x] per target, one [x, y] per edge"
        );
        assert_eq!(sorted(5), ["[x: \"b\"]", "[x: \"c\"]", "[x: \"d\"]"]);
        // Three edges leave a, b and c: the flat rule fires per edge.
        assert_eq!(base.2[&(0, 0)], 5);
    }

    #[test]
    fn empty_body_rules_fire_once() {
        let unit = parse_unit(
            r#"
            schema {
              relation Seed: [s: {D}];
            }
            program {
              output Seed;
              Seed({});
            }
            "#,
        )
        .unwrap();
        let prog = unit.program.unwrap();
        let input = Instance::new(Arc::clone(&prog.input));
        let out = run(&prog, &input, &EvalConfig::default()).unwrap();
        assert_eq!(out.output.relation(RelName::new("Seed")).unwrap().len(), 1);
        assert_eq!(out.report.steps, 2);
    }

    #[test]
    fn eval_term_undefined_cases() {
        let unit = tc_unit();
        let mut input = unit.instance.unwrap();
        let regs = [None];
        let (store, view) = input.store_and_view();
        // Unbound variable → undefined.
        assert_eq!(eval_term_id(&STerm::Var(0), &regs, &view, store), None);
        // Relation term evaluates to its current contents as a set.
        let v = eval_term_id(&STerm::Rel(RelName::new("Edge")), &regs, &view, store).unwrap();
        assert_eq!(store.as_set(v).map(<[ValueId]>::len), Some(2));
    }

    #[test]
    fn match_all_enumerates_set_assignments() {
        let unit = tc_unit();
        let mut input = unit.instance.unwrap();
        let pattern = STerm::Set(vec![STerm::Var(0), STerm::Var(1)]);
        let (store, view) = input.store_and_view();
        let value = store.intern(&OValue::set([OValue::int(1), OValue::int(2)]));
        let types = [None, None];
        let matches = |value, store: &mut ValueStore, stop: bool| {
            let (mut regs, mut seen) = (Regs::new(2), Vec::new());
            let flow = match_term(
                &pattern,
                value,
                &mut regs,
                &types,
                &view,
                store,
                &mut |r: &mut Regs, _: &mut ValueStore| {
                    seen.push(r.vals.clone());
                    if stop {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                },
            );
            assert!(
                regs.vals.iter().all(Option::is_none) && regs.trail.is_empty(),
                "registers restored"
            );
            assert_eq!(flow.is_break(), stop && !seen.is_empty());
            seen
        };
        assert_eq!(
            matches(value, store, false).len(),
            2,
            "both bijections are produced"
        );
        // A continuation that stops sees exactly one extension.
        assert_eq!(matches(value, store, true).len(), 1);
        // Size mismatch → no match.
        let single = store.intern(&OValue::set([OValue::int(1)]));
        assert!(matches(single, store, false).is_empty());
    }
}
