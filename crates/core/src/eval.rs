//! The naive inflationary evaluator (Section 3.2).
//!
//! Semantics follows the paper exactly: evaluation proceeds in *steps*; each
//! step
//!
//! 1. computes the **valuation-domain** — all `(rule, θ)` with `I ⊨ θ body`
//!    such that *no extension* of `θ` already satisfies the head (this
//!    head-satisfaction guard is what terminates oid invention). Both
//!    searches run on one pattern matcher: the body search walks the rule's
//!    plan depth-first over one binding, the guard stops at the first
//!    extension it finds;
//! 2. picks a **valuation-map** — fresh, pairwise-distinct oids for every
//!    head-only variable of every `(rule, θ)` (or, under IQL⁺ `choose`, an
//!    existing object chosen generically, Section 4.4);
//! 3. adds the derived ground facts, subject to the **weak-assignment**
//!    condition (†): a non-set oid's value is set only if currently
//!    undefined and uniquely derived this step.
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

use crate::ast::{Head, Literal, Program, Rule, Stage, Term, VarName};
use crate::error::{IqlError, Result};
use crate::govern::{governor_from_config, AbortReason, Aborted, Governor, Pacer, RunOutcome};
use crate::planner::{build_plan, plan_rule, Op, PlanSource, RulePlan};
use iql_exec::{chunk_ranges, run_tasks};
use iql_model::iso::orbits;
use iql_model::{
    AttrIndex, AttrName, ClassName, IdView, Instance, Node, Oid, Overlay, OverlayLog, TypeExpr,
    ValueId, ValueInterner, ValueReader, ValueStore,
};
use std::borrow::Cow;
use std::cell::OnceCell;
use std::collections::{btree_map, BTreeMap, BTreeSet};
use std::fmt;
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

/// A valuation `θ` of rule variables to o-values, held as interned ids:
/// `Copy` values, O(1) equality, and clones that copy machine words instead
/// of o-value trees. Ids are relative to the working instance's store,
/// possibly extended by a worker-local [`Overlay`] during the search phase.
type IdBinding = BTreeMap<VarName, ValueId>;

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
    /// the same statically chosen probes into the instance's persistent
    /// secondary indexes. A pure optimization — outputs are bit-identical
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
    /// Test hook: make the search task(s) of this rule index panic, to
    /// exercise worker-panic containment. Not part of the stable API.
    #[doc(hidden)]
    pub test_panic_rule: Option<usize>,
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
            test_panic_rule: None,
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

    /// Test hook: panic in the search task(s) of rule `ri`.
    #[doc(hidden)]
    pub fn test_panic_rule(mut self, ri: usize) -> Self {
        self.cfg.test_panic_rule = Some(ri);
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
    /// Scan probes answered by a persistent secondary index.
    pub index_hits: usize,
    /// Scan probes answered by a scan-local index built over the
    /// materialized candidates: delta and chunk-restricted scans, and
    /// full-extent scans whose persistent index is missing.
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
    input
        .validate()
        .map_err(|e| IqlError::BadInput(e.to_string()))?;

    // Working instance over the full schema S: a copy-on-write fork of the
    // input, so the run starts from the loaded snapshot without copying it
    // and the input is never written.
    let mut work = input.fork(&prog.schema)?;

    // One governor for the whole run: the deadline clock spans all stages.
    let gov = governor_from_config(cfg);
    let mut report = EvalReport::default();
    let mut trip: Option<AbortReason> = None;
    for stage in &prog.stages {
        if let Some(reason) = run_stage_governed(stage, &mut work, cfg, &gov, &mut report)? {
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

/// Runs one stage to its inflationary fixpoint under `gov`, returning
/// `Ok(Some(reason))` on a resource trip with `work` left at the last
/// consistent snapshot (the deterministic budgets are checked at step
/// boundaries; an asynchronous mid-step trip discards the whole
/// interrupted step).
fn run_stage_governed(
    stage: &Stage,
    work: &mut Instance,
    cfg: &EvalConfig,
    gov: &Governor,
    report: &mut EvalReport,
) -> Result<Option<AbortReason>> {
    let stage_idx = report.stages;
    report.stages += 1;
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
            report.plans_cached += stage.rules.len();
        } else {
            let plans: Vec<RulePlan<'_>> = stage
                .rules
                .iter()
                .map(|r| plan_rule(r, work, cfg))
                .collect::<Result<Vec<_>>>()?;
            report.plans_fresh += plans.len();
            cached = Some((work.stats_epoch(), plans));
        }
        let plans = &cached.as_ref().expect("planned above").1;
        report.plans_reordered += plans.iter().filter(|p| p.reordered).count();
        let (changed, delta_out) = match one_step(
            stage,
            stage_idx,
            step,
            work,
            cfg,
            gov,
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
/// Relation deltas are interned ids into the working instance's store: the
/// store is append-only, so ids minted in step `n` stay valid in step `n+1`.
#[derive(Debug, Default, Clone)]
struct Delta {
    rels: BTreeMap<iql_model::RelName, BTreeSet<ValueId>>,
    classes: BTreeMap<ClassName, BTreeSet<Oid>>,
}

/// Is a rule syntactically eligible for delta-driven evaluation? Its truth
/// at a valuation must depend only on relation/class facts (monotone) and
/// the binding itself: no dereferences (ν changes untracked), no relation/
/// class terms inside comparisons (their whole extent is state), no
/// enumeration fallbacks in its plan (the active domain grows), no choose,
/// no deletion.
fn rule_seminaive_eligible(rule: &Rule, plan: &RulePlan<'_>) -> bool {
    fn simple(t: &Term) -> bool {
        match t {
            Term::Var(_) | Term::Const(_) => true,
            Term::Rel(_) | Term::Class(_) | Term::Deref(_) => false,
            Term::Set(elems) => elems.iter().all(simple),
            Term::Tuple(fields) => fields.values().all(simple),
        }
    }
    if rule.head.is_deletion() || rule.has_choose() {
        return false;
    }
    // Head terms must be state-independent too: a head like `R1(z^)`
    // derives a *different* fact as ν(z) grows, so its valuations must be
    // re-fired every step (the constructive powerset depends on this).
    let head_ok = match &rule.head {
        Head::Rel(_, t) | Head::SetMember(_, t) | Head::Assign(_, t) => simple(t),
        Head::Class(_, _) => true,
        Head::DeleteRel(..) | Head::DeleteOid(..) | Head::DeleteSetMember(..) => false,
    };
    if !head_ok {
        return false;
    }
    let body_ok = rule.body.iter().all(|lit| match lit {
        Literal::Member { set, elem, .. } => {
            matches!(set, Term::Rel(_) | Term::Class(_) | Term::Var(_)) && simple(elem)
        }
        Literal::Eq { left, right, .. } => simple(left) && simple(right),
        Literal::Choose => false,
    });
    body_ok && plan.enum_fallbacks == 0
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

/// What a search task produces: *pending* derivations only — guard-filtered
/// valuations in canonical (plan/delta) order — plus local statistics and
/// the worker's overlay log. Binding ids below the log's base length are
/// store ids of the frozen pre-step instance; ids at or above it index into
/// the log and are remapped when the merge phase absorbs it. Nothing here
/// touches the instance; all mutation happens in the deterministic merge.
struct SearchOut {
    fires: Vec<IdBinding>,
    enum_fallbacks: usize,
    index_hits: usize,
    index_misses: usize,
    log: OverlayLog,
}

/// Per-task scan statistics, threaded through [`find_valuations_id`].
#[derive(Default)]
struct ScanCounters {
    /// Probes answered by a persistent secondary index.
    index_hits: usize,
    /// Probes answered by a scan-local index over the candidates.
    index_misses: usize,
}

/// Does the previous step's delta contain any fact a scan over `source`
/// could draw? An empty source makes the whole delta-restricted run empty.
fn delta_has_source(delta: &Delta, source: &PlanSource) -> bool {
    match source {
        PlanSource::Rel(r) => delta.rels.get(r).is_some_and(|s| !s.is_empty()),
        PlanSource::Class(p) => delta.classes.get(p).is_some_and(|s| !s.is_empty()),
    }
}

/// [`run_search_task`] behind a panic barrier: a panic anywhere in the
/// search (or injected via `cfg.test_panic_rule`) is contained here, on the
/// worker's own stack, and surfaced as [`IqlError::WorkerPanic`] carrying
/// the rule index — it never unwinds through the scoped pool, so sibling
/// tasks finish normally and their results survive.
fn run_search_task_caught(
    task: &SearchTask,
    stage: &Stage,
    plan: &RulePlan<'_>,
    work: &Instance,
    cfg: &EvalConfig,
    gov: &Governor,
    delta_in: Option<&Delta>,
) -> Result<SearchOut> {
    catch_unwind(AssertUnwindSafe(|| {
        if cfg.test_panic_rule == Some(task.ri) {
            panic!("injected panic for rule {} (test hook)", task.ri);
        }
        run_search_task(task, stage, plan, work, cfg, gov, delta_in)
    }))
    .unwrap_or(Err(IqlError::WorkerPanic { rule: task.ri }))
}

/// Runs one search task against the frozen pre-step instance. Values the
/// body conjures that the store has not seen (constants from the rule text,
/// freshly built tuples/sets) are interned into a worker-local [`Overlay`];
/// the base store is never touched, so tasks run in parallel borrow-free.
#[allow(clippy::too_many_arguments)]
fn run_search_task(
    task: &SearchTask,
    stage: &Stage,
    plan: &RulePlan<'_>,
    work: &Instance,
    cfg: &EvalConfig,
    gov: &Governor,
    delta_in: Option<&Delta>,
) -> Result<SearchOut> {
    let rule = &stage.rules[task.ri];
    let view = work.id_view();
    let mut ov = Overlay::new(work.store());
    let mut enum_fallbacks = 0usize;
    let mut counters = ScanCounters::default();
    let valuations: Vec<IdBinding> = if task.delta_driven {
        // One run per relation/class scan, with that scan restricted to the
        // previous step's delta (a valuation is new only if at least one of
        // its supporting facts is). Positions whose source has no delta
        // facts are skipped — their restricted run is empty by definition.
        let delta = delta_in.expect("delta-driven task requires a delta");
        let mut acc: BTreeSet<IdBinding> = BTreeSet::new();
        for i in 0..plan.nscans() {
            if !delta_has_source(delta, &plan.sources[i]) {
                continue;
            }
            let vals = find_valuations_id(
                rule,
                plan,
                work,
                &view,
                &mut ov,
                cfg,
                gov,
                Some((delta, i)),
                None,
                &mut counters,
            )?;
            enum_fallbacks += plan.enum_fallbacks;
            acc.extend(vals);
        }
        acc.into_iter().collect()
    } else {
        let vals = find_valuations_id(
            rule,
            plan,
            work,
            &view,
            &mut ov,
            cfg,
            gov,
            None,
            task.outer,
            &mut counters,
        )?;
        enum_fallbacks += plan.enum_fallbacks;
        vals
    };
    let mut fires = Vec::new();
    let mut pacer = Pacer::new(gov);
    for theta in valuations {
        if let Some(reason) = pacer.tick(gov) {
            return Err(reason.into());
        }
        let fire = if rule.head.is_deletion() {
            // Deletion rules fire when the fact to delete exists.
            deletion_applicable_id(rule, &theta, &view, &mut ov)
        } else {
            !head_satisfiable_id(rule, &theta, &view, &mut ov)
        };
        if fire {
            fires.push(theta);
        }
    }
    Ok(SearchOut {
        fires,
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

/// One application of the inflationary one-step operator `g1`.
#[allow(clippy::too_many_arguments)]
fn one_step(
    stage: &Stage,
    stage_idx: usize,
    step: usize,
    work: &mut Instance,
    cfg: &EvalConfig,
    gov: &Governor,
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
    // Deletions un-block guards (a deleted head fact lets an old valuation
    // fire again), so any deletion rule in the stage disables delta-driven
    // evaluation for the whole stage.
    let stage_deletes = stage.rules.iter().any(|r| r.head.is_deletion());
    let mut tasks: Vec<SearchTask> = Vec::new();
    for (ri, rule) in stage.rules.iter().enumerate() {
        let delta_driven = delta_in.is_some()
            && cfg.use_seminaive
            && !stage_deletes
            && rule_seminaive_eligible(rule, &plans[ri]);
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
        run_search_task_caught(t, stage, &plans[t.ri], frozen, cfg, gov, delta_in)
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
    let mut fires: Vec<(usize, IdBinding)> = Vec::new();
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
        let base_len = out.log.base_len();
        let remap = work.store_mut().absorb(&out.log);
        for theta in out.fires {
            let theta = theta
                .into_iter()
                .map(|(v, id)| {
                    let id = if id.raw() < base_len {
                        id
                    } else {
                        remap[(id.raw() - base_len) as usize]
                    };
                    (v, id)
                })
                .collect();
            fires.push((task.ri, theta));
        }
    }
    // Canonical merge order: where fire order is observable — oid invention
    // numbers fresh oids in fire order, and deletions apply in it — sort
    // fires by rule, then by the *tree order* of the binding values. The
    // key compares resolved value structure, not raw ids, so every ablation
    // arm (planner, index, threads) lands on the same canonical order even
    // though each discovers and interns valuations differently. Elsewhere
    // fire order is unobservable (facts and assignments merge as sets), so
    // the sort — and its cost — is skipped.
    let order_observable = stage
        .rules
        .iter()
        .any(|r| !r.invention_vars().is_empty() || r.head.is_deletion());
    if order_observable && fires.len() > 1 {
        let store = work.store();
        fires.sort_by(|(ra, ta), (rb, tb)| ra.cmp(rb).then_with(|| cmp_id_bindings(store, ta, tb)));
    }
    let search_nanos = search_started.elapsed().as_nanos() as u64;
    let nfires = fires.len();
    for (ri, _) in &fires {
        *report.rule_fires.entry((stage_idx, *ri)).or_default() += 1;
    }
    let apply_started = std::time::Instant::now();

    // Phase 2: valuation-map (invention / choose) and fact derivation.
    let mut changed = false;
    let mut delta_out = Delta::default();
    let mut assignments: BTreeMap<Oid, BTreeSet<ValueId>> = BTreeMap::new();
    let mut deletions: Vec<(usize, IdBinding)> = Vec::new();
    // Pre-step ν snapshot for condition (†): the non-set-valued oids whose
    // value is defined. ν is only ever defined on class members, so its
    // domain is read directly rather than walking every fact's oids.
    let predefined: BTreeSet<Oid> = work
        .value_id_map()
        .keys()
        .copied()
        .filter(|o| !work.is_set_valued(*o))
        .collect();
    // Choose candidates are computed against the frozen pre-step state, so
    // resolve every needed choice before any mutation happens.
    let mut choose_cache: BTreeMap<ClassName, Oid> = BTreeMap::new();
    for (ri, _) in &fires {
        let rule = &stage.rules[*ri];
        if rule.has_choose() && !rule.head.is_deletion() {
            for v in rule.invention_vars() {
                if let Some(TypeExpr::Class(p)) = rule.var_types.get(&v) {
                    choose_existing(work, *p, &mut choose_cache, cfg)?;
                }
            }
        }
    }

    for (ri, theta) in fires {
        let rule = &stage.rules[ri];
        if rule.head.is_deletion() {
            deletions.push((ri, theta));
            continue;
        }
        // Extend θ over the invention variables.
        let mut full = theta;
        for v in rule.invention_vars() {
            let class = match rule.var_types.get(&v) {
                Some(TypeExpr::Class(p)) => *p,
                _ => {
                    return Err(IqlError::Invalid(format!(
                        "invention variable {v} lost its class type"
                    )))
                }
            };
            let oid = if rule.has_choose() {
                choose_existing(work, class, &mut choose_cache, cfg)?
            } else {
                report.invented += 1;
                changed = true;
                let fresh = work.create_oid(class)?;
                delta_out.classes.entry(class).or_default().insert(fresh);
                fresh
            };
            let vid = work.store_mut().oid_id(oid);
            full.insert(v.clone(), vid);
        }
        // Derive the head fact. Head terms are evaluated over a split
        // borrow of the working instance — mutable store (the head may
        // build values the store has not seen) plus an id view of ρ/π/ν.
        match &rule.head {
            Head::Rel(r, t) => {
                let v = {
                    let (store, view) = work.store_and_view();
                    eval_term_id(t, &full, &view, store)
                }
                .ok_or_else(|| {
                    IqlError::Invalid(format!("head term {t} undefined at application"))
                })?;
                if work.insert_id(*r, v)? {
                    report.facts_added += 1;
                    changed = true;
                    delta_out.rels.entry(*r).or_default().insert(v);
                }
            }
            Head::Class(_, _) => {
                // Membership was established by invention (or was already
                // true for body-bound variables).
            }
            Head::SetMember(x, t) => {
                let oid = binding_oid_id(&full, x, work.store())?;
                let v = {
                    let (store, view) = work.store_and_view();
                    eval_term_id(t, &full, &view, store)
                }
                .ok_or_else(|| {
                    IqlError::Invalid(format!("head term {t} undefined at application"))
                })?;
                if work.add_set_member_id(oid, v)? {
                    report.facts_added += 1;
                    changed = true;
                }
            }
            Head::Assign(x, t) => {
                let oid = binding_oid_id(&full, x, work.store())?;
                let v = {
                    let (store, view) = work.store_and_view();
                    eval_term_id(t, &full, &view, store)
                }
                .ok_or_else(|| {
                    IqlError::Invalid(format!("head term {t} undefined at application"))
                })?;
                assignments.entry(oid).or_default().insert(v);
            }
            Head::DeleteRel(..) | Head::DeleteOid(..) | Head::DeleteSetMember(..) => {
                unreachable!("deletions routed above")
            }
        }
    }

    // Phase 3: weak assignments per condition (†).
    for (oid, values) in assignments {
        if predefined.contains(&oid) {
            continue; // value already determined — ignore new derivations
        }
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
    // same-step addition.
    for (ri, theta) in deletions {
        let deleted = match &stage.rules[ri].head {
            Head::DeleteRel(r, t) => match known_value(t, &theta, work) {
                Some(v) => work.remove_id(*r, v)?,
                None => false,
            },
            Head::DeleteOid(_, x) => {
                let oid = binding_oid_id(&theta, x, work.store())?;
                let live = work.class_of(oid).is_some();
                if live {
                    work.delete_oid(oid)?;
                }
                live
            }
            Head::DeleteSetMember(x, t) => {
                let oid = binding_oid_id(&theta, x, work.store())?;
                known_value(t, &theta, work).is_some_and(|v| work.remove_set_member_id(oid, v))
            }
            _ => unreachable!(),
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

/// Total order on two valuations of the same rule by variable name, then by
/// the tree order of the bound values ([`ValueReader::cmp_resolved`]) —
/// id-numbering-independent, hence canonical across evaluation strategies.
fn cmp_id_bindings(store: &ValueStore, a: &IdBinding, b: &IdBinding) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    let mut ib = b.iter();
    for (va, ia) in a {
        let Some((vb, id_b)) = ib.next() else {
            return Ordering::Greater;
        };
        let o = va.cmp(vb).then_with(|| store.cmp_resolved(*ia, *id_b));
        if o != Ordering::Equal {
            return o;
        }
    }
    if ib.next().is_some() {
        Ordering::Less
    } else {
        Ordering::Equal
    }
}

/// Evaluates a deletion head's term without growing the store. The term
/// is interned through an [`Overlay`]: an overlay-local id names a value
/// the store has never seen, which no fact can hold, so there is nothing
/// to delete and `None` is returned — as it is for an undefined term.
fn known_value(term: &Term, binding: &IdBinding, work: &Instance) -> Option<ValueId> {
    let mut probe = Overlay::new(work.store());
    let id = eval_term_id(term, binding, &work.id_view(), &mut probe)?;
    ((id.raw() as usize) < work.store().len()).then_some(id)
}

fn binding_oid_id<R: ValueReader + ?Sized>(
    binding: &IdBinding,
    v: &VarName,
    reader: &R,
) -> Result<Oid> {
    match binding.get(v).map(|&id| reader.as_oid(id)) {
        Some(Some(o)) => Ok(o),
        _ => {
            let found = binding.get(v).map(|&id| reader.resolve(id));
            Err(IqlError::Invalid(format!(
                "variable {v} should be bound to an oid, found {found:?}"
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
// sets, joins probe id-keyed hash indexes, and bindings map variables to
// Copy ids. Reads go through an IdView of the frozen
// instance; values the rule text conjures out of thin air are interned
// into the worker's Overlay (base-first lookup, so anything the base store
// already knows keeps its base id — which makes base-id membership probes
// sound even against overlay-produced ids).
//
// One matcher serves both searches of Section 3.2: the body search wants
// every valuation, the head guard only whether some extension exists. It
// binds variables in place on one binding, hands each extension to a
// continuation and unbinds before trying the next, so neither search
// clones a binding per extension and the guard stops at its first hit.
// ---------------------------------------------------------------------

/// Evaluates a term under a binding; `None` means the valuation is
/// undefined on the term (unbound variable, or dereference of an undefined
/// oid). Values the term builds are interned into `interner`.
fn eval_term_id<I: ValueInterner>(
    term: &Term,
    binding: &IdBinding,
    view: &IdView<'_>,
    interner: &mut I,
) -> Option<ValueId> {
    match term {
        Term::Var(v) => binding.get(v).copied(),
        Term::Const(c) => Some(interner.const_id(c.clone())),
        Term::Rel(r) => {
            let ids: Vec<ValueId> = view.relation_ids(*r).ok()?.iter().copied().collect();
            Some(interner.set_id(ids))
        }
        Term::Class(p) => {
            let oids: Vec<Oid> = view.class(*p).ok()?.iter().copied().collect();
            let ids: Vec<ValueId> = oids.into_iter().map(|o| interner.oid_id(o)).collect();
            Some(interner.set_id(ids))
        }
        Term::Deref(v) => {
            let o = interner.as_oid(*binding.get(v)?)?;
            view.value_id(o)
        }
        Term::Set(elems) => {
            let mut ids = Vec::with_capacity(elems.len());
            for e in elems {
                ids.push(eval_term_id(e, binding, view, interner)?);
            }
            Some(interner.set_id(ids))
        }
        Term::Tuple(fields) => {
            let mut entries = Vec::with_capacity(fields.len());
            for (a, t) in fields {
                entries.push((*a, eval_term_id(t, binding, view, interner)?));
            }
            Some(interner.tuple_id(entries))
        }
    }
}

/// The continuation a match hands each extension to, with the extended
/// binding, the trail and the interner; `Break` stops the enumeration.
type Cont<'k, I, B> = dyn FnMut(&mut IdBinding, &mut Vec<VarName>, &mut I) -> ControlFlow<B> + 'k;

/// Matches `pattern` against the value behind `value`, calling `k` once per
/// extension of `binding` that makes them equal. Most patterns are
/// deterministic (zero or one extension); set-literal patterns may match
/// in several ways (`{x, y} = {1, 2}` binds both assignments), and each is
/// a distinct valuation per the paper's semantics.
///
/// Variables are bound in place and pushed on `trail`. On return `binding`
/// and `trail` are as they were on entry, whether `k` let the enumeration
/// finish or stopped it with `Break` (which is returned).
///
/// Newly bound variables are checked against their declared type: a
/// valuation must satisfy `θx ∈ ⟦t⟧π` (Section 3.2). This is what makes
/// union-coercion equalities (`w = v` with `w` typed at one branch of
/// `v`'s union type) act as runtime branch filters — exactly how the
/// paper's Example 3.4.3 discriminates union values — and what restricts
/// the head guard's extensions to *existing* objects of an invention
/// variable's class.
#[allow(clippy::too_many_arguments)]
fn match_term<I: ValueInterner, B>(
    pattern: &Term,
    value: ValueId,
    binding: &mut IdBinding,
    trail: &mut Vec<VarName>,
    types: &BTreeMap<VarName, TypeExpr>,
    view: &IdView<'_>,
    interner: &mut I,
    k: &mut Cont<'_, I, B>,
) -> ControlFlow<B> {
    let matched = match pattern {
        Term::Var(v) => match binding.get(v) {
            Some(&bound) => bound == value,
            None => {
                if types
                    .get(v)
                    .is_some_and(|ty| !ty.member_id(value, interner, view))
                {
                    return ControlFlow::Continue(()); // ill-typed binding is not a valuation
                }
                binding.insert(v.clone(), value);
                trail.push(v.clone());
                let flow = k(binding, trail, interner);
                trail.pop();
                binding.remove(v);
                return flow;
            }
        },
        Term::Const(c) => matches!(interner.node(value), Node::Const(c2) if c == c2),
        Term::Rel(_) | Term::Class(_) | Term::Deref(_) => {
            eval_term_id(pattern, binding, view, interner) == Some(value)
        }
        Term::Tuple(fields) => {
            let Node::Tuple(entries) = interner.node(value) else {
                return ControlFlow::Continue(());
            };
            if fields.len() != entries.len()
                || !fields.keys().copied().eq(entries.iter().map(|(a, _)| *a))
            {
                return ControlFlow::Continue(());
            }
            // Both sides are attribute-sorted, so position i of the node
            // is the value of the i-th pattern field.
            let entries = Arc::clone(entries);
            return match_fields(
                fields.values(),
                &entries,
                binding,
                trail,
                types,
                view,
                interner,
                k,
            );
        }
        Term::Set(pats) => {
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
            // assignment binds the same variables, so an extension is its
            // new bindings in variable order: collect them, sort, dedup,
            // and continue from each distinct one, keeping valuations
            // set-like.
            let mark = trail.len();
            let mut exts: Vec<Vec<(VarName, ValueId)>> = Vec::new();
            let mut used = vec![false; vals.len()];
            let _ = match_bijections(
                pats,
                &vals,
                &mut used,
                binding,
                trail,
                types,
                view,
                interner,
                &mut |b: &mut IdBinding, t: &mut Vec<VarName>, _: &mut I| {
                    let mut ext: Vec<(VarName, ValueId)> =
                        t[mark..].iter().map(|v| (v.clone(), b[v])).collect();
                    ext.sort();
                    exts.push(ext);
                    ControlFlow::<()>::Continue(())
                },
            );
            exts.sort();
            exts.dedup();
            for ext in exts {
                for (v, id) in &ext {
                    binding.insert(v.clone(), *id);
                    trail.push(v.clone());
                }
                let flow = k(binding, trail, interner);
                for (v, _) in &ext {
                    trail.pop();
                    binding.remove(v);
                }
                flow?;
            }
            return ControlFlow::Continue(());
        }
    };
    if matched {
        k(binding, trail, interner)
    } else {
        ControlFlow::Continue(())
    }
}

/// Matches tuple field patterns in order against the aligned field values,
/// then calls `k`.
#[allow(clippy::too_many_arguments)]
fn match_fields<I: ValueInterner, B>(
    mut pats: btree_map::Values<'_, AttrName, Term>,
    vals: &[(AttrName, ValueId)],
    binding: &mut IdBinding,
    trail: &mut Vec<VarName>,
    types: &BTreeMap<VarName, TypeExpr>,
    view: &IdView<'_>,
    interner: &mut I,
    k: &mut Cont<'_, I, B>,
) -> ControlFlow<B> {
    let (Some(p), Some(&(_, v))) = (pats.next(), vals.first()) else {
        return k(binding, trail, interner);
    };
    let next = &mut |b: &mut IdBinding, t: &mut Vec<VarName>, i: &mut I| {
        match_fields(pats.clone(), &vals[1..], b, t, types, view, i, k)
    };
    match_term(p, v, binding, trail, types, view, interner, next)
}

/// Matches each of `pats` onto a distinct unused element of `vals`, calling
/// `k` once per complete assignment.
#[allow(clippy::too_many_arguments)]
fn match_bijections<I: ValueInterner, B>(
    pats: &[Term],
    vals: &[ValueId],
    used: &mut [bool],
    binding: &mut IdBinding,
    trail: &mut Vec<VarName>,
    types: &BTreeMap<VarName, TypeExpr>,
    view: &IdView<'_>,
    interner: &mut I,
    k: &mut Cont<'_, I, B>,
) -> ControlFlow<B> {
    let Some((p, rest)) = pats.split_first() else {
        return k(binding, trail, interner);
    };
    for (i, &v) in vals.iter().enumerate() {
        if used[i] {
            continue;
        }
        used[i] = true;
        let next = &mut |b: &mut IdBinding, t: &mut Vec<VarName>, i: &mut I| {
            match_bijections(rest, vals, used, b, t, types, view, i, k)
        };
        let flow = match_term(p, v, binding, trail, types, view, interner, next);
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
    let plan = build_plan(rule)?;
    let mut out = format!("plan for: {rule}\n");
    render_ops(&plan, &mut out);
    Ok(out)
}

/// Renders the plan the evaluator would execute for `rule` against the
/// current statistics of `work`: cost-based order and static probe choices
/// applied, probe indexes ensured — exactly what the planner's `plan_rule`
/// hands the executor. Backs the CLI's `run --explain`.
pub fn explain_rule_planned(rule: &Rule, work: &mut Instance, cfg: &EvalConfig) -> Result<String> {
    let plan = plan_rule(rule, work, cfg)?;
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
                probe: Some((attr, key)),
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
            } => {
                let _ = writeln!(out, "  {i}: scan {src}, match {pat}");
            }
            Op::BindEq { src, pat } => {
                let _ = writeln!(out, "  {i}: eval {src}, match {pat}");
            }
            Op::Enumerate { item: (var, ty) } => {
                let _ = writeln!(
                    out,
                    "  {i}: enumerate {var} over active-domain {ty}  [expensive]"
                );
            }
            Op::Filter { guard } => {
                let _ = writeln!(out, "  {i}: filter {guard}");
            }
            Op::NegGuard { guard } => {
                let _ = writeln!(out, "  {i}: filter {guard}");
            }
        }
    }
}

/// Computes all valuations `θ` of the body variables with `I ⊨ θ body`,
/// executing a pre-built [`RulePlan`] depth-first over one binding: each
/// op extends the binding in place and recurses into the next, and the
/// binding is cloned into the result after the last op. Valuations come out
/// in breadth-first order all the same — each op's extensions of a binding
/// in order, concatenated over the bindings in order.
///
/// When `delta` is `Some((d, i))`, the `i`-th relation/class scan of the
/// plan draws from the delta instead of the full extent — the
/// differentiated join of semi-naive evaluation. When `outer` is
/// `Some((skip, take))`, the *first* plan op (a relation/class scan — the
/// caller checks eligibility via [`outer_scan_len`]) iterates only that
/// slice of its extent, in extent order — how one large rule is partitioned
/// across parallel workers without perturbing valuation order.
///
/// A relation scan with a statically chosen probe looks each binding's key
/// up in one [`AttrIndex`]: the instance's *persistent* index for a
/// full-extent scan (counted as `index_hits`), or one built over the
/// materialized candidates for a delta or sliced scan, or when the
/// persistent index is missing (`index_misses`). A scan without a probe
/// matches every candidate. Such binding-independent [`OpState`] is built
/// when the first binding reaches its op, so an op that no binding reaches
/// reads nothing and raises no error.
#[allow(clippy::too_many_arguments)]
fn find_valuations_id(
    rule: &Rule,
    plan: &RulePlan<'_>,
    inst: &Instance,
    view: &IdView<'_>,
    ov: &mut Overlay<'_>,
    cfg: &EvalConfig,
    gov: &Governor,
    delta: Option<(&Delta, usize)>,
    outer: Option<(usize, usize)>,
    counters: &mut ScanCounters,
) -> Result<Vec<IdBinding>> {
    let search = Search {
        rule,
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
        out: Vec::new(),
    };
    match search.descend(0, &mut IdBinding::new(), &mut Vec::new(), ov, &mut walk) {
        ControlFlow::Continue(()) => Ok(walk.out),
        ControlFlow::Break(e) => Err(e),
    }
}

/// One valuation search: the read-only inputs of [`find_valuations_id`]
/// and the state of each op.
struct Search<'s, 'p, 'v> {
    rule: &'s Rule,
    ops: &'s [Op<'p>],
    inst: &'s Instance,
    view: IdView<'v>,
    cfg: &'s EvalConfig,
    gov: &'s Governor,
    delta: Option<(&'s Delta, usize)>,
    outer: Option<(usize, usize)>,
    state: Vec<OnceCell<OpState<'v>>>,
}

/// What an op reads that does not depend on the binding.
enum OpState<'v> {
    /// A relation scan with a probe: the index its keys are looked up in.
    Probe(Cow<'v, AttrIndex>),
    /// A relation scan without a probe, or an enumeration: the candidate
    /// values, in order.
    Values(Vec<ValueId>),
    /// A class scan: the candidate oids, in extent order.
    Oids(Vec<Oid>),
    /// Nothing beyond the binding.
    Stateless,
}

/// What a search writes as it walks.
struct Walk<'c> {
    pacer: Pacer,
    counters: &'c mut ScanCounters,
    out: Vec<IdBinding>,
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

/// The candidates a scan iterates, in extent order: `source` (`None` is
/// empty), cut to the `(skip, take)` slice of a parallel worker.
fn scan_candidates<T: Copy>(source: Option<&BTreeSet<T>>, slice: Option<(usize, usize)>) -> Vec<T> {
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
    /// Extends `binding` through ops `i..`, pushing a clone of every
    /// complete valuation to `walk.out`.
    fn descend(
        &self,
        i: usize,
        binding: &mut IdBinding,
        trail: &mut Vec<VarName>,
        ov: &mut Overlay<'_>,
        walk: &mut Walk<'_>,
    ) -> ControlFlow<IqlError> {
        let Some(op) = self.ops.get(i) else {
            walk.out.push(binding.clone());
            return ControlFlow::Continue(());
        };
        // Cooperative poll for deadline/cancellation, strided so the
        // ungoverned hot path pays one predictable branch per tick. Ticks
        // sit on the loops that can run away: per binding at every op, and
        // per candidate in `each` (a divergent program spends whole steps
        // inside a single binding's scan).
        walk.tick(self.gov)?;
        let state = match self.state(i, ov) {
            Ok(state) => state,
            Err(e) => return ControlFlow::Break(e),
        };
        let view = &self.view;
        match (op, state) {
            (
                Op::Scan {
                    pat,
                    probe: Some((_, key)),
                    ..
                },
                OpState::Probe(index),
            ) => {
                if let Cow::Borrowed(_) = index {
                    walk.counters.index_hits += 1;
                } else {
                    walk.counters.index_misses += 1;
                }
                // The probe term is fully bound under every binding
                // (planner invariant); if it is undefined, no fact can
                // match. Postings are id-ordered, matching candidate
                // order, so probing never changes valuation order.
                let Some(key) = eval_term_id(key, binding, view, ov) else {
                    return ControlFlow::Continue(());
                };
                for &fid in index.get(key) {
                    self.each(i, pat, fid, binding, trail, ov, walk)?;
                }
            }
            (Op::Scan { pat, .. }, OpState::Values(facts)) => {
                for &fid in facts {
                    self.each(i, pat, fid, binding, trail, ov, walk)?;
                }
            }
            (Op::Scan { pat, .. }, OpState::Oids(oids)) => {
                for &o in oids {
                    let vid = ov.oid_id(o);
                    self.each(i, pat, vid, binding, trail, ov, walk)?;
                }
            }
            (Op::Scan { src, pat, .. }, _) => {
                // Undefined or non-set ⇒ unsatisfied (typing!).
                let Some(sid) = eval_term_id(src, binding, view, ov) else {
                    return ControlFlow::Continue(());
                };
                let Node::Set(elems) = ov.node(sid) else {
                    return ControlFlow::Continue(());
                };
                for &vid in Arc::clone(elems).iter() {
                    self.each(i, pat, vid, binding, trail, ov, walk)?;
                }
            }
            (Op::BindEq { src, pat }, _) => {
                if let Some(val) = eval_term_id(src, binding, view, ov) {
                    self.each(i, pat, val, binding, trail, ov, walk)?;
                }
            }
            (Op::Enumerate { item: (var, _) }, OpState::Values(ids)) => match binding.get(var) {
                Some(&bound) => {
                    if ids.contains(&bound) {
                        self.descend(i + 1, binding, trail, ov, walk)?;
                    }
                }
                None => {
                    for &id in ids {
                        binding.insert(var.clone(), id);
                        let flow = self.descend(i + 1, binding, trail, ov, walk);
                        binding.remove(var);
                        flow?;
                    }
                }
            },
            (Op::Enumerate { .. }, _) => unreachable!("an enumeration prepares its values"),
            // Positive guards and negation guards execute identically here
            // (`literal_satisfied_id` honours the literal's own polarity);
            // the IR keeps them distinct because negation placement is the
            // semantically delicate part of planning.
            (Op::Filter { guard } | Op::NegGuard { guard }, _) => {
                if literal_satisfied_id(guard, binding, view, ov) {
                    self.descend(i + 1, binding, trail, ov, walk)?;
                }
            }
        }
        ControlFlow::Continue(())
    }

    /// Matches `pat` against one candidate `value` of op `i` and continues
    /// with the next op, after a pacer tick.
    #[allow(clippy::too_many_arguments)]
    fn each(
        &self,
        i: usize,
        pat: &Term,
        value: ValueId,
        binding: &mut IdBinding,
        trail: &mut Vec<VarName>,
        ov: &mut Overlay<'_>,
        walk: &mut Walk<'_>,
    ) -> ControlFlow<IqlError> {
        walk.tick(self.gov)?;
        let next = &mut |b: &mut IdBinding, t: &mut Vec<VarName>, ov: &mut Overlay<'_>| {
            self.descend(i + 1, b, t, ov, walk)
        };
        let (types, view) = (&self.rule.var_types, &self.view);
        match_term(pat, value, binding, trail, types, view, ov, next)
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
                let extent = self.view.relation_ids(*r)?;
                let source = match restrict {
                    Some((d, _)) => d.rels.get(r),
                    None => Some(extent),
                };
                match probe {
                    // A full-extent scan probes the frozen instance's
                    // persistent index for the planner-chosen attribute. A
                    // probe key the base store has never seen gets an
                    // overlay-local id, which correctly misses every
                    // (base-id) index entry. Otherwise the index is built
                    // over the candidates.
                    Some((attr, _)) => OpState::Probe(match self.view.rel_index(*r, *attr) {
                        Some(index) if slice.is_none() && restrict.is_none() => {
                            Cow::Borrowed(index)
                        }
                        _ => Cow::Owned(AttrIndex::build(
                            *attr,
                            scan_candidates(source, slice).into_iter(),
                            &*ov,
                        )),
                    }),
                    None => OpState::Values(scan_candidates(source, slice)),
                }
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
                OpState::Oids(scan_candidates(source, slice))
            }
            Op::Enumerate { item: (var, ty) } => {
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
    lit: &Literal,
    binding: &IdBinding,
    view: &IdView<'_>,
    interner: &mut I,
) -> bool {
    match lit {
        Literal::Member {
            set,
            elem,
            positive,
        } => {
            let Some(ev) = eval_term_id(elem, binding, view, interner) else {
                return false; // valuation must be defined on both terms
            };
            match set {
                Term::Rel(r) => view
                    .relation_ids(*r)
                    .map(|s| s.contains(&ev) == *positive)
                    .unwrap_or(false),
                Term::Class(p) => {
                    let Ok(s) = view.class(*p) else { return false };
                    let member = interner.as_oid(ev).map(|o| s.contains(&o)).unwrap_or(false);
                    member == *positive
                }
                _ => {
                    let Some(sv) = eval_term_id(set, binding, view, interner) else {
                        return false;
                    };
                    match interner.set_contains(sv, ev) {
                        Some(m) => m == *positive,
                        None => false, // non-set ⇒ unsatisfied
                    }
                }
            }
        }
        Literal::Eq {
            left,
            right,
            positive,
        } => {
            let (Some(lv), Some(rv)) = (
                eval_term_id(left, binding, view, interner),
                eval_term_id(right, binding, view, interner),
            ) else {
                return false;
            };
            (lv == rv) == *positive
        }
        Literal::Choose => true,
    }
}

// ---------------------------------------------------------------------
// Head-satisfaction guard (the val-dom "no extension" condition)
// ---------------------------------------------------------------------

/// Is there an extension `θ̄` of `θ` over the invention variables such that
/// `I ⊨ θ̄ head`? (If so, the pair is *not* in the valuation-domain.)
///
/// Fully-bound heads reduce to a single id-set membership probe. With
/// invention variables, candidate facts go through [`match_term`] with a
/// continuation that stops at the first extension; an overlay-local id on
/// either side proves the value is absent from the frozen base store, so
/// base-id comparisons stay sound throughout.
fn head_satisfiable_id<I: ValueInterner>(
    rule: &Rule,
    theta: &IdBinding,
    view: &IdView<'_>,
    interner: &mut I,
) -> bool {
    let no_invention = rule.invention_vars().is_empty();
    // The matcher restores the binding it extends, so one copy of θ serves
    // every candidate.
    let mut scratch: Option<IdBinding> = None;
    let mut extends = |t: &Term, value: ValueId, interner: &mut I| {
        let b = scratch.get_or_insert_with(|| theta.clone());
        let stop = &mut |_: &mut IdBinding, _: &mut Vec<VarName>, _: &mut I| ControlFlow::Break(());
        let types = &rule.var_types;
        match_term(t, value, b, &mut Vec::new(), types, view, interner, stop).is_break()
    };
    match &rule.head {
        Head::Rel(r, t) => {
            let Ok(facts) = view.relation_ids(*r) else {
                return false;
            };
            if no_invention {
                // Fully bound head: a set-membership probe suffices.
                return eval_term_id(t, theta, view, interner).is_some_and(|v| facts.contains(&v));
            }
            facts.iter().any(|&fid| extends(t, fid, interner))
        }
        Head::Class(p, v) => match theta.get(v) {
            Some(&id) => match interner.as_oid(id) {
                Some(o) => view.class(*p).map(|s| s.contains(&o)).unwrap_or(false),
                None => false,
            },
            // Invention variable: satisfied iff some existing oid inhabits P.
            None => view.class(*p).map(|s| !s.is_empty()).unwrap_or(false),
        },
        Head::SetMember(x, t) => head_oids(rule, theta, x, view, interner)
            .into_iter()
            .any(|o| {
                let Some(Node::Set(elems)) = view.value_id(o).map(|sid| interner.node(sid)) else {
                    return false;
                };
                let elems = Arc::clone(elems);
                if no_invention {
                    return eval_term_id(t, theta, view, interner)
                        .is_some_and(|v| elems.binary_search(&v).is_ok());
                }
                elems.iter().any(|&member| extends(t, member, interner))
            }),
        Head::Assign(x, t) => head_oids(rule, theta, x, view, interner)
            .into_iter()
            .any(|o| match view.value_id(o) {
                Some(vid) if no_invention => eval_term_id(t, theta, view, interner) == Some(vid),
                Some(vid) => extends(t, vid, interner),
                None => false,
            }),
        Head::DeleteRel(..) | Head::DeleteOid(..) | Head::DeleteSetMember(..) => false,
    }
}

/// The objects an `x^` head can write: `θx`, or every existing member of
/// the class of an invention variable `x`.
fn head_oids<I: ValueInterner>(
    rule: &Rule,
    theta: &IdBinding,
    x: &VarName,
    view: &IdView<'_>,
    interner: &I,
) -> Vec<Oid> {
    match theta.get(x) {
        Some(&id) => interner.as_oid(id).into_iter().collect(),
        None => match rule.var_types.get(x) {
            Some(TypeExpr::Class(p)) => view
                .class(*p)
                .map(|s| s.iter().copied().collect())
                .unwrap_or_default(),
            _ => Vec::new(),
        },
    }
}

/// Does the deletion head's target fact exist under `θ`?
fn deletion_applicable_id<I: ValueInterner>(
    rule: &Rule,
    theta: &IdBinding,
    view: &IdView<'_>,
    interner: &mut I,
) -> bool {
    match &rule.head {
        Head::DeleteRel(r, t) => match eval_term_id(t, theta, view, interner) {
            Some(v) => view
                .relation_ids(*r)
                .map(|s| s.contains(&v))
                .unwrap_or(false),
            None => false,
        },
        Head::DeleteOid(p, x) => match theta.get(x).and_then(|&id| interner.as_oid(id)) {
            Some(o) => view.class(*p).map(|s| s.contains(&o)).unwrap_or(false),
            None => false,
        },
        Head::DeleteSetMember(x, t) => {
            let Some(o) = theta.get(x).and_then(|&id| interner.as_oid(id)) else {
                return false;
            };
            let Some(v) = eval_term_id(t, theta, view, interner) else {
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
        let binding = IdBinding::new();
        let (store, view) = input.store_and_view();
        // Unbound variable → undefined.
        assert_eq!(
            eval_term_id(&Term::var("nope"), &binding, &view, store),
            None
        );
        // Relation term evaluates to its current contents as a set.
        let v = eval_term_id(&Term::Rel(RelName::new("Edge")), &binding, &view, store).unwrap();
        assert_eq!(store.as_set(v).map(<[ValueId]>::len), Some(2));
    }

    #[test]
    fn match_all_enumerates_set_assignments() {
        let unit = tc_unit();
        let mut input = unit.instance.unwrap();
        let pattern = Term::set([Term::var("x"), Term::var("y")]);
        let (store, view) = input.store_and_view();
        let value = store.intern(&OValue::set([OValue::int(1), OValue::int(2)]));
        let types = BTreeMap::new();
        let matches = |value, store: &mut ValueStore, stop: bool| {
            let (mut binding, mut trail, mut seen) = (IdBinding::new(), Vec::new(), Vec::new());
            let flow = match_term(
                &pattern,
                value,
                &mut binding,
                &mut trail,
                &types,
                &view,
                store,
                &mut |b: &mut IdBinding, _: &mut Vec<VarName>, _: &mut ValueStore| {
                    seen.push(b.clone());
                    if stop {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                },
            );
            assert!(binding.is_empty() && trail.is_empty(), "binding restored");
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
