//! Bottom-up evaluation: naive, semi-naive, inflationary ¬, stratified ¬.
//!
//! A rule's join is a left-to-right nested loop over its positive atoms
//! with hash-index probes: for each atom, the shared probe policy
//! ([`iql_exec::choose_probe`]) picks among its bound columns the one whose
//! incremental index has the most distinct values (the narrowest expected
//! postings) — the standard workhorse plan for bottom-up Datalog, with a
//! cost-based probe choice on top. Once every positive atom has matched,
//! the negative atoms are checked in order and the head is emitted.
//!
//! All four strategies run one fixpoint loop. Naive and inflationary
//! evaluation run full rounds: every rule against the whole database.
//! Semi-naive evaluation, alone or per stratum, differentiates rules: after
//! the first round, each round evaluates, for every occurrence of a
//! derived atom, the body with that occurrence restricted to the previous
//! round's delta (Balbin–Ramamohanarao style), which is where the
//! asymptotic win over naive evaluation — and over IQL's naive inflationary
//! evaluator — comes from (experiment E11).
//!
//! A round copies no tuple. Relations are the model's [`IdRelation`] —
//! the store IQL's evaluator reads too — append-only and
//! insertion-ordered, so a delta is a position range of the database's own
//! relation: the positions a relation gained in the previous round's merge
//! (a delta atom with a bound column probes a one-off index over just that
//! range, [`IdRelation::index_over`]). Each join task's head tuples merge
//! as one batch (`IdDatabase::insert_all`), which unshares a relation only
//! for a tuple that is new.
//!
//! A [`Database`] stores only interned data (the private `interned`
//! module), so an `eval` call converts nothing: it starts from an
//! O(#relations) copy-on-write fork of its input, interns the program's
//! constants into the fork's value store and compiles every rule once —
//! variables to dense substitution slots, constants to `ValueId`s — so the
//! join matches, probes, and hashes `u32` ids instead of constants, and
//! probes hit the relations' incremental per-column indexes (ensured ahead
//! of each round, maintained by every insert) with no per-round rebuild.
//! The fork is returned as the output: relations the run never writes stay
//! shared with the input, and a caller reads a relation through a view that
//! borrows it and resolves constants as it goes.

use crate::ast::{Atom, Database, DlTerm, Program, Rule};
use crate::interned::IdDatabase;
use crate::stratify::stratify;
use crate::{DlError, Result};
use iql_core::govern::{AbortReason, Governor, Pacer};
use iql_exec::{choose_probe, effective_threads, run_tasks, TEST_PANIC_RULE};
use iql_model::relation::with_id_tuple;
use iql_model::{ColIndex, IdRelation, ValueId, ValueInterner, ValueStore};
use std::collections::{BTreeSet, HashMap};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Default cap on fixpoint rounds for the ungoverned [`eval`]/[`eval_with`]
/// entry points. Datalog's Herbrand base is finite, so every program
/// terminates *in principle* — but a large EDB can make "in principle" take
/// hours, and a cap this generous is only ever hit by such runaways. The
/// tripped run returns the partial database with
/// [`EvalStats::trip`]` = Some(StepLimit)`.
pub const DEFAULT_MAX_ROUNDS: usize = 1_000_000;

/// Statistics from one evaluation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Fixpoint rounds.
    pub rounds: usize,
    /// Facts derived (including duplicates rejected by set semantics).
    pub derivations: usize,
    /// Worker-pool size the evaluation ran with (1 = sequential).
    pub threads: usize,
    /// `Some(reason)` when a resource limit stopped the fixpoint early; the
    /// returned database is then the last consistent snapshot (completed
    /// rounds only — a tripped round's tuples are discarded wholesale).
    pub trip: Option<AbortReason>,
}

/// Which engine evaluates the program — the single knob of the unified
/// [`eval`] entry point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Re-derive everything from the full database every round. Positive
    /// programs only; the quadratic-overhead baseline ablation.
    Naive,
    /// Differentiate rules against the previous round's delta
    /// (Balbin–Ramamohanarao). Positive programs only.
    SemiNaive,
    /// Inflationary Datalog¬ (Kolaitis–Papadimitriou): negation reads the
    /// current database, frozen per round; facts are never retracted.
    Inflationary,
    /// Stratified Datalog¬: SCC stratification, then semi-naive per
    /// stratum with negation reading completed lower strata.
    Stratified,
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Strategy::Naive => write!(f, "naive"),
            Strategy::SemiNaive => write!(f, "semi-naive"),
            Strategy::Inflationary => write!(f, "inflationary"),
            Strategy::Stratified => write!(f, "stratified"),
        }
    }
}

// ---------------------------------------------------------------------
// Rule compilation
// ---------------------------------------------------------------------

/// A compiled atom argument: an interned constant or a substitution slot.
#[derive(Debug, Clone, Copy)]
enum ArgSpec {
    Const(ValueId),
    Var(u32),
}

/// A compiled atom: relation name plus argument specs.
struct CAtom<'r> {
    rel: &'r str,
    args: Vec<ArgSpec>,
}

/// A rule compiled against a [`ValueStore`]: variables renamed to dense
/// slots (the substitution is a flat `Vec<Option<ValueId>>`, not a
/// string-keyed map), constants interned, and positives/negatives
/// pre-split. The executor walks the positive atoms in body order, then
/// checks the negative atoms in body order (safety bounds their variables
/// only once every positive has matched).
struct CompiledRule<'r> {
    head_rel: &'r str,
    head: Vec<ArgSpec>,
    /// The positive literals' atoms, in body order; a semi-naive task's
    /// delta atom is an index into them.
    positives: Vec<CAtom<'r>>,
    negatives: Vec<CAtom<'r>>,
    nslots: usize,
    /// Probe-candidate columns of each positive atom: the argument
    /// positions holding a constant or a variable bound by an earlier
    /// atom, in ascending column order. A static property of the atom
    /// order, computed once here; the executor ranks them against live
    /// statistics per round.
    probe_cands: Vec<Vec<usize>>,
}

fn compile_atom<'r>(
    atom: &'r Atom,
    store: &mut ValueStore,
    slots: &mut HashMap<&'r str, u32>,
) -> CAtom<'r> {
    let args = atom
        .args
        .iter()
        .map(|t| match t {
            DlTerm::Const(c) => ArgSpec::Const(store.const_id(c.clone())),
            DlTerm::Var(v) => {
                let next = u32::try_from(slots.len()).expect("slot overflow");
                ArgSpec::Var(*slots.entry(v.as_str()).or_insert(next))
            }
        })
        .collect();
    CAtom {
        rel: &atom.rel,
        args,
    }
}

fn compile_rule<'r>(rule: &'r Rule, store: &mut ValueStore) -> CompiledRule<'r> {
    let mut slots: HashMap<&str, u32> = HashMap::new();
    let positives: Vec<CAtom<'r>> = rule
        .body
        .iter()
        .filter(|l| l.positive)
        .map(|l| compile_atom(&l.atom, store, &mut slots))
        .collect();
    let negatives: Vec<CAtom<'r>> = rule
        .body
        .iter()
        .filter(|l| !l.positive)
        .map(|l| compile_atom(&l.atom, store, &mut slots))
        .collect();
    let head = compile_atom(&rule.head, store, &mut slots);
    let nslots = slots.len();
    let probe_cands = probe_candidates(&positives, nslots);
    CompiledRule {
        head_rel: head.rel,
        head: head.args,
        positives,
        negatives,
        nslots,
        probe_cands,
    }
}

fn compile_rules<'r>(rules: &'r [Rule], store: &mut ValueStore) -> Vec<CompiledRule<'r>> {
    rules.iter().map(|r| compile_rule(r, store)).collect()
}

/// Each positive atom's probe candidates: the columns whose argument is a
/// constant or a variable bound by an earlier atom — exactly what
/// [`ensure_probe_indexes`] builds indexes for and [`iql_exec::choose_probe`]
/// ranks at execution time.
fn probe_candidates(positives: &[CAtom<'_>], nslots: usize) -> Vec<Vec<usize>> {
    let mut bound = vec![false; nslots];
    let mut probe_cands = Vec::with_capacity(positives.len());
    for atom in positives {
        let cands: Vec<usize> = atom
            .args
            .iter()
            .enumerate()
            .filter(|(_, a)| match a {
                ArgSpec::Const(_) => true,
                ArgSpec::Var(s) => bound[*s as usize],
            })
            .map(|(col, _)| col)
            .collect();
        for a in &atom.args {
            if let ArgSpec::Var(s) = a {
                bound[*s as usize] = true;
            }
        }
        probe_cands.push(cands);
    }
    probe_cands
}

fn arg_value(a: &ArgSpec, subst: &[Option<ValueId>]) -> Option<ValueId> {
    match a {
        ArgSpec::Const(k) => Some(*k),
        ArgSpec::Var(s) => subst[*s as usize],
    }
}

/// Extends `subst` in place by matching `atom`'s args against `tuple`,
/// recording newly bound slots on `touched`. On mismatch the caller
/// unwinds to its trail mark — no substitution maps are cloned anywhere
/// in the join.
fn match_tuple(
    atom: &CAtom<'_>,
    tuple: &[ValueId],
    subst: &mut [Option<ValueId>],
    touched: &mut Vec<u32>,
) -> bool {
    for (a, &c) in atom.args.iter().zip(tuple.iter()) {
        match a {
            ArgSpec::Const(k) => {
                if *k != c {
                    return false;
                }
            }
            ArgSpec::Var(s) => match subst[*s as usize] {
                Some(bound) => {
                    if bound != c {
                        return false;
                    }
                }
                None => {
                    subst[*s as usize] = Some(c);
                    touched.push(*s);
                }
            },
        }
    }
    true
}

fn unwind(subst: &mut [Option<ValueId>], touched: &mut Vec<u32>, mark: usize) {
    while touched.len() > mark {
        let s = touched.pop().expect("trail non-empty");
        subst[s as usize] = None;
    }
}

/// The head tuples one join task derived, flat, in derivation order: `count`
/// tuples of the head's arity back to back in `ids` — merged as one batch
/// by [`IdDatabase::insert_all`].
#[derive(Default)]
struct Derived {
    ids: Vec<ValueId>,
    count: usize,
}

/// The previous round's new tuples, for delta-driven rounds: the positions
/// `lo..hi` of each head relation that gained tuples, where `lo` is its
/// length before the round's merge and `hi` after it — exactly the tuples
/// the merge appended, in the order it appended them. Nothing is copied.
struct Delta<'r> {
    /// `(relation, range)`, non-empty ranges only.
    ranges: Vec<(&'r str, Range<u32>)>,
    /// A one-off index over its relation's range for each probe candidate
    /// of an atom that reads a range, keyed by `(relation, column)`. Built
    /// before the round; the round's tasks only read them.
    indexes: Vec<((&'r str, usize), ColIndex)>,
}

impl<'r> Delta<'r> {
    /// The delta of the head relations of `db` that grew past their
    /// lengths in `before`, with the one-off indexes `rules` may probe it
    /// through.
    fn new(
        rules: &[CompiledRule<'r>],
        db: &IdDatabase,
        before: impl IntoIterator<Item = (&'r str, u32)>,
    ) -> Delta<'r> {
        let ranges: Vec<(&str, Range<u32>)> = before
            .into_iter()
            .filter_map(|(rel, lo)| {
                let hi = db.relation(rel)?.all().end;
                (lo < hi).then_some((rel, lo..hi))
            })
            .collect();
        let mut delta = Delta {
            ranges,
            indexes: Vec::new(),
        };
        for rule in rules {
            for (atom, cands) in rule.positives.iter().zip(&rule.probe_cands) {
                let (Some(range), Some(rel)) = (delta.range(atom.rel), db.relation(atom.rel))
                else {
                    continue;
                };
                for &col in cands {
                    if delta.index(atom.rel, col).is_none() {
                        let idx = rel.index_over(col, range.clone());
                        delta.indexes.push(((atom.rel, col), idx));
                    }
                }
            }
        }
        delta
    }

    /// The new positions of `rel`, if it gained any.
    fn range(&self, rel: &str) -> Option<Range<u32>> {
        self.ranges
            .iter()
            .find(|(r, _)| *r == rel)
            .map(|(_, range)| range.clone())
    }

    /// The one-off index on `col` of `rel`'s range, if built.
    fn index(&self, rel: &str, col: usize) -> Option<&ColIndex> {
        self.indexes
            .iter()
            .find(|((r, c), _)| *r == rel && *c == col)
            .map(|(_, idx)| idx)
    }
}

/// The differentiated atom of a semi-naive task: positive atom `at` of the
/// rule reads only the round's delta of its relation.
type DeltaAt<'d, 'r> = Option<(usize, &'d Delta<'r>)>;

/// One positive atom's access plan, resolved once per rule evaluation
/// against the round's live statistics: the relation it scans, the
/// positions it reads (all of them, or a delta's range), and, if it has a
/// bound column, the probed column with an index over exactly those
/// positions.
struct AtomPlan<'d> {
    rel: &'d IdRelation,
    range: Range<u32>,
    probe: Option<(usize, &'d ColIndex)>,
}

impl<'d> AtomPlan<'d> {
    /// Scans `range` of `rel`, probing the candidate column whose index (as
    /// `index` finds it) has the most distinct values — the shared policy,
    /// [`iql_exec::choose_probe`].
    fn new(
        rel: &'d IdRelation,
        range: Range<u32>,
        cands: &[usize],
        index: impl Fn(usize) -> Option<&'d ColIndex>,
    ) -> AtomPlan<'d> {
        let probe = choose_probe(
            cands
                .iter()
                .map(|&col| (col, index(col).map(ColIndex::distinct))),
        )
        .map(|col| (col, index(col).expect("indexed before the round")));
        AtomPlan { rel, range, probe }
    }
}

/// The depth-first join of one rule: its positive atoms' access plans,
/// one mutable substitution with a trail for unwinding, and the head
/// tuples derived so far.
struct Walk<'a, 'r> {
    rule: &'a CompiledRule<'r>,
    plans: Vec<AtomPlan<'a>>,
    neg_view: &'a IdDatabase,
    gov: &'a Governor,
    pacer: Pacer,
    subst: Vec<Option<ValueId>>,
    touched: Vec<u32>,
    out: &'a mut Derived,
}

impl Walk<'_, '_> {
    /// Matches positive atom `k` and everything after it. Past the last
    /// positive atom, safety has bound every variable: the negative atoms
    /// are checked in order against `neg_view`, and the head is emitted.
    ///
    /// The governor's asynchronous signals (deadline, cancellation) are
    /// polled once per [`Pacer::STRIDE`] candidate tuples, so a join that
    /// would run for minutes stops mid-nested-loop.
    fn descend(&mut self, k: usize) -> std::result::Result<(), AbortReason> {
        let rule = self.rule;
        let Some(plan) = self.plans.get(k) else {
            let (subst, neg_view) = (&self.subst, self.neg_view);
            for neg in &rule.negatives {
                let args = neg.args.iter().map(|a| arg_value(a, subst));
                let blocked = with_id_tuple(args, |t| {
                    neg_view.relation(neg.rel).is_some_and(|r| r.contains(t))
                });
                if blocked != Some(false) {
                    return Ok(());
                }
            }
            self.out.ids.extend(
                rule.head
                    .iter()
                    .map(|a| arg_value(a, subst).expect("safety: head vars bound")),
            );
            self.out.count += 1;
            return Ok(());
        };
        let rel = plan.rel;
        let atom = &rule.positives[k];
        let probe = plan.probe.map(|(col, idx)| {
            let key = arg_value(&atom.args[col], &self.subst);
            (idx, key.expect("probe columns are bound by earlier atoms"))
        });
        for pos in rel.positions(plan.range.clone(), probe) {
            if let Some(reason) = self.pacer.tick(self.gov) {
                return Err(reason);
            }
            let mark = self.touched.len();
            if match_tuple(atom, rel.tuple_at(pos), &mut self.subst, &mut self.touched) {
                self.descend(k + 1)?;
            }
            unwind(&mut self.subst, &mut self.touched, mark);
        }
        Ok(())
    }
}

/// Joins the positive body atoms left to right over `read`, with positive
/// atom `at` (if `delta` is `Some((at, delta))`) reading only the delta's
/// range of its relation. Negative literals are checked against
/// `neg_view` once all variables are bound. Appends the head of each
/// satisfying substitution to `out`; `Err(reason)` abandons the task's
/// output wholesale.
///
/// Each atom's probe column is the shared policy's pick
/// ([`iql_exec::choose_probe`]) among its static candidates: the one whose
/// index has the most distinct values (the narrowest expected postings) —
/// the relation's incremental index, or for the delta atom the delta's
/// one-off index. Every candidate's index was built before the round.
fn join_rule(
    rule: &CompiledRule<'_>,
    read: &IdDatabase,
    delta: DeltaAt<'_, '_>,
    neg_view: &IdDatabase,
    gov: &Governor,
    out: &mut Derived,
) -> std::result::Result<(), AbortReason> {
    let plans: Option<Vec<AtomPlan>> = rule
        .positives
        .iter()
        .zip(&rule.probe_cands)
        .enumerate()
        .map(|(k, (atom, cands))| {
            let rel = read.relation(atom.rel)?;
            Some(match delta {
                Some((at, d)) if at == k => {
                    AtomPlan::new(rel, d.range(atom.rel)?, cands, |col| d.index(atom.rel, col))
                }
                _ => AtomPlan::new(rel, rel.all(), cands, |col| rel.index(col)),
            })
        })
        .collect();
    let Some(plans) = plans else {
        return Ok(()); // a missing source: the product is empty
    };
    Walk {
        rule,
        plans,
        neg_view,
        gov,
        pacer: Pacer::new(gov),
        subst: vec![None; rule.nslots],
        touched: Vec::new(),
        out,
    }
    .descend(0)
}

/// One rule evaluation (optionally differentiated) — the unit of parallel
/// work within a fixpoint round. Tasks only *read* the round's frozen
/// database and delta and produce pending head tuples.
struct JoinTask<'r, 'd> {
    /// Index of the rule in the stratum's rule list — panic attribution.
    ri: usize,
    /// The evaluation's [`TEST_PANIC_RULE`], read at its entry.
    panic_rule: usize,
    rule: &'d CompiledRule<'r>,
    read: &'d IdDatabase,
    delta: DeltaAt<'d, 'r>,
    neg_view: &'d IdDatabase,
}

/// What one join task resolves to: its derived tuples, or the reason its
/// evaluation was cut short (async governor trip, or a contained panic).
type TaskOut = std::result::Result<Derived, AbortReason>;

impl JoinTask<'_, '_> {
    fn run(&self, gov: &Governor) -> TaskOut {
        if self.panic_rule == self.ri {
            panic!("injected panic for rule {} (test hook)", self.ri);
        }
        let mut out = Derived::default();
        join_rule(
            self.rule,
            self.read,
            self.delta,
            self.neg_view,
            gov,
            &mut out,
        )?;
        Ok(out)
    }

    /// [`JoinTask::run`] behind a panic barrier: a panic is contained on
    /// the worker's own stack and surfaced as
    /// [`AbortReason::WorkerPanic`], so it never poisons the scoped pool
    /// and sibling tasks' results survive.
    fn run_caught(&self, gov: &Governor) -> TaskOut {
        catch_unwind(AssertUnwindSafe(|| self.run(gov)))
            .unwrap_or(Err(AbortReason::WorkerPanic { rule: self.ri }))
    }
}

/// Ensures every statically probe-able column of every rule has a built
/// incremental index in `db` — exactly the probe candidates
/// [`probe_candidates`] precomputed and [`join_rule`] ranks by distinct
/// count. Cheap after the first round (a map lookup per column); new
/// relations created by later rounds get their indexes built here and
/// maintained by inserts from then on.
fn ensure_probe_indexes(rules: &[CompiledRule<'_>], db: &IdDatabase) {
    for rule in rules {
        for (atom, cands) in rule.positives.iter().zip(&rule.probe_cands) {
            for &col in cands {
                db.ensure_index(atom.rel, col);
            }
        }
    }
}

/// Does every positive source of the (optionally differentiated) rule hold
/// at least one tuple — the delta atom a non-empty range, every other atom
/// a non-empty relation? The join is a nested product over its positive
/// atoms, so a single empty or missing source makes the whole task a no-op
/// — the fixpoint loop skips such tasks before spawning them. (A rule with
/// no positive atoms vacuously qualifies and still fires once.)
fn rule_supported(rule: &CompiledRule<'_>, read: &IdDatabase, delta: DeltaAt<'_, '_>) -> bool {
    rule.positives
        .iter()
        .enumerate()
        .all(|(k, atom)| match delta {
            Some((at, d)) if at == k => d.range(atom.rel).is_some(),
            _ => read.relation(atom.rel).is_some_and(|r| !r.is_empty()),
        })
}

/// Evaluates `prog` on `edb` under the chosen [`Strategy`] — the unified
/// entry point in front of the four evaluation modes.
///
/// ```
/// use iql_datalog::{eval, parse_program, Database, Strategy};
/// use iql_model::Constant;
/// let prog = parse_program(
///     "Tc(x, y) :- Edge(x, y). Tc(x, z) :- Tc(x, y), Edge(y, z).",
/// ).unwrap();
/// let mut db = Database::new();
/// db.insert("Edge", vec![Constant::int(1), Constant::int(2)]).unwrap();
/// db.insert("Edge", vec![Constant::int(2), Constant::int(3)]).unwrap();
/// let (out, stats) = eval(&prog, &db, Strategy::SemiNaive).unwrap();
/// assert_eq!(out.relation("Tc").unwrap().len(), 3);
/// assert!(stats.rounds >= 2);
/// ```
pub fn eval(prog: &Program, edb: &Database, strategy: Strategy) -> Result<(Database, EvalStats)> {
    eval_with(prog, edb, strategy, 1)
}

/// Like [`eval`], with a worker-pool size: within each round, rules (and,
/// under semi-naive, rule × delta-position pairs) evaluate concurrently;
/// derived tuples merge in fixed task order, so the output database and
/// statistics are identical for every `threads` value. `0` means one
/// worker per available core.
///
/// Runs under a default governor capping the fixpoint at
/// [`DEFAULT_MAX_ROUNDS`] rounds: a tripped run returns the partial
/// database with [`EvalStats::trip`] set rather than spinning forever. A
/// contained worker panic, by contrast, is a fault and surfaces as
/// [`DlError::WorkerPanic`].
pub fn eval_with(
    prog: &Program,
    edb: &Database,
    strategy: Strategy,
    threads: usize,
) -> Result<(Database, EvalStats)> {
    let gov = Governor::unlimited().with_max_steps(DEFAULT_MAX_ROUNDS);
    let (db, stats) = eval_governed(prog, edb, strategy, threads, &gov)?;
    if let Some(AbortReason::WorkerPanic { rule }) = stats.trip {
        return Err(DlError::WorkerPanic { rule });
    }
    Ok((db, stats))
}

/// Like [`eval_with`], under an explicit [`Governor`] — the same guard
/// surface the IQL evaluator runs behind (round limit via
/// `Governor::max_steps`, tuple budget via `max_facts`, wall-clock
/// deadline, external cancellation token).
///
/// A relation the program uses at a different arity than `edb` stores it
/// at fails with [`DlError::Arity`] before any round runs.
///
/// Degrades gracefully: a trip stops the fixpoint and returns `Ok` with
/// the last consistent database and [`EvalStats::trip`]` = Some(reason)`.
/// Round-boundary budgets are deterministic (the same partial database at
/// any thread count); a mid-round deadline/cancellation discards the
/// interrupted round's tuples wholesale, and a contained worker panic
/// keeps the surviving tasks' tuples for its final round before stopping.
pub fn eval_governed(
    prog: &Program,
    edb: &Database,
    strategy: Strategy,
    threads: usize,
    gov: &Governor,
) -> Result<(Database, EvalStats)> {
    let threads = effective_threads(threads);
    let panic_rule = TEST_PANIC_RULE.get();
    // The run writes a copy-on-write fork of its input, never the input
    // itself: relations are shared until first written, and the program's
    // new constants go into the fork's own store top. Derivation only
    // recombines constants already present in the EDB or the program, so
    // the store never grows after compilation.
    let mut out = edb.fork();
    let (store, db) = out.parts_mut();
    check_arities(prog, db)?;
    let mut stats = EvalStats {
        threads,
        ..EvalStats::default()
    };
    if matches!(strategy, Strategy::Naive | Strategy::SemiNaive) {
        require_positive(prog)?;
    }
    match strategy {
        Strategy::Naive | Strategy::Inflationary => {
            let rules = compile_rules(&prog.rules, store);
            fixpoint(&rules, db, None, threads, panic_rule, gov, &mut stats)?;
        }
        Strategy::SemiNaive => {
            let rules = compile_rules(&prog.rules, store);
            let no_negation = IdDatabase::new();
            fixpoint(
                &rules,
                db,
                Some(&no_negation),
                threads,
                panic_rule,
                gov,
                &mut stats,
            )?;
        }
        Strategy::Stratified => {
            for stratum in &stratify(prog)? {
                let rules = compile_rules(&stratum.rules, store);
                // Negation inside a stratum only mentions lower-stratum
                // relations, which are final in `db` — so the view shares
                // exactly the relations this stratum negates (a
                // negation-free stratum shares nothing at all).
                let neg_rels: BTreeSet<&str> = rules
                    .iter()
                    .flat_map(|r| r.negatives.iter().map(|n| n.rel))
                    .collect();
                let neg_view = db.freeze_view(neg_rels.iter().copied());
                fixpoint(
                    &rules,
                    db,
                    Some(&neg_view),
                    threads,
                    panic_rule,
                    gov,
                    &mut stats,
                )?;
                if stats.trip.is_some() {
                    // A trip invalidates the "lower strata are complete"
                    // premise of every later stratum — stop here.
                    break;
                }
            }
        }
    }
    Ok((out, stats))
}

/// Fails unless every relation the program names is stored in `db` at the
/// arity the program uses it at, or not at all (an absent or declared but
/// empty relation has no arity yet). Once this holds, every stored tuple a
/// join reads has the arity its atom expects, so every probe candidate's
/// index can be built.
fn check_arities(prog: &Program, db: &IdDatabase) -> Result<()> {
    for (rel, found) in prog.arities() {
        match db.relation(&rel).and_then(IdRelation::arity) {
            Some(expected) if expected != found => {
                return Err(DlError::Arity {
                    rel,
                    expected,
                    found,
                })
            }
            _ => {}
        }
    }
    Ok(())
}

/// Semi-naive (and the positive half of naive) reject negation up front.
fn require_positive(prog: &Program) -> Result<()> {
    if prog.has_negation() {
        return Err(DlError::NegationUnsupported(
            prog.rules
                .iter()
                .find(|r| r.body.iter().any(|l| !l.positive))
                .map(|r| r.to_string())
                .unwrap_or_default(),
        ));
    }
    Ok(())
}

/// Runs `rules` to their fixpoint over `db`, one round per iteration: a
/// boundary check, the round's join tasks on the worker pool, then their
/// tuples merged into `db` in task order, one batch per task. Stops once a
/// round derives nothing new, or with `stats.trip` set and `db` left at the
/// last consistent state when the governor trips.
///
/// `frozen_neg` picks the round shape. `None` runs full rounds: every
/// round evaluates every supported rule against the current database,
/// negation included (frozen per round) — the naive baseline on positive
/// programs, inflationary Datalog¬ (Kolaitis–Papadimitriou) otherwise,
/// and exactly the semantics IQL generalizes (Section 3.2). `Some(view)`
/// runs delta-driven rounds (semi-naive, Balbin–Ramamohanarao): the first
/// round evaluates every supported rule, and each later round one task
/// per (rule, positive atom whose relation gained tuples in the previous
/// round), that atom reading only the gained positions ([`Delta`]), with
/// negation reading the frozen `view` of completed lower strata — the only
/// negation under which differentiating is sound. `panic_rule` is the
/// evaluation's [`TEST_PANIC_RULE`].
fn fixpoint<'r>(
    rules: &[CompiledRule<'r>],
    db: &mut IdDatabase,
    frozen_neg: Option<&IdDatabase>,
    threads: usize,
    panic_rule: usize,
    gov: &Governor,
    stats: &mut EvalStats,
) -> Result<()> {
    // The relations the merge can grow, each once.
    let head_rels: BTreeSet<&'r str> = rules.iter().map(|r| r.head_rel).collect();
    // The previous round's new tuples; `None` before the first round and
    // under full rounds.
    let mut delta: Option<Delta<'r>> = None;
    loop {
        if let Some(reason) = round_boundary_trip(db, stats, gov) {
            stats.trip = Some(reason);
            return Ok(());
        }
        stats.rounds += 1;
        ensure_probe_indexes(rules, db);
        let (heads, outs) = {
            let db = &*db;
            let neg_view = frozen_neg.unwrap_or(db);
            let mut tasks: Vec<JoinTask> = Vec::new();
            for (ri, rule) in rules.iter().enumerate() {
                let mut schedule = |delta| {
                    if rule_supported(rule, db, delta) {
                        tasks.push(JoinTask {
                            ri,
                            panic_rule,
                            rule,
                            read: db,
                            delta,
                            neg_view,
                        });
                    }
                };
                match &delta {
                    None => schedule(None),
                    // Only this fixpoint's head relations gain tuples, so
                    // an atom over any other relation has an empty delta
                    // and its task is unsupported.
                    Some(d) => {
                        for at in 0..rule.positives.len() {
                            schedule(Some((at, d)));
                        }
                    }
                }
            }
            let heads: Vec<&CompiledRule> = tasks.iter().map(|t| &rules[t.ri]).collect();
            (heads, run_tasks(&tasks, threads, |t| t.run_caught(gov)))
        };
        // Deadline/cancellation mid-round: discard the whole round's
        // tuples — checked before ANY insertion so the returned snapshot
        // is the pre-round database at every thread count.
        if let Some(reason) = round_abandoned(&outs) {
            stats.trip = Some(reason);
            return Ok(());
        }
        let before: Vec<(&'r str, u32)> = match frozen_neg {
            Some(_) => head_rels
                .iter()
                .map(|&h| (h, db.relation(h).map_or(0, |r| r.all().end)))
                .collect(),
            None => Vec::new(),
        };
        let mut changed = false;
        let mut round_trip = None;
        for (rule, out) in heads.into_iter().zip(outs) {
            let out = route_task_out(out, &mut round_trip);
            stats.derivations += out.count;
            let new = db.insert_all(rule.head_rel, rule.head.len(), &out.ids, out.count)?;
            changed |= new > 0;
        }
        if round_trip.is_some() {
            // A contained panic: the surviving tasks' tuples were kept
            // (other rules' results are preserved), then the run stops.
            stats.trip = round_trip;
            return Ok(());
        }
        if !changed {
            return Ok(());
        }
        if frozen_neg.is_some() {
            delta = Some(Delta::new(rules, db, before));
        }
    }
}

/// The deterministic round-boundary checks: asynchronous signals first,
/// then the round and tuple budgets. Checked *before* a round runs, so a
/// clean fixpoint reached within budget never trips.
fn round_boundary_trip(db: &IdDatabase, stats: &EvalStats, gov: &Governor) -> Option<AbortReason> {
    if let Some(reason) = gov.trip_async() {
        return Some(reason);
    }
    if stats.rounds >= gov.max_steps {
        return Some(AbortReason::StepLimit {
            limit: gov.max_steps,
        });
    }
    if gov.max_facts != usize::MAX && db.size() > gov.max_facts {
        return Some(AbortReason::FactBudget {
            limit: gov.max_facts,
        });
    }
    None
}

/// Did any task hit a deadline or cancellation? Such a round is abandoned
/// wholesale (before any insertion), so the partial database stays the
/// last *completed* round regardless of which worker noticed first.
fn round_abandoned(outs: &[TaskOut]) -> Option<AbortReason> {
    outs.iter().find_map(|out| match out {
        Err(reason @ (AbortReason::Deadline | AbortReason::Cancelled)) => Some(*reason),
        _ => None,
    })
}

/// Merge routing for one task outcome (deadline/cancellation already
/// handled by [`round_abandoned`]): a contained worker panic records the
/// trip in `round_trip` and yields no tuples, but lets the merge continue
/// so sibling tasks' derivations survive.
fn route_task_out(out: TaskOut, round_trip: &mut Option<AbortReason>) -> Derived {
    match out {
        Ok(derived) => derived,
        Err(reason) => {
            if round_trip.is_none() {
                *round_trip = Some(reason);
            }
            Derived::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{parse_program, Tuple};
    use iql_model::Constant;

    fn chain_db(n: usize) -> Database {
        let mut db = Database::new();
        for i in 0..n {
            db.insert(
                "Edge",
                vec![Constant::int(i as i64), Constant::int(i as i64 + 1)],
            )
            .unwrap();
        }
        db
    }

    const TC: &str = "Tc(x, y) :- Edge(x, y). Tc(x, z) :- Tc(x, y), Edge(y, z).";

    #[test]
    fn naive_and_seminaive_agree_on_tc() {
        let prog = parse_program(TC).unwrap();
        let db = chain_db(12);
        let (naive, s1) = eval(&prog, &db, Strategy::Naive).unwrap();
        let (semi, s2) = eval(&prog, &db, Strategy::SemiNaive).unwrap();
        assert_eq!(naive, semi);
        // Chain of 13 nodes: 12·13/2 = 78 closure pairs.
        assert_eq!(naive.relation("Tc").unwrap().len(), 78);
        // Semi-naive derives strictly less.
        assert!(
            s2.derivations < s1.derivations,
            "{} < {}",
            s2.derivations,
            s1.derivations
        );
    }

    #[test]
    fn cyclic_graph_closure() {
        let prog = parse_program(TC).unwrap();
        let mut db = chain_db(3);
        db.insert("Edge", vec![Constant::int(3), Constant::int(0)])
            .unwrap();
        let (out, _) = eval(&prog, &db, Strategy::SemiNaive).unwrap();
        // 4-cycle: complete closure 4×4 = 16.
        assert_eq!(out.relation("Tc").unwrap().len(), 16);
    }

    #[test]
    fn constants_in_rules() {
        let prog = parse_program(r#"Hit(x) :- Edge(0, x)."#).unwrap();
        let db = chain_db(3);
        let (out, _) = eval(&prog, &db, Strategy::SemiNaive).unwrap();
        assert_eq!(out.relation("Hit").unwrap().len(), 1);
    }

    #[test]
    fn stratified_negation_complement() {
        let prog = parse_program(COMPLEMENT).unwrap();
        let mut db = chain_db(2); // 0→1→2
        db.insert("Edge", vec![Constant::int(7), Constant::int(8)])
            .unwrap();
        let (out, _) = eval(&prog, &db, Strategy::Stratified).unwrap();
        let un = out.relation("Un").unwrap();
        assert_eq!(un.len(), 2); // 7, 8
    }

    #[test]
    fn inflationary_negation_round_semantics() {
        // Win(x) :- Move(x,y), !Win(y). — inflationary semantics on a chain.
        let prog = parse_program("Win(x) :- Move(x, y), !Win(y).").unwrap();
        let mut db = Database::new();
        for i in 0..3 {
            db.insert("Move", vec![Constant::int(i), Constant::int(i + 1)])
                .unwrap();
        }
        let (out, _) = eval(&prog, &db, Strategy::Inflationary).unwrap();
        // Round 1: every mover "wins" (Win empty at round start): 0,1,2.
        // Round 2 adds nothing new. Inflationary ≠ stratified here; this
        // pins the semantics.
        assert_eq!(out.relation("Win").unwrap().len(), 3);
    }

    #[test]
    fn facts_in_program() {
        let prog = parse_program(r#"Start(0). Next(x) :- Start(x)."#).unwrap();
        let (out, _) = eval(&prog, &Database::new(), Strategy::SemiNaive).unwrap();
        assert!(out.relation("Next").unwrap().contains(&[Constant::int(0)]));
    }

    #[test]
    fn parallel_rounds_match_sequential() {
        let prog = parse_program(TC).unwrap();
        let mut db = chain_db(6);
        db.insert("Edge", vec![Constant::int(6), Constant::int(0)])
            .unwrap();
        for strategy in [
            Strategy::Naive,
            Strategy::SemiNaive,
            Strategy::Inflationary,
            Strategy::Stratified,
        ] {
            let (seq, s1) = eval_with(&prog, &db, strategy, 1).unwrap();
            for threads in [2, 4, 8] {
                let (par, s2) = eval_with(&prog, &db, strategy, threads).unwrap();
                assert_eq!(seq, par, "{strategy} differs at {threads} threads");
                assert_eq!(s1.rounds, s2.rounds);
                assert_eq!(s1.derivations, s2.derivations);
                assert_eq!(s2.threads, threads);
            }
        }
    }

    const COMPLEMENT: &str = r#"
        Node(x) :- Edge(x, y).
        Node(y) :- Edge(x, y).
        Reach(0, 0).
        Reach(0, y) :- Reach(0, x), Edge(x, y).
        Un(x) :- Node(x), !ReachAny(x).
        ReachAny(y) :- Reach(0, y).
    "#;

    /// `(rounds, derivations)` must not depend on how tuples are stored:
    /// the join order and the merge order fix both.
    #[test]
    fn eval_stats_are_pinned() {
        let tc = parse_program(TC).unwrap();
        let mut cyclic = chain_db(3);
        cyclic
            .insert("Edge", vec![Constant::int(3), Constant::int(0)])
            .unwrap();
        let complement = parse_program(COMPLEMENT).unwrap();
        let mut two_parts = chain_db(2);
        two_parts
            .insert("Edge", vec![Constant::int(7), Constant::int(8)])
            .unwrap();
        let cases = [
            (&tc, chain_db(12), Strategy::Naive, (13, 728)),
            (&tc, chain_db(12), Strategy::SemiNaive, (13, 78)),
            (&tc, chain_db(12), Strategy::Inflationary, (13, 728)),
            (&tc, chain_db(12), Strategy::Stratified, (13, 78)),
            (&tc, cyclic.clone(), Strategy::Naive, (5, 60)),
            (&tc, cyclic.clone(), Strategy::SemiNaive, (5, 20)),
            (&tc, cyclic.clone(), Strategy::Inflationary, (5, 60)),
            (&tc, cyclic, Strategy::Stratified, (5, 20)),
            (
                &complement,
                two_parts.clone(),
                Strategy::Inflationary,
                (5, 65),
            ),
            (&complement, two_parts, Strategy::Stratified, (7, 14)),
        ];
        for (prog, db, strategy, want) in &cases {
            for threads in [1, 4] {
                let (_, stats) = eval_with(prog, db, *strategy, threads).unwrap();
                assert_eq!(
                    (stats.rounds, stats.derivations),
                    *want,
                    "{strategy} at {threads} threads"
                );
            }
        }
    }

    /// The order in which every strategy inserts `Tc`, at 1 and 4 threads,
    /// on a graph with two overlapping cycles: each pair `xy` is the tuple
    /// `Tc("x", "y")`. The strings were recorded from the engine that
    /// copied each round's new tuples into a separate delta database;
    /// reading the delta as a range of the relation must not move a tuple.
    #[test]
    fn insertion_order_is_pinned() {
        const LEFT: &str = "ab bc cd de ef fc bg gh ha ac ag bd ce df ec fd bh ga hb ad ah \
                            be cf dc ed fe ba gb hc hg ae aa bf cc dd ee ff bb gc gg hd hh af \
                            gd he ge hf gf";
        const DOUBLE_DELTA: &str = "ab bc cd de ef fc bg gh ha ac ag bd ce df ec fd bh ga hb ad \
                                    ae ah aa be bf cf cc dc dd ed ee fe ff ba bb gb gc gg hc hg \
                                    hd hh af gd ge gf he hf";
        let mut db = Database::new();
        for e in ["ab", "bc", "cd", "de", "ef", "fc", "bg", "gh", "ha"] {
            let (s, d) = e.split_at(1);
            db.insert("Edge", vec![Constant::str(s), Constant::str(d)])
                .unwrap();
        }
        let double = "Tc(x, y) :- Edge(x, y). Tc(x, z) :- Tc(x, y), Tc(y, z).";
        let cases = [
            (TC, Strategy::Naive, LEFT),
            (TC, Strategy::SemiNaive, LEFT),
            (TC, Strategy::Inflationary, LEFT),
            (TC, Strategy::Stratified, LEFT),
            (double, Strategy::Naive, LEFT),
            (double, Strategy::SemiNaive, DOUBLE_DELTA),
            (double, Strategy::Inflationary, LEFT),
            (double, Strategy::Stratified, DOUBLE_DELTA),
        ];
        for (src, strategy, want) in cases {
            let prog = parse_program(src).unwrap();
            for threads in [1, 4] {
                let (out, _) = eval_with(&prog, &db, strategy, threads).unwrap();
                let got: Vec<String> = out
                    .relation("Tc")
                    .unwrap()
                    .iter()
                    .map(|t| {
                        t.iter()
                            .map(|c| match c {
                                Constant::Str(s) => s.to_string(),
                                other => panic!("non-string {other:?}"),
                            })
                            .collect()
                    })
                    .collect();
                let want: Vec<&str> = want.split_whitespace().collect();
                assert_eq!(got, want, "{src} {strategy} at {threads} threads");
            }
        }
    }

    fn string_graph() -> Database {
        let mut db = Database::new();
        for (s, d) in [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("e", "f")] {
            db.insert("Edge", vec![Constant::str(s), Constant::str(d)])
                .unwrap();
        }
        db
    }

    #[test]
    fn eval_never_writes_its_input() {
        let prog = parse_program(
            r#"
            Start("new").
            R(y) :- Edge("zz", y).
            Tc(x, y) :- Edge(x, y).
            Tc(x, z) :- Tc(x, y), Edge(y, z).
            Seen(x) :- Start(x).
            "#,
        )
        .unwrap();
        let db = string_graph();
        let before = db.clone();
        let store_len = db.store_len();
        let names: Vec<String> = db.names().map(str::to_string).collect();
        let strategies = [Strategy::SemiNaive, Strategy::Naive, Strategy::Stratified];
        for run in 0..100 {
            let strategy = strategies[run % strategies.len()];
            let (out, stats) = eval_with(&prog, &db, strategy, 1 + run % 2).unwrap();
            assert!(stats.trip.is_none());
            assert_eq!(out.relation("Tc").unwrap().len(), 13, "{strategy}");
            assert!(out
                .relation("Start")
                .unwrap()
                .contains(&[Constant::str("new")]));
            assert!(out.relation("R").is_none(), "no Edge starts at zz");
            assert!(out.shares_relation(&db, "Edge"), "Edge is never copied");
        }
        assert_eq!(db, before);
        assert_eq!(db, string_graph());
        assert_eq!(db.store_len(), store_len, "program constants stay out");
        assert_eq!(db.names().collect::<Vec<_>>(), names);
        let edge = db.relation("Edge").unwrap();
        assert!(!edge.contains(&[Constant::str("zz"), Constant::str("a")]));
    }

    #[test]
    fn an_output_evaluates_like_a_fresh_copy_of_it() {
        let first = parse_program(
            r#"
            Start("new").
            Tc(x, y) :- Edge(x, y).
            Tc(x, z) :- Tc(x, y), Edge(y, z).
            "#,
        )
        .unwrap();
        let second = parse_program(
            r#"
            Node(x) :- Tc(x, y).
            Node("new2") :- Start("new").
            Loop(x) :- Tc(x, x).
            Open(x) :- Node(x), !Loop(x).
            "#,
        )
        .unwrap();
        let (out, _) = eval(&first, &string_graph(), Strategy::SemiNaive).unwrap();
        // The same contents, loaded from scratch into a fresh store.
        let mut fresh = Database::new();
        for name in out.names() {
            fresh.declare(name);
            for t in out.relation(name).unwrap().iter() {
                fresh.insert(name, t.to_vec()).unwrap();
            }
        }
        assert_eq!(out, fresh);
        for strategy in [Strategy::Stratified, Strategy::Inflationary] {
            let (again, s1) = eval(&second, &out, strategy).unwrap();
            let (want, s2) = eval(&second, &fresh, strategy).unwrap();
            assert_eq!(again, want, "{strategy}");
            assert_eq!((s1.rounds, s1.derivations), (s2.rounds, s2.derivations));
        }
        let (again, _) = eval(&second, &out, Strategy::Stratified).unwrap();
        let open: BTreeSet<Tuple> = again
            .relation("Open")
            .unwrap()
            .iter()
            .map(|t| t.to_vec())
            .collect();
        let want: BTreeSet<Tuple> = ["e", "new2"].map(|s| vec![Constant::str(s)]).into();
        assert_eq!(open, want);
    }

    #[test]
    fn nullary_heads_derive_once() {
        let prog = parse_program(r#"Done() :- Edge(x, y). Any() :- Done()."#).unwrap();
        for strategy in [Strategy::Naive, Strategy::SemiNaive] {
            let (out, _) = eval(&prog, &chain_db(3), strategy).unwrap();
            assert_eq!(out.relation("Done").unwrap().len(), 1);
            assert!(out.relation("Any").unwrap().contains(&Vec::new()));
        }
    }

    #[test]
    fn stored_arity_must_match_the_program() {
        let mut db = Database::new();
        for i in 1..4 {
            db.insert("Edge", vec![Constant::int(i)]).unwrap();
            db.insert("Node", vec![Constant::int(i)]).unwrap();
        }
        let all = [
            Strategy::Naive,
            Strategy::SemiNaive,
            Strategy::Inflationary,
            Strategy::Stratified,
        ];
        let cases: [(&str, &[Strategy]); 3] = [
            ("P(x, y) :- Edge(x, y).", &all),
            ("P(x) :- Edge(x, 2).", &all),
            (
                "P(x) :- Node(x), !Edge(x, x).",
                &[Strategy::Inflationary, Strategy::Stratified],
            ),
        ];
        let want = DlError::Arity {
            rel: "Edge".into(),
            expected: 1,
            found: 2,
        };
        for (src, strategies) in cases {
            let prog = parse_program(src).unwrap();
            for &strategy in strategies {
                for threads in [1, 4] {
                    let got = eval_with(&prog, &db, strategy, threads).err();
                    assert_eq!(got.as_ref(), Some(&want), "{src} {strategy} {threads}");
                }
            }
        }
        // A declared but empty relation has no arity yet, so any use fits.
        let mut empty = Database::new();
        empty.declare("Edge");
        let prog = parse_program("P(x, y) :- Edge(x, y).").unwrap();
        for strategy in all {
            let (out, _) = eval(&prog, &empty, strategy).unwrap();
            assert!(out.relation("P").is_none(), "{strategy}");
        }
    }

    #[test]
    fn naive_rejects_negation() {
        let prog = parse_program("Out(x) :- Node(x), !Bad(x).").unwrap();
        assert!(matches!(
            eval(&prog, &Database::new(), Strategy::Naive),
            Err(DlError::NegationUnsupported(_))
        ));
    }
}
