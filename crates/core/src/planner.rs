//! Cost-based join planning for rule bodies, lowering to IQL's operator
//! program.
//!
//! The evaluator originally executed body literals in *textual* order (the
//! syntactic plan of [`build_plan`], still the fallback and the ablation
//! baseline). This module adds a greedy cost-based planner on top: literals
//! are reordered by estimated selectivity from the instance's cardinality
//! statistics ([`iql_model::InstanceStats`]). Whichever order runs, every
//! relation scan gets a statically chosen probe attribute backed by the
//! incremental index on that attribute's column of the relation's rows
//! ([`iql_model::IdRelation`], the store both engines share).
//!
//! A plan is a short program of [`Op`]s — scans (optionally index-probed),
//! bind-equalities, active-domain enumerations, filters and negation
//! guards — executed left to right by the evaluator's depth-first search.
//! Operands borrow the rule's own terms and literals. Plans keep two
//! invariants the executor relies on: operators appear in binding order
//! (an operand is evaluable once the operators before it have bound its
//! variables), and every positive membership stays an [`Op::Scan`] — never
//! a filter — so each supporting source keeps a semi-naive delta position.
//! Probe selection goes through the runtime's one shared policy
//! ([`iql_exec::choose_probe`]) over the instance's distinct-key counts.
//!
//! The planner is a **pure optimization**: it never changes the set of
//! valuations a body produces (conjunction is order-independent, and every
//! positive relation/class member stays an [`Op::Scan`] so semi-naive
//! delta positions keep covering all supporting facts), and the evaluator's
//! merge phase canonicalizes fire order wherever order is observable (oid
//! invention, deletions) — see DESIGN.md, "Execution runtime". Plans that
//! would need an active-domain enumeration fall back to the syntactic order
//! wholesale, so `enum_fallbacks` counters are identical with the planner
//! on or off.
//!
//! Before planning, each rule is compiled once per stage into a
//! [`CompiledRule`]: its variables become dense slots (their order by
//! name), its literals and head slot terms ([`STerm`]), and the facts that
//! depend only on the rule text — body and invention slots, slot types,
//! `choose`, semi-naive eligibility — are computed there. Ops keep the
//! rule's own terms for ordering, probe choice and `explain`, and name the
//! literal whose slot form the evaluator executes.
//!
//! A [`RulePlan`] borrows only the *rule*, never the instance: planning
//! reads (and, for probe candidates, ensures) the instance's indexes
//! transiently, so a built plan stays valid across steps and is cached by
//! the evaluator keyed on the instance's statistics epoch
//! ([`iql_model::Instance::stats_epoch`]).

use crate::ast::{Head, Literal, Rule, Term, VarName};
use crate::error::{IqlError, Result};
use crate::eval::EvalConfig;
use iql_exec::choose_probe;
use iql_model::{AttrName, ClassName, Constant, Instance, RelName, TypeExpr};
use std::collections::BTreeSet;

/// A rule variable's register: its index in the rule's variables sorted
/// by name.
pub(crate) type Slot = usize;

/// A term with its variables resolved to slots — what the evaluator reads.
pub(crate) enum STerm<'a> {
    Var(Slot),
    Deref(Slot),
    Const(&'a Constant),
    Rel(RelName),
    Class(ClassName),
    Set(Vec<STerm<'a>>),
    /// Fields in attribute order. `flat` when every field is a variable or
    /// a constant: such a pattern is matched by one loop over the tuple.
    Tuple {
        fields: Vec<(AttrName, STerm<'a>)>,
        flat: bool,
    },
}

/// A body literal over slot terms.
pub(crate) enum SLit<'a> {
    Member {
        set: STerm<'a>,
        elem: STerm<'a>,
        positive: bool,
    },
    Eq {
        left: STerm<'a>,
        right: STerm<'a>,
        positive: bool,
    },
    Choose,
}

/// A rule head over slots and slot terms, mirroring [`Head`].
pub(crate) enum SHead<'a> {
    Rel(RelName, STerm<'a>),
    Class(ClassName, Slot),
    SetMember(Slot, STerm<'a>),
    Assign(Slot, STerm<'a>),
    DeleteRel(RelName, STerm<'a>),
    DeleteOid(ClassName, Slot),
    DeleteSetMember(Slot, STerm<'a>),
}

impl SHead<'_> {
    /// The head's term, if it has one.
    pub fn term(&self) -> Option<&STerm<'_>> {
        match self {
            SHead::Rel(_, t)
            | SHead::SetMember(_, t)
            | SHead::Assign(_, t)
            | SHead::DeleteRel(_, t)
            | SHead::DeleteSetMember(_, t) => Some(t),
            SHead::Class(..) | SHead::DeleteOid(..) => None,
        }
    }
}

/// Everything about a rule that depends only on its text, computed once
/// per stage: the evaluator's search, head guard and apply read variables
/// through these slots and never look a [`VarName`] up.
pub(crate) struct CompiledRule<'a> {
    pub rule: &'a Rule,
    /// Slot → variable name, sorted; read only to place enumerations in
    /// the syntactic plan and to name variables in errors.
    pub names: Vec<VarName>,
    /// Slot → declared type.
    pub types: Vec<Option<&'a TypeExpr>>,
    /// The body variables' slots, ascending: the columns of a valuation
    /// row.
    pub body_slots: Vec<Slot>,
    /// The invention variables' slots, ascending, each with its class
    /// (`None` if its type is not a class).
    pub invent: Vec<(Slot, Option<ClassName>)>,
    /// The body literals, parallel to `rule.body`.
    pub body: Vec<SLit<'a>>,
    pub head: SHead<'a>,
    pub has_choose: bool,
    /// The syntactic half of semi-naive eligibility; the other half is an
    /// enumeration-free plan.
    pub seminaive: bool,
    /// The syntactic plan ([`build_plan`]) with its number of
    /// [`Op::Enumerate`] fallbacks — text-only, so built here once rather
    /// than per fresh plan. `Err` if the body cannot be planned, returned
    /// when the rule is first planned.
    pub syntactic: Result<(Vec<Op<'a>>, usize)>,
}

impl<'a> CompiledRule<'a> {
    pub fn new(rule: &'a Rule) -> Self {
        let body_vars = rule.body_vars();
        let mut vars = body_vars.clone();
        rule.head.vars(&mut vars);
        let names: Vec<VarName> = vars.iter().cloned().collect();
        let slot = |v: &VarName| names.binary_search(v).expect("a variable of the rule");
        let types = names.iter().map(|v| rule.var_types.get(v)).collect();
        let body_slots = body_vars.iter().map(slot).collect();
        let invent = vars
            .difference(&body_vars)
            .map(|v| match rule.var_types.get(v) {
                Some(TypeExpr::Class(p)) => (slot(v), Some(*p)),
                _ => (slot(v), None),
            })
            .collect();
        let body = rule.body.iter().map(|l| compile_lit(l, &slot)).collect();
        let t = |x: &'a Term| compile_term(x, &slot);
        let head = match &rule.head {
            Head::Rel(r, x) => SHead::Rel(*r, t(x)),
            Head::Class(p, v) => SHead::Class(*p, slot(v)),
            Head::SetMember(v, x) => SHead::SetMember(slot(v), t(x)),
            Head::Assign(v, x) => SHead::Assign(slot(v), t(x)),
            Head::DeleteRel(r, x) => SHead::DeleteRel(*r, t(x)),
            Head::DeleteOid(p, v) => SHead::DeleteOid(*p, slot(v)),
            Head::DeleteSetMember(v, x) => SHead::DeleteSetMember(slot(v), t(x)),
        };
        let syntactic = build_plan(rule, &names).map(|ops| {
            let enum_fallbacks = ops
                .iter()
                .filter(|op| matches!(op, Op::Enumerate { .. }))
                .count();
            (ops, enum_fallbacks)
        });
        CompiledRule {
            rule,
            types,
            body_slots,
            invent,
            body,
            head,
            has_choose: rule.has_choose(),
            seminaive: seminaive_syntactic(rule),
            names,
            syntactic,
        }
    }

    /// Number of registers a valuation of this rule needs.
    pub fn nslots(&self) -> usize {
        self.names.len()
    }
}

fn compile_term<'a>(t: &'a Term, slot: &impl Fn(&VarName) -> Slot) -> STerm<'a> {
    match t {
        Term::Var(v) => STerm::Var(slot(v)),
        Term::Deref(v) => STerm::Deref(slot(v)),
        Term::Const(c) => STerm::Const(c),
        Term::Rel(r) => STerm::Rel(*r),
        Term::Class(p) => STerm::Class(*p),
        Term::Set(elems) => STerm::Set(elems.iter().map(|e| compile_term(e, slot)).collect()),
        Term::Tuple(fields) => STerm::Tuple {
            flat: fields
                .values()
                .all(|f| matches!(f, Term::Var(_) | Term::Const(_))),
            fields: fields
                .iter()
                .map(|(a, f)| (*a, compile_term(f, slot)))
                .collect(),
        },
    }
}

fn compile_lit<'a>(lit: &'a Literal, slot: &impl Fn(&VarName) -> Slot) -> SLit<'a> {
    match lit {
        Literal::Member {
            set,
            elem,
            positive,
        } => SLit::Member {
            set: compile_term(set, slot),
            elem: compile_term(elem, slot),
            positive: *positive,
        },
        Literal::Eq {
            left,
            right,
            positive,
        } => SLit::Eq {
            left: compile_term(left, slot),
            right: compile_term(right, slot),
            positive: *positive,
        },
        Literal::Choose => SLit::Choose,
    }
}

/// Is a rule syntactically eligible for delta-driven evaluation? Its truth
/// at a valuation must depend only on relation/class facts (monotone) and
/// the binding itself: no dereferences (ν changes untracked), no relation/
/// class terms inside comparisons (their whole extent is state), no
/// choose, no deletion. (Its plan must also be enumeration-free: the
/// active domain grows.)
fn seminaive_syntactic(rule: &Rule) -> bool {
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
    head_ok
        && rule.body.iter().all(|lit| match lit {
            Literal::Member { set, elem, .. } => {
                matches!(set, Term::Rel(_) | Term::Class(_) | Term::Var(_)) && simple(elem)
            }
            Literal::Eq { left, right, .. } => simple(left) && simple(right),
            Literal::Choose => false,
        })
}

/// One step of a rule body's execution plan. A plan is a `Vec<Op>`
/// executed left to right over a growing variable binding. Operands borrow
/// the rule's terms, which ordering, probe choice and `explain` read; `lit`
/// names the body literal whose slot form ([`CompiledRule::body`]) the
/// evaluator executes.
#[derive(Clone)]
pub(crate) enum Op<'a> {
    /// Iterate the members of the set-denoting term `src`, matching `pat`
    /// against each (binds variables). `probe` narrows the iteration to an
    /// index lookup when the planner found a fully-bound tuple field.
    Scan {
        lit: usize,
        src: &'a Term,
        pat: &'a Term,
        probe: Option<Probe<'a>>,
    },
    /// Evaluate `src` (fully bound) and match `pat` against the single
    /// resulting value (binds variables) — an equality used as a binder.
    /// `left_src` says which side of the equality `src` is.
    BindEq {
        lit: usize,
        left_src: bool,
        src: &'a Term,
        pat: &'a Term,
    },
    /// Enumerate a variable's type over the active domain (the paper's
    /// valuation semantics; a budgeted last resort).
    Enumerate {
        slot: Slot,
        item: (VarName, TypeExpr),
    },
    /// A positive guard over fully-bound operands: keep the binding iff
    /// the literal holds.
    Filter { lit: usize, guard: &'a Literal },
    /// A negated literal over fully-bound operands: keep the binding iff
    /// it holds. Kept apart from [`Op::Filter`] because negation must run
    /// under full bindings and never earns a delta position.
    NegGuard { lit: usize, guard: &'a Literal },
}

/// A scan's index lookup: the indexed attribute, the term producing the
/// key, and that term's position among the pattern's fields.
#[derive(Clone)]
pub(crate) struct Probe<'a> {
    pub attr: AttrName,
    pub key: &'a Term,
    pub field: usize,
}

/// The source a relation/class scan draws from — what a semi-naive delta
/// position restricts, and what the empty-delta early exit inspects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PlanSource {
    Rel(RelName),
    Class(ClassName),
}

/// A fully prepared per-rule plan, shared by every search task of the rule.
/// Borrows the rule only (not the instance), so the evaluator may reuse it
/// across steps while the statistics epoch stands still.
pub(crate) struct RulePlan<'a> {
    /// Ordered body ops (cost-based when the planner is on, textual else).
    /// Scan probes are statically chosen in either order: the attribute to
    /// look up in the relation's index and the term producing the key —
    /// absent only for scans with no fully-bound tuple field.
    pub ops: Vec<Op<'a>>,
    /// Did cost-based ordering change anything vs. the syntactic plan?
    pub reordered: bool,
    /// Number of [`Op::Enumerate`] fallbacks in the plan.
    pub enum_fallbacks: usize,
    /// Relation/class scans in op order — the semi-naive delta positions.
    pub sources: Vec<PlanSource>,
}

impl RulePlan<'_> {
    /// Number of relation/class scans — the positions a semi-naive
    /// evaluation differentiates.
    pub fn nscans(&self) -> usize {
        self.sources.len()
    }
}

fn term_bound(t: &Term, bound: &BTreeSet<VarName>) -> bool {
    let mut vs = BTreeSet::new();
    t.vars(&mut vs);
    vs.iter().all(|v| bound.contains(v))
}

fn lit_bound(lit: &Literal, bound: &BTreeSet<VarName>) -> bool {
    let mut vs = BTreeSet::new();
    lit.vars(&mut vs);
    vs.iter().all(|v| bound.contains(v))
}

/// Builds the *syntactic* execution plan for a rule body: orders literals so
/// variables are bound before use, preferring textual order among joins
/// sharing the most bound variables, inserting [`Op::Enumerate`]
/// fallbacks where no positive literal can bind a variable (the paper's
/// active-domain valuation semantics). This is the planner-off baseline and
/// what `explain` renders.
fn build_plan<'a>(rule: &'a Rule, names: &[VarName]) -> Result<Vec<Op<'a>>> {
    let mut remaining: Vec<(usize, &Literal)> = rule.body.iter().enumerate().collect();
    let mut bound: BTreeSet<VarName> = BTreeSet::new();
    let mut plan: Vec<Op> = Vec::new();

    while !remaining.is_empty() {
        // 1. Prefer a positive membership whose set side is evaluable;
        //    among those, prefer the one sharing the most already-bound
        //    variables (joins before cross products).
        let mut picked: Option<usize> = None;
        let mut best_score: isize = -1;
        for (i, (_, lit)) in remaining.iter().enumerate() {
            if let Literal::Member {
                set,
                elem,
                positive: true,
            } = lit
            {
                let evaluable = match set {
                    Term::Rel(_) | Term::Class(_) => true,
                    _ => term_bound(set, &bound),
                };
                if evaluable {
                    let mut vs = BTreeSet::new();
                    elem.vars(&mut vs);
                    let score = vs.iter().filter(|v| bound.contains(*v)).count() as isize;
                    if score > best_score {
                        best_score = score;
                        picked = Some(i);
                    }
                }
            }
        }
        // 2. Else a positive equality with one side evaluable.
        if picked.is_none() {
            for (i, (_, lit)) in remaining.iter().enumerate() {
                if let Literal::Eq {
                    left,
                    right,
                    positive: true,
                } = lit
                {
                    if term_bound(left, &bound) || term_bound(right, &bound) {
                        picked = Some(i);
                        break;
                    }
                }
            }
        }
        // 3. Else a fully-bound filter (negatives, inequalities, choose).
        if picked.is_none() {
            for (i, (_, lit)) in remaining.iter().enumerate() {
                if lit_bound(lit, &bound) {
                    picked = Some(i);
                    break;
                }
            }
        }
        match picked {
            Some(i) => {
                let (at, lit) = remaining.remove(i);
                push_picked(at, lit, &mut bound, &mut plan);
            }
            None => {
                // Stuck: enumerate the lexicographically first unbound
                // variable of the remaining literals (paper semantics —
                // variables range over their type's active-domain
                // interpretation).
                let mut vs = BTreeSet::new();
                for (_, lit) in &remaining {
                    lit.vars(&mut vs);
                }
                let var = vs
                    .into_iter()
                    .find(|v| !bound.contains(v))
                    .expect("stuck plan must have an unbound variable");
                let ty = rule
                    .var_types
                    .get(&var)
                    .cloned()
                    .ok_or_else(|| IqlError::Invalid(format!("untyped variable {var}")))?;
                bound.insert(var.clone());
                let slot = names.binary_search(&var).expect("a body variable");
                plan.push(Op::Enumerate {
                    slot,
                    item: (var, ty),
                });
            }
        }
    }
    // (Head-only vars are the invention variables, handled by the caller.)
    Ok(plan)
}

/// Appends a picked literal to the plan as the op its bound-state calls for,
/// extending `bound` with whatever the op binds. Positive members always
/// become [`Op::Scan`]s — never guards — so every supporting fact stays
/// coverable by a semi-naive delta position; negated literals become
/// [`Op::NegGuard`]s, everything else fully bound (`choose`) an
/// [`Op::Filter`].
fn push_picked<'a>(
    at: usize,
    lit: &'a Literal,
    bound: &mut BTreeSet<VarName>,
    plan: &mut Vec<Op<'a>>,
) {
    match lit {
        Literal::Member {
            set,
            elem,
            positive: true,
        } => {
            set.vars(bound);
            elem.vars(bound);
            plan.push(Op::Scan {
                lit: at,
                src: set,
                pat: elem,
                probe: None,
            });
        }
        Literal::Eq {
            left,
            right,
            positive: true,
        } => {
            let left_src = term_bound(left, bound);
            let (src, pat) = if left_src {
                (left, right)
            } else {
                (right, left)
            };
            pat.vars(bound);
            plan.push(Op::BindEq {
                lit: at,
                left_src,
                src,
                pat,
            });
        }
        neg @ (Literal::Member {
            positive: false, ..
        }
        | Literal::Eq {
            positive: false, ..
        }) => plan.push(Op::NegGuard {
            lit: at,
            guard: neg,
        }),
        other => plan.push(Op::Filter {
            lit: at,
            guard: other,
        }),
    }
}

/// Can matching bind every unbound variable of `pattern`? The matcher binds
/// variables only at `Var` positions reachable through tuple/set
/// constructors; dereference / relation / class subterms are *evaluated*
/// during the match, so they must already be fully bound. Picking a literal
/// whose pattern violates this would silently produce zero valuations — the
/// costed order must never do that in a position the syntactic order
/// wouldn't.
fn pattern_bindable(pattern: &Term, bound: &BTreeSet<VarName>) -> bool {
    match pattern {
        Term::Var(_) | Term::Const(_) => true,
        Term::Tuple(fields) => fields.iter().all(|(_, t)| pattern_bindable(t, bound)),
        Term::Set(elems) => elems.iter().all(|t| pattern_bindable(t, bound)),
        Term::Deref(_) | Term::Rel(_) | Term::Class(_) => term_bound(pattern, bound),
    }
}

/// Is this a positive equality the costed planner may place now? One side
/// must be evaluable and the side [`push_picked`] will use as the pattern
/// must be able to bind its remaining variables.
fn eq_safe(lit: &Literal, bound: &BTreeSet<VarName>) -> bool {
    let Literal::Eq {
        left,
        right,
        positive: true,
    } = lit
    else {
        return false;
    };
    let pattern = if term_bound(left, bound) {
        right
    } else if term_bound(right, bound) {
        left
    } else {
        return false;
    };
    pattern_bindable(pattern, bound)
}

/// Cost ceiling standing in for "unknown but probably small": scans over an
/// already-bound set value (its cardinality is not in the statistics).
const BOUND_SET_COST: usize = 8;

/// Estimated candidate count of scanning `lit` under `bound`, ensuring
/// persistent indexes for every probe-candidate attribute along the way (a
/// built index *is* the distinct-count statistic). `None` if the literal is
/// not an evaluable positive member.
fn member_cost(lit: &Literal, bound: &BTreeSet<VarName>, work: &mut Instance) -> Option<usize> {
    let Literal::Member {
        set,
        elem,
        positive: true,
    } = lit
    else {
        return None;
    };
    if !pattern_bindable(elem, bound) {
        return None; // matching could not bind `elem`'s remaining vars yet
    }
    match set {
        Term::Rel(r) => {
            let len = work.relation_ids(*r).ok()?.len();
            let mut est = len;
            if let Term::Tuple(fields) = elem {
                for (attr, t) in fields {
                    if term_bound(t, bound) {
                        work.ensure_rel_index(*r, *attr);
                        if let Some(e) = work.stats().probe_estimate(*r, *attr) {
                            est = est.min(e);
                        }
                    }
                }
            }
            Some(est)
        }
        Term::Class(p) => work.class(*p).ok().map(|s| s.len()),
        _ if term_bound(set, bound) => Some(BOUND_SET_COST),
        _ => None,
    }
}

/// Builds the cost-based plan: guards as soon as they are fully bound,
/// equalities as soon as one side is evaluable, and otherwise the cheapest
/// evaluable positive member by estimated candidate count (ties broken by
/// textual order, keeping the reordering deterministic and minimal).
/// Returns `None` when the greedy gets stuck — the caller falls back to the
/// syntactic plan, which knows how to enumerate.
fn build_plan_costed<'a>(rule: &'a Rule, work: &mut Instance) -> Option<Vec<Op<'a>>> {
    let mut remaining: Vec<(usize, &'a Literal)> = rule.body.iter().enumerate().collect();
    let mut bound: BTreeSet<VarName> = BTreeSet::new();
    let mut plan: Vec<Op<'a>> = Vec::new();
    while !remaining.is_empty() {
        // 1. Fully-bound non-member literals are free pruning — place all,
        //    textual order. (Members stay scans; see `push_picked`.)
        if let Some(i) = remaining.iter().position(|(_, lit)| {
            !matches!(lit, Literal::Member { positive: true, .. }) && lit_bound(lit, &bound)
        }) {
            let (at, lit) = remaining.remove(i);
            push_picked(at, lit, &mut bound, &mut plan);
            continue;
        }
        // 2. An equality with one side evaluable binds variables for ~free —
        //    but only when its pattern side can actually bind them.
        if let Some(i) = remaining.iter().position(|(_, lit)| eq_safe(lit, &bound)) {
            let (at, lit) = remaining.remove(i);
            push_picked(at, lit, &mut bound, &mut plan);
            continue;
        }
        // 3. Cheapest evaluable positive member.
        let mut picked: Option<(usize, usize)> = None; // (cost, index)
        for (i, (_, lit)) in remaining.iter().enumerate() {
            if let Some(cost) = member_cost(lit, &bound, work) {
                if picked.is_none_or(|(best, _)| cost < best) {
                    picked = Some((cost, i));
                }
            }
        }
        let (_, i) = picked?; // stuck ⇒ syntactic fallback
        let (at, lit) = remaining.remove(i);
        push_picked(at, lit, &mut bound, &mut plan);
    }
    Some(plan)
}

/// Do two plans execute the same ops in the same order? An op is fixed by
/// its body literal, and a bind-equality also by which side it evaluates.
/// (Called before probe selection; probes never differ between equal
/// orders.)
fn same_order(a: &[Op], b: &[Op]) -> bool {
    fn key(op: &Op) -> Option<(usize, bool)> {
        match op {
            Op::Scan { lit, .. } | Op::Filter { lit, .. } | Op::NegGuard { lit, .. } => {
                Some((*lit, false))
            }
            Op::BindEq { lit, left_src, .. } => Some((*lit, *left_src)),
            Op::Enumerate { .. } => None,
        }
    }
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| key(x).is_some() && key(x) == key(y))
}

/// Statically chooses a probe attribute per scan of any plan, costed or
/// syntactic: among the tuple fields whose terms are fully bound by the
/// plan prefix, the most selective per the runtime's shared policy
/// ([`iql_exec::choose_probe`]) — candidates are ensured into the
/// persistent indexes first, so a built index backs every statistic the
/// choice reads and the executor can probe instead of rebuilding a map per
/// step.
fn choose_probes(ops: &mut [Op<'_>], work: &mut Instance) {
    let mut bound: BTreeSet<VarName> = BTreeSet::new();
    for op in ops.iter_mut() {
        if let Op::Scan {
            src: Term::Rel(r),
            pat: Term::Tuple(fields),
            probe,
            ..
        } = op
        {
            // Candidates in attribute order: the shared policy keeps the
            // earliest on ties, so the choice is deterministic. Only an
            // attribute with a column of the relation's rows can be probed.
            let candidates: Vec<Probe> = fields
                .iter()
                .enumerate()
                .filter(|(_, (attr, t))| {
                    term_bound(t, &bound) && work.id_view().rel_column(*r, **attr).is_some()
                })
                .map(|(field, (attr, key))| Probe {
                    attr: *attr,
                    key,
                    field,
                })
                .collect();
            for p in &candidates {
                work.ensure_rel_index(*r, p.attr);
            }
            let stats = work.stats();
            *probe = choose_probe(candidates.into_iter().map(|p| {
                let distinct = stats.attr_distinct(*r, p.attr);
                (p, distinct)
            }));
        }
        match op {
            Op::Scan { src, pat, .. } => {
                src.vars(&mut bound);
                pat.vars(&mut bound);
            }
            Op::BindEq { pat, .. } => pat.vars(&mut bound),
            Op::Enumerate { item: (var, _), .. } => {
                bound.insert(var.clone());
            }
            Op::Filter { .. } | Op::NegGuard { .. } => {}
        }
    }
}

/// Builds the plan one rule executes: syntactic order, replaced by the
/// cost-based order when the planner is on and both orders are
/// enumeration-free (so the `enum_fallbacks` counter cannot drift between
/// the ablation arms), plus static probe choices over ensured persistent
/// indexes whichever order runs. The plan borrows the rule only — the instance is consulted (and
/// its indexes ensured) transiently, so the result stays valid until the
/// statistics epoch moves.
pub(crate) fn plan_rule<'a>(
    cr: &CompiledRule<'a>,
    work: &mut Instance,
    cfg: &EvalConfig,
) -> Result<RulePlan<'a>> {
    let rule = cr.rule;
    let (syntactic, enum_fallbacks) = cr.syntactic.as_ref().map_err(Clone::clone)?;
    let enum_fallbacks = *enum_fallbacks;
    let (mut ops, reordered) = if cfg.use_planner && enum_fallbacks == 0 {
        match build_plan_costed(rule, work) {
            Some(costed) => {
                let reordered = !same_order(&costed, syntactic);
                (costed, reordered)
            }
            None => (syntactic.clone(), false),
        }
    } else {
        (syntactic.clone(), false)
    };
    choose_probes(&mut ops, work);
    let sources = ops
        .iter()
        .filter_map(|op| match op {
            Op::Scan {
                src: Term::Rel(r), ..
            } => Some(PlanSource::Rel(*r)),
            Op::Scan {
                src: Term::Class(p),
                ..
            } => Some(PlanSource::Class(*p)),
            _ => None,
        })
        .collect();
    Ok(RulePlan {
        ops,
        reordered,
        enum_fallbacks,
        sources,
    })
}
