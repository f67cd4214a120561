//! Flat Datalog: tuples of constants, atoms, rules, databases — with a
//! small text parser.
//!
//! A [`Database`] stores its relations interned; [`Database::relation`]
//! lends one out as a [`Relation`] view, whose [`TupleRef`]s resolve
//! constants from the database's value store as they are read.
//!
//! Conventions of the textual syntax:
//!
//! * relation names start with an uppercase letter (`Edge`, `Tc`);
//! * variables start with a lowercase letter (`x`, `y2`);
//! * constants are quoted strings or integers;
//! * rules end with `.`; negation is `!Atom(...)`.
//!
//! ```text
//! Tc(x, y) :- Edge(x, y).
//! Tc(x, z) :- Tc(x, y), Edge(y, z).
//! ```

use crate::interned::{constant, lookup_constant, IdDatabase};
use crate::{DlError, Result};
use iql_model::relation::with_id_tuple;
use iql_model::IdRelation;
use iql_model::{Constant, ValueId, ValueStore};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A Datalog tuple.
pub type Tuple = Vec<Constant>;

/// A read-only view of one relation of a [`Database`], borrowed from it:
/// the relation's interned tuples and the database's value store. It
/// copies nothing; each constant is resolved only as a tuple is read.
/// Tuples come in insertion order.
#[derive(Clone, Copy)]
pub struct Relation<'a> {
    ids: &'a IdRelation,
    store: &'a ValueStore,
}

impl<'a> Relation<'a> {
    /// Membership test. A constant the database has never seen is in no
    /// tuple.
    pub fn contains(&self, t: &[Constant]) -> bool {
        with_id_tuple(t.iter().map(|c| lookup_constant(self.store, c)), |ids| {
            self.ids.contains(ids)
        })
        .unwrap_or(false)
    }

    /// Iterates the tuples, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = TupleRef<'a>> + 'a {
        let store = self.store;
        self.ids.iter().map(move |ids| TupleRef { ids, store })
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// Set equality: the same tuples, whatever the insertion order or store.
impl PartialEq for Relation<'_> {
    fn eq(&self, other: &Relation<'_>) -> bool {
        same_tuples(self.ids, self.store, other.ids, other.store)
    }
}

impl Eq for Relation<'_> {}

impl fmt::Debug for Relation<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// One tuple of a [`Relation`], read in place.
#[derive(Clone, Copy)]
pub struct TupleRef<'a> {
    ids: &'a [ValueId],
    store: &'a ValueStore,
}

impl<'a> TupleRef<'a> {
    /// The constants, in column order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &'a Constant> + 'a {
        let store = self.store;
        self.ids.iter().map(move |&id| constant(store, id))
    }

    /// The constants, copied into an owned tuple.
    pub fn to_vec(&self) -> Tuple {
        self.iter().cloned().collect()
    }
}

impl fmt::Debug for TupleRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Do `a` (over store `sa`) and `b` (over store `sb`) hold the same
/// tuples?
fn same_tuples(a: &IdRelation, sa: &ValueStore, b: &IdRelation, sb: &ValueStore) -> bool {
    a.len() == b.len()
        && a.iter().all(|t| {
            let ids = t.iter().map(|&id| lookup_constant(sb, constant(sa, id)));
            with_id_tuple(ids, |ids| b.contains(ids)).unwrap_or(false)
        })
}

/// A database: named relations of constant tuples, stored interned.
/// Inserting interns each constant into the database's value store (the
/// interner IQL instances use too), so a loaded
/// database is ready to evaluate on; a relation is read through a view,
/// [`Database::relation`], that borrows it and resolves constants as they
/// are read. Cloning shares the store and every relation, copying each only
/// on its first write.
#[derive(Clone, Default)]
pub struct Database {
    store: ValueStore,
    ids: IdDatabase,
}

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// The relation named `r` (`None` if absent), as a view borrowing it.
    pub fn relation(&self, r: &str) -> Option<Relation<'_>> {
        let ids = self.ids.relation(r)?;
        Some(Relation {
            ids,
            store: &self.store,
        })
    }

    /// Creates relation `r`, empty, if absent.
    pub fn declare(&mut self, r: &str) {
        self.ids.declare(r);
    }

    /// Inserts a tuple into relation `r` (created if needed); returns
    /// whether it was new.
    pub fn insert(&mut self, r: &str, t: Tuple) -> Result<bool> {
        self.ids.insert_constants(r, t, &mut self.store)
    }

    /// All relation names present.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.ids.relations().map(|(name, _)| name)
    }

    /// Total tuple count.
    pub fn size(&self) -> usize {
        self.ids.size()
    }

    /// A database with this one's contents that evaluation can write: it
    /// shares every relation and interns new constants into a fresh top of
    /// its own store (see [`ValueStore::fork`]), in O(#relations).
    pub(crate) fn fork(&self) -> Database {
        Database {
            store: self.store.fork(),
            ids: self.ids.clone(),
        }
    }

    /// The value store and the interned relations, to evaluate on.
    pub(crate) fn parts_mut(&mut self) -> (&mut ValueStore, &mut IdDatabase) {
        (&mut self.store, &mut self.ids)
    }

    /// Number of interned constants.
    #[cfg(test)]
    pub(crate) fn store_len(&self) -> usize {
        self.store.len()
    }

    /// Do both databases hold relation `r` in the same shared storage?
    #[cfg(test)]
    pub(crate) fn shares_relation(&self, other: &Database, r: &str) -> bool {
        match (self.ids.shared(r), other.ids.shared(r)) {
            (Some(a), Some(b)) => std::sync::Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// Contents equality: the same relation names holding the same tuple sets,
/// whatever the stores' numbering.
impl PartialEq for Database {
    fn eq(&self, other: &Database) -> bool {
        self.ids.count() == other.ids.count()
            && self
                .ids
                .relations()
                .zip(other.ids.relations())
                .all(|((an, a), (bn, b))| an == bn && same_tuples(a, &self.store, b, &other.store))
    }
}

impl Eq for Database {}

impl fmt::Debug for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.names().map(|name| (name, self.relation(name))))
            .finish()
    }
}

/// A term: variable or constant.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DlTerm {
    /// A variable.
    Var(String),
    /// A constant.
    Const(Constant),
}

impl fmt::Display for DlTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DlTerm::Var(v) => write!(f, "{v}"),
            DlTerm::Const(c) => write!(f, "{c}"),
        }
    }
}

/// An atom `R(t1, …, tk)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Atom {
    /// The relation name.
    pub rel: String,
    /// The argument terms.
    pub args: Vec<DlTerm>,
}

impl Atom {
    /// Builds an atom.
    pub fn new(rel: &str, args: Vec<DlTerm>) -> Atom {
        Atom {
            rel: rel.to_string(),
            args,
        }
    }

    /// The variables of the atom.
    pub fn vars(&self) -> BTreeSet<&str> {
        self.args
            .iter()
            .filter_map(|t| match t {
                DlTerm::Var(v) => Some(v.as_str()),
                DlTerm::Const(_) => None,
            })
            .collect()
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.rel)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")
    }
}

/// A body literal: an atom, possibly negated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lit {
    /// The atom.
    pub atom: Atom,
    /// `false` for `!R(…)`.
    pub positive: bool,
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.positive {
            write!(f, "!")?;
        }
        write!(f, "{}", self.atom)
    }
}

/// A rule `H :- L1, …, Lk.`
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    /// The head atom.
    pub head: Atom,
    /// The body literals.
    pub body: Vec<Lit>,
}

impl Rule {
    /// Safety: every head variable and every negated-atom variable must
    /// occur in a positive body atom.
    pub fn check_safe(&self) -> Result<()> {
        let positive: BTreeSet<&str> = self
            .body
            .iter()
            .filter(|l| l.positive)
            .flat_map(|l| l.atom.vars())
            .collect();
        for v in self.head.vars() {
            if !positive.contains(v) {
                return Err(DlError::Unsafe {
                    var: v.to_string(),
                    rule: self.to_string(),
                });
            }
        }
        for l in &self.body {
            if !l.positive {
                for v in l.atom.vars() {
                    if !positive.contains(v) {
                        return Err(DlError::Unsafe {
                            var: v.to_string(),
                            rule: self.to_string(),
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.head)?;
        if !self.body.is_empty() {
            write!(f, " :- ")?;
            for (i, l) in self.body.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{l}")?;
            }
        }
        write!(f, ".")
    }
}

/// A Datalog program.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Program {
    /// The rules, in source order.
    pub rules: Vec<Rule>,
}

impl Program {
    /// Builds a program, checking rule safety and arity consistency.
    pub fn new(rules: Vec<Rule>) -> Result<Program> {
        let mut arities: BTreeMap<&str, usize> = BTreeMap::new();
        for r in &rules {
            r.check_safe()?;
            for atom in std::iter::once(&r.head).chain(r.body.iter().map(|l| &l.atom)) {
                match arities.get(atom.rel.as_str()) {
                    Some(&a) if a != atom.args.len() => {
                        return Err(DlError::Arity {
                            rel: atom.rel.clone(),
                            expected: a,
                            found: atom.args.len(),
                        })
                    }
                    _ => {
                        arities.insert(&atom.rel, atom.args.len());
                    }
                }
            }
        }
        Ok(Program { rules })
    }

    /// Relation names written by some rule (the IDB).
    pub fn idb(&self) -> BTreeSet<&str> {
        self.rules.iter().map(|r| r.head.rel.as_str()).collect()
    }

    /// Relation names only read (the EDB).
    pub fn edb(&self) -> BTreeSet<&str> {
        let idb = self.idb();
        self.rules
            .iter()
            .flat_map(|r| r.body.iter())
            .map(|l| l.atom.rel.as_str())
            .filter(|r| !idb.contains(r))
            .collect()
    }

    /// Does any rule use negation?
    pub fn has_negation(&self) -> bool {
        self.rules
            .iter()
            .any(|r| r.body.iter().any(|l| !l.positive))
    }

    /// Arity of each relation mentioned.
    pub fn arities(&self) -> BTreeMap<String, usize> {
        let mut out = BTreeMap::new();
        for r in &self.rules {
            for atom in std::iter::once(&r.head).chain(r.body.iter().map(|l| &l.atom)) {
                out.insert(atom.rel.clone(), atom.args.len());
            }
        }
        out
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.rules {
            writeln!(f, "{r}")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

/// Parses a textual Datalog program (see module docs for the conventions).
pub fn parse_program(src: &str) -> Result<Program> {
    let mut rules = Vec::new();
    let mut rest = src.trim_start();
    // Strip comments line-wise first.
    let cleaned: String = rest
        .lines()
        .map(|l| match l.find("//") {
            Some(i) => &l[..i],
            None => l,
        })
        .collect::<Vec<_>>()
        .join("\n");
    rest = cleaned.trim_start();
    while !rest.is_empty() {
        let Some(dot) = find_rule_end(rest) else {
            return Err(DlError::Parse(format!(
                "missing `.` after `{}`",
                truncate(rest)
            )));
        };
        let (rule_src, tail) = rest.split_at(dot);
        rules.push(parse_rule(rule_src.trim())?);
        rest = tail[1..].trim_start();
    }
    Program::new(rules)
}

fn find_rule_end(s: &str) -> Option<usize> {
    let mut in_str = false;
    for (i, c) in s.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '.' if !in_str => return Some(i),
            _ => {}
        }
    }
    None
}

fn truncate(s: &str) -> String {
    s.chars().take(30).collect()
}

fn parse_rule(src: &str) -> Result<Rule> {
    let (head_src, body_src) = match src.find(":-") {
        Some(i) => (&src[..i], Some(&src[i + 2..])),
        None => (src, None),
    };
    let head = parse_atom(head_src.trim())?;
    let mut body = Vec::new();
    if let Some(b) = body_src {
        for part in split_atoms(b) {
            let part = part.trim();
            let (positive, atom_src) = match part.strip_prefix('!') {
                Some(rest) => (false, rest.trim()),
                None => (true, part),
            };
            body.push(Lit {
                atom: parse_atom(atom_src)?,
                positive,
            });
        }
    }
    Ok(Rule { head, body })
}

/// Splits body atoms at top-level commas (not inside parens/strings).
fn split_atoms(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0;
    let mut in_str = false;
    let mut start = 0;
    for (i, c) in s.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '(' if !in_str => depth += 1,
            ')' if !in_str => depth -= 1,
            ',' if !in_str && depth == 0 => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&s[start..]);
    out
}

fn parse_atom(src: &str) -> Result<Atom> {
    let Some(open) = src.find('(') else {
        return Err(DlError::Parse(format!(
            "expected `(` in atom `{}`",
            truncate(src)
        )));
    };
    if !src.ends_with(')') {
        return Err(DlError::Parse(format!(
            "expected `)` at end of atom `{}`",
            truncate(src)
        )));
    }
    let rel = src[..open].trim();
    if rel.is_empty() || !rel.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
        return Err(DlError::Parse(format!(
            "relation names start uppercase; got `{}`",
            truncate(rel)
        )));
    }
    let args_src = &src[open + 1..src.len() - 1];
    let mut args = Vec::new();
    if !args_src.trim().is_empty() {
        for part in split_atoms(args_src) {
            args.push(parse_term(part.trim())?);
        }
    }
    Ok(Atom::new(rel, args))
}

fn parse_term(src: &str) -> Result<DlTerm> {
    if src.starts_with('"') && src.ends_with('"') && src.len() >= 2 {
        return Ok(DlTerm::Const(Constant::str(&src[1..src.len() - 1])));
    }
    if let Ok(n) = src.parse::<i64>() {
        return Ok(DlTerm::Const(Constant::int(n)));
    }
    if src
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_lowercase() || c == '_')
        && src.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
    {
        return Ok(DlTerm::Var(src.to_string()));
    }
    Err(DlError::Parse(format!("bad term `{}`", truncate(src))))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_tc() {
        let p = parse_program(
            r#"
            Tc(x, y) :- Edge(x, y).
            Tc(x, z) :- Tc(x, y), Edge(y, z).
            "#,
        )
        .unwrap();
        assert_eq!(p.rules.len(), 2);
        assert_eq!(p.idb(), BTreeSet::from(["Tc"]));
        assert_eq!(p.edb(), BTreeSet::from(["Edge"]));
        assert!(!p.has_negation());
    }

    #[test]
    fn parse_negation_and_constants() {
        let p = parse_program(r#"Out(x) :- Node(x), !Bad(x), Tag(x, "keep", 42)."#).unwrap();
        assert!(p.has_negation());
        let r = &p.rules[0];
        assert_eq!(r.body.len(), 3);
        assert!(!r.body[1].positive);
        assert_eq!(r.body[2].atom.args[1], DlTerm::Const(Constant::str("keep")));
        assert_eq!(r.body[2].atom.args[2], DlTerm::Const(Constant::int(42)));
    }

    #[test]
    fn unsafe_rules_rejected() {
        let err = parse_program("Out(x, y) :- Node(x).").unwrap_err();
        assert!(matches!(err, DlError::Unsafe { .. }));
        let err2 = parse_program("Out(x) :- Node(x), !Bad(y).").unwrap_err();
        assert!(matches!(err2, DlError::Unsafe { .. }));
    }

    #[test]
    fn arity_conflicts_rejected() {
        let err = parse_program("Out(x) :- Edge(x, y). Out(x, y) :- Edge(x, y).").unwrap_err();
        assert!(matches!(err, DlError::Arity { .. }));
    }

    #[test]
    fn facts_parse() {
        let p = parse_program(r#"Start("a")."#).unwrap();
        assert_eq!(p.rules[0].body.len(), 0);
    }

    #[test]
    fn relation_and_database_basics() {
        let mut db = Database::new();
        db.insert("R", vec![Constant::int(1), Constant::int(2)])
            .unwrap();
        assert!(!db
            .insert("R", vec![Constant::int(1), Constant::int(2)])
            .unwrap());
        let err = db.insert("R", vec![Constant::int(1)]).unwrap_err();
        assert!(matches!(err, DlError::Arity { .. }));
        assert_eq!(db.size(), 1);
        let r = db.relation("R").unwrap();
        assert_eq!(r.len(), 1);
        assert!(r.contains(&[Constant::int(1), Constant::int(2)]));
        assert!(!r.contains(&[Constant::int(2), Constant::int(1)]));
        assert!(!r.contains(&[Constant::int(1), Constant::str("unseen")]));
        assert!(!r.contains(&[Constant::int(1)]));
        assert!(db.relation("Nope").is_none());
    }

    #[test]
    fn views_follow_writes_and_keep_insertion_order() {
        let rows = |db: &Database| -> Vec<Tuple> {
            db.relation("R")
                .unwrap()
                .iter()
                .map(|t| t.to_vec())
                .collect()
        };
        let mut db = Database::new();
        db.declare("Empty");
        db.insert("R", vec![Constant::int(2), Constant::str("x")])
            .unwrap();
        assert_eq!(rows(&db), vec![vec![Constant::int(2), Constant::str("x")]]);
        // The next read sees a new tuple last.
        db.insert("R", vec![Constant::int(1), Constant::int(2)])
            .unwrap();
        assert_eq!(rows(&db)[1], vec![Constant::int(1), Constant::int(2)]);
        assert!(db.relation("Empty").unwrap().is_empty());
        assert_eq!(db.names().collect::<Vec<_>>(), vec!["Empty", "R"]);
        // A clone's view ignores later writes to the original, new
        // constants and new relations included.
        let snapshot = db.clone();
        let before = rows(&snapshot);
        let view = snapshot.relation("R").unwrap();
        let fresh = [Constant::int(3), Constant::str("fresh")];
        db.insert("R", fresh.to_vec()).unwrap();
        db.insert("Other", vec![Constant::str("new")]).unwrap();
        assert_eq!(view.len(), 2);
        assert!(!view.contains(&fresh));
        assert_eq!(rows(&snapshot), before);
        assert!(snapshot.relation("Other").is_none());
        assert_eq!(db.relation("R").unwrap().len(), 3);
        assert!(db.relation("R").unwrap().contains(&fresh));
        assert_ne!(snapshot, db);
        // A tuple reads in place and prints as its list of constants.
        let first = view.iter().next().unwrap();
        assert_eq!(first.iter().len(), 2);
        assert_eq!(format!("{first:?}"), format!("{:?}", before[0]));
    }

    #[test]
    fn equality_is_by_contents_across_pools() {
        let rows = [(1, "a"), (2, "b"), (3, "a")];
        let mut fwd = Database::new();
        for (n, s) in rows {
            fwd.insert("R", vec![Constant::int(n), Constant::str(s)])
                .unwrap();
        }
        // Reverse order interns the constants under different ids.
        let mut rev = Database::new();
        rev.insert("Pad", vec![Constant::str("zz")]).unwrap();
        for (n, s) in rows.iter().rev() {
            rev.insert("R", vec![Constant::int(*n), Constant::str(s)])
                .unwrap();
        }
        assert_ne!(fwd, rev, "different relation names");
        fwd.insert("Pad", vec![Constant::str("zz")]).unwrap();
        assert_eq!(fwd, rev);
        assert_eq!(fwd.relation("R"), rev.relation("R"));
        // An empty relation counts as a name.
        rev.declare("Empty");
        assert_ne!(fwd, rev);
        fwd.declare("Empty");
        assert_eq!(fwd, rev);
        rev.insert("R", vec![Constant::int(4), Constant::str("a")])
            .unwrap();
        assert_ne!(fwd, rev);
    }

    #[test]
    fn idb_edb_and_arities() {
        let p = parse_program("Tc(x, y) :- Edge(x, y). Out(x) :- Tc(x, y), !Block(x).").unwrap();
        assert_eq!(p.idb(), BTreeSet::from(["Out", "Tc"]));
        assert_eq!(p.edb(), BTreeSet::from(["Block", "Edge"]));
        let ar = p.arities();
        assert_eq!(ar["Tc"], 2);
        assert_eq!(ar["Out"], 1);
        assert_eq!(ar["Block"], 1);
    }

    #[test]
    fn display_roundtrip() {
        let p = parse_program("Tc(x, z) :- Tc(x, y), Edge(y, z).").unwrap();
        let txt = p.to_string();
        let p2 = parse_program(&txt).unwrap();
        assert_eq!(p, p2);
    }
}
