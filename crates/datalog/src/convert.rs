//! Datalog ⇄ IQL conversion (Section 3.4).
//!
//! "It is now clear that each Datalog program can be viewed as a valid IQL
//! program on a relational schema, and that its Datalog and IQL semantics
//! are identical. The same applies to Datalog with negation and
//! inflationary semantics." — this module realizes that embedding by
//! generating IQL source text (schema + program) and running it through the
//! IQL parser/type checker, plus the database/instance conversions needed
//! to compare results (experiment E11).

use crate::ast::{Database, Program, Tuple};
use crate::{DlError, Result};
use iql_model::{Instance, OValue, RelName, Schema};
use std::collections::BTreeMap;
use std::fmt::Write;
use std::sync::Arc;

/// The attribute names used for relation columns in the generated schema.
fn col_attr(i: usize) -> String {
    format!("c{i}")
}

/// Renders a Datalog program as IQL source (schema + program block).
/// `inputs` become the IQL input projection; `outputs` the output.
pub fn to_iql_source(prog: &Program, inputs: &[&str], outputs: &[&str]) -> String {
    let arities = prog.arities();
    let mut src = String::from("schema {\n");
    for (rel, arity) in &arities {
        let cols: Vec<String> = (0..*arity).map(|i| format!("{}: D", col_attr(i))).collect();
        let _ = writeln!(src, "  relation {rel}: [{}];", cols.join(", "));
    }
    src.push_str("}\nprogram {\n");
    if !inputs.is_empty() {
        let _ = writeln!(src, "  input {};", inputs.join(", "));
    }
    let _ = writeln!(src, "  output {};", outputs.join(", "));
    for rule in &prog.rules {
        let mut line = format!("  {}", rule.head);
        if !rule.body.is_empty() {
            line.push_str(" :- ");
            let lits: Vec<String> = rule
                .body
                .iter()
                .map(|l| {
                    if l.positive {
                        l.atom.to_string()
                    } else {
                        format!("not {}", l.atom)
                    }
                })
                .collect();
            line.push_str(&lits.join(", "));
        }
        line.push(';');
        let _ = writeln!(src, "{line}");
    }
    src.push_str("}\n");
    src
}

/// Converts a Datalog program into a type-checked IQL program with the
/// given input/output relations (inflationary semantics on both sides).
pub fn to_iql(prog: &Program, inputs: &[&str], outputs: &[&str]) -> Result<iql_core::Program> {
    let src = to_iql_source(prog, inputs, outputs);
    let unit = iql_core::parser::parse_unit(&src)
        .map_err(|e| DlError::Parse(format!("generated IQL failed to parse: {e}\n{src}")))?;
    unit.program
        .ok_or_else(|| DlError::Parse("generated IQL had no program".into()))
}

/// Converts a Datalog database (restricted to `rels`) into an IQL instance
/// over `schema` (which must declare those relations with `c0…ck` tuple
/// columns, as produced by [`to_iql`]).
pub fn database_to_instance(
    db: &Database,
    rels: &[&str],
    schema: &Arc<Schema>,
) -> Result<Instance> {
    let mut inst = Instance::new(Arc::clone(schema));
    for rel in rels {
        let Some(r) = db.relation(rel) else { continue };
        for tuple in r.iter() {
            inst.insert_unchecked(RelName::new(rel), tuple_to_ovalue(&tuple.to_vec()))
                .map_err(|e| DlError::Parse(e.to_string()))?;
        }
    }
    Ok(inst)
}

/// Converts one Datalog tuple into the IQL tuple o-value convention.
pub fn tuple_to_ovalue(tuple: &Tuple) -> OValue {
    OValue::tuple(
        tuple
            .iter()
            .enumerate()
            .map(|(i, c)| (col_attr(i).as_str().into(), OValue::Const(c.clone())))
            .collect::<Vec<(iql_model::AttrName, OValue)>>(),
    )
}

/// Reads an IQL instance's relations back into a Datalog database
/// (inverting [`database_to_instance`]'s convention).
pub fn instance_to_database(inst: &Instance) -> Result<Database> {
    let mut db = Database::new();
    for rel in inst.schema().relations() {
        db.declare(rel.as_str());
        for v in inst
            .relation(rel)
            .map_err(|e| DlError::Parse(e.to_string()))?
        {
            let OValue::Tuple(fields) = v else {
                return Err(DlError::Parse(format!(
                    "relation {rel} holds non-tuple value {v}"
                )));
            };
            // Columns in c0..ck order.
            let mut cols: BTreeMap<usize, iql_model::Constant> = BTreeMap::new();
            for (a, fv) in fields {
                let name = a.as_str();
                let idx: usize = name
                    .strip_prefix('c')
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| DlError::Parse(format!("unexpected attribute {name}")))?;
                let OValue::Const(c) = fv else {
                    return Err(DlError::Parse(format!("non-constant column in {rel}")));
                };
                cols.insert(idx, c.clone());
            }
            let tuple: Tuple = cols.into_values().collect();
            db.insert(rel.as_str(), tuple)?;
        }
    }
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse_program;
    use crate::engine::{eval, Strategy};
    use iql_core::eval::{run, EvalConfig};
    use iql_model::Constant;

    #[test]
    fn datalog_and_iql_semantics_agree_on_tc() {
        let dl =
            parse_program("Tc(x, y) :- Edge(x, y). Tc(x, z) :- Tc(x, y), Edge(y, z).").unwrap();
        let mut db = Database::new();
        for (s, d) in [(0, 1), (1, 2), (2, 3), (3, 1)] {
            db.insert("Edge", vec![Constant::int(s), Constant::int(d)])
                .unwrap();
        }
        let (dl_out, _) = eval(&dl, &db, Strategy::SemiNaive).unwrap();

        let iql = to_iql(&dl, &["Edge"], &["Tc"]).unwrap();
        let input = database_to_instance(&db, &["Edge"], &iql.input).unwrap();
        let out = run(&iql, &input, &EvalConfig::default()).unwrap();
        let back = instance_to_database(&out.output).unwrap();

        assert_eq!(
            back.relation("Tc").unwrap().len(),
            dl_out.relation("Tc").unwrap().len()
        );
        for t in dl_out.relation("Tc").unwrap().iter() {
            assert!(back.relation("Tc").unwrap().contains(&t.to_vec()));
        }
    }

    #[test]
    fn inflationary_negation_agrees() {
        let dl = parse_program("Win(x) :- Move(x, y), !Win(y).").unwrap();
        let mut db = Database::new();
        for i in 0..4 {
            db.insert("Move", vec![Constant::int(i), Constant::int(i + 1)])
                .unwrap();
        }
        let (dl_out, _) = eval(&dl, &db, Strategy::Inflationary).unwrap();
        let iql = to_iql(&dl, &["Move"], &["Win"]).unwrap();
        let input = database_to_instance(&db, &["Move"], &iql.input).unwrap();
        let out = run(&iql, &input, &EvalConfig::default()).unwrap();
        let back = instance_to_database(&out.output).unwrap();
        assert_eq!(
            back.relation("Win").unwrap().len(),
            dl_out.relation("Win").unwrap().len()
        );
    }

    #[test]
    fn generated_source_is_readable() {
        let dl = parse_program("Tc(x, y) :- Edge(x, y).").unwrap();
        let src = to_iql_source(&dl, &["Edge"], &["Tc"]);
        assert!(src.contains("relation Edge: [c0: D, c1: D];"));
        assert!(src.contains("input Edge;"));
        assert!(src.contains("Tc(x, y) :- Edge(x, y);"));
    }

    #[test]
    fn roundtrip_database_instance() {
        let dl = parse_program("Tc(x, y) :- Edge(x, y).").unwrap();
        let iql = to_iql(&dl, &["Edge"], &["Tc"]).unwrap();
        let mut db = Database::new();
        db.insert("Edge", vec![Constant::str("a"), Constant::str("b")])
            .unwrap();
        let inst = database_to_instance(&db, &["Edge"], &iql.input).unwrap();
        let back = instance_to_database(&inst).unwrap();
        assert_eq!(back.relation("Edge").unwrap().len(), 1);
        assert!(back
            .relation("Edge")
            .unwrap()
            .contains(&[Constant::str("a"), Constant::str("b")]));
    }
}
