//! Pinned runs of the benchmark's two IQL programs: single-source
//! reachability and the graph-to-objects transformation of Example 1.2,
//! on a seeded layered graph and a seeded random graph, at one and four
//! workers, with semi-naive evaluation on and off.
//!
//! Each run pins what a change to the evaluator's write path must keep:
//! the rows of the written relations in insertion order, the number of
//! interned nodes, the deterministic counters and the fresh plans. The
//! rows are pinned as a digest of their resolved values; a mismatch
//! prints the run and every pinned figure.

use iql::model::ValueReader;
use iql::prelude::*;
use iql_testkit::{random_digraph, Rng};
use std::sync::Arc;

const EDGE_SCHEMA: &str = "schema { relation Edge: [src: D, dst: D]; }";

fn reach(source: &str) -> String {
    format!(
        r#"
schema {{
  relation Edge:  [src: D, dst: D];
  relation Reach: [node: D];
}}
program {{
  input Edge;
  output Reach;
  Reach(y) :- Edge("{source}", y);
  Reach(z) :- Reach(y), Edge(y, z);
}}
"#
    )
}

/// Example 1.2: a graph of named nodes becomes objects whose values hold
/// their successors.
const OBJECTS: &str = r#"
schema {
  relation Edge: [src: D, dst: D];
  relation Node: [node: D];
  relation Rp:   [node: D, p: P, pp: Pp];
  class P:  [name: D, succs: {P}];
  class Pp: {P};
}
program {
  input Edge;
  output P;
  stage {
    Node(x) :- Edge(x, y);
    Node(x) :- Edge(y, x);
  }
  stage {
    Rp(x, p, pp) :- Node(x);
  }
  stage {
    pp^(q) :- Rp(x, p, pp), Rp(y, q, qq), Edge(x, y);
  }
  stage {
    p^ = [name: x, succs: pp^] :- Rp(x, p, pp);
  }
}
"#;

/// `layers` layers of `width` nodes; each node outside the last layer has
/// `degree` distinct successors in the next layer, drawn from `seed`.
fn layered(layers: usize, width: usize, degree: usize, seed: u64) -> Vec<(String, String)> {
    let mut rng = Rng::new(seed);
    let mut edges = Vec::new();
    for u in 0..(layers - 1) * width {
        let next = (u / width + 1) * width;
        let mut picks: Vec<usize> = Vec::new();
        while picks.len() < degree {
            let v = next + rng.below(width);
            if !picks.contains(&v) {
                picks.push(v);
            }
        }
        picks.sort_unstable();
        edges.extend(
            picks
                .into_iter()
                .map(|v| (format!("v{u}"), format!("v{v}"))),
        );
    }
    edges
}

fn load(edges: &[(String, String)]) -> Instance {
    let schema = Arc::new(parse_unit(EDGE_SCHEMA).unwrap().schema);
    let mut inst = Instance::new(schema);
    for (s, d) in edges {
        let t = OValue::tuple([("src", OValue::str(s)), ("dst", OValue::str(d))]);
        inst.insert(RelName::new("Edge"), t).unwrap();
    }
    inst
}

/// FNV-1a over the rows of each of `rels` in `inst`, in insertion order,
/// resolved to their values.
fn rows_digest(inst: &Instance, rels: &[&str]) -> (usize, u64) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut n = 0;
    for r in rels {
        for id in inst.relation_ids(RelName::new(r)).unwrap() {
            n += 1;
            for b in format!("{r}({})\n", inst.store().resolve(id)).bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    (n, h)
}

/// One pinned run: `(rows, row digest, store nodes, counters, plans_fresh)`,
/// with the counters rendered by `Debug`.
type Pin = (usize, u64, usize, &'static str, usize);

#[test]
fn benchmark_programs_are_pinned() {
    let layered = load(&layered(6, 8, 2, 11));
    let random = load(&random_digraph(24, 60, 12));
    // (program, graph, written relations, pins with semi-naive on, off)
    let cases: [(String, &Instance, &[&str], Pin, Pin); 6] = [
        (reach("v0"), &layered, &["Reach"], PINS[0], PINS[1]),
        (reach("v5"), &layered, &["Reach"], PINS[2], PINS[3]),
        (reach("v0"), &random, &["Reach"], PINS[4], PINS[5]),
        (reach("v7"), &random, &["Reach"], PINS[6], PINS[7]),
        (
            OBJECTS.to_string(),
            &layered,
            &["Node", "Rp"],
            PINS[8],
            PINS[9],
        ),
        (
            OBJECTS.to_string(),
            &random,
            &["Node", "Rp"],
            PINS[10],
            PINS[11],
        ),
    ];
    for (i, (text, input, rels, on, off)) in cases.iter().enumerate() {
        let prog = parse_unit(text).unwrap().program.unwrap();
        for (seminaive, want) in [(true, on), (false, off)] {
            for threads in [1, 4] {
                let cfg = EvalConfig::builder()
                    .threads(threads)
                    .seminaive(seminaive)
                    .build();
                let out = run(&prog, input, &cfg).unwrap();
                let (n, digest) = rows_digest(&out.full, rels);
                let counters = format!("{:?}", out.report.counters());
                let got = (
                    n,
                    digest,
                    out.full.store().len(),
                    counters.as_str(),
                    out.report.plans_fresh,
                );
                assert_eq!(
                    got, *want,
                    "case {i}, semi-naive {seminaive}, {threads} thread(s)"
                );
            }
        }
    }
}

/// Recorded before the relation-head write path took rows: every figure
/// is the same at one and four workers.
const PINS: [Pin; 12] = [
    (
        22,
        16835879684623168133,
        149,
        "(6, 0, 22, 0, 0, {(0, 0): 2, (0, 1): 32})",
        10,
    ),
    (
        22,
        982674347297784829,
        149,
        "(6, 0, 22, 0, 0, {(0, 0): 2, (0, 1): 32})",
        10,
    ),
    (
        22,
        16157364238147363819,
        149,
        "(6, 0, 22, 0, 0, {(0, 0): 2, (0, 1): 32})",
        10,
    ),
    (
        22,
        7210349614325004063,
        149,
        "(6, 0, 22, 0, 0, {(0, 0): 2, (0, 1): 32})",
        10,
    ),
    (
        24,
        17417133023595727719,
        108,
        "(8, 0, 24, 0, 0, {(0, 0): 1, (0, 1): 27})",
        12,
    ),
    (
        24,
        13550052718639499159,
        108,
        "(8, 0, 24, 0, 0, {(0, 0): 1, (0, 1): 27})",
        12,
    ),
    (
        24,
        17125168748540358465,
        108,
        "(7, 0, 24, 0, 0, {(0, 0): 3, (0, 1): 27})",
        10,
    ),
    (
        24,
        1893381346517703503,
        108,
        "(7, 0, 24, 0, 0, {(0, 0): 3, (0, 1): 27})",
        10,
    ),
    (
        94,
        11510796111793780240,
        399,
        "(8, 94, 221, 0, 0, {(0, 0): 80, (0, 1): 80, (1, 0): 47, (2, 0): 80, (3, 0): 47})",
        8,
    ),
    (
        94,
        11510796111793780240,
        399,
        "(8, 94, 221, 0, 0, {(0, 0): 80, (0, 1): 80, (1, 0): 47, (2, 0): 80, (3, 0): 47})",
        8,
    ),
    (
        48,
        3848673483082239375,
        227,
        "(8, 48, 132, 0, 0, {(0, 0): 60, (0, 1): 60, (1, 0): 24, (2, 0): 60, (3, 0): 24})",
        8,
    ),
    (
        48,
        3848673483082239375,
        227,
        "(8, 48, 132, 0, 0, {(0, 0): 60, (0, 1): 60, (1, 0): 24, (2, 0): 60, (3, 0): 24})",
        8,
    ),
];
