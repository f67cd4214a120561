//! Differential test of the Datalog engine against breadth-first search.
//!
//! Seeded: the `iql_testkit` generator builds random and layered digraphs,
//! and every closure and complement the engine derives must equal the one
//! graph search computes. Transitive closure runs under `Naive` and
//! `SemiNaive` in four shapes — left-linear, right-linear, doubly recursive
//! (two recursive atoms, so a semi-naive round has two delta positions in
//! one rule) and in place (the head is the stored input relation itself) —
//! with a nullary head beside them; unreachability runs under `Stratified`;
//! each at 1 and 4 worker threads. Each loaded database is reused for many
//! evaluations, so the test also checks that no evaluation leaks into its
//! input.

use iql::datalog::{eval_with, parse_program, Database, Strategy};
use iql::model::Constant;
use iql_testkit::Rng;
use std::collections::{BTreeSet, VecDeque};

/// A digraph as successor lists over nodes `0..n`.
type Graph = Vec<BTreeSet<usize>>;

/// `n` nodes with `m` random edges (self loops and cycles allowed).
fn random_graph(g: &mut Rng, n: usize, m: usize) -> Graph {
    let mut graph = vec![BTreeSet::new(); n];
    for _ in 0..m {
        let (u, v) = (g.below(n), g.below(n));
        graph[u].insert(v);
    }
    graph
}

/// `layers` layers of `width` nodes; each node links to up to `degree`
/// nodes of the next layer.
fn layered_graph(g: &mut Rng, layers: usize, width: usize, degree: usize) -> Graph {
    let mut graph = vec![BTreeSet::new(); layers * width];
    for layer in 0..layers - 1 {
        for i in 0..width {
            for _ in 0..degree {
                let v = (layer + 1) * width + g.below(width);
                graph[layer * width + i].insert(v);
            }
        }
    }
    graph
}

fn name(u: usize) -> Constant {
    Constant::str(&format!("n{u}"))
}

fn load(graph: &Graph) -> Database {
    let mut db = Database::new();
    for (u, succ) in graph.iter().enumerate() {
        for &v in succ {
            db.insert("Edge", vec![name(u), name(v)]).unwrap();
        }
    }
    db
}

/// Nodes reachable from `s` over one or more edges.
fn reachable(graph: &Graph, s: usize) -> BTreeSet<usize> {
    let mut seen = BTreeSet::new();
    let mut queue: VecDeque<usize> = graph[s].iter().copied().collect();
    while let Some(u) = queue.pop_front() {
        if seen.insert(u) {
            queue.extend(graph[u].iter().copied());
        }
    }
    seen
}

/// The rows of relation `rel` in `db`, as sorted tuples.
fn rows(db: &Database, rel: &str) -> BTreeSet<Vec<Constant>> {
    db.relation(rel)
        .map(|r| r.iter().map(|t| t.to_vec()).collect())
        .unwrap_or_default()
}

fn graphs() -> Vec<Graph> {
    let mut g = Rng::new(0x1989);
    let mut out = Vec::new();
    for (n, m) in [(1, 1), (6, 0), (12, 20), (25, 40), (30, 90)] {
        out.push(random_graph(&mut g, n, m));
    }
    for (layers, width, degree) in [(2, 1, 1), (4, 5, 2), (6, 8, 2), (5, 10, 3)] {
        out.push(layered_graph(&mut g, layers, width, degree));
    }
    out
}

#[test]
fn transitive_closure_matches_graph_search() {
    // (shape, program, the relation that ends up holding the closure)
    let shapes = [
        (
            "left-linear",
            "Tc(x, y) :- Edge(x, y). Tc(x, z) :- Tc(x, y), Edge(y, z). Cyclic() :- Tc(x, x).",
            "Tc",
        ),
        (
            "right-linear",
            "Tc(x, y) :- Edge(x, y). Tc(x, z) :- Edge(x, y), Tc(y, z). Cyclic() :- Tc(x, x).",
            "Tc",
        ),
        (
            "doubly recursive",
            "Tc(x, y) :- Edge(x, y). Tc(x, z) :- Tc(x, y), Tc(y, z). Cyclic() :- Tc(x, x).",
            "Tc",
        ),
        (
            "in place",
            "Edge(x, z) :- Edge(x, y), Edge(y, z). Cyclic() :- Edge(x, x).",
            "Edge",
        ),
    ];
    for (gi, graph) in graphs().iter().enumerate() {
        let db = load(graph);
        let want: BTreeSet<Vec<Constant>> = (0..graph.len())
            .flat_map(|u| reachable(graph, u).into_iter().map(move |v| (u, v)))
            .map(|(u, v)| vec![name(u), name(v)])
            .collect();
        // The nullary `Cyclic` holds its one empty tuple iff some node
        // reaches itself.
        let cyclic: BTreeSet<Vec<Constant>> = (0..graph.len())
            .any(|u| reachable(graph, u).contains(&u))
            .then(Vec::new)
            .into_iter()
            .collect();
        for (shape, text, rel) in shapes {
            let prog = parse_program(text).unwrap();
            for strategy in [Strategy::Naive, Strategy::SemiNaive] {
                for threads in [1, 4] {
                    let (out, stats) = eval_with(&prog, &db, strategy, threads).unwrap();
                    assert!(stats.trip.is_none());
                    let case = format!("graph {gi}, {shape}, {strategy}, {threads} threads");
                    assert_eq!(rows(&out, rel), want, "{case}");
                    assert_eq!(rows(&out, "Cyclic"), cyclic, "{case}");
                }
            }
        }
        assert_eq!(db, load(graph), "graph {gi}: the input is unchanged");
    }
}

#[test]
fn unreachable_nodes_match_graph_search() {
    let mut g = Rng::new(0x5150);
    let mut cases = graphs();
    cases.push(layered_graph(&mut g, 8, 12, 2));
    for (gi, graph) in cases.iter().enumerate() {
        let db = load(graph);
        let nodes: BTreeSet<usize> = graph
            .iter()
            .enumerate()
            .filter(|(_, succ)| !succ.is_empty())
            .flat_map(|(u, succ)| std::iter::once(u).chain(succ.iter().copied()))
            .collect();
        // One loaded database serves every source.
        let sources = (0..24).map(|_| g.below(graph.len()));
        for s in sources {
            let text = format!(
                r#"
                Start("n{s}").
                Reach(y) :- Start(x), Edge(x, y).
                Reach(y) :- Reach(x), Edge(x, y).
                Node(x) :- Edge(x, y).
                Node(y) :- Edge(x, y).
                Unreach(x) :- Node(x), !Reach(x).
                "#
            );
            let prog = parse_program(&text).unwrap();
            let reach = reachable(graph, s);
            let want: BTreeSet<Vec<Constant>> = nodes
                .iter()
                .filter(|u| !reach.contains(u))
                .map(|&u| vec![name(u)])
                .collect();
            let reach_rows: BTreeSet<Vec<Constant>> =
                reach.iter().map(|&u| vec![name(u)]).collect();
            for threads in [1, 4] {
                let (out, stats) = eval_with(&prog, &db, Strategy::Stratified, threads).unwrap();
                assert!(stats.trip.is_none());
                assert_eq!(
                    rows(&out, "Unreach"),
                    want,
                    "graph {gi}, source {s}, {threads} threads"
                );
                assert_eq!(rows(&out, "Reach"), reach_rows);
            }
        }
        assert_eq!(db, load(graph), "graph {gi}: the input is unchanged");
        assert!(db.names().all(|n| n == "Edge"), "no relation was added");
    }
}
