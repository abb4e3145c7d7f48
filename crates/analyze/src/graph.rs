//! Position and Skolem dependency graphs of a dependency program — the
//! structures behind the chase-termination classes (weak acyclicity, Fagin
//! et al.; rich acyclicity, Hernich–Schweikardt) and the cost bounds of
//! [`crate::cost`].
//!
//! Every analyzable statement is flattened to Skolemized clauses (nested
//! tgds via `ndl_core::skolem`, SO tgds directly). The **position graph**
//! has one node per relation position `R.i`:
//!
//! - a *regular* edge `p → q` when a universal variable at body position
//!   `p` is copied to head position `q`;
//! - a *special* edge `p ⇒ q` when head position `q` holds a Skolem term
//!   (an invented null). Under the weak-acyclicity rule the edge exists
//!   for body positions of universals that also occur in the head; under
//!   the rich-acyclicity rule it exists for **all** universal body
//!   positions. Rich acyclicity implies weak acyclicity.
//!
//! The **Skolem dependency graph** has one node per Skolem function; an
//! edge `f → g` means values invented by `f` can (through regular-edge
//! propagation) reach a body position feeding `g`'s arguments, i.e. terms
//! can nest. A cycle means unboundedly deep term nesting.
//!
//! Side discipline (`Side::Source`/`Side::Target`) is deliberately
//! **ignored** here: recursive programs violate it (NDL006) yet are
//! exactly the programs whose termination class is interesting. Only
//! per-relation arity consistency gates a statement into the analysis.

use crate::program::{Statement, StmtAst};
use ndl_core::prelude::*;
use ndl_core::skolem::skolemize;
use std::collections::{BTreeMap, BTreeSet};

/// Index of a position node in a [`PositionGraph`].
pub type PosId = usize;

/// An edge of the position graph, with provenance for witness rendering.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PosEdge {
    /// Source position.
    pub from: PosId,
    /// Target position.
    pub to: PosId,
    /// Is this a special (null-creating) edge? Regular edges copy values.
    pub special: bool,
    /// Does the edge belong to the *weak*-acyclicity graph? (All regular
    /// edges do; a special edge does iff its source variable occurs in the
    /// head. Every edge belongs to the rich-acyclicity graph.)
    pub in_wa: bool,
    /// Statement the edge comes from.
    pub stmt: usize,
    /// The variable copied (regular) or Skolem function invented (special).
    pub via: String,
}

/// The position graph of a program.
#[derive(Clone, Debug, Default)]
pub struct PositionGraph {
    /// `PosId → (relation, 0-based position)`.
    pub positions: Vec<(RelId, usize)>,
    /// All edges, deduplicated by `(from, to, special)`; provenance is the
    /// first statement that contributed the edge.
    pub edges: Vec<PosEdge>,
}

impl PositionGraph {
    /// Renders a position as `R.i` (1-based, as in the literature).
    pub fn display_pos(&self, syms: &SymbolTable, p: PosId) -> String {
        let (rel, i) = self.positions[p];
        format!("{}.{}", syms.rel_name(rel), i + 1)
    }

    /// Renders an edge as `S.1 -> R.1` or `S.1 =f=> R.2 (statement 3)`.
    pub fn display_edge(&self, syms: &SymbolTable, e: &PosEdge) -> String {
        let arrow = if e.special {
            format!("={}=>", e.via)
        } else {
            "->".to_string()
        };
        format!(
            "{} {} {} (statement {})",
            self.display_pos(syms, e.from),
            arrow,
            self.display_pos(syms, e.to),
            e.stmt + 1
        )
    }

    /// The edges of the weak- (`wa = true`) or rich-acyclicity graph.
    pub fn graph_edges(&self, wa: bool) -> impl Iterator<Item = &PosEdge> {
        self.edges.iter().filter(move |e| !wa || e.in_wa)
    }

    /// Strongly connected components of the chosen graph, as a component
    /// id per position (Kosaraju, iterative — safe on deep graphs).
    pub fn scc_ids(&self, wa: bool) -> Vec<usize> {
        let mut fwd: Vec<Vec<PosId>> = vec![Vec::new(); self.positions.len()];
        for e in self.graph_edges(wa) {
            fwd[e.from].push(e.to);
        }
        scc_ids(&fwd)
    }

    /// A cycle through a special edge in the chosen graph, if one exists —
    /// the witness that the program is not weakly (`wa = true`) or richly
    /// (`wa = false`) acyclic. The cycle is returned edge-by-edge starting
    /// with the special edge; consecutive edges are adjacent and the last
    /// edge returns to the special edge's source.
    pub fn special_cycle(&self, wa: bool) -> Option<Vec<&PosEdge>> {
        let comp = self.scc_ids(wa);
        let special = self
            .graph_edges(wa)
            .find(|e| e.special && comp[e.from] == comp[e.to])?;
        // Shortest edge path from `special.to` back to `special.from`
        // inside the component (BFS over component-internal edges).
        let mut cycle = vec![special];
        if special.to != special.from {
            let mut adj: Vec<Vec<&PosEdge>> = vec![Vec::new(); self.positions.len()];
            for e in self.graph_edges(wa) {
                adj[e.from].push(e);
            }
            let mut prev: BTreeMap<PosId, &PosEdge> = BTreeMap::new();
            let mut queue = std::collections::VecDeque::from([special.to]);
            'bfs: while let Some(v) = queue.pop_front() {
                for &e in &adj[v] {
                    if comp[e.to] == comp[v] && e.to != special.to && !prev.contains_key(&e.to) {
                        prev.insert(e.to, e);
                        if e.to == special.from {
                            break 'bfs;
                        }
                        queue.push_back(e.to);
                    }
                }
            }
            let mut path = Vec::new();
            let mut at = special.from;
            while at != special.to {
                let e = prev.get(&at)?;
                path.push(*e);
                at = e.from;
            }
            path.reverse();
            cycle.extend(path);
        }
        Some(cycle)
    }

    /// Per-position **rank**: the maximum number of special edges on any
    /// path ending at the position — the depth of null-over-null creation.
    /// `None` when the weak-acyclicity graph has a special cycle (ranks
    /// are unbounded).
    pub fn ranks(&self) -> Option<Vec<usize>> {
        let comp = self.scc_ids(true);
        if self
            .graph_edges(true)
            .any(|e| e.special && comp[e.from] == comp[e.to])
        {
            return None;
        }
        // Longest path by special-edge count over the condensation DAG.
        let ncomp = comp.iter().map(|&c| c + 1).max().unwrap_or(0);
        let mut cedges: BTreeSet<(usize, usize, usize)> = BTreeSet::new(); // (from, to, weight)
        for e in self.graph_edges(true) {
            if comp[e.from] != comp[e.to] || e.special {
                cedges.insert((comp[e.from], comp[e.to], usize::from(e.special)));
            }
        }
        let mut indeg = vec![0usize; ncomp];
        let mut cadj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); ncomp];
        for &(f, t, w) in &cedges {
            indeg[t] += 1;
            cadj[f].push((t, w));
        }
        let mut rank = vec![0usize; ncomp];
        let mut ready: Vec<usize> = (0..ncomp).filter(|&c| indeg[c] == 0).collect();
        while let Some(c) = ready.pop() {
            for &(t, w) in &cadj[c] {
                rank[t] = rank[t].max(rank[c] + w);
                indeg[t] -= 1;
                if indeg[t] == 0 {
                    ready.push(t);
                }
            }
        }
        Some(
            self.positions
                .iter()
                .enumerate()
                .map(|(p, _)| rank[comp[p]])
                .collect(),
        )
    }
}

/// A Skolem function of the program, with the graph-derived metrics.
#[derive(Clone, Debug)]
pub struct SkolemFunc {
    /// The interned function symbol.
    pub func: FuncId,
    /// Statement that introduces it.
    pub stmt: usize,
    /// Distinct body positions feeding the function's arguments.
    pub fan_in: usize,
    /// Distinct positions (under regular-edge propagation) where terms of
    /// this function may end up.
    pub fan_out: usize,
}

/// The Skolem dependency graph: nodes are Skolem functions, an edge
/// `f → g` means `f`-terms can reach an argument of `g` (term nesting).
#[derive(Clone, Debug, Default)]
pub struct SkolemGraph {
    /// The functions, in statement order.
    pub funcs: Vec<SkolemFunc>,
    /// Edges as index pairs into `funcs`.
    pub edges: Vec<(usize, usize)>,
}

/// One Skolemized clause, with the statement it came from.
#[derive(Clone, Debug)]
pub struct ClauseView {
    /// Index of the originating statement.
    pub stmt: usize,
    /// The flattened clause.
    pub clause: SoClause,
}

/// The semantic view of a program: its analyzable clauses and both
/// dependency graphs.
#[derive(Clone, Debug, Default)]
pub struct ProgramGraphs {
    /// Skolemized clauses of every analyzable statement.
    pub clauses: Vec<ClauseView>,
    /// The position graph.
    pub positions: PositionGraph,
    /// The Skolem dependency graph.
    pub skolem: SkolemGraph,
    /// Total number of statements in the program (analyzable or not).
    pub statements: usize,
    /// Statements that entered the analysis (parsed, arity-consistent).
    pub analyzed: Vec<usize>,
}

impl ProgramGraphs {
    /// Builds the semantic view of `stmts`. A statement participates when
    /// it parsed and its relations agree in arity with earlier analyzable
    /// statements; side-discipline violations (NDL006) do **not** exclude
    /// it — see the module docs. Nested tgds are Skolemized here (fresh
    /// function symbols are interned into `syms`).
    pub fn build(syms: &mut SymbolTable, stmts: &[Statement]) -> ProgramGraphs {
        let mut g = ProgramGraphs {
            statements: stmts.len(),
            ..ProgramGraphs::default()
        };
        let mut arity = Arities::default();
        let mut func_stmt: BTreeMap<FuncId, usize> = BTreeMap::new();
        for stmt in stmts {
            let Some(ast) = &stmt.ast else { continue };
            let (so, funcs) = match ast {
                StmtAst::Tgd(t) => {
                    if !well_formed_ignoring_sides(|s, e| t.check(s, e)) {
                        continue;
                    }
                    let (so, info) = skolemize(t, syms);
                    let funcs = info.funcs.clone();
                    (so, funcs)
                }
                StmtAst::So(t) => {
                    if !well_formed_ignoring_sides(|s, e| t.check(s, e)) {
                        continue;
                    }
                    (t.clone(), t.funcs.clone())
                }
                StmtAst::Fact(f) => {
                    if arity.admit([(f.rel, f.args.len())]) {
                        g.analyzed.push(stmt.index);
                    }
                    continue;
                }
                StmtAst::Egd(_) => {
                    // Egds neither copy values to new positions nor invent
                    // nulls; they are irrelevant to the position graph.
                    g.analyzed.push(stmt.index);
                    continue;
                }
            };
            let uses = so.clauses.iter().flat_map(|c| {
                let body = c.body.iter().map(|a| (a.rel, a.args.len()));
                body.chain(c.head.iter().map(|a| (a.rel, a.args.len())))
            });
            if !arity.admit(uses) {
                continue;
            }
            g.analyzed.push(stmt.index);
            for f in funcs {
                func_stmt.insert(f, stmt.index);
            }
            for c in &so.clauses {
                g.clauses.push(ClauseView {
                    stmt: stmt.index,
                    clause: c.clone(),
                });
            }
        }
        g.build_position_graph(syms);
        g.build_skolem_graph(&func_stmt, syms);
        g
    }

    fn pos_id(
        positions: &mut Vec<(RelId, usize)>,
        ids: &mut BTreeMap<(RelId, usize), PosId>,
        rel: RelId,
        i: usize,
    ) -> PosId {
        *ids.entry((rel, i)).or_insert_with(|| {
            positions.push((rel, i));
            positions.len() - 1
        })
    }

    fn build_position_graph(&mut self, syms: &SymbolTable) {
        let mut positions = Vec::new();
        let mut ids = BTreeMap::new();
        // Dedup key → index into `edges`.
        let mut seen: BTreeMap<(PosId, PosId, bool), usize> = BTreeMap::new();
        let mut edges: Vec<PosEdge> = Vec::new();
        for cv in &self.clauses {
            let c = &cv.clause;
            // Body positions per universal variable.
            let mut body_pos: BTreeMap<VarId, BTreeSet<PosId>> = BTreeMap::new();
            for a in &c.body {
                for (i, &v) in a.args.iter().enumerate() {
                    let p = Self::pos_id(&mut positions, &mut ids, a.rel, i);
                    body_pos.entry(v).or_default().insert(p);
                }
            }
            // Universals that occur in the head as themselves.
            let mut head_vars: BTreeSet<VarId> = BTreeSet::new();
            for ta in &c.head {
                for t in &ta.args {
                    if let Term::Var(v) = t {
                        head_vars.insert(*v);
                    }
                }
            }
            let mut push = |e: PosEdge| match seen.get(&(e.from, e.to, e.special)) {
                Some(&i) => edges[i].in_wa |= e.in_wa,
                None => {
                    seen.insert((e.from, e.to, e.special), edges.len());
                    edges.push(e);
                }
            };
            for ta in &c.head {
                for (i, t) in ta.args.iter().enumerate() {
                    let q = Self::pos_id(&mut positions, &mut ids, ta.rel, i);
                    match t {
                        Term::Var(x) => {
                            for &p in body_pos.get(x).into_iter().flatten() {
                                push(PosEdge {
                                    from: p,
                                    to: q,
                                    special: false,
                                    in_wa: true,
                                    stmt: cv.stmt,
                                    via: syms.var_name(*x).to_string(),
                                });
                            }
                        }
                        Term::App(f, _) => {
                            // A null lands at q: special edges from every
                            // universal body position (rich-acyclicity
                            // rule); the edge also belongs to the
                            // weak-acyclicity graph when its variable is
                            // copied to the head.
                            let via = syms.func_name(*f).to_string();
                            for (&x, ps) in &body_pos {
                                for &p in ps {
                                    push(PosEdge {
                                        from: p,
                                        to: q,
                                        special: true,
                                        in_wa: head_vars.contains(&x),
                                        stmt: cv.stmt,
                                        via: via.clone(),
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        self.positions = PositionGraph { positions, edges };
    }

    fn build_skolem_graph(&mut self, func_stmt: &BTreeMap<FuncId, usize>, _syms: &SymbolTable) {
        // O(f): head positions where a term mentioning f lands.
        // I(f): body positions of the variables inside f's arguments.
        let mut occ: BTreeMap<FuncId, BTreeSet<PosId>> = BTreeMap::new();
        let mut input: BTreeMap<FuncId, BTreeSet<PosId>> = BTreeMap::new();
        let ids: BTreeMap<(RelId, usize), PosId> = self
            .positions
            .positions
            .iter()
            .enumerate()
            .map(|(i, &rp)| (rp, i))
            .collect();
        for cv in &self.clauses {
            let c = &cv.clause;
            let mut body_pos: BTreeMap<VarId, BTreeSet<PosId>> = BTreeMap::new();
            for a in &c.body {
                for (i, &v) in a.args.iter().enumerate() {
                    if let Some(&p) = ids.get(&(a.rel, i)) {
                        body_pos.entry(v).or_default().insert(p);
                    }
                }
            }
            for ta in &c.head {
                for (i, t) in ta.args.iter().enumerate() {
                    let Some(&q) = ids.get(&(ta.rel, i)) else {
                        continue;
                    };
                    let mut funcs = BTreeSet::new();
                    let mut vars = BTreeSet::new();
                    collect_term(t, &mut funcs, &mut vars);
                    for f in funcs {
                        occ.entry(f).or_default().insert(q);
                        let inp = input.entry(f).or_default();
                        for v in &vars {
                            inp.extend(body_pos.get(v).into_iter().flatten());
                        }
                    }
                }
            }
        }
        let mut funcs: Vec<FuncId> = occ.keys().copied().collect();
        funcs.sort_by_key(|f| (func_stmt.get(f).copied().unwrap_or(usize::MAX), *f));
        // One regular-edge adjacency for every search; `reached[p] == i`
        // marks position `p` as reachable from function `i`'s terms.
        let npos = self.positions.positions.len();
        let mut adj: Vec<Vec<PosId>> = vec![Vec::new(); npos];
        for e in self.positions.edges.iter().filter(|e| !e.special) {
            adj[e.from].push(e.to);
        }
        let inputs: Vec<Vec<PosId>> = funcs
            .iter()
            .map(|f| {
                input
                    .get(f)
                    .map_or_else(Vec::new, |s| s.iter().copied().collect())
            })
            .collect();
        let mut reached = vec![usize::MAX; npos];
        let mut stack: Vec<PosId> = Vec::new();
        let mut nodes = Vec::new();
        let mut edges = Vec::new();
        for (i, &f) in funcs.iter().enumerate() {
            let mut fan_out = 0;
            for &p in &occ[&f] {
                reached[p] = i;
                fan_out += 1;
                stack.push(p);
            }
            while let Some(v) = stack.pop() {
                for &w in &adj[v] {
                    if reached[w] != i {
                        reached[w] = i;
                        fan_out += 1;
                        stack.push(w);
                    }
                }
            }
            nodes.push(SkolemFunc {
                func: f,
                stmt: func_stmt.get(&f).copied().unwrap_or(0),
                fan_in: inputs[i].len(),
                fan_out,
            });
            for (j, gin) in inputs.iter().enumerate() {
                if gin.iter().any(|&p| reached[p] == i) {
                    edges.push((i, j));
                }
            }
        }
        self.skolem = SkolemGraph {
            funcs: nodes,
            edges,
        };
    }

    /// Graphviz DOT rendering of both graphs: the position graph (special
    /// edges dashed, labeled with the Skolem function) and the Skolem
    /// dependency graph as a second cluster.
    pub fn to_dot(&self, syms: &SymbolTable) -> String {
        let mut out = String::from("digraph analysis {\n  rankdir=LR;\n");
        out.push_str("  subgraph cluster_positions {\n    label=\"position graph\";\n");
        for (i, _) in self.positions.positions.iter().enumerate() {
            out.push_str(&format!(
                "    p{} [label=\"{}\", shape=box];\n",
                i,
                self.positions.display_pos(syms, i)
            ));
        }
        for e in &self.positions.edges {
            if e.special {
                out.push_str(&format!(
                    "    p{} -> p{} [style=dashed, label=\"{}\"{}];\n",
                    e.from,
                    e.to,
                    e.via,
                    if e.in_wa { "" } else { ", color=gray" }
                ));
            } else {
                out.push_str(&format!("    p{} -> p{};\n", e.from, e.to));
            }
        }
        out.push_str("  }\n");
        out.push_str("  subgraph cluster_skolem {\n    label=\"Skolem dependency graph\";\n");
        for (i, f) in self.skolem.funcs.iter().enumerate() {
            out.push_str(&format!(
                "    f{} [label=\"{} (in {}, out {})\", shape=ellipse];\n",
                i,
                syms.func_name(f.func),
                f.fan_in,
                f.fan_out
            ));
        }
        for &(a, b) in &self.skolem.edges {
            out.push_str(&format!("    f{a} -> f{b};\n"));
        }
        out.push_str("  }\n}\n");
        out
    }
}

/// Strongly connected components of a graph given as forward adjacency
/// lists, as a component id per node (Kosaraju, iterative — safe on deep
/// graphs). Ids are numbered in topological order of the condensation:
/// every edge between components goes from a smaller id to a larger one.
pub(crate) fn scc_ids(fwd: &[Vec<usize>]) -> Vec<usize> {
    let n = fwd.len();
    let mut back: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (v, outs) in fwd.iter().enumerate() {
        for &w in outs {
            back[w].push(v);
        }
    }
    // Pass 1: finish order on the forward graph.
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    for start in 0..n {
        if seen[start] {
            continue;
        }
        let mut stack = vec![(start, 0usize)];
        seen[start] = true;
        while let Some(&mut (v, ref mut i)) = stack.last_mut() {
            if *i < fwd[v].len() {
                let w = fwd[v][*i];
                *i += 1;
                if !seen[w] {
                    seen[w] = true;
                    stack.push((w, 0));
                }
            } else {
                order.push(v);
                stack.pop();
            }
        }
    }
    // Pass 2: reverse graph in reverse finish order.
    let mut comp = vec![usize::MAX; n];
    let mut next = 0;
    for &start in order.iter().rev() {
        if comp[start] != usize::MAX {
            continue;
        }
        let mut stack = vec![start];
        comp[start] = next;
        while let Some(v) = stack.pop() {
            for &w in &back[v] {
                if comp[w] == usize::MAX {
                    comp[w] = next;
                    stack.push(w);
                }
            }
        }
        next += 1;
    }
    comp
}

/// Is a statement well-formed apart from side discipline? Validation runs
/// against a private schema, and `SideMismatch` (NDL006) is tolerated —
/// recursive programs necessarily read their own target relations, and
/// their termination class is exactly what the analysis must determine.
fn well_formed_ignoring_sides(check: impl FnOnce(&mut Schema, &mut Vec<CoreError>)) -> bool {
    let mut schema = Schema::new();
    let mut errs = Vec::new();
    check(&mut schema, &mut errs);
    errs.iter()
        .all(|e| matches!(e, CoreError::SideMismatch { .. }))
}

/// The relation arities fixed by the statements admitted so far, indexed
/// by relation id. Admitting a statement allocates nothing once the table
/// covers its relations.
#[derive(Default)]
struct Arities {
    /// `RelId → arity`, [`Arities::UNSET`] for relations no admitted
    /// statement uses.
    of: Vec<usize>,
    /// Relations the statement being admitted set first (undone when it
    /// is refused).
    added: Vec<RelId>,
}

impl Arities {
    const UNSET: usize = usize::MAX;

    /// Admits a statement using relations at the arities `uses` lists,
    /// unless a use disagrees with an admitted statement or with another
    /// use of the same statement — then nothing is recorded (a statement
    /// must not half-register).
    fn admit(&mut self, uses: impl IntoIterator<Item = (RelId, usize)>) -> bool {
        self.added.clear();
        for (r, n) in uses {
            let i = r.index();
            if i >= self.of.len() {
                self.of.resize(i + 1, Self::UNSET);
            }
            if self.of[i] == Self::UNSET {
                self.of[i] = n;
                self.added.push(r);
            } else if self.of[i] != n {
                for r in self.added.drain(..) {
                    self.of[r.index()] = Self::UNSET;
                }
                return false;
            }
        }
        true
    }
}

fn collect_term(t: &Term, funcs: &mut BTreeSet<FuncId>, vars: &mut BTreeSet<VarId>) {
    match t {
        Term::Var(v) => {
            vars.insert(*v);
        }
        Term::App(f, args) => {
            funcs.insert(*f);
            for a in args {
                collect_term(a, funcs, vars);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::parse_program;

    fn graphs(src: &str) -> (SymbolTable, ProgramGraphs) {
        let mut syms = SymbolTable::new();
        let (stmts, _) = parse_program(&mut syms, src);
        let g = ProgramGraphs::build(&mut syms, &stmts);
        (syms, g)
    }

    #[test]
    fn running_example_graph_is_acyclic() {
        let (syms, g) = graphs(
            "forall x1 (S1(x1) -> exists y1 (forall x2 (S2(x2) -> R2(y1,x2)) & \
             forall x3 (S3(x1,x3) -> (R3(y1,x3) & forall x4 (S4(x3,x4) -> \
             exists y2 (R4(y2,x4)))))))\n",
        );
        assert!(g.positions.special_cycle(true).is_none());
        assert!(g.positions.special_cycle(false).is_none());
        let ranks = g.positions.ranks().unwrap();
        assert_eq!(ranks.iter().max(), Some(&1));
        // Two Skolem functions (y1, y2); f = y1 lands at R2.1 and R3.1.
        assert_eq!(g.skolem.funcs.len(), 2);
        let f = &g.skolem.funcs[0];
        assert_eq!(f.fan_out, 2);
        // x1 is fed from S1.1 (clause for σ2) and S3.1 (clause for σ3).
        assert_eq!(f.fan_in, 2);
        assert!(g.skolem.edges.is_empty());
        let dot = g.to_dot(&syms);
        assert!(dot.contains("cluster_positions"));
        assert!(dot.contains("style=dashed"));
    }

    #[test]
    fn propagating_recursion_is_not_weakly_acyclic() {
        // E(x,y) -> exists z E(y,z): y occurs in the head, so E.2 ⇒ E.2 is
        // special in the WA graph too, and E.1 ⇒ E.2 → E.1 closes a cycle.
        let (syms, g) = graphs("E(x,y) -> exists z E(y,z)\n");
        let cyc = g.positions.special_cycle(true).expect("cycle");
        assert!(cyc[0].special);
        let rendered: Vec<String> = cyc
            .iter()
            .map(|e| g.positions.display_edge(&syms, e))
            .collect();
        assert!(rendered.iter().any(|s| s.contains("=f")), "{rendered:?}");
        assert!(g.positions.ranks().is_none());
        assert!(g.positions.special_cycle(false).is_some());
    }

    #[test]
    fn blind_recursion_is_weakly_but_not_richly_acyclic() {
        // T(x) -> exists y T(y): x does not occur in the head, so the WA
        // graph has no special edge at all — but the RA rule adds the
        // special self-loop T.1 ⇒ T.1 (the oblivious chase diverges).
        let (_syms, g) = graphs("T(x) -> exists y T(y)\n");
        assert!(g.positions.special_cycle(true).is_none());
        let cyc = g.positions.special_cycle(false).expect("RA cycle");
        assert_eq!(cyc[0].from, cyc[0].to);
        // Ranks follow the weak-acyclicity graph (the literature's rank):
        // with no WA special edge the rank is 0 even though nulls land in
        // T.1 under the oblivious semantics.
        assert_eq!(g.positions.ranks().unwrap(), vec![0]);
    }

    #[test]
    fn wa_not_ra_program() {
        // R(x,y) -> exists z R(x,z): x occurs in the head, y does not.
        // WA graph: regular R.1→R.1, special R.1⇒R.2 — no cycle.
        // RA graph adds special R.2⇒R.2 — a special self-loop.
        let (_syms, g) = graphs("R(x,y) -> exists z R(x,z)\n");
        assert!(g.positions.special_cycle(true).is_none());
        assert!(g.positions.special_cycle(false).is_some());
        assert!(g.positions.ranks().is_some());
    }

    #[test]
    fn arity_conflicts_exclude_statements() {
        let (_syms, g) = graphs("S(x) -> R(x)\nS(x,y) -> Q(x)\n");
        // Statement 2 conflicts with S/1 and is skipped.
        assert_eq!(g.analyzed, vec![0]);
        assert_eq!(g.statements, 2);
    }

    #[test]
    fn side_conflicts_do_not_exclude() {
        let (_syms, g) = graphs("S(x) -> R(x)\nR(x) -> T(x)\n");
        assert_eq!(g.analyzed, vec![0, 1]);
        assert!(g.positions.special_cycle(false).is_none());
    }

    #[test]
    fn skolem_nesting_shows_as_graph_edge() {
        // f-terms land in T.1; T.1 feeds g via the second statement.
        let (syms, g) = graphs("S(x) -> exists y T(y)\nT(x) -> exists z U(x,z)\n");
        assert_eq!(g.skolem.funcs.len(), 2);
        assert_eq!(g.skolem.edges, vec![(0, 1)]);
        let names: Vec<&str> = g
            .skolem
            .funcs
            .iter()
            .map(|f| syms.func_name(f.func))
            .collect();
        assert_eq!(names.len(), 2);
    }
}
