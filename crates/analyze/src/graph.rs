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

use crate::footprint::{collect_funcs, collect_vars};
use crate::program::{Statement, StmtAst};
use ndl_core::hash::FxHashMap;
use ndl_core::prelude::*;
use ndl_core::skolem::{skolemize_clauses, SkolemInfo};

/// Index of a position node in a [`PositionGraph`].
pub type PosId = usize;

/// "No position" / "no statement" in the dense id tables of this crate.
pub(crate) const NONE: usize = usize::MAX;

/// What a position-graph edge carries from its body position to its head
/// position: the variable a regular edge copies, or the Skolem function a
/// special edge invents a null through. Names are resolved only when an
/// edge is rendered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Via {
    /// The universal variable copied by a regular edge.
    Var(VarId),
    /// The Skolem function (outermost, of the head term) of a special edge.
    Func(FuncId),
}

impl Via {
    /// The variable or function name.
    pub fn name(self, syms: &SymbolTable) -> &str {
        match self {
            Via::Var(v) => syms.var_name(v),
            Via::Func(f) => syms.func_name(f),
        }
    }
}

/// An edge of the position graph, with provenance for witness rendering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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
    pub via: Via,
}

/// The position graph of a program.
///
/// Positions are numbered in order of first mention, and all positions of
/// a relation are numbered together when it is first mentioned (its arity
/// is fixed by then), so `R.i` is `base(R) + i`: one dense table from
/// relation id to base position serves every pass.
#[derive(Clone, Debug, Default)]
pub struct PositionGraph {
    /// `PosId → (relation, 0-based position)`.
    pub positions: Vec<(RelId, usize)>,
    /// All edges, deduplicated by `(from, to, special)`; provenance is the
    /// first statement that contributed the edge.
    pub edges: Vec<PosEdge>,
    /// `RelId →` the relation's first position, [`NONE`] when no clause
    /// mentions the relation.
    base: Vec<PosId>,
}

/// One of the two acyclicity graphs of a [`PositionGraph`] — the weak
/// (`wa`) or the rich one — as out-edge lists with its strongly connected
/// components, built once and shared by every question asked of it.
#[derive(Clone, Debug)]
pub struct AcyclicityGraph {
    /// Is this the weak-acyclicity graph?
    pub wa: bool,
    /// Per position, its out-edges in the graph as indices into
    /// [`PositionGraph::edges`], in edge order.
    out: Csr,
    /// Component id per position, numbered in topological order of the
    /// condensation: every edge between components goes from a smaller
    /// id to a larger one.
    pub comp: Vec<usize>,
}

impl PositionGraph {
    /// The id of position `i` (0-based) of `rel`, if a clause mentions the
    /// relation.
    pub fn pos(&self, rel: RelId, i: usize) -> Option<PosId> {
        match self.base.get(rel.index()) {
            Some(&b) if b != NONE => Some(b + i),
            _ => None,
        }
    }

    /// Numbers the `arity` positions of `rel`, if the relation is new.
    fn admit(&mut self, rel: RelId, arity: usize) {
        let r = rel.index();
        if r >= self.base.len() {
            self.base.resize(r + 1, NONE);
        }
        if self.base[r] == NONE {
            self.base[r] = self.positions.len();
            self.positions.extend((0..arity).map(|i| (rel, i)));
        }
    }

    /// Renders a position as `R.i` (1-based, as in the literature).
    pub fn display_pos(&self, syms: &SymbolTable, p: PosId) -> String {
        let (rel, i) = self.positions[p];
        format!("{}.{}", syms.rel_name(rel), i + 1)
    }

    /// Renders an edge as `S.1 -> R.1` or `S.1 =f=> R.2 (statement 3)`.
    pub fn display_edge(&self, syms: &SymbolTable, e: &PosEdge) -> String {
        let arrow = if e.special {
            format!("={}=>", e.via.name(syms))
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

    /// The weak- (`wa = true`) or rich-acyclicity graph with its strongly
    /// connected components.
    pub fn acyclicity_graph(&self, wa: bool) -> AcyclicityGraph {
        let pairs: Vec<(u32, u32)> = self
            .edges
            .iter()
            .enumerate()
            .filter(|(_, e)| !wa || e.in_wa)
            .map(|(i, e)| (e.from as u32, i as u32))
            .collect();
        let out = Csr::new(self.positions.len(), &pairs);
        let comp = scc_ids(&out, |x| self.edges[x as usize].to);
        AcyclicityGraph { wa, out, comp }
    }

    /// A cycle through a special edge in `g`, if one exists — the witness
    /// that the program is not weakly (`g.wa`) or richly acyclic. The
    /// cycle is returned edge-by-edge starting with the special edge;
    /// consecutive edges are adjacent and the last edge returns to the
    /// special edge's source.
    pub fn special_cycle(&self, g: &AcyclicityGraph) -> Option<Vec<PosEdge>> {
        let comp = &g.comp;
        let special = *self
            .graph_edges(g.wa)
            .find(|e| e.special && comp[e.from] == comp[e.to])?;
        // Shortest edge path from `special.to` back to `special.from`
        // inside the component (BFS over component-internal edges).
        let mut cycle = vec![special];
        if special.to != special.from {
            let mut prev = vec![NONE; self.positions.len()];
            let mut queue = vec![special.to];
            let mut head = 0;
            'bfs: while let Some(&v) = queue.get(head) {
                head += 1;
                for &x in g.out.row(v) {
                    let e = &self.edges[x as usize];
                    if comp[e.to] == comp[v] && e.to != special.to && prev[e.to] == NONE {
                        prev[e.to] = x as usize;
                        if e.to == special.from {
                            break 'bfs;
                        }
                        queue.push(e.to);
                    }
                }
            }
            let start = cycle.len();
            let mut at = special.from;
            while at != special.to {
                let e = self.edges[*prev.get(at).filter(|&&x| x != NONE)?];
                cycle.push(e);
                at = e.from;
            }
            cycle[start..].reverse();
        }
        Some(cycle)
    }

    /// Per-position **rank**: the maximum number of special edges on any
    /// path ending at the position — the depth of null-over-null creation
    /// — over the weak-acyclicity graph `wa`. `None` when it has a special
    /// cycle (ranks are unbounded).
    pub fn ranks(&self, wa: &AcyclicityGraph) -> Option<Vec<usize>> {
        debug_assert!(wa.wa, "ranks are taken over the weak-acyclicity graph");
        let comp = &wa.comp;
        if self
            .graph_edges(true)
            .any(|e| e.special && comp[e.from] == comp[e.to])
        {
            return None;
        }
        // Longest path by special-edge count over the condensation DAG.
        // Component ids are topologically ordered, so visiting positions
        // by component id finalizes a component's rank before any edge
        // leaves it.
        let ncomp = comp.iter().map(|&c| c + 1).max().unwrap_or(0);
        let by_comp: Vec<(u32, u32)> = comp
            .iter()
            .enumerate()
            .map(|(p, &c)| (c as u32, p as u32))
            .collect();
        let members = Csr::new(ncomp, &by_comp);
        let mut rank = vec![0usize; ncomp];
        for c in 0..ncomp {
            for &p in members.row(c) {
                for &x in wa.out.row(p as usize) {
                    let e = &self.edges[x as usize];
                    let d = comp[e.to];
                    if d != c {
                        rank[d] = rank[d].max(rank[c] + usize::from(e.special));
                    }
                }
            }
        }
        Some(comp.iter().map(|&c| rank[c]).collect())
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
    /// Skolemized clauses of every analyzable statement, in statement
    /// order.
    pub clauses: Vec<ClauseView>,
    /// The position graph.
    pub positions: PositionGraph,
    /// The Skolem dependency graph.
    pub skolem: SkolemGraph,
    /// Total number of statements in the program (analyzable or not).
    pub statements: usize,
    /// Statements that entered the analysis (parsed, arity-consistent).
    pub analyzed: Vec<usize>,
    /// Facts and tgds refused for their arities, in statement order: a
    /// relation an earlier statement fixed at another arity, or a tgd
    /// using one relation at two arities. A chase without the refused
    /// statement would not be the program's chase, so the chase front
    /// ends report the first one as an error (`ndl lint` reports each as
    /// NDL005).
    pub arity_clashes: Vec<ArityClash>,
}

/// A statement refused for the arity at which it uses a relation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArityClash {
    /// The statement index. A fact relation passed to
    /// [`crate::ChaseAnalysis::analyze_with_facts`] stands for the fact
    /// statements after the program's: the `i`-th is numbered
    /// `statements + i`.
    pub stmt: usize,
    /// What the statement is, and what it clashes with.
    pub kind: ClashKind,
    /// The relation.
    pub rel: RelId,
    /// The arity fixed first: by an earlier statement, or for
    /// [`ClashKind::WithinTgd`] by this tgd's earlier use.
    pub expected: usize,
    /// The arity of the refused use.
    pub found: usize,
}

/// The statement an [`ArityClash`] refused, and what fixed the arity it
/// disagrees with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClashKind {
    /// A fact against an earlier statement.
    Fact,
    /// A tgd against an earlier statement.
    Tgd,
    /// A tgd using one relation at two arities.
    WithinTgd,
}

impl ArityClash {
    /// The error the chase front ends report (`ndl chase`, the daemon,
    /// `ndl incr`): the 1-based statement and both arities.
    pub fn message(&self, syms: &SymbolTable, path: &str) -> String {
        let rel = syms.rel_name(self.rel);
        let (stmt, found, expected) = (self.stmt + 1, self.found, self.expected);
        match self.kind {
            ClashKind::Fact => format!(
                "{path} statement {stmt}: this {rel} fact has arity {found}, but an earlier \
                 statement uses {rel} with arity {expected}"
            ),
            ClashKind::Tgd => format!(
                "{path} statement {stmt}: this tgd uses {rel} with arity {found}, but an \
                 earlier statement uses {rel} with arity {expected}"
            ),
            ClashKind::WithinTgd => format!(
                "{path} statement {stmt}: this tgd uses {rel} with arity {expected} and with \
                 arity {found}"
            ),
        }
    }
}

impl ProgramGraphs {
    /// Builds the semantic view of `stmts`. A statement participates when
    /// it parsed and its relations agree in arity with earlier analyzable
    /// statements; side-discipline violations (NDL006) do **not** exclude
    /// it — see the module docs. Nested tgds are Skolemized here (fresh
    /// function symbols are interned into `syms`).
    pub fn build(syms: &mut SymbolTable, stmts: &[Statement]) -> ProgramGraphs {
        ProgramGraphs::build_with_facts(syms, stmts, &[])
    }

    /// [`ProgramGraphs::build`] for `stmts` followed by fact statements
    /// over the `(relation, arity)` pairs of `facts`, in that order, each
    /// pair standing for every fact of its relation. Facts contribute
    /// nothing to the graphs but their arity admission, and that depends
    /// only on the pair, so the result equals building the full program
    /// with its fact statements — except that `statements` and
    /// `analyzed` count `stmts` alone.
    pub(crate) fn build_with_facts(
        syms: &mut SymbolTable,
        stmts: &[Statement],
        facts: &[(RelId, usize)],
    ) -> ProgramGraphs {
        let mut g = ProgramGraphs {
            statements: stmts.len(),
            ..ProgramGraphs::default()
        };
        let mut arity = Arities::default();
        let mut checker = Checker::default();
        // `FuncId →` the last statement declaring the function.
        let mut func_stmt: Vec<usize> = Vec::new();
        // The clauses of the statement being admitted.
        let mut clauses: Vec<SoClause> = Vec::new();
        for stmt in stmts {
            let Some(ast) = &stmt.ast else { continue };
            clauses.clear();
            let info;
            let funcs = match ast {
                StmtAst::Tgd(t) => {
                    if let Err(clash) = checker.well_formed_ignoring_sides(|s, e| t.check(s, e)) {
                        g.arity_clashes.extend(clash.map(|c| ArityClash {
                            stmt: stmt.index,
                            ..c
                        }));
                        continue;
                    }
                    info = SkolemInfo::for_nested(t, syms);
                    skolemize_clauses(t, &info, &mut clauses);
                    &info.funcs
                }
                StmtAst::So(t) => {
                    if let Err(clash) = checker.well_formed_ignoring_sides(|s, e| t.check(s, e)) {
                        g.arity_clashes.extend(clash.map(|c| ArityClash {
                            stmt: stmt.index,
                            ..c
                        }));
                        continue;
                    }
                    clauses.extend(t.clauses.iter().cloned());
                    &t.funcs
                }
                StmtAst::Fact(f) => {
                    match arity.admit_fact(stmt.index, f.rel, f.args.len()) {
                        Ok(()) => g.analyzed.push(stmt.index),
                        Err(clash) => g.arity_clashes.push(clash),
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
            let uses = clauses.iter().flat_map(|c| {
                let body = c.body.iter().map(|a| (a.rel, a.args.len()));
                body.chain(c.head.iter().map(|a| (a.rel, a.args.len())))
            });
            if let Err(clash) = arity.admit(uses) {
                g.arity_clashes.push(ArityClash {
                    stmt: stmt.index,
                    kind: ClashKind::Tgd,
                    ..clash
                });
                continue;
            }
            g.analyzed.push(stmt.index);
            for f in funcs {
                if f.index() >= func_stmt.len() {
                    func_stmt.resize(f.index() + 1, NONE);
                }
                func_stmt[f.index()] = stmt.index;
            }
            let views = clauses.drain(..).map(|clause| ClauseView {
                stmt: stmt.index,
                clause,
            });
            g.clauses.extend(views);
        }
        for (i, &(rel, n)) in facts.iter().enumerate() {
            if let Err(clash) = arity.admit_fact(stmts.len() + i, rel, n) {
                g.arity_clashes.push(clash);
            }
        }
        g.build_position_graph();
        g.build_skolem_graph(&func_stmt);
        g
    }

    fn build_position_graph(&mut self) {
        // Number the positions in order of first mention.
        let mut pg = PositionGraph::default();
        for c in self.clauses.iter().map(|cv| &cv.clause) {
            for (rel, arity) in c
                .body
                .iter()
                .map(|a| (a.rel, a.args.len()))
                .chain(c.head.iter().map(|a| (a.rel, a.args.len())))
            {
                pg.admit(rel, arity);
            }
        }
        // Dedup key `(from, to, special)` → index into `edges`.
        let mut seen: FxHashMap<(PosId, PosId, bool), usize> = FxHashMap::default();
        let mut edges: Vec<PosEdge> = Vec::new();
        let mut body = Vec::new();
        let mut head_vars: Vec<VarId> = Vec::new();
        for cv in &self.clauses {
            let c = &cv.clause;
            clause_body_positions(&pg, c, &mut body);
            // Universals that occur in the head as themselves.
            head_vars.clear();
            for ta in &c.head {
                head_vars.extend(ta.args.iter().filter_map(|t| match t {
                    Term::Var(v) => Some(*v),
                    Term::App(..) => None,
                }));
            }
            head_vars.sort_unstable();
            head_vars.dedup();
            let mut push = |e: PosEdge| match seen.get(&(e.from, e.to, e.special)) {
                Some(&i) => edges[i].in_wa |= e.in_wa,
                None => {
                    seen.insert((e.from, e.to, e.special), edges.len());
                    edges.push(e);
                }
            };
            for ta in &c.head {
                for (i, t) in ta.args.iter().enumerate() {
                    let q = pg.pos(ta.rel, i).expect("numbered above");
                    match t {
                        Term::Var(x) => {
                            for &(_, p) in var_positions(&body, *x) {
                                push(PosEdge {
                                    from: p,
                                    to: q,
                                    special: false,
                                    in_wa: true,
                                    stmt: cv.stmt,
                                    via: Via::Var(*x),
                                });
                            }
                        }
                        Term::App(f, _) => {
                            // A null lands at q: special edges from every
                            // universal body position (rich-acyclicity
                            // rule); the edge also belongs to the
                            // weak-acyclicity graph when its variable is
                            // copied to the head.
                            for &(x, p) in &body {
                                push(PosEdge {
                                    from: p,
                                    to: q,
                                    special: true,
                                    in_wa: head_vars.binary_search(&x).is_ok(),
                                    stmt: cv.stmt,
                                    via: Via::Func(*f),
                                });
                            }
                        }
                    }
                }
            }
        }
        pg.edges = edges;
        self.positions = pg;
    }

    fn build_skolem_graph(&mut self, func_stmt: &[usize]) {
        let pg = &self.positions;
        // (f, q): head position q where a term mentioning f lands.
        // (f, p): body position p of a variable inside f's arguments.
        let mut occ: Vec<(FuncId, PosId)> = Vec::new();
        let mut input: Vec<(FuncId, PosId)> = Vec::new();
        let mut body = Vec::new();
        let (mut funcs, mut vars) = (Vec::new(), Vec::new());
        for cv in &self.clauses {
            let c = &cv.clause;
            clause_body_positions(pg, c, &mut body);
            for ta in &c.head {
                for (i, t) in ta.args.iter().enumerate() {
                    let Some(q) = pg.pos(ta.rel, i) else { continue };
                    funcs.clear();
                    vars.clear();
                    collect_funcs(t, &mut funcs);
                    collect_vars(t, &mut vars);
                    vars.sort_unstable();
                    vars.dedup();
                    for &f in &funcs {
                        occ.push((f, q));
                        for &v in &vars {
                            input.extend(var_positions(&body, v).iter().map(|&(_, p)| (f, p)));
                        }
                    }
                }
            }
        }
        occ.sort_unstable();
        occ.dedup();
        input.sort_unstable();
        input.dedup();
        let stmt_of = |f: FuncId| func_stmt.get(f.index()).copied().unwrap_or(NONE);
        let mut funcs: Vec<FuncId> = occ.iter().map(|&(f, _)| f).collect();
        funcs.dedup();
        funcs.sort_by_key(|&f| (stmt_of(f), f));
        let pairs_of = |pairs: &[(FuncId, PosId)], f: FuncId| {
            let lo = pairs.partition_point(|&(g, _)| g < f);
            lo..lo + pairs[lo..].partition_point(|&(g, _)| g == f)
        };
        // Per position, the functions (by index into `funcs`) whose
        // arguments it feeds.
        let npos = pg.positions.len();
        let mut fed: Vec<(u32, u32)> = Vec::with_capacity(input.len());
        let mut fan_in = Vec::with_capacity(funcs.len());
        for (j, &f) in funcs.iter().enumerate() {
            let inputs = &input[pairs_of(&input, f)];
            fed.extend(inputs.iter().map(|&(_, p)| (p as u32, j as u32)));
            fan_in.push(inputs.len());
        }
        let fed = Csr::new(npos, &fed);
        // One regular-edge adjacency for every search; `reached[p] == i`
        // marks position `p` as reachable from function `i`'s terms.
        let regular: Vec<(u32, u32)> = pg
            .edges
            .iter()
            .filter(|e| !e.special)
            .map(|e| (e.from as u32, e.to as u32))
            .collect();
        let adj = Csr::new(npos, &regular);
        let mut reached = vec![NONE; npos];
        let mut fed_by = vec![NONE; funcs.len()];
        let (mut stack, mut visited) = (Vec::new(), Vec::new());
        let mut nodes = Vec::with_capacity(funcs.len());
        let mut edges = Vec::new();
        for (i, &f) in funcs.iter().enumerate() {
            visited.clear();
            for &(_, p) in &occ[pairs_of(&occ, f)] {
                reached[p] = i;
                stack.push(p);
            }
            while let Some(v) = stack.pop() {
                visited.push(v);
                for &w in adj.row(v) {
                    let w = w as usize;
                    if reached[w] != i {
                        reached[w] = i;
                        stack.push(w);
                    }
                }
            }
            nodes.push(SkolemFunc {
                func: f,
                stmt: match stmt_of(f) {
                    NONE => 0,
                    s => s,
                },
                fan_in: fan_in[i],
                fan_out: visited.len(),
            });
            // `i`-terms reach an argument of every function a reached
            // position feeds.
            for &p in &visited {
                for &j in fed.row(p) {
                    fed_by[j as usize] = i;
                }
            }
            edges.extend((0..funcs.len()).filter(|&j| fed_by[j] == i).map(|j| (i, j)));
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
                    e.via.name(syms),
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

/// Fills `out` with the `(variable, body position)` pairs of a clause's
/// body, sorted and deduplicated: the body positions of each universal
/// variable, found by [`var_positions`].
pub(crate) fn clause_body_positions(
    pg: &PositionGraph,
    c: &SoClause,
    out: &mut Vec<(VarId, PosId)>,
) {
    out.clear();
    for a in &c.body {
        if let Some(b) = pg.pos(a.rel, 0) {
            out.extend(a.args.iter().enumerate().map(|(i, &v)| (v, b + i)));
        }
    }
    out.sort_unstable();
    out.dedup();
}

/// The pairs of `x` in a sorted `(variable, position)` list.
pub(crate) fn var_positions(body: &[(VarId, PosId)], x: VarId) -> &[(VarId, PosId)] {
    let lo = body.partition_point(|&(v, _)| v < x);
    let hi = lo + body[lo..].partition_point(|&(v, _)| v == x);
    &body[lo..hi]
}

/// A graph over nodes `0..n` in compressed sparse rows: per node, a row
/// of `u32` items (successor nodes, or edge indices), kept in the order
/// they were given.
#[derive(Clone, Debug, Default)]
pub(crate) struct Csr {
    /// Row `v` is `items[start[v]..start[v + 1]]`.
    start: Vec<u32>,
    items: Vec<u32>,
}

impl Csr {
    /// The rows of `(node, item)` pairs over nodes `0..n`, by a stable
    /// counting sort.
    pub(crate) fn new(n: usize, pairs: &[(u32, u32)]) -> Csr {
        let mut start = vec![0u32; n + 1];
        for &(v, _) in pairs {
            start[v as usize + 1] += 1;
        }
        for v in 0..n {
            start[v + 1] += start[v];
        }
        let mut next = start.clone();
        let mut items = vec![0u32; pairs.len()];
        for &(v, x) in pairs {
            items[next[v as usize] as usize] = x;
            next[v as usize] += 1;
        }
        Csr { start, items }
    }

    /// Number of nodes.
    pub(crate) fn nodes(&self) -> usize {
        self.start.len() - 1
    }

    /// The items of node `v`.
    pub(crate) fn row(&self, v: usize) -> &[u32] {
        &self.items[self.start[v] as usize..self.start[v + 1] as usize]
    }
}

/// Strongly connected components of the graph whose node `v` has an edge
/// to `to(x)` for every item `x` of `fwd.row(v)`, as a component id per
/// node (Kosaraju, iterative — safe on deep graphs; one stack serves every
/// search). Ids are numbered in topological order of the condensation:
/// every edge between components goes from a smaller id to a larger one.
pub(crate) fn scc_ids(fwd: &Csr, to: impl Fn(u32) -> usize) -> Vec<usize> {
    let n = fwd.nodes();
    let mut pairs = Vec::with_capacity(fwd.items.len());
    for v in 0..n {
        pairs.extend(fwd.row(v).iter().map(|&x| (to(x) as u32, v as u32)));
    }
    let back = Csr::new(n, &pairs);
    drop(pairs);
    // Pass 1: finish order on the forward graph.
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    let mut stack: Vec<(u32, u32)> = Vec::new();
    for start in 0..n {
        if seen[start] {
            continue;
        }
        stack.push((start as u32, 0));
        seen[start] = true;
        while let Some(&mut (v, ref mut i)) = stack.last_mut() {
            if let Some(&x) = fwd.row(v as usize).get(*i as usize) {
                *i += 1;
                let w = to(x);
                if !seen[w] {
                    seen[w] = true;
                    stack.push((w as u32, 0));
                }
            } else {
                order.push(v);
                stack.pop();
            }
        }
    }
    // Pass 2: reverse graph in reverse finish order.
    let mut comp = vec![NONE; n];
    let mut next = 0;
    let mut stack: Vec<u32> = Vec::new();
    for &start in order.iter().rev() {
        if comp[start as usize] != NONE {
            continue;
        }
        stack.push(start);
        comp[start as usize] = next;
        while let Some(v) = stack.pop() {
            for &w in back.row(v as usize) {
                if comp[w as usize] == NONE {
                    comp[w as usize] = next;
                    stack.push(w);
                }
            }
        }
        next += 1;
    }
    comp
}

/// Checks statements one at a time against a fresh schema, so that only
/// a statement's own relations constrain it, reusing the error list from
/// one statement to the next.
#[derive(Default)]
struct Checker {
    errs: Vec<CoreError>,
}

impl Checker {
    /// Is a statement well-formed apart from side discipline?
    /// `SideMismatch` (NDL006) is tolerated — recursive programs
    /// necessarily read their own target relations, and their termination
    /// class is exactly what the analysis must determine. A statement
    /// that is not fails with its first arity mismatch, if it has one, as
    /// a [`ClashKind::WithinTgd`] clash numbered statement 0.
    fn well_formed_ignoring_sides(
        &mut self,
        check: impl FnOnce(&mut Schema, &mut Vec<CoreError>),
    ) -> std::result::Result<(), Option<ArityClash>> {
        self.errs.clear();
        check(&mut Schema::new(), &mut self.errs);
        if (self.errs.iter()).all(|e| matches!(e, CoreError::SideMismatch { .. })) {
            return Ok(());
        }
        Err(self.errs.iter().find_map(|e| match *e {
            CoreError::ArityMismatch {
                rel,
                expected,
                found,
            } => Some(ArityClash {
                stmt: 0,
                kind: ClashKind::WithinTgd,
                rel,
                expected,
                found,
            }),
            _ => None,
        }))
    }
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
    /// must not half-register), and the first disagreeing use is returned
    /// as a [`ClashKind::Fact`] clash numbered statement 0. (A tgd reaches
    /// admission only once its own uses agree.)
    fn admit(
        &mut self,
        uses: impl IntoIterator<Item = (RelId, usize)>,
    ) -> std::result::Result<(), ArityClash> {
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
                let clash = ArityClash {
                    stmt: 0,
                    kind: ClashKind::Fact,
                    rel: r,
                    expected: self.of[i],
                    found: n,
                };
                for r in self.added.drain(..) {
                    self.of[r.index()] = Self::UNSET;
                }
                return Err(clash);
            }
        }
        Ok(())
    }

    /// Admits a fact statement `stmt` of `rel` at arity `n`, or names the
    /// arity an admitted statement fixed for `rel`.
    fn admit_fact(
        &mut self,
        stmt: usize,
        rel: RelId,
        n: usize,
    ) -> std::result::Result<(), ArityClash> {
        self.admit([(rel, n)])
            .map_err(|clash| ArityClash { stmt, ..clash })
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
        assert!(g
            .positions
            .special_cycle(&g.positions.acyclicity_graph(true))
            .is_none());
        assert!(g
            .positions
            .special_cycle(&g.positions.acyclicity_graph(false))
            .is_none());
        let ranks = g
            .positions
            .ranks(&g.positions.acyclicity_graph(true))
            .unwrap();
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
        let cyc = g
            .positions
            .special_cycle(&g.positions.acyclicity_graph(true))
            .expect("cycle");
        assert!(cyc[0].special);
        let rendered: Vec<String> = cyc
            .iter()
            .map(|e| g.positions.display_edge(&syms, e))
            .collect();
        assert!(rendered.iter().any(|s| s.contains("=f")), "{rendered:?}");
        assert!(g
            .positions
            .ranks(&g.positions.acyclicity_graph(true))
            .is_none());
        assert!(g
            .positions
            .special_cycle(&g.positions.acyclicity_graph(false))
            .is_some());
    }

    #[test]
    fn blind_recursion_is_weakly_but_not_richly_acyclic() {
        // T(x) -> exists y T(y): x does not occur in the head, so the WA
        // graph has no special edge at all — but the RA rule adds the
        // special self-loop T.1 ⇒ T.1 (the oblivious chase diverges).
        let (_syms, g) = graphs("T(x) -> exists y T(y)\n");
        assert!(g
            .positions
            .special_cycle(&g.positions.acyclicity_graph(true))
            .is_none());
        let cyc = g
            .positions
            .special_cycle(&g.positions.acyclicity_graph(false))
            .expect("RA cycle");
        assert_eq!(cyc[0].from, cyc[0].to);
        // Ranks follow the weak-acyclicity graph (the literature's rank):
        // with no WA special edge the rank is 0 even though nulls land in
        // T.1 under the oblivious semantics.
        assert_eq!(
            g.positions
                .ranks(&g.positions.acyclicity_graph(true))
                .unwrap(),
            vec![0]
        );
    }

    #[test]
    fn wa_not_ra_program() {
        // R(x,y) -> exists z R(x,z): x occurs in the head, y does not.
        // WA graph: regular R.1→R.1, special R.1⇒R.2 — no cycle.
        // RA graph adds special R.2⇒R.2 — a special self-loop.
        let (_syms, g) = graphs("R(x,y) -> exists z R(x,z)\n");
        assert!(g
            .positions
            .special_cycle(&g.positions.acyclicity_graph(true))
            .is_none());
        assert!(g
            .positions
            .special_cycle(&g.positions.acyclicity_graph(false))
            .is_some());
        assert!(g
            .positions
            .ranks(&g.positions.acyclicity_graph(true))
            .is_some());
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
        assert!(g
            .positions
            .special_cycle(&g.positions.acyclicity_graph(false))
            .is_none());
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
