//! Labeled nulls in bijection with ground Skolem terms.
//!
//! The chase interprets Skolem functions over the Herbrand universe: each
//! ground function application denotes one labeled null, allocated on first
//! use. This makes the oblivious chase deterministic, lets re-fired
//! triggers reuse their nulls, and lets figures print nulls exactly as the
//! paper does (`f(a_1)`, `g(a_1,a_3,a_4)`, ...).
//!
//! Storage is hash-consed: a null is recorded as one function application
//! over *values* (constants or previously allocated nulls), never as a
//! fully expanded term. Deeply nested Herbrand terms therefore cost O(1)
//! space per null — a chase whose nulls nest `k` levels deep would
//! otherwise pay term sizes exponential in `k` (each application copies
//! every argument subterm). Structural [`GroundTerm`]s are reconstructed
//! on demand for egd constant renaming; display never builds them — a
//! [`FactWriter`] writes each null's term once, straight into the output.
//!
//! The applications are flat: per null its function symbol and the end of
//! its arguments in one shared argument arena, found again through the
//! workspace's one open-addressed [`IdTable`] (the table under the symbol
//! namespaces and the fact store's dedup). Interning a new null appends to
//! three vectors and files one id, so `n` nulls cost `O(log n)`
//! allocations in all; an application seen before costs none.

use ndl_core::hash::tuple_hash;
use ndl_core::idtable::IdTable;
use ndl_core::prelude::*;
use std::fmt::{self, Write as _};

/// Allocator and registry of labeled nulls, keyed by ground Skolem term.
///
/// Every probe borrows its arguments as `&[Value]`, so the hot
/// re-derivation path never allocates.
#[derive(Clone, Debug, Default)]
pub struct NullFactory {
    /// Per null (by index), its function symbol.
    funcs: Vec<FuncId>,
    /// Per null, the end of its arguments in `args` (they start where the
    /// previous null's end).
    ends: Vec<u32>,
    /// Every null's arguments, in null order, back to back.
    args: Vec<Value>,
    /// Null indices filed under the [`tuple_hash`] of their application.
    table: IdTable,
    offset: u32,
}

impl NullFactory {
    /// Creates an empty factory allocating ids from 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a factory allocating ids from `offset` upward — use this to
    /// keep null spaces disjoint when values from several chase runs end
    /// up in one instance (e.g. the two-step composition chase).
    pub fn starting_at(offset: u32) -> Self {
        NullFactory {
            offset,
            ..Self::default()
        }
    }

    /// The first id that would be allocated next (offset + count).
    pub fn next_id(&self) -> u32 {
        self.offset + self.len() as u32
    }

    /// The null labeled by one function application over interned values.
    /// This is the engine-facing fast path: arguments that are themselves
    /// Skolem applications are passed as their nulls, so no structural
    /// term is ever materialized.
    pub fn null_for_app(&mut self, f: FuncId, args: Vec<Value>) -> NullId {
        self.null_for_app_slice(f, &args)
    }

    /// [`null_for_app`](Self::null_for_app) over a borrowed argument slice:
    /// an application seen before is found without allocating (the common
    /// case once the chase starts re-deriving facts), and a new one is
    /// appended to the flat arena, which grows by doubling.
    pub fn null_for_app_slice(&mut self, f: FuncId, args: &[Value]) -> NullId {
        let hash = tuple_hash(f.0, args);
        let at = match self.table.find(hash, |i| self.app(i as usize) == (f, args)) {
            Ok(i) => return NullId(self.offset + i),
            Err(at) => at,
        };
        let index = u32::try_from(self.funcs.len()).expect("null factory overflow");
        let id = NullId(
            self.offset
                .checked_add(index)
                .expect("null id space exhausted"),
        );
        self.funcs.push(f);
        self.args.extend_from_slice(args);
        self.ends
            .push(u32::try_from(self.args.len()).expect("null argument arena overflow"));
        self.table.insert(at, hash, index);
        id
    }

    /// The null already interned for one function application over values,
    /// if any — a **non-interning** probe. Engines use this to evaluate
    /// equality gates without the side effect of allocating nulls for
    /// clauses that never fire (a failing equality must leave the factory
    /// untouched).
    pub fn lookup_app(&self, f: FuncId, args: &[Value]) -> Option<NullId> {
        let hash = tuple_hash(f.0, args);
        let i = self
            .table
            .find(hash, |i| self.app(i as usize) == (f, args))
            .ok()?;
        Some(NullId(self.offset + i))
    }

    /// The application of the null at `index`: its function symbol and
    /// arguments.
    #[inline]
    fn app(&self, index: usize) -> (FuncId, &[Value]) {
        let start = if index == 0 {
            0
        } else {
            self.ends[index - 1] as usize
        };
        (
            self.funcs[index],
            &self.args[start..self.ends[index] as usize],
        )
    }

    /// The null labeled by `term`, allocated on first use. Subterms are
    /// interned bottom-up, so nested applications allocate (and reuse)
    /// nulls for their arguments as well.
    pub fn null_for(&mut self, term: &GroundTerm) -> NullId {
        match term {
            GroundTerm::Const(_) => panic!("constants do not label nulls"),
            GroundTerm::App(f, args) => {
                let vals: Vec<Value> = args.iter().map(|a| self.value_of(a)).collect();
                self.null_for_app(*f, vals)
            }
        }
    }

    /// The value denoted by a ground term: constants denote themselves,
    /// function applications denote nulls.
    pub fn value_of(&mut self, term: &GroundTerm) -> Value {
        match term {
            GroundTerm::Const(c) => Value::Const(*c),
            t @ GroundTerm::App(..) => Value::Null(self.null_for(t)),
        }
    }

    /// The ground term labeling a null allocated by this factory,
    /// reconstructed from the hash-consed applications. `None` for ids
    /// outside this factory's range (including argument nulls minted by a
    /// different factory).
    pub fn term(&self, id: NullId) -> Option<GroundTerm> {
        let (f, args) = self.app(self.index(id)?);
        let args = args
            .iter()
            .map(|&v| match v {
                Value::Const(c) => Some(GroundTerm::Const(c)),
                Value::Null(n) => self.term(n),
            })
            .collect::<Option<Vec<_>>>()?;
        Some(GroundTerm::App(f, args))
    }

    /// Number of nulls allocated so far.
    pub fn len(&self) -> usize {
        self.funcs.len()
    }

    /// Has no null been allocated yet?
    pub fn is_empty(&self) -> bool {
        self.funcs.is_empty()
    }

    /// Renders a value, printing nulls as their ground Skolem terms when
    /// known (e.g. `f(a_1)`) and as `_Nk` otherwise.
    pub fn display_value(&self, v: Value, syms: &SymbolTable) -> String {
        let mut w = FactWriter::new(self, syms, String::new(), Memo::sparse());
        w.value(v);
        w.out
    }

    /// Renders a fact with Skolem-term nulls.
    pub fn display_fact(&self, fact: &Fact, syms: &SymbolTable) -> String {
        self.display_fact_ref(fact.as_ref(), syms)
    }

    /// Renders a borrowed fact view with Skolem-term nulls.
    pub fn display_fact_ref(&self, fact: FactRef<'_>, syms: &SymbolTable) -> String {
        let mut w = FactWriter::new(self, syms, String::new(), Memo::sparse());
        w.fact(fact);
        w.out
    }

    /// Renders an instance with Skolem-term nulls, facts separated by `, `.
    pub fn display_instance(&self, inst: &Instance, syms: &SymbolTable) -> String {
        let mut w = self.fact_writer(syms, String::new());
        for (i, fact) in inst.facts().enumerate() {
            if i > 0 {
                w.out.push_str(", ");
            }
            w.fact(fact);
        }
        w.out
    }

    /// Appends one line per fact to `out`: `indent`, the fact with
    /// Skolem-term nulls, a newline. Each null's term is rendered the
    /// first time it occurs and copied from `out` after that.
    pub fn write_fact_lines<'f>(
        &self,
        facts: impl IntoIterator<Item = FactRef<'f>>,
        syms: &SymbolTable,
        indent: &str,
        out: &mut String,
    ) {
        let mut w = self.fact_writer(syms, std::mem::take(out));
        w.fact_lines(facts, indent);
        *out = w.into_string();
    }

    /// A writer appending to `out` that renders each null's term once
    /// across every listing written through it.
    pub fn fact_writer<'a>(&'a self, syms: &'a SymbolTable, out: String) -> FactWriter<'a> {
        FactWriter::new(self, syms, out, Memo::Dense(vec![UNSEEN; self.len()]))
    }

    /// The position of `id` among this factory's nulls, if it is one.
    fn index(&self, id: NullId) -> Option<usize> {
        let idx = id.0.checked_sub(self.offset)? as usize;
        (idx < self.len()).then_some(idx)
    }
}

/// Writes facts with Skolem-term nulls into an output buffer it owns.
///
/// A null's term is written in full the first time the null occurs; its
/// byte span in the buffer is memoized and later occurrences copy those
/// bytes (`String::extend_from_within`), so shared and deeply nested
/// subterms are never rebuilt and the memo holds no second copy of the
/// text. Output is exactly that of [`NullFactory::term`]: a null whose term
/// reaches a null outside the factory prints as `_Nk`.
pub struct FactWriter<'a> {
    nulls: &'a NullFactory,
    syms: &'a SymbolTable,
    out: String,
    memo: Memo,
    /// Open applications: `(null index, next argument, start in out)`.
    stack: Vec<(usize, usize, usize)>,
}

/// One null's rendering state: the span `start..end` of its term in the
/// output once written, else one of the markers below (`start` lies past
/// any buffer, so no span equals a marker).
#[derive(Clone, Copy, PartialEq, Eq)]
struct Slot {
    start: usize,
    end: usize,
}

/// Not looked at yet.
const UNSEEN: Slot = Slot {
    start: usize::MAX,
    end: 0,
};
/// On the resolve stack: its term is being checked.
const VISITING: Slot = Slot {
    start: usize::MAX,
    end: 1,
};
/// Every null in its term is the factory's; not written yet.
const KNOWN: Slot = Slot {
    start: usize::MAX,
    end: 2,
};
/// Its term reaches a null outside the factory (or itself): prints `_Nk`.
const FOREIGN: Slot = Slot {
    start: usize::MAX,
    end: 3,
};

/// Slots by null index: dense for whole listings, sparse for one-off
/// values and facts, which must not pay for every null of the factory.
enum Memo {
    Dense(Vec<Slot>),
    Sparse(FxHashMap<usize, Slot>),
}

impl Memo {
    fn sparse() -> Self {
        Memo::Sparse(FxHashMap::default())
    }

    fn get(&self, idx: usize) -> Slot {
        match self {
            Memo::Dense(slots) => slots[idx],
            Memo::Sparse(slots) => slots.get(&idx).copied().unwrap_or(UNSEEN),
        }
    }

    fn set(&mut self, idx: usize, slot: Slot) {
        match self {
            Memo::Dense(slots) => slots[idx] = slot,
            Memo::Sparse(slots) => {
                slots.insert(idx, slot);
            }
        }
    }
}

impl<'a> FactWriter<'a> {
    fn new(nulls: &'a NullFactory, syms: &'a SymbolTable, out: String, memo: Memo) -> Self {
        FactWriter {
            nulls,
            syms,
            out,
            memo,
            stack: Vec::new(),
        }
    }

    /// Appends one line per fact: `indent`, the fact, a newline.
    pub fn fact_lines<'f>(&mut self, facts: impl IntoIterator<Item = FactRef<'f>>, indent: &str) {
        for fact in facts {
            self.out.push_str(indent);
            self.fact(fact);
            self.out.push('\n');
        }
    }

    /// The text written so far.
    pub fn into_string(self) -> String {
        self.out
    }

    fn fact(&mut self, fact: FactRef<'_>) {
        self.out.push_str(self.syms.rel_name(fact.rel));
        self.out.push('(');
        for (i, &v) in fact.args.iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            self.value(v);
        }
        self.out.push(')');
    }

    fn value(&mut self, v: Value) {
        let n = match v {
            Value::Const(c) => return self.out.push_str(self.syms.const_name(c)),
            Value::Null(n) => n,
        };
        let Some(idx) = self.nulls.index(n) else {
            return self.label(n);
        };
        if self.memo.get(idx) == UNSEEN {
            self.resolve(idx);
        }
        match self.memo.get(idx) {
            FOREIGN => self.label(n),
            KNOWN => self.term(idx),
            Slot { start, end } => self.out.extend_from_within(start..end),
        }
    }

    fn label(&mut self, n: NullId) {
        let _ = write!(self.out, "_N{}", n.0);
    }

    /// Marks `root` and every unseen null in its term `KNOWN` or `FOREIGN`.
    fn resolve(&mut self, root: usize) {
        self.memo.set(root, VISITING);
        self.stack.push((root, 0, 0));
        while let Some(&(idx, next, _)) = self.stack.last() {
            let Some(&arg) = self.nulls.app(idx).1.get(next) else {
                self.memo.set(idx, KNOWN);
                self.stack.pop();
                continue;
            };
            let top = self.stack.len() - 1;
            self.stack[top].1 += 1;
            let Value::Null(n) = arg else { continue };
            let child = self.nulls.index(n);
            match child.map(|c| (c, self.memo.get(c))) {
                Some((c, UNSEEN)) => {
                    self.memo.set(c, VISITING);
                    self.stack.push((c, 0, 0));
                }
                // Out of range, foreign, or a cycle: the term of every
                // null on the stack contains this one.
                None | Some((_, VISITING | FOREIGN)) => {
                    for (idx, ..) in self.stack.drain(..) {
                        self.memo.set(idx, FOREIGN);
                    }
                }
                Some(_) => {}
            }
        }
    }

    /// Writes the term of a `KNOWN` null, memoizing the span of every
    /// application it writes.
    fn term(&mut self, root: usize) {
        let nulls = self.nulls;
        self.open(root);
        while let Some(&(idx, next, start)) = self.stack.last() {
            let args = nulls.app(idx).1;
            if next == args.len() {
                self.out.push(')');
                let end = self.out.len();
                self.memo.set(idx, Slot { start, end });
                self.stack.pop();
                continue;
            }
            let top = self.stack.len() - 1;
            self.stack[top].1 += 1;
            if next > 0 {
                self.out.push(',');
            }
            match args[next] {
                Value::Const(c) => self.out.push_str(self.syms.const_name(c)),
                Value::Null(n) => {
                    let c = self
                        .nulls
                        .index(n)
                        .expect("a known term holds only factory nulls");
                    match self.memo.get(c) {
                        KNOWN => self.open(c),
                        Slot { start, end } => self.out.extend_from_within(start..end),
                    }
                }
            }
        }
    }

    fn open(&mut self, idx: usize) {
        let start = self.out.len();
        self.out
            .push_str(self.syms.func_name(self.nulls.app(idx).0));
        self.out.push('(');
        self.stack.push((idx, 0, start));
    }
}

impl fmt::Write for FactWriter<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.out.push_str(s);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_term_same_null() {
        let mut syms = SymbolTable::new();
        let f = syms.func("f");
        let a = syms.constant("a");
        let mut nf = NullFactory::new();
        let t = GroundTerm::App(f, vec![GroundTerm::Const(a)]);
        let n1 = nf.null_for(&t);
        let n2 = nf.null_for(&t);
        assert_eq!(n1, n2);
        assert_eq!(nf.len(), 1);
        assert_eq!(nf.term(n1), Some(t));
    }

    #[test]
    fn constants_denote_themselves() {
        let mut syms = SymbolTable::new();
        let a = syms.constant("a");
        let mut nf = NullFactory::new();
        assert_eq!(nf.value_of(&GroundTerm::Const(a)), Value::Const(a));
        assert!(nf.is_empty());
    }

    #[test]
    fn nested_terms_intern_their_subterms() {
        let mut syms = SymbolTable::new();
        let f = syms.func("f");
        let g = syms.func("g");
        let a = syms.constant("a");
        let mut nf = NullFactory::new();
        let inner = GroundTerm::App(f, vec![GroundTerm::Const(a)]);
        let outer = GroundTerm::App(g, vec![inner.clone()]);
        let outer_id = nf.null_for(&outer);
        // g(f(a)) interns f(a) too, and reconstructs structurally.
        assert_eq!(nf.len(), 2);
        assert_eq!(nf.term(outer_id), Some(outer.clone()));
        assert_eq!(nf.null_for(&inner), NullId(0));
        // The compact path agrees with the structural one.
        let inner_id = nf.null_for(&inner);
        assert_eq!(nf.null_for_app(g, vec![Value::Null(inner_id)]), outer_id);
        assert_eq!(nf.len(), 2);
    }

    #[test]
    fn offset_factories_keep_null_spaces_disjoint() {
        let mut syms = SymbolTable::new();
        let f = syms.func("f");
        let a = syms.constant("a");
        let t = GroundTerm::App(f, vec![GroundTerm::Const(a)]);
        let mut n1 = NullFactory::new();
        let id1 = n1.null_for(&t);
        assert_eq!(id1, NullId(0));
        let mut n2 = NullFactory::starting_at(n1.next_id());
        let id2 = n2.null_for(&t);
        assert_eq!(id2, NullId(1));
        // Reverse lookup respects the offset.
        assert_eq!(n2.term(id2), Some(t));
        assert_eq!(n2.term(id1), None);
        assert_eq!(n2.next_id(), 2);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(200))]

        /// The factory against a `HashMap` model from applications to
        /// ids: interning (slice and owned), the non-interning
        /// `lookup_app`, `term` and ids offset by `starting_at`.
        #[test]
        fn factory_agrees_with_a_map_model(seed in 0u64..u64::MAX, ops in 0usize..300) {
            let mut state = seed;
            let mut below = |n: u64| {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (z ^ (z >> 31)) % n
            };
            let offset = [0, 1, 1000, u32::MAX - 400][below(4) as usize];
            let mut nf = NullFactory::starting_at(offset);
            let mut ids: std::collections::HashMap<(FuncId, Vec<Value>), NullId> =
                std::collections::HashMap::new();
            let mut apps: Vec<(FuncId, Vec<Value>)> = Vec::new();
            for _ in 0..ops {
                let f = FuncId(below(3) as u32);
                let arity = below(4) as usize;
                // Constants, this factory's nulls, and a null it never made.
                let args: Vec<Value> = (0..arity)
                    .map(|_| match below(3) {
                        0 => Value::Const(ConstId(below(3) as u32)),
                        1 if !apps.is_empty() => {
                            Value::Null(NullId(offset + below(apps.len() as u64) as u32))
                        }
                        _ => Value::Null(NullId(u32::MAX - below(2) as u32)),
                    })
                    .collect();
                let key = (f, args.clone());
                match below(3) {
                    0 => {
                        let before = nf.len();
                        proptest::prop_assert_eq!(nf.lookup_app(f, &args), ids.get(&key).copied());
                        proptest::prop_assert_eq!(nf.len(), before);
                    }
                    op => {
                        let next = NullId(offset + apps.len() as u32);
                        let want = *ids.entry(key).or_insert(next);
                        if want == next {
                            apps.push((f, args.clone()));
                        }
                        let got = if op == 1 {
                            nf.null_for_app_slice(f, &args)
                        } else {
                            nf.null_for_app(f, args)
                        };
                        proptest::prop_assert_eq!(got, want);
                    }
                }
                proptest::prop_assert_eq!(nf.len(), apps.len());
                proptest::prop_assert_eq!(nf.next_id(), offset + apps.len() as u32);
            }
            // `term` rebuilds each application, `None` where it reaches a
            // null the factory did not make.
            fn model_term(
                apps: &[(FuncId, Vec<Value>)],
                offset: u32,
                id: NullId,
            ) -> Option<GroundTerm> {
                let (f, args) = apps.get(id.0.checked_sub(offset)? as usize)?;
                let args = (args.iter())
                    .map(|&v| match v {
                        Value::Const(c) => Some(GroundTerm::Const(c)),
                        Value::Null(n) => model_term(apps, offset, n),
                    })
                    .collect::<Option<Vec<_>>>()?;
                Some(GroundTerm::App(*f, args))
            }
            for i in 0..apps.len() as u32 + 2 {
                let id = NullId(offset.wrapping_add(i));
                proptest::prop_assert_eq!(nf.term(id), model_term(&apps, offset, id));
            }
            if offset > 0 {
                proptest::prop_assert_eq!(nf.term(NullId(offset - 1)), None);
            }
        }
    }

    #[test]
    fn display_uses_skolem_terms() {
        let mut syms = SymbolTable::new();
        let f = syms.func("f");
        let a = syms.constant("a_1");
        let r = syms.rel("R");
        let mut nf = NullFactory::new();
        let t = GroundTerm::App(f, vec![GroundTerm::Const(a)]);
        let v = nf.value_of(&t);
        let fact = Fact::new(r, vec![v, Value::Const(a)]);
        assert_eq!(nf.display_fact(&fact, &syms), "R(f(a_1),a_1)");
        // Unknown null falls back to _Nk.
        assert_eq!(nf.display_value(Value::Null(NullId(99)), &syms), "_N99");
    }
}
