//! String interning for the four symbol namespaces used by dependencies:
//! relation names, variables, constants, and (Skolem) function symbols.
//!
//! All hot data structures (facts, atoms, terms) carry `u32` newtype ids;
//! the [`SymbolTable`] is only touched when parsing or printing. Each
//! namespace keeps its names back to back in one string and finds them
//! through the workspace's one open-addressed [`IdTable`], the table the
//! fact store's dedup and the chase's null interning use too.

use crate::hash::FxHasher;
use crate::idtable::{IdTable, Vacant};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::hash::Hasher;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
        pub struct $name(pub u32);

        impl $name {
            /// Index into per-namespace dense arrays.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }
    };
}

id_type!(
    /// Identifier of a relation symbol.
    RelId
);
id_type!(
    /// Identifier of a first-order variable.
    VarId
);
id_type!(
    /// Identifier of a constant.
    ConstId
);
id_type!(
    /// Identifier of a function symbol (Skolem function).
    FuncId
);

/// One interning namespace: bidirectional `name <-> u32`.
///
/// The names live back to back in one string. They are found through an
/// [`IdTable`] of ids filed under each name's [`FxHasher`] hash: interning
/// hashes a name once, and allocates only when the string or the table
/// outgrows its capacity.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
struct Namespace {
    /// Every name, in id order, back to back.
    text: String,
    /// `id →` end of its name in `text` (it starts where the previous
    /// id's name ends).
    ends: Vec<usize>,
    /// The ids, filed under their names' hashes.
    slots: IdTable,
    /// Per `fresh` prefix: the suffix its last fresh name took. Names are
    /// never removed, so every smaller suffix is still taken and the next
    /// search resumes there — `fresh` stays linear in the calls made.
    fresh_next: HashMap<String, usize>,
}

/// The hash a namespace files a name under: its length, then its bytes
/// eight at a time, through the workspace's Fx hasher. The high 32 bits
/// are kept (Fx mixes them best).
fn name_hash(name: &str) -> u32 {
    let mut h = FxHasher::default();
    h.write_usize(name.len());
    let mut words = name.as_bytes().chunks_exact(8);
    for w in &mut words {
        h.write_u64(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    let rest = words.remainder();
    if !rest.is_empty() {
        let mut last = [0u8; 8];
        last[..rest.len()].copy_from_slice(rest);
        h.write_u64(u64::from_le_bytes(last));
    }
    (h.finish() >> 32) as u32
}

impl Namespace {
    /// The id of `name`, or where it would be filed.
    fn find(&self, name: &str, hash: u32) -> std::result::Result<u32, Vacant> {
        self.slots.find(hash, |id| self.name(id) == name)
    }

    fn intern(&mut self, name: &str) -> u32 {
        let hash = name_hash(name);
        match self.find(name, hash) {
            Ok(id) => id,
            Err(at) => {
                self.text.push_str(name);
                self.file(hash, at)
            }
        }
    }

    /// Gives the next id to the name just appended to `text`, whose hash
    /// is `hash` and whose probe ended at `at`.
    fn file(&mut self, hash: u32, at: Vacant) -> u32 {
        let id = u32::try_from(self.ends.len())
            .ok()
            .filter(|&id| id != u32::MAX)
            .expect("symbol namespace overflow");
        self.ends.push(self.text.len());
        self.slots.insert(at, hash, id);
        id
    }

    fn fresh(&mut self, prefix: &str) -> u32 {
        // Find an unused name `prefix`, `prefix_1`, `prefix_2`, ...
        if self.lookup(prefix).is_none() {
            return self.intern(prefix);
        }
        let mut i = self.fresh_next.get(prefix).copied().unwrap_or(1);
        // Each candidate is written where a new name goes, at the end of
        // `text`, and filed there once it proves unused.
        let start = self.text.len();
        loop {
            self.text.truncate(start);
            let _ = write!(self.text, "{prefix}_{i}");
            let cand = &self.text[start..];
            let hash = name_hash(cand);
            if let Err(at) = self.find(cand, hash) {
                match self.fresh_next.get_mut(prefix) {
                    Some(next) => *next = i,
                    None => {
                        self.fresh_next.insert(prefix.to_owned(), i);
                    }
                }
                return self.file(hash, at);
            }
            i += 1;
        }
    }

    fn name(&self, id: u32) -> &str {
        let id = id as usize;
        let start = if id == 0 { 0 } else { self.ends[id - 1] };
        &self.text[start..self.ends[id]]
    }

    fn lookup(&self, name: &str) -> Option<u32> {
        self.find(name, name_hash(name)).ok()
    }

    fn len(&self) -> usize {
        self.ends.len()
    }

    /// Forgets every name with an id of `len` or more, newest first: each
    /// leaves the table by backward-shift removal, so the probe sequences
    /// of the names that stay are as if it had never been filed.
    fn truncate(&mut self, len: usize) {
        if self.ends.len() <= len {
            return;
        }
        while self.ends.len() > len {
            let id = self.ends.len() - 1;
            self.slots
                .remove(name_hash(self.name(id as u32)), id as u32);
            self.ends.pop();
            self.text.truncate(self.ends.last().copied().unwrap_or(0));
        }
        // A forgotten name may have been a `fresh` suffix below a
        // recorded resume point; searching from the start again keeps
        // `fresh` picking the smallest free suffix.
        self.fresh_next.clear();
    }
}

/// How many names each namespace of a [`SymbolTable`] held at some point:
/// what [`SymbolTable::rollback`] returns the table to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SymbolMark([usize; 4]);

/// Interner for all symbol namespaces appearing in schemas, dependencies and
/// instances.
///
/// A `SymbolTable` is shared by everything participating in one reasoning
/// session: schemas, mappings, instances and chase results all refer to it.
/// Interning requires `&mut`; resolution only `&`.
///
/// ```
/// use ndl_core::symbol::SymbolTable;
/// let mut syms = SymbolTable::new();
/// let r = syms.rel("R");
/// assert_eq!(syms.rel("R"), r);
/// assert_eq!(syms.rel_name(r), "R");
/// ```
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct SymbolTable {
    rels: Namespace,
    vars: Namespace,
    consts: Namespace,
    funcs: Namespace,
}

impl SymbolTable {
    /// Creates an empty symbol table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a relation name.
    pub fn rel(&mut self, name: &str) -> RelId {
        RelId(self.rels.intern(name))
    }

    /// Interns a variable name.
    pub fn var(&mut self, name: &str) -> VarId {
        VarId(self.vars.intern(name))
    }

    /// Interns a constant name.
    pub fn constant(&mut self, name: &str) -> ConstId {
        ConstId(self.consts.intern(name))
    }

    /// Interns a function symbol name.
    pub fn func(&mut self, name: &str) -> FuncId {
        FuncId(self.funcs.intern(name))
    }

    /// Returns a constant with a name not used before, based on `prefix`.
    pub fn fresh_const(&mut self, prefix: &str) -> ConstId {
        ConstId(self.consts.fresh(prefix))
    }

    /// Returns a variable with a name not used before, based on `prefix`.
    pub fn fresh_var(&mut self, prefix: &str) -> VarId {
        VarId(self.vars.fresh(prefix))
    }

    /// Returns a function symbol with a name not used before, based on `prefix`.
    pub fn fresh_func(&mut self, prefix: &str) -> FuncId {
        FuncId(self.funcs.fresh(prefix))
    }

    /// Resolves a relation id to its name.
    pub fn rel_name(&self, id: RelId) -> &str {
        self.rels.name(id.0)
    }

    /// Resolves a variable id to its name.
    pub fn var_name(&self, id: VarId) -> &str {
        self.vars.name(id.0)
    }

    /// Resolves a constant id to its name.
    pub fn const_name(&self, id: ConstId) -> &str {
        self.consts.name(id.0)
    }

    /// Resolves a function symbol id to its name.
    pub fn func_name(&self, id: FuncId) -> &str {
        self.funcs.name(id.0)
    }

    /// Looks up a relation by name without interning.
    pub fn find_rel(&self, name: &str) -> Option<RelId> {
        self.rels.lookup(name).map(RelId)
    }

    /// Looks up a variable by name without interning.
    pub fn find_var(&self, name: &str) -> Option<VarId> {
        self.vars.lookup(name).map(VarId)
    }

    /// Looks up a constant by name without interning.
    pub fn find_const(&self, name: &str) -> Option<ConstId> {
        self.consts.lookup(name).map(ConstId)
    }

    /// Number of interned relation symbols.
    pub fn num_rels(&self) -> usize {
        self.rels.len()
    }

    /// Number of interned constants.
    pub fn num_consts(&self) -> usize {
        self.consts.len()
    }

    /// Number of interned function symbols.
    pub fn num_funcs(&self) -> usize {
        self.funcs.len()
    }

    /// The current size of every namespace, to [`rollback`](Self::rollback)
    /// to later.
    pub fn mark(&self) -> SymbolMark {
        SymbolMark([
            self.rels.len(),
            self.vars.len(),
            self.consts.len(),
            self.funcs.len(),
        ])
    }

    /// Forgets every symbol interned since `mark` was taken: ids and names
    /// are as they were then, and interning a forgotten name again gives
    /// it the next free id. A parser that tries several grammars on one
    /// input uses this to leave no trace of the attempts that failed.
    pub fn rollback(&mut self, mark: SymbolMark) {
        let [rels, vars, consts, funcs] = mark.0;
        self.rels.truncate(rels);
        self.vars.truncate(vars);
        self.consts.truncate(consts);
        self.funcs.truncate(funcs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rollback_forgets_names_and_reuses_their_ids() {
        let mut t = SymbolTable::new();
        let kept: Vec<RelId> = (0..40).map(|i| t.rel(&format!("K{i}"))).collect();
        let x = t.var("x");
        let mark = t.mark();
        for i in 0..200 {
            t.rel(&format!("T{i}"));
            t.func(&format!("f{i}"));
        }
        t.var("y");
        t.rollback(mark);
        assert_eq!(t.mark(), mark);
        assert_eq!(t.find_rel("T0"), None);
        assert_eq!(t.find_rel("T199"), None);
        assert_eq!(t.find_var("y"), None);
        for (i, &r) in kept.iter().enumerate() {
            assert_eq!(t.find_rel(&format!("K{i}")), Some(r));
            assert_eq!(t.rel(&format!("K{i}")), r);
        }
        assert_eq!(t.var("x"), x);
        // Forgotten names come back with the next free ids.
        assert_eq!(t.func("f7"), FuncId(0));
        assert_eq!(t.rel("T5"), RelId(40));
        assert_eq!(t.rel_name(RelId(40)), "T5");
    }

    #[test]
    fn rollback_keeps_fresh_minimal() {
        let mut t = SymbolTable::new();
        t.func("f");
        let mark = t.mark();
        let f1 = t.fresh_func("f");
        assert_eq!(t.func_name(f1), "f_1");
        t.rollback(mark);
        let again = t.fresh_func("f");
        assert_eq!(t.func_name(again), "f_1");
    }

    #[test]
    fn interning_is_idempotent() {
        let mut t = SymbolTable::new();
        let a = t.rel("Emp");
        let b = t.rel("Emp");
        assert_eq!(a, b);
        assert_eq!(t.rel_name(a), "Emp");
    }

    #[test]
    fn namespaces_are_disjoint() {
        let mut t = SymbolTable::new();
        let r = t.rel("X");
        let v = t.var("X");
        let c = t.constant("X");
        let f = t.func("X");
        // Same underlying index is fine; namespaces keep them apart.
        assert_eq!(t.rel_name(r), "X");
        assert_eq!(t.var_name(v), "X");
        assert_eq!(t.const_name(c), "X");
        assert_eq!(t.func_name(f), "X");
    }

    #[test]
    fn fresh_constants_avoid_collisions() {
        let mut t = SymbolTable::new();
        let a = t.constant("a");
        let a1 = t.fresh_const("a");
        let a2 = t.fresh_const("a");
        assert_ne!(a, a1);
        assert_ne!(a1, a2);
        assert_eq!(t.const_name(a1), "a_1");
        assert_eq!(t.const_name(a2), "a_2");
    }

    #[test]
    fn lookup_does_not_intern() {
        let t = SymbolTable::new();
        assert!(t.find_rel("nope").is_none());
    }

    #[test]
    fn many_names_keep_their_ids() {
        // Enough names to grow the table several times, with shared
        // prefixes and lengths around the 8-byte hashing word.
        let mut t = SymbolTable::new();
        let names: Vec<String> = (0..5000)
            .map(|i| format!("c{i}_{}", "x".repeat(i % 17)))
            .collect();
        let ids: Vec<ConstId> = names.iter().map(|n| t.constant(n)).collect();
        for (i, (n, &id)) in names.iter().zip(&ids).enumerate() {
            assert_eq!(id, ConstId(i as u32));
            assert_eq!(t.constant(n), id);
            assert_eq!(t.find_const(n), Some(id));
            assert_eq!(t.const_name(id), n);
        }
        assert_eq!(t.num_consts(), names.len());
        assert_eq!(t.find_const("c1_"), None);
        assert_eq!(t.find_const(""), None);
        let empty = t.constant("");
        assert_eq!(t.const_name(empty), "");
        assert_eq!(t.find_const(""), Some(empty));
    }

    #[test]
    fn fresh_without_collision_uses_prefix() {
        let mut t = SymbolTable::new();
        let f = t.fresh_func("f");
        assert_eq!(t.func_name(f), "f");
    }
}
