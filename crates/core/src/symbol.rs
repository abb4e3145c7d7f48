//! String interning for the four symbol namespaces used by dependencies:
//! relation names, variables, constants, and (Skolem) function symbols.
//!
//! All hot data structures (facts, atoms, terms) carry `u32` newtype ids;
//! the [`SymbolTable`] is only touched when parsing or printing.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

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

/// One interning namespace: bidirectional `String <-> u32`.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
struct Namespace {
    names: Vec<String>,
    ids: HashMap<String, u32>,
    /// Per `fresh` prefix: the suffix its last fresh name took. Names are
    /// never removed, so every smaller suffix is still taken and the next
    /// search resumes there — `fresh` stays linear in the calls made.
    fresh_next: HashMap<String, usize>,
}

impl Namespace {
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_owned());
        self.ids.insert(name.to_owned(), id);
        id
    }

    fn fresh(&mut self, prefix: &str) -> u32 {
        // Find an unused name `prefix`, `prefix_1`, `prefix_2`, ...
        if !self.ids.contains_key(prefix) {
            return self.intern(prefix);
        }
        let mut i = self.fresh_next.get(prefix).copied().unwrap_or(1);
        loop {
            let cand = format!("{prefix}_{i}");
            if !self.ids.contains_key(&cand) {
                self.fresh_next.insert(prefix.to_owned(), i);
                return self.intern(&cand);
            }
            i += 1;
        }
    }

    fn name(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    fn lookup(&self, name: &str) -> Option<u32> {
        self.ids.get(name).copied()
    }

    fn len(&self) -> usize {
        self.names.len()
    }
}

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
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn fresh_without_collision_uses_prefix() {
        let mut t = SymbolTable::new();
        let f = t.fresh_func("f");
        assert_eq!(t.func_name(f), "f");
    }
}
