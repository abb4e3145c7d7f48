//! Dataflow certificates: dead statements and null-free relations,
//! claimed by the static analyzer and **re-verified** by every engine.
//!
//! A [`DataflowCert`] is a certificate, not a trusted input. Before the
//! first round, each fixpoint engine recomputes the two claims against
//! the *actual* source instance and tgd list it was handed:
//!
//! - a statement is provably **dead** when every one of its clauses reads
//!   some relation that is neither populated by the source nor writable
//!   by any chain of firing clauses — no round of the fixpoint chase can
//!   ever fire it;
//! - a relation is provably **ground** (null-free) when no firing clause
//!   can place a Skolem term into it, directly or by copying a variable
//!   bound only at nullable relations.
//!
//! A certificate claiming a *subset* of the provable sets verifies; one
//! claiming a statement that can fire or a relation that can hold a null
//! is rejected with [`FixpointError::InvalidCert`] before any work
//! happens. Skipping a provably dead statement is then exact — the
//! statement contributes zero matches in every round, so eliding it
//! changes neither derived facts nor null identities nor round counts —
//! and downstream consumers (e.g. `ndl-hom`'s null-block computation) may
//! skip per-value null scans on the ground relations.
//!
//! The analyzer attaches a certificate via
//! `ndl_analyze::ChaseAnalysis::tgd_plan`; its dataflow pass starts from
//! a superset of any real source population (fact-populated relations, or
//! all read-never-written relations when the program has no facts), and
//! the fixpoints are monotone in the source set, so analyzer claims
//! always verify here. Hand-built plans are still checked the hard way.

use crate::fixpoint::FixpointError;
use ndl_core::prelude::*;
use std::collections::BTreeSet;

/// Dataflow claims attached to a [`crate::ChasePlan`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DataflowCert {
    /// Indices into the engine's tgd slice of statements claimed dead
    /// (never able to fire from the given source).
    pub dead: BTreeSet<usize>,
    /// Relations claimed provably null-free throughout the chase.
    pub ground: BTreeSet<RelId>,
}

impl DataflowCert {
    /// Is there nothing to verify or exploit?
    pub fn is_empty(&self) -> bool {
        self.dead.is_empty() && self.ground.is_empty()
    }
}

/// What the engines can prove about a chase of `tgds` from `source` —
/// the reference the certificate is checked against.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DataflowFacts {
    /// Relations that can ever hold a fact: populated source relations,
    /// closed under firing clauses.
    pub reachable: BTreeSet<RelId>,
    /// Tgd indices whose every clause reads some unreachable relation.
    pub dead: BTreeSet<usize>,
    /// Relations some firing clause can place a null into.
    pub nullable: BTreeSet<RelId>,
}

/// Recomputes the provable dataflow facts from the engine's own inputs.
pub fn dataflow_facts(source: &Instance, tgds: &[SoTgd]) -> DataflowFacts {
    let mut facts = DataflowFacts {
        reachable: source
            .active_relations()
            .filter(|&r| source.rel_len(r) > 0)
            .collect(),
        ..DataflowFacts::default()
    };
    // Reachability: a clause whose body relations are all reachable can
    // fire and marks its head relations reachable.
    loop {
        let mut changed = false;
        for tgd in tgds {
            for c in &tgd.clauses {
                if c.body.iter().all(|b| facts.reachable.contains(&b.rel)) {
                    for ta in &c.head {
                        changed |= facts.reachable.insert(ta.rel);
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    let fires = |c: &SoClause| -> bool { c.body.iter().all(|b| facts.reachable.contains(&b.rel)) };
    for (i, tgd) in tgds.iter().enumerate() {
        if !tgd.clauses.iter().any(fires) {
            facts.dead.insert(i);
        }
    }
    // Groundness: a head argument introduces a null when it is a Skolem
    // term, or a variable whose every body binding is at a nullable
    // relation (joins bind the variable at all occurrences at once, so a
    // single null-free occurrence grounds it). A head variable with no
    // body occurrence is conservatively nullable.
    loop {
        let mut changed = false;
        for tgd in tgds {
            for c in &tgd.clauses {
                if !fires(c) {
                    continue;
                }
                for ta in &c.head {
                    if facts.nullable.contains(&ta.rel) {
                        continue;
                    }
                    let introduces = ta.args.iter().any(|t| match t {
                        Term::App(..) => true,
                        Term::Var(v) => {
                            let mut any = false;
                            let all_nullable =
                                c.body.iter().filter(|b| b.args.contains(v)).all(|b| {
                                    any = true;
                                    facts.nullable.contains(&b.rel)
                                });
                            !any || all_nullable
                        }
                    });
                    if introduces {
                        facts.nullable.insert(ta.rel);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    facts
}

/// Verifies a dataflow certificate against facts recomputed from the
/// engine's own `source` and `tgds`. Every claimed-dead statement must be
/// provably dead and every claimed-ground relation provably null-free;
/// claiming less than provable is fine.
pub fn verify_dataflow_cert(
    source: &Instance,
    tgds: &[SoTgd],
    cert: &DataflowCert,
) -> std::result::Result<(), FixpointError> {
    let facts = dataflow_facts(source, tgds);
    for &d in &cert.dead {
        if d >= tgds.len() {
            return Err(FixpointError::InvalidCert {
                reason: format!("dead statement {d} out of range ({} tgds)", tgds.len()),
            });
        }
        if !facts.dead.contains(&d) {
            return Err(FixpointError::InvalidCert {
                reason: format!(
                    "statement {d} is claimed dead but some clause can fire \
                     from the populated relations"
                ),
            });
        }
    }
    if let Some(&r) = cert.ground.intersection(&facts.nullable).next() {
        return Err(FixpointError::InvalidCert {
            reason: format!(
                "relation {} is claimed ground but a firing clause can \
                 place a null into it",
                r.index()
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn copy_tgd(from: RelId, to: RelId, v: VarId) -> SoTgd {
        SoTgd::new(
            vec![],
            vec![SoClause::new(
                vec![Atom::new(from, vec![v])],
                vec![],
                vec![TermAtom::from_vars(to, &[v])],
            )],
        )
    }

    fn skolem_tgd(from: RelId, to: RelId, v: VarId, f: FuncId) -> SoTgd {
        SoTgd::new(
            vec![f],
            vec![SoClause::new(
                vec![Atom::new(from, vec![v])],
                vec![],
                vec![TermAtom::new(
                    to,
                    vec![Term::Var(v), Term::App(f, vec![Term::Var(v)])],
                )],
            )],
        )
    }

    fn setup() -> (SymbolTable, Instance) {
        let mut syms = SymbolTable::new();
        let s = syms.rel("S");
        let c = syms.constant("a");
        let mut inst = Instance::new();
        inst.insert(Fact::new(s, vec![Value::Const(c)]));
        (syms, inst)
    }

    #[test]
    fn facts_mark_unfed_statements_dead() {
        let (mut syms, inst) = setup();
        let (s, t, z, w) = (syms.rel("S"), syms.rel("T"), syms.rel("Z"), syms.rel("W"));
        let v = syms.var("x");
        let tgds = vec![copy_tgd(s, t, v), copy_tgd(z, w, v), copy_tgd(t, z, v)];
        // S is populated: S->T fires, T->Z fires, so Z->W fires too.
        let facts = dataflow_facts(&inst, &tgds);
        assert!(facts.dead.is_empty());
        // Without the T->Z bridge, Z->W is dead.
        let facts = dataflow_facts(&inst, &tgds[..2]);
        assert_eq!(facts.dead, BTreeSet::from([1]));
        assert_eq!(
            facts.reachable,
            BTreeSet::from([s, t]),
            "Z and W stay unreachable"
        );
    }

    #[test]
    fn nullable_propagates_through_copies() {
        let (mut syms, inst) = setup();
        let (s, r, p) = (syms.rel("S"), syms.rel("R"), syms.rel("P"));
        let v = syms.var("x");
        let f = syms.func("f");
        let tgds = vec![skolem_tgd(s, r, v, f), copy_tgd(r, p, v)];
        let facts = dataflow_facts(&inst, &tgds);
        assert_eq!(facts.nullable, BTreeSet::from([r, p]));
        assert!(!facts.nullable.contains(&s));
    }

    #[test]
    fn verification_accepts_subsets_and_rejects_overclaims() {
        let (mut syms, inst) = setup();
        let (s, t, z, w) = (syms.rel("S"), syms.rel("T"), syms.rel("Z"), syms.rel("W"));
        let v = syms.var("x");
        let tgds = vec![copy_tgd(s, t, v), copy_tgd(z, w, v)];
        // Claiming nothing, or exactly the provable sets, verifies.
        assert!(verify_dataflow_cert(&inst, &tgds, &DataflowCert::default()).is_ok());
        let ok = DataflowCert {
            dead: BTreeSet::from([1]),
            ground: BTreeSet::from([s, t, z, w]),
        };
        assert!(verify_dataflow_cert(&inst, &tgds, &ok).is_ok());
        // Claiming the live statement dead is rejected.
        let bad = DataflowCert {
            dead: BTreeSet::from([0]),
            ground: BTreeSet::new(),
        };
        assert!(matches!(
            verify_dataflow_cert(&inst, &tgds, &bad),
            Err(FixpointError::InvalidCert { .. })
        ));
        // Out-of-range indices are rejected.
        let oob = DataflowCert {
            dead: BTreeSet::from([7]),
            ground: BTreeSet::new(),
        };
        assert!(verify_dataflow_cert(&inst, &tgds, &oob).is_err());
    }

    #[test]
    fn verification_rejects_nullable_ground_claims() {
        let (mut syms, inst) = setup();
        let (s, r) = (syms.rel("S"), syms.rel("R"));
        let v = syms.var("x");
        let f = syms.func("f");
        let tgds = vec![skolem_tgd(s, r, v, f)];
        let bad = DataflowCert {
            dead: BTreeSet::new(),
            ground: BTreeSet::from([r]),
        };
        assert!(matches!(
            verify_dataflow_cert(&inst, &tgds, &bad),
            Err(FixpointError::InvalidCert { .. })
        ));
        // S itself is fine.
        let ok = DataflowCert {
            dead: BTreeSet::new(),
            ground: BTreeSet::from([s]),
        };
        assert!(verify_dataflow_cert(&inst, &tgds, &ok).is_ok());
    }

    #[test]
    fn empty_source_kills_everything_with_a_body() {
        let mut syms = SymbolTable::new();
        let (s, t) = (syms.rel("S"), syms.rel("T"));
        let v = syms.var("x");
        let tgds = vec![copy_tgd(s, t, v)];
        let facts = dataflow_facts(&Instance::new(), &tgds);
        assert_eq!(facts.dead, BTreeSet::from([0]));
        assert!(facts.nullable.is_empty());
    }
}
