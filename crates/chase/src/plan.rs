//! Chase execution plans.
//!
//! A [`ChasePlan`] is what the static analyzer (`ndl-analyze`) hands the
//! chase engines: a clause firing order, a termination verdict derived
//! from the position graph of the Skolemized program (weak/rich
//! acyclicity), and — for programs whose chase is *not* provably
//! terminating — either a step budget or an instruction to refuse
//! outright. The engines stay usable without an analyzer:
//! [`ChasePlan::trusting`] reproduces the historical behavior (natural
//! order, no budget, assume termination).

/// How a chase engine should run a dependency program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChasePlan {
    /// Statement indices in preferred firing order. Engines fire
    /// statements in this order; indices out of range are ignored and
    /// statements missing from the order are appended in natural order.
    pub order: Vec<usize>,
    /// Is the (oblivious, fixpoint) chase provably terminating — i.e. did
    /// the analyzer certify rich acyclicity of the position graph?
    pub guaranteed_terminating: bool,
    /// Step budget (count of derived facts) for programs without a
    /// termination guarantee. `None` means: refuse to chase such a
    /// program at all.
    pub step_budget: Option<usize>,
    /// The analyzer's explanation when termination is not guaranteed —
    /// the NDL020/NDL021 finding, e.g. the special-edge cycle.
    pub diagnosis: Option<String>,
    /// Dataflow certificate (dead statements, null-free relations), when
    /// the analyzer derived one. Engines verify it against their actual
    /// inputs before exploiting it — see [`crate::cert`]. `None` means:
    /// no claims, nothing to verify or skip.
    pub cert: Option<crate::cert::DataflowCert>,
}

impl ChasePlan {
    /// The plan used when no analysis ran: natural firing order, assume
    /// termination (the historical single-pass engines cannot diverge).
    pub fn trusting(statements: usize) -> ChasePlan {
        ChasePlan {
            order: (0..statements).collect(),
            guaranteed_terminating: true,
            step_budget: None,
            diagnosis: None,
            cert: None,
        }
    }

    /// Normalizes `order` against a program of `n` statements: keeps the
    /// planned order (dropping out-of-range duplicates), then appends any
    /// statement the plan did not mention.
    pub fn firing_order(&self, n: usize) -> Vec<usize> {
        let mut seen = vec![false; n];
        let mut out = Vec::with_capacity(n);
        for &i in &self.order {
            if i < n && !seen[i] {
                seen[i] = true;
                out.push(i);
            }
        }
        out.extend((0..n).filter(|&i| !seen[i]));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trusting_plan_is_natural_order() {
        let p = ChasePlan::trusting(3);
        assert_eq!(p.firing_order(3), vec![0, 1, 2]);
        assert!(p.guaranteed_terminating);
        assert_eq!(p.step_budget, None);
    }

    #[test]
    fn firing_order_normalizes() {
        let p = ChasePlan {
            order: vec![2, 2, 9, 0],
            ..ChasePlan::trusting(0)
        };
        assert_eq!(p.firing_order(4), vec![2, 0, 1, 3]);
    }
}
