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

/// A stratification of a firing order into conflict-free stages.
///
/// Each stage is a run of statement indices whose read/write relation
/// sets and Skolem-function footprints are pairwise disjoint, so the
/// statements of a stage can *match* concurrently. The concatenation of
/// the stages must equal the plan's firing order exactly — stages cut
/// the order into contiguous runs rather than reordering it — which is
/// what lets the parallel engine replay trigger resolution in the exact
/// sequential order and stay bit-identical (same NullIds, same rounds,
/// same derived counts). The schedule is a *certificate*, not a trusted
/// input: the engine re-derives statement footprints from the program
/// itself and rejects a schedule whose stages are not conflict-free
/// ([`crate::fixpoint::FixpointError::InvalidSchedule`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ParallelSchedule {
    /// Stages in execution order; each stage lists statement indices in
    /// firing order. Every stage must be non-empty.
    pub stages: Vec<Vec<usize>>,
}

impl ParallelSchedule {
    /// The degenerate schedule: every statement is its own stage, in the
    /// given firing order. Always a valid certificate.
    pub fn sequential(order: &[usize]) -> ParallelSchedule {
        ParallelSchedule {
            stages: order.iter().map(|&i| vec![i]).collect(),
        }
    }

    /// Widest stage (maximum statements matchable concurrently); 0 for an
    /// empty schedule.
    pub fn width(&self) -> usize {
        self.stages.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Total statements across all stages.
    pub fn len(&self) -> usize {
        self.stages.iter().map(Vec::len).sum()
    }

    /// True when the schedule has no stages.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Stage concatenation — must equal the plan's firing order for the
    /// schedule to certify bit-identical execution.
    pub fn flattened(&self) -> Vec<usize> {
        self.stages.iter().flatten().copied().collect()
    }
}

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
    /// Interference-free stage schedule for the parallel engine, when the
    /// analyzer computed one. `None` means: no schedule was derived; the
    /// parallel engine falls back to deriving its own from the program.
    pub schedule: Option<ParallelSchedule>,
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
            schedule: None,
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

    #[test]
    fn sequential_schedule_is_singleton_stages() {
        let s = ParallelSchedule::sequential(&[2, 0, 1]);
        assert_eq!(s.stages, vec![vec![2], vec![0], vec![1]]);
        assert_eq!(s.width(), 1);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.flattened(), vec![2, 0, 1]);
        assert!(ParallelSchedule::default().is_empty());
        assert_eq!(ParallelSchedule::default().width(), 0);
    }

    #[test]
    fn schedule_flattening_preserves_stage_order() {
        let s = ParallelSchedule {
            stages: vec![vec![0, 1], vec![2], vec![3, 4]],
        };
        assert_eq!(s.flattened(), vec![0, 1, 2, 3, 4]);
        assert_eq!(s.width(), 2);
    }
}
