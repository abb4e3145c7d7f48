//! Engine tuning knobs: worker-thread cap and the sequential cutoff below
//! which parallel dispatch is never worth its setup cost.
//!
//! Configuration is resolved from the environment **at every use** — there
//! is deliberately no process-wide cached global. A long-lived process
//! (the `ndl-serve` daemon) must see configuration changes and per-request
//! overrides; a `OnceLock` resolved at first use would freeze whatever the
//! first call happened to see for the lifetime of the process (the
//! process-lifetime hazard fixed in PR 9). The environment knobs:
//!
//! - `NDL_HOM_THREADS` — maximum worker threads for per-block searches and
//!   per-null retraction probes (`1` forces the sequential paths; unset
//!   defaults to [`std::thread::available_parallelism`]);
//! - `NDL_HOM_SEQUENTIAL_CUTOFF` — minimum number of facts in the search
//!   target before threads are spawned (default
//!   [`HomConfig::DEFAULT_SEQUENTIAL_CUTOFF`]).
//!
//! Programmatic override: set `NDL_HOM_THREADS` / `NDL_HOM_SEQUENTIAL_CUTOFF`
//! in the environment (re-read per call), or construct a [`HomConfig`]
//! where an explicit-config entry point exists. See `docs/performance.md`.

/// Tuning knobs of the homomorphism/core engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HomConfig {
    /// Maximum worker threads (1 = always sequential).
    pub threads: usize,
    /// Minimum total fact count before spawning worker threads.
    pub sequential_cutoff: usize,
}

impl Default for HomConfig {
    fn default() -> Self {
        HomConfig {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            sequential_cutoff: Self::DEFAULT_SEQUENTIAL_CUTOFF,
        }
    }
}

impl HomConfig {
    /// Default sequential cutoff: below this many facts, thread spawn and
    /// join overhead (~10µs each) exceeds the search work saved.
    pub const DEFAULT_SEQUENTIAL_CUTOFF: usize = 512;

    /// The defaults with any `NDL_HOM_THREADS` / `NDL_HOM_SEQUENTIAL_CUTOFF`
    /// environment overrides applied. Unparsable or zero values fall back
    /// to the defaults **and report a one-time warning** through
    /// [`ndl_obs::env`](mod@ndl_obs::env) — a typo'd override must not be
    /// silently ignored (front ends surface the warning, e.g. the `ndl`
    /// CLI on stderr).
    pub fn from_env() -> Self {
        Self::from_env_with(&|key| std::env::var(key).ok())
    }

    /// [`Self::from_env`] over an injected variable source — the testable
    /// entry point (process environment mutation is racy under the
    /// multi-threaded test harness).
    pub fn from_env_with(get: &dyn Fn(&str) -> Option<String>) -> Self {
        let mut cfg = HomConfig::default();
        if let Some(t) = ndl_obs::env::positive("NDL_HOM_THREADS", get) {
            cfg.threads = t;
        }
        if let Some(c) = ndl_obs::env::positive("NDL_HOM_SEQUENTIAL_CUTOFF", get) {
            cfg.sequential_cutoff = c;
        }
        cfg
    }

    /// How many workers to use for `work_items` independent searches over
    /// a target of `target_facts` facts: 1 below the cutoff, otherwise
    /// capped by the thread budget and the work available.
    pub fn effective_threads(&self, work_items: usize, target_facts: usize) -> usize {
        if target_facts < self.sequential_cutoff || work_items <= 1 {
            1
        } else {
            self.threads.min(work_items).max(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_has_positive_threads() {
        let cfg = HomConfig::default();
        assert!(cfg.threads >= 1);
        assert_eq!(cfg.sequential_cutoff, HomConfig::DEFAULT_SEQUENTIAL_CUTOFF);
    }

    #[test]
    fn effective_threads_respects_cutoff_and_cap() {
        let cfg = HomConfig {
            threads: 4,
            sequential_cutoff: 100,
        };
        // Below the cutoff: sequential.
        assert_eq!(cfg.effective_threads(8, 99), 1);
        // Above: capped by both budget and work items.
        assert_eq!(cfg.effective_threads(8, 1000), 4);
        assert_eq!(cfg.effective_threads(2, 1000), 2);
        assert_eq!(cfg.effective_threads(0, 1000), 1);
        assert_eq!(cfg.effective_threads(1, 1000), 1);
    }

    #[test]
    fn env_overrides_apply_and_bad_values_warn() {
        // Valid overrides apply without noise.
        let good = HomConfig::from_env_with(&|key| match key {
            "NDL_HOM_THREADS" => Some("3".to_string()),
            "NDL_HOM_SEQUENTIAL_CUTOFF" => Some(" 64 ".to_string()),
            _ => None,
        });
        assert_eq!(good.threads, 3);
        assert_eq!(good.sequential_cutoff, 64);
        assert!(!ndl_obs::warnings()
            .iter()
            .any(|w| w.key == "NDL_HOM_SEQUENTIAL_CUTOFF"));

        // Unparsable and zero values fall back to the defaults — and are
        // reported, not swallowed.
        let bad = HomConfig::from_env_with(&|key| match key {
            "NDL_HOM_THREADS" => Some("lots".to_string()),
            "NDL_HOM_SEQUENTIAL_CUTOFF" => Some("0".to_string()),
            _ => None,
        });
        assert_eq!(bad, HomConfig::default());
        let warned: Vec<String> = ndl_obs::warnings().into_iter().map(|w| w.key).collect();
        assert!(warned.iter().any(|k| k == "NDL_HOM_THREADS"));
        assert!(warned.iter().any(|k| k == "NDL_HOM_SEQUENTIAL_CUTOFF"));
        let msg = ndl_obs::warnings()
            .into_iter()
            .find(|w| w.key == "NDL_HOM_THREADS")
            .unwrap()
            .message;
        assert!(msg.contains("\"lots\""), "{msg}");
        assert!(msg.contains("positive integer"), "{msg}");
    }

    #[test]
    fn config_is_resolved_per_call_not_cached() {
        // Regression for the process-lifetime hazard: the configuration
        // used to be frozen in a `OnceLock` on first use, so a long-lived
        // process could never see a changed environment. `from_env_with`
        // consults its variable source every call — two calls with
        // different sources yield different configurations in the same
        // process.
        let a = HomConfig::from_env_with(&|key| match key {
            "NDL_HOM_THREADS" => Some("2".to_string()),
            _ => None,
        });
        let b = HomConfig::from_env_with(&|key| match key {
            "NDL_HOM_THREADS" => Some("5".to_string()),
            _ => None,
        });
        assert_eq!(a.threads, 2);
        assert_eq!(b.threads, 5);
    }
}
