//! Chase configuration: which fixpoint engine front ends default to.
//!
//! Configuration is an explicit **value threaded through the front ends**
//! — there is deliberately no process-wide cached global. A long-lived
//! process (the `ndl-serve` daemon) must be able to apply a different
//! configuration to every request; a `OnceLock` resolved at first use
//! would freeze whatever the first request happened to see for the
//! lifetime of the process.
//! Front ends resolve the environment exactly once, at their own boundary,
//! via [`ChaseConfig::from_env`]:
//!
//! - `NDL_CHASE_DELTA` — whether front ends default to the semi-naive
//!   delta engine ([`crate::delta::chase_fixpoint_delta`]); `0`/`false`/
//!   `off` selects the naive rescan engine
//!   ([`crate::fixpoint::chase_fixpoint`], the oracle) (default on).
//!
//! The tuning settings of the removed parallel engines
//! (`NDL_CHASE_THREADS`, `NDL_CHASE_SHARDS`, `NDL_CHASE_SEQUENTIAL_CUTOFF`)
//! are still accepted, ignored, and reported once through
//! [`warn_retired`]; the output does not depend on them. Library callers
//! never consult the environment implicitly. See `docs/performance.md`.

/// Which fixpoint engine the front ends run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaseConfig {
    /// Do front ends default to the semi-naive delta engine? Engines are
    /// selected by function, so this gates defaults (the `ndl chase` CLI),
    /// not library calls.
    pub delta: bool,
}

impl Default for ChaseConfig {
    fn default() -> Self {
        ChaseConfig { delta: true }
    }
}

/// Environment variables of the removed parallel engines: accepted,
/// ignored, and reported by [`warn_retired`].
const RETIRED_ENV: [&str; 3] = [
    "NDL_CHASE_THREADS",
    "NDL_CHASE_SHARDS",
    "NDL_CHASE_SEQUENTIAL_CUTOFF",
];

/// Reports, once per `key` (per process, or per daemon request under a
/// warning scope), that the parallel-engine setting `shown` is ignored.
pub fn warn_retired(key: &str, shown: &str) {
    ndl_obs::warn_once(
        key,
        format!("ignoring {shown}: the parallel chase engines were removed, so it has no effect"),
    );
}

impl ChaseConfig {
    /// The defaults with an `NDL_CHASE_DELTA` environment override
    /// applied. An unparsable value falls back to the default **and
    /// reports a one-time warning** through [`ndl_obs::env`](mod@ndl_obs::env); a set
    /// parallel-engine variable is reported by [`warn_retired`]. Front
    /// ends surface the warnings (the `ndl` CLI on stderr).
    pub fn from_env() -> Self {
        Self::from_env_with(&|key| std::env::var(key).ok())
    }

    /// [`Self::from_env`] over an injected variable source — the testable
    /// entry point (process environment mutation is racy under the
    /// multi-threaded test harness).
    pub fn from_env_with(get: &dyn Fn(&str) -> Option<String>) -> Self {
        let mut cfg = ChaseConfig::default();
        if let Some(d) = ndl_obs::env::boolean("NDL_CHASE_DELTA", get) {
            cfg.delta = d;
        }
        for key in RETIRED_ENV {
            if let Some(raw) = get(key) {
                warn_retired(key, &format!("{key}={raw:?}"));
            }
        }
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndl_obs::with_warning_scope;

    #[test]
    fn delta_override_applies_and_bad_values_warn() {
        let off =
            ChaseConfig::from_env_with(&|key| (key == "NDL_CHASE_DELTA").then(|| "off".into()));
        assert!(!off.delta);
        let (bad, warned) = with_warning_scope(|| {
            ChaseConfig::from_env_with(&|key| (key == "NDL_CHASE_DELTA").then(|| "maybe".into()))
        });
        assert_eq!(bad, ChaseConfig::default());
        assert_eq!(warned.len(), 1);
        assert_eq!(
            warned[0].message,
            "ignoring NDL_CHASE_DELTA=\"maybe\": expected a boolean (0/1), using the default"
        );
    }

    #[test]
    fn retired_settings_are_ignored_with_one_warning_each() {
        let (cfg, warned) = with_warning_scope(|| {
            ChaseConfig::from_env_with(&|key| match key {
                "NDL_CHASE_THREADS" => Some("3".to_string()),
                "NDL_CHASE_SHARDS" => Some("many".to_string()),
                "NDL_CHASE_SEQUENTIAL_CUTOFF" => Some("1".to_string()),
                _ => None,
            })
        });
        assert_eq!(cfg, ChaseConfig::default());
        let keys: Vec<&str> = warned.iter().map(|w| w.key.as_str()).collect();
        assert_eq!(keys, RETIRED_ENV);
        assert_eq!(
            warned[0].message,
            "ignoring NDL_CHASE_THREADS=\"3\": the parallel chase engines were removed, \
             so it has no effect"
        );
    }
}
