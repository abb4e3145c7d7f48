//! The retired tuning settings of the homomorphism/core engine.
//!
//! The engine is sequential. Its worker-thread paths (per-block searches
//! and per-null retraction probes on `std::thread::scope` workers) lost to
//! the sequential paths on a 2-CPU host in `bench_hom` and were removed
//! (see `docs/performance.md`). The environment variables that tuned them
//! — `NDL_HOM_THREADS` and `NDL_HOM_SEQUENTIAL_CUTOFF` — are still
//! accepted, ignored, and reported once each through
//! [`ndl_obs::warn_once`] whenever the engine runs; the output does not
//! depend on them. Front ends surface the warnings (the `ndl` CLI on
//! stderr, the daemon in the response of the request that ran the
//! engine).

/// Environment variables of the removed worker-thread paths: accepted,
/// ignored, and reported by [`warn_retired_env`].
pub const RETIRED_ENV: [&str; 2] = ["NDL_HOM_THREADS", "NDL_HOM_SEQUENTIAL_CUTOFF"];

/// Reports, once per variable (per process, or per daemon request under a
/// warning scope), each set variable of [`RETIRED_ENV`].
pub fn warn_retired_env() {
    warn_retired_env_with(&|key| std::env::var(key).ok());
}

/// [`warn_retired_env`] over an injected variable source — the testable
/// entry point (process environment mutation is racy under the
/// multi-threaded test harness).
pub fn warn_retired_env_with(get: &dyn Fn(&str) -> Option<String>) {
    for key in RETIRED_ENV {
        if let Some(raw) = get(key) {
            ndl_obs::warn_once(
                key,
                format!(
                    "ignoring {key}={raw:?}: the core engine's worker threads were removed, \
                     so it has no effect"
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndl_obs::with_warning_scope;

    #[test]
    fn retired_settings_are_ignored_with_one_warning_each() {
        let get = |key: &str| match key {
            "NDL_HOM_THREADS" => Some("lots".to_string()),
            "NDL_HOM_SEQUENTIAL_CUTOFF" => Some("1".to_string()),
            _ => None,
        };
        let ((), warned) = with_warning_scope(|| {
            warn_retired_env_with(&get);
            warn_retired_env_with(&get);
        });
        let keys: Vec<&str> = warned.iter().map(|w| w.key.as_str()).collect();
        assert_eq!(keys, RETIRED_ENV);
        assert_eq!(
            warned[0].message,
            "ignoring NDL_HOM_THREADS=\"lots\": the core engine's worker threads were removed, \
             so it has no effect"
        );
        let ((), quiet) = with_warning_scope(|| warn_retired_env_with(&|_| None));
        assert!(quiet.is_empty());
    }
}
