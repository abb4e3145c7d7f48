//! A process-wide, one-time warning registry.
//!
//! Configuration code often runs once, early, and with no observer in
//! sight — e.g. the hom engine reporting a retired `NDL_HOM_THREADS`
//! setting at its entry points. When such code must report a problem it calls
//! [`warn_once`]; front ends ([`crate::take_warnings`]) surface the
//! collected warnings at a convenient point (the `ndl` CLI prints them to
//! stderr after each command). Each key warns at most once per process, so
//! a misconfigured environment variable read on every engine call does not
//! flood the log.

//! Long-lived multi-tenant front ends (the `ndl-serve` daemon) need a
//! different surfacing discipline: the *second* tenant hitting a
//! misconfigured environment must still see the warning in *its* response,
//! which the process-wide dedup would suppress. [`with_warning_scope`]
//! installs a thread-local capture scope for the duration of one request:
//! warnings raised on that thread are collected (deduplicated per scope,
//! not per process) and returned to the caller instead of entering the
//! global registry.

use std::cell::RefCell;
use std::sync::{Mutex, OnceLock};

/// One recorded warning.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Warning {
    /// Deduplication key, e.g. the environment variable name.
    pub key: String,
    /// Human-readable message.
    pub message: String,
}

fn registry() -> &'static Mutex<Vec<Warning>> {
    static REGISTRY: OnceLock<Mutex<Vec<Warning>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    /// The active capture scope of this thread, if any. `Some` while a
    /// [`with_warning_scope`] call is on the stack.
    static SCOPE: RefCell<Option<Vec<Warning>>> = const { RefCell::new(None) };
}

/// Runs `f` with a thread-local warning capture scope and returns its
/// result together with the warnings raised on this thread during the
/// call. Within the scope, [`warn_once`] deduplicates per *scope* rather
/// than per process — the same misconfiguration warns again in every
/// scope, which is what per-request surfacing needs. Captured warnings
/// never reach the process-wide registry. Scopes nest: an inner scope
/// captures into itself and restores the outer scope on exit (also on
/// panic).
pub fn with_warning_scope<T>(f: impl FnOnce() -> T) -> (T, Vec<Warning>) {
    struct Restore(Option<Vec<Warning>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCOPE.with(|s| *s.borrow_mut() = self.0.take());
        }
    }
    let outer = SCOPE.with(|s| s.borrow_mut().replace(Vec::new()));
    let restore = Restore(outer);
    let out = f();
    let captured = SCOPE.with(|s| s.borrow_mut().take()).unwrap_or_default();
    drop(restore);
    (out, captured)
}

/// Records a warning unless one with the same `key` was already recorded
/// (including already-taken ones). Returns whether it was recorded.
///
/// Under a [`with_warning_scope`] on the current thread, the warning is
/// captured by the scope instead (deduplicated against the scope only).
pub fn warn_once(key: &str, message: impl Into<String>) -> bool {
    let message = message.into();
    let scoped = SCOPE.with(|s| {
        s.borrow_mut().as_mut().map(|captured| {
            if captured.iter().any(|w| w.key == key) {
                false
            } else {
                captured.push(Warning {
                    key: key.to_string(),
                    message: message.clone(),
                });
                true
            }
        })
    });
    if let Some(recorded) = scoped {
        return recorded;
    }
    let mut reg = registry().lock().expect("warning registry");
    if reg.iter().any(|w| w.key == key) {
        return false;
    }
    reg.push(Warning {
        key: key.to_string(),
        message,
    });
    true
}

/// A snapshot of all recorded warnings, in recording order (taken ones
/// included — the registry remembers keys for deduplication).
pub fn warnings() -> Vec<Warning> {
    registry().lock().expect("warning registry").clone()
}

/// Returns the warnings not yet taken and marks them taken. Keys stay
/// registered, so [`warn_once`] still deduplicates against them.
pub fn take_warnings() -> Vec<Warning> {
    static TAKEN: OnceLock<Mutex<usize>> = OnceLock::new();
    let reg = registry().lock().expect("warning registry");
    let mut taken = TAKEN
        .get_or_init(|| Mutex::new(0))
        .lock()
        .expect("taken cursor");
    let fresh = reg[*taken..].to_vec();
    *taken = reg.len();
    fresh
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warn_once_deduplicates_by_key() {
        assert!(warn_once("TEST_KEY_A", "first"));
        assert!(!warn_once("TEST_KEY_A", "second"));
        let hits: Vec<Warning> = warnings()
            .into_iter()
            .filter(|w| w.key == "TEST_KEY_A")
            .collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].message, "first");
    }

    #[test]
    fn scopes_capture_and_rededuplicate_per_scope() {
        // The same key warns in *both* scopes (per-scope dedup), is
        // deduplicated *within* a scope, and never leaks to the global
        // registry.
        let ((), first) = with_warning_scope(|| {
            assert!(warn_once("TEST_KEY_SCOPE", "request one"));
            assert!(!warn_once("TEST_KEY_SCOPE", "duplicate"));
        });
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].message, "request one");
        let ((), second) = with_warning_scope(|| {
            assert!(warn_once("TEST_KEY_SCOPE", "request two"));
        });
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].message, "request two");
        assert!(
            warnings().iter().all(|w| w.key != "TEST_KEY_SCOPE"),
            "scoped warnings must not reach the process registry"
        );
        // Outside any scope the global registry still works and still
        // deduplicates process-wide.
        assert!(warn_once("TEST_KEY_SCOPE", "global"));
        assert!(!warn_once("TEST_KEY_SCOPE", "global again"));
    }

    #[test]
    fn scopes_restore_on_nesting() {
        let ((inner_res, inner), outer) = with_warning_scope(|| {
            warn_once("TEST_KEY_OUTER", "outer");
            let r = with_warning_scope(|| {
                warn_once("TEST_KEY_INNER", "inner");
                7
            });
            warn_once("TEST_KEY_OUTER2", "outer again");
            r
        });
        assert_eq!(inner_res, 7);
        assert_eq!(inner.len(), 1);
        assert_eq!(inner[0].key, "TEST_KEY_INNER");
        let keys: Vec<&str> = outer.iter().map(|w| w.key.as_str()).collect();
        assert_eq!(keys, ["TEST_KEY_OUTER", "TEST_KEY_OUTER2"]);
    }

    #[test]
    fn take_returns_each_warning_once() {
        warn_once("TEST_KEY_TAKE", "only");
        // No other test takes, so the first take after recording must
        // surface our key exactly once, and later takes must not repeat it.
        let count = |v: &[Warning]| v.iter().filter(|w| w.key == "TEST_KEY_TAKE").count();
        assert_eq!(count(&take_warnings()), 1);
        assert_eq!(count(&take_warnings()), 0);
        assert!(!warn_once("TEST_KEY_TAKE", "again"));
    }
}
