//! Environment overrides for the engines' configuration types
//! (`ChaseConfig`, `HomConfig`): one parse-and-warn rule for all of them.
//!
//! A value that does not parse is ignored — the caller keeps its default —
//! and reported once through [`crate::warn_once`], keyed by the variable
//! name, so a typo'd override is never silently dropped. Variables are
//! read through an injected source (`std::env::var(key).ok()` in
//! production) rather than `std::env` directly: process environment
//! mutation is racy under the multi-threaded test harness, and callers
//! resolve their configuration at their own boundary (per call, never
//! cached process-wide).

use crate::warn_once;

/// The positive integer `key` holds, if it is set and parses; a set value
/// that is not a positive integer warns and counts as unset.
pub fn positive(key: &str, get: &dyn Fn(&str) -> Option<String>) -> Option<usize> {
    let raw = get(key)?;
    match raw.trim().parse::<usize>() {
        Ok(n) if n > 0 => Some(n),
        _ => {
            warn_once(
                key,
                format!("ignoring {key}={raw:?}: expected a positive integer, using the default"),
            );
            None
        }
    }
}

/// The boolean `key` holds (`1`/`true`/`on`/`yes` or
/// `0`/`false`/`off`/`no`, any case), if it is set and parses; any other
/// set value warns and counts as unset.
pub fn boolean(key: &str, get: &dyn Fn(&str) -> Option<String>) -> Option<bool> {
    let raw = get(key)?;
    match raw.trim().to_ascii_lowercase().as_str() {
        "1" | "true" | "on" | "yes" => Some(true),
        "0" | "false" | "off" | "no" => Some(false),
        _ => {
            warn_once(
                key,
                format!("ignoring {key}={raw:?}: expected a boolean (0/1), using the default"),
            );
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::with_warning_scope;

    fn one(key: &'static str, value: &'static str) -> impl Fn(&str) -> Option<String> {
        move |k| (k == key).then(|| value.to_string())
    }

    #[test]
    fn good_values_parse_without_warning() {
        let (got, warned) = with_warning_scope(|| {
            (
                positive("N", &one("N", " 64 ")),
                boolean("B", &one("B", "Off")),
                positive("N", &|_| None),
            )
        });
        assert_eq!(got, (Some(64), Some(false), None));
        assert!(warned.is_empty());
    }

    #[test]
    fn bad_values_warn_once_and_count_as_unset() {
        let (got, warned) = with_warning_scope(|| {
            (
                positive("N", &one("N", "0")),
                positive("N", &one("N", "lots")),
                boolean("B", &one("B", "maybe")),
            )
        });
        assert_eq!(got, (None, None, None));
        let lines: Vec<&str> = warned.iter().map(|w| w.message.as_str()).collect();
        assert_eq!(
            lines,
            [
                "ignoring N=\"0\": expected a positive integer, using the default",
                "ignoring B=\"maybe\": expected a boolean (0/1), using the default",
            ]
        );
    }
}
