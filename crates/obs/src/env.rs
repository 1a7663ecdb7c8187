//! Environment-knob parsing with once-per-process malformed-value warnings.
//!
//! Every `IST_*` knob shares the same failure contract: an unset or blank
//! variable silently takes the default, but a *malformed* value warns on
//! stderr — naming the variable, the rejected value, why, and the fallback
//! used — exactly once per process per variable, then takes the fallback.
//! Hot paths read these knobs once at startup, so there is no caching
//! layer; the once-guard exists because some call sites (config
//! constructors, respawning scorer incarnations) re-read the environment
//! repeatedly.

use std::collections::BTreeSet;
use std::fmt::Display;
use std::str::FromStr;
use std::sync::{Mutex, OnceLock};

use crate::lock_tolerant;

fn warned() -> &'static Mutex<BTreeSet<String>> {
    static WARNED: OnceLock<Mutex<BTreeSet<String>>> = OnceLock::new();
    WARNED.get_or_init(|| Mutex::new(BTreeSet::new()))
}

/// Variables that have warned so far this process (test hook).
pub fn warned_vars() -> Vec<String> {
    lock_tolerant(warned()).iter().cloned().collect()
}

/// Prints `warning: {msg}` on stderr the first time `name` warns in this
/// process; later warnings for `name` are dropped.
pub fn warn_once(name: &str, msg: impl Display) {
    if lock_tolerant(warned()).insert(name.to_string()) {
        eprintln!("warning: {msg}");
    }
}

/// The trimmed value of `name`; `None` when it is unset, blank or not
/// UTF-8.
pub fn value(name: &str) -> Option<String> {
    let v = std::env::var(name).ok()?;
    Some(v.trim().to_string()).filter(|v| !v.is_empty())
}

/// `parse` applied to [`value`]`(name)`: `None` when unset. A value `parse`
/// rejects (a bad spec, an unwritable path, a busy port) warns once
/// ([`warn_once`]), naming the variable, the value, why and the `fallback`
/// the caller then takes, and yields `None`.
pub fn parsed<T>(
    name: &str,
    fallback: impl Display,
    parse: impl FnOnce(&str) -> Result<T, String>,
) -> Option<T> {
    let v = value(name)?;
    let warn = |why| {
        warn_once(
            name,
            format!("ignoring {name}={v:?} ({why}); using {fallback}"),
        )
    };
    parse(&v).map_err(warn).ok()
}

/// `name` parsed as a `T` that `valid` accepts. Unset → `default`
/// silently; malformed or invalid → one `ignoring malformed` warning per
/// process per variable (with `need` after the value), then `default`.
fn malformed_or<T: FromStr + Display>(
    name: &str,
    default: T,
    need: &str,
    valid: impl Fn(&T) -> bool,
) -> T {
    let Some(v) = value(name) else {
        return default;
    };
    v.parse().ok().filter(valid).unwrap_or_else(|| {
        let msg = format!("ignoring malformed {name}={v:?}{need}; using the default {default}");
        warn_once(name, msg);
        default
    })
}

/// Parses `name` as a `T`. Unset → `default` silently; malformed → one
/// warning per process per variable, then `default`.
pub fn parse_or<T: FromStr + Display>(name: &str, default: T) -> T {
    malformed_or(name, default, "", |_| true)
}

/// [`parse_or`] for `usize` knobs that must be strictly positive (ring
/// capacities, the pool size and the like): `0` is rejected with the same
/// once-per-process warning as a parse failure.
pub fn positive_usize_or(name: &str, default: usize) -> usize {
    malformed_or(name, default, " (need a positive integer)", |n| *n > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn malformed_values_warn_once_and_fall_back() {
        // Env mutation is process-global; the vars here are unique to this
        // test, so no lock is needed beyond uniqueness.
        std::env::set_var("IST_TEST_ENV_BAD", "not-a-number");
        assert_eq!(parse_or("IST_TEST_ENV_BAD", 7), 7);
        assert_eq!(parse_or("IST_TEST_ENV_BAD", 7), 7);
        let warns = warned_vars()
            .iter()
            .filter(|w| w.as_str() == "IST_TEST_ENV_BAD")
            .count();
        assert_eq!(warns, 1, "the once-guard must dedupe repeat parses");
        std::env::remove_var("IST_TEST_ENV_BAD");
    }

    #[test]
    fn unset_blank_and_valid_values_never_warn() {
        assert_eq!(parse_or("IST_TEST_ENV_UNSET", 3), 3);
        std::env::set_var("IST_TEST_ENV_OK", " 42 ");
        assert_eq!(parse_or("IST_TEST_ENV_OK", 3), 42);
        std::env::set_var("IST_TEST_ENV_BLANK", "  ");
        assert_eq!(parse_or("IST_TEST_ENV_BLANK", 2.5), 2.5);
        for var in ["UNSET", "OK", "BLANK"] {
            assert!(!warned_vars().contains(&format!("IST_TEST_ENV_{var}")));
        }
        std::env::remove_var("IST_TEST_ENV_OK");
        std::env::remove_var("IST_TEST_ENV_BLANK");
    }

    #[test]
    fn zero_is_rejected_for_positive_knobs() {
        std::env::set_var("IST_TEST_ENV_ZERO", "0");
        assert_eq!(positive_usize_or("IST_TEST_ENV_ZERO", 9), 9);
        assert!(warned_vars().iter().any(|w| w == "IST_TEST_ENV_ZERO"));
        std::env::remove_var("IST_TEST_ENV_ZERO");
    }

    #[test]
    fn rejected_text_knobs_warn_and_yield_none() {
        std::env::set_var("IST_TEST_ENV_SPEC", "bogus");
        let parse = |v: &str| Err::<u8, _>(format!("no such thing {v}"));
        assert_eq!(parsed("IST_TEST_ENV_SPEC", "nothing", parse), None);
        assert!(warned_vars().iter().any(|w| w == "IST_TEST_ENV_SPEC"));
        std::env::remove_var("IST_TEST_ENV_SPEC");
    }
}
