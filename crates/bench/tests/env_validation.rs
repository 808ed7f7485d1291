//! Environment variables fail loudly on invalid or removed values.
//!
//! `DAB_JOBS` used to fall back to a default when unparseable, silently
//! turning a typo'd parallel run into a serial one. These tests pin the
//! strict behavior: garbage or zero panics with a message naming the
//! variable and the offending value; so does a `0`/`1` switch
//! (`DAB_QUIET`) holding anything else. A variable that was removed
//! (`gpu_sim::par::REMOVED_VARS`) panics too, so an old script line does
//! not silently get a different run.
//!
//! All cases mutate process-global environment variables, so they
//! serialize on one lock.

use std::panic::{catch_unwind, AssertUnwindSafe};

use dab_bench::{jobs_from_env, JOBS_VAR, QUIET_VAR};
use gpu_sim::par::REMOVED_VARS;

/// Serializes the tests in this file: they all mutate process-global
/// environment variables. `lock()` instead of a poisoning-prone `unwrap`
/// so one failing test doesn't cascade.
static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn panic_message<T>(f: impl FnOnce() -> T) -> Option<String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(_) => None,
        Err(payload) => Some(
            payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default(),
        ),
    }
}

#[test]
fn invalid_worker_counts_panic_with_context() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let saved_jobs = std::env::var(JOBS_VAR).ok();

    for bad in ["0", "abc", "", "-3", "1.5"] {
        std::env::set_var(JOBS_VAR, bad);
        let msg = panic_message(jobs_from_env)
            .unwrap_or_else(|| panic!("DAB_JOBS={bad:?} must panic, not fall back"));
        assert!(
            msg.contains(JOBS_VAR) && msg.contains("positive integer"),
            "unhelpful DAB_JOBS error for {bad:?}: {msg}"
        );
    }

    // Valid values parse; absent values use the documented default.
    std::env::set_var(JOBS_VAR, " 6 ");
    assert_eq!(jobs_from_env(), 6);
    std::env::remove_var(JOBS_VAR);
    assert!(jobs_from_env() >= 1, "absent falls back to the machine");

    match saved_jobs {
        Some(v) => std::env::set_var(JOBS_VAR, v),
        None => std::env::remove_var(JOBS_VAR),
    }
}

#[test]
fn invalid_quiet_flag_stops_the_runner() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let saved = std::env::var_os(QUIET_VAR);

    std::env::set_var(QUIET_VAR, "garbage");
    let msg = panic_message(dab_bench::Runner::from_env)
        .unwrap_or_else(|| panic!("DAB_QUIET=\"garbage\" must stop the runner"));
    assert!(
        msg.contains(QUIET_VAR) && msg.contains("\"garbage\""),
        "unhelpful DAB_QUIET error: {msg}"
    );
    // Both switch positions are accepted.
    for ok in ["0", " 1 "] {
        std::env::set_var(QUIET_VAR, ok);
        let _ = dab_bench::Runner::from_env();
    }

    match saved {
        Some(v) => std::env::set_var(QUIET_VAR, v),
        None => std::env::remove_var(QUIET_VAR),
    }
}

#[test]
fn removed_variables_are_rejected() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let saved: Vec<_> = REMOVED_VARS
        .iter()
        .map(|var| (var, std::env::var_os(var)))
        .collect();
    for var in REMOVED_VARS {
        std::env::remove_var(var);
    }
    // Unset, nothing is rejected.
    let _ = dab_bench::Runner::from_env();

    for var in REMOVED_VARS {
        // Any value is rejected, including one the old engine accepted.
        for value in ["1", "0", "garbage"] {
            std::env::set_var(var, value);
            let msg = panic_message(dab_bench::Runner::from_env)
                .unwrap_or_else(|| panic!("{var}={value:?} must be rejected"));
            assert!(
                msg.contains(var) && msg.contains("removed") && msg.contains("DAB_JOBS"),
                "unhelpful error for {var}={value:?}: {msg}"
            );
        }
        std::env::remove_var(var);
    }

    for (var, value) in saved {
        match value {
            Some(v) => std::env::set_var(var, v),
            None => std::env::remove_var(var),
        }
    }
}
