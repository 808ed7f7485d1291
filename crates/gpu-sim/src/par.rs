//! Strict parsing of the environment variables that choose how runs
//! execute: the `DAB_JOBS` sweep-worker count and the `DAB_ENGINE`
//! cycle-loop selector. An unparseable value is an operator error and is
//! rejected loudly instead of silently falling back to a default; the
//! variables of removed parallelization knobs stop the run if set.

use crate::config::EngineKind;

/// Environment variable selecting the cycle-loop implementation
/// (`dense` or `event`; see [`EngineKind`]).
pub const ENGINE_VAR: &str = "DAB_ENGINE";

/// Error from [`parse_count`]: a worker-count environment variable held
/// something other than a positive integer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountError {
    var: String,
    raw: String,
    reason: &'static str,
}

impl std::fmt::Display for CountError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} must be a positive integer, got {:?} ({}); unset it to use the default",
            self.var, self.raw, self.reason
        )
    }
}

impl std::error::Error for CountError {}

/// Strictly parses a worker-count environment value: a positive integer,
/// surrounding whitespace allowed. `0`, empty, and non-numeric values are
/// rejected — masking an operator typo by silently using a default has cost
/// hours before ("DAB_JOBS=O8").
///
/// # Errors
///
/// Returns a [`CountError`] naming `var` when `raw` is not a positive
/// integer.
///
/// # Examples
///
/// ```
/// use gpu_sim::par::parse_count;
///
/// assert_eq!(parse_count("DAB_JOBS", " 8 "), Ok(8));
/// assert!(parse_count("DAB_JOBS", "0").is_err());
/// assert!(parse_count("DAB_JOBS", "eight").is_err());
/// ```
pub fn parse_count(var: &str, raw: &str) -> Result<usize, CountError> {
    let err = |reason| {
        Err(CountError {
            var: var.to_string(),
            raw: raw.to_string(),
            reason,
        })
    };
    match raw.trim().parse::<usize>() {
        Ok(0) => err("zero workers cannot make progress"),
        Ok(n) => Ok(n),
        Err(_) => err("not an unsigned integer"),
    }
}

/// Environment variables earlier versions read to parallelize or batch
/// simulations and that no code reads any more. [`reject_removed_vars`]
/// refuses them, so an old script line cannot silently get a different
/// run.
pub const REMOVED_VARS: [&str; 3] = ["DAB_SIM_THREADS", "DAB_COMMIT_SHARD", "DAB_REPLICATIONS"];

/// Panics if any of [`REMOVED_VARS`] is set, to any value.
///
/// # Panics
///
/// Panics with a message naming the variable, saying it was removed and
/// pointing to `DAB_JOBS`.
pub fn reject_removed_vars() {
    if let Some(var) = REMOVED_VARS
        .iter()
        .find(|var| std::env::var_os(var).is_some())
    {
        panic!(
            "{var} was removed; unset it — sweep jobs run in parallel only \
             through DAB_JOBS, one simulation per thread"
        );
    }
}

/// Error from [`parse_engine`]: `DAB_ENGINE` held something other than
/// `dense` or `event`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineError {
    raw: String,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{ENGINE_VAR} must be \"dense\" or \"event\", got {:?}; unset it to use the default",
            self.raw
        )
    }
}

impl std::error::Error for EngineError {}

/// Strictly parses a `DAB_ENGINE` value: `dense` or `event`, surrounding
/// whitespace allowed. Anything else is rejected — same policy as
/// [`parse_count`].
///
/// # Errors
///
/// Returns an [`EngineError`] when `raw` names no engine.
///
/// # Examples
///
/// ```
/// use gpu_sim::config::EngineKind;
/// use gpu_sim::par::parse_engine;
///
/// assert_eq!(parse_engine(" dense "), Ok(EngineKind::Dense));
/// assert_eq!(parse_engine("event"), Ok(EngineKind::Event));
/// assert!(parse_engine("fast").is_err());
/// ```
pub fn parse_engine(raw: &str) -> Result<EngineKind, EngineError> {
    match raw.trim() {
        "dense" => Ok(EngineKind::Dense),
        "event" => Ok(EngineKind::Event),
        _ => Err(EngineError {
            raw: raw.to_string(),
        }),
    }
}

/// Reads `DAB_ENGINE`; absent means [`EngineKind::default`] (the event
/// engine).
///
/// # Panics
///
/// Panics with the [`EngineError`] message on an invalid value — a typo
/// must stop the run, not silently pick an engine.
pub fn engine_from_env() -> EngineKind {
    match std::env::var(ENGINE_VAR) {
        Ok(raw) => match parse_engine(&raw) {
            Ok(kind) => kind,
            Err(e) => panic!("{e}"),
        },
        Err(std::env::VarError::NotPresent) => EngineKind::default(),
        Err(e) => panic!("{ENGINE_VAR} is not valid unicode: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_count_accepts_positive_integers() {
        assert_eq!(parse_count("DAB_JOBS", "1"), Ok(1));
        assert_eq!(parse_count("DAB_JOBS", "64"), Ok(64));
        assert_eq!(parse_count("DAB_JOBS", "  4\n"), Ok(4));
    }

    #[test]
    fn parse_count_rejects_zero_and_garbage() {
        for bad in ["0", "", "abc", "-2", "3.5", "0x8", "O8"] {
            let err = parse_count("DAB_JOBS", bad)
                .expect_err("must reject")
                .to_string();
            assert!(
                err.contains("DAB_JOBS") && err.contains("positive integer"),
                "unhelpful error for {bad:?}: {err}"
            );
        }
    }

    #[test]
    fn count_error_reports_the_offending_value() {
        let err = parse_count("DAB_JOBS", "many").expect_err("must reject");
        assert!(err.to_string().contains("\"many\""));
    }

    #[test]
    fn parse_engine_accepts_both_engines() {
        assert_eq!(parse_engine("dense"), Ok(EngineKind::Dense));
        assert_eq!(parse_engine(" event\n"), Ok(EngineKind::Event));
    }

    #[test]
    fn parse_engine_rejects_garbage() {
        for bad in ["", "Dense", "EVENT", "fast", "dense,event", "1"] {
            let err = parse_engine(bad).expect_err("must reject").to_string();
            assert!(
                err.contains("DAB_ENGINE") && err.contains("dense"),
                "unhelpful error for {bad:?}: {err}"
            );
        }
    }
}
