//! The execution context every kernel call takes.
//!
//! An [`Exec`] says *how* a call runs — whether it can be cancelled, where
//! its work counters go, how many threads it uses, which accumulator it
//! picks per row and whether it runs out of core — and never *what* it
//! computes. The kernels are bit-deterministic across every one of these
//! settings (DESIGN.md §12, §16, §17), so an `Exec` never reaches a cache
//! key (enforced by the `cache-key-purity` lint). Output-changing
//! parameters — prune thresholds, the nnz budget — live in the kernels'
//! option structs instead.

use crate::accum::AccumStrategy;
use crate::cancel::CancelToken;
use crate::error::SparseError;
use crate::panel::PanelPlan;
use crate::Result;
use symclust_obs::MetricsRegistry;

/// Thread-count knob: `0` = one thread per core, `1` = serial.
const THREADS_ENV: &str = "SYMCLUST_THREADS";
/// Accumulator-strategy knob: `adaptive`, `dense` or `sparse`.
const ACCUM_ENV: &str = "SYMCLUST_ACCUM";
/// Panel size in rows; engages the out-of-core path.
const PANEL_ROWS_ENV: &str = "SYMCLUST_PANEL_ROWS";
/// Spill byte budget; engages the out-of-core path.
const MEMORY_BUDGET_ENV: &str = "SYMCLUST_MEMORY_BUDGET";

/// How a kernel call runs: cancellation, metrics, threads, accumulator
/// strategy and panel plan, passed once as `&Exec`.
#[derive(Debug, Clone)]
pub struct Exec {
    /// Polled between output rows (and iterations); a tripped token fails
    /// the call with [`SparseError::Cancelled`]. `None` never cancels.
    pub token: Option<CancelToken>,
    /// Registry the kernels flush their work counters into, once per call.
    /// `None` records nothing.
    pub metrics: Option<MetricsRegistry>,
    /// SpGEMM worker threads: `1` runs serially, `0` uses one thread per
    /// available core, `n` uses exactly `n`.
    pub threads: usize,
    /// Per-row accumulator strategy (see [`crate::accum`]).
    pub accum: AccumStrategy,
    /// Out-of-core panel plan (see [`crate::panel`]); disengaged runs the
    /// multiply in memory.
    pub panel: PanelPlan,
}

impl Default for Exec {
    /// The production default: the environment knobs where set and valid,
    /// else serial, adaptive and in memory, with no token and no metrics.
    /// A bad knob value reads as unset here; front ends call
    /// [`Exec::from_env`] first so it fails loudly instead.
    fn default() -> Self {
        Exec::read_env().0
    }
}

impl Exec {
    /// Reads `SYMCLUST_THREADS`, `SYMCLUST_ACCUM`, `SYMCLUST_PANEL_ROWS`
    /// and `SYMCLUST_MEMORY_BUDGET`. Unset or empty variables keep the
    /// defaults (a zero panel size or budget also means "unset"); a value
    /// that does not parse is an [`SparseError::InvalidArgument`] naming
    /// the variable and the value.
    pub fn from_env() -> Result<Exec> {
        match Exec::read_env() {
            (exec, None) => Ok(exec),
            (_, Some(bad)) => Err(bad),
        }
    }

    /// The single parser behind [`Exec::from_env`] and [`Exec::default`]:
    /// every knob that fails to parse reads as unset, and the first such
    /// failure is returned alongside.
    fn read_env() -> (Exec, Option<SparseError>) {
        let mut bad = None;
        let exec = Exec {
            token: None,
            metrics: None,
            threads: env_knob(THREADS_ENV, "a thread count", &mut bad).unwrap_or(1),
            accum: env_knob(ACCUM_ENV, "adaptive, dense or sparse", &mut bad).unwrap_or_default(),
            panel: PanelPlan {
                panel_rows: env_knob(PANEL_ROWS_ENV, "a row count", &mut bad).filter(|&r| r > 0),
                spill_dir: None,
                budget_bytes: env_knob(MEMORY_BUDGET_ENV, "a byte count", &mut bad)
                    .filter(|&b| b > 0),
            },
        };
        (exec, bad)
    }

    /// Poll point: `Err(SparseError::Cancelled)` once the token tripped.
    #[inline]
    pub fn checkpoint(&self) -> Result<()> {
        match &self.token {
            Some(t) => t.checkpoint(),
            None => Ok(()),
        }
    }

    /// The metrics registry, if any.
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.metrics.as_ref()
    }
}

/// Parses environment variable `name`; unset or blank is `None`. A value
/// that does not parse is also `None`, and records the first such failure
/// in `bad`.
fn env_knob<T: std::str::FromStr>(
    name: &str,
    expected: &str,
    bad: &mut Option<SparseError>,
) -> Option<T> {
    let raw = match std::env::var(name) {
        Ok(raw) => raw,
        Err(std::env::VarError::NotPresent) => return None,
        Err(std::env::VarError::NotUnicode(raw)) => {
            bad.get_or_insert(SparseError::InvalidArgument(format!(
                "{name}={raw:?} is not valid unicode; expected {expected}"
            )));
            return None;
        }
    };
    if raw.trim().is_empty() {
        return None;
    }
    let parsed = raw.trim().parse().ok();
    if parsed.is_none() {
        bad.get_or_insert(SparseError::InvalidArgument(format!(
            "{name}={raw:?} is not valid; expected {expected}"
        )));
    }
    parsed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bad_knob_is_reported_with_name_and_value() {
        // A variable name no other test or CI stage sets, so this test
        // cannot race the real knobs.
        const VAR: &str = "SYMCLUST_EXEC_TEST_KNOB";
        let mut bad = None;
        std::env::set_var(VAR, "four");
        assert_eq!(env_knob::<usize>(VAR, "a count", &mut bad), None);
        let msg = bad.expect("bad value reported").to_string();
        assert!(msg.contains(VAR) && msg.contains("four"), "{msg}");

        let mut bad = None;
        std::env::set_var(VAR, "  ");
        assert_eq!(env_knob::<usize>(VAR, "a count", &mut bad), None);
        std::env::set_var(VAR, " 3 ");
        assert_eq!(env_knob::<usize>(VAR, "a count", &mut bad), Some(3));
        std::env::remove_var(VAR);
        assert_eq!(env_knob::<usize>(VAR, "a count", &mut bad), None);
        assert!(bad.is_none());
    }
}
