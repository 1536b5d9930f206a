//! Property tests for the out-of-core 2D panel-partitioned SpGEMM path.
//!
//! The contract under test (DESIGN.md §17): for any panel size, any spill
//! byte budget and any thread count, the panel path produces output
//! **bit-identical** to the in-memory kernels — same matrix, same
//! deterministic work counters — and the `spgemm.panels` /
//! `spgemm.panel_spills` / `spgemm.spill_bytes` counters are a pure
//! function of the input, panel size and budget (never of scheduling).
//! Scratch files must be gone after every exit: success, worker panic,
//! and cancellation.
//!
//! Inputs come from the same hand-rolled 64-bit LCG as the other sparse
//! property tests so every run exercises byte-for-byte the same matrices.

use symclust_obs::MetricsRegistry;
use symclust_sparse::ops::transpose;
use symclust_sparse::spgemm::metric_names;
use symclust_sparse::{
    spgemm, spgemm_syrk_sum, CancelToken, CsrMatrix, Exec, PanelPlan, SparseError, SpgemmOptions,
    SyrkTerm,
};

/// Minimal deterministic generator: Knuth's 64-bit LCG constants.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }
}

/// Width-skewed random matrix (hubs + near-empty rows) so tiles differ
/// wildly in size and the per-tile byte estimates land on both sides of
/// any budget under test. Values are signed multiples of 0.125 so
/// thresholds and the `v != 0.0` emission filter both bite.
fn skewed_matrix(n_rows: usize, n_cols: usize, seed: u64) -> CsrMatrix {
    let mut rng = Lcg(seed);
    let mut rows = vec![vec![0.0f64; n_cols]; n_rows];
    for row in rows.iter_mut() {
        let keep_mod = if rng.next().is_multiple_of(8) { 2 } else { 32 };
        for v in row.iter_mut() {
            let r = rng.next();
            if r.is_multiple_of(keep_mod) {
                let mag = ((r >> 32) % 8 + 1) as f64 * 0.125;
                *v = if r.is_multiple_of(3) { -mag } else { mag };
            }
        }
    }
    CsrMatrix::from_dense(&rows)
}

const SEEDS: [u64; 3] = [0x243F6A8885A308D3, 0x9E3779B97F4A7C15, 0xB7E151628AED2A6A];

/// Panel-row sweep: single-row tiles, a prime that never divides the
/// dimensions, and a size bigger than most test matrices (one panel).
const PANEL_ROWS: [usize; 3] = [1, 7, 64];

/// Budget sweep: spill everything, spill nothing, and unset (in-memory
/// tiles but still the panel code path).
const BUDGETS: [Option<usize>; 3] = [Some(1), Some(100_000_000), None];

/// True in-memory baseline: pins the plan to disengaged so the reference
/// stays the classic kernels even when `SYMCLUST_PANEL_ROWS` is exported
/// (as the CI oom-matrix stage does).
fn baseline_exec() -> Exec {
    Exec {
        threads: 0,
        panel: PanelPlan::default(),
        ..Exec::default()
    }
}

fn panel_exec(panel_rows: usize, budget: Option<usize>) -> Exec {
    Exec {
        threads: 0,
        panel: PanelPlan {
            panel_rows: Some(panel_rows),
            spill_dir: None,
            budget_bytes: budget,
        },
        ..Exec::default()
    }
}

fn mul(a: &CsrMatrix, b: &CsrMatrix, exec: &Exec) -> CsrMatrix {
    spgemm(a, b, &SpgemmOptions::default(), exec).unwrap()
}

#[test]
fn general_kernel_panel_matches_in_memory_across_sizes_and_budgets() {
    for &seed in &SEEDS {
        let a = skewed_matrix(72, 64, seed);
        let b = skewed_matrix(64, 56, seed ^ 0xDEADBEEF);
        let reference = mul(&a, &b, &baseline_exec());
        for panel_rows in PANEL_ROWS {
            for budget in BUDGETS {
                for n_threads in [1, 4] {
                    let mut e = panel_exec(panel_rows, budget);
                    e.threads = n_threads;
                    let c = mul(&a, &b, &e);
                    assert_eq!(
                        reference, c,
                        "seed {seed:#x} panel_rows {panel_rows} budget {budget:?} \
                         threads {n_threads}"
                    );
                }
            }
        }
    }
}

#[test]
fn syrk_sum_panel_matches_in_memory_across_thresholds() {
    for &seed in &SEEDS[..2] {
        let x = skewed_matrix(56, 48, seed);
        let y = skewed_matrix(56, 40, seed ^ 0xA5A5A5A5);
        let (xt, yt) = (transpose(&x), transpose(&y));
        let terms = [SyrkTerm { x: &x, xt: &xt }, SyrkTerm { x: &y, xt: &yt }];
        for threshold in [0.0, 0.5] {
            for drop_diagonal in [false, true] {
                let o = SpgemmOptions {
                    threshold,
                    drop_diagonal,
                    ..Default::default()
                };
                let reference = spgemm_syrk_sum(&terms, &o, &baseline_exec()).unwrap();
                for panel_rows in PANEL_ROWS {
                    for budget in [Some(1), None] {
                        let mut e = panel_exec(panel_rows, budget);
                        e.threads = 4;
                        let c = spgemm_syrk_sum(&terms, &o, &e).unwrap();
                        assert_eq!(
                            reference, c,
                            "seed {seed:#x} threshold {threshold} drop {drop_diagonal} \
                             panel_rows {panel_rows} budget {budget:?}"
                        );
                    }
                }
            }
        }
    }
}

/// The deterministic work counters (rows, flops, nnz, accumulator mix)
/// must not change when the multiply goes out of core, and the three
/// panel counters must be identical for serial and parallel runs of the
/// same configuration — the spill plan is decided before execution.
#[test]
fn work_and_panel_counters_are_scheduling_independent() {
    const WORK_KEYS: &[&str] = &[
        metric_names::ROWS,
        metric_names::FLOPS,
        metric_names::NNZ_INTERMEDIATE,
        metric_names::NNZ_FINAL,
        metric_names::THRESHOLD_DROPPED,
        metric_names::ROWS_DENSE,
        metric_names::ROWS_SPARSE,
    ];
    let a = skewed_matrix(96, 96, SEEDS[0]);
    let run = |exec: &Exec| {
        let m = MetricsRegistry::new();
        let observed = Exec {
            metrics: Some(m.clone()),
            ..exec.clone()
        };
        mul(&a, &a, &observed);
        let snap = m.snapshot();
        let work: Vec<u64> = WORK_KEYS
            .iter()
            .map(|k| snap.counter(k).unwrap_or(0))
            .collect();
        let panel = (
            snap.counter(metric_names::PANELS).unwrap_or(0),
            snap.counter(metric_names::PANEL_SPILLS).unwrap_or(0),
            snap.counter(metric_names::SPILL_BYTES).unwrap_or(0),
        );
        (work, panel)
    };
    let (mem_work, mem_panel) = run(&baseline_exec());
    assert_eq!(mem_panel, (0, 0, 0), "in-memory run must report no tiles");
    for budget in [Some(1), None] {
        let mut serial = panel_exec(7, budget);
        serial.threads = 1;
        let mut parallel = panel_exec(7, budget);
        parallel.threads = 4;
        let (ser_work, ser_panel) = run(&serial);
        let (par_work, par_panel) = run(&parallel);
        assert_eq!(
            mem_work, ser_work,
            "budget {budget:?}: work counters changed"
        );
        assert_eq!(
            ser_work, par_work,
            "budget {budget:?}: thread-dependent work"
        );
        assert_eq!(
            ser_panel, par_panel,
            "budget {budget:?}: scheduling-dependent spill plan"
        );
        assert!(
            ser_panel.0 > 1,
            "budget {budget:?}: expected multiple tiles"
        );
        if budget == Some(1) {
            assert!(ser_panel.1 > 0, "1-byte budget must spill");
            assert_eq!(ser_panel.2 % 12, 0, "spill bytes are 12 per entry");
        } else {
            assert_eq!(
                (ser_panel.1, ser_panel.2),
                (0, 0),
                "unlimited budget must not spill"
            );
        }
    }
}

/// A unique scratch base for one test; `base` must be empty again after
/// the multiply exits, however it exits.
fn scratch_base(tag: &str) -> std::path::PathBuf {
    let base = std::env::temp_dir().join(format!(
        "symclust_proptest_panel_{}_{tag}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&base).ok();
    std::fs::create_dir_all(&base).unwrap();
    base
}

fn assert_empty_and_remove(base: &std::path::Path, when: &str) {
    let leftovers: Vec<_> = std::fs::read_dir(base)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert!(
        leftovers.is_empty(),
        "scratch dirs leaked {when}: {leftovers:?}"
    );
    std::fs::remove_dir_all(base).ok();
}

fn spilling_exec(base: &std::path::Path, n_threads: usize) -> Exec {
    Exec {
        threads: n_threads,
        panel: PanelPlan {
            panel_rows: Some(4),
            spill_dir: Some(base.to_path_buf()),
            budget_bytes: Some(1),
        },
        ..Exec::default()
    }
}

#[test]
fn spill_files_are_removed_on_success() {
    let base = scratch_base("success");
    let a = skewed_matrix(64, 64, SEEDS[1]);
    for n_threads in [1, 4] {
        mul(&a, &a, &spilling_exec(&base, n_threads));
    }
    assert_empty_and_remove(&base, "after successful multiplies");
}

/// Cancellation cleanup for both execution shapes. The third cleanup leg
/// — a panicking tile kernel — cannot be provoked through the public API
/// (every constructor validates its input), so it is covered by the
/// `worker_panic_surfaces_and_cleans_up_scratch` unit test inside
/// `crates/sparse/src/panel.rs`, which injects the panic directly into
/// the tile runner.
#[test]
fn spill_files_are_removed_on_cancellation() {
    let base = scratch_base("cancel");
    let a = skewed_matrix(64, 64, SEEDS[2]);
    let token = CancelToken::new();
    token.cancel();
    for n_threads in [1, 4] {
        let exec = Exec {
            token: Some(token.clone()),
            ..spilling_exec(&base, n_threads)
        };
        let r = spgemm(&a, &a, &SpgemmOptions::default(), &exec);
        assert_eq!(r, Err(SparseError::Cancelled), "{n_threads} threads");
    }
    assert_empty_and_remove(&base, "after cancelled multiplies");
}
