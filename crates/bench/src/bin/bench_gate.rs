//! Bench regression gate CLI.
//!
//! ```text
//! bench_gate emit        <metrics.json>  <BENCH_pipeline.json>
//! bench_gate check       <baseline.json> <current.json> [wall-tolerance]
//! bench_gate syrk-check  <graph.txt>
//! bench_gate serve-check <graph.txt>
//! bench_gate accum-check <graph.txt>
//! bench_gate panel-check <graph.txt>
//! bench_gate oom-check
//! bench_gate trajectory  <BENCH_pipeline.json> <trajectory.jsonl> [commit]
//! ```
//!
//! `emit` converts a `symclust pipeline --metrics-out` file into the
//! stable BENCH schema; `check` compares two BENCH files and exits
//! non-zero on any deterministic-counter mismatch or a wall-clock
//! regression beyond the tolerance (default 0.25 = 25%). `syrk-check`
//! runs the Bibliometric product `AAᵀ + AᵀA` on a bundled edge list
//! through both the general kernel and the fused symmetric (SYRK)
//! kernel and fails unless the SYRK flop count is strictly below the
//! general one while the outputs stay bit-identical — the CI lock on
//! the symmetric kernel's speedup. `serve-check` is the same kind of
//! lock for the artifact store: a cold Bibliometric symmetrization is
//! published to a scratch disk store, then replayed through a fresh
//! in-memory tier (a simulated daemon restart); the replay must be
//! served from disk, run zero SpGEMM calls, return the bit-identical
//! matrix, and finish strictly faster than the cold compute.
//! `accum-check` is the lock on the adaptive accumulators: the same
//! Bibliometric product under forced-sparse accumulation and under the
//! adaptive strategy must be byte-identical, the adaptive pass must
//! actually pick the dense path for some rows, and its best-of-3 wall
//! time must be strictly below forced-sparse's. `panel-check` is the
//! lock on the out-of-core panel path (DESIGN.md §17): the Bibliometric
//! product under a forced tiny panel size and a 1-byte spill budget —
//! multiple tiles, at least one spilled to scratch files — must be
//! byte-identical to the in-memory product with identical deterministic
//! work counters, serially and in parallel, while the in-memory path
//! reports zero panels and zero spills. `oom-check` drives the full
//! symmetrize→cluster pipeline over a *streamed* DSBM edge list at
//! least 4× larger than the spill byte budget it is given, and fails
//! unless the run finishes without failures, actually spills, and
//! recovers the planted clusters (F-score floor). `trajectory` appends
//! one `{commit, wall_ms, spgemm.flops, rows_dense, rows_sparse}` JSON
//! line from a BENCH file to the checked-in perf history.

use symclust_bench::gate;
use symclust_obs::MetricsRegistry;
use symclust_sparse::spgemm::metric_names;
use symclust_sparse::{
    ops, spgemm, spgemm_syrk_sum, AccumStrategy, Exec, PanelPlan, SpgemmOptions, SyrkTerm,
};

fn main() {
    std::process::exit(match run() {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("bench_gate: {e}");
            1
        }
    });
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("emit") => {
            let [_, metrics_path, out_path] = args.as_slice() else {
                return Err("usage: bench_gate emit <metrics.json> <out.json>".into());
            };
            let metrics = gate::read_flat_json(metrics_path)?;
            let bench = gate::emit_bench_json(&metrics)?;
            std::fs::write(out_path, &bench).map_err(|e| format!("writing {out_path}: {e}"))?;
            println!("wrote {out_path}");
            Ok(())
        }
        Some("check") => {
            let (baseline_path, current_path, tolerance) = match args.as_slice() {
                [_, b, c] => (b, c, 0.25),
                [_, b, c, t] => (
                    b,
                    c,
                    t.parse::<f64>()
                        .map_err(|_| format!("invalid tolerance '{t}'"))?,
                ),
                _ => {
                    return Err(
                        "usage: bench_gate check <baseline.json> <current.json> [tolerance]".into(),
                    )
                }
            };
            let baseline = gate::read_flat_json(baseline_path)?;
            let current = gate::read_flat_json(current_path)?;
            let violations = gate::compare(&baseline, &current, tolerance);
            if violations.is_empty() {
                println!(
                    "bench gate OK: {current_path} matches {baseline_path} \
                     (wall tolerance {:.0}%)",
                    tolerance * 100.0
                );
                Ok(())
            } else {
                for v in &violations {
                    eprintln!("bench gate FAIL: {v}");
                }
                Err(format!("{} violation(s)", violations.len()))
            }
        }
        Some("syrk-check") => {
            let [_, graph_path] = args.as_slice() else {
                return Err("usage: bench_gate syrk-check <graph.txt>".into());
            };
            syrk_check(graph_path)
        }
        Some("serve-check") => {
            let [_, graph_path] = args.as_slice() else {
                return Err("usage: bench_gate serve-check <graph.txt>".into());
            };
            serve_check(graph_path)
        }
        Some("accum-check") => {
            let [_, graph_path] = args.as_slice() else {
                return Err("usage: bench_gate accum-check <graph.txt>".into());
            };
            accum_check(graph_path)
        }
        Some("panel-check") => {
            let [_, graph_path] = args.as_slice() else {
                return Err("usage: bench_gate panel-check <graph.txt>".into());
            };
            panel_check(graph_path)
        }
        Some("oom-check") => {
            if args.len() != 1 {
                return Err("usage: bench_gate oom-check".into());
            }
            oom_check()
        }
        Some("trajectory") => {
            let (bench_path, out_path, commit) = match args.as_slice() {
                [_, b, o] => (b, o, "unknown"),
                [_, b, o, c] => (b, o, c.as_str()),
                _ => {
                    return Err(
                        "usage: bench_gate trajectory <BENCH.json> <trajectory.jsonl> [commit]"
                            .into(),
                    )
                }
            };
            trajectory_append(bench_path, out_path, commit)
        }
        _ => Err(
            "usage: bench_gate emit|check|syrk-check|serve-check|accum-check|panel-check\
             |oom-check|trajectory ... (see --help in source)"
                .into(),
        ),
    }
}

/// Runs the fused Bibliometric SYRK product under forced-sparse and
/// adaptive accumulation and fails unless the outputs are byte-identical,
/// the adaptive pass exercises both strategies' bookkeeping (all rows
/// accounted for, at least one dense), and adaptive's best-of-3 wall time
/// is strictly below forced-sparse's.
fn accum_check(graph_path: &str) -> Result<(), String> {
    use std::time::{Duration, Instant};

    let g = symclust_graph::io::read_edge_list_file(graph_path)
        .map_err(|e| format!("reading {graph_path}: {e}"))?;
    let a = ops::add_diagonal(g.adjacency(), 1.0).map_err(|e| e.to_string())?;
    let at = ops::transpose(&a);
    let terms = [SyrkTerm { x: &a, xt: &at }, SyrkTerm { x: &at, xt: &a }];
    let run = |accum: AccumStrategy| -> Result<_, String> {
        let opts = SpgemmOptions {
            drop_diagonal: true,
            ..Default::default()
        };
        let mut best: Option<Duration> = None;
        let mut result = None;
        let metrics = MetricsRegistry::new();
        for i in 0..3 {
            let exec = Exec {
                threads: 1,
                accum,
                metrics: (i == 0).then(|| metrics.clone()),
                ..Exec::default()
            };
            let t0 = Instant::now();
            let c = spgemm_syrk_sum(&terms, &opts, &exec).map_err(|e| e.to_string())?;
            let wall = t0.elapsed();
            best = Some(best.map_or(wall, |b| b.min(wall)));
            result = Some(c);
        }
        let snap = metrics.snapshot();
        Ok((
            result.expect("loop ran"),
            best.expect("loop ran"),
            snap.counter(metric_names::ROWS_DENSE).unwrap_or(0),
            snap.counter(metric_names::ROWS_SPARSE).unwrap_or(0),
            snap.counter(metric_names::ROWS).unwrap_or(0),
        ))
    };

    let (sparse, sparse_wall, s_dense, s_sparse, s_rows) = run(AccumStrategy::Sparse)?;
    let (adaptive, adaptive_wall, a_dense, a_sparse, a_rows) = run(AccumStrategy::Adaptive)?;
    if sparse != adaptive {
        return Err("adaptive output differs from forced-sparse accumulation".into());
    }
    if s_dense != 0 || s_sparse != s_rows {
        return Err(format!(
            "forced-sparse pass miscounted strategies: rows_dense {s_dense}, \
             rows_sparse {s_sparse}, rows {s_rows}"
        ));
    }
    if a_dense + a_sparse != a_rows {
        return Err(format!(
            "adaptive pass lost rows: rows_dense {a_dense} + rows_sparse {a_sparse} != rows {a_rows}"
        ));
    }
    if a_dense == 0 {
        return Err("adaptive pass never chose the dense accumulator on this graph".into());
    }
    if adaptive_wall >= sparse_wall {
        return Err(format!(
            "adaptive took {:.3}ms, not strictly below forced-sparse's {:.3}ms",
            adaptive_wall.as_secs_f64() * 1e3,
            sparse_wall.as_secs_f64() * 1e3
        ));
    }
    println!(
        "accum gate OK: {graph_path}: adaptive {:.3}ms vs forced-sparse {:.3}ms \
         ({:.1}x faster), {a_dense} dense / {a_sparse} sparse rows, output identical ({} nnz)",
        adaptive_wall.as_secs_f64() * 1e3,
        sparse_wall.as_secs_f64() * 1e3,
        sparse_wall.as_secs_f64() / adaptive_wall.as_secs_f64().max(1e-9),
        adaptive.nnz()
    );
    Ok(())
}

/// Runs the fused Bibliometric SYRK product through the default in-memory
/// path and through a forced tiny-panel/1-byte-budget out-of-core
/// configuration (serial and parallel) and fails unless the spilled runs
/// execute multiple tiles with at least one spill, report identical
/// deterministic work counters, and return the byte-identical matrix,
/// while the in-memory run reports zero panel activity.
fn panel_check(graph_path: &str) -> Result<(), String> {
    let g = symclust_graph::io::read_edge_list_file(graph_path)
        .map_err(|e| format!("reading {graph_path}: {e}"))?;
    let a = ops::add_diagonal(g.adjacency(), 1.0).map_err(|e| e.to_string())?;
    let at = ops::transpose(&a);
    let terms = [SyrkTerm { x: &a, xt: &at }, SyrkTerm { x: &at, xt: &a }];

    // Counters that must match exactly between the in-memory and panel
    // paths: the deterministic work measures, not the panel bookkeeping.
    const WORK_KEYS: &[&str] = &[
        metric_names::ROWS,
        metric_names::FLOPS,
        metric_names::NNZ_INTERMEDIATE,
        metric_names::NNZ_FINAL,
        metric_names::THRESHOLD_DROPPED,
        metric_names::ROWS_DENSE,
        metric_names::ROWS_SPARSE,
        metric_names::SYRK_MIRRORED_NNZ,
    ];

    let run = |panel: PanelPlan, n_threads: usize| -> Result<_, String> {
        let opts = SpgemmOptions {
            drop_diagonal: true,
            ..Default::default()
        };
        let metrics = MetricsRegistry::new();
        let exec = Exec {
            threads: n_threads,
            panel,
            metrics: Some(metrics.clone()),
            ..Exec::default()
        };
        let c = spgemm_syrk_sum(&terms, &opts, &exec).map_err(|e| e.to_string())?;
        let snap = metrics.snapshot();
        let work: Vec<u64> = WORK_KEYS
            .iter()
            .map(|k| snap.counter(k).unwrap_or(0))
            .collect();
        Ok((
            c,
            work,
            snap.counter(metric_names::PANELS).unwrap_or(0),
            snap.counter(metric_names::PANEL_SPILLS).unwrap_or(0),
            snap.counter(metric_names::SPILL_BYTES).unwrap_or(0),
        ))
    };

    // Deliberately *not* from_env: the gate must compare a true in-memory
    // run against a forced out-of-core one regardless of the environment.
    let (mem, mem_work, mem_panels, mem_spills, mem_bytes) = run(PanelPlan::default(), 1)?;
    if mem_panels != 0 || mem_spills != 0 || mem_bytes != 0 {
        return Err(format!(
            "in-memory run reported panel activity: panels {mem_panels}, \
             spills {mem_spills}, spill bytes {mem_bytes}"
        ));
    }

    let forced = PanelPlan {
        panel_rows: Some((g.n_nodes() / 4).max(1)),
        budget_bytes: Some(1), // every tile past the first estimate spills
        spill_dir: None,
    };
    let (panel, panel_work, panels, spills, bytes) = run(forced.clone(), 1)?;
    if panels <= 1 {
        return Err(format!(
            "forced panel run executed {panels} tile(s), need > 1"
        ));
    }
    if spills == 0 || bytes == 0 {
        return Err(format!(
            "forced panel run never spilled (spills {spills}, bytes {bytes})"
        ));
    }
    if panel != mem {
        return Err("panel output differs from the in-memory product".into());
    }
    for (key, (m, p)) in WORK_KEYS.iter().zip(mem_work.iter().zip(&panel_work)) {
        if m != p {
            return Err(format!(
                "work counter {key} diverged: in-memory {m}, panel {p}"
            ));
        }
    }

    let (par, _par_work, par_panels, par_spills, par_bytes) = run(forced, 0)?;
    if par != mem {
        return Err("parallel panel output differs from the in-memory product".into());
    }
    if (par_panels, par_spills, par_bytes) != (panels, spills, bytes) {
        return Err(format!(
            "panel counters are scheduling-dependent: serial ({panels}, {spills}, {bytes}) \
             vs parallel ({par_panels}, {par_spills}, {par_bytes})"
        ));
    }

    println!(
        "panel gate OK: {graph_path}: {panels} tiles, {spills} spilled ({bytes} bytes), \
         output identical in-memory/serial-panel/parallel-panel ({} nnz)",
        mem.nnz()
    );
    Ok(())
}

/// Streams a planted-partition DSBM edge list to disk, then runs the full
/// symmetrize→cluster pipeline on it under a spill byte budget at most a
/// quarter of the file size. Fails unless the run completes without stage
/// failures, the SpGEMM actually spills, and the recovered clustering
/// scores at least [`OOM_F_SCORE_FLOOR`] against the planted truth.
const OOM_F_SCORE_FLOOR: f64 = 50.0;

fn oom_check() -> Result<(), String> {
    let dir = std::env::temp_dir().join(format!("symclust_oom_gate_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let result = oom_check_in(&dir);
    std::fs::remove_dir_all(&dir).ok();
    result
}

fn oom_check_in(dir: &std::path::Path) -> Result<(), String> {
    use symclust_datasets::stream::{stream_dsbm_to_files, StreamDsbmConfig};
    use symclust_engine::{
        Clusterer, Engine, EngineOptions, PipelineInput, PipelineSpec, SymMethod,
    };

    let cfg = StreamDsbmConfig {
        n_nodes: 12_000,
        n_clusters: 24,
        intra_degree: 8,
        inter_degree: 2,
        seed: 20_110_325, // EDBT 2011
    };
    let edges_path = dir.join("oom.txt");
    let truth_path = dir.join("oom.truth.txt");
    stream_dsbm_to_files(&cfg, &edges_path, &truth_path)
        .map_err(|e| format!("streaming DSBM: {e}"))?;
    let file_bytes = std::fs::metadata(&edges_path)
        .map_err(|e| format!("stat {}: {e}", edges_path.display()))?
        .len();
    // The whole point: the input on disk is ≥ 4× the spill budget the
    // multiply gets for in-flight partial products.
    let budget_bytes = (file_bytes / 4) as usize;

    let graph = symclust_graph::io::read_edge_list_file(&edges_path)
        .map_err(|e| format!("loading streamed edge list: {e}"))?;
    let categories: Vec<Vec<u32>> = (0..cfg.n_clusters)
        .map(|c| {
            (0..cfg.n_nodes as u32)
                .filter(|&u| cfg.cluster_of(u as usize) == c as u32)
                .collect()
        })
        .collect();
    let truth = symclust_graph::GroundTruth::new(cfg.n_nodes, categories)
        .map_err(|e| format!("building truth: {e}"))?;

    let registry = MetricsRegistry::new();
    let opts = EngineOptions {
        spgemm_panel: Some(PanelPlan {
            panel_rows: Some(cfg.n_nodes / 8),
            budget_bytes: Some(budget_bytes),
            spill_dir: Some(dir.to_path_buf()),
        }),
        metrics: Some(registry.clone()),
        ..Default::default()
    };
    let spec = PipelineSpec {
        methods: vec![SymMethod::Bibliometric { threshold: 2.0 }],
        clusterers: vec![Clusterer::MlrMcl { inflation: 2.0 }],
        extra_prune: None,
    };
    let engine = Engine::new(opts);
    let input = PipelineInput::new("oom_dsbm", graph, Some(truth));
    let result = engine.run(&input, &spec, &|_| {});
    if !result.failures.is_empty() {
        return Err(format!(
            "pipeline failed under the spill budget: {:?}",
            result.failures
        ));
    }
    let snap = registry.snapshot();
    let spills = snap.counter(metric_names::PANEL_SPILLS).unwrap_or(0);
    let spill_bytes = snap.counter(metric_names::SPILL_BYTES).unwrap_or(0);
    if spills == 0 {
        return Err(format!(
            "multiply never spilled under a {budget_bytes}-byte budget \
             (input file is {file_bytes} bytes)"
        ));
    }
    let record = result
        .records
        .first()
        .ok_or("pipeline produced no records")?;
    let f = record
        .f_score
        .ok_or("record has no F-score despite ground truth")?;
    if f < OOM_F_SCORE_FLOOR {
        return Err(format!(
            "F-score {f:.1}% below the {OOM_F_SCORE_FLOOR}% floor — \
             out-of-core execution degraded clustering quality"
        ));
    }
    println!(
        "oom gate OK: {file_bytes}-byte streamed graph under a {budget_bytes}-byte spill \
         budget: {spills} tile(s) spilled ({spill_bytes} bytes), F-score {f:.1}%"
    );
    Ok(())
}

/// Appends one perf-history line from a BENCH file:
/// `{"commit":…,"wall_ms":…,"spgemm.flops":…,"spgemm.rows_dense":…,"spgemm.rows_sparse":…}`.
fn trajectory_append(bench_path: &str, out_path: &str, commit: &str) -> Result<(), String> {
    use std::io::Write;

    let bench = gate::read_flat_json(bench_path)?;
    let num = |key: &str| {
        bench
            .get(key)
            .and_then(symclust_engine::json::JsonValue::as_f64)
    };
    let wall = num("wall_secs").ok_or_else(|| format!("{bench_path} has no wall_secs"))?;
    let flops = num("spgemm.flops").ok_or_else(|| format!("{bench_path} has no spgemm.flops"))?;
    let rows_dense = num("spgemm.rows_dense").unwrap_or(0.0);
    let rows_sparse = num("spgemm.rows_sparse").unwrap_or(0.0);
    let commit_clean: String = commit
        .chars()
        .filter(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '_')
        .collect();
    let line = format!(
        "{{\"commit\":\"{commit_clean}\",\"wall_ms\":{:.1},\"spgemm.flops\":{},\
         \"spgemm.rows_dense\":{},\"spgemm.rows_sparse\":{}}}\n",
        wall * 1e3,
        flops as u64,
        rows_dense as u64,
        rows_sparse as u64
    );
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(out_path)
        .map_err(|e| format!("opening {out_path}: {e}"))?;
    f.write_all(line.as_bytes())
        .map_err(|e| format!("appending to {out_path}: {e}"))?;
    println!("trajectory: appended {} to {out_path}", line.trim_end());
    Ok(())
}

/// Computes `AAᵀ + AᵀA` (with the Bibliometric `+I` step) both ways and
/// asserts the SYRK path does strictly less multiply-add work for the
/// identical output.
fn syrk_check(graph_path: &str) -> Result<(), String> {
    let g = symclust_graph::io::read_edge_list_file(graph_path)
        .map_err(|e| format!("reading {graph_path}: {e}"))?;
    let a = ops::add_diagonal(g.adjacency(), 1.0).map_err(|e| e.to_string())?;
    let at = ops::transpose(&a);
    let opts = SpgemmOptions {
        drop_diagonal: true,
        ..Default::default()
    };
    let serial_into = |metrics: &MetricsRegistry| Exec {
        threads: 1,
        metrics: Some(metrics.clone()),
        ..Exec::default()
    };

    let general_metrics = MetricsRegistry::new();
    let general_exec = serial_into(&general_metrics);
    let coupling = spgemm(&a, &at, &opts, &general_exec).map_err(|e| e.to_string())?;
    let cocitation = spgemm(&at, &a, &opts, &general_exec).map_err(|e| e.to_string())?;
    let general = ops::add(&coupling, &cocitation).map_err(|e| e.to_string())?;

    let syrk_metrics = MetricsRegistry::new();
    let fused = spgemm_syrk_sum(
        &[SyrkTerm { x: &a, xt: &at }, SyrkTerm { x: &at, xt: &a }],
        &opts,
        &serial_into(&syrk_metrics),
    )
    .map_err(|e| e.to_string())?;

    if general != fused {
        return Err("SYRK output differs from the general kernel's".into());
    }
    let gflops = general_metrics
        .snapshot()
        .counter(metric_names::FLOPS)
        .unwrap_or(0);
    let sflops = syrk_metrics
        .snapshot()
        .counter(metric_names::FLOPS)
        .unwrap_or(0);
    if sflops >= gflops {
        return Err(format!(
            "SYRK flops {sflops} not strictly below general-kernel flops {gflops}"
        ));
    }
    println!(
        "syrk gate OK: {graph_path}: flops {sflops} vs general {gflops} \
         ({:.1}% saved), output identical ({} nnz)",
        100.0 * (gflops - sflops) as f64 / gflops as f64,
        fused.nnz()
    );
    Ok(())
}

/// Cold-computes a Bibliometric symmetrization into a scratch disk store,
/// then replays it through a fresh memory tier over the same store and
/// fails unless the replay is a disk hit that runs no SpGEMM, returns the
/// identical matrix, and is strictly faster than the cold compute.
fn serve_check(graph_path: &str) -> Result<(), String> {
    let g = symclust_graph::io::read_edge_list_file(graph_path)
        .map_err(|e| format!("reading {graph_path}: {e}"))?;
    let fp = symclust_engine::fingerprint::graph_fingerprint(&g);
    let method = symclust_engine::SymMethod::Bibliometric { threshold: 0.0 };
    let token = symclust_sparse::CancelToken::new();
    let dir = std::env::temp_dir().join(format!("symclust_serve_gate_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let result = serve_check_in(&g, fp, &method, &token, &dir, graph_path);
    std::fs::remove_dir_all(&dir).ok();
    result
}

fn serve_check_in(
    g: &symclust_graph::DiGraph,
    fp: u64,
    method: &symclust_engine::SymMethod,
    token: &symclust_sparse::CancelToken,
    dir: &std::path::Path,
    graph_path: &str,
) -> Result<(), String> {
    use std::sync::Arc;
    use std::time::Instant;
    use symclust_store::{symmetrize_cached, DiskStore, StoreOptions, Tier, TieredCache};

    let store = Arc::new(DiskStore::open(dir, StoreOptions::default()).map_err(|e| e.to_string())?);
    let cache: TieredCache<symclust_sparse::CsrMatrix> = TieredCache::new(Arc::clone(&store));
    let observed = |metrics: &MetricsRegistry| Exec {
        token: Some(token.clone()),
        metrics: Some(metrics.clone()),
        ..Exec::default()
    };
    let cold_metrics = MetricsRegistry::new();
    let t0 = Instant::now();
    let (cold, cold_tier, key) =
        symmetrize_cached(&cache, g, fp, method, None, &observed(&cold_metrics))
            .map_err(|e| e.to_string())?;
    let cold_wall = t0.elapsed();
    if cold_tier != Tier::Computed {
        return Err(format!(
            "cold pass served from tier '{}' — the scratch store was not empty",
            cold_tier.name()
        ));
    }
    let cold_calls = cold_metrics
        .snapshot()
        .counter(metric_names::CALLS)
        .unwrap_or(0);
    if cold_calls == 0 {
        return Err("cold Bibliometric pass ran zero SpGEMM calls".into());
    }

    // A fresh memory tier over the same directory is exactly what a
    // restarted daemon sees. Best-of-3 keeps scheduler noise out of the
    // strict latency comparison.
    let mut hit_wall = None;
    for _ in 0..3 {
        let restarted =
            Arc::new(DiskStore::open(dir, StoreOptions::default()).map_err(|e| e.to_string())?);
        let replay: TieredCache<symclust_sparse::CsrMatrix> = TieredCache::new(restarted);
        let hit_metrics = MetricsRegistry::new();
        let t1 = Instant::now();
        let (hit, hit_tier, hit_key) =
            symmetrize_cached(&replay, g, fp, method, None, &observed(&hit_metrics))
                .map_err(|e| e.to_string())?;
        let wall = t1.elapsed();
        if hit_tier != Tier::Disk {
            return Err(format!(
                "replay served from tier '{}', expected a disk hit",
                hit_tier.name()
            ));
        }
        if hit_key != key {
            return Err(format!(
                "replay derived key {hit_key:016x}, cold pass derived {key:016x}"
            ));
        }
        if *hit != *cold {
            return Err("replayed matrix differs from the cold-computed one".into());
        }
        let hit_calls = hit_metrics
            .snapshot()
            .counter(metric_names::CALLS)
            .unwrap_or(0);
        if hit_calls != 0 {
            return Err(format!("replay ran {hit_calls} SpGEMM call(s), expected 0"));
        }
        hit_wall = Some(hit_wall.map_or(wall, |best: std::time::Duration| best.min(wall)));
    }
    let hit_wall = hit_wall.expect("loop ran");
    if hit_wall >= cold_wall {
        return Err(format!(
            "store hit took {:.3}ms, not strictly below the cold compute's {:.3}ms",
            hit_wall.as_secs_f64() * 1e3,
            cold_wall.as_secs_f64() * 1e3
        ));
    }
    println!(
        "serve gate OK: {graph_path}: disk hit {:.3}ms vs cold {:.3}ms \
         ({:.1}x faster), 0 SpGEMM calls on replay, matrix identical ({} nnz)",
        hit_wall.as_secs_f64() * 1e3,
        cold_wall.as_secs_f64() * 1e3,
        cold_wall.as_secs_f64() / hit_wall.as_secs_f64().max(1e-9),
        cold.nnz()
    );
    Ok(())
}
