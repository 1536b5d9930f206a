//! The two pipeline workloads: what `symclust pipeline --input F --truth T
//! --target-degree 40 --resume J` does, called through the library, once
//! per input graph.
//!
//! * `pipeline_mcl` — 5,000-node shared-link DSBM graphs swept with
//!   {Degree-discounted, Bibliometric} × MLR-MCL. MLR-MCL expansion
//!   dominates and the graphs are above MLR-MCL's 4,000-node coarsening
//!   cutoff, so coarsen and project run too.
//! * `pipeline_sym` — 10,000-node Wikipedia stand-ins swept with all four
//!   symmetrizations × Metis. The similarity SpGEMM dominates; there is no
//!   MCL at all.
//!
//! Each sweep writes a run journal, as `--resume` does, so the journal's
//! replay path (the pipeline's stored-results tier) is measured too.

use std::collections::BTreeMap;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use symclust_cli::formats::{read_ground_truth, write_ground_truth};
use symclust_cluster::{coarsen_graph, MlrMclOptions};
use symclust_core::SymmetrizedGraph;
use symclust_engine::fingerprint::{graph_fingerprint, matrix_fingerprint};
use symclust_engine::{
    select_thresholds, Clusterer, Engine, EngineOptions, Event, PipelineInput, PipelineSpec, Plan,
    RunRecord, StageKind, SymMethod,
};
use symclust_graph::generators::{shared_link_dsbm, GeneratedGraph, SharedLinkDsbmConfig};
use symclust_graph::io::{read_edge_list_file, write_edge_list_file};
use symclust_graph::DiGraph;
use symclust_obs::MetricsSnapshot;
use symclust_sparse::CsrMatrix;
use symclust_store::{DiskStore, StoreOptions};

use crate::report::{peak_rss_mb, Report};
use crate::stats::{median, percentile, quartiles, supported_tail};
use crate::trace::{SpanId, SpanRec, Tracer};
use crate::RunArgs;

/// Target average degree for threshold selection (`--target-degree`).
const TARGET_DEGREE: f64 = 40.0;
/// Set-up repeats at least this often, and until it has taken
/// [`SETUP_MIN_S`]; `setup_s` is the median.
const SETUP_MIN_REPS: usize = 3;
/// Total set-up time to repeat for: a short set-up is repeated more, so
/// its median is as steady as a long one's.
const SETUP_MIN_S: f64 = 1.5;
/// Share of the budget cold sweeps may start in; the rest replays
/// journals.
const COLD_SHARE: f64 = 0.75;
/// Chain results per batch of warm journal replays. One batch follows
/// each sweep of the first cycle, so together they hold several
/// thousand results, well over the 1,000 that put ten beyond p99.
const WARM_BATCH: usize = 600;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Mcl,
    Sym,
}

impl Kind {
    fn from_name(name: &str) -> Kind {
        if name == "pipeline_mcl" {
            Kind::Mcl
        } else {
            Kind::Sym
        }
    }

    fn generate(self, seed: u64) -> Result<GeneratedGraph, String> {
        let cfg = match self {
            Kind::Mcl => SharedLinkDsbmConfig {
                n_nodes: 5_000,
                n_clusters: 20,
                seed,
                ..Default::default()
            },
            Kind::Sym => SharedLinkDsbmConfig {
                seed,
                ..symclust_datasets::wikipedia_like_config(10_000)
            },
        };
        shared_link_dsbm(&cfg).map_err(|e| e.to_string())
    }

    fn spec(self, bib: f64, dd: f64, n_nodes: usize) -> PipelineSpec {
        let dd_method = SymMethod::DegreeDiscounted {
            alpha: 0.5,
            beta: 0.5,
            threshold: dd,
        };
        match self {
            Kind::Mcl => PipelineSpec {
                methods: vec![dd_method, SymMethod::Bibliometric { threshold: bib }],
                clusterers: vec![Clusterer::MlrMcl { inflation: 2.0 }],
                extra_prune: None,
            },
            Kind::Sym => PipelineSpec {
                methods: SymMethod::lineup(bib, dd),
                clusterers: vec![Clusterer::Metis {
                    k: (n_nodes / 60).max(2),
                }],
                extra_prune: None,
            },
        }
    }

    fn name(self) -> &'static str {
        match self {
            Kind::Mcl => "pipeline_mcl",
            Kind::Sym => "pipeline_sym",
        }
    }

    /// Input graphs per run. MLR-MCL's iteration count, and so the sweep
    /// time, varies from graph to graph; a run averages over several so
    /// that runs with different seeds stay comparable.
    fn graphs(self) -> usize {
        match self {
            Kind::Mcl => 6,
            Kind::Sym => 7,
        }
    }

    /// The clusterer of the headline pairing (Degree-discounted + this).
    fn headline_algo(self) -> &'static str {
        match self {
            Kind::Mcl => "MLR-MCL",
            Kind::Sym => "Metis",
        }
    }
}

/// One engine sweep and what the benchmark observed of it.
pub(crate) struct Sweep {
    /// Load → threshold selection → engine sweep (with evaluate), seconds.
    wall_s: f64,
    load_s: f64,
    threshold_s: f64,
    edges: usize,
    /// The engine run alone, seconds.
    pub(crate) engine_s: f64,
    threads: usize,
    /// Chains the spec asks for: one record each.
    expected: usize,
    records: Vec<RunRecord>,
    /// Events with their arrival time, seconds since the engine run began.
    events: Vec<(f64, Event)>,
    snapshot: MetricsSnapshot,
    plan: Plan,
    resumed: usize,
    /// (Bibliometric, Degree-discounted) thresholds the sweep selected.
    thresholds: (f64, f64),
    failures: Vec<String>,
}

/// The values that must repeat exactly for one seed.
#[derive(Debug, Clone, PartialEq)]
struct Deterministic {
    f_score: Option<u64>,
    flops: u64,
    mcl_iterations: u64,
    sym_edges: usize,
}

impl Sweep {
    fn finished(&self) -> impl Iterator<Item = (f64, usize, StageKind, &str, f64, usize)> {
        self.events.iter().filter_map(|(t, e)| match e {
            Event::StageFinished {
                node,
                stage,
                label,
                secs,
                output_items,
            } => Some((*t, *node, *stage, label.as_str(), *secs, *output_items)),
            _ => None,
        })
    }

    fn stage_secs(&self, kind: StageKind, label_has: &str) -> f64 {
        self.finished()
            .filter(|f| f.2 == kind && f.3.contains(label_has))
            .map(|f| f.4)
            .sum()
    }

    fn counter(&self, name: &str) -> u64 {
        self.snapshot.counter(name).unwrap_or(0)
    }

    fn headline_f(&self, kind: Kind) -> Option<f64> {
        self.records
            .iter()
            .find(|r| {
                r.symmetrization == "Degree-discounted" && r.algorithm == kind.headline_algo()
            })
            .and_then(|r| r.f_score)
    }

    /// Whether two sweeps returned the same records, timings aside.
    pub(crate) fn same_records(&self, other: &Sweep) -> bool {
        let content = |r: &RunRecord| {
            (
                r.symmetrization.clone(),
                r.algorithm.clone(),
                r.n_clusters,
                r.f_score.map(f64::to_bits),
                r.sym_edges,
                r.degraded,
                r.converged,
            )
        };
        self.records.len() == other.records.len()
            && self
                .records
                .iter()
                .zip(&other.records)
                .all(|(a, b)| content(a) == content(b))
    }

    /// Edges of every symmetrized graph the sweep computed.
    fn sym_edges(&self) -> usize {
        self.finished()
            .filter(|f| f.2 == StageKind::Symmetrize)
            .map(|f| f.5)
            .sum()
    }

    fn deterministic(&self, kind: Kind) -> Deterministic {
        Deterministic {
            f_score: self.headline_f(kind).map(f64::to_bits),
            flops: self.counter("spgemm.flops"),
            mcl_iterations: self.counter("mcl.iterations"),
            sym_edges: self.sym_edges(),
        }
    }

    /// Per chain, the time from the start of the engine run to its record
    /// (the evaluate stage finishing, or the chain resuming), in ms.
    fn chain_latencies_ms(&self) -> Vec<Option<f64>> {
        self.events
            .iter()
            .filter_map(|(t, e)| match e {
                Event::StageFinished {
                    stage: StageKind::Evaluate,
                    ..
                }
                | Event::StageResumed {
                    stage: StageKind::Evaluate,
                    ..
                } => Some(Some(t * 1e3)),
                _ => None,
            })
            .collect()
    }

    /// Longest dependency chain of stage times.
    fn critical_path_s(&self) -> f64 {
        let mut secs = vec![0.0; self.plan.len()];
        for f in self.finished() {
            secs[f.1] = f.4;
        }
        let mut finish = vec![0.0f64; self.plan.len()];
        for node in &self.plan.nodes {
            let ready = node.deps.iter().map(|&d| finish[d]).fold(0.0, f64::max);
            finish[node.id] = ready + secs[node.id];
        }
        finish.into_iter().fold(0.0, f64::max)
    }

    /// Rebuilds one span per engine stage from its start and end events,
    /// caused by the stage it depends on.
    fn record_stage_spans(&self, tracer: &Tracer, run_span: SpanId, run_start: f64) {
        if !tracer.enabled() {
            return;
        }
        let ids: Vec<SpanId> = self.plan.nodes.iter().map(|_| tracer.reserve()).collect();
        let mut started: BTreeMap<usize, f64> = BTreeMap::new();
        for (t, e) in &self.events {
            let (node, end) = match e {
                Event::StageStarted { node, .. } => {
                    started.insert(*node, *t);
                    continue;
                }
                Event::StageFinished { node, .. } | Event::CacheHit { node, .. } => (*node, *t),
                _ => continue,
            };
            let Some(&start) = started.get(&node) else {
                continue;
            };
            let plan_node = &self.plan.nodes[node];
            tracer.record(SpanRec {
                id: ids[node],
                parent: run_span,
                cause: plan_node.deps.first().map_or(0, |&d| ids[d]),
                layer: match plan_node.kind {
                    StageKind::Load => "engine",
                    StageKind::Symmetrize | StageKind::Prune => "core",
                    StageKind::Cluster => "cluster",
                    StageKind::Evaluate => "eval",
                },
                name: format!("stage.{} {}", plan_node.kind.name(), plan_node.label),
                start: run_start + start,
                end: run_start + end,
            });
        }
    }
}

struct Pipeline {
    kind: Kind,
    /// Edge-list and ground-truth files, one pair per input graph.
    inputs: Vec<(PathBuf, PathBuf)>,
    journal_dir: PathBuf,
}

impl Pipeline {
    /// Load and threshold selection: the part of a sweep before the
    /// engine runs.
    fn load(&self, graph: usize, tracer: &Tracer, parent: SpanId) -> Result<Loaded, String> {
        let (graph_path, truth_path) = &self.inputs[graph];
        let start = Instant::now();
        let g = tracer
            .span(parent, "graph", "read_edge_list_file", |_| {
                read_edge_list_file(graph_path)
            })
            .map_err(|e| format!("reading {}: {e}", graph_path.display()))?;
        let load_s = start.elapsed().as_secs_f64();
        let truth = tracer.span(parent, "cli", "read_ground_truth", |_| {
            let file = File::open(truth_path).map_err(|e| e.to_string())?;
            read_ground_truth(file, g.n_nodes())
        })?;
        let t = Instant::now();
        let (bib, dd) = tracer.span(parent, "core", "select_thresholds", |_| {
            select_thresholds(&g, TARGET_DEGREE)
        });
        Ok(Loaded {
            threshold_s: t.elapsed().as_secs_f64(),
            load_s,
            edges: g.n_edges(),
            thresholds: (bib, dd),
            spec: self.kind.spec(bib, dd, g.n_nodes()),
            input: PipelineInput::new(self.kind.name(), g, Some(truth)),
        })
    }

    /// A whole sweep of one input graph from the files on disk, as the
    /// CLI runs it.
    fn sweep(
        &self,
        graph: usize,
        threads: usize,
        serial_kernels: bool,
        journal: Option<PathBuf>,
        tracer: &Tracer,
        parent: SpanId,
    ) -> Result<(Sweep, Loaded), String> {
        let start = Instant::now();
        let loaded = self.load(graph, tracer, parent)?;
        let mut sweep = run_engine(&loaded, threads, serial_kernels, journal, tracer, parent);
        sweep.wall_s = start.elapsed().as_secs_f64();
        Ok((sweep, loaded))
    }

    fn journal(&self, sweep: usize) -> PathBuf {
        self.journal_dir.join(format!("sweep-{sweep}.journal"))
    }
}

/// A loaded input with the sweep selected for it.
pub(crate) struct Loaded {
    pub(crate) input: PipelineInput,
    pub(crate) spec: PipelineSpec,
    pub(crate) load_s: f64,
    pub(crate) threshold_s: f64,
    pub(crate) edges: usize,
    /// (Bibliometric, Degree-discounted) thresholds.
    pub(crate) thresholds: (f64, f64),
}

/// One `Engine::run` on a fresh engine; `wall_s` is the engine run alone.
pub(crate) fn run_engine(
    loaded: &Loaded,
    threads: usize,
    serial_kernels: bool,
    journal: Option<PathBuf>,
    tracer: &Tracer,
    parent: SpanId,
) -> Sweep {
    let (input, spec) = (&loaded.input, &loaded.spec);
    let engine = Engine::new(EngineOptions {
        threads,
        spgemm_threads: serial_kernels.then_some(1),
        journal,
        ..Default::default()
    });
    let events = Mutex::new(Vec::new());
    let run_span = tracer.reserve();
    let run_start = tracer.now();
    let engine_start = Instant::now();
    let result = engine.run(input, spec, &|e| {
        let t = engine_start.elapsed().as_secs_f64();
        events.lock().expect("event list poisoned").push((t, e));
    });
    let engine_s = engine_start.elapsed().as_secs_f64();
    tracer.close(run_span, parent, "engine", "Engine::run", run_start);

    let expected = spec.methods.len() * spec.clusterers.len();
    let mut failures: Vec<String> = result
        .failures
        .iter()
        .map(|(stage, err)| format!("stage {stage} failed: {err}"))
        .collect();
    if result.skipped > 0 || result.cancelled {
        failures.push(format!("{} stage(s) skipped", result.skipped));
    }
    if result.records.len() != expected {
        failures.push(format!(
            "{} of {expected} chains produced a record",
            result.records.len()
        ));
    }
    let sweep = Sweep {
        wall_s: engine_s,
        load_s: loaded.load_s,
        threshold_s: loaded.threshold_s,
        edges: loaded.edges,
        engine_s,
        threads,
        expected,
        records: result.records,
        events: events.into_inner().expect("event list poisoned"),
        snapshot: result.metrics,
        plan: Plan::build(spec),
        resumed: result.resumed,
        thresholds: loaded.thresholds,
        failures,
    };
    sweep.record_stage_spans(tracer, run_span, run_start);
    sweep
}

/// Counts a sweep's chains in the tally: one unit per chain, failed when
/// the chain produced no record; a failed or skipped stage fails at least
/// one.
pub(crate) fn account(report: &mut Report, sweep: &Sweep) {
    let missing = sweep.expected.saturating_sub(sweep.records.len());
    let failed = if sweep.failures.is_empty() {
        missing
    } else {
        missing.max(1)
    };
    for i in 0..sweep.expected.max(failed) {
        report.tally.record(i >= failed);
    }
    for f in &sweep.failures {
        report.problem(f.clone());
    }
}

pub(crate) fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What one set-up produced and how long it took.
struct SetUp {
    fingerprints: Vec<u64>,
    nodes: usize,
    /// Generating and writing the inputs; fingerprinting them is not part
    /// of it.
    setup_s: f64,
    generate_s: f64,
}

/// Generates the inputs and writes them where the sweeps read them.
fn setup(p: &Pipeline, seed: u64, tracer: &Tracer, parent: SpanId) -> Result<SetUp, String> {
    let mut out = SetUp {
        fingerprints: Vec::new(),
        nodes: 0,
        setup_s: 0.0,
        generate_s: 0.0,
    };
    for (i, (graph_path, truth_path)) in p.inputs.iter().enumerate() {
        let t = Instant::now();
        let sub_seed = seed
            .wrapping_mul(p.inputs.len() as u64)
            .wrapping_add(i as u64);
        let generated = tracer.span(parent, "datasets", "shared_link_dsbm", |_| {
            p.kind.generate(sub_seed)
        })?;
        out.generate_s += t.elapsed().as_secs_f64();
        tracer.span(parent, "graph", "write_edge_list_file", |_| {
            write_edge_list_file(&generated.graph, graph_path).map_err(|e| e.to_string())
        })?;
        tracer.span(parent, "cli", "write_ground_truth", |_| {
            let file = File::create(truth_path).map_err(|e| e.to_string())?;
            write_ground_truth(&generated.truth, file)
        })?;
        out.setup_s += t.elapsed().as_secs_f64();
        out.fingerprints.push(graph_fingerprint(&generated.graph));
        out.nodes = generated.graph.n_nodes();
    }
    Ok(out)
}

/// Runs a pipeline workload (end-to-end or traced).
pub fn run(args: &RunArgs, name: &str, tracer: &Tracer, report: &mut Report) -> Result<(), String> {
    let kind = Kind::from_name(name);
    let root = tracer.reserve();
    let root_start = tracer.now();
    let journal_dir = args.work_dir.join("journals");
    std::fs::create_dir_all(&journal_dir).map_err(|e| e.to_string())?;
    let p = Pipeline {
        kind,
        inputs: (0..kind.graphs())
            .map(|i| {
                (
                    args.work_dir.join(format!("graph{i}.txt")),
                    args.work_dir.join(format!("truth{i}.txt")),
                )
            })
            .collect(),
        journal_dir,
    };

    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    let mut last: Option<SetUp> = None;
    while setup_s.len() < SETUP_MIN_REPS || setup_s.iter().sum::<f64>() < SETUP_MIN_S {
        let set_up = tracer.span(root, "bench", "setup", |id| {
            setup(&p, args.seed, tracer, id)
        })?;
        setup_s.push(set_up.setup_s);
        generate_s.push(set_up.generate_s);
        let same = last
            .as_ref()
            .is_none_or(|l| l.fingerprints == set_up.fingerprints);
        report.check(same, || {
            format!("seed {} generated different inputs on repeat", args.seed)
        });
        last = Some(set_up);
    }
    let last = last.expect("at least one set-up");
    let n_nodes = last.nodes;
    let fps: Vec<String> = last
        .fingerprints
        .iter()
        .map(|fp| format!("{fp:016x}"))
        .collect();
    println!(
        "workload {name} seed {} input fingerprints {} ({} graphs of {n_nodes} nodes)",
        args.seed,
        fps.join(","),
        fps.len()
    );

    if args.trace {
        tracer.close(
            root,
            0,
            "bench",
            &format!("perfbench {name}: set-up"),
            root_start,
        );
        report.set("datasets.generate_s", median(&generate_s));
        traced(args, &p, tracer, report)?;
        report.set_trace_breakdown(tracer);
        return Ok(());
    }

    // Cold: whole cycles of one sweep per input graph, while another
    // cycle fits in the cold share of the budget. In the first cycle a
    // batch of warm journal replays follows each sweep, so the batches are
    // spread over the run and a passing burst of load on the machine
    // touches few of them.
    report.set("setup_s", median(&setup_s));
    let budget_start = Instant::now();
    let k = p.inputs.len();
    let mut sweeps: Vec<Sweep> = Vec::new();
    let mut cycle_means = Vec::new();
    let mut peaks = Vec::new();
    let mut warm_batches: Vec<WarmBatch> = Vec::new();
    loop {
        let first_cycle = cycle_means.is_empty();
        let cycle_start = Instant::now();
        let mut wall = 0.0;
        for graph in 0..k {
            let journal = p.journal(sweeps.len());
            let peak_was_reset = reset_peak_rss();
            let (sweep, loaded) =
                p.sweep(graph, threads(), false, Some(journal.clone()), tracer, root)?;
            if peak_was_reset {
                peaks.push(peak_rss_mb(None).unwrap_or(f64::NAN));
            }
            account(report, &sweep);
            check_deterministic(args, report, kind, graph, &sweep);
            wall += sweep.wall_s;
            if first_cycle {
                warm_batches.push(warm_batch(&loaded, &journal, &sweep, tracer, report, root));
            }
            sweeps.push(sweep);
        }
        cycle_means.push(wall / k as f64);
        let cycle_s = cycle_start.elapsed().as_secs_f64();
        if budget_start.elapsed().as_secs_f64() + cycle_s > args.seconds * COLD_SHARE {
            break;
        }
    }
    let walls: Vec<f64> = sweeps.iter().map(|s| s.wall_s).collect();
    println!(
        "pipeline_s: {} sweeps in {} cycle(s) over {k} graphs; sweep quartiles {:?}",
        sweeps.len(),
        cycle_means.len(),
        quartiles(&walls)
    );
    report.set("pipeline_s", median(&cycle_means));
    let chain_means: Vec<f64> = sweeps
        .iter()
        .map(|s| {
            let l = s.chain_latencies_ms();
            l.iter().map(|x| x.unwrap_or(f64::INFINITY)).sum::<f64>() / l.len() as f64
        })
        .collect();
    report.set("cold_ms.p50", median(&chain_means));
    let f: Vec<f64> = sweeps[..k]
        .iter()
        .filter_map(|s| s.headline_f(kind))
        .collect();
    report.check(f.len() == k, || {
        "the headline pairing produced no F-score".into()
    });
    report.set("f_score", f.iter().sum::<f64>() / f.len() as f64);

    let rates: Vec<f64> = warm_batches
        .iter()
        .flat_map(|b| b.rates.iter().copied())
        .collect();
    let warm: Vec<Option<f64>> = warm_batches.into_iter().flat_map(|b| b.samples).collect();
    println!(
        "warm_ms: {} chain results in {} journal replays; p99 {:.3} ms (a per-layer metric)",
        warm.len(),
        rates.len(),
        percentile(&warm, 99.0)
    );
    report.set("req_per_s", median(&rates));
    report.set("warm_ms.p50", percentile(&warm, 50.0));
    // Peak memory of a sweep, the median over sweeps; where the peak
    // cannot be reset, the process's peak over the whole run.
    let peak = if peaks.is_empty() {
        peak_rss_mb(None).unwrap_or(f64::NAN)
    } else {
        median(&peaks)
    };
    report.set("peak_rss_mb", peak);
    report.set("ok_share", report.tally.ok_share());
    Ok(())
}

/// The chain results of one batch of warm journal replays.
struct WarmBatch {
    /// Per chain result, ms from the start of its replay.
    samples: Vec<Option<f64>>,
    /// Per replay, chain results per second of its engine time.
    rates: Vec<f64>,
}

/// One batch of warm journal replays: `journal` replayed by one fresh
/// engine after another until [`WARM_BATCH`] chain results have come back.
fn warm_batch(
    loaded: &Loaded,
    journal: &Path,
    cold: &Sweep,
    tracer: &Tracer,
    report: &mut Report,
    root: SpanId,
) -> WarmBatch {
    let mut batch = WarmBatch {
        samples: Vec::new(),
        rates: Vec::new(),
    };
    while batch.samples.len() < WARM_BATCH {
        let replay = run_engine(
            loaded,
            threads(),
            false,
            Some(journal.to_path_buf()),
            tracer,
            root,
        );
        check_replay(report, &replay, cold);
        let chains = replay.chain_latencies_ms();
        batch.rates.push(chains.len() as f64 / replay.engine_s);
        batch.samples.extend(chains);
    }
    batch
}

/// Resets the process's peak resident set (`VmHWM`) to its current size,
/// so the next reading is the peak of what follows; false where the
/// kernel does not allow it.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The deterministic values of a sweep must repeat exactly for the same
/// seed and graph: across the sweeps of one run, and across runs of the
/// same build, which find the first run's values under `.perfbench_work`.
fn check_deterministic(args: &RunArgs, report: &mut Report, kind: Kind, graph: usize, s: &Sweep) {
    let d = s.deterministic(kind);
    let line = format!(
        "f_score {:?} spgemm.flops {} mcl.iterations {} sym_edges {}",
        d.f_score.map(f64::from_bits),
        d.flops,
        d.mcl_iterations,
        d.sym_edges
    );
    println!("deterministic: graph {graph}: {line}");
    let dir = Path::new(".perfbench_work").join("deterministic");
    let path = dir.join(format!(
        "{}-{}-seed{}-graph{graph}.txt",
        kind.name(),
        args.build_id,
        args.seed
    ));
    match std::fs::read_to_string(&path) {
        Ok(before) => report.check(before == line, || {
            format!("deterministic values of graph {graph} changed: {before} vs {line}")
        }),
        Err(_) => {
            let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &line));
            report.check(written.is_ok(), || format!("writing {}", path.display()));
        }
    }
}

/// A journal replay must resume every chain and return the cold records.
fn check_replay(report: &mut Report, replay: &Sweep, cold: &Sweep) {
    account(report, replay);
    report.check(replay.resumed == cold.records.len(), || {
        format!(
            "journal replay resumed {} of {} chains",
            replay.resumed,
            cold.records.len()
        )
    });
    report.check(replay.same_records(cold), || {
        "journal replay returned different records".into()
    });
}

/// Untraced and traced sweeps each of graph 0 in the traced run, for the
/// tracing overhead.
const OVERHEAD_PAIRS: usize = 5;
/// Batches of warm journal replays in the traced run: together over the
/// 1,000 results that put ten beyond p99.
const TRACED_WARM_BATCHES: usize = 2;

/// The traced run: [`OVERHEAD_PAIRS`] untraced and traced sweeps of graph
/// 0 in alternating order (untraced, traced, traced, untraced, …) for the
/// tracing overhead, then a single-threaded baseline of the same sweep,
/// warm journal replays of the first traced sweep, and direct calls into
/// the layers the sweep hides (coarsening, the store).
/// The untraced sweeps lie outside every root span, so the traced wall
/// time is the work that was traced.
fn traced(
    args: &RunArgs,
    p: &Pipeline,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let quiet = Tracer::new(false);
    let name = format!("perfbench {}: traced sweep", p.kind.name());
    let mut pairs = Vec::new();
    let mut first_traced = None;
    for pair in 0..OVERHEAD_PAIRS {
        let mut wall = [0.0; 2];
        for turn in 0..2 {
            let traced_turn = (pair + turn) % 2 == 1;
            // Every sweep writes a journal, as the cold sweeps do.
            let journal = p.journal(2 * pair + turn);
            let (sweep, loaded) = if traced_turn {
                tracer.span(0, "bench", &name, |id| {
                    p.sweep(0, threads(), false, Some(journal.clone()), tracer, id)
                })?
            } else {
                p.sweep(0, threads(), false, Some(journal.clone()), &quiet, 0)?
            };
            wall[usize::from(traced_turn)] = sweep.wall_s;
            account(report, &sweep);
            check_deterministic(args, report, p.kind, 0, &sweep);
            if traced_turn && first_traced.is_none() {
                first_traced = Some((sweep, loaded, journal));
            }
        }
        pairs.push((wall[0], wall[1]));
    }
    report.set_overhead(&pairs);
    let (sweep, loaded, journal) = first_traced.expect("at least one traced sweep");
    let name = format!("perfbench {}: traced", p.kind.name());
    tracer.span(0, "bench", &name, |root| {
        traced_calls(args, p, &sweep, &loaded, &journal, tracer, report, root)
    })
}

/// The traced part of [`traced`] after the overhead sweeps: per-layer
/// metrics of `sweep`, its single-threaded baseline, warm replays of its
/// `journal`, and direct calls.
#[allow(clippy::too_many_arguments)]
fn traced_calls(
    args: &RunArgs,
    p: &Pipeline,
    sweep: &Sweep,
    loaded: &Loaded,
    journal: &Path,
    tracer: &Tracer,
    report: &mut Report,
    root: SpanId,
) -> Result<(), String> {
    let (serial, _) = tracer.span(root, "bench", "serial sweep", |id| {
        p.sweep(0, 1, true, None, tracer, id)
    })?;
    account(report, &serial);
    println!(
        "engine {:.4}s on {} threads, {:.4}s serial",
        sweep.engine_s, sweep.threads, serial.engine_s
    );
    report.set("engine.serial_s", serial.engine_s);
    report.set("engine.speedup", serial.engine_s / sweep.engine_s);
    set_sweep_layers(report, sweep);
    let (_, dd) = sweep.thresholds;
    report.check(sweep.same_records(&serial), || {
        "the single-threaded sweep produced different records".into()
    });
    check_deterministic(args, report, p.kind, 0, &serial);
    let mut warm = Vec::new();
    for _ in 0..TRACED_WARM_BATCHES {
        warm.extend(warm_batch(loaded, journal, sweep, tracer, report, root).samples);
    }
    report.check(supported_tail(warm.len()) >= Some(99.0), || {
        format!("{} warm replays do not support p99", warm.len())
    });
    report.set("warm_ms.p99", percentile(&warm, 99.0));
    direct_calls(args, p, dd, tracer, report, root)
}

/// Per-layer metrics read off one sweep's events and counters.
pub(crate) fn set_sweep_layers(report: &mut Report, s: &Sweep) {
    report.set("graph.load_s", s.load_s);
    report.set("graph.load_edges_per_s", s.edges as f64 / s.load_s);
    report.set("core.select_threshold_s", s.threshold_s);
    report.set("core.symmetrize_s", s.stage_secs(StageKind::Symmetrize, ""));
    let methods = [
        ("core.symmetrize_s.dd", "Degree-discounted"),
        ("core.symmetrize_s.bib", "Bibliometric"),
        ("core.symmetrize_s.aat", "A+A'"),
        ("core.symmetrize_s.rw", "Random Walk"),
    ];
    for (metric, label) in methods {
        if s.finished()
            .any(|f| f.2 == StageKind::Symmetrize && f.3 == label)
        {
            report.set(metric, s.stage_secs(StageKind::Symmetrize, label));
        }
    }
    report.set(
        "core.sym_edges",
        s.deterministic(Kind::Mcl).sym_edges as f64,
    );

    let flops = s.counter("spgemm.flops") as f64;
    let intermediate = s.counter("spgemm.nnz_intermediate") as f64;
    let dense = s.counter("spgemm.rows_dense") as f64;
    let rows = dense + s.counter("spgemm.rows_sparse") as f64;
    let similarity_s = s.stage_secs(StageKind::Symmetrize, "Degree-discounted")
        + s.stage_secs(StageKind::Symmetrize, "Bibliometric");
    report.set("sparse.spgemm.flops", flops);
    report.set("sparse.spgemm.nnz_intermediate", intermediate);
    report.set(
        "sparse.spgemm.kept_ratio",
        s.counter("spgemm.nnz_final") as f64 / intermediate,
    );
    report.set("sparse.spgemm.mflops", flops / similarity_s / 1e6);
    report.set("sparse.spgemm.rows_dense_share", dense / rows);

    if s.finished()
        .any(|f| f.2 == StageKind::Cluster && f.3.contains("MLR-MCL"))
    {
        let mlrmcl_s = s.stage_secs(StageKind::Cluster, "MLR-MCL");
        let iterations = s.counter("mcl.iterations") as f64;
        report.set("cluster.mlrmcl_s", mlrmcl_s);
        report.set("cluster.mcl.iterations", iterations);
        report.set("cluster.mcl.iter_ms", mlrmcl_s * 1e3 / iterations);
    }
    if s.finished()
        .any(|f| f.2 == StageKind::Cluster && f.3.contains("Metis"))
    {
        report.set("cluster.metis_s", s.stage_secs(StageKind::Cluster, "Metis"));
    }
    report.set("eval.score_s", s.stage_secs(StageKind::Evaluate, ""));

    let busy: f64 = s.finished().map(|f| f.4).sum();
    report.set("engine.stage_busy_s", busy);
    report.set("engine.busy_share", busy / (s.threads as f64 * s.engine_s));
    report.set("engine.critical_path_s", s.critical_path_s());
    report.set("engine.cache_hits", s.counter("engine.cache_hits") as f64);
}

/// Store artifacts written and read back per run of the store layer.
const STORE_REPS: u64 = 4;

/// Calls the sweep makes internally, made directly so their layers can be
/// timed: coarsening the Degree-discounted graph, and writing the input
/// and that graph to a scratch store and reading them back.
fn direct_calls(
    args: &RunArgs,
    p: &Pipeline,
    dd: f64,
    tracer: &Tracer,
    report: &mut Report,
    root: SpanId,
) -> Result<(), String> {
    let g = tracer
        .span(root, "graph", "read_edge_list_file", |_| {
            read_edge_list_file(&p.inputs[0].0)
        })
        .map_err(|e| e.to_string())?;
    let sym = coarsen_dd(&g, dd, tracer, report, root)?;
    let store = DiskStore::open(args.work_dir.join("store"), StoreOptions::default())
        .map_err(|e| e.to_string())?;
    let artifacts: [&CsrMatrix; 2] = [g.adjacency(), sym.adjacency()];
    store_round_trip(&store, &artifacts, tracer, report, root)?;
    let stats = store.stats();
    report.set("store.hits", stats.hits as f64);
    report.set("store.misses", stats.misses as f64);
    report.set("store.bytes", stats.bytes as f64);
    Ok(())
}

/// Symmetrizes `g` with Degree-discounted at `dd` and times MLR-MCL's
/// coarsening of the result, as a direct `coarsen_graph` call.
pub(crate) fn coarsen_dd(
    g: &DiGraph,
    dd: f64,
    tracer: &Tracer,
    report: &mut Report,
    root: SpanId,
) -> Result<SymmetrizedGraph, String> {
    let method = SymMethod::DegreeDiscounted {
        alpha: 0.5,
        beta: 0.5,
        threshold: dd,
    };
    let sym = tracer.span(root, "core", "DegreeDiscounted::symmetrize", |_| {
        method.symmetrize(g)
    });
    let t = Instant::now();
    let levels = tracer
        .span(root, "cluster", "coarsen_graph", |_| {
            coarsen_graph(sym.graph(), &MlrMclOptions::default().coarsen)
        })
        .map_err(|e| e.to_string())?;
    report.set("cluster.coarsen_s", t.elapsed().as_secs_f64());
    println!(
        "coarsen_graph: {} level(s) from {} nodes",
        levels.len(),
        sym.n_nodes()
    );
    Ok(sym)
}

/// Times `DiskStore::put` and `DiskStore::load` over `artifacts`, each
/// stored [`STORE_REPS`] times under distinct keys, and checks every load
/// returns what was stored.
pub(crate) fn store_round_trip(
    store: &DiskStore,
    artifacts: &[&CsrMatrix],
    tracer: &Tracer,
    report: &mut Report,
    root: SpanId,
) -> Result<(), String> {
    let before = store.stats();
    let mut put_s = 0.0;
    let mut keys = Vec::new();
    for (i, &m) in artifacts.iter().enumerate() {
        let fp = matrix_fingerprint(m);
        for rep in 0..STORE_REPS {
            let key = fp ^ (((i as u64) << 32) | rep);
            let t = Instant::now();
            tracer
                .span(root, "store", "DiskStore::put", |_| store.put(key, m))
                .map_err(|e| e.to_string())?;
            put_s += t.elapsed().as_secs_f64();
            keys.push((key, fp));
        }
    }
    let bytes = store.stats().bytes - before.bytes;
    let mut load_s = 0.0;
    for (key, fp) in keys {
        let t = Instant::now();
        let loaded = tracer.span(root, "store", "DiskStore::load", |_| {
            store.load::<CsrMatrix>(key)
        });
        load_s += t.elapsed().as_secs_f64();
        report.check(loaded.as_ref().map(matrix_fingerprint) == Some(fp), || {
            format!("store load of {key:016x} did not return the stored matrix")
        });
    }
    let mb = bytes as f64 / 1e6;
    report.set("store.put_s", put_s);
    report.set("store.put_mb_per_s", mb / put_s);
    report.set("store.load_s", load_s);
    report.set("store.load_mb_per_s", mb / load_s);
    Ok(())
}
