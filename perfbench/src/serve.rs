//! `serve_mix`: two clients in a closed loop against a real `symclust
//! serve` daemon, each waiting for its reply before sending the next
//! request.
//!
//! Set-up generates the graphs, selects their thresholds, starts the
//! daemon (2 workers, default queue) on a fresh store and uploads the
//! graphs. The measured part has three phases:
//!
//! 1. cold, in [`CHUNKS`] chunks of the graphs — every `symmetrize` key,
//!    then every `cluster` key, once; each computes and writes the store.
//!    A warm block follows each chunk: a mix of `symmetrize`, `cluster`
//!    and `query-membership` hits of the keys computed so far, served from
//!    memory, with an out-of-band `health` probe every [`HEALTH_EVERY`]
//!    requests;
//! 2. a node-by-node membership scan of the first graphs, checked at the
//!    end against the clusterings the daemon stored (which give `f_score`);
//! 3. restart — the daemon is shut down and restarted on the same store,
//!    and every key is replayed once from disk.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::ops::Range;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use symclust_cluster::Clustering;
use symclust_engine::fingerprint::graph_fingerprint;
use symclust_engine::json::{parse_object, JsonObject, JsonValue};
use symclust_engine::{select_thresholds, Clusterer, PipelineInput, PipelineSpec, SymMethod};
use symclust_graph::generators::{shared_link_dsbm, GeneratedGraph, SharedLinkDsbmConfig};
use symclust_graph::io::{read_edge_list_file, write_edge_list_file};
use symclust_sparse::CsrMatrix;
use symclust_store::{DiskStore, StoreOptions};

use crate::pipeline::{self, Loaded};
use crate::report::{peak_rss_mb, Report};
use crate::stats::{median, percentile, supported_tail};
use crate::trace::{SpanId, Tracer};
use crate::RunArgs;

/// Graphs uploaded to the daemon.
const GRAPHS: usize = 40;
/// Nodes per graph.
const NODES: usize = 1_000;
/// Planted clusters per graph, and Metis's k.
const CLUSTERS: usize = 15;
/// Target average degree for threshold selection.
const TARGET_DEGREE: f64 = 40.0;
/// Client connections, each a closed loop.
const CONNECTIONS: usize = 2;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// The graphs are computed cold in this many chunks, each followed by a
/// warm block over every key computed so far, so that warm traffic is
/// spread over the whole run instead of one window of it.
const CHUNKS: usize = 4;
/// Share of the budget the warm blocks take together.
const WARM_SHARE: f64 = 0.3;
/// Sub-blocks per warm block in the traced run, alternately untraced and
/// traced, for the tracing overhead.
const OVERHEAD_SPLIT: usize = 8;
/// Warm requests at least, so that ten samples lie beyond p99.
const WARM_MIN: usize = 1_000;
/// One `health` probe per this many warm requests on each connection.
const HEALTH_EVERY: u64 = 16;
/// Daemon restarts, each followed by one replay of every key.
const RESTARTS: usize = 8;
/// Graphs whose Degree-discounted + Metis membership is read node by node
/// and compared with the stored clustering.
const SCAN_GRAPHS: usize = 8;

/// A daemon process: this executable re-entered as `symclust serve`.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    socket: PathBuf,
}

impl Daemon {
    /// Starts a daemon in `dir` (store at `dir/store`) and waits for its
    /// ready line.
    fn start(dir: &Path) -> Result<Daemon, String> {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .args([
                "symclust",
                "serve",
                "--socket",
                "serve.sock",
                "--store",
                "store",
            ])
            .args(["--workers", "2"])
            .current_dir(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting the daemon: {e}"))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut daemon = Daemon {
            child,
            stdout,
            socket: dir.join("serve.sock"),
        };
        let mut ready = String::new();
        let _ = daemon.stdout.read_line(&mut ready);
        if !ready.contains("listening") {
            return Err(format!("daemon did not become ready: {ready:?}"));
        }
        Ok(daemon)
    }

    fn connect(&self) -> Result<Conn, String> {
        let stream = UnixStream::connect(&self.socket)
            .map_err(|e| format!("connecting to {}: {e}", self.socket.display()))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone().map_err(|e| e.to_string())?),
            writer: stream,
        })
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The `stats` op as a map of its numeric fields.
    fn stats(&self) -> Result<HashMap<String, f64>, String> {
        let resp = self.connect()?.request(r#"{"op":"stats"}"#)?;
        let fields = parse_object(&resp)?;
        Ok(fields
            .into_iter()
            .filter_map(|(k, v)| v.as_f64().map(|x| (k, x)))
            .collect())
    }

    /// Orderly stop through the `shutdown` op; waits for the process.
    fn shutdown(mut self) -> Result<(), String> {
        let resp = self.connect()?.request(r#"{"op":"shutdown"}"#)?;
        if !is_ok(&resp) {
            return Err(format!("shutdown refused: {resp}"));
        }
        let mut rest = String::new();
        let _ = std::io::Read::read_to_string(&mut self.stdout, &mut rest);
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("daemon exited with {status}"));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // A daemon not stopped by `shutdown` (an error path) is killed;
        // either way the process is reaped before the benchmark exits.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One client connection.
struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    /// Sends one request line and waits for its response line.
    fn request(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|e| format!("sending request: {e}"))?;
        let mut resp = String::new();
        self.reader
            .read_line(&mut resp)
            .map_err(|e| format!("reading response: {e}"))?;
        if resp.is_empty() {
            return Err("daemon closed the connection".into());
        }
        Ok(resp.trim_end().to_string())
    }

    /// A timed request inside a `cli` span: the latency in ms, or `None`
    /// when the daemon answered with an error (a refusal included).
    fn timed(
        &mut self,
        line: &str,
        op: &str,
        tracer: &Tracer,
        parent: SpanId,
    ) -> Result<(Option<f64>, String), String> {
        let t = Instant::now();
        let resp = tracer.span(parent, "cli", op, |_| self.request(line))?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        Ok((is_ok(&resp).then_some(ms), resp))
    }
}

fn is_ok(resp: &str) -> bool {
    parse_object(resp)
        .ok()
        .and_then(|f| f.get("ok").and_then(JsonValue::as_bool))
        == Some(true)
}

/// A string or numeric field of a response line, as text.
fn field(resp: &str, key: &str) -> Option<String> {
    let fields = parse_object(resp).ok()?;
    let v = fields.get(key)?;
    v.as_str()
        .map(str::to_string)
        .or_else(|| v.as_f64().map(|x| x.to_string()))
}

/// Sends `lines` over [`CONNECTIONS`] closed-loop clients that share the
/// list: each client sends the next unsent line once its previous reply
/// has arrived, so every worker stays busy whatever the lines cost.
/// Returns each latency and response in input order.
fn closed_loop(
    daemon: &Daemon,
    lines: &[String],
    op: &str,
    tracer: &Tracer,
    parent: SpanId,
) -> Result<Vec<(Option<f64>, String)>, String> {
    let results = Mutex::new(vec![None; lines.len()]);
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                let (results, next) = (&results, &next);
                scope.spawn(move || -> Result<(), String> {
                    let mut conn = daemon.connect()?;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(line) = lines.get(i) else {
                            return Ok(());
                        };
                        let r = conn.timed(line, op, tracer, parent)?;
                        results.lock().expect("results poisoned")[i] = Some(r);
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("client thread panicked"))
    })?;
    Ok(results
        .into_inner()
        .expect("results poisoned")
        .into_iter()
        .map(|r| r.expect("every line was sent"))
        .collect())
}

/// splitmix64: the warm mix's request sequence from the seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The generated inputs of one set-up.
struct Inputs {
    graphs: Vec<GeneratedGraph>,
    /// (Bibliometric, Degree-discounted) per graph.
    thresholds: Vec<(f64, f64)>,
    edge_files: Vec<PathBuf>,
    select_threshold_s: f64,
    generate_s: f64,
}

impl Inputs {
    /// A request line for graph `g` with `method` at its selected
    /// threshold; `algo` makes it a `cluster` request.
    fn request(&self, g: usize, method: &str, algo: Option<&str>) -> String {
        let (bib, dd) = self.thresholds[g];
        let mut obj = JsonObject::new();
        obj.string(
            "op",
            if algo.is_some() {
                "cluster"
            } else {
                "symmetrize"
            },
        );
        obj.string(
            "graph",
            &format!("{:016x}", graph_fingerprint(&self.graphs[g].graph)),
        );
        obj.string("method", method);
        obj.number("threshold", if method == "dd" { dd } else { bib });
        if let Some(algo) = algo {
            obj.string("algo", algo);
            if algo == "metis" {
                obj.number("k", CLUSTERS as f64);
            }
        }
        obj.finish()
    }

    /// Every `symmetrize` request of `graphs`.
    fn sym_lines(&self, graphs: Range<usize>) -> Vec<String> {
        graphs
            .flat_map(|g| ["dd", "bib"].map(|m| self.request(g, m, None)))
            .collect()
    }

    /// Every `cluster` request of `graphs`, the MLR-MCL ones first: the
    /// two clients then finish a chunk on short Metis requests, and no
    /// worker idles long while the other ends a slow one.
    fn cluster_lines(&self, graphs: Range<usize>) -> Vec<String> {
        let mut out = Vec::new();
        for algo in ["mlrmcl", "metis"] {
            for g in graphs.clone() {
                for m in ["dd", "bib"] {
                    out.push(self.request(g, m, Some(algo)));
                }
            }
        }
        out
    }
}

fn query_line(cluster_key: &str, node: usize) -> String {
    let mut obj = JsonObject::new();
    obj.string("op", "query-membership");
    obj.string("key", cluster_key);
    obj.number("node", node as f64);
    obj.finish()
}

fn generate(seed: u64, i: usize) -> Result<GeneratedGraph, String> {
    shared_link_dsbm(&SharedLinkDsbmConfig {
        n_nodes: NODES,
        n_clusters: CLUSTERS,
        seed: seed.wrapping_mul(GRAPHS as u64).wrapping_add(i as u64),
        ..Default::default()
    })
    .map_err(|e| e.to_string())
}

/// One set-up: inputs generated and written, thresholds selected, a
/// daemon started on a fresh store in `dir`, every graph uploaded.
fn setup(
    seed: u64,
    dir: &Path,
    tracer: &Tracer,
    parent: SpanId,
) -> Result<(Inputs, Daemon), String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let graphs = (0..GRAPHS)
        .map(|i| {
            tracer.span(parent, "datasets", "shared_link_dsbm", |_| {
                generate(seed, i)
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    let generate_s = t.elapsed().as_secs_f64();
    let mut edge_files = Vec::new();
    for (i, g) in graphs.iter().enumerate() {
        let path = dir.join(format!("graph{i}.txt"));
        tracer
            .span(parent, "graph", "write_edge_list_file", |_| {
                write_edge_list_file(&g.graph, &path)
            })
            .map_err(|e| e.to_string())?;
        edge_files.push(path);
    }
    let t = Instant::now();
    let thresholds = graphs
        .iter()
        .map(|g| {
            tracer.span(parent, "core", "select_thresholds", |_| {
                select_thresholds(&g.graph, TARGET_DEGREE)
            })
        })
        .collect();
    let select_threshold_s = t.elapsed().as_secs_f64();
    let daemon = tracer.span(parent, "cli", "start daemon", |_| {
        Daemon::start(&dir.join("daemon"))
    })?;
    let mut conn = daemon.connect()?;
    for (g, path) in graphs.iter().zip(&edge_files) {
        let edges = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        let mut obj = JsonObject::new();
        obj.string("op", "upload-graph");
        obj.string("edges", &edges);
        let line = obj.finish();
        let resp = tracer.span(parent, "cli", "upload-graph", |_| conn.request(&line))?;
        let want = format!("{:016x}", graph_fingerprint(&g.graph));
        if field(&resp, "graph").as_deref() != Some(want.as_str()) {
            return Err(format!("upload answered {resp}, expected graph {want}"));
        }
    }
    let inputs = Inputs {
        graphs,
        thresholds,
        edge_files,
        select_threshold_s,
        generate_s,
    };
    Ok((inputs, daemon))
}

/// Latency samples of warm requests, by kind of request.
#[derive(Default)]
struct Warm {
    sym: Vec<Option<f64>>,
    cluster: Vec<Option<f64>>,
    query: Vec<Option<f64>>,
    health: Vec<Option<f64>>,
    /// Responses that differed from the same request's earlier response.
    mismatches: Vec<String>,
    wall_s: f64,
}

impl Warm {
    /// Every warm request but the health probes.
    fn requests(&self) -> Vec<Option<f64>> {
        [&self.sym, &self.cluster, &self.query]
            .into_iter()
            .flatten()
            .copied()
            .collect()
    }

    fn len(&self) -> usize {
        self.sym.len() + self.cluster.len() + self.query.len()
    }

    fn req_per_s(&self) -> f64 {
        self.len() as f64 / self.wall_s
    }

    /// Adds another block's samples and wall time to this one.
    fn merge(&mut self, other: Warm) {
        self.sym.extend(other.sym);
        self.cluster.extend(other.cluster);
        self.query.extend(other.query);
        self.health.extend(other.health);
        self.mismatches.extend(other.mismatches);
        self.wall_s += other.wall_s;
    }
}

/// What the cold requests answered so far: request line → response line.
#[derive(Default)]
struct Known {
    sym: Vec<(String, String)>,
    cluster: Vec<(String, String)>,
    cluster_keys: Vec<String>,
}

/// One warm block: each connection sends hits of the known keys until
/// `until` has passed and it has sent its share of `min_requests`.
///
/// The block sends `symmetrize`, `cluster` and `query-membership` hits in
/// turn, a third each; the seed picks the keys and nodes. Nothing in the
/// repository records how real clients mix these ops, so the equal split
/// is an assumption. It sets `warm_ms.p50` (which falls among the cheap
/// `cluster` and `query-membership` hits), `req_per_s`, and the traced
/// run's `warm_ms.p99` (the tail of the `symmetrize` hits, which
/// recompute a matrix fingerprint). The traced run also reports each op
/// on its own.
fn warm_phase(
    daemon: &Daemon,
    known: &Known,
    seed: u64,
    until: Instant,
    min_requests: usize,
    tracer: &Tracer,
    parent: SpanId,
) -> Result<Warm, String> {
    let start = Instant::now();
    let per_conn = min_requests.div_ceil(CONNECTIONS);
    let barrier = Barrier::new(CONNECTIONS);
    let parts = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let barrier = &barrier;
                scope.spawn(move || -> Result<Warm, String> {
                    let mut conn = daemon.connect()?;
                    let mut rng = Rng(seed ^ (0xA5A5_0000 + c as u64));
                    let mut seen: HashMap<String, String> = HashMap::new();
                    let mut w = Warm::default();
                    barrier.wait();
                    let mut i = 0u64;
                    while w.len() < per_conn || Instant::now() < until {
                        i += 1;
                        if i.is_multiple_of(HEALTH_EVERY) {
                            let (ms, _) =
                                conn.timed(r#"{"op":"health"}"#, "health", tracer, parent)?;
                            w.health.push(ms);
                            continue;
                        }
                        let (line, expect, op) = match w.len() % 3 {
                            0 => {
                                let (l, r) = &known.sym[rng.below(known.sym.len())];
                                (l.clone(), Some(r.clone()), "symmetrize")
                            }
                            1 => {
                                let (l, r) = &known.cluster[rng.below(known.cluster.len())];
                                (l.clone(), Some(r.clone()), "cluster")
                            }
                            _ => {
                                let keys = &known.cluster_keys;
                                let line =
                                    query_line(&keys[rng.below(keys.len())], rng.below(NODES));
                                let expect = seen.get(&line).cloned();
                                (line, expect, "query-membership")
                            }
                        };
                        let (ms, resp) = conn.timed(&line, op, tracer, parent)?;
                        if expect.as_ref().is_some_and(|e| *e != resp) {
                            w.mismatches.push(format!("{line} answered {resp}"));
                        }
                        match op {
                            "symmetrize" => w.sym.push(ms),
                            "cluster" => w.cluster.push(ms),
                            _ => {
                                seen.entry(line).or_insert(resp);
                                w.query.push(ms);
                            }
                        }
                    }
                    Ok(w)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Result<Vec<_>, String>>()
    })?;
    let mut total = Warm::default();
    for p in parts {
        total.merge(p);
    }
    total.wall_s = start.elapsed().as_secs_f64();
    Ok(total)
}

/// A warm block of the traced run, for the tracing overhead: sub-blocks
/// in [`OVERHEAD_SPLIT`] / 2 pairs of one untraced and one traced, the
/// order alternating from pair to pair. The untraced sub-blocks lie
/// outside every root span. Each pair's cost per request goes to `pairs`
/// as (untraced, traced).
fn traced_warm_block(
    daemon: &Daemon,
    known: &Known,
    seed: u64,
    until: Instant,
    tracer: &Tracer,
    pairs: &mut Vec<(f64, f64)>,
) -> Result<Warm, String> {
    let quiet = Tracer::new(false);
    let start = Instant::now();
    let step = until.saturating_duration_since(start) / OVERHEAD_SPLIT as u32;
    let min = WARM_MIN.div_ceil(CHUNKS * OVERHEAD_SPLIT);
    let mut all = Warm::default();
    for pair in 0..OVERHEAD_SPLIT / 2 {
        let mut cost = [0.0; 2];
        for turn in 0..2 {
            let traced = (pair + turn) % 2 == 1;
            let sub = 2 * pair + turn;
            let seed = seed ^ ((sub as u64) << 16);
            let sub_until = start + step * (sub as u32 + 1);
            let w = if traced {
                tracer.span(0, "bench", "perfbench serve_mix: warm block", |id| {
                    warm_phase(daemon, known, seed, sub_until, min, tracer, id)
                })?
            } else {
                warm_phase(daemon, known, seed, sub_until, min, &quiet, 0)?
            };
            cost[usize::from(traced)] = w.wall_s / w.len() as f64;
            all.merge(w);
        }
        pairs.push((cost[0], cost[1]));
    }
    Ok(all)
}

/// Runs `serve_mix` (end-to-end or traced). Every phase is a root span of
/// its own, so that the traced run can leave some warm blocks untraced.
pub fn run(args: &RunArgs, tracer: &Tracer, report: &mut Report) -> Result<(), String> {
    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    let mut kept: Option<(Inputs, Daemon, PathBuf)> = None;
    for rep in 0..SETUP_REPS {
        let dir = args.work_dir.join(format!("setup{rep}"));
        let t = Instant::now();
        let (inputs, daemon) = tracer.span(0, "bench", "perfbench serve_mix: set-up", |id| {
            setup(args.seed, &dir, tracer, id)
        })?;
        setup_s.push(t.elapsed().as_secs_f64());
        generate_s.push(inputs.generate_s);
        if let Some((old_inputs, old, old_dir)) = kept.replace((inputs, daemon, dir)) {
            old.shutdown()?;
            let _ = std::fs::remove_dir_all(old_dir);
            let now = &kept.as_ref().expect("just kept").0;
            report.check(fingerprints(&old_inputs) == fingerprints(now), || {
                format!("seed {} generated different inputs on repeat", args.seed)
            });
        }
    }
    let (inputs, daemon, dir) = kept.expect("at least one set-up");
    let fps = fingerprints(&inputs);
    println!(
        "workload serve_mix seed {} input fingerprints {} ({GRAPHS} graphs of {NODES} nodes)",
        args.seed,
        fps.join(",")
    );

    // Cold chunks, each followed by a warm block.
    let block = Duration::from_secs_f64(args.seconds * WARM_SHARE / CHUNKS as f64);
    let per_chunk = GRAPHS / CHUNKS;
    let mut known = Known::default();
    let mut cold: Vec<(String, Option<f64>)> = Vec::new();
    let mut cold_s = 0.0;
    let mut warm = Warm::default();
    let mut overhead_pairs = Vec::new();
    for c in 0..CHUNKS {
        let graphs = c * per_chunk..(c + 1) * per_chunk;
        let sym_lines = inputs.sym_lines(graphs.clone());
        let cluster_lines = inputs.cluster_lines(graphs);
        let t = Instant::now();
        let (sym, cluster) = tracer.span(0, "bench", "perfbench serve_mix: cold chunk", |id| {
            let sym = closed_loop(&daemon, &sym_lines, "symmetrize", tracer, id)?;
            let cluster = closed_loop(&daemon, &cluster_lines, "cluster", tracer, id)?;
            Ok::<_, String>((sym, cluster))
        })?;
        cold_s += t.elapsed().as_secs_f64();
        let lines = sym_lines.iter().chain(&cluster_lines);
        for (line, (ms, resp)) in lines.zip(sym.iter().chain(&cluster)) {
            if ms.is_none() {
                report.problem(format!("cold request {line} failed: {resp}"));
            }
            cold.push((line.clone(), *ms));
        }
        known
            .cluster_keys
            .extend(cluster.iter().filter_map(|r| field(&r.1, "key")));
        known
            .sym
            .extend(sym_lines.into_iter().zip(sym.into_iter().map(|r| r.1)));
        known.cluster.extend(
            cluster_lines
                .into_iter()
                .zip(cluster.into_iter().map(|r| r.1)),
        );

        let seed = args.seed ^ ((c as u64) << 32);
        let until = Instant::now() + block;
        let w = if args.trace {
            traced_warm_block(&daemon, &known, seed, until, tracer, &mut overhead_pairs)?
        } else {
            warm_phase(&daemon, &known, seed, until, WARM_MIN / CHUNKS, tracer, 0)?
        };
        println!(
            "warm block {c}: {} requests, {:.1} req/s",
            w.len(),
            w.req_per_s()
        );
        warm.merge(w);
    }
    report.check(known.cluster_keys.len() == known.cluster.len(), || {
        "a cold cluster response carried no key".into()
    });
    let cold_p50 = |op: &str, has: &str| {
        let v: Vec<Option<f64>> = cold
            .iter()
            .filter(|(l, _)| l.contains(op) && l.contains(has))
            .map(|c| c.1)
            .collect();
        percentile(&v, 50.0)
    };
    println!(
        "cold p50 ms: symmetrize dd {:.3} bib {:.3}; cluster metis {:.3} mlrmcl {:.3}",
        cold_p50("symmetrize", r#""dd""#),
        cold_p50("symmetrize", r#""bib""#),
        cold_p50("cluster", "metis"),
        cold_p50("cluster", "mlrmcl"),
    );
    let cold: Vec<Option<f64>> = cold.into_iter().map(|c| c.1).collect();
    report.tally.record_samples(&cold);

    // The membership of the first graphs' Degree-discounted + Metis
    // clusterings, node by node; after the run they must equal what the
    // daemon stored.
    let mut scanned = Vec::new();
    for g in 0..SCAN_GRAPHS {
        let key = dd_metis_key(&inputs, &known, g)?;
        let scan_lines: Vec<String> = (0..NODES).map(|n| query_line(&key, n)).collect();
        let scan = tracer.span(0, "bench", "perfbench serve_mix: membership scan", |id| {
            closed_loop(&daemon, &scan_lines, "query-membership", tracer, id)
        })?;
        report
            .tally
            .record_samples(&scan.iter().map(|r| r.0).collect::<Vec<_>>());
        let assignments: Option<Vec<u32>> = scan
            .iter()
            .map(|r| field(&r.1, "cluster").and_then(|c| c.parse().ok()))
            .collect();
        match assignments {
            Some(a) => scanned.push(a),
            None => report.problem(format!("the membership scan of graph {g} was incomplete")),
        }
    }

    let warm_samples = warm.requests();
    report.tally.record_samples(&warm_samples);
    report.tally.record_samples(&warm.health);
    report.check(warm.mismatches.is_empty(), || {
        format!(
            "warm responses differ from earlier ones: {:?}",
            warm.mismatches.first()
        )
    });
    report.check(supported_tail(warm_samples.len()) >= Some(99.0), || {
        format!("{} warm requests do not support p99", warm_samples.len())
    });
    println!(
        "warm: {} requests ({} symmetrize, {} cluster, {} query-membership), {} health probes, {:.3}s in {CHUNKS} blocks; p99 {:.3} ms (a per-layer metric)",
        warm_samples.len(),
        warm.sym.len(),
        warm.cluster.len(),
        warm.query.len(),
        warm.health.len(),
        warm.wall_s,
        percentile(&warm_samples, 99.0)
    );
    if args.trace {
        report.set_overhead(&overhead_pairs);
    }
    let end_stats = daemon.stats()?;
    let rss_first = peak_rss_mb(Some(daemon.pid()));

    // Restart: the same store, every key replayed once from disk; the
    // store counters of the last round go into the traced report.
    let restart_span = tracer.reserve();
    let restart_start = tracer.now();
    let mut daemon = daemon;
    let mut rss = rss_first.unwrap_or(f64::NAN);
    let mut disk = Vec::new();
    let mut store_delta = HashMap::new();
    for _ in 0..RESTARTS {
        daemon.shutdown()?;
        // Each round starts from a settled file system: what the daemon
        // wrote before (blobs, the stats sidecar) is committed first.
        let store_dir = dir.join("daemon").join("store");
        std::fs::File::open(&store_dir)
            .and_then(|d| d.sync_all())
            .map_err(|e| format!("syncing {}: {e}", store_dir.display()))?;
        daemon = tracer.span(restart_span, "cli", "start daemon", |_| {
            Daemon::start(&dir.join("daemon"))
        })?;
        let before = daemon.stats()?;
        let mut conn = daemon.connect()?;
        let mut round = Vec::new();
        for (line, cold_resp) in known.sym.iter().chain(&known.cluster) {
            let op = if line.contains(r#""op":"cluster""#) {
                "cluster"
            } else {
                "symmetrize"
            };
            let (ms, resp) = conn.timed(line, op, tracer, restart_span)?;
            report.check(&resp == cold_resp, || {
                format!("{line} answered {resp} from disk, {cold_resp} cold")
            });
            round.push(ms);
        }
        let after = daemon.stats()?;
        report.tally.record_samples(&round);
        store_delta = ["store-hits", "store-misses", "store-puts", "store-bytes"]
            .into_iter()
            .map(|k| {
                let d = after.get(k).copied().unwrap_or(f64::NAN)
                    - before.get(k).copied().unwrap_or(f64::NAN);
                (k, d)
            })
            .collect();
        report.check(
            store_delta["store-misses"] == 0.0
                && store_delta["store-puts"] == 0.0
                && store_delta["store-hits"] >= round.len() as f64,
            || {
                format!(
                    "after a restart {} replays made {} store hits, {} misses, {} puts",
                    round.len(),
                    store_delta["store-hits"],
                    store_delta["store-misses"],
                    store_delta["store-puts"]
                )
            },
        );
        rss = rss.max(peak_rss_mb(Some(daemon.pid())).unwrap_or(f64::NAN));
        let n_sym = known.sym.len();
        println!(
            "disk p50 ms: symmetrize {:.4} cluster {:.4}",
            percentile(&round[..n_sym], 50.0),
            percentile(&round[n_sym..], 50.0)
        );
        disk.extend(round);
    }
    let store_bytes = daemon
        .stats()?
        .get("store-bytes")
        .copied()
        .unwrap_or(f64::NAN);
    tracer.close(
        restart_span,
        0,
        "bench",
        "perfbench serve_mix: restart phase",
        restart_start,
    );
    daemon.shutdown()?;
    stored_f_score(&inputs, &known, &dir, &scanned, report)?;

    if args.trace {
        report.set("store.hits", store_delta["store-hits"]);
        report.set("store.misses", store_delta["store-misses"]);
        report.set("store.bytes", store_bytes);
        report.set("disk_ms.p50", percentile(&disk, 50.0));
        report.set(
            "cli.overloaded",
            end_stats.get("overloaded").copied().unwrap_or(f64::NAN),
        );
        let health = percentile(&warm.health, 50.0);
        let query = percentile(&warm.query, 50.0);
        report.set("cli.health_ms.p50", health);
        report.set("cli.query_ms.p50", query);
        report.set("cli.queue_ms.p50", query - health);
        report.set("warm_ms.p99", percentile(&warm_samples, 99.0));
        report.set("cli.warm_sym_ms.p50", percentile(&warm.sym, 50.0));
        report.set("cli.warm_cluster_ms.p50", percentile(&warm.cluster, 50.0));
        report.set("datasets.generate_s", median(&generate_s));
        tracer.span(0, "bench", "perfbench serve_mix: in-process", |id| {
            in_process(args, &inputs, &known, &dir, tracer, report, id)
        })?;
        report.set_trace_breakdown(tracer);
        return Ok(());
    }
    report.set("setup_s", median(&setup_s));
    report.set("pipeline_s", cold_s);
    report.set("cold_ms.p50", percentile(&cold, 50.0));
    report.set("req_per_s", warm.req_per_s());
    report.set("warm_ms.p50", percentile(&warm_samples, 50.0));
    report.set("peak_rss_mb", rss);
    report.set("ok_share", report.tally.ok_share());
    Ok(())
}

/// The key of graph `g`'s Degree-discounted + Metis clustering, from its
/// cold response.
fn dd_metis_key(inputs: &Inputs, known: &Known, g: usize) -> Result<String, String> {
    let line = inputs.request(g, "dd", Some("metis"));
    known
        .cluster
        .iter()
        .find(|(l, _)| *l == line)
        .and_then(|(_, resp)| field(resp, "key"))
        .ok_or_else(|| format!("no cold dd + metis key for graph {g}"))
}

/// `f_score`: the mean F-score of every graph's Degree-discounted + Metis
/// clustering, read from the stopped daemon's store and scored against
/// the planted truth. All 40 graphs are scored because F varies from graph
/// to graph; the scanned graphs must match what `query-membership`
/// answered.
fn stored_f_score(
    inputs: &Inputs,
    known: &Known,
    dir: &Path,
    scanned: &[Vec<u32>],
    report: &mut Report,
) -> Result<(), String> {
    let store = DiskStore::open(dir.join("daemon").join("store"), StoreOptions::default())
        .map_err(|e| e.to_string())?;
    let mut f = Vec::new();
    for g in 0..GRAPHS {
        let key = dd_metis_key(inputs, known, g)?;
        let clustering = u64::from_str_radix(&key, 16)
            .ok()
            .and_then(|k| store.load::<Clustering>(k))
            .ok_or_else(|| format!("the daemon's store has no clustering {key}"))?;
        if let Some(scan) = scanned.get(g) {
            report.check(scan.as_slice() == clustering.assignments(), || {
                format!("query-membership of graph {g} differs from the stored clustering")
            });
        }
        f.push(symclust_eval::avg_f_score(clustering.assignments(), &inputs.graphs[g].truth).avg_f);
    }
    println!("deterministic: dd + metis f_score per graph {f:?}");
    report.set("f_score", f.iter().sum::<f64>() / f.len() as f64);
    Ok(())
}

fn fingerprints(inputs: &Inputs) -> Vec<String> {
    inputs
        .graphs
        .iter()
        .map(|g| format!("{:016x}", graph_fingerprint(&g.graph)))
        .collect()
}

/// The traced run's view into the layers the daemon hides: the cold
/// phase's compute for graph 0 as an engine sweep (and its
/// single-threaded baseline), and the store's put and load on the
/// matrices the daemon stored.
fn in_process(
    args: &RunArgs,
    inputs: &Inputs,
    known: &Known,
    dir: &Path,
    tracer: &Tracer,
    report: &mut Report,
    root: SpanId,
) -> Result<(), String> {
    let t = Instant::now();
    let g = tracer
        .span(root, "graph", "read_edge_list_file", |_| {
            read_edge_list_file(&inputs.edge_files[0])
        })
        .map_err(|e| e.to_string())?;
    let load_s = t.elapsed().as_secs_f64();
    let (bib, dd) = inputs.thresholds[0];
    let loaded = Loaded {
        load_s,
        threshold_s: inputs.select_threshold_s / GRAPHS as f64,
        edges: g.n_edges(),
        thresholds: (bib, dd),
        spec: PipelineSpec {
            methods: vec![
                SymMethod::DegreeDiscounted {
                    alpha: 0.5,
                    beta: 0.5,
                    threshold: dd,
                },
                SymMethod::Bibliometric { threshold: bib },
            ],
            clusterers: vec![
                Clusterer::Metis { k: CLUSTERS },
                Clusterer::MlrMcl { inflation: 2.0 },
            ],
            extra_prune: None,
        },
        input: PipelineInput::new("serve_mix graph 0", g, Some(inputs.graphs[0].truth.clone())),
    };
    let sweep = tracer.span(root, "bench", "sweep", |id| {
        pipeline::run_engine(&loaded, pipeline::threads(), false, None, tracer, id)
    });
    pipeline::account(report, &sweep);
    let serial = tracer.span(root, "bench", "serial sweep", |id| {
        pipeline::run_engine(&loaded, 1, true, None, tracer, id)
    });
    pipeline::account(report, &serial);
    report.check(sweep.same_records(&serial), || {
        "the single-threaded sweep produced different records".into()
    });
    pipeline::set_sweep_layers(report, &sweep);
    report.set("engine.serial_s", serial.engine_s);
    report.set("engine.speedup", serial.engine_s / sweep.engine_s);
    pipeline::coarsen_dd(&loaded.input.graph, dd, tracer, report, root)?;

    let daemon_store = DiskStore::open(dir.join("daemon").join("store"), StoreOptions::default())
        .map_err(|e| e.to_string())?;
    let mut matrices: Vec<CsrMatrix> = Vec::new();
    for (_, resp) in &known.sym {
        let key = field(resp, "key")
            .and_then(|k| u64::from_str_radix(&k, 16).ok())
            .ok_or_else(|| format!("symmetrize response without a key: {resp}"))?;
        let m = daemon_store
            .load::<CsrMatrix>(key)
            .ok_or_else(|| format!("the daemon's store has no matrix {key:016x}"))?;
        matrices.push(m);
    }
    let scratch = DiskStore::open(args.work_dir.join("scratch-store"), StoreOptions::default())
        .map_err(|e| e.to_string())?;
    let refs: Vec<&CsrMatrix> = matrices.iter().collect();
    pipeline::store_round_trip(&scratch, &refs, tracer, report, root)
}
