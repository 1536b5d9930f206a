//! The metric catalogue and the result line every run ends with.

use std::collections::BTreeMap;

use symclust_engine::json::JsonObject;

use crate::stats::{median, quartiles, Tally};
use crate::trace::{self, Tracer};

/// Workload names, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["pipeline_mcl", "pipeline_sym", "serve_mix"];

/// End-to-end metrics (untraced run): name and unit.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    ("f_score", "%"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "ratio"),
    ("req_per_s", "1/s"),
    ("cold_ms.p50", "ms"),
    ("warm_ms.p50", "ms"),
];

/// Layers a traced run splits wall time into, with the metric each
/// layer's self time is reported as; `bench` is the remainder, time in
/// the benchmark's own code between calls.
pub const LAYERS: [(&str, &str); 9] = [
    ("bench", "trace.self_s.bench"),
    ("datasets", "trace.self_s.datasets"),
    ("graph", "trace.self_s.graph"),
    ("core", "trace.self_s.core"),
    ("cluster", "trace.self_s.cluster"),
    ("eval", "trace.self_s.eval"),
    ("engine", "trace.self_s.engine"),
    ("store", "trace.self_s.store"),
    ("cli", "trace.self_s.cli"),
];

/// Per-layer metrics (traced run): name and unit. The `trace.*` entries
/// are the self-time breakdown and the tracing overhead.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("datasets.generate_s", "s"),
    ("graph.load_s", "s"),
    ("graph.load_edges_per_s", "1/s"),
    ("core.select_threshold_s", "s"),
    ("core.symmetrize_s", "s"),
    ("core.symmetrize_s.dd", "s"),
    ("core.symmetrize_s.bib", "s"),
    ("core.symmetrize_s.aat", "s"),
    ("core.symmetrize_s.rw", "s"),
    ("core.sym_edges", "count"),
    ("sparse.spgemm.flops", "count"),
    ("sparse.spgemm.nnz_intermediate", "count"),
    ("sparse.spgemm.kept_ratio", "ratio"),
    ("sparse.spgemm.mflops", "Mflop/s"),
    ("sparse.spgemm.rows_dense_share", "ratio"),
    ("cluster.mlrmcl_s", "s"),
    ("cluster.mcl.iterations", "count"),
    ("cluster.mcl.iter_ms", "ms"),
    ("cluster.coarsen_s", "s"),
    ("cluster.metis_s", "s"),
    ("eval.score_s", "s"),
    ("engine.stage_busy_s", "s"),
    ("engine.busy_share", "ratio"),
    ("engine.critical_path_s", "s"),
    ("engine.cache_hits", "count"),
    ("engine.serial_s", "s"),
    ("engine.speedup", "ratio"),
    ("store.put_s", "s"),
    ("store.put_mb_per_s", "MB/s"),
    ("store.load_s", "s"),
    ("store.load_mb_per_s", "MB/s"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.bytes", "bytes"),
    ("warm_ms.p99", "ms"),
    ("disk_ms.p50", "ms"),
    ("cli.health_ms.p50", "ms"),
    ("cli.query_ms.p50", "ms"),
    ("cli.queue_ms.p50", "ms"),
    ("cli.warm_sym_ms.p50", "ms"),
    ("cli.warm_cluster_ms.p50", "ms"),
    ("cli.overloaded", "count"),
    ("trace.wall_s", "s"),
    ("trace.self_s.bench", "s"),
    ("trace.self_s.datasets", "s"),
    ("trace.self_s.graph", "s"),
    ("trace.self_s.core", "s"),
    ("trace.self_s.cluster", "s"),
    ("trace.self_s.eval", "s"),
    ("trace.self_s.engine", "s"),
    ("trace.self_s.store", "s"),
    ("trace.self_s.cli", "s"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
];

/// Metrics, failures and failed checks collected by one run.
#[derive(Default)]
pub struct Report {
    metrics: BTreeMap<&'static str, f64>,
    /// Top-level units attempted and failed: one per request, one per
    /// chain result of a sweep or journal replay. A failed check adds one
    /// failed unit.
    pub tally: Tally,
    problems: Vec<String>,
}

impl Report {
    /// Sets a metric; the name must be in the catalogue.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .any(|(n, _)| *n == name),
            "{name} is not in the metric catalogue"
        );
        self.metrics.insert(name, value);
    }

    /// A correctness check. A failing one is reported by `what`, counts as
    /// one failed unit in the tally and makes the run incorrect; a passing
    /// one is not counted, so the tally stays one unit per request or
    /// chain result.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.tally.record(false);
            let msg = what();
            eprintln!("check failed: {msg}");
            self.problems.push(msg);
        }
    }

    /// Records a failure that is not a check (a failed stage or request).
    pub fn problem(&mut self, what: String) {
        eprintln!("failure: {what}");
        self.problems.push(what);
    }

    /// Adds the self-time breakdown of the traced run, measured against
    /// the wall time of the root span.
    pub fn set_trace_breakdown(&mut self, tracer: &Tracer) {
        let spans = tracer.spans();
        let wall: f64 = spans
            .iter()
            .filter(|s| s.parent == 0)
            .map(|s| s.end - s.start)
            .sum();
        let by_layer = trace::self_time_by_layer(&spans);
        for (layer, name) in LAYERS {
            self.set(name, by_layer.get(layer).copied().unwrap_or(0.0));
        }
        let unknown: Vec<_> = by_layer
            .keys()
            .filter(|l| !LAYERS.iter().any(|(known, _)| known == *l))
            .collect();
        self.check(unknown.is_empty(), || {
            format!("spans on layers outside the catalogue: {unknown:?}")
        });
        let total: f64 = by_layer.values().sum();
        self.check((total - wall).abs() <= 1e-6 * wall.max(1.0), || {
            format!("layer self times add to {total}s, traced wall is {wall}s")
        });
        self.set("trace.wall_s", wall);
        self.set("trace.spans", spans.len() as f64);
    }

    /// Sets `trace.overhead_share` from pairs of (untraced, traced) runs
    /// of the same work, each given as cost per unit (seconds per sweep,
    /// or per request): the traced median over the untraced median, less
    /// one. It is printed as resolved only when one side costs more in at
    /// least nine tenths of the pairs and the medians differ by more than
    /// the untraced runs' interquartile range.
    pub fn set_overhead(&mut self, pairs: &[(f64, f64)]) {
        let plain: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let traced: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let (p, t) = (median(&plain), median(&traced));
        let spread = quartiles(&plain).map_or(f64::INFINITY, |q| q[2] - q[0]);
        let slower = pairs.iter().filter(|(p, t)| t > p).count();
        let faster = pairs.iter().filter(|(p, t)| t < p).count();
        let decided = 10 * slower.max(faster) >= 9 * pairs.len();
        let verdict = if decided && (t - p).abs() > spread {
            "resolved"
        } else {
            "unresolved: within the noise of the untraced runs"
        };
        println!(
            "tracing overhead: median cost {t:.6} traced, {p:.6} untraced (interquartile range {spread:.6}); traced costlier in {slower} of {} pairs; {verdict}",
            pairs.len()
        );
        self.set("trace.overhead_share", t / p - 1.0);
    }

    /// The result line. Prints every metric of the run's kind with its
    /// unit first; a per-layer metric the workload never exercises reads
    /// 0 and is marked as such.
    pub fn finish(mut self, traced: bool) -> String {
        let catalogue: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut metrics = JsonObject::new();
        for &(name, unit) in catalogue {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => {
                    self.problems.push(format!("{name} is not finite ({v})"));
                    0.0
                }
                None if traced => {
                    println!("{name:<34} {:>16} {unit:<8} (layer not exercised)", 0);
                    0.0
                }
                None => {
                    self.problems.push(format!("{name} was not measured"));
                    0.0
                }
            };
            if self.metrics.contains_key(name) {
                println!("{name:<34} {value:>16.6} {unit}");
            }
            let mut m = JsonObject::new();
            m.number("value", value);
            m.string("unit", unit);
            metrics.raw(name, &m.finish());
        }
        let mut out = JsonObject::new();
        out.boolean("correct", self.problems.is_empty());
        out.number("attempted", self.tally.attempted.max(1) as f64);
        out.number("failed", self.tally.failed as f64);
        out.raw("metrics", &metrics.finish());
        out.finish()
    }
}

/// Peak resident set (`VmHWM`) of a process, in MB; `None` when the
/// status file cannot be read.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_check_counts_only_when_it_fails() {
        let mut r = Report::default();
        r.tally.record_samples(&[Some(1.0), None, Some(2.0)]);
        r.check(true, || unreachable!("a passing check is not described"));
        assert_eq!((r.tally.attempted, r.tally.failed), (3, 1));
        r.check(false, || "broken".into());
        assert_eq!((r.tally.attempted, r.tally.failed), (4, 2));
        assert!(r.finish(false).contains(r#""correct":false"#));
    }
}
