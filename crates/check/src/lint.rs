//! Repo-invariant lint driver.
//!
//! `cargo clippy` enforces language-level hygiene; this module enforces the
//! *workspace contracts* that no generic tool knows about (DESIGN.md §13):
//!
//! 1. **kernel-cancel-token** — every public kernel entry point in
//!    `sparse`/`core`/`cluster`/`store` (SpGEMM, symmetrizations,
//!    clusterers, PageRank, Lanczos, nibble, cached-kernel wrappers) must
//!    accept an `&Exec`, the execution context that carries the cancel
//!    token, or be on the allowlist of entry points that do no
//!    cancellable kernel work.
//! 2. **metric-name-taxonomy** — every metric name registered in source
//!    (via `metric_names` constants or inline `.counter("…")`-style calls)
//!    must appear in DESIGN.md §11, and every bench-gate `EXACT_KEYS`
//!    entry must correspond to a name actually registered in source. A
//!    renamed counter therefore fails CI instead of silently flatlining a
//!    dashboard or orphaning a baseline key.
//! 3. **no-unwrap-expect** — no `.unwrap()` / `.expect(` in non-test
//!    library code; panics belong to callers, not kernels. Allowlisted:
//!    mutex-lock expects (poisoning is fatal by design) and a handful of
//!    structurally-infallible cases, each with a recorded reason.
//! 4. **cache-key-purity** — cache-key/fingerprint code must stay
//!    deterministic: no wall-clock reads and no thread counts (nor any
//!    other `Exec` knob) may flow
//!    into `fingerprint.rs`, `cache.rs`, or any `*cache_params*` /
//!    `chain_key` / `stage_key` / `symmetrize_key` / `cluster_key`
//!    function body, in the engine or the store (whose on-disk content
//!    addresses are derived from the same keys). (Thread count is
//!    excluded from cache keys *on purpose* — kernels are
//!    bit-deterministic across thread counts, DESIGN.md §12.)
//! 5. **store-faultfs** — non-test library code in `crates/store` must
//!    not call `std::fs` directly; every filesystem touch goes through
//!    the `faultfs` shim so the chaos harness's deterministic fault
//!    schedules (DESIGN.md §15) actually cover it. A raw call is an
//!    unfaultable blind spot. Allowlisted: `faultfs.rs` itself, the
//!    single mediation point.
//! 6. **sparse-spillfs** — the same contract for `crates/sparse`: all
//!    scratch-file I/O goes through `spill.rs`.
//! 7. **error-code-taxonomy** — the closed protocol error-code set in
//!    `crates/cli/src/protocol.rs` must match the DESIGN.md §14 error
//!    table in both directions, mirroring the metric-taxonomy rule.
//! 8. **atomic-ordering** — every `Ordering::Relaxed` in non-test
//!    library code must carry a reason-carrying [`ALLOW_RELAXED`] entry
//!    naming the atomic and why relaxed ordering is sound there
//!    (DESIGN.md §18). An unexplained Relaxed on an atomic used for
//!    cross-thread handoff is exactly where lost-wakeup and stale-flag
//!    races hide; the audit makes each one a deliberate, documented
//!    decision.
//!
//! The scanner is line-based over comment/string-stripped source (no
//! syntax tree, zero dependencies): the rules only need signatures,
//! brace depth, and string literals, and a small scanner that CI builds
//! in two seconds beats a proc-macro stack. The stripping itself is done
//! by the token-stream lexer in [`crate::lexer`], so comments, raw
//! strings, char literals, and lifetimes are classified once, correctly,
//! for every rule. Every allowlist entry is checked for staleness — an
//! entry that matches nothing is itself a lint error, so the lists
//! cannot rot. Rules 3, 5, 6 and 8 share one table-driven allowlist
//! matcher ([`AllowRule`]).

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule identifier (see module docs).
    pub rule: &'static str,
    /// Repo-relative file path.
    pub file: String,
    /// 1-based line number (0 for file-level findings).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// The rules this driver enforces, with one-line summaries (for
/// `symclust-check list-rules`).
pub const RULES: &[(&str, &str)] = &[
    (
        "kernel-cancel-token",
        "public kernels in sparse/core/cluster/store accept an &Exec carrying the cancel token (or are allowlisted)",
    ),
    (
        "metric-name-taxonomy",
        "metric names in source match DESIGN.md §11 and cover the bench gate EXACT_KEYS",
    ),
    (
        "no-unwrap-expect",
        "no .unwrap()/.expect( in non-test library code",
    ),
    (
        "cache-key-purity",
        "no wall-clock or thread counts in engine cache-key/fingerprint code",
    ),
    (
        "store-faultfs",
        "every filesystem call in crates/store goes through the faultfs shim",
    ),
    (
        "sparse-spillfs",
        "every filesystem call in crates/sparse goes through the spill module",
    ),
    (
        "error-code-taxonomy",
        "protocol error codes match the DESIGN.md §14 table, both directions",
    ),
    (
        "atomic-ordering",
        "every Ordering::Relaxed in library code carries a reason-carrying allowlist entry",
    ),
];

/// Public kernels allowed to omit `&Exec`, with the reason. Every entry
/// must still match a scanned function (staleness check).
const ALLOW_NO_TOKEN: &[(&str, &str)] = &[
    (
        "spgemm_nnz_upper_bound",
        "O(nnz) estimator, not a kernel; used to decide degraded mode",
    ),
    (
        "spgemm_flops",
        "O(nnz) FLOP estimator, not a kernel; used to size degraded mode",
    ),
    (
        "pagerank_nibble",
        "local-partitioning entry; runs in milliseconds on the push frontier",
    ),
    (
        "pagerank_nibble_directed",
        "local-partitioning entry; runs in milliseconds on the push frontier",
    ),
    (
        "cluster_of",
        "assignment lookup on a finished Clustering, not a kernel",
    ),
    (
        "cluster_digraph",
        "BestWCut baseline entry; dominated by pagerank, which bounds its own iterations",
    ),
    (
        "cluster_embedding",
        "k-means over a k-dimensional spectral embedding; negligible next to Lanczos",
    ),
    (
        "symmetrize_key",
        "pure key derivation over the graph fingerprint; no kernel work",
    ),
    (
        "cluster_key",
        "pure key derivation over the symmetrize key; no kernel work",
    ),
];

/// `.unwrap()`/`.expect(` occurrences allowed in library code:
/// `(path suffix, raw-line needle, reason)`. Staleness-checked.
const ALLOW_UNWRAP: &[(&str, &str, &str)] = &[
    (
        "engine/src/exec.rs",
        "lock",
        "mutex poisoning is fatal by design: a poisoned worker already aborted the sweep",
    ),
    (
        "engine/src/exec.rs",
        ".expect(\"engine worker pool\")",
        "crossbeam scope join fails only on a worker panic, already caught per-stage",
    ),
    (
        "engine/src/exec.rs",
        "node has a method",
        "plan construction guarantees the field; a None is a Plan::build bug",
    ),
    (
        "engine/src/exec.rs",
        "node has a clusterer",
        "plan construction guarantees the field; a None is a Plan::build bug",
    ),
    (
        "engine/src/exec.rs",
        "node has a threshold",
        "plan construction guarantees the field; a None is a Plan::build bug",
    ),
    (
        "engine/src/exec.rs",
        ".expect(\"dependency output missing\")",
        "present by construction: the dispatcher releases a node only after its deps settled",
    ),
    (
        "engine/src/cache.rs",
        "lock",
        "mutex/condvar poisoning is fatal by design",
    ),
    (
        "engine/src/spec.rs",
        ".expect(",
        "harness-facing eager API documented to panic; the engine runs the built symmetrizer under its Exec",
    ),
    (
        "cli/src/commands.rs",
        ".unwrap()",
        "event-log mutex; poisoning means the event callback panicked, which aborted the run",
    ),
    (
        "obs/src/registry.rs",
        ".unwrap()",
        "metrics registry mutexes (every unwrap in this file is a lock); poisoning is fatal by design",
    ),
    (
        "obs/src/metric.rs",
        ".expect(\"histogram has buckets\")",
        "the constructor always appends the overflow bucket",
    ),
    (
        "sparse/src/spgemm.rs",
        "indptr.last().unwrap()",
        "indptr starts from a pushed 0 and is never empty",
    ),
    (
        "sparse/src/syrk.rs",
        "indptr.last().unwrap()",
        "indptr starts from a pushed 0 and is never empty",
    ),
    (
        "cluster/src/bestwcut.rs",
        ".expect(",
        "shape/length preconditions established immediately above; candidate set non-empty by loop bounds",
    ),
    (
        "cluster/src/kmeans.rs",
        ".expect(\"at least one init\")",
        "the init loop runs n_init.max(1) >= 1 times, so best is always Some",
    ),
    (
        "cluster/src/metis_like.rs",
        ".expect(\"k >= 1\")",
        "k is validated positive at entry; max over 0..k is Some",
    ),
    (
        "cluster/src/spectral.rs",
        ".expect(",
        "diagonal-scale/add operands constructed with matching shape in this function",
    ),
    (
        "datasets/src/lib.rs",
        ".expect(\"generator config is valid\")",
        "the config literal is a compile-time constant known to be valid",
    ),
    (
        "eval/src/ncut.rs",
        ".expect(",
        "pagerank with teleport > 0 on a non-empty graph always converges",
    ),
    (
        "graph/src/generators/toy.rs",
        ".expect(",
        "static, compile-time-known edge lists and label counts",
    ),
    (
        "graph/src/ungraph.rs",
        ".expect(\"indices in range by construction\")",
        "CSR invariants were checked when the matrix was built",
    ),
    (
        "sparse/src/ops.rs",
        ".expect(\"row_sums length always matches\")",
        "row_sums is computed from the same matrix two lines above",
    ),
];

/// Raw-filesystem occurrences allowed in `crates/store` library code:
/// `(path suffix, stripped-line needle, reason)`. Staleness-checked.
const ALLOW_RAW_FS: &[(&str, &str, &str)] = &[
    (
        "store/src/faultfs.rs",
        "std::fs",
        "the shim imports the std::fs it mediates",
    ),
    (
        "store/src/faultfs.rs",
        "fs::",
        "the FaultFs shim is the single mediation point; raw calls live only here",
    ),
];

/// Raw-filesystem occurrences allowed in `crates/sparse` library code:
/// `(path suffix, stripped-line needle, reason)`. Staleness-checked. The
/// out-of-core panel path (DESIGN.md §17) funnels all scratch-file I/O
/// through `spill.rs` so its cleanup guarantees (RAII removal on success,
/// error, cancellation and panic) cannot be bypassed by a kernel opening
/// files directly.
const ALLOW_SPARSE_RAW_FS: &[(&str, &str, &str)] = &[
    (
        "sparse/src/spill.rs",
        "std::fs",
        "the spill module imports the std::fs it mediates",
    ),
    (
        "sparse/src/spill.rs",
        "fs::",
        "the spill module is the single scratch-I/O mediation point; raw calls live only here",
    ),
];

/// Tokens banned from cache-key/fingerprint code, with the reason shown in
/// the violation.
const CACHE_KEY_BANNED: &[(&str, &str)] = &[
    (
        "Instant::now",
        "wall clock would make keys differ across runs",
    ),
    (
        "SystemTime",
        "wall clock would make keys differ across runs",
    ),
    (
        "available_parallelism",
        "thread count is machine-dependent and excluded from keys by design",
    ),
    (
        "spgemm_threads",
        "thread count must not reach cache keys (kernels are bit-deterministic across threads)",
    ),
    (
        "n_threads",
        "thread count must not reach cache keys (kernels are bit-deterministic across threads)",
    ),
    (
        "spgemm_accum",
        "accumulator strategy must not reach cache keys (strategies are bit-identical)",
    ),
    (
        "AccumStrategy",
        "accumulator strategy must not reach cache keys (strategies are bit-identical)",
    ),
    (
        "SYMCLUST_ACCUM",
        "the accumulator env knob must not reach cache keys (strategies are bit-identical)",
    ),
    (
        "PanelPlan",
        "the out-of-core panel plan must not reach cache keys (the panel path is bit-identical)",
    ),
    (
        "spgemm_panel",
        "the out-of-core panel plan must not reach cache keys (the panel path is bit-identical)",
    ),
    (
        "SYMCLUST_PANEL_ROWS",
        "the panel-size env knob must not reach cache keys (the panel path is bit-identical)",
    ),
    (
        "SYMCLUST_MEMORY_BUDGET",
        "the spill-budget env knob must not reach cache keys (the panel path is bit-identical)",
    ),
    (
        "Exec",
        "the execution context (threads, accumulator, panel plan, token, metrics) never changes output and must not reach cache keys",
    ),
];

/// Name fragments that mark a `pub fn` as a kernel entry point for the
/// cancel-token rule.
const KERNEL_NAME_PATTERNS: &[&str] = &[
    "spgemm",
    "symmetrize",
    "cluster_",
    "pagerank",
    "lanczos",
    "nibble",
    "mcl_",
];

/// Metric-name prefixes governed by the taxonomy rule.
const METRIC_PREFIXES: &[&str] = &[
    "spgemm.", "prune.", "sym.", "mcl.", "engine.", "store.", "serve.",
];

/// The `Ordering::Relaxed` audit: `(path suffix, needle, reason)`.
///
/// Every `Ordering::Relaxed` in non-test library code must be covered by
/// an entry whose needle appears in a small window of code ending at the
/// occurrence (the window absorbs multi-line `compare_exchange` calls
/// whose ordering arguments sit on their own lines). The reason must say
/// why relaxed ordering is sound — which is always some variant of "this
/// atomic publishes no cross-thread data; only its own value matters".
/// Anything that *does* publish data (flags gating reads of other memory,
/// queue handoffs) must use Acquire/Release and never lands here. Entries
/// that match nothing fail the lint, so the audit cannot rot.
const ALLOW_RELAXED: &[(&str, &str, &str)] = &[
    (
        "obs/src/metric.rs",
        "self.value",
        "counter cell: monotonic word read only for reporting, publishes nothing",
    ),
    (
        "obs/src/metric.rs",
        "self.bits",
        "gauge cell: single f64-bits word, last-writer-wins by design, publishes nothing",
    ),
    (
        "obs/src/metric.rs",
        "compare_exchange_weak",
        "max/sum CAS retry loop on one independent cell; failure path only re-reads the same word",
    ),
    (
        "obs/src/metric.rs",
        "buckets",
        "histogram bucket counters: independent monotonic words, snapshot tolerance is documented",
    ),
    (
        "obs/src/metric.rs",
        "self.count",
        "histogram count: monotonic word, snapshots may tear vs sum by design",
    ),
    (
        "obs/src/metric.rs",
        "sum_bits",
        "histogram sum: f64-bits word updated via its own CAS loop, publishes nothing",
    ),
    (
        "engine/src/cache.rs",
        "hits",
        "cache-hit statistic: monotonic counter read only for reporting",
    ),
    (
        "engine/src/cache.rs",
        "misses",
        "cache-miss statistic: monotonic counter read only for reporting",
    ),
    (
        "engine/src/cache.rs",
        "dedups",
        "dedup statistic: monotonic counter read only for reporting",
    ),
    (
        "cli/src/server.rs",
        "queue_depth",
        "advisory depth gauge for health/overload reporting; admission correctness rides on the channel, not this counter",
    ),
    (
        "sparse/src/spill.rs",
        "SPILL_DIR_SEQ",
        "process-unique scratch-dir suffix: atomicity gives uniqueness, ordering is irrelevant",
    ),
    (
        "sparse/src/cancel.rs",
        "polls",
        "deadline-poll throttle counter; cancellation itself is published with Release and observed with Acquire",
    ),
    (
        "store/src/disk.rs",
        "next_seq",
        "LRU recency sequence: atomicity gives unique ticks, ordering is irrelevant",
    ),
    (
        "store/src/disk.rs",
        "degraded",
        "sticky degraded-mode flag and its probe counter carry no payload; observers need only eventual visibility",
    ),
    (
        "store/src/disk.rs",
        "hits",
        "store-hit statistic: monotonic counter read only for stats reporting",
    ),
    (
        "store/src/disk.rs",
        "misses",
        "store-miss statistic: monotonic counter read only for stats reporting",
    ),
    (
        "store/src/disk.rs",
        "puts",
        "store-put statistic: monotonic counter read only for stats reporting",
    ),
    (
        "store/src/disk.rs",
        "evictions",
        "eviction statistic: monotonic counter read only for stats reporting",
    ),
    (
        "store/src/disk.rs",
        "quarantined",
        "quarantine statistic: monotonic counter read only for stats reporting",
    ),
    (
        "store/src/disk.rs",
        "put_errors",
        "put-error statistic: monotonic counter read only for stats reporting",
    ),
    (
        "store/src/disk.rs",
        "stats_persist_errors",
        "stats-persist-error statistic: monotonic counter read only for stats reporting",
    ),
];

/// How many code lines (ending at the occurrence) an [`ALLOW_RELAXED`]
/// needle may appear in. Absorbs multi-line atomic calls whose
/// `Ordering::Relaxed` arguments sit on their own lines (the widest in
/// tree: `compare_exchange_weak` with one argument per line, where the
/// failure ordering is four lines below the receiver).
const RELAXED_WINDOW: usize = 5;

/// Runs every rule over the workspace rooted at `root`. Returns the sorted
/// violation list (empty = clean).
pub fn run(root: &Path) -> Result<Vec<Violation>, String> {
    let sources = collect_sources(root)?;
    let mut violations = Vec::new();
    violations.extend(rule_kernel_cancel_token(&sources));
    violations.extend(rule_metric_taxonomy(root, &sources)?);
    violations.extend(rule_no_unwrap_expect(&sources));
    violations.extend(rule_cache_key_purity(&sources));
    violations.extend(rule_store_faultfs(&sources));
    violations.extend(rule_sparse_spillfs(&sources));
    violations.extend(rule_error_code_taxonomy(root)?);
    violations.extend(rule_atomic_ordering(&sources));
    violations
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(violations)
}

/// Locates the workspace root by walking up from `start` until a directory
/// holding both `Cargo.toml` and `crates/` appears.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// One scanned source file: raw text, comment/string-stripped text (same
/// byte layout, contents blanked), and the line index where the trailing
/// `#[cfg(test)] mod tests` region starts (`usize::MAX` if none).
struct SourceFile {
    rel_path: String,
    raw_lines: Vec<String>,
    code_lines: Vec<String>,
    test_start: usize,
}

impl SourceFile {
    fn crate_name(&self) -> &str {
        // "crates/<name>/src/..."
        self.rel_path.split('/').nth(1).unwrap_or("")
    }

    fn is_bin(&self) -> bool {
        self.rel_path.contains("/bin/") || self.rel_path.ends_with("/main.rs")
    }

    /// Lines of non-test library code, `(line_no_1based, code, raw)`.
    fn lib_lines(&self) -> impl Iterator<Item = (usize, &str, &str)> {
        self.code_lines
            .iter()
            .zip(self.raw_lines.iter())
            .enumerate()
            .take(self.test_start)
            .map(|(i, (code, raw))| (i + 1, code.as_str(), raw.as_str()))
    }
}

fn collect_sources(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)
        .map_err(|e| format!("reading {}: {e}", crates_dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for crate_dir in crate_dirs {
        let src = crate_dir.join("src");
        if src.is_dir() {
            walk_rs(&src, &mut files)?;
        }
    }
    let mut sources = Vec::new();
    for path in files {
        let text =
            fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        let rel_path = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let stripped = strip_comments_and_strings(&text);
        let raw_lines: Vec<String> = text.lines().map(str::to_string).collect();
        let code_lines: Vec<String> = stripped.lines().map(str::to_string).collect();
        let test_start = code_lines
            .iter()
            .enumerate()
            .position(|(i, l)| {
                // `#[cfg(test)]` marks the trailing tests region. The
                // feature-gated variant `#[cfg(all(test, feature = …))]`
                // counts only when it gates a `mod` — the same attribute
                // on a single item (e.g. a shared test lock) is followed
                // by more library code that must stay scanned.
                l.contains("#[cfg(test)]")
                    || (l.contains("#[cfg(all(test")
                        && code_lines
                            .get(i + 1)
                            .is_some_and(|next| next.trim_start().starts_with("mod ")))
            })
            .unwrap_or(usize::MAX);
        sources.push(SourceFile {
            rel_path,
            raw_lines,
            code_lines,
            test_start,
        });
    }
    sources.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    Ok(sources)
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| format!("reading {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Replaces the contents of comments and string/char literals with spaces,
/// preserving newlines, delimiters, and byte-for-byte line layout, so later
/// passes can match tokens without tripping over prose. Backed by the
/// token-stream lexer in [`crate::lexer`].
pub fn strip_comments_and_strings(text: &str) -> String {
    crate::lexer::strip(text)
}

/// Extracts the string literals of `text` (non-raw, single-line), in order,
/// as `(line_no_1based, literal)`. Backed by [`crate::lexer`].
pub fn string_literals(text: &str) -> Vec<(usize, String)> {
    crate::lexer::string_literals(text)
}

// ---------------------------------------------------------------- rule 1

/// A `pub fn` signature joined onto one line.
struct PubFn {
    name: String,
    signature: String,
    line: usize,
}

fn collect_pub_fns(file: &SourceFile) -> Vec<PubFn> {
    let mut fns = Vec::new();
    let lines: Vec<&str> = file
        .code_lines
        .iter()
        .take(file.test_start)
        .map(String::as_str)
        .collect();
    for (i, line) in lines.iter().enumerate() {
        let trimmed = line.trim_start();
        if !trimmed.starts_with("pub fn ") {
            continue;
        }
        let name: String = trimmed["pub fn ".len()..]
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if name.is_empty() {
            continue;
        }
        // Join lines until the signature's opening brace or trailing `;`.
        let mut signature = String::new();
        for joined in lines.iter().skip(i).take(24) {
            signature.push_str(joined.trim());
            signature.push(' ');
            if joined.contains('{') || joined.trim_end().ends_with(';') {
                break;
            }
        }
        fns.push(PubFn {
            name,
            signature,
            line: i + 1,
        });
    }
    fns
}

/// Whether a joined signature takes the execution context: the type name
/// `Exec` as a whole word (so `ExecCtx` and friends do not count).
fn takes_exec(signature: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    signature.match_indices("Exec").any(|(at, m)| {
        !signature[..at].chars().next_back().is_some_and(is_ident)
            && !signature[at + m.len()..]
                .chars()
                .next()
                .is_some_and(is_ident)
    })
}

fn rule_kernel_cancel_token(sources: &[SourceFile]) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut allow_hits = vec![false; ALLOW_NO_TOKEN.len()];
    for file in sources {
        if !matches!(file.crate_name(), "sparse" | "core" | "cluster" | "store") {
            continue;
        }
        for f in collect_pub_fns(file) {
            let is_kernel = KERNEL_NAME_PATTERNS.iter().any(|p| f.name.contains(p));
            if !is_kernel {
                continue;
            }
            if takes_exec(&f.signature) {
                continue;
            }
            if let Some(pos) = ALLOW_NO_TOKEN.iter().position(|(n, _)| *n == f.name) {
                allow_hits[pos] = true;
                continue;
            }
            violations.push(Violation {
                rule: "kernel-cancel-token",
                file: file.rel_path.clone(),
                line: f.line,
                message: format!(
                    "public kernel `{}` does not accept an `&Exec` (the cancel-token \
                     carrier); add one (or allowlist it in crates/check with the \
                     reason it does no cancellable kernel work)",
                    f.name
                ),
            });
        }
    }
    for (hit, (name, _)) in allow_hits.iter().zip(ALLOW_NO_TOKEN) {
        if !hit {
            violations.push(Violation {
                rule: "kernel-cancel-token",
                file: "crates/check/src/lint.rs".into(),
                line: 0,
                message: format!("stale allowlist entry `{name}` matches no public kernel"),
            });
        }
    }
    violations
}

// ---------------------------------------------------------------- rule 2

/// Collects metric names registered by source: `pub const` literals inside
/// `mod metric_names` blocks, plus inline literals passed to registry
/// calls.
fn registered_metric_names(sources: &[SourceFile]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for file in sources {
        let mut in_metric_mod = false;
        let mut depth_at_entry = 0isize;
        let mut depth = 0isize;
        for (lineno, code, raw) in file.lib_lines() {
            if code.contains("mod metric_names") {
                in_metric_mod = true;
                depth_at_entry = depth;
            }
            depth += code.matches('{').count() as isize;
            depth -= code.matches('}').count() as isize;
            let take_literals = (in_metric_mod && code.contains("pub const"))
                || [".counter(\"", ".gauge(\"", ".histogram(\"", ".span(\""]
                    .iter()
                    .any(|c| raw.contains(*c));
            if take_literals {
                for (_, lit) in string_literals(raw) {
                    if looks_like_metric_name(&lit) {
                        names.insert(lit);
                    }
                }
            }
            let _ = lineno;
            if in_metric_mod && depth <= depth_at_entry && code.contains('}') {
                in_metric_mod = false;
            }
        }
    }
    names
}

fn looks_like_metric_name(s: &str) -> bool {
    METRIC_PREFIXES.iter().any(|p| s.starts_with(p))
        && s.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_')
}

/// Metric names documented in DESIGN.md §11: backtick-quoted tokens of the
/// right shape. Slash-separated alternations (`` `a` / `b` ``) and comma
/// lists all yield their own backtick groups, so plain extraction works.
fn design_metric_names(root: &Path) -> Result<BTreeSet<String>, String> {
    let design = root.join("DESIGN.md");
    let text =
        fs::read_to_string(&design).map_err(|e| format!("reading {}: {e}", design.display()))?;
    let mut names = BTreeSet::new();
    for part in text.split('`').skip(1).step_by(2) {
        if looks_like_metric_name(part) {
            names.insert(part.to_string());
        }
    }
    Ok(names)
}

/// `EXACT_KEYS` literals from the bench gate source, `counter.` prefix
/// stripped.
fn bench_gate_keys(root: &Path) -> Result<Vec<(usize, String)>, String> {
    let gate = root.join("crates/bench/src/gate.rs");
    let text = fs::read_to_string(&gate).map_err(|e| format!("reading {}: {e}", gate.display()))?;
    let mut keys = Vec::new();
    let mut in_exact = false;
    for (idx, line) in text.lines().enumerate() {
        if line.contains("EXACT_KEYS") {
            in_exact = true;
        }
        if in_exact {
            for (_, lit) in string_literals(line) {
                if let Some(stripped) = lit.strip_prefix("counter.") {
                    keys.push((idx + 1, stripped.to_string()));
                }
            }
            if line.contains("];") {
                break;
            }
        }
    }
    Ok(keys)
}

fn rule_metric_taxonomy(root: &Path, sources: &[SourceFile]) -> Result<Vec<Violation>, String> {
    let mut violations = Vec::new();
    let design = design_metric_names(root)?;
    if design.is_empty() {
        return Err("DESIGN.md §11 yielded no metric names — extraction broken?".into());
    }
    let registered = registered_metric_names(sources);

    // Every name registered in source must be documented.
    for file in sources {
        let mut in_metric_mod = false;
        for (lineno, code, raw) in file.lib_lines() {
            if code.contains("mod metric_names") {
                in_metric_mod = true;
            }
            let relevant = (in_metric_mod && code.contains("pub const"))
                || [".counter(\"", ".gauge(\"", ".histogram(\"", ".span(\""]
                    .iter()
                    .any(|c| raw.contains(*c));
            if !relevant {
                continue;
            }
            for (_, lit) in string_literals(raw) {
                if looks_like_metric_name(&lit) && !design.contains(&lit) {
                    violations.push(Violation {
                        rule: "metric-name-taxonomy",
                        file: file.rel_path.clone(),
                        line: lineno,
                        message: format!(
                            "metric name \"{lit}\" is not in the DESIGN.md §11 taxonomy \
                             (typo, or document it first)"
                        ),
                    });
                }
            }
        }
    }

    // Every bench-gate key must be documented AND registered somewhere.
    for (line, key) in bench_gate_keys(root)? {
        if !design.contains(&key) {
            violations.push(Violation {
                rule: "metric-name-taxonomy",
                file: "crates/bench/src/gate.rs".into(),
                line,
                message: format!("EXACT_KEYS entry \"{key}\" is not documented in DESIGN.md §11"),
            });
        }
        if !registered.contains(&key) {
            violations.push(Violation {
                rule: "metric-name-taxonomy",
                file: "crates/bench/src/gate.rs".into(),
                line,
                message: format!(
                    "EXACT_KEYS entry \"{key}\" matches no metric name registered in source \
                     — orphaned baseline key"
                ),
            });
        }
    }
    Ok(violations)
}

// ---------------------------------------------------------------- rule 3

/// `.unwrap()` / `.expect(` in library code. Binaries report to humans
/// and may exit loudly; the check crate lints itself structurally but is
/// allowed assertions.
const NO_UNWRAP_EXPECT: AllowRule = AllowRule {
    rule: "no-unwrap-expect",
    allow: ALLOW_UNWRAP,
    table: "allowlist",
    haystack: Haystack::Raw,
    mark_every_match: false,
    applies: |file| !file.is_bin() && file.crate_name() != "check",
    hit: |code| {
        let hit = code.contains(".unwrap()") || code.contains(".expect(");
        // An attribute, e.g. #[allow(...)] listing names, is not a call.
        (hit && !code.trim_start().starts_with("#[")).then(|| {
            "library code must not unwrap()/expect(); return an error \
             (or allowlist with a reason in crates/check)"
                .into()
        })
    },
};

fn rule_no_unwrap_expect(sources: &[SourceFile]) -> Vec<Violation> {
    NO_UNWRAP_EXPECT.check(sources)
}

// ---------------------------------------------------------------- rule 4

/// Whether this (file, fn) pair is cache-key code: the two key modules in
/// full, plus any key-derivation function body anywhere in the engine or
/// the store (which derives on-disk content addresses from the same keys).
fn rule_cache_key_purity(sources: &[SourceFile]) -> Vec<Violation> {
    const KEY_FNS: &[&str] = &[
        "cache_params",
        "cache_params_with_budget",
        "chain_key",
        "stage_key",
        "graph_fingerprint",
        "matrix_fingerprint",
        "symmetrize_key",
        "cluster_key",
    ];
    let mut violations = Vec::new();
    for file in sources {
        // The store derives the on-disk content addresses from the same
        // key functions, so its key-derivation code is held to the same
        // purity contract as the engine's.
        if !matches!(file.crate_name(), "engine" | "store") {
            continue;
        }
        let whole_file = file.rel_path.ends_with("engine/src/fingerprint.rs")
            || file.rel_path.ends_with("engine/src/cache.rs");
        // Mark lines inside key-derivation fn bodies via brace tracking.
        let lines: Vec<&str> = file
            .code_lines
            .iter()
            .take(file.test_start)
            .map(String::as_str)
            .collect();
        let mut in_key_fn = vec![false; lines.len()];
        let mut i = 0;
        while i < lines.len() {
            let t = lines[i].trim_start();
            let is_key_fn = ["pub fn ", "fn ", "pub(crate) fn "].iter().any(|prefix| {
                t.strip_prefix(prefix).is_some_and(|rest| {
                    let name: String = rest
                        .chars()
                        .take_while(|c| c.is_alphanumeric() || *c == '_')
                        .collect();
                    KEY_FNS.contains(&name.as_str())
                })
            });
            if !is_key_fn {
                i += 1;
                continue;
            }
            let mut depth = 0isize;
            let mut opened = false;
            let mut j = i;
            while j < lines.len() {
                in_key_fn[j] = true;
                depth += lines[j].matches('{').count() as isize;
                depth -= lines[j].matches('}').count() as isize;
                if lines[j].contains('{') {
                    opened = true;
                }
                if opened && depth <= 0 {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        }
        for (idx, line) in lines.iter().enumerate() {
            if !(whole_file || in_key_fn[idx]) {
                continue;
            }
            for (token, why) in CACHE_KEY_BANNED {
                if line.contains(token) {
                    violations.push(Violation {
                        rule: "cache-key-purity",
                        file: file.rel_path.clone(),
                        line: idx + 1,
                        message: format!("`{token}` in cache-key/fingerprint code: {why}"),
                    });
                }
            }
        }
    }
    violations
}

// ---------------------------------------------------------------- rule 5

/// Tokens that mark a direct filesystem call. `fs::` is matched only at
/// an identifier boundary so `faultfs::read(...)` call sites don't trip.
const RAW_FS_TOKENS: &[&str] = &["std::fs", "fs::", "File::", "OpenOptions"];

/// Whether `code` contains `token` preceded by a non-identifier character
/// (or the start of the line).
fn has_raw_fs_token(code: &str, token: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = code[from..].find(token) {
        let at = from + pos;
        let boundary = at == 0
            || !code[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if boundary {
            return true;
        }
        from = at + token.len();
    }
    false
}

/// The first raw-filesystem token on a stripped code line, if any.
fn raw_fs_token(code: &str) -> Option<&'static str> {
    RAW_FS_TOKENS
        .iter()
        .copied()
        .find(|t| has_raw_fs_token(code, t))
}

const STORE_FAULTFS: AllowRule = AllowRule {
    rule: "store-faultfs",
    allow: ALLOW_RAW_FS,
    table: "allowlist",
    haystack: Haystack::Code,
    mark_every_match: false,
    applies: |file| file.crate_name() == "store" && !file.is_bin(),
    hit: |code| {
        raw_fs_token(code).map(|token| {
            format!(
                "`{token}` bypasses the faultfs shim; route this call through \
                 crate::faultfs so fault schedules cover it (or allowlist it \
                 in crates/check with the reason)"
            )
        })
    },
};

fn rule_store_faultfs(sources: &[SourceFile]) -> Vec<Violation> {
    STORE_FAULTFS.check(sources)
}

// ---------------------------------------------------------------- rule 6

const SPARSE_SPILLFS: AllowRule = AllowRule {
    rule: "sparse-spillfs",
    allow: ALLOW_SPARSE_RAW_FS,
    table: "allowlist",
    haystack: Haystack::Code,
    mark_every_match: false,
    applies: |file| file.crate_name() == "sparse" && !file.is_bin(),
    hit: |code| {
        raw_fs_token(code).map(|token| {
            format!(
                "`{token}` bypasses the spill module; route scratch I/O through \
                 crate::spill so the RAII cleanup guarantees cover it (or \
                 allowlist it in crates/check with the reason)"
            )
        })
    },
};

fn rule_sparse_spillfs(sources: &[SourceFile]) -> Vec<Violation> {
    SPARSE_SPILLFS.check(sources)
}

// ---------------------------------------------------------------- rule 7

/// `ErrorCode::X => "literal"` arms from the non-test portion of
/// `crates/cli/src/protocol.rs`, as `(line_no_1based, code)`.
fn protocol_error_codes(root: &Path) -> Result<Vec<(usize, String)>, String> {
    let path = root.join("crates/cli/src/protocol.rs");
    let text = fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let mut codes = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.contains("#[cfg(test)]") {
            break;
        }
        if !(line.contains("ErrorCode::") && line.contains("=>")) {
            continue;
        }
        for (_, lit) in string_literals(line) {
            if looks_like_error_code(&lit) {
                codes.push((idx + 1, lit));
            }
        }
    }
    Ok(codes)
}

fn looks_like_error_code(s: &str) -> bool {
    !s.is_empty()
        && s.as_bytes()[0].is_ascii_lowercase()
        && s.bytes().all(|b| b.is_ascii_lowercase() || b == b'-')
}

/// Error codes documented in the DESIGN.md §14 `### Error codes` table, as
/// `(line_no_1based, code)` from each row's first backticked token.
fn design_error_codes(root: &Path) -> Result<Vec<(usize, String)>, String> {
    let design = root.join("DESIGN.md");
    let text =
        fs::read_to_string(&design).map_err(|e| format!("reading {}: {e}", design.display()))?;
    let mut codes = Vec::new();
    let mut in_table = false;
    for (idx, line) in text.lines().enumerate() {
        if line.trim() == "### Error codes" {
            in_table = true;
            continue;
        }
        if !in_table {
            continue;
        }
        if line.starts_with('#') {
            break;
        }
        if !line.trim_start().starts_with('|') {
            continue;
        }
        if let Some(tok) = line.split('`').nth(1) {
            if looks_like_error_code(tok) {
                codes.push((idx + 1, tok.to_string()));
            }
        }
    }
    if !in_table {
        return Err("DESIGN.md has no `### Error codes` heading (§14) — extraction broken?".into());
    }
    Ok(codes)
}

/// The closed protocol error-code set must match the DESIGN.md §14 table in
/// both directions, exactly like the metric taxonomy: a code added to
/// `protocol.rs` without documentation fails, and a documented code with no
/// implementation fails (rot in either direction is a wire-compat hazard —
/// clients dispatch on these strings).
fn rule_error_code_taxonomy(root: &Path) -> Result<Vec<Violation>, String> {
    let mut violations = Vec::new();
    let protocol = protocol_error_codes(root)?;
    let design = design_error_codes(root)?;
    if protocol.is_empty() {
        return Err("protocol.rs yielded no error codes — extraction broken?".into());
    }
    if design.is_empty() {
        return Err("DESIGN.md §14 error-code table is empty — extraction broken?".into());
    }
    let design_set: BTreeSet<&str> = design.iter().map(|(_, c)| c.as_str()).collect();
    let protocol_set: BTreeSet<&str> = protocol.iter().map(|(_, c)| c.as_str()).collect();
    for (line, code) in &protocol {
        if !design_set.contains(code.as_str()) {
            violations.push(Violation {
                rule: "error-code-taxonomy",
                file: "crates/cli/src/protocol.rs".into(),
                line: *line,
                message: format!(
                    "error code \"{code}\" is not in the DESIGN.md §14 error-code table \
                     (typo, or document it first)"
                ),
            });
        }
    }
    for (line, code) in &design {
        if !protocol_set.contains(code.as_str()) {
            violations.push(Violation {
                rule: "error-code-taxonomy",
                file: "DESIGN.md".into(),
                line: *line,
                message: format!(
                    "documented error code \"{code}\" has no ErrorCode arm in protocol.rs \
                     — phantom taxonomy entry"
                ),
            });
        }
    }
    Ok(violations)
}

// ---------------------------------------------------------------- rule 8

/// Every `Ordering::Relaxed` in non-test library code must be covered by a
/// reason-carrying [`ALLOW_RELAXED`] entry (DESIGN.md §18). Relaxed is the
/// one ordering that silently breaks cross-thread handoff: a flag stored
/// Relaxed can be observed before the data it guards. The audit forces each
/// site to state why no data rides on the atomic; stale entries fail.
const ATOMIC_ORDERING: AllowRule = AllowRule {
    rule: "atomic-ordering",
    allow: ALLOW_RELAXED,
    table: "ALLOW_RELAXED",
    // The window lets the needle name the atomic even when the ordering
    // argument of a multi-line call sits on its own line.
    haystack: Haystack::CodeWindow(RELAXED_WINDOW),
    mark_every_match: true,
    applies: |_| true,
    hit: |code| {
        code.contains("Ordering::Relaxed").then(|| {
            "`Ordering::Relaxed` without an ordering-audit entry; if no \
             cross-thread data rides on this atomic, add a (path, needle, \
             reason) entry to ALLOW_RELAXED in crates/check/src/lint.rs — \
             otherwise use Acquire/Release"
                .into()
        })
    },
};

fn rule_atomic_ordering(sources: &[SourceFile]) -> Vec<Violation> {
    ATOMIC_ORDERING.check(sources)
}

// ------------------------------------------------------- allowlist engine

/// Which text of a hit line an allowlist needle is searched in.
#[derive(Clone, Copy)]
enum Haystack {
    /// The comment/string-stripped line.
    Code,
    /// The raw source line, so needles can name string literals.
    Raw,
    /// The stripped lines of a window of this many lines ending at the hit.
    CodeWindow(usize),
}

/// A line rule with a `(path suffix, needle, reason)` allowlist: every hit
/// line in a file the rule applies to must be covered by an entry whose
/// path suffix ends the file's path and whose needle appears in the
/// haystack, and every entry must cover some hit (else it is stale).
struct AllowRule {
    rule: &'static str,
    allow: &'static [(&'static str, &'static str, &'static str)],
    /// Name of the table in stale-entry messages.
    table: &'static str,
    haystack: Haystack,
    /// Mark every entry covering a hit, not just the first; a later entry
    /// that only ever shares hits with an earlier one is then not stale.
    mark_every_match: bool,
    /// Whether the rule scans `file` at all.
    applies: fn(&SourceFile) -> bool,
    /// The violation message for a stripped code line, `None` if the line
    /// is not a hit.
    hit: fn(&str) -> Option<String>,
}

impl AllowRule {
    fn check(&self, sources: &[SourceFile]) -> Vec<Violation> {
        let mut violations = Vec::new();
        let mut allow_hits = vec![false; self.allow.len()];
        for file in sources.iter().filter(|f| (self.applies)(f)) {
            for (lineno, code, raw) in file.lib_lines() {
                let Some(message) = (self.hit)(code) else {
                    continue;
                };
                let haystack = match self.haystack {
                    Haystack::Code => code.to_string(),
                    Haystack::Raw => raw.to_string(),
                    Haystack::CodeWindow(n) => {
                        file.code_lines[lineno.saturating_sub(n)..lineno].join("\n")
                    }
                };
                let mut covered = false;
                for (pos, (path, needle, _)) in self.allow.iter().enumerate() {
                    if file.rel_path.ends_with(path) && haystack.contains(needle) {
                        allow_hits[pos] = true;
                        covered = true;
                        if !self.mark_every_match {
                            break;
                        }
                    }
                }
                if !covered {
                    violations.push(Violation {
                        rule: self.rule,
                        file: file.rel_path.clone(),
                        line: lineno,
                        message,
                    });
                }
            }
        }
        for (hit, (path, needle, _)) in allow_hits.iter().zip(self.allow) {
            if !hit {
                violations.push(Violation {
                    rule: self.rule,
                    file: "crates/check/src/lint.rs".into(),
                    line: 0,
                    message: format!(
                        "stale {} entry ({path}, {needle:?}) matches nothing",
                        self.table
                    ),
                });
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripping_blanks_comments_and_strings_but_keeps_layout() {
        let src = "let x = \"unwrap() inside\"; // .unwrap() comment\nlet y = 1; /* multi\nline */ z();\n";
        let out = strip_comments_and_strings(src);
        assert_eq!(out.lines().count(), src.lines().count());
        assert!(!out.contains("unwrap"));
        assert!(out.contains("let x = \""));
        assert!(out.contains("z();"));
    }

    #[test]
    fn string_literal_extraction_finds_metric_names() {
        let lits = string_literals("counter(\"spgemm.calls\") + \"x\"");
        assert_eq!(lits.len(), 2);
        assert_eq!(lits[0].1, "spgemm.calls");
        assert!(looks_like_metric_name("spgemm.calls"));
        assert!(!looks_like_metric_name("sym.{}"));
        assert!(!looks_like_metric_name("stage.cluster"));
        assert!(!looks_like_metric_name("sym.Txt"));
    }

    #[test]
    fn this_repository_is_lint_clean() {
        let root = find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
        let violations = run(&root).expect("lint run succeeds");
        assert!(
            violations.is_empty(),
            "lint violations:\n{}",
            violations
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    #[test]
    fn design_taxonomy_and_gate_keys_are_consistent() {
        let root = find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
        let design = design_metric_names(&root).unwrap();
        assert!(design.contains("spgemm.flops"), "{design:?}");
        assert!(design.contains("spgemm.sched_steals"));
        let keys = bench_gate_keys(&root).unwrap();
        assert!(keys.iter().any(|(_, k)| k == "spgemm.syrk_calls"));
        // The scheduling-dependent steal counter must stay un-gated.
        assert!(!keys.iter().any(|(_, k)| k == "spgemm.sched_steals"));
    }

    #[test]
    fn pub_fn_collection_joins_multiline_signatures() {
        let file = SourceFile {
            rel_path: "crates/sparse/src/x.rs".into(),
            raw_lines: vec![
                "pub fn spgemm_fancy(".into(),
                "    a: &CsrMatrix,".into(),
                "    token: &CancelToken,".into(),
                ") -> Result<CsrMatrix> {".into(),
            ],
            code_lines: vec![
                "pub fn spgemm_fancy(".into(),
                "    a: &CsrMatrix,".into(),
                "    token: &CancelToken,".into(),
                ") -> Result<CsrMatrix> {".into(),
            ],
            test_start: usize::MAX,
        };
        let fns = collect_pub_fns(&file);
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "spgemm_fancy");
        assert!(fns[0].signature.contains("CancelToken"));
    }

    #[test]
    fn raw_fs_boundary_matching_spares_the_shim_call_sites() {
        assert!(has_raw_fs_token("let d = fs::read_dir(p)?;", "fs::"));
        assert!(has_raw_fs_token("std::fs::rename(a, b)", "fs::"));
        assert!(!has_raw_fs_token("faultfs::read_dir(p)?", "fs::"));
        assert!(!has_raw_fs_token("crate::faultfs::write(p, b)", "fs::"));
        assert!(has_raw_fs_token("use std::fs;", "std::fs"));
    }

    #[test]
    fn raw_fs_in_store_library_code_is_flagged() {
        let mk = |rel_path: &str, line: &str| SourceFile {
            rel_path: rel_path.into(),
            raw_lines: vec![line.into()],
            code_lines: vec![line.into()],
            test_start: usize::MAX,
        };
        let rogue = mk(
            "crates/store/src/disk.rs",
            "    let data = std::fs::read(&path)?;",
        );
        let violations = rule_store_faultfs(std::slice::from_ref(&rogue));
        assert!(
            violations
                .iter()
                .any(|v| v.rule == "store-faultfs" && v.message.contains("faultfs")),
            "{violations:?}"
        );
        // The same call through the shim is clean (only staleness entries
        // fire, pointing at the check crate, not the scanned file).
        let routed = mk(
            "crates/store/src/disk.rs",
            "    let data = faultfs::read(&path)?;",
        );
        let violations = rule_store_faultfs(std::slice::from_ref(&routed));
        assert!(violations.iter().all(|v| v.line == 0), "{violations:?}");
        // Outside the store crate the rule does not apply at all.
        let elsewhere = mk(
            "crates/cli/src/commands.rs",
            "    std::fs::write(&path, body)?;",
        );
        let violations = rule_store_faultfs(std::slice::from_ref(&elsewhere));
        assert!(violations.iter().all(|v| v.line == 0), "{violations:?}");
    }

    #[test]
    fn raw_fs_in_sparse_library_code_is_flagged() {
        let mk = |rel_path: &str, line: &str| SourceFile {
            rel_path: rel_path.into(),
            raw_lines: vec![line.into()],
            code_lines: vec![line.into()],
            test_start: usize::MAX,
        };
        let rogue = mk(
            "crates/sparse/src/panel.rs",
            "    let data = std::fs::read(&path)?;",
        );
        let violations = rule_sparse_spillfs(std::slice::from_ref(&rogue));
        assert!(
            violations
                .iter()
                .any(|v| v.rule == "sparse-spillfs" && v.message.contains("spill")),
            "{violations:?}"
        );
        // The mediation point itself is allowlisted (only staleness
        // entries fire, pointing at the check crate).
        let shim = mk("crates/sparse/src/spill.rs", "use std::fs;");
        let violations = rule_sparse_spillfs(std::slice::from_ref(&shim));
        assert!(violations.iter().all(|v| v.line == 0), "{violations:?}");
        // Outside the sparse crate the rule does not apply at all.
        let elsewhere = mk(
            "crates/datasets/src/stream.rs",
            "    let file = fs::File::create(path)?;",
        );
        let violations = rule_sparse_spillfs(std::slice::from_ref(&elsewhere));
        assert!(violations.iter().all(|v| v.line == 0), "{violations:?}");
    }

    #[test]
    fn exec_is_the_only_token_carrier() {
        assert!(takes_exec(
            "pub fn spgemm(a: &CsrMatrix, exec: &Exec) -> Result<CsrMatrix> {"
        ));
        assert!(takes_exec("pub fn f(exec: &symclust_sparse::Exec) {"));
        assert!(!takes_exec("pub fn f(ctx: &ExecCtx<'_>) {"));
        assert!(!takes_exec("pub fn f(e: &MyExec) {"));
        assert!(!takes_exec("pub fn f(token: &CancelToken) {"));
        let file = SourceFile {
            rel_path: "crates/sparse/src/x.rs".into(),
            raw_lines: vec!["pub fn spgemm_rogue(token: &CancelToken) {".into()],
            code_lines: vec!["pub fn spgemm_rogue(token: &CancelToken) {".into()],
            test_start: usize::MAX,
        };
        let violations = rule_kernel_cancel_token(std::slice::from_ref(&file));
        assert!(
            violations
                .iter()
                .any(|v| v.message.contains("spgemm_rogue")),
            "{violations:?}"
        );
    }

    #[test]
    fn missing_token_on_kernel_is_flagged() {
        let file = SourceFile {
            rel_path: "crates/sparse/src/x.rs".into(),
            raw_lines: vec!["pub fn spgemm_rogue(a: &CsrMatrix) -> CsrMatrix {".into()],
            code_lines: vec!["pub fn spgemm_rogue(a: &CsrMatrix) -> CsrMatrix {".into()],
            test_start: usize::MAX,
        };
        let violations = rule_kernel_cancel_token(std::slice::from_ref(&file));
        assert!(
            violations
                .iter()
                .any(|v| v.message.contains("spgemm_rogue")),
            "{violations:?}"
        );
    }
}
