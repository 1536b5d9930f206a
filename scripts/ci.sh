#!/usr/bin/env bash
# Local CI gate: formatting, lints, the tier-1 build + test pass, and the
# bench regression smoke gate. Run from the repository root:
#
#   ./scripts/ci.sh              # every stage, in order
#   ./scripts/ci.sh clippy test  # just the named stages
#
# `.github/workflows/ci.yml` invokes the same stages one job each, so the
# stage list below is the single source of truth for what CI runs.
set -euo pipefail
cd "$(dirname "$0")/.."

ALL_STAGES=(fmt clippy check build test fault debug-assertions threads-matrix oom-matrix serve chaos bench perfbench sanitize miri)

stage_fmt() { cargo fmt --all -- --check; }
stage_clippy() { cargo clippy --workspace --all-targets -- -D warnings; }
# Repo-invariant lint rules + the exhaustive scheduler and serve-lifecycle
# model checks (DESIGN.md §13, §18). Runs first among the heavy stages: it
# needs only the dependency-free symclust-check crate, so contract
# violations fail fast.
stage_check() {
  cargo run -q -p symclust-check -- lint
  cargo run -q -p symclust-check -- sched-model
  cargo run -q -p symclust-check -- serve-model
}
stage_build() { cargo build --release; }
# One workspace pass covers the tier-1 crates too; the old separate
# `cargo test -q` stage was a strict subset of this one.
stage_test() { cargo test -q --workspace; }
stage_fault() { cargo test -q -p symclust-engine --features fault-injection; }
# Chaos-hardening gate (DESIGN.md §15): the store + cli test suites under
# the deterministic I/O fault injector, then the full scripted
# kill-and-restart sweep against a real daemon over a real socket. The
# sweep fails on any crash-consistency violation: a corrupt blob served,
# a torn stats.json, a replay that is not byte-identical, or an LRU
# budget overrun after recovery.
stage_chaos() {
  cargo test -q -p symclust-store --features fault-injection
  cargo test -q -p symclust-cli --features fault-injection
  cargo build --release -q -p symclust-cli --features fault-injection
  ./target/release/symclust chaos --seed 42 --cycles 25
}
stage_debug_assertions() {
  RUSTFLAGS="${RUSTFLAGS:-} -C debug-assertions=on" \
    cargo test -q --release -p symclust-engine
}
stage_bench() { ./scripts/bench_gate.sh; }
# The end-to-end benchmark (perfbench/, a workspace of its own) builds
# against the library crates' public API; building it here makes a
# library change that breaks the benchmark fail CI.
stage_perfbench() { cargo build --release --locked --manifest-path perfbench/Cargo.toml; }
# Daemon smoke over a real unix socket: upload the bundled graph, cold-
# compute one symmetrization, restart the daemon over the same store, and
# require the identical request to come back byte-identical with the
# store reporting a hit (no recompute).
SERVE_PID=""
serve_cleanup() { [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true; }
serve_wait_ready() {
  local sock="$1" log="$2"
  for _ in $(seq 1 200); do
    [ -S "$sock" ] && return 0
    kill -0 "$SERVE_PID" 2>/dev/null || {
      echo "serve: daemon exited before binding:" >&2
      cat "$log" >&2
      return 1
    }
    sleep 0.05
  done
  echo "serve: daemon never became ready:" >&2
  cat "$log" >&2
  return 1
}
stage_serve() {
  cargo build --release -q -p symclust-cli
  trap serve_cleanup EXIT
  local dir=target/serve_ci
  rm -rf "$dir"
  mkdir -p "$dir"
  local sock="$dir/serve.sock" store="$dir/store" log="$dir/serve.log"
  local client=(./target/release/symclust client --socket "$sock")

  ./target/release/symclust serve --socket "$sock" --store "$store" >"$log" 2>&1 &
  SERVE_PID=$!
  serve_wait_ready "$sock" "$log"
  local upload graph r1
  upload="$("${client[@]}" --op upload-graph --edges-file examples/data/dsbm_small.txt)"
  graph="$(sed -n 's/.*"graph":"\([0-9a-f]*\)".*/\1/p' <<<"$upload")"
  [ -n "$graph" ] || {
    echo "serve: no graph key in: $upload" >&2
    return 1
  }
  r1="$("${client[@]}" --op symmetrize --graph "$graph" --method bib)"
  "${client[@]}" --op shutdown >/dev/null
  wait "$SERVE_PID"

  ./target/release/symclust serve --socket "$sock" --store "$store" >"$log" 2>&1 &
  SERVE_PID=$!
  serve_wait_ready "$sock" "$log"
  local r2 stats hits
  r2="$("${client[@]}" --op symmetrize --graph "$graph" --method bib)"
  stats="$("${client[@]}" --op stats)"
  "${client[@]}" --op shutdown >/dev/null
  wait "$SERVE_PID"
  SERVE_PID=""
  [ "$r1" = "$r2" ] || {
    echo "serve: responses differ across restart:" >&2
    echo "  $r1" >&2
    echo "  $r2" >&2
    return 1
  }
  hits="$(sed -n 's/.*"store-hits":\([0-9]*\).*/\1/p' <<<"$stats")"
  [ "${hits:-0}" -ge 1 ] || {
    echo "serve: expected a store hit after restart, got: $stats" >&2
    return 1
  }
}
# Scheduling-determinism matrix: the kernel/symmetrizer/clusterer tests
# (including the R-MCL bit-identity oracle suite) must pass
# with the SpGEMM thread default forced serial and forced 4-way, and
# under every accumulator strategy (dense / sparse / adaptive), since
# output (and every deterministic counter) is spec'd bit-identical for
# any thread count and any strategy mix.
stage_threads_matrix() {
  for accum in dense sparse adaptive; do
    for n in 1 4; do
      echo "--- SYMCLUST_ACCUM=$accum SYMCLUST_THREADS=$n"
      SYMCLUST_ACCUM="$accum" SYMCLUST_THREADS="$n" \
        cargo test -q -p symclust-sparse -p symclust-core -p symclust-cluster
    done
  done
}
# Out-of-core determinism matrix: the same kernel/symmetrizer suites must
# pass with the panel path engaged through the environment — small panels,
# with and without a starvation-level spill byte budget — because the
# out-of-core path is spec'd bit-identical to the in-memory one for any
# panel size and any budget (DESIGN.md §17).
stage_oom_matrix() {
  for budget in "" 1; do
    for rows in 7 64; do
      echo "--- SYMCLUST_PANEL_ROWS=$rows SYMCLUST_MEMORY_BUDGET=${budget:-unset}"
      SYMCLUST_PANEL_ROWS="$rows" SYMCLUST_MEMORY_BUDGET="$budget" \
        cargo test -q -p symclust-sparse -p symclust-core
    done
  done
}

# Sanitizer pass (DESIGN.md §18): ThreadSanitizer, then AddressSanitizer,
# over the concurrency-heavy suites — the sparse scheduler / accumulator /
# cancellation lib tests, the store crate, and the daemon end-to-end
# suites (the daemon binary itself runs instrumented). Requires a nightly
# toolchain (-Zsanitizer is unstable); skips cleanly when none is
# installed — the GitHub job installs one, so CI always runs it.
#
# TSan runs under scripts/tsan.supp: against a prebuilt (uninstrumented)
# standard library, std-internal synchronization — scoped-thread joins,
# mpsc channels, condvars — is invisible to TSan, which then reports
# false races whose every frame sits in std or test-harness code. The
# suppressions are anchored on those frames; a real race in library code
# carries symclust_* frames and still reports. When rust-src is
# available, std is rebuilt instrumented (-Zbuild-std) and the
# suppression file is inert belt-and-braces.
SANITIZE_SUITES=(-p symclust-sparse -p symclust-store -p symclust-cli)
sanitize_run() {
  local name="$1" zflag="$2" tdir="$3"
  shift 3
  echo "--- $name"
  # --tests: doctests are compiled by rustdoc, which does not see
  # RUSTFLAGS and so cannot link the sanitized rlibs.
  RUSTFLAGS="${RUSTFLAGS:-} -Z sanitizer=$zflag -C unsafe-allow-abi-mismatch=sanitizer" \
    rustup run nightly cargo test -q --tests \
    --target x86_64-unknown-linux-gnu --target-dir "target/$tdir" \
    "$@" "${SANITIZE_SUITES[@]}"
}
stage_sanitize() {
  if ! rustup run nightly cargo --version >/dev/null 2>&1; then
    echo "sanitize: no nightly toolchain installed; stage skipped"
    return 0
  fi
  local build_std=()
  if [ -d "$(rustup run nightly rustc --print sysroot)/lib/rustlib/src/rust/library" ]; then
    build_std=(-Zbuild-std)
  fi
  TSAN_OPTIONS="suppressions=$PWD/scripts/tsan.supp" \
    sanitize_run tsan thread tsan "${build_std[@]}"
  sanitize_run asan address asan "${build_std[@]}"
}
# Miri gate (DESIGN.md §18): the curated concurrency-core subset — the
# work-stealing scheduler, cancellation tokens, and SpGEMM accumulators —
# runs as a *gating* check (it is minutes, not hours). The full-workspace
# miri sweep stays a nightly allow-failure job in ci.yml. Skips cleanly
# when the miri component is not installed locally.
stage_miri() {
  if ! rustup run nightly cargo miri --version >/dev/null 2>&1; then
    echo "miri: component not installed; stage skipped"
    return 0
  fi
  MIRIFLAGS="-Zmiri-strict-provenance" \
    rustup run nightly cargo miri test -p symclust-sparse --lib \
    sched:: cancel:: accum::
}

run_stage() {
  local name="$1"
  local fn="stage_${name//-/_}"
  if ! declare -F "$fn" >/dev/null; then
    echo "ci.sh: unknown stage '$name' (stages: ${ALL_STAGES[*]})" >&2
    exit 2
  fi
  echo "==> $name"
  local start=$SECONDS
  "$fn"
  echo "==> $name passed in $((SECONDS - start))s"
}

stages=("$@")
if [ ${#stages[@]} -eq 0 ]; then
  stages=("${ALL_STAGES[@]}")
fi

total_start=$SECONDS
for stage in "${stages[@]}"; do
  run_stage "$stage"
done
echo "CI gate passed in $((SECONDS - total_start))s (${stages[*]})."
