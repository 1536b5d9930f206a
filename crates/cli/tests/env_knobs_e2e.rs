//! The `SYMCLUST_*` kernel knobs fail loudly: a value that does not parse
//! stops `symclust pipeline` and `symclust serve` at startup with a
//! non-zero exit and a message naming the variable and the value, instead
//! of silently running with the default. An empty value reads as unset.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

const KNOBS: [&str; 4] = [
    "SYMCLUST_THREADS",
    "SYMCLUST_ACCUM",
    "SYMCLUST_PANEL_ROWS",
    "SYMCLUST_MEMORY_BUDGET",
];

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("symclust_env_{}_{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn small_graph() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/data/dsbm_small.txt")
}

/// `symclust <args>` in `dir` with every kernel knob cleared except `env`.
fn symclust(dir: &Path, args: &[&str], env: &[(&str, &str)]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_symclust"));
    cmd.args(args).current_dir(dir);
    for knob in KNOBS {
        cmd.env_remove(knob);
    }
    cmd.envs(env.iter().copied());
    cmd
}

fn assert_names_knob(out: &Output, var: &str, value: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "{var}={value} must fail the run, got {:?}",
        out.status
    );
    assert!(
        stderr.contains(var) && stderr.contains(value),
        "error must name {var} and {value:?}: {stderr}"
    );
}

#[test]
fn bad_kernel_knob_fails_pipeline() {
    let dir = temp_dir("pipeline");
    let graph = small_graph();
    for (var, value) in [
        ("SYMCLUST_ACCUM", "dnese"),
        ("SYMCLUST_THREADS", "four"),
        ("SYMCLUST_PANEL_ROWS", "many"),
        ("SYMCLUST_MEMORY_BUDGET", "1GB"),
    ] {
        let out = symclust(
            &dir,
            &[
                "pipeline",
                "--input",
                graph.to_str().unwrap(),
                "--clusterers",
                "metis",
                "--quiet",
            ],
            &[(var, value)],
        )
        .output()
        .expect("run symclust pipeline");
        assert_names_knob(&out, var, value);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_kernel_knob_fails_serve_at_startup() {
    let dir = temp_dir("serve");
    let socket = dir.join("serve.sock");
    let mut child = symclust(
        &dir,
        &[
            "serve",
            "--socket",
            socket.to_str().unwrap(),
            "--store",
            dir.join("store").to_str().unwrap(),
        ],
        &[("SYMCLUST_THREADS", "four")],
    )
    .stdout(Stdio::null())
    .stderr(Stdio::piped())
    .spawn()
    .expect("spawn symclust serve");
    let deadline = Instant::now() + Duration::from_secs(20);
    while child.try_wait().expect("poll serve").is_none() {
        if Instant::now() > deadline {
            child.kill().ok();
            child.wait().ok();
            panic!("serve kept running with SYMCLUST_THREADS=four");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("collect serve output");
    assert_names_knob(&out, "SYMCLUST_THREADS", "four");
    assert!(
        !socket.exists(),
        "serve bound its socket despite the bad knob"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn empty_kernel_knob_reads_as_unset() {
    let dir = temp_dir("empty");
    let graph = small_graph();
    let out = symclust(
        &dir,
        &[
            "symmetrize",
            "--input",
            graph.to_str().unwrap(),
            "--method",
            "bib",
            "--output",
            "sym.txt",
        ],
        &[("SYMCLUST_MEMORY_BUDGET", ""), ("SYMCLUST_PANEL_ROWS", "")],
    )
    .output()
    .expect("run symclust symmetrize");
    assert!(
        out.status.success(),
        "empty knobs must read as unset: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}
