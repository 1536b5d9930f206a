//! Every subcommand accepts only the flags it declares: a misspelled flag
//! stops the run with a usage error that names the flag it was probably
//! meant to be, and `--help` prints the subcommand's flags and exits 0
//! without running anything.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("symclust_flags_{}_{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn symclust(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_symclust"))
        .args(args)
        .current_dir(dir)
        .output()
        .unwrap()
}

#[test]
fn misspelled_flag_fails_and_names_the_flag() {
    let dir = temp_dir("typo");
    let out = symclust(
        &dir,
        &["pipeline", "--prnue", "0.5", "--metrics-out", "m.json"],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("--prnue") && stderr.contains("--prune"),
        "error must name the typo and --prune: {stderr}"
    );
    assert!(
        !dir.join("m.json").exists(),
        "the pipeline must not have run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn flag_of_another_subcommand_is_rejected() {
    let dir = temp_dir("foreign");
    // --workers belongs to `serve`, not to `symmetrize`.
    let out = symclust(
        &dir,
        &[
            "symmetrize",
            "--input",
            "g.txt",
            "--output",
            "s.txt",
            "--workers",
            "2",
        ],
    );
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--workers"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn help_prints_the_flags_and_runs_nothing() {
    let dir = temp_dir("help");
    let expected: &[(&str, &str)] = &[
        ("generate", "--output"),
        ("stats", "--input"),
        ("symmetrize", "--target-degree"),
        ("cluster", "--algo"),
        ("pipeline", "--prune"),
        ("eval", "--clusters"),
        ("nibble", "--seed-node"),
        ("serve", "--drain-ms"),
        ("client", "--edges-file"),
        ("chaos", "--cycles"),
    ];
    for (cmd, flag) in expected {
        // `serve --help` would block on its socket if it ran; the output
        // files below would appear if the others did.
        let out = symclust(
            &dir,
            &[
                cmd,
                "--socket",
                "s.sock",
                "--output",
                "o.txt",
                "--metrics-out",
                "m.json",
                "--help",
            ],
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{cmd} --help: {out:?}");
        assert!(stdout.contains(flag), "{cmd} --help lacks {flag}: {stdout}");
        assert!(stdout.contains("FLAGS:"), "{cmd} --help: {stdout}");
    }
    let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(left.is_empty(), "--help ran a command: {left:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_subcommand_is_a_usage_error() {
    let dir = temp_dir("subcommand");
    let out = symclust(&dir, &["pipelin"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("pipelin"));
    std::fs::remove_dir_all(&dir).ok();
}
