#![warn(missing_docs)]

//! Library backing the `symclust` command-line tool.
//!
//! The binary is a thin wrapper around [`run`]; everything (argument
//! parsing, subcommands, file formats) lives here so it can be unit-tested
//! without spawning processes.
//!
//! ```text
//! symclust generate    --model cora --output edges.txt --truth truth.txt
//! symclust stats       --input edges.txt
//! symclust symmetrize  --input edges.txt --method dd --target-degree 60 --output sym.txt
//! symclust cluster     --input sym.txt --algo metis --k 70 --output clusters.txt
//! symclust pipeline    --input edges.txt --truth truth.txt --clusterers mlrmcl,metis
//! symclust eval        --clusters clusters.txt --truth truth.txt
//! symclust nibble      --input edges.txt --seed-node 0
//! symclust serve       --socket /tmp/symclust.sock --store /var/cache/symclust
//! symclust client      --socket /tmp/symclust.sock --op stats
//! ```

pub mod args;
pub mod chaos;
pub mod commands;
pub mod formats;
pub mod protocol;
pub mod server;

use args::ParsedArgs;

/// One subcommand. `flags` is its only declaration of the flags it
/// accepts: the parser rejects any other, and `synopsis` (what `--help`
/// prints) must mention each of them.
struct Command {
    name: &'static str,
    about: &'static str,
    synopsis: &'static str,
    flags: &'static [&'static str],
    run: fn(&ParsedArgs) -> Result<(), String>,
}

const COMMANDS: &[Command] = &[
    Command {
        name: "generate",
        about: "synthesize a directed graph",
        synopsis: "--model dsbm|kronecker|cora|wikipedia|flickr|livejournal
[--nodes N] [--clusters K] [--levels L] [--edges E] [--seed S]
--output FILE [--truth FILE]",
        flags: &[
            "model", "nodes", "clusters", "levels", "edges", "seed", "output", "truth",
        ],
        run: commands::generate,
    },
    Command {
        name: "stats",
        about: "print Table-1-style statistics of an edge list",
        synopsis: "--input FILE",
        flags: &["input"],
        run: commands::stats,
    },
    Command {
        name: "symmetrize",
        about: "transform a directed edge list into an undirected one",
        synopsis: "--input FILE --method aat|rw|bib|dd --output FILE
[--alpha A --beta B] [--threshold T | --target-degree D]",
        flags: &[
            "input",
            "method",
            "output",
            "alpha",
            "beta",
            "threshold",
            "target-degree",
        ],
        run: commands::symmetrize,
    },
    Command {
        name: "cluster",
        about: "cluster an undirected (symmetrized) edge list",
        synopsis: "--input FILE --algo mlrmcl|metis|graclus|spectral
[--k K | --inflation I] [--tolerance T] --output FILE",
        flags: &["input", "algo", "k", "inflation", "tolerance", "output"],
        run: commands::cluster,
    },
    Command {
        name: "pipeline",
        about: "sweep all four symmetrizations x clusterers, each symmetrization once",
        synopsis: "(--input FILE [--truth FILE] | --model NAME [--nodes N] [--clusters K]
 [--levels L] [--edges E] [--seed S])
[--clusterers mlrmcl,metis,graclus] [--k K] [--inflation I]
[--target-degree D | --threshold T] [--prune T]
[--threads N] [--sym-threads N] [--sym-accum adaptive|dense|sparse]
[--sym-panel-rows N] [--timeout-secs S] [--retries N]
[--memory-budget ENTRIES] [--resume JOURNAL.jsonl]
[--events FILE] [--records FILE] [--quiet]
[--metrics] [--metrics-out FILE.json] [--paranoid]",
        flags: &[
            "input",
            "truth",
            "model",
            "nodes",
            "clusters",
            "levels",
            "edges",
            "seed",
            "clusterers",
            "k",
            "inflation",
            "target-degree",
            "threshold",
            "prune",
            "threads",
            "sym-threads",
            "sym-accum",
            "sym-panel-rows",
            "timeout-secs",
            "retries",
            "memory-budget",
            "resume",
            "events",
            "records",
            "quiet",
            "metrics",
            "metrics-out",
            "paranoid",
        ],
        run: commands::pipeline,
    },
    Command {
        name: "eval",
        about: "score a clustering against ground truth",
        synopsis: "--clusters FILE --truth FILE",
        flags: &["clusters", "truth"],
        run: commands::eval,
    },
    Command {
        name: "nibble",
        about: "local cluster around one node (PageRank-Nibble)",
        synopsis: "--input FILE --seed-node N [--directed true|false]
[--alpha A] [--epsilon E] [--max-size N] [--tolerance T]",
        flags: &[
            "input",
            "seed-node",
            "directed",
            "alpha",
            "epsilon",
            "max-size",
            "tolerance",
        ],
        run: commands::nibble,
    },
    Command {
        name: "serve",
        about: "clustering daemon over a socket, with a disk artifact store",
        synopsis: "[--socket PATH | --tcp ADDR] [--store DIR]
[--workers N] [--queue-cap N] [--timeout-ms MS]
[--store-budget-bytes B] [--drain-ms MS] [--read-timeout-ms MS]",
        flags: &[
            "socket",
            "tcp",
            "store",
            "workers",
            "queue-cap",
            "timeout-ms",
            "store-budget-bytes",
            "drain-ms",
            "read-timeout-ms",
        ],
        run: commands::serve,
    },
    Command {
        name: "client",
        about: "send one request to a running daemon, print the response",
        synopsis: "(--socket PATH | --tcp ADDR) [--retries N]
(--json LINE | --op OP [--graph KEY] [--method M] [--alpha A] [--beta B]
 [--threshold T] [--algo A] [--k K] [--inflation I] [--budget B]
 [--edges-file FILE] [--key KEY] [--node N] [--id ID] [--timeout-ms MS])
ops: upload-graph symmetrize cluster query-membership stats health shutdown",
        flags: &[
            "socket",
            "tcp",
            "retries",
            "json",
            "op",
            "graph",
            "method",
            "alpha",
            "beta",
            "threshold",
            "inflation",
            "budget",
            "k",
            "algo",
            "edges-file",
            "key",
            "node",
            "id",
            "timeout-ms",
        ],
        run: commands::client,
    },
    Command {
        name: "chaos",
        about: "kill-and-restart loops against a daemon under I/O fault injection",
        synopsis: "[--seed N] [--cycles C] [--dir D] [--budget-bytes B] [--keep]",
        flags: &["seed", "cycles", "dir", "budget-bytes", "keep"],
        run: chaos::chaos,
    },
];

/// Entry point: dispatches a full argument vector (excluding argv\[0\]).
/// Returns the process exit code: 0 on success, 1 when the command
/// fails, 2 on a usage error (unknown subcommand or flag, bad syntax).
pub fn run(argv: &[String]) -> i32 {
    let Some((subcommand, rest)) = argv.split_first() else {
        eprintln!("{}", usage());
        return 2;
    };
    if matches!(subcommand.as_str(), "help" | "--help" | "-h") {
        println!("{}", usage());
        return 0;
    }
    let Some(command) = COMMANDS.iter().find(|c| c.name == subcommand) else {
        eprintln!("error: unknown subcommand '{subcommand}'\n{}", usage());
        return 2;
    };
    if rest.iter().any(|a| a == "--help") {
        println!("symclust {} — {}\n\nFLAGS:", command.name, command.about);
        for line in command.synopsis.lines() {
            println!("  {line}");
        }
        return 0;
    }
    let parsed = match ParsedArgs::parse_declared(rest, command.flags) {
        Ok(p) => p,
        Err(e) => {
            eprintln!(
                "error: {e}\nrun `symclust {} --help` for its flags",
                command.name
            );
            return 2;
        }
    };
    match (command.run)(&parsed) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

/// The top-level usage: every subcommand with its flags.
pub fn usage() -> String {
    let mut out = String::from(
        "symclust — clustering directed graphs by symmetrization (EDBT 2011)\n\n\
         USAGE:\n  symclust <subcommand> [--flag value]...\n  \
         symclust <subcommand> --help\n\nSUBCOMMANDS:\n",
    );
    for c in COMMANDS {
        out.push_str(&format!("  {:<11} {}\n", c.name, c.about));
        for line in c.synopsis.lines() {
            out.push_str(&format!("              {line}\n"));
        }
    }
    out.push_str("  help        print this message");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `--flag` names a synopsis mentions.
    fn mentioned(synopsis: &str) -> Vec<&str> {
        synopsis
            .split(|c: char| c.is_whitespace() || "[]()|".contains(c))
            .filter_map(|w| w.strip_prefix("--"))
            .collect()
    }

    #[test]
    fn every_command_declares_each_flag_once() {
        for c in COMMANDS {
            let mut names = c.flags.to_vec();
            names.sort_unstable();
            let before = names.len();
            names.dedup();
            assert_eq!(before, names.len(), "{} declares a flag twice", c.name);
            assert!(!names.contains(&"help"), "{}: --help is built in", c.name);
        }
    }

    #[test]
    fn synopsis_mentions_exactly_the_declared_flags() {
        let text = usage();
        for c in COMMANDS {
            let mut declared = c.flags.to_vec();
            declared.sort_unstable();
            let mut shown = mentioned(c.synopsis);
            shown.sort_unstable();
            shown.dedup();
            assert_eq!(shown, declared, "{} synopsis", c.name);
            assert!(text.contains(c.synopsis.lines().next().unwrap()));
        }
    }

    /// The invocations other programs in the repository make (the CI
    /// scripts, the chaos harness, the benchmark's daemon) keep parsing.
    #[test]
    fn invocations_used_in_the_repository_parse() {
        let cases: &[(&str, &[&str])] = &[
            (
                "pipeline",
                &[
                    "--input",
                    "g.txt",
                    "--truth",
                    "t.txt",
                    "--clusterers",
                    "mlrmcl,metis",
                    "--k",
                    "8",
                    "--prune",
                    "0.001",
                    "--quiet",
                    "--metrics-out",
                    "m.json",
                ],
            ),
            (
                "serve",
                &["--socket", "s", "--store", "st", "--workers", "2"],
            ),
            (
                "serve",
                &[
                    "--socket",
                    "s",
                    "--store",
                    "st",
                    "--workers",
                    "1",
                    "--drain-ms",
                    "500",
                    "--store-budget-bytes",
                    "9",
                ],
            ),
            (
                "client",
                &[
                    "--socket",
                    "s",
                    "--op",
                    "upload-graph",
                    "--edges-file",
                    "g.txt",
                ],
            ),
            (
                "client",
                &[
                    "--socket",
                    "s",
                    "--op",
                    "symmetrize",
                    "--graph",
                    "k",
                    "--method",
                    "bib",
                ],
            ),
            ("chaos", &["--seed", "42", "--cycles", "25"]),
        ];
        for (name, argv) in cases {
            let command = COMMANDS.iter().find(|c| c.name == *name).unwrap();
            let argv: Vec<String> = argv.iter().map(|a| a.to_string()).collect();
            ParsedArgs::parse_declared(&argv, command.flags)
                .unwrap_or_else(|e| panic!("{name} {argv:?}: {e}"));
        }
    }
}
