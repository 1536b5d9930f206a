//! The symclust benchmark: end-to-end metrics of the pipeline and the
//! daemon, and a traced run that splits them by layer.
//!
//! ```text
//! perfbench --workload pipeline_mcl|pipeline_sym|serve_mix --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See `README.md` next to this
//! crate for the workloads and what every metric means.

mod pipeline;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Report;
use trace::Tracer;

/// What one invocation was asked to do.
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Scratch directory of this run, inside the working directory.
    pub work_dir: PathBuf,
    /// Content hash of this executable: values recorded by an earlier run
    /// are compared only with runs of the same build.
    pub build_id: String,
}

fn parse_args(argv: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !report::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            report::WORKLOADS.join(", ")
        ));
    }
    Ok(RunArgs {
        work_dir: PathBuf::from(".perfbench_work")
            .join(format!("{workload}-{}", std::process::id())),
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        build_id: build_id()?,
    })
}

fn build_id() -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("reading {}: {e}", exe.display()))?;
    let mut h = symclust_engine::fingerprint::Fnv64::new();
    h.write_bytes(&bytes);
    Ok(format!("{:016x}", h.finish()))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // The daemon of `serve_mix` is this executable re-entered as the
    // `symclust` binary (whose `main` is the same one-line call).
    if argv.first().map(String::as_str) == Some("symclust") {
        let code = symclust_cli::run(&argv[1..]);
        return ExitCode::from(u8::try_from(code).unwrap_or(1));
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: preparing {}: {e}", args.work_dir.display());
        return ExitCode::from(1);
    }

    let tracer = Tracer::new(args.trace);
    let mut report = Report::default();
    let outcome = match args.workload.as_str() {
        "serve_mix" => serve::run(&args, &tracer, &mut report),
        name => pipeline::run(&args, name, &tracer, &mut report),
    };
    // The scratch inputs and store are not results; the trace file is.
    let _ = std::fs::remove_dir_all(&args.work_dir);
    if let Err(e) = outcome {
        eprintln!("perfbench: {}: {e}", args.workload);
        return ExitCode::from(1);
    }
    if args.trace {
        let path = PathBuf::from(".perfbench_work").join(format!("{}.trace.json", args.workload));
        let json = trace::to_trace_event_json(&tracer.spans());
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::from(1);
        }
        println!("trace written to {}", path.display());
    }
    println!("{}", report.finish(args.trace));
    ExitCode::SUCCESS
}
