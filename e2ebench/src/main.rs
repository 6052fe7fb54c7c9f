//! Command line of the end-to-end benchmark:
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root. Scratch files go to `.bench_work/` and
//! are removed afterwards; a traced run leaves its spans in
//! `.bench_trace/<workload>-seed<n>.jsonl`. The last line of standard output
//! is the JSON result; the exit code is non-zero when a correctness gate
//! broke.

use aladin_e2ebench::workload::{self, Scale};
use aladin_e2ebench::{run, Options};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(message: &str) -> ExitCode {
    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!(
        "{message}\nusage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let Some(workload) = value("--workload").as_deref().and_then(workload::by_name) else {
        return usage("missing or unknown --workload");
    };
    let Some(seed) = value("--seed").and_then(|s| s.parse::<u64>().ok()) else {
        return usage("missing or invalid --seed");
    };
    let Some(seconds) = value("--seconds")
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| s.is_finite() && *s > 0.0)
    else {
        return usage("missing or invalid --seconds");
    };
    let trace = match value("--trace").as_deref() {
        Some("1") => true,
        Some("0") | None => false,
        Some(_) => return usage("--trace takes 0 or 1"),
    };
    let run_id = format!("{}-{seed}-{}", workload.name, std::process::id());
    let options = Options {
        workload,
        seed,
        seconds,
        trace,
        scale: Scale::Full,
        work_dir: PathBuf::from(".bench_work").join(run_id),
        trace_out: Some(
            PathBuf::from(".bench_trace").join(format!("{}-seed{seed}.jsonl", workload.name)),
        ),
    };
    let report = run(&options);
    // Only succeeds when no other run is using the scratch root.
    let _ = std::fs::remove_dir(".bench_work");
    for message in &report.broken {
        eprintln!("gate broken: {message}");
    }
    println!("{}", report.to_json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
