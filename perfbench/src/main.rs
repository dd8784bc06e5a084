//! Benchmark entry point.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload train_wn18_gat --seed 1 --seconds 50 --trace 0
//! ```
//!
//! Every flag is required. Prints the reproducibility record as `#` lines, then one JSON result
//! line. Exits non-zero, after printing the result, when a correctness
//! check fails.

use amdgcnn_perfbench::metrics::{result_json, END_TO_END, PER_LAYER};
use amdgcnn_perfbench::run::run;
use amdgcnn_perfbench::spec::{Spec, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds {seconds}: expected a positive number"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Removes the run's scratch directory on every exit path.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = Spec::named(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?}; one of {WORKLOADS:?}",
            args.workload
        );
        return ExitCode::from(2);
    };
    am_dgcnn::runtime::tune_allocator_for_batching();
    let scratch = Scratch(
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join(".run")
            .join(format!("{}-{}", spec.name, std::process::id())),
    );
    if let Err(e) = std::fs::create_dir_all(&scratch.0) {
        eprintln!("perfbench: scratch directory {}: {e}", scratch.0.display());
        return ExitCode::from(2);
    }
    let outcome = run(&spec, args.seed, args.seconds, args.trace, &scratch.0);
    for line in &outcome.record {
        println!("# {line}");
    }
    for failure in outcome.checks.failures() {
        println!("# check failed: {failure}");
    }
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    let correct = outcome.checks.passed();
    match result_json(
        correct,
        outcome.attempted,
        outcome.failed,
        catalogue,
        &outcome.values,
    ) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
