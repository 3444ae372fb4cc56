//! End-to-end day benchmark for Enki: household reports → allocations →
//! bills through the serve front end, the center (admission, greedy,
//! solver refinement, settlement) and the write-ahead journal.
//!
//! ```text
//! cargo run --release --manifest-path daybench/Cargo.toml -- \
//!     --workload <solve_mix|season|flood> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of the untraced run;
//! `--trace 1` prints the per-layer metrics of the traced run. The last
//! line of standard output is the result object; a human-readable
//! summary goes to standard error. The exit code is nonzero when a
//! correctness check fails or the arguments are bad.

#![deny(unsafe_code)]

mod metrics;
mod reference;
mod run;
mod spans;
#[cfg(test)]
mod tests;
mod traced;
mod untraced;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use workload::Spec;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds >= 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("daybench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = Spec::named(&args.workload) else {
        eprintln!(
            "daybench: unknown workload {:?} (solve_mix, season, flood)",
            args.workload
        );
        return ExitCode::from(2);
    };
    let outcome = if args.trace {
        let spans_out = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}.jsonl", spec.name));
        run::traced(&spec, args.seed, args.seconds, Some(&spans_out))
    } else {
        run::untraced(&spec, args.seed, args.seconds)
    };
    for m in &outcome.metrics.0 {
        eprintln!("{:>34} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for f in outcome.failures.iter().take(20) {
        eprintln!("CHECK FAILED: {f}");
    }
    let correct = outcome.failures.is_empty();
    println!(
        "{}",
        metrics::result_line(correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
