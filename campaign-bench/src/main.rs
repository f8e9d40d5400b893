//! Campaign benchmark command.
//!
//! ```text
//! campaign-bench --workload paper-364|fcfs-deep|seed-sweep
//!                [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics (medians over as many
//! drain/resume/report cycles as fit in `--seconds`); `--trace 1` prints
//! the per-layer metrics of the traced pass. Human-readable detail goes
//! to stderr; stdout carries a fingerprint line and, last, the result
//! line. Any failed check prints the reason and exits with code 1.

use std::process::ExitCode;
use std::time::Duration;

use campaign_bench::{end_to_end, layers, nproc, Case, WorkDir, Workload, DEFAULT_SEED, SCHEMA};
use grid_ser::Value;

/// Drain/resume/report cycles every untraced run makes, even past its
/// time budget: the host's speed drifts on the scale of one `paper-364`
/// drain (~10 s), so a median needs at least three of them.
const MIN_CYCLES: u32 = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn fingerprint(args: &Args, case: &Case) -> Value {
    let mut v = Value::object();
    v.insert("schema", SCHEMA);
    v.insert("workload", args.workload.name());
    v.insert("seed", args.seed);
    // What `--seed` turned into: `paper-364` and `fcfs-deep` run the
    // paper seed's traces whatever the argument.
    v.insert(
        "trace_seeds",
        Value::Arr(case.trace_seeds().into_iter().map(Value::from).collect()),
    );
    v.insert("trace", args.trace);
    v.insert("nproc", nproc() as u64);
    v.insert("threads", args.workload.threads() as u64);
    v.insert(
        "profile",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    v.insert("rustc", env!("CAMPAIGN_BENCH_RUSTC"));
    let mut line = Value::object();
    line.insert("fingerprint", v);
    line
}

fn run(args: &Args) -> Result<(), String> {
    let case = Case::new(args.workload, args.seed);
    let root = std::env::current_dir()
        .map_err(|e| format!("current directory: {e}"))?
        .join(".bench_build")
        .join(format!("campaign-bench-work-{}", std::process::id()));
    let work = WorkDir::create(root)?;
    let outcome = if args.trace {
        layers(&case, &work)?
    } else {
        end_to_end(&case, &work, Duration::from_secs(args.seconds), MIN_CYCLES)?
    };
    eprintln!("{}", outcome.detail);
    for m in &outcome.metrics {
        eprintln!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", fingerprint(args, &case).encode());
    println!("{}", outcome.to_json().encode());
    Ok(())
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| run(&args));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("campaign-bench: {e}");
            ExitCode::FAILURE
        }
    }
}
