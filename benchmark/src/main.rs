//! The HUMO benchmark: one workload per process, chosen by name and generated
//! from a seed.
//!
//! ```text
//! humo-benchmark --workload <stream_ingest|oneshot_resolve|durable_service>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats rounds until `--seconds` have passed. A round runs one
//! iteration — set-up, then the timed phase — of every instance of the
//! workload, each generated from its own seed derived from `--seed`, and every
//! iteration must reproduce its instance's first one exactly. The run prints
//! every metric by name and unit, then, as the last line of standard output,
//! one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, measured with the program's no-op
//! recorder. With `--trace 1` rounds alternate between untraced and
//! traced; the traced ones record benchmark-side spans and attach an
//! `er_obs::MetricsRecorder`, and the metrics are the per-layer ones. The
//! process exits with code 1 when any correctness check fails.

mod durable;
mod harness;
mod oneshot;
mod report;
mod stream;
mod trace;

use er_obs::{MetricsRecorder, ObsHandle};
use harness::{Iteration, Probe};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use trace::Tracer;

const USAGE: &str = "usage: humo-benchmark --workload <stream_ingest|oneshot_resolve|\
                     durable_service> [--seed <n>] [--seconds <s>] [--trace <0|1>]";

/// The workloads, by the name the command line uses.
const WORKLOADS: [&str; 3] = ["stream_ingest", "oneshot_resolve", "durable_service"];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: "", seed: 1, seconds: 10.0, trace: false };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                args.workload = WORKLOADS
                    .iter()
                    .find(|w| **w == value)
                    .ok_or_else(|| format!("unknown workload `{value}`"))?;
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds `{value}`"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                };
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

/// Working files live inside the benchmark's own directory.
fn work_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".work")
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("humo-benchmark: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let workdir = work_root().join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&workdir) {
        eprintln!("humo-benchmark: cannot create {}: {e}", workdir.display());
        std::process::exit(2);
    }
    let result = run(&args, workdir.clone());
    let _ = std::fs::remove_dir_all(&workdir);
    println!("{}", result.to_json());
    if !result.correct() {
        std::process::exit(1);
    }
}

/// Independent instances of each workload, each generated from its own seed
/// derived from the run's seed. More instances average out how much the
/// generated inputs differ from seed to seed.
fn instances(workload: &str) -> usize {
    match workload {
        "stream_ingest" => stream::INSTANCES,
        "oneshot_resolve" => 1,
        _ => durable::INSTANCES,
    }
}

/// The seed of instance `k`: the run's seed itself for the first instance.
fn instance_seed(seed: u64, k: usize) -> u64 {
    if k == 0 {
        seed
    } else {
        humo::crowd::mix(seed, k as u64)
    }
}

/// Runs rounds — one iteration of every instance each — until the measuring
/// time is spent, then the closing checks, and assembles the result.
fn run(args: &Args, workdir: PathBuf) -> report::RunResult {
    let trace_id = er_core::codec::fnv1a(format!("{}/{}", args.workload, args.seed).as_bytes());
    let mut tracer = Tracer::new(trace_id);
    let metrics = Arc::new(MetricsRecorder::new());
    let instances = instances(args.workload);
    let mut result = report::RunResult::new(args.workload, args.seed, args.trace, instances);
    let mut oneshot_sessions = None;
    let start = Instant::now();
    // Untraced runs take the median of at least three rounds; traced runs
    // alternate untraced and traced rounds, so the two measure the tracing
    // overhead side by side.
    let min_rounds = if args.trace { 2 } else { 3 };
    let mut round = 0usize;
    'rounds: loop {
        let traced = args.trace && round % 2 == 1;
        tracer.set_enabled(traced);
        for k in 0..instances {
            let seed = instance_seed(args.seed, k);
            let probe = Probe {
                tracer: &tracer,
                recorder: if traced { ObsHandle::new(metrics.clone()) } else { ObsHandle::noop() },
                workdir: workdir.clone(),
            };
            let iteration: Result<Iteration, String> = {
                let _span = probe.span("iteration");
                match args.workload {
                    "stream_ingest" => stream::iteration(seed, &probe),
                    "oneshot_resolve" => oneshot::iteration(seed, &probe).map(|(it, sessions)| {
                        oneshot_sessions = Some(sessions);
                        it
                    }),
                    _ => durable::iteration(seed, &probe),
                }
            };
            match iteration {
                Ok(it) => result.absorb(k, it, traced),
                Err(e) => {
                    result.fail(e);
                    break 'rounds;
                }
            }
        }
        round += 1;
        if round >= min_rounds && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    // Snapshot before the closing checks: they run the program again.
    let snapshot = metrics.snapshot();
    if let Some(sessions) = &oneshot_sessions {
        tracer.set_enabled(false);
        let probe = Probe { tracer: &tracer, recorder: ObsHandle::noop(), workdir };
        let failures = oneshot::verify(sessions, &probe);
        result.add_checks(oneshot::VERIFY_OPERATIONS, failures);
    }
    if args.trace {
        result.finish_trace(&tracer, &snapshot);
        let path = work_root().join(format!("spans-{}.tsv", args.workload));
        if let Err(e) = tracer.write_tsv(&path) {
            eprintln!("humo-benchmark: cannot write {}: {e}", path.display());
        } else {
            println!("spans written to {}", path.display());
        }
    }
    result
}
