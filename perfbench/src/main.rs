//! Request-level benchmark of the jury-selection service.
//!
//! ```text
//! jury-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//! jury-perfbench --list-metrics
//! jury-perfbench --workload <name> --seed <n> --print-ops <count>
//! ```
//!
//! An untraced run (`--trace 0`) sets up the workload several times, then
//! serves its seeded operations from one client thread, closed loop, for
//! `--seconds`, checks every output, and prints the end-to-end metrics. A
//! traced run (`--trace 1`) serves a fixed number of operations twice —
//! untraced, then traced on a fresh set-up — replays each operation through
//! the `jury-selection` entry points the service dispatches to, and prints
//! the per-layer metrics and the tracing overhead. On success the last
//! line of standard output is the JSON result; on failure the exit code is
//! non-zero and no result is printed.

mod gen;
mod harness;
mod metrics;
mod oracle;
mod rng;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use harness::{Pass, Workload};
use metrics::{RunResult, END_TO_END, PER_LAYER};
use trace::Tracer;
use workloads::{batch_shared, online_drift, select_anneal, sweep_warm};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn usage() -> String {
    format!(
        "usage: jury-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]\n       jury-perfbench --list-metrics\n       jury-perfbench --workload <name> --seed <n> --print-ops <count>",
        workloads::NAMES.join("|")
    )
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut trace_out = None;
    let mut print_ops = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--list-metrics" {
            println!("{}", metrics::table_json());
            return Ok(None);
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |what: &str| {
            value
                .parse::<u64>()
                .map_err(|_| format!("{what} needs a whole number, got {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number("--seed")?),
            "--seconds" => seconds = Some(number("--seconds")? as f64),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            "--trace-out" => trace_out = Some(PathBuf::from(&value)),
            "--print-ops" => print_ops = Some(number("--print-ops")?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    if let Some(ops) = print_ops {
        // The exact inputs the first `ops` operations receive, with every
        // bit of every number: two runs of one seed print the same bytes.
        let seed = seed.ok_or("--seed is required")?;
        println!("{}", workloads::op_sequence(&workload, seed, ops));
        return Ok(None);
    }
    Ok(Some(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        trace_out,
    }))
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("{err}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        select_anneal::NAME => run(&select_anneal::SelectAnneal, &args, started),
        sweep_warm::NAME => run(&sweep_warm::SweepWarm, &args, started),
        batch_shared::NAME => run(&batch_shared::BatchShared, &args, started),
        online_drift::NAME => run(&online_drift::OnlineDrift, &args, started),
        _ => unreachable!("validated above"),
    };
    match outcome {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("{}: {err}", args.workload);
            ExitCode::FAILURE
        }
    }
}

fn print_metrics(result: &RunResult, specs: &[metrics::MetricSpec]) {
    for spec in specs {
        if let Some(value) = result.values.get(spec.name) {
            println!("  {:<38} {:>16.6} {}", spec.name, value, spec.unit);
        }
    }
}

fn run<W: Workload>(workload: &W, args: &Args, started: Instant) -> Result<String, String> {
    println!(
        "workload {}  seed {}  {}",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" }
    );
    let mut result = RunResult::default();
    if !args.trace {
        let (mut state, setup_s) = harness::setup_median(workload, args.seed, started);
        let pass = harness::run_pass(workload, &mut state, args.seed, args.seconds, None, None);
        harness::end_to_end::<W>(&pass, setup_s, &mut result);
        print_metrics(&result, END_TO_END);
        return result.to_json(END_TO_END);
    }

    // Traced run: the same fixed operations untraced, then traced, each on
    // a fresh set-up so neither pass warms the other's store.
    let mut state = workload.setup(args.seed);
    let untraced = harness::run_pass(
        workload,
        &mut state,
        args.seed,
        0.0,
        Some(W::TRACE_OPS),
        None,
    );
    drop(state);
    let mut state = workload.setup(args.seed);
    let tracer = Tracer::new();
    let traced = harness::run_pass(
        workload,
        &mut state,
        args.seed,
        0.0,
        Some(W::TRACE_OPS),
        Some(&tracer),
    );
    for spec in PER_LAYER {
        result.set(spec.name, 0.0);
    }
    workload.layer_metrics(&state, &tracer, &traced, &mut result);
    let p50_ms = |pass: &Pass| stats::median(&pass.latencies_s) * 1e3;
    result.set("trace.overhead_ms", p50_ms(&traced) - p50_ms(&untraced));
    result.attempted = (untraced.latencies_s.len() + traced.latencies_s.len()) as u64;
    result.failed = untraced.failed + traced.failed;
    println!(
        "traced {} ops ({} spans); untraced p50 {:.3} ms, traced p50 {:.3} ms",
        traced.latencies_s.len(),
        tracer.len(),
        p50_ms(&untraced),
        p50_ms(&traced)
    );
    if let Some(path) = &args.trace_out {
        tracer
            .write(path)
            .map_err(|err| format!("writing spans to {}: {err}", path.display()))?;
        println!("spans written to {}", path.display());
    }
    print_metrics(&result, PER_LAYER);
    result.to_json(PER_LAYER)
}
