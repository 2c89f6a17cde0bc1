//! The closed-loop harness shared by every workload: set up several times
//! and keep the median, then serve operations one after another from a
//! single client thread until the run's time is up, checking every output.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::metrics::RunResult;
use crate::stats;
use crate::trace::{SpanId, Tracer, ROOT};
use crate::workloads::Replay;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// What one checked operation contributes besides its latency.
#[derive(Debug, Default)]
pub struct Checked {
    /// Oracle findings; any finding fails the operation.
    pub failures: Vec<String>,
    /// Exact JQ of every jury the operation returned.
    pub exact_jq: Vec<f64>,
}

/// A check that failed outright.
pub fn failed(finding: String) -> Checked {
    let mut checked = Checked::default();
    checked.fail(finding);
    checked
}

impl Checked {
    pub fn fail(&mut self, finding: String) {
        self.failures.push(finding);
    }

    pub fn merge(&mut self, other: Checked) {
        self.failures.extend(other.failures);
        self.exact_jq.extend(other.exact_jq);
    }
}

/// A workload: seeded inputs, a timed serving call, and an oracle.
pub trait Workload {
    type State;
    type Input;
    type Output;

    /// Operations every run completes, whatever its time: the exact-JQ
    /// mean is taken over exactly this prefix, so it repeats for a seed.
    const MIN_OPS: u64;

    /// Operations of each pass of a traced run.
    const TRACE_OPS: u64;

    /// Consecutive segments an untraced run's latencies are cut into for
    /// `latency_tail_ms` (see [`stats::run_tail`]). One segment is the
    /// plain tail of the whole run.
    const TAIL_SEGMENTS: usize = 1;

    /// Builds the service and everything the operations need.
    fn setup(&self, seed: u64) -> Self::State;

    /// The inputs of operation `index` (untimed).
    fn input(&self, state: &Self::State, seed: u64, index: u64) -> Self::Input;

    /// The timed call. With a tracer, `parent` is the operation's span.
    fn serve(
        &self,
        state: &mut Self::State,
        input: &Self::Input,
        trace: Option<(&Tracer, SpanId)>,
    ) -> Self::Output;

    /// Traced runs only: replays the served operation through the
    /// `jury-selection` entry points the service dispatches to, recording
    /// every `jury-jq` call (untimed; `parent` is the operation's span).
    fn replay(
        &self,
        _state: &Self::State,
        _input: &Self::Input,
        _tracer: &Tracer,
        _parent: SpanId,
    ) -> Option<Replay> {
        None
    }

    /// The oracle (untimed), including the replay's fidelity.
    fn check(
        &self,
        state: &Self::State,
        input: &Self::Input,
        output: &Self::Output,
        replay: Option<&Replay>,
    ) -> Checked;

    /// Untimed housekeeping after operation `index` was served and checked.
    fn settle(&self, _state: &mut Self::State, _index: u64) {}

    /// Per-layer metrics of a traced run, from the tracer and the state.
    fn layer_metrics(
        &self,
        state: &Self::State,
        tracer: &Tracer,
        pass: &Pass,
        result: &mut RunResult,
    );
}

/// Latencies and oracle totals of one pass over the operations.
#[derive(Debug, Default)]
pub struct Pass {
    pub latencies_s: Vec<f64>,
    pub failed: u64,
    pub exact_jq: Vec<f64>,
    /// Objective evaluations of each replayed solve (traced runs).
    pub replay_evaluations: Vec<u64>,
}

/// Sets up [`SETUP_REPEATS`] times (dropping all but the last state) and
/// returns the last state and the median set-up time. `started` is process
/// start, so the first set-up also carries start-up cost.
pub fn setup_median<W: Workload>(workload: &W, seed: u64, started: Instant) -> (W::State, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut state = None;
    for repeat in 0..SETUP_REPEATS {
        drop(state.take());
        let from = if repeat == 0 { started } else { Instant::now() };
        state = Some(workload.setup(seed));
        times.push(from.elapsed().as_secs_f64());
    }
    (state.expect("at least one set-up"), stats::median(&times))
}

/// Serves operations `0, 1, …` until `seconds` have passed and at least
/// [`Workload::MIN_OPS`] ran — or exactly `ops` operations when given.
pub fn run_pass<W: Workload>(
    workload: &W,
    state: &mut W::State,
    seed: u64,
    seconds: f64,
    ops: Option<u64>,
    tracer: Option<&Tracer>,
) -> Pass {
    let mut pass = Pass::default();
    let started = Instant::now();
    let deadline = Duration::from_secs_f64(seconds);
    for index in 0.. {
        let done = match ops {
            Some(ops) => index >= ops,
            None => index >= W::MIN_OPS && started.elapsed() >= deadline,
        };
        if done {
            break;
        }
        let input = workload.input(state, seed, index);
        let op = tracer.map(|tracer| (tracer, tracer.begin("op", ROOT)));
        let op_start = Instant::now();
        let served = panic::catch_unwind(AssertUnwindSafe(|| workload.serve(state, &input, op)));
        pass.latencies_s.push(op_start.elapsed().as_secs_f64());
        if let Some((tracer, id)) = op {
            tracer.end(id);
        }
        let mut checked = match served {
            Ok(output) => {
                let replay = op.and_then(|(tracer, id)| workload.replay(state, &input, tracer, id));
                pass.replay_evaluations
                    .extend(replay.as_ref().map(|replay| replay.evaluations));
                workload.check(state, &input, &output, replay.as_ref())
            }
            Err(payload) => failed(format!("panicked: {}", panic_message(payload.as_ref()))),
        };
        if !checked.failures.is_empty() {
            pass.failed += 1;
            for finding in &checked.failures {
                println!("oracle: op {index}: {finding}");
            }
        }
        if index < W::MIN_OPS {
            pass.exact_jq.append(&mut checked.exact_jq);
        }
        workload.settle(state, index);
    }
    pass
}

fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("a non-string panic payload")
}

/// Current and peak resident set of this process in MB (`VmRSS`, `VmHWM`).
pub fn rss_mb() -> (f64, f64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |key: &str| {
        status
            .lines()
            .find_map(|line| line.strip_prefix(key))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|kb| kb.parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    };
    (field("VmRSS:"), field("VmHWM:"))
}

/// The end-to-end metrics of an untraced pass.
pub fn end_to_end<W: Workload>(pass: &Pass, setup_s: f64, result: &mut RunResult) {
    let ops = pass.latencies_s.len() as u64;
    let busy: f64 = pass.latencies_s.iter().sum();
    let ms: Vec<f64> = pass.latencies_s.iter().map(|s| s * 1e3).collect();
    let tail = stats::run_tail(&ms, W::TAIL_SEGMENTS);
    result.attempted += ops;
    result.failed += pass.failed;
    result.set("setup_s", setup_s);
    result.set("throughput_ops_per_s", ops as f64 / busy);
    result.set("latency_p50_ms", stats::median(&ms));
    result.set("latency_tail_ms", tail.value);
    result.set("success_rate", 1.0 - pass.failed as f64 / ops as f64);
    let exact_mean = if pass.exact_jq.is_empty() {
        f64::NAN
    } else {
        pass.exact_jq.iter().sum::<f64>() / pass.exact_jq.len() as f64
    };
    result.set("jq_exact_mean", exact_mean);
    result.set("peak_rss_mb", rss_mb().1);
    let listed: Vec<String> = ms.iter().map(|v| format!("{v:.1}")).collect();
    println!("op latencies (ms): {}", listed.join(" "));
    let segments: Vec<String> = tail
        .segments
        .iter()
        .map(|t| {
            format!(
                "{:.1} ms = p{:.1} ({} samples beyond)",
                t.value, t.percentile, t.beyond
            )
        })
        .collect();
    println!(
        "ops {ops}  busy {busy:.3} s  failed {}  error_rate {}  tail = median of {} segment tails [{}]  exact-JQ juries {}",
        pass.failed,
        pass.failed as f64 / ops as f64,
        segments.len(),
        segments.join(", "),
        pass.exact_jq.len()
    );
}
