//! The CI perf artifact: a minute-bounded smoke benchmark of the serving
//! hot paths, written as `BENCH_service.json` so the repo's performance
//! trajectory accumulates one data point per CI run.
//!
//! Seven workload families — six wall-clock timings plus one
//! quality-per-evaluation race:
//!
//! * **annealing step** — one solver-shaped neighbour evaluation (swap a
//!   jury member, read the JQ, revert) on the from-scratch bucket DP vs.
//!   the incremental engine (median of N);
//! * **greedy round** — one marginal-greedy round (score every unselected
//!   pool member as a single-worker extension), scratch vs. incremental
//!   (median of N);
//! * **probe round** — the same round at n = 200 on the default grid, each
//!   extension scored by the engine's read-only `probe_push` vs. the
//!   push/value/pop round trip it replaced;
//! * **kernel race** — the same swap workload on a deep (~100k-slot)
//!   bucket grid under the chunked, auto-vectorizable window kernels vs.
//!   the scalar reference loops (`jury_jq::KernelMode`); both paths are
//!   computed by the same engine on the same grid, so the ratio isolates
//!   pure kernel throughput;
//! * **budget sweeps** — a Figure-1 style budget–quality table through
//!   `JuryService` under each [`jury_service::SweepPolicy`]: cold
//!   per-budget solves, the warm marginal sweep, and the warm (seeded)
//!   annealing sweep (median of N);
//! * **store contention** — 8 threads of repeated, fully warmed small-pool
//!   mixed traffic, so every request is served almost entirely from the
//!   shared JQ store: per-response p50/p99 with the striped store
//!   (`cache_shards = 8`) vs. the single-lock store (`cache_shards = 1`);
//! * **portfolio quality** — `SolverPolicy::Portfolio` vs plain annealing
//!   on a large pool, both capped at the same evaluation budget; the
//!   ratio compares JQ margin over the coin-flip floor, not time, and is
//!   fully deterministic (evaluation caps never read the clock).
//!
//! # CLI flags
//!
//! ```text
//! perf_smoke [--out <path.json>] [--iters <n>]
//!            [--check <baseline.json>] [--tolerance <f>]
//! ```
//!
//! * `--out <path.json>` — where to write the JSON dump (default
//!   `BENCH_service.json`). The dump always contains raw `median_us`
//!   timings (host-dependent, for trend plots) and the `speedups` ratios
//!   (host-independent, the gated quantities).
//! * `--iters <n>` — iterations per timed routine (default 15); the
//!   reported timing is the median, so occasional scheduler hiccups do
//!   not move the gated ratios.
//! * `--check <baseline.json>` — compare this run's `speedups` against a
//!   previously written dump (the repo checks in `BENCH_baseline.json`).
//!   Exit code 0 = pass, 1 = at least one ratio regressed, 2 = the
//!   baseline file is missing/malformed or a flag was invalid.
//! * `--tolerance <f>` — slack for `--check` (default 0.5). Each of the
//!   [`CHECKED_SPEEDUPS`] ratios must satisfy
//!   `now >= baseline / (1 + tolerance)`; CI passes `--tolerance 1.0`, so
//!   a ratio fails only after falling below **half** its recorded
//!   baseline — quiet under shared-runner noise, loud when an incremental
//!   path collapses toward its from-scratch cost.
//!
//! The ratios are machine-independent by construction — numerator and
//! denominator are measured on the same host in the same run — which is
//! what makes a checked-in baseline meaningful across machines.
//!
//! # Refreshing the baseline
//!
//! After a deliberate performance change (new kernel, new sweep policy),
//! regenerate the pinned floors from a quiet machine and commit the result:
//!
//! ```text
//! cargo run --release -p jury-bench --bin perf_smoke -- --out BENCH_baseline.json
//! cargo run --release -p jury-bench --bin perf_smoke -- --check BENCH_baseline.json
//! ```
//!
//! The second run must pass; review the printed `check …` lines in the PR
//! so ratio movements are explicit, and never refresh the baseline to
//! absorb an *unexplained* regression.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use jury_jq::{
    BucketCount, BucketJqConfig, BucketJqEstimator, IncrementalJq, IncrementalJqConfig, KernelMode,
};
use jury_model::{GaussianWorkerGenerator, Jury, MatrixPool, Prior, Worker, WorkerPool};
use jury_service::{
    JuryService, MixedRequest, MixedResponse, MultiClassSelectionRequest, SelectionRequest,
    ServiceConfig, ServiceError, SolverPolicy, SweepPolicy,
};

/// Bucket resolution shared by the scratch and incremental paths so the
/// comparison is work-for-work (the paper's experimental budget).
const NUM_BUCKETS: usize = 50;
/// Candidates of the step/round workloads.
const POOL_SIZE: usize = 50;
/// Candidates of the sweep workloads (past the exact cutoff, so the sweep
/// policies actually engage).
const SWEEP_POOL_SIZE: usize = 40;
/// Members and bucket resolution of the kernel-mode race: a deep grid
/// (~100k dense slots) so the chunked window passes have room to pay off.
const KERNEL_RACE_MEMBERS: usize = 24;
const KERNEL_RACE_BUCKETS: usize = 2000;
/// Candidates and committed members of the probe-protocol round: a
/// marginal-greedy round on a pool the size of the service benchmark's
/// smaller sweep, a few workers in, on the production grid.
const PROBE_POOL_SIZE: usize = 200;
const PROBE_MEMBERS: usize = 8;

fn random_pool(n: usize, seed: u64) -> WorkerPool {
    let generator = GaussianWorkerGenerator::paper_defaults();
    let mut rng = StdRng::seed_from_u64(seed);
    generator.generate(n, &mut rng)
}

/// Times `routine` `iters` times and returns the median microseconds.
fn median_us<F: FnMut()>(iters: usize, mut routine: F) -> f64 {
    let mut samples: Vec<f64> = (0..iters.max(1))
        .map(|_| {
            let start = Instant::now();
            routine();
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    samples[samples.len() / 2]
}

fn scratch_estimator() -> BucketJqEstimator {
    BucketJqEstimator::new(
        BucketJqConfig::default()
            .with_buckets(BucketCount::Fixed(NUM_BUCKETS))
            .with_high_quality_shortcut(false),
    )
}

fn incremental_for(pool: &WorkerPool, members: &[Worker]) -> IncrementalJq {
    let mut engine = IncrementalJq::for_pool(
        pool,
        Prior::uniform(),
        IncrementalJqConfig::default().with_buckets(BucketCount::Fixed(NUM_BUCKETS)),
    );
    for worker in members {
        engine.push_worker(worker);
    }
    engine
}

/// Threads of the contention workload — enough to oversubscribe one lock
/// word without outrunning small CI runners.
const CONTENTION_THREADS: usize = 8;

/// Per-response p50/p99 (µs) of `CONTENTION_THREADS` threads hammering a
/// service whose JQ store has `shards` shards with repeated small-pool
/// mixed traffic.
///
/// Every distinct request is served once before timing starts, so the
/// timed loop re-enumerates fully memoized juries: almost all of its work
/// is JQ-store reads, which makes the p99 a direct probe of lock
/// contention. Binary budgets all share one signature key space (the JQ
/// of a jury does not depend on the budget that selected it), so the
/// traffic spreads across shards by signature hash exactly like real
/// batch load.
fn contention_percentiles_us(shards: usize, rounds: usize) -> (f64, f64) {
    let service = JuryService::new(ServiceConfig::fast().with_cache_shards(shards));
    let qualities: Vec<f64> = (0..10).map(|w| 0.55 + 0.03 * w as f64).collect();
    let pool = WorkerPool::from_qualities_and_costs(&qualities, &[1.0; 10]).unwrap();
    let matrix =
        MatrixPool::from_qualities_and_costs(&[0.9, 0.8, 0.7, 0.65, 0.6, 0.55], &[1.0; 6], 3)
            .unwrap();
    let requests: Vec<MixedRequest> = (2..=9)
        .map(|budget| MixedRequest::from(SelectionRequest::new(pool.clone(), budget as f64)))
        .chain((2..=5).map(|budget| {
            MixedRequest::from(MultiClassSelectionRequest::new(
                matrix.clone(),
                budget as f64,
            ))
        }))
        .collect();
    let serve = |request: &MixedRequest| match request {
        MixedRequest::Binary(request) => {
            std::hint::black_box(service.select(request).expect("valid request"));
        }
        MixedRequest::MultiClass(request) => {
            std::hint::black_box(service.select_multiclass(request).expect("valid request"));
        }
    };
    // Warm pass: memoize every JQ value the traffic will ever need.
    for request in &requests {
        serve(request);
    }

    let mut samples: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONTENTION_THREADS)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::with_capacity(rounds * requests.len());
                    for _ in 0..rounds {
                        for request in &requests {
                            let start = Instant::now();
                            serve(request);
                            local.push(start.elapsed().as_secs_f64() * 1e6);
                        }
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("contention worker panicked"))
            .collect()
    });
    samples.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    let p50 = samples[samples.len() / 2];
    let p99 = samples[(samples.len() * 99 / 100).min(samples.len() - 1)];
    (p50, p99)
}

/// Candidates of the portfolio-quality race (past the exact cutoff, so the
/// heuristic members actually engage) and its shared evaluation cap.
const PORTFOLIO_POOL_SIZE: usize = 60;
const PORTFOLIO_EVAL_CAP: u64 = 1_500;
const PORTFOLIO_JURY_BUDGET: f64 = 6.0;

/// JQ reached by `policy` on the portfolio-race pool under the shared
/// evaluation cap. A cap-truncated serve surfaces as `DeadlineExceeded`
/// carrying the anytime best-so-far, which counts as the answer here.
fn capped_quality(pool: &WorkerPool, policy: SolverPolicy) -> f64 {
    let service = JuryService::new(ServiceConfig::fast());
    let request = SelectionRequest::new(pool.clone(), PORTFOLIO_JURY_BUDGET)
        .with_policy(policy)
        .with_evaluation_limit(PORTFOLIO_EVAL_CAP);
    match service.select(&request) {
        Ok(response) => response.quality,
        Err(ServiceError::DeadlineExceeded {
            best_so_far: Some(best),
        }) => match *best {
            MixedResponse::Binary(response) => response.quality,
            other => panic!("binary request returned {other:?}"),
        },
        Err(err) => panic!("capped select failed: {err}"),
    }
}

/// The machine-independent ratios compared by `--check`. Raw `median_us`
/// timings shift with the host; the timing ratios divide two timings from
/// the same run, so a drop can only come from a real relative slowdown.
/// `portfolio_vs_annealing_quality_per_eval` instead divides two JQ margins
/// over the 0.5 coin-flip floor at the same evaluation cap — deterministic
/// on every host, it gates the portfolio's quality-per-evaluation claim
/// against plain annealing.
///
/// * `annealing_step_incremental_vs_scratch` — one swap-and-score
///   neighbour: incremental engine vs from-scratch bucket DP.
/// * `greedy_round_incremental_vs_scratch` — one marginal-greedy round
///   (pool-many push/score/pop probes) vs pool-many scratch rebuilds.
/// * `marginal_probe_vs_push_pop` — one marginal-greedy round at n = 200 on
///   the default grid, scored by read-only `probe_push` vs push/value/pop.
/// * `kernel_vectorized_vs_scalar` — the deep-grid swap workload under
///   the chunked window kernels vs the scalar reference loops.
/// * `sweep_warm_marginal_vs_cold` / `sweep_warm_annealing_vs_cold` — a
///   budget–quality sweep through the service with warm-start policies vs
///   independent cold solves.
/// * `contention_sharded_vs_single_lock` — p99 response time of warmed
///   multi-threaded traffic on the single-lock JQ store vs the striped one.
/// * `portfolio_vs_annealing_quality_per_eval` — JQ margin over 0.5 at a
///   fixed evaluation cap, portfolio policy vs plain annealing.
const CHECKED_SPEEDUPS: [&str; 8] = [
    "annealing_step_incremental_vs_scratch",
    "greedy_round_incremental_vs_scratch",
    "marginal_probe_vs_push_pop",
    "kernel_vectorized_vs_scalar",
    "sweep_warm_marginal_vs_cold",
    "sweep_warm_annealing_vs_cold",
    "contention_sharded_vs_single_lock",
    "portfolio_vs_annealing_quality_per_eval",
];

/// Compares the current dump's `speedups` against a baseline file; returns
/// the list of human-readable regression descriptions (empty = pass).
fn check_against_baseline(
    current: &serde_json::Value,
    baseline_path: &str,
    tolerance: f64,
) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|err| format!("failed to read {baseline_path}: {err}"))?;
    let baseline: serde_json::Value =
        serde_json::from_str(&text).map_err(|err| format!("invalid {baseline_path}: {err}"))?;
    let mut regressions = Vec::new();
    for key in CHECKED_SPEEDUPS {
        let was = baseline
            .field("speedups")
            .and_then(|s| s.field(key))
            .map_err(|err| format!("{baseline_path}: {err}"))?
            .as_f64()
            .ok_or_else(|| format!("{baseline_path}: speedups.{key} is not a number"))?;
        let now = current
            .field("speedups")
            .and_then(|s| s.field(key))
            .expect("dump carries every checked speedup")
            .as_f64()
            .expect("speedups are numeric");
        let floor = was / (1.0 + tolerance);
        let verdict = if now < floor { "REGRESSED" } else { "ok" };
        eprintln!("check {key}: {now:.2}x vs baseline {was:.2}x (floor {floor:.2}x) {verdict}");
        if now < floor {
            regressions.push(format!(
                "{key}: {now:.2}x fell below {floor:.2}x (baseline {was:.2}x / (1 + {tolerance}))"
            ));
        }
    }
    Ok(regressions)
}

fn main() {
    let mut out = String::from("BENCH_service.json");
    let mut iters = 15usize;
    let mut check: Option<String> = None;
    let mut tolerance = 0.5f64;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--out" => out = args.next().expect("--out needs a path"),
            "--iters" => {
                iters = args
                    .next()
                    .expect("--iters needs a number")
                    .parse()
                    .expect("--iters needs a number")
            }
            "--check" => check = Some(args.next().expect("--check needs a baseline path")),
            "--tolerance" => {
                tolerance = args
                    .next()
                    .expect("--tolerance needs a number")
                    .parse()
                    .expect("--tolerance needs a number");
                assert!(
                    tolerance >= 0.0 && tolerance.is_finite(),
                    "--tolerance must be a finite non-negative number"
                );
            }
            other => {
                eprintln!(
                    "unknown flag {other}; usage: perf_smoke [--out <path>] [--iters <n>] \
                     [--check <baseline.json>] [--tolerance <f>]"
                );
                std::process::exit(2);
            }
        }
    }

    let pool = random_pool(POOL_SIZE, 11);
    let members: Vec<Worker> = pool.workers()[..POOL_SIZE / 2].to_vec();
    let candidates: Vec<Worker> = pool.workers()[POOL_SIZE / 2..].to_vec();
    let outsider = pool.workers()[POOL_SIZE - 1].clone();
    let victim = members[0].clone();
    let jury = Jury::new(members.clone());
    let estimator = scratch_estimator();

    // One annealing neighbour: mutate one member, read the JQ, revert.
    let annealing_scratch = median_us(iters, || {
        let mut candidate = jury.without(victim.id());
        candidate.push(outsider.clone());
        std::hint::black_box(estimator.jq(&candidate, Prior::uniform()));
    });
    let mut engine = incremental_for(&pool, &members);
    let annealing_incremental = median_us(iters, || {
        engine.swap_worker(&victim, &outsider).expect("member");
        std::hint::black_box(engine.jq());
        engine.swap_worker(&outsider, &victim).expect("member");
    });

    // One marginal-greedy round: score every candidate extension.
    let greedy_scratch = median_us(iters, || {
        let mut best = f64::NEG_INFINITY;
        for worker in &candidates {
            let value = estimator.jq(&jury.with_worker(worker.clone()), Prior::uniform());
            best = best.max(value);
        }
        std::hint::black_box(best);
    });
    let mut engine = incremental_for(&pool, &members);
    let greedy_incremental = median_us(iters, || {
        let mut best = f64::NEG_INFINITY;
        for worker in &candidates {
            engine.push_worker(worker);
            best = best.max(engine.jq());
            engine.pop_worker(worker).expect("just pushed");
        }
        std::hint::black_box(best);
    });

    // Probe round: a committed worker joins, every other outsider is
    // scored as an extension, the worker leaves again. The commit and its
    // undo are the same in both variants; only the scoring protocol
    // differs, so the ratio isolates it (the probe variant pays its one
    // suffix-sum pass per committed jury inside the round).
    let probe_pool = random_pool(PROBE_POOL_SIZE, 23);
    let (probe_members, probe_rest) = probe_pool.workers().split_at(PROBE_MEMBERS);
    let (probe_winner, probe_candidates) = probe_rest.split_first().expect("pool has outsiders");
    let mut probe_engine = IncrementalJq::for_pool(
        &probe_pool,
        Prior::uniform(),
        IncrementalJqConfig::default(),
    );
    for worker in probe_members {
        probe_engine.push_worker(worker);
    }
    let mut probe_round = |probe: bool| {
        median_us(iters, || {
            probe_engine.push_worker(probe_winner);
            let mut best = f64::NEG_INFINITY;
            for worker in probe_candidates {
                let value = if probe {
                    probe_engine.probe_push(worker.quality())
                } else {
                    probe_engine.push_worker(worker);
                    let value = probe_engine.jq();
                    probe_engine.pop_worker(worker).expect("just pushed");
                    value
                };
                best = best.max(value);
            }
            probe_engine.pop_worker(probe_winner).expect("just pushed");
            std::hint::black_box(best);
        })
    };
    let marginal_push_pop = probe_round(false);
    let marginal_probe = probe_round(true);

    // Kernel race: the same swap workload on a deep grid, vectorized
    // window passes vs the scalar reference loops. Everything except the
    // kernel mode is identical, so the ratio isolates raw kernel
    // throughput.
    let kernel_pool = random_pool(POOL_SIZE, 19);
    let kernel_members: Vec<Worker> = kernel_pool.workers()[..KERNEL_RACE_MEMBERS].to_vec();
    let kernel_outsider = kernel_pool.workers()[POOL_SIZE - 1].clone();
    let kernel_victim = kernel_members[0].clone();
    let kernel_race = |kernel: KernelMode| {
        let mut engine = IncrementalJq::for_pool(
            &kernel_pool,
            Prior::uniform(),
            IncrementalJqConfig::default()
                .with_buckets(BucketCount::Fixed(KERNEL_RACE_BUCKETS))
                .with_kernel_mode(kernel),
        );
        for worker in &kernel_members {
            engine.push_worker(worker);
        }
        median_us(iters, || {
            engine
                .swap_worker(&kernel_victim, &kernel_outsider)
                .expect("member");
            std::hint::black_box(engine.jq());
            engine
                .swap_worker(&kernel_outsider, &kernel_victim)
                .expect("member");
        })
    };
    let kernel_vectorized = kernel_race(KernelMode::Vectorized);
    let kernel_scalar = kernel_race(KernelMode::ScalarReference);

    // Budget sweeps through the service, one per sweep policy. Uniform
    // costs keep all three policies on the same optimum, so the timings
    // compare equal work.
    let qualities: Vec<f64> = (0..SWEEP_POOL_SIZE)
        .map(|i| 0.52 + 0.012 * (i % 35) as f64)
        .collect();
    let sweep_pool =
        WorkerPool::from_qualities_and_costs(&qualities, &vec![1.0; SWEEP_POOL_SIZE]).unwrap();
    let budgets: Vec<f64> = (1..=4).map(|b| (b * SWEEP_POOL_SIZE / 8) as f64).collect();
    let sweep_iters = iters.div_ceil(3);
    let sweep = |policy: SweepPolicy| {
        median_us(sweep_iters, || {
            // A fresh service per run: sweeps must not serve each other
            // from the shared cache, or later policies would time as pure
            // cache reads.
            let service = JuryService::new(ServiceConfig::fast().with_sweep_policy(policy));
            let table = service
                .budget_quality_table(&sweep_pool, &budgets, Prior::uniform())
                .expect("valid sweep");
            std::hint::black_box(table);
        })
    };
    let sweep_cold = sweep(SweepPolicy::Cold);
    let sweep_warm_marginal = sweep(SweepPolicy::WarmMarginal);
    let sweep_warm_annealing = sweep(SweepPolicy::WarmAnnealing);

    // Store contention: identical warmed traffic against the single-lock
    // store and the striped store. The single-lock run goes first so both
    // see the same cold-cpu handicap ordering run-to-run.
    let contention_rounds = iters.max(1) * 4;
    let (contention_single_p50, contention_single_p99) =
        contention_percentiles_us(1, contention_rounds);
    let (contention_sharded_p50, contention_sharded_p99) =
        contention_percentiles_us(8, contention_rounds);

    // Portfolio quality race: same pool, same jury budget, same evaluation
    // cap — the only variable is the policy. Non-uniform costs keep the
    // knapsack structure non-trivial.
    let portfolio_qualities: Vec<f64> = (0..PORTFOLIO_POOL_SIZE)
        .map(|i| 0.52 + 0.012 * (i % 30) as f64)
        .collect();
    let portfolio_costs: Vec<f64> = (0..PORTFOLIO_POOL_SIZE)
        .map(|i| 0.5 + (i % 7) as f64 * 0.25)
        .collect();
    let portfolio_pool =
        WorkerPool::from_qualities_and_costs(&portfolio_qualities, &portfolio_costs).unwrap();
    let portfolio_quality = capped_quality(&portfolio_pool, SolverPolicy::Portfolio(Vec::new()));
    let annealing_quality = capped_quality(&portfolio_pool, SolverPolicy::Annealing);

    let dump = serde_json::json!({
        "schema": "jury-bench/perf-smoke/v1",
        "iters": iters,
        "sweep_iters": sweep_iters,
        "pool_size": POOL_SIZE,
        "probe_pool_size": PROBE_POOL_SIZE,
        "sweep_pool_size": SWEEP_POOL_SIZE,
        "num_buckets": NUM_BUCKETS,
        "median_us": {
            "annealing_step_scratch": annealing_scratch,
            "annealing_step_incremental": annealing_incremental,
            "greedy_round_scratch": greedy_scratch,
            "greedy_round_incremental": greedy_incremental,
            "marginal_round_push_pop": marginal_push_pop,
            "marginal_round_probe": marginal_probe,
            "kernel_swap_vectorized": kernel_vectorized,
            "kernel_swap_scalar": kernel_scalar,
            "sweep_cold": sweep_cold,
            "sweep_warm_marginal": sweep_warm_marginal,
            "sweep_warm_annealing": sweep_warm_annealing,
            "contention_single_lock_p50": contention_single_p50,
            "contention_single_lock_p99": contention_single_p99,
            "contention_sharded_p50": contention_sharded_p50,
            "contention_sharded_p99": contention_sharded_p99,
        },
        "contention_threads": CONTENTION_THREADS,
        "portfolio_race": {
            "pool_size": PORTFOLIO_POOL_SIZE,
            "jury_budget": PORTFOLIO_JURY_BUDGET,
            "evaluation_cap": PORTFOLIO_EVAL_CAP,
            "portfolio_quality": portfolio_quality,
            "annealing_quality": annealing_quality,
        },
        "kernel_race": {
            "members": KERNEL_RACE_MEMBERS,
            "num_buckets": KERNEL_RACE_BUCKETS,
        },
        "speedups": {
            "annealing_step_incremental_vs_scratch": annealing_scratch / annealing_incremental,
            "greedy_round_incremental_vs_scratch": greedy_scratch / greedy_incremental,
            "marginal_probe_vs_push_pop": marginal_push_pop / marginal_probe,
            "kernel_vectorized_vs_scalar": kernel_scalar / kernel_vectorized,
            "sweep_warm_marginal_vs_cold": sweep_cold / sweep_warm_marginal,
            "sweep_warm_annealing_vs_cold": sweep_cold / sweep_warm_annealing,
            "contention_sharded_vs_single_lock": contention_single_p99 / contention_sharded_p99,
            // JQ margin over the 0.5 coin-flip floor, portfolio : annealing,
            // at PORTFOLIO_EVAL_CAP evaluations each. ≥ 1.0 means the race
            // beats or ties annealing-only at equal evaluation spend.
            "portfolio_vs_annealing_quality_per_eval":
                (portfolio_quality - 0.5) / (annealing_quality - 0.5).max(1e-12),
        },
    });
    let rendered = serde_json::to_string_pretty(&dump).expect("serializable");
    println!("{rendered}");
    if let Err(err) = std::fs::write(&out, rendered) {
        eprintln!("failed to write {out}: {err}");
        std::process::exit(1);
    }
    eprintln!("wrote {out}");

    if let Some(baseline_path) = check {
        match check_against_baseline(&dump, &baseline_path, tolerance) {
            Ok(regressions) if regressions.is_empty() => {
                eprintln!("perf check against {baseline_path} passed (tolerance {tolerance})");
            }
            Ok(regressions) => {
                for regression in &regressions {
                    eprintln!("perf regression: {regression}");
                }
                std::process::exit(1);
            }
            Err(err) => {
                eprintln!("{err}");
                std::process::exit(2);
            }
        }
    }
}
