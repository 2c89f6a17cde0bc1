//! CI soak smoke of the online serving loop: a sustained answer stream
//! feeds a [`jury_stream::WorkerRegistry`] while periodic drift scans and
//! repairs run through [`jury_service::JuryService`], with the loop's
//! invariants asserted on every cycle.
//!
//! The soak runs deadline-bounded **rotations**. Each rotation warm-seeds a
//! fresh registry from the latent qualities (the Beta counts stay small, so
//! posteriors remain responsive to drift for the whole soak), selects and
//! tracks a jury plus a low-tier control selection, then cycles: stream a
//! golden answer batch drawn from the latent accuracies, degrade one jury
//! member mid-rotation, scan, and repair whatever the scan flags. After
//! every repair pass a follow-up scan must come back all-steady — repairs
//! rebaseline the ledger, and nothing streamed in between.
//!
//! Every select and repair runs under a generous per-request deadline, so
//! the soak also pins that the deadline plumbing is inert when there is
//! headroom: nothing may come back truncated, and the loop's invariants
//! hold exactly as they do without deadlines.
//!
//! Usage: `soak_smoke [--seconds <n>] [--seed <n>]` (defaults: 45, 7).
//! Exits non-zero on any violated invariant (assert) or serving error.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use jury_model::{Answer, Prior, TaskId, WorkerId};
use jury_service::{JuryService, RepairOutcome, SelectionRequest, ServiceConfig, SolverPolicy};
use jury_stream::{AnswerEvent, DriftDetector, DriftStatus, RegistryConfig, WorkerRegistry};

/// Workers in the streamed pool (past `fast()`'s exact cutoff, so the
/// annealing select path is exercised alongside the repair path).
const POOL: usize = 16;
/// Budget of the tracked jury (unit costs — a four-member jury).
const BUDGET: f64 = 4.0;
/// Warm-seed strength: pseudo-observations behind each rotation's priors.
/// Kept modest so a few degraded batches can actually move the posterior.
const SEED_STRENGTH: f64 = 60.0;
/// Tasks per streamed batch (each task is answered by every worker).
const BATCH_TASKS: u64 = 30;
/// Cycles per rotation; the degradation lands mid-rotation.
const CYCLES_PER_ROTATION: u32 = 8;
/// Per-request deadline on every select and repair: generous enough that
/// no search in this workload ever comes close, so any truncation the soak
/// observes is a real cancellation bug.
const REQUEST_DEADLINE: Duration = Duration::from_secs(30);

#[derive(Default)]
struct Counters {
    rotations: u64,
    cycles: u64,
    events: u64,
    scans: u64,
    flagged: u64,
    unchanged: u64,
    patched: u64,
    resolved: u64,
}

/// Streams `BATCH_TASKS` golden tasks: every worker answers every task,
/// correctly with its latent probability.
fn stream_batch(
    registry: &mut WorkerRegistry,
    latent: &[f64],
    rng: &mut StdRng,
    next_task: &mut u64,
    counters: &mut Counters,
) {
    for _ in 0..BATCH_TASKS {
        let task = TaskId(*next_task);
        *next_task += 1;
        for (w, &accuracy) in latent.iter().enumerate() {
            let vote = if rng.gen::<f64>() < accuracy {
                Answer::Yes
            } else {
                Answer::No
            };
            registry
                .observe(AnswerEvent::golden(
                    WorkerId(w as u32),
                    task,
                    vote,
                    Answer::Yes,
                ))
                .expect("registered worker accepts golden events");
            counters.events += 1;
        }
    }
}

fn main() {
    let mut seconds = 45u64;
    let mut seed = 7u64;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let parse = |value: Option<String>, what: &str| -> u64 {
            value
                .unwrap_or_else(|| panic!("{what} needs a number"))
                .parse()
                .unwrap_or_else(|_| panic!("{what} needs a number"))
        };
        match flag.as_str() {
            "--seconds" => seconds = parse(args.next(), "--seconds"),
            "--seed" => seed = parse(args.next(), "--seed"),
            other => {
                eprintln!("unknown flag {other}; usage: soak_smoke [--seconds <n>] [--seed <n>]");
                std::process::exit(2);
            }
        }
    }

    let started = Instant::now();
    let deadline = started + Duration::from_secs(seconds);
    let mut rng = StdRng::seed_from_u64(seed);
    let service = JuryService::new(ServiceConfig::fast());
    // Odd rotations select through a two-thread batch under the portfolio
    // policy: POOL (16) is past `fast()`'s exact cutoff, so the race
    // actually engages on the serving path, two slots are served
    // concurrently, and the rest of the rotation (scans, repairs) must
    // behave identically either way.
    let concurrent = JuryService::new(ServiceConfig::fast().with_batch_threads(2));
    // A modest quality band (0.58–0.76): high enough that juries beat the
    // coin, low enough that one member collapsing to ~0.5 moves the JQ past
    // the drift threshold (at 0.9+ tiers, a lost member barely dents JQ).
    let base: Vec<f64> = (0..POOL)
        .map(|i| 0.58 + 0.18 * i as f64 / (POOL - 1) as f64)
        .collect();
    let mut counters = Counters::default();
    let mut next_task = 0u64;

    while Instant::now() < deadline {
        counters.rotations += 1;
        let mut latent = base.clone();

        // Fresh registry per rotation, warm-seeded at the latent qualities:
        // bounded Beta counts keep the posteriors responsive to the
        // injected degradation no matter how long the soak runs.
        let mut registry = WorkerRegistry::new(RegistryConfig::default())
            .expect("default registry config is valid");
        for (w, &quality) in latent.iter().enumerate() {
            registry
                .register_with_quality(WorkerId(w as u32), quality, SEED_STRENGTH, 1.0)
                .expect("seed qualities are in (0, 1)");
        }

        // Track the service-selected jury plus a low-tier control.
        let mut detector = DriftDetector::new(0.03);
        let snapshot = registry.snapshot_pool().expect("non-empty registry");
        let request = SelectionRequest::new(snapshot.clone(), BUDGET)
            .with_prior(Prior::uniform())
            .with_deadline(REQUEST_DEADLINE);
        let selected = if counters.rotations % 2 == 1 {
            let raced = request.with_policy(SolverPolicy::Portfolio(Vec::new()));
            let mut slots = concurrent
                .select_batch(&[raced.clone(), raced])
                .results
                .into_iter()
                .map(|slot| slot.expect("concurrent portfolio selection on the streamed snapshot"));
            let first = slots.next().expect("two slots");
            let second = slots.next().expect("two slots");
            assert_eq!(
                first.worker_ids(),
                second.worker_ids(),
                "concurrent slots of one request must agree"
            );
            first
        } else {
            service
                .select(&request)
                .expect("selection on the streamed snapshot")
        };
        let jury_id = detector.track(
            selected.jury.ids(),
            BUDGET,
            Prior::uniform(),
            selected.quality,
            registry.epoch(),
        );
        let control_members: Vec<WorkerId> = (0..3).map(|w| WorkerId(w as u32)).collect();
        let control_quality = service
            .rescore(&snapshot, &control_members, Prior::uniform())
            .expect("control members are in the snapshot");
        detector.track(
            control_members,
            3.0,
            Prior::uniform(),
            control_quality,
            registry.epoch(),
        );

        let victim = selected.jury.ids()[0];
        for cycle in 0..CYCLES_PER_ROTATION {
            if Instant::now() >= deadline {
                break;
            }
            counters.cycles += 1;
            // Mid-rotation, the first-seated jury member collapses to
            // coin-flipping. Exactly 0.5, not lower: under Bayesian voting
            // a sub-0.5 worker is still informative (its vote is flipped),
            // so 0.5 is the genuinely useless point the posterior must
            // approach for the jury's JQ to sag.
            if cycle == CYCLES_PER_ROTATION / 2 {
                latent[victim.0 as usize] = 0.5;
            }
            stream_batch(
                &mut registry,
                &latent,
                &mut rng,
                &mut next_task,
                &mut counters,
            );

            let reports = service
                .drift_scan(&registry, &detector)
                .expect("scan over a live registry");
            counters.scans += 1;
            for report in reports {
                assert_ne!(
                    report.status,
                    DriftStatus::Stale,
                    "selection {} went stale: registry members never vanish",
                    report.id
                );
                if report.status != DriftStatus::Drifted {
                    continue;
                }
                counters.flagged += 1;
                let repaired = service
                    .repair_with_deadline(&registry, &mut detector, report.id, REQUEST_DEADLINE)
                    .expect("repairing a tracked selection");
                assert!(
                    !repaired.truncated,
                    "a {REQUEST_DEADLINE:?} deadline truncated a soak repair"
                );
                assert!(
                    repaired.quality.is_finite()
                        && repaired.quality > 0.5
                        && repaired.quality <= 1.0,
                    "repaired quality {} out of range",
                    repaired.quality
                );
                let budget = detector
                    .get(report.id)
                    .expect("repair keeps the selection tracked")
                    .budget();
                assert!(
                    repaired.cost <= budget + 1e-9,
                    "repaired cost {} exceeds budget {budget}",
                    repaired.cost
                );
                assert!(!repaired.jury.is_empty());
                assert!(repaired
                    .jury
                    .ids()
                    .iter()
                    .all(|&id| registry.is_registered(id)));
                match repaired.outcome {
                    RepairOutcome::Unchanged => counters.unchanged += 1,
                    RepairOutcome::Patched { .. } => counters.patched += 1,
                    RepairOutcome::Resolved => counters.resolved += 1,
                }
            }

            // Nothing streamed since the repair pass, so the rebaselined
            // ledger must scan clean.
            let settled = service
                .drift_scan(&registry, &detector)
                .expect("follow-up scan");
            counters.scans += 1;
            for report in settled {
                assert_eq!(
                    report.status,
                    DriftStatus::Steady,
                    "selection {} still reports drift {} right after the repair pass",
                    report.id,
                    report.drift
                );
            }
        }
        // The selection stays tracked across the whole rotation.
        assert!(detector.get(jury_id).is_some());
    }

    let elapsed = started.elapsed().as_secs_f64();
    let summary = serde_json::json!({
        "schema": "jury-bench/soak-smoke/v1",
        "seconds": elapsed,
        "rotations": counters.rotations,
        "cycles": counters.cycles,
        "events": counters.events,
        "scans": counters.scans,
        "flagged": counters.flagged,
        "repairs": {
            "unchanged": counters.unchanged,
            "patched": counters.patched,
            "resolved": counters.resolved,
        },
    });
    println!(
        "{}",
        serde_json::to_string_pretty(&summary).expect("serializable")
    );
    // Any soak long enough for one full rotation must have seen the
    // injected degradation flagged and repaired at least once.
    if counters.cycles >= CYCLES_PER_ROTATION as u64 {
        assert!(
            counters.flagged > 0 && counters.patched + counters.resolved > 0,
            "the soak never repaired a drifted jury — degradation injection is broken"
        );
    }
    eprintln!(
        "soak ok: {} rotations, {} cycles, {} events, {} repairs in {elapsed:.1}s",
        counters.rotations, counters.cycles, counters.events, counters.flagged
    );
}
