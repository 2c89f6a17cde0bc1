//! `online-drift`: one operation is one cycle of the online serving loop.
//! A seeded batch of golden answers streams into a registry of 1000
//! workers, with a rotating block of them degraded to coin-flipping
//! (q = 0.5); `drift_scan` then re-scores the 200 tracked selections and
//! `repair_batch` patches the flagged ones. This is the only load on
//! `jury-stream` and on the repair path. The repair search probes through
//! incremental sessions, past the JQ store, so the store sees only a few
//! lookups per cycle.

use std::time::Instant;

use jury_model::{Answer, Prior, TaskId, WorkerId, WorkerPool};
use jury_service::{
    CacheStats, JuryService, RepairOutcome, RepairResponse, ServiceConfig, ServiceError,
};
use jury_stream::{
    AnswerEvent, DriftDetector, DriftStatus, RegistryConfig, SelectionId, WorkerRegistry,
};

use crate::gen;
use crate::harness::{failed, Checked, Pass, Workload};
use crate::metrics::RunResult;
use crate::oracle;
use crate::rng::Rng;
use crate::trace::{SpanId, Tracer};
use crate::workloads::batch_shared::cache_metrics;
use crate::workloads::Replay;

pub const NAME: &str = "online-drift";
pub const WORKERS: usize = 1000;
/// Workers per group. Groups are runs of consecutive ids; cycle `c`
/// degrades group `c mod 50`, so no group is degraded twice in 50 cycles.
pub const GROUP: usize = 20;
pub const GROUPS: usize = WORKERS / GROUP;
/// Each group's selections: its warm sweep's juries at these budgets.
pub const BUDGETS: [f64; 8] = [2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5];
/// Tracked selections: the ledger holds the selections of the next
/// `LEDGER / BUDGETS.len()` groups to be degraded. Tracking a new
/// selection evicts the oldest, so every cycle's repairs touch selections
/// handed out before any of their members drifted.
pub const LEDGER: usize = 200;
/// Pseudo-observations behind each worker's seeded estimate.
pub const SEED_STRENGTH: f64 = 40.0;
/// Golden tasks each block worker answers per cycle.
pub const TASKS_PER_CYCLE: u64 = 30;
pub const DRIFT_THRESHOLD: f64 = 0.01;

/// The worker population: quality and cost per id. Group `g` holds quality
/// strata `g, g + 50, g + 100, …`, so every group spans the whole quality
/// range and every cycle's block is as hard to repair around as the next.
pub fn population(seed: u64) -> (Vec<f64>, Vec<f64>) {
    let by_stratum = gen::profile_by_stratum(
        &mut Rng::derive(seed, "online-drift/population", 0),
        WORKERS,
    );
    let mut qualities = vec![0.0; WORKERS];
    let mut costs = vec![0.0; WORKERS];
    for (stratum, (quality, cost)) in by_stratum.into_iter().enumerate() {
        let id = (stratum % GROUPS) * GROUP + stratum / GROUPS;
        qualities[id] = quality;
        costs[id] = cost;
    }
    (qualities, costs)
}

/// The ids of group `g`.
pub fn group(g: usize) -> Vec<WorkerId> {
    let g = g % GROUPS;
    (g * GROUP..(g + 1) * GROUP)
        .map(|w| WorkerId(w as u32))
        .collect()
}

/// The golden answers of cycle `index`: every worker of group
/// `index mod GROUPS` answers [`TASKS_PER_CYCLE`] tasks at accuracy exactly
/// 0.5 — a seeded half of its answers are wrong.
pub fn input(seed: u64, index: u64) -> Vec<AnswerEvent> {
    let mut rng = Rng::derive(seed, NAME, index);
    let tasks = TASKS_PER_CYCLE as usize;
    let truths: Vec<Answer> = (0..tasks)
        .map(|_| Answer::from_bool(rng.unit() < 0.5))
        .collect();
    let mut events = Vec::with_capacity(tasks * GROUP);
    for w in group(index as usize) {
        let mut wrong: Vec<bool> = (0..tasks).map(|t| t < tasks / 2).collect();
        for i in (1..tasks).rev() {
            wrong.swap(i, rng.below(i + 1));
        }
        for (t, (&truth, &wrong)) in truths.iter().zip(&wrong).enumerate() {
            let task = TaskId(index * TASKS_PER_CYCLE + t as u64);
            let vote = if wrong { truth.flip() } else { truth };
            events.push(AnswerEvent::golden(w, task, vote, truth));
        }
    }
    events
}

pub fn describe(events: &[AnswerEvent]) -> String {
    events
        .iter()
        .map(|e| format!("{e:?}"))
        .collect::<Vec<_>>()
        .join("\n")
}

pub struct State {
    service: JuryService,
    registry: WorkerRegistry,
    detector: DriftDetector,
    baseline: CacheStats,
    /// Traced runs: flagged selections and the repair outcomes.
    flagged: u64,
    repair_s: f64,
    unchanged: u64,
    patched: u64,
    resolved: u64,
}

pub struct Output {
    flagged: Vec<SelectionId>,
    repaired: Result<Vec<Result<RepairResponse, ServiceError>>, ServiceError>,
}

pub struct OnlineDrift;

/// Hands out (and tracks) the selections of group `g`: the service's
/// budget–quality sweep over the group's current estimates.
fn hand_out(
    service: &JuryService,
    registry: &WorkerRegistry,
    detector: &mut DriftDetector,
    g: usize,
) {
    let snapshot = registry.snapshot_pool().expect("registry is not empty");
    let pool = WorkerPool::from_workers(
        snapshot
            .select(&group(g))
            .expect("group ids are registered"),
    )
    .expect("group ids are distinct");
    let table = service
        .budget_quality_table(&pool, &BUDGETS, Prior::uniform())
        .expect("group sweeps are valid");
    for row in table.rows() {
        detector.track(
            row.jury.clone(),
            row.budget,
            Prior::uniform(),
            row.quality,
            registry.epoch(),
        );
    }
}

impl Workload for OnlineDrift {
    type State = State;
    type Input = Vec<AnswerEvent>;
    type Output = Output;

    const MIN_OPS: u64 = 16;
    const TRACE_OPS: u64 = 10;

    /// Seeds the registry with the population's qualities and hands out
    /// the selections of the first `LEDGER / BUDGETS.len()` groups.
    fn setup(&self, seed: u64) -> State {
        let service = JuryService::new(ServiceConfig::default());
        let mut registry =
            WorkerRegistry::new(RegistryConfig::default()).expect("default config is valid");
        let (qualities, costs) = population(seed);
        for (w, (&q, &c)) in qualities.iter().zip(&costs).enumerate() {
            registry
                .register_with_quality(WorkerId(w as u32), q, SEED_STRENGTH, c)
                .expect("generated workers are valid");
        }
        let mut detector = DriftDetector::new(DRIFT_THRESHOLD).with_capacity(LEDGER);
        for g in 0..LEDGER / BUDGETS.len() {
            hand_out(&service, &registry, &mut detector, g);
        }
        State {
            baseline: service.cache_stats(),
            service,
            registry,
            detector,
            flagged: 0,
            repair_s: 0.0,
            unchanged: 0,
            patched: 0,
            resolved: 0,
        }
    }

    fn input(&self, _state: &State, seed: u64, index: u64) -> Vec<AnswerEvent> {
        input(seed, index)
    }

    fn serve(
        &self,
        state: &mut State,
        events: &Vec<AnswerEvent>,
        trace: Option<(&Tracer, SpanId)>,
    ) -> Output {
        match trace {
            None => {
                for event in events {
                    state
                        .registry
                        .observe(*event)
                        .expect("golden events of registered workers");
                }
            }
            Some((tracer, op)) => {
                for event in events {
                    let start = Instant::now();
                    let observed = state.registry.observe(*event);
                    tracer.record("stream.observe", op, start, Instant::now());
                    observed.expect("golden events of registered workers");
                }
                // The service snapshots the registry inside every scan and
                // repair, out of the benchmark's sight; traced cycles time
                // one snapshot of their own (under 0.1 % of a cycle).
                let start = Instant::now();
                let snapshot = state.registry.snapshot_pool();
                tracer.record("stream.snapshot_pool", op, start, Instant::now());
                drop(snapshot);
            }
        }
        let scan_start = Instant::now();
        let reports = match state.service.drift_scan(&state.registry, &state.detector) {
            Ok(reports) => reports,
            Err(err) => {
                return Output {
                    flagged: Vec::new(),
                    repaired: Err(err),
                }
            }
        };
        if let Some((tracer, op)) = trace {
            tracer.record("service.drift_scan", op, scan_start, Instant::now());
        }
        let flagged: Vec<SelectionId> = reports
            .iter()
            .filter(|r| r.status == DriftStatus::Drifted)
            .map(|r| r.id)
            .collect();
        let repaired = match trace {
            Some((tracer, op)) => {
                let repaired = tracer.span("service.repair_batch", op, |_| {
                    state
                        .service
                        .repair_batch(&state.registry, &mut state.detector, &flagged)
                });
                state.flagged += flagged.len() as u64;
                for response in repaired.iter().flatten() {
                    state.repair_s += response.elapsed.as_secs_f64();
                    match response.outcome {
                        RepairOutcome::Unchanged => state.unchanged += 1,
                        RepairOutcome::Patched { .. } => state.patched += 1,
                        RepairOutcome::Resolved => state.resolved += 1,
                    }
                }
                repaired
            }
            None => state
                .service
                .repair_batch(&state.registry, &mut state.detector, &flagged),
        };
        Output {
            flagged,
            repaired: Ok(repaired),
        }
    }

    fn check(
        &self,
        state: &State,
        _events: &Vec<AnswerEvent>,
        output: &Output,
        _replay: Option<&Replay>,
    ) -> Checked {
        let repaired = match &output.repaired {
            Ok(repaired) => repaired,
            Err(err) => return failed(format!("drift_scan: {err}")),
        };
        let mut checked = Checked::default();
        if repaired.len() != output.flagged.len() {
            checked.fail(format!(
                "{} repairs for {} flagged",
                repaired.len(),
                output.flagged.len()
            ));
            return checked;
        }
        let snapshot = state
            .registry
            .snapshot_pool()
            .expect("registry is not empty");
        for (&id, result) in output.flagged.iter().zip(repaired) {
            let what = format!("repair of selection {}", id.raw());
            let response = match result {
                Ok(response) => response,
                Err(err) => {
                    checked.fail(format!("{what}: {err}"));
                    continue;
                }
            };
            if response.id != id {
                checked.fail(format!(
                    "{what}: answered for selection {}",
                    response.id.raw()
                ));
            }
            let Some(tracked) = state.detector.get(id) else {
                checked.fail(format!("{what}: no longer tracked"));
                continue;
            };
            let ids = response.worker_ids();
            if ids.iter().any(|&w| !state.registry.is_registered(w)) {
                checked.fail(format!("{what}: member not registered"));
            }
            let mut ledger = tracked.members().to_vec();
            ledger.sort();
            if ledger != ids {
                checked.fail(format!(
                    "{what}: ledger holds {ledger:?}, repair returned {ids:?}"
                ));
            }
            checked.merge(oracle::binary(
                &snapshot,
                tracked.budget(),
                tracked.prior(),
                oracle::Reported {
                    ids: &ids,
                    cost: response.cost,
                    quality: response.quality,
                },
                state.service.config(),
                &what,
            ));
        }
        checked
    }

    /// The rest of the system hands out the selections of the group that
    /// will be degraded `LEDGER / BUDGETS.len()` cycles from now; the
    /// bounded ledger evicts this cycle's (oldest) selections.
    fn settle(&self, state: &mut State, index: u64) {
        let g = index as usize + LEDGER / BUDGETS.len();
        hand_out(&state.service, &state.registry, &mut state.detector, g);
    }

    fn layer_metrics(&self, state: &State, tracer: &Tracer, _pass: &Pass, result: &mut RunResult) {
        cache_metrics(&state.baseline, &state.service.cache_stats(), result);
        let mean_ms = |name: &str| {
            let (n, s) = tracer.totals(name);
            if n == 0 {
                0.0
            } else {
                s * 1e3 / n as f64
            }
        };
        result.set("service.drift_scan.mean_ms", mean_ms("service.drift_scan"));
        result.set("stream.snapshot.mean_ms", mean_ms("stream.snapshot_pool"));
        let (events, observe_s) = tracer.totals("stream.observe");
        result.set("stream.observe.events", events as f64);
        result.set(
            "stream.observe.mean_ns",
            if events == 0 {
                0.0
            } else {
                observe_s * 1e9 / events as f64
            },
        );
        let repairs = state.unchanged + state.patched + state.resolved;
        result.set(
            "service.repair.mean_ms",
            if repairs == 0 {
                0.0
            } else {
                state.repair_s * 1e3 / repairs as f64
            },
        );
        result.set("service.repair.outcomes.unchanged", state.unchanged as f64);
        result.set("service.repair.outcomes.patched", state.patched as f64);
        result.set("service.repair.outcomes.resolved", state.resolved as f64);
        let worked = state.patched + state.resolved;
        result.set(
            "service.repair.resolved_share",
            if worked == 0 {
                0.0
            } else {
                state.resolved as f64 / worked as f64
            },
        );
        result.set("stream.drift.flagged", state.flagged as f64);
    }
}
