//! `batch-shared`: one fixed-size `select_mixed_batch_with_metrics` per
//! operation. Slots are small binary pools (n ≤ 14, solved exhaustively)
//! and small 3-class pools (n ≤ 12) at varied budgets. Most pools come
//! from a fixed universe with skewed popularity, a fixed share is fresh, so
//! the shared JQ store, the batch engine, exhaustive search and the
//! multi-class scratch DP do the work; sessions and annealing stay idle.

use jury_model::{CategoricalPrior, MatrixPool, Prior, WorkerPool};
use jury_service::{
    BatchOutcome, CacheStats, JuryService, MixedRequest, MixedResponse, MultiClassSelectionRequest,
    SelectionRequest, ServiceConfig,
};

use crate::gen;
use crate::harness::{Checked, Pass, Workload};
use crate::metrics::RunResult;
use crate::oracle;
use crate::rng::Rng;
use crate::trace::{SpanId, Tracer};

pub const NAME: &str = "batch-shared";
pub const BATCH: usize = 128;
pub const UNIVERSE: usize = 48;
/// Share of slots served on a pool never seen before.
pub const FRESH_SHARE: f64 = 0.25;
pub const BUDGETS: [f64; 4] = [3.0, 4.0, 5.0, 6.0];
pub const CLASSES: usize = 3;

#[derive(Debug, Clone)]
pub enum Pool {
    Binary(WorkerPool),
    MultiClass(MatrixPool),
}

/// Pool `u` of the universe: two binary pools (n = 10…14) for every
/// 3-class pool (n = 8…12).
fn pool(rng: &mut Rng, u: usize) -> Pool {
    if u % 3 == 2 {
        Pool::MultiClass(gen::matrix_pool(rng, 8 + u % 5, CLASSES))
    } else {
        Pool::Binary(gen::binary_pool(rng, 10 + u % 5))
    }
}

/// The popular pools, in popularity order.
pub fn universe(seed: u64) -> Vec<Pool> {
    (0..UNIVERSE)
        .map(|u| pool(&mut Rng::derive(seed, "batch-shared/universe", u as u64), u))
        .collect()
}

fn request(pool: &Pool, budget: f64) -> MixedRequest {
    match pool {
        Pool::Binary(pool) => SelectionRequest::new(pool.clone(), budget).into(),
        Pool::MultiClass(pool) => MultiClassSelectionRequest::new(pool.clone(), budget).into(),
    }
}

/// The requests of batch `index`: Zipf-popular universe pools, and fresh
/// pools in [`FRESH_SHARE`] of the slots.
pub fn input(universe: &[Pool], seed: u64, index: u64) -> Vec<MixedRequest> {
    let mut rng = Rng::derive(seed, NAME, index);
    let weights: Vec<f64> = (1..=universe.len()).map(|rank| 1.0 / rank as f64).collect();
    let total: f64 = weights.iter().sum();
    (0..BATCH)
        .map(|slot| {
            let budget = BUDGETS[rng.below(BUDGETS.len())];
            if rng.unit() < FRESH_SHARE {
                let fresh_index = index * BATCH as u64 + slot as u64;
                let mut fresh = Rng::derive(seed, "batch-shared/fresh", fresh_index);
                let u = fresh.below(UNIVERSE);
                return request(&pool(&mut fresh, u), budget);
            }
            let mut pick = rng.unit() * total;
            let u = weights
                .iter()
                .position(|&w| {
                    pick -= w;
                    pick < 0.0
                })
                .unwrap_or(universe.len() - 1);
            request(&universe[u], budget)
        })
        .collect()
}

pub fn describe(requests: &[MixedRequest]) -> String {
    requests
        .iter()
        .map(|request| match request {
            MixedRequest::Binary(r) => format!(
                "binary budget={} [{}]",
                r.budget(),
                gen::describe_binary(r.pool())
            ),
            MixedRequest::MultiClass(r) => {
                format!(
                    "{CLASSES}-class budget={} [{}]",
                    r.budget(),
                    gen::describe_matrix(r.pool())
                )
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

pub struct State {
    service: JuryService,
    universe: Vec<Pool>,
    /// Store counters when the timed operations start.
    baseline: CacheStats,
    /// Traced runs: Σ slot `elapsed`, slot count, Σ batch wall time.
    slot_s: f64,
    slots: u64,
    batch_s: f64,
}

pub struct BatchShared;

impl Workload for BatchShared {
    type State = State;
    type Input = Vec<MixedRequest>;
    type Output = BatchOutcome<MixedResponse>;

    const MIN_OPS: u64 = 32;
    const TRACE_OPS: u64 = 300;

    /// Builds the service and warms its store with every universe pool at
    /// the widest budget, untimed. The warm-up serves the pools one by one:
    /// it fills the same shared store as a batch would, and a single thread
    /// keeps the set-up time clear of the second core's scheduling.
    fn setup(&self, seed: u64) -> State {
        let service = JuryService::new(ServiceConfig::default());
        let universe = universe(seed);
        let widest = BUDGETS[BUDGETS.len() - 1];
        for pool in &universe {
            let warmed = match pool {
                Pool::Binary(pool) => service
                    .select(&SelectionRequest::new(pool.clone(), widest))
                    .map(drop),
                Pool::MultiClass(pool) => service
                    .select_multiclass(&MultiClassSelectionRequest::new(pool.clone(), widest))
                    .map(drop),
            };
            warmed.expect("warm-up requests are valid");
        }
        State {
            baseline: service.cache_stats(),
            service,
            universe,
            slot_s: 0.0,
            slots: 0,
            batch_s: 0.0,
        }
    }

    fn input(&self, state: &State, seed: u64, index: u64) -> Vec<MixedRequest> {
        input(&state.universe, seed, index)
    }

    fn serve(
        &self,
        state: &mut State,
        requests: &Vec<MixedRequest>,
        trace: Option<(&Tracer, SpanId)>,
    ) -> BatchOutcome<MixedResponse> {
        let Some((tracer, op)) = trace else {
            return state.service.select_mixed_batch_with_metrics(requests);
        };
        let span = tracer.begin("service.select_mixed_batch_with_metrics", op);
        let outcome = state.service.select_mixed_batch_with_metrics(requests);
        tracer.end(span);
        state.batch_s += tracer.seconds(span);
        for response in outcome.results.iter().flatten() {
            state.slot_s += match response {
                MixedResponse::Binary(r) => r.elapsed,
                MixedResponse::MultiClass(r) => r.elapsed,
            }
            .as_secs_f64();
            state.slots += 1;
        }
        outcome
    }

    fn check(
        &self,
        state: &State,
        requests: &Vec<MixedRequest>,
        outcome: &BatchOutcome<MixedResponse>,
        _replay: Option<&crate::workloads::Replay>,
    ) -> Checked {
        let mut checked = Checked::default();
        if outcome.results.len() != requests.len() {
            checked.fail(format!(
                "{} slots for {} requests",
                outcome.results.len(),
                requests.len()
            ));
            return checked;
        }
        let config = state.service.config();
        // Slots must come back in request order: each response is checked
        // against the request in its own slot, pool and budget included.
        for (slot, (request, result)) in requests.iter().zip(&outcome.results).enumerate() {
            let what = format!("slot {slot}");
            match (request, result) {
                (MixedRequest::Binary(r), Ok(MixedResponse::Binary(response))) => {
                    checked.merge(oracle::binary(
                        r.pool(),
                        r.budget(),
                        Prior::uniform(),
                        oracle::Reported {
                            ids: &response.worker_ids(),
                            cost: response.cost,
                            quality: response.quality,
                        },
                        config,
                        &what,
                    ))
                }
                (MixedRequest::MultiClass(r), Ok(MixedResponse::MultiClass(response))) => {
                    let prior = CategoricalPrior::uniform(CLASSES).expect("3 labels");
                    checked.merge(oracle::multiclass(
                        r.pool(),
                        r.budget(),
                        &prior,
                        oracle::Reported {
                            ids: &response.worker_ids(),
                            cost: response.cost,
                            quality: response.quality,
                        },
                        config,
                        &what,
                    ))
                }
                (_, Ok(_)) => checked.fail(format!("{what}: response of the other kind")),
                (_, Err(err)) => checked.fail(format!("{what}: {err}")),
            }
        }
        checked
    }

    fn layer_metrics(&self, state: &State, _tracer: &Tracer, _pass: &Pass, result: &mut RunResult) {
        cache_metrics(&state.baseline, &state.service.cache_stats(), result);
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        if state.slots > 0 {
            result.set(
                "service.batch.slot_ms_mean",
                state.slot_s * 1e3 / state.slots as f64,
            );
            result.set(
                "service.batch.parallel_efficiency",
                state.slot_s / (state.batch_s * threads as f64),
            );
        }
    }
}

/// The store metrics over a pass: per-kind hit ratios and evictions as
/// deltas from `before`, and the entries held at the end.
pub fn cache_metrics(before: &CacheStats, after: &CacheStats, result: &mut RunResult) {
    let ratio = |hits: u64, misses: u64| {
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    };
    result.set(
        "service.cache.hit_ratio.binary",
        ratio(
            after.binary.hits - before.binary.hits,
            after.binary.misses - before.binary.misses,
        ),
    );
    result.set(
        "service.cache.hit_ratio.multiclass",
        ratio(
            after.multiclass.hits - before.multiclass.hits,
            after.multiclass.misses - before.multiclass.misses,
        ),
    );
    result.set(
        "service.cache.evictions",
        (after.evictions - before.evictions) as f64,
    );
    result.set("service.cache.entries", after.entries as f64);
}
