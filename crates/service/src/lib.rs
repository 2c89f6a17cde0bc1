//! # jury-service
//!
//! The fallible, batch-first selection service API over the Jury Selection
//! Problem solvers of *"On Optimality of Jury Selection in Crowdsourcing"*
//! (EDBT 2015).
//!
//! The historical system layer exposed two near-duplicate structs (`Optjs` /
//! `Mvjs`) that solved one instance at a time and panicked on invalid
//! budgets. This crate replaces that surface with a request/response API
//! designed for serving:
//!
//! * [`SelectionRequest`] — a builder carrying pool + budget + prior +
//!   [`Strategy`] (`Bv`/`Mv`) + [`SolverPolicy`]
//!   (`Auto`/`Exact`/`Annealing`/`Greedy`) + optional per-request
//!   [`ServiceConfig`] overrides;
//! * [`MultiClassSelectionRequest`] — the Section 7 serving path: the same
//!   builder convention over a confusion-matrix
//!   [`jury_model::MatrixPool`], served by
//!   [`JuryService::select_multiclass`] through the same solver policies
//!   (exhaustive over the shadow projection, annealing, marginal greedy
//!   with `IncrementalMultiClassJq` sessions past the measured crossover);
//! * [`JuryService::select`] — returns `Result<SelectionResponse,
//!   ServiceError>`; **nothing on the request path panics**;
//! * [`JuryService::select_batch`] — data-parallel batch execution of
//!   binary, multi-class, or mixed requests ([`ServeRequest`]) across
//!   worker threads, through the same request core as the single calls,
//!   with per-request error reporting and one shared **sharded** JQ
//!   evaluation cache: the
//!   store is striped into [`ServiceConfig::cache_shards`] independently
//!   locked segments routed by quantized jury signature hash
//!   ([`jury_jq::signature`]) — binary entries under
//!   [`jury_jq::jury_signature`], multi-class entries under
//!   [`jury_jq::multiclass_signature`], disjoint by construction and
//!   accounted per kind and per shard in [`CacheStats`];
//! * **deadline-aware serving** — every request can carry a wall-clock
//!   deadline ([`SelectionRequest::with_deadline`]) or an evaluation cap;
//!   solvers poll a cheap [`SearchBudget`] token at cooperative checkpoints
//!   and stop early with the best feasible jury found so far, surfaced as
//!   [`ServiceError::DeadlineExceeded`] with an **anytime** `best_so_far`
//!   payload (and as a truncation flag on sweeps and repairs);
//! * **admission control** — [`ServiceConfig::max_in_flight`] bounds
//!   concurrent batch work behind a non-blocking gate; over the limit,
//!   [`OverloadPolicy::Shed`] rejects with [`ServiceError::Overloaded`]
//!   while [`OverloadPolicy::Coarsen`] downgrades the solver policy to
//!   greedy, with per-batch gate counters and per-shard store snapshots in
//!   [`BatchMetrics`] (returned with every [`JuryService::select_batch`]);
//! * [`JuryService::budget_quality_table`] and
//!   [`JuryService::multiclass_budget_quality_table`] — the Figure 1
//!   budget–quality sweep, routed by [`SweepPolicy`]: cold per-budget
//!   solves, a warm marginal sweep, or a warm **annealing** sweep that
//!   seeds each budget with the previous budget's jury;
//! * [`JuryService::drift_scan`] / [`JuryService::repair`] /
//!   [`JuryService::repair_batch`] — the **online serving loop** over
//!   `jury-stream`: answers fold into a streaming
//!   [`jury_stream::WorkerRegistry`], a [`jury_stream::DriftDetector`]
//!   re-scores handed-out juries against fresh snapshots through the shared
//!   JQ cache, and flagged juries are patched in place by the incremental
//!   swap search (`jury_selection::repair_jury`) under their original
//!   budget, with a cold re-solve fallback — outcomes come back as typed
//!   [`RepairOutcome`]s.
//!
//! Both paper systems are now *configurations* of one generic engine: the
//! solvers are generic over `jury_selection::JuryObjective`, and the service
//! provides a single cache-backed objective per strategy. The old
//! `jury_optjs::{Optjs, Mvjs}` types survive as thin facades delegating
//! here.
//!
//! ```
//! use jury_model::{paper_example_pool, Prior};
//! use jury_service::{JuryService, SelectionRequest, Strategy};
//!
//! let service = JuryService::paper_experiments();
//!
//! // The paper's running example: budget 15 selects {B, C, G} at 84.5 %.
//! let request = SelectionRequest::new(paper_example_pool(), 15.0)
//!     .with_prior(Prior::uniform());
//! let response = service.select(&request).unwrap();
//! assert!((response.quality - 0.845).abs() < 1e-9);
//!
//! // Invalid input is an error value, not a panic.
//! let bad = SelectionRequest::new(paper_example_pool(), -1.0);
//! assert!(service.select(&bad).is_err());
//!
//! // Batches run in parallel and share the JQ cache.
//! let batch = vec![request.clone(), bad, request];
//! let results = service.select_batch(&batch).results;
//! assert!(results[0].is_ok() && results[1].is_err() && results[2].is_ok());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod config;
pub mod error;
mod parallel;
pub mod repair;
pub mod request;
pub mod response;
pub mod service;

pub use cache::{CacheKindStats, CacheStats};
pub use config::{OverloadPolicy, ServiceConfig, SweepPolicy};
pub use error::ServiceError;
pub use jury_selection::SearchBudget;
pub use request::{
    MixedRequest, MultiClassSelectionRequest, SelectionRequest, SolverPolicy, Strategy,
};
pub use response::{
    BatchMetrics, BatchOutcome, MixedResponse, MultiClassSelectionResponse, RepairOutcome,
    RepairResponse, SelectionResponse,
};
pub use service::{JuryService, ServeRequest};

#[cfg(test)]
mod proptests {
    use super::*;
    use jury_model::{MatrixPool, WorkerId, WorkerPool};
    use proptest::prelude::{prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy};

    fn pool_strategy() -> impl Strategy<Value = WorkerPool> {
        proptest::collection::vec(((0.5f64..0.95), (0.05f64..1.0)), 1..9).prop_map(|pairs| {
            let (qualities, costs): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
            WorkerPool::from_qualities_and_costs(&qualities, &costs).unwrap()
        })
    }

    fn matrix_pool_strategy() -> impl Strategy<Value = MatrixPool> {
        proptest::collection::vec(((0.4f64..0.95), (0.05f64..1.0)), 1..7).prop_map(|pairs| {
            let (qualities, costs): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
            MatrixPool::from_qualities_and_costs(&qualities, &costs, 3).unwrap()
        })
    }

    /// What a served slot answered, bit for bit: its kind, jury, quality,
    /// evaluation count and solver.
    fn answer(response: &MixedResponse) -> (bool, Vec<WorkerId>, u64, u64, &'static str) {
        match response {
            MixedResponse::Binary(r) => (
                false,
                r.worker_ids(),
                r.quality.to_bits(),
                r.evaluations,
                r.solver,
            ),
            MixedResponse::MultiClass(r) => (
                true,
                r.worker_ids(),
                r.quality.to_bits(),
                r.evaluations,
                r.solver,
            ),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Batch threads are the service's only thread level: at 1, 2 and
        /// 4 of them, every slot of a mixed batch — binary `Auto`,
        /// `Annealing` and unbudgeted `Portfolio` requests next to
        /// multi-class ones — serves bit for bit the jury, quality,
        /// evaluation count and solver that single sequential calls on the
        /// same service served. The comparison runs against the same
        /// (warmed) store: two cold stores may memoize a jury's JQ from
        /// different evaluation orders, which differ in the last bits.
        #[test]
        fn parallel_solves_are_thread_count_invariant(
            pool in pool_strategy(),
            matrix_pool in matrix_pool_strategy(),
            budget in 0.2f64..3.0,
        ) {
            let mut batch: Vec<MixedRequest> = [
                SolverPolicy::Auto,
                SolverPolicy::Annealing,
                SolverPolicy::Portfolio(Vec::new()),
            ]
            .into_iter()
            .map(|policy| SelectionRequest::new(pool.clone(), budget).with_policy(policy).into())
            .collect();
            for policy in [SolverPolicy::Auto, SolverPolicy::Annealing] {
                batch.push(
                    MultiClassSelectionRequest::new(matrix_pool.clone(), budget)
                        .with_policy(policy)
                        .into(),
                );
            }

            for threads in [1usize, 2, 4] {
                let service =
                    JuryService::new(ServiceConfig::default().with_batch_threads(threads));
                let want: Vec<Result<MixedResponse, ServiceError>> = batch
                    .iter()
                    .map(|request| match request {
                        MixedRequest::Binary(request) =>
                            service.select(request).map(MixedResponse::Binary),
                        MixedRequest::MultiClass(request) =>
                            service.select_multiclass(request).map(MixedResponse::MultiClass),
                    })
                    .collect();
                let got = service.select_batch(&batch).results;
                prop_assert_eq!(got.len(), want.len());
                for (slot, (got, want)) in got.iter().zip(&want).enumerate() {
                    match (got, want) {
                        (Ok(got), Ok(want)) => prop_assert_eq!(answer(got), answer(want),
                            "threads {} slot {}: {:?} vs {:?}",
                            threads, slot, answer(got), answer(want)),
                        (Err(got), Err(want)) => prop_assert_eq!(
                            std::mem::discriminant(got), std::mem::discriminant(want),
                            "threads {} slot {}: {:?} vs {:?}", threads, slot, got, want),
                        (got, want) => prop_assert!(false,
                            "threads {} slot {}: {:?} vs {:?}", threads, slot, got, want),
                    }
                }
            }
        }
    }
}
