//! Admission control under pressure: a bounded in-flight gate with more
//! batch threads than slots must shed (typed `Overloaded`, never a hang)
//! or coarsen (serve everything at the greedy floor) — with gate counters
//! that always account for every slot exactly once.

use jury_model::{MatrixPool, Prior, WorkerPool};
use jury_service::{
    JuryService, MixedRequest, OverloadPolicy, SelectionRequest, ServiceConfig, ServiceError,
    SolverPolicy,
};

/// A 30-worker pool past the exact cutoff: every request pays a real
/// annealing search, long enough that 4 batch threads genuinely overlap.
fn annealing_pool() -> WorkerPool {
    let qualities: Vec<f64> = (0..30).map(|w| 0.55 + 0.012 * (w as f64)).collect();
    let costs: Vec<f64> = (0..30).map(|w| 1.0 + ((w * 7) % 5) as f64).collect();
    WorkerPool::from_qualities_and_costs(&qualities, &costs).unwrap()
}

fn annealing_request() -> SelectionRequest {
    SelectionRequest::new(annealing_pool(), 12.0).with_prior(Prior::uniform())
}

fn gated_config(overload: OverloadPolicy) -> ServiceConfig {
    ServiceConfig::fast()
        .with_max_in_flight(1)
        .with_overload_policy(overload)
        .with_batch_threads(4)
}

#[test]
fn shed_rejects_over_capacity_slots_with_a_typed_error() {
    let service = JuryService::new(gated_config(OverloadPolicy::Shed));
    let batch: Vec<SelectionRequest> = (0..16).map(|_| annealing_request()).collect();

    // This call returning at all is the first assertion: the gate is
    // non-blocking, so a full queue can never hang the batch.
    let outcome = service.select_batch(&batch);
    assert_eq!(outcome.results.len(), batch.len());

    let mut served = 0;
    for slot in &outcome.results {
        match slot {
            Ok(response) => {
                served += 1;
                assert!(response.jury_size() > 0);
            }
            Err(ServiceError::Overloaded {
                in_flight,
                max_in_flight,
            }) => {
                assert_eq!(*max_in_flight, 1);
                assert!(*in_flight > *max_in_flight);
            }
            Err(other) => panic!("unexpected error under shed: {other}"),
        }
    }
    // Every slot is accounted for exactly once, and the gate let at least
    // one request through (the slot holder always serves).
    assert_eq!(served, outcome.metrics.admitted);
    assert_eq!(outcome.metrics.admitted + outcome.metrics.shed, batch.len());
    assert!(outcome.metrics.admitted >= 1);
    assert_eq!(outcome.metrics.coarsened, 0);
    // 4 threads against a limit of 1: sheds happen iff the peak exceeded
    // the limit, and the counters must agree about it.
    assert_eq!(outcome.metrics.shed > 0, outcome.metrics.peak_in_flight > 1);
}

#[test]
fn coarsen_serves_every_slot_at_no_worse_than_the_greedy_floor() {
    // The floor: what a full greedy dispatch earns on this instance.
    let floor = JuryService::new(ServiceConfig::fast())
        .select(&annealing_request().with_policy(SolverPolicy::Greedy))
        .unwrap();

    let service = JuryService::new(gated_config(OverloadPolicy::Coarsen));
    let batch: Vec<SelectionRequest> = (0..16).map(|_| annealing_request()).collect();
    let outcome = service.select_batch(&batch);

    // Coarsening never sheds: every slot is served.
    let mut downgraded = 0;
    for slot in &outcome.results {
        let response = slot.as_ref().unwrap();
        if response.policy == SolverPolicy::Greedy {
            // A coarsened slot reports the downgraded policy and earns
            // exactly the greedy floor.
            downgraded += 1;
            assert!(
                response.quality >= floor.quality - 1e-9,
                "coarsened slot at {} fell below the greedy floor {}",
                response.quality,
                floor.quality
            );
        }
        assert!(response.jury_size() > 0);
        assert!(response.cost <= 12.0 + 1e-9);
    }
    assert_eq!(
        outcome.metrics.admitted + outcome.metrics.coarsened,
        batch.len()
    );
    assert_eq!(outcome.metrics.shed, 0);
    assert_eq!(downgraded, outcome.metrics.coarsened);
}

#[test]
fn the_gate_is_off_by_default_and_singletons_always_fit() {
    // Default config: no limit, nothing shed, the peak is never tracked.
    let service = JuryService::new(ServiceConfig::fast());
    let outcome = service.select_batch(&[annealing_request(), annealing_request()]);
    assert!(outcome.results.iter().all(Result::is_ok));
    assert_eq!(outcome.metrics.admitted, 2);
    assert_eq!(outcome.metrics.peak_in_flight, 0);
    assert_eq!(outcome.metrics.shards.len(), service.num_cache_shards());

    // A batch of one can never exceed a limit of one, whatever the policy.
    let gated = JuryService::new(gated_config(OverloadPolicy::Shed));
    let outcome = gated.select_batch(&[annealing_request()]);
    assert!(outcome.results[0].is_ok());
    assert_eq!(outcome.metrics.admitted, 1);
    assert_eq!(outcome.metrics.shed, 0);
}

#[test]
fn mixed_batches_pass_the_same_gate_regardless_of_kind() {
    let service = JuryService::new(gated_config(OverloadPolicy::Shed));
    let matrix_pool = MatrixPool::from_qualities_and_costs(
        &[0.9, 0.8, 0.7, 0.65, 0.6, 0.55],
        &[2.0, 2.0, 1.0, 1.0, 1.0, 1.0],
        3,
    )
    .unwrap();
    let batch: Vec<MixedRequest> = (0..12)
        .map(|slot| -> MixedRequest {
            if slot % 2 == 0 {
                annealing_request().into()
            } else {
                jury_service::MultiClassSelectionRequest::new(matrix_pool.clone(), 4.0).into()
            }
        })
        .collect();

    let outcome = service.select_mixed_batch_with_metrics(&batch);
    assert_eq!(outcome.results.len(), batch.len());
    for (slot, result) in outcome.results.iter().enumerate() {
        match result {
            // A served slot keeps its kind.
            Ok(response) => assert_eq!(slot % 2 == 0, response.as_binary().is_some()),
            Err(ServiceError::Overloaded { .. }) => {}
            Err(other) => panic!("unexpected error under shed: {other}"),
        }
    }
    assert_eq!(outcome.metrics.admitted + outcome.metrics.shed, batch.len());
    assert!(outcome.metrics.admitted >= 1);
}

#[test]
fn shard_snapshots_in_metrics_reflect_the_configured_store() {
    let service = JuryService::new(ServiceConfig::fast().with_cache_shards(3));
    assert_eq!(service.num_cache_shards(), 3);
    let outcome = service.select_batch(&[annealing_request()]);
    assert_eq!(outcome.metrics.shards.len(), 3);
    // The batch populated the store: the shard counters saw the traffic.
    let total_misses: u64 = outcome.metrics.shards.iter().map(|s| s.misses).sum();
    assert!(total_misses > 0);
    assert_eq!(service.cache_stats().misses, total_misses);
}
