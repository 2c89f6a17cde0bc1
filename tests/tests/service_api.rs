//! Integration tests for the `jury-service` request/response API: the
//! paper-example round-trip through both `select` and `select_batch`, and
//! every documented error path — all reported as values, never as panics.

use jury_model::{paper_example_pool, Prior, WorkerId, WorkerPool};
use jury_service::{
    JuryService, SelectionRequest, ServiceConfig, ServiceError, SolverPolicy, Strategy,
};

fn service() -> JuryService {
    JuryService::paper_experiments()
}

#[test]
fn paper_example_round_trips_through_select_and_select_batch() {
    let service = service();
    let request = SelectionRequest::new(paper_example_pool(), 15.0)
        .with_prior(Prior::uniform())
        .with_strategy(Strategy::Bv);

    // Single call: the {B, C, G} jury at 84.5 % for 14 units.
    let single = service.select(&request).unwrap();
    assert_eq!(
        single.worker_ids(),
        vec![WorkerId(1), WorkerId(2), WorkerId(6)]
    );
    assert!((single.quality - 0.845).abs() < 1e-9);
    assert!((single.cost - 14.0).abs() < 1e-9);

    // Batch call: same answer in every slot.
    let batch: Vec<SelectionRequest> = (0..64).map(|_| request.clone()).collect();
    for response in service.select_batch(&batch).results {
        let response = response.unwrap();
        assert_eq!(
            response.worker_ids(),
            vec![WorkerId(1), WorkerId(2), WorkerId(6)]
        );
        assert!((response.quality - 0.845).abs() < 1e-9);
    }
}

#[test]
fn empty_pool_is_an_error() {
    let request = SelectionRequest::new(WorkerPool::new(), 10.0);
    assert_eq!(
        service().select(&request).unwrap_err(),
        ServiceError::EmptyPool
    );
}

#[test]
fn zero_and_negative_and_non_finite_budgets_are_errors() {
    let service = service();
    for bad in [
        0.0,
        -1.0,
        -0.001,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ] {
        let request = SelectionRequest::new(paper_example_pool(), bad);
        match service.select(&request) {
            Err(ServiceError::InvalidBudget { .. }) => {}
            other => panic!("budget {bad}: expected InvalidBudget, got {other:?}"),
        }
    }
}

#[test]
fn budget_below_the_cheapest_worker_is_an_error() {
    // The paper pool's cheapest worker (G) costs 2.
    let request = SelectionRequest::new(paper_example_pool(), 1.5);
    assert_eq!(
        service().select(&request).unwrap_err(),
        ServiceError::BudgetBelowCheapestWorker {
            budget: 1.5,
            cheapest: 2.0
        }
    );
    // ... unless the request opts into empty selections.
    let allowed = SelectionRequest::new(paper_example_pool(), 1.5).allow_empty_selection(true);
    let response = service().select(&allowed).unwrap();
    assert!(response.jury.is_empty());
    assert!((response.quality - 0.5).abs() < 1e-12);
}

#[test]
fn invalid_priors_are_errors() {
    let service = service();
    for bad in [-0.1, 1.5, f64::NAN] {
        let request = SelectionRequest::new(paper_example_pool(), 15.0).with_prior_alpha(bad);
        match service.select(&request) {
            Err(ServiceError::InvalidPrior { .. }) => {}
            other => panic!("prior {bad}: expected InvalidPrior, got {other:?}"),
        }
    }
}

#[test]
fn exact_policy_on_an_oversized_pool_is_an_error() {
    let pool = WorkerPool::from_qualities_and_costs(&[0.7; 30], &[0.1; 30]).unwrap();
    let request = SelectionRequest::new(pool.clone(), 2.0).with_policy(SolverPolicy::Exact);
    match service().select(&request) {
        Err(ServiceError::PoolTooLargeForExact { size: 30, .. }) => {}
        other => panic!("expected PoolTooLargeForExact, got {other:?}"),
    }
    // The same pool under Auto falls back to annealing and succeeds.
    let auto = SelectionRequest::new(pool, 2.0);
    assert!(service().select(&auto).is_ok());
}

#[test]
fn batch_reports_errors_per_request_without_aborting() {
    let service = service();
    let good = SelectionRequest::new(paper_example_pool(), 15.0);
    let batch = vec![
        good.clone(),
        SelectionRequest::new(WorkerPool::new(), 15.0), // empty pool
        good.clone(),
        SelectionRequest::new(paper_example_pool(), -3.0), // invalid budget
        SelectionRequest::new(paper_example_pool(), 15.0).with_prior_alpha(7.0), // bad prior
        good,
    ];
    let results = service.select_batch(&batch).results;
    assert_eq!(results.len(), 6);
    assert!(results[0].is_ok());
    assert_eq!(results[1], Err(ServiceError::EmptyPool));
    assert!(results[2].is_ok());
    assert_eq!(results[3], Err(ServiceError::InvalidBudget { value: -3.0 }));
    assert!(matches!(results[4], Err(ServiceError::InvalidPrior { value }) if value == 7.0));
    assert!(results[5].is_ok());
    // The successes are unaffected by their failing neighbours.
    for ok in [&results[0], &results[2], &results[5]] {
        let response = ok.as_ref().unwrap();
        assert!((response.quality - 0.845).abs() < 1e-9);
    }
}

#[test]
fn batch_results_preserve_request_order() {
    let service = service();
    let budgets = [5.0, 10.0, 15.0, 20.0, 5.0, 10.0, 15.0, 20.0];
    let batch: Vec<SelectionRequest> = budgets
        .iter()
        .map(|&b| SelectionRequest::new(paper_example_pool(), b))
        .collect();
    let results = service.select_batch(&batch).results;
    let expected = [0.75, 0.80, 0.845, 0.8695, 0.75, 0.80, 0.845, 0.8695];
    for (result, want) in results.iter().zip(expected.iter()) {
        let got = result.as_ref().unwrap().quality;
        assert!((got - want).abs() < 1e-9, "{got} vs {want}");
    }
}

#[test]
fn batch_shares_the_jq_cache_across_requests() {
    let service = JuryService::new(ServiceConfig::paper_experiments());
    let batch: Vec<SelectionRequest> = (0..32)
        .map(|_| SelectionRequest::new(paper_example_pool(), 15.0))
        .collect();
    let results = service.select_batch(&batch).results;
    assert!(results.iter().all(|r| r.is_ok()));
    let stats = service.cache_stats();
    assert!(stats.hits > 0, "expected shared-cache hits, got {stats:?}");
    assert!(
        stats.hit_rate() > 0.5,
        "batch of identical requests: {stats:?}"
    );
    // Later identical responses report their cache usage.
    assert!(results.last().unwrap().as_ref().unwrap().cache_hits > 0);
}

#[test]
fn strategies_and_policies_compose_with_the_error_path() {
    let service = service();
    // An MV-strategy request with an invalid budget still errors cleanly.
    let request = SelectionRequest::new(paper_example_pool(), f64::NAN)
        .with_strategy(Strategy::Mv)
        .with_policy(SolverPolicy::Greedy);
    assert!(matches!(
        service.select(&request),
        Err(ServiceError::InvalidBudget { .. })
    ));
    // And a valid MV greedy request succeeds with a feasible jury.
    let request = SelectionRequest::new(paper_example_pool(), 15.0)
        .with_strategy(Strategy::Mv)
        .with_policy(SolverPolicy::Greedy);
    let response = service.select(&request).unwrap();
    assert!(response.cost <= 15.0 + 1e-9);
    assert_eq!(response.strategy, Strategy::Mv);
}

#[test]
fn budget_quality_table_propagates_invalid_budgets() {
    let service = service();
    let err = service
        .budget_quality_table(&paper_example_pool(), &[5.0, f64::NAN], Prior::uniform())
        .unwrap_err();
    assert!(matches!(err, ServiceError::InvalidBudget { .. }));
}
