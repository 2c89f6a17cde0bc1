//! Deadline-aware serving: the cooperative-cancellation contract end to
//! end. A generous deadline changes nothing (bit-identical juries); an
//! impossible deadline returns `DeadlineExceeded` carrying a feasible
//! anytime jury; a deadline on one batch slot cancels only that slot; and
//! a repair cut short by its deadline never commits a jury worse than the
//! pre-repair state.

use std::time::Duration;

use jury_model::{Answer, Prior, TaskId, WorkerId, WorkerPool};
use jury_service::{
    JuryService, MixedResponse, SelectionRequest, ServiceConfig, ServiceError, SolverPolicy,
};
use jury_stream::{AnswerEvent, DriftDetector, RegistryConfig, WorkerRegistry};

/// A 30-worker pool past every exact cutoff, with enough quality and cost
/// spread that the annealing search has real structure to explore.
fn annealing_pool() -> WorkerPool {
    let qualities: Vec<f64> = (0..30).map(|w| 0.55 + 0.012 * (w as f64)).collect();
    let costs: Vec<f64> = (0..30).map(|w| 1.0 + ((w * 7) % 5) as f64).collect();
    WorkerPool::from_qualities_and_costs(&qualities, &costs).unwrap()
}

fn annealing_request() -> SelectionRequest {
    SelectionRequest::new(annealing_pool(), 12.0).with_prior(Prior::uniform())
}

#[test]
fn generous_deadline_matches_the_unbudgeted_solve_exactly() {
    // Fresh services so the two runs cannot share cache state.
    let plain = JuryService::new(ServiceConfig::fast())
        .select(&annealing_request())
        .unwrap();
    let budgeted = JuryService::new(ServiceConfig::fast())
        .select(&annealing_request().with_deadline(Duration::from_secs(3600)))
        .unwrap();

    // An unexhausted budget must not perturb the search at all: same jury,
    // same quality, same solver, same evaluation count.
    assert_eq!(plain.worker_ids(), budgeted.worker_ids());
    assert!((plain.quality - budgeted.quality).abs() < 1e-9);
    assert!((plain.cost - budgeted.cost).abs() < 1e-9);
    assert_eq!(plain.solver, budgeted.solver);
    assert_eq!(plain.evaluations, budgeted.evaluations);
}

#[test]
fn zero_deadline_returns_a_feasible_anytime_jury() {
    let full = JuryService::new(ServiceConfig::fast())
        .select(&annealing_request())
        .unwrap();

    let err = JuryService::new(ServiceConfig::fast())
        .select(&annealing_request().with_deadline(Duration::ZERO))
        .unwrap_err();
    let ServiceError::DeadlineExceeded {
        best_so_far: Some(best),
    } = err
    else {
        panic!("expected DeadlineExceeded with a partial result, got {err}");
    };
    let MixedResponse::Binary(partial) = *best else {
        panic!("binary request must yield a binary partial result");
    };

    // The anytime jury is a valid selection: non-empty, budget-respecting,
    // with a sane quality — found with far less work than the full solve.
    assert!(partial.jury_size() > 0);
    assert!(partial.cost <= 12.0 + 1e-9);
    assert!(partial.quality > 0.0 && partial.quality <= 1.0);
    assert!(
        partial.evaluations < full.evaluations / 2,
        "truncated search spent {} evaluations, full solve {}",
        partial.evaluations,
        full.evaluations
    );
    // The full search can only do better (or tie) from the same seed.
    assert!(full.quality >= partial.quality - 1e-9);
}

#[test]
fn evaluation_cap_truncates_without_a_clock() {
    // A tiny evaluation cap trips the same anytime path deterministically —
    // no wall clock involved, so this cannot flake on slow machines.
    let err = JuryService::new(ServiceConfig::fast())
        .select(&annealing_request().with_evaluation_limit(3))
        .unwrap_err();
    let ServiceError::DeadlineExceeded {
        best_so_far: Some(best),
    } = err
    else {
        panic!("expected DeadlineExceeded with a partial result, got {err}");
    };
    let partial = best.as_binary().expect("binary partial").clone();
    assert!(partial.jury_size() > 0);
    assert!(partial.cost <= 12.0 + 1e-9);
}

#[test]
fn mid_batch_deadline_cancels_only_the_slow_slot() {
    let service = JuryService::new(ServiceConfig::fast());
    let batch = vec![
        annealing_request(),
        annealing_request().with_deadline(Duration::ZERO),
        annealing_request(),
    ];
    let results = service.select_batch(&batch).results;
    assert_eq!(results.len(), 3);

    // The deadline is anchored at each request's own serve start, so the
    // impossible slot fails alone and its peers finish untouched.
    let reference = JuryService::new(ServiceConfig::fast())
        .select(&annealing_request())
        .unwrap();
    for index in [0, 2] {
        let response = results[index].as_ref().unwrap();
        assert_eq!(response.worker_ids(), reference.worker_ids());
        assert!((response.quality - reference.quality).abs() < 1e-9);
    }
    assert!(matches!(
        results[1],
        Err(ServiceError::DeadlineExceeded {
            best_so_far: Some(_)
        })
    ));
}

/// Six unit-cost workers at two close quality tiers, pinned with 100
/// pseudo-observations — the same shape the service crate's repair tests
/// use: no single worker dominates a three-member Bayesian vote, so a
/// degraded member genuinely costs JQ.
fn seeded_registry() -> WorkerRegistry {
    let mut registry = WorkerRegistry::new(RegistryConfig::default()).unwrap();
    for (w, quality) in [0.8, 0.8, 0.8, 0.75, 0.75, 0.75].into_iter().enumerate() {
        registry
            .register_with_quality(WorkerId(w as u32), quality, 100.0, 1.0)
            .unwrap();
    }
    registry
}

/// Selects under budget 3, tracks the jury, then drags worker 1 (always a
/// member at this budget) to the useless 0.5 point with 60 wrong golden
/// answers. Returns the tracked id.
fn tracked_and_degraded(
    service: &JuryService,
    registry: &mut WorkerRegistry,
    detector: &mut DriftDetector,
) -> jury_stream::SelectionId {
    let snapshot = registry.snapshot_pool().unwrap();
    let response = service
        .select(&SelectionRequest::new(snapshot, 3.0).with_prior(Prior::uniform()))
        .unwrap();
    let id = detector.track(
        response.jury.ids(),
        3.0,
        Prior::uniform(),
        response.quality,
        registry.epoch(),
    );
    assert!(detector.get(id).unwrap().members().contains(&WorkerId(1)));
    for t in 0..60 {
        registry
            .observe(AnswerEvent::golden(
                WorkerId(1),
                TaskId(t),
                Answer::No,
                Answer::Yes,
            ))
            .unwrap();
    }
    id
}

#[test]
fn repair_under_a_zero_deadline_never_commits_a_worse_jury() {
    let service = JuryService::new(ServiceConfig::fast());
    let mut registry = seeded_registry();
    let mut detector = DriftDetector::new(0.02);
    let id = tracked_and_degraded(&service, &mut registry, &mut detector);

    // What the degraded jury is worth before any repair runs.
    let snapshot = registry.snapshot_pool().unwrap();
    let before = service
        .rescore(
            &snapshot,
            detector.get(id).unwrap().members(),
            Prior::uniform(),
        )
        .unwrap();

    // An impossible deadline is NOT an error for repair: the swap search
    // only commits improving moves, so whatever it holds is still valid.
    let truncated = service
        .repair_with_deadline(&registry, &mut detector, id, Duration::ZERO)
        .unwrap();
    assert!(truncated.truncated);
    assert!(
        truncated.quality >= before - 1e-9,
        "truncated repair committed {} below the pre-repair quality {}",
        truncated.quality,
        before
    );
    assert!(truncated.cost <= 3.0 + 1e-9);
    // A truncated no-op does not rebaseline: the drift stays flagged, so a
    // later repair with room to work can still fix the jury.
    assert!(!truncated.changed());
    let tracked = detector.get(id).unwrap();
    assert_eq!(tracked.members(), truncated.jury.ids());
    assert!(tracked.baseline_quality() > before + 0.02);

    // A follow-up repair with room to work finishes the job and can only
    // improve on the anytime commit.
    let full = service.repair(&registry, &mut detector, id).unwrap();
    assert!(!full.truncated);
    assert!(full.quality >= truncated.quality - 1e-9);
    assert!(!full.jury.contains(WorkerId(1)));
}

#[test]
fn generous_repair_deadline_matches_the_undeadlined_repair() {
    // Two identical worlds: one repairs with an hour of headroom, the other
    // with no deadline at all. The outcomes must agree exactly.
    let run = |deadline: Option<Duration>| {
        let service = JuryService::new(ServiceConfig::fast());
        let mut registry = seeded_registry();
        let mut detector = DriftDetector::new(0.02);
        let id = tracked_and_degraded(&service, &mut registry, &mut detector);
        match deadline {
            Some(d) => service
                .repair_with_deadline(&registry, &mut detector, id, d)
                .unwrap(),
            None => service.repair(&registry, &mut detector, id).unwrap(),
        }
    };
    let plain = run(None);
    let generous = run(Some(Duration::from_secs(3600)));
    assert_eq!(plain.worker_ids(), generous.worker_ids());
    assert!((plain.quality - generous.quality).abs() < 1e-9);
    assert_eq!(plain.outcome, generous.outcome);
    assert!(!generous.truncated);
}

#[test]
fn explicit_policies_respect_deadlines_too() {
    // The greedy marginal search polls the same budget token as annealing.
    let err = JuryService::new(ServiceConfig::fast())
        .select(
            &annealing_request()
                .with_policy(SolverPolicy::Greedy)
                .with_deadline(Duration::ZERO),
        )
        .unwrap_err();
    assert!(matches!(err, ServiceError::DeadlineExceeded { .. }));

    let ok = JuryService::new(ServiceConfig::fast())
        .select(
            &annealing_request()
                .with_policy(SolverPolicy::Greedy)
                .with_deadline(Duration::from_secs(3600)),
        )
        .unwrap();
    assert!(ok.jury_size() > 0);
}
