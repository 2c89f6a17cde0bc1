//! The online serving loop's repair endpoints: re-score handed-out juries
//! against fresh streaming estimates, scan the drift ledger, and patch the
//! juries that drifted.
//!
//! The flow closes the loop the one-shot paper pipeline leaves open:
//!
//! 1. answers stream into a [`jury_stream::WorkerRegistry`], moving the
//!    worker estimates;
//! 2. [`JuryService::drift_scan`] re-scores every selection tracked by a
//!    [`jury_stream::DriftDetector`] against a fresh registry snapshot,
//!    through the service's shared signature-keyed JQ cache (so scanning
//!    many juries over one snapshot shares evaluations);
//! 3. [`JuryService::repair`] patches a flagged jury in place with the
//!    incremental swap search (`jury_selection::repair_jury`) under the
//!    selection's original budget, falling back to a cold re-solve only
//!    when the greedy patch stays stuck below the drift threshold — and
//!    commits the result back to the detector ledger as the new baseline.

use std::time::{Duration, Instant};

use jury_model::{Jury, Prior, WorkerId, WorkerPool};
use jury_selection::{repair_jury, JspInstance, JuryObjective, RepairConfig, SearchBudget};
use jury_stream::{DriftDetector, DriftReport, SelectionId, WorkerRegistry};

use crate::cache::CachedObjective;
use crate::error::ServiceError;
use crate::request::{SolverPolicy, Strategy};
use crate::response::{RepairOutcome, RepairResponse};
use crate::service::JuryService;

/// Margin by which a cold re-solve must beat the patched jury before the
/// repair abandons the patch for the re-solved jury (mirrors the repair
/// search's own probe tolerance).
const RESOLVE_MARGIN: f64 = 1e-9;

impl JuryService {
    /// Scores a jury drawn from `pool` by member ids under the service's
    /// `JQ(BV)` engine and shared cache — the primitive behind drift scans.
    ///
    /// # Errors
    ///
    /// Any id missing from the pool surfaces as
    /// [`ServiceError::Model`] (`UnknownWorker`).
    pub fn rescore(
        &self,
        pool: &WorkerPool,
        members: &[WorkerId],
        prior: Prior,
    ) -> Result<f64, ServiceError> {
        let jury = Jury::from_pool(pool, members)?;
        let objective =
            CachedObjective::new(self.config().jq_engine(), Strategy::Bv, self.jq_cache());
        Ok(objective.evaluate(&jury, prior))
    }

    /// Re-scores every selection tracked by `detector` against a fresh
    /// snapshot of `registry` and reports each against the detector's drift
    /// threshold, in ledger order. Selections whose members are gone from
    /// the registry come back [`jury_stream::DriftStatus::Stale`]; the
    /// ledger itself is not mutated (repairs commit new baselines).
    ///
    /// The scan is **incremental**: a selection none of whose members'
    /// posteriors changed since its baseline epoch
    /// ([`WorkerRegistry::last_update_epoch`]) is reported at its baseline
    /// quality without a JQ evaluation — exact, not an approximation, since
    /// scoring is deterministic in the member posteriors. The selections
    /// that do need scoring all score against the *same* snapshot through
    /// the shared JQ cache, so overlapping juries share evaluations.
    pub fn drift_scan(
        &self,
        registry: &WorkerRegistry,
        detector: &DriftDetector,
    ) -> Result<Vec<DriftReport>, ServiceError> {
        if registry.is_empty() {
            // No snapshot to score against: every tracked jury is stale.
            return Ok(detector.scan_with(|_, _| None));
        }
        let snapshot = registry.snapshot_pool()?;
        let objective =
            CachedObjective::new(self.config().jq_engine(), Strategy::Bv, self.jq_cache());
        Ok(detector.scan_with(|_, selection| {
            // A member missing from the registry must fall through to the
            // scoring path so the report comes back `Stale`, not skipped.
            let unchanged = selection.members().iter().all(|&id| {
                matches!(registry.last_update_epoch(id),
                    Some(updated) if updated <= selection.epoch())
            });
            if unchanged {
                return Some(selection.baseline_quality());
            }
            let jury = Jury::from_pool(&snapshot, selection.members()).ok()?;
            Some(objective.evaluate(&jury, selection.prior()))
        }))
    }

    /// Repairs one tracked selection against fresh registry estimates and
    /// commits the outcome back to the detector ledger as the selection's
    /// new baseline (members, quality, and registry epoch).
    ///
    /// The repair keeps the selection's original budget and prior. When the
    /// fresh quality is still within the detector's threshold of the
    /// baseline the jury is left alone ([`RepairOutcome::Unchanged`]);
    /// otherwise the incremental swap search patches it in place
    /// ([`RepairOutcome::Patched`]), and only when the patch stays stuck
    /// below the threshold is the instance re-solved cold — the re-solve is
    /// kept only if it strictly beats the patch
    /// ([`RepairOutcome::Resolved`]).
    ///
    /// # Errors
    ///
    /// [`ServiceError::UntrackedJury`] when `id` is not in the ledger;
    /// [`ServiceError::StaleJury`] when a member has disappeared from the
    /// registry since the jury was handed out.
    pub fn repair(
        &self,
        registry: &WorkerRegistry,
        detector: &mut DriftDetector,
        id: SelectionId,
    ) -> Result<RepairResponse, ServiceError> {
        let response = self.compute_repair(registry, detector, id, SearchBudget::unlimited())?;
        detector.rebaseline(id, response.jury.ids(), response.quality, response.epoch);
        Ok(response)
    }

    /// [`Self::repair`] under a wall-clock deadline, polled between repair
    /// rounds and inside the cold re-solve fallback.
    ///
    /// A repair that runs out of time is **not** an error: the swap search
    /// only ever commits improving moves, so whatever it holds when the
    /// deadline fires is a valid jury no worse than the pre-repair state.
    /// That anytime patch is committed to the ledger exactly like a full
    /// repair, with [`RepairResponse::truncated`] set so the caller knows
    /// further improvements may remain.
    ///
    /// One exception keeps retries meaningful: a truncated repair that
    /// changed **nothing** does not touch the ledger. Rebaselining a no-op
    /// to the degraded quality would absorb the drift and make every later
    /// [`Self::repair`] see a steady jury — the deadline would silently
    /// cancel the repair forever instead of postponing it.
    pub fn repair_with_deadline(
        &self,
        registry: &WorkerRegistry,
        detector: &mut DriftDetector,
        id: SelectionId,
        deadline: Duration,
    ) -> Result<RepairResponse, ServiceError> {
        let budget = SearchBudget::unlimited().with_deadline_in(deadline);
        let response = self.compute_repair(registry, detector, id, budget)?;
        if response.changed() || !response.truncated {
            detector.rebaseline(id, response.jury.ids(), response.quality, response.epoch);
        }
        Ok(response)
    }

    /// Repairs many tracked selections in one call: the repair computations
    /// run data-parallel on the batch engine (they only read the ledger),
    /// then the new baselines are committed sequentially. Failures are
    /// per-selection, in input order, exactly like
    /// [`select_batch`](Self::select_batch).
    pub fn repair_batch(
        &self,
        registry: &WorkerRegistry,
        detector: &mut DriftDetector,
        ids: &[SelectionId],
    ) -> Vec<Result<RepairResponse, ServiceError>> {
        let computed = {
            let detector: &DriftDetector = detector;
            self.run_batch(ids, |&id| {
                self.compute_repair(registry, detector, id, SearchBudget::unlimited())
            })
        };
        for response in computed.iter().flatten() {
            detector.rebaseline(
                response.id,
                response.jury.ids(),
                response.quality,
                response.epoch,
            );
        }
        computed
    }

    /// The immutable repair computation shared by [`Self::repair`] and
    /// [`Self::repair_batch`] — everything except the ledger commit.
    fn compute_repair(
        &self,
        registry: &WorkerRegistry,
        detector: &DriftDetector,
        id: SelectionId,
        search_budget: SearchBudget,
    ) -> Result<RepairResponse, ServiceError> {
        let started = Instant::now();
        let tracked = detector
            .get(id)
            .ok_or(ServiceError::UntrackedJury { id: id.raw() })?;
        if registry.is_empty() {
            return Err(ServiceError::StaleJury {
                id: id.raw(),
                reason: "the registry has no workers to snapshot".into(),
            });
        }
        let snapshot = registry.snapshot_pool()?;
        let jury = Jury::from_pool(&snapshot, tracked.members()).map_err(|err| {
            ServiceError::StaleJury {
                id: id.raw(),
                reason: err.to_string(),
            }
        })?;
        let epoch = registry.epoch();
        let objective =
            CachedObjective::new(self.config().jq_engine(), Strategy::Bv, self.jq_cache());
        let fresh = objective.evaluate(&jury, tracked.prior());
        let baseline = tracked.baseline_quality();
        if (fresh - baseline).abs() <= detector.threshold() {
            return Ok(RepairResponse {
                id,
                outcome: RepairOutcome::Unchanged,
                quality: fresh,
                previous_baseline: baseline,
                cost: jury.cost(),
                jury,
                epoch,
                evaluations: objective.evaluations(),
                cache_hits: objective.local_hits(),
                truncated: false,
                elapsed: started.elapsed(),
            });
        }

        let instance = JspInstance::new(snapshot, tracked.budget(), tracked.prior())?;
        let patched = repair_jury(
            &objective,
            &instance,
            tracked.members(),
            RepairConfig::default().with_budget(search_budget),
        )?;
        let mut truncated = patched.truncated;
        let mut best_jury = patched.jury;
        let mut best_quality = patched.objective_value;
        let mut outcome = if patched.swaps + patched.pushes > 0 {
            RepairOutcome::Patched {
                swaps: patched.swaps,
                pushes: patched.pushes,
            }
        } else {
            RepairOutcome::Unchanged
        };
        // The greedy patch can land in a local optimum while the jury is
        // still degraded past the threshold; only then pay for a cold
        // re-solve, and only keep it when it genuinely beats the patch.
        // A truncated patch skips the fallback: the deadline already fired,
        // and the anytime contract hands back the patch as-is.
        if !truncated && baseline - best_quality > detector.threshold() {
            let resolved = self.dispatch_solver(
                &instance,
                &objective,
                &SolverPolicy::Auto,
                false,
                self.config(),
                search_budget,
            )?;
            truncated = resolved.truncated;
            if resolved.objective_value > best_quality + RESOLVE_MARGIN {
                best_jury = resolved.jury;
                best_quality = resolved.objective_value;
                outcome = RepairOutcome::Resolved;
            }
        }
        Ok(RepairResponse {
            id,
            outcome,
            quality: best_quality,
            previous_baseline: baseline,
            cost: best_jury.cost(),
            jury: best_jury,
            epoch,
            evaluations: objective.evaluations(),
            cache_hits: objective.local_hits(),
            truncated,
            elapsed: started.elapsed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jury_model::{Answer, TaskId};
    use jury_stream::{AnswerEvent, DriftStatus, RegistryConfig};

    use crate::config::ServiceConfig;
    use crate::request::SelectionRequest;

    /// A registry of six unit-cost workers warm-started at two quality
    /// tiers, pinned with 100 pseudo-observations each. The tiers are close
    /// enough that no single worker's log-odds weight dominates a
    /// three-member Bayesian vote — a degraded member genuinely costs JQ,
    /// so a swap genuinely recovers it.
    fn seeded_registry() -> WorkerRegistry {
        let mut registry = WorkerRegistry::new(RegistryConfig::default()).unwrap();
        for (w, quality) in [0.8, 0.8, 0.8, 0.75, 0.75, 0.75].into_iter().enumerate() {
            registry
                .register_with_quality(WorkerId(w as u32), quality, 100.0, 1.0)
                .unwrap();
        }
        registry
    }

    /// Selects under budget 3 on the registry snapshot and tracks the jury.
    fn select_and_track(
        service: &JuryService,
        registry: &WorkerRegistry,
        detector: &mut DriftDetector,
    ) -> SelectionId {
        let snapshot = registry.snapshot_pool().unwrap();
        let response = service
            .select(&SelectionRequest::new(snapshot, 3.0).with_prior(Prior::uniform()))
            .unwrap();
        detector.track(
            response.jury.ids(),
            3.0,
            Prior::uniform(),
            response.quality,
            registry.epoch(),
        )
    }

    /// Feeds `count` wrong golden answers, dragging the worker's estimate
    /// down. Note that under Bayesian voting a worker far *below* 0.5 is
    /// still informative (the vote is flipped), so tests degrade toward
    /// 0.5 — the genuinely useless point: the seeded worker 1 holds Beta
    /// counts (81, 21), so 60 wrong answers land it at exactly 0.5.
    fn degrade(registry: &mut WorkerRegistry, worker: WorkerId, count: u64) {
        for t in 0..count {
            registry
                .observe(AnswerEvent::golden(
                    worker,
                    TaskId(t),
                    Answer::No,
                    Answer::Yes,
                ))
                .unwrap();
        }
    }

    #[test]
    fn rescore_matches_the_select_quality() {
        let service = JuryService::new(ServiceConfig::fast());
        let registry = seeded_registry();
        let snapshot = registry.snapshot_pool().unwrap();
        let response = service
            .select(&SelectionRequest::new(snapshot.clone(), 3.0).with_prior(Prior::uniform()))
            .unwrap();
        let rescored = service
            .rescore(&snapshot, &response.jury.ids(), Prior::uniform())
            .unwrap();
        assert!((rescored - response.quality).abs() < 1e-12);
        // Unknown members are a typed model error.
        let err = service
            .rescore(&snapshot, &[WorkerId(42)], Prior::uniform())
            .unwrap_err();
        assert!(matches!(err, ServiceError::Model(_)));
    }

    #[test]
    fn drift_scan_is_steady_until_estimates_move() {
        let service = JuryService::new(ServiceConfig::fast());
        let mut registry = seeded_registry();
        let mut detector = DriftDetector::new(0.02);
        let id = select_and_track(&service, &registry, &mut detector);

        let reports = service.drift_scan(&registry, &detector).unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].status, DriftStatus::Steady);

        degrade(&mut registry, WorkerId(1), 60);
        let reports = service.drift_scan(&registry, &detector).unwrap();
        assert_eq!(reports[0].id, id);
        assert_eq!(reports[0].status, DriftStatus::Drifted);
        assert!(reports[0].drift < -0.02);
    }

    #[test]
    fn drift_scan_skips_selections_whose_members_did_not_move() {
        let service = JuryService::new(ServiceConfig::fast());
        let mut registry = seeded_registry();
        let mut detector = DriftDetector::new(0.02);
        let id = select_and_track(&service, &registry, &mut detector);
        let members = detector.get(id).unwrap().members().to_vec();
        let baseline = detector.get(id).unwrap().baseline_quality();

        // Degrade a worker *outside* the jury: the registry's global epoch
        // moves, the members' own posteriors do not.
        let outside = (0..6)
            .map(WorkerId)
            .find(|w| !members.contains(w))
            .expect("budget 3 of 6 workers leaves someone out");
        degrade(&mut registry, outside, 10);
        assert!(registry.epoch() > detector.get(id).unwrap().epoch());

        let before = service.cache_stats();
        let reports = service.drift_scan(&registry, &detector).unwrap();
        let after = service.cache_stats();
        assert_eq!(reports[0].status, DriftStatus::Steady);
        assert_eq!(reports[0].fresh, Some(baseline), "baseline verbatim");
        assert_eq!(reports[0].drift, 0.0);
        // The skip is free: no JQ evaluation, not even a cache lookup.
        assert_eq!(
            after.hits + after.misses,
            before.hits + before.misses,
            "an epoch-skipped selection must not touch the JQ store"
        );

        // Once a member itself moves, the scan re-scores for real.
        degrade(&mut registry, members[0], 60);
        let reports = service.drift_scan(&registry, &detector).unwrap();
        assert_eq!(reports[0].status, DriftStatus::Drifted);
        let rescanned = service.cache_stats();
        assert!(
            rescanned.hits + rescanned.misses > after.hits + after.misses,
            "a moved member must force a real evaluation"
        );
    }

    #[test]
    fn drift_scan_marks_vanished_members_stale() {
        let service = JuryService::new(ServiceConfig::fast());
        let registry = seeded_registry();
        let mut detector = DriftDetector::new(0.02);
        detector.track(vec![WorkerId(77)], 2.0, Prior::uniform(), 0.9, 0);
        let reports = service.drift_scan(&registry, &detector).unwrap();
        assert_eq!(reports[0].status, DriftStatus::Stale);

        // An empty registry stales everything instead of erroring.
        let empty = WorkerRegistry::new(RegistryConfig::default()).unwrap();
        let reports = service.drift_scan(&empty, &detector).unwrap();
        assert_eq!(reports[0].status, DriftStatus::Stale);
    }

    #[test]
    fn repair_reports_untracked_and_stale_juries() {
        let service = JuryService::new(ServiceConfig::fast());
        let registry = seeded_registry();
        let mut detector = DriftDetector::new(0.02);
        let err = service
            .repair(&registry, &mut detector, SelectionId(9))
            .unwrap_err();
        assert_eq!(err, ServiceError::UntrackedJury { id: 9 });

        let id = detector.track(vec![WorkerId(77)], 2.0, Prior::uniform(), 0.9, 0);
        let err = service.repair(&registry, &mut detector, id).unwrap_err();
        assert!(matches!(err, ServiceError::StaleJury { .. }));

        let empty = WorkerRegistry::new(RegistryConfig::default()).unwrap();
        let err = service.repair(&empty, &mut detector, id).unwrap_err();
        assert!(matches!(err, ServiceError::StaleJury { .. }));
    }

    #[test]
    fn drift_free_juries_come_back_unchanged() {
        let service = JuryService::new(ServiceConfig::fast());
        let registry = seeded_registry();
        let mut detector = DriftDetector::new(0.02);
        let id = select_and_track(&service, &registry, &mut detector);
        let members = detector.get(id).unwrap().members().to_vec();

        let response = service.repair(&registry, &mut detector, id).unwrap();
        assert_eq!(response.outcome, RepairOutcome::Unchanged);
        assert!(!response.changed());
        assert_eq!(response.jury.ids(), members);
        // The ledger is re-validated at the current epoch.
        assert_eq!(detector.get(id).unwrap().epoch(), registry.epoch());
    }

    #[test]
    fn repair_swaps_out_a_degraded_member_and_matches_a_cold_resolve() {
        let service = JuryService::new(ServiceConfig::fast());
        let mut registry = seeded_registry();
        let mut detector = DriftDetector::new(0.02);
        let id = select_and_track(&service, &registry, &mut detector);
        assert!(detector.get(id).unwrap().members().contains(&WorkerId(1)));

        degrade(&mut registry, WorkerId(1), 60);
        let response = service.repair(&registry, &mut detector, id).unwrap();
        assert!(response.changed(), "outcome was {:?}", response.outcome);
        assert!(!response.jury.contains(WorkerId(1)));
        assert!(response.cost <= 3.0 + 1e-9);

        // The patched jury must match a cold re-solve on the fresh snapshot.
        let cold = service
            .select(
                &SelectionRequest::new(registry.snapshot_pool().unwrap(), 3.0)
                    .with_prior(Prior::uniform()),
            )
            .unwrap();
        assert!(
            (response.quality - cold.quality).abs() < 1e-9,
            "repaired {} vs cold {}",
            response.quality,
            cold.quality
        );

        // The ledger committed the repaired members and quality.
        let tracked = detector.get(id).unwrap();
        assert_eq!(tracked.members(), response.jury.ids());
        assert!((tracked.baseline_quality() - response.quality).abs() < 1e-12);
        assert_eq!(tracked.epoch(), registry.epoch());

        // A follow-up scan sees the repaired jury as steady again.
        let reports = service.drift_scan(&registry, &detector).unwrap();
        assert_eq!(reports[0].status, DriftStatus::Steady);
    }

    #[test]
    fn repair_batch_commits_every_successful_slot() {
        let service = JuryService::new(ServiceConfig::fast());
        let mut registry = seeded_registry();
        let mut detector = DriftDetector::new(0.02);
        let first = select_and_track(&service, &registry, &mut detector);
        let second = select_and_track(&service, &registry, &mut detector);

        degrade(&mut registry, WorkerId(1), 60);
        let results =
            service.repair_batch(&registry, &mut detector, &[first, SelectionId(99), second]);
        assert_eq!(results.len(), 3);
        assert!(results[0].is_ok());
        assert_eq!(results[1], Err(ServiceError::UntrackedJury { id: 99 }));
        assert!(results[2].is_ok());
        for (id, result) in [(first, &results[0]), (second, &results[2])] {
            let response = result.as_ref().unwrap();
            let tracked = detector.get(id).unwrap();
            assert_eq!(tracked.members(), response.jury.ids());
            assert_eq!(tracked.epoch(), registry.epoch());
        }
    }
}
