//! Objectives: the quantity a JSP solver maximizes over feasible juries.
//!
//! OPTJS maximizes the jury quality under Bayesian voting (the optimal
//! strategy, Theorem 1); the MVJS baseline of Cao et al. maximizes the jury
//! quality under majority voting. Both are exposed behind one trait so the
//! search algorithms (exhaustive, greedy, simulated annealing) are agnostic
//! to the strategy being optimized — which is precisely the ablation the
//! paper's Figure 6 performs.
//!
//! Besides the batch [`JuryObjective::evaluate`] entry point, an objective
//! can open an [`IncrementalSession`]: a stateful evaluator that mutates one
//! worker at a time (`jury_jq::IncrementalJq` / `jury_jq::IncrementalMvJq`
//! underneath), which is what makes the neighbourhood searches pay
//! `O(buckets)` per candidate jury instead of rebuilding the whole JQ
//! dynamic program.

use std::sync::atomic::{AtomicU64, Ordering};

use jury_jq::{
    BucketJqConfig, IncrementalJq, IncrementalJqConfig, IncrementalMvJq, JqEngine, SharedJqScratch,
};
use jury_model::{Jury, Prior, Worker, WorkerPool};

use crate::problem::JspInstance;

/// Session values within this tolerance are treated as tied. JQ plateaus
/// are real — e.g. every second juror added to a strong first one leaves
/// the two-juror BV quality at the stronger quality, and a worker on the
/// zero bucket leaves the BV quality where it was — and on a plateau the
/// probes return values separated only by floating-point noise (and the BV
/// session's tail-sum probes round differently from the push/value/pop
/// protocol of other sessions). Without a tolerance that noise, not the
/// rule a search applies to a tie, would decide: which worker the marginal
/// greedy commits (and whether its stop rule trips), and whether an
/// annealing swap is accepted outright or draws from the random stream.
pub(crate) const PROBE_TIE_TOLERANCE: f64 = 1e-9;

/// A stateful, incremental evaluation session opened from a
/// [`JuryObjective`].
///
/// The session tracks one jury; `push`/`pop` mutate it by a single worker
/// and `value` reports the objective of the *current* state. Sessions exist
/// purely to accelerate neighbourhood searches: their values may be
/// quantized (the BV engine works on a fixed bucket grid), so solvers score
/// final candidates through [`JuryObjective::evaluate`] and use the session
/// only to steer the search.
///
/// The probes score a neighbour of the tracked jury as one evaluation.
/// Their default bodies make the push/value/pop calls a search would make
/// by hand; a session whose engine can score a neighbour without mutating
/// its state (the BV session) overrides them. A
/// [`probe_swap`](Self::probe_swap) must be followed by exactly one
/// [`commit_swap`](Self::commit_swap) or [`revert_swap`](Self::revert_swap)
/// of the same pair before any other call.
pub trait IncrementalSession {
    /// Adds one worker to the tracked jury.
    fn push(&mut self, worker: &Worker);

    /// Removes a previously pushed worker. Returns `false` (leaving the
    /// state untouched) if the worker is unknown — callers should then
    /// abandon the session and fall back to batch evaluation.
    fn pop(&mut self, worker: &Worker) -> bool;

    /// The objective value of the current jury state.
    fn value(&self) -> f64;

    /// The value of the tracked jury plus `worker`, leaving the tracked
    /// jury as it was. `None` means the session lost track of its jury and
    /// should be abandoned, like a failed [`pop`](Self::pop).
    fn probe_push(&mut self, worker: &Worker) -> Option<f64> {
        self.push(worker);
        let value = self.value();
        self.pop(worker).then_some(value)
    }

    /// The value of the tracked jury with `out` replaced by `incoming`.
    /// `None` (state untouched) when `out` is not a member.
    fn probe_swap(&mut self, out: &Worker, incoming: &Worker) -> Option<f64> {
        if !self.pop(out) {
            return None;
        }
        self.push(incoming);
        Some(self.value())
    }

    /// Makes the swap of the preceding [`probe_swap`](Self::probe_swap)
    /// the tracked jury.
    fn commit_swap(&mut self, _out: &Worker, _incoming: &Worker) {}

    /// Drops the swap of the preceding [`probe_swap`](Self::probe_swap),
    /// keeping the tracked jury as it was before the probe.
    fn revert_swap(&mut self, out: &Worker, incoming: &Worker) {
        self.pop(incoming);
        self.push(out);
    }
}

/// An objective function over juries.
pub trait JuryObjective: Send + Sync {
    /// Short name used in reports (e.g. `"JQ(BV)"`).
    fn name(&self) -> &'static str;

    /// Evaluates the objective for a jury under the given prior. Larger is
    /// better; values are jury qualities in `[0, 1]`.
    fn evaluate(&self, jury: &Jury, prior: Prior) -> f64;

    /// Number of evaluations performed so far (used to report search
    /// effort); incremental-session evaluations count too.
    fn evaluations(&self) -> u64;

    /// Opens an incremental evaluation session for juries drawn from the
    /// instance's pool, or `None` when the objective has no incremental
    /// back-end (or judges it not worthwhile, e.g. a pool small enough for
    /// exact enumeration). The default implementation returns `None`.
    fn incremental_session<'a>(
        &'a self,
        _instance: &JspInstance,
    ) -> Option<Box<dyn IncrementalSession + 'a>> {
        None
    }

    /// Like [`incremental_session`](Self::incremental_session), but draws
    /// the engine's buffers from a caller-owned arena instead of the
    /// objective's shared one. No solver calls it; it stays as an override
    /// point for wrapping objectives (the `perfbench` tracer forwards it).
    /// The default ignores the arena and opens a plain session.
    fn incremental_session_in<'a>(
        &'a self,
        instance: &JspInstance,
        _arena: &'a SharedJqScratch,
    ) -> Option<Box<dyn IncrementalSession + 'a>> {
        self.incremental_session(instance)
    }
}

// Objectives work by shared reference too, so one (stateful, counting)
// objective can be handed to several solvers in sequence — e.g.
// `jury-service` running exhaustive and greedy candidates against a single
// cache-backed objective and reading the combined counters afterwards.
impl<O: JuryObjective + ?Sized> JuryObjective for &O {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn evaluate(&self, jury: &Jury, prior: Prior) -> f64 {
        (**self).evaluate(jury, prior)
    }

    fn evaluations(&self) -> u64 {
        (**self).evaluations()
    }

    fn incremental_session<'a>(
        &'a self,
        instance: &JspInstance,
    ) -> Option<Box<dyn IncrementalSession + 'a>> {
        (**self).incremental_session(instance)
    }
}

/// [`IncrementalSession`] over `JQ(J, BV, α)` via [`IncrementalJq`], with
/// evaluations ticking a caller-owned counter.
///
/// The engine lives in an `Option` only so `Drop` can move it back into the
/// shared scratch arena (when one was provided); it is `Some` for the whole
/// usable life of the session.
struct BvSession<'a> {
    engine: Option<IncrementalJq>,
    scratch: Option<&'a SharedJqScratch>,
    evaluations: &'a AtomicU64,
}

impl BvSession<'_> {
    fn engine_mut(&mut self) -> &mut IncrementalJq {
        self.engine.as_mut().expect("engine is present until drop")
    }
}

impl IncrementalSession for BvSession<'_> {
    fn push(&mut self, worker: &Worker) {
        self.engine_mut().push_worker(worker);
    }

    fn pop(&mut self, worker: &Worker) -> bool {
        self.engine_mut().pop_worker(worker).is_ok()
    }

    fn value(&self) -> f64 {
        self.evaluations.fetch_add(1, Ordering::Relaxed);
        self.engine
            .as_ref()
            .expect("engine is present until drop")
            .jq()
    }

    fn probe_push(&mut self, worker: &Worker) -> Option<f64> {
        self.evaluations.fetch_add(1, Ordering::Relaxed);
        Some(self.engine_mut().probe_push(worker.quality()))
    }

    fn probe_swap(&mut self, out: &Worker, incoming: &Worker) -> Option<f64> {
        let value = self
            .engine_mut()
            .probe_swap(out.quality(), incoming.quality())
            .ok()?;
        self.evaluations.fetch_add(1, Ordering::Relaxed);
        Some(value)
    }

    fn commit_swap(&mut self, out: &Worker, incoming: &Worker) {
        self.engine_mut()
            .commit_swap(out.quality(), incoming.quality())
            .expect("a probed swap's outgoing worker is a member");
    }

    fn revert_swap(&mut self, _out: &Worker, _incoming: &Worker) {}
}

impl Drop for BvSession<'_> {
    fn drop(&mut self) {
        if let (Some(engine), Some(shared)) = (self.engine.take(), self.scratch) {
            engine.recycle(&mut shared.lock());
        }
    }
}

/// [`IncrementalSession`] over `JQ(J, MV, α)` via [`IncrementalMvJq`].
struct MvSession<'a> {
    engine: Option<IncrementalMvJq>,
    scratch: Option<&'a SharedJqScratch>,
    prior: Prior,
    evaluations: &'a AtomicU64,
}

impl MvSession<'_> {
    fn engine_mut(&mut self) -> &mut IncrementalMvJq {
        self.engine.as_mut().expect("engine is present until drop")
    }
}

impl IncrementalSession for MvSession<'_> {
    fn push(&mut self, worker: &Worker) {
        self.engine_mut().push_worker(worker);
    }

    fn pop(&mut self, worker: &Worker) -> bool {
        self.engine_mut().pop_worker(worker).is_ok()
    }

    fn value(&self) -> f64 {
        self.evaluations.fetch_add(1, Ordering::Relaxed);
        self.engine
            .as_ref()
            .expect("engine is present until drop")
            .jq(self.prior)
    }
}

impl Drop for MvSession<'_> {
    fn drop(&mut self) {
        if let (Some(engine), Some(shared)) = (self.engine.take(), self.scratch) {
            engine.recycle(&mut shared.lock());
        }
    }
}

/// Builds a BV incremental session on the grid induced by `bucket` for
/// juries drawn from `pool`, ticking `evaluations` on every `value` call.
/// Exposed so other crates' objectives (e.g. `jury-service`'s cache-backed
/// one) can reuse the exact session wiring of [`BvObjective`].
pub fn bv_incremental_session<'a>(
    pool: &WorkerPool,
    prior: Prior,
    bucket: BucketJqConfig,
    evaluations: &'a AtomicU64,
) -> Box<dyn IncrementalSession + 'a> {
    let config = IncrementalJqConfig::default()
        .with_buckets(bucket.buckets)
        .with_kernel_mode(bucket.kernel);
    Box::new(BvSession {
        engine: Some(IncrementalJq::for_pool(pool, prior, config)),
        scratch: None,
        evaluations,
    })
}

/// [`bv_incremental_session`], drawing the engine's buffers from a shared
/// scratch arena and recycling them into it when the session drops. With a
/// warm arena, opening and closing sessions is allocation-free (up to the
/// session `Box` itself).
pub fn bv_incremental_session_in<'a>(
    pool: &WorkerPool,
    prior: Prior,
    bucket: BucketJqConfig,
    evaluations: &'a AtomicU64,
    scratch: &'a SharedJqScratch,
) -> Box<dyn IncrementalSession + 'a> {
    let config = IncrementalJqConfig::default()
        .with_buckets(bucket.buckets)
        .with_kernel_mode(bucket.kernel);
    let engine = IncrementalJq::for_pool_in(pool, prior, config, &mut scratch.lock());
    Box::new(BvSession {
        engine: Some(engine),
        scratch: Some(scratch),
        evaluations,
    })
}

/// Builds an MV incremental session (see [`bv_incremental_session`]).
pub fn mv_incremental_session(
    prior: Prior,
    evaluations: &AtomicU64,
) -> Box<dyn IncrementalSession + '_> {
    Box::new(MvSession {
        engine: Some(IncrementalMvJq::new()),
        scratch: None,
        prior,
        evaluations,
    })
}

/// [`mv_incremental_session`], arena-backed (see
/// [`bv_incremental_session_in`]).
pub fn mv_incremental_session_in<'a>(
    prior: Prior,
    evaluations: &'a AtomicU64,
    scratch: &'a SharedJqScratch,
) -> Box<dyn IncrementalSession + 'a> {
    let engine = IncrementalMvJq::new_in(&mut scratch.lock());
    Box::new(MvSession {
        engine: Some(engine),
        scratch: Some(scratch),
        prior,
        evaluations,
    })
}

/// The OPTJS objective: `JQ(J, BV, α)`, computed by the [`JqEngine`]
/// (exact enumeration for tiny juries, bucket approximation otherwise).
#[derive(Debug, Default)]
pub struct BvObjective {
    engine: JqEngine,
    evaluations: AtomicU64,
    scratch: SharedJqScratch,
}

impl BvObjective {
    /// Creates the objective with the default engine.
    pub fn new() -> Self {
        BvObjective::default()
    }

    /// Creates the objective with a specific bucket configuration — the
    /// experiments use the paper's `numBuckets = 50`.
    pub fn with_config(config: BucketJqConfig) -> Self {
        BvObjective {
            engine: JqEngine::new(config),
            evaluations: AtomicU64::new(0),
            scratch: SharedJqScratch::new(),
        }
    }

    /// Creates the objective around an existing engine.
    pub fn with_engine(engine: JqEngine) -> Self {
        BvObjective {
            engine,
            evaluations: AtomicU64::new(0),
            scratch: SharedJqScratch::new(),
        }
    }
}

impl JuryObjective for BvObjective {
    fn name(&self) -> &'static str {
        "JQ(BV)"
    }

    fn evaluate(&self, jury: &Jury, prior: Prior) -> f64 {
        self.evaluations.fetch_add(1, Ordering::Relaxed);
        self.engine.bv_jq(jury, prior).value
    }

    fn evaluations(&self) -> u64 {
        self.evaluations.load(Ordering::Relaxed)
    }

    fn incremental_session<'a>(
        &'a self,
        instance: &JspInstance,
    ) -> Option<Box<dyn IncrementalSession + 'a>> {
        // Pools within the exact cutoff evaluate every jury by exact
        // enumeration anyway — a quantized incremental grid would only trade
        // precision for nothing there.
        if instance.num_candidates() <= self.engine.exact_cutoff() {
            return None;
        }
        Some(bv_incremental_session_in(
            instance.pool(),
            instance.prior(),
            *self.engine.bucket_estimator().config(),
            &self.evaluations,
            &self.scratch,
        ))
    }
}

/// The MVJS objective: `JQ(J, MV, α)` via the exact Poisson-binomial dynamic
/// program.
#[derive(Debug, Default)]
pub struct MvObjective {
    engine: JqEngine,
    evaluations: AtomicU64,
    scratch: SharedJqScratch,
}

impl MvObjective {
    /// Creates the objective.
    pub fn new() -> Self {
        MvObjective::default()
    }
}

impl JuryObjective for MvObjective {
    fn name(&self) -> &'static str {
        "JQ(MV)"
    }

    fn evaluate(&self, jury: &Jury, prior: Prior) -> f64 {
        self.evaluations.fetch_add(1, Ordering::Relaxed);
        self.engine.mv_jq(jury, prior).value
    }

    fn evaluations(&self) -> u64 {
        self.evaluations.load(Ordering::Relaxed)
    }

    fn incremental_session<'a>(
        &'a self,
        instance: &JspInstance,
    ) -> Option<Box<dyn IncrementalSession + 'a>> {
        // The MV session is exact (no quantization) and strictly cheaper
        // than the scratch Poisson-binomial DP, so it is always worthwhile.
        Some(mv_incremental_session_in(
            instance.prior(),
            &self.evaluations,
            &self.scratch,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bv_objective_matches_paper_example() {
        let obj = BvObjective::new();
        let jury = Jury::from_qualities(&[0.9, 0.6, 0.6]).unwrap();
        let jq = obj.evaluate(&jury, Prior::uniform());
        assert!((jq - 0.9).abs() < 1e-9);
        assert_eq!(obj.evaluations(), 1);
        assert_eq!(obj.name(), "JQ(BV)");
    }

    #[test]
    fn mv_objective_matches_paper_example() {
        let obj = MvObjective::new();
        let jury = Jury::from_qualities(&[0.9, 0.6, 0.6]).unwrap();
        let jq = obj.evaluate(&jury, Prior::uniform());
        assert!((jq - 0.792).abs() < 1e-12);
        assert_eq!(obj.evaluations(), 1);
        assert_eq!(obj.name(), "JQ(MV)");
    }

    #[test]
    fn bv_dominates_mv_on_the_same_jury() {
        let bv = BvObjective::new();
        let mv = MvObjective::new();
        let jury = Jury::from_qualities(&[0.85, 0.6, 0.55, 0.7, 0.9]).unwrap();
        for alpha in [0.3, 0.5, 0.7] {
            let prior = Prior::new(alpha).unwrap();
            assert!(bv.evaluate(&jury, prior) >= mv.evaluate(&jury, prior) - 1e-9);
        }
    }

    #[test]
    fn evaluation_counter_accumulates() {
        let obj = BvObjective::with_config(BucketJqConfig::paper_experiments());
        let jury = Jury::from_qualities(&[0.7, 0.8]).unwrap();
        for _ in 0..5 {
            obj.evaluate(&jury, Prior::uniform());
        }
        assert_eq!(obj.evaluations(), 5);
    }

    #[test]
    fn bv_sessions_are_gated_by_the_exact_cutoff() {
        let obj = BvObjective::new();
        let small =
            JspInstance::with_uniform_prior(jury_model::paper_example_pool(), 15.0).unwrap();
        assert!(obj.incremental_session(&small).is_none());
        let big_pool =
            jury_model::WorkerPool::from_qualities_and_costs(&[0.7; 20], &[1.0; 20]).unwrap();
        let big = JspInstance::with_uniform_prior(big_pool, 5.0).unwrap();
        assert!(obj.incremental_session(&big).is_some());
    }

    #[test]
    fn bv_session_tracks_evaluate_and_ticks_the_counter() {
        let obj = BvObjective::new();
        let pool = jury_model::WorkerPool::from_qualities_and_costs(
            &[
                0.9, 0.63, 0.6, 0.7, 0.8, 0.65, 0.75, 0.55, 0.72, 0.68, 0.81, 0.59, 0.62,
            ],
            &[1.0; 13],
        )
        .unwrap();
        let instance = JspInstance::with_uniform_prior(pool.clone(), 3.0).unwrap();
        let mut session = obj.incremental_session(&instance).unwrap();
        let members = &pool.workers()[..3];
        for worker in members {
            session.push(worker);
        }
        let incremental = session.value();
        let exact = {
            let jury = Jury::new(members.to_vec());
            jury_jq::exact_bv_jq(&jury, Prior::uniform()).unwrap()
        };
        // Quantized guidance: within the (loose) analytic grid error.
        assert!(
            (incremental - exact).abs() < 1e-2,
            "session {incremental} vs exact {exact}"
        );
        assert!(session.pop(&members[2]));
        assert!(!session.pop(&members[2]), "double pop must fail");
        assert!(obj.evaluations() >= 1, "session values must be counted");
    }

    #[test]
    fn every_probe_is_one_evaluation_of_the_neighbour() {
        let pool = jury_model::WorkerPool::from_qualities_and_costs(
            &[
                0.9, 0.63, 0.6, 0.7, 0.8, 0.65, 0.75, 0.55, 0.72, 0.68, 0.81, 0.59, 0.62, 0.77,
                0.58, 0.66,
            ],
            &[1.0; 16],
        )
        .unwrap();
        let instance = JspInstance::with_uniform_prior(pool.clone(), 4.0).unwrap();
        let workers = pool.workers();
        let (bv, mv) = (BvObjective::new(), MvObjective::new());
        for objective in [&bv as &dyn JuryObjective, &mv] {
            // `probing` answers through the probes, `mutating` through the
            // push/value/pop calls they replace.
            let mut probing = objective.incremental_session(&instance).unwrap();
            let mut mutating = objective.incremental_session(&instance).unwrap();
            for worker in &workers[..3] {
                probing.push(worker);
                mutating.push(worker);
            }
            for (out, incoming) in [(&workers[0], &workers[5]), (&workers[1], &workers[9])] {
                mutating.push(incoming);
                let pushed = mutating.value();
                assert!(mutating.pop(incoming));
                let before = objective.evaluations();
                let probed = probing.probe_push(incoming).unwrap();
                assert_eq!(objective.evaluations(), before + 1);
                assert!((probed - pushed).abs() < 1e-12, "{probed} vs {pushed}");

                assert!(mutating.pop(out));
                mutating.push(incoming);
                let swapped = mutating.value();
                let base = probing.value();
                let before = objective.evaluations();
                let probed = probing.probe_swap(out, incoming).unwrap();
                assert_eq!(objective.evaluations(), before + 1);
                assert!((probed - swapped).abs() < 1e-12, "{probed} vs {swapped}");
                probing.revert_swap(out, incoming);
                assert!((probing.value() - base).abs() < 1e-12);
                probing.probe_swap(out, incoming).unwrap();
                probing.commit_swap(out, incoming);
                assert!((probing.value() - swapped).abs() < 1e-12);
                assert_eq!(objective.evaluations(), before + 4);
            }
            assert!(probing.probe_swap(&workers[15], &workers[14]).is_none());
        }
    }

    #[test]
    fn mv_session_is_exact_and_always_available() {
        let obj = MvObjective::new();
        let instance =
            JspInstance::with_uniform_prior(jury_model::paper_example_pool(), 15.0).unwrap();
        let mut session = obj.incremental_session(&instance).unwrap();
        let workers = instance.pool().workers().to_vec();
        for worker in &workers[..3] {
            session.push(worker);
        }
        let jury = Jury::new(workers[..3].to_vec());
        let direct = obj.evaluate(&jury, Prior::uniform());
        assert!((session.value() - direct).abs() < 1e-12);
    }
}
