//! Greedy JSP heuristics.
//!
//! Three greedy baselines bracket the simulated-annealing heuristic:
//!
//! * [`GreedyQualitySolver`] — walk the candidates in decreasing quality and
//!   take every worker that still fits in the budget. This is optimal when
//!   all costs are equal (Lemma 2) but can waste budget on expensive workers
//!   otherwise.
//! * [`GreedyRatioSolver`] — the knapsack-style heuristic: walk candidates in
//!   decreasing information-per-cost, where a worker's "information" is her
//!   log-odds weight `φ(max(q, 1 − q))`.
//! * [`GreedyMarginalSolver`] — objective-driven forward selection: each
//!   round scores **every** affordable single-worker extension of the
//!   current jury and commits the best one. Through the objective's
//!   incremental session a round costs pool-many read-only probes (`O(1)`
//!   each on the BV session, after one `O(buckets)` pass per committed
//!   worker) instead of pool-many from-scratch JQ computations.
//!
//! The first two also serve as cheap initial solutions for the annealing
//! search.

use std::time::Instant;

use jury_model::{Jury, Prior, Worker};

use crate::budget::SearchBudget;
use crate::objective::{IncrementalSession, JuryObjective, PROBE_TIE_TOLERANCE};
use crate::problem::JspInstance;
use crate::solver::{JurySolver, SolverResult};

/// Greedily adds workers in decreasing quality while the budget allows.
pub struct GreedyQualitySolver<O: JuryObjective> {
    objective: O,
}

impl<O: JuryObjective> GreedyQualitySolver<O> {
    /// Creates the solver.
    pub fn new(objective: O) -> Self {
        GreedyQualitySolver { objective }
    }
}

/// Greedily adds workers in decreasing `φ(q) / cost` ratio while the budget
/// allows.
pub struct GreedyRatioSolver<O: JuryObjective> {
    objective: O,
}

impl<O: JuryObjective> GreedyRatioSolver<O> {
    /// Creates the solver.
    pub fn new(objective: O) -> Self {
        GreedyRatioSolver { objective }
    }
}

fn greedy_by_key<O, K>(
    solver_name: &'static str,
    objective: &O,
    instance: &JspInstance,
    key: K,
) -> SolverResult
where
    O: JuryObjective,
    K: Fn(&Worker) -> f64,
{
    let start = Instant::now();
    let evaluations_before = objective.evaluations();
    let mut candidates: Vec<Worker> = instance.pool().workers().to_vec();
    candidates.sort_by(|a, b| {
        key(b)
            .partial_cmp(&key(a))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.id().cmp(&b.id()))
    });

    let mut jury = Jury::empty();
    let mut spent = 0.0;
    for worker in candidates {
        if spent + worker.cost() <= instance.budget() + 1e-12 {
            spent += worker.cost();
            jury.push(worker);
        }
    }
    let value = objective.evaluate(&jury, instance.prior());
    SolverResult {
        jury,
        objective_value: value,
        evaluations: objective.evaluations() - evaluations_before,
        elapsed: start.elapsed(),
        solver: solver_name,
        truncated: false,
    }
}

impl<O: JuryObjective> JurySolver for GreedyQualitySolver<O> {
    fn name(&self) -> &'static str {
        "greedy-quality"
    }

    fn solve(&self, instance: &JspInstance) -> SolverResult {
        greedy_by_key(self.name(), &self.objective, instance, |w| {
            w.effective_quality()
        })
    }
}

impl<O: JuryObjective> JurySolver for GreedyRatioSolver<O> {
    fn name(&self) -> &'static str {
        "greedy-ratio"
    }

    fn solve(&self, instance: &JspInstance) -> SolverResult {
        greedy_by_key(self.name(), &self.objective, instance, |w| {
            // Zero-cost workers are infinitely attractive; order them by
            // quality among themselves.
            let cost = w.cost().max(1e-9);
            w.log_odds() / cost
        })
    }
}

/// Objective-driven forward selection: each round evaluates every affordable
/// single-worker extension of the current jury and keeps the best (ties go
/// to the earlier pool position, so runs are deterministic). Under `JQ(BV)`
/// adding a worker never lowers the objective (Lemma 1), so rounds continue
/// until no candidate fits the remaining budget; objectives that are *not*
/// monotone in the jury size — `JQ(MV)` drops when a weak even-ing member
/// joins — are protected by a stop rule: the search ends as soon as the
/// best extension scores below the current jury.
pub struct GreedyMarginalSolver<O: JuryObjective> {
    objective: O,
    budget: SearchBudget,
}

impl<O: JuryObjective> GreedyMarginalSolver<O> {
    /// Creates the solver.
    pub fn new(objective: O) -> Self {
        GreedyMarginalSolver {
            objective,
            budget: SearchBudget::unlimited(),
        }
    }

    /// Bounds the forward selection with a cooperative compute budget: the
    /// probe loop polls it and stops early when it is exhausted, marking
    /// the result [`SolverResult::truncated`] while keeping the jury
    /// committed so far (anytime semantics).
    pub fn with_budget(mut self, budget: SearchBudget) -> Self {
        self.budget = budget;
        self
    }
}

/// Mutable state of a marginal-gain forward selection, shared by
/// [`GreedyMarginalSolver`] and the warm-started budget sweep of
/// [`crate::BudgetQualityTable::build_warm`] (which carries one state — and
/// one incremental session — across consecutive budgets instead of
/// re-solving cold).
pub(crate) struct MarginalSearch<'a, O: JuryObjective> {
    objective: &'a O,
    prior: Prior,
    selected: Vec<bool>,
    jury: Jury,
    spent: f64,
    session: Option<Box<dyn IncrementalSession + 'a>>,
    current_value: f64,
    budget: SearchBudget,
    truncated: bool,
}

impl<'a, O: JuryObjective> MarginalSearch<'a, O> {
    /// Opens a search over the instance's pool, with the objective's
    /// incremental session (when it offers one) as the probe engine.
    pub(crate) fn new(objective: &'a O, instance: &JspInstance) -> Self {
        let session = objective.incremental_session(instance);
        let jury = Jury::empty();
        let current_value = match &session {
            Some(live) => live.value(),
            None => objective.evaluate(&jury, instance.prior()),
        };
        MarginalSearch {
            objective,
            prior: instance.prior(),
            selected: vec![false; instance.num_candidates()],
            jury,
            spent: 0.0,
            session,
            current_value,
            budget: SearchBudget::unlimited(),
            truncated: false,
        }
    }

    /// Bounds the probe loop with a cooperative compute budget; see
    /// [`GreedyMarginalSolver::with_budget`].
    pub(crate) fn with_budget(mut self, budget: SearchBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Whether a budget checkpoint cut the last `extend_to` short.
    pub(crate) fn truncated(&self) -> bool {
        self.truncated
    }

    /// The jury committed so far.
    pub(crate) fn jury(&self) -> &Jury {
        &self.jury
    }

    /// The budget the committed jury requires.
    pub(crate) fn spent(&self) -> f64 {
        self.spent
    }

    /// Commits the given pool positions outright — no probing, no stop rule
    /// — skipping indices already selected or unaffordable under `budget`.
    /// This is how [`crate::RestartSolver`] diversifies: each randomized
    /// restart plants a few workers before the marginal rounds take over.
    /// Costs at most one objective evaluation (to refresh the current value
    /// when the session is absent).
    pub(crate) fn preseed(&mut self, workers: &[Worker], indices: &[usize], budget: f64) {
        let mut committed = false;
        for &index in indices {
            let worker = &workers[index];
            if self.selected[index] || self.spent + worker.cost() > budget + 1e-12 {
                continue;
            }
            self.selected[index] = true;
            self.spent += worker.cost();
            self.jury.push(worker.clone());
            if let Some(live) = &mut self.session {
                live.push(worker);
            }
            committed = true;
        }
        if committed {
            self.current_value = match &self.session {
                Some(live) => live.value(),
                None => self.objective.evaluate(&self.jury, self.prior),
            };
        }
    }

    /// Greedy rounds up to `budget`: each round scores **every** affordable
    /// single-worker extension of the current jury (through the session's
    /// read-only [`IncrementalSession::probe_push`]) and commits the best
    /// one; ties keep the
    /// earlier pool position, so runs are deterministic. The search stops
    /// when nothing fits or — protecting objectives that are not monotone
    /// in the jury size, like `JQ(MV)` — when the best extension scores
    /// below the current jury; ties still commit, so the BV search keeps
    /// filling the budget. Calling it again with a larger budget resumes
    /// from the committed state (the warm-start contract).
    pub(crate) fn extend_to(&mut self, workers: &[Worker], budget: f64) {
        loop {
            let mut best: Option<(usize, f64)> = None;
            for (index, worker) in workers.iter().enumerate() {
                // Cooperative checkpoint between probes; an exhausted
                // budget abandons the uncommitted round and keeps the jury
                // built so far (anytime semantics).
                if self.budget.exhausted(self.objective.evaluations()) {
                    self.truncated = true;
                    return;
                }
                if self.selected[index] || self.spent + worker.cost() > budget + 1e-12 {
                    continue;
                }
                let value = match self.session.as_mut().map(|live| live.probe_push(worker)) {
                    Some(Some(value)) => value,
                    probed => {
                        if probed.is_some() {
                            // The session lost track of its jury. Cannot
                            // happen with the shipped engines; guard against
                            // misbehaving third-party sessions by falling
                            // back to batch evaluation for the rest of the
                            // search.
                            self.session = None;
                        }
                        self.objective
                            .evaluate(&self.jury.with_worker(worker.clone()), self.prior)
                    }
                };
                if best.is_none_or(|(_, best_value)| value > best_value + PROBE_TIE_TOLERANCE) {
                    best = Some((index, value));
                }
            }
            let Some((index, best_value)) = best else {
                break;
            };
            if best_value < self.current_value - PROBE_TIE_TOLERANCE {
                break;
            }
            self.selected[index] = true;
            self.spent += workers[index].cost();
            self.jury.push(workers[index].clone());
            if let Some(live) = &mut self.session {
                live.push(&workers[index]);
            }
            self.current_value = best_value;
        }
    }
}

impl<O: JuryObjective> JurySolver for GreedyMarginalSolver<O> {
    fn name(&self) -> &'static str {
        "greedy-marginal"
    }

    fn solve(&self, instance: &JspInstance) -> SolverResult {
        let start = Instant::now();
        let evaluations_before = self.objective.evaluations();
        let mut search = MarginalSearch::new(&self.objective, instance).with_budget(self.budget);
        search.extend_to(instance.pool().workers(), instance.budget());

        // Session values are quantized guidance; report the batch
        // objective's score of the final jury.
        let jury = search.jury().clone();
        let value = self.objective.evaluate(&jury, instance.prior());
        SolverResult {
            jury,
            objective_value: value,
            evaluations: self.objective.evaluations() - evaluations_before,
            elapsed: start.elapsed(),
            solver: self.name(),
            truncated: search.truncated(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::ExhaustiveSolver;
    use crate::objective::BvObjective;
    use jury_model::{paper_example_pool, WorkerPool};

    fn paper_instance(budget: f64) -> JspInstance {
        JspInstance::with_uniform_prior(paper_example_pool(), budget).unwrap()
    }

    #[test]
    fn greedy_results_are_feasible() {
        for budget in [0.0, 5.0, 12.0, 20.0, 37.0] {
            let instance = paper_instance(budget);
            let by_quality = GreedyQualitySolver::new(BvObjective::new()).solve(&instance);
            let by_ratio = GreedyRatioSolver::new(BvObjective::new()).solve(&instance);
            assert!(
                instance.is_feasible(&by_quality.jury),
                "quality greedy at {budget}"
            );
            assert!(
                instance.is_feasible(&by_ratio.jury),
                "ratio greedy at {budget}"
            );
        }
    }

    #[test]
    fn greedy_is_dominated_by_exhaustive() {
        for budget in [5.0, 10.0, 15.0, 20.0] {
            let instance = paper_instance(budget);
            let optimal = ExhaustiveSolver::new(BvObjective::new()).solve(&instance);
            let by_quality = GreedyQualitySolver::new(BvObjective::new()).solve(&instance);
            let by_ratio = GreedyRatioSolver::new(BvObjective::new()).solve(&instance);
            assert!(by_quality.objective_value <= optimal.objective_value + 1e-9);
            assert!(by_ratio.objective_value <= optimal.objective_value + 1e-9);
        }
    }

    #[test]
    fn greedy_quality_is_optimal_under_uniform_costs() {
        // Lemma 2: with equal costs, taking the top-k workers by quality is
        // optimal.
        let pool = WorkerPool::from_qualities_and_costs(
            &[0.9, 0.55, 0.7, 0.8, 0.6],
            &[1.0, 1.0, 1.0, 1.0, 1.0],
        )
        .unwrap();
        let instance = JspInstance::with_uniform_prior(pool, 3.0).unwrap();
        let greedy = GreedyQualitySolver::new(BvObjective::new()).solve(&instance);
        let optimal = ExhaustiveSolver::new(BvObjective::new()).solve(&instance);
        assert!((greedy.objective_value - optimal.objective_value).abs() < 1e-9);
        assert_eq!(greedy.size(), 3);
    }

    #[test]
    fn ratio_greedy_prefers_cheap_informative_workers() {
        // Worker G (0.75, $3) has a much better ratio than A (0.77, $9).
        let instance = paper_instance(3.0);
        let result = GreedyRatioSolver::new(BvObjective::new()).solve(&instance);
        assert_eq!(result.size(), 1);
        assert!((result.jury.workers()[0].quality() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn zero_budget_gives_empty_jury() {
        let instance = paper_instance(0.0);
        let result = GreedyQualitySolver::new(BvObjective::new()).solve(&instance);
        assert!(result.jury.is_empty());
        assert!((result.objective_value - 0.5).abs() < 1e-12);
        assert_eq!(result.evaluations, 1);
    }

    #[test]
    fn marginal_greedy_is_feasible_and_dominated_by_exhaustive() {
        for budget in [3.0, 5.0, 10.0, 15.0, 20.0] {
            let instance = paper_instance(budget);
            let marginal = GreedyMarginalSolver::new(BvObjective::new()).solve(&instance);
            let optimal = ExhaustiveSolver::new(BvObjective::new()).solve(&instance);
            assert!(instance.is_feasible(&marginal.jury), "budget {budget}");
            assert!(marginal.objective_value <= optimal.objective_value + 1e-9);
            // On the paper pool the JQ-driven forward selection does at
            // least as well as the quality-ordered fill.
            let by_quality = GreedyQualitySolver::new(BvObjective::new()).solve(&instance);
            assert!(marginal.objective_value >= by_quality.objective_value - 1e-9);
        }
    }

    #[test]
    fn marginal_greedy_stops_when_extensions_hurt_the_mv_objective() {
        // JQ(MV) is not monotone in the jury size: after taking the 0.9
        // worker, extending to {0.9, 0.55} drops the MV quality from 0.9 to
        // 0.725. The stop rule must keep the better one-worker jury instead
        // of blindly filling the budget.
        use crate::objective::MvObjective;
        let pool = WorkerPool::from_qualities_and_costs(&[0.9, 0.55], &[1.0, 1.0]).unwrap();
        let instance = JspInstance::with_uniform_prior(pool, 2.0).unwrap();
        let result = GreedyMarginalSolver::new(MvObjective::new()).solve(&instance);
        assert_eq!(result.size(), 1);
        assert!((result.objective_value - 0.9).abs() < 1e-12);
        // BV keeps filling the budget on the same instance (monotone).
        let bv = GreedyMarginalSolver::new(BvObjective::new()).solve(&instance);
        assert_eq!(bv.size(), 2);
    }

    #[test]
    fn marginal_greedy_drives_the_incremental_session_on_large_pools() {
        // 30 candidates is above the exact cutoff, so scoring goes through
        // the incremental push/value/pop probes; results must match a
        // session-free run of the same strategy (evaluated per extension)
        // and stay deterministic.
        let qualities: Vec<f64> = (0..30).map(|i| 0.52 + 0.015 * i as f64).collect();
        let costs: Vec<f64> = (0..30).map(|i| 1.0 + (i % 5) as f64).collect();
        let pool = WorkerPool::from_qualities_and_costs(&qualities, &costs).unwrap();
        let instance = JspInstance::with_uniform_prior(pool, 12.0).unwrap();
        let a = GreedyMarginalSolver::new(BvObjective::new()).solve(&instance);
        let b = GreedyMarginalSolver::new(BvObjective::new()).solve(&instance);
        assert!(instance.is_feasible(&a.jury));
        assert!(!a.jury.is_empty());
        assert_eq!(a.jury.ids(), b.jury.ids());
        assert!(a.evaluations > 0);
        // The session quantizes to the pool grid; the greedy choice must
        // still land within the grid's error of the evaluate-driven pick.
        assert!(a.objective_value >= 0.5);
    }
}
