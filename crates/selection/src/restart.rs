//! Random-restart wrapper around the marginal-greedy forward selection.
//!
//! The marginal search ([`crate::GreedyMarginalSolver`]) is deterministic:
//! it always commits the best single-worker extension, so it lands in the
//! same local optimum every time. [`RestartSolver`] diversifies it the way
//! random-restart hill climbing diversifies a local search: restart 0 is the
//! plain marginal search, and every later restart first **plants** a random
//! affordable worker subset (covering a random fraction of the budget) and
//! only then lets the marginal rounds fill the rest. Different plantings
//! reach different local optima; the best jury over all restarts — scored by
//! the batch objective — wins.
//!
//! Budget checkpoints ride the marginal search's own probe loop, so a
//! truncated run keeps the jury committed so far (anytime semantics), and a
//! fixed seed makes the whole race reproducible.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use jury_model::Jury;

use crate::annealing::greedy_candidate_juries;
use crate::budget::SearchBudget;
use crate::greedy::MarginalSearch;
use crate::objective::JuryObjective;
use crate::problem::JspInstance;
use crate::solver::{JurySolver, SolverResult};

/// Configuration of the randomized-restart search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RestartConfig {
    /// Independent restarts; restart 0 is the plain (unseeded) marginal
    /// search, later restarts plant a random worker subset first.
    pub restarts: usize,
    /// RNG seed (restart `r` draws from `seed + r`), so runs are
    /// reproducible.
    pub seed: u64,
    /// Upper bound on the budget fraction a random planting may cover, in
    /// `(0, 1]`; each restart draws its own fraction below this.
    pub max_seed_fraction: f64,
    /// Whether the greedy top-quality and quality-per-cost fills also
    /// compete as candidate solutions.
    pub use_greedy_candidates: bool,
}

impl Default for RestartConfig {
    fn default() -> Self {
        RestartConfig {
            restarts: 4,
            seed: 0xD1CE,
            max_seed_fraction: 0.5,
            use_greedy_candidates: true,
        }
    }
}

impl RestartConfig {
    /// Sets the number of restarts (at least one).
    pub fn with_restarts(mut self, restarts: usize) -> Self {
        self.restarts = restarts.max(1);
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the maximum planted budget fraction (clamped into `(0, 1]`).
    pub fn with_max_seed_fraction(mut self, fraction: f64) -> Self {
        self.max_seed_fraction = fraction.clamp(f64::MIN_POSITIVE, 1.0);
        self
    }

    /// Enables or disables the greedy candidate juries.
    pub fn with_greedy_candidates(mut self, enabled: bool) -> Self {
        self.use_greedy_candidates = enabled;
        self
    }
}

/// The random-restart marginal-search solver; see the module docs.
pub struct RestartSolver<O: JuryObjective> {
    objective: O,
    config: RestartConfig,
    budget: SearchBudget,
}

impl<O: JuryObjective> RestartSolver<O> {
    /// Creates a solver with the default configuration.
    pub fn new(objective: O) -> Self {
        RestartSolver {
            objective,
            config: RestartConfig::default(),
            budget: SearchBudget::unlimited(),
        }
    }

    /// Creates a solver with a custom configuration.
    pub fn with_config(objective: O, config: RestartConfig) -> Self {
        RestartSolver {
            objective,
            config,
            budget: SearchBudget::unlimited(),
        }
    }

    /// Bounds the search with a cooperative compute budget; the marginal
    /// probe loops poll it and a truncated run keeps its best-so-far jury.
    pub fn with_budget(mut self, budget: SearchBudget) -> Self {
        self.budget = budget;
        self
    }

    /// The restart configuration.
    pub fn config(&self) -> &RestartConfig {
        &self.config
    }

    /// The underlying objective.
    pub fn objective(&self) -> &O {
        &self.objective
    }

    /// One restart. Returns the jury, its **batch** objective value, and
    /// whether the budget cut the run short.
    ///
    /// Crate-visible so the portfolio solver can race restarts one at a
    /// time with exactly the per-restart behaviour of a standalone
    /// [`RestartSolver::solve`] call.
    pub(crate) fn run_once(&self, instance: &JspInstance, restart: usize) -> (Jury, f64, bool) {
        let workers = instance.pool().workers();
        let mut search = MarginalSearch::new(&self.objective, instance).with_budget(self.budget);
        if restart > 0 {
            let n = instance.num_candidates();
            let mut rng = StdRng::seed_from_u64(self.config.seed.wrapping_add(restart as u64));
            let mut order: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            // Plant random workers up to a random fraction of the budget;
            // the marginal rounds then fill what remains.
            let target = instance.budget() * rng.gen::<f64>() * self.config.max_seed_fraction;
            let mut planted = Vec::new();
            let mut spent = 0.0;
            for index in order {
                let cost = workers[index].cost();
                if spent + cost <= target + 1e-12 {
                    spent += cost;
                    planted.push(index);
                }
            }
            search.preseed(workers, &planted, instance.budget());
        }
        search.extend_to(workers, instance.budget());
        let jury = search.jury().clone();
        let value = self.objective.evaluate(&jury, instance.prior());
        (jury, value, search.truncated())
    }
}

impl<O: JuryObjective> JurySolver for RestartSolver<O> {
    fn name(&self) -> &'static str {
        "random-restart"
    }

    fn solve(&self, instance: &JspInstance) -> SolverResult {
        let start = Instant::now();
        let evaluations_before = self.objective.evaluations();

        let mut best_jury = Jury::empty();
        let mut best_value = self.objective.evaluate(&best_jury, instance.prior());
        let mut truncated = false;

        for restart in 0..self.config.restarts.max(1) {
            if self.budget.exhausted(self.objective.evaluations()) {
                truncated = true;
                break;
            }
            let (jury, value, cut) = self.run_once(instance, restart);
            truncated |= cut;
            if value > best_value {
                best_value = value;
                best_jury = jury;
            }
        }

        if self.config.use_greedy_candidates {
            for jury in greedy_candidate_juries(instance) {
                let value = self.objective.evaluate(&jury, instance.prior());
                if value > best_value {
                    best_value = value;
                    best_jury = jury;
                }
            }
        }

        SolverResult {
            jury: best_jury,
            objective_value: best_value,
            evaluations: self.objective.evaluations() - evaluations_before,
            elapsed: start.elapsed(),
            solver: self.name(),
            truncated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::ExhaustiveSolver;
    use crate::greedy::GreedyMarginalSolver;
    use crate::objective::BvObjective;
    use jury_model::paper_example_pool;

    fn paper_instance(budget: f64) -> JspInstance {
        JspInstance::with_uniform_prior(paper_example_pool(), budget).unwrap()
    }

    #[test]
    fn config_builders_clamp_and_update() {
        let config = RestartConfig::default()
            .with_restarts(0)
            .with_seed(9)
            .with_max_seed_fraction(2.0)
            .with_greedy_candidates(false);
        assert_eq!(config.restarts, 1);
        assert_eq!(config.seed, 9);
        assert!((config.max_seed_fraction - 1.0).abs() < 1e-12);
        assert!(!config.use_greedy_candidates);
    }

    #[test]
    fn results_are_feasible_and_deterministic() {
        let instance = paper_instance(14.0);
        let a = RestartSolver::new(BvObjective::new()).solve(&instance);
        let b = RestartSolver::new(BvObjective::new()).solve(&instance);
        assert!(instance.is_feasible(&a.jury));
        assert_eq!(a.jury.ids(), b.jury.ids(), "same seed, same jury");
        assert!(!a.truncated);
    }

    #[test]
    fn never_worse_than_the_plain_marginal_search() {
        // Restart 0 *is* the plain marginal search, so the race can only
        // improve on it.
        for budget in [3.0, 5.0, 10.0, 15.0, 20.0] {
            let instance = paper_instance(budget);
            let restarts = RestartSolver::new(BvObjective::new()).solve(&instance);
            let marginal = GreedyMarginalSolver::new(BvObjective::new()).solve(&instance);
            assert!(
                restarts.objective_value >= marginal.objective_value - 1e-9,
                "budget {budget}: restarts {} vs marginal {}",
                restarts.objective_value,
                marginal.objective_value
            );
        }
    }

    #[test]
    fn dominated_by_the_exhaustive_optimum() {
        for budget in [5.0, 10.0, 15.0] {
            let instance = paper_instance(budget);
            let optimal = ExhaustiveSolver::new(BvObjective::new()).solve(&instance);
            let restarts = RestartSolver::new(BvObjective::new()).solve(&instance);
            assert!(restarts.objective_value <= optimal.objective_value + 1e-9);
        }
    }

    #[test]
    fn evaluation_cap_truncates_with_a_feasible_jury() {
        let instance = paper_instance(15.0);
        let solver = RestartSolver::new(BvObjective::new())
            .with_budget(SearchBudget::unlimited().with_max_evaluations(3));
        let result = solver.solve(&instance);
        assert!(result.truncated);
        assert!(instance.is_feasible(&result.jury));
    }

    #[test]
    fn empty_pool_and_zero_budget_return_empty_juries() {
        let empty = JspInstance::with_uniform_prior(jury_model::WorkerPool::new(), 1.0).unwrap();
        let result = RestartSolver::new(BvObjective::new()).solve(&empty);
        assert!(result.jury.is_empty());

        let broke = paper_instance(0.0);
        let result = RestartSolver::new(BvObjective::new()).solve(&broke);
        assert!(result.jury.is_empty());
    }
}
