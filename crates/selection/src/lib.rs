//! # jury-selection
//!
//! Solvers for the Jury Selection Problem (JSP) of *"On Optimality of Jury
//! Selection in Crowdsourcing"* (EDBT 2015, Sections 2.2 and 5).
//!
//! Given a candidate worker pool, a budget, and a task prior, JSP asks for
//! the feasible jury maximizing the jury quality under the optimal voting
//! strategy (Bayesian voting, Theorem 1). JSP is NP-hard (Theorem 4), so the
//! crate offers a spectrum of solvers:
//!
//! * [`ExhaustiveSolver`] — exact enumeration (the reference for `N ≤ 22`);
//! * [`AnnealingSolver`] — the paper's simulated-annealing heuristic
//!   (Algorithms 3 and 4), generic over the objective and steered through
//!   the objective's [`IncrementalSession`] so a neighbour jury costs
//!   `O(buckets)` instead of a from-scratch JQ evaluation;
//! * [`GreedyQualitySolver`] / [`GreedyRatioSolver`] — cheap baselines;
//! * [`GreedyMarginalSolver`] — objective-driven forward selection scoring
//!   pool-many single-worker extensions per round via the same sessions;
//! * [`special::try_special_case`] — the closed-form cases of Lemmas 1 and 2;
//! * [`MvjsSolver`] — the Majority-Voting baseline system of Cao et al. \[7\];
//! * [`BudgetQualityTable`] — the Figure 1 budget–quality table;
//! * [`repair_jury`] — online repair of an already-deployed jury whose
//!   worker estimates drifted: greedy swap/push hill climbing under the
//!   original budget, riding the same incremental sessions.
//!
//! ```
//! use jury_model::{paper_example_pool, Prior};
//! use jury_selection::{AnnealingSolver, BvObjective, JspInstance, JurySolver};
//!
//! // The paper's running example: 7 workers, budget 15, uniform prior.
//! let instance =
//!     JspInstance::with_uniform_prior(paper_example_pool(), 15.0).unwrap();
//! let result = AnnealingSolver::new(BvObjective::new()).solve(&instance);
//! assert!(result.jury.cost() <= 15.0);
//! assert!((result.objective_value - 0.845).abs() < 1e-6); // {B, C, G}
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod annealing;
pub mod budget;
pub mod budget_table;
pub mod exhaustive;
pub mod greedy;
pub mod multiclass;
pub mod mvjs;
pub mod objective;
pub mod portfolio;
pub mod problem;
pub mod repair;
pub mod restart;
pub mod solver;
pub mod special;
pub mod tabu;

pub use annealing::{AnnealingConfig, AnnealingSolver};
pub use budget::SearchBudget;
pub use budget_table::{BudgetQualityRow, BudgetQualityTable};
pub use exhaustive::{ExhaustiveSolver, MAX_EXHAUSTIVE_POOL};
pub use greedy::{GreedyMarginalSolver, GreedyQualitySolver, GreedyRatioSolver};
pub use multiclass::{
    MultiClassBvObjective, MultiClassJsp, DEFAULT_MULTICLASS_EXACT_VOTINGS,
    DEFAULT_MULTICLASS_SESSION_POOL_CUTOFF,
};
pub use mvjs::MvjsSolver;
pub use objective::{
    bv_incremental_session, bv_incremental_session_in, mv_incremental_session,
    mv_incremental_session_in, BvObjective, IncrementalSession, JuryObjective, MvObjective,
};
pub use portfolio::{PortfolioConfig, PortfolioMember, PortfolioSolver};
pub use problem::JspInstance;
pub use repair::{repair_jury, RepairConfig, RepairResult};
pub use restart::{RestartConfig, RestartSolver};
pub use solver::{JurySolver, SolveError, SolverResult};
pub use special::{try_special_case, SpecialCase};
pub use tabu::{TabuConfig, TabuSolver};

#[cfg(test)]
mod proptests {
    use super::*;
    use jury_model::{Prior, WorkerPool};
    use proptest::prelude::*;

    fn pool_strategy() -> impl Strategy<Value = WorkerPool> {
        proptest::collection::vec(((0.5f64..0.95), (0.05f64..1.0)), 1..9).prop_map(|pairs| {
            let (qualities, costs): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
            WorkerPool::from_qualities_and_costs(&qualities, &costs).unwrap()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Every solver returns a feasible jury and a JQ value in [0.5, 1].
        #[test]
        fn solvers_return_feasible_juries(pool in pool_strategy(), budget in 0.0f64..3.0) {
            let instance = JspInstance::with_uniform_prior(pool, budget).unwrap();
            let solvers: Vec<Box<dyn JurySolver>> = vec![
                Box::new(ExhaustiveSolver::new(BvObjective::new())),
                Box::new(AnnealingSolver::new(BvObjective::new())),
                Box::new(GreedyQualitySolver::new(BvObjective::new())),
                Box::new(GreedyRatioSolver::new(BvObjective::new())),
                Box::new(MvjsSolver::new()),
            ];
            for solver in solvers {
                let result = solver.solve(&instance);
                prop_assert!(instance.is_feasible(&result.jury),
                    "{} returned an infeasible jury", result.solver);
                prop_assert!(result.objective_value >= 0.5 - 1e-9);
                prop_assert!(result.objective_value <= 1.0 + 1e-9);
            }
        }

        /// The heuristics never beat the exhaustive optimum, and annealing
        /// lands close to it.
        #[test]
        fn annealing_close_to_optimal(pool in pool_strategy(), budget in 0.2f64..2.0) {
            let instance = JspInstance::with_uniform_prior(pool, budget).unwrap();
            let optimal = ExhaustiveSolver::new(BvObjective::new()).solve(&instance);
            let annealed = AnnealingSolver::new(BvObjective::new()).solve(&instance);
            prop_assert!(annealed.objective_value <= optimal.objective_value + 1e-9);
            prop_assert!(optimal.objective_value - annealed.objective_value <= 0.1,
                "gap {} too large", optimal.objective_value - annealed.objective_value);
        }

        /// The OPTJS objective value is never below the MVJS objective value
        /// on the same instance (the system-level claim of Figure 6).
        #[test]
        fn optjs_dominates_mvjs(pool in pool_strategy(), budget in 0.2f64..2.0) {
            let instance = JspInstance::with_uniform_prior(pool, budget).unwrap();
            let optjs = ExhaustiveSolver::new(BvObjective::new()).solve(&instance);
            let mvjs = MvjsSolver::new().solve(&instance);
            prop_assert!(optjs.objective_value >= mvjs.objective_value - 1e-9,
                "OPTJS {} below MVJS {}", optjs.objective_value, mvjs.objective_value);
        }

        /// An unbudgeted portfolio race returns exactly the jury its best
        /// member would have returned standalone (value ties keep the
        /// earlier member in race order) — the lanes replay each member's
        /// restart sequence bit-identically, so this is an equality, not a
        /// bound.
        #[test]
        fn portfolio_returns_exactly_the_best_member(
            pool in pool_strategy(),
            budget in 0.0f64..3.0,
        ) {
            let instance = JspInstance::with_uniform_prior(pool, budget).unwrap();
            let raced = PortfolioSolver::new(BvObjective::new()).solve(&instance);
            let mut best: Option<SolverResult> = None;
            for member in PortfolioMember::default_lineup() {
                let result: SolverResult = match member {
                    PortfolioMember::Tabu =>
                        TabuSolver::new(BvObjective::new()).solve(&instance),
                    PortfolioMember::Restart =>
                        RestartSolver::new(BvObjective::new()).solve(&instance),
                    PortfolioMember::Annealing =>
                        AnnealingSolver::new(BvObjective::new()).solve(&instance),
                };
                let better = best
                    .as_ref()
                    .is_none_or(|b| result.objective_value > b.objective_value);
                if better {
                    best = Some(result);
                }
            }
            let best = best.expect("three members");
            prop_assert_eq!(raced.jury.ids(), best.jury.ids());
            prop_assert!((raced.objective_value - best.objective_value).abs() < 1e-15);
            prop_assert!(!raced.truncated);
        }

        /// A truncated portfolio race still returns a feasible jury no
        /// worse than the greedy floor, at any evaluation cap.
        #[test]
        fn truncated_portfolio_respects_the_greedy_floor(
            pool in pool_strategy(),
            budget in 0.2f64..3.0,
            cap in 1u64..40,
        ) {
            let instance = JspInstance::with_uniform_prior(pool, budget).unwrap();
            let raced = PortfolioSolver::new(BvObjective::new())
                .with_budget(SearchBudget::unlimited().with_max_evaluations(cap))
                .solve(&instance);
            prop_assert!(instance.is_feasible(&raced.jury));
            let floor = GreedyQualitySolver::new(BvObjective::new())
                .solve(&instance)
                .objective_value
                .max(
                    GreedyRatioSolver::new(BvObjective::new())
                        .solve(&instance)
                        .objective_value,
                );
            prop_assert!(raced.objective_value >= floor - 1e-9,
                "cap {}: {} below greedy floor {}", cap, raced.objective_value, floor);
        }

        /// Tabu and restart searches are deterministic under a fixed seed:
        /// solving the same instance twice returns the same jury.
        #[test]
        fn tabu_and_restart_are_seed_deterministic(
            pool in pool_strategy(),
            budget in 0.2f64..3.0,
            seed in 0u64..u64::MAX,
        ) {
            let instance = JspInstance::with_uniform_prior(pool, budget).unwrap();
            let tabu_config = TabuConfig::default().with_seed(seed);
            let a = TabuSolver::with_config(BvObjective::new(), tabu_config).solve(&instance);
            let b = TabuSolver::with_config(BvObjective::new(), tabu_config).solve(&instance);
            prop_assert_eq!(a.jury.ids(), b.jury.ids());
            prop_assert!((a.objective_value - b.objective_value).abs() < 1e-15);

            let restart_config = RestartConfig::default().with_seed(seed);
            let a = RestartSolver::with_config(BvObjective::new(), restart_config)
                .solve(&instance);
            let b = RestartSolver::with_config(BvObjective::new(), restart_config)
                .solve(&instance);
            prop_assert_eq!(a.jury.ids(), b.jury.ids());
            prop_assert!((a.objective_value - b.objective_value).abs() < 1e-15);
        }

        /// When a special case applies, its closed-form jury matches the
        /// exhaustive optimum.
        #[test]
        fn special_cases_are_optimal(
            qualities in proptest::collection::vec(0.5f64..0.95, 1..8),
            cost in 0.05f64..0.5,
            budget in 0.0f64..3.0,
        ) {
            let costs = vec![cost; qualities.len()];
            let pool = WorkerPool::from_qualities_and_costs(&qualities, &costs).unwrap();
            let instance = JspInstance::with_uniform_prior(pool, budget).unwrap();
            let (jury, _case) = try_special_case(&instance)
                .expect("uniform costs always trigger a special case");
            let objective = BvObjective::new();
            let special_value = objective.evaluate(&jury, Prior::uniform());
            let optimal = ExhaustiveSolver::new(BvObjective::new()).solve(&instance);
            prop_assert!((special_value - optimal.objective_value).abs() < 1e-9);
        }
    }
}
