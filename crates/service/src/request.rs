//! Selection requests: what a caller asks the service to do — binary
//! accuracy pools ([`SelectionRequest`]), confusion-matrix pools
//! ([`MultiClassSelectionRequest`]), and mixed batches ([`MixedRequest`]).

use std::time::Duration;

use serde::{Deserialize, Serialize};

use jury_model::{CategoricalPrior, MatrixPool, Prior, WorkerPool};
use jury_selection::PortfolioMember;

use crate::config::ServiceConfig;

/// Which jury-quality objective the selection maximizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Strategy {
    /// Bayesian voting — the optimal strategy (Theorem 1); what OPTJS uses.
    Bv,
    /// Majority voting — the Cao et al. baseline objective; what MVJS uses.
    Mv,
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Strategy::Bv => write!(f, "BV"),
            Strategy::Mv => write!(f, "MV"),
        }
    }
}

/// Which search algorithm solves the (NP-hard) selection problem.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SolverPolicy {
    /// Exhaustive enumeration for small pools, simulated annealing
    /// otherwise (the paper's system behaviour). The default.
    Auto,
    /// Exhaustive enumeration, failing with
    /// [`crate::ServiceError::PoolTooLargeForExact`] on oversized pools.
    Exact,
    /// The simulated-annealing heuristic regardless of pool size.
    Annealing,
    /// The cheap greedy baselines (best of quality-first and
    /// quality-per-cost-first).
    Greedy,
    /// The anytime solver portfolio: race the listed members round-robin
    /// under one shared search budget and return the best jury found (small
    /// pools still go to the exact solver, as under `Auto`). An empty member
    /// list races the default lineup
    /// ([`PortfolioMember::default_lineup`]).
    Portfolio(Vec<PortfolioMember>),
}

impl std::fmt::Display for SolverPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverPolicy::Auto => write!(f, "auto"),
            SolverPolicy::Exact => write!(f, "exact"),
            SolverPolicy::Annealing => write!(f, "annealing"),
            SolverPolicy::Greedy => write!(f, "greedy"),
            SolverPolicy::Portfolio(_) => write!(f, "portfolio"),
        }
    }
}

// Hand-written serde glue: the derive shim only handles unit enum variants,
// and `Portfolio` carries its member list. Unit variants keep the derive's
// wire shape (a variant-name string); `Portfolio` maps to a one-entry object
// keyed by the variant name, so old payloads still round-trip unchanged.
impl Serialize for SolverPolicy {
    fn to_value(&self) -> serde::Value {
        match self {
            SolverPolicy::Auto => serde::Value::String("Auto".to_string()),
            SolverPolicy::Exact => serde::Value::String("Exact".to_string()),
            SolverPolicy::Annealing => serde::Value::String("Annealing".to_string()),
            SolverPolicy::Greedy => serde::Value::String("Greedy".to_string()),
            SolverPolicy::Portfolio(members) => {
                serde::Value::Object(vec![("Portfolio".to_string(), members.to_value())])
            }
        }
    }
}

impl Deserialize for SolverPolicy {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        match value {
            serde::Value::String(_) => match value.as_variant()? {
                "Auto" => Ok(SolverPolicy::Auto),
                "Exact" => Ok(SolverPolicy::Exact),
                "Annealing" => Ok(SolverPolicy::Annealing),
                "Greedy" => Ok(SolverPolicy::Greedy),
                other => Err(serde::Error::custom(format!(
                    "unknown SolverPolicy variant `{other}`"
                ))),
            },
            serde::Value::Object(_) => {
                let members = value.field("Portfolio")?;
                Ok(SolverPolicy::Portfolio(Vec::<PortfolioMember>::from_value(
                    members,
                )?))
            }
            other => Err(serde::Error::custom(format!(
                "expected SolverPolicy string or object, got {}",
                other.kind()
            ))),
        }
    }
}

/// The fields both request kinds share: everything the service's one
/// request core validates and resolves without knowing the pool's kind.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RequestCommon {
    pub(crate) budget: f64,
    pub(crate) policy: SolverPolicy,
    pub(crate) allow_empty: bool,
    pub(crate) config: Option<ServiceConfig>,
    pub(crate) deadline: Option<Duration>,
    pub(crate) max_evaluations: Option<u64>,
}

impl RequestCommon {
    fn new(budget: f64) -> Self {
        RequestCommon {
            budget,
            policy: SolverPolicy::Auto,
            allow_empty: false,
            config: None,
            deadline: None,
            max_evaluations: None,
        }
    }
}

/// One jury-selection request: pool, budget, prior, strategy, solver policy,
/// and optional per-request configuration overrides.
///
/// Built with a fluent builder; nothing is validated until the request hits
/// [`crate::JuryService::select`], which reports every problem as a
/// [`crate::ServiceError`] value — the request path never panics.
///
/// ```
/// use jury_model::{paper_example_pool, Prior};
/// use jury_service::{JuryService, SelectionRequest, Strategy};
///
/// let service = JuryService::paper_experiments();
/// let request = SelectionRequest::new(paper_example_pool(), 15.0)
///     .with_prior(Prior::uniform())
///     .with_strategy(Strategy::Bv);
/// let response = service.select(&request).unwrap();
/// assert!((response.quality - 0.845).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionRequest {
    pool: WorkerPool,
    prior_alpha: f64,
    strategy: Strategy,
    pub(crate) common: RequestCommon,
}

impl SelectionRequest {
    /// Starts a request for the given pool and budget, with a uniform prior,
    /// the BV strategy, and the `Auto` solver policy.
    pub fn new(pool: WorkerPool, budget: f64) -> Self {
        SelectionRequest {
            pool,
            prior_alpha: 0.5,
            strategy: Strategy::Bv,
            common: RequestCommon::new(budget),
        }
    }

    /// Sets the task prior.
    pub fn with_prior(mut self, prior: Prior) -> Self {
        self.prior_alpha = prior.alpha();
        self
    }

    /// Sets the task prior from a raw `α = Pr(t = 0)` value. Unlike
    /// [`Prior::new`], the value is *not* validated here: the service checks
    /// it at `select` time and reports [`crate::ServiceError::InvalidPrior`],
    /// so callers forwarding untrusted input need no pre-validation.
    pub fn with_prior_alpha(mut self, alpha: f64) -> Self {
        self.prior_alpha = alpha;
        self
    }

    /// Sets the selection strategy.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the solver policy.
    pub fn with_policy(mut self, policy: SolverPolicy) -> Self {
        self.common.policy = policy;
        self
    }

    /// Overrides the service configuration for this request only.
    pub fn with_config(mut self, config: ServiceConfig) -> Self {
        self.common.config = Some(config);
        self
    }

    /// Whether a budget that affords no worker yields an empty-jury response
    /// (quality = max(α, 1 − α)) instead of
    /// [`crate::ServiceError::BudgetBelowCheapestWorker`]. Off by default;
    /// the paper-reproduction facades turn it on to keep the seed semantics.
    pub fn allow_empty_selection(mut self, allow: bool) -> Self {
        self.common.allow_empty = allow;
        self
    }

    /// Gives this request a wall-clock deadline, measured from the moment
    /// the service starts serving it. The heuristic searches poll the
    /// deadline at cooperative checkpoints and stop early with
    /// [`crate::ServiceError::DeadlineExceeded`], carrying the best feasible
    /// jury found so far (anytime semantics). Without a deadline the search
    /// runs bit-identically to a deadline-free service.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.common.deadline = Some(deadline);
        self
    }

    /// Caps the number of objective evaluations the search may spend — the
    /// deterministic cousin of [`with_deadline`](Self::with_deadline):
    /// exceeding the cap reports the same
    /// [`crate::ServiceError::DeadlineExceeded`] without any clock reads.
    pub fn with_evaluation_limit(mut self, max_evaluations: u64) -> Self {
        self.common.max_evaluations = Some(max_evaluations);
        self
    }

    /// The candidate pool.
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// The budget.
    pub fn budget(&self) -> f64 {
        self.common.budget
    }

    /// The raw prior `α` (possibly not yet validated).
    pub fn prior_alpha(&self) -> f64 {
        self.prior_alpha
    }

    /// The strategy.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The solver policy.
    pub fn policy(&self) -> SolverPolicy {
        self.common.policy.clone()
    }

    /// The per-request configuration override, if any.
    pub fn config(&self) -> Option<&ServiceConfig> {
        self.common.config.as_ref()
    }

    /// Whether empty selections are allowed.
    pub fn empty_selection_allowed(&self) -> bool {
        self.common.allow_empty
    }

    /// The per-request wall-clock deadline, if any.
    pub fn deadline(&self) -> Option<Duration> {
        self.common.deadline
    }

    /// The per-request objective-evaluation cap, if any.
    pub fn max_evaluations(&self) -> Option<u64> {
        self.common.max_evaluations
    }
}

/// One **multi-class** jury-selection request: a confusion-matrix candidate
/// pool ([`MatrixPool`]), a budget, a categorical prior, a solver policy,
/// and optional per-request configuration overrides — the Section 7 serving
/// path of [`crate::JuryService::select_multiclass`].
///
/// Built with the same fluent-builder convention as [`SelectionRequest`];
/// nothing is validated until the request hits the service, which reports
/// every problem as a [`crate::ServiceError`] value — the request path never
/// panics. The objective is always multi-class Bayesian voting (the optimal
/// strategy; there is no MV baseline for confusion matrices), so unlike the
/// binary request there is no strategy knob.
///
/// ```
/// use jury_model::{CategoricalPrior, MatrixPool};
/// use jury_service::{JuryService, MultiClassSelectionRequest};
///
/// let pool = MatrixPool::from_qualities_and_costs(
///     &[0.9, 0.75, 0.7, 0.65, 0.6],
///     &[3.0, 2.0, 1.0, 1.0, 1.0],
///     3,
/// )
/// .unwrap();
/// let service = JuryService::paper_experiments();
/// let request = MultiClassSelectionRequest::new(pool, 5.0)
///     .with_prior(CategoricalPrior::uniform(3).unwrap());
/// let response = service.select_multiclass(&request).unwrap();
/// assert!(response.cost <= 5.0 + 1e-9);
/// assert!(response.quality >= 1.0 / 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MultiClassSelectionRequest {
    pool: MatrixPool,
    prior_probs: Option<Vec<f64>>,
    pub(crate) common: RequestCommon,
}

impl MultiClassSelectionRequest {
    /// Starts a request for the given pool and budget, with a uniform
    /// categorical prior over the pool's label space and the `Auto` solver
    /// policy.
    pub fn new(pool: MatrixPool, budget: f64) -> Self {
        MultiClassSelectionRequest {
            pool,
            prior_probs: None,
            common: RequestCommon::new(budget),
        }
    }

    /// Sets the categorical task prior.
    pub fn with_prior(mut self, prior: CategoricalPrior) -> Self {
        self.prior_probs = Some(prior.probs().to_vec());
        self
    }

    /// Sets the prior from a raw probability vector. Unlike
    /// [`CategoricalPrior::new`], the vector is *not* validated here: the
    /// service checks it at `select_multiclass` time and reports
    /// [`crate::ServiceError::InvalidPriorVector`], so callers forwarding
    /// untrusted input need no pre-validation.
    pub fn with_prior_probs(mut self, probs: Vec<f64>) -> Self {
        self.prior_probs = Some(probs);
        self
    }

    /// Sets the solver policy.
    pub fn with_policy(mut self, policy: SolverPolicy) -> Self {
        self.common.policy = policy;
        self
    }

    /// Overrides the service configuration for this request only.
    pub fn with_config(mut self, config: ServiceConfig) -> Self {
        self.common.config = Some(config);
        self
    }

    /// Whether a budget that affords no worker yields an empty-jury
    /// response (quality = the prior's argmax mass) instead of
    /// [`crate::ServiceError::BudgetBelowCheapestWorker`]. Off by default.
    pub fn allow_empty_selection(mut self, allow: bool) -> Self {
        self.common.allow_empty = allow;
        self
    }

    /// Gives this request a wall-clock deadline measured from its own serve
    /// start — same anytime semantics as
    /// [`SelectionRequest::with_deadline`].
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.common.deadline = Some(deadline);
        self
    }

    /// Caps the objective evaluations the search may spend — same
    /// semantics as [`SelectionRequest::with_evaluation_limit`].
    pub fn with_evaluation_limit(mut self, max_evaluations: u64) -> Self {
        self.common.max_evaluations = Some(max_evaluations);
        self
    }

    /// The confusion-matrix candidate pool.
    pub fn pool(&self) -> &MatrixPool {
        &self.pool
    }

    /// The budget.
    pub fn budget(&self) -> f64 {
        self.common.budget
    }

    /// The raw prior probabilities (possibly not yet validated), or `None`
    /// for the uniform default.
    pub fn prior_probs(&self) -> Option<&[f64]> {
        self.prior_probs.as_deref()
    }

    /// The solver policy.
    pub fn policy(&self) -> SolverPolicy {
        self.common.policy.clone()
    }

    /// The per-request configuration override, if any.
    pub fn config(&self) -> Option<&ServiceConfig> {
        self.common.config.as_ref()
    }

    /// Whether empty selections are allowed.
    pub fn empty_selection_allowed(&self) -> bool {
        self.common.allow_empty
    }

    /// The per-request wall-clock deadline, if any.
    pub fn deadline(&self) -> Option<Duration> {
        self.common.deadline
    }

    /// The per-request objective-evaluation cap, if any.
    pub fn max_evaluations(&self) -> Option<u64> {
        self.common.max_evaluations
    }
}

/// A request of either kind, for mixed batches served by
/// [`crate::JuryService::select_batch`]: binary-accuracy and
/// confusion-matrix selections travel through the same request core and
/// batch engine and share the one JQ-evaluation cache.
#[derive(Debug, Clone, PartialEq)]
pub enum MixedRequest {
    /// A binary-accuracy selection request.
    Binary(SelectionRequest),
    /// A confusion-matrix selection request.
    MultiClass(MultiClassSelectionRequest),
}

impl From<SelectionRequest> for MixedRequest {
    fn from(request: SelectionRequest) -> Self {
        MixedRequest::Binary(request)
    }
}

impl From<MultiClassSelectionRequest> for MixedRequest {
    fn from(request: MultiClassSelectionRequest) -> Self {
        MixedRequest::MultiClass(request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jury_model::paper_example_pool;

    #[test]
    fn builder_defaults_and_overrides() {
        let request = SelectionRequest::new(paper_example_pool(), 15.0);
        assert_eq!(request.strategy(), Strategy::Bv);
        assert_eq!(request.policy(), SolverPolicy::Auto);
        assert!((request.prior_alpha() - 0.5).abs() < 1e-12);
        assert!(request.config().is_none());
        assert!(!request.empty_selection_allowed());

        let request = request
            .with_strategy(Strategy::Mv)
            .with_policy(SolverPolicy::Exact)
            .with_prior(Prior::new(0.7).unwrap())
            .with_config(ServiceConfig::fast())
            .allow_empty_selection(true);
        assert_eq!(request.strategy(), Strategy::Mv);
        assert_eq!(request.policy(), SolverPolicy::Exact);
        assert!((request.prior_alpha() - 0.7).abs() < 1e-12);
        assert_eq!(request.config(), Some(&ServiceConfig::fast()));
        assert!(request.empty_selection_allowed());
    }

    #[test]
    fn raw_prior_is_stored_unvalidated() {
        let request = SelectionRequest::new(paper_example_pool(), 15.0).with_prior_alpha(2.5);
        assert!((request.prior_alpha() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn deadline_and_evaluation_cap_default_off() {
        let request = SelectionRequest::new(paper_example_pool(), 15.0);
        assert!(request.deadline().is_none());
        assert!(request.max_evaluations().is_none());
        let request = request
            .with_deadline(Duration::from_millis(50))
            .with_evaluation_limit(1000);
        assert_eq!(request.deadline(), Some(Duration::from_millis(50)));
        assert_eq!(request.max_evaluations(), Some(1000));

        let multi = MultiClassSelectionRequest::new(matrix_pool(), 3.0);
        assert!(multi.deadline().is_none());
        assert!(multi.max_evaluations().is_none());
        let multi = multi
            .with_deadline(Duration::from_secs(1))
            .with_evaluation_limit(7);
        assert_eq!(multi.deadline(), Some(Duration::from_secs(1)));
        assert_eq!(multi.max_evaluations(), Some(7));
    }

    fn matrix_pool() -> MatrixPool {
        MatrixPool::from_qualities_and_costs(&[0.8, 0.7], &[1.0, 2.0], 3).unwrap()
    }

    #[test]
    fn multiclass_builder_defaults_and_overrides() {
        let request = MultiClassSelectionRequest::new(matrix_pool(), 3.0);
        assert_eq!(request.policy(), SolverPolicy::Auto);
        assert!(request.prior_probs().is_none());
        assert!(request.config().is_none());
        assert!(!request.empty_selection_allowed());
        assert_eq!(request.pool().num_choices(), 3);

        let request = request
            .with_policy(SolverPolicy::Greedy)
            .with_prior(CategoricalPrior::new(vec![0.2, 0.5, 0.3]).unwrap())
            .with_config(ServiceConfig::fast())
            .allow_empty_selection(true);
        assert_eq!(request.policy(), SolverPolicy::Greedy);
        assert_eq!(request.prior_probs(), Some(&[0.2, 0.5, 0.3][..]));
        assert_eq!(request.config(), Some(&ServiceConfig::fast()));
        assert!(request.empty_selection_allowed());
    }

    #[test]
    fn multiclass_raw_prior_is_stored_unvalidated() {
        let request =
            MultiClassSelectionRequest::new(matrix_pool(), 3.0).with_prior_probs(vec![2.0, -1.0]);
        assert_eq!(request.prior_probs(), Some(&[2.0, -1.0][..]));
    }

    #[test]
    fn mixed_requests_wrap_both_kinds() {
        let binary: MixedRequest = SelectionRequest::new(paper_example_pool(), 15.0).into();
        let multi: MixedRequest = MultiClassSelectionRequest::new(matrix_pool(), 3.0).into();
        assert!(matches!(binary, MixedRequest::Binary(_)));
        assert!(matches!(multi, MixedRequest::MultiClass(_)));
    }

    #[test]
    fn display_labels() {
        assert_eq!(Strategy::Bv.to_string(), "BV");
        assert_eq!(Strategy::Mv.to_string(), "MV");
        assert_eq!(SolverPolicy::Auto.to_string(), "auto");
        assert_eq!(SolverPolicy::Greedy.to_string(), "greedy");
        assert_eq!(SolverPolicy::Portfolio(Vec::new()).to_string(), "portfolio");
    }

    #[test]
    fn solver_policy_round_trips_through_serde() {
        let policies = [
            SolverPolicy::Auto,
            SolverPolicy::Exact,
            SolverPolicy::Annealing,
            SolverPolicy::Greedy,
            SolverPolicy::Portfolio(Vec::new()),
            SolverPolicy::Portfolio(PortfolioMember::default_lineup()),
            SolverPolicy::Portfolio(vec![PortfolioMember::Tabu]),
        ];
        for policy in policies {
            let value = policy.to_value();
            assert_eq!(SolverPolicy::from_value(&value).unwrap(), policy);
        }
        assert!(SolverPolicy::from_value(&serde::Value::String("Bogus".to_string())).is_err());
        assert!(SolverPolicy::from_value(&serde::Value::Null).is_err());
    }
}
