//! The service itself: validated, fallible, batch-first jury selection.
//!
//! Binary, multi-class and mixed requests are served by one request core
//! (`JuryService::serve`). Config resolution, validation, the search
//! budget, solver dispatch, truncation and overload coarsening are written
//! once there; what differs between the two kinds — the prior, the search
//! instance and objective, and the response — sits behind the private
//! `RequestKind` trait.

use std::borrow::Cow;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use jury_jq::MultiClassIncrementalConfig;
use jury_model::{CategoricalPrior, MatrixPool, Prior, WorkerPool};
use jury_selection::{
    AnnealingSolver, BudgetQualityRow, BudgetQualityTable, BvObjective, ExhaustiveSolver,
    GreedyMarginalSolver, GreedyQualitySolver, GreedyRatioSolver, JspInstance, JuryObjective,
    JurySolver, MvjsSolver, PortfolioConfig, PortfolioSolver, SearchBudget, SolverResult,
    MAX_EXHAUSTIVE_POOL,
};

use crate::cache::{CacheStats, CachedMultiClassObjective, CachedObjective, JqCache};
use crate::config::{OverloadPolicy, ServiceConfig, SweepPolicy};
use crate::error::ServiceError;
use crate::parallel;
use crate::request::{
    MixedRequest, MultiClassSelectionRequest, RequestCommon, SelectionRequest, SolverPolicy,
    Strategy,
};
use crate::response::{
    BatchMetrics, BatchOutcome, MixedResponse, MultiClassSelectionResponse, SelectionResponse,
};

/// RAII in-flight slot: decrements the service's concurrency counter when
/// the request finishes, even if the serving closure unwinds.
struct InFlightGuard<'a>(&'a AtomicUsize);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Per-batch admission counters, shared across the batch worker threads.
#[derive(Default)]
struct AdmissionCounters {
    admitted: AtomicUsize,
    shed: AtomicUsize,
    coarsened: AtomicUsize,
    peak_in_flight: AtomicUsize,
}

impl AdmissionCounters {
    fn into_metrics(self, shards: Vec<CacheStats>) -> BatchMetrics {
        BatchMetrics {
            admitted: self.admitted.into_inner(),
            shed: self.shed.into_inner(),
            coarsened: self.coarsened.into_inner(),
            peak_in_flight: self.peak_in_flight.into_inner(),
            shards,
        }
    }
}

/// Renders a caught panic payload for [`ServiceError::Internal`].
fn panic_reason(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        format!("a solver thread panicked: {message}")
    } else if let Some(message) = payload.downcast_ref::<String>() {
        format!("a solver thread panicked: {message}")
    } else {
        "a solver thread panicked".to_string()
    }
}

/// The jury-selection service: owns the configuration and the shared JQ
/// cache, and serves [`SelectionRequest`]s one at a time or in parallel
/// batches. All request handling is fallible — invalid input comes back as a
/// [`ServiceError`], never as a panic.
///
/// ```
/// use jury_model::paper_example_pool;
/// use jury_service::{JuryService, SelectionRequest};
///
/// let service = JuryService::paper_experiments();
/// let response = service
///     .select(&SelectionRequest::new(paper_example_pool(), 15.0))
///     .unwrap();
/// assert!((response.quality - 0.845).abs() < 1e-9); // the {B, C, G} jury
/// assert!((response.cost - 14.0).abs() < 1e-9);
/// ```
#[derive(Debug)]
pub struct JuryService {
    config: ServiceConfig,
    cache: JqCache,
    /// Requests currently inside the admission gate of the batch entry
    /// points (see [`ServiceConfig::max_in_flight`]).
    in_flight: AtomicUsize,
}

impl Default for JuryService {
    fn default() -> Self {
        JuryService::new(ServiceConfig::default())
    }
}

impl JuryService {
    /// Creates a service with the given configuration.
    pub fn new(config: ServiceConfig) -> Self {
        JuryService {
            cache: JqCache::new(config.cache_capacity, config.cache_shards),
            config,
            in_flight: AtomicUsize::new(0),
        }
    }

    /// Creates a service with the paper's experimental configuration.
    pub fn paper_experiments() -> Self {
        JuryService::new(ServiceConfig::paper_experiments())
    }

    /// The service configuration (requests can override it individually).
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Counters of the shared JQ-evaluation cache, aggregated over all
    /// shards.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Per-shard counters of the shared JQ-evaluation cache, in shard
    /// order (see [`ServiceConfig::cache_shards`]).
    pub fn cache_shard_stats(&self) -> Vec<CacheStats> {
        self.cache.shard_stats()
    }

    /// Number of lock-independent shards the JQ store was built with
    /// (a `cache_shards` of 0 is promoted to 1 at construction).
    pub fn num_cache_shards(&self) -> usize {
        self.cache.num_shards()
    }

    /// The shared JQ cache, for the crate's other endpoint modules (the
    /// repair loop scores fresh juries through the same store).
    pub(crate) fn jq_cache(&self) -> &JqCache {
        &self.cache
    }

    /// Serves one selection request.
    ///
    /// The request is validated first — a bad budget, prior, or pool comes
    /// back as a [`ServiceError`] value, never a panic. Valid requests are
    /// dispatched to the solver chosen by the request's
    /// [`SolverPolicy`]; every JQ evaluation goes
    /// through this service's shared signature-keyed cache, and the
    /// neighbourhood searches additionally run on the incremental JQ engine
    /// (`jury_jq::IncrementalJq`), paying `O(buckets)` per candidate jury.
    ///
    /// ```
    /// use jury_model::{paper_example_pool, Prior};
    /// use jury_service::{JuryService, SelectionRequest, ServiceError};
    ///
    /// let service = JuryService::paper_experiments();
    ///
    /// // Budget 15 on the paper's pool selects {B, C, G} at 84.5 %.
    /// let request = SelectionRequest::new(paper_example_pool(), 15.0)
    ///     .with_prior(Prior::uniform());
    /// let response = service.select(&request)?;
    /// assert_eq!(response.jury.size(), 3);
    /// assert!((response.quality - 0.845).abs() < 1e-9);
    ///
    /// // Failures are typed values.
    /// let err = service
    ///     .select(&SelectionRequest::new(paper_example_pool(), f64::NAN))
    ///     .unwrap_err();
    /// assert!(matches!(err, ServiceError::InvalidBudget { .. }));
    /// # Ok::<(), ServiceError>(())
    /// ```
    pub fn select(&self, request: &SelectionRequest) -> Result<SelectionResponse, ServiceError> {
        self.serve(request, false)
    }

    /// The one request core behind every selection entry point, for both
    /// request kinds. `coarsen` downgrades the solver policy to
    /// [`SolverPolicy::Greedy`] (the admission gate's
    /// [`OverloadPolicy::Coarsen`]) without touching the request.
    ///
    /// Checks run in a fixed order, the same for both kinds: the prior, an
    /// empty pool, the budget, then the cheapest worker.
    fn serve<R: RequestKind>(
        &self,
        request: &R,
        coarsen: bool,
    ) -> Result<R::Response, ServiceError> {
        let started = Instant::now();
        let common = request.common();
        let config = common.config.unwrap_or(self.config);

        let prior = request.prior()?;
        // An empty pool — like an unaffordable one — only admits the empty
        // jury, so it is an error exactly when empty selections are not
        // allowed (the paper facades allow them to keep the seed semantics,
        // e.g. dataset replays over tasks nobody answered).
        let cheapest = request.cheapest_cost();
        if cheapest.is_none() && !common.allow_empty {
            return Err(ServiceError::EmptyPool);
        }
        let budget = common.budget;
        if !budget.is_finite() || budget < 0.0 || (budget == 0.0 && !common.allow_empty) {
            return Err(ServiceError::InvalidBudget { value: budget });
        }
        if let Some(cheapest) = cheapest {
            if cheapest > budget && !common.allow_empty {
                return Err(ServiceError::BudgetBelowCheapestWorker { budget, cheapest });
            }
        }

        let policy = if coarsen {
            SolverPolicy::Greedy
        } else {
            common.policy.clone()
        };
        let (instance, objective) = request.build(prior, &policy, &config, &self.cache)?;
        let search_budget =
            Self::effective_budget(started, common.deadline, common.max_evaluations, &config);
        let result = self.dispatch_solver(
            &instance,
            &objective,
            &policy,
            request.mv_baseline(),
            &config,
            search_budget,
        )?;

        let truncated = result.truncated;
        let response = request.respond(&objective, result, policy, started);
        if truncated {
            return Err(ServiceError::DeadlineExceeded {
                best_so_far: Some(Box::new(R::into_mixed(response))),
            });
        }
        Ok(response)
    }

    /// The [`SearchBudget`] a request's deadline knobs induce, anchored at
    /// the request's own serve start — so mid-batch peers each count their
    /// deadline from the moment their own search began, not from batch
    /// submission.
    fn request_budget(
        started: Instant,
        deadline: Option<Duration>,
        max_evaluations: Option<u64>,
    ) -> SearchBudget {
        let mut budget = SearchBudget::unlimited();
        if let Some(deadline) = deadline {
            // A deadline too far out to represent is no deadline at all.
            if let Some(at) = started.checked_add(deadline) {
                budget = budget.with_deadline_at(at);
            }
        }
        if let Some(max) = max_evaluations {
            budget = budget.with_max_evaluations(max);
        }
        budget
    }

    /// The budget a request actually runs under: its own deadline knobs
    /// intersected **tightest-wins** with the service-wide defaults
    /// ([`ServiceConfig::default_deadline`],
    /// [`ServiceConfig::default_max_evaluations`]) — whichever side names
    /// the earlier deadline or the smaller evaluation cap governs, and a
    /// limit present on only one side still applies.
    fn effective_budget(
        started: Instant,
        deadline: Option<Duration>,
        max_evaluations: Option<u64>,
        config: &ServiceConfig,
    ) -> SearchBudget {
        Self::request_budget(started, deadline, max_evaluations).intersect(Self::request_budget(
            started,
            config.default_deadline,
            config.default_max_evaluations,
        ))
    }

    /// The one [`SolverPolicy`] dispatch behind the request core and the
    /// repair fallback, generic over the (cache-backed) objective. `mv_baseline` routes large `Auto` pools through the
    /// [`MvjsSolver`] instead of plain annealing — the binary MV strategy's
    /// historical behaviour; multi-class selection never sets it.
    ///
    /// `search_budget` is polled at the cooperative checkpoints of the
    /// annealing and marginal-greedy searches; an exhausted budget comes
    /// back as `truncated: true` on the result, carrying the best feasible
    /// jury found so far. The exact and MVJS paths are not budgeted: exact
    /// enumeration only runs on pools bounded by the exact cutoff, and the
    /// MVJS baseline's candidate scan is a single `O(n log n)` pass.
    pub(crate) fn dispatch_solver<O: JuryObjective>(
        &self,
        instance: &JspInstance,
        objective: &O,
        policy: &SolverPolicy,
        mv_baseline: bool,
        config: &ServiceConfig,
        search_budget: SearchBudget,
    ) -> Result<SolverResult, ServiceError> {
        let small_pool = instance.num_candidates() <= config.exact_cutoff.min(MAX_EXHAUSTIVE_POOL);
        let result = match policy {
            SolverPolicy::Exact => ExhaustiveSolver::new(objective).try_solve(instance)?,
            SolverPolicy::Auto if small_pool => {
                ExhaustiveSolver::new(objective).try_solve(instance)?
            }
            SolverPolicy::Auto if mv_baseline => {
                MvjsSolver::with_annealing_config(config.annealing)
                    .solve_with_objective(instance, objective)
            }
            SolverPolicy::Auto | SolverPolicy::Annealing => {
                AnnealingSolver::with_config(objective, config.annealing)
                    .with_budget(search_budget)
                    .solve(instance)
            }
            // Small pools keep the provably-optimal enumeration, exactly
            // like `Auto`; the race only engages where the exact solver
            // cannot go.
            SolverPolicy::Portfolio(_) if small_pool => {
                ExhaustiveSolver::new(objective).try_solve(instance)?
            }
            SolverPolicy::Portfolio(members) => {
                let portfolio = PortfolioConfig::default()
                    .with_annealing(config.annealing)
                    .with_tabu(config.tabu)
                    .with_restart(config.restart);
                PortfolioSolver::with_members(objective, members.clone())
                    .with_config(portfolio)
                    .with_budget(search_budget)
                    .solve(instance)
            }
            SolverPolicy::Greedy => {
                // Three greedy flavours, best-of: the two cheap orderings
                // plus the objective-driven marginal greedy, which probes
                // pool-many extensions per round through the incremental
                // session. Ties keep the earlier (cheaper) candidate. Only
                // the marginal search has checkpoints; if the budget cut it
                // short the whole best-of is reported truncated, whichever
                // flavour won.
                let mut best = GreedyQualitySolver::new(objective).solve(instance);
                let ratio = GreedyRatioSolver::new(objective).solve(instance);
                if ratio.objective_value > best.objective_value {
                    best = ratio;
                }
                let marginal = GreedyMarginalSolver::new(objective)
                    .with_budget(search_budget)
                    .solve(instance);
                let truncated = marginal.truncated;
                if marginal.objective_value > best.objective_value {
                    best = marginal;
                }
                best.truncated = truncated;
                best
            }
        };
        Ok(result)
    }

    /// Serves one **multi-class** (confusion-matrix) selection request —
    /// the Section 7 serving path.
    ///
    /// Validation mirrors [`Self::select`]: a bad budget or prior vector
    /// comes back as a [`ServiceError`] value, never a panic (an *empty*
    /// pool cannot even be constructed — [`MatrixPool::new`] rejects it at
    /// the model layer). The candidate set then travels through the same
    /// [`SolverPolicy`] dispatch as binary requests — exhaustive
    /// enumeration over the pool's mean-accuracy **shadow projection**,
    /// simulated annealing, or marginal greedy — while every jury is scored
    /// on its full confusion matrices: exactly for small voting spaces,
    /// through the Section 7 tuple-key bucket DP otherwise, and via
    /// `jury_jq::IncrementalMultiClassJq` sessions inside the search loops
    /// once the pool is past the measured scratch/incremental crossover
    /// ([`ServiceConfig::multiclass_session_cutoff`]). Batch evaluations
    /// memoize into this service's shared JQ store under quantized
    /// confusion-matrix signatures (`jury_jq::multiclass_signature`), so
    /// binary and multi-class traffic share one cache.
    ///
    /// A pool that *requires* sessions but whose coarsest possible grid
    /// would overflow the configured dense-box cell budget is refused with
    /// [`ServiceError::MultiClassStateTooLarge`] instead of silently
    /// falling back to the exponential scratch DP.
    ///
    /// ```
    /// use jury_model::MatrixPool;
    /// use jury_service::{JuryService, MultiClassSelectionRequest, ServiceError};
    ///
    /// let pool = MatrixPool::from_qualities_and_costs(
    ///     &[0.9, 0.75, 0.7, 0.65, 0.6],
    ///     &[3.0, 2.0, 1.0, 1.0, 1.0],
    ///     3,
    /// )
    /// .unwrap();
    /// let service = JuryService::paper_experiments();
    /// let response = service
    ///     .select_multiclass(&MultiClassSelectionRequest::new(pool.clone(), 5.0))
    ///     .unwrap();
    /// assert!(response.cost <= 5.0 + 1e-9);
    /// assert_eq!(response.matrix_jury().unwrap().num_choices(), 3);
    ///
    /// // Failures are typed values.
    /// let err = service
    ///     .select_multiclass(&MultiClassSelectionRequest::new(pool, f64::NAN))
    ///     .unwrap_err();
    /// assert!(matches!(err, ServiceError::InvalidBudget { .. }));
    /// ```
    pub fn select_multiclass(
        &self,
        request: &MultiClassSelectionRequest,
    ) -> Result<MultiClassSelectionResponse, ServiceError> {
        self.serve(request, false)
    }

    /// Whether a multi-class pool of this size can be served at all under
    /// the configured cell budget: when the search would *require*
    /// incremental sessions (past both the session crossover and the exact
    /// voting-space cutoff) but even a one-bucket-per-worker grid overflows
    /// `max_cells`, refuse with a typed error instead of silently running
    /// the exponential scratch DP on the serving path.
    fn check_multiclass_capacity(
        objective: &CachedMultiClassObjective<'_>,
        pool: &MatrixPool,
        config: &ServiceConfig,
    ) -> Result<(), ServiceError> {
        // Both halves of the decision live at their own layers: the
        // objective owns the session-gating rule, the incremental config
        // owns the grid geometry — the service only combines them.
        if objective.session_required(pool.len())
            && config
                .multiclass_incremental
                .resolve_buckets(pool.len(), pool.num_choices())
                .is_none()
        {
            return Err(ServiceError::MultiClassStateTooLarge {
                cells: MultiClassIncrementalConfig::min_cells(pool.len(), pool.num_choices()),
                max: config.multiclass_incremental.max_cells as u64,
            });
        }
        Ok(())
    }

    /// The shared batch engine behind [`Self::select_batch`] and
    /// [`Self::repair_batch`]: the items fan out over
    /// [`ServiceConfig::batch_threads`] lanes with dynamic scheduling (see
    /// the private `parallel` module).
    ///
    /// Every serve call runs under `catch_unwind`: a panicking solver fills
    /// its own slot with [`ServiceError::Internal`] instead of unwinding
    /// the batch, and the shared store stays usable (its `parking_lot`
    /// locks do not poison).
    pub(crate) fn run_batch<T, R, F>(&self, items: &[T], serve: F) -> Vec<Result<R, ServiceError>>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> Result<R, ServiceError> + Sync,
    {
        let caught = |item: &T| -> Result<R, ServiceError> {
            std::panic::catch_unwind(AssertUnwindSafe(|| serve(item))).unwrap_or_else(|payload| {
                Err(ServiceError::Internal {
                    reason: panic_reason(payload),
                })
            })
        };
        parallel::map_in_lanes(self.batch_threads(items.len()), items, caught)
    }

    /// One request's trip through the admission gate of the batch entry
    /// points. Never blocks: with admission control off
    /// (`max_in_flight == 0`) the request is served directly; otherwise the
    /// in-flight counter is taken for the duration of the serve, and a
    /// request arriving over capacity is either rejected immediately
    /// ([`OverloadPolicy::Shed`]) or served in coarsened mode
    /// ([`OverloadPolicy::Coarsen`] — the closure's flag).
    fn serve_gated<R>(
        &self,
        counters: &AdmissionCounters,
        serve: impl FnOnce(bool) -> Result<R, ServiceError>,
    ) -> Result<R, ServiceError> {
        let max_in_flight = self.config.max_in_flight;
        if max_in_flight == 0 {
            counters.admitted.fetch_add(1, Ordering::Relaxed);
            return serve(false);
        }
        let occupied = self.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
        let _slot = InFlightGuard(&self.in_flight);
        counters
            .peak_in_flight
            .fetch_max(occupied, Ordering::Relaxed);
        if occupied <= max_in_flight {
            counters.admitted.fetch_add(1, Ordering::Relaxed);
            serve(false)
        } else {
            match self.config.overload {
                OverloadPolicy::Shed => {
                    counters.shed.fetch_add(1, Ordering::Relaxed);
                    Err(ServiceError::Overloaded {
                        in_flight: occupied,
                        max_in_flight,
                    })
                }
                OverloadPolicy::Coarsen => {
                    counters.coarsened.fetch_add(1, Ordering::Relaxed);
                    serve(true)
                }
            }
        }
    }

    /// Serves a batch of requests — [`SelectionRequest`]s,
    /// [`MultiClassSelectionRequest`]s, or [`MixedRequest`]s of both kinds —
    /// data-parallel across [`ServiceConfig::batch_threads`] worker
    /// threads, all sharing this service's JQ-evaluation cache. Every slot
    /// runs through the same request core as [`Self::select`] and
    /// [`Self::select_multiclass`], so a slot answers exactly what the
    /// single call would.
    ///
    /// Failures are per-request: one invalid request yields an `Err` in its
    /// slot without disturbing the others. The result order matches the
    /// request order. When [`ServiceConfig::max_in_flight`] is set, every
    /// request passes the admission gate (see [`OverloadPolicy`]). The
    /// outcome also carries the batch's [`BatchMetrics`]: admission counts,
    /// the in-flight peak, and per-shard cache snapshots.
    ///
    /// ```
    /// use jury_model::paper_example_pool;
    /// use jury_service::{JuryService, SelectionRequest};
    ///
    /// let service = JuryService::paper_experiments();
    /// let batch = vec![SelectionRequest::new(paper_example_pool(), 15.0); 4];
    /// let outcome = service.select_batch(&batch);
    /// assert_eq!(outcome.results.len(), 4);
    /// // Admission control is off by default: everything is admitted.
    /// assert_eq!(outcome.metrics.admitted, 4);
    /// assert_eq!(outcome.metrics.shed + outcome.metrics.coarsened, 0);
    /// assert_eq!(outcome.metrics.shards.len(), 8);
    /// ```
    ///
    /// Mixed batches of both kinds are served the same way (see
    /// [`ServeRequest`]).
    pub fn select_batch<R: ServeRequest>(&self, requests: &[R]) -> BatchOutcome<R::Response> {
        let counters = AdmissionCounters::default();
        let results = self.run_batch(requests, |request| {
            self.serve_gated(&counters, |coarsen| request.serve_in(self, coarsen))
        });
        BatchOutcome {
            results,
            metrics: counters.into_metrics(self.cache.shard_stats()),
        }
    }

    /// [`Self::select_batch`] over a mixed batch. Kept as a named entry
    /// point because the request-level benchmark in `perfbench/` calls it.
    ///
    /// With admission control on, over-capacity slots are shed or
    /// coarsened regardless of their kind:
    ///
    /// ```
    /// use jury_model::paper_example_pool;
    /// use jury_service::{
    ///     JuryService, MixedRequest, OverloadPolicy, SelectionRequest, ServiceConfig,
    /// };
    ///
    /// let service = JuryService::new(
    ///     ServiceConfig::fast()
    ///         .with_max_in_flight(1)
    ///         .with_overload_policy(OverloadPolicy::Coarsen)
    ///         .with_batch_threads(2),
    /// );
    /// let batch: Vec<MixedRequest> =
    ///     vec![SelectionRequest::new(paper_example_pool(), 15.0).into(); 6];
    /// let outcome = service.select_mixed_batch_with_metrics(&batch);
    /// // Coarsening never sheds: every slot is served.
    /// assert!(outcome.results.iter().all(|slot| slot.is_ok()));
    /// assert_eq!(
    ///     outcome.metrics.admitted + outcome.metrics.coarsened,
    ///     batch.len()
    /// );
    /// ```
    pub fn select_mixed_batch_with_metrics(
        &self,
        requests: &[MixedRequest],
    ) -> BatchOutcome<MixedResponse> {
        self.select_batch(requests)
    }

    /// Worker threads for a batch of `batch_len` requests:
    /// [`ServiceConfig::batch_threads`], where `0` means one per available
    /// CPU core, clamped so no thread starts idle.
    fn batch_threads(&self, batch_len: usize) -> usize {
        parallel::lanes(self.config.batch_threads, batch_len)
    }

    /// Builds the Figure-1 style budget–quality table.
    ///
    /// Pools within the exact cutoff are served one selection per budget
    /// through [`Self::select_batch`] (parallel, cached, BV strategy, `Auto`
    /// policy), so small tables stay exhaustively optimal. Larger pools —
    /// where every budget would otherwise pay a full heuristic search — are
    /// served according to the configured [`SweepPolicy`]:
    ///
    /// * [`SweepPolicy::WarmMarginal`] (default) — one marginal-gain search
    ///   state and one incremental JQ session carried from each budget to
    ///   the next ([`jury_selection::BudgetQualityTable::build_warm`]),
    ///   pushing only the marginal workers instead of re-solving cold;
    /// * [`SweepPolicy::WarmAnnealing`] — each budget's annealing run
    ///   seeded with the previous budget's jury
    ///   ([`jury_selection::BudgetQualityTable::build_warm_annealing`]),
    ///   for quality-critical sweeps on heterogeneous costs;
    /// * [`SweepPolicy::Cold`] — one full solve per budget through the
    ///   batch path.
    ///
    /// Every warm row is re-scored by the batch objective. Warm sweeps
    /// score on a private objective that bypasses the shared JQ store: a
    /// sweep's rows are one-shot juries of one pool that no later request
    /// reads, so storing them would only grow the store with every sweep.
    /// Budgets below the cheapest worker yield empty-jury rows, matching
    /// the table's exploratory semantics.
    pub fn budget_quality_table(
        &self,
        pool: &WorkerPool,
        budgets: &[f64],
        prior: Prior,
    ) -> Result<BudgetQualityTable, ServiceError> {
        self.binary_budget_table(pool, budgets, prior, SearchBudget::unlimited())
            .map(|(table, _)| table)
    }

    /// [`Self::budget_quality_table`] under one shared wall-clock deadline
    /// for the whole sweep. Returns the table plus a flag reporting whether
    /// the deadline cut the search short — anytime semantics: a truncated
    /// table's rows are still feasible, budget-respecting juries, they just
    /// may trail what an uncut sweep would have found. The deadline is
    /// polled at the warm sweeps' cooperative checkpoints; on the
    /// small-pool batch path the exhaustive per-budget solves are bounded
    /// by the exact cutoff and run to completion.
    pub fn budget_quality_table_with_deadline(
        &self,
        pool: &WorkerPool,
        budgets: &[f64],
        prior: Prior,
        deadline: Duration,
    ) -> Result<(BudgetQualityTable, bool), ServiceError> {
        self.binary_budget_table(
            pool,
            budgets,
            prior,
            SearchBudget::unlimited().with_deadline_in(deadline),
        )
    }

    fn binary_budget_table(
        &self,
        pool: &WorkerPool,
        budgets: &[f64],
        prior: Prior,
        search_budget: SearchBudget,
    ) -> Result<(BudgetQualityTable, bool), ServiceError> {
        self.budget_table(
            pool.len(),
            budgets,
            search_budget,
            || {
                let objective = BvObjective::with_engine(self.config.jq_engine());
                Ok((Cow::Borrowed(pool), prior, objective))
            },
            |budget| SelectionRequest::new(pool.clone(), budget).with_prior(prior),
        )
    }

    /// Builds the budget–quality table for a **multi-class**
    /// (confusion-matrix) pool — the same sweep-policy routing as
    /// [`Self::budget_quality_table`], with every row scored as
    /// `JQ(J, BV, ~α)` on the full matrices through this service's shared
    /// cache.
    ///
    /// Large pools ride the warm sweeps on the pool's shadow projection
    /// (the solvers move `(id, cost)` candidates; the cached multi-class
    /// objective looks the matrices back up by id), carrying one search
    /// state — and one `IncrementalMultiClassJq` session, past the
    /// crossover cutoff — across ascending budgets. Small pools are solved
    /// per budget through [`Self::select_batch`], exhaustively within the
    /// exact cutoff.
    pub fn multiclass_budget_quality_table(
        &self,
        pool: &MatrixPool,
        budgets: &[f64],
        prior: &CategoricalPrior,
    ) -> Result<BudgetQualityTable, ServiceError> {
        self.budget_table(
            pool.len(),
            budgets,
            SearchBudget::unlimited(),
            || {
                // A prior/pool label-count mismatch is rejected by the
                // objective constructor and surfaces as
                // `ServiceError::InvalidPriorVector` through the
                // `ModelError` conversion.
                let objective =
                    CachedMultiClassObjective::new(pool, prior, &self.config, &self.cache)?;
                Self::check_multiclass_capacity(&objective, pool, &self.config)?;
                // The binary prior slot of the shadow instances is unused —
                // the categorical prior is part of the objective's identity.
                Ok((Cow::Owned(pool.shadow_pool()), Prior::uniform(), objective))
            },
            |budget| {
                MultiClassSelectionRequest::new(pool.clone(), budget).with_prior(prior.clone())
            },
        )
        .map(|(table, _)| table)
    }

    /// The one budget–quality table builder behind both request kinds.
    ///
    /// Pools beyond the exact cutoff ride the configured warm sweep over
    /// the pool, prior and objective `warm` builds. Everything else is
    /// served one request per budget (`request`) through the request core.
    /// Without a deadline the rows go out thread-parallel as one batch.
    /// Under a sweep deadline they are served sequentially instead, each
    /// granted an equal share of the time *still remaining* — recomputed
    /// after every completed row, so time a fast row leaves unspent is
    /// reclaimed by the rows behind it and the whole sweep is bounded by
    /// the one deadline (handing every row the full remainder up front
    /// would let the sweep run for rows × deadline). Rows that exhaust
    /// their share keep their anytime best-so-far jury and flip the
    /// truncation flag instead of erroring.
    fn budget_table<'p, R: RequestKind, O: JuryObjective>(
        &self,
        pool_len: usize,
        budgets: &[f64],
        search_budget: SearchBudget,
        warm: impl FnOnce() -> Result<(Cow<'p, WorkerPool>, Prior, O), ServiceError>,
        request: impl Fn(f64) -> R,
    ) -> Result<(BudgetQualityTable, bool), ServiceError> {
        let beyond_exact = pool_len > self.config.exact_cutoff.min(MAX_EXHAUSTIVE_POOL);
        if beyond_exact && self.config.sweep != SweepPolicy::Cold {
            Self::validate_sweep_budgets(budgets)?;
            let (pool, prior, objective) = warm()?;
            return Ok(match self.config.sweep {
                SweepPolicy::WarmMarginal => BudgetQualityTable::build_warm_budgeted(
                    &pool,
                    budgets,
                    prior,
                    &objective,
                    search_budget,
                ),
                SweepPolicy::WarmAnnealing => BudgetQualityTable::build_warm_annealing_budgeted(
                    &pool,
                    budgets,
                    prior,
                    &objective,
                    self.config.annealing,
                    search_budget,
                ),
                SweepPolicy::Cold => unreachable!("cold sweeps take the batch path"),
            });
        }
        let row_request = |budget: f64, deadline: Option<Duration>| {
            let mut request = request(budget);
            let common = request.common_mut();
            common.allow_empty = true;
            common.max_evaluations = search_budget.max_evaluations();
            common.deadline = deadline;
            request
        };
        let results: Vec<Result<R::Response, ServiceError>> = match search_budget.deadline() {
            Some(at) => budgets
                .iter()
                .enumerate()
                .map(|(row, &budget)| {
                    let rows_left = (budgets.len() - row) as u32;
                    let share = at.saturating_duration_since(Instant::now()) / rows_left;
                    self.serve(&row_request(budget, Some(share)), false)
                })
                .collect(),
            None => {
                let requests: Vec<R> = budgets
                    .iter()
                    .map(|&budget| row_request(budget, None))
                    .collect();
                self.select_batch(&requests).results
            }
        };
        let mut truncated = false;
        let rows = results
            .into_iter()
            .zip(budgets)
            .map(|(result, &budget)| {
                let response = match result {
                    Ok(response) => R::into_mixed(response),
                    Err(ServiceError::DeadlineExceeded {
                        best_so_far: Some(best),
                    }) => {
                        truncated = true;
                        *best
                    }
                    Err(err) => return Err(err),
                };
                let (jury, quality, required_budget) = match response {
                    MixedResponse::Binary(r) => (r.worker_ids(), r.quality, r.cost),
                    MixedResponse::MultiClass(r) => (r.worker_ids(), r.quality, r.cost),
                };
                Ok(BudgetQualityRow {
                    budget,
                    jury,
                    quality,
                    required_budget,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok((BudgetQualityTable::from_rows(rows), truncated))
    }

    /// The warm sweep builders assert on bad budgets (their per-budget
    /// instances would); the service validates them up front so the table
    /// entry points keep the no-panic contract.
    fn validate_sweep_budgets(budgets: &[f64]) -> Result<(), ServiceError> {
        for &budget in budgets {
            if !budget.is_finite() || budget < 0.0 {
                return Err(ServiceError::InvalidBudget { value: budget });
            }
        }
        Ok(())
    }
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for crate::SelectionRequest {}
    impl Sealed for crate::MultiClassSelectionRequest {}
    impl Sealed for crate::MixedRequest {}
}

/// A request [`JuryService::select_batch`] can serve: a
/// [`SelectionRequest`], a [`MultiClassSelectionRequest`], or a
/// [`MixedRequest`] of either kind. Sealed: the service's request core
/// knows exactly these kinds.
///
/// A mixed batch serves both kinds side by side; they memoize into the one
/// shared store (their signature key spaces are disjoint):
///
/// ```
/// use jury_model::{paper_example_pool, MatrixPool};
/// use jury_service::{JuryService, MixedRequest, MultiClassSelectionRequest, SelectionRequest};
///
/// let service = JuryService::paper_experiments();
/// let matrix_pool =
///     MatrixPool::from_qualities_and_costs(&[0.9, 0.7, 0.6], &[2.0, 1.0, 1.0], 3).unwrap();
/// let mixed: Vec<MixedRequest> = vec![
///     SelectionRequest::new(paper_example_pool(), 15.0).into(),
///     MultiClassSelectionRequest::new(matrix_pool, 3.0).into(),
/// ];
/// let responses = service.select_batch(&mixed).results;
/// assert!(responses[0].as_ref().unwrap().as_binary().is_some());
/// assert!(responses[1].as_ref().unwrap().as_multi_class().is_some());
/// ```
pub trait ServeRequest: sealed::Sealed + Sync {
    /// What one served request answers with.
    type Response: Send;

    /// Serves the request through the service's request core; `coarsen`
    /// downgrades its solver policy to [`SolverPolicy::Greedy`].
    #[doc(hidden)]
    fn serve_in(
        &self,
        service: &JuryService,
        coarsen: bool,
    ) -> Result<Self::Response, ServiceError>;
}

/// The kind-specific steps of the request core ([`JuryService::serve`]).
trait RequestKind: ServeRequest {
    /// The validated task prior.
    type Prior;
    /// The cache-backed objective the search scores juries with.
    type Objective<'c>: JuryObjective;

    /// The fields both kinds share.
    fn common(&self) -> &RequestCommon;
    /// Mutable access to the shared fields (for per-budget table rows).
    fn common_mut(&mut self) -> &mut RequestCommon;
    /// Validates the prior — the first check the core runs.
    fn prior(&self) -> Result<Self::Prior, ServiceError>;
    /// The cheapest candidate's cost, `None` for an empty pool.
    fn cheapest_cost(&self) -> Option<f64>;
    /// Builds the search instance and the cache-backed objective. The
    /// multi-class kind also refuses pools whose session grid cannot fit
    /// the configured cell budget here.
    fn build<'c>(
        &self,
        prior: Self::Prior,
        policy: &SolverPolicy,
        config: &ServiceConfig,
        cache: &'c JqCache,
    ) -> Result<(JspInstance, Self::Objective<'c>), ServiceError>;
    /// Whether large `Auto` pools run the [`MvjsSolver`] baseline instead
    /// of plain annealing.
    fn mv_baseline(&self) -> bool {
        false
    }
    /// Builds the response from the solver's result.
    fn respond(
        &self,
        objective: &Self::Objective<'_>,
        result: SolverResult,
        policy: SolverPolicy,
        started: Instant,
    ) -> Self::Response;
    /// Wraps a response for [`ServiceError::DeadlineExceeded`].
    fn into_mixed(response: Self::Response) -> MixedResponse;
}

/// The cheapest of a pool's costs, `None` for an empty pool.
fn cheapest(costs: impl Iterator<Item = f64>) -> Option<f64> {
    costs.min_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
}

impl ServeRequest for SelectionRequest {
    type Response = SelectionResponse;

    fn serve_in(
        &self,
        service: &JuryService,
        coarsen: bool,
    ) -> Result<SelectionResponse, ServiceError> {
        service.serve(self, coarsen)
    }
}

impl RequestKind for SelectionRequest {
    type Prior = Prior;
    type Objective<'c> = CachedObjective<'c>;

    fn common(&self) -> &RequestCommon {
        &self.common
    }

    fn common_mut(&mut self) -> &mut RequestCommon {
        &mut self.common
    }

    fn prior(&self) -> Result<Prior, ServiceError> {
        Prior::new(self.prior_alpha()).map_err(|_| ServiceError::InvalidPrior {
            value: self.prior_alpha(),
        })
    }

    fn cheapest_cost(&self) -> Option<f64> {
        cheapest(self.pool().iter().map(|w| w.cost()))
    }

    fn build<'c>(
        &self,
        prior: Prior,
        _policy: &SolverPolicy,
        config: &ServiceConfig,
        cache: &'c JqCache,
    ) -> Result<(JspInstance, CachedObjective<'c>), ServiceError> {
        let instance = JspInstance::new(self.pool().clone(), self.budget(), prior)?;
        let objective = CachedObjective::new(config.jq_engine(), self.strategy(), cache);
        Ok((instance, objective))
    }

    // The MV baseline keeps its odd-size top-quality candidates on large
    // `Auto` pools, exactly like the historical Mvjs system.
    fn mv_baseline(&self) -> bool {
        self.strategy() == Strategy::Mv
    }

    fn respond(
        &self,
        objective: &CachedObjective<'_>,
        result: SolverResult,
        policy: SolverPolicy,
        started: Instant,
    ) -> SelectionResponse {
        SelectionResponse {
            quality: result.objective_value,
            cost: result.jury.cost(),
            jury: result.jury,
            strategy: self.strategy(),
            policy,
            solver: result.solver,
            evaluations: objective.evaluations(),
            cache_hits: objective.local_hits(),
            elapsed: started.elapsed(),
        }
    }

    fn into_mixed(response: SelectionResponse) -> MixedResponse {
        MixedResponse::Binary(response)
    }
}

impl ServeRequest for MultiClassSelectionRequest {
    type Response = MultiClassSelectionResponse;

    fn serve_in(
        &self,
        service: &JuryService,
        coarsen: bool,
    ) -> Result<MultiClassSelectionResponse, ServiceError> {
        service.serve(self, coarsen)
    }
}

impl RequestKind for MultiClassSelectionRequest {
    type Prior = CategoricalPrior;
    type Objective<'c> = CachedMultiClassObjective<'c>;

    fn common(&self) -> &RequestCommon {
        &self.common
    }

    fn common_mut(&mut self) -> &mut RequestCommon {
        &mut self.common
    }

    fn prior(&self) -> Result<CategoricalPrior, ServiceError> {
        Ok(match self.prior_probs() {
            Some(probs) => CategoricalPrior::new(probs.to_vec())?,
            None => CategoricalPrior::uniform(self.pool().num_choices())?,
        })
    }

    // A `MatrixPool` cannot be empty, so the empty-pool check never fires.
    fn cheapest_cost(&self) -> Option<f64> {
        cheapest(self.pool().iter().map(|w| w.cost()))
    }

    fn build<'c>(
        &self,
        prior: CategoricalPrior,
        policy: &SolverPolicy,
        config: &ServiceConfig,
        cache: &'c JqCache,
    ) -> Result<(JspInstance, CachedMultiClassObjective<'c>), ServiceError> {
        let pool = self.pool();
        // A prior whose label count disagrees with the pool's is rejected
        // here and surfaces as `ServiceError::InvalidPriorVector` through
        // the `ModelError` conversion.
        let objective = CachedMultiClassObjective::new(pool, &prior, config, cache)?;
        if *policy != SolverPolicy::Exact {
            JuryService::check_multiclass_capacity(&objective, pool, config)?;
        }
        // The solvers run over the pool's shadow projection (ids and
        // costs) while the objective scores the full matrices; the binary
        // prior slot is unused.
        let instance = JspInstance::new(pool.shadow_pool(), self.budget(), Prior::uniform())?;
        Ok((instance, objective))
    }

    fn respond(
        &self,
        objective: &CachedMultiClassObjective<'_>,
        result: SolverResult,
        policy: SolverPolicy,
        started: Instant,
    ) -> MultiClassSelectionResponse {
        // The objective's own resolution (borrowed members, foreign ids
        // dropped) is the single source of truth for what was scored.
        let members = objective
            .members(&result.jury)
            .into_iter()
            .cloned()
            .collect();
        MultiClassSelectionResponse {
            quality: result.objective_value,
            cost: result.jury.cost(),
            members,
            policy,
            solver: result.solver,
            evaluations: objective.evaluations(),
            cache_hits: objective.local_hits(),
            elapsed: started.elapsed(),
        }
    }

    fn into_mixed(response: MultiClassSelectionResponse) -> MixedResponse {
        MixedResponse::MultiClass(response)
    }
}

impl ServeRequest for MixedRequest {
    type Response = MixedResponse;

    fn serve_in(
        &self,
        service: &JuryService,
        coarsen: bool,
    ) -> Result<MixedResponse, ServiceError> {
        match self {
            MixedRequest::Binary(request) => {
                service.serve(request, coarsen).map(MixedResponse::Binary)
            }
            MixedRequest::MultiClass(request) => service
                .serve(request, coarsen)
                .map(MixedResponse::MultiClass),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jury_model::{paper_example_pool, WorkerId, WorkerPool};

    fn paper_service() -> JuryService {
        JuryService::paper_experiments()
    }

    #[test]
    fn paper_example_selects_bcg_at_budget_15() {
        let service = paper_service();
        let response = service
            .select(&SelectionRequest::new(paper_example_pool(), 15.0))
            .unwrap();
        assert_eq!(
            response.worker_ids(),
            vec![WorkerId(1), WorkerId(2), WorkerId(6)]
        );
        assert!((response.quality - 0.845).abs() < 1e-9);
        assert!((response.cost - 14.0).abs() < 1e-9);
        assert_eq!(response.strategy, Strategy::Bv);
        assert_eq!(response.solver, "exhaustive");
        assert!(response.evaluations > 0);
    }

    fn assert_same_binary(got: &SelectionResponse, want: &SelectionResponse, threads: usize) {
        assert_eq!(got.worker_ids(), want.worker_ids(), "{threads} threads");
        assert_eq!(
            got.quality.to_bits(),
            want.quality.to_bits(),
            "{threads} threads"
        );
        assert_eq!(got.evaluations, want.evaluations, "{threads} threads");
        assert_eq!(got.solver, want.solver, "{threads} threads");
    }

    fn assert_same_multi(
        got: &MultiClassSelectionResponse,
        want: &MultiClassSelectionResponse,
        threads: usize,
    ) {
        assert_eq!(got.worker_ids(), want.worker_ids(), "{threads} threads");
        assert_eq!(
            got.quality.to_bits(),
            want.quality.to_bits(),
            "{threads} threads"
        );
        assert_eq!(got.evaluations, want.evaluations, "{threads} threads");
        assert_eq!(got.solver, want.solver, "{threads} threads");
    }

    #[test]
    fn select_batch_matches_select_and_shares_the_cache() {
        // `batch_threads` is the service's only thread level, so the
        // thread-count invariance of serving is pinned here: at 1, 2 and 4
        // batch threads, every slot of a binary, multi-class or mixed batch
        // answers exactly what the single call on the same service
        // answers, bit for bit, and the answers do not depend on the
        // thread count either.
        let binary = [
            SelectionRequest::new(paper_example_pool(), 15.0),
            SelectionRequest::new(large_pool(40), 5.0)
                .with_policy(SolverPolicy::Portfolio(Vec::new())),
            SelectionRequest::new(large_pool(40), 5.0).with_policy(SolverPolicy::Greedy),
        ];
        let multi = [
            MultiClassSelectionRequest::new(matrix_pool(), 6.0),
            MultiClassSelectionRequest::new(large_matrix_pool(16), 5.0)
                .with_policy(SolverPolicy::Annealing),
        ];
        let mut reference: Option<(Vec<SelectionResponse>, Vec<MultiClassSelectionResponse>)> =
            None;
        for threads in [1, 2, 4] {
            let service =
                JuryService::new(ServiceConfig::paper_experiments().with_batch_threads(threads));
            let singles: Vec<SelectionResponse> = binary
                .iter()
                .map(|request| service.select(request).unwrap())
                .collect();
            let multi_singles: Vec<MultiClassSelectionResponse> = multi
                .iter()
                .map(|request| service.select_multiclass(request).unwrap())
                .collect();
            let warm = service.cache_stats();

            let batch: Vec<SelectionRequest> = binary.iter().chain(&binary).cloned().collect();
            let outcome = service.select_batch(&batch);
            assert_eq!(outcome.results.len(), batch.len());
            for (slot, result) in outcome.results.iter().enumerate() {
                let response = result.as_ref().unwrap();
                assert_same_binary(response, &singles[slot % binary.len()], threads);
            }
            let batch: Vec<MultiClassSelectionRequest> =
                multi.iter().chain(&multi).cloned().collect();
            for (slot, result) in service.select_batch(&batch).results.iter().enumerate() {
                let response = result.as_ref().unwrap();
                assert_same_multi(response, &multi_singles[slot % multi.len()], threads);
            }
            let mixed: Vec<MixedRequest> = binary
                .iter()
                .cloned()
                .map(MixedRequest::from)
                .chain(multi.iter().cloned().map(MixedRequest::from))
                .collect();
            for (slot, result) in service.select_batch(&mixed).results.iter().enumerate() {
                match result.as_ref().unwrap() {
                    MixedResponse::Binary(response) => {
                        assert_same_binary(response, &singles[slot], threads)
                    }
                    MixedResponse::MultiClass(response) => {
                        assert_same_multi(response, &multi_singles[slot - binary.len()], threads)
                    }
                }
            }
            // The batches replay the singles' evaluations, so every batch
            // evaluation is a hit in the shared store.
            let stats = service.cache_stats();
            assert_eq!(stats.misses, warm.misses, "{threads} threads: {stats:?}");
            assert!(stats.hits > warm.hits, "{threads} threads: {stats:?}");

            // Across services the juries and evaluation counts agree
            // exactly; the quality only to rounding, because the
            // multi-class scratch DP sums in hash-map order.
            match &reference {
                None => reference = Some((singles, multi_singles)),
                Some((binary_ref, multi_ref)) => {
                    for (got, want) in singles.iter().zip(binary_ref) {
                        assert_eq!(got.worker_ids(), want.worker_ids(), "{threads} threads");
                        assert_eq!(got.evaluations, want.evaluations, "{threads} threads");
                        assert!((got.quality - want.quality).abs() < 1e-12);
                    }
                    for (got, want) in multi_singles.iter().zip(multi_ref) {
                        assert_eq!(got.worker_ids(), want.worker_ids(), "{threads} threads");
                        assert_eq!(got.evaluations, want.evaluations, "{threads} threads");
                        assert!((got.quality - want.quality).abs() < 1e-12);
                    }
                }
            }
        }
    }

    #[test]
    fn mv_strategy_reproduces_the_mvjs_baseline() {
        let service = paper_service();
        let response = service
            .select(&SelectionRequest::new(paper_example_pool(), 20.0).with_strategy(Strategy::Mv))
            .unwrap();
        // The MV-optimal jury at B = 20 is {A, C, G} (the introduction's
        // prior-work solution).
        assert_eq!(
            response.worker_ids(),
            vec![WorkerId(0), WorkerId(2), WorkerId(6)]
        );
        let bv = service
            .select(&SelectionRequest::new(paper_example_pool(), 20.0))
            .unwrap();
        assert!(bv.quality >= response.quality - 1e-9);
    }

    #[test]
    fn policies_agree_on_the_paper_pool() {
        let service = paper_service();
        let mut qualities = Vec::new();
        for policy in [
            SolverPolicy::Auto,
            SolverPolicy::Exact,
            SolverPolicy::Annealing,
            SolverPolicy::Greedy,
        ] {
            let response = service
                .select(
                    &SelectionRequest::new(paper_example_pool(), 15.0).with_policy(policy.clone()),
                )
                .unwrap();
            assert!(response.cost <= 15.0 + 1e-9, "{policy}");
            qualities.push((policy, response.quality));
        }
        let exact = qualities[1].1;
        for (policy, quality) in qualities {
            assert!(quality <= exact + 1e-9, "{policy} beat exact");
        }
    }

    #[test]
    fn exact_policy_fails_cleanly_on_large_pools() {
        let pool = WorkerPool::from_qualities_and_costs(&[0.7; 23], &[1.0; 23]).unwrap();
        let service = paper_service();
        let err = service
            .select(&SelectionRequest::new(pool, 5.0).with_policy(SolverPolicy::Exact))
            .unwrap_err();
        assert_eq!(
            err,
            ServiceError::PoolTooLargeForExact {
                size: 23,
                max: MAX_EXHAUSTIVE_POOL
            }
        );
    }

    #[test]
    fn per_request_config_overrides_apply() {
        let service = JuryService::new(ServiceConfig::default());
        // Force the annealing path on the 7-worker pool by lowering the
        // exact cutoff to zero for this request only.
        let response = service
            .select(
                &SelectionRequest::new(paper_example_pool(), 15.0)
                    .with_config(ServiceConfig::default().with_exact_cutoff(0)),
            )
            .unwrap();
        assert_eq!(response.solver, "simulated-annealing");
        assert!((response.quality - 0.845).abs() < 1e-6);
    }

    #[test]
    fn budget_quality_table_reproduces_figure_1() {
        let service = paper_service();
        let table = service
            .budget_quality_table(
                &paper_example_pool(),
                &[5.0, 10.0, 15.0, 20.0],
                Prior::uniform(),
            )
            .unwrap();
        let qualities: Vec<f64> = table.rows().iter().map(|r| r.quality).collect();
        let expected = [0.75, 0.80, 0.845, 0.8695];
        for (got, want) in qualities.iter().zip(expected.iter()) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
        assert!((table.rows()[2].required_budget - 14.0).abs() < 1e-9);
    }

    #[test]
    fn empty_jury_allowed_when_opted_in() {
        let pool = WorkerPool::from_qualities_and_costs(&[0.8], &[5.0]).unwrap();
        let service = paper_service();
        let response = service
            .select(&SelectionRequest::new(pool, 1.0).allow_empty_selection(true))
            .unwrap();
        assert!(response.jury.is_empty());
        assert!((response.quality - 0.5).abs() < 1e-12);
        assert_eq!(response.cost, 0.0);
    }

    #[test]
    fn empty_pool_yields_empty_jury_when_opted_in() {
        // Seed semantics for the facades: an empty candidate set (e.g. a
        // dataset task nobody answered) selects the empty jury instead of
        // erroring.
        let service = paper_service();
        let request = SelectionRequest::new(WorkerPool::new(), 1.0).allow_empty_selection(true);
        let response = service.select(&request).unwrap();
        assert!(response.jury.is_empty());
        assert!((response.quality - 0.5).abs() < 1e-12);
        // Without the opt-in it stays an error.
        let strict = SelectionRequest::new(WorkerPool::new(), 1.0);
        assert_eq!(
            service.select(&strict).unwrap_err(),
            ServiceError::EmptyPool
        );
    }

    #[test]
    fn large_pools_run_the_incremental_search_path() {
        // 40 candidates is well above the exact cutoff, so Auto/Annealing
        // steer through the incremental BV engine and Greedy adds the
        // marginal-gain probes; results must stay feasible, non-trivial, and
        // deterministic.
        let qualities: Vec<f64> = (0..40).map(|i| 0.52 + 0.012 * (i % 30) as f64).collect();
        let costs: Vec<f64> = (0..40).map(|i| 0.5 + (i % 7) as f64 * 0.25).collect();
        let pool = WorkerPool::from_qualities_and_costs(&qualities, &costs).unwrap();
        let service = paper_service();
        for policy in [
            SolverPolicy::Auto,
            SolverPolicy::Annealing,
            SolverPolicy::Greedy,
        ] {
            let request = SelectionRequest::new(pool.clone(), 5.0).with_policy(policy.clone());
            let response = service.select(&request).unwrap();
            assert!(response.cost <= 5.0 + 1e-9, "{policy}");
            assert!(!response.jury.is_empty(), "{policy}");
            assert!(response.quality >= 0.5, "{policy}");
            assert!(response.evaluations > 0, "{policy}");
            let again = service.select(&request).unwrap();
            assert_eq!(response.worker_ids(), again.worker_ids(), "{policy}");
        }
        // The MV strategy drives the incremental Poisson-binomial engine.
        let mv = service
            .select(&SelectionRequest::new(pool, 5.0).with_strategy(Strategy::Mv))
            .unwrap();
        assert!(mv.quality >= 0.5);
    }

    #[test]
    fn warm_sweep_matches_cold_per_budget_solves_on_large_uniform_pools() {
        // Uniform costs and descending qualities: the warm marginal sweep,
        // the cold annealing solves, and Lemma 2's top-k optimum all agree,
        // so the two execution paths must produce the same row qualities.
        let qualities: Vec<f64> = (0..24).map(|i| 0.9 - 0.012 * i as f64).collect();
        let pool = WorkerPool::from_qualities_and_costs(&qualities, &[1.0; 24]).unwrap();
        let budgets = [2.0, 4.0, 6.0, 9.0];

        let warm_service = JuryService::new(ServiceConfig::fast());
        let store_before = warm_service.cache_stats();
        let warm = warm_service
            .budget_quality_table(&pool, &budgets, Prior::uniform())
            .unwrap();
        let cold_service =
            JuryService::new(ServiceConfig::fast().with_sweep_policy(SweepPolicy::Cold));
        let cold = cold_service
            .budget_quality_table(&pool, &budgets, Prior::uniform())
            .unwrap();

        let mut previous = 0.0;
        for (w, c) in warm.rows().iter().zip(cold.rows()) {
            assert!(
                (w.quality - c.quality).abs() < 1e-9,
                "budget {}: warm {} vs cold {}",
                w.budget,
                w.quality,
                c.quality
            );
            assert!(w.required_budget <= w.budget + 1e-9);
            assert!(
                w.quality >= previous - 1e-12,
                "warm rows must stay monotone"
            );
            previous = w.quality;
        }
        // Warm sweeps score on a private objective: the shared store is
        // left exactly as it was.
        assert_eq!(warm_service.cache_stats(), store_before);
    }

    #[test]
    fn warm_sweep_validates_budgets() {
        let qualities: Vec<f64> = (0..20).map(|i| 0.85 - 0.01 * i as f64).collect();
        let pool = WorkerPool::from_qualities_and_costs(&qualities, &[1.0; 20]).unwrap();
        let service = JuryService::new(ServiceConfig::fast());
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let err = service
                .budget_quality_table(&pool, &[1.0, bad], Prior::uniform())
                .unwrap_err();
            assert!(matches!(err, ServiceError::InvalidBudget { .. }), "{bad}");
        }
    }

    #[test]
    fn small_pools_keep_the_exhaustive_table_path() {
        // The paper pool is within the exact cutoff, so the warm-sweep flag
        // must not change the exhaustively-optimal Figure 1 rows.
        let service = paper_service();
        assert!(service.config().warm_sweeps());
        let table = service
            .budget_quality_table(
                &paper_example_pool(),
                &[5.0, 10.0, 15.0, 20.0],
                Prior::uniform(),
            )
            .unwrap();
        assert!((table.rows()[3].quality - 0.8695).abs() < 1e-9);
    }

    #[test]
    fn warm_annealing_sweep_matches_cold_rows_on_large_uniform_pools() {
        // Same Lemma-2 territory as the marginal warm-sweep test: on a
        // uniform-cost pool the seeded annealing sweep, the marginal sweep,
        // and the cold solves must all land on the same row qualities.
        let qualities: Vec<f64> = (0..24).map(|i| 0.9 - 0.012 * i as f64).collect();
        let pool = WorkerPool::from_qualities_and_costs(&qualities, &[1.0; 24]).unwrap();
        let budgets = [2.0, 4.0, 6.0, 9.0];

        let annealing_service =
            JuryService::new(ServiceConfig::fast().with_sweep_policy(SweepPolicy::WarmAnnealing));
        let warm = annealing_service
            .budget_quality_table(&pool, &budgets, Prior::uniform())
            .unwrap();
        let cold_service =
            JuryService::new(ServiceConfig::fast().with_sweep_policy(SweepPolicy::Cold));
        let cold = cold_service
            .budget_quality_table(&pool, &budgets, Prior::uniform())
            .unwrap();
        let mut previous = 0.0;
        for (w, c) in warm.rows().iter().zip(cold.rows()) {
            assert!(
                (w.quality - c.quality).abs() < 1e-9,
                "budget {}: warm-annealing {} vs cold {}",
                w.budget,
                w.quality,
                c.quality
            );
            assert!(w.quality >= previous - 1e-12, "rows must stay monotone");
            previous = w.quality;
        }
        // Bad budgets stay typed errors on this path too.
        let err = annealing_service
            .budget_quality_table(&pool, &[1.0, f64::NAN], Prior::uniform())
            .unwrap_err();
        assert!(matches!(err, ServiceError::InvalidBudget { .. }));
    }

    #[test]
    fn batch_threads_clamp_to_batch_length() {
        let service = JuryService::new(ServiceConfig::default().with_batch_threads(16));
        assert_eq!(service.batch_threads(1), 1);
        assert_eq!(service.batch_threads(4), 4);
        assert_eq!(service.batch_threads(100), 16);
        let auto = JuryService::default();
        assert!(auto.batch_threads(1000) >= 1);
    }

    use jury_model::{CategoricalPrior, MatrixPool};

    fn matrix_pool() -> MatrixPool {
        MatrixPool::from_qualities_and_costs(
            &[0.9, 0.6, 0.7, 0.8, 0.65],
            &[2.0, 2.0, 2.0, 2.0, 2.0],
            3,
        )
        .unwrap()
    }

    /// A 3-class pool past the exact cutoff but below the session
    /// crossover: heuristic searches over the scratch DP.
    fn large_matrix_pool(n: usize) -> MatrixPool {
        let qualities: Vec<f64> = (0..n).map(|i| 0.55 + 0.02 * (i % 12) as f64).collect();
        let costs: Vec<f64> = (0..n).map(|i| 0.5 + (i % 5) as f64 * 0.5).collect();
        MatrixPool::from_qualities_and_costs(&qualities, &costs, 3).unwrap()
    }

    #[test]
    fn multiclass_select_round_trips_the_exhaustive_optimum() {
        let service = paper_service();
        let request = MultiClassSelectionRequest::new(matrix_pool(), 6.0);
        let response = service.select_multiclass(&request).unwrap();
        assert_eq!(response.solver, "exhaustive");
        assert_eq!(response.policy, SolverPolicy::Auto);
        assert!(response.cost <= 6.0 + 1e-9);
        assert!(response.quality >= 1.0 / 3.0);
        assert!(response.evaluations > 0);
        let jury = response.matrix_jury().unwrap();
        assert_eq!(jury.num_choices(), 3);
        // Same request again: all evaluations come back from the cache.
        let again = service.select_multiclass(&request).unwrap();
        assert_eq!(again.worker_ids(), response.worker_ids());
        assert!(again.cache_hits > 0);
        let stats = service.cache_stats();
        assert!(stats.multiclass.hits > 0);
        assert_eq!(stats.binary, crate::cache::CacheKindStats::default());
    }

    #[test]
    fn multiclass_batch_matches_single_selects() {
        let service = paper_service();
        let request = MultiClassSelectionRequest::new(matrix_pool(), 6.0);
        let single = service.select_multiclass(&request).unwrap();
        let batch: Vec<MultiClassSelectionRequest> = (0..16).map(|_| request.clone()).collect();
        for response in service.select_batch(&batch).results {
            let response = response.unwrap();
            assert_eq!(response.worker_ids(), single.worker_ids());
            assert!((response.quality - single.quality).abs() < 1e-12);
        }
    }

    #[test]
    fn mixed_batches_serve_both_kinds_and_share_the_store() {
        let service = paper_service();
        let mut batch: Vec<MixedRequest> = Vec::new();
        for _ in 0..8 {
            batch.push(SelectionRequest::new(paper_example_pool(), 15.0).into());
            batch.push(MultiClassSelectionRequest::new(matrix_pool(), 6.0).into());
        }
        let responses = service.select_batch(&batch).results;
        assert_eq!(responses.len(), 16);
        for (i, response) in responses.iter().enumerate() {
            let response = response.as_ref().unwrap();
            if i % 2 == 0 {
                let binary = response.as_binary().unwrap();
                assert!((binary.quality - 0.845).abs() < 1e-9);
            } else {
                let multi = response.as_multi_class().unwrap();
                assert!(multi.quality >= 1.0 / 3.0);
            }
        }
        let stats = service.cache_stats();
        assert!(stats.binary.hits > 0, "{stats:?}");
        assert!(stats.multiclass.hits > 0, "{stats:?}");
        assert_eq!(stats.hits, stats.binary.hits + stats.multiclass.hits);
    }

    /// An outcome's shape: the error variant (or `"ok"`), and whether the
    /// response it carries, if any, is binary.
    fn shape(result: Result<MixedResponse, ServiceError>) -> (&'static str, Option<bool>) {
        let binary = |response: &MixedResponse| Some(response.as_binary().is_some());
        match result {
            Ok(response) => ("ok", binary(&response)),
            Err(ServiceError::InvalidBudget { .. }) => ("InvalidBudget", None),
            Err(ServiceError::BudgetBelowCheapestWorker { .. }) => {
                ("BudgetBelowCheapestWorker", None)
            }
            Err(ServiceError::DeadlineExceeded {
                best_so_far: Some(best),
            }) => ("DeadlineExceeded", binary(&best)),
            Err(err) => panic!("unexpected error: {err}"),
        }
    }

    #[test]
    fn multiclass_error_paths_are_typed() {
        // Both kinds share one validation contract: every case gives the
        // same outcome through `select`, `select_multiclass`, and
        // `select_batch` of each kind (and mixed). Both pools' cheapest
        // worker costs 2.
        let service = paper_service();
        let cases: [(f64, bool, Option<u64>, &str); 8] = [
            (f64::NAN, false, None, "InvalidBudget"),
            (f64::INFINITY, false, None, "InvalidBudget"),
            (-2.0, false, None, "InvalidBudget"),
            (0.0, false, None, "InvalidBudget"),
            (0.0, true, None, "ok"),
            (1.0, false, None, "BudgetBelowCheapestWorker"),
            (1.0, true, None, "ok"),
            (6.0, false, Some(0), "DeadlineExceeded"),
        ];
        for (budget, allow_empty, cap, expected) in cases {
            let mut binary = SelectionRequest::new(paper_example_pool(), budget)
                .with_policy(SolverPolicy::Annealing)
                .allow_empty_selection(allow_empty);
            let mut multi = MultiClassSelectionRequest::new(matrix_pool(), budget)
                .with_policy(SolverPolicy::Annealing)
                .allow_empty_selection(allow_empty);
            if let Some(cap) = cap {
                binary = binary.with_evaluation_limit(cap);
                multi = multi.with_evaluation_limit(cap);
            }
            let mixed: Vec<MixedRequest> = vec![binary.clone().into(), multi.clone().into()];
            let mut mixed_results = service.select_batch(&mixed).results.into_iter();
            let outcomes = [
                (
                    shape(service.select(&binary).map(MixedResponse::Binary)),
                    true,
                ),
                (
                    shape(
                        service.select_batch(std::slice::from_ref(&binary)).results[0]
                            .clone()
                            .map(MixedResponse::Binary),
                    ),
                    true,
                ),
                (shape(mixed_results.next().unwrap()), true),
                (
                    shape(
                        service
                            .select_multiclass(&multi)
                            .map(MixedResponse::MultiClass),
                    ),
                    false,
                ),
                (
                    shape(
                        service.select_batch(std::slice::from_ref(&multi)).results[0]
                            .clone()
                            .map(MixedResponse::MultiClass),
                    ),
                    false,
                ),
                (shape(mixed_results.next().unwrap()), false),
            ];
            for (path, ((variant, carried), is_binary)) in outcomes.into_iter().enumerate() {
                let case = format!("budget {budget}, allow_empty {allow_empty}, path {path}");
                assert_eq!(variant, expected, "{case}");
                if let Some(carried_binary) = carried {
                    assert_eq!(carried_binary, is_binary, "{case}: wrong response kind");
                }
            }
        }

        // A coarsened slot reports the greedy policy, whatever its kind.
        // Pre-occupying the only in-flight slot makes every batch slot
        // arrive over capacity, so the coarsening is deterministic.
        let coarsening = JuryService::new(
            ServiceConfig::paper_experiments()
                .with_max_in_flight(1)
                .with_overload_policy(OverloadPolicy::Coarsen)
                .with_batch_threads(2),
        );
        coarsening.in_flight.store(1, Ordering::SeqCst);
        let binary =
            SelectionRequest::new(paper_example_pool(), 15.0).with_policy(SolverPolicy::Annealing);
        let multi = MultiClassSelectionRequest::new(matrix_pool(), 6.0)
            .with_policy(SolverPolicy::Annealing);
        let outcome = coarsening.select_batch(&[binary.clone(), binary.clone()]);
        assert_eq!(outcome.metrics.coarsened, 2);
        for result in &outcome.results {
            assert_eq!(result.as_ref().unwrap().policy, SolverPolicy::Greedy);
        }
        let outcome = coarsening.select_batch(&[multi.clone(), multi.clone()]);
        assert_eq!(outcome.metrics.coarsened, 2);
        for result in &outcome.results {
            assert_eq!(result.as_ref().unwrap().policy, SolverPolicy::Greedy);
        }
        let outcome = coarsening.select_batch(&[MixedRequest::from(binary), multi.into()]);
        assert_eq!(outcome.metrics.coarsened, 2);
        for result in &outcome.results {
            let policy = match result.as_ref().unwrap() {
                MixedResponse::Binary(response) => &response.policy,
                MixedResponse::MultiClass(response) => &response.policy,
            };
            assert_eq!(*policy, SolverPolicy::Greedy);
        }

        // Invalid prior vectors (not a distribution / wrong arity).
        let err = service
            .select_multiclass(
                &MultiClassSelectionRequest::new(matrix_pool(), 6.0)
                    .with_prior_probs(vec![0.7, 0.7, 0.7]),
            )
            .unwrap_err();
        assert!(matches!(err, ServiceError::InvalidPriorVector { .. }));
        let err = service
            .select_multiclass(
                &MultiClassSelectionRequest::new(matrix_pool(), 6.0)
                    .with_prior_probs(vec![0.5, 0.5]),
            )
            .unwrap_err();
        assert!(matches!(err, ServiceError::InvalidPriorVector { .. }));
        // Budget below the cheapest worker without the empty opt-in.
        let err = service
            .select_multiclass(&MultiClassSelectionRequest::new(matrix_pool(), 1.0))
            .unwrap_err();
        assert!(matches!(
            err,
            ServiceError::BudgetBelowCheapestWorker { .. }
        ));
        // With the opt-in the empty jury answers the prior argmax.
        let response = service
            .select_multiclass(
                &MultiClassSelectionRequest::new(matrix_pool(), 1.0)
                    .with_prior(CategoricalPrior::new(vec![0.2, 0.5, 0.3]).unwrap())
                    .allow_empty_selection(true),
            )
            .unwrap();
        assert_eq!(response.jury_size(), 0);
        assert!((response.quality - 0.5).abs() < 1e-12);
        assert_eq!(response.cost, 0.0);
    }

    #[test]
    fn multiclass_cell_budget_overflow_is_a_typed_error() {
        // 24 candidates over 4 labels is past both the session crossover and
        // the exact voting cutoff; with a one-cell budget even the coarsest
        // grid cannot fit, so the service must refuse, not panic or silently
        // run the exponential scratch DP.
        let qualities: Vec<f64> = (0..24).map(|i| 0.5 + 0.015 * (i % 20) as f64).collect();
        let costs = vec![1.0; 24];
        let pool = MatrixPool::from_qualities_and_costs(&qualities, &costs, 4).unwrap();
        let config = ServiceConfig::fast().with_multiclass_incremental(
            jury_jq::MultiClassIncrementalConfig::default().with_max_cells(1),
        );
        let service = JuryService::new(config);
        let err = service
            .select_multiclass(&MultiClassSelectionRequest::new(pool.clone(), 6.0))
            .unwrap_err();
        let ServiceError::MultiClassStateTooLarge { cells, max } = err else {
            panic!("expected MultiClassStateTooLarge, got {err}");
        };
        assert_eq!(max, 1);
        assert_eq!(cells, 49u64.pow(3));
        // The same guard protects the warm multi-class sweep.
        let err = service
            .multiclass_budget_quality_table(
                &pool,
                &[2.0, 4.0],
                &CategoricalPrior::uniform(4).unwrap(),
            )
            .unwrap_err();
        assert!(matches!(err, ServiceError::MultiClassStateTooLarge { .. }));
    }

    #[test]
    fn multiclass_budget_quality_table_small_pool_is_exhaustive() {
        let service = paper_service();
        let prior = CategoricalPrior::uniform(3).unwrap();
        let table = service
            .multiclass_budget_quality_table(&matrix_pool(), &[2.0, 4.0, 6.0, 10.0], &prior)
            .unwrap();
        assert_eq!(table.rows().len(), 4);
        let mut previous = 0.0;
        for row in table.rows() {
            assert!(row.required_budget <= row.budget + 1e-9);
            assert!(row.quality >= previous - 1e-12);
            previous = row.quality;
        }
    }

    #[test]
    fn a_panicking_batch_slot_reports_internal_and_leaves_the_store_usable() {
        let service = JuryService::new(ServiceConfig::fast().with_batch_threads(4));
        // Warm the shared store so the post-panic request genuinely reads
        // through the same shards the panicking threads touched.
        let request = SelectionRequest::new(paper_example_pool(), 15.0);
        let before = service.select(&request).unwrap();

        let results = service.run_batch(&[0usize, 1, 2, 3], |&slot| {
            if slot == 2 {
                panic!("solver blew up on slot {slot}");
            }
            service.select(&request)
        });
        for (slot, result) in results.iter().enumerate() {
            if slot == 2 {
                let Err(ServiceError::Internal { reason }) = result else {
                    panic!("slot 2 should be Internal, got {result:?}");
                };
                assert!(reason.contains("slot 2"), "reason was {reason:?}");
            } else {
                assert!(result.is_ok(), "slot {slot} was {result:?}");
            }
        }

        // parking_lot locks do not poison: the store survives the unwound
        // worker thread and keeps serving identical answers.
        let after = service.select(&request).unwrap();
        assert_eq!(after.worker_ids(), before.worker_ids());
        assert!((after.quality - before.quality).abs() < 1e-12);
        assert!(service.cache_stats().hits > 0);
    }

    #[test]
    fn a_panicking_select_batch_slot_does_not_unwind_the_batch() {
        // An end-to-end variant through the public batch API: a pool whose
        // construction invariants hold but whose serve panics is hard to
        // fabricate from outside, so this pins the seam run_batch itself
        // guards — every public batch entry point shares it.
        let service = JuryService::new(ServiceConfig::fast().with_batch_threads(2));
        let results = service.run_batch(&[0usize, 1], |&slot| {
            if slot == 0 {
                panic!("boom");
            }
            service.select(&SelectionRequest::new(paper_example_pool(), 15.0))
        });
        assert!(matches!(results[0], Err(ServiceError::Internal { .. })));
        assert!(results[1].is_ok());
    }

    /// Unwraps a serve result that may have been truncated by a search
    /// budget: both the `Ok` response and the anytime best-so-far carried
    /// by `DeadlineExceeded` count as served.
    fn salvage_binary(result: Result<SelectionResponse, ServiceError>) -> SelectionResponse {
        match result {
            Ok(response) => response,
            Err(ServiceError::DeadlineExceeded {
                best_so_far: Some(best),
            }) => match *best {
                MixedResponse::Binary(response) => response,
                other => panic!("unexpected best-so-far kind: {other:?}"),
            },
            Err(err) => panic!("unexpected error: {err}"),
        }
    }

    fn large_pool(n: usize) -> WorkerPool {
        let qualities: Vec<f64> = (0..n).map(|i| 0.52 + 0.012 * (i % 30) as f64).collect();
        let costs: Vec<f64> = (0..n).map(|i| 0.5 + (i % 7) as f64 * 0.25).collect();
        WorkerPool::from_qualities_and_costs(&qualities, &costs).unwrap()
    }

    #[test]
    fn portfolio_policy_matches_exact_on_small_pools() {
        // The paper pool has 10 candidates — within the exact cutoff, so
        // the portfolio arm routes to the same exhaustive enumeration Auto
        // uses and must match the exact optimum to 1e-9 at every budget.
        let service = paper_service();
        for budget in [5.0, 10.0, 15.0, 20.0] {
            let raced = service
                .select(
                    &SelectionRequest::new(paper_example_pool(), budget)
                        .with_policy(SolverPolicy::Portfolio(Vec::new())),
                )
                .unwrap();
            let exact = service
                .select(
                    &SelectionRequest::new(paper_example_pool(), budget)
                        .with_policy(SolverPolicy::Exact),
                )
                .unwrap();
            assert!(
                (raced.quality - exact.quality).abs() < 1e-9,
                "budget {budget}: portfolio {} vs exact {}",
                raced.quality,
                exact.quality
            );
            assert_eq!(raced.solver, "exhaustive");
            assert_eq!(raced.policy, SolverPolicy::Portfolio(Vec::new()));
        }
    }

    #[test]
    fn portfolio_races_on_large_pools_and_records_the_winner() {
        let service = paper_service();
        let request = SelectionRequest::new(large_pool(40), 5.0)
            .with_policy(SolverPolicy::Portfolio(Vec::new()));
        let response = service.select(&request).unwrap();
        assert!(
            response.solver.starts_with("portfolio:"),
            "provenance records the winning member, got {}",
            response.solver
        );
        assert!(response.cost <= 5.0 + 1e-9);
        assert!(!response.jury.is_empty());
        // Deterministic: the members' RNG streams are seeded.
        let again = service.select(&request).unwrap();
        assert_eq!(response.worker_ids(), again.worker_ids());
        assert_eq!(response.solver, again.solver);
        // The race can only improve on plain annealing when unbudgeted:
        // its annealing lane replays the same restarts.
        let annealed = service
            .select(
                &SelectionRequest::new(large_pool(40), 5.0).with_policy(SolverPolicy::Annealing),
            )
            .unwrap();
        assert!(response.quality >= annealed.quality - 1e-9);
    }

    #[test]
    fn portfolio_beats_or_ties_annealing_at_equal_evaluation_budgets() {
        // The quality-per-evaluation claim behind the portfolio: at the
        // same evaluation cap, racing heterogeneous members returns a jury
        // at least as good as spending the whole cap on annealing alone.
        // Evaluation caps never read the clock, so this is deterministic.
        let service = paper_service();
        let pool = large_pool(60);
        for cap in [200u64, 800, 2_000] {
            let raced = salvage_binary(
                service.select(
                    &SelectionRequest::new(pool.clone(), 6.0)
                        .with_policy(SolverPolicy::Portfolio(Vec::new()))
                        .with_evaluation_limit(cap),
                ),
            );
            let annealed = salvage_binary(
                service.select(
                    &SelectionRequest::new(pool.clone(), 6.0)
                        .with_policy(SolverPolicy::Annealing)
                        .with_evaluation_limit(cap),
                ),
            );
            assert!(
                raced.quality >= annealed.quality - 1e-9,
                "cap {cap}: portfolio {} below annealing {}",
                raced.quality,
                annealed.quality
            );
        }
    }

    #[test]
    fn service_and_request_budget_limits_merge_tightest_wins() {
        // All four combinations of (request cap, service default cap),
        // exercised with evaluation caps so the outcome is deterministic.
        let pool = large_pool(200);
        let tight = 200u64;
        let loose = 1_000_000u64;
        let slack = 16; // batch evaluations outside the checkpoints

        // Neither side caps: the solve runs to completion.
        let service = paper_service();
        let request = SelectionRequest::new(pool.clone(), 8.0);
        let uncapped = service.select(&request).unwrap();
        assert!(uncapped.evaluations > tight + slack);

        // Only the request caps.
        let capped = salvage_binary(service.select(&request.clone().with_evaluation_limit(tight)));
        assert!(
            capped.evaluations <= tight + slack,
            "{}",
            capped.evaluations
        );

        // Only the service config caps.
        let config = ServiceConfig::paper_experiments().with_default_evaluation_limit(Some(tight));
        let capped = salvage_binary(JuryService::new(config).select(&request));
        assert!(
            capped.evaluations <= tight + slack,
            "{}",
            capped.evaluations
        );

        // Both sides cap: the tighter one governs, whichever side it is on.
        let loose_config =
            ServiceConfig::paper_experiments().with_default_evaluation_limit(Some(loose));
        let capped = salvage_binary(
            JuryService::new(loose_config).select(&request.clone().with_evaluation_limit(tight)),
        );
        assert!(
            capped.evaluations <= tight + slack,
            "{}",
            capped.evaluations
        );
        let tight_config =
            ServiceConfig::paper_experiments().with_default_evaluation_limit(Some(tight));
        let capped = salvage_binary(
            JuryService::new(tight_config).select(&request.with_evaluation_limit(loose)),
        );
        assert!(
            capped.evaluations <= tight + slack,
            "{}",
            capped.evaluations
        );
    }

    #[test]
    fn table_deadline_is_shared_across_rows_not_multiplied() {
        // Regression test for the per-row deadline split: the old logic
        // handed every row the full remaining deadline anchored at its own
        // serve start, so a 12-row sweep whose rows each exhaust their time
        // ran for ~12 × deadline. The fix serves rows sequentially with the
        // remaining time re-divided before each row, bounding the whole
        // sweep by the one deadline (plus per-row checkpoint overrun).
        let deadline = Duration::from_millis(50);
        let budgets: Vec<f64> = (1..=12).map(|b| b as f64).collect();
        // Cold sweeps route per-row requests through the batch path, and a
        // 400-candidate pool makes each uncapped row solve far exceed its
        // slice — exactly the shape that multiplied the deadline before.
        let service = JuryService::new(
            ServiceConfig::paper_experiments().with_sweep_policy(SweepPolicy::Cold),
        );
        let started = Instant::now();
        let (table, truncated) = service
            .budget_quality_table_with_deadline(
                &large_pool(400),
                &budgets,
                Prior::uniform(),
                deadline,
            )
            .unwrap();
        let elapsed = started.elapsed();
        assert!(truncated, "every row should have been cut short");
        assert_eq!(table.rows().len(), budgets.len());
        assert!(
            elapsed < 6 * deadline,
            "sweep took {elapsed:?}; the old per-row split would run for ~12 × {deadline:?}"
        );
    }
}
