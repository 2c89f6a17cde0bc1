//! Service configuration: the knobs shared by every request, overridable
//! per request via [`crate::SelectionRequest::with_config`].
//!
//! This type subsumes the old `jury_optjs::SystemConfig` (which is now a
//! re-export of it): the same bucket/annealing/cutoff knobs drive both the
//! OPTJS and MVJS strategies, plus the service-level batch and cache
//! settings and the multi-class (confusion-matrix) engine configuration.

use std::time::Duration;

use jury_jq::{
    BucketCount, BucketJqConfig, JqEngine, MultiClassBucketConfig, MultiClassIncrementalConfig,
};
use jury_selection::{
    AnnealingConfig, RestartConfig, TabuConfig, DEFAULT_MULTICLASS_SESSION_POOL_CUTOFF,
};

/// How [`crate::JuryService::budget_quality_table`] (and its multi-class
/// sibling) serves pools beyond the exact cutoff — the **sweep policy**.
///
/// This enum unifies what used to be independent boolean knobs
/// (`warm_sweeps`, and the warm-annealing follow-up that would have been a
/// second flag): every variant is a valid policy, so no combination of
/// switches can contradict itself — the validation is the type. Pools within
/// the exact cutoff always use the cold exhaustive path regardless of the
/// policy, because those tables are provably optimal.
///
/// * [`Cold`](SweepPolicy::Cold) — solve every budget independently through
///   the batched request path. The most expensive and the reference
///   behaviour (one full heuristic search per budget).
/// * [`WarmMarginal`](SweepPolicy::WarmMarginal) — carry one marginal-gain
///   search state (and one incremental JQ session) across ascending budgets
///   ([`jury_selection::BudgetQualityTable::build_warm`]); each budget step
///   only pushes the marginal workers. Fastest; on heterogeneous costs the
///   carried jury may trail a cold solve because the sweep never un-commits
///   a worker. The default.
/// * [`WarmAnnealing`](SweepPolicy::WarmAnnealing) — seed each budget's
///   annealing run with the previous budget's jury
///   ([`jury_selection::BudgetQualityTable::build_warm_annealing`]).
///   Quality-critical sweeps: the search can still restructure the jury
///   (un-commit cheap workers for an expensive one), while the carried seed
///   keeps it from re-solving cold and makes rows monotone by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SweepPolicy {
    /// Solve every budget independently (cold), through the batch path.
    Cold,
    /// Warm-started marginal-gain sweep across ascending budgets.
    WarmMarginal,
    /// Warm-started annealing sweep: budget `b + 1` seeded with the
    /// budget-`b` jury.
    WarmAnnealing,
}

/// What [`crate::JuryService::select_batch`] (and the other batch entry
/// points) does with a request that arrives while
/// [`ServiceConfig::max_in_flight`] requests are already being served.
///
/// The admission gate never blocks and never queues unboundedly: an
/// over-capacity request is either rejected immediately or served in a
/// cheaper mode, so a batch can not hang behind a stuck solver.
///
/// ```
/// use jury_service::{OverloadPolicy, ServiceConfig};
///
/// // Shed: over-capacity slots come back as `ServiceError::Overloaded`.
/// let shedding = ServiceConfig::fast().with_max_in_flight(2);
/// assert_eq!(shedding.overload, OverloadPolicy::Shed);
///
/// // Coarsen: over-capacity requests are served with the greedy solver.
/// let coarsening = shedding.with_overload_policy(OverloadPolicy::Coarsen);
/// assert_eq!(coarsening.overload, OverloadPolicy::Coarsen);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OverloadPolicy {
    /// Reject over-capacity requests with
    /// [`crate::ServiceError::Overloaded`] — load shedding. The default:
    /// callers that care can retry, and nothing silently degrades.
    Shed,
    /// Serve over-capacity requests anyway, but downgrade their solver
    /// policy to [`crate::SolverPolicy::Greedy`] — a bounded-work search
    /// whose jury never falls below the greedy floor. The response's
    /// `policy` field records the downgrade.
    Coarsen,
}

/// Configuration of a [`crate::JuryService`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// Bucket configuration for the approximate JQ(BV) computation.
    pub bucket: BucketJqConfig,
    /// Simulated-annealing configuration for the JSP search.
    pub annealing: AnnealingConfig,
    /// Tabu-search configuration for the portfolio's
    /// [`jury_selection::TabuSolver`] member.
    pub tabu: TabuConfig,
    /// Randomized-restart configuration for the portfolio's
    /// [`jury_selection::RestartSolver`] member.
    pub restart: RestartConfig,
    /// A service-wide wall-clock ceiling applied to every request: merged
    /// with any per-request deadline **tightest-wins** (via
    /// [`jury_selection::SearchBudget::intersect`]). `None` (the default)
    /// imposes no service-side deadline.
    pub default_deadline: Option<Duration>,
    /// A service-wide objective-evaluation ceiling applied to every
    /// request, merged with any per-request cap tightest-wins. `None` (the
    /// default) imposes no service-side cap.
    pub default_max_evaluations: Option<u64>,
    /// Pools of at most this size are solved exactly by enumeration instead
    /// of by annealing (under [`crate::SolverPolicy::Auto`]); juries of at
    /// most this size also use exact JQ enumeration inside the engine.
    pub exact_cutoff: usize,
    /// Maximum number of memoized JQ evaluations kept in the service's
    /// shared cache; `0` disables caching. When the cache fills up, the
    /// stalest half of the entries (segmented LRU by last-used stamp) is
    /// evicted, so hot entries survive overflow. Binary and multi-class
    /// evaluations share this one store (their signature key spaces are
    /// disjoint); [`crate::CacheStats`] reports per-kind counters.
    pub cache_capacity: usize,
    /// Number of stripes the shared JQ store is split into. Each cache key
    /// hashes deterministically to one stripe with its own lock and
    /// counters, so batch worker threads touching different keys do not
    /// contend; `1` restores the historical single-lock store, `0` is
    /// promoted to `1`.
    pub cache_shards: usize,
    /// Worker threads used by [`crate::JuryService::select_batch`] and the
    /// other batch entry points; `0` means one per available CPU core.
    /// Never more threads than the batch has requests. This is the
    /// service's only thread knob: every single solve runs on one thread.
    pub batch_threads: usize,
    /// Maximum requests the batch entry points serve concurrently before
    /// the [`OverloadPolicy`] kicks in; `0` disables admission control
    /// entirely (every request is served at full fidelity).
    pub max_in_flight: usize,
    /// What happens to batch requests that arrive over
    /// [`max_in_flight`](Self::max_in_flight) capacity.
    pub overload: OverloadPolicy,
    /// The budget–quality sweep policy for pools beyond the exact cutoff
    /// (see [`SweepPolicy`]). Pools within the cutoff always use the cold
    /// exhaustive path.
    pub sweep: SweepPolicy,
    /// Scratch bucket configuration for batch evaluations of the
    /// multi-class (Section 7) objective.
    pub multiclass_bucket: MultiClassBucketConfig,
    /// Incremental-engine configuration for multi-class search sessions,
    /// including the dense-box `max_cells` budget that guards against
    /// exponential grids.
    pub multiclass_incremental: MultiClassIncrementalConfig,
    /// Multi-class pools of at most this many candidates run their searches
    /// on the sparse scratch DP instead of incremental sessions (the
    /// measured crossover; see
    /// [`jury_selection::DEFAULT_MULTICLASS_SESSION_POOL_CUTOFF`]).
    pub multiclass_session_cutoff: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            bucket: BucketJqConfig::default(),
            annealing: AnnealingConfig::default(),
            tabu: TabuConfig::default(),
            restart: RestartConfig::default(),
            default_deadline: None,
            default_max_evaluations: None,
            exact_cutoff: 14,
            cache_capacity: 1 << 20,
            cache_shards: 8,
            batch_threads: 0,
            max_in_flight: 0,
            overload: OverloadPolicy::Shed,
            sweep: SweepPolicy::WarmMarginal,
            multiclass_bucket: MultiClassBucketConfig::default(),
            multiclass_incremental: MultiClassIncrementalConfig::default(),
            multiclass_session_cutoff: DEFAULT_MULTICLASS_SESSION_POOL_CUTOFF,
        }
    }
}

impl ServiceConfig {
    /// The configuration used to reproduce the paper's experiments:
    /// `numBuckets = 50` for JQ estimation and `ε = 10⁻⁸` for the annealing.
    pub fn paper_experiments() -> Self {
        ServiceConfig {
            bucket: BucketJqConfig::paper_experiments(),
            ..ServiceConfig::default()
        }
    }

    /// A fast configuration for unit tests and examples: coarser buckets and
    /// a shorter annealing schedule.
    pub fn fast() -> Self {
        ServiceConfig {
            bucket: BucketJqConfig::default().with_buckets(BucketCount::Fixed(50)),
            annealing: AnnealingConfig::default()
                .with_epsilon(1e-4)
                .with_restarts(2),
            exact_cutoff: 12,
            multiclass_bucket: MultiClassBucketConfig { num_buckets: 50 },
            ..ServiceConfig::default()
        }
    }

    /// Sets the bucket configuration.
    pub fn with_bucket(mut self, bucket: BucketJqConfig) -> Self {
        self.bucket = bucket;
        self
    }

    /// Sets the annealing configuration.
    pub fn with_annealing(mut self, annealing: AnnealingConfig) -> Self {
        self.annealing = annealing;
        self
    }

    /// Sets the tabu-search configuration (the portfolio's tabu member).
    pub fn with_tabu(mut self, tabu: TabuConfig) -> Self {
        self.tabu = tabu;
        self
    }

    /// Sets the randomized-restart configuration (the portfolio's restart
    /// member).
    pub fn with_restart(mut self, restart: RestartConfig) -> Self {
        self.restart = restart;
        self
    }

    /// Sets (or clears) the service-wide default deadline; it merges with
    /// any per-request deadline tightest-wins.
    pub fn with_default_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.default_deadline = deadline;
        self
    }

    /// Sets (or clears) the service-wide default evaluation cap; it merges
    /// with any per-request cap tightest-wins.
    pub fn with_default_evaluation_limit(mut self, max_evaluations: Option<u64>) -> Self {
        self.default_max_evaluations = max_evaluations;
        self
    }

    /// Sets the exact-enumeration cutoff.
    pub fn with_exact_cutoff(mut self, cutoff: usize) -> Self {
        self.exact_cutoff = cutoff;
        self
    }

    /// Sets the JQ cache capacity (`0` disables caching).
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Sets the JQ cache shard count (`0` is promoted to 1, the single-lock
    /// store).
    pub fn with_cache_shards(mut self, shards: usize) -> Self {
        self.cache_shards = shards;
        self
    }

    /// Sets the batch thread count (`0` = one per CPU core).
    pub fn with_batch_threads(mut self, threads: usize) -> Self {
        self.batch_threads = threads;
        self
    }

    /// Sets the concurrent-request admission limit for the batch entry
    /// points (`0` disables admission control).
    pub fn with_max_in_flight(mut self, max_in_flight: usize) -> Self {
        self.max_in_flight = max_in_flight;
        self
    }

    /// Sets the overload policy applied to requests over the
    /// [`max_in_flight`](Self::max_in_flight) limit.
    pub fn with_overload_policy(mut self, overload: OverloadPolicy) -> Self {
        self.overload = overload;
        self
    }

    /// Sets the budget–quality sweep policy.
    pub fn with_sweep_policy(mut self, sweep: SweepPolicy) -> Self {
        self.sweep = sweep;
        self
    }

    /// Sets the multi-class scratch bucket configuration.
    pub fn with_multiclass_bucket(mut self, bucket: MultiClassBucketConfig) -> Self {
        self.multiclass_bucket = bucket;
        self
    }

    /// Sets the multi-class incremental-engine configuration.
    pub fn with_multiclass_incremental(mut self, incremental: MultiClassIncrementalConfig) -> Self {
        self.multiclass_incremental = incremental;
        self
    }

    /// Sets the multi-class session crossover cutoff.
    pub fn with_multiclass_session_cutoff(mut self, cutoff: usize) -> Self {
        self.multiclass_session_cutoff = cutoff;
        self
    }

    /// Whether the sweep policy warm-starts large-pool budget tables.
    pub fn warm_sweeps(&self) -> bool {
        self.sweep != SweepPolicy::Cold
    }

    /// The JQ engine this configuration induces.
    pub fn jq_engine(&self) -> JqEngine {
        JqEngine::new(self.bucket).with_exact_cutoff(self.exact_cutoff)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let config = ServiceConfig::default();
        assert!(config.exact_cutoff >= 10);
        assert!(config.annealing.restarts >= 1);
        assert!(config.cache_capacity > 0);
        assert_eq!(config.cache_shards, 8);
        assert_eq!(config.batch_threads, 0);
        assert_eq!(config.max_in_flight, 0, "admission control defaults off");
        assert_eq!(config.overload, OverloadPolicy::Shed);
        assert_eq!(config.sweep, SweepPolicy::WarmMarginal);
        assert!(config.warm_sweeps());
        assert!(config.default_deadline.is_none());
        assert!(config.default_max_evaluations.is_none());
        assert_eq!(config.tabu, TabuConfig::default());
        assert_eq!(config.restart, RestartConfig::default());
        assert_eq!(
            config.multiclass_session_cutoff,
            DEFAULT_MULTICLASS_SESSION_POOL_CUTOFF
        );
    }

    #[test]
    fn builders_update_fields() {
        let config = ServiceConfig::default()
            .with_exact_cutoff(5)
            .with_bucket(BucketJqConfig::paper_experiments())
            .with_annealing(AnnealingConfig::default().with_seed(9))
            .with_cache_capacity(128)
            .with_cache_shards(2)
            .with_batch_threads(2)
            .with_max_in_flight(4)
            .with_overload_policy(OverloadPolicy::Coarsen)
            .with_sweep_policy(SweepPolicy::Cold)
            .with_multiclass_bucket(MultiClassBucketConfig { num_buckets: 77 })
            .with_multiclass_incremental(
                MultiClassIncrementalConfig::default().with_max_cells(1 << 10),
            )
            .with_multiclass_session_cutoff(9)
            .with_tabu(TabuConfig::default().with_tenure(3))
            .with_restart(RestartConfig::default().with_restarts(7))
            .with_default_deadline(Some(Duration::from_millis(250)))
            .with_default_evaluation_limit(Some(10_000));
        assert_eq!(config.exact_cutoff, 5);
        assert_eq!(config.tabu.tenure, 3);
        assert_eq!(config.restart.restarts, 7);
        assert_eq!(config.default_deadline, Some(Duration::from_millis(250)));
        assert_eq!(config.default_max_evaluations, Some(10_000));
        assert_eq!(config.annealing.seed, 9);
        assert_eq!(config.bucket, BucketJqConfig::paper_experiments());
        assert_eq!(config.cache_capacity, 128);
        assert_eq!(config.cache_shards, 2);
        assert_eq!(config.batch_threads, 2);
        assert_eq!(config.max_in_flight, 4);
        assert_eq!(config.overload, OverloadPolicy::Coarsen);
        assert_eq!(config.sweep, SweepPolicy::Cold);
        assert!(!config.warm_sweeps());
        assert_eq!(config.multiclass_bucket.num_buckets, 77);
        assert_eq!(config.multiclass_incremental.max_cells, 1 << 10);
        assert_eq!(config.multiclass_session_cutoff, 9);
    }

    #[test]
    fn paper_and_fast_presets_differ() {
        assert_ne!(
            ServiceConfig::paper_experiments().annealing.epsilon,
            ServiceConfig::fast().annealing.epsilon
        );
    }
}
