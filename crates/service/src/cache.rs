//! The shared, memoizing JQ-evaluation cache and the cache-backed
//! objectives.
//!
//! JSP searches spend essentially all their time evaluating `JQ(J, S, α)`,
//! and across a batch of requests over overlapping pools the same
//! `(jury-quality multiset, prior, strategy)` evaluation recurs constantly —
//! every budget point of a budget–quality sweep re-examines mostly the same
//! juries. The cache keys evaluations by the quantized
//! [`jury_signature`] (sound: JQ depends only on the quality multiset and
//! the prior; see `jury_jq::signature`) plus the strategy.
//!
//! The store is **striped into shards**: each key hashes deterministically
//! to one shard, and each shard owns its own `parking_lot`-guarded map,
//! segmented-LRU budget, and hit/miss/eviction counters. Worker threads of
//! a batch that touch different keys therefore take different locks — the
//! single shared lock this replaces was the serving-side bottleneck under
//! 8-thread mixed traffic (see `perf_smoke`'s contention scenario).
//! `JqCache::stats` aggregates across shards for existing callers;
//! `JqCache::shard_stats` exposes the per-shard view.
//!
//! Multi-class (confusion-matrix) evaluations live in the **same store**,
//! keyed by [`multiclass_signature`] — a quantized matrix digest whose key
//! space is disjoint from the binary signatures by construction — so one
//! segmented-LRU budget covers a mixed binary/multi-class workload and hot
//! entries of either kind compete fairly for residency. [`CacheStats`]
//! reports hits and misses per kind on top of the combined totals.
//!
//! The cache is the *outer* memoization layer; underneath it the objectives
//! also hand the solvers incremental push/pop/swap sessions
//! (`jury_jq::IncrementalJq` / `IncrementalMvJq` /
//! `IncrementalMultiClassJq`), so the inner search loop of annealing and
//! marginal greedy never pays a from-scratch JQ computation either — batch
//! memoization outside, incremental updates inside.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;

use jury_jq::{jury_signature, multiclass_signature, JqEngine, JurySignature, SharedJqScratch};
use jury_model::{CategoricalPrior, Jury, MatrixPool, MatrixWorker, ModelResult, Prior};
use jury_selection::{
    bv_incremental_session_in, mv_incremental_session_in, IncrementalSession, JspInstance,
    JuryObjective, MultiClassBvObjective,
};

use crate::config::ServiceConfig;
use crate::request::Strategy;

/// Which key space a cache access belongs to, for per-kind accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CacheKind {
    /// Binary-accuracy evaluations keyed by [`jury_signature`].
    Binary,
    /// Confusion-matrix evaluations keyed by [`multiclass_signature`].
    MultiClass,
}

/// Hit/miss counters of one key kind within the shared store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheKindStats {
    /// Lifetime lookups of this kind served from the cache.
    pub hits: u64,
    /// Lifetime lookups of this kind that had to compute the value.
    pub misses: u64,
}

/// A point-in-time snapshot of the cache's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Entries currently stored (all kinds).
    pub entries: usize,
    /// Lifetime lookups served from the cache (all kinds).
    pub hits: u64,
    /// Lifetime lookups that had to compute the value (all kinds).
    pub misses: u64,
    /// Lifetime entries dropped by the segmented-LRU eviction.
    pub evictions: u64,
    /// Counters of the binary-accuracy entries.
    pub binary: CacheKindStats,
    /// Counters of the multi-class (confusion-matrix) entries.
    pub multiclass: CacheKindStats,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum CacheKey {
    /// A binary-accuracy evaluation. The engine fingerprint (bucket
    /// settings, exact cutoff) is part of the key: JQ values computed under
    /// different configurations are different numbers, and per-request
    /// config overrides share this cache.
    Binary {
        strategy: Strategy,
        bucket: jury_jq::BucketJqConfig,
        exact_cutoff: usize,
        signature: JurySignature,
    },
    /// A multi-class BV evaluation. The scratch bucket resolution and the
    /// exact-enumeration voting cutoff are the engine fingerprint here (the
    /// incremental config only steers searches, never reported values).
    MultiClass {
        num_buckets: usize,
        exact_votings: u64,
        signature: JurySignature,
    },
}

/// One memoized evaluation: the value plus a last-used stamp, bumped on
/// every hit (atomically, so hits only ever take the read lock).
#[derive(Debug)]
struct CacheEntry {
    value: f64,
    last_used: AtomicU64,
}

/// One stripe of the sharded store: its own map, lock, and counters.
#[derive(Debug)]
struct Shard {
    map: RwLock<HashMap<CacheKey, CacheEntry>>,
    binary_hits: AtomicU64,
    binary_misses: AtomicU64,
    multiclass_hits: AtomicU64,
    multiclass_misses: AtomicU64,
    evictions: AtomicU64,
}

impl Shard {
    fn new() -> Self {
        Shard {
            map: RwLock::new(HashMap::new()),
            binary_hits: AtomicU64::new(0),
            binary_misses: AtomicU64::new(0),
            multiclass_hits: AtomicU64::new(0),
            multiclass_misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn counters(&self, kind: CacheKind) -> (&AtomicU64, &AtomicU64) {
        match kind {
            CacheKind::Binary => (&self.binary_hits, &self.binary_misses),
            CacheKind::MultiClass => (&self.multiclass_hits, &self.multiclass_misses),
        }
    }

    fn stats(&self) -> CacheStats {
        let binary = CacheKindStats {
            hits: self.binary_hits.load(Ordering::Relaxed),
            misses: self.binary_misses.load(Ordering::Relaxed),
        };
        let multiclass = CacheKindStats {
            hits: self.multiclass_hits.load(Ordering::Relaxed),
            misses: self.multiclass_misses.load(Ordering::Relaxed),
        };
        CacheStats {
            entries: self.map.read().len(),
            hits: binary.hits + multiclass.hits,
            misses: binary.misses + multiclass.misses,
            evictions: self.evictions.load(Ordering::Relaxed),
            binary,
            multiclass,
        }
    }
}

/// The shared evaluation cache. One per [`crate::JuryService`]; it outlives
/// individual requests, so repeated and batched calls keep re-using it.
///
/// The store is striped into shards (see the module docs): each key hashes
/// deterministically to one shard via `DefaultHasher`, so a given signature
/// always lands on — and evicts within — the same stripe. The configured
/// capacity is split evenly across shards (rounded up, so `capacity ≥ 1`
/// always leaves every shard at least one slot).
///
/// Overflow is handled per shard by **segmented LRU eviction**: when an
/// insert finds its shard full, the stalest half of that shard's entries
/// (by last-used stamp) is dropped in one sweep. Hot entries — the ones
/// batches and sweeps keep re-reading — survive, unlike the wholesale
/// `clear()` this replaces, while the half-at-a-time segmentation keeps the
/// amortized bookkeeping cost per insert `O(1)` (a full LRU list would pay
/// pointer churn on every hit). Binary and multi-class entries share each
/// shard's capacity and eviction sweep; eviction pressure on one shard
/// never touches entries on another.
#[derive(Debug)]
pub(crate) struct JqCache {
    capacity_per_shard: usize,
    shards: Box<[Shard]>,
    /// Monotonic logical clock handing out last-used stamps; shared across
    /// shards so stamps stay globally comparable in diagnostics.
    tick: AtomicU64,
}

impl JqCache {
    /// Creates a store of `shards` stripes sharing `capacity` entries.
    /// `capacity == 0` disables caching entirely; a shard count of 0 is
    /// promoted to 1 (a single-lock store).
    pub(crate) fn new(capacity: usize, shards: usize) -> Self {
        let num_shards = shards.max(1);
        JqCache {
            capacity_per_shard: capacity.div_ceil(num_shards),
            shards: (0..num_shards).map(|_| Shard::new()).collect(),
            tick: AtomicU64::new(0),
        }
    }

    /// The number of stripes (always at least 1).
    pub(crate) fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Deterministic key→shard routing: `DefaultHasher` is keyed with
    /// constants, so the same key maps to the same shard in every process.
    fn shard_for(&self, key: &CacheKey) -> usize {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        (hasher.finish() % self.shards.len() as u64) as usize
    }

    fn get(&self, key: &CacheKey, kind: CacheKind) -> Option<f64> {
        if self.capacity_per_shard == 0 {
            return None;
        }
        let shard = &self.shards[self.shard_for(key)];
        let (hits, misses) = shard.counters(kind);
        let map = shard.map.read();
        match map.get(key) {
            Some(entry) => {
                entry
                    .last_used
                    .store(self.tick.fetch_add(1, Ordering::Relaxed), Ordering::Relaxed);
                hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.value)
            }
            None => {
                misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn insert(&self, key: CacheKey, value: f64) {
        if self.capacity_per_shard == 0 {
            return;
        }
        let shard = &self.shards[self.shard_for(&key)];
        let mut map = shard.map.write();
        if map.len() >= self.capacity_per_shard && !map.contains_key(&key) {
            // Evict the stalest segment: everything at or below the median
            // last-used stamp. Stamps are unique (every hit and insert draws
            // a fresh tick), so this removes exactly `len − keep` entries.
            let keep = self.capacity_per_shard / 2;
            let mut stamps: Vec<u64> = map
                .values()
                .map(|entry| entry.last_used.load(Ordering::Relaxed))
                .collect();
            let evict = stamps.len() - keep;
            let (_, cutoff, _) = stamps.select_nth_unstable(evict - 1);
            let cutoff = *cutoff;
            map.retain(|_, entry| entry.last_used.load(Ordering::Relaxed) > cutoff);
            shard.evictions.fetch_add(evict as u64, Ordering::Relaxed);
        }
        map.insert(
            key,
            CacheEntry {
                value,
                last_used: AtomicU64::new(self.tick.fetch_add(1, Ordering::Relaxed)),
            },
        );
    }

    /// The aggregated view over all shards — what existing callers see.
    pub(crate) fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in self.shards.iter() {
            let stats = shard.stats();
            total.entries += stats.entries;
            total.hits += stats.hits;
            total.misses += stats.misses;
            total.evictions += stats.evictions;
            total.binary.hits += stats.binary.hits;
            total.binary.misses += stats.binary.misses;
            total.multiclass.hits += stats.multiclass.hits;
            total.multiclass.misses += stats.multiclass.misses;
        }
        total
    }

    /// Per-shard counter snapshots, in shard order.
    pub(crate) fn shard_stats(&self) -> Vec<CacheStats> {
        self.shards.iter().map(Shard::stats).collect()
    }
}

/// The service's unified binary objective: one implementation of
/// [`JuryObjective`] covering both strategies, with every evaluation routed
/// through the shared cache. This is what replaces the separate
/// `Optjs`/`Mvjs` engines of the old system layer — the solvers are generic
/// over the objective, so a strategy is now just a field, not a type.
pub(crate) struct CachedObjective<'a> {
    engine: JqEngine,
    strategy: Strategy,
    cache: &'a JqCache,
    requests: AtomicU64,
    local_hits: AtomicU64,
    scratch: SharedJqScratch,
}

impl<'a> CachedObjective<'a> {
    pub(crate) fn new(engine: JqEngine, strategy: Strategy, cache: &'a JqCache) -> Self {
        CachedObjective {
            engine,
            strategy,
            cache,
            requests: AtomicU64::new(0),
            local_hits: AtomicU64::new(0),
            scratch: SharedJqScratch::new(),
        }
    }

    /// Cache hits observed by this objective instance (i.e. this solve).
    pub(crate) fn local_hits(&self) -> u64 {
        self.local_hits.load(Ordering::Relaxed)
    }

    fn compute(&self, jury: &Jury, prior: Prior) -> f64 {
        match self.strategy {
            Strategy::Bv => self.engine.bv_jq(jury, prior).value,
            Strategy::Mv => self.engine.mv_jq(jury, prior).value,
        }
    }
}

impl JuryObjective for CachedObjective<'_> {
    fn name(&self) -> &'static str {
        match self.strategy {
            Strategy::Bv => "JQ(BV)",
            Strategy::Mv => "JQ(MV)",
        }
    }

    fn evaluate(&self, jury: &Jury, prior: Prior) -> f64 {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let key = CacheKey::Binary {
            strategy: self.strategy,
            bucket: *self.engine.bucket_estimator().config(),
            exact_cutoff: self.engine.exact_cutoff(),
            signature: jury_signature(jury, prior),
        };
        if let Some(value) = self.cache.get(&key, CacheKind::Binary) {
            self.local_hits.fetch_add(1, Ordering::Relaxed);
            return value;
        }
        // Concurrent threads may compute the same value twice; the insert is
        // idempotent, so that only costs time, never correctness.
        let value = self.compute(jury, prior);
        self.cache.insert(key, value);
        value
    }

    fn evaluations(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    fn incremental_session<'a>(
        &'a self,
        instance: &JspInstance,
    ) -> Option<Box<dyn IncrementalSession + 'a>> {
        match self.strategy {
            Strategy::Bv => {
                // Pools within the exact cutoff are evaluated by exact
                // enumeration (and served by the cache); the quantized
                // session only pays off beyond it.
                if instance.num_candidates() <= self.engine.exact_cutoff() {
                    return None;
                }
                Some(bv_incremental_session_in(
                    instance.pool(),
                    instance.prior(),
                    *self.engine.bucket_estimator().config(),
                    &self.requests,
                    &self.scratch,
                ))
            }
            Strategy::Mv => Some(mv_incremental_session_in(
                instance.prior(),
                &self.requests,
                &self.scratch,
            )),
        }
    }
}

/// The cache-backed multi-class objective: wraps
/// [`jury_selection::MultiClassBvObjective`] (which owns the confusion-
/// matrix pool, the categorical prior, and the incremental sessions) and
/// routes every batch evaluation through the shared store under a
/// [`multiclass_signature`] key. Shadow juries are resolved back to their
/// matrices by id before signing, so the key describes exactly what the
/// inner objective scores.
pub(crate) struct CachedMultiClassObjective<'a> {
    /// Owns the (only copies of the) pool and prior, exposed via its
    /// `pool()`/`prior()` accessors.
    inner: MultiClassBvObjective,
    /// Pool position by worker id, built once so the per-evaluation member
    /// resolution is `O(jury)` map hits instead of `O(jury · pool)` scans.
    index: HashMap<jury_model::WorkerId, usize>,
    cache: &'a JqCache,
    local_hits: AtomicU64,
}

impl<'a> CachedMultiClassObjective<'a> {
    /// Builds the objective for a pool/prior pair under the given service
    /// configuration.
    ///
    /// # Errors
    ///
    /// Fails when the prior's label count does not match the pool's.
    pub(crate) fn new(
        pool: &MatrixPool,
        prior: &CategoricalPrior,
        config: &ServiceConfig,
        cache: &'a JqCache,
    ) -> ModelResult<Self> {
        let inner = MultiClassBvObjective::new(pool.clone(), prior.clone())?
            .with_bucket_config(config.multiclass_bucket)
            .with_incremental_config(config.multiclass_incremental)
            .with_session_pool_cutoff(config.multiclass_session_cutoff);
        let index = pool
            .iter()
            .enumerate()
            .map(|(position, worker)| (worker.id(), position))
            .collect();
        Ok(CachedMultiClassObjective {
            inner,
            index,
            cache,
            local_hits: AtomicU64::new(0),
        })
    }

    /// Cache hits observed by this objective instance (i.e. this solve).
    pub(crate) fn local_hits(&self) -> u64 {
        self.local_hits.load(Ordering::Relaxed)
    }

    /// Whether a pool of `candidates` members requires incremental sessions
    /// under this objective's configuration (see
    /// [`MultiClassBvObjective::session_required`]).
    pub(crate) fn session_required(&self, candidates: usize) -> bool {
        self.inner.session_required(candidates)
    }

    /// The jury members the inner objective will score for this shadow
    /// jury: pool matrices looked up by id (borrowed, no matrix clones),
    /// unknown ids dropped — exactly the inner objective's resolution
    /// policy, shared so response members can never disagree with what was
    /// scored.
    pub(crate) fn members(&self, jury: &Jury) -> Vec<&MatrixWorker> {
        let workers = self.inner.pool().workers();
        jury.ids()
            .into_iter()
            .filter_map(|id| self.index.get(&id).map(|&pos| &workers[pos]))
            .collect()
    }
}

impl JuryObjective for CachedMultiClassObjective<'_> {
    fn name(&self) -> &'static str {
        "JQ(BV, multi-class, cached)"
    }

    fn evaluate(&self, jury: &Jury, prior: Prior) -> f64 {
        let key = CacheKey::MultiClass {
            num_buckets: self.inner.bucket_config().num_buckets,
            exact_votings: self.inner.exact_votings(),
            signature: multiclass_signature(self.members(jury), self.inner.prior()),
        };
        if let Some(value) = self.cache.get(&key, CacheKind::MultiClass) {
            self.local_hits.fetch_add(1, Ordering::Relaxed);
            return value;
        }
        let value = self.inner.evaluate(jury, prior);
        self.cache.insert(key, value);
        value
    }

    fn evaluations(&self) -> u64 {
        // The inner objective counts batch computations and session probes;
        // cache hits short-circuit before reaching it, so they are added
        // here — every request for a value is counted exactly once.
        self.inner.evaluations() + self.local_hits.load(Ordering::Relaxed)
    }

    fn incremental_session<'a>(
        &'a self,
        instance: &JspInstance,
    ) -> Option<Box<dyn IncrementalSession + 'a>> {
        self.inner.incremental_session(instance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jury_jq::{exact_bv_jq, exact_multiclass_bv_jq};

    fn engine() -> JqEngine {
        crate::ServiceConfig::default().jq_engine()
    }

    #[test]
    fn cached_values_match_direct_evaluation() {
        let cache = JqCache::new(1024, 8);
        let objective = CachedObjective::new(engine(), Strategy::Bv, &cache);
        let jury = Jury::from_qualities(&[0.9, 0.6, 0.6]).unwrap();
        let first = objective.evaluate(&jury, Prior::uniform());
        let second = objective.evaluate(&jury, Prior::uniform());
        assert_eq!(first, second);
        assert!((first - exact_bv_jq(&jury, Prior::uniform()).unwrap()).abs() < 1e-12);
        assert_eq!(objective.evaluations(), 2);
        assert_eq!(objective.local_hits(), 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!((stats.binary.hits, stats.binary.misses), (1, 1));
        assert_eq!(stats.multiclass, CacheKindStats::default());
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn strategies_do_not_collide() {
        let cache = JqCache::new(1024, 8);
        let jury = Jury::from_qualities(&[0.9, 0.6, 0.6]).unwrap();
        let bv = CachedObjective::new(engine(), Strategy::Bv, &cache);
        let mv = CachedObjective::new(engine(), Strategy::Mv, &cache);
        let bv_value = bv.evaluate(&jury, Prior::uniform());
        let mv_value = mv.evaluate(&jury, Prior::uniform());
        assert!((bv_value - 0.9).abs() < 1e-12);
        assert!((mv_value - 0.792).abs() < 1e-12);
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn engine_configurations_do_not_collide() {
        use jury_jq::{BucketCount, BucketJqConfig, JqEngine};
        let cache = JqCache::new(1024, 8);
        // Same jury and prior, but one objective enumerates exactly while the
        // other is forced onto a deliberately coarse bucket approximation:
        // the values differ, so the cache must keep them apart.
        let exact_engine = JqEngine::new(BucketJqConfig::default()).with_exact_cutoff(12);
        let coarse_engine = JqEngine::approximate_only(
            BucketJqConfig::default().with_buckets(BucketCount::Fixed(3)),
        );
        let exact = CachedObjective::new(exact_engine, Strategy::Bv, &cache);
        let coarse = CachedObjective::new(coarse_engine, Strategy::Bv, &cache);
        let jury = Jury::from_qualities(&[0.9, 0.6, 0.6]).unwrap();
        let exact_value = exact.evaluate(&jury, Prior::uniform());
        let coarse_value = coarse.evaluate(&jury, Prior::uniform());
        assert_eq!(
            cache.stats().entries,
            2,
            "configs must get separate entries"
        );
        assert!((exact_value - 0.9).abs() < 1e-12);
        // Re-evaluating under each engine returns its own cached value.
        assert_eq!(exact.evaluate(&jury, Prior::uniform()), exact_value);
        assert_eq!(coarse.evaluate(&jury, Prior::uniform()), coarse_value);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = JqCache::new(0, 8);
        let objective = CachedObjective::new(engine(), Strategy::Bv, &cache);
        let jury = Jury::from_qualities(&[0.8, 0.7]).unwrap();
        objective.evaluate(&jury, Prior::uniform());
        objective.evaluate(&jury, Prior::uniform());
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.hits, stats.misses), (0, 0, 0));
        assert_eq!(objective.local_hits(), 0);
    }

    #[test]
    fn capacity_overflow_never_grows_the_cache() {
        let cache = JqCache::new(2, 1);
        let objective = CachedObjective::new(engine(), Strategy::Bv, &cache);
        for q in [0.6, 0.65, 0.7, 0.75, 0.8] {
            let jury = Jury::from_qualities(&[q]).unwrap();
            objective.evaluate(&jury, Prior::uniform());
        }
        assert!(cache.stats().entries <= 2);
        assert!(cache.stats().evictions > 0);
    }

    #[test]
    fn eviction_drops_the_stalest_entries_first() {
        let cache = JqCache::new(4, 1);
        let objective = CachedObjective::new(engine(), Strategy::Bv, &cache);
        let juries: Vec<Jury> = [0.6, 0.65, 0.7, 0.75, 0.8]
            .iter()
            .map(|&q| Jury::from_qualities(&[q]).unwrap())
            .collect();
        // Fill to capacity, then touch the oldest entry so it becomes the
        // most recently used.
        for jury in &juries[..4] {
            objective.evaluate(jury, Prior::uniform());
        }
        objective.evaluate(&juries[0], Prior::uniform());
        // Overflow: the stalest half (entries 1 and 2) must go; the touched
        // entry 0 and the fresher entry 3 must survive.
        objective.evaluate(&juries[4], Prior::uniform());
        assert_eq!(cache.stats().evictions, 2);

        let hits_before = cache.stats().hits;
        objective.evaluate(&juries[0], Prior::uniform());
        objective.evaluate(&juries[3], Prior::uniform());
        objective.evaluate(&juries[4], Prior::uniform());
        assert_eq!(
            cache.stats().hits,
            hits_before + 3,
            "recently used entries must survive the eviction"
        );

        let misses_before = cache.stats().misses;
        objective.evaluate(&juries[1], Prior::uniform());
        assert_eq!(
            cache.stats().misses,
            misses_before + 1,
            "the stalest entry must have been evicted"
        );
    }

    fn multiclass_fixture() -> (MatrixPool, CategoricalPrior) {
        let pool =
            MatrixPool::from_qualities_and_costs(&[0.9, 0.7, 0.6], &[1.0, 1.0, 1.0], 3).unwrap();
        let prior = CategoricalPrior::uniform(3).unwrap();
        (pool, prior)
    }

    #[test]
    fn multiclass_cached_values_match_direct_evaluation() {
        let cache = JqCache::new(1024, 8);
        let (pool, prior) = multiclass_fixture();
        let objective =
            CachedMultiClassObjective::new(&pool, &prior, &ServiceConfig::default(), &cache)
                .unwrap();
        let shadow = pool.shadow_pool();
        let jury = Jury::new(shadow.workers()[..2].to_vec());
        let first = objective.evaluate(&jury, Prior::uniform());
        let second = objective.evaluate(&jury, Prior::uniform());
        assert_eq!(first, second);
        let direct = exact_multiclass_bv_jq(&pool.jury(&jury.ids()).unwrap(), &prior).unwrap();
        assert!((first - direct).abs() < 1e-12);
        assert_eq!(objective.local_hits(), 1);
        assert_eq!(objective.evaluations(), 2);
        let stats = cache.stats();
        assert_eq!((stats.multiclass.hits, stats.multiclass.misses), (1, 1));
        assert_eq!(stats.binary, CacheKindStats::default());
    }

    #[test]
    fn binary_and_multiclass_entries_share_the_store_without_colliding() {
        let cache = JqCache::new(1024, 8);
        let (pool, prior) = multiclass_fixture();
        let multi =
            CachedMultiClassObjective::new(&pool, &prior, &ServiceConfig::default(), &cache)
                .unwrap();
        let binary = CachedObjective::new(engine(), Strategy::Bv, &cache);
        let shadow = pool.shadow_pool();
        let jury = Jury::new(shadow.workers().to_vec());
        let multi_value = multi.evaluate(&jury, Prior::uniform());
        let binary_value = binary.evaluate(&jury, Prior::uniform());
        // A 3-class matrix jury and its mean-accuracy shadow are different
        // statistical objects — both must coexist in the one store.
        assert_ne!(multi_value, binary_value);
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.binary.misses, 1);
        assert_eq!(stats.multiclass.misses, 1);
        // Re-reads hit their own kind only.
        multi.evaluate(&jury, Prior::uniform());
        binary.evaluate(&jury, Prior::uniform());
        let stats = cache.stats();
        assert_eq!(stats.binary.hits, 1);
        assert_eq!(stats.multiclass.hits, 1);
        assert_eq!(stats.hits, 2);
    }

    #[test]
    fn multiclass_entries_participate_in_eviction() {
        let cache = JqCache::new(2, 1);
        let (pool, prior) = multiclass_fixture();
        let objective =
            CachedMultiClassObjective::new(&pool, &prior, &ServiceConfig::default(), &cache)
                .unwrap();
        let shadow = pool.shadow_pool();
        for k in 1..=3 {
            let jury = Jury::new(shadow.workers()[..k].to_vec());
            objective.evaluate(&jury, Prior::uniform());
        }
        assert!(cache.stats().entries <= 2);
        assert!(cache.stats().evictions > 0);
    }

    /// A binary cache key for a single-member jury of quality `q`. The
    /// signature quantizes at `2⁻⁴⁰`, so qualities spaced `≥ 1e-3` apart
    /// always produce distinct keys.
    fn binary_key(q: f64) -> CacheKey {
        CacheKey::Binary {
            strategy: Strategy::Bv,
            bucket: jury_jq::BucketJqConfig::default(),
            exact_cutoff: 14,
            signature: jury_signature(&Jury::from_qualities(&[q]).unwrap(), Prior::uniform()),
        }
    }

    #[test]
    fn shard_routing_is_deterministic_across_stores() {
        let a = JqCache::new(1024, 8);
        let b = JqCache::new(4096, 8);
        for i in 0..200 {
            let q = 0.5 + 0.002 * i as f64 / 1.0;
            let key = binary_key(q.min(0.949));
            let shard = a.shard_for(&key);
            assert!(shard < a.num_shards());
            assert_eq!(shard, a.shard_for(&key), "same store, same key");
            assert_eq!(
                shard,
                b.shard_for(&key),
                "routing must depend only on the key and shard count"
            );
        }
    }

    #[test]
    fn eviction_in_one_shard_leaves_other_shards_intact() {
        // Two shards of two slots each. Overflowing one shard's slots must
        // evict only within that shard.
        let cache = JqCache::new(4, 2);
        let mut by_shard: Vec<Vec<CacheKey>> = vec![Vec::new(), Vec::new()];
        let mut q = 0.5;
        while by_shard[0].len() < 5 || by_shard[1].len() < 2 {
            let key = binary_key(q);
            let shard = cache.shard_for(&key);
            by_shard[shard].push(key);
            q += 0.002;
            assert!(q < 0.95, "could not craft enough keys per shard");
        }
        let (overflow, quiet) = (&by_shard[0], &by_shard[1][..2]);
        for key in quiet {
            cache.insert(key.clone(), 1.0);
        }
        // Five inserts into a two-slot shard force at least one eviction
        // sweep there.
        for key in overflow {
            cache.insert(key.clone(), 2.0);
        }
        assert!(cache.stats().evictions > 0);
        for key in quiet {
            assert_eq!(
                cache.get(key, CacheKind::Binary),
                Some(1.0),
                "eviction pressure on shard 0 must not touch shard 1"
            );
        }
        let shard_stats = cache.shard_stats();
        assert!(shard_stats[0].evictions > 0);
        assert_eq!(shard_stats[1].evictions, 0);
    }

    #[test]
    fn aggregated_stats_equal_shard_sums_under_concurrent_mixed_traffic() {
        // N threads × M requests of both kinds, disjoint key sets per
        // thread, capacity ample: every counter is exactly predictable and
        // the aggregate must equal the per-shard sum.
        const THREADS: usize = 8;
        const KEYS_PER_THREAD: usize = 25;
        let cache = JqCache::new(1 << 16, 8);
        let (pool, cat_prior) = multiclass_fixture();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let cache = &cache;
                let pool = &pool;
                let cat_prior = &cat_prior;
                scope.spawn(move || {
                    for i in 0..KEYS_PER_THREAD {
                        let q = 0.5 + 0.002 * (t * KEYS_PER_THREAD + i) as f64;
                        let key = binary_key(q);
                        // miss, insert, hit — exactly once each.
                        assert_eq!(cache.get(&key, CacheKind::Binary), None);
                        cache.insert(key.clone(), q);
                        assert_eq!(cache.get(&key, CacheKind::Binary), Some(q));
                        // The multi-class key space is disjoint by
                        // construction; give it the same traffic.
                        let members: Vec<&MatrixWorker> =
                            pool.workers().iter().take(1 + (i % 3)).collect();
                        let mc_key = CacheKey::MultiClass {
                            num_buckets: 64 + t * KEYS_PER_THREAD + i,
                            exact_votings: 1 << 12,
                            signature: multiclass_signature(members, cat_prior),
                        };
                        assert_eq!(cache.get(&mc_key, CacheKind::MultiClass), None);
                        cache.insert(mc_key.clone(), q + 1.0);
                        assert_eq!(cache.get(&mc_key, CacheKind::MultiClass), Some(q + 1.0));
                    }
                });
            }
        });

        let total = cache.stats();
        let per_kind = (THREADS * KEYS_PER_THREAD) as u64;
        assert_eq!(total.binary.hits, per_kind);
        assert_eq!(total.binary.misses, per_kind);
        assert_eq!(total.multiclass.hits, per_kind);
        assert_eq!(total.multiclass.misses, per_kind);
        assert_eq!(total.hits, 2 * per_kind);
        assert_eq!(total.misses, 2 * per_kind);
        assert_eq!(total.evictions, 0);
        assert_eq!(total.entries, 2 * per_kind as usize);

        let mut summed = CacheStats::default();
        for shard in cache.shard_stats() {
            summed.entries += shard.entries;
            summed.hits += shard.hits;
            summed.misses += shard.misses;
            summed.evictions += shard.evictions;
            summed.binary.hits += shard.binary.hits;
            summed.binary.misses += shard.binary.misses;
            summed.multiclass.hits += shard.multiclass.hits;
            summed.multiclass.misses += shard.multiclass.misses;
        }
        assert_eq!(total, summed, "aggregate must equal the per-shard sum");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    // The glob above also pulls in proptest's `Strategy` trait; the explicit
    // import keeps the request enum the one the keys are built from.
    use crate::request::Strategy;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(
            std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(32)
        ))]

        /// Routing depends only on the key: any jury signature maps to the
        /// same shard on every store with the same shard count, and the
        /// shard index is always in range.
        #[test]
        fn routing_is_a_pure_function_of_the_key(
            qualities in proptest::collection::vec(0.5f64..0.95, 1..6),
            shards in 1usize..16,
        ) {
            let jury = Jury::from_qualities(&qualities).unwrap();
            let key = CacheKey::Binary {
                strategy: Strategy::Bv,
                bucket: jury_jq::BucketJqConfig::default(),
                exact_cutoff: 14,
                signature: jury_signature(&jury, Prior::uniform()),
            };
            let a = JqCache::new(64, shards);
            let b = JqCache::new(1024, shards);
            let shard = a.shard_for(&key);
            prop_assert!(shard < shards.max(1));
            prop_assert_eq!(shard, a.shard_for(&key));
            prop_assert_eq!(shard, b.shard_for(&key));
        }

        /// Hits and misses always balance: storing then reading any key set
        /// keeps aggregate totals equal to the per-shard sums, whatever the
        /// shard count.
        #[test]
        fn aggregate_always_equals_shard_sum(
            qualities in proptest::collection::vec(0.5f64..0.95, 1..20),
            shards in 1usize..9,
        ) {
            let cache = JqCache::new(1 << 12, shards);
            for (i, &q) in qualities.iter().enumerate() {
                let jury = Jury::from_qualities(&[q]).unwrap();
                let key = CacheKey::Binary {
                    strategy: Strategy::Bv,
                    bucket: jury_jq::BucketJqConfig::default(),
                    exact_cutoff: 14,
                    signature: jury_signature(&jury, Prior::uniform()),
                };
                if cache.get(&key, CacheKind::Binary).is_none() {
                    cache.insert(key, i as f64);
                }
            }
            let total = cache.stats();
            let summed = cache.shard_stats().into_iter().fold(
                CacheStats::default(),
                |mut acc, shard| {
                    acc.entries += shard.entries;
                    acc.hits += shard.hits;
                    acc.misses += shard.misses;
                    acc.evictions += shard.evictions;
                    acc.binary.hits += shard.binary.hits;
                    acc.binary.misses += shard.binary.misses;
                    acc.multiclass.hits += shard.multiclass.hits;
                    acc.multiclass.misses += shard.multiclass.misses;
                    acc
                },
            );
            prop_assert_eq!(total, summed);
            prop_assert_eq!(total.hits + total.misses, qualities.len() as u64);
        }
    }
}
