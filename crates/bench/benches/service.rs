//! Criterion benchmarks for the `jury-service` batch path: a batch of 64
//! selection requests served by `select_batch` (data-parallel, shared JQ
//! cache) versus a sequential loop of single `select` calls, plus the
//! cache's effect on repeated single selections.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

use jury_model::{GaussianWorkerGenerator, Prior};
use jury_service::{JuryService, SelectionRequest, ServiceConfig};

/// A batch of `n` requests over a handful of synthetic pools and budgets —
/// overlapping enough for the shared cache to matter, varied enough to be
/// honest work.
fn batch(n: usize) -> Vec<SelectionRequest> {
    let generator = GaussianWorkerGenerator::paper_defaults();
    let pools: Vec<_> = (0..4)
        .map(|seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            generator.generate(40, &mut rng)
        })
        .collect();
    (0..n)
        .map(|i| {
            let pool = pools[i % pools.len()].clone();
            let budget = 0.2 + 0.1 * ((i / pools.len()) % 4) as f64;
            SelectionRequest::new(pool, budget).with_prior(Prior::uniform())
        })
        .collect()
}

fn bench_batch_vs_sequential(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_batch64");
    group.sample_size(10);
    let requests = batch(64);

    group.bench_with_input(
        BenchmarkId::from_parameter("sequential_select_loop"),
        &requests,
        |b, requests| {
            b.iter(|| {
                // Fresh service per run: both sides start with a cold cache.
                let service = JuryService::new(ServiceConfig::fast());
                requests
                    .iter()
                    .map(|r| service.select(r).expect("valid bench request"))
                    .collect::<Vec<_>>()
            })
        },
    );

    group.bench_with_input(
        BenchmarkId::from_parameter("select_batch"),
        &requests,
        |b, requests| {
            b.iter(|| {
                let service = JuryService::new(ServiceConfig::fast());
                let results = service.select_batch(requests).results;
                assert!(results.iter().all(|r| r.is_ok()));
                results
            })
        },
    );

    group.finish();
}

fn bench_cache_effect(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_jq_cache");
    group.sample_size(10);
    let requests = batch(16);

    // One shared service: after the first pass the cache is warm.
    let warm = JuryService::new(ServiceConfig::fast());
    let _ = warm.select_batch(&requests);
    group.bench_with_input(
        BenchmarkId::from_parameter("warm_cache"),
        &requests,
        |b, requests| b.iter(|| warm.select_batch(requests)),
    );

    group.bench_with_input(
        BenchmarkId::from_parameter("cold_cache"),
        &requests,
        |b, requests| {
            b.iter(|| {
                let cold = JuryService::new(ServiceConfig::fast().with_cache_capacity(0));
                cold.select_batch(requests)
            })
        },
    );

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(4))
        .sample_size(10);
    targets = bench_batch_vs_sequential, bench_cache_effect
}
criterion_main!(benches);
