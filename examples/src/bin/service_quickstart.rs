//! Quickstart for the `jury-service` API: single selections, parallel
//! batches with per-request errors, and the budget–quality endpoint.
//!
//! Run with:
//! ```text
//! cargo run -p jury-examples --release --bin service_quickstart
//! ```

use jury_model::{paper_example_pool, Prior};
use jury_service::{JuryService, SelectionRequest, SolverPolicy, Strategy};

fn main() {
    let service = JuryService::paper_experiments();
    let pool = paper_example_pool();

    // One request: the paper's 7-worker example at budget 15.
    let request = SelectionRequest::new(pool.clone(), 15.0)
        .with_prior(Prior::uniform())
        .with_strategy(Strategy::Bv)
        .with_policy(SolverPolicy::Auto);
    match service.select(&request) {
        Ok(response) => println!(
            "select:       jury {:?}, quality {:.3}, cost {}, solver {}, {} evaluations",
            response.worker_ids(),
            response.quality,
            response.cost,
            response.solver,
            response.evaluations
        ),
        Err(err) => println!("select:       error: {err}"),
    }

    // A batch mixing valid and invalid requests: errors are per-slot.
    let batch = vec![
        request.clone(),
        SelectionRequest::new(pool.clone(), -1.0), // invalid budget
        SelectionRequest::new(pool.clone(), 15.0).with_prior_alpha(2.0), // invalid prior
        SelectionRequest::new(pool.clone(), 1.0),  // below the cheapest worker
        request.clone().with_strategy(Strategy::Mv),
    ];
    println!("select_batch: {} requests", batch.len());
    for (i, result) in service.select_batch(&batch).results.iter().enumerate() {
        match result {
            Ok(response) => println!(
                "  [{i}] ok:    {} jury {:?} at quality {:.3}",
                response.strategy,
                response.worker_ids(),
                response.quality
            ),
            Err(err) => println!("  [{i}] error: {err}"),
        }
    }

    // The Figure 1 sweep through the same batched path.
    let table = service
        .budget_quality_table(&pool, &[5.0, 10.0, 15.0, 20.0], Prior::uniform())
        .expect("valid budgets");
    println!("\nbudget_quality_table:\n{}", table.render());

    let stats = service.cache_stats();
    println!(
        "jq cache: {} entries, {} hits / {} misses ({:.0}% hit rate)",
        stats.entries,
        stats.hits,
        stats.misses,
        stats.hit_rate() * 100.0
    );
}
