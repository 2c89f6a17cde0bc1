//! `sweep-warm`: one `budget_quality_table` of twelve ascending budgets per
//! operation, on a fresh pool of 200 or 1000 workers. The default
//! `SweepPolicy::WarmMarginal` carries one marginal-greedy search and one
//! incremental BV session across the budgets: no annealing at all.

use jury_model::{Prior, WorkerPool};
use jury_selection::{BudgetQualityTable, BvObjective, JuryObjective, SearchBudget};
use jury_service::{JuryService, ServiceConfig, ServiceError};

use crate::gen;
use crate::harness::{failed, Checked, Pass, Workload};
use crate::metrics::RunResult;
use crate::oracle;
use crate::rng::Rng;
use crate::trace::{SpanId, TracedObjective, Tracer};
use crate::workloads::{jq_layer_metrics, Replay};

pub const NAME: &str = "sweep-warm";
pub const SIZES: [usize; 2] = [200, 1000];

/// 2.5, 3.0, …, 8.0.
pub fn budgets() -> Vec<f64> {
    (0..12).map(|k| 2.5 + 0.5 * k as f64).collect()
}

pub struct SweepWarm;

pub fn input(seed: u64, index: u64) -> WorkerPool {
    let mut rng = Rng::derive(seed, NAME, index);
    gen::binary_pool(&mut rng, SIZES[(index % SIZES.len() as u64) as usize])
}

pub fn describe(pool: &WorkerPool) -> String {
    format!("budgets={:?} [{}]", budgets(), gen::describe_binary(pool))
}

/// Replays the sweep through the `jury-selection` entry point the service
/// uses for pools past the exact cutoff under `WarmMarginal`.
fn replay(pool: &WorkerPool, config: &ServiceConfig, tracer: &Tracer, parent: SpanId) -> Replay {
    tracer.span("selection.sweep", parent, |span| {
        let objective =
            TracedObjective::new(BvObjective::with_engine(config.jq_engine()), tracer, span);
        let (table, _) = BudgetQualityTable::build_warm_budgeted(
            pool,
            &budgets(),
            Prior::uniform(),
            &objective,
            SearchBudget::unlimited(),
        );
        let evaluations = objective.evaluations();
        objective.finish();
        Replay {
            juries: table.rows().iter().map(|row| row.jury.clone()).collect(),
            evaluations,
        }
    })
}

impl Workload for SweepWarm {
    type State = JuryService;
    type Input = WorkerPool;
    type Output = Result<BudgetQualityTable, ServiceError>;

    const MIN_OPS: u64 = 10 * SIZES.len() as u64;
    const TRACE_OPS: u64 = 100;

    /// The slowest sweeps are single pools scattered through the run, so a
    /// few seconds of load from outside the program set the tail of the
    /// whole run; three segments keep such a burst to one of them. (The
    /// other workloads keep one segment: batch-shared's tail is a JQ-store
    /// eviction recurring about every 107 batches, two or three slow
    /// batches each, and a third of a run holds fewer than ten of them.)
    const TAIL_SEGMENTS: usize = 3;

    /// Builds the service and serves one untimed warm-up sweep on a pool
    /// of its own, the same for every seed.
    fn setup(&self, _seed: u64) -> JuryService {
        let service = JuryService::new(ServiceConfig::default());
        let pool = gen::binary_pool(&mut Rng::derive(0, "sweep-warm/warm-up", 0), SIZES[0]);
        service
            .budget_quality_table(&pool, &budgets(), Prior::uniform())
            .expect("the warm-up sweep is valid");
        service
    }

    fn input(&self, _state: &JuryService, seed: u64, index: u64) -> WorkerPool {
        input(seed, index)
    }

    fn serve(
        &self,
        service: &mut JuryService,
        pool: &WorkerPool,
        trace: Option<(&Tracer, SpanId)>,
    ) -> Result<BudgetQualityTable, ServiceError> {
        let budgets = budgets();
        match trace {
            Some((tracer, op)) => tracer.span("service.budget_quality_table", op, |_| {
                service.budget_quality_table(pool, &budgets, Prior::uniform())
            }),
            None => service.budget_quality_table(pool, &budgets, Prior::uniform()),
        }
    }

    fn replay(
        &self,
        service: &JuryService,
        pool: &WorkerPool,
        tracer: &Tracer,
        parent: SpanId,
    ) -> Option<Replay> {
        Some(replay(pool, service.config(), tracer, parent))
    }

    fn check(
        &self,
        service: &JuryService,
        pool: &WorkerPool,
        served: &Result<BudgetQualityTable, ServiceError>,
        replayed: Option<&Replay>,
    ) -> Checked {
        let table = match served {
            Ok(table) => table,
            Err(err) => return failed(format!("budget_quality_table: {err}")),
        };
        let budgets = budgets();
        let mut checked = Checked::default();
        if table.rows().len() != budgets.len() {
            checked.fail(format!(
                "{} rows for {} budgets",
                table.rows().len(),
                budgets.len()
            ));
            return checked;
        }
        for (row, &budget) in table.rows().iter().zip(&budgets) {
            if row.budget != budget {
                checked.fail(format!(
                    "row for budget {} where {budget} was asked",
                    row.budget
                ));
            }
            checked.merge(oracle::binary(
                pool,
                budget,
                Prior::uniform(),
                oracle::Reported {
                    ids: &row.jury,
                    cost: row.required_budget,
                    quality: row.quality,
                },
                service.config(),
                &format!("row at budget {budget}"),
            ));
        }
        if let Some(replay) = replayed {
            let served: Vec<_> = table.rows().iter().map(|row| row.jury.clone()).collect();
            replay.check(&served, None, &mut checked);
        }
        checked
    }

    fn layer_metrics(
        &self,
        _service: &JuryService,
        tracer: &Tracer,
        pass: &Pass,
        result: &mut RunResult,
    ) {
        jq_layer_metrics(
            tracer,
            pass,
            "selection.sweep",
            "service.budget_quality_table",
            result,
        );
    }
}
