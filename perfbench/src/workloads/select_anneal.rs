//! `select-anneal`: one `select` / `select_multiclass` per operation, each
//! on a fresh pool, cycling through binary n ∈ {60, 200, 1000} and a
//! 3-class pool of 40. No pool repeats, so the JQ store is bypassed and
//! annealing plus incremental-session push/pop carry the time.

use jury_model::{CategoricalPrior, MatrixPool, Prior, WorkerId, WorkerPool};
use jury_selection::{AnnealingSolver, BvObjective, JspInstance, JuryObjective, JurySolver};
use jury_service::{
    JuryService, MultiClassSelectionRequest, MultiClassSelectionResponse, SelectionRequest,
    SelectionResponse, ServiceConfig, ServiceError,
};

use crate::gen;
use crate::harness::{failed, Checked, Pass, Workload};
use crate::metrics::RunResult;
use crate::oracle;
use crate::rng::Rng;
use crate::trace::{SpanId, TracedObjective, Tracer};
use crate::workloads::{jq_layer_metrics, Replay};

pub const NAME: &str = "select-anneal";
pub const BUDGET: f64 = 8.0;
pub const CLASSES: usize = 3;

/// One cycle of request shapes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    Binary(usize),
    MultiClass(usize),
}

pub const CYCLE: [Shape; 4] = [
    Shape::Binary(60),
    Shape::Binary(200),
    Shape::Binary(1000),
    Shape::MultiClass(40),
];

pub enum Input {
    Binary(WorkerPool),
    MultiClass(MatrixPool),
}

pub enum Output {
    Binary(Result<SelectionResponse, ServiceError>),
    MultiClass(Result<MultiClassSelectionResponse, ServiceError>),
}

pub struct SelectAnneal;

pub fn input(seed: u64, index: u64) -> Input {
    let mut rng = Rng::derive(seed, NAME, index);
    match CYCLE[(index % CYCLE.len() as u64) as usize] {
        Shape::Binary(n) => Input::Binary(gen::binary_pool(&mut rng, n)),
        Shape::MultiClass(n) => Input::MultiClass(gen::matrix_pool(&mut rng, n, CLASSES)),
    }
}

pub fn describe(input: &Input) -> String {
    match input {
        Input::Binary(pool) => format!("binary budget={BUDGET} [{}]", gen::describe_binary(pool)),
        Input::MultiClass(pool) => format!(
            "{CLASSES}-class budget={BUDGET} [{}]",
            gen::describe_matrix(pool)
        ),
    }
}

/// Replays a binary `select` through the `jury-selection` entry point the
/// service dispatches an `Auto` request on a pool past the exact cutoff to.
fn replay(pool: &WorkerPool, config: &ServiceConfig, tracer: &Tracer, parent: SpanId) -> Replay {
    tracer.span("selection.anneal", parent, |span| {
        let objective =
            TracedObjective::new(BvObjective::with_engine(config.jq_engine()), tracer, span);
        let instance = JspInstance::new(pool.clone(), BUDGET, Prior::uniform())
            .expect("generated instances are valid");
        let result = AnnealingSolver::with_config(&objective, config.annealing).solve(&instance);
        let mut jury = result.jury.ids();
        jury.sort();
        let evaluations = objective.evaluations();
        objective.finish();
        Replay {
            juries: vec![jury],
            evaluations,
        }
    })
}

impl Workload for SelectAnneal {
    type State = JuryService;
    type Input = Input;
    type Output = Output;

    const MIN_OPS: u64 = 4 * CYCLE.len() as u64;
    const TRACE_OPS: u64 = 8;

    /// Builds the service and serves one untimed warm-up request on a pool
    /// of its own, the same for every seed.
    fn setup(&self, _seed: u64) -> JuryService {
        let service = JuryService::new(ServiceConfig::default());
        let pool = gen::binary_pool(&mut Rng::derive(0, "select-anneal/warm-up", 0), 60);
        service
            .select(&SelectionRequest::new(pool, BUDGET))
            .expect("the warm-up request is valid");
        service
    }

    fn input(&self, _state: &JuryService, seed: u64, index: u64) -> Input {
        input(seed, index)
    }

    fn serve(
        &self,
        service: &mut JuryService,
        input: &Input,
        trace: Option<(&Tracer, SpanId)>,
    ) -> Output {
        match input {
            Input::Binary(pool) => {
                let request = SelectionRequest::new(pool.clone(), BUDGET);
                Output::Binary(match trace {
                    Some((tracer, op)) => {
                        tracer.span("service.select", op, |_| service.select(&request))
                    }
                    None => service.select(&request),
                })
            }
            Input::MultiClass(pool) => {
                let request = MultiClassSelectionRequest::new(pool.clone(), BUDGET);
                Output::MultiClass(match trace {
                    Some((tracer, op)) => tracer.span("service.select_multiclass", op, |_| {
                        service.select_multiclass(&request)
                    }),
                    None => service.select_multiclass(&request),
                })
            }
        }
    }

    fn replay(
        &self,
        service: &JuryService,
        input: &Input,
        tracer: &Tracer,
        parent: SpanId,
    ) -> Option<Replay> {
        match input {
            Input::Binary(pool) => Some(replay(pool, service.config(), tracer, parent)),
            Input::MultiClass(_) => None,
        }
    }

    fn check(
        &self,
        service: &JuryService,
        input: &Input,
        output: &Output,
        replayed: Option<&Replay>,
    ) -> Checked {
        let config = service.config();
        match (input, output) {
            (Input::Binary(pool), Output::Binary(served)) => match served {
                Ok(response) => {
                    let ids = response.worker_ids();
                    let mut checked = oracle::binary(
                        pool,
                        BUDGET,
                        Prior::uniform(),
                        oracle::Reported {
                            ids: &ids,
                            cost: response.cost,
                            quality: response.quality,
                        },
                        config,
                        "select",
                    );
                    if let Some(replay) = replayed {
                        replay.check(&[ids], Some(response.evaluations), &mut checked);
                    }
                    checked
                }
                Err(err) => failed(format!("select: {err}")),
            },
            (Input::MultiClass(pool), Output::MultiClass(served)) => match served {
                Ok(response) => {
                    let ids: Vec<WorkerId> = response.worker_ids();
                    let prior = CategoricalPrior::uniform(CLASSES).expect("3 labels");
                    oracle::multiclass(
                        pool,
                        BUDGET,
                        &prior,
                        oracle::Reported {
                            ids: &ids,
                            cost: response.cost,
                            quality: response.quality,
                        },
                        config,
                        "select_multiclass",
                    )
                }
                Err(err) => failed(format!("select_multiclass: {err}")),
            },
            _ => unreachable!("outputs follow their inputs"),
        }
    }

    fn layer_metrics(
        &self,
        _service: &JuryService,
        tracer: &Tracer,
        pass: &Pass,
        result: &mut RunResult,
    ) {
        jq_layer_metrics(tracer, pass, "selection.anneal", "service.select", result);
    }
}
