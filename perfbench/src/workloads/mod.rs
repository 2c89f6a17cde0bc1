//! The four workloads. Each module holds one workload's input generation,
//! its timed call into `jury-service`, its oracle, and the per-layer
//! metrics its traced run reports.

pub mod batch_shared;
pub mod online_drift;
pub mod select_anneal;
pub mod sweep_warm;

use jury_model::WorkerId;

use crate::harness::{Checked, Pass};
use crate::metrics::RunResult;
use crate::trace::{Tracer, JQ_CALLS};

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 4] = [
    select_anneal::NAME,
    sweep_warm::NAME,
    batch_shared::NAME,
    online_drift::NAME,
];

/// What a traced replay of a served operation returned.
#[derive(Debug)]
pub struct Replay {
    /// Sorted member ids of every jury, in the served operation's order.
    pub juries: Vec<Vec<WorkerId>>,
    pub evaluations: u64,
}

impl Replay {
    /// Fidelity: the replay must return what was served — same juries and,
    /// where the response reports it, the same evaluation count.
    pub fn check(
        &self,
        served: &[Vec<WorkerId>],
        served_evaluations: Option<u64>,
        out: &mut Checked,
    ) {
        if self.juries != served {
            out.fail(format!(
                "replay fidelity: replay returned {:?}, service returned {:?}",
                self.juries, served
            ));
        }
        if let Some(evaluations) = served_evaluations {
            if evaluations != self.evaluations {
                out.fail(format!(
                    "replay fidelity: replay spent {} evaluations, service {evaluations}",
                    self.evaluations
                ));
            }
        }
    }
}

/// The `jury-jq`, `jury-selection` and `service.self_ms` metrics of a
/// traced run whose served calls are `served` spans and whose replayed
/// solves are `solve` spans holding the recorded `jury-jq` calls. The cost
/// of recording each call (calibrated by the tracer) is taken out of the
/// solve spans, where it lands.
pub fn jq_layer_metrics(
    tracer: &Tracer,
    pass: &Pass,
    solve: &str,
    served: &str,
    result: &mut RunResult,
) {
    let mut jq_busy = 0.0;
    let mut jq_calls = 0;
    for call in JQ_CALLS {
        let (count, seconds) = tracer.totals(call);
        jq_busy += seconds;
        jq_calls += count;
        let (count_name, mean_name) = jq_names(call);
        result.set(count_name, count as f64);
        result.set(
            mean_name,
            if count == 0 {
                0.0
            } else {
                seconds * 1e6 / count as f64
            },
        );
    }
    let recording_s = jq_calls as f64 * tracer.call_cost_s();
    let (solves, solve_s) = tracer.totals(solve);
    let solve_s = solve_s - recording_s;
    let (_, served_s) = tracer.totals(served);
    let per_solve = |seconds: f64| {
        if solves == 0 {
            0.0
        } else {
            seconds * 1e3 / solves as f64
        }
    };
    result.set(
        "jq.busy_share",
        if solve_s > 0.0 {
            jq_busy / solve_s
        } else {
            0.0
        },
    );
    result.set(
        "selection.self_ms",
        per_solve(tracer.self_seconds(solve) - recording_s),
    );
    let evaluations: u64 = pass.replay_evaluations.iter().sum();
    result.set(
        "selection.evaluations",
        if solves == 0 {
            0.0
        } else {
            evaluations as f64 / solves as f64
        },
    );
    result.set("service.self_ms", per_solve(served_s - solve_s));
}

fn jq_names(call: &str) -> (&'static str, &'static str) {
    match call {
        "jq.push" => ("jq.push.count", "jq.push.mean_us"),
        "jq.pop" => ("jq.pop.count", "jq.pop.mean_us"),
        "jq.value" => ("jq.value.count", "jq.value.mean_us"),
        "jq.session_open" => ("jq.session_open.count", "jq.session_open.mean_us"),
        _ => ("jq.evaluate.count", "jq.evaluate.mean_us"),
    }
}

/// The canonical text of the first `ops` operations of `workload` under
/// `seed`: every input the program receives, with all bits of every number.
pub fn op_sequence(workload: &str, seed: u64, ops: u64) -> String {
    let universe = batch_shared::universe(seed);
    let setup = match workload {
        online_drift::NAME => {
            let (qualities, costs) = online_drift::population(seed);
            let workers: Vec<String> = qualities
                .iter()
                .zip(&costs)
                .map(|(q, c)| format!("{:016x}:{:016x}", q.to_bits(), c.to_bits()))
                .collect();
            vec![format!("registry [{}]", workers.join(","))]
        }
        _ => Vec::new(),
    };
    let ops = (0..ops).map(|i| match workload {
        select_anneal::NAME => select_anneal::describe(&select_anneal::input(seed, i)),
        sweep_warm::NAME => sweep_warm::describe(&sweep_warm::input(seed, i)),
        batch_shared::NAME => batch_shared::describe(&batch_shared::input(&universe, seed, i)),
        online_drift::NAME => online_drift::describe(&online_drift::input(seed, i)),
        other => panic!("unknown workload {other}"),
    });
    setup
        .into_iter()
        .chain(ops)
        .collect::<Vec<_>>()
        .join("\n--\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::valid_name;

    #[test]
    fn one_seed_gives_a_byte_identical_op_sequence() {
        for workload in NAMES {
            let first = op_sequence(workload, 7, 6);
            let again = op_sequence(workload, 7, 6);
            assert_eq!(first.as_bytes(), again.as_bytes(), "{workload}");
            assert_ne!(
                first,
                op_sequence(workload, 8, 6),
                "{workload}: the seed must matter"
            );
            // A prefix does not depend on how many operations follow it.
            assert!(
                first.starts_with(&op_sequence(workload, 7, 3)),
                "{workload}"
            );
        }
    }

    #[test]
    fn workload_names_are_valid() {
        for workload in NAMES {
            assert!(valid_name(workload), "{workload}");
        }
    }

    #[test]
    fn generated_pools_are_the_hard_pools() {
        for i in 0..8 {
            match select_anneal::input(3, i) {
                select_anneal::Input::Binary(pool) => {
                    for w in pool.iter() {
                        assert!((0.5..0.75).contains(&w.quality()), "{}", w.quality());
                        assert!((0.5..3.0).contains(&w.cost()), "{}", w.cost());
                    }
                }
                select_anneal::Input::MultiClass(pool) => {
                    assert_eq!(pool.num_choices(), select_anneal::CLASSES);
                    assert_eq!(pool.len(), 40);
                }
            }
        }
    }
}
