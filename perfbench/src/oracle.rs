//! The output oracle: every returned jury is re-checked outside the timed
//! region — within budget, members unique and drawn from the pool, cost as
//! reported, and reported quality within the §4.4 error bound of an exact
//! re-score (`jury_jq::exact_bv_jq` / `exact_multiclass_bv_jq`).

use std::collections::BTreeSet;

use jury_jq::{
    error_bound, exact_bv_jq, exact_multiclass_bv_jq, multiclass_grid_deltas, BucketJqEstimator,
    MultiClassBucketConfig,
};
use jury_model::{CategoricalPrior, Jury, MatrixJury, MatrixPool, Prior, WorkerId, WorkerPool};
use jury_service::ServiceConfig;

use crate::harness::Checked;

/// Slack for floating-point sums of costs and qualities.
const EPS: f64 = 1e-9;

/// A jury as the service reported it.
pub struct Reported<'a> {
    pub ids: &'a [WorkerId],
    pub cost: f64,
    pub quality: f64,
}

fn unique(ids: &[WorkerId], what: &str, out: &mut Checked) -> bool {
    let distinct: BTreeSet<WorkerId> = ids.iter().copied().collect();
    if distinct.len() != ids.len() {
        out.fail(format!("{what}: duplicate members {ids:?}"));
        return false;
    }
    true
}

fn cost_and_budget(cost: f64, reported_cost: f64, budget: f64, what: &str, out: &mut Checked) {
    if cost > budget + EPS {
        out.fail(format!("{what}: cost {cost} exceeds budget {budget}"));
    }
    if (cost - reported_cost).abs() > EPS {
        out.fail(format!(
            "{what}: reported cost {reported_cost} but members cost {cost}"
        ));
    }
}

/// Checks a binary jury returned for `pool` under `budget`, and re-scores it.
pub fn binary(
    pool: &WorkerPool,
    budget: f64,
    prior: Prior,
    reported: Reported<'_>,
    config: &ServiceConfig,
    what: &str,
) -> Checked {
    let mut out = Checked::default();
    let Reported {
        ids,
        cost: reported_cost,
        quality: reported_quality,
    } = reported;
    if !unique(ids, what, &mut out) {
        return out;
    }
    let jury = match Jury::from_pool(pool, ids) {
        Ok(jury) => jury,
        Err(err) => {
            out.fail(format!("{what}: member not in the pool ({err})"));
            return out;
        }
    };
    cost_and_budget(jury.cost(), reported_cost, budget, what, &mut out);
    let exact = match exact_bv_jq(&jury, prior) {
        Ok(exact) => exact,
        Err(err) => {
            out.fail(format!("{what}: no exact re-score ({err})"));
            return out;
        }
    };
    // Juries within the exact cutoff are scored exactly by the service;
    // larger ones carry the bucket estimator's own a-priori bound.
    let bound = if jury.size() <= config.exact_cutoff {
        0.0
    } else {
        BucketJqEstimator::new(config.bucket)
            .estimate(&jury, prior)
            .error_bound
    };
    if (reported_quality - exact).abs() > bound + EPS {
        out.fail(format!(
            "{what}: reported JQ {reported_quality} vs exact {exact} (bound {bound})"
        ));
    }
    out.exact_jq.push(exact);
    out
}

/// Checks a confusion-matrix jury returned for `pool` under `budget`, and
/// re-scores it.
pub fn multiclass(
    pool: &MatrixPool,
    budget: f64,
    prior: &CategoricalPrior,
    reported: Reported<'_>,
    config: &ServiceConfig,
    what: &str,
) -> Checked {
    let mut out = Checked::default();
    let Reported {
        ids,
        cost: reported_cost,
        quality: reported_quality,
    } = reported;
    if !unique(ids, what, &mut out) {
        return out;
    }
    let members = match ids.iter().map(|&id| pool.get(id).cloned()).collect() {
        Ok(members) => members,
        Err(err) => {
            out.fail(format!("{what}: member not in the pool ({err})"));
            return out;
        }
    };
    let jury = match MatrixJury::new(members) {
        Ok(jury) => jury,
        Err(err) => {
            out.fail(format!("{what}: not a jury ({err})"));
            return out;
        }
    };
    cost_and_budget(jury.cost(), reported_cost, budget, what, &mut out);
    let exact = match exact_multiclass_bv_jq(&jury, prior) {
        Ok(exact) => exact,
        Err(err) => {
            out.fail(format!("{what}: no exact re-score ({err})"));
            return out;
        }
    };
    // The Section 7 DP quantizes each target's log-ratio sums on a grid of
    // width δ_t; the §4.4 bound at the widest grid covers it.
    let bucket: MultiClassBucketConfig = config.multiclass_bucket;
    let delta = multiclass_grid_deltas(&jury, prior, bucket)
        .map(|deltas| deltas.into_iter().fold(0.0, f64::max))
        .unwrap_or(f64::INFINITY);
    let bound = error_bound(jury.size(), delta);
    if (reported_quality - exact).abs() > bound + EPS {
        out.fail(format!(
            "{what}: reported JQ {reported_quality} vs exact {exact} (bound {bound})"
        ));
    }
    out.exact_jq.push(exact);
    out
}
