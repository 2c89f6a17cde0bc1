//! Seeded input generation. The pools are hard on purpose: qualities in
//! [0.5, 0.75] and costs in [0.5, 3], so optimal juries sit well below
//! JQ = 1 and any quality loss shows.
//!
//! Every pool of `n` workers is drawn from one fixed quality–cost profile:
//! worker `i` takes the `i`-th of `n` equal quality strata and the
//! `strata[i]`-th cost stratum, where `strata` is a permutation that depends
//! only on `n`. The seed draws each value uniformly within its stratum and
//! decides which id each worker gets. Each value is therefore uniform on
//! its range, pools never repeat, and two seeds give pools of the same
//! difficulty, so a run's figures vary with the program, not with the luck
//! of the draw.

use jury_model::{Label, MatrixPool, WorkerPool};

use crate::rng::Rng;

pub const QUALITY: (f64, f64) = (0.5, 0.75);
pub const COST: (f64, f64) = (0.5, 3.0);

fn shuffle<T>(rng: &mut Rng, values: &mut [T]) {
    for i in (1..values.len()).rev() {
        values.swap(i, rng.below(i + 1));
    }
}

/// `(quality, cost)` of `n` workers in quality-stratum order.
pub fn profile_by_stratum(rng: &mut Rng, n: usize) -> Vec<(f64, f64)> {
    let mut strata: Vec<usize> = (0..n).collect();
    shuffle(&mut Rng::derive(0, "cost-strata", n as u64), &mut strata);
    let within = |lo: f64, hi: f64, stratum: usize, rng: &mut Rng| {
        lo + (hi - lo) * (stratum as f64 + rng.unit()) / n as f64
    };
    (0..n)
        .map(|i| {
            let quality = within(QUALITY.0, QUALITY.1, i, rng);
            (quality, within(COST.0, COST.1, strata[i], rng))
        })
        .collect()
}

/// Qualities and costs of `n` workers, in (seeded) id order.
fn profile(rng: &mut Rng, n: usize) -> (Vec<f64>, Vec<f64>) {
    let mut workers = profile_by_stratum(rng, n);
    shuffle(rng, &mut workers);
    workers.into_iter().unzip()
}

/// A binary pool of `n` workers with ids `0..n`.
pub fn binary_pool(rng: &mut Rng, n: usize) -> WorkerPool {
    let (qualities, costs) = profile(rng, n);
    WorkerPool::from_qualities_and_costs(&qualities, &costs).expect("generated workers are valid")
}

/// A pool of `n` symmetric `classes`-label confusion-matrix workers.
pub fn matrix_pool(rng: &mut Rng, n: usize, classes: usize) -> MatrixPool {
    let (qualities, costs) = profile(rng, n);
    MatrixPool::from_qualities_and_costs(&qualities, &costs, classes)
        .expect("generated workers are valid")
}

/// A canonical text form of a binary pool: every id, quality and cost with
/// all its bits. Two pools with the same text are the same input.
pub fn describe_binary(pool: &WorkerPool) -> String {
    pool.iter()
        .map(|w| {
            format!(
                "{}:{:016x}:{:016x}",
                w.id().raw(),
                w.quality().to_bits(),
                w.cost().to_bits()
            )
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// [`describe_binary`] for confusion-matrix pools.
pub fn describe_matrix(pool: &MatrixPool) -> String {
    pool.iter()
        .map(|w| {
            let l = w.confusion().num_choices();
            let cells: Vec<String> = (0..l)
                .flat_map(|t| w.confusion().row(Label(t)).to_vec())
                .map(|p| format!("{:016x}", p.to_bits()))
                .collect();
            format!(
                "{}:{}:{:016x}",
                w.id().raw(),
                cells.join("."),
                w.cost().to_bits()
            )
        })
        .collect::<Vec<_>>()
        .join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_share_a_profile_but_not_their_values() {
        let sorted = |pool: &WorkerPool| {
            let mut q: Vec<f64> = pool.iter().map(|w| w.quality()).collect();
            q.sort_by(f64::total_cmp);
            q
        };
        let a = binary_pool(&mut Rng::derive(1, "t", 0), 50);
        let b = binary_pool(&mut Rng::derive(2, "t", 0), 50);
        assert_ne!(describe_binary(&a), describe_binary(&b));
        for (x, y) in sorted(&a).iter().zip(sorted(&b)) {
            assert!((x - y).abs() < (QUALITY.1 - QUALITY.0) / 50.0);
        }
        for w in a.iter() {
            assert!((QUALITY.0..QUALITY.1).contains(&w.quality()));
            assert!((COST.0..COST.1).contains(&w.cost()));
        }
    }
}
