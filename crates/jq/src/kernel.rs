//! Low-level kernels and scratch-memory arena for the incremental JQ engines.
//!
//! This module is the "raw speed" layer under [`crate::incremental`] and
//! [`crate::multiclass_incremental`]: the dense convolution /
//! deconvolution passes that every solver step (annealing, greedy,
//! tabu, restarts, repair) ultimately spends its time in.
//!
//! Two things live here:
//!
//! * **Kernel pairs.** Every hot recurrence exists twice: a *vectorized*
//!   variant written as chunked, split-at-offset window passes over
//!   contiguous slices (branch-free inner loops that LLVM auto-vectorizes
//!   with SSE2 2-lane `f64` arithmetic), and the original *scalar
//!   reference* loop it was derived from. [`KernelMode`] selects between
//!   them at run time; the reference path is kept permanently so
//!   equivalence is testable on every target (the property suites pin
//!   `Vectorized == ScalarReference` to `1e-12`, and on non-FMA targets
//!   the binary-engine kernels are bit-identical by construction).
//!
//! * **[`JqScratch`]**, a buffer arena that owns retired `Vec<f64>`
//!   distributions (and member lists) so that building an incremental
//!   session, pushing/popping workers, and even the `pop_worker` rebuild
//!   fallback perform **zero heap allocations** after warm-up. Engines are
//!   built with `*_in` constructors that draw from an arena and return
//!   their buffers via `recycle` when dropped.
//!
//! # Why the vectorized forms are safe
//!
//! The scalar convolution scatters `dist[i]` into `scratch[i]` and
//! `scratch[i + 2b]`; the vectorized form runs the same arithmetic as two
//! slice passes (a scale pass and a shifted multiply-accumulate pass).
//! Because IEEE-754 addition of the same two finite terms is commutative
//! and every cell receives at most one term per pass, the result is
//! bit-identical on targets without fused multiply-add. Deconvolution is a
//! backward-substitution recurrence with dependency distance `2b`, so it
//! is solved in windows of width `2b` from the top: each window depends
//! only on already-solved cells and is itself a dependency-free slice
//! pass. See the "Kernel performance handbook" in `ARCHITECTURE.md` for
//! the full layout story.

use crate::incremental::Member;

/// Selects which implementation of the dense DP kernels an engine runs.
///
/// The vectorized kernels are the production path; the scalar loops are
/// retained as an executable specification. Both compute the same
/// recurrence — the property tests in `incremental.rs`, `bucket.rs`, and
/// `multiclass_incremental.rs` pin them together to `1e-12` across random
/// push/pop/swap sequences, including the forced deconvolution-fallback
/// path.
///
/// ```
/// use jury_jq::{IncrementalJqConfig, KernelMode};
///
/// let fast = IncrementalJqConfig::default(); // Vectorized is the default
/// assert_eq!(fast.kernel, KernelMode::Vectorized);
///
/// let reference = IncrementalJqConfig::default()
///     .with_kernel_mode(KernelMode::ScalarReference);
/// assert_eq!(reference.kernel, KernelMode::ScalarReference);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelMode {
    /// Chunked split-at-offset window passes over contiguous slices
    /// (auto-vectorizable; allocation-free given warmed buffers). The
    /// default.
    #[default]
    Vectorized,
    /// The original element-at-a-time loops, kept as the reference
    /// implementation the vectorized path is tested against.
    ScalarReference,
}

/// Upper bound on pooled buffers of each kind; beyond this, recycled
/// buffers are dropped instead of retained.
const MAX_POOLED: usize = 32;

/// A reusable scratch-memory arena for the incremental JQ engines.
///
/// The steady-state cost of the incremental hot path is dominated by the
/// `Vec<f64>` distribution buffers the engines work in. `JqScratch` keeps
/// retired buffers (cleared, capacity intact) so the next session build or
/// rebuild can reuse them instead of allocating:
///
/// * [`IncrementalJq::for_pool_in`](crate::IncrementalJq::for_pool_in) and
///   [`IncrementalMvJq::new_in`](crate::IncrementalMvJq::new_in) draw
///   their buffers from an arena;
/// * `recycle(self, &mut JqScratch)` on either engine returns them;
/// * the selection layer's session objects do this automatically on drop.
///
/// After one warm-up session at the largest grid a workload reaches,
/// subsequent sessions allocate nothing on push/pop/swap/value — enforced
/// by a counting-allocator test in `crates/selection/tests/zero_alloc.rs`.
///
/// ```
/// use jury_jq::JqScratch;
///
/// let mut arena = JqScratch::new();
///
/// // Buffers start empty; recycled buffers keep their capacity.
/// let mut buf = arena.take_buffer();
/// assert!(buf.is_empty());
/// buf.resize(1024, 0.0);
/// arena.recycle_buffer(buf);
/// assert_eq!(arena.buffers_held(), 1);
///
/// let warm = arena.take_buffer();
/// assert!(warm.is_empty());
/// assert!(warm.capacity() >= 1024); // no allocation needed to reuse it
/// ```
#[derive(Debug, Default)]
pub struct JqScratch {
    buffers: Vec<Vec<f64>>,
    members: Vec<Vec<Member>>,
}

impl JqScratch {
    /// Creates an empty arena. Buffers are pooled as engines recycle them.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a cleared `f64` buffer from the pool, or a fresh empty one if
    /// the pool is dry. Recycled buffers keep their capacity, so a warm
    /// arena hands out allocation-free storage.
    ///
    /// The largest pooled buffer is handed out first: engines take buffers
    /// in descending order of expected size, so matching greedily by
    /// capacity keeps a warm arena allocation-free even when the pooled
    /// capacities differ.
    #[must_use]
    pub fn take_buffer(&mut self) -> Vec<f64> {
        let largest = self
            .buffers
            .iter()
            .enumerate()
            .max_by_key(|(_, buffer)| buffer.capacity())
            .map(|(index, _)| index);
        match largest {
            Some(index) => self.buffers.swap_remove(index),
            None => Vec::new(),
        }
    }

    /// Returns a buffer to the pool. The buffer is cleared but its
    /// capacity is retained for the next [`take_buffer`](Self::take_buffer).
    pub fn recycle_buffer(&mut self, mut buffer: Vec<f64>) {
        if self.buffers.len() < MAX_POOLED {
            buffer.clear();
            self.buffers.push(buffer);
        }
    }

    /// Number of `f64` buffers currently held by the arena.
    #[must_use]
    pub fn buffers_held(&self) -> usize {
        self.buffers.len()
    }

    /// Total `f64` capacity parked in the arena across all pooled buffers.
    #[must_use]
    pub fn pooled_capacity(&self) -> usize {
        self.buffers.iter().map(Vec::capacity).sum()
    }

    pub(crate) fn take_members(&mut self) -> Vec<Member> {
        self.members.pop().unwrap_or_default()
    }

    pub(crate) fn recycle_members(&mut self, mut members: Vec<Member>) {
        if self.members.len() < MAX_POOLED {
            members.clear();
            self.members.push(members);
        }
    }
}

/// A poison-tolerant `Mutex<JqScratch>` for sharing one arena between the
/// sessions an objective hands out.
///
/// The selection objectives own one of these; every incremental session
/// they create borrows it, draws buffers at construction, and recycles
/// them on drop. `std::sync::Mutex` is used deliberately: locking it does
/// not allocate, so the arena itself never breaks the zero-alloc claim.
///
/// ```
/// use jury_jq::SharedJqScratch;
///
/// let shared = SharedJqScratch::new();
/// let buf = shared.lock().take_buffer();
/// shared.lock().recycle_buffer(buf);
/// assert_eq!(shared.lock().buffers_held(), 1);
/// ```
#[derive(Debug, Default)]
pub struct SharedJqScratch {
    inner: std::sync::Mutex<JqScratch>,
}

impl SharedJqScratch {
    /// Creates a shared arena around an empty [`JqScratch`].
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Locks the arena. A poisoned lock (a panic while holding it) is
    /// recovered rather than propagated — the arena holds only recyclable
    /// buffers, so there is no invariant a panic could have broken.
    pub fn lock(&self) -> std::sync::MutexGuard<'_, JqScratch> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Fused multiply-add where the target has hardware FMA, plain
/// multiply-then-add otherwise.
///
/// `f64::mul_add` without hardware support lowers to a (slow, software)
/// libm call; worse, it would make the vectorized kernels round
/// differently from the scalar reference on exactly the targets where the
/// libm call also makes them slower. Gating on the `fma` target feature
/// gives contraction where it is free and bit-identical arithmetic where
/// it is not.
#[inline(always)]
pub(crate) fn fmadd(a: f64, b: f64, acc: f64) -> f64 {
    if cfg!(target_feature = "fma") {
        a.mul_add(b, acc)
    } else {
        a * b + acc
    }
}

// ---------------------------------------------------------------------------
// Binary engine (IncrementalJq): spike convolution over the bucket grid
// ---------------------------------------------------------------------------

/// Vectorized convolution of `dist` with a worker spike pair
/// `{+b: quality, -b: 1 - quality}` (log-odds bucket `b = step`), writing
/// the grown distribution into `out`.
///
/// Layout: `dist[i]` is the probability of offset key `i - total`, so the
/// new distribution has length `dist.len() + 2 * step` and
/// `out[i] = dist[i] * (1 - q) + dist[i - 2b] * q`. The scalar loop
/// scatters each source cell to two destinations; here the same arithmetic
/// is two dependency-free slice passes (scale, then shifted
/// multiply-accumulate), which is what LLVM needs to emit packed SSE2.
pub(crate) fn convolve_spikes(dist: &[f64], out: &mut Vec<f64>, step: usize, quality: f64) {
    let width = 2 * step;
    out.clear();
    out.resize(dist.len() + width, 0.0);
    let one_minus = 1.0 - quality;
    // Scale pass: the "stay low" term lands at the source index.
    for (o, &p) in out[..dist.len()].iter_mut().zip(dist) {
        *o = p * one_minus;
    }
    // Accumulate pass: the "step up" term lands 2b slots higher.
    for (o, &p) in out[width..].iter_mut().zip(dist) {
        *o = fmadd(p, quality, *o);
    }
}

/// Scalar reference for [`convolve_spikes`]: the original scatter loop.
pub(crate) fn convolve_spikes_scalar(dist: &[f64], out: &mut Vec<f64>, step: usize, quality: f64) {
    let width = 2 * step;
    out.clear();
    out.resize(dist.len() + width, 0.0);
    let one_minus = 1.0 - quality;
    for (i, &p) in dist.iter().enumerate() {
        if p == 0.0 {
            continue;
        }
        out[i + width] += p * quality;
        out[i] += p * one_minus;
    }
}

/// [`convolve_spikes`] with `dist` as its own target, for the one caller
/// that has no second buffer to spare (the probe-side rebuild fallback of
/// `IncrementalJq::probe_swap`, which must leave the engine's state
/// buffer untouched). Cells are filled top-down, so every cell reads only
/// source cells at or below it that are not yet overwritten; the
/// arithmetic is that of [`convolve_spikes`], cell for cell.
pub(crate) fn convolve_spikes_in_place(dist: &mut Vec<f64>, step: usize, quality: f64) {
    let width = 2 * step;
    let len = dist.len();
    dist.resize(len + width, 0.0);
    let one_minus = 1.0 - quality;
    for i in (0..len + width).rev() {
        let stay = if i < len { dist[i] * one_minus } else { 0.0 };
        dist[i] = if i >= width {
            fmadd(dist[i - width], quality, stay)
        } else {
            stay
        };
    }
}

/// Vectorized exact deconvolution: removes a worker spike pair from `new`,
/// writing the shrunk distribution into `out`. Returns `false` (engine
/// falls back to a rebuild) if the result is not a clean probability
/// vector within `tolerance`.
///
/// The recurrence `old[j] = (new[j + 2b] - (1-q) * old[j + 2b]) / q` has
/// dependency distance `2b`, so cells are solved top-down in windows of
/// width `2b`: the first window's dependencies fall off the top of the
/// array (provably zero), and each later window reads only the
/// already-solved suffix, exposed as a disjoint slice via
/// `split_at_mut`. Within a window the compute pass is dependency-free;
/// the clamp/sum pass then walks the window in reverse so the stability
/// guard accumulates in exactly the scalar reference's order.
pub(crate) fn deconvolve_spikes(
    new: &[f64],
    out: &mut Vec<f64>,
    step: usize,
    quality: f64,
    tolerance: f64,
) -> bool {
    let width = 2 * step;
    let old_len = new.len() - width;
    out.clear();
    out.resize(old_len, 0.0);
    let one_minus = 1.0 - quality;
    let mut sum = 0.0f64;
    let mut hi = old_len;
    let mut first = true;
    while hi > 0 {
        let lo = hi.saturating_sub(width);
        if first {
            // The dependency `old[j + 2b]` indexes past the end of the old
            // array for every j in the top window, so the term is zero.
            for (o, &n) in out[lo..hi].iter_mut().zip(&new[lo + width..hi + width]) {
                *o = n / quality;
            }
            first = false;
        } else {
            let (head, solved) = out.split_at_mut(hi);
            let window = &mut head[lo..];
            let above = &solved[lo + width - hi..width];
            for ((o, &n), &a) in window
                .iter_mut()
                .zip(&new[lo + width..hi + width])
                .zip(above)
            {
                *o = fmadd(-one_minus, a, n) / quality;
            }
        }
        // Clamp + stability sum, in the scalar loop's descending order.
        for o in out[lo..hi].iter_mut().rev() {
            let value = *o;
            if value < 0.0 {
                if value < -tolerance {
                    return false;
                }
                *o = 0.0;
            } else {
                sum += value;
            }
        }
        hi = lo;
    }
    (sum - 1.0).abs() <= tolerance
}

/// Scalar reference for [`deconvolve_spikes`]: the original descending
/// backward-substitution loop.
pub(crate) fn deconvolve_spikes_scalar(
    new: &[f64],
    out: &mut Vec<f64>,
    step: usize,
    quality: f64,
    tolerance: f64,
) -> bool {
    let width = 2 * step;
    let old_len = new.len() - width;
    out.clear();
    out.resize(old_len, 0.0);
    let one_minus = 1.0 - quality;
    let mut sum = 0.0f64;
    for j in (0..old_len).rev() {
        let above = if j + width < old_len {
            out[j + width]
        } else {
            0.0
        };
        let mut value = (new[j + width] - one_minus * above) / quality;
        if value < 0.0 {
            if value < -tolerance {
                return false;
            }
            value = 0.0;
        } else {
            sum += value;
        }
        out[j] = value;
    }
    (sum - 1.0).abs() <= tolerance
}

// ---------------------------------------------------------------------------
// MV engine (IncrementalMvJq): Poisson-binomial vote-count recurrences
// ---------------------------------------------------------------------------

/// Vectorized out-of-place Bernoulli convolution for the MV vote-count
/// DP: `out[k] = dist[k] * (1 - p) + dist[k - 1] * p`.
///
/// Same two-pass structure as [`convolve_spikes`] with shift 1; writing
/// into a scratch buffer (instead of the scalar in-place backward walk)
/// removes the loop-carried dependency and keeps the buffers swappable.
pub(crate) fn convolve_bernoulli_out(dist: &[f64], out: &mut Vec<f64>, p: f64) {
    let n = dist.len();
    out.clear();
    out.resize(n + 1, 0.0);
    let stay = 1.0 - p;
    for (o, &d) in out[..n].iter_mut().zip(dist) {
        *o = d * stay;
    }
    for (o, &d) in out[1..].iter_mut().zip(dist) {
        *o = fmadd(d, p, *o);
    }
}

/// Exact Bernoulli deconvolution into a caller-provided buffer: solves
/// `dist = old ⊛ Bernoulli(p)` for `old`, writing it into `out`. Returns
/// `false` if the division is numerically unstable (negative mass beyond
/// `tolerance`, or the result does not sum to 1).
///
/// The recurrence is an inherently sequential carry chain (dependency
/// distance 1), so there is no vectorized variant — both kernel modes run
/// this loop. It is solved from the numerically dominant end: forward
/// (dividing by `1 - p`) when `p <= 0.5`, backward (dividing by `p`)
/// otherwise. Replaces the old allocating form that returned a fresh
/// `Vec` on every pop.
pub(crate) fn deconvolve_bernoulli_into(
    dist: &[f64],
    p: f64,
    tolerance: f64,
    out: &mut Vec<f64>,
) -> bool {
    let new_len = dist.len();
    if new_len < 2 {
        return false;
    }
    let old_len = new_len - 1;
    out.clear();
    out.resize(old_len, 0.0);
    let tolerance = tolerance.max(1e-9);
    let mut sum = 0.0f64;
    if p <= 0.5 {
        let scale = 1.0 - p;
        let mut carry = 0.0f64;
        for k in 0..old_len {
            let mut value = (dist[k] - carry) / scale;
            if value < 0.0 {
                if value < -tolerance {
                    return false;
                }
                value = 0.0;
            }
            out[k] = value;
            sum += value;
            carry = p * value;
        }
    } else {
        let mut carry = 0.0f64;
        for k in (0..old_len).rev() {
            let mut value = (dist[k + 1] - carry) / p;
            if value < 0.0 {
                if value < -tolerance {
                    return false;
                }
                value = 0.0;
            }
            out[k] = value;
            sum += value;
            carry = (1.0 - p) * value;
        }
    }
    (sum - 1.0).abs() <= tolerance
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_dist(len: usize, seed: u64) -> Vec<f64> {
        // Tiny deterministic LCG; mass normalised to 1.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut dist: Vec<f64> = (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64).max(1e-12)
            })
            .collect();
        let total: f64 = dist.iter().sum();
        for d in &mut dist {
            *d /= total;
        }
        dist
    }

    #[test]
    fn convolve_matches_scalar_reference_exactly() {
        for seed in 0..8u64 {
            for &step in &[1usize, 2, 3, 7, 19] {
                let dist = random_dist(5 + (seed as usize) * 13, seed);
                let mut fast = Vec::new();
                let mut slow = Vec::new();
                convolve_spikes(&dist, &mut fast, step, 0.73);
                convolve_spikes_scalar(&dist, &mut slow, step, 0.73);
                assert_eq!(fast.len(), slow.len());
                for (a, b) in fast.iter().zip(&slow) {
                    assert!((a - b).abs() <= 1e-15, "{a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn in_place_convolve_matches_the_vectorized_pass_bit_for_bit() {
        for seed in 0..8u64 {
            for &step in &[1usize, 2, 5, 40] {
                let dist = random_dist(3 + (seed as usize) * 11, seed);
                let mut out = Vec::new();
                convolve_spikes(&dist, &mut out, step, 0.67);
                let mut in_place = dist.clone();
                convolve_spikes_in_place(&mut in_place, step, 0.67);
                assert_eq!(in_place, out);
            }
        }
    }

    #[test]
    fn deconvolve_inverts_convolve_in_both_modes() {
        for seed in 0..8u64 {
            for &step in &[1usize, 3, 11] {
                let old = random_dist(4 + (seed as usize) * 9, seed);
                let mut grown = Vec::new();
                convolve_spikes(&old, &mut grown, step, 0.81);
                let mut fast = Vec::new();
                let mut slow = Vec::new();
                assert!(deconvolve_spikes(&grown, &mut fast, step, 0.81, 1e-9));
                assert!(deconvolve_spikes_scalar(
                    &grown, &mut slow, step, 0.81, 1e-9
                ));
                for ((a, b), &want) in fast.iter().zip(&slow).zip(&old) {
                    assert!((a - b).abs() <= 1e-12, "modes diverged: {a} vs {b}");
                    assert!((a - want).abs() <= 1e-9, "bad inverse: {a} vs {want}");
                }
            }
        }
    }

    #[test]
    fn deconvolve_rejects_a_distribution_it_cannot_have_produced() {
        // A point mass at the bottom cannot arise from convolving any old
        // distribution with a 0.7-spike pair; both modes must refuse.
        let mut bad = vec![0.0f64; 9];
        bad[0] = 1.0;
        let mut out = Vec::new();
        assert!(!deconvolve_spikes(&bad, &mut out, 2, 0.7, 1e-9));
        assert!(!deconvolve_spikes_scalar(&bad, &mut out, 2, 0.7, 1e-9));
    }

    #[test]
    fn bernoulli_kernels_roundtrip() {
        for seed in 0..8u64 {
            let old = random_dist(6 + (seed as usize) * 5, seed);
            for &p in &[0.3f64, 0.5, 0.55, 0.9] {
                let mut grown = Vec::new();
                convolve_bernoulli_out(&old, &mut grown, p);
                // Matches the in-place scalar recurrence.
                let mut scalar = old.clone();
                scalar.push(0.0);
                for k in (0..scalar.len()).rev() {
                    let stay = if k < old.len() {
                        old[k] * (1.0 - p)
                    } else {
                        0.0
                    };
                    let step = if k > 0 { old[k - 1] * p } else { 0.0 };
                    scalar[k] = stay + step;
                }
                for (a, b) in grown.iter().zip(&scalar) {
                    assert!((a - b).abs() <= 1e-15);
                }
                let mut back = Vec::new();
                assert!(deconvolve_bernoulli_into(&grown, p, 1e-9, &mut back));
                for (a, &want) in back.iter().zip(&old) {
                    assert!((a - want).abs() <= 1e-9);
                }
            }
        }
    }

    #[test]
    fn scratch_arena_recycles_capacity() {
        let mut arena = JqScratch::new();
        let mut buf = arena.take_buffer();
        buf.resize(4096, 0.0);
        let cap = buf.capacity();
        arena.recycle_buffer(buf);
        assert_eq!(arena.buffers_held(), 1);
        assert!(arena.pooled_capacity() >= 4096);
        let warm = arena.take_buffer();
        assert!(warm.is_empty());
        assert_eq!(warm.capacity(), cap);
        assert_eq!(arena.buffers_held(), 0);
    }

    #[test]
    fn scratch_arena_is_bounded() {
        let mut arena = JqScratch::new();
        for _ in 0..(MAX_POOLED + 10) {
            arena.recycle_buffer(vec![0.0; 8]);
        }
        assert_eq!(arena.buffers_held(), MAX_POOLED);
    }
}
