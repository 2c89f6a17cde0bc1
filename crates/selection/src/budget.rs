//! Cooperative compute budgets for solver search loops.
//!
//! A [`SearchBudget`] bounds how much work a solver may spend on one
//! request: a wall-clock deadline, an objective-evaluation cap, or both.
//! Solvers poll it at cheap cooperative checkpoints (once per annealing
//! sweep step, greedy probe, or repair round) and stop early when it is
//! exhausted, keeping the best jury found so far — the anytime contract
//! `jury-service` exposes as `ServiceError::DeadlineExceeded`.
//!
//! The default budget is unlimited and its checks never read the clock, so
//! solvers run bit-identically to the pre-budget code when no deadline is
//! set: same RNG stream, same evaluation order, same result.

use std::time::{Duration, Instant};

/// A cheap cooperative cancellation token checked inside solver loops.
///
/// Budgets are plain `Copy` values: cloning one into a solver does not
/// share any state, it just carries the same deadline and cap.
///
/// The *shared* part of a budgeted race lives in the objective, not here:
/// [`exhausted`](Self::exhausted) is checked against the caller-supplied
/// evaluation count, and every solver passes its objective's counter.
/// That is what makes one budget govern a whole portfolio race — every
/// member copies the same `SearchBudget` and drives one objective, so the
/// cap bounds their *combined* work.
///
/// ```
/// use jury_selection::SearchBudget;
///
/// let unlimited = SearchBudget::unlimited();
/// assert!(!unlimited.exhausted(u64::MAX));
///
/// let capped = SearchBudget::unlimited().with_max_evaluations(100);
/// assert!(!capped.exhausted(99));
/// assert!(capped.exhausted(100));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchBudget {
    deadline: Option<Instant>,
    max_evaluations: Option<u64>,
}

impl SearchBudget {
    /// A budget that never exhausts (the default). Checks against it are
    /// branch-only — no clock reads — so unlimited runs are bit-identical
    /// to solvers that predate budgets.
    pub fn unlimited() -> Self {
        SearchBudget::default()
    }

    /// Sets an absolute wall-clock deadline.
    pub fn with_deadline_at(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets a deadline `timeout` from now. A `timeout` too large to
    /// represent as an `Instant` is treated as no deadline at all.
    pub fn with_deadline_in(self, timeout: Duration) -> Self {
        match Instant::now().checked_add(timeout) {
            Some(deadline) => self.with_deadline_at(deadline),
            None => self,
        }
    }

    /// Caps the number of objective evaluations the search may request.
    pub fn with_max_evaluations(mut self, max_evaluations: u64) -> Self {
        self.max_evaluations = Some(max_evaluations);
        self
    }

    /// The absolute deadline, if one is set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The evaluation cap, if one is set.
    pub fn max_evaluations(&self) -> Option<u64> {
        self.max_evaluations
    }

    /// Whether this budget can never exhaust.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_evaluations.is_none()
    }

    /// Merges two budgets tightest-wins: the earlier of the two deadlines
    /// and the smaller of the two evaluation caps, with a limit present on
    /// either side surviving into the result.
    ///
    /// This is how the service combines a per-request budget with a
    /// service-wide `ServiceConfig` ceiling — neither silently overrides
    /// the other.
    ///
    /// ```
    /// use jury_selection::SearchBudget;
    ///
    /// let request = SearchBudget::unlimited().with_max_evaluations(500);
    /// let config = SearchBudget::unlimited().with_max_evaluations(100);
    /// assert_eq!(request.intersect(config).max_evaluations(), Some(100));
    /// ```
    #[must_use]
    pub fn intersect(self, other: SearchBudget) -> SearchBudget {
        fn tighter<T: Ord>(a: Option<T>, b: Option<T>) -> Option<T> {
            match (a, b) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (Some(a), None) => Some(a),
                (None, b) => b,
            }
        }
        SearchBudget {
            deadline: tighter(self.deadline, other.deadline),
            max_evaluations: tighter(self.max_evaluations, other.max_evaluations),
        }
    }

    /// Whether the budget is spent, given the evaluations consumed so far.
    ///
    /// The evaluation cap is checked before the deadline so determinism-
    /// sensitive tests can use caps without touching the clock; an
    /// unlimited budget returns `false` without reading the clock at all.
    #[inline]
    pub fn exhausted(&self, evaluations: u64) -> bool {
        if let Some(max) = self.max_evaluations {
            if evaluations >= max {
                return true;
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_exhausts() {
        let budget = SearchBudget::unlimited();
        assert!(budget.is_unlimited());
        assert!(!budget.exhausted(0));
        assert!(!budget.exhausted(u64::MAX));
    }

    #[test]
    fn zero_timeout_exhausts_immediately() {
        let budget = SearchBudget::unlimited().with_deadline_in(Duration::ZERO);
        assert!(!budget.is_unlimited());
        assert!(budget.exhausted(0));
    }

    #[test]
    fn generous_timeout_does_not_exhaust() {
        let budget = SearchBudget::unlimited().with_deadline_in(Duration::from_secs(3600));
        assert!(!budget.exhausted(0));
    }

    #[test]
    fn evaluation_cap_checks_without_a_clock() {
        let budget = SearchBudget::unlimited().with_max_evaluations(10);
        assert!(budget.deadline().is_none());
        assert_eq!(budget.max_evaluations(), Some(10));
        assert!(!budget.exhausted(9));
        assert!(budget.exhausted(10));
        assert!(budget.exhausted(11));
    }

    #[test]
    fn oversized_timeout_degrades_to_unlimited() {
        let budget = SearchBudget::unlimited().with_deadline_in(Duration::MAX);
        // Either representable (exhausts far in the future) or dropped;
        // in both cases the budget must not exhaust now.
        assert!(!budget.exhausted(0));
    }

    #[test]
    fn intersect_of_two_unlimited_budgets_is_unlimited() {
        let merged = SearchBudget::unlimited().intersect(SearchBudget::unlimited());
        assert!(merged.is_unlimited());
        assert!(!merged.exhausted(u64::MAX));
    }

    #[test]
    fn intersect_keeps_a_limit_present_on_only_one_side() {
        let near = Instant::now() + Duration::from_secs(60);
        let limited = SearchBudget::unlimited()
            .with_deadline_at(near)
            .with_max_evaluations(10);

        // Request limited, config unlimited.
        let merged = limited.intersect(SearchBudget::unlimited());
        assert_eq!(merged.deadline(), Some(near));
        assert_eq!(merged.max_evaluations(), Some(10));

        // Request unlimited, config limited.
        let merged = SearchBudget::unlimited().intersect(limited);
        assert_eq!(merged.deadline(), Some(near));
        assert_eq!(merged.max_evaluations(), Some(10));
    }

    #[test]
    fn intersect_takes_the_tighter_of_two_limits() {
        let soon = Instant::now() + Duration::from_secs(10);
        let later = soon + Duration::from_secs(50);
        let a = SearchBudget::unlimited()
            .with_deadline_at(later)
            .with_max_evaluations(10);
        let b = SearchBudget::unlimited()
            .with_deadline_at(soon)
            .with_max_evaluations(500);
        for merged in [a.intersect(b), b.intersect(a)] {
            assert_eq!(merged.deadline(), Some(soon));
            assert_eq!(merged.max_evaluations(), Some(10));
        }
    }

    #[test]
    fn intersect_merges_disjoint_limit_kinds() {
        let at = Instant::now() + Duration::from_secs(30);
        let deadline_only = SearchBudget::unlimited().with_deadline_at(at);
        let cap_only = SearchBudget::unlimited().with_max_evaluations(7);
        let merged = deadline_only.intersect(cap_only);
        assert_eq!(merged.deadline(), Some(at));
        assert_eq!(merged.max_evaluations(), Some(7));
    }

    #[test]
    fn copies_are_independent_values() {
        let base = SearchBudget::unlimited().with_max_evaluations(5);
        let copy = base;
        assert_eq!(base, copy);
        assert!(copy.exhausted(5));
    }
}
