//! Order statistics used by every workload: the median, the tail rule
//! "the highest percentile with at least ten samples beyond it", and the
//! run's reported tail, the median of that rule over consecutive segments.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// The median of `values` (mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The tail of a latency sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The reported value: the `rank`-th smallest sample (1-based).
    pub value: f64,
    /// The percentile that value stands for, `100 · rank / n`.
    pub percentile: f64,
    /// Samples strictly beyond it (`n − rank`), at least
    /// [`TAIL_SAMPLES_BEYOND`] unless the sample is too small.
    pub beyond: usize,
}

/// The highest percentile with at least [`TAIL_SAMPLES_BEYOND`] samples
/// beyond it. With `n` samples that is the `(n − 10)`-th smallest, the
/// `100·(n − 10)/n`-th percentile. A tail never reads below the median:
/// samples of fewer than 20 have no percentile above the median with ten
/// samples beyond it, so they report the median rank and say how many
/// samples lie beyond it.
pub fn tail(values: &[f64]) -> Tail {
    assert!(!values.is_empty(), "tail of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = n.saturating_sub(TAIL_SAMPLES_BEYOND).max(n.div_ceil(2));
    Tail {
        value: sorted[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        beyond: n - rank,
    }
}

/// Samples each segment must hold before a run is cut into segments.
pub const TAIL_SEGMENT_MIN_SAMPLES: usize = 100;

/// The reported tail of a run: the median of its segments' tails.
#[derive(Debug, Clone, PartialEq)]
pub struct RunTail {
    /// The median segment's tail value.
    pub value: f64,
    /// Each segment's [`tail`], in the order the samples were taken.
    pub segments: Vec<Tail>,
}

/// The tail a run reports. The samples are cut, in the order they were
/// taken, into `segments` consecutive segments of (nearly) equal size; each
/// segment's [`tail`] is taken and the median of them is reported. Every
/// segment's tail still has ten samples beyond it. A burst of load from
/// outside the program lands in one segment and moves the median of the
/// segments far less than the tail of the whole run, which the ten slowest
/// samples set. A run with fewer than [`TAIL_SEGMENT_MIN_SAMPLES`] samples
/// per segment is one segment: its plain [`tail`].
pub fn run_tail(values: &[f64], segments: usize) -> RunTail {
    assert!(!values.is_empty(), "tail of no samples");
    assert!(segments % 2 == 1, "an odd number of segments has a median");
    let n = values.len();
    let count = if n >= segments * TAIL_SEGMENT_MIN_SAMPLES {
        segments
    } else {
        1
    };
    let segments: Vec<Tail> = (0..count)
        .map(|k| tail(&values[k * n / count..(k + 1) * n / count]))
        .collect();
    let mut by_value = segments.clone();
    by_value.sort_by(|a, b| a.value.total_cmp(&b.value));
    RunTail {
        value: by_value[count / 2].value,
        segments,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);

        let values: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&values);
        assert_eq!((t.value, t.percentile, t.beyond), (990.0, 99.0, 10));
    }

    #[test]
    fn tail_never_reports_fewer_than_ten_beyond_when_it_can() {
        for n in 20..300usize {
            let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let t = tail(&values);
            assert_eq!(t.beyond, TAIL_SAMPLES_BEYOND, "n = {n}");
            let strictly_above = values.iter().filter(|&&v| v > t.value).count();
            assert_eq!(strictly_above, TAIL_SAMPLES_BEYOND, "n = {n}");
            // One rank higher would leave only nine beyond.
            assert!(n - (n - TAIL_SAMPLES_BEYOND + 1) < TAIL_SAMPLES_BEYOND);
        }
    }

    #[test]
    fn small_samples_fall_back_to_the_median_rank() {
        let t = tail(&[5.0, 1.0, 3.0]);
        assert_eq!((t.value, t.beyond), (3.0, 1));
        let t = tail(&[1.0; 10]);
        assert_eq!(t.beyond, 5);
        for n in 1..20usize {
            let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let t = tail(&values);
            assert!(t.value >= median(&values) - 0.5, "n = {n}");
            assert!(t.beyond < TAIL_SAMPLES_BEYOND, "n = {n}");
        }
    }

    #[test]
    fn a_short_or_unsegmented_run_reports_its_plain_tail() {
        let values: Vec<f64> = (0..299).map(|i| ((i * 37) % 299) as f64).collect();
        for run in [run_tail(&values, 3), run_tail(&values, 1)] {
            assert_eq!(run.segments, vec![tail(&values)]);
            assert_eq!(run.value, tail(&values).value);
        }
    }

    #[test]
    fn a_long_run_reports_the_median_segment_tail() {
        // Three segments of 100; the middle one is the slowest, the last
        // the fastest, so the first segment's tail is the median.
        let mut values: Vec<f64> = (0..100).map(|i| 1000.0 + i as f64).collect();
        values.extend((0..100).map(|i| 5000.0 + i as f64));
        values.extend((0..100).map(|i| i as f64));
        let run = run_tail(&values, 3);
        assert_eq!(run.segments.len(), 3);
        for segment in &run.segments {
            assert_eq!(segment.beyond, TAIL_SAMPLES_BEYOND);
            assert_eq!(segment.percentile, 90.0);
        }
        assert_eq!(
            run.segments.iter().map(|t| t.value).collect::<Vec<_>>(),
            vec![1089.0, 5089.0, 89.0]
        );
        assert_eq!(run.value, 1089.0);
    }

    #[test]
    fn a_burst_in_one_segment_does_not_move_the_run_tail() {
        let steady: Vec<f64> = (0..600).map(|i| 10.0 + (i % 50) as f64).collect();
        let mut burst = steady.clone();
        for v in &mut burst[450..480] {
            *v *= 3.0;
        }
        assert!(tail(&burst).value > tail(&steady).value);
        assert_eq!(run_tail(&burst, 3).value, run_tail(&steady, 3).value);
    }
}
