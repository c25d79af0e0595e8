//! Wall-clock measurement for the experiment harness.
//!
//! The implementation lives in [`pphcr_obs::timing`] — the **only**
//! module in the workspace allowed to read the OS clock (lint rule D1
//! `wall-clock`) — so that benchmark timing and the observability
//! layer's spans share one stopwatch. This module re-exports it under
//! the historical `sim::timing` path used by the experiment code; it
//! performs no clock reads of its own.

pub use pphcr_obs::timing::{stopwatch, Stopwatch};

/// The minimum of `times[warmup..]`, or `None` when no timed samples
/// survive the warmup cut. Pure so the discard policy is unit-testable
/// without a clock: the first `warmup` entries are measurement noise
/// (cold caches, lazy allocation, first-touch page faults) and must
/// never influence a reported figure.
#[must_use]
pub fn min_after_warmup(times: &[f64], warmup: usize) -> Option<f64> {
    times.get(warmup..).and_then(|timed| timed.iter().copied().reduce(f64::min))
}

/// Times `warmup + samples` runs of `op` and reports the minimum wall
/// time (seconds) over the post-warmup runs. Min-of-N is the right
/// summary for a deterministic workload on a noisy host: every run does
/// identical work, so the fastest one carries the least scheduler
/// interference. `samples` is clamped to at least 1.
pub fn sample_min_s(warmup: usize, samples: usize, mut op: impl FnMut()) -> f64 {
    let samples = samples.max(1);
    let mut times = Vec::with_capacity(warmup + samples);
    for _ in 0..warmup + samples {
        let t = stopwatch();
        op();
        times.push(t.elapsed_s());
    }
    min_after_warmup(&times, warmup).expect("at least one timed sample")
}

/// The first quartile, median and third quartile of `samples`,
/// interpolated linearly between order statistics, or `None` when
/// there are none. Paired measurements gate the median and report the
/// quartiles beside it, so one outlier pair moves neither.
#[must_use]
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (sorted.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    };
    (!sorted.is_empty()).then(|| [at(0.25), at(0.5), at(0.75)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_is_monotonic_and_finite() {
        let sw = stopwatch();
        let a = sw.elapsed_s();
        let b = sw.elapsed_s();
        assert!(a >= 0.0 && b >= a && b.is_finite());
    }

    #[test]
    fn warmup_samples_are_discarded() {
        // A slow first run (warmup contamination) must not leak into
        // the minimum, and the minimum is over the surviving tail only.
        let times = [9.0, 0.5, 0.3, 0.4];
        assert_eq!(min_after_warmup(&times, 0), Some(0.3));
        assert_eq!(min_after_warmup(&times, 1), Some(0.3));
        assert_eq!(min_after_warmup(&times, 3), Some(0.4));
    }

    #[test]
    fn empty_tail_yields_no_sample() {
        assert_eq!(min_after_warmup(&[1.0, 2.0], 2), None);
        assert_eq!(min_after_warmup(&[1.0, 2.0], 5), None);
        assert_eq!(min_after_warmup(&[], 0), None);
    }

    #[test]
    fn quartiles_interpolate_between_order_statistics() {
        assert_eq!(quartiles(&[]), None);
        assert_eq!(quartiles(&[2.0]), Some([2.0, 2.0, 2.0]));
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]), Some([2.0, 3.0, 4.0]));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), Some([1.75, 2.5, 3.25]));
        // One wild sample moves neither quartile nor the median.
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 500.0]), Some([2.0, 3.0, 4.0]));
    }

    #[test]
    fn sample_min_runs_op_warmup_plus_samples_times() {
        let mut calls = 0usize;
        let s = sample_min_s(2, 3, || calls += 1);
        assert_eq!(calls, 5);
        assert!(s >= 0.0 && s.is_finite());
        // samples clamps to 1 so the helper always reports something.
        let mut calls = 0usize;
        sample_min_s(1, 0, || calls += 1);
        assert_eq!(calls, 2);
    }
}
