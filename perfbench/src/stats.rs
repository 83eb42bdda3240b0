//! Sample summaries under minimum-sample rules.
//!
//! Every end-to-end figure is a summary over all of a run's samples of
//! one kind: a median is only taken over at least [`MIN_P50`] samples
//! and a tail percentile only where at least [`MIN_BEYOND`] samples lie
//! beyond it; below that a summary is an error, not a number.

use std::time::{Duration, Instant};

/// Fewest samples a median is taken over.
pub const MIN_P50: usize = 30;
/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;
/// Fewest repeats a whole-workload job (set-up, restart) is summarized over.
pub const MIN_REPEATS: usize = 5;

/// Samples needed before percentile `p` (in `(0, 100)`) is reported:
/// [`MIN_P50`] for the median and below, else enough to have
/// [`MIN_BEYOND`] samples beyond it.
pub fn needed_for(p: f64) -> usize {
    let beyond = (1.0 - p / 100.0).max(f64::EPSILON);
    let tail = if p > 50.0 { (MIN_BEYOND as f64 / beyond).ceil() as usize } else { 0 };
    tail.max(MIN_P50)
}

/// Nearest-rank percentile of an unsorted, non-empty sample set.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Percentile `p` of `samples`, or an error naming `name` when there
/// are fewer than `least` samples.
pub fn summary(name: &str, samples: &[f64], p: f64, least: usize) -> Result<f64, String> {
    if samples.len() < least {
        return Err(format!("{name}: {} samples, p{p} needs {least}", samples.len()));
    }
    Ok(percentile(samples, p))
}

/// The median of a non-empty set.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Microseconds in a duration, with sub-microsecond digits.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Runs `f` and returns its result with the elapsed microseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, us(t0.elapsed()))
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summaries_need_their_minimum_samples() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(needed_for(50.0), MIN_P50);
        assert_eq!(needed_for(99.0), 1000);
        assert_eq!(summary("x", &v, 99.0, needed_for(99.0)).unwrap(), 990.0);
        assert_eq!(summary("x", &v[..30], 50.0, MIN_P50).unwrap(), 15.0);
        assert!(summary("x", &v[..999], 99.0, needed_for(99.0)).is_err());
        assert!(summary("x", &v[..29], 50.0, MIN_P50).is_err());
    }
}
