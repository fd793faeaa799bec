//! Sample summaries: medians and the tail rule.
//!
//! A timing is reported as its median plus the highest percentile that has
//! at least [`TAIL_MIN_BEYOND`] samples beyond it, always with the sample
//! count. With too few samples no tail is reported at all.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Candidate tail percentiles in per mille, highest first. The median is
/// reported anyway, so it is no tail.
const TAIL_LADDER: [usize; 5] = [999, 990, 950, 900, 750];

/// Nearest-rank percentile of a sorted sample, `pm` in per mille: the
/// smallest value with at least `pm`/1000 of the sample at or below it.
#[must_use]
pub fn percentile(sorted: &[f64], pm: usize) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), pm) - 1])
}

/// 1-based nearest rank of the `pm`-per-mille percentile in a sample of
/// `n`, in integers so that e.g. p99.9 of 10 000 is exactly rank 9 990.
fn rank(n: usize, pm: usize) -> usize {
    (pm * n).div_ceil(1000).clamp(1, n)
}

/// A timing distribution: n, median and, when the sample supports one, the
/// tail percentile with its value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarizes a sample; `None` when it is empty.
    #[must_use]
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let p50 = percentile(&sorted, 500)?;
        let n = sorted.len();
        let tail = TAIL_LADDER
            .iter()
            .find(|&&pm| n - rank(n, pm) >= TAIL_MIN_BEYOND)
            .map(|&pm| (pm as f64 / 10.0, sorted[rank(n, pm) - 1]));
        Some(Summary { n, p50, tail })
    }

    /// `p50 0.1234 s, p90 0.1511 s, n 240`-style text.
    #[must_use]
    pub fn describe(&self, unit: &str) -> String {
        let tail = self.tail.map_or_else(
            || "no tail".to_string(),
            |(p, v)| format!("p{p} {v:.4} {unit}"),
        );
        format!("p50 {:.4} {unit}, {tail}, n {}", self.p50, self.n)
    }
}

/// Median of an unsorted sample (nearest rank); `None` when empty.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    Summary::of(samples).map(|s| s.p50)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 500), Some(5.0));
        assert_eq!(percentile(&v, 900), Some(9.0));
        assert_eq!(percentile(&v, 1000), Some(10.0));
        assert_eq!(percentile(&v, 0), Some(1.0));
        assert_eq!(percentile(&[], 500), None);
    }

    #[test]
    fn no_tail_without_ten_samples_beyond_it() {
        // 39 samples: p75 sits at rank 30, leaving 9 beyond — no tail.
        let v: Vec<f64> = (1..=39).map(f64::from).collect();
        let s = Summary::of(&v).expect("non-empty");
        assert_eq!(s.n, 39);
        assert_eq!(s.p50, 20.0);
        assert_eq!(s.tail, None);
        // 40 samples: 10 beyond p75, which is then the highest tail.
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(Summary::of(&v).expect("non-empty").tail, Some((75.0, 30.0)));
    }

    #[test]
    fn tail_is_the_highest_supported_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 leaves exactly 10 beyond; p95 leaves 5.
        assert_eq!(Summary::of(&v).expect("non-empty").tail, Some((90.0, 90.0)));
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(
            Summary::of(&v).expect("non-empty").tail,
            Some((99.0, 1980.0))
        );
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(
            Summary::of(&v).expect("non-empty").tail,
            Some((99.9, 9990.0))
        );
        // Every reported tail has at least ten samples strictly beyond it.
        for n in 1..400usize {
            let v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            if let Some((_, value)) = Summary::of(&v).expect("non-empty").tail {
                let beyond = v.iter().filter(|&&x| x > value).count();
                assert!(beyond >= TAIL_MIN_BEYOND, "n {n}: {beyond} beyond");
            }
        }
    }

    #[test]
    fn unsorted_input_and_empty_sample() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }
}
