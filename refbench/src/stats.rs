//! Estimators: percentile, quartiles, and the best-round summary every
//! host-time metric is reported with.

use serde::{Deserialize, Serialize};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method), so a spread computed here matches the
/// one the driver computes. Fewer than two values have no spread.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |k: usize| {
        // Position k*(n+1)/4, 1-based; like Python, the index is clamped
        // to the data and the interpolation weight is not.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Nearest-rank percentile `p` (in percent) of `samples`.
///
/// Refuses a percentile with fewer than ten samples beyond it: p90 of 100
/// samples leaves exactly ten and is the highest that passes; p99 of 100
/// leaves one and is an error, not a number.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    let n = samples.len();
    if n == 0 || !(0.0..100.0).contains(&p) {
        return Err(format!("p{p} of {n} samples is undefined"));
    }
    let rank = ((p / 100.0 * n as f64).ceil() as usize).max(1);
    if p > 50.0 && n - rank < 10 {
        return Err(format!(
            "p{p} of {n} samples leaves {} beyond it; at least ten are needed",
            n - rank
        ));
    }
    Ok(sorted(samples)[rank - 1])
}

/// One metric across the rounds of one workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// The reported value: the best round (min of a time, max of a rate)
    /// unless the harness replaces it with a finer floor (see
    /// `metrics::ESTIMATOR`). The simulator is deterministic and CPU-bound,
    /// so the noise of a shared machine only ever adds time; the least
    /// disturbed measurement is the one to report.
    pub best: f64,
    pub median: f64,
    /// Third minus first quartile.
    pub iqr: f64,
    /// The quartile on the best round's side: first of a time, third of a
    /// rate.
    pub near_quartile: f64,
    /// Every round's raw value, in round order.
    pub values: Vec<f64>,
}

impl Summary {
    pub fn new(values: Vec<f64>, better: Better) -> Summary {
        let best = match better {
            Better::Lower => values.iter().copied().fold(f64::INFINITY, f64::min),
            Better::Higher => values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        };
        let (q1, q3) = quartiles(&values);
        Summary {
            best: if values.is_empty() { 0.0 } else { best },
            median: median(&values),
            iqr: q3 - q1,
            near_quartile: match better {
                Better::Lower => q1,
                Better::Higher => q3,
            },
            values,
        }
    }

    /// How far the best round stands from the quarter of rounds nearest to
    /// it, as a share of the best: the uncertainty of a best-round estimate.
    /// Slow outliers, which widen the IQR, do not move it; a best round that
    /// no other round comes near does.
    pub fn floor_gap_share(&self) -> f64 {
        if self.best == 0.0 {
            0.0
        } else {
            (self.near_quartile - self.best).abs() / self.best.abs()
        }
    }

    /// IQR as a share of the median (0 when the median is 0).
    pub fn iqr_share(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            self.iqr / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_of_100_leaves_ten_beyond_and_p99_is_refused() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&samples, 90.0).unwrap();
        assert_eq!(p90, 90.0);
        assert_eq!(samples.iter().filter(|&&s| s > p90).count(), 10);
        assert_eq!(percentile(&samples, 50.0).unwrap(), 50.0);
        assert!(percentile(&samples, 99.0).is_err());
        assert!(percentile(&samples, 91.0).is_err());
        assert!(percentile(&[], 50.0).is_err());
        // A median needs no tail.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0).unwrap(), 2.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&[3.0, 1.0, 2.0]);
        assert_eq!((q1, q3), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }

    #[test]
    fn summary_reports_best_round_with_median_and_iqr() {
        let times = Summary::new(vec![1.7, 1.02, 1.1, 1.01, 1.3], Better::Lower);
        assert_eq!(times.best, 1.01);
        assert_eq!(times.median, 1.1);
        assert!(times.iqr > 0.0 && times.iqr_share() > 0.0);
        // Sorted 1.01 1.02 1.1 1.3 1.7: the first quartile lies at 1.5 of 5.
        assert!((times.near_quartile - 1.015).abs() < 1e-12);
        assert!((times.floor_gap_share() - 0.005 / 1.01).abs() < 1e-12);
        let rates = Summary::new(vec![10.0, 12.0, 11.0], Better::Higher);
        assert_eq!(rates.best, 12.0);
        assert_eq!(rates.median, 11.0);
        assert_eq!(rates.near_quartile, 12.0);
        assert_eq!(Summary::new(vec![], Better::Lower).best, 0.0);
    }
}
