//! Order statistics over small samples.

/// Median, quartiles and range of one metric over the reps of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Summary of `values`; `None` when empty.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let v = sorted(values);
        let (&min, &max) = (v.first()?, v.last()?);
        let [q1, median, q3] = quartiles_sorted(&v);
        Some(Summary {
            n: v.len(),
            min,
            q1,
            median,
            q3,
            max,
        })
    }

    /// Distance between the quartiles as a share of the median — the spread
    /// the benchmark contract holds against each metric's bound.
    pub fn iqr_share(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the even case averages the two middle values. 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The three cut points of Python's `statistics.quantiles(v, n=4)` (the
/// "exclusive" method), so spreads computed here equal the ones the
/// contract's driver computes. One value yields itself three times.
fn quartiles_sorted(v: &[f64]) -> [f64; 3] {
    let m = v.len();
    if m < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Nearest-rank percentile (`p` in 0..=100) of `values`. 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.min, s.max, s.n), (1.0, 10.0, 10));
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15, 40, 120]
        let s = Summary::of(&[160.0, 10.0, 80.0, 20.0, 40.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (15.0, 40.0, 120.0));
        assert_eq!(s.iqr_share(), 105.0 / 40.0);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn single_value_and_empty_summaries() {
        let s = Summary::of(&[7.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.iqr_share()), (7.0, 7.0, 7.0, 0.0));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[5.0, 1.0, 9.0], 95.0), 9.0);
    }
}
