//! Order statistics over wall-clock samples.

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile (`pct` in 1..=100) of an ascending slice.
pub fn percentile(sorted: &[f64], pct: u32) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (sorted.len() * pct as usize)
        .div_ceil(100)
        .clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The highest of p99 / p90 / p75 that still has at least ten samples
/// beyond it, so the reported tail is never the maximum of a handful.
/// With fewer than 40 samples none qualifies and the median (50) is
/// returned: the run is too short to speak about a tail at all.
pub fn tail_pct(samples: usize) -> u32 {
    [99u32, 90, 75]
        .into_iter()
        .find(|&p| samples * (100 - p as usize) / 100 >= 10)
        .unwrap_or(50)
}

/// Summary of one workload's timed reps, in milliseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct WallStats {
    pub reps: usize,
    pub p50: f64,
    pub min: f64,
    pub iqr: f64,
    pub tail: f64,
    pub tail_pct: u32,
}

impl WallStats {
    pub fn of(samples_ms: &[f64]) -> WallStats {
        let mut v = samples_ms.to_vec();
        v.sort_by(f64::total_cmp);
        let pct = tail_pct(v.len());
        WallStats {
            reps: v.len(),
            p50: median(&v),
            min: v.first().copied().unwrap_or(0.0),
            iqr: percentile(&v, 75) - percentile(&v, 25),
            tail: percentile(&v, pct),
            tail_pct: pct,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_selection_needs_ten_samples_beyond() {
        assert_eq!(tail_pct(39), 50);
        assert_eq!(tail_pct(40), 75);
        assert_eq!(tail_pct(99), 75);
        assert_eq!(tail_pct(100), 90);
        assert_eq!(tail_pct(999), 90);
        assert_eq!(tail_pct(1000), 99);
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 99), 99.0);
        assert_eq!(percentile(&v, 100), 100.0);
        let s = WallStats::of(&v);
        assert_eq!((s.reps, s.min, s.tail_pct, s.tail), (100, 1.0, 90, 90.0));
        assert_eq!(s.iqr, 50.0);
    }
}
