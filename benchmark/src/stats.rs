//! Window statistics: medians over windows, per-window percentiles
//! with a minimum-tail rule, spreads, and the ladder's self-time
//! subtraction.

/// A percentile is reported only when at least this many samples lie
/// beyond it; below that the tail rests on too few points to repeat.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartile by the "exclusive" method — the one
/// Python's `statistics.quantiles(values, n=4)` uses, so spreads
/// printed here can be checked against the acceptance driver's.
/// `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |q: usize| {
        // Position q*(n+1)/4 in 1-based ranks, clamped to the ends.
        let j = (q * (n + 1) / 4).clamp(1, n - 1);
        let delta = (q * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta.clamp(0.0, 1.0)
    };
    Some((at(1), at(3)))
}

/// Inter-quartile distance as a share of the median; 0 when there are
/// too few values or the median is 0.
pub fn iqr_share(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q3)) => {
            let m = median(values);
            if m == 0.0 {
                0.0
            } else {
                (q3 - q1) / m.abs()
            }
        }
        None => 0.0,
    }
}

/// A value reported as the median over a phase's windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Windowed {
    pub value: f64,
    /// Windows behind the median.
    pub windows: usize,
    /// Samples behind each window's value, summed.
    pub samples: u64,
    /// Inter-quartile spread over the windows, as a share of `value`.
    pub spread: f64,
}

impl Windowed {
    pub fn of(per_window: &[f64], samples: u64) -> Windowed {
        Windowed {
            value: median(per_window),
            windows: per_window.len(),
            samples,
            spread: iqr_share(per_window),
        }
    }
}

/// The `q`-quantile (0 < q < 1) of one window's samples, or `None`
/// when fewer than [`MIN_TAIL_SAMPLES`] samples lie beyond it. Sorts
/// `samples` in place.
pub fn window_percentile(samples: &mut [u32], q: f64) -> Option<u32> {
    let n = samples.len();
    let beyond = (n as f64 * (1.0 - q)).floor() as usize;
    if n == 0 || beyond < MIN_TAIL_SAMPLES {
        return None;
    }
    samples.sort_unstable();
    Some(samples[(n - 1).min((n as f64 * q) as usize)])
}

/// Mean of the values between the `trim` and `1 - trim` quantiles: a
/// rare outlier drops out, a cost that recurs every few values stays
/// in. At least the middle value always survives.
pub fn trimmed_mean(values: &[f64], trim: f64) -> f64 {
    assert!(!values.is_empty() && (0.0..0.5).contains(&trim));
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = ((sorted.len() as f64 * trim) as usize).min((sorted.len() - 1) / 2);
    let kept = &sorted[cut..sorted.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// A layer's self time: its rung minus the rung below. Can be negative
/// when the rungs' noise exceeds the layer's cost; reported as is.
pub fn self_time(rung: f64, below: f64) -> f64 {
    rung - below
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_windows() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // One slow window out of seven does not move the report.
        let w = Windowed::of(&[10.0, 10.2, 9.9, 55.0, 10.1, 10.0, 9.8], 700);
        assert_eq!(w.value, 10.0);
        assert_eq!((w.windows, w.samples), (7, 700));
        assert!(w.spread < 0.05, "{}", w.spread);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1,2,3,4,5,6,7], n=4) == [2.0, 4.0, 6.0]
        let seven: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(quartiles(&seven), Some((2.0, 6.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]; the
        // clamp keeps the ends inside the data instead.
        assert_eq!(quartiles(&[1.0, 2.0]), Some((1.0, 2.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((iqr_share(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let mut samples: Vec<u32> = (1..=1000).rev().collect();
        // p99 of 1000 samples has exactly 10 beyond it.
        assert_eq!(window_percentile(&mut samples, 0.99), Some(991));
        assert_eq!(window_percentile(&mut samples, 0.50), Some(501));
        // p999 would rest on one sample; p99 of 999 samples on nine.
        assert_eq!(window_percentile(&mut samples, 0.999), None);
        assert_eq!(window_percentile(&mut samples[..999], 0.99), None);
        assert_eq!(window_percentile(&mut [], 0.5), None);
    }

    #[test]
    fn trimmed_mean_keeps_periodic_costs_and_drops_rare_outliers() {
        // Every fifth batch carries a maintenance pass; one batch in a
        // hundred was preempted.
        let mut batches: Vec<f64> = (0..100)
            .map(|i| if i % 5 == 0 { 200.0 } else { 100.0 })
            .collect();
        batches[37] = 50_000.0;
        let plain_mean = batches.iter().sum::<f64>() / 100.0;
        assert!(plain_mean > 600.0, "the outlier owns the mean");
        assert_eq!(median(&batches), 100.0, "the median loses the maintenance");
        // 74 plain and 16 maintenance batches survive the 5 % trims.
        assert_eq!(
            trimmed_mean(&batches, 0.05),
            (74.0 * 100.0 + 16.0 * 200.0) / 90.0
        );
        assert_eq!(trimmed_mean(&[7.0], 0.05), 7.0);
        assert_eq!(trimmed_mean(&[1.0, 2.0, 90.0], 0.4), 2.0);
    }

    #[test]
    fn self_time_is_rung_minus_rung_below() {
        let rungs = [120.0, 150.0, 210.0, 2300.0];
        let selfs: Vec<f64> = rungs.windows(2).map(|w| self_time(w[1], w[0])).collect();
        assert_eq!(selfs, vec![30.0, 60.0, 2090.0]);
        // Self times telescope back to the top rung.
        assert_eq!(rungs[0] + selfs.iter().sum::<f64>(), rungs[3]);
        assert_eq!(self_time(100.0, 104.0), -4.0);
    }
}
