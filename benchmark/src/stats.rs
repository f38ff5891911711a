//! Medians, percentiles and window rates.

use crate::adapter::HistogramSnapshot;

/// Median of `values`; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// A percentile was asked of too few samples to support it.
#[derive(Debug, PartialEq, Eq)]
pub struct TooFewSamples {
    pub have: usize,
    pub beyond: usize,
}

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile (0 < q < 1) of an ascending slice, nearest rank.
/// Refused unless at least [`MIN_BEYOND`] samples lie beyond it: a p99
/// of 500 samples is five samples' worth of noise, not a p99.
pub fn percentile(sorted: &[u64], q: f64) -> Result<u64, TooFewSamples> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    let beyond = n - rank.min(n);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(TooFewSamples { have: n, beyond });
    }
    Ok(sorted[rank - 1])
}

/// Per-window rates from cumulative `(time_ns, count)` readings taken
/// at window edges: one rate per pair of neighbours.
pub fn window_rates(edges: &[(u64, u64)]) -> Vec<f64> {
    edges
        .windows(2)
        .filter(|w| w[1].0 > w[0].0)
        .map(|w| (w[1].1 - w[0].1) as f64 * 1e9 / (w[1].0 - w[0].0) as f64)
        .collect()
}

/// Median over windows of each window's `q`-quantile. Windows too small
/// to support `q` are left out; `None` when none is left.
pub fn window_percentile_median(windows: &mut [Vec<u64>], q: f64) -> Option<f64> {
    let per_window: Vec<f64> = windows
        .iter_mut()
        .filter_map(|w| {
            w.sort_unstable();
            percentile(w, q).ok().map(|v| v as f64)
        })
        .collect();
    median(&per_window)
}

/// Median over windows of the mean of each window's samples between
/// its p90 and its p99: the gated tail statistic.
///
/// A percentile of a two-humped distribution (most records on time,
/// some one scheduler tick late) jumps from one hump to the other when
/// the late share crosses it; this mean moves by as much as the share
/// does. It stops at the p99 because the last hundredth is a handful of
/// stalls per window. Windows with fewer than [`MIN_BEYOND`] samples
/// beyond their p99 are left out; `None` when none is left.
pub fn window_tail_mean_median(windows: &mut [Vec<u64>]) -> Option<f64> {
    let per_window: Vec<f64> = windows
        .iter_mut()
        .filter_map(|w| {
            w.sort_unstable();
            let (from, to) = (w.len() * 90 / 100, w.len() * 99 / 100);
            let tail = &w[from..to];
            (w.len() - to >= MIN_BEYOND && !tail.is_empty())
                .then(|| tail.iter().sum::<u64>() as f64 / tail.len() as f64)
        })
        .collect();
    median(&per_window)
}

/// The `q`-quantile of a log2-bucketed histogram (bucket `i` holds
/// samples in `[2^i, 2^(i+1))` ns), interpolated inside the bucket so a
/// p50 does not snap to a power of two. `None` when empty.
pub fn histogram_quantile_ns(h: &HistogramSnapshot, q: f64) -> Option<f64> {
    if h.count == 0 {
        return None;
    }
    let target = q.clamp(0.0, 1.0) * h.count as f64;
    let mut seen = 0.0;
    for (i, &n) in h.buckets.iter().enumerate() {
        if n > 0 && seen + n as f64 >= target {
            let lo = if i == 0 { 0.0 } else { (1u64 << i) as f64 };
            let hi = ((2u128 << i) as f64).min(h.max_ns.max(1) as f64).max(lo);
            return Some(lo + (hi - lo) * ((target - seen) / n as f64));
        }
        seen += n as f64;
    }
    Some(h.max_ns as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.99), Ok(990));
        assert_eq!(percentile(&v, 0.5), Ok(500));
        // p999 of 1000 samples leaves one sample beyond: refused.
        assert_eq!(
            percentile(&v, 0.999),
            Err(TooFewSamples {
                have: 1000,
                beyond: 1
            })
        );
        // Exactly ten beyond is the smallest accepted sample.
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.9), Ok(90));
        assert!(percentile(&v, 0.91).is_err());
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn window_rates_use_measured_edges() {
        // Edges land late; the rate divides by the real distance.
        let edges = [
            (0, 0),
            (1_000_000_000, 100),
            (3_000_000_000, 500),
            (3_000_000_000, 500),
        ];
        assert_eq!(window_rates(&edges), vec![100.0, 200.0]);
    }

    #[test]
    fn window_percentile_median_skips_thin_windows() {
        let full: Vec<u64> = (1..=1000).collect();
        let mut windows = vec![
            full.iter().map(|v| v * 2).collect::<Vec<_>>(),
            full.clone(),
            full.iter().map(|v| v * 3).collect(),
            vec![1_000_000; 20], // too thin for a p99: must not count
        ];
        assert_eq!(window_percentile_median(&mut windows, 0.99), Some(1980.0));
        let mut thin = vec![vec![1u64; 5]];
        assert_eq!(window_percentile_median(&mut thin, 0.99), None);
    }

    #[test]
    fn tail_mean_leaves_out_the_last_hundredth_and_moves_with_the_late_share() {
        // 1000 samples: the mean of 901..=990 is 945.5; 991..=1000 stay out.
        let full: Vec<u64> = (1..=1000).rev().collect();
        let mut windows = vec![full.clone(), full, vec![7; 900]];
        assert_eq!(window_tail_mean_median(&mut windows), Some(945.5));
        // On time = 10, late = 50. A late share of 4 % and of 6 % straddle
        // the p95, which jumps from 10 to 50; the mean goes from 1/3 late
        // to 5/9 late.
        let humps = |late: usize| {
            let mut w = vec![10u64; 1000 - late];
            w.extend(vec![50u64; late]);
            vec![w]
        };
        let (low, high) = (
            window_tail_mean_median(&mut humps(40)).unwrap(),
            window_tail_mean_median(&mut humps(60)).unwrap(),
        );
        assert!((low - (10.0 + 40.0 / 3.0)).abs() < 1e-9, "{low}");
        assert!((high - (10.0 + 40.0 * 5.0 / 9.0)).abs() < 1e-9, "{high}");
        assert_eq!(window_tail_mean_median(&mut [vec![1; 900]]), None);
        assert_eq!(window_tail_mean_median(&mut []), None);
    }

    #[test]
    fn histogram_quantile_interpolates_inside_the_bucket() {
        let mut h = HistogramSnapshot::empty();
        h.buckets[10] = 100; // [1024, 2048)
        h.count = 100;
        h.max_ns = 2047;
        let p50 = histogram_quantile_ns(&h, 0.5).unwrap();
        assert!((1500.0..1560.0).contains(&p50), "{p50}");
        assert_eq!(
            histogram_quantile_ns(&HistogramSnapshot::empty(), 0.5),
            None
        );
    }
}
