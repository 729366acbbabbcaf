//! Summary statistics: medians and the tail-percentile rule.

/// Fewest samples that give a tail: one resolved sample plus ten beyond it.
pub const MIN_TAIL_SAMPLES: usize = 11;

/// Samples that must lie beyond the reported tail percentile.
const BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for an even count); `None`
/// for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The highest percentile that still has at least ten samples beyond it,
/// as `(percentile, value)`.
///
/// With `n` sorted samples the value is the sample at 1-based rank
/// `n - 10`, and the percentile is `100 * (n - 10) / n`, floored to a
/// tenth. Fewer than [`MIN_TAIL_SAMPLES`] samples cannot support a tail and
/// are refused with `None`.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < MIN_TAIL_SAMPLES {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = n - BEYOND;
    let pct = (1000.0 * rank as f64 / n as f64).floor() / 10.0;
    Some((pct, v[rank - 1]))
}

/// Completion rates (per second) over `chunks` runs of consecutive
/// completions, from sorted completion times in seconds since the start.
/// Each chunk holds the same number of completions and is timed from the
/// completion before it (the start, for the first), so a rate is as
/// precise as the clock, not a whole count per window. Completions left
/// over after the last whole chunk are not used.
pub fn chunk_rates(done_s: &[f64], chunks: usize) -> Vec<f64> {
    let per = done_s.len().checked_div(chunks).unwrap_or(0);
    if per == 0 {
        return Vec::new();
    }
    (0..chunks)
        .map(|i| {
            let from = if i == 0 { 0.0 } else { done_s[i * per - 1] };
            per as f64 / (done_s[(i + 1) * per - 1] - from)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_refuses_fewer_than_eleven_samples() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn tail_with_eleven_samples_is_the_lowest() {
        let v: Vec<f64> = (1..=11).rev().map(f64::from).collect();
        // Rank 1 of 11: exactly ten samples lie beyond it.
        assert_eq!(tail(&v), Some((9.0, 1.0)));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (pct, value) = tail(&v).expect("enough samples");
        assert_eq!(pct, 99.0);
        assert_eq!(value, 990.0);
        let beyond = v.iter().filter(|&&x| x > value).count();
        assert_eq!(beyond, 10);

        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&v), Some((95.0, 190.0)));
        let v: Vec<f64> = (1..=37).map(f64::from).collect();
        // 27 / 37 = 72.97…%, floored to a tenth.
        assert_eq!(tail(&v), Some((72.9, 27.0)));
    }

    #[test]
    fn chunk_rates_time_equal_runs_of_completions() {
        // 100 completions every 10 ms, then 50 more every 20 ms.
        let mut done: Vec<f64> = (1..=100).map(|i| i as f64 * 0.01).collect();
        done.extend((1..=50).map(|i| 1.0 + i as f64 * 0.02));
        let r = chunk_rates(&done, 3);
        assert_eq!(r.len(), 3);
        for (got, want) in r.iter().zip([100.0, 100.0, 50.0]) {
            assert!((got - want).abs() < 1e-9, "{r:?}");
        }
        // Leftover completions are dropped; too few give no chunk.
        assert_eq!(chunk_rates(&done[..7], 2).len(), 2);
        assert!(chunk_rates(&done[..1], 2).is_empty());
        assert!(chunk_rates(&done, 0).is_empty());
    }
}
