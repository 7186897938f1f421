//! Order statistics the benchmark reports: medians and the highest
//! percentile that still has at least ten samples beyond it.

/// Samples needed beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Sorts ascending; failed operations are `f64::INFINITY` and sort last.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The highest whole percentile `q` whose nearest-rank value leaves at
/// least [`TAIL_BEYOND`] samples strictly above its rank, with that value.
/// With fewer than `2 * TAIL_BEYOND` samples no percentile above the
/// median qualifies, so the maximum is returned as `q = 100`.
pub fn tail(samples: &[f64]) -> Option<(u32, f64)> {
    let v = sorted(samples);
    let n = v.len();
    if n == 0 {
        return None;
    }
    if n < 2 * TAIL_BEYOND {
        return Some((100, v[n - 1]));
    }
    let q = (100 * (n - TAIL_BEYOND) / n) as u32;
    let rank = nearest_rank(q, n);
    debug_assert!(n - rank >= TAIL_BEYOND);
    Some((q, v[rank - 1]))
}

/// Nearest-rank position (1-based) of percentile `q` among `n` samples.
fn nearest_rank(q: u32, n: usize) -> usize {
    ((q as usize * n).div_ceil(100)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        // 200 samples: p95 is rank 190, ten samples (191..=200) beyond it.
        assert_eq!(tail(&ramp(200)), Some((95, 190.0)));
        // 100 samples: p90, rank 90.
        assert_eq!(tail(&ramp(100)), Some((90, 90.0)));
        // 40 samples: p75, rank 30.
        assert_eq!(tail(&ramp(40)), Some((75, 30.0)));
        // 20 samples: p50 -> rank 10, ten beyond.
        assert_eq!(tail(&ramp(20)), Some((50, 10.0)));
        for n in 20..500 {
            let (q, value) = tail(&ramp(n)).unwrap();
            let beyond = n - value as usize;
            assert!(beyond >= TAIL_BEYOND, "n={n} q={q} leaves {beyond}");
            // It is the highest: one percent more leaves fewer than ten.
            assert!(n - nearest_rank(q + 1, n) < TAIL_BEYOND, "n={n} q={q}");
        }
    }

    #[test]
    fn tail_with_few_samples_is_the_maximum() {
        assert_eq!(tail(&ramp(4)), Some((100, 4.0)));
        // 19 samples would allow only p47; the maximum is the honest tail.
        assert_eq!(tail(&ramp(19)), Some((100, 19.0)));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn failures_sort_last_and_reach_the_tail() {
        let mut v = ramp(199);
        v.push(f64::INFINITY);
        v.extend(std::iter::repeat_n(f64::INFINITY, 10));
        // 210 samples, 11 failed: p95 is rank 200 -> a failure.
        assert_eq!(tail(&v).unwrap().1, f64::INFINITY);
        assert_eq!(median(&v), Some(105.5));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
