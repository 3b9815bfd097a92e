//! Order statistics over latency samples.

/// The fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile of `sorted` by the nearest-rank rule: the smallest
/// sample with at least `q` of the samples at or below it.
///
/// Refuses a percentile the sample cannot support: fewer than
/// [`MIN_BEYOND`] samples may not lie strictly beyond the returned rank,
/// so a p99 needs at least 1000 samples.
///
/// # Errors
///
/// A message naming the sample count when it is too small or empty.
pub fn percentile(sorted: &[u64], q: f64) -> Result<u64, String> {
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "input must be sorted"
    );
    let n = sorted.len();
    // Nearest rank, 1-based: ceil(q * n), at least 1.
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n == 0 || n - rank.min(n) < MIN_BEYOND {
        return Err(format!(
            "p{} needs at least {MIN_BEYOND} samples beyond it; {n} sample(s) leave {}",
            q * 100.0,
            n.saturating_sub(rank)
        ));
    }
    Ok(sorted[rank - 1])
}

/// The median of unsorted values (mean of the middle two for an even
/// count); `None` when empty.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_a_thousand_samples() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.5), Ok(500));
        assert_eq!(percentile(&v, 0.99), Ok(990));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let v: Vec<u64> = (1..=999).collect();
        let err = percentile(&v, 0.99).expect_err("999 samples leave 9 beyond p99");
        assert!(err.contains("999 sample(s) leave 9"), "{err}");
        let v: Vec<u64> = (1..=1000).collect();
        assert!(percentile(&v, 0.99).is_ok());
    }

    #[test]
    fn median_needs_twenty_samples() {
        let v: Vec<u64> = (1..=19).collect();
        assert!(percentile(&v, 0.5).is_err());
        let v: Vec<u64> = (1..=20).collect();
        assert_eq!(percentile(&v, 0.5), Ok(10));
    }

    #[test]
    fn empty_input_is_refused() {
        assert!(percentile(&[], 0.5).is_err());
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }
}
