//! Order statistics the report is built from.

/// Median of `values` (mean of the two middle elements for even counts).
/// Returns 0.0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The highest percentile of `values` that still has at least ten samples
/// beyond it, as `(q, value)`; `None` below eleven samples, where no
/// percentile qualifies.
pub fn tail_percentile(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 11 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = v.len() - 11;
    Some((idx as f64 / v.len() as f64, v[idx]))
}

/// Distance between the first and third quartile as a share of the median
/// (the spread rule the acceptance driver applies). 0.0 below two samples.
pub fn iqr_share(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// First and third quartile by the exclusive method (what Python's
/// `statistics.quantiles(values, n=4)` computes).
fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    (at(1), at(3))
}

/// First quartile of `values` (exclusive method); the only value below two.
fn lower_quartile(values: &[f64]) -> f64 {
    match values {
        [] => 0.0,
        [only] => *only,
        _ => quartiles(values).0,
    }
}

/// Marks the slices during which the host ran at its quiet level: those
/// whose reference time is within `tolerance` of the lower quartile of all
/// of them. At least a quarter of the slices are always kept.
pub fn quiet_mask(host_levels: &[f64], tolerance: f64) -> Vec<bool> {
    let limit = lower_quartile(host_levels) * (1.0 + tolerance);
    host_levels.iter().map(|&level| level <= limit).collect()
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
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert!(tail_percentile(&[1.0; 10]).is_none());
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (q, x) = tail_percentile(&v).unwrap();
        assert_eq!(x, 90.0);
        assert!((q - 0.89).abs() < 1e-12);
        assert_eq!(v.iter().filter(|&&s| s > x).count(), 10);
        // With a thousand samples the qualifying percentile is p98.9.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (q, x) = tail_percentile(&v).unwrap();
        assert_eq!(x, 990.0);
        assert!(q > 0.98 && q < 0.99);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quiet_slices_are_those_near_the_lower_quartile() {
        // Eight quiet slices around 88 us and four disturbed ones.
        let levels = [
            88.0, 87.0, 112.0, 89.0, 86.5, 103.0, 90.0, 88.5, 97.0, 87.5, 95.0, 89.5,
        ];
        let mask = quiet_mask(&levels, 0.05);
        let kept: Vec<f64> = levels
            .iter()
            .zip(&mask)
            .filter(|(_, &q)| q)
            .map(|(&l, _)| l)
            .collect();
        assert_eq!(kept, vec![88.0, 87.0, 89.0, 86.5, 90.0, 88.5, 87.5, 89.5]);
        // An evenly quiet run keeps everything; one slice is kept as is.
        assert!(quiet_mask(&[90.0, 91.0, 90.5, 89.9], 0.05)
            .iter()
            .all(|&q| q));
        assert_eq!(quiet_mask(&[120.0], 0.05), vec![true]);
        assert!(quiet_mask(&[], 0.05).is_empty());
        // At least a quarter survives whatever the spread.
        let wild: Vec<f64> = (1..=12).map(|i| 50.0 * i as f64).collect();
        assert!(quiet_mask(&wild, 0.05).iter().filter(|&&q| q).count() >= 3);
    }
}
