//! Order statistics over measured samples.

/// The `q` quantile of `values` (linear interpolation between order
/// statistics); 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let (a, b) = (sorted[lo], sorted[pos.ceil() as usize]);
    // Failed requests are infinitely late; keep them from turning into NaN.
    if a == b || b.is_infinite() {
        return if pos == lo as f64 { a } else { b };
    }
    a + (b - a) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The mean of the middle half of `values` (the interquartile mean): less
/// swayed than the mean by a few outlying samples, and steadier than the
/// median; 0 for an empty sample.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quarter = sorted.len() / 4;
    let middle = &sorted[quarter..sorted.len() - quarter];
    ratio(middle.iter().sum(), middle.len() as f64)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[1.0, f64::INFINITY], 0.5), f64::INFINITY);
        assert_eq!(quantile(&[1.0, 2.0, f64::INFINITY], 0.5), 2.0);
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        assert_eq!(interquartile_mean(&[100.0, 2.0, 3.0, 0.0]), 2.5);
        assert_eq!(interquartile_mean(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(interquartile_mean(&[]), 0.0);
    }
}
