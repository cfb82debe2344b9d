//! Order statistics over samples. Empty inputs and zero denominators read
//! 0, which is what a layer the workload never reached reports.

/// The `p`-quantile (`p` in `[0, 1]`), interpolating linearly between the
/// two nearest order statistics.
pub fn quantile(mut values: Vec<f64>, p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

pub fn median(values: Vec<f64>) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(vec![0.0, 10.0], 0.9), 9.0);
        assert_eq!(median(Vec::new()), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
    }
}
