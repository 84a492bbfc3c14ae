//! Basic descriptive statistics used by normal forms and feature
//! extraction.

/// Arithmetic mean; 0 for an empty slice.
pub(crate) fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Population variance about the slice's mean `m`; 0 for an empty slice.
fn variance_about(values: &[f64], m: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().map(|&v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64
}

/// Population standard deviation (GK95 normal forms standardize by this).
pub(crate) fn std_population(values: &[f64]) -> f64 {
    mean_std(values).1
}

/// The mean and the population standard deviation about it, the mean
/// computed once.
pub(crate) fn mean_std(values: &[f64]) -> (f64, f64) {
    let m = mean(values);
    (m, variance_about(values, m).sqrt())
}

/// Pearson correlation of two equal-length slices; 0 when either side is
/// constant. Used by the synthetic stock generator's tests to verify that
/// planted co-movers / opposite movers really correlate.
pub fn pearson(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "correlation requires equal lengths");
    let n = x.len();
    if n == 0 {
        return 0.0;
    }
    let mx = mean(x);
    let my = mean(y);
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for i in 0..n {
        let dx = x[i] - mx;
        let dy = y[i] - my;
        cov += dx * dy;
        vx += dx * dx;
        vy += dy * dy;
    }
    if vx == 0.0 || vy == 0.0 {
        return 0.0;
    }
    cov / (vx.sqrt() * vy.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Population variance (divides by `n`); 0 for an empty slice.
    fn variance_population(values: &[f64]) -> f64 {
        variance_about(values, mean(values))
    }

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[4.0]), 4.0);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
    }

    #[test]
    fn variance_population_vs_sample() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((variance_population(&xs) - 4.0).abs() < 1e-12);
        // The sample variance, 32/7, is n/(n-1) times the population one.
        assert!((variance_population(&xs) * 8.0 / 7.0 - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_variances() {
        assert_eq!(variance_population(&[5.0]), 0.0);
        assert_eq!(std_population(&[]), 0.0);
    }

    #[test]
    fn pearson_perfect_and_inverse() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        let z = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&x, &y) - 1.0).abs() < 1e-12);
        assert!((pearson(&x, &z) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_constant_is_zero() {
        assert_eq!(pearson(&[1.0, 1.0], &[2.0, 3.0]), 0.0);
    }
}
