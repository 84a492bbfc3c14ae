//! Basic descriptive statistics used by normal forms and feature
//! extraction.

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Population variance (divides by `n`); 0 for slices shorter than 1.
pub fn variance_population(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let m = mean(values);
    values.iter().map(|&v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64
}

/// Population standard deviation (GK95 normal forms standardize by this).
pub fn std_population(values: &[f64]) -> f64 {
    variance_population(values).sqrt()
}

/// Sample variance (divides by `n - 1`); 0 for slices shorter than 2.
pub fn variance_sample(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    values.iter().map(|&v| (v - m) * (v - m)).sum::<f64>() / (values.len() - 1) as f64
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
        assert!((variance_sample(&xs) - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_variances() {
        assert_eq!(variance_population(&[5.0]), 0.0);
        assert_eq!(variance_sample(&[5.0]), 0.0);
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
