//! Normal forms (Goldin & Kanellakis 1995, Equation 9 of the paper).
//!
//! `s'_i = (s_i - mean(s)) / std(s)`: shift the mean to zero and scale by
//! the inverse standard deviation. The paper builds its index over normal
//! forms, storing the original mean and standard deviation as two extra
//! index dimensions so simple shift/scale similarity remains expressible.

use crate::series::TimeSeries;

/// A series together with the mean/std that were removed to normalize it —
/// enough to reconstruct the original exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct NormalForm {
    /// The normalized series (zero mean, unit standard deviation — unless
    /// the input was constant, in which case all zeros).
    pub series: TimeSeries,
    /// Mean of the original series.
    pub mean: f64,
    /// Population standard deviation of the original series.
    pub std: f64,
}

impl NormalForm {
    /// Computes the normal form of `s` (Equation 9).
    ///
    /// A constant series has zero standard deviation; its normal form is
    /// defined here as the all-zero series (the limit of vanishing
    /// fluctuation), with `std` recorded as 0 so `v * std + mean` still
    /// reconstructs the original.
    pub fn of(s: &TimeSeries) -> NormalForm {
        let (mean, std) = s.mean_std();
        let series = if std == 0.0 {
            TimeSeries::new(vec![0.0; s.len()])
        } else {
            s.map(|v| (v - mean) / std)
        };
        NormalForm { series, mean, std }
    }

    /// Undoes the normalization: `v * std + mean`.
    #[cfg(test)]
    fn restore(&self) -> TimeSeries {
        self.series.map(|v| v * self.std + self.mean)
    }
}

/// Convenience: just the normalized series.
pub fn normal_form(s: &TimeSeries) -> TimeSeries {
    NormalForm::of(s).series
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizes_mean_and_std() {
        let s = TimeSeries::from([3.0, 7.0, 5.0, 9.0, 1.0]);
        let nf = NormalForm::of(&s);
        assert!((nf.series.mean()).abs() < 1e-12);
        assert!((nf.series.std() - 1.0).abs() < 1e-12);
        assert!((nf.mean - 5.0).abs() < 1e-12);
    }

    #[test]
    fn restore_roundtrips() {
        let s = TimeSeries::from([10.0, 12.0, 9.0, 14.0]);
        let nf = NormalForm::of(&s);
        let back = nf.restore();
        for (a, b) in s.iter().zip(back.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn constant_series_becomes_zeros() {
        let s = TimeSeries::from([4.2, 4.2, 4.2]);
        let nf = NormalForm::of(&s);
        assert_eq!(nf.series.values(), &[0.0, 0.0, 0.0]);
        assert_eq!(nf.std, 0.0);
        let back = nf.restore();
        assert_eq!(back.values(), &[4.2, 4.2, 4.2]);
    }

    #[test]
    fn normalization_is_shift_scale_invariant() {
        // Normal forms identify series equal up to positive affine change.
        let s = TimeSeries::from([1.0, 3.0, 2.0, 5.0]);
        let t = s.scale(2.5).shift(-7.0);
        let a = normal_form(&s);
        let b = normal_form(&t);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_series() {
        let s = TimeSeries::new(vec![]);
        let nf = NormalForm::of(&s);
        assert!(nf.series.is_empty());
        assert!(nf.restore().is_empty());
    }
}
