//! The time-series value type.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Index;
use std::sync::Arc;

/// A time series: "a sequence of real numbers, each number representing a
/// value at a time point" (Section 1 of the paper).
///
/// A shared immutable value: one `Arc<[f64]>` buffer, with the statistics
/// and transformations the query engine needs. `clone()` hands over the
/// same buffer, so the catalog, a shard and every ST-index hold a served
/// series once between them; nothing can change a buffer someone holds.
/// [`TimeSeries::try_extend`], the one mutator, rebinds `self` to a new
/// buffer and leaves every earlier clone as it was. That costs `O(len)`
/// per extension, which the whole-match FFT of the same `APPEND` statement
/// already dominates. Values must be finite; constructors enforce this so
/// downstream geometry never sees NaN.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    values: Arc<[f64]>,
}

/// A non-finite (NaN or infinite) value was found where a time-series
/// sample is required.
///
/// Returned by [`TimeSeries::try_new`], the fallible boundary constructor:
/// a NaN flowing into the engine's geometry would corrupt every
/// `partial_cmp`-based ordering downstream, so values are rejected the
/// moment they enter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NonFiniteValue {
    /// Position of the offending value within the candidate series.
    pub index: usize,
    /// The offending value (NaN or ±∞).
    pub value: f64,
}

impl fmt::Display for NonFiniteValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "non-finite value {} at position {}",
            self.value, self.index
        )
    }
}

impl std::error::Error for NonFiniteValue {}

impl TimeSeries {
    /// Wraps a vector of finite values.
    ///
    /// # Panics
    /// Panics if any value is not finite. Use [`TimeSeries::try_new`] at
    /// boundaries where the values come from untrusted input (parsed
    /// literals, CSV files) and a recoverable error is wanted instead.
    pub fn new(values: Vec<f64>) -> Self {
        match Self::try_new(values) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        }
    }

    /// Wraps a vector of values, rejecting NaN and ±∞ with a typed error
    /// instead of panicking.
    ///
    /// # Errors
    /// [`NonFiniteValue`] naming the first offending position.
    pub fn try_new(values: Vec<f64>) -> Result<Self, NonFiniteValue> {
        for (index, &value) in values.iter().enumerate() {
            if !value.is_finite() {
                return Err(NonFiniteValue { index, value });
            }
        }
        Ok(TimeSeries {
            values: values.into(),
        })
    }

    /// Appends values to the end of the series, rejecting NaN and ±∞
    /// *before* rebinding: on error the series — value, length and buffer
    /// — is exactly as it was, so streaming ingest can treat a failed
    /// extend as a no-op. On success `self` holds a new buffer; clones
    /// taken earlier keep the old one.
    ///
    /// # Errors
    /// [`NonFiniteValue`] naming the first offending position — reported
    /// as an absolute position in the would-be extended series.
    pub fn try_extend(&mut self, appended: &[f64]) -> Result<(), NonFiniteValue> {
        for (i, &value) in appended.iter().enumerate() {
            if !value.is_finite() {
                return Err(NonFiniteValue {
                    index: self.values.len() + i,
                    value,
                });
            }
        }
        self.values = self.values.iter().chain(appended).copied().collect();
        Ok(())
    }

    /// Number of time points.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True for the empty series.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Raw values.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Iterator over values.
    pub(crate) fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.values.iter()
    }

    /// Arithmetic mean; 0 for the empty series.
    pub fn mean(&self) -> f64 {
        crate::stats::mean(&self.values)
    }

    /// Population standard deviation; 0 for series shorter than 1.
    pub fn std(&self) -> f64 {
        crate::stats::std_population(&self.values)
    }

    /// [`TimeSeries::mean`] and [`TimeSeries::std`] at once, bit for bit,
    /// the mean computed once.
    pub fn mean_std(&self) -> (f64, f64) {
        crate::stats::mean_std(&self.values)
    }

    /// Element-wise map, producing a new series.
    pub(crate) fn map(&self, f: impl FnMut(f64) -> f64) -> TimeSeries {
        TimeSeries::new(self.values.iter().copied().map(f).collect())
    }

    /// The reversed series of Example 2.2: every value multiplied by −1
    /// (price movements mirrored). Note this is *negation*, not reversal of
    /// time order — the paper's `T_rev` flips the sign.
    pub fn negate(&self) -> TimeSeries {
        self.map(|v| -v)
    }

    /// Adds a constant to every value (a shift transformation).
    pub fn shift(&self, c: f64) -> TimeSeries {
        self.map(|v| v + c)
    }

    /// Multiplies every value by a constant (a scale transformation; the
    /// paper explicitly allows negative scales).
    pub fn scale(&self, c: f64) -> TimeSeries {
        self.map(|v| v * c)
    }
}

impl From<Vec<f64>> for TimeSeries {
    fn from(values: Vec<f64>) -> Self {
        TimeSeries::new(values)
    }
}

impl From<&[f64]> for TimeSeries {
    fn from(values: &[f64]) -> Self {
        TimeSeries::new(values.to_vec())
    }
}

impl<const N: usize> From<[f64; N]> for TimeSeries {
    fn from(values: [f64; N]) -> Self {
        TimeSeries::new(values.to_vec())
    }
}

impl Index<usize> for TimeSeries {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        &self.values[i]
    }
}

impl fmt::Display for TimeSeries {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let s = TimeSeries::from([1.0, 2.0, 3.0]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s[1], 2.0);
        assert_eq!(s.values(), &[1.0, 2.0, 3.0]);
        assert_eq!(s.iter().sum::<f64>(), 6.0);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn rejects_nan() {
        let _ = TimeSeries::new(vec![1.0, f64::NAN]);
    }

    #[test]
    fn try_new_reports_position_and_value() {
        let err = TimeSeries::try_new(vec![1.0, 2.0, f64::NAN]).unwrap_err();
        assert_eq!(err.index, 2);
        assert!(err.value.is_nan());
        let err = TimeSeries::try_new(vec![f64::INFINITY]).unwrap_err();
        assert_eq!(
            err,
            NonFiniteValue {
                index: 0,
                value: f64::INFINITY
            }
        );
        assert!(err.to_string().contains("position 0"));
        assert_eq!(
            TimeSeries::try_new(vec![1.0, -2.0]).unwrap().values(),
            &[1.0, -2.0]
        );
    }

    #[test]
    fn try_extend_is_atomic() {
        let mut s = TimeSeries::from([1.0, 2.0]);
        s.try_extend(&[3.0, 4.0]).unwrap();
        assert_eq!(s.values(), &[1.0, 2.0, 3.0, 4.0]);
        // A non-finite value anywhere in the batch leaves the series
        // untouched and reports its absolute position.
        let err = s.try_extend(&[5.0, f64::NAN, 6.0]).unwrap_err();
        assert_eq!(err.index, 5);
        assert!(err.value.is_nan());
        assert_eq!(s.values(), &[1.0, 2.0, 3.0, 4.0]);
        s.try_extend(&[]).unwrap();
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn mean_and_std() {
        let s = TimeSeries::from([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn negate_shift_scale() {
        let s = TimeSeries::from([1.0, -2.0]);
        assert_eq!(s.negate().values(), &[-1.0, 2.0]);
        assert_eq!(s.shift(3.0).values(), &[4.0, 1.0]);
        assert_eq!(s.scale(-2.0).values(), &[-2.0, 4.0]);
    }

    #[test]
    fn display_matches_paper_notation() {
        let s = TimeSeries::from([20.0, 21.0, 20.0, 23.0]);
        assert_eq!(s.to_string(), "(20,21,20,23)");
    }

    #[test]
    fn empty_series() {
        let s = TimeSeries::new(vec![]);
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std(), 0.0);
    }
}
