//! Error types for the query engine.

use std::fmt;

/// Errors raised by index construction and query execution.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A transformation violates the safety condition (Definition 1) for
    /// the coordinate space in use.
    UnsafeTransform {
        /// Human-readable reason (which theorem's precondition failed).
        reason: String,
    },
    /// Series length differs from what the index was built for.
    LengthMismatch {
        /// Length the index expects.
        expected: usize,
        /// Length that was supplied.
        got: usize,
    },
    /// The index cut-off `k` is invalid for the series length.
    InvalidCutoff {
        /// Requested number of coefficients.
        k: usize,
        /// Series length.
        n: usize,
    },
    /// A query referenced an unknown series identifier.
    UnknownSeries(usize),
    /// Transformation vector lengths disagree with the series length.
    TransformArity {
        /// Expected coefficient-vector length.
        expected: usize,
        /// Supplied length.
        got: usize,
    },
    /// A distance threshold was negative. Raised at query construction so
    /// a nonsensical query fails loudly instead of silently matching
    /// nothing.
    NegativeThreshold {
        /// The offending threshold.
        eps: f64,
    },
    /// A subsequence window length below 2 (a one-point "window" has no
    /// spectrum to index and degenerates every distance to a point gap).
    InvalidWindow {
        /// The offending window length.
        window: usize,
    },
    /// A non-finite number (NaN or ±∞) reached a query or ingest boundary:
    /// a series value, a distance threshold, or a transformation cost.
    /// NaN silently breaks every ordering and threshold comparison the
    /// engine relies on, so it is rejected with the offending context
    /// instead of flowing into the geometry.
    NonFinite {
        /// What carried the value, with the value formatted in (e.g.
        /// `"series value NaN at position 3"`, `"threshold eps = inf"`).
        context: String,
    },
    /// A whole-series query reached a relation whose series lengths are
    /// (transiently) unequal — single-series appends make a relation
    /// *ragged* until the other series catch up. Whole-series Euclidean
    /// distance is undefined across lengths, so these query forms are
    /// rejected instead of answered wrongly; subsequence queries, which
    /// compare fixed-length windows, remain available throughout.
    Ragged {
        /// Shortest series length in the relation.
        min: usize,
        /// Longest series length in the relation.
        max: usize,
    },
    /// Operation unsupported for this transformation (e.g. composing two
    /// time warps).
    Unsupported(String),
    /// A snapshot could not be written or restored: I/O failures, bad
    /// magic/version/endianness, checksum mismatches, truncated or
    /// structurally corrupt payloads, and restore-time name collisions all
    /// surface here as typed [`tsq_store::StoreError`]s — never a panic.
    Store(tsq_store::StoreError),
}

impl Error {
    /// `Ok(eps)` when the threshold is usable, the typed rejection
    /// otherwise: [`Error::NonFinite`] for NaN/∞, since `d <= NaN` is
    /// false for every distance (silently empty answers) and `d <= ∞` is
    /// true for all of them; [`Error::NegativeThreshold`] for `eps < 0`.
    pub(crate) fn check_threshold(eps: f64) -> Result<f64> {
        if !eps.is_finite() {
            return Err(Error::NonFinite {
                context: format!("threshold eps = {eps}"),
            });
        }
        if eps < 0.0 {
            return Err(Error::NegativeThreshold { eps });
        }
        Ok(eps)
    }
}

impl From<tsq_store::StoreError> for Error {
    fn from(e: tsq_store::StoreError) -> Self {
        Error::Store(e)
    }
}

/// The in-memory node store's fetch error: traversals written once over
/// [`tsq_rtree::NodeStore`] convert whichever error their store has.
impl From<std::convert::Infallible> for Error {
    fn from(never: std::convert::Infallible) -> Self {
        match never {}
    }
}

impl From<tsq_series::NonFiniteValue> for Error {
    fn from(e: tsq_series::NonFiniteValue) -> Self {
        Error::NonFinite {
            context: format!("series value {} at position {}", e.value, e.index),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnsafeTransform { reason } => write!(f, "unsafe transformation: {reason}"),
            Error::LengthMismatch { expected, got } => {
                write!(f, "series length mismatch: expected {expected}, got {got}")
            }
            Error::InvalidCutoff { k, n } => {
                write!(f, "invalid cut-off: k = {k} for series of length {n}")
            }
            Error::UnknownSeries(id) => write!(f, "unknown series id {id}"),
            Error::TransformArity { expected, got } => {
                write!(
                    f,
                    "transformation arity mismatch: expected {expected}, got {got}"
                )
            }
            Error::NegativeThreshold { eps } => {
                write!(f, "negative distance threshold: eps = {eps}")
            }
            Error::NonFinite { context } => {
                write!(f, "non-finite input rejected: {context}")
            }
            Error::InvalidWindow { window } => {
                write!(
                    f,
                    "invalid subsequence window: {window} (must be at least 2)"
                )
            }
            Error::Ragged { min, max } => {
                write!(
                    f,
                    "relation is ragged: series lengths range from {min} to {max}; \
                     whole-series queries need equal lengths (append the shorter \
                     series up to length {max}, or use subsequence queries)"
                )
            }
            Error::Unsupported(what) => write!(f, "unsupported operation: {what}"),
            Error::Store(e) => write!(f, "snapshot error: {e}"),
        }
    }
}

impl std::error::Error for Error {}

/// Convenient result alias.
pub(crate) type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = Error::LengthMismatch {
            expected: 128,
            got: 64,
        };
        assert!(e.to_string().contains("128"));
        let e = Error::UnsafeTransform {
            reason: "complex multiplier in S_rect".into(),
        };
        assert!(e.to_string().contains("unsafe"));
        let e = Error::InvalidCutoff { k: 9, n: 4 };
        assert!(e.to_string().contains("k = 9"));
        let e = Error::NegativeThreshold { eps: -1.5 };
        assert!(e.to_string().contains("-1.5"));
        let e = Error::InvalidWindow { window: 1 };
        assert!(e.to_string().contains("window"));
        let e = Error::NonFinite {
            context: "threshold eps = NaN".into(),
        };
        assert!(e.to_string().contains("non-finite"));
        let e = Error::Ragged { min: 60, max: 64 };
        assert!(e.to_string().contains("60"));
        assert!(e.to_string().contains("64"));
        assert!(e.to_string().contains("ragged"));
    }

    #[test]
    fn threshold_check() {
        assert_eq!(Error::check_threshold(1.5), Ok(1.5));
        assert_eq!(Error::check_threshold(0.0), Ok(0.0));
        assert!(matches!(
            Error::check_threshold(f64::NAN),
            Err(Error::NonFinite { .. })
        ));
        assert!(matches!(
            Error::check_threshold(f64::INFINITY),
            Err(Error::NonFinite { .. })
        ));
        assert!(matches!(
            Error::check_threshold(-1.0),
            Err(Error::NegativeThreshold { eps }) if eps == -1.0
        ));
    }

    #[test]
    fn store_error_converts_and_displays() {
        let e: Error = tsq_store::StoreError::BadMagic.into();
        assert!(matches!(e, Error::Store(tsq_store::StoreError::BadMagic)));
        assert!(e.to_string().contains("snapshot error"));
        let e: Error = tsq_store::StoreError::corrupt("dangling id").into();
        assert!(e.to_string().contains("dangling id"));
    }

    #[test]
    fn non_finite_value_converts() {
        let e: Error = tsq_series::NonFiniteValue {
            index: 3,
            value: f64::NAN,
        }
        .into();
        assert!(matches!(&e, Error::NonFinite { context } if context.contains("position 3")));
    }
}
