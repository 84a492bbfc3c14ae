//! Named relations of time series.
//!
//! The paper treats relations as "simply sets of sequences; in practice of
//! course they may have other attributes, such as source of the data, time
//! period covered, etc." (Section 3). [`SeriesRelation`] carries per-series
//! names (ticker symbols in the stock examples); the query language
//! resolves identifiers against it.

use std::collections::HashMap;

use tsq_series::TimeSeries;

use crate::error::{Error, Result};

/// A named collection of time series.
///
/// Lengths are *usually* equal, but streaming ingest makes them
/// transiently unequal: a single-series `APPEND` leaves the relation
/// **ragged** until the other series catch up. Whole-series queries are
/// gated on uniformity (see [`crate::Error::Ragged`]); subsequence
/// queries work either way.
#[derive(Debug, Clone, Default)]
pub struct SeriesRelation {
    name: String,
    series: Vec<TimeSeries>,
    labels: Vec<String>,
    by_label: HashMap<String, usize>,
}

impl SeriesRelation {
    /// Creates an empty relation.
    pub fn new(name: impl Into<String>) -> Self {
        SeriesRelation {
            name: name.into(),
            ..SeriesRelation::default()
        }
    }

    /// Builds a relation from `(label, series)` pairs.
    ///
    /// # Errors
    /// Duplicate labels are rejected as [`Error::Unsupported`].
    pub fn from_labeled(name: impl Into<String>, items: Vec<(String, TimeSeries)>) -> Result<Self> {
        let mut rel = SeriesRelation::new(name);
        for (label, series) in items {
            rel.push(label, series)?;
        }
        Ok(rel)
    }

    /// Builds a relation with synthesized labels `s0, s1, ...`.
    pub fn from_series(name: impl Into<String>, series: Vec<TimeSeries>) -> Result<Self> {
        let items = series
            .into_iter()
            .enumerate()
            .map(|(i, s)| (format!("s{i}"), s))
            .collect();
        Self::from_labeled(name, items)
    }

    /// Appends one labeled series, returning its id. The new series may
    /// differ in length from the others (streaming ingest starts new
    /// series mid-stream); the relation is then ragged until appends even
    /// the lengths out.
    pub fn push(&mut self, label: impl Into<String>, series: TimeSeries) -> Result<usize> {
        let label = label.into();
        if self.by_label.contains_key(&label) {
            return Err(Error::Unsupported(format!("duplicate label {label:?}")));
        }
        let id = self.series.len();
        self.by_label.insert(label.clone(), id);
        self.labels.push(label);
        self.series.push(series);
        Ok(id)
    }

    /// Appends values to the end of one stored series (the `APPEND` verb's
    /// storage-level operation), returning its id. This is the one place a
    /// served series is extended: the indexes are handed the resulting
    /// value ([`crate::ShardedIndex::extend_series_batch`]) and share its
    /// buffer. Validation is atomic: on any error the series — and
    /// therefore the relation — is exactly as it was.
    ///
    /// # Errors
    /// [`Error::UnknownSeries`] for an unknown label (mapped by callers
    /// that know the label), [`Error::NonFinite`] when the appended values
    /// contain NaN/±∞.
    pub fn extend_series(&mut self, label: &str, appended: &[f64]) -> Result<usize> {
        let Some(&id) = self.by_label.get(label) else {
            return Err(Error::UnknownSeries(usize::MAX));
        };
        self.series[id].try_extend(appended)?;
        Ok(id)
    }

    /// `(min, max)` series lengths, or `None` for an empty relation.
    pub fn length_range(&self) -> Option<(usize, usize)> {
        let mut lens = self.series.iter().map(TimeSeries::len);
        let first = lens.next()?;
        Some(lens.fold((first, first), |(lo, hi), l| (lo.min(l), hi.max(l))))
    }

    /// True when every stored series has the same length (vacuously true
    /// when empty). Whole-series queries require this; see
    /// [`Error::Ragged`].
    pub fn is_uniform(&self) -> bool {
        // `map_or(true, ..)` rather than `is_none_or`: MSRV is 1.80.
        self.length_range().map_or(true, |(lo, hi)| lo == hi)
    }

    /// Relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of series.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Series by id.
    pub fn get(&self, id: usize) -> Option<&TimeSeries> {
        self.series.get(id)
    }

    /// Series by label.
    pub fn get_by_label(&self, label: &str) -> Option<&TimeSeries> {
        self.by_label.get(label).map(|&i| &self.series[i])
    }

    /// Label of an id.
    pub fn label(&self, id: usize) -> Option<&str> {
        self.labels.get(id).map(String::as_str)
    }

    /// All series, in id order.
    pub fn series(&self) -> &[TimeSeries] {
        &self.series
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{IndexConfig, SimilarityIndex};

    #[test]
    fn labels_roundtrip() {
        let mut rel = SeriesRelation::new("stocks");
        let a = rel.push("BBA", TimeSeries::from([1.0, 2.0])).unwrap();
        let b = rel.push("ZTR", TimeSeries::from([3.0, 4.0])).unwrap();
        assert_eq!((a, b), (0, 1));
        assert_eq!(rel.label(1), Some("ZTR"));
        assert_eq!(rel.get_by_label("ZTR").unwrap().values(), &[3.0, 4.0]);
        assert_eq!(rel.name(), "stocks");
        assert_eq!(rel.len(), 2);
    }

    #[test]
    fn duplicate_labels_rejected() {
        let mut rel = SeriesRelation::new("r");
        rel.push("X", TimeSeries::from([1.0])).unwrap();
        assert!(rel.push("X", TimeSeries::from([2.0])).is_err());
    }

    #[test]
    fn mixed_lengths_make_a_ragged_relation() {
        let mut rel = SeriesRelation::new("r");
        rel.push("X", TimeSeries::from([1.0, 2.0])).unwrap();
        rel.push("Y", TimeSeries::from([1.0])).unwrap();
        assert_eq!(rel.length_range(), Some((1, 2)));
        assert!(!rel.is_uniform());
        // Appending the short series up to length 2 heals it.
        let id = rel.extend_series("Y", &[5.0]).unwrap();
        assert_eq!(id, 1);
        assert!(rel.is_uniform());
        assert_eq!(rel.get_by_label("Y").unwrap().values(), &[1.0, 5.0]);
    }

    #[test]
    fn extend_series_validates() {
        let mut rel = SeriesRelation::new("r");
        rel.push("X", TimeSeries::from([1.0, 2.0])).unwrap();
        assert!(matches!(
            rel.extend_series("missing", &[1.0]),
            Err(Error::UnknownSeries(_))
        ));
        assert!(matches!(
            rel.extend_series("X", &[f64::INFINITY]),
            Err(Error::NonFinite { .. })
        ));
        // Failed extends are no-ops.
        assert_eq!(rel.get_by_label("X").unwrap().values(), &[1.0, 2.0]);
    }

    #[test]
    fn from_series_synthesizes_labels() {
        let rel = SeriesRelation::from_series(
            "r",
            vec![TimeSeries::from([1.0]), TimeSeries::from([2.0])],
        )
        .unwrap();
        assert_eq!(rel.label(0), Some("s0"));
        assert_eq!(rel.label(1), Some("s1"));
    }

    #[test]
    fn builds_index() {
        let series: Vec<TimeSeries> = (0..20)
            .map(|i| {
                TimeSeries::new(
                    (0..16)
                        .map(|t| ((i + t) as f64 * 0.7).sin() * 3.0 + i as f64)
                        .collect(),
                )
            })
            .collect();
        let rel = SeriesRelation::from_series("r", series).unwrap();
        let idx = SimilarityIndex::build(IndexConfig::default(), rel.series().to_vec()).unwrap();
        assert_eq!(idx.len(), 20);
    }
}
