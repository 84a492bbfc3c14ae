//! Named relations of time series.
//!
//! The paper treats relations as "simply sets of sequences; in practice of
//! course they may have other attributes, such as source of the data, time
//! period covered, etc." (Section 3). [`SeriesRelation`] carries per-series
//! names (ticker symbols in the stock examples); the query language
//! resolves identifiers against it.

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
    labels: Labels,
    series: Vec<TimeSeries>,
}

/// A relation's names without its samples: the relation name and each
/// series' label in id order, held once. A catalog relation keeps only
/// this beside its index, which holds the samples.
///
/// Every label sits in one arena, `text`, ending at its id's offset in
/// `ends`; `sorted` lists the ids in label order, so [`Labels::id`] is a
/// binary search. A label costs its bytes and two words, with no string
/// or hash table of its own.
#[derive(Debug, Clone, Default)]
pub struct Labels {
    name: String,
    text: String,
    ends: Vec<usize>,
    sorted: Vec<usize>,
}

impl Labels {
    /// The labels of `labels`, in id order, under relation `name`: the
    /// arena is sized once and the ids sorted once.
    ///
    /// # Errors
    /// [`Error::Unsupported`] naming the first label, in id order, that
    /// repeats an earlier one.
    pub fn new(name: String, labels: &[String]) -> Result<Self> {
        let mut text = String::with_capacity(labels.iter().map(String::len).sum());
        let mut ends = Vec::with_capacity(labels.len());
        for label in labels {
            text.push_str(label);
            ends.push(text.len());
        }
        let mut sorted: Vec<usize> = (0..labels.len()).collect();
        sorted.sort_unstable_by_key(|&id| (&labels[id], id));
        // Equal labels sort next to each other, by id: the first repeat in
        // id order is the least id that follows an equal label.
        let repeats = sorted.windows(2).filter(|w| labels[w[0]] == labels[w[1]]);
        if let Some(id) = repeats.map(|w| w[1]).min() {
            return Err(duplicate(&labels[id]));
        }
        Ok(Labels {
            name,
            text,
            ends,
            sorted,
        })
    }

    /// Relation name.
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// Number of labelled series.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when no series is labelled.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Label of an id.
    pub fn label(&self, id: usize) -> Option<&str> {
        let end = *self.ends.get(id)?;
        let start = id.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        Some(&self.text[start..end])
    }

    /// Id of a label.
    pub fn id(&self, label: &str) -> Option<usize> {
        self.position(label).ok().map(|at| self.sorted[at])
    }

    /// Where `label` is, or would go, in label order.
    fn position(&self, label: &str) -> std::result::Result<usize, usize> {
        self.sorted
            .binary_search_by(|&id| self.label(id).expect("a sorted id is labelled").cmp(label))
    }

    /// Labels one more series, returning its id.
    ///
    /// # Errors
    /// [`Error::Unsupported`] when `label` is taken; nothing changes.
    pub fn push(&mut self, label: &str) -> Result<usize> {
        let at = self.position(label).err().ok_or_else(|| duplicate(label))?;
        let id = self.len();
        self.text.push_str(label);
        self.ends.push(self.text.len());
        self.sorted.insert(at, id);
        Ok(id)
    }
}

/// The error of a label that is taken.
fn duplicate(label: &str) -> Error {
    Error::Unsupported(format!("duplicate label {label:?}"))
}

impl SeriesRelation {
    /// Creates an empty relation.
    pub fn new(name: impl Into<String>) -> Self {
        SeriesRelation {
            labels: Labels {
                name: name.into(),
                ..Labels::default()
            },
            series: Vec::new(),
        }
    }

    /// Builds a relation from `(label, series)` pairs.
    ///
    /// # Errors
    /// Duplicate labels are rejected as [`Error::Unsupported`].
    pub fn from_labeled(name: impl Into<String>, items: Vec<(String, TimeSeries)>) -> Result<Self> {
        let (labels, series): (Vec<String>, Vec<TimeSeries>) = items.into_iter().unzip();
        Ok(SeriesRelation {
            labels: Labels::new(name.into(), &labels)?,
            series,
        })
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
    #[cfg(test)]
    pub(crate) fn push(&mut self, label: impl Into<String>, series: TimeSeries) -> Result<usize> {
        let id = self.labels.push(&label.into())?;
        self.series.push(series);
        Ok(id)
    }

    /// Appends values to the end of one stored series, returning its id.
    /// Validation is atomic: on any error the series — and therefore the
    /// relation — is exactly as it was.
    ///
    /// # Errors
    /// [`Error::UnknownSeries`] for an unknown label (mapped by callers
    /// that know the label), [`Error::NonFinite`] when the appended values
    /// contain NaN/±∞.
    #[cfg(test)]
    pub(crate) fn extend_series(&mut self, label: &str, appended: &[f64]) -> Result<usize> {
        let Some(id) = self.labels.id(label) else {
            return Err(Error::UnknownSeries(usize::MAX));
        };
        self.series[id].try_extend(appended)?;
        Ok(id)
    }

    /// Relation name.
    pub fn name(&self) -> &str {
        self.labels.name()
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
        self.labels.id(label).map(|i| &self.series[i])
    }

    /// Label of an id.
    pub fn label(&self, id: usize) -> Option<&str> {
        self.labels.label(id)
    }

    /// All series, in id order.
    pub fn series(&self) -> &[TimeSeries] {
        &self.series
    }

    /// The relation's names.
    #[cfg(test)]
    pub(crate) fn labels(&self) -> &Labels {
        &self.labels
    }

    /// The relation's names, its samples dropped.
    pub fn into_labels(self) -> Labels {
        self.labels
    }

    /// A relation of `series`, in id order, under `labels`.
    ///
    /// # Errors
    /// [`Error::Unsupported`] when the counts differ.
    pub fn from_labels(labels: Labels, series: Vec<TimeSeries>) -> Result<Self> {
        if labels.len() != series.len() {
            return Err(Error::Unsupported(format!(
                "{} label(s) for {} series",
                labels.len(),
                series.len()
            )));
        }
        Ok(SeriesRelation { labels, series })
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
        let taken = Err(Error::Unsupported("duplicate label \"X\"".to_string()));
        assert_eq!(rel.push("X", TimeSeries::from([2.0])), taken);
        assert_eq!((rel.len(), rel.labels().len()), (1, 1));
        // A build names the first label, in id order, that repeats an
        // earlier one, as pushing them one at a time would.
        let items = ["b", "a", "c", "a", "b"].map(|l| (l.to_string(), TimeSeries::from([0.0])));
        assert_eq!(
            SeriesRelation::from_labeled("r", items.to_vec()).map(|_| ()),
            Err(Error::Unsupported("duplicate label \"a\"".to_string()))
        );
    }

    #[test]
    fn labels_are_found_by_binary_search_in_any_push_order() {
        let items = ["m", "", "zz", "b", "ab"].map(|l| (l.to_string(), TimeSeries::from([0.0])));
        let mut rel = SeriesRelation::from_labeled("r", items.to_vec()).unwrap();
        for label in ["a", "zzz", "c", "aa"] {
            rel.push(label, TimeSeries::from([1.0])).unwrap();
        }
        let labels = rel.labels();
        assert_eq!(labels.len(), 9);
        for (id, label) in ["m", "", "zz", "b", "ab", "a", "zzz", "c", "aa"]
            .into_iter()
            .enumerate()
        {
            assert_eq!(labels.label(id), Some(label));
            assert_eq!(labels.id(label), Some(id), "{label:?}");
        }
        assert_eq!(labels.label(9), None);
        for absent in ["n", "zzzz", "abc", " "] {
            assert_eq!(labels.id(absent), None, "{absent:?}");
        }
    }

    #[test]
    fn mixed_lengths_make_a_ragged_relation() {
        let mut rel = SeriesRelation::new("r");
        rel.push("X", TimeSeries::from([1.0, 2.0])).unwrap();
        rel.push("Y", TimeSeries::from([1.0])).unwrap();
        let lengths =
            |rel: &SeriesRelation| rel.series().iter().map(TimeSeries::len).collect::<Vec<_>>();
        assert_eq!(lengths(&rel), [2, 1]);
        // Appending the short series up to length 2 heals it.
        let id = rel.extend_series("Y", &[5.0]).unwrap();
        assert_eq!(id, 1);
        assert_eq!(lengths(&rel), [2, 2]);
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
