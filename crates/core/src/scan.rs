//! Sequential-scan baselines (Section 5 / Table 1 methods (a) and (b)).
//!
//! The paper is careful to compare against a *good* sequential scan: it
//! scans "the relation that stores the series in the frequency domain, not
//! the time domain", so that "each series ... has its larger coefficients
//! at the beginning" and the distance computation "can skip many sequences
//! within the first few coefficients" (early abandoning). A record here is
//! its samples, so the scan abandons in time order instead — the scan
//! baseline of the Hydra evaluations — over the one exact check every
//! operator runs ([`Refine`]). Both the naive full-distance scan and the
//! early-abandoning scan are provided, and the k-NN scan gives up on a
//! record once it is past the `k`-th distance found so far. They
//! are the reference oracles the Lemma-1 suites compare the index
//! against, and the kernels of the planner's scan operators: a planned
//! scan and an oracle scan are the same loop, and share nothing with the
//! index path but validation.

use std::collections::BinaryHeap;

use crate::error::Result;
use crate::index::{Match, Refine, SimilarityIndex};
use crate::records::RecordIo;
use crate::space::QueryWindow;
use crate::transform::LinearTransform;

/// Whether the scan may abandon a distance computation once it exceeds the
/// threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanMode {
    /// Compute every distance in full (Table 1, method (a)).
    Naive,
    /// Stop a distance computation as soon as it exceeds `eps`
    /// (Table 1, method (b); ~10x faster in the paper).
    EarlyAbandon,
}

impl ScanMode {
    /// The partial sum at which a distance computation may stop: the
    /// membership `limit`, or never — the modes differ in nothing else,
    /// the membership test against `limit` is the same.
    pub(crate) fn abandon_at(self, limit: f64) -> f64 {
        match self {
            ScanMode::Naive => f64::INFINITY,
            ScanMode::EarlyAbandon => limit,
        }
    }
}

/// Counters from a sequential scan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Sequences compared (the whole relation, unless a mean/std filter
    /// window passed some over).
    pub scanned: usize,
    /// Distance computations abandoned early.
    pub abandoned: usize,
    /// Record-pool traffic (paged storage only).
    pub records: RecordIo,
}

impl SimilarityIndex {
    /// Range query by sequential scan over the stored relation: every
    /// stored series is transformed and compared against
    /// `q`; no index is used. Ground truth for Lemma-1 tests and the
    /// baseline of Figures 10–12.
    ///
    /// # Errors
    /// Same failure modes as [`SimilarityIndex::range_query`].
    pub fn scan_range(
        &self,
        q: &tsq_series::TimeSeries,
        eps: f64,
        t: &LinearTransform,
        mode: ScanMode,
    ) -> Result<(Vec<Match>, ScanStats)> {
        let refine = self.bind_query(q, Some(eps), t)?;
        self.scan_range_features(&refine, &QueryWindow::default(), mode)
    }

    /// The range-scan kernel for a bound query (precomputed features are
    /// bound with [`SimilarityIndex::refine`]): every
    /// stored series the mean/std filter `window` admits — the scan-side
    /// equivalent of the search rectangle's bounds on the two auxiliary
    /// dimensions — is checked with the statement's refine, in either
    /// mode (`Refine::within`). Records are read in id order: a paged
    /// index's record file front to back.
    ///
    /// # Errors
    /// Typed [`crate::Error::Store`] failures when a paged index's record
    /// file cannot be read.
    pub fn scan_range_features(
        &self,
        refine: &Refine<'_>,
        window: &QueryWindow,
        mode: ScanMode,
    ) -> Result<(Vec<Match>, ScanStats)> {
        let mut stats = ScanStats::default();
        let mut matches = Vec::new();
        for (id, stored) in self.entries().iter().enumerate() {
            if !window.admits(&stored.features) {
                continue;
            }
            stats.scanned += 1;
            match refine.within(&self.record(id, &mut stats.records)?, mode) {
                Some(distance) => matches.push(Match { id, distance }),
                None if mode == ScanMode::EarlyAbandon => stats.abandoned += 1,
                None => {}
            }
        }
        Ok((matches, stats))
    }

    /// K-nearest-neighbor query by sequential scan (ground truth for KNN
    /// tests).
    ///
    /// # Errors
    /// Same failure modes as [`SimilarityIndex::knn_query`].
    pub fn scan_knn(
        &self,
        q: &tsq_series::TimeSeries,
        k: usize,
        t: &LinearTransform,
    ) -> Result<Vec<Match>> {
        Ok(self.scan_knn_features(&self.bind_query(q, None, t)?, k)?.0)
    }

    /// [`SimilarityIndex::scan_knn`] for a bound query: the `k` smallest
    /// by `(distance, id)`, kept in a bounded heap — a distance is a square
    /// root, never negative, so its bits order as its value. Once the heap
    /// holds `k`, a record's exact check gives up past the largest of them
    /// ([`Refine::distance_within`]): such a record is strictly farther
    /// than the `k`-th, so the answer is the full sort's. Returns the
    /// answer and the record-pool traffic.
    pub(crate) fn scan_knn_features(
        &self,
        refine: &Refine<'_>,
        k: usize,
    ) -> Result<(Vec<Match>, RecordIo)> {
        let mut best: BinaryHeap<(u64, usize)> = BinaryHeap::with_capacity(k.min(self.len()) + 1);
        let mut io = RecordIo::default();
        for id in 0..self.len() {
            let bound = match best.peek() {
                Some(&(kth, _)) if best.len() == k => f64::from_bits(kth),
                _ => f64::INFINITY,
            };
            if let Some(distance) = refine.distance_within(&self.record(id, &mut io)?, bound) {
                best.push((distance.to_bits(), id));
                if best.len() > k {
                    best.pop();
                }
            }
        }
        let sorted = best.into_sorted_vec().into_iter();
        let matches = sorted.map(|(bits, id)| Match {
            id,
            distance: f64::from_bits(bits),
        });
        Ok((matches.collect(), io))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;
    use crate::index::IndexConfig;
    use tsq_series::generate::RandomWalkGenerator;

    fn index(count: usize, len: usize, seed: u64) -> SimilarityIndex {
        let rel = RandomWalkGenerator::new(seed).relation(count, len);
        SimilarityIndex::build(IndexConfig::default(), rel).unwrap()
    }

    #[test]
    fn scan_modes_agree() {
        let idx = index(80, 64, 21);
        let q = idx.series(0).unwrap().clone();
        let t = LinearTransform::moving_average(64, 5);
        let (a, _) = idx.scan_range(&q, 2.0, &t, ScanMode::Naive).unwrap();
        let (b, sb) = idx.scan_range(&q, 2.0, &t, ScanMode::EarlyAbandon).unwrap();
        assert_eq!(a, b);
        assert!(sb.abandoned > 0, "early abandoning should trigger");
        assert_eq!(sb.scanned, 80);
    }

    #[test]
    fn scan_agrees_with_index_query() {
        // Lemma 1 end-to-end: the indexed query returns exactly the scan's
        // answer set.
        let idx = index(150, 32, 22);
        let t = LinearTransform::moving_average(32, 4);
        for qid in [0usize, 17, 49] {
            let q = idx.series(qid).unwrap().clone();
            let (scan, _) = idx.scan_range(&q, 1.2, &t, ScanMode::Naive).unwrap();
            let (indexed, _) = idx
                .range_query(&q, 1.2, &t, &QueryWindow::default())
                .unwrap();
            assert_eq!(scan, indexed, "query {qid}");
        }
    }

    #[test]
    fn scans_reject_a_bad_transform_instead_of_panicking() {
        // The scans used to validate only the threshold and the query
        // length: a transformation of the wrong arity reached
        // `apply_spectrum` and panicked there.
        let idx = index(20, 32, 23);
        let q = idx.series(3).unwrap().clone();
        let short = LinearTransform::moving_average(16, 4);
        for mode in [ScanMode::Naive, ScanMode::EarlyAbandon] {
            assert!(matches!(
                idx.scan_range(&q, 3.0, &short, mode),
                Err(Error::TransformArity {
                    expected: 32,
                    got: 16
                })
            ));
        }
        assert!(matches!(
            idx.scan_knn(&q, 3, &short),
            Err(Error::TransformArity { .. })
        ));
        // Safety is the index's condition, but one validation order
        // serves every entry point: a scan rejects what the index would.
        let rect = SimilarityIndex::build(
            IndexConfig {
                space: crate::space::SpaceKind::Rectangular,
                ..IndexConfig::default()
            },
            RandomWalkGenerator::new(23).relation(20, 32),
        )
        .unwrap();
        let complex = LinearTransform::moving_average(32, 4);
        assert!(matches!(
            rect.scan_range(&q, 3.0, &complex, ScanMode::EarlyAbandon),
            Err(Error::UnsafeTransform { .. })
        ));
        assert!(matches!(
            rect.scan_knn(&q, 3, &complex),
            Err(Error::UnsafeTransform { .. })
        ));
    }

    #[test]
    fn scan_knn_gives_up_past_the_kth_without_moving_a_row() {
        // Seven copies of the query tie at distance 0, so a small k cuts
        // the tie: the bounded heap keeps the smallest ids, as sorting
        // every full distance does.
        let mut rel = RandomWalkGenerator::new(25).relation(300, 64);
        let twin = rel[8].clone();
        rel.extend(std::iter::repeat(twin).take(6));
        let idx = SimilarityIndex::build(IndexConfig::default(), rel).unwrap();
        let q = idx.series(8).unwrap().clone();
        for t in [
            LinearTransform::identity(64),
            LinearTransform::moving_average(64, 8),
        ] {
            let refine = idx.bind_query(&q, None, &t).unwrap();
            let mut all: Vec<(u64, usize)> = idx
                .entries()
                .iter()
                .enumerate()
                .map(|(id, s)| (refine.distance(&s.into()).to_bits(), id))
                .collect();
            all.sort_unstable();
            for k in [0usize, 1, 3, 5, 8, 40, 400, usize::MAX] {
                let got: Vec<(u64, usize)> = idx
                    .scan_knn(&q, k, &t)
                    .unwrap()
                    .iter()
                    .map(|m| (m.distance.to_bits(), m.id))
                    .collect();
                assert_eq!(got, all[..k.min(all.len())], "{}, k = {k}", t.name());
            }
        }
    }

    #[test]
    fn scan_knn_ordering() {
        let idx = index(60, 32, 24);
        let q = idx.series(10).unwrap().clone();
        let t = LinearTransform::identity(32);
        let knn = idx.scan_knn(&q, 5, &t).unwrap();
        assert_eq!(knn.len(), 5);
        assert_eq!(knn[0].id, 10, "self is nearest under identity");
        for w in knn.windows(2) {
            assert!(w[0].distance <= w[1].distance);
        }
    }
}
