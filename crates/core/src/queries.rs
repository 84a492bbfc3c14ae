//! All-pairs (spatial join) queries — the paper's Table 1 experiment.
//!
//! Four strategies, methods (a)–(d) of Section 5:
//!
//! | method | strategy |
//! |--------|----------|
//! | (a) | [`SimilarityIndex::join_scan`] with [`ScanMode::Naive`] — scan all pairs, full distances |
//! | (b) | [`SimilarityIndex::join_scan`] with [`ScanMode::EarlyAbandon`] |
//! | (c) | [`SimilarityIndex::join_index`] with the identity transformation |
//! | (d) | [`SimilarityIndex::join_index`] with the transformation — a range query per sequence against the on-the-fly transformed index |
//!
//! Scan joins report each unordered pair **once**; index joins report each
//! pair **twice** (once per direction), exactly as the paper tabulates
//! (`12` for methods a/b vs `12 x 2 = 24` for method d).
//!
//! The scan and index-nested-loop kernels (`scan_pairs`, `probe_pairs`)
//! are written over a probe side and a partner side. A self-join is the
//! case where both sides are the same index — what the methods above
//! pass — and the cross-shard stage of a sharded join passes two shards.

use tsq_rtree::SearchStats;
use tsq_series::distance::{distance_sq_within, limit_sq};

use crate::error::{Error, Result};
use crate::features::{Features, Normalize};
use crate::index::{Refine, SimilarityIndex, StoredSeries};
use crate::scan::ScanMode;
use crate::space::QueryWindow;
use crate::transform::LinearTransform;

/// One join answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinPair {
    /// First series id.
    pub a: usize,
    /// Second series id.
    pub b: usize,
    /// Exact distance between the transformed representations.
    pub distance: f64,
}

/// Counters for a join run.
#[derive(Debug, Clone, Copy, Default)]
pub struct JoinStats {
    /// Exact distance computations.
    pub exact_checks: usize,
    /// Early-abandoned distance computations.
    pub abandoned: usize,
    /// Index traversal counters summed over sub-queries (zero for scans).
    pub index: SearchStats,
    /// Index-level candidates before exact checking.
    pub candidates: usize,
}

/// Join answer set plus statistics.
#[derive(Debug, Clone, Default)]
pub struct JoinOutcome {
    /// Qualifying pairs.
    pub pairs: Vec<JoinPair>,
    /// Counters.
    pub stats: JoinStats,
}

/// A bound join predicate, `D(T(x), T(y)) <= eps` ([`SimilarityIndex::bind_join`]):
/// `eps` sizes the search rectangles and node-pair bounds, `limit = limit_sq(eps)`
/// is what every exact check of the statement is compared against.
#[derive(Debug, Clone, Copy)]
pub(crate) struct JoinBound<'a> {
    pub eps: f64,
    pub limit: f64,
    pub transform: &'a LinearTransform,
}

/// The scan-join kernel (Table 1 methods (a)/(b)) over a probe side and
/// a partner side: every probe series is compared with every partner
/// series under the transformation, and pairs within the threshold are
/// reported as `(probe id, partner id)`. A self-join is the case where
/// both sides are the same index: each unordered pair is then met once,
/// `a < b`. The two modes run the same loop against the same limit;
/// [`ScanMode::Naive`] only tests membership after the full sum.
pub(crate) fn scan_pairs<'a>(
    probe: &'a SimilarityIndex,
    partner: &'a SimilarityIndex,
    join: JoinBound<'_>,
    mode: ScanMode,
) -> JoinOutcome {
    let own = std::ptr::eq(probe, partner);
    // Transform every record once (the quadratic pair loop dominates).
    let images = |side: &'a SimilarityIndex| -> Vec<Vec<f64>> {
        let schema = side.config().schema;
        side.entries()
            .iter()
            .map(|s| image(join.transform, s, schema))
            .collect()
    };
    let left = images(probe);
    let other = (!own).then(|| images(partner));
    let right = other.as_ref().unwrap_or(&left);
    let abandon_at = mode.abandon_at(join.limit);
    let mut out = JoinOutcome::default();
    for (i, x) in left.iter().enumerate() {
        let first = if own { i + 1 } else { 0 };
        for (j, y) in right.iter().enumerate().skip(first) {
            out.stats.exact_checks += 1;
            let sum = distance_sq_within(x, y, abandon_at);
            out.stats.abandoned += usize::from(sum.is_none());
            if let Some(sum) = sum.filter(|sum| *sum <= join.limit) {
                out.pairs.push(JoinPair {
                    a: i,
                    b: j,
                    distance: sum.sqrt(),
                });
            }
        }
    }
    out
}

/// `T(x̂)` of a stored record: its samples normalized as indexed, under
/// the time-domain action every exact check uses, so a pair sums the same
/// terms in every join strategy and in both directions.
fn image(t: &LinearTransform, stored: &StoredSeries, schema: crate::FeatureSchema) -> Vec<f64> {
    let norm = Normalize::of(&stored.features, schema);
    t.act(stored.series.values(), norm)
}

/// The index-nested-loop join kernel (Table 1 methods (c)/(d)) over a
/// probe side and a partner side: for every probe series a search
/// rectangle is built around its *transformed* feature point and posed
/// to the partner's on-the-fly transformed index as a range query, and
/// the candidates are refined. Pairs are `(probe id, partner id)`, in
/// probe order. A self-join is the case where both sides are the same
/// index: each unordered pair then appears twice (once per direction),
/// and a series is never paired with itself.
pub(crate) fn probe_pairs(
    probe: &SimilarityIndex,
    partner: &SimilarityIndex,
    join: JoinBound<'_>,
) -> Result<JoinOutcome> {
    let mut out = JoinOutcome::default();
    let window = QueryWindow::default();
    for i in 0..probe.len() {
        let refine = probe.probe_refine(i, join)?;
        let qrect = partner.probe_rect(&refine.query, join.eps, &window);
        let (mut ids, fstats) = partner.filter_rect(&qrect, join.transform, false)?;
        ids.sort_unstable();
        out.stats.index.absorb(&fstats);
        out.stats.candidates += ids.len();
        refine_group(partner, &refine, i, &ids, &mut out);
    }
    if std::ptr::eq(probe, partner) {
        out.pairs.retain(|p| p.a != p.b);
    }
    Ok(out)
}

/// The refine step of the index-nested-loop join: every partner of one
/// probe (whose transformed features `refine` is bound to) has its exact
/// distance checked with early abandoning. Every check counts toward
/// `exact_checks`, abandoned checks toward `abandoned`. Under a
/// self-join the probe is its own candidate and passes the check; the
/// caller drops that pair. Callers invoke it per probe, so candidate
/// memory stays bounded by one probe's answer.
fn refine_group(
    partner: &SimilarityIndex,
    refine: &Refine<'_>,
    probe: usize,
    partners: &[usize],
    out: &mut JoinOutcome,
) {
    for &j in partners {
        out.stats.exact_checks += 1;
        match refine.within(&partner.entries()[j], ScanMode::EarlyAbandon) {
            Some(distance) => out.pairs.push(JoinPair {
                a: probe,
                b: j,
                distance,
            }),
            None => out.stats.abandoned += 1,
        }
    }
}

impl SimilarityIndex {
    /// Transformed feature point of a stored series (query side of join
    /// method (d): both the index *and* the search rectangle are
    /// transformed), with the half spectrum a query carries: the series'
    /// own derived by one FFT ([`SimilarityIndex::features`]), then
    /// transformed.
    pub fn transformed_features(&self, id: usize, t: &LinearTransform) -> Result<Features> {
        let f = self.features(id).ok_or(Error::UnknownSeries(id))?;
        Ok(f.image(t))
    }

    /// The refine of join probe `id`: its transformed indexed coefficients
    /// for the filter, its `T(x̂)` for the exact check, the join's limit
    /// the threshold.
    fn probe_refine<'a>(&self, id: usize, join: JoinBound<'a>) -> Result<Refine<'a>> {
        let stored = self.entries().get(id).ok_or(Error::UnknownSeries(id))?;
        let schema = self.config().schema;
        let qf = stored.features.image(join.transform);
        let target = image(join.transform, stored, schema);
        Ok(Refine::new(schema, join.transform, qf, target, join.limit))
    }

    /// Binds a self-join: [`SimilarityIndex::validate`] (no query
    /// series), then the statement's one `limit_sq(eps)`.
    pub(crate) fn bind_join<'a>(&self, eps: f64, t: &'a LinearTransform) -> Result<JoinBound<'a>> {
        self.validate(Some(eps), t, None)?;
        Ok(JoinBound {
            eps,
            limit: limit_sq(eps),
            transform: t,
        })
    }

    /// Table 1 methods (a)/(b): sequential-scan self-join. Every unordered
    /// pair `{i, j}` with `D(T(x_i), T(x_j)) <= eps` is reported once, with
    /// `a < b`.
    ///
    /// # Errors
    /// A ragged relation, a bad threshold, a warping transformation (a
    /// self-join between different-length representations is undefined)
    /// and one of the wrong arity or unsafe for the space are rejected,
    /// in that order — as by every join strategy.
    pub fn join_scan(&self, eps: f64, t: &LinearTransform, mode: ScanMode) -> Result<JoinOutcome> {
        Ok(scan_pairs(self, self, self.bind_join(eps, t)?, mode))
    }

    /// Table 1 methods (c)/(d): index-nested-loop self-join. For every
    /// sequence a search rectangle is built (around its *transformed*
    /// feature point) and posed to the on-the-fly transformed index as a
    /// range query. Pass the identity transformation for method (c).
    ///
    /// Each qualifying unordered pair appears twice (`(i, j)` and
    /// `(j, i)`), matching the paper's `12 x 2 = 24` accounting.
    ///
    /// # Errors
    /// Same failure modes as [`SimilarityIndex::join_scan`].
    pub fn join_index(&self, eps: f64, t: &LinearTransform) -> Result<JoinOutcome> {
        probe_pairs(self, self, self.bind_join(eps, t)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    use crate::index::IndexConfig;
    use crate::space::SpaceKind;
    use tsq_series::generate::{RandomWalkGenerator, StockGenerator};

    fn index(count: usize, len: usize, seed: u64) -> SimilarityIndex {
        let rel = RandomWalkGenerator::new(seed).relation(count, len);
        SimilarityIndex::build(IndexConfig::default(), rel).unwrap()
    }

    fn key_once(pairs: &[JoinPair]) -> Vec<(usize, usize)> {
        let mut v: Vec<(usize, usize)> = pairs.iter().map(|p| (p.a, p.b)).collect();
        v.sort_unstable();
        v
    }

    fn key_undirected(pairs: &[JoinPair]) -> Vec<(usize, usize)> {
        let mut v: Vec<(usize, usize)> =
            pairs.iter().map(|p| (p.a.min(p.b), p.a.max(p.b))).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn scan_modes_agree_on_pairs() {
        let idx = index(40, 32, 31);
        let t = LinearTransform::moving_average(32, 4);
        let a = idx.join_scan(1.5, &t, ScanMode::Naive).unwrap();
        let b = idx.join_scan(1.5, &t, ScanMode::EarlyAbandon).unwrap();
        assert_eq!(key_once(&a.pairs), key_once(&b.pairs));
        assert!(b.stats.abandoned > 0);
    }

    #[test]
    fn index_join_doubles_scan_answer() {
        // The paper's accounting: method (d) reports each pair twice.
        let idx = index(60, 32, 32);
        let t = LinearTransform::moving_average(32, 4);
        let eps = 1.8;
        let scan = idx.join_scan(eps, &t, ScanMode::Naive).unwrap();
        let via_index = idx.join_index(eps, &t).unwrap();
        assert_eq!(via_index.pairs.len(), 2 * scan.pairs.len());
        assert_eq!(key_undirected(&via_index.pairs), key_once(&scan.pairs));
    }

    #[test]
    fn index_join_rectangular_space() {
        let rel = RandomWalkGenerator::new(34).relation(50, 32);
        let cfg = IndexConfig {
            space: SpaceKind::Rectangular,
            ..IndexConfig::default()
        };
        let idx = SimilarityIndex::build(cfg, rel).unwrap();
        let t = LinearTransform::reverse(32);
        let eps = 2.5;
        let a = idx.join_index(eps, &t).unwrap();
        let scan = idx.join_scan(eps, &t, ScanMode::EarlyAbandon).unwrap();
        assert!(!scan.pairs.is_empty());
        assert_eq!(a.pairs.len(), 2 * scan.pairs.len());
        assert_eq!(key_undirected(&a.pairs), key_once(&scan.pairs));
    }

    #[test]
    fn identity_join_is_method_c() {
        // Method (c) finds *untransformed* close pairs — typically fewer
        // than the smoothed (d) answer on stock-like data.
        let rel = StockGenerator::new(35).relation(80, 64);
        let idx = SimilarityIndex::build(IndexConfig::default(), rel).unwrap();
        let eps = 2.0;
        let c = idx.join_index(eps, &LinearTransform::identity(64)).unwrap();
        let d = idx
            .join_index(eps, &LinearTransform::moving_average(64, 20))
            .unwrap();
        assert!(
            d.pairs.len() >= c.pairs.len(),
            "smoothing admits at least as many pairs ({} vs {})",
            d.pairs.len(),
            c.pairs.len()
        );
    }

    #[test]
    fn a_pair_has_one_distance_in_every_strategy_and_direction() {
        // One function computes `T(x̂)` on the stored and the probe side,
        // and `(a − b)²` is `(b − a)²` bit for bit.
        let idx = index(60, 32, 39);
        for t in [
            LinearTransform::identity(32),
            LinearTransform::moving_average(32, 4),
            LinearTransform::moving_average(32, 3)
                .then(&LinearTransform::reverse(32))
                .unwrap(),
        ] {
            let eps = 2.5;
            let bits = |pairs: &[JoinPair]| -> HashMap<(usize, usize), u64> {
                pairs
                    .iter()
                    .map(|p| ((p.a, p.b), p.distance.to_bits()))
                    .collect()
            };
            let scan = bits(&idx.join_scan(eps, &t, ScanMode::Naive).unwrap().pairs);
            let index = bits(&idx.join_index(eps, &t).unwrap().pairs);
            assert!(!scan.is_empty(), "{}", t.name());
            assert_eq!(index.len(), 2 * scan.len(), "{}", t.name());
            for (&(a, b), d) in &scan {
                assert_eq!(index.get(&(a, b)), Some(d), "{}: ({a}, {b})", t.name());
                assert_eq!(index.get(&(b, a)), Some(d), "{}: ({b}, {a})", t.name());
            }
        }
    }

    #[test]
    fn warp_join_rejected() {
        let idx = index(10, 16, 36);
        let t = LinearTransform::time_warp(16, 2);
        assert!(matches!(
            idx.join_scan(1.0, &t, ScanMode::Naive),
            Err(Error::Unsupported(_))
        ));
        assert!(matches!(
            idx.join_index(1.0, &t),
            Err(Error::Unsupported(_))
        ));
    }

    #[test]
    fn ragged_join_rejected() {
        let mut idx = index(10, 32, 37);
        idx.push_series_batch(vec![RandomWalkGenerator::new(38).series(16)])
            .unwrap();
        let t = LinearTransform::identity(32);
        for result in [
            idx.join_scan(1.0, &t, ScanMode::Naive).map(|_| ()),
            idx.join_index(1.0, &t).map(|_| ()),
        ] {
            assert!(matches!(result, Err(Error::Ragged { min: 16, max: 32 })));
        }
    }

    #[test]
    fn empty_join() {
        let idx = SimilarityIndex::build(IndexConfig::default(), Vec::new()).unwrap();
        let t = LinearTransform::identity(0);
        let out = idx.join_scan(1.0, &t, ScanMode::Naive).unwrap();
        assert!(out.pairs.is_empty());
    }
}
