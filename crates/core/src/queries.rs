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
//! A join is planned and run once per relation, at any shard count: it is
//! never scattered. The scan kernel (`scan_pairs`) compares the relation's
//! records in global-id order; the index kernel (`probe_pairs`) probes
//! every shard's tree for each series. A bare index is a relation of one
//! shard, which is what the methods above pass.

use tsq_rtree::SearchStats;
use tsq_series::distance::{distance_sq_within, limit_sq};

use crate::error::Result;
use crate::features::Normalize;
use crate::index::{Record, Refine, SimilarityIndex};
use crate::records::RecordIo;
use crate::scan::ScanMode;
use crate::shard::Shards;
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
    /// Record-pool traffic (paged storage only).
    pub records: RecordIo,
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

/// The scan-join kernel (Table 1 methods (a)/(b)) over a relation's
/// shards: every record is transformed once, into one flat buffer in
/// global-id order, and every unordered pair `{i, j}` of the relation is
/// compared once, `i < j`, in that order; pairs within the threshold are
/// reported as `(i, j)`. The two modes run the same loop against the same
/// limit; [`ScanMode::Naive`] only tests membership after the full sum.
pub(crate) fn scan_pairs(
    shards: Shards<'_>,
    join: JoinBound<'_>,
    mode: ScanMode,
) -> Result<JoinOutcome> {
    let mut out = JoinOutcome::default();
    // A join's transformation keeps the series length: the bind refuses a
    // warp. Each shard's records are read in id order.
    let width = join.transform.n();
    let mut images = vec![0.0; shards.len() * width];
    for (s, part) in shards.active() {
        let schema = part.config().schema;
        for local in 0..part.len() {
            let record = part.record(local, &mut out.stats.records)?;
            let at = shards.global(s, local) * width;
            let norm = Normalize::of(record.features, schema);
            join.transform.with_image(record.samples(), norm, |image| {
                for (t, slot) in images[at..at + width].iter_mut().enumerate() {
                    *slot = image.at(t);
                }
            });
        }
    }
    let abandon_at = mode.abandon_at(join.limit);
    let row = |id: usize| &images[id * width..(id + 1) * width];
    let n = shards.len();
    for i in 0..n {
        for j in i + 1..n {
            out.stats.exact_checks += 1;
            let sum = distance_sq_within(row(i), row(j), abandon_at);
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
    Ok(out)
}

/// `T(x̂)` of a stored record: its samples normalized as indexed, under
/// the time-domain action every exact check uses, so a pair sums the same
/// terms in every join strategy and in both directions.
fn image(t: &LinearTransform, record: &Record<'_>, schema: crate::FeatureSchema) -> Vec<f64> {
    let norm = Normalize::of(record.features, schema);
    t.act(record.samples(), norm)
}

/// The index-nested-loop join kernel (Table 1 methods (c)/(d)) over a
/// relation's shards: for every series a search rectangle is built around
/// its *transformed* feature point and posed to every shard's on-the-fly
/// transformed index as a range query, and the candidates are refined.
/// Each unordered pair appears twice (once per direction), a series is
/// never paired with itself, and pairs are sorted `(probe, partner)` by
/// global id.
pub(crate) fn probe_pairs(shards: Shards<'_>, join: JoinBound<'_>) -> Result<JoinOutcome> {
    let mut out = JoinOutcome::default();
    let window = QueryWindow::default();
    for (s, part) in shards.active() {
        for local in 0..part.len() {
            let probe = shards.global(s, local);
            let refine = part.probe_refine(local, join, &mut out.stats.records)?;
            // Shards share one configuration, so one rectangle probes all.
            let qrect = part.probe_rect(&refine.query, join.eps, &window);
            for (t, partner) in shards.active() {
                let (mut ids, fstats) = partner.filter_rect(&qrect, join.transform)?;
                ids.sort_unstable();
                out.stats.index.absorb(&fstats);
                out.stats.candidates += ids.len();
                for j in ids {
                    out.stats.exact_checks += 1;
                    let record = partner.record(j, &mut out.stats.records)?;
                    // The probe is its own candidate and passes the check;
                    // that pair is dropped below.
                    match refine.within(&record, ScanMode::EarlyAbandon) {
                        Some(distance) => out.pairs.push(JoinPair {
                            a: probe,
                            b: shards.global(t, j),
                            distance,
                        }),
                        None => out.stats.abandoned += 1,
                    }
                }
            }
        }
    }
    out.pairs.retain(|p| p.a != p.b);
    out.pairs.sort_unstable_by_key(|p| (p.a, p.b));
    Ok(out)
}

impl SimilarityIndex {
    /// The refine of join probe `id`: its transformed indexed coefficients
    /// for the filter, its `T(x̂)` for the exact check, the join's limit
    /// the threshold.
    fn probe_refine<'a>(
        &self,
        id: usize,
        join: JoinBound<'a>,
        io: &mut RecordIo,
    ) -> Result<Refine<'a>> {
        let record = self.record(id, io)?;
        let schema = self.config().schema;
        let qf = record.features.image(join.transform);
        let target = image(join.transform, &record, schema);
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
        scan_pairs(Shards::one(self), self.bind_join(eps, t)?, mode)
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
        probe_pairs(Shards::one(self), self.bind_join(eps, t)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    use crate::error::Error;
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
