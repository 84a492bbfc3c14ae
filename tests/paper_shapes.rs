//! The paper's Section 5, judged the way it judges itself: by shape.
//! Each figure and Table 1 is one test, and each states its claim as an
//! inequality over counts — R\*-tree nodes visited (the paper's disk
//! accesses), candidates and records read — never over wall time.
//!
//! Figures 10–12 pose the paper's smoothed query: the transformation
//! acts on both sides, so the query point is the image of a stored
//! series' features under `T` (join method (d)'s probe), and the filter
//! is the transformed traversal a served range query runs.

use std::sync::OnceLock;

use tsq_core::{
    Features, IndexConfig, JoinStats, LinearTransform, QueryWindow, ScanMode, SimilarityIndex,
    SpaceKind,
};
use tsq_series::generate::{RandomWalkGenerator, StockGenerator};

/// Figures 8 and 10 x-axis (1000 random walks).
const LENGTHS: [usize; 4] = [64, 128, 256, 512];
/// Figures 9 and 11 x-axis (random walks of length 128).
const COUNTS: [usize; 4] = [500, 1000, 2000, 4000];
/// Queries per point: stored series spread evenly over the relation.
const QUERIES: usize = 20;
/// Normal-form threshold of Figures 8–11: small answer sets on walks.
const EPS: f64 = 1.0;

/// The random-walk relation of one figure point, built once per
/// `(count, len)` and shared by the figures that plot it.
fn walks(count: usize, len: usize) -> &'static SimilarityIndex {
    static BUILT: [OnceLock<SimilarityIndex>; 7] = [const { OnceLock::new() }; 7];
    let slot = match (count, len) {
        (1000, 64) => 0,
        (1000, 128) => 1,
        (1000, 256) => 2,
        (1000, 512) => 3,
        (500, 128) => 4,
        (2000, 128) => 5,
        (4000, 128) => 6,
        _ => unreachable!("no figure plots {count} walks of length {len}"),
    };
    BUILT[slot].get_or_init(|| {
        let relation = RandomWalkGenerator::new(8_000 + len as u64).relation(count, len);
        SimilarityIndex::build(IndexConfig::default(), relation).expect("index build")
    })
}

/// The stand-in for the paper's stock relation: 1067 series of length
/// 128 (Figure 12 and Table 1).
fn stocks() -> &'static SimilarityIndex {
    static BUILT: OnceLock<SimilarityIndex> = OnceLock::new();
    BUILT.get_or_init(|| {
        let mut gen = StockGenerator::new(19_970_525);
        gen.inverse_fraction = 0.1;
        SimilarityIndex::build(IndexConfig::default(), gen.relation(1067, 128))
            .expect("index build")
    })
}

/// The query ids of a relation of `count` series.
fn queries(count: usize) -> impl Iterator<Item = usize> {
    (0..QUERIES).map(move |i| i * (count / QUERIES))
}

/// The transformed traversal (Algorithm 2's filter) of the search
/// rectangle around `qf` at `eps`: nodes visited and candidate ids.
fn filter(
    idx: &SimilarityIndex,
    qf: &Features,
    eps: f64,
    t: &LinearTransform,
) -> (u64, Vec<usize>) {
    let schema = idx.config().schema;
    let rect = SpaceKind::Polar.search_rect(qf, schema, eps, &QueryWindow::default());
    let mut ids = Vec::new();
    let stats = idx.tree().search_with(
        |r| SpaceKind::Polar.transformed_intersects(r, t, schema, &rect),
        |_, &id| ids.push(id),
    );
    (stats.nodes_visited, ids)
}

/// Figures 8–9: the transformed traversal under `T = identity` visits
/// exactly the nodes, and yields exactly the ids, of the plain one.
fn assert_identity_costs_nothing(idx: &SimilarityIndex, len: usize) {
    let identity = LinearTransform::identity(len);
    let schema = idx.config().schema;
    for id in queries(idx.len()) {
        let qf = idx.features(id).expect("stored series");
        let rect = SpaceKind::Polar.search_rect(&qf, schema, EPS, &QueryWindow::default());
        let mut plain_ids = Vec::new();
        let plain = idx.tree().search(&rect, |_, &id| plain_ids.push(id));
        let (transformed, ids) = filter(idx, &qf, EPS, &identity);
        assert_eq!(transformed, plain.nodes_visited, "length {len}, query {id}");
        assert_eq!(ids, plain_ids, "length {len}, query {id}");
    }
}

/// Figures 10–11 at one point: what the index reads (nodes plus
/// candidates) and what the early-abandon scan reads (records), summed
/// over the point's queries under `mavg(20)`. The candidates hold every
/// answer the scan finds (Lemma 1).
fn index_and_scan_reads(idx: &SimilarityIndex, len: usize) -> (u64, u64) {
    let t = LinearTransform::moving_average(len, 20);
    let (mut index, mut scan) = (0, 0);
    for id in queries(idx.len()) {
        let qf = idx.features(id).expect("stored series").image(&t);
        let (nodes, candidates) = filter(idx, &qf, EPS, &t);
        let refine = idx.refine(qf, Some(EPS), &t).expect("query fits");
        let (answers, stats) = idx
            .scan_range_features(&refine, &QueryWindow::default(), ScanMode::EarlyAbandon)
            .expect("scan");
        assert!(
            answers.iter().all(|m| candidates.contains(&m.id)),
            "query {id}: a false dismissal"
        );
        index += nodes + candidates.len() as u64;
        scan += stats.scanned as u64;
    }
    (index, scan)
}

/// Figures 10–11's claim over one axis: the index reads at most a fifth
/// of what the scan reads at every point, and its share does not grow
/// from the first point to the last. (At length 64, where `mavg(20)`
/// spans a third of the series, the share is 10–15 % over seeds; from
/// length 128 on it stays under 3 %.)
fn assert_index_reads_a_shrinking_share(axis: &str, points: &[(usize, (u64, u64))]) {
    for &(x, (index, scan)) in points {
        assert!(
            5 * index <= scan,
            "{axis} {x}: index reads {index} of the scan's {scan}"
        );
    }
    let share = |(index, scan): (u64, u64)| index as f64 / scan as f64;
    let (first, last) = (points[0], points[points.len() - 1]);
    assert!(
        share(last.1) <= share(first.1),
        "{axis} {} share {} above {axis} {} share {}",
        last.0,
        share(last.1),
        first.0,
        share(first.1)
    );
}

#[test]
fn fig8_identity_transform_visits_the_plain_nodes_at_every_length() {
    for len in LENGTHS {
        assert_identity_costs_nothing(walks(1000, len), len);
    }
}

#[test]
fn fig9_identity_transform_visits_the_plain_nodes_at_every_count() {
    for count in COUNTS {
        assert_identity_costs_nothing(walks(count, 128), 128);
    }
}

#[test]
fn fig10_index_reads_a_shrinking_share_of_the_scan_as_length_grows() {
    let points: Vec<_> = LENGTHS
        .iter()
        .map(|&len| (len, index_and_scan_reads(walks(1000, len), len)))
        .collect();
    assert_index_reads_a_shrinking_share("length", &points);
}

#[test]
fn fig11_index_reads_a_shrinking_share_of_the_scan_as_count_grows() {
    let points: Vec<_> = COUNTS
        .iter()
        .map(|&count| (count, index_and_scan_reads(walks(count, 128), 128)))
        .collect();
    assert_index_reads_a_shrinking_share("count", &points);
}

#[test]
fn fig12_index_work_grows_with_the_answer_set() {
    // The paper varies the threshold "so that the query gave us different
    // numbers of time series in the answer set": each threshold here sits
    // midway between the k-th and (k+1)-th smallest distance.
    let idx = stocks();
    let t = LinearTransform::moving_average(128, 20);
    let qf = idx.features(17).expect("stored series").image(&t);
    let unbounded = idx.refine(qf.clone(), None, &t).expect("query fits");
    let mut dists: Vec<f64> = idx
        .entries()
        .iter()
        .map(|stored| unbounded.distance(&stored.into()))
        .collect();
    dists.sort_by(f64::total_cmp);
    let mut work = Vec::new();
    for k in [1, 10, 25, 50, 100] {
        let eps = 0.5 * (dists[k - 1] + dists[k]);
        let refine = idx.refine(qf.clone(), Some(eps), &t).expect("query fits");
        let (answers, _) = idx
            .scan_range_features(&refine, &QueryWindow::default(), ScanMode::EarlyAbandon)
            .expect("scan");
        assert_eq!(answers.len(), k, "threshold {eps}");
        let (nodes, candidates) = filter(idx, &qf, eps, &t);
        assert!(
            answers.iter().all(|m| candidates.contains(&m.id)),
            "{k} answers: a false dismissal"
        );
        work.push((k, nodes, candidates.len()));
    }
    for pair in work.windows(2) {
        let ((k0, n0, c0), (k1, n1, c1)) = (pair[0], pair[1]);
        assert!(
            n0 <= n1 && c0 <= c1,
            "{k0} answers: {n0} nodes, {c0} candidates; {k1}: {n1}, {c1}"
        );
    }
    let ((_, n0, c0), (_, n1, c1)) = (work[0], work[work.len() - 1]);
    assert!(n0 < n1 && c0 < c1, "{work:?}");
}

#[test]
fn table1_join_methods_have_the_papers_counts() {
    // The threshold at which the smoothed self-join finds the paper's 12
    // pairs on the stand-in relation.
    const EPS: f64 = 9.0 / 256.0;
    let idx = stocks();
    let n = idx.len();
    let t = LinearTransform::moving_average(128, 20);
    let a = idx.join_scan(EPS, &t, ScanMode::Naive).expect("join");
    let b = idx
        .join_scan(EPS, &t, ScanMode::EarlyAbandon)
        .expect("join");
    let c = idx
        .join_index(EPS, &LinearTransform::identity(128))
        .expect("join");
    let d = idx.join_index(EPS, &t).expect("join");

    // Both scans find 12 pairs and read every pair of records.
    assert_eq!((a.pairs.len(), b.pairs.len()), (12, 12));
    assert_eq!(a.stats.exact_checks, n * (n - 1) / 2);
    assert_eq!(b.stats.exact_checks, a.stats.exact_checks);

    // The index methods report each pair from both sides; without the
    // transformation (c) fewer sequences are close than with it (d).
    assert_eq!((c.pairs.len(), d.pairs.len()), (6, 24));

    // The paper's bar: the index joins beat the scan by an order of
    // magnitude in records read.
    let reads = |s: &JoinStats| s.index.nodes_visited as usize + s.candidates;
    assert!(
        reads(&c.stats) <= reads(&d.stats),
        "c {:?} d {:?}",
        c.stats,
        d.stats
    );
    assert!(
        10 * reads(&d.stats) <= a.stats.exact_checks,
        "d {:?}",
        d.stats
    );
}
