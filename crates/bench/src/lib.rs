//! Workloads and experiment runners for the paper's Section 5.
//!
//! Every figure and table of Section 5 has a runner here, and the
//! `reproduce` binary is the one thing that calls them: it prints the
//! paper-shaped series. (Performance of the system itself is measured by
//! the repo benchmark under `bench/`, not here.)
//!
//! Hardware note: the paper ran on 1997 disk-resident infrastructure, so
//! absolute milliseconds are not comparable. Each runner therefore reports
//! both wall-clock time and simulated disk accesses (R\*-tree node visits),
//! and the results are judged by *shape*: who wins, by what factor, where
//! the crossover sits. `tests/table1_shape.rs` asserts Table 1's shape on
//! the deterministic columns; no wall time is asserted anywhere.

use std::time::Instant;

use tsq_core::{
    FeatureSchema, IndexConfig, LinearTransform, QueryWindow, ScanMode, SimilarityIndex, SpaceKind,
};
use tsq_rtree::RTreeConfig;
use tsq_series::generate::{RandomWalkGenerator, StockGenerator};
use tsq_series::TimeSeries;

/// Deterministic random-walk relation (the paper's synthetic workload).
pub fn random_walks(count: usize, len: usize, seed: u64) -> Vec<TimeSeries> {
    RandomWalkGenerator::new(seed).relation(count, len)
}

/// The stand-in for the paper's stock relation: 1067 series of length 128
/// (see DESIGN.md §5 for the substitution rationale).
pub fn stock_relation() -> Vec<TimeSeries> {
    let mut gen = StockGenerator::new(19_970_525); // SIGMOD '97 week
    gen.inverse_fraction = 0.1;
    gen.relation(1067, 128)
}

/// Builds the default paper-configuration index (6-d polar normal-form
/// schema, k = 2).
pub fn build_index(relation: Vec<TimeSeries>) -> SimilarityIndex {
    SimilarityIndex::build(IndexConfig::default(), relation).expect("index build")
}

/// Measures `f` over `iters` runs, returning mean milliseconds.
pub fn time_ms<F: FnMut()>(iters: usize, mut f: F) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() * 1e3 / iters as f64
}

/// One measured point of an experiment curve.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// The x-axis value (sequence length, relation size, answer size...).
    pub x: f64,
    /// Mean per-query time with the transformed index path (ms).
    pub with_transform_ms: f64,
    /// Mean per-query time of the comparison strategy (ms).
    pub baseline_ms: f64,
    /// Node accesses of the transformed path.
    pub with_transform_accesses: u64,
    /// Node accesses (or sequences scanned) of the baseline.
    pub baseline_accesses: u64,
    /// Answer-set size.
    pub answers: usize,
}

/// Number of query repetitions per measurement point.
const QUERY_REPEATS: usize = 20;

/// Figure 8 / Figure 10 x-axis.
pub const LENGTHS: &[usize] = &[64, 128, 256, 512, 1024];
/// Figure 9 / Figure 11 x-axis.
pub const CARDINALITIES: &[usize] = &[500, 1000, 2000, 4000, 8000, 12000];

fn mean_query_radius() -> f64 {
    // Normal-form distance threshold giving small (paper-like) answer sets
    // on random walks.
    1.0
}

/// Figure 8/9 point: identity-transformed index traversal vs plain index
/// traversal, same query.
pub fn fig8_point(count: usize, len: usize, seed: u64) -> Point {
    let idx = build_index(random_walks(count, len, seed));
    let identity = LinearTransform::identity(len);
    let eps = mean_query_radius();
    let window = QueryWindow::default();
    let queries: Vec<TimeSeries> = (0..QUERY_REPEATS)
        .map(|i| {
            idx.series(i * (count / QUERY_REPEATS).max(1) % count)
                .unwrap()
                .clone()
        })
        .collect();

    // Warm-up: touch the whole code path once so lazy page faults and
    // allocator growth do not land in the first timed point.
    let _ = idx.range_query_forced(&queries[0], eps, &identity, &window);
    let _ = idx.range_query(&queries[0], eps, &identity, &window);

    let mut accesses_t = 0u64;
    let mut accesses_p = 0u64;
    let mut answers = 0usize;
    // Transformed path (Algorithm 2 with T = identity, vector ops forced).
    let with_ms = time_ms(1, || {
        for q in &queries {
            let (m, s) = idx.range_query_forced(q, eps, &identity, &window).unwrap();
            accesses_t += s.index.nodes_visited;
            answers += m.len();
        }
    }) / QUERY_REPEATS as f64;
    // Plain path (ordinary range query on the same index).
    let plain_ms = time_ms(1, || {
        for q in &queries {
            let (_, s) = idx.range_query(q, eps, &identity, &window).unwrap();
            accesses_p += s.index.nodes_visited;
        }
    }) / QUERY_REPEATS as f64;
    Point {
        x: len as f64,
        with_transform_ms: with_ms,
        baseline_ms: plain_ms,
        with_transform_accesses: accesses_t / QUERY_REPEATS as u64,
        baseline_accesses: accesses_p / QUERY_REPEATS as u64,
        answers: answers / QUERY_REPEATS,
    }
}

/// Figure 9 point (same comparison, x = relation cardinality).
pub fn fig9_point(count: usize, seed: u64) -> Point {
    let mut p = fig8_point(count, 128, seed);
    p.x = count as f64;
    p
}

/// Figure 10/11 point: transformed index vs early-abandoning
/// frequency-domain sequential scan, both under `T_mavg20`.
pub fn fig10_point(count: usize, len: usize, seed: u64) -> Point {
    let idx = build_index(random_walks(count, len, seed));
    let t = LinearTransform::moving_average(len, 20.min(len / 2).max(2));
    let eps = mean_query_radius();
    let window = QueryWindow::default();
    // Both sides are smoothed (the paper's similarity semantics: compare
    // D(T(x), T(q)) as in Examples 1.1/2.1 and Table 1); the query features
    // are the transformed features of a stored series.
    let qfs: Vec<tsq_core::Features> = (0..QUERY_REPEATS)
        .map(|i| {
            idx.transformed_features(i * (count / QUERY_REPEATS).max(1) % count, &t)
                .unwrap()
        })
        .collect();
    let mut accesses = 0u64;
    let mut answers = 0usize;
    let index_ms = time_ms(1, || {
        for qf in &qfs {
            let (m, s) = idx.range_query_features(qf, eps, &t, &window).unwrap();
            accesses += s.index.nodes_visited;
            answers += m.len();
        }
    }) / QUERY_REPEATS as f64;
    let bound: Vec<tsq_core::Refine<'_>> = qfs
        .iter()
        .map(|qf| idx.refine(qf.clone(), Some(eps), &t).unwrap())
        .collect();
    let mut scanned = 0u64;
    let scan_ms = time_ms(1, || {
        for refine in &bound {
            let (_, s) = idx.scan_range_features(refine, &window, ScanMode::EarlyAbandon);
            scanned += s.scanned as u64;
        }
    }) / QUERY_REPEATS as f64;
    Point {
        x: len as f64,
        with_transform_ms: index_ms,
        baseline_ms: scan_ms,
        with_transform_accesses: accesses / QUERY_REPEATS as u64,
        baseline_accesses: scanned / QUERY_REPEATS as u64,
        answers: answers / QUERY_REPEATS,
    }
}

/// Figure 11 point (x = relation cardinality).
pub fn fig11_point(count: usize, seed: u64) -> Point {
    let mut p = fig10_point(count, 128, seed);
    p.x = count as f64;
    p
}

/// Figure 12: time vs answer-set size on the 1067-stock relation.
///
/// The paper varies the threshold "so that the query gave us different
/// numbers of time series in the answer set"; this runner derives the
/// thresholds from the sorted distance distribution so the measured points
/// land on the requested answer sizes exactly.
pub fn fig12_curve(targets: &[usize]) -> Vec<Point> {
    let idx = build_index(stock_relation());
    let t = LinearTransform::moving_average(128, 20);
    let window = QueryWindow::default();
    // Both sides smoothed (Table 1 semantics): the query point is the
    // transformed feature vector of stored series 17.
    let qf = idx.transformed_features(17, &t).expect("features");
    let unbounded = idx.refine(qf.clone(), None, &t).expect("features fit");
    let mut dists: Vec<f64> = idx
        .entries()
        .iter()
        .map(|stored| unbounded.distance(stored))
        .collect();
    dists.sort_by(f64::total_cmp);
    let thresholds: Vec<f64> = targets
        .iter()
        .map(|&k| {
            if k == 0 {
                (dists[0] * 0.5).max(1e-6)
            } else if k >= dists.len() {
                dists[dists.len() - 1] + 1.0
            } else {
                0.5 * (dists[k - 1] + dists[k])
            }
        })
        .collect();
    let mut out = Vec::with_capacity(thresholds.len());
    for &eps in &thresholds {
        let mut answers = 0usize;
        let mut accesses = 0u64;
        let index_ms = time_ms(5, || {
            let (m, s) = idx.range_query_features(&qf, eps, &t, &window).unwrap();
            answers = m.len();
            accesses = s.index.nodes_visited;
        });
        let refine = idx.refine(qf.clone(), Some(eps), &t).expect("features fit");
        let scan_ms = time_ms(5, || {
            let _ = idx.scan_range_features(&refine, &window, ScanMode::EarlyAbandon);
        });
        out.push(Point {
            x: answers as f64,
            with_transform_ms: index_ms,
            baseline_ms: scan_ms,
            with_transform_accesses: accesses,
            baseline_accesses: idx.len() as u64,
            answers,
        });
    }
    out
}

/// Table 1 rows.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Method label (a, b, c, d).
    pub method: &'static str,
    /// Description.
    pub description: &'static str,
    /// Wall time, milliseconds.
    pub time_ms: f64,
    /// Answer-set size as the paper counts it.
    pub answers: usize,
    /// Simulated I/O: exact distance computations for scans; R-tree node
    /// accesses plus candidate record reads for index methods. On 1997
    /// disk-resident hardware this column, not wall-clock, dominated.
    pub simulated_io: u64,
}

/// Finds a threshold whose method-(a) self-join answer is close to
/// `target` pairs, by bisection on the pair count (monotone in eps).
pub fn calibrate_join_eps(idx: &SimilarityIndex, t: &LinearTransform, target: usize) -> f64 {
    let (mut lo, mut hi) = (0.0f64, 4.0f64);
    for _ in 0..24 {
        let mid = 0.5 * (lo + hi);
        let n = idx
            .join_scan(mid, t, ScanMode::EarlyAbandon)
            .expect("join")
            .pairs
            .len();
        if n < target {
            lo = mid;
        } else if n > target {
            hi = mid;
        } else {
            return mid;
        }
    }
    0.5 * (lo + hi)
}

/// Runs the Table 1 experiment on the stand-in stock relation.
pub fn table1(eps: f64) -> Vec<Table1Row> {
    let idx = build_index(stock_relation());
    let t = LinearTransform::moving_average(128, 20);
    let identity = LinearTransform::identity(128);

    let start = Instant::now();
    let a = idx.join_scan(eps, &t, ScanMode::Naive).unwrap();
    let a_ms = start.elapsed().as_secs_f64() * 1e3;

    let start = Instant::now();
    let b = idx.join_scan(eps, &t, ScanMode::EarlyAbandon).unwrap();
    let b_ms = start.elapsed().as_secs_f64() * 1e3;

    let start = Instant::now();
    let c = idx.join_index(eps, &identity).unwrap();
    let c_ms = start.elapsed().as_secs_f64() * 1e3;

    let start = Instant::now();
    let d = idx.join_index(eps, &t).unwrap();
    let d_ms = start.elapsed().as_secs_f64() * 1e3;

    vec![
        Table1Row {
            method: "a",
            description: "sequential scan, full distances, with T_mavg20",
            time_ms: a_ms,
            answers: a.pairs.len(),
            simulated_io: a.stats.exact_checks as u64,
        },
        Table1Row {
            method: "b",
            description: "sequential scan, early abandoning, with T_mavg20",
            time_ms: b_ms,
            answers: b.pairs.len(),
            simulated_io: b.stats.exact_checks as u64,
        },
        Table1Row {
            method: "c",
            description: "index join (range query per sequence), no transformation",
            time_ms: c_ms,
            answers: c.pairs.len(),
            simulated_io: c.stats.index.nodes_visited + c.stats.candidates as u64,
        },
        Table1Row {
            method: "d",
            description: "index join with T_mavg20 applied to index and search rectangles",
            time_ms: d_ms,
            answers: d.pairs.len(),
            simulated_io: d.stats.index.nodes_visited + d.stats.candidates as u64,
        },
    ]
}

/// Ablation: index filter power vs cut-off `k`.
#[derive(Debug, Clone, Copy)]
pub struct KSweepPoint {
    /// Number of indexed coefficients.
    pub k: usize,
    /// Mean query time (ms).
    pub query_ms: f64,
    /// Mean candidates per query.
    pub candidates: f64,
    /// Mean false hits per query.
    pub false_hits: f64,
}

/// Runs the k-sweep ablation on the stock relation.
pub fn k_sweep(ks: &[usize]) -> Vec<KSweepPoint> {
    let relation = stock_relation();
    let t = LinearTransform::moving_average(128, 20);
    let window = QueryWindow::default();
    let mut out = Vec::new();
    for &k in ks {
        let cfg = IndexConfig {
            schema: FeatureSchema::NormalForm { k },
            ..IndexConfig::default()
        };
        let idx = SimilarityIndex::build(cfg, relation.clone()).unwrap();
        let mut cand = 0usize;
        let mut fh = 0usize;
        let queries: Vec<TimeSeries> = (0..QUERY_REPEATS)
            .map(|i| idx.series(i * 50).unwrap().clone())
            .collect();
        let ms = time_ms(1, || {
            for q in &queries {
                let (_, s) = idx.range_query(q, 1.5, &t, &window).unwrap();
                cand += s.candidates;
                fh += s.false_hits;
            }
        }) / QUERY_REPEATS as f64;
        out.push(KSweepPoint {
            k,
            query_ms: ms,
            candidates: cand as f64 / QUERY_REPEATS as f64,
            false_hits: fh as f64 / QUERY_REPEATS as f64,
        });
    }
    out
}

/// Ablation: polar vs rectangular space (with a transformation legal in
/// both: `T_rev`). Returns (polar ms, rect ms, polar accesses, rect
/// accesses).
pub fn space_ablation() -> (f64, f64, u64, u64) {
    let relation = stock_relation();
    let t = LinearTransform::reverse(128);
    let window = QueryWindow::default();
    let polar = SimilarityIndex::build(IndexConfig::default(), relation.clone()).unwrap();
    let rect = SimilarityIndex::build(
        IndexConfig {
            space: SpaceKind::Rectangular,
            ..IndexConfig::default()
        },
        relation,
    )
    .unwrap();
    let q = polar.series(3).unwrap().clone();
    let mut acc_p = 0;
    let mut acc_r = 0;
    let p_ms = time_ms(QUERY_REPEATS, || {
        let (_, s) = polar.range_query(&q, 4.0, &t, &window).unwrap();
        acc_p = s.index.nodes_visited;
    });
    let r_ms = time_ms(QUERY_REPEATS, || {
        let (_, s) = rect.range_query(&q, 4.0, &t, &window).unwrap();
        acc_r = s.index.nodes_visited;
    });
    (p_ms, r_ms, acc_p, acc_r)
}

/// Ablation: STR bulk load vs repeated insertion, and forced reinsert
/// on/off. Returns (bulk ms, incremental ms, incremental-no-reinsert ms).
pub fn build_ablation() -> (f64, f64, f64) {
    let relation = stock_relation();
    let bulk = time_ms(3, || {
        let _ = SimilarityIndex::build(IndexConfig::default(), relation.clone()).unwrap();
    });
    let incr = time_ms(3, || {
        let _ = SimilarityIndex::build(
            IndexConfig {
                bulk_load: false,
                ..IndexConfig::default()
            },
            relation.clone(),
        )
        .unwrap();
    });
    let no_reinsert = time_ms(3, || {
        let _ = SimilarityIndex::build(
            IndexConfig {
                bulk_load: false,
                rtree: RTreeConfig::default().without_reinsert(),
                ..IndexConfig::default()
            },
            relation.clone(),
        )
        .unwrap();
    });
    (bulk, incr, no_reinsert)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_deterministic() {
        assert_eq!(random_walks(5, 16, 1), random_walks(5, 16, 1));
        let s = stock_relation();
        assert_eq!(s.len(), 1067);
        assert!(s.iter().all(|x| x.len() == 128));
    }

    #[test]
    fn fig8_point_runs() {
        let p = fig8_point(100, 64, 9);
        assert!(p.with_transform_ms >= 0.0 && p.baseline_ms >= 0.0);
        assert!(p.with_transform_accesses > 0);
    }

    #[test]
    fn calibration_hits_target_roughly() {
        let idx = build_index(stock_relation()[..300].to_vec());
        let t = LinearTransform::moving_average(128, 20);
        let eps = calibrate_join_eps(&idx, &t, 12);
        let n = idx
            .join_scan(eps, &t, ScanMode::EarlyAbandon)
            .unwrap()
            .pairs
            .len();
        assert!(
            (4..=40).contains(&n),
            "calibrated to {n} pairs at eps {eps}"
        );
    }
}
