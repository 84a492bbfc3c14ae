//! Oracle suite for the subsequence ST-index: on randomized relations
//! (varied series lengths, seeds and window sizes), the index answers must
//! equal the naive sliding-scan ground truth **exactly** — Lemma 1's
//! no-false-dismissal guarantee restated for subsequence queries.
//!
//! Two independent oracles cross-check every configuration:
//! - `subseq_range` vs. a naive full-distance sliding scan (match sets are
//!   compared as exact `(series, offset)` sets, plus distances);
//! - `subseq_knn` vs. a brute-force scan over every window (distances must
//!   agree to 1e-9; ids may differ only under exact ties).

//!
//! A third block pins the ST-index's lifecycle inside a catalog: it
//! follows its relation through `APPEND`, `SHARD`, `save` / `open` and
//! `register`, and one index at the relation's base window answers every
//! longer statement by PrefixSearch, with the sliding scan's rows.
//!
//! A fourth walks ±4 ulps around reported distances after `APPEND` chains
//! that cross the sliding DFT's re-anchors: Lemma 1 for subsequences at the
//! boundary, through a catalog at 1 and 4 shards, at the base window and
//! past it.

use tsq_core::{ScanMode, SeriesRelation, SubseqConfig, SubseqIndex, SubseqMatch};
use tsq_lang::{parse, Catalog, Query, Row, Source};
use tsq_series::generate::{RandomWalkGenerator, StockGenerator};
use tsq_series::TimeSeries;

/// A relation of random walks with deliberately varied lengths.
fn varied_relation(seed: u64, count: usize, base_len: usize) -> Vec<TimeSeries> {
    let mut g = RandomWalkGenerator::new(seed);
    (0..count)
        .map(|i| g.series(base_len + (i * 13) % (base_len / 2 + 1)))
        .collect()
}

/// A query window sliced out of a stored series, perturbed so it is not an
/// exact resident (exercises near-boundary distances).
fn probe(series: &TimeSeries, start: usize, window: usize, jitter: f64) -> TimeSeries {
    TimeSeries::new(
        series.values()[start..start + window]
            .iter()
            .enumerate()
            .map(|(i, v)| v + jitter * ((i as f64 * 0.9).sin()))
            .collect(),
    )
}

fn assert_range_matches(idx: &SubseqIndex, q: &TimeSeries, eps: f64, label: &str) {
    let (indexed, stats) = idx.subseq_range(q, eps).unwrap();
    let (scan, scan_stats) = idx.scan_subseq_range(q, eps, ScanMode::Naive).unwrap();
    assert_eq!(
        indexed, scan,
        "{label}: index and naive sliding scan disagree at eps {eps}"
    );
    // The scan always pays for every window; the index never pays more.
    assert_eq!(scan_stats.windows, idx.windows_total());
    assert!(
        stats.candidates <= idx.windows_total(),
        "{label}: candidates {} > windows {}",
        stats.candidates,
        idx.windows_total()
    );
}

fn assert_knn_matches(idx: &SubseqIndex, q: &TimeSeries, k: usize, label: &str) {
    let (got, _) = idx.subseq_knn(q, k).unwrap();
    let want = idx.scan_subseq_knn(q, k).unwrap();
    assert_eq!(got.len(), want.len(), "{label}: k {k}");
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert!(
            (g.distance - w.distance).abs() < 1e-9,
            "{label}: k {k}, rank {i}: {} vs {}",
            g.distance,
            w.distance
        );
    }
}

#[test]
fn range_oracle_across_seeds_windows_and_thresholds() {
    for seed in [1u64, 2, 3] {
        for window in [4usize, 9, 16, 31] {
            let rel = varied_relation(seed * 100, 10, 48);
            let idx = SubseqIndex::build(SubseqConfig::new(window), rel.clone()).unwrap();
            for (qid, start, jitter) in [(0usize, 0usize, 0.0), (3, 5, 0.3), (7, 11, 1.5)] {
                let q = probe(&rel[qid], start, window, jitter);
                for eps in [0.0, 0.25, 1.0, 4.0, 16.0, 1e6] {
                    assert_range_matches(
                        &idx,
                        &q,
                        eps,
                        &format!("seed {seed}, w {window}, q ({qid},{start},{jitter})"),
                    );
                }
            }
        }
    }
}

#[test]
fn range_oracle_matches_early_abandoning_scan_too() {
    let rel = varied_relation(42, 12, 64);
    let idx = SubseqIndex::build(SubseqConfig::new(12), rel.clone()).unwrap();
    let q = probe(&rel[5], 20, 12, 0.7);
    for eps in [0.5, 2.0, 8.0] {
        let (naive, _) = idx.scan_subseq_range(&q, eps, ScanMode::Naive).unwrap();
        let (ea, ea_stats) = idx
            .scan_subseq_range(&q, eps, ScanMode::EarlyAbandon)
            .unwrap();
        assert_eq!(naive, ea, "scan modes disagree at eps {eps}");
        assert_eq!(ea_stats.windows, idx.windows_total());
        let (indexed, _) = idx.subseq_range(&q, eps).unwrap();
        assert_eq!(indexed, naive);
    }
}

#[test]
fn knn_oracle_across_seeds_and_windows() {
    for seed in [11u64, 12] {
        for window in [5usize, 16, 24] {
            let rel = varied_relation(seed, 8, 50);
            let idx = SubseqIndex::build(SubseqConfig::new(window), rel.clone()).unwrap();
            for (qid, start, jitter) in [(1usize, 2usize, 0.0), (4, 7, 0.9)] {
                let q = probe(&rel[qid], start, window, jitter);
                for k in [1usize, 3, 10, 40, 1000] {
                    assert_knn_matches(
                        &idx,
                        &q,
                        k,
                        &format!("seed {seed}, w {window}, q ({qid},{start},{jitter})"),
                    );
                }
            }
        }
    }
}

#[test]
fn knn_distances_are_sorted_and_self_window_is_first() {
    let rel = varied_relation(99, 10, 60);
    let idx = SubseqIndex::build(SubseqConfig::new(16), rel.clone()).unwrap();
    let q = probe(&rel[2], 9, 16, 0.0); // exact resident window
    let (got, _) = idx.subseq_knn(&q, 12).unwrap();
    assert_eq!(got.len(), 12);
    assert_eq!((got[0].series, got[0].offset), (2, 9));
    assert!(got[0].distance < 1e-9);
    for pair in got.windows(2) {
        assert!(pair[0].distance <= pair[1].distance + 1e-12);
    }
}

#[test]
fn stock_workload_and_trail_size_ablation_agree() {
    // Different trail sizes change only the grouping, never the answer.
    let rel: Vec<TimeSeries> = {
        let mut g = StockGenerator::new(2024);
        g.relation(6, 96)
    };
    let q = probe(&rel[3], 40, 20, 0.4);
    let mut answers: Vec<Vec<SubseqMatch>> = Vec::new();
    for trail in [1usize, 4, 16, 64] {
        let cfg = SubseqConfig {
            trail,
            ..SubseqConfig::new(20)
        };
        let idx = SubseqIndex::build(cfg, rel.clone()).unwrap();
        let (matches, _) = idx.subseq_range(&q, 3.0).unwrap();
        let (scan, _) = idx.scan_subseq_range(&q, 3.0, ScanMode::Naive).unwrap();
        assert_eq!(matches, scan, "trail {trail}");
        answers.push(matches);
    }
    for w in answers.windows(2) {
        assert_eq!(w[0], w[1], "answers differ across trail sizes");
    }
}

#[test]
fn coefficient_count_never_changes_the_answer() {
    // More indexed coefficients prune harder but the exact post-check
    // keeps the answer identical (and false hits shrink monotonically in
    // expectation — asserted loosely via candidate counts).
    let rel = varied_relation(7, 9, 72);
    let q = probe(&rel[0], 13, 18, 0.6);
    let mut prev_candidates = usize::MAX;
    let mut reference: Option<Vec<SubseqMatch>> = None;
    for k in [1usize, 2, 4, 8] {
        let cfg = SubseqConfig {
            k,
            ..SubseqConfig::new(18)
        };
        let idx = SubseqIndex::build(cfg, rel.clone()).unwrap();
        let (matches, stats) = idx.subseq_range(&q, 2.0).unwrap();
        match &reference {
            None => reference = Some(matches),
            Some(want) => assert_eq!(&matches, want, "k {k}"),
        }
        // Not strictly monotone in theory (trail MBRs interact), but never
        // wildly worse: allow slack while catching regressions.
        assert!(
            stats.candidates <= prev_candidates.saturating_mul(2),
            "k {k}: candidates exploded ({} after {prev_candidates})",
            stats.candidates
        );
        prev_candidates = stats.candidates;
    }
}

#[test]
fn large_magnitude_data_keeps_the_guarantee() {
    // Sliding-DFT drift scales with the stored coefficients' magnitude;
    // the build-time trail padding must absorb it even when values are
    // ~1e5, far beyond the other tests' ranges.
    let rel: Vec<TimeSeries> = varied_relation(31, 8, 64)
        .into_iter()
        .map(|s| s.scale(1e5))
        .collect();
    let idx = SubseqIndex::build(SubseqConfig::new(16), rel.clone()).unwrap();
    for (qid, start) in [(0usize, 0usize), (5, 30)] {
        let q = probe(&rel[qid], start, 16, 250.0);
        for eps in [0.0, 1e3, 1e5] {
            assert_range_matches(&idx, &q, eps, &format!("magnitude 1e5, q ({qid},{start})"));
        }
        assert_knn_matches(&idx, &q, 5, "magnitude 1e5");
    }
}

#[test]
fn index_beats_scan_candidate_counts_on_selective_queries() {
    // The acceptance criterion's shape: on a bench-like workload the index
    // examines strictly fewer windows than the scan for selective eps.
    let rel = varied_relation(1234, 20, 128);
    let idx = SubseqIndex::build(SubseqConfig::new(32), rel.clone()).unwrap();
    let q = probe(&rel[10], 30, 32, 0.5);
    let (_, stats) = idx.subseq_range(&q, 1.0).unwrap();
    assert!(
        stats.candidates < idx.windows_total(),
        "index examined {} of {} windows",
        stats.candidates,
        idx.windows_total()
    );
}

// ---------------------------------------------------------------------
// Lifecycle: the ST-indexes of a catalog relation follow that relation.
// ---------------------------------------------------------------------

const RANGE_WINDOW: usize = 16;
const KNN_WINDOW: usize = 24;

/// The two statements of the lifecycle test: a range probe and a kNN
/// probe at different windows, both literals cut from the initial data so
/// the same text is valid at every step.
fn lifecycle_statements(rel: &[TimeSeries]) -> [String; 2] {
    let literal = |q: &TimeSeries| {
        let vals: Vec<String> = q.values().iter().map(|v| format!("{v}")).collect();
        vals.join(", ")
    };
    [
        format!(
            "FIND SUBSEQUENCE OF [{}] IN r WITHIN 3 WINDOW {RANGE_WINDOW}",
            literal(&probe(&rel[3], 20, RANGE_WINDOW, 0.4))
        ),
        format!(
            "FIND 7 NEAREST SUBSEQUENCE OF [{}] IN r WINDOW {KNN_WINDOW}",
            literal(&probe(&rel[8], 5, KNN_WINDOW, 0.2))
        ),
    ]
}

fn labeled(cat: &Catalog) -> Vec<(String, TimeSeries)> {
    let rel = cat.relation("r").unwrap();
    (0..rel.len())
        .map(|id| {
            (
                rel.label(id).unwrap().to_string(),
                rel.get(id).unwrap().clone(),
            )
        })
        .collect()
}

fn plan_is_cold(cat: &Catalog, statement: &str) -> bool {
    let out = cat.run(&format!("EXPLAIN {statement}")).unwrap();
    out.explain.unwrap().contains("[cold")
}

/// Runs both statements on `cat` and demands rows, order, offsets and
/// distance bits equal to a catalog freshly built over `cat`'s current
/// data, and equal to the sliding scans of a [`SubseqIndex`] over the same
/// series (range: bit-exact; kNN: rank order, distances within 1e-9 — the
/// brute force sums in a different order).
fn assert_answers_follow_the_data(cat: &Catalog, statements: &[String; 2], step: &str) {
    let items = labeled(cat);
    let mut fresh = Catalog::new();
    fresh
        .register(SeriesRelation::from_labeled("r", items.clone()).unwrap())
        .unwrap();
    let series: Vec<TimeSeries> = items.iter().map(|(_, s)| s.clone()).collect();
    let bits = |rows: &[Row]| -> Vec<(String, Option<usize>, u64)> {
        rows.iter()
            .map(|r| (r.a.clone(), r.offset, r.distance.to_bits()))
            .collect()
    };
    let pattern = |statement: &str| match parse(statement).unwrap() {
        Query::SubseqSimilar {
            source: Source::Literal(values),
            ..
        }
        | Query::SubseqNearest {
            source: Source::Literal(values),
            ..
        } => TimeSeries::new(values),
        other => panic!("subsequence statement over a literal expected, got {other:?}"),
    };

    let got = cat.run(&statements[0]).unwrap();
    assert!(!got.rows.is_empty(), "{step}: the range probe must hit");
    let want = fresh.run(&statements[0]).unwrap();
    assert_eq!(bits(&got.rows), bits(&want.rows), "{step}: range vs fresh");
    let q = pattern(&statements[0]);
    let scan = SubseqIndex::build(SubseqConfig::new(RANGE_WINDOW), series.clone()).unwrap();
    let (truth, _) = scan.scan_subseq_range(&q, 3.0, ScanMode::Naive).unwrap();
    let truth: Vec<(String, Option<usize>, u64)> = truth
        .iter()
        .map(|m| {
            (
                items[m.series].0.clone(),
                Some(m.offset),
                m.distance.to_bits(),
            )
        })
        .collect();
    assert_eq!(bits(&got.rows), truth, "{step}: range vs sliding scan");

    let got = cat.run(&statements[1]).unwrap();
    let want = fresh.run(&statements[1]).unwrap();
    assert_eq!(got.rows.len(), 7, "{step}");
    assert_eq!(bits(&got.rows), bits(&want.rows), "{step}: kNN vs fresh");
    let q = pattern(&statements[1]);
    let scan = SubseqIndex::build(SubseqConfig::new(KNN_WINDOW), series).unwrap();
    let truth = scan.scan_subseq_knn(&q, 7).unwrap();
    for (rank, (row, m)) in got.rows.iter().zip(&truth).enumerate() {
        assert_eq!(
            (row.a.as_str(), row.offset),
            (items[m.series].0.as_str(), Some(m.offset)),
            "{step}: kNN rank {rank}"
        );
        assert!(
            (row.distance - m.distance).abs() < 1e-9,
            "{step}: kNN rank {rank}"
        );
    }
}

fn lifecycle(shards: usize) {
    let dir = std::env::temp_dir().join(format!(
        "tsq-subseq-lifecycle-{}-{shards}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let rel = RandomWalkGenerator::new(2718).relation(14, 80);
    let statements = lifecycle_statements(&rel);
    // The range statement, run first, holds the relation's window; the
    // longer kNN statement probes it by prefix.
    let warm = |cat: &Catalog, step: &str| {
        for s in &statements {
            assert!(!plan_is_cold(cat, s), "{step} ({shards} shard(s)): {s}");
        }
        assert_eq!(
            cat.subseq_window("r"),
            Some(RANGE_WINDOW),
            "{step} ({shards} shard(s))"
        );
    };
    let cold = |cat: &Catalog, step: &str| {
        for s in &statements {
            assert!(plan_is_cold(cat, s), "{step} ({shards} shard(s)): {s}");
        }
        assert_eq!(cat.subseq_window("r"), None, "{step}: EXPLAIN built");
    };

    let mut cat = Catalog::new();
    cat.register(SeriesRelation::from_series("r", rel).unwrap())
        .unwrap();
    cat.run_mut(&format!("SHARD r INTO {shards} BY HASH"))
        .unwrap();
    cold(&cat, "fresh");
    assert_answers_follow_the_data(&cat, &statements, "first run");
    warm(&cat, "first run");

    // APPEND to an existing label and start a brand-new one (long enough
    // to contribute windows at both lengths): the ST-indexes are extended
    // where they are, not dropped.
    let fresh_values: Vec<String> = (0..40)
        .map(|i| format!("{}", (i as f64 * 0.3).sin()))
        .collect();
    cat.run_mut(&format!(
        "APPEND r CSV (s3, 0.5, -1.25, 2, 0.75) (newcomer, {})",
        fresh_values.join(", ")
    ))
    .unwrap();
    warm(&cat, "after APPEND");
    assert_answers_follow_the_data(&cat, &statements, "after APPEND");
    warm(&cat, "after APPEND + run");

    // Re-sharding keeps every global id, and so the relation's ST-index.
    cat.run_mut("SHARD r INTO 3 BY HASH").unwrap();
    warm(&cat, "after SHARD");
    assert_answers_follow_the_data(&cat, &statements, "after SHARD");
    warm(&cat, "after SHARD + run");

    // The ST-indexes cross a save / open and a save / open_paged.
    let path = dir.join("cat.tsq");
    cat.save(&path).unwrap();
    let mut opened = Catalog::new();
    opened.open(&path).unwrap();
    warm(&opened, "after open");
    assert_answers_follow_the_data(&opened, &statements, "after open");
    let mut paged = Catalog::new();
    paged.open_paged(&path, 1).unwrap();
    warm(&paged, "after open_paged");
    assert_answers_follow_the_data(&paged, &statements, "after open_paged");
    drop(paged);

    // Re-registering replaces the relation — and what indexed the old one.
    let again = SeriesRelation::from_labeled("r", labeled(&cat)).unwrap();
    cat.register(again).unwrap();
    cold(&cat, "after register");
    assert_answers_follow_the_data(&cat, &statements, "after register");
    warm(&cat, "after register + run");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn st_indexes_follow_their_relation() {
    for shards in [1usize, 3] {
        lifecycle(shards);
    }
}

/// Catalog rows as `(label, offset, distance bits)`.
fn row_bits(rows: &[Row]) -> Vec<(String, Option<usize>, u64)> {
    rows.iter()
        .map(|r| (r.a.clone(), r.offset, r.distance.to_bits()))
        .collect()
}

fn literal(values: &[f64]) -> String {
    let values: Vec<String> = values.iter().map(|v| format!("{v}")).collect();
    values.join(", ")
}

/// **PrefixSearch through a catalog.** The relation holds its ST-index at
/// window `W`; range and kNN statements of `L` ∈ {W, W+1, 2W, 3W+5}
/// samples probe it with their first `W` and refine all `L`. The relation
/// is ragged — some series are shorter than `L`, some than `W` — and grows
/// by an `APPEND` chain between rounds. At 1 and 4 shards, rows, offsets
/// and distance bits equal the sliding scan of length `L` over the
/// relation's current series, and the window held stays `W`.
#[test]
fn prefix_search_answers_every_longer_statement_like_the_sliding_scan() {
    const W: usize = 8;
    let initial: Vec<TimeSeries> = {
        let mut g = RandomWalkGenerator::new(4242);
        (0..12).map(|i| g.series(5 + 5 * i)).collect()
    };
    let mut tails = RandomWalkGenerator::new(4243);
    let mut tail = |n: usize| literal(tails.series(n).values());
    // s0 grows past W and W+1, s3 past 2W and 3W+5; a new label arrives.
    let appends = [
        format!("APPEND r CSV (s0, {}) (s3, {})", tail(7), tail(20)),
        format!(
            "APPEND r CSV (fresh, {}) (s7, {}) (s1, {})",
            tail(33),
            tail(3),
            tail(26)
        ),
    ];
    let mut asked = 0usize;
    for shards in [1usize, 4] {
        let mut cat = Catalog::new();
        cat.register(SeriesRelation::from_series("r", initial.clone()).unwrap())
            .unwrap();
        cat.run_mut(&format!("SHARD r INTO {shards} BY HASH"))
            .unwrap();
        let hold = format!(
            "FIND SUBSEQUENCE OF [{}] IN r WITHIN 1 WINDOW {W}",
            literal(&[0.0; W])
        );
        cat.run(&hold).unwrap();
        for round in 0..=appends.len() {
            if round > 0 {
                cat.run_mut(&appends[round - 1]).unwrap();
            }
            let items = labeled(&cat);
            let series: Vec<TimeSeries> = items.iter().map(|(_, s)| s.clone()).collect();
            let scan = SubseqIndex::build(SubseqConfig::new(W), series.clone()).unwrap();
            let truth = |want: &[SubseqMatch]| -> Vec<(String, Option<usize>, u64)> {
                let rows = want.iter().map(|m| {
                    let label = items[m.series].0.clone();
                    (label, Some(m.offset), m.distance.to_bits())
                });
                rows.collect()
            };
            let longest = series.iter().max_by_key(|s| s.len()).unwrap();
            for len in [W, W + 1, 2 * W, 3 * W + 5] {
                for (start, jitter) in [(0usize, 0.0), (7, 0.3), (longest.len() - len, 1.1)] {
                    let q = probe(longest, start, len, jitter);
                    let pattern = literal(q.values());
                    let at = format!(
                        "{shards} shard(s), round {round}, L {len}, start {start}, jitter {jitter}"
                    );
                    for eps in [0.0, 0.5, 2.0, 6.0] {
                        let statement = format!(
                            "FIND SUBSEQUENCE OF [{pattern}] IN r WITHIN {eps} WINDOW {len}"
                        );
                        let got = cat.run(&statement).unwrap();
                        let (want, _) = scan.scan_subseq_range(&q, eps, ScanMode::Naive).unwrap();
                        assert_eq!(row_bits(&got.rows), truth(&want), "{at}, eps {eps}");
                        asked += 1;
                    }
                    for k in [1usize, 5, 40] {
                        let statement = format!(
                            "FIND {k} NEAREST SUBSEQUENCE OF [{pattern}] IN r WINDOW {len}"
                        );
                        let got = cat.run(&statement).unwrap();
                        let want = scan.scan_subseq_knn(&q, k).unwrap();
                        assert_eq!(row_bits(&got.rows), truth(&want), "{at}, k {k}");
                        asked += 1;
                    }
                }
                let explain = format!(
                    "EXPLAIN FIND 5 NEAREST SUBSEQUENCE OF [{}] IN r WINDOW {len}",
                    literal(&longest.values()[..len])
                );
                let plan = cat.run(&explain).unwrap().explain.unwrap();
                assert!(!plan.contains("[cold"), "{plan}");
                assert_eq!(plan.contains("[prefix of window 8]"), len > W, "{plan}");
            }
            assert_eq!(cat.subseq_window("r"), Some(W), "{shards} shard(s)");
        }
    }
    assert_eq!(asked, 2 * 3 * 4 * 3 * 7);
}

// ---------------------------------------------------------------------
// Lemma 1 for subsequences, within four ulps of the threshold.
// ---------------------------------------------------------------------

/// `v` moved by `j` units in the last place (`v` positive and finite).
fn ulps(v: f64, j: i64) -> f64 {
    f64::from_bits((v.to_bits() as i64 + j) as u64)
}

/// **Lemma 1 around the subsequence boundary.** The indexed feature of a
/// window is the sliding DFT's incrementally updated value, which drifts
/// from the window's own transform until the next re-anchor
/// (`REFRESH_INTERVAL` = 256 offsets) — and an `APPEND` resumes that walk
/// rather than restarting it. So the stored series here grow from below
/// one window to past offset 512 through a chain of `APPEND`s, with the
/// ST-index built before the first and extended by every one, at 1 and 4
/// shards.
///
/// Each query is a stored window `x` moved by `s·u` (a unit cosine or a
/// constant), at offsets before, on and after the re-anchors, and every
/// threshold is within four ulps of a distance the sliding scan reports
/// for it: the witness `x` itself, and the k-th nearest window. Each walk
/// runs at the window `W` the relation holds, and again at `2W + 5`
/// (PrefixSearch), with `x` that long and `u` on its first `W` samples. On
/// each statement the catalog's `FIND SUBSEQUENCE … WITHIN eps` rows equal
/// the scan's (labels, offsets and distance bits), the witness is among them
/// exactly when `eps >= d`, and `FIND k NEAREST SUBSEQUENCE` rows equal
/// the scan's to the bit. A failure names the seed, the witness window and
/// the query.
#[test]
fn subsequence_lemma_1_holds_within_four_ulps_across_appends() {
    const SEED: u64 = 28_000_256;
    const COUNT: usize = 8;
    const W: usize = 16;
    const K: usize = 5;
    const STEP: f64 = 0.25;
    // Appended to every series in turn: 10 + 640 samples, so the last
    // window offset is 634.
    const SCHEDULE: [usize; 8] = [3, 37, 1, 120, 64, 200, 5, 210];
    // Walks around a level: the sliding DFT's drift grows with `X_0`'s
    // magnitude, so the trail and query pads have something to absorb.
    const LEVEL: f64 = 5_000.0;
    let initial: Vec<TimeSeries> = RandomWalkGenerator::new(SEED)
        .relation(COUNT, 10)
        .iter()
        .map(|s| s.shift(LEVEL))
        .collect();
    let mut tails = RandomWalkGenerator::new(SEED + 1);
    let tails: Vec<Vec<f64>> = (0..COUNT)
        .map(|_| {
            tails
                .series(SCHEDULE.iter().sum())
                .shift(LEVEL)
                .values()
                .to_vec()
        })
        .collect();
    let mut appends: Vec<String> = Vec::new();
    let mut from = 0;
    for step in SCHEDULE {
        let groups: Vec<String> = tails
            .iter()
            .enumerate()
            .map(|(i, tail)| format!("(s{i}, {})", literal(&tail[from..from + step])))
            .collect();
        appends.push(format!("APPEND w CSV {}", groups.join(" ")));
        from += step;
    }
    let expected: Vec<TimeSeries> = initial
        .iter()
        .zip(&tails)
        .map(|(s, tail)| TimeSeries::new([s.values(), tail].concat()))
        .collect();
    let scan = SubseqIndex::build(SubseqConfig::new(W), expected.clone()).unwrap();
    let label = |m: &SubseqMatch| {
        (
            format!("s{}", m.series),
            Some(m.offset),
            m.distance.to_bits(),
        )
    };
    let rows = row_bits;

    let mut asked = 0usize;
    let mut failures: Vec<String> = Vec::new();
    for shards in [1usize, 4] {
        let mut cat = Catalog::new();
        cat.register(SeriesRelation::from_series("w", initial.clone()).unwrap())
            .unwrap();
        cat.run_mut(&format!("SHARD w INTO {shards} BY HASH"))
            .unwrap();
        // Build the window's ST-index while no series has a window yet.
        let zero = literal(&[0.0; W]);
        let warm = format!("FIND SUBSEQUENCE OF [{zero}] IN w WITHIN 1 WINDOW {W}");
        assert!(cat.run(&warm).unwrap().rows.is_empty());
        for append in &appends {
            cat.run_mut(append).unwrap();
        }
        assert!(
            !plan_is_cold(&cat, &warm),
            "{shards} shard(s): the APPENDs must extend the ST-index, not drop it"
        );
        let rel = cat.relation("w").unwrap();
        for (id, want) in expected.iter().enumerate() {
            let got = rel.get_by_label(&format!("s{id}")).unwrap();
            assert_eq!(got, want, "{shards} shard(s): s{id} after the APPENDs");
        }

        // (series, offset, f, phase) of the witness and the direction; at
        // `f = 0` the whole distance is in `X_0`'s real part, so the search
        // box's edge is the witness's own coordinate. A statement longer
        // than the window moves only its first `W` samples, so PrefixSearch
        // probes a box whose edge is the witness's coordinate too.
        for (len, (series, offset, f, phase)) in [W, 2 * W + 5].into_iter().flat_map(|len| {
            [
                (2usize, 3usize, 1usize, 0.4),
                (5, 255, 0, 0.0),
                (0, 256, 0, 0.0),
                (7, 300, 3, 0.0),
                (3, 383, 0, 0.0),
                (3, 511, 1, 0.7),
                (6, 511, 0, 0.0),
                (6, 512, 2, 2.9),
                (4, 513, 0, 0.0),
                (1, 634, 0, 0.0),
                (1, 634, 1, 1.6),
            ]
            .map(|witness| (len, witness))
        }) {
            let offset = offset.min(expected[series].len() - len);
            let x = &expected[series].values()[offset..offset + len];
            let unit = |t: usize| -> f64 {
                if t >= W {
                    return 0.0;
                }
                if f == 0 {
                    return 1.0 / (W as f64).sqrt();
                }
                let angle = std::f64::consts::TAU * (f * t) as f64 / W as f64 + phase;
                (2.0 / W as f64).sqrt() * angle.cos()
            };
            let q: Vec<f64> = x
                .iter()
                .enumerate()
                .map(|(t, v)| v + STEP * unit(t))
                .collect();
            let query = TimeSeries::new(q.clone());
            let what = format!(
                "{shards} shard(s), L {len}, seed {SEED}, witness s{series}@{offset} = [{}], \
                 query [{}]",
                literal(x),
                literal(&q)
            );
            let pattern = literal(&q);

            let knn = format!("FIND {K} NEAREST SUBSEQUENCE OF [{pattern}] IN w WINDOW {len}");
            let nearest = scan.scan_subseq_knn(&query, K).unwrap();
            let truth: Vec<_> = nearest.iter().map(label).collect();
            asked += 1;
            if rows(&cat.run(&knn).unwrap().rows) != truth {
                failures.push(format!("{what}: {K}-NN rows differ from the scan's"));
            }

            let (near, _) = scan
                .scan_subseq_range(&query, 2.0 * STEP, ScanMode::Naive)
                .unwrap();
            let witness = near
                .iter()
                .find(|m| (m.series, m.offset) == (series, offset))
                .expect("the witness window is within 2·STEP");
            for boundary in [witness, &nearest[K - 1]] {
                let d = boundary.distance;
                for j in -4i64..=4 {
                    let eps = ulps(d, j);
                    let within =
                        format!("FIND SUBSEQUENCE OF [{pattern}] IN w WITHIN {eps} WINDOW {len}");
                    let (truth, _) = scan
                        .scan_subseq_range(&query, eps, ScanMode::Naive)
                        .unwrap();
                    let truth: Vec<_> = truth.iter().map(label).collect();
                    let got = rows(&cat.run(&within).unwrap().rows);
                    let context = format!("{what}, boundary {boundary:?}, eps = d{j:+} ulps");
                    asked += 1;
                    if truth.contains(&label(boundary)) != (j >= 0) {
                        failures.push(format!("{context}: the scan misplaces the boundary"));
                    } else if let Some(lost) = truth.iter().find(|r| !got.contains(r)) {
                        failures.push(format!("{context}: false dismissal of {lost:?}"));
                    } else if got != truth {
                        failures.push(format!("{context}: rows differ from the scan's"));
                    }
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {asked} subsequence statements within 4 ulps of a reported distance broke Lemma 1 \
         (appends {SCHEDULE:?} to {COUNT} walks of 10 from seed {SEED}, tails from seed {}); \
         the first:\n{}",
        failures.len(),
        SEED + 1,
        failures[..failures.len().min(8)].join("\n")
    );
}
