//! Planner correctness suite: what the differential harness
//! (`tests/differential.rs`) cannot reach.
//!
//! - The cost gates: the planner never costs more than the better forced
//!   plan (Figure 12), and the benchmark's sharded stock joins plan the
//!   scan join.
//! - The `EXPLAIN ANALYZE` contract: the counters in the rendered text
//!   are exactly the [`tsq_lang::QueryOutput::stats`] of the run.
//! - The reference for the catalog's only execution path: a one-shard
//!   relation answers exactly like the planner and executor over a bare
//!   [`SimilarityIndex`], which never passes through `ShardedIndex`.
//! - The membership boundary: a reported distance is within itself, and
//!   Lemma 1 holds within ±4 ulps of the threshold, on the layouts of
//!   `tsq-testkit`'s configuration list.
//! - The harness pinned to forced plans and to `save → open`: range, k-NN
//!   and join statements under each force, and every form restored.

use tsq_core::plan::{render_analyze, render_plan};
use tsq_core::{
    execute_plan, ForceOp, LinearTransform, LogicalPlan, PlanRows, Planner, QueryWindow,
    RelationStats, SeriesRelation, SimilarityIndex, SubseqConfig, SubseqIndex,
};
use tsq_lang::{Catalog, Row};
use tsq_series::generate::{RandomWalkGenerator, StockGenerator};
use tsq_series::TimeSeries;
use tsq_testkit::{differential, Config, Storage};

fn assert_whole_rows_equal(a: &PlanRows, b: &PlanRows, what: &str) {
    let (PlanRows::Whole(a), PlanRows::Whole(b)) = (a, b) else {
        panic!("{what}: expected whole-series rows");
    };
    assert_eq!(
        a.iter().map(|m| m.id).collect::<Vec<_>>(),
        b.iter().map(|m| m.id).collect::<Vec<_>>(),
        "{what}: answer ids differ between plans"
    );
    for (x, y) in a.iter().zip(b) {
        assert!(
            (x.distance - y.distance).abs() < 1e-9,
            "{what}: distances diverge ({} vs {})",
            x.distance,
            y.distance
        );
    }
}

/// The Figure-12 experiment as a gate, on deterministic counters only:
/// across selectivities from "self only" to "everything", the plan the
/// planner picks never costs more simulated disk accesses than the better
/// of the forced scan and the forced index, and all three return the same
/// rows. A cost model that mispredicts the crossover fails here.
#[test]
fn planner_never_costs_more_than_the_better_forced_plan() {
    const WIDE: &[f64] = &[0.05, 0.2, 0.5, 1.0, 2.0, 8.0, 32.0];
    let workloads: [(&str, Vec<TimeSeries>, &[f64]); 3] = [
        (
            "walks_400x64",
            RandomWalkGenerator::new(20_270_741).relation(400, 64),
            WIDE,
        ),
        (
            "stocks_250x128",
            StockGenerator::new(20_270_742).relation(250, 128),
            WIDE,
        ),
        (
            "small_48x32",
            RandomWalkGenerator::new(20_270_743).relation(48, 32),
            &[0.1, 1.0, 10.0],
        ),
    ];
    for (name, series, eps_grid) in workloads {
        let idx = SimilarityIndex::build(Default::default(), series).unwrap();
        let stats = RelationStats::from_index(&idx);
        for &eps in eps_grid {
            let logical = LogicalPlan::Range {
                relation: name.into(),
                query: idx.series(7).unwrap().clone(),
                eps,
                transform: LinearTransform::identity(idx.series_len()),
                window: QueryWindow::default(),
            };
            let run = |force: Option<ForceOp>| {
                let choice = Planner::new(&idx, &stats)
                    .plan(&logical, force, None)
                    .unwrap();
                let (rows, exec) = execute_plan(&logical, &choice.plan, &idx, None).unwrap();
                (rows, exec.disk_accesses, choice.plan.op.name())
            };
            let (scan_rows, scan_disk, _) = run(Some(ForceOp::Scan));
            let (index_rows, index_disk, _) = run(Some(ForceOp::Index));
            let (rows, auto_disk, plan) = run(None);
            let what = format!("{name} eps={eps}");
            assert_whole_rows_equal(&rows, &scan_rows, &what);
            assert_whole_rows_equal(&index_rows, &scan_rows, &what);
            assert!(
                auto_disk <= scan_disk.min(index_disk),
                "{what}: planner chose {plan} with {auto_disk} disk accesses \
                 (forced scan {scan_disk}, forced index {index_disk})"
            );
        }
    }
}

/// The benchmark's sharded join, as a gate on the planner's join choice:
/// Table 1's query under `mavg(8)` on 300 stock-like series of 128
/// points (the `pairs` relation of `bench/src/data.rs` at run seeds
/// 19970513–15), at thresholds admitting 20, 30, 40 and 58 pairs,
/// calibrated on a forced scan as `bench/src/workload.rs` calibrates
/// them. At 1 and 4 hash shards the relation plans the early-abandoning
/// scan join, the fastest method on this shape, once (a join is not
/// scattered), and the planned answer is the forced scan's, row for row
/// and bit for bit.
#[test]
fn sharded_stock_joins_plan_the_scan_join() {
    const TARGETS: [usize; 4] = [20, 30, 40, 58];
    let bits = |rows: &[Row]| -> Vec<(String, Option<String>, u64)> {
        rows.iter()
            .map(|r| (r.a.clone(), r.b.clone(), r.distance.to_bits()))
            .collect()
    };
    for seed in 19_970_513u64..=19_970_515 {
        let series = StockGenerator::new(seed + 3).relation(300, 128);
        let mut cat = Catalog::new();
        cat.register(SeriesRelation::from_series("pairs", series).unwrap())
            .unwrap();
        // Every pair within a threshold wide enough for the largest
        // target, nearest first.
        let mut eps = 0.25;
        let distances = loop {
            let text = format!("JOIN pairs WITHIN {eps} APPLY mavg(8) WITH (force = scan)");
            let rows = cat.run(&text).unwrap().rows;
            if rows.len() > TARGETS[3] {
                let mut d: Vec<f64> = rows.iter().map(|r| r.distance).collect();
                d.sort_by(f64::total_cmp);
                break d;
            }
            eps *= 1.5;
        };
        for shards in [1usize, 4] {
            cat.run_mut(&format!("SHARD pairs INTO {shards} BY HASH"))
                .unwrap();
            let scan_plan = "JoinScan";
            for target in TARGETS {
                let eps = (distances[target - 1] + distances[target]) / 2.0;
                let text = format!("JOIN pairs WITHIN {eps} APPLY mavg(8)");
                let what = format!("seed {seed}, {shards} shard(s), {target} pairs: {text}");
                let planned = cat.run(&text).unwrap();
                let forced = cat.run(&format!("{text} WITH (force = scan)")).unwrap();
                assert_eq!(planned.plan, scan_plan, "{what}");
                assert_eq!(planned.rows.len(), target, "{what}");
                assert_eq!(bits(&planned.rows), bits(&forced.rows), "{what}");
            }
        }
    }
}

/// The `EXPLAIN ANALYZE` counters printed in the text are exactly the
/// stats of the execution it performed — and match an ordinary run of
/// the same query.
#[test]
fn explain_analyze_counters_match_query_stats() {
    let mut cat = Catalog::new();
    let rel = SeriesRelation::from_series("walks", RandomWalkGenerator::new(99).relation(70, 32))
        .unwrap();
    cat.register(rel).unwrap();
    for q in [
        "FIND SIMILAR TO walks.s4 IN walks WITHIN 0.8",
        "FIND SIMILAR TO walks.s4 IN walks WITHIN 25",
        "FIND 3 NEAREST TO walks.s5 IN walks",
        "JOIN walks WITHIN 1.2 APPLY mavg(4)",
        "JOIN walks WITHIN 1.2 APPLY mavg(4) WITH (force = index)",
        "FIND SUBSEQUENCE OF walks.s6 IN walks WITHIN 4 WINDOW 32",
    ] {
        let plain = cat.run(q).unwrap();
        let analyzed = cat.run(&format!("EXPLAIN ANALYZE {q}")).unwrap();
        assert!(analyzed.rows.is_empty(), "{q}: ANALYZE returns no rows");
        assert_eq!(analyzed.stats, plain.stats, "{q}: counters diverge");
        assert_eq!(analyzed.plan, plain.plan, "{q}: plans diverge");
        let text = analyzed.explain.expect("analyze text");
        let expected = format!(
            "actual: rows={}, nodes={}, candidates={}, refined={}, false_hits={}, disk={}",
            plain.rows.len(),
            plain.stats.nodes_visited,
            plain.stats.candidates,
            plain.stats.refined,
            plain.stats.false_hits,
            plain.stats.disk_accesses,
        );
        assert!(
            text.contains(&expected),
            "{q}:\n{text}\nmissing: {expected}"
        );
    }
    // Plain EXPLAIN never executes: no rows, zeroed counters.
    let explained = cat
        .run("EXPLAIN FIND SIMILAR TO walks.s4 IN walks WITHIN 0.8")
        .unwrap();
    assert!(explained.rows.is_empty());
    assert_eq!(explained.stats, Default::default());
    assert!(!explained.explain.unwrap().contains("actual:"));
}

/// The reference that remains now that every catalog relation is a
/// `ShardedIndex`: for every query form, a freshly registered (one-shard)
/// relation answers `Catalog::run` — rows, counters, plan name and the
/// `EXPLAIN [ANALYZE]` text — exactly like `Planner::plan` +
/// `execute_plan` + `render_plan` / `render_analyze` over a bare
/// `SimilarityIndex` built from the same series.
#[test]
fn one_shard_catalog_equals_the_bare_engine() {
    let series = RandomWalkGenerator::new(1997).relation(70, 32);
    let mut cat = Catalog::new();
    cat.register(SeriesRelation::from_series("walks", series.clone()).unwrap())
        .unwrap();
    let idx = SimilarityIndex::build(Default::default(), series.clone()).unwrap();
    let stats = RelationStats::from_index(&idx);
    let st = SubseqIndex::build(SubseqConfig::new(8), series).unwrap();

    let n = 32;
    let q = |id: usize| idx.series(id).unwrap().clone();
    let probe = TimeSeries::new(q(6).values()[4..12].to_vec());
    let probe_text: Vec<String> = probe.values().iter().map(|v| format!("{v}")).collect();
    let probe_text = probe_text.join(", ");
    let range = |eps: f64, transform: LinearTransform, window: QueryWindow| LogicalPlan::Range {
        relation: "walks".into(),
        query: q(4),
        eps,
        transform,
        window,
    };
    let join = || LogicalPlan::Join {
        relation: "walks".into(),
        eps: 1.2,
        transform: LinearTransform::moving_average(n, 4),
    };
    let auto = None;
    let cases: Vec<(String, LogicalPlan, Option<ForceOp>)> = vec![
        (
            "FIND SIMILAR TO walks.s4 IN walks WITHIN 0.8".into(),
            range(0.8, LinearTransform::identity(n), QueryWindow::default()),
            auto,
        ),
        (
            "FIND SIMILAR TO walks.s4 IN walks WITHIN 25".into(),
            range(25.0, LinearTransform::identity(n), QueryWindow::default()),
            auto,
        ),
        (
            "FIND SIMILAR TO walks.s4 IN walks WITHIN 6 APPLY mavg(5)".into(),
            range(
                6.0,
                LinearTransform::moving_average(n, 5),
                QueryWindow::default(),
            ),
            auto,
        ),
        (
            "FIND SIMILAR TO walks.s4 IN walks WITHIN 25 WHERE STD BETWEEN 0 AND 3".into(),
            range(
                25.0,
                LinearTransform::identity(n),
                QueryWindow {
                    mean: None,
                    std: Some((0.0, 3.0)),
                },
            ),
            auto,
        ),
        (
            "FIND SIMILAR TO walks.s4 IN walks WITHIN 0.8 WITH (force = scan)".into(),
            range(0.8, LinearTransform::identity(n), QueryWindow::default()),
            Some(ForceOp::Scan),
        ),
        (
            "FIND SIMILAR TO walks.s4 IN walks WITHIN 25 WITH (force = index)".into(),
            range(25.0, LinearTransform::identity(n), QueryWindow::default()),
            Some(ForceOp::Index),
        ),
        (
            "FIND 3 NEAREST TO walks.s5 IN walks".into(),
            LogicalPlan::Knn {
                relation: "walks".into(),
                query: q(5),
                k: 3,
                transform: LinearTransform::identity(n),
            },
            auto,
        ),
        (
            "FIND 9 NEAREST TO walks.s5 IN walks APPLY mavg(4) WITH (force = scan)".into(),
            LogicalPlan::Knn {
                relation: "walks".into(),
                query: q(5),
                k: 9,
                transform: LinearTransform::moving_average(n, 4),
            },
            Some(ForceOp::Scan),
        ),
        ("JOIN walks WITHIN 1.2 APPLY mavg(4)".into(), join(), auto),
        (
            "JOIN walks WITHIN 1.2 APPLY mavg(4) WITH (force = scan)".into(),
            join(),
            Some(ForceOp::Scan),
        ),
        (
            "JOIN walks WITHIN 1.2 APPLY mavg(4) WITH (force = scanfull)".into(),
            join(),
            Some(ForceOp::ScanFull),
        ),
        (
            "JOIN walks WITHIN 1.2 APPLY mavg(4) WITH (force = index)".into(),
            join(),
            Some(ForceOp::Index),
        ),
        (
            format!("FIND SUBSEQUENCE OF [{probe_text}] IN walks WITHIN 4 WINDOW 8"),
            LogicalPlan::SubseqRange {
                relation: "walks".into(),
                query: probe.clone(),
                eps: 4.0,
                window: 8,
            },
            auto,
        ),
        (
            format!("FIND 5 NEAREST SUBSEQUENCE OF [{probe_text}] IN walks WINDOW 8"),
            LogicalPlan::SubseqKnn {
                relation: "walks".into(),
                query: probe.clone(),
                k: 5,
                window: 8,
            },
            auto,
        ),
    ];

    let label = |id: usize| format!("s{id}");
    let labeled = |rows: PlanRows| -> Vec<Row> {
        match rows {
            PlanRows::Whole(ms) => ms
                .into_iter()
                .map(|m| Row {
                    a: label(m.id),
                    b: None,
                    offset: None,
                    distance: m.distance,
                })
                .collect(),
            PlanRows::Pairs(ps) => ps
                .into_iter()
                .map(|p| Row {
                    a: label(p.a),
                    b: Some(label(p.b)),
                    offset: None,
                    distance: p.distance,
                })
                .collect(),
            PlanRows::Windows(ws) => ws
                .into_iter()
                .map(|w| Row {
                    a: label(w.series),
                    b: None,
                    offset: Some(w.offset),
                    distance: w.distance,
                })
                .collect(),
        }
    };

    for (text, logical, force) in &cases {
        let planner = Planner::new(&idx, &stats);
        // A cold subsequence EXPLAIN plans without an ST-index, on both
        // sides; everything after the first run sees the cached one.
        if logical.subseq_window().is_some() && cat.subseq_window("walks").is_none() {
            let cold = planner.plan(logical, *force, None).unwrap();
            let got = cat.run(&format!("EXPLAIN {text}")).unwrap();
            assert_eq!(got.explain.unwrap(), render_plan(logical, &cold, &stats));
            assert_eq!(cat.subseq_window("walks"), None, "EXPLAIN must not build");
        }
        let subseq = logical.subseq_window().map(|_| &st);
        let choice = planner.plan(logical, *force, subseq).unwrap();
        let (rows, exec) = execute_plan(logical, &choice.plan, &idx, subseq).unwrap();
        let mut explain = render_plan(logical, &choice, &stats);

        let got = cat.run(text).unwrap();
        assert_eq!(got.plan, choice.plan.op.name(), "{text}");
        assert_eq!(got.stats, exec, "{text}");
        assert!(got.shard_stats.is_empty(), "{text}");
        assert_eq!(got.explain, None, "{text}");
        let want_rows = labeled(rows);
        assert_eq!(got.rows, want_rows, "{text}");

        let planned = cat.run(&format!("EXPLAIN {text}")).unwrap();
        assert_eq!(planned.explain.as_deref(), Some(explain.as_str()), "{text}");
        assert_eq!(planned.plan, got.plan, "{text}");
        assert_eq!(planned.stats, Default::default(), "{text}");

        render_analyze(&mut explain, want_rows.len(), &exec);
        let analyzed = cat.run(&format!("EXPLAIN ANALYZE {text}")).unwrap();
        assert_eq!(
            analyzed.explain.as_deref(),
            Some(explain.as_str()),
            "{text}"
        );
        assert_eq!(analyzed.plan, got.plan, "{text}");
        assert_eq!(analyzed.stats, exec, "{text}");
        assert!(
            analyzed.rows.is_empty() && analyzed.shard_stats.is_empty(),
            "{text}"
        );
    }
    assert_eq!(cat.shard_layout("walks").map(|layout| layout.1), Some(1));
}

/// Relation `w` over `series` in the four configurations the boundary
/// suites compare: 1 and 4 hash shards, each in memory and after `save` /
/// `open_paged` at the catalog's smallest pool. Returns the directory
/// holding the snapshots (the caller removes it) and the catalogs, the
/// one-shard in-memory reference first.
fn boundary_configs(
    tag: &str,
    series: &[TimeSeries],
) -> (std::path::PathBuf, Vec<(String, Catalog)>) {
    let dir = std::env::temp_dir().join(format!("tsq-boundary-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut configs: Vec<(String, Catalog)> = Vec::new();
    for shards in [1usize, 4] {
        for storage in [Storage::Memory, Storage::Paged] {
            let config = Config {
                shards,
                storage,
                ..Config::REFERENCE
            };
            let cat = tsq_testkit::layout(&config, "w", series, &dir);
            configs.push((format!("{config:?}"), cat));
        }
    }
    (dir, configs)
}

/// **A reported distance is within itself.** Whatever distance a k-NN or
/// join row is reported with, re-asking `WITHIN` exactly that distance
/// returns that row — under every operator a `force` can name, at 1 and
/// 4 shards, in memory and after `save` / `open_paged` at the catalog's
/// smallest pool — and every such run returns the same rows, in the same
/// order, with the same distance bits. Constructive: every threshold is
/// a distance the engine itself printed, so every statement sits exactly
/// on the membership boundary; a failure names the relation seed, the
/// query and the threshold's bits.
#[test]
fn reported_distance_is_within_itself() {
    const SEED: u64 = 21_210_021;
    const COUNT: usize = 40;
    const LEN: usize = 64;
    const WINDOW: usize = 16;
    let series = RandomWalkGenerator::new(SEED).relation(COUNT, LEN);
    let (dir, configs) = boundary_configs("at", &series);

    type Key = (String, Option<String>, Option<usize>, u64);
    let key = |r: &Row| -> Key { (r.a.clone(), r.b.clone(), r.offset, r.distance.to_bits()) };
    let id = |label: &str| -> usize { label[1..].parse().unwrap() };
    let mut asked = 0usize;
    let mut failures: Vec<String> = Vec::new();
    // Re-asks `within` (a statement whose threshold is `witness`'s
    // reported distance) on every configuration under every force.
    let mut check = |what: String, witness: &Row, within: &str, forces: &[&str]| {
        asked += 1;
        let eps = witness.distance;
        let mut first: Option<Vec<Key>> = None;
        for (config, cat) in &configs {
            for force in forces {
                let with = match *force {
                    "" => String::new(),
                    f => format!(" WITH (force = {f})"),
                };
                let mut rows = cat.run(&format!("{within}{with}")).unwrap().rows;
                // A forced index join reports each pair in both
                // directions; the others once, `a < b`.
                rows.retain(|r| r.b.as_deref().map_or(true, |b| id(&r.a) < id(b)));
                let rows: Vec<Key> = rows.iter().map(key).collect();
                let context = format!(
                    "{what}: relation seed {SEED}, eps = {eps} (bits {:#018x}), {config}, \
                     force = {force:?}",
                    eps.to_bits()
                );
                if !rows.contains(&key(witness)) {
                    failures.push(format!("{context}: {witness:?} is not in the answer"));
                    return;
                }
                match &first {
                    None => first = Some(rows),
                    Some(want) if *want != rows => {
                        failures.push(format!("{context}: rows differ from the first run's"));
                        return;
                    }
                    Some(_) => {}
                }
            }
        }
    };

    let reference = &configs[0].1;
    let whole = ["", "scan", "index"];
    for apply in [
        "",
        " APPLY reverse",
        " APPLY mavg(8)",
        " APPLY scale(-2), shift(3)",
    ] {
        for q in 0..COUNT {
            let knn = reference
                .run(&format!("FIND 3 NEAREST TO w.s{q} IN w{apply}"))
                .unwrap();
            let witness = &knn.rows[2];
            let within = format!(
                "FIND SIMILAR TO w.s{q} IN w WITHIN {}{apply}",
                witness.distance
            );
            check(
                format!("range, query s{q}{apply}"),
                witness,
                &within,
                &whole,
            );
        }
    }
    for apply in ["", " APPLY mavg(8)"] {
        // A threshold that certainly yields pairs: s0's third neighbour.
        let seed_eps = reference
            .run(&format!("FIND 3 NEAREST TO w.s0 IN w{apply}"))
            .unwrap()
            .rows[2]
            .distance;
        let pairs = reference
            .run(&format!("JOIN w WITHIN {seed_eps}{apply}"))
            .unwrap()
            .rows;
        assert!(!pairs.is_empty(), "JOIN w WITHIN {seed_eps}{apply}");
        for witness in pairs.iter().take(20) {
            let within = format!("JOIN w WITHIN {}{apply}", witness.distance);
            check(
                format!("join{apply}, pair {witness:?}"),
                witness,
                &within,
                &["", "scan", "scanfull", "index"],
            );
        }
    }
    for (q, source) in series.iter().enumerate() {
        // A window of s{q}, nudged so that no stored window is at 0.
        let values: Vec<String> = source.values()[5..5 + WINDOW]
            .iter()
            .enumerate()
            .map(|(i, v)| format!("{}", v + 0.25 * ((i * 7 % 5) as f64 - 2.0)))
            .collect();
        let pattern = values.join(", ");
        let knn = reference
            .run(&format!(
                "FIND 3 NEAREST SUBSEQUENCE OF [{pattern}] IN w WINDOW {WINDOW}"
            ))
            .unwrap();
        let witness = &knn.rows[2];
        let within = format!(
            "FIND SUBSEQUENCE OF [{pattern}] IN w WITHIN {} WINDOW {WINDOW}",
            witness.distance
        );
        check(
            format!("subsequence, window of s{q}"),
            witness,
            &within,
            &whole,
        );
    }
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        failures.is_empty(),
        "{} of {asked} statements at a reported distance lost or changed rows; the first:\n{}",
        failures.len(),
        failures[..failures.len().min(8)].join("\n")
    );
}

/// `v` moved by `j` units in the last place (`v` positive and finite).
fn ulps(v: f64, j: i64) -> f64 {
    f64::from_bits((v.to_bits() as i64 + j) as u64)
}

/// **Lemma 1 around the boundary.** Where `reported_distance_is_within_itself`
/// sits *on* the membership boundary, this suite walks ±4 ulps *around* it,
/// on statements built to strain the filter rather than sampled: the query
/// is `T(x) + s·u` for a stored `x` and a unit direction `u`, and every
/// threshold is within four ulps of a distance the scan reports for it —
/// so the true distance sits within ±4 ulps of `eps` on every statement.
///
/// The stored anchors (each next to its own `x + s·u`, so joins have a
/// boundary pair too) put the search rectangle where `S_pol` is delicate:
///
/// - `tone`, one sinusoid at `f = 1` moved along another: the whole
///   distance lies in one indexed coefficient (and its mirror), the
///   tightest the lower bound can be;
/// - `low`, `f = 1` plus `f = 2`, moved along `f = 2`;
/// - `seam`, whose `X_1` has angle `π − δ` while the query's has `−π + δ`:
///   the angular interval wraps the ±π seam (`seam reversed` is the series
///   that `reverse` maps there);
/// - `high`, a sinusoid at `f = 5`: its feature point is the polar origin
///   (magnitude ≈ 1e-15, angle noise) and the query's indexed magnitudes
///   are below the threshold (`eps ≥ m`), so the rectangle covers every
///   angle;
/// - `radial` and `tangent`, `f = 1` plus `f = 2`, moved along `X_1`'s own
///   phase (the magnitude bound is the tight one) and perpendicular to it
///   (the angle bound is);
/// - a random walk.
///
/// Under identity, `reverse`, `mavg(8)`, `scale`/`shift`, `mavg ∘ reverse`
/// and `warp(2)` (the time-domain refine), at 1 and 4 shards, in memory
/// and paged, for every whole-match row of `plan.rs`'s operator table:
/// the index answer ⊇ the scan answer (no false dismissal) and equals it
/// (one refine), the witness is in the scan answer exactly when
/// `eps >= d`, k-NN rows (hence the k-th distance) agree to the bit, and
/// every join strategy returns the scan's pairs. A failure names the
/// seed, the stored series and the query.
#[test]
fn lemma_1_holds_within_four_ulps_of_the_threshold() {
    use tsq_series::moving_average::circular_moving_average;
    use tsq_series::warp::stretch;

    const SEED: u64 = 22_100_497;
    const WALKS: usize = 24;
    const LEN: usize = 64;
    const DELTA: f64 = 1e-3;
    let cosine = |len: usize, f: usize, phase: f64| -> Vec<f64> {
        (0..len)
            .map(|t| (std::f64::consts::TAU * (f * t) as f64 / len as f64 + phase).cos())
            .collect()
    };
    // `base + Σ amp·cos(f, phase)`.
    let mix = |len: usize, base: f64, parts: &[(f64, usize, f64)]| -> Vec<f64> {
        let mut v = vec![base; len];
        for &(amp, f, phase) in parts {
            for (x, c) in v.iter_mut().zip(cosine(len, f, phase)) {
                *x += amp * c;
            }
        }
        v
    };
    let sine = -std::f64::consts::FRAC_PI_2; // cos(θ − π/2) = sin θ
                                             // The step along the unit sine that takes `−cos − δ·sin` to `−cos + δ·sin`.
    let across = 2.0 * DELTA * (LEN as f64 / 2.0).sqrt();
    // (name, stored x, step s, direction u as (f, phase)).
    type Anchor = (&'static str, Vec<f64>, f64, (usize, f64));
    let mut anchors: Vec<Anchor> = vec![
        ("tone", mix(LEN, 20.0, &[(3.0, 1, 0.7)]), 0.25, (1, 2.0)),
        (
            "low",
            mix(LEN, 15.0, &[(2.0, 1, 0.3), (1.5, 2, 1.1)]),
            0.25,
            (2, 0.4),
        ),
        (
            "seam",
            mix(LEN, 5.0, &[(-1.0, 1, 0.0), (-DELTA, 1, sine)]),
            across,
            (1, sine),
        ),
        // The same crossing under `reverse`, whose image of this is `seam`.
        (
            "seam reversed",
            mix(LEN, 5.0, &[(1.0, 1, 0.0), (DELTA, 1, sine)]),
            across,
            (1, sine),
        ),
        ("high", mix(LEN, 8.0, &[(2.0, 5, 0.9)]), 0.25, (1, 1.3)),
        // Moved along `X_1`'s own phase: the magnitude bound is the tight
        // one.
        (
            "radial",
            mix(LEN, 12.0, &[(3.0, 1, 0.7), (1.0, 2, 2.1)]),
            0.25,
            (1, 0.7),
        ),
        // Moved perpendicular to it: the angle bound is the tight one.
        (
            "tangent",
            mix(LEN, 12.0, &[(3.0, 1, 0.7), (1.0, 2, 2.1)]),
            0.25,
            (1, 0.7 + std::f64::consts::FRAC_PI_2),
        ),
    ];
    let mut series = RandomWalkGenerator::new(SEED).relation(WALKS, LEN);
    anchors.push(("walk", series[3].values().to_vec(), 0.5, (1, 0.5)));
    // `y + s·u` for a unit-norm `u` of `y`'s length.
    let moved = |y: &[f64], s: f64, (f, phase): (usize, f64)| -> Vec<f64> {
        let unit = (2.0 / y.len() as f64).sqrt();
        y.iter()
            .zip(cosine(y.len(), f, phase))
            .map(|(v, c)| v + s * unit * c)
            .collect()
    };
    // Anchor `i` is stored as `s{WALKS + 2i}`, its moved twin right after.
    for (_, x, s, u) in &anchors {
        series.push(TimeSeries::new(x.clone()));
        series.push(TimeSeries::new(moved(x, *s, *u)));
    }
    let total = series.len();
    let (dir, configs) = boundary_configs("around", &series);
    let reference = &configs[0].1;

    type Key = (String, Option<String>, u64);
    let key = |r: &Row| -> Key { (r.a.clone(), r.b.clone(), r.distance.to_bits()) };
    let id = |label: &str| -> usize { label[1..].parse().unwrap() };
    let literal = |values: &[f64]| -> String {
        let values: Vec<String> = values.iter().map(|v| format!("{v}")).collect();
        format!("[{}]", values.join(", "))
    };
    let mut asked = 0usize;
    let mut failures: Vec<String> = Vec::new();
    // Runs `statement` under every force on every configuration and
    // compares each answer with the first force's on the reference (the
    // scan); `expect` says whether the witness must be in it.
    let mut check = |what: &str, statement: &str, forces: &[&str], witness: &Key, expect: bool| {
        asked += 1;
        let mut scan: Option<Vec<Key>> = None;
        for (config, cat) in &configs {
            for force in forces {
                let with = match *force {
                    "" => String::new(),
                    f => format!(" WITH (force = {f})"),
                };
                let mut rows = cat.run(&format!("{statement}{with}")).unwrap().rows;
                rows.retain(|r| r.b.as_deref().map_or(true, |b| id(&r.a) < id(b)));
                let rows: Vec<Key> = rows.iter().map(key).collect();
                let context = format!("{what}, {config}, force = {force:?}");
                let Some(scan) = &scan else {
                    if rows.contains(witness) != expect {
                        failures.push(format!(
                            "{context}: witness {witness:?} in the scan answer: {}, expected {expect}",
                            !expect
                        ));
                        return;
                    }
                    scan = Some(rows);
                    continue;
                };
                if let Some(lost) = scan.iter().find(|r| !rows.contains(r)) {
                    failures.push(format!("{context}: false dismissal of {lost:?}"));
                    return;
                }
                if rows != *scan {
                    failures.push(format!("{context}: rows differ from the scan's"));
                    return;
                }
            }
        }
    };

    let whole = ["scan", "index", ""];
    type InTime = fn(&TimeSeries) -> TimeSeries;
    let transforms: [(&str, InTime); 6] = [
        ("", |x| x.clone()),
        (" APPLY reverse", |x| x.negate()),
        (" APPLY mavg(8)", |x| circular_moving_average(x, 8)),
        (" APPLY scale(-2), shift(3)", |x| x.scale(-2.0).shift(3.0)),
        (" APPLY mavg(8), reverse", |x| {
            circular_moving_average(x, 8).negate()
        }),
        (" APPLY warp(2)", |x| stretch(x, 2)),
    ];
    for (apply, in_time) in transforms {
        for (i, (name, x, s, u)) in anchors.iter().enumerate() {
            let target = format!("s{}", WALKS + 2 * i);
            let stored = TimeSeries::new(x.clone());
            let query = literal(&moved(in_time(&stored).values(), *s, *u));
            let what = format!(
                "{name}{apply}: relation seed {SEED}, target {target} = {}, query {query}",
                literal(x)
            );
            // Every stored series' distance, as the scan reports it.
            let all = reference
                .run(&format!(
                    "FIND {total} NEAREST TO {query} IN w{apply} WITH (force = scan)"
                ))
                .unwrap()
                .rows;
            assert_eq!(all.len(), total, "{what}");
            let nearest = &all[..3];
            check(
                &format!("{what}, 3-NN"),
                &format!("FIND 3 NEAREST TO {query} IN w{apply}"),
                &whole,
                &key(&nearest[2]),
                true,
            );
            let of_target = all.iter().find(|r| r.a == target).expect("target row");
            for witness in [of_target, &nearest[2]] {
                let d = witness.distance;
                if d < 1e-300 {
                    continue;
                }
                for j in -4i64..=4 {
                    let eps = ulps(d, j);
                    check(
                        &format!("{what}, witness {witness:?}, eps = d{j:+} ulps = {eps:e}"),
                        &format!("FIND SIMILAR TO {query} IN w WITHIN {eps}{apply}"),
                        &whole,
                        &key(witness),
                        j >= 0,
                    );
                }
            }
        }
        if apply.contains("warp") {
            // A self-join between different-length representations is
            // undefined; the language rejects it.
            continue;
        }
        // Anchor pairs are a few tenths apart, walks several units.
        let pairs = reference
            .run(&format!("JOIN w WITHIN 1{apply} WITH (force = scan)"))
            .unwrap()
            .rows;
        for (i, (name, x, _, _)) in anchors.iter().enumerate() {
            let (a, b) = (
                format!("s{}", WALKS + 2 * i),
                format!("s{}", WALKS + 2 * i + 1),
            );
            let what = format!(
                "{name} join{apply}: relation seed {SEED}, pair ({a}, {b}), {a} = {}",
                literal(x)
            );
            let witness = pairs
                .iter()
                .find(|r| r.a == a && r.b.as_deref() == Some(b.as_str()))
                .unwrap_or_else(|| panic!("{what}: the pair is not within 1"));
            for j in -4i64..=4 {
                let eps = ulps(witness.distance, j);
                check(
                    &format!("{what}, eps = d{j:+} ulps = {eps:e}"),
                    &format!("JOIN w WITHIN {eps}{apply}"),
                    &["scan", "scanfull", "index", ""],
                    &key(witness),
                    j >= 0,
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        failures.is_empty(),
        "{} of {asked} statements within 4 ulps of a reported distance broke Lemma 1; the first:\n{}",
        failures.len(),
        failures[..failures.len().min(8)].join("\n")
    );
}

/// A layout of the reference's but for `force`.
fn forced(force: ForceOp) -> Config {
    Config {
        force: Some(force),
        ..Config::REFERENCE
    }
}

/// Seeded scripts forced to the scan and to the index answer like the
/// planned reference; for range statements (`APPLY` chains, `WHERE`
/// windows), rows, order, distance bits, and counters and plan lines where
/// the operator is the reference's.
#[test]
fn range_plans_agree_with_scan_oracle() {
    let configs = [forced(ForceOp::Scan), forced(ForceOp::Index)];
    differential::pinned(100, 4, &configs);
}

/// Seeded scripts forced to the scan and to the index answer like the
/// planned reference; for k-NN statements, coarse values make distance
/// ties common, so the tie order is pinned too.
#[test]
fn knn_plans_agree_with_scan_oracle() {
    let configs = [forced(ForceOp::Scan), forced(ForceOp::Index)];
    differential::pinned(200, 4, &configs);
}

/// Seeded scripts under every join force answer like the planned
/// reference; for self-joins, rows in order where the force keeps the pair
/// multiplicity, else as unordered pairs, a forced index join holding each
/// pair both ways.
#[test]
fn join_plans_agree_with_scan_oracle() {
    let forces = [ForceOp::Scan, ForceOp::ScanFull, ForceOp::Index];
    differential::pinned(300, 4, &forces.map(forced));
}

/// Every statement form, run through `Catalog::execute_with` with the
/// scan forced, answers like the planned reference.
#[test]
fn language_level_answers_are_plan_independent() {
    differential::pinned(400, 4, &[forced(ForceOp::Scan)]);
}

/// A catalog restored by `save → open` plans and explains every statement
/// as its in-memory peer does (plan name, non-pool counters, `EXPLAIN`
/// text) and keeps its held windows and snapshot bytes.
#[test]
fn snapshot_round_trip_preserves_plan_choices() {
    let restored = Config {
        storage: Storage::SaveOpen,
        ..Config::REFERENCE
    };
    differential::pinned(500, 4, &[restored]);
}
