//! Sharding oracle, the cases the differential harness
//! (`tests/differential.rs`) does not generate: a sharded relation is an
//! *execution layout*, never a semantic change.
//!
//! - a tie-determinism test duplicates series so kNN distance ties cross
//!   shard boundaries, and demands the unsharded tie order survives the
//!   scatter-gather merge;
//! - a relation whose shards, costed alone, would each pick their own
//!   operator runs one plan on every shard;
//! - subsequence statements answer and explain like the unsharded
//!   relation's, line for line;
//! - the join force matrix at 1, 2, 4 and 8 hash shards and over an
//!   empty shard;
//! - the harness pinned to sharded layouts: appends interleaved with
//!   `SHARD` at one to five shards, `save → open` and a live server at
//!   three.
//!
//! Counter policy: `WITH (force = scan)` plans visit exactly the same
//! series in the same per-shard order as the unsharded scan, so *all*
//! counters match. Index plans prune per-shard trees whose layouts
//! differ from the single big tree, so rows must still match exactly but
//! only the merged == Σ per-shard identity is pinned.

use tsq_testkit::{differential, Config, Storage, Transport};

use tsq::core::plan::ExecStats;
use tsq::core::{
    IndexConfig, LinearTransform, LogicalPlan, PlanChoice, Planner, QueryWindow, RelationStats,
    SeriesRelation, ShardSpec, ShardedIndex,
};
use tsq::lang::{AppendRow, Catalog, QueryOutput};
use tsq::series::generate::RandomWalkGenerator;
use tsq::TimeSeries;

/// Asserts the sharded answer equals the unsharded oracle answer: rows
/// byte-identical, order and distance bits included. A range or k-NN
/// statement is scattered, and its merged counters must be the exact sum
/// of the per-shard counters. Every other statement runs once, under one
/// plainly named plan with no per-shard breakdown: a subsequence statement
/// or a scan join reads the relation's records in the oracle's order, so
/// its whole output is the oracle's; an index join probes one tree per
/// shard for each series, so only its node counts may differ. Only a
/// planned join may choose another operator than the oracle's.
fn assert_sharded_matches(sharded: &QueryOutput, oracle: &QueryOutput, q: &str) {
    assert_eq!(sharded.rows, oracle.rows, "{q}");
    let bits =
        |out: &QueryOutput| -> Vec<u64> { out.rows.iter().map(|r| r.distance.to_bits()).collect() };
    assert_eq!(bits(sharded), bits(oracle), "{q}");
    assert!(
        oracle.shard_stats.is_empty(),
        "{q}: oracle must be unsharded"
    );
    if sharded.plan.starts_with("Sharded(") {
        assert_eq!(
            sharded.stats,
            ExecStats::sum(&sharded.shard_stats),
            "{q}: merged counters must be the exact sum of the shard counters"
        );
        return;
    }
    assert!(
        sharded.shard_stats.is_empty(),
        "{q}: one plan, not scattered"
    );
    match (sharded.plan.as_str(), oracle.plan.as_str()) {
        ("JoinIndex", "JoinIndex") => {
            let counted = |out: &QueryOutput| {
                let s = &out.stats;
                (s.candidates, s.refined, s.false_hits)
            };
            assert_eq!(counted(sharded), counted(oracle), "{q}");
        }
        (got, want) if got == want => assert_eq!(sharded, oracle, "{q}"),
        (got, want) => assert!(
            got.starts_with("Join") && want.starts_with("Join"),
            "{q}: plan {got}, the oracle's {want}"
        ),
    }
}

/// kNN distance ties must break identically across the shard merge: a
/// relation of duplicated series puts exact-tie pairs on *different*
/// shards, and the gather must reproduce the unsharded tie order.
#[test]
fn knn_tie_order_survives_the_shard_merge() {
    let base = RandomWalkGenerator::new(31).relation(8, 24);
    // 16 series, each one an exact duplicate of another: s{i} == s{i+8}.
    let items: Vec<(String, TimeSeries)> = (0..16)
        .map(|i| (format!("s{i}"), base[i % 8].clone()))
        .collect();
    let mut oracle = Catalog::new();
    oracle
        .register(SeriesRelation::from_labeled("w", items.clone()).unwrap())
        .unwrap();

    for shards in [2usize, 3, 5] {
        let mut sharded = Catalog::new();
        sharded
            .register(SeriesRelation::from_labeled("w", items.clone()).unwrap())
            .unwrap();
        sharded
            .run_mut(&format!("SHARD w INTO {shards} BY HASH"))
            .unwrap();
        for q in [
            // k cuts through a tie group: every answer holds ties.
            "FIND 3 NEAREST TO w.s0 IN w",
            "FIND 9 NEAREST TO w.s0 IN w",
            "FIND 16 NEAREST TO w.s3 IN w",
        ] {
            let got = sharded.run(q).unwrap();
            let want = oracle.run(q).unwrap();
            assert_sharded_matches(&got, &want, &format!("{q} [{shards} by hash]"));
        }
    }
}

/// One plan per statement: a hash-sharded relation whose shards hold 1,
/// 1 and 2 001 series, where each shard costed alone would choose its own
/// operator (the one-series shards a scan, the big shard its index). The
/// labels are drawn for that layout: the three first series hash to shards
/// 0, 1 and 2, and the 2 000 appended ones to shard 2. The
/// relation's range and k-NN statements run one operator on every shard,
/// whose `considered:` estimates are the per-shard sums, and answer the
/// unsharded relation's rows.
#[test]
fn a_statement_runs_one_plan_on_every_shard() {
    let spec = ShardSpec::hash(3).unwrap();
    let walks = RandomWalkGenerator::new(7).relation(3, 64);
    let items: Vec<(String, TimeSeries)> = ["s0", "s1", "s3"]
        .into_iter()
        .map(String::from)
        .zip(walks)
        .collect();
    let mut gen = RandomWalkGenerator::new(8);
    let labels = (0..).map(|i| format!("t{i}"));
    let fresh: Vec<AppendRow> = labels
        .filter(|label| spec.assign(label) == 2)
        .take(2000)
        .map(|label| AppendRow {
            label,
            values: gen.series(64).values().to_vec(),
        })
        .collect();
    let probe = fresh[5].label.clone();
    let mut oracle = Catalog::new();
    let mut sharded = Catalog::new();
    for cat in [&mut oracle, &mut sharded] {
        cat.register(SeriesRelation::from_labeled("w", items.clone()).unwrap())
            .unwrap();
    }
    sharded.run_mut("SHARD w INTO 3 BY HASH").unwrap();
    for cat in [&mut oracle, &mut sharded] {
        cat.append("w", &fresh).unwrap();
    }
    let (_, _, sizes) = sharded.shard_layout("w").unwrap();
    assert_eq!(sizes, [1, 1, 2001]);
    for q in [
        format!("FIND SIMILAR TO w.{probe} IN w WITHIN 1"),
        format!("FIND 3 NEAREST TO w.{probe} IN w"),
    ] {
        let q = q.as_str();
        let got = sharded.run(q).unwrap();
        let want = oracle.run(q).unwrap();
        assert_eq!(got.plan, format!("Sharded(3):{}", want.plan), "{q}");
        assert_sharded_matches(&got, &want, q);
        let text = sharded
            .run(&format!("EXPLAIN {q}"))
            .unwrap()
            .explain
            .unwrap();
        assert_eq!(text.matches("=>").count(), 1, "{q}\n{text}");
        assert!(text.contains("sharded: 3 shard(s) by hash"), "{q}\n{text}");
    }

    // The same relation through the engine: each shard's own plan, next to
    // the relation's.
    let rel = oracle.relation("w").unwrap();
    let index = ShardedIndex::build(IndexConfig::default(), rel, spec).unwrap();
    let query = rel.get(8).unwrap().clone();
    assert_eq!(rel.label(8), Some(probe.as_str()));
    let statements = [
        LogicalPlan::Range {
            relation: "w".into(),
            query: query.clone(),
            eps: 1.0,
            transform: LinearTransform::identity(64),
            window: QueryWindow::default(),
        },
        LogicalPlan::Knn {
            relation: "w".into(),
            query,
            k: 3,
            transform: LinearTransform::identity(64),
        },
    ];
    for logical in &statements {
        let alone: Vec<PlanChoice> = index
            .parts()
            .iter()
            .map(|part| {
                let stats = RelationStats::from_index(part);
                Planner::new(part, &stats)
                    .plan(logical, None, None)
                    .unwrap()
            })
            .collect();
        let ops: Vec<&str> = alone.iter().map(|c| c.plan.op.name()).collect();
        assert_ne!(ops[0], ops[2], "the shards alone disagree: {ops:?}");
        let mut sums = alone[0].considered.clone();
        for choice in &alone[1..] {
            for (sum, (name, estimate)) in sums.iter_mut().zip(&choice.considered) {
                assert_eq!(sum.0, *name);
                sum.1 += *estimate;
            }
        }
        let plan = index.plan_shards(logical, None).unwrap();
        assert_eq!(plan.considered, sums, "{logical:?}");
        let outcome = index.execute(logical, None, 2).unwrap();
        assert_eq!(outcome.plan, plan);
        assert_eq!(outcome.per_shard.len(), 3);
    }
}

/// Subsequence statements are not scattered: on a relation sharded 2, 3
/// and 4 ways by hash, every subsequence statement — range
/// and kNN, at the held window and past it (PrefixSearch), before and
/// after an `APPEND` chain that grows known labels and adds new ones —
/// returns the unsharded relation's output exactly, and its
/// `EXPLAIN ANALYZE` renders the unsharded plan: one operator line, the
/// same alternatives and actual counters, and a relation line that counts
/// the whole relation.
#[test]
fn subsequence_statements_answer_and_explain_like_the_unsharded_relation() {
    const WINDOW: usize = 8;
    let walks = RandomWalkGenerator::new(71).relation(24, 40);
    // A stretch of one stored series: every statement has an answer.
    let literal = |len: usize| -> String {
        let values: Vec<String> = walks[5].values()[3..3 + len]
            .iter()
            .map(|v| v.to_string())
            .collect();
        format!("[{}]", values.join(", "))
    };
    // The first statement is at the window, so it builds window 8; the
    // longer ones probe that build by its prefix.
    let mut statements = Vec::new();
    for len in [WINDOW, WINDOW + 5, 2 * WINDOW + 3] {
        let q = literal(len);
        statements.push(format!(
            "FIND SUBSEQUENCE OF {q} IN w WITHIN 6 WINDOW {len}"
        ));
        statements.push(format!(
            "FIND 7 NEAREST SUBSEQUENCE OF {q} IN w WINDOW {len}"
        ));
    }
    // Known labels grow by uneven amounts (the relation goes ragged) and
    // new labels enter, shorter and longer than the rest.
    let appends = [
        "APPEND w CSV (s3, 1, 2, 3) (n0, 0.5, 1.5, 2.5, 1, 0, -1, -2, -1, 0, 1) (s17, -0.5)",
        "APPEND w CSV (n1, 3, 2, 1, 0, 1, 2, 3, 4, 3, 2, 1, 0, -1, -2) (s0, 0.25, 0.5) (n0, 9)",
    ];
    // The lines of an `EXPLAIN ANALYZE` text that begin with `prefix`.
    let lines = |text: &str, prefix: &str| -> Vec<String> {
        let found = text.lines().filter(|l| l.trim_start().starts_with(prefix));
        found.map(str::to_string).collect()
    };
    for shards in [2usize, 3, 4] {
        let mut oracle = Catalog::new();
        let mut sharded = Catalog::new();
        for cat in [&mut oracle, &mut sharded] {
            cat.register(SeriesRelation::from_series("w", walks.clone()).unwrap())
                .unwrap();
        }
        sharded
            .run_mut(&format!("SHARD w INTO {shards} BY HASH"))
            .unwrap();
        for round in 0..=appends.len() {
            if round > 0 {
                oracle.run_mut(appends[round - 1]).unwrap();
                sharded.run_mut(appends[round - 1]).unwrap();
            }
            let total = oracle.relation("w").unwrap().len();
            for q in &statements {
                let cell = format!("{q} [{shards} by hash, round {round}]");
                let want = oracle.run(q).unwrap();
                let got = sharded.run(q).unwrap();
                assert_eq!(want.plan, "SubseqIndexProbe", "{cell}");
                assert!(!want.rows.is_empty(), "{cell}: the statement must answer");
                assert_sharded_matches(&got, &want, &cell);

                let explain = format!("EXPLAIN ANALYZE {q}");
                let want = oracle.run(&explain).unwrap();
                let got = sharded.run(&explain).unwrap();
                assert_eq!(
                    got,
                    QueryOutput {
                        explain: got.explain.clone(),
                        ..want.clone()
                    },
                    "{cell}"
                );
                let (got, want) = (got.explain.unwrap(), want.explain.unwrap());
                assert!(
                    !got.contains("shard"),
                    "{cell}: one plan, not shard blocks\n{got}"
                );
                for prefix in ["=>", "considered:", "actual:"] {
                    assert_eq!(lines(&got, prefix), lines(&want, prefix), "{cell}\n{got}");
                    assert_eq!(lines(&got, prefix).len(), 1, "{cell}\n{got}");
                }
                // The relation line counts the relation, not shard 0.
                let relation = lines(&got, "relation:");
                let counted = |line: &String| line.split(';').next().unwrap().to_string();
                assert_eq!(relation.len(), 1, "{cell}\n{got}");
                assert_eq!(
                    relation.iter().map(counted).collect::<Vec<_>>(),
                    lines(&want, "relation:")
                        .iter()
                        .map(counted)
                        .collect::<Vec<_>>(),
                    "{cell}"
                );
                assert!(relation[0].contains(&format!(" {total} series ")), "{cell}");
                assert!(
                    relation[0].contains(&format!(" {shards} 6-d R*-trees")),
                    "{cell}"
                );
            }
        }
    }
}

/// The reference's layout at `shards` hash shards.
fn sharded(shards: usize) -> Config {
    Config {
        shards,
        ..Config::REFERENCE
    }
}

/// Scripts that interleave `APPEND`s (new labels, ragged stretches) and
/// `SHARD` statements with every query form answer at one to five hash
/// shards like the one-shard reference: rows and distance bits, merged
/// counters summing one block per shard, and a final snapshot equal to a
/// fresh catalog's at the same shard count.
#[test]
fn sharded_answers_are_byte_identical_under_append_interleavings() {
    let configs: Vec<Config> = (1..=5).map(sharded).collect();
    differential::pinned(600, 4, &configs);
}

/// The join matrix: every `force` a join can carry, and none, at 1, 2, 4
/// and 8 hash shards, plus a layout with empty
/// shards. A join is not scattered: it runs once under one plainly named
/// plan, with no per-shard counters. Rows — multiplicity (once per pair,
/// twice under `index`), order and distance bits — equal the one-shard
/// relation's; so does the whole output under the scan forces, and the
/// candidates, refines and false hits under `index`. `EXPLAIN ANALYZE`
/// renders one plan, whose scan estimates cover every pair of the
/// relation, and no shard lines.
#[test]
fn sharded_join_matrix_matches_the_one_shard_relation() {
    let catalog = |series: Vec<TimeSeries>| {
        let mut cat = Catalog::new();
        cat.register(SeriesRelation::from_series("w", series).unwrap())
            .unwrap();
        cat
    };
    let walks = RandomWalkGenerator::new(83).relation(36, 24);
    // (series, shard count): the full matrix, then five series over eight
    // shards, which leaves at least three shards empty.
    let mut layouts: Vec<(&[TimeSeries], usize)> = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        layouts.push((&walks, shards));
    }
    layouts.push((&walks[..5], 8));
    // The lines of an `EXPLAIN ANALYZE` text that begin with `prefix`.
    let lines = |text: &str, prefix: &str| -> Vec<String> {
        let found = text.lines().filter(|l| l.trim_start().starts_with(prefix));
        found.map(str::to_string).collect()
    };
    // The `considered:` alternatives that scan, with their totals.
    let scans = |text: &str| -> Vec<String> {
        let considered = lines(text, "considered:").concat();
        let alternatives = considered.split(':').nth(1).unwrap().split('|');
        let scans = alternatives.filter(|alt| alt.contains("JoinScan"));
        scans.map(|alt| alt.trim().to_string()).collect()
    };

    for (series, shards) in layouts {
        let one = catalog(series.to_vec());
        let mut sharded = catalog(series.to_vec());
        sharded
            .run_mut(&format!("SHARD w INTO {shards} BY HASH"))
            .unwrap();
        if series.len() == 5 {
            let (_, _, sizes) = sharded.shard_layout("w").unwrap();
            assert!(sizes.contains(&0), "the layout must hold an empty shard");
        }
        let pairs = series.len() * (series.len() - 1) / 2;
        for force in ["", "scan", "scanfull", "index"] {
            let with = if force.is_empty() {
                String::new()
            } else {
                format!(" WITH (force = {force})")
            };
            let q = format!("JOIN w WITHIN 4 APPLY mavg(4){with}");
            let cell = format!("{q} [{} series, {shards} by hash]", series.len());
            let got = sharded.run(&q).unwrap();
            let want = one.run(&q).unwrap();
            assert!(
                !want.rows.is_empty() && want.rows.len() < 2 * pairs,
                "{cell}: the join must be selective, found {} rows",
                want.rows.len()
            );
            let key = |out: &QueryOutput| -> Vec<(String, Option<String>, u64)> {
                out.rows
                    .iter()
                    .map(|r| (r.a.clone(), r.b.clone(), r.distance.to_bits()))
                    .collect()
            };
            assert_eq!(key(&got), key(&want), "{cell}");
            assert!(!got.plan.contains("Sharded"), "{cell}: {}", got.plan);
            assert!(got.shard_stats.is_empty(), "{cell}");
            if force.is_empty() {
                assert_eq!(got.plan, want.plan, "{cell}: the planned join");
            }
            assert_sharded_matches(&got, &want, &cell);
            if force != "index" {
                assert_eq!(got, want, "{cell}");
            }

            let explain = format!("EXPLAIN ANALYZE {q}");
            let got = sharded.run(&explain).unwrap().explain.unwrap();
            let want = one.run(&explain).unwrap().explain.unwrap();
            assert!(!got.contains("shard"), "{cell}: no shard lines\n{got}");
            for prefix in ["=>", "considered:", "actual:"] {
                assert_eq!(lines(&got, prefix).len(), 1, "{cell}\n{got}");
            }
            assert_eq!(scans(&got), scans(&want), "{cell}\n{got}");
            if force.starts_with("scan") {
                let every_pair = format!("candidates {pairs}.0, refines {pairs}.0)");
                assert!(lines(&got, "=>")[0].ends_with(&every_pair), "{cell}\n{got}");
                for prefix in ["=>", "actual:"] {
                    assert_eq!(lines(&got, prefix), lines(&want, prefix), "{cell}");
                }
            }
        }
    }
}

/// A sharded catalog restored by `save → open` answers like the
/// reference, and its final snapshot is its own save and restore's and a
/// fresh catalog's at the same shard count.
#[test]
fn sharded_snapshot_save_open_save_round_trips() {
    let restored = Config {
        storage: Storage::SaveOpen,
        ..sharded(3)
    };
    differential::pinned(800, 4, &[restored]);
}

/// Over a live server's binary protocol, at one and three shards, every
/// statement answers like the reference; each read renders alike over
/// HTTP and the server's metrics count what its client saw.
#[test]
fn sharded_answers_match_the_oracle_through_a_live_server() {
    let configs = [1, 3].map(|shards| Config {
        transport: Transport::Wire,
        ..sharded(shards)
    });
    differential::pinned(900, 3, &configs);
}
