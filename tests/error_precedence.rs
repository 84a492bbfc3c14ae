//! Error-precedence matrix: a statement with several defects at once
//! reports the *same first error* at every layer that can run it.
//!
//! The one validation order is: ragged relation, then threshold, then
//! transformation (a time warp under a self-join, then arity, then
//! safety), then query length. Every whole-match form (range, k-NN,
//! join) is crossed with every combination of those defects, in both
//! coordinate spaces, and posed to the direct [`SimilarityIndex`] entry
//! points (index, precomputed-features and scan), [`Planner::plan`], [`execute_plan`] with
//! every operator of the form, a 1-shard and a 4-shard [`ShardedIndex`]
//! (`plan_shards` and `execute`), and — where the language can spell the
//! statement — a [`Catalog`].

use std::panic::{catch_unwind, AssertUnwindSafe};

use tsq_core::shard::{ShardSpec, ShardedIndex};
use tsq_core::{
    execute_plan, CostEstimate, Error, ForceOp, IndexConfig, LinearTransform, LogicalPlan,
    PhysicalOp, PhysicalPlan, Planner, QueryWindow, RelationStats, ScanMode, SeriesRelation,
    SimilarityIndex, SpaceKind,
};
use tsq_dft::Complex64;
use tsq_lang::{parse, Catalog, LangError, Query};
use tsq_series::generate::RandomWalkGenerator;
use tsq_series::TimeSeries;

const N: usize = 32;
const BAD_EPS: f64 = -1.0;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Form {
    Range,
    Knn,
    Join,
}

/// One transformation of the matrix with the defects it carries.
struct Tx {
    name: &'static str,
    /// `APPLY` spelling, when the language has one.
    apply: Option<&'static str>,
    build: fn(usize) -> LinearTransform,
    warp: bool,
    unsafe_rect: bool,
    unsafe_polar: bool,
}

/// Real multipliers with a non-zero translation on the first indexed
/// coefficient and its mirror (so it maps real series to real series):
/// safe in `S_rect` (Theorem 2), unsafe in `S_pol` (Theorem 3).
fn translated(n: usize) -> LinearTransform {
    let mut b = vec![Complex64::new(0.0, 0.0); n];
    b[1] = Complex64::new(1.0, 0.0);
    b[n - 1] = b[1].conj();
    LinearTransform::from_parts(vec![Complex64::new(1.0, 0.0); n], b, "translated").unwrap()
}

const TRANSFORMS: [Tx; 4] = [
    Tx {
        name: "reverse",
        apply: Some("reverse"),
        build: LinearTransform::reverse,
        warp: false,
        unsafe_rect: false,
        unsafe_polar: false,
    },
    Tx {
        name: "mavg(4)",
        apply: Some("mavg(4)"),
        build: |n| LinearTransform::moving_average(n, 4),
        warp: false,
        unsafe_rect: true,
        unsafe_polar: false,
    },
    Tx {
        name: "warp(2)",
        apply: Some("warp(2)"),
        build: |n| LinearTransform::time_warp(n, 2),
        warp: true,
        unsafe_rect: true,
        unsafe_polar: false,
    },
    Tx {
        name: "translated",
        apply: None,
        build: translated,
        warp: false,
        unsafe_rect: false,
        unsafe_polar: true,
    },
];

/// The first error of the one validation order (`"ok"` when the
/// statement has no defect the form cares about).
fn expected(
    form: Form,
    space: SpaceKind,
    ragged: bool,
    bad_eps: bool,
    tx: &Tx,
    bad_arity: bool,
    bad_len: bool,
) -> &'static str {
    let unsafe_here = match space {
        SpaceKind::Rectangular => tx.unsafe_rect,
        SpaceKind::Polar => tx.unsafe_polar,
    };
    if ragged {
        "Ragged"
    } else if form != Form::Knn && bad_eps {
        "NegativeThreshold"
    } else if form == Form::Join && tx.warp {
        "Unsupported"
    } else if bad_arity {
        "TransformArity"
    } else if unsafe_here {
        "UnsafeTransform"
    } else if form != Form::Join && bad_len {
        "LengthMismatch"
    } else {
        "ok"
    }
}

fn kind(e: &Error) -> String {
    match e {
        Error::Ragged { .. } => "Ragged".into(),
        Error::NegativeThreshold { .. } => "NegativeThreshold".into(),
        Error::Unsupported(_) => "Unsupported".into(),
        Error::TransformArity { .. } => "TransformArity".into(),
        Error::UnsafeTransform { .. } => "UnsafeTransform".into(),
        Error::LengthMismatch { .. } => "LengthMismatch".into(),
        other => format!("{other:?}"),
    }
}

/// Outcome of one layer: `"ok"`, the error kind, or `"PANIC"`.
fn outcome<T>(f: impl FnOnce() -> Result<T, Error>) -> String {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(_)) => "ok".into(),
        Ok(Err(e)) => kind(&e),
        Err(_) => "PANIC".into(),
    }
}

/// One relation in every shape a layer needs.
struct World {
    index: SimilarityIndex,
    stats: RelationStats,
    one: ShardedIndex,
    four: ShardedIndex,
    catalog: Catalog,
}

fn world(space: SpaceKind, ragged: bool) -> World {
    let mut series = RandomWalkGenerator::new(1997).relation(20, N);
    if ragged {
        series.push(RandomWalkGenerator::new(7).series(N / 2));
    }
    let config = IndexConfig {
        space,
        ..IndexConfig::default()
    };
    let relation = SeriesRelation::from_series("r", series.clone()).unwrap();
    let index = SimilarityIndex::build(config, series).unwrap();
    let stats = RelationStats::from_index(&index);
    let one = ShardedIndex::build(config, &relation, ShardSpec::hash(1).unwrap()).unwrap();
    let four = ShardedIndex::build(config, &relation, ShardSpec::hash(4).unwrap()).unwrap();
    let mut catalog = Catalog::with_config(config);
    catalog.register(relation).unwrap();
    World {
        index,
        stats,
        one,
        four,
        catalog,
    }
}

fn forged(op: PhysicalOp) -> PhysicalPlan {
    PhysicalPlan {
        op,
        estimate: CostEstimate::default(),
        forced: true,
    }
}

/// Every layer's outcome for one statement, as `(layer, outcome)`.
fn layers(
    w: &World,
    form: Form,
    q: &TimeSeries,
    eps: f64,
    t: &LinearTransform,
) -> Vec<(String, String)> {
    let idx = &w.index;
    let window = QueryWindow::default();
    let mut out: Vec<(String, String)> = Vec::new();
    let mut push = |layer: &str, got: String| out.push((layer.to_string(), got));
    let (logical, ops): (LogicalPlan, Vec<PhysicalOp>) = match form {
        Form::Range => {
            push(
                "range_query",
                outcome(|| idx.range_query(q, eps, t, &window)),
            );
            push(
                "scan_range",
                outcome(|| idx.scan_range(q, eps, t, ScanMode::EarlyAbandon)),
            );
            (
                LogicalPlan::Range {
                    relation: "r".into(),
                    query: q.clone(),
                    eps,
                    transform: t.clone(),
                    window,
                },
                vec![
                    PhysicalOp::IndexRange,
                    PhysicalOp::EarlyAbandonScan,
                    PhysicalOp::SeqScan,
                ],
            )
        }
        Form::Knn => {
            push("knn_query", outcome(|| idx.knn_query(q, 3, t)));
            push("scan_knn", outcome(|| idx.scan_knn(q, 3, t)));
            (
                LogicalPlan::Knn {
                    relation: "r".into(),
                    query: q.clone(),
                    k: 3,
                    transform: t.clone(),
                },
                vec![PhysicalOp::IndexKnn, PhysicalOp::SeqScan],
            )
        }
        Form::Join => {
            push(
                "join_scan",
                outcome(|| idx.join_scan(eps, t, ScanMode::EarlyAbandon)),
            );
            push("join_index", outcome(|| idx.join_index(eps, t)));
            (
                LogicalPlan::Join {
                    relation: "r".into(),
                    eps,
                    transform: t.clone(),
                },
                vec![
                    PhysicalOp::JoinScan {
                        mode: ScanMode::EarlyAbandon,
                    },
                    PhysicalOp::JoinIndex { dedup: true },
                ],
            )
        }
    };
    push(
        "Planner::plan",
        outcome(|| Planner::new(idx, &w.stats).plan(&logical, None, None)),
    );
    for op in ops {
        push(
            &format!("execute_plan[{}]", op.name()),
            outcome(|| execute_plan(&logical, &forged(op), idx, None)),
        );
    }
    for (name, sharded) in [("1-shard", &w.one), ("4-shard", &w.four)] {
        for force in [None, Some(ForceOp::Scan)] {
            push(
                &format!("{name} plan_shards {force:?}"),
                outcome(|| sharded.plan_shards(&logical, force)),
            );
            push(
                &format!("{name} execute {force:?}"),
                outcome(|| sharded.execute(&logical, force, 2)),
            );
        }
    }
    if form == Form::Join {
        // A forced join pins the operator before costing anything.
        for force in [ForceOp::ScanFull, ForceOp::Index] {
            push(
                &format!("4-shard execute {force:?}"),
                outcome(|| w.four.execute(&logical, Some(force), 2)),
            );
        }
    }
    out
}

/// The statement through the language, when it can be spelled: parsed
/// from text, the threshold patched in afterwards (the parser rejects a
/// negative literal before any engine layer sees it).
fn through_catalog(
    w: &World,
    form: Form,
    q: &TimeSeries,
    eps: f64,
    apply: &str,
) -> Vec<(String, String)> {
    let literal: Vec<String> = q.values().iter().map(|v| format!("{v}")).collect();
    let literal = literal.join(", ");
    let forces: &[&str] = match form {
        Form::Join => &["", "scan", "scanfull", "index"],
        _ => &["", "scan", "index"],
    };
    let mut out = Vec::new();
    for force in forces {
        let with = if force.is_empty() {
            String::new()
        } else {
            format!(" WITH (force = {force})")
        };
        let text = match form {
            Form::Range => format!("FIND SIMILAR TO [{literal}] IN r WITHIN 1 APPLY {apply}{with}"),
            Form::Knn => format!("FIND 3 NEAREST TO [{literal}] IN r APPLY {apply}{with}"),
            Form::Join => format!("JOIN r WITHIN 1 APPLY {apply}{with}"),
        };
        for explain in ["", "EXPLAIN ", "EXPLAIN ANALYZE "] {
            let mut query = parse(&format!("{explain}{text}")).unwrap();
            let inner = match &mut query {
                Query::Explain { query, .. } => &mut **query,
                other => other,
            };
            match inner {
                Query::Similar { eps: e, .. } | Query::Join { eps: e, .. } => *e = eps,
                _ => {}
            }
            let got = match catch_unwind(AssertUnwindSafe(|| w.catalog.execute(&query))) {
                Ok(Ok(_)) => "ok".to_string(),
                Ok(Err(LangError::Engine(e))) => kind(&e),
                Ok(Err(other)) => format!("{other:?}"),
                Err(_) => "PANIC".to_string(),
            };
            out.push((format!("Catalog {explain}force={force:?}"), got));
        }
    }
    out
}

#[test]
fn every_layer_reports_the_same_first_error() {
    let mut disagreements: Vec<String> = Vec::new();
    let mut cells = 0usize;
    for space in [SpaceKind::Polar, SpaceKind::Rectangular] {
        for ragged in [false, true] {
            let w = world(space, ragged);
            for form in [Form::Range, Form::Knn, Form::Join] {
                for bad_eps in [false, true] {
                    if form == Form::Knn && bad_eps {
                        continue; // k-NN has no threshold
                    }
                    for tx in &TRANSFORMS {
                        for bad_arity in [false, true] {
                            for bad_len in [false, true] {
                                if form == Form::Join && bad_len {
                                    continue; // a self-join has no query
                                }
                                let t = (tx.build)(if bad_arity { N / 2 } else { N });
                                let len = if bad_len {
                                    20
                                } else if tx.warp {
                                    2 * N
                                } else {
                                    N
                                };
                                let q = RandomWalkGenerator::new(3).series(len);
                                let eps = if bad_eps { BAD_EPS } else { 1.0 };
                                let want =
                                    expected(form, space, ragged, bad_eps, tx, bad_arity, bad_len);
                                let mut got = layers(&w, form, &q, eps, &t);
                                if let (Some(apply), false) = (tx.apply, bad_arity) {
                                    got.extend(through_catalog(&w, form, &q, eps, apply));
                                }
                                cells += 1;
                                for (layer, outcome) in got {
                                    if outcome != want {
                                        disagreements.push(format!(
                                            "{form:?} {space:?} ragged={ragged} bad_eps={bad_eps} \
                                             t={}{} bad_len={bad_len}: {layer} -> {outcome}, want {want}",
                                            tx.name,
                                            if bad_arity { "/wrong-arity" } else { "" },
                                        ));
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    assert_eq!(cells, 2 * 2 * (16 * 2 + 16 + 8 * 2));
    assert!(
        disagreements.is_empty(),
        "{} layer outcome(s) off the one validation order:\n{}",
        disagreements.len(),
        disagreements.join("\n")
    );
}

/// An empty relation has no series length for a transformation to fit,
/// so binding skips arity and safety there — the safety check used to
/// index the multipliers of a zero-length transformation and panic,
/// whichever statement the catalog was handed.
#[test]
fn an_empty_relation_answers_or_rejects_but_never_panics() {
    let mut cat = Catalog::new();
    cat.register(SeriesRelation::new("e")).unwrap();
    for shards in [1, 4] {
        cat.run_mut(&format!("SHARD e INTO {shards} BY HASH"))
            .unwrap();
        for explain in ["", "EXPLAIN ", "EXPLAIN ANALYZE "] {
            for force in ["", " WITH (force = scan)", " WITH (force = index)"] {
                let join = cat
                    .run(&format!("{explain}JOIN e WITHIN 1{force}"))
                    .unwrap();
                assert!(join.rows.is_empty());
                for text in [
                    "FIND SIMILAR TO [1, 2, 3, 4] IN e WITHIN 1",
                    "FIND 2 NEAREST TO [1, 2, 3, 4] IN e",
                ] {
                    let err = cat.run(&format!("{explain}{text}{force}")).unwrap_err();
                    assert!(
                        matches!(
                            err,
                            LangError::Engine(Error::LengthMismatch {
                                expected: 0,
                                got: 4
                            })
                        ),
                        "{explain}{text}{force} on {shards} shard(s): {err:?}"
                    );
                }
            }
        }
    }
}
