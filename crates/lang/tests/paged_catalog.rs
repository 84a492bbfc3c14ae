//! Paged catalogs answer byte-identically to in-memory catalogs.
//!
//! `Catalog::open_paged` restores a snapshot and then moves every
//! relation's R\*-tree behind a pin-counted buffer pool. Storage mode is
//! an execution detail: every query form — range, k-NN, both joins, and
//! subsequence search — returns the same rows, plans, and traversal
//! counters; only the measured `pool_hits`/`pool_misses` differ (zero in
//! memory, real page traffic when paged).

use std::path::PathBuf;

use tsq_core::SeriesRelation;
use tsq_lang::Catalog;
use tsq_series::generate::{RandomWalkGenerator, StockGenerator};

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tsq-paged-catalog-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    cat.register(
        SeriesRelation::from_series("walks", RandomWalkGenerator::new(61).relation(80, 32))
            .unwrap(),
    )
    .unwrap();
    cat.register(
        SeriesRelation::from_series("stocks", StockGenerator::new(62).relation(40, 32)).unwrap(),
    )
    .unwrap();
    cat
}

/// Every query form, including the subsequence paths (which stay
/// unpaged: ST-indexes are built on demand from the in-memory series).
fn workload() -> Vec<String> {
    vec![
        "FIND SIMILAR TO walks.s1 IN walks WITHIN 2.5".into(),
        "FIND SIMILAR TO walks.s0 IN walks WITHIN 5 APPLY mavg(4)".into(),
        "FIND 6 NEAREST TO stocks.s3 IN stocks".into(),
        "FIND 4 NEAREST TO walks.s2 IN walks APPLY reverse".into(),
        "JOIN stocks WITHIN 1.5 APPLY mavg(4) WITH (force = index)".into(),
        "JOIN walks WITHIN 1.0".into(),
        "FIND SUBSEQUENCE OF walks.s5 IN walks WITHIN 40 WINDOW 32".into(),
        "FIND 3 NEAREST SUBSEQUENCE OF stocks.s1 IN stocks WINDOW 32".into(),
    ]
}

#[test]
fn open_paged_answers_every_query_form_identically() {
    let cat = catalog();
    let path = temp_path("equivalence.tsq");
    cat.save(&path).unwrap();

    let mut mem = Catalog::new();
    mem.open(&path).unwrap();
    // A thrashing 1 MiB pool and an effectively unbounded one must both
    // agree with memory — capacity only moves hit/miss traffic around.
    for budget_mib in [1usize, 4096] {
        let paged_path = temp_path(&format!("equivalence-{budget_mib}.tsq"));
        std::fs::copy(&path, &paged_path).unwrap();
        let mut paged = Catalog::new();
        let restored = paged.open_paged(&paged_path, budget_mib).unwrap();
        assert_eq!(restored, vec!["stocks".to_string(), "walks".to_string()]);
        for q in workload() {
            let a = mem.run(&q).unwrap();
            let b = paged.run(&q).unwrap();
            assert_eq!(a.rows, b.rows, "{q}: rows differ at {budget_mib} MiB");
            assert_eq!(a.plan, b.plan, "{q}: plan differs at {budget_mib} MiB");
            assert_eq!(a.stats.candidates, b.stats.candidates, "{q}");
            assert_eq!(a.stats.refined, b.stats.refined, "{q}");
            assert_eq!(a.stats.false_hits, b.stats.false_hits, "{q}");
            assert_eq!(a.stats.nodes_visited, b.stats.nodes_visited, "{q}");
            assert_eq!(a.stats.disk_accesses, b.stats.disk_accesses, "{q}");
            // Memory never touches a pool.
            assert_eq!(a.stats.pool_hits + a.stats.pool_misses, 0, "{q}");
        }
    }
}

#[test]
fn paged_explain_analyze_reports_measured_pool_traffic() {
    let cat = catalog();
    let path = temp_path("analyze.tsq");
    cat.save(&path).unwrap();

    let mut mem = Catalog::new();
    mem.open(&path).unwrap();
    let mut paged = Catalog::new();
    paged.open_paged(&path, 64).unwrap();

    let q = "EXPLAIN ANALYZE FIND SIMILAR TO walks.s1 IN walks WITHIN 2.5";
    let plain = mem.run(q).unwrap();
    let measured = paged.run(q).unwrap();
    let plain_text = plain.explain.expect("explain text");
    let measured_text = measured.explain.expect("explain text");
    assert!(
        !plain_text.contains("measured:"),
        "in-memory must not claim measured I/O:\n{plain_text}"
    );
    assert!(
        measured_text.contains("measured: pool_hits="),
        "paged EXPLAIN ANALYZE must report measured I/O:\n{measured_text}"
    );
    // Cold pool: the first index traversal faulted real pages in.
    assert!(measured.stats.pool_misses > 0, "cold pool must miss");
    // Warm re-run: everything resident, zero misses.
    let warm = paged.run(q).unwrap();
    assert_eq!(warm.stats.pool_misses, 0, "warm pool must not fault");
    assert_eq!(warm.stats.pool_hits, warm.stats.nodes_visited);
}

#[test]
fn paged_relations_reject_append_with_a_typed_error() {
    let cat = catalog();
    let path = temp_path("append-reject.tsq");
    cat.save(&path).unwrap();
    let mut paged = Catalog::new();
    paged.open_paged(&path, 8).unwrap();

    // The page file is immutable: APPEND must come back as the typed
    // `Unsupported` engine error — never a panic — at both entry points.
    let err = paged
        .run_mut("APPEND walks s0 VALUES (1.5, 2.0)")
        .unwrap_err();
    match &err {
        tsq_lang::LangError::Engine(tsq_core::Error::Unsupported(m)) => {
            assert!(m.contains("paged"), "message should name the cause: {m}")
        }
        other => panic!("expected Engine(Unsupported), got {other:?}"),
    }

    // The rejection is mapped to the service's own typed error (wire
    // code `unsupported`, HTTP 409) by the Engine impl.
    let shared = tsq_lang::SharedCatalog::new(paged);
    match tsq_service::Engine::append(
        &shared,
        "walks",
        vec![tsq_service::IngestRow {
            label: "s0".into(),
            values: vec![1.0],
        }],
    ) {
        Err(tsq_service::EngineError::Unsupported(m)) => assert!(m.contains("paged")),
        other => panic!("expected EngineError::Unsupported, got {other:?}"),
    }

    // The catalog survives and still answers queries afterwards.
    let out = tsq_service::Engine::execute(&shared, "FIND 3 NEAREST TO walks.s1 IN walks").unwrap();
    assert_eq!(out.rows.len(), 3);
}

#[test]
fn open_paged_rejects_double_attach_and_missing_snapshot() {
    let cat = catalog();
    let path = temp_path("double.tsq");
    cat.save(&path).unwrap();
    let mut paged = Catalog::new();
    paged.open_paged(&path, 8).unwrap();
    // A second paged open collides with the already-restored relations
    // (same duplicate-name rules as plain `open`).
    assert!(paged.open_paged(&path, 8).is_err());
    // A missing snapshot is a typed error, not a panic, and leaves the
    // catalog untouched.
    let mut fresh = Catalog::new();
    assert!(fresh
        .open_paged(&temp_path("does-not-exist.tsq"), 8)
        .is_err());
    assert!(fresh.relation_names().is_empty());
}
