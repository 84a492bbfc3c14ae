//! The query language produces exactly what direct engine calls produce.

use tsq_core::{
    IndexConfig, LinearTransform, QueryWindow, ScanMode, SeriesRelation, SimilarityIndex,
};
use tsq_lang::{Catalog, LangError};
use tsq_series::generate::StockGenerator;

fn setup() -> (Catalog, SimilarityIndex, Vec<tsq_series::TimeSeries>) {
    let prices = StockGenerator::new(5001).relation(120, 64);
    let labeled = prices
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, s)| (format!("TK{i:03}"), s))
        .collect();
    let relation = SeriesRelation::from_labeled("stocks", labeled).unwrap();
    let mut catalog = Catalog::new();
    catalog.register(relation).unwrap();
    let index = SimilarityIndex::build(IndexConfig::default(), prices.clone()).unwrap();
    (catalog, index, prices)
}

#[test]
fn similar_equals_engine_range_query() {
    let (catalog, index, prices) = setup();
    let out = catalog
        .run("FIND SIMILAR TO stocks.TK005 IN stocks WITHIN 3 APPLY mavg(10)")
        .unwrap();
    let t = LinearTransform::moving_average(64, 10);
    let (matches, _) = index
        .range_query(&prices[5], 3.0, &t, &QueryWindow::default())
        .unwrap();
    assert_eq!(out.rows.len(), matches.len());
    for (row, m) in out.rows.iter().zip(&matches) {
        assert_eq!(row.a, format!("TK{:03}", m.id));
        assert!((row.distance - m.distance).abs() < 1e-12);
    }
}

#[test]
fn nearest_equals_engine_knn() {
    let (catalog, index, prices) = setup();
    let out = catalog
        .run("FIND 7 NEAREST TO stocks.TK000 IN stocks APPLY reverse")
        .unwrap();
    let t = LinearTransform::reverse(64);
    let (matches, _) = index.knn_query(&prices[0], 7, &t).unwrap();
    assert_eq!(out.rows.len(), 7);
    for (row, m) in out.rows.iter().zip(&matches) {
        assert!((row.distance - m.distance).abs() < 1e-12);
    }
}

#[test]
fn join_equals_engine_join() {
    let (catalog, index, _) = setup();
    let out = catalog
        .run("JOIN stocks WITHIN 1.4 APPLY mavg(20) WITH (force = scan)")
        .unwrap();
    let t = LinearTransform::moving_average(64, 20);
    let outcome = index.join_scan(1.4, &t, ScanMode::EarlyAbandon).unwrap();
    assert_eq!(out.rows.len(), outcome.pairs.len());
}

#[test]
fn unsafe_transform_surfaces_as_engine_error() {
    // mavg has complex multipliers; in a rectangular-space catalog that is
    // an unsafe transformation and must surface as an engine error.
    let prices = StockGenerator::new(5002).relation(30, 32);
    let relation = SeriesRelation::from_series("r", prices).unwrap();
    let cfg = IndexConfig {
        space: tsq_core::SpaceKind::Rectangular,
        ..IndexConfig::default()
    };
    let mut catalog = Catalog::with_config(cfg);
    catalog.register(relation).unwrap();
    let err = catalog
        .run("FIND SIMILAR TO r.s0 IN r WITHIN 1 APPLY mavg(4)")
        .unwrap_err();
    assert!(matches!(
        err,
        LangError::Engine(tsq_core::Error::UnsafeTransform { .. })
    ));
}

#[test]
fn window_clause_equals_engine_window() {
    let (catalog, index, prices) = setup();
    let m = prices[8].mean();
    let out = catalog
        .run(&format!(
            "FIND SIMILAR TO stocks.TK008 IN stocks WITHIN 50 WHERE MEAN BETWEEN {} AND {}",
            m - 2.0,
            m + 2.0
        ))
        .unwrap();
    let w = QueryWindow {
        mean: Some((m - 2.0, m + 2.0)),
        std: None,
    };
    let (matches, _) = index
        .range_query(&prices[8], 50.0, &LinearTransform::identity(64), &w)
        .unwrap();
    assert_eq!(out.rows.len(), matches.len());
}
