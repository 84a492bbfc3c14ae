//! Subsequence search: find every place a short pattern occurs inside a
//! relation of longer series, without scanning every window.
//!
//! The ST-index slides a window over each stored series, turns each window
//! into its first `k` DFT coefficients via the incremental sliding DFT
//! (`O(k)` per step), and packs runs of consecutive feature points into
//! trail MBRs inside an R\*-tree. Range and k-NN queries traverse trails,
//! then verify candidates exactly — no false dismissals (Lemma 1 restated
//! for subsequences), which this example double-checks against the naive
//! sliding scan.
//!
//! Run with: `cargo run --release --example subsequence_search`

use tsq_core::{ScanMode, SubseqConfig, SubseqIndex};
use tsq_lang::Catalog;
use tsq_series::generate::RandomWalkGenerator;
use tsq_series::TimeSeries;

fn main() {
    // 1. A relation of 300 random walks, deliberately varied in length —
    //    subsequence search does not need equal-length series.
    let mut gen = RandomWalkGenerator::new(20_260_727);
    let relation: Vec<TimeSeries> = (0..300).map(|i| gen.series(256 + (i % 7) * 32)).collect();

    let window = 48;
    let index = SubseqIndex::build(SubseqConfig::new(window), relation.clone()).expect("build");
    let trails = index.trails();
    println!(
        "ST-index over {} series: {} windows of length {} in {} trail MBRs (k = {})",
        trails.len(),
        trails.windows_total(),
        window,
        trails.trails_total(),
        trails.config().k,
    );

    // 2. The pattern: a stored window with a little noise on top, so it is
    //    genuinely absent from the data but close to one resident window.
    let q = TimeSeries::new(
        relation[126].values()[60..60 + window]
            .iter()
            .enumerate()
            .map(|(i, v)| v + 0.1 * (i as f64 * 0.8).sin())
            .collect(),
    );

    // 3. Range query vs. the sliding-scan oracle.
    let eps = 2.0;
    let (matches, stats) = index.subseq_range(&q, eps).expect("range");
    let (oracle, scan_stats) = index
        .scan_subseq_range(&q, eps, ScanMode::Naive)
        .expect("scan");
    assert_eq!(matches, oracle, "Lemma 1: match sets are identical");
    println!(
        "\nrange eps={eps}: {} match(es); index examined {} of {} windows \
         ({} node accesses) — the scan examined all {}",
        matches.len(),
        stats.candidates,
        index.windows_total(),
        stats.index.nodes_visited,
        scan_stats.windows,
    );
    for m in matches.iter().take(5) {
        println!(
            "  series {:3} @ offset {:3}   D = {:.4}",
            m.series, m.offset, m.distance
        );
    }

    // 4. The 5 nearest windows anywhere in the relation.
    let (knn, _) = index.subseq_knn(&q, 5).expect("knn");
    println!("\n5 nearest windows:");
    for m in &knn {
        println!(
            "  series {:3} @ offset {:3}   D = {:.4}",
            m.series, m.offset, m.distance
        );
    }

    // 5. The same power through the query language. Named relations hold
    //    equal-length series (the whole-sequence engine needs that), so
    //    register the 256-sample walks — series 126, the probe's source,
    //    among them.
    let equal_len: Vec<TimeSeries> = relation
        .iter()
        .filter(|s| s.len() == 256)
        .cloned()
        .collect();
    let mut catalog = Catalog::new();
    catalog
        .register(tsq_core::SeriesRelation::from_series("walks", equal_len).expect("rel"))
        .expect("register");
    let literal: Vec<String> = q.values().iter().map(|v| format!("{v:.6}")).collect();
    let query = format!(
        "FIND 3 NEAREST SUBSEQUENCE OF [{}] IN walks WINDOW {window}",
        literal.join(", ")
    );
    let out = catalog.run(&query).expect("language query");
    println!(
        "\nvia the query language ({} node accesses):",
        out.stats.nodes_visited
    );
    for row in &out.rows {
        println!(
            "  {} @ {}   D = {:.4}",
            row.a,
            row.offset.map_or("?".to_string(), |o| o.to_string()),
            row.distance
        );
    }
}
