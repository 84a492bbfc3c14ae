//! Surviving a restart: snapshot a catalog, "restart" the process, and
//! restore it — with every query answering identically.
//!
//! A snapshot stores what cannot be derived: labels, shard rules, each
//! shard's series and the windows each relation holds ST-indexes for.
//! Every index is a function of those, so a restore re-derives the
//! whole-match R\*-trees from the series, and holds each window for its
//! first subsequence statement to build — the same indexes the saved
//! catalog answered from.
//!
//! Run with: `cargo run --release --example snapshot_restart`

use std::time::Instant;

use tsq_core::SeriesRelation;
use tsq_lang::Catalog;
use tsq_series::generate::{RandomWalkGenerator, StockGenerator};

fn main() {
    let dir = std::env::temp_dir().join(format!("tsq-snapshot-example-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("catalog.tsq");

    // ---- Session 1: build everything from raw series -------------------
    let build_started = Instant::now();
    let walks = RandomWalkGenerator::new(2027).relation(300, 128);
    let stocks = StockGenerator::new(2028).relation(200, 128);
    let mut catalog = Catalog::new();
    catalog
        .register(SeriesRelation::from_series("walks", walks.clone()).expect("walks relation"))
        .expect("register walks");
    catalog
        .register(SeriesRelation::from_series("stocks", stocks).expect("stocks relation"))
        .expect("register stocks");

    // Typical mixed workload; the subsequence queries make `walks` build
    // (and keep) ST-indexes for two window sizes.
    let subseq_probe: Vec<String> = walks[3].values()[10..42]
        .iter()
        .map(|v| format!("{v}"))
        .collect();
    let queries = [
        "FIND SIMILAR TO walks.s1 IN walks WITHIN 2 APPLY mavg(6)".to_string(),
        "FIND 5 NEAREST TO stocks.s9 IN stocks".to_string(),
        "JOIN stocks WITHIN 1.2 APPLY mavg(4) WITH (force = index)".to_string(),
        format!(
            "FIND SUBSEQUENCE OF [{}] IN walks WITHIN 4 WINDOW 32",
            subseq_probe.join(", ")
        ),
        "FIND 3 NEAREST SUBSEQUENCE OF walks.s0 IN walks WINDOW 128".to_string(),
    ];
    let before: Vec<_> = queries
        .iter()
        .map(|q| catalog.run(q).expect("query on built catalog"))
        .collect();
    let build_elapsed = build_started.elapsed();
    println!(
        "built catalog: {} relations, {} ST-index window(s) in {:.1} ms",
        catalog.relation_names().len(),
        catalog.subseq_cache_len(),
        build_elapsed.as_secs_f64() * 1e3
    );

    // ---- Snapshot ------------------------------------------------------
    let save_started = Instant::now();
    let bytes = catalog.save(&path).expect("save snapshot");
    println!(
        "saved {} bytes to {} in {:.1} ms",
        bytes,
        path.display(),
        save_started.elapsed().as_secs_f64() * 1e3
    );

    // ---- "Restart": drop everything, restore from disk -----------------
    drop(catalog);
    let open_started = Instant::now();
    let restored = Catalog::load(&path).expect("restore snapshot");
    let open_elapsed = open_started.elapsed();
    println!(
        "restored {} relations, {} held ST-index window(s) in {:.1} ms",
        restored.relation_names().len(),
        restored.subseq_cache_len(),
        open_elapsed.as_secs_f64() * 1e3
    );

    // ---- The round-trip invariant --------------------------------------
    for (q, want) in queries.iter().zip(&before) {
        let got = restored.run(q).expect("query on restored catalog");
        assert_eq!(
            &got, want,
            "{q}: restored catalog must answer identically (rows AND disk accesses)"
        );
        println!(
            "  identical: {} row(s), {} disk accesses  <-  {}",
            got.rows.len(),
            got.nodes_visited,
            &q[..q.len().min(60)]
        );
    }

    // A restored catalog is fully live: new data registers and queries.
    let mut restored = restored;
    restored
        .register(
            SeriesRelation::from_series("fresh", RandomWalkGenerator::new(7).relation(20, 128))
                .expect("fresh relation"),
        )
        .expect("register after restore");
    assert!(restored.run("FIND 2 NEAREST TO fresh.s0 IN fresh").is_ok());
    println!("restored catalog accepts new relations and keeps serving");

    std::fs::remove_dir_all(&dir).ok();
}
