//! The query language: a concrete (P, T, L) instance of the similarity
//! framework the paper builds on.
//!
//! Run with: `cargo run --release --example query_language`

use tsq_core::SeriesRelation;
use tsq_lang::Catalog;
use tsq_series::generate::StockGenerator;

fn main() {
    // Register a synthetic stock relation under ticker-style labels.
    let mut gen = StockGenerator::new(77);
    gen.inverse_fraction = 0.15;
    let prices = gen.relation(300, 128);
    let labeled = prices
        .into_iter()
        .enumerate()
        .map(|(i, s)| (format!("TK{i:03}"), s))
        .collect();
    let relation = SeriesRelation::from_labeled("stocks", labeled).expect("relation");
    let mut catalog = Catalog::new();
    catalog.register(relation).expect("register");

    let queries = [
        // Range query under a 20-day moving average (Example 2.1's tool).
        "FIND SIMILAR TO stocks.TK000 IN stocks WITHIN 4 APPLY mavg(20)",
        // Nearest opposite movers (Example 2.2) — reverse + smooth.
        "FIND 5 NEAREST TO stocks.TK000 IN stocks APPLY mavg(20), reverse",
        // Mean-constrained search (GK95-style shift window).
        "FIND 3 NEAREST TO stocks.TK001 IN stocks",
        // All-pairs join under smoothing, via the transformed index.
        "JOIN stocks WITHIN 1.2 APPLY mavg(20) WITH (force = index)",
    ];

    for q in queries {
        println!("\ntsq> {q}");
        match catalog.run(q) {
            Ok(out) => {
                println!(
                    "  {} row(s), {} node accesses",
                    out.rows.len(),
                    out.stats.nodes_visited
                );
                for row in out.rows.iter().take(6) {
                    match &row.b {
                        Some(b) => println!("  {}  ~  {}   D = {:.4}", row.a, b, row.distance),
                        None => println!("  {}   D = {:.4}", row.a, row.distance),
                    }
                }
                if out.rows.len() > 6 {
                    println!("  ... {} more", out.rows.len() - 6);
                }
            }
            Err(e) => println!("  error: {e}"),
        }
    }

    // Errors are first-class: unknown names and unsafe transformations are
    // reported, not panicked.
    println!("\ntsq> FIND SIMILAR TO stocks.NOPE IN stocks WITHIN 1");
    match catalog.run("FIND SIMILAR TO stocks.NOPE IN stocks WITHIN 1") {
        Err(e) => println!("  error: {e}"),
        Ok(_) => unreachable!(),
    }
}
