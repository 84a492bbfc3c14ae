//! Many clients, one catalog: the service-layer topology of the ROADMAP's
//! north star, in miniature.
//!
//! A [`SharedCatalog`] is handed to N client threads that hammer it with a
//! mixed workload (range, KNN, subsequence queries) while another thread
//! registers a brand-new relation mid-flight. Every client checks its
//! answers against a sequential oracle computed up front — concurrency
//! must never change an answer — and the run finishes with a batched
//! fan-out through the worker-pool executor, printing per-batch stats.
//!
//! Run with: `cargo run --release --example concurrent_queries`

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use tsq::core::{executor, SeriesRelation};
use tsq::series::generate::{RandomWalkGenerator, StockGenerator};
use tsq::{Catalog, SharedCatalog};

const CLIENTS: usize = 8;
const REQUESTS_PER_CLIENT: usize = 40;

fn main() {
    // 1. One catalog, shared. Reads take a shared lock; the ST-indexes
    //    each relation keeps sit behind that relation's own reader lock,
    //    so clients touching different relations (or the same one)
    //    proceed concurrently.
    let mut cat = Catalog::new();
    cat.register(
        SeriesRelation::from_series(
            "walks",
            RandomWalkGenerator::new(20_260_727).relation(400, 128),
        )
        .expect("generate walks"),
    )
    .expect("register walks");
    cat.register(
        SeriesRelation::from_series("stocks", StockGenerator::new(20_260_728).relation(300, 128))
            .expect("generate stocks"),
    )
    .expect("register stocks");
    let shared = SharedCatalog::new(cat);

    // 2. The workload and its sequential oracle.
    let queries: Vec<String> = (0..20)
        .map(|i| match i % 4 {
            0 => format!("FIND SIMILAR TO walks.s{i} IN walks WITHIN 1.5 APPLY mavg(8)"),
            1 => format!("FIND 7 NEAREST TO stocks.s{i} IN stocks"),
            2 => format!("FIND SUBSEQUENCE OF walks.s{i} IN walks WITHIN 30 WINDOW 128"),
            _ => format!("FIND 3 NEAREST TO walks.s{i} IN walks APPLY reverse"),
        })
        .collect();
    let oracle: Vec<_> = queries
        .iter()
        .map(|q| shared.run(q).expect("oracle query"))
        .collect();

    // 3. N clients hammer the catalog; a writer registers a new relation
    //    mid-flight (it waits for in-flight readers, readers never wait
    //    for each other).
    let started = Instant::now();
    let served = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let shared = shared.clone();
            let queries = &queries;
            let oracle = &oracle;
            let served = &served;
            scope.spawn(move || {
                for r in 0..REQUESTS_PER_CLIENT {
                    let q = (client + r * CLIENTS) % queries.len();
                    let out = shared.run(&queries[q]).expect("client query");
                    assert_eq!(out, oracle[q], "client {client}: answer drifted under load");
                    served.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        let writer = shared.clone();
        scope.spawn(move || {
            let fresh =
                SeriesRelation::from_series("fresh", RandomWalkGenerator::new(7).relation(50, 64))
                    .expect("generate fresh");
            writer.register(fresh).expect("register mid-flight");
        });
    });
    let elapsed = started.elapsed();
    println!(
        "{CLIENTS} clients served {} requests in {:.1} ms ({:.0} q/s), all answers oracle-exact",
        served.load(Ordering::Relaxed),
        elapsed.as_secs_f64() * 1e3,
        served.load(Ordering::Relaxed) as f64 / elapsed.as_secs_f64()
    );
    let out = shared
        .run("FIND 2 NEAREST TO fresh.s0 IN fresh")
        .expect("query the mid-flight relation");
    println!(
        "mid-flight registration visible: fresh.s0 has {} nearest rows",
        out.rows.len()
    );

    // 4. The same workload as one batch through the worker-pool executor.
    let threads = executor::default_threads();
    let (results, summary) = shared.run_batch(queries.clone(), threads);
    for (r, want) in results.iter().zip(&oracle) {
        assert_eq!(r.as_ref().expect("batch query"), want);
    }
    println!(
        "batch: {} queries on {} thread(s) in {:.1} ms ({:.0} q/s, {} rows, {} disk accesses)",
        summary.queries,
        summary.threads,
        summary.elapsed.as_secs_f64() * 1e3,
        summary.queries_per_second(),
        summary.rows,
        summary.nodes_visited
    );
}
