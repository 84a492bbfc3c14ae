//! Service throughput under concurrent network load: ≥8 clients drive a
//! real TCP server over the binary wire protocol while a writer
//! registers a new relation mid-flight.
//!
//! Every reply is checked bit-exactly against direct in-process
//! execution of the same query — the bench *asserts zero failed or
//! corrupt responses*, so the headline numbers are only printed for runs
//! where the service answered everything correctly. It reports:
//!
//! - sustained throughput (queries per second across all clients);
//! - p50 / p99 tail latency per request (connect + query + close, the
//!   whole round trip a short-lived client pays);
//! - the writer-interleave check: a relation registered while the load
//!   is in flight must be immediately queryable through the server.
//!
//! It also emits `BENCH_service.json` for the CI artifact.
//!
//! Run with: `cargo bench --bench service`

use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::HashMap;
use std::hint::black_box;
use tsq_core::SeriesRelation;
use tsq_lang::{Catalog, QueryOutput, SharedCatalog};
use tsq_series::generate::{RandomWalkGenerator, StockGenerator};
use tsq_service::{Client, ServiceConfig};

const WALKS: usize = 240;
const STOCKS: usize = 160;
const LEN: usize = 96;
const CLIENTS: usize = 8;
const QUERIES_PER_CLIENT: usize = 40;

fn shared_catalog() -> SharedCatalog {
    let mut cat = Catalog::new();
    cat.register(
        SeriesRelation::from_series(
            "walks",
            RandomWalkGenerator::new(20_270_131).relation(WALKS, LEN),
        )
        .expect("walks"),
    )
    .expect("register walks");
    cat.register(
        SeriesRelation::from_series(
            "stocks",
            StockGenerator::new(20_270_132).relation(STOCKS, LEN),
        )
        .expect("stocks"),
    )
    .expect("register stocks");
    SharedCatalog::new(cat)
}

/// The full query surface — range, kNN, join, subsequence — mixed so
/// cheap probes queue behind expensive ones, as real traffic would.
fn workload(client: usize) -> Vec<String> {
    (0..QUERIES_PER_CLIENT)
        .map(|i| {
            let s = (client * QUERIES_PER_CLIENT + i) % 32;
            match i % 8 {
                0 | 4 => format!("FIND SIMILAR TO walks.s{s} IN walks WITHIN 1.5 APPLY mavg(8)"),
                1 | 5 => format!("FIND 10 NEAREST TO stocks.s{s} IN stocks"),
                2 | 6 => format!("FIND SUBSEQUENCE OF walks.s{s} IN walks WITHIN 30 WINDOW {LEN}"),
                3 => format!("FIND 5 NEAREST TO walks.s{s} IN walks APPLY reverse"),
                _ => "JOIN stocks WITHIN 1.0 APPLY mavg(8) WITH (force = index)".to_string(),
            }
        })
        .collect()
}

/// Bit-exact comparison between a wire reply and the in-process oracle.
fn reply_matches(reply: &tsq_service::QueryReply, oracle: &QueryOutput) -> bool {
    reply.plan == oracle.plan
        && reply.stats == oracle.stats
        && reply.rows.len() == oracle.rows.len()
        && reply.rows.iter().zip(&oracle.rows).all(|(w, d)| {
            w.a == d.a
                && w.b == d.b
                && w.offset == d.offset.map(|o| o as u64)
                && w.distance.to_bits() == d.distance.to_bits()
        })
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64) * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn write_json(qps: f64, p50_ms: f64, p99_ms: f64, failures: usize) {
    let json = format!(
        "{{\n  \"bench\": \"service\",\n  \"clients\": {CLIENTS},\n  \
         \"queries\": {},\n  \"series\": {},\n  \"series_len\": {LEN},\n  \
         \"qps\": {qps:.0},\n  \"p50_ms\": {p50_ms:.3},\n  \"p99_ms\": {p99_ms:.3},\n  \
         \"failures\": {failures}\n}}\n",
        CLIENTS * QUERIES_PER_CLIENT,
        WALKS + STOCKS,
    );
    let path = "BENCH_service.json";
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("cannot write {path}: {e}");
    } else {
        println!("  wrote {path}");
    }
}

fn bench_service(c: &mut Criterion) {
    let shared = shared_catalog();

    // One in-process oracle per distinct query, computed before the
    // server starts so the load phase measures only served traffic.
    let mut oracles: HashMap<String, QueryOutput> = HashMap::new();
    for client in 0..CLIENTS {
        for q in workload(client) {
            if let std::collections::hash_map::Entry::Vacant(slot) = oracles.entry(q) {
                let out = shared.run(slot.key()).expect("workload must be valid");
                slot.insert(out);
            }
        }
    }
    let oracles = Arc::new(oracles);

    let config = ServiceConfig {
        workers: CLIENTS,
        poll_interval: Duration::from_millis(5),
        ..ServiceConfig::default()
    };
    let handle = tsq_lang::serve("127.0.0.1:0", shared.clone(), config).expect("serve");
    let addr = handle.addr();

    // Load phase: CLIENTS threads, each a stream of short-lived
    // connections (connect → query → close), the pattern that keeps a
    // fixed acceptor pool fair to more clients than it has workers.
    let started = Instant::now();
    let clients: Vec<_> = (0..CLIENTS)
        .map(|id| {
            let oracles = Arc::clone(&oracles);
            std::thread::spawn(move || {
                let mut latencies = Vec::with_capacity(QUERIES_PER_CLIENT);
                let mut failures = 0usize;
                for q in workload(id) {
                    let t = Instant::now();
                    let ok = Client::connect(addr)
                        .and_then(|mut client| {
                            client.set_timeout(Some(Duration::from_secs(120)))?;
                            client.query(&q)
                        })
                        .map(|reply| reply_matches(&reply, &oracles[&q]));
                    latencies.push(t.elapsed().as_secs_f64());
                    match ok {
                        Ok(true) => {}
                        Ok(false) => {
                            eprintln!("client {id}: corrupt reply for {q}");
                            failures += 1;
                        }
                        Err(e) => {
                            eprintln!("client {id}: {q} failed: {e}");
                            failures += 1;
                        }
                    }
                }
                (latencies, failures)
            })
        })
        .collect();

    // Writer interleave: while the fleet hammers the server, register a
    // fresh relation and prove it is queryable through the server at
    // once — served reads must not serialize catalog writes.
    std::thread::sleep(Duration::from_millis(20));
    shared
        .register(
            SeriesRelation::from_series(
                "fresh",
                RandomWalkGenerator::new(20_270_133).relation(16, 32),
            )
            .expect("fresh"),
        )
        .expect("register fresh");
    let mut probe = Client::connect(addr).expect("probe connect");
    probe
        .set_timeout(Some(Duration::from_secs(120)))
        .expect("probe timeout");
    let fresh = probe
        .query("FIND 2 NEAREST TO fresh.s0 IN fresh")
        .expect("mid-load registration must be queryable");
    assert_eq!(fresh.rows.len(), 2);
    let writer_done = started.elapsed();
    drop(probe);

    let mut latencies = Vec::with_capacity(CLIENTS * QUERIES_PER_CLIENT);
    let mut failures = 0usize;
    for client in clients {
        let (lat, fail) = client.join().expect("client thread");
        latencies.extend(lat);
        failures += fail;
    }
    let elapsed = started.elapsed().as_secs_f64();

    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
    let total = latencies.len();
    let qps = total as f64 / elapsed;
    let p50_ms = percentile(&latencies, 0.50) * 1e3;
    let p99_ms = percentile(&latencies, 0.99) * 1e3;

    println!(
        "service: {CLIENTS} clients x {QUERIES_PER_CLIENT} queries over \
         {WALKS}+{STOCKS} series of length {LEN}"
    );
    println!(
        "  sustained       : {:8.1} ms wall  ({qps:7.0} q/s)",
        elapsed * 1e3
    );
    println!("  latency p50     : {p50_ms:8.2} ms");
    println!("  latency p99     : {p99_ms:8.2} ms");
    println!(
        "  writer interleave: fresh relation registered + served at {:.0} ms into the load",
        writer_done.as_secs_f64() * 1e3
    );
    println!("  failures        : {failures} of {total}");
    write_json(qps, p50_ms, p99_ms, failures);
    assert_eq!(
        failures, 0,
        "the service returned failed or corrupt responses under load"
    );

    let snap = handle.shutdown();
    assert_eq!(snap.in_flight, 0, "shutdown must drain");
    assert_eq!(snap.queries_err, 0, "{snap:?}");
    assert!(
        snap.queries_ok as usize > total,
        "metrics must account for every served query: {snap:?}"
    );

    // A criterion group over one persistent connection, for trend
    // tracking of the pure round-trip cost.
    let handle = tsq_lang::serve(
        "127.0.0.1:0",
        shared.clone(),
        ServiceConfig {
            poll_interval: Duration::from_millis(5),
            ..ServiceConfig::default()
        },
    )
    .expect("serve");
    let mut client = Client::connect(handle.addr()).expect("connect");
    client
        .set_timeout(Some(Duration::from_secs(120)))
        .expect("timeout");
    let mut group = c.benchmark_group("service");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(1500));
    group.bench_function("query_roundtrip", |b| {
        b.iter(|| {
            black_box(
                client
                    .query("FIND 10 NEAREST TO stocks.s3 IN stocks")
                    .unwrap(),
            )
        })
    });
    group.bench_function("ping_roundtrip", |b| {
        b.iter(|| {
            client.ping().unwrap();
            black_box(())
        })
    });
    group.finish();
    drop(client);
    handle.shutdown();
}

criterion_group!(benches, bench_service);
criterion_main!(benches);
