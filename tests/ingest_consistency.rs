//! Streaming ingest through a live server: concurrent `APPEND`s,
//! interleaved with queries and batches, reach the state a sequential
//! replay of the append script builds, and every query form then answers
//! exactly like a catalog freshly registered from it. Appends against a
//! rebuilt catalog, one statement at a time, are the differential
//! harness's, pinned here to `save → open` at one and three shards.
//!
//! Counter policy: whole-series forms repack canonically, so rows, plans
//! and *all* counters match a fresh build. An incrementally-extended
//! ST-index holds the same trail entries as a fresh one but may pack them
//! into a different node layout, so subsequence forms compare
//! canonicalized rows plus the candidate-level counters
//! (`candidates`/`refined`/`false_hits`) and leave
//! `nodes_visited`/`disk_accesses` to the layout.

mod common;

use common::{differential, Config, Storage};

use std::time::Duration;

use tsq::core::SeriesRelation;
use tsq::lang::{Catalog, QueryOutput, Row};
use tsq::series::generate::RandomWalkGenerator;
use tsq::service::{Client, IngestRow, ServiceConfig};
use tsq::{SharedCatalog, TimeSeries};

/// Sorts subsequence rows into a canonical order: an extended tree and a
/// fresh build may traverse in different orders, the row *set* may not.
fn canonical(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by(|x, y| {
        (x.distance.to_bits(), &x.a, x.offset).cmp(&(y.distance.to_bits(), &y.a, y.offset))
    });
    rows
}

/// Asserts the subsequence counter policy between a live answer and a
/// rebuilt-oracle answer.
fn assert_subseq_matches(a: &QueryOutput, b: &QueryOutput, q: &str) {
    assert_eq!(canonical(a.rows.clone()), canonical(b.rows.clone()), "{q}");
    assert_eq!(a.plan, b.plan, "{q}");
    assert_eq!(a.stats.candidates, b.stats.candidates, "{q}");
    assert_eq!(a.stats.refined, b.stats.refined, "{q}");
    assert_eq!(a.stats.false_hits, b.stats.false_hits, "{q}");
}

/// Satellite: live-server concurrency. Four appender threads stream
/// points through `Client::append` while readers and a batch thread
/// query the same server. Each thread owns a disjoint set of series and
/// appends to *all* of them per statement, so the final state is
/// independent of thread interleaving — replaying the script
/// sequentially yields the oracle.
#[test]
fn concurrent_appends_through_a_live_server_match_a_sequential_oracle() {
    const SERIES: usize = 40;
    const LEN: usize = 32;
    const THREADS: usize = 4;
    const ROUNDS: usize = 5;

    // One appended value, deterministic per (thread, round, series, slot).
    fn point(t: usize, r: usize, i: usize, j: usize) -> f64 {
        ((t * 131 + r * 17 + i * 7 + j) % 23) as f64 * 0.25 - 2.0
    }

    let initial = RandomWalkGenerator::new(47).relation(SERIES, LEN);
    let mut cat = Catalog::new();
    cat.register(SeriesRelation::from_series("walks", initial.clone()).unwrap())
        .unwrap();
    let shared = SharedCatalog::new(cat);

    // Prime the ST-index cache so concurrent appends exercise the
    // incremental extension path, not fresh builds.
    let probe = {
        let vals: Vec<String> = initial[0].values()[..LEN]
            .iter()
            .map(|v| format!("{v}"))
            .collect();
        format!("[{}]", vals.join(", "))
    };
    let sub_q = format!("FIND SUBSEQUENCE OF {probe} IN walks WITHIN 20 WINDOW {LEN}");
    shared.run(&sub_q).unwrap();

    let config = ServiceConfig {
        workers: 6,
        exec_threads: 2,
        ..ServiceConfig::default()
    };
    let handle = tsq::lang::serve("127.0.0.1:0", shared.clone(), config).unwrap();
    let addr = handle.addr();

    let appenders: Vec<_> = (0..THREADS)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.set_timeout(Some(Duration::from_secs(60))).unwrap();
                for r in 0..ROUNDS {
                    // Two points for every owned series in one atomic
                    // statement.
                    let rows: Vec<IngestRow> = (0..SERIES)
                        .filter(|i| i % THREADS == t)
                        .map(|i| IngestRow {
                            label: format!("s{i}"),
                            values: vec![point(t, r, i, 0), point(t, r, i, 1)],
                        })
                        .collect();
                    let reply = client.append("walks", rows).unwrap();
                    assert_eq!(reply.plan, "Append");
                    assert_eq!(reply.rows.len(), SERIES / THREADS);
                }
            })
        })
        .collect();

    // Readers race the appenders: subsequence search always answers;
    // whole-series forms may hit the typed ragged gate mid-ingest, but
    // the connection must survive every answer either way.
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let sub_q = sub_q.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.set_timeout(Some(Duration::from_secs(60))).unwrap();
                for _ in 0..15 {
                    let reply = client.query(&sub_q).unwrap();
                    assert!(!reply.rows.is_empty());
                    match client.query("FIND 3 NEAREST TO walks.s1 IN walks") {
                        Ok(reply) => assert_eq!(reply.rows.len(), 3),
                        Err(tsq::service::ClientError::Remote(e)) => {
                            assert!(e.message.contains("ragged"), "{e}")
                        }
                        Err(other) => panic!("connection must survive: {other}"),
                    }
                }
            })
        })
        .collect();
    let batcher = {
        let sub_q = sub_q.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            client.set_timeout(Some(Duration::from_secs(60))).unwrap();
            for _ in 0..5 {
                let batch = vec![
                    sub_q.clone(),
                    "FIND 2 NEAREST TO walks.s2 IN walks".to_string(),
                ];
                let slots = client.batch(&batch, 2).unwrap();
                assert_eq!(slots.len(), 2);
                assert!(slots[0].is_ok());
            }
        })
    };

    for t in appenders {
        t.join().unwrap();
    }
    for t in readers {
        t.join().unwrap();
    }
    batcher.join().unwrap();

    // Sequential oracle: replay the script in thread order (series sets
    // are disjoint, so any true interleaving reaches the same state).
    let expected: Vec<(String, TimeSeries)> = (0..SERIES)
        .map(|i| {
            let t = i % THREADS;
            let mut vals = initial[i].values().to_vec();
            for r in 0..ROUNDS {
                vals.push(point(t, r, i, 0));
                vals.push(point(t, r, i, 1));
            }
            (format!("s{i}"), TimeSeries::new(vals))
        })
        .collect();
    // No append was lost, duplicated or torn: the live relation holds
    // exactly the scripted data, bit for bit.
    shared.with_relation("walks", |rel| {
        let rel = rel.expect("walks is registered");
        assert_eq!(rel.len(), SERIES);
        for (label, series) in &expected {
            let got = rel.get_by_label(label).unwrap();
            assert_eq!(got.len(), LEN + 2 * ROUNDS, "{label}");
            let same = got
                .values()
                .iter()
                .zip(series.values())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "{label}: appended data diverged from the script");
        }
    });

    let mut oracle = Catalog::new();
    oracle
        .register(SeriesRelation::from_labeled("walks", expected).unwrap())
        .unwrap();
    for q in [
        "FIND SIMILAR TO walks.s3 IN walks WITHIN 2",
        "FIND 5 NEAREST TO walks.s7 IN walks APPLY mavg(8)",
        "JOIN walks WITHIN 1.5 APPLY mavg(6) WITH (force = index)",
        "EXPLAIN ANALYZE FIND SIMILAR TO walks.s3 IN walks WITHIN 2",
        "EXPLAIN ANALYZE JOIN walks WITHIN 1.5 WITH (force = index)",
    ] {
        assert_eq!(shared.run(q).unwrap(), oracle.run(q).unwrap(), "{q}");
    }
    assert_subseq_matches(
        &shared.run(&sub_q).unwrap(),
        &oracle.run(&sub_q).unwrap(),
        &sub_q,
    );

    // The server answers from the appended state too: one wire query
    // must match the in-process view bit for bit.
    let mut client = Client::connect(addr).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    let q = "FIND 4 NEAREST TO walks.s5 IN walks";
    let wire = client.query(q).unwrap();
    let direct = shared.run(q).unwrap();
    assert_eq!(wire.plan, direct.plan);
    assert_eq!(wire.rows.len(), direct.rows.len());
    for (w, d) in wire.rows.iter().zip(&direct.rows) {
        assert_eq!(w.a, d.a);
        assert_eq!(w.distance.to_bits(), d.distance.to_bits());
    }
    assert_eq!(wire.stats, direct.stats);

    let snap = handle.shutdown();
    assert_eq!(snap.in_flight, 0);
    assert!(snap.plans.get("Append").copied().unwrap_or(0) >= (THREADS * ROUNDS) as u64);
}

/// The reference's layout, its reads answered from what its last save
/// restores, at `shards` hash shards.
fn restored(shards: usize) -> Config {
    Config {
        shards,
        storage: Storage::SaveOpen,
        ..Config::REFERENCE
    }
}

/// After every `APPEND` (new labels, ragged stretches and their refusals)
/// a catalog rebuilt from the appended series by `save → open` answers
/// like the appended reference: rows, counters, `EXPLAIN` text and the
/// first error.
#[test]
fn appends_match_a_freshly_rebuilt_catalog() {
    differential::pinned(1000, 4, &[restored(1)]);
}

/// An appended catalog's snapshot survives its own save and restore byte
/// for byte, and equals a catalog freshly registered from its series, at
/// one and three shards.
#[test]
fn appended_catalog_snapshot_round_trips_byte_identically() {
    differential::pinned(1100, 4, &[restored(1), restored(3)]);
}
