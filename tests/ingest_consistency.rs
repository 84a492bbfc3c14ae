//! Streaming-ingest oracle: after **any** interleaving of appends and
//! queries, every query form must answer exactly like a catalog freshly
//! rebuilt from the final data.
//!
//! Three levels:
//!
//! - a property test drives randomized append scripts through the
//!   language-level [`Catalog::append`] path and compares every round
//!   against a rebuilt catalog (byte-identical whole-series answers,
//!   `EXPLAIN ANALYZE` included; identical subsequence row sets and
//!   candidate counters);
//! - a concurrency test drives `APPEND` through a live `tsq-service`
//!   server interleaved with queries and batches, then replays the
//!   append script sequentially and demands the same equivalence;
//! - a snapshot test proves appended state round-trips byte-identically
//!   through `save → open → save`.
//!
//! Counter policy (same as the unit suites): whole-series forms repack
//! canonically, so rows, plans and *all* counters match a fresh build.
//! An incrementally-extended ST-index holds the same trail entries as a
//! fresh one but may pack them into a different node layout, so
//! subsequence forms compare canonicalized rows plus the
//! candidate-level counters (`candidates`/`refined`/`false_hits`) and
//! leave `nodes_visited`/`disk_accesses` to the layout.

use std::time::Duration;

use proptest::prelude::*;
use tsq::core::SeriesRelation;
use tsq::lang::{AppendRow, Catalog, QueryOutput, Row};
use tsq::series::generate::RandomWalkGenerator;
use tsq::service::{Client, IngestRow, ServiceConfig};
use tsq::{SharedCatalog, TimeSeries};

/// A fresh catalog rebuilt from `cat`'s current (post-append) data.
fn rebuilt(cat: &Catalog, name: &str) -> Catalog {
    let rel = cat.relation(name).unwrap();
    let items: Vec<(String, TimeSeries)> = (0..rel.len())
        .map(|id| {
            (
                rel.label(id).unwrap().to_string(),
                rel.get(id).unwrap().clone(),
            )
        })
        .collect();
    let mut fresh = Catalog::new();
    fresh
        .register(SeriesRelation::from_labeled(name, items).unwrap())
        .unwrap();
    fresh
}

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

/// An inline `[v1, v2, ...]` literal for the first `n` points of a
/// stored series — a probe that keeps matching before and after appends
/// (appends only ever extend tails).
fn literal_prefix(cat: &Catalog, relation: &str, label: &str, n: usize) -> String {
    let vals: Vec<String> = cat
        .relation(relation)
        .unwrap()
        .get_by_label(label)
        .unwrap()
        .values()[..n]
        .iter()
        .map(|v| format!("{v}"))
        .collect();
    format!("[{}]", vals.join(", "))
}

/// Initial series data plus append rounds of `(series index, values)`.
type IngestScript = (Vec<Vec<f64>>, Vec<Vec<(usize, Vec<f64>)>>);

/// Random ingest scripts: an initial uniform relation (`count` series of
/// `len` points) plus 1-3 append rounds, each a batch of rows targeting
/// existing series with 1-3 finite values. Rounds may leave the relation
/// ragged mid-script; whichever state a round lands in is compared.
fn ingest_script() -> impl Strategy<Value = IngestScript> {
    (3usize..6, 12usize..17).prop_flat_map(|(count, len)| {
        (
            prop::collection::vec(
                prop::collection::vec(-50.0f64..50.0, len..=len),
                count..=count,
            ),
            prop::collection::vec(
                prop::collection::vec(
                    (0usize..count, prop::collection::vec(-50.0f64..50.0, 1..4)),
                    1..6,
                ),
                1..4,
            ),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The oracle invariant, property-tested at the language level:
    /// after every append round, every query form on the incrementally
    /// maintained catalog matches a catalog rebuilt from scratch.
    #[test]
    fn appends_match_a_freshly_rebuilt_catalog(
        (init, rounds) in ingest_script()
    ) {
        let items: Vec<(String, TimeSeries)> = init
            .into_iter()
            .enumerate()
            .map(|(i, vals)| (format!("s{i}"), TimeSeries::new(vals)))
            .collect();
        let mut cat = Catalog::new();
        cat.register(SeriesRelation::from_labeled("w", items).unwrap())
            .unwrap();

        // Prime the ST-index cache *before* appending so the cached
        // index answers through the incremental extension path, and
        // build the probes from stored data (a prefix always self-hits).
        let probe = literal_prefix(&cat, "w", "s0", 8);
        let sub_q = format!("FIND SUBSEQUENCE OF {probe} IN w WITHIN 6 WINDOW 8");
        let knn_sub_q = format!("FIND 2 NEAREST SUBSEQUENCE OF {probe} IN w WINDOW 8");
        cat.run(&sub_q).unwrap();

        for round in rounds {
            let rows: Vec<AppendRow> = round
                .into_iter()
                .map(|(idx, values)| AppendRow {
                    label: format!("s{idx}"),
                    values,
                })
                .collect();
            let out = cat.append("w", &rows).unwrap();
            prop_assert_eq!(&out.plan, "Append");

            let fresh = rebuilt(&cat, "w");
            let whole_series = [
                "FIND SIMILAR TO w.s0 IN w WITHIN 3".to_string(),
                "FIND SIMILAR TO w.s1 IN w WITHIN 40 APPLY mavg(4)".to_string(),
                "FIND 2 NEAREST TO w.s1 IN w".to_string(),
                "JOIN w WITHIN 2 WITH (force = index)".to_string(),
                "JOIN w WITHIN 2".to_string(),
                "EXPLAIN ANALYZE FIND SIMILAR TO w.s0 IN w WITHIN 3".to_string(),
            ];
            if cat.relation("w").unwrap().is_uniform() {
                // Byte-identical: rows, every counter, the rendered
                // EXPLAIN ANALYZE text.
                for q in &whole_series {
                    prop_assert_eq!(cat.run(q).unwrap(), fresh.run(q).unwrap(), "{}", q);
                }
            } else {
                // A ragged relation gates whole-series forms with the
                // same typed error on both sides.
                for q in &whole_series {
                    let live = cat.run(q).unwrap_err().to_string();
                    let oracle = fresh.run(q).unwrap_err().to_string();
                    prop_assert_eq!(live, oracle, "{}", q);
                }
            }
            // Subsequence search works mid-ingest, ragged or not.
            assert_subseq_matches(&cat.run(&sub_q).unwrap(), &fresh.run(&sub_q).unwrap(), &sub_q);
            let a = cat.run(&knn_sub_q).unwrap();
            let b = fresh.run(&knn_sub_q).unwrap();
            prop_assert_eq!(canonical(a.rows), canonical(b.rows), "{}", &knn_sub_q);
        }
    }
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
        poll_interval: Duration::from_millis(5),
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

/// Snapshots round-trip appended state byte-identically: `save → open →
/// save` reproduces the file, and the restored catalog answers every
/// query form — subsequence traversal counters included, because the
/// extended tree's node structure is preserved verbatim — exactly like
/// the live catalog it was saved from.
#[test]
fn appended_catalog_snapshot_round_trips_byte_identically() {
    let mut cat = Catalog::new();
    cat.register(
        SeriesRelation::from_series("walks", RandomWalkGenerator::new(53).relation(20, 24))
            .unwrap(),
    )
    .unwrap();
    // Prime the cache, then append through both the single-series and
    // the batched CSV form, ending uniform at length 27.
    let probe = literal_prefix(&cat, "walks", "s2", 8);
    let sub_q = format!("FIND SUBSEQUENCE OF {probe} IN walks WITHIN 5 WINDOW 8");
    cat.run(&sub_q).unwrap();
    cat.run_mut("APPEND walks s0 VALUES (0.5, -1.25, 2.0)")
        .unwrap();
    let catch_up: Vec<String> = (1..20)
        .map(|i| format!("(s{i}, 0.25, {i}.5, -2)"))
        .collect();
    cat.run_mut(&format!("APPEND walks CSV {}", catch_up.join(" ")))
        .unwrap();

    let bytes = cat.snapshot_bytes().unwrap();
    let dir = std::env::temp_dir().join(format!("tsq-ingest-snapshot-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("appended.tsq");
    cat.save(&path).unwrap();

    let mut restored = Catalog::new();
    restored.open(&path).unwrap();
    assert_eq!(
        restored.snapshot_bytes().unwrap(),
        bytes,
        "save → open → save must reproduce the appended snapshot byte for byte"
    );
    for q in [
        "FIND SIMILAR TO walks.s0 IN walks WITHIN 2".to_string(),
        "FIND 4 NEAREST TO walks.s3 IN walks".to_string(),
        "JOIN walks WITHIN 1.5 WITH (force = index)".to_string(),
        "EXPLAIN ANALYZE FIND 4 NEAREST TO walks.s3 IN walks".to_string(),
        sub_q,
    ] {
        assert_eq!(cat.run(&q).unwrap(), restored.run(&q).unwrap(), "{q}");
    }
}
