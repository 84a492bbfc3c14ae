//! End-to-end service suite: a real `SharedCatalog` behind a real TCP
//! server. Answers through the binary wire protocol and the HTTP facade
//! must match direct in-process execution exactly; a writer must be able
//! to register a relation while the server chews a long batch; metrics
//! must account for everything; shutdown must drain.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use tsq::core::SeriesRelation;
use tsq::lang::{LangError, QueryOutput};
use tsq::series::generate::RandomWalkGenerator;
use tsq::service::{Client, ClientError, ErrorCode, ServiceConfig};
use tsq::{Catalog, SharedCatalog};

fn shared_catalog() -> SharedCatalog {
    let mut cat = Catalog::new();
    cat.register(
        SeriesRelation::from_series("walks", RandomWalkGenerator::new(41).relation(60, 64))
            .unwrap(),
    )
    .unwrap();
    SharedCatalog::new(cat)
}

fn config() -> ServiceConfig {
    ServiceConfig {
        workers: 4,
        exec_threads: 2,
        ..ServiceConfig::default()
    }
}

/// The queries the acceptance criteria call out: range, kNN, join,
/// subsequence.
fn acceptance_queries() -> Vec<String> {
    vec![
        "FIND SIMILAR TO walks.s3 IN walks WITHIN 2".to_string(),
        "FIND 5 NEAREST TO walks.s7 IN walks APPLY mavg(8)".to_string(),
        "JOIN walks WITHIN 1.5 APPLY mavg(6) WITH (force = index)".to_string(),
        "FIND SUBSEQUENCE OF walks.s0 IN walks WITHIN 40 WINDOW 64".to_string(),
    ]
}

/// Row-by-row equality between a wire answer and the in-process oracle.
fn assert_reply_matches(reply: &tsq::service::QueryReply, oracle: &QueryOutput, query: &str) {
    assert_eq!(reply.plan, oracle.plan, "{query}");
    assert_eq!(reply.rows.len(), oracle.rows.len(), "{query}");
    for (wire, direct) in reply.rows.iter().zip(&oracle.rows) {
        assert_eq!(wire.a, direct.a, "{query}");
        assert_eq!(wire.b, direct.b, "{query}");
        assert_eq!(wire.offset, direct.offset.map(|o| o as u64), "{query}");
        assert_eq!(
            wire.distance.to_bits(),
            direct.distance.to_bits(),
            "{query}"
        );
    }
    assert_eq!(reply.stats, oracle.stats, "{query}");
}

#[test]
fn wire_answers_match_in_process_execution() {
    let shared = shared_catalog();
    let handle = tsq::lang::serve("127.0.0.1:0", shared.clone(), config()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();

    for query in acceptance_queries() {
        let oracle = shared.run(&query).unwrap();
        let reply = client.query(&query).unwrap();
        assert_reply_matches(&reply, &oracle, &query);
    }

    // The same queries as one batch: slot order and content preserved.
    let queries = acceptance_queries();
    let slots = client.batch(&queries, 2).unwrap();
    assert_eq!(slots.len(), queries.len());
    for (query, slot) in queries.iter().zip(&slots) {
        let oracle = shared.run(query).unwrap();
        assert_reply_matches(slot.as_ref().unwrap(), &oracle, query);
    }

    let stats = client.stats_json().unwrap();
    assert!(stats.contains("\"queries_ok\":8"), "{stats}");

    let snap = handle.shutdown();
    assert_eq!(snap.queries_ok, 8);
    assert_eq!(snap.queries_err, 0);
    assert_eq!(snap.in_flight, 0);
}

#[test]
fn a_rejected_subsequence_statement_builds_nothing_through_the_wire() {
    let shared = shared_catalog();
    let handle = tsq::lang::serve("127.0.0.1:0", shared.clone(), config()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();

    // A query of the wrong length for its WINDOW answers its typed error…
    match client.query("FIND SUBSEQUENCE OF [1, 2, 3] IN walks WITHIN 1 WINDOW 16") {
        Err(ClientError::Remote(e)) => {
            assert_eq!(e.code, ErrorCode::Engine, "{e}");
            assert!(e.message.contains("expected 16, got 3"), "{e}");
        }
        other => panic!("expected a remote engine error, got {other:?}"),
    }
    // …and built nothing on the way: a valid statement at that window
    // still plans cold, through the wire (the plan, no rows) and in
    // process (the rendered text, which the wire does not carry).
    let literal: Vec<String> = (0..16).map(|i| format!("{i}")).collect();
    let valid = format!(
        "FIND SUBSEQUENCE OF [{}] IN walks WITHIN 40 WINDOW 16",
        literal.join(", ")
    );
    let explain = format!("EXPLAIN {valid}");
    let plan_text = || shared.run(&explain).unwrap().explain.unwrap();
    let reply = client.query(&explain).unwrap();
    assert_eq!(reply.plan, "SubseqIndexProbe");
    assert!(reply.rows.is_empty());
    assert!(
        plan_text().contains("[cold: builds ST-index]"),
        "{}",
        plan_text()
    );
    // Running the valid statement is what builds.
    let oracle = shared.run(&valid).unwrap();
    assert_reply_matches(&client.query(&valid).unwrap(), &oracle, &valid);
    assert!(!plan_text().contains("[cold"), "{}", plan_text());

    let snap = handle.shutdown();
    assert_eq!(snap.queries_err, 1);
}

/// Range sharding is gone: `SHARD … BY RANGE` is a parse error that names
/// `HASH`, the one rule left, in process and as `BadQuery` over the wire,
/// and the relation keeps its layout; `BY HASH` still shards it.
#[test]
fn shard_by_range_is_a_typed_parse_error_naming_hash() {
    const RANGE: &str = "SHARD walks INTO 2 BY RANGE";
    let mut cat = Catalog::new();
    cat.register(
        SeriesRelation::from_series("walks", RandomWalkGenerator::new(41).relation(60, 64))
            .unwrap(),
    )
    .unwrap();
    match cat.run_mut(RANGE) {
        Err(LangError::Parse { message, .. }) => assert!(message.contains("HASH"), "{message}"),
        other => panic!("expected a parse error, got {other:?}"),
    }
    assert_eq!(cat.shard_layout("walks").map(|layout| layout.1), Some(1));

    let shared = shared_catalog();
    let handle = tsq::lang::serve("127.0.0.1:0", shared.clone(), config()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    match client.query(RANGE) {
        Err(ClientError::Remote(e)) => {
            assert_eq!(e.code, ErrorCode::BadQuery, "{e}");
            assert!(e.message.contains("HASH"), "{e}");
        }
        other => panic!("expected a remote BadQuery, got {other:?}"),
    }
    let reply = client.query("SHARD walks INTO 2 BY HASH").unwrap();
    assert_eq!((reply.plan.as_str(), reply.rows.len()), ("Shard", 2));
    let snap = handle.shutdown();
    assert_eq!((snap.queries_ok, snap.queries_err), (1, 1));
}

#[test]
fn http_facade_matches_in_process_execution() {
    let shared = shared_catalog();
    let handle = tsq::lang::serve("127.0.0.1:0", shared.clone(), config()).unwrap();
    let addr = handle.addr();

    let query = "FIND 3 NEAREST TO walks.s2 IN walks";
    let oracle = shared.run(query).unwrap();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(
            format!(
                "POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{query}",
                query.len()
            )
            .as_bytes(),
        )
        .unwrap();
    let mut answer = String::new();
    stream.read_to_string(&mut answer).unwrap();
    assert!(answer.starts_with("HTTP/1.1 200 OK"), "{answer}");
    assert!(
        answer.contains(&format!("\"plan\":\"{}\"", oracle.plan)),
        "{answer}"
    );
    assert!(
        answer.contains(&format!("\"row_count\":{}", oracle.rows.len())),
        "{answer}"
    );
    // The top row (the query series itself at distance 0) is rendered.
    assert!(
        answer.contains(&format!("\"a\":\"{}\"", oracle.rows[0].a)),
        "{answer}"
    );

    // An unknown relation, and a force naming no method (the deleted
    // synchronized join's `tree`): 400 with the typed code over HTTP,
    // `BadQuery` citing the cause over the wire.
    let mut client = Client::connect(addr).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    for (bad, cause) in [
        ("FIND 1 NEAREST TO ghosts.s0 IN ghosts", "ghosts"),
        (
            "JOIN walks WITHIN 1.5 WITH (force = tree)",
            "scan, scanfull or index",
        ),
    ] {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream
            .write_all(
                format!(
                    "POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{bad}",
                    bad.len()
                )
                .as_bytes(),
            )
            .unwrap();
        let mut answer = String::new();
        stream.read_to_string(&mut answer).unwrap();
        assert!(answer.starts_with("HTTP/1.1 400"), "{bad}: {answer}");
        assert!(
            answer.contains("\"error\":\"bad-query\""),
            "{bad}: {answer}"
        );
        match client.query(bad) {
            Err(ClientError::Remote(e)) => {
                assert_eq!(e.code, ErrorCode::BadQuery, "{bad}: {e}");
                assert!(e.message.contains(cause), "{bad}: {e}");
            }
            other => panic!("{bad}: expected a remote BadQuery, got {other:?}"),
        }
    }

    // /metrics sees both outcomes; a scraper's query string does not
    // change the route.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(b"GET /metrics?x=1 HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let mut metrics = String::new();
    stream.read_to_string(&mut metrics).unwrap();
    assert!(metrics.starts_with("HTTP/1.1 200 OK"), "{metrics}");
    assert!(metrics.contains("\"queries_ok\":1"), "{metrics}");
    assert!(metrics.contains("\"queries_err\":4"), "{metrics}");

    let snap = handle.shutdown();
    assert!(snap.http_requests >= 3);
}

#[test]
fn register_completes_while_server_chews_a_long_batch() {
    // The acceptance criterion for the batch-lock fix, through the full
    // network stack: a long batch is served over TCP while a writer
    // registers a new relation through the same shared catalog — the
    // writer must finish before the batch does, and the new relation
    // must be immediately queryable through the server.
    let shared = shared_catalog();
    let handle = tsq::lang::serve("127.0.0.1:0", shared.clone(), config()).unwrap();
    let addr = handle.addr();

    let batch: Vec<String> = (0..80)
        .map(|i| {
            format!(
                "JOIN walks WITHIN {} APPLY mavg(6) WITH (force = index)",
                1.0 + (i % 5) as f64 * 0.25
            )
        })
        .collect();
    // The head start the served batch gets is a tenth of a sequential
    // pass over it, which two server threads need at least half of: the
    // register lands mid-batch under any optimizer.
    let sequential = Instant::now();
    for q in &batch {
        shared.run(q).unwrap();
    }
    let sequential = sequential.elapsed();
    let batch_thread = {
        let batch = batch.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            client.set_timeout(Some(Duration::from_secs(120))).unwrap();
            let slots = client.batch(&batch, 2).unwrap();
            (slots, Instant::now())
        })
    };
    std::thread::sleep(sequential / 10);
    shared
        .register(
            SeriesRelation::from_series("fresh", RandomWalkGenerator::new(43).relation(12, 32))
                .unwrap(),
        )
        .unwrap();
    let writer_done = Instant::now();

    // Queryable through the server right away, on a new connection.
    let mut probe = Client::connect(addr).unwrap();
    probe.set_timeout(Some(Duration::from_secs(30))).unwrap();
    let reply = probe.query("FIND 2 NEAREST TO fresh.s1 IN fresh").unwrap();
    assert_eq!(reply.rows.len(), 2);
    let probe_done = Instant::now();

    let (slots, batch_done) = batch_thread.join().unwrap();
    assert!(
        writer_done < batch_done && probe_done < batch_done,
        "register stalled behind the served batch"
    );
    assert_eq!(slots.len(), batch.len());
    assert!(slots.iter().all(Result::is_ok));

    let snap = handle.shutdown();
    assert_eq!(snap.queries_err, 0);
    assert_eq!(snap.queries_ok as usize, batch.len() + 1);
}
