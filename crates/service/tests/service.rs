//! Server behavior over a real socket, with mock engines so timeouts,
//! admission control, and shutdown draining are deterministic: the
//! engine decides when to be slow or stuck; the server must stay typed,
//! bounded, and drain-clean throughout.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tsq_service::engine::{Engine, EngineError, IngestRow, QueryReply, WireRow};
use tsq_service::wire::ErrorCode;
use tsq_service::{Client, ClientError, Server, ServerHandle, ServiceConfig};

/// Answers every query with one row echoing the query text; `bad ...`
/// and `boom ...` trigger the two engine error kinds.
struct EchoEngine;

impl Engine for EchoEngine {
    fn execute(&self, query: &str) -> Result<QueryReply, EngineError> {
        if let Some(rest) = query.strip_prefix("bad") {
            return Err(EngineError::BadQuery(format!("rejected{rest}")));
        }
        if let Some(rest) = query.strip_prefix("boom") {
            return Err(EngineError::Failed(format!("exploded{rest}")));
        }
        Ok(QueryReply {
            rows: vec![WireRow {
                a: query.to_string(),
                b: None,
                offset: None,
                distance: query.len() as f64,
            }],
            plan: "Echo".to_string(),
            stats: Default::default(),
            shard_stats: Vec::new(),
        })
    }
}

/// Blocks every query until the test releases the gate; counts entries
/// and exits so drain behavior is observable.
struct GatedEngine {
    entered: Arc<AtomicUsize>,
    finished: Arc<AtomicUsize>,
    release: Arc<AtomicBool>,
}

impl Engine for GatedEngine {
    fn execute(&self, query: &str) -> Result<QueryReply, EngineError> {
        self.entered.fetch_add(1, Ordering::SeqCst);
        while !self.release.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(2));
        }
        self.finished.fetch_add(1, Ordering::SeqCst);
        Ok(QueryReply {
            rows: vec![],
            plan: format!("Gated({query})"),
            stats: Default::default(),
            shard_stats: Vec::new(),
        })
    }
}

/// Panics on `panic ...` queries, otherwise echoes: a panicking engine
/// must leak neither its admission slot nor its exec worker.
struct FragileEngine;

impl Engine for FragileEngine {
    fn execute(&self, query: &str) -> Result<QueryReply, EngineError> {
        if query.starts_with("panic") {
            panic!("engine blew up on {query:?}");
        }
        EchoEngine.execute(query)
    }
}

/// Accepts appends into an in-memory ledger (relation `"paged"` refuses
/// with `Unsupported`, mirroring a page-file-backed relation); queries
/// echo like [`EchoEngine`].
struct LedgerEngine {
    lens: std::sync::Mutex<std::collections::BTreeMap<String, u64>>,
}

impl LedgerEngine {
    fn new() -> Self {
        LedgerEngine {
            lens: std::sync::Mutex::new(std::collections::BTreeMap::new()),
        }
    }
}

impl Engine for LedgerEngine {
    fn execute(&self, query: &str) -> Result<QueryReply, EngineError> {
        EchoEngine.execute(query)
    }

    fn append(&self, relation: &str, rows: Vec<IngestRow>) -> Result<QueryReply, EngineError> {
        if relation == "paged" {
            return Err(EngineError::Unsupported(
                "APPEND to a relation with paged storage attached".into(),
            ));
        }
        let mut lens = self.lens.lock().unwrap();
        let mut out = Vec::new();
        for row in rows {
            let len = lens.entry(row.label.clone()).or_insert(0);
            *len += row.values.len() as u64;
            out.push(WireRow {
                a: row.label,
                b: None,
                offset: Some(*len),
                distance: row.values.len() as f64,
            });
        }
        Ok(QueryReply {
            rows: out,
            plan: "Append".to_string(),
            stats: Default::default(),
            shard_stats: Vec::new(),
        })
    }
}

fn quick_config() -> ServiceConfig {
    ServiceConfig {
        workers: 3,
        exec_threads: 2,
        query_timeout: Duration::from_secs(5),
        poll_interval: Duration::from_millis(5),
        frame_timeout: Duration::from_secs(2),
        ..ServiceConfig::default()
    }
}

fn connect(handle: &ServerHandle) -> Client {
    let mut client = Client::connect(handle.addr()).expect("connect");
    client
        .set_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    client
}

#[test]
fn binary_protocol_round_trips_over_a_socket() {
    let handle = Server::start("127.0.0.1:0", EchoEngine, quick_config()).unwrap();
    let mut client = connect(&handle);
    client.ping().unwrap();
    let reply = client.query("hello wire").unwrap();
    assert_eq!(reply.rows.len(), 1);
    assert_eq!(reply.rows[0].a, "hello wire");
    assert_eq!(reply.plan, "Echo");

    // Typed engine errors, session intact afterwards.
    match client.query("bad grammar") {
        Err(ClientError::Remote(e)) => {
            assert_eq!(e.code, ErrorCode::BadQuery);
            assert!(e.message.contains("rejected"));
        }
        other => panic!("expected remote BadQuery, got {other:?}"),
    }
    match client.query("boom today") {
        Err(ClientError::Remote(e)) => assert_eq!(e.code, ErrorCode::Engine),
        other => panic!("expected remote Engine error, got {other:?}"),
    }
    client.ping().unwrap();

    // Batches keep slot order, mixing successes and failures.
    let queries: Vec<String> = vec!["one".into(), "bad two".into(), "three".into()];
    let slots = client.batch(&queries, 2).unwrap();
    assert_eq!(slots.len(), 3);
    assert_eq!(slots[0].as_ref().unwrap().rows[0].a, "one");
    assert_eq!(slots[1].as_ref().unwrap_err().code, ErrorCode::BadQuery);
    assert_eq!(slots[2].as_ref().unwrap().rows[0].a, "three");

    // Metrics saw all of it.
    let stats = client.stats_json().unwrap();
    assert!(stats.contains("\"queries_ok\":3"), "{stats}");
    assert!(stats.contains("\"plans\":{\"Echo\":3}"), "{stats}");

    let snap = handle.shutdown();
    assert_eq!(snap.queries_ok, 3);
    assert_eq!(snap.queries_err, 3);
    assert!(snap.tcp_requests >= 7);
}

#[test]
fn append_round_trips_and_unsupported_is_typed_end_to_end() {
    let handle = Server::start("127.0.0.1:0", LedgerEngine::new(), quick_config()).unwrap();
    let mut client = connect(&handle);

    // Appends accumulate across calls; the reply reports new lengths.
    let row = |label: &str, n: usize| IngestRow {
        label: label.into(),
        values: vec![0.5; n],
    };
    let reply = client
        .append("walks", vec![row("s0", 3), row("s1", 2)])
        .unwrap();
    assert_eq!(reply.plan, "Append");
    assert_eq!(reply.rows[0].offset, Some(3));
    assert_eq!(reply.rows[1].offset, Some(2));
    let reply = client.append("walks", vec![row("s0", 4)]).unwrap();
    assert_eq!(reply.rows[0].offset, Some(7));

    // A paged relation refuses with the stable typed code — and the
    // session survives to serve more work.
    match client.append("paged", vec![row("s0", 1)]) {
        Err(ClientError::Remote(e)) => {
            assert_eq!(e.code, ErrorCode::Unsupported);
            assert_eq!(e.code.name(), "unsupported");
            assert!(e.message.contains("paged"));
        }
        other => panic!("expected remote Unsupported, got {other:?}"),
    }
    client.ping().unwrap();
    let reply = client.append("walks", vec![row("s2", 1)]).unwrap();
    assert_eq!(reply.rows[0].offset, Some(1));

    // The stats surface counts the refusal under its own key.
    let stats = client.stats_json().unwrap();
    assert!(stats.contains("\"unsupported\":1"), "{stats}");

    let snap = handle.shutdown();
    assert_eq!(snap.unsupported, 1);
    assert_eq!(snap.queries_ok, 3);
    assert_eq!(snap.plans.get("Append"), Some(&3));
}

#[test]
fn default_engine_refuses_append_with_typed_unsupported() {
    // EchoEngine never overrides `append`: the trait's default must turn
    // the verb away typed, not panic or hang.
    let handle = Server::start("127.0.0.1:0", EchoEngine, quick_config()).unwrap();
    let mut client = connect(&handle);
    match client.append(
        "walks",
        vec![IngestRow {
            label: "s0".into(),
            values: vec![1.0],
        }],
    ) {
        Err(ClientError::Remote(e)) => {
            assert_eq!(e.code, ErrorCode::Unsupported);
            assert!(e.message.contains("read-only"));
        }
        other => panic!("expected remote Unsupported, got {other:?}"),
    }
    // Queries still flow on the same connection.
    let reply = client.query("still here").unwrap();
    assert_eq!(reply.rows[0].a, "still here");
    handle.shutdown();
}

#[test]
fn per_query_timeout_returns_typed_error() {
    let entered = Arc::new(AtomicUsize::new(0));
    let finished = Arc::new(AtomicUsize::new(0));
    let release = Arc::new(AtomicBool::new(false));
    let engine = GatedEngine {
        entered: Arc::clone(&entered),
        finished: Arc::clone(&finished),
        release: Arc::clone(&release),
    };
    let config = ServiceConfig {
        query_timeout: Duration::from_millis(80),
        ..quick_config()
    };
    let handle = Server::start("127.0.0.1:0", engine, config).unwrap();
    let mut client = connect(&handle);
    match client.query("stuck") {
        Err(ClientError::Remote(e)) => assert_eq!(e.code, ErrorCode::Timeout),
        other => panic!("expected timeout, got {other:?}"),
    }
    // The job was admitted and still completes server-side after release.
    let deadline = Instant::now() + Duration::from_secs(5);
    while entered.load(Ordering::SeqCst) == 0 {
        assert!(Instant::now() < deadline, "timed-out query never started");
        std::thread::sleep(Duration::from_millis(2));
    }
    release.store(true, Ordering::SeqCst);
    let snap = handle.shutdown();
    assert_eq!(finished.load(Ordering::SeqCst), 1);
    assert_eq!(snap.timeouts, 1);
    assert_eq!(snap.in_flight, 0);
}

#[test]
fn admission_control_rejects_with_overloaded() {
    let entered = Arc::new(AtomicUsize::new(0));
    let finished = Arc::new(AtomicUsize::new(0));
    let release = Arc::new(AtomicBool::new(false));
    let engine = GatedEngine {
        entered: Arc::clone(&entered),
        finished: Arc::clone(&finished),
        release: Arc::clone(&release),
    };
    let config = ServiceConfig {
        max_inflight: 1,
        exec_threads: 1,
        ..quick_config()
    };
    let handle = Server::start("127.0.0.1:0", engine, config).unwrap();

    let addr = handle.addr();
    let first = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client.set_timeout(Some(Duration::from_secs(10))).unwrap();
        client.query("occupier")
    });
    // Wait until the first query holds the only in-flight slot.
    let deadline = Instant::now() + Duration::from_secs(5);
    while entered.load(Ordering::SeqCst) == 0 {
        assert!(Instant::now() < deadline, "first query never started");
        std::thread::sleep(Duration::from_millis(2));
    }
    let mut second = connect(&handle);
    match second.query("rejected") {
        Err(ClientError::Remote(e)) => assert_eq!(e.code, ErrorCode::Overloaded),
        other => panic!("expected overloaded, got {other:?}"),
    }
    release.store(true, Ordering::SeqCst);
    let reply = first.join().unwrap().unwrap();
    assert_eq!(reply.plan, "Gated(occupier)");
    let snap = handle.shutdown();
    assert_eq!(snap.overloads, 1);
    assert_eq!(snap.queries_ok, 1);
    assert_eq!(finished.load(Ordering::SeqCst), 1);
}

/// `panics` panicking statements, then one that must still be answered.
fn engine_panics_then_answers(exec_threads: usize, panics: usize) {
    let config = ServiceConfig {
        max_inflight: 1,
        exec_threads,
        ..quick_config()
    };
    let handle = Server::start("127.0.0.1:0", FragileEngine, config).unwrap();
    let mut client = connect(&handle);
    for _ in 0..panics {
        match client.query("panic now") {
            Err(ClientError::Remote(e)) => assert_eq!(e.code, ErrorCode::Engine),
            other => panic!("expected engine error, got {other:?}"),
        }
    }
    let reply = client.query("still alive").unwrap();
    assert_eq!(reply.rows[0].a, "still alive");
    let snap = handle.shutdown();
    assert_eq!(snap.in_flight, 0, "admission slot leaked by the panic");
    assert_eq!(snap.queries_ok, 1);
    assert_eq!(snap.overloads, 0);
}

#[test]
fn panicking_engine_releases_its_admission_slot() {
    // The panic used to skip the gauge decrement: with max_inflight = 1
    // every later query came back Overloaded forever.
    engine_panics_then_answers(2, 1);
}

#[test]
fn panicking_engine_keeps_its_only_exec_worker() {
    // The unwind used to run out of the exec loop and end the thread:
    // with one exec thread the queue lost its only receiver, and every
    // later query was refused as ShuttingDown until a restart.
    engine_panics_then_answers(1, 2);
}

#[test]
fn timeout_storm_never_exhausts_admission_slots() {
    // Timed-out queries keep running server-side; their slots must come
    // back when the engine finishes (stale answers are discarded). After
    // a storm that saturates max_inflight with timeouts, fresh queries
    // are admitted again and the gauge reads exactly zero.
    let entered = Arc::new(AtomicUsize::new(0));
    let finished = Arc::new(AtomicUsize::new(0));
    let release = Arc::new(AtomicBool::new(false));
    let engine = GatedEngine {
        entered: Arc::clone(&entered),
        finished: Arc::clone(&finished),
        release: Arc::clone(&release),
    };
    let config = ServiceConfig {
        max_inflight: 2,
        exec_threads: 2,
        query_timeout: Duration::from_millis(40),
        ..quick_config()
    };
    let handle = Server::start("127.0.0.1:0", engine, config).unwrap();
    let mut client = connect(&handle);
    for q in ["stuck one", "stuck two"] {
        match client.query(q) {
            Err(ClientError::Remote(e)) => assert_eq!(e.code, ErrorCode::Timeout),
            other => panic!("expected timeout, got {other:?}"),
        }
    }
    // Both slots are held by the still-running queries; a third is
    // correctly refused while they occupy the cap.
    match client.query("third") {
        Err(ClientError::Remote(e)) => assert_eq!(e.code, ErrorCode::Overloaded),
        other => panic!("expected overloaded, got {other:?}"),
    }
    release.store(true, Ordering::SeqCst);
    let deadline = Instant::now() + Duration::from_secs(5);
    while finished.load(Ordering::SeqCst) < 2 {
        assert!(Instant::now() < deadline, "stuck queries never finished");
        std::thread::sleep(Duration::from_millis(2));
    }
    // Slots handed back: a fresh query is admitted, not Overloaded.
    let reply = client.query("after the storm").unwrap();
    assert_eq!(reply.plan, "Gated(after the storm)");
    let snap = handle.shutdown();
    assert_eq!(snap.timeouts, 2);
    assert_eq!(snap.overloads, 1);
    assert_eq!(snap.in_flight, 0, "timed-out queries leaked their slots");
}

#[test]
fn graceful_shutdown_drains_in_flight_work() {
    let entered = Arc::new(AtomicUsize::new(0));
    let finished = Arc::new(AtomicUsize::new(0));
    let release = Arc::new(AtomicBool::new(false));
    let engine = GatedEngine {
        entered: Arc::clone(&entered),
        finished: Arc::clone(&finished),
        release: Arc::clone(&release),
    };
    let handle = Server::start("127.0.0.1:0", engine, quick_config()).unwrap();
    let addr = handle.addr();

    let inflight = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client.set_timeout(Some(Duration::from_secs(10))).unwrap();
        client.query("survivor")
    });
    let deadline = Instant::now() + Duration::from_secs(5);
    while entered.load(Ordering::SeqCst) == 0 {
        assert!(Instant::now() < deadline, "query never started");
        std::thread::sleep(Duration::from_millis(2));
    }

    // Shutdown starts draining; it must block on the stuck query.
    let shutdown = std::thread::spawn(move || handle.shutdown());
    std::thread::sleep(Duration::from_millis(60));
    assert!(!shutdown.is_finished(), "shutdown dropped in-flight work");
    assert_eq!(finished.load(Ordering::SeqCst), 0);

    release.store(true, Ordering::SeqCst);
    let snap = shutdown.join().unwrap();
    // The in-flight query was answered, not dropped.
    let reply = inflight.join().unwrap().unwrap();
    assert_eq!(reply.plan, "Gated(survivor)");
    assert_eq!(finished.load(Ordering::SeqCst), 1);
    assert_eq!(snap.queries_ok, 1);
    assert_eq!(snap.in_flight, 0);

    // The port no longer serves new work.
    match Client::connect(addr) {
        Err(_) => {}
        Ok(mut late) => {
            late.set_timeout(Some(Duration::from_secs(2))).ok();
            assert!(late.ping().is_err(), "server still answering after drain");
        }
    }
}

#[test]
fn remote_shutdown_request_stops_the_server() {
    let handle = Server::start("127.0.0.1:0", EchoEngine, quick_config()).unwrap();
    let addr = handle.addr();
    let mut client = connect(&handle);
    client.query("before").unwrap();
    client.shutdown().unwrap();
    // wait() observes the remote shutdown and returns final metrics.
    let snap = handle.wait();
    assert_eq!(snap.queries_ok, 1);
    match Client::connect(addr) {
        Err(_) => {}
        Ok(mut late) => {
            late.set_timeout(Some(Duration::from_secs(2))).ok();
            assert!(late.ping().is_err());
        }
    }
}

fn http_round_trip(addr: std::net::SocketAddr, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    out
}

#[test]
fn http_facade_speaks_json_on_the_same_port() {
    let handle = Server::start("127.0.0.1:0", EchoEngine, quick_config()).unwrap();
    let addr = handle.addr();

    let health = http_round_trip(addr, "GET /health HTTP/1.1\r\nHost: t\r\n\r\n");
    assert!(health.starts_with("HTTP/1.1 200 OK"), "{health}");
    assert!(health.contains("\"status\":\"ok\""), "{health}");

    let ok = http_round_trip(
        addr,
        "POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: 9\r\n\r\nhello web",
    );
    assert!(ok.starts_with("HTTP/1.1 200 OK"), "{ok}");
    assert!(ok.contains("\"a\":\"hello web\""), "{ok}");
    assert!(ok.contains("\"plan\":\"Echo\""), "{ok}");

    let bad = http_round_trip(
        addr,
        "POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: 7\r\n\r\nbad req",
    );
    assert!(bad.starts_with("HTTP/1.1 400"), "{bad}");
    assert!(bad.contains("\"error\":\"bad-query\""), "{bad}");

    let boom = http_round_trip(
        addr,
        "POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: 4\r\n\r\nboom",
    );
    assert!(boom.starts_with("HTTP/1.1 500"), "{boom}");

    let missing = http_round_trip(addr, "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n");
    assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

    let metrics = http_round_trip(addr, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
    assert!(metrics.contains("\"queries_ok\":1"), "{metrics}");
    assert!(metrics.contains("\"http_requests\":"), "{metrics}");
    assert!(metrics.contains("\"plans\":{\"Echo\":1}"), "{metrics}");

    // Both protocols on one port: a binary client still works.
    let mut client = connect(&handle);
    client.ping().unwrap();
    let snap = handle.shutdown();
    assert_eq!(snap.queries_ok, 1);
    assert_eq!(snap.queries_err, 2);
    assert!(snap.http_requests >= 5);
}

#[test]
fn http_append_endpoint_is_typed_across_every_failure() {
    let handle = Server::start("127.0.0.1:0", LedgerEngine::new(), quick_config()).unwrap();
    let addr = handle.addr();

    // Happy path: first line names the relation, then CSV rows.
    let body = "walks\ns0, 1.5, 2.0\nfresh, 7\n";
    let ok = http_round_trip(
        addr,
        &format!(
            "POST /append HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    );
    assert!(ok.starts_with("HTTP/1.1 200 OK"), "{ok}");
    assert!(ok.contains("\"plan\":\"Append\""), "{ok}");
    assert!(ok.contains("\"a\":\"fresh\""), "{ok}");

    // A paged relation: HTTP 409 with the stable kebab-case code.
    let body = "paged\ns0, 1\n";
    let conflict = http_round_trip(
        addr,
        &format!(
            "POST /append HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    );
    assert!(conflict.starts_with("HTTP/1.1 409"), "{conflict}");
    assert!(conflict.contains("\"error\":\"unsupported\""), "{conflict}");

    // Hostile bodies: empty, value-less row, non-numeric and non-finite
    // values — all 400, all typed, server keeps serving.
    for body in [
        "",
        "walks\n",
        "walks\ns0\n",
        "walks\ns0, soup\n",
        "walks\ns0, nan\n",
    ] {
        let bad = http_round_trip(
            addr,
            &format!(
                "POST /append HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        );
        assert!(bad.starts_with("HTTP/1.1 400"), "{body:?}: {bad}");
        assert!(bad.contains("\"error\":\"bad-query\""), "{body:?}: {bad}");
    }
    let health = http_round_trip(addr, "GET /health HTTP/1.1\r\nHost: t\r\n\r\n");
    assert!(health.contains("\"status\":\"ok\""), "{health}");

    let snap = handle.shutdown();
    assert_eq!(snap.unsupported, 1);
    assert_eq!(snap.queries_ok, 1);
}

#[test]
fn http_shutdown_endpoint_drains_the_server() {
    let handle = Server::start("127.0.0.1:0", EchoEngine, quick_config()).unwrap();
    let addr = handle.addr();
    let bye = http_round_trip(addr, "POST /shutdown HTTP/1.1\r\nHost: t\r\n\r\n");
    assert!(bye.starts_with("HTTP/1.1 200 OK"), "{bye}");
    assert!(bye.contains("draining"), "{bye}");
    let snap = handle.wait();
    assert_eq!(snap.queries_ok, 0);
}
