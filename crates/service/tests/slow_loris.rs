//! The slow-loris bound and the shutdown wake, over a real socket. A
//! frame or an HTTP request, its 8 protocol-sniffing bytes included, must
//! arrive within one `frame_timeout` of its first byte, or the server
//! closes the connection without an answer. Shutdown wakes the reads
//! blocked on idle or half-sent connections at once, and they close as
//! if their clients had left.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::thread::sleep;
use std::time::{Duration, Instant};

use tsq_service::engine::{Engine, EngineError, QueryReply, WireRow};
use tsq_service::wire::{self, Request, Response};
use tsq_service::{Client, MetricsSnapshot, Server, ServerHandle, ServiceConfig};

struct EchoEngine;

impl Engine for EchoEngine {
    fn execute(&self, query: &str) -> Result<QueryReply, EngineError> {
        Ok(QueryReply {
            rows: vec![WireRow {
                a: query.to_string(),
                b: None,
                offset: None,
                distance: 1.0,
            }],
            plan: "Echo".to_string(),
            stats: Default::default(),
            shard_stats: Vec::new(),
        })
    }
}

const FRAME_TIMEOUT: Duration = Duration::from_millis(300);
const WORKERS: usize = 2;
const HEALTH: &[u8] = b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n";

fn start(frame_timeout: Duration) -> ServerHandle {
    let config = ServiceConfig {
        workers: WORKERS,
        exec_threads: 1,
        frame_timeout,
        ..ServiceConfig::default()
    };
    Server::start("127.0.0.1:0", EchoEngine, config).unwrap()
}

fn raw_connect(handle: &ServerHandle) -> TcpStream {
    let stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    stream
}

fn ping_frame() -> Vec<u8> {
    let mut buf = Vec::new();
    wire::write_frame(&mut buf, &wire::encode_request(&Request::Ping)).unwrap();
    buf
}

/// Sends `bytes` as a dribble: the 8 sniffing bytes one at a time, each
/// followed by `byte_gap`; then `pause`; then the rest in two halves
/// `half_gap` apart. A write the server has already refused by closing is
/// not an error here: what it answered is read afterwards.
fn dribble(
    stream: &mut TcpStream,
    bytes: &[u8],
    byte_gap: Duration,
    pause: Duration,
    half_gap: Duration,
) {
    let (prefix, rest) = bytes.split_at(8);
    let (first, second) = rest.split_at(rest.len() / 2);
    for b in prefix {
        let _ = stream.write_all(std::slice::from_ref(b));
        sleep(byte_gap);
    }
    sleep(pause);
    let _ = stream.write_all(first);
    sleep(half_gap);
    let _ = stream.write_all(second);
}

/// Everything the server sent, and whether it then closed the connection
/// (a reset counts: the server closed while the client still wrote) or
/// held it open past the client's read timeout.
fn read_until_close(stream: &mut TcpStream) -> (Vec<u8>, bool) {
    let mut out = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return (out, true),
            Ok(n) => out.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == ErrorKind::ConnectionReset => return (out, true),
            Err(_) => return (out, false),
        }
    }
}

/// The server closed the connection without sending a byte.
fn assert_closed_unanswered(stream: &mut TcpStream, what: &str) {
    let (answer, closed) = read_until_close(stream);
    assert!(
        answer.is_empty(),
        "{what} was answered: {:?}",
        String::from_utf8_lossy(&answer)
    );
    assert!(closed, "{what}: the server held the connection open");
}

fn assert_still_serving(handle: &ServerHandle) {
    let mut client = Client::connect(handle.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(10))).unwrap();
    client.ping().unwrap();
    let reply = client.query("still alive").unwrap();
    assert_eq!(reply.rows[0].a, "still alive");
}

/// Dribbles `bytes` over ~480 ms from the first byte, past the 300 ms
/// bound — though the prefix alone is within it (245 ms), and so is the
/// rest timed from the prefix's last byte — and asserts that the server
/// closed without answering and still serves a fresh client.
fn assert_dribble_dropped(bytes: &[u8], what: &str) {
    let handle = start(FRAME_TIMEOUT);
    let mut stream = raw_connect(&handle);
    let started = Instant::now();
    dribble(
        &mut stream,
        bytes,
        Duration::from_millis(35),
        Duration::from_millis(100),
        Duration::from_millis(100),
    );
    let what = format!("{what} sent over {:?}", started.elapsed());
    assert_closed_unanswered(&mut stream, &what);
    assert_still_serving(&handle);
    let snap = handle.shutdown();
    assert_eq!((snap.malformed, snap.queries_err), (0, 0));
}

#[test]
fn a_frame_dribbled_past_the_bound_from_its_first_byte_is_dropped() {
    assert_dribble_dropped(&ping_frame(), "a PING frame");
}

#[test]
fn an_http_request_dribbled_past_the_bound_from_its_first_byte_is_dropped() {
    assert_dribble_dropped(HEALTH, "a GET /health");
}

#[test]
fn a_frame_dribbled_within_the_bound_is_answered() {
    let handle = start(FRAME_TIMEOUT);
    // ~150 ms from the first byte.
    let gap = Duration::from_millis(15);
    let mut stream = raw_connect(&handle);
    dribble(&mut stream, &ping_frame(), gap, gap, gap);
    let payload = wire::read_frame(&mut stream, 1 << 20).unwrap();
    assert!(matches!(
        wire::decode_response(&payload).unwrap(),
        Response::Pong
    ));
    drop(stream);

    let mut stream = raw_connect(&handle);
    dribble(&mut stream, HEALTH, gap, gap, gap);
    let answer = String::from_utf8(read_until_close(&mut stream).0).unwrap();
    assert!(answer.starts_with("HTTP/1.1 200 OK"), "{answer}");
    handle.shutdown();
}

/// Shuts the server down and returns its final metrics, failing (rather
/// than hanging) when that takes a second or more.
fn shut_down_within_a_second(handle: ServerHandle, what: &str) -> MetricsSnapshot {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(handle.shutdown());
    });
    rx.recv_timeout(Duration::from_secs(1))
        .unwrap_or_else(|_| panic!("shutdown took a second or more with {what}"))
}

#[test]
fn shutdown_wakes_idle_connections_without_polling() {
    // A frame bound far above the 1 s asked of shutdown: only the wake
    // can end these sessions in time.
    let handle = start(Duration::from_secs(10));
    let idle: Vec<TcpStream> = (0..WORKERS).map(|_| raw_connect(&handle)).collect();
    sleep(Duration::from_millis(100)); // every acceptor now blocks on a read
    let snap = shut_down_within_a_second(handle, "idle connections");
    assert_eq!((snap.queries_err, snap.timeouts, snap.malformed), (0, 0, 0));
    for mut stream in idle {
        assert_closed_unanswered(&mut stream, "an idle connection");
    }
}

#[test]
fn shutdown_closes_a_half_sent_frame_cleanly() {
    let handle = start(Duration::from_secs(10));
    let idle = raw_connect(&handle);
    let frame = ping_frame();
    let mut half = raw_connect(&handle);
    half.write_all(&frame[..frame.len() / 2]).unwrap();
    sleep(Duration::from_millis(100)); // the server now waits for the rest
    let snap = shut_down_within_a_second(handle, "a half-sent frame");
    assert_eq!((snap.queries_err, snap.timeouts, snap.malformed), (0, 0, 0));
    assert_closed_unanswered(&mut half, "a half-sent frame");
    drop(idle);
}
