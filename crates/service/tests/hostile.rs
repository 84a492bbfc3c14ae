//! Hostile wire-protocol inputs over a real socket: truncated length
//! prefixes, oversized declared lengths, mid-frame disconnects, and
//! post-checksum bit flips. The contract under attack is always the
//! same — a typed error frame or a clean connection close, never a
//! panic, a hang, or an unbounded allocation — and after every attack
//! the server must still serve a well-behaved client.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use tsq_service::engine::{Engine, EngineError, QueryReply, WireRow};
use tsq_service::wire::{self, ErrorCode, Request, Response};
use tsq_service::{Client, Server, ServerHandle, ServiceConfig};

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

/// A small frame cap and a short stall timeout so attacks resolve fast.
fn hostile_config() -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        exec_threads: 1,
        max_frame_len: 4 * 1024,
        frame_timeout: Duration::from_millis(300),
        ..ServiceConfig::default()
    }
}

fn start() -> ServerHandle {
    Server::start("127.0.0.1:0", EchoEngine, hostile_config()).unwrap()
}

fn raw_connect(handle: &ServerHandle) -> TcpStream {
    let stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
}

/// Reads until the server closes; returns everything it sent.
fn read_until_close(stream: &mut TcpStream) -> Vec<u8> {
    let mut out = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return out,
            Ok(n) => out.extend_from_slice(&buf[..n]),
            Err(_) => return out,
        }
    }
}

/// Asserts the server is still fully alive: a fresh client pings and
/// queries successfully.
fn assert_still_serving(handle: &ServerHandle) {
    let mut client = Client::connect(handle.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(10))).unwrap();
    client.ping().unwrap();
    let reply = client.query("still alive").unwrap();
    assert_eq!(reply.rows[0].a, "still alive");
}

fn valid_ping_frame() -> Vec<u8> {
    let mut buf = Vec::new();
    wire::write_frame(&mut buf, &wire::encode_request(&Request::Ping)).unwrap();
    buf
}

/// The hostile-input contract: the server either closed without a byte
/// or sent one well-formed typed error frame (with `expect` code) and
/// then closed. Anything else — garbage bytes, a non-error response, a
/// second frame — fails.
fn assert_clean_close_or_typed_error(answer: &[u8], expect: ErrorCode) {
    if answer.is_empty() {
        return;
    }
    let mut reader = answer;
    let payload = wire::read_frame(&mut reader, 1 << 20)
        .unwrap_or_else(|e| panic!("server sent a non-frame answer: {e}"));
    match wire::decode_response(&payload).unwrap() {
        Response::Error(e) => assert_eq!(e.code, expect, "{}", e.message),
        other => panic!("expected a typed error, got {other:?}"),
    }
    assert!(reader.is_empty(), "server sent bytes after the error frame");
}

#[test]
fn truncated_length_prefix_closes_cleanly() {
    let handle = start();
    // Only 10 of the 24 header bytes, then a clean client-side close.
    let frame = valid_ping_frame();
    let mut stream = raw_connect(&handle);
    stream.write_all(&frame[..10]).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let answer = read_until_close(&mut stream);
    assert_clean_close_or_typed_error(&answer, ErrorCode::Malformed);
    assert_still_serving(&handle);

    // Same, but stalling instead of closing: the frame timeout must
    // reclaim the connection (no hang).
    let mut stream = raw_connect(&handle);
    stream.write_all(&frame[..10]).unwrap();
    let started = Instant::now();
    let answer = read_until_close(&mut stream);
    assert_clean_close_or_typed_error(&answer, ErrorCode::Malformed);
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "slow-loris header held the connection open"
    );
    assert_still_serving(&handle);
    handle.shutdown();
}

#[test]
fn oversized_declared_length_is_refused_before_allocation() {
    let handle = start();
    let mut frame = valid_ping_frame();
    // The length field lives in the last 8 header bytes: declare 2^63.
    frame[16..24].copy_from_slice(&(1u64 << 63).to_le_bytes());
    let mut stream = raw_connect(&handle);
    stream.write_all(&frame).unwrap();
    let answer = read_until_close(&mut stream);
    let payload = wire::read_frame(&mut answer.as_slice(), 1 << 20).unwrap();
    match wire::decode_response(&payload).unwrap() {
        Response::Error(e) => {
            assert_eq!(e.code, ErrorCode::TooLarge);
            assert!(e.message.contains("cap"), "{}", e.message);
        }
        other => panic!("expected typed TooLarge, got {other:?}"),
    }
    assert_still_serving(&handle);

    // A length just over the cap (but plausible) gets the same refusal.
    let mut frame = valid_ping_frame();
    frame[16..24].copy_from_slice(&(5u64 * 1024).to_le_bytes());
    let mut stream = raw_connect(&handle);
    stream.write_all(&frame).unwrap();
    let answer = read_until_close(&mut stream);
    let payload = wire::read_frame(&mut answer.as_slice(), 1 << 20).unwrap();
    assert!(matches!(
        wire::decode_response(&payload).unwrap(),
        Response::Error(e) if e.code == ErrorCode::TooLarge
    ));
    assert_still_serving(&handle);
    handle.shutdown();
}

#[test]
fn mid_frame_disconnect_closes_cleanly() {
    let handle = start();
    let frame = valid_ping_frame();
    // Header plus two payload bytes, then the client vanishes.
    let mut stream = raw_connect(&handle);
    stream.write_all(&frame[..frame.len() - 3]).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let answer = read_until_close(&mut stream);
    assert_clean_close_or_typed_error(&answer, ErrorCode::Malformed);
    assert_still_serving(&handle);

    // Declared-but-never-sent payload: header says 1 KiB, body absent.
    // The frame timeout must reclaim the connection.
    let mut frame = valid_ping_frame();
    frame[16..24].copy_from_slice(&1024u64.to_le_bytes());
    let mut stream = raw_connect(&handle);
    stream.write_all(&frame[..24]).unwrap();
    let started = Instant::now();
    let answer = read_until_close(&mut stream);
    assert_clean_close_or_typed_error(&answer, ErrorCode::Malformed);
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "absent payload held the connection open"
    );
    assert_still_serving(&handle);
    handle.shutdown();
}

#[test]
fn payload_bit_flip_fails_the_checksum_with_a_typed_error() {
    let handle = start();
    let mut frame = valid_ping_frame();
    let payload_at = 24; // HEADER_LEN
    frame[payload_at] ^= 0x40;
    let mut stream = raw_connect(&handle);
    stream.write_all(&frame).unwrap();
    let answer = read_until_close(&mut stream);
    let payload = wire::read_frame(&mut answer.as_slice(), 1 << 20).unwrap();
    match wire::decode_response(&payload).unwrap() {
        Response::Error(e) => {
            assert_eq!(e.code, ErrorCode::Malformed);
            assert!(e.message.contains("checksum"), "{}", e.message);
        }
        other => panic!("expected typed Malformed, got {other:?}"),
    }
    assert_still_serving(&handle);

    // A trailer (CRC) bit flip is caught the same way.
    let mut frame = valid_ping_frame();
    let last = frame.len() - 1;
    frame[last] ^= 0x01;
    let mut stream = raw_connect(&handle);
    stream.write_all(&frame).unwrap();
    let answer = read_until_close(&mut stream);
    let payload = wire::read_frame(&mut answer.as_slice(), 1 << 20).unwrap();
    assert!(matches!(
        wire::decode_response(&payload).unwrap(),
        Response::Error(e) if e.code == ErrorCode::Malformed
    ));
    assert_still_serving(&handle);
    handle.shutdown();
}

#[test]
fn garbage_and_wrong_protocol_prefixes_close_cleanly() {
    let handle = start();
    // Neither the frame magic nor an HTTP method: closed without a byte.
    let mut stream = raw_connect(&handle);
    stream.write_all(b"SSH-2.0-OpenSSH_9.7\r\n").unwrap();
    let answer = read_until_close(&mut stream);
    assert!(answer.is_empty(), "server spoke to an unknown protocol");
    assert_still_serving(&handle);

    // Valid magic, wrong format version: typed malformed error.
    let mut frame = valid_ping_frame();
    frame[8] = 0xEE; // version word lives after the 8-byte magic
    let mut stream = raw_connect(&handle);
    stream.write_all(&frame).unwrap();
    let answer = read_until_close(&mut stream);
    let payload = wire::read_frame(&mut answer.as_slice(), 1 << 20).unwrap();
    assert!(matches!(
        wire::decode_response(&payload).unwrap(),
        Response::Error(e) if e.code == ErrorCode::Malformed
    ));
    assert_still_serving(&handle);
    handle.shutdown();
}

#[test]
fn valid_frame_with_hostile_payload_keeps_the_session() {
    let handle = start();
    // A correctly sealed frame whose payload is not a valid request:
    // the stream stays in sync, so the server answers typed and keeps
    // serving the same connection.
    let mut client = Client::connect(handle.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut sealed_garbage = Vec::new();
    wire::write_frame(&mut sealed_garbage, &[0xFF, 0xAB, 0xCD]).unwrap();
    client.send_raw(&sealed_garbage).unwrap();
    match client.read_response().unwrap() {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::Malformed),
        other => panic!("expected typed Malformed, got {other:?}"),
    }
    // Same connection, valid request: still served.
    client.ping().unwrap();

    // An empty sealed payload is equally typed.
    let mut empty = Vec::new();
    wire::write_frame(&mut empty, &[]).unwrap();
    client.send_raw(&empty).unwrap();
    assert!(matches!(
        client.read_response().unwrap(),
        Response::Error(e) if e.code == ErrorCode::Malformed
    ));
    client.ping().unwrap();

    let snap = handle.shutdown();
    assert!(snap.malformed >= 2, "malformed counter: {}", snap.malformed);
}

#[test]
fn hostile_append_frames_keep_the_session() {
    use tsq_service::engine::IngestRow;
    use tsq_store::Encoder;
    let handle = start();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(10))).unwrap();

    // A perfectly sealed APPEND whose payload smuggles a NaN value: the
    // decoder refuses it as malformed and the connection stays in sync.
    let req = Request::Append {
        relation: "walks".into(),
        rows: vec![IngestRow {
            label: "s0".into(),
            values: vec![1.0],
        }],
    };
    let mut payload = wire::encode_request(&req);
    let len = payload.len();
    payload[len - 8..].copy_from_slice(&f64::NAN.to_le_bytes());
    let mut framed = Vec::new();
    wire::write_frame(&mut framed, &payload).unwrap();
    client.send_raw(&framed).unwrap();
    match client.read_response().unwrap() {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::Malformed),
        other => panic!("expected typed Malformed, got {other:?}"),
    }
    client.ping().unwrap();

    // A sealed APPEND declaring u64::MAX rows dies in the allocation
    // guard — typed, no allocation, session intact.
    let mut enc = Encoder::new();
    enc.u8(6); // REQ_APPEND
    enc.str("walks");
    enc.u64(u64::MAX);
    let mut framed = Vec::new();
    wire::write_frame(&mut framed, &enc.into_bytes()).unwrap();
    client.send_raw(&framed).unwrap();
    assert!(matches!(
        client.read_response().unwrap(),
        Response::Error(e) if e.code == ErrorCode::Malformed
    ));
    client.ping().unwrap();

    // A well-formed APPEND against this read-only engine: the trait
    // default answers typed Unsupported, never a panic or close.
    match client.append(
        "walks",
        vec![IngestRow {
            label: "s0".into(),
            values: vec![1.0],
        }],
    ) {
        Err(tsq_service::ClientError::Remote(e)) => assert_eq!(e.code, ErrorCode::Unsupported),
        other => panic!("expected remote Unsupported, got {other:?}"),
    }
    assert_still_serving(&handle);
    let snap = handle.shutdown();
    assert_eq!(snap.malformed, 2);
    assert_eq!(snap.unsupported, 1);
}

#[test]
fn hostile_inputs_are_visible_in_metrics() {
    let handle = start();
    // One oversized declaration, one bit flip, one garbage prefix.
    let mut oversized = valid_ping_frame();
    oversized[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
    let mut stream = raw_connect(&handle);
    stream.write_all(&oversized).unwrap();
    read_until_close(&mut stream);

    let mut flipped = valid_ping_frame();
    flipped[24] ^= 0x02;
    let mut stream = raw_connect(&handle);
    stream.write_all(&flipped).unwrap();
    read_until_close(&mut stream);

    let mut stream = raw_connect(&handle);
    stream.write_all(b"garbage!").unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    read_until_close(&mut stream);

    let mut client = Client::connect(handle.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(10))).unwrap();
    let stats = client.stats_json().unwrap();
    assert!(stats.contains("\"malformed\":2"), "{stats}");
    let snap = handle.shutdown();
    assert_eq!(snap.malformed, 2);
}
