//! The binary wire protocol: one `tsq-store` frame per message.
//!
//! Every message — request or response — is a payload wrapped by
//! [`tsq_store::seal`]: magic, format version, endianness marker,
//! length prefix, payload, CRC-32 trailer. The service therefore inherits
//! the snapshot format's versioning, corruption detection, and typed
//! error taxonomy for free; what this module adds is *incremental* frame
//! reading off a socket (header first, allocation cap enforced before a
//! single payload byte is buffered) and the request/response payload
//! schemas.
//!
//! ```text
//! frame   := store frame (see tsq_store::frame): 24-byte header,
//!            payload, 4-byte CRC-32 trailer
//! request := 0x01 QUERY    str(query)
//!          | 0x02 BATCH    u32(threads) seq(str(query))
//!          | 0x03 STATS
//!          | 0x04 PING
//!          | 0x05 SHUTDOWN
//!          | 0x06 APPEND   str(relation) seq(str(label) seq(f64(value)))
//! reply   := 0x00 ERROR    u8(code) str(message)
//!          | 0x01 ROWS     reply-body
//!          | 0x02 BATCH    seq(u8(tag) (reply-body | u8(code) str(msg)))
//!          | 0x03 STATS    str(metrics json)
//!          | 0x04 PONG
//!          | 0x05 BYE      (shutdown acknowledged)
//!          | 0x06 APPEND   reply-body (one row per appended label)
//! reply-body := str(plan) counters
//!               seq(counters)                   per-shard breakdown;
//!                                               empty for one shard
//!               seq(str(a) opt(str(b)) opt(u64(offset)) f64(distance))
//! counters   := u64(candidates) u64(refined) u64(false_hits)
//!               u64(nodes_visited) u64(disk_accesses)
//!               u64(pool_hits) u64(pool_misses)
//!               u64(record_hits) u64(record_misses)
//!               u64(record_seq_misses)
//! ```
//!
//! The counters are every field of `ExecStats`, in the order of
//! `COUNTERS`, which also names them in the HTTP facade's JSON.
//!
//! A reader never trusts a declared length: the frame header's payload
//! length is capped by the caller's `max_frame_len` *before* any
//! allocation, and every in-payload sequence count goes through the
//! allocation-guarded [`Decoder::seq`].

use std::io::{self, Read, Write};

use tsq_core::plan::ExecStats;
use tsq_store::{
    parse_header, unseal_vec, write_sealed, Decoder, Encoder, StoreError, HEADER_LEN, TRAILER_LEN,
};

use crate::engine::{EngineError, IngestRow, QueryReply, WireRow};

/// Default cap on a single frame's payload (requests and responses).
pub(crate) const DEFAULT_MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Why a frame could not be read off a socket.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection at a frame boundary — the normal
    /// end of a session, not an error.
    Closed,
    /// The stream died mid-frame (reset, mid-frame EOF, timeout).
    Io(io::Error),
    /// The header declared a payload larger than the reader's cap; the
    /// oversized payload was never buffered.
    TooLarge {
        /// Declared payload length.
        len: u64,
        /// The reader's cap.
        max: usize,
    },
    /// The bytes were readable but not a valid frame (bad magic or
    /// version, checksum mismatch, malformed payload).
    Malformed(StoreError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::TooLarge { len, max } => {
                write!(f, "frame declares {len} payload byte(s), cap is {max}")
            }
            FrameError::Malformed(e) => write!(f, "malformed frame: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<StoreError> for FrameError {
    fn from(e: StoreError) -> Self {
        FrameError::Malformed(e)
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Reads until `buf` is full or EOF; returns the number of bytes read.
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..])? {
            0 => break,
            n => filled += n,
        }
    }
    Ok(filled)
}

/// Writes one sealed frame: header, payload and trailer straight from
/// `payload`, no framed copy.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    write_sealed(w, payload)?;
    w.flush()
}

/// Reads one frame whose first `prefix` bytes were already consumed
/// (e.g. by protocol sniffing), enforcing `max_len` on the declared
/// payload length *before* allocating for it.
///
/// # Errors
/// [`FrameError::Closed`] on EOF at the frame boundary (only possible
/// when `prefix` is empty), [`FrameError::Io`] mid-frame,
/// [`FrameError::TooLarge`] past the cap, [`FrameError::Malformed`] for
/// anything `tsq-store` rejects (magic, version, endianness, CRC).
pub(crate) fn read_frame_prefixed(
    r: &mut impl Read,
    prefix: &[u8],
    max_len: usize,
) -> Result<Vec<u8>, FrameError> {
    debug_assert!(prefix.len() <= HEADER_LEN);
    let mut header = [0u8; HEADER_LEN];
    header[..prefix.len()].copy_from_slice(prefix);
    let got = read_full(r, &mut header[prefix.len()..])?;
    if prefix.is_empty() && got == 0 {
        return Err(FrameError::Closed);
    }
    if prefix.len() + got < HEADER_LEN {
        return Err(FrameError::Malformed(StoreError::truncated(format!(
            "frame header ({} of {HEADER_LEN} byte(s))",
            prefix.len() + got
        ))));
    }
    let len = parse_header(&header)?;
    if len > max_len as u64 {
        return Err(FrameError::TooLarge { len, max: max_len });
    }
    let body_len = len as usize + TRAILER_LEN;
    let mut frame = Vec::with_capacity(HEADER_LEN + body_len);
    frame.extend_from_slice(&header);
    frame.resize(HEADER_LEN + body_len, 0);
    let got = read_full(r, &mut frame[HEADER_LEN..])?;
    if got < body_len {
        return Err(FrameError::Malformed(StoreError::truncated(format!(
            "frame body ({got} of {body_len} byte(s))"
        ))));
    }
    Ok(unseal_vec(frame)?)
}

/// Reads one frame from the start (no sniffed prefix).
pub fn read_frame(r: &mut impl Read, max_len: usize) -> Result<Vec<u8>, FrameError> {
    read_frame_prefixed(r, &[], max_len)
}

/// Typed request-level failure codes carried in `ERROR` replies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The query did not lex/parse/resolve (client error).
    BadQuery = 1,
    /// The engine failed executing an accepted query.
    Engine = 2,
    /// The query exceeded the server's per-query timeout (it may still
    /// complete server-side; its answer is discarded).
    Timeout = 3,
    /// Admission control refused the query: too many in flight.
    Overloaded = 4,
    /// The server is draining for shutdown and admits no new work.
    ShuttingDown = 5,
    /// The request frame decoded but its contents were invalid.
    Malformed = 6,
    /// The request frame declared a payload above the server's cap.
    TooLarge = 7,
    /// The request named an operation the engine (or the target
    /// relation) cannot perform — e.g. APPEND to a paged relation.
    Unsupported = 8,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::BadQuery,
            2 => ErrorCode::Engine,
            3 => ErrorCode::Timeout,
            4 => ErrorCode::Overloaded,
            5 => ErrorCode::ShuttingDown,
            6 => ErrorCode::Malformed,
            7 => ErrorCode::TooLarge,
            8 => ErrorCode::Unsupported,
            _ => return None,
        })
    }

    /// Stable lowercase name (used in JSON and logs).
    pub fn name(&self) -> &'static str {
        match self {
            ErrorCode::BadQuery => "bad-query",
            ErrorCode::Engine => "engine",
            ErrorCode::Timeout => "timeout",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::Malformed => "malformed",
            ErrorCode::TooLarge => "too-large",
            ErrorCode::Unsupported => "unsupported",
        }
    }
}

/// A typed request-level error: the code plus a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// What went wrong, as a stable code.
    pub code: ErrorCode,
    /// Details for humans; never required for dispatch.
    pub message: String,
}

impl WireError {
    /// Convenience constructor.
    pub(crate) fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        WireError {
            code,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code.name(), self.message)
    }
}

impl std::error::Error for WireError {}

impl From<EngineError> for WireError {
    fn from(e: EngineError) -> Self {
        match e {
            EngineError::BadQuery(m) => WireError::new(ErrorCode::BadQuery, m),
            EngineError::Failed(m) => WireError::new(ErrorCode::Engine, m),
            EngineError::Unsupported(m) => WireError::new(ErrorCode::Unsupported, m),
        }
    }
}

/// A decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Execute one query string.
    Query(String),
    /// Execute a batch of query strings with a worker-thread hint.
    Batch {
        /// Query strings, answered in order.
        queries: Vec<String>,
        /// Parallelism hint (the engine clamps it).
        threads: u32,
    },
    /// Fetch the server's cumulative metrics as JSON.
    Stats,
    /// Liveness probe.
    Ping,
    /// Ask the server to drain in-flight work and stop.
    Shutdown,
    /// Atomically append rows of values to series of one relation.
    Append {
        /// Relation receiving the points.
        relation: String,
        /// Appended rows, in statement order.
        rows: Vec<IngestRow>,
    },
}

/// A decoded server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The request failed before/instead of producing rows.
    Error(WireError),
    /// Answer to [`Request::Query`].
    Rows(QueryReply),
    /// Answer to [`Request::Batch`]: one slot per query.
    Batch(Vec<Result<QueryReply, WireError>>),
    /// Answer to [`Request::Stats`].
    Stats(String),
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Shutdown`]: drain has begun.
    Bye,
    /// Answer to [`Request::Append`]: one row per appended label (`a` =
    /// label, `offset` = new series length, `distance` = points added).
    Append(QueryReply),
}

const REQ_QUERY: u8 = 1;
const REQ_BATCH: u8 = 2;
const REQ_STATS: u8 = 3;
const REQ_PING: u8 = 4;
const REQ_SHUTDOWN: u8 = 5;
const REQ_APPEND: u8 = 6;

const RESP_ERROR: u8 = 0;
const RESP_ROWS: u8 = 1;
const RESP_BATCH: u8 = 2;
const RESP_STATS: u8 = 3;
const RESP_PONG: u8 = 4;
const RESP_BYE: u8 = 5;
const RESP_APPEND: u8 = 6;

/// Encodes a request payload (frame it with [`write_frame`]).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut enc = Encoder::new();
    match req {
        Request::Query(q) => {
            enc.u8(REQ_QUERY);
            enc.str(q);
        }
        Request::Batch { queries, threads } => {
            enc.u8(REQ_BATCH);
            enc.u32(*threads);
            enc.usize(queries.len());
            for q in queries {
                enc.str(q);
            }
        }
        Request::Stats => enc.u8(REQ_STATS),
        Request::Ping => enc.u8(REQ_PING),
        Request::Shutdown => enc.u8(REQ_SHUTDOWN),
        Request::Append { relation, rows } => {
            enc.u8(REQ_APPEND);
            enc.str(relation);
            enc.usize(rows.len());
            for row in rows {
                enc.str(&row.label);
                enc.usize(row.values.len());
                for v in &row.values {
                    enc.f64(*v);
                }
            }
        }
    }
    enc.into_bytes()
}

/// Decodes a request payload.
///
/// # Errors
/// [`StoreError::Truncated`] / [`StoreError::Corrupt`] on any shortfall,
/// bad tag, or trailing garbage — all allocation-guarded.
pub fn decode_request(payload: &[u8]) -> Result<Request, StoreError> {
    let mut dec = Decoder::new(payload);
    let req = match dec.u8("request tag")? {
        REQ_QUERY => Request::Query(dec.str("query")?),
        REQ_BATCH => {
            let threads = dec.u32("batch threads")?;
            let count = dec.seq(8, "batch queries")?;
            let mut queries = Vec::with_capacity(count);
            for i in 0..count {
                queries.push(dec.str(&format!("batch query {i}"))?);
            }
            Request::Batch { queries, threads }
        }
        REQ_STATS => Request::Stats,
        REQ_PING => Request::Ping,
        REQ_SHUTDOWN => Request::Shutdown,
        REQ_APPEND => {
            let relation = dec.str("append relation")?;
            // Minimum row wire size: 8 (label length) + 8 (value count).
            let count = dec.seq(16, "append rows")?;
            let mut rows = Vec::with_capacity(count);
            for i in 0..count {
                let label = dec.str(&format!("append row {i} label"))?;
                let n = dec.seq(8, &format!("append row {i} values"))?;
                let mut values = Vec::with_capacity(n);
                for j in 0..n {
                    values.push(dec.f64_finite(&format!("append row {i} value {j}"))?);
                }
                rows.push(IngestRow { label, values });
            }
            Request::Append { relation, rows }
        }
        other => return Err(StoreError::corrupt(format!("unknown request tag {other}"))),
    };
    dec.finish()?;
    Ok(req)
}

/// Every `ExecStats` counter by name, in the order a reply's counter
/// block and the HTTP facade's counters object carry them.
pub(crate) const COUNTERS: [&str; 10] = [
    "candidates",
    "refined",
    "false_hits",
    "nodes_visited",
    "disk_accesses",
    "pool_hits",
    "pool_misses",
    "record_hits",
    "record_misses",
    "record_seq_misses",
];

/// `stats`' counters in [`COUNTERS`] order.
pub(crate) fn counters(stats: &ExecStats) -> [u64; 10] {
    [
        stats.candidates as u64,
        stats.refined as u64,
        stats.false_hits as u64,
        stats.nodes_visited,
        stats.disk_accesses,
        stats.pool_hits,
        stats.pool_misses,
        stats.record_hits,
        stats.record_misses,
        stats.record_seq_misses,
    ]
}

fn encode_counters(enc: &mut Encoder, stats: &ExecStats) {
    for v in counters(stats) {
        enc.u64(v);
    }
}

fn decode_counters(dec: &mut Decoder<'_>) -> Result<ExecStats, StoreError> {
    let mut v = [0; 10];
    for (slot, name) in v.iter_mut().zip(COUNTERS) {
        *slot = dec.u64(name)?;
    }
    let narrow = |i: usize| -> Result<usize, StoreError> {
        usize::try_from(v[i])
            .map_err(|_| StoreError::corrupt(format!("{} {} exceeds usize", COUNTERS[i], v[i])))
    };
    Ok(ExecStats {
        candidates: narrow(0)?,
        refined: narrow(1)?,
        false_hits: narrow(2)?,
        nodes_visited: v[3],
        disk_accesses: v[4],
        pool_hits: v[5],
        pool_misses: v[6],
        record_hits: v[7],
        record_misses: v[8],
        record_seq_misses: v[9],
    })
}

fn encode_reply_body(enc: &mut Encoder, reply: &QueryReply) {
    enc.str(&reply.plan);
    encode_counters(enc, &reply.stats);
    enc.usize(reply.shard_stats.len());
    for shard in &reply.shard_stats {
        encode_counters(enc, shard);
    }
    enc.usize(reply.rows.len());
    for row in &reply.rows {
        enc.str(&row.a);
        match &row.b {
            Some(b) => {
                enc.bool(true);
                enc.str(b);
            }
            None => enc.bool(false),
        }
        match row.offset {
            Some(off) => {
                enc.bool(true);
                enc.u64(off);
            }
            None => enc.bool(false),
        }
        enc.f64(row.distance);
    }
}

fn decode_reply_body(dec: &mut Decoder<'_>) -> Result<QueryReply, StoreError> {
    let plan = dec.str("plan name")?;
    let stats = decode_counters(dec)?;
    // Per-shard counter blocks are 10 u64s each.
    let shard_count = dec.seq(80, "shard stats")?;
    let mut shard_stats = Vec::with_capacity(shard_count);
    for _ in 0..shard_count {
        shard_stats.push(decode_counters(dec)?);
    }
    // Minimum row wire size: 8 (label length) + 1 + 1 + 8 (distance).
    let count = dec.seq(18, "rows")?;
    let mut rows = Vec::with_capacity(count);
    for i in 0..count {
        let a = dec.str(&format!("row {i} label"))?;
        let b = if dec.bool(&format!("row {i} join flag"))? {
            Some(dec.str(&format!("row {i} second label"))?)
        } else {
            None
        };
        let offset = if dec.bool(&format!("row {i} offset flag"))? {
            Some(dec.u64(&format!("row {i} offset"))?)
        } else {
            None
        };
        let distance = dec.f64_finite(&format!("row {i} distance"))?;
        rows.push(WireRow {
            a,
            b,
            offset,
            distance,
        });
    }
    Ok(QueryReply {
        rows,
        plan,
        stats,
        shard_stats,
    })
}

fn encode_wire_error(enc: &mut Encoder, err: &WireError) {
    enc.u8(err.code as u8);
    enc.str(&err.message);
}

fn decode_wire_error(dec: &mut Decoder<'_>) -> Result<WireError, StoreError> {
    let raw = dec.u8("error code")?;
    let code = ErrorCode::from_u8(raw)
        .ok_or_else(|| StoreError::corrupt(format!("unknown error code {raw}")))?;
    let message = dec.str("error message")?;
    Ok(WireError { code, message })
}

/// Encodes a response payload (frame it with [`write_frame`]).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut enc = Encoder::new();
    match resp {
        Response::Error(err) => {
            enc.u8(RESP_ERROR);
            encode_wire_error(&mut enc, err);
        }
        Response::Rows(reply) => {
            enc.u8(RESP_ROWS);
            encode_reply_body(&mut enc, reply);
        }
        Response::Batch(slots) => {
            enc.u8(RESP_BATCH);
            enc.usize(slots.len());
            for slot in slots {
                match slot {
                    Ok(reply) => {
                        enc.u8(1);
                        encode_reply_body(&mut enc, reply);
                    }
                    Err(err) => {
                        enc.u8(0);
                        encode_wire_error(&mut enc, err);
                    }
                }
            }
        }
        Response::Stats(json) => {
            enc.u8(RESP_STATS);
            enc.str(json);
        }
        Response::Pong => enc.u8(RESP_PONG),
        Response::Bye => enc.u8(RESP_BYE),
        Response::Append(reply) => {
            enc.u8(RESP_APPEND);
            encode_reply_body(&mut enc, reply);
        }
    }
    enc.into_bytes()
}

/// Decodes a response payload.
///
/// # Errors
/// Same typed taxonomy as [`decode_request`].
pub fn decode_response(payload: &[u8]) -> Result<Response, StoreError> {
    let mut dec = Decoder::new(payload);
    let resp = match dec.u8("response tag")? {
        RESP_ERROR => Response::Error(decode_wire_error(&mut dec)?),
        RESP_ROWS => Response::Rows(decode_reply_body(&mut dec)?),
        RESP_BATCH => {
            let count = dec.seq(1, "batch slots")?;
            let mut slots = Vec::with_capacity(count);
            for i in 0..count {
                match dec.u8(&format!("batch slot {i} tag"))? {
                    1 => slots.push(Ok(decode_reply_body(&mut dec)?)),
                    0 => slots.push(Err(decode_wire_error(&mut dec)?)),
                    other => {
                        return Err(StoreError::corrupt(format!(
                            "batch slot {i}: unknown tag {other}"
                        )))
                    }
                }
            }
            Response::Batch(slots)
        }
        RESP_STATS => Response::Stats(dec.str("stats json")?),
        RESP_PONG => Response::Pong,
        RESP_BYE => Response::Bye,
        RESP_APPEND => Response::Append(decode_reply_body(&mut dec)?),
        other => return Err(StoreError::corrupt(format!("unknown response tag {other}"))),
    };
    dec.finish()?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_reply() -> QueryReply {
        QueryReply {
            rows: vec![
                WireRow {
                    a: "s0".into(),
                    b: None,
                    offset: None,
                    distance: 0.25,
                },
                WireRow {
                    a: "s1".into(),
                    b: Some("s2".into()),
                    offset: None,
                    distance: 1.5,
                },
                WireRow {
                    a: "s3".into(),
                    b: None,
                    offset: Some(17),
                    distance: 0.125,
                },
            ],
            plan: "IndexRange".into(),
            stats: ExecStats {
                candidates: 9,
                refined: 5,
                false_hits: 2,
                nodes_visited: 4,
                disk_accesses: 13,
                pool_hits: 3,
                pool_misses: 1,
                ..ExecStats::default()
            },
            shard_stats: Vec::new(),
        }
    }

    fn sharded_reply() -> QueryReply {
        let mut reply = sample_reply();
        reply.plan = "Sharded(2):IndexRange".into();
        reply.shard_stats = vec![
            ExecStats {
                candidates: 4,
                refined: 2,
                false_hits: 1,
                nodes_visited: 3,
                disk_accesses: 7,
                pool_hits: 3,
                pool_misses: 0,
                ..ExecStats::default()
            },
            ExecStats {
                candidates: 5,
                refined: 3,
                false_hits: 1,
                nodes_visited: 1,
                disk_accesses: 6,
                pool_hits: 0,
                pool_misses: 1,
                ..ExecStats::default()
            },
        ];
        reply
    }

    #[test]
    fn requests_round_trip() {
        for req in [
            Request::Query("FIND 3 NEAREST TO walks.s0 IN walks".into()),
            Request::Batch {
                queries: vec!["a".into(), "b".into()],
                threads: 4,
            },
            Request::Stats,
            Request::Ping,
            Request::Shutdown,
            Request::Append {
                relation: "walks".into(),
                rows: vec![
                    IngestRow {
                        label: "s0".into(),
                        values: vec![1.5, -0.25],
                    },
                    IngestRow {
                        label: "fresh".into(),
                        values: vec![0.0],
                    },
                ],
            },
        ] {
            let bytes = encode_request(&req);
            assert_eq!(decode_request(&bytes).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in [
            Response::Error(WireError::new(ErrorCode::Timeout, "10s elapsed")),
            Response::Rows(sample_reply()),
            Response::Rows(sharded_reply()),
            Response::Batch(vec![
                Ok(sample_reply()),
                Ok(sharded_reply()),
                Err(WireError::new(ErrorCode::BadQuery, "nope")),
            ]),
            Response::Stats("{\"queries\":1}".into()),
            Response::Pong,
            Response::Bye,
            Response::Append(sample_reply()),
            Response::Error(WireError::new(ErrorCode::Unsupported, "paged relation")),
        ] {
            let bytes = encode_response(&resp);
            assert_eq!(decode_response(&bytes).unwrap(), resp);
        }
    }

    #[test]
    fn framed_round_trip_through_a_buffer() {
        let req = Request::Query("JOIN walks WITHIN 1".into());
        let mut buf = Vec::new();
        write_frame(&mut buf, &encode_request(&req)).unwrap();
        let payload = read_frame(&mut buf.as_slice(), DEFAULT_MAX_FRAME_LEN).unwrap();
        assert_eq!(decode_request(&payload).unwrap(), req);
    }

    #[test]
    fn clean_close_truncation_and_cap_are_typed() {
        // EOF at the boundary: clean close.
        assert!(matches!(
            read_frame(&mut (&[] as &[u8]), 1024),
            Err(FrameError::Closed)
        ));
        // Truncated header.
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        assert!(matches!(
            read_frame(&mut &buf[..10], 1024),
            Err(FrameError::Malformed(StoreError::Truncated { .. }))
        ));
        // Mid-body EOF.
        assert!(matches!(
            read_frame(&mut &buf[..HEADER_LEN + 3], 1024),
            Err(FrameError::Malformed(StoreError::Truncated { .. }))
        ));
        // Oversized declared length is refused before allocation.
        let mut huge = buf.clone();
        huge[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut huge.as_slice(), 1024),
            Err(FrameError::TooLarge { max: 1024, .. })
        ));
        // A payload bit flip is a checksum mismatch.
        let mut flipped = buf.clone();
        flipped[HEADER_LEN] ^= 0x10;
        assert!(matches!(
            read_frame(&mut flipped.as_slice(), 1024),
            Err(FrameError::Malformed(StoreError::ChecksumMismatch { .. }))
        ));
    }

    #[test]
    fn hostile_payloads_decode_to_typed_errors() {
        // Unknown tags.
        assert!(decode_request(&[99]).is_err());
        assert!(decode_response(&[99]).is_err());
        // Empty payloads.
        assert!(decode_request(&[]).is_err());
        assert!(decode_response(&[]).is_err());
        // A batch declaring u64::MAX queries must die in the allocation
        // guard, not in an allocation.
        let mut enc = Encoder::new();
        enc.u8(REQ_BATCH);
        enc.u32(2);
        enc.u64(u64::MAX);
        assert!(matches!(
            decode_request(&enc.into_bytes()),
            Err(StoreError::Truncated { .. } | StoreError::Corrupt { .. })
        ));
        // Trailing garbage after a valid request is corrupt.
        let mut bytes = encode_request(&Request::Ping);
        bytes.push(0);
        assert!(matches!(
            decode_request(&bytes),
            Err(StoreError::Corrupt { .. })
        ));
        // An APPEND declaring u64::MAX rows dies in the allocation guard.
        let mut enc = Encoder::new();
        enc.u8(REQ_APPEND);
        enc.str("walks");
        enc.u64(u64::MAX);
        assert!(matches!(
            decode_request(&enc.into_bytes()),
            Err(StoreError::Truncated { .. } | StoreError::Corrupt { .. })
        ));
        // A non-finite APPEND value is refused at decode time — it can
        // never reach the engine through the binary protocol.
        let req = Request::Append {
            relation: "walks".into(),
            rows: vec![IngestRow {
                label: "s0".into(),
                values: vec![1.0],
            }],
        };
        let mut bytes = encode_request(&req);
        let len = bytes.len();
        bytes[len - 8..].copy_from_slice(&f64::INFINITY.to_le_bytes());
        assert!(decode_request(&bytes).is_err());
        // A non-finite distance in a response is corrupt.
        let mut reply = sample_reply();
        reply.rows[0].distance = 0.0;
        let mut bytes = encode_response(&Response::Rows(reply));
        let len = bytes.len();
        bytes[len - 8..].copy_from_slice(&f64::NAN.to_le_bytes());
        assert!(decode_response(&bytes).is_err());
    }

    #[test]
    fn prefixed_read_matches_unprefixed() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"sniffed").unwrap();
        let payload = read_frame_prefixed(&mut &buf[8..], &buf[..8], 1024).unwrap();
        assert_eq!(payload, b"sniffed");
    }
}
