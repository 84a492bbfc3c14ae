//! The TCP server: protocol sniffing, a connection-per-worker accept
//! pool, admitted work run on an executor [`Pool`] of its own under
//! admission control and per-query timeouts, and graceful drain-then-stop
//! shutdown.
//!
//! ```text
//!        clients                        server
//!   ┌── binary frames ──┐      ┌─ acceptor workers ─┐     ┌─ executor Pool ─┐
//!   │ tsq-client, bench │ ───► │ sniff first bytes  │ ──► │ spawn: engine.* │
//!   └── HTTP/1.1 JSON ──┘      │ frame/HTTP session │ ◄── │ (exec_threads)  │
//!                              └────────────────────┘     └────────┬────────┘
//!                                                    fan-outs ──►  Pool::global
//! ```
//!
//! **Admission control.** Every query (or batch) becomes one task
//! spawned on the executor pool. When `max_inflight` jobs are queued or
//! running, new requests are answered with a typed `Overloaded` error
//! immediately — the queue never grows without bound and latency stays
//! measurable instead of collapsing.
//!
//! **One executor.** The executor is a [`tsq_core::executor::Pool`] of
//! `exec_threads` workers, not the global one: a served statement's
//! fan-outs (a scatter, an ST-index build, a batch's statements) run over
//! [`Pool::global`] exactly as they would from any other thread, because
//! nesting is per pool. A fan-out's caller never waits on a helper that
//! has not started, so a statement waits on no queued work, whichever
//! pool it runs on and whatever lock it holds.
//!
//! **Timeouts.** The connection worker waits `query_timeout` (scaled by
//! batch size for batches) for its job's answer; past that the client
//! gets a typed `Timeout` error. The job itself runs to completion on
//! the pool — answers are discarded, not interrupted — so admission
//! accounting stays exact. Sockets are read by blocking reads: the wait
//! for a frame's first byte has no timeout, and from that byte on the
//! whole frame or HTTP request — sniffing prefix, header, payload and
//! trailer — must arrive within one `frame_timeout`, each read waiting at
//! most the time left (the slow-loris bound).
//!
//! **Graceful shutdown.** A [`tsq_core::executor::CancelToken`] flips
//! once: acceptors stop admitting work (typed `ShuttingDown` errors),
//! drain their current connections, and exit; then dropping the executor
//! pool runs everything already admitted before joining its workers.
//! In-flight work is never dropped. Each acceptor keeps a handle on the
//! connection it serves, and shutdown shuts that connection's read half:
//! a read blocked on an idle client returns end-of-file, and the session
//! closes as if the client had left. A session waiting on its query still
//! answers it first.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tsq_core::executor::{clamp_threads, CancelToken, Pool};
use tsq_core::series::io::{content_lines, parse_rows};

use crate::engine::{Engine, EngineError, IngestRow, QueryReply};
use crate::http::{self, HttpError, HttpRequest};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::wire::{
    self, ErrorCode, FrameError, Request, Response, WireError, DEFAULT_MAX_FRAME_LEN,
};

/// Tuning knobs for one server. `Default` is sized for tests and small
/// deployments; every field is public.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Acceptor/connection worker threads (connection-per-worker).
    /// Clamped by [`clamp_threads`].
    pub workers: usize,
    /// Workers of the executor [`Pool`] that runs admitted queries.
    /// Clamped by [`clamp_threads`].
    pub exec_threads: usize,
    /// Most jobs queued + running before admission control answers
    /// `Overloaded` (at least 1).
    pub max_inflight: usize,
    /// Per-query answer deadline; batches get `timeout × batch len`.
    pub query_timeout: Duration,
    /// Cap on a single wire frame's payload and an HTTP body.
    pub max_frame_len: usize,
    /// How long a frame or an HTTP request may take to arrive, from the
    /// frame's first byte, prefix included, before the connection is
    /// dropped (slow-loris bound). Also each reply's write timeout.
    pub frame_timeout: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            exec_threads: 0, // let the machine decide
            max_inflight: 64,
            query_timeout: Duration::from_secs(10),
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            frame_timeout: Duration::from_secs(10),
        }
    }
}

struct Shared {
    engine: Arc<dyn Engine>,
    metrics: Arc<Metrics>,
    cancel: CancelToken,
    config: ServiceConfig,
    addr: SocketAddr,
    /// Runs admitted jobs. Its tasks hold the engine and the metrics,
    /// never this struct, so the last `Shared` — and with it the pool —
    /// is dropped by [`ServerHandle::wait`], never by a worker of the
    /// pool.
    exec: Pool,
    /// One slot per acceptor: a handle on the connection it serves, which
    /// [`initiate_shutdown`] uses to wake a read blocked on it.
    conns: Vec<Mutex<Option<TcpStream>>>,
}

/// A running server. Obtain with [`Server::start`]; stop with
/// [`ServerHandle::shutdown`] (or let a remote `SHUTDOWN` / `POST
/// /shutdown` trigger the same drain and observe it via
/// [`ServerHandle::wait`]).
pub struct Server;

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving `engine` with `config`.
    ///
    /// # Errors
    /// Propagates socket bind failures.
    pub fn start<E: Engine>(
        addr: impl ToSocketAddrs,
        engine: E,
        config: ServiceConfig,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let workers = clamp_threads(config.workers.max(1));
        let exec_threads = clamp_threads(config.exec_threads);
        let max_inflight = config.max_inflight.max(1);
        let config = ServiceConfig {
            workers,
            exec_threads,
            max_inflight,
            ..config
        };
        let shared = Arc::new(Shared {
            engine: Arc::new(engine),
            metrics: Arc::new(Metrics::new()),
            cancel: CancelToken::new(),
            config,
            addr: local,
            exec: Pool::new(exec_threads),
            conns: (0..workers).map(|_| Mutex::new(None)).collect(),
        });
        let listener = Arc::new(listener);
        let acceptors: Vec<JoinHandle<()>> = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let listener = Arc::clone(&listener);
                std::thread::Builder::new()
                    .name(format!("tsq-conn-{i}"))
                    .spawn(move || accept_loop(&shared, &listener, &shared.conns[i]))
                    .expect("spawn acceptor")
            })
            .collect();
        Ok(ServerHandle { shared, acceptors })
    }
}

/// Owner handle of a running server.
pub struct ServerHandle {
    shared: Arc<Shared>,
    acceptors: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves `:0` to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Initiates graceful shutdown and blocks until the drain completes:
    /// acceptors finish their current connections, then the executor pool
    /// finishes every admitted job. Returns the final metrics.
    pub fn shutdown(self) -> MetricsSnapshot {
        initiate_shutdown(&self.shared);
        self.wait()
    }

    /// Blocks until the server stops (e.g. a remote `SHUTDOWN` request
    /// or `POST /shutdown`), draining exactly like
    /// [`ServerHandle::shutdown`]. Returns the final metrics.
    pub fn wait(self) -> MetricsSnapshot {
        let ServerHandle { shared, acceptors } = self;
        for h in acceptors {
            let _ = h.join();
        }
        // No acceptors → no new submissions, and this is the last
        // `Shared`: dropping it drops the executor pool, which runs what
        // was admitted and joins its workers.
        let metrics = Arc::clone(&shared.metrics);
        drop(shared);
        metrics.snapshot()
    }
}

/// Flips the cancel token, shuts the read half of every connection an
/// acceptor serves, and unblocks every idle acceptor with wake
/// connections. Idempotent; callable from a handler thread (remote
/// shutdown) or the handle.
fn initiate_shutdown(shared: &Shared) {
    if shared.cancel.is_cancelled() {
        return;
    }
    shared.cancel.cancel();
    // An acceptor fills its slot before it reads the token, so a
    // connection that is not in a slot here is never served.
    for slot in &shared.conns {
        if let Some(conn) = &*slot.lock().unwrap_or_else(PoisonError::into_inner) {
            let _ = conn.shutdown(Shutdown::Read);
        }
    }
    for _ in 0..shared.config.workers {
        // Each throwaway connection unblocks at most one accept(); an
        // acceptor that is busy with a real connection re-checks the
        // token before its next accept instead.
        let _ = TcpStream::connect_timeout(&shared.addr, Duration::from_millis(200));
    }
}

fn accept_loop(shared: &Shared, listener: &TcpListener, slot: &Mutex<Option<TcpStream>>) {
    let fill = |conn| *slot.lock().unwrap_or_else(PoisonError::into_inner) = conn;
    while !shared.cancel.is_cancelled() {
        let Ok((stream, _)) = listener.accept() else {
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        // A connection that shutdown could not wake is closed, not served.
        let Ok(waker) = stream.try_clone() else {
            continue;
        };
        fill(Some(waker));
        // The token is read only once the slot is filled: flipped now,
        // it marks a shutdown wake-up, not a client.
        if !shared.cancel.is_cancelled() {
            handle_connection(shared, &stream);
        }
        fill(None);
    }
}

/// A `Read` over a socket that must be done by `deadline`: each read
/// waits at most the time left.
struct Deadlined<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl Read for Deadlined<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        // Checked first: `std` refuses a zero read timeout.
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "frame read deadline exceeded",
            ));
        }
        self.stream.set_read_timeout(Some(left))?;
        let mut s = self.stream;
        s.read(buf)
    }
}

/// Waits, with no timeout, for the first byte of a frame or an HTTP
/// request, then reads the rest of its 8 protocol-sniffing bytes within
/// `frame_timeout` of that byte. Returns them with the reader that holds
/// the same deadline for the rest of the frame. `None` means "close
/// quietly": clean EOF (shutdown's wake included), a stall past the
/// deadline, or a socket error.
fn read_prefix<'a>(shared: &Shared, stream: &'a TcpStream) -> Option<([u8; 8], Deadlined<'a>)> {
    let mut prefix = [0u8; 8];
    stream.set_read_timeout(None).ok()?;
    let mut s = stream;
    let first = match s.read(&mut prefix) {
        Ok(0) | Err(_) => return None,
        Ok(n) => n,
    };
    let mut reader = Deadlined {
        stream,
        deadline: Instant::now() + shared.config.frame_timeout,
    };
    reader.read_exact(&mut prefix[first..]).ok()?;
    Some((prefix, reader))
}

fn handle_connection(shared: &Shared, stream: &TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(shared.config.frame_timeout));
    let Some((prefix, reader)) = read_prefix(shared, stream) else {
        return;
    };
    if prefix == *tsq_store::MAGIC {
        binary_session(shared, prefix, reader);
    } else if http::looks_like_http(&prefix) {
        http_session(shared, &prefix, reader);
    }
    // Anything else: an unknown protocol; close without a word.
}

fn respond(stream: &TcpStream, resp: &Response) -> io::Result<()> {
    let mut s = stream;
    wire::write_frame(&mut s, &wire::encode_response(resp))
}

/// Counts a refused request under `code` and returns its error frame.
fn refuse(shared: &Shared, code: ErrorCode, message: impl Into<String>) -> Response {
    shared.metrics.record_err(code);
    Response::Error(WireError::new(code, message))
}

fn binary_session(shared: &Shared, mut prefix: [u8; 8], mut reader: Deadlined<'_>) {
    let stream = reader.stream;
    // Anything but the magic: the client lost frame sync; nothing sane
    // to say.
    while prefix == *tsq_store::MAGIC {
        let max_len = shared.config.max_frame_len;
        let payload = match wire::read_frame_prefixed(&mut reader, &prefix, max_len) {
            Ok(payload) => payload,
            // A reset or a stall past the deadline: close quietly.
            Err(FrameError::Closed | FrameError::Io(_)) => return,
            // Cut short by shutdown's wake: close as if the client left.
            Err(_) if shared.cancel.is_cancelled() => return,
            Err(FrameError::TooLarge { len, max }) => {
                // Refused before allocation; the unread payload makes the
                // stream unusable, so answer typed and close.
                let message = format!("frame declares {len} byte(s), cap is {max}");
                let _ = respond(stream, &refuse(shared, ErrorCode::TooLarge, message));
                return;
            }
            Err(FrameError::Malformed(e)) => {
                // The bytes arrived but failed validation (version,
                // endianness, CRC): typed error, then close — the stream
                // position is untrustworthy.
                let _ = respond(stream, &refuse(shared, ErrorCode::Malformed, e.to_string()));
                return;
            }
        };
        shared.metrics.tcp_request();
        let resp = match wire::decode_request(&payload) {
            Ok(req) => dispatch(shared, req),
            // The frame passed its checksum, so we are still in sync:
            // answer typed and keep the session.
            Err(e) => refuse(shared, ErrorCode::Malformed, e.to_string()),
        };
        let done = matches!(resp, Response::Bye);
        // Once shutdown has begun, the answer just sent is the last.
        if respond(stream, &resp).is_err() || done || shared.cancel.is_cancelled() {
            return;
        }
        let Some(next) = read_prefix(shared, stream) else {
            return;
        };
        (prefix, reader) = next;
    }
}

fn dispatch(shared: &Shared, req: Request) -> Response {
    match req {
        Request::Ping => Response::Pong,
        Request::Stats => Response::Stats(shared.metrics.snapshot().to_json()),
        Request::Shutdown => {
            initiate_shutdown(shared);
            Response::Bye
        }
        Request::Query(q) => match run_one(shared, move |engine| engine.execute(&q)) {
            Ok(reply) => Response::Rows(reply),
            Err(err) => Response::Error(err),
        },
        Request::Append { relation, rows } => {
            match run_one(shared, move |engine| engine.append(&relation, rows)) {
                Ok(reply) => Response::Append(reply),
                Err(err) => Response::Error(err),
            }
        }
        Request::Batch { queries, threads } => {
            let n = queries.len().max(1) as u32;
            let timeout = shared
                .config
                .query_timeout
                .checked_mul(n)
                .unwrap_or(Duration::MAX);
            let slots = submit(shared, timeout, move |engine| {
                engine.execute_batch(queries, threads as usize)
            });
            match slots {
                Ok(slots) => Response::Batch(
                    slots
                        .into_iter()
                        .map(|slot| record(shared, slot.map_err(WireError::from)))
                        .collect(),
                ),
                Err(err) => refuse(shared, err.code, err.message),
            }
        }
    }
}

/// Counts one answered query — its rows and counters, or its error code
/// — in the metrics, and hands the answer on.
fn record(
    shared: &Shared,
    outcome: Result<QueryReply, WireError>,
) -> Result<QueryReply, WireError> {
    match &outcome {
        Ok(reply) => shared.metrics.record_ok(reply),
        Err(err) => shared.metrics.record_err(err.code),
    }
    outcome
}

/// Submits a single-reply job (a query or an append) under the per-query
/// timeout and records its outcome.
fn run_one(
    shared: &Shared,
    job: impl FnOnce(&dyn Engine) -> Result<QueryReply, EngineError> + Send + 'static,
) -> Result<QueryReply, WireError> {
    let answer = submit(shared, shared.config.query_timeout, job);
    record(shared, answer.and_then(|r| r.map_err(WireError::from)))
}

/// Admission control + execution + timeout: the one path every query,
/// append and batch takes, over either protocol. `job` runs as a task of
/// the executor pool; whatever it returns is this call's answer.
fn submit<R: Send + 'static>(
    shared: &Shared,
    timeout: Duration,
    job: impl FnOnce(&dyn Engine) -> R + Send + 'static,
) -> Result<R, WireError> {
    if shared.cancel.is_cancelled() {
        return Err(WireError::new(
            ErrorCode::ShuttingDown,
            "server is draining; no new queries",
        ));
    }
    // Exact admission: the gauge is bumped optimistically and rolled
    // back, so `max_inflight` genuinely bounds queued + running jobs.
    let prev = shared.metrics.query_started();
    if prev >= shared.config.max_inflight as u64 {
        shared.metrics.query_done();
        return Err(WireError::new(
            ErrorCode::Overloaded,
            format!(
                "{} queries in flight, cap is {}",
                prev, shared.config.max_inflight
            ),
        ));
    }
    let (reply_tx, reply_rx) = mpsc::sync_channel(1);
    let (engine, metrics) = (Arc::clone(&shared.engine), Arc::clone(&shared.metrics));
    shared.exec.spawn(move || {
        // A panicking engine is caught here, not only by the pool's
        // worker, so that its admission slot still goes back.
        let answer = catch_unwind(AssertUnwindSafe(|| job(&*engine)));
        // The admission slot claimed above goes back before the waiter
        // can hear the outcome, so its next statement is never refused
        // for a slot this one still holds — and it goes back even when
        // the waiter has timed out and left.
        metrics.query_done();
        // A caught panic drops the sender instead: the waiter reports it
        // as an engine error.
        if let Ok(answer) = answer {
            let _ = reply_tx.try_send(answer);
        }
    });
    match reply_rx.recv_timeout(timeout) {
        Ok(reply) => Ok(reply),
        Err(mpsc::RecvTimeoutError::Timeout) => Err(WireError::new(
            ErrorCode::Timeout,
            format!("no answer within {timeout:?} (query still completes server-side)"),
        )),
        Err(mpsc::RecvTimeoutError::Disconnected) => Err(WireError::new(
            ErrorCode::Engine,
            "execution worker dropped the reply",
        )),
    }
}

// ---------------------------------------------------------------------
// HTTP facade
// ---------------------------------------------------------------------

fn http_session(shared: &Shared, prefix: &[u8], mut reader: Deadlined<'_>) {
    let bytes = match http::read_request(&mut reader, prefix, shared.config.max_frame_len) {
        Ok(req) => {
            shared.metrics.http_request();
            http_dispatch(shared, &req)
        }
        // A reset or a stall past the deadline: close quietly.
        Err(HttpError::Io(_)) => return,
        // Cut short by shutdown's wake: close as if the client left.
        Err(_) if shared.cancel.is_cancelled() => return,
        Err(HttpError::TooLarge { len, max }) => http_refuse(
            shared,
            ErrorCode::TooLarge,
            format!("body declares {len} byte(s), cap is {max}"),
        ),
        Err(HttpError::Malformed(m)) => http_refuse(shared, ErrorCode::Malformed, m),
    };
    let mut s = reader.stream;
    let _ = s.write_all(&bytes);
    let _ = s.flush();
}

/// Counts a refused HTTP request under `code` and returns its error
/// response.
fn http_refuse(shared: &Shared, code: ErrorCode, message: impl Into<String>) -> Vec<u8> {
    shared.metrics.record_err(code);
    http_error_response(&WireError::new(code, message))
}

fn http_dispatch(shared: &Shared, req: &HttpRequest) -> Vec<u8> {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/health") => {
            let status = if shared.cancel.is_cancelled() {
                "draining"
            } else {
                "ok"
            };
            http::response(
                200,
                "OK",
                "application/json",
                &format!(
                    "{{\"status\":\"{status}\",\"in_flight\":{}}}",
                    shared.metrics.in_flight()
                ),
            )
        }
        ("GET", "/metrics") => http::response(
            200,
            "OK",
            "application/json",
            &shared.metrics.snapshot().to_json(),
        ),
        ("POST", "/shutdown") => {
            initiate_shutdown(shared);
            http::response(200, "OK", "application/json", "{\"status\":\"draining\"}")
        }
        ("POST", "/query") => {
            let Ok(query) = std::str::from_utf8(&req.body) else {
                return http_refuse(shared, ErrorCode::Malformed, "body is not utf-8");
            };
            let query = query.trim();
            if query.is_empty() {
                return http_refuse(shared, ErrorCode::BadQuery, "empty query body");
            }
            let query = query.to_string();
            http_reply(run_one(shared, move |engine| engine.execute(&query)))
        }
        ("POST", "/append") => {
            let Ok(body) = std::str::from_utf8(&req.body) else {
                return http_refuse(shared, ErrorCode::Malformed, "body is not utf-8");
            };
            let (relation, rows) = match parse_append_body(body) {
                Ok(parsed) => parsed,
                Err(m) => return http_refuse(shared, ErrorCode::BadQuery, m),
            };
            http_reply(run_one(shared, move |engine| {
                engine.append(&relation, rows)
            }))
        }
        _ => http::response(
            404,
            "Not Found",
            "application/json",
            &http::error_body("not-found", &format!("{} {}", req.method, req.path)),
        ),
    }
}

/// Parses a `POST /append` body: the first non-blank line names the
/// relation, every following line is `label, v1, v2, ...` (blank lines
/// and `#` comments skipped), read by the one row parser. Values must be
/// finite — the engine's atomicity guarantee starts at "no row is
/// half-parsed".
fn parse_append_body(body: &str) -> Result<(String, Vec<IngestRow>), String> {
    let mut lines = content_lines(body);
    let (_, relation) = lines
        .next()
        .ok_or_else(|| "empty append body (want: relation, then label,v1,... lines)".to_string())?;
    let rows = parse_rows(lines).map_err(|e| format!("append body {e}"))?;
    if rows.is_empty() {
        return Err(format!("append body for {relation:?} carries no rows"));
    }
    let rows = rows
        .into_iter()
        .map(|(label, values)| IngestRow { label, values })
        .collect();
    Ok((relation.to_string(), rows))
}

/// The HTTP answer to a query or an append: the reply as JSON, or the
/// error under its status code.
fn http_reply(outcome: Result<QueryReply, WireError>) -> Vec<u8> {
    match outcome {
        Ok(reply) => http::response(200, "OK", "application/json", &reply_json(&reply)),
        Err(err) => http_error_response(&err),
    }
}

fn http_error_response(err: &WireError) -> Vec<u8> {
    let (status, reason) = match err.code {
        ErrorCode::BadQuery | ErrorCode::Malformed => (400, "Bad Request"),
        ErrorCode::TooLarge => (413, "Payload Too Large"),
        ErrorCode::Overloaded | ErrorCode::ShuttingDown => (503, "Service Unavailable"),
        ErrorCode::Timeout => (504, "Gateway Timeout"),
        ErrorCode::Engine => (500, "Internal Server Error"),
        // The request was well-formed but names a capability the target
        // cannot offer (e.g. APPEND to a paged relation): a conflict
        // with the resource's state, not a client syntax error.
        ErrorCode::Unsupported => (409, "Conflict"),
    };
    http::response(
        status,
        reason,
        "application/json",
        &http::error_body(err.code.name(), &err.message),
    )
}

/// Renders one counters object as JSON (shared by the merged `stats`
/// field and the per-shard `shards` array).
fn stats_json(stats: &tsq_core::plan::ExecStats) -> String {
    let fields: Vec<String> = wire::COUNTERS
        .iter()
        .zip(wire::counters(stats))
        .map(|(name, v)| format!("\"{name}\":{v}"))
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// Renders a [`QueryReply`] as the HTTP facade's JSON answer. A
/// scatter-gather reply carries a `shards` array with one counters
/// object per shard; `stats` is always their exact sum.
pub(crate) fn reply_json(reply: &QueryReply) -> String {
    let mut rows = String::from("[");
    for (i, row) in reply.rows.iter().enumerate() {
        if i > 0 {
            rows.push(',');
        }
        rows.push_str(&format!("{{\"a\":\"{}\"", http::json_escape(&row.a)));
        match &row.b {
            Some(b) => rows.push_str(&format!(",\"b\":\"{}\"", http::json_escape(b))),
            None => rows.push_str(",\"b\":null"),
        }
        match row.offset {
            Some(off) => rows.push_str(&format!(",\"offset\":{off}")),
            None => rows.push_str(",\"offset\":null"),
        }
        rows.push_str(&format!(",\"distance\":{}}}", row.distance));
    }
    rows.push(']');
    let mut shards = String::from("[");
    for (i, shard) in reply.shard_stats.iter().enumerate() {
        if i > 0 {
            shards.push(',');
        }
        shards.push_str(&stats_json(shard));
    }
    shards.push(']');
    format!(
        "{{\"plan\":\"{}\",\"row_count\":{},\"rows\":{},\
         \"stats\":{},\"shards\":{}}}",
        http::json_escape(&reply.plan),
        reply.rows.len(),
        rows,
        stats_json(&reply.stats),
        shards
    )
}
