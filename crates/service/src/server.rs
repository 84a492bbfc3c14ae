//! The TCP server: protocol sniffing, a connection-per-worker accept
//! pool, a bounded execution pool with admission control and per-query
//! timeouts, and graceful drain-then-stop shutdown.
//!
//! ```text
//!        clients                        server
//!   ┌── binary frames ──┐      ┌─ acceptor workers ─┐     ┌─ exec pool ─┐
//!   │ tsq-client, bench │ ───► │ sniff first bytes  │ ──► │ engine.run  │
//!   └── HTTP/1.1 JSON ──┘      │ frame/HTTP session │ ◄── │ (bounded)   │
//!                              └────────────────────┘     └─────────────┘
//! ```
//!
//! **Admission control.** Every query (or batch) becomes a job on a
//! bounded queue feeding the execution pool. When `max_inflight` jobs
//! are queued or running, new requests are answered with a typed
//! `Overloaded` error immediately — the queue never grows without bound
//! and latency stays measurable instead of collapsing.
//!
//! **Timeouts.** The connection worker waits `query_timeout` (scaled by
//! batch size for batches) for its job's answer; past that the client
//! gets a typed `Timeout` error. The job itself runs to completion on
//! the pool — answers are discarded, not interrupted — so admission
//! accounting stays exact.
//!
//! **Graceful shutdown.** A [`tsq_core::executor::CancelToken`] flips
//! once: acceptors stop admitting work (typed `ShuttingDown` errors),
//! drain their current connections, and exit; then the job queue is
//! closed and the exec pool finishes everything already admitted before
//! joining. In-flight work is never dropped.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tsq_core::executor::{clamp_threads, CancelToken};
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
    /// Query-execution pool threads. Clamped by [`clamp_threads`].
    pub exec_threads: usize,
    /// Most jobs queued + running before admission control answers
    /// `Overloaded` (at least 1).
    pub max_inflight: usize,
    /// Per-query answer deadline; batches get `timeout × batch len`.
    pub query_timeout: Duration,
    /// Cap on a single wire frame's payload and an HTTP body.
    pub max_frame_len: usize,
    /// Socket read-timeout granularity: how often blocked reads check
    /// for shutdown.
    pub poll_interval: Duration,
    /// How long a started frame / HTTP request may dribble before the
    /// connection is dropped (slow-loris bound).
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
            poll_interval: Duration::from_millis(25),
            frame_timeout: Duration::from_secs(10),
        }
    }
}

/// One admitted unit of work: runs on an exec worker against the engine,
/// releases its admission slot and sends its own typed reply back to the
/// connection worker that submitted it (see [`submit`]).
type Job = Box<dyn FnOnce(&dyn Engine, &Metrics) + Send>;

struct Shared {
    engine: Arc<dyn Engine>,
    metrics: Metrics,
    cancel: CancelToken,
    config: ServiceConfig,
    addr: SocketAddr,
    /// Senders for new jobs; `None` once the queue is closed for drain.
    job_tx: Mutex<Option<SyncSender<Job>>>,
}

impl Shared {
    fn job_sender(&self) -> Option<SyncSender<Job>> {
        self.job_tx
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
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
        let (job_tx, job_rx) = mpsc::sync_channel::<Job>(max_inflight);
        let shared = Arc::new(Shared {
            engine: Arc::new(engine),
            metrics: Metrics::new(),
            cancel: CancelToken::new(),
            config,
            addr: local,
            job_tx: Mutex::new(Some(job_tx)),
        });
        let job_rx = Arc::new(Mutex::new(job_rx));
        let exec_workers: Vec<JoinHandle<()>> = (0..exec_threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let rx = Arc::clone(&job_rx);
                std::thread::Builder::new()
                    .name(format!("tsq-exec-{i}"))
                    .spawn(move || exec_loop(&shared, &rx))
                    .expect("spawn exec worker")
            })
            .collect();
        let listener = Arc::new(listener);
        let acceptors: Vec<JoinHandle<()>> = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let listener = Arc::clone(&listener);
                std::thread::Builder::new()
                    .name(format!("tsq-conn-{i}"))
                    .spawn(move || accept_loop(&shared, &listener))
                    .expect("spawn acceptor")
            })
            .collect();
        Ok(ServerHandle {
            shared,
            acceptors,
            exec_workers,
        })
    }
}

/// Owner handle of a running server.
pub struct ServerHandle {
    shared: Arc<Shared>,
    acceptors: Vec<JoinHandle<()>>,
    exec_workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves `:0` to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A point-in-time copy of the server's cumulative metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Initiates graceful shutdown and blocks until the drain completes:
    /// acceptors finish their current connections, the job queue closes,
    /// and the exec pool finishes every admitted job. Returns the final
    /// metrics.
    pub fn shutdown(self) -> MetricsSnapshot {
        initiate_shutdown(&self.shared);
        self.wait()
    }

    /// Blocks until the server stops (e.g. a remote `SHUTDOWN` request
    /// or `POST /shutdown`), draining exactly like
    /// [`ServerHandle::shutdown`]. Returns the final metrics.
    pub fn wait(mut self) -> MetricsSnapshot {
        for h in self.acceptors.drain(..) {
            let _ = h.join();
        }
        // No acceptors → no new submissions. Close the queue so the exec
        // pool drains what was admitted and exits.
        self.shared
            .job_tx
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        for h in self.exec_workers.drain(..) {
            let _ = h.join();
        }
        self.shared.metrics.snapshot()
    }
}

/// Flips the cancel token and unblocks every acceptor with wake
/// connections. Idempotent; callable from a handler thread (remote
/// shutdown) or the handle.
fn initiate_shutdown(shared: &Shared) {
    if shared.cancel.is_cancelled() {
        return;
    }
    shared.cancel.cancel();
    for _ in 0..shared.config.workers {
        // Each throwaway connection unblocks at most one accept(); an
        // acceptor that is busy with a real connection re-checks the
        // token before its next accept instead.
        let _ = TcpStream::connect_timeout(&shared.addr, Duration::from_millis(200));
    }
}

fn exec_loop(shared: &Shared, rx: &Mutex<Receiver<Job>>) {
    loop {
        // Hold the lock only to dequeue — workers run jobs concurrently.
        let job = {
            let guard = rx.lock().unwrap_or_else(PoisonError::into_inner);
            guard.recv()
        };
        let Ok(job) = job else { break };
        job(&*shared.engine, &shared.metrics);
    }
}

fn accept_loop(shared: &Shared, listener: &TcpListener) {
    loop {
        if shared.cancel.is_cancelled() {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.cancel.is_cancelled() {
                    break; // a shutdown wake-up, not a client
                }
                handle_connection(shared, &stream);
            }
            Err(_) => {
                if shared.cancel.is_cancelled() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// A `Read` over a socket that retries its read-timeout ticks until data
/// arrives, the optional deadline passes, or the server is cancelled.
struct TimedReader<'a> {
    stream: &'a TcpStream,
    cancel: &'a CancelToken,
    deadline: Option<Instant>,
}

impl Read for TimedReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            if self.cancel.is_cancelled() {
                return Err(io::Error::new(
                    io::ErrorKind::Interrupted,
                    "server shutting down",
                ));
            }
            if let Some(d) = self.deadline {
                if Instant::now() >= d {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "frame read deadline exceeded",
                    ));
                }
            }
            let mut s = self.stream;
            match s.read(buf) {
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    continue
                }
                r => return r,
            }
        }
    }
}

/// Reads the 8 protocol-sniffing bytes. `None` means "close quietly":
/// clean EOF, a mid-prefix stall past the frame timeout, cancellation
/// while idle, or a socket error.
fn read_prefix(shared: &Shared, stream: &TcpStream) -> Option<[u8; 8]> {
    let mut buf = [0u8; 8];
    let mut filled = 0;
    let mut started: Option<Instant> = None;
    loop {
        if shared.cancel.is_cancelled() {
            return None;
        }
        if let Some(t) = started {
            if t.elapsed() > shared.config.frame_timeout {
                return None; // slow-loris: a dribbled prefix
            }
        }
        let mut s = stream;
        match s.read(&mut buf[filled..]) {
            Ok(0) => return None,
            Ok(n) => {
                if started.is_none() {
                    started = Some(Instant::now());
                }
                filled += n;
                if filled == 8 {
                    return Some(buf);
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                continue
            }
            Err(_) => return None,
        }
    }
}

fn handle_connection(shared: &Shared, stream: &TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.config.poll_interval));
    let _ = stream.set_write_timeout(Some(shared.config.frame_timeout));
    let Some(prefix) = read_prefix(shared, stream) else {
        return;
    };
    if prefix == *tsq_store::MAGIC {
        binary_session(shared, stream, prefix);
    } else if http::looks_like_http(&prefix) {
        http_session(shared, stream, &prefix);
    }
    // Anything else: an unknown protocol; close without a word.
}

fn respond(stream: &TcpStream, resp: &Response) -> io::Result<()> {
    let mut s = stream;
    wire::write_frame(&mut s, &wire::encode_response(resp))
}

fn binary_session(shared: &Shared, stream: &TcpStream, first_prefix: [u8; 8]) {
    let mut prefix = Some(first_prefix);
    loop {
        let head = match prefix.take() {
            Some(p) => p,
            None => {
                if shared.cancel.is_cancelled() {
                    return; // drained our last answer; stop serving
                }
                match read_prefix(shared, stream) {
                    Some(p) => p,
                    None => return,
                }
            }
        };
        if head != *tsq_store::MAGIC {
            return; // the client lost frame sync; nothing sane to say
        }
        let mut reader = TimedReader {
            stream,
            cancel: &shared.cancel,
            deadline: Some(Instant::now() + shared.config.frame_timeout),
        };
        let payload =
            match wire::read_frame_prefixed(&mut reader, &head, shared.config.max_frame_len) {
                Ok(p) => p,
                Err(FrameError::TooLarge { len, max }) => {
                    // Refused before allocation; the unread payload makes
                    // the stream unusable, so answer typed and close.
                    shared.metrics.record_err(ErrorCode::TooLarge);
                    let err = WireError::new(
                        ErrorCode::TooLarge,
                        format!("frame declares {len} byte(s), cap is {max}"),
                    );
                    let _ = respond(stream, &Response::Error(err));
                    return;
                }
                Err(FrameError::Malformed(e)) => {
                    // The bytes arrived but failed validation (version,
                    // endianness, CRC): typed error, then close — the
                    // stream position is untrustworthy.
                    shared.metrics.record_err(ErrorCode::Malformed);
                    let err = WireError::new(ErrorCode::Malformed, e.to_string());
                    let _ = respond(stream, &Response::Error(err));
                    return;
                }
                Err(_) => return, // disconnect / timeout mid-frame
            };
        shared.metrics.tcp_request();
        let req = match wire::decode_request(&payload) {
            Ok(r) => r,
            Err(e) => {
                // The frame passed its checksum, so we are still in sync:
                // answer typed and keep the session.
                shared.metrics.record_err(ErrorCode::Malformed);
                let err = WireError::new(ErrorCode::Malformed, e.to_string());
                if respond(stream, &Response::Error(err)).is_err() {
                    return;
                }
                continue;
            }
        };
        let resp = dispatch(shared, req);
        let done = matches!(resp, Response::Bye);
        if respond(stream, &resp).is_err() || done {
            return;
        }
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
                Err(err) => {
                    shared.metrics.record_err(err.code);
                    Response::Error(err)
                }
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
/// append and batch takes, over either protocol. `job` runs on an exec
/// worker; whatever it returns is this call's answer.
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
    let Some(tx) = shared.job_sender() else {
        return Err(WireError::new(
            ErrorCode::ShuttingDown,
            "server is draining; no new queries",
        ));
    };
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
    let job: Job = Box::new(move |engine, metrics| {
        // A panicking engine must not unwind out of the exec worker: with
        // one exec thread the queue would lose its only receiver and
        // every later query would be refused until a restart.
        let answer = catch_unwind(AssertUnwindSafe(|| job(engine)));
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
    match tx.try_send(job) {
        Ok(()) => {}
        Err(TrySendError::Full(_)) => {
            shared.metrics.query_done();
            return Err(WireError::new(
                ErrorCode::Overloaded,
                "execution queue is full",
            ));
        }
        Err(TrySendError::Disconnected(_)) => {
            shared.metrics.query_done();
            return Err(WireError::new(
                ErrorCode::ShuttingDown,
                "execution pool has stopped",
            ));
        }
    }
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

fn http_session(shared: &Shared, stream: &TcpStream, prefix: &[u8]) {
    let mut reader = TimedReader {
        stream,
        cancel: &shared.cancel,
        deadline: Some(Instant::now() + shared.config.frame_timeout),
    };
    let bytes = match http::read_request(&mut reader, prefix, shared.config.max_frame_len) {
        Ok(req) => {
            shared.metrics.http_request();
            http_dispatch(shared, &req)
        }
        Err(HttpError::TooLarge { len, max }) => {
            shared.metrics.record_err(ErrorCode::TooLarge);
            http::response(
                413,
                "Payload Too Large",
                "application/json",
                &http::error_body(
                    ErrorCode::TooLarge.name(),
                    &format!("body declares {len} byte(s), cap is {max}"),
                ),
            )
        }
        Err(HttpError::Malformed(m)) => {
            shared.metrics.record_err(ErrorCode::Malformed);
            http::response(
                400,
                "Bad Request",
                "application/json",
                &http::error_body(ErrorCode::Malformed.name(), &m),
            )
        }
        Err(HttpError::Io(_)) => return,
    };
    let mut s = stream;
    let _ = s.write_all(&bytes);
    let _ = s.flush();
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
                shared.metrics.record_err(ErrorCode::Malformed);
                return http::response(
                    400,
                    "Bad Request",
                    "application/json",
                    &http::error_body(ErrorCode::Malformed.name(), "body is not utf-8"),
                );
            };
            let query = query.trim();
            if query.is_empty() {
                shared.metrics.record_err(ErrorCode::BadQuery);
                return http::response(
                    400,
                    "Bad Request",
                    "application/json",
                    &http::error_body(ErrorCode::BadQuery.name(), "empty query body"),
                );
            }
            let query = query.to_string();
            http_reply(run_one(shared, move |engine| engine.execute(&query)))
        }
        ("POST", "/append") => {
            let Ok(body) = std::str::from_utf8(&req.body) else {
                shared.metrics.record_err(ErrorCode::Malformed);
                return http::response(
                    400,
                    "Bad Request",
                    "application/json",
                    &http::error_body(ErrorCode::Malformed.name(), "body is not utf-8"),
                );
            };
            let (relation, rows) = match parse_append_body(body) {
                Ok(parsed) => parsed,
                Err(m) => {
                    shared.metrics.record_err(ErrorCode::BadQuery);
                    return http::response(
                        400,
                        "Bad Request",
                        "application/json",
                        &http::error_body(ErrorCode::BadQuery.name(), &m),
                    );
                }
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
    format!(
        "{{\"candidates\":{},\"refined\":{},\"false_hits\":{},\
         \"nodes_visited\":{},\"disk_accesses\":{},\
         \"pool_hits\":{},\"pool_misses\":{}}}",
        stats.candidates,
        stats.refined,
        stats.false_hits,
        stats.nodes_visited,
        stats.disk_accesses,
        stats.pool_hits,
        stats.pool_misses
    )
}

/// Renders a [`QueryReply`] as the HTTP facade's JSON answer. A
/// scatter-gather reply carries a `shards` array with one counters
/// object per shard; `stats` is always their exact sum.
pub fn reply_json(reply: &QueryReply) -> String {
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
