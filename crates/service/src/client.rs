//! A blocking client for the binary wire protocol — used by the shell,
//! the load bench, the CI smoke test, and anyone scripting the server
//! without HTTP.

use std::io::{self, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::engine::{IngestRow, QueryReply};
use crate::wire::{self, FrameError, Request, Response, WireError, DEFAULT_MAX_FRAME_LEN};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (connect, read, write).
    Io(io::Error),
    /// The server's bytes did not frame or decode.
    Frame(FrameError),
    /// The server answered with a response the request does not admit
    /// (e.g. `Pong` to a query).
    Protocol(String),
    /// The server answered with a typed error frame.
    Remote(WireError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Frame(e) => write!(f, "bad server frame: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol violation: {m}"),
            ClientError::Remote(e) => write!(f, "server error [{}]: {}", e.code.name(), e.message),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => ClientError::Io(e),
            other => ClientError::Frame(other),
        }
    }
}

impl From<tsq_store::StoreError> for ClientError {
    fn from(e: tsq_store::StoreError) -> Self {
        ClientError::Frame(FrameError::Malformed(e))
    }
}

/// A connected binary-protocol session. One request in flight at a time;
/// the connection is reusable until an error or [`Client::shutdown`].
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a running server.
    ///
    /// # Errors
    /// Propagates socket failures.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client { stream })
    }

    /// Sets a read timeout so a dead server cannot hang the client.
    ///
    /// # Errors
    /// Propagates socket failures.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.stream.set_read_timeout(timeout)?;
        self.stream.set_write_timeout(timeout)?;
        Ok(())
    }

    fn round_trip(&mut self, req: &Request) -> Result<Response, ClientError> {
        wire::write_frame(&mut self.stream, &wire::encode_request(req))?;
        self.read_response()
    }

    /// Executes one query; a typed server error becomes
    /// [`ClientError::Remote`].
    ///
    /// # Errors
    /// [`ClientError`] in all its variants.
    pub fn query(&mut self, query: &str) -> Result<QueryReply, ClientError> {
        match self.round_trip(&Request::Query(query.to_string()))? {
            Response::Rows(reply) => Ok(reply),
            Response::Error(e) => Err(ClientError::Remote(e)),
            other => Err(ClientError::Protocol(format!(
                "expected rows or error, got {}",
                response_kind(&other)
            ))),
        }
    }

    /// Executes a batch; slot `i` answers `queries[i]`. A whole-batch
    /// rejection (overload, shutdown) is [`ClientError::Remote`].
    ///
    /// # Errors
    /// [`ClientError`] in all its variants.
    pub fn batch(
        &mut self,
        queries: &[String],
        threads: u32,
    ) -> Result<Vec<Result<QueryReply, WireError>>, ClientError> {
        let req = Request::Batch {
            queries: queries.to_vec(),
            threads,
        };
        match self.round_trip(&req)? {
            Response::Batch(slots) => Ok(slots),
            Response::Error(e) => Err(ClientError::Remote(e)),
            other => Err(ClientError::Protocol(format!(
                "expected batch or error, got {}",
                response_kind(&other)
            ))),
        }
    }

    /// Atomically appends rows of points to series of one relation. The
    /// reply carries one row per distinct label (`a` = label, `offset` =
    /// the series' new length, `distance` = points appended). An APPEND
    /// the relation cannot take (e.g. paged storage attached) is a typed
    /// [`ClientError::Remote`] with code `unsupported`.
    ///
    /// # Errors
    /// [`ClientError`] in all its variants.
    pub fn append(
        &mut self,
        relation: &str,
        rows: Vec<IngestRow>,
    ) -> Result<QueryReply, ClientError> {
        let req = Request::Append {
            relation: relation.to_string(),
            rows,
        };
        match self.round_trip(&req)? {
            Response::Append(reply) => Ok(reply),
            Response::Error(e) => Err(ClientError::Remote(e)),
            other => Err(ClientError::Protocol(format!(
                "expected append or error, got {}",
                response_kind(&other)
            ))),
        }
    }

    /// Fetches the server's metrics snapshot as JSON.
    ///
    /// # Errors
    /// [`ClientError`] in all its variants.
    pub fn stats_json(&mut self) -> Result<String, ClientError> {
        match self.round_trip(&Request::Stats)? {
            Response::Stats(json) => Ok(json),
            Response::Error(e) => Err(ClientError::Remote(e)),
            other => Err(ClientError::Protocol(format!(
                "expected stats or error, got {}",
                response_kind(&other)
            ))),
        }
    }

    /// Liveness check.
    ///
    /// # Errors
    /// [`ClientError`] in all its variants.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.round_trip(&Request::Ping)? {
            Response::Pong => Ok(()),
            Response::Error(e) => Err(ClientError::Remote(e)),
            other => Err(ClientError::Protocol(format!(
                "expected pong or error, got {}",
                response_kind(&other)
            ))),
        }
    }

    /// Asks the server to drain and stop; consumes the connection (the
    /// server closes it after saying goodbye).
    ///
    /// # Errors
    /// [`ClientError`] in all its variants.
    pub fn shutdown(mut self) -> Result<(), ClientError> {
        match self.round_trip(&Request::Shutdown)? {
            Response::Bye => Ok(()),
            Response::Error(e) => Err(ClientError::Remote(e)),
            other => Err(ClientError::Protocol(format!(
                "expected bye or error, got {}",
                response_kind(&other)
            ))),
        }
    }

    /// Sends raw bytes on the underlying socket — for hostile-input
    /// tests that need to speak broken protocol on purpose.
    ///
    /// # Errors
    /// Propagates socket failures.
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<(), ClientError> {
        self.stream.write_all(bytes)?;
        self.stream.flush()?;
        Ok(())
    }

    /// Reads one response frame without sending anything — pairs with
    /// [`Client::send_raw`].
    ///
    /// # Errors
    /// [`ClientError`] in all its variants.
    pub fn read_response(&mut self) -> Result<Response, ClientError> {
        let payload = wire::read_frame(&mut self.stream, DEFAULT_MAX_FRAME_LEN)?;
        Ok(wire::decode_response(&payload)?)
    }
}

fn response_kind(resp: &Response) -> &'static str {
    match resp {
        Response::Error(_) => "error",
        Response::Rows(_) => "rows",
        Response::Batch(_) => "batch",
        Response::Stats(_) => "stats",
        Response::Pong => "pong",
        Response::Bye => "bye",
        Response::Append(_) => "append",
    }
}
