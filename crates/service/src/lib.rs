//! # tsq-service — network front end for the similarity query engine
//!
//! Puts the query engine of Rafiei & Mendelzon's *Similarity-Based
//! Queries for Time Series Data* (SIGMOD 1997) behind a socket. One TCP
//! port speaks two protocols, told apart by sniffing the first bytes of
//! each connection:
//!
//! * **binary frames** — every message is a `tsq-store` frame (magic,
//!   format version, endianness marker, length prefix, CRC-32 trailer),
//!   so the wire inherits the snapshot format's versioning and
//!   corruption detection ([`wire`]);
//! * **HTTP/1.1 JSON** — a minimal facade for `curl` and scrapers:
//!   `POST /query`, `POST /append`, `GET /metrics`, `GET /health`,
//!   `POST /shutdown`.
//!
//! The server ([`Server`]) is generic over the object-safe
//! [`engine::Engine`] trait — `tsq-lang` implements it for its shared
//! catalog — and provides per-query timeouts, admission control with
//! typed `Overloaded`/`Timeout` errors, cumulative metrics
//! ([`MetricsSnapshot`]), and graceful shutdown that drains admitted work.
//! A blocking [`Client`] and the `tsq-client` binary speak the binary
//! protocol.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
pub mod engine;
mod http;
mod metrics;
mod server;
pub mod wire;

pub use client::{Client, ClientError};
pub use engine::{Engine, EngineError, IngestRow, QueryReply, WireRow};
pub use metrics::MetricsSnapshot;
pub use server::{Server, ServerHandle, ServiceConfig};
pub use wire::{ErrorCode, FrameError, Request, Response, WireError};
