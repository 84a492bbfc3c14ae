//! # tsq-store — durable snapshots for similarity-query catalogs
//!
//! A small, std-only binary format used to persist everything the engine
//! cannot re-derive from what it stores: relations (`TimeSeries` data —
//! the whole-match features, R\*-trees and planner statistics are pure
//! functions of them, rebuilt identically on restore) and subsequence
//! ST-index caches. Higher layers (`tsq-rtree`,
//! `tsq-core`, `tsq-lang`) encode their own types with the primitives here;
//! this crate owns only the three things every layer must agree on:
//!
//! 1. **Framing** ([`seal`] / [`unseal`]): a fixed header (magic, format
//!    version, endianness marker), a length-prefixed payload, and a CRC-32
//!    trailer over the payload. Corrupt, truncated, wrong-version and
//!    wrong-endian inputs are rejected with typed [`StoreError`]s — never a
//!    panic.
//! 2. **Primitive encoding** ([`Encoder`] / [`Decoder`]): little-endian
//!    fixed-width integers and IEEE-754 bit patterns (`f64` round-trips are
//!    bit-exact), length-prefixed byte strings, and allocation-guarded
//!    sequence headers (a corrupted length can never cause an outsized
//!    allocation, because declared lengths are validated against the bytes
//!    actually present before any reservation).
//! 3. **The error taxonomy** ([`StoreError`]): one typed vocabulary reused
//!    by every layer, convertible into `tsq_core::Error::Store` and the
//!    language-level error.
//!
//! The format is deliberately writer-canonical: encoding the same logical
//! value always produces the same bytes, so `save → open → save` is
//! byte-identical and snapshots diff cleanly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod crc;
pub mod error;
pub mod frame;

pub use codec::{Decoder, Encoder};
pub use crc::crc32;
pub use error::{StoreError, StoreResult};
pub use frame::{
    parse_header, read_payload, seal, unseal, write_file, FORMAT_VERSION, HEADER_LEN, MAGIC,
    TRAILER_LEN,
};
