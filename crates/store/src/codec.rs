//! Primitive binary encoding: little-endian fixed-width scalars,
//! length-prefixed strings, and allocation-guarded sequence headers.
//!
//! [`Encoder`] appends to a growable buffer; [`Decoder`] walks a borrowed
//! byte slice with a cursor. Every `Decoder` read is bounds-checked and
//! returns a typed [`StoreError`] on shortfall; no read trusts a declared
//! length until it has been proven against the bytes actually remaining,
//! so a corrupted count can neither overshoot the buffer nor trigger a
//! pathological allocation.

use crate::error::{StoreError, StoreResult};

/// Appends primitives to an in-memory payload buffer.
#[derive(Debug, Default, Clone)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the encoder, returning the payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (the format is 64-bit everywhere,
    /// regardless of the writing machine's word size).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends an `f64` as its IEEE-754 bit pattern, little-endian.
    /// Round-trips are bit-exact (including signed zeros and subnormals).
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a slice of `f64`s (no length prefix — pair with
    /// [`Encoder::usize`] or a known count).
    pub fn f64_slice(&mut self, vs: &[f64]) {
        self.buf.reserve(vs.len() * 8);
        for &v in vs {
            self.f64(v);
        }
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends pre-encoded bytes verbatim (for section framing: encode a
    /// section into its own `Encoder`, then append `usize(len)` + `raw`).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// Reads primitives back out of a payload slice.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// A decoder over the whole slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails with [`StoreError::Corrupt`] unless every byte was consumed —
    /// trailing garbage means the writer and reader disagree about the
    /// schema, which must never pass silently.
    pub fn finish(&self) -> StoreResult<()> {
        if self.remaining() != 0 {
            return Err(StoreError::corrupt(format!(
                "{} trailing byte(s) after the last field",
                self.remaining()
            )));
        }
        Ok(())
    }

    fn take(&mut self, n: usize, what: &str) -> StoreResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(StoreError::truncated(format!(
                "{what} (need {n} byte(s), {} left)",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads exactly `n` raw bytes (for callers that decode fixed-width
    /// records themselves; the read is bounds-checked as one block).
    pub fn bytes(&mut self, n: usize, what: &str) -> StoreResult<&'a [u8]> {
        self.take(n, what)
    }

    /// Reads one byte.
    pub fn u8(&mut self, what: &str) -> StoreResult<u8> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a bool; any byte other than 0/1 is corrupt.
    pub fn bool(&mut self, what: &str) -> StoreResult<bool> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(StoreError::corrupt(format!(
                "{what}: invalid bool byte {other}"
            ))),
        }
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, what: &str) -> StoreResult<u32> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, what: &str) -> StoreResult<u64> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a `u64` and narrows it to `usize`, rejecting values that do
    /// not fit the reading machine's word size.
    pub fn usize(&mut self, what: &str) -> StoreResult<usize> {
        let v = self.u64(what)?;
        usize::try_from(v)
            .map_err(|_| StoreError::corrupt(format!("{what}: {v} exceeds this platform's usize")))
    }

    /// Reads an `f64` bit pattern.
    pub(crate) fn f64(&mut self, what: &str) -> StoreResult<f64> {
        let b = self.take(8, what)?;
        Ok(f64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an `f64` that must be finite (series samples, rectangle
    /// bounds, distances — NaN/∞ would poison downstream geometry).
    pub fn f64_finite(&mut self, what: &str) -> StoreResult<f64> {
        let v = self.f64(what)?;
        if !v.is_finite() {
            return Err(StoreError::corrupt(format!("{what}: non-finite value {v}")));
        }
        Ok(v)
    }

    /// Reads a sequence header: a `u64` element count validated against
    /// the bytes remaining, given that every element occupies at least
    /// `min_elem_bytes`. This is the allocation guard — after this check,
    /// `Vec::with_capacity(count)` is safe because a buffer holding
    /// `count` elements must physically exist.
    pub fn seq(&mut self, min_elem_bytes: usize, what: &str) -> StoreResult<usize> {
        let count = self.usize(what)?;
        let need = count
            .checked_mul(min_elem_bytes.max(1))
            .ok_or_else(|| StoreError::corrupt(format!("{what}: count {count} overflows")))?;
        if need > self.remaining() {
            return Err(StoreError::truncated(format!(
                "{what} (claims {count} element(s) = {need} byte(s), {} left)",
                self.remaining()
            )));
        }
        Ok(count)
    }

    /// Reads exactly `n` `f64`s into a vector (hot path: one unaligned
    /// load per value, no per-value bounds checks beyond the single
    /// up-front `take`).
    pub fn f64_vec(&mut self, n: usize, what: &str) -> StoreResult<Vec<f64>> {
        let need = n
            .checked_mul(8)
            .ok_or_else(|| StoreError::corrupt(format!("{what}: count {n} overflows")))?;
        let bytes = self.take(need, what)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|chunk| f64::from_le_bytes(chunk.try_into().expect("chunk of 8")))
            .collect())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self, what: &str) -> StoreResult<String> {
        let len = self.seq(1, what)?;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StoreError::corrupt(format!("{what}: invalid UTF-8")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let mut enc = Encoder::new();
        enc.u8(7);
        enc.bool(true);
        enc.bool(false);
        enc.u32(0xDEAD_BEEF);
        enc.u64(u64::MAX - 1);
        enc.usize(12345);
        enc.f64(-0.0);
        enc.f64(f64::MIN_POSITIVE / 2.0); // subnormal
        enc.str("tsq — snapshot");
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.u8("a").unwrap(), 7);
        assert!(dec.bool("b").unwrap());
        assert!(!dec.bool("c").unwrap());
        assert_eq!(dec.u32("d").unwrap(), 0xDEAD_BEEF);
        assert_eq!(dec.u64("e").unwrap(), u64::MAX - 1);
        assert_eq!(dec.usize("f").unwrap(), 12345);
        assert_eq!(dec.f64("g").unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(
            dec.f64("h").unwrap().to_bits(),
            (f64::MIN_POSITIVE / 2.0).to_bits()
        );
        assert_eq!(dec.str("i").unwrap(), "tsq — snapshot");
        dec.finish().unwrap();
    }

    #[test]
    fn f64_slices_round_trip_bit_exact() {
        let vals = [1.5, -2.25, 0.0, -0.0, 1e-308, 9.99e307];
        let mut enc = Encoder::new();
        enc.f64_slice(&vals);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let got = dec.f64_vec(vals.len(), "vals").unwrap();
        for (a, b) in vals.iter().zip(&got) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn truncation_is_typed() {
        let mut enc = Encoder::new();
        enc.u64(42);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes[..5]);
        assert!(matches!(
            dec.u64("field"),
            Err(StoreError::Truncated { .. })
        ));
    }

    #[test]
    fn oversized_sequence_count_is_rejected_before_allocation() {
        let mut enc = Encoder::new();
        enc.u64(u64::MAX); // absurd element count
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let err = dec.seq(8, "series").unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::Truncated { .. } | StoreError::Corrupt { .. }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn invalid_bool_and_utf8_are_corrupt() {
        let mut dec = Decoder::new(&[2]);
        assert!(matches!(dec.bool("flag"), Err(StoreError::Corrupt { .. })));
        let mut enc = Encoder::new();
        enc.usize(2);
        let mut bytes = enc.into_bytes();
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        let mut dec = Decoder::new(&bytes);
        assert!(matches!(dec.str("name"), Err(StoreError::Corrupt { .. })));
    }

    #[test]
    fn non_finite_reads_are_corrupt() {
        let mut enc = Encoder::new();
        enc.f64(f64::NAN);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert!(matches!(
            dec.f64_finite("sample"),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_corrupt() {
        let mut enc = Encoder::new();
        enc.u8(1);
        enc.u8(2);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        dec.u8("only").unwrap();
        assert!(matches!(dec.finish(), Err(StoreError::Corrupt { .. })));
    }
}
