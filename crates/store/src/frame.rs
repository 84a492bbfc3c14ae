//! File framing: header, length-prefixed payload, CRC-32 trailer.
//!
//! ```text
//! offset  size  field
//! ------  ----  ------------------------------------------------------
//!      0     8  magic  "TSQSNAP\0"
//!      8     4  format version (u32, little-endian) — [`FORMAT_VERSION`]
//!     12     4  endianness marker 0x01020304 (little-endian on disk:
//!               bytes 04 03 02 01; a byte-swapped marker means the
//!               writer used the wrong byte order)
//!     16     8  payload length (u64, little-endian)
//!     24     n  payload (see the layer-specific layouts)
//!   24+n     4  chunked CRC-32 of the payload (see `chunked_crc32`)
//! ```
//!
//! [`unseal`] validates each field in order — magic, version, endianness,
//! length, checksum — and returns the payload slice; every failure is a
//! typed [`StoreError`]. Readers therefore never look at payload bytes
//! that have not already passed the checksum.
//!
//! The trailer is the *chunked* CRC-32 ([`chunked_crc32`]): per-1 MiB
//! digests combined with a final CRC, so sealing and unsealing large
//! snapshots hash on every available core without changing the stored
//! value.

use std::io::{IoSlice, Write};
use std::path::Path;

use crate::crc::chunked_crc32;
use crate::error::{StoreError, StoreResult};

/// The snapshot magic bytes.
pub const MAGIC: &[u8; 8] = b"TSQSNAP\0";

/// The one format version this build writes and reads: no reader for an
/// older layout exists, so every other version is refused. Version 10
/// stores no derived state: a whole-match index travels as its
/// configuration and series, and its features, tree and planner
/// statistics are rebuilt from them; a relation's shard rule travels as
/// its hash-shard count, and its ST-index as the one base window it is
/// held at, built over the series on first use (version 9 also stored a
/// shard rule tag and range boundaries, version 8 a list of up to four
/// windows, version 7 each window's trail trees, version 6 also each
/// record's half spectrum and each whole-match tree's nodes, version 5
/// all `n` coefficients).
pub const FORMAT_VERSION: u32 = 10;

/// Endianness sentinel; on disk as little-endian bytes `04 03 02 01`.
const ENDIAN_MARKER: u32 = 0x0102_0304;

/// Header length in bytes (magic + version + endian marker + payload len).
/// Public so stream readers (the query service's wire protocol) can pull
/// exactly one header off a socket and validate it with [`parse_header`]
/// before allocating anything for the payload.
pub const HEADER_LEN: usize = 8 + 4 + 4 + 8;

/// Length of the CRC-32 trailer that follows every payload.
pub const TRAILER_LEN: usize = 4;

/// Validates a frame header (magic, version, endianness) and returns the
/// declared payload length — without touching any payload bytes.
///
/// This is the incremental half of [`unseal`] for readers that receive a
/// frame in pieces (e.g. off a socket): read [`HEADER_LEN`] bytes, call
/// `parse_header` to learn how many payload + trailer bytes follow, apply
/// an allocation cap, then hand the reassembled whole to [`unseal`] for
/// the checksum verdict.
///
/// # Errors
/// [`StoreError::Truncated`], [`StoreError::BadMagic`],
/// [`StoreError::UnsupportedVersion`], [`StoreError::WrongEndian`],
/// [`StoreError::Corrupt`] — the same validation order as [`unseal`].
pub fn parse_header(header: &[u8]) -> StoreResult<u64> {
    if header.len() < 8 {
        return Err(StoreError::truncated("frame header magic"));
    }
    if &header[..8] != MAGIC {
        return Err(StoreError::BadMagic);
    }
    if header.len() < HEADER_LEN {
        return Err(StoreError::truncated("frame header"));
    }
    let version = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
    if version != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion {
            got: version,
            supported: FORMAT_VERSION,
        });
    }
    let endian = u32::from_le_bytes([header[12], header[13], header[14], header[15]]);
    if endian != ENDIAN_MARKER {
        if endian == ENDIAN_MARKER.swap_bytes() {
            return Err(StoreError::WrongEndian);
        }
        return Err(StoreError::corrupt(format!(
            "endianness marker {endian:#010x} is neither little- nor big-endian"
        )));
    }
    Ok(u64::from_le_bytes([
        header[16], header[17], header[18], header[19], header[20], header[21], header[22],
        header[23],
    ]))
}

/// Wraps a payload in the snapshot frame: header + payload + CRC trailer.
pub fn seal(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
    out.extend_from_slice(&header(payload));
    out.extend_from_slice(payload);
    out.extend_from_slice(&trailer(payload));
    out
}

/// Writes [`seal`]'s bytes for `payload` to `w` — header, payload and
/// trailer in one vectored write where the writer takes one — without
/// building the framed copy.
///
/// # Errors
/// The writer's; [`std::io::ErrorKind::WriteZero`] when it takes no more.
pub fn write_sealed(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let (header, trailer) = (header(payload), trailer(payload));
    let parts = [&header[..], payload, &trailer[..]];
    let total = HEADER_LEN + payload.len() + TRAILER_LEN;
    let mut done = 0;
    while done < total {
        let mut slices = [IoSlice::new(&[]); 3];
        let (mut n, mut skip) = (0, done);
        for part in parts {
            if skip >= part.len() {
                skip -= part.len();
                continue;
            }
            slices[n] = IoSlice::new(&part[skip..]);
            (n, skip) = (n + 1, 0);
        }
        match w.write_vectored(&slices[..n]) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(k) => done += k,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// The frame header of `payload`: magic, version, endianness, length.
fn header(payload: &[u8]) -> [u8; HEADER_LEN] {
    let mut header = [0; HEADER_LEN];
    header[..8].copy_from_slice(MAGIC);
    header[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    header[12..16].copy_from_slice(&ENDIAN_MARKER.to_le_bytes());
    header[16..].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    header
}

/// The frame trailer of `payload`: its chunked CRC-32.
fn trailer(payload: &[u8]) -> [u8; TRAILER_LEN] {
    chunked_crc32(payload).to_le_bytes()
}

/// Validates a framed snapshot and returns its payload slice.
///
/// # Errors
/// [`StoreError::BadMagic`], [`StoreError::UnsupportedVersion`],
/// [`StoreError::WrongEndian`], [`StoreError::Truncated`],
/// [`StoreError::Corrupt`] (length overrun / trailing bytes) and
/// [`StoreError::ChecksumMismatch`], in validation order.
pub fn unseal(file: &[u8]) -> StoreResult<&[u8]> {
    let len = parse_header(&file[..file.len().min(HEADER_LEN)])?;
    let len = usize::try_from(len)
        .map_err(|_| StoreError::corrupt(format!("payload length {len} exceeds usize")))?;
    let body = &file[HEADER_LEN..];
    // Checked: a crafted length near usize::MAX must be a typed error,
    // not an arithmetic-overflow panic.
    let total = len.checked_add(4).ok_or_else(|| {
        StoreError::corrupt(format!(
            "payload length {len} overflows with its checksum trailer"
        ))
    })?;
    if body.len() < total {
        return Err(StoreError::truncated(format!(
            "snapshot payload (header claims {len} byte(s) + 4-byte checksum, {} left)",
            body.len()
        )));
    }
    if body.len() > total {
        return Err(StoreError::corrupt(format!(
            "{} byte(s) after the checksum trailer",
            body.len() - len - 4
        )));
    }
    let payload = &body[..len];
    let stored = u32::from_le_bytes([body[len], body[len + 1], body[len + 2], body[len + 3]]);
    let computed = chunked_crc32(payload);
    if stored != computed {
        return Err(StoreError::ChecksumMismatch { stored, computed });
    }
    Ok(payload)
}

/// Validates framed `bytes` ([`unseal`]) and cuts them down to their
/// payload in place: the payload is not copied into a buffer of its own.
///
/// # Errors
/// [`unseal`]'s.
pub fn unseal_vec(mut bytes: Vec<u8>) -> StoreResult<Vec<u8>> {
    let len = unseal(&bytes)?.len();
    bytes.truncate(HEADER_LEN + len);
    bytes.drain(..HEADER_LEN);
    Ok(bytes)
}

/// Seals `payload` and writes it to `path` atomically-enough for a
/// snapshot: the bytes go to a `.tmp` sibling first and are renamed into
/// place, so a crash mid-write never leaves a half-written file under the
/// final name. The header, payload and trailer are written straight from
/// `payload`, with no framed copy: the file holds [`seal`]'s bytes.
/// Returns the total file size in bytes.
pub fn write_file(path: &Path, payload: &[u8]) -> StoreResult<u64> {
    let tmp = tmp_sibling(path);
    let result = (|| -> StoreResult<()> {
        let mut f = std::fs::File::create(&tmp)?;
        write_sealed(&mut f, payload)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result.map(|()| (HEADER_LEN + payload.len() + TRAILER_LEN) as u64)
}

fn tmp_sibling(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reads `path`, validates the frame, and returns the payload bytes.
    fn read_payload(path: &Path) -> StoreResult<Vec<u8>> {
        unseal_vec(std::fs::read(path)?)
    }

    #[test]
    fn seal_unseal_round_trip() {
        let payload = b"hello snapshot".to_vec();
        let framed = seal(&payload);
        assert_eq!(unseal(&framed).unwrap(), &payload[..]);
        // Empty payloads frame fine too.
        assert_eq!(unseal(&seal(&[])).unwrap(), &[] as &[u8]);
    }

    /// A writer that takes at most 5 bytes a call and one slice at a time.
    struct Trickle(Vec<u8>);

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = buf.len().min(5);
            self.0.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn written_and_cut_in_place_frames_are_sealed_ones() {
        for payload in [&b""[..], b"x", b"hello snapshot, in pieces"] {
            let mut out = Trickle(Vec::new());
            write_sealed(&mut out, payload).unwrap();
            assert_eq!(out.0, seal(payload));
            let mut whole = Vec::new();
            write_sealed(&mut whole, payload).unwrap();
            assert_eq!(whole, seal(payload));
            assert_eq!(unseal_vec(whole).unwrap(), payload);
        }
        let mut bad = seal(b"x");
        bad[0] ^= 0xFF;
        assert_eq!(unseal_vec(bad).unwrap_err(), StoreError::BadMagic);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut framed = seal(b"x");
        framed[0] ^= 0xFF;
        assert_eq!(unseal(&framed).unwrap_err(), StoreError::BadMagic);
        assert!(matches!(unseal(b"TSQ"), Err(StoreError::Truncated { .. })));
    }

    #[test]
    fn future_version_rejected() {
        let mut framed = seal(b"x");
        framed[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            unseal(&framed).unwrap_err(),
            StoreError::UnsupportedVersion {
                got: 99,
                supported: FORMAT_VERSION
            }
        );
        // Version 0 never existed.
        framed[8..12].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            unseal(&framed),
            Err(StoreError::UnsupportedVersion { .. })
        ));
    }

    #[test]
    fn older_version_rejected() {
        // A well-formed frame (checksum recomputed) that claims the
        // previous version: no reader for it exists, so the version field
        // alone must refuse it — for files and wire frames alike.
        let mut framed = seal(b"an old payload");
        framed[8..12].copy_from_slice(&(FORMAT_VERSION - 1).to_le_bytes());
        let at = framed.len() - TRAILER_LEN;
        framed[at..].copy_from_slice(&chunked_crc32(b"an old payload").to_le_bytes());
        let want = StoreError::UnsupportedVersion {
            got: FORMAT_VERSION - 1,
            supported: FORMAT_VERSION,
        };
        assert_eq!(unseal(&framed).unwrap_err(), want);
        assert_eq!(parse_header(&framed[..HEADER_LEN]).unwrap_err(), want);
    }

    #[test]
    fn byte_swapped_endian_marker_rejected() {
        let mut framed = seal(b"x");
        framed[12..16].reverse();
        assert_eq!(unseal(&framed).unwrap_err(), StoreError::WrongEndian);
        // A garbage marker is corrupt, not wrong-endian.
        framed[12..16].copy_from_slice(&[0, 0, 0, 0]);
        assert!(matches!(unseal(&framed), Err(StoreError::Corrupt { .. })));
    }

    #[test]
    fn truncation_anywhere_is_typed() {
        let framed = seal(b"some payload bytes");
        for cut in 0..framed.len() {
            let err = unseal(&framed[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    StoreError::Truncated { .. }
                        | StoreError::BadMagic
                        | StoreError::ChecksumMismatch { .. }
                ),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn every_payload_bit_flip_is_caught() {
        let framed = seal(b"payload under test");
        let payload_start = 24;
        let payload_end = framed.len() - 4;
        for byte in payload_start..payload_end {
            for bit in 0..8 {
                let mut bad = framed.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    matches!(unseal(&bad), Err(StoreError::ChecksumMismatch { .. })),
                    "flip at byte {byte} bit {bit} escaped the checksum"
                );
            }
        }
        // Flipping the stored checksum itself is also a mismatch.
        let mut bad = framed.clone();
        let last = bad.len() - 1;
        bad[last] ^= 1;
        assert!(matches!(
            unseal(&bad),
            Err(StoreError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn parse_header_reports_payload_length_without_payload_bytes() {
        let framed = seal(b"streamed payload");
        // Only the header: the reader learns the length before any
        // payload byte exists.
        assert_eq!(
            parse_header(&framed[..HEADER_LEN]).unwrap(),
            b"streamed payload".len() as u64
        );
        // An absurd declared length parses fine — capping it is the
        // *caller's* allocation guard; the header itself is well-formed.
        let mut huge = framed[..HEADER_LEN].to_vec();
        huge[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(parse_header(&huge).unwrap(), u64::MAX);
        // Validation order matches unseal.
        assert!(matches!(
            parse_header(&framed[..10]),
            Err(StoreError::Truncated { .. })
        ));
        let mut bad = framed[..HEADER_LEN].to_vec();
        bad[0] ^= 0xFF;
        assert_eq!(parse_header(&bad).unwrap_err(), StoreError::BadMagic);
        let mut swapped = framed[..HEADER_LEN].to_vec();
        swapped[12..16].reverse();
        assert_eq!(parse_header(&swapped).unwrap_err(), StoreError::WrongEndian);
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut framed = seal(b"x");
        framed.push(0);
        assert!(matches!(unseal(&framed), Err(StoreError::Corrupt { .. })));
    }

    #[test]
    fn absurd_payload_length_is_typed_not_an_overflow_panic() {
        // A crafted header whose payload-length field sits just below
        // u64::MAX: `usize::try_from` succeeds on 64-bit targets, so the
        // `len + 4` bound computation must use checked arithmetic.
        let mut framed = seal(b"x");
        framed[16..24].copy_from_slice(&(u64::MAX - 3).to_le_bytes());
        let err = unseal(&framed).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::Truncated { .. } | StoreError::Corrupt { .. }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn file_round_trip_and_missing_file() {
        let dir = std::env::temp_dir().join(format!("tsq-store-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("frame.tsq");
        let written = write_file(&path, b"on disk").unwrap();
        assert_eq!(written, std::fs::metadata(&path).unwrap().len());
        assert_eq!(read_payload(&path).unwrap(), b"on disk");
        assert!(matches!(
            read_payload(&dir.join("missing.tsq")),
            Err(StoreError::Io(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
