//! CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the checksum
//! guarding every snapshot payload.
//!
//! Implemented with the *slicing-by-16* technique (Kounavis & Berry,
//! Intel 2008): sixteen compile-time tables let each loop iteration
//! consume 16 input bytes with independent table lookups, putting the
//! throughput in the gigabytes-per-second range instead of the
//! ~300 MB/s of the classic byte-at-a-time loop. Snapshot restores hash
//! the whole payload before decoding anything, so checksum speed is
//! directly on the restart-latency path (`bench/` reports it as
//! `store.crc_mib_s` next to `lang.open_s`).
//! Std-only, no unsafe, byte-order independent.

/// Sixteen 256-entry tables: `TABLES[j][b]` is the CRC contribution of
/// byte `b` positioned `j` bytes before the end of a 16-byte block.
const TABLES: [[u32; 256]; 16] = build_tables();

const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut j = 1;
    while j < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[j - 1][i];
            tables[j][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    tables
}

/// CRC-32 of `bytes` (initial value `!0`, final complement — the standard
/// zlib/PNG/Ethernet parameterization).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(16);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        crc = TABLES[15][(lo & 0xFF) as usize]
            ^ TABLES[14][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[13][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[12][(lo >> 24) as usize]
            ^ TABLES[11][c[4] as usize]
            ^ TABLES[10][c[5] as usize]
            ^ TABLES[9][c[6] as usize]
            ^ TABLES[8][c[7] as usize]
            ^ TABLES[7][c[8] as usize]
            ^ TABLES[6][c[9] as usize]
            ^ TABLES[5][c[10] as usize]
            ^ TABLES[4][c[11] as usize]
            ^ TABLES[3][c[12] as usize]
            ^ TABLES[2][c[13] as usize]
            ^ TABLES[1][c[14] as usize]
            ^ TABLES[0][c[15] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Chunk size of the combined snapshot checksum (1 MiB).
const CHUNK: usize = 1 << 20;

/// The snapshot trailer checksum: the payload is hashed in fixed 1 MiB
/// chunks and the trailer value is the CRC-32 of the concatenated
/// per-chunk digests (little-endian).
///
/// Two properties motivate this over a plain whole-payload CRC:
///
/// - **Parallelism.** A plain CRC is a strictly sequential recurrence; the
///   chunked form hashes independent ranges on as many cores as the
///   machine offers, taking the checksum off the restore-latency critical
///   path for multi-megabyte catalogs. The value is identical for every
///   thread count (chunk boundaries are fixed by the format, not by the
///   scheduler).
/// - **Same detection power.** Any bit flip changes its chunk's digest,
///   which changes the combined digest; the frame tests assert this for
///   every byte position.
pub fn chunked_crc32(bytes: &[u8]) -> u32 {
    let n_chunks = bytes.len().div_ceil(CHUNK).max(1);
    let mut digests = vec![0u32; n_chunks];
    let threads = if n_chunks >= 3 {
        std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(n_chunks)
    } else {
        1
    };
    let digest_of = |i: usize| -> u32 {
        let start = i * CHUNK;
        let end = ((i + 1) * CHUNK).min(bytes.len());
        crc32(&bytes[start..end])
    };
    if threads <= 1 {
        for (i, d) in digests.iter_mut().enumerate() {
            *d = digest_of(i);
        }
    } else {
        let per = n_chunks.div_ceil(threads);
        std::thread::scope(|scope| {
            for (group_idx, group) in digests.chunks_mut(per).enumerate() {
                let digest_of = &digest_of;
                scope.spawn(move || {
                    for (j, d) in group.iter_mut().enumerate() {
                        *d = digest_of(group_idx * per + j);
                    }
                });
            }
        });
    }
    let mut combined = Vec::with_capacity(4 * n_chunks);
    for d in &digests {
        combined.extend_from_slice(&d.to_le_bytes());
    }
    crc32(&combined)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference byte-at-a-time implementation for cross-checking the
    /// sliced loop.
    fn crc32_simple(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // The canonical check value of CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn sliced_loop_matches_reference_at_every_length() {
        // Lengths straddling the 16-byte block boundary, so the sliced
        // body and the remainder loop are both exercised.
        let data: Vec<u8> = (0..257u32)
            .map(|i| (i.wrapping_mul(97) >> 3) as u8)
            .collect();
        for len in 0..data.len() {
            assert_eq!(crc32(&data[..len]), crc32_simple(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn chunked_matches_itself_across_boundaries_and_catches_flips() {
        // Deterministic for empty and sub-chunk inputs.
        assert_eq!(chunked_crc32(b""), chunked_crc32(b""));
        assert_ne!(chunked_crc32(b"a"), chunked_crc32(b"b"));
        // Multi-chunk input: flips in *every* chunk are caught. 2.5 MiB
        // spans three chunks, so the parallel path runs too.
        let data: Vec<u8> = (0..(2 * CHUNK + CHUNK / 2))
            .map(|i| (i as u32).wrapping_mul(2_654_435_761) as u8)
            .collect();
        let want = chunked_crc32(&data);
        for &pos in &[0usize, CHUNK - 1, CHUNK, 2 * CHUNK + 7, data.len() - 1] {
            let mut bad = data.clone();
            bad[pos] ^= 0x40;
            assert_ne!(chunked_crc32(&bad), want, "flip at {pos}");
        }
        // Appending or truncating changes the value as well.
        assert_ne!(chunked_crc32(&data[..data.len() - 1]), want);
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let base = b"similarity-based queries for time series data".to_vec();
        let want = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), want, "flip at byte {byte} bit {bit}");
            }
        }
    }
}
