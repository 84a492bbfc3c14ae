//! Paged records: an index's samples in a record file, read through a
//! pin-counted [`BufferPool`] handle onto the cache its relation was
//! opened with.
//!
//! [`SimilarityIndex::attach_paged`](crate::SimilarityIndex::attach_paged)
//! writes one record file beside the node page file and drops every
//! sample buffer the index held. Mean, std and the indexed coefficients —
//! what the filter reads — stay in memory; an exact check pins the frame
//! holding its record and reads the samples in place, so the refine sums
//! the same values, in the same order, as it does in memory.
//!
//! ## File layout
//!
//! ```text
//! offset 0            header: magic 8 · version 4 · frame size 4 ·
//!                     frame count 8 · record count 8 · CRC-32 4
//! offset PAGE_ALIGN   frame 0
//! ...                 frame f at PAGE_ALIGN + f * frame_size
//! ```
//!
//! A frame is a page slot of the node page file's kind
//! (`payload_len u32 · crc32 u32 · payload · zero pad`, see
//! [`tsq_rtree::page`]). Its payload is `first id u64 · count u32 ·
//! count × length u32 · samples`, the samples of its records back to back
//! as little-endian `f64`. Frames hold whole records in id order — a
//! record never straddles two frames — so reading a record is one pin, and
//! a scan reads the file front to back. The frame size is the node page
//! size, grown to the [`PAGE_ALIGN`] multiple the longest record needs.
//!
//! Which records a frame holds is a function of the record lengths, which
//! the index knows from the features it keeps: the file is checked against
//! them, never trusted. The header is read by the first pin, and a header
//! that disagrees with the records, a file of the wrong size, a frame
//! whose checksum or record lengths disagree, or a non-finite sample is a
//! typed [`StoreError`]; nothing is allocated from a declared length.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use tsq_rtree::config::PAGE_ALIGN;
use tsq_rtree::page::{seal_in_place, BufferPool, PageCache, PageId, PagePin, PAGE_PREFIX_BYTES};
use tsq_store::{crc32, Decoder, StoreError, StoreResult};

use crate::index::StoredSeries;

/// Record-file magic bytes.
const MAGIC: &[u8; 8] = b"TSQRECS\0";

/// Record-file format version.
const VERSION: u32 = 1;

/// Header length: magic 8 · version 4 · frame size 4 · frame count 8 ·
/// record count 8 · CRC-32 4.
const HEADER_BYTES: usize = 36;

/// A frame payload's fixed part: first id `u64` · record count `u32`.
const FRAME_HEADER_BYTES: usize = 12;

/// Bytes written to the file at a time while it is created.
const WRITE_BUFFER_BYTES: usize = 1 << 20;

/// A record's share of a frame: its length `u32` and its samples.
fn record_bytes(len: usize) -> usize {
    4 + 8 * len
}

/// The frames a record file's handle hands out: every sample of one
/// frame's records, back to back.
pub type RecordFrame = Box<[f64]>;

/// Record-file traffic: pins served from a resident frame, and frames
/// read from the file — of those, the ones read right after the frame the
/// file's previous read fetched (the rest are random reads).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecordIo {
    /// Pins served from a resident frame.
    pub hits: u64,
    /// Frames read from the file.
    pub misses: u64,
    /// Misses on the frame after the previous miss's.
    pub sequential: u64,
}

impl RecordIo {
    /// Adds every counter of `other` into `self`.
    pub fn absorb(&mut self, other: &RecordIo) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.sequential += other.sequential;
    }
}

/// One index's record file and its handle onto a cache.
#[derive(Debug)]
pub struct RecordFile {
    path: PathBuf,
    frame_size: usize,
    /// First record id of every frame, ascending.
    starts: Vec<usize>,
    records: usize,
    /// The cache the handle joins.
    cache: Arc<PageCache>,
    /// The handle, opened — header and file size checked — by the first
    /// pin.
    pool: OnceLock<StoreResult<BufferPool<RecordFrame>>>,
    /// Frame the file's last miss read; `u64::MAX` before the first.
    last_miss: AtomicU64,
}

/// Bytes per frame for records of at most `longest` samples: `page_size`,
/// or the [`PAGE_ALIGN`] multiple one such record needs if that is more.
///
/// # Errors
/// [`StoreError::Corrupt`] when a record cannot fit a frame the header
/// can describe.
fn frame_size_for(page_size: usize, longest: usize) -> StoreResult<usize> {
    let need = longest
        .checked_mul(8)
        .and_then(|b| b.checked_add(PAGE_PREFIX_BYTES + FRAME_HEADER_BYTES + 4))
        .and_then(|b| b.checked_next_multiple_of(PAGE_ALIGN))
        .filter(|&b| u32::try_from(b).is_ok())
        .ok_or_else(|| {
            StoreError::corrupt(format!("a record of {longest} samples cannot fit a frame"))
        })?;
    Ok(need.max(page_size))
}

/// First record id of every frame when records of `lens` are packed in id
/// order, each frame taking records while they fit.
fn pack(lens: impl Iterator<Item = usize>, frame_size: usize) -> Vec<usize> {
    let room = frame_size - PAGE_PREFIX_BYTES - FRAME_HEADER_BYTES;
    let mut starts = Vec::new();
    let mut used = 0;
    for (id, len) in lens.enumerate() {
        let need = record_bytes(len);
        if starts.is_empty() || used + need > room {
            starts.push(id);
            used = 0;
        }
        used += need;
    }
    starts
}

impl RecordFile {
    /// Writes `store`'s samples to a record file at `path`, frames of at
    /// least `page_size` bytes, and returns it, to join `cache` at its
    /// first pin.
    ///
    /// # Errors
    /// [`StoreError::Io`] on write failures, [`StoreError::Corrupt`] when
    /// a record cannot fit a frame.
    pub(crate) fn create(
        path: &Path,
        store: &[StoredSeries],
        page_size: usize,
        cache: &Arc<PageCache>,
    ) -> StoreResult<Self> {
        let longest = store.iter().map(|s| s.series.len()).max().unwrap_or(0);
        let frame_size = frame_size_for(page_size, longest)?;
        let starts = pack(store.iter().map(|s| s.series.len()), frame_size);
        // An existing file (a snapshot opened paged again) is overwritten
        // in place and cut to length, not truncated first: its blocks are
        // reused instead of freed and allocated again.
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut w = BufWriter::with_capacity(WRITE_BUFFER_BYTES, file);
        w.write_all(&encode_header(frame_size, starts.len(), store.len()))?;
        w.write_all(&[0u8; PAGE_ALIGN - HEADER_BYTES])?;
        // One frame, filled in place and sealed: a record fits a frame,
        // and `pack` fits a frame's records.
        let mut page = vec![0u8; frame_size];
        for (f, &first) in starts.iter().enumerate() {
            let end = starts.get(f + 1).copied().unwrap_or(store.len());
            let records = &store[first..end];
            let payload = &mut page[PAGE_PREFIX_BYTES..];
            payload[..8].copy_from_slice(&(first as u64).to_le_bytes());
            payload[8..12].copy_from_slice(&(records.len() as u32).to_le_bytes());
            let lengths = payload[FRAME_HEADER_BYTES..].chunks_exact_mut(4);
            for (slot, record) in lengths.zip(records) {
                slot.copy_from_slice(&(record.series.len() as u32).to_le_bytes());
            }
            let mut at = FRAME_HEADER_BYTES + 4 * records.len();
            for record in records {
                let values = record.series.values();
                let samples = payload[at..at + 8 * values.len()].chunks_exact_mut(8);
                for (slot, v) in samples.zip(values) {
                    slot.copy_from_slice(&v.to_le_bytes());
                }
                at += 8 * values.len();
            }
            payload[at..].fill(0);
            seal_in_place(&mut page, at);
            w.write_all(&page)?;
        }
        let file = w.into_inner().map_err(|e| e.into_error())?;
        file.set_len((PAGE_ALIGN + starts.len() * frame_size) as u64)?;
        Ok(RecordFile {
            path: path.to_path_buf(),
            frame_size,
            starts,
            records: store.len(),
            cache: Arc::clone(cache),
            pool: OnceLock::new(),
            last_miss: AtomicU64::new(u64::MAX),
        })
    }

    /// Bytes per frame.
    pub fn frame_size(&self) -> usize {
        self.frame_size
    }

    /// Frames in the file.
    pub fn frame_count(&self) -> usize {
        self.starts.len()
    }

    /// The file's handle onto its cache (for its counters and `flush`),
    /// opened now if no record was read yet.
    ///
    /// # Errors
    /// The typed [`StoreError`] the file's header or size fails with, at
    /// every call.
    pub fn pool(&self) -> StoreResult<&BufferPool<RecordFrame>> {
        self.pool
            .get_or_init(|| self.open())
            .as_ref()
            .map_err(Clone::clone)
    }

    /// Opens the file and checks its header against the records it must
    /// hold and its size against the header.
    fn open(&self) -> StoreResult<BufferPool<RecordFrame>> {
        let mut file = File::open(&self.path)?;
        let mut header = [0u8; HEADER_BYTES];
        file.read_exact(&mut header)
            .map_err(|_| StoreError::truncated("record file header"))?;
        if &header[..8] != MAGIC {
            return Err(StoreError::BadMagic);
        }
        let u32_at = |o: usize| u32::from_le_bytes(header[o..o + 4].try_into().expect("4 bytes"));
        let u64_at = |o: usize| u64::from_le_bytes(header[o..o + 8].try_into().expect("8 bytes"));
        let version = u32_at(8);
        if version != VERSION {
            return Err(StoreError::UnsupportedVersion {
                got: version,
                supported: VERSION,
            });
        }
        let (stored, computed) = (u32_at(HEADER_BYTES - 4), crc32(&header[..HEADER_BYTES - 4]));
        if stored != computed {
            return Err(StoreError::ChecksumMismatch { stored, computed });
        }
        let declared = (u32_at(12) as u64, u64_at(16), u64_at(24));
        let expected = (
            self.frame_size as u64,
            self.starts.len() as u64,
            self.records as u64,
        );
        if declared != expected {
            return Err(StoreError::corrupt(format!(
                "record file declares {} record(s) in {} frame(s) of {} byte(s); the index \
                 holds {} record(s), which pack into {} frame(s) of {} byte(s)",
                declared.2, declared.1, declared.0, expected.2, expected.1, expected.0
            )));
        }
        let want = PAGE_ALIGN as u64 + expected.1 * expected.0;
        let got = file.metadata()?.len();
        if got < want {
            return Err(StoreError::truncated(format!(
                "record file of {got} byte(s), its header implies {want}"
            )));
        }
        if got > want {
            return Err(StoreError::corrupt(format!(
                "record file of {got} byte(s), its header implies {want}"
            )));
        }
        Ok(BufferPool::in_cache(
            &self.cache,
            file,
            self.frame_size,
            self.starts.len() as u64,
        ))
    }

    /// Pins the frame holding record `id` of `store` (the index's records,
    /// which give every record's length), counting the pin in `io`, and
    /// returns the record's range within the frame.
    ///
    /// # Errors
    /// Typed [`StoreError`]s when the file or the frame cannot be read or
    /// disagrees with the records.
    pub(crate) fn pin<'a>(
        &'a self,
        id: usize,
        store: &[StoredSeries],
        io: &mut RecordIo,
    ) -> StoreResult<(PagePin<'a, RecordFrame>, Range<usize>)> {
        let pool = self.pool()?;
        let frame = self.starts.partition_point(|&first| first <= id) - 1;
        let first = self.starts[frame];
        let end = self.starts.get(frame + 1).copied().unwrap_or(self.records);
        let held = &store[first..end];
        let (pin, hit) = pool.pin(PageId(frame as u64), |payload| {
            decode_frame(payload, first, held)
        })?;
        if hit {
            io.hits += 1;
        } else {
            io.misses += 1;
            let previous = self.last_miss.swap(frame as u64, Ordering::Relaxed);
            if previous != u64::MAX && previous + 1 == frame as u64 {
                io.sequential += 1;
            }
        }
        let offset = store[first..id]
            .iter()
            .map(|s| s.features.n())
            .sum::<usize>();
        Ok((pin, offset..offset + store[id].features.n()))
    }
}

fn encode_header(frame_size: usize, frames: usize, records: usize) -> [u8; HEADER_BYTES] {
    let mut h = [0u8; HEADER_BYTES];
    h[..8].copy_from_slice(MAGIC);
    h[8..12].copy_from_slice(&VERSION.to_le_bytes());
    h[12..16].copy_from_slice(&(frame_size as u32).to_le_bytes());
    h[16..24].copy_from_slice(&(frames as u64).to_le_bytes());
    h[24..32].copy_from_slice(&(records as u64).to_le_bytes());
    let crc = crc32(&h[..HEADER_BYTES - 4]);
    h[HEADER_BYTES - 4..].copy_from_slice(&crc.to_le_bytes());
    h
}

/// Decodes the frame that must hold `held`, the records from id `first`
/// on: the ids and every length are checked against the records before
/// the samples are read.
fn decode_frame(payload: &[u8], first: usize, held: &[StoredSeries]) -> StoreResult<RecordFrame> {
    let mut dec = Decoder::new(payload);
    let got_first = dec.u64("record frame's first id")?;
    let count = dec.u32("record frame's record count")?;
    if got_first != first as u64 || count as usize != held.len() {
        return Err(StoreError::corrupt(format!(
            "record frame holds {count} record(s) from id {got_first}; the index expects {} \
             from id {first}",
            held.len()
        )));
    }
    let mut total = 0;
    for (id, record) in (first..).zip(held) {
        let len = dec.u32("record length")? as usize;
        if len != record.features.n() {
            return Err(StoreError::corrupt(format!(
                "record {id} holds {len} sample(s) in the record file, {} in the snapshot",
                record.features.n()
            )));
        }
        total += len;
    }
    let bytes = dec.bytes(total * 8, "record samples")?;
    dec.finish()?;
    let samples: RecordFrame = bytes
        .chunks_exact(8)
        .map(|b| f64::from_le_bytes(b.try_into().expect("8 bytes")))
        .collect();
    if let Some(at) = samples.iter().position(|v| !v.is_finite()) {
        return Err(StoreError::corrupt(format!(
            "record frame from id {first} holds a non-finite sample at {at}"
        )));
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_hold_whole_records_in_id_order() {
        // 4096-byte frames leave 4076 bytes for records: three of 128
        // samples (1028 bytes each), never four.
        let starts = pack(std::iter::repeat(128).take(8), 4096);
        assert_eq!(starts, vec![0, 3, 6]);
        // A ragged relation packs by each record's own length.
        assert_eq!(pack([500, 10, 10, 400].into_iter(), 4096), vec![0, 1]);
        assert!(pack(std::iter::empty(), 4096).is_empty());
        // The longest record sets a larger frame; the node page size is
        // the floor.
        assert_eq!(frame_size_for(4096, 128).unwrap(), 4096);
        assert_eq!(frame_size_for(8192, 16).unwrap(), 8192);
        assert_eq!(frame_size_for(4096, 1024).unwrap(), 12288);
        assert!(frame_size_for(4096, usize::MAX / 4).is_err());
    }
}
