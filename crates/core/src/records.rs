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
//! offset 0            header: magic 8 · version 4 · frame size u32 ·
//!                     frame count u64 · record count u64 · CRC-32 4 ·
//!                     the writer's tag (pid u32 · n u64)
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
//! The file is a [`PageFile`]: created new (a file already at the path is
//! unlinked, never written into), written through a handle of its own
//! that every later read goes through — nothing reopens the file by its
//! path — and removed when its [`RecordFile`] drops.
//!
//! Which records a frame holds is a function of the record lengths, which
//! the index knows from the features it keeps: the file is checked against
//! them, never trusted. The first pin compares the header block with the
//! one the writer wrote and the file's size with its frames; every frame
//! is checked as it is read. A header the writer did not write, a file of
//! the wrong size, a frame whose checksum or record lengths disagree, or a
//! non-finite sample is a typed [`StoreError`]; nothing is allocated from
//! a declared length.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tsq_rtree::config::PAGE_ALIGN;
use tsq_rtree::page::{
    seal_in_place, BufferPool, FileKind, PageCache, PageFile, PageId, PagePin, PAGE_PREFIX_BYTES,
};
use tsq_store::{Decoder, StoreError, StoreResult};

use crate::index::StoredSeries;

/// Record files, derived at open like page files.
const KIND: FileKind = FileKind {
    magic: *b"TSQRECS\0",
    version: 2,
};

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
pub(crate) type RecordFrame = Box<[f64]>;

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
    pub(crate) fn absorb(&mut self, other: &RecordIo) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.sequential += other.sequential;
    }
}

/// One index's record file and its handle onto a cache. It owns the
/// file: dropping it removes the file.
#[derive(Debug)]
pub struct RecordFile {
    file: PageFile<RecordFrame>,
    /// First record id of every frame, ascending.
    starts: Vec<usize>,
    records: usize,
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
    /// least `page_size` bytes, and joins it to `cache`.
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
        let slots = (frame_size, starts.len() as u64);
        let geometry = (store.len() as u64).to_le_bytes();
        let file = PageFile::create(path, KIND, slots, &geometry, cache, |file| {
            write_frames(file, store, frame_size, &starts)
        })?;
        Ok(RecordFile {
            file,
            starts,
            records: store.len(),
            last_miss: AtomicU64::new(u64::MAX),
        })
    }

    /// Where the file lives.
    pub fn path(&self) -> &Path {
        self.file.path()
    }

    /// Bytes per frame.
    pub fn frame_size(&self) -> usize {
        self.file.page_size()
    }

    /// Frames in the file.
    pub fn frame_count(&self) -> usize {
        self.starts.len()
    }

    /// The file's handle onto its cache (for its counters and `flush`).
    pub fn pool(&self) -> &BufferPool<RecordFrame> {
        self.file.pool()
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
        let frame = self.starts.partition_point(|&first| first <= id) - 1;
        let first = self.starts[frame];
        let end = self.starts.get(frame + 1).copied().unwrap_or(self.records);
        let held = &store[first..end];
        let (pin, hit) = self.file.pin(PageId(frame as u64), |payload| {
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

/// Writes `store`'s samples into `file`, after its header block, as
/// frames of `frame_size` bytes starting at `starts`.
fn write_frames(
    file: &mut File,
    store: &[StoredSeries],
    frame_size: usize,
    starts: &[usize],
) -> StoreResult<()> {
    let mut w = BufWriter::with_capacity(WRITE_BUFFER_BYTES, file);
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
    Ok(w.flush()?)
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
