//! File-backed pages and a pin-counted LRU buffer pool.
//!
//! A page file stores one R\*-tree node per fixed-size page, so a node
//! fetch is one positioned read — a *real* disk access, counted by the
//! pool rather than simulated by traversal arithmetic. The same page
//! slots, and the same pool over them, hold a paged index's records
//! (`tsq_core::records`: whole records per frame, in id order). The pool caches
//! *decoded* nodes: a pin hands out a shared handle to the decoded value
//! and keeps the frame resident until the pin is dropped, which lets a
//! traversal hold its current node while recursing into children.
//!
//! ## File layout
//!
//! ```text
//! offset 0            header (see PagedHeader), CRC-32 protected
//! offset PAGE_ALIGN   page 0
//! ...                 page i at PAGE_ALIGN + i * page_size
//! ```
//!
//! Every page slot is `payload_len u32 · crc32 u32 · payload · zero pad`;
//! the payload is the node encoding (level, entry count, rectangles,
//! payload/child words). A corrupted page surfaces as a typed
//! [`StoreError`] at pin time, never a panic.
//!
//! ## Pool semantics
//!
//! - `pin` returns the decoded node plus whether it was a **hit** (already
//!   resident) or a **miss** (read from the file). Cumulative hit/miss
//!   counters are the measured-I/O ground truth that `EXPLAIN ANALYZE`
//!   reports.
//! - Eviction is **segmented LRU** (2Q-style, scan-resistant) over
//!   *unpinned* frames only. A page enters the **probationary** segment
//!   on first admission and is promoted to the **protected** segment on
//!   its first re-hit; victims are taken from the probationary segment
//!   first, so a one-shot scan of many cold pages churns through
//!   probationary frames without flushing the re-referenced working set.
//!   The protected segment is capped at 3/4 of capacity; overflow
//!   demotes its LRU frame back to probationary (keeping its old stamp,
//!   so it is near the front of the eviction line). Frames marked
//!   **sticky** ([`BufferPool::mark_sticky`] — the tree root) are never
//!   eviction victims, though [`BufferPool::flush`] still drops them: a
//!   cold-cache reset must measure true cold I/O.
//! - When every frame is pinned the pool soft-overflows past
//!   `capacity_pages` (a recursive traversal through a capacity-1 pool
//!   must not deadlock); the surplus is trimmed back as pins are
//!   released.
//! - Reads and decodes happen under the pool lock, serializing I/O. That
//!   is deliberate: it keeps hit/miss accounting exact (no two threads
//!   racing to fault the same page and double-counting a miss).

use std::collections::{HashMap, HashSet};
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use tsq_store::{crc32, StoreError, StoreResult};

/// Identifies one fixed-size page in a page file (zero-based slot index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u64);

impl std::fmt::Display for PageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "page {}", self.0)
    }
}

/// Fixed per-page prefix: payload length `u32` + CRC-32 `u32`.
pub const PAGE_PREFIX_BYTES: usize = 8;

/// One resident frame: the decoded node, its pin count, an LRU stamp,
/// and which SLRU segment it sits in.
#[derive(Debug)]
struct Frame<N> {
    value: Arc<N>,
    pins: usize,
    stamp: u64,
    /// False on first admission (probationary), true once re-hit.
    protected: bool,
}

#[derive(Debug)]
struct PoolInner<N> {
    file: File,
    page_size: usize,
    page_count: u64,
    frames: HashMap<u64, Frame<N>>,
    /// Monotone counter stamping every touch; smallest stamp = LRU victim.
    tick: u64,
    /// Frames currently in the protected segment.
    protected_count: usize,
    /// Page ids exempt from eviction (the root). Survives `flush` as a
    /// *policy* — re-admitted sticky pages are sticky again.
    sticky: HashSet<u64>,
    /// Reusable page-sized read buffer.
    buf: Vec<u8>,
}

/// A pin-counted LRU cache of decoded pages over one read-only page file.
///
/// Generic over the decoded value `N` so the pool itself stays a pure
/// caching layer; the caller supplies the decoder at pin time (the tree
/// its node decoder, a record file its frame decoder).
#[derive(Debug)]
pub struct BufferPool<N> {
    inner: Mutex<PoolInner<N>>,
    capacity_pages: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<N> BufferPool<N> {
    /// Wraps an open page file. `capacity_pages` is clamped to at least 1;
    /// pass `usize::MAX` for an effectively unbounded pool.
    pub fn new(file: File, page_size: usize, page_count: u64, capacity_pages: usize) -> Self {
        BufferPool {
            inner: Mutex::new(PoolInner {
                file,
                page_size,
                page_count,
                frames: HashMap::new(),
                tick: 0,
                protected_count: 0,
                sticky: HashSet::new(),
                buf: Vec::new(),
            }),
            capacity_pages: capacity_pages.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The configured capacity in pages.
    pub fn capacity_pages(&self) -> usize {
        self.capacity_pages
    }

    /// Protected-segment cap: 3/4 of capacity, never below 1. The
    /// remaining quarter stays probationary churn room, so a scan always
    /// has somewhere to land without touching the hot set.
    fn protected_cap(&self) -> usize {
        self.capacity_pages - self.capacity_pages / 4
    }

    /// Exempts `id` from eviction — used for the tree root, which every
    /// traversal touches first and must never fault on a warm pool. The
    /// exemption is a policy on the page id, not the frame: it applies to
    /// current and future residency, and survives [`BufferPool::flush`]
    /// (which still drops the frame itself — a cold reset re-reads the
    /// root once, then it sticks again).
    pub fn mark_sticky(&self, id: PageId) {
        self.lock().sticky.insert(id.0);
    }

    /// Cumulative pin hits (fetches served from a resident frame).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cumulative pin misses (fetches that read the file). This is the
    /// measured disk-access count.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Pages resident right now.
    pub fn resident_pages(&self) -> usize {
        self.lock().frames.len()
    }

    fn lock(&self) -> MutexGuard<'_, PoolInner<N>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Pins a page, decoding it on a miss with `decode` (called on the
    /// exact payload bytes, checksum already verified). Returns the pin
    /// guard and whether the fetch was a hit.
    ///
    /// # Errors
    /// [`StoreError::Io`] when the read fails, [`StoreError::Corrupt`] /
    /// [`StoreError::ChecksumMismatch`] for a malformed page, plus
    /// whatever `decode` rejects.
    pub fn pin<F>(&self, id: PageId, decode: F) -> StoreResult<(PagePin<'_, N>, bool)>
    where
        F: FnOnce(&[u8]) -> StoreResult<N>,
    {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let resident = if let Some(frame) = inner.frames.get_mut(&id.0) {
            frame.pins += 1;
            frame.stamp = tick;
            let promoted = !frame.protected;
            frame.protected = true;
            Some((Arc::clone(&frame.value), promoted))
        } else {
            None
        };
        if let Some((value, promoted)) = resident {
            if promoted {
                // Re-hit: probationary -> protected. If the protected
                // segment overflows, its LRU member drops back to
                // probationary (old stamp kept, so it is next in the
                // eviction line).
                inner.protected_count += 1;
                if inner.protected_count > self.protected_cap() {
                    inner.demote_lru_protected();
                }
            }
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((
                PagePin {
                    pool: self,
                    id,
                    value,
                },
                true,
            ));
        }
        let value = {
            let payload = inner.read_page(id)?;
            Arc::new(decode(payload)?)
        };
        // Make room: evict unpinned frames (probationary first);
        // soft-overflow when nothing is evictable (trimmed in `unpin`).
        while inner.frames.len() >= self.capacity_pages {
            if !inner.evict_one() {
                break;
            }
        }
        inner.frames.insert(
            id.0,
            Frame {
                value: Arc::clone(&value),
                pins: 1,
                stamp: tick,
                protected: false,
            },
        );
        self.misses.fetch_add(1, Ordering::Relaxed);
        Ok((
            PagePin {
                pool: self,
                id,
                value,
            },
            false,
        ))
    }

    /// Releases one pin on `id` and trims any soft overflow.
    fn unpin(&self, id: PageId) {
        let mut inner = self.lock();
        if let Some(frame) = inner.frames.get_mut(&id.0) {
            frame.pins = frame.pins.saturating_sub(1);
        }
        while inner.frames.len() > self.capacity_pages {
            if !inner.evict_one() {
                break;
            }
        }
    }

    /// Drops every unpinned frame, returning how many were evicted. The
    /// pool is read-only, so there is nothing to write back — `flush` is
    /// the cold-cache reset the benchmarks use.
    pub fn flush(&self) -> usize {
        let mut inner = self.lock();
        let before = inner.frames.len();
        inner.frames.retain(|_, f| f.pins > 0);
        inner.protected_count = inner.frames.values().filter(|f| f.protected).count();
        before - inner.frames.len()
    }
}

impl<N> PoolInner<N> {
    /// LRU evictable frame within one segment: unpinned and not sticky.
    fn victim_in(&self, protected: bool) -> Option<u64> {
        self.frames
            .iter()
            .filter(|(k, f)| f.pins == 0 && f.protected == protected && !self.sticky.contains(*k))
            .min_by_key(|(_, f)| f.stamp)
            .map(|(&k, _)| k)
    }

    /// Removes one evictable frame — probationary LRU first, protected
    /// LRU only when no probationary frame can go. Returns `false` when
    /// every frame is pinned or sticky (the soft-overflow case).
    fn evict_one(&mut self) -> bool {
        let Some(victim) = self.victim_in(false).or_else(|| self.victim_in(true)) else {
            return false;
        };
        if let Some(frame) = self.frames.remove(&victim) {
            if frame.protected {
                self.protected_count -= 1;
            }
        }
        true
    }

    /// Reclassifies the protected segment's LRU frame as probationary,
    /// keeping its stamp. Called only when the segment exceeds its cap,
    /// which implies at least two members — the just-promoted frame
    /// carries the newest stamp and is never the one picked.
    fn demote_lru_protected(&mut self) {
        let victim = self
            .frames
            .iter()
            .filter(|(_, f)| f.protected)
            .min_by_key(|(_, f)| f.stamp)
            .map(|(&k, _)| k);
        if let Some(k) = victim {
            if let Some(frame) = self.frames.get_mut(&k) {
                frame.protected = false;
                self.protected_count -= 1;
            }
        }
    }

    /// Reads and verifies one page, returning its payload slice (borrowed
    /// from the reusable buffer).
    fn read_page(&mut self, id: PageId) -> StoreResult<&[u8]> {
        if id.0 >= self.page_count {
            return Err(StoreError::corrupt(format!(
                "{id} out of range (file holds {} page(s))",
                self.page_count
            )));
        }
        let offset = crate::config::PAGE_ALIGN as u64 + id.0 * self.page_size as u64;
        self.buf.resize(self.page_size, 0);
        self.file.seek(SeekFrom::Start(offset))?;
        self.file
            .read_exact(&mut self.buf)
            .map_err(|e| match e.kind() {
                std::io::ErrorKind::UnexpectedEof => StoreError::truncated(format!("{id}")),
                _ => e.into(),
            })?;
        let payload_len = u32::from_le_bytes(self.buf[0..4].try_into().expect("4 bytes")) as usize;
        if payload_len > self.page_size - PAGE_PREFIX_BYTES {
            return Err(StoreError::corrupt(format!(
                "{id} declares a {payload_len}-byte payload in a {}-byte page",
                self.page_size
            )));
        }
        let stored = u32::from_le_bytes(self.buf[4..8].try_into().expect("4 bytes"));
        let payload = &self.buf[PAGE_PREFIX_BYTES..PAGE_PREFIX_BYTES + payload_len];
        let computed = crc32(payload);
        if stored != computed {
            return Err(StoreError::ChecksumMismatch { stored, computed });
        }
        Ok(payload)
    }
}

/// A pinned, decoded page. Dereferences to the node; dropping it releases
/// the pin, making the frame evictable again.
#[derive(Debug)]
pub struct PagePin<'p, N> {
    pool: &'p BufferPool<N>,
    id: PageId,
    value: Arc<N>,
}

impl<N> Deref for PagePin<'_, N> {
    type Target = N;

    fn deref(&self) -> &N {
        &self.value
    }
}

impl<N> Drop for PagePin<'_, N> {
    fn drop(&mut self) {
        self.pool.unpin(self.id);
    }
}

/// Serializes one page slot: length prefix, CRC, payload, zero padding.
///
/// # Errors
/// [`StoreError::Corrupt`] when the payload cannot fit the page.
pub fn seal_page(payload: &[u8], page_size: usize) -> StoreResult<Vec<u8>> {
    if payload.len() > page_size - PAGE_PREFIX_BYTES {
        return Err(StoreError::corrupt(format!(
            "node payload of {} byte(s) exceeds the {page_size}-byte page",
            payload.len()
        )));
    }
    let mut page = vec![0u8; page_size];
    page[PAGE_PREFIX_BYTES..PAGE_PREFIX_BYTES + payload.len()].copy_from_slice(payload);
    seal_in_place(&mut page, payload.len());
    Ok(page)
}

/// Seals a page slot whose `payload_len`-byte payload already sits after
/// the prefix (and whose tail is zero): writes the length and the CRC
/// into the prefix — [`seal_page`] without a buffer of its own.
///
/// # Panics
/// When the payload does not fit `page`.
pub fn seal_in_place(page: &mut [u8], payload_len: usize) {
    let crc = crc32(&page[PAGE_PREFIX_BYTES..PAGE_PREFIX_BYTES + payload_len]);
    page[0..4].copy_from_slice(&(payload_len as u32).to_le_bytes());
    page[4..8].copy_from_slice(&crc.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn pool_over(pages: &[&[u8]], capacity: usize) -> BufferPool<String> {
        let dir = std::env::temp_dir().join(format!(
            "tsq-pool-test-{}-{}",
            std::process::id(),
            pages.len()
        ));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join(format!("p{capacity}.pages"));
        let page_size = crate::config::PAGE_ALIGN;
        let mut f = File::create(&path).unwrap();
        f.write_all(&vec![0u8; crate::config::PAGE_ALIGN]).unwrap();
        for p in pages {
            f.write_all(&seal_page(p, page_size).unwrap()).unwrap();
        }
        f.flush().unwrap();
        BufferPool::new(
            File::open(&path).unwrap(),
            page_size,
            pages.len() as u64,
            capacity,
        )
    }

    fn decode(bytes: &[u8]) -> StoreResult<String> {
        Ok(String::from_utf8_lossy(bytes).into_owned())
    }

    #[test]
    fn hit_miss_accounting_is_exact() {
        let pool = pool_over(&[b"alpha", b"beta", b"gamma"], 8);
        let (p0, hit) = pool.pin(PageId(0), decode).unwrap();
        assert!(!hit);
        assert_eq!(&*p0, "alpha");
        drop(p0);
        let (p0, hit) = pool.pin(PageId(0), decode).unwrap();
        assert!(hit);
        drop(p0);
        let (p1, hit) = pool.pin(PageId(1), decode).unwrap();
        assert!(!hit);
        drop(p1);
        assert_eq!(pool.hits(), 1);
        assert_eq!(pool.misses(), 2);
    }

    #[test]
    fn lru_evicts_least_recently_used_unpinned() {
        let pool = pool_over(&[b"a", b"b", b"c"], 2);
        drop(pool.pin(PageId(0), decode).unwrap());
        drop(pool.pin(PageId(1), decode).unwrap());
        // Touch page 0 so page 1 becomes the LRU victim.
        drop(pool.pin(PageId(0), decode).unwrap());
        drop(pool.pin(PageId(2), decode).unwrap()); // evicts 1
        assert_eq!(pool.resident_pages(), 2);
        let (_, hit) = pool.pin(PageId(0), decode).unwrap();
        assert!(hit, "page 0 was recently used and must survive");
        let (_, hit) = pool.pin(PageId(1), decode).unwrap();
        assert!(!hit, "page 1 was the LRU victim");
    }

    #[test]
    fn warm_pool_sized_working_set_repeats_with_zero_misses() {
        // A working set that exactly fits the pool: after the cold pass,
        // repeat probes in any order must never fault again.
        let pool = pool_over(&[b"a", b"b", b"c", b"d"], 4);
        for i in 0..4 {
            drop(pool.pin(PageId(i), decode).unwrap());
        }
        assert_eq!(pool.misses(), 4);
        for round in 0..5 {
            for i in 0..4 {
                let id = if round % 2 == 0 { i } else { 3 - i };
                drop(pool.pin(PageId(id), decode).unwrap());
            }
        }
        assert_eq!(pool.misses(), 4, "warm repeat probes must take zero misses");
        assert_eq!(pool.hits(), 20);
    }

    #[test]
    fn protected_working_set_survives_a_one_pass_scan() {
        // Scan resistance: pages 0..4 are re-referenced (promoted to the
        // protected segment); a one-shot scan of 12 cold pages — larger
        // than the whole pool — must churn through probationary frames
        // only and leave the working set resident.
        let pages: Vec<Vec<u8>> = (0..16u8).map(|i| vec![b'a' + i]).collect();
        let refs: Vec<&[u8]> = pages.iter().map(Vec::as_slice).collect();
        let pool = pool_over(&refs, 8);
        for _ in 0..2 {
            for i in 0..4 {
                drop(pool.pin(PageId(i), decode).unwrap());
            }
        }
        for i in 4..16 {
            drop(pool.pin(PageId(i), decode).unwrap());
        }
        let before = pool.misses();
        for i in 0..4 {
            let (_, hit) = pool.pin(PageId(i), decode).unwrap();
            assert!(hit, "page {i} was protected and must survive the scan");
        }
        assert_eq!(pool.misses(), before);
    }

    #[test]
    fn sticky_pages_are_never_eviction_victims() {
        let pool = pool_over(&[b"a", b"b", b"c", b"d", b"e", b"f"], 2);
        pool.mark_sticky(PageId(0));
        drop(pool.pin(PageId(0), decode).unwrap());
        // Churn far past capacity: page 0 is untouched the whole time but
        // must stay resident because it is sticky.
        for i in 1..6 {
            drop(pool.pin(PageId(i), decode).unwrap());
        }
        let (_, hit) = pool.pin(PageId(0), decode).unwrap();
        assert!(hit, "sticky page must survive unbounded churn");
        // `flush` is a cold reset and does drop it — but stickiness is a
        // policy on the id, so the re-admitted frame is sticky again.
        pool.flush();
        let (_, hit) = pool.pin(PageId(0), decode).unwrap();
        assert!(!hit, "flush drops sticky frames too");
        for i in 1..6 {
            drop(pool.pin(PageId(i), decode).unwrap());
        }
        let (_, hit) = pool.pin(PageId(0), decode).unwrap();
        assert!(hit, "stickiness survives the flush");
    }

    #[test]
    fn protected_overflow_demotes_lru_back_to_probationary() {
        // Capacity 4 => protected cap 3. Promoting a fourth page demotes
        // the protected LRU (page 0) back to probationary, making it the
        // next eviction victim.
        let pool = pool_over(&[b"a", b"b", b"c", b"d", b"e"], 4);
        for i in 0..4 {
            drop(pool.pin(PageId(i), decode).unwrap());
        }
        for i in 0..4 {
            drop(pool.pin(PageId(i), decode).unwrap()); // promote all four
        }
        drop(pool.pin(PageId(4), decode).unwrap()); // evicts demoted page 0
        let (_, hit) = pool.pin(PageId(1), decode).unwrap();
        assert!(hit, "page 1 stayed protected");
        let (_, hit) = pool.pin(PageId(0), decode).unwrap();
        assert!(!hit, "page 0 was demoted and then evicted");
    }

    #[test]
    fn pinned_frames_survive_eviction_via_soft_overflow() {
        let pool = pool_over(&[b"a", b"b", b"c"], 1);
        let (pin_a, _) = pool.pin(PageId(0), decode).unwrap();
        // Capacity 1, but page 0 is pinned: pinning 1 and 2 must still
        // work (soft overflow), and page 0 must stay resident.
        let (pin_b, _) = pool.pin(PageId(1), decode).unwrap();
        assert_eq!(&*pin_a, "a");
        assert_eq!(&*pin_b, "b");
        assert!(pool.resident_pages() >= 2);
        drop(pin_b);
        drop(pin_a);
        // Pins released: the pool trims back to capacity.
        drop(pool.pin(PageId(2), decode).unwrap());
        assert_eq!(pool.resident_pages(), 1);
    }

    #[test]
    fn flush_drops_only_unpinned() {
        let pool = pool_over(&[b"a", b"b"], 4);
        let (pin, _) = pool.pin(PageId(0), decode).unwrap();
        drop(pool.pin(PageId(1), decode).unwrap());
        assert_eq!(pool.flush(), 1);
        assert_eq!(pool.resident_pages(), 1);
        drop(pin);
        assert_eq!(pool.flush(), 1);
        assert_eq!(pool.resident_pages(), 0);
        // After a flush the next fetch is a miss again.
        let (_, hit) = pool.pin(PageId(0), decode).unwrap();
        assert!(!hit);
    }

    #[test]
    fn corrupt_pages_are_typed_errors() {
        let dir = std::env::temp_dir().join(format!("tsq-pool-corrupt-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("bad.pages");
        let page_size = crate::config::PAGE_ALIGN;
        let mut page = seal_page(b"payload", page_size).unwrap();
        page[PAGE_PREFIX_BYTES] ^= 0xff; // flip a payload bit
        let mut f = File::create(&path).unwrap();
        f.write_all(&vec![0u8; crate::config::PAGE_ALIGN]).unwrap();
        f.write_all(&page).unwrap();
        f.flush().unwrap();
        let pool: BufferPool<String> = BufferPool::new(File::open(&path).unwrap(), page_size, 1, 4);
        assert!(matches!(
            pool.pin(PageId(0), decode),
            Err(StoreError::ChecksumMismatch { .. })
        ));
        // Out-of-range page ids are refused before any read.
        assert!(matches!(
            pool.pin(PageId(9), decode),
            Err(StoreError::Corrupt { .. })
        ));
        assert_eq!(pool.hits() + pool.misses(), 0);
    }

    #[test]
    fn oversized_payload_is_rejected_at_seal_time() {
        let too_big = vec![0u8; crate::config::PAGE_ALIGN];
        assert!(matches!(
            seal_page(&too_big, crate::config::PAGE_ALIGN),
            Err(StoreError::Corrupt { .. })
        ));
    }
}
