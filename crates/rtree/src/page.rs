//! File-backed pages and one pin-counted buffer cache over all of them.
//!
//! A page file stores one R\*-tree node per fixed-size page, so a node
//! fetch is one positioned read — a *real* disk access, counted by the
//! cache rather than simulated by traversal arithmetic. The same page
//! slots hold a paged index's records (`tsq_core::records`: whole records
//! per frame, in id order) and a paged ST-index's trail nodes. The cache
//! keeps *decoded* values: a pin hands out a shared handle to the decoded
//! value and keeps the frame resident until the pin is dropped, which lets
//! a traversal hold its current node while recursing into children.
//!
//! ## File layout
//!
//! ```text
//! offset 0            header block: magic 8 · version 4 · page_size u32 ·
//!                     page_count u64 · the kind's geometry · CRC-32 4 ·
//!                     writer's tag: pid u32 · n u64 · zero pad
//! offset PAGE_ALIGN   page 0
//! ...                 page i at PAGE_ALIGN + i * page_size
//! ```
//!
//! Every page slot is `payload_len u32 · crc32 u32 · payload · zero pad`;
//! the payload is the kind's encoding (a node's level, entry count,
//! rectangles and payload/child words; a record frame's records). A
//! corrupted page surfaces as a typed [`StoreError`] at pin time, never a
//! panic.
//!
//! ## Derived files
//!
//! Every file a catalog's cache reads is derived — from a tree in memory
//! or an index's records — and read only by its writer: a [`PageFile`] is
//! created new at its path (a file already there is unlinked, never
//! written into), written through one handle, which then joins the cache,
//! and removed when it drops. Nothing decodes its header: the first pin
//! compares the header block with the bytes the writer wrote, which carry
//! the writer's tag ([`sidecar_tag`]'s counter), so a file of the same
//! shape written over it before then by anyone else — another catalog,
//! another process — is a typed error, not other rows. Later, each page
//! is checked as it is read (its CRC, then the kind's decode). The CRC-32
//! covers the header up to the tag, so damage there reads as
//! [`StoreError::ChecksumMismatch`].
//!
//! ## Cache semantics
//!
//! - One [`PageCache`] holds the frames of every file that joins it under
//!   one byte budget: each file joins through a typed [`BufferPool`]
//!   handle, which draws a file number no other handle of the cache ever
//!   had, and each of its frames is charged the handle's slot size (the
//!   node page size, or the record frame size). Frames are keyed by (file
//!   number, page); dropping a handle purges its frames, so no frame of a
//!   dropped file holds budget.
//! - `pin` returns the decoded value plus whether it was a **hit**
//!   (already resident) or a **miss** (read from the file). Each handle
//!   keeps its own cumulative hit/miss counters — the measured-I/O ground
//!   truth that `EXPLAIN ANALYZE` reports — and the cache counts every
//!   pin of every handle.
//! - Eviction is **segmented LRU** (2Q-style, scan-resistant) over
//!   *unpinned* frames only, across every file of the cache. A page enters
//!   the **probationary** segment on first admission and is promoted to
//!   the **protected** segment on its first re-hit; victims are taken from
//!   the probationary segment first, so a one-shot scan of many cold pages
//!   churns through probationary frames without flushing the re-referenced
//!   working set. The protected segment holds about 3/4 of the budget: a
//!   promotion demotes the segment's LRU frames back to probationary
//!   (keeping their old stamps, so they are near the front of the
//!   eviction line) while the rest of the segment fills 3/4 of it. Each
//!   segment is kept in stamp order (the protected one as a list a hit
//!   relinks in constant time), so a victim is found without scanning
//!   every frame. Frames marked **sticky** (`BufferPool::mark_sticky` —
//!   a tree's root) are never eviction victims, though
//!   [`BufferPool::flush`] still drops them: a cold-cache reset must
//!   measure true cold I/O.
//! - When every frame is pinned the cache soft-overflows past its budget
//!   (a recursive traversal through a one-page cache must not deadlock);
//!   the surplus is trimmed back as pins are released. A cache always
//!   keeps at least one frame, so a budget below one slot behaves as one
//!   slot.
//! - Reads and decodes happen under the cache lock, serializing I/O. That
//!   is deliberate: it keeps hit/miss accounting exact (no two threads
//!   racing to fault the same page and double-counting a miss).

use std::any::Any;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::hash::BuildHasherDefault;
use std::io::{Read, Seek, SeekFrom, Write};
use std::marker::PhantomData;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use tsq_store::{crc32, Encoder, StoreError, StoreResult};

use crate::config::PAGE_ALIGN;

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

/// A frame's key: its handle's file number, and the page.
type Key = (u64, u64);

/// Hashes a [`Key`] by one multiply-rotate step per word. Keys are two
/// counters the cache hands out, never outside input, and SipHash took
/// about half of a pin hit's time.
#[derive(Default)]
struct KeyHasher(u64);

impl std::hash::Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

type KeyHash = BuildHasherDefault<KeyHasher>;

/// One resident frame: the decoded value, the bytes it is charged, its pin
/// count, an LRU stamp, and which SLRU segment it sits in.
struct Frame {
    value: Arc<dyn Any + Send + Sync>,
    bytes: u64,
    pins: usize,
    stamp: u64,
    /// False on first admission (probationary), true once re-hit.
    protected: bool,
    /// Neighbours in the protected segment's list, while protected.
    older: Option<Key>,
    newer: Option<Key>,
}

#[derive(Default)]
struct CacheInner {
    frames: HashMap<Key, Frame, KeyHash>,
    /// The probationary segment by stamp, least recently used first: a
    /// demoted frame keeps its old stamp, so it may land anywhere in it.
    probation: BTreeMap<u64, Key>,
    /// The protected segment's list ends: a frame enters it, and a hit
    /// moves it, at the newest end, so it stays in stamp order.
    oldest: Option<Key>,
    newest: Option<Key>,
    /// Monotone counter stamping every touch; smallest stamp = LRU victim.
    tick: u64,
    /// Bytes charged to resident frames, and to protected ones.
    resident: u64,
    protected_bytes: u64,
    /// Pages exempt from eviction (roots). Survives `flush` as a *policy*
    /// — re-admitted sticky pages are sticky again.
    sticky: HashSet<Key, KeyHash>,
    /// Reusable read buffer, as large as the largest slot read.
    buf: Vec<u8>,
}

/// A pin-counted segmented-LRU cache of decoded pages of any number of
/// read-only files, bounded by one byte budget. Files join it through
/// [`BufferPool`] handles.
pub struct PageCache {
    inner: Mutex<CacheInner>,
    budget: u64,
    /// File numbers handed out so far; never reused.
    files: AtomicU64,
    pins: AtomicU64,
}

impl std::fmt::Debug for PageCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageCache")
            .field("budget", &self.budget)
            .field("resident_bytes", &self.resident_bytes())
            .finish_non_exhaustive()
    }
}

impl PageCache {
    /// An empty cache of `budget_bytes` (at least 1; `u64::MAX` for an
    /// effectively unbounded cache), shared by the handles that join it.
    pub fn new(budget_bytes: u64) -> Arc<Self> {
        Arc::new(PageCache {
            inner: Mutex::new(CacheInner::default()),
            budget: budget_bytes.max(1),
            files: AtomicU64::new(0),
            pins: AtomicU64::new(0),
        })
    }

    /// The byte budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Bytes charged to the frames resident right now: at most the
    /// budget, but while pins hold more than it.
    pub fn resident_bytes(&self) -> u64 {
        self.lock().resident
    }

    /// Cumulative pins of every handle: each handle's hits plus misses,
    /// summed.
    pub fn pins(&self) -> u64 {
        self.pins.load(Ordering::Relaxed)
    }

    fn lock(&self) -> MutexGuard<'_, CacheInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl CacheInner {
    /// Pins resident frame `key` as a hit at `tick`: the frame moves to
    /// the protected segment's newest end, and a promotion demotes the
    /// segment's LRU frames while the rest of it fills 3/4 of `budget`.
    fn touch(&mut self, key: Key, tick: u64, budget: u64) -> Option<Arc<dyn Any + Send + Sync>> {
        let frame = self.frames.get_mut(&key)?;
        frame.pins += 1;
        let stamp = std::mem::replace(&mut frame.stamp, tick);
        let promoted = !std::mem::replace(&mut frame.protected, true);
        let (value, bytes) = (Arc::clone(&frame.value), frame.bytes);
        if promoted {
            self.probation.remove(&stamp);
            self.protected_bytes += bytes;
        } else {
            self.unlink(key);
        }
        self.push_newest(key);
        // With one slot size, this caps the segment at ceil(3/4) of the
        // budget's slots. The promoted frame is the newest, so it is never
        // the one demoted.
        let full = |rest: u64| 4 * u128::from(rest) >= 3 * u128::from(budget);
        while promoted && self.oldest != Some(key) && full(self.protected_bytes - bytes) {
            self.demote_lru_protected();
        }
        Some(value)
    }

    /// Admits a freshly read frame, pinned once, making room first:
    /// unpinned frames are evicted (probationary first) until it fits the
    /// budget, and the cache soft-overflows when nothing is evictable
    /// (trimmed in `unpin`).
    fn admit(
        &mut self,
        key: Key,
        value: Arc<dyn Any + Send + Sync>,
        bytes: u64,
        tick: u64,
        budget: u64,
    ) {
        while self.resident + bytes > budget {
            if !self.evict_one() {
                break;
            }
        }
        let frame = Frame {
            value,
            bytes,
            pins: 1,
            stamp: tick,
            protected: false,
            older: None,
            newer: None,
        };
        self.frames.insert(key, frame);
        self.probation.insert(tick, key);
        self.resident += bytes;
    }

    /// Releases one pin on `key` and trims any soft overflow, keeping at
    /// least one frame.
    fn unpin(&mut self, key: Key, budget: u64) {
        if let Some(frame) = self.frames.get_mut(&key) {
            frame.pins = frame.pins.saturating_sub(1);
        }
        while self.resident > budget && self.frames.len() > 1 {
            if !self.evict_one() {
                break;
            }
        }
    }

    /// The LRU evictable frame — unpinned and not sticky — of the
    /// probationary segment, or else of the protected one.
    fn victim(&self) -> Option<Key> {
        let evictable = |key: &Key| self.frames[key].pins == 0 && !self.sticky.contains(key);
        let protected = std::iter::successors(self.oldest, |key| self.frames[key].newer);
        let probation = self.probation.values().copied();
        probation.chain(protected).find(evictable)
    }

    /// Removes one evictable frame — probationary LRU first, protected
    /// LRU only when no probationary frame can go. Returns `false` when
    /// every frame is pinned or sticky (the soft-overflow case).
    fn evict_one(&mut self) -> bool {
        let Some(victim) = self.victim() else {
            return false;
        };
        self.remove(victim);
        true
    }

    /// Drops frame `key` from the cache, its segment and the byte counts.
    fn remove(&mut self, key: Key) {
        let Some(frame) = self.frames.get(&key) else {
            return;
        };
        if frame.protected {
            self.unlink(key);
        }
        let frame = self.frames.remove(&key).expect("resident");
        self.resident -= frame.bytes;
        if frame.protected {
            self.protected_bytes -= frame.bytes;
        } else {
            self.probation.remove(&frame.stamp);
        }
    }

    /// Reclassifies the protected segment's LRU frame as probationary,
    /// keeping its stamp.
    fn demote_lru_protected(&mut self) {
        let Some(key) = self.oldest else {
            return;
        };
        self.unlink(key);
        let frame = self.frame(key);
        frame.protected = false;
        let (stamp, bytes) = (frame.stamp, frame.bytes);
        self.protected_bytes -= bytes;
        self.probation.insert(stamp, key);
    }

    fn frame(&mut self, key: Key) -> &mut Frame {
        self.frames
            .get_mut(&key)
            .expect("a listed frame is resident")
    }

    /// Takes protected frame `key` out of the segment's list.
    fn unlink(&mut self, key: Key) {
        let frame = self.frame(key);
        let (older, newer) = (frame.older.take(), frame.newer.take());
        match older {
            Some(older) => self.frame(older).newer = newer,
            None => self.oldest = newer,
        }
        match newer {
            Some(newer) => self.frame(newer).older = older,
            None => self.newest = older,
        }
    }

    /// Puts protected frame `key` at the segment list's newest end.
    fn push_newest(&mut self, key: Key) {
        let older = self.newest.replace(key);
        match older {
            Some(older) => self.frame(older).newer = Some(key),
            None => self.oldest = Some(key),
        }
        self.frame(key).older = older;
    }

    /// The resident frames of file `file` that `keep` does not hold on
    /// to, removed; returns how many.
    fn drop_file(&mut self, file: u64, keep: impl Fn(&Frame) -> bool) -> usize {
        let doomed: Vec<Key> = self
            .frames
            .iter()
            .filter(|(key, frame)| key.0 == file && !keep(frame))
            .map(|(&key, _)| key)
            .collect();
        for &key in &doomed {
            self.remove(key);
        }
        doomed.len()
    }
}

/// One read-only page file's handle onto a [`PageCache`]: the file, its
/// own hit and miss counters, and typed pins of its pages.
///
/// Generic over the decoded value `N` so the cache itself stays a pure
/// caching layer; the caller supplies the decoder at pin time (the tree
/// its node decoder, a record file its frame decoder).
#[derive(Debug)]
pub struct BufferPool<N> {
    cache: Arc<PageCache>,
    file_no: u64,
    file: File,
    page_size: usize,
    page_count: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    decoded: PhantomData<fn() -> N>,
}

impl<N: Any + Send + Sync> BufferPool<N> {
    /// Wraps an open page file in a cache of its own, of `capacity_pages`
    /// pages (clamped to at least 1; `usize::MAX` for an effectively
    /// unbounded cache).
    pub fn new(file: File, page_size: usize, page_count: u64, capacity_pages: usize) -> Self {
        let budget = (capacity_pages.max(1) as u64).saturating_mul(page_size as u64);
        Self::in_cache(&PageCache::new(budget), file, page_size, page_count)
    }

    /// Joins an open page file of `page_count` slots of `page_size` bytes
    /// to `cache`, under a file number no handle of it had before.
    pub(crate) fn in_cache(
        cache: &Arc<PageCache>,
        file: File,
        page_size: usize,
        page_count: u64,
    ) -> Self {
        BufferPool {
            cache: Arc::clone(cache),
            file_no: cache.files.fetch_add(1, Ordering::Relaxed),
            file,
            page_size,
            page_count,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            decoded: PhantomData,
        }
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
        let key = (self.file_no, id.0);
        let budget = self.cache.budget;
        let mut inner = self.cache.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let (value, hit) = match inner.touch(key, tick, budget) {
            Some(value) => {
                let value = value
                    .downcast::<N>()
                    .expect("a file's frames hold its type");
                (value, true)
            }
            None => {
                let value = {
                    let payload = self.read_page(&mut inner.buf, id)?;
                    Arc::new(decode(payload)?)
                };
                let frame: Arc<dyn Any + Send + Sync> = value.clone();
                inner.admit(key, frame, self.page_size as u64, tick, budget);
                (value, false)
            }
        };
        let counter = if hit { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        self.cache.pins.fetch_add(1, Ordering::Relaxed);
        Ok((
            PagePin {
                pool: self,
                id,
                value,
            },
            hit,
        ))
    }
}

impl<N> BufferPool<N> {
    /// The cache this handle's frames live in.
    pub fn cache(&self) -> &Arc<PageCache> {
        &self.cache
    }

    /// How many of this file's pages the cache's budget holds (at least
    /// 1).
    pub fn capacity_pages(&self) -> usize {
        let pages = self.cache.budget / self.page_size.max(1) as u64;
        usize::try_from(pages).unwrap_or(usize::MAX).max(1)
    }

    /// Exempts `id` from eviction — used for a tree's root, which every
    /// traversal touches first and must never fault on a warm cache. The
    /// exemption is a policy on the page id, not the frame: it applies to
    /// current and future residency, and survives [`BufferPool::flush`]
    /// (which still drops the frame itself — a cold reset re-reads the
    /// root once, then it sticks again).
    pub(crate) fn mark_sticky(&self, id: PageId) {
        self.cache.lock().sticky.insert((self.file_no, id.0));
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

    /// This file's pages resident right now.
    pub fn resident_pages(&self) -> usize {
        let inner = self.cache.lock();
        inner
            .frames
            .keys()
            .filter(|key| key.0 == self.file_no)
            .count()
    }

    /// Releases one pin on `id` and trims any soft overflow.
    fn unpin(&self, id: PageId) {
        self.cache
            .lock()
            .unpin((self.file_no, id.0), self.cache.budget);
    }

    /// Drops every unpinned frame of this file, returning how many were
    /// evicted. The cache is read-only, so there is nothing to write back
    /// — `flush` is the cold-cache reset the benchmarks use.
    pub fn flush(&self) -> usize {
        self.cache
            .lock()
            .drop_file(self.file_no, |frame| frame.pins > 0)
    }

    /// Reads and verifies one page into `buf`, returning its payload
    /// slice.
    fn read_page<'b>(&self, buf: &'b mut Vec<u8>, id: PageId) -> StoreResult<&'b [u8]> {
        if id.0 >= self.page_count {
            return Err(StoreError::corrupt(format!(
                "{id} out of range (file holds {} page(s))",
                self.page_count
            )));
        }
        let offset = PAGE_ALIGN as u64 + id.0 * self.page_size as u64;
        buf.resize(self.page_size, 0);
        (&self.file).seek(SeekFrom::Start(offset))?;
        (&self.file).read_exact(buf).map_err(|e| match e.kind() {
            std::io::ErrorKind::UnexpectedEof => StoreError::truncated(format!("{id}")),
            _ => e.into(),
        })?;
        let page: &'b [u8] = buf;
        let payload_len = u32::from_le_bytes(page[0..4].try_into().expect("4 bytes")) as usize;
        if payload_len > self.page_size - PAGE_PREFIX_BYTES {
            return Err(StoreError::corrupt(format!(
                "{id} declares a {payload_len}-byte payload in a {}-byte page",
                self.page_size
            )));
        }
        let stored = u32::from_le_bytes(page[4..8].try_into().expect("4 bytes"));
        let payload = &page[PAGE_PREFIX_BYTES..PAGE_PREFIX_BYTES + payload_len];
        let computed = crc32(payload);
        if stored != computed {
            return Err(StoreError::ChecksumMismatch { stored, computed });
        }
        Ok(payload)
    }
}

/// A dropped handle takes its frames, and its sticky pages, out of the
/// cache: its file number is never drawn again, so nothing could hit them.
impl<N> Drop for BufferPool<N> {
    fn drop(&mut self) {
        let mut inner = self.cache.lock();
        inner.drop_file(self.file_no, |_| false);
        inner.sticky.retain(|key| key.0 != self.file_no);
    }
}

/// A pinned, decoded page. Dereferences to the value; dropping it releases
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

/// Tags drawn by this process so far.
static TAGS: AtomicU64 = AtomicU64::new(0);

/// `<pid>-<n>`: this process's id and a number no other derived file of
/// this process draws — every [`PageFile`]'s header tag comes from the
/// same counter. Sidecar file names carry one, so no two opens or builds
/// — in one process or in two — ever share a file.
pub fn sidecar_tag() -> String {
    let (pid, n) = draw_tag();
    format!("{pid}-{n}")
}

fn draw_tag() -> (u32, u64) {
    (std::process::id(), TAGS.fetch_add(1, Ordering::Relaxed))
}

/// Header bytes after the CRC: the writer's tag, pid `u32` · n `u64`.
const TAG_BYTES: usize = 12;

/// The magic bytes and format version that lead a kind of page file's
/// header.
#[derive(Debug, Clone, Copy)]
pub struct FileKind {
    /// The kind's magic bytes.
    pub magic: [u8; 8],
    /// The one format version this build writes and reads.
    pub version: u32,
}

/// A derived page file — a tree's node or trail file, an index's record
/// file — and its handle onto a [`PageCache`]. It is created new at its
/// path, written through one handle that then joins the cache, checked
/// at its first pin against the header block its writer wrote, and
/// removed when it drops (see the module docs).
#[derive(Debug)]
pub struct PageFile<N> {
    path: PathBuf,
    /// The header the writer wrote at offset 0; the rest of the header
    /// block is zero.
    header: Box<[u8]>,
    pool: BufferPool<N>,
    /// The first pin's check of the file, answered to every later pin.
    checked: OnceLock<StoreResult<()>>,
}

impl<N: Any + Send + Sync> PageFile<N> {
    /// Creates a file of `kind` at `path` — a file already there is
    /// unlinked first — holding a header with `geometry` and a fresh tag,
    /// then the `page_count` slots of `page_size` bytes that `write_pages`
    /// writes (and flushes), and joins it to `cache`. A file that cannot
    /// be written is removed.
    ///
    /// # Errors
    /// [`StoreError::Io`] on write failures, [`StoreError::Corrupt`] for a
    /// page size past `u32`, and whatever `write_pages` fails with.
    ///
    /// # Panics
    /// When the header does not fit one [`PAGE_ALIGN`] block.
    pub fn create(
        path: &Path,
        kind: FileKind,
        (page_size, page_count): (usize, u64),
        geometry: &[u8],
        cache: &Arc<PageCache>,
        write_pages: impl FnOnce(&mut File) -> StoreResult<()>,
    ) -> StoreResult<Self> {
        let size = u32::try_from(page_size)
            .map_err(|_| StoreError::corrupt(format!("a {page_size}-byte page")))?;
        let mut enc = Encoder::new();
        enc.raw(&kind.magic);
        enc.u32(kind.version);
        enc.u32(size);
        enc.u64(page_count);
        enc.raw(geometry);
        let mut header = enc.into_bytes();
        header.extend_from_slice(&crc32(&header).to_le_bytes());
        let (pid, n) = draw_tag();
        header.extend_from_slice(&pid.to_le_bytes());
        header.extend_from_slice(&n.to_le_bytes());
        let mut block = [0u8; PAGE_ALIGN];
        block[..header.len()].copy_from_slice(&header);
        let written = create_new(path).and_then(|mut file| {
            file.write_all(&block)?;
            write_pages(&mut file)?;
            Ok(file)
        });
        let file = written.inspect_err(|_| {
            let _ = std::fs::remove_file(path);
        })?;
        Ok(PageFile {
            path: path.to_path_buf(),
            header: header.into_boxed_slice(),
            pool: BufferPool::in_cache(cache, file, page_size, page_count),
            checked: OnceLock::new(),
        })
    }

    /// [`BufferPool::pin`], once the file is checked: the first pin
    /// compares the header block with the one the writer wrote and the
    /// file's size with its slots, and every pin answers with that check's
    /// error while it fails.
    ///
    /// # Errors
    /// The check's [`StoreError::BadMagic`],
    /// [`StoreError::UnsupportedVersion`], [`StoreError::ChecksumMismatch`]
    /// (a header that fails its CRC), [`StoreError::Truncated`] (a short
    /// file) or [`StoreError::Corrupt`] (a long file, or any other header
    /// byte the writer did not write), and whatever the pin fails with.
    pub fn pin<F>(&self, id: PageId, decode: F) -> StoreResult<(PagePin<'_, N>, bool)>
    where
        F: FnOnce(&[u8]) -> StoreResult<N>,
    {
        self.checked.get_or_init(|| self.check()).clone()?;
        self.pool.pin(id, decode)
    }
}

impl<N> PageFile<N> {
    /// Where the file lives.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The file's handle onto its cache (for its counters and `flush`).
    pub fn pool(&self) -> &BufferPool<N> {
        &self.pool
    }

    /// Bytes per page slot.
    pub fn page_size(&self) -> usize {
        self.pool.page_size
    }

    /// Page slots in the file.
    pub(crate) fn page_count(&self) -> u64 {
        self.pool.page_count
    }

    /// Compares the file's header block with the one its writer wrote, and
    /// its size with the slots it holds. Reads under the cache lock, as
    /// page reads do: they share the handle's file offset.
    fn check(&self) -> StoreResult<()> {
        let mut block = [0u8; PAGE_ALIGN];
        let len = {
            let _reads = self.pool.cache.lock();
            let mut file = &self.pool.file;
            file.seek(SeekFrom::Start(0))?;
            file.read_exact(&mut block).map_err(|e| match e.kind() {
                std::io::ErrorKind::UnexpectedEof => StoreError::truncated("page file header"),
                _ => e.into(),
            })?;
            file.metadata()?.len()
        };
        let h = &*self.header;
        let u32_at =
            |b: &[u8], at: usize| u32::from_le_bytes(b[at..at + 4].try_into().expect("4 bytes"));
        if block[..8] != h[..8] {
            return Err(StoreError::BadMagic);
        }
        let (got, supported) = (u32_at(&block, 8), u32_at(h, 8));
        if got != supported {
            return Err(StoreError::UnsupportedVersion { got, supported });
        }
        let crc_at = h.len() - TAG_BYTES - 4;
        let (stored, computed) = (u32_at(&block, crc_at), crc32(&block[..crc_at]));
        if stored != computed {
            return Err(StoreError::ChecksumMismatch { stored, computed });
        }
        let (written, pad) = block.split_at(h.len());
        if written != h || pad.iter().any(|&b| b != 0) {
            return Err(StoreError::corrupt(format!(
                "{} holds a header its writer did not write",
                self.path.display()
            )));
        }
        let want = PAGE_ALIGN as u64 + self.page_count() * self.page_size() as u64;
        if len == want {
            return Ok(());
        }
        let size = format!("{} is {len} byte(s), not {want}", self.path.display());
        Err(if len < want {
            StoreError::truncated(size)
        } else {
            StoreError::corrupt(size)
        })
    }
}

/// The file is its writer's to remove: nothing else reads it. The handle,
/// and with it the cached frames, goes right after.
impl<N> Drop for PageFile<N> {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// A new file at `path`, open for reading and writing: a file already
/// there is unlinked first, so no handle on it sees a byte change.
fn create_new(path: &Path) -> StoreResult<File> {
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e.into()),
        _ => {}
    }
    let file = OpenOptions::new()
        .read(true)
        .write(true)
        .create_new(true)
        .open(path)?;
    Ok(file)
}

/// Serializes one page slot: length prefix, CRC, payload, zero padding.
///
/// # Errors
/// [`StoreError::Corrupt`] when the payload cannot fit the page.
pub(crate) fn seal_page(payload: &[u8], page_size: usize) -> StoreResult<Vec<u8>> {
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
/// into the prefix — `seal_page` without a buffer of its own.
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

    /// A page file at `tag` holding `pages` in slots of `page_size`.
    fn file_over(tag: &str, pages: &[&[u8]], page_size: usize) -> File {
        let dir = std::env::temp_dir().join(format!("tsq-pool-test-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join(format!("{tag}.pages"));
        let mut f = File::create(&path).unwrap();
        f.write_all(&vec![0u8; crate::config::PAGE_ALIGN]).unwrap();
        for p in pages {
            f.write_all(&seal_page(p, page_size).unwrap()).unwrap();
        }
        f.flush().unwrap();
        File::open(&path).unwrap()
    }

    fn pool_over(pages: &[&[u8]], capacity: usize) -> BufferPool<String> {
        let tag = format!("p{}-{capacity}", pages.len());
        let page_size = crate::config::PAGE_ALIGN;
        let file = file_over(&tag, pages, page_size);
        BufferPool::new(file, page_size, pages.len() as u64, capacity)
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
    #[test]
    fn files_share_one_budget_and_one_lru() {
        // Two files in one four-page cache: eviction takes the LRU frame
        // across both, and the cache counts every handle's pins.
        let page_size = crate::config::PAGE_ALIGN;
        let cache = PageCache::new(4 * page_size as u64);
        let a: BufferPool<String> = BufferPool::in_cache(
            &cache,
            file_over("shared-a", &[b"a0", b"a1", b"a2"], page_size),
            page_size,
            3,
        );
        let b: BufferPool<String> = BufferPool::in_cache(
            &cache,
            file_over("shared-b", &[b"b0", b"b1", b"b2"], page_size),
            page_size,
            3,
        );
        for i in 0..3 {
            drop(a.pin(PageId(i), decode).unwrap());
        }
        drop(b.pin(PageId(0), decode).unwrap());
        assert_eq!(cache.resident_bytes(), 4 * page_size as u64);
        // A fifth page evicts a's page 0, the LRU frame of the cache.
        drop(b.pin(PageId(1), decode).unwrap());
        assert_eq!(cache.resident_bytes(), cache.budget());
        assert_eq!((a.resident_pages(), b.resident_pages()), (2, 2));
        let (pin, hit) = a.pin(PageId(0), decode).unwrap();
        assert!(!hit, "page 0 of a was the cache's LRU victim");
        assert_eq!(
            &*pin, "a0",
            "a page of one file never answers for another's"
        );
        drop(pin);
        assert_eq!(a.capacity_pages(), 4);
        let handles = a.hits() + a.misses() + b.hits() + b.misses();
        assert_eq!(cache.pins(), handles);
    }

    #[test]
    fn frames_are_charged_their_slot_size() {
        // A cache of three small slots: one frame of a double-size file
        // takes two of them.
        let small = crate::config::PAGE_ALIGN;
        let cache = PageCache::new(3 * small as u64);
        let a: BufferPool<String> = BufferPool::in_cache(
            &cache,
            file_over("slots-a", &[b"a0", b"a1", b"a2"], small),
            small,
            3,
        );
        let b: BufferPool<String> = BufferPool::in_cache(
            &cache,
            file_over("slots-b", &[b"b0"], 2 * small),
            2 * small,
            1,
        );
        assert_eq!((a.capacity_pages(), b.capacity_pages()), (3, 1));
        for i in 0..3 {
            drop(a.pin(PageId(i), decode).unwrap());
        }
        drop(b.pin(PageId(0), decode).unwrap());
        assert_eq!(cache.resident_bytes(), 3 * small as u64);
        assert_eq!((a.resident_pages(), b.resident_pages()), (1, 1));
        let (_, hit) = a.pin(PageId(2), decode).unwrap();
        assert!(hit, "the newest small frame stayed");
    }

    #[test]
    fn a_dropped_handle_takes_its_frames_and_its_file_number_with_it() {
        let page_size = crate::config::PAGE_ALIGN;
        let cache = PageCache::new(u64::MAX);
        let pages: [&[u8]; 2] = [b"x0", b"x1"];
        let a: BufferPool<String> =
            BufferPool::in_cache(&cache, file_over("drop-a", &pages, page_size), page_size, 2);
        a.mark_sticky(PageId(1));
        drop(a.pin(PageId(0), decode).unwrap());
        drop(a.pin(PageId(1), decode).unwrap());
        let b: BufferPool<String> =
            BufferPool::in_cache(&cache, file_over("drop-b", &pages, page_size), page_size, 2);
        drop(b.pin(PageId(0), decode).unwrap());
        drop(a);
        assert_eq!(cache.resident_bytes(), page_size as u64);
        // A handle over the same file again draws a new number: cold.
        let again: BufferPool<String> =
            BufferPool::in_cache(&cache, file_over("drop-a", &pages, page_size), page_size, 2);
        let (_, hit) = again.pin(PageId(0), decode).unwrap();
        assert!(!hit, "no frame of a dropped handle answers a new one");
        drop(b);
        assert_eq!(again.resident_pages(), 1);
        assert_eq!(cache.resident_bytes(), page_size as u64);
    }

    impl CacheInner {
        /// Panics unless the segments, the protected list's links and the
        /// byte counts agree with the frames.
        fn check(&self) {
            let mut listed = Vec::new();
            let mut at = self.oldest;
            while let Some(key) = at {
                let frame = &self.frames[&key];
                assert!(frame.protected);
                assert_eq!(frame.older, listed.last().copied());
                listed.push(key);
                at = frame.newer;
            }
            assert_eq!(self.newest, listed.last().copied());
            let stamps: Vec<u64> = listed.iter().map(|key| self.frames[key].stamp).collect();
            assert!(stamps.windows(2).all(|w| w[0] < w[1]), "stamp order");
            for (&stamp, key) in &self.probation {
                let frame = &self.frames[key];
                assert!(!frame.protected && frame.stamp == stamp);
            }
            assert_eq!(listed.len() + self.probation.len(), self.frames.len());
            let protected = self.frames.values().filter(|f| f.protected);
            let resident: u64 = self.frames.values().map(|f| f.bytes).sum();
            assert_eq!(self.resident, resident);
            assert_eq!(
                self.protected_bytes,
                protected.map(|f| f.bytes).sum::<u64>()
            );
        }
    }

    #[test]
    fn segments_stay_consistent_under_churn() {
        // Two files of two slot sizes in a five-slot cache: pins held
        // across others, flushes and a handle dropped and joined again,
        // with the segments checked against the frames after every step.
        let small = crate::config::PAGE_ALIGN;
        let cache = PageCache::new(5 * small as u64);
        let pages: Vec<Vec<u8>> = (0..12u8).map(|i| vec![b'a' + i]).collect();
        let refs: Vec<&[u8]> = pages.iter().map(Vec::as_slice).collect();
        let join = |tag: &str, size: usize| -> BufferPool<String> {
            let file = file_over(tag, &refs, size);
            BufferPool::in_cache(&cache, file, size, refs.len() as u64)
        };
        let mut handles = [join("churn-a", small), join("churn-b", 2 * small)];
        handles[0].mark_sticky(PageId(11));
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        let mut next = |n: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % n
        };
        for step in 0..3000 {
            let h = next(2) as usize;
            match next(100) {
                0 => {
                    handles[h].flush();
                }
                1 => {
                    let tag = format!("churn-{step}");
                    handles[h] = join(&tag, (h + 1) * small);
                }
                _ => {
                    // Skewed toward low pages, so some frames are re-hit.
                    let low = next(12) + 1;
                    let page = PageId(next(low));
                    let (held, _) = handles[h].pin(page, decode).unwrap();
                    if next(4) == 0 {
                        let other = PageId(next(12));
                        drop(handles[1 - h].pin(other, decode).unwrap());
                    }
                    drop(held);
                }
            }
            cache.lock().check();
            assert!(cache.resident_bytes() <= cache.budget(), "step {step}");
        }
        let pins: u64 = handles.iter().map(|h| h.hits() + h.misses()).sum();
        assert!(pins <= cache.pins());
    }
}
