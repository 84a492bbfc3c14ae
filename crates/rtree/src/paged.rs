//! A file-backed R\*-tree: one node per page, fetched through a
//! [`BufferPool`] handle onto a [`PageCache`] — the only form a tree is
//! persisted in.
//!
//! A [`PagedTree`] is created *from* an in-memory [`RStarTree`] (its
//! structure is copied node-for-node, child pointers becoming
//! [`PageId`]s) and answers the same queries byte-identically, including
//! every traversal counter, because it *is* the same code: `&PagedTree`
//! is a [`NodeStore`], and the range visitor and kNN loop in
//! `search`/`knn` are written once over that trait. What this store adds
//! are the *measured* `pool_hits`/`pool_misses` counters and typed errors
//! for pages that cannot be read.
//!
//! Pins follow the traversal's guards: the range visitor holds a node's
//! pin while it descends below it (an ancestor chain of at most
//! tree-height pages), the best-first kNN loop drops each pin before it
//! pops the next heap entry (one page at a time). The cache soft-overflows
//! rather than deadlocks when every frame is pinned, so a one-page cache
//! still answers.
//!
//! Payloads are fixed to `u64` (the id-shaped types every index in this
//! workspace stores); `create_from` bridges from the generic item type
//! with a caller-supplied conversion.

use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use tsq_store::{crc32, Decoder, Encoder, StoreError, StoreResult};

use crate::config::{RTreeConfig, MAX_PAGE_BYTES, PAGE_ALIGN, PAGE_HEADER_BYTES};
use crate::node::{Kids, Node, NodeStore, Slot};
use crate::page::{seal_page, BufferPool, PageCache, PageId, PagePin};
use crate::persist::read_bounds;
use crate::rect::RectView;
use crate::stats::SearchStats;
use crate::tree::RStarTree;

/// Page-file magic bytes.
const MAGIC: &[u8; 8] = b"TSQPAGE\0";

/// Page-file format version.
const VERSION: u32 = 1;

/// Levels are bounded to keep recursion depth trivially safe: a tree of
/// height 64 with fan-out ≥ 2 would hold more items than a `u64` counts.
const MAX_LEVEL: u32 = 64;

/// Fixed header length: magic 8 · version 4 · page_size 4 · page_count 8
/// · root 8 · config 12 · len 8 · root_level 4 · dims flag 1 · dims 8 ·
/// CRC-32 4.
const HEADER_BYTES: usize = 69;

/// Most pages a page file may declare: the header check refuses more, so
/// the file size a header implies is computed without overflow.
const MAX_PAGE_COUNT: u64 = 1 << 40;
const _: () = assert!(MAX_PAGE_COUNT * (MAX_PAGE_BYTES as u64) < u64::MAX - PAGE_ALIGN as u64);

/// One decoded page: a node whose children are page references, in the
/// in-memory node's layout — one coordinate slab of `2·dims` bounds per
/// entry, in entry order, beside the words under them.
#[derive(Debug)]
pub struct PagedNode {
    /// Distance from the leaves (0 = leaf).
    level: u32,
    /// Every entry's rectangle, `lo` then `hi`, back to back.
    coords: Vec<f64>,
    /// Under each rectangle: the payload at level 0, the child's page id
    /// above.
    words: Vec<u64>,
}

/// A read-only R\*-tree stored one-node-per-page in a file, fetched
/// through a pin-counted [`BufferPool`] handle onto a shared cache.
#[derive(Debug)]
pub struct PagedTree {
    pool: BufferPool<PagedNode>,
    path: PathBuf,
    root: PageId,
    root_level: u32,
    config: RTreeConfig,
    len: usize,
    dims: Option<usize>,
    page_size: usize,
    page_count: u64,
}

/// Page size for a tree of the given fan-out and dimensionality: the
/// worst-case node payload rounded up to [`PAGE_ALIGN`].
///
/// # Errors
/// [`StoreError::Corrupt`] when a full node cannot fit [`MAX_PAGE_BYTES`].
pub fn page_size_for(config: &RTreeConfig, dims: usize) -> StoreResult<usize> {
    let entry_bytes = dims
        .checked_mul(16)
        .and_then(|r| r.checked_add(8))
        .ok_or_else(|| StoreError::corrupt("page entry size overflows"))?;
    let payload = config
        .max_entries
        .checked_mul(entry_bytes)
        .and_then(|p| p.checked_add(PAGE_HEADER_BYTES))
        .ok_or_else(|| StoreError::corrupt("page size overflows"))?;
    let size = payload.div_ceil(PAGE_ALIGN) * PAGE_ALIGN;
    if size > MAX_PAGE_BYTES {
        return Err(StoreError::corrupt(format!(
            "a node of {} {dims}-dimensional entries needs a {size}-byte page, above the {MAX_PAGE_BYTES}-byte cap",
            config.max_entries
        )));
    }
    Ok(size)
}

impl<T> RStarTree<T> {
    /// Writes this tree as a page file at `path` (one node per page,
    /// children before parents, the root last), converting each item to
    /// its stored `u64` with `to_u64`.
    ///
    /// # Errors
    /// [`StoreError::Io`] on write failures, [`StoreError::Corrupt`] when
    /// the configuration cannot fit a page.
    pub fn write_paged<F: FnMut(&T) -> u64>(&self, path: &Path, to_u64: F) -> StoreResult<()> {
        PagedTree::create_from(path, self, to_u64)
    }

    /// Bytes per page of the file [`RStarTree::write_paged`] writes for
    /// this tree (an empty tree has no dimensionality yet; its one empty
    /// page is sized for one dimension).
    ///
    /// # Errors
    /// [`StoreError::Corrupt`] when the configuration cannot fit a page.
    pub fn paged_page_size(&self) -> StoreResult<usize> {
        page_size_for(self.config(), self.dims().unwrap_or(1))
    }
}

impl PagedTree {
    /// Creates a page file at `path` mirroring `tree` node-for-node.
    ///
    /// # Errors
    /// [`StoreError::Io`] on write failures, [`StoreError::Corrupt`] when
    /// the configuration cannot fit a page.
    pub fn create_from<T, F: FnMut(&T) -> u64>(
        path: &Path,
        tree: &RStarTree<T>,
        mut to_u64: F,
    ) -> StoreResult<()> {
        let config = *tree.config();
        let dims = tree.dims();
        let page_size = tree.paged_page_size()?;
        let file = File::create(path)?;
        let mut w = BufWriter::new(file);
        // Pages go first conceptually, but the header block leads the
        // file; its page_count/root fields are known up front because the
        // node count is just a walk.
        let page_count = count_nodes(&tree.root);
        let root = PageId(page_count - 1);
        let header = encode_header(
            page_size,
            page_count,
            root,
            &config,
            tree.len(),
            tree.root.level,
            dims,
        );
        w.write_all(&header)?;
        w.write_all(&vec![0u8; PAGE_ALIGN - HEADER_BYTES])?;
        let mut next = 0u64;
        write_subtree(&mut w, &tree.root, &mut to_u64, &mut next, page_size)?;
        debug_assert_eq!(next, page_count);
        w.flush()?;
        Ok(())
    }

    /// Opens a page file whose nodes join `cache`, each charged one page.
    ///
    /// # Errors
    /// Typed [`StoreError`]s for I/O failures, bad magic/version, header
    /// corruption, or geometry that disagrees with the file's size.
    pub fn open(path: &Path, cache: &Arc<PageCache>) -> StoreResult<Self> {
        let mut file = File::open(path)?;
        let mut header = [0u8; HEADER_BYTES];
        file.read_exact(&mut header)
            .map_err(|_| StoreError::truncated("page file header"))?;
        let parsed = decode_header(&header)?;
        let expected_len = PAGE_ALIGN as u64 + parsed.page_count * parsed.page_size as u64;
        let actual_len = file.metadata()?.len();
        if actual_len != expected_len {
            return Err(StoreError::corrupt(format!(
                "page file is {actual_len} byte(s), header implies {expected_len}"
            )));
        }
        let pool = BufferPool::in_cache(cache, file, parsed.page_size, parsed.page_count);
        // Every traversal enters through the root: keep it exempt from
        // eviction so a warm pool never re-faults level 0 of the search.
        pool.mark_sticky(parsed.root);
        Ok(PagedTree {
            pool,
            path: path.to_path_buf(),
            root: parsed.root,
            root_level: parsed.root_level,
            config: parsed.config,
            len: parsed.len,
            dims: parsed.dims,
            page_size: parsed.page_size,
            page_count: parsed.page_count,
        })
    }

    /// Number of stored items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the tree stores nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dimensionality of the stored rectangles (`None` when empty).
    pub fn dims(&self) -> Option<usize> {
        self.dims
    }

    /// The tree's tuning parameters.
    pub fn config(&self) -> &RTreeConfig {
        &self.config
    }

    /// Height in levels (1 for a root-only tree).
    pub fn height(&self) -> u32 {
        self.root_level + 1
    }

    /// The page file backing this tree.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes per page.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Pages in the file (= nodes in the tree).
    pub fn page_count(&self) -> u64 {
        self.page_count
    }

    /// The tree's handle onto its cache (for its counters and `flush`).
    pub fn pool(&self) -> &BufferPool<PagedNode> {
        &self.pool
    }

    /// Pins the page holding one node, recording the hit/miss in `stats`
    /// and verifying the node sits at `expected_level` (which bounds
    /// recursion on hostile files: levels strictly decrease toward 0) and
    /// is populated (nothing is fetched from an empty tree).
    fn fetch(
        &self,
        id: PageId,
        expected_level: u32,
        stats: &mut SearchStats,
    ) -> StoreResult<PagePin<'_, PagedNode>> {
        let config = &self.config;
        let dims = self.dims.unwrap_or(0);
        let page_count = self.page_count;
        let (pin, hit) = self
            .pool
            .pin(id, |payload| decode_node(payload, config, dims, page_count))?;
        if hit {
            stats.pool_hits += 1;
        } else {
            stats.pool_misses += 1;
        }
        if pin.level != expected_level {
            return Err(StoreError::corrupt(format!(
                "{id} holds a level-{} node where level {expected_level} was expected",
                pin.level
            )));
        }
        if pin.words.is_empty() {
            return Err(StoreError::corrupt(format!(
                "{id} holds an empty node in a populated page file"
            )));
        }
        Ok(pin)
    }
}

/// The paged node store: a node reference is a page id plus the level the
/// node must sit at, a fetch is a pin in the buffer pool (hit or miss
/// counted in the query's stats), and the guard is the pin — the page
/// stays resident exactly as long as the traversal holds on to it.
impl<'a> NodeStore for &'a PagedTree {
    type Ref = (PageId, u32);
    type Item = u64;
    type Guard = PagePin<'a, PagedNode>;
    type Error = StoreError;

    fn len(self) -> usize {
        self.len
    }

    fn root(self) -> Self::Ref {
        (self.root, self.root_level)
    }

    fn fetch(self, (page, level): Self::Ref, stats: &mut SearchStats) -> StoreResult<Self::Guard> {
        PagedTree::fetch(self, page, level, stats)
    }

    fn level(node: &Self::Guard) -> u32 {
        node.level
    }

    fn max_entries(self) -> usize {
        self.config.max_entries
    }

    fn height(self) -> u32 {
        PagedTree::height(self)
    }

    fn entries(node: &Self::Guard) -> impl Iterator<Item = Slot<'_, Self::Item, Self::Ref>> {
        let level = node.level;
        // A fetched node is never empty, so the width divides out.
        let width = node.coords.len() / node.words.len();
        let rects = node.coords.chunks_exact(width).map(RectView::new);
        rects.zip(&node.words).map(move |(rect, &word)| {
            if level == 0 {
                Slot::Item(rect, word)
            } else {
                Slot::Child(rect, (PageId(word), level - 1))
            }
        })
    }
}

fn count_nodes<T>(node: &Node<T>) -> u64 {
    match &node.kids {
        Kids::Items(_) => 1,
        Kids::Nodes(children) => 1 + children.iter().map(count_nodes).sum::<u64>(),
    }
}

/// Writes `node`'s subtree post-order (children first), assigning page
/// ids sequentially, and returns the id `node` landed on. Post-order
/// means the file is written front to back in one pass while every
/// parent already knows its children's ids.
fn write_subtree<T, F: FnMut(&T) -> u64>(
    w: &mut BufWriter<File>,
    node: &Node<T>,
    to_u64: &mut F,
    next: &mut u64,
    page_size: usize,
) -> StoreResult<PageId> {
    let words: Vec<u64> = match &node.kids {
        Kids::Items(items) => items.iter().map(&mut *to_u64).collect(),
        Kids::Nodes(children) => children
            .iter()
            .map(|child| write_subtree(w, child, to_u64, next, page_size).map(|id| id.0))
            .collect::<StoreResult<_>>()?,
    };
    let mut enc = Encoder::new();
    enc.u32(node.level);
    enc.u32(words.len() as u32);
    for (rect, word) in node.rects().zip(words) {
        enc.f64_slice(rect.bounds());
        enc.u64(word);
    }
    let payload = enc.into_bytes();
    w.write_all(&seal_page(&payload, page_size)?)?;
    let id = PageId(*next);
    *next += 1;
    Ok(id)
}

/// Decodes one node payload, validating entry counts, rectangle bounds,
/// and child page references — corrupt pages become typed errors.
fn decode_node(
    payload: &[u8],
    config: &RTreeConfig,
    dims: usize,
    page_count: u64,
) -> StoreResult<PagedNode> {
    let mut dec = Decoder::new(payload);
    let level = dec.u32("node level")?;
    if level >= MAX_LEVEL {
        return Err(StoreError::corrupt(format!(
            "node level {level} exceeds the maximum tree height {MAX_LEVEL}"
        )));
    }
    let count = dec.u32("node entry count")? as usize;
    if count > config.max_entries {
        return Err(StoreError::corrupt(format!(
            "node with {count} entries exceeds max_entries {}",
            config.max_entries
        )));
    }
    if count > 0 && dims == 0 {
        return Err(StoreError::corrupt(
            "populated node in a zero-dimensional page file",
        ));
    }
    let mut coords = Vec::with_capacity(count * 2 * dims);
    let mut words = Vec::with_capacity(count);
    for _ in 0..count {
        read_bounds(&mut dec, dims, &mut coords)?;
        let word = dec.u64("entry payload")?;
        if level > 0 && word >= page_count {
            return Err(StoreError::corrupt(format!(
                "child reference to page {word} of {page_count}"
            )));
        }
        words.push(word);
    }
    dec.finish()?;
    Ok(PagedNode {
        level,
        coords,
        words,
    })
}

struct ParsedHeader {
    page_size: usize,
    page_count: u64,
    root: PageId,
    config: RTreeConfig,
    len: usize,
    root_level: u32,
    dims: Option<usize>,
}

#[allow(clippy::too_many_arguments)]
fn encode_header(
    page_size: usize,
    page_count: u64,
    root: PageId,
    config: &RTreeConfig,
    len: usize,
    root_level: u32,
    dims: Option<usize>,
) -> [u8; HEADER_BYTES] {
    let mut h = [0u8; HEADER_BYTES];
    h[0..8].copy_from_slice(MAGIC);
    h[8..12].copy_from_slice(&VERSION.to_le_bytes());
    h[12..16].copy_from_slice(&(page_size as u32).to_le_bytes());
    h[16..24].copy_from_slice(&page_count.to_le_bytes());
    h[24..32].copy_from_slice(&root.0.to_le_bytes());
    h[32..36].copy_from_slice(&(config.max_entries as u32).to_le_bytes());
    h[36..40].copy_from_slice(&(config.min_entries as u32).to_le_bytes());
    h[40..44].copy_from_slice(&(config.reinsert_count as u32).to_le_bytes());
    h[44..52].copy_from_slice(&(len as u64).to_le_bytes());
    h[52..56].copy_from_slice(&root_level.to_le_bytes());
    h[56] = dims.is_some() as u8;
    h[57..65].copy_from_slice(&(dims.unwrap_or(0) as u64).to_le_bytes());
    let crc = crc32(&h[..HEADER_BYTES - 4]);
    h[HEADER_BYTES - 4..].copy_from_slice(&crc.to_le_bytes());
    h
}

fn decode_header(h: &[u8; HEADER_BYTES]) -> StoreResult<ParsedHeader> {
    if &h[0..8] != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let u32_at = |o: usize| u32::from_le_bytes(h[o..o + 4].try_into().expect("4 bytes"));
    let u64_at = |o: usize| u64::from_le_bytes(h[o..o + 8].try_into().expect("8 bytes"));
    let version = u32_at(8);
    if version != VERSION {
        return Err(StoreError::UnsupportedVersion {
            got: version,
            supported: VERSION,
        });
    }
    let stored = u32_at(HEADER_BYTES - 4);
    let computed = crc32(&h[..HEADER_BYTES - 4]);
    if stored != computed {
        return Err(StoreError::ChecksumMismatch { stored, computed });
    }
    let page_size = u32_at(12) as usize;
    if !(PAGE_ALIGN..=MAX_PAGE_BYTES).contains(&page_size) || page_size % PAGE_ALIGN != 0 {
        return Err(StoreError::corrupt(format!(
            "page size {page_size} outside {PAGE_ALIGN}..={MAX_PAGE_BYTES} or unaligned"
        )));
    }
    let page_count = u64_at(16);
    if page_count == 0 {
        return Err(StoreError::corrupt("page file with zero pages"));
    }
    if page_count > MAX_PAGE_COUNT {
        return Err(StoreError::corrupt(format!(
            "page count {page_count} exceeds what a page file can address"
        )));
    }
    let root = PageId(u64_at(24));
    if root.0 >= page_count {
        return Err(StoreError::corrupt(format!(
            "root {} out of range (file holds {page_count} page(s))",
            root.0
        )));
    }
    // The config codec's bounds (fan-out within page geometry, minimum
    // fill, reinsert fraction) are re-checked through the shared reader.
    let mut cfg_enc = Encoder::new();
    cfg_enc.u32(u32_at(32));
    cfg_enc.u32(u32_at(36));
    cfg_enc.u32(u32_at(40));
    let cfg_bytes = cfg_enc.into_bytes();
    let mut cfg_dec = Decoder::new(&cfg_bytes);
    let config = crate::persist::read_config(&mut cfg_dec)?;
    let len = usize::try_from(u64_at(44))
        .map_err(|_| StoreError::corrupt("tree length exceeds usize"))?;
    let root_level = u32_at(52);
    if root_level >= MAX_LEVEL {
        return Err(StoreError::corrupt(format!(
            "root level {root_level} exceeds the maximum tree height {MAX_LEVEL}"
        )));
    }
    let dims = match h[56] {
        0 => None,
        1 => Some(
            usize::try_from(u64_at(57))
                .map_err(|_| StoreError::corrupt("dimensionality exceeds usize"))?,
        ),
        other => {
            return Err(StoreError::corrupt(format!("dims flag byte {other}")));
        }
    };
    if len == 0 && (root_level != 0 || dims.is_some()) {
        return Err(StoreError::corrupt(
            "empty tree must have a level-0 root and no dimensionality",
        ));
    }
    if len > 0 && dims.is_none() {
        return Err(StoreError::corrupt("non-empty tree without dimensionality"));
    }
    // A consistent page must be able to hold a full node.
    if page_size_for(&config, dims.unwrap_or(1))? > page_size {
        return Err(StoreError::corrupt(format!(
            "page size {page_size} cannot hold a node of {} {}-dimensional entries",
            config.max_entries,
            dims.unwrap_or(1)
        )));
    }
    Ok(ParsedHeader {
        page_size,
        page_count,
        root,
        config,
        len,
        root_level,
        dims,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tsq-paged-test-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        dir.join(name)
    }

    /// `tree`'s page file at `path`, behind a cache of `pages` pages.
    fn open(path: &Path, pages: u64) -> StoreResult<PagedTree> {
        PagedTree::open(path, &PageCache::new(pages * PAGE_ALIGN as u64))
    }

    fn sample_tree(n: usize, fanout: usize) -> RStarTree<usize> {
        let mut t = RStarTree::new(RTreeConfig::with_max_entries(fanout));
        for i in 0..n {
            let x = (i % 17) as f64;
            let y = (i / 17) as f64;
            t.insert_point(&[x, y, (i % 5) as f64], i);
        }
        t
    }

    #[test]
    fn page_size_rounds_up_to_alignment() {
        let cfg = RTreeConfig::default();
        let size = page_size_for(&cfg, 6).unwrap();
        assert_eq!(size % PAGE_ALIGN, 0);
        assert!(size >= 32 * (6 * 16 + 8));
        // A fan-out too large for any page is a typed error.
        let huge = RTreeConfig {
            max_entries: crate::config::MAX_FANOUT,
            min_entries: 2,
            reinsert_count: 0,
        };
        assert!(matches!(
            page_size_for(&huge, 64),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn header_corruption_is_typed() {
        let t = sample_tree(50, 8);
        let path = temp_path("hdr.pages");
        PagedTree::create_from(&path, &t, |&i| i as u64).unwrap();
        let good = std::fs::read(&path).unwrap();

        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xff;
        let p = temp_path("hdr-magic.pages");
        std::fs::write(&p, &bad).unwrap();
        assert!(matches!(
            open(&p, 4),
            Err(StoreError::BadMagic | StoreError::ChecksumMismatch { .. })
        ));

        // Future version.
        let mut bad = good.clone();
        bad[8..12].copy_from_slice(&99u32.to_le_bytes());
        let p = temp_path("hdr-ver.pages");
        std::fs::write(&p, &bad).unwrap();
        assert!(matches!(
            open(&p, 4),
            Err(StoreError::UnsupportedVersion { got: 99, .. })
        ));

        // A past version, resealed: every version but this one is refused.
        let mut bad = good.clone();
        bad[8..12].copy_from_slice(&0u32.to_le_bytes());
        let crc = crc32(&bad[..HEADER_BYTES - 4]);
        bad[HEADER_BYTES - 4..HEADER_BYTES].copy_from_slice(&crc.to_le_bytes());
        let p = temp_path("hdr-ver0.pages");
        std::fs::write(&p, &bad).unwrap();
        assert!(matches!(
            open(&p, 4),
            Err(StoreError::UnsupportedVersion { got: 0, .. })
        ));

        // Flipped header byte: checksum mismatch.
        let mut bad = good.clone();
        bad[44] ^= 0x01;
        let p = temp_path("hdr-flip.pages");
        std::fs::write(&p, &bad).unwrap();
        assert!(matches!(
            open(&p, 4),
            Err(StoreError::ChecksumMismatch { .. })
        ));

        // Truncated file: size disagrees with the header.
        let p = temp_path("hdr-trunc.pages");
        std::fs::write(&p, &good[..good.len() - 100]).unwrap();
        assert!(matches!(open(&p, 4), Err(StoreError::Corrupt { .. })));

        // A well-sealed header declaring more pages of the largest size
        // than a file can hold: refused, the implied size never overflows.
        for pages in [MAX_PAGE_COUNT, MAX_PAGE_COUNT + 1, 1 << 45, u64::MAX] {
            let mut bad = good.clone();
            let header = encode_header(
                MAX_PAGE_BYTES,
                pages,
                PageId(0),
                t.config(),
                t.len(),
                t.height() - 1,
                t.dims(),
            );
            bad[..HEADER_BYTES].copy_from_slice(&header);
            let p = temp_path("hdr-pages.pages");
            std::fs::write(&p, &bad).unwrap();
            assert!(
                matches!(open(&p, 4), Err(StoreError::Corrupt { .. })),
                "{pages} pages"
            );
        }
    }

    #[test]
    fn page_corruption_surfaces_at_fetch_time() {
        let t = sample_tree(120, 8);
        let path = temp_path("pagecorrupt.pages");
        PagedTree::create_from(&path, &t, |&i| i as u64).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte inside the first page's payload.
        let off = PAGE_ALIGN + crate::page::PAGE_PREFIX_BYTES + 3;
        bytes[off] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let paged = open(&path, 8).unwrap();
        let err = crate::search::search_with(&paged, |_| true, |_, _| {})
            .expect_err("a traversal must not read past a corrupt page");
        assert!(matches!(
            err,
            StoreError::ChecksumMismatch { .. } | StoreError::Corrupt { .. }
        ));
    }
}
