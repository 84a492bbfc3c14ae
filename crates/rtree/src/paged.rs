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
//! The file is a [`PageFile`]: the tree writes it, reads it through the
//! handle it wrote it with, and removes it when it drops. Its header
//! holds the tree's geometry (`root u64 · config 12 · len u64 ·
//! root_level u32 · dims flag u8 · dims u64` after the page size and
//! count) for whoever inspects the file; nothing decodes it — the first
//! pin checks the file against it byte for byte.
//!
//! Pins follow the traversal's guards: the range visitor holds a node's
//! pin while it descends below it (an ancestor chain of at most
//! tree-height pages), the best-first kNN loop drops each pin before it
//! pops the next heap entry (one page at a time). The cache soft-overflows
//! rather than deadlocks when every frame is pinned, so a one-page cache
//! still answers.
//!
//! Payloads are fixed to `u64` (the id-shaped types every index in this
//! workspace stores); [`PagedTree::create`] bridges from the generic item
//! type with a caller-supplied conversion.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Arc;

use tsq_store::{Decoder, Encoder, StoreError, StoreResult};

use crate::config::{RTreeConfig, MAX_PAGE_BYTES, PAGE_ALIGN, PAGE_HEADER_BYTES};
use crate::node::{Kids, Node, NodeStore, Slot};
use crate::page::{seal_page, BufferPool, FileKind, PageCache, PageFile, PageId, PagePin};
use crate::persist::{read_bounds, write_bounds, write_config};
use crate::rect::RectView;
use crate::stats::SearchStats;
use crate::tree::RStarTree;

/// Node and trail files. A page file is derived when a snapshot is
/// opened, so no snapshot holds one, and its version can change freely.
const KIND: FileKind = FileKind {
    magic: *b"TSQPAGE\0",
    version: 3,
};

/// Levels are bounded to keep recursion depth trivially safe: a tree of
/// height 64 with fan-out ≥ 2 would hold more items than a `u64` counts.
const MAX_LEVEL: u32 = 64;

/// One decoded page: a node whose children are page references, in the
/// in-memory node's layout — one coordinate slab of `2·dims` stored `f32`
/// bounds per entry, in entry order, beside the words under them.
#[derive(Debug)]
pub struct PagedNode {
    /// Distance from the leaves (0 = leaf).
    level: u32,
    /// Every entry's rectangle, `lo` then `hi`, back to back.
    coords: Vec<f32>,
    /// Under each rectangle: the payload at level 0, the child's page id
    /// above.
    words: Vec<u64>,
}

/// A read-only R\*-tree stored one-node-per-page in a file of its own,
/// fetched through a pin-counted [`BufferPool`] handle onto a shared
/// cache.
#[derive(Debug)]
pub struct PagedTree {
    file: PageFile<PagedNode>,
    root: PageId,
    root_level: u32,
    config: RTreeConfig,
    len: usize,
    dims: Option<usize>,
}

/// Page size for a tree of the given fan-out and dimensionality: the
/// worst-case node payload rounded up to [`PAGE_ALIGN`].
///
/// # Errors
/// [`StoreError::Corrupt`] when a full node cannot fit [`MAX_PAGE_BYTES`].
pub(crate) fn page_size_for(config: &RTreeConfig, dims: usize) -> StoreResult<usize> {
    let entry_bytes = dims
        .checked_mul(8)
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
    /// Bytes per page of the file [`PagedTree::create`] writes for this
    /// tree (an empty tree has no dimensionality yet; its one empty
    /// page is sized for one dimension).
    ///
    /// # Errors
    /// [`StoreError::Corrupt`] when the configuration cannot fit a page.
    pub fn paged_page_size(&self) -> StoreResult<usize> {
        page_size_for(self.config(), self.dims().unwrap_or(1))
    }
}

impl PagedTree {
    /// Writes `tree` node-for-node to a new page file at `path` (one node
    /// per page, children before parents, the root last), converting each
    /// item to its stored `u64` with `to_u64`, and joins it to `cache`:
    /// a [`PageFile`], so a file already at `path` is unlinked, never
    /// written into, and the tree removes the file when it drops.
    ///
    /// # Errors
    /// [`StoreError::Io`] on write failures, [`StoreError::Corrupt`] when
    /// the configuration cannot fit a page.
    pub fn create<T, F: FnMut(&T) -> u64>(
        path: &Path,
        tree: &RStarTree<T>,
        mut to_u64: F,
        cache: &Arc<PageCache>,
    ) -> StoreResult<Self> {
        let page_size = tree.paged_page_size()?;
        // The root is the last page written: the node count is a walk.
        let page_count = count_nodes(&tree.root);
        let root = PageId(page_count - 1);
        let (config, len, root_level, dims) =
            (*tree.config(), tree.len(), tree.root.level, tree.dims());
        let mut geometry = Encoder::new();
        geometry.u64(root.0);
        write_config(&mut geometry, &config);
        geometry.usize(len);
        geometry.u32(root_level);
        geometry.bool(dims.is_some());
        geometry.usize(dims.unwrap_or(0));
        let write_pages = |file: &mut File| {
            let mut w = BufWriter::new(file);
            let mut next = 0u64;
            write_subtree(&mut w, &tree.root, &mut to_u64, &mut next, page_size)?;
            debug_assert_eq!(next, page_count);
            Ok(w.flush()?)
        };
        let geometry = geometry.into_bytes();
        let slots = (page_size, page_count);
        let file = PageFile::create(path, KIND, slots, &geometry, cache, write_pages)?;
        // Every traversal enters through the root: keep it exempt from
        // eviction so a warm pool never re-faults level 0 of the search.
        file.pool().mark_sticky(root);
        Ok(PagedTree {
            file,
            root,
            root_level,
            config,
            len,
            dims,
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

    /// Height in levels (1 for a root-only tree).
    pub(crate) fn height(&self) -> u32 {
        self.root_level + 1
    }

    /// The page file backing this tree.
    pub fn path(&self) -> &Path {
        self.file.path()
    }

    /// Bytes per page.
    pub fn page_size(&self) -> usize {
        self.file.page_size()
    }

    /// Pages in the file (= nodes in the tree).
    pub fn page_count(&self) -> u64 {
        self.file.page_count()
    }

    /// The tree's handle onto its cache (for its counters and `flush`).
    pub fn pool(&self) -> &BufferPool<PagedNode> {
        self.file.pool()
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
        let page_count = self.page_count();
        let (pin, hit) = self
            .file
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
    w: &mut impl Write,
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
        write_bounds(&mut enc, rect.bounds());
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

#[cfg(test)]
mod tests {
    use super::*;
    use tsq_store::crc32;

    /// A node file's header up to its tag: magic, version, page size and
    /// count, the tree's geometry, the CRC-32.
    const HEADER_BYTES: usize = 69;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tsq-paged-test-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        dir.join(name)
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

    /// What a full traversal of `tree`'s page file, behind a cache of 8
    /// pages, fails with once `damage` rewrote the live file in place.
    fn damaged(
        tree: &RStarTree<usize>,
        name: &str,
        damage: impl FnOnce(&mut Vec<u8>),
    ) -> StoreError {
        let path = temp_path(name);
        let cache = PageCache::new(8 * PAGE_ALIGN as u64);
        let paged = PagedTree::create(&path, tree, |&i| i as u64, &cache).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        damage(&mut bytes);
        std::fs::write(&path, &bytes).unwrap();
        crate::search::search_with(&paged, |_| true, |_, _| {})
            .expect_err("a traversal must not read a damaged file")
    }

    /// Re-seals a node file header's CRC over its edited bytes.
    fn reseal(bytes: &mut [u8]) {
        let crc = crc32(&bytes[..HEADER_BYTES - 4]);
        bytes[HEADER_BYTES - 4..HEADER_BYTES].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn page_size_rounds_up_to_alignment() {
        let cfg = RTreeConfig::default();
        let size = page_size_for(&cfg, 6).unwrap();
        assert_eq!(size % PAGE_ALIGN, 0);
        assert!(size >= 32 * (6 * 8 + 8));
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

        // Bad magic.
        assert!(matches!(
            damaged(&t, "hdr-magic.pages", |bad| bad[0] ^= 0xff),
            StoreError::BadMagic | StoreError::ChecksumMismatch { .. }
        ));

        // Future version.
        assert!(matches!(
            damaged(&t, "hdr-ver.pages", |bad| bad[8..12]
                .copy_from_slice(&99u32.to_le_bytes())),
            StoreError::UnsupportedVersion { got: 99, .. }
        ));

        // A past version, resealed: every version but this one is refused.
        let past = |bad: &mut Vec<u8>| {
            bad[8..12].copy_from_slice(&0u32.to_le_bytes());
            reseal(bad);
        };
        assert!(matches!(
            damaged(&t, "hdr-ver0.pages", past),
            StoreError::UnsupportedVersion { got: 0, .. }
        ));

        // Flipped header byte: checksum mismatch.
        assert!(matches!(
            damaged(&t, "hdr-flip.pages", |bad| bad[44] ^= 0x01),
            StoreError::ChecksumMismatch { .. }
        ));

        // Truncated file: shorter than its writer wrote it.
        assert!(matches!(
            damaged(&t, "hdr-trunc.pages", |bad| bad.truncate(bad.len() - 100)),
            StoreError::Truncated { .. }
        ));

        // A well-sealed header declaring more pages of the largest size
        // than a file can hold: refused, and no size is computed from it.
        for pages in [1u64 << 40, (1 << 40) + 1, 1 << 45, u64::MAX] {
            let forged = |bad: &mut Vec<u8>| {
                bad[12..16].copy_from_slice(&(MAX_PAGE_BYTES as u32).to_le_bytes());
                bad[16..24].copy_from_slice(&pages.to_le_bytes());
                bad[24..32].copy_from_slice(&0u64.to_le_bytes());
                reseal(bad);
            };
            assert!(
                matches!(
                    damaged(&t, "hdr-pages.pages", forged),
                    StoreError::Corrupt { .. }
                ),
                "{pages} pages"
            );
        }
    }

    #[test]
    fn another_writers_copy_of_the_same_tree_is_corrupt() {
        // Two files of one tree differ in their writers' tags alone.
        let t = sample_tree(50, 8);
        let theirs = temp_path("copy-theirs.pages");
        let cache = PageCache::new(8 * PAGE_ALIGN as u64);
        let _other = PagedTree::create(&theirs, &t, |&i| i as u64, &cache).unwrap();
        let copy = std::fs::read(&theirs).unwrap();
        let err = damaged(&t, "copy-mine.pages", |bytes| *bytes = copy);
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err:?}");
    }

    #[test]
    fn page_corruption_surfaces_at_fetch_time() {
        let t = sample_tree(120, 8);
        // Flip a byte inside the first page's payload.
        let off = PAGE_ALIGN + crate::page::PAGE_PREFIX_BYTES + 3;
        let err = damaged(&t, "pagecorrupt.pages", |bytes| bytes[off] ^= 0xff);
        assert!(matches!(
            err,
            StoreError::ChecksumMismatch { .. } | StoreError::Corrupt { .. }
        ));
    }
}
