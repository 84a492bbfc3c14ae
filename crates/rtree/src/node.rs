//! Tree nodes, and the [`NodeStore`] abstraction every traversal is
//! written against.
//!
//! ## Node layout
//!
//! A [`Node`] keeps its entries in two parallel arrays: one coordinate
//! slab holding every entry's rectangle as `2·dims` `f32`s back to back, in
//! entry order (each rectangle's `lo` then its `hi`, rounded outward — see
//! [`crate::rect`]), and one array of what sits under them — the payloads
//! of a leaf, the child nodes of an internal node. No rectangle is boxed on
//! its own: a traversal reads entry `i`'s rectangle as a [`RectView`] into
//! the slab, which widens each bound to `f64` as it is read. Every node is
//! packed whole, so its arrays have exactly its entries' capacity.
//!
//! ## Stores
//!
//! A traversal never touches a node directly: it asks a store to *fetch*
//! a node reference and reads the node through the guard it gets back.
//! Two stores exist. `&RStarTree<T>` hands out plain borrows of its
//! in-memory nodes and cannot fail; `&PagedTree` pins a page of its file
//! in the buffer pool, counting the hit or miss, and fails with a typed
//! [`tsq_store::StoreError`] on a page that cannot be read or decodes as
//! corrupt. The guard *is* the pin: a traversal that keeps it alive while
//! descending (range search) keeps the parent page resident, and one that
//! drops it before the next fetch (best-first kNN) holds a single page at
//! a time.

use std::convert::Infallible;

use crate::rect::{union_into, Rect, RectView};
use crate::stats::SearchStats;
use crate::tree::RStarTree;

/// One entry of a fetched node: its stored rectangle and what sits under
/// it. The rectangle is readable for as long as the node's guard is.
#[derive(Debug, Clone, Copy)]
pub enum Slot<'g, I, R> {
    /// A stored item (leaf level).
    Item(RectView<'g>, I),
    /// A reference to the child node (internal levels).
    Child(RectView<'g>, R),
}

impl<'g, I, R> Slot<'g, I, R> {
    /// The entry's stored rectangle.
    pub fn rect(&self) -> RectView<'g> {
        match self {
            Slot::Item(rect, _) | Slot::Child(rect, _) => *rect,
        }
    }
}

/// A source of R\*-tree nodes: the one interface the range visitor and
/// the best-first kNN loop are written against.
///
/// Implemented by shared references (`&RStarTree<T>`, `&PagedTree`), so a
/// store is `Copy` and its associated types may borrow from the tree.
pub trait NodeStore: Copy {
    /// Names a node: enough to fetch it.
    type Ref: Copy;
    /// A leaf payload as handed to callers.
    type Item: Copy;
    /// Keeps a fetched node readable; dropping it releases the node.
    type Guard;
    /// Why a fetch can fail ([`Infallible`] for in-memory nodes).
    type Error;

    /// Number of stored items.
    fn len(self) -> usize;

    /// True when nothing is stored; nothing may be fetched then.
    fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// Most entries a node holds (`M`).
    fn max_entries(self) -> usize;

    /// Levels of nodes from the root to the leaves (1 for a root-only
    /// tree).
    fn height(self) -> u32;

    /// The root node.
    fn root(self) -> Self::Ref;

    /// Fetches one node. A store that measures its fetches records them
    /// in `stats`.
    ///
    /// # Errors
    /// Whatever makes the node unreadable; in-memory stores never fail.
    fn fetch(self, node: Self::Ref, stats: &mut SearchStats) -> Result<Self::Guard, Self::Error>;

    /// Distance of a fetched node from the leaves (0 = leaf).
    fn level(node: &Self::Guard) -> u32;

    /// The fetched node's entries in stored order.
    fn entries(node: &Self::Guard) -> impl Iterator<Item = Slot<'_, Self::Item, Self::Ref>>;
}

impl<'a, T> NodeStore for &'a RStarTree<T> {
    type Ref = &'a Node<T>;
    type Item = &'a T;
    type Guard = &'a Node<T>;
    type Error = Infallible;

    #[inline]
    fn len(self) -> usize {
        RStarTree::len(self)
    }

    #[inline]
    fn max_entries(self) -> usize {
        self.config.max_entries
    }

    #[inline]
    fn height(self) -> u32 {
        RStarTree::height(self)
    }

    #[inline]
    fn root(self) -> Self::Ref {
        &self.root
    }

    #[inline]
    fn fetch(self, node: Self::Ref, _: &mut SearchStats) -> Result<Self::Guard, Infallible> {
        Ok(node)
    }

    #[inline]
    fn level(node: &Self::Guard) -> u32 {
        node.level
    }

    #[inline]
    fn entries(node: &Self::Guard) -> impl Iterator<Item = Slot<'_, Self::Item, Self::Ref>> {
        let node: &'a Node<T> = node;
        node.rects()
            .enumerate()
            .map(move |(i, rect)| match &node.kids {
                Kids::Items(items) => Slot::Item(rect, &items[i]),
                Kids::Nodes(children) => Slot::Child(rect, &children[i]),
            })
    }
}

/// Unwraps the result of a traversal over a store that cannot fail.
pub(crate) fn infallible<V>(result: Result<V, Infallible>) -> V {
    match result {
        Ok(value) => value,
        Err(never) => match never {},
    }
}

/// What sits under a node's rectangles, in entry order.
#[derive(Debug, Clone)]
pub(crate) enum Kids<T> {
    /// A leaf's payloads.
    Items(Vec<T>),
    /// An internal node's children.
    Nodes(Vec<Node<T>>),
}

/// A tree node. `level == 0` means leaf; the root is the highest level.
/// Public only so the in-memory [`NodeStore`] can name it as its node
/// reference; the module is private and the fields are crate-internal.
#[derive(Debug, Clone)]
pub struct Node<T> {
    pub(crate) level: u32,
    /// Dimensionality of every rectangle in the slab.
    pub(crate) dims: u32,
    /// `2·dims` bounds per entry, in entry order: each rectangle's `lo`,
    /// then its `hi`, rounded outward to `f32`.
    pub(crate) coords: Vec<f32>,
    pub(crate) kids: Kids<T>,
}

impl<T> Node<T> {
    /// An empty node: a leaf's at level 0, an internal node's above.
    pub(crate) fn empty(level: u32, dims: usize) -> Self {
        let kids = match level {
            0 => Kids::Items(Vec::new()),
            _ => Kids::Nodes(Vec::new()),
        };
        Node {
            level,
            dims: dims as u32,
            coords: Vec::new(),
            kids,
        }
    }

    #[inline]
    pub(crate) fn is_leaf(&self) -> bool {
        self.level == 0
    }

    /// Bounds per rectangle: `2·dims`.
    #[inline]
    pub(crate) fn width(&self) -> usize {
        2 * self.dims as usize
    }

    /// Number of entries.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        match &self.kids {
            Kids::Items(items) => items.len(),
            Kids::Nodes(children) => children.len(),
        }
    }

    /// Entry `i`'s rectangle.
    #[inline]
    pub(crate) fn rect(&self, i: usize) -> RectView<'_> {
        let w = self.width();
        RectView::new(&self.coords[i * w..(i + 1) * w])
    }

    /// Every entry's rectangle, in entry order.
    #[inline]
    pub(crate) fn rects(&self) -> impl Iterator<Item = RectView<'_>> {
        // An empty node's width may still be 0 (an empty tree's root).
        self.coords
            .chunks_exact(self.width().max(1))
            .map(RectView::new)
    }

    /// The minimum bounding rectangle of all entries, stored form: the
    /// first entry's rectangle, grown by each following one in entry
    /// order.
    ///
    /// # Panics
    /// Panics on an empty node (only the empty-tree root has no entries and
    /// callers guard that case).
    pub(crate) fn mbr_bounds(&self) -> Vec<f32> {
        let mut rects = self.coords.chunks_exact(self.width());
        let mut bounds = rects.next().expect("mbr of empty node").to_vec();
        for rect in rects {
            union_into(&mut bounds, rect);
        }
        bounds
    }

    /// The minimum bounding rectangle of all entries, widened.
    pub(crate) fn mbr(&self) -> Rect {
        RectView::new(&self.mbr_bounds()).to_rect()
    }
}
