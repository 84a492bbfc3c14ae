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
//! the slab, which widens each bound to `f64` as it is read. A bulk-loaded
//! node's arrays have exactly its entries' capacity, and an insert grows a
//! node one entry at a time, so no node reserves room beyond the `M + 1`
//! entries an overflowing node briefly holds.
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

/// One entry held apart from any node while an insertion moves it: its
/// rectangle in stored form and what sits under it.
pub(crate) struct Entry<T> {
    pub(crate) bounds: Vec<f32>,
    pub(crate) kid: Kid<T>,
}

/// What sits under a detached [`Entry`].
pub(crate) enum Kid<T> {
    /// A payload, which belongs at level 0.
    Item(T),
    /// A subtree, which belongs one level above its root.
    Node(Node<T>),
}

impl<T> Entry<T> {
    /// The level this entry belongs *at* (leaf entries live at level 0;
    /// an internal entry at level `child.level + 1`).
    pub(crate) fn target_level(&self) -> u32 {
        match &self.kid {
            Kid::Item(_) => 0,
            Kid::Node(child) => child.level + 1,
        }
    }

    /// The entry's stored rectangle.
    pub(crate) fn rect(&self) -> RectView<'_> {
        RectView::new(&self.bounds)
    }
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

    /// Appends an entry, growing each array by exactly one entry when it
    /// is full: an insert-built node never reserves more room than the
    /// entries it holds.
    pub(crate) fn push(&mut self, bounds: &[f32], kid: Kid<T>) {
        debug_assert_eq!(bounds.len(), self.width());
        self.coords.reserve_exact(bounds.len());
        self.coords.extend_from_slice(bounds);
        match (&mut self.kids, kid) {
            (Kids::Items(items), Kid::Item(item)) => {
                items.reserve_exact(1);
                items.push(item);
            }
            (Kids::Nodes(children), Kid::Node(child)) => {
                children.reserve_exact(1);
                children.push(child);
            }
            _ => unreachable!("an entry of the wrong kind for the node's level"),
        }
    }

    /// Moves the entries `keep` does not select into a new node at the
    /// same level. Both nodes keep their entries' order, each array at
    /// exactly its entries' capacity.
    pub(crate) fn split_off(&mut self, keep: &[bool]) -> Node<T> {
        debug_assert_eq!(keep.len(), self.len());
        let w = self.width();
        let kept = keep.iter().filter(|&&k| k).count();
        let (mut coords, mut rest) = (
            Vec::with_capacity(kept * w),
            Vec::with_capacity((keep.len() - kept) * w),
        );
        for (bounds, &k) in self.coords.chunks_exact(w).zip(keep) {
            let side = if k { &mut coords } else { &mut rest };
            side.extend_from_slice(bounds);
        }
        self.coords = coords;
        let kids = match &mut self.kids {
            Kids::Items(items) => {
                let (kept, rest) = partition(std::mem::take(items), keep);
                *items = kept;
                Kids::Items(rest)
            }
            Kids::Nodes(children) => {
                let (kept, rest) = partition(std::mem::take(children), keep);
                *children = kept;
                Kids::Nodes(rest)
            }
        };
        Node {
            level: self.level,
            dims: self.dims,
            coords: rest,
            kids,
        }
    }

    /// The entries, detached, in entry order.
    pub(crate) fn into_entries(self) -> Vec<Entry<T>> {
        let w = self.width();
        let rects = self.coords.chunks_exact(w).map(<[f32]>::to_vec);
        match self.kids {
            Kids::Items(items) => rects
                .zip(items)
                .map(|(bounds, item)| Entry {
                    bounds,
                    kid: Kid::Item(item),
                })
                .collect(),
            Kids::Nodes(children) => rects
                .zip(children)
                .map(|(bounds, child)| Entry {
                    bounds,
                    kid: Kid::Node(child),
                })
                .collect(),
        }
    }

    /// Writes the minimum bounding rectangle of all entries into `out`:
    /// the first entry's rectangle, grown by each following one in entry
    /// order.
    ///
    /// # Panics
    /// Panics on an empty node (only the empty-tree root has no entries and
    /// callers guard that case).
    pub(crate) fn mbr_into(&self, out: &mut [f32]) {
        let mut rects = self.coords.chunks_exact(self.width());
        out.copy_from_slice(rects.next().expect("mbr of empty node"));
        for bounds in rects {
            union_into(out, bounds);
        }
    }

    /// The minimum bounding rectangle of all entries, stored form
    /// ([`Node::mbr_into`]).
    pub(crate) fn mbr_bounds(&self) -> Vec<f32> {
        let mut bounds = vec![0.0; self.width()];
        self.mbr_into(&mut bounds);
        bounds
    }

    /// The minimum bounding rectangle of all entries, widened.
    pub(crate) fn mbr(&self) -> Rect {
        RectView::new(&self.mbr_bounds()).to_rect()
    }
}

/// `items` split by `keep` into the selected and the others, each in
/// order and at exactly its length's capacity.
fn partition<X>(items: Vec<X>, keep: &[bool]) -> (Vec<X>, Vec<X>) {
    let kept = keep.iter().filter(|&&k| k).count();
    let mut sides = (
        Vec::with_capacity(kept),
        Vec::with_capacity(items.len() - kept),
    );
    for (item, &k) in items.into_iter().zip(keep) {
        match k {
            true => sides.0.push(item),
            false => sides.1.push(item),
        }
    }
    sides
}
