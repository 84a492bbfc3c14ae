//! Tree nodes and entries, and the [`NodeStore`] abstraction every
//! traversal is written against.
//!
//! A traversal never touches a node directly: it asks a store to *fetch*
//! a node reference and reads the node through the guard it gets back.
//! Two stores exist. `&RStarTree<T>` hands out plain borrows of its boxed
//! in-memory nodes and cannot fail; `&PagedTree` pins a page of its file
//! in the buffer pool, counting the hit or miss, and fails with a typed
//! [`tsq_store::StoreError`] on a page that cannot be read or decodes as
//! corrupt. The guard *is* the pin: a traversal that keeps it alive while
//! descending (range search) keeps the parent page resident, and one that
//! drops it before the next fetch (best-first kNN) holds a single page at
//! a time.

use std::convert::Infallible;

use crate::rect::Rect;
use crate::stats::SearchStats;
use crate::tree::RStarTree;

/// One entry of a fetched node: its stored rectangle and what sits under
/// it. The rectangle is readable for as long as the node's guard is.
#[derive(Debug, Clone, Copy)]
pub enum Slot<'g, I, R> {
    /// A stored item (leaf level).
    Item(&'g Rect, I),
    /// A reference to the child node (internal levels).
    Child(&'g Rect, R),
}

impl<'g, I, R> Slot<'g, I, R> {
    /// The entry's stored rectangle.
    pub fn rect(&self) -> &'g Rect {
        match self {
            Slot::Item(rect, _) | Slot::Child(rect, _) => rect,
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
        node.entries.iter().map(|entry| match entry {
            Entry::Leaf { rect, item } => Slot::Item(rect, item),
            Entry::Node { rect, child } => Slot::Child(rect, &**child),
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

/// An entry of a node: either a data item (in a leaf) or a child node (in an
/// internal node), each under a bounding rectangle.
#[derive(Debug, Clone)]
pub(crate) enum Entry<T> {
    /// Leaf-level entry: a (possibly degenerate) rectangle and its payload.
    Leaf { rect: Rect, item: T },
    /// Internal entry: the stored MBR of the child subtree.
    Node { rect: Rect, child: Box<Node<T>> },
}

impl<T> Entry<T> {
    #[inline]
    pub(crate) fn rect(&self) -> &Rect {
        match self {
            Entry::Leaf { rect, .. } => rect,
            Entry::Node { rect, .. } => rect,
        }
    }

    /// The level this entry belongs *at* (leaf entries live at level 0;
    /// an internal entry at level `child.level + 1`).
    pub(crate) fn target_level(&self) -> u32 {
        match self {
            Entry::Leaf { .. } => 0,
            Entry::Node { child, .. } => child.level + 1,
        }
    }
}

/// A tree node. `level == 0` means leaf; the root is the highest level.
/// Public only so the in-memory [`NodeStore`] can name it as its node
/// reference; the module is private and the fields are crate-internal.
#[derive(Debug, Clone)]
pub struct Node<T> {
    pub(crate) level: u32,
    pub(crate) entries: Vec<Entry<T>>,
}

impl<T> Node<T> {
    pub(crate) fn new_leaf() -> Self {
        Node {
            level: 0,
            entries: Vec::new(),
        }
    }

    pub(crate) fn new(level: u32, entries: Vec<Entry<T>>) -> Self {
        Node { level, entries }
    }

    #[inline]
    pub(crate) fn is_leaf(&self) -> bool {
        self.level == 0
    }

    /// Recomputes the minimum bounding rectangle of all entries.
    ///
    /// # Panics
    /// Panics on an empty node (only the empty-tree root has no entries and
    /// callers guard that case).
    pub(crate) fn mbr(&self) -> Rect {
        let mut it = self.entries.iter();
        let first = it.next().expect("mbr of empty node").rect().clone();
        it.fold(first, |mut acc, e| {
            acc.union_assign(e.rect());
            acc
        })
    }
}
