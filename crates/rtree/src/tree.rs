//! The R\*-tree's in-memory form: a tree packed by STR (`crate::bulk`),
//! in-place growth of an entry, and structural invariant checking.

use crate::config::RTreeConfig;
use crate::node::{Kids, Node};
use crate::rect::{stored, union_into, Coord, Rect, RectView};

/// An in-memory R\*-tree over items of type `T`.
///
/// The paper's experiments (Section 5) run on "Norbert Beckmann's Version 2
/// implementation of the R\*-tree" (Beckmann, Kriegel, Schneider, Seeger
/// 1990), which builds its tree by insertion: ChooseSubtree, forced
/// reinsertion and the topological split. This tree is never built that
/// way. Every tree is packed whole by STR ([`RStarTree::bulk_load_flat`]),
/// and a relation that grows is packed again by its next reader, so a tree
/// is a function of its entries alone. The queries are the R\*-tree's:
/// range search and best-first nearest neighbours over the same nodes of
/// at most `M` rectangles. One entry may widen in place
/// ([`RStarTree::grow_entry`]).
///
/// Dimensionality is dynamic: it is fixed by the load. Each node stores
/// its rectangles flat, in one coordinate slab (see the crate docs);
/// traversals read them as [`RectView`]s.
#[derive(Debug, Clone)]
pub struct RStarTree<T> {
    pub(crate) config: RTreeConfig,
    pub(crate) root: Node<T>,
    len: usize,
    dims: Option<usize>,
}

impl<T> Default for RStarTree<T> {
    fn default() -> Self {
        Self::new(RTreeConfig::default())
    }
}

impl<T> RStarTree<T> {
    /// Creates an empty tree with the given configuration.
    pub fn new(config: RTreeConfig) -> Self {
        config.validate();
        RStarTree {
            config,
            root: Node::empty(0, 0),
            len: 0,
            dims: None,
        }
    }

    /// Number of stored items.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no items are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height (0 for an empty tree, 1 for a root-only leaf).
    pub fn height(&self) -> u32 {
        if self.len == 0 {
            0
        } else {
            self.root.level + 1
        }
    }

    /// Dimensionality, if fixed by a load.
    pub(crate) fn dims(&self) -> Option<usize> {
        self.dims
    }

    /// The configuration in use.
    pub(crate) fn config(&self) -> &RTreeConfig {
        &self.config
    }

    /// Bounding rectangle of the whole tree, `None` when empty.
    pub fn bounds(&self) -> Option<Rect> {
        if self.len == 0 {
            None
        } else {
            Some(self.root.mbr())
        }
    }

    /// Installs a bulk-built root holding `len` items (crate-internal).
    pub(crate) fn set_root(&mut self, root: Node<T>, len: usize) {
        self.dims = Some(root.dims as usize);
        self.root = root;
        self.len = len;
    }

    /// Replaces one entry in place with a **grown** version of itself:
    /// finds the leaf entry whose stored rectangle equals `old`'s stored
    /// form (rounded outward) and whose payload satisfies `pred`, swaps in
    /// `grown`'s stored form and `item`, and unions it into the stored MBR
    /// of every node on the path down.
    ///
    /// Because `grown` must contain `old`, bounds only loosen and no node
    /// changes shape, so the whole update is `O(height)`. This is how
    /// streaming appends widen a partial trail chunk without repacking.
    ///
    /// Returns `true` when an entry was updated, `false` when no entry
    /// matched (the tree is unchanged).
    ///
    /// # Panics
    /// Panics when `grown` does not contain `old` or on a dimensionality
    /// mismatch.
    pub fn grow_entry<F: Fn(&T) -> bool, C: Coord, D: Coord>(
        &mut self,
        old: RectView<'_, C>,
        pred: F,
        grown: RectView<'_, D>,
        item: T,
    ) -> bool {
        assert!(
            grown.contains_rect(old),
            "grow_entry requires the new rectangle to contain the old one"
        );
        if let Some(dims) = self.dims {
            assert_eq!(grown.dims(), dims, "dimensionality mismatch in grow entry");
        }
        if self.len == 0 {
            return false;
        }
        let (old, grown) = (stored(old.bounds()), stored(grown.bounds()));
        let mut item = Some(item);
        grow_rec(
            &mut self.root,
            RectView::new(&old),
            &pred,
            RectView::new(&grown),
            &mut item,
        )
    }

    /// Iterates over all `(rect, item)` pairs, depth first in stored order.
    pub fn iter(&self) -> Iter<'_, T> {
        let mut stack = Vec::new();
        if self.len > 0 {
            stack.push((&self.root, 0usize));
        }
        Iter { stack }
    }

    /// Verifies what STR packing guarantees; panics with a description on
    /// violation. Intended for tests and debugging.
    #[doc(hidden)]
    pub fn validate(&self) {
        if self.len == 0 {
            assert!(self.root.is_leaf() && self.root.len() == 0);
            return;
        }
        let counted = validate_node(&self.root, &self.config, true);
        assert_eq!(counted, self.len, "item count mismatch");
    }
}

/// Depth-first iterator over leaf entries.
pub struct Iter<'a, T> {
    stack: Vec<(&'a Node<T>, usize)>,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = (RectView<'a>, &'a T);

    fn next(&mut self) -> Option<Self::Item> {
        while let Some((node, idx)) = self.stack.pop() {
            if idx >= node.len() {
                continue;
            }
            self.stack.push((node, idx + 1));
            match &node.kids {
                Kids::Items(items) => return Some((node.rect(idx), &items[idx])),
                Kids::Nodes(children) => self.stack.push((&children[idx], 0)),
            }
        }
        None
    }
}

/// Checks one node and counts the items below it. STR fills a node to at
/// most `M` entries and, when a level needs more than one node, every
/// node of it to at least `M/2` (`bulk`'s `chunk_sizes`); an inner root
/// holds at least two.
fn validate_node<T>(node: &Node<T>, cfg: &RTreeConfig, is_root: bool) -> usize {
    let len = node.len();
    assert!(len <= cfg.max_entries, "node exceeds max_entries");
    if !is_root {
        let half = cfg.max_entries / 2;
        assert!(len >= half, "non-root node below half fill: {len} < {half}");
    } else if !node.is_leaf() {
        assert!(len >= 2, "internal root must have >= 2 entries");
    }
    assert_eq!(node.coords.len(), len * node.width(), "slab length");
    match &node.kids {
        Kids::Items(_) => {
            assert!(node.is_leaf(), "leaf entry in internal node");
            len
        }
        Kids::Nodes(children) => {
            assert!(!node.is_leaf(), "non-leaf entry in leaf");
            let mut count = 0;
            for (i, child) in children.iter().enumerate() {
                assert_eq!(child.level + 1, node.level, "level discontinuity");
                assert_eq!(child.dims, node.dims, "dimensionality discontinuity");
                assert_eq!(
                    &child.mbr_bounds()[..],
                    node.rect(i).bounds(),
                    "stored MBR differs from computed MBR"
                );
                count += validate_node(child, cfg, false);
            }
            count
        }
    }
}

/// Recursive worker for [`RStarTree::grow_entry`]: descend into every
/// child whose MBR meets `old`, and on success only widen the path MBRs —
/// never restructure.
fn grow_rec<T, F: Fn(&T) -> bool>(
    node: &mut Node<T>,
    old: RectView<'_>,
    pred: &F,
    grown: RectView<'_>,
    item: &mut Option<T>,
) -> bool {
    let w = node.width();
    match &mut node.kids {
        Kids::Items(items) => {
            for (i, bounds) in node.coords.chunks_exact_mut(w).enumerate() {
                if &*bounds == old.bounds() && pred(&items[i]) {
                    bounds.copy_from_slice(grown.bounds());
                    items[i] = item.take().expect("replacement used once");
                    return true;
                }
            }
            false
        }
        Kids::Nodes(children) => {
            for (child, bounds) in children.iter_mut().zip(node.coords.chunks_exact_mut(w)) {
                if !RectView::new(bounds).intersects(old) {
                    continue;
                }
                if grow_rec(child, old, pred, grown, item) {
                    // Growth can only widen, so the union with the child's
                    // recomputed MBR is exact.
                    union_into(bounds, &child.mbr_bounds());
                    return true;
                }
            }
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point_tree(points: &[[f64; 2]], cfg: RTreeConfig) -> RStarTree<usize> {
        let items = points.iter().enumerate();
        RStarTree::bulk_load(cfg, items.map(|(i, p)| (Rect::from_point(p), i)).collect())
    }

    fn grid(n: usize) -> Vec<[f64; 2]> {
        let mut pts = Vec::with_capacity(n * n);
        for i in 0..n {
            for j in 0..n {
                pts.push([i as f64, j as f64]);
            }
        }
        pts
    }

    #[test]
    fn empty_tree_properties() {
        let t: RStarTree<u32> = RStarTree::default();
        assert_eq!(t.len(), 0);
        assert!(t.is_empty());
        assert_eq!(t.height(), 0);
        assert!(t.bounds().is_none());
        assert_eq!(t.iter().count(), 0);
        t.validate();
    }

    #[test]
    fn insert_grows_and_validates() {
        let pts = grid(20); // 400 points, several levels at fanout 8
        let t = point_tree(&pts, RTreeConfig::with_max_entries(8));
        assert_eq!(t.len(), 400);
        assert!(t.height() >= 3);
        t.validate();
        assert_eq!(t.iter().count(), 400);
        let b = t.bounds().unwrap();
        assert_eq!(b.lo(), &[0.0, 0.0]);
        assert_eq!(b.hi(), &[19.0, 19.0]);
    }

    #[test]
    fn all_items_reachable_after_many_inserts() {
        let pts = grid(15);
        let t = point_tree(&pts, RTreeConfig::with_max_entries(6));
        let mut seen: Vec<usize> = t.iter().map(|(_, &i)| i).collect();
        seen.sort_unstable();
        let want: Vec<usize> = (0..225).collect();
        assert_eq!(seen, want);
    }

    #[test]
    fn duplicate_points_supported() {
        let t = point_tree(&[[1.0, 1.0]; 50], RTreeConfig::with_max_entries(4));
        assert_eq!(t.len(), 50);
        t.validate();
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn mixed_dims_panic() {
        let items = vec![
            (Rect::from_point(&[0.0, 0.0]), 0usize),
            (Rect::from_point(&[0.0, 0.0, 0.0]), 1usize),
        ];
        RStarTree::bulk_load(RTreeConfig::default(), items);
    }

    #[test]
    fn grow_entry_widens_in_place() {
        let pts = grid(10);
        let mut t = point_tree(&pts, RTreeConfig::with_max_entries(5));
        t.validate();
        let old = Rect::from_point(&[3.0, 4.0]);
        // Widen item 34's degenerate rectangle to a box reaching outside
        // the original grid: same entry count, wider bounds, invariants
        // intact, and the widened region finds the (replaced) payload.
        let grown = Rect::new(vec![3.0, 4.0], vec![25.0, 25.0]);
        assert!(t.grow_entry(old.view(), |&i| i == 34, grown.view(), 734));
        assert_eq!(t.len(), 100);
        t.validate();
        let probe = Rect::from_point(&[25.0, 25.0]);
        let (hits, _) = t.search_collect(&probe);
        assert_eq!(hits, vec![&734]);
        // The old rectangle no longer identifies the entry, and a grow
        // with no match leaves the tree untouched.
        assert!(!t.grow_entry(old.view(), |&i| i == 34, grown.view(), 0));
        assert!(!t.grow_entry(grown.view(), |&i| i == 999, grown.view(), 0));
        assert_eq!(t.len(), 100);
        t.validate();
    }

    #[test]
    #[should_panic(expected = "contain")]
    fn grow_entry_rejects_a_shrinking_rectangle() {
        let mut t = point_tree(&grid(4), RTreeConfig::with_max_entries(4));
        let old = Rect::new(vec![0.0, 0.0], vec![3.0, 3.0]);
        let shrunk = Rect::from_point(&[1.0, 1.0]);
        t.grow_entry(old.view(), |_| true, shrunk.view(), 0);
    }

    #[test]
    fn rect_items_supported() {
        let items = (0..30).map(|i| {
            let x = (i % 6) as f64 * 2.0;
            let y = (i / 6) as f64 * 2.0;
            (Rect::new(vec![x, y], vec![x + 1.5, y + 1.5]), i)
        });
        let t = RStarTree::bulk_load(RTreeConfig::with_max_entries(4), items.collect());
        assert_eq!(t.len(), 30);
        t.validate();
    }

    #[test]
    fn clone_is_deep() {
        let mut a = point_tree(&grid(5), RTreeConfig::with_max_entries(4));
        let b = a.clone();
        let old = Rect::from_point(&[0.0, 0.0]);
        let grown = Rect::new(vec![0.0, 0.0], vec![9.0, 9.0]);
        assert!(a.grow_entry(old.view(), |_| true, grown.view(), 99));
        assert_eq!(a.len(), b.len());
        assert_eq!(b.search_collect(&old).0, vec![&0]);
        b.validate();
    }
}
