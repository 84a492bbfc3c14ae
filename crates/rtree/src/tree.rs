//! The R\*-tree proper: insertion (ChooseSubtree + forced reinsert +
//! topological split), in-place growth of an entry, and structural
//! invariant checking.

use crate::config::RTreeConfig;
use crate::node::{Entry, Kid, Kids, Node};
use crate::rect::{stored, union_into, Coord, Rect, RectView};
use crate::split::rstar_split;

/// An in-memory R\*-tree (Beckmann, Kriegel, Schneider, Seeger 1990) over
/// items of type `T`.
///
/// The paper's experiments (Section 5) run on "Norbert Beckmann's Version 2
/// implementation of the R\*-tree"; this is a faithful reimplementation of
/// the published algorithms: ChooseSubtree with overlap-minimization at the
/// leaf level, forced reinsertion of the 30% farthest entries on first
/// overflow per level, and the margin-driven topological split.
///
/// Dimensionality is dynamic: it is fixed by the first rectangle inserted
/// and enforced afterwards. Each node stores its rectangles flat, in one
/// coordinate slab (see the crate docs); traversals read them as
/// [`RectView`]s.
#[derive(Debug, Clone)]
pub struct RStarTree<T> {
    pub(crate) config: RTreeConfig,
    pub(crate) root: Node<T>,
    len: usize,
    dims: Option<usize>,
}

enum Action<T> {
    None,
    Split(Entry<T>),
    Reinsert(Vec<Entry<T>>),
}

struct InsertCtx {
    root_level: u32,
    /// `reinserted[level]` is set after the first overflow at that level.
    reinserted: Vec<bool>,
}

impl InsertCtx {
    fn new(root_level: u32) -> Self {
        InsertCtx {
            root_level,
            reinserted: vec![false; root_level as usize + 1],
        }
    }

    fn may_reinsert(&mut self, level: u32) -> bool {
        if level == self.root_level {
            return false;
        }
        let slot = &mut self.reinserted[level as usize];
        if *slot {
            false
        } else {
            *slot = true;
            true
        }
    }
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

    /// Dimensionality, if fixed by a first insert.
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

    /// Inserts an item under a bounding rectangle.
    ///
    /// # Panics
    /// Panics if the rectangle's dimensionality differs from previously
    /// inserted data, or is zero.
    pub fn insert(&mut self, rect: Rect, item: T) {
        self.insert_bounds(rect.view().bounds(), item);
    }

    /// Inserts an item under the rectangle `bounds` (`lo` then `hi`),
    /// stored rounded outward.
    pub(crate) fn insert_bounds(&mut self, bounds: &[f64], item: T) {
        self.check_dims(bounds.len() / 2);
        self.len += 1;
        let entry = Entry {
            bounds: stored(bounds),
            kid: Kid::Item(item),
        };
        self.insert_entries(vec![(entry, 0)]);
    }

    /// Inserts an item stored at a point.
    pub fn insert_point(&mut self, point: &[f64], item: T) {
        self.insert(Rect::from_point(point), item);
    }

    /// Installs a bulk-built root holding `len` items (crate-internal).
    pub(crate) fn set_root(&mut self, root: Node<T>, len: usize) {
        self.dims = Some(root.dims as usize);
        self.root = root;
        self.len = len;
    }

    fn check_dims(&mut self, d: usize) {
        match self.dims {
            None => {
                assert!(d > 0, "a rectangle needs at least one dimension");
                self.dims = Some(d);
                self.root.dims = d as u32;
            }
            Some(existing) => assert_eq!(
                existing, d,
                "dimensionality mismatch: tree holds {existing}-d data, got {d}-d"
            ),
        }
    }

    /// Drives a work-list of (entry, target level) insertions, handling root
    /// splits and forced-reinsert queues.
    fn insert_entries(&mut self, mut pending: Vec<(Entry<T>, u32)>) {
        let mut ctx = InsertCtx::new(self.root.level);
        while let Some((entry, level)) = pending.pop() {
            match insert_rec(&mut self.root, entry, level, &mut ctx, &self.config) {
                Action::None => {}
                Action::Split(sibling) => {
                    self.grow_root(sibling);
                    ctx.root_level = self.root.level;
                    ctx.reinserted.resize(self.root.level as usize + 1, false);
                }
                Action::Reinsert(entries) => {
                    for e in entries {
                        let lvl = e.target_level();
                        pending.push((e, lvl));
                    }
                }
            }
        }
    }

    fn grow_root(&mut self, sibling: Entry<T>) {
        let dims = self.root.dims as usize;
        let old_root = std::mem::replace(&mut self.root, Node::empty(0, dims));
        let mut root = Node::empty(old_root.level + 1, dims);
        root.push(&old_root.mbr_bounds(), Kid::Node(old_root));
        root.push(&sibling.bounds, sibling.kid);
        self.root = root;
    }

    /// Replaces one entry in place with a **grown** version of itself:
    /// finds the leaf entry whose stored rectangle equals `old`'s stored
    /// form (rounded outward) and whose payload satisfies `pred`, swaps in
    /// `grown`'s stored form and `item`, and unions it into the stored MBR
    /// of every node on the path down.
    ///
    /// Because `grown` must contain `old`, bounds only loosen: no split,
    /// reinsertion or condensation can be needed, so the whole update is
    /// `O(height)`. This is how streaming appends widen a partial trail
    /// chunk without paying the R\*-tree's insertion constants.
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

    /// Iterates over all `(rect, item)` pairs in unspecified order.
    pub fn iter(&self) -> Iter<'_, T> {
        let mut stack = Vec::new();
        if self.len > 0 {
            stack.push((&self.root, 0usize));
        }
        Iter { stack }
    }

    /// Verifies structural invariants; panics with a description on
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

fn validate_node<T>(node: &Node<T>, cfg: &RTreeConfig, is_root: bool) -> usize {
    let len = node.len();
    assert!(len <= cfg.max_entries, "node exceeds max_entries");
    if !is_root {
        assert!(
            len >= cfg.min_entries,
            "non-root node below min_entries: {} < {}",
            len,
            cfg.min_entries
        );
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

fn insert_rec<T>(
    node: &mut Node<T>,
    entry: Entry<T>,
    target_level: u32,
    ctx: &mut InsertCtx,
    cfg: &RTreeConfig,
) -> Action<T> {
    if node.level == target_level {
        node.push(&entry.bounds, entry.kid);
        if node.len() > cfg.max_entries {
            return overflow(node, ctx, cfg);
        }
        return Action::None;
    }
    debug_assert!(node.level > target_level, "descended past target level");
    let idx = choose_subtree(node, entry.rect());
    let Kids::Nodes(children) = &mut node.kids else {
        unreachable!("leaf entry in internal node")
    };
    let action = insert_rec(&mut children[idx], entry, target_level, ctx, cfg);
    refresh_child_rect(node, idx);
    match action {
        Action::None => Action::None,
        Action::Reinsert(es) => Action::Reinsert(es),
        Action::Split(sibling) => {
            node.push(&sibling.bounds, sibling.kid);
            if node.len() > cfg.max_entries {
                overflow(node, ctx, cfg)
            } else {
                Action::None
            }
        }
    }
}

/// Stores child `idx`'s recomputed MBR as its entry's rectangle.
fn refresh_child_rect<T>(node: &mut Node<T>, idx: usize) {
    let w = node.width();
    if let Kids::Nodes(children) = &node.kids {
        children[idx].mbr_into(&mut node.coords[idx * w..(idx + 1) * w]);
    }
}

/// R\*-tree ChooseSubtree: at the level just above the leaves, minimize
/// overlap enlargement (ties: area enlargement, then area); higher up,
/// minimize area enlargement (ties: area).
fn choose_subtree<T>(node: &Node<T>, rect: RectView<'_>) -> usize {
    debug_assert!(!node.is_leaf());
    let n = node.len();
    debug_assert!(n > 0);
    if node.level == 1 {
        // Children are leaves: overlap-enlargement criterion.
        let mut best = 0usize;
        let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for (i, ri) in node.rects().enumerate() {
            let enlarged = ri.union(rect);
            let mut overlap_delta = 0.0;
            for (j, rj) in node.rects().enumerate() {
                if j == i {
                    continue;
                }
                overlap_delta += enlarged.view().intersection_area(rj) - ri.intersection_area(rj);
            }
            let key = (overlap_delta, ri.enlargement(rect), ri.area());
            if key < best_key {
                best_key = key;
                best = i;
            }
        }
        best
    } else {
        let mut best = 0usize;
        let mut best_key = (f64::INFINITY, f64::INFINITY);
        for (i, ri) in node.rects().enumerate() {
            let key = (ri.enlargement(rect), ri.area());
            if key < best_key {
                best_key = key;
                best = i;
            }
        }
        best
    }
}

fn overflow<T>(node: &mut Node<T>, ctx: &mut InsertCtx, cfg: &RTreeConfig) -> Action<T> {
    let len = node.len();
    if cfg.reinsert_count > 0 && ctx.may_reinsert(node.level) {
        // Forced reinsert: remove the `p` entries whose centers lie farthest
        // from the node center, re-inserting the closer ones first
        // ("close reinsert" of the R* paper).
        let center = node.mbr().view().center();
        let p = cfg.reinsert_count.min(len - cfg.min_entries);
        if p > 0 {
            let dist2 = |r: RectView<'_>| -> f64 {
                r.center()
                    .iter()
                    .zip(&center)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum()
            };
            let mut order: Vec<usize> = (0..len).collect();
            order.sort_by(|&a, &b| dist2(node.rect(a)).total_cmp(&dist2(node.rect(b))));
            // Farthest p entries leave the node; the rest keep their order.
            let mut keep = vec![true; len];
            for &i in &order[len - p..] {
                keep[i] = false;
            }
            let mut removed = node.split_off(&keep).into_entries();
            // Close reinsert: nearest first. `removed` currently holds
            // entries in original order; sort by distance ascending.
            removed.sort_by(|a, b| dist2(a.rect()).total_cmp(&dist2(b.rect())));
            // The work list is a stack (LIFO), so push farthest-first to
            // process nearest-first.
            removed.reverse();
            return Action::Reinsert(removed);
        }
    }
    let keep = rstar_split(node, cfg.min_entries);
    let sibling = node.split_off(&keep);
    Action::Split(Entry {
        bounds: sibling.mbr_bounds(),
        kid: Kid::Node(sibling),
    })
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
        let mut t = RStarTree::new(cfg);
        for (i, p) in points.iter().enumerate() {
            t.insert_point(p, i);
        }
        t
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
        let pts = grid(20); // 400 points, forces several levels at fanout 8
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
        let mut t = RStarTree::new(RTreeConfig::with_max_entries(4));
        for i in 0..50 {
            t.insert_point(&[1.0, 1.0], i);
        }
        assert_eq!(t.len(), 50);
        t.validate();
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn mixed_dims_panic() {
        let mut t = RStarTree::default();
        t.insert_point(&[0.0, 0.0], 0usize);
        t.insert_point(&[0.0, 0.0, 0.0], 1usize);
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
    fn reinsert_disabled_still_correct() {
        let pts = grid(12);
        let config = RTreeConfig {
            reinsert_count: 0,
            ..RTreeConfig::with_max_entries(6)
        };
        let t = point_tree(&pts, config);
        assert_eq!(t.len(), 144);
        t.validate();
    }

    #[test]
    fn rect_items_supported() {
        let mut t = RStarTree::new(RTreeConfig::with_max_entries(4));
        for i in 0..30 {
            let x = (i % 6) as f64 * 2.0;
            let y = (i / 6) as f64 * 2.0;
            t.insert(Rect::new(vec![x, y], vec![x + 1.5, y + 1.5]), i);
        }
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
