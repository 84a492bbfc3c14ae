//! Sort-Tile-Recursive (STR) bulk loading.
//!
//! Building the index over a whole relation at once (the common case in the
//! paper's experiments, where the data set is loaded and then queried) is
//! much faster with bottom-up packing than with repeated insertion, and
//! produces well-clustered leaves. Used by the benchmark harness; repeated
//! insertion remains available for incremental workloads, and an ablation
//! benchmark compares the two.
//!
//! Every sort pass computes each entry's centre coordinate once and sorts
//! on that cached key: no comparison touches a rectangle on the heap, and
//! the stable sort gives the comparator sort's order bit for bit.

use std::cmp::Ordering;

use crate::config::RTreeConfig;
use crate::node::{Entry, Node};
use crate::par::{par_for_each_slice, parallel_map};
use crate::rect::Rect;
use crate::tree::RStarTree;

impl<T> RStarTree<T> {
    /// Builds a tree from `(rect, item)` pairs using STR packing.
    ///
    /// # Panics
    /// Panics if rectangles disagree in dimensionality.
    pub fn bulk_load(config: RTreeConfig, items: Vec<(Rect, T)>) -> Self {
        bulk_build(
            config,
            items,
            |entries, dims, cap| str_sort(entries, 0, dims, cap),
            |groups, level| groups.into_iter().map(|g| pack_node(g, level)).collect(),
        )
    }
}

impl<T: Send> RStarTree<T> {
    /// [`RStarTree::bulk_load`] with the heavy per-level work — slab
    /// sorting and node packing — partitioned across up to `threads`
    /// worker threads. Both entry points share the one packing skeleton
    /// (`bulk_build`); only the sort and pack steps differ.
    ///
    /// The parallel build produces a tree *identical* to the sequential
    /// one: the top-level sort is shared, every slab is sorted on the same
    /// key independently of the others, and chunk boundaries are
    /// position-based, so thread count never changes entry placement.
    /// `threads <= 1` falls back to the sequential path exactly.
    ///
    /// # Panics
    /// Panics if rectangles disagree in dimensionality.
    pub fn bulk_load_parallel(config: RTreeConfig, items: Vec<(Rect, T)>, threads: usize) -> Self {
        if threads <= 1 {
            return Self::bulk_load(config, items);
        }
        bulk_build(
            config,
            items,
            |entries, dims, cap| str_sort_parallel(entries, dims, cap, threads),
            // Node packing computes every node's MBR — O(n·d) per level —
            // so it parallelizes as well as the sort does.
            |groups, level| parallel_map(threads, groups, |g| pack_node(g, level)),
        )
    }
}

/// The bottom-up STR packing loop shared by the sequential and parallel
/// bulk loaders: validate, wrap leaves, then per level sort (via `sort`)
/// and pack fixed-size chunks into nodes (via `pack`) until everything
/// fits in the root.
fn bulk_build<T>(
    config: RTreeConfig,
    items: Vec<(Rect, T)>,
    sort: impl Fn(&mut [Entry<T>], usize, usize),
    pack: impl Fn(Vec<Vec<Entry<T>>>, u32) -> Vec<Entry<T>>,
) -> RStarTree<T> {
    config.validate();
    let mut tree = RStarTree::new(config);
    if items.is_empty() {
        return tree;
    }
    let dims = items[0].0.dims();
    for (r, _) in &items {
        assert_eq!(r.dims(), dims, "dimensionality mismatch in bulk load");
    }
    let n = items.len();
    // Pack leaf level.
    let mut entries: Vec<Entry<T>> = items
        .into_iter()
        .map(|(rect, item)| Entry::Leaf { rect, item })
        .collect();
    let cap = config.max_entries;
    let mut level = 0u32;
    loop {
        if entries.len() <= cap {
            tree.set_root_from_entries(level, entries, dims, n);
            return tree;
        }
        sort(&mut entries, dims, cap);
        let chunks = chunk_sizes(entries.len(), cap);
        let mut groups: Vec<Vec<Entry<T>>> = Vec::with_capacity(chunks.len());
        let mut drain = entries.into_iter();
        for size in chunks {
            groups.push(drain.by_ref().take(size).collect());
        }
        entries = pack(groups, level);
        level += 1;
    }
}

/// Packs one chunk of entries into a node entry for the next level up.
fn pack_node<T>(group: Vec<Entry<T>>, level: u32) -> Entry<T> {
    let node = Node::new(level, group);
    Entry::Node {
        rect: node.mbr(),
        child: Box::new(node),
    }
}

/// The parallel counterpart of [`str_sort`] for the top recursion level:
/// the dimension-0 sort stays sequential (one global ordering), then the
/// per-slab recursions — independent by construction — fan out across
/// workers. Slab boundaries come from the same [`slab_len`] as the
/// sequential path and each slab runs the identical sequential
/// `str_sort`, so the resulting ordering matches it exactly.
fn str_sort_parallel<T: Send>(entries: &mut [Entry<T>], dims: usize, cap: usize, threads: usize) {
    let n = entries.len();
    if n <= cap || dims == 0 {
        return;
    }
    sort_by_center(entries, 0);
    if dims == 1 {
        return;
    }
    let slices: Vec<&mut [Entry<T>]> = entries.chunks_mut(slab_len(n, cap, dims)).collect();
    par_for_each_slice(threads, slices, |slab| str_sort(slab, 1, dims, cap));
}

impl<T> RStarTree<T> {
    /// Inserts a batch of `(rect, item)` pairs.
    ///
    /// Into an empty tree this is a full STR bulk load. Into a non-empty
    /// tree the batch is STR-sorted first and then inserted in that order,
    /// which clusters sibling entries (consecutive trail rectangles of a
    /// subsequence index land in the same leaves) and measurably reduces
    /// node splits versus insertion in arrival order.
    ///
    /// # Panics
    /// Panics if rectangle dimensionalities disagree with each other or
    /// with the tree's existing entries.
    pub fn bulk_extend(&mut self, items: Vec<(Rect, T)>) {
        if items.is_empty() {
            return;
        }
        if self.is_empty() {
            *self = RStarTree::bulk_load(*self.config(), items);
            return;
        }
        let dims = self.dims().expect("non-empty tree has dimensionality");
        for (r, _) in &items {
            assert_eq!(r.dims(), dims, "dimensionality mismatch in bulk extend");
        }
        let mut entries: Vec<Entry<T>> = items
            .into_iter()
            .map(|(rect, item)| Entry::Leaf { rect, item })
            .collect();
        str_sort(&mut entries, 0, dims, self.config().max_entries);
        for entry in entries {
            match entry {
                Entry::Leaf { rect, item } => self.insert(rect, item),
                Entry::Node { .. } => unreachable!("batch holds leaf entries only"),
            }
        }
    }

    fn set_root_from_entries(&mut self, level: u32, entries: Vec<Entry<T>>, dims: usize, n: usize) {
        self.root = Node::new(level, entries);
        self.force_size(n, dims);
    }
}

/// Recursively orders entries in STR fashion: sort the current dimension,
/// slice into vertical slabs sized so each slab packs into roughly equal
/// tiles, recurse on the next dimension within each slab.
fn str_sort<T>(entries: &mut [Entry<T>], dim: usize, dims: usize, cap: usize) {
    let n = entries.len();
    if n <= cap || dim >= dims {
        return;
    }
    sort_by_center(entries, dim);
    if dim + 1 == dims {
        return;
    }
    for chunk in entries.chunks_mut(slab_len(n, cap, dims - dim)) {
        str_sort(chunk, dim + 1, dims, cap);
    }
}

/// Stable sort by the centre coordinate along `dim`. The key is computed
/// once per entry per pass, so a comparison reads two cached `f64`s
/// instead of dereferencing two heap rectangles; ties keep their input
/// order, so the order is the comparator sort's exactly.
fn sort_by_center<T>(entries: &mut [Entry<T>], dim: usize) {
    entries.sort_by_cached_key(|e| Center(center_coord(e.rect(), dim)));
}

/// A centre coordinate under `f64::total_cmp`'s total order.
#[derive(Clone, Copy)]
struct Center(f64);

impl Ord for Center {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl PartialOrd for Center {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Center {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Center {}

/// Length of one vertical slab: `n` entries split into
/// `ceil(pages^(1/dims_remaining))` slabs (Leutenegger et al.). Shared by
/// the sequential and parallel sorts so their slab boundaries can never
/// drift apart.
fn slab_len(n: usize, cap: usize, dims_remaining: usize) -> usize {
    let pages = n.div_ceil(cap);
    let slabs = (pages as f64)
        .powf(1.0 / dims_remaining as f64)
        .ceil()
        .max(1.0) as usize;
    n.div_ceil(slabs)
}

#[inline]
fn center_coord(r: &Rect, dim: usize) -> f64 {
    0.5 * (r.lo()[dim] + r.hi()[dim])
}

/// Splits `n` entries into chunks of at most `cap`, sized as evenly as
/// possible so that every chunk (not just all but the last) meets the 40%
/// minimum fill: with `k = ceil(n / cap)` chunks, sizes are `n/k` or
/// `n/k + 1`, and `n/k >= cap/2 >= min_entries`.
fn chunk_sizes(n: usize, cap: usize) -> Vec<usize> {
    debug_assert!(n > cap);
    let k = n.div_ceil(cap);
    let base = n / k;
    let extra = n % k;
    let mut out = Vec::with_capacity(k);
    for i in 0..k {
        out.push(if i < extra { base + 1 } else { base });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn points(n: usize) -> Vec<(Rect, usize)> {
        (0..n)
            .map(|i| {
                let x = ((i * 37) % 211) as f64;
                let y = ((i * 73) % 197) as f64;
                (Rect::from_point(&[x, y]), i)
            })
            .collect()
    }

    #[test]
    fn bulk_load_roundtrip() {
        let t = RStarTree::bulk_load(RTreeConfig::with_max_entries(8), points(500));
        assert_eq!(t.len(), 500);
        t.validate();
        let mut ids: Vec<usize> = t.iter().map(|(_, &i)| i).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn bulk_load_small_fits_in_root() {
        let t = RStarTree::bulk_load(RTreeConfig::with_max_entries(8), points(5));
        assert_eq!(t.len(), 5);
        assert_eq!(t.height(), 1);
        t.validate();
    }

    #[test]
    fn bulk_load_empty() {
        let t: RStarTree<usize> = RStarTree::bulk_load(RTreeConfig::default(), Vec::new());
        assert!(t.is_empty());
        t.validate();
    }

    #[test]
    fn bulk_load_queries_agree_with_incremental() {
        let data = points(300);
        let bulk = RStarTree::bulk_load(RTreeConfig::with_max_entries(8), data.clone());
        let mut incr = RStarTree::new(RTreeConfig::with_max_entries(8));
        for (r, i) in data {
            incr.insert(r, i);
        }
        let q = Rect::new(vec![20.0, 20.0], vec![120.0, 120.0]);
        let (mut a, _) = bulk.search_collect(&q);
        let (mut b, _) = incr.search_collect(&q);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn bulk_load_supports_inserts_afterwards() {
        let mut t = RStarTree::bulk_load(RTreeConfig::with_max_entries(8), points(100));
        for i in 100..150 {
            t.insert_point(&[i as f64, i as f64], i);
        }
        assert_eq!(t.len(), 150);
        t.validate();
    }

    /// The load-bearing property of the whole concurrency story: thread
    /// count must never change the tree. Compare structure (height, every
    /// node's entry layout via iteration order) and query answers.
    #[test]
    fn parallel_bulk_load_identical_to_sequential() {
        for n in [40usize, 500, 1500] {
            let seq = RStarTree::bulk_load(RTreeConfig::with_max_entries(8), points(n));
            for threads in [1usize, 2, 3, 8] {
                let par = RStarTree::bulk_load_parallel(
                    RTreeConfig::with_max_entries(8),
                    points(n),
                    threads,
                );
                par.validate();
                assert_eq!(par.len(), seq.len());
                assert_eq!(par.height(), seq.height(), "n = {n}, threads = {threads}");
                let a: Vec<(&Rect, &usize)> = seq.iter().collect();
                let b: Vec<(&Rect, &usize)> = par.iter().collect();
                assert_eq!(a, b, "n = {n}, threads = {threads}: leaf layout differs");
            }
        }
    }

    #[test]
    fn parallel_bulk_load_empty_and_tiny() {
        let t: RStarTree<usize> =
            RStarTree::bulk_load_parallel(RTreeConfig::default(), Vec::new(), 4);
        assert!(t.is_empty());
        let t = RStarTree::bulk_load_parallel(RTreeConfig::with_max_entries(8), points(3), 4);
        assert_eq!(t.len(), 3);
        t.validate();
    }

    #[test]
    fn bulk_extend_empty_tree_is_bulk_load() {
        let mut t: RStarTree<usize> = RStarTree::new(RTreeConfig::with_max_entries(8));
        t.bulk_extend(points(300));
        assert_eq!(t.len(), 300);
        t.validate();
        // Packing quality: same height as a direct bulk load.
        let packed = RStarTree::bulk_load(RTreeConfig::with_max_entries(8), points(300));
        assert_eq!(t.height(), packed.height());
    }

    #[test]
    fn bulk_extend_into_existing_tree() {
        let mut t = RStarTree::bulk_load(RTreeConfig::with_max_entries(8), points(120));
        let extra: Vec<(Rect, usize)> = (0..180)
            .map(|i| {
                let x = 300.0 + ((i * 41) % 97) as f64;
                let y = 300.0 + ((i * 59) % 89) as f64;
                (Rect::from_point(&[x, y]), 1000 + i)
            })
            .collect();
        t.bulk_extend(extra.clone());
        assert_eq!(t.len(), 300);
        t.validate();
        // Every batch item is findable.
        let q = Rect::new(vec![300.0, 300.0], vec![400.0, 400.0]);
        let (found, _) = t.search_collect(&q);
        assert_eq!(found.len(), 180);
        // Empty batch is a no-op.
        t.bulk_extend(Vec::new());
        assert_eq!(t.len(), 300);
    }

    /// The STR order as a comparator sort computed it, reading both
    /// rectangles on every comparison: the reference the keyed sort must
    /// reproduce.
    fn str_sort_by_comparator<T>(entries: &mut [Entry<T>], dim: usize, dims: usize, cap: usize) {
        let n = entries.len();
        if n <= cap || dim >= dims {
            return;
        }
        entries.sort_by(|a, b| center_coord(a.rect(), dim).total_cmp(&center_coord(b.rect(), dim)));
        if dim + 1 == dims {
            return;
        }
        for chunk in entries.chunks_mut(slab_len(n, cap, dims - dim)) {
            str_sort_by_comparator(chunk, dim + 1, dims, cap);
        }
    }

    /// Rectangles whose centres tie often: coordinates from a short list
    /// with `-0.0` beside `+0.0` and negatives, and half-widths that give
    /// equal centres to different rectangles — `-0.0 ± w` (centre `+0.0`)
    /// beside the point `-0.0` (centre `-0.0`) among them.
    fn tied(n: usize, dims: usize, seed: u64) -> Vec<(Rect, usize)> {
        const CENTERS: [f64; 6] = [-2.0, -1.0, -0.0, 0.0, 1.0, 2.5];
        const HALF_WIDTHS: [f64; 3] = [0.0, 0.5, 1.0];
        let mut state = seed;
        let mut next = move |m: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % m
        };
        (0..n)
            .map(|i| {
                let (mut lo, mut hi) = (Vec::new(), Vec::new());
                for _ in 0..dims {
                    let c = CENTERS[next(CENTERS.len())];
                    let w = HALF_WIDTHS[next(HALF_WIDTHS.len())];
                    // `-0.0 + 0.0` is `+0.0`: a point keeps its sign.
                    let (l, h) = if w == 0.0 { (c, c) } else { (c - w, c + w) };
                    lo.push(l);
                    hi.push(h);
                }
                (Rect::new(lo, hi), i)
            })
            .collect()
    }

    /// Leaf order with every bound's bits, and the node layout.
    fn layout(tree: &RStarTree<usize>) -> (Vec<(Vec<u64>, usize)>, String) {
        let leaves = tree
            .iter()
            .map(|(r, &i)| {
                let bits = r.lo().iter().chain(r.hi()).map(|x| x.to_bits()).collect();
                (bits, i)
            })
            .collect();
        (leaves, format!("{tree:?}"))
    }

    #[test]
    fn keyed_str_order_is_the_comparator_order() {
        let config = RTreeConfig::with_max_entries(4);
        for dims in 1..=6 {
            for (n, seed) in [(3usize, 1u64), (9, 2), (64, 3), (300, 4), (1000, 5)] {
                let items = tied(n, dims, seed);
                let what = format!("dims {dims}, n {n}, seed {seed}");
                let want = layout(&bulk_build(
                    config,
                    items.clone(),
                    |entries, dims, cap| str_sort_by_comparator(entries, 0, dims, cap),
                    |groups, level| groups.into_iter().map(|g| pack_node(g, level)).collect(),
                ));
                let got = RStarTree::bulk_load(config, items.clone());
                got.validate();
                assert!(layout(&got) == want, "bulk_load, {what}");
                for threads in [1usize, 2, 4] {
                    let got = RStarTree::bulk_load_parallel(config, items.clone(), threads);
                    assert!(
                        layout(&got) == want,
                        "bulk_load_parallel({threads}), {what}"
                    );
                }

                // A batch into a non-empty tree is inserted in STR order.
                let base = tied(40, dims, seed + 100);
                let mut want = RStarTree::bulk_load(config, base.clone());
                let mut entries: Vec<Entry<usize>> = items
                    .iter()
                    .map(|(rect, item)| Entry::Leaf {
                        rect: rect.clone(),
                        item: *item,
                    })
                    .collect();
                str_sort_by_comparator(&mut entries, 0, dims, config.max_entries);
                for entry in entries {
                    let Entry::Leaf { rect, item } = entry else {
                        unreachable!("leaf entries only")
                    };
                    want.insert(rect, item);
                }
                let mut got = RStarTree::bulk_load(config, base);
                got.bulk_extend(items);
                got.validate();
                assert!(layout(&got) == layout(&want), "bulk_extend, {what}");
            }
        }
    }

    #[test]
    fn chunk_sizes_respect_bounds() {
        for n in [9usize, 33, 100, 1067] {
            for cap in [8usize, 32] {
                if n <= cap {
                    continue;
                }
                let sizes = chunk_sizes(n, cap);
                assert_eq!(sizes.iter().sum::<usize>(), n);
                for &s in &sizes {
                    assert!(s <= cap);
                    assert!(s >= cap / 2, "chunk {s} below half fill (cap {cap}, n {n})");
                }
            }
        }
    }
}
