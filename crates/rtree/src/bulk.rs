//! Sort-Tile-Recursive (STR) bulk loading, straight into flat nodes.
//!
//! Building the index over a whole relation at once (the common case in the
//! paper's experiments, where the data set is loaded and then queried) is
//! much faster with bottom-up packing than with repeated insertion, and
//! produces well-clustered leaves. Repeated insertion remains available for
//! incremental workloads.
//!
//! One loader serves every caller ([`RStarTree::bulk_load_flat`];
//! [`RStarTree::bulk_load`] adapts owned rectangles to it). The number of
//! entries fixes the node layout of every level before anything is sorted
//! — chunk sizes depend on the count alone. The callers write a level's
//! `f64` rectangles into one flat buffer, the STR order is computed on
//! their centres, and each node's `f32` slab is then gathered in that
//! order, every bound rounded outward ([`crate::rect`]), at exactly its
//! node's capacity. The level above sorts on its nodes' `f64` MBRs, folded
//! during the gather: rounding outward is monotone, so every level orders
//! and groups its entries exactly as an all-`f64` tree would, and each
//! stored MBR is still the union of its child's stored bounds.
//!
//! Every sort pass sorts entry indices on each entry's centre coordinate,
//! computed once per pass (a cached key); the stable sort gives the
//! comparator sort's order bit for bit.

use std::cmp::Ordering;

use crate::config::RTreeConfig;
use crate::node::{Kids, Node};
use crate::par::par_for_each_slice;
use crate::rect::{store_extend, union_into, Rect};
use crate::tree::RStarTree;

/// A level's centre coordinates: `center(i, dim)` of entry `i`.
type Centers<'a> = dyn Fn(usize, usize) -> f64 + Sync + 'a;

impl<T> RStarTree<T> {
    /// Builds a tree from `(rect, item)` pairs using STR packing: the
    /// owned-rectangle form of [`RStarTree::bulk_load_flat`], on the
    /// calling thread.
    ///
    /// # Panics
    /// Panics if rectangles disagree in dimensionality.
    pub fn bulk_load(config: RTreeConfig, items: Vec<(Rect, T)>) -> Self {
        let Some((first, _)) = items.first() else {
            return RStarTree::new(config);
        };
        let dims = first.dims();
        for (r, _) in &items {
            assert_eq!(r.dims(), dims, "dimensionality mismatch in bulk load");
        }
        let len = items.len();
        Self::bulk_load_flat(config, dims, len, 1, |slots| {
            let mut payloads = Vec::with_capacity(len);
            for ((rect, item), slot) in items.into_iter().zip(slots) {
                slot.copy_from_slice(rect.view().bounds());
                payloads.push(item);
            }
            payloads
        })
    }

    /// Builds a tree of `len` entries of `dims` dimensions by STR packing,
    /// from rectangles written in place: `fill` receives one slot of
    /// `2·dims` bounds per entry, in entry order, writes each entry's
    /// rectangle into its slot (`lo`, then `hi`) and returns the entries'
    /// payloads in the same order. The slots are one flat `f64` buffer
    /// that lives while the leaves are packed; no rectangle is allocated
    /// on its own.
    ///
    /// Sorting a level fans out over up to `threads` worker threads. The
    /// tree is *identical* at every thread count: the top-level sort is
    /// shared, every slab is sorted on the same key independently of the
    /// others, and chunk boundaries are position-based, so thread count
    /// never changes entry placement.
    ///
    /// The bounds are stored rounded outward to `f32` (`crate::rect`):
    /// like [`Rect::from_point`]'s, they are not validated.
    ///
    /// # Panics
    /// Panics if `fill` returns other than `len` payloads, or if `dims` is
    /// zero for a non-empty load.
    pub fn bulk_load_flat<F>(
        config: RTreeConfig,
        dims: usize,
        len: usize,
        threads: usize,
        fill: F,
    ) -> Self
    where
        F: FnOnce(&mut dyn Iterator<Item = &mut [f64]>) -> Vec<T>,
    {
        str_load(config, dims, len, fill, |order, centers, dims, cap| {
            str_sort_parallel(order, centers, dims, cap, threads)
        })
    }

    /// Inserts a batch of entries: entry `i`'s rectangle is
    /// `bounds[i·w..(i + 1)·w]` (`lo`, then `hi`), `w = bounds.len() /
    /// items.len()`, and its payload `items[i]`.
    ///
    /// Into an empty tree this is a full STR bulk load. Into a non-empty
    /// tree the batch is STR-sorted first and then inserted in that order,
    /// which clusters sibling entries (consecutive trail rectangles of a
    /// subsequence index land in the same leaves) and measurably reduces
    /// node splits versus insertion in arrival order.
    ///
    /// # Panics
    /// Panics if the bounds do not split evenly into one rectangle per
    /// item, or if the rectangles' dimensionality differs from the tree's.
    pub fn bulk_extend(&mut self, bounds: &[f64], mut items: Vec<T>) {
        if items.is_empty() {
            assert!(bounds.is_empty(), "bounds for no items");
            return;
        }
        let n = items.len();
        let w = bounds.len() / n;
        assert!(
            w * n == bounds.len() && w % 2 == 0,
            "{} bounds do not make {n} rectangles",
            bounds.len()
        );
        let rects = || bounds.chunks_exact(w);
        if self.is_empty() {
            *self = RStarTree::bulk_load_flat(self.config, w / 2, n, 1, |slots| {
                for (slot, rect) in slots.zip(rects()) {
                    slot.copy_from_slice(rect);
                }
                items
            });
            return;
        }
        let dims = self.dims().expect("non-empty tree has dimensionality");
        assert_eq!(w / 2, dims, "dimensionality mismatch in bulk extend");
        let mut order: Vec<usize> = (0..n).collect();
        let centers = |i: usize, dim: usize| center(&bounds[i * w..(i + 1) * w], dim);
        str_sort(&mut order, &centers, 0, dims, self.config.max_entries);
        permute(&order, |a, b| items.swap(a, b));
        for (&i, item) in order.iter().zip(items) {
            self.insert_bounds(&bounds[i * w..(i + 1) * w], item);
        }
    }
}

/// The one STR loader: let `fill` write the `len` rectangles into one
/// flat `f64` buffer and hand over the payloads, then pack level by level —
/// ordering each level with `sort` — until one node remains.
fn str_load<T, F, S>(config: RTreeConfig, dims: usize, len: usize, fill: F, sort: S) -> RStarTree<T>
where
    F: FnOnce(&mut dyn Iterator<Item = &mut [f64]>) -> Vec<T>,
    S: Fn(&mut [usize], &Centers<'_>, usize, usize),
{
    config.validate();
    let mut tree = RStarTree::new(config);
    if len == 0 {
        let none = fill(&mut std::iter::empty::<&mut [f64]>());
        assert!(none.is_empty(), "payloads for no entries");
        return tree;
    }
    assert!(dims > 0, "a rectangle needs at least one dimension");
    let shape = (dims, config.max_entries);
    // A level's stored slabs are allocated before its `f64` rectangles,
    // which live only while the level is packed.
    let leaves = reserve(len, shape);
    let mut coords = scratch(len * 2 * dims);
    let items = fill(&mut coords.chunks_exact_mut(2 * dims));
    assert_eq!(items.len(), len, "one payload per rectangle");
    let mut nodes = pack(0, shape, &mut coords, leaves, items, Kids::Items, &sort);
    let mut level = 1;
    while nodes.len() > 1 {
        let parents = reserve(nodes.len(), shape);
        nodes = pack(
            level,
            shape,
            &mut coords,
            parents,
            nodes,
            Kids::Nodes,
            &sort,
        );
        level += 1;
    }
    tree.set_root(nodes.pop().expect("one root"), len);
    tree
}

/// A zeroed buffer of `n` bounds for one level's `f64` rectangles. Past
/// 128 KiB it asks for room for 32 MiB, of which only the first `n` bounds
/// are touched: glibc's malloc serves a request that large with a mapping
/// of its own and unmaps it whole when it is freed, so a large build's
/// scratch never grows a thread's arena, where freed memory can stay
/// resident.
fn scratch(n: usize) -> Vec<f64> {
    const MAPPED: usize = (32 << 20) / size_of::<f64>();
    let room = match n >= (128 << 10) / size_of::<f64>() {
        true => n.max(MAPPED),
        false => n,
    };
    let mut buffer = Vec::with_capacity(room);
    buffer.resize(n, 0.0);
    buffer
}

/// A node's entry count and its empty stored slab, at exactly its
/// entries' capacity.
type Reserved = (usize, Vec<f32>);

/// The stored slabs of the nodes a level of `n` entries packs into: one
/// node when all fit one, else [`chunk_sizes`].
fn reserve(n: usize, (dims, cap): (usize, usize)) -> Vec<Reserved> {
    let sizes = match n <= cap {
        true => vec![n],
        false => chunk_sizes(n, cap),
    };
    let slab = |size| (size, Vec::with_capacity(size * 2 * dims));
    sizes.into_iter().map(slab).collect()
}

/// Packs one level whose `f64` rectangles are `coords` (`2·dims` per
/// payload, in payload order) into the `nodes` [`reserve`] made for it:
/// puts its entries in STR order — unless they all fit one node, which
/// then keeps them in input order — and fills each node's slab with its
/// entries' bounds in stored form. Leaves `coords` holding the nodes'
/// `f64` MBRs, the next level's rectangles.
fn pack<P, T, S>(
    level: u32,
    (dims, cap): (usize, usize),
    coords: &mut Vec<f64>,
    nodes: Vec<Reserved>,
    mut payloads: Vec<P>,
    kids: fn(Vec<P>) -> Kids<T>,
    sort: &S,
) -> Vec<Node<T>>
where
    S: Fn(&mut [usize], &Centers<'_>, usize, usize),
{
    let (w, n) = (2 * dims, payloads.len());
    let mut order: Vec<usize> = (0..n).collect();
    if nodes.len() > 1 {
        let rects: &[f64] = coords;
        sort(
            &mut order,
            &|i, dim| center(&rects[i * w..(i + 1) * w], dim),
            dims,
            cap,
        );
        permute(&order, |a, b| payloads.swap(a, b));
    }
    let mut mbrs = Vec::with_capacity(nodes.len() * w);
    let mut payloads = payloads.into_iter();
    let mut order = order.iter();
    let nodes = nodes
        .into_iter()
        .map(|(size, mut slab)| {
            let start = mbrs.len();
            for (j, &i) in order.by_ref().take(size).enumerate() {
                let rect = &coords[i * w..(i + 1) * w];
                store_extend(&mut slab, rect);
                match j {
                    0 => mbrs.extend_from_slice(rect),
                    _ => union_into(&mut mbrs[start..], rect),
                }
            }
            Node {
                level,
                dims: dims as u32,
                coords: slab,
                kids: kids(payloads.by_ref().take(size).collect()),
            }
        })
        .collect();
    *coords = mbrs;
    nodes
}

/// Rearranges a sequence in place so that position `p` holds what was at
/// `order[p]`, by swapping along each cycle of the permutation.
fn permute(order: &[usize], mut swap: impl FnMut(usize, usize)) {
    let mut done = vec![false; order.len()];
    for start in 0..order.len() {
        let mut j = start;
        while !done[j] {
            done[j] = true;
            let k = order[j];
            if k == start {
                break;
            }
            swap(j, k);
            j = k;
        }
    }
}

/// The parallel form of [`str_sort`] at the top recursion level: the
/// dimension-0 sort stays sequential (one global ordering), then the
/// per-slab recursions — independent by construction — fan out across
/// workers. Slab boundaries come from the same [`slab_len`] as the
/// sequential path and each slab runs the identical sequential `str_sort`,
/// so the resulting ordering matches it exactly. `threads <= 1` is the
/// sequential sort.
fn str_sort_parallel(
    order: &mut [usize],
    centers: &Centers<'_>,
    dims: usize,
    cap: usize,
    threads: usize,
) {
    let n = order.len();
    if threads <= 1 || n <= cap || dims == 1 {
        return str_sort(order, centers, 0, dims, cap);
    }
    sort_by_center(order, centers, 0);
    let slices: Vec<&mut [usize]> = order.chunks_mut(slab_len(n, cap, dims)).collect();
    par_for_each_slice(threads, slices, |slab| {
        str_sort(slab, centers, 1, dims, cap)
    });
}

/// Recursively orders entries in STR fashion: sort the current dimension,
/// slice into vertical slabs sized so each slab packs into roughly equal
/// tiles, recurse on the next dimension within each slab.
fn str_sort(order: &mut [usize], centers: &Centers<'_>, dim: usize, dims: usize, cap: usize) {
    let n = order.len();
    if n <= cap || dim >= dims {
        return;
    }
    sort_by_center(order, centers, dim);
    if dim + 1 == dims {
        return;
    }
    for chunk in order.chunks_mut(slab_len(n, cap, dims - dim)) {
        str_sort(chunk, centers, dim + 1, dims, cap);
    }
}

/// Stable sort by the centre coordinate along `dim`. The key is computed
/// once per entry per pass, so a comparison reads two cached `f64`s; ties
/// keep their input order, so the order is the comparator sort's exactly.
fn sort_by_center(order: &mut [usize], centers: &Centers<'_>, dim: usize) {
    order.sort_by_cached_key(|&i| Center(centers(i, dim)));
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

/// The centre coordinate along `dim` of a rectangle's bounds.
#[inline]
fn center(bounds: &[f64], dim: usize) -> f64 {
    0.5 * (bounds[dim] + bounds[bounds.len() / 2 + dim])
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
    use crate::rect::RectView;

    fn points(n: usize) -> Vec<(Rect, usize)> {
        (0..n)
            .map(|i| {
                let x = ((i * 37) % 211) as f64;
                let y = ((i * 73) % 197) as f64;
                (Rect::from_point(&[x, y]), i)
            })
            .collect()
    }

    /// `items` as flat bounds and payloads.
    fn flat(items: &[(Rect, usize)]) -> (Vec<f64>, Vec<usize>) {
        let bounds = items.iter().flat_map(|(r, _)| r.view().bounds().to_vec());
        (bounds.collect(), items.iter().map(|&(_, i)| i).collect())
    }

    /// [`RStarTree::bulk_load_flat`] over `items`.
    fn load_flat(config: RTreeConfig, items: &[(Rect, usize)], threads: usize) -> RStarTree<usize> {
        let dims = items.first().map_or(1, |(r, _)| r.dims());
        RStarTree::bulk_load_flat(config, dims, items.len(), threads, |slots| {
            for (slot, (rect, _)) in slots.zip(items) {
                slot.copy_from_slice(rect.view().bounds());
            }
            flat(items).1
        })
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
                let par = load_flat(RTreeConfig::with_max_entries(8), &points(n), threads);
                par.validate();
                assert_eq!(par.len(), seq.len());
                assert_eq!(par.height(), seq.height(), "n = {n}, threads = {threads}");
                let a: Vec<(RectView, &usize)> = seq.iter().collect();
                let b: Vec<(RectView, &usize)> = par.iter().collect();
                assert_eq!(a, b, "n = {n}, threads = {threads}: leaf layout differs");
            }
        }
    }

    #[test]
    fn parallel_bulk_load_empty_and_tiny() {
        let t = load_flat(RTreeConfig::default(), &[], 4);
        assert!(t.is_empty());
        let t = load_flat(RTreeConfig::with_max_entries(8), &points(3), 4);
        assert_eq!(t.len(), 3);
        t.validate();
    }

    #[test]
    fn bulk_extend_empty_tree_is_bulk_load() {
        let mut t: RStarTree<usize> = RStarTree::new(RTreeConfig::with_max_entries(8));
        let (bounds, items) = flat(&points(300));
        t.bulk_extend(&bounds, items);
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
        let (bounds, items) = flat(&extra);
        t.bulk_extend(&bounds, items);
        assert_eq!(t.len(), 300);
        t.validate();
        // Every batch item is findable.
        let q = Rect::new(vec![300.0, 300.0], vec![400.0, 400.0]);
        let (found, _) = t.search_collect(&q);
        assert_eq!(found.len(), 180);
        // Empty batch is a no-op.
        t.bulk_extend(&[], Vec::new());
        assert_eq!(t.len(), 300);
    }

    /// The STR order as a comparator sort computed it, reading both
    /// rectangles on every comparison: the reference the keyed sort must
    /// reproduce.
    fn str_sort_by_comparator(
        order: &mut [usize],
        centers: &Centers<'_>,
        dim: usize,
        dims: usize,
        cap: usize,
    ) {
        let n = order.len();
        if n <= cap || dim >= dims {
            return;
        }
        order.sort_by(|&a, &b| centers(a, dim).total_cmp(&centers(b, dim)));
        if dim + 1 == dims {
            return;
        }
        for chunk in order.chunks_mut(slab_len(n, cap, dims - dim)) {
            str_sort_by_comparator(chunk, centers, dim + 1, dims, cap);
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
                let bits = r.lo().iter().chain(r.hi()).map(f64::to_bits).collect();
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
                let fill = |slots: &mut dyn Iterator<Item = &mut [f64]>| {
                    for (slot, (rect, _)) in slots.zip(&items) {
                        slot.copy_from_slice(rect.view().bounds());
                    }
                    flat(&items).1
                };
                let want = layout(&str_load(
                    config,
                    dims,
                    n,
                    fill,
                    |order, centers, dims, cap| {
                        str_sort_by_comparator(order, centers, 0, dims, cap)
                    },
                ));
                let got = RStarTree::bulk_load(config, items.clone());
                got.validate();
                assert!(layout(&got) == want, "bulk_load, {what}");
                for threads in [1usize, 2, 4] {
                    let got = load_flat(config, &items, threads);
                    assert!(layout(&got) == want, "bulk_load_flat({threads}), {what}");
                }

                // A batch into a non-empty tree is inserted in STR order.
                let base = tied(40, dims, seed + 100);
                let mut want = RStarTree::bulk_load(config, base.clone());
                let mut order: Vec<usize> = (0..n).collect();
                let centers = |i: usize, dim: usize| center(items[i].0.view().bounds(), dim);
                str_sort_by_comparator(&mut order, &centers, 0, dims, config.max_entries);
                for i in order {
                    want.insert(items[i].0.clone(), items[i].1);
                }
                let mut got = RStarTree::bulk_load(config, base);
                let (bounds, payloads) = flat(&items);
                got.bulk_extend(&bounds, payloads);
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
