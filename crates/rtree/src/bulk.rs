//! Sort-Tile-Recursive (STR) bulk loading, straight into flat nodes.
//!
//! This is the one way a tree is built. Building the index over a whole
//! relation at once (the common case in the paper's experiments, where the
//! data set is loaded and then queried) is much faster with bottom-up
//! packing than with repeated insertion, and produces well-clustered
//! leaves; a relation that grows is packed again by its next reader.
//!
//! One loader serves every caller ([`RStarTree::bulk_load_flat`];
//! [`RStarTree::bulk_load`] adapts owned rectangles to it). The number of
//! entries fixes the node layout of every level before anything is sorted
//! — chunk sizes depend on the count alone. The callers write the leaves'
//! `f64` rectangles into one flat buffer, and every bound there is rounded
//! outward in place, once, to the `f32` its leaf stores ([`crate::rect`]).
//! The STR order is computed on the centres of those stored bounds, and
//! each node's `f32` slab is then gathered in that order — a copy of exact
//! values — at exactly its node's capacity. The level above sorts on its
//! nodes' MBRs, folded during the gather from the same exact values, so
//! each stored MBR is the union of its child's stored bounds. STR thus
//! keys on nothing but the bounds it stores: a tree's own leaf entries,
//! loaded again in the order they were first given, pack to the same tree
//! bit for bit, which is how a grown ST-index repacks to what a rebuild
//! over the same series builds (`tsq-core`).
//!
//! Every sort pass computes each entry's centre coordinate once, as a
//! `u64` key in `f64::total_cmp`'s order packed into one `u128` word above
//! the entry's position and index, and sorts the words: positions break
//! ties as a stable sort would, so the order is the comparator sort's bit
//! for bit. One scratch buffer of a word an entry serves a level's whole
//! sort run, each slab sorting in its own part of it, so a level's sorts
//! allocate once, on the calling thread.
//!
//! A level of at least [`FAN_OUT_MIN`] entries fans out over the
//! [`tsq_pool`] executor twice: for the per-slab sorts below its
//! dimension-0 sort, which stays on the calling thread, and for the
//! gather, over contiguous groups of nodes. The caller reserves every
//! slab, allocates the level's MBR buffer and splits the payloads into
//! each node's kids; in the gather a worker only copies its nodes' entries
//! into their slabs (within the capacity reserved for them) and folds
//! their MBRs into its own slice of that buffer. Nothing a worker
//! allocates outlives the load, and the tree is the sequential one at
//! every thread count.

use crate::config::RTreeConfig;
use crate::node::{Kids, Node};
use crate::par::{par_for_each, parallel_map};
use crate::rect::{round_outward, union_into, Rect};
use crate::tree::RStarTree;

/// A level's centre coordinates: `center(i, dim)` of entry `i`.
type Centers<'a> = dyn Fn(usize, usize) -> f64 + Sync + 'a;

/// Fewest entries a level needs before its sorts and its gather fan out;
/// a smaller level is packed on the calling thread. Handing a batch to the
/// pool costs about 9 µs (`pool.map_submit_us`). On one thread a build's
/// sorts take about 100 ns an entry and its gather 17–24 ns, the rounding
/// and the MBR fold being branch-free (8 000 6-d points: 0.80 and 0.14 ms;
/// 48 400 6-d trails: 5.0 and 1.2 ms; 2-vCPU VM), so 4 096 entries are
/// about 0.4 ms of sorting, of which the hand-off is 2 %, and 0.07–0.10 ms
/// of gather, of which it is 9–13 %: the second thread still halves the
/// rest. A whole-match repack of a few hundred series stays on the calling
/// thread.
const FAN_OUT_MIN: usize = 4096;

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
        Self::bulk_load_flat(config, dims, len, 1, |rects, payloads| {
            for ((rect, item), slot) in items.into_iter().zip(rects.chunks_exact_mut(2 * dims)) {
                slot.copy_from_slice(rect.view().bounds());
                payloads.push(item);
            }
        })
    }

    /// Builds a tree of `len` entries of `dims` dimensions by STR packing,
    /// from rectangles written in place: `fill` receives one flat `f64`
    /// buffer of `len` slots of `2·dims` bounds, back to back in entry
    /// order, and an empty payload vector with room for `len`; it writes
    /// entry `i`'s rectangle into slot `i` (`lo`, then `hi`), in any order,
    /// and pushes the entries' payloads in entry order. The buffer lives
    /// while the leaves are packed; no rectangle is allocated on its own.
    /// Past 128 KiB, each of the two buffers is a mapping of its own, as
    /// the loader's scratch is (see `room`).
    ///
    /// Sorting a level and gathering its nodes fan out over up to
    /// `threads` worker threads once the level holds a few thousand
    /// entries (see the module docs). The tree is *identical* at every
    /// thread count: the top-level sort is shared, every slab is sorted
    /// on the same key independently of the others, chunk boundaries are
    /// position-based, and each node is gathered from the same entries
    /// into the slab reserved for it, so thread count never changes entry
    /// placement.
    ///
    /// The bounds are stored rounded outward to `f32` (`crate::rect`), and
    /// STR orders the entries on those stored bounds (see the module
    /// docs); like [`Rect::from_point`]'s, they are not validated.
    ///
    /// # Panics
    /// Panics if `fill` pushes other than `len` payloads, or if `dims` is
    /// zero for a non-empty load.
    pub fn bulk_load_flat<F>(
        config: RTreeConfig,
        dims: usize,
        len: usize,
        threads: usize,
        fill: F,
    ) -> Self
    where
        F: FnOnce(&mut [f64], &mut Vec<T>),
    {
        let fill = |rects: &mut [f64]| {
            let mut payloads = Vec::with_capacity(room::<T>(len));
            fill(rects, &mut payloads);
            payloads
        };
        str_load(config, dims, len, threads, fill, str_sort_parallel)
    }
}

/// The one STR loader: let `fill` write the `len` rectangles into one
/// flat `f64` buffer and hand over the payloads, then pack level by level —
/// ordering each level with `sort` — until one node remains, a level of
/// [`FAN_OUT_MIN`] entries or more on up to `threads` threads.
fn str_load<T, F, S>(
    config: RTreeConfig,
    dims: usize,
    len: usize,
    threads: usize,
    fill: F,
    sort: S,
) -> RStarTree<T>
where
    F: FnOnce(&mut [f64]) -> Vec<T>,
    S: Fn(&mut [usize], &Centers<'_>, usize, usize, usize),
{
    config.validate();
    let mut tree = RStarTree::new(config);
    if len == 0 {
        let none = fill(&mut []);
        assert!(none.is_empty(), "payloads for no entries");
        return tree;
    }
    assert!(dims > 0, "a rectangle needs at least one dimension");
    let cap = config.max_entries;
    let load = Load {
        dims,
        cap,
        threads,
        sort,
    };
    // A level's stored slabs are allocated before its `f64` rectangles,
    // which live only while the level is packed.
    let leaves = reserve(len, dims, cap);
    let mut coords = scratch(len * 2 * dims);
    let items = fill(&mut coords);
    assert_eq!(items.len(), len, "one payload per rectangle");
    // STR keys on the bounds the leaves store: rounded here, once.
    for rect in coords.chunks_exact_mut(2 * dims) {
        round_outward(rect);
    }
    let mut nodes = pack(0, &load, &mut coords, leaves, items, Kids::Items);
    let mut level = 1;
    while nodes.len() > 1 {
        let parents = reserve(nodes.len(), dims, cap);
        nodes = pack(level, &load, &mut coords, parents, nodes, Kids::Nodes);
        level += 1;
    }
    tree.set_root(nodes.pop().expect("one root"), len);
    tree
}

/// Room for `n` values of a load's buffers — its payloads, and every
/// [`scratch`] buffer: past 128 KiB, room for 32 MiB, of which only the
/// first `n` values are touched. glibc's malloc serves a request that
/// large with a mapping of its own, which the kernel zeroes page by page
/// as it is first touched and which is unmapped whole when it is freed,
/// so a large build's buffers never grow a thread's arena or leave a hole
/// in it: freed arena memory can stay resident, and later allocations that
/// land in a hole below a tree keep the tree's memory at the arena's top
/// once it is dropped, where `malloc_trim` does not reach in a thread's
/// arena.
fn room<T>(n: usize) -> usize {
    let size = size_of::<T>();
    match n * size >= 128 << 10 {
        true => n.max((32 << 20) / size),
        false => n,
    }
}

/// A zeroed buffer of `n` values, at [`room`]: one level's `f64`
/// rectangles, its STR order and MBRs, or a sort run's words. A mapping is
/// zeroed by the kernel, so nothing `memset`s it.
fn scratch<T: Copy + Default>(n: usize) -> Vec<T> {
    let mut buffer = vec![T::default(); room::<T>(n)];
    buffer.truncate(n);
    buffer
}

/// A node's entry count and its empty stored slab, at exactly its
/// entries' capacity.
type Reserved = (usize, Vec<f32>);

/// What a load holds fixed from level to level: the rectangles'
/// dimensionality, the node capacity, the threads a level of
/// [`FAN_OUT_MIN`] entries or more fans out over, and the sort that puts
/// a level in STR order.
struct Load<S> {
    dims: usize,
    cap: usize,
    threads: usize,
    sort: S,
}

/// The stored slabs of the nodes a level of `n` entries of `dims`
/// dimensions packs into at capacity `cap`: one node when all fit one,
/// else [`chunk_sizes`].
fn reserve(n: usize, dims: usize, cap: usize) -> Vec<Reserved> {
    let sizes = match n <= cap {
        true => vec![n],
        false => chunk_sizes(n, cap),
    };
    let slab = |size| (size, Vec::with_capacity(size * 2 * dims));
    sizes.into_iter().map(slab).collect()
}

/// Packs one level whose rectangles are `coords` (`2·dims` per payload, in
/// payload order, each bound an `f32` widened) into the `nodes`
/// [`reserve`] made for it:
/// puts its entries in STR order — unless they all fit one node, which
/// then keeps them in input order — and fills each node's slab with its
/// entries' bounds ([`gather`]). Leaves `coords` holding the nodes' MBRs,
/// the next level's rectangles.
fn pack<P, T, S>(
    level: u32,
    load: &Load<S>,
    coords: &mut Vec<f64>,
    mut nodes: Vec<Reserved>,
    mut payloads: Vec<P>,
    kids: fn(Vec<P>) -> Kids<T>,
) -> Vec<Node<T>>
where
    S: Fn(&mut [usize], &Centers<'_>, usize, usize, usize),
{
    let Load {
        dims,
        cap,
        threads,
        ref sort,
    } = *load;
    let (w, n) = (2 * dims, payloads.len());
    let threads = match n >= FAN_OUT_MIN {
        true => threads,
        false => 1,
    };
    let mut order: Vec<usize> = scratch(n);
    for (i, slot) in order.iter_mut().enumerate() {
        *slot = i;
    }
    if nodes.len() > 1 {
        let rects: &[f64] = coords;
        sort(
            &mut order,
            &|i, dim| center(&rects[i * w..(i + 1) * w], dim),
            dims,
            cap,
            threads,
        );
        permute(&order, |a, b| payloads.swap(a, b));
    }
    let mut mbrs = scratch(nodes.len() * w);
    gather(coords, &order, &mut nodes, &mut mbrs, w, threads);
    *coords = mbrs;
    let mut payloads = payloads.into_iter();
    nodes
        .into_iter()
        .map(|(size, slab)| Node {
            level,
            dims: dims as u32,
            coords: slab,
            kids: kids(payloads.by_ref().take(size).collect()),
        })
        .collect()
}

/// Fills each node's slab with the bounds of its entries — the next
/// `size` of `order`, reading rectangles `w` bounds wide from `rects`,
/// whose every bound is an `f32` widened, so each cast is exact — and
/// folds its MBR into its `w` bounds of `mbrs`. On
/// up to `threads` threads, each taking a contiguous group of nodes and
/// the disjoint slices of `order` and `mbrs` that group owns; every slab
/// was reserved at its node's capacity, so no thread allocates here.
fn gather(
    rects: &[f64],
    order: &[usize],
    nodes: &mut [Reserved],
    mbrs: &mut [f64],
    w: usize,
    threads: usize,
) {
    let fill = |(order, nodes, mbrs): (&[usize], &mut [Reserved], &mut [f64])| {
        let mut order = order.iter();
        for ((size, slab), mbr) in nodes.iter_mut().zip(mbrs.chunks_exact_mut(w)) {
            for (j, &i) in order.by_ref().take(*size).enumerate() {
                let rect = &rects[i * w..(i + 1) * w];
                slab.extend(rect.iter().map(|&b| b as f32));
                match j {
                    0 => mbr.copy_from_slice(rect),
                    _ => union_into(mbr, rect),
                }
            }
        }
    };
    if threads <= 1 {
        return fill((order, nodes, mbrs));
    }
    let per = nodes.len().div_ceil(threads);
    let mut rest = order;
    let groups = nodes
        .chunks_mut(per)
        .zip(mbrs.chunks_mut(per * w))
        .map(|(group, mbrs)| {
            let (ids, tail) = rest.split_at(group.iter().map(|&(size, _)| size).sum());
            rest = tail;
            (ids, group, mbrs)
        })
        .collect();
    parallel_map(threads, groups, fill);
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
/// sequential sort. The run's one scratch buffer is allocated here, on
/// the calling thread; each slab sorts in its own part of it.
fn str_sort_parallel(
    order: &mut [usize],
    centers: &Centers<'_>,
    dims: usize,
    cap: usize,
    threads: usize,
) {
    let n = order.len();
    let room = &mut scratch(n);
    if threads <= 1 || n <= cap || dims == 1 {
        return str_sort(order, room, centers, 0, dims, cap);
    }
    sort_by_center(order, room, centers, 0);
    let len = slab_len(n, cap, dims);
    let slabs = order.chunks_mut(len).zip(room.chunks_mut(len));
    par_for_each(threads, slabs.collect(), |(slab, room)| {
        str_sort(slab, room, centers, 1, dims, cap)
    });
}

/// Recursively orders entries in STR fashion: sort the current dimension,
/// slice into vertical slabs sized so each slab packs into roughly equal
/// tiles, recurse on the next dimension within each slab. `room` is
/// `order.len()` words of scratch; each slab sorts in its own part.
fn str_sort(
    order: &mut [usize],
    room: &mut [u128],
    centers: &Centers<'_>,
    dim: usize,
    dims: usize,
    cap: usize,
) {
    let n = order.len();
    if n <= cap || dim >= dims {
        return;
    }
    sort_by_center(order, room, centers, dim);
    if dim + 1 == dims {
        return;
    }
    let len = slab_len(n, cap, dims - dim);
    for (slab, room) in order.chunks_mut(len).zip(room.chunks_mut(len)) {
        str_sort(slab, room, centers, dim + 1, dims, cap);
    }
}

/// Stable sort by the centre coordinate along `dim` under
/// `f64::total_cmp`'s order: ties keep their input order, so the order is
/// the comparator sort's exactly. Each entry's key is computed once, into
/// `room` (`order.len()` words), as one word: its centre's [`total_key`]
/// above its position and its index, so sorting the words orders by key,
/// then position.
fn sort_by_center(order: &mut [usize], room: &mut [u128], centers: &Centers<'_>, dim: usize) {
    let n = order.len();
    assert!(u32::try_from(n).is_ok(), "{n} entries overflow a sort word");
    for (p, (word, &i)) in room.iter_mut().zip(order.iter()).enumerate() {
        let key = u128::from(total_key(centers(i, dim)));
        *word = key << 64 | (p as u128) << 32 | i as u128;
    }
    room.sort_unstable();
    for (i, &word) in order.iter_mut().zip(room.iter()) {
        *i = word as u32 as usize;
    }
}

/// `x`'s bits as an unsigned key whose order is `f64::total_cmp`'s: a
/// negative value's bits all flipped, a positive value's sign bit set.
#[inline]
fn total_key(x: f64) -> u64 {
    let bits = x.to_bits();
    bits ^ ((bits as i64 >> 63) as u64 | 1 << 63)
}

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
/// possible so that every chunk (not just all but the last) is at least
/// half full: with `k = ceil(n / cap)` chunks, sizes are `n/k` or
/// `n/k + 1`, and `n/k >= cap/2` (what `RStarTree::validate` checks).
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

    /// [`RStarTree::bulk_load_flat`] over `items`.
    fn load_flat(config: RTreeConfig, items: &[(Rect, usize)], threads: usize) -> RStarTree<usize> {
        let dims = items.first().map_or(1, |(r, _)| r.dims());
        RStarTree::bulk_load_flat(config, dims, items.len(), threads, |rects, payloads| {
            for (slot, (rect, _)) in rects.chunks_exact_mut(2 * dims).zip(items) {
                slot.copy_from_slice(rect.view().bounds());
            }
            payloads.extend(items.iter().map(|&(_, i)| i))
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
        // A load whose two lowest levels fan out, of rectangles whose
        // centres tie often: every node's level, payloads and stored
        // slab — the leaves' bounds and the inner nodes' MBRs — bit for
        // bit those of the sequential load.
        let (dims, config) = (3, RTreeConfig::with_max_entries(4));
        let items = tied(4 * FAN_OUT_MIN + 3, dims, 7);
        let seq = load_flat(config, &items, 1);
        assert!(seq.height() >= 3, "a deep tree");
        for threads in [2usize, 3, 8] {
            let par = load_flat(config, &items, threads);
            assert!(
                slabs(&par.root) == slabs(&seq.root),
                "threads = {threads}: a node differs"
            );
        }
    }

    /// Every node in pre-order: its level, its stored slab's bits and, for
    /// a leaf, its payloads.
    fn slabs(node: &Node<usize>) -> Vec<(u32, Vec<u32>, Vec<usize>)> {
        let bits = node.coords.iter().map(|b| b.to_bits()).collect();
        match &node.kids {
            Kids::Items(items) => vec![(node.level, bits, items.clone())],
            Kids::Nodes(children) => {
                let below = children.iter().flat_map(slabs);
                std::iter::once((node.level, bits, Vec::new()))
                    .chain(below)
                    .collect()
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
                let fill = |rects: &mut [f64]| {
                    for (slot, (rect, _)) in rects.chunks_exact_mut(2 * dims).zip(&items) {
                        slot.copy_from_slice(rect.view().bounds());
                    }
                    items.iter().map(|&(_, i)| i).collect()
                };
                let want = layout(&str_load(
                    config,
                    dims,
                    n,
                    1,
                    fill,
                    |order, centers, dims, cap, _| {
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
            }
        }
    }

    #[test]
    fn packed_str_order_is_the_comparator_order() {
        // Centres from short lists, so exact ties are common: every class
        // of `f64` in the first (NaNs of both signs among them), and
        // values a few units in the last place apart in the second, whose
        // keys differ in their lowest bits alone — 31 in 40 of them 1.0.
        let special = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001),
            f64::from_bits(0xfff8_0000_0000_00ff),
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            -f64::MIN_POSITIVE,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            1.0,
            -1.0,
            2.5e-300,
            -7.0e12,
        ];
        let close: Vec<f64> = (0..40u64)
            .map(|j| f64::from_bits(1.0f64.to_bits() + j.saturating_sub(30)))
            .collect();
        let n = FAN_OUT_MIN + 5;
        let cap = 4;
        for (values, dims) in [(&special[..], 3usize), (&close[..], 2), (&special[..], 1)] {
            let mut state = 0x5eed_u64 + dims as u64;
            let table: Vec<f64> = (0..n * dims)
                .map(|_| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    values[(state >> 33) as usize % values.len()]
                })
                .collect();
            let centers = |i: usize, dim: usize| table[i * dims + dim];
            let mut want: Vec<usize> = (0..n).collect();
            str_sort_by_comparator(&mut want, &centers, 0, dims, cap);
            for threads in [1usize, 2, 3] {
                let mut got: Vec<usize> = (0..n).collect();
                str_sort_parallel(&mut got, &centers, dims, cap, threads);
                assert!(got == want, "dims {dims}, threads {threads}");
            }
        }
    }

    /// STR keys on the bounds it stores, so a tree's own leaf entries —
    /// stored bounds, widened — loaded again in their first order build
    /// the same tree, at every thread count, though few of the first
    /// load's bounds were `f32`s.
    #[test]
    fn a_tree_repacked_from_its_own_entries_is_the_same_tree() {
        let items: Vec<(Rect, usize)> = (0..3 * FAN_OUT_MIN)
            .map(|i| {
                let x = ((i * 37) % 211) as f64 / 3.0;
                let y = 1e-3 * ((i * 73) % 197) as f64;
                (Rect::new(vec![x, y, -y], vec![x + 0.1, y, 0.7 * x]), i)
            })
            .collect();
        let config = RTreeConfig::with_max_entries(8);
        let first = load_flat(config, &items, 2);
        let mut entries: Vec<(Rect, usize)> =
            first.iter().map(|(r, &i)| (r.to_rect(), i)).collect();
        assert!(entries
            .iter()
            .zip(&items)
            .any(|((r, _), (item, _))| r != item));
        entries.sort_by_key(|&(_, i)| i);
        for threads in [1usize, 2] {
            let again = load_flat(config, &entries, threads);
            assert!(
                slabs(&again.root) == slabs(&first.root),
                "threads = {threads}"
            );
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
