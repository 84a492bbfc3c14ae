//! The paged-store contract: the one range visitor and kNN loop answer
//! byte-identically over a [`PagedTree`] and over the in-memory tree it
//! was created from — same results in the same order,
//! same traversal counters — at every pool capacity, including a single
//! page and an unbounded pool. On a fully warm pool, `pool_misses` must be
//! exactly zero, and a hostile page is a typed error from every traversal.

use tsq_rtree::config::PAGE_ALIGN;
use tsq_rtree::SearchStats;
use tsq_rtree::{PageCache, PagedTree, RStarTree, RTreeConfig, Rect};
use tsq_store::{crc32, StoreError};
use tsq_testkit::{property, Rng};

/// Cases per property.
const CASES: u32 = 24;

fn temp_path(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tsq-paged-mirror-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    dir.join(format!("{tag}.pages"))
}

fn build(points: &[(f64, f64)], fanout: usize) -> RStarTree<usize> {
    let items = points.iter().enumerate();
    let items = items
        .map(|(i, &(x, y))| (Rect::from_point(&[x, y]), i))
        .collect();
    RStarTree::bulk_load(RTreeConfig::with_max_entries(fanout), items)
}

/// A cache of `capacity` pages of `page_size` bytes.
fn cache_of(capacity: usize, page_size: usize) -> std::sync::Arc<PageCache> {
    PageCache::new((capacity as u64).saturating_mul(page_size as u64))
}

fn paged_copy(tree: &RStarTree<usize>, tag: &str, capacity: usize) -> PagedTree {
    let path = temp_path(tag);
    let page_size = tree.paged_page_size().unwrap();
    PagedTree::create(&path, tree, |&i| i as u64, &cache_of(capacity, page_size)).unwrap()
}

/// Traversal counters must agree exactly; the pool counters are extra
/// information the in-memory tree cannot have.
fn assert_counters_match(mem: &SearchStats, paged: &SearchStats, what: &str) {
    assert_eq!(mem.nodes_visited, paged.nodes_visited, "{what}: nodes");
    assert_eq!(mem.leaves_visited, paged.leaves_visited, "{what}: leaves");
    assert_eq!(mem.entries_tested, paged.entries_tested, "{what}: entries");
    assert_eq!(mem.candidates, paged.candidates, "{what}: candidates");
    assert_eq!(mem.pool_hits, 0, "{what}: mem trees never touch a pool");
    assert_eq!(mem.pool_misses, 0, "{what}: mem trees never touch a pool");
}

fn point(rng: &mut Rng) -> (f64, f64) {
    (rng.float(-1e3..1e3), rng.float(-1e3..1e3))
}

fn points(rng: &mut Rng, max: usize) -> Vec<(f64, f64)> {
    rng.list(1..=max, point)
}

/// Range queries agree at pool capacities 1, 3, and unbounded.
#[test]
fn range_mirrors_memory() {
    let draw = |rng: &mut Rng| (points(rng, 250), rng.range(4, 11));
    property("range_mirrors_memory", CASES, draw, |points, &fanout| {
        let tree = build(points, fanout);
        let q = Rect::new(vec![-300.0, -450.0], vec![500.0, 350.0]);
        let mut mem_rows = Vec::new();
        let mem_stats = tree.search(&q, |_, &i| mem_rows.push(i));
        for capacity in [1usize, 3, usize::MAX] {
            let paged = paged_copy(&tree, &format!("range-{fanout}-{capacity}"), capacity);
            let mut rows = Vec::new();
            let stats = paged.search(&q, |_, i| rows.push(i as usize)).unwrap();
            assert_eq!(&rows, &mem_rows, "capacity {capacity}");
            assert_counters_match(&mem_stats, &stats, "range");
            assert_eq!(
                stats.pool_hits + stats.pool_misses,
                paged.pool().hits() + paged.pool().misses(),
                "per-query pool counters must equal the pool's own (fresh pool)"
            );
        }
    });
}

/// kNN agrees — results, order, ties, counters — at extreme capacities.
#[test]
fn knn_mirrors_memory() {
    let draw = |rng: &mut Rng| (points(rng, 200), (point(rng), rng.range(1, 15)));
    property("knn_mirrors_memory", CASES, draw, |points, &(q, k)| {
        let tree = build(points, 6);
        let (mem_res, mem_stats) = tree.nearest_to_point(k, &[q.0, q.1]);
        for capacity in [1usize, usize::MAX] {
            let paged = paged_copy(&tree, &format!("knn-{k}-{capacity}"), capacity);
            let (res, stats) = paged.nearest_to_point(k, &[q.0, q.1]).unwrap();
            assert_eq!(res.len(), mem_res.len());
            for (got, want) in res.iter().zip(&mem_res) {
                assert_eq!(got.item as usize, *want.item, "capacity {capacity}");
                assert_eq!(got.distance.to_bits(), want.distance.to_bits());
            }
            assert_counters_match(&mem_stats, &stats, "knn");
        }
    });
}

/// Duplicated points put several items at exactly the k-th distance:
/// the `(distance, key)` boundary picks the same ones on both stores.
#[test]
fn knn_ties_mirror_memory() {
    let draw = |rng: &mut Rng| {
        let points = points(rng, 40);
        (points, (rng.range(2, 4), point(rng), rng.range(1, 23)))
    };
    property(
        "knn_ties_mirror_memory",
        CASES,
        draw,
        |points, &(copies, q, k)| {
            let duplicated: Vec<(f64, f64)> = points
                .iter()
                .flat_map(|&p| std::iter::repeat(p).take(copies))
                .collect();
            let tree = build(&duplicated, 5);
            let point = [q.0, q.1];
            let (mem_res, mem_stats) = tree.nearest_with_tie(
                k,
                |rect| rect.min_dist2(&point).sqrt(),
                |rect, _| rect.min_dist2(&point).sqrt(),
                // Descending ids: the key order is not the load order.
                |&i| u64::MAX - i as u64,
            );
            // The retained set is the k smallest by (distance, key), each
            // distance taken to the item's stored (outward-rounded) rectangle.
            let mut want: Vec<(f64, u64)> = tree
                .iter()
                .map(|(rect, &i)| (rect.min_dist2(&point).sqrt(), u64::MAX - i as u64))
                .collect();
            want.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            want.truncate(k);
            let got: Vec<(f64, u64)> = mem_res
                .iter()
                .map(|n| (n.distance, u64::MAX - *n.item as u64))
                .collect();
            assert_eq!(got, want);
            for capacity in [1usize, 3, usize::MAX] {
                let paged = paged_copy(&tree, &format!("ties-{k}-{copies}-{capacity}"), capacity);
                let (res, stats) = paged
                    .nearest_with_tie(
                        k,
                        |rect| rect.min_dist2(&point).sqrt(),
                        |rect, _| rect.min_dist2(&point).sqrt(),
                        |i| u64::MAX - i,
                    )
                    .unwrap();
                assert_eq!(res.len(), mem_res.len());
                for (got, want) in res.iter().zip(&mem_res) {
                    assert_eq!(got.item as usize, *want.item, "capacity {capacity}");
                    assert_eq!(got.distance.to_bits(), want.distance.to_bits());
                }
                assert_counters_match(&mem_stats, &stats, "knn ties");
            }
        },
    );
}

#[test]
fn warm_pool_has_zero_misses() {
    let points: Vec<(f64, f64)> = (0..400)
        .map(|i| (((i * 37) % 101) as f64, ((i * 53) % 97) as f64))
        .collect();
    let tree = build(&points, 6);
    let paged = paged_copy(&tree, "warm", usize::MAX);
    let q = Rect::new(vec![-10.0, -10.0], vec![200.0, 200.0]);

    // Cold pass: every distinct page visited is a miss.
    let cold = paged.search(&q, |_, _| {}).unwrap();
    assert!(cold.pool_misses > 0, "cold pass must fault pages in");
    assert_eq!(cold.pool_misses, paged.pool().misses());

    // Warm pass over an unbounded pool: all hits, zero misses.
    let warm = paged.search(&q, |_, _| {}).unwrap();
    assert_eq!(warm.pool_misses, 0, "warm unbounded pool must not fault");
    assert_eq!(warm.pool_hits, warm.nodes_visited);
    assert_eq!(paged.pool().misses(), cold.pool_misses);

    // Flush resets residency: the next pass faults again.
    paged.pool().flush();
    let refetched = paged.search(&q, |_, _| {}).unwrap();
    assert_eq!(refetched.pool_misses, cold.pool_misses);
}

#[test]
fn capacity_one_pool_thrashes_but_stays_correct() {
    let points: Vec<(f64, f64)> = (0..300)
        .map(|i| (((i * 71) % 103) as f64, ((i * 29) % 89) as f64))
        .collect();
    let tree = build(&points, 5);
    let paged = paged_copy(&tree, "thrash", 1);
    let q = Rect::new(vec![0.0, 0.0], vec![60.0, 60.0]);
    let mut mem_rows = Vec::new();
    tree.search(&q, |_, &i| mem_rows.push(i));
    let first = paged.search(&q, |_, _| {}).unwrap();
    let mut rows = Vec::new();
    let second = paged.search(&q, |_, i| rows.push(i as usize)).unwrap();
    assert_eq!(rows, mem_rows);
    // A capacity-1 pool re-faults almost everything; only the pinned
    // ancestor chain can hit. Misses must dominate.
    assert!(second.pool_misses > 0);
    assert_eq!(first.nodes_visited, second.nodes_visited);
    assert_eq!(
        paged.pool().hits() + paged.pool().misses(),
        first.pool_hits + first.pool_misses + second.pool_hits + second.pool_misses
    );
}

/// Rewrites the payload of one page in place and reseals its checksum.
fn patch_page(bytes: &mut [u8], page_size: usize, page: u64, patch: impl FnOnce(&mut [u8])) {
    let start = PAGE_ALIGN + page as usize * page_size;
    let len = u32::from_le_bytes(bytes[start..start + 4].try_into().unwrap()) as usize;
    let payload = &mut bytes[start + 8..start + 8 + len];
    patch(payload);
    let crc = crc32(payload);
    bytes[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
}

/// A 2-D entry is 32 bytes of bounds then its word; the first entry
/// follows the 8-byte level/count prefix.
const FIRST_WORD: std::ops::Range<usize> = 8 + 32..8 + 32 + 8;

/// Damages a page file's bytes, given its page size and page count.
type Damage = fn(&mut Vec<u8>, usize, u64);

#[test]
fn hostile_pages_are_typed_errors_from_every_traversal() {
    let points: Vec<(f64, f64)> = (0..200)
        .map(|i| (((i * 37) % 101) as f64, ((i * 53) % 97) as f64))
        .collect();
    let tree = build(&points, 5);
    assert!(tree.height() >= 3);
    let page_size = tree.paged_page_size().unwrap();
    // Pages are written children first: page 0 is a leaf every full
    // traversal reaches with its ancestors pinned, the root is the last.
    let cases: [(&str, Damage, &str); 3] = [
        (
            "flipped-crc",
            |bytes, _, _| bytes[PAGE_ALIGN + 8 + 3] ^= 0xff,
            "checksum",
        ),
        // The root's first child is the root itself: unchecked, a
        // traversal would recurse without end.
        (
            "wrong-level-child",
            |bytes, page_size, pages| {
                let root = pages - 1;
                patch_page(bytes, page_size, root, |p| {
                    p[FIRST_WORD].copy_from_slice(&root.to_le_bytes())
                })
            },
            "corrupt",
        ),
        (
            "child-out-of-range",
            |bytes, page_size, pages| {
                patch_page(bytes, page_size, pages - 1, |p| {
                    p[FIRST_WORD].copy_from_slice(&(pages + 7).to_le_bytes())
                })
            },
            "corrupt",
        ),
    ];
    for (tag, damage, want) in cases {
        let path = temp_path(&format!("hostile-{tag}"));
        for capacity in [1usize, usize::MAX] {
            let cache = cache_of(capacity, page_size);
            let paged = PagedTree::create(&path, &tree, |&i| i as u64, &cache).unwrap();
            let mut bytes = std::fs::read(&path).unwrap();
            damage(&mut bytes, paged.page_size(), paged.page_count());
            std::fs::write(&path, &bytes).unwrap();
            let errors = [
                (
                    "search",
                    paged.search_with(|_| true, |_, _| {}).unwrap_err(),
                ),
                (
                    "knn",
                    paged
                        .nearest_with_tie(points.len(), |_| 0.0, |_, _| 0.0, |i| i)
                        .unwrap_err(),
                ),
            ];
            for (traversal, err) in errors {
                let got = match err {
                    StoreError::ChecksumMismatch { .. } => "checksum",
                    StoreError::Corrupt { .. } => "corrupt",
                    _ => "another error",
                };
                assert_eq!(got, want, "{tag} / {traversal}: {err}");
            }
        }
    }
}
