//! Paged storage is an execution detail, never a semantic one: every
//! query on a paged [`SimilarityIndex`] answers byte-identically to the
//! in-memory index it was attached from — at a 1-page pool and an
//! unbounded pool — and the pool counters reported per query are exactly
//! the buffer pool's own.

use proptest::prelude::*;
use tsq_core::plan::{execute_plan, LogicalPlan, Planner, RelationStats};
use tsq_core::{IndexConfig, LinearTransform, QueryWindow, ScanMode, SimilarityIndex};
use tsq_series::generate::RandomWalkGenerator;

fn temp_path(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tsq-core-paged-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    dir.join(format!("{tag}.pages"))
}

fn paged_copy(mem: &SimilarityIndex, tag: &str, capacity: usize) -> SimilarityIndex {
    let mut paged = mem.clone();
    paged.attach_paged(&temp_path(tag), capacity).unwrap();
    paged
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Range, kNN and index-join answers (and their traversal counters)
    /// are identical between memory and paged storage.
    #[test]
    fn queries_are_identical_across_storage_modes(
        count in 20usize..90,
        seed in 0u64..500,
        eps in 0.2f64..4.0,
        k in 1usize..8,
    ) {
        let rel = RandomWalkGenerator::new(seed).relation(count, 32);
        let mem = SimilarityIndex::build(IndexConfig::default(), rel.clone()).unwrap();
        let window = QueryWindow::default();
        for (ti, t) in [
            LinearTransform::identity(32),
            LinearTransform::moving_average(32, 4),
        ]
        .iter()
        .enumerate()
        {
            let (mem_range, mem_rs) = mem.range_query(&rel[0], eps, t, &window).unwrap();
            let (mem_knn, mem_ks) = mem.knn_query(&rel[1], k, t).unwrap();
            let mem_join = mem.join_index(eps, t).unwrap();
            for capacity in [1usize, usize::MAX] {
                let paged = paged_copy(&mem, &format!("pq-{seed}-{ti}-{capacity}"), capacity);
                let (range, rs) = paged.range_query(&rel[0], eps, t, &window).unwrap();
                prop_assert_eq!(&range, &mem_range, "range capacity {}", capacity);
                prop_assert_eq!(rs.index.nodes_visited, mem_rs.index.nodes_visited);
                prop_assert_eq!(rs.candidates, mem_rs.candidates);
                prop_assert_eq!(rs.false_hits, mem_rs.false_hits);
                let (knn, ks) = paged.knn_query(&rel[1], k, t).unwrap();
                prop_assert_eq!(&knn, &mem_knn, "knn capacity {}", capacity);
                prop_assert_eq!(ks.index.nodes_visited, mem_ks.index.nodes_visited);
                prop_assert_eq!(ks.exact_checks, mem_ks.exact_checks);
                let join = paged.join_index(eps, t).unwrap();
                prop_assert_eq!(&join.pairs, &mem_join.pairs, "join capacity {}", capacity);
                prop_assert_eq!(
                    join.stats.index.nodes_visited,
                    mem_join.stats.index.nodes_visited
                );
                prop_assert_eq!(
                    join.stats.index.entries_tested,
                    mem_join.stats.index.entries_tested
                );
                prop_assert_eq!(join.stats.candidates, mem_join.stats.candidates);
                prop_assert_eq!(join.stats.exact_checks, mem_join.stats.exact_checks);
            }
        }
    }
}

/// The acceptance criterion: `EXPLAIN ANALYZE`'s measured `pool_misses`
/// equals the buffer pool's own counters exactly on index plans.
#[test]
fn plan_pool_counters_equal_the_pools_own_exactly() {
    let rel = RandomWalkGenerator::new(7).relation(400, 64);
    let mem = SimilarityIndex::build(IndexConfig::default(), rel.clone()).unwrap();
    // Planner statistics come from the in-memory tree, before attaching.
    let stats = RelationStats::from_index(&mem);
    let paged = paged_copy(&mem, "plan-exact", usize::MAX);
    let logical = LogicalPlan::Range {
        relation: "r".into(),
        query: rel[3].clone(),
        eps: 1.2,
        transform: LinearTransform::identity(64),
        window: QueryWindow::default(),
    };
    let choice = Planner::new(&paged, &stats)
        .plan(&logical, None, None)
        .unwrap();
    assert_eq!(choice.plan.op.name(), "IndexRange", "must be an index plan");
    let pool = paged.paged().unwrap().pool();

    // Cold run: every reported miss is a page actually read.
    let (h0, m0) = (pool.hits(), pool.misses());
    let (_, exec) = execute_plan(&logical, &choice.plan, &paged, None).unwrap();
    assert_eq!(exec.pool_misses, pool.misses() - m0);
    assert_eq!(exec.pool_hits, pool.hits() - h0);
    assert!(exec.pool_misses > 0, "cold pool must fault pages in");

    // Warm run: zero misses, and still exactly the pool's own counters.
    let (h1, m1) = (pool.hits(), pool.misses());
    let (_, warm) = execute_plan(&logical, &choice.plan, &paged, None).unwrap();
    assert_eq!(warm.pool_misses, pool.misses() - m1);
    assert_eq!(warm.pool_hits, pool.hits() - h1);
    assert_eq!(warm.pool_misses, 0, "fully warm pool must not fault");
    assert_eq!(warm.pool_hits, warm.nodes_visited);
}

/// Paged mode round-trips through snapshots: `write_to` reconstructs the
/// node structure from the page file byte-identically.
#[test]
fn paged_snapshot_is_byte_identical_to_memory_snapshot() {
    let rel = RandomWalkGenerator::new(21).relation(120, 32);
    let mem = SimilarityIndex::build(IndexConfig::default(), rel).unwrap();
    let mut enc_mem = tsq_store::Encoder::new();
    mem.write_to(&mut enc_mem).unwrap();
    let paged = paged_copy(&mem, "snapshot", 2);
    let mut enc_paged = tsq_store::Encoder::new();
    paged.write_to(&mut enc_paged).unwrap();
    assert_eq!(enc_mem.into_bytes(), enc_paged.into_bytes());
}

/// A paged relation is immutable: inserts are rejected with a typed
/// error, and scan strategies still work (they never touch the tree).
#[test]
fn paged_relation_rejects_inserts_but_scans_fine() {
    let rel = RandomWalkGenerator::new(3).relation(40, 32);
    let mem = SimilarityIndex::build(IndexConfig::default(), rel).unwrap();
    let mut paged = paged_copy(&mem, "readonly", 4);
    let extra = RandomWalkGenerator::new(99).series(32);
    assert!(matches!(
        paged.push_series_batch(vec![extra]),
        Err(tsq_core::Error::Unsupported(_))
    ));
    let t = LinearTransform::identity(32);
    let a = mem.join_scan(2.0, &t, ScanMode::EarlyAbandon).unwrap();
    let b = paged.join_scan(2.0, &t, ScanMode::EarlyAbandon).unwrap();
    assert_eq!(a.pairs, b.pairs);
}

/// A byte budget buys as many pages of the size the file actually has —
/// also for an empty relation, whose one page is sized for one dimension
/// (a 256-entry node then needs two alignment units, not one).
#[test]
fn budget_is_divided_by_the_files_page_size() {
    let config = IndexConfig {
        rtree: tsq_rtree::RTreeConfig::with_max_entries(256),
        ..IndexConfig::default()
    };
    let rel = RandomWalkGenerator::new(5).relation(30, 32);
    for (tag, relation) in [("budget-empty", Vec::new()), ("budget-full", rel)] {
        let mut index = SimilarityIndex::build(config, relation).unwrap();
        let budget = 5 * 8192 + 100;
        index.attach_paged_budget(&temp_path(tag), budget).unwrap();
        let paged = index.paged().unwrap();
        assert!(paged.page_size() >= 8192, "{tag}");
        assert_eq!(
            paged.pool().capacity_pages() as u64,
            budget / paged.page_size() as u64,
            "{tag}"
        );
    }
}
