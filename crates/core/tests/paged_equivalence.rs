//! Paged storage is an execution detail, never a semantic one: every
//! query on a paged [`SimilarityIndex`] answers byte-identically to the
//! in-memory index it was attached from — in a cache of a page or two and
//! an unbounded one, which its node pages and record frames share — and
//! the counters reported per query are exactly each file's handle's own.
//! A paged relation's subsequence statements read its records through the
//! same cache, as its ST-index holds no samples of its own, and its trail
//! tree through a handle of its own in that cache.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;
use tsq_core::plan::{execute_plan, LogicalPlan, Planner, RelationStats};
use tsq_core::{
    render_sharded_plan, ExecStats, IndexConfig, LinearTransform, PageCache, PhysicalOp, PlanRows,
    QueryWindow, RecordIo, ScanMode, SeriesRelation, ShardSpec, ShardedIndex, SimilarityIndex,
    TrailIndex,
};
use tsq_dft::dft::dft_prefix;
use tsq_rtree::Rect;
use tsq_series::generate::RandomWalkGenerator;
use tsq_series::TimeSeries;

fn temp_path(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tsq-core-paged-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    dir.join(format!("{tag}.pages"))
}

/// A cache of `capacity` pages of `index`'s node page size.
fn cache_of(index: &SimilarityIndex, capacity: usize) -> Arc<PageCache> {
    let page_size = index.tree().paged_page_size().unwrap() as u64;
    PageCache::new((capacity as u64).saturating_mul(page_size))
}

fn paged_copy(mem: &SimilarityIndex, tag: &str, capacity: usize) -> SimilarityIndex {
    let mut paged = mem.clone();
    paged
        .attach_paged(&temp_path(tag), &cache_of(mem, capacity))
        .unwrap();
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

/// Rows with their distances as bits: what "byte-identical" compares.
fn row_bits(rows: &PlanRows) -> Vec<(usize, Option<usize>, u64)> {
    match rows {
        PlanRows::Whole(v) => v
            .iter()
            .map(|m| (m.id, None, m.distance.to_bits()))
            .collect(),
        PlanRows::Pairs(v) => v
            .iter()
            .map(|p| (p.a, Some(p.b), p.distance.to_bits()))
            .collect(),
        PlanRows::Windows(v) => v
            .iter()
            .map(|m| (m.series, Some(m.offset), m.distance.to_bits()))
            .collect(),
    }
}

/// The counters a paged run shares with the in-memory one: everything but
/// the measured pool traffic.
fn unmeasured(exec: &ExecStats) -> ExecStats {
    ExecStats {
        pool_hits: 0,
        pool_misses: 0,
        record_hits: 0,
        record_misses: 0,
        record_seq_misses: 0,
        ..*exec
    }
}

/// The acceptance test of records behind the buffer pool: every
/// whole-match operator — index range and kNN, the forced early-abandon
/// and full range scans, the scan kNN, both index joins and both scan
/// joins — reads its records through the record file of a paged copy, in
/// a two-page cache (the tree's sticky root and one record frame) and an
/// unbounded one, and returns the in-memory
/// index's rows, distance bits and `ExecStats`. The record hits and misses
/// a plan reports are exactly the record pool's own, and every record a
/// plan refines is one pin.
#[test]
fn every_operator_reads_records_through_the_pool_identically() {
    let rel = RandomWalkGenerator::new(11).relation(150, 32);
    let mem = SimilarityIndex::build(IndexConfig::default(), rel.clone()).unwrap();
    let stats = RelationStats::from_index(&mem);
    let window = QueryWindow::default();
    let ops = |logical: &LogicalPlan| -> Vec<PhysicalOp> {
        match logical {
            LogicalPlan::Range { .. } => vec![
                PhysicalOp::IndexRange,
                PhysicalOp::EarlyAbandonScan,
                PhysicalOp::SeqScan,
            ],
            LogicalPlan::Knn { .. } => vec![PhysicalOp::IndexKnn, PhysicalOp::SeqScan],
            _ => vec![
                PhysicalOp::JoinIndex { dedup: false },
                PhysicalOp::JoinIndex { dedup: true },
                PhysicalOp::JoinScan {
                    mode: ScanMode::EarlyAbandon,
                },
                PhysicalOp::JoinScan {
                    mode: ScanMode::Naive,
                },
            ],
        }
    };
    let mut checked = 0;
    for (ti, t) in [
        LinearTransform::identity(32),
        LinearTransform::moving_average(32, 4),
    ]
    .into_iter()
    .enumerate()
    {
        let statements = [
            LogicalPlan::Range {
                relation: "r".into(),
                query: rel[0].clone(),
                eps: 2.5,
                transform: t.clone(),
                window,
            },
            LogicalPlan::Knn {
                relation: "r".into(),
                query: rel[1].clone(),
                k: 5,
                transform: t.clone(),
            },
            LogicalPlan::Join {
                relation: "r".into(),
                eps: 1.5,
                transform: t.clone(),
            },
        ];
        for capacity in [2usize, usize::MAX] {
            let paged = paged_copy(&mem, &format!("ops-{ti}-{capacity}"), capacity);
            let records = paged.records().expect("paged");
            let pool = records.pool();
            for logical in &statements {
                let chosen = Planner::new(&paged, &stats)
                    .plan(logical, None, None)
                    .unwrap();
                for op in ops(logical) {
                    let what = format!("{} {op:?}, capacity {capacity}", t.name());
                    let plan = tsq_core::PhysicalPlan { op, ..chosen.plan };
                    let (want, want_exec) = execute_plan(logical, &plan, &mem, None).unwrap();
                    let (h, m) = (pool.hits(), pool.misses());
                    let (got, exec) = execute_plan(logical, &plan, &paged, None).unwrap();
                    assert_eq!(row_bits(&got), row_bits(&want), "{what}");
                    assert_eq!(unmeasured(&exec), want_exec, "{what}");
                    assert_eq!(exec.record_hits, pool.hits() - h, "{what}");
                    assert_eq!(exec.record_misses, pool.misses() - m, "{what}");
                    assert!(exec.record_seq_misses <= exec.record_misses, "{what}");
                    assert!(exec.record_misses > 0 || capacity > 2, "{what}");
                    if !matches!(logical, LogicalPlan::Join { .. }) {
                        let pins = exec.record_hits + exec.record_misses;
                        assert_eq!(pins, exec.refined as u64, "{what}");
                    }
                    checked += 1;
                }
            }
            // Both scan kNNs: the planned one above, and the oracle.
            let q = &rel[2];
            assert_eq!(
                paged.scan_knn(q, 7, &t).unwrap(),
                mem.scan_knn(q, 7, &t).unwrap()
            );
            // A scan from a cache of the sticky root and one cold frame
            // reads the file front to back: one miss per frame, all but
            // the first sequential.
            if capacity == 2 {
                pool.flush();
                let refine = paged.refine(mem.query_features(q, &t).unwrap(), Some(2.0), &t);
                let (_, scan) = paged
                    .scan_range_features(&refine.unwrap(), &window, ScanMode::EarlyAbandon)
                    .unwrap();
                let frames = records.frame_count() as u64;
                let want = RecordIo {
                    hits: rel.len() as u64 - frames,
                    misses: frames,
                    sequential: frames - 1,
                };
                assert_eq!(scan.records, want, "{}", t.name());
            }
            // Every record reads back as the series it was.
            for (id, series) in rel.iter().enumerate() {
                assert_eq!(&paged.series(id).unwrap(), series);
            }
        }
    }
    assert_eq!(checked, 2 * 2 * 9);
}

/// Paged mode round-trips through snapshots: `write_to` reads every
/// record back from the record file and writes the in-memory bytes.
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
/// error, and scan strategies still work (they never touch the tree, and
/// read their records through the record pool).
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
        // The record pool takes the same budget in frames, which are at
        // least a node page each.
        let records = index.records().unwrap();
        assert_eq!(records.frame_size(), paged.page_size(), "{tag}");
        assert_eq!(
            records.pool().capacity_pages() as u64,
            (budget / records.frame_size() as u64).max(1),
            "{tag}"
        );
    }
}

/// Hits and misses of every record pool of a paged relation, summed.
fn record_pool_counters(paged: &ShardedIndex) -> (u64, u64) {
    paged.parts().iter().fold((0, 0), |(h, m), part| {
        let pool = part.records().expect("paged").pool();
        (h + pool.hits(), m + pool.misses())
    })
}

/// The series owning a candidate window of a range statement of `q` at
/// `eps` over `st`: a trail whose MBR meets the query box of the ST-index's
/// PrefixSearch (the first window's coefficients, `± eps` and its
/// anti-rounding pad), at an offset where all of `q` fits. `st` holds its
/// trail tree in memory.
fn candidate_series(st: &TrailIndex, q: &TimeSeries, eps: f64) -> BTreeSet<usize> {
    let config = st.config();
    let coeffs = dft_prefix(&q.values()[..config.window], config.k);
    let coords: Vec<f64> = coeffs.iter().flat_map(|c| [c.re, c.im]).collect();
    let pad = |c: f64| 1e-7 * (1.0 + c.abs());
    let lo = coords.iter().map(|&c| c - eps - pad(c)).collect();
    let hi = coords.iter().map(|&c| c + eps + pad(c)).collect();
    let qrect = Rect::new(lo, hi);
    let mut series = BTreeSet::new();
    st.tree().search_with(
        |r| r.intersects(qrect.view()),
        |_, &word| {
            let t = st.entry(word).unwrap();
            let len = st.length(t.series).unwrap();
            if t.start + q.len() <= len {
                series.insert(t.series);
            }
        },
    );
    series
}

/// The relation's built ST-index.
fn held(index: &ShardedIndex) -> Arc<TrailIndex> {
    index.subseq_held().unwrap().1.expect("built")
}

/// The relation's ST-index reads a paged relation's records through the
/// record files, and its trail tree through a handle of its own, all in
/// the relation's one cache: subsequence range and kNN statements at
/// `L = w` and past it return the in-memory relation's rows, offsets,
/// distance bits, `ExecStats` and `EXPLAIN` text, at one shard and three,
/// in a one-page cache and an unbounded one. The record and trail
/// traffic a statement reports is exactly the handles' own, every trail
/// node it visits is one pin, and a range statement pins each series with
/// a candidate window once.
#[test]
fn subsequence_statements_read_records_through_the_pool_identically() {
    const W: usize = 16;
    let walks = RandomWalkGenerator::new(13).relation(40, 96);
    let relation = SeriesRelation::from_series("r", walks.clone()).unwrap();
    let statements: Vec<LogicalPlan> = [W, W + 9]
        .into_iter()
        .flat_map(|len| {
            // A stretch of one series, a little off every window.
            let values = walks[2].values()[20..20 + len].iter().enumerate();
            let query = TimeSeries::new(values.map(|(i, v)| v + 0.3 * (i as f64).sin()).collect());
            [
                LogicalPlan::SubseqRange {
                    relation: "r".into(),
                    query: query.clone(),
                    eps: 10.0,
                    window: len,
                },
                LogicalPlan::SubseqKnn {
                    relation: "r".into(),
                    query,
                    k: 7,
                    window: len,
                },
            ]
        })
        .collect();
    let explain = |index: &ShardedIndex, logical: &LogicalPlan| {
        let choice = index.plan_shards(logical, None).unwrap();
        render_sharded_plan(logical, index, &choice)
    };
    let mut checked = 0;
    for shards in [1usize, 3] {
        let spec = ShardSpec::hash(shards).unwrap();
        let mem = ShardedIndex::build(IndexConfig::default(), &relation, spec.clone()).unwrap();
        mem.execute(&statements[0], None, 1).unwrap();
        assert!(held(&mem).paged().is_none(), "memory holds its trail tree");
        for capacity in [1usize, usize::MAX] {
            let mut paged =
                ShardedIndex::build(IndexConfig::default(), &relation, spec.clone()).unwrap();
            let cache = cache_of(&paged.parts()[0], capacity);
            for (shard, part) in paged.parts_mut().iter_mut().enumerate() {
                let tag = format!("subseq-{shards}-{capacity}-{shard}");
                part.attach_paged(&temp_path(&tag), &cache).unwrap();
            }
            // The first statement builds the ST-index at `W`, reading the
            // records outside any statement's count; every statement then
            // probes it, `L > W` by prefix.
            paged.execute(&statements[0], None, 1).unwrap();
            let st = held(&paged);
            let trails = st.paged().expect("a paged relation pages its trail tree");
            assert!(st.tree().is_empty(), "the nodes left memory");
            assert_eq!(trails.len(), held(&mem).tree().len());
            let mut misses = 0;
            let mut trail_misses = 0;
            for (i, logical) in statements.iter().enumerate() {
                let len = logical.subseq_window().unwrap();
                let what =
                    format!("{shards} shard(s), capacity {capacity}, statement {i}, L {len}");
                let want = mem.execute(logical, None, 1).unwrap();
                let (h, m) = record_pool_counters(&paged);
                let (th, tm) = (trails.pool().hits(), trails.pool().misses());
                let got = paged.execute(logical, None, 1).unwrap();
                let (h2, m2) = record_pool_counters(&paged);
                assert_eq!(row_bits(&got.rows), row_bits(&want.rows), "{what}");
                assert_eq!(unmeasured(&got.merged), want.merged, "{what}");
                assert!(!want.merged.measured(), "{what}: memory reads no pool");
                assert_eq!(explain(&paged, logical), explain(&mem, logical), "{what}");
                let exec = got.merged;
                assert_eq!(exec.record_hits, h2 - h, "{what}");
                assert_eq!(exec.record_misses, m2 - m, "{what}");
                assert_eq!(exec.pool_hits, trails.pool().hits() - th, "{what}");
                assert_eq!(exec.pool_misses, trails.pool().misses() - tm, "{what}");
                assert_eq!(
                    exec.pool_hits + exec.pool_misses,
                    exec.nodes_visited,
                    "{what}"
                );
                misses += exec.record_misses;
                trail_misses += exec.pool_misses;
                if let LogicalPlan::SubseqRange { query, eps, .. } = logical {
                    let series = candidate_series(&held(&mem), query, *eps);
                    let pins = exec.record_hits + exec.record_misses;
                    assert_eq!(pins, series.len() as u64, "{what}");
                    assert!(pins > 1, "{what}: several series hold candidates");
                }
                checked += 1;
            }
            assert!(
                misses > 0 || capacity > 1,
                "{shards} shard(s): a one-frame pool misses"
            );
            assert!(
                trail_misses > 0 || capacity > 1,
                "{shards} shard(s): a one-page trail pool misses"
            );
        }
    }
    assert_eq!(checked, 2 * 2 * 4);
}
