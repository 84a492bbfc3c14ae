//! Concurrency suite: many clients hammering one catalog must see exactly
//! the answers a single-threaded client would, and one misbehaving query
//! must never take the service down.
//!
//! Four properties are pinned here, end to end through the query language:
//!
//! 1. **Oracle agreement** — concurrent readers, batched execution, the
//!    parallel filter/refine range query, and parallel index builds all
//!    return results byte-identical to their sequential oracles, for every
//!    thread count tried.
//! 2. **Poison resilience** — a query thread that panics mid-flight (the
//!    pre-fix failure mode: `.lock().unwrap()` on a poisoned catalog
//!    mutex) leaves the catalog fully usable for every later client.
//! 3. **Typed rejection of non-finite inputs** — NaN/∞ die at the lexer
//!    or engine boundary with typed errors, never inside a comparison.
//! 4. **Cache discipline** — the per-(relation, window) ST-index cache is
//!    invalidated on relation mutation and LRU-bounded, and paged
//!    relations read concurrently through one page cache answer as they
//!    do alone, with the cache's pins exactly its handles' traffic.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use tsq::core::{
    executor, ExecStats, IndexConfig, LinearTransform, LogicalPlan, PageCache, PlanRows,
    QueryWindow, SeriesRelation, ShardSpec, ShardedIndex, SimilarityIndex,
};
use tsq::lang::LangError;
use tsq::series::generate::{RandomWalkGenerator, StockGenerator};
use tsq::{Catalog, SharedCatalog, TimeSeries};

fn shared_catalog() -> SharedCatalog {
    let mut cat = Catalog::new();
    cat.register(
        SeriesRelation::from_series("walks", RandomWalkGenerator::new(31).relation(80, 64))
            .unwrap(),
    )
    .unwrap();
    cat.register(
        SeriesRelation::from_series("stocks", StockGenerator::new(32).relation(60, 64)).unwrap(),
    )
    .unwrap();
    SharedCatalog::new(cat)
}

/// A mixed workload touching both relations and every query form.
fn workload() -> Vec<String> {
    let mut queries = Vec::new();
    for i in 0..10 {
        queries.push(format!("FIND SIMILAR TO walks.s{i} IN walks WITHIN 2"));
        queries.push(format!(
            "FIND 5 NEAREST TO stocks.s{i} IN stocks APPLY mavg(8)"
        ));
        queries.push(format!(
            "FIND SUBSEQUENCE OF walks.s{i} IN walks WITHIN 40 WINDOW 64"
        ));
        queries.push(format!(
            "FIND 3 NEAREST SUBSEQUENCE OF stocks.s{i} IN stocks WINDOW 64"
        ));
    }
    queries.push("JOIN walks WITHIN 1.5 APPLY mavg(6) WITH (force = index)".to_string());
    queries
}

#[test]
fn concurrent_readers_agree_with_sequential_oracle() {
    let shared = shared_catalog();
    let queries = workload();
    let oracle: Vec<_> = queries.iter().map(|q| shared.run(q)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let shared = shared.clone();
            let queries = &queries;
            let oracle = &oracle;
            let next = &next;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= queries.len() * 4 {
                    break;
                }
                let q = i % queries.len();
                assert_eq!(shared.run(&queries[q]), oracle[q], "query {q}");
            });
        }
    });
}

#[test]
fn batched_execution_agrees_with_sequential_oracle() {
    let shared = shared_catalog();
    let queries = workload();
    let oracle: Vec<_> = queries.iter().map(|q| shared.run(q)).collect();
    for threads in [1usize, 2, 4, 8] {
        let (results, summary) = shared.run_batch(queries.clone(), threads);
        assert_eq!(results, oracle, "threads = {threads}");
        assert_eq!(summary.queries, queries.len());
        assert_eq!(summary.errors, 0);
        assert!(summary.nodes_visited > 0);
        assert!(summary.queries_per_second() > 0.0);
    }
}

#[test]
fn register_completes_while_long_batch_in_flight() {
    // Regression: `SharedCatalog::run_batch` used to hold the catalog
    // read lock for the whole batch, so a concurrent `register` (write
    // lock) stalled until every queued query had run. The lock is now
    // taken per query: a writer waits for at most the queries currently
    // executing, and the batch's answers are still byte-identical to the
    // sequential oracle.
    let shared = shared_catalog();
    let queries: Vec<String> = (0..100)
        .map(|i| {
            format!(
                "JOIN walks WITHIN {} APPLY mavg(6) WITH (force = index)",
                1.0 + (i % 5) as f64 * 0.25
            )
        })
        .collect();
    let sequential = Instant::now();
    let oracle: Vec<_> = queries.iter().map(|q| shared.run(q)).collect();
    let sequential = sequential.elapsed();
    let batch_thread = {
        let shared = shared.clone();
        let queries = queries.clone();
        std::thread::spawn(move || {
            let out = shared.run_batch(queries, 2);
            (out, Instant::now())
        })
    };
    // Give the batch a head start, then register mid-flight: a tenth of
    // the sequential pass, which two threads need at least half of — under
    // any optimizer, since both times are this build's.
    std::thread::sleep(sequential / 10);
    shared
        .register(
            SeriesRelation::from_series("late", RandomWalkGenerator::new(77).relation(10, 32))
                .unwrap(),
        )
        .unwrap();
    let writer_done = Instant::now();
    // The new relation is queryable immediately — not after the batch.
    assert!(shared.run("FIND 2 NEAREST TO late.s0 IN late").is_ok());
    let probe_done = Instant::now();
    let ((results, summary), batch_done) = batch_thread.join().unwrap();
    assert!(
        writer_done < batch_done && probe_done < batch_done,
        "writer stalled behind the whole batch: the per-query lock regressed \
         (batch finished {:?} before the writer)",
        writer_done.saturating_duration_since(batch_done)
    );
    assert_eq!(results, oracle);
    assert_eq!(summary.queries, queries.len());
    assert_eq!(summary.errors, 0);
}

#[test]
fn core_executor_and_parallel_range_agree_with_oracle() {
    let rel = RandomWalkGenerator::new(33).relation(250, 64);
    let index = SimilarityIndex::build(IndexConfig::default(), rel.clone()).unwrap();
    let t = LinearTransform::moving_average(64, 6);
    // Fan-out across queries.
    let run = |threads| {
        executor::parallel_map(threads, (0..16).collect(), |i: usize| {
            let (rows, _) = index
                .range_query(&rel[i], 2.0, &t, &QueryWindow::default())
                .unwrap();
            rows
        })
    };
    assert_eq!(run(4), run(1));
}

#[test]
fn panicking_client_leaves_service_available() {
    // Service-level smoke: a client thread that dies does not disturb any
    // other client. (The guards here drop before the unwind, so this does
    // not poison a lock by itself — the failing-before tests that poison
    // the inner cache lock and the outer catalog lock directly live in
    // `crates/lang/src/exec.rs`, where the private locks are reachable.)
    let shared = shared_catalog();
    let probe = "FIND SUBSEQUENCE OF walks.s0 IN walks WITHIN 40 WINDOW 64";
    let want = shared.run(probe).unwrap();
    let crashing = shared.clone();
    let handle = std::thread::spawn(move || {
        crashing.run(probe).unwrap();
        panic!("client bug");
    });
    assert!(handle.join().is_err());
    // Every later client still gets full service: cache hits, cache
    // misses, registration, and batches.
    assert_eq!(shared.run(probe).unwrap(), want);
    shared
        .register(
            SeriesRelation::from_series("fresh", RandomWalkGenerator::new(99).relation(10, 32))
                .unwrap(),
        )
        .unwrap();
    assert!(shared.run("FIND 2 NEAREST TO fresh.s1 IN fresh").is_ok());
    let (results, summary) = shared.run_batch(workload(), 4);
    assert_eq!(summary.errors, 0);
    assert_eq!(results.len(), summary.queries);
}

#[test]
fn non_finite_inputs_rejected_with_typed_errors() {
    let shared = shared_catalog();
    // Lexer boundary: overflowing literals.
    assert!(matches!(
        shared.run("FIND SIMILAR TO walks.s0 IN walks WITHIN 1e999"),
        Err(LangError::Lex { .. })
    ));
    assert!(matches!(
        shared.run("FIND 3 NEAREST TO [1e400, 2, 3] IN walks"),
        Err(LangError::Lex { .. })
    ));
    // Engine boundary: NaN thresholds via the core API.
    let rel = RandomWalkGenerator::new(34).relation(20, 32);
    let index = SimilarityIndex::build(IndexConfig::default(), rel.clone()).unwrap();
    let t = LinearTransform::identity(32);
    for eps in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert!(matches!(
            index.range_query(&rel[0], eps, &t, &QueryWindow::default()),
            Err(tsq::core::Error::NonFinite { .. })
        ));
    }
    // Value boundary: series construction.
    assert!(TimeSeries::try_new(vec![0.0, f64::NEG_INFINITY]).is_err());
}

#[test]
fn bad_nearest_counts_rejected() {
    let shared = shared_catalog();
    for src in [
        "FIND 1e20 NEAREST TO walks.s0 IN walks",
        "FIND 2.7 NEAREST TO walks.s0 IN walks",
        "FIND 0 NEAREST TO walks.s0 IN walks",
    ] {
        assert!(
            matches!(shared.run(src), Err(LangError::Parse { .. })),
            "{src}"
        );
    }
}

#[test]
fn subseq_cache_bounded_and_invalidated_through_shared_handle() {
    fn probe(w: usize) -> String {
        let vals: Vec<String> = (0..w).map(|i| format!("{i}")).collect();
        format!(
            "FIND SUBSEQUENCE OF [{}] IN walks WITHIN 100 WINDOW {w}",
            vals.join(", ")
        )
    }
    let walks = |seed: u64| {
        SeriesRelation::from_series("walks", RandomWalkGenerator::new(seed).relation(12, 64))
            .unwrap()
    };
    let mut cat = Catalog::new();
    cat.register(walks(35)).unwrap();
    let shared = SharedCatalog::new(cat);
    // Six distinct windows, in an order that both probes the held one by
    // prefix and replaces it with a shorter one.
    for w in [24usize, 32, 16, 48, 8, 12] {
        shared.run(&probe(w)).unwrap();
    }
    // The relation holds one ST-index whatever it was asked: the
    // shortest window.
    let cat = shared.into_inner().unwrap();
    assert_eq!(cat.subseq_window("walks"), Some(8));
    // Re-registering through the handle replaces the relation and what
    // indexed it.
    let shared = SharedCatalog::new(cat);
    shared.register(walks(36)).unwrap();
    shared.run(&probe(16)).unwrap();
    let cat = shared.into_inner().unwrap();
    assert_eq!(cat.subseq_window("walks"), Some(16));
}

#[test]
fn parallel_build_threads_never_change_answers() {
    let mut g = RandomWalkGenerator::new(36);
    let rel: Vec<TimeSeries> = (0..20).map(|i| g.series(100 + (i % 4) * 17)).collect();
    let q = TimeSeries::new(rel[5].values()[10..42].to_vec());
    let seq = tsq::core::SubseqIndex::build(tsq::core::SubseqConfig::new(32), rel.clone()).unwrap();
    let (want, _) = seq.subseq_range(&q, 4.0).unwrap();
    for threads in [2usize, 3, executor::default_threads().max(2)] {
        let par = tsq::core::SubseqIndex::build_parallel(
            tsq::core::SubseqConfig::new(32),
            rel.clone(),
            threads,
        )
        .unwrap();
        assert_eq!(
            par.subseq_range(&q, 4.0).unwrap().0,
            want,
            "threads = {threads}"
        );
    }
}

/// Rows with their distances as bits.
fn row_bits(rows: &PlanRows) -> Vec<(usize, usize, u64)> {
    match rows {
        PlanRows::Whole(v) => v.iter().map(|m| (m.id, 0, m.distance.to_bits())).collect(),
        PlanRows::Pairs(v) => v.iter().map(|p| (p.a, p.b, p.distance.to_bits())).collect(),
        PlanRows::Windows(v) => v
            .iter()
            .map(|m| (m.series, m.offset, m.distance.to_bits()))
            .collect(),
    }
}

/// Every counter but the measured page and record traffic.
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

/// Hits plus misses of every handle onto a paged relation's cache: each
/// shard's node and record files, and the held ST-index's trail file.
fn handle_pins(index: &ShardedIndex) -> u64 {
    let mut pins = 0;
    for part in index.parts() {
        let nodes = part.paged().expect("paged").pool();
        let records = part.records().expect("paged").pool();
        pins += nodes.hits() + nodes.misses() + records.hits() + records.misses();
    }
    if let Some((_, Some(trails))) = index.subseq_held() {
        let pool = trails
            .paged()
            .expect("a paged relation pages its trails")
            .pool();
        pins += pool.hits() + pool.misses();
    }
    pins
}

#[test]
fn concurrent_readers_share_one_page_cache() {
    // Two relations, one in two hash shards, paged into one 256 KiB cache
    // that neither fits: four threads of range, kNN and subsequence
    // statements evict each other's node pages, record frames and trail
    // pages, and each statement still answers as it does alone.
    let dir = std::env::temp_dir().join(format!("tsq-shared-cache-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cache = PageCache::new(256 << 10);
    let walks = RandomWalkGenerator::new(33).relation(600, 64);
    let stocks = StockGenerator::new(34).relation(60, 512);
    let mut indexes = Vec::new();
    for (name, series, shards) in [("walks", &walks, 2), ("stocks", &stocks, 1)] {
        let relation = SeriesRelation::from_series(name, series.clone()).unwrap();
        let spec = ShardSpec::hash(shards).unwrap();
        let mut index = ShardedIndex::build(IndexConfig::default(), &relation, spec).unwrap();
        for (shard, part) in index.parts_mut().iter_mut().enumerate() {
            let path = dir.join(format!("{name}_s{shard}.pages"));
            part.attach_paged(&path, &cache).unwrap();
        }
        indexes.push(index);
    }
    let mut statements = Vec::new();
    for i in 0..3 {
        let (walk, stock) = (walks[i].clone(), stocks[i].clone());
        let window = QueryWindow::default();
        statements.push((
            0,
            LogicalPlan::Range {
                relation: "walks".into(),
                query: walk.clone(),
                eps: 2.5,
                transform: LinearTransform::identity(64),
                window,
            },
        ));
        statements.push((
            1,
            LogicalPlan::Knn {
                relation: "stocks".into(),
                query: stock.clone(),
                k: 4,
                transform: LinearTransform::moving_average(512, 8),
            },
        ));
        let part = TimeSeries::new(walk.values()[8..40].to_vec());
        statements.push((
            0,
            LogicalPlan::SubseqRange {
                relation: "walks".into(),
                query: part,
                eps: 3.0,
                window: 32,
            },
        ));
        let part = TimeSeries::new(stock.values()[100..164].to_vec());
        statements.push((
            1,
            LogicalPlan::SubseqKnn {
                relation: "stocks".into(),
                query: part,
                k: 3,
                window: 64,
            },
        ));
    }
    // Sequentially first, which also builds both ST-indexes: no handle is
    // dropped while the threads run.
    let answer = |(relation, logical): &(usize, LogicalPlan)| {
        let out = indexes[*relation].execute(logical, None, 1).unwrap();
        (row_bits(&out.rows), unmeasured(&out.merged))
    };
    let oracle: Vec<_> = statements.iter().map(answer).collect();
    std::thread::scope(|scope| {
        for thread in 0..4 {
            let (statements, oracle, answer) = (&statements, &oracle, &answer);
            scope.spawn(move || {
                for i in 0..statements.len() {
                    let at = (i + thread * 5) % statements.len();
                    assert_eq!(answer(&statements[at]), oracle[at], "statement {at}");
                }
            });
        }
    });
    assert!(cache.resident_bytes() <= cache.budget());
    let pins: u64 = indexes.iter().map(handle_pins).sum();
    assert_eq!(pins, cache.pins(), "the cache counts its handles' pins");
    std::fs::remove_dir_all(&dir).ok();
}
