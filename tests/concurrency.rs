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
use std::sync::mpsc::RecvTimeoutError;
use std::time::{Duration, Instant};

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

/// Runs `scenario` on a thread outside the worker pool and fails if it
/// has not returned within two minutes: the one way a deadlock shows.
fn within_deadline(scenario: impl FnOnce() + Send + 'static) {
    let (done, finished) = std::sync::mpsc::channel();
    let runner = std::thread::spawn(move || {
        scenario();
        let _ = done.send(());
    });
    match finished.recv_timeout(Duration::from_secs(120)) {
        Ok(()) => runner.join().unwrap(),
        Err(RecvTimeoutError::Disconnected) => {
            if let Err(panic) = runner.join() {
                std::panic::resume_unwind(panic);
            }
        }
        Err(RecvTimeoutError::Timeout) => {
            panic!("deadlocked: a build waited on pool workers that waited on it")
        }
    }
}

/// Runs `action` on this thread while a batch occupies every pool worker:
/// `JOIN`s of `walks` first, then reads of `big`, which a worker can only
/// reach after `action` has begun. Every statement of the batch succeeds.
fn mid_batch(shared: &SharedCatalog, action: impl FnOnce()) {
    let slow = "JOIN walks WITHIN 1.25 APPLY mavg(6) WITH (force = index)";
    let sequential = Instant::now();
    shared.run(slow).unwrap();
    let sequential = sequential.elapsed();
    // Every worker, and the batch's own thread, runs statements.
    let threads = executor::Pool::global().workers() + 1;
    let queries: Vec<String> = (0..40 * threads)
        .map(|_| slow.to_string())
        .chain((0..4 * threads).map(|i| format!("FIND 2 NEAREST TO big.s{i} IN big")))
        .collect();
    let batch = {
        let shared = shared.clone();
        std::thread::spawn(move || shared.run_batch(queries, threads))
    };
    // About five joins into each thread's forty.
    std::thread::sleep(sequential * 5);
    action();
    let (_, summary) = batch.join().unwrap();
    assert_eq!(summary.errors, 0);
}

#[test]
fn a_build_never_waits_on_workers_that_wait_for_it() {
    // Regression: a build of 4 096 series or more fans out over the pool
    // and waits for its workers, while a batch's statements on those
    // workers wait for the catalog lock, or for the first reader of an
    // appended relation to repack its tree. A repack by a first reader
    // outside the pool, and an APPEND's feature extraction, a SHARD's
    // packs and a registration's build under the write lock, each waited
    // forever. So did a fan-out under the read lock with an APPEND queued
    // behind it: a first subsequence read building its ST-index, or a
    // k-NN scattering over shards. The writer waits for the reader, the
    // batch's next statements wait for the writer, and the reader waited
    // for helpers queued behind those statements. A fan-out's caller now
    // waits only for helpers that have started on its job.
    within_deadline(|| {
        let (count, len) = (4200, 64);
        let mut cat = Catalog::new();
        for (name, rel) in [
            ("walks", RandomWalkGenerator::new(31).relation(80, 64)),
            ("big", RandomWalkGenerator::new(36).relation(count, len)),
            ("long", RandomWalkGenerator::new(38).relation(400, 1024)),
            ("q", RandomWalkGenerator::new(39).relation(4, 64)),
        ] {
            cat.register(SeriesRelation::from_series(name, rel).unwrap())
                .unwrap();
        }
        let shared = SharedCatalog::new(cat);
        let values = |seed: u64| {
            let series = RandomWalkGenerator::new(seed).series(len);
            let values: Vec<String> = series.values().iter().map(f64::to_string).collect();
            values.join(", ")
        };
        let first = "FIND 2 NEAREST TO big.s1 IN big";

        // The first read after an append repacks the tree.
        let row = format!("APPEND big CSV (late0, {})", values(1));
        shared.run(&row).unwrap();
        mid_batch(&shared, || {
            assert_eq!(shared.run(first).unwrap().rows.len(), 2)
        });

        // An append of 2^16 samples extracts its features under the lock.
        let rows: Vec<String> = (0..1024)
            .map(|i| format!("(late{}, {})", i + 1, values(i + 2)))
            .collect();
        let append = format!("APPEND big CSV {}", rows.join(" "));
        mid_batch(&shared, || {
            assert_eq!(shared.run(&append).unwrap().rows.len(), 1024);
        });
        assert_eq!(shared.run(first).unwrap().rows.len(), 2);

        // A reshard packs its parts under the lock.
        mid_batch(&shared, || {
            shared.run("SHARD big INTO 1 BY HASH").unwrap();
        });
        assert_eq!(shared.run(first).unwrap().rows.len(), 2);

        // A registration builds an index as large as `big`'s.
        let wide = RandomWalkGenerator::new(37).relation(count, len);
        let wide = SeriesRelation::from_series("wide", wide).unwrap();
        mid_batch(&shared, || shared.register(wide).unwrap());
        let read = "FIND 2 NEAREST TO wide.s0 IN wide";
        assert_eq!(shared.run(read).unwrap().rows.len(), 2);

        // A first subsequence read builds `long`'s ST-index under the
        // read lock while an APPEND queues for the write lock.
        let subseq = "FIND SUBSEQUENCE OF q.s1 IN long WITHIN 40 WINDOW 64";
        mid_batch(&shared, || {
            with_append_queued(&shared, || shared.run(subseq).unwrap());
        });

        // A k-NN scatters over four shards under the read lock while an
        // APPEND queues for the write lock.
        shared.run("SHARD long INTO 4 BY HASH").unwrap();
        let knn = "FIND 50 NEAREST TO long.s1 IN long APPLY mavg(8)";
        mid_batch(&shared, || {
            let rows = with_append_queued(&shared, || shared.run(knn).unwrap().rows);
            assert_eq!(rows.len(), 50);
        });
    });
}

/// Runs `read` on this thread while another thread, 2 ms after it
/// starts, appends to `q`: the append queues for the catalog's write lock
/// behind `read`'s read lock.
fn with_append_queued<R>(shared: &SharedCatalog, read: impl FnOnce() -> R) -> R {
    let writer = {
        let shared = shared.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(2));
            shared.run("APPEND q s0 VALUES (1.0)").unwrap();
        })
    };
    let answer = read();
    writer.join().unwrap();
    answer
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
