//! One budget bounds what a paged catalog caches: after `open_paged` at
//! 1 MiB, every statement of a mixed script — range and kNN, forced scans,
//! an index join, subsequence range and kNN — leaves the live heap at most
//! the budget plus a fixed slack above what it was after the open. Node
//! pages, record frames and trail pages of both relations share the one
//! budget.
//!
//! The relations are sized so that pools each bounded by a slice of the
//! budget would hold more than it: `walks` (2 000 × 128) has 667 record
//! frames of 4 KiB (~2.6 MiB) beside its node pages, and `stocks`
//! (120 × 1 024) 120 record frames of 12 KiB (~1.4 MiB) and, at window 64,
//! a trail tree of its own. The forced scan reads every `walks` record, the
//! join visits every `walks` node, and the ST-index build reads every
//! `stocks` record. With a node pool and a record pool per relation, each
//! bounded by the relation's half of the budget, and a trail pool as large
//! as the relation's node pool, the heap stood 1 182 688 B above the open
//! after the first subsequence statement, past the bound; one cache keeps
//! it under 860 000 B throughout.
//!
//! A binary of its own, because it installs a global allocator that counts
//! live bytes across every thread: statements fan out over the worker pool,
//! and what its workers leave behind counts too. It holds one test, so
//! nothing else allocates while it measures.

use std::path::{Path, PathBuf};

use tsq_core::SeriesRelation;
use tsq_lang::Catalog;
use tsq_series::generate::{RandomWalkGenerator, StockGenerator};
use tsq_testkit::heap::live;

#[global_allocator]
static GLOBAL: tsq_testkit::heap::Tracking = tsq_testkit::heap::Tracking;

/// The budget `open_paged` is given, in MiB.
const BUDGET_MIB: usize = 1;

/// What may stay beside the cached frames: the cache's bookkeeping (a map
/// entry and a segment entry per frame, its read buffer), the held
/// ST-index's lengths, counters and planner profile, and the trail file's
/// name.
const SLACK: isize = 96 << 10;

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tsq-paged-budget-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

/// `walks` of `walks` random walks of 128 samples and `stocks` of
/// `stocks` series of 1 024.
fn catalog(walks: usize, stocks: usize) -> Catalog {
    let mut cat = Catalog::new();
    let walks = RandomWalkGenerator::new(71).relation(walks, 128);
    let stocks = StockGenerator::new(72).relation(stocks, 1024);
    for (name, relation) in [("walks", walks), ("stocks", stocks)] {
        cat.register(SeriesRelation::from_series(name, relation).unwrap())
            .unwrap();
    }
    cat
}

/// `len` samples of series `id` of `cat`'s relation `name` from `start`,
/// as a pattern literal.
fn pattern(cat: &Catalog, name: &str, id: usize, start: usize, len: usize) -> String {
    let series = cat.relation(name).unwrap().get(id).unwrap();
    let values: Vec<String> = series.values()[start..start + len]
        .iter()
        .map(|v| format!("{v}"))
        .collect();
    format!("[{}]", values.join(", "))
}

/// Every query form over both relations; the forced scan reads every
/// `walks` record, the join visits every `walks` node, and the first
/// subsequence statement builds `stocks`' ST-index from every record.
fn script(cat: &Catalog) -> Vec<String> {
    vec![
        "FIND SIMILAR TO walks.s1 IN walks WITHIN 3".into(),
        "FIND SIMILAR TO walks.s2 IN walks WITHIN 3 WITH (force = scan)".into(),
        "FIND 10 NEAREST TO walks.s3 IN walks APPLY mavg(8)".into(),
        "JOIN walks WITHIN 0.5 WITH (force = index)".into(),
        format!(
            "FIND SUBSEQUENCE OF {} IN stocks WITHIN 20 WINDOW 64",
            pattern(cat, "stocks", 3, 100, 64)
        ),
        format!(
            "FIND 5 NEAREST SUBSEQUENCE OF {} IN stocks WINDOW 64",
            pattern(cat, "stocks", 7, 500, 64)
        ),
        "FIND 5 NEAREST TO stocks.s4 IN stocks".into(),
        "FIND SIMILAR TO stocks.s5 IN stocks WITHIN 50 WITH (force = scan)".into(),
        "FIND 10 NEAREST TO walks.s11 IN walks".into(),
    ]
}

/// `snapshot` opened paged at the budget.
fn open(snapshot: &Path) -> Catalog {
    let mut paged = Catalog::new();
    paged.open_paged(snapshot, BUDGET_MIB).unwrap();
    paged
}

#[test]
fn a_paged_catalog_caches_at_most_its_budget() {
    let path = temp_path("cat.tsq");
    let cat = catalog(2000, 120);
    cat.save(&path).unwrap();
    let script = script(&cat);
    drop(cat);
    // Start the worker pool and every per-thread cache a statement
    // touches, on a small catalog of the same shapes, before anything is
    // measured.
    let warm = temp_path("warm.tsq");
    catalog(60, 12).save(&warm).unwrap();
    let warmed = open(&warm);
    for q in &script {
        warmed.run(q).unwrap();
    }
    drop(warmed);

    let paged = open(&path);
    let opened = live();
    let bound = ((BUDGET_MIB as isize) << 20) + SLACK;
    let mut most = 0;
    for q in &script {
        let rows = paged.run(q).unwrap().rows.len();
        let grown = live() - opened;
        most = most.max(grown);
        let q: String = q.chars().take(48).collect();
        eprintln!("{grown:>9} B above the open after {q}… ({rows} rows)");
        assert!(
            grown <= bound,
            "{q}…: the heap grew {grown} B since the open, past the {BUDGET_MIB} MiB \
             budget and {SLACK} B of slack"
        );
    }
    assert!(
        most > (BUDGET_MIB as isize) << 19,
        "the script fills the cache: {most} B at most"
    );
    drop(paged);
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}
