//! A catalog relation is its labels and its index: registering 8 000 ×
//! 128 random walks leaves on the heap what a standalone
//! `ShardedIndex::build` over the same series holds, the labels' arena
//! (their bytes, two words a label and a fixed part, as `labels_heap`
//! bounds them) and the catalog's map, at most 1.5 KiB. The series are
//! held once, by the index: a catalog that also kept one 16-byte
//! `TimeSeries` handle per series beside it held 128 000 B more.
//!
//! A binary of its own, because it installs a global allocator that counts
//! live bytes across every thread (`crates/core/tests/live_heap`, shared
//! with tsq-core's heap tests): the index build fans out over the worker
//! pool. It holds one test, so nothing else allocates while it measures.

#[path = "../../core/tests/live_heap/mod.rs"]
mod live_heap;

use tsq_core::{IndexConfig, SeriesRelation, ShardSpec, ShardedIndex};
use tsq_lang::Catalog;
use tsq_series::generate::RandomWalkGenerator;

const SERIES: usize = 8000;
const LEN: usize = 128;
/// The labels' fixed part: the relation's name (as in `labels_heap`).
const LABELS_FIXED: usize = 64;
/// What the catalog may hold beyond the index and the labels: its map's
/// first bucket array, four slots of a name and a relation (352 B each on
/// x86-64) and their control bytes, 1 433 B in all.
const SLACK: usize = 1536;

#[test]
fn a_catalog_relation_holds_its_labels_and_its_index() {
    let walks = RandomWalkGenerator::new(1).relation(SERIES, LEN);
    let relation = || SeriesRelation::from_series("walks", walks.clone()).unwrap();
    let config = IndexConfig::default();
    let build = |rel: &SeriesRelation| {
        ShardedIndex::build(config, rel, ShardSpec::hash(1).unwrap()).unwrap()
    };
    // The worker pool starts, and keeps what it keeps, before anything is
    // measured.
    drop(build(&relation()));

    let index = {
        let rel = relation();
        let before = live_heap::live();
        let index = build(&rel);
        let held = live_heap::live() - before;
        drop((index, rel));
        held
    };
    let label_bytes: usize = (0..SERIES).map(|i| format!("s{i}").len()).sum();
    let labels = label_bytes + 2 * 8 * SERIES + LABELS_FIXED;

    let before = live_heap::live();
    let mut catalog = Catalog::with_config(config);
    catalog.register(relation()).unwrap();
    let held = live_heap::live() - before;
    let bound = index + (labels + SLACK) as isize;
    eprintln!(
        "{SERIES} x {LEN} walks: the catalog holds {held} B; the index alone {index} B, \
         the labels' bound {labels} B, bound {bound} B ({:.1} B a series over the index)",
        (held - index) as f64 / SERIES as f64
    );
    assert!(
        held <= bound,
        "the catalog holds {held} B, more than {bound} B: the index's {index} B, the labels' \
         {labels} B and {SLACK} B"
    );
    let rows = catalog
        .run("FIND 1 NEAREST TO walks.s7 IN walks")
        .unwrap()
        .rows;
    assert_eq!((rows[0].a.as_str(), rows[0].distance), ("s7", 0.0));
}
