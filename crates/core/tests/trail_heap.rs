//! An in-memory ST-index holds each trail once, as its tree word: a trail
//! costs its rectangle's `2·2k` bounds (`f32`s, rounded outward) and one
//! word, plus at most one word of node overhead (tsq-rtree's
//! `entry_bytes`), and the index one length per series and a fixed part.
//! So does one that an append added trails to and a read repacked: it
//! holds no second tree and nothing set aside.
//!
//! A binary of its own, because it installs a global allocator that counts
//! live bytes across every thread (`tsq_testkit::heap`). It holds one
//! test, so nothing else allocates while it measures.

use tsq_core::{IndexConfig, LogicalPlan, SeriesRelation, ShardSpec, ShardedIndex};
use tsq_series::generate::RandomWalkGenerator;
use tsq_series::TimeSeries;
use tsq_testkit::heap::{left_by, live};

#[global_allocator]
static GLOBAL: tsq_testkit::heap::Tracking = tsq_testkit::heap::Tracking;

const WINDOW: usize = 16;

/// The index's fixed part, past its lengths: its own fields and the
/// planner's profile of the trail tree.
const FIXED: usize = 2048;

#[test]
fn an_in_memory_st_index_holds_a_trail_as_its_bounds_and_one_word() {
    let walks = RandomWalkGenerator::new(29).relation(100, 512);
    let relation = SeriesRelation::from_series("r", walks).unwrap();
    let query = TimeSeries::new(relation.get(3).unwrap().values()[40..40 + WINDOW].to_vec());
    let statement = LogicalPlan::SubseqRange {
        relation: "r".into(),
        query,
        eps: 1.0,
        window: WINDOW,
    };
    let build = || {
        let spec = ShardSpec::hash(1).unwrap();
        ShardedIndex::build(IndexConfig::default(), &relation, spec).unwrap()
    };
    // Start the worker pool and every per-thread cache a build touches
    // before anything is measured.
    build().execute(&statement, None, 1).unwrap();
    let index = build();
    let left = left_by(|| index.execute(&statement, None, 1).unwrap());
    let st = index.subseq_held().unwrap().1.expect("built");
    assert!(st.paged().is_none(), "memory holds its trail tree");
    within_bound(
        st.trails_total(),
        st.config().k,
        relation.len(),
        left,
        "a build",
    );

    // Eight points on every third series close its partial trail and add
    // one; the read after repacks the tree.
    let mut index = index;
    drop(st);
    let edits = (0..relation.len()).step_by(3).map(|id| {
        let mut values = relation.get(id).unwrap().values().to_vec();
        values.extend(RandomWalkGenerator::new(id as u64).series(8).values());
        (id, TimeSeries::new(values))
    });
    index.extend_series_batch(edits.collect()).unwrap();
    index.execute(&statement, None, 1).unwrap();
    let st = index.subseq_held().unwrap().1.expect("built");
    let (trails, k) = (st.trails_total(), st.config().k);
    assert_eq!(st.tree().len(), trails);
    drop(index);
    let before = live();
    drop(st);
    let held = before - live();
    within_bound(trails, k, relation.len(), held, "an appended index, read");
}

/// `bytes` is at most what `trails` trails of `2·2k` bounds over `series`
/// series may hold.
fn within_bound(trails: usize, k: usize, series: usize, bytes: isize, what: &str) {
    let bounds = 2 * 2 * k * size_of::<f32>();
    let bound = trails * (bounds + 8 + 8) + 8 * series + FIXED;
    eprintln!(
        "{what}: {trails} trails hold {bytes} B ({:.1} B a trail), bound {bound} B",
        bytes as f64 / trails as f64
    );
    assert!(
        bytes <= bound as isize,
        "{what}: the ST-index holds {bytes} B, more than {bound} B: {trails} trails of \
         {bounds} B of bounds, one word and one word of node overhead each, a length per \
         series and {FIXED} B"
    );
}
