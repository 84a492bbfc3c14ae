//! An in-memory ST-index holds each trail once, as its tree word: a trail
//! costs its rectangle's `2·2k` bounds (`f32`s, rounded outward) and one
//! word, plus at most one word of node overhead (tsq-rtree's
//! `entry_bytes`), and the index one length per series and a fixed part.
//!
//! A binary of its own, because it installs a global allocator that counts
//! live bytes across every thread (`live_heap`). It holds one test, so
//! nothing else allocates while it measures.

mod live_heap;

use live_heap::left_by;
use tsq_core::{IndexConfig, LogicalPlan, SeriesRelation, ShardSpec, ShardedIndex};
use tsq_series::generate::RandomWalkGenerator;
use tsq_series::TimeSeries;

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
    let trails = st.trails_total();
    assert_eq!(st.tree().len(), trails);
    let bounds = 2 * 2 * st.config().k * size_of::<f32>();
    let bound = trails * (bounds + 8 + 8) + 8 * relation.len() + FIXED;
    eprintln!(
        "{trails} trails leave {left} B ({:.1} B a trail), bound {bound} B",
        left as f64 / trails as f64
    );
    assert!(
        left <= bound as isize,
        "the ST-index leaves {left} B, more than {bound} B: {trails} trails of {bounds} B \
         of bounds, one word and one word of node overhead each, a length per series and \
         {FIXED} B"
    );
}
