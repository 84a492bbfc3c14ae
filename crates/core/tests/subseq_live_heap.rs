//! A relation's ST-index keeps no samples, and over a paged relation no
//! trail tree either: built over a paged relation, it leaves on the heap
//! one length per series, its counters, and at most the pages its trail
//! pool and the frames its record pools may hold. Its build reads each
//! record through the pool and writes the trail tree to a page file of its
//! own, never keeping a copy of the samples or of the nodes.
//!
//! A binary of its own, because it installs a global allocator that counts
//! live bytes across every thread (`tsq_testkit::heap`): the build fans
//! out over the worker pool, and what its workers leave behind counts too.
//! It holds one test, so nothing else allocates while it measures.

use tsq_core::{IndexConfig, LogicalPlan, SeriesRelation, ShardSpec, ShardedIndex};
use tsq_series::generate::RandomWalkGenerator;
use tsq_series::TimeSeries;
use tsq_testkit::heap::left_by;

#[global_allocator]
static GLOBAL: tsq_testkit::heap::Tracking = tsq_testkit::heap::Tracking;

const WINDOW: usize = 16;

/// The index's fixed part, past its lengths: its own fields, the trail
/// file's name and pool bookkeeping, and the planner's profile of the
/// trail tree.
const FIXED: usize = 2048;

/// Record pool budget per shard: three 4 KiB frames, each holding one
/// record of 256 samples.
const BUDGET: u64 = 3 * 4096;

fn temp_path(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tsq-core-live-heap-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    dir.join(format!("{tag}.pages"))
}

/// `relation` in `shards` hash shards, paged at [`BUDGET`] per shard when
/// `tag` names the files.
fn sharded(relation: &SeriesRelation, shards: usize, tag: Option<&str>) -> ShardedIndex {
    let spec = ShardSpec::hash(shards).unwrap();
    let mut index = ShardedIndex::build(IndexConfig::default(), relation, spec).unwrap();
    if let Some(tag) = tag {
        for (shard, part) in index.parts_mut().iter_mut().enumerate() {
            let path = temp_path(&format!("{tag}-{shards}-{shard}"));
            part.attach_paged_budget(&path, BUDGET).unwrap();
        }
    }
    index
}

/// Bytes of every frame the relation's record pools may hold.
fn frame_capacity(index: &ShardedIndex) -> usize {
    let parts = index.parts().iter().map(|part| {
        let records = part.records().expect("paged");
        records.pool().capacity_pages() * records.frame_size()
    });
    parts.sum()
}

#[test]
fn a_paged_st_index_build_leaves_no_samples_on_the_heap() {
    let walks = RandomWalkGenerator::new(23).relation(96, 256);
    let sample_bytes: usize = walks.iter().map(|s| 8 * s.len()).sum();
    let relation = SeriesRelation::from_series("r", walks).unwrap();
    let query = TimeSeries::new(relation.get(3).unwrap().values()[40..40 + WINDOW].to_vec());
    let statement = LogicalPlan::SubseqRange {
        relation: "r".into(),
        query,
        eps: 1.0,
        window: WINDOW,
    };
    // Start the worker pool and every per-thread cache a build touches,
    // in memory and paged, before anything is measured.
    for tag in [None, Some("warm")] {
        sharded(&relation, 4, tag)
            .execute(&statement, None, 1)
            .unwrap();
    }
    for shards in [1usize, 4] {
        let mem = sharded(&relation, shards, None);
        let paged = sharded(&relation, shards, Some("paged"));
        let mem_left = left_by(|| mem.execute(&statement, None, 1).unwrap());
        let paged_left = left_by(|| paged.execute(&statement, None, 1).unwrap());
        assert!(mem.subseq_held().unwrap().1.is_some());
        assert!(paged.subseq_held().unwrap().1.is_some());
        let frames = frame_capacity(&paged);
        eprintln!(
            "{shards} shard(s): the in-memory build leaves {mem_left} B, the paged one \
             {paged_left} B; record frames {frames} B, samples {sample_bytes} B"
        );
        assert!(
            paged_left <= mem_left + frames as isize,
            "{shards} shard(s): the paged build leaves {paged_left} B, more than the \
             in-memory build's {mem_left} B and {frames} B of record frames"
        );
        // The trail tree is paged too: what stays is one length per
        // series, the fixed part, and what the trail and record pools may
        // hold — the trail pool's pages and its one read buffer.
        let st = paged.subseq_held().unwrap().1.unwrap();
        let trails = st.paged().expect("a paged relation pages its trail tree");
        let trail_pool = (trails.pool().capacity_pages() + 1) * trails.page_size();
        let bound = 8 * relation.len() + FIXED + trail_pool + frames;
        eprintln!(
            "{shards} shard(s): the paged build leaves {paged_left} B, bound {bound} B \
             (trail pool {trail_pool} B of a {} B file)",
            trails.page_count() as usize * trails.page_size()
        );
        assert!(
            paged_left <= bound as isize,
            "{shards} shard(s): the paged build leaves {paged_left} B, more than \
             {bound} B: lengths, counters, the trail pool and the record frames"
        );
        assert!(
            trail_pool < trails.page_count() as usize * trails.page_size() / 2,
            "the trail pool cannot hide the trail tree"
        );
        assert!(
            frames < sample_bytes / 2,
            "the frames cannot hide the samples"
        );
    }
}
