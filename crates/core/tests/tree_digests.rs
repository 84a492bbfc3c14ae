//! Every tree the engine builds, pinned by a digest of its stored layout.
//!
//! A digest hashes a tree in stored order: per node its level and entry
//! count, then per entry its rectangle's bits (`lo`, then `hi`) followed by
//! its payload, or by the child's digest in place. Two trees digest equally
//! only if they hold the same nodes, the same entries in the same order and
//! the same coordinate bits — so a change to how nodes are stored, loaded,
//! split or decoded cannot move a single entry unnoticed.
//!
//! The pinned values were recorded on x86_64 Linux with glibc's libm (the
//! features go through its `sin`, `cos` and `atan2`). Every tree is
//! reached through the public [`NodeStore`] interface, the paged tree's
//! decoded pages included.

use tsq_core::{IndexConfig, SimilarityIndex, SubseqConfig, SubseqIndex};
use tsq_rtree::{NodeStore, PageCache, PagedTree, SearchStats, Slot};
use tsq_series::generate::{RandomWalkGenerator, StockGenerator};
use tsq_series::TimeSeries;

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// The digest of the tree behind `store`; `item` hashes one payload.
fn digest<S: NodeStore>(store: S, item: impl Fn(&mut Fnv, S::Item) + Copy) -> u64
where
    S::Error: std::fmt::Debug,
{
    let mut hash = Fnv(0xcbf2_9ce4_8422_2325);
    hash.word(store.len() as u64);
    if !store.is_empty() {
        node(store, store.root(), item, &mut hash);
    }
    hash.0
}

fn node<S: NodeStore>(store: S, at: S::Ref, item: impl Fn(&mut Fnv, S::Item) + Copy, hash: &mut Fnv)
where
    S::Error: std::fmt::Debug,
{
    let guard = store.fetch(at, &mut SearchStats::default()).unwrap();
    hash.word(u64::from(S::level(&guard)));
    hash.word(S::entries(&guard).count() as u64);
    for slot in S::entries(&guard) {
        let rect = slot.rect();
        for bound in rect.lo().iter().chain(rect.hi()) {
            hash.word(bound.to_bits());
        }
        match slot {
            Slot::Item(_, payload) => item(hash, payload),
            Slot::Child(_, child) => node(store, child, item, hash),
        }
    }
}

fn id(hash: &mut Fnv, id: &usize) {
    hash.word(*id as u64);
}

fn trail(hash: &mut Fnv, t: &tsq_core::subseq::TrailEntry) {
    hash.word(t.series as u64);
    hash.word(t.start as u64);
    hash.word(t.len as u64);
}

fn walks(count: usize) -> Vec<TimeSeries> {
    RandomWalkGenerator::new(7).relation(count, 128)
}

/// The window-64 ST-index over `relation` at each thread count: one tree.
fn subseq_digest(relation: &[TimeSeries], what: &str) -> u64 {
    let digests: Vec<u64> = [1usize, 2]
        .into_iter()
        .map(|threads| {
            let index =
                SubseqIndex::build_parallel(SubseqConfig::new(64), relation.to_vec(), threads)
                    .unwrap();
            digest(index.tree(), trail)
        })
        .collect();
    assert_eq!(
        digests[0], digests[1],
        "{what}: thread count moved the tree"
    );
    digests[0]
}

#[test]
fn the_walks_whole_match_tree() {
    let index = SimilarityIndex::build(IndexConfig::default(), walks(8000)).unwrap();
    assert_eq!(digest(index.tree(), id), 0x77d4_fb5e_2d97_baba);
}

#[test]
fn the_stocks_and_feed_st_indexes_at_one_and_two_threads() {
    let stocks = StockGenerator::new(2).relation(400, 1024);
    assert_eq!(subseq_digest(&stocks, "stocks"), 0x24b7_a37a_916e_2746);
    let feed = RandomWalkGenerator::new(4).relation(500, 512);
    assert_eq!(subseq_digest(&feed, "feed"), 0xe811_8707_5703_40a2);
}

#[test]
fn an_insert_built_tree() {
    let config = IndexConfig {
        bulk_load: false,
        ..IndexConfig::default()
    };
    let index = SimilarityIndex::build(config, walks(3000)).unwrap();
    assert_eq!(digest(index.tree(), id), 0xc1c1_bc87_9e73_34e3);
}

/// Appends of 1 to 13 points at a time to a few series of an ST-index:
/// partial trails widen in place, full ones enter by R\* insertion (split
/// and forced reinsert included).
#[test]
fn an_st_index_after_an_append_chain() {
    let relation = RandomWalkGenerator::new(11).relation(60, 300);
    let mut values: Vec<Vec<f64>> = relation.iter().map(|s| s.values().to_vec()).collect();
    let mut index = SubseqIndex::build(SubseqConfig::new(32), relation).unwrap();
    let mut gen = RandomWalkGenerator::new(12);
    for round in 0..40usize {
        for series in [round % 60, (round * 7 + 3) % 60, (round * 13 + 5) % 60] {
            let points = gen.series(1 + (round * 5 + series) % 13);
            values[series].extend_from_slice(points.values());
            index
                .extend_series(series, TimeSeries::new(values[series].clone()))
                .unwrap();
        }
    }
    index.tree().validate();
    assert_eq!(digest(index.tree(), trail), 0x0a1c_2563_e25c_8574);
}

#[test]
fn a_paged_tree_decodes_to_the_same_nodes() {
    let index = SimilarityIndex::build(IndexConfig::default(), walks(8000)).unwrap();
    let dir = std::env::temp_dir().join(format!("tsq-tree-digests-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("walks.pages");
    index.tree().write_paged(&path, |&id| id as u64).unwrap();
    for capacity in [1usize, 64, usize::MAX] {
        let page_size = index.tree().paged_page_size().unwrap() as u64;
        let cache = PageCache::new((capacity as u64).saturating_mul(page_size));
        let paged = PagedTree::open(&path, &cache).unwrap();
        let got = digest(&paged, |hash, word| hash.word(word));
        assert_eq!(got, 0x77d4_fb5e_2d97_baba, "pool of {capacity} page(s)");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
