//! Every tree the engine builds, pinned by a digest of its stored layout.
//!
//! A digest hashes a tree in stored order: per node its level and entry
//! count, then per entry its rectangle's bits (`lo`, then `hi`, each bound
//! widened to `f64` as it is read) followed by its payload, or by the
//! child's digest in place. Two trees digest equally only if they hold the
//! same nodes, the same entries in the same order and the same coordinate
//! bits — so a change to how nodes are stored, loaded, split or decoded
//! cannot move a single entry unnoticed.
//!
//! An order digest hashes the same walk without the coordinates: the
//! nodes, their entry counts and the payloads in stored order. Bounds
//! stored as `f32` rounded outward moved every coordinate digest but no
//! order digest, and neither did STR keying on those stored bounds.
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
    walk(store, item, true)
}

/// The order digest of the tree behind `store`: [`digest`] without the
/// coordinates.
fn order<S: NodeStore>(store: S, item: impl Fn(&mut Fnv, S::Item) + Copy) -> u64
where
    S::Error: std::fmt::Debug,
{
    walk(store, item, false)
}

fn walk<S: NodeStore>(store: S, item: impl Fn(&mut Fnv, S::Item) + Copy, bounds: bool) -> u64
where
    S::Error: std::fmt::Debug,
{
    let mut hash = Fnv(0xcbf2_9ce4_8422_2325);
    hash.word(store.len() as u64);
    if !store.is_empty() {
        node(store, store.root(), item, bounds, &mut hash);
    }
    hash.0
}

fn node<S: NodeStore>(
    store: S,
    at: S::Ref,
    item: impl Fn(&mut Fnv, S::Item) + Copy,
    bounds: bool,
    hash: &mut Fnv,
) where
    S::Error: std::fmt::Debug,
{
    let guard = store.fetch(at, &mut SearchStats::default()).unwrap();
    hash.word(u64::from(S::level(&guard)));
    hash.word(S::entries(&guard).count() as u64);
    for slot in S::entries(&guard) {
        let rect = slot.rect();
        if bounds {
            for bound in rect.lo().iter().chain(rect.hi()) {
                hash.word(bound.to_bits());
            }
        }
        match slot {
            Slot::Item(_, payload) => item(hash, payload),
            Slot::Child(_, child) => node(store, child, item, bounds, hash),
        }
    }
}

fn id(hash: &mut Fnv, id: &usize) {
    hash.word(*id as u64);
}

/// Hashes a trail word of `index` as its decoded `(series, start, len)`.
fn trail(index: &SubseqIndex) -> impl Fn(&mut Fnv, &u64) + Copy + '_ {
    move |hash, &word| {
        let t = index.trails().entry(word).unwrap();
        hash.word(t.series as u64);
        hash.word(t.start as u64);
        hash.word(t.len as u64);
    }
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
            digest(index.tree(), trail(&index))
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
    assert_eq!(digest(index.tree(), id), 0x7b30_7b6b_6ce0_5dd8);
}

#[test]
fn the_stocks_and_feed_st_indexes_at_one_and_two_threads() {
    let stocks = StockGenerator::new(2).relation(400, 1024);
    assert_eq!(subseq_digest(&stocks, "stocks"), 0x6681_d8ce_b972_b33f);
    let feed = RandomWalkGenerator::new(4).relation(500, 512);
    assert_eq!(subseq_digest(&feed, "feed"), 0xb90c_c7a9_86f8_027f);
}

/// Appends of 1 to 13 points at a time to a few series of an ST-index:
/// partial trails widen in place and new ones are set aside, and the read
/// that follows repacks the tree a build over the final series packs.
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
    let got = digest(index.tree(), trail(&index));
    let series = values.into_iter().map(TimeSeries::new).collect();
    let fresh = SubseqIndex::build(SubseqConfig::new(32), series).unwrap();
    assert_eq!(got, digest(fresh.tree(), trail(&fresh)), "a rebuild's tree");
    assert_eq!(got, 0x73f6_de72_72ad_9a07);
}

#[test]
fn a_paged_tree_decodes_to_the_same_nodes() {
    let index = SimilarityIndex::build(IndexConfig::default(), walks(8000)).unwrap();
    let dir = std::env::temp_dir().join(format!("tsq-tree-digests-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("walks.pages");
    for capacity in [1usize, 64, usize::MAX] {
        let page_size = index.tree().paged_page_size().unwrap() as u64;
        let cache = PageCache::new((capacity as u64).saturating_mul(page_size));
        let paged = PagedTree::create(&path, index.tree(), |&id| id as u64, &cache).unwrap();
        let got = digest(&paged, |hash, word| hash.word(word));
        assert_eq!(got, 0x7b30_7b6b_6ce0_5dd8, "pool of {capacity} page(s)");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The walks, stocks and feed trees keep the order digests they had when
/// their bounds were `f64`s: neither rounding the bounds outward to `f32`
/// nor keying STR on those stored bounds moved an entry of any level. The
/// append chain's order is the one a build over its final series packs.
#[test]
fn every_tree_keeps_its_entry_order() {
    let walks8000 = walks(8000);
    let index = SimilarityIndex::build(IndexConfig::default(), walks8000.clone()).unwrap();
    let mut got = vec![order(index.tree(), id)];
    let stocks = StockGenerator::new(2).relation(400, 1024);
    let feed = RandomWalkGenerator::new(4).relation(500, 512);
    for relation in [stocks, feed] {
        let st = SubseqIndex::build(SubseqConfig::new(64), relation).unwrap();
        got.push(order(st.tree(), trail(&st)));
    }
    let relation = RandomWalkGenerator::new(11).relation(60, 300);
    let mut values: Vec<Vec<f64>> = relation.iter().map(|s| s.values().to_vec()).collect();
    let mut chain = SubseqIndex::build(SubseqConfig::new(32), relation).unwrap();
    let mut gen = RandomWalkGenerator::new(12);
    for round in 0..40usize {
        for series in [round % 60, (round * 7 + 3) % 60, (round * 13 + 5) % 60] {
            values[series].extend_from_slice(gen.series(1 + (round * 5 + series) % 13).values());
            let grown = TimeSeries::new(values[series].clone());
            chain.extend_series(series, grown).unwrap();
        }
    }
    got.push(order(chain.tree(), trail(&chain)));
    let want = [
        0x9d6b_2b23_7622_d9b2,
        0x61ab_bbc2_f4b5_1b6c,
        0x1bb0_3c14_3aac_e361,
        0xe5b5_1bae_074e_5718,
    ];
    assert_eq!(got, want, "walks, stocks, feed, append chain");
}
