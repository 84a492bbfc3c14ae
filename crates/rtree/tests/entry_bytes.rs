//! What a bulk-loaded tree costs per entry on the heap: its rectangle's
//! `2·dims` coordinates as stored (`f32`s, rounded outward), its payload,
//! and at most one word of node overhead (node headers, child links and the
//! parents' rectangles, shared by the entries of a node) — no box per
//! rectangle and no slack in a node.
//!
//! A binary of its own with one test, because it installs a global
//! allocator that tracks the live bytes every allocation requested
//! (`tsq_testkit::heap`).

use tsq_rtree::{RStarTree, RTreeConfig, Rect};
use tsq_testkit::heap::live;

#[global_allocator]
static GLOBAL: tsq_testkit::heap::Tracking = tsq_testkit::heap::Tracking;

/// As many entries as the benchmark's `stocks` ST-index holds trails.
const N: usize = 48_400;
/// A trail's dimensionality: three DFT coefficients.
const DIMS: usize = 6;
/// A trail entry: the word `series << 32 | start`.
type Payload = u64;

/// Small boxes scattered over a cube, like trail rectangles.
fn rects() -> Vec<(Rect, Payload)> {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut unit = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..N)
        .map(|i| {
            let lo: Vec<f64> = (0..DIMS).map(|_| 100.0 * unit()).collect();
            let hi = lo.iter().map(|l| l + unit()).collect();
            (Rect::new(lo, hi), ((i as u64) << 32) | (8 * i as u64))
        })
        .collect()
}

#[test]
fn a_bulk_loaded_entry_costs_its_coordinates_its_payload_and_one_word() {
    let before = live();
    let tree = RStarTree::bulk_load(RTreeConfig::default(), rects());
    let held = live() - before;
    assert_eq!(tree.len(), N);
    let per_entry = held as f64 / N as f64;
    let budget = 2 * DIMS * size_of::<f32>() + size_of::<Payload>() + size_of::<usize>();
    eprintln!("{held} live bytes for {N} entries: {per_entry:.2} B per entry (budget {budget})");
    assert!(
        per_entry <= budget as f64,
        "{per_entry:.2} live bytes per entry, above the {budget} B of its coordinates, \
         payload and one word"
    );
}
