//! What a bulk-loaded tree costs per entry on the heap: its rectangle's
//! `2·dims` coordinates as stored (`f32`s, rounded outward), its payload,
//! and at most one word of node overhead (node headers, child links and the
//! parents' rectangles, shared by the entries of a node) — no box per
//! rectangle and no slack in a node.
//!
//! A binary of its own with one test, because it installs a global
//! allocator that tracks the live bytes every allocation requested.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use tsq_rtree::{RStarTree, RTreeConfig, Rect};

static LIVE: AtomicIsize = AtomicIsize::new(0);

/// The system allocator, keeping the sum of the sizes of live blocks.
struct Tracking;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the counter is
// an atomic, which neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract, and
        // `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract, and
        // `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Tracking = Tracking;

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
    let before = LIVE.load(Ordering::Relaxed);
    let tree = RStarTree::bulk_load(RTreeConfig::default(), rects());
    let held = LIVE.load(Ordering::Relaxed) - before;
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
