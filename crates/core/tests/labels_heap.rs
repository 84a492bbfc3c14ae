//! A relation's labels are held once: in one arena, with an end offset and
//! a place in label order per label, and no string or hash-table entry of
//! their own.
//!
//! A binary of its own, because it installs a global allocator that counts
//! live bytes across every thread (`live_heap`). It holds one test, so
//! nothing else allocates while it measures.

mod live_heap;

use tsq_core::SeriesRelation;
use tsq_series::TimeSeries;

/// The labels' fixed part: the relation's name.
const FIXED: usize = 64;

#[test]
fn labels_hold_each_label_once_in_one_arena() {
    for count in [1usize, 100, 8000] {
        let before = live_heap::live();
        let (labels, bytes) = {
            let items: Vec<(String, TimeSeries)> = (0..count)
                .map(|i| (format!("s{i}"), TimeSeries::new(vec![0.0])))
                .collect();
            let bytes: usize = items.iter().map(|(label, _)| label.len()).sum();
            let relation = SeriesRelation::from_labeled("walks", items).unwrap();
            (relation.into_labels(), bytes)
        };
        let held = live_heap::live() - before;
        let bound = bytes + 2 * 8 * count + FIXED;
        eprintln!(
            "{count} label(s) of {bytes} B hold {held} B ({:.1} B a label), bound {bound} B",
            held as f64 / count as f64
        );
        assert!(
            held <= bound as isize,
            "{count} label(s) hold {held} B, more than {bound} B: their {bytes} B, two \
             words each and {FIXED} B"
        );
        assert_eq!(labels.id(&format!("s{}", count - 1)), Some(count - 1));
    }
}
