//! A relation's labels are held once: in one arena, with an end offset and
//! a place in label order per label, and no string or hash-table entry of
//! their own.
//!
//! A binary of its own, because it installs a global allocator that counts
//! live bytes across every thread (`tsq_testkit::heap`). It runs without
//! libtest (`harness = false`), its one test on the main thread, so no
//! other thread allocates while it measures: under load, libtest's main
//! thread once added 900 B of its bookkeeping to the 8 000-label count,
//! past the bound's 59 B of slack.

use tsq_core::SeriesRelation;
use tsq_series::TimeSeries;
use tsq_testkit::heap::live;

#[global_allocator]
static GLOBAL: tsq_testkit::heap::Tracking = tsq_testkit::heap::Tracking;

/// The labels' fixed part: the relation's name.
const FIXED: usize = 64;

fn main() {
    tsq_testkit::heap::run_alone(&[(
        "labels_hold_each_label_once_in_one_arena",
        labels_hold_each_label_once_in_one_arena,
    )]);
}

fn labels_hold_each_label_once_in_one_arena() {
    for count in [1usize, 100, 8000] {
        let before = live();
        let (labels, bytes) = {
            let items: Vec<(String, TimeSeries)> = (0..count)
                .map(|i| (format!("s{i}"), TimeSeries::new(vec![0.0])))
                .collect();
            let bytes: usize = items.iter().map(|(label, _)| label.len()).sum();
            let relation = SeriesRelation::from_labeled("walks", items).unwrap();
            (relation.into_labels(), bytes)
        };
        let held = live() - before;
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
