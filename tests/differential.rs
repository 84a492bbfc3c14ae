//! One differential harness over every execution layout.
//!
//! The paper promises that the transformed-index answer *is* the scan's
//! (Lemma 1; Table 1's join methods agree). Here every layout of `common`'s
//! list — a `force`, worker threads, hash shards, storage restored by
//! `save → open` or `save → open_paged(…, 1)`, a live `tsq-service` socket
//! — answers as the one-shard, in-memory, in-process reference does.
//!
//! **Scripts.** A seeded generator writes statements against the reference
//! catalog it runs as it goes: `REGISTER` (a relation as `APPEND`'s CSV
//! rows; 20 to 48 series at every fourth seed), every query form with
//! `APPLY`, `WHERE`, `WITH` and `EXPLAIN [ANALYZE]`, `APPEND`s (new
//! labels, ragged stretches), `SHARD`, subsequence windows around the
//! held one, statements that must fail.
//! A case runs three drawn layouts, the second with the first's shards and
//! force. Shards apply at `REGISTER` and to each `SHARD <rel> INTO 1`;
//! restored storage takes mutations on an in-memory writer and answers
//! reads from what its last save restores (paged relations refuse
//! `APPEND`).
//!
//! **Policy**, against the reference: the first error; rows, order and
//! distance bits (joins as unordered pairs where the layout changes the
//! force, a forced index join holding each pair both ways); non-pool
//! counters and `=>`/`actual:` plan lines where the operator is the
//! reference's and scans, probes the subsequence index or runs on one
//! shard — but an ST-index an `APPEND` extended keeps its own node layout
//! against a restored fresh build. Scattered counters sum one block per
//! shard; memory touches no pool. Against the first earlier layout of the
//! same shards and force: the plan, non-pool counters per shard, the plan
//! text but `measured:` lines. At the end: the reference's windows, and the
//! snapshot of a catalog freshly registered from the final series, kept by
//! the layout's own save and restore; a server counts what its client saw
//! and renders each read alike over HTTP. A divergence is delta-debugged
//! and printed as a [`replay`] call with the seed and the layouts.
//!
//! The harness itself is `common::differential`; the pairwise suites' tests
//! run it pinned to the layouts they name.

mod common;

use common::differential::{case, replay, Coverage, SEED};
use common::{Config, Storage, Transport, FORCES, SHARDS, STORAGES, THREADS, TRANSPORTS};
use tsq_core::ForceOp;

/// The committed budget: cases from [`SEED`], two threads.
const CASES: u64 = 24;

/// Statement forms, each of which every configuration value drawn must
/// run at least `FLOOR` times over the committed budget, and least counts
/// of the cases the generator must keep reaching.
const FORMS: &str =
    "register range knn join subseq-range subseq-knn append shard explain analyze must-fail";
const FLOOR: usize = 2;
const REACHED: [(&str, usize); 6] = [
    ("large × any", 15),
    ("subseq<held × any", 15),
    ("scanfull-join × any", 15),
    ("new-label × any", 15),
    ("ragged-refusal × any", 15),
    ("drawn × transport=Wire", 8),
];

#[test]
fn every_layout_answers_like_the_one_shard_reference() {
    let seeds = |half| (half..CASES).step_by(2);
    let run = |half| seeds(half).try_fold(Coverage::new(), |c, i| case(SEED + i, None, c));
    let halves = std::thread::scope(|s| {
        let halves = [0, 1].map(|h| s.spawn(move || run(h)));
        halves.map(|half| half.join().unwrap())
    });
    let mut coverage = Coverage::new();
    for half in halves {
        for (key, n) in half.unwrap_or_else(|why| panic!("{why}")) {
            *coverage.entry(key).or_default() += n;
        }
    }
    let mut floors: Vec<(String, usize)> = REACHED.map(|(what, n)| (what.into(), n)).into();
    let mut drawn = 0;
    for value in coverage.keys().filter_map(|k| k.strip_prefix("drawn × ")) {
        drawn += 1;
        let forms = FORMS.split(' ');
        floors.extend(forms.map(|form| (format!("{form} × {value}"), FLOOR)));
    }
    let values = FORCES.len() + THREADS.len() + SHARDS.len() + STORAGES.len() + TRANSPORTS.len();
    let count = |what: &str| coverage.get(what).copied().unwrap_or(0);
    floors.retain(|(what, floor)| count(what) < *floor);
    let reached = drawn == values && floors.is_empty();
    assert!(
        reached,
        "{drawn}/{values} values drawn; short of {floors:?}"
    );
}

/// A `WHERE` window bounds the stored series' own mean and std under every
/// transformation and access path; the index filter once met it on the
/// transformed rectangle and dismissed `s2` (mean 0.9, shifted to 3.4).
#[test]
fn a_where_window_bounds_the_stored_moments_under_a_transform() {
    let (mut scan, mut paged) = (Config::REFERENCE, Config::REFERENCE);
    scan.force = Some(ForceOp::Scan);
    (paged.shards, paged.storage, paged.transport) = (3, Storage::Paged, Transport::Wire);
    replay(
        &[scan, paged],
        r#"
        REGISTER v CSV (s0, -0.5, -1.5, -1, -1.5, -2, -1, -0.5, -1, -1, 0, 0.5, 0, 0, 0, 0.5, 0, 0, -1, -1.5, -1.5) (s1, -1.5, -1.5, -1.5, -1.5, -2.5, -2, -1.5, -1, 0, -1, -1, -1.5, -0.5, -0.5, 0, 1, 0.5, 0, -0.5, -1.5) (s2, 3, 3.5, 2.5, 3, 2, 1.5, 1.5, 0.5, 0, -0.5, -1, -1.5, -1.5, -0.5, 0.5, 1.5, 2.5, 1.5, 0.5, 1.5) (s3, -4, -5, -5, -5.5, -6.5, -5.5, -6, -7, -7, -7.5, -6.5, -7.5, -7.5, -7.5, -8.5, -9.5, -8.5, -8, -8.5, -7.5) (s4, -0.5, -1.5, -1, -1.5, -2, -1, -0.5, -1, -1, 0, 0.5, 0, 0, 0, 0.5, 0, 0, -1, -1.5, -1.5) (s5, -1.5, -1, -0.5, -1.5, -1.5, -2.5, -2.5, -2.5, -2.5, -2, -2.5, -3.5, -2.5, -1.5, -2.5, -2, -3, -3, -3.5, -3)
        FIND SIMILAR TO v.s2 IN v WITHIN 2 APPLY shift(2.5) WHERE MEAN BETWEEN -2 AND 3 WITH (force = index)
        "#,
    );
}
