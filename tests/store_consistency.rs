//! Property-based round-trip suite for the persistence subsystem below
//! the catalog (whole catalogs through `save → open` and `open_paged` are
//! the differential harness's, pinned in `catalog_round_trips`): arbitrary
//! indexes (randomized cardinalities, series lengths and values —
//! including varied-length relations for the subsequence index) survive a
//! round trip with
//!
//! - **byte-identical snapshots** on re-serialization (which pins every
//!   stored `f64` bit, label and held window), and
//! - **identical answers and identical traversal statistics** for range,
//!   k-NN and subsequence range/k-NN.
//!
//! This is the Lemma-1 promise extended across a process boundary: every
//! index is a pure function of what a snapshot stores, so a restored
//! index is indistinguishable from the one that was saved.

use tsq_core::{IndexConfig, LinearTransform, QueryWindow, SimilarityIndex};
use tsq_lang::Catalog;
use tsq_series::TimeSeries;
use tsq_store::{Decoder, Encoder};
use tsq_testkit::{differential, property, Config, Rng, Storage};

/// Cases per property.
const CASES: u32 = 24;

/// `len` bounded values.
fn series(rng: &mut Rng, len: usize) -> TimeSeries {
    TimeSeries::new((0..len).map(|_| rng.float(-1e3..1e3)).collect())
}

/// An equal-length relation for the whole-match index: 2 to `max_count`
/// series of one length in 8 to `max_len`, with bounded values.
fn whole_relation(rng: &mut Rng, max_count: usize, max_len: usize) -> Vec<TimeSeries> {
    let len = rng.range(8, max_len);
    rng.list(2..=max_count, |rng| series(rng, len))
}

/// A varied-length relation for the ST-index (lengths deliberately
/// heterogeneous, 6 to 47; some may fall below the window and contribute
/// nothing).
fn varied_relation(rng: &mut Rng, max_count: usize) -> Vec<TimeSeries> {
    rng.list(2..=max_count, |rng| {
        let len = rng.range(6, 47);
        series(rng, len)
    })
}

fn round_trip_catalog(cat: &Catalog) -> Catalog {
    let bytes = cat.snapshot_bytes().expect("serialize snapshot");
    let mut fresh = Catalog::new();
    fresh.restore_bytes(&bytes).expect("snapshot must restore");
    assert_eq!(
        bytes,
        fresh.snapshot_bytes().expect("re-serialize snapshot"),
        "re-serialization must be byte-identical"
    );
    fresh
}

/// Whole-match indexes: range + k-NN answers and traversal stats are
/// identical after an in-memory save/open round trip.
#[test]
fn similarity_index_round_trips() {
    let draw = |rng: &mut Rng| (whole_relation(rng, 10, 40), ());
    property("similarity_index_round_trips", CASES, draw, |rel, _| {
        let idx = SimilarityIndex::build(IndexConfig::default(), rel.to_vec()).unwrap();
        let mut enc = Encoder::new();
        idx.write_to(&mut enc).unwrap();
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let restored = SimilarityIndex::read_from(&mut dec).unwrap();
        dec.finish().unwrap();
        restored.tree().validate();
        let mut enc2 = Encoder::new();
        restored.write_to(&mut enc2).unwrap();
        assert_eq!(&bytes, &enc2.into_bytes(), "byte-identical tree state");

        let n = rel[0].len();
        let t = LinearTransform::identity(n);
        let ma = LinearTransform::moving_average(n, 3.min(n));
        for q in [&rel[0], &rel[rel.len() - 1]] {
            for eps in [0.0, 1.0, 25.0] {
                let (a, sa) = idx
                    .range_query(q, eps, &t, &QueryWindow::default())
                    .unwrap();
                let (b, sb) = restored
                    .range_query(q, eps, &t, &QueryWindow::default())
                    .unwrap();
                assert_eq!(a, b);
                assert_eq!(sa.index, sb.index, "traversal stats must match");
                assert_eq!(sa.candidates, sb.candidates);
                assert_eq!(sa.false_hits, sb.false_hits);
            }
            let (ka, ksa) = idx.knn_query(q, 3, &ma).unwrap();
            let (kb, ksb) = restored.knn_query(q, 3, &ma).unwrap();
            assert_eq!(ka, kb);
            assert_eq!(ksa.index, ksb.index);
        }
    });
}

/// ST-indexes over varied-length relations: a held window survives
/// the round trip, and the restored catalog's subsequence range + k-NN
/// statements — the first of which builds it — answer like the saved
/// catalog's (rows and stats), and as the sliding-scan oracle does.
#[test]
fn subseq_index_round_trips() {
    let draw = |rng: &mut Rng| (varied_relation(rng, 8), rng.range(4, 11));
    property("subseq_index_round_trips", CASES, draw, |rel, &window| {
        // Query with a window cut from the longest stored series (one is
        // always >= 6; skip the rare case where none fits the window).
        let Some(src) = rel.iter().find(|s| s.len() >= window) else {
            return;
        };
        let q: Vec<String> = src.values()[..window].iter().map(f64::to_string).collect();
        let q = q.join(", ");
        let mut queries: Vec<String> = [0.0, 2.0, 50.0]
            .iter()
            .map(|eps| format!("FIND SUBSEQUENCE OF [{q}] IN v WITHIN {eps} WINDOW {window}"))
            .collect();
        queries.push(format!(
            "FIND 5 NEAREST SUBSEQUENCE OF [{q}] IN v WINDOW {window}"
        ));
        let mut cat = Catalog::new();
        let rel = tsq_core::SeriesRelation::from_series("v", rel.to_vec()).unwrap();
        cat.register(rel).unwrap();
        let want: Vec<_> = queries.iter().map(|q| cat.run(q).unwrap()).collect();
        let fresh = round_trip_catalog(&cat);
        assert_eq!(fresh.subseq_window("v"), cat.subseq_window("v"));
        for (q, want) in queries.iter().zip(&want) {
            assert_eq!(&fresh.run(q).unwrap(), want, "{q}");
        }
        for q in &queries[..3] {
            let scan = fresh.run(&format!("{q} WITH (force = scan)")).unwrap();
            assert_eq!(&scan.rows, &fresh.run(q).unwrap().rows, "{q}");
        }
    });
}

/// Catalogs of two relations through `save → open` and
/// `save → open_paged`: every statement answers like the reference and its
/// in-memory peer, and the held windows and snapshot bytes survive.
#[test]
fn catalog_round_trips() {
    let configs = [Storage::SaveOpen, Storage::Paged].map(|storage| Config {
        storage,
        ..Config::REFERENCE
    });
    differential::pinned(1200, 4, &configs);
}
