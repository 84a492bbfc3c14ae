//! Property-based round-trip suite for the persistence subsystem:
//! arbitrary catalogs (randomized relation counts, cardinalities, series
//! lengths and values — including varied-length relations for the
//! subsequence index) survive `save → open` with
//!
//! - **byte-identical snapshots** on re-serialization (which pins every
//!   stored `f64` bit, label and held window), and
//! - **identical answers and identical traversal statistics** for every
//!   query form: range, k-NN, join, and subsequence range/k-NN.
//!
//! This is the Lemma-1 promise extended across a process boundary: every
//! index is a pure function of what a snapshot stores, so a restored
//! index is indistinguishable from the one that was saved.

use proptest::prelude::*;
use tsq_core::{IndexConfig, LinearTransform, QueryWindow, SimilarityIndex};
use tsq_lang::Catalog;
use tsq_series::TimeSeries;
use tsq_store::{Decoder, Encoder};

/// An equal-length relation for the whole-match index: `count` series of
/// length `len` with bounded values.
fn whole_relation(max_count: usize, max_len: usize) -> impl Strategy<Value = Vec<TimeSeries>> {
    (2usize..=max_count, 8usize..=max_len).prop_flat_map(|(count, len)| {
        prop::collection::vec(
            prop::collection::vec(-1e3f64..1e3, len..=len).prop_map(TimeSeries::new),
            count..=count,
        )
    })
}

/// A varied-length relation for the ST-index (lengths deliberately
/// heterogeneous; some may fall below the window and contribute nothing).
fn varied_relation(max_count: usize) -> impl Strategy<Value = Vec<TimeSeries>> {
    prop::collection::vec(
        (6usize..48).prop_flat_map(|len| {
            prop::collection::vec(-1e3f64..1e3, len..=len).prop_map(TimeSeries::new)
        }),
        2..=max_count,
    )
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whole-match indexes: range + k-NN answers and traversal stats are
    /// identical after an in-memory save/open round trip.
    #[test]
    fn similarity_index_round_trips(rel in whole_relation(10, 40)) {
        let idx = SimilarityIndex::build(IndexConfig::default(), rel.clone()).unwrap();
        let mut enc = Encoder::new();
        idx.write_to(&mut enc).unwrap();
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let restored = SimilarityIndex::read_from(&mut dec).unwrap();
        dec.finish().unwrap();
        restored.tree().validate();
        let mut enc2 = Encoder::new();
        restored.write_to(&mut enc2).unwrap();
        prop_assert_eq!(&bytes, &enc2.into_bytes(), "byte-identical tree state");

        let n = rel[0].len();
        let t = LinearTransform::identity(n);
        let ma = LinearTransform::moving_average(n, 3.min(n));
        for q in [&rel[0], &rel[rel.len() - 1]] {
            for eps in [0.0, 1.0, 25.0] {
                let (a, sa) = idx.range_query(q, eps, &t, &QueryWindow::default()).unwrap();
                let (b, sb) = restored.range_query(q, eps, &t, &QueryWindow::default()).unwrap();
                prop_assert_eq!(a, b);
                prop_assert_eq!(sa.index, sb.index, "traversal stats must match");
                prop_assert_eq!(sa.candidates, sb.candidates);
                prop_assert_eq!(sa.false_hits, sb.false_hits);
            }
            let (ka, ksa) = idx.knn_query(q, 3, &ma).unwrap();
            let (kb, ksb) = restored.knn_query(q, 3, &ma).unwrap();
            prop_assert_eq!(ka, kb);
            prop_assert_eq!(ksa.index, ksb.index);
        }
    }

    /// ST-indexes over varied-length relations: a held window survives
    /// the round trip, and the restored catalog's subsequence range + k-NN
    /// statements — the first of which builds it — answer like the saved
    /// catalog's (rows and stats), and as the sliding-scan oracle does.
    #[test]
    fn subseq_index_round_trips(rel in varied_relation(8), window in 4usize..12) {
        // Query with a window cut from the longest stored series (one is
        // always >= 6; skip the rare case where none fits the window).
        let Some(src) = rel.iter().find(|s| s.len() >= window) else { return; };
        let q: Vec<String> = src.values()[..window].iter().map(f64::to_string).collect();
        let q = q.join(", ");
        let mut queries: Vec<String> = [0.0, 2.0, 50.0]
            .iter()
            .map(|eps| format!("FIND SUBSEQUENCE OF [{q}] IN v WITHIN {eps} WINDOW {window}"))
            .collect();
        queries.push(format!("FIND 5 NEAREST SUBSEQUENCE OF [{q}] IN v WINDOW {window}"));
        let mut cat = Catalog::new();
        cat.register(tsq_core::SeriesRelation::from_series("v", rel).unwrap()).unwrap();
        let want: Vec<_> = queries.iter().map(|q| cat.run(q).unwrap()).collect();
        let fresh = round_trip_catalog(&cat);
        prop_assert_eq!(fresh.subseq_cache_keys(), cat.subseq_cache_keys());
        for (q, want) in queries.iter().zip(&want) {
            prop_assert_eq!(&fresh.run(q).unwrap(), want, "{}", q);
        }
        for q in &queries[..3] {
            let scan = fresh.run(&format!("{q} WITH (force = scan)")).unwrap();
            prop_assert_eq!(&scan.rows, &fresh.run(q).unwrap().rows, "{}", q);
        }
    }

    /// Whole catalogs through the language layer: every query form
    /// (range, k-NN, join, subsequence) answers identically — rows and
    /// simulated disk accesses — on the restored catalog.
    #[test]
    fn catalog_round_trips(
        rel_a in whole_relation(8, 32),
        rel_b in whole_relation(6, 24),
    ) {
        let mut cat = Catalog::new();
        let len_a = rel_a[0].len();
        let len_b = rel_b[0].len();
        cat.register(tsq_core::SeriesRelation::from_series("alpha", rel_a).unwrap()).unwrap();
        cat.register(tsq_core::SeriesRelation::from_series("beta", rel_b).unwrap()).unwrap();
        let queries = [
            "FIND SIMILAR TO alpha.s0 IN alpha WITHIN 10".to_string(),
            "FIND 3 NEAREST TO beta.s1 IN beta".to_string(),
            "JOIN alpha WITHIN 2 WITH (force = index)".to_string(),
            "JOIN beta WITHIN 2 APPLY mavg(3)".to_string(),
            format!("FIND SUBSEQUENCE OF alpha.s1 IN alpha WITHIN 20 WINDOW {len_a}"),
            format!("FIND 2 NEAREST SUBSEQUENCE OF beta.s0 IN beta WINDOW {len_b}"),
        ];
        // Prime the subsequence cache so the snapshot carries ST-indexes.
        let want: Vec<_> = queries.iter().map(|q| cat.run(q).unwrap()).collect();
        let fresh = round_trip_catalog(&cat);
        prop_assert_eq!(fresh.subseq_cache_len(), cat.subseq_cache_len());
        for (q, want) in queries.iter().zip(&want) {
            let got = fresh.run(q).unwrap();
            prop_assert_eq!(&got, want, "{}", q);
        }
    }
}
