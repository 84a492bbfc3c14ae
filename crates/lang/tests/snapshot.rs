//! Catalog snapshot semantics: round-trip fidelity, atomic
//! collision-checked restore (the PR-4 bugfix), each relation's held
//! windows persisted in recency order and built on first use, and typed
//! rejection of corrupt / truncated / wrong-version / wrong-endian /
//! bit-flipped snapshots and hostile relation sections — never a panic.

use std::path::PathBuf;

use tsq_core::shard::MAX_SUBSEQ_WINDOWS;
use tsq_core::{Error, SeriesRelation};
use tsq_lang::{Catalog, LangError};
use tsq_series::generate::{RandomWalkGenerator, StockGenerator};
use tsq_series::TimeSeries;
use tsq_store::{Encoder, StoreError};

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tsq-snapshot-tests-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    cat.register(
        SeriesRelation::from_series("walks", RandomWalkGenerator::new(41).relation(40, 32))
            .unwrap(),
    )
    .unwrap();
    cat.register(
        SeriesRelation::from_series("stocks", StockGenerator::new(42).relation(25, 32)).unwrap(),
    )
    .unwrap();
    cat
}

/// The whole language surface, exercised against one catalog.
fn workload() -> Vec<String> {
    vec![
        "FIND SIMILAR TO walks.s1 IN walks WITHIN 2.5".into(),
        "FIND SIMILAR TO walks.s0 IN walks WITHIN 5 APPLY mavg(4)".into(),
        "FIND 6 NEAREST TO stocks.s3 IN stocks".into(),
        "FIND 4 NEAREST TO walks.s2 IN walks APPLY reverse".into(),
        "JOIN stocks WITHIN 1.5 APPLY mavg(4) WITH (force = index)".into(),
        "JOIN walks WITHIN 1.0".into(),
        "FIND SUBSEQUENCE OF walks.s5 IN walks WITHIN 40 WINDOW 32".into(),
        "FIND 3 NEAREST SUBSEQUENCE OF stocks.s1 IN stocks WINDOW 32".into(),
    ]
}

#[test]
fn save_open_round_trip_preserves_every_query_form() {
    let cat = catalog();
    // Prime the subsequence cache so the snapshot holds windows.
    for q in workload() {
        cat.run(&q).unwrap();
    }
    let want: Vec<_> = workload().iter().map(|q| cat.run(q).unwrap()).collect();
    let path = temp_path("roundtrip.tsq");
    let bytes = cat.save(&path).unwrap();
    assert_eq!(bytes, std::fs::metadata(&path).unwrap().len());

    let mut fresh = Catalog::new();
    let restored = fresh.open(&path).unwrap();
    assert_eq!(restored, vec!["stocks".to_string(), "walks".to_string()]);
    // The held windows came along; their first statements build them.
    assert_eq!(fresh.subseq_cache_len(), cat.subseq_cache_len());
    for (q, want) in workload().iter().zip(&want) {
        let got = fresh.run(q).unwrap();
        assert_eq!(&got, want, "{q}: restored catalog must answer identically");
    }
}

/// `save → open → save` reproduces the file byte for byte, with and
/// without ST-indexes, at one shard and at four.
#[test]
fn save_open_save_is_byte_identical() {
    for shards in [1usize, 4] {
        for primed in [false, true] {
            let mut cat = catalog();
            cat.run_mut(&format!("SHARD walks INTO {shards} BY HASH"))
                .unwrap();
            if primed {
                for q in [
                    "FIND SUBSEQUENCE OF walks.s0 IN walks WITHIN 10 WINDOW 32",
                    "FIND 2 NEAREST SUBSEQUENCE OF [1, 2, 1.5, -0.5, 0, 2, 1, 0.25] IN walks WINDOW 8",
                    "FIND 3 NEAREST SUBSEQUENCE OF stocks.s1 IN stocks WINDOW 32",
                ] {
                    cat.run(q).unwrap();
                }
            }
            assert_eq!(cat.subseq_cache_len(), if primed { 3 } else { 0 });
            let first = cat.snapshot_bytes().unwrap();
            let mut fresh = Catalog::new();
            fresh.restore_bytes(&first).unwrap();
            assert_eq!(fresh.subseq_cache_keys(), cat.subseq_cache_keys());
            assert_eq!(
                fresh.snapshot_bytes().unwrap(),
                first,
                "{shards} shard(s), primed = {primed}: canonical encoding must survive a round trip"
            );
        }
    }
}

/// Restart at every shard count: a primed window travels with the
/// snapshot (same cache keys, built on the other side by its first reader,
/// same answers), and `save → open → save` reproduces the file byte for
/// byte for a one-shard and a three-shard catalog alike.
#[test]
fn primed_windows_survive_a_restart_at_every_shard_count() {
    for shards in [1usize, 3] {
        let mut cat = catalog();
        cat.run_mut(&format!("SHARD walks INTO {shards} BY HASH"))
            .unwrap();
        let probes = [
            "FIND SUBSEQUENCE OF walks.s5 IN walks WITHIN 40 WINDOW 32",
            "FIND 3 NEAREST SUBSEQUENCE OF [1, 2, 1.5, -0.5, 0, 2, 1, 0.25] IN walks WINDOW 8",
            "FIND 3 NEAREST SUBSEQUENCE OF stocks.s1 IN stocks WINDOW 32",
        ];
        let want: Vec<_> = probes.iter().map(|q| cat.run(q).unwrap()).collect();
        assert_eq!(cat.subseq_cache_len(), 3);

        let path = temp_path(&format!("restart-{shards}.tsq"));
        cat.save(&path).unwrap();
        let mut reopened = Catalog::new();
        reopened.open(&path).unwrap();
        assert_eq!(
            reopened.subseq_cache_keys(),
            cat.subseq_cache_keys(),
            "{shards} shard(s)"
        );
        // EXPLAIN of a held window builds it: a cached plan proves the
        // restored window is what answers.
        let explain = reopened
            .run(&format!("EXPLAIN {}", probes[0]))
            .unwrap()
            .explain
            .unwrap();
        assert!(!explain.contains("cold"), "{explain}");
        for (q, want) in probes.iter().zip(&want) {
            assert_eq!(&reopened.run(q).unwrap(), want, "{shards} shard(s): {q}");
        }
        assert_eq!(
            reopened.snapshot_bytes().unwrap(),
            std::fs::read(&path).unwrap(),
            "{shards} shard(s): save → open → save"
        );
    }
}

#[test]
fn load_builds_a_fresh_catalog() {
    let cat = catalog();
    let path = temp_path("load.tsq");
    cat.save(&path).unwrap();
    let loaded = Catalog::load(&path).unwrap();
    assert_eq!(loaded.relation_names(), vec!["stocks", "walks"]);
    let a = cat.run("FIND 3 NEAREST TO walks.s7 IN walks").unwrap();
    let b = loaded.run("FIND 3 NEAREST TO walks.s7 IN walks").unwrap();
    assert_eq!(a, b);
}

#[test]
fn name_collision_is_a_typed_error_and_restore_is_atomic() {
    let cat = catalog();
    let path = temp_path("collision.tsq");
    cat.save(&path).unwrap();

    // Target catalog already has a different "walks" plus its own cache
    // entry and an unrelated relation.
    let mut target = Catalog::new();
    target
        .register(
            SeriesRelation::from_series("walks", RandomWalkGenerator::new(99).relation(5, 16))
                .unwrap(),
        )
        .unwrap();
    target
        .register(
            SeriesRelation::from_series("other", RandomWalkGenerator::new(98).relation(4, 16))
                .unwrap(),
        )
        .unwrap();
    target
        .run("FIND SUBSEQUENCE OF walks.s0 IN walks WITHIN 100 WINDOW 16")
        .unwrap();
    let cache_before = target.subseq_cache_keys();
    let walks_before = target
        .run("FIND SIMILAR TO walks.s0 IN walks WITHIN 100")
        .unwrap();

    let err = target.open(&path).unwrap_err();
    assert!(
        matches!(
            err,
            LangError::Engine(Error::Store(StoreError::DuplicateRelation { ref name }))
                if name == "walks"
        ),
        "{err:?}"
    );

    // Atomicity: nothing was merged — not even the non-colliding
    // "stocks" relation — and the ST-indexes are untouched.
    assert_eq!(target.relation_names(), vec!["other", "walks"]);
    assert!(target.run("FIND 1 NEAREST TO stocks.s0 IN stocks").is_err());
    assert_eq!(target.subseq_cache_keys(), cache_before);
    assert_eq!(
        target
            .run("FIND SIMILAR TO walks.s0 IN walks WITHIN 100")
            .unwrap(),
        walks_before,
        "the pre-existing relation must keep answering from its own data"
    );
}

#[test]
fn collision_failure_does_not_clobber_cache_invalidation() {
    // Regression: a failed open must leave the relation's ST-indexes
    // where they were — and re-registering the relation afterwards still
    // drops them with the index it replaces.
    let cat = catalog();
    let path = temp_path("collision-invalidate.tsq");
    cat.save(&path).unwrap();

    let mut target = Catalog::new();
    target
        .register(
            SeriesRelation::from_series("walks", RandomWalkGenerator::new(7).relation(6, 16))
                .unwrap(),
        )
        .unwrap();
    target
        .run("FIND SUBSEQUENCE OF walks.s0 IN walks WITHIN 100 WINDOW 16")
        .unwrap();
    assert_eq!(target.subseq_cache_len(), 1);
    assert!(target.open(&path).is_err());
    assert_eq!(
        target.subseq_cache_len(),
        1,
        "failed open must not touch the ST-indexes"
    );
    // Re-registration still drops them.
    target
        .register(
            SeriesRelation::from_series("walks", RandomWalkGenerator::new(8).relation(6, 16))
                .unwrap(),
        )
        .unwrap();
    assert_eq!(target.subseq_cache_len(), 0);
}

#[test]
fn lru_order_survives_the_round_trip() {
    fn probe(w: usize) -> String {
        let vals: Vec<String> = (0..w).map(|i| format!("{i}")).collect();
        format!(
            "FIND SUBSEQUENCE OF [{}] IN walks WITHIN 100 WINDOW {w}",
            vals.join(", ")
        )
    }
    let cat = catalog();
    let full: Vec<usize> = (4..4 + MAX_SUBSEQ_WINDOWS).collect();
    for &w in &full {
        cat.run(&probe(w)).unwrap();
    }
    // Touch 4 so it becomes the most recent: 5 < ... < 4.
    cat.run(&probe(4)).unwrap();
    let mut order = full[1..].to_vec();
    order.push(4);
    let want: Vec<(String, usize)> = order.iter().map(|&w| ("walks".to_string(), w)).collect();
    assert_eq!(cat.subseq_cache_keys(), want);

    let bytes = cat.snapshot_bytes().unwrap();
    let mut fresh = Catalog::new();
    fresh.restore_bytes(&bytes).unwrap();
    assert_eq!(
        fresh.subseq_cache_keys(),
        want,
        "recency order must survive"
    );
    // The restored relation keeps evicting in the same order: a further
    // window evicts 5 (the least recent), not 4.
    fresh.run(&probe(20)).unwrap();
    let keys = fresh.subseq_cache_keys();
    assert_eq!(keys.len(), MAX_SUBSEQ_WINDOWS);
    assert!(!keys.contains(&("walks".to_string(), 5)), "{keys:?}");
    assert!(keys.contains(&("walks".to_string(), 4)));
    assert!(keys.contains(&("walks".to_string(), 20)));
}

/// A hand-assembled snapshot of one two-shard relation `w`: the catalog's
/// own bytes up to the relation's last whole-match index, then whatever
/// window list a case wants.
struct Forged {
    /// Index configuration + relation count (1).
    head: Vec<u8>,
    /// The relation section up to, not including, its window count.
    prefix: Vec<u8>,
}

impl Forged {
    fn new() -> (Catalog, Forged) {
        let mut cat = Catalog::new();
        cat.register(
            SeriesRelation::from_series("w", RandomWalkGenerator::new(3).relation(9, 24)).unwrap(),
        )
        .unwrap();
        cat.run_mut("SHARD w INTO 2 BY HASH").unwrap();
        let unsealed = |cat: &Catalog| -> Vec<u8> {
            let sealed = cat.snapshot_bytes().unwrap();
            tsq_store::unseal(&sealed).unwrap().to_vec()
        };
        // An empty catalog's payload is the configuration and a zero
        // relation count; a window-less relation section ends with a zero
        // window count.
        let config_len = unsealed(&Catalog::new()).len() - 8;
        let payload = unsealed(&cat);
        let head = payload[..config_len + 8].to_vec();
        let prefix = payload[config_len + 16..payload.len() - 8].to_vec();
        (cat, Forged { head, prefix })
    }

    /// A sealed snapshot whose relation section declares `count` windows
    /// and carries `tail` after the count.
    fn sealed(&self, count: usize, tail: &[u8]) -> Vec<u8> {
        let mut section = Encoder::new();
        section.raw(&self.prefix);
        section.usize(count);
        section.raw(tail);
        let mut payload = Encoder::new();
        payload.raw(&self.head);
        payload.usize(section.len());
        payload.raw(&section.into_bytes());
        tsq_store::seal(&payload.into_bytes())
    }
}

/// A window list as a relation section stores it.
fn windows(list: &[usize]) -> Vec<u8> {
    let mut enc = Encoder::new();
    for &window in list {
        enc.usize(window);
    }
    enc.into_bytes()
}

#[test]
fn hostile_relation_sections_are_typed_errors() {
    let (cat, forged) = Forged::new();
    // The forgery is faithful: a well-formed two-window list is exactly
    // what the catalog itself writes after building those windows.
    cat.run("FIND 1 NEAREST SUBSEQUENCE OF [1, 2, 1.5, -0.5, 0, 2, 1, 0.25] IN w WINDOW 8")
        .unwrap();
    cat.run(
        "FIND SUBSEQUENCE OF [1, 2, 1.5, -0.5, 0, 2, 1, 0.25, 1, 2, 3, 4] IN w WITHIN 1 WINDOW 12",
    )
    .unwrap();
    let good = windows(&[8, 12]);
    assert_eq!(forged.sealed(2, &good), cat.snapshot_bytes().unwrap());

    let too_many: Vec<usize> = (8..=8 + MAX_SUBSEQ_WINDOWS).collect();
    let cases: Vec<(&str, usize, Vec<u8>)> = vec![
        (
            "more windows than a relation holds",
            MAX_SUBSEQ_WINDOWS + 1,
            windows(&too_many),
        ),
        ("the same window twice", 2, windows(&[8, 8])),
        ("window 0", 2, windows(&[8, 0])),
        ("window 1", 1, windows(&[1])),
        ("trailing bytes", 2, [good.clone(), vec![0]].concat()),
    ];
    // The target holds a relation with an ST-index of its own; a refused
    // restore must leave both exactly as they were.
    let mut target = Catalog::new();
    target
        .register(
            SeriesRelation::from_series("other", RandomWalkGenerator::new(98).relation(4, 16))
                .unwrap(),
        )
        .unwrap();
    target
        .run("FIND SUBSEQUENCE OF other.s0 IN other WITHIN 100 WINDOW 16")
        .unwrap();
    let before = target.snapshot_bytes().unwrap();
    for (what, count, tail) in &cases {
        let err = target
            .restore_bytes(&forged.sealed(*count, tail))
            .unwrap_err();
        assert!(
            matches!(
                err,
                LangError::Engine(Error::Store(StoreError::Corrupt { .. }))
            ),
            "{what}: {err:?}"
        );
        assert_eq!(target.relation_names(), vec!["other"], "{what}");
        assert_eq!(target.snapshot_bytes().unwrap(), before, "{what}");
    }
    // The well-formed list restores, next to what was there.
    target.restore_bytes(&forged.sealed(2, &good)).unwrap();
    let keys = target.subseq_cache_keys();
    let want = [("other", 16), ("w", 8), ("w", 12)].map(|(r, w)| (r.to_string(), w));
    assert_eq!(keys, want);
}

#[test]
fn corrupt_inputs_are_typed_errors() {
    let cat = catalog();
    let good = cat.snapshot_bytes().unwrap();

    // Truncations at every length (sampled for speed).
    for cut in (0..good.len()).step_by(211) {
        let mut fresh = Catalog::new();
        let err = fresh.restore_bytes(&good[..cut]);
        assert!(err.is_err(), "cut at {cut} restored");
        assert!(
            fresh.relation_names().is_empty(),
            "cut at {cut} mutated the catalog"
        );
    }

    // Bad magic.
    let mut bad = good.clone();
    bad[0] = b'X';
    assert!(matches!(
        Catalog::new().restore_bytes(&bad).unwrap_err(),
        LangError::Engine(Error::Store(StoreError::BadMagic))
    ));

    // Future format version.
    let mut bad = good.clone();
    bad[8..12].copy_from_slice(&9u32.to_le_bytes());
    assert!(matches!(
        Catalog::new().restore_bytes(&bad).unwrap_err(),
        LangError::Engine(Error::Store(StoreError::UnsupportedVersion {
            got: 9,
            supported: tsq_store::FORMAT_VERSION
        }))
    ));

    // The previous format version (7, which stored every held window's
    // trail trees): no reader for its layout exists, so a sealed v7 file
    // is refused on the version field, not decoded as the current one —
    // and the target catalog is left as it was.
    let mut target = catalog();
    let before = target.snapshot_bytes().unwrap();
    let mut bad = Catalog::new().snapshot_bytes().unwrap();
    bad[8..12].copy_from_slice(&7u32.to_le_bytes());
    assert!(matches!(
        target.restore_bytes(&bad).unwrap_err(),
        LangError::Engine(Error::Store(StoreError::UnsupportedVersion {
            got: 7,
            supported: 8
        }))
    ));
    assert_eq!(target.snapshot_bytes().unwrap(), before);

    // Byte-swapped endianness marker.
    let mut bad = good.clone();
    bad[12..16].reverse();
    assert!(matches!(
        Catalog::new().restore_bytes(&bad).unwrap_err(),
        LangError::Engine(Error::Store(StoreError::WrongEndian))
    ));

    // A flipped payload byte fails the checksum.
    let mut bad = good.clone();
    let mid = 24 + (good.len() - 28) / 2;
    bad[mid] ^= 0x10;
    assert!(matches!(
        Catalog::new().restore_bytes(&bad).unwrap_err(),
        LangError::Engine(Error::Store(StoreError::ChecksumMismatch { .. }))
    ));

    // Missing file.
    assert!(matches!(
        Catalog::new()
            .open(&temp_path("does-not-exist.tsq"))
            .unwrap_err(),
        LangError::Engine(Error::Store(StoreError::Io(_)))
    ));
}

/// A relation section carries labels and, per shard, a configuration and
/// series; everything else is derived. A resealed (checksum-valid) file
/// whose series the schema does not fit, or whose label count disagrees
/// with the series it stores, is `Corrupt` — the build a restore runs
/// reports through the store's error type, and nothing panics.
#[test]
fn hostile_index_sections_are_typed_errors() {
    let series = RandomWalkGenerator::new(5).relation(6, 16);
    let config = tsq_core::IndexConfig::default();
    // One hash shard of `series` under `labels`.
    let sealed = |labels: &[&str], series: &[TimeSeries]| {
        let mut section = Encoder::new();
        section.str("w");
        section.usize(labels.len());
        for label in labels {
            section.str(label);
        }
        section.u8(0);
        section.usize(1);
        section.usize(0);
        tsq_core::store::write_index_config(&mut section, &config);
        section.usize(series.len());
        for s in series {
            tsq_core::store::write_series(&mut section, s);
        }
        section.usize(0);
        let mut payload = Encoder::new();
        tsq_core::store::write_index_config(&mut payload, &config);
        payload.usize(1);
        payload.usize(section.len());
        payload.raw(&section.into_bytes());
        tsq_store::seal(&payload.into_bytes())
    };
    let labels = ["s0", "s1", "s2", "s3", "s4", "s5"];
    // The forgery is faithful: these are the catalog's own bytes.
    let mut cat = Catalog::new();
    cat.register(SeriesRelation::from_series("w", series.clone()).unwrap())
        .unwrap();
    assert_eq!(sealed(&labels, &series), cat.snapshot_bytes().unwrap());

    // `series` with its fourth replaced.
    let with = |fourth: Vec<f64>| {
        let mut series = series.clone();
        series[3] = TimeSeries::new(fourth);
        sealed(&labels, &series)
    };
    let cases = [
        ("a series too short for k = 2", with(vec![1.0, 2.0])),
        ("an empty series", with(Vec::new())),
        ("fewer labels than series", sealed(&labels[..5], &series)),
        ("more labels than series", sealed(&labels, &series[..5])),
        ("labels of an empty shard", sealed(&labels, &[])),
        (
            "a label twice",
            sealed(&["s0", "s1", "s2", "s3", "s4", "s0"], &series),
        ),
    ];
    for (what, bytes) in &cases {
        let err = Catalog::new().restore_bytes(bytes).unwrap_err();
        assert!(
            matches!(
                err,
                LangError::Engine(Error::Store(StoreError::Corrupt { .. }))
            ),
            "{what}: {err:?}"
        );
    }
}

#[test]
fn bit_flips_never_panic_even_past_the_checksum() {
    // Flip bits in the *payload* and re-seal so the checksum passes:
    // this drives corrupt bytes into the structural validators, which
    // must reject (or, for benign flips like a mutated f64 payload bit,
    // accept) without ever panicking.
    let mut cat = Catalog::new();
    cat.register(
        SeriesRelation::from_series("w", RandomWalkGenerator::new(3).relation(6, 16)).unwrap(),
    )
    .unwrap();
    cat.run("FIND SUBSEQUENCE OF w.s0 IN w WITHIN 100 WINDOW 16")
        .unwrap();
    let sealed = cat.snapshot_bytes().unwrap();
    let payload = tsq_store::unseal(&sealed).unwrap().to_vec();
    let mut attempts = 0usize;
    let mut rejected = 0usize;
    for byte in (0..payload.len()).step_by(13) {
        for bit in 0..8 {
            let mut bad = payload.clone();
            bad[byte] ^= 1 << bit;
            let resealed = tsq_store::seal(&bad);
            attempts += 1;
            // Must return — Ok for benign flips, Err for structural ones —
            // and must never panic (a panic fails this whole test).
            if Catalog::new().restore_bytes(&resealed).is_err() {
                rejected += 1;
            }
        }
    }
    assert!(attempts > 100, "fuzz loop must actually run ({attempts})");
    assert!(
        rejected > attempts / 10,
        "structural validation rejected only {rejected}/{attempts} flips"
    );
}

#[test]
fn empty_catalog_round_trips() {
    let cat = Catalog::new();
    let bytes = cat.snapshot_bytes().unwrap();
    let mut fresh = Catalog::new();
    assert!(fresh.restore_bytes(&bytes).unwrap().is_empty());
    assert!(fresh.relation_names().is_empty());
}

#[test]
fn restored_catalog_keeps_serving_after_mutation() {
    // A restored catalog is a first-class catalog: registration (which
    // drops the replaced relation's ST-indexes) and further snapshots all
    // keep working.
    let cat = catalog();
    cat.run("FIND SUBSEQUENCE OF walks.s1 IN walks WITHIN 10 WINDOW 32")
        .unwrap();
    let path = temp_path("mutate-after.tsq");
    cat.save(&path).unwrap();
    let mut restored = Catalog::load(&path).unwrap();
    assert_eq!(restored.subseq_cache_len(), 1);
    // Replacing walks drops its restored ST-index with it.
    restored
        .register(
            SeriesRelation::from_series("walks", RandomWalkGenerator::new(77).relation(8, 32))
                .unwrap(),
        )
        .unwrap();
    assert_eq!(restored.subseq_cache_len(), 0);
    assert!(restored
        .run("FIND SUBSEQUENCE OF walks.s1 IN walks WITHIN 10 WINDOW 32")
        .is_ok());
    // And the mutated catalog snapshots cleanly again.
    let path2 = temp_path("mutate-after-2.tsq");
    restored.save(&path2).unwrap();
    let again = Catalog::load(&path2).unwrap();
    assert_eq!(again.relation_names(), vec!["stocks", "walks"]);
}
