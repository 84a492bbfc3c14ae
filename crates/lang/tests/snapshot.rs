//! Catalog snapshot semantics: round-trip fidelity, atomic
//! collision-checked restore, each relation's held window persisted and
//! built on first use, and typed rejection of corrupt / truncated /
//! wrong-version / wrong-endian / bit-flipped snapshots and hostile
//! relation sections — never a panic.

use std::path::PathBuf;

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

/// The windows `walks` and `stocks` hold their ST-indexes at.
fn windows(cat: &Catalog) -> [Option<usize>; 2] {
    ["walks", "stocks"].map(|rel| cat.subseq_window(rel))
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
    assert_eq!(windows(&fresh), [Some(32), Some(32)]);
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
            // `walks` built window 32, then window 8 replaced it.
            let held = if primed {
                [Some(8), Some(32)]
            } else {
                [None, None]
            };
            assert_eq!(windows(&cat), held);
            let first = cat.snapshot_bytes().unwrap();
            let mut fresh = Catalog::new();
            fresh.restore_bytes(&first).unwrap();
            assert_eq!(windows(&fresh), held);
            assert_eq!(
                fresh.snapshot_bytes().unwrap(),
                first,
                "{shards} shard(s), primed = {primed}: canonical encoding must survive a round trip"
            );
        }
    }
}

/// Restart at every shard count: a primed window travels with the
/// snapshot (same window, built on the other side by its first reader,
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
        // The first pass holds the windows (window 8 replaces `walks`'
        // 32); the second answers from them, window 32 by prefix.
        for q in probes {
            cat.run(q).unwrap();
        }
        let want: Vec<_> = probes.iter().map(|q| cat.run(q).unwrap()).collect();
        assert_eq!(windows(&cat), [Some(8), Some(32)]);

        let path = temp_path(&format!("restart-{shards}.tsq"));
        cat.save(&path).unwrap();
        let mut reopened = Catalog::new();
        reopened.open(&path).unwrap();
        assert_eq!(windows(&reopened), windows(&cat), "{shards} shard(s)");
        // EXPLAIN past a held window builds it: a warm plan proves the
        // restored window is what answers.
        let explain = reopened
            .run(&format!("EXPLAIN {}", probes[0]))
            .unwrap()
            .explain
            .unwrap();
        assert!(!explain.contains("cold"), "{explain}");
        assert!(explain.contains("[prefix of window 8]"), "{explain}");
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
    let cache_before = target.subseq_window("walks");
    assert_eq!(cache_before, Some(16));
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
    assert_eq!(target.subseq_window("walks"), cache_before);
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
    assert_eq!(target.subseq_window("walks"), Some(16));
    assert!(target.open(&path).is_err());
    assert_eq!(
        target.subseq_window("walks"),
        Some(16),
        "failed open must not touch the ST-indexes"
    );
    // Re-registration still drops them.
    target
        .register(
            SeriesRelation::from_series("walks", RandomWalkGenerator::new(8).relation(6, 16))
                .unwrap(),
        )
        .unwrap();
    assert_eq!(target.subseq_window("walks"), None);
}

/// A hand-assembled snapshot of one two-shard relation `w`: the catalog's
/// own bytes up to the relation's last whole-match index, then whatever
/// held window a case wants.
struct Forged {
    /// Index configuration + relation count (1).
    head: Vec<u8>,
    /// The relation section up to, not including, its held window.
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
        // window.
        let config_len = unsealed(&Catalog::new()).len() - 8;
        let payload = unsealed(&cat);
        let head = payload[..config_len + 8].to_vec();
        let prefix = payload[config_len + 16..payload.len() - 8].to_vec();
        (cat, Forged { head, prefix })
    }

    /// A sealed snapshot whose relation section holds `window` and
    /// carries `tail` after it.
    fn sealed(&self, window: usize, tail: &[u8]) -> Vec<u8> {
        let mut section = Encoder::new();
        section.raw(&self.prefix);
        section.usize(window);
        section.raw(tail);
        let mut payload = Encoder::new();
        payload.raw(&self.head);
        payload.usize(section.len());
        payload.raw(&section.into_bytes());
        tsq_store::seal(&payload.into_bytes())
    }
}

#[test]
fn hostile_relation_sections_are_typed_errors() {
    let (cat, forged) = Forged::new();
    // The forgery is faithful: a window-less section and one holding
    // window 8 are exactly what the catalog itself writes, before and
    // after a statement at 8 (a later one at 12 probes it by prefix).
    assert_eq!(forged.sealed(0, &[]), cat.snapshot_bytes().unwrap());
    cat.run("FIND 1 NEAREST SUBSEQUENCE OF [1, 2, 1.5, -0.5, 0, 2, 1, 0.25] IN w WINDOW 8")
        .unwrap();
    cat.run(
        "FIND SUBSEQUENCE OF [1, 2, 1.5, -0.5, 0, 2, 1, 0.25, 1, 2, 3, 4] IN w WITHIN 1 WINDOW 12",
    )
    .unwrap();
    assert_eq!(forged.sealed(8, &[]), cat.snapshot_bytes().unwrap());

    let cases: Vec<(&str, usize, Vec<u8>)> = vec![
        ("window 1", 1, Vec::new()),
        ("trailing bytes", 8, vec![0]),
        ("a second window", 8, 12u64.to_le_bytes().to_vec()),
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
    for (what, window, tail) in &cases {
        let err = target
            .restore_bytes(&forged.sealed(*window, tail))
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
    // The well-formed section restores, next to what was there.
    target.restore_bytes(&forged.sealed(8, &[])).unwrap();
    let held = ["other", "w"].map(|rel| target.subseq_window(rel));
    assert_eq!(held, [Some(16), Some(8)]);
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
    bad[8..12].copy_from_slice(&11u32.to_le_bytes());
    assert!(matches!(
        Catalog::new().restore_bytes(&bad).unwrap_err(),
        LangError::Engine(Error::Store(StoreError::UnsupportedVersion {
            got: 11,
            supported: tsq_store::FORMAT_VERSION
        }))
    ));

    // The previous format versions (9, which stored a shard rule tag and
    // range boundaries beside the shard count, 8, which stored a list of
    // held windows, and 7, which stored every held window's trail trees):
    // no reader for their layouts exists, so a sealed v9, v8 or v7 file is
    // refused on the version field — from bytes, by `open` and by
    // `open_paged` — not decoded as the current one, and the target
    // catalog is left as it was.
    let mut target = catalog();
    target
        .run("FIND SUBSEQUENCE OF walks.s0 IN walks WITHIN 10 WINDOW 32")
        .unwrap();
    let before = target.snapshot_bytes().unwrap();
    let path = temp_path("previous-version.tsq");
    for old in [9u32, 8, 7] {
        let mut bad = Catalog::new().snapshot_bytes().unwrap();
        bad[8..12].copy_from_slice(&old.to_le_bytes());
        std::fs::write(&path, &bad).unwrap();
        let refusals = [
            target.restore_bytes(&bad).unwrap_err(),
            target.open(&path).unwrap_err(),
            target.open_paged(&path, 1).unwrap_err(),
        ];
        for err in refusals {
            assert!(
                matches!(
                    err,
                    LangError::Engine(Error::Store(StoreError::UnsupportedVersion {
                        got,
                        supported: 10
                    })) if got == old
                ),
                "v{old}: {err:?}"
            );
        }
        assert_eq!(target.snapshot_bytes().unwrap(), before);
    }
    std::fs::remove_file(&path).ok();

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
        section.usize(1);
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
    assert_eq!(restored.subseq_window("walks"), Some(32));
    // Replacing walks drops its restored ST-index with it.
    restored
        .register(
            SeriesRelation::from_series("walks", RandomWalkGenerator::new(77).relation(8, 32))
                .unwrap(),
        )
        .unwrap();
    assert_eq!(restored.subseq_window("walks"), None);
    assert!(restored
        .run("FIND SUBSEQUENCE OF walks.s1 IN walks WITHIN 10 WINDOW 32")
        .is_ok());
    // And the mutated catalog snapshots cleanly again.
    let path2 = temp_path("mutate-after-2.tsq");
    restored.save(&path2).unwrap();
    let again = Catalog::load(&path2).unwrap();
    assert_eq!(again.relation_names(), vec!["stocks", "walks"]);
}
