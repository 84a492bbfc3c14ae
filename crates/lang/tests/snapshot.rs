//! Catalog snapshot semantics: round-trip fidelity, atomic
//! collision-checked restore (the PR-4 bugfix), LRU cache persistence,
//! and typed rejection of corrupt / truncated / wrong-version /
//! wrong-endian / bit-flipped snapshots — never a panic.

use std::path::PathBuf;

use tsq_core::{Error, SeriesRelation};
use tsq_lang::{Catalog, LangError};
use tsq_series::generate::{RandomWalkGenerator, StockGenerator};
use tsq_store::StoreError;

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
        "JOIN walks WITHIN 1.0 WITH (force = tree)".into(),
        "FIND SUBSEQUENCE OF walks.s5 IN walks WITHIN 40 WINDOW 32".into(),
        "FIND 3 NEAREST SUBSEQUENCE OF stocks.s1 IN stocks WINDOW 32".into(),
    ]
}

#[test]
fn save_open_round_trip_preserves_every_query_form() {
    let cat = catalog();
    // Prime the subsequence cache so the snapshot carries ST-indexes.
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
    // The cached ST-indexes came along, no rebuild needed.
    assert_eq!(fresh.subseq_cache_len(), cat.subseq_cache_len());
    for (q, want) in workload().iter().zip(&want) {
        let got = fresh.run(q).unwrap();
        assert_eq!(&got, want, "{q}: restored catalog must answer identically");
    }
}

#[test]
fn save_open_save_is_byte_identical() {
    let cat = catalog();
    cat.run("FIND SUBSEQUENCE OF walks.s0 IN walks WITHIN 10 WINDOW 32")
        .unwrap();
    let first = cat.snapshot_bytes().unwrap();
    let mut fresh = Catalog::new();
    fresh.restore_bytes(&first).unwrap();
    let second = fresh.snapshot_bytes().unwrap();
    assert_eq!(
        first, second,
        "canonical encoding must survive a round trip"
    );
}

/// Restart at every shard count: the per-shard ST-indexes of a primed
/// window travel with the snapshot (same cache keys, no rebuild on the
/// other side, same answers), and `save → open → save` reproduces the
/// file byte for byte for a one-shard and a three-shard catalog alike.
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
        // An EXPLAIN never builds: a cached plan proves the restored
        // entry is what answers.
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
    // "stocks" relation — and the cache is untouched.
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
    // Regression: a failed open must leave the PR-3 invalidation logic
    // fully working — re-registering a relation afterwards still evicts
    // its cached ST-indexes.
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
        "failed open must not touch the cache"
    );
    // Re-registration still invalidates.
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
    let mut cat = catalog();
    cat.set_subseq_cache_capacity(3);
    for w in [4usize, 5, 6] {
        cat.run(&probe(w)).unwrap();
    }
    // Touch 4 so the recency order is 5 < 6 < 4.
    cat.run(&probe(4)).unwrap();
    let want: Vec<(String, usize)> = [5usize, 6, 4]
        .iter()
        .map(|&w| ("walks".to_string(), w))
        .collect();
    assert_eq!(cat.subseq_cache_keys(), want);

    let bytes = cat.snapshot_bytes().unwrap();
    let mut fresh = Catalog::new();
    fresh.set_subseq_cache_capacity(3);
    fresh.restore_bytes(&bytes).unwrap();
    assert_eq!(
        fresh.subseq_cache_keys(),
        want,
        "recency order must survive"
    );
    // The restored LRU keeps evicting in the same order: a new window
    // evicts 5 (the least recent), not 4.
    fresh.run(&probe(7)).unwrap();
    let keys = fresh.subseq_cache_keys();
    assert_eq!(keys.len(), 3);
    assert!(!keys.contains(&("walks".to_string(), 5)), "{keys:?}");
    assert!(keys.contains(&("walks".to_string(), 4)));
    assert!(keys.contains(&("walks".to_string(), 7)));
}

#[test]
fn restore_respects_a_smaller_capacity() {
    let cat = catalog();
    for w in [4usize, 5, 6, 7] {
        let vals: Vec<String> = (0..w).map(|i| format!("{i}")).collect();
        cat.run(&format!(
            "FIND SUBSEQUENCE OF [{}] IN walks WITHIN 100 WINDOW {w}",
            vals.join(", ")
        ))
        .unwrap();
    }
    assert_eq!(cat.subseq_cache_len(), 4);
    let bytes = cat.snapshot_bytes().unwrap();
    let mut small = Catalog::new();
    small.set_subseq_cache_capacity(2);
    small.restore_bytes(&bytes).unwrap();
    // Only the two most recent entries survive the replay.
    assert_eq!(
        small.subseq_cache_keys(),
        vec![("walks".to_string(), 6), ("walks".to_string(), 7)]
    );
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
    bad[8..12].copy_from_slice(&7u32.to_le_bytes());
    assert!(matches!(
        Catalog::new().restore_bytes(&bad).unwrap_err(),
        LangError::Engine(Error::Store(StoreError::UnsupportedVersion {
            got: 7,
            supported: tsq_store::FORMAT_VERSION
        }))
    ));

    // The previous format version: no reader for its layout exists, so
    // it is refused on the version field, not decoded as the current one.
    let mut bad = good.clone();
    bad[8..12].copy_from_slice(&(tsq_store::FORMAT_VERSION - 1).to_le_bytes());
    assert!(matches!(
        Catalog::new().restore_bytes(&bad).unwrap_err(),
        LangError::Engine(Error::Store(StoreError::UnsupportedVersion {
            got,
            supported: tsq_store::FORMAT_VERSION
        })) if got == tsq_store::FORMAT_VERSION - 1
    ));

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
    // A restored catalog is a first-class catalog: registration,
    // invalidation and further snapshots all keep working.
    let cat = catalog();
    cat.run("FIND SUBSEQUENCE OF walks.s1 IN walks WITHIN 10 WINDOW 32")
        .unwrap();
    let path = temp_path("mutate-after.tsq");
    cat.save(&path).unwrap();
    let mut restored = Catalog::load(&path).unwrap();
    assert_eq!(restored.subseq_cache_len(), 1);
    // Replacing walks invalidates its restored cache entry.
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
