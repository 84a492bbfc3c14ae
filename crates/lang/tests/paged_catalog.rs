//! Paged catalogs answer byte-identically to in-memory catalogs.
//!
//! `Catalog::open_paged` restores a snapshot and then moves every
//! relation's R\*-tree and samples behind pin-counted buffer pools. Storage
//! mode is an execution detail: every query form — range, k-NN, both
//! joins, and subsequence search — returns the same rows, plans, and
//! traversal counters; only the measured pool counters differ (zero in
//! memory, real page and record-frame traffic when paged). A paged
//! catalog saves the bytes it was restored from, and a damaged record file
//! or trail page file is a typed error, never a panic.

use std::path::{Path, PathBuf};

use tsq_core::SeriesRelation;
use tsq_lang::{Catalog, LangError, SharedCatalog};
use tsq_series::generate::{RandomWalkGenerator, StockGenerator};
use tsq_service::{ClientError, ErrorCode, ServiceConfig};
use tsq_store::StoreError;
use tsq_testkit::{differential, Config, Storage};

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tsq-paged-catalog-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    cat.register(
        SeriesRelation::from_series("walks", RandomWalkGenerator::new(61).relation(80, 32))
            .unwrap(),
    )
    .unwrap();
    cat.register(
        SeriesRelation::from_series("stocks", StockGenerator::new(62).relation(40, 32)).unwrap(),
    )
    .unwrap();
    cat
}

/// Paged storage answers the harness's scripts — every query form,
/// `EXPLAIN [ANALYZE]`, appends taken by a writer and restored — like
/// memory: a `save → open_paged(…, 1)` layout at three shards against the
/// `save → open` one before it (the plan and every non-pool counter, per
/// shard), and both against the one-shard in-memory reference (the rows,
/// and no pool traffic in memory).
#[test]
fn open_paged_answers_every_query_form_identically() {
    let configs = [Storage::SaveOpen, Storage::Paged].map(|storage| Config {
        storage,
        shards: 3,
        ..Config::REFERENCE
    });
    differential::pinned(1400, 4, &configs);
}

#[test]
fn paged_explain_analyze_reports_measured_pool_traffic() {
    let cat = catalog();
    let path = temp_path("analyze.tsq");
    cat.save(&path).unwrap();

    let mut mem = Catalog::new();
    mem.open(&path).unwrap();
    let mut paged = Catalog::new();
    paged.open_paged(&path, 64).unwrap();

    let q = "EXPLAIN ANALYZE FIND SIMILAR TO walks.s1 IN walks WITHIN 2.5";
    let plain = mem.run(q).unwrap();
    let measured = paged.run(q).unwrap();
    let plain_text = plain.explain.expect("explain text");
    let measured_text = measured.explain.expect("explain text");
    assert!(
        !plain_text.contains("measured:"),
        "in-memory must not claim measured I/O:\n{plain_text}"
    );
    assert!(
        measured_text.contains("measured: pool_hits="),
        "paged EXPLAIN ANALYZE must report measured I/O:\n{measured_text}"
    );
    // Cold pool: the first index traversal faulted real pages in.
    assert!(measured.stats.pool_misses > 0, "cold pool must miss");
    // Warm re-run: everything resident, zero misses.
    let warm = paged.run(q).unwrap();
    assert_eq!(warm.stats.pool_misses, 0, "warm pool must not fault");
    assert_eq!(warm.stats.pool_hits, warm.stats.nodes_visited);
}

#[test]
fn paged_relations_reject_append_with_a_typed_error() {
    let cat = catalog();
    let path = temp_path("append-reject.tsq");
    cat.save(&path).unwrap();
    let mut paged = Catalog::new();
    paged.open_paged(&path, 8).unwrap();

    // The page file is immutable: APPEND must come back as the typed
    // `Unsupported` engine error — never a panic — at both entry points.
    let err = paged
        .run_mut("APPEND walks s0 VALUES (1.5, 2.0)")
        .unwrap_err();
    match &err {
        tsq_lang::LangError::Engine(tsq_core::Error::Unsupported(m)) => {
            assert!(m.contains("paged"), "message should name the cause: {m}")
        }
        other => panic!("expected Engine(Unsupported), got {other:?}"),
    }

    // The rejection is mapped to the service's own typed error (wire
    // code `unsupported`, HTTP 409) by the Engine impl.
    let shared = tsq_lang::SharedCatalog::new(paged);
    match tsq_service::Engine::append(
        &shared,
        "walks",
        vec![tsq_service::IngestRow {
            label: "s0".into(),
            values: vec![1.0],
        }],
    ) {
        Err(tsq_service::EngineError::Unsupported(m)) => assert!(m.contains("paged")),
        other => panic!("expected EngineError::Unsupported, got {other:?}"),
    }

    // The catalog survives and still answers queries afterwards.
    let out = tsq_service::Engine::execute(&shared, "FIND 3 NEAREST TO walks.s1 IN walks").unwrap();
    assert_eq!(out.rows.len(), 3);
}

#[test]
fn open_paged_rejects_double_attach_and_missing_snapshot() {
    let cat = catalog();
    let path = temp_path("double.tsq");
    cat.save(&path).unwrap();
    let mut paged = Catalog::new();
    paged.open_paged(&path, 8).unwrap();
    // A second paged open collides with the already-restored relations
    // (same duplicate-name rules as plain `open`).
    assert!(paged.open_paged(&path, 8).is_err());
    // A missing snapshot is a typed error, not a panic, and leaves the
    // catalog untouched.
    let mut fresh = Catalog::new();
    assert!(fresh
        .open_paged(&temp_path("does-not-exist.tsq"), 8)
        .is_err());
    assert!(fresh.relation_names().is_empty());
}

#[test]
fn a_paged_catalog_saves_the_bytes_it_was_restored_from() {
    for shards in [1usize, 3] {
        let mut cat = catalog();
        if shards > 1 {
            cat.run_mut(&format!("SHARD walks INTO {shards} BY HASH"))
                .unwrap();
            cat.run_mut(&format!("SHARD stocks INTO {shards} BY HASH"))
                .unwrap();
        }
        // A held window travels too.
        cat.run("FIND 3 NEAREST SUBSEQUENCE OF stocks.s1 IN stocks WINDOW 32")
            .unwrap();
        let path = temp_path(&format!("save-{shards}.tsq"));
        cat.save(&path).unwrap();
        let bytes = cat.snapshot_bytes().unwrap();
        let mut paged = Catalog::new();
        paged.open_paged(&path, 1).unwrap();
        assert_eq!(paged.snapshot_bytes().unwrap(), bytes, "{shards} shard(s)");
        // save -> open_paged -> save reproduces the file byte for byte.
        let again = temp_path(&format!("save-again-{shards}.tsq"));
        paged.save(&again).unwrap();
        assert_eq!(
            std::fs::read(&again).unwrap(),
            std::fs::read(&path).unwrap()
        );
        let mut reopened = Catalog::new();
        reopened.open_paged(&again, 1).unwrap();
        assert_eq!(
            reopened.snapshot_bytes().unwrap(),
            bytes,
            "{shards} shard(s)"
        );
        // After every query form has moved the pools (and held a window),
        // still the in-memory catalog's bytes.
        for q in [
            "FIND SIMILAR TO walks.s1 IN walks WITHIN 2.5",
            "FIND SIMILAR TO walks.s0 IN walks WITHIN 5 APPLY mavg(4)",
            "FIND 6 NEAREST TO stocks.s3 IN stocks",
            "FIND 4 NEAREST TO walks.s2 IN walks APPLY reverse",
            "JOIN stocks WITHIN 1.5 APPLY mavg(4) WITH (force = index)",
            "JOIN walks WITHIN 1.0",
            "FIND SUBSEQUENCE OF walks.s5 IN walks WITHIN 40 WINDOW 32",
            "FIND 3 NEAREST SUBSEQUENCE OF stocks.s1 IN stocks WINDOW 32",
        ] {
            cat.run(q).unwrap();
            paged.run(q).unwrap();
        }
        let bytes = cat.snapshot_bytes().unwrap();
        assert_eq!(paged.snapshot_bytes().unwrap(), bytes, "{shards} shard(s)");
    }
}

/// Where `open_paged` put the paged one-shard relation `name`'s record
/// file, as the catalog lists it.
fn record_file(paged: &Catalog, name: &str) -> PathBuf {
    let files = paged.paged_files(name);
    let mut records = files.iter().filter(|p| p.extension().unwrap() == "records");
    let (Some(file), None) = (records.next(), records.next()) else {
        panic!("{name}: one record file in {files:?}");
    };
    file.clone()
}

/// The record file's layout, as `tsq_core::records` documents it: a
/// 4096-byte header block, then frames; a frame is `payload_len u32 ·
/// crc32 u32 · payload`, its payload `first id u64 · count u32 · count ×
/// length u32 · samples`.
const FRAMES_AT: usize = 4096;

/// Rewrites the header's frame or record count (at byte 16 or 24) by
/// `delta`, re-sealing the header's CRC so the count itself is what is
/// wrong.
fn bump_header_count(bytes: &mut [u8], at: usize, delta: u64) {
    let count = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    bytes[at..at + 8].copy_from_slice(&(count + delta).to_le_bytes());
    let crc = tsq_store::crc32(&bytes[..32]);
    bytes[32..36].copy_from_slice(&crc.to_le_bytes());
}

/// Sets frame 0's first record length to `len`, re-sealing the frame's
/// CRC so the length itself is what is wrong.
fn forge_first_length(bytes: &mut [u8], len: u32) {
    let payload_len = u32::from_le_bytes(bytes[FRAMES_AT..FRAMES_AT + 4].try_into().unwrap());
    let payload = FRAMES_AT + 8..FRAMES_AT + 8 + payload_len as usize;
    bytes[payload.start + 12..payload.start + 16].copy_from_slice(&len.to_le_bytes());
    let crc = tsq_store::crc32(&bytes[payload]);
    bytes[FRAMES_AT + 4..FRAMES_AT + 8].copy_from_slice(&crc.to_le_bytes());
}

type Damage = fn(&mut Vec<u8>);
type Expect = fn(&StoreError) -> bool;

#[test]
fn hostile_record_files_are_typed_errors_at_the_first_pin() {
    let cat = catalog();
    let path = temp_path("hostile.tsq");
    cat.save(&path).unwrap();
    let cases: [(&str, Damage, Expect); 6] = [
        (
            "truncated",
            |b| b.truncate(b.len() - 100),
            |e| matches!(e, StoreError::Truncated { .. }),
        ),
        (
            "a flipped bit in frame 0",
            |b| b[FRAMES_AT + 8 + 40] ^= 0x10,
            |e| matches!(e, StoreError::ChecksumMismatch { .. }),
        ),
        (
            "a header declaring one frame more",
            |b| bump_header_count(b, 16, 1),
            |e| matches!(e, StoreError::Corrupt { .. }),
        ),
        (
            "a header declaring 2^60 records more",
            |b| bump_header_count(b, 24, 1 << 60),
            |e| matches!(e, StoreError::Corrupt { .. }),
        ),
        (
            "a record length the snapshot disagrees with",
            |b| forge_first_length(b, 31),
            |e| matches!(e, StoreError::Corrupt { context } if context.contains("in the snapshot")),
        ),
        (
            "a record length past the frame",
            |b| forge_first_length(b, u32::MAX),
            |e| matches!(e, StoreError::Corrupt { .. }),
        ),
    ];
    // A literal query forced to scan reads every record; the labelled one
    // reads `walks.s1` first.
    let literal: Vec<String> = (0..32).map(|i| format!("{}.5", i % 7)).collect();
    let statements = [
        "FIND SIMILAR TO walks.s1 IN walks WITHIN 2.5".to_string(),
        format!(
            "FIND 3 NEAREST TO [{}] IN walks WITH (force = scan)",
            literal.join(", ")
        ),
    ];
    for (what, damage, expect) in cases {
        let snapshot = temp_path(&format!("hostile-{}.tsq", what.replace(' ', "-")));
        std::fs::copy(&path, &snapshot).unwrap();
        let mut paged = Catalog::new();
        paged.open_paged(&snapshot, 1).unwrap();
        let records = record_file(&paged, "walks");
        let mut bytes = std::fs::read(&records).unwrap();
        damage(&mut bytes);
        std::fs::write(&records, &bytes).unwrap();
        for q in &statements {
            match paged.run(q) {
                Err(LangError::Engine(tsq_core::Error::Store(e))) => {
                    assert!(expect(&e), "{what}: {q}: {e:?}")
                }
                other => panic!("{what}: {q}: expected a typed store error, got {other:?}"),
            }
        }
        // The other relation's files are whole: it still answers.
        assert_eq!(
            paged
                .run("FIND 3 NEAREST TO stocks.s1 IN stocks")
                .unwrap()
                .rows
                .len(),
            3
        );
        // Over the wire: a typed `engine` error frame, and the server
        // keeps serving.
        let shared = SharedCatalog::new(paged);
        let handle = tsq_lang::serve("127.0.0.1:0", shared, ServiceConfig::default()).unwrap();
        let mut client = tsq_service::Client::connect(handle.addr()).unwrap();
        for q in &statements {
            match client.query(q) {
                Err(ClientError::Remote(e)) => assert_eq!(e.code, ErrorCode::Engine, "{what}: {q}"),
                other => panic!("{what}: {q}: expected an engine error frame, got {other:?}"),
            }
        }
        assert!(client
            .query("FIND 3 NEAREST TO stocks.s1 IN stocks")
            .is_ok());
        drop(client);
        handle.shutdown();
    }
}

/// A subsequence statement over a literal pattern: `len` samples of
/// `stocks`' series `id` from `start`, within `eps`.
fn subseq_statement(cat: &Catalog, id: usize, start: usize, eps: f64) -> String {
    const LEN: usize = 16;
    let label = format!("s{id}");
    let values = cat
        .relation("stocks")
        .unwrap()
        .get_by_label(&label)
        .unwrap();
    let pattern: Vec<String> = values.values()[start..start + LEN]
        .iter()
        .map(|v| format!("{v}"))
        .collect();
    format!(
        "FIND SUBSEQUENCE OF [{}] IN stocks WITHIN {eps} WINDOW {LEN}",
        pattern.join(", ")
    )
}

/// `stocks` of four series of 65 536 samples beside a small `walks`: at a
/// 1 MiB budget each relation has 512 KiB, less than one of `stocks`'
/// frames, so its record pool holds one frame, of one record.
fn long_catalog() -> Catalog {
    let mut cat = Catalog::new();
    cat.register(
        SeriesRelation::from_series("walks", RandomWalkGenerator::new(61).relation(20, 32))
            .unwrap(),
    )
    .unwrap();
    cat.register(
        SeriesRelation::from_series("stocks", StockGenerator::new(62).relation(4, 1 << 16))
            .unwrap(),
    )
    .unwrap();
    cat
}

/// `q` fails with a typed store error through `Catalog::run`.
fn assert_store_error(cat: &Catalog, q: &str, what: &str) {
    match cat.run(q) {
        Err(LangError::Engine(tsq_core::Error::Store(_))) => {}
        other => panic!("{what}: expected a typed store error, got {other:?}"),
    }
}

/// A record file damaged under a paged relation's ST-index is a typed
/// error on the subsequence path too: at the first statement, whose build
/// reads every record on the worker pool, and at a warm statement whose
/// one-frame pool must read the damaged frame again. A failed build leaves
/// the held window unbuilt: every later statement builds again and fails
/// again — one that a partial index could answer without the damaged
/// frame included — locally and over the wire, and the other relation
/// still answers.
#[test]
fn a_damaged_record_file_is_a_typed_error_on_the_subsequence_path() {
    let cat = long_catalog();
    let path = temp_path("subseq-damage.tsq");
    cat.save(&path).unwrap();
    // Windows of series 0 and 3: each statement refines one series.
    let (q0, q3) = (
        subseq_statement(&cat, 0, 1000, 0.5),
        subseq_statement(&cat, 3, 2000, 0.5),
    );
    let frame_bytes = |b: &[u8]| (b.len() - FRAMES_AT) / 4;
    // (what, damage, warm first, the statements that must fail after it)
    let cases: [(&str, Damage, bool, [&str; 2]); 4] = [
        (
            "first statement, truncated file",
            |b| b.truncate(b.len() - 100),
            false,
            [&q0, &q3],
        ),
        (
            "first statement, a flipped bit in frame 0",
            |b| b[FRAMES_AT + 8 + 40] ^= 0x10,
            false,
            [&q0, &q3],
        ),
        (
            "warm statement, a flipped bit in frame 0",
            |b| b[FRAMES_AT + 8 + 40] ^= 0x10,
            true,
            [&q0, &q0],
        ),
        (
            "warm statement, frames 2 and 3 cut off",
            |b| {
                let frame = (b.len() - FRAMES_AT) / 4;
                b.truncate(FRAMES_AT + 2 * frame)
            },
            true,
            [&q3, &q3],
        ),
    ];
    for (what, damage, warm, failing) in cases {
        let snapshot = temp_path(&format!("subseq-damage-{}.tsq", what.replace(' ', "-")));
        std::fs::copy(&path, &snapshot).unwrap();
        let mut paged = Catalog::new();
        paged.open_paged(&snapshot, 1).unwrap();
        let records = record_file(&paged, "stocks");
        let mut bytes = std::fs::read(&records).unwrap();
        assert!(
            frame_bytes(&bytes) > 512 << 10,
            "{what}: frames past the budget"
        );
        if warm {
            // Built, and the one resident frame is not the one the
            // failing statement reads.
            let (target, other) = if failing[0] == q0 {
                (&q0, &q3)
            } else {
                (&q3, &q0)
            };
            assert_eq!(
                paged.run(target).unwrap().rows,
                cat.run(target).unwrap().rows
            );
            assert_eq!(paged.run(other).unwrap().rows, cat.run(other).unwrap().rows);
        }
        damage(&mut bytes);
        std::fs::write(&records, &bytes).unwrap();
        for q in failing {
            assert_store_error(&paged, q, what);
        }
        assert_eq!(paged.subseq_window("stocks"), Some(16), "{what}");
        assert_eq!(
            paged
                .run("FIND 3 NEAREST TO walks.s1 IN walks")
                .unwrap()
                .rows
                .len(),
            3
        );
        let shared = SharedCatalog::new(paged);
        let handle = tsq_lang::serve("127.0.0.1:0", shared, ServiceConfig::default()).unwrap();
        let mut client = tsq_service::Client::connect(handle.addr()).unwrap();
        for q in failing {
            match client.query(q) {
                Err(ClientError::Remote(e)) => assert_eq!(e.code, ErrorCode::Engine, "{what}"),
                other => panic!("{what}: expected an engine error frame, got {other:?}"),
            }
        }
        assert!(client.query("FIND 3 NEAREST TO walks.s1 IN walks").is_ok());
        drop(client);
        handle.shutdown();
    }
}

/// The trail files of `open_paged` of `snapshot` for the one-shard
/// relation `name`: scratch page files beside its node file, one per
/// built ST-index.
fn trail_files(snapshot: &Path, name: &str) -> Vec<PathBuf> {
    let stem = format!(
        "{}.{name}_s0.",
        snapshot.file_name().unwrap().to_str().unwrap()
    );
    let dir = std::fs::read_dir(snapshot.parent().unwrap()).unwrap();
    let mut files: Vec<PathBuf> = dir
        .map(|entry| entry.unwrap().path())
        .filter(|p| {
            let name = p.file_name().unwrap().to_str().unwrap();
            name.starts_with(&stem) && name.ends_with(".trails")
        })
        .collect();
    files.sort();
    files
}

/// The trail file of the paged relation `name`'s built ST-index, as the
/// catalog lists it.
fn built_trail_file(paged: &Catalog, name: &str) -> Option<PathBuf> {
    let mut files = paged.paged_files(name).into_iter();
    files.find(|p| p.extension().unwrap() == "trails")
}

/// A paged relation's subsequence statement reads its records through the
/// record pool and its trail tree through the trail pool, and says so:
/// `EXPLAIN ANALYZE` prints the measured line with the trail pool's hits
/// and misses next to its record hits and misses — every visited trail
/// node a miss cold, a hit warm. The trail tree lives in a scratch page
/// file of the ST-index's own, which goes with the index: when a shorter
/// statement rebuilds it, and when the catalog drops.
#[test]
fn paged_subsequence_statements_report_record_traffic() {
    let cat = catalog();
    let path = temp_path("subseq-analyze.tsq");
    cat.save(&path).unwrap();
    let mut paged = Catalog::new();
    paged.open_paged(&path, 1).unwrap();
    assert!(trail_files(&path, "stocks").is_empty(), "held, not built");
    let literal: Vec<String> = (0..32).map(|i| format!("{}.5", 40 + i % 7)).collect();
    let q = format!(
        "EXPLAIN ANALYZE FIND SUBSEQUENCE OF [{}] IN stocks WITHIN 30 WINDOW 32",
        literal.join(", ")
    );
    let plain = cat.run(&q).unwrap();
    for run in ["cold", "warm"] {
        let measured = paged.run(&q).unwrap();
        assert_eq!(measured.rows, plain.rows, "{run}");
        assert_eq!(measured.plan, plain.plan, "{run}");
        let stats = measured.stats;
        let pins = stats.record_hits + stats.record_misses;
        assert!(pins > 0, "{run}: the refine reads records");
        let (hits, misses) = if run == "cold" {
            (0, stats.nodes_visited)
        } else {
            (stats.nodes_visited, 0)
        };
        assert!(stats.nodes_visited > 0, "{run}");
        assert_eq!(
            (stats.pool_hits, stats.pool_misses),
            (hits, misses),
            "{run}"
        );
        let text = measured.explain.expect("explain text");
        let line = format!(
            "measured: pool_hits={hits}, pool_misses={misses}, record_hits={}, record_misses={}",
            stats.record_hits, stats.record_misses
        );
        assert!(text.contains(&line), "{run}:\n{text}");
    }
    let text = plain.explain.expect("explain text");
    assert!(!text.contains("measured:"), "in memory:\n{text}");
    let built = trail_files(&path, "stocks");
    assert_eq!(built.len(), 1, "one trail file per built index");
    // A shorter statement rebuilds the index at its window: a file of its
    // own, and the old index's file is gone.
    let short: Vec<String> = literal[..8].to_vec();
    paged
        .run(&format!(
            "FIND SUBSEQUENCE OF [{}] IN stocks WITHIN 30 WINDOW 8",
            short.join(", ")
        ))
        .unwrap();
    let rebuilt = trail_files(&path, "stocks");
    assert_eq!(rebuilt.len(), 1);
    assert_ne!(rebuilt, built);
    drop(paged);
    assert!(
        trail_files(&path, "stocks").is_empty(),
        "no file outlives its index"
    );
}

/// A trail page file damaged under a built ST-index is a typed store error
/// at the next statement that reads the damaged page, locally and over the
/// wire, and the other relation still answers. `EXPLAIN` builds a held
/// window's index and reads no trail page, so the damage meets a cold
/// pool.
#[test]
fn a_damaged_trail_file_is_a_typed_error() {
    let cat = catalog();
    let range = subseq_statement(&cat, 1, 4, 2.0);
    let knn = range
        .replacen("FIND", "FIND 3 NEAREST", 1)
        .replace(" WITHIN 2 ", " ");
    let statements = [range, knn];
    // The snapshot holds window 16, which `EXPLAIN` builds.
    cat.run(&statements[0]).unwrap();
    let path = temp_path("trail-damage.tsq");
    cat.save(&path).unwrap();
    // The root is the file's last page: every traversal reads it first.
    let cases: [(&str, Damage); 2] = [
        ("truncated", |b| b.truncate(b.len() - 100)),
        ("a flipped bit in the root page", |b| {
            let at = b.len() - 4096 + 8 + 40;
            b[at] ^= 0x10
        }),
    ];
    for (what, damage) in cases {
        let snapshot = temp_path(&format!("trail-damage-{}.tsq", what.replace(' ', "-")));
        std::fs::copy(&path, &snapshot).unwrap();
        let mut paged = Catalog::new();
        paged.open_paged(&snapshot, 1).unwrap();
        paged.run(&format!("EXPLAIN {}", statements[0])).unwrap();
        let Some(trails) = &built_trail_file(&paged, "stocks") else {
            panic!("{what}: one trail file once built");
        };
        let mut bytes = std::fs::read(trails).unwrap();
        assert_eq!((bytes.len() - 4096) % 4096, 0, "{what}: 4 KiB pages");
        damage(&mut bytes);
        std::fs::write(trails, &bytes).unwrap();
        for q in &statements {
            assert_store_error(&paged, q, what);
        }
        assert_eq!(
            paged
                .run("FIND 3 NEAREST TO walks.s1 IN walks")
                .unwrap()
                .rows
                .len(),
            3
        );
        let shared = SharedCatalog::new(paged);
        let handle = tsq_lang::serve("127.0.0.1:0", shared, ServiceConfig::default()).unwrap();
        let mut client = tsq_service::Client::connect(handle.addr()).unwrap();
        for q in &statements {
            match client.query(q) {
                Err(ClientError::Remote(e)) => assert_eq!(e.code, ErrorCode::Engine, "{what}"),
                other => panic!("{what}: expected an engine error frame, got {other:?}"),
            }
        }
        assert!(client.query("FIND 3 NEAREST TO walks.s1 IN walks").is_ok());
        drop(client);
        handle.shutdown();
    }
}

/// A reply carries every `ExecStats` counter over each transport: a cold
/// kNN-5 on a paged relation reads record frames, and the counters a
/// client decodes off the wire, and those the HTTP facade renders, are
/// the ones `Catalog::run` returns in process — record traffic included.
/// Each transport gets a catalog of its own, opened paged from the same
/// snapshot, so each statement starts from the same cold cache.
#[test]
fn wire_and_http_replies_carry_every_exec_stats_counter() {
    let path = temp_path("counters.tsq");
    catalog().save(&path).unwrap();
    let paged = || {
        let mut cat = Catalog::new();
        cat.open_paged(&path, 1).unwrap();
        cat
    };
    let q = "FIND 5 NEAREST TO walks.s3 IN walks";
    let local = paged().run(q).unwrap().stats;
    assert!(
        local.record_misses > 0,
        "a cold kNN reads records: {local:?}"
    );

    let handle = tsq_lang::serve(
        "127.0.0.1:0",
        SharedCatalog::new(paged()),
        ServiceConfig::default(),
    )
    .unwrap();
    let mut client = tsq_service::Client::connect(handle.addr()).unwrap();
    assert_eq!(client.query(q).unwrap().stats, local, "over the wire");
    drop(client);
    handle.shutdown();

    let handle = tsq_lang::serve(
        "127.0.0.1:0",
        SharedCatalog::new(paged()),
        ServiceConfig::default(),
    )
    .unwrap();
    let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    let request = format!(
        "POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{q}",
        q.len()
    );
    std::io::Write::write_all(&mut stream, request.as_bytes()).unwrap();
    let mut answer = String::new();
    std::io::Read::read_to_string(&mut stream, &mut answer).unwrap();
    let want = format!(
        "\"stats\":{{\"candidates\":{},\"refined\":{},\"false_hits\":{},\
         \"nodes_visited\":{},\"disk_accesses\":{},\"pool_hits\":{},\
         \"pool_misses\":{},\"record_hits\":{},\"record_misses\":{},\
         \"record_seq_misses\":{}}}",
        local.candidates,
        local.refined,
        local.false_hits,
        local.nodes_visited,
        local.disk_accesses,
        local.pool_hits,
        local.pool_misses,
        local.record_hits,
        local.record_misses,
        local.record_seq_misses
    );
    assert!(answer.contains(&want), "over HTTP: want {want} in {answer}");
    handle.shutdown();
    std::fs::remove_file(&path).ok();
}
