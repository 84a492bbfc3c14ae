//! Sharding oracle: a sharded relation is an *execution layout*, never a
//! semantic change. After **any** interleaving of appends and queries,
//! every query form on a sharded catalog must answer byte-identically —
//! rows, row order, distances bit-for-bit — to the unsharded engine
//! running on the same data, and the merged counters must be the exact
//! sum of the per-shard counters.
//!
//! Four levels:
//!
//! - a property test drives randomized shard counts (hash and range) and
//!   randomized append/query interleavings against an unsharded oracle
//!   catalog receiving the same appends;
//! - a tie-determinism test duplicates series so kNN distance ties cross
//!   shard boundaries, and demands the unsharded tie order survives the
//!   scatter-gather merge;
//! - a snapshot test proves a sharded catalog round-trips byte-identically
//!   through `save → open → save` and that the restored catalog keeps
//!   answering like the unsharded oracle;
//! - a live-server test runs the same parity through a real `tsq-service`
//!   server — binary wire protocol and HTTP/JSON facade — with `WITH`
//!   options in the query text.
//!
//! Counter policy: `WITH (force = scan)` plans visit exactly the same
//! series in the same per-shard order as the unsharded scan, so *all*
//! counters match. Index plans prune per-shard trees whose layouts
//! differ from the single big tree, so rows must still match exactly but
//! only the merged == Σ per-shard identity is pinned.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use proptest::prelude::*;
use tsq::core::plan::ExecStats;
use tsq::core::{IndexConfig, SeriesRelation};
use tsq::lang::{AppendRow, Catalog, QueryOutput};
use tsq::rtree::RTreeConfig;
use tsq::series::generate::RandomWalkGenerator;
use tsq::service::{Client, ServiceConfig};
use tsq::{SharedCatalog, TimeSeries};

/// The query forms the oracle pins, phrased over relation `w`. Every
/// scatter-gather merge path is covered: range, range + transform, kNN,
/// join (auto and forced), subsequence range, subsequence kNN.
fn oracle_queries() -> Vec<String> {
    vec![
        "FIND SIMILAR TO w.s0 IN w WITHIN 3".to_string(),
        "FIND SIMILAR TO w.s1 IN w WITHIN 40 APPLY mavg(4)".to_string(),
        "FIND 5 NEAREST TO w.s1 IN w".to_string(),
        "JOIN w WITHIN 2".to_string(),
        "JOIN w WITHIN 2 WITH (force = index)".to_string(),
        "FIND SUBSEQUENCE OF [0, 0.5, 1, 0.5, 0, -0.5] IN w WITHIN 4 WINDOW 6".to_string(),
        "FIND 3 NEAREST SUBSEQUENCE OF [0, 0.5, 1, 0.5, 0, -0.5] IN w WINDOW 6".to_string(),
    ]
}

/// Asserts the sharded answer equals the unsharded oracle answer:
/// byte-identical rows (order included), and merged counters that are
/// the exact sum of the per-shard counters.
fn assert_sharded_matches(sharded: &QueryOutput, oracle: &QueryOutput, q: &str) {
    assert_eq!(sharded.rows, oracle.rows, "{q}");
    assert!(
        oracle.shard_stats.is_empty(),
        "{q}: oracle must be unsharded"
    );
    assert_eq!(
        sharded.stats,
        ExecStats::sum(&sharded.shard_stats),
        "{q}: merged counters must be the exact sum of the shard counters"
    );
}

/// Initial uniform data plus append rounds; every round appends the same
/// point count to every series (and introduces new, full-length ones), so
/// the relation stays uniform and every query form keeps answering
/// between rounds.
type ShardScript = (Vec<Vec<f64>>, Vec<Vec<f64>>, usize, usize);

fn shard_script() -> impl Strategy<Value = ShardScript> {
    (4usize..8, 12usize..16).prop_flat_map(|(count, len)| {
        (
            prop::collection::vec(
                prop::collection::vec(-50.0f64..50.0, len..=len),
                count..=count,
            ),
            // 1-3 append rounds of 1-3 points each (applied to every series).
            prop::collection::vec(prop::collection::vec(-50.0f64..50.0, 1..4), 1..4),
            1usize..6,
            // 0 = hash, 1 = range (the shim has no bool strategy).
            0usize..2,
        )
    })
}

/// One round's `APPEND` statement: `round` appended to every series the
/// relation holds, plus six labels it has never seen, each entering at
/// the full post-round length so the relation stays uniform.
fn round_rows(cat: &Catalog, round: &[f64], round_no: usize) -> Vec<AppendRow> {
    let rel = cat.relation("w").unwrap();
    let mut rows: Vec<AppendRow> = (0..rel.len())
        .map(|id| AppendRow {
            label: rel.label(id).unwrap().to_string(),
            values: round.to_vec(),
        })
        .collect();
    let mut grown = rel.get(0).unwrap().values().to_vec();
    grown.extend_from_slice(round);
    for (k, shift) in [0.5, -1.25, 2.0, -3.5, 4.75, -6.0].into_iter().enumerate() {
        rows.push(AppendRow {
            label: format!("n{round_no}_{k}"),
            values: grown.iter().map(|v| v + shift).collect(),
        });
    }
    rows
}

fn catalog_from(init: &[Vec<f64>]) -> Catalog {
    catalog_with(IndexConfig::default(), init)
}

fn catalog_with(config: IndexConfig, init: &[Vec<f64>]) -> Catalog {
    let items: Vec<(String, TimeSeries)> = init
        .iter()
        .enumerate()
        .map(|(i, vals)| (format!("s{i}"), TimeSeries::new(vals.clone())))
        .collect();
    let mut cat = Catalog::with_config(config);
    cat.register(SeriesRelation::from_labeled("w", items).unwrap())
        .unwrap();
    cat
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The oracle invariant, property-tested: random shard counts × hash
    /// and range partitioning × append/query interleavings, always
    /// byte-identical to the unsharded engine on the same data.
    #[test]
    fn sharded_answers_are_byte_identical_under_append_interleavings(
        (init, rounds, shards, by_pick) in shard_script()
    ) {
        let mut sharded = catalog_from(&init);
        let mut oracle = catalog_from(&init);
        let by = if by_pick == 0 { "HASH" } else { "RANGE" };
        sharded
            .run_mut(&format!("SHARD w INTO {shards} BY {by}"))
            .unwrap();

        // Prime the subsequence cache on both sides so appends exercise
        // the incremental-extension path, not fresh builds.
        let sub_q = "FIND SUBSEQUENCE OF [0, 0.5, 1, 0.5, 0, -0.5] IN w WITHIN 4 WINDOW 6";
        sharded.run(sub_q).unwrap();
        oracle.run(sub_q).unwrap();

        // One append path at every shard count: a catalog sharded first
        // and appended to after must snapshot to the bytes of one that
        // received the same appends first and was sharded after (hash
        // sharding: the rule, unlike range boundaries, does not depend on
        // when it is applied). Neither primes an ST-index, so the
        // snapshots hold relation sections only; a fan-out of 4 gives
        // even these small shards trees of several levels, where growing
        // a tree entry by entry and packing it afresh part ways.
        let small_nodes = IndexConfig {
            rtree: RTreeConfig::with_max_entries(4),
            ..IndexConfig::default()
        };
        let mut live = catalog_with(small_nodes, &init);
        live.run_mut(&format!("SHARD w INTO {shards} BY HASH")).unwrap();
        let mut late = catalog_with(small_nodes, &init);

        for (round_no, round) in rounds.iter().enumerate() {
            let rows = round_rows(&sharded, round, round_no);
            for cat in [&mut sharded, &mut oracle, &mut live, &mut late] {
                cat.append("w", &rows).unwrap();
            }

            for q in oracle_queries() {
                let got = sharded.run(&q).unwrap();
                let want = oracle.run(&q).unwrap();
                if shards == 1 {
                    // SHARD INTO 1 restores plain unsharded execution.
                    prop_assert_eq!(got, want, "{}", q);
                } else {
                    assert_sharded_matches(&got, &want, &q);
                }
            }

            // A forced scan visits the same series in the same global
            // order on both sides: every counter matches, not just rows.
            let scan = "FIND SIMILAR TO w.s0 IN w WITHIN 3 WITH (force = scan)";
            let got = sharded.run(scan).unwrap();
            let want = oracle.run(scan).unwrap();
            prop_assert_eq!(&got.rows, &want.rows, "{}", scan);
            prop_assert_eq!(got.stats, want.stats, "{}", scan);

            // WITH (threads/shards) caps scatter width without changing
            // a single answer byte.
            let capped = "FIND 5 NEAREST TO w.s1 IN w WITH (threads = 2, shards = 1)";
            let plain = "FIND 5 NEAREST TO w.s1 IN w";
            prop_assert_eq!(
                sharded.run(capped).unwrap().rows,
                sharded.run(plain).unwrap().rows,
                "{}", capped
            );
        }

        late.run_mut(&format!("SHARD w INTO {shards} BY HASH")).unwrap();
        // (Not `prop_assert_eq!`: a failure would print both snapshots.)
        prop_assert!(
            live.snapshot_bytes().unwrap() == late.snapshot_bytes().unwrap(),
            "append-after-SHARD and SHARD-after-append diverge at {} shard(s)",
            shards
        );
    }
}

/// kNN distance ties must break identically across the shard merge: a
/// relation of duplicated series puts exact-tie pairs on *different*
/// shards, and the gather must reproduce the unsharded tie order.
#[test]
fn knn_tie_order_survives_the_shard_merge() {
    let base = RandomWalkGenerator::new(31).relation(8, 24);
    // 16 series, each one an exact duplicate of another: s{i} == s{i+8}.
    let items: Vec<(String, TimeSeries)> = (0..16)
        .map(|i| (format!("s{i}"), base[i % 8].clone()))
        .collect();
    let mut oracle = Catalog::new();
    oracle
        .register(SeriesRelation::from_labeled("w", items.clone()).unwrap())
        .unwrap();

    for by in ["HASH", "RANGE"] {
        for shards in [2usize, 3, 5] {
            let mut sharded = Catalog::new();
            sharded
                .register(SeriesRelation::from_labeled("w", items.clone()).unwrap())
                .unwrap();
            sharded
                .run_mut(&format!("SHARD w INTO {shards} BY {by}"))
                .unwrap();
            for q in [
                // k cuts through a tie group: every answer holds ties.
                "FIND 3 NEAREST TO w.s0 IN w",
                "FIND 9 NEAREST TO w.s0 IN w",
                "FIND 16 NEAREST TO w.s3 IN w",
            ] {
                let got = sharded.run(q).unwrap();
                let want = oracle.run(q).unwrap();
                assert_sharded_matches(&got, &want, &format!("{q} [{shards} by {by}]"));
            }
        }
    }
}

/// The join matrix: every `force` a join can carry, at 1, 2 and 4 shards,
/// hash- and range-partitioned, plus a layout with empty shards. Rows —
/// multiplicity (once per pair, twice under `index`/`tree`), order and
/// distance bits — equal the one-shard relation's; the merged counters
/// equal the per-shard sum everywhere, and the one-shard relation's
/// exactly under the scan forces, whose local and cross-shard stages
/// together compare each unordered pair once.
#[test]
fn sharded_join_matrix_matches_the_one_shard_relation() {
    let catalog = |series: Vec<TimeSeries>| {
        let mut cat = Catalog::new();
        cat.register(SeriesRelation::from_series("w", series).unwrap())
            .unwrap();
        cat
    };
    let walks = RandomWalkGenerator::new(83).relation(36, 24);
    // (series, shard count, rule): the full matrix, then five series over
    // eight hash shards, which leaves at least three shards empty.
    let mut layouts: Vec<(&[TimeSeries], usize, &str)> = Vec::new();
    for by in ["HASH", "RANGE"] {
        for shards in [1usize, 2, 4] {
            layouts.push((&walks, shards, by));
        }
    }
    layouts.push((&walks[..5], 8, "HASH"));

    for (series, shards, by) in layouts {
        let one = catalog(series.to_vec());
        let mut sharded = catalog(series.to_vec());
        sharded
            .run_mut(&format!("SHARD w INTO {shards} BY {by}"))
            .unwrap();
        if shards == 8 {
            let (_, _, sizes) = sharded.shard_layout("w").unwrap();
            assert!(sizes.contains(&0), "the layout must hold an empty shard");
        }
        for force in ["", "scan", "scanfull", "index"] {
            let with = if force.is_empty() {
                String::new()
            } else {
                format!(" WITH (force = {force})")
            };
            let q = format!("JOIN w WITHIN 4 APPLY mavg(4){with}");
            let cell = format!("{q} [{} series, {shards} by {by}]", series.len());
            let got = sharded.run(&q).unwrap();
            let want = one.run(&q).unwrap();
            let ordered_pairs = series.len() * (series.len() - 1);
            assert!(
                !want.rows.is_empty() && want.rows.len() < ordered_pairs,
                "{cell}: the join must be selective, found {} rows",
                want.rows.len()
            );
            let key = |out: &QueryOutput| -> Vec<(String, Option<String>, u64)> {
                out.rows
                    .iter()
                    .map(|r| (r.a.clone(), r.b.clone(), r.distance.to_bits()))
                    .collect()
            };
            assert_eq!(key(&got), key(&want), "{cell}");
            if shards == 1 {
                assert_eq!(got, want, "{cell}");
            } else {
                assert_eq!(got.shard_stats.len(), shards, "{cell}");
                assert_sharded_matches(&got, &want, &cell);
            }
            if force.starts_with("scan") {
                assert_eq!(got.stats, want.stats, "{cell}");
            }
        }
    }
}

/// A sharded catalog round-trips byte-identically through
/// `save → open → save`, and the restored catalog still answers exactly
/// like the unsharded oracle.
#[test]
fn sharded_snapshot_save_open_save_round_trips() {
    let walks = RandomWalkGenerator::new(59).relation(24, 20);
    let mut sharded = Catalog::new();
    sharded
        .register(SeriesRelation::from_series("w", walks.clone()).unwrap())
        .unwrap();
    sharded.run_mut("SHARD w INTO 4 BY RANGE").unwrap();
    // Append after sharding so the saved state exercises shard routing.
    sharded
        .run_mut("APPEND w CSV (s0, 1.5, -0.5) (s23, 0.25, 2)")
        .unwrap();
    let heal: Vec<String> = (1..23).map(|i| format!("(s{i}, 0.5, -1)")).collect();
    sharded
        .run_mut(&format!("APPEND w CSV {}", heal.join(" ")))
        .unwrap();

    let mut oracle = Catalog::new();
    let items: Vec<(String, TimeSeries)> = {
        let rel = sharded.relation("w").unwrap();
        (0..rel.len())
            .map(|id| {
                (
                    rel.label(id).unwrap().to_string(),
                    rel.get(id).unwrap().clone(),
                )
            })
            .collect()
    };
    oracle
        .register(SeriesRelation::from_labeled("w", items).unwrap())
        .unwrap();

    let bytes = sharded.snapshot_bytes().unwrap();
    let dir = std::env::temp_dir().join(format!("tsq-shard-snapshot-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sharded.tsq");
    sharded.save(&path).unwrap();

    let mut restored = Catalog::new();
    restored.open(&path).unwrap();
    assert_eq!(
        restored.snapshot_bytes().unwrap(),
        bytes,
        "save → open → save must reproduce the sharded snapshot byte for byte"
    );
    let layout = restored
        .shard_layout("w")
        .expect("restored relation is sharded");
    assert_eq!(layout.1, 4, "shard count survives the round-trip");

    for q in oracle_queries() {
        let got = restored.run(&q).unwrap();
        let want = oracle.run(&q).unwrap();
        assert_sharded_matches(&got, &want, &q);
        assert_eq!(
            got.rows,
            sharded.run(&q).unwrap().rows,
            "{q}: restore must not change answers"
        );
    }
}

/// Live-server parity: the same byte-identity holds through a real
/// `tsq-service` server — binary wire protocol and the HTTP facade —
/// with `WITH` options travelling inside the query text.
#[test]
fn sharded_answers_match_the_oracle_through_a_live_server() {
    let walks = RandomWalkGenerator::new(67).relation(30, 24);
    let mut cat = Catalog::new();
    cat.register(SeriesRelation::from_series("w", walks.clone()).unwrap())
        .unwrap();
    cat.run_mut("SHARD w INTO 3 BY HASH").unwrap();
    let shared = SharedCatalog::new(cat);

    let mut oracle = Catalog::new();
    oracle
        .register(SeriesRelation::from_series("w", walks).unwrap())
        .unwrap();

    let config = ServiceConfig {
        workers: 4,
        exec_threads: 2,
        poll_interval: Duration::from_millis(5),
        ..ServiceConfig::default()
    };
    let handle = tsq::lang::serve("127.0.0.1:0", shared.clone(), config).unwrap();
    let addr = handle.addr();
    let mut client = Client::connect(addr).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();

    let queries = [
        "FIND SIMILAR TO w.s0 IN w WITHIN 3".to_string(),
        "FIND 5 NEAREST TO w.s1 IN w".to_string(),
        "JOIN w WITHIN 2 WITH (force = index)".to_string(),
        "FIND SIMILAR TO w.s2 IN w WITHIN 3 WITH (force = scan, threads = 2)".to_string(),
        "FIND 4 NEAREST TO w.s3 IN w WITH (shards = 2)".to_string(),
    ];
    for q in &queries {
        let want = oracle.run(q).unwrap();
        let reply = client.query(q).unwrap();
        assert_eq!(reply.rows.len(), want.rows.len(), "{q}");
        for (w, d) in reply.rows.iter().zip(&want.rows) {
            assert_eq!(w.a, d.a, "{q}");
            assert_eq!(w.b, d.b, "{q}");
            assert_eq!(w.offset, d.offset.map(|o| o as u64), "{q}");
            assert_eq!(w.distance.to_bits(), d.distance.to_bits(), "{q}");
        }
        assert_eq!(
            reply.shard_stats.len(),
            3,
            "{q}: one counter block per shard"
        );
        assert_eq!(
            reply.stats,
            ExecStats::sum(&reply.shard_stats),
            "{q}: wire-decoded merged counters must sum the shard blocks"
        );
    }

    // APPEND through the wire routes to the owning shards; answers track.
    let heal: Vec<String> = (0..30).map(|i| format!("(s{i}, 0.75, -0.25)")).collect();
    client
        .query(&format!("APPEND w CSV {}", heal.join(" ")))
        .unwrap();
    oracle
        .run_mut(&format!("APPEND w CSV {}", heal.join(" ")))
        .unwrap();
    let q = "FIND 5 NEAREST TO w.s1 IN w";
    let want = oracle.run(q).unwrap();
    let reply = client.query(q).unwrap();
    for (w, d) in reply.rows.iter().zip(&want.rows) {
        assert_eq!(w.a, d.a, "{q}");
        assert_eq!(w.distance.to_bits(), d.distance.to_bits(), "{q}");
    }

    // HTTP facade: the JSON reply carries the per-shard breakdown and
    // the Sharded plan name for a WITH-optioned query.
    let q = "FIND 3 NEAREST TO w.s2 IN w WITH (threads = 2)";
    let want = oracle.run(q).unwrap();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(
            format!(
                "POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{q}",
                q.len()
            )
            .as_bytes(),
        )
        .unwrap();
    let mut answer = String::new();
    stream.read_to_string(&mut answer).unwrap();
    assert!(answer.starts_with("HTTP/1.1 200 OK"), "{answer}");
    assert!(answer.contains("\"plan\":\"Sharded(3):"), "{answer}");
    assert!(
        answer.contains(&format!("\"row_count\":{}", want.rows.len())),
        "{answer}"
    );
    assert!(answer.contains("\"shards\":[{"), "{answer}");
    assert!(
        answer.contains(&format!("\"a\":\"{}\"", want.rows[0].a)),
        "{answer}"
    );

    // The metrics endpoint counts scatter-gather traffic.
    let stats = client.stats_json().unwrap();
    assert!(stats.contains("\"sharded_queries\":"), "{stats}");
    assert!(stats.contains("\"shards_probed\":"), "{stats}");

    let snap = handle.shutdown();
    assert_eq!(snap.in_flight, 0);
    assert_eq!(snap.queries_err, 0, "no query may fail");
    assert!(snap.sharded_queries >= queries.len() as u64);
    assert!(snap.shards_probed >= 3 * queries.len() as u64);
}
