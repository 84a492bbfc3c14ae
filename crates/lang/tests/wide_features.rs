//! A relation whose features lie past `f32::MAX` answers as the scan
//! does, in memory and paged.
//!
//! A tree stores each bound as an `f32` rounded outward, so a mean of
//! 1e39 — or a subsequence coefficient of that size — is stored between
//! `f32::MAX` and +∞. The filter must still pass every answer (Lemma 1),
//! no kernel may form `∞ − ∞` on such a bound, and the page codec must
//! read the infinite bounds it wrote back.

use std::path::PathBuf;

use tsq_core::SeriesRelation;
use tsq_lang::{Catalog, Row};
use tsq_series::generate::RandomWalkGenerator;
use tsq_series::TimeSeries;

const LEN: usize = 64;
const WINDOW: usize = 16;

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tsq-wide-features-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

/// Walks around +1e39 and −1e39 (means past `f32::MAX`, either sign),
/// and plain walks beside them.
fn wide() -> Vec<TimeSeries> {
    let mut gen = RandomWalkGenerator::new(71);
    (0..48)
        .map(|i| {
            let walk = gen.series(LEN);
            let (base, spread) = match i % 3 {
                0 => (1e39, 1e37),
                1 => (-1e39, 3e37),
                _ => (0.0, 1.0),
            };
            TimeSeries::new(walk.values().iter().map(|v| base + spread * v).collect())
        })
        .collect()
}

fn rows_by_key(mut rows: Vec<Row>) -> Vec<(String, Option<usize>, u64)> {
    rows.sort_by(|a, b| (&a.a, a.offset).cmp(&(&b.a, b.offset)));
    rows.into_iter()
        .map(|r| (r.a, r.offset, r.distance.to_bits()))
        .collect()
}

/// Every window of `relation` within `eps` of `pattern`, by brute force.
fn windows_within(relation: &[TimeSeries], pattern: &[f64], eps: f64) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    for (id, series) in relation.iter().enumerate() {
        for (offset, window) in series.values().windows(pattern.len()).enumerate() {
            let d2: f64 = window
                .iter()
                .zip(pattern)
                .map(|(x, y)| (x - y) * (x - y))
                .sum();
            if d2.sqrt() <= eps * (1.0 - 1e-9) {
                out.push((format!("s{id}"), offset));
            }
        }
    }
    out
}

#[test]
fn a_relation_past_f32_max_answers_as_the_scan_does() {
    let series = wide();
    let mut memory = Catalog::new();
    memory
        .register(SeriesRelation::from_series("wide", series.clone()).unwrap())
        .unwrap();
    let path = temp_path("wide.tsq");
    memory.save(&path).unwrap();
    let mut paged = Catalog::new();
    paged.open_paged(&path, 1).unwrap();

    let statements = [
        "FIND SIMILAR TO wide.s3 IN wide WITHIN 4".to_string(),
        "FIND SIMILAR TO wide.s4 IN wide WITHIN 12 APPLY mavg(4)".to_string(),
        "FIND SIMILAR TO wide.s3 IN wide WITHIN 6 WHERE MEAN BETWEEN 5e38 AND 2e39".to_string(),
        "FIND SIMILAR TO wide.s2 IN wide WITHIN 6 WHERE MEAN BETWEEN -1e300 AND -1e38".to_string(),
        "FIND 5 NEAREST TO wide.s3 IN wide".to_string(),
        "FIND 5 NEAREST TO wide.s5 IN wide APPLY mavg(4)".to_string(),
        "JOIN wide WITHIN 5".to_string(),
    ];
    for cat in [&memory, &paged] {
        for q in &statements {
            let got = cat.run(q).unwrap();
            let scan = cat.run(&format!("{q} WITH (force = scan)")).unwrap();
            assert!(!scan.rows.is_empty(), "{q}: answers to lose");
            assert_eq!(got.rows, scan.rows, "{q}: {} against the scan", got.plan);
        }
    }

    // Subsequences of the huge walks: the trail coefficients lie past
    // `f32::MAX` too. The answer is every window the brute force finds,
    // and the in-memory and paged catalogs agree bit for bit.
    for (id, start, eps) in [(3usize, 10usize, 2e38), (4, 30, 5e38), (5, 0, 12.0)] {
        let pattern = &series[id].values()[start..start + WINDOW];
        let literal: Vec<String> = pattern.iter().map(|v| format!("{v:e}")).collect();
        let q = format!(
            "FIND SUBSEQUENCE OF [{}] IN wide WITHIN {eps:e} WINDOW {WINDOW}",
            literal.join(", ")
        );
        let got = memory.run(&q).unwrap().rows;
        let want = windows_within(&series, pattern, eps);
        let found: Vec<(String, usize)> = got
            .iter()
            .map(|r| (r.a.clone(), r.offset.unwrap()))
            .collect();
        assert!(found.len() > 1, "{q}: answers to lose");
        for hit in &want {
            assert!(found.contains(hit), "{q}: {hit:?} dismissed");
        }
        assert_eq!(
            rows_by_key(paged.run(&q).unwrap().rows),
            rows_by_key(got),
            "{q}: paged"
        );
    }
    drop(paged);
    std::fs::remove_file(&path).unwrap();
}
