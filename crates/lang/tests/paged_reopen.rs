//! Two paged opens of one snapshot path each own their files.
//!
//! `Catalog::open_paged` writes every relation's nodes and samples to
//! files beside the snapshot and reads them back through one cache. A
//! second open of the same path — after the snapshot was saved over with
//! other data — writes files of its own: the first catalog keeps reading
//! the files it wrote, and so keeps its answers. A file written over one
//! of a catalog's own, even a well-formed file of the same shape, is a
//! typed error at the first statement, never another catalog's rows.

use std::path::PathBuf;

use tsq_core::SeriesRelation;
use tsq_lang::{Catalog, LangError};
use tsq_series::generate::RandomWalkGenerator;

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tsq-paged-reopen-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

/// 8 000 random walks of 128 samples from `seed`, saved to `path` and
/// opened paged at a 1 MiB cache: the cache holds a small part of the
/// files, so statements read them again.
fn saved_and_opened(seed: u64, path: &std::path::Path) -> Catalog {
    let mut cat = Catalog::new();
    let walks = RandomWalkGenerator::new(seed).relation(8000, 128);
    cat.register(SeriesRelation::from_series("walks", walks).unwrap())
        .unwrap();
    cat.save(path).unwrap();
    let mut paged = Catalog::new();
    paged.open_paged(path, 1).unwrap();
    paged
}

/// A kNN statement and a forced scan: between them, they read the node
/// file and every record.
const STATEMENTS: [&str; 2] = [
    "FIND 5 NEAREST TO walks.s7 IN walks",
    "FIND SIMILAR TO walks.s7 IN walks WITHIN 3 WITH (force = scan)",
];

#[test]
fn a_second_paged_open_of_one_path_leaves_the_first_its_answers() {
    let path = temp_path("walks.tsq");
    let statements = STATEMENTS;
    let first = saved_and_opened(1, &path);
    let before: Vec<_> = statements
        .iter()
        .map(|q| first.run(q).unwrap().rows)
        .collect();
    assert_eq!(before[0][0].distance, 0.0, "s7 is its own nearest");
    assert!(!before[1].is_empty(), "s7 is within 3 of itself");

    let second = saved_and_opened(2, &path);
    let (a, b) = (first.paged_files("walks"), second.paged_files("walks"));
    assert_eq!(a.len(), 2, "a node file and a record file: {a:?}");
    assert!(
        a.iter().all(|f| f.exists() && !b.contains(f)),
        "{a:?} / {b:?}"
    );
    for (q, want) in statements.iter().zip(&before) {
        assert_eq!(&first.run(q).unwrap().rows, want, "{q}");
    }

    drop((first, second));
    for file in a.iter().chain(&b) {
        assert!(!file.exists(), "{} outlives its catalog", file.display());
    }
    std::fs::remove_file(&path).unwrap();
}

/// A's own files and B's are well-formed files of the same shape: B's
/// bytes written over A's, in place and before A's first statement, are a
/// typed error at every statement that reads them, never B's rows. A
/// statement that reads only A's own files — the forced scan reads no
/// node page — answers exactly as A did.
#[test]
fn another_catalogs_file_written_over_a_paged_catalogs_own_is_a_typed_error() {
    let b_path = temp_path("swap-b.tsq");
    let b = saved_and_opened(2, &b_path);
    let b_rows: Vec<_> = STATEMENTS.iter().map(|q| b.run(q).unwrap().rows).collect();
    let theirs = b.paged_files("walks");
    // Which of (node file, record file) B's bytes are written over.
    let cases = [
        ("node file", [true, false]),
        ("record file", [false, true]),
        ("both", [true, true]),
    ];
    // Which of (node file, record file) each statement reads.
    let reads = [[true, true], [false, true]];
    for (what, swapped) in cases {
        let a_path = temp_path(&format!("swap-a-{}.tsq", what.replace(' ', "-")));
        let a = saved_and_opened(1, &a_path);
        let mut memory = Catalog::new();
        memory.open(&a_path).unwrap();
        let mine = a.paged_files("walks");
        assert_eq!(mine.len(), 2, "a node file and a record file: {mine:?}");
        // In place: A's handles read B's bytes.
        for ((file, other), swap) in mine.iter().zip(&theirs).zip(swapped) {
            if swap {
                std::fs::write(file, std::fs::read(other).unwrap()).unwrap();
            }
        }
        for (q, read) in STATEMENTS.iter().zip(reads) {
            let reads_swapped = read.iter().zip(swapped).any(|(&r, s)| r && s);
            match a.run(q) {
                Err(LangError::Engine(tsq_core::Error::Store(_))) if reads_swapped => {}
                Ok(out) if !reads_swapped => {
                    assert_eq!(out.rows, memory.run(q).unwrap().rows, "{what}: {q}")
                }
                other => {
                    panic!("{what}: {q}: reads a swapped file: {reads_swapped}, got {other:?}")
                }
            }
        }
        for (q, want) in STATEMENTS.iter().zip(&b_rows) {
            assert_eq!(&b.run(q).unwrap().rows, want, "{what}: B answers {q}");
        }
        drop(a);
        std::fs::remove_file(&a_path).unwrap();
    }
    drop(b);
    std::fs::remove_file(&b_path).unwrap();
}
