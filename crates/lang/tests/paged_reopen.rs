//! Two paged opens of one snapshot path each own their files.
//!
//! `Catalog::open_paged` writes every relation's nodes and samples to
//! files beside the snapshot and reads them back through one cache. A
//! second open of the same path — after the snapshot was saved over with
//! other data — writes files of its own: the first catalog keeps reading
//! the files it wrote, and so keeps its answers.

use std::path::PathBuf;

use tsq_core::SeriesRelation;
use tsq_lang::Catalog;
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

#[test]
fn a_second_paged_open_of_one_path_leaves_the_first_its_answers() {
    let path = temp_path("walks.tsq");
    let statements = [
        "FIND 5 NEAREST TO walks.s7 IN walks",
        "FIND SIMILAR TO walks.s7 IN walks WITHIN 3 WITH (force = scan)",
    ];
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
