//! Negative-path coverage for query validation: nonsense thresholds and
//! windows must fail with a *typed* error — at the parser when the literal
//! itself is invalid, at the engine when only the catalog can tell — and
//! never silently produce an empty answer.

use tsq_core::SeriesRelation;
use tsq_lang::{parse, Catalog, LangError};
use tsq_series::generate::RandomWalkGenerator;

fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    let rel =
        SeriesRelation::from_series("walks", RandomWalkGenerator::new(7).relation(20, 32)).unwrap();
    cat.register(rel).unwrap();
    cat
}

#[test]
fn negative_eps_is_a_parse_error_in_every_query_form() {
    for src in [
        "FIND SIMILAR TO walks.s0 IN walks WITHIN -1",
        "FIND SIMILAR TO walks.s0 IN walks WITHIN -0.0001 APPLY mavg(4)",
        "FIND SUBSEQUENCE OF walks.s0 IN walks WITHIN -3 WINDOW 8",
        "JOIN walks WITHIN -2 WITH (force = scan)",
    ] {
        match parse(src) {
            Err(LangError::Parse { pos, message }) => {
                assert!(message.contains("non-negative"), "{src}: {message}");
                // The error points at the offending number, not at byte 0.
                assert!(pos > 0, "{src}");
            }
            other => panic!("{src}: expected a parse error, got {other:?}"),
        }
    }
}

#[test]
fn using_is_a_parse_error_that_names_its_replacement() {
    for src in [
        "JOIN walks WITHIN 2 USING INDEX",
        "JOIN walks WITHIN 2 APPLY mavg(4) using tree WITH (threads = 2)",
        "EXPLAIN JOIN walks WITHIN 2 USING SCAN",
    ] {
        match parse(src) {
            Err(LangError::Parse { pos, message }) => {
                assert!(message.contains("WITH (force = "), "{src}: {message}");
                assert!(
                    message.contains("scan, scanfull or index"),
                    "{src}: {message}"
                );
                assert_eq!(
                    pos,
                    src.to_ascii_uppercase().find("USING").unwrap(),
                    "{src}"
                );
            }
            other => panic!("{src}: expected a parse error, got {other:?}"),
        }
    }
    // Only the clause position is reserved: a relation may be named so.
    assert!(parse("JOIN using WITHIN 2").is_ok());
}

/// A `force` value names one of the three remaining methods or nothing:
/// `tree` (the deleted synchronized join) is refused in every form, by the
/// parser and through `Catalog::run`, with a message naming the others.
#[test]
fn force_tree_is_a_parse_error_that_names_the_methods() {
    let cat = catalog();
    for src in [
        "JOIN walks WITHIN 2 WITH (force = tree)",
        "JOIN walks WITHIN 2 APPLY mavg(4) WITH (threads = 2, force = TREE)",
        "EXPLAIN ANALYZE JOIN walks WITHIN 2 WITH (force = tree)",
        "FIND SIMILAR TO walks.s0 IN walks WITHIN 1 WITH (force = tree)",
        "FIND 3 NEAREST TO walks.s0 IN walks WITH (force = tree)",
        "FIND SUBSEQUENCE OF walks.s0 IN walks WITHIN 1 WINDOW 32 WITH (force = tree)",
    ] {
        for (entry, got) in [
            ("parse", parse(src).map(|_| ())),
            ("run", cat.run(src).map(|_| ())),
        ] {
            match got {
                Err(LangError::Parse { message, .. }) => assert_eq!(
                    message, "force must be scan, scanfull or index, got tree",
                    "{entry}: {src}"
                ),
                other => panic!("{entry}: {src}: expected a parse error, got {other:?}"),
            }
        }
    }
}

#[test]
fn degenerate_window_is_a_parse_error() {
    for src in [
        "FIND SUBSEQUENCE OF walks.s0 IN walks WITHIN 1 WINDOW 0",
        "FIND SUBSEQUENCE OF walks.s0 IN walks WITHIN 1 WINDOW 1",
        "FIND SUBSEQUENCE OF walks.s0 IN walks WITHIN 1 WINDOW 7.5",
        "FIND SUBSEQUENCE OF walks.s0 IN walks WITHIN 1 WINDOW -4",
        "FIND 2 NEAREST SUBSEQUENCE OF walks.s0 IN walks WINDOW 1",
    ] {
        assert!(
            matches!(parse(src), Err(LangError::Parse { .. })),
            "{src} should be rejected at parse time"
        );
    }
}

#[test]
fn executing_rejected_queries_never_reaches_the_engine() {
    let cat = catalog();
    // The same strings through the full run() pipeline: still parse errors.
    let err = cat
        .run("FIND SUBSEQUENCE OF walks.s0 IN walks WITHIN -1 WINDOW 8")
        .unwrap_err();
    assert!(matches!(err, LangError::Parse { .. }));
    let err = cat
        .run("FIND SUBSEQUENCE OF walks.s0 IN walks WITHIN 1 WINDOW 1")
        .unwrap_err();
    assert!(matches!(err, LangError::Parse { .. }));
}

#[test]
fn engine_level_validation_surfaces_typed_errors() {
    let cat = catalog();
    // Window is syntactically fine but the query object is the wrong
    // length for it: typed LengthMismatch from the engine.
    let err = cat
        .run("FIND SUBSEQUENCE OF walks.s0 IN walks WITHIN 1 WINDOW 8")
        .unwrap_err();
    assert!(matches!(
        err,
        LangError::Engine(tsq_core::Error::LengthMismatch {
            expected: 8,
            got: 32
        })
    ));
    // Programmatic (non-parser) construction of a negative threshold is
    // caught by the engine's own typed check.
    let idx = tsq_core::SubseqIndex::build(
        tsq_core::SubseqConfig::new(8),
        RandomWalkGenerator::new(8).relation(4, 32),
    )
    .unwrap();
    let q = tsq_series::TimeSeries::new(vec![0.0; 8]);
    assert!(matches!(
        idx.subseq_range(&q, -1.0),
        Err(tsq_core::Error::NegativeThreshold { .. })
    ));
    assert!(matches!(
        tsq_core::SubseqConfig::new(1).validate(),
        Err(tsq_core::Error::InvalidWindow { window: 1 })
    ));
}

#[test]
fn huge_or_fractional_nearest_counts_rejected() {
    let cat = catalog();
    // Saturation bug: `1e20 as usize` silently became usize::MAX before
    // the parse-time bound; fractional counts silently truncated.
    for src in [
        "FIND 1e20 NEAREST TO walks.s0 IN walks",
        "FIND 2.7 NEAREST TO walks.s0 IN walks",
        "FIND 0 NEAREST TO walks.s0 IN walks",
        "FIND -3 NEAREST TO walks.s0 IN walks",
        "FIND 1e20 NEAREST SUBSEQUENCE OF walks.s0 IN walks WINDOW 8",
    ] {
        assert!(
            matches!(cat.run(src), Err(LangError::Parse { .. })),
            "{src} should be rejected at parse time"
        );
    }
}

#[test]
fn non_finite_inputs_are_typed_errors_not_panics() {
    let cat = catalog();
    // Overflowing literals die at the lexer with a position.
    match cat.run("FIND SIMILAR TO [1e999, 2] IN walks WITHIN 1") {
        Err(LangError::Lex { message, .. }) => assert!(message.contains("overflows")),
        other => panic!("expected lex error, got {other:?}"),
    }
    assert!(matches!(
        cat.run("FIND SIMILAR TO walks.s0 IN walks WITHIN 1e999"),
        Err(LangError::Lex { .. })
    ));
    // Engine-level boundaries (bypassing the parser) reject NaN/∞ with
    // the typed NonFinite error instead of corrupting orderings.
    let idx = tsq_core::SubseqIndex::build(
        tsq_core::SubseqConfig::new(8),
        RandomWalkGenerator::new(8).relation(4, 32),
    )
    .unwrap();
    let q = tsq_series::TimeSeries::new(vec![0.0; 8]);
    assert!(matches!(
        idx.subseq_range(&q, f64::NAN),
        Err(tsq_core::Error::NonFinite { .. })
    ));
    assert!(matches!(
        idx.subseq_range(&q, f64::INFINITY),
        Err(tsq_core::Error::NonFinite { .. })
    ));
    assert!(tsq_series::TimeSeries::try_new(vec![1.0, f64::NAN]).is_err());
}

#[test]
fn whole_sequence_negative_eps_reported_with_position() {
    // Regression shape: before typed validation this produced an empty
    // result set via the engine's generic Unsupported path.
    match parse("FIND SIMILAR TO walks.s0 IN walks WITHIN -5") {
        Err(LangError::Parse { message, .. }) => {
            assert!(
                message.contains("-5"),
                "message should cite the value: {message}"
            )
        }
        other => panic!("expected parse error, got {other:?}"),
    }
}

#[test]
fn a_rejected_subsequence_statement_builds_no_st_index() {
    use tsq_core::{Error, ForceOp, QueryOptions};
    use tsq_lang::{Query, Source};
    let wrong_length = parse("FIND SUBSEQUENCE OF [1, 2, 3] IN walks WITHIN 1 WINDOW 8").unwrap();
    let valid = parse("FIND SUBSEQUENCE OF walks.s0 IN walks WITHIN 1 WINDOW 32").unwrap();
    let scanfull = QueryOptions {
        force: Some(ForceOp::ScanFull),
        ..QueryOptions::default()
    };
    let too_short: fn(&Error) -> bool = |e| {
        let want = Error::LengthMismatch {
            expected: 8,
            got: 3,
        };
        *e == want
    };
    // Each case on a fresh catalog: the statement, its overrides, and the
    // typed error it answers.
    type Case = (&'static str, Query, QueryOptions, fn(&Error) -> bool);
    let cases: [Case; 4] = [
        (
            "(a) a query of the wrong length for its WINDOW",
            wrong_length.clone(),
            QueryOptions::default(),
            too_short,
        ),
        (
            "(b) the same under EXPLAIN ANALYZE",
            Query::Explain {
                analyze: true,
                query: Box::new(wrong_length),
            },
            QueryOptions::default(),
            too_short,
        ),
        (
            // The parser refuses a negative threshold, the AST does not.
            "(c) a hand-built negative eps",
            Query::SubseqSimilar {
                source: Source::Literal(vec![0.0; 8]),
                relation: "walks".into(),
                eps: -1.0,
                window: 8,
                options: QueryOptions::default(),
            },
            QueryOptions::default(),
            |e| matches!(e, Error::NegativeThreshold { .. }),
        ),
        (
            "(d) a join-only force on a subsequence form",
            valid.clone(),
            scanfull,
            |e| matches!(e, Error::Unsupported(_)),
        ),
    ];
    let mut built = Vec::new();
    for (name, query, overrides, is_expected) in &cases {
        let cat = catalog();
        match cat.execute_with(query, overrides) {
            Err(LangError::Engine(e)) if is_expected(&e) => {}
            other => panic!("{name}: unexpected answer {other:?}"),
        }
        if cat.subseq_cache_len() != 0 {
            built.push(*name);
        }
    }
    assert!(
        built.is_empty(),
        "an ST-index was built for a statement that answered an error: {built:?}"
    );
    // The valid statement, unforced, is what builds.
    let cat = catalog();
    cat.execute(&valid).unwrap();
    assert_eq!(cat.subseq_cache_len(), 1);
}
