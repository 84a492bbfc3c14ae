//! Golden-text `EXPLAIN` snapshot tests.
//!
//! Each test pins the full rendered plan for a deterministic catalog, so
//! any change to the planner's cost model, operator choice or rendering
//! shows up as a reviewable diff in this file rather than as a silent
//! behavior change.

use tsq_core::SeriesRelation;
use tsq_lang::Catalog;
use tsq_series::generate::RandomWalkGenerator;

fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    let rel = SeriesRelation::from_series("walks", RandomWalkGenerator::new(51).relation(60, 32))
        .unwrap();
    cat.register(rel).unwrap();
    cat
}

fn explain(cat: &Catalog, query: &str) -> String {
    cat.run(query)
        .unwrap_or_else(|e| panic!("{query}: {e}"))
        .explain
        .expect("EXPLAIN output carries the rendered plan")
}

#[test]
fn golden_selective_range_picks_index() {
    let cat = catalog();
    assert_eq!(
        explain(&cat, "EXPLAIN FIND SIMILAR TO walks.s0 IN walks WITHIN 0.5"),
        "\
Range on \"walks\": eps=0.5, transform=identity
  relation: 60 series x 32 points; index: 6-d R*-tree, height 2, 3 node(s)
  => IndexRange  (cost 3.0: disk 3.0, cpu 0.0; nodes 3.0, candidates 0.0, refines 0.0)
     considered: IndexRange 3.0 | EarlyAbandonScan 60.1 | SeqScan 60.5
"
    );
}

#[test]
fn golden_unselective_range_picks_scan() {
    let cat = catalog();
    assert_eq!(
        explain(&cat, "EXPLAIN FIND SIMILAR TO walks.s0 IN walks WITHIN 20"),
        "\
Range on \"walks\": eps=20, transform=identity
  relation: 60 series x 32 points; index: 6-d R*-tree, height 2, 3 node(s)
  => EarlyAbandonScan  (cost 60.1: disk 60.0, cpu 0.1; nodes 0.0, candidates 60.0, refines 60.0)
     considered: IndexRange 63.5 | EarlyAbandonScan 60.1 | SeqScan 60.5
"
    );
}

#[test]
fn golden_knn_with_transform() {
    let cat = catalog();
    assert_eq!(
        explain(
            &cat,
            "EXPLAIN FIND 4 NEAREST TO walks.s3 IN walks APPLY mavg(4)"
        ),
        "\
Knn on \"walks\": k=4, transform=mavg(4)
  relation: 60 series x 32 points; index: 6-d R*-tree, height 2, 3 node(s)
  => IndexKnn  (cost 11.2: disk 11.0, cpu 0.2; nodes 3.0, candidates 8.0, refines 8.0)
     considered: IndexKnn 11.2 | SeqScan 60.9
"
    );
}

#[test]
fn golden_join_auto_and_forced() {
    let cat = catalog();
    // Un-hinted: the planner picks the early-abandoning scan join here
    // (60 records beat ~390 candidate fetches).
    assert_eq!(
        explain(&cat, "EXPLAIN JOIN walks WITHIN 1.5 APPLY mavg(4)"),
        "\
Join on \"walks\": eps=1.5, transform=mavg(4)
  relation: 60 series x 32 points; index: 6-d R*-tree, height 2, 3 node(s)
  => JoinScan  (cost 66.9: disk 60.0, cpu 6.9; nodes 0.0, candidates 1770.0, refines 1770.0)
     considered: JoinIndex 575.6 | JoinScan 66.9 | JoinScan(full) 87.7
"
    );
    // A forced method is an override hint: it runs even though the
    // estimate says it is costlier, and the plan is marked [forced].
    assert_eq!(
        explain(&cat, "EXPLAIN JOIN walks WITHIN 1.5 APPLY mavg(4) WITH (force = index)"),
        "\
Join on \"walks\": eps=1.5, transform=mavg(4), using INDEX
  relation: 60 series x 32 points; index: 6-d R*-tree, height 2, 3 node(s)
  => JoinIndex [forced]  (cost 575.6: disk 567.4, cpu 8.2; nodes 180.0, candidates 387.4, refines 387.4)
     considered: JoinIndex 575.6 | JoinScan 66.9 | JoinScan(full) 87.7
"
    );
}

#[test]
fn golden_subseq_cold_then_cached() {
    let cat = catalog();
    // Cold: no cached ST-index — the plan says so and estimates coarsely.
    assert_eq!(
        explain(
            &cat,
            "EXPLAIN FIND SUBSEQUENCE OF walks.s2 IN walks WITHIN 2 WINDOW 32"
        ),
        "\
SubseqRange on \"walks\": eps=2, window=32
  relation: 60 series x 32 points; index: 6-d R*-tree, height 2, 3 node(s)
  => SubseqIndexProbe [cold: builds ST-index]  (cost 4.5: disk 4.0, cpu 0.5; nodes 1.0, candidates 3.0, refines 3.0)
     considered: SubseqIndexProbe 4.5
"
    );
    // EXPLAIN never executes: the cache is still cold.
    assert_eq!(cat.subseq_window("walks"), None);
    // Run the query (builds + caches), then the plan reflects the real
    // trail tree.
    cat.run("FIND SUBSEQUENCE OF walks.s2 IN walks WITHIN 2 WINDOW 32")
        .unwrap();
    assert_eq!(cat.subseq_window("walks"), Some(32));
    assert_eq!(
        explain(
            &cat,
            "EXPLAIN FIND SUBSEQUENCE OF walks.s2 IN walks WITHIN 2 WINDOW 32"
        ),
        "\
SubseqRange on \"walks\": eps=2, window=32
  relation: 60 series x 32 points; index: 6-d R*-tree, height 2, 3 node(s)
  => SubseqIndexProbe  (cost 1.9: disk 1.9, cpu 0.0; nodes 1.9, candidates 0.0, refines 0.0)
     considered: SubseqIndexProbe 1.9
"
    );
}

#[test]
fn a_longer_statement_plans_a_prefix_probe_and_a_shorter_one_cold() {
    let cat = catalog();
    let statement = |w: usize| {
        let values: Vec<String> = (0..w).map(|i| format!("{}", i % 5)).collect();
        format!(
            "FIND SUBSEQUENCE OF [{}] IN walks WITHIN 2 WINDOW {w}",
            values.join(", ")
        )
    };
    cat.run(&statement(16)).unwrap();
    let probe = |w: usize| {
        let text = explain(&cat, &format!("EXPLAIN {}", statement(w)));
        let chosen = text.lines().find(|l| l.starts_with("  => ")).unwrap();
        chosen.split("  (cost").next().unwrap().to_string()
    };
    assert_eq!(probe(24), "  => SubseqIndexProbe [prefix of window 16]");
    assert_eq!(probe(16), "  => SubseqIndexProbe");
    assert_eq!(probe(8), "  => SubseqIndexProbe [cold: builds ST-index]");
    // Planning builds and replaces nothing.
    assert_eq!(cat.subseq_window("walks"), Some(16));
}

#[test]
fn golden_explain_analyze_appends_actuals() {
    let cat = catalog();
    assert_eq!(
        explain(
            &cat,
            "EXPLAIN ANALYZE FIND SIMILAR TO walks.s0 IN walks WITHIN 0.5"
        ),
        "\
Range on \"walks\": eps=0.5, transform=identity
  relation: 60 series x 32 points; index: 6-d R*-tree, height 2, 3 node(s)
  => IndexRange  (cost 3.0: disk 3.0, cpu 0.0; nodes 3.0, candidates 0.0, refines 0.0)
     considered: IndexRange 3.0 | EarlyAbandonScan 60.1 | SeqScan 60.5
     actual: rows=1, nodes=3, candidates=1, refined=1, false_hits=0, disk=4
"
    );
}

#[test]
fn golden_windowed_range() {
    let cat = catalog();
    assert_eq!(
        explain(
            &cat,
            "EXPLAIN ANALYZE FIND SIMILAR TO walks.s0 IN walks WITHIN 2 WHERE MEAN BETWEEN -1 AND 1"
        ),
        "\
Range on \"walks\": eps=2, transform=identity, where mean in [-1, 1]
  relation: 60 series x 32 points; index: 6-d R*-tree, height 2, 3 node(s)
  => IndexRange  (cost 3.5: disk 3.5, cpu 0.0; nodes 2.0, candidates 1.5, refines 1.5)
     considered: IndexRange 3.5 | EarlyAbandonScan 60.1 | SeqScan 60.5
     actual: rows=0, nodes=1, candidates=0, refined=0, false_hits=0, disk=1
"
    );
}

#[test]
fn explain_errors_are_typed() {
    let cat = catalog();
    // Planning validates like execution: a wrong-length subsequence query
    // fails EXPLAIN with the same typed error.
    assert!(cat
        .run("EXPLAIN FIND SUBSEQUENCE OF walks.s2 IN walks WITHIN 2 WINDOW 16")
        .is_err());
    assert!(cat
        .run("EXPLAIN FIND SIMILAR TO walks.s0 IN nope WITHIN 1")
        .is_err());
}
