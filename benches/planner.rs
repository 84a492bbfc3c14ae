//! Plan-choice ablation: the cost-based planner vs. forced SCAN vs.
//! forced INDEX across selectivities — the Figure-12 experiment turned
//! into a regression gate.
//!
//! For each workload (relation shape × threshold), the same range query
//! runs three times: planner default (no `force`), forced
//! early-abandoning scan, and forced index filter-and-refine. We record
//! the *actual* simulated disk accesses of each run (scan: one access per
//! record; index: nodes visited + candidate fetches — the accounting the
//! paper's tables use) and **assert the planner is never worse than the
//! better forced choice**: a cost model that mispredicts the crossover
//! fails this bench, not production.
//!
//! Emits `BENCH_planner.json` (per-workload disk accesses and the chosen
//! plan) for CI trend tracking.
//!
//! Run with: `cargo bench --bench planner`

use criterion::{criterion_group, criterion_main, Criterion};
use tsq_core::{
    execute_plan, ForceOp, LinearTransform, LogicalPlan, Planner, QueryWindow, RelationStats,
    SimilarityIndex,
};
use tsq_series::generate::{RandomWalkGenerator, StockGenerator};

struct Workload {
    name: &'static str,
    index: SimilarityIndex,
    stats: RelationStats,
    /// Thresholds sweeping selectivity from "self only" to "everything".
    eps_grid: &'static [f64],
}

struct Measurement {
    workload: &'static str,
    eps: f64,
    scan_disk: u64,
    index_disk: u64,
    auto_disk: u64,
    plan: &'static str,
    rows: usize,
}

fn workloads() -> Vec<Workload> {
    let walks = RandomWalkGenerator::new(20_270_741).relation(400, 64);
    let stocks = StockGenerator::new(20_270_742).relation(250, 128);
    let small = RandomWalkGenerator::new(20_270_743).relation(48, 32);
    vec![
        Workload {
            name: "walks_400x64",
            index: SimilarityIndex::build(Default::default(), walks).expect("build walks"),
            stats: RelationStats::default(),
            eps_grid: &[0.05, 0.2, 0.5, 1.0, 2.0, 8.0, 32.0],
        },
        Workload {
            name: "stocks_250x128",
            index: SimilarityIndex::build(Default::default(), stocks).expect("build stocks"),
            stats: RelationStats::default(),
            eps_grid: &[0.05, 0.2, 0.5, 1.0, 2.0, 8.0, 32.0],
        },
        Workload {
            name: "small_48x32",
            index: SimilarityIndex::build(Default::default(), small).expect("build small"),
            stats: RelationStats::default(),
            eps_grid: &[0.1, 1.0, 10.0],
        },
    ]
    .into_iter()
    .map(|mut w| {
        w.stats = RelationStats::from_index(&w.index);
        w
    })
    .collect()
}

fn run_pref(
    w: &Workload,
    logical: &LogicalPlan,
    force: Option<ForceOp>,
) -> (u64, &'static str, usize) {
    let choice = Planner::new(&w.index, &w.stats)
        .plan(logical, force, None)
        .expect("plan");
    let (rows, stats) = execute_plan(logical, &choice.plan, &w.index, None).expect("execute");
    (stats.disk_accesses, choice.plan.op.name(), rows.len())
}

fn measure(w: &Workload) -> Vec<Measurement> {
    let len = w.index.series_len();
    let t = LinearTransform::identity(len);
    w.eps_grid
        .iter()
        .map(|&eps| {
            let logical = LogicalPlan::Range {
                relation: w.name.to_string(),
                query: w.index.series(7).expect("probe series").clone(),
                eps,
                transform: t.clone(),
                window: QueryWindow::default(),
            };
            let (scan_disk, _, scan_rows) = run_pref(w, &logical, Some(ForceOp::Scan));
            let (index_disk, _, index_rows) = run_pref(w, &logical, Some(ForceOp::Index));
            let (auto_disk, plan, rows) = run_pref(w, &logical, None);
            assert_eq!(rows, scan_rows, "{} eps={eps}: answers diverge", w.name);
            assert_eq!(rows, index_rows, "{} eps={eps}: answers diverge", w.name);
            Measurement {
                workload: w.name,
                eps,
                scan_disk,
                index_disk,
                auto_disk,
                plan,
                rows,
            }
        })
        .collect()
}

fn write_json(path: &str, measurements: &[Measurement]) {
    let entries: Vec<String> = measurements
        .iter()
        .map(|m| {
            format!(
                "    {{\"workload\": \"{}\", \"eps\": {}, \"scan_disk\": {}, \
                 \"index_disk\": {}, \"auto_disk\": {}, \"plan\": \"{}\", \"rows\": {}}}",
                m.workload, m.eps, m.scan_disk, m.index_disk, m.auto_disk, m.plan, m.rows
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"planner\",\n  \"measurements\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("cannot write {path}: {e}");
    } else {
        println!("  wrote {path}");
    }
}

fn bench_planner(c: &mut Criterion) {
    let workloads = workloads();
    let mut all = Vec::new();
    println!("planner ablation (actual simulated disk accesses per plan):");
    println!("  workload        eps      scan     index      auto  chosen");
    for w in &workloads {
        for m in measure(w) {
            println!(
                "  {:<14} {:>5}  {:>8}  {:>8}  {:>8}  {}",
                m.workload, m.eps, m.scan_disk, m.index_disk, m.auto_disk, m.plan
            );
            all.push(m);
        }
    }
    write_json("BENCH_planner.json", &all);

    // The gate: for every measured workload the planner-chosen plan's
    // simulated disk accesses are at most the better forced choice's.
    // Disk accounting is deterministic (no wall-clock), so this assert is
    // noise-free.
    for m in &all {
        let best = m.scan_disk.min(m.index_disk);
        assert!(
            m.auto_disk <= best,
            "{} eps={}: planner chose {} with {} disk accesses, the better \
             forced choice needs {best} (scan {}, index {})",
            m.workload,
            m.eps,
            m.plan,
            m.auto_disk,
            m.scan_disk,
            m.index_disk
        );
    }
    println!("  planner never worse than the better forced choice: OK");

    // A light timing sample so `cargo bench` reports something useful.
    let w = &workloads[0];
    let logical = LogicalPlan::Range {
        relation: w.name.to_string(),
        query: w.index.series(7).expect("probe").clone(),
        eps: 0.5,
        transform: LinearTransform::identity(w.index.series_len()),
        window: QueryWindow::default(),
    };
    c.bench_function("planner_plan_and_execute", |b| {
        b.iter(|| {
            let choice = Planner::new(&w.index, &w.stats)
                .plan(&logical, None, None)
                .expect("plan");
            std::hint::black_box(
                execute_plan(&logical, &choice.plan, &w.index, None).expect("execute"),
            )
        })
    });
}

criterion_group!(benches, bench_planner);
criterion_main!(benches);
