//! `tsq-benchmark compare <a-dir> <b-dir>`: two directories of saved
//! timed runs, judged per workload and end-to-end metric against the
//! bounds in `BENCHMARK.json`.
//!
//! A pairing is `worse` when b's median is worse than a's by more than
//! the metric's bound, `unresolved` when either side's interquartile
//! range over its median is wider than the bound (the runs cannot tell),
//! and `ok` otherwise. Below them come the latency and throughput
//! metrics a timed run measures but the benchmark does not bound, and
//! the machine probes, each side's median and spread and `b/a`: for a
//! reader, with no verdict.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::json::{self, Value};
use crate::stats::{median, quartiles};
use crate::Res;

struct Bound {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

/// What a timed run saves beside its result: printed, not judged.
const UNBOUNDED: [&str; 11] = [
    "qps",
    "p50_ms",
    "p95_ms",
    "range_p50_ms",
    "knn_p50_ms",
    "subseq_p50_ms",
    "join_p50_ms",
    "append_kpts_s",
    "machine.spin_ms",
    "machine.chase_ns",
    "machine.stream_gib_s",
];

/// Metric name → values, one per run.
type Runs = BTreeMap<String, Vec<f64>>;

fn read_json(path: &Path) -> Res<Value> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_spec(path: &Path) -> Res<Vec<Bound>> {
    let spec = read_json(path)?;
    spec.get("end_to_end")
        .map(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            let text = |key: &str| {
                m.get(key)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("{}: a metric lacks {key:?}", path.display()))
            };
            Ok(Bound {
                name: text("name")?,
                unit: text("unit")?,
                lower_is_better: text("better")? == "lower",
                bound: m
                    .get("bound")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("{}: a metric lacks a bound", path.display()))?,
            })
        })
        .collect()
}

/// Workload → (metrics, machine info) over every timed run saved in `dir`.
fn read_runs(dir: &Path) -> Res<BTreeMap<String, (Runs, Runs)>> {
    let mut out: BTreeMap<String, (Runs, Runs)> = BTreeMap::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    for path in paths {
        let run = read_json(&path)?;
        if run.get("trace").and_then(Value::as_f64) != Some(0.0) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{}: no workload", path.display()))?;
        let slot = out.entry(workload.to_string()).or_default();
        let collect = |into: &mut Runs, metrics: Option<&Value>| {
            if let Some(Value::Obj(map)) = metrics {
                for (name, m) in map {
                    if let Some(v) = m.get("value").and_then(Value::as_f64) {
                        into.entry(name.clone()).or_default().push(v);
                    }
                }
            }
        };
        collect(
            &mut slot.0,
            run.get("result").and_then(|r| r.get("metrics")),
        );
        collect(&mut slot.1, run.get("info"));
    }
    if out.is_empty() {
        return Err(format!("{}: no saved timed runs", dir.display()));
    }
    Ok(out)
}

fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

pub fn main(args: &[String]) -> Res<()> {
    let mut dirs = Vec::new();
    let mut spec = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--spec" {
            spec = PathBuf::from(it.next().ok_or("--spec needs a path")?);
        } else {
            dirs.push(PathBuf::from(arg));
        }
    }
    let [a_dir, b_dir] = dirs.as_slice() else {
        return Err("compare takes two directories of saved runs".to_string());
    };
    let bounds = read_spec(&spec)?;
    let (a, b) = (read_runs(a_dir)?, read_runs(b_dir)?);
    let mut verdicts = BTreeMap::<&str, usize>::new();
    for (workload, (a_runs, a_info)) in &a {
        let Some((b_runs, b_info)) = b.get(workload) else {
            println!("{workload}: only in {}", a_dir.display());
            continue;
        };
        println!("{workload}");
        println!(
            "  {:<15} {:>7} {:>34} {:>34} {:>16}  verdict (bound)",
            "metric", "unit", "a: median [q1, q3] n", "b: median [q1, q3] n", "b/a (base a)"
        );
        for m in &bounds {
            let (Some(av), Some(bv)) = (a_runs.get(&m.name), b_runs.get(&m.name)) else {
                println!("  {:<15} missing on one side", m.name);
                continue;
            };
            let (am, bm) = (median(av), median(bv));
            let side = |v: &[f64]| {
                let (q1, q3) = quartiles(v);
                format!("{:.4} [{:.4}, {:.4}] {}", median(v), q1, q3, v.len())
            };
            let worse_by = if m.lower_is_better {
                bm / am - 1.0
            } else {
                1.0 - bm / am
            };
            let verdict = if spread(av) > m.bound || spread(bv) > m.bound {
                "unresolved"
            } else if worse_by > m.bound {
                "worse"
            } else {
                "ok"
            };
            *verdicts.entry(verdict).or_default() += 1;
            println!(
                "  {:<15} {:>7} {:>34} {:>34} {:>7.4} ({:.4})  {verdict} ({:.2}; spread a {:.3}, b {:.3})",
                m.name,
                m.unit,
                side(av),
                side(bv),
                bm / am,
                am,
                m.bound,
                spread(av),
                spread(bv)
            );
        }
        for name in UNBOUNDED {
            let (Some(av), Some(bv)) = (a_info.get(name), b_info.get(name)) else {
                continue;
            };
            let (am, bm) = (median(av), median(bv));
            if am == 0.0 {
                // A form this workload does not issue.
                continue;
            }
            println!(
                "  {:<23} a {:>10.4} (spread {:.3})  b {:>10.4} (spread {:.3})  b/a {:.4}",
                name,
                am,
                spread(av),
                bm,
                spread(bv),
                bm / am
            );
        }
    }
    let count = |v: &str| verdicts.get(v).copied().unwrap_or(0);
    println!(
        "ok {}, worse {}, unresolved {}",
        count("ok"),
        count("worse"),
        count("unresolved")
    );
    if count("worse") + count("unresolved") > 0 {
        return Err("not every pairing is ok".to_string());
    }
    Ok(())
}
