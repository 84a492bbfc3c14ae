//! `tsq-benchmark` — the repo benchmark.
//!
//! Starts `tsq_lang::serve` on `127.0.0.1:0` inside this process and
//! drives it over one closed-loop `tsq_service::Client` connection.
//! `--trace 0` times a fixed number of passes and prints the end-to-end
//! metrics; `--trace 1` runs fewer passes, replays every request through
//! each layer's public function as child spans, times the lower layers
//! on fixed inputs and prints the per-layer metrics. `compare` judges
//! two directories of saved runs against `BENCHMARK.json`.
//!
//! See `bench/README.md` for the workloads and every metric.

mod check;
mod compare;
mod data;
mod json;
mod machine;
mod probes;
mod run;
mod setup;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use run::{Args, Outcome};

/// Errors are reported once, at the top, as text.
pub type Res<T> = Result<T, String>;

const USAGE: &str = "\
usage: tsq-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
                     [--out <dir>] [--save <dir>]
       tsq-benchmark compare <a-dir> <b-dir> [--spec <BENCHMARK.json>]

workloads: probe-mem, probe-paged, heavy-shard4, ingest-mix
  --out   where traces (trace-<workload>.jsonl) and scratch files go
          (default: out, under the current directory)
  --save  also write this run's result there, for `compare`";

fn parse_run_args(args: &[String]) -> Res<Args> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = PathBuf::from("out");
    let mut save_dir = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::find(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            "--out" => out_dir = PathBuf::from(value),
            "--save" => save_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?,
        seed: seed.ok_or_else(|| format!("--seed is required\n{USAGE}"))?,
        seconds: seconds.ok_or_else(|| format!("--seconds is required\n{USAGE}"))?,
        trace: trace.ok_or_else(|| format!("--trace is required\n{USAGE}"))?,
        out_dir,
        save_dir,
    })
}

fn metrics_json(metrics: &[run::Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json::escape(&m.name),
                // Non-finite values have no JSON spelling; a metric that
                // could not be computed reads 0.
                if m.value.is_finite() { m.value } else { 0.0 },
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn run(args: &Args) -> Res<Outcome> {
    let outcome = if args.trace {
        trace::traced(args)?
    } else {
        run::timed(args)?
    };
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics_json(&outcome.metrics)
    );
    if let Some(dir) = &args.save_dir {
        let saved = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"result\": {result}, \"info\": {}}}\n",
            args.workload.name,
            args.seed,
            args.seconds,
            u8::from(args.trace),
            metrics_json(&outcome.info)
        );
        let name = format!(
            "{}-seed{}-trace{}.json",
            args.workload.name,
            args.seed,
            u8::from(args.trace)
        );
        run::write_into(dir, &name, saved.as_bytes())?;
    }
    // For people; the driver reads only the last line of standard output.
    for m in outcome.metrics.iter().chain(&outcome.info) {
        eprintln!("{:<40} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!("{result}");
    Ok(outcome)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let status = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("--help" | "-h") | None => {
            println!("{USAGE}");
            Ok(())
        }
        Some(_) => parse_run_args(&args).and_then(|a| run(&a)).map(|_| ()),
    };
    match status {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("tsq-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
