//! `tsq` — an interactive shell for similarity queries over time-series
//! relations.
//!
//! ```text
//! $ cargo run --release -p tsq-lang --bin tsq
//! tsq> .gen walks rw 1000 128 42
//! tsq> FIND 5 NEAREST TO walks.s17 IN walks APPLY mavg(10)
//! tsq> .load stocks /tmp/prices.csv
//! tsq> JOIN stocks WITHIN 1.5 APPLY mavg(20) WITH (force = index)
//! tsq> .quit
//! ```
//!
//! Meta-commands start with a dot; everything else is parsed as a query
//! (see `tsq-lang` docs for the grammar).

use std::io::{self, BufRead, Write};
use std::path::Path;

use tsq_core::SeriesRelation;
use tsq_lang::{Catalog, SharedCatalog};
use tsq_series::generate::{RandomWalkGenerator, StockGenerator};
use tsq_service::ServiceConfig;

const HELP: &str = "\
usage: tsq [--snapshot <path>] [--serve <addr>]
  --snapshot <path>   start with a catalog restored from a snapshot
  --serve <addr>      serve the catalog over TCP (binary wire protocol +
                      HTTP/JSON on one port) instead of reading stdin;
                      stop it with `tsq-client <addr> shutdown` or
                      `curl -X POST http://<addr>/shutdown`
meta-commands:
  .gen <name> rw <count> <len> [seed]       generate random walks
  .gen <name> stocks <count> <len> [seed]   generate synthetic stocks
  .load <name> <path>                       load a CSV relation (one series per line)
  .save <path>                              snapshot the whole catalog (relations + indexes)
  .open <path>                              restore a snapshot into this catalog
  .open <path> --paged <MiB>                restore with R*-trees behind a paged buffer
                                            pool (<MiB> split evenly across relations);
                                            EXPLAIN ANALYZE then reports measured I/O
  .save <name> <path>                       write one relation back to CSV
  .batch <path> [threads]                   run a file of queries (one per line) on a worker pool
                                            (thread counts are clamped to the machine)
  .ingest <name> <path>                     append a CSV of rows `label, v1, v2, ...` to a
                                            relation as one atomic APPEND statement
  .serve <addr>                             serve this catalog over TCP; Enter stops it
  .rel                                      list registered relations
  .help                                     this text
  .quit                                     exit
queries:
  FIND SIMILAR TO <rel>.<label> IN <rel> WITHIN <eps> [APPLY t1, t2, ...] [WHERE ...]
  FIND <k> NEAREST TO <rel>.<label>|[v1, v2, ...] IN <rel> [APPLY ...]
  FIND SUBSEQUENCE OF [v1, ..., vw] IN <rel> WITHIN <eps> WINDOW <w>
  FIND <k> NEAREST SUBSEQUENCE OF [v1, ..., vw] IN <rel> WINDOW <w>
  JOIN <rel> WITHIN <eps> [APPLY ...]
  every query form accepts a trailing WITH (opt = val, ...) options clause:
    WITH (force = m)            pin the access path; m is scan, scanfull or index
                                (scanfull: joins only)
    WITH (threads = n)          cap scatter/batch parallelism
    WITH (shards = n)           cap how many shards are probed in parallel
sharding:
  SHARD <rel> INTO <n> BY HASH|RANGE    split a relation into n shards with one
  R*-tree each; queries scatter to every shard and merge to the same rows,
  order, and counter totals at every n (.rel shows the layout; a relation
  starts as one shard, and INTO 1 is that layout again: plain plan names,
  no per-shard lines)
ingest:
  APPEND <rel> <label> VALUES (v1, v2, ...)           append points to one series
  APPEND <rel> CSV (label, v1, ...) (label, v1, ...)  batched, atomic multi-series append
  appends maintain every index incrementally (no rebuild); an unknown label starts
  a new series; paged relations reject APPEND with a typed error
planning:
  every query runs through the cost-based planner; WITH (force = ...) overrides it
  EXPLAIN <query>            show the chosen plan and cost estimates (no execution)
  EXPLAIN ANALYZE <query>    run the plan and append the actual counters
  e.g.  EXPLAIN FIND SIMILAR TO walks.s0 IN walks WITHIN 2
        EXPLAIN ANALYZE JOIN walks WITHIN 1.5 APPLY mavg(4)
transformations:
  identity | mavg(w) | wmavg(w1, w2, ...) | reverse | shift(c) | scale(c) | warp(m)";

fn main() {
    let mut catalog = Catalog::new();
    let mut names: Vec<String> = Vec::new();
    let mut snapshot: Option<String> = None;
    let mut serve_addr: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" | "help" => {
                println!("{HELP}");
                return;
            }
            "--snapshot" => match args.next() {
                Some(p) => snapshot = Some(p),
                None => {
                    eprintln!("--snapshot requires a path");
                    std::process::exit(2);
                }
            },
            "--serve" => match args.next() {
                Some(a) => serve_addr = Some(a),
                None => {
                    eprintln!("--serve requires an address (e.g. 127.0.0.1:7878)");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("unknown argument {other:?}; the shell reads queries from stdin");
                eprintln!("{HELP}");
                std::process::exit(2);
            }
        }
    }
    if let Some(path) = &snapshot {
        match Catalog::load(Path::new(path)) {
            Ok(restored) => {
                catalog = restored;
                names = catalog.relation_names();
                println!(
                    "restored {} relation(s) from {path}: {}",
                    names.len(),
                    names.join(", ")
                );
            }
            Err(e) => {
                eprintln!("cannot restore snapshot {path}: {e}");
                std::process::exit(2);
            }
        }
    }
    if let Some(addr) = serve_addr {
        // Headless service mode: no shell, runs until a remote shutdown
        // (binary SHUTDOWN request or POST /shutdown) drains the server.
        let shared = SharedCatalog::new(catalog);
        match tsq_lang::serve(&addr, shared, ServiceConfig::default()) {
            Ok(handle) => {
                println!("serving on {} (binary wire protocol + http)", handle.addr());
                io::stdout().flush().ok();
                let snap = handle.wait();
                println!(
                    "server drained: {} ok, {} error(s), {} timeout(s), \
                     {} tcp request(s), {} http request(s)",
                    snap.queries_ok,
                    snap.queries_err,
                    snap.timeouts,
                    snap.tcp_requests,
                    snap.http_requests
                );
            }
            Err(e) => {
                eprintln!("cannot serve on {addr}: {e}");
                std::process::exit(2);
            }
        }
        return;
    }
    let stdin = io::stdin();
    let interactive = true;
    if interactive {
        println!("tsq — similarity-based queries for time series data (SIGMOD '97)");
        println!("type .help for help, .quit to exit");
    }
    let mut lines = stdin.lock().lines();
    loop {
        print!("tsq> ");
        io::stdout().flush().ok();
        let line = match lines.next() {
            Some(Ok(l)) => l,
            _ => break,
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('.') {
            if !meta(rest, &mut catalog, &mut names, &mut lines) {
                break;
            }
            continue;
        }
        match catalog.run_mut(line) {
            Ok(out) => {
                if let Some(explain) = &out.explain {
                    for l in explain.lines() {
                        println!("  {l}");
                    }
                    continue;
                }
                for row in out.rows.iter().take(20) {
                    match (&row.b, row.offset) {
                        (Some(b), _) => {
                            println!("  {}  ~  {}   D = {:.4}", row.a, b, row.distance)
                        }
                        (None, Some(off)) => {
                            println!("  {} @ {}   D = {:.4}", row.a, off, row.distance)
                        }
                        (None, None) => println!("  {}   D = {:.4}", row.a, row.distance),
                    }
                }
                if out.rows.len() > 20 {
                    println!("  ... {} more row(s)", out.rows.len() - 20);
                }
                println!(
                    "  ({} row(s), plan {}, {} candidate(s), {} refined, \
                     {} simulated disk accesses)",
                    out.rows.len(),
                    out.plan,
                    out.stats.candidates,
                    out.stats.refined,
                    out.stats.disk_accesses
                );
                if !out.shard_stats.is_empty() {
                    let per_shard: Vec<String> = out
                        .shard_stats
                        .iter()
                        .map(|s| s.candidates.to_string())
                        .collect();
                    println!(
                        "  (scattered over {} shard(s); candidates per shard: {})",
                        out.shard_stats.len(),
                        per_shard.join("/")
                    );
                }
            }
            Err(e) => println!("  error: {e}"),
        }
    }
}

/// Handles a meta-command; returns false to exit the shell. `lines` is
/// the shell's stdin, borrowed so `.serve` can block on "press Enter to
/// stop" without re-locking stdin.
fn meta(
    cmd: &str,
    catalog: &mut Catalog,
    names: &mut Vec<String>,
    lines: &mut impl Iterator<Item = io::Result<String>>,
) -> bool {
    let parts: Vec<&str> = cmd.split_whitespace().collect();
    match parts.as_slice() {
        ["quit"] | ["exit"] | ["q"] => return false,
        ["help"] | ["h"] => println!("{HELP}"),
        ["rel"] => {
            if names.is_empty() {
                println!("  (no relations registered)");
            }
            for n in names.iter() {
                if let Some(rel) = catalog.relation(n) {
                    let layout = match catalog.shard_layout(n) {
                        Some((by, count, sizes)) => {
                            let by = match by {
                                tsq_core::shard::ShardBy::Hash => "hash",
                                tsq_core::shard::ShardBy::Range => "range",
                            };
                            let sizes: Vec<String> =
                                sizes.iter().map(ToString::to_string).collect();
                            format!(", {count} shard(s) by {by} [{}]", sizes.join("/"))
                        }
                        None => String::new(),
                    };
                    match rel.length_range() {
                        Some((lo, hi)) if lo != hi => println!(
                            "  {n}: {} series of lengths {lo}..{hi} (ragged mid-ingest){layout}",
                            rel.len()
                        ),
                        Some((len, _)) => {
                            println!("  {n}: {} series of length {len}{layout}", rel.len())
                        }
                        None => println!("  {n}: 0 series{layout}"),
                    }
                }
            }
        }
        ["gen", name, kind, count, len, rest @ ..] => {
            let seed: u64 = rest.first().and_then(|s| s.parse().ok()).unwrap_or(42);
            let (count, len) = match (count.parse::<usize>(), len.parse::<usize>()) {
                (Ok(c), Ok(l)) if c > 0 && l > 2 => (c, l),
                _ => {
                    println!("  usage: .gen <name> rw|stocks <count> <len> [seed]");
                    return true;
                }
            };
            let series = match *kind {
                "rw" | "walks" => RandomWalkGenerator::new(seed).relation(count, len),
                "stocks" => StockGenerator::new(seed).relation(count, len),
                other => {
                    println!("  unknown generator {other:?} (use rw or stocks)");
                    return true;
                }
            };
            register(catalog, names, name, series);
        }
        ["load", name, path] => match tsq_series::io::load_csv(Path::new(path)) {
            Ok(series) => register(catalog, names, name, series),
            Err(e) => println!("  error: {e}"),
        },
        ["batch", path, rest @ ..] => {
            let threads: usize = match rest.first() {
                None => tsq_core::executor::default_threads(),
                Some(arg) => match arg.parse() {
                    Ok(n) if n >= 1 => n,
                    _ => {
                        println!("  thread count must be a positive integer, got {arg:?}");
                        return true;
                    }
                },
            };
            match std::fs::read_to_string(path) {
                Ok(text) => {
                    let queries: Vec<String> = text
                        .lines()
                        .map(str::trim)
                        .filter(|l| !l.is_empty() && !l.starts_with('#'))
                        .map(str::to_string)
                        .collect();
                    if queries.is_empty() {
                        println!("  no queries in {path}");
                        return true;
                    }
                    let (results, summary) = catalog.run_batch(queries.clone(), threads);
                    if summary.threads != threads {
                        println!(
                            "  note: clamped {threads} thread(s) to {} \
                             (machine bound; see executor::clamp_threads)",
                            summary.threads
                        );
                    }
                    for (src, result) in queries.iter().zip(&results) {
                        match result {
                            Ok(out) => println!("  ok   {:>6} row(s)  {src}", out.rows.len()),
                            Err(e) => println!("  FAIL {e}  {src}"),
                        }
                    }
                    println!(
                        "  batch: {} quer{} on {} thread(s), {} error(s), {} row(s), \
                         {} candidate(s), {} refined, {} disk accesses, \
                         {:.1} ms ({:.0} q/s)",
                        summary.queries,
                        if summary.queries == 1 { "y" } else { "ies" },
                        summary.threads,
                        summary.errors,
                        summary.rows,
                        summary.candidates,
                        summary.refined,
                        summary.disk_accesses,
                        summary.elapsed.as_secs_f64() * 1e3,
                        summary.queries_per_second()
                    );
                }
                Err(e) => println!("  error: {e}"),
            }
        }
        ["ingest", name, path] => match std::fs::read_to_string(path) {
            Ok(text) => match parse_ingest_rows(&text) {
                Ok(rows) if rows.is_empty() => println!("  no rows in {path}"),
                // One atomic APPEND statement: on any error (unknown
                // relation, paged storage, non-finite values) nothing is
                // applied and the shell keeps running.
                Ok(rows) => match catalog.append(name, &rows) {
                    Ok(out) => {
                        let points: f64 = out.rows.iter().map(|r| r.distance).sum();
                        println!(
                            "  appended {points} point(s) across {} series to {name}",
                            out.rows.len()
                        );
                    }
                    Err(e) => println!("  error: {e}"),
                },
                Err(e) => println!("  error: {e}"),
            },
            Err(e) => println!("  error: {e}"),
        },
        ["save", path] => match catalog.save(Path::new(path)) {
            Ok(bytes) => println!(
                "  snapshot: {} relation(s), {bytes} byte(s) -> {path}",
                catalog.relation_names().len()
            ),
            Err(e) => println!("  error: {e}"),
        },
        ["open", path] => match catalog.open(Path::new(path)) {
            Ok(restored) => {
                for n in &restored {
                    if !names.iter().any(|existing| existing == n) {
                        names.push(n.clone());
                    }
                }
                println!(
                    "  restored {} relation(s) from {path}: {}",
                    restored.len(),
                    restored.join(", ")
                );
            }
            Err(e) => println!("  error: {e}"),
        },
        ["open", path, "--paged", mib] => match mib.parse::<usize>() {
            Ok(mib) if mib > 0 => match catalog.open_paged(Path::new(path), mib) {
                Ok(restored) => {
                    for n in &restored {
                        if !names.iter().any(|existing| existing == n) {
                            names.push(n.clone());
                        }
                    }
                    println!(
                        "  restored {} paged relation(s) from {path} \
                         ({mib} MiB pool budget): {}",
                        restored.len(),
                        restored.join(", ")
                    );
                }
                Err(e) => println!("  error: {e}"),
            },
            _ => println!("  usage: .open <path> --paged <MiB>  (MiB must be a positive integer)"),
        },
        ["serve", addr] => {
            // Move the catalog behind a shared handle for the server's
            // worker threads; it moves back when the server has drained.
            let shared = SharedCatalog::new(std::mem::take(catalog));
            match tsq_lang::serve(addr, shared.clone(), ServiceConfig::default()) {
                Ok(handle) => {
                    println!(
                        "  serving on {} (binary wire protocol + http); \
                         press Enter to stop",
                        handle.addr()
                    );
                    io::stdout().flush().ok();
                    let _ = lines.next();
                    let snap = handle.shutdown();
                    println!(
                        "  server drained: {} ok, {} error(s), {} timeout(s), \
                         {} tcp request(s), {} http request(s)",
                        snap.queries_ok,
                        snap.queries_err,
                        snap.timeouts,
                        snap.tcp_requests,
                        snap.http_requests
                    );
                }
                Err(e) => println!("  error: cannot serve on {addr}: {e}"),
            }
            match shared.into_inner() {
                Ok(inner) => *catalog = inner,
                // Unreachable once the server has joined all workers.
                Err(_) => {
                    *catalog = Catalog::new();
                    println!("  warning: catalog handles leaked; starting fresh");
                }
            }
        }
        ["save", name, path] => match catalog.relation(name) {
            Some(rel) => match tsq_series::io::save_csv(Path::new(path), rel.series()) {
                Ok(()) => println!("  wrote {} series to {path}", rel.len()),
                Err(e) => println!("  error: {e}"),
            },
            None => println!("  unknown relation {name:?}"),
        },
        _ => println!("  unknown meta-command; try .help"),
    }
    true
}

/// Parses `.ingest` CSV text (`label, v1, v2, ...` per line; blank lines
/// and `#` comments skipped) into APPEND rows, with line-numbered errors.
fn parse_ingest_rows(text: &str) -> Result<Vec<tsq_lang::AppendRow>, String> {
    let mut rows = Vec::new();
    for (at, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split(',').map(str::trim);
        let label = fields.next().unwrap_or("").to_string();
        if label.is_empty() {
            return Err(format!("line {}: missing series label", at + 1));
        }
        let mut values = Vec::new();
        for field in fields {
            match field.parse::<f64>() {
                Ok(v) => values.push(v),
                Err(_) => return Err(format!("line {}: bad number {field:?}", at + 1)),
            }
        }
        if values.is_empty() {
            return Err(format!("line {}: no values for {label:?}", at + 1));
        }
        rows.push(tsq_lang::AppendRow { label, values });
    }
    Ok(rows)
}

fn register(
    catalog: &mut Catalog,
    names: &mut Vec<String>,
    name: &str,
    series: Vec<tsq_series::TimeSeries>,
) {
    let count = series.len();
    match SeriesRelation::from_series(name, series) {
        Ok(rel) => match catalog.register(rel) {
            Ok(()) => {
                if !names.iter().any(|n| n == name) {
                    names.push(name.to_string());
                }
                println!(
                    "  registered {name} ({count} series); labels are s0..s{}",
                    count - 1
                );
            }
            Err(e) => println!("  error: {e}"),
        },
        Err(e) => println!("  error: {e}"),
    }
}
