//! `tsq-client` — a small CLI for the binary wire protocol.
//!
//! ```text
//! tsq-client <addr> ping
//! tsq-client <addr> query <text...>
//! tsq-client <addr> batch <file> [threads]
//! tsq-client <addr> append <relation> <label> <v1> [v2 ...]
//! tsq-client <addr> append-file <relation> <file>
//! tsq-client <addr> stats
//! tsq-client <addr> shutdown
//! ```
//!
//! Exit status 0 on success, 1 on any client or server error (the error
//! is printed to stderr). Query answers print one row per line plus a
//! summary; `stats` prints the server's metrics JSON verbatim.
//! `append-file` reads `label, v1, v2, ...` lines (blank lines and `#`
//! comments skipped) and ships them as ONE atomic APPEND.

use std::process::ExitCode;
use std::time::Duration;

use tsq_core::series::io::{content_lines, parse_rows};
use tsq_service::{Client, IngestRow, QueryReply};

const USAGE: &str = "usage: tsq-client <addr> <ping|query <text...>|batch <file> [threads]|\
     append <relation> <label> <v1> [v2 ...]|append-file <relation> <file>|stats|shutdown>";

fn print_reply(reply: &QueryReply) {
    for row in &reply.rows {
        match (&row.b, row.offset) {
            (Some(b), _) => println!("{}\t{}\t{:.6}", row.a, b, row.distance),
            (None, Some(off)) => println!("{}\t@{}\t{:.6}", row.a, off, row.distance),
            (None, None) => println!("{}\t{:.6}", row.a, row.distance),
        }
    }
    println!(
        "# {} row(s)  plan={}  candidates={} refined={} false_hits={} nodes={} disk={}",
        reply.rows.len(),
        reply.plan,
        reply.stats.candidates,
        reply.stats.refined,
        reply.stats.false_hits,
        reply.stats.nodes_visited,
        reply.stats.disk_accesses
    );
    for (shard, stats) in reply.shard_stats.iter().enumerate() {
        println!(
            "#   shard {shard}: candidates={} refined={} false_hits={} nodes={} disk={}",
            stats.candidates,
            stats.refined,
            stats.false_hits,
            stats.nodes_visited,
            stats.disk_accesses
        );
    }
}

fn print_append(reply: &QueryReply) {
    let mut points = 0.0;
    for row in &reply.rows {
        let len = row.offset.unwrap_or(0);
        println!("{}\tlen={}\t+{}", row.a, len, row.distance);
        points += row.distance;
    }
    println!(
        "# appended {points} point(s) across {} series",
        reply.rows.len()
    );
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (addr, cmd) = match args.split_first() {
        Some((addr, rest)) if !rest.is_empty() => (addr.clone(), rest.to_vec()),
        _ => return Err(USAGE.to_string()),
    };
    let mut client = Client::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
    client
        .set_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    match cmd[0].as_str() {
        "ping" => {
            client.ping().map_err(|e| e.to_string())?;
            println!("pong");
        }
        "query" => {
            let text = cmd[1..].join(" ");
            if text.trim().is_empty() {
                return Err(USAGE.to_string());
            }
            let reply = client.query(&text).map_err(|e| e.to_string())?;
            print_reply(&reply);
        }
        "batch" => {
            let Some(file) = cmd.get(1) else {
                return Err(USAGE.to_string());
            };
            let threads: u32 = match cmd.get(2) {
                Some(t) => t.parse().map_err(|_| format!("bad thread count {t:?}"))?,
                None => 0,
            };
            let text = std::fs::read_to_string(file).map_err(|e| format!("read {file}: {e}"))?;
            let queries: Vec<String> = text
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(str::to_string)
                .collect();
            if queries.is_empty() {
                return Err(format!("{file}: no queries"));
            }
            let slots = client.batch(&queries, threads).map_err(|e| e.to_string())?;
            let mut failures = 0usize;
            for (query, slot) in queries.iter().zip(&slots) {
                match slot {
                    Ok(reply) => {
                        println!("{query} => {} row(s) [{}]", reply.rows.len(), reply.plan)
                    }
                    Err(e) => {
                        failures += 1;
                        eprintln!("{query} => error [{}] {}", e.code.name(), e.message);
                    }
                }
            }
            println!("# {} quer(ies), {failures} failed", queries.len());
            if failures > 0 {
                return Err(format!("{failures} quer(ies) failed"));
            }
        }
        "append" => {
            let (Some(relation), Some(label)) = (cmd.get(1), cmd.get(2)) else {
                return Err(USAGE.to_string());
            };
            let values: Vec<f64> = cmd[3..]
                .iter()
                .map(|v| v.parse().map_err(|_| format!("bad value {v:?}")))
                .collect::<Result<_, _>>()?;
            if values.is_empty() {
                return Err(USAGE.to_string());
            }
            let rows = vec![IngestRow {
                label: label.clone(),
                values,
            }];
            let reply = client.append(relation, rows).map_err(|e| e.to_string())?;
            print_append(&reply);
        }
        "append-file" => {
            let (Some(relation), Some(file)) = (cmd.get(1), cmd.get(2)) else {
                return Err(USAGE.to_string());
            };
            let text = std::fs::read_to_string(file).map_err(|e| format!("read {file}: {e}"))?;
            let rows: Vec<IngestRow> = parse_rows(content_lines(&text))
                .map_err(|e| format!("{file}: {e}"))?
                .into_iter()
                .map(|(label, values)| IngestRow { label, values })
                .collect();
            if rows.is_empty() {
                return Err(format!("{file}: no rows"));
            }
            let reply = client.append(relation, rows).map_err(|e| e.to_string())?;
            print_append(&reply);
        }
        "stats" => {
            let json = client.stats_json().map_err(|e| e.to_string())?;
            println!("{json}");
        }
        "shutdown" => {
            client.shutdown().map_err(|e| e.to_string())?;
            println!("server draining");
        }
        other => return Err(format!("unknown command {other:?}\n{USAGE}")),
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tsq-client: {e}");
            ExitCode::FAILURE
        }
    }
}
