//! The traced run (`--trace 1`): the outside-in layer trace.
//!
//! Every operation is a `round_trip` span over the socket. Then, from
//! this package's own code, the same request is replayed through each
//! layer's public function as child spans — `wire::encode_request`,
//! `wire::decode_request`, `tsq_lang::parse`, `Catalog::execute_with`
//! (with the plan-only `EXPLAIN` as its child), `wire::encode_response`,
//! `wire::decode_response`; an append replays on the twin catalog. What
//! the children do not cover of the round trip is its self time: the
//! socket and the hand-off between the connection and execution
//! threads. Counts come from the reply's `ExecStats` and the worker
//! pool's counters. Spans stay in memory and are written to
//! `trace-<workload>.jsonl` when the run ends.
//!
//! Spans inside the program are a later change; nothing here touches the
//! crates.

use std::fmt::Write as _;
use std::time::Instant;

use tsq_core::executor::pool_stats;
use tsq_core::{QueryOptions, ScanMode, SubseqConfig, SubseqIndex};
use tsq_lang::{Catalog, Query, SharedCatalog, Source};
use tsq_series::TimeSeries;
use tsq_service::wire::{self, Request, Response};

use crate::data::{Data, WINDOW};
use crate::machine::{self, IdleSpinners, MachineProbe};
use crate::probes;
use crate::run::{self, Args, Driver, Issued, Metric, Outcome, Prepared};
use crate::setup::relation;
use crate::stats::{median, percentile};
use crate::workload::{Kind, Op, FORCE_SCAN};
use crate::Res;

/// Untraced passes run first in the same process, a quarter as many as
/// a timed run has: the latency and throughput metrics are theirs, and
/// the traced passes' round trips against theirs is the tracing overhead.
const PLAIN_PASS_SHARE: usize = 4;
/// A traced pass replays every operation, so it costs a little over two
/// plain ones; a fifth as many as a timed run has fit beside the probes.
const TRACED_PASS_SHARE: usize = 5;
const MIN_PASSES: usize = 3;
/// Statements per query form timed for `core.scan_ratio.*`.
const SCAN_RATIO_SAMPLE: usize = 10;
const PINGS: usize = 300;

const CHILDREN: [&str; 7] = [
    "encode_request",
    "decode_request",
    "parse",
    "execute",
    "plan",
    "encode_response",
    "decode_response",
];

/// Counts attached to a `round_trip` span.
#[derive(Default, Clone, Copy)]
struct Counts {
    rows: u64,
    reply_bytes: u64,
    candidates: u64,
    refined: u64,
    false_hits: u64,
    nodes: u64,
    pool_hits: u64,
    pool_misses: u64,
    shards: u64,
    pool_tasks: u64,
    pool_steals: u64,
}

struct Span {
    id: u32,
    parent: u32,
    pass: u32,
    op: u32,
    kind: &'static str,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    self_ns: u64,
    counts: Option<Counts>,
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    /// Operations whose replayed children outlasted their round trip.
    overruns: u64,
}

impl Recorder {
    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = write!(
                out,
                "{{\"id\":{},\"parent\":{},\"pass\":{},\"op\":{},\"kind\":\"{}\",\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{}",
                s.id, s.parent, s.pass, s.op, s.kind, s.name, s.start_ns, s.end_ns, s.self_ns
            );
            if let Some(c) = &s.counts {
                let _ = write!(
                    out,
                    ",\"counts\":{{\"rows\":{},\"reply_bytes\":{},\"candidates\":{},\"refined\":{},\
                     \"false_hits\":{},\"nodes\":{},\"pool_hits\":{},\"pool_misses\":{},\
                     \"shards\":{},\"pool_tasks\":{},\"pool_steals\":{}}}",
                    c.rows,
                    c.reply_bytes,
                    c.candidates,
                    c.refined,
                    c.false_hits,
                    c.nodes,
                    c.pool_hits,
                    c.pool_misses,
                    c.shards,
                    c.pool_tasks,
                    c.pool_steals
                );
            }
            out.push_str("}\n");
        }
        out
    }
}

/// Runs `f` between two clock reads.
fn clocked<R>(f: impl FnOnce() -> R) -> (R, Instant, Instant) {
    let start = Instant::now();
    let value = f();
    (value, start, Instant::now())
}

/// What one traced pass adds up to, layer by layer.
#[derive(Default)]
struct PassLayers {
    ops: u64,
    reads: u64,
    /// Seconds per child span name, in [`CHILDREN`] order.
    child_secs: [f64; 7],
    /// Every operation's round-trip self time, in seconds.
    overheads: Vec<f64>,
    /// Every operation's share of its round trip spent outside
    /// execution: self time, codec, parse and plan.
    front_shares: Vec<f64>,
    counts: Counts,
    scan_plans: u64,
    /// Sum and count of per-read pruning ratios, by kind.
    pruning: [(f64, u64); 4],
    twin_append_secs: f64,
    points_appended: u64,
}

fn child_index(name: &str) -> usize {
    CHILDREN
        .iter()
        .position(|c| *c == name)
        .expect("a known child span")
}

struct Tracer {
    rec: Recorder,
    passes: Vec<PassLayers>,
    /// Round-trip latencies of each traced pass, in operation order.
    samples: Vec<Vec<f64>>,
    /// `EXPLAIN <statement>` for every statement, built before any clock
    /// starts.
    explains: Vec<Query>,
}

impl Tracer {
    /// One traced pass over `driver`'s connection.
    fn pass(&mut self, driver: &mut Driver, pass_no: u32, check_feed: bool) {
        let mut layers = PassLayers::default();
        let mut sample = Vec::with_capacity(driver.pass.ops.len());
        for op_no in 0..driver.pass.ops.len() {
            let op = driver.pass.ops[op_no];
            let before = pool_stats();
            let issued = driver.issue(op);
            let after = pool_stats();
            sample.push(issued.secs());

            let mut children: Vec<(&'static str, Instant, Instant)> = Vec::with_capacity(7);
            let request = match op {
                Op::Query(i) => Request::Query(driver.pass.statements[i].text.clone()),
                Op::Append => Request::Append {
                    relation: "feed".to_string(),
                    rows: issued.appended.clone(),
                },
            };
            let (bytes, s, e) = clocked(|| wire::encode_request(&request));
            children.push(("encode_request", s, e));
            let (_, s, e) = clocked(|| wire::decode_request(&bytes));
            children.push(("decode_request", s, e));
            match op {
                Op::Query(i) => {
                    let text = &driver.pass.statements[i].text;
                    let (_, s, e) = clocked(|| tsq_lang::parse(text));
                    children.push(("parse", s, e));
                    // Reads of `feed` replay on the served catalog too: it
                    // holds exactly what the reply was computed from.
                    let shared: &SharedCatalog = &driver.live.shared;
                    let (_, s, e) = clocked(|| {
                        shared.execute_with(&driver.queries[i], &QueryOptions::default())
                    });
                    children.push(("execute", s, e));
                    let (_, s, e) = clocked(|| shared.execute(&self.explains[i]));
                    children.push(("plan", s, e));
                    driver.check_read(i, &issued, check_feed);
                }
                Op::Append => {
                    let (ack, s, e) = clocked(|| driver.append_to_twin(&issued.appended));
                    children.push(("execute", s, e));
                    layers.twin_append_secs += e.duration_since(s).as_secs_f64();
                    layers.points_appended += issued
                        .appended
                        .iter()
                        .map(|r| r.values.len() as u64)
                        .sum::<u64>();
                    driver.check_append(&issued, ack);
                }
            }
            let mut counts = Counts {
                pool_tasks: after.tasks - before.tasks,
                pool_steals: after.steals - before.steals,
                ..Counts::default()
            };
            if let Ok(reply) = &issued.reply {
                let response = match op {
                    Op::Query(_) => Response::Rows(reply.clone()),
                    Op::Append => Response::Append(reply.clone()),
                };
                let (payload, s, e) = clocked(|| wire::encode_response(&response));
                children.push(("encode_response", s, e));
                let (_, s, e) = clocked(|| wire::decode_response(&payload));
                children.push(("decode_response", s, e));
                counts.rows = reply.rows.len() as u64;
                counts.reply_bytes =
                    (payload.len() + tsq_store::HEADER_LEN + tsq_store::TRAILER_LEN) as u64;
                counts.candidates = reply.stats.candidates as u64;
                counts.refined = reply.stats.refined as u64;
                counts.false_hits = reply.stats.false_hits as u64;
                counts.nodes = reply.stats.nodes_visited;
                counts.pool_hits = reply.stats.pool_hits;
                counts.pool_misses = reply.stats.pool_misses;
                counts.shards = reply.shard_stats.len() as u64;
                if let Op::Query(i) = op {
                    layers.reads += 1;
                    if reply.plan.contains("Scan") {
                        layers.scan_plans += 1;
                    }
                    let statement = &driver.pass.statements[i];
                    let examined = if statement.kind == Kind::Subseq {
                        reply.stats.candidates
                    } else {
                        reply.stats.refined
                    };
                    let slot = &mut layers.pruning[statement.kind.index()];
                    slot.0 += 1.0 - examined as f64 / statement.universe as f64;
                    slot.1 += 1;
                }
            }
            self.record(
                &issued,
                &children,
                counts,
                pass_no,
                op_no as u32,
                &mut layers,
            );
        }
        self.passes.push(layers);
        self.samples.push(sample);
    }

    /// Turns one operation's clock reads into spans and layer sums.
    fn record(
        &mut self,
        issued: &Issued,
        children: &[(&'static str, Instant, Instant)],
        counts: Counts,
        pass: u32,
        op: u32,
        layers: &mut PassLayers,
    ) {
        let kind = issued.kind.name();
        let parent_id = self.rec.spans.len() as u32 + 1;
        let parent_ns = issued.end.duration_since(issued.start).as_nanos() as u64;
        let dur = |name: &str| -> u64 {
            children
                .iter()
                .find(|c| c.0 == name)
                .map_or(0, |c| c.2.duration_since(c.1).as_nanos() as u64)
        };
        // `execute_with` plans before it executes; the plan-only replay
        // is that part of it, so it hangs below `execute`, not beside it.
        let plan_ns = dur("plan").min(dur("execute"));
        let covered: u64 = children
            .iter()
            .filter(|c| c.0 != "plan")
            .map(|c| c.2.duration_since(c.1).as_nanos() as u64)
            .sum();
        if covered > parent_ns {
            self.rec.overruns += 1;
        }
        let self_ns = parent_ns.saturating_sub(covered);
        self.rec.spans.push(Span {
            id: parent_id,
            parent: 0,
            pass,
            op,
            kind,
            name: "round_trip",
            start_ns: self.rec.ns(issued.start),
            end_ns: self.rec.ns(issued.end),
            self_ns,
            counts: Some(counts),
        });
        let execute_id = children
            .iter()
            .position(|c| c.0 == "execute")
            .map_or(parent_id, |at| parent_id + 1 + at as u32);
        for (at, &(name, start, end)) in children.iter().enumerate() {
            let ns = end.duration_since(start).as_nanos() as u64;
            let (parent, self_ns) = match name {
                "plan" => (execute_id, plan_ns),
                "execute" => (parent_id, ns - plan_ns),
                _ => (parent_id, ns),
            };
            self.rec.spans.push(Span {
                id: parent_id + 1 + at as u32,
                parent,
                pass,
                op,
                kind,
                name,
                start_ns: self.rec.ns(start),
                end_ns: self.rec.ns(end),
                self_ns,
                counts: None,
            });
            layers.child_secs[child_index(name)] += self_ns as f64 / 1e9;
        }
        layers.ops += 1;
        layers.overheads.push(self_ns as f64 / 1e9);
        let execute_self_ns = dur("execute") - plan_ns;
        let front_ns = parent_ns.saturating_sub(execute_self_ns);
        layers
            .front_shares
            .push(front_ns as f64 / parent_ns.max(1) as f64);
        let c = &mut layers.counts;
        c.rows += counts.rows;
        c.reply_bytes += counts.reply_bytes;
        c.candidates += counts.candidates;
        c.refined += counts.refined;
        c.false_hits += counts.false_hits;
        c.nodes += counts.nodes;
        c.pool_hits += counts.pool_hits;
        c.pool_misses += counts.pool_misses;
        c.pool_tasks += counts.pool_tasks;
        c.pool_steals += counts.pool_steals;
    }
}

/// The pattern a subsequence statement names.
fn pattern(catalog: &Catalog, source: &Source) -> Option<TimeSeries> {
    match source {
        Source::Literal(values) => Some(TimeSeries::new(values.clone())),
        Source::Ref { relation, label } => catalog.relation(relation)?.get_by_label(label).cloned(),
    }
}

/// `core.scan_ratio.<form>`: the same statements run as a scan over run
/// as the planner chooses, in process, on the catalog that answers them
/// (the served one, or the twin for reads of `feed`). Above 1 the
/// planner's choice beats the scan — the paper's bar. Subsequence
/// statements have no scan plan, so `tsq-core`'s sliding scan stands in.
fn scan_ratio(driver: &Driver, kind: Kind) -> Res<f64> {
    let mut picked: Vec<usize> = (0..driver.pass.statements.len())
        .filter(|&i| driver.pass.statements[i].kind == kind)
        .collect();
    // Statements on the static relations if there are any, and of those
    // an evenly spaced sample.
    if picked
        .iter()
        .any(|&i| !driver.pass.statements[i].reads_feed)
    {
        picked.retain(|&i| !driver.pass.statements[i].reads_feed);
    }
    let stride = picked.len().div_ceil(SCAN_RATIO_SAMPLE).max(1);
    let picked: Vec<usize> = picked.into_iter().step_by(stride).collect();
    let mut sliding: Option<(bool, SubseqIndex)> = None;
    let (mut scan_secs, mut plan_secs) = (0.0, 0.0);
    let best = |f: &mut dyn FnMut() -> Res<()>| -> Res<f64> {
        let mut secs = f64::INFINITY;
        for _ in 0..3 {
            let t = Instant::now();
            f()?;
            secs = secs.min(t.elapsed().as_secs_f64());
        }
        Ok(secs)
    };
    for i in picked {
        let statement = &driver.pass.statements[i];
        let query = &driver.queries[i];
        let on_twin = statement.reads_feed;
        let run = |options: &QueryOptions| -> Res<()> {
            let out = if on_twin {
                driver.twin.execute_with(query, options)
            } else {
                driver.live.shared.execute_with(query, options)
            };
            out.map(|_| ())
                .map_err(|e| format!("{}: {e}", statement.text))
        };
        plan_secs += best(&mut || run(&QueryOptions::default()))?;
        if kind != Kind::Subseq {
            scan_secs += best(&mut || run(&FORCE_SCAN))?;
            continue;
        }
        if sliding.as_ref().map(|s| s.0) != Some(on_twin) {
            let (rel, series) = if on_twin {
                let rel = driver.twin.relation("feed").ok_or("twin has no feed")?;
                ("feed", rel.series().to_vec())
            } else {
                let series = driver
                    .live
                    .shared
                    .with_relation("stocks", |r| r.map(|r| r.series().to_vec()))
                    .ok_or("served catalog has no stocks")?;
                ("stocks", series)
            };
            let index = SubseqIndex::build(SubseqConfig::new(WINDOW), series)
                .map_err(|e| format!("sliding scan over {rel}: {e}"))?;
            sliding = Some((on_twin, index));
        }
        let index = &sliding.as_ref().expect("just built").1;
        scan_secs += best(&mut || {
            let scanned = match query {
                Query::SubseqSimilar { source, eps, .. } => {
                    let q = pattern(&driver.twin, source).ok_or("unknown pattern")?;
                    index
                        .scan_subseq_range(&q, *eps, ScanMode::EarlyAbandon)
                        .map(|_| ())
                }
                Query::SubseqNearest { source, k, .. } => {
                    let q = pattern(&driver.twin, source).ok_or("unknown pattern")?;
                    index.scan_subseq_knn(&q, *k).map(|_| ())
                }
                _ => Ok(()),
            };
            scanned.map_err(|e| format!("sliding scan: {e}"))
        })?;
    }
    Ok(if plan_secs > 0.0 {
        scan_secs / plan_secs
    } else {
        0.0
    })
}

/// `core.scatter_speedup`: the pass's range and kNN statements on
/// `walks`, run in process on an unsharded catalog over run on a 4-shard
/// one. Above 1, scattering pays.
fn scatter_speedup(driver: &Driver, data: &Data) -> Res<f64> {
    let build = |shards: bool| -> Res<Catalog> {
        let mut catalog = Catalog::new();
        catalog
            .register(relation("walks", &data.walks)?)
            .map_err(|e| format!("walks: {e}"))?;
        if shards {
            catalog
                .run_mut("SHARD walks INTO 4 BY HASH")
                .map_err(|e| format!("shard walks: {e}"))?;
        }
        Ok(catalog)
    };
    let (whole, sharded) = (build(false)?, build(true)?);
    let picked: Vec<&Query> = driver
        .pass
        .statements
        .iter()
        .zip(&driver.queries)
        .filter(|(s, _)| !s.reads_feed && matches!(s.kind, Kind::Range | Kind::Knn))
        .map(|(_, q)| q)
        .step_by(4)
        .take(2 * SCAN_RATIO_SAMPLE)
        .collect();
    let time = |catalog: &Catalog| -> Res<f64> {
        let mut total = 0.0;
        for query in &picked {
            let mut secs = f64::INFINITY;
            for _ in 0..3 {
                let t = Instant::now();
                catalog.execute(query).map_err(|e| e.to_string())?;
                secs = secs.min(t.elapsed().as_secs_f64());
            }
            total += secs;
        }
        Ok(total)
    };
    let (whole_secs, sharded_secs) = (time(&whole)?, time(&sharded)?);
    Ok(whole_secs / sharded_secs)
}

pub fn traced_passes(seconds: f64) -> usize {
    (run::timed_passes(seconds) / TRACED_PASS_SHARE).max(MIN_PASSES)
}

/// The traced run.
pub fn traced(args: &Args) -> Res<Outcome> {
    let awake = IdleSpinners::start()?;
    let Prepared {
        mut driver,
        first_setup_secs: _,
        data,
        scratch,
    } = run::prepare(args)?;

    let mut probe = MachineProbe::new();
    let mut machine_samples = Vec::new();
    driver.plain_pass(true); // warm-up, discarded
    let plain_passes = (run::timed_passes(args.seconds) / PLAIN_PASS_SHARE).max(MIN_PASSES);
    let mut plain = Vec::with_capacity(plain_passes);
    for _ in 0..plain_passes {
        machine_samples.push(probe.sample());
        plain.push(driver.plain_pass(false));
    }

    let explains = driver
        .queries
        .iter()
        .map(|q| Query::Explain {
            analyze: false,
            query: Box::new(q.clone()),
        })
        .collect();
    let mut tracer = Tracer {
        rec: Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            overruns: 0,
        },
        passes: Vec::new(),
        samples: Vec::new(),
        explains,
    };
    let passes = traced_passes(args.seconds);
    let mut pings = Vec::with_capacity(PINGS);
    for pass_no in 0..passes {
        machine_samples.push(probe.sample());
        for _ in 0..PINGS / passes {
            let t = Instant::now();
            driver
                .live
                .client
                .ping()
                .map_err(|e| format!("ping: {e}"))?;
            pings.push(t.elapsed().as_secs_f64());
        }
        tracer.pass(&mut driver, pass_no as u32, pass_no + 1 == passes);
    }
    machine_samples.push(probe.sample());
    drop(probe);
    // The same round trip with the cores free to halt: what the run's
    // conditioning (see `IdleSpinners`) takes out of every hand-off.
    awake.pause(true);
    let mut halted_pings = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let t = Instant::now();
        driver
            .live
            .client
            .ping()
            .map_err(|e| format!("ping: {e}"))?;
        halted_pings.push(t.elapsed().as_secs_f64());
    }
    awake.pause(false);

    let layers = &tracer.passes;
    let per_pass =
        |f: &dyn Fn(&PassLayers) -> f64| median(&layers.iter().map(f).collect::<Vec<_>>());
    let total = |f: &dyn Fn(&PassLayers) -> u64| layers.iter().map(f).sum::<u64>() as f64;
    let (ops, reads) = (total(&|l| l.ops), total(&|l| l.reads));
    // Microseconds of one child span per operation (or per read).
    let child_us = |name: &str, per: fn(&PassLayers) -> u64| {
        per_pass(&|l| l.child_secs[child_index(name)] * 1e6 / per(l).max(1) as f64)
    };
    let per_op: fn(&PassLayers) -> u64 = |l| l.ops;
    let per_read: fn(&PassLayers) -> u64 = |l| l.reads;
    let pooled: Vec<f64> = tracer.samples.iter().flatten().copied().collect();
    let (hits, misses) = (
        total(&|l| l.counts.pool_hits),
        total(&|l| l.counts.pool_misses),
    );
    let refined = total(&|l| l.counts.refined);
    // What tracing costs the round trips it observes.
    let secs_per_op = |passes: &[Vec<f64>]| {
        median(
            &passes
                .iter()
                .map(|pass| pass.iter().sum::<f64>() / pass.len() as f64)
                .collect::<Vec<_>>(),
        )
    };

    let mut metrics = run::timing_metrics(&driver.pass, &plain);
    let mut add = |name: &str, value: f64, unit: &'static str| {
        metrics.push(Metric::new(name, value, unit));
    };
    add(
        "service.encode_request_us",
        child_us("encode_request", per_op),
        "us",
    );
    add(
        "service.decode_request_us",
        child_us("decode_request", per_op),
        "us",
    );
    add(
        "service.encode_response_us",
        child_us("encode_response", per_op),
        "us",
    );
    add(
        "service.decode_response_us",
        child_us("decode_response", per_op),
        "us",
    );
    add(
        "service.reply_bytes_per_op",
        total(&|l| l.counts.reply_bytes) / ops,
        "B",
    );
    add("service.ping_us", median(&pings) * 1e6, "us");
    add("service.ping_halted_us", median(&halted_pings) * 1e6, "us");
    // The median over a pass's operations, not the mean: a burst of noise
    // stretches a few round trips far beyond their replays, and the mean
    // of the differences is mostly those.
    add(
        "service.overhead_us",
        per_pass(&|l| median(&l.overheads) * 1e6),
        "us",
    );
    add(
        "service.front_share",
        per_pass(&|l| median(&l.front_shares)),
        "ratio",
    );
    add(
        "service.p99_pooled_ms",
        percentile(&pooled, 0.99) * 1e3,
        "ms",
    );

    add("lang.parse_us", child_us("parse", per_read), "us");
    add("lang.plan_us", child_us("plan", per_read), "us");
    add(
        "lang.execute_us",
        per_pass(&|l| {
            (l.child_secs[child_index("execute")] - l.twin_append_secs) * 1e6
                / l.reads.max(1) as f64
        }),
        "us",
    );
    add(
        "lang.append_us_per_point",
        per_pass(&|l| l.twin_append_secs * 1e6 / l.points_appended.max(1) as f64),
        "us",
    );
    // Of the time the client waited in an untraced pass, the part it
    // waited for appends.
    let append_share = |secs: &Vec<f64>| -> f64 {
        let appends: f64 = driver
            .pass
            .ops
            .iter()
            .zip(secs)
            .filter(|(op, _)| matches!(op, Op::Append))
            .map(|(_, s)| *s)
            .sum();
        appends / secs.iter().sum::<f64>()
    };
    add(
        "lang.append_pass_share",
        median(&plain.iter().map(append_share).collect::<Vec<_>>()),
        "ratio",
    );

    // Counts: exact for a seed.
    add(
        "core.candidates_per_op",
        total(&|l| l.counts.candidates) / reads,
        "count",
    );
    add("core.refined_per_op", refined / reads, "count");
    add(
        "core.false_hits_per_op",
        total(&|l| l.counts.false_hits) / reads,
        "count",
    );
    add("core.rows_per_op", total(&|l| l.counts.rows) / ops, "count");
    add(
        "core.refine_precision",
        (refined - total(&|l| l.counts.false_hits)) / refined.max(1.0),
        "ratio",
    );
    for kind in [Kind::Range, Kind::Knn, Kind::Subseq, Kind::Join] {
        let (sum, n) = layers.iter().fold((0.0, 0u64), |acc, l| {
            let slot = l.pruning[kind.index()];
            (acc.0 + slot.0, acc.1 + slot.1)
        });
        let name = format!("core.pruning_ratio.{}", kind.name());
        add(&name, sum / n.max(1) as f64, "ratio");
    }
    add(
        "core.scan_plan_share",
        total(&|l| l.scan_plans) / reads,
        "ratio",
    );
    for kind in [Kind::Range, Kind::Knn, Kind::Subseq, Kind::Join] {
        let name = format!("core.scan_ratio.{}", kind.name());
        add(&name, scan_ratio(&driver, kind)?, "ratio");
    }
    add(
        "core.scatter_speedup",
        scatter_speedup(&driver, &data)?,
        "ratio",
    );
    add(
        "rtree.nodes_per_op",
        total(&|l| l.counts.nodes) / reads,
        "count",
    );
    add(
        "rtree.pool_hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
    );
    add("rtree.pool_misses_per_op", misses / reads, "count");
    add(
        "pool.tasks_per_op",
        total(&|l| l.counts.pool_tasks) / ops,
        "count",
    );
    add(
        "pool.steals_per_op",
        total(&|l| l.counts.pool_steals) / ops,
        "count",
    );
    add(
        "trace_overhead_ratio",
        secs_per_op(&tracer.samples) / secs_per_op(&plain),
        "ratio",
    );

    // The lower layers on fixed inputs, once the connection is quiet.
    let Driver {
        live,
        twin,
        attempted,
        failed,
        ..
    } = driver;
    drop(twin);
    metrics.push(Metric::new(
        "service.errors",
        live.tear_down() as f64,
        "count",
    ));
    metrics.extend(probes::all(&data, scratch.path())?);
    metrics.extend(run::machine_metrics(&machine_samples));
    let (_, hwm_mib) = machine::rss_and_hwm_mib();
    metrics.push(Metric::new("proc.hwm_mib", hwm_mib, "MiB"));
    drop(scratch);

    let name = format!("trace-{}.jsonl", args.workload.name);
    run::write_into(&args.out_dir, &name, tracer.rec.to_jsonl().as_bytes())?;
    let info = vec![
        Metric::new("traced_passes", passes as f64, "count"),
        Metric::new("spans", tracer.rec.spans.len() as f64, "count"),
        Metric::new("child_overruns", tracer.rec.overruns as f64, "count"),
        Metric::new(
            "traced_busy_s",
            pooled.iter().sum::<f64>() / passes as f64,
            "s",
        ),
    ];
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        info,
    })
}
