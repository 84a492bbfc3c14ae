//! Cumulative service metrics: lock-free counters updated on every
//! request, snapshot-able at any time, rendered as JSON for both the
//! HTTP `/metrics` endpoint and the binary `STATS` request.
//!
//! Everything hot is an atomic; the only lock guards the per-plan
//! choice counts (a small map touched once per successful query) and it
//! recovers from poisoning like every other lock in the workspace.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use crate::engine::QueryReply;
use crate::wire::ErrorCode;

/// Live counters for one server. Shared behind an `Arc`; all methods
/// take `&self`.
#[derive(Debug)]
pub(crate) struct Metrics {
    started: Instant,
    queries_ok: AtomicU64,
    queries_err: AtomicU64,
    timeouts: AtomicU64,
    overloads: AtomicU64,
    shutdown_rejections: AtomicU64,
    malformed: AtomicU64,
    unsupported: AtomicU64,
    tcp_requests: AtomicU64,
    http_requests: AtomicU64,
    in_flight: AtomicU64,
    rows: AtomicU64,
    candidates: AtomicU64,
    refined: AtomicU64,
    false_hits: AtomicU64,
    nodes_visited: AtomicU64,
    disk_accesses: AtomicU64,
    pool_hits: AtomicU64,
    pool_misses: AtomicU64,
    record_hits: AtomicU64,
    record_misses: AtomicU64,
    record_seq_misses: AtomicU64,
    sharded_queries: AtomicU64,
    shards_probed: AtomicU64,
    /// Successful queries per physical operator the planner chose.
    plans: Mutex<BTreeMap<String, u64>>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            started: Instant::now(),
            queries_ok: AtomicU64::new(0),
            queries_err: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            overloads: AtomicU64::new(0),
            shutdown_rejections: AtomicU64::new(0),
            malformed: AtomicU64::new(0),
            unsupported: AtomicU64::new(0),
            tcp_requests: AtomicU64::new(0),
            http_requests: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            rows: AtomicU64::new(0),
            candidates: AtomicU64::new(0),
            refined: AtomicU64::new(0),
            false_hits: AtomicU64::new(0),
            nodes_visited: AtomicU64::new(0),
            disk_accesses: AtomicU64::new(0),
            pool_hits: AtomicU64::new(0),
            pool_misses: AtomicU64::new(0),
            record_hits: AtomicU64::new(0),
            record_misses: AtomicU64::new(0),
            record_seq_misses: AtomicU64::new(0),
            sharded_queries: AtomicU64::new(0),
            shards_probed: AtomicU64::new(0),
            plans: Mutex::new(BTreeMap::new()),
        }
    }
}

impl Metrics {
    /// Fresh, all-zero metrics.
    pub(crate) fn new() -> Self {
        Metrics::default()
    }

    /// Records one request arriving over the binary protocol.
    pub(crate) fn tcp_request(&self) {
        self.tcp_requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one request arriving over the HTTP facade.
    pub(crate) fn http_request(&self) {
        self.http_requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a query entering execution; pair with
    /// [`Metrics::query_done`]. Returns the previous in-flight count so
    /// admission control can bound the gauge exactly.
    pub(crate) fn query_started(&self) -> u64 {
        self.in_flight.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a query leaving execution (success or failure).
    pub(crate) fn query_done(&self) {
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
    }

    /// Records a successful query: its row count, execution counters,
    /// and the planner's operator choice.
    pub(crate) fn record_ok(&self, reply: &QueryReply) {
        self.queries_ok.fetch_add(1, Ordering::Relaxed);
        self.rows
            .fetch_add(reply.rows.len() as u64, Ordering::Relaxed);
        self.candidates
            .fetch_add(reply.stats.candidates as u64, Ordering::Relaxed);
        self.refined
            .fetch_add(reply.stats.refined as u64, Ordering::Relaxed);
        self.false_hits
            .fetch_add(reply.stats.false_hits as u64, Ordering::Relaxed);
        self.nodes_visited
            .fetch_add(reply.stats.nodes_visited, Ordering::Relaxed);
        self.disk_accesses
            .fetch_add(reply.stats.disk_accesses, Ordering::Relaxed);
        self.pool_hits
            .fetch_add(reply.stats.pool_hits, Ordering::Relaxed);
        self.pool_misses
            .fetch_add(reply.stats.pool_misses, Ordering::Relaxed);
        self.record_hits
            .fetch_add(reply.stats.record_hits, Ordering::Relaxed);
        self.record_misses
            .fetch_add(reply.stats.record_misses, Ordering::Relaxed);
        self.record_seq_misses
            .fetch_add(reply.stats.record_seq_misses, Ordering::Relaxed);
        if !reply.shard_stats.is_empty() {
            self.sharded_queries.fetch_add(1, Ordering::Relaxed);
            self.shards_probed
                .fetch_add(reply.shard_stats.len() as u64, Ordering::Relaxed);
        }
        let mut plans = self.plans.lock().unwrap_or_else(PoisonError::into_inner);
        *plans.entry(reply.plan.clone()).or_insert(0) += 1;
    }

    /// Records a failed request under its wire-level error code.
    pub(crate) fn record_err(&self, code: ErrorCode) {
        match code {
            ErrorCode::Timeout => self.timeouts.fetch_add(1, Ordering::Relaxed),
            ErrorCode::Overloaded => self.overloads.fetch_add(1, Ordering::Relaxed),
            ErrorCode::ShuttingDown => self.shutdown_rejections.fetch_add(1, Ordering::Relaxed),
            ErrorCode::Malformed | ErrorCode::TooLarge => {
                self.malformed.fetch_add(1, Ordering::Relaxed)
            }
            ErrorCode::Unsupported => self.unsupported.fetch_add(1, Ordering::Relaxed),
            ErrorCode::BadQuery | ErrorCode::Engine => {
                self.queries_err.fetch_add(1, Ordering::Relaxed)
            }
        };
    }

    /// A point-in-time copy of every counter, plus the process-wide
    /// work-stealing pool's counters sampled live (the pool is shared by
    /// every relation and request, so the numbers are service-level by
    /// construction; zeros until something fans out).
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let pool = tsq_core::executor::pool_stats();
        let plans = self
            .plans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        MetricsSnapshot {
            uptime_secs: self.started.elapsed().as_secs_f64(),
            queries_ok: self.queries_ok.load(Ordering::Relaxed),
            queries_err: self.queries_err.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            overloads: self.overloads.load(Ordering::Relaxed),
            shutdown_rejections: self.shutdown_rejections.load(Ordering::Relaxed),
            malformed: self.malformed.load(Ordering::Relaxed),
            unsupported: self.unsupported.load(Ordering::Relaxed),
            tcp_requests: self.tcp_requests.load(Ordering::Relaxed),
            http_requests: self.http_requests.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            rows: self.rows.load(Ordering::Relaxed),
            candidates: self.candidates.load(Ordering::Relaxed),
            refined: self.refined.load(Ordering::Relaxed),
            false_hits: self.false_hits.load(Ordering::Relaxed),
            nodes_visited: self.nodes_visited.load(Ordering::Relaxed),
            disk_accesses: self.disk_accesses.load(Ordering::Relaxed),
            pool_hits: self.pool_hits.load(Ordering::Relaxed),
            pool_misses: self.pool_misses.load(Ordering::Relaxed),
            record_hits: self.record_hits.load(Ordering::Relaxed),
            record_misses: self.record_misses.load(Ordering::Relaxed),
            record_seq_misses: self.record_seq_misses.load(Ordering::Relaxed),
            sharded_queries: self.sharded_queries.load(Ordering::Relaxed),
            shards_probed: self.shards_probed.load(Ordering::Relaxed),
            pool_tasks: pool.tasks,
            pool_steals: pool.steals,
            plans,
        }
    }

    /// Current in-flight query count (the admission-control gauge).
    pub(crate) fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::Relaxed)
    }
}

/// A frozen copy of `Metrics`, plain data for rendering and asserting.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Seconds since the server started.
    pub uptime_secs: f64,
    /// Queries answered successfully.
    pub queries_ok: u64,
    /// Queries rejected by the engine (bad query text or execution
    /// failure).
    pub queries_err: u64,
    /// Queries that exceeded the per-query timeout.
    pub timeouts: u64,
    /// Queries refused by admission control.
    pub overloads: u64,
    /// Queries refused because the server was draining.
    pub shutdown_rejections: u64,
    /// Malformed or oversized frames/requests.
    pub malformed: u64,
    /// Requests refused as unsupported (e.g. APPEND to a paged
    /// relation).
    pub unsupported: u64,
    /// Requests over the binary protocol.
    pub tcp_requests: u64,
    /// Requests over the HTTP facade.
    pub http_requests: u64,
    /// Queries executing right now.
    pub in_flight: u64,
    /// Total answer rows returned.
    pub rows: u64,
    /// Summed index-level candidates.
    pub candidates: u64,
    /// Summed exact distance refinements.
    pub refined: u64,
    /// Summed refine rejections.
    pub false_hits: u64,
    /// Summed R\*-tree node visits.
    pub nodes_visited: u64,
    /// Summed paper-accounting disk accesses (nodes visited +
    /// candidates).
    pub disk_accesses: u64,
    /// Summed measured buffer-pool hits (paged relations only).
    pub pool_hits: u64,
    /// Summed measured buffer-pool misses — actual page reads.
    pub pool_misses: u64,
    /// Summed measured record-pool hits (paged relations only).
    pub record_hits: u64,
    /// Summed measured record-pool misses — record frames read.
    pub record_misses: u64,
    /// The record misses that read the frame after the previous miss's
    /// (sequential reads; the rest are random).
    pub record_seq_misses: u64,
    /// Successful queries answered by scatter-gather over a sharded
    /// relation.
    pub sharded_queries: u64,
    /// Total shards carrying counters across those queries.
    pub shards_probed: u64,
    /// Tasks executed by the process-wide work-stealing pool since
    /// process start (sampled at snapshot time, not per query).
    pub pool_tasks: u64,
    /// Tasks a pool worker stole from a sibling's deque.
    pub pool_steals: u64,
    /// Successful queries per chosen physical operator.
    pub plans: BTreeMap<String, u64>,
}

impl MetricsSnapshot {
    /// Renders the snapshot as a JSON object (stable key order).
    pub(crate) fn to_json(&self) -> String {
        let mut plans = String::from("{");
        for (i, (plan, count)) in self.plans.iter().enumerate() {
            if i > 0 {
                plans.push(',');
            }
            plans.push_str(&format!("\"{}\":{}", crate::http::json_escape(plan), count));
        }
        plans.push('}');
        format!(
            concat!(
                "{{\"uptime_secs\":{:.3},",
                "\"queries_ok\":{},\"queries_err\":{},",
                "\"timeouts\":{},\"overloads\":{},\"shutdown_rejections\":{},",
                "\"malformed\":{},\"unsupported\":{},",
                "\"tcp_requests\":{},\"http_requests\":{},\"in_flight\":{},",
                "\"rows\":{},\"candidates\":{},\"refined\":{},\"false_hits\":{},",
                "\"nodes_visited\":{},\"disk_accesses\":{},",
                "\"pool_hits\":{},\"pool_misses\":{},",
                "\"record_hits\":{},\"record_misses\":{},\"record_seq_misses\":{},",
                "\"sharded_queries\":{},\"shards_probed\":{},",
                "\"pool_tasks\":{},\"pool_steals\":{},",
                "\"plans\":{}}}"
            ),
            self.uptime_secs,
            self.queries_ok,
            self.queries_err,
            self.timeouts,
            self.overloads,
            self.shutdown_rejections,
            self.malformed,
            self.unsupported,
            self.tcp_requests,
            self.http_requests,
            self.in_flight,
            self.rows,
            self.candidates,
            self.refined,
            self.false_hits,
            self.nodes_visited,
            self.disk_accesses,
            self.pool_hits,
            self.pool_misses,
            self.record_hits,
            self.record_misses,
            self.record_seq_misses,
            self.sharded_queries,
            self.shards_probed,
            self.pool_tasks,
            self.pool_steals,
            plans
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsq_core::plan::ExecStats;

    #[test]
    fn counters_accumulate_and_render() {
        let m = Metrics::new();
        m.tcp_request();
        m.http_request();
        assert_eq!(m.query_started(), 0);
        assert_eq!(m.in_flight(), 1);
        m.record_ok(&QueryReply {
            rows: vec![],
            plan: "SeqScan".into(),
            stats: ExecStats {
                candidates: 3,
                refined: 2,
                false_hits: 1,
                nodes_visited: 0,
                disk_accesses: 10,
                pool_hits: 7,
                pool_misses: 4,
                record_hits: 6,
                record_misses: 5,
                record_seq_misses: 3,
            },
            shard_stats: Vec::new(),
        });
        m.query_done();
        m.record_err(ErrorCode::Timeout);
        m.record_err(ErrorCode::Overloaded);
        m.record_err(ErrorCode::BadQuery);
        m.record_err(ErrorCode::Malformed);
        m.record_err(ErrorCode::Unsupported);
        let snap = m.snapshot();
        assert_eq!(snap.queries_ok, 1);
        assert_eq!(snap.timeouts, 1);
        assert_eq!(snap.overloads, 1);
        assert_eq!(snap.queries_err, 1);
        assert_eq!(snap.malformed, 1);
        assert_eq!(snap.unsupported, 1);
        assert_eq!(snap.in_flight, 0);
        assert_eq!(snap.disk_accesses, 10);
        assert_eq!(snap.pool_hits, 7);
        assert_eq!(snap.pool_misses, 4);
        assert_eq!(snap.plans.get("SeqScan"), Some(&1));
        let json = snap.to_json();
        assert!(json.contains("\"queries_ok\":1"));
        assert!(json.contains("\"pool_hits\":7,\"pool_misses\":4"));
        assert!(json.contains("\"record_hits\":6,\"record_misses\":5,\"record_seq_misses\":3"));
        assert!(json.contains("\"pool_tasks\":"));
        assert!(json.contains("\"pool_steals\":"));
        assert!(json.contains("\"plans\":{\"SeqScan\":1}"));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }
}
