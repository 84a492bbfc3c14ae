//! The four workloads: how each catalog is laid out and what one pass
//! sends. A pass is a fixed, seeded list of operations with every kind
//! interleaved; a run repeats it a fixed number of times.
//!
//! Every threshold is the seed's own exact-distance quantile — taken
//! from a forced scan on a plain catalog — so a statement's selectivity
//! does not depend on the seed.

use tsq_core::{ForceOp, QueryOptions};
use tsq_lang::{parse, Catalog, LangError, QueryOutput};

use crate::data::{Rng, FEED, PAIRS, PROBES, STOCKS, STOCK_PROBES, WALK_SHAPE, WINDOW};

/// The oracle's access path: a forced sequential scan.
pub const FORCE_SCAN: QueryOptions = QueryOptions {
    force: Some(ForceOp::Scan),
    threads: None,
    shards: None,
};

/// Series per `APPEND` and points per series: 100 appends touch every
/// series of `feed` once, which makes the relation uniform again.
pub const APPEND_GROUP: usize = 5;
pub const APPEND_POINTS: usize = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Range,
    Knn,
    Subseq,
    Join,
    Append,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Range => "range",
            Kind::Knn => "knn",
            Kind::Subseq => "subseq",
            Kind::Join => "join",
            Kind::Append => "append",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

/// How the served catalog stores its whole-match indexes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Plain in-memory R*-trees.
    Memory,
    /// `save`, then `open_paged` with a 1 MiB budget.
    Paged,
    /// `walks` and `pairs` `SHARD ... INTO 4 BY HASH`.
    Shard4,
}

/// One distinct read statement of a pass.
#[derive(Debug, Clone)]
pub struct Statement {
    pub kind: Kind,
    pub text: String,
    /// Reads `feed`, which grows: its answers change from pass to pass,
    /// so they are checked against the twin catalog, not a stored
    /// checksum.
    pub reads_feed: bool,
    /// How many objects a scan would have to examine (series, windows or
    /// pairs) — the base of the pruning ratio.
    pub universe: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Index into [`Pass::statements`].
    Query(usize),
    /// Append [`APPEND_POINTS`] points to the next [`APPEND_GROUP`] series
    /// of `feed`.
    Append,
}

#[derive(Debug, Clone, Default)]
pub struct Pass {
    pub statements: Vec<Statement>,
    pub ops: Vec<Op>,
}

impl Pass {
    /// Adds a distinct read statement and schedules it as the pass's next
    /// operation.
    fn read(&mut self, kind: Kind, text: String, on: On) {
        self.statements.push(Statement {
            kind,
            text,
            reads_feed: matches!(on, On::Feed | On::FeedWindows),
            universe: on.universe(),
        });
        self.ops.push(Op::Query(self.statements.len() - 1));
    }

    pub fn kind_of(&self, op: Op) -> Kind {
        match op {
            Op::Query(i) => self.statements[i].kind,
            Op::Append => Kind::Append,
        }
    }
}

/// What a statement searches, which fixes how many objects a scan of it
/// would examine.
#[derive(Debug, Clone, Copy)]
enum On {
    /// Series of `walks`.
    Walks,
    /// Windows of `stocks`.
    Stocks,
    /// Series of `feed`.
    Feed,
    /// Windows of `feed` (as generated; it grows).
    FeedWindows,
    /// Unordered pairs of the series of `pairs`.
    Pairs,
}

impl On {
    fn universe(self) -> usize {
        match self {
            On::Walks => WALKS,
            On::Stocks => STOCKS.0 * (STOCKS.1 - WINDOW + 1),
            On::Feed => FEED.0,
            On::FeedWindows => FEED.0 * (FEED.1 - WINDOW + 1),
            On::Pairs => PAIRS * (PAIRS - 1) / 2,
        }
    }
}

/// Series in `walks`.
const WALKS: usize = WALK_SHAPE.0 * WALK_SHAPE.1 * WALK_SHAPE.2;

pub struct Workload {
    pub name: &'static str,
    pub layout: Layout,
    build: fn(&Calibrator<'_>, &mut Rng) -> Result<Pass, LangError>,
}

impl Workload {
    /// Builds the pass against `oracle`, a plain catalog over the run's
    /// data.
    pub fn build_pass(&self, oracle: &Catalog, seed: u64) -> Result<Pass, LangError> {
        (self.build)(
            &Calibrator { oracle },
            &mut Rng::new(seed ^ 0x0005_eed0_f0b5),
        )
    }
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "probe-mem",
        layout: Layout::Memory,
        build: probe_pass,
    },
    Workload {
        name: "probe-paged",
        layout: Layout::Paged,
        build: probe_pass,
    },
    Workload {
        name: "heavy-shard4",
        layout: Layout::Shard4,
        build: heavy_pass,
    },
    Workload {
        name: "ingest-mix",
        layout: Layout::Memory,
        build: ingest_pass,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Turns "this many answers" into a threshold, on the oracle catalog.
pub struct Calibrator<'a> {
    oracle: &'a Catalog,
}

impl Calibrator<'_> {
    fn scan(&self, text: &str) -> Result<QueryOutput, LangError> {
        self.oracle.execute_with(&parse(text)?, &FORCE_SCAN)
    }

    /// The threshold halfway between the `rows`-th and the next exact
    /// distance of a nearest-neighbour statement asking for `rows + 1`.
    fn threshold(&self, knn: &str, rows: usize) -> Result<f64, LangError> {
        let out = self.scan(knn)?;
        assert!(
            out.rows.len() > rows,
            "{knn}: {} answers, {rows} wanted",
            out.rows.len()
        );
        Ok((out.rows[rows - 1].distance + out.rows[rows].distance) / 2.0)
    }

    /// `FIND SIMILAR` with exactly `rows` answers (the source included).
    fn range(
        &self,
        rel: &str,
        label: usize,
        apply: &str,
        rows: usize,
    ) -> Result<String, LangError> {
        let knn = format!(
            "FIND {} NEAREST TO {rel}.s{label} IN {rel}{apply}",
            rows + 1
        );
        let eps = self.threshold(&knn, rows)?;
        Ok(format!(
            "FIND SIMILAR TO {rel}.s{label} IN {rel} WITHIN {eps}{apply}"
        ))
    }

    /// `FIND SUBSEQUENCE` with exactly `rows` matching windows.
    fn subseq_range(&self, rel: &str, probe: usize, rows: usize) -> Result<String, LangError> {
        let knn = format!(
            "FIND {} NEAREST SUBSEQUENCE OF probes.s{probe} IN {rel} WINDOW {WINDOW}",
            rows + 1
        );
        let eps = self.threshold(&knn, rows)?;
        Ok(format!(
            "FIND SUBSEQUENCE OF probes.s{probe} IN {rel} WITHIN {eps} WINDOW {WINDOW}"
        ))
    }

    /// Join statements (Table 1's query) whose answers number
    /// `targets[i]` pairs each.
    fn joins(&self, targets: &[usize]) -> Result<Vec<String>, LangError> {
        let most = targets.iter().copied().max().unwrap_or(0);
        let mut eps = 0.25;
        let distances = loop {
            let out = self.scan(&format!("JOIN pairs WITHIN {eps} APPLY mavg(8)"))?;
            if out.rows.len() > most {
                let mut d: Vec<f64> = out.rows.iter().map(|r| r.distance).collect();
                d.sort_by(f64::total_cmp);
                break d;
            }
            eps *= 1.5;
        };
        Ok(targets
            .iter()
            .map(|&t| {
                let eps = (distances[t - 1] + distances[t]) / 2.0;
                format!("JOIN pairs WITHIN {eps} APPLY mavg(8)")
            })
            .collect())
    }
}

fn shuffled(mut pass: Pass, rng: &mut Rng) -> Pass {
    rng.shuffle(&mut pass.ops);
    pass
}

/// `probe-mem` and `probe-paged`: 250 cheap reads. 60 % selective range
/// on `walks` (8 of 8 000 series), 10 % the same under `mavg(8)`, 20 %
/// `FIND 5 NEAREST`, 10 % subsequence probes of `stocks` (20 of 384 400
/// windows).
///
/// The plain ranges are the majority so that the pass's median lies in
/// the middle of them: they are the cheapest kind and cost the same from
/// statement to statement, where a range under `mavg(8)` costs ten times
/// as much and anything between 0.6 and 4 ms (the index prunes little
/// under it, and for one statement in three the planner scans instead).
/// The subsequence probes are the dearest tenth, so p95 lies among them.
fn probe_pass(cal: &Calibrator<'_>, rng: &mut Rng) -> Result<Pass, LangError> {
    let mut pass = Pass::default();
    let sources = rng.distinct(225, WALKS);
    for (i, &label) in sources[..175].iter().enumerate() {
        let apply = if i < 25 { " APPLY mavg(8)" } else { "" };
        pass.read(Kind::Range, cal.range("walks", label, apply, 8)?, On::Walks);
    }
    for &label in &sources[175..] {
        let text = format!("FIND 5 NEAREST TO walks.s{label} IN walks");
        pass.read(Kind::Knn, text, On::Walks);
    }
    for probe in rng.distinct(25, STOCK_PROBES) {
        pass.read(
            Kind::Subseq,
            cal.subseq_range("stocks", probe, 20)?,
            On::Stocks,
        );
    }
    Ok(shuffled(pass, rng))
}

/// `heavy-shard4`: 200 expensive reads over 4 hash shards. 40 % `FIND 50
/// NEAREST ... APPLY mavg(8)`, 40 % wide range (160 of 8 000 series),
/// 10 % subsequence kNN, 10 % joins of the 300-series `pairs` (Table 1's
/// query). The joins are the dearest tenth, so p95 is their median.
fn heavy_pass(cal: &Calibrator<'_>, rng: &mut Rng) -> Result<Pass, LangError> {
    let mut pass = Pass::default();
    let sources = rng.distinct(160, WALKS);
    for &label in &sources[..80] {
        let text = format!("FIND 50 NEAREST TO walks.s{label} IN walks APPLY mavg(8)");
        pass.read(Kind::Knn, text, On::Walks);
    }
    for &label in &sources[80..] {
        pass.read(
            Kind::Range,
            cal.range("walks", label, "", WALKS / 50)?,
            On::Walks,
        );
    }
    for probe in rng.distinct(20, STOCK_PROBES) {
        let text =
            format!("FIND 10 NEAREST SUBSEQUENCE OF probes.s{probe} IN stocks WINDOW {WINDOW}");
        pass.read(Kind::Subseq, text, On::Stocks);
    }
    let targets: Vec<usize> = (0..20).map(|i| 20 + 2 * i).collect();
    for join in cal.joins(&targets)? {
        pass.read(Kind::Join, join, On::Pairs);
    }
    Ok(shuffled(pass, rng))
}

/// `ingest-mix`: 100 rounds of two appends (one point to each of the
/// next 5 series of `feed`, then of the 5 after them) and one read — 25
/// subsequence reads of the (then ragged) `feed`, 37 selective ranges and
/// 38 `FIND 5 NEAREST` on the static `walks`, in seeded order; the 200
/// appends go round `feed` twice and leave it uniform again, and the pass
/// ends with 20 whole-match range and 20 kNN reads of it.
///
/// An append is mostly a fixed cost per statement (0.9 ms with 5 points,
/// 1.3 ms with 20: one repack of the whole-match tree per statement), so
/// it is the number of appends, not of points, that makes index
/// maintenance the larger half of the pass: hence two appends and one
/// read a round, not the one append and four reads the defining issue
/// listed. Appends are also the
/// majority of operations, so the pass's median is an append.
fn ingest_pass(cal: &Calibrator<'_>, rng: &mut Rng) -> Result<Pass, LangError> {
    let rounds = FEED.0 / APPEND_GROUP;
    let mut reads = Pass::default();
    for probe in rng.distinct(rounds / 4, PROBES - STOCK_PROBES) {
        reads.read(
            Kind::Subseq,
            cal.subseq_range("feed", STOCK_PROBES + probe, 6)?,
            On::FeedWindows,
        );
    }
    let on_walks = rounds - rounds / 4;
    for (i, label) in rng.distinct(on_walks, WALKS).into_iter().enumerate() {
        if i < on_walks / 2 {
            let range = cal.range("walks", label, "", 8)?;
            reads.read(Kind::Range, range, On::Walks);
        } else {
            let knn = format!("FIND 5 NEAREST TO walks.s{label} IN walks");
            reads.read(Kind::Knn, knn, On::Walks);
        }
    }
    let mut pass = shuffled(reads, rng);
    pass.ops = pass
        .ops
        .iter()
        .flat_map(|&read| [Op::Append, Op::Append, read])
        .collect();
    let feed_sources = rng.distinct(40, FEED.0);
    for &label in &feed_sources[..20] {
        pass.read(Kind::Range, cal.range("feed", label, "", 5)?, On::Feed);
    }
    for &label in &feed_sources[20..] {
        let text = format!("FIND 5 NEAREST TO feed.s{label} IN feed");
        pass.read(Kind::Knn, text, On::Feed);
    }
    Ok(pass)
}
