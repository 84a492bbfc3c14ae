//! One benchmark run: generate, calibrate, set up, verify every
//! statement, repeat the pass a fixed number of times over one
//! closed-loop connection, compute every timing metric per pass and
//! report its median over the passes.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use tsq_lang::{parse, AppendRow, Catalog, Query, Row};
use tsq_service::{ClientError, IngestRow, QueryReply};

use crate::check::{self, SlidingOracle};
use crate::data::{self, Data, Rng, FEED};
use crate::machine::{self, IdleSpinners, MachineProbe, MachineSample};
use crate::setup::{self, Live, Relations, Scratch};
use crate::stats::{median, min, percentile};
use crate::workload::{Kind, Op, Pass, Workload, APPEND_GROUP, APPEND_POINTS, FORCE_SCAN};
use crate::Res;

/// Set-ups per run; `setup_s` is the fastest of them.
pub const SETUPS: usize = 7;
/// What one pass is sized to take on the reference box (they take 0.3 to
/// 0.55 s). The number of timed passes is `--seconds` over this, fixed
/// before the first pass: a run never stops on the clock, so its counts
/// repeat exactly. The benchmark's 15 seconds are 30 passes.
pub const PASS_NOMINAL_SECS: f64 = 0.5;
const MIN_TIMED_PASSES: usize = 5;
/// Reads of `feed` are checked against the twin on the warm-up pass, on
/// every this-many-th timed pass and on the last one; appends on every
/// pass.
const FEED_CHECK_EVERY: usize = 5;
/// Every this-many-th distinct subsequence statement is also checked
/// against the sliding scan.
const SLIDING_CHECK_EVERY: usize = 4;

pub struct Args {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where traces and scratch files go.
    pub out_dir: PathBuf,
    /// Where to save this run's result for `compare`, if anywhere.
    pub save_dir: Option<PathBuf>,
}

/// A named value with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Saved beside the metrics, not printed: what a reader needs to
    /// tell machine drift from a change.
    pub info: Vec<Metric>,
}

pub fn timed_passes(seconds: f64) -> usize {
    ((seconds / PASS_NOMINAL_SECS).round() as usize).max(MIN_TIMED_PASSES)
}

/// One operation as it was observed from the client's side.
pub struct Issued {
    pub kind: Kind,
    pub start: Instant,
    pub end: Instant,
    pub reply: Result<QueryReply, ClientError>,
    /// The rows an append carried (empty for reads).
    pub appended: Vec<IngestRow>,
}

impl Issued {
    pub fn secs(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }
}

/// The served catalog, its twin and the pass, with the bookkeeping that
/// turns replies into `attempted` and `failed`.
pub struct Driver {
    pub live: Live,
    pub twin: Catalog,
    pub pass: Pass,
    pub queries: Vec<Query>,
    /// Checksum of the verified reply to each static statement.
    checksums: Vec<u64>,
    feed_tail: Vec<f64>,
    points: Rng,
    appends_done: usize,
    pub attempted: u64,
    pub failed: u64,
}

impl Driver {
    fn fail(&mut self, what: &str, why: &str) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("FAILED {what}: {why}");
        }
    }

    /// The next append: `APPEND_POINTS` more steps of the random walk of each
    /// of the next `APPEND_GROUP` series of `feed`.
    fn next_append(&mut self) -> Vec<IngestRow> {
        let groups = FEED.0 / APPEND_GROUP;
        let first = (self.appends_done % groups) * APPEND_GROUP;
        self.appends_done += 1;
        (first..first + APPEND_GROUP)
            .map(|id| {
                let values = (0..APPEND_POINTS)
                    .map(|_| {
                        self.feed_tail[id] += self.points.uniform(-4.0, 4.0);
                        self.feed_tail[id]
                    })
                    .collect();
                IngestRow {
                    label: format!("s{id}"),
                    values,
                }
            })
            .collect()
    }

    /// Applies an append to the twin and returns its acknowledgement.
    pub fn append_to_twin(&mut self, rows: &[IngestRow]) -> Res<Vec<Row>> {
        let rows: Vec<AppendRow> = rows
            .iter()
            .map(|r| AppendRow {
                label: r.label.clone(),
                values: r.values.clone(),
            })
            .collect();
        self.twin
            .append("feed", &rows)
            .map(|out| out.rows)
            .map_err(|e| format!("twin append: {e}"))
    }

    /// Sends one operation and times it; nothing is checked here.
    pub fn issue(&mut self, op: Op) -> Issued {
        let appended = match op {
            Op::Query(_) => Vec::new(),
            Op::Append => self.next_append(),
        };
        let sent = appended.clone();
        let start = Instant::now();
        let reply = match op {
            Op::Query(i) => self.live.client.query(&self.pass.statements[i].text),
            Op::Append => self.live.client.append("feed", sent),
        };
        let end = Instant::now();
        Issued {
            kind: self.pass.kind_of(op),
            start,
            end,
            reply,
            appended,
        }
    }

    /// Checks a read's reply after its clock has stopped: a static read
    /// against its verified checksum, a read of `feed` (when `check_feed`)
    /// against a forced scan of the twin.
    pub fn check_read(&mut self, statement: usize, issued: &Issued, check_feed: bool) {
        self.attempted += 1;
        let reads_feed = self.pass.statements[statement].reads_feed;
        let checked = match &issued.reply {
            Err(e) => Err(e.to_string()),
            Ok(reply) if !reads_feed => (check::checksum(&reply.rows) == self.checksums[statement])
                .then_some(())
                .ok_or_else(|| "reply differs from the verified one".to_string()),
            Ok(reply) if check_feed => self
                .twin
                .execute_with(&self.queries[statement], &FORCE_SCAN)
                .map_err(|e| format!("twin: {e}"))
                .and_then(|out| check::same_rows(&reply.rows, &out.rows)),
            Ok(_) => Ok(()),
        };
        if let Err(why) = checked {
            let text = self.pass.statements[statement].text.clone();
            self.fail(&text, &why);
        }
    }

    /// Checks an append's acknowledgement against the twin's.
    pub fn check_append(&mut self, issued: &Issued, twin_ack: Res<Vec<Row>>) {
        self.attempted += 1;
        let checked = match (&issued.reply, twin_ack) {
            (Err(e), _) => Err(e.to_string()),
            (_, Err(why)) => Err(why),
            (Ok(reply), Ok(rows)) => check::same_rows(&reply.rows, &rows),
        };
        if let Err(why) = checked {
            self.fail("APPEND feed", &why);
        }
    }

    /// Issues and checks one operation.
    fn step(&mut self, op: Op, check_feed: bool) -> Issued {
        let issued = self.issue(op);
        match op {
            Op::Query(statement) => self.check_read(statement, &issued, check_feed),
            Op::Append => {
                let ack = self.append_to_twin(&issued.appended);
                self.check_append(&issued, ack);
            }
        }
        issued
    }

    /// One pass, every operation checked after its clock stops. Returns
    /// the client-side latency of each operation, in seconds.
    pub fn plain_pass(&mut self, check_feed: bool) -> Vec<f64> {
        (0..self.pass.ops.len())
            .map(|i| self.step(self.pass.ops[i], check_feed).secs())
            .collect()
    }
}

/// The latency and throughput metrics of one pass whose operations took
/// `secs[i]` seconds on the client's side of the socket. A form the pass
/// does not issue reads 0.
fn pass_metrics(pass: &Pass, secs: &[f64]) -> Vec<Metric> {
    let of_kind = |kind: Kind| -> Vec<f64> {
        pass.ops
            .iter()
            .zip(secs)
            .filter(|(op, _)| pass.kind_of(**op) == kind)
            .map(|(_, secs)| *secs)
            .collect()
    };
    let mut metrics = vec![
        // The pass's wall time less what the harness does between
        // operations (checksums, the twin): with one closed-loop
        // connection that is the sum of the round trips.
        Metric::new("qps", secs.len() as f64 / secs.iter().sum::<f64>(), "1/s"),
        Metric::new("p50_ms", percentile(secs, 0.50) * 1e3, "ms"),
        Metric::new("p95_ms", percentile(secs, 0.95) * 1e3, "ms"),
    ];
    for kind in [Kind::Range, Kind::Knn, Kind::Subseq, Kind::Join] {
        metrics.push(Metric::new(
            format!("{}_p50_ms", kind.name()),
            median(&of_kind(kind)) * 1e3,
            "ms",
        ));
    }
    let appends = of_kind(Kind::Append);
    let points = appends.len() * APPEND_GROUP * APPEND_POINTS;
    let kpts_s = if appends.is_empty() {
        0.0
    } else {
        points as f64 / appends.iter().sum::<f64>() / 1e3
    };
    metrics.push(Metric::new("append_kpts_s", kpts_s, "kpts/s"));
    metrics
}

/// Every timing metric computed per pass, then the median over passes.
pub fn timing_metrics(pass: &Pass, passes: &[Vec<f64>]) -> Vec<Metric> {
    let per_pass: Vec<Vec<Metric>> = passes.iter().map(|secs| pass_metrics(pass, secs)).collect();
    let Some(first) = per_pass.first() else {
        return Vec::new();
    };
    (0..first.len())
        .map(|m| {
            let values: Vec<f64> = per_pass.iter().map(|p| p[m].value).collect();
            Metric::new(first[m].name.clone(), median(&values), first[m].unit)
        })
        .collect()
}

/// Everything before the first pass: the data, the pass, the oracle's
/// answers checked over the wire, and one served catalog.
pub struct Prepared {
    pub driver: Driver,
    pub first_setup_secs: f64,
    pub data: Data,
    pub scratch: Scratch,
}

pub fn prepare(args: &Args) -> Res<Prepared> {
    let workload = args.workload;
    let data = data::generate(args.seed);

    // Calibrate and collect the oracle's answers on a plain catalog.
    let oracle = setup::plain_catalog(&data)?;
    let pass = workload
        .build_pass(&oracle, args.seed)
        .map_err(|e| format!("building the pass: {e}"))?;
    let queries: Vec<Query> = pass
        .statements
        .iter()
        .map(|s| parse(&s.text).map_err(|e| format!("{}: {e}", s.text)))
        .collect::<Res<_>>()?;
    let mut expected: Vec<Vec<Row>> = Vec::with_capacity(queries.len());
    for (statement, query) in pass.statements.iter().zip(&queries) {
        if statement.reads_feed {
            // Answers change as `feed` grows; the twin checks these.
            expected.push(Vec::new());
            continue;
        }
        let out = oracle
            .execute_with(query, &FORCE_SCAN)
            .map_err(|e| format!("oracle: {}: {e}", statement.text))?;
        expected.push(out.rows);
    }
    let mut pre_failures: Vec<(String, String)> = Vec::new();
    let sliding = SlidingOracle::over(&data.stocks)?;
    let on_stocks = pass
        .statements
        .iter()
        .enumerate()
        .filter(|(_, s)| s.kind == Kind::Subseq && !s.reads_feed);
    for (i, statement) in on_stocks.step_by(SLIDING_CHECK_EVERY) {
        if let Err(why) = sliding.check(&oracle, &statement.text, &expected[i]) {
            pre_failures.push((statement.text.clone(), format!("sliding scan: {why}")));
        }
    }
    drop(sliding);
    drop(oracle);
    let twin = setup::twin_catalog(&data)?;
    let feed_tail: Vec<f64> = data
        .feed
        .iter()
        .map(|s| *s.values().last().expect("feed series are not empty"))
        .collect();

    let scratch = Scratch::new(&args.out_dir)?;
    let (live, first_setup_secs) =
        setup::set_up(workload.layout, Relations::of(&data)?, scratch.path())?;
    let mut driver = Driver {
        live,
        twin,
        checksums: vec![0; pass.statements.len()],
        pass,
        queries,
        feed_tail,
        points: Rng::new(args.seed ^ 0x00fe_ed00),
        appends_done: 0,
        attempted: 0,
        failed: 0,
    };
    for (text, why) in pre_failures {
        driver.attempted += 1;
        driver.fail(&text, &why);
    }

    // The gate: every distinct static statement's wire reply against the
    // oracle's answer, row by row; afterwards its checksum stands for it.
    let mut plans: BTreeMap<(&'static str, String), usize> = BTreeMap::new();
    for (i, rows) in expected.iter().enumerate() {
        if driver.pass.statements[i].reads_feed {
            continue;
        }
        let text = driver.pass.statements[i].text.clone();
        driver.attempted += 1;
        driver.checksums[i] = check::checksum(&check::to_wire(rows));
        match driver.live.client.query(&text) {
            Ok(reply) => {
                let kind = driver.pass.statements[i].kind.name();
                *plans.entry((kind, reply.plan.clone())).or_default() += 1;
                if let Err(why) = check::same_rows(&reply.rows, rows) {
                    driver.fail(&text, &why);
                }
            }
            Err(e) => driver.fail(&text, &e.to_string()),
        }
    }
    // For people: which physical operator answers how many statements of
    // each kind. A seed on which the planner flips shows here.
    for ((kind, plan), count) in &plans {
        eprintln!("plan {kind:<7} {plan:<28} {count}");
    }
    Ok(Prepared {
        driver,
        first_setup_secs,
        data,
        scratch,
    })
}

/// The median of each probe over the samples taken between passes.
pub fn machine_metrics(samples: &[MachineSample]) -> Vec<Metric> {
    let col = |f: fn(&MachineSample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    vec![
        Metric::new("machine.spin_ms", col(|s| s.spin_ms), "ms"),
        Metric::new("machine.chase_ns", col(|s| s.chase_ns), "ns"),
        Metric::new("machine.stream_gib_s", col(|s| s.stream_gib_s), "GiB/s"),
    ]
}

/// The timed run (`--trace 0`).
pub fn timed(args: &Args) -> Res<Outcome> {
    let _awake = IdleSpinners::start()?;
    let Prepared {
        mut driver,
        first_setup_secs,
        data,
        scratch,
    } = prepare(args)?;
    drop(data);
    let passes = timed_passes(args.seconds);

    let mut probe = MachineProbe::new();
    let mut machine_samples = Vec::with_capacity(passes + 1);
    driver.plain_pass(true); // warm-up, discarded
    let mut samples: Vec<Vec<f64>> = Vec::with_capacity(passes);
    for pass_no in 0..passes {
        machine_samples.push(probe.sample());
        let check_feed = pass_no % FEED_CHECK_EVERY == 0 || pass_no + 1 == passes;
        samples.push(driver.plain_pass(check_feed));
    }
    machine_samples.push(probe.sample());
    // Only the served catalog and its server may be resident when memory
    // is read: the process has set up once, and everything else goes.
    let Driver {
        live,
        twin,
        pass,
        queries,
        attempted,
        failed,
        ..
    } = driver;
    drop((probe, twin, queries));
    machine::release_freed_memory();
    let (rss_mib, hwm_mib) = machine::rss_and_hwm_mib();
    let served_errors = live.tear_down();

    // The other set-ups come after memory is read, so that none of them
    // leaves its fragments in the heap `rss_mib` measures.
    let mut setup_secs = vec![first_setup_secs];
    let data = data::generate(args.seed);
    for _ in 1..SETUPS {
        let rels = Relations::of(&data)?;
        let (live, secs) = setup::set_up(args.workload.layout, rels, scratch.path())?;
        setup_secs.push(secs);
        live.tear_down();
    }
    drop(scratch);

    let metrics = vec![
        Metric::new("setup_s", min(&setup_secs), "s"),
        Metric::new("rss_mib", rss_mib, "MiB"),
    ];
    // The latency and throughput metrics are per-layer metrics (the
    // traced run reports them): on the reference box none of them repeats
    // within a tenth from run to run. A timed run still measures them
    // over all its passes, and saves them for `compare`.
    let mut info = timing_metrics(&pass, &samples);
    info.extend(machine_metrics(&machine_samples));
    info.push(Metric::new("proc.hwm_mib", hwm_mib, "MiB"));
    info.push(Metric::new("setup_median_s", median(&setup_secs), "s"));
    info.push(Metric::new("passes", passes as f64, "count"));
    info.push(Metric::new("ops_per_pass", pass.ops.len() as f64, "count"));
    let busy: Vec<f64> = samples.iter().map(|pass| pass.iter().sum()).collect();
    info.push(Metric::new("pass_busy_median_s", median(&busy), "s"));
    info.push(Metric::new("service.errors", served_errors as f64, "count"));
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        info,
    })
}

/// Writes `bytes` to `dir/name`, creating `dir`.
pub fn write_into(dir: &Path, name: &str, bytes: &[u8]) -> Res<()> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, bytes).map_err(|e| format!("{}: {e}", path.display()))
}
