//! The differential harness: a seeded script generator, the execution
//! layouts of [`super::Config`], the comparison policy and delta debugging.
//! `tests/differential.rs` describes it and runs it over drawn layouts; the
//! pairwise suites' tests run it over the layouts they name ([`pinned`]).

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use super::{Config, Storage, Transport, FORCES, SHARDS, STORAGES, THREADS, TRANSPORTS};
use tsq_core::plan::ExecStats;
use tsq_core::{ForceOp, IndexConfig, QueryOptions, SeriesRelation};
use tsq_lang::{parse, AppendRow, Catalog, LangError, Query, QueryOutput, Row, SharedCatalog};
use tsq_rtree::RTreeConfig;
use tsq_series::TimeSeries;
use tsq_service::{Client, ClientError, ServerHandle, ServiceConfig, WireRow};

/// The first seed, and statements per script.
pub const SEED: u64 = 0x7571_2026;
const STATEMENTS: usize = 16;

/// A fan-out of 4 gives a handful of series a tree of several levels.
fn index_config() -> IndexConfig {
    let rtree = RTreeConfig::with_max_entries(4);
    IndexConfig {
        rtree,
        ..IndexConfig::default()
    }
}

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi.max(lo) - lo + 1) as u64) as usize
    }
    fn chance(&mut self, percent: usize) -> bool {
        self.range(1, 100) <= percent
    }
    fn pick<T: Clone>(&mut self, from: &[T]) -> T {
        from[self.range(0, from.len() - 1)].clone()
    }
    /// One of the `|`-separated `choices`.
    fn one_of(&mut self, choices: &'static str) -> &'static str {
        self.pick(&choices.split('|').collect::<Vec<_>>())
    }
}

// ---------------------------------------------------------------- scripts

const APPLY: &str = "|| APPLY mavg(3)| APPLY reverse| APPLY shift(2.5)\
    | APPLY scale(-2), shift(3)| APPLY mavg(4), reverse| APPLY warp(2)";
const WHERE: &str = "|| WHERE MEAN BETWEEN -2 AND 3| WHERE STD BETWEEN 0 AND 2.5\
    | WHERE MEAN BETWEEN -5 AND 5 AND STD BETWEEN 0.5 AND 4";
const WITH: &str = "||| WITH (force = scan)| WITH (force = index)| WITH (threads = 2)\
    | WITH (shards = 1)| WITH (force = scan, threads = 2, shards = 1)";
const MUST_FAIL: &str = "FIND 2 NEAREST TO @.nobody IN @|FIND 2 NEAREST TO no.s0 IN no\
    |FIND SIMILAR TO @.s0 IN @ WITHIN 1 WITH (force = scanfull)|JOIN @ WITHIN 1 APPLY warp(2)\
    |JOIN @ WITHIN 1 WITH (force = tree)|FIND SUBSEQUENCE OF [1, 2, 3] IN @ WITHIN 1 WINDOW 8\
    |FIND 3 NEAREST TO @.s0 IN @ APPLY mavg(999)|JOIN @ WITHIN -1|EXPLAIN EXPLAIN JOIN @ WITHIN 1\
    |EXPLAIN APPEND @ s0 VALUES (1)|SHARD @ INTO 0 BY HASH|APPEND no s0 VALUES (1)";

/// A walk in steps of 0.5: coarse values make exact distance ties.
fn walk(rng: &mut Rng, from: f64, len: usize) -> Vec<f64> {
    let mut at = from;
    let mut step = || {
        at += 0.5 * rng.range(0, 4) as f64 - 1.0;
        at
    };
    (0..len).map(|_| step()).collect()
}

fn list(values: &[f64]) -> String {
    let values: Vec<String> = values.iter().map(f64::to_string).collect();
    values.join(", ")
}

/// `len` points of a stored series from `at`, nudged by at most a quarter
/// (a walk past its end), as a literal.
fn nudged(rng: &mut Rng, rel: &SeriesRelation, at: usize, len: usize) -> String {
    let id = rng.range(0, rel.len() - 1);
    let base = rel.get(id).unwrap().values();
    let mut out = walk(rng, 0.0, len);
    for (i, v) in out.iter_mut().enumerate() {
        if let Some(b) = base.get(at + i) {
            *v = b + 0.25 * (rng.range(0, 2) as f64 - 1.0);
        }
    }
    format!("[{}]", list(&out))
}

/// Tags of a statement: its form first, then the cases it reaches.
type Tags = Vec<&'static str>;

/// The next statement against `cat`'s state; a `large` script registers
/// relations of 20 to 48 series, any other of 4 to 8.
fn statement(rng: &mut Rng, cat: &Catalog, large: bool) -> (String, Tags) {
    let names = cat.relation_names();
    if names.is_empty() || rng.chance(4) {
        let (name, count) = (rng.one_of("w|v"), [(4, 8), (20, 48)][usize::from(large)]);
        let tags = [&["register"][..], &["register", "large"]][usize::from(large)];
        return (register(rng, name, count), tags.to_vec());
    }
    let r = rng.pick(&names);
    let rel = cat.relation(&r).expect("in memory");
    match rng.range(0, 99) {
        0..=7 => (rng.one_of(MUST_FAIL).replace('@', &r), vec!["must-fail"]),
        8..=21 => append(rng, &r, rel),
        22..=27 => (format!("SHARD {r} INTO 1 BY HASH"), vec!["shard"]),
        _ => {
            let (text, mut tags) = read(rng, cat, &r, rel);
            let explain = rng.one_of("||||||EXPLAIN |EXPLAIN ANALYZE ");
            let tag = ["", "explain", "analyze"][explain.len().div_ceil(8)];
            tags.extend(Some(tag).filter(|t| !t.is_empty()));
            (format!("{explain}{text}"), tags)
        }
    }
}

fn register(rng: &mut Rng, name: &str, (fewest, most): (usize, usize)) -> String {
    let (len, mut rows) = (rng.range(12, 20), Vec::new());
    let mut text = format!("REGISTER {name} CSV");
    for i in 0..rng.range(fewest, most) {
        let from = rng.range(0, 8) as f64 - 4.0;
        let row = match i > 0 && rng.chance(25) {
            true => rng.pick(&rows),
            false => walk(rng, from, len),
        };
        text += &format!(" (s{i}, {})", list(&row));
        rows.push(row);
    }
    text
}

fn read(rng: &mut Rng, cat: &Catalog, r: &str, rel: &SeriesRelation) -> (String, Tags) {
    let len = rel.get(0).map_or(0, TimeSeries::len);
    let (with, apply) = (rng.one_of(WITH), rng.one_of(APPLY));
    let source = |rng: &mut Rng| -> String {
        if apply.contains("warp") {
            return nudged(rng, rel, 0, 2 * len);
        }
        let other = rng.chance(15).then(|| rng.pick(&cat.relation_names()));
        let r = other.as_deref().unwrap_or(r);
        let rel = cat.relation(r).unwrap();
        match rng.chance(55) {
            true => format!("{r}.{}", rel.label(rng.range(0, rel.len() - 1)).unwrap()),
            false => nudged(rng, rel, 0, len),
        }
    };
    let form = rng.range(0, 99);
    if form < 50 {
        let src = source(rng);
        let (window, k) = (rng.one_of(WHERE), rng.range(1, rel.len() + 1));
        let eps = rng.pick(&[0.0, 0.5, 2.0, 5.0, 10.0, 20.0, 40.0]);
        let text = match form < 30 {
            true => format!("FIND SIMILAR TO {src} IN {r} WITHIN {eps}{apply}{window}{with}"),
            false => format!("FIND {k} NEAREST TO {src} IN {r}{apply}{with}"),
        };
        return (text, vec![["knn", "range"][usize::from(form < 30)]]);
    }
    if form < 65 {
        let eps = rng.pick(&[0.0, 1.0, 2.0, 4.0, 8.0, 16.0]);
        let full = rng.chance(20);
        let with = [with, " WITH (force = scanfull)"][usize::from(full)];
        // `warp` changes the length, which a self-join refuses.
        let apply = [apply.trim_end_matches(" APPLY warp(2)"), apply][usize::from(rng.chance(10))];
        let tags = [&["join"][..], &["join", "scanfull-join"]][usize::from(full)];
        return (format!("JOIN {r} WITHIN {eps}{apply}{with}"), tags.to_vec());
    }
    let (window, tag) = match cat.subseq_window(r) {
        Some(held) if held > 4 && rng.chance(33) => (rng.range(4, held - 1), "subseq<held"),
        Some(held) if rng.chance(50) => (rng.range(held + 1, held + 8), "subseq>held"),
        Some(held) => (held, "subseq=held"),
        None => (rng.range(4, 12), "subseq-cold"),
    };
    let at = rng.range(0, 8);
    let src = nudged(rng, rel, at, window);
    let (eps, k) = (rng.pick(&[0.0, 0.5, 1.0, 2.0, 4.0, 8.0]), rng.range(1, 6));
    let range = rng.chance(50);
    let text = match range {
        true => format!("FIND SUBSEQUENCE OF {src} IN {r} WITHIN {eps} WINDOW {window}{with}"),
        false => format!("FIND {k} NEAREST SUBSEQUENCE OF {src} IN {r} WINDOW {window}{with}"),
    };
    let form = ["subseq-knn", "subseq-range"][usize::from(range)];
    (text, vec![form, tag])
}

fn append(rng: &mut Rng, r: &str, rel: &SeriesRelation) -> (String, Tags) {
    let series = (0..rel.len()).map(|id| rel.get(id).unwrap().values());
    let longest = series.map(<[f64]>::len).max().unwrap_or(0);
    let tail = |rng: &mut Rng, id: usize, to: usize| {
        let (label, held) = (rel.label(id).unwrap(), rel.get(id).unwrap().values());
        let values = walk(rng, held[held.len() - 1], to - held.len());
        (label.to_string(), values)
    };
    let fresh = |rng: &mut Rng, len| (format!("n{}", rel.len()), walk(rng, 0.0, len));
    let mut rows = Vec::new();
    match rng.range(0, 3) {
        // Every series one to three points past the longest (healing a
        // ragged relation); a new label may enter at that length.
        0 | 1 => {
            let to = longest + rng.range(1, 3);
            rows.extend((0..rel.len()).map(|id| tail(rng, id, to)));
            rows.extend(rng.chance(50).then(|| fresh(rng, to)));
        }
        // A few series grow unevenly: the relation goes ragged.
        2 => {
            for _ in 0..rng.range(1, 3) {
                let id = rng.range(0, rel.len() - 1);
                let to = rel.get(id).unwrap().len() + rng.range(1, 3);
                rows.push(tail(rng, id, to));
            }
        }
        // A new label enters shorter than the rest.
        _ => {
            let len = rng.range(6, longest.max(6));
            rows.push(fresh(rng, len));
        }
    }
    let new = rows.iter().any(|row| rel.get_by_label(&row.0).is_none());
    let tags = [&["append"][..], &["append", "new-label"]][usize::from(new)].to_vec();
    let text = match &rows[..] {
        [(label, values)] if rng.chance(50) => format!("{label} VALUES ({})", list(values)),
        _ => {
            let rows = rows.iter().map(|(l, v)| format!("({l}, {})", list(v)));
            format!("CSV {}", rows.collect::<Vec<_>>().join(" "))
        }
    };
    (format!("APPEND {r} {text}"), tags)
}

// ---------------------------------------------------------------- layouts

type Answer = Result<QueryOutput, String>;

fn lang<T>(result: Result<T, LangError>) -> Result<T, String> {
    result.map_err(|e| e.to_string())
}

/// A statement's query, out of its `EXPLAIN`.
fn inner(query: &Query) -> &Query {
    match query {
        Query::Explain { query, .. } => query,
        q => q,
    }
}

/// The force `config` puts on `query`: none where it or the statement's
/// own is `scanfull` on a form other than a join.
fn force_for(config: &Config, query: &Query) -> Option<ForceOp> {
    let join = matches!(inner(query), Query::Join { .. });
    let admits = |force: Option<ForceOp>| join || force != Some(ForceOp::ScanFull);
    let own = inner(query).options().force;
    config.force.filter(|_| admits(config.force) && admits(own))
}

/// `text` with its `WITH` clause carrying `force` (if any) and `threads`:
/// the overrides as statement text, for the wire.
fn with_options(text: &str, force: Option<ForceOp>, threads: usize) -> String {
    let (head, options) = match text.rfind(" WITH (") {
        Some(at) => (&text[..at], &text[at + 7..text.len() - 1]),
        None => (text, ""),
    };
    let mut kept = String::new();
    for o in options.split(", ").filter(|o| !o.is_empty()) {
        if !o.starts_with("threads") && (force.is_none() || !o.starts_with("force")) {
            kept += &format!("{o}, ");
        }
    }
    let force = force.map_or(String::new(), |f| format!("force = {}, ", f.name()));
    format!("{head} WITH ({kept}{force}threads = {threads})")
}

/// The relation of a `REGISTER` statement; `None` for any other.
fn registered(text: &str) -> Option<Result<SeriesRelation, String>> {
    let rest = text.strip_prefix("REGISTER ")?;
    let Ok(Query::Append { relation, rows }) = parse(&format!("APPEND {rest}")) else {
        return Some(Err(format!("not a relation: {text}")));
    };
    let series = |row: AppendRow| (row.label, TimeSeries::new(row.values));
    let rows = rows.into_iter().map(series).collect();
    Some(SeriesRelation::from_labeled(relation, rows).map_err(|e| e.to_string()))
}

/// A live server over a catalog, and what its client saw: successes,
/// failures, scattered answers, shard blocks.
struct Served {
    shared: SharedCatalog,
    handle: ServerHandle,
    client: Client,
    seen: [u64; 4],
}

impl Served {
    fn start(cat: Catalog) -> Served {
        let shared = SharedCatalog::new(cat);
        let mut config = ServiceConfig::default();
        (config.workers, config.exec_threads) = (2, 2);
        let handle = tsq_lang::serve("127.0.0.1:0", shared.clone(), config).unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        client.set_timeout(Some(Duration::from_secs(30))).unwrap();
        Served {
            shared,
            handle,
            client,
            seen: [0; 4],
        }
    }

    fn query(&mut self, text: &str) -> Answer {
        let answer = match self.client.query(text) {
            Ok(reply) => {
                let offset = |o: Option<u64>| o.map(|o| o as usize);
                let row = |r: WireRow| Row {
                    offset: offset(r.offset),
                    a: r.a,
                    b: r.b,
                    distance: r.distance,
                };
                let rows = reply.rows.into_iter().map(row).collect();
                let (stats, shard_stats, plan) = (reply.stats, reply.shard_stats, reply.plan);
                Ok(QueryOutput {
                    rows,
                    stats,
                    shard_stats,
                    plan,
                    explain: None,
                })
            }
            Err(ClientError::Remote(e)) => Err(e.message),
            Err(other) => Err(format!("transport failure: {other}")),
        };
        self.count(&answer);
        answer
    }

    fn count(&mut self, answer: &Answer) {
        let blocks = answer.as_ref().map_or(0, |o| o.shard_stats.len()) as u64;
        let seen = [answer.is_ok(), answer.is_err(), blocks > 0].map(u64::from);
        for (n, add) in self.seen.iter_mut().zip(seen.into_iter().chain([blocks])) {
            *n += add;
        }
    }

    /// A read, over the binary protocol and then the HTTP facade, which
    /// must render its plan, row count, first row and shard blocks.
    fn read(&mut self, text: &str) -> Answer {
        let out = self.query(text)?;
        let mut http = TcpStream::connect(self.handle.addr()).unwrap();
        let len = text.len();
        let head = format!("POST /query HTTP/1.1\r\nContent-Length: {len}\r\n\r\n");
        let mut answer = String::new();
        http.write_all((head + text).as_bytes()).unwrap();
        http.read_to_string(&mut answer).unwrap();
        let mut want = vec!["200 OK".to_string(), format!("\"plan\":\"{}\"", out.plan)];
        want.push(format!("\"row_count\":{}", out.rows.len()));
        want.extend(out.rows.first().map(|row| format!("\"a\":\"{}\"", row.a)));
        want.extend((!out.shard_stats.is_empty()).then(|| "\"shards\":[{".to_string()));
        if let Some(lacks) = want.iter().find(|w| !answer.contains(w.as_str())) {
            return Err(format!("over HTTP `{text}` lacks {lacks}: {answer}"));
        }
        let out = Ok(out);
        self.count(&out);
        out
    }

    /// Stops the server, whose metrics must count what the client saw
    /// (each read twice), and hands its catalog back.
    fn stop(self) -> Result<Catalog, String> {
        drop(self.client);
        let s = self.handle.shutdown();
        let (ok, err) = (s.queries_ok, s.queries_err + s.unsupported);
        let counted = [ok, err, s.sharded_queries, s.shards_probed];
        let seen = self.seen;
        if counted != seen || s.in_flight != 0 {
            return Err(format!("server counted {counted:?}, client {seen:?}"));
        }
        let held = self.shared.into_inner();
        held.map_err(|_| "the stopped server holds its catalog".into())
    }
}

/// What answers a layout's statements.
enum Live {
    Local(Catalog),
    Served(Box<Served>),
}

impl Live {
    fn new(config: &Config, cat: Catalog) -> Live {
        match config.transport {
            Transport::InProcess => Live::Local(cat),
            Transport::Wire => Live::Served(Box::new(Served::start(cat))),
        }
    }

    /// Runs a statement under `config`'s overrides; a `REGISTER` registers
    /// its relation at `config`'s shard count.
    fn run(&mut self, text: &str, config: &Config) -> Answer {
        if let Some(rel) = registered(text) {
            let rel = rel?;
            let shard = format!("SHARD {} INTO {} BY HASH", rel.name(), config.shards);
            match self {
                Live::Local(cat) => lang(cat.register(rel))?,
                Live::Served(served) => lang(served.shared.register(rel))?,
            }
            return self.run(&shard, config);
        }
        let query = lang(parse(text));
        let force = query.as_ref().ok().and_then(|q| force_for(config, q));
        let mutation = matches!(query, Ok(Query::Append { .. } | Query::Shard { .. }));
        match self {
            Live::Local(cat) if mutation => lang(cat.run_mut(text)),
            Live::Local(cat) => {
                let mut options = QueryOptions::default();
                (options.force, options.threads) = (force, Some(config.threads));
                lang(cat.execute_with(&query?, &options))
            }
            Live::Served(served) if mutation || query.is_err() => served.query(text),
            Live::Served(served) => served.read(&with_options(text, force, config.threads)),
        }
    }

    /// The catalog, its server stopped.
    fn into_catalog(self) -> Result<Catalog, String> {
        match self {
            Live::Local(cat) => Ok(cat),
            Live::Served(served) => served.stop(),
        }
    }
}

static SCRATCH: AtomicUsize = AtomicUsize::new(0);

/// One configuration running a script: `live` answers; with restored
/// storage, `writer` takes the mutations and `dirty` marks one since the
/// last restore. The scratch directory holds the saves.
struct Layout {
    config: Config,
    writer: Option<Live>,
    live: Live,
    dirty: bool,
    dir: std::path::PathBuf,
}

impl Drop for Layout {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// A layout's state at the end of a script: its snapshot, and each
/// relation with its held window.
struct End(Vec<u8>, Vec<(SeriesRelation, Option<usize>)>);

/// The snapshot of a catalog freshly registered from `relations` in
/// `shards` hash shards, each holding its window.
fn fresh(relations: &[(SeriesRelation, Option<usize>)], shards: usize) -> Result<Vec<u8>, String> {
    let mut cat = Catalog::with_config(index_config());
    for (rel, window) in relations {
        let name = rel.name().to_string();
        lang(cat.register(rel.clone()))?;
        lang(cat.run_mut(&format!("SHARD {name} INTO {shards} BY HASH")))?;
        if let Some(w) = window {
            let z = list(&vec![0.0; *w]);
            let probe = format!("FIND SUBSEQUENCE OF [{z}] IN {name} WITHIN 0 WINDOW {w}");
            lang(cat.run(&probe))?;
        }
    }
    lang(cat.snapshot_bytes())
}

impl Layout {
    fn new(config: Config) -> Layout {
        let fresh = || Catalog::with_config(index_config());
        let writer = (config.storage != Storage::Memory).then(|| Live::Local(fresh()));
        let n = SCRATCH.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("tsq-differential-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (live, dirty) = (Live::new(&config, fresh()), false);
        Layout {
            config,
            writer,
            live,
            dirty,
            dir,
        }
    }

    fn run(&mut self, text: &str) -> Answer {
        let config = self.config;
        let query = parse(text).ok();
        let mutation = matches!(query, Some(Query::Append { .. } | Query::Shard { .. }));
        if mutation || text.starts_with("REGISTER ") {
            // The script's shard statements run at the layout's shard count.
            let shards = format!(" INTO {} BY HASH", config.shards);
            let text = text.replace(" INTO 1 BY HASH", &shards);
            let target = self.writer.as_mut().unwrap_or(&mut self.live);
            let answer = target.run(&text, &config);
            self.dirty |= self.writer.is_some() && answer.is_ok();
            return answer;
        }
        self.checkpoint()?;
        // A subsequence statement may build the window a save writes.
        if let (Some(writer), true) = (&mut self.writer, text.contains("SUBSEQUENCE")) {
            writer.run(text, &Config::REFERENCE).ok();
        }
        self.live.run(text, &config)
    }

    /// Restores the reads' catalog from the writer's save, if a mutation
    /// came since the last.
    fn checkpoint(&mut self) -> Result<(), String> {
        let (true, Some(Live::Local(writer))) = (self.dirty, &self.writer) else {
            return Ok(());
        };
        self.dirty = false;
        let n = SCRATCH.fetch_add(1, Ordering::Relaxed);
        let path = self.dir.join(format!("{n}.tsq"));
        lang(writer.save(&path))?;
        std::mem::replace(&mut self.live, Live::Local(Catalog::new())).into_catalog()?;
        let restored = super::restore(index_config(), &path, self.config.storage);
        self.live = Live::new(&self.config, restored);
        Ok(())
    }

    fn finish(mut self) -> Result<End, String> {
        self.checkpoint()?;
        let cat = std::mem::replace(&mut self.live, Live::Local(Catalog::new())).into_catalog()?;
        let (bytes, path) = (lang(cat.snapshot_bytes())?, self.dir.join("end.tsq"));
        lang(cat.save(&path))?;
        let again = super::restore(index_config(), &path, self.config.storage);
        if lang(again.snapshot_bytes())? != bytes {
            return Err("its own save and restore changed its snapshot".to_string());
        }
        let names = cat.relation_names();
        let held = |name: &String| (cat.relation(name).unwrap().clone(), cat.subseq_window(name));
        Ok(End(bytes, names.iter().map(held).collect()))
    }
}

/// A layout, its answer to every statement of a script, and its end state
/// (a panic ends it there).
struct Trace(Config, Vec<Answer>, Result<End, String>);

fn end(trace: &Trace) -> Result<&End, String> {
    trace.2.as_ref().map_err(|e| format!("{:?}: {e}", trace.0))
}

fn trace(config: Config, script: &[String]) -> Trace {
    let mut answers = Vec::new();
    let run = catch_unwind(AssertUnwindSafe(|| {
        let mut layout = Layout::new(config);
        answers.extend(script.iter().map(|text| layout.run(text)));
        layout.finish()
    }));
    let end = run.unwrap_or_else(|_| Err("panicked (its message is above)".into()));
    answers.resize_with(script.len(), || Err("not run: the layout panicked".into()));
    Trace(config, answers, end)
}

// ---------------------------------------------------------------- policy

/// A row as compared: labels, offset and distance bits.
type Key<'a> = (&'a str, Option<&'a str>, Option<usize>, u64);

fn key(r: &Row) -> Key<'_> {
    (&r.a, r.b.as_deref(), r.offset, r.distance.to_bits())
}

/// Non-pool counters.
fn counted(s: &ExecStats) -> [u64; 5] {
    let [c, r, f] = [s.candidates, s.refined, s.false_hits].map(|n| n as u64);
    [c, r, f, s.nodes_visited, s.disk_accesses]
}

/// A join's rows as sorted unordered pairs, once each; `None` when a
/// `doubled` answer lacks a pair's mirror.
fn pairs(out: &QueryOutput, doubled: bool) -> Option<Vec<(&str, &str, u64)>> {
    let mut rows: Vec<Key<'_>> = out.rows.iter().map(key).collect();
    rows.sort_unstable();
    let (mut once, mut mirrored) = (Vec::new(), true);
    for &(a, b, o, d) in &rows {
        let b = b.unwrap();
        mirrored &= rows.binary_search(&(b, Some(a), o, d)).is_ok();
        once.push((a.min(b), a.max(b), d));
    }
    once.sort();
    if doubled {
        once.dedup();
    }
    (mirrored || !doubled).then_some(once)
}

/// The lines of a plan text that start with `prefix`, less `[forced]`.
fn lines(text: Option<&str>, prefix: &str) -> Vec<String> {
    let found = text.unwrap_or("").lines();
    let found = found.filter(|l| l.trim_start().starts_with(prefix));
    found.map(|l| l.replace(" [forced]", "")).collect()
}

/// The scan alternatives of a plan text's `considered:` line.
fn scans(text: Option<&str>) -> Vec<String> {
    let considered = lines(text, "considered:").concat();
    let alternatives = considered.split(['|', ':']);
    let scans = alternatives.filter(|alt| alt.contains("Scan"));
    scans.map(|alt| alt.trim().to_string()).collect()
}

/// One statement's answer in `config` against the reference's and its
/// peer's; `extended` when one side's held ST-index grew by `APPEND` and
/// the other's is a fresh build of the same series.
fn diff(
    text: &str,
    config: &Config,
    extended: bool,
    want: &Answer,
    peer: Option<&Answer>,
    got: &Answer,
) -> Check {
    let (want, got) = match (want, got) {
        (Err(a), Err(b)) if a == b => return Ok(()),
        (Ok(want), Ok(got)) => (want, got),
        (want, got) => return Err(format!("{got:?}; the reference's {want:?}")),
    };
    let query = parse(text).ok();
    let own = query.as_ref().and_then(|q| inner(q).options().force);
    let force = query.as_ref().and_then(|q| force_for(config, q)).or(own);
    let join = matches!(query.as_ref().map(inner), Some(Query::Join { .. }));
    let shard = text.starts_with("REGISTER ") || matches!(query, Some(Query::Shard { .. }));
    let ran = !matches!(query, Some(Query::Explain { analyze: false, .. }));
    let scattered = got.plan.starts_with("Sharded(");
    let blocks = got.shard_stats.len() == if scattered && ran { config.shards } else { 0 };
    let (s, sum) = (&got.stats, ExecStats::sum(&got.shard_stats));
    let summed = got.shard_stats.is_empty() || *s == sum;
    let pooled = [s.pool_hits, s.pool_misses, s.record_hits, s.record_misses];
    let unpooled = config.storage == Storage::Paged || pooled == [0; 4];
    let doubled = |force: Option<ForceOp>| join && force == Some(ForceOp::Index);
    let mirrored = !join || pairs(got, doubled(force)).is_some();
    let paired = !join || pairs(got, doubled(force)) == pairs(want, doubled(own));
    let rows = shard || doubled(force) != doubled(own) || keys(got) == keys(want);
    let operator = |plan: &str| plan.split_once("):").map_or(plan, |(_, op)| op).to_string();
    let op = operator(&got.plan);
    let same_op = op == operator(&want.plan);
    // An extended ST-index holds a fresh build's trails in its own node
    // layout: the rows are the same, its node counts its own.
    let own_layout = extended && op.starts_with("Subseq");
    let layout_free = op.contains("Scan") || op.starts_with("Subseq");
    let alike = same_op && !own_layout && (config.shards == 1 || layout_free);
    let counters = !alike || counted(s) == counted(&want.stats);
    let candidates = |s: &ExecStats| (s.candidates, s.refined, s.false_hits);
    let range = matches!(query.as_ref().map(inner), Some(Query::SubseqSimilar { .. }));
    let candidate_level = same_op && (op == "JoinIndex" || own_layout && range);
    let candidates = !candidate_level || candidates(s) == candidates(&want.stats);
    let (mine, theirs) = (got.explain.as_deref(), want.explain.as_deref());
    let plain = !scattered && mine.is_some() && theirs.is_some();
    let one_plan = !plain || !mine.unwrap_or("").contains("shard");
    let scan_estimates = !plain || scans(mine) == scans(theirs);
    let same = |prefix| lines(mine, prefix) == lines(theirs, prefix);
    // A forced index join reports each pair twice, a planned one once.
    let actual = doubled(force) != doubled(own) || same("actual:");
    let plan_lines = !plain || !alike || (same("=>") && actual);
    let checks = [
        (blocks, "one counter block per shard of a scattered run"),
        (summed, "counters that sum the blocks"),
        (unpooled, "no pool traffic in memory"),
        (mirrored, "both directions of each forced index pair"),
        (paired, "the join pairs"),
        (rows, "the rows"),
        (counters, "the counters"),
        (candidates, "the candidate counters"),
        (one_plan, "one plan line, not shard blocks"),
        (scan_estimates, "the scan estimates"),
        (plan_lines, "the operator and actual lines"),
    ];
    if let Some((_, what)) = checks.iter().find(|check| !check.0) {
        return Err(format!("not {what}: {got:?}; the reference's {want:?}"));
    }
    // What only the shard count and the force may move.
    let Some(Ok(peer)) = peer else { return Ok(()) };
    let per_shard = |out: &QueryOutput| out.shard_stats.iter().map(counted).collect::<Vec<_>>();
    let unmeasured = |out: &QueryOutput| {
        let mut lines = lines(out.explain.as_deref(), "");
        lines.retain(|l| !l.contains("measured:"));
        lines
    };
    let counters = counted(s) == counted(&peer.stats) && per_shard(got) == per_shard(peer);
    let counters = counters || own_layout;
    let texts = own_layout || got.explain.is_none() || peer.explain.is_none();
    let texts = texts || unmeasured(got) == unmeasured(peer);
    let checks = [
        (got.plan == peer.plan, "the plan"),
        (counters, "the counters"),
        (!shard || got.rows == peer.rows, "the shard sizes"),
        (texts, "the plan text"),
    ];
    match checks.iter().find(|check| !check.0) {
        Some((_, what)) => Err(format!("not its peer's {what}: {got:?}; {peer:?}")),
        None => Ok(()),
    }
}

fn keys(out: &QueryOutput) -> Vec<Key<'_>> {
    out.rows.iter().map(key).collect()
}

type Check = Result<(), String>;

/// A layout's trace against the reference's and its peer's.
fn compare(script: &[String], want: &Trace, peer: Option<&Trace>, got: &Trace) -> Check {
    let config = &got.0;
    // Restored storage rebuilds a held ST-index from the saved series.
    let restored = |c: &Config| c.storage != Storage::Memory;
    let restored = restored(config) || peer.is_some_and(|p| restored(&p.0));
    let mut appended = false;
    for (i, text) in script.iter().enumerate() {
        let (theirs, peer) = (&want.1[i], peer.map(|p| &p.1[i]));
        let diff = diff(text, config, appended && restored, theirs, peer, &got.1[i]);
        diff.map_err(|why| format!("{config:?}, statement {} `{text}`: {why}", i + 1))?;
        appended |= text.starts_with("APPEND ") && theirs.is_ok();
    }
    let (want, end) = (end(want)?, end(got)?);
    let windows = |end: &End| end.1.iter().map(|(_, w)| *w).collect::<Vec<_>>();
    let fresh = fresh(&want.1, config.shards)?;
    if windows(end) != windows(want) || end.0 != fresh {
        let (mine, theirs, fresh) = (windows(end), windows(want), end.0 == fresh);
        return Err(format!("{config:?} ends with windows {mine:?} (the reference's {theirs:?}) and a fresh catalog's snapshot: {fresh}"));
    }
    Ok(())
}

/// Runs `script` on `configs` after the reference, each compared with the
/// reference and with its peer (the first earlier layout of its shards and
/// force); the first divergence.
fn check(configs: &[Config], script: &[String], reference: &Trace) -> Check {
    compare(script, reference, None, reference)?;
    let key = |c: &Config| (c.shards, c.force);
    let mut traces: Vec<Trace> = Vec::new();
    for &config in configs {
        let got = trace(config, script);
        let mut earlier = std::iter::once(reference).chain(&traces);
        let peer = earlier.find(|t| key(&t.0) == key(&config));
        compare(script, reference, peer, &got)?;
        traces.push(got);
    }
    Ok(())
}

/// Delta debugging over statements: drop chunks of the script while
/// `fails` still holds, halving the chunk when no drop does, down to
/// single statements — a 1-minimal failing script.
fn ddmin(mut script: Vec<String>, fails: impl Fn(&[String]) -> bool) -> Vec<String> {
    let mut chunk = script.len().div_ceil(2);
    while chunk > 0 {
        let drop = |lo: usize| {
            let mut rest = script.clone();
            rest.drain(lo..(lo + chunk).min(script.len()));
            fails(&rest).then_some(rest)
        };
        match (0..script.len()).step_by(chunk).find_map(drop) {
            Some(rest) => script = rest,
            None => chunk /= 2,
        }
    }
    script
}

/// Replays a printed script on the reference and `configs`, panicking at
/// the first divergence.
pub fn replay(configs: &[Config], script: &str) {
    let lines = script.lines().map(str::trim).filter(|l| !l.is_empty());
    let script: Vec<String> = lines.map(String::from).collect();
    if let Err(why) = check(configs, &script, &trace(Config::REFERENCE, &script)) {
        panic!("{why}");
    }
}

// ---------------------------------------------------------------- the run

/// How often each tag met each configuration value (`tag × field=value`,
/// `tag × any`) and each value was drawn (`drawn × field=value`).
pub type Coverage = BTreeMap<String, usize>;

/// The case of `seed` (large relations at every fourth seed), run on `fixed`
/// layouts or on three drawn ones; its coverage counted into `coverage`.
/// On a divergence, the report.
pub fn case(
    seed: u64,
    fixed: Option<&[Config]>,
    mut coverage: Coverage,
) -> Result<Coverage, String> {
    let mut rng = Rng(seed);
    let mut layout = Layout::new(Config::REFERENCE);
    let (mut script, mut tags, mut answers) = (Vec::new(), Vec::new(), Vec::new());
    while script.len() < STATEMENTS {
        let Live::Local(cat) = &layout.live else {
            unreachable!("in process")
        };
        let (text, t) = statement(&mut rng, cat, seed % 4 == 3);
        answers.push(layout.run(&text));
        script.push(text);
        tags.push(t);
    }
    let reference = Trace(Config::REFERENCE, answers, layout.finish());
    let mut draw = || {
        let mut c = Config::REFERENCE;
        (c.force, c.threads, c.shards) = (rng.pick(&FORCES), rng.pick(&THREADS), rng.pick(&SHARDS));
        (c.storage, c.transport) = (rng.pick(&STORAGES), TRANSPORTS[usize::from(rng.chance(30))]);
        c
    };
    let configs = match fixed {
        Some(configs) => configs.to_vec(),
        None => {
            let (first, mut second) = (draw(), draw());
            (second.shards, second.force) = (first.shards, first.force);
            vec![first, second, draw()]
        }
    };
    for ((text, tags), answer) in script.iter().zip(&tags).zip(&reference.1) {
        if tags[0] == "must-fail" && answer.is_ok() {
            return Err(format!("seed {seed:#x}: `{text}` must fail"));
        }
        let mut tags = tags.clone();
        if let Err(e) = answer {
            tags.retain(|&tag| tag != "new-label");
            tags.push("error");
            tags.extend(e.contains("ragged").then_some("ragged-refusal"));
        }
        for config in &configs {
            let full = config.force == Some(ForceOp::ScanFull) && tags[0] == "join";
            let tags = tags.iter().chain(full.then_some(&"scanfull-join"));
            let values = || config.values().into_iter().chain(["any".to_string()]);
            for (tag, value) in tags.flat_map(|t| values().map(move |v| (t, v))) {
                *coverage.entry(format!("{tag} × {value}")).or_default() += 1;
            }
        }
    }
    if fixed.is_none() {
        for value in configs.iter().flat_map(Config::values) {
            *coverage.entry(format!("drawn × {value}")).or_default() += 1;
        }
    }
    let Err(why) = check(&configs, &script, &reference) else {
        return Ok(coverage);
    };
    let fails = |s: &[String]| check(&configs, s, &trace(Config::REFERENCE, s)).is_err();
    let small = ddmin(script.clone(), fails);
    let again = check(&configs, &small, &trace(Config::REFERENCE, &small));
    let why = again.err().unwrap_or(why);
    let (from, to, small) = (script.len(), small.len(), small.join("\n"));
    let scope = "use tsq_core::ForceOp::*;\n    use common::{Storage::*, Transport::*};";
    Err(format!("seed {seed:#x}: {why}\nminimized from {from} to {to} statement(s); as a test body:\n    {scope}\n    replay(&{configs:?}, r#\"\n{small}\n\"#);"))
}

/// The harness pinned to `configs`: `cases` scripts from seed `SEED +
/// offset`, each run on every one of `configs` against the reference.
pub fn pinned(offset: u64, cases: u64, configs: &[Config]) {
    for seed in (0..cases).map(|i| SEED + offset + i) {
        case(seed, Some(configs), Coverage::new()).unwrap_or_else(|why| panic!("{why}"));
    }
}
