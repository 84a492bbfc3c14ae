//! Building catalogs and bringing a served one up: the work `setup_s`
//! times, from generated data in hand to the first `PING` answered.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use tsq_core::SeriesRelation;
use tsq_lang::{Catalog, SharedCatalog};
use tsq_series::TimeSeries;
use tsq_service::{Client, ServerHandle, ServiceConfig};

use crate::data::{Data, STOCK_PROBES, WINDOW};
use crate::workload::Layout;
use crate::Res;

/// Pool budget handed to `open_paged`: its minimum. Split over the four
/// restored relations it leaves `walks` 64 pages for a tree of ~260.
pub const PAGED_BUDGET_MIB: usize = 1;

/// A catalog behind a live server, with the one connection that drives
/// it.
pub struct Live {
    pub shared: SharedCatalog,
    pub handle: ServerHandle,
    pub client: Client,
}

impl Live {
    /// Stops the server, waits for its threads, and returns how many
    /// requests it counted as failed, timed out, refused or malformed.
    pub fn tear_down(self) -> u64 {
        drop(self.client);
        let served = self.handle.shutdown();
        served.queries_err + served.timeouts + served.overloads + served.malformed
    }
}

/// A directory of this process's own under the output directory, removed
/// when dropped.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(out_dir: &Path) -> Res<Self> {
        let dir = out_dir.join(format!("scratch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn relation(name: &str, series: &[TimeSeries]) -> Res<SeriesRelation> {
    SeriesRelation::from_series(name, series.to_vec()).map_err(|e| format!("{name}: {e}"))
}

fn register(catalog: &mut Catalog, rel: SeriesRelation) -> Res<()> {
    let name = rel.name().to_string();
    catalog.register(rel).map_err(|e| format!("{name}: {e}"))
}

/// Builds the window-64 ST-index of `rel` by asking one question of it.
fn prime_subseq(catalog: &Catalog, rel: &str, probe: usize) -> Res<()> {
    catalog
        .run(&format!(
            "FIND 1 NEAREST SUBSEQUENCE OF probes.s{probe} IN {rel} WINDOW {WINDOW}"
        ))
        .map(|_| ())
        .map_err(|e| format!("prime {rel}: {e}"))
}

/// The relations of one set-up, cloned out of the generated data before
/// the clock starts.
pub struct Relations {
    walks: SeriesRelation,
    stocks: SeriesRelation,
    probes: SeriesRelation,
    pairs: SeriesRelation,
    feed: SeriesRelation,
}

impl Relations {
    pub fn of(data: &Data) -> Res<Self> {
        Ok(Relations {
            walks: relation("walks", &data.walks)?,
            stocks: relation("stocks", &data.stocks)?,
            probes: relation("probes", &data.probes)?,
            pairs: relation("pairs", &data.pairs)?,
            feed: relation("feed", &data.feed)?,
        })
    }
}

/// The oracle: every relation in a plain in-memory catalog, nothing
/// sharded, nothing paged.
pub fn plain_catalog(data: &Data) -> Res<Catalog> {
    let rels = Relations::of(data)?;
    let mut catalog = Catalog::new();
    for rel in [rels.walks, rels.stocks, rels.probes, rels.pairs, rels.feed] {
        register(&mut catalog, rel)?;
    }
    Ok(catalog)
}

/// The twin: `feed` (and the `probes` its statements name), fed every
/// append the served catalog is fed.
pub fn twin_catalog(data: &Data) -> Res<Catalog> {
    let mut catalog = Catalog::new();
    register(&mut catalog, relation("probes", &data.probes)?)?;
    register(&mut catalog, relation("feed", &data.feed)?)?;
    prime_subseq(&catalog, "feed", STOCK_PROBES)?;
    Ok(catalog)
}

fn build_catalog(layout: Layout, rels: Relations, scratch: &Path) -> Res<Catalog> {
    let mut catalog = Catalog::new();
    for rel in [rels.walks, rels.stocks, rels.probes, rels.pairs] {
        register(&mut catalog, rel)?;
    }
    prime_subseq(&catalog, "stocks", 0)?;
    match layout {
        Layout::Memory => {}
        Layout::Shard4 => {
            for rel in ["walks", "pairs"] {
                catalog
                    .run_mut(&format!("SHARD {rel} INTO 4 BY HASH"))
                    .map_err(|e| format!("shard {rel}: {e}"))?;
            }
        }
        Layout::Paged => {
            // `feed` takes appends, so it must stay out of the snapshot:
            // `open_paged` makes every relation it restores read-only.
            let snapshot = scratch.join("catalog.tsq");
            catalog.save(&snapshot).map_err(|e| format!("save: {e}"))?;
            catalog = Catalog::new();
            catalog
                .open_paged(&snapshot, PAGED_BUDGET_MIB)
                .map_err(|e| format!("open_paged: {e}"))?;
        }
    }
    register(&mut catalog, rels.feed)?;
    prime_subseq(&catalog, "feed", STOCK_PROBES)?;
    Ok(catalog)
}

/// One set-up, timed: register (feature extraction and STR bulk load),
/// prime the ST-indexes, shard or save-and-reopen paged, bind, connect,
/// first `PING`.
pub fn set_up(layout: Layout, rels: Relations, scratch: &Path) -> Res<(Live, f64)> {
    let started = Instant::now();
    let shared = SharedCatalog::new(build_catalog(layout, rels, scratch)?);
    // One connection worker and one execution thread beside the two pool
    // workers: never more runnable threads than this box has cores.
    let config = ServiceConfig {
        workers: 1,
        exec_threads: 1,
        ..ServiceConfig::default()
    };
    let handle = tsq_lang::serve("127.0.0.1:0", shared.clone(), config)
        .map_err(|e| format!("serve: {e}"))?;
    let mut client = Client::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
    client
        .set_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| format!("timeout: {e}"))?;
    client.ping().map_err(|e| format!("ping: {e}"))?;
    let secs = started.elapsed().as_secs_f64();
    Ok((
        Live {
            shared,
            handle,
            client,
        },
        secs,
    ))
}
