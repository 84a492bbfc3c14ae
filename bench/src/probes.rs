//! Fixed-input probes of the lower layers: each calls one layer's public
//! function directly, on the workload's own data, from this package's
//! code. They say what a layer costs on its own, so that a change in an
//! end-to-end metric can be laid at a layer's door.

use std::fs::File;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use tsq_core::shard::{ShardSpec, ShardedIndex};
use tsq_core::{IndexConfig, SimilarityIndex, SubseqConfig, SubseqIndex};
use tsq_dft::{FftPlanner, SlidingCursor};
use tsq_lang::Catalog;
use tsq_rtree::{BufferPool, PageId, RStarTree, Rect};
use tsq_series::distance::distance_sq_within;

use crate::data::{Data, WINDOW};
use crate::run::Metric;
use crate::setup::{relation, PAGED_BUDGET_MIB};
use crate::stats::median;
use crate::Res;

/// Times `f` `reps` times and returns the median, in seconds.
fn median_secs<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

const REPS: usize = 3;

/// `dft.*`: one length-128 transform, and one step of the sliding DFT.
fn dft(data: &Data, out: &mut Vec<Metric>) {
    let mut planner = FftPlanner::new();
    let series = &data.walks[..2000];
    let secs = median_secs(REPS, || {
        for s in series {
            black_box(planner.dft_real(s.values()));
        }
    });
    out.push(Metric::new(
        "dft.fft128_us",
        secs * 1e6 / series.len() as f64,
        "us",
    ));

    let k = SubseqConfig::new(WINDOW).k;
    let stocks = &data.stocks[..16];
    let steps: usize = stocks.iter().map(|s| s.len() - WINDOW).sum();
    let secs = median_secs(REPS, || {
        for s in stocks {
            let x = s.values();
            let mut cursor = SlidingCursor::new(x, WINDOW, k);
            for _ in 0..x.len() - WINDOW {
                cursor.advance(x);
            }
            black_box(cursor.coeffs());
        }
    });
    out.push(Metric::new(
        "dft.slide_ns_per_step",
        secs * 1e9 / steps as f64,
        "ns",
    ));
}

/// `series.*`: the refine kernel, run to the end and abandoned a quarter
/// of the way in. Both are per point of the full series, so their ratio
/// is what abandoning saves.
fn series(data: &Data, out: &mut Vec<Metric>) {
    let walks = &data.walks;
    let len = walks[0].len();
    let pairs: Vec<(usize, usize)> = (0..4000).map(|i| (i, walks.len() - 1 - i)).collect();
    let points = (pairs.len() * len) as f64;
    let secs = median_secs(REPS, || {
        let mut acc = 0.0;
        for &(a, b) in &pairs {
            acc += distance_sq_within(walks[a].values(), walks[b].values(), f64::INFINITY)
                .unwrap_or(0.0);
        }
        acc
    });
    out.push(Metric::new(
        "series.distance_ns_per_point",
        secs * 1e9 / points,
        "ns",
    ));
    // The limit is each pair's own partial sum a quarter of the way in,
    // so the kernel gives up at the first block boundary past it.
    let limits: Vec<f64> = pairs
        .iter()
        .map(|&(a, b)| {
            distance_sq_within(
                &walks[a].values()[..len / 4],
                &walks[b].values()[..len / 4],
                f64::INFINITY,
            )
            .unwrap_or(0.0)
        })
        .collect();
    let secs = median_secs(REPS, || {
        let mut abandoned = 0usize;
        for (&(a, b), &limit) in pairs.iter().zip(&limits) {
            if distance_sq_within(walks[a].values(), walks[b].values(), limit).is_none() {
                abandoned += 1;
            }
        }
        abandoned
    });
    out.push(Metric::new(
        "series.distance_abandon25_ns_per_point",
        secs * 1e9 / points,
        "ns",
    ));
}

/// `rtree.*_ns_per_node`: window and nearest-neighbour traversals of the
/// `walks` tree, through `SimilarityIndex::tree()`.
fn rtree_traversals(index: &SimilarityIndex, out: &mut Vec<Metric>) {
    let config = index.config();
    let points: Vec<Vec<f64>> = index
        .entries()
        .iter()
        .step_by(index.len() / 200)
        .map(|e| config.space.point(&e.features, config.schema))
        .collect();
    let tree = index.tree();
    let mut nodes = 0u64;
    let secs = median_secs(REPS, || {
        nodes = 0;
        for p in &points {
            let query = Rect::from_point(p).expanded(0.05);
            nodes += tree.search(&query, |_, _| {}).nodes_visited;
        }
    });
    out.push(Metric::new(
        "rtree.search_ns_per_node",
        secs * 1e9 / nodes as f64,
        "ns",
    ));
    let secs = median_secs(REPS, || {
        nodes = 0;
        for p in &points {
            let (_, stats) = tree.nearest_with(
                5,
                |rect| rect.min_dist2(p).sqrt(),
                |rect, _| rect.min_dist2(p).sqrt(),
            );
            nodes += stats.nodes_visited;
        }
    });
    out.push(Metric::new(
        "rtree.knn_ns_per_node",
        secs * 1e9 / nodes as f64,
        "ns",
    ));
}

/// `rtree.pin_*`, `rtree.tree_pages`, `rtree.pool_capacity_pages`: the
/// `walks` tree written as a page file with the pool `probe-paged`
/// gives it, then every page pinned cold and pinned again warm through a
/// pool of this package's own over the same file (the node decoder is
/// private to `tsq-rtree`, so a miss here reads and checksums the page
/// but decodes nothing).
fn pager(index: &SimilarityIndex, scratch: &Path, out: &mut Vec<Metric>) -> Res<()> {
    let path = scratch.join("probe.pages");
    let mut paged = index.clone();
    // `open_paged` splits its budget over the four restored relations.
    let budget = ((PAGED_BUDGET_MIB as u64) << 20) / 4;
    paged
        .attach_paged_budget(&path, budget)
        .map_err(|e| format!("attach paged: {e}"))?;
    let tree = paged.paged().expect("just attached");
    let (pages, page_size) = (tree.page_count(), tree.page_size());
    out.push(Metric::new("rtree.tree_pages", pages as f64, "count"));
    out.push(Metric::new(
        "rtree.pool_capacity_pages",
        tree.pool().capacity_pages() as f64,
        "count",
    ));

    let file = File::open(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let pool: BufferPool<Vec<u8>> = BufferPool::new(file, page_size, pages, usize::MAX);
    let sweep = || -> Res<f64> {
        let t = Instant::now();
        for id in 0..pages {
            let (pin, _) = pool
                .pin(PageId(id), |bytes| Ok(bytes.to_vec()))
                .map_err(|e| format!("pin: {e}"))?;
            black_box(pin.len());
        }
        Ok(t.elapsed().as_secs_f64() / pages as f64)
    };
    let mut miss = Vec::new();
    let mut hit = Vec::new();
    for _ in 0..REPS {
        pool.flush();
        miss.push(sweep()?);
        hit.push(sweep()?);
    }
    out.push(Metric::new("rtree.pin_miss_us", median(&miss) * 1e6, "us"));
    out.push(Metric::new("rtree.pin_hit_ns", median(&hit) * 1e9, "ns"));
    Ok(())
}

/// `store.*`: framing and checksumming 8 MiB.
fn store(out: &mut Vec<Metric>) {
    let payload: Vec<u8> = (0..8usize << 20).map(|i| ((i * 31) >> 3) as u8).collect();
    let mib = payload.len() as f64 / (1 << 20) as f64;
    let secs = median_secs(REPS, || tsq_store::seal(&payload).len());
    out.push(Metric::new("store.seal_mib_s", mib / secs, "MiB/s"));
    let secs = median_secs(REPS, || tsq_store::crc32(&payload));
    out.push(Metric::new("store.crc_mib_s", mib / secs, "MiB/s"));
}

/// `pool.map_submit_us`: one `Pool::map` fan-out over 64 items that do
/// nothing — what submitting and joining costs.
fn pool(out: &mut Vec<Metric>) {
    let pool = tsq_pool::Pool::global();
    let calls = 200;
    let secs = median_secs(REPS, || {
        for _ in 0..calls {
            black_box(pool.map(pool.workers() + 1, vec![0u32; 64], |x| x));
        }
    });
    out.push(Metric::new(
        "pool.map_submit_us",
        secs * 1e6 / calls as f64,
        "us",
    ));
}

/// `core.*_build_s` and `rtree.bulk_load_s`. Returns the `walks` index
/// for the traversal probes.
fn builds(data: &Data, out: &mut Vec<Metric>) -> Res<SimilarityIndex> {
    let config = IndexConfig::default();
    let mut index = None;
    let secs = median_secs(REPS, || {
        index = Some(SimilarityIndex::build(config, data.walks.clone()));
    });
    let index = index
        .expect("REPS is at least one")
        .map_err(|e| format!("index build: {e}"))?;
    out.push(Metric::new("core.index_build_s", secs, "s"));

    let items: Vec<(Rect, usize)> = index
        .entries()
        .iter()
        .enumerate()
        .map(|(id, e)| {
            (
                Rect::from_point(&config.space.point(&e.features, config.schema)),
                id,
            )
        })
        .collect();
    let secs = median_secs(REPS, || {
        RStarTree::bulk_load(config.rtree, items.clone()).len()
    });
    out.push(Metric::new("rtree.bulk_load_s", secs, "s"));

    let mut built = Ok(());
    let secs = median_secs(REPS, || {
        built = SubseqIndex::build(SubseqConfig::new(WINDOW), data.stocks.clone()).map(|_| ());
    });
    built.map_err(|e| format!("subseq build: {e}"))?;
    out.push(Metric::new("core.subseq_build_s", secs, "s"));

    let walks = relation("walks", &data.walks)?;
    let mut built = Ok(());
    let secs = median_secs(REPS, || {
        built = ShardSpec::hash(4)
            .and_then(|spec| ShardedIndex::build(config, &walks, spec))
            .map(|_| ());
    });
    built.map_err(|e| format!("shard build: {e}"))?;
    out.push(Metric::new("core.shard_build_s", secs, "s"));
    Ok(index)
}

/// `core.tlb`: tightness of the lower bound — the distance the index
/// sees (the indexed DFT coefficients) over the true distance (the full
/// spectrum), on sampled pairs of `walks`. 1 would be a perfect filter.
fn tlb(index: &SimilarityIndex, out: &mut Vec<Metric>) {
    let schema = index.config().schema;
    let n = index.len();
    let ratios: Vec<f64> = (0..2000)
        .filter_map(|i| {
            let a = index.features((i * 7919) % n)?;
            let b = index.features((i * 104_729 + 1) % n)?;
            let dist = |x: &[tsq_dft::Complex64], y: &[tsq_dft::Complex64]| -> f64 {
                x.iter()
                    .zip(y)
                    .map(|(p, q)| (*p - *q).norm_sqr())
                    .sum::<f64>()
                    .sqrt()
            };
            let truth = dist(&a.spectrum, &b.spectrum);
            (truth > 0.0).then(|| dist(a.indexed_coeffs(schema), b.indexed_coeffs(schema)) / truth)
        })
        .collect();
    out.push(Metric::new(
        "core.tlb",
        ratios.iter().sum::<f64>() / ratios.len().max(1) as f64,
        "ratio",
    ));
}

/// `lang.save_s`, `lang.open_s`, `lang.open_paged_s` and
/// `lang.snapshot_bytes_per_data_byte`, on the catalog `probe-paged`
/// snapshots.
fn snapshots(data: &Data, scratch: &Path, out: &mut Vec<Metric>) -> Res<()> {
    let mut catalog = Catalog::new();
    let mut data_bytes = 0usize;
    for (name, series) in [
        ("walks", &data.walks),
        ("stocks", &data.stocks),
        ("probes", &data.probes),
        ("pairs", &data.pairs),
    ] {
        data_bytes += series.iter().map(|s| s.len() * 8).sum::<usize>();
        catalog
            .register(relation(name, series)?)
            .map_err(|e| format!("{name}: {e}"))?;
    }
    catalog
        .run(&format!(
            "FIND 1 NEAREST SUBSEQUENCE OF probes.s0 IN stocks WINDOW {WINDOW}"
        ))
        .map_err(|e| format!("prime: {e}"))?;
    let path = scratch.join("probe.tsq");
    let mut bytes = Ok(0);
    let secs = median_secs(REPS, || bytes = catalog.save(&path));
    let bytes = bytes.map_err(|e| format!("save: {e}"))?;
    out.push(Metric::new("lang.save_s", secs, "s"));
    out.push(Metric::new(
        "lang.snapshot_bytes_per_data_byte",
        bytes as f64 / data_bytes as f64,
        "ratio",
    ));
    drop(catalog);

    let mut opened = Ok(());
    let secs = median_secs(REPS, || {
        opened = Catalog::new().open(&path).map(|_| ());
    });
    opened.map_err(|e| format!("open: {e}"))?;
    out.push(Metric::new("lang.open_s", secs, "s"));
    let mut opened = Ok(());
    let secs = median_secs(REPS, || {
        opened = Catalog::new()
            .open_paged(&path, PAGED_BUDGET_MIB)
            .map(|_| ());
    });
    opened.map_err(|e| format!("open_paged: {e}"))?;
    out.push(Metric::new("lang.open_paged_s", secs, "s"));
    Ok(())
}

/// Runs every probe.
pub fn all(data: &Data, scratch: &Path) -> Res<Vec<Metric>> {
    let mut out = Vec::new();
    dft(data, &mut out);
    series(data, &mut out);
    let index = builds(data, &mut out)?;
    rtree_traversals(&index, &mut out);
    tlb(&index, &mut out);
    pager(&index, scratch, &mut out)?;
    drop(index);
    store(&mut out);
    pool(&mut out);
    snapshots(data, scratch, &mut out)?;
    Ok(out)
}
