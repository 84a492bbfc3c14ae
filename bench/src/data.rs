//! Seeded inputs. Everything the program is fed derives from `--seed`:
//! the same seed gives the same relations, statements and appended
//! points.

use tsq_series::generate::{RandomWalkGenerator, StockGenerator};
use tsq_series::TimeSeries;

/// Series length of the whole-match relations.
pub const WALK_LEN: usize = 128;
/// Sliding-window length of every subsequence statement.
pub const WINDOW: usize = 64;
/// `walks`: 250 roots x 2 branches x 16 leaves.
pub const WALK_SHAPE: (usize, usize, usize) = (250, 2, 16);
pub const STOCKS: (usize, usize) = (400, 1024);
pub const FEED: (usize, usize) = (500, 512);
/// Series in the join relation `pairs` (of `WALK_LEN` points each).
pub const PAIRS: usize = 300;
pub const PROBES: usize = 1000;
/// The first `STOCK_PROBES` patterns are cut from `stocks`, the rest
/// from `feed`.
pub const STOCK_PROBES: usize = 600;

/// splitmix64 — small, seedable, and good enough to pick series, offsets
/// and noise.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..hi`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }

    /// `count` distinct values of `0..n`, in draw order.
    pub fn distinct(&mut self, count: usize, n: usize) -> Vec<usize> {
        assert!(count <= n, "cannot draw {count} distinct values of {n}");
        let mut pool: Vec<usize> = (0..n).collect();
        for i in 0..count {
            let j = i + self.below(n - i);
            pool.swap(i, j);
        }
        pool.truncate(count);
        pool
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The generated relations of one run.
#[derive(Debug, Clone)]
pub struct Data {
    pub walks: Vec<TimeSeries>,
    pub stocks: Vec<TimeSeries>,
    pub probes: Vec<TimeSeries>,
    pub pairs: Vec<TimeSeries>,
    pub feed: Vec<TimeSeries>,
}

fn add(base: &[f64], noise: &TimeSeries) -> Vec<f64> {
    base.iter()
        .zip(noise.values())
        .map(|(x, y)| x + y)
        .collect()
}

/// Random walks with neighbours: every root walk (the paper's Section-5
/// generator) carries branches that wander off it by a finer walk, and
/// every branch carries leaves that wander off by a finer one still.
/// Similarity search presumes that similar series exist; among
/// independent walks the nearest of 8 000 is so far away that a range
/// query at any small selectivity covers the whole feature space, and
/// the planner rightly scans.
fn family_walks(seed: u64) -> Vec<TimeSeries> {
    let (roots, branches, leaves) = WALK_SHAPE;
    let mut root_gen = RandomWalkGenerator::new(seed);
    let noise = |seed: u64, step: f64| {
        let mut g = RandomWalkGenerator::new(seed);
        g.start_range = (-step, step);
        g.step_range = (-step, step);
        g
    };
    let mut branch_gen = noise(seed ^ 0x0b5a_9c11, 1.0);
    let mut leaf_gen = noise(seed ^ 0x1eaf_0037, 0.3);
    let mut out = Vec::with_capacity(roots * branches * leaves);
    for _ in 0..roots {
        let root = root_gen.series(WALK_LEN);
        for _ in 0..branches {
            let branch = add(root.values(), &branch_gen.series(WALK_LEN));
            for _ in 0..leaves {
                out.push(TimeSeries::new(add(&branch, &leaf_gen.series(WALK_LEN))));
            }
        }
    }
    out
}

/// A pattern to look for: a window of `source`, every value off by up to
/// half a percent, so its best match is close but not exact.
fn cut_probe(rng: &mut Rng, source: &[TimeSeries]) -> TimeSeries {
    let series = source[rng.below(source.len())].values();
    let offset = rng.below(series.len() - WINDOW + 1);
    TimeSeries::new(
        series[offset..offset + WINDOW]
            .iter()
            .map(|v| v * rng.uniform(0.995, 1.005))
            .collect(),
    )
}

/// Generates every relation.
pub fn generate(seed: u64) -> Data {
    let walks = family_walks(seed.wrapping_mul(0x1000_0001).wrapping_add(1));
    let stocks = StockGenerator::new(seed.wrapping_add(2)).relation(STOCKS.0, STOCKS.1);
    let pairs = StockGenerator::new(seed.wrapping_add(3)).relation(PAIRS, WALK_LEN);
    let feed = RandomWalkGenerator::new(seed.wrapping_add(4)).relation(FEED.0, FEED.1);
    let mut rng = Rng::new(seed.wrapping_add(5));
    let probes = (0..PROBES)
        .map(|i| {
            let source = if i < STOCK_PROBES { &stocks } else { &feed };
            cut_probe(&mut rng, source)
        })
        .collect();
    Data {
        walks,
        stocks,
        probes,
        pairs,
        feed,
    }
}
