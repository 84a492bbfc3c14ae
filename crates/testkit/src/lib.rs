//! The workspace's one test kit, for the `tests/` directories of every
//! crate (never a `#[cfg(test)]` module, so a crate under test links
//! once):
//!
//! - [`Rng`], a seeded SplitMix64 generator, and [`ddmin`], delta
//!   debugging over a list;
//! - [`property`], the property runner over them: seeded cases, a failing
//!   input's list minimized by [`ddmin`], and a report that names the
//!   test, the case, the seed and the minimized input;
//! - the execution layouts the cross-layout suites compare, as one list in
//!   one place, and the differential harness over them ([`differential`]):
//!   the root package's `tests/differential.rs` draws layouts from the
//!   list, the pairwise suites pin the harness to the layouts they name,
//!   and the boundary suites of `tests/planner_consistency.rs` build from
//!   it. A layout never changes an answer: every [`Config`] must return the
//!   rows, order and distance bits of [`Config::REFERENCE`] — one shard, in
//!   memory, in process;
//! - [`heap::Tracking`], a global allocator counting live bytes, which a
//!   heap test installs in its own binary;
//! - the paper's formulas as references the product code is checked
//!   against: a real series' DFT by the defining sums and the
//!   coefficients of every window ([`mod@reference`]), energy and
//!   Euclidean distance in either domain ([`energy`], Equations 3, 7 and
//!   8), circular convolution ([`convolution`], Equations 4 and 6), and
//!   the cost-bounded dissimilarity of Equation 10 ([`cost`]).

#![deny(unsafe_code)]

pub mod convolution;
pub mod cost;
pub mod differential;
pub mod energy;
pub mod heap;
mod property;
pub mod reference;

pub use property::{ddmin, property, seed, Rng};

use std::path::Path;

use tsq_core::{ForceOp, IndexConfig, SeriesRelation};
use tsq_lang::Catalog;
use tsq_series::TimeSeries;

/// Where a catalog's relations live between statements: as registered
/// and appended to, restored by `save → open`, or restored by
/// `save → open_paged(…, 1)` (trees, records and trails behind one 1 MiB
/// buffer cache).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Storage {
    Memory,
    SaveOpen,
    Paged,
}

/// How a statement reaches the catalog: `Catalog::execute_with` and
/// `Catalog::run_mut`, or the binary protocol of a live `tsq-service`
/// socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    InProcess,
    Wire,
}

/// One execution layout: the `force` override (where the form admits
/// it; `None` leaves the statement's own), the `threads` override, the
/// hash shards of every relation, storage and transport. Its `Debug` text,
/// with the variants of [`ForceOp`], [`Storage`] and [`Transport`] in
/// scope, is the Rust expression that builds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    pub force: Option<ForceOp>,
    pub threads: usize,
    pub shards: usize,
    pub storage: Storage,
    pub transport: Transport,
}

/// Every value of each field of a [`Config`].
pub const FORCES: [Option<ForceOp>; 4] = [
    None,
    Some(ForceOp::Scan),
    Some(ForceOp::Index),
    Some(ForceOp::ScanFull),
];
pub const THREADS: [usize; 3] = [1, 2, 4];
pub const SHARDS: [usize; 2] = [1, 3];
pub const STORAGES: [Storage; 3] = [Storage::Memory, Storage::SaveOpen, Storage::Paged];
pub const TRANSPORTS: [Transport; 2] = [Transport::InProcess, Transport::Wire];

impl Config {
    /// The layout every other one is compared with.
    pub const REFERENCE: Config = Config {
        force: None,
        threads: 1,
        shards: 1,
        storage: Storage::Memory,
        transport: Transport::InProcess,
    };

    /// The value of each field, as `field=value`.
    pub fn values(&self) -> [String; 5] {
        let (force, storage, transport) = (self.force, self.storage, self.transport);
        [
            format!("force={force:?}"),
            format!("threads={}", self.threads),
            format!("shards={}", self.shards),
            format!("storage={storage:?}"),
            format!("transport={transport:?}"),
        ]
    }
}

/// The catalog saved at `path`, restored in `storage` (`Memory` as
/// `SaveOpen`) into a catalog that registers under `index`.
pub fn restore(index: IndexConfig, path: &Path, storage: Storage) -> Catalog {
    let mut cat = Catalog::with_config(index);
    match storage {
        Storage::Paged => cat.open_paged(path, 1),
        Storage::Memory | Storage::SaveOpen => cat.open(path),
    }
    .unwrap_or_else(|e| panic!("restore {}: {e}", path.display()));
    cat
}

/// Relation `name` over `series` in `config`'s shards and storage, in
/// process; a restored one is saved under `dir`.
pub fn layout(config: &Config, name: &str, series: &[TimeSeries], dir: &Path) -> Catalog {
    assert_eq!(config.transport, Transport::InProcess);
    let mut cat = Catalog::new();
    let rel = SeriesRelation::from_series(name, series.to_vec()).unwrap();
    cat.register(rel).unwrap();
    let shard = format!("SHARD {name} INTO {} BY HASH", config.shards);
    cat.run_mut(&shard).unwrap();
    if config.storage == Storage::Memory {
        return cat;
    }
    let path = dir.join(format!("{name}-{}-{:?}.tsq", config.shards, config.storage));
    cat.save(&path).unwrap();
    restore(IndexConfig::default(), &path, config.storage)
}
