//! # tsq-rtree — R\*-tree substrate for similarity-based time-series queries
//!
//! A from-scratch implementation of the R\*-tree (Beckmann, Kriegel,
//! Schneider, Seeger, SIGMOD 1990), the index the paper *Similarity-Based
//! Queries for Time Series Data* (Rafiei & Mendelzon, SIGMOD 1997) builds
//! on. The pieces the paper's Algorithms 1 and 2 need are first-class:
//!
//! - [`search::search_with`] exposes every stored MBR to a caller-supplied
//!   acceptance test, so a safe transformation can be applied to the index
//!   *on the fly* during traversal (Algorithm 1's `I' = T(I)` without
//!   materializing `I'`); an all-pairs query is one such search per probe
//!   (the paper's Table 1 methods (c) and (d));
//! - [`knn::nearest_with_tie`] runs best-first nearest-neighbor search
//!   with pluggable lower-bound metrics (MINDIST et al., Roussopoulos 1995),
//!   again allowing transformed metrics;
//! - [`RStarTree::bulk_load_flat`] packs a whole relation with STR
//!   ([`RStarTree::bulk_load`] from owned rectangles);
//! - every query returns [`stats::SearchStats`], whose node-visit counter
//!   stands in for the paper's disk-access measurements.
//!
//! The tree stores arbitrary payloads under dynamic-dimensional rectangles;
//! leaf entries may be points (degenerate rectangles), which is how feature
//! vectors are stored by `tsq-core`. A node holds its entries' rectangles
//! flat: one coordinate slab of `2·dims` `f64`s per entry, back to back,
//! beside one array of payloads or child nodes — no rectangle is boxed on
//! its own. Traversals hand callers each stored rectangle as a borrowed
//! [`RectView`] into that slab; an owned [`Rect`] (a query rectangle, say)
//! lends one through [`Rect::view`]. [`RStarTree::bulk_load_flat`] writes
//! rectangles straight into the slabs of the leaves STR packs them into.
//!
//! The range visitor and the kNN loop each exist once, written against a
//! [`NodeStore`]: "fetch a node by reference, get a guard exposing its
//! level and its `(rect view, item | child ref)` entries". Two stores
//! implement it. `&RStarTree<T>` keeps every node in memory, its guard is
//! a plain borrow and its fetch cannot fail, so the generic code compiles
//! to the direct pointer walk. `&PagedTree` ([`paged::PagedTree`]) stores
//! one node per fixed-size page in a file behind a pin-counted
//! [`page::BufferPool`], so an index larger than memory still works: its
//! guard is a page pin, its fetch returns a typed
//! [`tsq_store::StoreError`] on an unreadable or corrupt page, and its
//! [`stats::SearchStats`] carry *measured* pool hit/miss counts next to
//! the node-visit count. Because one piece of code counts for both, node
//! visits, pruning and page accesses are comparable across storage modes.
//! The tree types' own query methods (`RStarTree::search_with`,
//! `PagedTree::nearest_with_tie`, …) are thin callers of those two.
//!
//! The page file is the only form a tree is persisted in: snapshots store
//! series, from which `tsq-core` rebuilds every tree, so there is no
//! whole-tree codec — [`persist`] holds the configuration and rectangle
//! codecs the page file is written with.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bulk;
pub mod config;
pub mod knn;
pub mod page;
pub mod paged;
pub mod persist;
pub mod rect;
pub mod search;
pub mod stats;
pub mod tree;

pub mod par;

mod node;
mod split;

pub use config::RTreeConfig;
pub use knn::Neighbor;
pub use node::{NodeStore, Slot};
pub use page::{BufferPool, PageCache, PageId};
pub use paged::PagedTree;
pub use rect::{Rect, RectView};
pub use stats::{LevelStats, SearchStats};
pub use tree::RStarTree;
