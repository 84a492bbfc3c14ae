//! Access statistics.
//!
//! The paper reports the *number of disk accesses* alongside wall-clock
//! times; we model one node visit as one (simulated) page read. Every query
//! method returns a [`SearchStats`] so callers can assert claims like
//! "the number of disk accesses is the same with and without
//! transformations" (Section 5, Figure 8 discussion).

use crate::node::{Kids, Node};
use crate::tree::RStarTree;

/// Counters collected during a single query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Nodes (internal + leaf) visited — the simulated disk-access count.
    pub nodes_visited: u64,
    /// Leaf nodes visited.
    pub leaves_visited: u64,
    /// Entries whose rectangle was tested against the query.
    pub entries_tested: u64,
    /// Leaf entries that passed the index-level test (candidates handed to
    /// post-processing).
    pub candidates: u64,
    /// Buffer-pool hits: node fetches served from a resident page.
    /// Always zero in in-memory mode.
    pub pool_hits: u64,
    /// Buffer-pool misses: node fetches that read a page from disk.
    /// Always zero in in-memory mode; this is the *measured* disk-access
    /// count, as opposed to the simulated `nodes_visited`.
    pub pool_misses: u64,
}

impl SearchStats {
    /// Merges another stats record into this one (useful for joins, which
    /// run many sub-queries).
    pub fn absorb(&mut self, other: &SearchStats) {
        self.nodes_visited += other.nodes_visited;
        self.leaves_visited += other.leaves_visited;
        self.entries_tested += other.entries_tested;
        self.candidates += other.candidates;
        self.pool_hits += other.pool_hits;
        self.pool_misses += other.pool_misses;
    }
}

/// Aggregate shape of one tree level, for cost estimation.
///
/// A query planner predicts node accesses with the classic R-tree cost
/// model (Kamel & Faloutsos): the probability that a node's MBR intersects
/// a query rectangle is, per dimension, roughly
/// `min(1, (node_extent + query_extent) / data_extent)`. That needs, per
/// level, the node count and the *average MBR side length* in every
/// dimension — exactly what this profile carries.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelStats {
    /// Distance from the leaves (`0` = leaf level, last entry = root).
    pub level: u32,
    /// Number of nodes at this level.
    pub nodes: u64,
    /// Total entries across this level's nodes.
    pub entries: u64,
    /// Mean MBR side length per dimension, averaged over the level's nodes.
    pub avg_extent: Vec<f64>,
}

impl<T> RStarTree<T> {
    /// Per-level shape statistics, leaf level first, root last. Empty for
    /// an empty tree. The walk is deterministic (insertion structure), so
    /// two structurally identical trees — e.g. one restored from a
    /// snapshot — profile identically, bit for bit.
    pub fn level_profile(&self) -> Vec<LevelStats> {
        if self.is_empty() {
            return Vec::new();
        }
        let dims = self.dims().unwrap_or(0);
        let levels = self.root.level as usize + 1;
        let mut profile: Vec<LevelStats> = (0..levels)
            .map(|level| LevelStats {
                level: level as u32,
                nodes: 0,
                entries: 0,
                avg_extent: vec![0.0; dims],
            })
            .collect();
        profile_node(&self.root, &mut profile);
        for level in &mut profile {
            if level.nodes > 0 {
                for e in &mut level.avg_extent {
                    *e /= level.nodes as f64;
                }
            }
        }
        profile
    }
}

fn profile_node<T>(node: &Node<T>, profile: &mut [LevelStats]) {
    let slot = &mut profile[node.level as usize];
    slot.nodes += 1;
    slot.entries += node.len() as u64;
    let mbr = node.mbr();
    for (d, e) in slot.avg_extent.iter_mut().enumerate() {
        *e += mbr.hi()[d] - mbr.lo()[d];
    }
    if let Kids::Nodes(children) = &node.kids {
        for child in children {
            profile_node(child, profile);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rect::Rect;

    #[test]
    fn level_profile_counts_nodes_and_extents() {
        let mut tree = RStarTree::default();
        assert!(tree.level_profile().is_empty());
        for i in 0..200 {
            let x = (i % 20) as f64;
            let y = (i / 20) as f64;
            tree.insert(Rect::from_point(&[x, y]), i);
        }
        let profile = tree.level_profile();
        assert_eq!(profile.len() as u32, tree.height());
        // Leaf level first, root last; the root level has exactly one node.
        assert_eq!(profile[0].level, 0);
        assert_eq!(profile.last().unwrap().nodes, 1);
        // Every inserted item appears exactly once among the leaf entries.
        assert_eq!(profile[0].entries, 200);
        // Internal entries at level l+1 reference the nodes at level l.
        for w in profile.windows(2) {
            assert_eq!(w[1].entries, w[0].nodes);
        }
        // Average extents are bounded by the data extent.
        for level in &profile {
            assert_eq!(level.avg_extent.len(), 2);
            for (d, e) in level.avg_extent.iter().enumerate() {
                let bounds = tree.bounds().unwrap();
                assert!(*e >= 0.0 && *e <= bounds.hi()[d] - bounds.lo()[d] + 1e-12);
            }
        }
    }

    #[test]
    fn absorb_sums() {
        let mut a = SearchStats {
            nodes_visited: 1,
            leaves_visited: 2,
            entries_tested: 3,
            candidates: 4,
            pool_hits: 5,
            pool_misses: 6,
        };
        let b = SearchStats {
            nodes_visited: 10,
            leaves_visited: 20,
            entries_tested: 30,
            candidates: 40,
            pool_hits: 50,
            pool_misses: 60,
        };
        a.absorb(&b);
        assert_eq!(a.nodes_visited, 11);
        assert_eq!(a.leaves_visited, 22);
        assert_eq!(a.entries_tested, 33);
        assert_eq!(a.candidates, 44);
        assert_eq!(a.pool_hits, 55);
        assert_eq!(a.pool_misses, 66);
    }
}
