//! Tree tuning parameters and the page geometry they must fit.

/// Page files round every node up to a multiple of this (a disk sector /
/// filesystem block), so a node read never straddles an unaligned
/// boundary.
pub const PAGE_ALIGN: usize = 4096;

/// Hard ceiling on one page (4 MiB). A node larger than this cannot be
/// stored, which in turn bounds the fan-out a snapshot or page file may
/// declare.
pub(crate) const MAX_PAGE_BYTES: usize = 1 << 22;

/// Fixed per-page header: payload length `u32`, CRC-32 `u32`, node level
/// `u32`, entry count `u32`.
pub(crate) const PAGE_HEADER_BYTES: usize = 16;

/// Smallest possible serialized entry: a 1-dimensional rectangle
/// (`lo f32` + `hi f32`) plus an 8-byte payload or child pointer.
pub(crate) const MIN_ENTRY_BYTES: usize = 16;

/// Maximum fan-out any stored tree may declare, derived from the page
/// geometry: the most 1-dimensional entries that fit in the largest
/// page. Persist and page readers reject anything above this with a
/// typed error instead of allocating for it.
pub(crate) const MAX_FANOUT: usize = (MAX_PAGE_BYTES - PAGE_HEADER_BYTES) / MIN_ENTRY_BYTES;

/// Tuning parameters of an [`crate::RStarTree`].
///
/// The defaults correspond to a simulated 4 KiB disk page holding
/// 6-dimensional `f64` rectangles plus a child pointer (~100 bytes/entry →
/// fanout ≈ 40; we use 32 to leave header room), with the R\*-tree paper's
/// recommended 40% minimum fill and 30% forced-reinsert fraction. Stored
/// bounds are `f32`s (56 bytes per 6-d entry), so such a node fills 1.8 KiB
/// of its page; the fan-out stays 32, which keeps every tree's shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RTreeConfig {
    /// Maximum entries per node (`M`). Must be at least 4.
    pub max_entries: usize,
    /// Minimum entries per non-root node (`m`). Must satisfy
    /// `1 <= m <= M/2`.
    pub min_entries: usize,
    /// Number of entries removed and re-inserted on the first overflow of
    /// each level per insertion (`p`, the R\*-tree forced reinsert). Zero
    /// disables forced reinsertion (degrading to a quadratic-style split-only
    /// R-tree) — exposed for tests that compare against it.
    pub reinsert_count: usize,
}

impl RTreeConfig {
    /// Config with the given fanout, deriving `m = 40%` and `p = 30%` as the
    /// R\*-tree paper recommends.
    pub fn with_max_entries(max_entries: usize) -> Self {
        assert!(max_entries >= 4, "max_entries must be at least 4");
        let min_entries = ((max_entries as f64 * 0.4) as usize).max(2);
        let reinsert_count = ((max_entries as f64 * 0.3) as usize).max(1);
        Self {
            max_entries,
            min_entries,
            reinsert_count,
        }
    }

    pub(crate) fn validate(&self) {
        assert!(self.max_entries >= 4, "max_entries must be at least 4");
        assert!(
            self.min_entries >= 1 && self.min_entries <= self.max_entries / 2,
            "min_entries must be in 1..=max_entries/2"
        );
        assert!(
            self.reinsert_count < self.max_entries,
            "reinsert_count must be below max_entries"
        );
    }
}

impl Default for RTreeConfig {
    fn default() -> Self {
        Self::with_max_entries(32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        RTreeConfig::default().validate();
    }

    #[test]
    fn derived_fractions() {
        let c = RTreeConfig::with_max_entries(10);
        assert_eq!(c.min_entries, 4);
        assert_eq!(c.reinsert_count, 3);
    }

    #[test]
    #[should_panic(expected = "at least 4")]
    fn tiny_fanout_rejected() {
        let _ = RTreeConfig::with_max_entries(3);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn derived_fanout_cap_exceeds_old_hard_coded_cap() {
        // The cap used to be a hard-coded `1 << 16`; deriving it from the
        // page geometry must not shrink it (that would reject previously
        // valid snapshots) and should in fact admit larger configured
        // fan-outs.
        assert!(MAX_FANOUT > 1 << 16, "MAX_FANOUT = {MAX_FANOUT}");
        // But it still rejects absurd values like u32::MAX.
        assert!(MAX_FANOUT < u32::MAX as usize);
    }
}
