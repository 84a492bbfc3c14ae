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
/// The default corresponds to a simulated 4 KiB disk page holding
/// 6-dimensional `f64` rectangles plus a child pointer (~100 bytes/entry →
/// fanout ≈ 40; we use 32 to leave header room). Stored bounds are `f32`s
/// (56 bytes per 6-d entry), so such a node fills 1.8 KiB of its page; the
/// fan-out stays 32, which keeps every tree's shape. STR packs every node
/// to at least half of it (`crate::bulk`), so a minimum fill is not a knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RTreeConfig {
    /// Maximum entries per node (`M`). Must be at least 4.
    pub max_entries: usize,
}

impl RTreeConfig {
    /// Config with the given fanout.
    pub fn with_max_entries(max_entries: usize) -> Self {
        let config = Self { max_entries };
        config.validate();
        config
    }

    pub(crate) fn validate(&self) {
        assert!(self.max_entries >= 4, "max_entries must be at least 4");
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
