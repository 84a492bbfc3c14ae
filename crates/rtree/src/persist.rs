//! The R\*-tree's byte codecs: tuning parameters and rectangles, in the
//! `tsq-store` binary format. Their clients are the page file
//! (`crate::paged`), the only form a tree is persisted in, and the
//! index configurations `tsq-core` snapshots — snapshots store series and
//! rebuild every tree from them, so no node structure is ever serialized
//! whole.
//!
//! ```text
//! config     max_entries u32
//! rect       lo f32×dims · hi f32×dims     (a node slab's layout)
//! ```
//!
//! A rectangle is written in its stored form: `f32` bounds rounded outward
//! (`crate::rect`), so a `lo` may be −∞ and a `hi` +∞ (a feature past
//! `f32::MAX`), never the other way round. Readers enforce what
//! `RTreeConfig::validate` asserts and what outward rounding can produce —
//! fan-out bounds, no NaN, no `lo` of +∞ or `hi` of −∞, no inverted pair —
//! with typed [`StoreError`]s instead of panics, so corrupt input past a
//! checksum still cannot panic or allocate absurdly.

use tsq_store::{Decoder, Encoder, StoreError, StoreResult};

use crate::config::{RTreeConfig, MAX_FANOUT};

/// Writes R\*-tree tuning parameters (one `u32`, the fan-out). The single
/// config codec shared by page files and the higher-level index
/// configurations in `tsq-core`.
pub fn write_config(enc: &mut Encoder, cfg: &RTreeConfig) {
    enc.u32(cfg.max_entries as u32);
}

/// Reads R\*-tree tuning parameters, enforcing the same bounds
/// `RTreeConfig::validate` asserts — but as typed errors, not panics.
///
/// # Errors
/// [`StoreError::Corrupt`] on an out-of-range fan-out.
pub fn read_config(dec: &mut Decoder<'_>) -> StoreResult<RTreeConfig> {
    let max_entries = dec.u32("rtree max_entries")? as usize;
    if !(4..=MAX_FANOUT).contains(&max_entries) {
        return Err(StoreError::corrupt(format!(
            "rtree max_entries {max_entries} outside 4..={MAX_FANOUT}"
        )));
    }
    Ok(RTreeConfig { max_entries })
}

/// Writes one stored rectangle: its `2·dims` `f32` bounds, `lo` then `hi`.
pub(crate) fn write_bounds(enc: &mut Encoder, bounds: &[f32]) {
    for b in bounds {
        enc.u32(b.to_bits());
    }
}

/// Reads one rectangle of `dims` dimensions and appends its bounds to
/// `slab`: the wire layout (`lo` array then `hi` array) is a node slab's,
/// so a page decodes straight into its node's slab in one block read, one
/// decode pass and one validation loop. On error `slab` is left as it was.
pub(crate) fn read_bounds(
    dec: &mut Decoder<'_>,
    dims: usize,
    slab: &mut Vec<f32>,
) -> StoreResult<()> {
    let bytes = dec.bytes(
        dims.checked_mul(8)
            .ok_or_else(|| StoreError::corrupt("rect dimensionality overflows"))?,
        "rect bounds",
    )?;
    let start = slab.len();
    slab.extend(
        bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("chunk of 4"))),
    );
    let bounds = &slab[start..];
    for i in 0..dims {
        let (l, h) = (bounds[i], bounds[dims + i]);
        let error = if l.is_nan() || h.is_nan() || l == f32::INFINITY || h == f32::NEG_INFINITY {
            format!("rect bound in dim {i} outside what outward rounding stores: [{l}, {h}]")
        } else if l > h {
            format!("inverted rect bounds in dim {i}: {l} > {h}")
        } else {
            continue;
        };
        slab.truncate(start);
        return Err(StoreError::corrupt(error));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rect::{stored, Rect};

    fn rect_bytes(rect: &Rect) -> Vec<u8> {
        let mut enc = Encoder::new();
        write_bounds(&mut enc, &stored(rect.view().bounds()));
        enc.into_bytes()
    }

    fn read_rect(dec: &mut Decoder<'_>, dims: usize) -> StoreResult<Vec<f32>> {
        let mut slab = vec![7.0];
        read_bounds(dec, dims, &mut slab)?;
        assert_eq!(slab[0], 7.0, "appended after what the slab held");
        Ok(slab.split_off(1))
    }

    #[test]
    fn truncated_stream_is_typed_not_a_panic() {
        let mut enc = Encoder::new();
        write_config(&mut enc, &RTreeConfig::with_max_entries(8));
        let config = enc.into_bytes();
        for cut in 0..config.len() {
            let err = read_config(&mut Decoder::new(&config[..cut])).unwrap_err();
            assert!(matches!(err, StoreError::Truncated { .. }), "cut at {cut}");
        }
        let rect = rect_bytes(&Rect::new(vec![0.0, -1.5], vec![2.0, 3.0]));
        for cut in 0..rect.len() {
            let err = read_rect(&mut Decoder::new(&rect[..cut]), 2).unwrap_err();
            assert!(matches!(err, StoreError::Truncated { .. }), "cut at {cut}");
        }
    }

    #[test]
    fn structural_corruption_is_typed() {
        let rect = Rect::new(vec![0.0, -1.5], vec![2.0, 3.0]);
        let good = rect_bytes(&rect);
        let mut dec = Decoder::new(&good);
        assert_eq!(read_rect(&mut dec, 2).unwrap(), [0.0, -1.5, 2.0, 3.0]);
        dec.finish().unwrap();
        let corrupt = |bytes: &[u8], what: &str| {
            let mut slab = vec![1.0, 2.0];
            let err = read_bounds(&mut Decoder::new(bytes), 2, &mut slab).unwrap_err();
            assert!(matches!(err, StoreError::Corrupt { .. }), "{what}: {err:?}");
            assert_eq!(slab, [1.0, 2.0], "{what}: the slab is left as it was");
        };
        // NaN bound (lo of dimension 0).
        let mut bad = good.clone();
        bad[0..4].copy_from_slice(&f32::NAN.to_le_bytes());
        corrupt(&bad, "NaN bound");
        // A `lo` of +∞ and a `hi` of −∞: never stored by rounding outward.
        let mut bad = good.clone();
        bad[0..4].copy_from_slice(&f32::INFINITY.to_le_bytes());
        corrupt(&bad, "+∞ lo");
        let mut bad = good.clone();
        bad[8..12].copy_from_slice(&f32::NEG_INFINITY.to_le_bytes());
        corrupt(&bad, "−∞ hi");
        // Inverted bounds (lo of dimension 1 above its hi).
        let mut bad = good.clone();
        bad[4..8].copy_from_slice(&4.0f32.to_le_bytes());
        corrupt(&bad, "inverted bounds");
        // A −∞ lo and a +∞ hi: what a feature past `f32::MAX` stores.
        let mut wide = good.clone();
        wide[0..4].copy_from_slice(&f32::NEG_INFINITY.to_le_bytes());
        wide[12..16].copy_from_slice(&f32::INFINITY.to_le_bytes());
        let got = read_rect(&mut Decoder::new(&wide), 2).unwrap();
        assert_eq!(got, [f32::NEG_INFINITY, -1.5, 2.0, f32::INFINITY]);
        // A dimensionality whose byte count overflows.
        let err = read_rect(&mut Decoder::new(&good), usize::MAX).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err:?}");
        // Absurd fan-out in a config.
        let mut enc = Encoder::new();
        enc.u32(u32::MAX);
        let bytes = enc.into_bytes();
        assert!(matches!(
            read_config(&mut Decoder::new(&bytes)),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn large_configured_fanout_accepted_up_to_page_geometry() {
        // A fan-out above the old hard-coded `1 << 16` cap but within the
        // derived page-geometry cap decodes fine.
        let mut enc = Encoder::new();
        enc.u32(100_000);
        let bytes = enc.into_bytes();
        let config = read_config(&mut Decoder::new(&bytes)).unwrap();
        assert_eq!(config.max_entries, 100_000);

        // Just above the derived cap is still a typed error, not a panic
        // or an allocation.
        let mut enc = Encoder::new();
        enc.u32((MAX_FANOUT + 1) as u32);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert!(matches!(
            read_config(&mut dec),
            Err(StoreError::Corrupt { .. })
        ));
    }
}
