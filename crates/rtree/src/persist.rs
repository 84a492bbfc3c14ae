//! The R\*-tree's byte codecs: tuning parameters and rectangles, in the
//! `tsq-store` binary format. Their one client is the page file
//! ([`crate::paged`]), the only form a tree is persisted in — snapshots
//! store series and rebuild every tree from them, so no node structure is
//! ever serialized whole.
//!
//! ```text
//! config     max_entries u32 · min_entries u32 · reinsert_count u32
//! rect       lo f64×dims · hi f64×dims
//! ```
//!
//! Readers enforce what `RTreeConfig::validate` and `Rect::new` assert —
//! fan-out bounds, finite non-inverted bounds — with typed
//! [`StoreError`]s instead of panics, so corrupt input past a checksum
//! still cannot panic or allocate absurdly.

use tsq_store::{Decoder, Encoder, StoreError, StoreResult};

use crate::config::{RTreeConfig, MAX_FANOUT};
use crate::rect::Rect;

/// Writes R\*-tree tuning parameters (three `u32`s). The single config
/// codec shared by page files and the higher-level index configurations
/// in `tsq-core`.
pub fn write_config(enc: &mut Encoder, cfg: &RTreeConfig) {
    enc.u32(cfg.max_entries as u32);
    enc.u32(cfg.min_entries as u32);
    enc.u32(cfg.reinsert_count as u32);
}

/// Reads R\*-tree tuning parameters, enforcing the same bounds
/// `RTreeConfig::validate` asserts — but as typed errors, not panics.
///
/// # Errors
/// [`StoreError::Corrupt`] on out-of-range parameters.
pub fn read_config(dec: &mut Decoder<'_>) -> StoreResult<RTreeConfig> {
    let max_entries = dec.u32("rtree max_entries")? as usize;
    let min_entries = dec.u32("rtree min_entries")? as usize;
    let reinsert_count = dec.u32("rtree reinsert_count")? as usize;
    if !(4..=MAX_FANOUT).contains(&max_entries) {
        return Err(StoreError::corrupt(format!(
            "rtree max_entries {max_entries} outside 4..={MAX_FANOUT}"
        )));
    }
    if min_entries < 1 || min_entries > max_entries / 2 {
        return Err(StoreError::corrupt(format!(
            "rtree min_entries {min_entries} outside 1..={}",
            max_entries / 2
        )));
    }
    if reinsert_count >= max_entries {
        return Err(StoreError::corrupt(format!(
            "rtree reinsert_count {reinsert_count} not below max_entries {max_entries}"
        )));
    }
    Ok(RTreeConfig {
        max_entries,
        min_entries,
        reinsert_count,
    })
}

pub(crate) fn write_rect(enc: &mut Encoder, rect: &Rect) {
    enc.f64_slice(rect.lo());
    enc.f64_slice(rect.hi());
}

pub(crate) fn read_rect(dec: &mut Decoder<'_>, dims: usize) -> StoreResult<Rect> {
    // Hot path (one call per tree entry): the wire layout (`lo` array
    // then `hi` array) is exactly `Rect`'s internal bounds buffer, so one
    // block read + one decode pass + one validation loop produce the
    // rectangle with a single allocation and no re-validation.
    let bytes = dec.bytes(
        dims.checked_mul(16)
            .ok_or_else(|| StoreError::corrupt("rect dimensionality overflows"))?,
        "rect bounds",
    )?;
    let bounds: Vec<f64> = bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("chunk of 8")))
        .collect();
    for i in 0..dims {
        let (l, h) = (bounds[i], bounds[dims + i]);
        if !l.is_finite() || !h.is_finite() {
            return Err(StoreError::corrupt(format!(
                "non-finite rect bound in dim {i}: [{l}, {h}]"
            )));
        }
        if l > h {
            return Err(StoreError::corrupt(format!(
                "inverted rect bounds in dim {i}: {l} > {h}"
            )));
        }
    }
    Ok(Rect::from_validated_bounds(bounds))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect_bytes(rect: &Rect) -> Vec<u8> {
        let mut enc = Encoder::new();
        write_rect(&mut enc, rect);
        enc.into_bytes()
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
        assert_eq!(read_rect(&mut dec, 2).unwrap(), rect);
        dec.finish().unwrap();
        let corrupt = |bytes: &[u8], what: &str| {
            let err = read_rect(&mut Decoder::new(bytes), 2).unwrap_err();
            assert!(matches!(err, StoreError::Corrupt { .. }), "{what}: {err:?}");
        };
        // Non-finite bound (lo of dimension 0).
        let mut bad = good.clone();
        bad[0..8].copy_from_slice(&f64::NAN.to_le_bytes());
        corrupt(&bad, "NaN bound");
        // Inverted bounds (lo of dimension 1 above its hi).
        let mut bad = good.clone();
        bad[8..16].copy_from_slice(&4.0f64.to_le_bytes());
        corrupt(&bad, "inverted bounds");
        // A dimensionality whose byte count overflows.
        let err = read_rect(&mut Decoder::new(&good), usize::MAX).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err:?}");
        // Absurd fan-out in a config.
        let mut enc = Encoder::new();
        enc.u32(u32::MAX);
        enc.u32(2);
        enc.u32(0);
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
        enc.u32(2);
        enc.u32(0);
        let bytes = enc.into_bytes();
        let config = read_config(&mut Decoder::new(&bytes)).unwrap();
        assert_eq!(config.max_entries, 100_000);

        // Just above the derived cap is still a typed error, not a panic
        // or an allocation.
        let mut enc = Encoder::new();
        enc.u32((MAX_FANOUT + 1) as u32);
        enc.u32(2);
        enc.u32(0);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert!(matches!(
            read_config(&mut dec),
            Err(StoreError::Corrupt { .. })
        ));
    }
}
