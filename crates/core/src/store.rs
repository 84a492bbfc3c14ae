//! Snapshot encoding of the engine's value types.
//!
//! The byte-level primitives (framing, checksums, allocation-guarded
//! reads) live in `tsq-store`; this module contributes the encodings of
//! `tsq-core`'s own vocabulary — [`TimeSeries`], [`FeatureSchema`],
//! [`SpaceKind`] and [`IndexConfig`] — shared by
//! [`crate::SimilarityIndex::write_to`] and the catalog snapshots in
//! `tsq-lang`. Every reader validates what it decodes (finite samples,
//! in-range enum tags, coherent configurations) and reports violations as
//! typed [`StoreError`]s, so corrupt bytes that survive the frame
//! checksum still cannot panic the engine.

use tsq_rtree::RTreeConfig;
use tsq_series::TimeSeries;
use tsq_store::{Decoder, Encoder, StoreError, StoreResult};

use crate::features::FeatureSchema;
use crate::index::IndexConfig;
use crate::space::SpaceKind;

/// Writes a series as a length-prefixed run of `f64` bit patterns.
pub fn write_series(enc: &mut Encoder, series: &TimeSeries) {
    enc.usize(series.len());
    enc.f64_slice(series.values());
}

/// Reads a series, rejecting non-finite samples.
///
/// # Errors
/// [`StoreError::Truncated`] / [`StoreError::Corrupt`].
pub fn read_series(dec: &mut Decoder<'_>) -> StoreResult<TimeSeries> {
    let len = dec.seq(8, "series length")?;
    let values = dec.f64_vec(len, "series values")?;
    TimeSeries::try_new(values).map_err(|e| {
        StoreError::corrupt(format!("series sample {} at position {}", e.value, e.index))
    })
}

/// Writes a feature schema as a tag byte plus its cut-off.
pub fn write_schema(enc: &mut Encoder, schema: FeatureSchema) {
    match schema {
        FeatureSchema::NormalForm { k } => {
            enc.u8(0);
            enc.usize(k);
        }
        FeatureSchema::Raw { k } => {
            enc.u8(1);
            enc.usize(k);
        }
    }
}

/// Reads a feature schema.
///
/// # Errors
/// [`StoreError::Corrupt`] on an unknown tag.
pub fn read_schema(dec: &mut Decoder<'_>) -> StoreResult<FeatureSchema> {
    let tag = dec.u8("feature schema tag")?;
    let k = dec.usize("feature schema k")?;
    match tag {
        0 => Ok(FeatureSchema::NormalForm { k }),
        1 => Ok(FeatureSchema::Raw { k }),
        other => Err(StoreError::corrupt(format!("feature schema tag {other}"))),
    }
}

/// Writes a coordinate-space kind as a tag byte.
pub fn write_space(enc: &mut Encoder, space: SpaceKind) {
    enc.u8(match space {
        SpaceKind::Rectangular => 0,
        SpaceKind::Polar => 1,
    });
}

/// Reads a coordinate-space kind.
///
/// # Errors
/// [`StoreError::Corrupt`] on an unknown tag.
pub fn read_space(dec: &mut Decoder<'_>) -> StoreResult<SpaceKind> {
    match dec.u8("coordinate space tag")? {
        0 => Ok(SpaceKind::Rectangular),
        1 => Ok(SpaceKind::Polar),
        other => Err(StoreError::corrupt(format!("coordinate space tag {other}"))),
    }
}

/// Writes R\*-tree tuning parameters (delegates to the single codec in
/// [`tsq_rtree::persist`], which page files use too).
pub fn write_rtree_config(enc: &mut Encoder, cfg: &RTreeConfig) {
    tsq_rtree::persist::write_config(enc, cfg);
}

/// Reads R\*-tree tuning parameters (the [`tsq_rtree::persist`] codec:
/// `RTreeConfig::validate`'s bounds enforced as typed errors).
///
/// # Errors
/// [`StoreError::Corrupt`] on out-of-range parameters.
pub fn read_rtree_config(dec: &mut Decoder<'_>) -> StoreResult<RTreeConfig> {
    tsq_rtree::persist::read_config(dec)
}

/// Writes a whole-match index configuration.
pub fn write_index_config(enc: &mut Encoder, cfg: &IndexConfig) {
    write_schema(enc, cfg.schema);
    write_space(enc, cfg.space);
    write_rtree_config(enc, &cfg.rtree);
    enc.bool(cfg.bulk_load);
}

/// Reads a whole-match index configuration.
///
/// # Errors
/// [`StoreError::Truncated`] / [`StoreError::Corrupt`].
pub fn read_index_config(dec: &mut Decoder<'_>) -> StoreResult<IndexConfig> {
    Ok(IndexConfig {
        schema: read_schema(dec)?,
        space: read_space(dec)?,
        rtree: read_rtree_config(dec)?,
        bulk_load: dec.bool("index bulk_load")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_round_trip_bit_exact() {
        let s = TimeSeries::new(vec![1.5, -0.0, 1e-308, 42.0]);
        let mut enc = Encoder::new();
        write_series(&mut enc, &s);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let r = read_series(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(s.len(), r.len());
        for (a, b) in s.values().iter().zip(r.values()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn non_finite_series_sample_is_corrupt() {
        let mut enc = Encoder::new();
        enc.usize(1);
        enc.f64(f64::INFINITY);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert!(matches!(
            read_series(&mut dec),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn schema_space_and_configs_round_trip() {
        for schema in [
            FeatureSchema::NormalForm { k: 2 },
            FeatureSchema::Raw { k: 5 },
        ] {
            let mut enc = Encoder::new();
            write_schema(&mut enc, schema);
            let bytes = enc.into_bytes();
            assert_eq!(read_schema(&mut Decoder::new(&bytes)).unwrap(), schema);
        }
        for space in [SpaceKind::Rectangular, SpaceKind::Polar] {
            let mut enc = Encoder::new();
            write_space(&mut enc, space);
            let bytes = enc.into_bytes();
            assert_eq!(read_space(&mut Decoder::new(&bytes)).unwrap(), space);
        }
        let icfg = IndexConfig::default();
        let mut enc = Encoder::new();
        write_index_config(&mut enc, &icfg);
        let bytes = enc.into_bytes();
        let got = read_index_config(&mut Decoder::new(&bytes)).unwrap();
        assert_eq!(got.schema, icfg.schema);
        assert_eq!(got.space, icfg.space);
        assert_eq!(got.rtree, icfg.rtree);
        assert_eq!(got.bulk_load, icfg.bulk_load);
    }

    #[test]
    fn bad_tags_and_configs_are_corrupt() {
        let mut dec = Decoder::new(&[9, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert!(matches!(
            read_schema(&mut dec),
            Err(StoreError::Corrupt { .. })
        ));
        let mut dec = Decoder::new(&[7]);
        assert!(matches!(
            read_space(&mut dec),
            Err(StoreError::Corrupt { .. })
        ));
        // min_entries above max/2.
        let mut enc = Encoder::new();
        enc.u32(8);
        enc.u32(5);
        enc.u32(2);
        let bytes = enc.into_bytes();
        assert!(matches!(
            read_rtree_config(&mut Decoder::new(&bytes)),
            Err(StoreError::Corrupt { .. })
        ));
    }
}
