//! The correctness gate: wire replies against oracle answers row by
//! row, and a 64-bit checksum that stands for a verified reply
//! afterwards, so that no full answer stays resident while passes run.

use tsq_core::{ScanMode, SubseqConfig, SubseqIndex};
use tsq_lang::{parse, Catalog, Query, Row, Source};
use tsq_series::TimeSeries;
use tsq_service::WireRow;

use crate::data::WINDOW;
use crate::Res;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash = (*hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
}

/// FNV-1a over every row in order: labels, offset, distance bits.
pub fn checksum(rows: &[WireRow]) -> u64 {
    let mut hash = FNV_OFFSET;
    for row in rows {
        fnv(&mut hash, row.a.as_bytes());
        fnv(&mut hash, &[0xff]);
        fnv(&mut hash, row.b.as_deref().unwrap_or("").as_bytes());
        fnv(&mut hash, &[0xff]);
        fnv(&mut hash, &row.offset.map_or(u64::MAX, |o| o).to_le_bytes());
        fnv(&mut hash, &row.distance.to_bits().to_le_bytes());
    }
    hash
}

/// An in-process row as it would cross the wire.
pub fn to_wire(rows: &[Row]) -> Vec<WireRow> {
    rows.iter()
        .map(|r| WireRow {
            a: r.a.clone(),
            b: r.b.clone(),
            offset: r.offset.map(|o| o as u64),
            distance: r.distance,
        })
        .collect()
}

/// Rows, order, offsets and distance bits of a wire reply against the
/// oracle's answer.
pub fn same_rows(wire: &[WireRow], oracle: &[Row]) -> Result<(), String> {
    if wire.len() != oracle.len() {
        return Err(format!("{} rows, oracle has {}", wire.len(), oracle.len()));
    }
    for (i, (w, o)) in wire.iter().zip(oracle).enumerate() {
        let same = w.a == o.a
            && w.b == o.b
            && w.offset == o.offset.map(|x| x as u64)
            && w.distance.to_bits() == o.distance.to_bits();
        if !same {
            return Err(format!("row {i}: {w:?}, oracle has {o:?}"));
        }
    }
    Ok(())
}

/// The ground truth for subsequence statements. `force = scan` does not
/// change a subsequence plan (there is one physical operator), so the
/// sliding scans of `tsq-core` stand in for it: every window of every
/// series, compared on raw samples.
pub struct SlidingOracle {
    index: SubseqIndex,
    labels: Vec<String>,
}

impl SlidingOracle {
    pub fn over(series: &[TimeSeries]) -> Res<Self> {
        Ok(SlidingOracle {
            index: SubseqIndex::build(SubseqConfig::new(WINDOW), series.to_vec())
                .map_err(|e| format!("sliding oracle: {e}"))?,
            labels: (0..series.len()).map(|i| format!("s{i}")).collect(),
        })
    }

    /// Checks `rows`, the engine's answer to the subsequence statement
    /// `text`, against the sliding scan. Range answers must agree in
    /// rows, order, offsets and distance bits; nearest-neighbour answers
    /// in rank order with distances within 1e-9, the repo's own oracle
    /// tolerance (the brute-force kNN sums in a different order).
    pub fn check(&self, catalog: &Catalog, text: &str, rows: &[Row]) -> Result<(), String> {
        let query = parse(text).map_err(|e| e.to_string())?;
        let pattern = |source: &Source| -> Result<TimeSeries, String> {
            match source {
                Source::Literal(values) => Ok(TimeSeries::new(values.clone())),
                Source::Ref { relation, label } => catalog
                    .relation(relation)
                    .and_then(|r| r.get_by_label(label))
                    .cloned()
                    .ok_or_else(|| format!("unknown source {relation}.{label}")),
            }
        };
        match &query {
            Query::SubseqSimilar { source, eps, .. } => {
                let (matches, _) = self
                    .index
                    .scan_subseq_range(&pattern(source)?, *eps, ScanMode::EarlyAbandon)
                    .map_err(|e| e.to_string())?;
                let truth: Vec<Row> = matches
                    .iter()
                    .map(|m| Row {
                        a: self.labels[m.series].clone(),
                        b: None,
                        offset: Some(m.offset),
                        distance: m.distance,
                    })
                    .collect();
                same_rows(&to_wire(rows), &truth)
            }
            Query::SubseqNearest { source, k, .. } => {
                let truth = self
                    .index
                    .scan_subseq_knn(&pattern(source)?, *k)
                    .map_err(|e| e.to_string())?;
                if truth.len() != rows.len() {
                    return Err(format!("{} rows, scan has {}", rows.len(), truth.len()));
                }
                for (i, (row, m)) in rows.iter().zip(&truth).enumerate() {
                    if (row.distance - m.distance).abs() >= 1e-9 {
                        return Err(format!(
                            "rank {i}: distance {}, scan has {}",
                            row.distance, m.distance
                        ));
                    }
                }
                Ok(())
            }
            _ => Err(format!("not a subsequence statement: {text}")),
        }
    }
}
