//! Feature extraction: time series → point in a low-dimensional feature
//! space (Section 3.1 / Section 5 of the paper).
//!
//! Two schemas are supported:
//!
//! - [`FeatureSchema::NormalForm`] — the paper's Section-5 layout: the mean
//!   and standard deviation of the original series occupy the first two
//!   index dimensions, and the first `k` non-trivial DFT coefficients of
//!   the **normal form** (whose `X_0` is always zero and is dropped) occupy
//!   the rest, two dimensions per coefficient.
//! - [`FeatureSchema::Raw`] — the original AFS93 layout: the first `k` DFT
//!   coefficients of the raw series.
//!
//! ## What a record keeps
//!
//! A stored record is its samples. Next to them it keeps the mean, the
//! standard deviation and the indexed coefficients `0..coeff_indices().end`
//! — what the filter reads, and nothing else: the exact check
//! ([`crate::index::Refine`]) runs over the samples, normalized on the fly
//! (`(x_t − mean)·(1/std)`), and by Parseval the time-domain sum is `D²`.
//! A query's features ([`Features::extract`]) and what
//! [`crate::SimilarityIndex::features`] derives keep the half `0..=n/2`.
//!
//! ## The symmetry lemma
//!
//! A real series' unitary spectrum is conjugate-symmetric,
//! `X_{n−f} = conj(X_f)`, so the half determines it. A transformation
//! `T = (a, b)` that maps real series to real series is itself
//! conjugate-symmetric (`a_{n−f} = conj(a_f)`, `b_{n−f} = conj(b_f)`; per
//! constructor in [`crate::transform`]), and so is every `a .* X + b` it
//! produces. For two such spectra the differences mirror too,
//! `Δ_{n−f} = conj(Δ_f)`, hence
//!
//! ```text
//! D² = Σ_{f<n} |Δ_f|² = |Δ_0|² + 2·Σ_{0<f<n/2} |Δ_f|²  (+ |Δ_{n/2}|², n even)
//! ```
//!
//! and any subset of the interior coefficients bounds it:
//! `D² ≥ 2·Σ_{f∈S} |Δ_f|²` for `S ⊆ {1, …, ⌈n/2⌉ − 1}`. The lemma now
//! justifies the filter only — what a rectangle over indexed coefficients
//! may rely on ([`crate::space`] states the floating-point inequality).

use tsq_dft::{Complex64, FftPlanner};
use tsq_series::TimeSeries;

use crate::error::{Error, Result};
use crate::transform::LinearTransform;

/// Which representation the index stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureSchema {
    /// `[mean, std]` + coefficients `X_1..X_k` of the normal form
    /// (the paper's experimental layout; `k = 2` gives the paper's
    /// 6-dimensional index).
    NormalForm {
        /// Number of normal-form coefficients kept (`X_1..X_k`).
        k: usize,
    },
    /// Coefficients `X_0..X_{k-1}` of the raw series (AFS93).
    Raw {
        /// Number of coefficients kept.
        k: usize,
    },
}

impl FeatureSchema {
    /// Number of complex coefficients kept in the index.
    pub fn k(&self) -> usize {
        match self {
            FeatureSchema::NormalForm { k } | FeatureSchema::Raw { k } => *k,
        }
    }

    /// Number of real index dimensions.
    pub fn dims(&self) -> usize {
        match self {
            FeatureSchema::NormalForm { k } => 2 + 2 * k,
            FeatureSchema::Raw { k } => 2 * k,
        }
    }

    /// Number of auxiliary (mean/std) dimensions preceding the coefficient
    /// blocks.
    pub(crate) fn aux_dims(&self) -> usize {
        match self {
            FeatureSchema::NormalForm { .. } => 2,
            FeatureSchema::Raw { .. } => 0,
        }
    }

    /// Spectrum indices of the kept coefficients, in index order.
    pub(crate) fn coeff_indices(&self) -> std::ops::Range<usize> {
        match self {
            FeatureSchema::NormalForm { k } => 1..(k + 1),
            FeatureSchema::Raw { k } => 0..*k,
        }
    }

    /// Validates the cut-off against a series length.
    pub fn validate(&self, n: usize) -> Result<()> {
        let k = self.k();
        let max = match self {
            FeatureSchema::NormalForm { .. } => n.saturating_sub(1),
            FeatureSchema::Raw { .. } => n,
        };
        if k == 0 || k > max {
            return Err(Error::InvalidCutoff { k, n });
        }
        Ok(())
    }
}

/// The extracted features of one series: summary statistics plus the
/// leading coefficients of the spectrum of the indexed representation.
/// The index reads the indexed ones; the exact check (Algorithm 2, step 3)
/// reads the samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Features {
    /// Mean of the original series.
    pub mean: f64,
    /// Population standard deviation of the original series.
    pub std: f64,
    /// Series length the spectrum belongs to.
    n: usize,
    /// Unitary DFT of the indexed representation (normal form or raw),
    /// coefficients `0..len`. A stored record keeps the indexed ones,
    /// `len = coeff_indices().end`; a query's run
    /// through `n/2` — every later coefficient being the conjugate mirror
    /// `X_f = conj(X_{n−f})` (the module docs' symmetry lemma) — or
    /// through the last indexed one where the schema's `k` reaches past
    /// `n/2` ([`Features::extract`]).
    pub spectrum: Vec<Complex64>,
}

/// The affine map `v ↦ (v − mean)·(1/std)` taking a series' samples to its
/// indexed representation, one multiply per sample: the normal form under
/// [`FeatureSchema::NormalForm`] (all zeros for a constant series, whose
/// `std` is 0), the samples themselves (`(v − 0)·1`, exactly) under
/// [`FeatureSchema::Raw`]. Both sides of every exact check normalize
/// through it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Normalize {
    mean: f64,
    inv_std: f64,
}

impl Normalize {
    /// The normalization of a series whose features are `features`.
    pub(crate) fn of(features: &Features, schema: FeatureSchema) -> Normalize {
        match schema {
            FeatureSchema::NormalForm { .. } => Normalize {
                mean: features.mean,
                inv_std: if features.std == 0.0 {
                    0.0
                } else {
                    1.0 / features.std
                },
            },
            FeatureSchema::Raw { .. } => Normalize::NONE,
        }
    }

    /// The identity: samples as they are.
    pub(crate) const NONE: Normalize = Normalize {
        mean: 0.0,
        inv_std: 1.0,
    };

    /// One normalized sample.
    #[inline]
    pub(crate) fn at(self, v: f64) -> f64 {
        (v - self.mean) * self.inv_std
    }
}

impl Features {
    /// Extracts a query's features according to `schema`: coefficients
    /// `0..=n/2`, or through the last indexed one where that lies beyond.
    ///
    /// # Errors
    /// Returns [`Error::InvalidCutoff`] when the schema's `k` does not fit
    /// the series length.
    pub fn extract(
        series: &TimeSeries,
        schema: FeatureSchema,
        planner: &mut FftPlanner,
    ) -> Result<Features> {
        let kept = (series.len() / 2 + 1).max(schema.coeff_indices().end);
        Self::leading(series, schema, planner, kept)
    }

    /// What a stored record keeps: the indexed coefficients
    /// `0..coeff_indices().end` alone, bit for bit the ones
    /// [`Features::extract`] gives.
    ///
    /// # Errors
    /// As [`Features::extract`].
    pub(crate) fn indexed(
        series: &TimeSeries,
        schema: FeatureSchema,
        planner: &mut FftPlanner,
    ) -> Result<Features> {
        Self::leading(series, schema, planner, schema.coeff_indices().end)
    }

    /// Features keeping the spectrum's first `kept` coefficients.
    fn leading(
        series: &TimeSeries,
        schema: FeatureSchema,
        planner: &mut FftPlanner,
        kept: usize,
    ) -> Result<Features> {
        schema.validate(series.len())?;
        let mut features = Features::room(series.len(), kept);
        features.compute(series, schema, planner);
        Ok(features)
    }

    /// Room for the features of a series of `n` samples keeping `kept`
    /// coefficients, all zero until [`Features::compute`] fills them: the
    /// spectrum at exactly the kept length, so no record holds all `n`
    /// coefficients allocated. The caller has validated the schema
    /// against `n`.
    pub(crate) fn room(n: usize, kept: usize) -> Features {
        Features {
            mean: 0.0,
            std: 0.0,
            n,
            spectrum: vec![Complex64::default(); kept],
        }
    }

    /// Fills [`Features::room`] made for `series` with its features under
    /// `schema`: the mean, once, then the standard deviation about it, and
    /// the spectrum's first `spectrum.len()` coefficients of the indexed
    /// representation, whose samples — `(v − mean) / std`, or all zeros
    /// for a constant series, under [`FeatureSchema::NormalForm`] — go
    /// straight into `planner`'s scratch. It allocates nothing once
    /// `planner` has a plan and scratch for this length: a build runs it
    /// on pool workers over records its calling thread allocated.
    pub(crate) fn compute(
        &mut self,
        series: &TimeSeries,
        schema: FeatureSchema,
        planner: &mut FftPlanner,
    ) {
        debug_assert_eq!(self.n, series.len());
        let (mean, std) = series.mean_std();
        (self.mean, self.std) = (mean, std);
        let (values, out) = (series.values().iter(), &mut self.spectrum[..]);
        match schema {
            FeatureSchema::NormalForm { .. } if std == 0.0 => {
                planner.dft_real_prefix(values.map(|_| 0.0), out)
            }
            // A division, as the normal form's: `(v − mean)·(1/std)` is
            // not always the same bits.
            FeatureSchema::NormalForm { .. } => {
                planner.dft_real_prefix(values.map(|&v| (v - mean) / std), out)
            }
            FeatureSchema::Raw { .. } => planner.dft_real_prefix(values.copied(), out),
        }
    }

    /// The indexed coefficients (a slice of the spectrum).
    pub fn indexed_coeffs(&self, schema: FeatureSchema) -> &[Complex64] {
        let r = schema.coeff_indices();
        &self.spectrum[r]
    }

    /// Series length this feature vector came from.
    pub(crate) fn n(&self) -> usize {
        self.n
    }

    /// The features of `T(x)` for the series `x` these belong to: mean and
    /// std through `t`'s affine maps, every kept coefficient transformed.
    pub fn image(&self, t: &LinearTransform) -> Features {
        let (ma, mb) = t.mean_map();
        let (sa, sb) = t.std_map();
        Features {
            mean: ma * self.mean + mb,
            std: sa * self.std + sb,
            n: self.n,
            spectrum: t.apply_prefix(&self.spectrum),
        }
    }

    /// The indexed representation's samples, inverted from the half
    /// spectrum (its conjugate mirror supplying the rest) by one inverse
    /// FFT; `None` for features that keep less than the half, a stored
    /// record's.
    pub(crate) fn samples(&self) -> Option<Vec<f64>> {
        let (n, kept) = (self.n, self.spectrum.len());
        if kept <= n / 2 {
            return None;
        }
        let mirrored = (kept..n).map(|f| self.spectrum[n - f].conj());
        let whole: Vec<Complex64> = self.spectrum.iter().copied().chain(mirrored).collect();
        Some(FftPlanner::new().idft_real(&whole))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsq_series::NormalForm;

    fn series() -> TimeSeries {
        TimeSeries::from([36.0, 38.0, 40.0, 38.0, 42.0, 38.0, 36.0, 36.0])
    }

    #[test]
    fn schema_dimensions() {
        let nf = FeatureSchema::NormalForm { k: 2 };
        assert_eq!(nf.dims(), 6, "the paper's 6-d index");
        assert_eq!(nf.aux_dims(), 2);
        assert_eq!(nf.coeff_indices(), 1..3);
        let raw = FeatureSchema::Raw { k: 3 };
        assert_eq!(raw.dims(), 6);
        assert_eq!(raw.aux_dims(), 0);
        assert_eq!(raw.coeff_indices(), 0..3);
    }

    #[test]
    fn normal_form_features() {
        let mut planner = FftPlanner::new();
        let s = series();
        let f = Features::extract(&s, FeatureSchema::NormalForm { k: 2 }, &mut planner).unwrap();
        assert!((f.mean - s.mean()).abs() < 1e-12);
        assert!((f.std - s.std()).abs() < 1e-12);
        // X_0 of a normal form is zero.
        assert!(f.spectrum[0].abs() < 1e-10);
        assert_eq!(
            f.indexed_coeffs(FeatureSchema::NormalForm { k: 2 }).len(),
            2
        );
    }

    #[test]
    fn raw_features_keep_dc() {
        let mut planner = FftPlanner::new();
        let s = series();
        let f = Features::extract(&s, FeatureSchema::Raw { k: 2 }, &mut planner).unwrap();
        // X_0 = sqrt(n) * mean.
        let expect = (8f64).sqrt() * s.mean();
        assert!((f.spectrum[0].re - expect).abs() < 1e-9);
        assert!(f.spectrum[0].im.abs() < 1e-9);
    }

    #[test]
    fn extraction_keeps_the_lower_half_at_exact_capacity() {
        let mut planner = FftPlanner::new();
        for n in [3usize, 7, 8, 128, 513] {
            let s = TimeSeries::new((0..n).map(|i| ((i * i) % 11) as f64).collect());
            let f = Features::extract(&s, FeatureSchema::Raw { k: 2 }, &mut planner).unwrap();
            assert_eq!(f.n(), n);
            assert_eq!(f.spectrum.len(), n / 2 + 1);
            assert_eq!(f.spectrum.capacity(), n / 2 + 1);
            let direct = planner.dft_real(s.values());
            assert_eq!(
                f.spectrum[..],
                direct[..n / 2 + 1],
                "kept bits are the FFT's"
            );
            // The half determines the samples.
            let back = f.samples().unwrap();
            assert_eq!(back.len(), n);
            for (got, want) in back.iter().zip(s.values()) {
                assert!((got - want).abs() < 1e-9, "n = {n}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn a_stored_record_keeps_the_indexed_coefficients_alone() {
        let mut planner = FftPlanner::new();
        for (schema, n) in [
            (FeatureSchema::NormalForm { k: 2 }, 128usize),
            (FeatureSchema::NormalForm { k: 2 }, 513),
            (FeatureSchema::NormalForm { k: 6 }, 8),
            (FeatureSchema::Raw { k: 3 }, 64),
        ] {
            let s = TimeSeries::new((0..n).map(|i| ((i * i) % 13) as f64).collect());
            let record = Features::indexed(&s, schema, &mut planner).unwrap();
            let query = Features::extract(&s, schema, &mut planner).unwrap();
            // Not a truncated view of a longer spectrum: the record owns
            // the indexed coefficients and no more.
            assert_eq!(record.spectrum.len(), schema.coeff_indices().end);
            assert_eq!(record.spectrum.capacity(), schema.coeff_indices().end);
            assert_eq!(record.indexed_coeffs(schema), query.indexed_coeffs(schema));
            assert_eq!((record.mean, record.std), (query.mean, query.std));
            if schema.coeff_indices().end <= n / 2 {
                assert!(record.samples().is_none(), "{schema:?}, n = {n}");
            }
            // What an index stores, built or appended.
            let config = crate::IndexConfig {
                schema,
                ..crate::IndexConfig::default()
            };
            let mut index = crate::SimilarityIndex::build(config, vec![s.clone()]).unwrap();
            index.push_series_batch(vec![s.clone()]).unwrap();
            for stored in index.entries() {
                assert_eq!(stored.features, record, "{schema:?}, n = {n}");
                let capacity = stored.features.spectrum.capacity();
                assert_eq!(capacity, schema.coeff_indices().end, "{schema:?}, n = {n}");
            }
        }
    }

    #[test]
    fn a_cutoff_past_the_half_keeps_the_indexed_prefix() {
        let mut planner = FftPlanner::new();
        let s = series();
        // X_1..X_6 indexed: the stored prefix runs to X_6, not X_4.
        let schema = FeatureSchema::NormalForm { k: 6 };
        let f = Features::extract(&s, schema, &mut planner).unwrap();
        assert_eq!(f.spectrum.len(), 7);
        assert_eq!(f.indexed_coeffs(schema).len(), 6);
        let normal = NormalForm::of(&s).series;
        for (got, want) in f.samples().unwrap().iter().zip(normal.values()) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
    }

    /// The features as a normal form and a whole spectrum give them: the
    /// normal form allocated as a series, its full transform, the first
    /// `kept` coefficients copied out. The reference the extraction must
    /// reproduce bit for bit.
    fn by_normal_form(series: &TimeSeries, schema: FeatureSchema, kept: usize) -> Features {
        let mut planner = FftPlanner::new();
        let (mean, std, full) = match schema {
            FeatureSchema::NormalForm { .. } => {
                let nf = NormalForm::of(series);
                (nf.mean, nf.std, planner.dft_real(nf.series.values()))
            }
            FeatureSchema::Raw { .. } => (
                series.mean(),
                series.std(),
                planner.dft_real(series.values()),
            ),
        };
        Features {
            mean,
            std,
            n: series.len(),
            spectrum: full[..kept].to_vec(),
        }
    }

    /// The bits of features: mean, std and every coefficient.
    fn bits(f: &Features) -> Vec<u64> {
        let spectrum = f.spectrum.iter().flat_map(|c| [c.re, c.im]);
        [f.mean, f.std]
            .into_iter()
            .chain(spectrum)
            .map(f64::to_bits)
            .collect()
    }

    #[test]
    fn extraction_is_the_normal_form_route_bit_for_bit() {
        let walk = |n: usize, seed: u64| -> Vec<f64> {
            let mut gen = tsq_series::generate::RandomWalkGenerator::new(seed);
            gen.series(n).values().to_vec()
        };
        let mut cases: Vec<Vec<f64>> = Vec::new();
        for n in [4usize, 8, 9, 64, 100, 128, 513, 1024] {
            cases.push(walk(n, n as u64));
            // A constant series: std 0, its normal form all zeros.
            cases.push(vec![-3.25; n]);
            // Signed zeros, subnormals and values near overflow.
            cases.push((0..n).map(|i| [0.0, -0.0][i % 2]).collect());
            let tiny = f64::from_bits(3);
            cases.push((0..n).map(|i| tiny * (i % 5) as f64 - tiny).collect());
            cases.push((0..n).map(|i| 1e300 * [1.0, -0.5, 0.25][i % 3]).collect());
        }
        let mut planner = FftPlanner::new();
        let schemas = [
            FeatureSchema::NormalForm { k: 2 },
            FeatureSchema::NormalForm { k: 3 },
            FeatureSchema::Raw { k: 3 },
        ];
        for values in cases {
            let s = TimeSeries::new(values);
            let n = s.len();
            for schema in schemas {
                let record = Features::indexed(&s, schema, &mut planner).unwrap();
                let want = by_normal_form(&s, schema, schema.coeff_indices().end);
                assert_eq!(
                    bits(&record),
                    bits(&want),
                    "indexed, {schema:?}, {:?}",
                    s.values()
                );
                let query = Features::extract(&s, schema, &mut planner).unwrap();
                let kept = query.spectrum.len();
                assert_eq!(kept, (n / 2 + 1).max(schema.coeff_indices().end));
                let want = by_normal_form(&s, schema, kept);
                assert_eq!(
                    bits(&query),
                    bits(&want),
                    "extract, {schema:?}, {:?}",
                    s.values()
                );
            }
        }
    }

    #[test]
    fn cutoff_validation() {
        let mut planner = FftPlanner::new();
        let s = TimeSeries::from([1.0, 2.0, 3.0]);
        assert!(Features::extract(&s, FeatureSchema::NormalForm { k: 2 }, &mut planner).is_ok());
        assert!(matches!(
            Features::extract(&s, FeatureSchema::NormalForm { k: 3 }, &mut planner),
            Err(Error::InvalidCutoff { .. })
        ));
        assert!(Features::extract(&s, FeatureSchema::Raw { k: 3 }, &mut planner).is_ok());
        assert!(matches!(
            Features::extract(&s, FeatureSchema::Raw { k: 0 }, &mut planner),
            Err(Error::InvalidCutoff { .. })
        ));
    }

    #[test]
    fn constant_series_features() {
        let mut planner = FftPlanner::new();
        let s = TimeSeries::from([5.0, 5.0, 5.0, 5.0]);
        let f = Features::extract(&s, FeatureSchema::NormalForm { k: 2 }, &mut planner).unwrap();
        assert_eq!(f.std, 0.0);
        for c in &f.spectrum {
            assert!(c.abs() < 1e-12);
        }
    }
}
