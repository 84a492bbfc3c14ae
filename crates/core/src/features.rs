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
//! ## The symmetry lemma
//!
//! A stored series is real, so its unitary spectrum is
//! conjugate-symmetric, `X_{n−f} = conj(X_f)`, and [`Features`] keeps
//! coefficients `0..=n/2` only. A transformation `T = (a, b)` that maps
//! real series to real series is itself conjugate-symmetric
//! (`a_{n−f} = conj(a_f)`, `b_{n−f} = conj(b_f)`; per constructor in
//! [`crate::transform`]), and so is every `a .* X + b` it produces. For
//! two such spectra the differences mirror too, `Δ_{n−f} = conj(Δ_f)`,
//! hence
//!
//! ```text
//! D² = Σ_{f<n} |Δ_f|² = |Δ_0|² + 2·Σ_{0<f<n/2} |Δ_f|²  (+ |Δ_{n/2}|², n even)
//! ```
//!
//! — the sum the refine runs ([`crate::index::Refine`]). The same
//! identity bounds any subset of the interior coefficients:
//! `D² ≥ 2·Σ_{f∈S} |Δ_f|²` for `S ⊆ {1, …, ⌈n/2⌉ − 1}`, which is what a
//! filter over indexed coefficients may rely on.

use tsq_dft::{Complex64, FftPlanner};
use tsq_series::{NormalForm, TimeSeries};

use crate::error::{Error, Result};

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
    pub fn aux_dims(&self) -> usize {
        match self {
            FeatureSchema::NormalForm { .. } => 2,
            FeatureSchema::Raw { .. } => 0,
        }
    }

    /// Spectrum indices of the kept coefficients, in index order.
    pub fn coeff_indices(&self) -> std::ops::Range<usize> {
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
/// lower half of the spectrum of the indexed representation. The index
/// uses only the first `k` coefficients; post-processing (Algorithm 2,
/// step 3) uses the rest to compute exact distances.
#[derive(Debug, Clone, PartialEq)]
pub struct Features {
    /// Mean of the original series.
    pub mean: f64,
    /// Population standard deviation of the original series.
    pub std: f64,
    /// Series length the spectrum belongs to.
    n: usize,
    /// Unitary DFT of the indexed representation (normal form or raw):
    /// coefficients `0..len` with `n/2 + 1 <= len <= n`, every later one
    /// being the conjugate mirror `X_f = conj(X_{n−f})` (the module docs'
    /// symmetry lemma). Extraction keeps `0..=n/2`, or through the last
    /// indexed coefficient where the schema's `k` reaches past `n/2`; only
    /// the image of a series under a transformation that is not
    /// conjugate-symmetric needs, and holds, all `n`.
    pub spectrum: Vec<Complex64>,
}

impl Features {
    /// Features of a length-`n` series from the leading coefficients of
    /// its spectrum, or `None` unless `n/2 + 1 <= spectrum.len() <= n`.
    pub fn from_spectrum(
        mean: f64,
        std: f64,
        n: usize,
        spectrum: Vec<Complex64>,
    ) -> Option<Features> {
        (n / 2 < spectrum.len() && spectrum.len() <= n).then_some(Features {
            mean,
            std,
            n,
            spectrum,
        })
    }

    /// Extracts features according to `schema`.
    ///
    /// # Errors
    /// Returns [`Error::InvalidCutoff`] when the schema's `k` does not fit
    /// the series length.
    pub fn extract(
        series: &TimeSeries,
        schema: FeatureSchema,
        planner: &mut FftPlanner,
    ) -> Result<Features> {
        let n = series.len();
        schema.validate(n)?;
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
        // A copy at exactly the kept length: truncating `full` would keep
        // all `n` coefficients allocated behind every stored record.
        let spectrum = full[..Self::kept_coefficients(n, schema)].to_vec();
        Ok(Features {
            mean,
            std,
            n,
            spectrum,
        })
    }

    /// How many leading coefficients extraction keeps of a length-`n`
    /// series' spectrum under a fitting `schema`: `0..=n/2`, or through the
    /// last indexed one where that lies beyond.
    pub(crate) fn kept_coefficients(n: usize, schema: FeatureSchema) -> usize {
        (n / 2 + 1).max(schema.coeff_indices().end)
    }

    /// The indexed coefficients (a slice of the spectrum).
    pub fn indexed_coeffs(&self, schema: FeatureSchema) -> &[Complex64] {
        let r = schema.coeff_indices();
        &self.spectrum[r]
    }

    /// Series length this feature vector came from.
    pub fn n(&self) -> usize {
        self.n
    }

    /// All `n` coefficients: the stored ones, then the conjugate mirror of
    /// the lower half.
    pub fn full_spectrum(&self) -> Vec<Complex64> {
        let mirrored = (self.spectrum.len()..self.n).map(|f| self.spectrum[self.n - f].conj());
        self.spectrum.iter().copied().chain(mirrored).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            // Not a truncated view of all n: the record owns no more.
            assert_eq!(f.spectrum.capacity(), n / 2 + 1);
            let direct = planner.dft_real(s.values());
            assert_eq!(
                f.spectrum[..],
                direct[..n / 2 + 1],
                "kept bits are the FFT's"
            );
            let full = f.full_spectrum();
            assert_eq!(full.len(), n);
            for (got, want) in full.iter().zip(&direct) {
                assert!((*got - *want).abs() < 1e-9, "n = {n}: {got} vs {want}");
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
        assert_eq!(f.full_spectrum().len(), 8);
        assert_eq!(f.full_spectrum()[7], f.spectrum[1].conj());
        // The stated bounds of a stored prefix.
        let half = f.spectrum[..5].to_vec();
        assert!(Features::from_spectrum(0.0, 1.0, 8, half.clone()).is_some());
        assert!(Features::from_spectrum(0.0, 1.0, 8, half[..4].to_vec()).is_none());
        assert!(Features::from_spectrum(0.0, 1.0, 4, half).is_none());
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
