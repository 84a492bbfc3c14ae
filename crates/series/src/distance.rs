//! Distances between equal-length time series. [`sum_sq_within`] (with
//! [`sum_sq_blocks`], the same loop fed eight terms at a time) is the one
//! accumulate-and-abandon loop every exact check in the workspace runs,
//! [`limit_sq`] the threshold it is compared against; statements
//! reach no other sum of squares. [`euclidean`], [`city_block`] and
//! [`chebyshev`] are the paper's Section-1 definitions, the references
//! tests and examples compare against.

use crate::series::TimeSeries;

/// Euclidean distance `D(x, y) = sqrt(sum (x_i - y_i)^2)` — the paper's
/// baseline dissimilarity (Section 1).
///
/// # Panics
/// Panics if lengths differ.
pub fn euclidean(x: &TimeSeries, y: &TimeSeries) -> f64 {
    assert_eq!(x.len(), y.len(), "distance requires equal lengths");
    x.iter()
        .zip(y.iter())
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        .sqrt()
}

/// Width of the blocked kernel: the abandon check runs once per this
/// many terms, so the inner loop is branch-free and auto-vectorizable.
pub const ABANDON_BLOCK: usize = 8;

/// **The** accumulate-and-abandon loop — the one place in the workspace
/// that compares a partial sum of squares with a limit. Adds
/// `term(0) + … + term(n - 1)` (squared differences, hence non-negative)
/// and returns `None` as soon as the partial sum exceeds `limit`,
/// checking once per 8-term block: [`distance_sq_within`] over real
/// samples, `tsq-core`'s whole-match refine over `(T(x̂)_t − q̂_t)²`
/// (through [`sum_sq_blocks`], the same loop fed eight terms at a time).
/// Pass [`limit_sq`]`(eps)` to decide "within `eps`", `f64::INFINITY`
/// for the full sum.
///
/// Checking per block is exact: partial sums of non-negative terms are
/// monotone, so the block-boundary check reaches the same `Some`/`None`
/// decision as a per-term check, with the same `<=`-stays `>`-abandons
/// tie boundary. Accumulation is strictly left to right in a single
/// accumulator, so a returned sum is bit-identical to the naive loop's.
#[inline]
pub fn sum_sq_within(n: usize, term: impl Fn(usize) -> f64, limit: f64) -> Option<f64> {
    sum_sq_blocks(n, |i| std::array::from_fn(|j| term(i + j)), &term, limit)
}

/// [`sum_sq_within`] with its terms produced a block at a time:
/// `block(i)` gives terms `i..i + ABANDON_BLOCK` of every whole block,
/// `term(i)` each term of the (at most 7-term) tail — for terms that are
/// cheaper eight at a time than one by one, such as a convolution's
/// outputs. The same loop: the same order of adds, the same checks.
#[inline]
pub fn sum_sq_blocks(
    n: usize,
    block: impl Fn(usize) -> [f64; ABANDON_BLOCK],
    term: impl Fn(usize) -> f64,
    limit: f64,
) -> Option<f64> {
    let mut acc = 0.0;
    let mut i = 0;
    while i + ABANDON_BLOCK <= n {
        // The terms are independent and free to vectorize; the adds stay
        // ordered through one accumulator for bit-identity.
        for s in block(i) {
            acc += s;
        }
        if acc > limit {
            return None;
        }
        i += ABANDON_BLOCK;
    }
    // Per-term checks in the (at most 7-term) tail: the abandon test only
    // ever runs *after* an addition — so an empty input is `Some(0.0)` no
    // matter the limit.
    while i < n {
        acc += term(i);
        if acc > limit {
            return None;
        }
        i += 1;
    }
    Some(acc)
}

/// The squared-distance limit that **is** "within `eps`": the largest
/// `f64` whose square root is `<= eps`. IEEE `sqrt` is correctly rounded,
/// hence monotone, so `acc <= limit_sq(eps)` exactly when
/// `acc.sqrt()` — the distance a row is reported with — is `<= eps`. One
/// call per statement replaces a `sqrt` per candidate; the rounded
/// square of `eps` would not do, as it can fall below the sum whose root
/// *is* `eps`. Anything that is not a positive number (`eps` is a checked
/// threshold) gives `0.0`, a square that overflows `f64::MAX`.
pub fn limit_sq(eps: f64) -> f64 {
    if eps.is_nan() || eps <= 0.0 {
        return 0.0;
    }
    // The rounded square is within two ulps of the answer; walk there
    // (`f64::next_up` is past the MSRV; a positive finite value's
    // neighbours are its bit pattern's).
    let mut limit = eps.powi(2).min(f64::MAX);
    while limit.sqrt() > eps {
        limit = f64::from_bits(limit.to_bits() - 1);
    }
    while limit < f64::MAX && f64::from_bits(limit.to_bits() + 1).sqrt() <= eps {
        limit = f64::from_bits(limit.to_bits() + 1);
    }
    limit
}

/// The real-valued instantiation of [`sum_sq_within`], `sum (x_i - y_i)^2`
/// — what every subsequence window check runs. Slices of unequal length
/// are compared over the shorter prefix.
pub fn distance_sq_within(x: &[f64], y: &[f64], limit: f64) -> Option<f64> {
    let n = x.len().min(y.len());
    sum_sq_within(n, |i| (x[i] - y[i]) * (x[i] - y[i]), limit)
}

/// City-block (L1) distance, mentioned in Section 1 as an alternative
/// dissimilarity.
pub fn city_block(x: &TimeSeries, y: &TimeSeries) -> f64 {
    assert_eq!(x.len(), y.len(), "distance requires equal lengths");
    x.iter().zip(y.iter()).map(|(a, b)| (a - b).abs()).sum()
}

/// Maximum (L∞) distance.
pub fn chebyshev(x: &TimeSeries, y: &TimeSeries) -> f64 {
    assert_eq!(x.len(), y.len(), "distance requires equal lengths");
    x.iter()
        .zip(y.iter())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euclidean_by_hand() {
        let x = TimeSeries::from([0.0, 0.0]);
        let y = TimeSeries::from([3.0, 4.0]);
        assert_eq!(euclidean(&x, &y), 5.0);
        assert_eq!(city_block(&x, &y), 7.0);
        assert_eq!(chebyshev(&x, &y), 4.0);
    }

    #[test]
    fn zero_distance_to_self() {
        let x = TimeSeries::from([1.0, -2.0, 3.5]);
        assert_eq!(euclidean(&x, &x), 0.0);
        assert_eq!(city_block(&x, &x), 0.0);
    }

    #[test]
    fn early_abandon_consistency() {
        let x = TimeSeries::from([1.0, 2.0, 3.0, 4.0]);
        let y = TimeSeries::from([2.0, 4.0, 1.0, 0.0]);
        let d = euclidean(&x, &y);
        let within = |eps| distance_sq_within(x.values(), y.values(), limit_sq(eps));
        assert_eq!(within(d + 0.1).map(f64::sqrt), Some(d));
        assert_eq!(within(d), Some(d * d), "a distance is within itself");
        assert_eq!(within(d - 0.1), None);
    }

    /// The neighbouring `f64` above a non-negative finite value.
    fn next_up(v: f64) -> f64 {
        f64::from_bits(v.to_bits() + 1)
    }

    #[test]
    fn limit_sq_is_the_largest_square_whose_root_is_within_eps() {
        // Seeded thresholds log-uniform over 1e-300…1e150, plus the
        // edges: zero, a subnormal, the largest eps whose square is
        // finite, and one whose square overflows.
        let mut seed = 0x2545_F491_4F6C_DD1D_u64;
        let mut unit = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut cases: Vec<f64> = (0..4000)
            .map(|_| 10f64.powf(-300.0 + 450.0 * unit()) * (1.0 + unit()))
            .collect();
        cases.extend([0.0, 5e-324, 1e-310, 1.0, 3.0, f64::MAX.sqrt(), 1e200]);
        for eps in cases {
            let limit = limit_sq(eps);
            assert!(limit.sqrt() <= eps, "eps {eps:e}: sqrt({limit:e}) > eps");
            if limit < f64::MAX {
                let up = next_up(limit);
                assert!(up.sqrt() > eps, "eps {eps:e}: {up:e} also qualifies");
            }
        }
        assert_eq!(limit_sq(0.0), 0.0);
        assert_eq!(limit_sq(1e200), f64::MAX);
        // sqrt(1 + ulp) = 1 + ulp/2 - ... rounds down to 1: `eps * eps`
        // is not the limit.
        assert_eq!(limit_sq(1.0), next_up(1.0));
    }

    /// Per-element early-abandon oracle: the pre-blocking implementation.
    fn naive_sq_within(x: &[f64], y: &[f64], limit: f64) -> Option<f64> {
        let mut acc = 0.0;
        for (a, b) in x.iter().zip(y.iter()) {
            let d = a - b;
            acc += d * d;
            if acc > limit {
                return None;
            }
        }
        Some(acc)
    }

    #[test]
    fn blocked_kernel_is_bit_identical_to_per_element() {
        // Every length around the 8-wide block boundary, several limits
        // per pair: the blocked kernel must reach the identical
        // Some/None decision and, when Some, the bit-identical sum.
        let mut seed = 0x9E37_79B9_u64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64) / ((1u64 << 31) as f64) - 0.5
        };
        for len in 0..=40 {
            let x: Vec<f64> = (0..len).map(|_| next() * 4.0).collect();
            let y: Vec<f64> = (0..len).map(|_| next() * 4.0).collect();
            let full: f64 = x.iter().zip(&y).map(|(a, b)| (a - b) * (a - b)).sum();
            for limit in [
                0.0,
                full * 0.25,
                full * 0.5,
                full - 1e-12,
                full,
                full + 1.0,
                f64::MAX,
            ] {
                let want = naive_sq_within(&x, &y, limit);
                let got = distance_sq_within(&x, &y, limit);
                match (got, want) {
                    (Some(g), Some(w)) => {
                        assert_eq!(g.to_bits(), w.to_bits(), "len {len} limit {limit}")
                    }
                    (None, None) => {}
                    other => panic!("len {len} limit {limit}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn blocked_kernel_tie_boundary_is_exact() {
        // acc == limit exactly must NOT abandon (`<=` stays, `>` goes).
        let x = [2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0];
        let y = [0.0; 9];
        assert_eq!(distance_sq_within(&x, &y, 5.0), Some(5.0));
        assert_eq!(distance_sq_within(&x, &y, 4.999), None);
        // Exactly at the block boundary, too.
        assert_eq!(distance_sq_within(&x[..8], &y[..8], 4.0), Some(4.0));
        assert_eq!(distance_sq_within(&x[..8], &y[..8], 3.999), None);
    }

    #[test]
    fn metric_inequalities() {
        // chebyshev <= euclidean <= city_block for any pair.
        let x = TimeSeries::from([1.0, 5.0, -3.0, 0.5]);
        let y = TimeSeries::from([0.0, 2.0, 2.0, 2.0]);
        assert!(chebyshev(&x, &y) <= euclidean(&x, &y) + 1e-12);
        assert!(euclidean(&x, &y) <= city_block(&x, &y) + 1e-12);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn mismatched_lengths_panic() {
        let _ = euclidean(&TimeSeries::from([1.0]), &TimeSeries::from([1.0, 2.0]));
    }

    #[test]
    fn paper_example_1_1_distance() {
        // D(s1, s2) = 11.92 for the sequences of Example 1.1.
        let s1 = TimeSeries::from([
            36.0, 38.0, 40.0, 38.0, 42.0, 38.0, 36.0, 36.0, 37.0, 38.0, 39.0, 38.0, 40.0, 38.0,
            37.0,
        ]);
        let s2 = TimeSeries::from([
            40.0, 37.0, 37.0, 42.0, 41.0, 35.0, 40.0, 35.0, 34.0, 42.0, 38.0, 35.0, 45.0, 36.0,
            34.0,
        ]);
        let d = euclidean(&s1, &s2);
        assert!((d - 11.92).abs() < 0.005, "got {d}");
    }
}
