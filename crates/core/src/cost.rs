//! The cost-bounded dissimilarity of Equation 10 (after Jagadish,
//! Mendelzon & Milo 1995).
//!
//! Given a set of transformations `t`, each with a cost, the dissimilarity
//! between two objects is
//!
//! ```text
//! D(x, y) = min {  D0(x, y),
//!                  min_{T in t}       cost(T)  + D(T(x), y),
//!                  min_{T in t}       cost(T)  + D(x, T(y)),
//!                  min_{T1, T2 in t}  cost(T1) + cost(T2) + D(T1(x), T2(y)) }
//! ```
//!
//! where `D0` is the Euclidean distance. The recursion is a shortest-path
//! problem over states `(x', y')` reachable by applying transformations to
//! either side — in the time domain, by each transformation's action
//! ([`LinearTransform::apply_time_domain`]); [`transformation_distance`]
//! solves it with uniform-cost
//! search, bounded by a cost budget and a depth limit (the paper bounds the
//! total cost, e.g. "proportional to the Euclidean distance between the two
//! original series", to keep repeated smoothing from equating everything).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use tsq_series::distance::distance_sq_within;
use tsq_series::TimeSeries;

use crate::error::{Error, Result};
use crate::transform::LinearTransform;

/// Search limits for [`transformation_distance`].
#[derive(Debug, Clone, Copy)]
pub struct CostBudget {
    /// Maximum total transformation cost allowed (the paper's upper bound
    /// on Equation 10's minimization).
    pub max_cost: f64,
    /// Maximum number of transformation applications per side (guards
    /// against zero-cost loops; the paper's examples all use depth <= 2).
    pub max_depth: usize,
}

impl Default for CostBudget {
    fn default() -> Self {
        CostBudget {
            max_cost: f64::INFINITY,
            max_depth: 3,
        }
    }
}

/// Result of a cost-bounded distance evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct CostedDistance {
    /// The minimized value: transformation costs plus residual Euclidean
    /// distance.
    pub value: f64,
    /// Names of the transformations applied to the first object.
    pub applied_x: Vec<String>,
    /// Names of the transformations applied to the second object.
    pub applied_y: Vec<String>,
}

#[derive(Debug)]
struct State {
    priority: f64, // cost so far (admissible lower bound of final value)
    cost: f64,
    x: Vec<f64>,
    y: Vec<f64>,
    applied_x: Vec<usize>,
    applied_y: Vec<usize>,
}

impl PartialEq for State {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority
    }
}
impl Eq for State {}
impl PartialOrd for State {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for State {
    fn cmp(&self, other: &Self) -> Ordering {
        other.priority.total_cmp(&self.priority) // min-heap
    }
}

/// Computes the Equation-10 dissimilarity between two equal-length series
/// under a transformation set, by uniform-cost search over transformation
/// applications to either side.
///
/// # Errors
/// - [`Error::LengthMismatch`] when the series lengths differ;
/// - [`Error::TransformArity`] when a transformation's length differs;
/// - [`Error::Unsupported`] for warping transformations (length-changing)
///   and for ones that map real series to complex ones.
pub fn transformation_distance(
    x: &TimeSeries,
    y: &TimeSeries,
    transforms: &[LinearTransform],
    budget: CostBudget,
) -> Result<CostedDistance> {
    if x.len() != y.len() {
        return Err(Error::LengthMismatch {
            expected: x.len(),
            got: y.len(),
        });
    }
    // NaN budgets or costs make every pruning comparison below silently
    // false (`next_cost > NaN`, `priority >= NaN`), so the search would
    // neither prune nor terminate meaningfully — reject them up front.
    // +∞ max_cost is fine: it is the documented "no bound" default.
    if budget.max_cost.is_nan() {
        return Err(Error::NonFinite {
            context: format!("cost budget max_cost = {}", budget.max_cost),
        });
    }
    for t in transforms {
        if t.warp() > 1 {
            return Err(Error::Unsupported(
                "time warps in Equation-10 search".to_string(),
            ));
        }
        if !t.maps_real_series() {
            return Err(Error::Unsupported(format!(
                "transformation {} maps real series to complex ones",
                t.name()
            )));
        }
        if t.n() != x.len() {
            return Err(Error::TransformArity {
                expected: x.len(),
                got: t.n(),
            });
        }
        if !t.cost().is_finite() {
            return Err(Error::NonFinite {
                context: format!("transformation {} cost = {}", t.name(), t.cost()),
            });
        }
    }
    let (sx, sy) = (x.values().to_vec(), y.values().to_vec());
    let apply = |t: &LinearTransform, v: &[f64]| {
        t.apply_time_domain(v)
            .expect("checked: maps real series to real series")
    };

    // The residual `D0`, summed by the engine's one loop.
    let d0 = |x: &[f64], y: &[f64]| {
        let sum = distance_sq_within(x, y, f64::INFINITY);
        sum.expect("no sum exceeds an infinite limit").sqrt()
    };
    let mut best = CostedDistance {
        value: d0(&sx, &sy),
        applied_x: Vec::new(),
        applied_y: Vec::new(),
    };
    let mut heap = BinaryHeap::new();
    heap.push(State {
        priority: 0.0,
        cost: 0.0,
        x: sx,
        y: sy,
        applied_x: Vec::new(),
        applied_y: Vec::new(),
    });
    while let Some(state) = heap.pop() {
        // Costs only grow down the search tree; once the cheapest open
        // state cannot beat the incumbent, stop.
        if state.priority >= best.value {
            break;
        }
        let value = state.cost + d0(&state.x, &state.y);
        if value < best.value {
            best = CostedDistance {
                value,
                applied_x: name_list(transforms, &state.applied_x),
                applied_y: name_list(transforms, &state.applied_y),
            };
        }
        for (ti, t) in transforms.iter().enumerate() {
            let next_cost = state.cost + t.cost();
            if next_cost > budget.max_cost || next_cost >= best.value {
                continue;
            }
            if state.applied_x.len() < budget.max_depth {
                let mut ax = state.applied_x.clone();
                ax.push(ti);
                heap.push(State {
                    priority: next_cost,
                    cost: next_cost,
                    x: apply(t, &state.x),
                    y: state.y.clone(),
                    applied_x: ax,
                    applied_y: state.applied_y.clone(),
                });
            }
            if state.applied_y.len() < budget.max_depth {
                let mut ay = state.applied_y.clone();
                ay.push(ti);
                heap.push(State {
                    priority: next_cost,
                    cost: next_cost,
                    x: state.x.clone(),
                    y: apply(t, &state.y),
                    applied_x: state.applied_x.clone(),
                    applied_y: ay,
                });
            }
        }
    }
    Ok(best)
}

fn name_list(transforms: &[LinearTransform], applied: &[usize]) -> Vec<String> {
    applied
        .iter()
        .map(|&i| transforms[i].name().to_string())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsq_series::distance::euclidean;

    #[test]
    fn no_transforms_is_plain_distance() {
        let x = TimeSeries::from([1.0, 2.0, 3.0, 4.0]);
        let y = TimeSeries::from([2.0, 2.0, 2.0, 2.0]);
        let d = transformation_distance(&x, &y, &[], CostBudget::default()).unwrap();
        assert!((d.value - euclidean(&x, &y)).abs() < 1e-9);
        assert!(d.applied_x.is_empty() && d.applied_y.is_empty());
    }

    #[test]
    fn reverse_detects_opposites() {
        // y = -x: with T_rev at cost 1 the dissimilarity drops to 1.
        let x = TimeSeries::from([1.0, -2.0, 3.0, -1.0, 0.5, 2.0, -3.0, 1.5]);
        let y = x.negate();
        let rev = LinearTransform::reverse(8).with_cost(1.0);
        let d = transformation_distance(&x, &y, &[rev], CostBudget::default()).unwrap();
        assert!((d.value - 1.0).abs() < 1e-9, "got {}", d.value);
        assert_eq!(
            d.applied_x.len() + d.applied_y.len(),
            1,
            "one application suffices"
        );
    }

    #[test]
    fn transformation_skipped_when_too_expensive() {
        let x = TimeSeries::from([1.0, -2.0, 3.0, -1.0]);
        let y = x.negate();
        let plain = euclidean(&x, &y);
        let rev = LinearTransform::reverse(4).with_cost(plain + 5.0);
        let d = transformation_distance(&x, &y, &[rev], CostBudget::default()).unwrap();
        assert!((d.value - plain).abs() < 1e-9, "expensive transform unused");
    }

    #[test]
    fn non_finite_budget_and_costs_rejected() {
        let x = TimeSeries::from([1.0, -2.0, 3.0, -1.0]);
        let y = x.negate();
        let nan_budget = CostBudget {
            max_cost: f64::NAN,
            max_depth: 2,
        };
        assert!(matches!(
            transformation_distance(&x, &y, &[], nan_budget),
            Err(Error::NonFinite { .. })
        ));
        let rev = LinearTransform::reverse(4).with_cost(f64::INFINITY);
        assert!(matches!(
            transformation_distance(&x, &y, &[rev], CostBudget::default()),
            Err(Error::NonFinite { .. })
        ));
    }

    #[test]
    fn budget_cost_limit_respected() {
        let x = TimeSeries::from([1.0, -2.0, 3.0, -1.0]);
        let y = x.negate();
        let rev = LinearTransform::reverse(4).with_cost(2.0);
        let tight = CostBudget {
            max_cost: 1.0,
            max_depth: 3,
        };
        let d = transformation_distance(&x, &y, &[rev], tight).unwrap();
        assert!((d.value - euclidean(&x, &y)).abs() < 1e-9);
    }

    #[test]
    fn both_sides_can_transform() {
        // x and y similar only after smoothing *both* (Example 2.1's MV
        // step applied to the two series).
        let base: Vec<f64> = (0..32).map(|i| (i as f64 * 0.4).sin() * 4.0).collect();
        let mut xv = base.clone();
        let mut yv = base.clone();
        for i in 0..32 {
            // Opposite-phase alternating noise.
            xv[i] += if i % 2 == 0 { 1.0 } else { -1.0 };
            yv[i] += if i % 2 == 0 { -1.0 } else { 1.0 };
        }
        let x = TimeSeries::new(xv);
        let y = TimeSeries::new(yv);
        let ma = LinearTransform::moving_average(32, 4).with_cost(0.5);
        let d = transformation_distance(&x, &y, &[ma], CostBudget::default()).unwrap();
        let plain = euclidean(&x, &y);
        assert!(d.value < plain, "{} !< {plain}", d.value);
        assert!(!d.applied_x.is_empty() && !d.applied_y.is_empty());
    }

    #[test]
    fn zero_cost_transforms_capped_by_depth() {
        // With zero costs the depth limit keeps the search finite.
        let x = TimeSeries::from([5.0, 1.0, 4.0, 2.0, 8.0, 3.0, 7.0, 2.0]);
        let y = TimeSeries::from([2.0, 7.0, 1.0, 8.0, 2.0, 4.0, 1.0, 5.0]);
        let ma = LinearTransform::moving_average(8, 2);
        let budget = CostBudget {
            max_cost: f64::INFINITY,
            max_depth: 4,
        };
        let d = transformation_distance(&x, &y, &[ma], budget).unwrap();
        assert!(d.applied_x.len() <= 4 && d.applied_y.len() <= 4);
        // Repeated smoothing flattens both series toward their means, so
        // the minimized value is below the plain distance.
        assert!(d.value <= euclidean(&x, &y));
    }

    #[test]
    fn length_mismatch_rejected() {
        let x = TimeSeries::from([1.0, 2.0]);
        let y = TimeSeries::from([1.0, 2.0, 3.0]);
        assert!(matches!(
            transformation_distance(&x, &y, &[], CostBudget::default()),
            Err(Error::LengthMismatch { .. })
        ));
    }

    #[test]
    fn warp_rejected() {
        let x = TimeSeries::from([1.0, 2.0, 3.0, 4.0]);
        let w = LinearTransform::time_warp(4, 2);
        assert!(matches!(
            transformation_distance(&x, &x, &[w], CostBudget::default()),
            Err(Error::Unsupported(_))
        ));
    }

    #[test]
    fn a_transformation_to_complex_series_is_rejected() {
        // A complex scale has no real time-domain action to search with.
        let x = TimeSeries::from([1.0, 2.0, 3.0, 4.0]);
        let rotation = LinearTransform::from_parts(
            vec![tsq_dft::Complex64::new(0.6, 0.8); 4],
            vec![tsq_dft::complex::ZERO; 4],
            "rot",
        )
        .unwrap();
        assert!(matches!(
            transformation_distance(&x, &x, &[rotation], CostBudget::default()),
            Err(Error::Unsupported(_))
        ));
    }
}
