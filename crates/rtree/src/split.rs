//! R\*-tree node split (Beckmann et al. 1990, Section 4.2).
//!
//! `ChooseSplitAxis` picks the axis minimizing the sum of margins over all
//! candidate distributions; `ChooseSplitIndex` picks the distribution on
//! that axis minimizing overlap (ties broken by combined area).

use crate::node::Node;
use crate::rect::{union_into, RectView};

/// Chooses how to split an overflowing node (`max + 1` entries) into two
/// groups of at least `min` entries each: `true` marks the entries of the
/// first group, which stay in the node; the others move to its sibling.
pub(crate) fn rstar_split<T>(node: &Node<T>, min: usize) -> Vec<bool> {
    let total = node.len();
    debug_assert!(
        total >= 2 * min,
        "cannot split {total} entries with min {min}"
    );
    let dims = node.dims as usize;
    let rect = |i: usize| node.rect(i);
    // Number of candidate distributions per sorted order.
    let k_count = total - 2 * min + 1;

    // For each axis and each of the two sort keys (by lower, by upper
    // bound), evaluate margin sums; remember the best (axis, order) and then
    // the best distribution on it.
    let mut best_axis_margin = f64::INFINITY;
    let mut best_axis_orders: Vec<Vec<usize>> = Vec::new();

    for axis in 0..dims {
        let mut by_lo: Vec<usize> = (0..total).collect();
        by_lo.sort_by(|&a, &b| {
            let ((alo, ahi), (blo, bhi)) = (rect(a).interval(axis), rect(b).interval(axis));
            alo.total_cmp(&blo).then(ahi.total_cmp(&bhi))
        });
        let mut by_hi: Vec<usize> = (0..total).collect();
        by_hi.sort_by(|&a, &b| {
            let ((alo, ahi), (blo, bhi)) = (rect(a).interval(axis), rect(b).interval(axis));
            ahi.total_cmp(&bhi).then(alo.total_cmp(&blo))
        });

        let mut margin_sum = 0.0;
        for order in [&by_lo, &by_hi] {
            let (prefix, suffix) = prefix_suffix_mbrs(node, order);
            for k in 0..k_count {
                let split_at = min + k;
                margin_sum += prefix.rect(split_at - 1).margin() + suffix.rect(split_at).margin();
            }
        }
        if margin_sum < best_axis_margin {
            best_axis_margin = margin_sum;
            best_axis_orders = vec![by_lo, by_hi];
        }
    }
    debug_assert!(!best_axis_orders.is_empty());

    // ChooseSplitIndex on the winning axis: minimal overlap, ties by area.
    let mut best: Option<(f64, f64, usize, usize)> = None; // (overlap, area, order_idx, split_at)
    for (oi, order) in best_axis_orders.iter().enumerate() {
        let (prefix, suffix) = prefix_suffix_mbrs(node, order);
        for k in 0..k_count {
            let split_at = min + k;
            let r1 = prefix.rect(split_at - 1);
            let r2 = suffix.rect(split_at);
            let overlap = r1.intersection_area(r2);
            let area = r1.area() + r2.area();
            let better = match &best {
                None => true,
                Some((bo, ba, _, _)) => overlap < *bo || (overlap == *bo && area < *ba),
            };
            if better {
                best = Some((overlap, area, oi, split_at));
            }
        }
    }
    let (_, _, order_idx, split_at) = best.expect("at least one distribution");
    let mut first = vec![false; total];
    for &idx in &best_axis_orders[order_idx][..split_at] {
        first[idx] = true;
    }
    first
}

/// `count` rectangles of `2·dims` stored bounds each, back to back.
struct Mbrs {
    bounds: Vec<f32>,
    width: usize,
}

impl Mbrs {
    fn rect(&self, i: usize) -> RectView<'_> {
        RectView::new(&self.bounds[i * self.width..(i + 1) * self.width])
    }
}

/// For a given ordering of a node's entries, returns `(prefix, suffix)`
/// where `prefix[i]` is the MBR of `order[0..=i]` and `suffix[i]` the MBR
/// of `order[i..]`.
fn prefix_suffix_mbrs<T>(node: &Node<T>, order: &[usize]) -> (Mbrs, Mbrs) {
    let n = order.len();
    let w = node.width();
    let bounds = |i: usize| node.rect(order[i]).bounds();
    let mut prefix = Vec::with_capacity(n * w);
    prefix.extend_from_slice(bounds(0));
    for i in 1..n {
        prefix.extend_from_within((i - 1) * w..i * w);
        union_into(&mut prefix[i * w..], bounds(i));
    }
    let mut suffix = vec![0.0; n * w];
    suffix[(n - 1) * w..].copy_from_slice(bounds(n - 1));
    for i in (0..n - 1).rev() {
        let (head, tail) = suffix.split_at_mut((i + 1) * w);
        let acc = &mut head[i * w..];
        acc.copy_from_slice(&tail[..w]);
        union_into(acc, bounds(i));
    }
    let mbrs = |bounds| Mbrs { bounds, width: w };
    (mbrs(prefix), mbrs(suffix))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Kid;
    use crate::rect::stored;

    /// A leaf holding one 2-d rectangle per `(lo, hi)`, its index the item.
    fn leaf(rects: &[([f64; 2], [f64; 2])]) -> Node<usize> {
        let mut node = Node::empty(0, 2);
        for (id, (lo, hi)) in rects.iter().enumerate() {
            node.push(&stored(&[lo[0], lo[1], hi[0], hi[1]]), Kid::Item(id));
        }
        node
    }

    #[test]
    fn split_respects_min_fill() {
        let rects: Vec<_> = (0..9)
            .map(|i| ([i as f64, 0.0], [i as f64 + 0.5, 1.0]))
            .collect();
        let first = rstar_split(&leaf(&rects), 3);
        let n1 = first.iter().filter(|&&f| f).count();
        assert!(n1 >= 3 && 9 - n1 >= 3);
    }

    #[test]
    fn split_separates_two_clusters() {
        // Two well-separated clusters along x should split cleanly.
        let mut rects = Vec::new();
        for i in 0..5 {
            rects.push(([i as f64 * 0.1, 0.0], [i as f64 * 0.1 + 0.05, 1.0]));
        }
        for i in 0..4 {
            rects.push((
                [100.0 + i as f64 * 0.1, 0.0],
                [100.0 + i as f64 * 0.1 + 0.05, 1.0],
            ));
        }
        let mut node = leaf(&rects);
        let first = rstar_split(&node, 3);
        let sibling = node.split_off(&first);
        let ids = |n: &Node<usize>| match &n.kids {
            crate::node::Kids::Items(items) => items.clone(),
            crate::node::Kids::Nodes(_) => unreachable!(),
        };
        let (a, b) = (ids(&node), ids(&sibling));
        // One group holds the low cluster (plus possibly a boundary member),
        // the other the high cluster; overlap between group MBRs is zero.
        assert_eq!(
            node.mbr().view().intersection_area(sibling.mbr().view()),
            0.0,
            "groups {a:?} / {b:?}"
        );
    }

    #[test]
    fn prefix_suffix_consistency() {
        let rects: Vec<_> = (0..4)
            .map(|i| ([i as f64, -(i as f64)], [i as f64 + 1.0, i as f64]))
            .collect();
        let node = leaf(&rects);
        let order: Vec<usize> = vec![2, 0, 3, 1];
        let (prefix, suffix) = prefix_suffix_mbrs(&node, &order);
        // prefix of everything == suffix of everything == total MBR
        assert_eq!(prefix.rect(3), suffix.rect(0));
        assert_eq!(&node.mbr_bounds()[..], prefix.rect(3).bounds());
        // prefix[0] is just the first entry's rect
        assert_eq!(prefix.rect(0), node.rect(2));
        assert_eq!(suffix.rect(3), node.rect(1));
    }
}
