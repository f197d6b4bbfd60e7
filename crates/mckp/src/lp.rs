//! Dominance pruning, convex hulls, and the LP relaxation of MCKP.
//!
//! Classic MCKP preprocessing (see Dudzinski & Walukiewicz 1987; Kellerer,
//! Pferschy & Pisinger ch. 11):
//!
//! * An item is **IP-dominated** if another item in its class has weight ≤
//!   and profit ≥ (with at least one strict). Dominated items never appear
//!   in an optimal solution and can be discarded by every solver.
//! * An item is **LP-dominated** if it lies below the upper convex hull of
//!   the `(weight, profit)` point set of its class. LP-dominated items can
//!   appear in *integer* optima but never in the LP relaxation optimum;
//!   the greedy heuristic and the LP bound operate on the hull only.
//!
//! The **LP relaxation** is solved greedily: take the lightest hull item of
//! every class, then repeatedly apply the globally most efficient
//! *incremental upgrade* (hull step `Δprofit/Δweight`) until the capacity
//! is exhausted; the last upgrade may be fractional. The resulting value is
//! an upper bound on the integer optimum, used by branch-and-bound pruning
//! and by tests that sandwich heuristic results.

use crate::instance::{Item, MckpInstance};

/// Returns indices of items in `class` that survive IP-dominance pruning,
/// ordered by strictly increasing weight (and strictly increasing profit).
///
/// Ties in weight keep only the most profitable item; ties in both keep the
/// earliest index (deterministic).
pub fn dominance_filter(class: &[Item]) -> Vec<usize> {
    // analyze: allow(A7): index permutation sized to the class, built once per prune
    let mut order: Vec<usize> = (0..class.len()).collect();
    order.sort_by(|&a, &b| {
        class[a]
            .weight
            .total_cmp(&class[b].weight)
            .then(class[b].profit.total_cmp(&class[a].profit))
            .then(a.cmp(&b))
    });
    let mut kept: Vec<usize> = Vec::new();
    let mut best_profit = f64::NEG_INFINITY;
    for idx in order {
        if class[idx].profit > best_profit {
            kept.push(idx);
            best_profit = class[idx].profit;
        }
    }
    kept
}

/// Returns the subset of [`dominance_filter`] indices lying on the upper
/// convex hull of the `(weight, profit)` set — the LP-undominated items.
///
/// The result is ordered by strictly increasing weight, and consecutive
/// hull steps have strictly decreasing incremental efficiency.
pub fn convex_hull_indices(class: &[Item]) -> Vec<usize> {
    let pruned = dominance_filter(class);
    if pruned.len() <= 2 {
        return pruned;
    }
    let mut hull: Vec<usize> = Vec::with_capacity(pruned.len());
    upper_hull(pruned.len(), |p| class[pruned[p]], &mut hull);
    for h in &mut hull {
        *h = pruned[*h];
    }
    hull
}

/// Fills `hull` with the positions `0..len` of the points on the upper
/// convex hull of `point(0), …, point(len − 1)`, which must have strictly
/// increasing weights and profits, as [`dominance_filter`] leaves them.
///
/// The positions ascend, and consecutive hull steps have strictly
/// decreasing incremental efficiency. `hull` is cleared first, so one
/// buffer serves many classes.
pub fn upper_hull(len: usize, point: impl Fn(usize) -> Item, hull: &mut Vec<usize>) {
    hull.clear();
    for p in 0..len {
        while hull.len() >= 2 {
            let a = point(hull[hull.len() - 2]);
            let b = point(hull[hull.len() - 1]);
            let c = point(p);
            // Slopes: b is kept only if slope(a→b) > slope(b→c).
            // Cross-multiplied to avoid division (all Δw > 0 after pruning).
            let lhs = (b.profit - a.profit) * (c.weight - b.weight);
            let rhs = (c.profit - b.profit) * (b.weight - a.weight);
            if lhs <= rhs {
                hull.pop();
            } else {
                break;
            }
        }
        hull.push(p);
    }
}

/// One fractional upgrade step in the LP greedy: moving class `class` from
/// hull position `from` to `to`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Increment {
    class: usize,
    hull_pos: usize, // target position within the class hull
    d_weight: f64,
    d_profit: f64,
}

impl Increment {
    fn efficiency(&self) -> f64 {
        self.d_profit / self.d_weight
    }
}

/// The result of solving the LP relaxation.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Upper bound on the integer optimum.
    pub upper_bound: f64,
    /// Profit of the best *integer* prefix of the greedy (all full
    /// upgrades applied, fractional one skipped). A feasible lower bound.
    pub integer_prefix_profit: f64,
    /// Per-class hull index chosen by the integer prefix (index into the
    /// original class item list).
    pub integer_prefix_choices: Vec<usize>,
}

/// Solves the LP relaxation of the whole instance.
///
/// Returns `None` when even the minimum-weight selection exceeds the
/// capacity (the instance is infeasible).
pub fn lp_relaxation(instance: &MckpInstance) -> Option<LpSolution> {
    lp_relaxation_suffix(instance.classes(), 0, instance.capacity())
}

/// Solves the LP relaxation restricted to classes `start..`, with the given
/// remaining capacity. Used by branch-and-bound to bound partial solutions.
///
/// Returns `None` when the restricted instance is infeasible.
pub fn lp_relaxation_suffix(
    classes: &[Vec<Item>],
    start: usize,
    capacity: f64,
) -> Option<LpSolution> {
    let suffix = &classes[start..];
    let hulls: Vec<Vec<usize>> = suffix.iter().map(|c| convex_hull_indices(c)).collect();

    // Base: lightest hull item per class.
    let mut remaining = capacity;
    let mut profit = 0.0;
    let mut choices: Vec<usize> = Vec::with_capacity(suffix.len());
    for (c, hull) in hulls.iter().enumerate() {
        let first = hull[0];
        remaining -= suffix[c][first].weight;
        profit += suffix[c][first].profit;
        choices.push(first);
    }
    // Tolerate tiny negative residue from float accumulation.
    if remaining < -1e-12 {
        return None;
    }
    remaining = remaining.max(0.0);

    // Gather all hull increments; within a class efficiencies strictly
    // decrease, so a global efficiency sort respects per-class order.
    let mut increments: Vec<Increment> = Vec::new();
    for (c, hull) in hulls.iter().enumerate() {
        for pos in 1..hull.len() {
            let prev = suffix[c][hull[pos - 1]];
            let next = suffix[c][hull[pos]];
            increments.push(Increment {
                class: c,
                hull_pos: pos,
                d_weight: next.weight - prev.weight,
                d_profit: next.profit - prev.profit,
            });
        }
    }
    increments.sort_by(|a, b| {
        b.efficiency()
            .total_cmp(&a.efficiency())
            .then(a.class.cmp(&b.class))
            .then(a.hull_pos.cmp(&b.hull_pos))
    });

    let mut upper = profit;
    let mut int_profit = profit;
    let mut int_choices = choices.clone();
    // Applied hull position per class, to keep per-class sequencing sane
    // even under efficiency ties.
    let mut applied_pos: Vec<usize> = vec![0; suffix.len()];
    let mut budget = remaining;
    for inc in &increments {
        if inc.hull_pos != applied_pos[inc.class] + 1 {
            // Out-of-sequence under a tie: skip; its predecessor appears
            // earlier in the sorted order with the same efficiency.
            continue;
        }
        if inc.d_weight <= budget {
            budget -= inc.d_weight;
            upper += inc.d_profit;
            int_profit += inc.d_profit;
            applied_pos[inc.class] += 1;
            int_choices[inc.class] = hulls[inc.class][inc.hull_pos];
        } else {
            // Fractional final step: only contributes to the upper bound.
            if inc.d_weight > 0.0 {
                upper += inc.d_profit * (budget / inc.d_weight);
            }
            break;
        }
    }

    Some(LpSolution {
        upper_bound: upper,
        integer_prefix_profit: int_profit,
        integer_prefix_choices: int_choices,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{Item, MckpInstance};

    #[test]
    fn dominance_removes_worse_items() {
        let class = vec![
            Item::new(0.5, 3.0),
            Item::new(0.4, 4.0), // dominates the one above
            Item::new(0.6, 4.0), // dominated (heavier, same profit)
            Item::new(0.7, 5.0),
        ];
        let kept = dominance_filter(&class);
        assert_eq!(kept, vec![1, 3]);
    }

    #[test]
    fn dominance_keeps_best_among_equal_weights() {
        let class = vec![
            Item::new(0.5, 1.0),
            Item::new(0.5, 9.0),
            Item::new(0.5, 5.0),
        ];
        assert_eq!(dominance_filter(&class), vec![1]);
    }

    #[test]
    fn dominance_single_item() {
        assert_eq!(dominance_filter(&[Item::new(1.0, 1.0)]), vec![0]);
    }

    #[test]
    fn hull_drops_concave_point() {
        // (0,0), (1,1), (2,4): middle point is below the chord (0,0)-(2,4).
        let class = vec![
            Item::new(0.0, 0.0),
            Item::new(1.0, 1.0),
            Item::new(2.0, 4.0),
        ];
        assert_eq!(convex_hull_indices(&class), vec![0, 2]);
    }

    #[test]
    fn hull_keeps_concave_down_points() {
        // Efficiencies decreasing: all on hull.
        let class = vec![
            Item::new(0.0, 0.0),
            Item::new(1.0, 3.0),
            Item::new(2.0, 4.0),
        ];
        assert_eq!(convex_hull_indices(&class), vec![0, 1, 2]);
    }

    #[test]
    fn hull_collinear_points_collapse() {
        let class = vec![
            Item::new(0.0, 0.0),
            Item::new(1.0, 2.0),
            Item::new(2.0, 4.0),
        ];
        // Middle collinear point removed (slope equality pops it).
        assert_eq!(convex_hull_indices(&class), vec![0, 2]);
    }

    #[test]
    fn lp_bound_sandwiches_optimum() {
        let inst = MckpInstance::new(
            vec![
                vec![Item::new(0.2, 1.0), Item::new(0.6, 5.0)],
                vec![Item::new(0.3, 2.0), Item::new(0.7, 4.0)],
            ],
            1.0,
        )
        .unwrap();
        let lp = lp_relaxation(&inst).unwrap();
        // Integer optimum is 7 (0.6/5 + 0.3/2).
        assert!(lp.upper_bound >= 7.0 - 1e-9, "ub={}", lp.upper_bound);
        assert!(lp.integer_prefix_profit <= lp.upper_bound + 1e-12);
    }

    #[test]
    fn lp_infeasible_when_min_weights_exceed() {
        let inst = MckpInstance::new(
            vec![vec![Item::new(0.8, 1.0)], vec![Item::new(0.8, 1.0)]],
            1.0,
        )
        .unwrap();
        assert!(lp_relaxation(&inst).is_none());
    }

    #[test]
    fn lp_exact_when_everything_fits() {
        // Capacity large enough for the best item everywhere: LP == IP.
        let inst = MckpInstance::new(
            vec![
                vec![Item::new(0.1, 1.0), Item::new(0.2, 9.0)],
                vec![Item::new(0.1, 2.0), Item::new(0.3, 8.0)],
            ],
            10.0,
        )
        .unwrap();
        let lp = lp_relaxation(&inst).unwrap();
        assert!((lp.upper_bound - 17.0).abs() < 1e-9);
        assert!((lp.integer_prefix_profit - 17.0).abs() < 1e-9);
        assert_eq!(lp.integer_prefix_choices, vec![1, 1]);
    }

    #[test]
    fn suffix_bound_only_counts_suffix() {
        let classes = vec![
            vec![Item::new(0.5, 100.0)],
            vec![Item::new(0.1, 1.0), Item::new(0.4, 3.0)],
        ];
        let lp = lp_relaxation_suffix(&classes, 1, 0.5).unwrap();
        assert!((lp.upper_bound - 3.0).abs() < 1e-9);
    }

    #[test]
    fn integer_prefix_is_feasible() {
        let inst = MckpInstance::new(
            vec![
                vec![
                    Item::new(0.1, 0.0),
                    Item::new(0.5, 5.0),
                    Item::new(0.9, 6.0),
                ],
                vec![Item::new(0.1, 0.0), Item::new(0.4, 4.0)],
            ],
            1.0,
        )
        .unwrap();
        let lp = lp_relaxation(&inst).unwrap();
        let w: f64 = lp
            .integer_prefix_choices
            .iter()
            .enumerate()
            .map(|(c, &j)| inst.classes()[c][j].weight)
            .sum();
        assert!(w <= 1.0 + 1e-12);
    }
}
