//! Exact pseudo-polynomial dynamic programming for MCKP.
//!
//! This is the "dynamic programming algorithm \[Dudzinski & Walukiewicz
//! 1987\]" the paper adopts (§5.2): a profit-maximizing DP over a weight
//! grid. The paper's weights are real densities in `[0, 1]`, so the grid is
//! obtained by **rounding weights up** to a configurable resolution. The
//! consequences are:
//!
//! * any returned selection is feasible for the *true* real-valued
//!   capacity (safety is never compromised), and
//! * optimality is exact *on the rounded instance*; with the default
//!   resolution of 10⁴ grid units the rounding loss per item is below
//!   10⁻⁴ of the capacity, which is far below the granularity of the
//!   paper's benefit functions.
//!
//! # Cost
//!
//! Each class is dominance-pruned and each surviving item is put on the
//! grid once (one `scale` per item). The DP then makes one pass per item
//! over a row of `resolution + 1` budgets, so the time is
//! `O(total_items × resolution)`. Memory is a flat choice table of
//! 4 B × classes × (resolution + 1) — one `u32` item index per class and
//! budget, for the reconstruction — plus two `f64` rows of
//! `resolution + 1` budgets, reused across classes. At 1000 classes and the
//! default resolution the table is 40 MB.
//!
//! # Ties
//!
//! Among equally profitable choices at one budget, the DP keeps the first
//! strictly better item in the class's pruned (weight-ascending) order.
//! The passes run item-major — every budget for item 0, then every budget
//! for item 1 — so each budget still sees its class's items in that
//! order, and a later item replaces an earlier one only when it is
//! strictly better. Every budget therefore ends with the item a
//! budget-major scan (for each budget, every item) would keep;
//! `tests/dp_oracle.rs` checks the two against each other.

use crate::error::SolveError;
use crate::instance::MckpInstance;
use crate::lp::dominance_filter;
use crate::solution::Selection;
use crate::Solver;

/// Exact DP solver over a discretized weight grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DpSolver {
    resolution: usize,
}

impl DpSolver {
    /// Default number of grid units the capacity is divided into.
    pub const DEFAULT_RESOLUTION: usize = 10_000;

    /// Creates a solver with the given weight-grid resolution.
    ///
    /// A resolution whose table cannot be allocated is not rejected here;
    /// [`Solver::solve`] returns [`SolveError::TooLarge`] for it.
    ///
    /// # Panics
    ///
    /// Panics if `resolution == 0`.
    pub fn with_resolution(resolution: usize) -> Self {
        assert!(resolution > 0, "resolution must be positive");
        DpSolver { resolution }
    }

    /// The configured grid resolution.
    pub fn resolution(&self) -> usize {
        self.resolution
    }

    /// Scales a weight onto the grid, rounding up (safe side).
    ///
    /// Returns `None` for a weight that does not fit the capacity at all
    /// (never selectable).
    fn scale(&self, weight: f64, capacity: f64) -> Option<usize> {
        // Ordered comparisons, not `==`: weights/capacities are
        // validated non-negative, and lint L2 bans f64 equality in
        // density math.
        if weight <= 0.0 {
            return Some(0);
        }
        if capacity <= 0.0 || weight > capacity {
            return None;
        }
        // Clamp before the cast: the guards above pin the ratio into
        // (0, 1], but the interval checker (A4) reasons per-variable. The
        // bound is 2^53, the end of the exactly representable integers; a
        // grid that wide could never be allocated, so it never binds.
        let scaled = (weight / capacity * self.resolution as f64)
            .ceil()
            .clamp(0.0, 9_007_199_254_740_992.0) as usize;
        (scaled <= self.resolution).then_some(scaled)
    }
}

impl Default for DpSolver {
    fn default() -> Self {
        DpSolver {
            resolution: Self::DEFAULT_RESOLUTION,
        }
    }
}

/// `len` copies of `value`, or `None` when the vector cannot be allocated.
fn filled<T: Clone>(len: usize, value: T) -> Option<Vec<T>> {
    let mut v = Vec::new();
    v.try_reserve_exact(len).ok()?;
    v.resize(len, value);
    Some(v)
}

impl Solver for DpSolver {
    // analyze: hot-path
    fn solve(&self, instance: &MckpInstance) -> Result<Selection, SolveError> {
        let res = self.resolution;
        let capacity = instance.capacity();
        let classes = instance.classes();
        let too_large = || {
            // analyze: allow(A7): error path only, formatted once when the table cannot be sized or indexed
            SolveError::TooLarge(format!(
                "dp choice table of {} x ({res} + 1) cells",
                classes.len()
            ))
        };
        let width = res.checked_add(1).ok_or_else(too_large)?;
        let cells = classes.len().checked_mul(width).ok_or_else(too_large)?;

        // dp[c] = max profit over the processed classes with scaled weight
        // <= c. Before any class, every budget holds profit 0.
        const NEG: f64 = f64::NEG_INFINITY;
        let mut dp: Vec<f64> = filled(width, 0.0).ok_or_else(too_large)?;
        let mut next: Vec<f64> = filled(width, NEG).ok_or_else(too_large)?;
        // Row k of the table: index (into items[k]) of the item class k
        // takes at each remaining budget; u32::MAX = unreachable.
        let mut table: Vec<u32> = filled(cells, u32::MAX).ok_or_else(too_large)?;

        // Each class's dominance-pruned items as (item index, scaled weight,
        // profit). Pruned items are weight-sorted, so the ones that do not
        // fit the grid are a tail, and dropping it keeps the order.
        let items: Vec<Vec<(usize, usize, f64)>> = classes
            .iter()
            .map(|class| {
                dominance_filter(class)
                    .into_iter()
                    .map_while(|i| {
                        let item = class[i];
                        Some((i, self.scale(item.weight, capacity)?, item.profit))
                    })
                    // analyze: allow(A7): one item list per class, built once per solve
                    .collect()
            })
            // analyze: allow(A7): one prune-and-scale pass per solve, before the DP loops
            .collect();

        for (choice, class) in table.chunks_exact_mut(width).zip(&items) {
            let len = u32::try_from(class.len()).map_err(|_| too_large())?;
            for (pi, &(_, sw, profit)) in (0..len).zip(class) {
                // next[c] = max(next[c], dp[c - sw] + profit), keeping the
                // first strictly better item; an unreachable dp[c - sw] is
                // -inf and never wins.
                for ((cell, ch), &base) in next[sw..].iter_mut().zip(&mut choice[sw..]).zip(&dp) {
                    let value = base + profit;
                    if value > *cell {
                        *cell = value;
                        *ch = pi;
                    }
                }
            }
            std::mem::swap(&mut dp, &mut next);
            next.fill(NEG);
        }

        if dp[res] == NEG {
            return Err(SolveError::Infeasible);
        }

        // Reconstruct backwards from the full budget.
        let mut budget = res;
        // analyze: allow(A7): reconstruction buffer built once per solve
        let mut picks = vec![0usize; classes.len()];
        for ((pick, choice), class) in picks
            .iter_mut()
            .zip(table.chunks_exact(width))
            .zip(&items)
            .rev()
        {
            let pi = usize::try_from(choice[budget]).map_err(|_| too_large())?;
            let (item_idx, sw, _) = class[pi];
            *pick = item_idx;
            budget -= sw;
        }

        let selection = Selection::new(picks);
        debug_assert!(instance.is_feasible(&selection));
        Ok(selection)
    }

    fn name(&self) -> &'static str {
        "dp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Item;

    fn solve(classes: Vec<Vec<Item>>, capacity: f64) -> Result<Selection, SolveError> {
        let inst = MckpInstance::new(classes, capacity).unwrap();
        DpSolver::default().solve(&inst)
    }

    #[test]
    fn picks_obvious_optimum() {
        let sel = solve(
            vec![
                vec![Item::new(0.2, 1.0), Item::new(0.6, 5.0)],
                vec![Item::new(0.3, 2.0), Item::new(0.7, 4.0)],
            ],
            1.0,
        )
        .unwrap();
        assert_eq!(sel.choices(), &[1, 0]);
    }

    #[test]
    fn single_class_picks_best_fitting() {
        let sel = solve(
            vec![vec![
                Item::new(0.2, 1.0),
                Item::new(0.8, 9.0),
                Item::new(1.5, 100.0), // does not fit
            ]],
            1.0,
        )
        .unwrap();
        assert_eq!(sel.choices(), &[1]);
    }

    #[test]
    fn infeasible_when_nothing_fits() {
        let err = solve(vec![vec![Item::new(2.0, 1.0)]], 1.0).unwrap_err();
        assert_eq!(err, SolveError::Infeasible);
    }

    #[test]
    fn infeasible_when_combination_exceeds() {
        let err = solve(
            vec![vec![Item::new(0.7, 1.0)], vec![Item::new(0.7, 1.0)]],
            1.0,
        )
        .unwrap_err();
        assert_eq!(err, SolveError::Infeasible);
    }

    #[test]
    fn zero_capacity_allows_zero_weight_items() {
        let sel = solve(vec![vec![Item::new(0.0, 3.0), Item::new(0.5, 9.0)]], 0.0).unwrap();
        assert_eq!(sel.choices(), &[0]);
    }

    #[test]
    fn zero_capacity_infeasible_with_positive_weights() {
        let err = solve(vec![vec![Item::new(0.1, 1.0)]], 0.0).unwrap_err();
        assert_eq!(err, SolveError::Infeasible);
    }

    #[test]
    fn exact_fill_is_allowed() {
        // Two items of exactly half the capacity each.
        let sel = solve(
            vec![
                vec![Item::new(0.5, 5.0), Item::new(0.1, 1.0)],
                vec![Item::new(0.5, 5.0), Item::new(0.1, 1.0)],
            ],
            1.0,
        )
        .unwrap();
        assert_eq!(sel.choices(), &[0, 0]);
    }

    #[test]
    fn respects_rounding_safety() {
        // Weights just over a grid cell: rounded up, so DP may refuse a
        // razor-thin fit, but must never return an infeasible selection.
        let inst = MckpInstance::new(
            vec![
                vec![Item::new(0.33334, 1.0), Item::new(0.0, 0.0)],
                vec![Item::new(0.33334, 1.0), Item::new(0.0, 0.0)],
                vec![Item::new(0.33334, 1.0), Item::new(0.0, 0.0)],
            ],
            1.0,
        )
        .unwrap();
        let sel = DpSolver::with_resolution(100).solve(&inst).unwrap();
        assert!(inst.is_feasible(&sel));
    }

    #[test]
    fn matches_brute_force_small() {
        use crate::brute::BruteForceSolver;
        let inst = MckpInstance::new(
            vec![
                vec![
                    Item::new(0.11, 2.0),
                    Item::new(0.42, 6.5),
                    Item::new(0.65, 8.0),
                ],
                vec![Item::new(0.05, 1.0), Item::new(0.33, 5.0)],
                vec![
                    Item::new(0.2, 3.0),
                    Item::new(0.25, 3.2),
                    Item::new(0.5, 7.7),
                ],
            ],
            1.0,
        )
        .unwrap();
        let dp = DpSolver::default().solve(&inst).unwrap();
        let bf = BruteForceSolver::default().solve(&inst).unwrap();
        assert!(
            (inst.selection_profit(&dp).unwrap() - inst.selection_profit(&bf).unwrap()).abs()
                < 1e-9,
            "dp {} vs brute {}",
            inst.selection_profit(&dp).unwrap(),
            inst.selection_profit(&bf).unwrap()
        );
    }

    #[test]
    fn name_and_resolution() {
        let s = DpSolver::with_resolution(500);
        assert_eq!(s.resolution(), 500);
        assert_eq!(s.name(), "dp");
        assert_eq!(
            DpSolver::default().resolution(),
            DpSolver::DEFAULT_RESOLUTION
        );
    }

    #[test]
    fn unallocatable_resolutions_are_too_large() {
        let inst = MckpInstance::new(vec![vec![Item::new(0.5, 1.0)]], 1.0).unwrap();
        // `resolution + 1` overflows.
        let err = DpSolver::with_resolution(usize::MAX)
            .solve(&inst)
            .unwrap_err();
        assert!(matches!(err, SolveError::TooLarge(_)), "{err:?}");
        // 2^62 + 1 budgets of 8 bytes overflow `isize`, so the request
        // fails before any allocation.
        let err = DpSolver::with_resolution(1 << 62).solve(&inst).unwrap_err();
        match err {
            SolveError::TooLarge(msg) => {
                assert!(msg.contains("1 x (4611686018427387904 + 1) cells"), "{msg}")
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "resolution must be positive")]
    fn zero_resolution_panics() {
        DpSolver::with_resolution(0);
    }
}
