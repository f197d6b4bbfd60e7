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
//! grid once (one `scale` per item). Row `k` of the DP, the best profit of
//! classes `0..=k` at each budget, is computed only on a window `W_k` of
//! budgets (below), with one pass per item, so the time is
//! `O(Σ_k |W_k| × items_k)`, never more than
//! `O(total_items × resolution)`. Memory is two `f64` rows of
//! `resolution + 1` budgets, reused across classes, plus a choice table of
//! `Σ_k |W_k|` × 4 B: one `u32` item index per windowed budget, for the
//! reconstruction. On Figure-3 systems the windows hold 22 % of the
//! item × budget cells of full rows. A 1000-class fleet whose heaviest
//! items sum to less than the capacity needs one budget per row.
//!
//! # Windows
//!
//! Let `L_k` and `H_k` be the sums of the lightest and heaviest scaled
//! weights of classes `0..=k`, `S_{k+1}` the sum of the heaviest scaled
//! weights of classes `k+1..`, and `top = min(resolution, H_n)` the full
//! budget clamped to the heaviest selection. Row `k` is computed on
//! `max(L_k, top − S_{k+1}) ..= min(resolution, H_k)`. Outside it a cell is
//! unreachable, never read, or equal to the window's top cell:
//!
//! * below `L_k` no selection of classes `0..=k` fits, so the cell is −∞;
//! * above `H_k` every candidate base lies at or above `H_{k−1}`, where
//!   row `k − 1` is flat, so the value and the first strictly better item
//!   equal those at `H_k`. A read of row `k − 1` above its window takes
//!   its top cell;
//! * below `top − S_{k+1}` the later classes cannot consume enough weight
//!   to bring the full budget down there, so neither the reconstruction
//!   nor a computed cell of row `k + 1` reads it.
//!
//! The reconstruction clamps the remaining budget to each row's window
//! top. By induction that budget is the full-row DP's, clamped the same
//! way, so every selection, error and tie is the full-row DP's.
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

/// The budgets `start..=end` one DP row is computed on; its choices are
/// `table[offset..]`, one per budget.
#[derive(Debug, Clone, Copy)]
struct Window {
    offset: usize,
    start: usize,
    end: usize,
}

impl Window {
    fn len(&self) -> usize {
        self.end - self.start + 1
    }
}

/// Each class's row window `max(L_k, top − S_{k+1}) ..= min(res, H_k)`
/// (see the module docs), laid out one after another in the table, or
/// `Infeasible` when some class has no item that fits or the lightest
/// selection outweighs the grid: the full-row DP's condition for a
/// last cell of −∞.
fn windows(items: &[Vec<(usize, usize, f64)>], res: usize) -> Result<Vec<Window>, SolveError> {
    let (mut light, mut heavy) = (0usize, 0usize);
    let windows: Result<Vec<Window>, SolveError> = items
        .iter()
        .map(|class| {
            let (Some(&(_, lo, _)), Some(&(_, hi, _))) = (class.first(), class.last()) else {
                return Err(SolveError::Infeasible);
            };
            light = light.saturating_add(lo);
            heavy = heavy.saturating_add(hi);
            Ok(Window {
                offset: 0,
                start: light,
                end: heavy.min(res),
            })
        })
        // analyze: allow(A7): one window per class, built once per solve
        .collect();
    let mut windows = windows?;
    if light > res {
        return Err(SolveError::Infeasible);
    }
    let mut floor = windows.last().map_or(0, |w| w.end);
    for (w, class) in windows.iter_mut().zip(items).rev() {
        w.start = w.start.max(floor);
        floor = floor.saturating_sub(class.last().map_or(0, |&(_, hi, _)| hi));
    }
    let mut offset = 0usize;
    for w in &mut windows {
        w.offset = offset;
        offset = offset.saturating_add(w.len());
    }
    Ok(windows)
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

        // dp[c] = max profit over the processed classes with scaled weight
        // <= c, valid on the last row's window and, above it, equal to its
        // top cell. Before any class, every budget holds profit 0: the
        // window is budget 0 and the row is flat above it. Rows that could
        // be allocated hold fewer than 2^60 budgets, so a sum of two
        // budgets below cannot overflow.
        const NEG: f64 = f64::NEG_INFINITY;
        let mut dp: Vec<f64> = filled(width, 0.0).ok_or_else(too_large)?;
        let mut next: Vec<f64> = filled(width, NEG).ok_or_else(too_large)?;

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

        let windows = windows(&items, res)?;
        let cells = windows
            .last()
            .map_or(0, |w| w.offset.saturating_add(w.len()));
        // The windows, concatenated: the index (into items[k]) of the item
        // class k takes at each budget of its window. Every windowed budget
        // is reachable, so no u32::MAX survives the DP.
        let mut table: Vec<u32> = filled(cells, u32::MAX).ok_or_else(too_large)?;

        // The row before the first class: budget 0, flat above it.
        let mut prev = Window {
            offset: 0,
            start: 0,
            end: 0,
        };
        for (w, class) in windows.iter().zip(&items) {
            let len = u32::try_from(class.len()).map_err(|_| too_large())?;
            let (start, end) = (w.start, w.end);
            let choice = &mut table[w.offset..w.offset + w.len()];
            // `next` still holds the row two classes back; only this
            // class's window is read or written.
            next[start..=end].fill(NEG);
            // Above its window the previous row is flat at its top cell.
            let flat = dp[prev.end];
            for (pi, &(_, sw, profit)) in (0..len).zip(class) {
                // next[c] = max(next[c], dp[c - sw] + profit), keeping the
                // first strictly better item. Bases below the previous
                // window are unreachable (-inf) and never win; bases above
                // it read the flat value.
                let lo = start.max(prev.start + sw);
                let hi = end.min(prev.end + sw);
                if lo <= hi {
                    for ((cell, ch), &base) in next[lo..=hi]
                        .iter_mut()
                        .zip(&mut choice[lo - start..=hi - start])
                        .zip(&dp[lo - sw..=hi - sw])
                    {
                        let value = base + profit;
                        if value > *cell {
                            *cell = value;
                            *ch = pi;
                        }
                    }
                }
                let from = start.max(prev.end + sw + 1);
                if from <= end {
                    let value = flat + profit;
                    for (cell, ch) in next[from..=end].iter_mut().zip(&mut choice[from - start..]) {
                        if value > *cell {
                            *cell = value;
                            *ch = pi;
                        }
                    }
                }
            }
            std::mem::swap(&mut dp, &mut next);
            prev = *w;
        }

        // Reconstruct backwards from the full budget. Each row is flat
        // above its window, so the budget is clamped to the window's top.
        let mut budget = res;
        // analyze: allow(A7): reconstruction buffer built once per solve
        let mut picks = vec![0usize; classes.len()];
        for ((pick, w), class) in picks.iter_mut().zip(&windows).zip(&items).rev() {
            budget = budget.min(w.end);
            let pi =
                usize::try_from(table[w.offset + budget - w.start]).map_err(|_| too_large())?;
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
