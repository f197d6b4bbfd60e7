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
//! classes `0..=k` at each budget, is computed only on the budgets `R_k`
//! of a window `W_k` that an optimal plan can still pass through (below),
//! with one pass per item, so the time is `O(Σ_k |R_k| × items_k)`, never
//! more than `O(Σ_k |W_k| × items_k)` or `O(total_items × resolution)`.
//! A pass is a max-plus update, `cell = max(cell, base + profit)`, that
//! writes no choice and takes no branch, so it compiles to packed SSE2
//! adds and maxes on the baseline x86-64 target.
//!
//! A row is computed into one scratch row as long as the widest window.
//! Only its band `lo_k ..= hi_k` (below), what the next row and the
//! reconstruction read, is kept, appended to one `f64` table; the
//! reconstruction recomputes each class's pick from it (see Ties). Memory
//! is `Σ_k |band_k|` × 8 B plus 8 B per budget of the widest window, and,
//! when the rows are wide enough to pay for it, the LP bound: a few words
//! per hull step and per class. A kernel that kept two `f64` rows of
//! `top + 1` budgets and one `u32` choice per windowed budget needed
//! `Σ_k |W_k|` × 4 B + 16 × (`top` + 1) B instead. A band never exceeds
//! its window, so the worst case, where every band is its whole window,
//! is `8 × (Σ_k |W_k| + max_k |W_k|)` B: close to twice that choice table
//! when many classes have full-width windows, but never more than 8 B per
//! computed cell. On Figure-3 systems the windows hold 22 % of the
//! item × budget cells of full rows, and the bound computes 51 % of the
//! windows' cells. A 1000-class fleet whose heaviest items sum to less
//! than the capacity needs one budget per row and never builds the bound.
//!
//! # Windows
//!
//! Let `L_k` and `H_k` be the sums of the lightest and heaviest scaled
//! weights of classes `0..=k`, `S_{k+1}` the sum of the heaviest scaled
//! weights of classes `k+1..`, and `top = min(resolution, H_n)` the full
//! budget clamped to the heaviest selection. The window of row `k` is
//! `W_k = max(L_k, top − S_{k+1}) ..= min(resolution, H_k)`. Outside it a
//! cell is unreachable, never read, or equal to the window's top cell:
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
//! # Bound
//!
//! A window keeps every budget some selection passes through; the bound
//! keeps those an optimal one can. `LB` is the profit of an explicit
//! feasible selection, summed in class order as the DP sums it: every
//! class at its lightest hull item, then each hull step, most efficient
//! first, that still fits the grid. Rounding is monotone, so `LB` never
//! exceeds the DP's value at `top`. `U_{k+1}(r)` is the LP relaxation of
//! classes `k+1..` at `r` grid units: their lightest hull items plus every
//! hull step, most efficient first, the last one fractional; −∞ when `r`
//! is below their lightest scaled weights. The hulls
//! ([`crate::lp::upper_hull`]) are taken on the unrounded weights in grid
//! units, which never exceed the scaled ones, so `U` bounds every
//! completion on the grid.
//!
//! After row `k` is computed on `R_k`, its band `lo_k ..= hi_k` runs from
//! the first to the last budget `c` with
//! `dp_k[c] + U_{k+1}(top − c) ≥ LB − 1e-9 · (1 + U_0(top))`, or is all of
//! `R_k` when no budget passes; the last row keeps all of `R_k`. Row
//! `k + 1` is computed on
//! `R_{k+1} = max(W_{k+1}.start, lo_k + lightest) ..= min(W_{k+1}.end, hi_k + heaviest)`
//! of its class's scaled weights: bases below `lo_k` are skipped as −∞,
//! and bases above `hi_k` read `dp_k[hi_k]`, which is the windows' flat
//! part when `hi_k` is the window's top. The reconstruction clamps its
//! budget to each row's `hi_k`. The first row's "previous band" is budget
//! 0 of the all-zero row, the table's first cell.
//!
//! **Why it is exact.** Take the full-row DP's reconstruction path,
//! clamped to the window tops, through budgets `b_k`. Its items after row
//! `k` fit `top − b_k`, so `dp_k[b_k] + U_{k+1}(top − b_k) ≥ OPT ≥ LB`, and
//! every path cell is kept. Every computed value is at most the full
//! row's, because each candidate base is exact, −∞, or a flat read of a
//! non-decreasing row. By induction each path cell's value is the full
//! DP's and its first best candidate, the full DP's item, reads the
//! previous path cell exactly: earlier items stay strictly worse than
//! the full row's value, and no candidate exceeds it. The reconstruction
//! picks that first best candidate (Ties), so it walks the full DP's
//! path, and the clamp to `hi_k` is a no-op on it. The margin
//! `1e-9 · (1 + U_0(top))` is orders of magnitude above the float error
//! of the sums involved, and every capacity `U` is read at carries
//! `1e-9 · (1 + top)` grid units of slack for the error of its
//! grid-weight sums.
//!
//! **Why nothing can go out of range,** whatever the bound reads: a kept
//! budget has a finite `U`, so it lies at most `top` minus the later
//! classes' lightest weights, and `R_{k+1}` is never empty; every budget
//! of `R_k` has a finite value through its lightest item, which reaches
//! all of `R_k`; and every pick reads a base at or above the previous
//! band's bottom, so the reconstruction stays on kept cells.
//!
//! **Cost of the bound.** The band is found by scanning in from both ends
//! of `R_k` in blocks: a block `a..=b` goes when `dp_k[b] + U(top − a)`
//! falls short, since each computed row is non-decreasing and `U` grows
//! with the budget. Blocks double while they go and halve when they do
//! not. `U` is read by one cursor per scan direction that walks the
//! efficiency-sorted steps from where it last stopped, and class `k`'s
//! steps leave the cursors' sums when row `k` is done. Building the bound
//! sorts the hull steps, so it is built after the first row at which the
//! windows of the rows still to compute hold at least 16 times more
//! item × budget cells than the instance has items, and never when they
//! do not. On Figure-3 systems a row's window averages
//! 2,337 budgets, the row is computed on 1,204 of them, and its kept
//! band averages 991.
//!
//! # Ties
//!
//! Among equally profitable choices at one budget, the DP picks the first
//! item in the class's pruned (weight-ascending) order: the item a
//! budget-major scan (for each budget, every item) keeps when it replaces
//! its choice only on a strictly better one. `tests/dp_oracle.rs` keeps
//! such a scan and checks the two against each other.
//!
//! The kernel stores values only, so ties are settled in the
//! reconstruction. At each row it takes the path budget, clamped to the
//! band's top, and recomputes the class's candidates there in pruned
//! order: an item whose base lies below the previous band is skipped, as
//! the kernel skips it, and any other reads the previous band at
//! `budget − sw`, or its top cell above it. Each candidate is the sum the
//! kernel formed from the same two `f64` operands, so it has the same
//! bits. The row's value is the largest of them, so a candidate reaches
//! it (`≥`) exactly when it equals it, and the first that does is the one
//! the strict scan keeps. Ties cost `items_k` short steps per row at the
//! end, not a compare and a store per cell.

use crate::error::SolveError;
use crate::instance::MckpInstance;
use crate::lp::{dominance_filter, upper_hull};
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
    /// A resolution whose rows cannot be allocated is not rejected here;
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

    /// A weight in grid units before rounding; [`DpSolver::scale`] rounds
    /// this same value up, so it never exceeds the scaled weight.
    fn grid(&self, weight: f64, capacity: f64) -> f64 {
        weight / capacity * self.resolution as f64
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
        // A grid of 2^64 units or more fits no resolution. Below it every
        // f64 of 2^53 or more is an integer, so the cast is exact: rows
        // are computed only on windows, so a resolution above 2^53 can be
        // solved, and rounding its weights down to 2^53 would return
        // selections that overfill the capacity. The clamp, to the
        // largest f64 below 2^64, never binds; it is there because the
        // interval checker (A4) reasons per variable.
        let grid = self.grid(weight, capacity).ceil();
        if grid >= 18_446_744_073_709_551_616.0 {
            return None;
        }
        let scaled = grid.clamp(0.0, 18_446_744_073_709_549_568.0) as usize;
        (scaled <= self.resolution).then_some(scaled)
    }

    /// Each class's dominance-pruned items as (item index, scaled weight,
    /// profit). Pruned items are weight-sorted, so the ones that do not
    /// fit the grid are a tail, and dropping it keeps the order.
    fn scaled_items(&self, instance: &MckpInstance) -> Vec<Items> {
        let capacity = instance.capacity();
        instance
            .classes()
            .iter()
            .map(|class| {
                let pruned = dominance_filter(class);
                // Sized to the pruned class: collecting a `map_while`
                // would grow the vector to the next power of two.
                let mut fit = Vec::with_capacity(pruned.len());
                fit.extend(pruned.into_iter().map_while(|i| {
                    let item = class[i];
                    Some((i, self.scale(item.weight, capacity)?, item.profit))
                }));
                fit
            })
            // analyze: allow(A7): one prune-and-scale pass per solve, before the DP loops
            .collect()
    }
}

impl Default for DpSolver {
    fn default() -> Self {
        DpSolver {
            resolution: Self::DEFAULT_RESOLUTION,
        }
    }
}

/// One class's pruned items that fit the grid: (item index, scaled
/// weight, profit), weight-ascending.
type Items = Vec<(usize, usize, f64)>;

/// `len` copies of `value`, or `None` when the vector cannot be allocated.
fn filled<T: Clone>(len: usize, value: T) -> Option<Vec<T>> {
    let mut v = Vec::new();
    v.try_reserve_exact(len).ok()?;
    v.resize(len, value);
    Some(v)
}

/// The budgets `start..=end` of one DP row's window.
#[derive(Debug, Clone, Copy)]
struct Window {
    start: usize,
    end: usize,
}

impl Window {
    fn len(&self) -> usize {
        self.end - self.start + 1
    }
}

/// The budgets `lo..=hi` a computed row keeps, its values at
/// `table[offset..]`, one per budget. Above `hi` the row is taken flat.
#[derive(Debug, Clone, Copy)]
struct Band {
    offset: usize,
    lo: usize,
    hi: usize,
}

impl Band {
    /// The kept values, `lo` first.
    fn values<'t>(&self, table: &'t [f64]) -> &'t [f64] {
        &table[self.offset..=self.offset + (self.hi - self.lo)]
    }
}

/// The pick of `class` at `budget`, in the row kept as `band` over the
/// row kept as `prev`: the first item, in pruned order, whose candidate
/// there reaches the row's value (module docs, Ties), as (item index,
/// scaled weight). An item whose base lies below `prev` is skipped, as
/// the kernel skips it; above `prev` the base is its top cell. `None`
/// when no item reaches the value, which a sound kernel never leaves.
fn first_reaching(
    class: &[(usize, usize, f64)],
    table: &[f64],
    prev: Band,
    band: Band,
    budget: usize,
) -> Option<(usize, usize)> {
    let value = *band.values(table).get(budget.checked_sub(band.lo)?)?;
    let base = prev.values(table);
    let reaches = |&&(_, sw, profit): &&(usize, usize, f64)| {
        budget >= prev.lo.saturating_add(sw)
            && base[(budget - sw).min(prev.hi) - prev.lo] + profit >= value
    };
    class.iter().find(reaches).map(|&(item, sw, _)| (item, sw))
}

/// Each class's row window `max(L_k, top − S_{k+1}) ..= min(res, H_k)`
/// (see the module docs), or `Infeasible` when some class has no item
/// that fits or the lightest selection outweighs the grid: the full-row
/// DP's condition for a last cell of −∞.
fn windows(items: &[Items], res: usize) -> Result<Vec<Window>, SolveError> {
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
    Ok(windows)
}

/// The share of `1 + U_0(top)` by which a budget's bound may fall short of
/// the lower bound and still be kept: orders of magnitude above the float
/// error of summing a few thousand non-negative terms. The same share of
/// `1 + top` is added to every capacity the LP bound is read at, for the
/// float error of its grid-weight sums.
const MARGIN: f64 = 1e-9;

/// The bound is built once the rows still to compute hold this many times
/// more item × budget cells than the instance has items, which bounds its
/// LP steps.
const PAYOFF: usize = 16;

/// One LP upgrade: class `class` moves to its hull item `to` (a position
/// in its [`Items`]) from the hull item before it, `dx` grid units
/// heavier and `dp` more profitable.
#[derive(Debug, Clone, Copy)]
struct Step {
    class: u32,
    to: u32,
    dx: f64,
    dp: f64,
}

impl Step {
    fn efficiency(&self) -> f64 {
        self.dp / self.dx
    }
}

/// Classes `k..` summed: their lightest scaled weights, and the same
/// items' grid weights and profits.
#[derive(Debug, Clone, Copy, Default)]
struct Suffix {
    light: usize,
    weight: f64,
    profit: f64,
}

/// A moving read of the LP bound: the live steps before `at`, which all
/// fit the capacity last read, with their summed grid weight and profit.
#[derive(Debug, Clone, Copy, Default)]
struct Cursor {
    at: usize,
    weight: f64,
    profit: f64,
    /// Additions and subtractions since the sums were last taken afresh.
    ops: usize,
}

/// The LP relaxation of the classes from `live` on, as a fractional
/// knapsack over every hull step, most efficient first.
#[derive(Debug)]
struct Lp {
    steps: Vec<Step>,
    /// Positions in `steps`, sorted by class.
    ranks: Vec<usize>,
    /// `classes + 1` entries; the last sums no class.
    suffix: Vec<Suffix>,
    /// Grid units added to every capacity read (see [`MARGIN`]).
    slack: f64,
}

impl Lp {
    /// The hull steps of `items`, or `None` when the capacity is zero, a
    /// vector cannot be allocated, or a class or item index exceeds `u32`.
    fn new(solver: &DpSolver, instance: &MckpInstance, items: &[Items], top: usize) -> Option<Lp> {
        let capacity = instance.capacity();
        if capacity <= 0.0 {
            return None;
        }
        let classes = instance.classes();
        let widest = items.iter().map(Vec::len).max().unwrap_or(0);
        let mut hull: Vec<usize> = Vec::new();
        hull.try_reserve_exact(widest).ok()?;
        // Each hull is found twice, once to size `steps` exactly.
        let mut count = 0usize;
        for (class, its) in classes.iter().zip(items) {
            upper_hull(its.len(), |p| class[its[p].0], &mut hull);
            count = count.saturating_add(hull.len().saturating_sub(1));
        }
        let mut steps: Vec<Step> = Vec::new();
        steps.try_reserve_exact(count).ok()?;
        let point = |k: usize, pos: usize| {
            let (i, sw, profit) = items[k][pos];
            (sw, solver.grid(classes[k][i].weight, capacity), profit)
        };
        for (k, (class, its)) in classes.iter().zip(items).enumerate() {
            let id = u32::try_from(k).ok()?;
            upper_hull(its.len(), |p| class[its[p].0], &mut hull);
            for pair in hull.windows(2) {
                let ((_, xa, pa), (_, xb, pb)) = (point(k, pair[0]), point(k, pair[1]));
                steps.push(Step {
                    class: id,
                    to: u32::try_from(pair[1]).ok()?,
                    dx: xb - xa,
                    dp: pb - pa,
                });
            }
        }
        steps.sort_unstable_by(|a, b| {
            b.efficiency()
                .total_cmp(&a.efficiency())
                .then(a.class.cmp(&b.class))
                .then(a.to.cmp(&b.to))
        });
        drop(hull);
        let mut ranks: Vec<usize> = Vec::new();
        ranks.try_reserve_exact(steps.len()).ok()?;
        ranks.extend(0..steps.len());
        ranks.sort_unstable_by_key(|&r| (steps[r].class, r));
        let mut suffix: Vec<Suffix> = filled(items.len() + 1, Suffix::default())?;
        // Suffix sums, taken afresh from the last class back.
        for k in (0..items.len()).rev() {
            let (sw, x, profit) = point(k, 0);
            let after = suffix[k + 1];
            suffix[k] = Suffix {
                light: after.light.saturating_add(sw),
                weight: after.weight + x,
                profit: after.profit + profit,
            };
        }
        Some(Lp {
            steps,
            ranks,
            suffix,
            slack: MARGIN * (1.0 + top as f64),
        })
    }

    /// `U_live(r)`: the LP bound of classes `live..` at `r` grid units,
    /// −∞ below their lightest scaled weight. The cursor moves to `r`.
    fn at(&self, live: usize, cursor: &mut Cursor, r: usize) -> f64 {
        let Some(base) = self.suffix.get(live) else {
            return 0.0;
        };
        if r < base.light {
            return f64::NEG_INFINITY;
        }
        // `base.weight` sums the same items' unrounded grid weights, which
        // never exceed their scaled ones, so `q` is at least the slack.
        let q = (r as f64 - base.weight) + self.slack;
        let steps = &self.steps[..];
        // Every class index fits `u32` (checked when the steps were made).
        let live = u32::try_from(live).unwrap_or(u32::MAX);
        let is_live = |s: &Step| s.class >= live;
        if cursor.ops > steps.len() {
            // Take the sums afresh, so that float error cannot pile up.
            let taken = steps[..cursor.at].iter().filter(|s| is_live(s));
            cursor.weight = taken.clone().map(|s| s.dx).sum();
            cursor.profit = taken.map(|s| s.dp).sum();
            cursor.ops = 0;
        }
        let (mut at, mut weight, mut profit, mut ops) =
            (cursor.at, cursor.weight, cursor.profit, cursor.ops);
        // Give back steps while the taken ones outweigh `q` ...
        while weight > q && at > 0 {
            at -= 1;
            let s = steps[at];
            if is_live(&s) {
                weight -= s.dx;
                profit -= s.dp;
                ops += 1;
            }
        }
        if at == 0 {
            (weight, profit) = (0.0, 0.0);
        }
        // ... then take every further step that fits.
        let mut next = None;
        while at < steps.len() {
            let s = steps[at];
            if is_live(&s) {
                if weight + s.dx > q {
                    next = Some(s);
                    break;
                }
                weight += s.dx;
                profit += s.dp;
                ops += 1;
            }
            at += 1;
        }
        *cursor = Cursor {
            at,
            weight,
            profit,
            ops,
        };
        // The first step that does not fit counts fractionally; `min`
        // also maps a 0/0 to the whole step, the safe side.
        let part = next.map_or(0.0, |s| s.dp * ((q - weight) / s.dx).min(1.0));
        base.profit + profit + part
    }

    /// Takes class `k`'s steps out of the cursor's sums.
    fn drop_class(&self, k: usize, cursor: &mut Cursor) {
        let Ok(k) = u32::try_from(k) else {
            return;
        };
        let class_of = |r: &usize| self.steps[*r].class;
        let from = self.ranks.partition_point(|r| class_of(r) < k);
        let to = self.ranks.partition_point(|r| class_of(r) <= k);
        for &r in &self.ranks[from..to] {
            if r < cursor.at {
                let s = self.steps[r];
                cursor.weight -= s.dx;
                cursor.profit -= s.dp;
                cursor.ops += 1;
            }
        }
    }
}

/// The LP bound that prunes each DP row (see the module docs): the
/// suffix LP, read with one cursor per scan direction, and the floor a
/// kept budget's bound must reach.
#[derive(Debug)]
struct Bound {
    lp: Lp,
    /// The first class still in the suffix.
    live: usize,
    /// `LB`: the profit of a feasible selection, summed in class order.
    lower: f64,
    /// `U_0(top)`.
    upper: f64,
    lo: Cursor,
    hi: Cursor,
}

impl Bound {
    /// The bound of `items` at the full budget `top`, or `None` when it
    /// cannot be built or its floor is not finite. `at` is scratch, one
    /// entry per class.
    fn new(
        solver: &DpSolver,
        instance: &MckpInstance,
        items: &[Items],
        top: usize,
        at: &mut [usize],
    ) -> Option<Bound> {
        let lp = Lp::new(solver, instance, items, top)?;
        // `LB`: every class at its lightest hull item, then each step in
        // efficiency order that still fits the grid. A step whose class
        // already sits at a heavier item is skipped.
        at.fill(0);
        let mut used = lp.suffix.first().map_or(0, |s| s.light);
        for s in &lp.steps {
            let (Ok(k), Ok(to)) = (usize::try_from(s.class), usize::try_from(s.to)) else {
                continue;
            };
            let (Some(its), Some(from)) = (items.get(k), at.get(k).copied()) else {
                continue;
            };
            if to > from {
                let more = its[to].1.saturating_sub(its[from].1);
                if used.saturating_add(more) <= top {
                    used += more;
                    at[k] = to;
                }
            }
        }
        let lower = at
            .iter()
            .zip(items)
            .fold(0.0, |sum, (&pos, its)| sum + its[pos].2);
        let mut cursor = Cursor::default();
        let upper = lp.at(0, &mut cursor, top);
        let bound = Bound {
            lp,
            live: 0,
            lower,
            upper,
            lo: Cursor::default(),
            hi: Cursor::default(),
        };
        bound.floor().is_finite().then_some(bound)
    }

    /// The least `dp_k[c] + U_{k+1}(top − c)` a kept budget may have.
    fn floor(&self) -> f64 {
        self.lower - MARGIN * (1.0 + self.upper)
    }

    /// The band `lo..=hi` of row `k`, computed on `start..=end` and held
    /// in `row` from `start` on, that row `k + 1` reads: from the first to
    /// the last budget whose bound reaches the floor, or the whole row
    /// when none does.
    fn band(
        &mut self,
        k: usize,
        row: &[f64],
        start: usize,
        end: usize,
        top: usize,
    ) -> (usize, usize) {
        for gone in self.live..=k {
            self.lp.drop_class(gone, &mut self.lo);
            self.lp.drop_class(gone, &mut self.hi);
        }
        self.live = self.live.max(k + 1);
        let floor = self.floor();
        let Bound {
            lp,
            live,
            lo: down,
            hi: up,
            ..
        } = self;
        // A block `a..=b` of the row can go when `dp[b] + U(top − a)` falls
        // short of the floor: the row is non-decreasing on the budgets it
        // was computed on and `U` shrinks as the budget grows, so no budget
        // in the block reaches the floor. Blocks double while they go and
        // halve when they do not, so a scan reads `U` a few times per power
        // of two it skips and stops where a budget-by-budget scan would.
        let reaches = |cursor: &mut Cursor, a: usize, b: usize| {
            row[b - start] + lp.at(*live, cursor, top.saturating_sub(a)) >= floor
        };
        let (mut lo, mut span) = (start, 1usize);
        while lo <= end {
            let b = end.min(lo.saturating_add(span - 1));
            if !reaches(down, lo, b) {
                lo = b + 1;
                span = span.saturating_mul(2);
            } else if span > 1 {
                span /= 2;
            } else {
                break;
            }
        }
        if lo > end {
            return (start, end);
        }
        let (mut hi, mut span) = (end, 1usize);
        while hi > lo {
            let a = hi.saturating_sub(span - 1).max(lo + 1);
            if !reaches(up, a, hi) {
                hi = a - 1;
                span = span.saturating_mul(2);
            } else if span > 1 {
                span /= 2;
            } else {
                break;
            }
        }
        (lo, hi)
    }
}

impl Solver for DpSolver {
    // analyze: hot-path
    fn solve(&self, instance: &MckpInstance) -> Result<Selection, SolveError> {
        let res = self.resolution;
        let classes = instance.classes();
        let too_large = || {
            // analyze: allow(A7): error path only, formatted once when a row or the band table cannot be sized
            SolveError::TooLarge(format!(
                "dp rows for {} classes at resolution {res}",
                classes.len()
            ))
        };
        // Never returned on a sound kernel: see the module docs.
        let broken = || SolveError::bad("dp: a kept row value has no item that reaches it");
        res.checked_add(1).ok_or_else(too_large)?;

        let items = self.scaled_items(instance);
        let windows = windows(&items, res)?;
        // The full budget, clamped to the heaviest selection: no row is
        // computed or read above it.
        let top = windows.last().map_or(0, |w| w.end);

        // row[c − start] = max profit of the classes so far at budget c,
        // on the budgets start..=end the current row is computed on.
        let widest = windows.iter().map(Window::len).max().unwrap_or(0);
        let mut row: Vec<f64> = Vec::new();
        row.try_reserve_exact(widest).map_err(|_| too_large())?;
        // The kept bands of the computed rows, one after another, after
        // the zero row every selection starts from: budget 0 at profit 0,
        // flat above it. Every band keeps at least one budget, so one
        // cell per row is reserved up front: single-budget rows never
        // grow the table, and it never holds more than it ends up using.
        let mut table: Vec<f64> = Vec::new();
        let kept_rows = classes.len().checked_add(1).ok_or_else(too_large)?;
        table
            .try_reserve_exact(kept_rows)
            .map_err(|_| too_large())?;
        table.push(0.0);
        let mut prev = Band {
            offset: 0,
            lo: 0,
            hi: 0,
        };
        let mut bands: Vec<Band> = Vec::with_capacity(kept_rows);
        bands.push(prev);

        // Item × budget cells of the windows not yet computed, which
        // decides when the bound pays for itself.
        let mut ahead = windows.iter().zip(&items).fold(0usize, |sum, (w, its)| {
            sum.saturating_add(w.len().saturating_mul(its.len()))
        });
        let pays = items
            .iter()
            .map(Vec::len)
            .sum::<usize>()
            .saturating_mul(PAYOFF);
        let mut bound: Option<Bound> = None;
        let mut tried = false;
        // The reconstruction's picks, one per class; until then the
        // bound's scratch.
        // analyze: allow(A7): reconstruction buffer built once per solve
        let mut picks = vec![0usize; classes.len()];

        let last = windows.len().saturating_sub(1);
        for (k, (w, class)) in windows.iter().zip(&items).enumerate() {
            // `windows` returns `Infeasible` for a class with no item.
            let (Some(&(_, light, first)), Some(&(_, heavy, _))) = (class.first(), class.last())
            else {
                return Err(SolveError::Infeasible);
            };
            let base = prev.values(&table);
            // The budgets the band can reach: never empty (module docs).
            // Budget sums saturate, and a saturated sum lies above every
            // budget, as the true sum does.
            let (start, end) = (
                w.start.max(prev.lo.saturating_add(light)),
                w.end.min(prev.hi.saturating_add(heavy)),
            );
            if start > end {
                return Err(broken());
            }
            // Above its band the previous row is taken flat at its top.
            let flat = base[prev.hi - prev.lo];
            // The lightest item reaches every budget, through the band up
            // to `prev.hi + light` and flat above it, so its pass writes
            // the row and no −∞ fill is needed.
            let to = end.min(prev.hi.saturating_add(light));
            row.clear();
            if start <= to {
                let from = start - light - prev.lo;
                row.extend(base[from..=to - light - prev.lo].iter().map(|&b| b + first));
            }
            row.resize(end - start + 1, flat + first);
            for &(_, sw, profit) in &class[1..] {
                // row[c] = max(row[c], base[c − sw] + profit), the earlier
                // value kept on a tie. Bases below the band are skipped
                // (−∞, never winning); bases above it read the flat value.
                let from = start.max(prev.lo.saturating_add(sw));
                let to = end.min(prev.hi.saturating_add(sw));
                if from <= to {
                    let bases = &base[from - sw - prev.lo..=to - sw - prev.lo];
                    for (cell, &b) in row[from - start..=to - start].iter_mut().zip(bases) {
                        let value = b + profit;
                        // A select, which LLVM turns into `maxpd`;
                        // `f64::max` also orders NaN and compiles to more.
                        *cell = if value > *cell { value } else { *cell };
                    }
                }
                let from = start.max(prev.hi.saturating_add(sw).saturating_add(1));
                if from <= end {
                    let value = flat + profit;
                    for cell in &mut row[from - start..] {
                        *cell = if value > *cell { value } else { *cell };
                    }
                }
            }
            ahead = ahead.saturating_sub(w.len().saturating_mul(class.len()));
            if k < last && !tried && ahead >= pays {
                tried = true;
                bound = Bound::new(self, instance, &items, top, &mut picks);
            }
            let (lo, hi) = match bound.as_mut() {
                Some(b) if k < last => b.band(k, &row, start, end, top),
                _ => (start, end),
            };
            let kept = &row[lo - start..=hi - start];
            table
                .try_reserve_exact(kept.len())
                .map_err(|_| too_large())?;
            prev = Band {
                offset: table.len(),
                lo,
                hi,
            };
            table.extend_from_slice(kept);
            bands.push(prev);
        }

        // Reconstruct backwards from the full budget. Each row is taken
        // flat above its band, so the budget is clamped to the band's top.
        // The pick is the first item whose candidate there reaches the
        // row's value (module docs, Ties); its base is at or above the
        // previous band's bottom, so the budget never leaves the bands.
        let mut budget = res;
        let rows = picks.iter_mut().zip(&items).zip(bands.windows(2));
        for ((pick, class), pair) in rows.rev() {
            budget = budget.min(pair[1].hi);
            let (item, sw) =
                first_reaching(class, &table, pair[0], pair[1], budget).ok_or_else(broken)?;
            *pick = item;
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
    use proptest::prelude::*;

    fn solve(classes: Vec<Vec<Item>>, capacity: f64) -> Result<Selection, SolveError> {
        let inst = MckpInstance::new(classes, capacity).unwrap();
        DpSolver::default().solve(&inst)
    }

    /// The DP's choices for `classes` at capacity 1 on a grid of
    /// `resolution` grid units.
    fn choices_at(classes: Vec<Vec<Item>>, resolution: usize) -> Vec<usize> {
        let inst = MckpInstance::new(classes, 1.0).unwrap();
        let sel = DpSolver::with_resolution(resolution).solve(&inst).unwrap();
        sel.choices().to_vec()
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
        // Two classes that can each take nothing or everything: the first
        // row's window spans all 2^62 + 1 budgets, whose 8 bytes each
        // overflow `isize`, so the scratch row fails before any
        // allocation.
        let class = vec![Item::new(0.0, 0.0), Item::new(1.0, 1.0)];
        let inst = MckpInstance::new(vec![class.clone(), class], 1.0).unwrap();
        let err = DpSolver::with_resolution(1 << 62).solve(&inst).unwrap_err();
        match err {
            SolveError::TooLarge(msg) => {
                assert!(
                    msg.contains("2 classes at resolution 4611686018427387904"),
                    "{msg}"
                )
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    /// Rows are computed only on their windows, so one class at a
    /// resolution of 2^62 needs one budget, and its weight is scaled
    /// exactly, not cut down to 2^53 grid units.
    #[test]
    fn a_single_budget_row_solves_at_any_resolution() {
        let inst = MckpInstance::new(vec![vec![Item::new(0.5, 1.0)]], 1.0).unwrap();
        let solver = DpSolver::with_resolution(1 << 62);
        assert_eq!(solver.scale(0.5, 1.0), Some(1 << 61));
        assert_eq!(solver.solve(&inst).unwrap().choices(), &[0]);
    }

    /// At a resolution above 2^53 a weight scales above 2^53 grid units;
    /// rounded down there, two items of 0.9 would fit the grid together.
    #[test]
    fn huge_resolutions_keep_the_capacity() {
        let inst = MckpInstance::new(
            vec![vec![Item::new(0.9, 1.0)], vec![Item::new(0.9, 1.0)]],
            1.0,
        )
        .unwrap();
        for resolution in [1 << 54, 1 << 62, usize::MAX - 1] {
            let err = DpSolver::with_resolution(resolution).solve(&inst);
            assert_eq!(err, Err(SolveError::Infeasible), "resolution {resolution}");
        }
    }

    /// On a grid of 10, the second class's two items tie at the full
    /// budget: nothing (0 units) on the first class's 10-unit item, worth
    /// 2, or 5 units on its 5-unit item, worth 1 + 1. The first item in
    /// pruned order wins.
    #[test]
    fn recomputed_pick_keeps_the_first_of_tied_candidates() {
        let classes = vec![
            vec![
                Item::new(0.0, 0.0),
                Item::new(0.5, 1.0),
                Item::new(1.0, 2.0),
            ],
            vec![Item::new(0.0, 0.0), Item::new(0.5, 1.0)],
        ];
        assert_eq!(choices_at(classes, 10), [2, 0]);
    }

    /// On a grid of 10 the first row is kept on 0..=2 units, and the
    /// second class's 5-unit item, the pick, reads it at 10 − 5 = 5: above
    /// the band, so at its flat top (1 at 2 units).
    #[test]
    fn recomputed_pick_reads_above_the_previous_band() {
        let classes = vec![
            vec![Item::new(0.0, 0.0), Item::new(0.2, 1.0)],
            vec![
                Item::new(0.0, 0.0),
                Item::new(0.5, 1.0),
                Item::new(1.0, 1.5),
            ],
        ];
        assert_eq!(choices_at(classes, 10), [1, 1]);
    }

    /// On a grid of 10 the first row is kept on 4..=5 units, so at the
    /// full budget the second class's 8-unit item would read 2 units,
    /// below the band: it is skipped, in the kernel and in the
    /// reconstruction, and the 6-unit item reading 4 units is the pick.
    #[test]
    fn recomputed_pick_skips_bases_below_the_previous_band() {
        let classes = vec![
            vec![Item::new(0.3, 1.0), Item::new(0.5, 2.0)],
            vec![
                Item::new(0.0, 0.0),
                Item::new(0.6, 5.0),
                Item::new(0.8, 5.5),
            ],
        ];
        assert_eq!(choices_at(classes, 10), [0, 1]);
    }

    #[test]
    #[should_panic(expected = "resolution must be positive")]
    fn zero_resolution_panics() {
        DpSolver::with_resolution(0);
    }

    /// A kept value no item reaches is reported, not read past: at budget
    /// 6 of a row kept on 5..=6 (values 1 and 2) over the zero row, the
    /// weightless item reaches 0 and the 7-unit item's base lies below
    /// the zero row's band, so it is skipped.
    #[test]
    fn unreached_row_value_is_none() {
        let table = [0.0, 1.0, 2.0];
        let zero = Band {
            offset: 0,
            lo: 0,
            hi: 0,
        };
        let band = Band {
            offset: 1,
            lo: 5,
            hi: 6,
        };
        let class = [(0, 0, 0.0), (1, 7, 0.0)];
        assert_eq!(first_reaching(&class, &table, zero, band, 6), None);
        assert_eq!(first_reaching(&class, &table, zero, band, 4), None);
        let class = [(0, 0, 0.0), (1, 6, 2.0)];
        assert_eq!(first_reaching(&class, &table, zero, band, 6), Some((1, 6)));
    }

    /// The bound's `LB` and `U_0(top)` for `inst` at `resolution`, with
    /// the DP optimum summed in class order as the DP sums it; `None`
    /// when the instance is infeasible.
    fn bracket(inst: &MckpInstance, resolution: usize) -> Option<(f64, f64, f64)> {
        let solver = DpSolver::with_resolution(resolution);
        let items = solver.scaled_items(inst);
        let top = windows(&items, resolution).ok()?.last()?.end;
        let mut at = vec![0; items.len()];
        let bound = Bound::new(&solver, inst, &items, top, &mut at).expect("bound builds");
        let picks = solver.solve(inst).expect("feasible");
        let opt = picks
            .choices()
            .iter()
            .zip(inst.classes())
            .fold(0.0, |sum, (&i, class)| sum + class[i].profit);
        Some((bound.lower, opt, bound.upper))
    }

    /// Classes of (eighths, jitter, real weight, profit) items. Coarse
    /// weights are eighths, some nudged by a hundredth, so that distinct
    /// items round up to one scaled weight; all weights are scaled by
    /// `2 / classes`, so the lightest items fit and the heaviest do not.
    fn bracket_instance(raw: Vec<Vec<(u32, u32, f64, f64)>>, coarse: bool) -> MckpInstance {
        let scale = 2.0 / raw.len() as f64;
        let classes = raw
            .into_iter()
            .map(|class| {
                class
                    .into_iter()
                    .map(|(k, j, w, p)| {
                        let base = if coarse {
                            f64::from(k) / 8.0 + f64::from(j) / 100.0
                        } else {
                            w
                        };
                        Item::new(base * scale, p)
                    })
                    .collect()
            })
            .collect();
        MckpInstance::new(classes, 1.0).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// `LB ≤` the DP optimum `≤ U_0(top)` on random instances, with
        /// weights on a grid of sixteenths (equal scaled weights) or real.
        /// The upper side allows 1e-12 relative: when every heaviest item
        /// fits, `U_0` and the optimum are one sum taken in two orders.
        #[test]
        fn bound_brackets_the_optimum(
            raw in prop::collection::vec(
                prop::collection::vec((0u32..=6, 0u32..=1, 0.0f64..0.8, 0.0f64..50.0), 1..=8),
                1..=40,
            ),
            coarse in 0u32..2,
            resolution in prop_oneof![Just(7usize), Just(10), Just(64), Just(100), Just(1_000)],
        ) {
            let inst = bracket_instance(raw, coarse == 0);
            if let Some((lower, opt, upper)) = bracket(&inst, resolution) {
                prop_assert!(lower <= opt, "LB {lower} above the optimum {opt}");
                prop_assert!(
                    opt <= upper + 1e-12 * (1.0 + upper),
                    "optimum {opt} above U_0(top) {upper}"
                );
            }
        }
    }

    /// `U_0(top)` reads the LP relaxation on each class's upper hull. On a
    /// grid of 4 units the first class has items at 0, 1 and 2 units
    /// worth 0, 1 and 4, and the second class's lightest item takes 3
    /// units, so 1 unit is left: half the hull step from 0 to 2, worth
    /// 2. A chain through every item would read the (1, 1) → (2, 4) step
    /// first and give 3; `LB`, the lightest items plus the second class's
    /// step, is 0.1 against an optimum of 1.
    #[test]
    fn bound_reads_the_hull() {
        let inst = MckpInstance::new(
            vec![
                vec![
                    Item::new(0.0, 0.0),
                    Item::new(0.25, 1.0),
                    Item::new(0.5, 4.0),
                ],
                vec![Item::new(0.75, 0.0), Item::new(1.0, 0.1)],
            ],
            1.0,
        )
        .unwrap();
        let (lower, opt, upper) = bracket(&inst, 4).unwrap();
        assert!((lower - 0.1).abs() < 1e-12, "LB {lower}");
        assert!((opt - 1.0).abs() < 1e-12, "optimum {opt}");
        assert!((upper - 2.0).abs() < 1e-6, "U_0(top) {upper}");
    }

    /// The blind spot of a hull built on scaled weights: at 100 units the
    /// 0.041 and 0.049 items both scale to 5, and the better of the two
    /// lies above the chord from 0 to 10. `LB` stays a feasible
    /// selection's profit.
    #[test]
    fn bound_brackets_equal_scaled_weights() {
        let class = vec![
            Item::new(0.0, 0.0),
            Item::new(0.041, 1.0),
            Item::new(0.049, 1.6),
            Item::new(0.1, 2.0),
        ];
        let inst = MckpInstance::new(vec![class; 24], 1.0).unwrap();
        for resolution in [10, 20, 100, 1_000] {
            let (lower, opt, upper) = bracket(&inst, resolution).unwrap();
            assert!(lower <= opt && opt <= upper, "{lower} <= {opt} <= {upper}");
        }
    }
}
