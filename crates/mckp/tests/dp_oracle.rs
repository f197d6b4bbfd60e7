//! Oracle test: the item-major DP kernel returns exactly what the
//! cell-major DP it replaced returned.
//!
//! `reference` below is that cell-major kernel, kept verbatim as the
//! oracle: for every budget it scans the class's pruned items in weight
//! order, re-scales each weight per cell, and keeps the first strictly
//! better item. `DpSolver` must agree with it selection for selection and
//! error for error, including on exact profit ties, rounding ties near
//! 1e16, zero weights, weights above the capacity and a zero capacity.
//!
//! `DpSolver` computes each row only on a window of budgets, so the
//! window cases below put hundreds of light classes where the windows
//! are narrowest: the heaviest items sum to the grid give or take a few
//! units, the lightest sum to it exactly, or the heaviest fall short of
//! it and every row is flat above its window.
//!
//! Within a wide window it keeps only the band of budgets whose LP
//! bound can still reach a feasible selection's profit, so the
//! Figure-3-shaped cases below give 20–60 classes the §6.2 item shape
//! (a zero-profit local item and ten offload levels), where the bound
//! is built and prunes.
//!
//! It stores row values only and recomputes each pick from them in the
//! reconstruction, so every case below, the tie cases first, also checks
//! that the recomputed pick is the item the oracle's strict scan keeps.

use proptest::prelude::*;
use rto_mckp::lp::dominance_filter;
use rto_mckp::{DpSolver, Item, MckpInstance, Selection, SolveError, Solver};

/// The old weight scaling: weights that do not fit map to
/// `resolution + 1`.
fn reference_scale(resolution: usize, weight: f64, capacity: f64) -> usize {
    if weight <= 0.0 {
        return 0;
    }
    if capacity <= 0.0 || weight > capacity {
        return resolution + 1;
    }
    let scaled = (weight / capacity * resolution as f64)
        .ceil()
        .clamp(0.0, u32::MAX as f64) as usize;
    scaled.min(resolution + 1)
}

/// The old cell-major DP.
fn reference(resolution: usize, instance: &MckpInstance) -> Result<Selection, SolveError> {
    let res = resolution;
    let capacity = instance.capacity();
    let classes = instance.classes();
    let scale = |w: f64| reference_scale(res, w, capacity);

    let pruned: Vec<Vec<usize>> = classes.iter().map(|c| dominance_filter(c)).collect();

    const NEG: f64 = f64::NEG_INFINITY;
    let mut dp: Vec<f64> = vec![NEG; res + 1];
    let mut choice: Vec<Vec<usize>> = Vec::with_capacity(classes.len());

    // First class: best item with scaled weight <= c (prefix max).
    {
        let mut ch = vec![usize::MAX; res + 1];
        for (pi, &item_idx) in pruned[0].iter().enumerate() {
            let item = classes[0][item_idx];
            let sw = scale(item.weight);
            if sw > res {
                continue;
            }
            if item.profit > dp[sw] {
                dp[sw] = item.profit;
                ch[sw] = pi;
            }
        }
        for c in 1..=res {
            if dp[c - 1] > dp[c] {
                dp[c] = dp[c - 1];
                ch[c] = ch[c - 1];
            }
        }
        choice.push(ch);
    }

    for (k, class) in classes.iter().enumerate().skip(1) {
        let mut next = vec![NEG; res + 1];
        let mut ch = vec![usize::MAX; res + 1];
        for c in 0..=res {
            for (pi, &item_idx) in pruned[k].iter().enumerate() {
                let item = class[item_idx];
                let sw = scale(item.weight);
                if sw > c {
                    break;
                }
                let base = dp[c - sw];
                if base == NEG {
                    continue;
                }
                let value = base + item.profit;
                if value > next[c] {
                    next[c] = value;
                    ch[c] = pi;
                }
            }
        }
        dp = next;
        choice.push(ch);
    }

    if dp[res] == NEG {
        return Err(SolveError::Infeasible);
    }

    let mut budget = res;
    let mut picks = vec![0usize; classes.len()];
    for k in (0..classes.len()).rev() {
        let pi = choice[k][budget];
        let item_idx = pruned[k][pi];
        picks[k] = item_idx;
        budget -= scale(classes[k][item_idx].weight);
    }
    Ok(Selection::new(picks))
}

/// A weight on a coarse grid (so scaled weights collide), exactly zero,
/// or real-valued; up to 2.5, so some exceed every capacity below.
fn tie_weight() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        (0u32..=20).prop_map(|k| f64::from(k) / 8.0),
        0.0f64..2.5,
    ]
}

/// An integer profit (exact ties) or one near 1e16, where the f64 grid
/// is 2 apart and sums round onto each other.
fn tie_profit() -> impl Strategy<Value = f64> {
    prop_oneof![
        (0u32..=6).prop_map(f64::from),
        (0u32..=6).prop_map(|k| 1e16 + f64::from(k)),
    ]
}

/// 1–8 classes of 1–8 tie-prone items, capacity 0, 0.5, 1 or 2, and a
/// resolution of 1, 3, 7, 100 or 10⁴.
fn tie_case() -> impl Strategy<Value = (MckpInstance, usize)> {
    (
        prop::collection::vec(
            prop::collection::vec((tie_weight(), tie_profit()), 1..=8),
            1..=8,
        ),
        prop_oneof![Just(0.0), Just(0.5), Just(1.0), Just(2.0)],
        prop_oneof![Just(1usize), Just(3), Just(7), Just(100), Just(10_000)],
    )
        .prop_map(|(raw, capacity, resolution)| (instance(raw, capacity), resolution))
}

/// Up to 30 classes of up to 12 real-valued items at capacity 1.
fn real_case() -> impl Strategy<Value = (MckpInstance, usize)> {
    (
        prop::collection::vec(
            prop::collection::vec((0.0f64..0.15, 0.0f64..100.0), 1..=12),
            1..=30,
        ),
        prop_oneof![Just(100usize), Just(1_000), Just(10_000)],
    )
        .prop_map(|(raw, resolution)| (instance(raw, 1.0), resolution))
}

/// Which grid total a window case pins.
#[derive(Debug, Clone, Copy)]
enum Pin {
    /// The heaviest items sum to the grid plus this many units; when it
    /// is negative, every row is flat above its window.
    Heaviest(i64),
    /// The lightest items sum to exactly the grid, the heaviest this many
    /// units more.
    Lightest(u64),
}

/// One class of a window case: its share of the pinned total, its
/// lightest item's weight in quarters of its heaviest (0 = weightless),
/// the lightest item's profit, the heaviest's profit above it, and
/// middle items as (quarters of the way from the lightest to the
/// heaviest, profit above the lightest's modulo the heaviest's step).
/// The heaviest item is always the most profitable, so pruning keeps it
/// and the pinned total is the pruned instance's.
type WindowClass = (u64, u64, u32, u32, Vec<(u64, u32)>);

/// `total` grid units split by `shares`: each class its floor, the
/// remainder one unit each to the first classes.
fn apportion(shares: &[u64], total: u64) -> Vec<u64> {
    let sum: u64 = shares.iter().sum();
    let mut parts: Vec<u64> = shares.iter().map(|&s| s * total / sum).collect();
    let rem = total - parts.iter().sum::<u64>();
    for p in parts.iter_mut().take(rem as usize) {
        *p += 1;
    }
    parts
}

/// 50–1000 light classes of 2–5 items at capacity 1, on a grid of 64,
/// 256 or 512 units, with the pinned total met exactly. One class in
/// eight takes a share of 64 against its neighbours' 1–7, so that
/// shedding a few units can overshoot in one class (the optimum then
/// reads a row above its window) or be made up of many small steps.
/// Weights are whole units over a power of two, so they scale onto the
/// grid without rounding. One case in four has every profit zero.
fn window_case() -> impl Strategy<Value = (MckpInstance, usize)> {
    prop_oneof![Just(64usize), Just(256), Just(512)].prop_flat_map(|resolution| {
        let r = resolution as u64;
        (
            prop::collection::vec(
                (
                    (0u64..8).prop_map(|k| if k == 0 { 64 } else { k }),
                    0u64..=4,
                    0u32..=6,
                    1u32..=6,
                    prop::collection::vec((0u64..=4, 0u32..=5), 0..=3),
                ),
                50..=1000,
            ),
            prop_oneof![
                (-3i64..=3).prop_map(Pin::Heaviest),
                (1i64..=3).prop_map(Pin::Heaviest),
                (0u64..=3).prop_map(Pin::Lightest),
                Just(Pin::Heaviest(-(resolution as i64) / 4)),
            ],
            0u32..4,
        )
            .prop_map(move |(raw, pin, zero)| (window_instance(raw, pin, zero == 0, r), resolution))
    })
}

fn window_instance(raw: Vec<WindowClass>, pin: Pin, zero_profits: bool, r: u64) -> MckpInstance {
    let shares: Vec<u64> = raw.iter().map(|c| c.0).collect();
    let (light, heavy): (Vec<u64>, Vec<u64>) = match pin {
        Pin::Heaviest(delta) => {
            let heavy = apportion(&shares, r.checked_add_signed(delta).unwrap());
            (
                heavy.iter().zip(&raw).map(|(h, c)| h * c.1 / 4).collect(),
                heavy,
            )
        }
        Pin::Lightest(extra) => {
            let light = apportion(&shares, r);
            let more = apportion(&shares, extra);
            let heavy = light.iter().zip(&more).map(|(l, m)| l + m).collect();
            (light, heavy)
        }
    };
    let unit = |w: u64| w as f64 / r as f64;
    let profit = |p: u32| if zero_profits { 0.0 } else { f64::from(p) };
    let classes = raw
        .iter()
        .zip(light.iter().zip(&heavy))
        .map(|((_, _, lp, step, mids), (&l, &h))| {
            let mut class = vec![
                Item::new(unit(l), profit(*lp)),
                Item::new(unit(h), profit(lp + step)),
            ];
            class.extend(
                mids.iter()
                    .map(|&(q, p)| Item::new(unit(l + (h - l) * q / 4), profit(lp + p % step))),
            );
            class
        })
        .collect();
    MckpInstance::new(classes, 1.0).expect("generated instance is valid")
}

/// One §6.2-shaped class: its share of the local load, its first
/// offload level's weight as a multiple of its local density, and ten
/// levels as (weight step as a multiple of the local density, profit
/// step in tenths).
type Figure3Class = (u32, f64, Vec<(f64, u32)>);

/// 20–60 §6.2-shaped classes at capacity 1 on a grid of 100, 300 or
/// 1000 units: a local item at density `C/D` with profit 0, then ten
/// offload levels of rising weight and profit `k/10`. The local
/// densities sum to 0.3–0.9, and the heaviest levels to several times
/// the capacity, so the capacity binds and the windows are wide.
fn figure3_case() -> impl Strategy<Value = (MckpInstance, usize)> {
    (
        prop::collection::vec(
            (
                1u32..=10,
                0.3f64..1.5,
                prop::collection::vec((0.02f64..0.6, 1u32..=3), 10),
            ),
            20..=60,
        ),
        0.3f64..0.9,
        prop_oneof![Just(100usize), Just(300), Just(1_000)],
    )
        .prop_map(|(raw, load, resolution)| (figure3_instance(raw, load), resolution))
}

fn figure3_instance(raw: Vec<Figure3Class>, load: f64) -> MckpInstance {
    let shares: u32 = raw.iter().map(|c| c.0).sum();
    let classes = raw
        .iter()
        .map(|(share, first, levels)| {
            let local = f64::from(*share) / f64::from(shares) * load;
            let mut class = vec![Item::new(local, 0.0)];
            let (mut weight, mut tenths) = (first * local, 0u32);
            for &(step, more) in levels {
                tenths += more;
                class.push(Item::new(weight, f64::from(tenths) / 10.0));
                weight += step * local;
            }
            class
        })
        .collect();
    MckpInstance::new(classes, 1.0).expect("generated instance is valid")
}

fn instance(raw: Vec<Vec<(f64, f64)>>, capacity: f64) -> MckpInstance {
    let classes = raw
        .into_iter()
        .map(|c| c.into_iter().map(|(w, p)| Item::new(w, p)).collect())
        .collect();
    MckpInstance::new(classes, capacity).expect("generated instance is valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn dp_matches_cell_major_oracle_on_ties((inst, resolution) in tie_case()) {
        let got = DpSolver::with_resolution(resolution).solve(&inst);
        let want = reference(resolution, &inst);
        prop_assert_eq!(got, want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn dp_matches_cell_major_oracle_on_real_items((inst, resolution) in real_case()) {
        let got = DpSolver::with_resolution(resolution).solve(&inst);
        let want = reference(resolution, &inst);
        prop_assert_eq!(got, want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dp_matches_cell_major_oracle_in_narrow_windows((inst, resolution) in window_case()) {
        let got = DpSolver::with_resolution(resolution).solve(&inst);
        let want = reference(resolution, &inst);
        prop_assert_eq!(got, want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn dp_matches_cell_major_oracle_on_figure3_shapes((inst, resolution) in figure3_case()) {
        let got = DpSolver::with_resolution(resolution).solve(&inst);
        let want = reference(resolution, &inst);
        prop_assert_eq!(got, want);
    }
}

/// Two items of one class share a scaled weight once rounded up (4.1
/// and 4.9 units become 5 on a grid of 100), and the more profitable
/// one lies above the chord from the item before the pair to the item
/// after it. A hull built on scaled weights that kept the better item
/// of the pair without checking convexity again read a lower bound
/// above the optimum. Twenty-four copies of the class, the top two
/// items lifted by 0, 0.1 or 0.2, so that the capacity binds and the
/// bound is built.
#[test]
fn equal_scaled_weights_above_the_chord() {
    let classes = (0..24)
        .map(|k| {
            let lift = f64::from(k % 3) / 10.0;
            vec![
                Item::new(0.0, 0.0),
                Item::new(0.041, 1.0),
                Item::new(0.049, 1.6 + lift),
                Item::new(0.1, 2.0 + lift),
            ]
        })
        .collect();
    let inst = MckpInstance::new(classes, 1.0).unwrap();
    for resolution in [10, 20, 100, 1_000] {
        assert_eq!(
            DpSolver::with_resolution(resolution).solve(&inst),
            reference(resolution, &inst),
            "resolution {resolution}"
        );
    }
}

/// Two classes of zero-profit items: no item is ever strictly better
/// than a stale value left in a row from an earlier class, so a row
/// that is not reset to -inf keeps no choice at all.
#[test]
fn zero_profit_classes_still_choose() {
    let inst = MckpInstance::new(
        vec![
            vec![Item::new(0.1, 0.0)],
            vec![Item::new(0.1, 0.0), Item::new(0.2, 0.0)],
        ],
        1.0,
    )
    .unwrap();
    for resolution in [10, 100, 10_000] {
        assert_eq!(
            DpSolver::with_resolution(resolution).solve(&inst),
            reference(resolution, &inst),
            "resolution {resolution}"
        );
    }
}

/// Hand-picked ties: equal profits at equal and unequal scaled weights,
/// where the first strictly better item in weight order must win.
#[test]
fn first_strictly_better_item_wins_ties() {
    let inst = MckpInstance::new(
        vec![
            vec![
                Item::new(0.1, 1.0),
                Item::new(0.2, 2.0),
                Item::new(0.3, 2.0),
            ],
            vec![
                Item::new(0.0, 1.0),
                Item::new(0.1, 2.0),
                Item::new(0.4, 3.0),
            ],
            vec![Item::new(0.25, 1.0), Item::new(0.3, 2.0)],
        ],
        1.0,
    )
    .unwrap();
    for resolution in [1, 3, 7, 10, 100, 10_000] {
        assert_eq!(
            DpSolver::with_resolution(resolution).solve(&inst),
            reference(resolution, &inst),
            "resolution {resolution}"
        );
    }
}
