//! Oracle test: the item-major DP kernel returns exactly what the
//! cell-major DP it replaced returned.
//!
//! `reference` below is that cell-major kernel, kept verbatim as the
//! oracle: for every budget it scans the class's pruned items in weight
//! order, re-scales each weight per cell, and keeps the first strictly
//! better item. `DpSolver` must agree with it selection for selection and
//! error for error, including on exact profit ties, rounding ties near
//! 1e16, zero weights, weights above the capacity and a zero capacity.

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
