//! The §6.1 robot-vision case study.
//!
//! Four sporadic image-processing tasks process camera frames; each can
//! run locally on a down-scaled image, or offload a larger image to the
//! GPU server and keep the scaled-down version as compensation. Table 1
//! gives the measured benefit functions (PSNR per scaling level, with the
//! measured response time for each level); this module embeds that exact
//! dataset.
//!
//! The paper does not publish the tasks' WCETs, so this module fixes a
//! documented, feasibility-preserving choice (`Σ C_i/T_i ≈ 0.84 < 1`, as
//! §6.1.3 requires for the all-local fallback) and per-level setup costs
//! that grow with image size (the §5.2 `C^j_{i,1}` extension the paper
//! says its case study uses).

use rto_core::benefit::{BenefitFunction, BenefitPoint};
use rto_core::odm::OdmTask;
use rto_core::task::Task;
use rto_core::time::Duration;
use rto_server::gpu::OffloadRequest;

/// Number of case-study tasks.
pub const NUM_TASKS: usize = 4;

/// The image-scaling factor of each benefit level (level 0 = local
/// execution on the smallest usable image; level 4 = the original size,
/// whose PSNR Table 1 caps at 99 dB).
pub const SCALE_FACTORS: [f64; 5] = [0.25, 0.5, 0.65, 0.8, 1.0];

/// The camera frame is 300×200 (the §1 motivation example's size).
pub const FRAME_WIDTH: usize = 300;
/// See [`FRAME_WIDTH`].
pub const FRAME_HEIGHT: usize = 200;

/// Task names, in Table 1 order.
pub const TASK_NAMES: [&str; 4] = [
    "stereo-vision",
    "edge-detection",
    "object-recognition",
    "motion-detection",
];

/// Table 1, verbatim: per task, `G_i(0)` then `(r_{i,j} ms, G_i(r_{i,j}))`
/// for `j = 2..5`.
const TABLE1: [(f64, [(f64, f64); 4]); 4] = [
    (
        22.4897,
        [
            (195.2814, 30.5918),
            (207.4508, 33.2853),
            (222.2878, 36.6047),
            (236.502, 99.0),
        ],
    ),
    (
        28.1574,
        [
            (253.3242, 35.0431),
            (312.4523, 37.7277),
            (362.4235, 41.4977),
            (420.341, 99.0),
        ],
    ),
    (
        23.9059,
        [
            (148.2351, 28.5648),
            (161.4224, 31.9884),
            (174.3242, 35.3082),
            (188.803, 99.0),
        ],
    ),
    (
        21.0324,
        [
            (343.637, 28.3015),
            (485.459, 32.957),
            (622.091, 36.1414),
            (891.36, 99.0),
        ],
    ),
];

/// Our documented WCET choices (ms): local `C_i`; compensation
/// `C_{i,2} = C_i` (re-run the local version, as §3 suggests); per-level
/// setup `C^j_{i,1}` growing with image size.
const LOCAL_WCET_MS: [u64; 4] = [450, 300, 500, 350];
const SETUP_WCET_MS: [[u64; 4]; 4] = [
    [20, 25, 30, 40],
    [15, 20, 25, 35],
    [12, 16, 20, 28],
    [15, 22, 30, 45],
];

/// Relative GPU cost of each task's kernel at full frame size
/// (multiplied by the scale factor squared for smaller levels).
const COMPUTE_SCALE: [f64; 4] = [3.0, 4.0, 2.5, 8.0];

/// Deadlines: 1.8 s for τ1/τ2, 2 s for τ3/τ4 (§6.1.3), implicit
/// (`D_i = T_i`).
const DEADLINE_MS: [u64; 4] = [1800, 1800, 2000, 2000];

/// The Table 1 benefit functions (with per-level setup costs attached),
/// in task order.
pub fn table1() -> Vec<BenefitFunction> {
    (0..NUM_TASKS)
        .map(|i| {
            let (local, levels) = TABLE1[i];
            let mut points = vec![BenefitPoint::new(Duration::ZERO, local)];
            for (j, &(r_ms, value)) in levels.iter().enumerate() {
                points.push(BenefitPoint::with_costs(
                    Duration::from_ms_f64_clamped(r_ms),
                    value,
                    Duration::from_ms(SETUP_WCET_MS[i][j]),
                    Duration::from_ms(LOCAL_WCET_MS[i]),
                ));
            }
            // analyze: allow(L3): Table 1 constants are compile-time data validated by unit tests
            BenefitFunction::new(points).expect("Table 1 data satisfies the invariants")
        })
        .collect()
}

/// The four case-study tasks.
pub fn case_study_tasks() -> Vec<Task> {
    (0..NUM_TASKS)
        .map(|i| {
            Task::builder(i, TASK_NAMES[i])
                .local_wcet(Duration::from_ms(LOCAL_WCET_MS[i]))
                .setup_wcet(Duration::from_ms(SETUP_WCET_MS[i][0]))
                .compensation_wcet(Duration::from_ms(LOCAL_WCET_MS[i]))
                .period(Duration::from_ms(DEADLINE_MS[i]))
                .build()
                // analyze: allow(L3): case-study constants are compile-time data validated by unit tests
                .expect("case-study constants are valid")
        })
        .collect()
}

/// The complete ODM input for one weight assignment (importance weights
/// in task order, e.g. one of [`weight_permutations`]).
pub fn case_study_system(weights: [f64; 4]) -> Vec<OdmTask> {
    case_study_tasks()
        .into_iter()
        .zip(table1())
        .zip(weights)
        .map(|((task, benefit), w)| OdmTask::new(task, benefit).with_weight(w))
        .collect()
}

/// The 24 permutations of the importance weights (1, 2, 3, 4) — the
/// x-axis ("work set") of Figure 2.
pub fn weight_permutations() -> Vec<[f64; 4]> {
    let mut out = Vec::with_capacity(24);
    let vals = [1.0, 2.0, 3.0, 4.0];
    for a in 0..4 {
        for b in 0..4 {
            if b == a {
                continue;
            }
            for c in 0..4 {
                if c == a || c == b {
                    continue;
                }
                let d = 6 - a - b - c;
                out.push([vals[a], vals[b], vals[c], vals[d]]);
            }
        }
    }
    out
}

/// The uplink payload of task `task` at benefit level `level`: the raw
/// scaled frame.
pub fn level_payload_bytes(level: usize) -> u64 {
    let f = SCALE_FACTORS[level.min(SCALE_FACTORS.len() - 1)];
    ((FRAME_WIDTH as f64 * f) * (FRAME_HEIGHT as f64 * f)).clamp(0.0, u64::MAX as f64) as u64
}

/// The request shaper for the case study: payload grows with the scaling
/// level, compute cost grows with pixels and the task's kernel weight.
pub fn shape_request(task: &Task, level: usize) -> OffloadRequest {
    let f = SCALE_FACTORS[level.min(SCALE_FACTORS.len() - 1)];
    let kernel = COMPUTE_SCALE[task.id().0.min(NUM_TASKS - 1)];
    OffloadRequest::new(task.id().0)
        .with_payload_bytes(level_payload_bytes(level))
        .with_response_bytes(4 * 1024)
        .with_compute_scale(kernel * f * f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rto_core::analysis::local_only_test;

    #[test]
    fn table1_matches_paper_values() {
        let t = table1();
        assert_eq!(t.len(), 4);
        // Spot checks against the published numbers.
        assert_eq!(t[0].local_value(), 22.4897);
        assert_eq!(
            t[0].points()[1].response_time,
            Duration::from_ms_f64(195.2814).unwrap()
        );
        assert_eq!(t[0].points()[1].value, 30.5918);
        assert_eq!(
            t[3].points()[4].response_time,
            Duration::from_ms_f64(891.36).unwrap()
        );
        assert_eq!(t[3].points()[4].value, 99.0);
        assert_eq!(t[2].points()[2].value, 31.9884);
        for g in &t {
            assert_eq!(g.num_levels(), 5);
        }
    }

    #[test]
    fn per_level_costs_attached() {
        let t = table1();
        let p = t[1].points()[3];
        assert_eq!(p.setup_wcet, Some(Duration::from_ms(25)));
        assert_eq!(p.compensation_wcet, Some(Duration::from_ms(300)));
    }

    #[test]
    fn tasks_are_locally_feasible() {
        let tasks = case_study_tasks();
        let result = local_only_test(tasks.iter());
        assert!(result.schedulable, "local utilization {}", result.load);
        assert!(
            result.load > 0.7,
            "should be a loaded system: {}",
            result.load
        );
        assert_eq!(tasks[0].deadline(), Duration::from_ms(1800));
        assert_eq!(tasks[2].deadline(), Duration::from_ms(2000));
    }

    #[test]
    fn weight_permutations_are_all_24() {
        let perms = weight_permutations();
        assert_eq!(perms.len(), 24);
        let mut unique: Vec<_> = perms.iter().map(|p| p.map(|v| v as u64)).collect();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), 24);
        for p in &perms {
            let mut sorted = *p;
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            assert_eq!(sorted, [1.0, 2.0, 3.0, 4.0]);
        }
    }

    #[test]
    fn system_carries_weights() {
        let sys = case_study_system([4.0, 3.0, 2.0, 1.0]);
        assert_eq!(sys.len(), 4);
        assert_eq!(sys[0].weight(), 4.0);
        assert_eq!(sys[3].weight(), 1.0);
        assert_eq!(sys[1].task().name(), "edge-detection");
    }

    #[test]
    fn payloads_grow_with_level() {
        let sizes: Vec<u64> = (0..5).map(level_payload_bytes).collect();
        for w in sizes.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert_eq!(sizes[4], (FRAME_WIDTH * FRAME_HEIGHT) as u64);
    }

    #[test]
    fn request_shape_scales_compute() {
        let tasks = case_study_tasks();
        let small = shape_request(&tasks[0], 1);
        let big = shape_request(&tasks[0], 4);
        assert!(small.compute_scale < big.compute_scale);
        assert!(small.payload_bytes < big.payload_bytes);
        assert_eq!(big.compute_scale, 3.0);
    }
}
