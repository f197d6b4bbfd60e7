//! The §6.2 random workload generator.
//!
//! "A set of 30 real-time tasks are randomly generated … `C_{i,1}` and
//! `C_i` are random values from 0 to 20 ms, `C_{i,2}` is equal to `C_i`.
//! `D_i`, which is equal to `T_i`, is a random integer value from 600 ms
//! to 700 ms. In benefit function `G_i(r_i)`, the benefit values are
//! probability values to get computation results 10 %, 20 %, …, 100 %.
//! The associated estimated response time is randomly generated from
//! 100 ms to 200 ms with an increasing order."

use rto_core::benefit::BenefitFunction;
use rto_core::odm::OdmTask;
use rto_core::task::Task;
use rto_core::time::Duration;
use rto_stats::Rng;

/// Parameters of the §6.2 generator (defaults reproduce the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct RandomSystemParams {
    /// Number of tasks (paper: 30).
    pub num_tasks: usize,
    /// WCET range in ms for `C_i` and `C_{i,1}` (paper: (0, 20]; the
    /// lower bound is clamped to 0.1 ms to keep tasks well-formed).
    pub wcet_range_ms: (f64, f64),
    /// Integer period/deadline range in ms (paper: 600–700).
    pub period_range_ms: (u64, u64),
    /// Number of probability levels (paper: 10, i.e. 10 %…100 %).
    pub probability_levels: usize,
    /// Response-time range in ms for the benefit points (paper: 100–200).
    pub response_range_ms: (f64, f64),
}

impl Default for RandomSystemParams {
    fn default() -> Self {
        RandomSystemParams {
            num_tasks: 30,
            wcet_range_ms: (0.1, 20.0),
            period_range_ms: (600, 700),
            probability_levels: 10,
            response_range_ms: (100.0, 200.0),
        }
    }
}

/// Generates one §6.2 system.
///
/// The benefit of local execution is 0 (a local run never produces the
/// "higher-performance output" the objective counts), and level `k`
/// carries probability `k / levels` at a random, strictly increasing
/// response time.
///
/// # Panics
///
/// Panics if the parameter ranges are inverted or empty.
pub fn random_system(params: &RandomSystemParams, rng: &mut Rng) -> Vec<OdmTask> {
    assert!(params.num_tasks > 0, "need at least one task");
    assert!(
        params.wcet_range_ms.0 > 0.0 && params.wcet_range_ms.0 <= params.wcet_range_ms.1,
        "invalid WCET range"
    );
    assert!(
        params.period_range_ms.0 > 0 && params.period_range_ms.0 <= params.period_range_ms.1,
        "invalid period range"
    );
    assert!(params.probability_levels > 0, "need at least one level");
    assert!(
        params.response_range_ms.0 > 0.0 && params.response_range_ms.0 < params.response_range_ms.1,
        "invalid response range"
    );
    (0..params.num_tasks)
        .map(|i| {
            let (wlo, whi) = params.wcet_range_ms;
            let c_ms = rng.f64_range(wlo, whi);
            let c1_ms = rng.f64_range(wlo, whi);
            let t_ms = rng.u64_range(params.period_range_ms.0, params.period_range_ms.1);
            let c = Duration::from_ms_f64_clamped(c_ms);
            let c1 = Duration::from_ms_f64_clamped(c1_ms);
            let task = Task::builder(i, format!("sim-task-{i}"))
                .local_wcet(c)
                .setup_wcet(c1)
                .compensation_wcet(c) // C_{i,2} = C_i
                .period(Duration::from_ms(t_ms))
                .build()
                // analyze: allow(L3): generator invariants (positive WCETs < period) hold by construction
                .expect("generated parameters satisfy the model");

            // Increasing response times in [lo, hi).
            let (rlo, rhi) = params.response_range_ms;
            let mut times: Vec<f64> = (0..params.probability_levels)
                .map(|_| rng.f64_range(rlo, rhi))
                .collect();
            times.sort_by(f64::total_cmp); // rng yields finite values
            let mut durations = Vec::with_capacity(times.len());
            let mut prev = Duration::ZERO;
            for t in times {
                let mut d = Duration::from_ms_f64_clamped(t);
                if d <= prev {
                    d = prev + Duration::from_ns(1); // enforce strict increase
                }
                durations.push(d);
                prev = d;
            }
            let probabilities: Vec<f64> = (1..=params.probability_levels)
                .map(|k| k as f64 / params.probability_levels as f64)
                .collect();
            let benefit =
                BenefitFunction::from_success_probabilities(0.0, &durations, &probabilities)
                    // analyze: allow(L3): durations strictly increase and probabilities are monotone by construction
                    .expect("constructed monotone");
            OdmTask::new(task, benefit)
        })
        .collect()
}

/// UUniFast (Bini & Buttazzo 2005): draws `n` task utilizations summing
/// exactly to `total`, uniformly over the valid simplex.
///
/// The standard generator for acceptance-ratio experiments: unlike naive
/// normalization it does not bias toward equal shares.
///
/// # Panics
///
/// Panics if `n == 0`, or `total` is not finite and positive.
pub fn uunifast(n: usize, total: f64, rng: &mut Rng) -> Vec<f64> {
    assert!(n > 0, "uunifast: need at least one task");
    assert!(
        total.is_finite() && total > 0.0,
        "uunifast: total utilization must be positive"
    );
    let mut utils = Vec::with_capacity(n);
    let mut remaining = total;
    for i in 1..n {
        let remaining_tasks = (n - i) as f64; // ≥ 1: `i` ranges over 1..n
        let next = remaining * rng.f64().powf(1.0 / remaining_tasks);
        utils.push(remaining - next);
        remaining = next;
    }
    utils.push(remaining);
    utils
}

/// Generates a task set with UUniFast-distributed *offloaded densities*:
/// each task gets a density share `ρ_i` of `total_density`, a random
/// period, response time, and costs backed out so that
/// `(C_{i,1}+C_{i,2})/(D_i−R_i) = ρ_i`. Used by acceptance-ratio sweeps.
///
/// Tasks whose backed-out costs would be degenerate (below 2 ms) are
/// clamped, so the realized total density can deviate slightly from
/// `total_density` at extreme parameters.
///
/// # Panics
///
/// Propagates the [`uunifast`] panics.
pub fn uunifast_offloaded_system(
    n: usize,
    total_density: f64,
    rng: &mut Rng,
) -> Vec<(rto_core::task::Task, Duration)> {
    let shares = uunifast(n, total_density, rng);
    shares
        .iter()
        .enumerate()
        .map(|(i, &rho)| {
            let period = 400 + rng.u64_below(400);
            let r = 50 + rng.u64_below(period / 3);
            let slack = period - r;
            let total_c =
                ((slack as f64 * rho).round().clamp(0.0, u64::MAX as f64) as u64).clamp(2, slack);
            let c1 = (total_c / 5).max(1);
            let c2 = (total_c - c1).max(1);
            let task = Task::builder(i, format!("uuf-{i}"))
                .local_wcet(Duration::from_ms(c2.min(period)))
                .setup_wcet(Duration::from_ms(c1))
                .compensation_wcet(Duration::from_ms(c2))
                .period(Duration::from_ms(period))
                .build()
                // analyze: allow(L3): parameters are backed out from a feasible utilization point
                .expect("backed-out parameters are valid");
            (task, Duration::from_ms(r))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let p = RandomSystemParams::default();
        assert_eq!(p.num_tasks, 30);
        assert_eq!(p.period_range_ms, (600, 700));
        assert_eq!(p.probability_levels, 10);
    }

    #[test]
    fn generates_valid_systems() {
        let mut rng = Rng::seed_from(1);
        let sys = random_system(&RandomSystemParams::default(), &mut rng);
        assert_eq!(sys.len(), 30);
        for t in &sys {
            let task = t.task();
            assert!(task.local_wcet() <= Duration::from_ms(20));
            assert!(task.setup_wcet() <= Duration::from_ms(20));
            assert_eq!(task.compensation_wcet(), task.local_wcet());
            assert!(task.period() >= Duration::from_ms(600));
            assert!(task.period() <= Duration::from_ms(700));
            assert!(task.is_implicit_deadline());
            // Benefit: 11 points (local + 10 levels), values 0.1..1.0.
            assert_eq!(t.benefit().num_levels(), 11);
            assert_eq!(t.benefit().local_value(), 0.0);
            assert_eq!(t.benefit().points()[10].value, 1.0);
            for p in t.benefit().offload_points() {
                assert!(p.response_time >= Duration::from_ms(100));
                assert!(p.response_time < Duration::from_ms(200) + Duration::from_ns(20));
            }
        }
    }

    #[test]
    fn total_utilization_is_moderate() {
        // 30 tasks with C ~ U(0,20] and T ~ 650ms: expected utilization
        // ~0.46; each draw should stay clearly below 1 so that the
        // all-local plan is feasible (as the paper's setup implies).
        let mut rng = Rng::seed_from(2);
        for _ in 0..20 {
            let sys = random_system(&RandomSystemParams::default(), &mut rng);
            let util: f64 = sys.iter().map(|t| t.task().local_utilization()).sum();
            assert!(util < 1.0, "utilization {util}");
            assert!(util > 0.2, "utilization {util}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = random_system(&RandomSystemParams::default(), &mut Rng::seed_from(3));
        let b = random_system(&RandomSystemParams::default(), &mut Rng::seed_from(3));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.task(), y.task());
            assert_eq!(x.benefit(), y.benefit());
        }
    }

    #[test]
    fn custom_parameters_respected() {
        let params = RandomSystemParams {
            num_tasks: 5,
            probability_levels: 4,
            ..Default::default()
        };
        let sys = random_system(&params, &mut Rng::seed_from(4));
        assert_eq!(sys.len(), 5);
        assert_eq!(sys[0].benefit().num_levels(), 5);
        assert_eq!(sys[0].benefit().points()[1].value, 0.25);
    }

    #[test]
    #[should_panic(expected = "invalid period range")]
    fn bad_params_panic() {
        let params = RandomSystemParams {
            period_range_ms: (700, 600),
            ..Default::default()
        };
        random_system(&params, &mut Rng::seed_from(0));
    }

    #[test]
    fn uunifast_sums_to_total() {
        let mut rng = Rng::seed_from(9);
        for n in [1usize, 2, 5, 30] {
            for total in [0.3, 0.8, 1.0, 2.5] {
                let utils = uunifast(n, total, &mut rng);
                assert_eq!(utils.len(), n);
                let sum: f64 = utils.iter().sum();
                assert!((sum - total).abs() < 1e-9, "n={n} total={total} sum={sum}");
                assert!(utils.iter().all(|&u| u >= 0.0));
            }
        }
    }

    #[test]
    fn uunifast_is_not_degenerate() {
        // Shares should vary, not collapse to total/n.
        let mut rng = Rng::seed_from(10);
        let utils = uunifast(10, 1.0, &mut rng);
        let max = utils.iter().cloned().fold(0.0, f64::max);
        let min = utils.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max > 2.0 * min, "suspiciously uniform shares: {utils:?}");
    }

    #[test]
    #[should_panic(expected = "at least one task")]
    fn uunifast_zero_tasks_panics() {
        uunifast(0, 1.0, &mut Rng::seed_from(0));
    }

    #[test]
    fn uunifast_offloaded_system_valid_and_near_target() {
        let mut rng = Rng::seed_from(11);
        let sys = uunifast_offloaded_system(8, 0.7, &mut rng);
        assert_eq!(sys.len(), 8);
        let mut density = 0.0;
        for (task, r) in &sys {
            assert!(task.setup_wcet() + task.compensation_wcet() <= task.deadline());
            let slack = task.deadline() - *r;
            density += (task.setup_wcet() + task.compensation_wcet()).ratio(slack);
        }
        assert!((density - 0.7).abs() < 0.15, "density {density}");
    }
}
