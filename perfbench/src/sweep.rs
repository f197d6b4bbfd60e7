//! `casestudy-sweep`: the Figure-2 case study swept over server load.
//!
//! The four Table-1 tasks are planned once with the DP; each op runs the
//! 13 background utilizations 0.0–1.2 × several seeds, each trial a 10 s
//! simulation against the two-board GPU server, through
//! `rto_exp::run_matrix_observed` with one job. The trial body makes the
//! same calls as `rto_bench::sweep::run_with`. Thousands of tiny runs:
//! the fixed cost per trial (engine, `Simulation::build`, the per-trial
//! metrics registry, the report) and the server's background-load
//! generation carry the op, the opposite use of the simulator from
//! `fleet-1k`.

use crate::alloc;
use crate::harness::{check_plan, Checked, Workload};
use crate::layers::{self, now_ns, Tracer};
use rto_core::odm::{OffloadingDecisionManager, OffloadingPlan};
use rto_exp::{
    derive_seed, f64_from_hex, f64_hex, run_matrix_observed, ExpOptions, MatrixRun, MatrixSpec,
    TrialCtx, TrialData,
};
use rto_mckp::DpSolver;
use rto_obs::Obs;
use rto_server::gpu::GpuServer;
use rto_server::network::NetworkModel;
use rto_server::Scenario;
use rto_sim::{SimConfig, SimReport};
use rto_workloads::case_study::{case_study_system, shape_request, weight_permutations};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// The workload at a given size.
#[derive(Debug, Clone, Copy)]
pub struct CaseStudySweep {
    /// Seeds per utilization point.
    pub seeds_per_point: usize,
    /// Simulated seconds per trial.
    pub horizon_s: u64,
    /// Set-ups per run.
    pub setups: usize,
}

impl CaseStudySweep {
    /// The benchmark's size: Figure 2's 10 s horizon, and one set-up per
    /// weight permutation of the four tasks.
    pub const FULL: CaseStudySweep = CaseStudySweep {
        seeds_per_point: 6,
        horizon_s: 10,
        setups: 24,
    };
}

/// The 13 background utilizations, 0.0–1.2.
pub fn grid() -> Vec<f64> {
    (0..=12).map(|k| f64::from(k) / 10.0).collect()
}

/// A planned case study and its trial matrix.
#[derive(Debug, Clone)]
pub struct SweepInput {
    odm: OffloadingDecisionManager,
    plan: OffloadingPlan,
    spec: MatrixSpec,
    utils: Vec<f64>,
    horizon_s: u64,
}

/// One trial's measurements, cached bit-exactly like the sweep's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepTrial {
    /// Normalized benefit of the trial.
    pub benefit: f64,
    /// Offloaded jobs that came back in time, as a share.
    pub remote_rate: f64,
    /// Deadline misses (must be 0).
    pub misses: u64,
}

impl TrialData for SweepTrial {
    fn encode(&self) -> String {
        format!(
            "{} {} {}",
            f64_hex(self.benefit),
            f64_hex(self.remote_rate),
            self.misses
        )
    }
    fn decode(s: &str) -> Option<Self> {
        let mut parts = s.split(' ');
        let benefit = f64_from_hex(parts.next()?)?;
        let remote_rate = f64_from_hex(parts.next()?)?;
        let misses = parts.next()?.parse().ok()?;
        if parts.next().is_some() {
            return None;
        }
        Some(SweepTrial {
            benefit,
            remote_rate,
            misses,
        })
    }
}

/// One op's result: every trial, and the merged metrics shard.
pub type SweepOutput = MatrixRun<Result<SweepTrial, String>>;

impl SweepInput {
    /// Simulates one trial of the matrix, as the sweep's trial body does.
    ///
    /// # Errors
    ///
    /// Any configuration or engine error, as text.
    pub fn simulate(&self, ctx: &TrialCtx, obs: &Obs, tr: &Tracer) -> Result<SimReport, String> {
        let util = self.utils[ctx.point];
        // Background jobs keep the presets' 45 ms mean service time; the
        // arrival rate backs out of the target utilization.
        let background_rate = util * Scenario::NUM_BOARDS as f64 / 0.045;
        layers::simulate(
            tr,
            obs,
            self.odm.tasks().to_vec(),
            self.plan.clone(),
            |obs| {
                Ok(GpuServer::new(
                    Scenario::NUM_BOARDS,
                    Scenario::SERVICE_MEAN_MS,
                    Scenario::SERVICE_CV,
                    background_rate,
                    45.0,
                    NetworkModel::wlan(),
                    ctx.seed,
                )?
                .with_obs(obs.clone()))
            },
            Some(Box::new(shape_request)),
            SimConfig::for_seconds(self.horizon_s, ctx.seed),
        )
    }

    fn trial(&self, ctx: &TrialCtx, obs: &Obs, tr: &Tracer) -> Result<SweepTrial, String> {
        let report = self.simulate(ctx, obs, tr)?;
        let offloaded = report.total_remote() + report.total_compensated();
        Ok(SweepTrial {
            benefit: report.normalized_benefit(),
            remote_rate: if offloaded > 0 {
                report.total_remote() as f64 / offloaded as f64
            } else {
                0.0
            },
            misses: report.total_deadline_misses() as u64,
        })
    }

    /// The op: the whole matrix on one thread, traced per trial when
    /// `tr` is on.
    pub fn sweep(&self, tr: &Tracer, opts: &ExpOptions) -> SweepOutput {
        if !tr.enabled() {
            return run_matrix_observed(&self.spec, opts, |ctx, obs| self.trial(ctx, obs, tr));
        }
        // The engine's own allocations: the matrix's minus its trial bodies'.
        let body_allocs = AtomicU64::new(0);
        let allocs = alloc::allocs();
        let run = tr.span("exp.engine.matrix", || {
            run_matrix_observed(&self.spec, opts, |ctx, obs| {
                let a = alloc::allocs();
                let out = tr.span("exp.engine.trial", || self.trial(ctx, obs, tr));
                body_allocs.fetch_add(alloc::allocs() - a, Relaxed);
                out
            })
        });
        let engine_allocs = (alloc::allocs() - allocs).saturating_sub(body_allocs.into_inner());
        tr.sample(
            "exp.allocs_per_trial",
            engine_allocs as f64 / run.stats.trials_total.max(1) as f64,
        );
        run
    }
}

/// A matrix run's bytes: every trial's encoding, then the merged shard.
pub fn run_text(run: &SweepOutput) -> String {
    let mut text = String::new();
    for trial in run.points.iter().flatten() {
        text.push_str(&trial.encode());
        text.push('\n');
    }
    text.push_str(&run.shard.to_json());
    text
}

impl Workload for CaseStudySweep {
    type Input = SweepInput;
    type Output = SweepOutput;

    fn setups(&self) -> usize {
        self.setups
    }

    fn setup(&self, seed: u64, k: usize, tr: &Tracer) -> Result<SweepInput, String> {
        // Set-up 0 plans the sweep's weights (1, 2, 3, 4); set-up k plans
        // the k-th permutation, so none reuses another's plan, and there
        // are only as many set-ups as permutations.
        let weights = *weight_permutations()
            .get(k)
            .ok_or(format!("no weight permutation left for set-up {k}"))?;
        let odm = OffloadingDecisionManager::new(case_study_system(weights))
            .map_err(|e| e.to_string())?;
        let plan = layers::decide(tr, &odm, &DpSolver::default())?;
        let utils = grid();
        let spec = MatrixSpec {
            name: "casestudy-sweep".into(),
            fingerprint: format!("casestudy-sweep-v1\u{1f}horizon={}", self.horizon_s),
            base_seed: derive_seed(seed, k as u64, 0),
            point_keys: utils
                .iter()
                .map(|&u| format!("util={}", f64_hex(u)))
                .collect(),
            trials_per_point: self.seeds_per_point,
        };
        Ok(SweepInput {
            odm,
            plan,
            spec,
            utils,
            horizon_s: self.horizon_s,
        })
    }

    fn check_setup(&self, input: &SweepInput) -> Vec<String> {
        check_plan(input.odm.tasks(), &input.plan)
    }

    fn pool(&self, _input: &SweepInput) -> usize {
        1
    }

    fn op(&self, input: &SweepInput, _i: usize, tr: &Tracer) -> Result<SweepOutput, String> {
        Ok(input.sweep(tr, &ExpOptions::default()))
    }

    fn check(&self, _input: &SweepInput, _i: usize, run: &SweepOutput) -> Checked {
        let mut failures = Vec::new();
        let mut benefit = 0.0;
        let mut n = 0usize;
        for trial in run.points.iter().flatten() {
            match trial {
                Ok(t) if t.misses > 0 => {
                    failures.push(format!(
                        "{} deadline misses under a feasible plan",
                        t.misses
                    ));
                }
                Ok(t) => {
                    benefit += t.benefit;
                    n += 1;
                }
                Err(e) => failures.push(e.clone()),
            }
        }
        failures.truncate(5);
        Checked {
            work: run.stats.trials_total as f64,
            benefit: (n > 0).then(|| benefit / n as f64),
            failures,
        }
    }

    fn output_text(&self, run: &SweepOutput) -> String {
        run_text(run)
    }

    fn audit(&self, input: &SweepInput) -> Vec<String> {
        // One trial outside the engine, at the highest load: it must match
        // the matrix's value bit for bit and pass both schedule audits.
        let point = input.utils.len() - 1;
        let ctx = TrialCtx {
            point,
            trial: 0,
            seed: derive_seed(input.spec.base_seed, point as u64, 0),
        };
        let report = match input.simulate(&ctx, &Obs::disabled(), &Tracer::off()) {
            Ok(r) => r,
            Err(e) => return vec![e],
        };
        let mut failures = rto_sim::validate::audit_trace(&report);
        failures.extend(rto_sim::validate::audit_edf(&report));
        let run = input.sweep(&Tracer::off(), &ExpOptions::default());
        let in_matrix = run.points[point][0].as_ref().map(|t| t.benefit.to_bits());
        if in_matrix != Ok(report.normalized_benefit().to_bits()) {
            failures.push("a trial run alone differs from the same trial in the matrix".into());
        }
        failures.truncate(5);
        failures
    }

    /// One uncached, one cold-cache and one warm-cache pass over the
    /// matrix: the cold pass's extra time is the stores, the warm pass is
    /// all loads.
    fn extra_layers(&self, input: &SweepInput, tr: &Tracer, dir: &Path) -> Result<(), String> {
        let root = dir.join(format!("cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cached = ExpOptions {
            cache_root: Some(root.clone()),
            ..ExpOptions::default()
        };
        let off = Tracer::off();
        let timed = |opts: &ExpOptions| {
            let start = now_ns();
            let run = input.sweep(&off, opts);
            (run, (now_ns() - start) as f64)
        };
        let (_, plain_ns) = timed(&ExpOptions::default());
        let (cold, cold_ns) = timed(&cached);
        let (warm, warm_ns) = timed(&cached);
        let _ = std::fs::remove_dir_all(&root);
        if warm.stats.trials_cached != warm.stats.trials_total || warm.points != cold.points {
            return Err("the warm pass did not serve the cold pass's trials".into());
        }
        let trials = warm.stats.trials_total.max(1) as f64;
        tr.sample(
            "exp.cache.store_us",
            (cold_ns - plain_ns).max(0.0) / trials / 1e3,
        );
        tr.sample("exp.cache.load_us", warm_ns / trials / 1e3);
        Ok(())
    }
}
