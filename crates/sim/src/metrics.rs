//! Simulation results: per-task statistics and the full execution record.

use crate::job::{JobRecord, Outcome, Segment, SubJobKind};
use rto_core::task::TaskId;
use rto_core::time::{Duration, Instant};
use rto_obs::MetricsSnapshot;
use rto_stats::Summary;
use serde::{Deserialize, Serialize};

/// Execution bookkeeping for one sub-job (for audits).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SubJobLog {
    /// The owning job.
    pub job_id: usize,
    /// The phase.
    pub kind: SubJobKind,
    /// When the sub-job became ready.
    pub released_at: Instant,
    /// Total work (actual execution demand) of the sub-job.
    pub work: Duration,
    /// The sub-job's absolute deadline.
    pub abs_deadline: Instant,
    /// When it finished, if it did.
    pub completed_at: Option<Instant>,
}

/// Per-task aggregate statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskStats {
    /// The task.
    pub task_id: TaskId,
    /// Jobs released within the horizon.
    pub released: usize,
    /// Jobs whose deadline falls within the horizon (the ones judged).
    pub accountable: usize,
    /// Accountable jobs that completed.
    pub completed: usize,
    /// Accountable jobs that missed their deadline.
    pub misses: usize,
    /// Jobs that ran fully locally (non-offloaded tasks).
    pub local_jobs: usize,
    /// Offloaded jobs whose server result arrived in time.
    pub remote_jobs: usize,
    /// Offloaded jobs that fell back to compensation.
    pub compensated_jobs: usize,
    /// Response-time summary over completed accountable jobs.
    pub response_time: Option<Summary>,
    /// Total realized (weighted) benefit of accountable jobs.
    pub realized_benefit: f64,
    /// Counterfactual benefit if no offloaded result had ever returned
    /// (every job at local quality) — the paper's normalization baseline.
    pub baseline_benefit: f64,
}

impl TaskStats {
    /// Fraction of offloaded jobs that got their result in time
    /// (`None` when the task had no offloaded jobs).
    pub fn remote_success_rate(&self) -> Option<f64> {
        let offloaded = self.remote_jobs + self.compensated_jobs;
        (offloaded > 0).then(|| self.remote_jobs as f64 / offloaded as f64)
    }
}

/// The complete result of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// The simulated horizon.
    pub horizon: Duration,
    /// The seed the run used.
    pub seed: u64,
    /// Per-task statistics, in task order.
    pub per_task: Vec<TaskStats>,
    /// Every job's lifecycle record.
    pub jobs: Vec<JobRecord>,
    /// Every processor segment, in time order.
    pub trace: Vec<Segment>,
    /// Per-sub-job execution bookkeeping.
    pub subjobs: Vec<SubJobLog>,
    /// Total processor busy time.
    pub busy_time: Duration,
    /// Number of preemptions resumed within the horizon: over all
    /// sub-jobs, the number of trace segments minus one. (A sub-job
    /// preempted and never resumed counts in the
    /// `sim_preemptions_total` metric but not here.)
    pub preemptions: usize,
    /// Snapshot of the run's metrics registry (counters, gauges,
    /// histograms). Empty when the run was not observed; reports
    /// serialized before this field existed deserialize to empty.
    #[serde(default)]
    pub metrics: MetricsSnapshot,
}

impl SimReport {
    /// Total deadline misses across all tasks.
    pub fn total_deadline_misses(&self) -> usize {
        self.per_task.iter().map(|t| t.misses).sum()
    }

    /// Total realized (weighted) benefit.
    pub fn total_realized_benefit(&self) -> f64 {
        self.per_task.iter().map(|t| t.realized_benefit).sum()
    }

    /// Total baseline (no-results) benefit.
    pub fn total_baseline_benefit(&self) -> f64 {
        self.per_task.iter().map(|t| t.baseline_benefit).sum()
    }

    /// Realized benefit normalized to the no-results baseline — the
    /// y-axis of the paper's Figure 2.
    pub fn normalized_benefit(&self) -> f64 {
        let base = self.total_baseline_benefit();
        // Benefits are non-negative; ordered comparisons avoid f64
        // equality (lint L2).
        if base <= 0.0 {
            return if self.total_realized_benefit() <= 0.0 {
                1.0
            } else {
                f64::INFINITY
            };
        }
        self.total_realized_benefit() / base
    }

    /// Processor utilization (busy time over horizon).
    pub fn utilization(&self) -> f64 {
        self.busy_time.ratio_or_zero(self.horizon)
    }

    /// Total offloaded jobs that got in-time results.
    pub fn total_remote(&self) -> usize {
        self.per_task.iter().map(|t| t.remote_jobs).sum()
    }

    /// Total offloaded jobs that fell back to compensation.
    pub fn total_compensated(&self) -> usize {
        self.per_task.iter().map(|t| t.compensated_jobs).sum()
    }

    /// Looks up one task's stats.
    pub fn task(&self, id: TaskId) -> Option<&TaskStats> {
        self.per_task.iter().find(|t| t.task_id == id)
    }

    /// Serializes the full report (stats, jobs, trace, sub-job logs) as
    /// JSON to `writer` — the export format for external analysis
    /// tooling.
    ///
    /// # Errors
    ///
    /// Propagates serialization and I/O errors.
    pub fn write_json<W: std::io::Write>(
        &self,
        writer: W,
    ) -> Result<(), Box<dyn std::error::Error>> {
        serde_json::to_writer(writer, self)?;
        Ok(())
    }
}

/// A simple processor + radio power model for energy accounting.
///
/// The paper's related work (Li, Wang & Xu, CASES'01; Chen et al., TPDS
/// 2004) motivates offloading by *energy*: shipping work to a server can
/// beat executing it locally even after paying for the radio. This model
/// makes that trade-off measurable on any simulation run:
///
/// * CPU busy time costs `active_mw`;
/// * idle time costs `idle_mw`;
/// * every offload request/response costs the radio `tx_nj_per_byte`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    /// Power while the processor executes, in milliwatts.
    pub active_mw: f64,
    /// Power while the processor idles, in milliwatts.
    pub idle_mw: f64,
    /// Radio energy per transmitted/received byte, in nanojoules.
    pub tx_nj_per_byte: f64,
}

impl Default for EnergyModel {
    /// A plausible embedded-class profile: 800 mW active, 80 mW idle,
    /// 250 nJ/byte on the WLAN radio.
    fn default() -> Self {
        EnergyModel {
            active_mw: 800.0,
            idle_mw: 80.0,
            tx_nj_per_byte: 250.0,
        }
    }
}

/// Energy totals for one simulation run, in millijoules.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyReport {
    /// Energy spent executing (busy time × active power).
    pub compute_mj: f64,
    /// Energy spent idle (idle time × idle power).
    pub idle_mj: f64,
    /// Radio energy for the transferred bytes.
    pub radio_mj: f64,
}

impl EnergyReport {
    /// Total energy in millijoules.
    pub fn total_mj(&self) -> f64 {
        self.compute_mj + self.idle_mj + self.radio_mj
    }
}

impl SimReport {
    /// Energy accounting under `model`, charging `bytes_transferred` to
    /// the radio (the caller knows the per-request payload shape; pass 0
    /// to ignore radio costs).
    pub fn energy(&self, model: &EnergyModel, bytes_transferred: u64) -> EnergyReport {
        let busy_s = self.busy_time.as_secs_f64();
        let idle_s = (self.horizon.as_secs_f64() - busy_s).max(0.0);
        EnergyReport {
            compute_mj: busy_s * model.active_mw,
            idle_mj: idle_s * model.idle_mw,
            radio_mj: bytes_transferred as f64 * model.tx_nj_per_byte * 1e-6,
        }
    }
}

/// Builds per-task statistics from raw job records: `job_task[k]` is
/// the index (into `task_ids` and `benefits`) of the task that released
/// `jobs[k]`. Each task's sums accumulate in job order.
///
/// One pass counts and sums; it also counts each task's response times.
/// A second pass then fills one buffer with them, each task's slice in
/// job order, and each slice is summarized and sorted in place, so the
/// report needs two buffers, not one per task.
pub(crate) fn aggregate(
    task_ids: &[TaskId],
    benefits: &[(f64, f64)], // per task: (local value * weight, offload level value * weight)
    jobs: &[JobRecord],
    job_task: &[usize],
    horizon: Instant,
) -> Vec<TaskStats> {
    let mut stats: Vec<TaskStats> = task_ids
        .iter()
        .map(|&task_id| TaskStats {
            task_id,
            released: 0,
            accountable: 0,
            completed: 0,
            misses: 0,
            local_jobs: 0,
            remote_jobs: 0,
            compensated_jobs: 0,
            response_time: None,
            realized_benefit: 0.0,
            baseline_benefit: 0.0,
        })
        .collect();
    // Each task's response-time count, turned below into the end of its
    // slice of one buffer.
    let mut ends = vec![0usize; task_ids.len()];
    for (job, &i) in jobs.iter().zip(job_task) {
        let (Some(stats), Some(&(local_value, level_value))) = (stats.get_mut(i), benefits.get(i))
        else {
            continue; // the engine releases jobs only for its own tasks
        };
        stats.released += 1;
        if job.abs_deadline > horizon {
            continue; // censored: not judged
        }
        stats.accountable += 1;
        stats.baseline_benefit += local_value;
        if job.missed_deadline(horizon) {
            stats.misses += 1;
        }
        let Some(outcome) = judged_outcome(job, horizon) else {
            continue; // unfinished accountable job: no benefit
        };
        stats.completed += 1;
        if let Some(n) = ends.get_mut(i) {
            *n += 1;
        }
        match outcome {
            Outcome::Local => {
                stats.local_jobs += 1;
                stats.realized_benefit += local_value;
            }
            Outcome::Remote => {
                stats.remote_jobs += 1;
                stats.realized_benefit += level_value;
            }
            Outcome::Compensated => {
                stats.compensated_jobs += 1;
                stats.realized_benefit += local_value;
            }
        }
    }
    // Counts to slice starts; the fill below advances each start to its
    // slice's end, writing each task's response times in job order.
    let mut total = 0;
    for n in &mut ends {
        let count = *n;
        *n = total;
        total += count;
    }
    let mut response_ms = vec![0.0; total];
    for (job, &i) in jobs.iter().zip(job_task) {
        let (Some(_), Some(rt)) = (
            benefits.get(i),
            judged_outcome(job, horizon).and(job.response_time()),
        ) else {
            continue;
        };
        if let Some(at) = ends.get_mut(i) {
            if let Some(slot) = response_ms.get_mut(*at) {
                *slot = rt.as_ms_f64();
            }
            *at += 1;
        }
    }
    let mut start = 0;
    for (stats, &end) in stats.iter_mut().zip(&ends) {
        stats.response_time = response_ms.get_mut(start..end).and_then(Summary::of_mut);
        start = end;
    }
    stats
}

/// The outcome of a job that counts as completed in its task's
/// statistics: accountable at `horizon`, finished, and with an outcome.
/// Exactly these jobs contribute a response time.
fn judged_outcome(job: &JobRecord, horizon: Instant) -> Option<Outcome> {
    if job.abs_deadline > horizon {
        return None;
    }
    job.completed_at.and(job.outcome)
}

/// Internal extension: `Duration` ratio that tolerates a zero denominator.
trait RatioOrZero {
    fn ratio_or_zero(self, other: Duration) -> f64;
}

impl RatioOrZero for Duration {
    fn ratio_or_zero(self, other: Duration) -> f64 {
        if other.is_zero() {
            0.0
        } else {
            self.ratio(other)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ms: u64) -> Instant {
        Instant::from_ns(ms * 1_000_000)
    }

    /// [`aggregate`] over jobs whose task ids equal their task indexes.
    fn aggregate_by_id(
        task_ids: &[TaskId],
        benefits: &[(f64, f64)],
        jobs: &[JobRecord],
        horizon: Instant,
    ) -> Vec<TaskStats> {
        let job_task: Vec<usize> = jobs.iter().map(|j| j.task_id.0).collect();
        aggregate(task_ids, benefits, jobs, &job_task, horizon)
    }

    fn job(
        job_id: usize,
        task: usize,
        released: u64,
        deadline: u64,
        completed: Option<u64>,
        outcome: Option<Outcome>,
    ) -> JobRecord {
        JobRecord {
            job_id,
            task_id: TaskId(task),
            released_at: at(released),
            abs_deadline: at(deadline),
            completed_at: completed.map(at),
            outcome,
            compensation: None,
            setup_finished_at: None,
            response_at: None,
        }
    }

    #[test]
    fn aggregation_counts_and_benefit() {
        let jobs = vec![
            job(0, 0, 0, 100, Some(80), Some(Outcome::Remote)),
            job(1, 0, 100, 200, Some(190), Some(Outcome::Compensated)),
            job(2, 0, 200, 300, None, None), // unfinished, deadline in horizon: miss
            job(3, 0, 900, 1100, None, None), // censored
        ];
        let stats = aggregate_by_id(&[TaskId(0)], &[(2.0, 10.0)], &jobs, at(1000));
        let s = &stats[0];
        assert_eq!(s.released, 4);
        assert_eq!(s.accountable, 3);
        assert_eq!(s.completed, 2);
        assert_eq!(s.misses, 1);
        assert_eq!(s.remote_jobs, 1);
        assert_eq!(s.compensated_jobs, 1);
        // Remote job: 10; compensated: 2; missed: 0.
        assert!((s.realized_benefit - 12.0).abs() < 1e-12);
        assert!((s.baseline_benefit - 6.0).abs() < 1e-12);
        assert_eq!(s.remote_success_rate(), Some(0.5));
        assert!(s.response_time.is_some());
    }

    #[test]
    fn report_rollups() {
        let jobs = vec![
            job(0, 0, 0, 100, Some(50), Some(Outcome::Remote)),
            job(1, 1, 0, 100, Some(60), Some(Outcome::Local)),
        ];
        let per_task = aggregate_by_id(
            &[TaskId(0), TaskId(1)],
            &[(1.0, 5.0), (2.0, 0.0)],
            &jobs,
            at(1000),
        );
        let report = SimReport {
            horizon: Duration::from_ms(1000),
            seed: 0,
            per_task,
            jobs,
            trace: vec![],
            subjobs: vec![],
            busy_time: Duration::from_ms(250),
            preemptions: 3,
            metrics: Default::default(),
        };
        assert_eq!(report.total_deadline_misses(), 0);
        assert!((report.total_realized_benefit() - 7.0).abs() < 1e-12);
        assert!((report.total_baseline_benefit() - 3.0).abs() < 1e-12);
        assert!((report.normalized_benefit() - 7.0 / 3.0).abs() < 1e-12);
        assert!((report.utilization() - 0.25).abs() < 1e-12);
        assert_eq!(report.total_remote(), 1);
        assert_eq!(report.total_compensated(), 0);
        assert!(report.task(TaskId(1)).is_some());
        assert!(report.task(TaskId(9)).is_none());
    }

    #[test]
    fn energy_accounting() {
        let report = SimReport {
            horizon: Duration::from_secs(10),
            seed: 0,
            per_task: vec![],
            jobs: vec![],
            trace: vec![],
            subjobs: vec![],
            busy_time: Duration::from_secs(4),
            preemptions: 0,
            metrics: Default::default(),
        };
        let model = EnergyModel {
            active_mw: 1000.0,
            idle_mw: 100.0,
            tx_nj_per_byte: 200.0,
        };
        let e = report.energy(&model, 1_000_000);
        assert!((e.compute_mj - 4000.0).abs() < 1e-9);
        assert!((e.idle_mj - 600.0).abs() < 1e-9);
        assert!((e.radio_mj - 200.0).abs() < 1e-9);
        assert!((e.total_mj() - 4800.0).abs() < 1e-9);
        // Zero radio bytes is legal.
        assert_eq!(report.energy(&model, 0).radio_mj, 0.0);
        // Default model is sane.
        let d = EnergyModel::default();
        assert!(d.active_mw > d.idle_mw);
    }

    #[test]
    fn offloading_saves_compute_energy() {
        // Two equal-horizon runs with different busy time: the one that
        // offloaded (less local execution) wins on compute + idle, and
        // the radio cost is the price.
        let mk = |busy_s: u64| SimReport {
            horizon: Duration::from_secs(10),
            seed: 0,
            per_task: vec![],
            jobs: vec![],
            trace: vec![],
            subjobs: vec![],
            busy_time: Duration::from_secs(busy_s),
            preemptions: 0,
            metrics: Default::default(),
        };
        let model = EnergyModel::default();
        let local = mk(8).energy(&model, 0);
        let offloaded = mk(2).energy(&model, 5_000_000); // 5 MB of frames
        assert!(
            offloaded.total_mj() < local.total_mj(),
            "offloading should pay: {} vs {}",
            offloaded.total_mj(),
            local.total_mj()
        );
    }

    #[test]
    fn normalized_benefit_zero_baseline() {
        let report = SimReport {
            horizon: Duration::from_ms(10),
            seed: 0,
            per_task: vec![],
            jobs: vec![],
            trace: vec![],
            subjobs: vec![],
            busy_time: Duration::ZERO,
            preemptions: 0,
            metrics: Default::default(),
        };
        assert_eq!(report.normalized_benefit(), 1.0);
    }

    #[test]
    fn remote_success_rate_none_without_offloads() {
        let jobs = vec![job(0, 0, 0, 100, Some(50), Some(Outcome::Local))];
        let stats = aggregate_by_id(&[TaskId(0)], &[(1.0, 0.0)], &jobs, at(1000));
        assert_eq!(stats[0].remote_success_rate(), None);
    }

    #[test]
    fn remote_success_rate_extremes() {
        // All offloaded jobs answered in time: rate 1.
        let all_remote = vec![
            job(0, 0, 0, 100, Some(50), Some(Outcome::Remote)),
            job(1, 0, 100, 200, Some(150), Some(Outcome::Remote)),
        ];
        let stats = aggregate_by_id(&[TaskId(0)], &[(1.0, 4.0)], &all_remote, at(1000));
        assert_eq!(stats[0].remote_success_rate(), Some(1.0));
        // Every offload fell back to compensation: rate 0.
        let all_comp = vec![
            job(0, 0, 0, 100, Some(90), Some(Outcome::Compensated)),
            job(1, 0, 100, 200, Some(190), Some(Outcome::Compensated)),
        ];
        let stats = aggregate_by_id(&[TaskId(0)], &[(1.0, 4.0)], &all_comp, at(1000));
        assert_eq!(stats[0].remote_success_rate(), Some(0.0));
        // Mixed local + remote: locals do not dilute the rate.
        let mixed = vec![
            job(0, 0, 0, 100, Some(50), Some(Outcome::Local)),
            job(1, 0, 100, 200, Some(150), Some(Outcome::Remote)),
        ];
        let stats = aggregate_by_id(&[TaskId(0)], &[(1.0, 4.0)], &mixed, at(1000));
        assert_eq!(stats[0].remote_success_rate(), Some(1.0));
    }

    #[test]
    fn normalized_benefit_tracks_remote_fraction() {
        // A censored-only task contributes nothing to either side.
        let jobs = vec![
            job(0, 0, 0, 100, Some(50), Some(Outcome::Remote)), // level value
            job(1, 0, 100, 200, Some(190), Some(Outcome::Compensated)), // local value
            job(2, 0, 900, 1100, None, None),                   // censored
        ];
        let per_task = aggregate_by_id(&[TaskId(0)], &[(2.0, 8.0)], &jobs, at(1000));
        // baseline = 2 accountable × 2.0; realized = 8 + 2.
        assert!((per_task[0].baseline_benefit - 4.0).abs() < 1e-12);
        assert!((per_task[0].realized_benefit - 10.0).abs() < 1e-12);
        let report = SimReport {
            horizon: Duration::from_ms(1000),
            seed: 0,
            per_task,
            jobs,
            trace: vec![],
            subjobs: vec![],
            busy_time: Duration::ZERO,
            preemptions: 0,
            metrics: Default::default(),
        };
        assert!((report.normalized_benefit() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn normalized_benefit_infinite_on_zero_baseline_with_gain() {
        // Zero-valued local quality but realized remote benefit: the
        // ratio degenerates to +inf rather than panicking or NaN.
        let jobs = vec![job(0, 0, 0, 100, Some(50), Some(Outcome::Remote))];
        let per_task = aggregate_by_id(&[TaskId(0)], &[(0.0, 5.0)], &jobs, at(1000));
        let report = SimReport {
            horizon: Duration::from_ms(1000),
            seed: 0,
            per_task,
            jobs,
            trace: vec![],
            subjobs: vec![],
            busy_time: Duration::ZERO,
            preemptions: 0,
            metrics: Default::default(),
        };
        assert_eq!(report.normalized_benefit(), f64::INFINITY);
    }

    #[test]
    fn sim_report_serde_round_trip() {
        // A fully populated report — including a non-empty metrics
        // snapshot — must survive JSON serialization bit-for-bit.
        let registry = rto_obs::MetricsRegistry::new();
        registry.counter("sim_offloads_total").add(7);
        registry.gauge("load").set(0.75);
        registry.histogram("sim_server_response_ns").record(12_345);
        let jobs = vec![
            job(0, 0, 0, 100, Some(80), Some(Outcome::Remote)),
            job(1, 0, 100, 200, None, None),
        ];
        let per_task = aggregate_by_id(&[TaskId(0)], &[(2.0, 10.0)], &jobs, at(1000));
        let report = SimReport {
            horizon: Duration::from_ms(1000),
            seed: 42,
            per_task,
            jobs,
            trace: vec![],
            subjobs: vec![SubJobLog {
                job_id: 0,
                kind: SubJobKind::Setup,
                released_at: at(0),
                work: Duration::from_ms(5),
                abs_deadline: at(100),
                completed_at: Some(at(5)),
            }],
            busy_time: Duration::from_ms(85),
            preemptions: 1,
            metrics: registry.snapshot(),
        };
        let mut buf = Vec::new();
        report.write_json(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let back: SimReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.metrics.counter("sim_offloads_total"), Some(7));
        // Reports written before the metrics field existed still load.
        let legacy = text.replace(",\"metrics\":", ",\"ignored\":");
        let from_legacy: Result<SimReport, _> = serde_json::from_str(&legacy);
        if let Ok(r) = from_legacy {
            assert!(r.metrics.is_empty());
        }
    }
}
