//! Event-engine throughput benchmark: calendar queue vs a bench-local
//! reference heap (the production `LegacyHeap` engine was retired after
//! soaking as the differential oracle; the textbook
//! `BinaryHeap<Reverse<(at, seq, job)>>` model here keeps the speedup
//! honest without keeping dead code in the simulator).
//!
//! Two workloads, both deterministic:
//!
//! * **Synchronized-fleet hold model** (the classic calendar-queue hold
//!   benchmark, with the simulator's stress distribution; see
//!   [`rto_bench::hot_path`]) at 10³, 10⁴, and 10⁵ concurrent jobs:
//!   prefill one event per job, phases staggered on the millisecond grid
//!   inside one shared 200 ms period, then repeatedly pop the earliest
//!   event and push that job's next one a period ahead. Every
//!   millisecond tick fires a batch of same-instant events — the
//!   synchronized-release clustering that drove the calendar rewrite,
//!   and the case where a heap pays `log n` per event of a batch while
//!   the calendar streams it. Timed as the best of three back-to-back
//!   trials (each a full pass over the pending population several
//!   times) to shed scheduler noise; at 10⁵ the best of three such
//!   rounds for both queues. Reported as events/sec per implementation
//!   and the calendar/reference speedup.
//! * **Engine fleet scaling** — a full `Simulation::build` + `run` over
//!   an offloadable task fleet at 10², 10³, and 10⁴ tasks, reporting
//!   jobs/sec at each size and `engine_scaling`, the 10⁴-task jobs/sec
//!   over the 10²-task jobs/sec. WCETs shrink as the fleet grows, so the
//!   density stays fixed, and the horizon shrinks with it, so every size
//!   simulates about the same number of jobs: a per-job cost that grows
//!   with the task count shows as a falling curve. Plans come from
//!   HEU-OE: this times the engine, not the planner. The 10² fleet also
//!   runs twice and must serialize identically (cheap determinism
//!   cross-check of the `engine_differential` suite).
//!
//! Writes a `BENCH_sim.json` summary; `scripts/bench_trend` holds it to
//! the bounds in `bench.budget.toml`, against
//! `results/BENCH_sim_baseline.json`. The binary fails only on a
//! cross-check: the two queues' hold checksums differ, or the two
//! identical engine runs do not serialize identically. That
//! steady-state holds rarely allocate is a test:
//! `crates/bench/tests/alloc_budget.rs`.
//!
//! Usage: `cargo run --release -p rto-bench --bin sim_bench
//! [--ops N] [--out PATH]`

use rto_bench::hot_path::{hold, prefilled, HoldQueue};
use rto_bench::opts::SIM_BENCH;
use rto_core::time::{Duration, Instant};
use rto_obs::Stopwatch;
use rto_sim::event::{Event, EventQueue};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Hold trials per measurement; the best (fastest) one is reported.
const HOLD_TRIALS: usize = 3;
/// Engine fleet sizes of the scaling curve.
const ENGINE_FLEETS: [usize; 3] = [100, 1_000, 10_000];
/// Engine runs per fleet size; the fastest one is reported.
const ENGINE_TRIALS: usize = 3;

/// One reference-heap entry: the retired engine's layout verbatim —
/// `(at, seq)` ordering key plus the full 16-byte [`Event`] payload —
/// so the speedup keeps measuring the same competitor it did when the
/// heap engine still lived in the simulator.
#[derive(Clone, Copy)]
struct RefEntry {
    at: u64,
    seq: u64,
    event: Event,
}

impl Ord for RefEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at.cmp(&other.at).then(self.seq.cmp(&other.seq))
    }
}

impl PartialOrd for RefEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for RefEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl Eq for RefEntry {}

/// The reference competitor: the textbook `BinaryHeap` event queue the
/// simulator used before the calendar rewrite, with the same
/// `(time, insertion order)` pop contract as the production queue.
#[derive(Default)]
struct RefHeap {
    heap: BinaryHeap<Reverse<RefEntry>>,
    next_seq: u64,
}

impl RefHeap {
    fn with_capacity(cap: usize) -> Self {
        RefHeap {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
        }
    }
}

impl HoldQueue for RefHeap {
    fn push(&mut self, at: Instant, event: Event) {
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        self.heap.push(Reverse(RefEntry {
            at: at.as_ns(),
            seq,
            event,
        }));
    }

    fn pop(&mut self) -> Option<(Instant, Event)> {
        self.heap
            .pop()
            .map(|Reverse(e)| (Instant::from_ns(e.at), e.event))
    }
}

/// Times the hold model on `q`, prefilled for `n` jobs; returns
/// (ns/event, checksum). One untimed warm-up pass lets the measured
/// region see steady-state capacities and an adapted bucket width. Then
/// the best of [`HOLD_TRIALS`] timed trials: the queue state each trial
/// starts from is deterministic, so the fold of every trial's checksum
/// is too, and the minimum elapsed time is the least noise-polluted view
/// of the same steady state.
fn run_hold<Q: HoldQueue>(q: Q, n: usize, ops: u64) -> (f64, u64) {
    let mut q = prefilled(q, n);
    hold(&mut q, ops / 2);
    let mut checksum = 0u64;
    let mut best_elapsed = f64::INFINITY;
    for _ in 0..HOLD_TRIALS {
        let sw = Stopwatch::start();
        let trial_sum = hold(&mut q, ops);
        let elapsed = Duration::from_ns(sw.elapsed_ns()).as_ns_f64();
        checksum = checksum.wrapping_mul(31).wrapping_add(trial_sum);
        if elapsed < best_elapsed {
            best_elapsed = elapsed;
        }
    }
    (best_elapsed / ops as f64, checksum)
}

/// One full-engine fleet run: `tasks` offloadable tasks with periods
/// 200–356 ms on a 4 ms grid against a perfect 20 ms server. Local and
/// compensation WCETs are 135 ms / `tasks` (local density about 0.5 at
/// every size) and the horizon is 200 s × 100 / `tasks`, so each run
/// releases about 75k jobs. Times `Simulation::build` and `run`; returns
/// (jobs/sec, serialized report).
fn run_engine(tasks: usize) -> Result<(f64, String), Box<dyn std::error::Error>> {
    use rto_core::benefit::BenefitFunction;
    use rto_core::odm::{OdmTask, OffloadingDecisionManager};
    use rto_core::task::Task;
    use rto_mckp::HeuOeSolver;
    use rto_server::gpu::PerfectServer;
    use rto_sim::{ExecutionTimeModel, SimConfig, Simulation};

    let n = tasks as u64;
    let wcet = Duration::from_ms(135) / n;
    let mut odm_tasks = Vec::with_capacity(tasks);
    for i in 0..tasks {
        let period = Duration::from_ms(200 + 4 * (i as u64 % 40));
        // Small setup, full-size local fallback — the paper's
        // offloadable shape.
        let task = Task::builder(i, format!("fleet-{i}"))
            .local_wcet(wcet)
            .setup_wcet(wcet / 15)
            .compensation_wcet(wcet)
            .period(period)
            .build()?;
        let g = BenefitFunction::from_ms_points(&[(0.0, 1.0), (50.0, 9.0)])?;
        odm_tasks.push(OdmTask::new(task, g));
    }
    let odm = OffloadingDecisionManager::new(odm_tasks)?;
    let plan = odm.decide(&HeuOeSolver::new())?;
    let horizon = Duration::from_secs(20_000) / n;
    let server = Box::new(PerfectServer {
        response_time: Duration::from_ms(20),
    });
    let sw = Stopwatch::start();
    let report = Simulation::build(odm.tasks().to_vec(), plan)?
        .with_server(server)
        .run(
            SimConfig::new(horizon, 7)
                .with_exec_time(ExecutionTimeModel::UniformFraction { min_fraction: 0.4 }),
        )?;
    let elapsed = Duration::from_ns(sw.elapsed_ns()).as_secs_f64();
    // analyze: allow(A4): released is a usize job count; the widening is lossless
    let jobs: u64 = report.per_task.iter().map(|t| t.released as u64).sum();
    let bytes = serde_json::to_string(&report)?;
    Ok((jobs as f64 / elapsed.max(1e-9), bytes))
}

/// The best jobs/sec of [`ENGINE_TRIALS`] runs at one fleet size.
fn engine_jobs_per_sec(tasks: usize) -> Result<f64, Box<dyn std::error::Error>> {
    let mut best = 0.0f64;
    for _ in 0..ENGINE_TRIALS {
        best = best.max(run_engine(tasks)?.0);
    }
    Ok(best)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = SIM_BENCH.parse(std::env::args().skip(1))?;
    let ops: u64 = args.parsed("--ops")?.unwrap_or(1_000_000).max(1_000);
    let out = args.value("--out").unwrap_or("BENCH_sim.json");

    let mut fields = String::new();
    for &n in &[1_000usize, 10_000, 100_000] {
        // A single noisy scheduling window can distort one round, so
        // the 100k size is measured over three rounds, folding the
        // per-queue minima — symmetric best-of-N for both competitors,
        // with the checksum cross-check repeated every round.
        let rounds = if n == 100_000 { 3 } else { 1 };
        let mut cal_per_event = f64::INFINITY;
        let mut ref_per_event = f64::INFINITY;
        for _ in 0..rounds {
            let (cal_round, cal_sum) = run_hold(EventQueue::with_capacity(n), n, ops);
            let (ref_round, ref_sum) = run_hold(RefHeap::with_capacity(n), n, ops);
            if cal_sum != ref_sum {
                return Err(format!(
                    "hold-model divergence at n={n}: calendar checksum {cal_sum}, \
                     reference heap {ref_sum}"
                )
                .into());
            }
            cal_per_event = cal_per_event.min(cal_round);
            ref_per_event = ref_per_event.min(ref_round);
        }
        let cal_eps = 1e9 / cal_per_event.max(1e-9);
        let ref_eps = 1e9 / ref_per_event.max(1e-9);
        let speedup = cal_eps / ref_eps.max(1e-9);
        eprintln!(
            "sim_bench: n={n:>6}  calendar {cal_eps:>12.0} ev/s ({cal_per_event:.1} ns)  \
             ref heap {ref_eps:>12.0} ev/s ({ref_per_event:.1} ns)  speedup {speedup:.1}x"
        );
        fields.push_str(&format!(
            concat!(
                "\"calendar_events_per_sec_{n}\":{:.0},",
                "\"ref_heap_events_per_sec_{n}\":{:.0},",
                "\"calendar_ns_per_event_{n}\":{:.2},",
                "\"ref_heap_ns_per_event_{n}\":{:.2},",
                "\"speedup_{n}\":{:.2},"
            ),
            cal_eps,
            ref_eps,
            cal_per_event,
            ref_per_event,
            speedup,
            n = n,
        ));
    }

    let (_, first_report) = run_engine(ENGINE_FLEETS[0])?;
    let (_, second_report) = run_engine(ENGINE_FLEETS[0])?;
    let engine_deterministic = first_report == second_report;
    let mut engine_jps = Vec::with_capacity(ENGINE_FLEETS.len());
    for &tasks in &ENGINE_FLEETS {
        let jps = engine_jobs_per_sec(tasks)?;
        eprintln!("sim_bench: engine fleet of {tasks:>6} tasks  {jps:>10.0} jobs/s");
        fields.push_str(&format!("\"engine_jobs_per_sec_{tasks}\":{jps:.0},"));
        engine_jps.push(jps);
    }
    let engine_scaling = engine_jps[2] / engine_jps[0].max(1e-9);
    eprintln!(
        "sim_bench: engine 10^4/10^2 tasks {engine_scaling:.2}  \
         deterministic={engine_deterministic}"
    );

    let summary = format!(
        concat!(
            "{{\"name\":\"sim\",\"ops\":{},{}",
            "\"engine_scaling\":{:.4},",
            "\"engine_deterministic\":{}}}"
        ),
        ops, fields, engine_scaling, engine_deterministic
    );
    std::fs::write(out, format!("{summary}\n"))?;
    println!("{summary}");
    eprintln!("sim_bench: wrote {out}");

    if !engine_deterministic {
        return Err("two identical engine runs serialized differently".into());
    }
    Ok(())
}
