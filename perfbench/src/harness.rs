//! The measurement loop every workload shares.
//!
//! A run sets up once, drops one warm-up op, then runs ops in rounds
//! over the workload's input pool until `--seconds` have passed and every
//! pool input has at least [`MIN_SAMPLES`] timings; further set-ups on
//! fresh inputs are spread over that loop. Host speed drifts by tens of
//! percent on small VMs, so throughput is taken from each pool input's
//! 10th-percentile op time ([`TIME_QUANTILE`]) rather than from total
//! work over total time, and `setup_s` is the 10th percentile of the
//! set-ups. Output checks run outside the timed region; a failed check
//! fails its op.
//!
//! With tracing on, the loop alternates an untraced and a traced op, so
//! the per-layer numbers come from traced ops and the tracing overhead is
//! the gap between the two.

use crate::layers::{self, LayerTotal, Span, Tracer};
use crate::{alloc, median, noise, quantile};
use rto_core::odm::{OdmTask, OffloadingPlan};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Timings each pool input needs before a run may end.
pub const MIN_SAMPLES: usize = 3;

/// The quantile of a run's op times that `work_per_s` divides by, and of
/// its set-up times that `setup_s` reports. Host noise only ever slows
/// work down, and on a 2-vCPU VM the same code ran in a fast and a
/// ~1.8x slower mode within one run, switching over seconds. Across
/// ten 30 s runs per workload, the quartile spread of `work_per_s` was
/// 16.7 % / 5.0 % (`casestudy-sweep` / `fleet-1k`) from the median op
/// time, 5.9 % / 7.2 % from the lower quartile and 2.5 % / 4.8 % from
/// p10; the median of 31 `fig3-plan` set-ups read 79 µs in one run and
/// 139 µs in the next, as the two modes' shares changed.
pub const TIME_QUANTILE: f64 = 0.1;

/// Roots (set-ups and ops) whose spans are written to the span file.
const SPAN_FILE_ROOTS: u32 = 12;

/// Traced ops per run; spans of more would only cost memory.
const MAX_TRACED_OPS: usize = 200;

/// What the harness learns from checking one op's output.
#[derive(Debug, Default)]
pub struct Checked {
    /// Work units the op completed (jobs, trials or plans).
    pub work: f64,
    /// Realized benefit of the output, if it has one.
    pub benefit: Option<f64>,
    /// Failed checks; empty when the output is correct.
    pub failures: Vec<String>,
}

/// One benchmark workload.
pub trait Workload {
    /// What a set-up produces and every op reads.
    type Input;
    /// What one op produces.
    type Output;

    /// Set-ups per run, each on fresh inputs.
    fn setups(&self) -> usize;
    /// The `k`-th set-up of the run seeded `seed`. Set-up 0's output
    /// feeds the ops.
    ///
    /// # Errors
    ///
    /// A library error, as text.
    fn setup(&self, seed: u64, k: usize, tr: &Tracer) -> Result<Self::Input, String>;
    /// Checks on a set-up's output.
    fn check_setup(&self, input: &Self::Input) -> Vec<String>;
    /// How many distinct op inputs the set-up holds.
    fn pool(&self, input: &Self::Input) -> usize;
    /// Op `i` of the pool.
    ///
    /// # Errors
    ///
    /// A library error, as text.
    fn op(&self, input: &Self::Input, i: usize, tr: &Tracer) -> Result<Self::Output, String>;
    /// Checks the output of op `i`.
    fn check(&self, input: &Self::Input, i: usize, out: &Self::Output) -> Checked;
    /// The output's bytes, which an identical op must reproduce.
    fn output_text(&self, out: &Self::Output) -> String;
    /// Audits too slow to run on every op.
    fn audit(&self, input: &Self::Input) -> Vec<String>;
    /// Traced-run measurements taken outside the op loop.
    ///
    /// # Errors
    ///
    /// A library error, as text.
    fn extra_layers(&self, _input: &Self::Input, _tr: &Tracer, _dir: &Path) -> Result<(), String> {
        Ok(())
    }
}

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed loop.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Where the span file goes.
    pub out_dir: PathBuf,
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A finished run.
#[derive(Debug)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Set-ups, ops and audits attempted.
    pub attempted: u64,
    /// Those that failed.
    pub failed: u64,
    /// End-to-end or per-layer metrics.
    pub metrics: Vec<Metric>,
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn unit(&mut self, what: &str, failures: &[String]) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            println!("FAILED {what}: {}", failures.join("; "));
        }
    }

    fn op<W: Workload>(
        &mut self,
        w: &W,
        input: &W::Input,
        i: usize,
        what: &str,
        out: &Result<W::Output, String>,
    ) -> Checked {
        let checked = match out {
            Ok(o) => w.check(input, i, o),
            Err(e) => Checked {
                failures: vec![e.clone()],
                ..Checked::default()
            },
        };
        self.unit(what, &checked.failures);
        checked
    }
}

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// Length and FNV-1a hash of an output's bytes: what the determinism
/// checks compare, without keeping a large output alive.
fn fingerprint(text: &str) -> (usize, u64) {
    (text.len(), rto_exp::fnv64(text.as_bytes()))
}

/// Plan checks every workload shares: density within the Theorem-3
/// budget and one decision per task, in task order.
pub fn check_plan(tasks: &[OdmTask], plan: &OffloadingPlan) -> Vec<String> {
    let mut failures = Vec::new();
    let density: f64 = plan.decisions().iter().map(|d| d.density).sum();
    if !(plan.total_density() <= 1.0 && density <= 1.0 + 1e-9) {
        failures.push(format!(
            "plan density {} (sum of entries {density}) exceeds 1",
            plan.total_density()
        ));
    }
    let covers = plan.decisions().len() == tasks.len()
        && plan
            .decisions()
            .iter()
            .zip(tasks)
            .all(|(d, t)| d.task_id == t.task().id());
    if !covers {
        failures.push("plan does not cover every task in order".to_owned());
    }
    failures
}

/// Runs workload `w` as `args` asks.
///
/// # Errors
///
/// A set-up that fails outright: there is nothing to measure.
pub fn run<W: Workload>(w: &W, args: &Args) -> Result<Outcome, String> {
    let tr = if args.trace {
        Tracer::on()
    } else {
        Tracer::off()
    };
    let off = Tracer::off();
    let mut tally = Tally::default();
    let run_start = Instant::now();

    // Set-up 0 feeds the ops; the others are spread evenly over the timed
    // loop, so `setup_s` samples the same host conditions as the ops
    // rather than the first milliseconds of the process, whose speed
    // differed by up to 2x between runs on a 2-vCPU VM.
    let mut setup_ns = Vec::new();
    let mut setup_mb = Vec::new();
    let mut set_up = |k: usize, tally: &mut Tally| -> Result<W::Input, String> {
        let live = alloc::reset_peak();
        let start = Instant::now();
        let made = tr.root("setup", || w.setup(args.seed, k, &tr));
        setup_ns.push(ns(start.elapsed()));
        setup_mb.push(alloc::mb(alloc::peak_bytes().saturating_sub(live)));
        let made = made.map_err(|e| format!("set-up {k}: {e}"))?;
        tally.unit(&format!("set-up {k}"), &w.check_setup(&made));
        Ok(made)
    };
    let input = set_up(0, &mut tally)?;
    let setups = w.setups().max(1);
    let mut next_setup = 1;
    let pool = w.pool(&input).max(1);
    let mut phases = vec![("set-up 0", run_start.elapsed())];

    let warm = w.op(&input, 0, &off);
    tally.op(w, &input, 0, "warm-up op", &warm);
    drop(warm);

    let host0 = noise::sample();
    let mut per_input: Vec<Vec<f64>> = vec![Vec::new(); pool];
    let mut in_order = Vec::new();
    let mut traced = Vec::new();
    let mut work = vec![0.0; pool];
    let mut benefit = vec![None; pool];
    let mut timed_print = None;
    let mut traced_print = None;
    let mut peak_heap = 0;
    let loop_start = Instant::now();
    let deadline = loop_start + Duration::from_secs_f64(args.seconds);
    for i in 0.. {
        let idx = i % pool;
        if idx == 0 {
            let done = loop_start.elapsed().as_secs_f64() / args.seconds;
            while next_setup < setups && done * setups as f64 >= next_setup as f64 {
                drop(set_up(next_setup, &mut tally)?);
                next_setup += 1;
            }
            if Instant::now() >= deadline && per_input.iter().all(|t| t.len() >= MIN_SAMPLES) {
                break;
            }
        }
        alloc::reset_peak();
        let start = Instant::now();
        let out = w.op(&input, idx, &off);
        let t = ns(start.elapsed());
        // The op's peak live heap, less the harness's op-time records:
        // they are live too, and grow with the number of ops a run fits.
        let records = per_input.iter().map(Vec::capacity).sum::<usize>()
            + in_order.capacity()
            + traced.capacity();
        peak_heap =
            peak_heap.max(alloc::peak_bytes().saturating_sub(records * std::mem::size_of::<f64>()));
        per_input[idx].push(t);
        in_order.push(t);
        let checked = tally.op(w, &input, idx, &format!("op {i}"), &out);
        work[idx] = checked.work;
        benefit[idx] = checked.benefit;
        if idx == 0 && timed_print.is_none() {
            timed_print = out.as_ref().ok().map(|o| fingerprint(&w.output_text(o)));
        }
        drop(out);

        if args.trace && traced.len() < MAX_TRACED_OPS {
            let start = Instant::now();
            let out = tr.root("op", || w.op(&input, idx, &tr));
            traced.push(ns(start.elapsed()));
            tally.op(w, &input, idx, &format!("traced op {i}"), &out);
            if idx == 0 && traced_print.is_none() {
                traced_print = out.as_ref().ok().map(|o| fingerprint(&w.output_text(o)));
            }
        }
    }
    let peak_heap_mb = alloc::mb(peak_heap);
    let host1 = noise::sample();
    while next_setup < setups {
        drop(set_up(next_setup, &mut tally)?);
        next_setup += 1;
    }
    phases.push(("ops and set-ups", run_start.elapsed()));

    // Determinism: an untimed re-run must reproduce the timed op's bytes,
    // and so must a traced op.
    let rerun = w.op(&input, 0, &off);
    let mut failures = Vec::new();
    match (&rerun, timed_print) {
        (Ok(o), Some(print)) if fingerprint(&w.output_text(o)) != print => {
            failures.push("re-run output differs from the timed op's".to_owned());
        }
        (Err(e), _) => failures.push(e.clone()),
        (_, None) => failures.push("no timed op output to compare".to_owned()),
        _ => {}
    }
    if args.trace && traced_print != timed_print {
        failures.push("traced op output differs from the untraced op's".to_owned());
    }
    tally.unit("re-run", &failures);
    drop(rerun);
    phases.push(("re-run", run_start.elapsed()));
    tally.unit("audit", &w.audit(&input));
    phases.push(("audit", run_start.elapsed()));

    for (i, t) in per_input.iter().enumerate() {
        let q = |p| quantile(t, p) / 1e6;
        println!(
            "op input {i}: work={} op_ms p10={:.4} p25={:.4} p50={:.4} samples={}",
            work[i],
            q(0.1),
            q(0.25),
            q(0.5),
            t.len()
        );
    }
    println!("{}", noise::describe(host0, host1, &in_order));
    let mut last = Duration::ZERO;
    let walls: Vec<String> = phases
        .into_iter()
        .map(|(phase, at)| {
            let wall = format!("{phase} {:.2} s", (at - last).as_secs_f64());
            last = at;
            wall
        })
        .collect();
    println!("wall: {}", walls.join(", "));

    let metrics = if args.trace {
        w.extra_layers(&input, &tr, &args.out_dir)?;
        let spans = tr.spans();
        // Compare the traced ops with the untraced ops they alternated
        // with, on the same inputs, not with the whole run's.
        let traced_ns = quantile(&traced, TIME_QUANTILE);
        let untraced_ns = quantile(&in_order[..traced.len()], TIME_QUANTILE);
        let overhead = 100.0 * (traced_ns / untraced_ns - 1.0);
        print_attribution(&spans, traced_ns, untraced_ns);
        let path = args
            .out_dir
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match layers::write_spans(&path, &spans, SPAN_FILE_ROOTS) {
            Ok(()) => println!("spans: {}", path.display()),
            Err(e) => println!("spans: not written ({e})"),
        }
        per_layer(&tr, &spans, overhead)
    } else {
        let total_op_ns: f64 = per_input.iter().map(|t| quantile(t, TIME_QUANTILE)).sum();
        let benefits: Vec<f64> = benefit.iter().flatten().copied().collect();
        vec![
            Metric {
                name: "work_per_s",
                value: work.iter().sum::<f64>() / (total_op_ns / 1e9),
                unit: "work/s",
            },
            Metric {
                name: "setup_s",
                value: quantile(&setup_ns, TIME_QUANTILE) / 1e9,
                unit: "s",
            },
            Metric {
                name: "setup_peak_mb",
                value: median(&setup_mb),
                unit: "MB",
            },
            Metric {
                name: "peak_heap_mb",
                value: peak_heap_mb,
                unit: "MB",
            },
            Metric {
                name: "benefit",
                value: benefits.iter().sum::<f64>() / benefits.len().max(1) as f64,
                unit: "ratio",
            },
            Metric {
                name: "success_rate",
                value: 1.0 - tally.failed as f64 / tally.attempted.max(1) as f64,
                unit: "ratio",
            },
        ]
    };
    println!(
        "error_rate = {} ({} failed of {} attempted)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    Ok(Outcome {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}

/// Prints each layer's self time per traced op and its share of op time,
/// on two bases. `traced` is as measured. The stamping sink turns on
/// every engine and server trace record, which an untraced op never
/// builds, so the tracing cost lands in the layers that emit records.
/// `untraced` charges each record the run's measured cost, (traced −
/// untraced 10th-percentile op time) ÷ records per op, and removes it
/// from the layer that emitted it. The remaining tracing cost (spans,
/// server timers) is small and stays where it lands.
fn print_attribution(spans: &[Span], traced_ns: f64, untraced_ns: f64) {
    let (by_name, total) = layers::attribution(spans);
    let ops = spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name == "op")
        .count()
        .max(1) as f64;
    let records_per_op = by_name.values().map(|r| r.records).sum::<u64>() as f64 / ops;
    let per_record_ns = if records_per_op > 0.0 {
        (traced_ns - untraced_ns).max(0.0) / records_per_op
    } else {
        0.0
    };
    let untraced = |r: &LayerTotal| (r.self_ns as f64 - per_record_ns * r.records as f64).max(0.0);
    let untraced_total: f64 = by_name.values().map(untraced).sum();
    println!(
        "attribution over {ops} traced ops, self time per op: traced | untraced \
         ({records_per_op:.1} records per op at {per_record_ns:.1} ns each removed)"
    );
    for (name, row) in &by_name {
        let label = if *name == "op" {
            "unattributed (op self)"
        } else {
            name
        };
        println!(
            "  {label:<28} {:>12.4} ms {:>7.2} % | {:>12.4} ms {:>7.2} %",
            row.self_ns as f64 / ops / 1e6,
            100.0 * row.self_ns as f64 / total.max(1) as f64,
            untraced(row) / ops / 1e6,
            100.0 * untraced(row) / untraced_total.max(1.0)
        );
    }
    println!(
        "  {:<28} {:>12.4} ms {:>9} | {:>12.4} ms  against an untraced p10 op of {:.4} ms",
        "total",
        total as f64 / ops / 1e6,
        "",
        untraced_total / ops / 1e6,
        untraced_ns / 1e6
    );
}

fn per_layer(tr: &Tracer, spans: &[Span], overhead_pct: f64) -> Vec<Metric> {
    let dur = |name: &str, scale: f64| median(&layers::times(spans, name, false)) / scale;
    let val = |name: &str| median(&tr.values(name));
    let selfs = layers::self_times(spans);
    let unattributed: Vec<f64> = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.parent.is_none() && s.name == "op")
        .map(|(s, &st)| 100.0 * st as f64 / s.dur().max(1) as f64)
        .collect();
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("mckp.dp.solve_ms", dur("mckp.dp.solve", 1e6), "ms"),
        m("mckp.dp.peak_mb", val("mckp.dp.peak_mb"), "MB"),
        m("mckp.heu.solve_us", dur("mckp.heu.solve", 1e3), "us"),
        m(
            "core.odm.decide_ms",
            median(&layers::times(spans, "core.odm.decide", true)) / 1e6,
            "ms",
        ),
        m("sim.system.loop_ms", dur("sim.system.loop", 1e6), "ms"),
        m(
            "sim.system.loop_ns_per_job",
            val("sim.loop_ns_per_job"),
            "ns/job",
        ),
        m("sim.system.events", val("sim.events"), "count"),
        m("sim.system.report_ms", dur("sim.system.report", 1e6), "ms"),
        m("sim.system.history_mb", val("sim.history_mb"), "MB"),
        m(
            "sim.system.allocs_per_job",
            val("sim.allocs_per_job"),
            "allocs/job",
        ),
        m(
            "sim.system.ready_depth_mean",
            val("sim.ready_depth_mean"),
            "count",
        ),
        m("sim.system.build_us", dur("sim.system.build", 1e3), "us"),
        m("server.gpu.submit_ns", val("server.submit_ns"), "ns"),
        m("server.gpu.submits", val("server.submits"), "count"),
        m("server.gpu.lost_share", val("server.lost_share"), "ratio"),
        m(
            "exp.engine.overhead_us",
            median(&layers::self_per_child(spans, "exp.engine.matrix")) / 1e3,
            "us",
        ),
        m(
            "exp.engine.allocs_per_trial",
            val("exp.allocs_per_trial"),
            "allocs/trial",
        ),
        m("exp.cache.store_us", val("exp.cache.store_us"), "us"),
        m("exp.cache.load_us", val("exp.cache.load_us"), "us"),
        m("obs.sink.records", val("obs.records"), "count"),
        m("obs.trace_overhead_pct", overhead_pct, "%"),
        m("bench.op.unattributed_pct", median(&unattributed), "%"),
    ]
}

/// Prints the run's result as the last line of standard output.
pub fn print_result(out: &Outcome) {
    let mut correct = out.correct;
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                m.value
            } else {
                correct = false;
                0.0
            };
            println!("{} = {} {}", m.name, value, m.unit);
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
}
