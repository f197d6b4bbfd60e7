//! The benchmark must measure the program, not change it: with every
//! decorator on (timed solver, timed server, stamping sink, spans) the
//! simulation reports and plans are byte-identical to an untraced run on
//! the same seed, and every workload's inputs are a pure function of the
//! seed. Sizes are cut down so the suite runs in a debug build.

use rto_exp::{ExpOptions, TrialCtx};
use rto_obs::Obs;
use rto_perfbench::fleet::{fleet_tasks, Fleet};
use rto_perfbench::harness::{self, Args, Workload};
use rto_perfbench::layers::{self, Tracer};
use rto_perfbench::plan::{plan_system, Fig3Plan};
use rto_perfbench::sweep::{run_text, CaseStudySweep};
use rto_stats::Rng;
use serde_json::Value;

const FLEET: Fleet = Fleet {
    tasks: 40,
    horizon_s: 2,
    setups: 2,
};
const SWEEP: CaseStudySweep = CaseStudySweep {
    seeds_per_point: 1,
    horizon_s: 2,
    setups: 2,
};
const PLAN: Fig3Plan = Fig3Plan {
    systems: 1,
    tasks: 8,
    setups: 2,
};

#[test]
fn traced_fleet_report_and_plan_are_byte_identical() {
    let off = Tracer::off();
    let on = Tracer::on();
    let plain = FLEET.setup(7, 0, &off).unwrap();
    let traced = on.root("setup", || FLEET.setup(7, 0, &on)).unwrap();
    assert_eq!(
        serde_json::to_string(&plain.plan).unwrap(),
        serde_json::to_string(&traced.plan).unwrap()
    );
    let a = plain.simulate(&off).unwrap();
    let b = on.root("op", || traced.simulate(&on)).unwrap();
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap()
    );

    // The decorators did record: the DP solve, and the run split into
    // loop and report with the server inside the loop.
    let spans = on.spans();
    let find = |name: &str| spans.iter().find(|s| s.name == name).unwrap();
    assert!(find("mckp.dp.solve").dur() > 0);
    let (run, lp, report) = (
        find("sim.system.run"),
        find("sim.system.loop"),
        find("sim.system.report"),
    );
    assert_eq!(lp.start_ns, run.start_ns);
    assert_eq!(lp.end_ns, report.start_ns);
    assert_eq!(report.end_ns, run.end_ns);
    assert!(find("server.gpu.submit").dur() <= lp.dur());
    assert!(on.values("obs.records")[0] > 0.0);
}

#[test]
fn traced_sweep_trials_and_shard_are_byte_identical() {
    let off = Tracer::off();
    let on = Tracer::on();
    let input = SWEEP.setup(3, 0, &off).unwrap();
    let a = input.sweep(&off, &ExpOptions::default());
    let b = on.root("op", || input.sweep(&on, &ExpOptions::default()));
    assert_eq!(run_text(&a), run_text(&b));
    assert!(!a.shard.is_empty());

    let ctx = TrialCtx {
        point: 12,
        trial: 0,
        seed: 99,
    };
    let plain = input.simulate(&ctx, &Obs::disabled(), &off).unwrap();
    let traced = input.simulate(&ctx, &Obs::disabled(), &on).unwrap();
    assert_eq!(
        serde_json::to_string(&plain).unwrap(),
        serde_json::to_string(&traced).unwrap()
    );
    // Every trial of the traced matrix is a child of the matrix span.
    let spans = on.spans();
    let trials = spans
        .iter()
        .filter(|s| s.name == "exp.engine.trial")
        .count();
    assert_eq!(trials, a.stats.trials_total);
}

#[test]
fn traced_plans_are_byte_identical() {
    let off = Tracer::off();
    let on = Tracer::on();
    let systems = PLAN.setup(5, 0, &off).unwrap();
    let a = plan_system(&off, &systems[0]).unwrap();
    let b = on.root("op", || plan_system(&on, &systems[0])).unwrap();
    assert_eq!(a.text(), b.text());
    assert_eq!(
        a.plans.len(),
        19,
        "perfect plan + DP and HEU-OE at 9 ratios"
    );
    let spans = on.spans();
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
    assert_eq!(count("mckp.dp.solve"), 10);
    assert_eq!(count("mckp.heu.solve"), 9);
    assert_eq!(count("core.odm.decide"), 19);
}

fn inputs<W: Workload>(w: &W, seed: u64, k: usize) -> String
where
    W::Input: std::fmt::Debug,
{
    format!("{:?}", w.setup(seed, k, &Tracer::off()).unwrap())
}

#[test]
fn generators_are_deterministic_per_seed() {
    let draw = |seed| fleet_tasks(20, &mut Rng::seed_from(seed)).unwrap();
    assert_eq!(draw(1), draw(1));
    assert_ne!(draw(1), draw(2));

    assert_eq!(inputs(&FLEET, 4, 0), inputs(&FLEET, 4, 0));
    assert_ne!(inputs(&FLEET, 4, 0), inputs(&FLEET, 5, 0));
    assert_ne!(
        inputs(&FLEET, 4, 0),
        inputs(&FLEET, 4, 1),
        "set-ups are fresh"
    );
    assert_eq!(inputs(&SWEEP, 4, 0), inputs(&SWEEP, 4, 0));
    assert_ne!(inputs(&SWEEP, 4, 0), inputs(&SWEEP, 5, 0));
    assert_ne!(
        inputs(&SWEEP, 4, 0),
        inputs(&SWEEP, 4, 1),
        "set-ups are fresh"
    );
    assert_eq!(inputs(&PLAN, 4, 0), inputs(&PLAN, 4, 0));
    assert_ne!(inputs(&PLAN, 4, 0), inputs(&PLAN, 5, 0));
    assert_ne!(
        inputs(&PLAN, 4, 0),
        inputs(&PLAN, 4, 1),
        "set-ups are fresh"
    );
}

/// The names and units a run prints are the ones `BENCHMARK.json`
/// declares, in both modes, and a short run passes its own checks.
#[test]
fn runs_report_the_declared_metrics() {
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")).unwrap();
    let bench: Value = serde_json::from_str(&manifest).unwrap();
    let declared = |kind: &str| -> Vec<(String, String)> {
        let Some(Value::Array(metrics)) = bench.get(kind) else {
            panic!("BENCHMARK.json has no {kind} list");
        };
        let text = |m: &Value, key: &str| match m.get(key) {
            Some(Value::Str(s)) => s.clone(),
            _ => panic!("a {kind} metric has no {key}"),
        };
        metrics
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit")))
            .collect()
    };
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-metrics-test");
    for (trace, kind) in [(false, "end_to_end"), (true, "per_layer")] {
        let args = Args {
            workload: "casestudy-sweep".into(),
            seed: 1,
            seconds: 0.01,
            trace,
            out_dir: dir.clone(),
        };
        let out = harness::run(&SWEEP, &args).unwrap();
        assert!(out.correct && out.failed == 0 && out.attempted > 0);
        let printed: Vec<(String, String)> = out
            .metrics
            .iter()
            .map(|m| (m.name.to_owned(), m.unit.to_owned()))
            .collect();
        assert_eq!(printed, declared(kind));
    }
    let _ = std::fs::remove_dir_all(&dir);
    // Self times never exceed durations, and the op root holds the rest.
    let on = Tracer::on();
    let input = SWEEP.setup(1, 0, &on).unwrap();
    on.root("op", || input.sweep(&on, &ExpOptions::default()));
    let spans = on.spans();
    let (by_name, total) = layers::attribution(&spans);
    assert_eq!(by_name.values().map(|r| r.self_ns).sum::<u64>(), total);
    // The records the server emits are counted inside its submit span,
    // the engine's in its loop and report spans, and together they are
    // every record the stamping sink saw.
    let records = |name: &str| by_name.get(name).map_or(0, |r| r.records);
    assert!(records("server.gpu.submit") > 0);
    assert!(records("sim.system.loop") > 0);
    assert!(records("sim.system.report") > 0);
    let seen: f64 = on.values("obs.records").iter().sum();
    assert_eq!(
        by_name.values().map(|r| r.records).sum::<u64>() as f64,
        seen
    );
}
