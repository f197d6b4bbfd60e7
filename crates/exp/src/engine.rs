//! The experiment engine: matrix in, index-ordered results out.
//!
//! [`run_matrix`] flattens a `(point, trial)` matrix into a single
//! index range, fans the trials out over the [`crate::pool`] worker
//! pool, derives each trial's RNG seed with [`crate::seed::derive_seed`]
//! (a pure function of the indices), and optionally consults the
//! [`crate::cache`] before simulating. The combination is the engine's
//! **determinism contract**:
//!
//! > For a pure trial function, the returned results are bit-identical
//! > for every `jobs` value (including 1) and for warm vs. cold cache.
//!
//! Observability: every finished trial increments
//! `exp_trials_completed_total` (the progress counter), feeds the
//! `exp_trial_duration_ns` histogram, bumps `exp_trials_cached_total`
//! when served from cache, and emits a
//! [`TraceEvent::TrialDone`] — all from the collector thread, so sinks
//! and registries see a single writer per run.

use std::path::PathBuf;

use rto_obs::{MetricsShard, Obs, Stopwatch, TraceEvent};

use crate::cache::{TrialCache, TrialData};
use crate::pool::run_indexed;
use crate::seed::derive_seed;

/// Describes one experiment matrix: `point_keys.len()` points times
/// `trials_per_point` trials.
#[derive(Debug, Clone)]
pub struct MatrixSpec {
    /// Human-readable matrix name; also the cache subdirectory.
    pub name: String,
    /// Content fingerprint of everything that shapes a trial *besides*
    /// the per-point key — horizon, scenario constants, code revision
    /// of the trial logic. Part of every cache key, so bump it when
    /// the trial function changes meaning.
    pub fingerprint: String,
    /// Base seed the per-trial streams are derived from.
    pub base_seed: u64,
    /// One content key per matrix point (e.g. `"util=0.300000"`).
    /// Cache keys embed the *key text*, not the index, so inserting a
    /// point invalidates nothing else.
    pub point_keys: Vec<String>,
    /// Trials (seeds) per point.
    pub trials_per_point: usize,
}

/// Engine knobs.
#[derive(Debug, Clone)]
pub struct ExpOptions {
    /// Worker threads; `0` means one per available core, `1` runs
    /// inline. Results do not depend on this value.
    pub jobs: usize,
    /// Cache root directory (conventionally [`default_cache_root`]);
    /// `None` disables caching.
    pub cache_root: Option<PathBuf>,
    /// Observability context for progress/duration metrics and
    /// `TrialDone` events.
    pub obs: Obs,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions {
            jobs: 1,
            cache_root: None,
            obs: Obs::disabled(),
        }
    }
}

/// The conventional cache root, `target/rto-exp`.
#[must_use]
pub fn default_cache_root() -> PathBuf {
    PathBuf::from("target").join("rto-exp")
}

/// Everything a trial function gets to see: its coordinates and its
/// private seed. Trials must draw **all** randomness from `seed` and
/// read nothing mutable that other trials write.
#[derive(Debug, Clone, Copy)]
pub struct TrialCtx {
    /// Point index (row of the matrix).
    pub point: usize,
    /// Trial index within the point.
    pub trial: usize,
    /// Derived seed, `derive_seed(base_seed, point, trial)` — a pure
    /// function of the coordinates, never of execution order.
    pub seed: u64,
}

/// Tallies for one [`run_matrix`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunStats {
    /// Total trials in the matrix.
    pub trials_total: usize,
    /// Trials actually simulated this run.
    pub trials_simulated: usize,
    /// Trials served from the cache.
    pub trials_cached: usize,
    /// Wall-clock time for the whole matrix, nanoseconds.
    pub wall_ns: u64,
}

/// A completed matrix: `points[p][t]` is trial `t` of point `p`.
#[derive(Debug, Clone)]
pub struct MatrixRun<R> {
    /// Results grouped by point, trials in index order.
    pub points: Vec<Vec<R>>,
    /// Run tallies.
    pub stats: RunStats,
    /// The merge of every simulated trial's private metrics shard (see
    /// [`run_matrix_observed`]). Because [`MetricsShard::merge`] is a
    /// commutative monoid, this value — and its canonical JSON — is
    /// independent of worker count and completion order. Empty for
    /// [`run_matrix`] and for fully cached runs (cache hits re-run no
    /// metrics).
    pub shard: MetricsShard,
}

/// What a worker hands the collector for one trial.
struct TrialOutcome<R> {
    value: R,
    cached: bool,
    elapsed_ns: u64,
}

/// The cache key for one trial — covers everything that determines the
/// trial's result, and nothing shared across trials except the matrix
/// identity, so editing one point leaves every other point's entries
/// valid.
fn trial_key(spec: &MatrixSpec, point: usize, trial: usize, seed: u64) -> String {
    let point_key = spec.point_keys.get(point).map_or("", String::as_str);
    format!(
        "{}\u{1f}{}\u{1f}{}\u{1f}{}\u{1f}{}\u{1f}{:016x}",
        spec.name, spec.fingerprint, spec.base_seed, point_key, trial, seed
    )
}

/// Runs the whole matrix and returns results in `(point, trial)` index
/// order, regardless of `opts.jobs` or cache state.
///
/// `f` must be a pure function of its [`TrialCtx`] (all randomness from
/// `ctx.seed`); that purity is what turns the pool's index-ordered
/// collection into full bit-reproducibility. Cache I/O failures are
/// soft: a failed open disables the cache, a failed store costs a
/// future re-simulation, a failed load is a miss.
pub fn run_matrix<R, F>(spec: &MatrixSpec, opts: &ExpOptions, f: F) -> MatrixRun<R>
where
    R: TrialData + Send,
    F: Fn(&TrialCtx) -> R + Sync,
{
    run_matrix_observed(spec, opts, |ctx, _| f(ctx))
}

/// Like [`run_matrix`], but hands each trial a **private** [`Obs`]
/// (null sink, empty registry) alongside its [`TrialCtx`]. Each worker
/// keeps one such `Obs` and one [`MetricsShard`]. After each simulated
/// trial it folds the registry into the shard with
/// [`MetricsRegistry::merge_into`](rto_obs::MetricsRegistry::merge_into)
/// and then [`clear`](rto_obs::MetricsRegistry::clear)s it, so per-trial
/// metrics never cross the channel and finished trials keep none. The
/// workers' shards are merged into [`MatrixRun::shard`] when the matrix
/// ends.
///
/// Per-trial registries are what keep the determinism contract intact
/// under instrumentation. Every trial starts from an empty registry, and
/// only storage is shared between a worker's trials: a cleared registry
/// answers exactly as a new one, and a metric handle a trial still holds
/// is never handed to the next. So no two trials ever share a counter,
/// and the merged shard is a set-union of per-trial monoid elements that
/// cannot observe scheduling (nor which worker ran which trial). Cache
/// hits contribute the empty shard (identity) and leave the registry
/// alone. The `Obs` is the trial's for the trial only: a clone of it
/// kept past the trial would see the worker's next trials.
pub fn run_matrix_observed<R, F>(spec: &MatrixSpec, opts: &ExpOptions, f: F) -> MatrixRun<R>
where
    R: TrialData + Send,
    F: Fn(&TrialCtx, &Obs) -> R + Sync,
{
    let sw = Stopwatch::start();
    let npoints = spec.point_keys.len();
    let trials = spec.trials_per_point;
    let total = npoints * trials;
    if total == 0 {
        return MatrixRun {
            points: (0..npoints).map(|_| Vec::new()).collect(),
            stats: RunStats {
                trials_total: 0,
                trials_simulated: 0,
                trials_cached: 0,
                wall_ns: sw.elapsed_ns(),
            },
            shard: MetricsShard::default(),
        };
    }

    let cache = opts
        .cache_root
        .as_ref()
        .and_then(|root| TrialCache::open(root, &spec.name).ok());

    // A worker's state: its shard, and the `Obs` its trials record into.
    let run_trial = |(acc, trial_obs): &mut (MetricsShard, Obs), i: usize| -> TrialOutcome<R> {
        let point = i / trials;
        let trial = i % trials;
        let seed = derive_seed(spec.base_seed, point as u64, trial as u64);
        let trial_sw = Stopwatch::start();
        let ctx = TrialCtx { point, trial, seed };
        let key = cache
            .as_ref()
            .map(|cache| (cache, trial_key(spec, point, trial, seed)));
        if let Some((cache, key)) = &key {
            if let Some(value) = cache.load::<R>(key) {
                return TrialOutcome {
                    value,
                    cached: true,
                    elapsed_ns: trial_sw.elapsed_ns(),
                };
            }
        }
        let value = f(&ctx, trial_obs);
        if let Some((cache, key)) = &key {
            // Best effort: a failed store only means re-simulating later.
            let _ = cache.store(key, &value);
        }
        let elapsed_ns = trial_sw.elapsed_ns();
        trial_obs.metrics().merge_into(acc);
        trial_obs.metrics().clear();
        TrialOutcome {
            value,
            cached: false,
            elapsed_ns,
        }
    };

    let completed = opts.obs.metrics().counter("exp_trials_completed_total");
    let cached_total = opts.obs.metrics().counter("exp_trials_cached_total");
    let duration = opts.obs.metrics().histogram("exp_trial_duration_ns");
    let progress = opts
        .obs
        .metrics()
        .series("exp_trial_completions", 1_000_000_000);
    let mut simulated = 0usize;
    let mut from_cache = 0usize;
    let on_done = |i: usize, out: &TrialOutcome<R>| {
        completed.inc();
        duration.record(out.elapsed_ns);
        progress.record(sw.elapsed_ns(), 1);
        if out.cached {
            cached_total.inc();
            from_cache += 1;
        } else {
            simulated += 1;
        }
        opts.obs.emit(
            0,
            TraceEvent::TrialDone {
                point: i / trials,
                trial: i % trials,
                cached: out.cached,
                elapsed_ns: out.elapsed_ns,
            },
        );
    };

    let (outcomes, workers) = run_indexed(total, opts.jobs, Default::default, run_trial, on_done);
    let mut worker_shards = workers.into_iter().map(|(shard, _)| shard);
    let mut shard = worker_shards.next().unwrap_or_default();
    for other in worker_shards {
        shard.merge(&other);
    }

    let mut points: Vec<Vec<R>> = Vec::with_capacity(npoints);
    let mut it = outcomes.into_iter();
    for _ in 0..npoints {
        points.push(it.by_ref().take(trials).map(|o| o.value).collect());
    }

    MatrixRun {
        points,
        stats: RunStats {
            trials_total: total,
            trials_simulated: simulated,
            trials_cached: from_cache,
            wall_ns: sw.elapsed_ns(),
        },
        shard,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{f64_from_hex, f64_hex};
    use rto_obs::MemorySink;
    use std::sync::Arc;

    /// A trial result with a float payload, to exercise the bit-exact
    /// codec end to end.
    #[derive(Debug, Clone, PartialEq)]
    struct Row {
        hits: u64,
        ratio: f64,
    }

    impl TrialData for Row {
        fn encode(&self) -> String {
            format!("{} {}", self.hits, f64_hex(self.ratio))
        }
        fn decode(s: &str) -> Option<Self> {
            let mut parts = s.split(' ');
            let hits = parts.next()?.parse().ok()?;
            let ratio = f64_from_hex(parts.next()?)?;
            if parts.next().is_some() {
                return None;
            }
            Some(Row { hits, ratio })
        }
    }

    fn spec(name: &str) -> MatrixSpec {
        MatrixSpec {
            name: name.to_owned(),
            fingerprint: "fp-v1".to_owned(),
            base_seed: 2014,
            point_keys: (0..5).map(|p| format!("point={p}")).collect(),
            trials_per_point: 7,
        }
    }

    fn trial(ctx: &TrialCtx) -> Row {
        // Pure function of the ctx — mixes the seed so every cell is
        // distinguishable.
        Row {
            hits: ctx.seed ^ (ctx.point as u64) << 1 ^ ctx.trial as u64,
            ratio: (ctx.seed % 1000) as f64 / 1000.0,
        }
    }

    #[test]
    fn results_are_identical_for_any_job_count() {
        let baseline = run_matrix(&spec("det"), &ExpOptions::default(), trial);
        for jobs in [2, 4, 8] {
            let opts = ExpOptions {
                jobs,
                ..ExpOptions::default()
            };
            let run = run_matrix(&spec("det"), &opts, trial);
            assert_eq!(run.points, baseline.points, "jobs={jobs} diverged");
        }
        assert_eq!(baseline.stats.trials_total, 35);
        assert_eq!(baseline.stats.trials_simulated, 35);
        assert_eq!(baseline.stats.trials_cached, 0);
    }

    fn observed_trial(ctx: &TrialCtx, obs: &Obs) -> Row {
        obs.metrics().counter("trial_hits_total").add(ctx.seed % 7);
        obs.metrics()
            .histogram("trial_seed_residue")
            .record(ctx.seed % 1000);
        obs.metrics()
            .series("trial_marks", 10)
            .record((ctx.point as u64) * 100 + ctx.trial as u64, ctx.seed % 3);
        trial(ctx)
    }

    #[test]
    fn observed_shards_are_byte_identical_for_any_job_count() {
        let base = run_matrix_observed(&spec("obs-det"), &ExpOptions::default(), observed_trial);
        assert!(!base.shard.is_empty(), "trials recorded metrics");
        let json = base.shard.to_json();
        for jobs in [2, 8] {
            let opts = ExpOptions {
                jobs,
                ..ExpOptions::default()
            };
            let run = run_matrix_observed(&spec("obs-det"), &opts, observed_trial);
            assert_eq!(run.points, base.points, "jobs={jobs} results diverged");
            assert_eq!(run.shard.to_json(), json, "jobs={jobs} shard diverged");
        }
    }

    /// A worker reuses one registry for its trials, cleared in between:
    /// each trial still starts from an empty one, at any job count.
    #[test]
    fn every_trial_starts_from_an_empty_registry() {
        for jobs in [1, 2, 8] {
            let opts = ExpOptions {
                jobs,
                ..ExpOptions::default()
            };
            let run = run_matrix_observed(&spec("empty-start"), &opts, |ctx, obs| {
                let empty = obs.metrics().snapshot().is_empty() && obs.metrics().shard().is_empty();
                observed_trial(ctx, obs);
                Row {
                    hits: u64::from(empty),
                    ratio: 0.0,
                }
            });
            let trials: Vec<Row> = run.points.into_iter().flatten().collect();
            assert_eq!(trials.len(), 35);
            assert!(
                trials.iter().all(|r| r.hits == 1),
                "jobs={jobs}: {trials:?}"
            );
        }
    }

    #[test]
    fn warm_cache_simulates_nothing_and_matches_cold_output() {
        let root = std::env::temp_dir().join(format!("rto-exp-engine-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let opts = ExpOptions {
            jobs: 4,
            cache_root: Some(root.clone()),
            obs: Obs::disabled(),
        };
        let cold = run_matrix(&spec("warmth"), &opts, trial);
        assert_eq!(cold.stats.trials_simulated, 35);
        let warm = run_matrix(&spec("warmth"), &opts, trial);
        assert_eq!(warm.stats.trials_simulated, 0, "warm run re-simulated");
        assert_eq!(warm.stats.trials_cached, 35);
        assert_eq!(warm.points, cold.points);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn emits_progress_metrics_and_trial_done_events() {
        let sink = Arc::new(MemorySink::new());
        let opts = ExpOptions {
            jobs: 2,
            cache_root: None,
            obs: Obs::with_sink(sink.clone()),
        };
        let run = run_matrix(&spec("traced"), &opts, trial);
        assert_eq!(run.stats.trials_total, 35);
        let snap = opts.obs.metrics().snapshot();
        assert_eq!(snap.counter("exp_trials_completed_total"), Some(35));
        let hist = snap.histogram("exp_trial_duration_ns").expect("histogram");
        assert_eq!(hist.count, 35);
        assert_eq!(sink.len(), 35, "one TrialDone per trial");
    }

    #[test]
    fn empty_matrix_is_a_no_op() {
        let mut s = spec("empty");
        s.trials_per_point = 0;
        let run = run_matrix(&s, &ExpOptions::default(), trial);
        assert_eq!(run.points.len(), 5);
        assert!(run.points.iter().all(Vec::is_empty));
        assert_eq!(run.stats.trials_total, 0);
    }
}
