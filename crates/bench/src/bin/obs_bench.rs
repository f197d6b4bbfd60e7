//! Observability overhead: measures what one trace event costs on each
//! hot path.
//!
//! Four measurements, each over the same event mix the simulator emits
//! (release, dispatch, offload round-trip, verdict), all spanned:
//!
//! * `baseline_ns_per_event` — constructing the records with no sink at
//!   all (the floor everything else is compared against);
//! * `disabled_ns_per_event` — `Obs::emit_in` through a [`NullSink`]
//!   plus one counter bump and one histogram sample per event (the path
//!   every un-instrumented run pays);
//! * `memory_ns_per_event` — a [`MemorySink`] recording every event
//!   (the enabled in-process cost);
//! * `jsonl_ns_per_event` — a [`JsonlSink`] streaming to a buffered
//!   temp file (the enabled at-rest cost).
//!
//! Writes a `BENCH_obs.json` summary; `scripts/bench_trend` holds
//! `disabled_ns_per_event` to its bound in `bench.budget.toml`, against
//! `results/BENCH_obs_baseline.json`. That the disabled path allocates
//! nothing is a test: `crates/bench/tests/alloc_budget.rs`.
//!
//! Usage: `cargo run --release -p rto-bench --bin obs_bench
//! [--events N] [--out PATH]`

use rto_bench::hot_path::event_mix;
use rto_bench::opts::OBS_BENCH;
use rto_obs::{span, JsonlSink, MemorySink, NullSink, Obs, Record, Stopwatch};
use std::hint::black_box;
use std::sync::Arc;

/// Runs `rounds` iterations of the event mix against `obs`, returning
/// mean ns per event. Each event goes through `emit_in` with a real
/// span context — exactly what the instrumented simulator does.
fn time_emits(obs: &Obs, rounds: u64) -> f64 {
    let counter = obs.metrics().counter("bench_events_total");
    let histogram = obs.metrics().histogram("bench_latency_ns");
    let sw = Stopwatch::start();
    for round in 0..rounds {
        let job_id = (round % 1024) as usize;
        let ctx = span::job_ctx(job_id);
        for event in event_mix(job_id) {
            obs.emit_in(black_box(round), black_box(ctx), black_box(event));
        }
        counter.inc();
        histogram.record(round * 1_000);
    }
    rto_core::time::Duration::from_ns(sw.elapsed_ns()).as_ns_f64() / (rounds * 6) as f64
}

/// The no-sink floor: construct the same records and black-box them.
fn time_baseline(rounds: u64) -> f64 {
    let sw = Stopwatch::start();
    for round in 0..rounds {
        let job_id = (round % 1024) as usize;
        let ctx = span::job_ctx(job_id);
        for event in event_mix(job_id) {
            black_box(Record::spanned(round, ctx, event));
        }
    }
    rto_core::time::Duration::from_ns(sw.elapsed_ns()).as_ns_f64() / (rounds * 6) as f64
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = OBS_BENCH.parse(std::env::args().skip(1))?;
    let rounds: u64 = args
        .parsed("--events")?
        .map_or(200_000, |n: u64| n / 6)
        .max(1);
    let out = args.value("--out").unwrap_or("BENCH_obs.json");

    // Warm up the allocator and code paths once.
    let warmup = Obs::disabled();
    time_emits(&warmup, 1_000);

    let baseline_ns = time_baseline(rounds);

    // Disabled path, timed.
    let disabled = Obs::with_sink(Arc::new(NullSink));
    let disabled_ns = time_emits(&disabled, rounds);

    // Enabled in-process sink.
    let memory = Obs::with_sink(Arc::new(MemorySink::new()));
    let memory_ns = time_emits(&memory, rounds.min(100_000));

    // Enabled at-rest sink (buffered temp file).
    let jsonl_path =
        std::env::temp_dir().join(format!("rto-obs-bench-{}.jsonl", std::process::id()));
    let jsonl = Obs::with_sink(Arc::new(JsonlSink::create(&jsonl_path)?));
    let jsonl_ns = time_emits(&jsonl, rounds.min(100_000));
    let _ = std::fs::remove_file(&jsonl_path);

    let events = rounds * 6;
    let summary = format!(
        concat!(
            "{{\"name\":\"obs\",\"events\":{},",
            "\"baseline_ns_per_event\":{:.2},",
            "\"disabled_ns_per_event\":{:.2},",
            "\"memory_ns_per_event\":{:.2},",
            "\"jsonl_ns_per_event\":{:.2}}}"
        ),
        events, baseline_ns, disabled_ns, memory_ns, jsonl_ns
    );
    std::fs::write(out, format!("{summary}\n"))?;
    println!("{summary}");
    eprintln!(
        "obs_bench: disabled {disabled_ns:.1} ns/event (floor {baseline_ns:.1}), \
         memory {memory_ns:.1}, jsonl {jsonl_ns:.1}, wrote {out}"
    );
    Ok(())
}
