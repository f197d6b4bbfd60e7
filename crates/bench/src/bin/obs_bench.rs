//! Observability overhead budget: measures what one trace event costs
//! on each hot path and enforces the "free when off" contract.
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
//! It also counts heap allocations on the disabled path with a counting
//! `#[global_allocator]` — the budget is **zero** — and writes a
//! `BENCH_obs.json` summary. CI compares `disabled_ns_per_event`
//! against the committed baseline (`results/BENCH_obs_baseline.json`)
//! and fails on a >2x regression or any hot-path allocation.
//!
//! Usage: `cargo run --release -p rto-bench --bin obs_bench
//! [--events N] [--out PATH]`

use rto_obs::{span, JsonlSink, MemorySink, NullSink, Obs, Phase, Record, Stopwatch, TraceEvent};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Counts allocations while `COUNTING` is set; delegates to `System`.
/// Lives in the bin (not the lib) because `GlobalAlloc` needs `unsafe`
/// and the library forbids it.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

// SAFETY: delegates every operation to `System`; only adds bookkeeping.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            // Relaxed is enough: single-threaded tally read after a SeqCst fence at the end
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            // Relaxed is enough: single-threaded tally read after a SeqCst fence at the end
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The simulator's per-job event mix (all `Copy`, built on the stack).
fn event_mix(job_id: usize) -> [TraceEvent; 6] {
    [
        TraceEvent::JobReleased {
            job_id,
            task_id: 0,
            deadline_ns: 250_000_000,
        },
        TraceEvent::SubJobDispatched {
            job_id,
            task_id: 0,
            phase: Phase::Setup,
        },
        TraceEvent::OffloadRequestSent {
            job_id,
            task_id: 0,
            payload_bytes: 65_536,
        },
        TraceEvent::ServerResponseArrived {
            job_id,
            task_id: 0,
            late: false,
        },
        TraceEvent::SubJobCompleted {
            job_id,
            task_id: 0,
            phase: Phase::PostProcess,
        },
        TraceEvent::DeadlineMet { job_id, task_id: 0 },
    ]
}

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

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rounds: u64 = flag_value(&args, "--events")
        .map(str::parse)
        .transpose()?
        .map_or(200_000, |n: u64| n / 6)
        .max(1);
    let out = flag_value(&args, "--out").unwrap_or("BENCH_obs.json");

    // Warm up the allocator and code paths once.
    let warmup = Obs::disabled();
    time_emits(&warmup, 1_000);

    let baseline_ns = time_baseline(rounds);

    // Disabled path, timed.
    let disabled = Obs::with_sink(Arc::new(NullSink));
    let disabled_ns = time_emits(&disabled, rounds);

    // Disabled path, allocation-counted (separate pass so the counting
    // flag itself is outside the timed region).
    let counted = Obs::with_sink(Arc::new(NullSink));
    // Handles are created before counting starts (registration allocates).
    let counter = counted.metrics().counter("bench_events_total");
    let histogram = counted.metrics().histogram("bench_latency_ns");
    // analyze: allow(A5): SeqCst fences bound the counted region around the allocator's relaxed tallies
    ALLOCATIONS.store(0, Ordering::SeqCst);
    // analyze: allow(A5): SeqCst fences bound the counted region around the allocator's relaxed tallies
    COUNTING.store(true, Ordering::SeqCst);
    for round in 0..50_000u64 {
        let job_id = (round % 1024) as usize;
        let ctx = span::job_ctx(job_id);
        for event in event_mix(job_id) {
            counted.emit_in(round, ctx, event);
        }
        counter.inc();
        histogram.record(round * 1_000);
    }
    // analyze: allow(A5): SeqCst fences bound the counted region around the allocator's relaxed tallies
    COUNTING.store(false, Ordering::SeqCst);
    // analyze: allow(A5): SeqCst fences bound the counted region around the allocator's relaxed tallies
    let hot_path_allocs = ALLOCATIONS.load(Ordering::SeqCst);

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
            "\"jsonl_ns_per_event\":{:.2},",
            "\"hot_path_allocs\":{}}}"
        ),
        events, baseline_ns, disabled_ns, memory_ns, jsonl_ns, hot_path_allocs
    );
    std::fs::write(out, format!("{summary}\n"))?;
    println!("{summary}");
    eprintln!(
        "obs_bench: disabled {disabled_ns:.1} ns/event (floor {baseline_ns:.1}), \
         memory {memory_ns:.1}, jsonl {jsonl_ns:.1}, allocs {hot_path_allocs}, wrote {out}"
    );

    if hot_path_allocs != 0 {
        return Err(
            format!("disabled hot path allocated {hot_path_allocs} times (budget: 0)").into(),
        );
    }
    Ok(())
}
