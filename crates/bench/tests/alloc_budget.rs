//! Allocation budgets of the hot paths `obs_bench` and `sim_bench` time.
//! Allocation counts are deterministic, so they are held here as tests
//! rather than next to the host-timed numbers.
//!
//! * The disabled tracing path — emitting through a [`NullSink`],
//!   bumping a counter and recording a histogram sample — allocates
//!   **never**, in both event mixes.
//! * The calendar queue's steady-state hold allocates on at most 1 % of
//!   operations: its hot path reuses bucket storage, and only rare
//!   amortized rebuilds may allocate.
//!
//! The counting `#[global_allocator]` below makes this file its own test
//! binary; it needs `unsafe`, which the library forbids. It counts per
//! thread, so libtest's other threads (progress output, timers, the
//! other test) cannot flake a count.

use rto_bench::hot_path::{event_mix, hold, prefilled};
use rto_obs::{span, NullSink, Obs, TraceEvent};
use rto_sim::event::EventQueue;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct CountingAllocator;

thread_local! {
    /// `Some(n)` while this thread counts: `n` allocations so far.
    /// `const` init and no destructor keep the TLS access itself
    /// allocation-free.
    static ALLOCATIONS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count_one() {
    // `try_with`: TLS may already be gone for late allocations during
    // thread teardown.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

// SAFETY: delegates every operation to `System`; only adds bookkeeping.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// How many times `f` calls the allocator on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|c| c.set(Some(0)));
    f();
    ALLOCATIONS.with(Cell::take).unwrap_or(0)
}

#[test]
fn disabled_tracing_does_not_allocate() {
    // Everything is set up before counting: the Obs bundle, the metric
    // handles (registration allocates) and the events (all `Copy`).
    let obs = Obs::with_sink(Arc::new(NullSink));
    let counter = obs.metrics().counter("offloads_total");
    let histogram = obs.metrics().histogram("response_ns");
    let events = [
        TraceEvent::JobReleased {
            job_id: 1,
            task_id: 0,
            deadline_ns: 1_000_000,
        },
        TraceEvent::OffloadRequestSent {
            job_id: 1,
            task_id: 0,
            payload_bytes: 65_536,
        },
        TraceEvent::ServerResponseArrived {
            job_id: 1,
            task_id: 0,
            late: false,
        },
        TraceEvent::DeadlineMet {
            job_id: 1,
            task_id: 0,
        },
    ];

    // Unspanned `emit` of a four-event mix.
    let allocs = allocations_in(|| {
        for round in 0..10_000u64 {
            for event in events {
                obs.emit(round, event);
            }
            counter.inc();
            histogram.record(round * 1_000);
        }
    });
    assert_eq!(allocs, 0, "disabled `emit` and metric recording allocated");

    // `obs_bench`'s six-event mix through `emit_in` with a span context.
    let allocs = allocations_in(|| {
        for round in 0..50_000u64 {
            let job_id = (round % 1024) as usize;
            let ctx = span::job_ctx(job_id);
            for event in event_mix(job_id) {
                obs.emit_in(round, ctx, event);
            }
            counter.inc();
            histogram.record(round * 1_000);
        }
    });
    assert_eq!(
        allocs, 0,
        "disabled `emit_in` and metric recording allocated"
    );

    // The work still happened.
    assert_eq!(counter.get(), 60_000);
    let snap = obs.metrics().snapshot();
    assert_eq!(snap.histogram("response_ns").map(|h| h.count), Some(60_000));
}

#[test]
fn steady_state_hold_rarely_allocates() {
    const N: usize = 100_000;
    const OPS: u64 = 500_000;
    let mut q = prefilled(EventQueue::with_capacity(N), N);
    // Warm-up: one-time capacity growth is not steady state.
    hold(&mut q, OPS);
    let allocs = allocations_in(|| {
        hold(&mut q, OPS);
    });
    assert!(
        allocs * 100 <= OPS,
        "hold allocated {allocs} times in {OPS} operations (budget: 1 %)"
    );
    assert_eq!(q.len(), N, "every pop was matched by a push");
}
