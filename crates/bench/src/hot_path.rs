//! The hot-path workloads that `obs_bench` and `sim_bench` time and
//! `tests/alloc_budget.rs` counts allocations in, kept here so the
//! test counts exactly what the binaries measure.

use rto_core::time::{Duration, Instant};
use rto_obs::{Phase, TraceEvent};
use rto_sim::event::{Event, EventQueue};
use rto_stats::Rng;

/// The simulator's per-job event mix (all `Copy`, built on the stack).
#[inline]
#[must_use]
pub fn event_mix(job_id: usize) -> [TraceEvent; 6] {
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

/// The synchronized fleet's shared task period: every job reschedules
/// exactly this far ahead, so pending events stay clustered on the
/// millisecond phase grid forever.
const PERIOD_BASE_MS: u64 = 200;
const NS_PER_MS: u64 = 1_000_000;

/// An event queue the hold model can drive: the production calendar
/// queue, or `sim_bench`'s reference heap.
pub trait HoldQueue {
    /// Schedules `event` at `at`.
    fn push(&mut self, at: Instant, event: Event);
    /// Removes and returns the earliest `(instant, event)` pair, ties in
    /// insertion order.
    fn pop(&mut self) -> Option<(Instant, Event)>;
}

impl HoldQueue for EventQueue {
    #[inline]
    fn push(&mut self, at: Instant, event: Event) {
        EventQueue::push(self, at, event);
    }

    #[inline]
    fn pop(&mut self) -> Option<(Instant, Event)> {
        EventQueue::pop(self)
    }
}

/// Prefills `q` with one event per job for `n` jobs: phases staggered on
/// the millisecond grid inside one shared period, the stagger a
/// synchronized fleet's releases have, drawn from the seed
/// `0xC0FFEE ^ n`. Every queue prefilled for the same `n` holds the
/// same schedule, so their hold checksums agree.
#[must_use]
pub fn prefilled<Q: HoldQueue>(mut q: Q, n: usize) -> Q {
    let mut rng = Rng::seed_from(0xC0FFEE ^ n as u64);
    for i in 0..n {
        let phase_ms = rng.u64_range(0, PERIOD_BASE_MS.saturating_sub(1));
        let at = Instant::from_ns(phase_ms.saturating_mul(NS_PER_MS));
        q.push(at, Event::ServerResponse { job_id: i });
    }
    q
}

/// The hold loop: pop the earliest job event, push that job's next one
/// a shared period ahead. Returns the popped-time checksum so the work
/// cannot be optimized away and so two queues can be asserted to agree.
pub fn hold<Q: HoldQueue>(q: &mut Q, ops: u64) -> u64 {
    let gap = Duration::from_ms(PERIOD_BASE_MS);
    let mut checksum = 0u64;
    for i in 0..ops {
        let Some((t, _)) = q.pop() else {
            break;
        };
        // Rotate-xor: order-sensitive like a multiply-add chain but one
        // cycle deep, so the checksum stays off the critical path.
        checksum = checksum.rotate_left(1) ^ t.as_ns();
        q.push(t + gap, Event::ServerResponse { job_id: i as usize });
    }
    std::hint::black_box(checksum)
}
