//! The time-ordered event queue.
//!
//! Events at the same instant are processed in insertion order (a strictly
//! increasing sequence number breaks ties), which makes every simulation
//! fully deterministic.
//!
//! The backing store is a calendar queue: power-of-two near-future
//! buckets, each kept sorted by `(time, seq)` behind a drain cursor,
//! plus an overflow min-heap for events beyond the bucket window. Push
//! and pop are O(1) amortized, so the engine's event throughput does
//! not degrade as `log n` of the concurrent population (see `DESIGN.md`
//! §15). The pre-rewrite `BinaryHeap` engine soaked as a differential
//! oracle (byte-identical simulations across seeds and policies) and
//! has been deleted; a test-local reference heap in this module's tests
//! still cross-checks pop order on adversarial schedules.

use rto_core::time::Instant;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// The kinds of events driving the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A task releases its next job.
    Release {
        /// Index into the simulation's task vector.
        task_index: usize,
    },
    /// The server's response for a job arrives at the client.
    ServerResponse {
        /// The job the response belongs to.
        job_id: usize,
    },
    /// A compensation timer fires.
    CompensationTimer {
        /// The job whose timer fires.
        job_id: usize,
    },
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    at: Instant,
    seq: u64,
    event: Event,
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.at.cmp(&other.at).then(self.seq.cmp(&other.seq))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

// Equality uses exactly the `Ord` keys. `seq` is unique per queue, so
// two distinct entries never compare equal in practice — but deriving
// `PartialEq` over *all* fields (including `event`) would let
// `cmp(a, b) == Equal` disagree with `a == b`, violating the `Ord`
// contract `BinaryHeap` and the sorted buckets rely on.
impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl Eq for Entry {}

/// A bucket-resident event: the ordering key (`at`) plus the payload
/// packed into one word — 16 bytes instead of [`Entry`]'s 32, halving
/// the memory traffic of the pop/push streams that dominate hold cost
/// at fleet scale. No sequence number is stored: within a bucket,
/// same-instant events sit in arrival order structurally (appends and
/// `at`-keyed stable insertion), and same-instant events never split
/// across buckets — the same instant always maps to the same natural
/// bucket, a past-time push cannot coexist with a pending equal
/// instant (the cursor never passes a pending minimum), and overflow
/// times are always at or beyond `win_end`, strictly after every ring
/// time. Only the (unstable) heaps need `seq`.
#[derive(Debug, Clone, Copy)]
struct SlimEntry {
    at: Instant,
    packed: u64,
}

const TAG_RELEASE: u64 = 0;
const TAG_RESPONSE: u64 = 1;
const TAG_COMPENSATION: u64 = 2;

/// Widens an in-memory index for packing. `usize` is at most 64 bits
/// on every target the sim supports, so the widening is lossless.
fn idx_u64(index: usize) -> u64 {
    index as u64
}

/// Packs an [`Event`] into one word: a 2-bit tag plus the index. The
/// indices are in-memory `Vec` positions, so they fit 62 bits with
/// dozens of orders of magnitude to spare.
fn pack_event(event: Event) -> u64 {
    match event {
        Event::Release { task_index } => idx_u64(task_index).wrapping_shl(2) | TAG_RELEASE,
        Event::ServerResponse { job_id } => idx_u64(job_id).wrapping_shl(2) | TAG_RESPONSE,
        Event::CompensationTimer { job_id } => idx_u64(job_id).wrapping_shl(2) | TAG_COMPENSATION,
    }
}

/// Inverse of [`pack_event`].
fn unpack_event(packed: u64) -> Event {
    // Both halves fit: the tag is 2 bits, the index came from a usize.
    let id = (packed >> 2) as usize;
    match packed & 3 {
        TAG_RELEASE => Event::Release { task_index: id },
        TAG_RESPONSE => Event::ServerResponse { job_id: id },
        _ => Event::CompensationTimer { job_id: id },
    }
}

/// Fewest buckets a calendar queue ever holds.
const MIN_BUCKETS: usize = 16;
/// Most buckets a calendar queue ever holds (2^20).
const MAX_BUCKETS: usize = 1 << 20;
/// Widest bucket: 2^40 ns ≈ 18.3 simulated minutes.
const MAX_SLOT_LEN: u64 = 1 << 40;
/// A bucket with more live entries than this (spanning more than one
/// instant — ties can never be spread) asks for a width re-estimate,
/// rate-limited by [`CalendarQueue::ops_since_rebuild`].
const OVERLONG_BUCKET: usize = 64;
/// Times at or beyond this (2^63 ns ≈ 292 simulated years) never enter
/// the bucket grid — they ride the overflow heap instead — so every
/// slot-end computation fits in a `u64` without saturating.
const TIME_CAP: u64 = 1 << 63;

/// Computes `(magic, shift)` so that `t / d == (t × magic) >> shift`
/// (in 128-bit arithmetic) for every `t < TIME_CAP` — the classic
/// round-up reciprocal, which keeps the hardware divider off the
/// push/pop hot path.
///
/// Correctness: write `m = ⌊2^p / d⌋ + 1`, so `m·t / 2^p = t/d +
/// t·(d - r)/(d·2^p)` with `0 < d - r ≤ d`. The error term is positive
/// (never rounds below `⌊t/d⌋`) and stays under `1 - frac(t/d)`
/// whenever `t·d < 2^p`. Choosing `p = 63 + bits(d)` satisfies that
/// for all `t < 2^63 = TIME_CAP`, and keeps `m` within a `u64` because
/// a non-power-of-two `d` strictly exceeds `2^(bits-1)`. Powers of two
/// use the exact shift encoding `magic = 2^(63-k), p = 63` instead.
fn slot_params(d: u64) -> (u64, u32) {
    let d = d.max(1);
    if d.is_power_of_two() {
        let k = d.trailing_zeros();
        (1u64 << 63u32.saturating_sub(k), 63)
    } else {
        let bits = 64u32.saturating_sub(d.leading_zeros());
        let p = bits.saturating_add(63);
        let m = ((1u128 << p) / u128::from(d)).saturating_add(1);
        // m < 2^64 for non-power-of-two d (see above), so the
        // conversion never actually falls back.
        (u64::try_from(m).unwrap_or(u64::MAX), p)
    }
}

/// One calendar bucket: entries sorted ascending by `at` (arrival order
/// within ties), with `head` indexing the first not-yet-popped entry.
/// Draining advances `head` instead of shifting memory, so a batch of
/// same-instant events pops as a straight sequential scan.
#[derive(Debug, Default, Clone)]
struct Bucket {
    entries: Vec<SlimEntry>,
    head: usize,
}

impl Bucket {
    fn live(&self) -> usize {
        self.entries.len().saturating_sub(self.head)
    }

    /// Inserts keeping the live range `[head..]` sorted by `at`, new
    /// arrivals after existing ties (FIFO). Engine pushes arrive mostly
    /// in non-decreasing time order, so the common case is an O(1)
    /// append.
    fn insert_sorted(&mut self, e: SlimEntry) {
        match self.entries.last() {
            Some(last) if last.at <= e.at => self.entries.push(e),
            None => self.entries.push(e),
            Some(_) => {
                // Out-of-order within the bucket: binary-search the live
                // range only. Entries before `head` are already popped
                // and may exceed a past-time push, so the full vec is
                // not necessarily partitioned — the live range is.
                let live = self.entries.get(self.head..).unwrap_or(&[]);
                let rel = live.partition_point(|x| x.at <= e.at);
                let pos = self.head.saturating_add(rel);
                self.entries.insert(pos, e);
            }
        }
    }
}

/// A deterministic min-queue of timed events, backed by the calendar
/// queue described in the module docs.
#[derive(Debug)]
pub struct EventQueue {
    cal: CalendarQueue,
    next_seq: u64,
}

/// Circular calendar queue. Bucket `(t / slot_len) mod buckets.len()`
/// holds events for *every* lap of the `buckets.len() × slot_len` ring,
/// so the window slides continuously with the drain cursor instead of
/// jumping when it empties: steady-state pushes land in buckets even
/// while pops advance, and far-future events wait in place across laps
/// (or in the `overflow` heap beyond `win_end`). A per-lap validity
/// check on pop (`head.at < cur_end`) keeps multi-lap buckets ordered.
///
/// The ring is sized by the number of *distinct pending instants*, not
/// by the event population: fleet workloads put hundreds of
/// same-instant events into one slot, and a population-sized ring
/// would cycle through cold buckets forever. `slot_len` is exact (not
/// a power of two) at half the mean inter-instant gap, so on-grid
/// workloads get a slot that divides their grid — the instant→bucket
/// mapping then repeats from lap to lap and bucket storage is reused
/// instead of regrown.
///
/// All time fields hold raw nanosecond counts on the bucket grid; they
/// only ever meet shifts, comparisons, and `checked_*`/`saturating_*`
/// methods, never raw arithmetic operators.
#[derive(Debug)]
struct CalendarQueue {
    buckets: Vec<Bucket>,
    /// `buckets.len() - 1`; bucket count stays a power of two.
    bucket_mask: usize,
    /// Slot (bucket) length in nanoseconds, ≥ 1.
    slot_len: u64,
    /// Reciprocal multiplier for `t / slot_len` (see [`slot_params`]):
    /// `t / slot_len == (t × slot_magic) >> slot_shift` for every
    /// `t < TIME_CAP`, replacing the hot-path division with a multiply.
    slot_magic: u64,
    /// Shift paired with `slot_magic`.
    slot_shift: u32,
    /// Exclusive end (ns) of the cursor bucket's *current lap* slot:
    /// the head of `buckets[cursor]` pops only while `head.at <
    /// cur_end`; later entries in the same bucket belong to a later lap
    /// of the ring and wait for the window to come around.
    cur_end: u64,
    /// Exclusive end of the sliding window, `cur_end + bucket_mask ×
    /// width`; kept monotone while any bucket is live. Pushes at or
    /// beyond it go to `overflow` until a cursor advance slides the
    /// window over them.
    win_end: u64,
    /// Bucket holding the minimum entry. Invariant: whenever
    /// `in_window > 0`, the head of `buckets[cursor]` is the global
    /// minimum *and* lap-valid, so peeks are O(1).
    cursor: usize,
    /// Live entries across all buckets.
    in_window: usize,
    /// Events at or beyond `win_end` (or [`TIME_CAP`]), ordered like
    /// the legacy heap.
    overflow: BinaryHeap<Reverse<Entry>>,
    /// Population at the last rebuild (sizes the resize triggers).
    sized_for: usize,
    /// Pushes since the last rebuild (pops don't pay the counter tax).
    /// Width re-estimates for overlong buckets only fire once this
    /// reaches the queue length, bounding rebuild work to amortized
    /// O(log n) per operation even when the population never crosses a
    /// resize threshold.
    ops_since_rebuild: usize,
    /// Scratch buffer reused by rebuilds so resizing in the middle of a
    /// run does not collect into a fresh allocation every time.
    scratch: Vec<SlimEntry>,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl EventQueue {
    /// Creates an empty calendar queue.
    pub fn new() -> Self {
        EventQueue::with_capacity(0)
    }

    /// Creates an empty calendar queue sized for `cap` concurrent
    /// events — the engine pre-sizes for its steady-state population so
    /// `push` stays allocation-free on the hot path.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            cal: CalendarQueue::sized(cap),
            next_seq: 0,
        }
    }

    /// Schedules `event` at `at`.
    // analyze: hot-path
    pub fn push(&mut self, at: Instant, event: Event) {
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        self.cal.push(Entry { at, seq, event });
    }

    /// The instant of the next event, if any.
    pub fn peek_time(&self) -> Option<Instant> {
        self.cal.peek_time()
    }

    /// Removes and returns the next `(instant, event)` pair.
    // analyze: hot-path
    pub fn pop(&mut self) -> Option<(Instant, Event)> {
        self.cal.pop()
    }

    /// Pops the next event only if it is due at or before `now` — the
    /// engine's batched same-instant drain. One call both peeks and
    /// pops, and consecutive due events stream out of the current
    /// bucket's sorted run without re-searching the queue.
    // analyze: hot-path
    pub fn pop_due(&mut self, now: Instant) -> Option<(Instant, Event)> {
        if self.cal.peek_time().is_some_and(|t| t <= now) {
            self.cal.pop()
        } else {
            None
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.cal.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl CalendarQueue {
    /// An empty queue sized for `cap` concurrent events, with a 1.05 ms
    /// default bucket width (the sim's typical inter-event gap is
    /// millisecond-scale); the first rebuild adapts it to the measured
    /// event density.
    fn sized(cap: usize) -> Self {
        let nbuckets = cap
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS)
            .max(MIN_BUCKETS);
        let mut buckets = Vec::with_capacity(nbuckets);
        for _ in 0..nbuckets {
            buckets.push(Bucket::default());
        }
        let (slot_magic, slot_shift) = slot_params(1 << 20);
        CalendarQueue {
            bucket_mask: nbuckets.saturating_sub(1),
            slot_len: 1 << 20, // ~1 ms
            slot_magic,
            slot_shift,
            // Placeholder anchor: the first operation that finds
            // `in_window == 0` re-anchors the ring before using it.
            cur_end: 1 << 20,
            win_end: 0,
            cursor: 0,
            in_window: 0,
            overflow: BinaryHeap::new(),
            sized_for: cap.max(MIN_BUCKETS),
            ops_since_rebuild: 0,
            scratch: Vec::new(),
            buckets,
        }
    }

    fn len(&self) -> usize {
        self.in_window.saturating_add(self.overflow.len())
    }

    /// The slot length in nanoseconds, guaranteed non-zero.
    fn width(&self) -> u64 {
        self.slot_len.max(1)
    }

    /// Floor division of `t` by the slot length via the precomputed
    /// reciprocal — exact for every `t < TIME_CAP` (see
    /// [`slot_params`]), with no hardware divide on the hot path.
    fn div_slot(&self, t: u64) -> u64 {
        // The 128-bit product of two u64s cannot overflow, and the
        // shift is at most 104 bits (see `slot_params`).
        let prod = u128::from(t).wrapping_mul(u128::from(self.slot_magic));
        let q = prod.checked_shr(self.slot_shift).unwrap_or(0);
        // analyze: allow(A4): the quotient never exceeds `t: u64`, so the narrowing is lossless
        q as u64
    }

    /// The ring mask widened for time math; `bucket_mask < MAX_BUCKETS
    /// = 2^20`, so the widening is lossless.
    fn mask_u64(&self) -> u64 {
        // analyze: allow(A4): bucket_mask < 2^20, usize -> u64 widening is lossless
        self.bucket_mask as u64
    }

    /// The ring bucket owning `t` (on whichever lap covers `t`).
    fn natural_index(&self, t: u64) -> usize {
        let idx = self.div_slot(t) & self.mask_u64();
        // Masked by `bucket_mask`, so the cast is lossless on every
        // platform the sim targets.
        idx as usize
    }

    /// Exclusive end of the grid slot containing `t`. Never saturates
    /// in practice: `t < TIME_CAP` and `slot_len ≤ MAX_SLOT_LEN` keep
    /// the result below `2^63 + 2^40`.
    fn slot_end_of(&self, t: u64) -> u64 {
        self.div_slot(t)
            .saturating_add(1)
            .saturating_mul(self.width())
    }

    /// Points the cursor at `t`'s slot and re-derives the window end.
    /// Only called while no bucket is live (`in_window == 0`), so no
    /// existing bucket entry can fall outside the new window.
    fn anchor(&mut self, t: u64) {
        self.cursor = self.natural_index(t);
        self.cur_end = self.slot_end_of(t);
        let span = self.mask_u64().saturating_mul(self.width());
        self.win_end = self.cur_end.saturating_add(span);
    }

    /// Files an entry already known to belong in the ring
    /// (`t < win_end` and `t < TIME_CAP`). Returns whether the target
    /// bucket has degenerated into a long multi-instant run (a signal
    /// that the bucket width is far too coarse; pure same-instant ties
    /// are excluded — no width can split those).
    fn place(&mut self, entry: SlimEntry) -> bool {
        let t = entry.at.as_ns();
        let cur_start = self.cur_end.saturating_sub(self.width());
        // A push below the current slot (the engine never does, but the
        // heap tolerated it) goes to the cursor bucket itself: sorted
        // insertion makes it the new head, so it still pops first.
        // Every t >= cur_start maps to a not-yet-passed slot of some
        // lap, where the per-lap pop check orders it correctly.
        let idx = if self.in_window > 0 && t < cur_start {
            self.cursor
        } else {
            self.natural_index(t)
        };
        let mut overlong = false;
        if let Some(b) = self.buckets.get_mut(idx) {
            b.insert_sorted(entry);
            // Sampled (1-in-OVERLONG_BUCKET) once past the threshold:
            // the multi-instant confirmation reads the bucket's *head*
            // entry — a second, usually cold cache line — so running it
            // on every push into a long bucket would tax exactly the
            // fleet workload (hundreds of same-instant ties per bucket)
            // the check is meant to leave alone.
            let live = b.live();
            overlong = live > OVERLONG_BUCKET
                && live & OVERLONG_BUCKET.saturating_sub(1) == 0
                && b.entries.get(b.head).map(|e| e.at) != b.entries.last().map(|e| e.at);
        }
        self.in_window = self.in_window.saturating_add(1);
        overlong
    }

    fn push(&mut self, entry: Entry) {
        self.ops_since_rebuild = self.ops_since_rebuild.saturating_add(1);
        let t = entry.at.as_ns();
        let mut overlong = false;
        if t >= TIME_CAP {
            self.overflow.push(Reverse(entry));
        } else {
            if self.in_window == 0 {
                // Ring empty: re-anchor at whatever comes first — this
                // push or the earliest overflow resident — and pull the
                // overflow events the new window covers back in.
                let anchor = self
                    .overflow
                    .peek()
                    .map_or(t, |Reverse(m)| m.at.as_ns().min(t));
                self.anchor(anchor);
                self.drain_overflow();
            }
            if t >= self.win_end {
                self.overflow.push(Reverse(entry));
            } else {
                overlong = self.place(SlimEntry {
                    at: entry.at,
                    packed: pack_event(entry.event),
                });
            }
        }
        // Rebuild when the population doubles past what the grid was
        // sized for, or when a bucket has degenerated into a long
        // sorted run (rate-limited so rebuild work stays amortized
        // O(log n) per operation).
        if self.len() > self.sized_for.saturating_mul(2)
            || (overlong && self.ops_since_rebuild >= self.len())
        {
            self.rebuild();
        }
    }

    fn peek_time(&self) -> Option<Instant> {
        if self.in_window > 0 {
            let b = self.buckets.get(self.cursor)?;
            b.entries.get(b.head).map(|e| e.at)
        } else {
            self.overflow.peek().map(|Reverse(e)| e.at)
        }
    }

    fn pop(&mut self) -> Option<(Instant, Event)> {
        if self.in_window == 0 {
            let min = self.overflow.peek().map(|Reverse(e)| e.at.as_ns())?;
            if min >= TIME_CAP {
                // Beyond the grid's range: such events live out their
                // lives in the (still perfectly ordered) overflow heap.
                return self.overflow.pop().map(|Reverse(e)| (e.at, e.event));
            }
            self.anchor(min);
            self.drain_overflow();
        }
        let cur_end = self.cur_end;
        let b = self.buckets.get_mut(self.cursor)?;
        let e = *b.entries.get(b.head)?;
        b.head = b.head.saturating_add(1);
        // Fast-path check while the bucket is still hot in cache: if
        // its next head is lap-valid it is still the global minimum and
        // no rescan is needed (same-instant batches stream this way).
        let mut cursor_still_min = false;
        if b.head >= b.entries.len() {
            b.entries.clear();
            b.head = 0;
        } else {
            cursor_still_min = b
                .entries
                .get(b.head)
                .is_some_and(|h| h.at.as_ns() < cur_end);
        }
        self.in_window = self.in_window.saturating_sub(1);
        if self.in_window > 0 && !cursor_still_min {
            self.rescan();
        }
        // Shrink when the grid is drastically over-sized for what is
        // left (ignoring the MIN_BUCKETS floor). `in_window ≤ len`, so
        // the cheap first comparison (hot fields only) skips the
        // overflow-heap length load on almost every pop.
        if self.in_window < self.sized_for / 8
            && self.sized_for > MIN_BUCKETS
            && self.len() < self.sized_for / 8
        {
            self.rebuild();
        }
        Some((e.at, unpack_event(e.packed)))
    }

    /// Restores the cursor invariant after a pop: find the bucket whose
    /// head is the global minimum. Amortized O(1) — the fast path is
    /// the same bucket (same-instant batches stream), and the ring scan
    /// advances the cursor monotonically around the lap.
    fn rescan(&mut self) {
        // (The caller already ruled out the cursor bucket's own next
        // head being lap-valid; the `d == 0` step below re-covers that
        // case harmlessly for any other entry point.)
        // Walk the ring. The first head inside its own current-lap slot
        // is the global minimum: every smaller entry would occupy an
        // earlier slot (or sort earlier within the same bucket) and
        // would have been found first.
        let width = self.width();
        let nbuckets = self.bucket_mask.saturating_add(1);
        let mut slot_end = self.cur_end;
        for d in 0..nbuckets {
            let i = self.cursor.wrapping_add(d) & self.bucket_mask;
            if let Some(b) = self.buckets.get(i) {
                if let Some(h) = b.entries.get(b.head) {
                    if h.at.as_ns() < slot_end {
                        self.cursor = i;
                        self.cur_end = slot_end;
                        self.slide_window();
                        return;
                    }
                }
            }
            slot_end = slot_end.saturating_add(width);
        }
        // Rare: every live head waits a lap or more ahead (the
        // population is far sparser than the grid span). Jump straight
        // to the earliest head. Strict `<` keeps the first (lowest
        // index) on equal instants — and equal instants across two
        // buckets cannot happen anyway (see [`SlimEntry`]).
        let mut best: Option<(usize, Instant)> = None;
        for (i, b) in self.buckets.iter().enumerate() {
            if let Some(h) = b.entries.get(b.head) {
                if best.is_none_or(|(_, at)| h.at < at) {
                    best = Some((i, h.at));
                }
            }
        }
        if let Some((i, at)) = best {
            self.cursor = i;
            self.cur_end = self.slot_end_of(at.as_ns());
            self.slide_window();
        }
    }

    /// After the cursor advanced, extend the window end to keep its
    /// span and admit any overflow events the slide now covers.
    fn slide_window(&mut self) {
        let span = self.mask_u64().saturating_mul(self.width());
        let end = self.cur_end.saturating_add(span);
        if end > self.win_end {
            self.win_end = end;
            self.drain_overflow();
        }
    }

    /// Moves overflow events now inside the window into the ring.
    /// Overflow pops ascending by `(at, seq)`, so each bucket receives
    /// its entries pre-sorted and `insert_sorted` appends in O(1).
    fn drain_overflow(&mut self) {
        while let Some(Reverse(e)) = self.overflow.peek() {
            let t = e.at.as_ns();
            if t >= self.win_end || t >= TIME_CAP {
                break;
            }
            if let Some(Reverse(e)) = self.overflow.pop() {
                self.place(SlimEntry {
                    at: e.at,
                    packed: pack_event(e.event),
                });
            }
        }
    }

    /// Re-sizes the ring to the pending distinct-instant count and
    /// re-estimates the slot length from the mean inter-instant gap,
    /// then redistributes every pending entry. O(n log n); triggered
    /// only on population doublings/eighthings (or rate-limited
    /// overlong-bucket signals), so amortized O(1) per op.
    fn rebuild(&mut self) {
        let mut entries = std::mem::take(&mut self.scratch);
        entries.clear();
        entries.reserve(self.in_window);
        for b in &mut self.buckets {
            for i in b.head..b.entries.len() {
                if let Some(e) = b.entries.get(i) {
                    entries.push(*e);
                }
            }
            b.entries.clear();
            b.head = 0;
        }
        // Same-instant events always share one bucket (see
        // [`SlimEntry`]), so ties are collected contiguously in arrival
        // order and the *stable* sort keeps FIFO without per-entry
        // sequence numbers. The overflow heap stays put: every resident
        // is later than every ring instant, and `drain_overflow` below
        // re-admits whichever ones the resized window covers.
        entries.sort_by_key(|e| e.at);

        // Size the ring by *distinct instants*, not population: a fleet
        // parks hundreds of same-instant events in one slot, and a
        // population-sized ring would lap through cold buckets forever.
        let mut distinct: u64 = 0;
        let mut prev = None;
        for e in &entries {
            if prev != Some(e.at) {
                distinct = distinct.saturating_add(1);
                prev = Some(e.at);
            }
        }
        let (nbuckets, slot_len) = match (entries.first(), entries.last()) {
            (Some(first), Some(last)) if distinct >= 2 => {
                let span = last.at.since(first.at).as_ns().max(1);
                let gaps = distinct.saturating_sub(1).max(1);
                // Half the mean inter-instant gap: distinct instants
                // land in distinct slots even with moderate jitter, and
                // an on-grid workload gets a slot that divides its grid
                // — the instant→bucket mapping then repeats from lap to
                // lap, so bucket storage is reused instead of regrown.
                let slot = (span / gaps / 2).clamp(1, MAX_SLOT_LEN);
                // One ring lap covers twice the pending span, so pushes
                // keep landing in buckets (not the overflow heap) even
                // a whole span past the current minimum.
                let doubled = span.saturating_mul(2);
                let slots = usize::try_from((doubled / slot).max(1)).unwrap_or(MAX_BUCKETS);
                let nb = slots
                    .next_power_of_two()
                    .clamp(MIN_BUCKETS, MAX_BUCKETS)
                    .max(MIN_BUCKETS);
                (nb, slot)
            }
            _ => (MIN_BUCKETS, self.slot_len),
        };
        if nbuckets > self.buckets.len() {
            self.buckets
                .reserve(nbuckets.saturating_sub(self.buckets.len()));
            while self.buckets.len() < nbuckets {
                self.buckets.push(Bucket::default());
            }
        } else {
            self.buckets.truncate(nbuckets);
        }
        self.bucket_mask = nbuckets.saturating_sub(1);
        self.slot_len = slot_len;
        let (slot_magic, slot_shift) = slot_params(self.width());
        self.slot_magic = slot_magic;
        self.slot_shift = slot_shift;
        self.in_window = 0;
        let mut anchored = false;
        let mut spill_seq: u64 = 0;
        for e in &entries {
            let t = e.at.as_ns();
            if !anchored {
                // Entries are sorted, so the first entry is the
                // minimum: anchor the ring at it.
                self.anchor(t);
                anchored = true;
            }
            if t >= self.win_end {
                // The clamped ring cannot cover this span: spill the
                // tail back to the overflow heap. Synthetic ascending
                // sequence numbers keep FIFO — ties can only be within
                // this spill (ring and overflow instants are disjoint),
                // and every spilled event predates every future push,
                // whose live sequence number exceeds the total push
                // count and hence these synthetics.
                self.overflow.push(Reverse(Entry {
                    at: e.at,
                    seq: spill_seq,
                    event: unpack_event(e.packed),
                }));
                spill_seq = spill_seq.saturating_add(1);
            } else {
                // Globally sorted input ⇒ per-bucket appends.
                let _ = self.place(*e);
            }
        }
        self.sized_for = self.len().max(MIN_BUCKETS);
        self.ops_since_rebuild = 0;
        entries.clear();
        self.scratch = entries;
        if anchored {
            // The resized window may now cover former overflow
            // residents; pull them in (in `(at, seq)` order).
            self.drain_overflow();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ns: u64) -> Instant {
        Instant::from_ns(ns)
    }

    /// Runs a scenario against a fresh queue. (Kept as a helper so the
    /// contract tests below read the same as they did when they ran
    /// against both the calendar queue and the since-deleted legacy
    /// heap.)
    fn both(f: impl Fn(&mut EventQueue)) {
        let mut q = EventQueue::new();
        f(&mut q);
    }

    /// A test-local reference queue: the textbook
    /// `BinaryHeap<Reverse<Entry>>` the production engine used before
    /// the calendar rewrite. Trivially correct by `Entry`'s `(at, seq)`
    /// ordering, so it serves as the oracle for the adversarial
    /// self-consistency test.
    #[derive(Default)]
    struct OracleQueue {
        heap: BinaryHeap<Reverse<Entry>>,
        next_seq: u64,
    }

    impl OracleQueue {
        fn push(&mut self, at: Instant, event: Event) {
            let seq = self.next_seq;
            self.next_seq = self.next_seq.wrapping_add(1);
            self.heap.push(Reverse(Entry { at, seq, event }));
        }

        fn pop(&mut self) -> Option<(Instant, Event)> {
            self.heap.pop().map(|Reverse(e)| (e.at, e.event))
        }

        fn len(&self) -> usize {
            self.heap.len()
        }
    }

    #[test]
    fn pops_in_time_order() {
        both(|q| {
            q.push(at(30), Event::Release { task_index: 3 });
            q.push(at(10), Event::Release { task_index: 1 });
            q.push(at(20), Event::Release { task_index: 2 });
            let order: Vec<u64> = std::iter::from_fn(|| q.pop())
                .map(|(t, _)| t.as_ns())
                .collect();
            assert_eq!(order, vec![10, 20, 30]);
        });
    }

    #[test]
    fn ties_broken_by_insertion_order() {
        both(|q| {
            q.push(at(5), Event::Release { task_index: 0 });
            q.push(at(5), Event::ServerResponse { job_id: 1 });
            q.push(at(5), Event::CompensationTimer { job_id: 2 });
            assert_eq!(q.pop().unwrap().1, Event::Release { task_index: 0 });
            assert_eq!(q.pop().unwrap().1, Event::ServerResponse { job_id: 1 });
            assert_eq!(q.pop().unwrap().1, Event::CompensationTimer { job_id: 2 });
        });
    }

    /// Regression test for the FIFO tie-break at scale: neither backing
    /// store is stable on its own, so a large batch of same-instant
    /// events interleaved with other instants must still pop in exact
    /// insertion order — even when pops and pushes alternate
    /// mid-stream. A broken `seq` tie-break makes simulations
    /// seed-dependent in ways that are very hard to debug, hence the
    /// dedicated test.
    #[test]
    fn fifo_tie_break_survives_interleaved_push_pop() {
        both(|q| {
            // Phase 1: 50 ties at t=100 tagged by insertion index, with
            // earlier- and later-time noise pushed in between.
            for i in 0..50 {
                q.push(at(100), Event::ServerResponse { job_id: i });
                q.push(at(1 + i as u64), Event::Release { task_index: i });
                q.push(at(1000 + i as u64), Event::CompensationTimer { job_id: i });
            }
            // Drain the early noise.
            for _ in 0..50 {
                let (t, e) = q.pop().unwrap();
                assert!(t < at(100));
                assert!(matches!(e, Event::Release { .. }));
            }
            // Phase 2: pop half the ties, pushing *new* ties at the same
            // instant while popping — new arrivals must queue behind all
            // existing ones.
            for expect in 0..25 {
                let (t, e) = q.pop().unwrap();
                assert_eq!(t, at(100));
                assert_eq!(e, Event::ServerResponse { job_id: expect });
                q.push(
                    at(100),
                    Event::ServerResponse {
                        job_id: 50 + expect,
                    },
                );
            }
            // Phase 3: the remaining original ties, then the ones added
            // while draining, all in FIFO order.
            for expect in 25..75 {
                let (t, e) = q.pop().unwrap();
                assert_eq!(t, at(100));
                assert_eq!(
                    e,
                    Event::ServerResponse { job_id: expect },
                    "tie order broken"
                );
            }
            // Finally the late noise, in time order.
            let mut last = at(100);
            while let Some((t, e)) = q.pop() {
                assert!(t >= last);
                assert!(matches!(e, Event::CompensationTimer { .. }));
                last = t;
            }
            assert!(q.is_empty());
        });
    }

    #[test]
    fn peek_and_len() {
        both(|q| {
            assert!(q.is_empty());
            assert_eq!(q.peek_time(), None);
            q.push(at(7), Event::Release { task_index: 0 });
            assert_eq!(q.peek_time(), Some(at(7)));
            assert_eq!(q.len(), 1);
            assert!(!q.is_empty());
            q.pop();
            assert!(q.is_empty());
        });
    }

    #[test]
    fn pop_due_only_returns_due_events() {
        both(|q| {
            q.push(at(50), Event::Release { task_index: 0 });
            q.push(at(100), Event::ServerResponse { job_id: 1 });
            assert_eq!(
                q.pop_due(at(50)),
                Some((at(50), Event::Release { task_index: 0 }))
            );
            assert_eq!(q.pop_due(at(50)), None);
            assert_eq!(q.len(), 1);
            assert_eq!(
                q.pop_due(at(100)),
                Some((at(100), Event::ServerResponse { job_id: 1 }))
            );
            assert_eq!(q.pop_due(at(100)), None);
        });
    }

    /// The entry ordering and equality must agree (`Ord` contract):
    /// entries with equal `(at, seq)` keys are `Equal` *and* `==`, even
    /// when their payloads differ.
    #[test]
    fn entry_eq_agrees_with_ord() {
        let a = Entry {
            at: at(5),
            seq: 1,
            event: Event::Release { task_index: 0 },
        };
        let b = Entry {
            at: at(5),
            seq: 1,
            event: Event::ServerResponse { job_id: 9 },
        };
        let c = Entry {
            at: at(5),
            seq: 2,
            event: Event::Release { task_index: 0 },
        };
        assert_eq!(a.cmp(&b), Ordering::Equal);
        assert_eq!(a, b);
        assert_eq!(a.cmp(&c), Ordering::Less);
        assert_ne!(a, c);
    }

    /// Self-consistency check against the test-local oracle: a long,
    /// adversarial push/pop schedule with clustered instants,
    /// far-future spikes (exercising the overflow heap and window
    /// advances), and enough volume to trigger grid rebuilds must
    /// produce the identical pop sequence on the calendar queue and the
    /// trivially-correct reference heap.
    #[test]
    fn calendar_matches_oracle_on_adversarial_schedule() {
        let mut cal = EventQueue::new();
        let mut heap = OracleQueue::default();
        // Deterministic pseudo-random times (SplitMix64 step).
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = || {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        let mut popped = 0u64;
        for round in 0..5_000u64 {
            let r = next();
            let t = match r % 10 {
                // Cluster: same instant, exercising the FIFO tie-break.
                0..=3 => at(1_000_000),
                // Near future relative to progress.
                4..=7 => at(popped.saturating_mul(100).wrapping_add(r % 50_000)),
                // Far-future spike into the overflow heap.
                _ => at(2_000_000_000u64.wrapping_add(r % 1_000_000)),
            };
            let ev = Event::ServerResponse {
                job_id: round as usize,
            };
            cal.push(t, ev);
            heap.push(t, ev);
            // Interleave pops to move the window forward.
            if r % 3 == 0 {
                assert_eq!(cal.pop(), heap.pop());
                popped = popped.saturating_add(1);
            }
        }
        assert_eq!(cal.len(), heap.len());
        loop {
            let (a, b) = (cal.pop(), heap.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// The reciprocal multiply-shift must reproduce hardware floor
    /// division exactly for every divisor the queue can pick and every
    /// time below `TIME_CAP` — a wrong quotient silently misfiles
    /// events into the wrong bucket lap.
    #[test]
    fn reciprocal_division_is_exact() {
        let mut state = 0xD1B54A32D192ED03u64;
        let mut next = || {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        let divisors = [
            1u64,
            2,
            3,
            5,
            7,
            11,
            63,
            64,
            65,
            500_000,
            999_983,
            1_000_000,
            1 << 20,
            MAX_SLOT_LEN - 1,
            MAX_SLOT_LEN,
        ];
        for &d in &divisors {
            let (m, s) = slot_params(d);
            let check = |t: u64| {
                let prod = u128::from(t).wrapping_mul(u128::from(m));
                let q = prod.checked_shr(s).unwrap_or(0) as u64;
                assert_eq!(q, t / d, "reciprocal division wrong for t={t} d={d}");
            };
            for t in [0, 1, d - 1, d, d + 1, TIME_CAP - d, TIME_CAP - 1] {
                check(t);
            }
            for _ in 0..2_000 {
                check(next() % TIME_CAP);
            }
        }
    }

    /// Pushing below the current window start (the engine never does,
    /// but the heap tolerated it) still pops first.
    #[test]
    fn past_push_pops_first() {
        let mut q = EventQueue::new();
        // Drive the window far forward.
        for i in 0..100u64 {
            q.push(
                at(i.saturating_mul(1 << 21)),
                Event::Release { task_index: 0 },
            );
        }
        while q.len() > 1 {
            q.pop();
        }
        let Some((tail, _)) = q.peek_time().map(|t| (t, ())) else {
            panic!("queue should have one event left");
        };
        q.push(at(3), Event::ServerResponse { job_id: 7 });
        assert_eq!(q.peek_time(), Some(at(3)));
        assert_eq!(q.pop(), Some((at(3), Event::ServerResponse { job_id: 7 })));
        assert_eq!(q.peek_time(), Some(tail));
    }

    /// Growing past the resize trigger and draining back down keeps
    /// every event exactly once, in order.
    #[test]
    fn rebuild_preserves_content_and_order() {
        let mut q = EventQueue::with_capacity(4);
        let n = 10_000u64;
        for i in 0..n {
            // Reversed times to defeat the append fast path.
            q.push(
                at(n.saturating_sub(i).saturating_mul(1_000)),
                Event::ServerResponse { job_id: i as usize },
            );
        }
        assert_eq!(q.len(), n as usize);
        let mut last = at(0);
        let mut count = 0u64;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last, "order violated at {count}");
            last = t;
            count += 1;
        }
        assert_eq!(count, n);
    }
}
