//! Totally-ordered, cancellable event queue.
//!
//! Determinism requirement: when two events are scheduled for the same
//! instant, they are delivered in the order they were scheduled. The queue
//! therefore keys on `(time, insertion sequence)` — a total order — rather
//! than on time alone, which would leave same-time ordering to the heap's
//! whim and break replayability.
//!
//! # Future-event-list backends
//!
//! The queue's storage is pluggable through the [`Fel`] trait, mirroring
//! the dense/sparse medium split in the phy crate: [`HeapQueue`] is the
//! straightforward 4-ary heap kept as a correctness oracle, and
//! [`LadderQueue`] — the default — is a two-tier calendar/ladder structure
//! tuned for the short event horizons of a MAC simulation, where almost
//! everything is scheduled within a few slot times or one frame airtime of
//! "now". Both yield the exact `(time, priority, seq)` total order, so the
//! pop sequence — the only thing a simulation observes — is bit-identical
//! between them; the property suite in `crates/sim/tests` drives random
//! operation traces through both and asserts exactly that.

use crate::hash::FastHashSet;
use crate::time::SimTime;

/// Opaque handle to a scheduled event, used for cancellation. Carries the
/// event's full sort key so [`EventQueue::cancel`] can tell whether the
/// event is still queued (see [`EventQueue::len`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId {
    time: SimTime,
    pseq: u64,
}

/// Maximum representable insertion sequence number: `seq` shares a word
/// with the priority byte (below), leaving 56 bits — enough for ~7×10^16
/// events, far beyond any run this simulator will make.
const SEQ_MAX: u64 = (1 << 56) - 1;

struct Entry<E> {
    time: SimTime,
    /// `priority` in the top byte, insertion `seq` in the low 56 bits, so
    /// one u64 comparison orders same-time events by (priority, seq).
    pseq: u64,
    payload: E,
}

impl<E> Entry<E> {
    /// The (time, priority, seq) sort key. Payload never participates in
    /// ordering; seq makes the key a *total* order, so the pop sequence is
    /// fully determined regardless of heap layout.
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.pseq)
    }
}

/// A future-event list: priority-queue storage under [`EventQueue`].
///
/// Implementations must yield entries in exact `(time, pseq)` order — the
/// total order over all pushed entries — from [`Fel::pop`], and report the
/// same head from [`Fel::peek`]. `peek` takes `&mut self` because bucketed
/// implementations advance internal windows to locate the minimum.
pub trait Fel<E>: Default {
    /// Insert an entry.
    fn push(&mut self, time: SimTime, pseq: u64, payload: E);
    /// Remove and return the minimum entry.
    fn pop(&mut self) -> Option<(SimTime, u64, E)>;
    /// The minimum entry's `(time, pseq)` key without removing it.
    fn peek(&mut self) -> Option<(SimTime, u64)>;
    /// Number of stored entries.
    fn len(&self) -> usize;
    /// `true` iff no entries are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A 4-ary implicit min-heap over [`Entry`]s.
///
/// A 4-ary heap halves the tree depth of a binary heap, and the four
/// children of a node share a cache line, so both `push` (sift-up) and
/// `pop` (sift-down) touch roughly half as many cache lines. Because
/// entries are totally ordered by `(time, priority, seq)`, the sequence of
/// popped minima — the only thing the simulation observes — is identical
/// to any other correct heap's.
struct Heap4<E> {
    v: Vec<Entry<E>>,
}

impl<E> Heap4<E> {
    const ARITY: usize = 4;

    fn new() -> Self {
        Heap4 { v: Vec::new() }
    }

    fn len(&self) -> usize {
        self.v.len()
    }

    fn peek(&self) -> Option<&Entry<E>> {
        self.v.first()
    }

    fn push(&mut self, e: Entry<E>) {
        self.v.push(e);
        // Sift up: move the hole toward the root until the parent is no
        // larger than the new entry.
        let mut i = self.v.len() - 1;
        while i > 0 {
            let parent = (i - 1) / Self::ARITY;
            if self.v[parent].key() <= self.v[i].key() {
                break;
            }
            self.v.swap(parent, i);
            i = parent;
        }
    }

    fn pop(&mut self) -> Option<Entry<E>> {
        let n = self.v.len();
        if n <= 1 {
            return self.v.pop();
        }
        let top = self.v.swap_remove(0);
        // Sift down: push the displaced tail entry toward the leaves,
        // always descending into the smallest child.
        let n = self.v.len();
        let mut i = 0;
        loop {
            let first_child = i * Self::ARITY + 1;
            if first_child >= n {
                break;
            }
            let last_child = (first_child + Self::ARITY).min(n);
            let mut min = first_child;
            for c in first_child + 1..last_child {
                if self.v[c].key() < self.v[min].key() {
                    min = c;
                }
            }
            if self.v[i].key() <= self.v[min].key() {
                break;
            }
            self.v.swap(i, min);
            i = min;
        }
        Some(top)
    }
}

/// The 4-ary heap future-event list: O(log n) push/pop, no tuning knobs.
///
/// This is the pre-ladder structure kept verbatim as the determinism
/// oracle — the property suite replays random traces through this and
/// [`LadderQueue`] and asserts identical pop sequences.
pub struct HeapQueue<E> {
    heap: Heap4<E>,
}

impl<E> Default for HeapQueue<E> {
    fn default() -> Self {
        HeapQueue { heap: Heap4::new() }
    }
}

impl<E> Fel<E> for HeapQueue<E> {
    #[inline]
    fn push(&mut self, time: SimTime, pseq: u64, payload: E) {
        self.heap.push(Entry {
            time,
            pseq,
            payload,
        });
    }

    #[inline]
    fn pop(&mut self) -> Option<(SimTime, u64, E)> {
        self.heap.pop().map(|e| (e.time, e.pseq, e.payload))
    }

    #[inline]
    fn peek(&mut self) -> Option<(SimTime, u64)> {
        self.heap.peek().map(Entry::key)
    }

    #[inline]
    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// Number of ring buckets (fixed; the bucket *width* adapts instead).
const LADDER_BUCKETS: usize = 512;
/// Bounds on the log2 bucket width: 1.024 µs .. ~16.8 ms. At the paper's
/// 256 kbps rate the short end is a fraction of a byte time and the long
/// end is one maximum frame airtime, bracketing every horizon a MAC
/// schedule produces.
const LADDER_LG_MIN: u32 = 10;
const LADDER_LG_MAX: u32 = 24;
/// Pushes sampled before the ladder engages and sizes its buckets.
const LADDER_BOOT_SAMPLES: usize = 64;
/// A bucket sorted at more than this occupancy halves the bucket width.
const LADDER_SPLIT_OCCUPANCY: usize = 512;
/// Push/pop counts between adaptive-geometry checks.
const LADDER_PRESSURE_WINDOW: u64 = 4096;
/// Average empty windows scanned per pop that triggers a width doubling.
const LADDER_SCAN_FACTOR: u64 = 8;

/// A two-tier ladder/calendar future-event list.
///
/// Near-future events live in a ring of [`LADDER_BUCKETS`] fixed-width
/// buckets in insertion order; a bucket is sorted once, when its time
/// window becomes current, making push O(1) and pop O(1) amortized —
/// the classic calendar-queue win over an O(log n) heap when event
/// horizons are short, which is exactly the MACAW regime (slot times,
/// SIFS gaps, one frame airtime). Far-future events (beyond the ring's
/// span) sit in an overflow 4-ary heap and migrate into the ring as its
/// window slides forward, so pathological horizons degrade to the heap's
/// O(log n) instead of breaking the ring.
///
/// # Determinism
///
/// Tier placement never affects order: every event carries the same
/// `(time, priority, seq)` key it would have in the heap, the current
/// bucket is sorted by exactly that key, and the overflow heap drains in
/// key order before its span becomes current. The pop sequence is
/// therefore bit-identical to [`HeapQueue`]'s — asserted over random
/// traces by the oracle property suite.
///
/// # Sizing
///
/// The first [`LADDER_BOOT_SAMPLES`] pushes run straight through the
/// overflow heap while the push horizons (delay from "now") are sampled;
/// the bucket width is then chosen so the median horizon spreads its
/// events at roughly one per bucket. After that the geometry self-adjusts:
/// an overfull sorted bucket halves the width, while overflow pressure
/// (most pushes landing past the ring) or long empty-bucket scans double
/// it. All triggers depend only on the operation sequence, so resizing is
/// as deterministic as everything else.
pub struct LadderQueue<E> {
    /// Events of the current window, sorted descending by key (pop from
    /// the back). Also receives any push landing before `cur_end`.
    current: Vec<Entry<E>>,
    /// Near-future tier: `ring[(t >> lg) & (LADDER_BUCKETS-1)]`, valid for
    /// `cur_end <= t < ring_span_end()`. Buckets hold insertion order.
    ring: Vec<Vec<Entry<E>>>,
    /// One bit per ring bucket, set iff the bucket is non-empty: the
    /// window scan jumps straight to the next occupied bucket instead of
    /// stepping through empty ones — the difference between O(gap/width)
    /// and O(1) per pop when the queue is shallow and gaps are long.
    occ: [u64; LADDER_BUCKETS / 64],
    /// Total entries across all ring buckets.
    ring_len: usize,
    /// log2 of the bucket width in nanoseconds.
    lg: u32,
    /// Exclusive upper bound (ns) of the window `current` covers. Pushes
    /// below it sorted-insert into `current`; windows at and above it are
    /// still bucketed.
    cur_end: u64,
    /// Far-future tier, and the only tier while bootstrapping.
    overflow: Heap4<E>,
    /// Time of the most recent pop (ns); horizons are sampled against it.
    last_pop: u64,
    /// Sampled push horizons; `Some` while bootstrapping.
    boot: Option<Vec<u64>>,
    /// Pushes landing in the ring / overflow since the last geometry check.
    pushes_ring: u64,
    pushes_overflow: u64,
    /// Pops and empty windows scanned since the last geometry check.
    pops: u64,
    scan_steps: u64,
}

impl<E> Default for LadderQueue<E> {
    fn default() -> Self {
        LadderQueue {
            current: Vec::new(),
            ring: Vec::new(),
            occ: [0; LADDER_BUCKETS / 64],
            ring_len: 0,
            lg: LADDER_LG_MIN,
            cur_end: 0,
            overflow: Heap4::new(),
            last_pop: 0,
            boot: Some(Vec::with_capacity(LADDER_BOOT_SAMPLES)),
            pushes_ring: 0,
            pushes_overflow: 0,
            pops: 0,
            scan_steps: 0,
        }
    }
}

impl<E> LadderQueue<E> {
    #[inline]
    fn wmask(&self) -> u64 {
        (1u64 << self.lg) - 1
    }

    /// First ns not covered by the ring (events at or past it overflow).
    #[inline]
    fn ring_span_end(&self) -> u64 {
        // The ring starts at the bucket boundary at or below `cur_end`;
        // aligning keeps the (t >> lg) & mask bucket mapping unique.
        (self.cur_end & !self.wmask()) + ((LADDER_BUCKETS as u64) << self.lg)
    }

    #[inline]
    fn bucket_of(&self, t: u64) -> usize {
        ((t >> self.lg) as usize) & (LADDER_BUCKETS - 1)
    }

    /// Append to ring bucket `b`, keeping the occupancy bitmap in sync.
    #[inline]
    fn ring_push(&mut self, b: usize, e: Entry<E>) {
        self.ring[b].push(e);
        self.ring_len += 1;
        self.occ[b / 64] |= 1u64 << (b % 64);
    }

    /// Index of the first occupied bucket at or after `b0`, scanning
    /// cyclically (an index behind `b0` is a bucket whose window comes up
    /// after the ring wraps). `None` iff the ring is empty.
    #[inline]
    fn next_occupied(&self, b0: usize) -> Option<usize> {
        const WORDS: usize = LADDER_BUCKETS / 64;
        let masked = self.occ[b0 / 64] & (!0u64 << (b0 % 64));
        if masked != 0 {
            return Some((b0 / 64) * 64 + masked.trailing_zeros() as usize);
        }
        for i in 1..=WORDS {
            let w = (b0 / 64 + i) % WORDS;
            if self.occ[w] != 0 {
                return Some(w * 64 + self.occ[w].trailing_zeros() as usize);
            }
        }
        None
    }

    /// Route an entry to the ring or the overflow tier (never `current`).
    /// Callers guarantee `t >= cur_end`.
    #[inline]
    fn place_future(&mut self, e: Entry<E>) {
        let t = e.time.as_nanos();
        debug_assert!(t >= self.cur_end, "future entry behind current window");
        if t < self.ring_span_end() {
            let b = self.bucket_of(t);
            self.ring_push(b, e);
        } else {
            self.overflow.push(e);
        }
    }

    /// Migrate every overflow entry now covered by the ring's span.
    fn pull_overflow(&mut self) {
        let limit = self.ring_span_end();
        while let Some(head) = self.overflow.peek() {
            if head.time.as_nanos() >= limit {
                break;
            }
            let e = self.overflow.pop().expect("peeked overflow head vanished");
            debug_assert!(e.time.as_nanos() >= self.cur_end);
            let b = self.bucket_of(e.time.as_nanos());
            self.ring_push(b, e);
        }
    }

    /// Leave bootstrap mode: size the buckets from the sampled horizon
    /// distribution (median horizon spread over the live population, i.e.
    /// aiming for about one event per bucket) and build the empty ring.
    /// Everything stays in the overflow heap; [`Self::advance`] migrates
    /// it lazily.
    fn engage(&mut self) {
        let mut samples = self.boot.take().expect("engage called twice");
        samples.sort_unstable();
        let median = samples.get(samples.len() / 2).copied().unwrap_or(0).max(1);
        let per_event = (median / self.overflow.len().max(1) as u64).max(1);
        let lg = 64 - per_event.leading_zeros().min(63);
        self.lg = lg.clamp(LADDER_LG_MIN, LADDER_LG_MAX);
        self.ring = (0..LADDER_BUCKETS).map(|_| Vec::new()).collect();
        self.occ = [0; LADDER_BUCKETS / 64];
        self.cur_end = self.last_pop & !self.wmask();
    }

    /// Re-bucket the ring under a new width. `current` is untouched (it is
    /// already sorted for its window); entries the narrower/wider span no
    /// longer covers move between tiers via the normal routing.
    fn rebuild(&mut self, new_lg: u32) {
        self.lg = new_lg.clamp(LADDER_LG_MIN, LADDER_LG_MAX);
        let mut stale: Vec<Entry<E>> = Vec::with_capacity(self.ring_len);
        for b in &mut self.ring {
            stale.append(b);
        }
        self.ring_len = 0;
        self.occ = [0; LADDER_BUCKETS / 64];
        for e in stale {
            self.place_future(e);
        }
        self.pull_overflow();
        self.pushes_ring = 0;
        self.pushes_overflow = 0;
        self.pops = 0;
        self.scan_steps = 0;
    }

    /// Make `current` non-empty by advancing the window, pulling from the
    /// overflow tier as its span comes into range. Returns `false` when
    /// the whole structure is drained.
    ///
    /// Ordering-critical detail: the overflow tier is drained into the
    /// ring **before** every window step. Stepping first would strand any
    /// overflow entry inside the just-skipped window in a bucket the scan
    /// has already passed — it would not be seen again until the ring
    /// wrapped a full span later, delivering it out of order.
    fn advance(&mut self) -> bool {
        debug_assert!(self.current.is_empty());
        loop {
            self.pull_overflow();
            if self.ring_len == 0 {
                let Some(head) = self.overflow.peek() else {
                    return false;
                };
                // Jump the window straight to the overflow minimum instead
                // of stepping through an arbitrarily long empty stretch.
                let floor = head.time.as_nanos() & !self.wmask();
                self.cur_end = self.cur_end.max(floor);
                self.pull_overflow();
                debug_assert!(self.ring_len > 0, "pulled overflow vanished");
            }
            while self.ring_len > 0 {
                let b = self.bucket_of(self.cur_end);
                if self.ring[b].is_empty() {
                    // Jump the window straight to the next occupied
                    // bucket's boundary (the occupancy bitmap makes the
                    // search a handful of word scans). The jump cannot
                    // strand an overflow entry: after `pull_overflow`,
                    // everything left in the overflow tier is at least a
                    // full ring span past `cur_end`, so nothing can belong
                    // to the skipped windows; entries pulled *after* the
                    // jump land in the just-vacated buckets with times a
                    // full wrap ahead, exactly where the scan will find
                    // them when their window comes around.
                    let nb = self
                        .next_occupied(b)
                        .expect("ring_len > 0 with an empty occupancy bitmap");
                    let steps = ((nb + LADDER_BUCKETS - b) & (LADDER_BUCKETS - 1)) as u64;
                    debug_assert!(steps > 0, "occupied bucket at the scan position");
                    self.scan_steps += steps;
                    // Advance to bucket boundaries (not by a fixed width:
                    // after a jump `cur_end` may sit mid-bucket), then let
                    // newly-in-span overflow migrate.
                    self.cur_end = ((self.cur_end >> self.lg) + steps) << self.lg;
                    self.pull_overflow();
                    continue;
                }
                self.cur_end = ((self.cur_end >> self.lg) + 1) << self.lg;
                std::mem::swap(&mut self.current, &mut self.ring[b]);
                self.occ[b / 64] &= !(1u64 << (b % 64));
                self.ring_len -= self.current.len();
                self.current
                    .sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
                if self.current.len() > LADDER_SPLIT_OCCUPANCY && self.lg > LADDER_LG_MIN {
                    self.rebuild(self.lg - 1);
                }
                self.pull_overflow();
                return true;
            }
        }
    }

    /// Adaptive-geometry checks, run once per pressure window.
    fn maybe_resize(&mut self) {
        if self.pushes_ring + self.pushes_overflow >= LADDER_PRESSURE_WINDOW {
            // Most pushes sailing past the ring: the span is too short for
            // the live horizon distribution; widen the buckets.
            if self.pushes_overflow > self.pushes_ring && self.lg < LADDER_LG_MAX {
                self.rebuild(self.lg + 1);
            } else {
                self.pushes_ring = 0;
                self.pushes_overflow = 0;
            }
        }
        if self.pops >= LADDER_PRESSURE_WINDOW {
            // Pops spend their time skipping empty windows: buckets are far
            // narrower than the typical inter-event gap; widen them.
            if self.scan_steps > LADDER_SCAN_FACTOR * self.pops && self.lg < LADDER_LG_MAX {
                self.rebuild(self.lg + 1);
            } else {
                self.pops = 0;
                self.scan_steps = 0;
            }
        }
    }
}

impl<E> Fel<E> for LadderQueue<E> {
    fn push(&mut self, time: SimTime, pseq: u64, payload: E) {
        let e = Entry {
            time,
            pseq,
            payload,
        };
        if let Some(samples) = self.boot.as_mut() {
            samples.push(e.time.as_nanos().saturating_sub(self.last_pop));
            let full = samples.len() >= LADDER_BOOT_SAMPLES;
            self.overflow.push(e);
            if full {
                self.engage();
            }
            return;
        }
        let t = e.time.as_nanos();
        if t < self.cur_end {
            // The entry belongs to the window already being consumed:
            // sorted-insert so it pops in exact key order. (Zero-delay
            // self-scheduling and same-instant priorities land here.)
            let key = e.key();
            let pos = self.current.partition_point(|c| c.key() > key);
            self.current.insert(pos, e);
        } else {
            if t < self.ring_span_end() {
                self.pushes_ring += 1;
            } else {
                self.pushes_overflow += 1;
            }
            self.place_future(e);
            self.maybe_resize();
        }
    }

    fn pop(&mut self) -> Option<(SimTime, u64, E)> {
        if self.boot.is_some() {
            let e = self.overflow.pop()?;
            self.last_pop = e.time.as_nanos();
            return Some((e.time, e.pseq, e.payload));
        }
        if self.current.is_empty() && !self.advance() {
            return None;
        }
        let e = self.current.pop().expect("advance left current empty");
        self.last_pop = e.time.as_nanos();
        self.pops += 1;
        self.maybe_resize();
        Some((e.time, e.pseq, e.payload))
    }

    fn peek(&mut self) -> Option<(SimTime, u64)> {
        if self.boot.is_some() {
            return self.overflow.peek().map(Entry::key);
        }
        if self.current.is_empty() && !self.advance() {
            return None;
        }
        self.current.last().map(Entry::key)
    }

    fn len(&self) -> usize {
        self.current.len() + self.ring_len + self.overflow.len()
    }
}

/// Selects a [`Fel`] implementation for a container that is generic over
/// the payload type (the network cannot name its private event type in a
/// public signature, so it picks a *family* of queues instead).
pub trait FelChoice {
    /// The queue type for payload `E`.
    type Fel<E>: Fel<E>;
}

/// [`FelChoice`] for the default [`LadderQueue`].
#[derive(Clone, Copy, Debug, Default)]
pub struct LadderFel;

impl FelChoice for LadderFel {
    type Fel<E> = LadderQueue<E>;
}

/// [`FelChoice`] for the [`HeapQueue`] oracle.
#[derive(Clone, Copy, Debug, Default)]
pub struct HeapFel;

impl FelChoice for HeapFel {
    type Fel<E> = HeapQueue<E>;
}

/// Operation counters for one [`EventQueue`], for perf attribution: when
/// throughput regresses, these say whether the future-event list saw more
/// traffic or the cost moved elsewhere (MAC layer, medium).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events scheduled (pushes).
    pub scheduled: u64,
    /// Live events popped (cancelled events drained lazily do not count).
    pub popped: u64,
    /// Cancellations that hit a still-queued event.
    pub cancelled: u64,
    /// Maximum number of live queued events observed.
    pub high_water: usize,
}

/// Outcome of the fused dispatch step [`EventQueue::pop_next`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NextFire<E> {
    /// The queue head fired: it sorted before the external candidate and
    /// at or before the horizon. The queue's "now" advanced to its time.
    /// Carries the event's time, its sort key (comparable with
    /// [`EventQueue::alloc_key`] keys) and its payload.
    Queued(SimTime, u64, E),
    /// The external `(time, key)` candidate sorts first and is within the
    /// horizon: the queue advanced "now" to it, the caller fires it.
    External(SimTime),
    /// Nothing fires at or before the horizon (the winning side is beyond
    /// it, or both sides are empty).
    Idle,
}

/// A deterministic future-event list.
///
/// `pop` yields events in nondecreasing time order; ties are broken by
/// insertion order. Events can be cancelled by [`EventId`]; cancelled events
/// are skipped lazily at pop time, so cancellation is O(1).
///
/// Generic over the storage backend: [`LadderQueue`] by default,
/// [`HeapQueue`] as the plain-heap oracle (see [`Fel`]).
pub struct EventQueue<E, F: Fel<E> = LadderQueue<E>> {
    fel: F,
    cancelled: FastHashSet<u64>,
    next_seq: u64,
    /// Time of the most recently popped event; used to reject scheduling in
    /// the past, which would silently corrupt causality.
    watermark: SimTime,
    /// Maximum key ever *removed from the FEL* (popped, or drained as
    /// cancelled). An event with key above this is certainly still queued
    /// (every removal is the then-minimum of the FEL, so nothing above the
    /// max removal has ever left it) — which is most of what lets
    /// [`cancel`](Self::cancel) ignore already-fired events exactly. Not
    /// the *latest* removal: draining a cancelled future head pushes this
    /// past "now", and later pops can legitimately be below it.
    removed_mark: (SimTime, u64),
    /// Seqs of live events whose key is at or below `removed_mark` — the
    /// one case the mark can't classify. Populated at schedule time (a
    /// drained future cancel can leave the mark above "now", so new events
    /// may legally slot under it), emptied as those events leave the FEL.
    /// Almost always empty: cancellation of a not-yet-due event is the
    /// only thing that can raise the mark past the watermark.
    below_mark_live: FastHashSet<u64>,
    stats: QueueStats,
    _payload: std::marker::PhantomData<E>,
}

impl<E: Eq, F: Fel<E>> EventQueue<E, F> {
    /// Priority assigned by [`EventQueue::schedule`].
    pub const DEFAULT_PRIORITY: u8 = 128;

    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            fel: F::default(),
            cancelled: FastHashSet::default(),
            next_seq: 0,
            watermark: SimTime::ZERO,
            removed_mark: (SimTime::ZERO, 0),
            below_mark_live: FastHashSet::default(),
            stats: QueueStats::default(),
            _payload: std::marker::PhantomData,
        }
    }

    /// Schedule `payload` for delivery at `time` with default priority.
    ///
    /// # Panics
    /// Panics if `time` precedes the most recently popped event: scheduling
    /// into the past is always a simulation bug.
    pub fn schedule(&mut self, time: SimTime, payload: E) -> EventId {
        self.schedule_with_priority(time, Self::DEFAULT_PRIORITY, payload)
    }

    /// Schedule with an explicit same-instant priority: among events at the
    /// same time, lower `priority` fires first (ties still break by
    /// insertion order).
    ///
    /// The radio simulation uses this to process end-of-transmission
    /// (frame delivery) before timers at the same instant: a station whose
    /// contention slot lands exactly at the end of an overheard RTS must
    /// hear that RTS — and defer — before its own timer lets it transmit,
    /// mirroring hardware that finishes decoding a frame before acting on a
    /// slot boundary.
    pub fn schedule_with_priority(&mut self, time: SimTime, priority: u8, payload: E) -> EventId {
        assert!(
            time >= self.watermark,
            "scheduled event at {time:?} before current time {:?}",
            self.watermark
        );
        let seq = self.next_seq;
        assert!(seq <= SEQ_MAX, "event sequence space exhausted");
        self.next_seq += 1;
        let pseq = (priority as u64) << 56 | seq;
        if (time, pseq) <= self.removed_mark {
            // The mark sits past "now" (a future cancel was drained) and
            // this event slots under it; remember it so `cancel` can still
            // classify it as live.
            self.below_mark_live.insert(seq);
        }
        self.fel.push(time, pseq, payload);
        self.stats.scheduled += 1;
        let live = self.fel.len() - self.cancelled.len();
        if live > self.stats.high_water {
            self.stats.high_water = live;
        }
        EventId { time, pseq }
    }

    /// Cancel a previously scheduled event. Cancelling an event that has
    /// already fired (or was already cancelled) is a harmless no-op — and
    /// an *accounted* no-op: only cancellations of still-queued events are
    /// recorded, so [`len`](Self::len) stays exact.
    pub fn cancel(&mut self, id: EventId) {
        // Nothing above the max removed key has ever left the FEL, so a
        // key past the mark is certainly live; at or below it, only the
        // (rare, tracked) below-mark stragglers are. Without this guard a
        // cancel-after-fire would sit in `cancelled` forever and make
        // `len()` under-report (and `is_empty()` lie).
        let seq = id.pseq & SEQ_MAX;
        let live = (id.time, id.pseq) > self.removed_mark || self.below_mark_live.contains(&seq);
        if live && self.cancelled.insert(seq) {
            self.stats.cancelled += 1;
        }
    }

    /// Bookkeeping for an entry physically leaving the FEL: advance the
    /// max-removal mark, or — for a below-mark straggler — retire it from
    /// the side set. (Exclusive cases: a straggler's key stays below the
    /// monotone mark forever.)
    #[inline]
    fn note_removed(&mut self, time: SimTime, pseq: u64) {
        if (time, pseq) > self.removed_mark {
            self.removed_mark = (time, pseq);
        } else if !self.below_mark_live.is_empty() {
            self.below_mark_live.remove(&(pseq & SEQ_MAX));
        }
    }

    /// Allocate a sort key for an event kept *outside* the queue.
    ///
    /// Some event sources (e.g. per-station timers, of which at most one is
    /// live per station) are cheaper to keep in their owner's slot than in
    /// the shared queue. To let such external events interleave
    /// deterministically with queued ones, this draws an insertion sequence
    /// number from the same counter [`schedule`](Self::schedule) uses and
    /// packs it with `priority` exactly as queued entries are. The caller
    /// passes `(time, key)` tuples to [`pop_next`](Self::pop_next) (or
    /// compares against [`peek_key`](Self::peek_key)) to decide which side
    /// fires next; the combined order is identical to having queued
    /// everything.
    pub fn alloc_key(&mut self, priority: u8) -> u64 {
        let seq = self.next_seq;
        assert!(seq <= SEQ_MAX, "event sequence space exhausted");
        self.next_seq += 1;
        (priority as u64) << 56 | seq
    }

    /// Drop cancelled entries off the head of the FEL so the next peek/pop
    /// sees a live event. The single home of the drain loop — every
    /// public entry point (pop, peeks, fused dispatch) goes through here,
    /// so each [`Fel`] implements plain storage and nothing else.
    #[inline]
    fn drain_cancelled(&mut self) {
        // The emptiness guard keeps the common no-cancellations case free
        // of any hashing on the hottest loop in the simulator.
        if self.cancelled.is_empty() {
            return;
        }
        while let Some((time, pseq)) = self.fel.peek() {
            if !self.cancelled.remove(&(pseq & SEQ_MAX)) {
                break;
            }
            self.fel.pop();
            self.note_removed(time, pseq);
            if self.cancelled.is_empty() {
                break;
            }
        }
    }

    /// `(time, sort key)` of the next live queued event without removing
    /// it. The key is comparable with values from
    /// [`alloc_key`](Self::alloc_key): among same-time events, smaller key
    /// fires first.
    pub fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        self.drain_cancelled();
        self.fel.peek()
    }

    /// Advance the queue's notion of "now" to `time` on behalf of an event
    /// delivered from outside the queue (see [`alloc_key`](Self::alloc_key)).
    ///
    /// # Panics
    /// Panics if `time` would move time backwards.
    pub fn advance_to(&mut self, time: SimTime) {
        assert!(
            time >= self.watermark,
            "advancing to {time:?} before current time {:?}",
            self.watermark
        );
        self.watermark = time;
    }

    /// Remove and return the next live event, or `None` if the queue is
    /// drained.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.drain_cancelled();
        let (time, pseq, payload) = self.fel.pop()?;
        self.note_removed(time, pseq);
        self.watermark = time;
        self.stats.popped += 1;
        Some((time, payload))
    }

    /// The fused dispatch step: decide between the queue head and an
    /// optional external candidate `(time, key)` (keyed via
    /// [`alloc_key`](Self::alloc_key)), fire whichever sorts first if it
    /// is at or before `horizon`, and advance "now" accordingly — one
    /// entry point replacing the peek-compare-pop-advance dance (and its
    /// repeated cancelled-head drains) in the caller's run loop.
    ///
    /// # Panics
    /// Panics if the external candidate fires and its time precedes "now"
    /// (the same causality rule as [`advance_to`](Self::advance_to)).
    pub fn pop_next(&mut self, external: Option<(SimTime, u64)>, horizon: SimTime) -> NextFire<E> {
        self.drain_cancelled();
        let head = self.fel.peek();
        let queued_wins = match (head, external) {
            (None, None) => return NextFire::Idle,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            // Keys are globally unique, so strict comparison is total.
            (Some(h), Some(x)) => h < x,
        };
        if queued_wins {
            let (time, _) = head.expect("queued winner without head");
            if time > horizon {
                return NextFire::Idle;
            }
            let (time, pseq, payload) = self.fel.pop().expect("peeked head vanished");
            self.note_removed(time, pseq);
            self.watermark = time;
            self.stats.popped += 1;
            NextFire::Queued(time, pseq, payload)
        } else {
            let (time, _) = external.expect("external winner without candidate");
            if time > horizon {
                return NextFire::Idle;
            }
            assert!(
                time >= self.watermark,
                "external event at {time:?} before current time {:?}",
                self.watermark
            );
            self.watermark = time;
            NextFire::External(time)
        }
    }

    /// Time of the next live event without removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.peek_key().map(|(time, _)| time)
    }

    /// Number of live (non-cancelled) events still queued. Exact: the
    /// cancelled set only ever holds still-queued events (see
    /// [`cancel`](Self::cancel)).
    pub fn len(&self) -> usize {
        self.fel.len() - self.cancelled.len()
    }

    /// `true` iff no live events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The time of the most recently popped event (the simulation "now").
    pub fn now(&self) -> SimTime {
        self.watermark
    }

    /// Operation counters since construction.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }
}

impl<E: Eq, F: Fel<E>> Default for EventQueue<E, F> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    /// Run the same closure against a ladder-backed and a heap-backed
    /// queue; unit invariants must hold for both backends.
    fn on_both(f: impl Fn(&mut dyn QueueOps)) {
        f(&mut EventQueue::<&'static str, LadderQueue<_>>::new());
        f(&mut EventQueue::<&'static str, HeapQueue<_>>::new());
    }

    /// Object-safe subset used by [`on_both`] tests.
    trait QueueOps {
        fn schedule(&mut self, time: SimTime, payload: &'static str) -> EventId;
        fn schedule_prio(&mut self, time: SimTime, prio: u8, payload: &'static str) -> EventId;
        fn cancel(&mut self, id: EventId);
        fn pop(&mut self) -> Option<(SimTime, &'static str)>;
        fn peek_time(&mut self) -> Option<SimTime>;
        fn len(&self) -> usize;
        fn is_empty(&self) -> bool;
    }

    impl<F: Fel<&'static str>> QueueOps for EventQueue<&'static str, F> {
        fn schedule(&mut self, time: SimTime, payload: &'static str) -> EventId {
            EventQueue::schedule(self, time, payload)
        }
        fn schedule_prio(&mut self, time: SimTime, prio: u8, payload: &'static str) -> EventId {
            self.schedule_with_priority(time, prio, payload)
        }
        fn cancel(&mut self, id: EventId) {
            EventQueue::cancel(self, id)
        }
        fn pop(&mut self) -> Option<(SimTime, &'static str)> {
            EventQueue::pop(self)
        }
        fn peek_time(&mut self) -> Option<SimTime> {
            EventQueue::peek_time(self)
        }
        fn len(&self) -> usize {
            EventQueue::len(self)
        }
        fn is_empty(&self) -> bool {
            EventQueue::is_empty(self)
        }
    }

    #[test]
    fn pops_in_time_order() {
        on_both(|q| {
            q.schedule(t(30), "c");
            q.schedule(t(10), "a");
            q.schedule(t(20), "b");
            assert_eq!(q.pop(), Some((t(10), "a")));
            assert_eq!(q.pop(), Some((t(20), "b")));
            assert_eq!(q.pop(), Some((t(30), "c")));
            assert_eq!(q.pop(), None);
        });
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::<u32>::new();
        for i in 0..100u32 {
            q.schedule(t(5), i);
        }
        for i in 0..100u32 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn cancellation_skips_events() {
        on_both(|q| {
            let a = q.schedule(t(1), "a");
            q.schedule(t(2), "b");
            q.cancel(a);
            assert_eq!(q.len(), 1);
            assert_eq!(q.pop(), Some((t(2), "b")));
            assert!(q.is_empty());
        });
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        on_both(|q| {
            let a = q.schedule(t(1), "a");
            assert_eq!(q.pop(), Some((t(1), "a")));
            q.cancel(a); // must not panic or affect later events
            assert_eq!(q.len(), 0, "cancel-after-fire must not leak into len");
            assert!(q.is_empty());
            q.schedule(t(2), "b");
            assert_eq!(q.len(), 1, "a live event after a stale cancel");
            assert!(!q.is_empty());
            assert_eq!(q.pop(), Some((t(2), "b")));
            assert!(q.is_empty());
        });
    }

    #[test]
    fn double_cancel_counts_once() {
        on_both(|q| {
            let a = q.schedule(t(1), "a");
            q.schedule(t(2), "b");
            q.cancel(a);
            q.cancel(a); // second cancel of the same id
            assert_eq!(q.len(), 1);
            assert_eq!(q.pop(), Some((t(2), "b")));
            assert!(q.is_empty());
        });
    }

    #[test]
    fn cancel_after_lazy_drain_is_noop() {
        on_both(|q| {
            let a = q.schedule(t(1), "a");
            q.schedule(t(2), "b");
            q.cancel(a);
            // Peeking drains the cancelled head; a re-cancel of the drained
            // id must not corrupt the live count.
            assert_eq!(q.peek_time(), Some(t(2)));
            q.cancel(a);
            assert_eq!(q.len(), 1);
            assert_eq!(q.pop(), Some((t(2), "b")));
            assert!(q.is_empty());
        });
    }

    #[test]
    fn peek_time_sees_through_cancelled_head() {
        on_both(|q| {
            let a = q.schedule(t(1), "a");
            q.schedule(t(2), "b");
            q.cancel(a);
            assert_eq!(q.peek_time(), Some(t(2)));
            assert_eq!(q.pop(), Some((t(2), "b")));
        });
    }

    #[test]
    fn now_tracks_last_pop() {
        let mut q = EventQueue::<()>::new();
        q.schedule(t(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), t(7));
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::<()>::new();
        q.schedule(t(10), ());
        q.pop();
        q.schedule(t(5), ());
    }

    #[test]
    fn lower_priority_value_fires_first_at_same_instant() {
        on_both(|q| {
            q.schedule_prio(t(5), 100, "timer");
            q.schedule_prio(t(5), 0, "delivery");
            assert_eq!(q.pop(), Some((t(5), "delivery")));
            assert_eq!(q.pop(), Some((t(5), "timer")));
        });
    }

    #[test]
    fn priority_does_not_override_time() {
        on_both(|q| {
            q.schedule_prio(t(10), 0, "late-but-urgent");
            q.schedule_prio(t(5), 255, "early-but-lazy");
            assert_eq!(q.pop(), Some((t(5), "early-but-lazy")));
            assert_eq!(q.pop(), Some((t(10), "late-but-urgent")));
        });
    }

    #[test]
    fn alloc_key_interleaves_with_queued_events() {
        // An external event with a key drawn between two schedules must
        // sort between them at the same instant.
        let mut q = EventQueue::<&str>::new();
        q.schedule(t(5), "first");
        let external = q.alloc_key(EventQueue::<&str>::DEFAULT_PRIORITY);
        q.schedule(t(5), "third");
        let (time, key) = q.peek_key().unwrap();
        assert_eq!(time, t(5));
        assert!(key < external, "earlier schedule fires before external");
        assert_eq!(q.pop(), Some((t(5), "first")));
        let (_, key2) = q.peek_key().unwrap();
        assert!(external < key2, "external fires before later schedule");
    }

    #[test]
    fn alloc_key_priority_orders_same_instant() {
        let mut q = EventQueue::<()>::new();
        let lazy = q.alloc_key(255);
        let urgent = q.alloc_key(0);
        // Lower priority byte dominates even though it was allocated later.
        assert!(urgent < lazy);
    }

    #[test]
    fn peek_key_sees_through_cancelled_head() {
        let mut q = EventQueue::<&str>::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        q.cancel(a);
        assert_eq!(q.peek_key().map(|(time, _)| time), Some(t(2)));
    }

    #[test]
    fn advance_to_moves_now_forward() {
        let mut q = EventQueue::<()>::new();
        q.advance_to(t(9));
        assert_eq!(q.now(), t(9));
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn advance_to_rejects_time_travel() {
        let mut q = EventQueue::<()>::new();
        q.advance_to(t(9));
        q.advance_to(t(3));
    }

    #[test]
    fn same_time_as_now_is_allowed() {
        // Zero-delay self-scheduling is legal (e.g. null turnaround).
        let mut q = EventQueue::<&str>::new();
        q.schedule(t(10), "x");
        q.pop();
        q.schedule(t(10), "y");
        assert_eq!(q.pop(), Some((t(10), "y")));
    }

    #[test]
    fn pop_next_prefers_earlier_side() {
        let mut q = EventQueue::<&str>::new();
        let queued = q.schedule(t(10), "queued");
        let k = q.alloc_key(EventQueue::<&str>::DEFAULT_PRIORITY);
        // External at t=5 beats the queued t=10 event.
        assert_eq!(
            q.pop_next(Some((t(5), k)), t(100)),
            NextFire::External(t(5))
        );
        assert_eq!(q.now(), t(5));
        // With the external consumed, the queued event fires with its key.
        assert_eq!(
            q.pop_next(None, t(100)),
            NextFire::Queued(t(10), queued.pseq, "queued")
        );
        assert_eq!(q.now(), t(10));
        assert_eq!(q.pop_next(None, t(100)), NextFire::Idle);
    }

    #[test]
    fn pop_next_same_instant_orders_by_key() {
        let mut q = EventQueue::<&str>::new();
        let first = q.schedule(t(5), "first");
        let external = q.alloc_key(EventQueue::<&str>::DEFAULT_PRIORITY);
        let third = q.schedule(t(5), "third");
        assert!(first.pseq < external && external < third.pseq);
        assert_eq!(
            q.pop_next(Some((t(5), external)), t(100)),
            NextFire::Queued(t(5), first.pseq, "first")
        );
        assert_eq!(
            q.pop_next(Some((t(5), external)), t(100)),
            NextFire::External(t(5))
        );
        assert_eq!(
            q.pop_next(None, t(100)),
            NextFire::Queued(t(5), third.pseq, "third")
        );
    }

    #[test]
    fn pop_next_respects_horizon() {
        let mut q = EventQueue::<&str>::new();
        let late = q.schedule(t(50), "late");
        assert_eq!(q.pop_next(None, t(10)), NextFire::Idle);
        assert_eq!(q.len(), 1, "beyond-horizon event stays queued");
        let k = q.alloc_key(EventQueue::<&str>::DEFAULT_PRIORITY);
        assert_eq!(q.pop_next(Some((t(40), k)), t(10)), NextFire::Idle);
        assert_eq!(
            q.pop_next(None, t(50)),
            NextFire::Queued(t(50), late.pseq, "late")
        );
    }

    #[test]
    fn pop_next_drains_cancelled_heads() {
        let mut q = EventQueue::<&str>::new();
        let a = q.schedule(t(1), "a");
        let b = q.schedule(t(2), "b");
        q.cancel(a);
        assert_eq!(
            q.pop_next(None, t(100)),
            NextFire::Queued(t(2), b.pseq, "b")
        );
    }

    #[test]
    fn stats_track_operations() {
        let mut q = EventQueue::<&str>::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        q.schedule(t(3), "c");
        assert_eq!(q.stats().high_water, 3);
        q.cancel(a);
        q.pop();
        q.pop();
        let s = q.stats();
        assert_eq!(s.scheduled, 3);
        assert_eq!(s.popped, 2);
        assert_eq!(s.cancelled, 1);
        assert_eq!(s.high_water, 3);
        // A stale cancel is not an effective cancellation.
        q.cancel(a);
        assert_eq!(q.stats().cancelled, 1);
    }

    #[test]
    fn ladder_handles_long_horizons_through_overflow() {
        // Mix of near (µs) and far (seconds) horizons: the far events must
        // migrate from the overflow tier in exact order. Enough events to
        // leave bootstrap and exercise the ring.
        let mut q = EventQueue::<u64>::new();
        let mut expect: Vec<(u64, u64)> = Vec::new();
        for i in 0..500u64 {
            let ns = if i % 7 == 0 {
                i * 1_000_000_000
            } else {
                i * 900 + 1
            };
            q.schedule(SimTime::from_nanos(ns), i);
            expect.push((ns, i));
        }
        expect.sort_unstable();
        for (ns, i) in expect {
            assert_eq!(q.pop(), Some((SimTime::from_nanos(ns), i)));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ladder_zero_delay_reschedule_during_consumption() {
        // Schedule into the window currently being consumed: the new event
        // must sorted-insert into `current` and fire in key order.
        let mut q = EventQueue::<&str>::new();
        for _ in 0..LADDER_BOOT_SAMPLES {
            q.schedule(t(1), "boot");
        }
        for _ in 0..LADDER_BOOT_SAMPLES {
            q.pop();
        }
        q.schedule(t(2), "x");
        q.schedule(t(4), "z");
        assert_eq!(q.pop(), Some((t(2), "x")));
        // Now inside the window containing t(2)..; schedule at t(3).
        q.schedule(t(3), "y");
        assert_eq!(q.pop(), Some((t(3), "y")));
        assert_eq!(q.pop(), Some((t(4), "z")));
    }
}
