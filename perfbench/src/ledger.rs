//! Per-thread operation ledger for the timing wrappers.
//!
//! Every wrapped call bumps an exact per-class call count. Call *time* is
//! sampled: a cheap per-thread LCG picks one call in [`SAMPLE_EVERY`] of
//! the hot classes (FEL and medium start/end/query, millions of calls per
//! run), while the rare heavy classes (station moves, reconfiguration)
//! are timed on every call. A class's time is estimated as its mean
//! sampled call time, less the calibrated cost of reading the clock,
//! times its exact call count.
//!
//! The ledger is thread-local, so each executor worker keeps its own; a
//! caller takes a [`snapshot`] before and after the work it attributes
//! and keeps the difference ([`Ledger::since`]).

use std::cell::Cell;
use std::time::Instant;

/// One in this many hot-class calls is timed.
pub const SAMPLE_EVERY: u64 = 16;

/// A class of wrapped call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    FelPush,
    FelPop,
    FelPeek,
    StartTx,
    EndTx,
    /// `set_position` / `set_positions` invocations.
    Move,
    /// Read-only per-event medium queries.
    Query,
    /// Run-time medium reconfiguration (power, link gain, noise, error rate).
    Other,
}

/// Number of [`Op`] classes.
pub const OPS: usize = 8;

impl Op {
    fn always_timed(self) -> bool {
        matches!(self, Op::Move | Op::Other)
    }
}

/// Exact calls plus the sampled subset's summed wall time.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct OpStat {
    pub calls: u64,
    pub sampled: u64,
    pub sampled_ns: u64,
}

impl OpStat {
    /// Estimated total seconds spent in this class: the mean sampled call
    /// time, less `timer_ns` (the clock-read cost inside every sample),
    /// times the exact call count.
    pub fn est_secs(&self, timer_ns: f64) -> f64 {
        if self.sampled == 0 {
            return 0.0;
        }
        let per_call = (self.sampled_ns as f64 / self.sampled as f64 - timer_ns).max(0.0);
        per_call * self.calls as f64 / 1e9
    }
}

/// A copy of one thread's counters.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct Ledger {
    pub ops: [OpStat; OPS],
    /// Station moves applied: one per `set_position` call or batch entry.
    pub move_entries: u64,
}

impl Ledger {
    pub fn op(&self, op: Op) -> OpStat {
        self.ops[op as usize]
    }

    /// Counters accumulated since `before` (a snapshot of the same thread).
    pub fn since(&self, before: &Ledger) -> Ledger {
        let mut out = *self;
        for (o, b) in out.ops.iter_mut().zip(&before.ops) {
            o.calls -= b.calls;
            o.sampled -= b.sampled;
            o.sampled_ns -= b.sampled_ns;
        }
        out.move_entries -= before.move_entries;
        out
    }

    /// Add another ledger's counters (e.g. another worker's).
    pub fn add(&mut self, o: &Ledger) {
        for (a, b) in self.ops.iter_mut().zip(&o.ops) {
            a.calls += b.calls;
            a.sampled += b.sampled;
            a.sampled_ns += b.sampled_ns;
        }
        self.move_entries += o.move_entries;
    }
}

struct Cells {
    calls: [Cell<u64>; OPS],
    sampled: [Cell<u64>; OPS],
    ns: [Cell<u64>; OPS],
    move_entries: Cell<u64>,
    lcg: Cell<u64>,
}

thread_local! {
    static CELLS: Cells = const {
        Cells {
            calls: [const { Cell::new(0) }; OPS],
            sampled: [const { Cell::new(0) }; OPS],
            ns: [const { Cell::new(0) }; OPS],
            move_entries: Cell::new(0),
            lcg: Cell::new(0x9E37_79B9_7F4A_7C15),
        }
    };
}

fn bump(c: &Cell<u64>, by: u64) {
    c.set(c.get() + by);
}

/// Run `f` as one call of class `op`: count it, and time it if sampled.
#[inline]
pub fn record<R>(op: Op, f: impl FnOnce() -> R) -> R {
    CELLS.with(|c| {
        let i = op as usize;
        bump(&c.calls[i], 1);
        let sample = op.always_timed() || {
            let x = c
                .lcg
                .get()
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            c.lcg.set(x);
            (x >> 32) % SAMPLE_EVERY == 0
        };
        if !sample {
            return f();
        }
        let t = Instant::now();
        let r = f();
        bump(&c.ns[i], t.elapsed().as_nanos() as u64);
        bump(&c.sampled[i], 1);
        r
    })
}

/// Count `n` station moves (the entries of one move call).
pub fn note_moves(n: usize) {
    CELLS.with(|c| bump(&c.move_entries, n as u64));
}

/// This thread's counters so far.
pub fn snapshot() -> Ledger {
    CELLS.with(|c| {
        let mut l = Ledger {
            move_entries: c.move_entries.get(),
            ..Ledger::default()
        };
        for (i, o) in l.ops.iter_mut().enumerate() {
            *o = OpStat {
                calls: c.calls[i].get(),
                sampled: c.sampled[i].get(),
                sampled_ns: c.ns[i].get(),
            };
        }
        l
    })
}

/// Median cost in ns of an empty timed region (`Instant::now` plus
/// `elapsed`), subtracted from every sampled call.
pub fn timer_overhead_ns() -> f64 {
    let mut v: Vec<u64> = (0..2001)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(());
            t.elapsed().as_nanos() as u64
        })
        .collect();
    v.sort_unstable();
    v[v.len() / 2] as f64
}
