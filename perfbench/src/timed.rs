//! Timing wrappers around the simulator's public layer traits.
//!
//! [`TimedMedium`] implements [`Medium`] by forwarding every call to an
//! inner medium, and [`Timed`] is a [`FelChoice`] family whose queues
//! forward to the inner family's. Both record each call in the
//! thread-local [`crate::ledger`], so a benchmark can attribute time to
//! the medium and the future-event list without a line of code inside
//! either layer. They are transparent: a network built on them produces
//! the same `RunReport`, bit for bit, as one built on the inner types
//! (see `tests/transparency.rs`).

use std::marker::PhantomData;

use macaw_phy::{Delivery, Medium, MediumStats, Point, Propagation, SparseMedium, StationId, TxId};
use macaw_sim::{Fel, FelChoice, LadderFel, SimRng, SimTime};

use crate::ledger::{note_moves, record, Op};

/// A [`Medium`] that counts every call into `M` and times a sample of them.
pub struct TimedMedium<M = SparseMedium> {
    inner: M,
}

impl<M: Medium> Medium for TimedMedium<M> {
    fn new(prop: Propagation, rng: SimRng) -> Self {
        TimedMedium {
            inner: M::new(prop, rng),
        }
    }

    fn propagation(&self) -> &Propagation {
        self.inner.propagation()
    }

    // Station registration is scenario build, not per-event work: it is
    // forwarded untimed and left to the build stopwatch.
    fn add_station(&mut self, pos: Point) -> StationId {
        self.inner.add_station(pos)
    }

    fn station_count(&self) -> usize {
        self.inner.station_count()
    }

    fn position(&self, id: StationId) -> Point {
        record(Op::Query, || self.inner.position(id))
    }

    fn set_rx_error_rate(&mut self, id: StationId, p: f64) {
        record(Op::Other, || self.inner.set_rx_error_rate(id, p))
    }

    fn set_tx_power(&mut self, id: StationId, power: f64) {
        record(Op::Other, || self.inner.set_tx_power(id, power))
    }

    fn hears(&self, to: StationId, from: StationId) -> bool {
        record(Op::Query, || self.inner.hears(to, from))
    }

    fn set_link_gain(&mut self, src: StationId, dst: StationId, factor: f64) {
        record(Op::Other, || self.inner.set_link_gain(src, dst, factor))
    }

    fn link_gain(&self, src: StationId, dst: StationId) -> f64 {
        record(Op::Query, || self.inner.link_gain(src, dst))
    }

    fn add_noise_source(&mut self, pos: Point, power: f64) -> usize {
        record(Op::Other, || self.inner.add_noise_source(pos, power))
    }

    fn set_noise_active(&mut self, index: usize, active: bool) {
        record(Op::Other, || self.inner.set_noise_active(index, active))
    }

    fn set_position(&mut self, id: StationId, pos: Point) {
        note_moves(1);
        record(Op::Move, || self.inner.set_position(id, pos))
    }

    fn set_positions(&mut self, moves: &[(StationId, Point)]) {
        note_moves(moves.len());
        record(Op::Move, || self.inner.set_positions(moves))
    }

    fn in_range(&self, a: StationId, b: StationId) -> bool {
        record(Op::Query, || self.inner.in_range(a, b))
    }

    fn is_transmitting(&self, id: StationId) -> bool {
        record(Op::Query, || self.inner.is_transmitting(id))
    }

    fn carrier_busy(&self, id: StationId) -> bool {
        record(Op::Query, || self.inner.carrier_busy(id))
    }

    fn active_count(&self) -> usize {
        record(Op::Query, || self.inner.active_count())
    }

    fn start_tx(&mut self, source: StationId, now: SimTime) -> TxId {
        record(Op::StartTx, || self.inner.start_tx(source, now))
    }

    fn end_tx_into(&mut self, tx: TxId, now: SimTime, out: &mut Vec<Delivery>) {
        record(Op::EndTx, || self.inner.end_tx_into(tx, now, out))
    }

    fn tx_start(&self, tx: TxId) -> Option<SimTime> {
        record(Op::Query, || self.inner.tx_start(tx))
    }

    fn tx_source(&self, tx: TxId) -> Option<StationId> {
        record(Op::Query, || self.inner.tx_source(tx))
    }

    fn memory_footprint(&self) -> usize {
        self.inner.memory_footprint()
    }

    fn medium_stats(&self) -> MediumStats {
        self.inner.medium_stats()
    }
}

/// A [`FelChoice`] family whose queues count every call into `Q`'s and
/// time a sample of them.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timed<Q = LadderFel>(PhantomData<Q>);

impl<Q: FelChoice> FelChoice for Timed<Q> {
    type Fel<E> = TimedFel<Q::Fel<E>>;
}

/// The queue of the [`Timed`] family.
#[derive(Default)]
pub struct TimedFel<F> {
    inner: F,
}

impl<E, F: Fel<E>> Fel<E> for TimedFel<F> {
    fn push(&mut self, time: SimTime, pseq: u64, payload: E) {
        record(Op::FelPush, || self.inner.push(time, pseq, payload))
    }

    fn pop(&mut self) -> Option<(SimTime, u64, E)> {
        record(Op::FelPop, || self.inner.pop())
    }

    fn peek(&mut self) -> Option<(SimTime, u64)> {
        record(Op::FelPeek, || self.inner.peek())
    }

    fn len(&self) -> usize {
        self.inner.len()
    }
}
