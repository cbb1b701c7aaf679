//! A scripted [`MacContext`] for unit-testing MAC state machines in
//! isolation — no radio, no event loop, just a controllable clock and a
//! recording of everything the MAC asked for.
//!
//! Used heavily by this crate's own tests; exported because downstream
//! users writing new protocol variants need exactly the same scaffolding.

use macaw_sim::{SimDuration, SimRng, SimTime};

use crate::context::{MacContext, MacFeedback, MacProtocol};
use crate::frames::{Addr, Frame, MacSdu};

/// Everything a MAC did through its context, in order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Action {
    /// `transmit(frame)` was called.
    Transmit(Frame),
    /// A packet was delivered upward.
    DeliverUp { src: Addr, sdu: MacSdu },
    /// A feedback event was reported.
    Feedback(MacFeedback),
}

/// Scripted context: the test controls time, carrier state and the RNG seed,
/// and inspects the recorded [`Action`]s and timer state afterwards.
///
/// `Clone` clones the full context — clock, RNG position, timer, recorded
/// actions — so a state-space explorer can fork a station mid-run and
/// drive the copies down different interleavings.
#[derive(Clone)]
pub struct ScriptedContext {
    now: SimTime,
    rng: SimRng,
    /// Pending timer deadline, if armed.
    pub timer: Option<SimTime>,
    /// What the carrier-sense query should report.
    pub carrier: bool,
    /// Everything the MAC did, in order.
    pub actions: Vec<Action>,
    /// Number of `set_timer` calls. Every set is a decrease-key write into
    /// the engine's timer index, so tests assert on this to bound a MAC's
    /// re-arm traffic, not just its final timer state.
    pub timer_sets: u64,
    /// Number of `clear_timer` calls (whether or not a timer was armed).
    pub timer_clears: u64,
}

impl ScriptedContext {
    /// New context at t = 0 with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        ScriptedContext {
            now: SimTime::ZERO,
            rng: SimRng::new(seed),
            timer: None,
            carrier: false,
            actions: Vec::new(),
            timer_sets: 0,
            timer_clears: 0,
        }
    }

    /// Advance the clock (must move forward).
    pub fn advance_to(&mut self, t: SimTime) {
        assert!(t >= self.now, "clock must not go backwards");
        self.now = t;
    }

    /// Digest of the RNG stream position (see [`SimRng::digest`]): equal
    /// digests (same seed) mean identical future draws, so explorers fold
    /// this into canonical-state hashes.
    pub fn rng_digest(&self) -> u64 {
        self.rng.digest()
    }

    /// Advance the clock to the pending timer deadline and clear it,
    /// returning `true` if a timer was armed. The caller then invokes the
    /// MAC's `on_timer`.
    pub fn fire_timer(&mut self) -> bool {
        match self.timer.take() {
            Some(t) => {
                self.advance_to(t);
                true
            }
            None => false,
        }
    }

    /// The frames transmitted so far.
    pub fn transmitted(&self) -> Vec<&Frame> {
        self.actions
            .iter()
            .filter_map(|a| match a {
                Action::Transmit(f) => Some(f),
                _ => None,
            })
            .collect()
    }

    /// The last transmitted frame, if any.
    pub fn last_tx(&self) -> Option<&Frame> {
        self.transmitted().last().copied()
    }

    /// Packets delivered upward so far.
    pub fn delivered(&self) -> Vec<(Addr, MacSdu)> {
        self.actions
            .iter()
            .filter_map(|a| match a {
                Action::DeliverUp { src, sdu } => Some((*src, *sdu)),
                _ => None,
            })
            .collect()
    }

    /// Feedback events reported so far.
    pub fn feedback_events(&self) -> Vec<MacFeedback> {
        self.actions
            .iter()
            .filter_map(|a| match a {
                Action::Feedback(f) => Some(*f),
                _ => None,
            })
            .collect()
    }

    /// Crash-and-wipe `mac` the way the fault layer does: the pending timer
    /// is disarmed (a dead station's timer never fires) and the MAC's
    /// volatile state is reset via [`MacProtocol::reset`]. The recorded
    /// action history is kept — it belongs to the test, not the station.
    pub fn crash(&mut self, mac: &mut dyn MacProtocol, preserve_queues: bool) {
        self.timer = None;
        mac.reset(preserve_queues);
    }
}

impl MacContext for ScriptedContext {
    fn now(&self) -> SimTime {
        self.now
    }

    fn set_timer(&mut self, delay: SimDuration) {
        self.timer_sets += 1;
        self.timer = Some(self.now + delay);
    }

    fn clear_timer(&mut self) {
        self.timer_clears += 1;
        self.timer = None;
    }

    fn transmit(&mut self, frame: Frame) {
        self.actions.push(Action::Transmit(frame));
    }

    fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    fn carrier_busy(&self) -> bool {
        self.carrier
    }

    fn deliver_up(&mut self, src: Addr, sdu: MacSdu) {
        self.actions.push(Action::DeliverUp { src, sdu });
    }

    fn feedback(&mut self, event: MacFeedback) {
        self.actions.push(Action::Feedback(event));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_write_counters_track_every_call() {
        let mut ctx = ScriptedContext::new(1);
        ctx.set_timer(SimDuration::from_micros(10));
        ctx.set_timer(SimDuration::from_micros(20)); // re-arm overwrites
        assert_eq!(
            ctx.timer,
            Some(SimTime::ZERO + SimDuration::from_micros(20))
        );
        assert_eq!(ctx.timer_sets, 2);
        ctx.clear_timer();
        ctx.clear_timer(); // clearing an unarmed timer still counts the call
        assert_eq!(ctx.timer, None);
        assert_eq!(ctx.timer_clears, 2);
        // Firing consumes the deadline without counting as a write.
        ctx.set_timer(SimDuration::from_micros(5));
        assert!(ctx.fire_timer());
        assert_eq!((ctx.timer_sets, ctx.timer_clears), (3, 2));
    }
}
