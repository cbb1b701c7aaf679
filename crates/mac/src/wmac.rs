//! The MACA/MACAW protocol state machine.
//!
//! One implementation covers the paper's whole protocol line; the
//! [`MacConfig`] toggles select which variant runs:
//!
//! * Appendix A MACA: `MacConfig::maca()` — RTS-CTS-DATA, BEB, no sharing,
//!   single FIFO.
//! * Appendix B MACAW: `MacConfig::macaw()` — RTS-CTS-DS-DATA-ACK, RRTS,
//!   MILD with per-destination sharing, per-stream queues.
//!
//! # State machine
//!
//! States follow the appendices. The `WFContend` state of Appendix B is
//! folded into `Quiet`: hearing further control traffic while deferring
//! extends the quiet period (Appendix B control rules 9–11), and when the
//! quiet timer finally fires the station contends if it has work.
//!
//! Sender path:   `Idle → Contend → SendRts → WfCts → [SendDs →] SendData
//! [→ WfAck] → Idle`.
//! Receiver path: `Idle → SendCts → [WfDs →] WfData → [SendAck →] Idle`.
//! Receiver-initiated path (§3.3.3): a station that received an RTS while
//! deferring contends later on the sender's behalf: `Contend → SendRrts →
//! WfRts → SendCts → …`.
//! Multicast (§3.3.4): `Contend → SendMcastRts → SendMcastData → Idle`
//! with no CTS/ACK.
//!
//! # Deferral ("Defer rules")
//!
//! Overheard control frames set the quiet timer:
//! RTS → one CTS time (the overhearer must not clobber the returning CTS);
//! CTS → the announced data transmission (plus DS/ACK when configured);
//! DS → data + ACK; RRTS → two slots. These follow §3.3 and Appendix A;
//! Appendix B's defer rule 1 (RTS implies a full-data defer) is *not* used
//! because it would make the DS packet redundant, contradicting §3.3.2's
//! explicit finding that the DS packet is what fixes the Figure-5 exposed
//! terminal configuration.

use std::cmp::Ordering;
use std::collections::VecDeque;

use macaw_sim::SimTime;

use crate::backoff::{Backoff, BackoffSnapshot};
use crate::config::{MacConfig, QueueMode};
use crate::context::{
    cmp_seq, MacContext, MacFeedback, MacInvariantViolation, MacProtocol, MacResult,
    MacSnapshot, Relabeling, StableOrder,
};
use crate::frames::{Addr, Frame, FrameKind, MacSdu, StreamId};

/// A queued upper-layer packet with its retransmission bookkeeping.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
struct Packet {
    dst: Addr,
    sdu: MacSdu,
    retries: u32,
    /// Exchange sequence number; assigned at the first RTS so
    /// retransmissions are recognizable.
    esn: Option<u64>,
    /// The pending *retransmission* draw (slots). §3: "Retransmissions are
    /// scheduled an integer number of slot times after the end of the last
    /// defer period" — the retransmission keeps its drawn slot across defer
    /// periods (each deferral re-anchors the countdown but does not redraw
    /// it), while a packet's *first* attempt draws a fresh timer whenever
    /// the station enters CONTEND (Appendix A control rule 1). This
    /// persistence is what makes BEB's capture effect (Table 1) total: a
    /// backed-off loser whose retransmission drew a high slot keeps losing
    /// to a minimally backed-off winner indefinitely.
    draw: Option<u64>,
}

/// One transmit queue (the whole station in `SingleFifo` mode, one stream in
/// `PerStream` mode).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
struct QueueSlot {
    key: Option<(Addr, StreamId)>,
    q: VecDeque<Packet>,
}

/// What the station decided to transmit when the contention timer fires.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
enum ContendFor {
    /// Service the head packet of queue `slot`.
    Data { slot: usize },
    /// Contend on behalf of a blocked sender (§3.3.3).
    Rrts { peer: Addr },
}

/// Protocol state (Appendices A and B).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
enum State {
    Idle,
    /// Contention timer armed; transmit when it fires.
    Contend { what: ContendFor },
    /// Deferring to someone else's exchange until `until`.
    Quiet { until: SimTime },
    /// Transmitting an RTS; `current` says for which queue.
    SendRts,
    /// RTS sent, waiting for the CTS (timer armed).
    WfCts,
    /// Transmitting a DS.
    SendDs,
    /// Transmitting the DATA packet.
    SendData,
    /// DATA sent, waiting for the link ACK (timer armed).
    WfAck,
    /// Transmitting a CTS in response to `peer`'s RTS.
    SendCts { peer: Addr, bytes: u32, esn: u64 },
    /// CTS sent, waiting for the DS (timer armed).
    WfDs { peer: Addr, bytes: u32, esn: u64 },
    /// Waiting for the DATA packet (timer armed).
    WfData { peer: Addr, bytes: u32, esn: u64 },
    /// Transmitting a link ACK.
    SendAck,
    /// Transmitting a NACK (§4 extension).
    SendNack,
    /// Transmitting an RRTS to `peer`.
    SendRrts { peer: Addr },
    /// RRTS sent, waiting for the triggered RTS (timer armed).
    WfRts { peer: Addr },
    /// Transmitting a multicast RTS (§3.3.4).
    SendMcastRts,
    /// Transmitting the multicast DATA.
    SendMcastData,
}

/// Per-station protocol counters (used by the statistics layer and tests).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MacStats {
    pub enqueued: u64,
    pub refused: u64,
    pub rts_sent: u64,
    pub cts_sent: u64,
    pub ds_sent: u64,
    pub data_sent: u64,
    pub ack_sent: u64,
    pub rrts_sent: u64,
    pub nack_sent: u64,
    pub rts_timeouts: u64,
    pub ack_timeouts: u64,
    pub data_delivered: u64,
    pub packets_sent_ok: u64,
    pub packets_dropped: u64,
}

/// The MACA/MACAW station state machine. See the module docs.
#[derive(Clone)]
pub struct WMac {
    addr: Addr,
    cfg: MacConfig,
    backoff: Backoff,
    slots: Vec<QueueSlot>,
    state: State,
    /// Queue slot currently being serviced by the sender path.
    current: Option<usize>,
    /// First RTS heard while deferring, to be answered with an RRTS.
    rrts_pending: Option<Addr>,
    /// Recently delivered (and ACKed) data ESNs per source, for the
    /// duplicate-RTS → re-ACK rule (Appendix B control rule 7). A window of
    /// ESNs (not just the last one) is required: with per-stream queues,
    /// exchanges from two streams to the same peer interleave, and a
    /// retransmission of the older exchange must still be recognized as a
    /// duplicate or the packet is delivered twice.
    /// Keyed by the peer's station index, kept ascending and sparse —
    /// stations we have never ACKed have no entry (a dense station-indexed
    /// table would grow to O(stations) per station at fleet scale).
    acked: Vec<(usize, VecDeque<u64>)>,
    /// In NACK mode (no link ACK): the most recent packet presumed
    /// delivered, kept so a returning NACK can resurrect it.
    nack_cache: Option<Packet>,
    /// Multicast groups this station belongs to.
    groups: Vec<u32>,
    stats: MacStats,
}

impl WMac {
    /// Create a station with MAC address `addr` (must be unicast).
    pub fn new(addr: Addr, cfg: MacConfig) -> Self {
        assert!(!addr.is_multicast(), "station address must be unicast");
        let backoff = Backoff::new(
            cfg.backoff_algo,
            cfg.backoff_sharing,
            cfg.bo_min,
            cfg.bo_max,
            cfg.alpha,
        );
        let slots = match cfg.queues {
            QueueMode::SingleFifo => vec![QueueSlot::default()],
            QueueMode::PerStream => Vec::new(),
        };
        WMac {
            addr,
            cfg,
            backoff,
            slots,
            state: State::Idle,
            current: None,
            rrts_pending: None,
            nack_cache: None,
            acked: Vec::new(),
            groups: Vec::new(),
            stats: MacStats::default(),
        }
    }

    /// This station's address.
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// Protocol counters.
    pub fn stats(&self) -> &MacStats {
        &self.stats
    }

    /// The active configuration.
    pub fn config(&self) -> &MacConfig {
        &self.cfg
    }

    /// Current station-wide backoff counter (diagnostics).
    pub fn backoff_counter(&self) -> u32 {
        self.backoff.my_backoff()
    }

    /// Join a multicast group.
    pub fn join_group(&mut self, group: u32) {
        if !self.groups.contains(&group) {
            self.groups.push(group);
        }
    }

    fn in_group(&self, group: u32) -> bool {
        self.groups.contains(&group)
    }

    /// Forget pending retransmission draws. Called whenever a backoff value
    /// is copied from an overheard packet: the retransmission delay is a
    /// function of the backoff counter, so an updated counter reschedules
    /// the retry. Without this, a retry drawn from a transiently huge
    /// window would freeze its stream long after copying restored a small
    /// counter — with sharing enabled the paper's results are fair, so
    /// stale draws must not outlive counter updates. (With sharing *off*
    /// nothing refreshes a loser's draw, which is precisely what makes
    /// BEB's capture in Table 1 total.)
    fn invalidate_draws(&mut self) {
        for s in &mut self.slots {
            if let Some(p) = s.q.front_mut() {
                p.draw = None;
            }
        }
    }

    // ------------------------------------------------------------------
    // Queues
    // ------------------------------------------------------------------

    fn slot_for(&mut self, dst: Addr, stream: StreamId) -> usize {
        match self.cfg.queues {
            QueueMode::SingleFifo => 0,
            QueueMode::PerStream => {
                if let Some(i) = self
                    .slots
                    .iter()
                    .position(|s| s.key == Some((dst, stream)))
                {
                    i
                } else {
                    self.slots.push(QueueSlot {
                        key: Some((dst, stream)),
                        q: VecDeque::new(),
                    });
                    self.slots.len() - 1
                }
            }
        }
    }

    fn head(&self, slot: usize) -> Option<&Packet> {
        self.slots[slot].q.front()
    }

    /// Build a typed invariant-violation report for the current state.
    fn violation(&self, detail: &str) -> MacInvariantViolation {
        MacInvariantViolation {
            station: self.addr,
            state: format!("{:?}", self.state),
            detail: detail.to_owned(),
        }
    }

    /// Finish the current packet (success or drop) and release the slot.
    fn finish_current(&mut self, ctx: &mut dyn MacContext, success: bool) -> MacResult {
        let Some(slot) = self.current.take() else {
            return Err(self.violation("finish_current with no current packet"));
        };
        let Some(pkt) = self.slots[slot].q.pop_front() else {
            return Err(self.violation("finish_current with an empty current slot"));
        };
        if success {
            self.stats.packets_sent_ok += 1;
            ctx.feedback(MacFeedback::Sent {
                stream: pkt.sdu.stream,
                transport_seq: pkt.sdu.transport_seq,
            });
        } else {
            self.stats.packets_dropped += 1;
            self.backoff.on_drop(pkt.dst);
            ctx.feedback(MacFeedback::Dropped {
                stream: pkt.sdu.stream,
                transport_seq: pkt.sdu.transport_seq,
            });
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Contention
    // ------------------------------------------------------------------

    /// If idle and there is work, enter CONTEND with a random timer
    /// ("a station randomly chooses, with uniform distribution, this integer
    /// between 1 and BO" slots, §3).
    fn maybe_contend(&mut self, ctx: &mut dyn MacContext) {
        if self.state != State::Idle {
            return;
        }
        // Gather candidates: every nonempty queue, plus a pending RRTS.
        // §3.2: "a random delay interval is chosen for each of the streams
        // and the stream with the earliest retry slot is chosen".
        let mut best: Option<(u64, ContendFor)> = None;
        for i in 0..self.slots.len() {
            let Some(pkt) = self.slots[i].q.front() else {
                continue;
            };
            let k = match pkt.draw {
                Some(k) => k,
                None => {
                    // Slots are drawn 0-based: a draw of 0 transmits at the
                    // defer-period boundary itself. §3's "between 1 and BO"
                    // counts slots inclusively from the boundary; the
                    // 0-based reading reproduces the paper's single-stream
                    // rates (Table 9) and the zero-width contention gaps
                    // that deny B1 in Table 7.
                    let window = self.backoff.window(pkt.dst).max(1) as u64;
                    let k = ctx.rng().uniform_inclusive(0, window - 1);
                    if pkt.retries > 0 {
                        // Retransmission: the draw persists across defers.
                        self.slots[i].q.front_mut().unwrap().draw = Some(k);
                    }
                    k
                }
            };
            if best.is_none_or(|(bk, _)| k < bk) {
                best = Some((k, ContendFor::Data { slot: i }));
            }
        }
        if let Some(peer) = self.rrts_pending {
            let window = self.backoff.window(peer).max(1) as u64;
            let k = ctx.rng().uniform_inclusive(0, window - 1);
            if best.is_none_or(|(bk, _)| k < bk) {
                best = Some((k, ContendFor::Rrts { peer }));
            }
        }
        let Some((k, what)) = best else { return };
        self.state = State::Contend { what };
        ctx.set_timer(self.cfg.slot() * k);
    }

    /// Enter / extend deferral until `until` (Defer rules; Appendix B
    /// control rules 9–11 fold `WFContend` into quiet extension).
    fn defer(&mut self, ctx: &mut dyn MacContext, until: SimTime) {
        match self.state {
            State::Idle | State::Contend { .. } => {
                self.state = State::Quiet { until };
                ctx.set_timer(until.since(ctx.now()));
            }
            State::Quiet { until: old } if until > old => {
                self.state = State::Quiet { until };
                ctx.set_timer(until.since(ctx.now()));
            }
            _ => {}
        }
    }

    fn defer_eligible(&self) -> bool {
        matches!(
            self.state,
            State::Idle | State::Contend { .. } | State::Quiet { .. }
        )
    }

    // ------------------------------------------------------------------
    // Frame construction
    // ------------------------------------------------------------------

    fn make(&self, kind: FrameKind, dst: Addr, data_bytes: u32, esn: u64) -> Frame {
        let mut backoff = self.backoff.header(dst);
        backoff.esn = esn;
        Frame {
            kind,
            src: self.addr,
            dst,
            data_bytes,
            backoff,
            payload: None,
        }
    }

    // ------------------------------------------------------------------
    // Sender-side actions
    // ------------------------------------------------------------------

    fn fire_contention(&mut self, ctx: &mut dyn MacContext, what: ContendFor) {
        // §3.3.2 option 1: with carrier sensing enabled, a busy channel at
        // the slot boundary means an exchange we could not otherwise detect
        // is in progress — defer one slot of clear air instead of firing.
        if self.cfg.use_carrier_sense && ctx.carrier_busy() {
            let until = ctx.now() + self.cfg.slot() + self.cfg.timeout_margin;
            self.state = State::Quiet { until };
            ctx.set_timer(until.since(ctx.now()));
            return;
        }
        match what {
            ContendFor::Rrts { peer } => {
                self.rrts_pending = None;
                self.stats.rrts_sent += 1;
                let f = self.make(FrameKind::Rrts, peer, 0, 0);
                self.state = State::SendRrts { peer };
                ctx.transmit(f);
            }
            ContendFor::Data { slot } => {
                let Some(pkt) = self.slots[slot].q.front().copied() else {
                    // Queue emptied between draw and fire (cannot happen
                    // today, but stay robust).
                    self.state = State::Idle;
                    self.maybe_contend(ctx);
                    return;
                };
                // This attempt is firing: consume its draw so the next
                // attempt (retry or next packet) draws afresh.
                self.slots[slot].q.front_mut().unwrap().draw = None;
                let esn = match pkt.esn {
                    Some(e) => e,
                    None => {
                        let e = self.backoff.begin_exchange(pkt.dst);
                        self.slots[slot].q.front_mut().unwrap().esn = Some(e);
                        e
                    }
                };
                self.current = Some(slot);
                if pkt.dst.is_multicast() {
                    self.stats.rts_sent += 1;
                    let f = self.make(FrameKind::Rts, pkt.dst, pkt.sdu.bytes, esn);
                    self.state = State::SendMcastRts;
                    ctx.transmit(f);
                } else {
                    self.stats.rts_sent += 1;
                    let f = self.make(FrameKind::Rts, pkt.dst, pkt.sdu.bytes, esn);
                    self.state = State::SendRts;
                    ctx.transmit(f);
                }
            }
        }
    }

    fn send_data(&mut self, ctx: &mut dyn MacContext) -> MacResult {
        let Some(slot) = self.current else {
            return Err(self.violation("send_data without a current packet"));
        };
        let Some(pkt) = self.head(slot).copied() else {
            return Err(self.violation("send_data with an empty current slot"));
        };
        let Some(esn) = pkt.esn else {
            return Err(self.violation("send_data before the exchange was opened (no ESN)"));
        };
        let mut f = self.make(FrameKind::Data, pkt.dst, pkt.sdu.bytes, esn);
        f.payload = Some(pkt.sdu);
        self.stats.data_sent += 1;
        self.state = if pkt.dst.is_multicast() {
            State::SendMcastData
        } else {
            State::SendData
        };
        ctx.transmit(f);
        Ok(())
    }

    /// An RTS (or ACK-await) attempt failed; retry or drop.
    fn attempt_failed(&mut self, ctx: &mut dyn MacContext, count_backoff: bool) -> MacResult {
        let Some(slot) = self.current else {
            return Err(self.violation("attempt_failed without a current packet"));
        };
        let (dst, retries) = match self.slots[slot].q.front_mut() {
            Some(pkt) => {
                pkt.retries += 1;
                (pkt.dst, pkt.retries)
            }
            None => return Err(self.violation("attempt_failed with an empty current slot")),
        };
        if count_backoff {
            self.backoff.on_timeout(dst, retries);
        }
        if retries > self.cfg.max_retries {
            self.finish_current(ctx, false)?;
        } else {
            self.current = None;
        }
        self.state = State::Idle;
        self.maybe_contend(ctx);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Receive-side dispatch
    // ------------------------------------------------------------------

    fn addressed_to_me(&self, frame: &Frame) -> bool {
        match frame.dst {
            Addr::Unicast(_) => frame.dst == self.addr,
            Addr::Multicast(g) => self.in_group(g),
        }
    }

    fn on_overheard(&mut self, ctx: &mut dyn MacContext, frame: &Frame) {
        self.backoff.on_overhear(
            frame.src,
            frame.dst,
            frame.kind == FrameKind::Rts,
            &frame.backoff,
        );
        if self.cfg.backoff_sharing != crate::backoff::BackoffSharing::None {
            self.invalidate_draws();
        }
        if !self.defer_eligible() {
            return;
        }
        let defer_for = match frame.kind {
            FrameKind::Rts if frame.dst.is_multicast() => {
                Some(self.cfg.defer_after_multicast_rts(frame.data_bytes))
            }
            FrameKind::Rts => Some(self.cfg.defer_after_rts()),
            FrameKind::Cts => Some(self.cfg.defer_after_cts(frame.data_bytes)),
            FrameKind::Ds => Some(self.cfg.defer_after_ds(frame.data_bytes)),
            FrameKind::Rrts => Some(self.cfg.defer_after_rrts()),
            // A NACK invites an immediate retransmission attempt.
            FrameKind::Nack => Some(self.cfg.defer_after_rts()),
            // After an overheard DATA the receiver's ACK follows; give it a
            // slot of clear air (the §3.3.2 footnote on exposed terminals
            // clobbering returning ACKs).
            FrameKind::Data if self.cfg.use_ack => {
                Some(self.cfg.control_duration() + self.cfg.timeout_margin)
            }
            FrameKind::Data | FrameKind::Ack => None,
        };
        if let Some(d) = defer_for {
            let until = ctx.now() + d;
            self.defer(ctx, until);
        }
    }

    fn on_rts_for_me(&mut self, ctx: &mut dyn MacContext, frame: &Frame) {
        let peer = frame.src;
        let esn = frame.backoff.esn;
        // Appendix B control rule 7: duplicate RTS for data we already
        // ACKed → resend the ACK instead of a CTS.
        if self.cfg.use_ack {
            if let Addr::Unicast(src_idx) = peer {
                if self
                    .acked
                    .binary_search_by_key(&src_idx, |e| e.0)
                    .is_ok_and(|at| self.acked[at].1.contains(&esn))
                    && matches!(self.state, State::Idle | State::Contend { .. })
                {
                    ctx.clear_timer();
                    self.stats.ack_sent += 1;
                    let f = self.make(FrameKind::Ack, peer, frame.data_bytes, esn);
                    self.state = State::SendAck;
                    ctx.transmit(f);
                    return;
                }
            }
        }
        match self.state {
            // Control rules 2, 8 and 12: answer with a CTS from IDLE,
            // CONTEND (abandoning our own attempt) or WFRTS (the RRTS flow).
            State::Idle | State::Contend { .. } | State::WfRts { .. } => {
                ctx.clear_timer();
                self.stats.cts_sent += 1;
                let f = self.make(FrameKind::Cts, peer, frame.data_bytes, esn);
                self.state = State::SendCts {
                    peer,
                    bytes: frame.data_bytes,
                    esn,
                };
                ctx.transmit(f);
            }
            // Deferring: cannot answer. With RRTS enabled, remember the
            // first such sender and contend on its behalf later (§3.3.3).
            State::Quiet { .. } if self.cfg.use_rrts && self.rrts_pending.is_none() => {
                self.rrts_pending = Some(peer);
            }
            // Deferring without RRTS, or mid-exchange: ignore.
            _ => {}
        }
    }

    fn on_cts_for_me(&mut self, ctx: &mut dyn MacContext, frame: &Frame) -> MacResult {
        let State::WfCts = self.state else {
            return Ok(());
        };
        let Some(slot) = self.current else {
            return Err(self.violation("WfCts without a current packet"));
        };
        let Some(pkt) = self.head(slot).copied() else {
            return Err(self.violation("WfCts with an empty current slot"));
        };
        let Some(esn) = pkt.esn else {
            return Err(self.violation("WfCts before the exchange was opened (no ESN)"));
        };
        if frame.src != pkt.dst || frame.backoff.esn != esn {
            return Ok(()); // stale CTS from an old exchange
        }
        ctx.clear_timer();
        if !self.cfg.use_ack {
            // MACA: a successful RTS-CTS is the success signal (§3).
            self.backoff.on_success(pkt.dst);
        }
        if self.cfg.use_ds {
            self.stats.ds_sent += 1;
            let f = self.make(FrameKind::Ds, pkt.dst, pkt.sdu.bytes, esn);
            self.state = State::SendDs;
            ctx.transmit(f);
            Ok(())
        } else {
            self.send_data(ctx)
        }
    }

    fn on_ds_for_me(&mut self, ctx: &mut dyn MacContext, frame: &Frame) {
        if let State::WfDs { peer, bytes, esn } = self.state {
            if frame.src == peer {
                self.state = State::WfData { peer, bytes, esn };
                ctx.set_timer(self.cfg.wfdata_timeout(bytes));
            }
        }
    }

    fn on_data_for_me(&mut self, ctx: &mut dyn MacContext, frame: &Frame) {
        let Some(sdu) = frame.payload else { return };
        if frame.dst.is_multicast() {
            if let State::WfData { peer, .. } = self.state {
                if peer == frame.src {
                    ctx.clear_timer();
                    self.stats.data_delivered += 1;
                    ctx.deliver_up(frame.src, sdu);
                    self.state = State::Idle;
                    self.maybe_contend(ctx);
                }
            }
            return;
        }
        // Accept data when expecting it, and also in Idle/Contend/Quiet:
        // our WFDATA timer may have expired marginally early, and dropping
        // a correctly received packet would only hurt.
        let expected = match self.state {
            State::WfData { peer, .. } => peer == frame.src,
            State::Idle | State::Contend { .. } | State::Quiet { .. } => true,
            _ => false,
        };
        if !expected {
            return;
        }
        ctx.clear_timer();
        self.stats.data_delivered += 1;
        ctx.deliver_up(frame.src, sdu);
        if self.cfg.use_ack {
            if let Addr::Unicast(src_idx) = frame.src {
                let at = match self.acked.binary_search_by_key(&src_idx, |e| e.0) {
                    Ok(at) => at,
                    Err(at) => {
                        self.acked.insert(at, (src_idx, VecDeque::new()));
                        at
                    }
                };
                let recent = &mut self.acked[at].1;
                recent.push_back(frame.backoff.esn);
                // Bound the memory: interleaving depth is limited by the
                // retry budget, so a short window suffices.
                while recent.len() > 32 {
                    recent.pop_front();
                }
            }
            self.stats.ack_sent += 1;
            let f = self.make(FrameKind::Ack, frame.src, frame.data_bytes, frame.backoff.esn);
            self.state = State::SendAck;
            ctx.transmit(f);
        } else {
            self.state = State::Idle;
            self.maybe_contend(ctx);
        }
    }

    fn on_ack_for_me(&mut self, ctx: &mut dyn MacContext, frame: &Frame) -> MacResult {
        // Success either in WFACK (normal) or in WFCTS (rule 7: the
        // receiver re-ACKed a duplicate RTS).
        let in_wfack = matches!(self.state, State::WfAck);
        let in_wfcts = matches!(self.state, State::WfCts);
        if !in_wfack && !in_wfcts {
            return Ok(());
        }
        let Some(slot) = self.current else {
            return Err(self.violation("ACK wait without a current packet"));
        };
        let Some(pkt) = self.head(slot).copied() else {
            return Err(self.violation("ACK wait with an empty current slot"));
        };
        if frame.src != pkt.dst || Some(frame.backoff.esn) != pkt.esn {
            return Ok(());
        }
        ctx.clear_timer();
        self.backoff.on_success(pkt.dst);
        self.finish_current(ctx, true)?;
        self.state = State::Idle;
        self.maybe_contend(ctx);
        Ok(())
    }

    fn on_nack_for_me(&mut self, ctx: &mut dyn MacContext, frame: &Frame) {
        if !self.cfg.use_nack {
            return;
        }
        // If the NACKed packet is still queued (e.g. we were already
        // retrying after a CTS timeout), there is nothing to resurrect.
        let still_queued = self
            .slots
            .iter()
            .any(|s| s.q.front().is_some_and(|p| {
                p.dst == frame.src && p.esn == Some(frame.backoff.esn)
            }));
        if still_queued {
            return;
        }
        let Some(pkt) = self.nack_cache.take() else {
            return;
        };
        if pkt.dst != frame.src || pkt.esn != Some(frame.backoff.esn) {
            self.nack_cache = Some(pkt); // not ours to answer
            return;
        }
        // Resurrect at the head of its queue and contend again.
        let slot = self.slot_for(pkt.dst, pkt.sdu.stream);
        self.slots[slot].q.push_front(Packet {
            retries: pkt.retries + 1,
            draw: None,
            ..pkt
        });
        self.maybe_contend(ctx);
    }

    fn on_rrts_for_me(&mut self, ctx: &mut dyn MacContext, frame: &Frame) {
        // Control rule 13: immediately answer an RRTS with an RTS for the
        // queued packet to that peer.
        if !matches!(
            self.state,
            State::Idle | State::Contend { .. } | State::Quiet { .. }
        ) {
            return;
        }
        let peer = frame.src;
        let Some(slot) = self
            .slots
            .iter()
            .position(|s| s.q.front().is_some_and(|p| p.dst == peer))
        else {
            return; // nothing queued for that peer any more
        };
        ctx.clear_timer();
        let esn = match self.head(slot).unwrap().esn {
            Some(e) => e,
            None => {
                let e = self.backoff.begin_exchange(peer);
                self.slots[slot].q.front_mut().unwrap().esn = Some(e);
                e
            }
        };
        let bytes = self.head(slot).unwrap().sdu.bytes;
        self.current = Some(slot);
        self.stats.rts_sent += 1;
        let f = self.make(FrameKind::Rts, peer, bytes, esn);
        self.state = State::SendRts;
        ctx.transmit(f);
    }

    fn on_mcast_rts_for_me(&mut self, ctx: &mut dyn MacContext, frame: &Frame) {
        // §3.3.4: no CTS; just wait for the immediately following DATA.
        if self.defer_eligible() {
            ctx.clear_timer();
            self.state = State::WfData {
                peer: frame.src,
                bytes: frame.data_bytes,
                esn: frame.backoff.esn,
            };
            ctx.set_timer(self.cfg.wfdata_timeout(frame.data_bytes));
        }
    }
}

impl MacProtocol for WMac {
    fn enqueue(&mut self, ctx: &mut dyn MacContext, dst: Addr, sdu: MacSdu) -> MacResult {
        if !self.cfg.multicast && dst.is_multicast() {
            return Err(self.violation("multicast enqueue with multicast disabled"));
        }
        let slot = self.slot_for(dst, sdu.stream);
        if self.slots[slot].q.len() >= self.cfg.queue_capacity {
            self.stats.refused += 1;
            ctx.feedback(MacFeedback::Refused {
                stream: sdu.stream,
                transport_seq: sdu.transport_seq,
            });
            return Ok(());
        }
        self.stats.enqueued += 1;
        self.slots[slot].q.push_back(Packet {
            dst,
            sdu,
            retries: 0,
            esn: None,
            draw: None,
        });
        self.maybe_contend(ctx);
        Ok(())
    }

    fn on_receive(&mut self, ctx: &mut dyn MacContext, frame: &Frame) -> MacResult {
        if frame.src == self.addr {
            return Err(self.violation("received a frame from own address"));
        }
        if !self.addressed_to_me(frame) {
            self.on_overheard(ctx, frame);
            return Ok(());
        }
        // Backoff copying from packets addressed to us (Appendix B.2).
        self.backoff.on_receive(frame.src, frame.kind == FrameKind::Rts, &frame.backoff);
        if self.cfg.backoff_sharing != crate::backoff::BackoffSharing::None {
            self.invalidate_draws();
        }
        match frame.kind {
            FrameKind::Rts if frame.dst.is_multicast() => {
                self.on_mcast_rts_for_me(ctx, frame);
                Ok(())
            }
            FrameKind::Rts => {
                self.on_rts_for_me(ctx, frame);
                Ok(())
            }
            FrameKind::Cts => self.on_cts_for_me(ctx, frame),
            FrameKind::Ds => {
                self.on_ds_for_me(ctx, frame);
                Ok(())
            }
            FrameKind::Data => {
                self.on_data_for_me(ctx, frame);
                Ok(())
            }
            FrameKind::Ack => self.on_ack_for_me(ctx, frame),
            FrameKind::Nack => {
                self.on_nack_for_me(ctx, frame);
                Ok(())
            }
            FrameKind::Rrts => {
                self.on_rrts_for_me(ctx, frame);
                Ok(())
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn MacContext) -> MacResult {
        match self.state {
            State::Contend { what } => self.fire_contention(ctx, what),
            State::Quiet { .. } => {
                self.state = State::Idle;
                self.maybe_contend(ctx);
            }
            // Timeout rules: WFCTS expiry is a collision signal (backoff
            // increases); WFACK expiry retries without touching the backoff
            // ("the backoff counter is not changed if there is a successful
            // RTS-CTS exchange but the ACK does not arrive", §3.3.1).
            State::WfCts => {
                self.stats.rts_timeouts += 1;
                self.attempt_failed(ctx, true)?;
            }
            State::WfAck => {
                self.stats.ack_timeouts += 1;
                self.attempt_failed(ctx, false)?;
            }
            State::WfDs { peer, bytes, esn } | State::WfData { peer, bytes, esn }
                if self.cfg.use_nack =>
            {
                // §4: the granted exchange produced no clean data; tell the
                // sender so it retransmits without a transport timeout.
                self.stats.nack_sent += 1;
                let f = self.make(FrameKind::Nack, peer, bytes, esn);
                self.state = State::SendNack;
                ctx.transmit(f);
            }
            State::WfDs { .. } | State::WfData { .. } | State::WfRts { .. } => {
                self.state = State::Idle;
                self.maybe_contend(ctx);
            }
            State::Idle => {
                // Spurious timer (e.g. raced with a state change): harmless.
                self.maybe_contend(ctx);
            }
            _ => return Err(self.violation("timer fired while transmitting")),
        }
        Ok(())
    }

    fn on_tx_end(&mut self, ctx: &mut dyn MacContext) -> MacResult {
        match self.state {
            State::SendRts => {
                self.state = State::WfCts;
                ctx.set_timer(self.cfg.wfcts_timeout());
            }
            State::SendCts { peer, bytes, esn } => {
                if self.cfg.use_ds {
                    self.state = State::WfDs { peer, bytes, esn };
                } else {
                    self.state = State::WfData { peer, bytes, esn };
                }
                ctx.set_timer(self.cfg.wfds_timeout(bytes));
            }
            State::SendDs => self.send_data(ctx)?,
            State::SendData => {
                if self.cfg.use_ack {
                    self.state = State::WfAck;
                    ctx.set_timer(self.cfg.wfack_timeout());
                } else {
                    // Without a link ACK the MAC's responsibility ends
                    // here; in NACK mode, keep the packet resurrectable.
                    if self.cfg.use_nack {
                        let Some(slot) = self.current else {
                            return Err(self.violation("SendData without a current packet"));
                        };
                        self.nack_cache = self.slots[slot].q.front().copied();
                    }
                    self.finish_current(ctx, true)?;
                    self.state = State::Idle;
                    self.maybe_contend(ctx);
                }
            }
            State::SendAck | State::SendNack => {
                self.state = State::Idle;
                self.maybe_contend(ctx);
            }
            State::SendRrts { peer } => {
                self.state = State::WfRts { peer };
                ctx.set_timer(self.cfg.wfrts_timeout());
            }
            State::SendMcastRts => self.send_data(ctx)?,
            State::SendMcastData => {
                self.finish_current(ctx, true)?;
                self.state = State::Idle;
                self.maybe_contend(ctx);
            }
            _ => return Err(self.violation("tx ended in a non-transmit state")),
        }
        Ok(())
    }

    fn queued_packets(&self) -> usize {
        self.slots.iter().map(|s| s.q.len()).sum()
    }

    /// A `Quiet` expiry with nothing queued and no RRTS owed sets `Idle`,
    /// and `maybe_contend` then finds no candidate: it draws nothing and
    /// arms nothing.
    fn timer_is_silent(&self) -> bool {
        matches!(self.state, State::Quiet { .. })
            && self.rrts_pending.is_none()
            && self.slots.iter().all(|s| s.q.is_empty())
    }

    fn mac_stats(&self) -> Option<&MacStats> {
        Some(&self.stats)
    }

    fn reset(&mut self, preserve_queues: bool) {
        // Power-cycle: every piece of volatile protocol state is reborn.
        // Stats survive (they model the observer, not the station) and so
        // does group membership (configuration, not learned state).
        self.state = State::Idle;
        self.current = None;
        self.rrts_pending = None;
        self.nack_cache = None;
        self.acked.clear();
        self.backoff.reset();
        if preserve_queues {
            // Battery-backed queue: packets survive, but exchange progress
            // (retry counts, ESNs, pending draws) does not — each packet is
            // effectively freshly enqueued.
            for s in &mut self.slots {
                for p in &mut s.q {
                    p.retries = 0;
                    p.esn = None;
                    p.draw = None;
                }
            }
        } else {
            self.slots = match self.cfg.queues {
                QueueMode::SingleFifo => vec![QueueSlot::default()],
                QueueMode::PerStream => Vec::new(),
            };
        }
        // NOTE: the caller restarts contention (via `maybe_contend`-driving
        // events) once the station is back up; reset itself arms nothing —
        // a dead station must stay silent.
    }
}

/// Canonical snapshot of a [`WMac`]'s behavioural state.
///
/// Captures everything that determines future behaviour — protocol state
/// (with the `Quiet`-until deadline rebased to a now-relative offset),
/// queues with their retry/ESN/draw bookkeeping, the re-ACK window, the
/// NACK cache, group membership and the full backoff table — and excludes
/// the [`MacStats`] counters, which are observer state and monotone (they
/// would make every revisited state hash fresh and defeat deduplication).
///
/// Opaque by design: explorers only clone, compare, hash and debug-print it.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct WMacSnapshot {
    state: State,
    current: Option<usize>,
    rrts_pending: Option<Addr>,
    slots: Vec<QueueSlot>,
    /// Non-empty re-ACK windows only, keyed by peer index: two stations
    /// that learned and then aged out different peers canonicalize equal.
    acked: Vec<(usize, VecDeque<u64>)>,
    nack_cache: Option<Packet>,
    groups: Vec<u32>,
    backoff: BackoffSnapshot,
}

impl MacSnapshot for WMac {
    type Snap = WMacSnapshot;

    fn snapshot(&self, now: SimTime) -> WMacSnapshot {
        let state = match self.state {
            // Rebase the absolute deadline so the same residual deferral
            // reached at different absolute times dedups.
            State::Quiet { until } => State::Quiet {
                until: SimTime::ZERO + until.saturating_since(now),
            },
            s => s,
        };
        WMacSnapshot {
            state,
            current: self.current,
            rrts_pending: self.rrts_pending,
            slots: self.slots.clone(),
            acked: self
                .acked
                .iter()
                .filter(|(_, w)| !w.is_empty())
                .cloned()
                .collect(),
            nack_cache: self.nack_cache,
            groups: self.groups.clone(),
            backoff: self.backoff.snapshot(),
        }
    }

    fn relabel(snap: &WMacSnapshot, map: &Relabeling<'_>) -> WMacSnapshot {
        // Slot order is arrival order, which is not permutation-stable (two
        // symmetric stations may have created their per-stream slots in
        // different orders), so relabeled slots are re-sorted by key, and
        // `current` and a contention target follow their slots to the new
        // positions. The explorer relabels *every* orbit candidate,
        // identity permutation included, so the sort applies uniformly and
        // comparisons stay consistent.
        let mut slots: Vec<QueueSlot> = snap
            .slots
            .iter()
            .map(|s| QueueSlot {
                key: relabel_key(s.key, map),
                q: s.q.iter().map(|p| relabel_packet(p, map)).collect(),
            })
            .collect();
        slots.sort_by_key(|s| s.key);
        let sorted = |i| sorted_slot(&snap.slots, map, i);
        let mut acked: Vec<(usize, VecDeque<u64>)> = snap
            .acked
            .iter()
            .map(|(peer, w)| (map.station_index(*peer), w.clone()))
            .collect();
        acked.sort_by_key(|(peer, _)| *peer);
        WMacSnapshot {
            state: relabel_state(snap.state, map, sorted),
            current: snap.current.map(sorted),
            rrts_pending: snap.rrts_pending.map(|a| map.addr(a)),
            slots,
            acked,
            nack_cache: snap.nack_cache.as_ref().map(|p| relabel_packet(p, map)),
            groups: snap.groups.clone(),
            backoff: snap.backoff.relabel(map),
        }
    }

    /// Field by field in the derived `Ord`'s order, relabeling scalars on
    /// the fly and walking the re-sorted tables through their stable sort
    /// order: no allocation.
    fn cmp_relabeled(snap: &WMacSnapshot, map: &Relabeling<'_>, other: &WMacSnapshot) -> Ordering {
        let ord =
            relabel_state(snap.state, map, |i| sorted_slot(&snap.slots, map, i)).cmp(&other.state);
        if ord != Ordering::Equal {
            return ord;
        }
        let (Some(slots), Some(acked)) = (
            StableOrder::new(snap.slots.len(), |i| relabel_key(snap.slots[i].key, map)),
            StableOrder::new(snap.acked.len(), |i| map.station_index(snap.acked[i].0)),
        ) else {
            return Self::relabel(snap, map).cmp(other);
        };
        let current = slots.iter().position(|i| snap.current == Some(i));
        current
            .cmp(&other.current)
            .then_with(|| {
                snap.rrts_pending
                    .map(|a| map.addr(a))
                    .cmp(&other.rrts_pending)
            })
            .then_with(|| {
                cmp_seq(slots.iter(), &other.slots, |i, b| {
                    let a = &snap.slots[i];
                    relabel_key(a.key, map).cmp(&b.key).then_with(|| {
                        a.q.iter()
                            .map(|p| relabel_packet(p, map))
                            .cmp(b.q.iter().copied())
                    })
                })
            })
            .then_with(|| {
                cmp_seq(acked.iter(), &other.acked, |i, (peer, w)| {
                    let (a_peer, a_w) = &snap.acked[i];
                    map.station_index(*a_peer)
                        .cmp(peer)
                        .then_with(|| a_w.cmp(w))
                })
            })
            .then_with(|| {
                snap.nack_cache
                    .as_ref()
                    .map(|p| relabel_packet(p, map))
                    .cmp(&other.nack_cache)
            })
            .then_with(|| snap.groups.cmp(&other.groups))
            .then_with(|| snap.backoff.cmp_relabeled(map, &other.backoff))
    }

    fn state_kind(&self) -> &'static str {
        match self.state {
            State::Idle => "Idle",
            State::Contend { .. } => "Contend",
            State::Quiet { .. } => "Quiet",
            State::SendRts => "SendRts",
            State::WfCts => "WfCts",
            State::SendDs => "SendDs",
            State::SendData => "SendData",
            State::WfAck => "WfAck",
            State::SendCts { .. } => "SendCts",
            State::WfDs { .. } => "WfDs",
            State::WfData { .. } => "WfData",
            State::SendAck => "SendAck",
            State::SendNack => "SendNack",
            State::SendRrts { .. } => "SendRrts",
            State::WfRts { .. } => "WfRts",
            State::SendMcastRts => "SendMcastRts",
            State::SendMcastData => "SendMcastData",
        }
    }

    fn awaits_timer(&self) -> bool {
        matches!(
            self.state,
            State::Contend { .. }
                | State::Quiet { .. }
                | State::WfCts
                | State::WfAck
                | State::WfDs { .. }
                | State::WfData { .. }
                | State::WfRts { .. }
        )
    }

    fn transmitting(&self) -> bool {
        matches!(
            self.state,
            State::SendRts
                | State::SendDs
                | State::SendData
                | State::SendCts { .. }
                | State::SendAck
                | State::SendNack
                | State::SendRrts { .. }
                | State::SendMcastRts
                | State::SendMcastData
        )
    }
}

fn relabel_packet(p: &Packet, map: &Relabeling<'_>) -> Packet {
    Packet {
        dst: map.addr(p.dst),
        sdu: map.sdu(p.sdu),
        ..*p
    }
}

fn relabel_key(key: Option<(Addr, StreamId)>, map: &Relabeling<'_>) -> Option<(Addr, StreamId)> {
    key.map(|(a, st)| (map.addr(a), map.stream_id(st)))
}

/// The position a stable sort of `slots` by relabeled key moves slot `i`
/// to: the number of slots ordered before it.
fn sorted_slot(slots: &[QueueSlot], map: &Relabeling<'_>, i: usize) -> usize {
    let key = relabel_key(slots[i].key, map);
    slots
        .iter()
        .enumerate()
        .filter(|&(j, s)| {
            let k = relabel_key(s.key, map);
            k < key || (k == key && j < i)
        })
        .count()
}

/// Relabel the addresses inside a protocol state; `slot` maps a queue slot
/// index to its position among the re-sorted relabeled slots.
fn relabel_state(state: State, map: &Relabeling<'_>, slot: impl Fn(usize) -> usize) -> State {
    match state {
        State::Contend {
            what: ContendFor::Rrts { peer },
        } => State::Contend {
            what: ContendFor::Rrts {
                peer: map.addr(peer),
            },
        },
        State::Contend {
            what: ContendFor::Data { slot: i },
        } => State::Contend {
            what: ContendFor::Data { slot: slot(i) },
        },
        State::SendCts { peer, bytes, esn } => State::SendCts {
            peer: map.addr(peer),
            bytes,
            esn,
        },
        State::WfDs { peer, bytes, esn } => State::WfDs {
            peer: map.addr(peer),
            bytes,
            esn,
        },
        State::WfData { peer, bytes, esn } => State::WfData {
            peer: map.addr(peer),
            bytes,
            esn,
        },
        State::SendRrts { peer } => State::SendRrts {
            peer: map.addr(peer),
        },
        State::WfRts { peer } => State::WfRts {
            peer: map.addr(peer),
        },
        s => s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::ScriptedContext;
    use macaw_sim::SimDuration;

    const A: Addr = Addr::Unicast(0);
    const B: Addr = Addr::Unicast(1);
    const C: Addr = Addr::Unicast(2);

    fn sdu(bytes: u32, seq: u64) -> MacSdu {
        MacSdu {
            stream: StreamId(7),
            transport_seq: seq,
            bytes,
        }
    }

    fn frame(kind: FrameKind, src: Addr, dst: Addr, bytes: u32, esn: u64) -> Frame {
        Frame {
            kind,
            src,
            dst,
            data_bytes: bytes,
            backoff: crate::frames::BackoffHeader {
                local: 2,
                remote: None,
                esn,
            },
            payload: if kind == FrameKind::Data {
                Some(MacSdu {
                    stream: StreamId(7),
                    transport_seq: esn,
                    bytes,
                })
            } else {
                None
            },
        }
    }

    /// Drive a sender up to (and including) its RTS transmission.
    fn drive_to_rts(mac: &mut WMac, ctx: &mut ScriptedContext) -> Frame {
        mac.enqueue(ctx, B, sdu(512, 1)).unwrap();
        assert!(ctx.timer.is_some(), "contention timer must be armed");
        assert!(ctx.fire_timer());
        mac.on_timer(ctx).unwrap();
        let rts = *ctx.last_tx().expect("RTS transmitted");
        assert_eq!(rts.kind, FrameKind::Rts);
        assert_eq!(rts.dst, B);
        rts
    }

    #[test]
    fn crash_wipes_exchange_and_restart_contends_afresh() {
        let mut mac = WMac::new(A, MacConfig::macaw());
        let mut ctx = ScriptedContext::new(41);
        let _rts = drive_to_rts(&mut mac, &mut ctx); // RTS on air
        assert_eq!(mac.queued_packets(), 1);
        mac.on_tx_end(&mut ctx).unwrap(); // -> WfCts, timeout armed
        for _ in 0..3 {
            // CTS timeouts escalate the backoff above BO_min.
            assert!(ctx.fire_timer()); // WFCTS expires
            mac.on_timer(&mut ctx).unwrap(); // -> Idle -> Contend
            assert!(ctx.fire_timer()); // contention slot
            mac.on_timer(&mut ctx).unwrap(); // retransmits the RTS
            mac.on_tx_end(&mut ctx).unwrap(); // -> WfCts again
        }
        assert_eq!(mac.stats().rts_timeouts, 3);

        // Crash with the queue preserved: the packet survives, but the
        // exchange progress (retries, ESN) and the backoff table do not.
        ctx.crash(&mut mac, true);
        assert_eq!(mac.queued_packets(), 1);
        assert_eq!(mac.backoff_counter(), 2);
        assert!(ctx.timer.is_none());
        // The restart kick re-enters contention and the retransmitted RTS
        // opens a *new* exchange (ESN restarts at 1).
        mac.on_timer(&mut ctx).unwrap();
        assert!(ctx.fire_timer(), "restart kick must re-arm contention");
        mac.on_timer(&mut ctx).unwrap();
        let rts = *ctx.last_tx().expect("RTS after restart");
        assert_eq!(rts.kind, FrameKind::Rts);
        assert_eq!(rts.backoff.esn, 1, "rebooted station restarts its ESNs");

        // Crash without queue preservation: everything is gone.
        ctx.crash(&mut mac, false);
        assert_eq!(mac.queued_packets(), 0);
        mac.on_timer(&mut ctx).unwrap();
        assert!(ctx.timer.is_none(), "nothing to contend for");
    }

    #[test]
    fn enqueue_arms_contention_within_window() {
        let cfg = MacConfig::macaw();
        let mut mac = WMac::new(A, cfg);
        let mut ctx = ScriptedContext::new(1);
        mac.enqueue(&mut ctx, B, sdu(512, 1)).unwrap();
        let deadline = ctx.timer.expect("timer armed");
        let slots = deadline.since(ctx.now()).as_nanos() / cfg.slot().as_nanos();
        // Fresh window is local(bo_min) + unknown remote (bo_min) = 4 slots.
        assert!((1..=4).contains(&slots), "drew {slots} slots");
        assert_eq!(deadline.since(ctx.now()).as_nanos() % cfg.slot().as_nanos(), 0);
    }

    #[test]
    fn contention_fires_rts_with_data_length() {
        let mut mac = WMac::new(A, MacConfig::macaw());
        let mut ctx = ScriptedContext::new(2);
        let rts = drive_to_rts(&mut mac, &mut ctx);
        assert_eq!(rts.data_bytes, 512);
        assert_eq!(rts.backoff.esn, 1, "first exchange");
        assert_eq!(mac.stats().rts_sent, 1);
    }

    #[test]
    fn full_macaw_sender_exchange() {
        let mut mac = WMac::new(A, MacConfig::macaw());
        let mut ctx = ScriptedContext::new(3);
        let rts = drive_to_rts(&mut mac, &mut ctx);
        mac.on_tx_end(&mut ctx).unwrap(); // RTS done -> WfCts, timer armed
        assert!(ctx.timer.is_some());
        mac.on_receive(&mut ctx, &frame(FrameKind::Cts, B, A, 512, rts.backoff.esn)).unwrap();
        let ds = *ctx.last_tx().unwrap();
        assert_eq!(ds.kind, FrameKind::Ds, "MACAW inserts DS after CTS");
        mac.on_tx_end(&mut ctx).unwrap(); // DS done -> DATA back-to-back
        let data = *ctx.last_tx().unwrap();
        assert_eq!(data.kind, FrameKind::Data);
        assert_eq!(data.payload.unwrap().bytes, 512);
        mac.on_tx_end(&mut ctx).unwrap(); // DATA done -> WfAck
        assert!(ctx.timer.is_some());
        mac.on_receive(&mut ctx, &frame(FrameKind::Ack, B, A, 512, rts.backoff.esn)).unwrap();
        assert_eq!(
            ctx.feedback_events(),
            vec![MacFeedback::Sent {
                stream: StreamId(7),
                transport_seq: 1
            }]
        );
        assert_eq!(mac.queued_packets(), 0);
        assert_eq!(mac.stats().packets_sent_ok, 1);
    }

    #[test]
    fn maca_sender_skips_ds_and_ack() {
        let mut mac = WMac::new(A, MacConfig::maca());
        let mut ctx = ScriptedContext::new(4);
        let rts = drive_to_rts(&mut mac, &mut ctx);
        mac.on_tx_end(&mut ctx).unwrap();
        mac.on_receive(&mut ctx, &frame(FrameKind::Cts, B, A, 512, rts.backoff.esn)).unwrap();
        let data = *ctx.last_tx().unwrap();
        assert_eq!(data.kind, FrameKind::Data, "MACA: DATA right after CTS");
        mac.on_tx_end(&mut ctx).unwrap();
        // No ACK wait: the packet is done.
        assert_eq!(mac.queued_packets(), 0);
        assert_eq!(mac.stats().packets_sent_ok, 1);
    }

    #[test]
    fn receiver_path_delivers_and_acks() {
        let mut mac = WMac::new(B, MacConfig::macaw());
        let mut ctx = ScriptedContext::new(5);
        mac.on_receive(&mut ctx, &frame(FrameKind::Rts, A, B, 512, 9)).unwrap();
        let cts = *ctx.last_tx().unwrap();
        assert_eq!(cts.kind, FrameKind::Cts);
        assert_eq!(cts.dst, A);
        assert_eq!(cts.backoff.esn, 9, "CTS echoes the exchange ESN");
        mac.on_tx_end(&mut ctx).unwrap(); // CTS done -> WfDs
        mac.on_receive(&mut ctx, &frame(FrameKind::Ds, A, B, 512, 9)).unwrap();
        mac.on_receive(&mut ctx, &frame(FrameKind::Data, A, B, 512, 9)).unwrap();
        assert_eq!(ctx.delivered().len(), 1);
        let ack = *ctx.last_tx().unwrap();
        assert_eq!(ack.kind, FrameKind::Ack);
        mac.on_tx_end(&mut ctx).unwrap();
        assert_eq!(mac.stats().data_delivered, 1);
    }

    #[test]
    fn duplicate_rts_gets_ack_not_cts() {
        // Appendix B control rule 7: the ACK was lost; the retransmitted RTS
        // must be answered with a fresh ACK, not a CTS.
        let mut mac = WMac::new(B, MacConfig::macaw());
        let mut ctx = ScriptedContext::new(6);
        mac.on_receive(&mut ctx, &frame(FrameKind::Rts, A, B, 512, 9)).unwrap();
        mac.on_tx_end(&mut ctx).unwrap();
        mac.on_receive(&mut ctx, &frame(FrameKind::Ds, A, B, 512, 9)).unwrap();
        mac.on_receive(&mut ctx, &frame(FrameKind::Data, A, B, 512, 9)).unwrap();
        mac.on_tx_end(&mut ctx).unwrap(); // ACK sent (and lost, says the script)
        mac.on_receive(&mut ctx, &frame(FrameKind::Rts, A, B, 512, 9)).unwrap();
        let resp = *ctx.last_tx().unwrap();
        assert_eq!(resp.kind, FrameKind::Ack, "dup RTS -> re-ACK");
        assert_eq!(ctx.delivered().len(), 1, "no duplicate delivery");
    }

    #[test]
    fn wfcts_timeout_retries_then_drops() {
        let mut cfg = MacConfig::macaw();
        cfg.max_retries = 2;
        let mut mac = WMac::new(A, cfg);
        let mut ctx = ScriptedContext::new(7);
        mac.enqueue(&mut ctx, B, sdu(512, 1)).unwrap();
        for attempt in 0..3 {
            assert!(ctx.fire_timer(), "contend timer {attempt}");
            mac.on_timer(&mut ctx).unwrap(); // fire contention -> RTS
            mac.on_tx_end(&mut ctx).unwrap(); // -> WfCts
            assert!(ctx.fire_timer(), "wfcts timer {attempt}");
            mac.on_timer(&mut ctx).unwrap(); // timeout
        }
        assert_eq!(mac.stats().rts_timeouts, 3);
        assert_eq!(mac.stats().packets_dropped, 1);
        assert_eq!(
            ctx.feedback_events().last(),
            Some(&MacFeedback::Dropped {
                stream: StreamId(7),
                transport_seq: 1
            })
        );
        assert_eq!(mac.queued_packets(), 0);
    }

    #[test]
    fn retransmission_reuses_esn() {
        let mut mac = WMac::new(A, MacConfig::macaw());
        let mut ctx = ScriptedContext::new(8);
        let rts1 = drive_to_rts(&mut mac, &mut ctx);
        mac.on_tx_end(&mut ctx).unwrap();
        assert!(ctx.fire_timer());
        mac.on_timer(&mut ctx).unwrap(); // WfCts timeout
        assert!(ctx.fire_timer());
        mac.on_timer(&mut ctx).unwrap(); // re-contend -> second RTS
        let rts2 = *ctx.last_tx().unwrap();
        assert_eq!(rts2.kind, FrameKind::Rts);
        assert_eq!(rts1.backoff.esn, rts2.backoff.esn, "same exchange");
    }

    #[test]
    fn ack_timeout_does_not_touch_backoff() {
        let mut mac = WMac::new(A, MacConfig::macaw());
        let mut ctx = ScriptedContext::new(9);
        let bo_before = mac.backoff_counter();
        let rts = drive_to_rts(&mut mac, &mut ctx);
        mac.on_tx_end(&mut ctx).unwrap();
        mac.on_receive(&mut ctx, &frame(FrameKind::Cts, B, A, 512, rts.backoff.esn)).unwrap();
        mac.on_tx_end(&mut ctx).unwrap(); // DS -> DATA
        mac.on_tx_end(&mut ctx).unwrap(); // DATA -> WfAck
        assert!(ctx.fire_timer());
        mac.on_timer(&mut ctx).unwrap(); // ACK timeout
        assert_eq!(mac.stats().ack_timeouts, 1);
        assert_eq!(mac.backoff_counter(), bo_before, "§3.3.1: unchanged");
        assert_eq!(mac.queued_packets(), 1, "packet still queued for retry");
    }

    #[test]
    fn overheard_rts_defers_one_cts_time() {
        let cfg = MacConfig::macaw();
        let mut mac = WMac::new(C, cfg);
        let mut ctx = ScriptedContext::new(10);
        mac.on_receive(&mut ctx, &frame(FrameKind::Rts, A, B, 512, 1)).unwrap();
        let deadline = ctx.timer.expect("quiet timer armed");
        assert_eq!(
            deadline.since(ctx.now()),
            cfg.defer_after_rts(),
            "defer covers the returning CTS"
        );
    }

    #[test]
    fn overheard_cts_defers_whole_exchange() {
        let cfg = MacConfig::macaw();
        let mut mac = WMac::new(C, cfg);
        let mut ctx = ScriptedContext::new(11);
        mac.on_receive(&mut ctx, &frame(FrameKind::Cts, B, A, 512, 1)).unwrap();
        let deadline = ctx.timer.expect("quiet timer armed");
        assert_eq!(deadline.since(ctx.now()), cfg.defer_after_cts(512));
    }

    #[test]
    fn deferral_blocks_contention_until_quiet_ends() {
        let mut mac = WMac::new(C, MacConfig::macaw());
        let mut ctx = ScriptedContext::new(12);
        mac.on_receive(&mut ctx, &frame(FrameKind::Ds, A, B, 512, 1)).unwrap();
        mac.enqueue(&mut ctx, B, sdu(512, 1)).unwrap();
        assert!(ctx.transmitted().is_empty(), "must not transmit while quiet");
        assert!(ctx.fire_timer());
        mac.on_timer(&mut ctx).unwrap(); // quiet expires -> contend
        assert!(ctx.timer.is_some(), "contention armed after quiet");
        assert!(ctx.fire_timer());
        mac.on_timer(&mut ctx).unwrap();
        assert_eq!(ctx.last_tx().unwrap().kind, FrameKind::Rts);
    }

    #[test]
    fn quiet_extends_on_further_control_traffic() {
        let cfg = MacConfig::macaw();
        let mut mac = WMac::new(C, cfg);
        let mut ctx = ScriptedContext::new(13);
        mac.on_receive(&mut ctx, &frame(FrameKind::Rts, A, B, 512, 1)).unwrap();
        let first = ctx.timer.unwrap();
        ctx.advance_to(ctx.now() + SimDuration::from_micros(500));
        mac.on_receive(&mut ctx, &frame(FrameKind::Cts, B, A, 512, 1)).unwrap();
        let second = ctx.timer.unwrap();
        assert!(second > first, "hearing the CTS must extend the deferral");
    }

    #[test]
    fn rts_while_deferring_triggers_rrts_after_quiet() {
        let mut mac = WMac::new(B, MacConfig::macaw());
        let mut ctx = ScriptedContext::new(14);
        // B defers to a foreign exchange...
        mac.on_receive(&mut ctx, &frame(FrameKind::Ds, C, Addr::Unicast(3), 512, 1)).unwrap();
        // ...and meanwhile A asks it for data.
        mac.on_receive(&mut ctx, &frame(FrameKind::Rts, A, B, 512, 5)).unwrap();
        assert!(ctx.transmitted().is_empty(), "cannot answer while deferring");
        assert!(ctx.fire_timer());
        mac.on_timer(&mut ctx).unwrap(); // quiet ends -> contend for RRTS
        assert!(ctx.fire_timer());
        mac.on_timer(&mut ctx).unwrap();
        let rrts = *ctx.last_tx().unwrap();
        assert_eq!(rrts.kind, FrameKind::Rrts);
        assert_eq!(rrts.dst, A);
        assert_eq!(mac.stats().rrts_sent, 1);
    }

    #[test]
    fn maca_ignores_rts_while_deferring() {
        let mut mac = WMac::new(B, MacConfig::maca());
        let mut ctx = ScriptedContext::new(15);
        mac.on_receive(&mut ctx, &frame(FrameKind::Cts, C, Addr::Unicast(3), 512, 1)).unwrap();
        mac.on_receive(&mut ctx, &frame(FrameKind::Rts, A, B, 512, 5)).unwrap();
        assert!(ctx.fire_timer());
        mac.on_timer(&mut ctx).unwrap();
        assert!(
            ctx.transmitted().is_empty(),
            "MACA has no RRTS: nothing to send after quiet"
        );
    }

    #[test]
    fn rrts_recipient_answers_with_rts_immediately() {
        let mut mac = WMac::new(A, MacConfig::macaw());
        let mut ctx = ScriptedContext::new(16);
        mac.enqueue(&mut ctx, B, sdu(512, 1)).unwrap(); // contending...
        mac.on_receive(&mut ctx, &frame(FrameKind::Rrts, B, A, 0, 0)).unwrap();
        let rts = *ctx.last_tx().unwrap();
        assert_eq!(rts.kind, FrameKind::Rts);
        assert_eq!(rts.dst, B);
    }

    #[test]
    fn overheard_rrts_defers_two_slots() {
        let cfg = MacConfig::macaw();
        let mut mac = WMac::new(C, cfg);
        let mut ctx = ScriptedContext::new(17);
        mac.on_receive(&mut ctx, &frame(FrameKind::Rrts, B, A, 0, 0)).unwrap();
        let deadline = ctx.timer.expect("quiet timer armed");
        assert_eq!(deadline.since(ctx.now()), cfg.defer_after_rrts());
    }

    #[test]
    fn multicast_is_rts_then_data_without_cts() {
        let mut mac = WMac::new(A, MacConfig::macaw());
        let mut ctx = ScriptedContext::new(18);
        mac.enqueue(&mut ctx, Addr::Multicast(4), sdu(512, 1)).unwrap();
        assert!(ctx.fire_timer());
        mac.on_timer(&mut ctx).unwrap();
        assert_eq!(ctx.last_tx().unwrap().kind, FrameKind::Rts);
        mac.on_tx_end(&mut ctx).unwrap(); // RTS done -> DATA immediately
        assert_eq!(ctx.last_tx().unwrap().kind, FrameKind::Data);
        mac.on_tx_end(&mut ctx).unwrap();
        assert_eq!(mac.stats().packets_sent_ok, 1);
    }

    #[test]
    fn multicast_receiver_delivers_without_cts() {
        let mut mac = WMac::new(B, MacConfig::macaw());
        let mut ctx = ScriptedContext::new(19);
        mac.join_group(4);
        let mut rts = frame(FrameKind::Rts, A, Addr::Multicast(4), 512, 1);
        rts.payload = None;
        mac.on_receive(&mut ctx, &rts).unwrap();
        assert!(ctx.transmitted().is_empty(), "no CTS for multicast");
        mac.on_receive(&mut ctx, &frame(FrameKind::Data, A, Addr::Multicast(4), 512, 1)).unwrap();
        assert_eq!(ctx.delivered().len(), 1);
        assert!(ctx.transmitted().is_empty(), "no ACK for multicast");
    }

    #[test]
    fn non_member_defers_for_multicast_data_length() {
        let cfg = MacConfig::macaw();
        let mut mac = WMac::new(C, cfg);
        let mut ctx = ScriptedContext::new(20);
        mac.on_receive(&mut ctx, &frame(FrameKind::Rts, A, Addr::Multicast(4), 512, 1)).unwrap();
        let deadline = ctx.timer.expect("quiet timer armed");
        assert_eq!(
            deadline.since(ctx.now()),
            cfg.defer_after_multicast_rts(512)
        );
    }

    #[test]
    fn queue_capacity_refuses_overflow() {
        let mut cfg = MacConfig::macaw();
        cfg.queue_capacity = 2;
        let mut mac = WMac::new(A, cfg);
        let mut ctx = ScriptedContext::new(21);
        mac.enqueue(&mut ctx, B, sdu(512, 1)).unwrap();
        mac.enqueue(&mut ctx, B, sdu(512, 2)).unwrap();
        mac.enqueue(&mut ctx, B, sdu(512, 3)).unwrap();
        assert_eq!(mac.queued_packets(), 2);
        assert_eq!(mac.stats().refused, 1);
        assert!(matches!(
            ctx.feedback_events().last(),
            Some(MacFeedback::Refused { transport_seq: 3, .. })
        ));
    }

    #[test]
    fn per_stream_queues_isolate_streams() {
        let mut mac = WMac::new(A, MacConfig::macaw());
        let mut ctx = ScriptedContext::new(22);
        let s1 = MacSdu {
            stream: StreamId(1),
            transport_seq: 1,
            bytes: 512,
        };
        let s2 = MacSdu {
            stream: StreamId(2),
            transport_seq: 1,
            bytes: 512,
        };
        mac.enqueue(&mut ctx, B, s1).unwrap();
        mac.enqueue(&mut ctx, C, s2).unwrap();
        assert_eq!(mac.queued_packets(), 2);
    }

    #[test]
    fn contend_station_answers_rts_and_abandons_own_attempt() {
        // Appendix A rule 5 / B rule 8.
        let mut mac = WMac::new(A, MacConfig::macaw());
        let mut ctx = ScriptedContext::new(23);
        mac.enqueue(&mut ctx, B, sdu(512, 1)).unwrap(); // now contending
        mac.on_receive(&mut ctx, &frame(FrameKind::Rts, C, A, 256, 3)).unwrap();
        let cts = *ctx.last_tx().unwrap();
        assert_eq!(cts.kind, FrameKind::Cts);
        assert_eq!(cts.dst, C);
        assert!(ctx.timer.is_none(), "own contention timer cleared");
    }

    #[test]
    fn carrier_sense_defers_the_contention_slot() {
        let mut cfg = MacConfig::macaw();
        cfg.use_carrier_sense = true;
        let mut mac = WMac::new(A, cfg);
        let mut ctx = ScriptedContext::new(30);
        mac.enqueue(&mut ctx, B, sdu(512, 1)).unwrap();
        ctx.carrier = true; // someone else is on the air
        assert!(ctx.fire_timer());
        mac.on_timer(&mut ctx).unwrap();
        assert!(ctx.transmitted().is_empty(), "must not fire into carrier");
        assert!(ctx.timer.is_some(), "one-slot clear-air defer armed");
        // Air clears: the deferred contention proceeds.
        ctx.carrier = false;
        assert!(ctx.fire_timer());
        mac.on_timer(&mut ctx).unwrap(); // quiet expires -> contend
        assert!(ctx.fire_timer());
        mac.on_timer(&mut ctx).unwrap();
        assert_eq!(ctx.last_tx().unwrap().kind, FrameKind::Rts);
    }

    #[test]
    fn nack_mode_receiver_nacks_missing_data() {
        let mut cfg = MacConfig::maca();
        cfg.use_nack = true;
        let mut mac = WMac::new(B, cfg);
        let mut ctx = ScriptedContext::new(31);
        mac.on_receive(&mut ctx, &frame(FrameKind::Rts, A, B, 512, 3)).unwrap();
        mac.on_tx_end(&mut ctx).unwrap(); // CTS sent -> waiting for data
        assert!(ctx.fire_timer());
        mac.on_timer(&mut ctx).unwrap(); // data never arrived
        let nack = *ctx.last_tx().unwrap();
        assert_eq!(nack.kind, FrameKind::Nack);
        assert_eq!(nack.dst, A);
        assert_eq!(nack.backoff.esn, 3);
        assert_eq!(mac.stats().nack_sent, 1);
    }

    #[test]
    fn nack_resurrects_the_presumed_delivered_packet() {
        let mut cfg = MacConfig::maca();
        cfg.use_nack = true;
        let mut mac = WMac::new(A, cfg);
        let mut ctx = ScriptedContext::new(32);
        let rts = drive_to_rts(&mut mac, &mut ctx);
        mac.on_tx_end(&mut ctx).unwrap();
        mac.on_receive(&mut ctx, &frame(FrameKind::Cts, B, A, 512, rts.backoff.esn)).unwrap();
        mac.on_tx_end(&mut ctx).unwrap(); // DATA done -> presumed success (no ack)
        assert_eq!(mac.queued_packets(), 0);
        assert_eq!(mac.stats().packets_sent_ok, 1);
        // The receiver says it never got it.
        mac.on_receive(&mut ctx, &frame(FrameKind::Nack, B, A, 512, rts.backoff.esn)).unwrap();
        assert_eq!(mac.queued_packets(), 1, "packet resurrected for retry");
        assert!(ctx.timer.is_some(), "re-contending");
    }

    #[test]
    fn stale_nack_is_ignored() {
        let mut cfg = MacConfig::maca();
        cfg.use_nack = true;
        let mut mac = WMac::new(A, cfg);
        let mut ctx = ScriptedContext::new(33);
        let rts = drive_to_rts(&mut mac, &mut ctx);
        mac.on_tx_end(&mut ctx).unwrap();
        mac.on_receive(&mut ctx, &frame(FrameKind::Cts, B, A, 512, rts.backoff.esn)).unwrap();
        mac.on_tx_end(&mut ctx).unwrap();
        // Wrong esn, then wrong peer: neither may resurrect.
        mac.on_receive(&mut ctx, &frame(FrameKind::Nack, B, A, 512, rts.backoff.esn + 9)).unwrap();
        assert_eq!(mac.queued_packets(), 0);
        mac.on_receive(&mut ctx, &frame(FrameKind::Nack, C, A, 512, rts.backoff.esn)).unwrap();
        assert_eq!(mac.queued_packets(), 0);
        // The real one still works afterwards.
        mac.on_receive(&mut ctx, &frame(FrameKind::Nack, B, A, 512, rts.backoff.esn)).unwrap();
        assert_eq!(mac.queued_packets(), 1);
    }

    #[test]
    fn overheard_nack_defers_one_slot() {
        let cfg = MacConfig::macaw();
        let mut mac = WMac::new(C, cfg);
        let mut ctx = ScriptedContext::new(34);
        mac.on_receive(&mut ctx, &frame(FrameKind::Nack, B, A, 512, 1)).unwrap();
        let deadline = ctx.timer.expect("quiet timer armed");
        assert_eq!(deadline.since(ctx.now()), cfg.defer_after_rts());
    }

    /// The allocation-free `cmp_relabeled` orders exactly like relabeling
    /// first, on snapshots whose queue, re-ACK and backoff tables are out of
    /// key order (so every image must be re-sorted), under several station
    /// and stream permutations, against each other and their own images.
    #[test]
    fn cmp_relabeled_orders_like_relabel_then_cmp() {
        let d = Addr::Unicast(3);
        let mut mac = WMac::new(A, MacConfig::macaw());
        let mut ctx = ScriptedContext::new(42);
        for (dst, stream) in [(d, 5), (B, 2), (C, 6), (B, 1)] {
            let sdu = MacSdu {
                stream: StreamId(stream),
                transport_seq: 1,
                bytes: 512,
            };
            mac.enqueue(&mut ctx, dst, sdu).unwrap();
        }
        for peer in [d, C, B] {
            mac.on_receive(&mut ctx, &frame(FrameKind::Cts, peer, A, 512, 3))
                .unwrap();
        }
        let base = mac.snapshot(ctx.now());
        let fresh = WMac::new(A, MacConfig::macaw()).snapshot(ctx.now());
        assert!(base.slots.len() == 4 && base.backoff != fresh.backoff);
        let mut snaps = vec![base.clone()];
        let mut s = base.clone();
        s.current = Some(2);
        s.acked = vec![(3, VecDeque::from([4])), (1, VecDeque::from([2, 5]))];
        snaps.push(s);
        let mut s = base.clone();
        s.slots.swap(0, 3);
        s.state = State::WfDs {
            peer: d,
            bytes: 512,
            esn: 4,
        };
        s.rrts_pending = Some(C);
        snaps.push(s);
        let mut s = base;
        s.slots[1].q.clear();
        s.nack_cache = snaps[0].slots[0].q.front().copied();
        s.state = State::Contend {
            what: ContendFor::Rrts { peer: B },
        };
        snaps.push(s);
        let mut s = snaps[0].clone();
        s.state = State::Contend {
            what: ContendFor::Data { slot: 1 },
        };
        snaps.push(s);

        let stations: [&[usize]; 3] = [&[0, 1, 2, 3], &[0, 3, 2, 1], &[2, 3, 0, 1]];
        let streams: [&[u32]; 2] = [&[0, 1, 2, 3, 4, 5, 6], &[6, 5, 4, 3, 2, 1, 0]];
        for station in stations {
            for stream in streams {
                let map = Relabeling { station, stream };
                let images: Vec<WMacSnapshot> =
                    snaps.iter().map(|s| WMac::relabel(s, &map)).collect();
                for a in &snaps {
                    for b in snaps.iter().chain(&images) {
                        assert_eq!(
                            WMac::cmp_relabeled(a, &map, b),
                            WMac::relabel(a, &map).cmp(b),
                            "{station:?} {stream:?}"
                        );
                    }
                }
            }
        }
    }

    /// Canonicalization must keep track of *which* queue a contention timer
    /// serves. Two stations holding the same queues in opposite arrival
    /// order re-sort to the same slot table, so a contention target kept as
    /// an arrival index would make "contending for B's queue" and
    /// "contending for C's queue" collide.
    #[test]
    fn contention_slot_follows_its_queue_through_the_key_sort() {
        let contending = |order: [Addr; 2], target: Addr| {
            let mut mac = WMac::new(A, MacConfig::macaw());
            let mut ctx = ScriptedContext::new(43);
            for dst in order {
                mac.enqueue(&mut ctx, dst, sdu(512, 1)).unwrap();
            }
            let slot = order.iter().position(|&d| d == target).unwrap();
            mac.state = State::Contend {
                what: ContendFor::Data { slot },
            };
            mac.snapshot(ctx.now())
        };
        // C's queue was created first: the slots are out of key order.
        let c_first_for_c = contending([C, B], C);
        let b_first_for_b = contending([B, C], B);
        let b_first_for_c = contending([B, C], C);
        assert_eq!(
            c_first_for_c.state, b_first_for_b.state,
            "same arrival index, different queues"
        );

        let identity = Relabeling {
            station: &[],
            stream: &[],
        };
        let canon = |s: &WMacSnapshot| WMac::relabel(s, &identity);
        assert_ne!(canon(&c_first_for_c), canon(&b_first_for_b));
        assert_ne!(
            WMac::cmp_relabeled(&c_first_for_c, &identity, &canon(&b_first_for_b)),
            Ordering::Equal
        );
        // The same queue reached through either arrival order is one state.
        assert_eq!(canon(&c_first_for_c), canon(&b_first_for_c));
        assert_eq!(
            WMac::cmp_relabeled(&c_first_for_c, &identity, &canon(&b_first_for_c)),
            Ordering::Equal
        );
    }

    #[test]
    fn stale_cts_is_ignored() {
        let mut mac = WMac::new(A, MacConfig::macaw());
        let mut ctx = ScriptedContext::new(24);
        let rts = drive_to_rts(&mut mac, &mut ctx);
        mac.on_tx_end(&mut ctx).unwrap();
        // CTS from the wrong station:
        mac.on_receive(&mut ctx, &frame(FrameKind::Cts, C, A, 512, rts.backoff.esn)).unwrap();
        // CTS with the wrong esn:
        mac.on_receive(&mut ctx, &frame(FrameKind::Cts, B, A, 512, rts.backoff.esn + 7)).unwrap();
        let kinds: Vec<_> = ctx.transmitted().iter().map(|f| f.kind).collect();
        assert_eq!(kinds, vec![FrameKind::Rts], "no DS/DATA on stale CTS");
    }
}
