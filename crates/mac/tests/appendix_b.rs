//! Scripted regressions for two Appendix B races, driven step-by-step
//! through the [`Oracle`] interface with the exact recovery transitions
//! asserted at every step.
//!
//! 1. **The DS race**: a CTS that arrives *after* the sender's WFCTS timer
//!    expired and contention restarted. Acting on it would key up DS/DATA
//!    from a state whose contention draw is already live — exactly the
//!    collision the DS announcement exists to prevent (§3.3.2). The late
//!    CTS must be ignored and the retransmission must reuse the exchange
//!    sequence number so the receiver can recognize the retry
//!    (Appendix B.2).
//! 2. **RRTS starvation**: a receiver gagged by a backlogged neighbor's
//!    back-to-back exchanges can never CTS, and the sender's RTSes learn
//!    nothing (§3.3.3's Figure 4). The receiver must note the first starved
//!    sender, survive quiet-period extensions, and contend with an RRTS on
//!    the sender's behalf once the channel frees.

use macaw_mac::harness::Action;
use macaw_mac::{
    Addr, BackoffHeader, Frame, FrameKind, MacConfig, MacSdu, MacSnapshot, Oracle, StepObs,
    Stimulus, StreamId, WMac,
};

const A: Addr = Addr::Unicast(0);
const B: Addr = Addr::Unicast(1);
const C: Addr = Addr::Unicast(2);
const D: Addr = Addr::Unicast(3);

fn sdu(seq: u64) -> MacSdu {
    MacSdu {
        stream: StreamId(7),
        transport_seq: seq,
        bytes: 512,
    }
}

fn frame(kind: FrameKind, src: Addr, dst: Addr, esn: u64) -> Frame {
    Frame {
        kind,
        src,
        dst,
        data_bytes: 512,
        backoff: BackoffHeader {
            local: 2,
            remote: None,
            esn,
        },
        payload: (kind == FrameKind::Data).then_some(MacSdu {
            stream: StreamId(7),
            transport_seq: esn,
            bytes: 512,
        }),
    }
}

/// The single frame transmitted in `obs`, or a panic describing what
/// actually happened.
fn sole_tx(obs: &StepObs) -> Frame {
    let txs: Vec<_> = obs
        .actions
        .iter()
        .filter_map(|a| match a {
            Action::Transmit(f) => Some(*f),
            _ => None,
        })
        .collect();
    assert_eq!(
        txs.len(),
        1,
        "expected exactly one transmission: {:?}",
        obs.actions
    );
    txs[0]
}

#[test]
fn late_cts_after_contention_restart_is_ignored_and_esn_is_reused() {
    let mut a = Oracle::new(WMac::new(A, MacConfig::macaw()), 21);
    a.step(Stimulus::Enqueue {
        dst: B,
        sdu: sdu(1),
    })
    .unwrap();
    assert_eq!(a.mac().state_kind(), "Contend");

    let rts1 = sole_tx(&a.step(Stimulus::Timer).unwrap());
    assert_eq!(rts1.kind, FrameKind::Rts);
    assert_eq!(a.mac().state_kind(), "SendRts");
    a.step(Stimulus::TxEnd).unwrap();
    assert_eq!(a.mac().state_kind(), "WfCts");

    // The CTS does not arrive in time: WFCTS expires and contention for the
    // retransmission restarts.
    let obs = a.step(Stimulus::Timer).unwrap();
    assert!(obs.actions.is_empty(), "timeout itself transmits nothing");
    assert_eq!(a.mac().state_kind(), "Contend");
    let redraw = a.timer_deadline().expect("re-contention timer armed");

    // Now B's CTS for the timed-out attempt finally lands — the DS race.
    let obs = a
        .step(Stimulus::Receive(frame(
            FrameKind::Cts,
            B,
            A,
            rts1.backoff.esn,
        )))
        .unwrap();
    assert!(
        obs.actions.is_empty(),
        "a late CTS must not trigger DS/DATA"
    );
    assert_eq!(a.mac().state_kind(), "Contend", "contention undisturbed");
    assert_eq!(
        a.timer_deadline(),
        Some(redraw),
        "the live retransmission draw is kept"
    );

    // Recovery: the retransmitted RTS opens the SAME exchange.
    let rts2 = sole_tx(&a.step(Stimulus::Timer).unwrap());
    assert_eq!(rts2.kind, FrameKind::Rts);
    assert_eq!(rts2.dst, B);
    assert_eq!(rts2.backoff.esn, rts1.backoff.esn, "retry reuses the ESN");

    // The second attempt then completes normally: CTS in WFCTS → DS.
    a.step(Stimulus::TxEnd).unwrap();
    assert_eq!(a.mac().state_kind(), "WfCts");
    let ds = sole_tx(
        &a.step(Stimulus::Receive(frame(
            FrameKind::Cts,
            B,
            A,
            rts2.backoff.esn,
        )))
        .unwrap(),
    );
    assert_eq!(ds.kind, FrameKind::Ds);
    assert_eq!(a.mac().state_kind(), "SendDs");
}

#[test]
fn rrts_rescues_a_sender_starved_by_a_backlogged_neighbor() {
    let mut b = Oracle::new(WMac::new(B, MacConfig::macaw()), 22);

    // B overhears C→D's DS and must stay quiet for the whole DATA+ACK.
    let obs = b
        .step(Stimulus::Receive(frame(FrameKind::Ds, C, D, 1)))
        .unwrap();
    assert!(obs.actions.is_empty());
    assert_eq!(b.mac().state_kind(), "Quiet");
    let quiet1 = b.timer_deadline().expect("quiet timer armed");

    // A's RTS lands while B is gagged: no CTS possible. B notes the starved
    // sender instead (§3.3.3).
    let obs = b
        .step(Stimulus::Receive(frame(FrameKind::Rts, A, B, 5)))
        .unwrap();
    assert!(obs.actions.is_empty(), "cannot answer while deferring");
    assert_eq!(b.mac().state_kind(), "Quiet");

    // The backlogged neighbor immediately opens its next exchange; B's
    // quiet period extends. This is the starvation loop A cannot break on
    // its own: every retry finds the channel claimed again.
    let obs = b
        .step(Stimulus::Receive(frame(FrameKind::Cts, D, C, 2)))
        .unwrap();
    assert!(obs.actions.is_empty());
    assert_eq!(b.mac().state_kind(), "Quiet");
    let quiet2 = b.timer_deadline().expect("quiet timer still armed");
    assert!(
        quiet2 > quiet1,
        "further control traffic extends the deferral"
    );

    // The neighbor finally goes idle: quiet expires and B contends — not
    // for its own (empty) queue but on A's behalf.
    let obs = b.step(Stimulus::Timer).unwrap();
    assert!(
        obs.actions.is_empty(),
        "quiet expiry only starts contention"
    );
    assert_eq!(b.mac().state_kind(), "Contend");
    assert!(b.timer_deadline().is_some(), "contention timer armed");

    // Contention fires: RRTS to the starved sender.
    let rrts = sole_tx(&b.step(Stimulus::Timer).unwrap());
    assert_eq!(rrts.kind, FrameKind::Rrts);
    assert_eq!(rrts.dst, A);
    assert_eq!(b.mac().state_kind(), "SendRrts");

    // RRTS on the air → WFRTS, bounded by a timer (a dead A must not wedge
    // B in WFRTS forever).
    b.step(Stimulus::TxEnd).unwrap();
    assert_eq!(b.mac().state_kind(), "WfRts");
    assert!(b.timer_deadline().is_some(), "WFRTS is timer-bounded");

    // A answers the RRTS with its RTS (control rule 13 on A's side); B can
    // finally grant it (control rule 12).
    let cts = sole_tx(
        &b.step(Stimulus::Receive(frame(FrameKind::Rts, A, B, 5)))
            .unwrap(),
    );
    assert_eq!(cts.kind, FrameKind::Cts);
    assert_eq!(cts.dst, A);
    assert_eq!(cts.backoff.esn, 5, "CTS grants the starved exchange");
    assert_eq!(b.mac().state_kind(), "SendCts");

    // And the granted exchange proceeds: CTS done → WFDS.
    b.step(Stimulus::TxEnd).unwrap();
    assert_eq!(b.mac().state_kind(), "WfDs");
}
