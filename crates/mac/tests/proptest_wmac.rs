//! Property tests for the MAC state machines: fuzz WMac with arbitrary
//! event sequences and check it never panics, never double-transmits, and
//! keeps its bookkeeping consistent. `queued_packets` is called after every
//! stimulus, so debug builds check `WMac`'s queued-packet count against its
//! slot buffers across enqueue, refusal, success, drop, NACK resurrection
//! and both reset modes.

use macaw_mac::harness::{Action, ScriptedContext};
use macaw_mac::{
    Addr, BackoffHeader, Frame, FrameKind, MacConfig, MacProtocol, MacSdu, StreamId, WMac,
};
use proptest::prelude::*;

/// A randomly generated stimulus for the MAC under test.
#[derive(Clone, Debug)]
enum Stimulus {
    Enqueue {
        dst: usize,
        bytes: u32,
    },
    Frame {
        kind: u8,
        src: usize,
        dst: usize,
        esn: u64,
        bytes: u32,
    },
    FireTimer,
    TxEnd,
    Reset {
        preserve_queues: bool,
    },
}

fn arb_stimulus() -> impl Strategy<Value = Stimulus> {
    arb_stimulus_among(1..5, 0..5)
}

/// Stimuli among the MAC under test (station 0) and the `peers`: packets
/// are queued for a peer, and frames come from a peer and are addressed to
/// a station in `frame_dst`.
fn arb_stimulus_among(
    peers: std::ops::Range<usize>,
    frame_dst: std::ops::Range<usize>,
) -> impl Strategy<Value = Stimulus> {
    prop_oneof![
        (peers.clone(), 64u32..1024).prop_map(|(dst, bytes)| Stimulus::Enqueue { dst, bytes }),
        (0u8..7, peers, frame_dst, 0u64..4, 64u32..1024).prop_map(
            |(kind, src, dst, esn, bytes)| Stimulus::Frame {
                kind,
                src,
                dst,
                esn,
                bytes
            }
        ),
        // One timer stimulus in ten is a power cycle instead: rare enough
        // that exchanges still run deep between resets.
        (0u8..10, any::<bool>()).prop_map(|(k, preserve_queues)| if k == 0 {
            Stimulus::Reset { preserve_queues }
        } else {
            Stimulus::FireTimer
        }),
        Just(Stimulus::TxEnd),
    ]
}

fn kind_of(k: u8) -> FrameKind {
    match k {
        0 => FrameKind::Rts,
        1 => FrameKind::Cts,
        2 => FrameKind::Ds,
        3 => FrameKind::Data,
        4 => FrameKind::Ack,
        5 => FrameKind::Nack,
        _ => FrameKind::Rrts,
    }
}

fn run_fuzz(cfg: MacConfig, stimuli: Vec<Stimulus>) -> Result<(), TestCaseError> {
    let me = Addr::Unicast(0);
    let mut mac = WMac::new(me, cfg);
    let mut ctx = ScriptedContext::new(7);
    // Track the radio discipline: the MAC may not start a second
    // transmission before the first TxEnd arrives.
    let mut transmitting = false;
    let mut tx_seen = 0usize;
    for s in stimuli {
        match s {
            Stimulus::Enqueue { dst, bytes } => {
                let r = mac.enqueue(
                    &mut ctx,
                    Addr::Unicast(dst),
                    MacSdu {
                        stream: StreamId(dst as u32),
                        transport_seq: 1,
                        bytes,
                    },
                );
                prop_assert!(r.is_ok(), "enqueue violated an invariant: {r:?}");
            }
            Stimulus::Frame {
                kind,
                src,
                dst,
                esn,
                bytes,
            } => {
                if src == 0 || transmitting {
                    continue; // cannot receive own frame or while keyed up
                }
                let kind = kind_of(kind);
                let frame = Frame {
                    kind,
                    src: Addr::Unicast(src),
                    dst: Addr::Unicast(dst),
                    data_bytes: bytes,
                    backoff: BackoffHeader {
                        local: 2,
                        remote: None,
                        esn,
                    },
                    payload: (kind == FrameKind::Data).then_some(MacSdu {
                        stream: StreamId(9),
                        transport_seq: esn,
                        bytes,
                    }),
                };
                let r = mac.on_receive(&mut ctx, &frame);
                prop_assert!(r.is_ok(), "on_receive violated an invariant: {r:?}");
            }
            Stimulus::FireTimer => {
                if !transmitting && ctx.fire_timer() {
                    let r = mac.on_timer(&mut ctx);
                    prop_assert!(r.is_ok(), "on_timer violated an invariant: {r:?}");
                }
            }
            Stimulus::TxEnd => {
                if transmitting {
                    transmitting = false;
                    let r = mac.on_tx_end(&mut ctx);
                    prop_assert!(r.is_ok(), "on_tx_end violated an invariant: {r:?}");
                }
            }
            Stimulus::Reset { preserve_queues } => {
                // A crash: the network aborts the transmission and clears
                // the timer, then the MAC forgets its volatile state.
                transmitting = false;
                ctx.timer = None;
                mac.reset(preserve_queues);
            }
        }
        // Debug builds check the queued count against the slot buffers.
        mac.queued_packets();
        // Account for any new transmissions, enforcing the discipline.
        let txs = ctx
            .actions
            .iter()
            .filter(|a| matches!(a, Action::Transmit(_)))
            .count();
        prop_assert!(
            txs <= tx_seen + 1,
            "MAC started two transmissions in one step"
        );
        if txs > tx_seen {
            prop_assert!(!transmitting, "MAC keyed up while already transmitting");
            transmitting = true;
            tx_seen = txs;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Full MACAW survives arbitrary stimulus without panicking or
    /// violating the single-radio discipline.
    #[test]
    fn macaw_survives_fuzz(stimuli in proptest::collection::vec(arb_stimulus(), 0..200)) {
        run_fuzz(MacConfig::macaw(), stimuli)?;
    }

    /// MACA likewise.
    #[test]
    fn maca_survives_fuzz(stimuli in proptest::collection::vec(arb_stimulus(), 0..200)) {
        run_fuzz(MacConfig::maca(), stimuli)?;
    }

    /// §4's NACK variant with a tiny queue and retry budget, one peer and
    /// every frame addressed to the MAC under test, so refusals at
    /// capacity, retry-exhaustion drops and NACK resurrections all occur.
    #[test]
    fn nack_variant_survives_fuzz(
        stimuli in proptest::collection::vec(arb_stimulus_among(1..2, 0..1), 0..200)
    ) {
        let cfg = MacConfig {
            use_ack: false,
            use_nack: true,
            queue_capacity: 2,
            max_retries: 2,
            ..MacConfig::macaw()
        };
        run_fuzz(cfg, stimuli)?;
    }

    /// Backoff counters stay within bounds under arbitrary event mixes.
    #[test]
    fn backoff_counter_stays_bounded(stimuli in proptest::collection::vec(arb_stimulus(), 0..200)) {
        let me = Addr::Unicast(0);
        let cfg = MacConfig::macaw();
        let mut mac = WMac::new(me, cfg);
        let mut ctx = ScriptedContext::new(11);
        for s in stimuli {
            match s {
                Stimulus::Enqueue { dst, bytes } => mac.enqueue(
                    &mut ctx,
                    Addr::Unicast(dst),
                    MacSdu { stream: StreamId(dst as u32), transport_seq: 1, bytes },
                ).unwrap(),
                Stimulus::Frame { kind, src, dst, esn, bytes } => {
                    if src != 0 {
                        let kind = kind_of(kind);
                        mac.on_receive(&mut ctx, &Frame {
                            kind,
                            src: Addr::Unicast(src),
                            dst: Addr::Unicast(dst),
                            data_bytes: bytes,
                            backoff: BackoffHeader { local: 97, remote: Some(150), esn },
                            payload: (kind == FrameKind::Data).then_some(MacSdu {
                                stream: StreamId(9), transport_seq: esn, bytes,
                            }),
                        }).unwrap();
                    }
                }
                Stimulus::FireTimer => {
                    // A timer is never left armed in a transmit state, so
                    // firing unguarded can't hit the transmit-state arm.
                    if ctx.fire_timer() {
                        mac.on_timer(&mut ctx).unwrap();
                    }
                }
                Stimulus::TxEnd => {}
                Stimulus::Reset { preserve_queues } => {
                    ctx.timer = None;
                    mac.reset(preserve_queues);
                }
            }
            prop_assert!(
                (cfg.bo_min..=cfg.bo_max).contains(&mac.backoff_counter()),
                "my_backoff escaped its bounds: {}",
                mac.backoff_counter()
            );
        }
    }
}
