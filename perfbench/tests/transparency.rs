//! The timing wrappers are invisible to the simulation and see every call.
//!
//! On a small office floor and a small moving campus, a network built on
//! `TimedMedium` and `Timed` must produce the same `RunReport` as one
//! built on plain `SparseMedium` and `LadderFel`, bit for bit (`f64`
//! `Debug` output round-trips exactly), and the wrapper's call counts must
//! equal the medium's and queue's own counters.

use macaw_core::mobility::campus_topology;
use macaw_core::prelude::*;
use macaw_perfbench::ledger::{self, Ledger, Op};
use macaw_perfbench::timed::{Timed, TimedMedium};
use macaw_phy::{Medium, SparseMedium};
use macaw_sim::{FelChoice, HeapFel, LadderFel, QueueStats};

const DUR: SimDuration = SimDuration::from_secs(2);

fn floor(seed: u64) -> Scenario {
    scale_topology(&ScaleConfig::with_stations(96), MacKind::Macaw, seed)
}

fn campus(seed: u64) -> Scenario {
    let mut cfg = CampusConfig::with_stations(96);
    cfg.mobile_share = 0.5;
    cfg.waypoint.speed_fps = 16.0;
    campus_topology(&cfg, MacKind::Macaw, DUR, seed)
}

/// Run `sc` on `M`/`Q`: the report's `Debug` text, the medium's counters,
/// the queue's counters and the ledger calls made by this thread meanwhile.
fn run<M: Medium, Q: FelChoice>(sc: Scenario) -> (String, MediumStats, QueueStats, Ledger) {
    let before = ledger::snapshot();
    let mut net = sc.build_with_queue::<M, Q>().expect("valid scenario");
    let end = SimTime::ZERO + DUR;
    net.set_warmup(SimTime::ZERO + SimDuration::from_millis(500));
    net.run_until(end).expect("run completes");
    let report = format!("{:?}", net.report(end));
    let calls = ledger::snapshot().since(&before);
    (
        report,
        net.medium().medium_stats(),
        net.queue_stats(),
        calls,
    )
}

fn assert_transparent<Q: FelChoice>(sc: impl Fn() -> Scenario, moves: bool) {
    let (plain, plain_medium, plain_queue, untimed) = run::<SparseMedium, Q>(sc());
    assert_eq!(untimed, Ledger::default(), "plain layers record nothing");
    let (timed, medium, queue, calls) = run::<TimedMedium<SparseMedium>, Timed<Q>>(sc());
    assert_eq!(plain, timed, "timed layers changed the report");
    assert_eq!(plain_medium, medium);
    assert_eq!(plain_queue, queue);

    assert!(medium.start_tx_ops > 0, "the scenario transmits");
    assert_eq!(calls.op(Op::StartTx).calls, medium.start_tx_ops);
    assert_eq!(calls.op(Op::EndTx).calls, medium.end_tx_ops);
    assert_eq!(calls.move_entries, medium.set_position_ops);
    assert_eq!(moves, medium.set_position_ops > 0);
    assert_eq!(calls.op(Op::FelPush).calls, queue.scheduled);
    assert!(calls.op(Op::FelPop).calls >= queue.popped);
    assert!(calls.op(Op::Move).sampled == calls.op(Op::Move).calls);
}

#[test]
fn timed_layers_are_transparent_on_a_static_floor() {
    for seed in [1, 7] {
        assert_transparent::<LadderFel>(|| floor(seed), false);
    }
}

#[test]
fn timed_layers_are_transparent_on_a_moving_campus() {
    for seed in [1, 7] {
        assert_transparent::<LadderFel>(|| campus(seed), true);
    }
}

#[test]
fn the_fel_wrapper_is_transparent_over_the_heap_too() {
    assert_transparent::<HeapFel>(|| campus(3), true);
}
