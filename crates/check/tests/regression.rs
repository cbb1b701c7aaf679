//! The checker catches bugs, not just confirms health: seed a deliberate
//! regression — a MACAW variant whose WfCts timeout arm is suppressed —
//! and demand the minimal counterexample.
//!
//! This is the checker's own regression test. If the explorer's stuck-wait
//! detection, fault branching or deepening schedule breaks, this test goes
//! red before any protocol bug would be missed in the field.

use macaw_check::{
    check, check_fan, CheckConfig, CheckReport, Expectation, FaultClass, SubtreeOut, Topology,
    ViolationKind, WorldEvent,
};
use macaw_mac::context::{MacContext, MacResult};
use macaw_mac::{
    Addr, Frame, MacConfig, MacProtocol, MacSdu, MacSnapshot, Relabeling, WMac, WMacSnapshot,
};
use macaw_sim::SimTime;

/// MACAW with its WfCts timeout arm suppressed: the timer is consumed but
/// the state machine never reacts, so a lost CTS leaves the sender parked
/// in WfCts forever.
#[derive(Clone)]
struct NoWfCtsTimeout(WMac);

impl MacProtocol for NoWfCtsTimeout {
    fn enqueue(&mut self, ctx: &mut dyn MacContext, dst: Addr, sdu: MacSdu) -> MacResult {
        self.0.enqueue(ctx, dst, sdu)
    }

    fn on_receive(&mut self, ctx: &mut dyn MacContext, frame: &Frame) -> MacResult {
        self.0.on_receive(ctx, frame)
    }

    fn on_timer(&mut self, ctx: &mut dyn MacContext) -> MacResult {
        if self.0.state_kind() == "WfCts" {
            // The seeded bug: swallow the timeout.
            return Ok(());
        }
        self.0.on_timer(ctx)
    }

    fn on_tx_end(&mut self, ctx: &mut dyn MacContext) -> MacResult {
        self.0.on_tx_end(ctx)
    }

    fn queued_packets(&self) -> usize {
        self.0.queued_packets()
    }
}

impl MacSnapshot for NoWfCtsTimeout {
    type Snap = WMacSnapshot;

    fn snapshot(&self, now: SimTime) -> WMacSnapshot {
        self.0.snapshot(now)
    }

    fn state_kind(&self) -> &'static str {
        self.0.state_kind()
    }

    fn awaits_timer(&self) -> bool {
        self.0.awaits_timer()
    }

    fn transmitting(&self) -> bool {
        self.0.transmitting()
    }

    fn relabel(snap: &WMacSnapshot, map: &Relabeling<'_>) -> WMacSnapshot {
        WMac::relabel(snap, map)
    }
}

/// The seeded-bug check: Loss budget 1, deepening one step at a time so
/// the counterexample is exactly minimal, split at `split_depth` (zero:
/// serial).
fn check_seeded_bug(split_depth: u32) -> CheckReport {
    let mut cfg = CheckConfig::new(FaultClass::Loss { budget: 1 }, Expectation::DeliverAll);
    cfg.depth_step = 1;
    cfg.split_depth = split_depth;
    let serial_fan =
        |n: usize, f: &(dyn Fn(usize) -> SubtreeOut + Sync)| (0..n).map(f).collect::<Vec<_>>();
    check_fan(
        "macaw-no-wfcts-timeout",
        &Topology::shared_cell(2),
        &cfg,
        |i| NoWfCtsTimeout(WMac::new(Addr::Unicast(i), MacConfig::macaw())),
        serial_fan,
    )
}

/// Assert the rendered counterexample byte for byte against the golden
/// file: event order, clocks, per-station actions and state names all
/// matter.
fn assert_golden(report: &CheckReport) {
    let violation = report
        .violation
        .as_ref()
        .expect("the seeded bug must be found");
    assert_eq!(
        format!("{violation}"),
        include_str!("golden/wfcts_timeout.txt"),
        "rendered counterexample drifted"
    );
}

/// With a split, the first steps of the counterexample come from the job
/// prefix and the rest from the job's own search; the rendering must not
/// show the seam: it is byte for byte the serial run's.
#[test]
fn split_seeded_bug_counterexample_matches_the_serial_golden_text() {
    assert_golden(&check_seeded_bug(2));
}

#[test]
fn suppressed_wfcts_timeout_is_caught_with_a_minimal_counterexample() {
    let report = check_seeded_bug(0);

    let violation = report
        .violation
        .as_ref()
        .expect("the seeded bug must be found");
    match &violation.kind {
        ViolationKind::StuckWait { station, detail } => {
            assert_eq!(*station, 0, "the sender is the stuck station");
            assert!(
                detail.contains("WfCts"),
                "stuck in WfCts, reported as: {detail}"
            );
        }
        other => panic!("expected a stuck wait, found: {other}"),
    }

    // The minimal path: contend fires (RTS up), the RTS is lost at the
    // receiver (spending the budget), the orphaned WfCts timeout fires and
    // is swallowed. Three steps, no detours.
    assert_eq!(violation.trace.len(), 3, "{violation}");
    assert!(matches!(
        violation.trace[0].event,
        WorldEvent::Fire {
            station: 0,
            blind: false
        }
    ));
    match &violation.trace[1].event {
        WorldEvent::FlightEnd {
            src,
            order,
            lost,
            noise,
        } => {
            assert_eq!(*src, 0);
            assert!(order.is_empty(), "the one receiver lost the frame");
            assert_eq!(lost, &[1]);
            assert!(!noise);
        }
        other => panic!("expected the RTS flight to end, found: {other}"),
    }
    assert!(matches!(
        violation.trace[2].event,
        WorldEvent::Fire {
            station: 0,
            blind: false
        }
    ));
    assert_eq!(
        violation.trace[2].states[0], "WfCts",
        "the sender is still parked in WfCts after its timer fired"
    );
    assert_golden(&report);
}

#[test]
fn the_unmodified_protocol_passes_the_same_check() {
    // Control arm: identical configuration, real MACAW — no violation.
    let mut cfg = CheckConfig::new(FaultClass::Loss { budget: 1 }, Expectation::DeliverAll);
    cfg.depth_step = 1;
    cfg.max_depth = 96;
    let report = check("macaw", &Topology::shared_cell(2), &cfg, |i| {
        let mut mc = MacConfig::macaw();
        mc.max_retries = 2;
        mc.bo_max = 4;
        WMac::new(Addr::Unicast(i), mc)
    });
    assert!(report.ok(), "{report}");
    assert!(report.complete);
}

/// The search itself is pinned, not just its verdict: the four rows of the
/// benchmark's proof matrix (MACAW, `Loss { budget: 2 }`, `ResolveAll`,
/// reduced, depth 96, checker seed 1) must explore exactly these counts.
/// Any change to canonicalization, memo keys, the symmetry minimum or the
/// sleep-set mapping that is meant to be behaviour-preserving must leave
/// every tuple untouched.
#[test]
fn proof_matrix_search_counts_are_pinned() {
    let want = [
        ("exposed_contenders", 21547, 8227, 8, true),
        ("twin_cells", 59031, 3893, 3194, true),
        ("triple_cells", 10795, 2066, 1909, true),
        ("quad_cells", 19461, 5428, 6933, true),
    ];
    let got: Vec<_> = [
        Topology::exposed_contenders(),
        Topology::twin_cells(),
        Topology::triple_cells(),
        Topology::quad_cells(),
    ]
    .iter()
    .map(|topo| {
        let mut cfg =
            CheckConfig::new(FaultClass::Loss { budget: 2 }, Expectation::ResolveAll).reduced();
        cfg.seed = 1;
        cfg.max_depth = 96;
        let report = check("macaw", topo, &cfg, |i| {
            let mut mc = MacConfig::macaw();
            mc.max_retries = 2;
            mc.bo_max = 4;
            WMac::new(Addr::Unicast(i), mc)
        });
        let s = &report.stats;
        (
            topo.name,
            s.states_explored,
            s.dedup_hits,
            s.sleep_skips,
            report.complete,
        )
    })
    .collect();
    assert_eq!(got, want, "proof-matrix search counts drifted");
}
