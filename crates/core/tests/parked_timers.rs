//! Parked deferral timers change nothing but the event count.
//!
//! A QUIET expiry at a station with nothing to send is parked instead of
//! dispatched, and fired late, just before the station's MAC is next
//! called (see the `network` module docs). These goldens are the reports of
//! the eager engine, which dispatched every such expiry as an event: a
//! moving campus and a crash/power-cycle fault run must reproduce every
//! line except the format header and `events`, and the event count is
//! pinned to its parked value as a deterministic op-count gate.

use macaw_core::prelude::*;

const RUN: SimDuration = SimDuration::from_secs(5);
const WARM: SimDuration = SimDuration::from_secs(1);

/// Check `report` against an eager-engine golden: every line but the
/// header and `events` byte-equal, and `events` at `parked_events`, below
/// the eager count.
fn assert_matches_eager(report: &RunReport, golden: &str, parked_events: u64) {
    let strip = |text: &str| -> Vec<String> {
        text.lines()
            .skip(1)
            .filter(|l| !l.starts_with("events "))
            .map(str::to_owned)
            .collect()
    };
    assert_eq!(strip(&report.to_cache_text()), strip(golden));
    let eager: u64 = golden
        .lines()
        .find_map(|l| l.strip_prefix("events "))
        .and_then(|n| n.parse().ok())
        .expect("golden has an events line");
    assert_eq!(report.events_processed, parked_events);
    assert!(
        parked_events < eager,
        "{parked_events} events, eager {eager}"
    );
}

/// 64 stations, half of the ground stations walking at 16 ft/s.
fn moving_campus() -> Scenario {
    let mut cfg = CampusConfig::with_stations(64);
    cfg.mobile_share = 0.5;
    cfg.waypoint.speed_fps = 16.0;
    campus_topology(&cfg, MacKind::Macaw, RUN, 1)
}

/// A 32-station floor with four seeded crashes (restarting, queues kept)
/// on top of the default fault mix, and one station power-cycled.
fn crashing_floor() -> Scenario {
    let mut sc = scale_topology(&ScaleConfig::with_stations(32), MacKind::Macaw, 2);
    let cfg = FaultPlanConfig {
        duration: RUN,
        crashes: 4,
        ..FaultPlanConfig::default()
    };
    FaultPlan::generate(2, &cfg, sc.station_count())
        .apply(&mut sc)
        .unwrap();
    let at = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
    sc.power_off_at(at(2000), 5).power_on_at(at(2500), 5);
    sc
}

#[test]
fn moving_campus_matches_the_eager_engine() {
    let report = moving_campus().run(RUN, WARM).unwrap();
    assert_matches_eager(&report, include_str!("golden/parked_campus.txt"), 35157);
}

#[test]
fn crash_faults_match_the_eager_engine() {
    let report = crashing_floor().run(RUN, WARM).unwrap();
    assert_matches_eager(&report, include_str!("golden/parked_crash.txt"), 20399);
}
