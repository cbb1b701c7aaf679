//! Metric names, units and values: end-to-end from untraced iterations,
//! per-layer from a traced iteration paired with an untraced one.

use crate::ledger::Op;
use crate::workloads::{row_names, Iteration, FRAME_KINDS};

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

fn m(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value: if value.is_finite() { value } else { 0.0 },
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The median of `v` (the mean of the middle two for an even count).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartiles, as Python's `statistics.quantiles(v, n=4)`
/// computes them (the "exclusive" method); `None` below two values.
pub fn quartiles(v: &[f64]) -> Option<(f64, f64)> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let q = |k: f64| {
        let pos = k * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    Some((q(1.0), q(3.0)))
}

/// Peak resident memory of this process in MB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Per-layer metrics of one traced iteration `t`, with rates taken from the
/// untraced iteration `u` of the same pair. `timer_ns` is the clock-read
/// cost removed from every sampled call.
pub fn per_layer(t: &Iteration, u: &Iteration, timer_ns: f64) -> Vec<Metric> {
    let l = &t.layers;
    let led = &l.ledger;
    let est = |op: Op| led.op(op).est_secs(timer_ns);
    let calls = |op: Op| led.op(op).calls as f64;
    let fel_ops = calls(Op::FelPush) + calls(Op::FelPop) + calls(Op::FelPeek);
    let fel_s = est(Op::FelPush) + est(Op::FelPop) + est(Op::FelPeek);
    let medium_ops = [Op::StartTx, Op::EndTx, Op::Move, Op::Query, Op::Other];
    let medium_s: f64 = medium_ops.iter().map(|&op| est(op)).sum();
    let net_s = (l.run_until_s - fel_s - medium_s).max(0.0);
    let ms = &l.medium;

    let mut out = vec![
        m("sim.fel.push", "count", calls(Op::FelPush)),
        m("sim.fel.pop", "count", calls(Op::FelPop)),
        m("sim.fel.peek", "count", calls(Op::FelPeek)),
        m("sim.fel.self_s", "s", fel_s),
        m("sim.fel.ns_per_op", "ns", ratio(fel_s * 1e9, fel_ops)),
        m("sim.fel.share", "ratio", ratio(fel_s, l.run_until_s)),
        m("sim.fel.high_water", "count", l.fel_high_water as f64),
        m("sim.fel.cancelled", "count", l.fel_cancelled as f64),
        m("phy.medium.start_tx.calls", "count", calls(Op::StartTx)),
        m("phy.medium.start_tx.self_s", "s", est(Op::StartTx)),
        m("phy.medium.end_tx.calls", "count", calls(Op::EndTx)),
        m("phy.medium.end_tx.self_s", "s", est(Op::EndTx)),
        m("phy.medium.move.calls", "count", led.move_entries as f64),
        m("phy.medium.move.self_s", "s", est(Op::Move)),
        m("phy.medium.query.calls", "count", calls(Op::Query)),
        m("phy.medium.query.self_s", "s", est(Op::Query)),
        m("phy.medium.other.calls", "count", calls(Op::Other)),
        m("phy.medium.other.self_s", "s", est(Op::Other)),
        m("phy.medium.self_s", "s", medium_s),
        m("phy.medium.share", "ratio", ratio(medium_s, l.run_until_s)),
        m("phy.medium.folds", "count", ms.folds as f64),
        m("phy.medium.fold_terms", "count", ms.fold_terms as f64),
        m(
            "phy.medium.fold_terms_per_end_tx",
            "ratio",
            ratio(ms.fold_terms as f64, ms.end_tx_ops as f64),
        ),
        m(
            "phy.medium.move_cell_hops",
            "count",
            ms.move_cell_hops as f64,
        ),
        m("phy.medium.move_noop", "count", ms.move_noop_ops as f64),
        m(
            "phy.medium.slab_high_water",
            "count",
            ms.slab_high_water as f64,
        ),
        m(
            "phy.medium.bytes_per_station",
            "B",
            ratio(l.medium_bytes as f64, l.stations as f64),
        ),
        m("core.network.events", "count", l.events as f64),
        m(
            "core.network.events_per_s",
            "1/s",
            ratio(u.layers.events as f64, u.layers.run_until_s),
        ),
        m("core.network.run_until_s", "s", l.run_until_s),
        m("core.network.self_s", "s", net_s),
        m(
            "core.network.self_ns_per_event",
            "ns",
            ratio(net_s * 1e9, l.events as f64),
        ),
        m("core.network.share", "ratio", ratio(net_s, l.run_until_s)),
    ];
    for (kind, n) in FRAME_KINDS.iter().zip(l.mac.frames) {
        out.push(m(format!("mac.frames.{kind}"), "count", n as f64));
    }
    out.extend([
        m("mac.timer_fires", "count", l.mac.timer_fires as f64),
        m(
            "mac.data_clean_ratio",
            "ratio",
            ratio(l.mac.data_clean as f64, l.mac.frames[3] as f64),
        ),
        m("core.topology.gen_s", "s", l.gen_s),
        m("core.scenario.build_s", "s", l.build_s),
        m("core.stats.report_s", "s", l.report_s),
        m("bench.executor.jobs", "count", l.jobs as f64),
        m("bench.executor.busy_s", "s", l.busy_s),
        m("bench.executor.idle_s", "s", l.idle_s),
        m("bench.executor.longest_job_s", "s", l.longest_job_s),
        m("check.explore.states", "count", l.check_states as f64),
        m("check.explore.dedup_hits", "count", l.check_dedup as f64),
        m("check.explore.sleep_skips", "count", l.check_sleep as f64),
        m(
            "check.explore.states_per_s",
            "1/s",
            ratio(u.layers.check_states as f64, u.layers.check_s),
        ),
    ]);
    for name in row_names() {
        let secs = l
            .rows
            .iter()
            .filter(|(r, _)| *r == name)
            .fold(0.0, |a, (_, s)| a + s);
        out.push(m(format!("check.row.{name}.s"), "s", secs));
    }
    out.extend([
        m("bench.trace.untraced_wall_s", "s", u.wall_s),
        m("bench.trace.traced_wall_s", "s", t.wall_s),
        m(
            "bench.trace.overhead",
            "ratio",
            ratio(t.wall_s, u.wall_s) - 1.0,
        ),
    ]);
    out
}

/// Combine several samples of the same metric list by per-metric median.
pub fn median_of(samples: &[Vec<Metric>]) -> Vec<Metric> {
    let Some(first) = samples.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, mt)| {
            let vals: Vec<f64> = samples.iter().map(|s| s[i].value).collect();
            m(mt.name.clone(), mt.unit, median(&vals))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), 5.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
