//! Engine performance harness: wall time for the table workload plus
//! simulator events/sec on representative scenarios, written to
//! `BENCH_medium.json`.
//!
//! `macaw-bench perf [--quick] [--iters N] [--seed N] [--out PATH] [--jobs N] [--shards N]`
//!
//! `--jobs N` (or `MACAW_JOBS`) sizes the executor used by the quick
//! smoke; the timed table workload always runs serially — it *is* the
//! measured quantity. `--shards N` (or `MACAW_SHARDS`) runs every
//! simulation on the island-sharded engine: reports are bitwise
//! identical, but the wall times then measure the parallel engine, so
//! leave it at the default 1 when recording baselines. With
//! `--features alloc-stats` the engine probe also reports allocations
//! and the live-bytes peak per scenario.
//!
//! Two measurements:
//!
//! 1. **Table workload** — `all_tables(seed, 100 s)`, the same work as
//!    `macaw-bench tables --quick`, timed with [`macaw_bench::stopwatch`]. This is the
//!    number the optimization work is judged on (see `BENCH_medium.json`'s
//!    `baseline` block for the pre-optimization reference).
//! 2. **Engine probe** — the heaviest scenarios (Figure 10 under MACA and
//!    MACAW, Figure 11 under MACAW at 4x duration, and the N = 256
//!    office floor from `topology::scale_topology` under MACAW) run once
//!    each, reporting processed simulator events per wall-clock second.
//!
//! `--quick` is a smoke mode for CI (`scripts/verify.sh`): one short
//! iteration, no JSON output, non-zero exit if anything panics or any
//! throughput comes out non-finite or non-positive.
//!
//! Uses `std::time::Instant` only — the workspace builds offline, so
//! Criterion is unavailable (see `crates/proptest` for the same story).

use super::scale::terms_per_end;
use macaw_bench::alloc_stats::{self, AllocSnapshot};
use macaw_bench::cli::{die, write_json, Args};
use macaw_bench::sharding::{self, effective_shards};
use macaw_bench::stopwatch::{bench, time_once};
use macaw_bench::{all_tables, run_specs_with, warm_for, TABLES, TABLE_SPECS};
use macaw_core::figures;
use macaw_core::prelude::{
    scale_topology, MacKind, MediumStats, ScaleConfig, Scenario, SimDuration, SimTime,
};

/// Pre-optimization reference for the table workload, in milliseconds:
/// minimum of 5 interleaved runs of the pre-change build (commit 2b361a0
/// plus only the offline-build fixes) on the same host as the optimized
/// numbers recorded in `BENCH_medium.json`. See DESIGN.md "Performance"
/// for the measurement protocol.
const BASELINE_TABLES_QUICK_MS: f64 = 1060.0;

struct Probe {
    name: &'static str,
    events: u64,
    secs: f64,
    /// FEL operation counters for the run: schedules, live pops,
    /// cancellations hitting queued events, and the live-depth high-water
    /// mark — these attribute a throughput change to queue traffic (or
    /// rule it out).
    queue: macaw_sim::QueueStats,
    /// Allocation counters for the run (Some only with the `alloc-stats`
    /// feature): allocations + bytes are per-run deltas, peak is the
    /// process-lifetime live-bytes high-water mark.
    alloc: Option<AllocSnapshot>,
    /// Medium op counters for the run: end_tx calls, restricted folds and
    /// the fold terms they visited, and the slab high-water mark — these
    /// attribute a throughput change to the medium layer (or rule it out),
    /// the way `queue` does for the FEL.
    medium: MediumStats,
}

fn engine_probe(seed: u64) -> Vec<Probe> {
    let dur = SimDuration::from_secs(100);
    let warm = warm_for(dur);
    let mut out = Vec::new();
    for (name, build, dur_mul) in probe_scenarios(seed, false) {
        let (sc, d) = (build(), dur * dur_mul);
        let before = alloc_stats::snapshot();
        let ((report, medium), secs) =
            time_once(|| sharding::run_report_instrumented(sc, d, warm).unwrap_or_else(|e| die(&e)));
        let alloc = alloc_stats::snapshot().zip(before).map(|(now, then)| now.since(&then));
        assert!(
            report.total_throughput().is_finite() && report.total_throughput() > 0.0,
            "{name}: non-finite or zero throughput"
        );
        out.push(Probe {
            name,
            events: report.events_processed,
            secs,
            queue: report.queue_stats,
            alloc,
            medium,
        });
    }
    out
}

/// A probe scenario: name, builder, and multiple of the base duration.
pub type ProbeScenario = (&'static str, Box<dyn Fn() -> Scenario + Sync>, u64);

/// The engine probe's scenarios, shared with `macaw-bench engine`: the
/// heaviest paper figures (Figure 10 under MACA and MACAW, Figure 11 under
/// MACAW at 4x duration) and an office floor under MACAW, which exercises
/// the cube-grid medium at hundreds of stations — the regime the paper
/// figures never reach. `quick` moves Figure 11's mobility onset to 2 s
/// and shrinks the floor to 64 stations.
pub fn probe_scenarios(seed: u64, quick: bool) -> Vec<ProbeScenario> {
    let move_at = SimTime::ZERO + SimDuration::from_secs(if quick { 2 } else { 300 });
    let mut floor = ScaleConfig::with_stations(if quick { 64 } else { 256 });
    floor.pps = 8;
    vec![
        ("figure10-maca", Box::new(move || figures::figure10(MacKind::Maca, seed)), 1),
        ("figure10-macaw", Box::new(move || figures::figure10(MacKind::Macaw, seed)), 1),
        ("figure11-macaw", Box::new(move || figures::figure11(MacKind::Macaw, seed, move_at)), 4),
        (
            if quick { "scale64-macaw" } else { "scale256-macaw" },
            Box::new(move || scale_topology(&floor, MacKind::Macaw, seed)),
            1,
        ),
    ]
}

pub fn run(args: Args) {
    let iters = args.iters.unwrap_or(5);
    let seed = args.seed.unwrap_or(1);

    if args.quick {
        // Smoke mode: short run on the executor, sanity checks only, no
        // JSON (wall time here is informational, not the measured figure).
        let dur = SimDuration::from_secs(20);
        let ex = args.executor();
        let specs: Vec<_> = TABLE_SPECS.iter().collect();
        let (tables, secs) =
            time_once(|| run_specs_with(&ex, &specs, seed, dur).unwrap_or_else(|e| die(&e)));
        for t in &tables {
            for total in t.totals() {
                assert!(
                    total.is_finite() && total >= 0.0,
                    "{}: non-finite total throughput",
                    t.id
                );
            }
        }
        println!("perf --quick: {} tables in {:.1} ms, all totals finite", tables.len(), secs * 1e3);
        return;
    }

    let dur = SimDuration::from_secs(100);
    println!("table workload: all_tables(seed={seed}, 100 s), {iters} iters");
    let m = bench("all_tables-quick", iters, || all_tables(seed, dur).unwrap_or_else(|e| die(&e)));

    println!("\nper-table wall time (single runs):");
    let mut table_json = Vec::new();
    for (id, f) in TABLES {
        let (t, secs) = time_once(|| f(seed, dur).unwrap_or_else(|e| die(&e)));
        debug_assert_eq!(t.id, *id);
        println!("  {:<10} {:>8.1} ms", t.id, secs * 1e3);
        table_json.push(format!(
            "    {{ \"table\": \"{}\", \"wall_ms\": {:.1} }}",
            t.id,
            secs * 1e3
        ));
    }
    let table_json = table_json.join(",\n");

    println!("\nengine probe (single runs):");
    let probes = engine_probe(seed);
    let mut probe_json = String::new();
    let (mut tot_ev, mut tot_secs) = (0u64, 0.0f64);
    for p in &probes {
        let evps = p.events as f64 / p.secs;
        println!("  {:<16} {:>9} events in {:>7.1} ms = {:.2} Mev/s", p.name, p.events, p.secs * 1e3, evps / 1e6);
        println!(
            "  {:<16} queue: {} pushes, {} pops, {} cancels, depth high-water {}",
            "", p.queue.scheduled, p.queue.popped, p.queue.cancelled, p.queue.high_water
        );
        let terms_per_end = terms_per_end(&p.medium);
        println!(
            "  {:<16} medium: {} end_tx, {} folds, {} fold terms ({:.1} terms/end), slab high-water {}",
            "", p.medium.end_tx_ops, p.medium.folds, p.medium.fold_terms, terms_per_end,
            p.medium.slab_high_water
        );
        let alloc_json = match &p.alloc {
            Some(a) => {
                println!(
                    "  {:<16} alloc: {} allocations, {:.1} MiB allocated, peak live {:.1} MiB",
                    "",
                    a.allocations,
                    a.allocated_bytes as f64 / (1 << 20) as f64,
                    a.peak_bytes as f64 / (1 << 20) as f64
                );
                format!(
                    ", \"allocations\": {}, \"allocated_bytes\": {}, \"peak_live_bytes\": {}",
                    a.allocations, a.allocated_bytes, a.peak_bytes
                )
            }
            None => String::new(),
        };
        tot_ev += p.events;
        tot_secs += p.secs;
        probe_json.push_str(&format!(
            "    {{ \"scenario\": \"{}\", \"events\": {}, \"wall_secs\": {:.6}, \"events_per_sec\": {:.0}, \
             \"queue_pushes\": {}, \"queue_pops\": {}, \"queue_cancels\": {}, \"queue_high_water\": {}, \
             \"medium_end_tx_ops\": {}, \"medium_folds\": {}, \"medium_fold_terms\": {}, \
             \"fold_terms_per_end_tx\": {:.2}, \"slab_high_water\": {}{} }},\n",
            p.name, p.events, p.secs, evps,
            p.queue.scheduled, p.queue.popped, p.queue.cancelled, p.queue.high_water,
            p.medium.end_tx_ops, p.medium.folds, p.medium.fold_terms, terms_per_end,
            p.medium.slab_high_water,
            alloc_json
        ));
    }
    let total_evps = tot_ev as f64 / tot_secs;
    println!("  total: {} events in {:.1} ms = {:.2} Mev/s", tot_ev, tot_secs * 1e3, total_evps / 1e6);

    let speedup = BASELINE_TABLES_QUICK_MS / (m.min_secs * 1e3);
    println!(
        "\nspeedup vs pre-optimization baseline ({BASELINE_TABLES_QUICK_MS:.0} ms): {speedup:.2}x"
    );
    assert!(
        m.min_secs.is_finite() && m.min_secs > 0.0 && total_evps.is_finite(),
        "non-finite measurement"
    );

    let body = format!(
        "\"workload\": \"all_tables(seed={seed}, 100s) — same work as `tables --quick`\",\n  \
           \"iters\": {iters},\n  \
           \"tables_quick_ms\": {{ \"min\": {:.1}, \"mean\": {:.1}, \"max\": {:.1} }},\n  \
           \"baseline\": {{\n    \
             \"tables_quick_ms\": {BASELINE_TABLES_QUICK_MS:.1},\n    \
             \"note\": \"pre-optimization build (seed + offline-build fixes only), min of 5 interleaved runs on the same host\"\n  }},\n  \
           \"speedup_vs_baseline\": {speedup:.2},\n  \
           \"per_table\": [\n{table_json}\n  ],\n  \
           \"engine_probe\": [\n{}    {{ \"scenario\": \"total\", \"events\": {tot_ev}, \"wall_secs\": {tot_secs:.6}, \"events_per_sec\": {total_evps:.0} }}\n  ]",
        m.min_secs * 1e3,
        m.mean_secs * 1e3,
        m.max_secs * 1e3,
        probe_json,
    );
    // The timed table workload runs on one worker.
    write_json(args.out.as_deref().unwrap_or("BENCH_medium.json"), 1, effective_shards(), &body);
}
