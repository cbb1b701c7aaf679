//! Fault-injection ablation: every fault class across the protocol
//! ladder, written to `BENCH_faults.json`.
//!
//! `macaw-bench faults [--quick] [--smoke] [--seed N] [--out PATH] [--jobs N] [--shards N]`
//!
//! `--quick` runs 30-second simulations instead of 120 s. `--smoke` is
//! the CI mode (`scripts/verify.sh`): 10-second runs, assertions only,
//! no JSON — non-zero exit if any class fails, any goodput comes out
//! non-finite, or the headline corruption claim (MACAW ahead of MACA on
//! a corrupting channel) does not hold. `--jobs N` (or `MACAW_JOBS`)
//! pins the executor's worker count; `--shards N` (or `MACAW_SHARDS`)
//! runs each cell on the island-sharded engine, with identical output.

use macaw_bench::cli::{die, write_json, Args};
use macaw_bench::faults::all_faults_with;
use macaw_bench::sharding::effective_shards;
use macaw_core::prelude::SimDuration;

pub fn run(args: Args) {
    let dur = SimDuration::from_secs(if args.smoke {
        10
    } else if args.quick {
        30
    } else {
        120
    });
    let seed = args.seed.unwrap_or(7);

    // Every (class, protocol) cell is an independent executor job;
    // identical output to the serial runner (asserted in
    // tests/determinism.rs).
    let ex = args.executor();
    let results = all_faults_with(&ex, seed, dur).unwrap_or_else(|e| die(&e));

    for t in &results {
        for total in t.totals() {
            assert!(
                total.is_finite() && total >= 0.0,
                "{}: non-finite goodput",
                t.class
            );
        }
    }
    let corr = results
        .iter()
        .find(|t| t.class == "corruption")
        .unwrap_or_else(|| die(&"corruption class missing"));
    let totals = corr.totals();
    let (maca, macaw) = (totals[1], totals[2]);
    assert!(
        macaw > 0.0 && macaw > maca,
        "corruption claim failed: MACAW {macaw:.2} pps vs MACA {maca:.2} pps"
    );

    if args.smoke {
        println!(
            "faults --smoke: {} classes ok, corruption MACAW {macaw:.2} pps > MACA {maca:.2} pps",
            results.len()
        );
        return;
    }

    for t in &results {
        println!("{}", t.render());
        println!("{}", "-".repeat(60));
    }

    let classes: Vec<String> = results.iter().map(|t| t.to_json()).collect();
    let body = format!(
        "\"workload\": \"all_faults(seed={seed}, {}s) — protocol ladder under injected faults\",\n  \
           \"classes\": [\n{}\n  ]",
        dur.as_secs_f64() as u64,
        classes.join(",\n")
    );
    write_json(args.out.as_deref().unwrap_or("BENCH_faults.json"), ex.workers(), effective_shards(), &body);
}
