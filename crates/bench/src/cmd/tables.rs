//! Regenerate every table of the MACAW paper and print paper-vs-measured.
//!
//! `macaw-bench tables [--quick] [--seed N] [--table ID] [--jobs N] [--shards N]`
//!
//! `--quick` runs 100-second simulations instead of the paper's 500 s
//! (2000 s for Table 11); `--table 5` runs only Table 5 (and `--table 1`
//! also matches Figure 1). Tables fan out on the work-stealing executor —
//! each simulation is an independent deterministic job, so output is
//! identical for any worker count — and are printed in paper order.
//! `--jobs N` (or `MACAW_JOBS`) pins the worker count; `--shards N` (or
//! `MACAW_SHARDS`) additionally parallelizes *within* each simulation
//! via the island-sharded engine, with bitwise-identical output.

use macaw_bench::cli::{die, Args};
use macaw_bench::{default_duration, run_specs_with, TableSpec, TABLE_SPECS};
use macaw_core::prelude::SimDuration;

pub fn run(args: Args) {
    let dur = if args.quick {
        SimDuration::from_secs(100)
    } else {
        default_duration()
    };
    let seed = args.seed.unwrap_or(1);
    let only = args.table.as_deref();

    // Select before running, so `--table 5` costs one table, not twelve.
    let selected: Vec<&TableSpec> = TABLE_SPECS
        .iter()
        .filter(|spec| match &only {
            None => true,
            Some(want) => {
                // Accept "5", "table 5", "Figure 1" — but never by substring
                // ("1" must not also select Tables 10 and 11).
                let want = want.to_lowercase();
                spec.id.to_lowercase() == want
                    || spec.id.split_whitespace().last() == Some(want.as_str())
            }
        })
        .collect();
    if selected.is_empty() {
        eprintln!("no table matches {:?}", only.unwrap_or_default());
        let valid: Vec<&str> = TABLE_SPECS.iter().map(|s| s.id).collect();
        eprintln!("valid tables: {}", valid.join(", "));
        std::process::exit(2);
    }

    let results = run_specs_with(&args.executor(), &selected, seed, dur).unwrap_or_else(|e| die(&e));

    for t in results {
        println!("{}", t.render());
        let paper = t.paper_totals();
        let meas = t.totals();
        print!("totals:");
        for (c, (p, m)) in t.columns.iter().zip(paper.iter().zip(&meas)) {
            print!("  {c}: paper {p:.1} / measured {m:.1}");
        }
        println!("\n{}", "-".repeat(72));
    }
}
