//! `macaw-bench`: one driver for every benchmark and report of this
//! repository, one subcommand each.
//!
//! `macaw-bench <subcommand> [flags]`: flags are parsed once
//! ([`macaw_bench::cli`]) against the set the subcommand accepts, and
//! `--shards N` sets the process-wide shard count before it runs. Each
//! subcommand's module documents what it measures and writes.

use macaw_bench::cli::{self, Args};
use macaw_bench::sharding::set_shards_override;

mod cmd {
    pub mod ablations;
    pub mod check;
    pub mod engine;
    pub mod faults;
    pub mod mobility;
    pub mod perf;
    pub mod replicate;
    pub mod scale;
    pub mod tables;
}

/// A subcommand: its name, the flags it accepts, and its entry point.
type Command = (&'static str, &'static [&'static str], fn(Args));

#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    ("tables", &["--quick", "--seed", "--table", "--jobs", "--shards"], cmd::tables::run),
    ("perf", &["--quick", "--iters", "--seed", "--out", "--jobs", "--shards"], cmd::perf::run),
    ("engine", &["--quick", "--seed", "--out", "--jobs", "--shards"], cmd::engine::run),
    ("faults", &["--quick", "--smoke", "--seed", "--out", "--jobs", "--shards"], cmd::faults::run),
    ("scale", &["--quick", "--smoke", "--seed", "--out", "--jobs", "--shards"], cmd::scale::run),
    ("mobility", &["--smoke", "--seed", "--out"], cmd::mobility::run),
    ("replicate", &["--quick", "--seed", "--reps", "--dur", "--jobs", "--out", "--cache-dir",
                    "--no-cache", "--fresh", "--no-check"], cmd::replicate::run),
    ("check", &["--smoke", "--seed", "--out", "--jobs"], cmd::check::run),
    ("ablations", &[], cmd::ablations::run),
];

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let sub = argv.first().map(String::as_str).unwrap_or("");
    let Some(&(name, accepts, run)) = COMMANDS.iter().find(|c| c.0 == sub) else {
        let names: Vec<&str> = COMMANDS.iter().map(|c| c.0).collect();
        eprintln!("unknown subcommand {sub:?}");
        eprintln!("usage: macaw-bench <{}> [flags]", names.join("|"));
        std::process::exit(2);
    };
    let args = cli::parse(name, accepts, &argv[1..])
        .unwrap_or_else(|e| cli::usage_exit(name, accepts, &e));
    if let Some(n) = args.shards {
        set_shards_override(n);
    }
    run(args);
}
