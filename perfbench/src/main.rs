//! Command-line entry point; see `README.md`.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--digests]
//! ```
//!
//! Prints result lines and, last, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 1` reports the per-layer
//! metrics and writes the spans to `out/spans-<workload>-seed<N>.jsonl`
//! in the benchmark's directory. `--digests` prints the output digests of
//! one iteration in the format of `digests.tsv` instead.

use std::path::Path;
use std::process::ExitCode;

use macaw_perfbench::runner::{run, Options};
use macaw_perfbench::spans::{Spans, ROOT};
use macaw_perfbench::workloads::{iteration, Size, Workload};

const USAGE: &str =
    "usage: perfbench --workload <paper_tables|office_floor|campus_walk|proof_matrix> \
                     --seed N --seconds S --trace 0|1 [--digests]";

fn parse(args: &[String]) -> Result<(Options, bool), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut digests = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} takes a value"));
        match a.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err("--seconds must be within 0..=3600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--digests" => digests = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let seed = seed.ok_or("--seed is required")?;
    let opts = Options {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.unwrap_or(0.0),
        trace: trace.unwrap_or(false),
        size: Size::FULL,
    };
    if !digests && seconds.is_none() {
        return Err("--seconds is required".into());
    }
    Ok((opts, digests))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, digests) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if digests {
        let it = iteration(
            opts.workload,
            &opts.size,
            opts.seed,
            false,
            &Spans::new(false),
            ROOT,
        );
        for item in &it.items {
            if let Some(e) = &item.error {
                eprintln!("{}: {e}", item.name);
                return ExitCode::FAILURE;
            }
            println!(
                "{}\t{}\t{}",
                opts.workload.name(),
                item.name,
                item.digest.hex()
            );
        }
        return ExitCode::SUCCESS;
    }
    let out = run(&opts);
    if opts.trace {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!(
                "spans-{}-seed{}.jsonl",
                opts.workload.name(),
                opts.seed
            ));
        match out.spans.write_jsonl(&path, &out.header) {
            Ok(n) => println!("# spans {n} written to {}", path.display()),
            Err(e) => eprintln!("warning: could not write spans to {}: {e}", path.display()),
        }
    }
    for line in &out.lines {
        println!("{line}");
    }
    ExitCode::SUCCESS
}
