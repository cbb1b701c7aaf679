//! The `macaw-bench` driver's command line: misuse exits 2 with usage on
//! stderr, an unwritable `--out` exits 1, and every written JSON starts
//! with the shared header.

use std::process::{Command, Output};

fn macaw_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_macaw-bench"))
        .args(args)
        .output()
        .expect("macaw-bench runs")
}

/// Exit code and stderr of `macaw-bench args...`.
fn run(args: &[&str]) -> (i32, String) {
    let out = macaw_bench(args);
    let code = out.status.code().expect("macaw-bench exits, not killed");
    (code, String::from_utf8_lossy(&out.stderr).into_owned())
}

#[track_caller]
fn assert_misuse(args: &[&str], says: &str) {
    let (code, stderr) = run(args);
    assert_eq!(code, 2, "{args:?} must exit 2; stderr:\n{stderr}");
    assert!(
        stderr.contains(says),
        "{args:?}: stderr lacks {says:?}:\n{stderr}"
    );
    assert!(
        stderr.contains("usage: macaw-bench"),
        "{args:?}: no usage line:\n{stderr}"
    );
}

#[test]
fn no_or_unknown_subcommand_exits_2() {
    assert_misuse(&[], "unknown subcommand");
    assert_misuse(&["bogus"], "unknown subcommand \"bogus\"");
    assert_misuse(&["--quick"], "unknown subcommand");
}

#[test]
fn unknown_flag_exits_2() {
    assert_misuse(&["tables", "--bogus"], "unknown argument --bogus");
    assert_misuse(&["faults", "quick"], "unknown argument quick");
}

#[test]
fn flag_the_subcommand_does_not_take_exits_2() {
    assert_misuse(
        &["mobility", "--jobs", "2"],
        "mobility does not take --jobs",
    );
    assert_misuse(&["check", "--shards", "2"], "check does not take --shards");
    assert_misuse(&["tables", "--serial"], "unknown argument --serial");
    assert_misuse(&["ablations", "--quick"], "ablations does not take --quick");
}

#[test]
fn usage_lists_exactly_the_subcommands_flags() {
    let (_, stderr) = run(&["mobility", "--bogus"]);
    assert!(stderr.contains("usage: macaw-bench mobility [--smoke] [--seed N] [--out PATH]\n"));
}

#[test]
fn missing_or_malformed_values_exit_2() {
    assert_misuse(&["faults", "--seed"], "--seed takes a value");
    assert_misuse(&["scale", "--seed", "seven"], "--seed takes an integer");
    assert_misuse(&["perf", "--iters", "-1"], "--iters takes an integer");
    assert_misuse(&["replicate", "--out"], "--out takes a value");
}

#[test]
fn zero_workers_or_shards_exit_2() {
    assert_misuse(&["tables", "--jobs", "0"], "--jobs");
    assert_misuse(&["check", "--jobs", "lots"], "--jobs");
    assert_misuse(&["engine", "--shards", "0"], "--shards");
}

#[test]
fn unknown_table_exits_2_listing_valid_ids() {
    let (code, stderr) = run(&["tables", "--quick", "--table", "bogus"]);
    assert_eq!(code, 2, "stderr:\n{stderr}");
    assert!(stderr.contains("no table matches \"bogus\""), "{stderr}");
    assert!(
        stderr.contains("valid tables: Figure 1, Table 1, Table 2"),
        "{stderr}"
    );
}

/// The cheapest run that writes JSON: one replication of every table at
/// one simulated second, no serial re-check, no cache.
const TINY_REPLICATE: [&str; 7] = [
    "replicate",
    "--reps",
    "1",
    "--dur",
    "1",
    "--no-check",
    "--no-cache",
];

#[test]
fn unwritable_out_exits_1() {
    let mut args = TINY_REPLICATE.to_vec();
    args.extend(["--out", "/nonexistent/x.json"]);
    let (code, stderr) = run(&args);
    assert_eq!(code, 1, "stderr:\n{stderr}");
    assert!(
        stderr.contains("cannot write /nonexistent/x.json"),
        "{stderr}"
    );
}

#[test]
fn written_json_starts_with_the_shared_header() {
    let path = std::env::temp_dir().join(format!("macaw-bench-cli-{}.json", std::process::id()));
    let mut args = TINY_REPLICATE.to_vec();
    args.extend([
        "--jobs",
        "2",
        "--out",
        path.to_str().expect("utf-8 temp path"),
    ]);
    let out = macaw_bench(&args);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&path).expect("JSON written");
    let _ = std::fs::remove_file(&path);
    let keys: Vec<&str> = json
        .lines()
        .skip(1)
        .take(5)
        .map(|l| l.trim().split(':').next().unwrap_or(""))
        .collect();
    assert_eq!(
        keys,
        [
            "\"host_cores\"",
            "\"workers\"",
            "\"shards\"",
            "\"git_rev\"",
            "\"profile\""
        ],
        "{json}"
    );
    assert!(json.contains("\n  \"workers\": 2,\n"), "{json}");
    assert!(
        json.contains("\n  \"jobs\": 2,\n"),
        "replicate keeps its own keys: {json}"
    );
    assert!(json.trim_end().ends_with('}'), "{json}");
}
