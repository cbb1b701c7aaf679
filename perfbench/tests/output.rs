//! The benchmark's own output: every metric named and united, names
//! unique and well-formed, and the printed sets equal to `BENCHMARK.json`.
//!
//! Runs each workload at its miniature size for one iteration, untraced
//! and traced.

use std::collections::BTreeSet;

use macaw_perfbench::runner::{run, Options};
use macaw_perfbench::workloads::{Size, Workload};

/// `BENCHMARK.json` at the repository root.
const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

/// Every end-to-end metric, as printed on `metric` lines; the JSON result
/// carries all but `failed_share`, which it states as `failed`/`attempted`.
const END_TO_END: [&str; 4] = ["setup_s", "wall_s", "peak_rss_mb", "failed_share"];

fn run_once(w: Workload, trace: bool) -> Vec<String> {
    let out = run(&Options {
        workload: w,
        seed: 3,
        seconds: 0.0,
        trace,
        size: Size::SMOKE,
    });
    assert!(out.correct, "{}: {:?}", w.name(), out.lines);
    assert_eq!(out.failed, 0);
    assert!(out.attempted >= 1);
    out.lines
}

/// The value of `"key": "..."` inside `obj`.
fn string_field(obj: &str, key: &str) -> Option<String> {
    let at = obj.find(&format!("\"{key}\""))?;
    let rest = &obj[at + key.len() + 2..];
    let open = rest.find('"')? + 1;
    let close = rest[open..].find('"')?;
    Some(rest[open..open + close].to_string())
}

/// `(name, unit)` of every metric object in a `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    let start = BENCHMARK
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &BENCHMARK[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split('{')
        .skip(1)
        .map(|obj| {
            (
                string_field(obj, "name").expect("metric name"),
                string_field(obj, "unit").expect("metric unit"),
            )
        })
        .collect()
}

/// `(name, unit)` of every metric in the final JSON line, in order.
fn printed_json(lines: &[String]) -> Vec<(String, String)> {
    let last = lines.last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    assert!(last.contains(", \"failed\": 0, \"metrics\": {"), "{last}");
    let metrics = &last[last.find("\"metrics\": {").unwrap() + 12..];
    metrics
        .split("}, ")
        .map(|entry| {
            let name = entry.trim_start_matches('"');
            let name = &name[..name.find('"').expect("quoted name")];
            (name.to_string(), string_field(entry, "unit").expect("unit"))
        })
        .collect()
}

/// `(name, unit)` of every `metric <name> <value> <unit>` line.
fn printed_lines(lines: &[String]) -> Vec<(String, String)> {
    lines
        .iter()
        .filter_map(|l| l.strip_prefix("metric "))
        .map(|l| {
            let f: Vec<&str> = l.split(' ').collect();
            assert_eq!(f.len(), 3, "metric line {l}");
            assert!(f[1].parse::<f64>().is_ok(), "value of {l}");
            (f[0].to_string(), f[2].to_string())
        })
        .collect()
}

fn well_formed(metrics: &[(String, String)]) {
    let mut seen = BTreeSet::new();
    for (name, unit) in metrics {
        assert!(
            !name.is_empty()
                && name.len() <= 64
                && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad metric name {name:?}"
        );
        assert!(
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {unit:?} of {name}"
        );
        assert!(seen.insert(name.clone()), "duplicate metric {name}");
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    let json_declared = declared("end_to_end");
    for w in Workload::ALL {
        let lines = run_once(w, false);
        let json = printed_json(&lines);
        well_formed(&json);
        assert_eq!(json, json_declared, "{}", w.name());
        let human = printed_lines(&lines);
        well_formed(&human);
        let names: Vec<&str> = human.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, END_TO_END, "{}", w.name());
    }
}

#[test]
fn every_workload_traces_every_per_layer_metric() {
    let json_declared = declared("per_layer");
    for w in Workload::ALL {
        let lines = run_once(w, true);
        let json = printed_json(&lines);
        well_formed(&json);
        assert_eq!(json, json_declared, "{}", w.name());
        well_formed(&printed_lines(&lines));
    }
}
