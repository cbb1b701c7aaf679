//! The measuring loop: run iterations for the requested time, check every
//! output, and format the result lines.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::ledger::{self, SAMPLE_EVERY};
use crate::metrics::{median, median_of, peak_rss_mb, per_layer, quartiles, Metric};
use crate::spans::{Spans, ROOT};
use crate::workloads::{iteration, Item, Iteration, Size, Workload, WORKERS};

/// The seed whose output digests are pinned in `digests.tsv`.
pub const DEFAULT_SEED: u64 = 1;

/// Whether `digests.tsv` pins the outputs of `w` at `seed` and `size`: at
/// full size and the default seed for every workload, and at every seed
/// for `proof_matrix`, whose inputs do not depend on the seed.
fn pinned(w: Workload, seed: u64, size: &Size) -> bool {
    *size == Size::FULL && (seed == DEFAULT_SEED || w == Workload::ProofMatrix)
}

/// Pinned output digests of the full-size workloads at [`DEFAULT_SEED`]:
/// `workload<TAB>item<TAB>digest` lines.
const PINNED: &str = include_str!("../digests.tsv");

#[derive(Clone, Copy, Debug)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
}

/// Everything one benchmark invocation prints, and the spans it recorded.
pub struct Outcome {
    /// Result lines for standard output; the last is the JSON result.
    pub lines: Vec<String>,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The one-line JSON result header (host, build, seed, inputs).
    pub header: String,
    pub spans: Spans,
}

/// Output checks across iterations: each item must match its pinned
/// digest, or else the first iteration's, and a traced item must match
/// its untraced twin bit for bit.
struct Checker {
    reference: BTreeMap<String, String>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Checker {
    fn new(w: Workload, pinned: bool) -> Self {
        let reference = if pinned {
            PINNED
                .lines()
                .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
                .filter_map(|l| {
                    let mut f = l.split('\t');
                    let (wl, item, digest) = (f.next()?, f.next()?, f.next()?);
                    (wl == w.name()).then(|| (item.to_string(), digest.to_string()))
                })
                .collect()
        } else {
            BTreeMap::new()
        };
        Checker {
            reference,
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        }
    }

    fn fail(&mut self, item: &Item, why: String) {
        self.failed += item.ops;
        if self.notes.len() < 20 {
            self.notes.push(format!("{}: {why}", item.name));
        }
    }

    /// Check one iteration; with `twin`, also its untraced counterpart.
    fn check(&mut self, it: &Iteration, twin: Option<&Iteration>) {
        for (k, item) in it.items.iter().enumerate() {
            self.attempted += item.ops;
            if let Some(e) = &item.error {
                self.fail(item, e.clone());
                continue;
            }
            let hex = item.digest.hex();
            let want = self
                .reference
                .entry(item.name.clone())
                .or_insert_with(|| hex.clone());
            if *want != hex {
                let why = format!("output digest {hex}, expected {want}");
                self.fail(item, why);
                continue;
            }
            if let Some(u) = twin.and_then(|u| u.items.get(k)) {
                if u.exact != item.exact {
                    self.fail(item, "traced output differs from untraced".to_string());
                }
            }
        }
    }
}

fn git_rev() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let Some(r) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(r))
        .or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split(' ').next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Format a JSON number: as measured, every digit; never NaN.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The iterations' wall time with every part at its fastest: the sum over
/// parts (see [`Iteration::parts`]) of the part's minimum over `its`. Other tenants' load on a shared host only
/// ever adds time, and it comes and goes over seconds to minutes, so the
/// median of a run measures the host as much as the code; a part's fastest
/// repetition measures the code.
fn fastest_parts(its: &[Iteration]) -> f64 {
    let mut best: Vec<f64> = Vec::new();
    for parts in its.iter().map(Iteration::parts) {
        best.resize(parts.len(), f64::INFINITY);
        for (b, p) in best.iter_mut().zip(parts) {
            *b = b.min(p);
        }
    }
    best.iter().sum()
}

/// Run the benchmark described by `opts`.
pub fn run(opts: &Options) -> Outcome {
    let w = opts.workload;
    let timer_ns = ledger::timer_overhead_ns();
    let spans = Spans::new(opts.trace);
    let off = Spans::new(false);
    let mut checker = Checker::new(w, pinned(w, opts.seed, &opts.size));
    let mut untraced: Vec<Iteration> = Vec::new();
    let mut samples: Vec<Vec<Metric>> = Vec::new();
    let mut fingerprint = None;
    let start = Instant::now();
    let mut last = 0.0;
    let ((), _) = spans.timed("workload", ROOT, false, |ctx| loop {
        let u = iteration(w, &opts.size, opts.seed, false, &off, ctx);
        checker.check(&u, None);
        fingerprint.get_or_insert(u.fingerprint);
        if opts.trace {
            let t = iteration(w, &opts.size, opts.seed, true, &spans, ctx);
            checker.check(&t, Some(&u));
            samples.push(per_layer(&t, &u, timer_ns));
        }
        // Keep only the numbers: item digests are checked already.
        untraced.push(Iteration {
            items: Vec::new(),
            ..u
        });
        // Stop when one more iteration as long as the last would overrun.
        let done = start.elapsed().as_secs_f64();
        if done + (done - last) > opts.seconds {
            break;
        }
        last = done;
    });

    let setups: Vec<f64> = untraced.iter().map(|i| i.setup_s).collect();
    let walls: Vec<f64> = untraced.iter().map(|i| i.wall_s).collect();
    let mut lines = Vec::new();
    let header = format!(
        "{{\"host_cores\": {}, \"workers\": {}, \"git_rev\": \"{}\", \"profile\": \"{}\", \
         \"seed\": {}, \"workload\": \"{}\", \"fingerprint\": \"{}\", \"trace\": {}, \
         \"iterations\": {}, \"sample_every\": {SAMPLE_EVERY}, \"timer_ns\": {timer_ns}}}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        WORKERS,
        git_rev(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        opts.seed,
        w.name(),
        fingerprint.map_or_else(String::new, |f| f.hex()),
        opts.trace as u8,
        untraced.len(),
    );
    lines.push(format!("# header {header}"));
    for n in &checker.notes {
        lines.push(format!("# failed {n}"));
    }

    let metrics = if opts.trace {
        median_of(&samples)
    } else {
        vec![
            Metric {
                name: "setup_s".into(),
                unit: "s",
                value: median(&setups),
            },
            Metric {
                name: "wall_s".into(),
                unit: "s",
                value: fastest_parts(&untraced),
            },
            Metric {
                name: "peak_rss_mb".into(),
                unit: "MB",
                value: peak_rss_mb(),
            },
        ]
    };
    for (name, v) in [("setup_s", &setups), ("wall_s", &walls)] {
        let (q1, q3) = quartiles(v).unwrap_or((v[0], v[0]));
        let spread = (q3 - q1) / median(v);
        lines.push(format!(
            "# {name} over {} untraced iterations: min {} median {} s (q1 {} q3 {} spread {})",
            v.len(),
            num(v.iter().copied().fold(f64::INFINITY, f64::min)),
            num(median(v)),
            num(q1),
            num(q3),
            num(spread)
        ));
    }
    for (name, v) in [("setup_s", &setups), ("wall_s", &walls)] {
        let all: Vec<String> = v.iter().map(|&x| num(x)).collect();
        lines.push(format!("# samples {name} {}", all.join(" ")));
    }
    for mt in &metrics {
        lines.push(format!("metric {} {} {}", mt.name, num(mt.value), mt.unit));
    }
    let failed_share = checker.failed as f64 / checker.attempted.max(1) as f64;
    lines.push(format!("metric failed_share {} ratio", num(failed_share)));

    let correct = checker.failed == 0;
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checker.attempted.max(1),
        checker.failed
    );
    for (i, mt) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            json,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            mt.name,
            num(mt.value),
            mt.unit
        )
        .expect("writing to a String never fails");
    }
    json.push_str("}}");
    lines.push(json);
    Outcome {
        lines,
        correct,
        attempted: checker.attempted.max(1),
        failed: checker.failed,
        header,
        spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::Digest;
    use crate::workloads::Layers;

    fn it(parts: &[f64], wall_s: f64) -> Iteration {
        Iteration {
            setup_s: 0.0,
            wall_s,
            items: Vec::new(),
            layers: Layers {
                part_s: parts.to_vec(),
                ..Layers::default()
            },
            fingerprint: Digest::default(),
        }
    }

    #[test]
    fn fastest_parts_takes_each_part_at_its_minimum() {
        // Parts: the timed ones, then the rest of the wall time.
        let its = [it(&[1.0, 4.0], 5.5), it(&[2.0, 3.0], 5.2)];
        assert_eq!(its[0].parts(), vec![1.0, 4.0, 0.5]);
        assert!((fastest_parts(&its) - (1.0 + 3.0 + 0.2)).abs() < 1e-12);
        // One iteration: its own wall time.
        assert!((fastest_parts(&its[..1]) - 5.5).abs() < 1e-12);
    }
}
