//! The `macaw-bench` driver's shared plumbing: one flag parser for every
//! subcommand, one fatal-error exit, and one writer that puts the same
//! header on every `BENCH_*.json`.
//!
//! Each subcommand declares the flags it accepts. Misuse — an unknown
//! flag, a flag the subcommand does not take, a missing or malformed value,
//! `--jobs 0` — prints the message and the subcommand's usage line to
//! stderr and exits 2. Run failures exit 1 ([`die`], [`write_json`]).

use crate::executor::{parse_jobs_arg, Executor};
use crate::sharding::parse_shards_arg;

/// Every flag some subcommand takes, with its value placeholder (`None`
/// for a switch).
const FLAGS: [(&str, Option<&str>); 14] = [
    ("--quick", None),
    ("--smoke", None),
    ("--seed", Some("N")),
    ("--out", Some("PATH")),
    ("--jobs", Some("N")),
    ("--shards", Some("N")),
    ("--iters", Some("N")),
    ("--table", Some("ID")),
    ("--reps", Some("R")),
    ("--dur", Some("SECS")),
    ("--cache-dir", Some("PATH")),
    ("--no-cache", None),
    ("--fresh", None),
    ("--no-check", None),
];

/// Parsed flags; a value flag not given stays `None` and the subcommand
/// applies its own default.
#[derive(Debug, Default)]
pub struct Args {
    pub quick: bool,
    pub smoke: bool,
    pub no_cache: bool,
    pub fresh: bool,
    pub no_check: bool,
    pub seed: Option<u64>,
    pub out: Option<String>,
    pub jobs: Option<usize>,
    pub shards: Option<usize>,
    pub iters: Option<u32>,
    pub table: Option<String>,
    pub reps: Option<u32>,
    pub dur: Option<u64>,
    pub cache_dir: Option<String>,
}

impl Args {
    /// The `--jobs` executor, else `MACAW_JOBS` / available parallelism.
    pub fn executor(&self) -> Executor {
        self.jobs
            .map(Executor::new)
            .unwrap_or_else(Executor::from_env)
    }
}

/// Parse `argv`, the words after the subcommand `cmd`, against the flags
/// `cmd` accepts.
pub fn parse(cmd: &str, accepts: &[&str], argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut words = argv.iter();
    while let Some(word) = words.next() {
        let Some(&(name, value)) = FLAGS.iter().find(|f| f.0 == word) else {
            return Err(format!("unknown argument {word}"));
        };
        if !accepts.contains(&name) {
            return Err(format!("{cmd} does not take {name}"));
        }
        let v = match value {
            Some(_) => words.next().ok_or(format!("{name} takes a value"))?,
            None => word,
        };
        let bad = |what: &str| format!("{name} takes {what}, got {v:?}");
        match name {
            "--quick" => args.quick = true,
            "--smoke" => args.smoke = true,
            "--no-cache" => args.no_cache = true,
            "--fresh" => args.fresh = true,
            "--no-check" => args.no_check = true,
            "--seed" => args.seed = Some(v.parse().map_err(|_| bad("an integer"))?),
            "--iters" => args.iters = Some(v.parse().map_err(|_| bad("an integer"))?),
            "--reps" => args.reps = Some(positive(v).ok_or(bad("an integer >= 1"))?),
            "--dur" => args.dur = Some(positive(v).ok_or(bad("seconds >= 1"))?),
            "--jobs" => args.jobs = Some(parse_jobs_arg(v)?),
            "--shards" => args.shards = Some(parse_shards_arg(v)?),
            "--out" => args.out = Some(v.clone()),
            "--table" => args.table = Some(v.clone()),
            "--cache-dir" => args.cache_dir = Some(v.clone()),
            _ => unreachable!("{name} is in FLAGS"),
        }
    }
    Ok(args)
}

/// `v` as a count of at least one (replications, seconds).
fn positive<T: std::str::FromStr + PartialOrd + Default>(v: &str) -> Option<T> {
    v.parse().ok().filter(|n| *n > T::default())
}

/// Print `msg` and the usage line of `cmd` (the flags it accepts) to
/// stderr; exit 2.
pub fn usage_exit(cmd: &str, accepts: &[&str], msg: &str) -> ! {
    let mut usage = format!("usage: macaw-bench {cmd}");
    for (name, value) in FLAGS.iter().filter(|f| accepts.contains(&f.0)) {
        match value {
            Some(value) => usage.push_str(&format!(" [{name} {value}]")),
            None => usage.push_str(&format!(" [{name}]")),
        }
    }
    eprintln!("{msg}\n{usage}");
    std::process::exit(2);
}

/// A run failed (a simulation error, a missing result): report it and exit 1.
pub fn die(e: &dyn std::fmt::Display) -> ! {
    eprintln!("simulation failed: {e}");
    std::process::exit(1);
}

/// Write one `BENCH_*.json` object to `path` and say so: the shared header
/// (`host_cores`, `workers`, `shards`, `git_rev`, `profile`) followed by
/// `body`, the writer's own `"key": value` lines. Exits 1 if `path` cannot
/// be written.
pub fn write_json(path: &str, workers: usize, shards: usize, body: &str) {
    let json = format!(
        "{{\n  \"host_cores\": {},\n  \"workers\": {workers},\n  \"shards\": {shards},\n  \
         \"git_rev\": \"{}\",\n  \"profile\": \"{}\",\n  {body}\n}}\n",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        git_rev(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {path}");
}

/// The commit this checkout is at, read from `.git` without running git;
/// `"unknown"` outside a git checkout.
fn git_rev() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../.git");
    let read = |p: &std::path::Path| {
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
