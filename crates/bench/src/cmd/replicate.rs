//! Multi-seed replication sweep: every paper table as mean ± 95% CI over
//! R independent seeds, written to `BENCH_replicate.json`.
//!
//! `macaw-bench replicate [--quick] [--seed N] [--reps R] [--dur SECS] [--jobs N]
//! [--out PATH] [--cache-dir PATH] [--no-cache] [--fresh] [--no-check]`
//!
//! Three phases, every run:
//!
//! 1. **Parallel sweep** — every `(table, run, replication)` triple on the
//!    work-stealing executor, memoized through the run cache
//!    (`target/run-cache` by default; `--fresh` wipes it first for a cold
//!    measurement).
//! 2. **Serial check** (skippable with `--no-check`) — the same sweep on
//!    one worker with the cache disabled. The aggregates must be bitwise
//!    identical to phase 1's (this also proves the cache's text round-trip
//!    is bit-exact), and the cold parallel/serial ratio is the reported
//!    speedup.
//! 3. **Warm rerun** — phase 1 again against the now-populated cache; it
//!    must execute *zero* simulations and still produce identical
//!    aggregates.
//!
//! `--quick` is the CI smoke (`scripts/verify.sh`): R = 3 at 10 s in a
//! scratch cache directory, all assertions live, no JSON.

use macaw_bench::cache::RunCache;
use macaw_bench::cli::{die, write_json, Args};
use macaw_bench::executor::Executor;
use macaw_bench::replicate::{sweep, to_json, SweepConfig};
use macaw_bench::sharding::effective_shards;
use macaw_bench::stopwatch::time_once;
use macaw_bench::{TableSpec, TABLE_SPECS};
use macaw_core::prelude::SimDuration;

pub fn run(args: Args) {
    let quick = args.quick;
    let root_seed = args.seed.unwrap_or(1);
    let (reps, dur_secs, fresh) = if quick {
        (3, 10, true)
    } else {
        (args.reps.unwrap_or(16), args.dur.unwrap_or(100), args.fresh)
    };

    let cfg = SweepConfig {
        root_seed,
        replications: reps,
        dur: SimDuration::from_secs(dur_secs),
    };
    let specs: Vec<&TableSpec> = TABLE_SPECS.iter().collect();
    let parallel = args.executor();
    let cache = if args.no_cache {
        RunCache::disabled()
    } else {
        let dir = args.cache_dir.clone().unwrap_or_else(|| {
            if quick {
                // Scratch directory: the smoke must not wipe (or warm-hit
                // against) a user's real run cache.
                "target/run-cache-quick".to_string()
            } else {
                RunCache::default_dir().display().to_string()
            }
        });
        RunCache::new(dir)
    };
    if fresh {
        cache.clear();
    }

    println!(
        "replicate: {} tables x R={reps} seeds (root {root_seed}), base {dur_secs} s, \
         {} workers, cache {}",
        specs.len(),
        parallel.workers(),
        match cache.dir() {
            Some(d) => format!("{} ({} entries)", d.display(), cache.len()),
            None => "disabled".to_string(),
        }
    );

    // Phase 1: parallel sweep through the cache.
    let (cold, par_secs) =
        time_once(|| sweep(&parallel, &cache, &specs, &cfg).unwrap_or_else(|e| die(&e)));
    let was_cold = cold.executed == cold.total_jobs;
    println!(
        "  parallel: {} simulations ({} executed, {} cache hits) in {:.2} s",
        cold.total_jobs,
        cold.executed,
        cold.total_jobs - cold.executed,
        par_secs
    );

    // Phase 2: serial, cache off — the bitwise serial==parallel check and
    // the honest speedup denominator.
    if !args.no_check {
        let (serial, ser_secs) = time_once(|| {
            sweep(&Executor::serial(), &RunCache::disabled(), &specs, &cfg)
                .unwrap_or_else(|e| die(&e))
        });
        assert_eq!(serial.executed, serial.total_jobs, "disabled cache must execute all");
        assert_eq!(
            cold.fingerprint_text(),
            serial.fingerprint_text(),
            "parallel (cached) and serial (uncached) aggregates must be bitwise identical"
        );
        let speedup = ser_secs / par_secs;
        println!(
            "  serial:   {} simulations in {:.2} s — aggregates bitwise identical; \
             speedup {speedup:.2}x{}",
            serial.total_jobs,
            ser_secs,
            if was_cold { "" } else { " (parallel phase was cache-assisted; rerun --fresh for a cold ratio)" }
        );
        // The >= 4x gate is only meaningful when 8 workers have 8 real
        // hardware threads to run on — oversubscribing a small machine
        // proves nothing either way.
        let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        if !quick && was_cold && parallel.workers() >= 8 {
            if hw >= 8 {
                assert!(
                    speedup >= 4.0,
                    "cold parallel sweep on {} workers must be >= 4x serial, got {speedup:.2}x",
                    parallel.workers()
                );
            } else {
                println!(
                    "  note: only {hw} hardware thread(s) available — skipping the >= 4x gate"
                );
            }
        }
    }

    // Phase 3: warm rerun — the cache must absorb every job. If the cache
    // directory never accepted a single store (read-only checkout, bogus
    // --cache-dir), the invariant is unverifiable: report that cleanly
    // instead of tripping the zero-executions assertion below.
    if cache.enabled() && cache.len() < cold.total_jobs {
        eprintln!(
            "cache directory {} holds {} of {} entries after the sweep — not writable? \
             (use --no-cache to skip the warm-cache check)",
            cache.dir().expect("enabled cache has a dir").display(),
            cache.len(),
            cold.total_jobs
        );
        std::process::exit(1);
    }
    if cache.enabled() {
        let (warm, warm_secs) =
            time_once(|| sweep(&parallel, &cache, &specs, &cfg).unwrap_or_else(|e| die(&e)));
        assert_eq!(
            warm.executed, 0,
            "warm-cache rerun must execute zero simulations"
        );
        assert_eq!(
            cold.fingerprint_text(),
            warm.fingerprint_text(),
            "warm-cache aggregates must be bitwise identical to the cold sweep"
        );
        println!(
            "  warm:     {} simulations, 0 executed, in {:.2} s (all {} from cache)",
            warm.total_jobs, warm_secs, warm.total_jobs
        );
    }

    if quick {
        if cache.enabled() {
            println!(
                "replicate --quick: serial == parallel bitwise, warm cache executed 0 of {} jobs",
                cold.total_jobs
            );
        } else {
            println!("replicate --quick: serial == parallel bitwise (cache disabled)");
        }
        return;
    }

    for t in &cold.tables {
        println!("{}", t.render());
    }
    let body = to_json(&cold, &cfg, parallel.workers(), par_secs);
    write_json(
        args.out.as_deref().unwrap_or("BENCH_replicate.json"),
        parallel.workers(),
        effective_shards(),
        &body,
    );
}
