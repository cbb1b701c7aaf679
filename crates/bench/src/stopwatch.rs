//! A minimal `std::time::Instant` bench harness.
//!
//! The workspace builds with zero network access, so the bench targets
//! cannot use Criterion; this module provides the small subset we need:
//! run a closure N times, report min / mean / max wall time, and return the
//! numbers so callers (`macaw-bench perf`, `BENCH_medium.json`) can persist
//! them. No statistics beyond that — simulation benches here are long
//! deterministic runs, not nanosecond microbenches.

use std::time::Instant;

/// Wall-time measurements for one benched closure.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Bench label.
    pub name: String,
    /// Number of timed iterations.
    pub iters: u32,
    /// Fastest iteration, in seconds.
    pub min_secs: f64,
    /// Mean iteration, in seconds.
    pub mean_secs: f64,
    /// Slowest iteration, in seconds.
    pub max_secs: f64,
}

impl Measurement {
    /// Render as a one-line human-readable summary.
    pub fn render(&self) -> String {
        format!(
            "{:<32} {:>9.3} ms min / {:>9.3} ms mean / {:>9.3} ms max ({} iters)",
            self.name,
            self.min_secs * 1e3,
            self.mean_secs * 1e3,
            self.max_secs * 1e3,
            self.iters
        )
    }
}

/// Time `f` over `iters` iterations (plus one untimed warm-up) and print
/// the summary line. The closure's result is passed through
/// [`std::hint::black_box`] so the work cannot be optimized away.
pub fn bench<T>(name: &str, iters: u32, mut f: impl FnMut() -> T) -> Measurement {
    assert!(iters > 0, "bench needs at least one iteration");
    std::hint::black_box(f()); // warm-up
    let mut times = Vec::with_capacity(iters as usize);
    for _ in 0..iters {
        let start = Instant::now();
        std::hint::black_box(f());
        times.push(start.elapsed().as_secs_f64());
    }
    let min = times.iter().copied().fold(f64::INFINITY, f64::min);
    let max = times.iter().copied().fold(0.0f64, f64::max);
    let mean = times.iter().sum::<f64>() / times.len() as f64;
    let m = Measurement {
        name: name.to_string(),
        iters,
        min_secs: min,
        mean_secs: mean,
        max_secs: max,
    };
    println!("{}", m.render());
    m
}

/// Time a single invocation of `f`, returning `(result, seconds)`.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_ordered_stats() {
        let m = bench("noop", 5, || 1 + 1);
        assert_eq!(m.iters, 5);
        assert!(m.min_secs <= m.mean_secs && m.mean_secs <= m.max_secs);
        assert!(m.min_secs >= 0.0);
    }

    #[test]
    fn time_once_passes_result_through() {
        let (v, secs) = time_once(|| 42u32);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }
}
