//! Fingerprint-keyed persistent cache of completed simulation runs.
//!
//! A simulation here is a pure function of its inputs, so its
//! [`RunReport`] can be memoized on disk: the key is the scenario's
//! 128-bit fingerprint ([`Scenario::fingerprint`] — full configuration
//! plus seed plus crate version) folded with the run duration and warm-up.
//! A warm-cache sweep re-executes nothing; an interrupted sweep resumes
//! from whatever completed; an unrelated code edit that doesn't change
//! crate version or scenario shape keeps its hits (and any change that
//! *does* alter the inputs changes the key, so stale entries are simply
//! never looked up again).
//!
//! Entries are the text serialization from [`RunReport::to_cache_text`] —
//! bit-exact for every `f64` — written atomically (temp file + rename), so
//! a crash mid-write leaves either no entry or a complete one. Any load
//! failure (missing file, truncated write, stale format version) is a
//! cache miss, never an error: the simulation just runs again.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use macaw_core::prelude::*;
use macaw_core::stats::RunReport;
use macaw_sim::FastHasher;

/// A handle on one on-disk cache directory (or nothing, when disabled —
/// every lookup misses and stores are dropped, so callers never branch).
#[derive(Clone, Debug)]
pub struct RunCache {
    dir: Option<PathBuf>,
}

impl RunCache {
    /// A cache rooted at `dir` (created on first store).
    pub fn new(dir: impl Into<PathBuf>) -> RunCache {
        RunCache { dir: Some(dir.into()) }
    }

    /// A cache that never hits and never writes.
    pub fn disabled() -> RunCache {
        RunCache { dir: None }
    }

    /// The conventional cache location for this workspace.
    pub fn default_dir() -> PathBuf {
        PathBuf::from("target/run-cache")
    }

    pub fn enabled(&self) -> bool {
        self.dir.is_some()
    }

    /// The cache key for running `scenario` for `dur` measuring after
    /// `warm`: the scenario fingerprint (config + seed + crate version)
    /// folded with both durations, as two independent 64-bit lanes.
    pub fn key(scenario: &Scenario, dur: SimDuration, warm: SimDuration) -> [u64; 2] {
        use std::hash::Hasher;
        let fp = scenario.fingerprint();
        let fold = |lane: u64| {
            let mut h = FastHasher::default();
            h.write_u64(lane);
            h.write_u64(dur.as_nanos());
            h.write_u64(warm.as_nanos());
            h.finish()
        };
        [fold(fp[0]), fold(fp[1])]
    }

    fn path(&self, key: [u64; 2]) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("{:016x}{:016x}.run", key[0], key[1])))
    }

    /// Look up a completed run. Any failure to read or parse is a miss.
    pub fn load(&self, key: [u64; 2]) -> Option<RunReport> {
        let text = std::fs::read_to_string(self.path(key)?).ok()?;
        RunReport::from_cache_text(&text).ok()
    }

    /// Persist a completed run. Best-effort: the cache being unwritable
    /// (read-only checkout, full disk) must not fail the sweep, so errors
    /// are swallowed. The write is atomic — temp file in the same
    /// directory, then rename — so concurrent writers and crashes leave
    /// complete entries or none.
    pub fn store(&self, key: [u64; 2], report: &RunReport) {
        let Some(path) = self.path(key) else { return };
        let Some(dir) = path.parent() else { return };
        if std::fs::create_dir_all(dir).is_err() {
            return;
        }
        static TMP_SERIAL: AtomicU64 = AtomicU64::new(0);
        let tmp = dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            TMP_SERIAL.fetch_add(1, Ordering::Relaxed)
        ));
        if std::fs::write(&tmp, report.to_cache_text()).is_ok()
            && std::fs::rename(&tmp, &path).is_err()
        {
            let _ = std::fs::remove_file(&tmp);
        }
    }

    /// Run `scenario` through the cache: on a hit return the stored
    /// report, otherwise execute the simulation and persist it. The
    /// second value says whether a simulation actually executed — the
    /// warm-cache invariant ("rerun executes zero simulations") is
    /// asserted on its sum.
    pub fn run_cached(
        &self,
        scenario: Scenario,
        dur: SimDuration,
        warm: SimDuration,
    ) -> Result<(RunReport, bool), SimError> {
        let key = Self::key(&scenario, dur, warm);
        if let Some(hit) = self.load(key) {
            return Ok((hit, false));
        }
        // Sharded execution produces a bitwise-identical report, so
        // entries written under any `MACAW_SHARDS` value stay valid for
        // every other.
        let report = crate::sharding::run_report(scenario, dur, warm)?;
        self.store(key, &report);
        Ok((report, true))
    }

    /// Remove every cached entry under this cache's directory (used by
    /// `replicate --fresh` to force a cold sweep). A disabled or absent
    /// cache is a no-op. Only regular files matching the entry layout are
    /// touched.
    pub fn clear(&self) {
        let Some(dir) = &self.dir else { return };
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.ends_with(".run") || name.starts_with(".tmp-") {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }

    /// Number of completed entries on disk (0 when disabled).
    pub fn len(&self) -> usize {
        let Some(dir) = &self.dir else { return 0 };
        let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
        entries
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(".run"))
            .count()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The directory backing this cache, if enabled.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "macaw-cache-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_scenario(seed: u64) -> Scenario {
        let mut sc = Scenario::new(seed);
        let a = sc.add_station("A", Point::new(0.0, 0.0, 0.0), MacKind::Macaw);
        let b = sc.add_station("B", Point::new(5.0, 0.0, 0.0), MacKind::Macaw);
        sc.add_udp_stream("A-B", a, b, 16, 512);
        sc
    }

    const DUR: SimDuration = SimDuration::from_secs(5);
    const WARM: SimDuration = SimDuration::from_secs(1);

    #[test]
    fn cold_miss_then_warm_hit_is_bitwise_identical() {
        let dir = scratch("roundtrip");
        let cache = RunCache::new(&dir);
        let (cold, executed) = cache.run_cached(tiny_scenario(3), DUR, WARM).unwrap();
        assert!(executed, "empty cache must execute");
        assert_eq!(cache.len(), 1);
        let (warm, executed) = cache.run_cached(tiny_scenario(3), DUR, WARM).unwrap();
        assert!(!executed, "second lookup must hit");
        assert_eq!(cold, warm);
        assert_eq!(format!("{cold:?}"), format!("{warm:?}"), "hit must be bit-exact");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_separates_seed_duration_and_warmup() {
        let base = RunCache::key(&tiny_scenario(1), DUR, WARM);
        assert_ne!(base, RunCache::key(&tiny_scenario(2), DUR, WARM), "seed");
        assert_ne!(base, RunCache::key(&tiny_scenario(1), DUR * 2, WARM), "duration");
        assert_ne!(
            base,
            RunCache::key(&tiny_scenario(1), DUR, SimDuration::from_secs(2)),
            "warm-up"
        );
        assert_eq!(base, RunCache::key(&tiny_scenario(1), DUR, WARM), "stability");
    }

    #[test]
    fn stale_or_corrupt_entries_rerun() {
        let dir = scratch("corrupt");
        let cache = RunCache::new(&dir);
        let sc = tiny_scenario(5);
        let key = RunCache::key(&sc, DUR, WARM);
        let (fresh, _) = cache.run_cached(sc, DUR, WARM).unwrap();
        // Truncate the entry: parse fails, so the run must re-execute and
        // heal the entry in place.
        let path = cache.path(key).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert!(cache.load(key).is_none(), "truncated entry must miss");
        let (healed, executed) = cache.run_cached(tiny_scenario(5), DUR, WARM).unwrap();
        assert!(executed, "corrupt entry must re-execute");
        assert_eq!(fresh, healed);
        assert_eq!(cache.load(key).unwrap(), healed, "entry must be rewritten");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn previous_format_entry_is_a_miss() {
        // A v3 entry counted silent deferral expiries as events; serving it
        // would report a pre-parking event count.
        let dir = scratch("v3");
        let cache = RunCache::new(&dir);
        let sc = tiny_scenario(11);
        let key = RunCache::key(&sc, DUR, WARM);
        let (fresh, _) = cache.run_cached(sc, DUR, WARM).unwrap();
        let path = cache.path(key).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let v4 = "macaw-runreport v4\n";
        assert!(text.starts_with(v4), "entries are written in the v4 format");
        std::fs::write(&path, text.replacen(v4, "macaw-runreport v3\n", 1)).unwrap();
        assert!(cache.load(key).is_none(), "a v3 entry must miss");
        let (rerun, executed) = cache.run_cached(tiny_scenario(11), DUR, WARM).unwrap();
        assert!(executed, "a v3 entry must re-execute");
        assert_eq!(fresh, rerun);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabled_cache_always_executes() {
        let cache = RunCache::disabled();
        assert!(!cache.enabled());
        let (_, executed) = cache.run_cached(tiny_scenario(7), DUR, WARM).unwrap();
        assert!(executed);
        let (_, executed) = cache.run_cached(tiny_scenario(7), DUR, WARM).unwrap();
        assert!(executed, "disabled cache must never hit");
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn clear_empties_the_directory() {
        let dir = scratch("clear");
        let cache = RunCache::new(&dir);
        cache.run_cached(tiny_scenario(9), DUR, WARM).unwrap();
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
