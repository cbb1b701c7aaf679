//! The four workloads: one measured iteration each, plus the per-layer
//! counts and stopwatches gathered around the public calls it makes.
//!
//! Every workload is a list of jobs (simulation runs or checker rows) fanned
//! out on the repository's [`Executor`] with [`WORKERS`] worker (an inline
//! loop). An untraced iteration runs on the
//! plain `SparseMedium` and `LadderFel`; a traced one swaps in
//! [`TimedMedium`] and [`Timed`], installs a frame tracer and records spans.

use std::cell::RefCell;
use std::fmt::Write;
use std::rc::Rc;
use std::time::Instant;

use macaw_bench::executor::Executor;
use macaw_bench::{warm_for, RunSpec, TABLE_SPECS};
use macaw_check::{check, CheckConfig, CheckReport, Expectation, FaultClass, Topology};
use macaw_core::mobility::campus_topology;
use macaw_core::network::TraceEvent;
use macaw_core::prelude::*;
use macaw_mac::{Addr, FrameKind, WMac};
use macaw_phy::{Medium, SparseMedium};
use macaw_sim::{FelChoice, LadderFel};

use crate::digest::Digest;
use crate::ledger::{self, Ledger};
use crate::spans::{SpanCtx, Spans};
use crate::timed::{Timed, TimedMedium};

/// A named workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    PaperTables,
    OfficeFloor,
    CampusWalk,
    ProofMatrix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperTables,
        Workload::OfficeFloor,
        Workload::CampusWalk,
        Workload::ProofMatrix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperTables => "paper_tables",
            Workload::OfficeFloor => "office_floor",
            Workload::CampusWalk => "campus_walk",
            Workload::ProofMatrix => "proof_matrix",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Executor workers of every workload. One: on a host of a few shared
/// cores a second worker thread made `paper_tables`' wall time drift with
/// the other tenants' load, so all load comes from a single thread.
pub const WORKERS: usize = 1;

/// How big the workloads are. [`Size::FULL`] is the benchmark; the
/// miniature [`Size::SMOKE`] keeps every name and code path for tests.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Size {
    /// Stations on the office floor and the campus.
    pub stations: usize,
    /// Offered load per floor stream (packets per second).
    pub pps: u64,
    /// Floor and campus simulated time and warm-up, in milliseconds.
    pub sim_ms: u64,
    pub warm_ms: u64,
    /// Base paper-table duration in seconds (Table 11 runs 4x).
    pub table_secs: u64,
    /// Fault budget of the proof-matrix rows.
    pub loss_budget: u8,
}

impl Size {
    pub const FULL: Size = Size {
        stations: 16384,
        pps: 1,
        sim_ms: 5000,
        warm_ms: 1000,
        table_secs: 500,
        loss_budget: 2,
    };
    pub const SMOKE: Size = Size {
        stations: 128,
        pps: 8,
        sim_ms: 1000,
        warm_ms: 200,
        table_secs: 10,
        loss_budget: 0,
    };
}

/// Share of ground stations that walk on the campus, and their speed.
const CAMPUS_MOBILE_SHARE: f64 = 0.5;
const CAMPUS_SPEED_FPS: f64 = 16.0;

/// The checker seed of every proof-matrix row. The benchmark seed does not
/// reach the checker: its seed reshapes the explored space (89k to 164k
/// states over seeds 1 to 10), so wall time would measure the seed rather
/// than the code. The rows' inputs are their topologies.
pub const CHECK_SEED: u64 = 1;

/// The proof-matrix rows: MACAW, `Loss { budget }`, `ResolveAll`.
const ROWS: [fn() -> Topology; 4] = [
    Topology::exposed_contenders,
    Topology::twin_cells,
    Topology::triple_cells,
    Topology::quad_cells,
];

/// Names of the proof-matrix rows, in order (for metric names).
pub fn row_names() -> Vec<&'static str> {
    ROWS.iter().map(|r| r().name).collect()
}

/// MAC frames and timers seen by the network tracer.
#[derive(Clone, Copy, Default, Debug)]
pub struct MacTally {
    /// Frames sent, by kind: RTS, CTS, DS, DATA, ACK, RRTS, NACK.
    pub frames: [u64; 7],
    pub timer_fires: u64,
    /// DATA frames received clean by their destination (for multicast:
    /// by at least one member).
    pub data_clean: u64,
}

pub const FRAME_KINDS: [&str; 7] = ["rts", "cts", "ds", "data", "ack", "rrts", "nack"];

impl MacTally {
    fn note(&mut self, ev: &TraceEvent) {
        match ev {
            TraceEvent::MacTimer { .. } => self.timer_fires += 1,
            TraceEvent::Frame { frame, clean, .. } => {
                let k = match frame.kind {
                    FrameKind::Rts => 0,
                    FrameKind::Cts => 1,
                    FrameKind::Ds => 2,
                    FrameKind::Data => 3,
                    FrameKind::Ack => 4,
                    FrameKind::Rrts => 5,
                    FrameKind::Nack => 6,
                };
                self.frames[k] += 1;
                if frame.kind == FrameKind::Data {
                    let got = match frame.dst {
                        Addr::Unicast(d) => clean.contains(&d),
                        Addr::Multicast(_) => !clean.is_empty(),
                    };
                    self.data_clean += got as u64;
                }
            }
        }
    }

    fn add(&mut self, o: &MacTally) {
        for (a, b) in self.frames.iter_mut().zip(&o.frames) {
            *a += b;
        }
        self.timer_fires += o.timer_fires;
        self.data_clean += o.data_clean;
    }
}

/// Per-layer counts and stopwatch totals of one iteration. High-water
/// marks take the maximum over jobs; everything else sums.
#[derive(Clone, Default, Debug)]
pub struct Layers {
    /// FEL and medium calls made inside `run_until` (traced only).
    pub ledger: Ledger,
    pub run_until_s: f64,
    pub events: u64,
    pub fel_high_water: u64,
    pub fel_cancelled: u64,
    pub medium: MediumStats,
    pub medium_bytes: u64,
    pub stations: u64,
    pub mac: MacTally,
    pub gen_s: f64,
    pub build_s: f64,
    /// `Network::report` plus table assembly and rendering.
    pub report_s: f64,
    pub jobs: u64,
    /// Seconds of each timed part of the measured work, in order: every
    /// `run_until` slice of every simulation, or every checker row.
    pub part_s: Vec<f64>,
    pub busy_s: f64,
    pub idle_s: f64,
    pub longest_job_s: f64,
    pub check_states: u64,
    pub check_dedup: u64,
    pub check_sleep: u64,
    pub check_s: f64,
    /// Seconds per proof-matrix row, in row order.
    pub rows: Vec<(&'static str, f64)>,
}

impl Layers {
    fn absorb(&mut self, o: &Layers) {
        self.ledger.add(&o.ledger);
        self.run_until_s += o.run_until_s;
        self.events += o.events;
        self.fel_high_water = self.fel_high_water.max(o.fel_high_water);
        self.fel_cancelled += o.fel_cancelled;
        self.medium.merge(o.medium);
        self.medium_bytes += o.medium_bytes;
        self.stations += o.stations;
        self.mac.add(&o.mac);
        self.gen_s += o.gen_s;
        self.build_s += o.build_s;
        self.report_s += o.report_s;
        self.check_states += o.check_states;
        self.check_dedup += o.check_dedup;
        self.check_sleep += o.check_sleep;
        self.check_s += o.check_s;
        self.rows.extend_from_slice(&o.rows);
        self.part_s.extend_from_slice(&o.part_s);
    }
}

/// One checked output of an iteration: a paper table, a floor run or a
/// checker row.
#[derive(Clone, Debug)]
pub struct Item {
    pub name: String,
    /// Digest of the observable outputs the benchmark pins.
    pub digest: Digest,
    /// Digest of the complete output (every report field), for the
    /// traced/untraced comparison.
    pub exact: Digest,
    /// Operations (runs or rows) behind this item.
    pub ops: u64,
    /// A run failed (`SimError`, watchdog) or a verdict was unexpected.
    pub error: Option<String>,
}

/// One measured iteration of a workload.
#[derive(Clone, Debug)]
pub struct Iteration {
    pub setup_s: f64,
    pub wall_s: f64,
    pub items: Vec<Item>,
    pub layers: Layers,
    /// Digest of every input (scenario fingerprints, checker configs).
    pub fingerprint: Digest,
}

impl Iteration {
    /// `wall_s` split into parts: the timed parts ([`Layers::part_s`]),
    /// then the rest (reports, table assembly, executor overhead).
    pub fn parts(&self) -> Vec<f64> {
        let timed = &self.layers.part_s;
        let rest = self.wall_s - timed.iter().sum::<f64>();
        timed.iter().copied().chain([rest]).collect()
    }
}

/// What one job of a fan-out returns besides its output.
struct JobOut<T> {
    out: T,
    layers: Layers,
    setup_s: f64,
    fingerprint: String,
}

/// Fan `n` jobs out on [`WORKERS`] executor workers, timing each job and
/// the whole fan-out. Returns the outputs in job order, the summed layers
/// (with the executor's share filled in), the summed setup seconds, the
/// input fingerprint and the fan-out wall time.
fn fan_out<T: Send>(
    n: usize,
    spans: &Spans,
    parent: SpanCtx,
    job: impl Fn(usize, SpanCtx) -> JobOut<T> + Sync,
) -> (Vec<T>, Layers, f64, Digest, f64) {
    let ex = Executor::new(WORKERS);
    let (done, wall) = spans.timed("fan_out", parent, false, |ctx| {
        ex.run(n, |j| spans.timed("job", ctx, true, |jctx| job(j, jctx)))
    });
    let mut layers = Layers::default();
    let mut setup_s = 0.0;
    let mut fp = Digest::default();
    let mut outs = Vec::with_capacity(n);
    for (j, busy) in done {
        layers.absorb(&j.layers);
        layers.jobs += 1;
        layers.busy_s += busy;
        layers.longest_job_s = layers.longest_job_s.max(busy);
        setup_s += j.setup_s;
        fp.write_str(&j.fingerprint).expect("hashing never fails");
        outs.push(j.out);
    }
    layers.idle_s = (WORKERS as f64 * wall - layers.busy_s).max(0.0);
    (outs, layers, setup_s, fp, wall)
}

/// Each simulation runs to its end in this many equal steps of simulated
/// time, each a timed part of the run (see [`Iteration::parts`]). Stopping
/// and resuming `run_until` changes no output; the pinned digests check it.
const RUN_SLICES: u64 = 50;

/// Build `sc` on medium `M` and queue family `Q`, run it and report.
fn simulate<M: Medium, Q: FelChoice>(
    sc: Scenario,
    dur: SimDuration,
    warm: SimDuration,
    traced: bool,
    spans: &Spans,
    ctx: SpanCtx,
) -> (Result<RunReport, SimError>, Layers) {
    let mut l = Layers::default();
    let (net, secs) = spans.timed("build", ctx, false, |_| sc.build_with_queue::<M, Q>());
    l.build_s = secs;
    let mut net = match net {
        Ok(n) => n,
        Err(e) => return (Err(e), l),
    };
    let tally = Rc::new(RefCell::new(MacTally::default()));
    if traced {
        let t = Rc::clone(&tally);
        net.set_tracer(Box::new(move |ev| t.borrow_mut().note(&ev)));
    }
    let end = SimTime::ZERO + dur;
    net.set_warmup(SimTime::ZERO + warm);
    let before = ledger::snapshot();
    let (res, secs) = spans.timed("run_until", ctx, false, |_| {
        (1..=RUN_SLICES).try_for_each(|k| {
            let t = Instant::now();
            let r = net.run_until(SimTime::ZERO + dur * k / RUN_SLICES);
            l.part_s.push(t.elapsed().as_secs_f64());
            r
        })
    });
    l.ledger = ledger::snapshot().since(&before);
    l.run_until_s = secs;
    if let Err(e) = res {
        return (Err(e), l);
    }
    let (report, secs) = spans.timed("report", ctx, false, |_| net.report(end));
    l.report_s = secs;
    l.events = net.events_processed();
    let q = net.queue_stats();
    l.fel_high_water = q.high_water as u64;
    l.fel_cancelled = q.cancelled;
    l.medium = net.medium().medium_stats();
    l.medium_bytes = net.medium().memory_footprint() as u64;
    l.stations = net.station_count() as u64;
    drop(net);
    l.mac = *tally.borrow();
    (Ok(report), l)
}

/// One simulation job: generate the scenario, then run it on the plain or
/// the timed layer types.
fn sim_job(
    gen: impl FnOnce() -> Scenario,
    dur: SimDuration,
    warm: SimDuration,
    traced: bool,
    spans: &Spans,
    ctx: SpanCtx,
) -> JobOut<Result<RunReport, SimError>> {
    let (sc, gen_s) = spans.timed("generate", ctx, false, |_| gen());
    let fingerprint = format!("{:?}{dur:?}{warm:?};", sc.fingerprint());
    let (out, mut layers) = if traced {
        simulate::<TimedMedium<SparseMedium>, Timed<LadderFel>>(sc, dur, warm, true, spans, ctx)
    } else {
        simulate::<SparseMedium, LadderFel>(sc, dur, warm, false, spans, ctx)
    };
    layers.gen_s = gen_s;
    JobOut {
        setup_s: gen_s + layers.build_s,
        out,
        layers,
        fingerprint,
    }
}

/// Run one iteration of `w`.
pub fn iteration(
    w: Workload,
    size: &Size,
    seed: u64,
    traced: bool,
    spans: &Spans,
    parent: SpanCtx,
) -> Iteration {
    let ((mut it, fanout_wall, post_s), _) =
        spans.timed("iteration", parent, false, |ctx| match w {
            Workload::PaperTables => paper_tables(size, seed, traced, spans, ctx),
            Workload::OfficeFloor | Workload::CampusWalk => {
                floor(w, size, seed, traced, spans, ctx)
            }
            Workload::ProofMatrix => proof_matrix(size, spans, ctx),
        });
    // The fan-out also ran the jobs' set-up, on one worker: take it out.
    it.wall_s = fanout_wall + post_s - it.setup_s;
    it
}

/// Digest the observable outputs of a floor run: per-stream offered and
/// delivered counts and the total throughput.
fn floor_digest(r: &RunReport) -> Digest {
    let mut d = Digest::default();
    for s in &r.streams {
        writeln!(d, "{} {} {}", s.name, s.offered, s.delivered).expect("hashing never fails");
    }
    write!(
        d,
        "total_throughput_pps {:016x}",
        r.total_throughput().to_bits()
    )
    .expect("hashing never fails");
    d
}

type Partial = (Iteration, f64, f64);

fn paper_tables(size: &Size, seed: u64, traced: bool, spans: &Spans, ctx: SpanCtx) -> Partial {
    let specs = TABLE_SPECS;
    let runs: Vec<Vec<RunSpec>> = specs.iter().map(|s| (s.runs)()).collect();
    let jobs: Vec<(usize, usize)> = runs
        .iter()
        .enumerate()
        .flat_map(|(si, rs)| (0..rs.len()).map(move |ri| (si, ri)))
        .collect();
    let (reports, layers, setup_s, fingerprint, wall) =
        fan_out(jobs.len(), spans, ctx, |j, jctx| {
            let (si, ri) = jobs[j];
            let dur = SimDuration::from_secs(size.table_secs) * specs[si].dur_mul;
            sim_job(
                || (runs[si][ri].build)(seed),
                dur,
                warm_for(dur),
                traced,
                spans,
                jctx,
            )
        });
    let mut it = Iteration {
        setup_s,
        wall_s: 0.0,
        items: Vec::new(),
        layers,
        fingerprint,
    };
    // Assemble and render each table: the user-visible output.
    let mut rendered = Vec::with_capacity(specs.len());
    let ((), assemble_s) = spans.timed("assemble", ctx, false, |_| {
        let mut at = 0;
        for (si, spec) in specs.iter().enumerate() {
            let mine = &reports[at..at + runs[si].len()];
            at += runs[si].len();
            let ok: Result<Vec<RunReport>, &SimError> =
                mine.iter().map(|r| r.as_ref().cloned()).collect();
            rendered.push(
                ok.map(|rs| ((spec.assemble)(&rs).render(), rs))
                    .map_err(|e| e.to_string()),
            );
        }
    });
    it.layers.report_s += assemble_s;
    for ((spec, out), rs) in specs.iter().zip(rendered).zip(&runs) {
        let ops = rs.len() as u64;
        it.items.push(match out {
            Ok((text, rs)) => Item {
                name: spec.id.to_string(),
                digest: Digest::of(format_args!("{text}")),
                exact: Digest::of(format_args!("{text}{rs:?}")),
                ops,
                error: None,
            },
            Err(e) => failed_item(spec.id, ops, e),
        });
    }
    (it, wall, assemble_s)
}

fn failed_item(name: &str, ops: u64, error: String) -> Item {
    Item {
        name: name.to_string(),
        digest: Digest::default(),
        exact: Digest::default(),
        ops,
        error: Some(error),
    }
}

fn floor(
    w: Workload,
    size: &Size,
    seed: u64,
    traced: bool,
    spans: &Spans,
    ctx: SpanCtx,
) -> Partial {
    let dur = SimDuration::from_millis(size.sim_ms);
    let warm = SimDuration::from_millis(size.warm_ms);
    let mut cfg = CampusConfig::with_stations(size.stations);
    cfg.floor.pps = size.pps;
    cfg.mobile_share = CAMPUS_MOBILE_SHARE;
    cfg.waypoint.speed_fps = CAMPUS_SPEED_FPS;
    let gen = || match w {
        Workload::CampusWalk => campus_topology(&cfg, MacKind::Macaw, dur, seed),
        _ => scale_topology(&cfg.floor, MacKind::Macaw, seed),
    };
    let (mut reports, layers, setup_s, fingerprint, wall) = fan_out(1, spans, ctx, |_, jctx| {
        sim_job(gen, dur, warm, traced, spans, jctx)
    });
    let item = match reports.pop().expect("one job") {
        Ok(r) => Item {
            name: w.name().to_string(),
            digest: floor_digest(&r),
            exact: Digest::of(format_args!("{r:?}")),
            ops: 1,
            error: None,
        },
        Err(e) => failed_item(w.name(), 1, e.to_string()),
    };
    let it = Iteration {
        setup_s,
        wall_s: 0.0,
        items: vec![item],
        layers,
        fingerprint,
    };
    (it, wall, 0.0)
}

/// Checker-sized MACAW budgets, as in the proof matrix.
fn macaw_cfg() -> MacConfig {
    let mut cfg = MacConfig::macaw();
    cfg.max_retries = 2;
    cfg.bo_max = 4;
    cfg
}

fn proof_matrix(size: &Size, spans: &Spans, ctx: SpanCtx) -> Partial {
    let fault = FaultClass::Loss {
        budget: size.loss_budget,
    };
    let (reports, layers, setup_s, fingerprint, wall) =
        fan_out(ROWS.len(), spans, ctx, |j, jctx| {
            let ((topo, cfg), setup_s) = spans.timed("setup", jctx, false, |_| {
                let mut cfg = CheckConfig::new(fault, Expectation::ResolveAll).reduced();
                cfg.seed = CHECK_SEED;
                cfg.max_depth = 96;
                (ROWS[j](), cfg)
            });
            let fingerprint = format!("{topo:?}{cfg:?};");
            let (report, secs) = spans.timed("check", jctx, false, |_| {
                check("macaw", &topo, &cfg, |i| {
                    WMac::new(Addr::Unicast(i), macaw_cfg())
                })
            });
            let layers = Layers {
                check_states: report.stats.states_explored,
                check_dedup: report.stats.dedup_hits,
                check_sleep: report.stats.sleep_skips,
                check_s: secs,
                part_s: vec![secs],
                rows: vec![(topo.name, secs)],
                ..Layers::default()
            };
            JobOut {
                out: report,
                layers,
                setup_s,
                fingerprint,
            }
        });
    let items = reports.iter().map(row_item).collect();
    let it = Iteration {
        setup_s,
        wall_s: 0.0,
        items,
        layers,
        fingerprint,
    };
    (it, wall, 0.0)
}

/// A row's pinned outputs are its verdict, `complete` flag and state
/// count; it fails unless every packet resolved and the proof is complete.
fn row_item(r: &CheckReport) -> Item {
    let verdict = match &r.violation {
        None => "ok".to_string(),
        Some(v) => v.kind.to_string(),
    };
    let error = (!(r.ok() && r.complete && !r.exhausted))
        .then(|| format!("{}: verdict {verdict}, complete {}", r.topology, r.complete));
    Item {
        name: r.topology.to_string(),
        digest: Digest::of(format_args!(
            "{verdict} complete={} states={}",
            r.complete, r.stats.states_explored
        )),
        exact: Digest::of(format_args!("{r:?}")),
        ops: 1,
        error,
    }
}
