//! A multi-station world built from [`Oracle`]s: the checker's transition
//! system.
//!
//! The world composes one [`Oracle`] per station with a directed hearing
//! relation and a set of in-flight transmissions. Its nondeterminism
//! alphabet is exactly what a real radio environment leaves open:
//!
//! * **which near-simultaneous deadline fires first** — timer firings and
//!   flight ends whose deadlines fall within one [`TieBand`] epsilon
//!   (strictly inside the MAC's `timeout_margin`; see `CheckConfig`) are
//!   concurrent and explored in every order; deadlines further apart keep
//!   their physical order, so a contention slot never races a 16 ms data
//!   packet and a margin-guarded timeout never races the response it
//!   guards;
//! * **frame reception order** — when one flight ends at several clean
//!   receivers, every delivery order is explored (a receiver's reaction
//!   can key up its radio and matters to the stations stepped after it);
//! * **frame loss / corruption** — the [`FaultClass`] adversary may spend
//!   a bounded budget discarding clean receptions (`Loss`), corrupting a
//!   whole flight (`Noise`), or blinding a station's carrier sense at the
//!   instant it matters (`CarrierBlind`). The budget bound is what makes
//!   "eventual delivery" meaningful: an unbounded adversary starves any
//!   protocol.
//!
//! Everything else is deterministic: station RNG streams are seeded at
//! construction and their positions are part of the canonical state, so a
//! revisited [`CanonState`] provably has identical futures.
//!
//! Physics is the same model the simulation core uses, reduced to a
//! boolean hearing matrix: a reception is clean iff no other audible
//! transmission overlaps it and the receiver itself never keys up while it
//! is on the air; carrier sense reports any audible foreign transmission.

use std::cmp::Ordering;
use std::sync::Arc;

use macaw_mac::context::MacFeedback;
use macaw_mac::harness::Action;
use macaw_mac::{
    Addr, Frame, MacInvariantViolation, MacProtocol, MacSdu, MacSnapshot, Oracle, Relabeling,
    StepObs, Stimulus, StreamId, Timing,
};
use macaw_sim::{SimDuration, SimTime, TieBand};

use crate::topology::{SymPerm, Topology};

/// The bounded fault adversary active during exploration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultClass {
    /// Perfect channel: interleaving nondeterminism only.
    None,
    /// Up to `budget` clean receptions may be silently discarded
    /// (per-receiver loss: one station misses a frame others hear).
    Loss { budget: u8 },
    /// Up to `budget` whole flights may be corrupted by a noise burst
    /// (no station receives them).
    Noise { budget: u8 },
    /// Up to `budget` carrier-sense queries may falsely report an idle
    /// channel at the instant a station acts on them — the sensing failure
    /// that makes carrier-sense protocols collide even within one cell.
    CarrierBlind { budget: u8 },
}

impl FaultClass {
    fn budget(self) -> u8 {
        match self {
            FaultClass::None => 0,
            FaultClass::Loss { budget }
            | FaultClass::Noise { budget }
            | FaultClass::CarrierBlind { budget } => budget,
        }
    }
}

/// One transition of the world, fully determined: which deadline fired and
/// every adversary choice attached to it. Doubles as the trace alphabet of
/// counterexamples. `Ord` gives sleep sets a deterministic sorted form.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum WorldEvent {
    /// Station `station`'s MAC timer fires. With `blind`, the adversary
    /// spends one budget point making its carrier-sense query report idle.
    Fire { station: usize, blind: bool },
    /// The flight transmitted by `src` ends. `order` is the delivery order
    /// over the clean receivers, `lost` the receivers whose reception the
    /// adversary discarded, `noise` whether the whole flight was corrupted.
    FlightEnd {
        src: usize,
        order: Vec<usize>,
        lost: Vec<usize>,
        noise: bool,
    },
}

impl WorldEvent {
    /// Rewrite every station index through `p`, producing the event the
    /// relabeled world would take. `order` is an ordered delivery sequence
    /// and keeps its order; `lost` is a set and is re-sorted.
    pub fn relabel(&self, p: &SymPerm) -> WorldEvent {
        match self {
            WorldEvent::Fire { station, blind } => WorldEvent::Fire {
                station: p.station[*station],
                blind: *blind,
            },
            WorldEvent::FlightEnd {
                src,
                order,
                lost,
                noise,
            } => {
                let mut lost: Vec<usize> = lost.iter().map(|&r| p.station[r]).collect();
                lost.sort_unstable();
                WorldEvent::FlightEnd {
                    src: p.station[*src],
                    order: order.iter().map(|&r| p.station[r]).collect(),
                    lost,
                    noise: *noise,
                }
            }
        }
    }

    /// `true` iff this event spends adversary budget. Two budget-spending
    /// events are never independent: the shared budget couples their
    /// enabledness.
    pub fn spends_budget(&self) -> bool {
        match self {
            WorldEvent::Fire { blind, .. } => *blind,
            WorldEvent::FlightEnd { lost, noise, .. } => *noise || !lost.is_empty(),
        }
    }
}

/// The actions one transition produced, each with the station that took
/// it.
type ActionLog = Vec<(usize, Action)>;

/// A transmission on the air.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct Flight {
    src: usize,
    frame: Frame,
    ends: SimTime,
    /// Per-station garbage marker: overlap or half-duplex ruined the
    /// reception at that station.
    dirty: StationSet,
}

/// A set of station indices as a bitmask, station `r` at bit `63 - r`: the
/// integer order is then the lexicographic order of the membership vector
/// `[station 0, station 1, …]`, the order canonical states are compared in.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
struct StationSet(u64);

impl StationSet {
    fn bit(r: usize) -> u64 {
        1 << (63 - r)
    }

    fn contains(self, r: usize) -> bool {
        self.0 & Self::bit(r) != 0
    }

    fn insert(&mut self, r: usize) {
        self.0 |= Self::bit(r);
    }

    /// The set with every member `r` renamed to `station[r]`.
    fn permute(self, station: &[usize]) -> StationSet {
        let mut out = StationSet::default();
        for (r, &to) in station.iter().enumerate() {
            if self.contains(r) {
                out.insert(to);
            }
        }
        out
    }
}

/// A station in canonical form: snapshot, now-relative timer offset, RNG
/// stream digest.
type StationTuple<S> = (S, Option<SimDuration>, u64);
/// A flight in canonical form: transmitter, frame, now-relative remaining
/// air time, per-station dirty markers.
type CanonFlight = (usize, Frame, SimDuration, StationSet);

/// Canonical world state: station snapshots with now-relative timer
/// offsets and RNG stream digests, in-flight transmissions with
/// now-relative remaining air time, the adversary budget, and the
/// (monotone) progress counters. Two worlds with equal canonical states
/// have identical future behaviour under identical choices, which is what
/// makes deduplication and on-path cycle detection sound. Monotone
/// progress counters also make the livelock check self-contained: any
/// on-path revisit *is* a cycle without progress.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CanonState<S> {
    stations: Vec<StationTuple<S>>,
    flights: Vec<CanonFlight>,
    budget: u8,
    delivered: u32,
    resolved: u32,
}

impl<S> CanonState<S> {
    /// The same state with every station snapshot replaced by `f(snapshot)`.
    pub(crate) fn map_snapshots<T>(self, mut f: impl FnMut(S) -> T) -> CanonState<T> {
        CanonState {
            stations: self
                .stations
                .into_iter()
                .map(|(s, t, d)| (f(s), t, d))
                .collect(),
            flights: self.flights,
            budget: self.budget,
            delivered: self.delivered,
            resolved: self.resolved,
        }
    }
}

/// What every world of one check shares and never changes: the topology
/// and the tables derived from it. Behind an `Arc`, so forking a world at
/// a choice copies only stations and flights, and split jobs can carry
/// their worlds to other threads.
struct Shared {
    topo: Topology,
    /// Per-station hearing-closure bitmask: station `s`, everyone who
    /// hears `s` and everyone `s` hears. Any interaction between two
    /// events passes through a station in both closures, so events with
    /// disjoint closure footprints commute (see [`World::independent`]).
    closure: Vec<u64>,
    /// `sym_inv[pi]` is the inverse of `topo.sym[pi]`.
    sym_inv: Vec<SymPerm>,
}

/// The checker's transition system: stations + air + adversary.
#[derive(Clone)]
pub struct World<P: MacProtocol + MacSnapshot> {
    clock: SimTime,
    /// Copy-on-write: a forked world shares every station it has not
    /// stepped since the fork.
    stations: Vec<Arc<Oracle<P>>>,
    shared: Arc<Shared>,
    timing: Timing,
    band: TieBand,
    fault: FaultClass,
    budget: u8,
    flights: Vec<Flight>,
    /// Packets handed to senders at injection.
    pub offered: u32,
    /// `deliver_up` calls observed at receivers.
    pub delivered: u32,
    /// Sender-side packet resolutions (`Sent`, `Dropped` or `Refused`
    /// feedback): a world is fully accounted when `resolved == offered`.
    pub resolved: u32,
}

impl<P: MacProtocol + MacSnapshot + Clone> World<P> {
    /// Build a world over `topo` with one station per node, seeding each
    /// station's RNG stream from `seed` and its symmetry orbit
    /// ([`Topology::seed_class`]). Symmetric stations share a seed — the
    /// RNG digest is part of the canonical state, so orbit-identical seeds
    /// are what make the declared permutations true automorphisms. With no
    /// declared symmetry the classes are the station indices and the
    /// seeding is the historical per-station scheme, bit for bit.
    pub fn new(
        topo: Topology,
        fault: FaultClass,
        band: TieBand,
        seed: u64,
        make: impl Fn(usize) -> P,
    ) -> Self {
        let stations = (0..topo.n)
            .map(|i| {
                Arc::new(Oracle::new(
                    make(i),
                    seed ^ (topo.seed_class[i] as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                ))
            })
            .collect();
        assert!(
            topo.n <= 64,
            "closure footprints and dirty sets are u64 bitmasks"
        );
        let closure: Vec<u64> = (0..topo.n)
            .map(|s| {
                let mut m = 1u64 << s;
                for r in 0..topo.n {
                    if topo.hears[s][r] || topo.hears[r][s] {
                        m |= 1 << r;
                    }
                }
                m
            })
            .collect();
        let sym_inv = topo.sym.iter().map(SymPerm::inverse).collect();
        World {
            clock: SimTime::ZERO,
            stations,
            shared: Arc::new(Shared {
                topo,
                closure,
                sym_inv,
            }),
            timing: Timing::default(),
            band,
            fault,
            budget: fault.budget(),
            flights: Vec::new(),
            offered: 0,
            delivered: 0,
            resolved: 0,
        }
    }

    /// Queue one 512-byte packet per topology flow (at t = 0, in flow
    /// order — the initial condition, not an explored choice).
    pub fn inject(&mut self) -> Result<(), MacInvariantViolation> {
        for fi in 0..self.shared.topo.flows.len() {
            let (src, dst) = self.shared.topo.flows[fi];
            let sdu = MacSdu {
                stream: StreamId(fi as u32),
                transport_seq: 1,
                bytes: 512,
            };
            self.offered += 1;
            let obs = self.step_station(
                src,
                Stimulus::Enqueue {
                    dst: Addr::Unicast(dst),
                    sdu,
                },
                false,
            )?;
            self.absorb(src, obs.actions, None);
        }
        Ok(())
    }

    /// Current world clock.
    pub fn clock(&self) -> SimTime {
        self.clock
    }

    /// The topology under check.
    pub fn topology(&self) -> &Topology {
        &self.shared.topo
    }

    /// The inverse of symmetry `pi` of [`World::topology`], precomputed.
    pub(crate) fn sym_inverse(&self, pi: usize) -> &SymPerm {
        &self.shared.sym_inv[pi]
    }

    /// Short state names per station, for traces.
    pub fn state_kinds(&self) -> Vec<&'static str> {
        self.stations.iter().map(|s| s.mac().state_kind()).collect()
    }

    /// `true` iff any transmission from another audible station is on the
    /// air at `station`.
    fn carrier_busy(&self, station: usize) -> bool {
        self.flights
            .iter()
            .any(|f| f.src != station && self.shared.topo.hears[f.src][station])
    }

    /// Deliver `stim` to station `i`, copying the station first if another
    /// world still shares it. Stations are brought to the world clock and
    /// shown the carrier only here, as they step: nothing reads either
    /// between steps, so a transition copies just the stations it drives.
    /// `blind` makes the carrier-sense query report idle.
    fn step_station(
        &mut self,
        i: usize,
        stim: Stimulus,
        blind: bool,
    ) -> Result<StepObs, MacInvariantViolation> {
        let busy = !blind && self.carrier_busy(i);
        let station = Arc::make_mut(&mut self.stations[i]);
        station.advance_to(self.clock);
        station.set_carrier(busy);
        station.step(stim)
    }

    /// Fold one step's observations into the world: transmissions key up
    /// flights, deliveries and feedback advance the progress counters.
    /// With a `log`, the actions are recorded there as `station`'s.
    fn absorb(&mut self, station: usize, actions: Vec<Action>, log: Option<&mut ActionLog>) {
        for a in &actions {
            match a {
                Action::Transmit(f) => self.start_flight(*f),
                Action::DeliverUp { .. } => self.delivered += 1,
                Action::Feedback(
                    MacFeedback::Sent { .. }
                    | MacFeedback::Dropped { .. }
                    | MacFeedback::Refused { .. },
                ) => self.resolved += 1,
            }
        }
        if let Some(log) = log {
            log.extend(actions.into_iter().map(|a| (station, a)));
        }
    }

    fn start_flight(&mut self, frame: Frame) {
        let Addr::Unicast(src) = frame.src else {
            unreachable!("stations transmit from unicast addresses");
        };
        debug_assert!(
            self.flights.iter().all(|f| f.src != src),
            "station {src} keyed up while already transmitting"
        );
        let hears = &self.shared.topo.hears;
        let mut dirty = StationSet::default();
        dirty.insert(src); // own transmission is never a reception
        for g in &mut self.flights {
            for (r, (&new, &old)) in hears[src].iter().zip(&hears[g.src]).enumerate() {
                // Overlap: a station hearing both transmitters decodes
                // neither.
                if new && old {
                    dirty.insert(r);
                    g.dirty.insert(r);
                }
            }
            // Half-duplex: a keyed-up station hears nothing, and keying up
            // mid-reception ruins the reception.
            dirty.insert(g.src);
            g.dirty.insert(src);
        }
        let ends = self.clock + self.timing.frame_duration(&frame);
        self.flights.push(Flight {
            src,
            frame,
            ends,
            dirty,
        });
    }

    /// Every enabled transition from this state, in deterministic order:
    /// for each deadline in the current [`TieBand`], one event per
    /// adversary choice attached to it. Empty iff the world is quiescent.
    pub fn choices(&self) -> Vec<WorldEvent> {
        self.choices_in(false)
    }

    /// [`World::choices`] with the reception-order reduction: delivery
    /// orders of one flight are filtered to Foata normal forms — orders
    /// with no adjacent descending pair of mutually-inaudible receivers.
    /// Two receivers that cannot hear each other react to the same frame
    /// without interacting (neither's reaction reaches the other, carrier
    /// included), so every order is equivalent to the kept ascending
    /// representative of its commutation class.
    pub fn choices_reduced(&self) -> Vec<WorldEvent> {
        self.choices_in(true)
    }

    fn choices_in(&self, reduce: bool) -> Vec<WorldEvent> {
        enum Tag {
            Timer(usize),
            Flight(usize),
        }
        let mut deadlines = Vec::new();
        let mut tags = Vec::new();
        for (i, s) in self.stations.iter().enumerate() {
            if let Some(t) = s.timer_deadline() {
                deadlines.push(t);
                tags.push(Tag::Timer(i));
            }
        }
        for (fi, f) in self.flights.iter().enumerate() {
            deadlines.push(f.ends);
            tags.push(Tag::Flight(fi));
        }
        let mut out = Vec::new();
        for idx in self.band.enabled(&deadlines) {
            match tags[idx] {
                Tag::Timer(station) => {
                    out.push(WorldEvent::Fire {
                        station,
                        blind: false,
                    });
                    if matches!(self.fault, FaultClass::CarrierBlind { .. })
                        && self.budget > 0
                        && self.carrier_busy(station)
                    {
                        out.push(WorldEvent::Fire {
                            station,
                            blind: true,
                        });
                    }
                }
                Tag::Flight(fi) => {
                    let f = &self.flights[fi];
                    let clean: Vec<usize> = (0..self.shared.topo.n)
                        .filter(|&r| {
                            r != f.src
                                && self.shared.topo.hears[f.src][r]
                                && !f.dirty.contains(r)
                                && self.flights.iter().all(|g| g.src != r)
                        })
                        .collect();
                    let loss_budget = match self.fault {
                        FaultClass::Loss { .. } => self.budget as usize,
                        _ => 0,
                    };
                    for lost in subsets_up_to(&clean, loss_budget) {
                        let surviving: Vec<usize> = clean
                            .iter()
                            .copied()
                            .filter(|r| !lost.contains(r))
                            .collect();
                        for order in permutations(&surviving) {
                            if reduce && !self.foata_minimal(&order) {
                                continue;
                            }
                            out.push(WorldEvent::FlightEnd {
                                src: f.src,
                                order,
                                lost: lost.clone(),
                                noise: false,
                            });
                        }
                    }
                    if matches!(self.fault, FaultClass::Noise { .. })
                        && self.budget > 0
                        && !clean.is_empty()
                    {
                        out.push(WorldEvent::FlightEnd {
                            src: f.src,
                            order: Vec::new(),
                            lost: Vec::new(),
                            noise: true,
                        });
                    }
                }
            }
        }
        out
    }

    /// Apply one transition; returns the per-station actions it produced
    /// (for counterexample traces). `Err` carries a MAC invariant
    /// violation — itself a checkable outcome, not a crash.
    pub fn apply(&mut self, ev: &WorldEvent) -> Result<ActionLog, MacInvariantViolation> {
        let mut log = Vec::new();
        self.transition(ev, Some(&mut log))?;
        Ok(log)
    }

    /// [`World::apply`] without recording the actions: the explorer's hot
    /// path. The transition is deterministic, so a trace that needs the
    /// actions replays the same events through `apply`.
    pub(crate) fn step(&mut self, ev: &WorldEvent) -> Result<(), MacInvariantViolation> {
        self.transition(ev, None)
    }

    fn transition(
        &mut self,
        ev: &WorldEvent,
        mut log: Option<&mut ActionLog>,
    ) -> Result<(), MacInvariantViolation> {
        match ev {
            WorldEvent::Fire { station, blind } => {
                let deadline = self.stations[*station]
                    .timer_deadline()
                    .expect("Fire chosen for a station with no armed timer");
                // An epsilon-reordered firing may come up "late": never
                // move the world clock backwards.
                self.clock = deadline.max(self.clock);
                if *blind {
                    debug_assert!(self.budget > 0);
                    self.budget -= 1;
                }
                let obs = self.step_station(*station, Stimulus::Timer, *blind)?;
                self.absorb(*station, obs.actions, log);
            }
            WorldEvent::FlightEnd {
                src,
                order,
                lost,
                noise,
            } => {
                let fi = self
                    .flights
                    .iter()
                    .position(|f| f.src == *src)
                    .expect("FlightEnd chosen for an idle station");
                let f = self.flights.remove(fi);
                self.clock = f.ends.max(self.clock);
                if *noise {
                    debug_assert!(self.budget > 0);
                    self.budget -= 1;
                } else {
                    debug_assert!(lost.len() <= self.budget as usize);
                    self.budget -= lost.len() as u8;
                    // Receivers first (reception completes as the carrier
                    // drops), in the chosen order; then the transmitter's
                    // own continuation — same discipline as the simulation
                    // core's event loop.
                    for &r in order {
                        let obs = self.step_station(r, Stimulus::Receive(f.frame), false)?;
                        self.absorb(r, obs.actions, log.as_deref_mut());
                    }
                }
                let obs = self.step_station(*src, Stimulus::TxEnd, false)?;
                self.absorb(*src, obs.actions, log);
            }
        }
        Ok(())
    }

    /// A station wedged in a state it can never leave: a wait state with
    /// no armed timer, or a (believed) transmission with nothing on the
    /// air — and the converse, a flight owned by a station that no longer
    /// thinks it is transmitting.
    pub fn stuck(&self) -> Option<(usize, String)> {
        for (i, s) in self.stations.iter().enumerate() {
            let kind = s.mac().state_kind();
            if s.mac().awaits_timer() && s.timer_deadline().is_none() {
                return Some((i, format!("wait state {kind} with no armed timer")));
            }
            let keyed = self.flights.iter().any(|f| f.src == i);
            if s.mac().transmitting() && !keyed {
                return Some((i, format!("transmit state {kind} with nothing on the air")));
            }
            if !s.mac().transmitting() && keyed {
                return Some((i, format!("flight on the air but the MAC is in {kind}")));
            }
        }
        None
    }

    /// Canonical state for deduplication and cycle detection. Flights are
    /// sorted by transmitter (unique per flight), so two worlds whose
    /// flight *sets* are equal but were keyed up in different orders — the
    /// residue of commuted event orders — canonicalize equal.
    pub fn canon(&self) -> CanonState<P::Snap> {
        let mut flights: Vec<CanonFlight> = self
            .flights
            .iter()
            .map(|f| (f.src, f.frame, f.ends.saturating_since(self.clock), f.dirty))
            .collect();
        flights.sort_by_key(|(src, ..)| *src);
        CanonState {
            stations: self
                .stations
                .iter()
                .map(|s| {
                    (
                        s.mac().snapshot(self.clock),
                        s.timer_deadline().map(|t| t.saturating_since(self.clock)),
                        s.rng_digest(),
                    )
                })
                .collect(),
            flights,
            budget: self.budget,
            delivered: self.delivered,
            resolved: self.resolved,
        }
    }

    /// Symmetry-reduced canonical state: the lexicographically-least image
    /// of [`World::canon`] under the topology's symmetry group, plus the
    /// index of the minimizing permutation (the explorer relabels sleep
    /// sets through it so they live in the same canonical label space).
    /// With the identity-only group this is exactly `canon()`.
    ///
    /// Ties go to the first minimal permutation. Each candidate image is
    /// compared against the best so far one station at a time, through the
    /// MAC's allocation-free [`MacSnapshot::cmp_relabeled`], and dropped at
    /// its first larger station; only a new minimum is built. The result is
    /// the same pair as relabeling every image and taking the first least
    /// one.
    pub fn canon_min(&self) -> (CanonState<P::Snap>, usize) {
        let base = self.canon();
        let sym = &self.shared.topo.sym;
        if sym.len() <= 1 {
            return (base, 0);
        }
        let mut best = self.relabel_canon(&base, &sym[0]);
        let mut best_pi = 0;
        for (pi, p) in sym.iter().enumerate().skip(1) {
            let map = relabeling(p);
            let inv = &self.shared.sym_inv[pi].station;
            // Image station j is base station inv[j], relabeled.
            let mut first_diff = None;
            for (j, b) in best.stations.iter().enumerate() {
                let (snap, timer, rng) = &base.stations[inv[j]];
                let ord = P::cmp_relabeled(snap, &map, &b.0)
                    .then(timer.cmp(&b.1))
                    .then(rng.cmp(&b.2));
                if ord != Ordering::Equal {
                    first_diff = Some((j, ord));
                    break;
                }
            }
            // Stations tie: budget and counters are label-free, so the
            // flights decide.
            let ord = first_diff.map_or_else(
                || cmp_relabeled_flights(&base.flights, p, inv, &map, &best.flights),
                |(_, ord)| ord,
            );
            if ord == Ordering::Less {
                // The stations before the first difference are equal.
                let from = first_diff.map_or(best.stations.len(), |(j, _)| j);
                for (j, slot) in best.stations.iter_mut().enumerate().skip(from) {
                    *slot = relabel_station::<P>(&base.stations[inv[j]], &map);
                }
                best.flights = relabel_flights(&base.flights, p, &map);
                best_pi = pi;
            }
        }
        (best, best_pi)
    }

    /// Rewrite a canonical state through one symmetry: station tuples move
    /// to their images (snapshots internally relabeled — peer tables
    /// re-sorted by the MAC's own `relabel`), flight dirty sets are
    /// permuted, and flights re-sorted by their new transmitter. Applied
    /// to every orbit candidate, identity included, so the per-snapshot
    /// normalizations compare consistently.
    fn relabel_canon(&self, c: &CanonState<P::Snap>, p: &SymPerm) -> CanonState<P::Snap> {
        let map = relabeling(p);
        let mut stations: Vec<(usize, StationTuple<P::Snap>)> = c
            .stations
            .iter()
            .enumerate()
            .map(|(i, st)| (p.station[i], relabel_station::<P>(st, &map)))
            .collect();
        stations.sort_by_key(|(i, _)| *i);
        CanonState {
            stations: stations.into_iter().map(|(_, v)| v).collect(),
            flights: relabel_flights(&c.flights, p, &map),
            budget: c.budget,
            delivered: c.delivered,
            resolved: c.resolved,
        }
    }

    /// The materialize-every-image symmetry minimum: relabel the whole
    /// state through each permutation and keep the first least image. The
    /// reference [`World::canon_min`] must agree with.
    #[cfg(test)]
    fn canon_min_reference(&self) -> (CanonState<P::Snap>, usize) {
        let base = self.canon();
        if self.shared.topo.sym.len() <= 1 {
            return (base, 0);
        }
        let mut best: Option<(CanonState<P::Snap>, usize)> = None;
        for (pi, p) in self.shared.topo.sym.iter().enumerate() {
            let cand = self.relabel_canon(&base, p);
            match &best {
                Some((b, _)) if *b <= cand => {}
                _ => best = Some((cand, pi)),
            }
        }
        best.expect("symmetry group is non-empty")
    }

    /// The instant `ev` fires (its deadline; both events of an independent
    /// pair must share it exactly, or the later-first order would make the
    /// earlier event fire "late" and shift every timer it arms).
    pub fn event_deadline(&self, ev: &WorldEvent) -> SimTime {
        match ev {
            WorldEvent::Fire { station, .. } => self.stations[*station]
                .timer_deadline()
                .expect("deadline of a Fire for a station with no armed timer"),
            WorldEvent::FlightEnd { src, .. } => {
                self.flights
                    .iter()
                    .find(|f| f.src == *src)
                    .expect("deadline of a FlightEnd for an idle station")
                    .ends
            }
        }
    }

    /// Hearing-closure footprint of `ev`: the stations whose state the
    /// event can read or write, directly or through a reaction it
    /// triggers. A `Fire` acts at its station and radiates at most one
    /// hop; a `FlightEnd` steps the transmitter and every delivered
    /// receiver, each of which may key up its own radio.
    pub fn footprint(&self, ev: &WorldEvent) -> u64 {
        match ev {
            WorldEvent::Fire { station, .. } => self.shared.closure[*station],
            WorldEvent::FlightEnd { src, order, .. } => {
                order.iter().fold(self.shared.closure[*src], |m, &r| {
                    m | self.shared.closure[r]
                })
            }
        }
    }

    /// Conditional independence of two enabled events: they commute
    /// exactly — either order reaches the same state and preserves the
    /// other's enabledness — iff their closure footprints are disjoint,
    /// their deadlines coincide, and they do not both spend adversary
    /// budget. Any physical interaction (overlap dirtying, carrier sense,
    /// half-duplex, a reception racing a reaction) passes through a
    /// station that hears or is heard by both acting stations, which the
    /// closure masks then share.
    pub fn independent(&self, a: &WorldEvent, b: &WorldEvent) -> bool {
        if a.spends_budget() && b.spends_budget() {
            return false;
        }
        if self.event_deadline(a) != self.event_deadline(b) {
            return false;
        }
        self.footprint(a) & self.footprint(b) == 0
    }

    /// Reception-order reduction predicate: keep `order` iff no adjacent
    /// pair is descending *and* mutually inaudible. Each commutation class
    /// of delivery orders keeps exactly its ascending-sorted
    /// representatives.
    fn foata_minimal(&self, order: &[usize]) -> bool {
        order.windows(2).all(|w| {
            w[0] < w[1] || self.shared.topo.hears[w[0]][w[1]] || self.shared.topo.hears[w[1]][w[0]]
        })
    }
}

fn relabeling(p: &SymPerm) -> Relabeling<'_> {
    Relabeling {
        station: &p.station,
        stream: &p.stream,
    }
}

/// One station's canonical tuple under a relabeling: the snapshot is
/// rewritten by the MAC, timer offset and RNG digest are label-free.
fn relabel_station<P: MacSnapshot>(
    (snap, timer, rng): &StationTuple<P::Snap>,
    map: &Relabeling<'_>,
) -> StationTuple<P::Snap> {
    (P::relabel(snap, map), *timer, *rng)
}

/// One canonical flight under a symmetry: transmitter, frame and dirty
/// set relabeled.
fn relabel_flight(
    (src, frame, ends, dirty): &CanonFlight,
    p: &SymPerm,
    map: &Relabeling<'_>,
) -> CanonFlight {
    (
        p.station[*src],
        map.frame(frame),
        *ends,
        dirty.permute(&p.station),
    )
}

/// Canonical flights under a symmetry, re-sorted by the new transmitter.
fn relabel_flights(flights: &[CanonFlight], p: &SymPerm, map: &Relabeling<'_>) -> Vec<CanonFlight> {
    let mut out: Vec<CanonFlight> = flights.iter().map(|f| relabel_flight(f, p, map)).collect();
    out.sort_by_key(|(src, ..)| *src);
    out
}

/// `relabel_flights(flights, p, map).cmp(other)` without building the
/// image: walking new transmitter indices in order visits the image's
/// flights in their sorted order. `inv` is the inverse of `p`.
fn cmp_relabeled_flights(
    flights: &[CanonFlight],
    p: &SymPerm,
    inv: &[usize],
    map: &Relabeling<'_>,
    other: &[CanonFlight],
) -> Ordering {
    let image = inv
        .iter()
        .filter_map(|&i| flights.iter().find(|f| f.0 == i))
        .map(|f| relabel_flight(f, p, map));
    image.cmp(other.iter().copied())
}

/// All subsets of `v` with at most `k` elements, smallest masks first
/// (deterministic enumeration order). `k = 0` yields just the empty set.
fn subsets_up_to(v: &[usize], k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    for mask in 0u32..(1 << v.len()) {
        if (mask.count_ones() as usize) <= k {
            out.push(
                v.iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, &r)| r)
                    .collect(),
            );
        }
    }
    out
}

/// All permutations of `v` in lexicographic index order. `v` is one
/// flight's clean receivers, at most n − 1 of them: 4 receivers (24
/// orders) on the 5-station `contended_cell`, one on the pair-cell
/// families that reach 12 stations.
fn permutations(v: &[usize]) -> Vec<Vec<usize>> {
    if v.len() <= 1 {
        return vec![v.to_vec()];
    }
    let mut out = Vec::new();
    for i in 0..v.len() {
        let mut rest = v.to_vec();
        let head = rest.remove(i);
        for mut tail in permutations(&rest) {
            tail.insert(0, head);
            out.push(tail);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use macaw_mac::{MacConfig, WMac, WMacSnapshot};

    fn wmac_world(topo: Topology) -> World<WMac> {
        // Half the timeout margin: exact ties race, margin-guarded
        // timeout/response pairs stay ordered.
        let band = TieBand::new(SimDuration::from_micros(25));
        World::new(topo, FaultClass::None, band, 1, |i| {
            WMac::new(Addr::Unicast(i), MacConfig::macaw())
        })
    }

    #[test]
    fn injection_arms_contention_and_nothing_else() {
        let mut w = wmac_world(Topology::shared_cell(2));
        w.inject().unwrap();
        assert_eq!(w.offered, 1);
        assert_eq!(w.state_kinds(), vec!["Contend", "Idle"]);
        let choices = w.choices();
        assert_eq!(choices.len(), 1, "only the contention timer is enabled");
        assert!(matches!(
            choices[0],
            WorldEvent::Fire {
                station: 0,
                blind: false
            }
        ));
    }

    #[test]
    fn a_flight_reaches_the_peer_and_collisions_mark_dirty() {
        let mut w = wmac_world(Topology::hidden_terminal());
        w.inject().unwrap();
        // Drive both contention timers (in either tie order — pick the
        // first choice each time) until both RTS flights are up.
        while w.flights.len() < 2 {
            let evs = w.choices();
            let fire = evs
                .iter()
                .find(|e| matches!(e, WorldEvent::Fire { .. }))
                .cloned();
            match fire {
                Some(ev) => {
                    w.apply(&ev).unwrap();
                }
                None => break, // flights ended before both keyed up
            }
        }
        if w.flights.len() == 2 {
            // Both RTS flights overlap at the shared receiver: dirty there.
            assert!(w.flights.iter().all(|f| f.dirty.contains(1)));
            // The flight-end choices offer no receivers.
            let evs = w.choices();
            assert!(evs.iter().all(|e| match e {
                WorldEvent::FlightEnd { order, .. } => order.is_empty(),
                _ => true,
            }));
        }
    }

    #[test]
    fn canonical_state_rebases_times() {
        let mut w = wmac_world(Topology::shared_cell(2));
        w.inject().unwrap();
        let c1 = w.canon();
        // The same world advanced in wall-clock (by zero transitions) has
        // the same canonical state.
        assert_eq!(c1, w.canon());
    }

    /// Every relabel-and-compare shortcut orders exactly like relabeling
    /// first: each station snapshot of `w` under each symmetry against
    /// every snapshot of `other`, and the flights likewise.
    fn assert_comparisons_agree(w: &World<WMac>, other: &CanonState<WMacSnapshot>) {
        let base = w.canon();
        for (pi, p) in w.topology().sym.iter().enumerate() {
            let map = relabeling(p);
            for (a, ..) in &base.stations {
                for (b, ..) in &other.stations {
                    assert_eq!(
                        WMac::cmp_relabeled(a, &map, b),
                        WMac::relabel(a, &map).cmp(b),
                        "snapshot comparison under symmetry {pi}"
                    );
                }
            }
            let inv = &w.sym_inverse(pi).station;
            assert_eq!(
                cmp_relabeled_flights(&base.flights, p, inv, &map, &other.flights),
                relabel_flights(&base.flights, p, &map).cmp(&other.flights),
                "flight comparison under symmetry {pi}"
            );
        }
    }

    /// The lazy symmetry minimum returns exactly the reference's
    /// `(CanonState, pi)` — representative and tie-break alike — on every
    /// state of seeded random walks over symmetric families with losses.
    #[test]
    fn lazy_canon_min_matches_the_materialized_reference() {
        let mut mc = MacConfig::macaw();
        mc.max_retries = 2;
        mc.bo_max = 4;
        let band = TieBand::new(SimDuration::from_micros(25));
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        for topo in [
            Topology::exposed_contenders(),
            Topology::triple_cells(),
            Topology::quad_cells(),
        ] {
            let name = topo.name;
            let root = World::new(topo, FaultClass::Loss { budget: 2 }, band, 1, |i| {
                WMac::new(Addr::Unicast(i), mc)
            });
            let (mut states, mut moved) = (0, 0);
            for _walk in 0..24 {
                let mut w = root.clone();
                w.inject().unwrap();
                for _step in 0..80 {
                    let (fast, pi) = w.canon_min();
                    let (min, min_pi) = w.canon_min_reference();
                    assert_eq!((&fast, pi), (&min, min_pi), "{name}");
                    assert_comparisons_agree(&w, &min);
                    states += 1;
                    moved += usize::from(pi != 0);
                    let evs = w.choices();
                    if evs.is_empty() {
                        break;
                    }
                    // xorshift64: a fixed, dependency-free walk.
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    if w.step(&evs[rng as usize % evs.len()]).is_err() {
                        break;
                    }
                }
            }
            assert!(
                moved > 0 && moved < states,
                "{name}: walks never left the identity"
            );
        }
    }

    #[test]
    fn subset_and_permutation_enumeration_is_deterministic() {
        assert_eq!(subsets_up_to(&[7, 8], 1), vec![vec![], vec![7], vec![8]]);
        assert_eq!(
            permutations(&[1, 2, 3]).len(),
            6,
            "3 receivers explore all 6 delivery orders"
        );
        assert_eq!(permutations(&[]), vec![Vec::<usize>::new()]);
    }
}
