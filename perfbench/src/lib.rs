//! One benchmark for the MACAW simulator and model checker.
//!
//! Four named workloads ([`workloads::Workload`]) run for a fixed number of
//! seconds; end-to-end metrics come from untraced iterations and per-layer
//! metrics from traced ones, whose outputs must match the untraced run bit
//! for bit. Layers are timed from outside, through the public `Medium` and
//! `FelChoice` traits ([`timed`]), the network tracer, and stopwatches
//! around the public entry points. See `README.md` for the metrics and
//! how to run it.

pub mod digest;
pub mod ledger;
pub mod metrics;
pub mod runner;
pub mod spans;
pub mod timed;
pub mod workloads;
