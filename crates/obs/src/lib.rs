//! # ups-obs — the deterministic telemetry plane
//!
//! Observability for a deterministic simulator has one extra obligation
//! that production telemetry does not: **observing must never change
//! what is observed**. Every committed artifact in `baselines/` is
//! byte-exact, so a telemetry hook that consumed a random number,
//! reordered an event, or rounded a float differently would show up as
//! a results regression. This crate therefore provides two surfaces
//! that are integer-exact and allocation-free on the hot path:
//!
//! * [`Registry`] — named integer counters, gauges, and fixed
//!   log2-bucket [`Histogram`]s with dense-index handles. Recording is
//!   a bounds-checked array bump, always on: results are computed
//!   through it (`ups-metrics`' deadline ledger). Registries merge
//!   associatively and commutatively by name, so per-shard or per-cell
//!   registries aggregate to the same totals in any order — the
//!   property the parallel sweep pool needs for `--jobs`-independent
//!   artifacts.
//! * [`NetSeries`] / [`SamplePoint`] — time-series samples of queue
//!   depth, link utilization, and in-flight population. The *sampling
//!   cadence* is driven by the simulation's own event wheel (see
//!   `ups-net`'s observation event class), not wall clock, so a series
//!   is as reproducible as the run that produced it. The process-wide
//!   default cadence lives here ([`set_sample_interval`]) so worker
//!   threads of a sweep pick it up without plumbing.
//!
//! Sampling has one off-switch, and it is the default: no sampling
//! cadence set. A network built that way schedules no observation
//! event and writes no sample. What happened to each packet is not
//! recorded here but in `ups-net`'s per-packet hop trace.
//!
//! The crate sits at the bottom of the workspace DAG (only `ups-sim`
//! above it) so every layer — net, metrics, sweep, bench — can record
//! into it without cycles.

#![forbid(unsafe_code)]

mod hist;
mod registry;
mod series;

pub use hist::Histogram;
pub use registry::{CounterId, GaugeId, HistId, Registry};
pub use series::{NetSeries, SamplePoint};

use std::sync::atomic::{AtomicU64, Ordering};
use ups_sim::Dur;

/// Process-wide default sampling cadence in picoseconds; 0 = off.
///
/// A global (rather than a constructor argument) is deliberate: the
/// sweep engine runs cells on pooled worker threads, and the byte-
/// identity contract ("artifacts are identical with sampling on") is
/// only testable if sampling can be flipped without touching any
/// runner signature. Networks read this once at construction.
static SAMPLE_INTERVAL_PS: AtomicU64 = AtomicU64::new(0);

/// Set the process-wide default sampling cadence for networks built
/// *after* this call. `None` (the default) disables sampling.
///
/// Tests that flip this global must serialize with each other; the
/// sweep CLI sets it once before spawning workers.
pub fn set_sample_interval(interval: Option<Dur>) {
    SAMPLE_INTERVAL_PS.store(interval.map_or(0, Dur::as_ps), Ordering::Relaxed);
}

/// The process-wide default sampling cadence, if any.
pub fn sample_interval() -> Option<Dur> {
    match SAMPLE_INTERVAL_PS.load(Ordering::Relaxed) {
        0 => None,
        ps => Some(Dur(ps)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global is process-wide, so this test owns set/clear within
    // one #[test] body (other tests in this crate never set it).
    #[test]
    fn sample_interval_round_trips() {
        assert_eq!(sample_interval(), None);
        set_sample_interval(Some(Dur::from_micros(250)));
        assert_eq!(sample_interval(), Some(Dur::from_micros(250)));
        set_sample_interval(None);
        assert_eq!(sample_interval(), None);
    }
}
