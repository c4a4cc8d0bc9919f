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
//! * [`Histogram`] — a fixed log2-bucket histogram of `u64` samples.
//!   Recording is a `leading_zeros` plus an array bump, always on:
//!   results are computed through it (`ups-metrics`' deadline ledger
//!   keeps its lateness samples in one).
//! * [`NetSeries`] / [`SamplePoint`] — time-series samples of queue
//!   depth, link utilization, and in-flight population. The *sampling
//!   cadence* is driven by the simulation's own event wheel (see
//!   `ups-net`'s observation event class), not wall clock, so a series
//!   is as reproducible as the run that produced it. Sampling is an
//!   argument of the run that wants it (`Network::enable_sampling`,
//!   called by the sweep's record leg).
//!
//! Sampling has one off-switch, and it is the default: a network that
//! was never asked to sample schedules no observation event and writes
//! no sample. What happened to each packet is not recorded here but in
//! `ups-net`'s per-packet hop trace.
//!
//! The crate sits at the bottom of the workspace DAG (only `ups-sim`
//! above it) so every layer — net, metrics, sweep, bench — can record
//! into it without cycles.

#![forbid(unsafe_code)]

mod hist;
mod series;

pub use hist::Histogram;
pub use series::{NetSeries, SamplePoint};

use std::sync::atomic::{AtomicU64, Ordering};
use ups_sim::Dur;

// The process-wide default cadence below is a compatibility path only:
// the repo benchmark's closed-loop sampling pass sets it, and
// `Network::new` reads it. No product path sets it (`clippy.toml` bans
// the setter). ROADMAP item 7b deletes both functions and the read.

/// Process-wide default sampling cadence in picoseconds; 0 = off.
static SAMPLE_INTERVAL_PS: AtomicU64 = AtomicU64::new(0);

/// Set the process-wide default sampling cadence for networks built
/// *after* this call. `None` (the default) disables it.
#[doc(hidden)]
pub fn set_sample_interval(interval: Option<Dur>) {
    SAMPLE_INTERVAL_PS.store(interval.map_or(0, Dur::as_ps), Ordering::Relaxed);
}

/// The process-wide default sampling cadence, if any.
#[doc(hidden)]
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
    #[allow(clippy::disallowed_methods)] // the setter's own round trip
    fn sample_interval_round_trips() {
        assert_eq!(sample_interval(), None);
        set_sample_interval(Some(Dur::from_micros(250)));
        assert_eq!(sample_interval(), Some(Dur::from_micros(250)));
        set_sample_interval(None);
        assert_eq!(sample_interval(), None);
    }
}
