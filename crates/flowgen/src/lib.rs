//! `ups-flowgen` — workload generation.
//!
//! Every generator is a pure function of `(topology, config)` — seeded,
//! portable, deterministic — producing the transport's
//! [`FlowDesc`](ups_transport::FlowDesc)s, with a completion deadline
//! on the deadline-tagged ones. Four workload families:
//!
//! * [`poisson_workload`] — the paper's default: Poisson flow arrivals
//!   with heavy-tailed sizes ([`SizeDist`]), calibrated so the
//!   most-loaded core link runs at a target utilization
//!   ([`calibrate_host_rate`]);
//! * [`incast_workload`] — datacenter partition/aggregate fan-in:
//!   synchronized sender bursts colliding on one receiver's downlink,
//!   epoch rate calibrated to the receiver-NIC utilization;
//! * [`deadline_mix_workload`] — short deadline-tagged urgent flows
//!   over heavy-tailed best-effort background, jointly calibrated to
//!   the core-link utilization;
//! * [`long_lived_flows`] — the fixed long-lived-flow workload of the
//!   fairness experiment (§3.3).

#![forbid(unsafe_code)]

pub mod dist;
pub mod incast;
pub mod mix;
pub mod workload;

pub use dist::SizeDist;
pub use incast::{incast_workload, IncastConfig};
pub use mix::{deadline_mix_workload, DeadlineMixConfig};
pub use workload::{calibrate_host_rate, long_lived_flows, poisson_workload, PoissonConfig};
