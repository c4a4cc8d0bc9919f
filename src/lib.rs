//! **ups** — a reproduction of *Universal Packet Scheduling* (Mittal,
//! Agarwal, Ratnasamy, Shenker; NSDI 2016) as a Rust workspace.
//!
//! The paper asks whether one packet scheduler can *replay* the
//! network-wide schedule of any other ("universality"), proves that
//! Least Slack Time First (LSTF) is as close to universal as possible,
//! and shows LSTF heuristics matching state-of-the-art schedulers on
//! mean FCT, tail delay, and fairness. This crate re-exports the whole
//! workspace under one roof:
//!
//! * [`sim`] — deterministic discrete-event primitives (picosecond
//!   clock, class-ordered event queue, portable RNG);
//! * [`obs`] — the deterministic telemetry plane (the deadline ledger's
//!   log2 histogram, event-wheel time-series sampling);
//! * [`net`] — the store-and-forward network model (the ns-2 stand-in);
//! * [`sched`] — LSTF, EDF, FIFO, LIFO, Random, Priority/SJF, SRPT,
//!   FQ, FIFO+;
//! * [`topo`] — Internet2, synthetic RocketFuel, fat-tree, fixtures;
//! * [`flowgen`] — Poisson workloads with heavy-tailed flow sizes;
//! * [`transport`] — open-loop UDP and a compact TCP Reno;
//! * [`metrics`] — CDFs, quantiles, Jain fairness;
//! * [`core`] — the replay engine, slack-initialization heuristics,
//!   omniscient UPS, and the appendix counterexamples;
//! * [`sweep`] — the parallel, deterministic experiment-sweep engine
//!   (scalar and distribution-payload grids, the scenario registry, the
//!   paper's experiments, scoped-thread worker pool, JSON/CSV artifacts,
//!   cross-run artifact diffing).
//!
//! Start with `examples/quickstart.rs` (and `examples/scenario_tour.rs`
//! for the scenario registry). `cargo run --release --bin sweep` is the
//! one way to run an experiment: `--grid NAME` resolves the named grids
//! (Table 1 is the default), the registered scenarios, and the paper's
//! figures and ablations ([`sweep::EXPERIMENTS`] — Table 1 and Figures
//! 1–4 run multi-seed and in parallel through the sweep engine), with
//! structured artifacts under `target/sweep/` for every one
//! (`sweep diff` compares two artifacts for regressions;
//! `sweep scenarios list` prints the catalogue).
//! `docs/ARCHITECTURE.md` maps the workspace and its determinism
//! invariants; `docs/EXPERIMENTS.md` is the reproduction guide;
//! `docs/SCENARIOS.md` documents every registered scenario.

#![forbid(unsafe_code)]

pub use ups_core as core;
pub use ups_flowgen as flowgen;
pub use ups_metrics as metrics;
pub use ups_net as net;
pub use ups_obs as obs;
pub use ups_sched as sched;
pub use ups_sim as sim;
pub use ups_sweep as sweep;
pub use ups_topo as topo;
pub use ups_transport as transport;
