//! `ups-metrics` — measurement utilities for the paper's evaluation:
//! empirical CDFs/CCDFs and percentiles (Figures 1 and 3), flow-size
//! bucketed means (Figure 2), Jain's fairness index over sliding windows
//! (Figure 4), summary statistics for the Table 1 reports, and deadline
//! miss-rate/lateness ledgers (lateness kept in an `ups-obs` histogram).

#![forbid(unsafe_code)]

pub mod deadline;
pub mod fairness;
pub mod stats;

pub use deadline::{DeadlineLedger, DeadlineStats};
pub use fairness::{jain_index, throughput_fairness_series, FairnessPoint};
pub use stats::{bucket_means, percentile, Cdf, SizeBuckets, Summary, Welford};
