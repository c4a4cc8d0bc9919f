//! `ups-bench` — kept only because `benchmark/` imports `ups_bench::Scale`.
//! ROADMAP item 7b points it at `ups_sweep::Scale` and deletes this crate.

#![forbid(unsafe_code)]

#[doc(hidden)]
pub use ups_sweep::Scale;
