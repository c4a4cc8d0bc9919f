//! `ups-bench` — the paper's experiments.
//!
//! Every table, figure and ablation of the paper runs through the one
//! `sweep` binary at the workspace root; this crate holds what it runs:
//!
//! * [`EXPERIMENTS`] ([`experiments`]) — the table `sweep --grid NAME`
//!   resolves after the named grids and the scenario registry: `fig1` …
//!   `fig4`, the three ablations, `congestion-points`,
//!   `ext-weighted-fairness`, and `paper` (Table 1 plus all of them).
//!   `sweep scenarios list` prints it; `docs/EXPERIMENTS.md` has the
//!   paper-vs-measured discussion.
//! * [`runners`] — the functions behind the entries, each returning
//!   structured data so the integration tests can check the same code at
//!   a tiny scale. Table 1 itself is the `table1` named grid of
//!   `ups-sweep`.
//! * [`Scale`] — the quick/full scale, seed, worker and replicate knobs
//!   that `sweep`'s scale flags set. Output is byte-identical for every
//!   `--jobs` value; figures write JSON/CSV artifacts under `--out`
//!   (default `target/sweep/`, schema in `ups-sweep`'s crate docs).

#![forbid(unsafe_code)]

/// Write a line to stdout, swallowing write failures: when stdout is
/// piped through e.g. `head`, the reader can close the pipe before the
/// run finishes, and std maps the resulting `EPIPE` to a `println!`
/// panic (Rust ignores SIGPIPE). A run must still write its JSON/CSV
/// artifacts and exit cleanly in that case, so every stdout write of
/// the `sweep` binary and of the experiment printers goes through
/// `out!`/`out_inline!`. Diagnostics on stderr keep using `eprintln!`.
#[macro_export]
macro_rules! out {
    () => { $crate::out!("") };
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let _ = writeln!(std::io::stdout(), $($arg)*);
    }};
}

/// [`out!`] without the trailing newline (the `print!` analogue).
#[macro_export]
macro_rules! out_inline {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let _ = write!(std::io::stdout(), $($arg)*);
    }};
}

pub mod experiments;
pub mod runners;
pub mod scale;

pub use experiments::{print_sweep_report, Experiment, EXPERIMENTS};
pub use runners::*;
pub use scale::Scale;
