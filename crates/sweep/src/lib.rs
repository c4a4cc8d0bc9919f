//! `ups-sweep` — a parallel, deterministic experiment-sweep engine.
//!
//! The paper's empirical results are grids: Table 1 is topology ×
//! original scheduler × utilization, and Figures 1–4 are series ×
//! x-axis curves. Statistical rigor wants every cell replicated over
//! several seeds, and running that serially in one thread does not
//! scale, so this crate turns the harness into a declarative sweep
//! engine:
//!
//! * [`SweepSpec`] expands a scalar grid of [`CellCoord`]s (topology,
//!   original scheduler, utilization) × seed replicates into
//!   independent [`Job`]s; [`FigSpec`] does the same for
//!   distribution-style figure grids (named series × a fixed
//!   [`FigAxis`]), whose per-replicate payload is a [`DistMetrics`];
//! * [`pool::run_indexed`] executes jobs on a scoped-thread worker pool
//!   (std-only — no external dependencies) that claims work from a
//!   shared atomic cursor and keys every result to its grid coordinates,
//!   so the aggregate output is **byte-identical regardless of
//!   `--jobs N`**;
//! * [`run_sweep`] aggregates per-replicate [`CellMetrics`] into a
//!   [`SweepResult`] per cell, and [`run_fig_with`] aggregates
//!   [`DistMetrics`] into a [`DistResult`] per series — mean ± stddev
//!   over seeds via [`ups_metrics::Welford`] on every scalar and every
//!   plotted point;
//! * [`artifact`] serializes the resulting [`SweepReport`]/[`FigReport`]
//!   with a hand-rolled, dependency-free JSON and CSV writer so results
//!   land in `target/sweep/*.json`, and parses them back
//!   ([`Json::parse`]);
//! * [`diff`](mod@diff) compares two artifacts structurally, keyed by
//!   grid coordinate, under a configurable tolerance — the primitive
//!   behind `sweep diff` and cross-run regression detection in CI;
//! * [`scenario`] is the registry of named experiment scenarios —
//!   topology build × workload family × grid — behind
//!   `sweep --grid <scenario>` and the `sweep scenarios` subcommand
//!   (see `docs/SCENARIOS.md` for the catalogue);
//! * [`experiments`] is the table of the paper's figures, ablations and
//!   diagnostics ([`EXPERIMENTS`]), each a function from a [`Scale`] to
//!   a [`FigReport`], behind `sweep --grid fig1` and the rest.
//!
//! The `sweep` binary at the workspace root (`cargo run --release --bin
//! sweep`) is the CLI: it runs a named grid or a scenario through
//! [`run_sweep`], and an experiment through its `report`, and writes
//! every result as the artifacts below.
//!
//! # Artifact schema
//!
//! Every sweep writes `<out>/<name>.json` and `<out>/<name>.csv`
//! (default `out` = `target/sweep`). Files are deterministic: object
//! keys render in insertion order, floats use Rust's shortest
//! round-trip `Display`, and no timestamp, duration, or worker count is
//! ever recorded — so byte equality means result equality.
//!
//! ## Table artifacts (`SweepReport`, `"kind": "table"`)
//!
//! JSON, top level:
//!
//! | field | type | meaning |
//! |---|---|---|
//! | `kind` | string | `"table"` — scalar-grid artifact discriminator |
//! | `name` | string | grid name, equals the file stem (`table1`, `smoke`, …) |
//! | `scale` | string | scale label the sweep ran at (`quick`, `full`, …) |
//! | `base_seed` | integer | RNG seed of replicate 0; replicate `r` uses `base_seed + r` |
//! | `replicates` | integer | seed replicates aggregated into each cell |
//! | `cells` | array | one object per grid cell, in the spec's presentation order |
//!
//! Each cell object:
//!
//! | field | type | meaning |
//! |---|---|---|
//! | `topo` | string | topology label (coordinate, ⅓) |
//! | `original` | string | original-scheduler label (coordinate, ⅔) |
//! | `util` | number | target utilization of the most-loaded core link (coordinate, 3/3) |
//! | `chaos_drop_ppm` | integer, *optional* | replay-leg drop rate (extra coordinate, perturbed cells only) |
//! | `replicates` | integer | replicates actually aggregated |
//! | `total_packets` | stat | packets replayed |
//! | `frac_overdue` | stat | fraction of packets late in the LSTF replay |
//! | `frac_overdue_gt_t` | stat | fraction late by more than `T` |
//! | `t_us` | stat | the threshold `T` in µs |
//! | `max_congestion_points` | stat | largest congestion-point count in the original schedule |
//! | `mean_slack_us` | stat | mean slack (µs) in the original schedule |
//! | `deadline_tagged` | stat, *optional* | deadline-tagged flows (deadline workloads only) |
//! | `deadline_miss_rate` | stat, *optional* | fraction of tagged flows late or unfinished |
//! | `mean_lateness_us` | stat, *optional* | mean lateness (µs) over late completions |
//! | `p99_lateness_us` | stat, *optional* | p99 lateness (µs, log2-bucket upper bound) |
//! | `fidelity` | stat, *optional* | fraction delivered on time under chaos (perturbed cells only) |
//! | `frac_lost` | stat, *optional* | fraction of recorded packets lost to the perturbation |
//! | `chaos_drops` | stat, *optional* | packets destroyed by the chaos layer, all links |
//! | `chaos_outage_us` | stat, *optional* | total link down/jam time (µs), all links |
//!
//! where a **stat** is `{"mean": …, "stddev": …, "stderr": …}` over the
//! cell's seed replicates (stddev/stderr are 0 for a single replicate;
//! non-finite values render as `null`). The four deadline members
//! appear **only** when the workload tags flows with completion
//! deadlines (e.g. the `i2-deadline-mix` scenario), and the
//! `chaos_drop_ppm` coordinate and four chaos members **only** when the
//! cell's [`ChaosSpec`] is enabled (e.g. the `i2-web-loss` and
//! `dc-k8-web-chaos` scenarios) — deadline-free, chaos-free artifacts
//! are byte-identical to the pre-deadline, pre-chaos schema.
//!
//! CSV: one header line, one line per cell —
//! `topo,original,util,replicates` followed by `<metric>_mean,<metric>_stddev`
//! pairs for the six metrics above, in the same order (plus the four
//! deadline pairs when any cell has deadline data, a `chaos_drop_ppm`
//! coordinate column after `util` and the four chaos pairs at the end
//! when any cell is perturbed).
//!
//! ## Figure artifacts (`FigReport`, `"kind": "figure"`)
//!
//! The distribution payload: every replicate evaluates its measured
//! distribution (delay-ratio CDF, per-bucket FCT means, tail-delay
//! percentiles, Jain indices per window) on the grid's fixed x-axis, and
//! the engine aggregates **per point** across replicates. JSON, top
//! level:
//!
//! | field | type | meaning |
//! |---|---|---|
//! | `kind` | string | `"figure"` |
//! | `name` | string | grid name, equals the file stem (`fig1`, …) |
//! | `title` | string | human figure title |
//! | `scale` | string | scale label |
//! | `base_seed` | integer | seed of replicate 0 |
//! | `replicates` | integer | seed replicates per series |
//! | `axis` | string | x-axis name (`ratio`, `percentile`, `t_ms`, `bucket`, …) |
//! | `series` | array | one object per series, in presentation order |
//!
//! Each series object:
//!
//! | field | type | meaning |
//! |---|---|---|
//! | `series` | string | series label (the figure cell's coordinate) |
//! | `replicates` | integer | replicates aggregated |
//! | `scalars` | object | named per-series summaries, each a **stat** |
//! | `points` | array | the curve: `{"x": …, ["label": …,] "mean": …, "stddev": …, "stderr": …}` per axis point |
//!
//! `label` appears only on categorical axes (e.g. Figure 2's flow-size
//! buckets, where `x` is the bucket index).
//!
//! Deadline-replay scenarios ([`cell::CellPipeline::DeadlineReplay`],
//! e.g. `i2-deadline-replay`) additionally write a figure artifact
//! `<name>_fig.json`/`.csv` in this same schema: one series per replay
//! candidate (`EDF`, `LSTF`, `Priority`), the `util` axis, and the
//! per-cell `deadline_miss_rate` stat as the plotted points — the
//! miss-rate-vs-utilization curves, built from the table report (so
//! byte-identical for any `--jobs N` by construction). In those
//! scenarios' table artifacts the `original` column carries the *replay*
//! candidate's label; the recorded original is always EDF.
//!
//! CSV (long format): header
//! `series,metric,x,label,mean,stddev,stderr`; scalar rows carry the
//! scalar name in `metric` with empty `x`/`label`, point rows carry the
//! axis name in `metric` plus their `x` (and `label` when categorical).
//!
//! ## Telemetry artifacts (`TelemetryReport`, `"kind": "telemetry"`)
//!
//! Written as `<grid>_telemetry.json`/`.csv` by `sweep --telemetry`
//! (see [`telemetry`]): per-cell time series of network state sampled
//! on the event wheel during the record run. JSON, top level:
//!
//! | field | type | meaning |
//! |---|---|---|
//! | `kind` | string | `"telemetry"` |
//! | `name` | string | file stem (`<grid>_telemetry`) |
//! | `grid` | string | the sampled grid's name |
//! | `scale` | string | scale label |
//! | `base_seed` | integer | seed of replicate 0 |
//! | `replicates` | integer | seed replicates per cell |
//! | `interval_us` | number | sampling cadence (µs) |
//! | `cells` | array | one object per grid cell, in spec order |
//!
//! Each cell carries the `topo`/`original`/`util` coordinate keys
//! (plus `chaos_drop_ppm` on perturbed cells),
//! `replicates` (that produced a series), `links`, and a `series`
//! array: one `{"series": <name>, "points": [{"x": …, "mean": …,
//! "stddev": …, "stderr": …}, …]}` object per sampled quantity
//! (`queue_pkts_total`, `queue_pkts_max`, `in_flight`,
//! `link_util_mean`) on the report's fixed x-grid (µs). Coordinate
//! keys at every level make the artifact `sweep diff`-compatible.
//!
//! CSV (long format): header
//! `topo,original,util,series,x_us,mean,stddev,stderr`, one row per
//! (cell, series, x).

#![forbid(unsafe_code)]

pub mod artifact;
pub mod cell;
pub mod diff;
pub mod engine;
pub mod experiments;
pub mod grid;
pub mod pool;
pub mod scale;
pub mod scenario;
pub mod telemetry;

pub use artifact::Json;
pub use cell::{CellMetrics, CellPipeline, ChaosCell, DeadlineCell, DistMetrics, ObservedRun};
pub use diff::{diff_artifacts, DiffOptions, DiffReport};
pub use engine::{
    run_fig_with, run_sweep, run_sweep_with, ChaosAgg, DeadlineAgg, DistResult, FigReport, Stat,
    SweepReport, SweepResult,
};
pub use experiments::{Experiment, EXPERIMENTS};
pub use grid::{
    CellCoord, ChaosSpec, FigAxis, FigJob, FigSpec, Job, SimScale, SweepSpec, TopoKind,
    DEFAULT_CHAOS_SEED,
};
pub use scale::Scale;
pub use scenario::Scenario;
pub use telemetry::{run_telemetry_sweep, TelemetryCell, TelemetryReport, TelemetrySeries};
