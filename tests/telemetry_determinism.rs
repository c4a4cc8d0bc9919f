//! The observability plane's hard invariant: turning event-wheel
//! telemetry sampling ON must leave every result artifact byte-identical
//! to a sampling-OFF run. Observation is strictly read-only — observe
//! events pop after all data-plane classes at the same instant, never
//! touch a queue or an RNG stream, and are excluded from the event
//! counter — so the only difference between the two runs is that one of
//! them also produced a time series.
//!
//! The sampling cadence is an argument of the record leg, so these
//! tests share no state and run in parallel.

use ups_core::WorkloadKind;
use ups_sched::SchedKind;
use ups_sim::Dur;
use ups_sweep::{
    run_sweep, run_telemetry_sweep, CellCoord, CellPipeline, ChaosSpec, Scale, SweepSpec, TopoKind,
};
use ups_topo::internet2::I2Variant;

/// Table pipeline: the smoke grid's JSON and CSV artifacts from a
/// sampling-on run (`run_telemetry_sweep`, which also yields the
/// telemetry artifact) are byte-identical to the plain sampling-off
/// sweep.
#[test]
fn table_artifact_is_byte_identical_with_sampling_on() {
    let mut sim = Scale::quick().sim();
    sim.edges_per_core = 2; // tiny topology keeps this test fast
    sim.horizon = Dur::from_millis(2);
    let spec = SweepSpec::smoke().with_replicates(2);

    let off = run_sweep(&spec, &sim, 2, WorkloadKind::Web, CellPipeline::Replay);

    let (on, telem) = run_telemetry_sweep(
        &spec,
        &sim,
        2,
        WorkloadKind::Web,
        CellPipeline::Replay,
        Dur::from_micros(50),
    );
    assert_eq!(off.to_json(), on.to_json(), "JSON artifacts differ");
    assert_eq!(off.to_csv(), on.to_csv(), "CSV artifacts differ");
    assert!(
        telem.cells.iter().all(|c| c.replicates == 2),
        "sampling on actually produced series for every replicate"
    );
}

/// Deadline pipeline: the `i2-deadline-replay` cells (EDF recorded,
/// replayed by EDF / LSTF / Priority), whose deadline columns are
/// computed through `ups-metrics`' deadline ledger, serialize byte-identically
/// with sampling on — table and miss-rate figure alike — and every cell
/// carries deadline outcomes.
#[test]
fn deadline_artifacts_are_byte_identical_with_sampling_on() {
    let mut sim = Scale::quick().sim();
    sim.edges_per_core = 2; // tiny topology keeps this test fast
    sim.horizon = Dur::from_millis(2);
    let scenario = ups_sweep::scenario::find("i2-deadline-replay").expect("registered");
    assert_eq!(scenario.pipeline, CellPipeline::DeadlineReplay);
    let spec = scenario.spec();

    let off = run_sweep(&spec, &sim, 2, scenario.workload, scenario.pipeline);

    let (on, telem) = run_telemetry_sweep(
        &spec,
        &sim,
        2,
        scenario.workload,
        scenario.pipeline,
        Dur::from_micros(50),
    );
    assert!(
        off.results
            .iter()
            .all(|r| r.deadline.is_some_and(|d| d.tagged.mean > 0.0)),
        "every deadline-replay cell reports tagged flows"
    );
    assert_eq!(off.to_json(), on.to_json(), "JSON artifacts differ");
    assert_eq!(off.to_csv(), on.to_csv(), "CSV artifacts differ");
    let (fig_off, fig_on) = (
        scenario.miss_curves(&off).expect("deadline scenario"),
        scenario.miss_curves(&on).expect("deadline scenario"),
    );
    assert_eq!(
        fig_off.to_json(),
        fig_on.to_json(),
        "figure artifacts differ"
    );
    assert!(
        telem.cells.iter().all(|c| c.replicates == 1),
        "sampling on actually produced series for every cell"
    );
}

/// Figure pipeline: one Figure-1 cell (I2 1G/10G at 70%, record →
/// LSTF replay) gives bit-identical delay ratios, lateness and cell
/// metrics whether or not its record leg is sampled.
#[test]
fn figure_artifact_is_byte_identical_with_sampling_on() {
    let mut sim = Scale::quick().sim();
    sim.edges_per_core = 2; // tiny topology keeps this test fast
    sim.horizon = Dur::from_millis(2);
    let coord = CellCoord {
        topo: TopoKind::I2(I2Variant::Default1g10g),
        sched: SchedKind::Random,
        util: 0.7,
        chaos: ChaosSpec::OFF,
    };
    let run = |sample| CellPipeline::Replay.observed(&coord, &sim, 3, WorkloadKind::Web, sample);
    let (off, on) = (run(None), run(Some(Dur::from_micros(50))));

    assert!(off.series.is_none());
    assert!(on.series.as_ref().is_some_and(|s| !s.samples.is_empty()));
    assert!(!off.report.qdelay_ratios.is_empty());
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&off.report.qdelay_ratios),
        bits(&on.report.qdelay_ratios),
        "delay ratios differ"
    );
    assert_eq!(off.report.lateness, on.report.lateness, "lateness differs");
    assert_eq!(off.metrics(), on.metrics(), "cell metrics differ");
}
