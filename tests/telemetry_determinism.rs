//! The observability plane's hard invariant: turning event-wheel
//! telemetry sampling ON must leave every result artifact byte-identical
//! to a sampling-OFF run. Observation is strictly read-only — observe
//! events pop after all data-plane classes at the same instant, never
//! touch a queue or an RNG stream, and are excluded from the event
//! counter — so the only difference between the two runs is that one of
//! them also produced a time series.
//!
//! The sampling cadence lives in a process-wide global
//! (`ups_obs::set_sample_interval`), so every test here serializes on
//! one mutex; without it a concurrently running test could observe a
//! neighbor's cadence.

use std::sync::Mutex;
use ups_bench::{fig1_report, Scale};
use ups_core::WorkloadKind;
use ups_sim::Dur;
use ups_sweep::{run_sweep, run_telemetry_sweep, CellPipeline, SweepSpec};

/// Serializes access to the process-wide sampling interval.
static SAMPLER: Mutex<()> = Mutex::new(());

/// Table pipeline: the smoke grid's JSON and CSV artifacts from a
/// sampling-on run (`run_telemetry_sweep`, which also yields the
/// telemetry artifact) are byte-identical to the plain sampling-off
/// sweep — and the telemetry sweep restores the global to off.
#[test]
fn table_artifact_is_byte_identical_with_sampling_on() {
    let _guard = SAMPLER.lock().unwrap();
    let mut sim = Scale::quick().sim();
    sim.edges_per_core = 2; // tiny topology keeps this test fast
    sim.horizon = Dur::from_millis(2);
    let spec = SweepSpec::smoke().with_replicates(2);

    assert_eq!(ups_obs::sample_interval(), None, "sampling leaked on");
    let off = run_sweep(&spec, &sim, 2);

    let (on, telem) = run_telemetry_sweep(
        &spec,
        &sim,
        2,
        WorkloadKind::Web,
        CellPipeline::Replay,
        Dur::from_micros(50),
    );
    assert_eq!(
        ups_obs::sample_interval(),
        None,
        "telemetry sweep must restore the sampling global"
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
/// computed through the `ups-obs` registry, serialize byte-identically
/// with sampling on — table and miss-rate figure alike — and every cell
/// carries deadline outcomes.
#[test]
fn deadline_artifacts_are_byte_identical_with_sampling_on() {
    let _guard = SAMPLER.lock().unwrap();
    let mut sim = Scale::quick().sim();
    sim.edges_per_core = 2; // tiny topology keeps this test fast
    sim.horizon = Dur::from_millis(2);
    let scenario = ups_sweep::scenario::find("i2-deadline-replay").expect("registered");
    assert_eq!(scenario.pipeline, CellPipeline::DeadlineReplay);
    let spec = scenario.spec();

    assert_eq!(ups_obs::sample_interval(), None, "sampling leaked on");
    let off = scenario.run_spec(&spec, &sim, 2);

    let (on, telem) = run_telemetry_sweep(
        &spec,
        &sim,
        2,
        scenario.workload,
        scenario.pipeline,
        Dur::from_micros(50),
    );
    assert_eq!(ups_obs::sample_interval(), None);

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

/// Figure pipeline: Figure 1's end-to-end artifact (record → replay →
/// delay-ratio CDF) is byte-identical whether or not every `Network`
/// built during the sweep carries an active event-wheel sampler.
#[test]
fn figure_artifact_is_byte_identical_with_sampling_on() {
    let _guard = SAMPLER.lock().unwrap();
    let mut scale = Scale::quick();
    scale.edges_per_core = 2; // tiny topology keeps this test fast
    scale.horizon = Dur::from_millis(2);
    scale.label = "tiny";
    scale.jobs = 2;

    assert_eq!(ups_obs::sample_interval(), None, "sampling leaked on");
    let off = fig1_report(&scale);

    ups_obs::set_sample_interval(Some(Dur::from_micros(50)));
    let on = fig1_report(&scale);
    ups_obs::set_sample_interval(None);

    assert_eq!(off.to_json(), on.to_json(), "figure JSON artifacts differ");
    assert_eq!(off.to_csv(), on.to_csv(), "figure CSV artifacts differ");
}
