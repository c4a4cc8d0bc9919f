//! Fixture: `figure` is documented, `spectre` is not.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment { name: "figure" },
    Experiment { name: "spectre" },
];
