//! Fault-tolerant execution: checkpoint/resume, trial supervision, and
//! resume manifests.
//!
//! Three pillars (DESIGN.md §13):
//!
//! * [`snapshot`] — a serializable, checksummed [`SimSnapshot`] captured
//!   by [`Simulation::snapshot`](crate::Simulation::snapshot) and loaded
//!   by [`Simulation::restore`](crate::Simulation::restore); a restored
//!   run is **byte-identical** to an uninterrupted one across every
//!   engine tier, with active fault plans included.
//! * [`supervisor`] — per-trial panic isolation (`catch_unwind` + a
//!   panic taxonomy), bounded same-seed retry, a wall-clock watchdog
//!   producing typed [`TrialOutcome::TimedOut`]s, and the
//!   [`FleetSummary`] tally; every trial of a
//!   [`montecarlo::TrialRunner`](crate::montecarlo::TrialRunner) runs
//!   under it.
//! * [`manifest`] — append-only JSONL [`TrialManifest`]s; a
//!   [`TrialRunner`](crate::montecarlo::TrialRunner) given one through
//!   [`manifest`](crate::montecarlo::TrialRunner::manifest) skips
//!   already-completed trials on resume.
//!
//! The third robustness pillar — opt-in self-checking engines with
//! graceful tier degradation — lives on [`Simulation`](crate::Simulation)
//! itself (see [`Simulation::set_self_check`](crate::Simulation::set_self_check)).

pub mod manifest;
pub mod snapshot;
pub mod supervisor;

pub use manifest::{trial_line, TrialManifest};
pub use snapshot::{SimSnapshot, SnapshotError, SNAPSHOT_VERSION};
pub use supervisor::{
    supervise_trial, FleetSummary, PanicKind, SupervisorConfig, TrialFn, TrialOutcome,
};
