//! # fading-cr
//!
//! **Contention resolution on a fading (SINR) channel** — a complete,
//! executable reproduction of *Contention Resolution on a Fading Channel*
//! (Fineman, Gilbert, Kuhn, Newport — PODC 2016).
//!
//! The paper's result: on a single-hop SINR channel, the maximally simple
//! algorithm — every active node broadcasts with constant probability and
//! deactivates upon receiving any message — resolves contention in
//! `O(log n + log R)` rounds w.h.p. (`R` = longest/shortest link ratio),
//! beating the `Ω(log² n)` lower bound of the non-fading radio network
//! model; a matching `Ω(log n)` lower bound holds for fading networks with
//! `O(log n)` link classes.
//!
//! This crate is the workspace's front door. It re-exports:
//!
//! * the geometry substrate ([`fading_geom`]): deployments and generators;
//! * the channel models ([`fading_channel`]): exact SINR, classical radio,
//!   radio + collision detection, Rayleigh fading;
//! * the simulator ([`fading_sim`]) and all protocols
//!   ([`fading_protocols`]): the paper's [`Fkn`] algorithm and every
//!   baseline it compares against;
//! * the analysis machinery ([`fading_analysis`]): link classes, good
//!   nodes, separated subsets, the §3.3 class-bound schedule;
//! * the lower-bound games ([`fading_hitting`]).
//!
//! and adds:
//!
//! * [`Scenario`] — a validated builder tying deployment × channel ×
//!   protocol × seed together;
//! * [`theory`] — closed-form round-complexity predictions for overlaying
//!   measured data;
//! * [`experiments`] — the full harness (E1–E12) regenerating every
//!   quantitative claim of the paper as a [`Table`];
//! * [`Table`] — plain-text / CSV table rendering for experiment output;
//!   [`plot`] — dependency-free ASCII scaling plots.
//!
//! # Quickstart
//!
//! ```
//! use fading_cr::prelude::*;
//!
//! let scenario = Scenario::builder()
//!     .deployment(Deployment::uniform_square(64, 100.0, 7))
//!     .sinr(SinrParams::default_single_hop())
//!     .protocol(ProtocolKind::fkn_default())
//!     .seed(42)
//!     .build()
//!     .expect("valid scenario");
//! let result = scenario.run(10_000);
//! assert!(result.resolved());
//! println!("resolved in {} rounds", result.resolved_at().unwrap());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod channel_kind;
pub mod experiments;
pub mod jobspec;
pub mod plot;
pub mod report;
mod scenario;
mod table;
pub mod theory;

pub use channel_kind::ChannelKind;
pub use jobspec::{ChannelSpec, JobSpec, JobSpecError};
pub use scenario::{Scenario, ScenarioBuilder, ScenarioError};
pub use table::Table;

pub use fading_analysis as analysis;
pub use fading_channel as channel;
pub use fading_geom as geom;
pub use fading_hitting as hitting;
pub use fading_protocols as protocols;
pub use fading_sim as sim;

/// The names a typical user needs, importable in one line.
pub mod prelude {
    pub use crate::channel_kind::ChannelKind;
    pub use crate::scenario::{Scenario, ScenarioBuilder, ScenarioError};
    pub use crate::table::Table;
    pub use fading_analysis::{ClassBoundSchedule, GoodNodes, LinkClasses, ScheduleParams};
    pub use fading_channel::{
        Channel, ChunkExecutor, EngineTier, FarFieldEngine, FarFieldStats, GainCache,
        HierarchicalFarFieldEngine, RadioCdChannel, RadioChannel, RayleighSinrChannel, Reception,
        ResolveEngine, SerialExecutor, SinrChannel, SinrParams,
    };
    pub use fading_geom::{generators, Deployment, Point};
    pub use fading_hitting::{
        HalvingPlayer, HittingPlayer, ProtocolPlayer, RestrictedHitting, TwoPlayerCr,
        UniformRandomPlayer,
    };
    pub use fading_protocols::{
        Aloha, CdElection, CyclicSweep, Decay, FixedProbability, Fkn, Interleave,
        JurdzinskiStachowiak, ProtocolKind,
    };
    pub use fading_sim::{
        faults, montecarlo, Action, FaultPlan, Protocol, RunOutcome, RunResult, SimError,
        Simulation, StealPool, TraceLevel, HIERARCHICAL_AUTO_THRESHOLD,
    };
}

pub use prelude::*;
