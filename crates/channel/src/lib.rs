//! # fading-channel
//!
//! Wireless channel models for the contention-resolution study of *Contention
//! Resolution on a Fading Channel* (Fineman, Gilbert, Kuhn, Newport —
//! PODC 2016).
//!
//! The centerpiece is [`SinrChannel`], an exact implementation of the paper's
//! signal-to-interference-and-noise model (Equation 1): listener `v` receives
//! a message from transmitter `u` among concurrent transmitters `I` iff
//!
//! ```text
//!        P / d(u,v)^α
//! ─────────────────────────────  ≥  β
//!  N + Σ_{w∈I} P / d(w,v)^α
//! ```
//!
//! with fixed transmission power `P`, path-loss exponent `α > 2`, noise
//! `N ≥ 0`, and threshold `β ≥ 1`.
//!
//! The crate also implements every comparator model the paper discusses:
//!
//! * [`RadioChannel`] — the classical radio network model: a listener
//!   receives iff *exactly one* node transmits (concurrent transmissions are
//!   lost, and transmitters learn nothing). Contention resolution here
//!   requires `Θ(log² n)` rounds.
//! * [`RadioCdChannel`] — the radio network model with receiver collision
//!   detection, where the problem drops to `Θ(log n)`.
//! * [`RayleighSinrChannel`] — a stochastic-fading extension in which every
//!   transmitter–listener gain is multiplied by an i.i.d. exponential
//!   (Rayleigh power) coefficient each round.
//! * [`LossySinrChannel`] — SINR plus i.i.d. per-reception message drops,
//!   for robustness / failure-injection experiments.
//!
//! All channels implement the sealed [`Channel`] trait and can be driven by
//! the `fading-sim` simulator.
//!
//! Rounds of a static deployment resolve through one [`ResolveEngine`]
//! handed to [`Channel::resolve_with`], with results bit-identical to
//! [`Channel::resolve`] on every tier ([`EngineTier`]): the exact scan;
//! [`GainCache`], the `n × n` pairwise gain matrix precomputed once (see
//! its module docs for the exactness contract and the size guard); and
//! two far-field engines that prune the per-round work,
//! [`FarFieldEngine`] (flat tile-pair tables) and
//! [`HierarchicalFarFieldEngine`] (a [`fading_geom::TileTree`] traversal
//! with no quadratic precompute, parallelizable via [`ChunkExecutor`]).
//! [`EngineTier::auto`] picks the tier from the channel and the
//! deployment size.
//!
//! All tiers bottom out in the batched per-α SINR kernels of the
//! [`kernels`] module — structure-of-arrays distance/gain batches,
//! monomorphized per exponent class, bit-identical to the scalar
//! [`pow_alpha`] path (see DESIGN.md §15 for the summation-order
//! contract).
//!
//! # Example
//!
//! ```
//! use fading_channel::{Channel, Reception, SinrChannel, SinrParams};
//! use fading_geom::Point;
//! use rand::SeedableRng;
//!
//! let params = SinrParams::builder().alpha(3.0).beta(2.0).noise(1.0).power(1e9).build()?;
//! let channel = SinrChannel::new(params);
//! let positions = [Point::new(0.0, 0.0), Point::new(1.0, 0.0), Point::new(500.0, 0.0)];
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
//!
//! // Node 0 transmits; nodes 1 and 2 listen. The far-away listener 2 still
//! // decodes because nothing interferes.
//! let rx = channel.resolve(&positions, &[0], &[1, 2], &mut rng);
//! assert_eq!(rx, vec![Reception::Message { from: 0 }, Reception::Message { from: 0 }]);
//! # Ok::<(), fading_channel::ChannelError>(())
//! ```

#![deny(unsafe_code)] // narrowly allowed inside `kernels` only: the
// `#[target_feature(enable = "avx2")]` instantiations of the batch
// kernels need `unsafe` at their runtime-dispatched call sites (the
// detection guard is the safety argument; the wide path computes
// bit-identical results). Everything else in the crate is unsafe-free.
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod breakdown;
mod channel;
mod engine;
mod error;
pub mod exec;
mod farfield;
mod hierarchical;
mod gain_cache;
pub mod kernels;
mod lossy;
mod params;
mod perturbation;
mod radio;
mod rayleigh;
mod reception;
mod sinr;

pub use breakdown::SinrBreakdown;
pub use channel::Channel;
pub use engine::{EngineTier, ResolveEngine, HIERARCHICAL_AUTO_THRESHOLD};
pub use error::ChannelError;
pub use exec::{ChunkExecutor, SerialExecutor};
pub use farfield::{
    FarFieldEngine, FarFieldStats, DEFAULT_TARGET_TILE_OCCUPANCY, FARFIELD_REL_SLACK,
    MAX_TILES_PER_SIDE, NEAR_RING,
};
pub use hierarchical::{
    HierarchicalFarFieldEngine, HIER_ACCEPT_RATIO_SQ, HIER_CHUNK, HIER_MAX_TILES_PER_SIDE,
    HIER_NEAR_RING, HIER_TARGET_TILE_OCCUPANCY, HIER_TILE_CHUNK,
};
pub use gain_cache::{GainCache, DEFAULT_MAX_CACHED_NODES};
pub use lossy::LossySinrChannel;
pub use params::{SinrParams, SinrParamsBuilder, DEFAULT_SINGLE_HOP_MARGIN};
pub use perturbation::ChannelPerturbation;
pub use radio::{RadioCdChannel, RadioChannel};
pub use rayleigh::{RayleighSinrChannel, RAYLEIGH_CACHE_PROFITABLE_NODES};
pub use reception::Reception;
pub use sinr::{pow_alpha, SinrChannel};

/// Node identifier: an index into a deployment's position array.
pub type NodeId = usize;
