//! # fading-geom
//!
//! Two-dimensional geometry substrate for simulating wireless networks under
//! the SINR (fading) model, as used by *Contention Resolution on a Fading
//! Channel* (Fineman, Gilbert, Kuhn, Newport — PODC 2016).
//!
//! The crate provides:
//!
//! * [`Point`] — a point in the 2-D Euclidean plane, with distance helpers.
//! * [`PointsSoA`] — a structure-of-arrays mirror of a `Vec<Point>` (separate
//!   contiguous `x[]`/`y[]` slices) feeding the channel layer's batched
//!   distance/gain kernels.
//! * [`Bbox`] — axis-aligned bounding boxes.
//! * [`GridIndex`] — a counting-sorted uniform-grid spatial index supporting
//!   nearest-neighbor, range and annulus queries in (amortized) constant
//!   time per query for well-distributed inputs, plus one cell-order pass
//!   for every point's nearest neighbour.
//! * [`TileIndex`] / [`TileTree`] — fixed tilings (flat, and multi-resolution
//!   with 2×2-merged aggregate levels) with certified tile-pair distance
//!   brackets, the substrate of the far-field interference engines.
//! * [`Deployment`] — an immutable set of node positions together with cached
//!   link structure (nearest neighbors, shortest/longest links, the paper's
//!   link-length ratio `R`).
//! * [`generators`] — seeded, reproducible deployment generators covering the
//!   workloads exercised by the paper's analysis (uniform, clustered, lattice,
//!   exponential chain with controlled `R`, per-link-class pair placements).
//!
//! # Example
//!
//! ```
//! use fading_geom::{Deployment, Point};
//!
//! let deployment = Deployment::uniform_square(100, 50.0, 42);
//! assert_eq!(deployment.len(), 100);
//! // The paper's R: ratio of the longest to the shortest link.
//! assert!(deployment.link_ratio() >= 1.0);
//! // Nearest-neighbor distances drive the paper's link classes.
//! let nn = deployment.nearest_neighbor(0).unwrap();
//! assert!(deployment.point(0).distance(deployment.point(nn)) > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod bbox;
mod deployment;
mod error;
pub mod generators;
mod grid;
mod hull;
mod io;
mod point;
mod soa;
mod tiles;
mod tiletree;

pub use bbox::Bbox;
pub use deployment::{Deployment, DeploymentBuilder};
pub use error::GeomError;
pub use grid::GridIndex;
pub use hull::{convex_hull, diameter};
pub use point::Point;
pub use soa::{gather_points, PointsSoA};
pub use tiles::TileIndex;
pub use tiletree::TileTree;

/// Numeric tolerance used when comparing squared distances and other derived
/// floating-point quantities within this crate.
pub const EPSILON: f64 = 1e-9;
