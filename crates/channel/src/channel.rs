//! The sealed [`Channel`] trait.

use rand::rngs::SmallRng;

use fading_geom::Point;

use crate::{
    ChannelPerturbation, ChunkExecutor, EngineTier, NodeId, Reception, ResolveEngine,
    SinrBreakdown, SinrParams,
};

pub(crate) mod sealed {
    /// Prevents downstream implementations so the trait can evolve.
    pub trait Sealed {}
}

/// A synchronous-round wireless channel model.
///
/// Given the node positions, the set of transmitters, and the set of
/// listeners for one round, a channel decides what every listener observes.
/// All channels in this crate are memoryless across rounds; stochastic
/// channels (e.g. [`RayleighSinrChannel`](crate::RayleighSinrChannel)) draw
/// their per-round fading coefficients from the supplied `rng`, so a run is
/// reproducible given the rng seed.
///
/// This trait is **sealed**: it cannot be implemented outside this crate
/// (the model set is part of the reproduction's fidelity contract). It is
/// object-safe, so simulators can hold a `Box<dyn Channel>`.
pub trait Channel: sealed::Sealed + Send + Sync + std::fmt::Debug {
    /// Resolves one round: returns what each node in `listeners` observes
    /// (in the same order as `listeners`).
    ///
    /// `transmitters` and `listeners` must be disjoint index sets into
    /// `positions`; a node cannot transmit and listen in the same round
    /// (half-duplex, per the model section of the paper).
    fn resolve(
        &self,
        positions: &[Point],
        transmitters: &[NodeId],
        listeners: &[NodeId],
        rng: &mut SmallRng,
    ) -> Vec<Reception>;

    /// Resolves one round through `engine`, under a per-round
    /// [`ChannelPerturbation`] (noise scaling and jammer interference from
    /// a fault plan), optionally reporting one [`SinrBreakdown`] per
    /// listener into `breakdown`. The tile-tree tier runs its listener
    /// chunks on `executor`.
    ///
    /// Contract:
    ///
    /// * **Decision exactness.** With a neutral perturbation and no
    ///   breakdown, the receptions are **bit-identical** to
    ///   [`Channel::resolve`] (and the rng is consumed identically) for
    ///   every [`ResolveEngine`] tier, on any executor — chunk boundaries
    ///   are fixed and outputs merge in chunk order. An engine that was
    ///   not built over these `positions` (or for a tier this channel
    ///   cannot serve) falls back to the exact scan.
    /// * **Perturbation.** A [neutral](ChannelPerturbation::is_neutral)
    ///   perturbation is invisible. SINR-family channels add `extra_at(v)`
    ///   to listener `v`'s interference sum and multiply the ambient noise
    ///   by `noise_scale`, identically on every tier. Geometry-free
    ///   channels (the radio models) have no SINR denominator to perturb;
    ///   this default implementation ignores `noise_scale` and treats any
    ///   jammed listener (`extra_at(v) > 0`) as blanketed:
    ///   [`Reception::Collision`] on collision-detection channels (energy
    ///   with no decodable message), [`Reception::Silence`] otherwise.
    /// * **Instrumentation observes, it never perturbs.** `breakdown` is
    ///   cleared first. SINR-family channels then push exactly
    ///   `listeners.len()` entries, one per listener in order, and resolve
    ///   through the full per-pair scan (the gain cache still serves; the
    ///   tiled tiers skip exactly the terms a breakdown reports).
    ///   Geometry-free channels leave it empty. Each breakdown's `decoded`
    ///   flag reflects the SINR test **before** any post-SINR loss layer
    ///   (see [`SinrBreakdown`]).
    ///
    /// `engine` is `&mut` for the tiled tiers' per-round scratch and
    /// decision counters; the receptions never depend on that state.
    #[allow(clippy::too_many_arguments)] // the round, the engine, and its three per-round inputs
    fn resolve_with(
        &self,
        positions: &[Point],
        transmitters: &[NodeId],
        listeners: &[NodeId],
        engine: &mut ResolveEngine,
        perturbation: &ChannelPerturbation<'_>,
        executor: &dyn ChunkExecutor,
        rng: &mut SmallRng,
        breakdown: Option<&mut Vec<SinrBreakdown>>,
    ) -> Vec<Reception> {
        let _ = (engine, executor);
        if let Some(b) = breakdown {
            b.clear();
        }
        let mut out = self.resolve(positions, transmitters, listeners, rng);
        if perturbation.has_jamming() {
            let jammed = if self.supports_collision_detection() {
                Reception::Collision
            } else {
                Reception::Silence
            };
            for (slot, &v) in out.iter_mut().zip(listeners) {
                if perturbation.extra_at(v) > 0.0 {
                    *slot = jammed;
                }
            }
        }
        out
    }

    /// The received power at `to` of an external interferer (a jammer)
    /// transmitting from `from` with power `power`, under this channel's
    /// propagation model.
    ///
    /// SINR-family channels apply their path loss (`power / d^α`);
    /// geometry-free channels return `power` unchanged (any active jammer
    /// blankets every listener — the radio models have no notion of
    /// distance). Used by the simulator to precompute per-node jammer
    /// gains once per deployment, so jamming rides the same
    /// precompute-once fast path as the [`GainCache`](crate::GainCache).
    fn interferer_gain(&self, from: Point, to: Point, power: f64) -> f64 {
        let _ = (from, to);
        power
    }

    /// The highest [`EngineTier`] that can serve this channel; every tier
    /// below it can too.
    ///
    /// The default, [`EngineTier::Exact`], is right for the geometry-free
    /// radio models. Rayleigh fading stops at the gain cache: it draws
    /// one fade per (listener, transmitter) pair in canonical order, so
    /// pruning pairs would desynchronize the rng stream. The deterministic
    /// SINR family reaches the tile tree.
    fn max_tier(&self) -> EngineTier {
        EngineTier::Exact
    }

    /// The SINR parameters whose pairwise gains the engines precompute,
    /// or `None` for geometry-free models.
    fn sinr_params(&self) -> Option<&SinrParams> {
        None
    }

    /// Whether [`Channel::resolve`] consumes randomness from its `rng`.
    ///
    /// `true` (the conservative default) for stochastic channels — Rayleigh
    /// fading draws per-pair coefficients and the lossy channel draws
    /// per-reception drops — and overridden to `false` by the
    /// deterministic models (SINR and the radio channels). Consumers that
    /// re-resolve a **subset** of listeners to audit an engine's output
    /// (the simulator's opt-in self-check) must skip channels that draw:
    /// a partial re-resolve would consume a different amount of
    /// randomness and desynchronize the stream.
    fn resolve_draws_rng(&self) -> bool {
        true
    }

    /// A short stable name for reports and tables (e.g. `"sinr"`).
    fn name(&self) -> &'static str;

    /// Whether listeners on this channel can distinguish collisions from
    /// silence (true only for collision-detection channels).
    fn supports_collision_detection(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_trait_is_object_safe() {
        fn _takes_dyn(_c: &dyn Channel) {}
    }
}
