//! Stochastic (Rayleigh) fading extension of the SINR channel.

use rand::rngs::SmallRng;
use rand::Rng;

use fading_geom::Point;

use crate::channel::{sealed, Channel};
use crate::kernels::{gain_batch, ScanScratch};
use crate::sinr::pow_alpha;
use crate::{
    ChannelPerturbation, ChunkExecutor, EngineTier, GainCache, NodeId, Reception, ResolveEngine,
    SinrBreakdown, SinrParams,
};

/// Largest deployment for which the Rayleigh channel keeps its gain cache.
///
/// Unlike the deterministic channel — where a cached row replaces a
/// `pow_alpha` *and* the whole scan arithmetic — the Rayleigh resolve
/// still draws a fade and multiplies per pair, so a cached row only saves
/// the deterministic-gain recompute. Once the `n × n` matrix outgrows
/// last-level cache the row reads become memory-bound and the "cache" is
/// *slower* than recomputing gains with the batched kernels (measured at
/// n = 4096: 43.1 ms cached vs 33.4 ms uncached per round). Cached and
/// uncached results are bit-identical (the fade stream is independent of
/// the cache), so bypassing the cache above this size never changes
/// results — see [`EngineTier::auto`].
pub const RAYLEIGH_CACHE_PROFITABLE_NODES: usize = 1024;

/// A SINR channel with Rayleigh fading: every transmitter–listener power
/// gain is multiplied by an independent `Exp(1)` coefficient, redrawn each
/// round.
///
/// The PODC'16 paper analyzes the deterministic geometric-path-loss model;
/// stochastic fading is the natural "future work" robustness check (the
/// algorithm itself is oblivious to the channel). Expected gains equal the
/// deterministic model's, so the deterministic channel is recovered in the
/// mean; individual rounds, however, can deliver lucky captures or unlucky
/// deep fades.
///
/// Randomness comes from the `rng` passed to [`Channel::resolve`], so runs
/// remain reproducible under a fixed seed.
///
/// # Example
///
/// ```
/// use fading_channel::{Channel, RayleighSinrChannel, SinrParams};
/// use fading_geom::Point;
/// use rand::SeedableRng;
///
/// let ch = RayleighSinrChannel::new(SinrParams::default_single_hop());
/// let pos = [Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
/// let rx = ch.resolve(&pos, &[0], &[1], &mut rng);
/// assert_eq!(rx.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct RayleighSinrChannel {
    params: SinrParams,
}

impl RayleighSinrChannel {
    /// Creates a Rayleigh-fading SINR channel.
    #[must_use]
    pub fn new(params: SinrParams) -> Self {
        RayleighSinrChannel { params }
    }

    /// The model parameters.
    #[must_use]
    pub fn params(&self) -> &SinrParams {
        &self.params
    }

    /// The single resolve loop every public path funnels through — the
    /// Rayleigh counterpart of `SinrChannel::resolve_core`, with one
    /// `Exp(1)` fade drawn per (listener, transmitter) pair in loop order.
    /// Because the fade draws happen in the exact same sequence regardless
    /// of `cache`, `perturbation`, or `breakdown`, every entry point
    /// consumes the rng identically and the bit-exactness contracts hold
    /// by construction.
    #[allow(clippy::too_many_arguments)] // the union of every wrapper's parameters
    fn resolve_core(
        &self,
        positions: &[Point],
        transmitters: &[NodeId],
        listeners: &[NodeId],
        cache: Option<&GainCache>,
        perturbation: Option<&ChannelPerturbation<'_>>,
        rng: &mut SmallRng,
        mut breakdown: Option<&mut Vec<SinrBreakdown>>,
    ) -> Vec<Reception> {
        if let Some(b) = breakdown.as_deref_mut() {
            b.clear();
        }
        let p = self.params.power();
        let alpha = self.params.alpha();
        let beta = self.params.beta();
        let noise = match perturbation {
            Some(pt) => self.params.noise() * pt.noise_scale(),
            None => self.params.noise(),
        };
        // Uncached path: gather transmitter coordinates once and batch the
        // deterministic gains per listener. The fades are still drawn one
        // per pair inside the fold below — same order and count as the
        // scalar loop — so the rng stream (and thus every result) is
        // unchanged by the batching.
        let mut scratch = ScanScratch::new();
        if cache.is_none() {
            scratch.gather(positions, transmitters);
        }
        let mut out = Vec::with_capacity(listeners.len());
        for &v in listeners {
            let row = cache.map(|c| c.row(v));
            let vp = positions[v];
            if row.is_none() {
                scratch.gains.resize(transmitters.len(), 0.0);
                gain_batch(p, alpha, &scratch.xs, &scratch.ys, vp.x, vp.y, &mut scratch.gains);
            }
            let mut total = 0.0;
            let mut best_sig = 0.0;
            let mut best_tx: Option<NodeId> = None;
            for (i, &u) in transmitters.iter().enumerate() {
                debug_assert_ne!(u, v, "a node cannot transmit and listen simultaneously");
                let fade = exp1(rng);
                // Grouped as fade × (P/d^α) — the deterministic factor is
                // exactly what GainCache stores (and what the batched
                // kernel computes, bit-identically), so every path
                // multiplies the same two numbers. Jammer power stays
                // deterministic (no fading on jammer links): the adversary
                // transmits wideband interference, not a decodable signal.
                let det = match row {
                    Some(r) => r[u],
                    None => scratch.gains[i],
                };
                let sig = fade * det;
                total += sig;
                if sig > best_sig {
                    best_sig = sig;
                    best_tx = Some(u);
                }
            }
            // The jammer term is looked up once per listener and feeds both
            // the denominator and the breakdown.
            let extra = perturbation.map(|pt| pt.extra_at(v));
            let denom = match extra {
                Some(e) => noise + e + (total - best_sig),
                None => noise + (total - best_sig),
            };
            let reception = match best_tx {
                Some(u) if best_sig >= beta * denom => Reception::Message { from: u },
                _ => Reception::Silence,
            };
            if let Some(b) = breakdown.as_deref_mut() {
                b.push(SinrBreakdown {
                    listener: v,
                    best_tx,
                    signal: best_sig,
                    interference: total - best_sig,
                    noise,
                    extra: extra.unwrap_or(0.0),
                    margin: best_sig - beta * denom,
                    decoded: reception.is_message(),
                });
            }
            out.push(reception);
        }
        out
    }
}

/// Draws an `Exp(1)` variate (the power gain of a Rayleigh amplitude).
fn exp1(rng: &mut SmallRng) -> f64 {
    // Inverse CDF; guard the log away from 0.
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    -u.ln()
}

impl sealed::Sealed for RayleighSinrChannel {}

impl Channel for RayleighSinrChannel {
    fn resolve(
        &self,
        positions: &[Point],
        transmitters: &[NodeId],
        listeners: &[NodeId],
        rng: &mut SmallRng,
    ) -> Vec<Reception> {
        self.resolve_core(positions, transmitters, listeners, None, None, rng, None)
    }

    fn resolve_with(
        &self,
        positions: &[Point],
        transmitters: &[NodeId],
        listeners: &[NodeId],
        engine: &mut ResolveEngine,
        perturbation: &ChannelPerturbation<'_>,
        _executor: &dyn ChunkExecutor,
        rng: &mut SmallRng,
        breakdown: Option<&mut Vec<SinrBreakdown>>,
    ) -> Vec<Reception> {
        let cache = match engine {
            ResolveEngine::GainCache(c) if c.matches(positions, &self.params) => Some(&*c),
            _ => None,
        };
        let perturbation = Some(perturbation).filter(|pt| !pt.is_neutral());
        self.resolve_core(
            positions,
            transmitters,
            listeners,
            cache,
            perturbation,
            rng,
            breakdown,
        )
    }

    fn interferer_gain(&self, from: Point, to: Point, power: f64) -> f64 {
        power / pow_alpha(from.distance_sq(to), self.params.alpha())
    }

    fn max_tier(&self) -> EngineTier {
        // One fade per (listener, transmitter) pair in canonical order:
        // skipping any pair would desynchronize the rng stream, so the
        // tiled tiers cannot be decision-exact here.
        EngineTier::GainCache
    }

    fn sinr_params(&self) -> Option<&SinrParams> {
        Some(&self.params)
    }

    fn name(&self) -> &'static str {
        "rayleigh-sinr"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn params() -> SinrParams {
        SinrParams::builder()
            .power(16.0)
            .alpha(3.0)
            .beta(2.0)
            .noise(1.0)
            .build()
            .unwrap()
    }

    #[test]
    fn reproducible_under_fixed_seed() {
        let ch = RayleighSinrChannel::new(params());
        let pos = [Point::ORIGIN, Point::new(1.0, 0.0), Point::new(2.0, 0.0)];
        let a = ch.resolve(&pos, &[0, 2], &[1], &mut SmallRng::seed_from_u64(5));
        let b = ch.resolve(&pos, &[0, 2], &[1], &mut SmallRng::seed_from_u64(5));
        assert_eq!(a, b);
    }

    #[test]
    fn strong_solo_link_usually_decodes() {
        // d = 1, signal mean 16, threshold beta*(noise) = 2. The fade must
        // be below 1/8 to fail: probability 1 - e^{-1/8} ≈ 0.118.
        let ch = RayleighSinrChannel::new(params());
        let pos = [Point::ORIGIN, Point::new(1.0, 0.0)];
        let mut rng = SmallRng::seed_from_u64(42);
        let mut received = 0;
        let trials = 2_000;
        for _ in 0..trials {
            if ch.resolve(&pos, &[0], &[1], &mut rng)[0].is_message() {
                received += 1;
            }
        }
        let rate = f64::from(received) / f64::from(trials);
        assert!(
            (rate - (-0.125f64).exp()).abs() < 0.03,
            "observed decode rate {rate}"
        );
    }

    #[test]
    fn deep_fade_can_block_a_strong_link() {
        // Over many trials at least one failure must occur for a link whose
        // deterministic SINR would always pass.
        let ch = RayleighSinrChannel::new(params());
        let pos = [Point::ORIGIN, Point::new(1.0, 0.0)];
        let mut rng = SmallRng::seed_from_u64(9);
        let mut failures = 0;
        for _ in 0..500 {
            if !ch.resolve(&pos, &[0], &[1], &mut rng)[0].is_message() {
                failures += 1;
            }
        }
        assert!(failures > 0, "Rayleigh fading never produced a deep fade");
    }

    #[test]
    fn no_transmitters_is_silence() {
        let ch = RayleighSinrChannel::new(params());
        let pos = [Point::ORIGIN, Point::new(1.0, 0.0)];
        let rx = ch.resolve(&pos, &[], &[0, 1], &mut SmallRng::seed_from_u64(0));
        assert_eq!(rx, vec![Reception::Silence; 2]);
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(RayleighSinrChannel::new(params()).name(), "rayleigh-sinr");
    }
}
