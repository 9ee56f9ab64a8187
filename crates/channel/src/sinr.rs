//! The SINR (physical / fading) channel — Equation 1 of the paper.

use rand::rngs::SmallRng;

use fading_geom::Point;

use crate::channel::{sealed, Channel};
use crate::kernels::{
    fold_scan, gain_batch, gain_batch_with, scan_block, AlphaKernel, ScanFold, ScanScratch,
    LISTENER_BLOCK,
};
use crate::{
    ChannelPerturbation, ChunkExecutor, EngineTier, GainCache, NodeId, Reception, ResolveEngine,
    SinrBreakdown, SinrParams,
};

/// Computes `d^alpha` given the *squared* distance `d_sq = d²`.
///
/// Callers typically already have squared distances; this avoids a square
/// root in the common cases and takes fast paths for the integer exponents
/// used throughout the experiments (`α ∈ {3, 4, 6}` and the degenerate
/// `α = 2`).
///
/// # Example
///
/// ```
/// use fading_channel::pow_alpha;
/// assert_eq!(pow_alpha(4.0, 3.0), 8.0);   // d = 2, d³ = 8
/// assert_eq!(pow_alpha(9.0, 4.0), 81.0);  // d = 3, d⁴ = 81
/// assert!((pow_alpha(4.0, 2.5) - 2f64.powf(2.5)).abs() < 1e-12);
/// ```
#[inline]
#[must_use]
pub fn pow_alpha(d_sq: f64, alpha: f64) -> f64 {
    if alpha == 2.0 {
        d_sq
    } else if alpha == 3.0 {
        d_sq * d_sq.sqrt()
    } else if alpha == 4.0 {
        d_sq * d_sq
    } else if alpha == 6.0 {
        d_sq * d_sq * d_sq
    } else {
        d_sq.powf(alpha * 0.5)
    }
}

/// Result of the canonical transmitter scan for one listener: the full
/// interference fold plus the strongest signal and its transmitter.
pub(crate) struct ScanOutcome {
    /// Sum of all received powers, accumulated in `transmitters` order.
    pub(crate) total: f64,
    /// The strongest single received power (0.0 when none is positive).
    pub(crate) best_sig: f64,
    /// The first transmitter (in slice order) attaining `best_sig`, if any.
    pub(crate) best_tx: Option<NodeId>,
}

impl ScanOutcome {
    /// Names the winner of a slice-order `fold` over `transmitters`.
    pub(crate) fn from_fold(fold: ScanFold, transmitters: &[NodeId]) -> Self {
        ScanOutcome {
            total: fold.total,
            best_sig: fold.best_sig,
            best_tx: fold.best_idx.map(|i| transmitters[i]),
        }
    }
}

/// The canonical per-listener accumulation loop.
///
/// Every exact resolve path — and the far-field engine's exact fallback —
/// funnels through this one function, so the bit-exactness contracts
/// between them hold by construction: signals are folded in `transmitters`
/// slice order, and the winner is the first transmitter to strictly exceed
/// all earlier signals (ties keep the earlier one).
#[inline]
pub(crate) fn scan_transmitters(
    p: f64,
    alpha: f64,
    positions: &[Point],
    row: Option<&[f64]>,
    v: NodeId,
    vp: Point,
    transmitters: &[NodeId],
) -> ScanOutcome {
    let mut total = 0.0;
    let mut best_sig = 0.0;
    let mut best_tx: Option<NodeId> = None;
    for &u in transmitters {
        debug_assert_ne!(u, v, "a node cannot transmit and listen simultaneously");
        let sig = match row {
            Some(r) => r[u],
            None => p / pow_alpha(positions[u].distance_sq(vp), alpha),
        };
        total += sig;
        if sig > best_sig {
            best_sig = sig;
            best_tx = Some(u);
        }
    }
    ScanOutcome {
        total,
        best_sig,
        best_tx,
    }
}

/// The batched counterpart of [`scan_transmitters`] for the geometry
/// (uncached) path: one fused SoA gain batch into `scratch.gains`, then a
/// slice-order fold.
///
/// `scratch.xs`/`scratch.ys` must already hold the transmitters'
/// coordinates in `transmitters` slice order
/// ([`ScanScratch::gather`] — done once per round, not per listener).
/// Bit-identical to the scalar scan: each gain is the same expression
/// ([`gain_batch`]), and [`fold_scan`] reproduces the canonical
/// accumulation order and first-strict-max winner rule
/// (`tests/kernels.rs` pins the equivalence, tie-breaks included).
#[inline]
pub(crate) fn scan_transmitters_batched(
    p: f64,
    alpha: f64,
    v: NodeId,
    vp: Point,
    transmitters: &[NodeId],
    scratch: &mut ScanScratch,
) -> ScanOutcome {
    let ScanScratch { xs, ys, gains } = scratch;
    scan_transmitters_soa(p, alpha, v, vp, transmitters, xs, ys, gains)
}

/// The slice-level core of [`scan_transmitters_batched`]: takes the
/// gathered coordinate slices and the gain buffer separately, so callers
/// whose gather is shared across threads (the hierarchical engine's
/// read-only listener phase) can pair it with thread-local gain scratch.
#[inline]
#[allow(clippy::too_many_arguments)] // the scan inputs plus the split scratch
pub(crate) fn scan_transmitters_soa(
    p: f64,
    alpha: f64,
    v: NodeId,
    vp: Point,
    transmitters: &[NodeId],
    xs: &[f64],
    ys: &[f64],
    gains: &mut Vec<f64>,
) -> ScanOutcome {
    debug_assert!(
        transmitters.iter().all(|&u| u != v),
        "a node cannot transmit and listen simultaneously"
    );
    debug_assert_eq!(xs.len(), transmitters.len(), "stale gather");
    gains.resize(transmitters.len(), 0.0);
    gain_batch(p, alpha, xs, ys, vp.x, vp.y, gains);
    ScanOutcome::from_fold(fold_scan(gains), transmitters)
}

/// [`scan_transmitters_soa`] through an explicit kernel class: the same
/// gain batch and slice-order fold, with `k` in place of the class
/// `alpha` selects. The flat far-field engine's first-pass fallback
/// scans use it with the bounded generic kernel.
#[inline]
#[allow(clippy::too_many_arguments)] // the scan inputs plus the split scratch
pub(crate) fn scan_soa_with<K: AlphaKernel>(
    k: K,
    p: f64,
    v: NodeId,
    vp: Point,
    transmitters: &[NodeId],
    xs: &[f64],
    ys: &[f64],
    gains: &mut Vec<f64>,
) -> ScanOutcome {
    debug_assert!(
        transmitters.iter().all(|&u| u != v),
        "a node cannot transmit and listen simultaneously"
    );
    debug_assert_eq!(xs.len(), transmitters.len(), "stale gather");
    gains.resize(transmitters.len(), 0.0);
    gain_batch_with(k, p, xs, ys, vp.x, vp.y, gains);
    ScanOutcome::from_fold(fold_scan(gains), transmitters)
}

/// The paper's fading channel: reception is governed exactly by the SINR
/// inequality (Equation 1).
///
/// A listener `v` decodes the message of transmitter `u` iff
/// `(P/d(u,v)^α) / (N + Σ_{w ≠ u} P/d(w,v)^α) ≥ β`. Because `β ≥ 1`
/// (enforced by [`SinrParams`]), at most one transmitter can clear the
/// threshold at any listener, so it suffices to test the strongest signal.
///
/// # Example
///
/// ```
/// use fading_channel::{Channel, Reception, SinrChannel, SinrParams};
/// use fading_geom::Point;
/// use rand::SeedableRng;
///
/// let ch = SinrChannel::new(SinrParams::default_single_hop());
/// let pos = [Point::new(0.0, 0.0), Point::new(1.0, 0.0), Point::new(2.0, 0.0)];
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
///
/// // Both 0 and 2 transmit: the flanked listener 1 is jammed (neither
/// // signal clears β = 2 against the other's interference).
/// let rx = ch.resolve(&pos, &[0, 2], &[1], &mut rng);
/// assert_eq!(rx, vec![Reception::Silence]);
/// ```
#[derive(Debug, Clone)]
pub struct SinrChannel {
    params: SinrParams,
}

impl SinrChannel {
    /// Creates a SINR channel with the given (already validated) parameters.
    #[must_use]
    pub fn new(params: SinrParams) -> Self {
        SinrChannel { params }
    }

    /// The model parameters.
    #[must_use]
    pub fn params(&self) -> &SinrParams {
        &self.params
    }

    /// Total interference power at point `at` caused by the given
    /// transmitters: `Σ_w P / d(w, at)^α`.
    ///
    /// Exposed for the analysis crate (Lemmas 3–4 measure exactly this
    /// quantity at the nodes of `S_i`).
    #[must_use]
    pub fn interference_at(&self, positions: &[Point], at: Point, transmitters: &[NodeId]) -> f64 {
        let p = self.params.power();
        let alpha = self.params.alpha();
        transmitters
            .iter()
            .map(|&w| p / pow_alpha(positions[w].distance_sq(at), alpha))
            .sum()
    }

    /// The exact SINR of link `u → v` when the nodes in `others`
    /// (excluding `u` and `v` themselves) transmit concurrently.
    ///
    /// Returns `f64::INFINITY` when both noise and interference are zero.
    #[must_use]
    pub fn sinr(&self, positions: &[Point], u: NodeId, v: NodeId, others: &[NodeId]) -> f64 {
        let p = self.params.power();
        let alpha = self.params.alpha();
        let signal = p / pow_alpha(positions[u].distance_sq(positions[v]), alpha);
        let interference: f64 = others
            .iter()
            .filter(|&&w| w != u && w != v)
            .map(|&w| p / pow_alpha(positions[w].distance_sq(positions[v]), alpha))
            .sum();
        let denom = self.params.noise() + interference;
        if denom == 0.0 {
            f64::INFINITY
        } else {
            signal / denom
        }
    }

    /// The single exact resolve loop: `resolve` and every untiled
    /// `resolve_with` round funnel through it, so their bit-exactness
    /// contracts hold *by construction* rather than by keeping parallel
    /// loops in sync:
    ///
    /// * `cache` must already be validated against `positions` (`None`
    ///   recomputes gains from geometry); cached and uncached differ only
    ///   in where `sig` is read from, with identical accumulation order.
    /// * `perturbation = None` uses the clean denominator grouping
    ///   `noise + (total - best_sig)`; `Some` uses the perturbed grouping
    ///   `scaled_noise + extra + (total - best_sig)`. Callers map neutral
    ///   perturbations to `None`, which preserves the historical clean-path
    ///   expressions exactly.
    /// * `breakdown`, when supplied, is cleared and then only *reads* the
    ///   already-computed terms — it cannot alter the decision.
    fn resolve_core(
        &self,
        positions: &[Point],
        transmitters: &[NodeId],
        listeners: &[NodeId],
        cache: Option<&GainCache>,
        perturbation: Option<&ChannelPerturbation<'_>>,
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
        let mut out = Vec::with_capacity(listeners.len());
        // Shared per-listener epilogue: the jammer term is looked up once
        // per listener and feeds both the denominator and the breakdown.
        // The scaled noise and the jammer term join the denominator exactly
        // where Equation 1 puts N; the clean grouping is kept verbatim so
        // an absent perturbation reproduces the historical expression bit
        // for bit.
        let finish = |v: NodeId,
                      ScanOutcome {
                          total,
                          best_sig,
                          best_tx,
                      }: ScanOutcome,
                      out: &mut Vec<Reception>,
                      breakdown: &mut Option<&mut Vec<SinrBreakdown>>| {
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
        };
        match cache {
            // Cached rounds are table lookups — the batch kernels have
            // nothing to compute there, so the scalar row scan stands.
            Some(c) => {
                for &v in listeners {
                    let row = Some(c.row(v));
                    let outcome =
                        scan_transmitters(p, alpha, positions, row, v, positions[v], transmitters);
                    finish(v, outcome, &mut out, &mut breakdown);
                }
            }
            // Uncached rounds recompute every gain from geometry, so they
            // run through the batched SoA kernels: the transmitters'
            // coordinates are gathered once per round, then listeners are
            // scanned in blocks through the fused `scan_block` kernel — one
            // pass computing gains and folds for LISTENER_BLOCK listeners
            // at once, each lane bit-identical to the scalar scan (see
            // kernels module docs). The tail block falls back to the
            // per-listener batch + fold, which is the same arithmetic.
            None => {
                let mut scratch = ScanScratch::new();
                scratch.gather(positions, transmitters);
                for block in listeners.chunks(LISTENER_BLOCK) {
                    if block.len() == LISTENER_BLOCK {
                        let mut vx = [0.0; LISTENER_BLOCK];
                        let mut vy = [0.0; LISTENER_BLOCK];
                        for (j, &v) in block.iter().enumerate() {
                            debug_assert!(
                                transmitters.iter().all(|&u| u != v),
                                "a node cannot transmit and listen simultaneously"
                            );
                            vx[j] = positions[v].x;
                            vy[j] = positions[v].y;
                        }
                        let folds = scan_block(p, alpha, &scratch.xs, &scratch.ys, &vx, &vy);
                        for (&v, fold) in block.iter().zip(folds) {
                            let outcome = ScanOutcome::from_fold(fold, transmitters);
                            finish(v, outcome, &mut out, &mut breakdown);
                        }
                    } else {
                        for &v in block {
                            let outcome = scan_transmitters_batched(
                                p,
                                alpha,
                                v,
                                positions[v],
                                transmitters,
                                &mut scratch,
                            );
                            finish(v, outcome, &mut out, &mut breakdown);
                        }
                    }
                }
            }
        }
        out
    }
}

impl sealed::Sealed for SinrChannel {}

impl Channel for SinrChannel {
    fn resolve(
        &self,
        positions: &[Point],
        transmitters: &[NodeId],
        listeners: &[NodeId],
        _rng: &mut SmallRng,
    ) -> Vec<Reception> {
        self.resolve_core(positions, transmitters, listeners, None, None, None)
    }

    fn resolve_with(
        &self,
        positions: &[Point],
        transmitters: &[NodeId],
        listeners: &[NodeId],
        engine: &mut ResolveEngine,
        perturbation: &ChannelPerturbation<'_>,
        executor: &dyn ChunkExecutor,
        _rng: &mut SmallRng,
        breakdown: Option<&mut Vec<SinrBreakdown>>,
    ) -> Vec<Reception> {
        let params = &self.params;
        // A neutral perturbation routes to the clean denominator grouping,
        // which reproduces `resolve`'s expression bit for bit.
        let perturbation = Some(perturbation).filter(|pt| !pt.is_neutral());
        // The tiled tiers skip exactly the per-pair terms a breakdown
        // reports, so instrumented rounds take the full scan.
        let tiled = breakdown.is_none();
        let cache = match engine {
            ResolveEngine::FarField(e) if tiled && e.matches(positions, params) => {
                return e.resolve_sinr(params, positions, transmitters, listeners, perturbation);
            }
            ResolveEngine::Hierarchical(e) if tiled && e.matches(positions, params) => {
                return e.resolve_sinr(
                    params,
                    positions,
                    transmitters,
                    listeners,
                    perturbation,
                    executor,
                );
            }
            ResolveEngine::GainCache(c) if c.matches(positions, params) => Some(&*c),
            _ => None,
        };
        self.resolve_core(
            positions,
            transmitters,
            listeners,
            cache,
            perturbation,
            breakdown,
        )
    }

    fn interferer_gain(&self, from: Point, to: Point, power: f64) -> f64 {
        power / pow_alpha(from.distance_sq(to), self.params.alpha())
    }

    fn max_tier(&self) -> EngineTier {
        EngineTier::Hierarchical
    }

    fn sinr_params(&self) -> Option<&SinrParams> {
        Some(&self.params)
    }

    fn resolve_draws_rng(&self) -> bool {
        false
    }

    fn name(&self) -> &'static str {
        "sinr"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(0)
    }

    fn params() -> SinrParams {
        // P=16, alpha=3, beta=2, noise=1.
        SinrParams::builder()
            .power(16.0)
            .alpha(3.0)
            .beta(2.0)
            .noise(1.0)
            .build()
            .unwrap()
    }

    #[test]
    fn pow_alpha_matches_powf() {
        for &alpha in &[2.0f64, 2.5, 3.0, 3.7, 4.0, 5.1, 6.0] {
            for &d in &[0.5f64, 1.0, 2.0, 10.0, 123.4] {
                let want = d.powf(alpha);
                let got = pow_alpha(d * d, alpha);
                assert!(
                    (got - want).abs() <= 1e-9 * want,
                    "alpha={alpha} d={d} got={got} want={want}"
                );
            }
        }
    }

    #[test]
    fn solo_transmitter_in_range_is_received() {
        // d=1: SINR = 16 / 1 = 16 >= 2.
        let ch = SinrChannel::new(params());
        let pos = [Point::ORIGIN, Point::new(1.0, 0.0)];
        let rx = ch.resolve(&pos, &[0], &[1], &mut rng());
        assert_eq!(rx, vec![Reception::Message { from: 0 }]);
    }

    #[test]
    fn solo_transmitter_out_of_range_is_silence() {
        // d=3: signal = 16/27 < beta*noise = 2.
        let ch = SinrChannel::new(params());
        let pos = [Point::ORIGIN, Point::new(3.0, 0.0)];
        let rx = ch.resolve(&pos, &[0], &[1], &mut rng());
        assert_eq!(rx, vec![Reception::Silence]);
    }

    #[test]
    fn symmetric_interferers_jam_each_other() {
        // Listener at origin flanked by transmitters at ±1: each has signal
        // 16, interference 16, SINR = 16/(1+16) < 2.
        let ch = SinrChannel::new(params());
        let pos = [Point::new(-1.0, 0.0), Point::ORIGIN, Point::new(1.0, 0.0)];
        let rx = ch.resolve(&pos, &[0, 2], &[1], &mut rng());
        assert_eq!(rx, vec![Reception::Silence]);
    }

    #[test]
    fn capture_effect_near_transmitter_wins() {
        // Near transmitter at d=1 (signal 16), far interferer at d=4
        // (signal 16/64 = 0.25). SINR = 16 / (1 + 0.25) = 12.8 >= 2.
        let ch = SinrChannel::new(params());
        let pos = [
            Point::new(1.0, 0.0),  // near tx
            Point::ORIGIN,         // listener
            Point::new(-4.0, 0.0), // far interferer
        ];
        let rx = ch.resolve(&pos, &[0, 2], &[1], &mut rng());
        assert_eq!(rx, vec![Reception::Message { from: 0 }]);
    }

    #[test]
    fn spatial_reuse_two_simultaneous_receptions() {
        // Two well-separated pairs each decode concurrently — the spectrum
        // reuse that the paper's algorithm exploits.
        let ch = SinrChannel::new(params());
        let pos = [
            Point::new(0.0, 0.0),   // tx A
            Point::new(1.0, 0.0),   // rx A
            Point::new(100.0, 0.0), // tx B
            Point::new(99.0, 0.0),  // rx B
        ];
        let rx = ch.resolve(&pos, &[0, 2], &[1, 3], &mut rng());
        assert_eq!(
            rx,
            vec![
                Reception::Message { from: 0 },
                Reception::Message { from: 2 }
            ]
        );
    }

    #[test]
    fn no_transmitters_means_silence() {
        let ch = SinrChannel::new(params());
        let pos = [Point::ORIGIN, Point::new(1.0, 0.0)];
        let rx = ch.resolve(&pos, &[], &[0, 1], &mut rng());
        assert_eq!(rx, vec![Reception::Silence, Reception::Silence]);
    }

    #[test]
    fn interference_at_sums_received_powers() {
        let ch = SinrChannel::new(params());
        let pos = [Point::ORIGIN, Point::new(1.0, 0.0), Point::new(2.0, 0.0)];
        // At origin: 16/1 + 16/8 = 18.
        let i = ch.interference_at(&pos, Point::ORIGIN, &[1, 2]);
        assert!((i - 18.0).abs() < 1e-12);
    }

    #[test]
    fn sinr_helper_matches_resolve_decision() {
        let ch = SinrChannel::new(params());
        let pos = [Point::new(1.0, 0.0), Point::ORIGIN, Point::new(-4.0, 0.0)];
        let s = ch.sinr(&pos, 0, 1, &[2]);
        assert!((s - 16.0 / 1.25).abs() < 1e-12);
        assert!(s >= ch.params().beta());
    }

    #[test]
    fn sinr_infinite_with_no_noise_no_interference() {
        let p = SinrParams::builder()
            .power(16.0)
            .noise(0.0)
            .build()
            .unwrap();
        let ch = SinrChannel::new(p);
        let pos = [Point::ORIGIN, Point::new(1.0, 0.0)];
        assert_eq!(ch.sinr(&pos, 0, 1, &[]), f64::INFINITY);
    }

    #[test]
    fn reception_order_follows_listener_order() {
        let ch = SinrChannel::new(params());
        let pos = [Point::ORIGIN, Point::new(1.0, 0.0), Point::new(200.0, 0.0)];
        let rx = ch.resolve(&pos, &[0], &[2, 1], &mut rng());
        // Listener 2 is far: signal 16/200^3 << 2. Listener 1 decodes.
        assert_eq!(rx[0], Reception::Silence);
        assert_eq!(rx[1], Reception::Message { from: 0 });
    }

    #[test]
    fn channel_name_and_cd_flag() {
        let ch = SinrChannel::new(params());
        assert_eq!(ch.name(), "sinr");
        assert!(!ch.supports_collision_detection());
    }
}
