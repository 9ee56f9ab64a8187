//! A lossy SINR variant for robustness / failure-injection experiments.

use rand::rngs::SmallRng;
use rand::Rng;

use fading_geom::Point;

use crate::channel::{sealed, Channel};
use crate::{
    ChannelPerturbation, ChunkExecutor, EngineTier, NodeId, Reception, ResolveEngine,
    SerialExecutor, SinrBreakdown, SinrChannel, SinrParams,
};

/// A SINR channel in which every successfully decoded message is
/// additionally **dropped** with a fixed probability, independently per
/// listener per round.
///
/// This models unmodeled outage effects (deep fades, receiver-side losses)
/// beyond the geometric SINR rule, and supports the failure-injection
/// ablation of experiment E12: the paper's algorithm relies on receptions
/// only as knockout signals, so a loss rate `q < 1` merely rescales the
/// knockout rate by `1 − q` — resolution slows by a constant factor but
/// never breaks.
///
/// Drops are drawn from the channel RNG, so runs remain reproducible.
///
/// # Example
///
/// ```
/// use fading_channel::{Channel, LossySinrChannel, SinrParams};
/// use fading_geom::Point;
/// use rand::SeedableRng;
///
/// let ch = LossySinrChannel::new(SinrParams::default_single_hop(), 0.3)?;
/// assert_eq!(ch.drop_probability(), 0.3);
/// let pos = [Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(4);
/// let rx = ch.resolve(&pos, &[0], &[1], &mut rng);
/// assert_eq!(rx.len(), 1);
/// # Ok::<(), fading_channel::ChannelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LossySinrChannel {
    inner: SinrChannel,
    drop_prob: f64,
}

impl LossySinrChannel {
    /// Creates a lossy SINR channel with per-reception drop probability
    /// `drop_prob ∈ [0, 1)`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::ChannelError::InvalidParameter`] if `drop_prob` is
    /// outside `[0, 1)` or not finite.
    pub fn new(params: SinrParams, drop_prob: f64) -> Result<Self, crate::ChannelError> {
        if !(0.0..1.0).contains(&drop_prob) {
            return Err(crate::ChannelError::InvalidParameter {
                name: "drop_prob",
                reason: "must lie in [0, 1)",
                value: drop_prob,
            });
        }
        Ok(LossySinrChannel {
            inner: SinrChannel::new(params),
            drop_prob,
        })
    }

    /// The per-reception drop probability.
    #[must_use]
    pub fn drop_probability(&self) -> f64 {
        self.drop_prob
    }

    /// The underlying SINR parameters.
    #[must_use]
    pub fn params(&self) -> &SinrParams {
        self.inner.params()
    }
}

impl sealed::Sealed for LossySinrChannel {}

impl Channel for LossySinrChannel {
    fn resolve(
        &self,
        positions: &[Point],
        transmitters: &[NodeId],
        listeners: &[NodeId],
        rng: &mut SmallRng,
    ) -> Vec<Reception> {
        self.resolve_with(
            positions,
            transmitters,
            listeners,
            &mut ResolveEngine::Exact,
            &ChannelPerturbation::neutral(),
            &SerialExecutor,
            rng,
            None,
        )
    }

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
        // The inner SINR physics run on whatever tier the engine serves,
        // drawing nothing from the rng; the i.i.d. drop pass afterwards
        // runs serially in listener order, so every tier draws the same
        // stream. A dropped message keeps `decoded = true` in its
        // breakdown — the SINR test passed; the loss layer is a separate,
        // post-SINR effect (see `SinrBreakdown`).
        let mut receptions = self.inner.resolve_with(
            positions,
            transmitters,
            listeners,
            engine,
            perturbation,
            executor,
            rng,
            breakdown,
        );
        if self.drop_prob > 0.0 {
            for r in &mut receptions {
                if r.is_message() && rng.gen_bool(self.drop_prob) {
                    *r = Reception::Silence;
                }
            }
        }
        receptions
    }

    fn interferer_gain(&self, from: Point, to: Point, power: f64) -> f64 {
        self.inner.interferer_gain(from, to, power)
    }

    fn max_tier(&self) -> EngineTier {
        self.inner.max_tier()
    }

    fn sinr_params(&self) -> Option<&SinrParams> {
        self.inner.sinr_params()
    }

    fn name(&self) -> &'static str {
        "lossy-sinr"
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
    fn validates_drop_probability() {
        assert!(LossySinrChannel::new(params(), 0.0).is_ok());
        assert!(LossySinrChannel::new(params(), 0.999).is_ok());
        assert!(LossySinrChannel::new(params(), 1.0).is_err());
        assert!(LossySinrChannel::new(params(), -0.1).is_err());
        assert!(LossySinrChannel::new(params(), f64::NAN).is_err());
    }

    #[test]
    fn zero_loss_matches_plain_sinr() {
        let lossy = LossySinrChannel::new(params(), 0.0).unwrap();
        let plain = SinrChannel::new(params());
        let pos = [
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(5.0, 0.0),
        ];
        let a = lossy.resolve(&pos, &[0], &[1, 2], &mut SmallRng::seed_from_u64(7));
        let b = plain.resolve(&pos, &[0], &[1, 2], &mut SmallRng::seed_from_u64(7));
        assert_eq!(a, b);
    }

    #[test]
    fn drop_rate_is_approximately_q() {
        let lossy = LossySinrChannel::new(params(), 0.3).unwrap();
        let pos = [Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
        let mut rng = SmallRng::seed_from_u64(5);
        let trials = 5_000;
        let received = (0..trials)
            .filter(|_| lossy.resolve(&pos, &[0], &[1], &mut rng)[0].is_message())
            .count();
        let rate = received as f64 / f64::from(trials);
        assert!((rate - 0.7).abs() < 0.03, "observed decode rate {rate}");
    }

    #[test]
    fn losses_never_fabricate_messages() {
        // A link that can never decode stays silent under any loss setting.
        let lossy = LossySinrChannel::new(params(), 0.5).unwrap();
        let pos = [Point::new(0.0, 0.0), Point::new(50.0, 0.0)];
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..200 {
            assert_eq!(
                lossy.resolve(&pos, &[0], &[1], &mut rng),
                vec![Reception::Silence]
            );
        }
    }

    #[test]
    fn name_and_accessors() {
        let lossy = LossySinrChannel::new(params(), 0.25).unwrap();
        assert_eq!(lossy.name(), "lossy-sinr");
        assert_eq!(lossy.drop_probability(), 0.25);
        assert_eq!(lossy.params(), &params());
        assert!(!lossy.supports_collision_detection());
    }
}
