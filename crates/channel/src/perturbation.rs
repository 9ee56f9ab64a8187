//! Per-round channel perturbations injected by a fault plan.
//!
//! A [`ChannelPerturbation`] describes how one round's physics deviate from
//! the clean model: a multiplicative scale on the ambient noise `N`
//! (wideband interference, weather) and an extra per-node interference term
//! (adversarial jammers at fixed positions). It is the channel-layer half of
//! the fault-injection subsystem — the schedule deciding *when* and *how
//! strongly* faults fire lives in `fading-sim`'s `faults` module; the
//! channel only applies the already-evaluated per-round values.
//!
//! Determinism contract: a [neutral](ChannelPerturbation::is_neutral)
//! perturbation must be indistinguishable from no perturbation at all —
//! [`Channel::resolve_with`](crate::Channel::resolve_with) resolves it with
//! the clean expressions, consuming the rng identically, so fault-capable
//! simulations with an empty plan are byte-identical to plain ones.

use crate::NodeId;

/// One round's deviation from the clean channel model: a noise scale and a
/// per-node extra interference vector (both deterministic for the round —
/// evaluated by the fault plan before the channel resolves).
///
/// # Example
///
/// ```
/// use fading_channel::ChannelPerturbation;
///
/// let neutral = ChannelPerturbation::neutral();
/// assert!(neutral.is_neutral());
/// assert_eq!(neutral.extra_at(3), 0.0);
///
/// let jam = [0.0, 2.5, 0.0];
/// let p = ChannelPerturbation::new(4.0, &jam);
/// assert!(!p.is_neutral());
/// assert_eq!(p.noise_scale(), 4.0);
/// assert_eq!(p.extra_at(1), 2.5);
/// assert_eq!(p.extra_at(7), 0.0); // out of range ⇒ no extra interference
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelPerturbation<'a> {
    noise_scale: f64,
    /// Extra interference power at each node, indexed by [`NodeId`]. Empty
    /// means "no jamming anywhere" (the common case, kept allocation-free).
    extra_interference: &'a [f64],
}

impl<'a> ChannelPerturbation<'a> {
    /// A perturbation with the given noise scale and per-node extra
    /// interference (`extra_interference[v]` is added to the SINR
    /// denominator at listener `v`; an empty slice means none anywhere).
    ///
    /// Values are expected to be pre-validated by the fault plan
    /// (`noise_scale` finite and positive, interference finite and
    /// non-negative); the channel applies them as-is.
    #[must_use]
    pub fn new(noise_scale: f64, extra_interference: &'a [f64]) -> Self {
        ChannelPerturbation {
            noise_scale,
            extra_interference,
        }
    }

    /// The perturbation that changes nothing.
    #[must_use]
    pub fn neutral() -> ChannelPerturbation<'static> {
        ChannelPerturbation {
            noise_scale: 1.0,
            extra_interference: &[],
        }
    }

    /// Multiplier on the ambient noise `N` this round (1.0 = unchanged).
    #[must_use]
    pub fn noise_scale(&self) -> f64 {
        self.noise_scale
    }

    /// Extra interference power at node `v` (0.0 when out of range or no
    /// jamming is active).
    #[inline]
    #[must_use]
    pub fn extra_at(&self, v: NodeId) -> f64 {
        self.extra_interference.get(v).copied().unwrap_or(0.0)
    }

    /// Whether any node sees extra (jammer) interference this round.
    #[must_use]
    pub fn has_jamming(&self) -> bool {
        !self.extra_interference.is_empty()
    }

    /// `true` iff applying this perturbation is guaranteed to change
    /// nothing (unit noise scale, no jamming).
    #[must_use]
    pub fn is_neutral(&self) -> bool {
        self.noise_scale == 1.0 && self.extra_interference.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neutral_is_neutral() {
        let n = ChannelPerturbation::neutral();
        assert!(n.is_neutral());
        assert!(!n.has_jamming());
        assert_eq!(n.noise_scale(), 1.0);
        assert_eq!(n.extra_at(0), 0.0);
    }

    #[test]
    fn noise_scale_alone_breaks_neutrality() {
        let p = ChannelPerturbation::new(2.0, &[]);
        assert!(!p.is_neutral());
        assert!(!p.has_jamming());
    }

    #[test]
    fn jamming_alone_breaks_neutrality() {
        let jam = [0.0, 1.0];
        let p = ChannelPerturbation::new(1.0, &jam);
        assert!(!p.is_neutral());
        assert!(p.has_jamming());
        assert_eq!(p.extra_at(0), 0.0);
        assert_eq!(p.extra_at(1), 1.0);
    }

    #[test]
    fn out_of_range_extra_is_zero() {
        let jam = [3.0];
        let p = ChannelPerturbation::new(1.0, &jam);
        assert_eq!(p.extra_at(100), 0.0);
    }
}
