//! Per-listener SINR diagnostics emitted by instrumented resolve paths.
//!
//! A [`SinrBreakdown`] records the terms of Equation 1 — the strongest
//! received signal, the residual interference sum, the (scaled) ambient
//! noise, any jammer contribution — plus the resulting decode margin, for
//! one listener in one round. Instrumentation is an *observer*: the
//! decision it reports is computed from the exact same float expressions as
//! the uninstrumented resolve paths, so attaching it can never change a
//! run (see [`Channel::resolve_with`](crate::Channel::resolve_with)).

use crate::NodeId;

/// The SINR decision at one listener, decomposed into Equation 1's terms.
///
/// Produced by [`Channel::resolve_with`] for SINR-family channels
/// (geometry-free radio models report no breakdowns — they have no SINR).
///
/// Invariants, for breakdowns produced by this crate's channels:
///
/// * `denominator() == noise + extra + interference` is the exact value the
///   decode test divided by (with `noise` already multiplied by any
///   perturbation's noise scale).
/// * `decoded` is true iff `signal >= beta * denominator()`, i.e. iff
///   `margin >= 0.0`, **before** any post-SINR loss layer (the
///   [`LossySinrChannel`](crate::LossySinrChannel) drop pass and the
///   simulator's Gilbert–Elliott loss run *after* the SINR test and may
///   still turn a decoded message into silence).
///
/// [`Channel::resolve_with`]: crate::Channel::resolve_with
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SinrBreakdown {
    /// The listener this breakdown describes.
    pub listener: NodeId,
    /// The strongest transmitter at this listener, if any transmitted.
    pub best_tx: Option<NodeId>,
    /// Received power of the strongest transmitter (the SINR numerator);
    /// 0.0 when nobody transmitted.
    pub signal: f64,
    /// Interference from all *other* transmitters (`total - signal`).
    pub interference: f64,
    /// Ambient noise as used in the decode test (already scaled by the
    /// round's perturbation, if any).
    pub noise: f64,
    /// Extra jammer interference landed on this listener this round.
    pub extra: f64,
    /// `signal - beta * denominator()`: non-negative iff the listener
    /// decoded. The slack (or deficit) of Equation 1 in power units.
    pub margin: f64,
    /// Whether the SINR test passed (pre-loss-layer; see type docs).
    pub decoded: bool,
}

impl SinrBreakdown {
    /// The full SINR denominator: `noise + extra + interference`.
    #[must_use]
    pub fn denominator(&self) -> f64 {
        self.noise + self.extra + self.interference
    }

    /// The realized SINR value `signal / denominator()`
    /// (`f64::INFINITY` when the denominator is zero and signal positive,
    /// `0.0` when nobody transmitted).
    #[must_use]
    pub fn sinr(&self) -> f64 {
        let d = self.denominator();
        if d == 0.0 {
            if self.signal > 0.0 {
                f64::INFINITY
            } else {
                0.0
            }
        } else {
            self.signal / d
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SinrBreakdown {
        SinrBreakdown {
            listener: 3,
            best_tx: Some(1),
            signal: 16.0,
            interference: 2.0,
            noise: 1.0,
            extra: 1.0,
            margin: 16.0 - 2.0 * 4.0,
            decoded: true,
        }
    }

    #[test]
    fn denominator_sums_terms() {
        assert_eq!(sample().denominator(), 4.0);
    }

    #[test]
    fn sinr_is_signal_over_denominator() {
        assert_eq!(sample().sinr(), 4.0);
    }

    #[test]
    fn sinr_handles_zero_denominator() {
        let mut b = sample();
        b.noise = 0.0;
        b.extra = 0.0;
        b.interference = 0.0;
        assert_eq!(b.sinr(), f64::INFINITY);
        b.signal = 0.0;
        assert_eq!(b.sinr(), 0.0);
    }
}
