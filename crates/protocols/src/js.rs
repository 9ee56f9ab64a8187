//! A Jurdziński–Stachowiak-style `O(log² n / log log n)` baseline.

use rand::rngs::SmallRng;
use rand::Rng;

use fading_sim::{Action, Protocol, ProtocolStateError, Reception};

/// A faithful-in-spirit implementation of the schedule of Jurdziński &
/// Stachowiak (PODC 2015) — the best previous bound for contention
/// resolution on a fading channel, `O(log² n / log log n)` rounds, requiring
/// an advance **polynomial upper bound `N ≥ n`** on the network size.
///
/// Their key idea: instead of Decay's factor-2 probability ladder of depth
/// `log₂ N`, descend a factor-`log N` ladder of depth only
/// `log N / log log N`, and linger `Θ(log N)` rounds per rung so the rung
/// nearest the ideal density still succeeds; a dampening mechanism exploits
/// the fading channel's spatial reuse to keep intermediate rungs from
/// overshooting. Our baseline reproduces exactly these structural
/// properties — the `(log N / log log N) × Θ(log N)` sweep schedule with a
/// base-`log N` ladder and deactivate-on-reception dampening — which are
/// what determine its round-complexity *shape*; we do not claim
/// constant-factor fidelity to the original's internals (see DESIGN.md,
/// "Substitutions").
///
/// Properties matched to the original: `O(log²N / log log N)` rounds,
/// requires `N`, insensitive to `R` (no dependence on link-length geometry
/// in the schedule).
///
/// # Example
///
/// ```
/// use fading_protocols::JurdzinskiStachowiak;
/// use fading_sim::Protocol;
///
/// let js = JurdzinskiStachowiak::new(10_000);
/// assert_eq!(js.name(), "js15");
/// assert!(js.rounds_per_rung() >= 1);
/// ```
#[derive(Debug, Clone)]
pub struct JurdzinskiStachowiak {
    /// Probability ladder: rung `j` has probability `0.5 · base^{-j}`.
    base: f64,
    rungs: u32,
    rounds_per_rung: u32,
    /// Position within the sweep: (rung, round-within-rung).
    rung: u32,
    tick: u32,
    active: bool,
}

impl JurdzinskiStachowiak {
    /// Creates the protocol for a known polynomial size bound `N ≥ 4`.
    ///
    /// # Panics
    ///
    /// Panics if `n_bound < 4` (the schedule needs `log log N ≥ 1`).
    #[must_use]
    pub fn new(n_bound: usize) -> Self {
        assert!(n_bound >= 4, "size bound must be at least 4");
        let log_n = (n_bound as f64).log2().max(2.0);
        let log_log_n = log_n.log2().max(1.0);
        // Ladder base log N, depth ceil(log N / log log N) + 1, so the
        // deepest rung is below 1/N; linger Θ(log N) rounds per rung.
        let base = log_n;
        let rungs = (log_n / log_log_n).ceil() as u32 + 1;
        let rounds_per_rung = log_n.ceil() as u32;
        JurdzinskiStachowiak {
            base,
            rungs,
            rounds_per_rung,
            rung: 0,
            tick: 0,
            active: true,
        }
    }

    /// Rounds spent on each rung of the ladder (`Θ(log N)`).
    #[must_use]
    pub fn rounds_per_rung(&self) -> u32 {
        self.rounds_per_rung
    }

    /// Number of rungs per sweep (`⌈log N / log log N⌉ + 1`).
    #[must_use]
    pub fn rungs(&self) -> u32 {
        self.rungs
    }

    /// Total rounds in one full sweep.
    #[must_use]
    pub fn sweep_len(&self) -> u64 {
        u64::from(self.rungs) * u64::from(self.rounds_per_rung)
    }

    /// The probability the next `act` call will use.
    #[must_use]
    pub fn current_probability(&self) -> f64 {
        0.5 * self.base.powi(-(self.rung as i32))
    }

    fn advance(&mut self) {
        self.tick += 1;
        if self.tick >= self.rounds_per_rung {
            self.tick = 0;
            self.rung = (self.rung + 1) % self.rungs;
        }
    }
}

impl Protocol for JurdzinskiStachowiak {
    fn act(&mut self, _round: u64, rng: &mut SmallRng) -> Action {
        let p = self.current_probability();
        self.advance();
        if rng.gen_bool(p.clamp(0.0, 1.0)) {
            Action::Transmit
        } else {
            Action::Listen
        }
    }

    fn feedback(&mut self, _round: u64, reception: &Reception) {
        // Dampening: a node that hears a neighbor's broadcast leaves the
        // race, thinning local density exactly as the fading channel allows.
        if reception.is_message() {
            self.active = false;
        }
    }

    fn is_active(&self) -> bool {
        self.active
    }

    fn save_state(&self) -> Vec<u64> {
        vec![
            u64::from(self.rung),
            u64::from(self.tick),
            u64::from(self.active),
        ]
    }

    fn load_state(&mut self, state: &[u64]) -> Result<(), ProtocolStateError> {
        let err = || ProtocolStateError {
            protocol: "js15",
            expected: 3,
            got: state.len(),
        };
        match state {
            [rung, tick, active] => {
                self.rung = u32::try_from(*rung).map_err(|_| err())?;
                self.tick = u32::try_from(*tick).map_err(|_| err())?;
                self.active = *active != 0;
                Ok(())
            }
            _ => Err(err()),
        }
    }

    fn name(&self) -> &'static str {
        "js15"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn schedule_dimensions() {
        let js = JurdzinskiStachowiak::new(1 << 16); // log N = 16, loglog = 4
        assert_eq!(js.rounds_per_rung(), 16);
        assert_eq!(js.rungs(), 5); // ceil(16/4) + 1
        assert_eq!(js.sweep_len(), 80);
    }

    #[test]
    fn ladder_descends_by_factor_log_n() {
        let mut js = JurdzinskiStachowiak::new(1 << 16);
        let mut rng = SmallRng::seed_from_u64(0);
        let p0 = js.current_probability();
        for r in 0..16 {
            let _ = js.act(r, &mut rng);
        }
        let p1 = js.current_probability();
        assert!((p0 / p1 - 16.0).abs() < 1e-9, "ratio {}", p0 / p1);
    }

    #[test]
    fn sweep_wraps_around() {
        let mut js = JurdzinskiStachowiak::new(16); // log N = 4
        let sweep = js.sweep_len();
        let mut rng = SmallRng::seed_from_u64(0);
        let p_start = js.current_probability();
        for r in 0..sweep {
            let _ = js.act(r, &mut rng);
        }
        assert_eq!(js.current_probability(), p_start);
    }

    #[test]
    fn deepest_rung_is_below_one_over_n() {
        for &n in &[16usize, 256, 4096, 1 << 20] {
            let js = JurdzinskiStachowiak::new(n);
            let log_n = (n as f64).log2();
            let deepest = 0.5 * js.base.powi(-(js.rungs as i32 - 1));
            assert!(
                deepest <= 1.0 / n as f64 * log_n,
                "n={n}: deepest rung {deepest} too shallow"
            );
        }
    }

    #[test]
    fn message_dampens() {
        let mut js = JurdzinskiStachowiak::new(64);
        js.feedback(1, &Reception::Message { from: 0 });
        assert!(!js.is_active());
    }

    #[test]
    #[should_panic(expected = "at least 4")]
    fn rejects_tiny_bound() {
        let _ = JurdzinskiStachowiak::new(3);
    }
}
