//! Composable, deterministic fault injection.
//!
//! A [`FaultPlan`] bundles every adversarial perturbation the simulator can
//! apply to a run:
//!
//! * **Jammers** ([`Jammer`]) — adversarial transmitters at fixed positions
//!   that are *not* nodes: they inject interference power into every
//!   listener's SINR denominator during scheduled burst rounds, but never
//!   count toward resolution. A jammer follows a periodic duty cycle and may
//!   carry a total energy *budget* (a cap on its lifetime active rounds),
//!   matching the bounded-adversary models of the jamming literature.
//! * **Noise bursts** ([`NoiseBurst`]) — intervals of rounds in which the
//!   ambient noise floor `N` is scaled by a factor; overlapping bursts
//!   multiply.
//! * **Churn** ([`ChurnEvent`]) — late wake-ups, crash-stop failures, and
//!   revivals of crashed nodes at scheduled rounds.
//! * **Burst loss** ([`GilbertElliott`]) — a channel-wide two-state Markov
//!   model that generalizes the i.i.d. drops of
//!   [`fading_channel::LossySinrChannel`]: the channel alternates between a
//!   *good* and a *bad* state with per-round transition probabilities, and
//!   each decoded message is dropped with the state's drop probability.
//!
//! Everything in a plan is a **pure function of the round number and the
//! run's master seed**: jammer and burst schedules are closed-form, churn is
//! an explicit event list, and the Gilbert–Elliott chain draws from a
//! dedicated [`fault_rng`](crate::fault_rng) lane. Attaching an *empty* plan
//! is therefore byte-identical to attaching no plan at all, and every
//! faulted run is reproducible across thread counts and gain-cache settings.
//!
//! # Example
//!
//! ```
//! use fading_geom::Point;
//! use fading_sim::faults::{ChurnEvent, FaultPlan, GilbertElliott, Jammer, NoiseBurst};
//!
//! let plan = FaultPlan::new()
//!     .with_jammer(Jammer::new(Point::new(5.0, 5.0), 1e9, 10, 8, 4, Some(40))?)
//!     .with_noise_burst(NoiseBurst::new(50, 20, 4.0)?)
//!     .with_churn(ChurnEvent::crash(30, 3)?)
//!     .with_churn(ChurnEvent::revive(60, 3)?)
//!     .with_loss(GilbertElliott::new(0.05, 0.25, 0.0, 0.8)?);
//! assert!(!plan.is_empty());
//! plan.validate_for(16)?;
//! # Ok::<(), fading_sim::faults::FaultError>(())
//! ```

use serde::{Deserialize, Serialize};

use fading_channel::NodeId;
use fading_geom::Point;
use rand::rngs::SmallRng;
use rand::Rng;

/// Why a fault-plan component or attachment was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultError {
    /// A probability parameter was outside `[0, 1]` or not finite.
    InvalidProbability {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
    /// A noise-scale factor was not finite and strictly positive.
    InvalidScale {
        /// Offending value.
        value: f64,
    },
    /// A jammer power was not finite and strictly positive.
    InvalidPower {
        /// Offending value.
        value: f64,
    },
    /// A jammer period was zero, or its burst length was zero or exceeded
    /// the period.
    InvalidDutyCycle {
        /// The period.
        period: u64,
        /// The burst length.
        burst_len: u64,
    },
    /// A schedule referenced round 0 (rounds are 1-based) or an empty
    /// burst.
    RoundZero,
    /// A churn event named a node id outside the deployment.
    NodeOutOfRange {
        /// The offending node id.
        node: NodeId,
        /// The deployment size.
        len: usize,
    },
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::InvalidProbability { name, value } => {
                write!(f, "probability `{name}` must lie in [0, 1], got {value}")
            }
            FaultError::InvalidScale { value } => {
                write!(f, "noise scale must be finite and > 0, got {value}")
            }
            FaultError::InvalidPower { value } => {
                write!(f, "jammer power must be finite and > 0, got {value}")
            }
            FaultError::InvalidDutyCycle { period, burst_len } => {
                write!(
                    f,
                    "duty cycle needs 1 ≤ burst_len ≤ period, got burst_len {burst_len} of period {period}"
                )
            }
            FaultError::RoundZero => {
                write!(f, "fault schedules are 1-based: round/length must be ≥ 1")
            }
            FaultError::NodeOutOfRange { node, len } => {
                write!(
                    f,
                    "churn names node {node} but the deployment has {len} nodes"
                )
            }
        }
    }
}

impl std::error::Error for FaultError {}

fn check_probability(name: &'static str, value: f64) -> Result<(), FaultError> {
    if value.is_finite() && (0.0..=1.0).contains(&value) {
        Ok(())
    } else {
        Err(FaultError::InvalidProbability { name, value })
    }
}

/// An adversarial jammer: a fixed-position interference source with a
/// periodic duty cycle and an optional lifetime energy budget.
///
/// During each of its active rounds the jammer adds
/// `channel.interferer_gain(position, node, power)` to every listener's
/// interference sum — for SINR-family channels that is the standard
/// path-loss gain `power / d^α`. A jammer is active in round `r` iff
///
/// 1. `r ≥ start`,
/// 2. `(r − start) mod period < burst_len`, and
/// 3. fewer than `budget` active rounds precede `r` (when a budget is set).
///
/// With `burst_len == period` the jammer is continuous from `start` until
/// its budget runs out.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Jammer {
    position: Point,
    power: f64,
    start: u64,
    period: u64,
    burst_len: u64,
    budget: Option<u64>,
}

impl Jammer {
    /// Creates a jammer at `position` transmitting with `power`, active
    /// from round `start` (1-based) for the first `burst_len` rounds of
    /// every `period`-round cycle, for at most `budget` total active rounds
    /// (`None` = unbounded).
    ///
    /// # Errors
    ///
    /// [`FaultError::InvalidPower`] unless `power` is finite and positive;
    /// [`FaultError::RoundZero`] if `start == 0`;
    /// [`FaultError::InvalidDutyCycle`] unless `1 ≤ burst_len ≤ period`.
    pub fn new(
        position: Point,
        power: f64,
        start: u64,
        period: u64,
        burst_len: u64,
        budget: Option<u64>,
    ) -> Result<Self, FaultError> {
        if !(power.is_finite() && power > 0.0) {
            return Err(FaultError::InvalidPower { value: power });
        }
        if start == 0 {
            return Err(FaultError::RoundZero);
        }
        if burst_len == 0 || burst_len > period {
            return Err(FaultError::InvalidDutyCycle { period, burst_len });
        }
        Ok(Jammer {
            position,
            power,
            start,
            period,
            burst_len,
            budget,
        })
    }

    /// A jammer that is active in **every** round from `start` on (no duty
    /// cycle, no budget).
    ///
    /// # Errors
    ///
    /// Same as [`Jammer::new`].
    pub fn continuous(position: Point, power: f64, start: u64) -> Result<Self, FaultError> {
        Jammer::new(position, power, start, 1, 1, None)
    }

    /// The jammer's fixed position.
    #[must_use]
    pub fn position(&self) -> Point {
        self.position
    }

    /// The jammer's transmission power.
    #[must_use]
    pub fn power(&self) -> f64 {
        self.power
    }

    /// Whether the jammer transmits in (1-based) round `round`.
    #[must_use]
    pub fn is_active(&self, round: u64) -> bool {
        if round < self.start {
            return false;
        }
        let t = round - self.start;
        let phase = t % self.period;
        if phase >= self.burst_len {
            return false;
        }
        match self.budget {
            None => true,
            // Active rounds spent before `round`: burst_len per completed
            // cycle plus the phase within the current burst.
            Some(b) => (t / self.period) * self.burst_len + phase < b,
        }
    }
}

/// A noise burst: rounds `start .. start + len` (1-based, half-open) scale
/// the channel's ambient noise `N` by `factor`. Overlapping bursts multiply.
///
/// Factors above 1 model environmental interference spikes; factors in
/// `(0, 1)` model unusually quiet intervals.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NoiseBurst {
    start: u64,
    len: u64,
    factor: f64,
}

impl NoiseBurst {
    /// Creates a burst covering rounds `start .. start + len`.
    ///
    /// # Errors
    ///
    /// [`FaultError::RoundZero`] if `start` or `len` is zero;
    /// [`FaultError::InvalidScale`] unless `factor` is finite and positive.
    pub fn new(start: u64, len: u64, factor: f64) -> Result<Self, FaultError> {
        if start == 0 || len == 0 {
            return Err(FaultError::RoundZero);
        }
        if !(factor.is_finite() && factor > 0.0) {
            return Err(FaultError::InvalidScale { value: factor });
        }
        Ok(NoiseBurst { start, len, factor })
    }

    /// Whether the burst covers (1-based) round `round`.
    #[must_use]
    pub fn covers(&self, round: u64) -> bool {
        round >= self.start && round - self.start < self.len
    }

    /// The noise multiplier.
    #[must_use]
    pub fn factor(&self) -> f64 {
        self.factor
    }
}

/// A channel-wide Gilbert–Elliott burst-loss model.
///
/// The channel holds one of two states, *good* or *bad*. Once per round the
/// state advances (good → bad with `p_enter`, bad → good with `p_exit`),
/// then every message decoded that round is independently dropped with the
/// state's drop probability. With `p_enter = p_exit` and equal drop
/// probabilities this degenerates to the i.i.d. loss of
/// [`fading_channel::LossySinrChannel`]; unequal transition probabilities
/// produce the *correlated* loss bursts real channels exhibit.
///
/// The chain starts in the good state and draws exclusively from the
/// simulator's dedicated fault RNG lane, so the channel's own random stream
/// (e.g. Rayleigh fades) is untouched.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GilbertElliott {
    p_enter: f64,
    p_exit: f64,
    drop_good: f64,
    drop_bad: f64,
}

impl GilbertElliott {
    /// Creates a burst-loss model. All four parameters are probabilities.
    ///
    /// # Errors
    ///
    /// [`FaultError::InvalidProbability`] if any parameter is outside
    /// `[0, 1]` or not finite.
    pub fn new(
        p_enter: f64,
        p_exit: f64,
        drop_good: f64,
        drop_bad: f64,
    ) -> Result<Self, FaultError> {
        check_probability("p_enter", p_enter)?;
        check_probability("p_exit", p_exit)?;
        check_probability("drop_good", drop_good)?;
        check_probability("drop_bad", drop_bad)?;
        Ok(GilbertElliott {
            p_enter,
            p_exit,
            drop_good,
            drop_bad,
        })
    }

    /// Advances the chain one round and returns the new state
    /// (`true` = bad/burst state).
    #[must_use]
    pub fn advance(&self, in_burst: bool, rng: &mut SmallRng) -> bool {
        if in_burst {
            !rng.gen_bool(self.p_exit)
        } else {
            rng.gen_bool(self.p_enter)
        }
    }

    /// The per-message drop probability in the given state.
    #[must_use]
    pub fn drop_prob(&self, in_burst: bool) -> f64 {
        if in_burst {
            self.drop_bad
        } else {
            self.drop_good
        }
    }
}

/// What a churn event does to its node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChurnKind {
    /// The node sleeps through every round before the event round: it
    /// neither transmits nor listens, and cannot win, until it wakes.
    LateWake,
    /// The node crash-stops at the start of the event round: it is forced
    /// inactive regardless of its protocol state.
    Crash,
    /// A previously crashed node re-joins at the start of the event round.
    /// Revival cannot resurrect a node whose **own protocol** has
    /// deactivated (a knocked-out node stays knocked out) — it only undoes
    /// a [`ChurnKind::Crash`].
    Revive,
}

/// One scheduled churn event: `kind` applied to `node` at the start of
/// (1-based) round `round`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChurnEvent {
    /// The 1-based round at whose start the event fires.
    pub round: u64,
    /// The affected node.
    pub node: NodeId,
    /// What happens.
    pub kind: ChurnKind,
}

impl ChurnEvent {
    fn new(round: u64, node: NodeId, kind: ChurnKind) -> Result<Self, FaultError> {
        if round == 0 {
            return Err(FaultError::RoundZero);
        }
        Ok(ChurnEvent { round, node, kind })
    }

    /// `node` stays asleep until round `round`.
    ///
    /// # Errors
    ///
    /// [`FaultError::RoundZero`] if `round == 0`.
    pub fn late_wake(round: u64, node: NodeId) -> Result<Self, FaultError> {
        ChurnEvent::new(round, node, ChurnKind::LateWake)
    }

    /// `node` crash-stops at the start of round `round`.
    ///
    /// # Errors
    ///
    /// [`FaultError::RoundZero`] if `round == 0`.
    pub fn crash(round: u64, node: NodeId) -> Result<Self, FaultError> {
        ChurnEvent::new(round, node, ChurnKind::Crash)
    }

    /// A crashed `node` re-joins at the start of round `round`.
    ///
    /// # Errors
    ///
    /// [`FaultError::RoundZero`] if `round == 0`.
    pub fn revive(round: u64, node: NodeId) -> Result<Self, FaultError> {
        ChurnEvent::new(round, node, ChurnKind::Revive)
    }
}

/// A complete, composable fault schedule for one run.
///
/// Build with the `with_*` methods (components validate at construction),
/// then hand to a simulation at construction through
/// [`SimConfig::fault_plan`](crate::SimConfig::fault_plan). An empty (default) plan perturbs nothing and leaves the
/// run byte-identical to an unfaulted one.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    jammers: Vec<Jammer>,
    noise_bursts: Vec<NoiseBurst>,
    churn: Vec<ChurnEvent>,
    loss: Option<GilbertElliott>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    #[must_use]
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a jammer.
    #[must_use]
    pub fn with_jammer(mut self, jammer: Jammer) -> Self {
        self.jammers.push(jammer);
        self
    }

    /// Adds a noise burst.
    #[must_use]
    pub fn with_noise_burst(mut self, burst: NoiseBurst) -> Self {
        self.noise_bursts.push(burst);
        self
    }

    /// Adds a churn event.
    #[must_use]
    pub fn with_churn(mut self, event: ChurnEvent) -> Self {
        self.churn.push(event);
        self
    }

    /// Sets the Gilbert–Elliott burst-loss model (replacing any previous).
    #[must_use]
    pub fn with_loss(mut self, loss: GilbertElliott) -> Self {
        self.loss = Some(loss);
        self
    }

    /// `true` if the plan injects nothing at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.jammers.is_empty()
            && self.noise_bursts.is_empty()
            && self.churn.is_empty()
            && self.loss.is_none()
    }

    /// The jammers.
    #[must_use]
    pub fn jammers(&self) -> &[Jammer] {
        &self.jammers
    }

    /// The noise bursts.
    #[must_use]
    pub fn noise_bursts(&self) -> &[NoiseBurst] {
        &self.noise_bursts
    }

    /// The churn events, in insertion order.
    #[must_use]
    pub fn churn(&self) -> &[ChurnEvent] {
        &self.churn
    }

    /// The burst-loss model, if any.
    #[must_use]
    pub fn loss(&self) -> Option<&GilbertElliott> {
        self.loss.as_ref()
    }

    /// The combined noise multiplier for (1-based) round `round`: the
    /// product of the factors of all covering bursts (1.0 when none).
    #[must_use]
    pub fn noise_scale(&self, round: u64) -> f64 {
        self.noise_bursts
            .iter()
            .filter(|b| b.covers(round))
            .map(NoiseBurst::factor)
            .product()
    }

    /// `true` if any jammer transmits in round `round`.
    #[must_use]
    pub fn any_jammer_active(&self, round: u64) -> bool {
        self.jammers.iter().any(|j| j.is_active(round))
    }

    /// Checks the plan against a deployment of `n` nodes.
    ///
    /// # Errors
    ///
    /// [`FaultError::NodeOutOfRange`] if a churn event names a node `≥ n`.
    pub fn validate_for(&self, n: usize) -> Result<(), FaultError> {
        for ev in &self.churn {
            if ev.node >= n {
                return Err(FaultError::NodeOutOfRange {
                    node: ev.node,
                    len: n,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn jammer_rejects_bad_power() {
        for power in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = Jammer::new(Point::ORIGIN, power, 1, 1, 1, None).unwrap_err();
            assert!(
                matches!(err, FaultError::InvalidPower { .. }),
                "{power}: {err}"
            );
        }
    }

    #[test]
    fn jammer_rejects_round_zero_start() {
        assert_eq!(
            Jammer::new(Point::ORIGIN, 1.0, 0, 1, 1, None).unwrap_err(),
            FaultError::RoundZero
        );
    }

    #[test]
    fn jammer_rejects_bad_duty_cycle() {
        // Zero-length burst.
        assert!(matches!(
            Jammer::new(Point::ORIGIN, 1.0, 1, 4, 0, None).unwrap_err(),
            FaultError::InvalidDutyCycle { .. }
        ));
        // Burst longer than the period.
        assert!(matches!(
            Jammer::new(Point::ORIGIN, 1.0, 1, 4, 5, None).unwrap_err(),
            FaultError::InvalidDutyCycle { .. }
        ));
        // Zero period (implies burst_len > period for any valid burst_len).
        assert!(matches!(
            Jammer::new(Point::ORIGIN, 1.0, 1, 0, 1, None).unwrap_err(),
            FaultError::InvalidDutyCycle { .. }
        ));
    }

    #[test]
    fn jammer_duty_cycle_schedule() {
        // Start round 10, 3-on / 2-off.
        let j = Jammer::new(Point::ORIGIN, 1.0, 10, 5, 3, None).unwrap();
        assert!(!j.is_active(9));
        for (round, expect) in [
            (10, true),
            (11, true),
            (12, true),
            (13, false),
            (14, false),
            (15, true),
            (17, true),
            (18, false),
        ] {
            assert_eq!(j.is_active(round), expect, "round {round}");
        }
    }

    #[test]
    fn jammer_budget_caps_active_rounds() {
        // 2-on / 2-off with budget 3: active rounds are 1, 2, 5 — never 6+.
        let j = Jammer::new(Point::ORIGIN, 1.0, 1, 4, 2, Some(3)).unwrap();
        let active: Vec<u64> = (1..=20).filter(|&r| j.is_active(r)).collect();
        assert_eq!(active, vec![1, 2, 5]);
    }

    #[test]
    fn continuous_jammer_never_pauses() {
        let j = Jammer::continuous(Point::ORIGIN, 2.0, 3).unwrap();
        assert!(!j.is_active(2));
        assert!((3..100).all(|r| j.is_active(r)));
        assert_eq!(j.power(), 2.0);
        assert_eq!(j.position(), Point::ORIGIN);
    }

    #[test]
    fn noise_burst_rejects_bad_parameters() {
        assert_eq!(
            NoiseBurst::new(0, 5, 2.0).unwrap_err(),
            FaultError::RoundZero
        );
        assert_eq!(
            NoiseBurst::new(5, 0, 2.0).unwrap_err(),
            FaultError::RoundZero
        );
        for factor in [0.0, -2.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                NoiseBurst::new(1, 1, factor).unwrap_err(),
                FaultError::InvalidScale { .. }
            ));
        }
    }

    #[test]
    fn noise_burst_coverage_is_half_open() {
        let b = NoiseBurst::new(10, 3, 2.0).unwrap();
        assert!(!b.covers(9));
        assert!(b.covers(10));
        assert!(b.covers(12));
        assert!(!b.covers(13));
    }

    #[test]
    fn overlapping_bursts_multiply() {
        let plan = FaultPlan::new()
            .with_noise_burst(NoiseBurst::new(5, 10, 2.0).unwrap())
            .with_noise_burst(NoiseBurst::new(10, 10, 3.0).unwrap());
        assert_eq!(plan.noise_scale(4), 1.0);
        assert_eq!(plan.noise_scale(7), 2.0);
        assert_eq!(plan.noise_scale(12), 6.0);
        assert_eq!(plan.noise_scale(16), 3.0);
        assert_eq!(plan.noise_scale(20), 1.0);
    }

    #[test]
    fn gilbert_elliott_rejects_bad_probabilities() {
        for bad in [-0.1, 1.1, f64::NAN] {
            assert!(matches!(
                GilbertElliott::new(bad, 0.5, 0.0, 1.0).unwrap_err(),
                FaultError::InvalidProbability {
                    name: "p_enter",
                    ..
                }
            ));
            assert!(matches!(
                GilbertElliott::new(0.5, bad, 0.0, 1.0).unwrap_err(),
                FaultError::InvalidProbability { name: "p_exit", .. }
            ));
            assert!(matches!(
                GilbertElliott::new(0.5, 0.5, bad, 1.0).unwrap_err(),
                FaultError::InvalidProbability {
                    name: "drop_good",
                    ..
                }
            ));
            assert!(matches!(
                GilbertElliott::new(0.5, 0.5, 0.0, bad).unwrap_err(),
                FaultError::InvalidProbability {
                    name: "drop_bad",
                    ..
                }
            ));
        }
    }

    #[test]
    fn gilbert_elliott_extremes_are_absorbing() {
        let ge = GilbertElliott::new(1.0, 0.0, 0.0, 1.0).unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        let mut state = false;
        for _ in 0..10 {
            state = ge.advance(state, &mut rng);
            assert!(state, "p_enter=1, p_exit=0 must absorb into the bad state");
        }
        assert_eq!(ge.drop_prob(false), 0.0);
        assert_eq!(ge.drop_prob(true), 1.0);
    }

    #[test]
    fn gilbert_elliott_burst_lengths_are_geometric() {
        // With p_exit = 0.25 the mean burst length is 4 rounds.
        let ge = GilbertElliott::new(0.1, 0.25, 0.0, 1.0).unwrap();
        let mut rng = SmallRng::seed_from_u64(11);
        let mut bursts = Vec::new();
        let mut state = false;
        let mut current = 0u64;
        for _ in 0..200_000 {
            state = ge.advance(state, &mut rng);
            if state {
                current += 1;
            } else if current > 0 {
                bursts.push(current);
                current = 0;
            }
        }
        let mean = bursts.iter().sum::<u64>() as f64 / bursts.len() as f64;
        assert!((mean - 4.0).abs() < 0.15, "mean burst length {mean}");
    }

    #[test]
    fn churn_events_reject_round_zero() {
        assert_eq!(
            ChurnEvent::late_wake(0, 1).unwrap_err(),
            FaultError::RoundZero
        );
        assert_eq!(ChurnEvent::crash(0, 1).unwrap_err(), FaultError::RoundZero);
        assert_eq!(ChurnEvent::revive(0, 1).unwrap_err(), FaultError::RoundZero);
    }

    #[test]
    fn validate_for_checks_node_range() {
        let plan = FaultPlan::new().with_churn(ChurnEvent::crash(5, 7).unwrap());
        assert!(plan.validate_for(8).is_ok());
        assert_eq!(
            plan.validate_for(7).unwrap_err(),
            FaultError::NodeOutOfRange { node: 7, len: 7 }
        );
    }

    #[test]
    fn empty_plan_is_empty_and_neutral() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        assert!(plan.validate_for(0).is_ok());
        assert_eq!(plan.noise_scale(1), 1.0);
        assert!(!plan.any_jammer_active(1));
        assert!(plan.loss().is_none());
    }

    #[test]
    fn plan_builder_accumulates_components() {
        let plan = FaultPlan::new()
            .with_jammer(Jammer::new(Point::new(1.0, 2.0), 5.0, 3, 4, 2, Some(10)).unwrap())
            .with_noise_burst(NoiseBurst::new(2, 3, 1.5).unwrap())
            .with_churn(ChurnEvent::late_wake(4, 0).unwrap())
            .with_churn(ChurnEvent::crash(6, 1).unwrap())
            .with_loss(GilbertElliott::new(0.1, 0.2, 0.0, 0.9).unwrap());
        assert!(!plan.is_empty());
        assert_eq!(plan.jammers().len(), 1);
        assert_eq!(plan.noise_bursts().len(), 1);
        assert_eq!(plan.churn().len(), 2);
        assert!(plan.loss().is_some());
        assert_eq!(plan.churn()[0].kind, ChurnKind::LateWake);
        assert_eq!(plan.clone(), plan);
    }

    #[test]
    fn error_messages_name_the_problem() {
        let msgs = [
            FaultError::InvalidProbability {
                name: "p_enter",
                value: 2.0,
            }
            .to_string(),
            FaultError::InvalidScale { value: -1.0 }.to_string(),
            FaultError::InvalidPower { value: 0.0 }.to_string(),
            FaultError::InvalidDutyCycle {
                period: 2,
                burst_len: 3,
            }
            .to_string(),
            FaultError::RoundZero.to_string(),
            FaultError::NodeOutOfRange { node: 9, len: 4 }.to_string(),
        ];
        for m in &msgs {
            assert!(!m.is_empty());
        }
        assert!(msgs[0].contains("p_enter"));
        assert!(msgs[5].contains('9'));
    }
}
