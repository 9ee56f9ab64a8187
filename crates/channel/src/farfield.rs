//! The far-field decision ladder: how a tiled engine turns an exact near
//! scan plus a certified far-field bracket into a reception, with a
//! **decision-exactness** contract.
//!
//! # The idea
//!
//! Exact SINR resolve walks every transmitter per listener — O(|T|·|L|)
//! work per round. But the SINR *decision* rarely needs the exact far
//! interference: the paper's own analysis (Lemmas 3–4) bounds the
//! contribution of each exponential annulus `A^i_t(u)` by its population
//! times the extremal gain over the annulus. The tile-tree engine
//! ([`HierarchicalFarFieldEngine`](crate::HierarchicalFarFieldEngine))
//! turns that argument into a certificate: per listener it
//!
//! 1. scans the **near field** with the per-pair gain expression;
//! 2. aggregates the **far field** as `mass × gain` bounds, giving
//!    `I_lo ≤ I_far ≤ I_hi` and a cap on any single far signal;
//! 3. hands both to the ladder here, which decides the reception when
//!    `best_sig` clears (or misses) `β·(noise + I)` for *both* endpoints —
//!    after widening the bracket by [`FARFIELD_REL_SLACK`] to absorb
//!    floating-point reordering — and otherwise asks for the **exact
//!    fallback**, the canonical scan [`SinrChannel`](crate::SinrChannel)
//!    itself runs.
//!
//! For α ∈ {2, 3, 4, 6} every gain above is the canonical expression. For
//! any other α the engine computes them with the crate's bounded
//! generic-α kernel (gains within `2δ`, δ = 2⁻⁴⁰, of the canonical ones)
//! and widens each certificate by that error; an exact fallback then runs
//! a bounded slice-order scan first and the canonical `powf` scan only if
//! that scan's bracket cannot settle the listener ([`finish_fallback`]).
//! DESIGN.md §10.2 has the argument, including why the widened ladder
//! still names the canonical winner.
//!
//! # The decision-exactness contract
//!
//! The tiled tier is *not* an approximation: its `Reception` vectors are
//! **bit-identical** to `resolve` on all inputs. The pruned path only
//! ever skips work whose outcome is already certain:
//!
//! * **Certain silence** — the exact denominator is at least the (possibly
//!   jammed, noise-scaled) floor `N`, so if neither the near-field best nor
//!   the far-field cap can reach `β·N`, no transmitter decodes.
//! * **Winner identification** — the canonical winner is the *first*
//!   transmitter (in slice order) attaining the maximal signal. Far
//!   signals are capped by the far cap; only when the near best
//!   *strictly* beats that cap is the winner certainly near, in which
//!   case the near scan (same expression, first-index tie-break) has
//!   already identified it exactly — or, under the bounded kernel, a
//!   certified `Message` over a floor ≥ 0 proves its sender strictly
//!   strongest (β ≥ 1).
//! * **Bracketed decision** — the exact interference the canonical fold
//!   produces differs from `near + far` only by summation order and the
//!   bounded kernel's error, i.e. by a relative error ≪
//!   [`FARFIELD_REL_SLACK`] (`FARFIELD_SLACK_BUDGET` sums it); the widened
//!   `[I_lo, I_hi]` bracket therefore contains it, and a decision that is
//!   invariant across the bracket is the exact decision. A round whose
//!   transmitter count breaks that budget ([`slack_certifies`]) is not
//!   certified at all: it takes the exact scan.
//!
//! Every uncertain case — non-finite intermediate (including a NaN from
//! the bounded kernel), no near winner, a far node that could rival the
//! near best, a bracket that straddles the threshold — takes the exact
//! fallback. The round-level table of the workspace's differential
//! oracle (`tests/differential.rs`) enforces the contract on every round
//! it draws, checks that every tree bracket and the ladder's far
//! aggregate contain the exact interference, and holds each knife-edge
//! case to the fallback rung it must reach.
//!
//! Stochastic channels are excluded by design: Rayleigh fading draws one
//! rng variate per (listener, transmitter) pair in canonical order, so any
//! pruning would desynchronize the rng stream. `RayleighSinrChannel`
//! therefore stops at the gain-cache tier ([`Channel::max_tier`]).
//!
//! [`Channel::max_tier`]: crate::Channel::max_tier

use crate::kernels::{AlphaKernel, BOUNDED_POW_REL_ERR};
use crate::sinr::ScanOutcome;
use crate::{NodeId, Reception};

/// Relative slack by which the far-field bracket is widened before the
/// decision test.
///
/// It must absorb every source of discrepancy between the bracket and the
/// value the canonical fold computes: summation reorder, the bounded
/// generic-α kernel's error, and the rounding of the distance bounds. The
/// crate's `FARFIELD_SLACK_BUDGET` constant sums them (≈ 6.2e-11 at
/// k = 2¹⁸ transmitters) and a unit test keeps that sum below a tenth of
/// this slack. Extra slack only costs a sliver of fallbacks near the
/// decision boundary.
pub const FARFIELD_REL_SLACK: f64 = 1e-9;

/// Transmitter count the slack budget is sized for: the largest round
/// any committed workload resolves on a tiled tier (the n = 2²⁰ probe at
/// 25% contention, k = 2¹⁸). Past it the reorder term still fits the
/// slack itself up to k ≈ 4.5·10⁶, only without the tenfold margin;
/// beyond that [`slack_certifies`] refuses the round.
pub(crate) const SLACK_BUDGET_TRANSMITTERS: usize = 1 << 18;

/// Relative rounding allowance for the certified distance bounds: the
/// few-ulp error of the tile and tree-node distance brackets, raised to
/// `α/2`, plus the (unspecified, but ulp-sized) non-monotonicity of
/// `powf` for non-integer `α`.
pub(crate) const BOUND_ROUNDING_REL_ERR: f64 = 1.0 / (1u64 << 44) as f64;

/// Everything [`FARFIELD_REL_SLACK`] must cover in a round with `k`
/// transmitters, as a relative error of the bracketed sum:
///
/// * **reorder** — the bracket and the canonical slice-order fold add the
///   same gains in different orders; each fold errs by at most
///   `(k − 1)·2⁻⁵³` of the sum, so they differ by `k·2⁻⁵²` at most;
/// * **bounded kernel** — near gains and `best_sig` computed by the
///   bounded generic-α kernel are each within `2δ` of the canonical gain
///   (`δ` = `BOUNDED_POW_REL_ERR` = 2⁻⁴⁰), once for the near sum and
///   once for the best signal;
/// * **bound rounding** — [`BOUND_ROUNDING_REL_ERR`].
pub(crate) const fn slack_budget(k: usize) -> f64 {
    k as f64 * f64::EPSILON + 2.0 * (2.0 * BOUNDED_POW_REL_ERR) + BOUND_ROUNDING_REL_ERR
}

/// The slack budget at [`SLACK_BUDGET_TRANSMITTERS`] (≈ 6.2e-11, of which
/// the reorder term is ≈ 5.8e-11).
pub(crate) const FARFIELD_SLACK_BUDGET: f64 = slack_budget(SLACK_BUDGET_TRANSMITTERS);

// The budget must leave the slack a tenfold margin; checked at compile
// time (and by `tests::slack_budget_leaves_a_tenfold_margin`).
const _: () = assert!(FARFIELD_SLACK_BUDGET <= FARFIELD_REL_SLACK / 10.0);

/// Whether a round with `k` transmitters may be certified at all: its
/// slack budget must fit [`FARFIELD_REL_SLACK`]. It does up to
/// k ≈ 4.5·10⁶; a larger round takes the exact scan instead of the tiled
/// engine (`SinrChannel::resolve_with` checks this before dispatching).
#[must_use]
pub(crate) fn slack_certifies(k: usize) -> bool {
    slack_budget(k) <= FARFIELD_REL_SLACK
}

/// Decision counters accumulated by the tile-tree engine across rounds,
/// one named counter per rung of the decision ladder (module docs,
/// "decision-exactness contract") plus the trivial transmitter-free case.
///
/// Every listener decision lands in **exactly one** bucket, so the sum of
/// all seven counters ([`FarFieldStats::listeners_resolved`]) equals the
/// total number of listener resolutions performed — the reconciliation
/// invariant the equivalence suite asserts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FarFieldStats {
    /// Rounds resolved through the engine.
    pub rounds: u64,
    /// Listeners of transmitter-free rounds: decided (Silence) without
    /// entering the ladder, since the canonical fold has no candidate.
    pub empty_round_silences: u64,
    /// Rung 1: a non-finite intermediate (overflow, coincident nodes,
    /// touching tile boxes) voided the bracket reasoning → exact fallback.
    pub nonfinite_fallbacks: u64,
    /// Rung 2: certain silence — neither the near best nor the far cap
    /// could reach the (possibly jammed, noise-scaled) floor `β·N`.
    pub noise_floor_silences: u64,
    /// Rung 3: no near candidate, yet rung 2 could not rule out a far
    /// decode → exact fallback (only the exact scan can name the winner).
    pub no_near_winner_fallbacks: u64,
    /// Rung 4: some far tile's gain cap rivals the near best, so the
    /// canonical winner might be a far transmitter → exact fallback.
    pub far_rival_fallbacks: u64,
    /// Rung 5: the slack-widened interference bracket settled the decision
    /// (both endpoints agree).
    pub bracket_decisions: u64,
    /// Rung 5: the bracket straddled the `β` threshold → exact fallback.
    pub bracket_straddle_fallbacks: u64,
    /// Exact fallbacks (any rung) that the bounded-kernel first pass could
    /// not settle, so the canonical `powf` scan ran for them. A sub-count
    /// of [`exact_fallbacks`](FarFieldStats::exact_fallbacks), not a rung:
    /// it never enters [`listeners_resolved`](FarFieldStats::listeners_resolved).
    /// Always 0 for α ∈ {2, 3, 4, 6}, whose first pass is canonical.
    pub canonical_rescans: u64,
}

impl FarFieldStats {
    /// Adds every counter of `other` into `self` (the counters are u64
    /// sums, so merge order never matters).
    pub fn add(&mut self, other: &FarFieldStats) {
        self.rounds += other.rounds;
        self.empty_round_silences += other.empty_round_silences;
        self.nonfinite_fallbacks += other.nonfinite_fallbacks;
        self.noise_floor_silences += other.noise_floor_silences;
        self.no_near_winner_fallbacks += other.no_near_winner_fallbacks;
        self.far_rival_fallbacks += other.far_rival_fallbacks;
        self.bracket_decisions += other.bracket_decisions;
        self.bracket_straddle_fallbacks += other.bracket_straddle_fallbacks;
        self.canonical_rescans += other.canonical_rescans;
    }

    /// Listener decisions settled by the near scan + far bracket alone
    /// (including listeners of transmitter-free rounds).
    #[must_use]
    pub fn fast_decisions(&self) -> u64 {
        self.empty_round_silences + self.bracket_decisions
    }

    /// Listener decisions that required the exact canonical scan — the sum
    /// of every fallback rung.
    #[must_use]
    pub fn exact_fallbacks(&self) -> u64 {
        self.nonfinite_fallbacks
            + self.no_near_winner_fallbacks
            + self.far_rival_fallbacks
            + self.bracket_straddle_fallbacks
    }

    /// Total listener resolutions performed: the sum of every bucket.
    /// Equals `fast_decisions() + noise_floor_silences + exact_fallbacks()`
    /// by construction.
    #[must_use]
    pub fn listeners_resolved(&self) -> u64 {
        self.empty_round_silences
            + self.nonfinite_fallbacks
            + self.noise_floor_silences
            + self.no_near_winner_fallbacks
            + self.far_rival_fallbacks
            + self.bracket_decisions
            + self.bracket_straddle_fallbacks
    }

    /// Fraction of listener decisions that fell back to the exact scan
    /// (0.0 when no listener has been resolved yet).
    #[must_use]
    pub fn fallback_fraction(&self) -> f64 {
        let total = self.listeners_resolved();
        if total == 0 {
            0.0
        } else {
            self.exact_fallbacks() as f64 / total as f64
        }
    }
}

/// Everything [`decide_ladder`] needs about one listener, bundled to keep
/// the ladder's signature readable.
pub(crate) struct DecisionInputs {
    pub(crate) near_sum: f64,
    pub(crate) best_sig: f64,
    pub(crate) best_tx: Option<NodeId>,
    pub(crate) far_lo: f64,
    pub(crate) far_hi: f64,
    pub(crate) far_cap: f64,
    pub(crate) noise: f64,
    pub(crate) extra: Option<f64>,
    pub(crate) beta: f64,
    /// Relative error of each near gain against the canonical one (the
    /// scanning kernel's [`GAIN_REL_ERR`](AlphaKernel::GAIN_REL_ERR); 0
    /// when the near scan is canonical).
    pub(crate) gain_rel_err: f64,
}

/// What the decision ladder concluded for one listener.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Decision {
    /// A rung settled the reception from the near scan and far bracket.
    Decided(Reception),
    /// No rung was conclusive: the caller must run the exact fallback
    /// ([`finish_fallback`]).
    Exact,
}

/// The rung of the ladder a listener stopped on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rung {
    NonFinite,
    NoiseFloor,
    NoNearWinner,
    FarRival,
    Bracket(Reception),
    Straddle,
}

/// The decision ladder (module docs, "decision-exactness contract"). The
/// correctness argument only depends on the *bracket* inputs, not on how
/// they were aggregated. `stats` receives exactly one rung increment; a
/// [`Decision::Exact`] leaves the fallback scan to the caller, so the
/// engine may batch its fallbacks.
pub(crate) fn decide_ladder(stats: &mut FarFieldStats, inp: DecisionInputs) -> Decision {
    let (counter, decision) = match ladder(inp) {
        Rung::NonFinite => (&mut stats.nonfinite_fallbacks, Decision::Exact),
        Rung::NoiseFloor => (
            &mut stats.noise_floor_silences,
            Decision::Decided(Reception::Silence),
        ),
        Rung::NoNearWinner => (&mut stats.no_near_winner_fallbacks, Decision::Exact),
        Rung::FarRival => (&mut stats.far_rival_fallbacks, Decision::Exact),
        Rung::Bracket(reception) => (&mut stats.bracket_decisions, Decision::Decided(reception)),
        Rung::Straddle => (&mut stats.bracket_straddle_fallbacks, Decision::Exact),
    };
    *counter += 1;
    decision
}

/// The ladder's rungs in order. `best_sig` is widened to
/// `[b_lo, b_hi]` by `gain_rel_err`, so every rung that compares it
/// holds for the canonical best signal too; with `gain_rel_err = 0` the
/// widening is a multiplication by 1.0 and the rungs are the unwidened
/// ones.
fn ladder(inp: DecisionInputs) -> Rung {
    let DecisionInputs {
        near_sum,
        best_sig,
        best_tx,
        far_lo,
        far_hi,
        far_cap,
        noise,
        extra,
        beta,
        gain_rel_err,
    } = inp;
    // Rung 1: any non-finite intermediate (overflow, coincident nodes,
    // touching tile boxes, a NaN from the bounded kernel) voids the
    // bracket reasoning entirely.
    if !(near_sum.is_finite() && far_hi.is_finite() && far_cap.is_finite()) {
        return Rung::NonFinite;
    }
    let b_lo = best_sig * (1.0 - gain_rel_err);
    let b_hi = best_sig * (1.0 + gain_rel_err);
    let base = match extra {
        Some(e) => noise + e,
        None => noise,
    };
    // Rung 2: certain silence — the exact denominator is ≥ base, and
    // the exact best signal is ≤ max(near best, far cap).
    if b_hi.max(far_cap) < beta * base {
        return Rung::NoiseFloor;
    }
    // Rung 3: no near candidate, yet rung 2 could not rule out a far
    // decode — only the exact scan can name the winner.
    let Some(from) = best_tx else {
        return Rung::NoNearWinner;
    };
    // Rung 4: the near best must strictly dominate every possible far
    // signal, or the canonical winner might be a far transmitter.
    if far_cap >= b_lo {
        return Rung::FarRival;
    }
    // Rung 5: bracket the canonical interference and require the
    // decision to be invariant across it. A certified Message also
    // certifies the winner: with β ≥ 1 and a floor `base` ≥ 0, `from`
    // then out-signals every other transmitter strictly (DESIGN.md
    // §10.2). A near scan with gain error names its sender through that
    // lemma alone, so it certifies no Message over a negative (or NaN)
    // floor, which only a caller's negative perturbation can produce.
    let interference_near = near_sum - best_sig;
    let slack = FARFIELD_REL_SLACK * (near_sum + far_hi + best_sig);
    let i_lo = ((interference_near + far_lo) - slack).max(0.0);
    let i_hi = (interference_near + far_hi) + slack;
    let (denom_lo, denom_hi) = match extra {
        Some(e) => (noise + e + i_lo, noise + e + i_hi),
        None => (noise + i_lo, noise + i_hi),
    };
    let winner_certified = gain_rel_err == 0.0 || base >= 0.0;
    if b_lo >= beta * denom_hi && winner_certified {
        Rung::Bracket(Reception::Message { from })
    } else if b_hi < beta * denom_lo {
        Rung::Bracket(Reception::Silence)
    } else {
        Rung::Straddle
    }
}

/// Settles an exact fallback from its first-pass scan `first`, a
/// slice-order scan over every transmitter through kernel `K`. For a
/// canonical `K` that scan *is* the canonical one and decides directly.
/// Otherwise the ladder brackets it — no far field, the same slack — and
/// only a listener that bracket cannot settle pays for `rescan`, the
/// canonical scan (counted in
/// [`canonical_rescans`](FarFieldStats::canonical_rescans)).
pub(crate) fn finish_fallback<K: AlphaKernel>(
    first: ScanOutcome,
    noise: f64,
    extra: Option<f64>,
    beta: f64,
    stats: &mut FarFieldStats,
    rescan: impl FnOnce() -> ScanOutcome,
) -> Reception {
    if K::REL_ERR == 0.0 {
        return finish_exact(first, noise, extra, beta);
    }
    let certified = ladder(DecisionInputs {
        near_sum: first.total,
        best_sig: first.best_sig,
        best_tx: first.best_tx,
        far_lo: 0.0,
        far_hi: 0.0,
        far_cap: 0.0,
        noise,
        extra,
        beta,
        gain_rel_err: K::GAIN_REL_ERR,
    });
    match certified {
        Rung::NoiseFloor => Reception::Silence,
        Rung::Bracket(reception) => reception,
        _ => {
            stats.canonical_rescans += 1;
            finish_exact(rescan(), noise, extra, beta)
        }
    }
}

/// The canonical SINR test on an exact scan's outcome: the same
/// denominator expression (and evaluation order) as
/// `SinrChannel::resolve`, so a fallback decides bit-identically.
pub(crate) fn finish_exact(
    outcome: ScanOutcome,
    noise: f64,
    extra: Option<f64>,
    beta: f64,
) -> Reception {
    let ScanOutcome {
        total,
        best_sig,
        best_tx,
    } = outcome;
    let denom = match extra {
        Some(e) => noise + e + (total - best_sig),
        None => noise + (total - best_sig),
    };
    match best_tx {
        Some(u) if best_sig >= beta * denom => Reception::Message { from: u },
        _ => Reception::Silence,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slack_budget_leaves_a_tenfold_margin() {
        // Every committed workload's largest round, up to the n = 2²⁰
        // probe at 25% contention, keeps a tenfold margin; the bounded
        // kernel's share is a small part of it.
        for k in [1, 65_536, SLACK_BUDGET_TRANSMITTERS] {
            let budget = slack_budget(k);
            assert!(
                budget <= FARFIELD_REL_SLACK / 10.0,
                "budget {budget:e} at k = {k} vs slack {FARFIELD_REL_SLACK:e}"
            );
            assert!(budget - slack_budget(0) >= k as f64 * 2f64.powi(-52));
        }
        assert!((5.8e-11..5.9e-11).contains(&(slack_budget(1 << 18) - slack_budget(0))));
        assert!(slack_budget(0) < FARFIELD_REL_SLACK / 200.0);
        // Every node of an n = 2²⁰ deployment transmitting still fits the
        // slack itself, only without the tenfold margin.
        assert!(slack_budget(1 << 20) <= FARFIELD_REL_SLACK / 4.0);
        assert_eq!(
            FARFIELD_SLACK_BUDGET,
            slack_budget(SLACK_BUDGET_TRANSMITTERS)
        );
    }

    #[test]
    fn special_bounded_gains_never_decide() {
        use crate::kernels::{fold_scan, AlphaBounded};
        let k = AlphaBounded::new(2.5);
        // d² = 0 gives an infinite gain; subnormal and NaN d² give NaN.
        for d_sq in [0.0, f64::from_bits(1), f64::MIN_POSITIVE / 2.0, f64::NAN] {
            let fold = fold_scan(&[0.5, 16.0 / k.pow_alpha(d_sq)]);
            let first = ScanOutcome::from_fold(fold, &[7, 9]);
            let mut stats = FarFieldStats::default();
            let decision = decide_ladder(
                &mut stats,
                DecisionInputs {
                    near_sum: first.total,
                    best_sig: first.best_sig,
                    best_tx: first.best_tx,
                    far_lo: 0.0,
                    far_hi: 0.0,
                    far_cap: 0.0,
                    noise: 1.0,
                    extra: None,
                    beta: 2.0,
                    gain_rel_err: AlphaBounded::GAIN_REL_ERR,
                },
            );
            assert_eq!(decision, Decision::Exact, "d_sq={d_sq:e}");
            assert_eq!(stats.nonfinite_fallbacks, 1, "d_sq={d_sq:e}");
            let canonical = ScanOutcome {
                total: 2.5,
                best_sig: 2.0,
                best_tx: Some(9),
            };
            let mut rescanned = false;
            let rx = finish_fallback::<AlphaBounded>(first, 0.1, None, 1.5, &mut stats, || {
                rescanned = true;
                canonical
            });
            assert!(
                rescanned,
                "d_sq={d_sq:e}: a poisoned first pass must rescan"
            );
            assert_eq!(rx, Reception::Message { from: 9 });
            assert_eq!(stats.canonical_rescans, 1);
        }
    }

    #[test]
    fn negative_floor_certifies_no_bounded_message() {
        use crate::kernels::AlphaBounded;
        // A strong near sender over weak interference: a Message bracket
        // at any floor ≤ 1. With a negative jammer term the floor drops
        // below 0, where the winner lemma no longer names the sender of a
        // bounded near scan — only the canonical scan may.
        let inputs = |extra: f64, gain_rel_err: f64| DecisionInputs {
            near_sum: 10.5,
            best_sig: 10.0,
            best_tx: Some(7),
            far_lo: 0.0,
            far_hi: 0.0,
            far_cap: 0.0,
            noise: 1.0,
            extra: Some(extra),
            beta: 2.0,
            gain_rel_err,
        };
        let delta = AlphaBounded::GAIN_REL_ERR;
        for extra in [-1.5, -3.0, f64::NAN] {
            let mut stats = FarFieldStats::default();
            let decision = decide_ladder(&mut stats, inputs(extra, delta));
            assert_eq!(decision, Decision::Exact, "extra={extra}");
            assert_eq!(stats.bracket_straddle_fallbacks, 1, "extra={extra}");
            let first = ScanOutcome {
                total: 10.5,
                best_sig: 10.0,
                best_tx: Some(7),
            };
            let canonical = || ScanOutcome {
                total: 10.5,
                best_sig: 10.0,
                best_tx: Some(9),
            };
            let rx = finish_fallback::<AlphaBounded>(
                first,
                1.0,
                Some(extra),
                2.0,
                &mut stats,
                canonical,
            );
            assert_eq!(stats.canonical_rescans, 1, "extra={extra}");
            assert_eq!(rx, finish_exact(canonical(), 1.0, Some(extra), 2.0));
        }
        // A floor ≥ 0 certifies, bounded or canonical (the slack gives the
        // lemma its strict margin at a zero floor); a canonical near scan
        // names its sender directly at any floor.
        for (extra, gain_rel_err) in [(0.5, delta), (-1.0, delta), (0.5, 0.0), (-3.0, 0.0)] {
            let mut stats = FarFieldStats::default();
            assert_eq!(
                decide_ladder(&mut stats, inputs(extra, gain_rel_err)),
                Decision::Decided(Reception::Message { from: 7 }),
                "extra={extra} gain_rel_err={gain_rel_err:e}"
            );
        }
    }

    #[test]
    fn oversized_rounds_are_not_certified() {
        // The predicate alone, from the budget arithmetic: no deployment
        // of that size is built.
        assert!(slack_certifies(0));
        assert!(slack_certifies(SLACK_BUDGET_TRANSMITTERS));
        assert!(slack_certifies(1 << 22));
        assert!(slack_budget(1 << 23) > FARFIELD_REL_SLACK);
        assert!(!slack_certifies(1 << 23));
        assert!(!slack_certifies(usize::MAX));
    }
}
