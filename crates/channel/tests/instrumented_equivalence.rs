//! Instrumented/uninstrumented equivalence oracle.
//!
//! The contract under test ([`Channel::resolve_with`] with a breakdown
//! buffer) is that instrumentation is a pure observer: for every channel,
//! perturbation, and cache setting, the instrumented round returns a
//! `Reception` vector **bit-identical** to the uninstrumented one on the
//! same inputs
//! while consuming the rng identically, and the reported
//! [`SinrBreakdown`]s are internally consistent with the decisions
//! (`decoded ⇔ margin ≥ 0 ⇔ Reception::Message`).

use fading_channel::{
    Channel, ChannelPerturbation, EngineTier, LossySinrChannel, RadioCdChannel, RadioChannel,
    RayleighSinrChannel, Reception, ResolveEngine, SerialExecutor, SinrBreakdown, SinrChannel,
    SinrParams,
};
use fading_geom::Point;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Distinct points on a jittered lattice (guaranteed non-coincident).
fn arb_positions(min: usize, max: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec((0.0..0.4f64, 0.0..0.4f64), min..=max).prop_map(|jitters| {
        let side = (jitters.len() as f64).sqrt().ceil() as usize;
        jitters
            .iter()
            .enumerate()
            .map(|(i, &(jx, jy))| Point::new((i % side) as f64 + jx, (i / side) as f64 + jy))
            .collect()
    })
}

/// Splits node ids into disjoint (transmitters, listeners) from per-node
/// role draws: 0 ⇒ transmit, 1–2 ⇒ listen, 3 ⇒ idle.
fn partition(roles: &[u8], n: usize) -> (Vec<usize>, Vec<usize>) {
    let mut tx = Vec::new();
    let mut ls = Vec::new();
    for i in 0..n {
        match roles.get(i).copied().unwrap_or(1) % 4 {
            0 => tx.push(i),
            1 | 2 => ls.push(i),
            _ => {}
        }
    }
    (tx, ls)
}

fn params() -> SinrParams {
    SinrParams::builder()
        .power(16.0)
        .alpha(3.0)
        .beta(2.0)
        .noise(1.0)
        .build()
        .unwrap()
}

/// Asserts the instrumented round matches the uninstrumented one bit for bit
/// (receptions and final rng state) under both cache settings, and sanity
/// checks the breakdowns when the channel reports them.
fn assert_instrumented_equiv<C: Channel>(
    ch: &C,
    positions: &[Point],
    tx: &[usize],
    ls: &[usize],
    perturbation: &ChannelPerturbation<'_>,
    seed: u64,
    expect_breakdowns: bool,
) {
    for use_cache in [false, true] {
        let tier = if use_cache {
            EngineTier::GainCache
        } else {
            EngineTier::Exact
        };
        let mut engine = ResolveEngine::build(ch, tier, positions);
        let mut rng_plain = SmallRng::seed_from_u64(seed);
        let mut rng_inst = SmallRng::seed_from_u64(seed);
        let plain = ch.resolve_with(
            positions,
            tx,
            ls,
            &mut engine,
            perturbation,
            &SerialExecutor,
            &mut rng_plain,
            None,
        );
        let mut breakdown: Vec<SinrBreakdown> = vec![SinrBreakdown {
            listener: usize::MAX,
            best_tx: None,
            signal: -1.0,
            interference: -1.0,
            noise: -1.0,
            extra: -1.0,
            margin: -1.0,
            decoded: false,
        }];
        let inst = ch.resolve_with(
            positions,
            tx,
            ls,
            &mut engine,
            perturbation,
            &SerialExecutor,
            &mut rng_inst,
            Some(&mut breakdown),
        );
        assert_eq!(
            plain,
            inst,
            "instrumented receptions diverged ({}, cache={use_cache}, seed={seed})",
            ch.name()
        );
        assert_eq!(
            rng_plain.gen::<u64>(),
            rng_inst.gen::<u64>(),
            "rng streams diverged ({}, cache={use_cache})",
            ch.name()
        );
        if expect_breakdowns {
            assert_eq!(breakdown.len(), ls.len(), "one breakdown per listener");
            for (k, b) in breakdown.iter().enumerate() {
                assert_eq!(b.listener, ls[k], "breakdowns follow listener order");
                assert_eq!(
                    b.decoded,
                    b.margin >= 0.0,
                    "decoded flag must mirror the margin sign ({b:?})"
                );
                assert!(
                    b.signal >= 0.0 && b.interference >= 0.0 && b.extra >= 0.0,
                    "power terms must be non-negative ({b:?})"
                );
                // A decoded breakdown must coincide with a Message from its
                // best transmitter — except on the lossy channel, whose
                // post-SINR drop pass may erase it.
                if b.decoded && ch.name() != "lossy-sinr" {
                    assert_eq!(
                        inst[k],
                        Reception::Message {
                            from: b.best_tx.unwrap()
                        }
                    );
                }
                if !b.decoded {
                    assert_eq!(inst[k], Reception::Silence);
                }
            }
        } else {
            assert!(
                breakdown.is_empty(),
                "geometry-free channels must clear and not fill breakdowns"
            );
        }
    }
}

use rand::Rng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn sinr_instrumented_is_pure_observer(
        positions in arb_positions(4, 24),
        roles in prop::collection::vec(0u8..4, 24),
        noise_scale in prop_oneof![Just(1.0f64), 1.0..8.0f64],
        jam_flag in 0u8..2,
        seed in 0u64..1_000,
    ) {
        let (tx, ls) = partition(&roles, positions.len());
        let jam_vec: Vec<f64> = if jam_flag == 1 {
            (0..positions.len()).map(|i| if i % 3 == 0 { 2.5 } else { 0.0 }).collect()
        } else {
            Vec::new()
        };
        let perturbation = ChannelPerturbation::new(noise_scale, &jam_vec);
        assert_instrumented_equiv(
            &SinrChannel::new(params()), &positions, &tx, &ls, &perturbation, seed, true,
        );
    }

    #[test]
    fn rayleigh_instrumented_is_pure_observer(
        positions in arb_positions(4, 20),
        roles in prop::collection::vec(0u8..4, 20),
        noise_scale in prop_oneof![Just(1.0f64), 1.0..8.0f64],
        seed in 0u64..1_000,
    ) {
        let (tx, ls) = partition(&roles, positions.len());
        let perturbation = ChannelPerturbation::new(noise_scale, &[]);
        assert_instrumented_equiv(
            &RayleighSinrChannel::new(params()), &positions, &tx, &ls, &perturbation, seed, true,
        );
    }

    #[test]
    fn lossy_instrumented_is_pure_observer(
        positions in arb_positions(4, 20),
        roles in prop::collection::vec(0u8..4, 20),
        seed in 0u64..1_000,
    ) {
        let (tx, ls) = partition(&roles, positions.len());
        let perturbation = ChannelPerturbation::neutral();
        assert_instrumented_equiv(
            &LossySinrChannel::new(params(), 0.4).unwrap(),
            &positions, &tx, &ls, &perturbation, seed, true,
        );
    }

    #[test]
    fn radio_instrumented_reports_no_breakdowns(
        positions in arb_positions(4, 16),
        roles in prop::collection::vec(0u8..4, 16),
        seed in 0u64..1_000,
    ) {
        let (tx, ls) = partition(&roles, positions.len());
        let perturbation = ChannelPerturbation::neutral();
        assert_instrumented_equiv(
            &RadioChannel::new(), &positions, &tx, &ls, &perturbation, seed, false,
        );
        assert_instrumented_equiv(
            &RadioCdChannel::new(), &positions, &tx, &ls, &perturbation, seed, false,
        );
    }
}

#[test]
fn breakdown_terms_recompose_equation_one() {
    // Hand-checkable scenario: P=16, α=3, β=2, N=1. Listener at origin,
    // transmitters at d=1 (signal 16) and d=2 (signal 2).
    let ch = SinrChannel::new(params());
    let pos = [
        Point::new(0.0, 0.0),
        Point::new(1.0, 0.0),
        Point::new(-2.0, 0.0),
    ];
    let mut breakdown = Vec::new();
    let mut rng = SmallRng::seed_from_u64(0);
    let rx = ch.resolve_with(
        &pos,
        &[1, 2],
        &[0],
        &mut ResolveEngine::Exact,
        &ChannelPerturbation::neutral(),
        &SerialExecutor,
        &mut rng,
        Some(&mut breakdown),
    );
    assert_eq!(rx, vec![Reception::Message { from: 1 }]);
    let b = breakdown[0];
    assert_eq!(b.listener, 0);
    assert_eq!(b.best_tx, Some(1));
    assert!((b.signal - 16.0).abs() < 1e-12);
    assert!((b.interference - 2.0).abs() < 1e-12);
    assert_eq!(b.noise, 1.0);
    assert_eq!(b.extra, 0.0);
    assert!((b.denominator() - 3.0).abs() < 1e-12);
    // margin = 16 − 2·3 = 10; SINR = 16/3.
    assert!((b.margin - 10.0).abs() < 1e-12);
    assert!((b.sinr() - 16.0 / 3.0).abs() < 1e-12);
    assert!(b.decoded);
}

#[test]
fn jammed_breakdown_includes_extra_term() {
    let ch = SinrChannel::new(params());
    let pos = [Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
    let jam = [7.0, 0.0];
    let mut breakdown = Vec::new();
    let mut rng = SmallRng::seed_from_u64(0);
    let rx = ch.resolve_with(
        &pos,
        &[1],
        &[0],
        &mut ResolveEngine::Exact,
        &ChannelPerturbation::new(3.0, &jam),
        &SerialExecutor,
        &mut rng,
        Some(&mut breakdown),
    );
    let b = breakdown[0];
    // noise scaled 1×3, extra 7, interference 0 ⇒ denominator 10;
    // signal 16 ≥ 2·10 fails by margin −4.
    assert_eq!(b.noise, 3.0);
    assert_eq!(b.extra, 7.0);
    assert!((b.denominator() - 10.0).abs() < 1e-12);
    assert!((b.margin + 4.0).abs() < 1e-12);
    assert!(!b.decoded);
    assert_eq!(rx, vec![Reception::Silence]);
}
