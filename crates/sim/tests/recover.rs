//! Checkpoint/resume end-to-end: a snapshot taken mid-run under an active
//! kitchen-sink fault plan must resume **byte-identically** on every
//! engine tier — exact scan, gain cache, tile tree —
//! and a corrupted snapshot must fail loudly with a typed error, never
//! restore garbage.

use fading_channel::{Reception, SinrChannel, SinrParams};
use fading_geom::{Deployment, Point};
use fading_sim::faults::{ChurnEvent, FaultPlan, GilbertElliott, Jammer, NoiseBurst};
use fading_sim::recover::{SimSnapshot, SnapshotError};
use fading_sim::{
    Action, EngineTier, Protocol, ProtocolStateError, SimConfig, Simulation, TraceLevel,
};
use rand::rngs::SmallRng;
use rand::Rng;

/// Transmits with fixed probability; knocked out on any reception. Carries
/// its knockout bit through `save_state`/`load_state` so checkpoints
/// round-trip it.
#[derive(Debug)]
struct Knockout {
    p: f64,
    active: bool,
}

impl Protocol for Knockout {
    fn act(&mut self, _round: u64, rng: &mut SmallRng) -> Action {
        if rng.gen_bool(self.p) {
            Action::Transmit
        } else {
            Action::Listen
        }
    }
    fn feedback(&mut self, _round: u64, reception: &Reception) {
        if reception.is_message() {
            self.active = false;
        }
    }
    fn is_active(&self) -> bool {
        self.active
    }
    fn name(&self) -> &'static str {
        "test-knockout"
    }
    fn save_state(&self) -> Vec<u64> {
        vec![u64::from(self.active)]
    }
    fn load_state(&mut self, state: &[u64]) -> Result<(), ProtocolStateError> {
        match state {
            [active] => {
                self.active = *active != 0;
                Ok(())
            }
            _ => Err(ProtocolStateError {
                protocol: self.name(),
                expected: 1,
                got: state.len(),
            }),
        }
    }
}

/// Duty-cycled budgeted jamming, a noise burst, all three churn kinds,
/// and Gilbert–Elliott burst loss — every fault cursor the snapshot must
/// carry.
fn stress_plan() -> FaultPlan {
    let power = SinrParams::default_single_hop().power() * 10.0;
    FaultPlan::new()
        .with_jammer(Jammer::new(Point::new(7.5, 7.5), power, 2, 6, 3, Some(60)).expect("valid"))
        .with_noise_burst(NoiseBurst::new(5, 15, 4.0).expect("valid"))
        .with_churn(ChurnEvent::late_wake(4, 3).expect("valid"))
        .with_churn(ChurnEvent::crash(6, 0).expect("valid"))
        .with_churn(ChurnEvent::revive(12, 0).expect("valid"))
        .with_loss(GilbertElliott::new(0.15, 0.3, 0.02, 0.7).expect("valid"))
}

/// The three engine tiers, with their labels.
const TIERS: [(&str, EngineTier); 3] = [
    ("exact", EngineTier::Exact),
    ("gain-cache", EngineTier::GainCache),
    ("hierarchical", EngineTier::Hierarchical),
];

fn build_sim(seed: u64, tier: EngineTier) -> Simulation {
    build_sim_checked(seed, tier, 0)
}

/// [`build_sim`] with `self_check` listeners audited per eligible round.
fn build_sim_checked(seed: u64, tier: EngineTier, self_check: usize) -> Simulation {
    let deployment = Deployment::uniform_square(24, 15.0, seed);
    let config = SimConfig {
        tier: Some(tier),
        trace_level: TraceLevel::Full,
        self_check,
        fault_plan: Some(stress_plan()),
        ..SimConfig::default()
    };
    Simulation::try_new(
        deployment,
        Box::new(SinrChannel::new(SinrParams::default_single_hop())),
        seed,
        config,
        |_| {
            Box::new(Knockout {
                p: 0.25,
                active: true,
            })
        },
    )
    .expect("plan fits deployment")
}

/// Interrupt after `cut` rounds, serialize the snapshot through its byte
/// codec, restore into a *fresh* simulation, and require the resumed
/// result to equal the uninterrupted one — traces included.
fn assert_resume_identical(label: &str, tier: EngineTier) {
    for seed in [3u64, 19, 71] {
        let uninterrupted = build_sim(seed, tier)
            .run_until_resolved(20_000);

        // Cut mid-churn: after round 7 the crash (round 6) has fired but
        // the revive (round 12) is pending, the jammer budget and the
        // Gilbert–Elliott chain are mid-flight.
        let mut victim = build_sim(seed, tier);
        for _ in 0..7 {
            victim.step();
        }
        let bytes = victim.snapshot().to_bytes();
        let snap = SimSnapshot::from_bytes(&bytes).expect("snapshot codec round-trips");

        let mut resumed = build_sim(seed, tier);
        resumed.restore(&snap).expect("snapshot fits the fresh twin");
        let result = resumed.run_until_resolved(20_000);
        assert_eq!(
            result, uninterrupted,
            "tier {label}, seed {seed}: resume must be byte-identical"
        );
    }
}

#[test]
fn resume_is_byte_identical_on_every_tier_under_faults() {
    for (label, tier) in TIERS {
        assert_resume_identical(label, tier);
    }
}

#[test]
fn resume_with_self_check_enabled_is_byte_identical() {
    let seed = 23;
    let build = || build_sim_checked(seed, EngineTier::Hierarchical, 2);
    let uninterrupted = build().run_until_resolved(20_000);
    let mut victim = build();
    for _ in 0..7 {
        victim.step();
    }
    let snap = victim.snapshot();
    let mut resumed = build();
    resumed.restore(&snap).expect("snapshot fits");
    let result = resumed.run_until_resolved(20_000);
    assert_eq!(result, uninterrupted, "self-check rng lane must checkpoint");
    assert_eq!(
        resumed.engine_counters().self_check_violations,
        0,
        "a healthy resumed run must not trip the self-check"
    );
}

#[test]
fn corrupted_snapshot_fails_loudly_with_a_typed_error() {
    let mut sim = build_sim(5, EngineTier::GainCache);
    for _ in 0..4 {
        sim.step();
    }
    let mut bytes = sim.snapshot().to_bytes();

    // Flip one payload byte: the checksum must catch it.
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    match SimSnapshot::from_bytes(&bytes) {
        Err(SnapshotError::Corrupt { .. }) => {}
        other => panic!("corrupted snapshot must decode to Corrupt, got {other:?}"),
    }

    // Truncation must also be loud.
    match SimSnapshot::from_bytes(&bytes[..bytes.len() - 9]) {
        Err(SnapshotError::Corrupt { .. }) => {}
        other => panic!("truncated snapshot must decode to Corrupt, got {other:?}"),
    }
}
