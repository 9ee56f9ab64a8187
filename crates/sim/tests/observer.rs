//! Integration tests for the observer-driven run loop and the simulator's
//! behavioral contracts under unusual protocols.

use fading_channel::{Reception, SinrChannel, SinrParams};
use fading_geom::Deployment;
use fading_sim::{Action, Protocol, Simulation};
use rand::rngs::SmallRng;
use rand::Rng;

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
    fn feedback(&mut self, _round: u64, rx: &Reception) {
        if rx.is_message() {
            self.active = false;
        }
    }
    fn is_active(&self) -> bool {
        self.active
    }
    fn name(&self) -> &'static str {
        "test-knockout"
    }
}

fn sim(seed: u64) -> Simulation {
    let d = Deployment::uniform_square(32, 20.0, seed);
    let params = SinrParams::default_single_hop().with_power_for(&d);
    Simulation::new(d, Box::new(SinrChannel::new(params)), seed, |_| {
        Box::new(Knockout {
            p: 0.1,
            active: true,
        })
    })
}

#[test]
fn observer_sees_every_round_plus_final_state() {
    let mut observed_rounds = Vec::new();
    let mut active_counts = Vec::new();
    let result = sim(5).run_until_resolved_with(100_000, |s| {
        observed_rounds.push(s.round());
        active_counts.push(s.num_active());
    });
    assert!(result.resolved());
    // One observation before each executed round, plus the closing one.
    assert_eq!(observed_rounds.len() as u64, result.rounds_executed() + 1);
    // Round counters are 0, 1, 2, … in order.
    for (i, &r) in observed_rounds.iter().enumerate() {
        assert_eq!(r, i as u64);
    }
    // Active counts are non-increasing.
    for w in active_counts.windows(2) {
        assert!(w[1] <= w[0]);
    }
}

/// A protocol that claims inactive from the start: the simulator must never
/// schedule it, and a network of them simply never resolves.
#[derive(Debug)]
struct BornDead;

impl Protocol for BornDead {
    fn act(&mut self, _round: u64, _rng: &mut SmallRng) -> Action {
        panic!("inactive protocol must never be asked to act");
    }
    fn feedback(&mut self, _round: u64, _rx: &Reception) {
        panic!("inactive protocol must never receive feedback");
    }
    fn is_active(&self) -> bool {
        false
    }
    fn name(&self) -> &'static str {
        "born-dead"
    }
}

#[test]
fn initially_inactive_nodes_are_never_scheduled() {
    let d = Deployment::uniform_square(8, 10.0, 1);
    let params = SinrParams::default_single_hop().with_power_for(&d);
    let mut s = Simulation::new(d, Box::new(SinrChannel::new(params)), 1, |_| {
        Box::new(BornDead)
    });
    assert_eq!(s.num_active(), 0);
    let result = s.run_until_resolved(50);
    assert!(!result.resolved());
    assert_eq!(result.total_transmissions(), 0);
}

/// A node that reports inactive after its first feedback but then flips
/// back to active: the simulator treats deactivation as permanent.
#[derive(Debug)]
struct Flaky {
    fed: u32,
}

impl Protocol for Flaky {
    fn act(&mut self, _round: u64, _rng: &mut SmallRng) -> Action {
        Action::Listen
    }
    fn feedback(&mut self, _round: u64, _rx: &Reception) {
        self.fed += 1;
    }
    fn is_active(&self) -> bool {
        // Inactive exactly at the first post-feedback check, active again
        // afterwards — an adversarial (buggy) implementation.
        self.fed != 1
    }
    fn name(&self) -> &'static str {
        "flaky"
    }
}

#[test]
fn deactivation_is_permanent_even_if_protocol_flips_back() {
    let d = Deployment::uniform_square(4, 10.0, 2);
    let params = SinrParams::default_single_hop().with_power_for(&d);
    let mut s = Simulation::new(d, Box::new(SinrChannel::new(params)), 2, |_| {
        Box::new(Flaky { fed: 0 })
    });
    // Round 1: everyone listens, receives silence (fed = 1 → inactive).
    s.step();
    assert_eq!(s.num_active(), 0);
    // Further rounds never reactivate anyone.
    s.step();
    s.step();
    assert_eq!(s.num_active(), 0);
    assert_eq!(s.active_ids(), Vec::<usize>::new());
}

/// Mixed population: half the nodes never deactivate (greedy), half follow
/// the knockout rule. Resolution still only requires a single transmitter
/// among the ACTIVE set, so greedy nodes keep it unresolved until luck or
/// knockouts thin the greedy side... which never happens — assert the
/// precise semantics instead: knockout nodes all die, greedy nodes persist.
#[derive(Debug)]
struct Greedy;

impl Protocol for Greedy {
    fn act(&mut self, _round: u64, rng: &mut SmallRng) -> Action {
        if rng.gen_bool(0.5) {
            Action::Transmit
        } else {
            Action::Listen
        }
    }
    fn feedback(&mut self, _round: u64, _rx: &Reception) {}
    fn is_active(&self) -> bool {
        true
    }
    fn name(&self) -> &'static str {
        "greedy"
    }
}

#[test]
fn mixed_populations_follow_their_own_rules() {
    let d = Deployment::uniform_square(16, 8.0, 3);
    let params = SinrParams::default_single_hop().with_power_for(&d);
    let mut s = Simulation::new(d, Box::new(SinrChannel::new(params)), 3, |id| {
        if id % 2 == 0 {
            Box::new(Greedy) as Box<dyn Protocol>
        } else {
            Box::new(Knockout {
                p: 0.3,
                active: true,
            })
        }
    });
    for _ in 0..300 {
        s.step();
    }
    // Every greedy (even-id) node is still active.
    for id in (0..16).step_by(2) {
        assert!(s.is_active(id), "greedy node {id} was deactivated");
    }
    // With dense greedy transmitters around, knockout nodes should mostly
    // be gone after 300 rounds.
    let knockouts_alive = (1..16).step_by(2).filter(|&id| s.is_active(id)).count();
    assert!(
        knockouts_alive <= 4,
        "{knockouts_alive} knockout nodes survived"
    );
}
