//! Validates the `Decay::without_knockout` doc claim: on the **radio
//! channel** the knockout and non-knockout variants are equivalent until
//! resolution, because a radio listener receives a message only in a round
//! with exactly one transmitter — which is precisely the resolving round.
//! Knockouts therefore cannot fire before resolution, so matched-seed runs
//! must agree on every pre-resolution round and on the resolution itself.

use fading_channel::RadioChannel;
use fading_geom::Deployment;
use fading_protocols::Decay;
use fading_sim::{Protocol, RoundEvent, RunResult, Simulation, TelemetryDetail};

/// The run and its ids-level event stream.
fn run(seed: u64, n: usize, knockout: bool) -> (RunResult, Vec<RoundEvent>) {
    let deployment = Deployment::uniform_square(n, 20.0, seed);
    let mut sim = Simulation::new(deployment, Box::new(RadioChannel::new()), seed, |_| {
        let p: Box<dyn Protocol> = if knockout {
            Box::new(Decay::new())
        } else {
            Box::new(Decay::without_knockout())
        };
        p
    });
    sim.run_recorded(200_000, TelemetryDetail::ids())
}

#[test]
fn decay_variants_match_until_resolution_on_radio() {
    for seed in [0u64, 1, 2, 7, 42] {
        for n in [8usize, 24, 48] {
            let (with, a) = run(seed, n, true);
            let (without, b) = run(seed, n, false);

            assert!(
                with.resolved(),
                "seed {seed} n {n}: knockout run must resolve"
            );
            assert_eq!(
                with.resolved_at(),
                without.resolved_at(),
                "seed {seed} n {n}: resolution round must match"
            );
            assert_eq!(with.winner(), without.winner(), "seed {seed} n {n}");
            assert_eq!(
                with.total_transmissions(),
                without.total_transmissions(),
                "seed {seed} n {n}: identical rounds imply identical energy"
            );

            assert_eq!(a.len(), b.len(), "seed {seed} n {n}");
            let last = a.len() - 1;
            for (k, (ra, rb)) in a.iter().zip(b).enumerate() {
                assert_eq!(ra.round, rb.round);
                assert_eq!(
                    ra.participants, rb.participants,
                    "seed {seed} n {n} round {}: participant counts must match",
                    ra.round
                );
                assert_eq!(
                    ra.transmitter_ids, rb.transmitter_ids,
                    "seed {seed} n {n} round {}: transmitter sets must match",
                    ra.round
                );
                assert_eq!(
                    rb.knocked_out, 0,
                    "without_knockout must never deactivate anyone"
                );
                if k < last {
                    // The doc claim, sharpened: on the radio channel no
                    // message is received before the resolving round, so
                    // even the knockout variant records zero knockouts.
                    assert_eq!(
                        ra.knocked_out, 0,
                        "seed {seed} n {n} round {}: a knockout before \
                         resolution contradicts the radio reception rule",
                        ra.round
                    );
                }
            }
        }
    }
}

#[test]
fn knockout_fires_only_in_the_resolving_round() {
    // Direct check of the mechanism: in the resolving round every listener
    // of the knockout variant receives the winner's message and knocks out,
    // while the non-knockout variant keeps everyone active.
    let seed = 3;
    let (with, with_events) = run(seed, 16, true);
    let (without, without_events) = run(seed, 16, false);
    assert!(with.resolved());
    let last_with = with_events.last().unwrap();
    let last_without = without_events.last().unwrap();
    // Radio broadcast reaches every listener, so the knockout count is
    // exactly the listener count of the resolving round.
    assert_eq!(last_with.knocked_out, last_with.listeners);
    assert_eq!(last_without.knocked_out, 0);
    assert_eq!(without.final_active(), without.initial_nodes());
    assert_eq!(
        with.final_active(),
        with.initial_nodes() - last_with.knocked_out
    );
}
