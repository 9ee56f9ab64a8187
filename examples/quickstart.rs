//! Quickstart: run the paper's contention-resolution algorithm once and
//! watch it work.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use fading::prelude::*;

fn main() {
    // 1. Deploy 64 wireless nodes uniformly at random in a 40×40 area.
    let deployment = Deployment::uniform_square(64, 40.0, 7);
    println!(
        "deployment: n = {}, shortest link = {:.2}, longest link = {:.2}, R = {:.1}",
        deployment.len(),
        deployment.min_link(),
        deployment.max_link(),
        deployment.link_ratio()
    );

    // 2. The paper's fading channel: reception is governed by the SINR
    //    equation with path loss alpha = 3, threshold beta = 2, noise 1.
    let params = SinrParams::default_single_hop();
    params
        .admits_single_hop(&deployment)
        .expect("power is high enough for a single-hop network");

    // 3. Every node runs the paper's algorithm: broadcast with probability
    //    1/4 each round; go quiet forever after hearing anything.
    let scenario = Scenario::builder()
        .deployment(deployment)
        .sinr(params)
        .protocol(ProtocolKind::fkn_default())
        .seed(42)
        .build()
        .expect("valid scenario");

    // 4. Run until some node transmits alone — contention resolved —
    //    recording one event per round.
    let (result, events) = scenario
        .simulation()
        .run_recorded(10_000, TelemetryDetail::counts());
    assert!(result.resolved());
    println!(
        "resolved in {} rounds (theory: O(log n + log R) ≈ {:.0} round-units); winner: node {}",
        result.resolved_at().expect("resolved"),
        fading::theory::fkn_rounds(64, scenario.deployment().link_ratio(), 1.0),
        result.winner().expect("resolved"),
    );

    println!("\nround | active | transmitters | knocked out");
    for e in &events {
        println!(
            "{:>5} | {:>6} | {:>12} | {:>11}",
            e.round, e.participants, e.transmitters, e.knocked_out
        );
    }

    // 5. The same scenario over many seeds: the high-probability picture.
    let summary = montecarlo::Summary::from_results(&scenario.montecarlo(100, 4, 10_000));
    println!(
        "\nover 100 seeds: success rate {:.2}, mean {:.1} rounds, p95 {:.1}, max {}",
        summary.success_rate, summary.mean_rounds, summary.p95_rounds, summary.max_rounds
    );
}
