//! Soundness of the tile-tree's certified distance brackets as *gain*
//! brackets, plus adversarial deployments engineered to hit the exact
//! fallback from a coarse (multi-tile) aggregate.
//!
//! The equivalence oracle (`hierarchical_equivalence.rs`) proves the *end*
//! result is bit-exact; these tests prove the *means*: every tree node's
//! `[d_min², d_max²]` certificate, at every level and against every
//! listener tile, genuinely brackets the summed exact gain of its members
//! (the invariant the Barnes–Hut-style accept rule rests on), for any cut
//! of the tree a traversal could take — and when the aggregated bracket
//! cannot separate Message from Silence the engine really does fall back
//! rather than guess.

use fading_channel::{
    pow_alpha, Channel, ChannelPerturbation, HierarchicalFarFieldEngine, Reception, ResolveEngine,
    SerialExecutor, SinrChannel, SinrParams, HIER_NEAR_RING,
};
use fading_geom::{Point, TileTree};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A tile-tree engine over an explicit fine tiling, as a resolve engine.
fn tiled(positions: &[Point], params: &SinrParams, tiles_per_side: usize) -> ResolveEngine {
    HierarchicalFarFieldEngine::build_with_tiling(positions, params, tiles_per_side)
        .map_or(ResolveEngine::Exact, |e| {
            ResolveEngine::Hierarchical(Box::new(e))
        })
}

fn hier(engine: &ResolveEngine) -> &HierarchicalFarFieldEngine {
    match engine {
        ResolveEngine::Hierarchical(e) => e,
        other => panic!("expected the hierarchical engine, got {:?}", other.tier()),
    }
}

fn tree(engine: &ResolveEngine) -> &TileTree {
    hier(engine).tree()
}

fn params_with(alpha: f64, beta: f64, noise: f64, power: f64) -> SinrParams {
    SinrParams::builder()
        .alpha(alpha)
        .beta(beta)
        .noise(noise)
        .power(power)
        .build()
        .expect("strategy stays in the valid range")
}

/// Clustered deployments: a handful of dense clumps with wide gaps between
/// them — the geometry that leaves many tree nodes empty and makes the
/// content-bbox (vs. grid-cell) bounds earn their keep.
fn arb_clustered_positions() -> impl Strategy<Value = Vec<Point>> {
    let cluster = (
        0.0..200.0f64,
        0.0..200.0f64,
        prop::collection::vec((0.0..2.0f64, 0.0..2.0f64), 1..12),
    );
    prop::collection::vec(cluster, 1..6).prop_map(|clusters| {
        clusters
            .into_iter()
            .flat_map(|(cx, cy, members)| {
                members
                    .into_iter()
                    .map(move |(dx, dy)| Point::new(cx + dx, cy + dy))
            })
            .collect()
    })
}

/// Indices of the points lying under node `(level, idx)` of `tree`.
fn node_members(tree: &TileTree, positions: &[Point], level: usize, idx: usize) -> Vec<usize> {
    let (col_range, row_range) = tree.fine_tile_range(level, idx);
    let cols = tree.fine().cols();
    (0..positions.len())
        .filter(|&i| {
            let t = tree.fine().tile_of(i);
            col_range.contains(&(t % cols)) && row_range.contains(&(t / cols))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// For every listener tile, every level, and every occupied node, the
    /// gain interval implied by the node's distance certificate must
    /// bracket the summed exact gain of the node's members. This is the
    /// load-bearing invariant: the hierarchical engine adds
    /// `count · P / pow_alpha(d_max²)` and `count · P / pow_alpha(d_min²)`
    /// to its far-field bounds wherever it accepts a node, at *any* level.
    #[test]
    fn node_gain_brackets_contain_exact_member_sums(
        positions in arb_clustered_positions(),
        alpha_idx in 0usize..4,
        power in 1.0..1e6f64,
        tiles_per_side in 4usize..17,
    ) {
        let alpha = [2.5, 3.0, 4.0, 6.0][alpha_idx];
        let tree = TileTree::build(&positions, tiles_per_side)
            .expect("finite nonempty positions must build");
        let num_tiles = tree.fine().num_tiles();
        for t in 0..num_tiles {
            let listeners: Vec<usize> = (0..positions.len())
                .filter(|&v| tree.fine().tile_of(v) == t)
                .collect();
            if listeners.is_empty() {
                continue;
            }
            for level in 0..tree.num_levels() {
                for idx in 0..tree.num_nodes(level) {
                    let count = tree.node_count(level, idx);
                    if count == 0 {
                        continue;
                    }
                    let (d_min_sq, d_max_sq) = tree
                        .distance_sq_bounds_to(t, level, idx)
                        .expect("both sides are occupied");
                    prop_assert!(d_min_sq >= 0.0 && d_min_sq <= d_max_sq);
                    let members = node_members(&tree, &positions, level, idx);
                    prop_assert_eq!(members.len(), count,
                        "node ({}, {}) count disagrees with membership", level, idx);
                    for &v in &listeners {
                        // Per-pair distance containment for members other
                        // than the listener itself (its own distance is 0,
                        // but then d_min² = 0 too, so it still holds).
                        let mut exact_sum = 0.0f64;
                        let mut self_in_node = false;
                        for &u in &members {
                            if u == v {
                                self_in_node = true;
                                continue;
                            }
                            let d_sq = positions[v].distance_sq(positions[u]);
                            prop_assert!(
                                d_min_sq <= d_sq && d_sq <= d_max_sq,
                                "pair ({}, {}) distance² {} escapes node ({}, {}) \
                                 certificate [{}, {}]",
                                v, u, d_sq, level, idx, d_min_sq, d_max_sq
                            );
                            exact_sum += power / pow_alpha(d_sq, alpha);
                        }
                        if self_in_node || d_min_sq == 0.0 {
                            // Touching bboxes give an unbounded gain cap;
                            // the sum bracket is trivially sound there.
                            continue;
                        }
                        let m = (members.len() - usize::from(self_in_node)) as f64;
                        let lo = m * power / pow_alpha(d_max_sq, alpha);
                        let hi = m * power / pow_alpha(d_min_sq, alpha);
                        prop_assert!(
                            lo * (1.0 - 1e-9) <= exact_sum && exact_sum <= hi * (1.0 + 1e-9),
                            "summed gain {} escapes bracket [{}, {}] of node ({}, {}) \
                             for listener {} at alpha {}",
                            exact_sum, lo, hi, level, idx, v, alpha
                        );
                    }
                }
            }
        }
    }

    /// Any *cut* of the tree — any antichain of accepted nodes a traversal
    /// could produce — yields a sound aggregate bracket on the total
    /// far-field interference. A seeded random descent (descend/accept
    /// chosen by coin flip, forced descent through the listener's own
    /// subtree) simulates arbitrary accept-rule outcomes, so soundness
    /// cannot secretly depend on the production accept ratio.
    #[test]
    fn random_tree_cuts_bracket_total_interference(
        positions in arb_clustered_positions(),
        alpha_idx in 0usize..4,
        power in 1.0..1e6f64,
        tiles_per_side in 4usize..17,
        seed in any::<u64>(),
        listener_pick in any::<u64>(),
    ) {
        prop_assume!(positions.len() >= 2);
        let alpha = [2.5, 3.0, 4.0, 6.0][alpha_idx];
        let tree = TileTree::build(&positions, tiles_per_side)
            .expect("finite nonempty positions must build");
        let v = usize::try_from(listener_pick).unwrap_or(usize::MAX) % positions.len();
        let lt = tree.fine().tile_of(v);
        let cols = tree.fine().cols();
        let (lt_col, lt_row) = (lt % cols, lt / cols);
        let mut rng = SmallRng::seed_from_u64(seed);

        let mut lo = 0.0f64;
        let mut hi = 0.0f64;
        let mut exact = 0.0f64;
        // Iterative descent from the root; each frame is (level, idx).
        let (root_level, root_idx) = tree.root();
        let mut stack = vec![(root_level, root_idx)];
        while let Some((level, idx)) = stack.pop() {
            if tree.node_count(level, idx) == 0 {
                continue;
            }
            let (col_range, row_range) = tree.fine_tile_range(level, idx);
            let covers_listener =
                col_range.contains(&lt_col) && row_range.contains(&lt_row);
            if covers_listener && level == 0 {
                // The listener's own tile is the traversal's near field;
                // a cut never aggregates it.
                continue;
            }
            if covers_listener || (level > 0 && rng.gen_bool(0.5)) {
                stack.extend(tree.children(level, idx).map(|c| (level - 1, c)));
                continue;
            }
            // Accept: fold this node's certificate into the aggregate.
            let (d_min_sq, d_max_sq) = tree
                .distance_sq_bounds_to(lt, level, idx)
                .expect("both sides are occupied");
            let members = node_members(&tree, &positions, level, idx);
            let m = members.len() as f64;
            lo += m * power / pow_alpha(d_max_sq, alpha);
            hi += m * power / pow_alpha(d_min_sq, alpha);
            for &u in &members {
                exact += power / pow_alpha(positions[v].distance_sq(positions[u]), alpha);
            }
        }
        prop_assert!(
            lo * (1.0 - 1e-9) <= exact && exact <= hi * (1.0 + 1e-9),
            "cut aggregate {} escapes bracket [{}, {}] at alpha {}",
            exact, lo, hi, alpha
        );
    }
}

/// Adversarial margin case at a *coarse* tree level: parameters tuned so
/// the SINR decision sits exactly on the `best_sig == beta * denom`
/// boundary, with the entire far field aggregated from one degenerate
/// multi-tile node. No finite bracket slack can separate the two outcomes,
/// so the engine must take the exact fallback — and still agree with
/// `resolve` bit-for-bit.
///
/// Geometry (α = 4, P = 16, β = 2, noise = 2⁻⁸, 8×8 tiling over [0, 32]²,
/// so tiles are 4×4):
///   listener 0 alone at (0.5, 0.5) in fine tile (0, 0); near
///   transmitter 1 at (4.5, 4.5) in fine tile (1, 1), inside the near
///   ring ⇒ `sig = 16 / (4² + 4²)² = 2⁻⁶` exactly; 64 far transmitters
///   coincident at (16.5, 16.5) — fine tile (4, 4), outside the near
///   ring — each contribute `16 / (16² + 16²)² = 2⁻¹⁴`, summing to
///   exactly `2⁻⁸` (all powers of two, no rounding anywhere). Then
///   `denom = noise + I = 2⁻⁷` and `beta * denom = 2⁻⁶ = sig`: a
///   knife-edge decision (`>=` succeeds, but no strict inequality holds),
///   so the slack-widened bracket must straddle it and bail out to the
///   exact scan.
///
/// The cluster's level-1 ancestor covers fine tiles (4..6)² — four tiles,
/// none inside the near ring — and both its content bbox (the single
/// point (16.5, 16.5)) and the listener tile's content bbox (the single
/// point (0.5, 0.5)) are degenerate, so the node's distance certificate
/// is *tight* (`d_min = d_max`) and the accept ratio is 1: the traversal
/// aggregates the whole far field at level 1 (its level-2 ancestor also
/// holds the idle pad point, which fails the accept ratio and forces one
/// descent), and the straddle is forced on a genuinely coarse bracket.
#[test]
fn coarse_knife_edge_margin_forces_exact_fallback() {
    let params = params_with(4.0, 2.0, 0.00390625, 16.0);
    let ch = SinrChannel::new(params);

    let mut positions = vec![Point::new(0.5, 0.5), Point::new(4.5, 4.5)];
    for _ in 0..64 {
        positions.push(Point::new(16.5, 16.5));
    }
    // Idle pad stretching the bbox to [0, 32]² so the 8×8 tiling has 4×4
    // cells and the tree stacks 8 → 4 → 2 → 1.
    positions.push(Point::new(32.0, 32.0));

    let tx: Vec<usize> = (1..66).collect();
    let ls: Vec<usize> = vec![0];
    let mut engine = tiled(&positions, &params, 8);

    // Structural sanity: the geometry really exercises a coarse accept.
    {
        let tree = tree(&engine);
        assert_eq!(tree.num_levels(), 4, "8×8 fine grid must stack 4 levels");
        let t0 = tree.fine().tile_of(0);
        let tc = tree.fine().tile_of(2);
        assert!(
            tree.fine().chebyshev(t0, tc) > HIER_NEAR_RING,
            "test geometry regressed: far cluster fell inside the near ring"
        );
        assert!(
            tree.fine().chebyshev(t0, tree.fine().tile_of(1)) <= HIER_NEAR_RING,
            "test geometry regressed: the near sender left the near ring"
        );
        // Level-1 node (2, 2) covers fine tiles (4..6)²: it holds exactly
        // the 64-strong cluster and its bbox is a single point, so the
        // certificate is tight and the accept ratio test passes at
        // level 1.
        let l1_cols = tree.level_cols(1);
        let node = 2 * l1_cols + 2;
        assert_eq!(tree.node_count(1, node), 64);
        let (d_min_sq, d_max_sq) = tree.distance_sq_bounds_to(t0, 1, node).unwrap();
        assert_eq!(
            d_min_sq, d_max_sq,
            "a degenerate cluster bbox must give a tight certificate"
        );
    }

    let exact = ch.resolve(&positions, &tx, &ls, &mut SmallRng::seed_from_u64(7));
    let fast = ch.resolve_with(
        &positions,
        &tx,
        &ls,
        &mut engine,
        &ChannelPerturbation::neutral(),
        &SerialExecutor,
        &mut SmallRng::seed_from_u64(7),
        None,
    );
    assert_eq!(exact, fast);
    // The margin is exactly zero, so the bracket cannot settle it: the
    // decision must have come from the exact fallback rung.
    let stats = engine.stats();
    assert_eq!(
        stats.exact_fallbacks(),
        1,
        "knife-edge listener should fall back to the exact scan: {stats:?}"
    );
    assert_eq!(
        stats.bracket_straddle_fallbacks, 1,
        "a zero-margin decision is precisely a bracket straddle: {stats:?}"
    );
    // And the decision itself sits on the boundary: `>=` admits it.
    assert_eq!(exact, vec![Reception::Message { from: 1 }]);
    // The far bracket is the whole cluster, aggregated exactly: 64 gains
    // of 2⁻¹⁴ at both ends, so the straddle really came from the far
    // field and not from a cluster scanned as near.
    let t0 = tree(&engine).fine().tile_of(0);
    assert_eq!(
        hier(&engine).far_aggregate(t0),
        Some((0.00390625, 0.00390625, 2f64.powi(-14)))
    );
}

/// Far-only decode through the tree: the strongest signal lives outside
/// the near ring, so the near scan finds no candidate and the ladder must
/// exit at rung 3 (exact fallback) — and the fallback must recover the far
/// winner exactly.
#[test]
fn far_only_sender_forces_fallback_and_decodes() {
    let params = params_with(3.0, 1.5, 0.1, 1e6);
    let ch = SinrChannel::new(params);

    let positions = vec![
        Point::new(0.0, 0.0),
        Point::new(120.0, 120.0),
        Point::new(60.0, 0.0),
    ];
    let tx = vec![1];
    let ls = vec![0];
    let mut engine = tiled(&positions, &params, 8);
    {
        let tree = tree(&engine);
        let t0 = tree.fine().tile_of(0);
        let t1 = tree.fine().tile_of(1);
        assert!(tree.fine().chebyshev(t0, t1) > HIER_NEAR_RING);
    }

    let exact = ch.resolve(&positions, &tx, &ls, &mut SmallRng::seed_from_u64(21));
    let fast = ch.resolve_with(
        &positions,
        &tx,
        &ls,
        &mut engine,
        &ChannelPerturbation::neutral(),
        &SerialExecutor,
        &mut SmallRng::seed_from_u64(21),
        None,
    );
    assert_eq!(exact, fast);
    assert_eq!(
        exact,
        vec![Reception::Message { from: 1 }],
        "the far transmitter should decode: sig = 10⁶/(120√2)³ ≈ 0.2 ≥ β·noise"
    );
    let stats = engine.stats();
    assert!(
        stats.exact_fallbacks() >= 1,
        "a decodable far-only sender cannot be settled by bounds alone: {stats:?}"
    );
    assert!(
        stats.no_near_winner_fallbacks >= 1,
        "with no near candidate the ladder must exit at rung 3: {stats:?}"
    );
    // The sender reached the listener only as far mass.
    let t0 = tree(&engine).fine().tile_of(0);
    let (lo, _, cap) = hier(&engine)
        .far_aggregate(t0)
        .expect("listener tile traversed");
    assert!(
        lo > 0.0 && cap > 0.0,
        "the sender must be aggregated as far"
    );
}
