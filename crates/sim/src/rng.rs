//! Deterministic RNG derivation.
//!
//! Every random stream in a simulation is derived from one master seed:
//! node `i` draws from `SmallRng(split_mix64(seed ⊕ f(i)))` and the channel
//! from an independent lane. SplitMix64 is the standard seed-spreading
//! permutation (Steele, Lea, Flood 2014); it guarantees that structured
//! master seeds (0, 1, 2, …) still yield well-separated streams.

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The SplitMix64 finalizer: a bijective avalanche permutation on `u64`.
///
/// # Example
///
/// ```
/// use fading_sim::split_mix64;
/// // Deterministic and well-spread even for adjacent inputs.
/// assert_ne!(split_mix64(1), split_mix64(2));
/// assert_eq!(split_mix64(42), split_mix64(42));
/// ```
#[must_use]
pub fn split_mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The private RNG of node `node` in a simulation with master seed `seed`.
#[must_use]
pub fn node_rng(seed: u64, node: usize) -> SmallRng {
    SmallRng::seed_from_u64(split_mix64(
        seed ^ split_mix64(0x4E4F_4445_0000_0000 ^ node as u64),
    ))
}

/// The channel's RNG lane (used by stochastic channels such as Rayleigh
/// fading) for master seed `seed`.
#[must_use]
pub fn channel_rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(split_mix64(seed ^ 0xC8A4_4E4C_0000_0001))
}

/// The fault-injection RNG lane (Gilbert–Elliott state transitions and
/// burst-loss draws) for master seed `seed`.
///
/// Kept separate from [`channel_rng`] so that attaching a fault plan never
/// perturbs the channel's own random stream: a plan whose loss model is
/// disabled leaves the trajectory byte-identical to a run with no plan.
#[must_use]
pub fn fault_rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(split_mix64(seed ^ 0xFA17_1A4E_0000_0002))
}

/// The engine self-check RNG lane (listener sampling for the opt-in
/// [self-check](crate::SimConfig::self_check) re-resolution audit)
/// for master seed `seed`.
///
/// Kept separate from every other lane so that enabling self-checks never
/// perturbs the node, channel, or fault streams: a run with self-checks on
/// is byte-identical to the same run with them off.
#[must_use]
pub fn self_check_rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(split_mix64(seed ^ 0x5E1F_C8EC_0000_0003))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn split_mix_is_deterministic() {
        assert_eq!(split_mix64(0), split_mix64(0));
        assert_eq!(split_mix64(u64::MAX), split_mix64(u64::MAX));
    }

    #[test]
    fn adjacent_seeds_diverge() {
        // Adjacent master seeds must give different node streams.
        let a: u64 = node_rng(1, 0).gen();
        let b: u64 = node_rng(2, 0).gen();
        assert_ne!(a, b);
    }

    #[test]
    fn adjacent_nodes_diverge() {
        let a: u64 = node_rng(7, 0).gen();
        let b: u64 = node_rng(7, 1).gen();
        assert_ne!(a, b);
    }

    #[test]
    fn channel_lane_differs_from_node_lanes() {
        let c: u64 = channel_rng(7).gen();
        for node in 0..64 {
            let n: u64 = node_rng(7, node).gen();
            assert_ne!(c, n, "channel lane collided with node {node}");
        }
    }

    #[test]
    fn fault_lane_is_independent() {
        let f: u64 = fault_rng(7).gen();
        let c: u64 = channel_rng(7).gen();
        assert_ne!(f, c, "fault lane collided with channel lane");
        for node in 0..64 {
            let n: u64 = node_rng(7, node).gen();
            assert_ne!(f, n, "fault lane collided with node {node}");
        }
        let a: u64 = fault_rng(1).gen();
        let b: u64 = fault_rng(2).gen();
        assert_ne!(a, b);
    }

    #[test]
    fn self_check_lane_is_independent() {
        let s: u64 = self_check_rng(7).gen();
        assert_ne!(s, channel_rng(7).gen::<u64>());
        assert_ne!(s, fault_rng(7).gen::<u64>());
        for node in 0..64 {
            let n: u64 = node_rng(7, node).gen();
            assert_ne!(s, n, "self-check lane collided with node {node}");
        }
    }

    #[test]
    fn split_mix_avalanches_low_bits() {
        // Flipping one input bit should flip roughly half the output bits.
        let mut total = 0u32;
        for i in 0..64u64 {
            let flipped = (split_mix64(i) ^ split_mix64(i ^ 1)).count_ones();
            total += flipped;
        }
        let avg = f64::from(total) / 64.0;
        assert!((20.0..44.0).contains(&avg), "poor avalanche: {avg}");
    }
}
