//! Run results.

use serde::{Deserialize, Serialize};

use fading_channel::NodeId;

/// How a run ended, as an explicit enum (every run falls into exactly one
/// case — there is no silent third state).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunOutcome {
    /// Some round had exactly one active transmitter.
    Resolved {
        /// The 1-based resolving round.
        round: u64,
        /// The solo transmitter, when known (always `Some` for results
        /// produced by a simulation run).
        winner: Option<NodeId>,
    },
    /// The round budget ran out before any round resolved.
    RoundCapExhausted {
        /// Rounds actually executed (the budget).
        rounds_executed: u64,
    },
}

impl RunOutcome {
    /// `true` iff contention was resolved.
    #[must_use]
    pub fn is_resolved(&self) -> bool {
        matches!(self, RunOutcome::Resolved { .. })
    }
}

/// The outcome of [`Simulation::run_until_resolved`].
///
/// [`Simulation::run_until_resolved`]: crate::Simulation::run_until_resolved
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    resolved_at: Option<u64>,
    rounds_executed: u64,
    initial_nodes: usize,
    final_active: usize,
    winner: Option<NodeId>,
    total_transmissions: u64,
}

impl RunResult {
    pub(crate) fn new(
        resolved_at: Option<u64>,
        rounds_executed: u64,
        initial_nodes: usize,
        final_active: usize,
        winner: Option<NodeId>,
        total_transmissions: u64,
    ) -> Self {
        RunResult {
            resolved_at,
            rounds_executed,
            initial_nodes,
            final_active,
            winner,
            total_transmissions,
        }
    }

    /// `true` iff contention was resolved (some round had exactly one active
    /// transmitter) within the round budget.
    #[must_use]
    pub fn resolved(&self) -> bool {
        self.resolved_at.is_some()
    }

    /// The 1-based round in which contention was resolved, if it was.
    #[must_use]
    pub fn resolved_at(&self) -> Option<u64> {
        self.resolved_at
    }

    /// Rounds actually executed (equals `resolved_at` on success, or the
    /// budget on failure).
    #[must_use]
    pub fn rounds_executed(&self) -> u64 {
        self.rounds_executed
    }

    /// Number of nodes at the start of the run.
    #[must_use]
    pub fn initial_nodes(&self) -> usize {
        self.initial_nodes
    }

    /// Number of nodes still active when the run ended.
    #[must_use]
    pub fn final_active(&self) -> usize {
        self.final_active
    }

    /// The node whose solo transmission resolved contention, if resolved.
    #[must_use]
    pub fn winner(&self) -> Option<NodeId> {
        self.winner
    }

    /// Total transmissions across all nodes and rounds — the run's energy
    /// cost in the standard unit-per-broadcast model.
    #[must_use]
    pub fn total_transmissions(&self) -> u64 {
        self.total_transmissions
    }

    /// The run's ending as an explicit [`RunOutcome`]: either it resolved
    /// in a specific round, or it exhausted its round cap. Useful where a
    /// bare `Option<u64>` would be ambiguous about *why* there is no round.
    #[must_use]
    pub fn outcome(&self) -> RunOutcome {
        match self.resolved_at {
            Some(round) => RunOutcome::Resolved {
                round,
                winner: self.winner,
            },
            None => RunOutcome::RoundCapExhausted {
                rounds_executed: self.rounds_executed,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_round_trip() {
        let r = RunResult::new(Some(5), 5, 4, 2, Some(3), 9);
        assert!(r.resolved());
        assert_eq!(r.resolved_at(), Some(5));
        assert_eq!(r.rounds_executed(), 5);
        assert_eq!(r.initial_nodes(), 4);
        assert_eq!(r.final_active(), 2);
        assert_eq!(r.winner(), Some(3));
        assert_eq!(r.total_transmissions(), 9);
    }

    #[test]
    fn unresolved_result() {
        let r = RunResult::new(None, 100, 10, 7, None, 0);
        assert!(!r.resolved());
        assert_eq!(r.resolved_at(), None);
        assert_eq!(r.winner(), None);
    }

    #[test]
    fn outcome_distinguishes_resolution_from_cap_exhaustion() {
        let resolved = RunResult::new(Some(5), 5, 4, 2, Some(3), 9);
        assert_eq!(
            resolved.outcome(),
            RunOutcome::Resolved {
                round: 5,
                winner: Some(3)
            }
        );
        assert!(resolved.outcome().is_resolved());

        let capped = RunResult::new(None, 100, 10, 7, None, 0);
        assert_eq!(
            capped.outcome(),
            RunOutcome::RoundCapExhausted {
                rounds_executed: 100
            }
        );
        assert!(!capped.outcome().is_resolved());
    }
}
