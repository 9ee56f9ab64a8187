//! Run results and execution traces.

use serde::{Deserialize, Serialize};

use fading_channel::NodeId;

/// How much detail a simulation records per round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum TraceLevel {
    /// Record nothing (fastest; the default).
    #[default]
    None,
    /// Record per-round aggregate counts ([`RoundRecord`] without ids).
    Counts,
    /// Record counts plus the full transmitter id list per round.
    Full,
}

/// Aggregate record of one simulated round.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundRecord {
    /// 1-based round number.
    pub round: u64,
    /// Number of nodes that **participated** in the round: active, awake
    /// (past any scheduled late wake-up), measured after the round's churn
    /// events were applied — exactly `transmitters + listeners`. For runs
    /// without late-wake churn this equals the active count at the start
    /// of the round.
    pub active_before: usize,
    /// Number of nodes that transmitted.
    pub transmitters: usize,
    /// Number of nodes knocked out (deactivated) by this round's receptions.
    pub knocked_out: usize,
    /// Transmitter ids (only at [`TraceLevel::Full`]).
    pub transmitter_ids: Option<Vec<NodeId>>,
}

/// The recorded history of a run, at the requested [`TraceLevel`].
///
/// Traces are bounded: a run that never resolves (and so hits its round
/// cap) would otherwise grow one record per round without limit at
/// [`TraceLevel::Full`]. The simulation stops recording after
/// [`Trace::DEFAULT_RECORD_CAP`] records (configurable via
/// [`SimConfig::trace_cap`]) with **keep-first** semantics — the
/// earliest rounds are the ones retained, since they carry the active-set
/// decay the analyses consume — and sets [`Trace::truncated`].
///
/// [`SimConfig::trace_cap`]: crate::SimConfig::trace_cap
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    rounds: Vec<RoundRecord>,
    truncated: bool,
}

impl Trace {
    /// Default maximum number of [`RoundRecord`]s retained per run.
    pub const DEFAULT_RECORD_CAP: usize = 65_536;

    /// Reassembles a trace from checkpointed parts (snapshot restore).
    pub(crate) fn from_parts(rounds: Vec<RoundRecord>, truncated: bool) -> Self {
        Trace { rounds, truncated }
    }

    /// Appends `record` unless `cap` records are already held, in which
    /// case the record is dropped and the trace is marked truncated.
    pub(crate) fn push_capped(&mut self, cap: usize, record: RoundRecord) {
        if self.rounds.len() < cap {
            self.rounds.push(record);
        } else {
            self.truncated = true;
        }
    }

    /// Per-round records, in order.
    #[must_use]
    pub fn rounds(&self) -> &[RoundRecord] {
        &self.rounds
    }

    /// Number of recorded rounds.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// `true` if nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// `true` if the run executed more rounds than the trace capacity, so
    /// later records were dropped (keep-first).
    #[must_use]
    pub fn truncated(&self) -> bool {
        self.truncated
    }
}

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
    trace: Trace,
}

impl RunResult {
    pub(crate) fn new(
        resolved_at: Option<u64>,
        rounds_executed: u64,
        initial_nodes: usize,
        final_active: usize,
        winner: Option<NodeId>,
        total_transmissions: u64,
        trace: Trace,
    ) -> Self {
        RunResult {
            resolved_at,
            rounds_executed,
            initial_nodes,
            final_active,
            winner,
            total_transmissions,
            trace,
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
    /// cost in the standard unit-per-broadcast model (always tracked,
    /// independent of the trace level).
    #[must_use]
    pub fn total_transmissions(&self) -> u64 {
        self.total_transmissions
    }

    /// The recorded trace (empty at [`TraceLevel::None`]).
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.trace
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
        let mut trace = Trace::default();
        trace.push_capped(
            Trace::DEFAULT_RECORD_CAP,
            RoundRecord {
                round: 1,
                active_before: 4,
                transmitters: 2,
                knocked_out: 1,
                transmitter_ids: Some(vec![0, 3]),
            },
        );
        let r = RunResult::new(Some(5), 5, 4, 2, Some(3), 9, trace.clone());
        assert!(r.resolved());
        assert_eq!(r.resolved_at(), Some(5));
        assert_eq!(r.rounds_executed(), 5);
        assert_eq!(r.initial_nodes(), 4);
        assert_eq!(r.final_active(), 2);
        assert_eq!(r.winner(), Some(3));
        assert_eq!(r.total_transmissions(), 9);
        assert_eq!(r.trace(), &trace);
        assert_eq!(r.trace().len(), 1);
        assert!(!r.trace().is_empty());
    }

    #[test]
    fn unresolved_result() {
        let r = RunResult::new(None, 100, 10, 7, None, 0, Trace::default());
        assert!(!r.resolved());
        assert_eq!(r.resolved_at(), None);
        assert_eq!(r.winner(), None);
        assert!(r.trace().is_empty());
    }

    #[test]
    fn trace_level_default_is_none() {
        assert_eq!(TraceLevel::default(), TraceLevel::None);
    }

    #[test]
    fn push_capped_keeps_first_records_and_flags_truncation() {
        let rec = |round| RoundRecord {
            round,
            active_before: 2,
            transmitters: 2,
            knocked_out: 0,
            transmitter_ids: None,
        };
        let mut trace = Trace::default();
        assert!(!trace.truncated());
        for round in 1..=5 {
            trace.push_capped(3, rec(round));
        }
        assert_eq!(trace.len(), 3);
        assert!(trace.truncated());
        let kept: Vec<u64> = trace.rounds().iter().map(|r| r.round).collect();
        assert_eq!(kept, vec![1, 2, 3], "keep-first semantics");
        // Under the cap, the flag stays clear.
        let mut small = Trace::default();
        small.push_capped(3, rec(1));
        assert!(!small.truncated());
        assert_eq!(small.len(), 1);
    }

    #[test]
    fn outcome_distinguishes_resolution_from_cap_exhaustion() {
        let resolved = RunResult::new(Some(5), 5, 4, 2, Some(3), 9, Trace::default());
        assert_eq!(
            resolved.outcome(),
            RunOutcome::Resolved {
                round: 5,
                winner: Some(3)
            }
        );
        assert!(resolved.outcome().is_resolved());

        let capped = RunResult::new(None, 100, 10, 7, None, 0, Trace::default());
        assert_eq!(
            capped.outcome(),
            RunOutcome::RoundCapExhausted {
                rounds_executed: 100
            }
        );
        assert!(!capped.outcome().is_resolved());
    }
}
