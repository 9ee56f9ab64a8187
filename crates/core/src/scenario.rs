//! Validated scenario construction.

use std::error::Error;
use std::fmt;
use std::sync::{Arc, OnceLock};

use fading_channel::{ChannelError, EngineTables};
use fading_geom::Deployment;
use fading_protocols::ProtocolKind;
use fading_sim::faults::{FaultError, FaultPlan};
use fading_sim::{montecarlo, RunResult, SimConfig, Simulation};

use crate::ChannelKind;

/// Errors from building or validating a [`Scenario`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ScenarioError {
    /// No deployment was supplied.
    MissingDeployment,
    /// No channel was supplied.
    MissingChannel,
    /// No protocol was supplied.
    MissingProtocol,
    /// The deployment violates the paper's single-hop admissibility
    /// condition under the chosen SINR parameters.
    NotSingleHop(ChannelError),
    /// The fault plan does not fit the deployment (e.g. a churn event
    /// names a node outside it).
    InvalidFaultPlan(FaultError),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::MissingDeployment => write!(f, "scenario needs a deployment"),
            ScenarioError::MissingChannel => write!(f, "scenario needs a channel"),
            ScenarioError::MissingProtocol => write!(f, "scenario needs a protocol"),
            ScenarioError::NotSingleHop(e) => write!(f, "deployment is not single-hop: {e}"),
            ScenarioError::InvalidFaultPlan(e) => write!(f, "invalid fault plan: {e}"),
        }
    }
}

impl Error for ScenarioError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ScenarioError::NotSingleHop(e) => Some(e),
            ScenarioError::InvalidFaultPlan(e) => Some(e),
            _ => None,
        }
    }
}

/// A fully specified, validated experiment unit: deployment × channel ×
/// protocol × seed.
///
/// Build via [`Scenario::builder`]. Validation enforces the paper's model
/// assumptions — in particular, SINR scenarios must satisfy the single-hop
/// condition `P > 4·β·N·(longest link)^α`; use
/// [`SinrParams::with_power_for`](fading_channel::SinrParams::with_power_for)
/// to auto-scale power when sweeping deployment sizes.
///
/// The deployment is static, so the engine tables precomputed from it
/// ([`SimConfig::build_tables`]) are built once per scenario, at its first
/// simulation. Every later simulation, on any thread and from any clone
/// of the scenario, shares them, and every simulation shares the
/// deployment's positions: a trial copies no geometry.
///
/// See the [crate-level quickstart](crate).
#[derive(Debug, Clone)]
pub struct Scenario {
    deployment: Deployment,
    channel: ChannelKind,
    protocol: ProtocolKind,
    seed: u64,
    fault_plan: Option<FaultPlan>,
    /// Built by the first simulation; clones share the cell.
    tables: Arc<OnceLock<EngineTables>>,
}

impl Scenario {
    /// Starts building a scenario.
    #[must_use]
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::default()
    }

    /// The deployment under test.
    #[must_use]
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// The channel configuration.
    #[must_use]
    pub fn channel(&self) -> ChannelKind {
        self.channel
    }

    /// The protocol configuration.
    #[must_use]
    pub fn protocol(&self) -> ProtocolKind {
        self.protocol
    }

    /// The master seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The fault plan attached to every simulation built from this
    /// scenario, if any.
    #[must_use]
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// The engine tables this scenario's simulations share, or `None`
    /// before its first simulation built them.
    #[must_use]
    pub fn tables(&self) -> Option<&EngineTables> {
        self.tables.get()
    }

    /// Builds a fresh simulation. The first one (of this scenario or any
    /// clone) builds the engine tables every later one shares; no
    /// simulation copies the positions.
    #[must_use]
    pub fn simulation(&self) -> Simulation {
        self.simulation_with_seed(self.seed)
    }

    /// Builds a fresh simulation with an explicit seed (used by Monte-Carlo
    /// sweeps; all other configuration, and the engine tables, are shared).
    #[must_use]
    pub fn simulation_with_seed(&self, seed: u64) -> Simulation {
        let protocol = self.protocol;
        let config = SimConfig {
            fault_plan: self.fault_plan.clone(),
            ..SimConfig::default()
        };
        let tables = self.tables.get_or_init(|| {
            config.build_tables(self.channel.build().as_ref(), self.deployment.points())
        });
        match Simulation::try_with_tables(
            self.deployment.shared_points(),
            tables,
            self.channel.build(),
            seed,
            config,
            move |id| protocol.build(id),
        ) {
            Ok(sim) => sim,
            // The builder validated the plan against the deployment, which
            // is never empty, and every protocol starts active.
            Err(e) => unreachable!("scenario validated at build time: {e}"),
        }
    }

    /// Runs to resolution (or the round budget) and returns the result.
    #[must_use]
    pub fn run(&self, max_rounds: u64) -> RunResult {
        self.simulation().run_until_resolved(max_rounds)
    }

    /// Runs `trials` seeded trials (seeds `seed, seed+1, …`) in parallel on
    /// `threads` workers, returning per-trial results in seed order.
    #[must_use]
    pub fn montecarlo(&self, trials: usize, threads: usize, max_rounds: u64) -> Vec<RunResult> {
        montecarlo::run_trials(trials, threads, self.seed, |seed| {
            self.simulation_with_seed(seed)
                .run_until_resolved(max_rounds)
        })
    }
}

/// Builder for [`Scenario`].
#[derive(Debug, Clone, Default)]
pub struct ScenarioBuilder {
    deployment: Option<Deployment>,
    channel: Option<ChannelKind>,
    protocol: Option<ProtocolKind>,
    seed: u64,
    fault_plan: Option<FaultPlan>,
}

impl ScenarioBuilder {
    /// Sets the deployment.
    pub fn deployment(&mut self, deployment: Deployment) -> &mut Self {
        self.deployment = Some(deployment);
        self
    }

    /// Uses the SINR channel with the given parameters.
    pub fn sinr(&mut self, params: fading_channel::SinrParams) -> &mut Self {
        self.channel = Some(ChannelKind::Sinr(params));
        self
    }

    /// Uses the classical radio channel.
    pub fn radio(&mut self) -> &mut Self {
        self.channel = Some(ChannelKind::Radio);
        self
    }

    /// Uses the collision-detection radio channel.
    pub fn radio_cd(&mut self) -> &mut Self {
        self.channel = Some(ChannelKind::RadioCd);
        self
    }

    /// Uses an explicit channel kind.
    pub fn channel(&mut self, kind: ChannelKind) -> &mut Self {
        self.channel = Some(kind);
        self
    }

    /// Sets the protocol.
    pub fn protocol(&mut self, kind: ProtocolKind) -> &mut Self {
        self.protocol = Some(kind);
        self
    }

    /// Sets the master seed (default 0).
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Attaches a fault plan (jammers, noise bursts, churn, burst loss) to
    /// every simulation built from the scenario. Validated against the
    /// deployment at [`ScenarioBuilder::build`] time.
    pub fn fault_plan(&mut self, plan: FaultPlan) -> &mut Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Validates and produces the scenario.
    ///
    /// # Errors
    ///
    /// * [`ScenarioError::MissingDeployment`] / [`ScenarioError::MissingChannel`] /
    ///   [`ScenarioError::MissingProtocol`] if a component is unset.
    /// * [`ScenarioError::NotSingleHop`] if a SINR-family channel's power is
    ///   insufficient for the deployment's longest link.
    /// * [`ScenarioError::InvalidFaultPlan`] if an attached fault plan does
    ///   not fit the deployment.
    pub fn build(&self) -> Result<Scenario, ScenarioError> {
        let deployment = self
            .deployment
            .clone()
            .ok_or(ScenarioError::MissingDeployment)?;
        let channel = self.channel.ok_or(ScenarioError::MissingChannel)?;
        let protocol = self.protocol.ok_or(ScenarioError::MissingProtocol)?;
        if let Some(params) = channel.sinr_params() {
            params
                .admits_single_hop(&deployment)
                .map_err(ScenarioError::NotSingleHop)?;
        }
        if let Some(plan) = &self.fault_plan {
            plan.validate_for(deployment.len())
                .map_err(ScenarioError::InvalidFaultPlan)?;
        }
        Ok(Scenario {
            deployment,
            channel,
            protocol,
            seed: self.seed,
            fault_plan: self.fault_plan.clone(),
            tables: Arc::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fading_channel::SinrParams;

    fn small_deployment() -> Deployment {
        Deployment::uniform_square(16, 10.0, 1)
    }

    #[test]
    fn builder_requires_all_components() {
        let err = Scenario::builder().build().unwrap_err();
        assert_eq!(err, ScenarioError::MissingDeployment);
        let err = Scenario::builder()
            .deployment(small_deployment())
            .build()
            .unwrap_err();
        assert_eq!(err, ScenarioError::MissingChannel);
        let err = Scenario::builder()
            .deployment(small_deployment())
            .radio()
            .build()
            .unwrap_err();
        assert_eq!(err, ScenarioError::MissingProtocol);
    }

    #[test]
    fn sinr_scenario_validates_single_hop() {
        let weak = SinrParams::builder().power(1.0).build().unwrap();
        let err = Scenario::builder()
            .deployment(small_deployment())
            .sinr(weak)
            .protocol(ProtocolKind::fkn_default())
            .build()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::NotSingleHop(_)));
    }

    #[test]
    fn radio_scenario_skips_single_hop_check() {
        let s = Scenario::builder()
            .deployment(small_deployment())
            .radio()
            .protocol(ProtocolKind::DecayClassic)
            .seed(5)
            .build()
            .unwrap();
        assert_eq!(s.seed(), 5);
        assert_eq!(s.channel().label(), "radio");
    }

    #[test]
    fn run_resolves_and_montecarlo_is_seed_ordered() {
        let s = Scenario::builder()
            .deployment(small_deployment())
            .sinr(SinrParams::default_single_hop())
            .protocol(ProtocolKind::fkn_default())
            .seed(100)
            .build()
            .unwrap();
        let r = s.run(10_000);
        assert!(r.resolved());
        let batch = s.montecarlo(4, 2, 10_000);
        assert_eq!(batch.len(), 4);
        // Trial 0 uses the scenario seed itself.
        assert_eq!(batch[0].resolved_at(), r.resolved_at());
    }

    #[test]
    fn tables_are_built_once_at_the_first_simulation_and_shared() {
        use fading_channel::EngineTier;
        use fading_sim::montecarlo::run_trials_with;
        let small = small_deployment();
        let large = Deployment::uniform_density(4097, 0.25, 1);
        let large_params = SinrParams::default_single_hop().with_power_for(&large);
        for (deployment, params, tier) in [
            (
                small,
                SinrParams::default_single_hop(),
                EngineTier::GainCache,
            ),
            (large, large_params, EngineTier::Hierarchical),
        ] {
            let s = Scenario::builder()
                .deployment(deployment)
                .sinr(params)
                .protocol(ProtocolKind::fkn_default())
                .seed(100)
                .build()
                .unwrap();
            assert!(s.tables().is_none(), "the builder builds no tables");
            let clone = s.clone();
            // Four trial threads race to the first simulation of a fresh
            // scenario; one builds, and every simulation, on any thread
            // and from either handle, runs (a round) over that one build.
            let engines = run_trials_with(8, 4, 0, |seed| {
                let handle = if seed % 2 == 0 { &s } else { &clone };
                let mut sim = handle.simulation_with_seed(seed);
                (sim.run_until_resolved(1), sim.engine().tables())
            });
            let built = s.tables().expect("the first simulation built the tables");
            assert!(clone.tables().expect("clones share the cell").ptr_eq(built));
            assert_eq!(built.tier(), tier);
            assert!(
                engines.iter().all(|(_, t)| t.ptr_eq(built)),
                "one build for {tier:?}"
            );
        }
    }

    #[test]
    fn shared_tables_run_like_private_ones() {
        let s = Scenario::builder()
            .deployment(small_deployment())
            .sinr(SinrParams::default_single_hop())
            .protocol(ProtocolKind::fkn_default())
            .seed(100)
            .build()
            .unwrap();
        let batch = s.montecarlo(6, 3, 10_000);
        for (seed, shared) in (100..).zip(&batch) {
            let protocol = s.protocol();
            let mut private = Simulation::new(
                s.deployment().clone(),
                s.channel().build(),
                seed,
                move |id| protocol.build(id),
            );
            assert_eq!(*shared, private.run_until_resolved(10_000), "seed {seed}");
            assert!(private.engine_counters().gain_cache_built);
        }
    }

    #[test]
    fn error_display_and_source() {
        let e = ScenarioError::MissingChannel;
        assert!(e.to_string().contains("channel"));
        let weak = SinrParams::builder().power(1.0).build().unwrap();
        let nested = weak.admits_single_hop(&small_deployment()).unwrap_err();
        let e = ScenarioError::NotSingleHop(nested);
        assert!(e.source().is_some());
        let e = ScenarioError::InvalidFaultPlan(FaultError::RoundZero);
        assert!(e.to_string().contains("fault plan"));
        assert!(e.source().is_some());
    }

    #[test]
    fn fault_plan_is_validated_against_the_deployment() {
        use fading_sim::faults::ChurnEvent;
        let plan = FaultPlan::new().with_churn(ChurnEvent::crash(2, 99).unwrap());
        let err = Scenario::builder()
            .deployment(small_deployment()) // 16 nodes — node 99 is out of range
            .sinr(SinrParams::default_single_hop())
            .protocol(ProtocolKind::fkn_default())
            .fault_plan(plan)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            ScenarioError::InvalidFaultPlan(FaultError::NodeOutOfRange { node: 99, .. })
        ));
    }

    #[test]
    fn fault_plan_propagates_to_simulations() {
        use fading_sim::faults::ChurnEvent;
        let plan = FaultPlan::new().with_churn(ChurnEvent::crash(1, 3).unwrap());
        let s = Scenario::builder()
            .deployment(small_deployment())
            .sinr(SinrParams::default_single_hop())
            .protocol(ProtocolKind::fkn_default())
            .fault_plan(plan.clone())
            .build()
            .unwrap();
        assert_eq!(s.fault_plan(), Some(&plan));
        let mut sim = s.simulation();
        assert_eq!(sim.fault_plan(), Some(&plan));
        sim.step();
        assert!(!sim.is_active(3), "scheduled crash must fire in round 1");
    }
}
