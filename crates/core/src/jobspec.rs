//! Serializable Monte-Carlo job specifications — the wire format of the
//! service layer.
//!
//! A [`JobSpec`] is everything `fading-server` needs to run one
//! Monte-Carlo batch: a deployment recipe (size × density × seed), a
//! channel family, a [`ProtocolKind`], and the trial envelope (count,
//! seed base, round budget). Specs travel as single-line JSON objects —
//! through the job-file queue or over the local socket — parsed with the
//! same hand-rolled [`jsonl`](fading_sim::telemetry::jsonl) machinery the
//! telemetry layer uses, so the server adds no serialization dependency.
//!
//! Deployment-dependent SINR power scaling is *derived*, not serialized:
//! the spec stores the deployment recipe and [`JobSpec::build_scenario`]
//! re-derives `SinrParams::default_single_hop().with_power_for(..)`
//! deterministically, so a spec that validates on the client validates
//! identically on the server.

use std::fmt;

use fading_channel::SinrParams;
use fading_geom::Deployment;
use fading_protocols::ProtocolKind;
use fading_sim::telemetry::jsonl::{fmt_f64, parse_json, JsonValue};

use crate::channel_kind::ChannelKind;
use crate::scenario::{Scenario, ScenarioError};

/// Longest accepted job id (ids become directory names).
pub const MAX_ID_LEN: usize = 64;

/// Largest accepted deployment size. A job's deployment and its engine
/// are allocated in proportion to `n`, so an unbounded `n` lets one submit
/// exhaust the server's memory.
pub const MAX_JOB_NODES: usize = 1 << 20;

/// Largest accepted trial count. The trial runner reserves one result slot
/// per trial up front.
pub const MAX_JOB_TRIALS: usize = 1 << 20;

/// Largest accepted per-trial round budget. A spec that practically
/// never resolves (say `FixedProbability` at `p = 1 − 10⁻¹²` on two
/// nodes) runs its whole budget.
pub const MAX_JOB_ROUNDS: u64 = 1 << 20;

/// Largest accepted job work: `n × trials × max_rounds`, the node-rounds
/// a job may run if no trial resolves early. Each bound above still
/// admits 2⁶⁰ node-rounds on its own. 2³⁶ admits the largest benchmark
/// job (n = 2¹⁸, one trial of at most 100 000 rounds, ≈ 2^34.6) with
/// room to spare.
pub const MAX_JOB_WORK: u128 = 1 << 36;

/// A serializable channel family choice. SINR parameters are derived from
/// the deployment at build time (see the module docs), so only the family
/// — plus the lossy drop probability — is persisted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChannelSpec {
    /// The paper's fading channel, power auto-scaled to the deployment.
    Sinr,
    /// The classical radio network model.
    Radio,
    /// Radio with receiver collision detection.
    RadioCd,
    /// SINR with i.i.d. per-round Rayleigh fading.
    Rayleigh,
    /// SINR with i.i.d. per-reception drops.
    Lossy {
        /// Per-reception drop probability, in `[0, 1)`.
        drop_prob: f64,
    },
}

impl ChannelSpec {
    /// The stable wire label (matches [`ChannelKind::label`]).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            ChannelSpec::Sinr => "sinr",
            ChannelSpec::Radio => "radio",
            ChannelSpec::RadioCd => "radio-cd",
            ChannelSpec::Rayleigh => "rayleigh",
            ChannelSpec::Lossy { .. } => "lossy-sinr",
        }
    }

    /// Instantiates the [`ChannelKind`] for a concrete deployment.
    #[must_use]
    pub fn to_kind(&self, deployment: &Deployment) -> ChannelKind {
        let params = || SinrParams::default_single_hop().with_power_for(deployment);
        match *self {
            ChannelSpec::Sinr => ChannelKind::Sinr(params()),
            ChannelSpec::Radio => ChannelKind::Radio,
            ChannelSpec::RadioCd => ChannelKind::RadioCd,
            ChannelSpec::Rayleigh => ChannelKind::RayleighSinr(params()),
            ChannelSpec::Lossy { drop_prob } => ChannelKind::LossySinr {
                params: params(),
                drop_prob,
            },
        }
    }
}

/// One Monte-Carlo batch, as submitted to `fading-server`.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Job identifier: nonempty, `[A-Za-z0-9._-]`, at most [`MAX_ID_LEN`]
    /// chars (it names the job's output directory).
    pub id: String,
    /// Network size.
    pub n: usize,
    /// Deployment density (nodes per unit area); the square side is
    /// derived as `sqrt(n / density)`.
    pub density: f64,
    /// Seed for the deployment placement.
    pub deploy_seed: u64,
    /// Protocol under test.
    pub protocol: ProtocolKind,
    /// Channel family.
    pub channel: ChannelSpec,
    /// Number of independent trials.
    pub trials: usize,
    /// First trial seed; trial `i` uses `seed_base + i`.
    pub seed_base: u64,
    /// Per-trial round budget.
    pub max_rounds: u64,
    /// Whether the server should stream per-round telemetry events into
    /// the job's output directory (count-level detail).
    pub telemetry: bool,
}

/// Why a [`JobSpec`] was rejected.
#[derive(Debug)]
pub enum JobSpecError {
    /// The submitted text was not a valid spec object.
    Parse(String),
    /// The spec parsed but a field is out of range.
    Invalid(String),
    /// The spec's scenario failed [`Scenario`] validation.
    Scenario(ScenarioError),
}

impl fmt::Display for JobSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobSpecError::Parse(msg) => write!(f, "job spec parse error: {msg}"),
            JobSpecError::Invalid(msg) => write!(f, "invalid job spec: {msg}"),
            JobSpecError::Scenario(e) => write!(f, "job spec rejected by scenario: {e}"),
        }
    }
}

impl std::error::Error for JobSpecError {}

impl From<ScenarioError> for JobSpecError {
    fn from(e: ScenarioError) -> Self {
        JobSpecError::Scenario(e)
    }
}

fn invalid(msg: impl Into<String>) -> JobSpecError {
    JobSpecError::Invalid(msg.into())
}

impl JobSpec {
    /// A small, always-valid spec — the starting point tests and load
    /// generators tweak.
    #[must_use]
    pub fn example(id: &str) -> JobSpec {
        JobSpec {
            id: id.to_string(),
            n: 32,
            density: 0.25,
            deploy_seed: 7,
            protocol: ProtocolKind::fkn_default(),
            channel: ChannelSpec::Sinr,
            trials: 4,
            seed_base: 1,
            max_rounds: 100_000,
            telemetry: false,
        }
    }

    /// Serializes the spec as one JSON line (no trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256);
        s.push_str(&format!(
            "{{\"id\":\"{}\",\"n\":{},\"density\":",
            self.id, self.n
        ));
        fmt_f64(&mut s, self.density);
        s.push_str(&format!(
            ",\"deploy_seed\":{},\"trials\":{},\"seed_base\":{},\"max_rounds\":{},\"telemetry\":{}",
            self.deploy_seed, self.trials, self.seed_base, self.max_rounds, self.telemetry,
        ));
        s.push_str(",\"protocol\":{");
        s.push_str(&format!("\"kind\":\"{}\"", self.protocol.label()));
        match self.protocol {
            ProtocolKind::Fkn { p } | ProtocolKind::FixedProbability { p } => {
                s.push_str(",\"p\":");
                fmt_f64(&mut s, p);
            }
            ProtocolKind::Aloha { n } => s.push_str(&format!(",\"n\":{n}")),
            ProtocolKind::CyclicSweep { n_bound }
            | ProtocolKind::JurdzinskiStachowiak { n_bound } => {
                s.push_str(&format!(",\"n_bound\":{n_bound}"));
            }
            ProtocolKind::FknInterleavedJs { p, n_bound } => {
                s.push_str(",\"p\":");
                fmt_f64(&mut s, p);
                s.push_str(&format!(",\"n_bound\":{n_bound}"));
            }
            ProtocolKind::Decay | ProtocolKind::DecayClassic | ProtocolKind::CdElection => {}
            // `ProtocolKind` is non_exhaustive; new variants must extend
            // the wire format before they can travel.
            #[allow(unreachable_patterns)]
            other => unreachable!("unserialized protocol kind {other:?}"),
        }
        s.push_str("},\"channel\":{");
        s.push_str(&format!("\"kind\":\"{}\"", self.channel.label()));
        if let ChannelSpec::Lossy { drop_prob } = self.channel {
            s.push_str(",\"drop_prob\":");
            fmt_f64(&mut s, drop_prob);
        }
        s.push_str("}}");
        s
    }

    /// Parses and validates a spec from one JSON line.
    ///
    /// # Errors
    ///
    /// [`JobSpecError::Parse`] for malformed JSON or missing fields,
    /// [`JobSpecError::Invalid`] for out-of-range values.
    pub fn from_json(line: &str) -> Result<JobSpec, JobSpecError> {
        let v = parse_json(line).map_err(|e| JobSpecError::Parse(e.to_string()))?;
        JobSpec::from_value(&v)
    }

    /// Parses and validates a spec from an already-parsed JSON object
    /// (e.g. the `"job"` field of a socket submit request).
    ///
    /// # Errors
    ///
    /// As [`JobSpec::from_json`].
    pub fn from_value(v: &JsonValue) -> Result<JobSpec, JobSpecError> {
        let str_field = |key: &str| -> Result<String, JobSpecError> {
            v.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| JobSpecError::Parse(format!("missing string field \"{key}\"")))
        };
        let f64_of = |obj: &JsonValue, key: &str| -> Result<f64, JobSpecError> {
            obj.get(key)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| JobSpecError::Parse(format!("missing numeric field \"{key}\"")))
        };
        let u64_of = |obj: &JsonValue, key: &str| -> Result<u64, JobSpecError> {
            f64_of(obj, key)?;
            obj.get(key).and_then(JsonValue::as_u64).ok_or_else(|| {
                invalid(format!(
                    "field \"{key}\" must be a non-negative integer below 2^53"
                ))
            })
        };
        let usize_of = |obj: &JsonValue, key: &str| -> Result<usize, JobSpecError> {
            usize::try_from(u64_of(obj, key)?)
                .map_err(|_| invalid(format!("field \"{key}\" out of range")))
        };

        let id = str_field("id")?;
        let protocol_obj = v
            .get("protocol")
            .ok_or_else(|| JobSpecError::Parse("missing object field \"protocol\"".into()))?;
        let protocol_kind = protocol_obj
            .get("kind")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| JobSpecError::Parse("missing \"protocol.kind\"".into()))?;
        let protocol = match protocol_kind {
            "fkn" => ProtocolKind::Fkn {
                p: f64_of(protocol_obj, "p")?,
            },
            "decay" => ProtocolKind::Decay,
            "decay-classic" => ProtocolKind::DecayClassic,
            "aloha" => ProtocolKind::Aloha {
                n: usize_of(protocol_obj, "n")?,
            },
            "cyclic-sweep" => ProtocolKind::CyclicSweep {
                n_bound: usize_of(protocol_obj, "n_bound")?,
            },
            "cd-election" => ProtocolKind::CdElection,
            "js15" => ProtocolKind::JurdzinskiStachowiak {
                n_bound: usize_of(protocol_obj, "n_bound")?,
            },
            "fixed-p" => ProtocolKind::FixedProbability {
                p: f64_of(protocol_obj, "p")?,
            },
            "fkn+js15" => ProtocolKind::FknInterleavedJs {
                p: f64_of(protocol_obj, "p")?,
                n_bound: usize_of(protocol_obj, "n_bound")?,
            },
            other => return Err(invalid(format!("unknown protocol kind \"{other}\""))),
        };
        let channel_obj = v
            .get("channel")
            .ok_or_else(|| JobSpecError::Parse("missing object field \"channel\"".into()))?;
        let channel_kind = channel_obj
            .get("kind")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| JobSpecError::Parse("missing \"channel.kind\"".into()))?;
        let channel = match channel_kind {
            "sinr" => ChannelSpec::Sinr,
            "radio" => ChannelSpec::Radio,
            "radio-cd" => ChannelSpec::RadioCd,
            "rayleigh" => ChannelSpec::Rayleigh,
            "lossy-sinr" => ChannelSpec::Lossy {
                drop_prob: f64_of(channel_obj, "drop_prob")?,
            },
            other => return Err(invalid(format!("unknown channel kind \"{other}\""))),
        };
        let telemetry = match v.get("telemetry") {
            None => false,
            Some(t) => t
                .as_bool()
                .ok_or_else(|| invalid("field \"telemetry\" must be a bool"))?,
        };
        let spec = JobSpec {
            id,
            n: usize_of(v, "n")?,
            density: f64_of(v, "density")?,
            deploy_seed: u64_of(v, "deploy_seed")?,
            protocol,
            channel,
            trials: usize_of(v, "trials")?,
            seed_base: u64_of(v, "seed_base")?,
            max_rounds: u64_of(v, "max_rounds")?,
            telemetry,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Checks every field range (without building the deployment, which
    /// can be expensive at huge `n`).
    ///
    /// # Errors
    ///
    /// [`JobSpecError::Invalid`] naming the offending field.
    pub fn validate(&self) -> Result<(), JobSpecError> {
        if self.id.is_empty() || self.id.len() > MAX_ID_LEN {
            return Err(invalid(format!("id must be 1..={MAX_ID_LEN} characters")));
        }
        if !self
            .id
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
        {
            return Err(invalid("id may only contain [A-Za-z0-9._-]"));
        }
        if self.n < 2 {
            return Err(invalid("n must be at least 2"));
        }
        if self.n > MAX_JOB_NODES {
            return Err(invalid(format!("n must be at most {MAX_JOB_NODES}")));
        }
        if self.density <= 0.0 || !self.density.is_finite() {
            return Err(invalid("density must be finite and positive"));
        }
        if self.trials == 0 {
            return Err(invalid("trials must be at least 1"));
        }
        if self.trials > MAX_JOB_TRIALS {
            return Err(invalid(format!("trials must be at most {MAX_JOB_TRIALS}")));
        }
        if self.max_rounds == 0 {
            return Err(invalid("max_rounds must be at least 1"));
        }
        if self.max_rounds > MAX_JOB_ROUNDS {
            return Err(invalid(format!(
                "max_rounds must be at most {MAX_JOB_ROUNDS}"
            )));
        }
        let work = self.n as u128 * self.trials as u128 * u128::from(self.max_rounds);
        if work > MAX_JOB_WORK {
            return Err(invalid(format!(
                "n × trials × max_rounds must be at most {MAX_JOB_WORK}, got {work}"
            )));
        }
        if self.seed_base.checked_add(self.trials as u64).is_none() {
            return Err(invalid("seed_base + trials overflows"));
        }
        match self.protocol {
            ProtocolKind::Fkn { p }
            | ProtocolKind::FixedProbability { p }
            | ProtocolKind::FknInterleavedJs { p, .. }
                if !(p > 0.0 && p < 1.0) =>
            {
                return Err(invalid("protocol probability must lie in (0, 1)"));
            }
            ProtocolKind::Aloha { n: 0 } => {
                return Err(invalid("aloha n must be at least 1"));
            }
            ProtocolKind::CyclicSweep { n_bound }
            | ProtocolKind::JurdzinskiStachowiak { n_bound }
            | ProtocolKind::FknInterleavedJs { n_bound, .. }
                if n_bound < self.n =>
            {
                return Err(invalid("protocol n_bound must be >= n"));
            }
            _ => {}
        }
        if let ChannelSpec::Lossy { drop_prob } = self.channel {
            if !(0.0..1.0).contains(&drop_prob) {
                return Err(invalid("drop_prob must lie in [0, 1)"));
            }
        }
        Ok(())
    }

    /// Builds the validated [`Scenario`] this spec describes: generates
    /// the deployment, derives power-scaled channel parameters, and runs
    /// the full scenario validation.
    ///
    /// # Errors
    ///
    /// [`JobSpecError::Invalid`] for field-range violations,
    /// [`JobSpecError::Scenario`] when scenario validation rejects the
    /// combination.
    pub fn build_scenario(&self) -> Result<Scenario, JobSpecError> {
        self.validate()?;
        let deployment = Deployment::uniform_density(self.n, self.density, self.deploy_seed);
        let channel = self.channel.to_kind(&deployment);
        let scenario = Scenario::builder()
            .deployment(deployment)
            .channel(channel)
            .protocol(self.protocol)
            .seed(self.seed_base)
            .build()?;
        Ok(scenario)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_round_trips_through_json() {
        let spec = JobSpec::example("rt-1");
        let line = spec.to_json();
        let back = JobSpec::from_json(&line).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn every_protocol_kind_round_trips() {
        let kinds = [
            ProtocolKind::Fkn { p: 0.125 },
            ProtocolKind::Decay,
            ProtocolKind::DecayClassic,
            ProtocolKind::Aloha { n: 64 },
            ProtocolKind::CyclicSweep { n_bound: 128 },
            ProtocolKind::CdElection,
            ProtocolKind::JurdzinskiStachowiak { n_bound: 256 },
            ProtocolKind::FixedProbability { p: 0.5 },
            ProtocolKind::FknInterleavedJs {
                p: 0.25,
                n_bound: 64,
            },
        ];
        for kind in kinds {
            let mut spec = JobSpec::example("proto");
            spec.protocol = kind;
            let back = JobSpec::from_json(&spec.to_json()).unwrap();
            assert_eq!(back.protocol, kind, "{}", kind.label());
        }
    }

    #[test]
    fn every_channel_spec_round_trips() {
        let channels = [
            ChannelSpec::Sinr,
            ChannelSpec::Radio,
            ChannelSpec::RadioCd,
            ChannelSpec::Rayleigh,
            ChannelSpec::Lossy { drop_prob: 0.125 },
        ];
        for channel in channels {
            let mut spec = JobSpec::example("chan");
            spec.channel = channel;
            let back = JobSpec::from_json(&spec.to_json()).unwrap();
            assert_eq!(back.channel, channel, "{}", channel.label());
        }
    }

    #[test]
    fn rejects_bad_fields() {
        type Tweak = fn(&mut JobSpec);
        let cases: [(&str, Tweak); 9] = [
            ("empty id", |s| s.id.clear()),
            ("id with slash", |s| s.id = "../escape".into()),
            ("n too small", |s| s.n = 1),
            ("zero trials", |s| s.trials = 0),
            ("zero rounds", |s| s.max_rounds = 0),
            ("bad density", |s| s.density = 0.0),
            ("bad probability", |s| {
                s.protocol = ProtocolKind::Fkn { p: 1.5 };
            }),
            ("n_bound below n", |s| {
                s.protocol = ProtocolKind::CyclicSweep { n_bound: 2 };
            }),
            ("bad drop_prob", |s| {
                s.channel = ChannelSpec::Lossy { drop_prob: 1.0 };
            }),
        ];
        for (name, tweak) in cases {
            let mut spec = JobSpec::example("bad");
            tweak(&mut spec);
            assert!(spec.validate().is_err(), "{name} should be rejected");
        }
    }

    #[test]
    fn job_size_is_bounded_at_submit() {
        type Tweak = fn(&mut JobSpec);
        // Each field at its own bound, the others small enough that the
        // work stays under its cap.
        let at: [(&str, Tweak); 4] = [
            ("n", |s| s.n = MAX_JOB_NODES),
            ("trials", |s| s.trials = MAX_JOB_TRIALS),
            ("max_rounds", |s| s.max_rounds = MAX_JOB_ROUNDS),
            ("work", |s| {
                // n × trials × max_rounds = 2^36 exactly.
                s.n = 1 << 18;
                s.trials = 1 << 2;
                s.max_rounds = 1 << 16;
            }),
        ];
        for (field, tweak) in at {
            let mut spec = JobSpec::example("size");
            spec.max_rounds = 1;
            tweak(&mut spec);
            let at_bound = spec.validate();
            assert!(at_bound.is_ok(), "{field} at its bound: {at_bound:?}");
        }
        // The benchmark's largest job probe.
        let mut probe = JobSpec::example("probe");
        (probe.n, probe.trials, probe.max_rounds) = (1 << 18, 1, 100_000);
        assert!(probe.validate().is_ok());

        let over: [(&str, Tweak); 5] = [
            ("n", |s| s.n = MAX_JOB_NODES + 1),
            ("trials", |s| s.trials = MAX_JOB_TRIALS + 1),
            ("max_rounds", |s| s.max_rounds = MAX_JOB_ROUNDS + 1),
            ("n × trials × max_rounds", |s| {
                (s.n, s.trials, s.max_rounds) = (1 << 18, 1 << 2, (1 << 16) + 1);
            }),
            ("n × trials × max_rounds", |s| {
                // Every field at its bound: 2^60 node-rounds.
                (s.n, s.trials, s.max_rounds) = (MAX_JOB_NODES, MAX_JOB_TRIALS, MAX_JOB_ROUNDS);
            }),
        ];
        for (field, tweak) in over {
            let mut spec = JobSpec::example("size");
            tweak(&mut spec);
            match spec.validate() {
                Err(JobSpecError::Invalid(msg)) => assert!(msg.starts_with(field), "{msg}"),
                other => panic!("{field} past its bound: {other:?}"),
            }
        }
    }

    #[test]
    fn integer_fields_are_read_exactly() {
        let line = JobSpec::example("exact").to_json();
        let with = |key: &str, value: &str| {
            let at = line
                .find(&format!("\"{key}\":"))
                .expect("the key is written");
            let start = at + key.len() + 3;
            let end = start + line[start..].find([',', '}']).expect("a value ends");
            JobSpec::from_json(&format!("{}{value}{}", &line[..start], &line[end..]))
        };
        let top = (1u64 << 53) - 1;
        assert_eq!(with("seed_base", &top.to_string()).unwrap().seed_base, top);
        // 2^53 + 1 reads as 2^53, which is itself past the exact range.
        for value in ["9007199254740993", "9007199254740992", "-1", "2.5", "1e300"] {
            match with("seed_base", value) {
                Err(JobSpecError::Invalid(msg)) => assert!(msg.contains("seed_base"), "{msg}"),
                other => panic!("seed_base {value} must be refused, got {other:?}"),
            }
        }
    }

    #[test]
    fn malformed_json_is_a_parse_error() {
        for line in ["", "{", "[1,2]", "{\"id\":\"x\"}", "{\"id\":3}"] {
            match JobSpec::from_json(line) {
                Err(JobSpecError::Parse(_)) => {}
                other => panic!("{line:?} should be a parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn build_scenario_runs_deterministically() {
        let mut spec = JobSpec::example("run");
        spec.trials = 2;
        let scenario = spec.build_scenario().unwrap();
        let a = scenario
            .simulation_with_seed(spec.seed_base)
            .run_until_resolved(spec.max_rounds);
        let b = spec
            .build_scenario()
            .unwrap()
            .simulation_with_seed(spec.seed_base)
            .run_until_resolved(spec.max_rounds);
        assert_eq!(a, b, "spec -> scenario -> run must be deterministic");
        assert!(a.resolved());
    }
}
