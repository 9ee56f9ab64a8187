//! Serializable, checksummed simulation snapshots.
//!
//! A [`SimSnapshot`] captures every piece of *mutable* run state a
//! [`Simulation`](crate::Simulation) owns — round counter, all RNG lanes
//! (including the fault lane's cursor), active/knockout masks, per-node
//! protocol states, fault-plan progress, the engine tier and counter
//! totals — but none of the *constructed* state (positions,
//! channel, protocol factory, fault plan). Restoring therefore requires
//! rebuilding an identically-configured simulation first; a fingerprint
//! over the construction inputs catches mismatches before any state is
//! loaded, and an FNV-1a checksum over the encoded payload catches
//! corruption. The byte format is hand-rolled little-endian (no external
//! serialization dependency), versioned, and rejected loudly on any
//! mismatch — a snapshot never restores garbage.

use std::io::Write as _;
use std::path::Path;

use crate::obs::COUNTERS;
use crate::protocol::ProtocolStateError;
use crate::EngineCounters;
use fading_channel::{EngineTier, FarFieldStats};

/// Format magic: the first four bytes of every snapshot file.
const MAGIC: [u8; 4] = *b"FSNP";

/// Current snapshot format version. Bumped on any layout change; older
/// readers reject newer snapshots with [`SnapshotError::VersionMismatch`].
/// Version 4: the engine tier byte indexes the three-tier
/// [`EngineTier::ALL`] (the flat far-field tier is gone). Version 5: the
/// counters drop `gain_cache_bypassed_rounds`, which nothing incremented.
/// Version 6: the resolve thread count is no longer recorded (it never
/// changes a run, so a restore keeps the caller's). Version 7: the
/// counters and the engine stats gain the refined stage's
/// `refined_decisions`. Version 8: the per-round trace section is gone
/// (a run's rounds are recorded by its telemetry sink, not its snapshot).
pub const SNAPSHOT_VERSION: u32 = 8;

/// Why a snapshot could not be encoded, decoded, or restored.
#[derive(Debug)]
pub enum SnapshotError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// The byte stream is not a valid snapshot: bad magic, truncation,
    /// a failed checksum, or an out-of-range field.
    Corrupt {
        /// What exactly was wrong.
        detail: String,
    },
    /// The snapshot was written by an incompatible format version.
    VersionMismatch {
        /// Version found in the stream.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// The snapshot is well-formed but does not belong to the simulation
    /// it is being restored into (different deployment, seed, channel,
    /// fault plan, or a non-fresh target).
    Incompatible {
        /// What exactly did not line up.
        detail: String,
    },
    /// A protocol instance rejected its checkpointed state words.
    ProtocolState(ProtocolStateError),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O failed: {e}"),
            SnapshotError::Corrupt { detail } => write!(f, "snapshot corrupt: {detail}"),
            SnapshotError::VersionMismatch { found, supported } => write!(
                f,
                "snapshot format version {found} is not supported (this build reads {supported})"
            ),
            SnapshotError::Incompatible { detail } => {
                write!(f, "snapshot incompatible with this simulation: {detail}")
            }
            SnapshotError::ProtocolState(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            SnapshotError::ProtocolState(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<ProtocolStateError> for SnapshotError {
    fn from(e: ProtocolStateError) -> Self {
        SnapshotError::ProtocolState(e)
    }
}

/// FNV-1a 64-bit hash — used both for the payload checksum and for the
/// construction-input fingerprint. Not cryptographic; it guards against
/// accidental corruption and accidental mismatches, not adversaries.
#[must_use]
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A complete, self-contained capture of a simulation's mutable state.
///
/// Produced by [`Simulation::snapshot`](crate::Simulation::snapshot) and
/// consumed by [`Simulation::restore`](crate::Simulation::restore); see
/// DESIGN.md §13 for the restore protocol and the byte-identity guarantee.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSnapshot {
    pub(crate) n: u64,
    pub(crate) seed: u64,
    pub(crate) fingerprint: u64,
    pub(crate) round: u64,
    pub(crate) total_transmissions: u64,
    pub(crate) resolved_at: Option<u64>,
    pub(crate) winner: Option<u64>,
    pub(crate) active: Vec<bool>,
    pub(crate) node_rngs: Vec<[u64; 4]>,
    pub(crate) chan_rng: [u64; 4],
    pub(crate) fault_rng: [u64; 4],
    pub(crate) self_check_samples: u64,
    pub(crate) self_check_rng: [u64; 4],
    pub(crate) protocol_states: Vec<Vec<u64>>,
    pub(crate) churn_cursor: u64,
    pub(crate) loss_in_burst: bool,
    pub(crate) tier: EngineTier,
    pub(crate) counters: EngineCounters,
    pub(crate) engine_stats: FarFieldStats,
}

impl SimSnapshot {
    /// Number of nodes in the captured deployment.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n as usize
    }

    /// `true` when the captured deployment has no nodes (never produced
    /// by a real simulation).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The master seed of the captured run.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Rounds completed when the snapshot was taken.
    #[must_use]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The construction-input fingerprint (deployment, seed, channel,
    /// fault-plan shape) the restore target must reproduce.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Encodes the snapshot: magic, version, payload length, payload,
    /// FNV-1a checksum, all little-endian.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::default();
        w.u64(self.n);
        w.u64(self.seed);
        w.u64(self.fingerprint);
        w.u64(self.round);
        w.u64(self.total_transmissions);
        w.opt_u64(self.resolved_at);
        w.opt_u64(self.winner);
        w.u64(self.active.len() as u64);
        for &a in &self.active {
            w.bool(a);
        }
        w.u64(self.node_rngs.len() as u64);
        for s in &self.node_rngs {
            w.rng(s);
        }
        w.rng(&self.chan_rng);
        w.rng(&self.fault_rng);
        w.u64(self.self_check_samples);
        w.rng(&self.self_check_rng);
        w.u64(self.protocol_states.len() as u64);
        for s in &self.protocol_states {
            w.u64(s.len() as u64);
            for &word in s {
                w.u64(word);
            }
        }
        w.u64(self.churn_cursor);
        w.bool(self.loss_in_burst);
        w.u8(self.tier as u8);
        w.counters(&self.counters);
        w.stats(&self.engine_stats);

        let payload = w.buf;
        let mut out = Vec::with_capacity(payload.len() + 24);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&payload);
        out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        out
    }

    /// Decodes a snapshot, verifying magic, version, length, and checksum.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] on bad magic, truncation, a checksum
    /// mismatch, or out-of-range fields; [`SnapshotError::VersionMismatch`]
    /// when the stream was written by a different format version.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let corrupt = |detail: &str| SnapshotError::Corrupt {
            detail: detail.to_string(),
        };
        if bytes.len() < 16 {
            return Err(corrupt("shorter than the fixed header"));
        }
        if bytes[..4] != MAGIC {
            return Err(corrupt("bad magic (not a snapshot file)"));
        }
        let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::VersionMismatch {
                found: version,
                supported: SNAPSHOT_VERSION,
            });
        }
        let payload_len = u64::from_le_bytes([
            bytes[8], bytes[9], bytes[10], bytes[11], bytes[12], bytes[13], bytes[14], bytes[15],
        ]) as usize;
        let expected_total = 16usize
            .checked_add(payload_len)
            .and_then(|v| v.checked_add(8))
            .ok_or_else(|| corrupt("payload length overflows"))?;
        if bytes.len() != expected_total {
            return Err(corrupt("payload length does not match file size"));
        }
        let payload = &bytes[16..16 + payload_len];
        let stored = u64::from_le_bytes(
            bytes[16 + payload_len..]
                .try_into()
                .map_err(|_| corrupt("checksum truncated"))?,
        );
        if fnv1a64(payload) != stored {
            return Err(corrupt("checksum mismatch"));
        }

        let mut r = Reader::new(payload);
        let n = r.u64()?;
        let seed = r.u64()?;
        let fingerprint = r.u64()?;
        let round = r.u64()?;
        let total_transmissions = r.u64()?;
        let resolved_at = r.opt_u64()?;
        let winner = r.opt_u64()?;
        let active_len = r.len_for(n, "active mask")?;
        let mut active = Vec::with_capacity(active_len);
        for _ in 0..active_len {
            active.push(r.bool()?);
        }
        let rng_len = r.len_for(n, "node rng states")?;
        let mut node_rngs = Vec::with_capacity(rng_len);
        for _ in 0..rng_len {
            node_rngs.push(r.rng()?);
        }
        let chan_rng = r.rng()?;
        let fault_rng = r.rng()?;
        let self_check_samples = r.u64()?;
        let self_check_rng = r.rng()?;
        let proto_len = r.len_for(n, "protocol states")?;
        let mut protocol_states = Vec::with_capacity(proto_len);
        for _ in 0..proto_len {
            let words = r.u64()? as usize;
            if words > r.remaining_words() {
                return Err(corrupt("protocol state longer than the payload"));
            }
            let mut state = Vec::with_capacity(words);
            for _ in 0..words {
                state.push(r.u64()?);
            }
            protocol_states.push(state);
        }
        let churn_cursor = r.u64()?;
        let loss_in_burst = r.bool()?;
        let tier = *EngineTier::ALL
            .get(usize::from(r.u8()?))
            .ok_or_else(|| corrupt("bad engine tier"))?;
        let counters = r.counters()?;
        let engine_stats = r.stats()?;
        r.finish()?;

        Ok(SimSnapshot {
            n,
            seed,
            fingerprint,
            round,
            total_transmissions,
            resolved_at,
            winner,
            active,
            node_rngs,
            chan_rng,
            fault_rng,
            self_check_samples,
            self_check_rng,
            protocol_states,
            churn_cursor,
            loss_in_burst,
            tier,
            counters,
            engine_stats,
        })
    }

    /// Writes the snapshot to `path` atomically: the bytes go to a
    /// `<path>.tmp` sibling first and are renamed into place, so a process
    /// killed mid-write leaves the previous checkpoint intact rather than
    /// a torn file.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] on any filesystem failure.
    pub fn write_to_path(&self, path: &Path) -> Result<(), SnapshotError> {
        let tmp = path.with_extension("tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&self.to_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Reads and decodes a snapshot from `path`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] when the file cannot be read, plus every
    /// decode error of [`SimSnapshot::from_bytes`].
    pub fn read_from_path(path: &Path) -> Result<Self, SnapshotError> {
        let bytes = std::fs::read(path)?;
        SimSnapshot::from_bytes(&bytes)
    }
}

/// Little-endian byte sink for the payload encoding.
#[derive(Default)]
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }
    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
        }
    }
    fn rng(&mut self, s: &[u64; 4]) {
        for &w in s {
            self.u64(w);
        }
    }
    /// The ladder rows of the counter table, in table order.
    fn stats(&mut self, s: &FarFieldStats) {
        let c = EngineCounters {
            farfield: *s,
            ..EngineCounters::default()
        };
        for row in COUNTERS.iter().filter(|row| row.is_ladder()) {
            self.u64(row.get(&c));
        }
    }
    /// Every counter-table row, in table order.
    fn counters(&mut self, c: &EngineCounters) {
        for row in &COUNTERS {
            if row.is_flag() {
                self.bool(row.get(c) != 0);
            } else {
                self.u64(row.get(c));
            }
        }
    }
}

/// `c` through the snapshot's counters codec and, for its ladder stats,
/// the engine-stats codec: written, then read back.
#[cfg(test)]
pub(crate) fn counters_round_trip(c: &EngineCounters) -> (EngineCounters, FarFieldStats) {
    let mut w = Writer::default();
    w.counters(c);
    w.stats(&c.farfield);
    let mut r = Reader::new(&w.buf);
    let back = (r.counters().unwrap(), r.stats().unwrap());
    r.finish().unwrap();
    back
}

/// Checked little-endian reader over the payload.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn corrupt(detail: &str) -> SnapshotError {
        SnapshotError::Corrupt {
            detail: detail.to_string(),
        }
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(len)
            .ok_or_else(|| Self::corrupt("offset overflow"))?;
        if end > self.buf.len() {
            return Err(Self::corrupt("payload truncated"));
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(
            b.try_into().map_err(|_| Self::corrupt("short u64"))?,
        ))
    }

    fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(Self::corrupt("bad bool")),
        }
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, SnapshotError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            _ => Err(Self::corrupt("bad option tag")),
        }
    }

    fn rng(&mut self) -> Result<[u64; 4], SnapshotError> {
        Ok([self.u64()?, self.u64()?, self.u64()?, self.u64()?])
    }

    /// A per-node collection length must equal the declared node count —
    /// anything else is corruption, caught before allocating.
    fn len_for(&mut self, n: u64, what: &str) -> Result<usize, SnapshotError> {
        let len = self.u64()?;
        if len != n {
            return Err(Self::corrupt(&format!(
                "{what} length {len} does not match node count {n}"
            )));
        }
        usize::try_from(len).map_err(|_| Self::corrupt("node count exceeds usize"))
    }

    /// Upper bound on how many more u64 words the payload can hold; used
    /// to reject absurd length prefixes before `Vec::with_capacity`.
    fn remaining_words(&self) -> usize {
        (self.buf.len() - self.pos) / 8
    }

    fn stats(&mut self) -> Result<FarFieldStats, SnapshotError> {
        let mut c = EngineCounters::default();
        for row in COUNTERS.iter().filter(|row| row.is_ladder()) {
            row.set(&mut c, self.u64()?);
        }
        Ok(c.farfield)
    }

    fn counters(&mut self) -> Result<EngineCounters, SnapshotError> {
        let mut c = EngineCounters::default();
        for row in &COUNTERS {
            let v = if row.is_flag() {
                u64::from(self.bool()?)
            } else {
                self.u64()?
            };
            row.set(&mut c, v);
        }
        Ok(c)
    }

    fn finish(&self) -> Result<(), SnapshotError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(Self::corrupt("trailing bytes after the last field"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SimSnapshot {
        SimSnapshot {
            n: 3,
            seed: 42,
            fingerprint: 0xDEAD_BEEF,
            round: 17,
            total_transmissions: 99,
            resolved_at: None,
            winner: None,
            active: vec![true, false, true],
            node_rngs: vec![[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12]],
            chan_rng: [13, 14, 15, 16],
            fault_rng: [17, 18, 19, 20],
            self_check_samples: 2,
            self_check_rng: [21, 22, 23, 24],
            protocol_states: vec![vec![1], vec![], vec![3, 4, 5]],
            churn_cursor: 1,
            loss_in_burst: true,
            tier: EngineTier::Hierarchical,
            counters: EngineCounters {
                rounds: 17,
                gain_cache_rounds: 17,
                gain_cache_built: true,
                ..EngineCounters::default()
            },
            engine_stats: FarFieldStats {
                rounds: 5,
                bracket_decisions: 40,
                bracket_straddle_fallbacks: 3,
                canonical_rescans: 2,
                ..FarFieldStats::default()
            },
        }
    }

    #[test]
    fn bytes_round_trip_exactly() {
        let snap = sample();
        let bytes = snap.to_bytes();
        let back = SimSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
    }

    /// The counters section — the run's counters, then the engine's ladder
    /// stats — closes the payload, just before the 8-byte checksum.
    #[test]
    fn counters_section_golden_bytes() {
        let mut snap = sample();
        snap.counters = EngineCounters::distinct();
        snap.engine_stats = FarFieldStats {
            rounds: 301,
            empty_round_silences: 302,
            nonfinite_fallbacks: 303,
            noise_floor_silences: 304,
            no_near_winner_fallbacks: 305,
            far_rival_fallbacks: 306,
            bracket_decisions: 307,
            bracket_straddle_fallbacks: 308,
            canonical_rescans: 309,
            refined_decisions: 310,
        };
        let mut golden: Vec<u8> = (101u64..=106).flat_map(u64::to_le_bytes).collect();
        golden.push(1);
        golden.extend((107u64..=115).flat_map(u64::to_le_bytes));
        golden.extend((201u64..=210).flat_map(u64::to_le_bytes));
        golden.extend((301u64..=310).flat_map(u64::to_le_bytes));
        let bytes = snap.to_bytes();
        let end = bytes.len() - 8;
        assert_eq!(&bytes[end - golden.len()..end], &golden[..]);
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let snap = sample();
        let mut bytes = snap.to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        match SimSnapshot::from_bytes(&bytes) {
            Err(SnapshotError::Corrupt { detail }) => {
                assert!(detail.contains("checksum"), "unexpected detail: {detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let bytes = sample().to_bytes();
        for cut in [0, 3, 15, bytes.len() - 1] {
            assert!(SimSnapshot::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            SimSnapshot::from_bytes(&bytes),
            Err(SnapshotError::Corrupt { .. })
        ));
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[4] = 0xFF;
        assert!(matches!(
            SimSnapshot::from_bytes(&bytes),
            Err(SnapshotError::VersionMismatch { .. })
        ));
        // Older layouts are refused too: a version-3 file indexes the old
        // four-tier enum, and a version-7 file carries a trace section.
        for old in [3, 7] {
            bytes[4] = old;
            assert!(matches!(
                SimSnapshot::from_bytes(&bytes),
                Err(SnapshotError::VersionMismatch { found, supported: 8 }) if found == u32::from(old)
            ));
        }
    }

    #[test]
    fn path_round_trip() {
        let dir = std::env::temp_dir().join("fading-sim-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.fsnp");
        let snap = sample();
        snap.write_to_path(&path).unwrap();
        let back = SimSnapshot::read_from_path(&path).unwrap();
        assert_eq!(back, snap);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn error_display_is_informative() {
        let e = SnapshotError::VersionMismatch {
            found: 9,
            supported: 1,
        };
        assert!(e.to_string().contains("version 9"));
        let e = SnapshotError::Incompatible {
            detail: "seed differs".into(),
        };
        assert!(e.to_string().contains("seed differs"));
    }
}
