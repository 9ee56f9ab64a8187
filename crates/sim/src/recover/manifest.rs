//! Experiment-level resume manifests.
//!
//! A [`TrialManifest`] is an append-only JSONL file recording one
//! completed trial per line. Re-opening the manifest after a crash (or a
//! SIGKILL) and handing it back to a
//! [`TrialRunner`](crate::montecarlo::TrialRunner) through
//! [`TrialRunner::manifest`](crate::montecarlo::TrialRunner::manifest)
//! skips every trial already on disk, so an interrupted Monte-Carlo batch
//! resumes from where it died instead of burning its compute again.
//!
//! Manifest lines persist every field of the `RunResult` (outcome,
//! rounds, sizes, winner, transmissions), so a stored line reconstructs
//! the result exactly. Each line is flushed and synced as its trial
//! completes, so at most the in-flight trials are lost to a kill.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::recover::snapshot::SnapshotError;
use crate::result::RunResult;

/// An append-only record of completed trials, keyed by seed.
#[derive(Debug)]
pub struct TrialManifest {
    path: PathBuf,
    completed: BTreeMap<u64, RunResult>,
    torn_tail: bool,
}

impl TrialManifest {
    /// Opens (or creates) the manifest at `path`, loading every completed
    /// trial already recorded there.
    ///
    /// A manifest whose **final** line does not parse is treated as a torn
    /// append — the expected wreckage of a SIGKILL landing mid-`record` —
    /// not as corruption: the partial record is truncated away (with a
    /// warning on stderr), the trial it would have recorded simply re-runs,
    /// and [`torn_tail`](Self::torn_tail) reports the repair. Damage
    /// *before* the final line can't be produced by a torn append and still
    /// fails loudly.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] when the file exists but cannot be read (or a
    /// torn tail cannot be truncated); [`SnapshotError::Corrupt`] when a
    /// non-final line does not parse — a damaged manifest fails loudly
    /// rather than silently re-running or skipping trials.
    pub fn open(path: &Path) -> Result<Self, SnapshotError> {
        let mut completed = BTreeMap::new();
        let mut torn_tail = false;
        match std::fs::read_to_string(path) {
            Ok(contents) => {
                // `record` writes each `line\n` in a single append, so a kill
                // can only leave a *strict prefix* of the final record — a
                // last line with no trailing newline. Track byte offsets so
                // that torn tail can be truncated off in place, keeping the
                // file append-clean.
                let ends_with_newline = contents.ends_with('\n');
                let mut records: Vec<(usize, usize, &str)> = Vec::new();
                let mut offset = 0usize;
                for (lineno, line) in contents.split('\n').enumerate() {
                    if !line.trim().is_empty() {
                        records.push((lineno, offset, line));
                    }
                    offset += line.len() + 1;
                }
                let last_start = records.last().map(|&(_, start, _)| start);
                for &(lineno, start, line) in &records {
                    let is_tail = Some(start) == last_start && !ends_with_newline;
                    match parse_line(line) {
                        Some((seed, result)) => {
                            completed.insert(seed, result);
                            if is_tail {
                                // Complete record that lost only its newline:
                                // keep it, but restore the separator so the
                                // next append starts on a fresh line.
                                let mut f = std::fs::OpenOptions::new().append(true).open(path)?;
                                f.write_all(b"\n")?;
                                f.sync_all()?;
                            }
                        }
                        None if is_tail => {
                            eprintln!(
                                "warning: manifest {} ends in a torn record ({} bytes); \
                                 truncating and re-running that trial",
                                path.display(),
                                contents.len() - start,
                            );
                            let f = std::fs::OpenOptions::new().write(true).open(path)?;
                            f.set_len(start as u64)?;
                            f.sync_all()?;
                            torn_tail = true;
                        }
                        None => {
                            return Err(SnapshotError::Corrupt {
                                detail: format!(
                                    "manifest line {} is not a valid trial record",
                                    lineno + 1
                                ),
                            });
                        }
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(SnapshotError::Io(e)),
        }
        Ok(TrialManifest {
            path: path.to_path_buf(),
            completed,
            torn_tail,
        })
    }

    /// Whether [`open`](Self::open) found (and truncated) a torn final
    /// record left by a kill mid-append.
    #[must_use]
    pub fn torn_tail(&self) -> bool {
        self.torn_tail
    }

    /// The manifest's file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of completed trials on record.
    #[must_use]
    pub fn completed(&self) -> usize {
        self.completed.len()
    }

    /// Whether the trial with `seed` has already completed.
    #[must_use]
    pub fn is_done(&self, seed: u64) -> bool {
        self.completed.contains_key(&seed)
    }

    /// The recorded result for `seed`, if that trial completed.
    #[must_use]
    pub fn get(&self, seed: u64) -> Option<&RunResult> {
        self.completed.get(&seed)
    }

    /// Records a completed trial: appends one line and syncs it to disk
    /// before returning, so a subsequent kill cannot lose it.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] on any filesystem failure.
    pub fn record(&mut self, seed: u64, result: &RunResult) -> Result<(), SnapshotError> {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        let mut line = format_line(seed, result);
        line.push('\n');
        f.write_all(line.as_bytes())?;
        f.sync_all()?;
        self.completed.insert(seed, result.clone());
        Ok(())
    }
}

/// Renders the canonical manifest line for one completed trial — the same
/// serialization [`TrialManifest::record`] appends, without the trailing
/// newline. Exposed so job runners can emit seed-ordered trial artifacts
/// that are byte-comparable across resumed and uninterrupted runs.
#[must_use]
pub fn trial_line(seed: u64, result: &RunResult) -> String {
    format_line(seed, result)
}

fn format_line(seed: u64, r: &RunResult) -> String {
    let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |x| x.to_string());
    format!(
        "{{\"seed\":{},\"resolved_at\":{},\"rounds_executed\":{},\"initial_nodes\":{},\"final_active\":{},\"winner\":{},\"total_transmissions\":{}}}",
        seed,
        opt(r.resolved_at()),
        r.rounds_executed(),
        r.initial_nodes(),
        r.final_active(),
        opt(r.winner().map(|w| w as u64)),
        r.total_transmissions(),
    )
}

/// Extracts `"key":<u64|null>` from a flat JSON object line.
fn field(line: &str, key: &str) -> Option<Option<u64>> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    if let Some(stripped) = rest.strip_prefix("null") {
        // A key's value must terminate the pair cleanly.
        if stripped.starts_with([',', '}']) {
            return Some(None);
        }
        return None;
    }
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    if end == 0 {
        return None;
    }
    rest[..end].parse().ok().map(Some)
}

fn parse_line(line: &str) -> Option<(u64, RunResult)> {
    let required = |key: &str| field(line, key).flatten();
    let seed = required("seed")?;
    let resolved_at = field(line, "resolved_at")?;
    let rounds_executed = required("rounds_executed")?;
    let initial_nodes = usize::try_from(required("initial_nodes")?).ok()?;
    let final_active = usize::try_from(required("final_active")?).ok()?;
    let winner = match field(line, "winner")? {
        Some(w) => Some(usize::try_from(w).ok()?),
        None => None,
    };
    let total_transmissions = required("total_transmissions")?;
    Some((
        seed,
        RunResult::new(
            resolved_at,
            rounds_executed,
            initial_nodes,
            final_active,
            winner,
            total_transmissions,
        ),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("fading-sim-manifest-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn result(rounds: u64) -> RunResult {
        RunResult::new(Some(rounds), rounds, 16, 3, Some(2), 40)
    }

    #[test]
    fn records_persist_across_reopen() {
        let path = tmp("reopen.jsonl");
        std::fs::remove_file(&path).ok();
        {
            let mut m = TrialManifest::open(&path).unwrap();
            assert_eq!(m.completed(), 0);
            m.record(100, &result(7)).unwrap();
            m.record(101, &result(9)).unwrap();
            assert!(m.is_done(100));
            assert!(!m.is_done(102));
        }
        let m = TrialManifest::open(&path).unwrap();
        assert_eq!(m.completed(), 2);
        assert_eq!(m.get(101).map(RunResult::rounds_executed), Some(9));
        assert_eq!(m.get(100), Some(&result(7)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unresolved_runs_round_trip_null_fields() {
        let path = tmp("nulls.jsonl");
        std::fs::remove_file(&path).ok();
        let capped = RunResult::new(None, 500, 8, 8, None, 900);
        {
            let mut m = TrialManifest::open(&path).unwrap();
            m.record(5, &capped).unwrap();
        }
        let m = TrialManifest::open(&path).unwrap();
        let got = m.get(5).unwrap();
        assert_eq!(got, &capped);
        assert!(!got.resolved());
        assert_eq!(got.winner(), None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn damaged_manifest_fails_loudly() {
        let path = tmp("damaged.jsonl");
        std::fs::write(&path, "{\"seed\":1,\"resolved_at\":oops}\n").unwrap();
        match TrialManifest::open(&path) {
            Err(SnapshotError::Corrupt { detail }) => {
                assert!(detail.contains("line 1"), "unexpected detail: {detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    // SIGKILL mid-append leaves a strict prefix of the final `line\n`
    // write. Every such prefix must open cleanly: the torn bytes are
    // truncated away (or the lost newline restored), earlier records
    // survive, and a subsequent append lands on its own line.
    #[test]
    fn torn_tail_tolerated_at_every_byte_offset() {
        let full_path = tmp("torn-full.jsonl");
        std::fs::remove_file(&full_path).ok();
        {
            let mut m = TrialManifest::open(&full_path).unwrap();
            m.record(10, &result(3)).unwrap();
            m.record(11, &result(5)).unwrap();
            m.record(12, &result(8)).unwrap();
        }
        let bytes = std::fs::read(&full_path).unwrap();
        let text = std::str::from_utf8(&bytes).unwrap();
        // Byte offset where the last record (line 3) begins.
        let last_start = text.trim_end_matches('\n').rfind('\n').unwrap() + 1;

        for cut in last_start..bytes.len() {
            let path = tmp("torn-cut.jsonl");
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let mut m = TrialManifest::open(&path)
                .unwrap_or_else(|e| panic!("cut at byte {cut} failed to open: {e:?}"));
            let full_line_no_newline = cut == bytes.len() - 1;
            if full_line_no_newline {
                // Only the newline was lost: the record itself is intact.
                assert_eq!(m.completed(), 3, "cut at byte {cut}");
                assert!(!m.torn_tail(), "cut at byte {cut}");
            } else if cut == last_start {
                // The whole record vanished; nothing torn remains on disk.
                assert_eq!(m.completed(), 2, "cut at byte {cut}");
                assert!(!m.torn_tail(), "cut at byte {cut}");
            } else {
                assert_eq!(m.completed(), 2, "cut at byte {cut}");
                assert!(m.torn_tail(), "cut at byte {cut}");
                assert!(!m.is_done(12), "cut at byte {cut}");
            }
            // The repaired file must stay append-clean: a fresh record and
            // a reopen must round-trip every surviving trial.
            m.record(99, &result(21)).unwrap();
            let reopened = TrialManifest::open(&path).unwrap();
            assert!(!reopened.torn_tail(), "cut at byte {cut}");
            assert_eq!(
                reopened.completed(),
                m.completed(),
                "cut at byte {cut}: reopen lost records"
            );
            assert_eq!(reopened.get(99), Some(&result(21)), "cut at byte {cut}");
            std::fs::remove_file(&path).ok();
        }
        std::fs::remove_file(&full_path).ok();
    }

    // A torn append can only be the *final* line; an unparseable line with
    // records after it (or with its newline intact) is real corruption and
    // must still fail loudly.
    #[test]
    fn mid_file_damage_still_fails_loudly() {
        let path = tmp("mid-damage.jsonl");
        std::fs::remove_file(&path).ok();
        {
            let mut m = TrialManifest::open(&path).unwrap();
            m.record(1, &result(4)).unwrap();
            m.record(2, &result(6)).unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let damaged = text.replacen("\"seed\":1", "\"seed\":??", 1);
        std::fs::write(&path, damaged).unwrap();
        match TrialManifest::open(&path) {
            Err(SnapshotError::Corrupt { detail }) => {
                assert!(detail.contains("line 1"), "unexpected detail: {detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_an_empty_manifest() {
        let path = tmp("never-written.jsonl");
        std::fs::remove_file(&path).ok();
        let m = TrialManifest::open(&path).unwrap();
        assert_eq!(m.completed(), 0);
    }
}
