//! The on-disk job queue.
//!
//! A queue root holds five well-known directories:
//!
//! ```text
//! <root>/incoming/<id>.json   submitted specs, one JSON line each
//! <root>/running/<id>.json    specs a worker has claimed
//! <root>/done/<id>.json       specs whose job completed
//! <root>/failed/<id>.json     specs rejected or whose job errored
//! <root>/jobs/<id>/           per-job outputs (manifest, trials, result)
//! ```
//!
//! Submission is atomic (write to a dot-tmp name, then rename), so a
//! polling server never reads a half-written spec. Claiming renames
//! `incoming/ → running/`, which doubles as the crash record: whatever is
//! in `running/` when the server restarts was in flight when it died and
//! is simply re-claimed — the per-job [`TrialManifest`] makes the re-run
//! skip every trial that already finished.
//!
//! [`TrialManifest`]: fading_cr::sim::recover::TrialManifest

use std::io;
use std::path::{Path, PathBuf};

use fading_cr::jobspec::JobSpec;

/// Whether a directory entry is a queued spec. Matching is deliberately
/// exact: the queue itself writes lowercase `<id>.json` names, and
/// dot-prefixed names are in-flight submit temporaries.
#[allow(clippy::case_sensitive_file_extension_comparisons)]
fn is_spec_name(name: &str) -> bool {
    name.ends_with(".json") && !name.starts_with('.')
}

/// Spec counts per lifecycle directory, as returned by
/// [`JobQueue::state_depths`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StateDepths {
    /// Submitted, not yet claimed.
    pub incoming: u64,
    /// Claimed by a worker.
    pub running: u64,
    /// Completed successfully.
    pub done: u64,
    /// Rejected or errored.
    pub failed: u64,
}

/// Handle to a queue root (all five directories created on open).
#[derive(Debug, Clone)]
pub struct JobQueue {
    root: PathBuf,
}

impl JobQueue {
    /// Opens (creating if necessary) the queue rooted at `root`.
    ///
    /// # Errors
    ///
    /// Any directory-creation failure.
    pub fn open(root: &Path) -> io::Result<JobQueue> {
        let q = JobQueue {
            root: root.to_path_buf(),
        };
        for dir in [
            q.incoming_dir(),
            q.running_dir(),
            q.done_dir(),
            q.failed_dir(),
            q.jobs_dir(),
        ] {
            std::fs::create_dir_all(dir)?;
        }
        Ok(q)
    }

    /// The queue root.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Directory of not-yet-claimed submissions.
    #[must_use]
    pub fn incoming_dir(&self) -> PathBuf {
        self.root.join("incoming")
    }

    /// Directory of claimed, in-flight specs.
    #[must_use]
    pub fn running_dir(&self) -> PathBuf {
        self.root.join("running")
    }

    /// Directory of completed specs.
    #[must_use]
    pub fn done_dir(&self) -> PathBuf {
        self.root.join("done")
    }

    /// Directory of rejected or errored specs.
    #[must_use]
    pub fn failed_dir(&self) -> PathBuf {
        self.root.join("failed")
    }

    /// Parent directory of the per-job output directories.
    #[must_use]
    pub fn jobs_dir(&self) -> PathBuf {
        self.root.join("jobs")
    }

    /// The output directory for job `id` (created by the worker).
    #[must_use]
    pub fn job_dir(&self, id: &str) -> PathBuf {
        self.jobs_dir().join(id)
    }

    /// Submits a spec: writes `incoming/<id>.json` atomically.
    ///
    /// # Errors
    ///
    /// IO failures; `AlreadyExists` when a spec with this id is already
    /// queued or running or finished.
    pub fn submit(&self, spec: &JobSpec) -> io::Result<PathBuf> {
        let name = format!("{}.json", spec.id);
        for dir in [
            self.incoming_dir(),
            self.running_dir(),
            self.done_dir(),
            self.failed_dir(),
        ] {
            if dir.join(&name).exists() {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    format!("job id {:?} already present in {}", spec.id, dir.display()),
                ));
            }
        }
        let target = self.incoming_dir().join(&name);
        let tmp = self.incoming_dir().join(format!(".{name}.tmp"));
        std::fs::write(&tmp, format!("{}\n", spec.to_json()))?;
        std::fs::rename(&tmp, &target)?;
        Ok(target)
    }

    /// Claims the next submission (lexicographically first file name, so
    /// claiming order is stable): renames it into `running/` and returns
    /// the running path. `None` when the queue is empty.
    ///
    /// # Errors
    ///
    /// IO failures other than the claimed file disappearing underneath us
    /// (a concurrent claimant), which is retried.
    pub fn claim_next(&self) -> io::Result<Option<PathBuf>> {
        loop {
            let mut names: Vec<String> = Vec::new();
            for entry in std::fs::read_dir(self.incoming_dir())? {
                let entry = entry?;
                let name = entry.file_name().to_string_lossy().into_owned();
                if is_spec_name(&name) {
                    names.push(name);
                }
            }
            let Some(name) = names.into_iter().min() else {
                return Ok(None);
            };
            let from = self.incoming_dir().join(&name);
            let to = self.running_dir().join(&name);
            match std::fs::rename(&from, &to) {
                Ok(()) => return Ok(Some(to)),
                // Lost the race to another claimant; look again.
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Specs stranded in `running/` by a previous incarnation, oldest
    /// name first. The restarting server re-executes these before
    /// claiming new work; their manifests skip the finished trials.
    ///
    /// # Errors
    ///
    /// IO failures reading the directory.
    pub fn stranded(&self) -> io::Result<Vec<PathBuf>> {
        let mut paths: Vec<PathBuf> = Vec::new();
        for entry in std::fs::read_dir(self.running_dir())? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if is_spec_name(&name) {
                paths.push(entry.path());
            }
        }
        paths.sort();
        Ok(paths)
    }

    /// Retires a running spec into `done/` (or `failed/`), recording the
    /// failure reason alongside when one is given.
    ///
    /// # Errors
    ///
    /// IO failures renaming or writing the error file.
    pub fn finish(&self, running: &Path, error: Option<&str>) -> io::Result<PathBuf> {
        let name = running
            .file_name()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "spec path has no name"))?;
        let dest_dir = if error.is_none() {
            self.done_dir()
        } else {
            self.failed_dir()
        };
        let dest = dest_dir.join(name);
        std::fs::rename(running, &dest)?;
        if let Some(msg) = error {
            let err_path = dest.with_extension("error");
            std::fs::write(err_path, format!("{msg}\n"))?;
        }
        Ok(dest)
    }

    /// Number of not-yet-claimed submissions (the queue-depth gauge).
    ///
    /// # Errors
    ///
    /// IO failures reading the directory.
    pub fn depth(&self) -> io::Result<usize> {
        let mut n = 0;
        for entry in std::fs::read_dir(self.incoming_dir())? {
            let name = entry?.file_name().to_string_lossy().into_owned();
            if is_spec_name(&name) {
                n += 1;
            }
        }
        Ok(n)
    }

    /// Spec counts across all four lifecycle directories (the thick
    /// `stats` reply).
    ///
    /// # Errors
    ///
    /// IO failures reading any of the directories.
    pub fn state_depths(&self) -> io::Result<StateDepths> {
        let count = |dir: PathBuf| -> io::Result<u64> {
            let mut n = 0;
            for entry in std::fs::read_dir(dir)? {
                let name = entry?.file_name().to_string_lossy().into_owned();
                if is_spec_name(&name) {
                    n += 1;
                }
            }
            Ok(n)
        };
        Ok(StateDepths {
            incoming: count(self.incoming_dir())?,
            running: count(self.running_dir())?,
            done: count(self.done_dir())?,
            failed: count(self.failed_dir())?,
        })
    }

    /// Whether job `id` has retired into `done/`.
    #[must_use]
    pub fn is_done(&self, id: &str) -> bool {
        self.done_dir().join(format!("{id}.json")).exists()
    }

    /// Whether job `id` has retired into `failed/`.
    #[must_use]
    pub fn is_failed(&self, id: &str) -> bool {
        self.failed_dir().join(format!("{id}.json")).exists()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_root(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("fading-server-queue-test")
            .join(format!("{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn submit_claim_finish_lifecycle() {
        let root = tmp_root("lifecycle");
        let q = JobQueue::open(&root).unwrap();
        assert_eq!(q.depth().unwrap(), 0);
        q.submit(&JobSpec::example("b-second")).unwrap();
        q.submit(&JobSpec::example("a-first")).unwrap();
        assert_eq!(q.depth().unwrap(), 2);

        let claimed = q.claim_next().unwrap().unwrap();
        assert!(claimed.ends_with("running/a-first.json"), "{claimed:?}");
        assert_eq!(q.depth().unwrap(), 1);
        let spec = JobSpec::from_json(std::fs::read_to_string(&claimed).unwrap().trim()).unwrap();
        assert_eq!(spec.id, "a-first");

        q.finish(&claimed, None).unwrap();
        assert!(q.is_done("a-first"));
        let second = q.claim_next().unwrap().unwrap();
        assert_eq!(
            q.state_depths().unwrap(),
            StateDepths {
                incoming: 0,
                running: 1,
                done: 1,
                failed: 0
            }
        );
        q.finish(&second, Some("boom")).unwrap();
        assert!(q.is_failed("b-second"));
        assert_eq!(
            q.state_depths().unwrap(),
            StateDepths {
                incoming: 0,
                running: 0,
                done: 1,
                failed: 1
            }
        );
        let err = std::fs::read_to_string(q.failed_dir().join("b-second.error")).unwrap();
        assert_eq!(err, "boom\n");
        assert!(q.claim_next().unwrap().is_none());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn duplicate_ids_are_rejected_across_states() {
        let root = tmp_root("dupes");
        let q = JobQueue::open(&root).unwrap();
        q.submit(&JobSpec::example("dup")).unwrap();
        let again = q.submit(&JobSpec::example("dup"));
        assert_eq!(again.unwrap_err().kind(), io::ErrorKind::AlreadyExists);
        let claimed = q.claim_next().unwrap().unwrap();
        assert_eq!(
            q.submit(&JobSpec::example("dup")).unwrap_err().kind(),
            io::ErrorKind::AlreadyExists,
            "running ids still reserved"
        );
        q.finish(&claimed, None).unwrap();
        assert_eq!(
            q.submit(&JobSpec::example("dup")).unwrap_err().kind(),
            io::ErrorKind::AlreadyExists,
            "done ids still reserved"
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn stranded_running_specs_survive_reopen() {
        let root = tmp_root("stranded");
        let q = JobQueue::open(&root).unwrap();
        q.submit(&JobSpec::example("orphan")).unwrap();
        let claimed = q.claim_next().unwrap().unwrap();
        drop(q);
        // A "restart": reopen the same root and find the orphan.
        let q2 = JobQueue::open(&root).unwrap();
        let stranded = q2.stranded().unwrap();
        assert_eq!(stranded, vec![claimed]);
        std::fs::remove_dir_all(&root).ok();
    }
}
