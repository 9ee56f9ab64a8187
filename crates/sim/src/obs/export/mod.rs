//! Exporters for spans, counters, and histograms — three standard text
//! formats, each pinned by golden-bytes tests of its exact output:
//!
//! * [`prometheus`] — Prometheus text exposition (counters as
//!   `_total`-style samples, histograms with cumulative `le` buckets).
//! * [`chrome`] — Chrome trace-event JSON, loadable in `chrome://tracing`
//!   or [Perfetto](https://ui.perfetto.dev) (README shows the workflow).
//! * [`flamegraph`] — collapsed-stack text (`frame;frame;frame value`),
//!   the input format of `flamegraph.pl` and `inferno-flamegraph`.

pub mod chrome;
pub mod flamegraph;
pub mod prometheus;

use std::fmt;

/// Errors from parsing a Prometheus scrape
/// ([`prometheus::parse_prometheus`]).
#[derive(Debug)]
pub enum ExportError {
    /// Malformed input; `line` is 1-based (0 = not tied to a line).
    Parse {
        /// 1-based line number where parsing failed (0 if unknown).
        line: usize,
        /// Human-readable description of the failure.
        msg: String,
    },
}

impl ExportError {
    pub(crate) fn at(line: usize, msg: impl Into<String>) -> Self {
        ExportError::Parse {
            line,
            msg: msg.into(),
        }
    }
}

impl fmt::Display for ExportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExportError::Parse { line, msg } => {
                write!(f, "export parse error (line {line}): {msg}")
            }
        }
    }
}

impl std::error::Error for ExportError {}
