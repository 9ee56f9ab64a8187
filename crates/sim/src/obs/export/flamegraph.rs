//! Collapsed-stack flamegraph text: one line per unique stack,
//! `root;child;grandchild value`, the input format of `flamegraph.pl`
//! and `inferno-flamegraph`.
//!
//! Values are **self-time in nanoseconds** (a span's duration minus its
//! children's durations), so a rendered flamegraph's widths add up
//! correctly instead of double-counting nested spans. Stacks from
//! different threads are merged by name, matching profiler convention.

use std::collections::HashMap;

use crate::obs::SpanRecord;

/// Aggregates spans into collapsed `(stack, self_ns)` pairs, sorted by
/// stack for deterministic output. Frame separators inside span names are
/// sanitized (`;` → `:`), since the format reserves them.
#[must_use]
pub fn collapse_spans(spans: &[SpanRecord]) -> Vec<(String, u64)> {
    // Children's total duration per parent id, for self-time.
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_insert(0) += s.duration_ns();
        }
    }
    let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
    let mut agg: HashMap<String, u64> = HashMap::new();
    for s in spans {
        // Build the frame path root→self by walking parents.
        let mut frames: Vec<&str> = Vec::with_capacity(s.depth as usize + 1);
        let mut cur = Some(s);
        while let Some(span) = cur {
            frames.push(&span.name);
            cur = span.parent.and_then(|p| by_id.get(&p).copied());
        }
        frames.reverse();
        let stack = frames
            .iter()
            .map(|f| f.replace(';', ":"))
            .collect::<Vec<_>>()
            .join(";");
        let self_ns = s
            .duration_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        *agg.entry(stack).or_insert(0) += self_ns;
    }
    let mut out: Vec<(String, u64)> = agg.into_iter().collect();
    out.sort();
    out
}

/// Renders spans as collapsed-stack text (one `stack value` line each).
#[must_use]
pub fn spans_to_collapsed(spans: &[SpanRecord]) -> String {
    let mut out = String::new();
    for (stack, ns) in collapse_spans(spans) {
        out.push_str(&stack);
        out.push(' ');
        out.push_str(&ns.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    fn span(id: u64, parent: Option<u64>, name: &'static str, s: u64, e: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: Cow::Borrowed(name),
            thread: 0,
            depth: 0,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn golden_self_time_collapse() {
        // step [0, 100] with children act [10, 30] and resolve [30, 90];
        // resolve has child fallback [40, 50].
        let spans = vec![
            span(0, None, "step", 0, 100),
            span(1, Some(0), "act", 10, 30),
            span(2, Some(0), "resolve", 30, 90),
            span(3, Some(2), "fallback", 40, 50),
        ];
        let text = spans_to_collapsed(&spans);
        assert_eq!(
            text,
            "step 20\nstep;act 20\nstep;resolve 50\nstep;resolve;fallback 10\n"
        );
    }

    #[test]
    fn collapsed_golden_bytes() {
        // Two `step` roots aggregate into one line; a name with a space
        // stays whole and a `;` in a name becomes `:`.
        let spans = vec![
            span(0, None, "step", 0, 10),
            span(1, None, "step", 20, 35),
            span(2, Some(1), "act", 21, 25),
            span(3, Some(1), "a b;c", 25, 32),
        ];
        assert_eq!(
            spans_to_collapsed(&spans),
            "step 14\nstep;a b:c 7\nstep;act 4\n"
        );
        assert_eq!(spans_to_collapsed(&[]), "");
    }
}
