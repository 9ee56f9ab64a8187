//! The span tracer: scoped, hierarchical, monotonic-clock timing.

use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

/// Sentinel `end_ns` for a span that has not closed yet.
const OPEN: u64 = u64::MAX;

/// One finished span: a named interval on the tracer's monotonic clock,
/// with its position in the span tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Dense id, in span *start* order (also the index into
    /// [`Tracer::finished_spans`] when no span is still open).
    pub id: u64,
    /// The span open on the same thread when this one started.
    pub parent: Option<u64>,
    /// Span name. Borrowed (`&'static str`, no allocation) when recorded
    /// live; owned when reconstructed by an exporter's parser.
    pub name: Cow<'static, str>,
    /// Dense per-tracer thread index (0 for the first thread that opened
    /// a span), stable across the tracer's lifetime.
    pub thread: u64,
    /// Nesting depth at start (0 = root span of its thread).
    pub depth: u32,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch (`>= start_ns`).
    pub end_ns: u64,
}

impl SpanRecord {
    /// The span's wall-clock duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug, Default)]
struct Inner {
    /// All spans ever started, indexed by id. `end_ns == OPEN` while open.
    spans: Vec<SpanRecord>,
    /// Registered OS thread ids; the index is the stable `thread` field.
    threads: Vec<ThreadId>,
    /// Per registered thread: the stack of currently open span ids.
    stacks: Vec<Vec<u64>>,
}

impl Inner {
    fn thread_index(&mut self, tid: ThreadId) -> usize {
        if let Some(i) = self.threads.iter().position(|&t| t == tid) {
            return i;
        }
        self.threads.push(tid);
        self.stacks.push(Vec::new());
        self.threads.len() - 1
    }
}

/// A thread-safe span tracer with a compile-time-cheap disabled path.
///
/// Open a span with [`Tracer::span`]; the returned [`SpanGuard`] closes it
/// on drop (RAII), so early returns, `?`, and panics all record honest end
/// times. Spans opened while another span is open on the same thread
/// become its children; each thread has its own span stack, so concurrent
/// montecarlo workers can share one tracer.
///
/// When disabled ([`Tracer::set_enabled`]), `span()` is one relaxed atomic
/// load returning an inert guard — no lock, no allocation, no clock read.
/// The `tracer_overhead_n2048` bench pins this at ≤ 2% of step cost.
///
/// Timing uses [`Instant`] (monotonic) relative to the tracer's creation,
/// so `start_ns`/`end_ns` are comparable across threads and spans.
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl Tracer {
    /// A new, enabled tracer. `Arc` because guards keep the tracer alive
    /// past any borrow of the instrumented structure.
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(Tracer {
            enabled: AtomicBool::new(true),
            epoch: Instant::now(),
            inner: Mutex::new(Inner::default()),
        })
    }

    /// A new tracer that starts disabled (record nothing until
    /// [`Tracer::set_enabled`] flips it on).
    #[must_use]
    pub fn disabled() -> Arc<Self> {
        let t = Tracer::new();
        t.enabled.store(false, Ordering::Relaxed);
        t
    }

    /// Turns recording on or off. Spans already open keep recording to
    /// completion; new `span()` calls observe the flag immediately.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether the tracer is currently recording.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Nanoseconds since the tracer's epoch (its creation instant).
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name` as a child of the current thread's
    /// innermost open span. Returns the guard that closes it on drop.
    ///
    /// Disabled path: one relaxed load, an inert guard, nothing else.
    pub fn span(self: &Arc<Self>, name: &'static str) -> SpanGuard {
        if !self.enabled.load(Ordering::Relaxed) {
            return SpanGuard { active: None };
        }
        let start_ns = self.now_ns();
        let mut inner = self.lock();
        let t = inner.thread_index(std::thread::current().id());
        let parent = inner.stacks[t].last().copied();
        let depth = inner.stacks[t].len() as u32;
        let id = inner.spans.len() as u64;
        inner.spans.push(SpanRecord {
            id,
            parent,
            name: Cow::Borrowed(name),
            thread: t as u64,
            depth,
            start_ns,
            end_ns: OPEN,
        });
        inner.stacks[t].push(id);
        drop(inner);
        SpanGuard {
            active: Some(ActiveSpan {
                tracer: Arc::clone(self),
                id,
                thread: t,
            }),
        }
    }

    /// Snapshot of every *finished* span, in start order. Open spans are
    /// excluded (their end time is not known yet).
    #[must_use]
    pub fn finished_spans(&self) -> Vec<SpanRecord> {
        self.lock()
            .spans
            .iter()
            .filter(|s| s.end_ns != OPEN)
            .cloned()
            .collect()
    }

    /// Number of spans currently open across all threads.
    #[must_use]
    pub fn open_spans(&self) -> usize {
        self.lock().stacks.iter().map(Vec::len).sum()
    }

    /// Current nesting depth on the calling thread (0 = no open span).
    #[must_use]
    pub fn current_depth(&self) -> usize {
        let tid = std::thread::current().id();
        let inner = self.lock();
        inner
            .threads
            .iter()
            .position(|&t| t == tid)
            .map_or(0, |i| inner.stacks[i].len())
    }

    /// Discards all recorded spans and the thread registry. Intended for
    /// reuse between runs; any still-open guard from before the clear
    /// closes as a silent no-op (its id no longer names a live span).
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.spans.clear();
        inner.threads.clear();
        inner.stacks.clear();
    }

    /// Mutex discipline: a tracer must keep working after a panic inside
    /// an instrumented region poisoned the lock (observability code must
    /// never turn one failure into two).
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Closes span `id` at the current time, repairing the stack if guards
    /// were dropped out of order: everything above `id` on the thread's
    /// stack (children whose guards leaked or were dropped late) closes at
    /// the same instant, and a guard whose span was already closed this
    /// way is a no-op.
    fn close(&self, id: u64, thread: usize) {
        let end_ns = self.now_ns();
        let mut inner = self.lock();
        let doomed: Vec<u64> = {
            let Some(stack) = inner.stacks.get_mut(thread) else {
                return; // cleared since the guard was created
            };
            let Some(pos) = stack.iter().rposition(|&s| s == id) else {
                return; // already closed by an ancestor's drop
            };
            stack.drain(pos..).collect()
        };
        for s in doomed {
            let rec = &mut inner.spans[s as usize];
            if rec.end_ns == OPEN {
                rec.end_ns = end_ns.max(rec.start_ns);
            }
        }
    }
}

#[derive(Debug)]
struct ActiveSpan {
    tracer: Arc<Tracer>,
    id: u64,
    thread: usize,
}

/// Closes its span when dropped. Hold it for the scope you want timed:
///
/// ```
/// # use fading_sim::obs::Tracer;
/// let tracer = Tracer::new();
/// {
///     let _outer = tracer.span("outer");
///     let _inner = tracer.span("inner"); // child of "outer"
/// } // both close here, inner first
/// assert_eq!(tracer.finished_spans().len(), 2);
/// ```
///
/// Guards may be dropped out of order (early returns, `?`, panics,
/// explicit `drop`); the tracer repairs its stack rather than corrupting
/// parentage — see the `obs` integration tests.
#[derive(Debug)]
#[must_use = "dropping the guard immediately records an empty span"]
pub struct SpanGuard {
    /// `None` for the disabled path: drop is then a no-op.
    active: Option<ActiveSpan>,
}

impl SpanGuard {
    /// Whether this guard is actually recording (false when the tracer
    /// was disabled at `span()` time).
    #[must_use]
    pub fn is_recording(&self) -> bool {
        self.active.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(a) = self.active.take() {
            a.tracer.close(a.id, a.thread);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_records_parent_child_and_depth() {
        let tracer = Tracer::new();
        {
            let _a = tracer.span("a");
            {
                let _b = tracer.span("b");
                let _c = tracer.span("c");
            }
            let _d = tracer.span("d");
        }
        let spans = tracer.finished_spans();
        assert_eq!(spans.len(), 4);
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        let (a, b, c, d) = (by_name("a"), by_name("b"), by_name("c"), by_name("d"));
        assert_eq!(a.parent, None);
        assert_eq!(a.depth, 0);
        assert_eq!(b.parent, Some(a.id));
        assert_eq!(c.parent, Some(b.id));
        assert_eq!(c.depth, 2);
        assert_eq!(d.parent, Some(a.id));
        assert!(a.start_ns <= b.start_ns && b.end_ns <= a.end_ns);
        assert!(c.start_ns >= b.start_ns && c.end_ns <= b.end_ns);
        assert_eq!(tracer.open_spans(), 0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        let g = tracer.span("ghost");
        assert!(!g.is_recording());
        drop(g);
        assert!(tracer.finished_spans().is_empty());
        tracer.set_enabled(true);
        drop(tracer.span("real"));
        assert_eq!(tracer.finished_spans().len(), 1);
    }

    #[test]
    fn spans_on_different_threads_do_not_nest() {
        let tracer = Tracer::new();
        let _main = tracer.span("main");
        let t2 = {
            let tracer = Arc::clone(&tracer);
            std::thread::spawn(move || {
                let _w = tracer.span("worker");
            })
        };
        t2.join().unwrap();
        let spans = tracer.finished_spans();
        let w = spans.iter().find(|s| s.name == "worker").unwrap();
        assert_eq!(w.parent, None, "cross-thread spans must not adopt parents");
        assert_eq!(w.depth, 0);
        assert_ne!(w.thread, 0, "worker thread gets its own index");
    }

    #[test]
    fn clear_resets_and_stale_guards_are_noops() {
        let tracer = Tracer::new();
        let g = tracer.span("stale");
        tracer.clear();
        drop(g); // must not panic or resurrect anything
        assert!(tracer.finished_spans().is_empty());
        assert_eq!(tracer.open_spans(), 0);
        drop(tracer.span("fresh"));
        assert_eq!(tracer.finished_spans().len(), 1);
    }

    #[test]
    fn monotonic_ids_in_start_order() {
        let tracer = Tracer::new();
        for _ in 0..5 {
            drop(tracer.span("s"));
        }
        let spans = tracer.finished_spans();
        let ids: Vec<u64> = spans.iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        assert!(spans.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
    }
}
