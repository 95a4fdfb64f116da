//! RAII request spans: named timers that feed per-span histograms and,
//! when the current request carries a trace ID, a bounded per-request
//! timeline.
//!
//! The current [`Trace`] is thread-local; a request that hops threads
//! (daemon handler -> shard worker) re-installs it on each side with
//! [`with_trace`], and the `Arc<Trace>` accumulates spans from both.

use crate::metrics::{global, Histogram};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Maximum spans kept on one trace; later spans only bump `dropped`.
pub const TRACE_SPAN_CAP: usize = 64;

/// One completed span on a trace timeline. Offsets are microseconds
/// since the trace was created.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    pub name: &'static str,
    pub start_micros: u64,
    pub micros: u64,
}

/// A per-request span timeline, identified by the caller's trace ID.
pub struct Trace {
    id: String,
    start: Instant,
    cap: usize,
    spans: Mutex<Vec<SpanRecord>>,
    dropped: AtomicU64,
}

impl Trace {
    pub fn new(id: &str) -> Arc<Trace> {
        Arc::new(Trace {
            id: id.to_string(),
            start: Instant::now(),
            cap: TRACE_SPAN_CAP,
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        })
    }

    pub fn id(&self) -> &str {
        &self.id
    }

    pub fn start(&self) -> Instant {
        self.start
    }

    pub fn record(&self, span: SpanRecord) {
        let mut spans = self.spans.lock().unwrap();
        if spans.len() < self.cap {
            spans.push(span);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Spans sorted by start offset, plus how many were dropped at the
    /// cap.
    pub fn snapshot(&self) -> (Vec<SpanRecord>, u64) {
        let mut spans = self.spans.lock().unwrap().clone();
        spans.sort_by_key(|s| (s.start_micros, s.micros));
        (spans, self.dropped.load(Ordering::Relaxed))
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<Trace>>> = const { RefCell::new(None) };
    // Per-thread cache of span-name histograms so `span!` never takes
    // the registry mutex on the hot path.
    static SPAN_HISTOGRAMS: RefCell<HashMap<&'static str, Histogram>> =
        RefCell::new(HashMap::new());
}

struct Restore(Option<Arc<Trace>>);

impl Drop for Restore {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.0.take());
    }
}

/// Install `trace` (or clear it, for `None`) as the current trace for
/// the duration of `f`. Restores the previous trace even on panic.
pub fn with_trace<T>(trace: Option<&Arc<Trace>>, f: impl FnOnce() -> T) -> T {
    let _restore = Restore(CURRENT.with(|c| c.replace(trace.cloned())));
    f()
}

/// The trace currently installed on this thread, if any.
pub fn current_trace() -> Option<Arc<Trace>> {
    CURRENT.with(|c| c.borrow().clone())
}

fn span_histogram(name: &'static str) -> Histogram {
    SPAN_HISTOGRAMS.with(|m| {
        m.borrow_mut()
            .entry(name)
            .or_insert_with(|| {
                global().histogram_with(
                    "txmm_span_duration_microseconds",
                    "Duration of named pipeline spans.",
                    &[("span", name)],
                )
            })
            .clone()
    })
}

/// An in-flight span. Created by [`SpanGuard::enter`] (or the [`crate::span!`]
/// macro); records on `finish()` or drop.
pub struct SpanGuard {
    name: &'static str,
    start: Instant,
    trace: Option<(Arc<Trace>, u64)>,
    done: bool,
}

impl SpanGuard {
    pub fn enter(name: &'static str) -> SpanGuard {
        let trace = current_trace().map(|t| {
            let offset = t.start().elapsed().as_micros() as u64;
            (t, offset)
        });
        SpanGuard {
            name,
            start: Instant::now(),
            trace,
            done: false,
        }
    }

    /// Close the span now and return its duration in microseconds.
    pub fn finish(mut self) -> u64 {
        self.close()
    }

    fn close(&mut self) -> u64 {
        if self.done {
            return 0;
        }
        self.done = true;
        let micros = self.start.elapsed().as_micros() as u64;
        span_histogram(self.name).record(micros);
        if let Some((trace, start_micros)) = &self.trace {
            trace.record(SpanRecord {
                name: self.name,
                start_micros: *start_micros,
                micros,
            });
        }
        micros
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.close();
    }
}

/// `let _s = span!("vm.check");` — time the enclosing scope into the
/// `txmm_span_duration_microseconds{span="vm.check"}` histogram and the
/// current trace (if one is installed).
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_attach_to_the_current_trace_in_start_order() {
        let trace = Trace::new("t-1");
        with_trace(Some(&trace), || {
            let a = SpanGuard::enter("test.a");
            a.finish();
            let b = crate::span!("test.b");
            drop(b);
        });
        // Outside with_trace: records to histograms only.
        let c = SpanGuard::enter("test.c");
        c.finish();
        let (spans, dropped) = trace.snapshot();
        assert_eq!(dropped, 0);
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["test.a", "test.b"]);
        assert!(spans[0].start_micros <= spans[1].start_micros);
    }

    #[test]
    fn traces_cap_their_span_count() {
        let trace = Trace::new("t-cap");
        with_trace(Some(&trace), || {
            for _ in 0..TRACE_SPAN_CAP + 5 {
                SpanGuard::enter("test.capped").finish();
            }
        });
        let (spans, dropped) = trace.snapshot();
        assert_eq!(spans.len(), TRACE_SPAN_CAP);
        assert_eq!(dropped, 5);
    }

    #[test]
    fn with_trace_restores_the_previous_trace() {
        let outer = Trace::new("outer");
        let inner = Trace::new("inner");
        with_trace(Some(&outer), || {
            with_trace(Some(&inner), || {
                assert_eq!(current_trace().unwrap().id(), "inner");
            });
            assert_eq!(current_trace().unwrap().id(), "outer");
            with_trace(None, || assert!(current_trace().is_none()));
            assert_eq!(current_trace().unwrap().id(), "outer");
        });
        assert!(current_trace().is_none());
    }

    #[test]
    fn trace_spans_collect_across_threads() {
        let trace = Trace::new("t-threads");
        with_trace(Some(&trace), || SpanGuard::enter("test.handler").finish());
        let t = {
            let trace = trace.clone();
            std::thread::spawn(move || {
                with_trace(Some(&trace), || SpanGuard::enter("test.worker").finish())
            })
        };
        t.join().unwrap();
        let (spans, _) = trace.snapshot();
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert!(names.contains(&"test.handler") && names.contains(&"test.worker"));
    }
}
