//! Process-wide observability for the txmm pipeline.
//!
//! Three pieces, all std-only and lock-free on the hot path:
//!
//! - Metrics: a central registry ([`global`]) of [`Counter`]s,
//!   [`Gauge`]s and log-bucketed latency [`Histogram`]s
//!   (p50/p95/p99/max), rendered as Prometheus text exposition or a
//!   single JSON line. Handles are cheap `Arc`-backed cells; the
//!   registry holds weak references and sums every live handle of a
//!   `(name, labels)` series at collection time, so independent
//!   components (e.g. one `Session` per daemon shard) keep private
//!   handles that aggregate globally.
//! - Spans: RAII timers (`span!("vm.check")`, a [`SpanGuard`]) that
//!   record into a per-span-name histogram and, when the current
//!   request carries a trace ID, append to a bounded per-request
//!   [`Trace`] timeline.
//! - [`Slowest`]: a bounded ring of the slowest requests seen so far.
//! - Progress: live walk telemetry — a shared [`WalkProgress`]
//!   accumulator mirrored into `txmm_walk_*` registry series, a JSONL
//!   heartbeat [`Reporter`], and a read-only metrics sidecar (a TCP
//!   listener for one-shot processes), both started from the command
//!   line by [`Telemetry`].
//!
//! Handle creation takes the registry mutex — create handles once at
//! construction time (or behind a thread-local cache, as `span!` does),
//! never per request.

pub(crate) mod metrics;
pub(crate) mod progress;
pub(crate) mod slow;
pub(crate) mod span;

pub use metrics::{bucket_index, global, json_escape, Counter, Gauge, Histogram};
pub use progress::{serve_metrics, ProgressSink, Reporter, Telemetry, WalkProgress, WorkerLane};
pub use slow::{SlowEntry, Slowest};
pub use span::{with_trace, SpanGuard, SpanRecord, Trace};
