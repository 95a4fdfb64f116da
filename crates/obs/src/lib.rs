//! Process-wide observability for the txmm pipeline.
//!
//! Three pieces, all std-only and lock-free on the hot path:
//!
//! - [`metrics`]: a central [`Registry`] of counters, gauges and
//!   log-bucketed latency [`Histogram`]s (p50/p95/p99/max), rendered as
//!   Prometheus text exposition or a single JSON line. Handles are
//!   cheap `Arc`-backed cells; the registry holds weak references and
//!   sums every live handle of a `(name, labels)` series at collection
//!   time, so independent components (e.g. one `Session` per daemon
//!   shard) keep private handles that aggregate globally.
//! - [`mod@span`]: RAII timers (`span!("vm.check")`) that record into a
//!   per-span-name histogram and, when the current request carries a
//!   trace ID, append to a bounded per-request [`Trace`] timeline.
//! - [`slow`]: a bounded ring of the slowest requests seen so far.
//! - [`progress`]: live walk telemetry — a shared [`WalkProgress`]
//!   accumulator mirrored into `txmm_walk_*` registry series, a JSONL
//!   heartbeat [`Reporter`], and a read-only [`MetricsSidecar`] TCP
//!   listener for one-shot processes.
//!
//! Handle creation takes the registry mutex — create handles once at
//! construction time (or behind a thread-local cache, as `span!` does),
//! never per request.

pub mod metrics;
pub mod progress;
pub mod slow;
pub mod span;

pub use metrics::{
    bucket_bound, bucket_index, global, json_escape, Counter, Gauge, Histogram, HistogramSnapshot,
    Registry, BUCKETS,
};
pub use progress::{
    publish_process_info, resident_bytes, serve_metrics, LaneSnapshot, MetricsSidecar,
    ProgressSink, ProgressSnapshot, Reporter, Telemetry, WalkProgress, WorkerLane,
};
pub use slow::{SlowEntry, Slowest};
pub use span::{with_trace, SpanGuard, SpanRecord, Trace, TRACE_SPAN_CAP};
