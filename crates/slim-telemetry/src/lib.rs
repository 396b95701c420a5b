//! # slim-telemetry — observability substrate for the SLIM workspace
//!
//! A dependency-free (the environment is air-gapped; this crate is
//! hand-rolled in the same spirit as `crates/shims/*`) telemetry layer:
//!
//! * [`Histogram`] — log-bucketed latency/size distributions with exact
//!   `count`/`sum`/`min`/`max` and bounded-error `p50`/`p95`/`p99`
//!   quantiles. Mergeable: merging per-worker histograms at a barrier
//!   yields the same multiset as recording centrally, in any merge
//!   order.
//! * [`MetricsRegistry`] — named series (monotonic counters, gauges,
//!   histograms) in deterministic (sorted) order, snapshot into a
//!   [`Snapshot`].
//! * [`Snapshot`] — a point-in-time reading rendered two ways from one
//!   serialization path: flat JSONL ([`Snapshot::to_jsonl`], parsed
//!   back by [`parse_flat_jsonl`]) and Prometheus text exposition
//!   ([`Snapshot::to_exposition`]).
//! * [`JsonObj`] — the flat-JSON builder both renderings and the bench
//!   harness share, so there is exactly one JSON emitter in the
//!   workspace.
//! * [`SnapshotSink`] — where periodic snapshots go (a writer, a test
//!   vector, a fan-out).
//! * [`MetricsServer`] — a loopback TCP listener serving the latest
//!   exposition page (the dry run for a future `--serve` endpoint).
//!
//! Nothing here samples a clock: callers pass timestamps and durations
//! in, which is what lets a virtual clock make every reading exactly
//! reproducible in tests.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod hist;
mod json;
mod registry;
mod server;
mod sink;

pub use hist::Histogram;
pub use json::{parse_flat_jsonl, JsonObj, JsonValue};
pub use registry::{HistogramSummary, MetricsRegistry, Snapshot};
pub use server::{MetricsServer, PublishedPage};
pub use sink::{SnapshotSink, VecSink, WriterSink};
