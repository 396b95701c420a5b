//! Engine-side telemetry: phase identities, the engine-thread span
//! recorder, and the snapshot plumbing.
//!
//! Two recording sites exist. Worker-side spans (binning, applying,
//! expiry, LSH upserts, rescoring, finalize clones — everything the
//! pool dispatches) are recorded *per worker* inside
//! [`crate::pool::WorkerPool`] and merged in worker-id order when read,
//! so recording never synchronizes workers with each other. A phase too
//! small to dispatch runs inline on the engine thread; its time collects
//! in the pool and is booked as one span per phase at each tick barrier
//! (`WorkerPool::close_inline_spans`), so a regime that never dispatches
//! is attributed too.
//! Engine-thread spans (edge merge, matching, thresholding, the whole
//! tick barrier) and the end-to-end event latency are recorded here, on
//! the coordinator thread that already owns them.
//!
//! Everything is driven through the [`Clock`] abstraction: production
//! engines time with the wall clock, tests substitute
//! [`crate::testing::VirtualClock`] and get *exactly* reproducible
//! histograms — the recorded values are pure functions of the clock
//! readings, and recording never feeds back into scheduling, so the
//! engine's observable output is bit-identical with telemetry on, off,
//! or at any snapshot cadence.

use std::sync::{Arc, Mutex};

use slim_telemetry::{Histogram, Snapshot, SnapshotSink};

use crate::source::{Clock, WallClock};

/// Identity of a pool-dispatched engine phase — the tag every
/// [`crate::pool::WorkerPool`] submission carries so per-chunk spans
/// land in the right histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseId {
    /// Spatial binning of ingested event chunks.
    Bin,
    /// Per-shard application of queued events (histories, rings,
    /// buffers, dirty marks).
    Apply,
    /// Sliding-window expiry sweeps.
    Expire,
    /// LSH bucket-partition upserts at the candidate handoff barrier.
    Lsh,
    /// Dirty-pair rescoring chunks of a refresh tick.
    Rescore,
}

impl PhaseId {
    /// Number of pool phases (the recorder array size).
    pub(crate) const COUNT: usize = 5;

    /// All pool phases, in recorder-index order.
    pub(crate) const ALL: [PhaseId; Self::COUNT] = [
        PhaseId::Bin,
        PhaseId::Apply,
        PhaseId::Expire,
        PhaseId::Lsh,
        PhaseId::Rescore,
    ];

    /// The recorder slot of this phase.
    pub(crate) fn idx(self) -> usize {
        self as usize
    }

    /// The metric-series name of this phase's span histogram.
    pub fn name(self) -> &'static str {
        match self {
            PhaseId::Bin => "phase.bin",
            PhaseId::Apply => "phase.apply",
            PhaseId::Expire => "phase.expire",
            PhaseId::Lsh => "phase.lsh",
            PhaseId::Rescore => "phase.rescore",
        }
    }
}

/// The engine-thread recorder: barrier-phase spans, tick spans, event
/// latency, plus the snapshot sequence and sink. Lives on
/// [`crate::StreamEngine`]; disabled engines skip every clock read and
/// record call.
pub(crate) struct EngineTelemetry {
    /// From [`crate::StreamConfig::telemetry`]; gates recording (but
    /// not snapshots — a disabled engine still snapshots its counters,
    /// with empty histograms).
    pub(crate) enabled: bool,
    clock: Arc<dyn Clock + Sync>,
    /// The Mutex exists only to make `StreamEngine: Sync` (rescore
    /// chunks borrow the whole engine); emission happens exclusively on
    /// the engine thread, so it is never contended.
    sink: Option<Mutex<Box<dyn SnapshotSink>>>,
    /// Snapshots emitted so far (the next snapshot's sequence number).
    seq: u64,
    /// Spans of the k-way edge-delta merge at each tick barrier.
    pub(crate) edge_merge: Histogram,
    /// Spans of matching repair (or exact re-match) at each barrier.
    pub(crate) matching: Histogram,
    /// Spans of the stop-threshold fit + link selection.
    pub(crate) threshold: Histogram,
    /// Whole-tick barrier spans ([`crate::StreamEngine::refresh`] end
    /// to end).
    pub(crate) tick: Histogram,
    /// End-to-end event latency: source admit (drained off the bounded
    /// channel) → served at a refresh tick. Recorded by the pump.
    pub(crate) event_latency: Histogram,
    /// Per-connection frontier lag: event-time seconds a connection's
    /// watermark trailed the frontier leader at each advance. Recorded
    /// by the fan-in pump; a pure function of the fed events (no clock
    /// reads), so reproducible run to run.
    pub(crate) frontier_lag: Histogram,
    /// Per-window spans of the rescore scoring kernel (one record per
    /// `(pair, window)` contribution recomputed). Recorded chunk-local
    /// on the workers and merged at the tick barrier in chunk-id
    /// order, so the aggregate is reproducible under a virtual clock.
    pub(crate) score_kernel: Histogram,
    /// Per-query handling spans of the epoch-snapshot query server
    /// ([`crate::serve::LinkQueryServer`]). Recorded server-side on the
    /// connection handlers and folded in after the run by
    /// [`crate::StreamEngine::absorb_serve_report`] — never touched on
    /// the engine's hot paths.
    pub(crate) query_latency: Histogram,
    /// Spans of each checkpoint write (serialize + temp file + fsync +
    /// rename), recorded on the pump thread at the checkpoint cadence.
    pub(crate) checkpoint_write: Histogram,
    /// The CPU half of each `checkpoint_write` span: indexing the
    /// shards, encoding the image, and its CRCs.
    pub(crate) checkpoint_encode: Histogram,
    /// The I/O half: temp-file write, fsync, rename, and pruning.
    pub(crate) checkpoint_io: Histogram,
}

impl EngineTelemetry {
    pub(crate) fn new(enabled: bool) -> Self {
        Self {
            enabled,
            clock: Arc::new(WallClock::new()),
            sink: None,
            seq: 0,
            edge_merge: Histogram::new(),
            matching: Histogram::new(),
            threshold: Histogram::new(),
            tick: Histogram::new(),
            event_latency: Histogram::new(),
            frontier_lag: Histogram::new(),
            score_kernel: Histogram::new(),
            query_latency: Histogram::new(),
            checkpoint_write: Histogram::new(),
            checkpoint_encode: Histogram::new(),
            checkpoint_io: Histogram::new(),
        }
    }

    /// The clock reading (shared with the pool and the pump).
    pub(crate) fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    pub(crate) fn set_clock(&mut self, clock: Arc<dyn Clock + Sync>) {
        self.clock = clock;
    }

    pub(crate) fn clock(&self) -> Arc<dyn Clock + Sync> {
        Arc::clone(&self.clock)
    }

    pub(crate) fn set_sink(&mut self, sink: Box<dyn SnapshotSink>) {
        self.sink = Some(Mutex::new(sink));
    }

    /// The next snapshot's sequence number.
    pub(crate) fn seq(&self) -> u64 {
        self.seq
    }

    /// Consumes one sequence number and hands `snapshot` to the sink
    /// (a no-op without one — building the snapshot is the caller's
    /// cost either way).
    pub(crate) fn emit(&mut self, snapshot: &Snapshot) {
        self.seq += 1;
        if let Some(sink) = &self.sink {
            sink.lock().expect("sink poisoned").emit(snapshot);
        }
    }
}
