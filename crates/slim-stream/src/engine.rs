//! The incremental linkage engine — a coordinator over sharded state.
//!
//! ```text
//! events ──► pool-∥ binning onto reused columns (side, entity, window,
//!            cells per level)
//!              └► control scan (watermark / late-drop / tick schedule)
//!                   └► per-shard queues of batch positions ──► shard-∥
//!                      apply over the columns: histories and rings
//!                      (parked ones too), dirty marks
//!              barrier: df/idf deltas · LSH partition upserts ·
//!                       candidate registration (pair owner = Left shard)
//! refresh ──► shard-∥ rescore of adjacency-reachable dirty pairs,
//!              patching each shard's pair-slot table in place
//!              barrier: k-way merge of per-shard edge-delta runs ·
//!                       region-local incremental matching ·
//!                       warm-started GMM threshold · link diff
//! finalize ─► exact batch pipeline over the merged live histories
//! ```
//!
//! Every piece of per-entity and per-pair state lives on one
//! `EngineShard` keyed by entity hash; the engine owns only the
//! dataset-global residue: the merged df/idf statistics, the
//! partitioned LSH bucket index, the watermark, and the served link
//! set. Parallel phases run on a **persistent worker pool**
//! (`pool`) spawned once per engine and reused across
//! every ingest, refresh, and finalize phase: each phase's work is cut
//! into deterministic chunks (fixed-size slices of binning / rescore
//! queues, one chunk per shard where per-shard order matters) whose
//! outputs are merged in chunk-id order at the barrier, and cross-shard
//! effects are folded in as commutative deltas or coalesced ordered
//! sets — which makes the engine's observable behaviour — served
//! links, emitted [`LinkUpdate`] order, [`StreamStats`], and the
//! finalized output — **bit-identical for every shard count, worker
//! count, and claim interleaving**.
//!
//! A refresh tick discovers its work through the entity→pair adjacency
//! of each shard's `PairTable`: only pairs adjacent to
//! entities dirtied since the last tick are visited
//! (`StreamStats::dirty_pairs_visited` vs
//! `StreamStats::cached_pairs_at_ticks` measures the saving against
//! the full cache sweep this replaced).
//!
//! Between ticks, cached contributions of *untouched* windows may lag
//! the globally drifting idf statistics — refreshed lazily, exactly
//! when one of their endpoints changes. [`StreamEngine::finalize`]
//! closes the gap: it runs the unmodified batch pipeline over the
//! incrementally built history sets, so an unbounded-window replay
//! finalizes to the bit-identical output of [`slim_core::Slim::link`]
//! on the same data — provided the window origins agree. An engine
//! left to infer its origin takes the first event's timestamp; the
//! batch pipeline takes the post-min-records-filter minimum. The two
//! coincide unless the stream opens with a record of a sparse entity
//! the batch filter drops; replay paths pin the origin via
//! [`StreamEngine::with_origin`] + [`crate::batch_equivalent_origin`]
//! to cover that case too.

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use slim_core::arena::{common_runs, EntityView, HistoryArena};
use slim_core::df::DfStats;
use slim_core::similarity::SimilarityScorer;
use slim_core::{
    Edge, EdgeDelta, EntityId, HistorySet, IncrementalMatcher, LinkageOutput, LinkageStats,
    MatchingMethod, PreparedLinkage, ThresholdState, Timestamp, WindowIdx, WindowScheme,
};
use slim_lsh::{buckets_collide, BucketIndex};
use slim_telemetry::{Histogram, MetricsRegistry, Snapshot, SnapshotSink};

use crate::adjacency::{PairKey, PairSlot, SlotChanges, SlotId};
use crate::checkpoint::{
    self, CheckpointPolicy, ConfigFingerprint, DfDump, EngineDump, HistoryDump, Image, MetaDump,
    ResumeState, ShardsDump,
};
use crate::config::StreamConfig;
use crate::event::{Side, StreamEvent};
use crate::lsh::LshGeometry;
use crate::merge;
use crate::pool::{chunk_ranges, WorkerPool};
use crate::run_memo::{self, RunMemo};
use crate::shard::{
    entity_shard, lookup_view, union_sorted, BinnedBatch, BinnedColumns, CachedPair, Contribution,
    EngineShard, ExpiryEffects, IngestEffects, RescoreJob,
};
use crate::snapshot::{EpochLog, EpochPointer, LinkSnapshot};
use crate::source::Clock;
use crate::telemetry::{EngineTelemetry, PhaseId};
use crate::testing::FaultPlan;

/// One change to the served link set, emitted by a refresh tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkUpdate {
    /// A pair entered the link set.
    Added(Edge),
    /// A pair left the link set.
    Removed(Edge),
    /// A pair stayed linked but its score changed.
    Reweighted {
        /// The link as served before this tick.
        previous: Edge,
        /// The link as served now.
        current: Edge,
    },
}

/// Which side of the bit-identity contract a [`StreamStats`] counter is
/// on — the one decision its equality, the checkpoint codec, the
/// metrics registry and the guard test all read from the table below.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StatClass {
    /// A function of the event stream (and the tick schedule) alone:
    /// identical for any shard count, worker count, claim interleaving
    /// and delivery interleaving. Compared by `StreamStats`' `PartialEq`.
    Deterministic,
    /// Describes *how* a run executed — scheduling, thread interleaving,
    /// the shard partition, the durability cadence — and legitimately
    /// differs between two runs that must compare equal. Left out of
    /// `PartialEq`.
    Observational,
}

/// Declares [`StreamStats`] from one table of `class name` rows (with
/// their docs): the struct, its equality over the deterministic rows,
/// and the row iteration every other consumer uses. Declaration order
/// is the checkpoint wire order — append, never reorder.
macro_rules! stream_stats {
    ($($(#[$doc:meta])* $class:ident $name:ident,)*) => {
        /// Engine work counters, each either **deterministic** — defined
        /// over per-entity or per-pair events (or deterministic barrier
        /// merges), so identical for any shard count, worker count,
        /// claim interleaving and delivery interleaving on the same event
        /// stream — or **observational**: how the run executed
        /// (scheduling, channel flow, the per-shard partition, the
        /// checkpoint cadence), which legitimately varies between runs
        /// that must compare equal. `PartialEq` — the bit-identity
        /// contract the equivalence tests compare — covers exactly the
        /// deterministic counters; each field's docs say which it is.
        #[derive(Debug, Clone, Copy, Default)]
        pub struct StreamStats {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl StreamStats {
            /// How many counters there are.
            pub(crate) const ROWS: usize = [$(stringify!($name)),*].len();

            /// Every counter as `(name, class, value)`, in declaration
            /// order.
            pub(crate) fn rows(&self) -> [(&'static str, StatClass, u64); Self::ROWS] {
                [$((stringify!($name), StatClass::$class, self.$name)),*]
            }

            /// The same rows with the value writable.
            pub(crate) fn rows_mut(
                &mut self,
            ) -> [(&'static str, StatClass, &mut u64); Self::ROWS] {
                [$((stringify!($name), StatClass::$class, &mut self.$name)),*]
            }
        }
    };
}

stream_stats! {
    /// Events accepted (including ones of entities parked below the
    /// min-records filter).
    Deterministic events,
    /// Events dropped because their window had already expired.
    Deterministic late_dropped,
    /// Refresh ticks run.
    Deterministic ticks,
    /// `(pair, window)` contribution recomputations across all ticks.
    Deterministic rescored_windows,
    /// Candidate pairs visited by refresh ticks. Every visited pair was
    /// either freshly discovered or reached through the entity→pair
    /// adjacency index from a dirty entity — never a blind cache sweep.
    Deterministic dirty_pairs_visited,
    /// Σ over ticks of the cached-pair total at tick time: the work a
    /// full-cache sweep would have done. `dirty_pairs_visited` staying
    /// below this is the adjacency index paying off.
    Deterministic cached_pairs_at_ticks,
    /// Cached pairs retired because their ring signatures no longer
    /// collide in any LSH band *and* all their cached window
    /// contributions were evicted.
    Deterministic retired_pairs,
    /// Temporal windows expired out of the sliding window.
    Deterministic evicted_windows,
    /// Edge-cache entries patched (inserted, reweighted, or removed)
    /// across all barriers. Every patch is one pair's cached edge
    /// changing, so on a localized update this stays proportional to
    /// the update footprint — never to the cache size the pre-refactor
    /// barrier swept.
    Deterministic edges_patched,
    /// Σ over ticks of the incremental matcher's conflict-region size
    /// (edges greedy selection actually re-ran over). Bounded by the
    /// connected components the patched edges touch, not the edge set.
    Deterministic matching_region_size,
    /// Σ EM iterations spent in warm-started GMM threshold fits (0 on
    /// cold fits — first tick, warm non-convergence fallback, or a
    /// non-GMM threshold method).
    Deterministic em_warm_iters,
    /// Total nanoseconds an ingestion-front-end producer spent blocked
    /// on a full bounded channel across [`StreamEngine::drive`] runs —
    /// nonzero means backpressure reached the feed (the engine is the
    /// bottleneck, not the source). Wall-clock time, so observational.
    Observational blocked_producer_ns,
    /// Highest bounded-channel occupancy observed by any
    /// [`StreamEngine::drive`] run (≤ its `queue_cap`). Follows how the
    /// producer and consumer threads interleaved, so observational.
    Observational queue_high_watermark,
    /// Arrivals rejected by the front-end watermark reorder buffer for
    /// exceeding the configured out-of-order lag. Distinct from
    /// [`StreamStats::late_dropped`], which counts events whose
    /// *window* had already expired out of the sliding window.
    Deterministic late_events,
    /// Entities demoted because expiry left them at or below the
    /// min-records threshold.
    Deterministic demoted_entities,
    /// Still-live records of those entities when they were demoted.
    /// The records are not lost: their bins stay in the arena, parked,
    /// and keep counting toward reactivation exactly as a batch run
    /// over the live slice would count them.
    Deterministic demoted_records,
    /// Columnar-arena compaction passes across all shards. Each
    /// shard's arenas compact on their own dead/live slot ratio, which
    /// depends on how entities partition across shards — deterministic
    /// for a fixed shard count but legitimately different across shard
    /// counts, so observational.
    Observational arena_compactions,
    /// Chunks of shard work a pool worker took from the back of another
    /// worker's block — nonzero means the pool actually rebalanced a
    /// skewed phase. Varies with worker count and schedule.
    Observational steal_events,
    /// Highest per-worker busy time (nanoseconds) across the pool over
    /// the engine's lifetime. It would diverge from
    /// [`StreamStats::min_worker_busy_ns`] if a hot shard's chunks
    /// stayed on one worker; taking from other blocks keeps the two
    /// close.
    Observational max_worker_busy_ns,
    /// Lowest per-worker busy time (nanoseconds) across the pool — `0`
    /// until every worker has executed at least one chunk.
    Observational min_worker_busy_ns,
    /// Wire lines that failed to parse on a lenient (multi-connection)
    /// ingest path and were counted + skipped instead of killing the
    /// connection. A pure function of the fed bytes.
    Deterministic malformed_lines,
    /// Connections that completed the fan-in protocol (joined the
    /// frontier) across [`StreamEngine::drive_fan_in`] runs. A function
    /// of the scripted/accepted connection set.
    Deterministic connections_served,
    /// Connections evicted from the frontier merge for exceeding the
    /// idle timeout. Depends on wall-clock arrival timing (which thread
    /// stalled how long).
    Observational idle_evictions,
    /// Epoch snapshots published at tick barriers (one per refresh tick
    /// that ran with a window scheme). A pure function of the stream
    /// prefix + tick schedule.
    Deterministic snapshots_published,
    /// Link queries answered by epoch-snapshot query servers, folded in
    /// via [`StreamEngine::absorb_serve_report`] after a serving run. A
    /// function of the queries the clients issued (both sides of a
    /// comparison fold in the same report — or none).
    Deterministic queries_served,
    /// Checkpoint files written durably (temp + fsync + rename
    /// completed). A function of the checkpoint cadence, not of the
    /// event stream — a checkpoint-off run has 0 while producing
    /// identical output.
    Observational checkpoints_written,
    /// Checkpoint files rejected during recovery (bad magic, torn
    /// frame, checksum mismatch) before a valid one loaded. Only a
    /// recovered run can have these; the unbroken reference it must
    /// compare equal to never does.
    Observational checkpoints_rejected,
    /// Total bytes of durable checkpoint payload written. Follows
    /// `checkpoints_written`.
    Observational checkpoint_bytes,
}

impl PartialEq for StreamStats {
    /// Equality over the deterministic counters only: the observational
    /// ones are degrees of freedom the bit-identity contract explicitly
    /// leaves free.
    fn eq(&self, other: &Self) -> bool {
        self.rows()
            .into_iter()
            .zip(other.rows())
            .all(|((_, class, a), (_, _, b))| class == StatClass::Observational || a == b)
    }
}

impl Eq for StreamStats {}

/// The partitioned LSH runtime: shared banding geometry plus one
/// [`BucketIndex`] partition per shard. At each merge barrier the same
/// coalesced signature-update sequence is offered to every partition;
/// each touches only the `(band, bucket)` slots it owns and the
/// partners it reports are unioned per entity — the cross-shard
/// candidate handoff.
struct LshRuntime {
    geom: LshGeometry,
    partitions: Vec<BucketIndex>,
}

impl LshRuntime {
    fn new(cfg: &crate::config::StreamLshConfig, num_shards: usize) -> Self {
        let geom = LshGeometry::new(cfg);
        let partitions = (0..num_shards)
            .map(|p| {
                BucketIndex::partitioned(
                    geom.bands,
                    geom.rows,
                    geom.num_buckets,
                    p as u64,
                    num_shards as u64,
                )
            })
            .collect();
        Self { geom, partitions }
    }
}

/// Minimum work items (queued events, signature updates, expiring
/// entities) before a phase is dispatched to the worker pool; below it
/// the per-shard work runs inline (single-event `ingest` stays
/// allocation-light and dispatch-free).
const PARALLEL_THRESHOLD: usize = 128;

/// Pool gate for tick rescoring — lower than [`PARALLEL_THRESHOLD`]
/// because one rescore job (a pair's dirty windows) carries far more
/// work than one ingest event.
const PARALLEL_RESCORE_THRESHOLD: usize = 32;

/// Rescore jobs per chunk: a hot shard's job list splits into many
/// chunks that any free worker can claim, which is what makes tick latency track total
/// dirty work instead of the hottest shard. Fixed for the same
/// determinism reason as [`BinnedBatch::CHUNK`].
const RESCORE_CHUNK: usize = 32;

/// The event-driven linkage engine. See the module docs for the data
/// flow; see [`StreamConfig`] for the knobs.
pub struct StreamEngine {
    cfg: StreamConfig,
    /// Resolved shard count (≥ 1).
    num_shards: usize,
    /// Resolved pool worker count (≥ 1).
    num_workers: usize,
    /// The persistent execution pool: spawned once (lazily, on the
    /// first phase big enough to parallelize) and reused by every
    /// ingest, refresh, and finalize phase until the engine drops.
    pool: WorkerPool,
    scheme: Option<WindowScheme>,
    shards: Vec<EngineShard>,
    /// Barrier-merged dataset-level statistics, `[left, right]`.
    df: [DfStats; 2],
    /// Total window domain (max appended window + 1).
    domain: u32,
    lsh: Option<LshRuntime>,
    /// Highest window index seen.
    watermark: WindowIdx,
    /// Windows below this index have expired.
    expired_below: WindowIdx,
    /// The currently served link set (as of the last tick).
    links: Vec<Edge>,
    /// The greedy matching maintained under edge deltas — mirrors the
    /// union of the per-shard pair tables' edges; repaired
    /// region-locally at each barrier.
    matcher: IncrementalMatcher,
    /// Warm-started stop-threshold state over the matched weights.
    threshold_state: ThresholdState,
    events_since_refresh: usize,
    stats: StreamStats,
    scoring_stats: LinkageStats,
    /// Connections currently merged into the fan-in frontier (a gauge:
    /// rises on Join, falls on Leave/eviction, `0` outside
    /// [`StreamEngine::drive_fan_in`] runs).
    live_connections: u64,
    /// Engine-thread spans, event latency, and the snapshot plumbing.
    tel: EngineTelemetry,
    /// The published epoch pointer: swapped at each tick barrier, loaded
    /// by query servers and reader threads holding a clone.
    epoch: EpochPointer,
    /// Optional observation hook recording every published epoch (the
    /// equivalence tests' complete publication sequence).
    epoch_log: Option<EpochLog>,
    /// Active durability policy (`None` = checkpointing off). Lives on
    /// the engine — not on the `Copy + Eq` [`StreamConfig`] /
    /// `DriveOptions` — because it holds a path and never participates
    /// in equality contracts.
    checkpoint: Option<CheckpointPolicy>,
    /// The checkpoint encode buffer: every image is serialized into it
    /// and written from it, so after the first checkpoint a write
    /// allocates nothing for the image (cleared, capacity kept).
    checkpoint_buf: Vec<u8>,
    /// Deterministic fault injection for the crash/recover harness
    /// (default: no faults).
    fault_plan: FaultPlan,
    /// Pump-side resume state loaded by [`StreamEngine::recover`],
    /// consumed by the next drive.
    resume: Option<ResumeState>,
    /// The ingest batch's binned columns, refilled by every batch.
    binned: BinnedBatch,
    /// Per shard: the batch positions queued for the next apply.
    queues: Vec<Vec<usize>>,
}

impl StreamEngine {
    /// Creates an engine after validating the configuration. The window
    /// scheme's origin is taken from the first ingested event; use
    /// [`StreamEngine::with_origin`] to pin it (e.g. to compare against
    /// a batch run over data whose earliest record is known).
    pub fn new(cfg: StreamConfig) -> Result<Self, String> {
        cfg.validate()?;
        let num_shards = cfg.effective_shards();
        let num_workers = cfg.effective_workers();
        Ok(Self {
            lsh: cfg.lsh.as_ref().map(|l| LshRuntime::new(l, num_shards)),
            pool: WorkerPool::new(num_workers, cfg.telemetry),
            tel: EngineTelemetry::new(cfg.telemetry),
            cfg,
            num_shards,
            num_workers,
            scheme: None,
            shards: (0..num_shards).map(|_| EngineShard::default()).collect(),
            df: [DfStats::new(), DfStats::new()],
            domain: 0,
            watermark: 0,
            expired_below: 0,
            links: Vec::new(),
            matcher: IncrementalMatcher::new(),
            threshold_state: ThresholdState::new(),
            events_since_refresh: 0,
            stats: StreamStats::default(),
            scoring_stats: LinkageStats::default(),
            live_connections: 0,
            epoch: EpochPointer::new(),
            epoch_log: None,
            checkpoint: None,
            checkpoint_buf: Vec::new(),
            fault_plan: FaultPlan::default(),
            resume: None,
            binned: BinnedBatch::default(),
            queues: vec![Vec::new(); num_shards],
        })
    }

    /// [`StreamEngine::new`] with the window origin pinned up front.
    pub fn with_origin(cfg: StreamConfig, origin: Timestamp) -> Result<Self, String> {
        let mut engine = Self::new(cfg)?;
        engine.init_scheme(origin);
        Ok(engine)
    }

    fn init_scheme(&mut self, origin: Timestamp) {
        self.scheme = Some(WindowScheme::new(origin, self.cfg.slim.window_width_secs));
    }

    /// The engine's window scheme (`None` until the first event).
    pub fn scheme(&self) -> Option<&WindowScheme> {
        self.scheme.as_ref()
    }

    /// The configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.cfg
    }

    /// The resolved shard count.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// The resolved worker-pool size (decoupled from
    /// [`StreamEngine::num_shards`]).
    pub fn num_workers(&self) -> usize {
        self.num_workers
    }

    /// Refreshes the scheduling telemetry in [`StreamStats`] from the
    /// pool's lifetime counters. Called after every phase that may have
    /// dispatched chunks.
    fn sync_pool_stats(&mut self) {
        self.stats.steal_events = self.pool.steal_events();
        let (max, min) = self.pool.busy_spread_ns();
        self.stats.max_worker_busy_ns = max;
        self.stats.min_worker_busy_ns = min;
    }

    /// Refreshes [`StreamStats::arena_compactions`] from the per-shard
    /// arenas. Called after phases that append or evict history.
    fn sync_arena_stats(&mut self) {
        self.stats.arena_compactions = self
            .shards
            .iter()
            .map(|s| s.histories[0].compactions() + s.histories[1].compactions())
            .sum();
    }

    /// Work counters.
    pub fn stats(&self) -> &StreamStats {
        &self.stats
    }

    /// Cumulative similarity-scoring counters across all ticks.
    pub fn scoring_stats(&self) -> &LinkageStats {
        &self.scoring_stats
    }

    /// The link set as of the last refresh tick.
    pub fn links(&self) -> &[Edge] {
        &self.links
    }

    /// Number of active (past the min-records filter) entities.
    pub fn num_active(&self, side: Side) -> usize {
        self.shards.iter().map(|s| s.active[side.idx()].len()).sum()
    }

    /// Number of candidate pairs currently tracked (across all shards).
    pub fn num_candidate_pairs(&self) -> usize {
        self.shards.iter().map(|s| s.pairs.len()).sum()
    }

    /// Number of live edges across the per-shard pair tables (pairs
    /// whose assembled score was strictly positive at their last
    /// rescore).
    pub fn num_live_edges(&self) -> usize {
        self.shards.iter().map(|s| s.pairs.live_edges()).sum()
    }

    /// The live history of one entity (`None` if filtered or expired):
    /// its range of the home shard's arena, borrowed. A parked entity's
    /// bins are not served.
    pub fn history(&self, side: Side, entity: EntityId) -> Option<EntityView<'_>> {
        let shard = &self.shards[entity_shard(side, entity, self.num_shards)];
        if !shard.active[side.idx()].contains(&entity) {
            return None;
        }
        shard.histories[side.idx()].view(entity)
    }

    /// Number of entities with a live history on one side: the active
    /// ones (an active entity always has bins; a parked one's do not
    /// count).
    pub fn num_tracked_entities(&self, side: Side) -> usize {
        self.num_active(side)
    }

    /// Entity ids with a live history on one side, sorted.
    pub fn tracked_entities_sorted(&self, side: Side) -> Vec<EntityId> {
        let mut out: Vec<EntityId> = self
            .shards
            .iter()
            .flat_map(|s| s.active[side.idx()].iter().copied())
            .collect();
        out.sort_unstable();
        out
    }

    /// The shard partition, the merged `[left, right]` df statistics and
    /// the watermark, read-only — what
    /// [`crate::testing::RecomputeOracle`] compares against a
    /// recomputation from the events.
    pub(crate) fn windowed_state(&self) -> (&[EngineShard], &[DfStats; 2], WindowIdx) {
        (&self.shards, &self.df, self.watermark)
    }

    /// The banding geometry and the bucket partitions, read-only (`None`
    /// without LSH) — what [`crate::testing::RecomputeOracle`] holds to
    /// the rings.
    pub(crate) fn lsh_state(&self) -> Option<(&LshGeometry, &[BucketIndex])> {
        self.lsh
            .as_ref()
            .map(|l| (&l.geom, l.partitions.as_slice()))
    }

    fn lsh_level(&self) -> Option<u8> {
        self.lsh.as_ref().map(|l| l.geom.spatial_level)
    }

    /// Drains a [`crate::source::StreamSource`] to EOF through the
    /// bounded ingestion front-end, as the one-connection case of
    /// [`StreamEngine::drive_fan_in`]: the source runs on a producer
    /// thread behind a backpressured channel, arrivals are restored to
    /// canonical order by the frontier-driven reorder buffer, and
    /// refresh ticks fire per [`crate::source::TickPolicy`] — the
    /// inverted loop where the engine pulls its feed instead of being
    /// pushed events. Overrides the engine's `refresh_every` with the
    /// policy (an `EveryN(n)` policy installs `n`; the others disable
    /// the internal counter and tick from the pump). Does *not* refresh
    /// or finalize at EOF; callers decide how to close the stream.
    ///
    /// A source can replay its accepted prefix from event 0, so this
    /// is the entry that may checkpoint
    /// ([`StreamEngine::set_checkpoint_policy`]) and that a recovered
    /// engine resumes through.
    pub fn drive<S: crate::source::StreamSource + Send>(
        &mut self,
        source: S,
        opts: &crate::source::DriveOptions,
    ) -> Result<crate::source::IngestReport, String> {
        let mut polls = crate::source::listener::Polls::default();
        let tier = crate::source::listener::SingleSource {
            source,
            batch_max: opts.source_batch,
            polls: &mut polls,
        };
        let mut report = self.drive_tier(tier, opts, true)?;
        report.source_batches = polls.batches;
        report.source_stalls = polls.stalls;
        Ok(report)
    }

    /// Drains a producer tier to EOF: every connection produces into
    /// one bounded MPSC channel (Join/Event/Leave protocol),
    /// per-connection watermarks are merged into the global
    /// min-frontier by [`crate::source::ConnectionFrontier`], and the
    /// frontier governs lateness, reorder-buffer release and
    /// `Watermark` ticks. N sockets cannot replay their accepted
    /// prefix, so a checkpoint policy or a recovered engine is refused
    /// here, before anything is consumed.
    pub fn drive_fan_in<F: crate::source::FanIn + Send>(
        &mut self,
        fan_in: F,
        opts: &crate::source::DriveOptions,
    ) -> Result<crate::source::IngestReport, String> {
        self.drive_tier(fan_in, opts, false)
    }

    /// The one drive both entries run.
    fn drive_tier<F: crate::source::FanIn + Send>(
        &mut self,
        tier: F,
        opts: &crate::source::DriveOptions,
        replayable: bool,
    ) -> Result<crate::source::IngestReport, String> {
        let report = crate::source::pump::run(self, tier, opts, replayable);
        // The encode buffer serves one drive's checkpoints; an engine
        // that outlives its drive (serving, finalizing) should not pin
        // an image-sized allocation.
        self.checkpoint_buf = Vec::new();
        report
    }

    /// Installs the tick policy's internal refresh interval (the pump
    /// owns external ticking for the non-`EveryN` policies).
    pub(crate) fn set_refresh_every(&mut self, n: usize) {
        self.cfg.refresh_every = n;
        // A pending recovery resume carries the checkpointed tick
        // counter; resetting it would shift every subsequent `EveryN`
        // tick relative to the unbroken run.
        if self.resume.is_none() {
            self.events_since_refresh = 0;
        }
    }

    /// Folds one drive run's channel, lateness and connection counters
    /// into the stats.
    pub(crate) fn absorb_ingest_report(&mut self, report: &crate::source::IngestReport) {
        self.stats.blocked_producer_ns += report.blocked_producer_ns;
        self.stats.queue_high_watermark = self
            .stats
            .queue_high_watermark
            .max(report.queue_high_watermark);
        self.stats.late_events += report.late_events;
        self.stats.connections_served += report.connections;
        self.stats.malformed_lines += report.malformed_lines;
        self.stats.idle_evictions += report.idle_evictions;
    }

    /// Updates the `live_connections` gauge (connections currently
    /// merged into the frontier). Maintained by the pump as connections
    /// join and leave; returns to `0` when a drive ends.
    pub(crate) fn set_live_connections(&mut self, live: u64) {
        self.live_connections = live;
    }

    /// Records one per-connection frontier-lag observation (how far a
    /// connection's watermark trails the leader's, in event-time
    /// seconds — a pure function of the fed events, so the histogram is
    /// reproducible run to run). No-op with telemetry disabled.
    pub(crate) fn record_frontier_lag(&mut self, lag_secs: u64) {
        if self.tel.enabled {
            self.tel.frontier_lag.record(lag_secs);
        }
    }

    /// Enables crash-safe checkpointing: every `every` consumed source
    /// events, [`StreamEngine::drive`] serializes the complete engine +
    /// pump state into `dir` (atomic temp-file + fsync + rename),
    /// retaining the newest `keep` files. `every = 0` disables
    /// checkpointing again. See [`StreamEngine::recover`] for the read
    /// side and the `checkpoint` module docs for the file format.
    pub fn set_checkpoint_policy(&mut self, dir: PathBuf, every: u64, keep: usize) {
        self.checkpoint = (every > 0).then(|| CheckpointPolicy {
            dir,
            every,
            keep: keep.max(1),
        });
    }

    /// The active durability policy, if any.
    pub fn checkpoint_policy(&self) -> Option<&CheckpointPolicy> {
        self.checkpoint.as_ref()
    }

    /// Installs a deterministic fault plan (kill-at-event, torn write,
    /// bit flip) for the crash/recover test harness. Strictly a testing
    /// hook: the default plan injects nothing.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = plan;
    }

    /// The installed fault plan (all-`None` by default).
    pub(crate) fn fault_plan(&self) -> FaultPlan {
        self.fault_plan
    }

    /// The recovered pump state, for the drive loop to check before it
    /// commits to [`StreamEngine::take_resume_state`].
    pub(crate) fn resume_state(&self) -> Option<&ResumeState> {
        self.resume.as_ref()
    }

    /// Hands the recovered pump state (reorder buffer, ticker, resume
    /// offset) to the drive loop — present until the first drive after
    /// [`StreamEngine::recover`] that passes its start-up checks.
    pub(crate) fn take_resume_state(&mut self) -> Option<ResumeState> {
        self.resume.take()
    }

    /// Serializes the complete current state plus `pump` and installs
    /// it atomically in the policy directory, then prunes beyond the
    /// retention count. `corrupt` applies the fault plan's torn-write /
    /// bit-flip corruption to the image first (the harness's
    /// crash-mid-write simulation). No-op without a policy.
    pub(crate) fn write_checkpoint(
        &mut self,
        pump: ResumeState,
        corrupt: bool,
    ) -> Result<(), String> {
        let Some(policy) = self.checkpoint.clone() else {
            return Ok(());
        };
        let t0 = self.tel.enabled.then(|| self.tel.now_ns());
        let consumed = pump.consumed;
        let mut bytes = std::mem::take(&mut self.checkpoint_buf);
        checkpoint::encode_into(&mut bytes, &self.capture_state(pump));
        if corrupt {
            checkpoint::apply_fault(&mut bytes, &self.fault_plan);
        }
        let spans = t0.map(|t0| (t0, self.tel.now_ns()));
        let written = checkpoint::write_atomic(&policy.dir, consumed, &bytes);
        self.checkpoint_buf = bytes;
        let written = written?;
        checkpoint::prune_old(&policy.dir, policy.keep);
        self.stats.checkpoints_written += 1;
        self.stats.checkpoint_bytes += written;
        if let Some((t0, encoded)) = spans {
            let done = self.tel.now_ns();
            self.tel
                .checkpoint_encode
                .record(encoded.saturating_sub(t0));
            self.tel.checkpoint_io.record(done.saturating_sub(encoded));
            self.tel.checkpoint_write.record(done.saturating_sub(t0));
        }
        Ok(())
    }

    /// Freezes the engine into its checkpoint image without copying
    /// shard state: each collection becomes one index of references
    /// into every shard, sorted by key, so the image is shard-agnostic
    /// (byte-identical for every shard count — and the per-shard maps
    /// iterate in hash order anyway). The published epoch's scalars are
    /// read back from the epoch pointer so recovery can republish it
    /// verbatim.
    fn capture_state(&self, pump: ResumeState) -> Image<'_> {
        let snap = self.epoch.load();
        let mut shards = ShardsDump::default();
        for shard in &self.shards {
            for i in 0..2 {
                for e in shard.histories[i].entities() {
                    let (view, window_records) = shard.histories[i]
                        .export_entity(e)
                        .expect("listed by entities");
                    let dump = HistoryDump {
                        wins: view.wins.into(),
                        cells: view.cells.into(),
                        counts: view.counts.into(),
                        window_records: window_records.into(),
                    };
                    shards.histories[i].push((e, dump));
                }
                shards.active[i].extend(shard.active[i].iter().copied());
                shards.dirty[i]
                    .extend(shard.dirty[i].iter().map(|(&e, ws)| (e, Cow::Borrowed(ws))));
                shards.dead[i].extend(shard.dead[i].iter().copied());
            }
            shards.active_windows.extend(&shard.active_windows);
            shards.rings.extend(shard.rings.export());
            for (_, slot) in shard.pairs.slots() {
                shards
                    .cache
                    .push((slot.pair, Cow::Borrowed(&slot.cached.windows[..])));
                if slot.fresh {
                    shards.fresh.push(slot.pair);
                }
                if let Some(w) = slot.edge {
                    shards.edges.push((slot.pair, w));
                }
            }
            shards.edge_deltas.extend(shard.pairs.edge_deltas());
        }
        shards.active_windows.sort_unstable();
        shards.active_windows.dedup();
        for i in 0..2 {
            shards.histories[i].sort_unstable_by_key(|&(e, _)| e);
            shards.active[i].sort_unstable();
            shards.dirty[i].sort_unstable_by_key(|&(e, _)| e);
            shards.dead[i].sort_unstable();
        }
        shards.rings.sort_unstable_by_key(|d| (d.side, d.entity));
        shards.cache.sort_unstable_by_key(|&(p, _)| p);
        shards.fresh.sort_unstable();
        shards.edges.sort_unstable_by_key(|&(p, _)| p);
        shards.edge_deltas.sort_unstable_by_key(|&(p, _)| p);

        Image {
            meta: MetaDump {
                consumed: pump.consumed,
                fingerprint: ConfigFingerprint::of(&self.cfg),
            },
            engine: EngineDump {
                origin: self.scheme.as_ref().map(|s| s.window_start(0).secs()),
                domain: self.domain,
                watermark: self.watermark,
                expired_below: self.expired_below,
                events_since_refresh: self.events_since_refresh as u64,
                stats: self.stats,
                scoring: self.scoring_stats,
                links: self.links.clone(),
                epoch_events: snap.events,
                epoch_threshold: snap.threshold,
                epoch_frontier: snap.frontier.map(|t| t.secs()),
                matcher_edges: self.matcher.edges_sorted(),
                warm_seed: self.threshold_state.warm_seed(),
                df: [0, 1].map(|i| DfDump {
                    entries: self.df[i].sorted_entries(),
                    total_bins: self.df[i].total_bins() as u64,
                    num_entities: self.df[i].num_entities() as u64,
                }),
            },
            shards,
            pump,
        }
    }

    /// Rebuilds an engine from the newest valid checkpoint in `dir`,
    /// falling back past torn or corrupted files (each one counted in
    /// [`StreamStats::checkpoints_rejected`]). `cfg` must fingerprint
    /// identically to the checkpoint's configuration (shard and worker
    /// counts excepted — checkpoints are shard-agnostic). The next
    /// [`StreamEngine::drive`] over the *same source* resumes after the
    /// checkpointed accepted prefix, and everything observable from
    /// then on — published epochs, served links, stats, finalized
    /// output — is bit-identical to a run that never crashed.
    pub fn recover(cfg: StreamConfig, dir: &Path) -> Result<Self, String> {
        let (state, rejected) = checkpoint::load_latest(dir)?;
        state.meta.fingerprint.check(&cfg)?;
        let mut engine = Self::new(cfg)?;
        engine.restore_state(state)?;
        engine.stats.checkpoints_rejected += rejected;
        Ok(engine)
    }

    /// The recovery inverse of [`StreamEngine::capture_state`]:
    /// redistributes the merged dumps across this engine's shards by
    /// the deterministic entity hash and rebuilds every derived
    /// structure (window membership, adjacency, bucket partitions,
    /// matching, threshold multiset, published epoch).
    fn restore_state(&mut self, state: Image<'static>) -> Result<(), String> {
        let Image {
            meta: _,
            engine: e,
            shards: s,
            pump,
        } = state;
        if let Some(origin) = e.origin {
            self.init_scheme(Timestamp(origin));
        }
        self.domain = e.domain;
        self.watermark = e.watermark;
        self.expired_below = e.expired_below;
        self.events_since_refresh = e.events_since_refresh as usize;
        self.stats = e.stats;
        self.scoring_stats = e.scoring;
        self.links = e.links;
        self.df = e.df.map(|d| {
            DfStats::from_parts(d.entries, d.total_bins as usize, d.num_entities as usize)
        });

        let n = self.num_shards;
        let ShardsDump {
            histories,
            active_windows,
            v1_pending,
            active,
            dirty,
            dead,
            rings,
            cache,
            fresh,
            edges,
            edge_deltas,
        } = s;
        self.shards[0].active_windows.extend(active_windows);
        for (side, per_side) in [Side::Left, Side::Right].into_iter().zip(histories) {
            let i = side.idx();
            for (ent, dump) in per_side {
                let home = &mut self.shards[entity_shard(side, ent, n)];
                // Window membership is derivable: the per-window record
                // counts carry exactly one entry per live window.
                for &(w, _) in dump.window_records.iter() {
                    home.window_entities.entry(w).or_default()[i].insert(ent);
                }
                home.histories[i].restore_entity(
                    ent,
                    &dump.wins,
                    &dump.cells,
                    &dump.counts,
                    dump.window_records.into_owned(),
                );
            }
        }
        // An active entity's bins count, so it always has some: refuse
        // an image that says otherwise rather than panic at finalize.
        for (side, per_side) in [Side::Left, Side::Right].into_iter().zip(active) {
            for ent in per_side {
                let home = &mut self.shards[entity_shard(side, ent, n)];
                if home.histories[side.idx()].view(ent).is_none() {
                    return Err(format!("active {side:?} {ent:?} has no history"));
                }
                home.active[side.idx()].insert(ent);
            }
        }
        for (side, per_side) in [Side::Left, Side::Right].into_iter().zip(dirty) {
            for (ent, ws) in per_side {
                self.shards[entity_shard(side, ent, n)].dirty[side.idx()]
                    .insert(ent, ws.into_owned());
            }
        }
        for (side, per_side) in [Side::Left, Side::Right].into_iter().zip(dead) {
            for ent in per_side {
                self.shards[entity_shard(side, ent, n)].dead[side.idx()].insert(ent);
            }
        }
        // Re-upsert every restored ring's band buckets (rebuilt by
        // `ShardRings::restore`) into the bucket partitions —
        // deliberately NOT via candidate registration: the serialized
        // cache below is the authoritative candidate set, and
        // re-registering would resurrect pairs the unbroken run had
        // already retired.
        // A parked entity's ring is restored but stays out of the
        // partitions, as it does in the unbroken run.
        if let Some(lsh) = &mut self.lsh {
            for dump in rings {
                let (side, ent) = (dump.side, dump.entity);
                let home = &mut self.shards[entity_shard(side, ent, n)];
                home.rings.restore(&lsh.geom, dump)?;
                if let Some(buckets) = home.lsh_buckets(side, ent) {
                    for partition in &mut lsh.partitions {
                        let _ = partition.upsert_hashed(side.index_side(), ent, buckets);
                    }
                }
            }
        }
        // A version-1 image kept parked entities' events in min-records
        // buffers instead of the arena: fold them in, in stream order,
        // through the path ingest parks them by.
        let geom = self.lsh.as_ref().map(|l| l.geom);
        let mut new_bins = Vec::new();
        for b in v1_pending.iter().flatten().flat_map(|(_, events)| events) {
            let b = b.binned();
            self.shards[entity_shard(b.side, b.entity, n)].store(b, geom.as_ref(), &mut new_bins);
        }
        let owner = |pair: PairKey| entity_shard(Side::Left, pair.0, n);
        for (pair, wins) in cache {
            let cached = CachedPair::from_windows(wins.into_owned());
            self.shards[owner(pair)].pairs.insert(pair, cached, false);
        }
        for pair in fresh {
            self.shards[owner(pair)].pairs.restore_fresh(pair)?;
        }
        for (pair, w) in edges {
            self.shards[owner(pair)].pairs.restore_edge(pair, w)?;
        }
        for (pair, w) in edge_deltas {
            self.shards[owner(pair)].pairs.restore_delta(pair, w);
        }

        // The matcher travels as its full edge set (it lags the shard
        // pair tables' edges by the unconsumed deltas above) and is
        // rebuilt in one upsert batch; the threshold multiset is by
        // construction the current matching's weights.
        let deltas: Vec<EdgeDelta> = e
            .matcher_edges
            .iter()
            .map(|edge| EdgeDelta {
                left: edge.left,
                right: edge.right,
                weight: Some(edge.weight),
            })
            .collect();
        self.matcher.apply_deltas(&deltas);
        for edge in self.matcher.matching() {
            self.threshold_state.insert(edge.weight);
        }
        self.threshold_state.set_warm_seed(e.warm_seed);

        // Republish the checkpointed epoch behind the pointer (never
        // into the epoch log: a log installed on the recovered engine
        // observes only post-recovery publications, which is what the
        // equivalence tests splice against). The next tick then
        // publishes `snapshots_published + 1`, exactly like the
        // unbroken run.
        if self.stats.snapshots_published > 0 {
            self.epoch.publish(Arc::new(LinkSnapshot {
                epoch: self.stats.snapshots_published,
                events: e.epoch_events,
                links: self.links.clone(),
                threshold: e.epoch_threshold,
                frontier: e.epoch_frontier.map(Timestamp),
            }));
        }
        self.sync_arena_stats();
        self.resume = Some(pump);
        Ok(())
    }

    /// Swaps the telemetry clock everywhere spans are timed: the
    /// engine-thread barrier spans, the pool's per-chunk spans and busy
    /// totals, event latency, and snapshot timestamps. Substituting a
    /// [`crate::testing::VirtualClock`] makes every recorded value an
    /// exact function of the test's clock advances — CI never sleeps to
    /// observe telemetry.
    pub fn set_telemetry_clock(&mut self, clock: Arc<dyn Clock + Sync>) {
        self.pool.set_clock(Arc::clone(&clock));
        self.tel.set_clock(clock);
    }

    /// Installs the consumer of periodic snapshots (JSONL writer,
    /// test collector, scrape-page publisher). Snapshots are emitted by
    /// [`StreamEngine::emit_snapshot`] — on a cadence by the drive loop
    /// when [`crate::DriveOptions::metrics_every`] is set, or whenever
    /// the caller asks.
    pub fn set_metrics_sink(&mut self, sink: Box<dyn SnapshotSink>) {
        self.tel.set_sink(sink);
    }

    /// A point-in-time metrics snapshot: every [`StreamStats`] counter,
    /// the engine gauges (served links, live edges, candidate pairs),
    /// and all span/busy/latency histograms. Does not consume a
    /// sequence number — the returned snapshot carries the sequence the
    /// *next* emission would get.
    pub fn snapshot(&self) -> Snapshot {
        self.registry().snapshot(self.tel.seq(), self.tel.now_ns())
    }

    /// Builds one snapshot, advances the sequence, and hands it to the
    /// installed sink (no-op without one).
    pub fn emit_snapshot(&mut self) {
        let snapshot = self.registry().snapshot(self.tel.seq(), self.tel.now_ns());
        self.tel.emit(&snapshot);
    }

    /// The merged phase-span histograms by series name: the five
    /// pool-dispatched phases (per-worker recorders folded in worker-id
    /// order) followed by the engine-thread barrier spans and the
    /// whole-tick span.
    pub fn phase_histograms(&self) -> Vec<(&'static str, Histogram)> {
        let mut out: Vec<(&'static str, Histogram)> = PhaseId::ALL
            .iter()
            .zip(self.pool.phase_histograms())
            .map(|(p, h)| (p.name(), h))
            .collect();
        out.push(("phase.edge_merge", self.tel.edge_merge.clone()));
        out.push(("phase.match", self.tel.matching.clone()));
        out.push(("phase.threshold", self.tel.threshold.clone()));
        out.push(("score_kernel_ns", self.tel.score_kernel.clone()));
        out.push(("tick", self.tel.tick.clone()));
        out
    }

    /// The rescore scoring-kernel histogram: one span per `(pair,
    /// window)` contribution recomputed during refresh ticks, in
    /// nanoseconds per window (the `score_kernel_ns` series).
    pub fn score_kernel_histogram(&self) -> Histogram {
        self.tel.score_kernel.clone()
    }

    /// The end-to-end event-latency histogram (source admit → served at
    /// a refresh tick), recorded by [`StreamEngine::drive`].
    pub fn event_latency_histogram(&self) -> Histogram {
        self.tel.event_latency.clone()
    }

    /// Records `n` events served with the given admit→tick latency
    /// (no-op with telemetry disabled). Called by the pump.
    pub(crate) fn record_event_latency(&mut self, latency_ns: u64, n: u64) {
        if self.tel.enabled {
            self.tel.event_latency.record_n(latency_ns, n);
        }
    }

    /// A clone of the epoch pointer — hand it to a
    /// [`crate::serve::LinkQueryServer`] (or any reader thread) to serve
    /// the engine's published snapshots. Loads through the clone observe
    /// every subsequent tick-barrier publication.
    pub fn epoch_pointer(&self) -> EpochPointer {
        self.epoch.clone()
    }

    /// Installs an observation log that records every epoch published
    /// from now on (see [`EpochLog`]). Strictly observational — the
    /// served snapshots are the same `Arc`s with or without a log.
    pub fn set_epoch_log(&mut self, log: EpochLog) {
        self.epoch_log = Some(log);
    }

    /// Folds a query server's post-run report into the engine's
    /// counters: `queries` lands in [`StreamStats::queries_served`], and
    /// the per-query handling spans merge into the `query_latency`
    /// histogram (histogram merge skipped with telemetry disabled — a
    /// disabled engine snapshots its counters with empty histograms).
    pub fn absorb_serve_report(&mut self, queries: u64, latency: &Histogram) {
        self.stats.queries_served += queries;
        if self.tel.enabled {
            self.tel.query_latency.merge(latency);
        }
    }

    /// The per-query handling-span histogram folded in by
    /// [`StreamEngine::absorb_serve_report`].
    pub fn query_latency_histogram(&self) -> Histogram {
        self.tel.query_latency.clone()
    }

    /// The per-checkpoint write-span histogram (serialize + temp file +
    /// fsync + rename), recorded at the checkpoint cadence. The scrape
    /// page and snapshots split it into `checkpoint_encode` (index +
    /// encode + CRC) and `checkpoint_io` (write + fsync + rename +
    /// prune).
    pub fn checkpoint_write_histogram(&self) -> Histogram {
        self.tel.checkpoint_write.clone()
    }

    /// The clock the telemetry layer reads (shared with the pump so
    /// admit timestamps and span timestamps agree).
    pub(crate) fn telemetry_clock(&self) -> Arc<dyn Clock + Sync> {
        self.tel.clock()
    }

    /// Whether span/latency recording is on.
    pub(crate) fn telemetry_enabled(&self) -> bool {
        self.tel.enabled
    }

    /// Assembles the full metric registry behind every snapshot — the
    /// single serialization path the CLI, the bench harness, and the
    /// scrape endpoint all consume.
    fn registry(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        for (name, _, value) in self.stats.rows() {
            reg.counter_set(name, value);
        }
        reg.gauge_set("links", self.links.len() as f64);
        reg.gauge_set("live_edges", self.num_live_edges() as f64);
        reg.gauge_set("candidate_pairs", self.num_candidate_pairs() as f64);
        reg.gauge_set("live_connections", self.live_connections as f64);
        for (name, h) in self.phase_histograms() {
            reg.histogram_set(name, h);
        }
        reg.histogram_set("event_latency", self.tel.event_latency.clone());
        reg.histogram_set("frontier_lag", self.tel.frontier_lag.clone());
        reg.histogram_set("query_latency", self.tel.query_latency.clone());
        reg.histogram_set("checkpoint_write", self.tel.checkpoint_write.clone());
        reg.histogram_set("checkpoint_encode", self.tel.checkpoint_encode.clone());
        reg.histogram_set("checkpoint_io", self.tel.checkpoint_io.clone());
        reg.histogram_set("worker_busy", self.pool.busy_histogram());
        reg
    }

    /// Ingests one event: [`StreamEngine::ingest_batch`] of a batch of
    /// one. Returns link updates when this event completed a refresh
    /// interval (empty otherwise).
    pub fn ingest(&mut self, ev: &StreamEvent) -> Vec<LinkUpdate> {
        self.ingest_batch(std::slice::from_ref(ev))
    }

    /// Ingests a batch of events, spreading the spatial binning (the
    /// trigonometry-heavy part of ingestion) across the worker pool as
    /// fixed-size chunks of the event list — skew-proof by
    /// construction: a hot entity's events land in many claimable
    /// chunks instead of one shard's bin queue — then applying the
    /// appends shard-parallel in stream order. Binning writes onto the
    /// engine's reused `BinnedBatch` columns and each shard reads its
    /// events from them by position, so an event costs no allocation of
    /// its own on the way from binning to the arena. Tick and expiry
    /// boundaries fire inside the batch
    /// exactly as they would one event at a time (the control scan is
    /// identical), and so do histories, statistics, and brute-force
    /// candidates. With LSH enabled, collision checks are coalesced:
    /// each entity's *final* signature per barrier segment is what hits
    /// the bucket index, so a signature that collides only transiently
    /// *within* one segment may not surface the candidate a one-event-
    /// at-a-time replay would have seen (and vice versa) — an
    /// approximation difference inside an already-approximate filter,
    /// chosen deliberately: it is what makes candidate discovery
    /// independent of the shard count.
    pub fn ingest_batch(&mut self, events: &[StreamEvent]) -> Vec<LinkUpdate> {
        let Some(first) = events.first() else {
            return Vec::new();
        };
        if self.scheme.is_none() {
            self.init_scheme(first.time);
        }
        let scheme = self.scheme.expect("initialized above");
        let level = self.cfg.slim.spatial_level;
        let lsh_level = self.lsh_level();

        let binned_parallel = self.num_workers > 1 && events.len() >= PARALLEL_THRESHOLD;
        // Fixed-size contiguous chunks, each binned onto its own columns
        // — identical output to one serial pass for every worker count
        // and schedule.
        let mut binned = std::mem::take(&mut self.binned);
        let work = binned
            .reset(events.len())
            .iter_mut()
            .zip(events.chunks(BinnedBatch::CHUNK));
        let bin = |(columns, chunk): (&mut BinnedColumns, &[StreamEvent])| {
            for ev in chunk {
                columns.push(ev, &scheme, level, lsh_level);
            }
        };
        if binned_parallel {
            self.pool.run(PhaseId::Bin, work.collect(), bin);
        } else {
            work.for_each(bin);
        }
        let updates = self.run(&binned);
        self.binned = binned;
        if binned_parallel {
            // The control scan's flushes may all have run inline (e.g.
            // a mostly-late-dropped batch); the binning phase above
            // still dispatched chunks, so refresh the telemetry here.
            self.sync_pool_stats();
        }
        updates
    }

    /// The control scan: walks the binned events in stream order making
    /// only the cheap global decisions (late-drop, watermark, expiry
    /// and tick boundaries) and queues every other event's position per
    /// shard; queues are flushed shard-parallel at each boundary. The
    /// control decisions depend only on the event sequence, never on
    /// shard state, so the segment structure — and with it every
    /// downstream barrier — is identical for any shard count.
    fn run(&mut self, binned: &BinnedBatch) -> Vec<LinkUpdate> {
        let mut queues = std::mem::take(&mut self.queues);
        let mut queued = 0usize;
        let mut updates = Vec::new();
        for at in 0..binned.len() {
            let b = binned.get(at);
            if b.w < self.expired_below {
                self.stats.late_dropped += 1;
                continue;
            }
            self.stats.events += 1;
            if b.w > self.watermark {
                self.watermark = b.w;
            }
            let expire_to = self.cfg.window_capacity.and_then(|cap| {
                let keep_from = self.watermark.saturating_add(1).saturating_sub(cap);
                (keep_from > self.expired_below).then_some(keep_from)
            });
            queues[entity_shard(b.side, b.entity, self.num_shards)].push(at);
            queued += 1;
            if let Some(keep_from) = expire_to {
                self.flush(binned, &mut queues, &mut queued);
                self.expire(keep_from);
            }
            self.events_since_refresh += 1;
            if self.cfg.refresh_every > 0 && self.events_since_refresh >= self.cfg.refresh_every {
                self.flush(binned, &mut queues, &mut queued);
                updates.extend(self.refresh());
            }
        }
        self.flush(binned, &mut queues, &mut queued);
        self.queues = queues;
        updates
    }

    /// Applies the queued segment on every shard (parallel when it
    /// pays) and folds the effects in at the barrier. Application must
    /// respect per-shard stream order, so the chunk grain here is one
    /// shard's queue — idle workers still take whole shard queues from
    /// the back of a busy worker's block.
    fn flush(&mut self, binned: &BinnedBatch, queues: &mut [Vec<usize>], queued: &mut usize) {
        if *queued == 0 {
            return;
        }
        let min_records = self.cfg.slim.min_records;
        let lsh_geom = self.lsh.as_ref().map(|l| l.geom);
        let work: Vec<(&mut EngineShard, &[usize])> = self
            .shards
            .iter_mut()
            .zip(queues.iter())
            .map(|(shard, queue)| (shard, queue.as_slice()))
            .collect();
        let parallel = *queued >= PARALLEL_THRESHOLD;
        let effects: Vec<IngestEffects> =
            self.pool
                .run_gated(PhaseId::Apply, parallel, work, |(shard, queue)| {
                    shard.apply_events(binned, queue, min_records, lsh_geom.as_ref())
                });
        queues.iter_mut().for_each(Vec::clear);
        *queued = 0;

        let mut activations: Vec<(Side, EntityId)> = Vec::new();
        let mut rebirths: Vec<(Side, EntityId)> = Vec::new();
        let mut sig_changes: BTreeSet<(Side, EntityId)> = BTreeSet::new();
        for fx in effects {
            self.df[0].apply(&fx.df[0]);
            self.df[1].apply(&fx.df[1]);
            self.domain = self.domain.max(fx.domain);
            sig_changes.extend(fx.sig_changes);
            activations.extend(fx.activations);
            rebirths.extend(fx.rebirths);
        }
        // An entity that expired away entirely and reactivated *before*
        // a refresh tick processed its death still has cached pairs
        // holding contributions from evicted windows that no dirty mark
        // references anymore — they would be served as ghost links
        // forever. Purge them first (O(degree) via the adjacency index),
        // then let candidate registration rediscover live pairs fresh.
        // `links` is left untouched: it is defined as "as of the last
        // tick", and the next tick emits the Removed updates.
        for (side, e) in rebirths {
            for shard in &mut self.shards {
                shard.pairs.remove_pairs_of(side, e);
            }
        }
        if self.lsh.is_some() {
            self.register_lsh_candidates(sig_changes);
        } else {
            // Brute force: each newly activated entity pairs with every
            // active entity on the other side. Registration is
            // idempotent and symmetric, so barrier timing yields exactly
            // the per-event candidate set.
            for (side, e) in activations {
                let other = side.other();
                let partners: Vec<EntityId> = self
                    .shards
                    .iter()
                    .flat_map(|s| s.active[other.idx()].iter().copied())
                    .collect();
                for p in partners {
                    self.add_candidate(side, e, p);
                }
            }
        }
        if parallel {
            // Telemetry refresh only when chunks may have dispatched —
            // the below-threshold (single-event) path stays free of the
            // pool's atomic counters.
            self.sync_pool_stats();
        }
        self.sync_arena_stats();
    }

    /// Registers one discovered candidate pair with its owning shard.
    fn add_candidate(&mut self, side: Side, entity: EntityId, partner: EntityId) {
        let pair = match side {
            Side::Left => (entity, partner),
            Side::Right => (partner, entity),
        };
        let owner = entity_shard(Side::Left, pair.0, self.num_shards);
        self.shards[owner]
            .pairs
            .insert(pair, CachedPair::default(), true);
    }

    /// Applies a coalesced signature-update set to every bucket
    /// partition and registers the unioned collision partners — the
    /// cross-shard candidate handoff. Each entity's *final* signature is
    /// applied exactly once, so the discovered pair set is independent
    /// of both the application order and the shard count.
    fn register_lsh_candidates(&mut self, changes: BTreeSet<(Side, EntityId)>) {
        if changes.is_empty() {
            return;
        }
        let changes: Vec<(Side, EntityId)> = changes.into_iter().collect();
        let num_shards = self.num_shards;
        // Each entity's final per-band buckets, read from its home
        // shard's ring cache (`None` = the ring vanished or the entity
        // is parked: index removal). The rings hashed them on the shard
        // workers as the slots changed; every partition filters the
        // shared hashes to its owned slots, so nothing is hashed here.
        let updates: Vec<Option<&[Option<u64>]>> = changes
            .iter()
            .map(|&(side, e)| self.shards[entity_shard(side, e, num_shards)].lsh_buckets(side, e))
            .collect();

        let lsh = self.lsh.as_mut().expect("caller checked");
        let apply_one = |partition: &mut BucketIndex| -> Vec<Vec<EntityId>> {
            changes
                .iter()
                .zip(&updates)
                .map(|(&(side, e), buckets)| match buckets {
                    Some(buckets) => partition.upsert_hashed(side.index_side(), e, buckets),
                    None => {
                        partition.remove(side.index_side(), e);
                        Vec::new()
                    }
                })
                .collect()
        };
        let partitions: Vec<&mut BucketIndex> = lsh.partitions.iter_mut().collect();
        let parallel = changes.len() >= PARALLEL_THRESHOLD;
        let reports: Vec<Vec<Vec<EntityId>>> =
            self.pool
                .run_gated(PhaseId::Lsh, parallel, partitions, apply_one);

        for (i, &(side, e)) in changes.iter().enumerate() {
            let mut partners: Vec<EntityId> = reports
                .iter()
                .flat_map(|per_partition| per_partition[i].iter().copied())
                .collect();
            partners.sort_unstable();
            partners.dedup();
            let other = side.other();
            for p in partners {
                let active = self.shards[entity_shard(other, p, self.num_shards)].active
                    [other.idx()]
                .contains(&p);
                if active {
                    self.add_candidate(side, e, p);
                }
            }
        }
    }

    /// Expires every window below `keep_from` shard-parallel, then
    /// merges the effects: df deltas, demotion counters, the distinct
    /// expired-window count, and eviction-driven signature changes.
    fn expire(&mut self, keep_from: WindowIdx) {
        let min_records = self.cfg.slim.min_records;
        let lsh_geom = self.lsh.as_ref().map(|l| l.geom);
        // Gate the spawns on the actual eviction footprint: a
        // single-window rollover on the per-event ingest path touches a
        // handful of entities and runs inline.
        let expiring: usize = self
            .shards
            .iter()
            .map(|shard| {
                shard
                    .window_entities
                    .range(..keep_from)
                    .map(|(_, sides)| sides[0].len() + sides[1].len())
                    .sum::<usize>()
            })
            .sum();
        let work: Vec<&mut EngineShard> = self.shards.iter_mut().collect();
        let parallel = expiring >= PARALLEL_THRESHOLD;
        let effects: Vec<ExpiryEffects> =
            self.pool
                .run_gated(PhaseId::Expire, parallel, work, |shard| {
                    shard.expire(keep_from, min_records, lsh_geom.as_ref())
                });

        let mut evicted: BTreeSet<WindowIdx> = BTreeSet::new();
        let mut sig_changes: BTreeSet<(Side, EntityId)> = BTreeSet::new();
        for fx in effects {
            self.df[0].apply(&fx.df[0]);
            self.df[1].apply(&fx.df[1]);
            evicted.extend(fx.windows);
            self.stats.demoted_entities += fx.demoted_entities;
            self.stats.demoted_records += fx.demoted_records;
            sig_changes.extend(fx.sig_changes);
        }
        self.stats.evicted_windows += evicted.len() as u64;
        if self.lsh.is_some() {
            self.register_lsh_candidates(sig_changes);
        }
        if parallel {
            self.sync_pool_stats();
        }
        self.sync_arena_stats();
        self.expired_below = keep_from;
    }

    /// Runs a refresh tick: drops dead-endpoint pairs, rescores exactly
    /// the adjacency-reachable dirty `(pair, window)` contributions
    /// shard-parallel (patching the per-shard pair tables in place),
    /// retires collision-less empty pairs, then — at the merge barrier
    /// — k-way merges the per-shard edge-delta runs, repairs the
    /// maintained matching over the affected conflict region, refits
    /// the stop threshold warm, and returns the difference to the
    /// previously served link set.
    pub fn refresh(&mut self) -> Vec<LinkUpdate> {
        self.events_since_refresh = 0;
        if self.scheme.is_none() {
            return Vec::new();
        }
        // Span starts (`None` with telemetry off, skipping the clock
        // reads entirely). Recording happens strictly after the output
        // is computed, so it can never perturb it.
        let t_tick = self.tel.enabled.then(|| self.tel.now_ns());
        self.stats.ticks += 1;

        // Dead endpoints: drop their pairs wherever owned — O(degree)
        // per entity through the adjacency index.
        let mut dead: Vec<(Side, EntityId)> = Vec::new();
        for shard in &mut self.shards {
            for side in [Side::Left, Side::Right] {
                dead.extend(shard.dead[side.idx()].drain().map(|e| (side, e)));
            }
        }
        dead.sort_unstable();
        for &(side, e) in &dead {
            for shard in &mut self.shards {
                shard.pairs.remove_pairs_of(side, e);
            }
        }

        // Gather the global dirty list (sorted for reproducible job
        // construction) and resolve it to per-shard work through each
        // shard's adjacency index.
        let mut dirty: Vec<(Side, EntityId, Vec<WindowIdx>)> = Vec::new();
        for shard in &self.shards {
            for side in [Side::Left, Side::Right] {
                for (&e, windows) in &shard.dirty[side.idx()] {
                    dirty.push((side, e, windows.iter().copied().collect()));
                }
            }
        }
        dirty.sort_unstable_by_key(|&(side, e, _)| (side, e));

        // The rescore fan-out and fan-in are per-shard work like any
        // other phase: each shard resolves the dirty list against its
        // own adjacency (read-only) and later absorbs what the rescore
        // chunks changed in its slots.
        let parallel = dirty.len() >= PARALLEL_RESCORE_THRESHOLD;
        let jobs: Vec<Vec<RescoreJob>> = self.pool.run_gated(
            PhaseId::Rescore,
            parallel,
            self.shards.iter().collect(),
            |shard: &EngineShard| shard.gather_jobs(&dirty),
        );
        self.stats.dirty_pairs_visited += jobs.iter().map(|j| j.len() as u64).sum::<u64>();
        self.stats.cached_pairs_at_ticks += self
            .shards
            .iter()
            .map(|s| s.pairs.len() as u64)
            .sum::<u64>();

        // Rescore shard-parallel — reading every shard's histories and
        // the merged stats, each chunk patching its own slots — then
        // absorb each shard's chunks into its pair table.
        let rescored = self.rescore(&jobs);
        let mut work: Vec<(&mut EngineShard, Vec<SlotChanges>)> = Vec::new();
        for (shard, (changes, shard_stats, shard_kernel)) in self.shards.iter_mut().zip(rescored) {
            self.scoring_stats.merge(&shard_stats);
            self.tel.score_kernel.merge(&shard_kernel);
            work.push((shard, changes));
        }
        let finished = self
            .pool
            .run_gated(PhaseId::Rescore, parallel, work, |(shard, changes)| {
                shard.finish_rescore(changes)
            });
        // Folded in shard order, so the counters and the retirement
        // candidates do not depend on which worker applied what.
        let mut emptied: Vec<(usize, (SlotId, PairKey))> = Vec::new();
        for (idx, (rescored_windows, shard_emptied)) in finished.into_iter().enumerate() {
            self.stats.rescored_windows += rescored_windows;
            emptied.extend(shard_emptied.into_iter().map(|p| (idx, p)));
        }

        // Candidate-set retirement: a pair whose cached contributions
        // all evicted *and* whose ring signatures no longer share any
        // LSH band has no path back into the link set except a fresh
        // collision — drop it now; the bucket index would rediscover it.
        // Only pairs visited this tick can have newly emptied, so the
        // check is O(dirty), not O(cache).
        if self.lsh.is_some() {
            let retire: Vec<(usize, (SlotId, PairKey))> = emptied
                .into_iter()
                .filter(|&(_, (_, (u, v)))| {
                    let su = &self.shards[entity_shard(Side::Left, u, self.num_shards)];
                    let sv = &self.shards[entity_shard(Side::Right, v, self.num_shards)];
                    match (
                        su.lsh_buckets(Side::Left, u),
                        sv.lsh_buckets(Side::Right, v),
                    ) {
                        (Some(a), Some(b)) => !buckets_collide(a, b),
                        _ => true,
                    }
                })
                .collect();
            for (idx, (slot, _)) in retire {
                self.shards[idx].pairs.remove(slot);
                self.stats.retired_pairs += 1;
            }
        }

        // The merge barrier, delta-driven: drain each shard's
        // edge-delta run, sorted by pair, k-way merge the runs into
        // the global delta batch, repair the maintained matching over
        // the affected conflict region only, and refit the stop
        // threshold warm from the previous tick's mixture — O(dirty +
        // links) instead of the full-cache sweep this replaced.
        let t_merge = self.tel.enabled.then(|| self.tel.now_ns());
        let runs: Vec<Vec<(PairKey, Option<f64>)>> = self
            .shards
            .iter_mut()
            .map(|s| s.pairs.take_edge_deltas())
            .collect();
        let deltas = merge::merge_delta_runs(runs);
        self.stats.edges_patched += deltas.len() as u64;
        if let Some(t0) = t_merge {
            let span = self.tel.now_ns().saturating_sub(t0);
            self.tel.edge_merge.record(span);
        }
        let new_links = match self.cfg.slim.matching_method {
            MatchingMethod::Greedy => {
                let t_match = self.tel.enabled.then(|| self.tel.now_ns());
                let report = self.matcher.apply_deltas(&deltas);
                self.stats.matching_region_size += report.region_edges as u64;
                for e in &report.unmatched {
                    self.threshold_state.remove(e.weight);
                }
                for e in &report.matched {
                    self.threshold_state.insert(e.weight);
                }
                let matching = self.matcher.matching();
                if let Some(t0) = t_match {
                    let span = self.tel.now_ns().saturating_sub(t0);
                    self.tel.matching.record(span);
                }
                let t_thresh = self.tel.enabled.then(|| self.tel.now_ns());
                let selection = self.threshold_state.select(self.cfg.slim.threshold_method);
                self.stats.em_warm_iters += u64::from(selection.warm_iters);
                let links = match selection.threshold {
                    Some(t) => matching
                        .into_iter()
                        .filter(|e| e.weight >= t.threshold)
                        .collect(),
                    None => matching,
                };
                if let Some(t0) = t_thresh {
                    let span = self.tel.now_ns().saturating_sub(t0);
                    self.tel.threshold.record(span);
                }
                (links, selection.threshold.map(|t| t.threshold))
            }
            // The exact Hungarian matching has no incremental form:
            // assemble the full edge set by k-way-merging the per-shard
            // edges, each run sorted by pair (no rescoring), and
            // re-match from scratch. The whole arm (including its embedded
            // threshold selection) counts as matching time.
            MatchingMethod::HungarianExact => {
                let t_match = self.tel.enabled.then(|| self.tel.now_ns());
                let edge_runs: Vec<Vec<(PairKey, f64)>> = self
                    .shards
                    .iter()
                    .map(|s| {
                        let mut run: Vec<(PairKey, f64)> = s
                            .pairs
                            .slots()
                            .filter_map(|(_, slot)| Some((slot.pair, slot.edge?)))
                            .collect();
                        run.sort_unstable_by_key(|&(p, _)| p);
                        run
                    })
                    .collect();
                let edges = merge::kway_merge_edge_runs(edge_runs);
                let (links, threshold) = merge::exact_match_and_threshold(&self.cfg.slim, &edges);
                if let Some(t0) = t_match {
                    let span = self.tel.now_ns().saturating_sub(t0);
                    self.tel.matching.record(span);
                }
                (links, threshold)
            }
        };
        let (new_links, tick_threshold) = new_links;
        let updates = merge::diff_links(&self.links, &new_links);
        self.links = new_links;
        self.publish_epoch(tick_threshold);
        self.sync_pool_stats();
        if let Some(t0) = t_tick {
            self.pool.close_inline_spans();
            let span = self.tel.now_ns().saturating_sub(t0);
            self.tel.tick.record(span);
        }
        updates
    }

    /// The tick barrier's publication step: freezes the served state
    /// into an immutable [`LinkSnapshot`] and swaps it behind the epoch
    /// pointer. Runs after the link set settles and before the tick span
    /// closes; readers loading mid-barrier keep the previous epoch —
    /// nothing torn is ever visible.
    fn publish_epoch(&mut self, threshold: Option<f64>) {
        self.stats.snapshots_published += 1;
        let scheme = self.scheme.expect("refresh ran, so the scheme exists");
        let snapshot = Arc::new(LinkSnapshot {
            epoch: self.stats.snapshots_published,
            events: self.stats.events,
            links: self.links.clone(),
            threshold,
            frontier: Some(scheme.window_start(self.watermark.saturating_add(1))),
        });
        if let Some(log) = &self.epoch_log {
            log.push(&snapshot);
        }
        self.epoch.publish(snapshot);
    }

    /// Rescores the given per-shard job lists against the merged df
    /// statistics, resolving endpoint histories across shards, and
    /// patches each touched pair in place: the recomputed contributions
    /// are folded with the pair's untouched cached windows, normalized,
    /// and written into its slot while its cache is still hot. The jobs
    /// of each shard are cut into fixed-size **chunks** (one per shard
    /// below the parallel threshold); each chunk owns the contiguous
    /// range of its shard's slots its jobs fall in — jobs are sorted by
    /// slot, so the ranges are disjoint and `split_at_mut` hands them
    /// out — and the pool runs the chunks when the tick is big enough to
    /// pay: a hot shard's jobs split into many claimable chunks, so tick
    /// latency tracks total dirty work, not the hottest shard. Each
    /// shard gets its chunks' [`SlotChanges`] back in chunk-id order.
    fn rescore(
        &mut self,
        jobs: &[Vec<RescoreJob>],
    ) -> Vec<(Vec<SlotChanges>, LinkageStats, Histogram)> {
        let scorer = SimilarityScorer::from_df_stats(&self.cfg.slim, &self.df[0], &self.df[1]);
        // Per-window kernel timing: one chained clock read per scored
        // window, recorded into a chunk-local histogram and merged at
        // the barrier — `None` with telemetry off, skipping every read.
        let clock = self.tel.enabled.then(|| self.tel.clock());
        fn lap(clock: &Option<Arc<dyn Clock + Sync>>, t_last: &mut u64, hist: &mut Histogram) {
            if let Some(c) = clock {
                let t = c.now_ns();
                hist.record(t.saturating_sub(*t_last));
                *t_last = t;
            }
        }
        // A dirty tick visits each (side, entity, window) run once per
        // partner: each worker resolves it once for the whole pass.
        let pass = run_memo::next_pass();
        let (histories, tables): (Vec<&[HistoryArena; 2]>, Vec<&mut [Option<PairSlot>]>) = self
            .shards
            .iter_mut()
            .map(|shard| (&shard.histories, shard.pairs.slots_mut()))
            .unzip();
        type Chunk<'j, 'd, 's> = (&'j [RescoreJob<'d>], usize, &'s mut [Option<PairSlot>]);
        let score_chunk = |(list, base, slots): Chunk| -> (SlotChanges, LinkageStats, Histogram) {
            let mut changes = SlotChanges::default();
            let mut stats = LinkageStats::default();
            let mut kernel = Histogram::new();
            let mut patch: Vec<Contribution> = Vec::new();
            for job in list {
                let pair = job.pair;
                let (Some(hu), Some(hv)) = (
                    lookup_view(&histories, Side::Left, pair.0),
                    lookup_view(&histories, Side::Right, pair.1),
                ) else {
                    changes.vanished.push(job.slot);
                    continue;
                };
                // Recompute the job's windows into the patch (zeros
                // included: they tell the cache to drop the window).
                patch.clear();
                let mut t_last = clock.as_ref().map(|c| c.now_ns()).unwrap_or(0);
                match job.windows {
                    // A fresh pair: the batch scorer's merge walk over
                    // the two entities' window columns feeds contiguous
                    // cell/count slices of every common window straight
                    // into the kernel — no hashing, no per-window
                    // lookup. Its runs are resolved per visit: a walk's
                    // old windows seldom recur within a tick, and a memo
                    // miss costs more than resolving in place.
                    None => common_runs(&hu, &hv, |w, ru, rv| {
                        let c = scorer.window_contribution(w, ru, rv, &mut stats);
                        patch.push((w, c));
                        lap(&clock, &mut t_last, &mut kernel);
                    }),
                    // A dirty pair: exactly the union of its endpoints'
                    // dirty windows, through the pass's resolved runs —
                    // a window's run is looked up only when the memo
                    // lacks it.
                    Some([wu, wv]) => RunMemo::with(pass, |memo| {
                        for w in union_sorted(wu, wv) {
                            let (ru, rv) = (|| hu.window_run(w), || hv.window_run(w));
                            let c = memo.window_contribution(&scorer, pair, w, ru, rv, &mut stats);
                            patch.push((w, c));
                            lap(&clock, &mut t_last, &mut kernel);
                        }
                    }),
                }
                // Patch the pair's cache, then `Σ contributions / pair
                // norm` in ascending window order over it — the same
                // arithmetic and order the full assembly sweep used, so
                // a pair scored fresh here is bit-identical to a
                // from-scratch edge assembly. The fold resumes from the
                // pair's mark when the patch leaves the marked prefix
                // alone, so a visit reads what it rescores, not the
                // pair's whole cache.
                let slot = slots[job.slot as usize - base]
                    .as_mut()
                    .expect("a job's slot is live");
                let sum = slot.cached.patch(&patch);
                if cfg!(debug_assertions) {
                    // Every debug engine run checks every visit: the
                    // resumed fold has the full fold's bits.
                    let full = slot.cached.full_fold();
                    assert_eq!(sum.to_bits(), full.to_bits(), "resumed fold of {pair:?}");
                }
                changes.rescored_windows += patch.len() as u64;
                let score = sum / scorer.pair_norm_bins(hu.num_bins(), hv.num_bins());
                slot.set_score(job.slot, score, &mut changes);
            }
            (changes, stats, kernel)
        };

        // Cut each shard's job list — and with it the shard's slots —
        // into chunks; below the threshold, one chunk per shard.
        let total: usize = jobs.iter().map(Vec::len).sum();
        let grain = if total >= PARALLEL_RESCORE_THRESHOLD && self.num_workers > 1 {
            RESCORE_CHUNK
        } else {
            usize::MAX
        };
        let mut owners: Vec<usize> = Vec::new();
        let mut chunks: Vec<Chunk> = Vec::new();
        for (owner, (list, mut rest)) in jobs.iter().zip(tables).enumerate() {
            let mut base = 0;
            for range in chunk_ranges(list.len(), grain) {
                let list = &list[range];
                let end = list.last().expect("ranges are non-empty").slot as usize + 1;
                let (slots, tail) = rest.split_at_mut(end - base);
                owners.push(owner);
                chunks.push((list, base, slots));
                (rest, base) = (tail, end);
            }
        }
        let outs: Vec<(SlotChanges, LinkageStats, Histogram)> = if grain == RESCORE_CHUNK {
            self.pool.run(PhaseId::Rescore, chunks, score_chunk)
        } else {
            chunks.into_iter().map(score_chunk).collect()
        };
        let mut per_shard: Vec<(Vec<SlotChanges>, LinkageStats, Histogram)> = jobs
            .iter()
            .map(|_| (Vec::new(), LinkageStats::default(), Histogram::new()))
            .collect();
        for (owner, (changes, stats, kernel)) in owners.into_iter().zip(outs) {
            per_shard[owner].0.push(changes);
            per_shard[owner].1.merge(&stats);
            per_shard[owner].2.merge(&kernel);
        }
        per_shard
    }

    /// Runs the **exact batch pipeline** over the incrementally built
    /// histories: brute-force candidates without LSH, the accumulated
    /// candidate set with it. Each side's history set borrows every
    /// shard's arena and indexes its active entities, so no bin is
    /// copied and parked entities stay out. With an unbounded window
    /// this returns output identical to [`slim_core::Slim::link`] over
    /// the same records — the stream/batch equivalence contract, for
    /// every shard count.
    pub fn finalize(&self) -> Result<LinkageOutput, String> {
        let Some(scheme) = self.scheme else {
            return Ok(empty_output());
        };
        let level = self.cfg.slim.spatial_level;
        let [left, right] = [0, 1].map(|i| {
            let parts = self.shards.iter().map(|s| {
                let active = s.active[i].iter().copied();
                (Cow::Borrowed(&s.histories[i]), active)
            });
            HistorySet::from_arenas(scheme, level, self.domain, parts, self.df[i].clone())
        });
        let prepared = PreparedLinkage::from_history_sets(self.cfg.slim, left, right)?;
        Ok(if self.lsh.is_some() {
            let mut candidates: Vec<(EntityId, EntityId)> = self
                .shards
                .iter()
                .flat_map(|s| s.pairs.slots().map(|(_, slot)| slot.pair))
                .collect();
            candidates.sort_unstable();
            prepared.link_with_candidates(&candidates)
        } else {
            prepared.link()
        })
    }
}

fn empty_output() -> LinkageOutput {
    LinkageOutput {
        links: Vec::new(),
        matching: Vec::new(),
        num_edges: 0,
        threshold: None,
        stats: LinkageStats::default(),
        elapsed: Duration::ZERO,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geocell::LatLng;
    use slim_core::{LocationDataset, Record, Slim, SlimConfig};

    use crate::event::merge_datasets;

    fn rec(e: u64, t: i64, lat: f64, lng: f64) -> Record {
        Record::new(EntityId(e), LatLng::from_degrees(lat, lng), Timestamp(t))
    }

    /// Guard on the equality contract: the counters named here — and no
    /// others — are observational, every row of the table carries the
    /// class this list says, and `PartialEq` agrees with it row by row.
    /// The list is the test's own statement of the contract, so moving
    /// a counter across it in the table alone fails here.
    #[test]
    fn stream_stats_equality_covers_exactly_the_deterministic_fields() {
        let observational = [
            "blocked_producer_ns",
            "queue_high_watermark",
            "arena_compactions",
            "steal_events",
            "max_worker_busy_ns",
            "min_worker_busy_ns",
            "idle_evictions",
            "checkpoints_written",
            "checkpoints_rejected",
            "checkpoint_bytes",
        ];
        let base = StreamStats::default();
        let names: Vec<&str> = base.rows().iter().map(|r| r.0).collect();
        for name in observational {
            assert!(names.contains(&name), "`{name}` is not a StreamStats row");
        }
        // One probe per row: bump that counter alone.
        for i in 0..StreamStats::ROWS {
            let mut probe = base;
            let (name, class, value) = &mut probe.rows_mut()[i];
            **value += 1;
            let expected = if observational.contains(name) {
                StatClass::Observational
            } else {
                StatClass::Deterministic
            };
            assert_eq!(*class, expected, "row `{name}` declares the wrong class");
            assert_eq!(
                probe != base,
                expected == StatClass::Deterministic,
                "field `{name}` is on the wrong side of the StreamStats equality contract"
            );
        }
    }

    /// `n` entities seen by both services (right ids offset by 1000),
    /// first `common` of them co-located, the rest in distinct regions.
    fn two_views(n: u64, common: u64) -> (LocationDataset, LocationDataset) {
        let mut left = Vec::new();
        let mut right = Vec::new();
        for e in 0..n {
            let (lat0, lng0) = (37.0 + 0.03 * e as f64, -122.0 - 0.02 * e as f64);
            for k in 0..25i64 {
                left.push(rec(e, k * 900 + 10, lat0 + 0.001 * ((k % 4) as f64), lng0));
                if e < common {
                    right.push(rec(
                        1000 + e,
                        k * 900 + 500,
                        lat0 + 0.001 * ((k % 4) as f64) + 0.0004,
                        lng0 + 0.0003,
                    ));
                } else {
                    right.push(rec(
                        1000 + e,
                        k * 900 + 500,
                        30.0 - 0.05 * e as f64,
                        20.0 + 0.04 * e as f64,
                    ));
                }
            }
        }
        (
            LocationDataset::from_records(left),
            LocationDataset::from_records(right),
        )
    }

    fn stream_cfg() -> StreamConfig {
        StreamConfig {
            refresh_every: 0,
            num_shards: 2,
            ..StreamConfig::default()
        }
    }

    #[test]
    fn unbounded_replay_finalizes_to_batch_output() {
        let (l, r) = two_views(8, 5);
        let slim_cfg = SlimConfig::default();
        let batch = Slim::new(slim_cfg).unwrap().link(&l, &r);

        let mut engine = StreamEngine::new(stream_cfg()).unwrap();
        for ev in merge_datasets(&l, &r) {
            engine.ingest(&ev);
        }
        // The borrowing and consuming finalizers agree.
        let streamed = engine.finalize().unwrap();
        let consumed = engine.finalize().unwrap();
        assert_eq!(streamed.links.len(), consumed.links.len());
        for (a, b) in streamed.links.iter().zip(&consumed.links) {
            assert_eq!(a.weight, b.weight);
        }

        assert_eq!(streamed.num_edges, batch.num_edges);
        assert_eq!(streamed.matching.len(), batch.matching.len());
        assert_eq!(streamed.links.len(), batch.links.len());
        for (a, b) in streamed.links.iter().zip(&batch.links) {
            assert_eq!((a.left, a.right), (b.left, b.right));
            assert_eq!(a.weight, b.weight, "weights must be bit-identical");
        }
    }

    /// The tentpole contract: the whole observable behaviour — served
    /// links, stats, candidate pairs, finalized output — is
    /// bit-identical for every shard count.
    #[test]
    fn shard_counts_are_observationally_identical() {
        let (l, r) = two_views(7, 4);
        let events = merge_datasets(&l, &r);
        let run = |shards: usize| {
            let mut cfg = stream_cfg();
            cfg.num_shards = shards;
            cfg.refresh_every = 40;
            cfg.window_capacity = Some(12);
            let mut engine = StreamEngine::new(cfg).unwrap();
            let mut updates = Vec::new();
            for chunk in events.chunks(64) {
                updates.extend(engine.ingest_batch(chunk));
            }
            updates.extend(engine.refresh());
            let links = engine.links().to_vec();
            let stats = *engine.stats();
            let scoring = *engine.scoring_stats();
            let pairs = engine.num_candidate_pairs();
            let finalized = engine.finalize().unwrap();
            (updates, links, stats, scoring, pairs, finalized)
        };
        let reference = run(1);
        assert!(reference.2.ticks > 0 && reference.2.evicted_windows > 0);
        for shards in [2usize, 4, 7] {
            let other = run(shards);
            assert_eq!(reference.0, other.0, "{shards} shards: update streams");
            assert_eq!(reference.1, other.1, "{shards} shards: served links");
            assert_eq!(reference.2, other.2, "{shards} shards: stream stats");
            assert_eq!(reference.3, other.3, "{shards} shards: scoring stats");
            assert_eq!(reference.4, other.4, "{shards} shards: candidate pairs");
            assert_eq!(reference.5.links.len(), other.5.links.len());
            for (a, b) in reference.5.links.iter().zip(&other.5.links) {
                assert_eq!((a.left, a.right), (b.left, b.right));
                assert_eq!(a.weight, b.weight, "{shards} shards: finalized weights");
            }
        }
    }

    /// The execution-pool contract: the worker count and the claim
    /// interleaving may only move chunks between threads — links, updates,
    /// stats (scheduling telemetry excluded by `PartialEq`), and
    /// finalized output stay bit-identical. Batches are large enough to
    /// actually engage the pool (≥ the parallel thresholds).
    #[test]
    fn worker_counts_and_steal_schedules_are_observationally_identical() {
        let (l, r) = two_views(7, 4);
        let events = merge_datasets(&l, &r);
        let run = |workers: usize| {
            let mut cfg = stream_cfg();
            cfg.num_shards = 4;
            cfg.num_workers = workers;
            cfg.refresh_every = 150;
            cfg.window_capacity = Some(12);
            let mut engine = StreamEngine::new(cfg).unwrap();
            let mut updates = Vec::new();
            for chunk in events.chunks(400) {
                updates.extend(engine.ingest_batch(chunk));
            }
            updates.extend(engine.refresh());
            let links = engine.links().to_vec();
            let stats = *engine.stats();
            let scoring = *engine.scoring_stats();
            let pairs = engine.num_candidate_pairs();
            let finalized = engine.finalize().unwrap();
            (updates, links, stats, scoring, pairs, finalized)
        };
        let reference = run(1);
        assert!(reference.2.ticks > 0);
        for workers in [2, 3, 4] {
            let other = run(workers);
            let tag = format!("{workers} workers");
            assert_eq!(reference.0, other.0, "{tag}: update streams");
            assert_eq!(reference.1, other.1, "{tag}: served links");
            assert_eq!(reference.2, other.2, "{tag}: stream stats");
            assert_eq!(reference.3, other.3, "{tag}: scoring stats");
            assert_eq!(reference.4, other.4, "{tag}: candidate pairs");
            assert_eq!(reference.5.links.len(), other.5.links.len(), "{tag}");
            for (a, b) in reference.5.links.iter().zip(&other.5.links) {
                assert_eq!((a.left, a.right), (b.left, b.right), "{tag}");
                assert_eq!(a.weight, b.weight, "{tag}: finalized weights");
            }
        }
    }

    /// The scheduling telemetry moves when the pool actually runs: a
    /// multi-worker replay with pool-sized batches must record busy
    /// time, and a 1-worker engine reports workers = 1.
    #[test]
    fn pool_telemetry_is_wired_through_stats() {
        let (l, r) = two_views(7, 4);
        let events = merge_datasets(&l, &r);
        let mut cfg = stream_cfg();
        cfg.num_shards = 4;
        cfg.num_workers = 4;
        cfg.refresh_every = 0;
        let mut engine = StreamEngine::new(cfg).unwrap();
        assert_eq!(engine.num_workers(), 4);
        for chunk in events.chunks(600) {
            engine.ingest_batch(chunk);
        }
        engine.refresh();
        let stats = engine.stats();
        assert!(
            stats.max_worker_busy_ns > 0,
            "pool phases must record busy time"
        );
        assert!(stats.max_worker_busy_ns >= stats.min_worker_busy_ns);
    }

    /// The snapshot is a faithful projection of the engine: every
    /// `StreamStats` counter by name, the live gauges, and one series
    /// per span histogram — under a virtual clock the span values are
    /// exact (all zero), only the counts move.
    #[test]
    fn telemetry_snapshot_reflects_stats_and_phases() {
        use crate::testing::VirtualClock;
        let (l, r) = two_views(7, 4);
        let events = merge_datasets(&l, &r);
        let mut cfg = stream_cfg();
        cfg.num_shards = 4;
        cfg.num_workers = 2;
        cfg.refresh_every = 150;
        let mut engine = StreamEngine::new(cfg).unwrap();
        engine.set_telemetry_clock(Arc::new(VirtualClock::new()));
        for chunk in events.chunks(400) {
            engine.ingest_batch(chunk);
        }
        engine.refresh();

        let snap = engine.snapshot();
        let stats = *engine.stats();
        assert_eq!(snap.counter("events"), Some(stats.events));
        assert_eq!(snap.counter("ticks"), Some(stats.ticks));
        assert_eq!(
            snap.counter("rescored_windows"),
            Some(stats.rescored_windows)
        );
        assert_eq!(snap.gauge("links"), Some(engine.links().len() as f64));
        let tick = snap.hist("tick").expect("tick histogram present");
        assert_eq!(tick.count, stats.ticks);
        assert_eq!((tick.sum, tick.max), (0, 0), "virtual clock: exact zeros");
        let by_name = engine.phase_histograms();
        let bin = &by_name
            .iter()
            .find(|(n, _)| *n == "phase.bin")
            .expect("bin phase present")
            .1;
        assert!(bin.count() > 0, "binning chunks must have recorded spans");
        assert_eq!((bin.sum(), bin.max()), (0, 0));
        // Exactness: an identical second run reproduces the span
        // histograms bit-for-bit (worker-busy and steals may differ).
        let mut again = StreamEngine::new(cfg).unwrap();
        again.set_telemetry_clock(Arc::new(VirtualClock::new()));
        for chunk in events.chunks(400) {
            again.ingest_batch(chunk);
        }
        again.refresh();
        assert_eq!(engine.phase_histograms(), again.phase_histograms());
    }

    /// `telemetry: false` records nothing — and (the house invariant,
    /// property-tested end to end by the telemetry axis of
    /// `tests/equivalence.rs`)
    /// changes nothing observable.
    #[test]
    fn disabled_telemetry_records_nothing() {
        let (l, r) = two_views(6, 3);
        let mut cfg = stream_cfg();
        cfg.telemetry = false;
        cfg.refresh_every = 200;
        let mut engine = StreamEngine::new(cfg).unwrap();
        engine.ingest_batch(&merge_datasets(&l, &r));
        engine.refresh();
        assert!(engine
            .phase_histograms()
            .iter()
            .all(|(_, h)| h.count() == 0));
        assert_eq!(engine.event_latency_histogram().count(), 0);
        // Snapshots still carry the counters.
        let snap = engine.snapshot();
        assert_eq!(snap.counter("events"), Some(engine.stats().events));
    }

    #[test]
    fn single_tick_at_end_equals_finalize() {
        // With no intermediate ticks, every window is still dirty at the
        // first refresh, so the incremental path must agree exactly with
        // the batch reassembly.
        let (l, r) = two_views(6, 4);
        let mut engine = StreamEngine::new(stream_cfg()).unwrap();
        engine.ingest_batch(&merge_datasets(&l, &r));
        engine.refresh();
        let finalized = engine.finalize().unwrap();
        assert_eq!(engine.links().len(), finalized.links.len());
        for (a, b) in engine.links().iter().zip(&finalized.links) {
            assert_eq!((a.left, a.right), (b.left, b.right));
            assert_eq!(a.weight, b.weight);
        }
    }

    #[test]
    fn batch_ingest_matches_event_at_a_time() {
        let (l, r) = two_views(5, 3);
        let events = merge_datasets(&l, &r);
        let mut one = StreamEngine::new(stream_cfg()).unwrap();
        for ev in &events {
            one.ingest(ev);
        }
        let mut many = StreamEngine::new(stream_cfg()).unwrap();
        many.ingest_batch(&events);
        let (a, b) = (one.finalize().unwrap(), many.finalize().unwrap());
        assert_eq!(a.links.len(), b.links.len());
        for (x, y) in a.links.iter().zip(&b.links) {
            assert_eq!((x.left, x.right), (y.left, y.right));
            assert_eq!(x.weight, y.weight);
        }
        assert_eq!(one.stats().events, many.stats().events);
    }

    #[test]
    fn ticks_emit_added_links() {
        let (l, r) = two_views(5, 5);
        let mut cfg = stream_cfg();
        cfg.refresh_every = 100;
        let mut engine = StreamEngine::new(cfg).unwrap();
        let mut added = 0usize;
        for ev in merge_datasets(&l, &r) {
            for u in engine.ingest(&ev) {
                if matches!(u, LinkUpdate::Added(_)) {
                    added += 1;
                }
            }
        }
        assert!(
            added >= 5,
            "expected the true pairs to surface, got {added}"
        );
        assert!(engine.stats().ticks > 0);
        // All served links are true pairs.
        for link in engine.links() {
            assert_eq!(link.right.0, 1000 + link.left.0, "false link {link:?}");
        }
    }

    /// A refresh tick must visit exactly the pairs adjacent to the
    /// entities dirtied since the last tick — the adjacency index's
    /// marking contract, and the counter the full-cache sweep
    /// comparison hangs off.
    #[test]
    fn adjacency_marks_exactly_the_touched_pairs() {
        let (l, r) = two_views(4, 4);
        let mut engine = StreamEngine::new(stream_cfg()).unwrap();
        engine.ingest_batch(&merge_datasets(&l, &r));
        engine.refresh();
        let cached = engine.num_candidate_pairs();
        assert_eq!(cached, 16, "brute force tracks all 4×4 pairs");

        // A clean tick visits nothing.
        let visited_before = engine.stats().dirty_pairs_visited;
        engine.refresh();
        assert_eq!(
            engine.stats().dirty_pairs_visited,
            visited_before,
            "no dirty entities → no visited pairs"
        );

        // One event for one left entity dirties exactly its 4 pairs.
        engine.ingest(&StreamEvent::new(
            Side::Left,
            EntityId(2),
            LatLng::from_degrees(37.06, -122.04),
            Timestamp(26 * 900),
        ));
        let visited_before = engine.stats().dirty_pairs_visited;
        engine.refresh();
        let visited = engine.stats().dirty_pairs_visited - visited_before;
        assert_eq!(
            visited, 4,
            "exactly the pairs containing the ingested entity"
        );
        // The tick-level proof that refresh no longer sweeps the cache.
        assert!(engine.stats().dirty_pairs_visited < engine.stats().cached_pairs_at_ticks);
    }

    /// The globally earliest record belonging to a sparse entity the
    /// batch filter drops shifts the inferred origin; pinning via
    /// `batch_equivalent_origin` restores bit-identical finalization.
    #[test]
    fn sparse_straggler_origin_pinning_restores_equivalence() {
        // Dense pairs at 890 + k·900 (left) / 910 + k·900 (right): with
        // the batch origin 890 each pair shares window k; with a naive
        // origin 0 (set by the sparse straggler below) the right records
        // shift into window k + 1 and every score changes.
        let mut left_records: Vec<Record> = vec![rec(4999, 0, 5.0, 5.0)];
        let mut right_records: Vec<Record> = Vec::new();
        for e in 0..5u64 {
            let (lat, lng) = (37.0 + 0.04 * e as f64, -122.0 - 0.03 * e as f64);
            for k in 0..20i64 {
                left_records.push(rec(e, 890 + k * 900, lat + 0.001 * ((k % 3) as f64), lng));
                right_records.push(rec(
                    1000 + e,
                    910 + k * 900,
                    lat + 0.001 * ((k % 3) as f64) + 0.0003,
                    lng + 0.0002,
                ));
            }
        }
        let l = LocationDataset::from_records(left_records);
        let r = LocationDataset::from_records(right_records);
        let batch = Slim::new(SlimConfig::default()).unwrap().link(&l, &r);
        assert!(!batch.links.is_empty());

        let origin =
            crate::event::batch_equivalent_origin(&l, &r, SlimConfig::default().min_records)
                .unwrap();
        assert_eq!(
            origin,
            Timestamp(890),
            "sparse straggler must not set the origin"
        );
        let mut engine = StreamEngine::with_origin(stream_cfg(), origin).unwrap();
        engine.ingest_batch(&merge_datasets(&l, &r));
        let streamed = engine.finalize().unwrap();
        assert_eq!(streamed.links.len(), batch.links.len());
        for (a, b) in streamed.links.iter().zip(&batch.links) {
            assert_eq!((a.left, a.right), (b.left, b.right));
            assert_eq!(a.weight, b.weight, "weights must be bit-identical");
        }

        // Control: the naive first-event origin (0, the straggler's
        // timestamp) shifts window boundaries and the weights diverge —
        // this is exactly what origin pinning exists to prevent.
        let mut naive = StreamEngine::new(stream_cfg()).unwrap();
        naive.ingest_batch(&merge_datasets(&l, &r));
        let naive_out = naive.finalize().unwrap();
        let diverges = naive_out.links.len() != batch.links.len()
            || naive_out
                .links
                .iter()
                .zip(&batch.links)
                .any(|(a, b)| a.weight != b.weight);
        assert!(diverges, "fixture must actually straddle a window boundary");
    }

    #[test]
    fn min_records_buffering_matches_batch_filter() {
        let (l, r) = two_views(3, 3);
        // A sparse right entity below the min-records threshold.
        let mut right_records: Vec<Record> = Vec::new();
        for e in r.entities_sorted() {
            right_records.extend_from_slice(r.records_of(e));
        }
        right_records.push(rec(2999, 100, 10.0, 10.0));
        right_records.push(rec(2999, 1100, 10.0, 10.0));
        let r = LocationDataset::from_records(right_records);

        let mut engine = StreamEngine::new(stream_cfg()).unwrap();
        engine.ingest_batch(&merge_datasets(&l, &r));
        assert!(engine.history(Side::Right, EntityId(2999)).is_none());
        assert_eq!(engine.num_active(Side::Right), 3);

        let batch = Slim::new(SlimConfig::default()).unwrap().link(&l, &r);
        let streamed = engine.finalize().unwrap();
        assert_eq!(streamed.links.len(), batch.links.len());
        for (a, b) in streamed.links.iter().zip(&batch.links) {
            assert_eq!(a.weight, b.weight);
        }
    }

    #[test]
    fn sliding_window_expires_old_evidence() {
        let (l, r) = two_views(4, 4);
        let mut cfg = stream_cfg();
        // The 25-window trace has one record per window: a capacity of 10
        // lets entities pass the min-records filter from live evidence
        // alone while still forcing plenty of expiry.
        cfg.window_capacity = Some(10);
        let mut engine = StreamEngine::new(cfg).unwrap();
        engine.ingest_batch(&merge_datasets(&l, &r));
        engine.refresh();
        assert!(engine.stats().evicted_windows > 0);
        let entities = engine.tracked_entities_sorted(Side::Left);
        assert!(!entities.is_empty(), "entities must survive activation");
        // Only the last 10 windows of history remain.
        for e in entities {
            let h = engine.history(Side::Left, e).unwrap();
            let windows: Vec<_> = h.windows().collect();
            assert!(windows.len() <= 10, "{e} kept {} windows", windows.len());
            assert!(windows.iter().all(|w| w + 10 > engine.watermark));
        }
        // Still linkable from recent windows alone.
        assert!(!engine.links().is_empty());
        for link in engine.links() {
            assert_eq!(link.right.0, 1000 + link.left.0, "false link {link:?}");
        }
    }

    #[test]
    fn pending_buffers_respect_window_expiry() {
        // One record per window with a window capacity below the
        // min-records threshold: the entity never has enough *live*
        // records to activate, exactly like the batch filter applied to
        // any window-sized slice of its history.
        let mut cfg = stream_cfg();
        cfg.window_capacity = Some(4);
        let mut engine = StreamEngine::new(cfg).unwrap();
        let ll = LatLng::from_degrees(37.0, -122.0);
        for k in 0..25i64 {
            engine.ingest(&StreamEvent::new(
                Side::Left,
                EntityId(1),
                ll,
                Timestamp(k * 900),
            ));
        }
        assert_eq!(engine.num_active(Side::Left), 0);
        assert_eq!(engine.num_tracked_entities(Side::Left), 0);
    }

    /// An entity whose history expires away and who reactivates *before*
    /// the next tick must not keep serving links backed by evicted
    /// windows: its cached pair contributions are purged at rebirth.
    #[test]
    fn reactivation_purges_stale_pair_cache() {
        let mut cfg = stream_cfg();
        cfg.window_capacity = Some(8);
        cfg.slim.min_records = 2;
        let mut engine = StreamEngine::new(cfg).unwrap();
        let at = |lat: f64, lng: f64, k: i64| (LatLng::from_degrees(lat, lng), Timestamp(k * 900));
        let feed = |eng: &mut StreamEngine, side, id: u64, lat: f64, lng: f64, k: i64| {
            let (ll, t) = at(lat, lng, k);
            eng.ingest(&StreamEvent::new(side, EntityId(id), ll, t));
        };
        // Windows 0..3: the linkable pair 1 ↔ 1001 co-located in region
        // A, fillers 2 ↔ 1002 in region B, watermark-driver 3 on the left.
        for k in 0..4 {
            feed(&mut engine, Side::Left, 1, 37.0, -122.0, k);
            feed(&mut engine, Side::Right, 1001, 37.0, -122.0, k);
            feed(&mut engine, Side::Left, 2, 10.0, 10.0, k);
            feed(&mut engine, Side::Right, 1002, 10.0, 10.0, k);
            feed(&mut engine, Side::Left, 3, -20.0, 60.0, k);
        }
        engine.refresh();
        assert!(
            engine
                .links()
                .iter()
                .any(|e| (e.left, e.right) == (EntityId(1), EntityId(1001))),
            "pair must link while co-located: {:?}",
            engine.links()
        );

        // Entity 3 jumps far ahead: every window below 94 expires, so 1,
        // 1001, 2, and 1002 die — with NO tick in between.
        feed(&mut engine, Side::Left, 3, -20.0, 60.0, 100);
        feed(&mut engine, Side::Left, 3, -20.0, 60.0, 101);
        assert_eq!(engine.num_active(Side::Right), 0);

        // Both endpoints reactivate before the next tick — in disjoint
        // windows AND distant regions, so nothing links them anymore.
        for k in 100..103 {
            feed(&mut engine, Side::Left, 1, 37.0, -122.0, k);
            feed(&mut engine, Side::Left, 2, 10.0, 10.0, k);
        }
        for k in 104..107 {
            feed(&mut engine, Side::Right, 1001, -35.0, 140.0, k);
            feed(&mut engine, Side::Right, 1002, 10.0, 10.0, k);
        }
        engine.refresh();
        assert!(
            !engine
                .links()
                .iter()
                .any(|e| (e.left, e.right) == (EntityId(1), EntityId(1001))),
            "ghost link served from evicted evidence: {:?}",
            engine.links()
        );
        // The exact pipeline over the live histories agrees.
        let finalized = engine.finalize().unwrap();
        assert!(!finalized
            .links
            .iter()
            .any(|e| (e.left, e.right) == (EntityId(1), EntityId(1001))));
    }

    /// Expiry that leaves an entity with min_records or fewer live
    /// records must demote it entirely — the batch filter over the live
    /// slice would exclude it, and a fresh entity with identical live
    /// evidence would still be buffering.
    #[test]
    fn expiry_below_min_records_demotes_entity() {
        let mut cfg = stream_cfg();
        cfg.window_capacity = Some(10);
        let mut engine = StreamEngine::new(cfg).unwrap();
        let ll = LatLng::from_degrees(37.0, -122.0);
        // Entity 1: 7 records in windows 0..7, then silence.
        for k in 0..7i64 {
            engine.ingest(&StreamEvent::new(
                Side::Left,
                EntityId(1),
                ll,
                Timestamp(k * 900),
            ));
        }
        assert_eq!(engine.num_active(Side::Left), 1);
        // Entity 2 drives the watermark forward; as soon as entity 1's
        // live records drop to min_records (5), it is demoted outright.
        let far = LatLng::from_degrees(10.0, 10.0);
        for k in 11..13i64 {
            engine.ingest(&StreamEvent::new(
                Side::Left,
                EntityId(2),
                far,
                Timestamp(k * 900),
            ));
        }
        assert_eq!(
            engine.num_active(Side::Left),
            0,
            "below-threshold entity demoted"
        );
        assert!(engine.history(Side::Left, EntityId(1)).is_none());
        // The discarded live evidence is accounted for.
        assert_eq!(engine.stats().demoted_entities, 1);
        assert_eq!(engine.stats().demoted_records, 5);
    }

    #[test]
    fn late_events_beyond_expiry_are_dropped() {
        let mut cfg = stream_cfg();
        cfg.window_capacity = Some(2);
        cfg.slim.min_records = 0;
        let mut engine = StreamEngine::new(cfg).unwrap();
        let ll = LatLng::from_degrees(37.0, -122.0);
        engine.ingest(&StreamEvent::new(Side::Left, EntityId(1), ll, Timestamp(0)));
        engine.ingest(&StreamEvent::new(
            Side::Left,
            EntityId(1),
            ll,
            Timestamp(10 * 900),
        ));
        // Window 0 has expired: a straggler event there must be dropped.
        engine.ingest(&StreamEvent::new(
            Side::Left,
            EntityId(1),
            ll,
            Timestamp(100),
        ));
        assert_eq!(engine.stats().late_dropped, 1);
    }

    #[test]
    fn lsh_mode_links_planted_pair() {
        let (l, r) = two_views(6, 4);
        let mut cfg = stream_cfg();
        cfg.lsh = Some(crate::config::StreamLshConfig {
            spans: 16,
            base: slim_lsh::LshConfig {
                step_windows: 2,
                spatial_level: 12,
                ..slim_lsh::LshConfig::default()
            },
        });
        let mut engine = StreamEngine::new(cfg).unwrap();
        engine.ingest_batch(&merge_datasets(&l, &r));
        engine.refresh();
        let brute = (engine.num_active(Side::Left) * engine.num_active(Side::Right)) as f64;
        assert!(
            (engine.num_candidate_pairs() as f64) < brute,
            "LSH should prune candidates: {} of {brute}",
            engine.num_candidate_pairs()
        );
        for link in engine.links() {
            assert_eq!(link.right.0, 1000 + link.left.0, "false link {link:?}");
        }
        assert!(!engine.links().is_empty());
    }

    /// Candidate-set retirement: a pair whose signatures stop colliding
    /// and whose cached contributions all expire must leave the cache,
    /// with the retirement counted.
    #[test]
    fn drifted_apart_pairs_retire() {
        let mut cfg = stream_cfg();
        cfg.window_capacity = Some(8);
        cfg.slim.min_records = 2;
        cfg.lsh = Some(crate::config::StreamLshConfig {
            spans: 8,
            base: slim_lsh::LshConfig {
                step_windows: 1,
                spatial_level: 12,
                ..slim_lsh::LshConfig::default()
            },
        });
        let mut engine = StreamEngine::new(cfg).unwrap();
        let feed = |eng: &mut StreamEngine, side, id: u64, lat: f64, lng: f64, k: i64| {
            eng.ingest(&StreamEvent::new(
                side,
                EntityId(id),
                LatLng::from_degrees(lat, lng),
                Timestamp(k * 900),
            ));
        };
        // Windows 0..4: 1 ↔ 1001 co-located (collide, become a pair).
        for k in 0..4 {
            feed(&mut engine, Side::Left, 1, 37.0, -122.0, k);
            feed(&mut engine, Side::Right, 1001, 37.0, -122.0, k);
        }
        engine.refresh();
        assert_eq!(engine.num_candidate_pairs(), 1, "collision discovered");

        // Both keep streaming but from different continents: the old
        // co-located windows expire, the rings drift apart, and the pair
        // has no evidence and no collision left.
        for k in 4..20 {
            feed(&mut engine, Side::Left, 1, 37.0, -122.0 + (k - 3) as f64, k);
            feed(
                &mut engine,
                Side::Right,
                1001,
                -33.0,
                151.0 + (k - 3) as f64,
                k,
            );
        }
        engine.refresh();
        assert_eq!(
            engine.num_candidate_pairs(),
            0,
            "drifted pair must retire from the cache"
        );
        assert_eq!(engine.stats().retired_pairs, 1);
    }

    /// The engine owns one checkpoint encode buffer: a second
    /// checkpoint of a same-size state reuses the first one's
    /// allocation as it stands, and the buffer is handed back even
    /// when the write fails.
    #[test]
    fn checkpoint_encode_buffer_is_reused_across_checkpoints() {
        let (l, r) = two_views(6, 4);
        let mut engine = StreamEngine::new(stream_cfg()).unwrap();
        engine.ingest_batch(&merge_datasets(&l, &r));
        engine.refresh();
        let dir = std::env::temp_dir().join(format!("slim-ckpt-buf-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        engine.set_checkpoint_policy(dir.clone(), 1, 2);
        let pump = |consumed| ResumeState {
            consumed,
            reorder_max_seen: None,
            reorder_held: Vec::new(),
            reorder_late: 0,
            ticker: crate::source::pump::Ticker::EveryN,
        };
        let image_of =
            |consumed| std::fs::read(dir.join(checkpoint::checkpoint_file_name(consumed))).unwrap();

        engine.write_checkpoint(pump(100), false).unwrap();
        let (cap, ptr) = (
            engine.checkpoint_buf.capacity(),
            engine.checkpoint_buf.as_ptr(),
        );
        assert!(cap >= image_of(100).len(), "the image was encoded in place");
        engine.write_checkpoint(pump(200), false).unwrap();
        assert_eq!(
            (
                engine.checkpoint_buf.capacity(),
                engine.checkpoint_buf.as_ptr()
            ),
            (cap, ptr),
            "a same-size image must not regrow or move the buffer"
        );
        assert_eq!(image_of(200).len(), image_of(100).len());
        assert_eq!(
            engine.checkpoint_buf,
            image_of(200),
            "cleared, not appended to"
        );
        assert_eq!(
            (
                engine.stats().checkpoints_written,
                engine.checkpoint_write_histogram().count()
            ),
            (2, 2),
            "every committed checkpoint lands in the write-span histogram"
        );

        // A failing write (the directory path is taken by a file).
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::write(&dir, b"in the way").unwrap();
        engine.write_checkpoint(pump(300), false).unwrap_err();
        assert_eq!(
            engine.checkpoint_buf.capacity(),
            cap,
            "buffer kept on error"
        );
        std::fs::remove_file(&dir).unwrap();
    }
}
