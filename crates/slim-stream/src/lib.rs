//! # slim-stream — incremental sliding-window mobility linkage
//!
//! The batch SLIM pipeline (`slim-core`) links two finished datasets in
//! one pass. This crate turns the reproduction into a **continuously
//! serving linkage engine**: it ingests `(side, entity, lat, lng,
//! timestamp)` events one at a time (or in sharded batches), maintains
//! per-entity mobility histories *and* the dataset-level statistics the
//! similarity score depends on (document frequencies, length norms)
//! incrementally, keeps LSH ring signatures hot in an incremental bucket
//! index, and re-runs matching + GMM thresholding over the dirty part of
//! the pair graph at configurable refresh ticks — emitting link *deltas*
//! instead of recomputing from scratch.
//!
//! ## Architecture
//!
//! Upstream of the engine sits the **async ingestion front-end**
//! ([`source`]): a [`source::StreamSource`] (CSV replay, live TCP
//! feed, synthetic workload) runs on a producer thread behind a
//! bounded backpressured channel, a watermark reorder buffer restores
//! canonical event order under bounded out-of-order delivery, and a
//! [`source::TickPolicy`] schedules refresh ticks —
//! [`StreamEngine::drive`] drains a source to EOF. The engine proper:
//!
//! The engine state is **sharded end-to-end by entity hash**: each
//! `EngineShard` owns its entities' histories (active or parked below
//! the min-records filter), LSH rings, and the contribution caches + entity→pair adjacency of
//! the pairs it owns (owner = shard of the Left entity). Execution is
//! decoupled from that partition: a **persistent worker pool** (spawned
//! once per engine, `--workers`, independent of `--shards`) runs every
//! parallel phase over *chunks* of the per-shard work queues. Each
//! worker claims its own block of chunk ids and then takes from the
//! back of other workers' blocks, so a hot entity's home shard is
//! consumed by every free worker instead of stalling the barrier. Only the dataset-global
//! steps (df/idf statistics, bucket-partition handoff, edge assembly,
//! matching, GMM thresholding) meet at merge barriers — and every
//! barrier folds commutative deltas, sorted sets, or chunk-id-ordered
//! outputs, so links, stats, and finalized output are bit-identical
//! for every shard count, every worker count, and every claim
//! interleaving.
//!
//! ```text
//!            ┌───────────── control scan (serial, cheap) ─────────────┐
//!            │ late-drop · watermark · expiry / tick boundaries       │
//! events ──► └───┬────────────────┬────────────────┬─────────────────┘
//!                ▼                ▼                ▼
//!            ┌─ shard 0 ─┐   ┌─ shard 1 ─┐ … ┌─ shard N ─┐   (∥ per shard)
//!            │ bin + buffer + histories + rings + dirty  │
//!            └───┬────────────────┬────────────────┬─────┘
//!                ▼                ▼                ▼
//!            ╞═ barrier: df/idf deltas · LSH partition upserts ═╡
//!            ╞═          candidate pairs → owning shard        ═╡
//! tick  ───► rescore adjacency-reachable dirty (pair, window) (∥)
//!            patch each pair's slot in the shard's pair table in place
//!            retire collision-less empty pairs
//!            ╞═ barrier: k-way merge of edge-delta runs   ═╡
//!            ╞═ region-local delta matching · warm GMM fit ═╡
//!            ──► Vec<LinkUpdate>  (Added / Removed / Reweighted)
//! finalize ► exact batch pipeline over the merged live histories
//! ```
//!
//! Three properties anchor the design:
//!
//! 1. **Stream/batch equivalence.** With an unbounded window and the
//!    same window origin, [`StreamEngine::finalize`] returns output
//!    *bit-identical* to [`slim_core::Slim::link`] over the same
//!    records: the incremental history sets are maintained exactly
//!    (same bins, same document frequencies, same averages), and
//!    finalization runs the unmodified batch pipeline over them. The
//!    origin matches automatically when the stream's earliest record
//!    belongs to an entity the batch min-records filter keeps; pin it
//!    explicitly with [`StreamEngine::with_origin`] +
//!    [`batch_equivalent_origin`] for replays where a sparse entity
//!    arrives first (the CLI `--stream` mode does).
//! 2. **Bounded work per tick.** An event dirties one window of one
//!    entity; a tick walks the entity→pair adjacency index from the
//!    dirty entities and recomputes only the reachable `(pair, window)`
//!    contributions (shard-parallel), reusing the cached contributions
//!    of untouched windows — never a full cache sweep
//!    ([`StreamStats::dirty_pairs_visited`] vs
//!    [`StreamStats::cached_pairs_at_ticks`] is the proof). The
//!    barrier is bounded the same way: each shard keeps its owned
//!    pairs' assembled scores in their slots, patched in place, and
//!    appends each change to an edge-delta run; the barrier k-way
//!    merges the per-shard runs, sorted by pair
//!    ([`StreamStats::edges_patched`]), the greedy matching is
//!    repaired over the delta-touched components only
//!    ([`StreamStats::matching_region_size`]), and the GMM stop
//!    threshold refits warm from the previous tick's mixture
//!    ([`StreamStats::em_warm_iters`]) with a cold fallback —
//!    `O(dirty + links)` per tick end to end. Cached contributions (and cached
//!    edge norms) may lag the globally drifting idf statistics between
//!    ticks; they are refreshed lazily when their window is touched,
//!    and exactly at finalization.
//! 3. **Sliding-window semantics.** With `window_capacity = Some(W)`,
//!    only the most recent `W` temporal windows of evidence are
//!    retained: expired windows are evicted from histories, statistics,
//!    and LSH rings, affected pairs are re-scored, and links fade when
//!    their supporting evidence does. Late events inside the window
//!    land in their true window; events older than the window are
//!    counted and dropped.
//!
//! ## Example
//!
//! ```
//! use slim_core::{EntityId, Timestamp};
//! use slim_stream::{Side, StreamConfig, StreamEngine, StreamEvent};
//! use geocell::LatLng;
//!
//! let mut cfg = StreamConfig::default();
//! cfg.slim.min_records = 0;
//! cfg.refresh_every = 0; // manual ticks
//! let mut engine = StreamEngine::new(cfg).unwrap();
//! for k in 0..12i64 {
//!     // Entity 1 ↔ 77 share a trace; 2 ↔ 88 live on another continent.
//!     let at = LatLng::from_degrees(37.0, -122.0 + 0.001 * (k % 3) as f64);
//!     let far = LatLng::from_degrees(-33.0, 151.0 + 0.001 * (k % 2) as f64);
//!     engine.ingest(&StreamEvent::new(Side::Left, EntityId(1), at, Timestamp(k * 900)));
//!     engine.ingest(&StreamEvent::new(Side::Right, EntityId(77), at, Timestamp(k * 900 + 400)));
//!     engine.ingest(&StreamEvent::new(Side::Left, EntityId(2), far, Timestamp(k * 900)));
//!     engine.ingest(&StreamEvent::new(Side::Right, EntityId(88), far, Timestamp(k * 900 + 400)));
//! }
//! let updates = engine.refresh();
//! assert!(!updates.is_empty());
//! assert!(engine.links().iter().any(|l| (l.left, l.right) == (EntityId(1), EntityId(77))));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod adjacency;
pub mod checkpoint;
pub mod config;
pub mod engine;
pub mod event;
mod lsh;
mod merge;
#[allow(unsafe_code)] // the phase-closure handoff; see its module docs
mod pool;
mod run_memo;
pub mod serve;
mod shard;
pub mod snapshot;
pub mod source;
pub mod telemetry;
pub mod testing;

pub use checkpoint::CheckpointPolicy;
pub use config::{StreamConfig, StreamLshConfig};
pub use engine::{LinkUpdate, StreamEngine, StreamStats};
pub use event::{batch_equivalent_origin, merge_datasets, Side, StreamEvent};
pub use serve::{LinkQueryServer, ServeReport};
pub use snapshot::{EpochLog, EpochPointer, LinkSnapshot};
pub use source::{
    ConnMessage, ConnectionFrontier, DriveOptions, FanIn, IngestReport, StreamSource,
    SyntheticSource, TcpIngestTier, TcpLineSource, TickPolicy, WireFormat,
};
pub use telemetry::PhaseId;
