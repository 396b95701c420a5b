//! Deterministic test doubles for the ingestion front-end, the
//! recompute oracle, and the equivalence matrix built on both — shared
//! by unit tests and the integration suites (`tests/equivalence.rs` and
//! the per-axis suites beside it).
//!
//! The two flakiness sources a streaming harness usually drags into CI
//! are **sleeps** (to "let the producer catch up") and the **wall
//! clock** (rate pacing). Neither appears here: [`ScriptedSource`]
//! replays an exact script of batches, stalls, EOF, and errors, and
//! [`VirtualClock`] is an explicitly advanced clock that plugs into
//! [`crate::source::SyntheticSource`]'s rate control.
//!
//! [`RecomputeOracle`] is the reference the engine's incrementally
//! maintained windowed state is held to: the batch builder, run over
//! the events the engine was fed.
//!
//! [`Case::check`] is the house invariant in one place: the engine's
//! answer is a function of the live events. It runs a [`Case`] — an
//! event stream under one configuration — under each [`Variation`] of
//! shards, workers, chunking, delivery (direct, a [`ScriptedSource`],
//! or staged [`ScriptedConnections`]), tick policy, a [`FaultPlan`]
//! kill and recovery, telemetry and concurrent epoch readers, and holds
//! every run to the one-shard, one-worker, whole-stream reference,
//! naming the first field that differed. Direct runs go through a
//! [`RecomputeOracle`]; the [`OracleCoverage`] it returns says which
//! axes the runs exercised.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Debug;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex, OnceLock};

use geocell::LatLng;
use slim_core::matching::heaviest_first;
use slim_core::similarity::SimilarityScorer;
use slim_core::{
    Edge, EntityId, EntityView, HistorySet, LinkageStats, LocationDataset, Timestamp, WindowIdx,
};
use slim_lsh::BucketIndex;
use slim_telemetry::VecSink;

use crate::adjacency::PairKey;
use crate::config::{StreamConfig, StreamLshConfig};
use crate::engine::{LinkUpdate, StreamEngine, StreamStats};
use crate::event::{Side, StreamEvent};
use crate::lsh::{LshGeometry, RingDump, ShardRings, SpanRing};
use crate::shard::{
    entity_shard, mark_violation, BinnedColumns, CachedPair, Contribution, EngineShard, PairWindows,
};
use crate::snapshot::{EpochLog, LinkSnapshot};
use crate::source::channel::Sender;
use crate::source::{
    Clock, ConnMessage, DriveOptions, FanIn, SourcePoll, StreamSource, TickPolicy,
};

/// One step of a [`ScriptedSource`] script.
#[derive(Debug, Clone, PartialEq)]
pub enum ScriptStep {
    /// Deliver these events (in this delivery order) as one batch.
    Batch(Vec<StreamEvent>),
    /// Report [`SourcePoll::Pending`] for this many polls.
    Stall(u32),
    /// Fail the stream with this error.
    Error(String),
}

/// A source that replays a fixed script: batches are delivered exactly
/// as written (split only when a poll asks for fewer events), stalls
/// surface as `Pending` the scripted number of times, and the script's
/// end is EOF. Completely deterministic — the delivered sequence never
/// depends on thread timing.
#[derive(Debug)]
pub struct ScriptedSource {
    steps: std::collections::VecDeque<ScriptStep>,
    /// Remainder of a batch a smaller `max` split.
    carry: Vec<StreamEvent>,
}

impl ScriptedSource {
    /// A source replaying `steps` in order.
    pub fn new(steps: Vec<ScriptStep>) -> Self {
        Self {
            steps: steps.into(),
            carry: Vec::new(),
        }
    }
}

/// Shorthand: delivers `events` in batches of `batch` with no stalls.
pub fn script(events: Vec<StreamEvent>, batch: usize) -> ScriptedSource {
    ScriptedSource::new(
        events
            .chunks(batch.max(1))
            .map(|c| ScriptStep::Batch(c.to_vec()))
            .collect(),
    )
}

impl StreamSource for ScriptedSource {
    fn next_batch(&mut self, max: usize) -> Result<SourcePoll, String> {
        let max = max.max(1);
        loop {
            if !self.carry.is_empty() {
                let n = self.carry.len().min(max);
                let rest = self.carry.split_off(n);
                let batch = std::mem::replace(&mut self.carry, rest);
                return Ok(SourcePoll::Batch(batch));
            }
            match self.steps.front_mut() {
                None => return Ok(SourcePoll::End),
                Some(ScriptStep::Stall(n)) => {
                    if *n == 0 {
                        self.steps.pop_front();
                        continue;
                    }
                    *n -= 1;
                    return Ok(SourcePoll::Pending);
                }
                Some(ScriptStep::Error(_)) => {
                    let Some(ScriptStep::Error(e)) = self.steps.pop_front() else {
                        unreachable!("checked above");
                    };
                    return Err(e);
                }
                Some(ScriptStep::Batch(_)) => {
                    let Some(ScriptStep::Batch(events)) = self.steps.pop_front() else {
                        unreachable!("checked above");
                    };
                    if events.is_empty() {
                        continue;
                    }
                    self.carry = events;
                }
            }
        }
    }
}

/// A deterministic multi-connection fan-in tier: stages of scripted
/// connections, each playing its own [`ScriptStep`] schedule on its own
/// thread through the shared MPSC channel — the test double for
/// [`crate::source::TcpIngestTier`] behind the same
/// [`crate::source::FanIn`] seam.
///
/// Within a stage every connection `Join`s before any of them delivers
/// an event (an internal barrier), so the frontier merge knows all
/// participants up front; stages run strictly one after another (the
/// next spawns only when every thread of the current one has finished),
/// so a later stage's `Join`s are enqueued after *all* of an earlier
/// stage's messages — mid-stream joins and leaves exercise churn
/// without manufacturing nondeterministic lateness. Within a stage,
/// thread interleaving is deliberately free: that schedule freedom is
/// exactly what the equivalence property tests quantify over.
///
/// Step semantics per connection: `Batch` delivers its events in order,
/// `Stall` yields the thread that many times (schedule perturbation,
/// not wall-time), and `Error` kills the connection — it leaves
/// immediately, the remaining steps unplayed (death churn; never a
/// drive failure).
#[derive(Debug)]
pub struct ScriptedConnections {
    /// `stages[s][c]` = the script of stage `s`'s connection `c`.
    /// Connection ids are assigned globally in stage-then-index order.
    stages: Vec<Vec<Vec<ScriptStep>>>,
}

impl ScriptedConnections {
    /// A tier playing `stages` sequentially, each stage's connections
    /// concurrently.
    pub fn new(stages: Vec<Vec<Vec<ScriptStep>>>) -> Self {
        Self { stages }
    }

    /// A tier with every connection live at once.
    pub fn single_stage(conns: Vec<Vec<ScriptStep>>) -> Self {
        Self::new(vec![conns])
    }
}

impl FanIn for ScriptedConnections {
    fn run(self, tx: Sender<ConnMessage>) -> Result<(), String> {
        let mut next_conn = 0u64;
        for stage in self.stages {
            if stage.is_empty() {
                continue;
            }
            let base = next_conn;
            next_conn += stage.len() as u64;
            let all_joined = Barrier::new(stage.len());
            std::thread::scope(|scope| {
                for (i, steps) in stage.into_iter().enumerate() {
                    let tx = tx.clone();
                    let all_joined = &all_joined;
                    scope.spawn(move || play_connection(base + i as u64, steps, &tx, all_joined));
                }
            });
        }
        Ok(())
    }
}

/// One scripted connection's life: `Join`, barrier, the script, then
/// `Leave`. Send failures mean the receiver (the drive) is gone — the
/// barrier is still honored so sibling threads cannot deadlock.
fn play_connection(
    conn: u64,
    steps: Vec<ScriptStep>,
    tx: &Sender<ConnMessage>,
    all_joined: &Barrier,
) {
    let joined = tx.send(ConnMessage::Join { conn }).is_ok();
    all_joined.wait();
    if !joined {
        return;
    }
    for step in steps {
        match step {
            ScriptStep::Batch(events) => {
                let batch = events
                    .into_iter()
                    .map(|event| ConnMessage::Event { conn, event });
                if tx.send_all(batch).is_err() {
                    return;
                }
            }
            ScriptStep::Stall(n) => {
                for _ in 0..n {
                    std::thread::yield_now();
                }
            }
            // The connection dies mid-script: everything after is lost,
            // but the Leave below still reports the departure (a real
            // reader thread does the same on an IO error).
            ScriptStep::Error(_) => break,
        }
    }
    let _ = tx.send(ConnMessage::Leave {
        conn,
        malformed_lines: 0,
    });
}

/// A deterministic fault-injection plan for the crash/recover harness:
/// instead of killing real processes (slow, racy, unportable), a drive
/// with a plan installed via
/// [`crate::StreamEngine::set_fault_plan`] simulates the failure at an
/// exact, repeatable point in the accepted-event sequence — so CI
/// exercises crash recovery sleep-free and bit-reproducibly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Abort the drive (as a crash would) immediately after accepting
    /// this many events from the source. The drive returns an error;
    /// the engine is left mid-ingest like a killed process's heap —
    /// recovery must come from the checkpoint directory.
    pub kill_at_event: Option<u64>,
    /// Truncate the **last checkpoint written before the kill** to this
    /// many bytes (a torn write: the crash hit mid-`write`). Requires
    /// `kill_at_event`.
    pub torn_write_after: Option<u64>,
    /// Flip one bit at this byte offset in the last checkpoint written
    /// before the kill (media corruption under an intact length).
    /// Requires `kill_at_event`.
    pub bit_flip_at: Option<u64>,
}

impl FaultPlan {
    /// A plan that kills the drive after `n` accepted events, with
    /// intact checkpoints.
    pub fn kill_at(n: u64) -> Self {
        Self {
            kill_at_event: Some(n),
            ..Self::default()
        }
    }
}

/// Declares [`OracleCoverage`] from one list of `name "label"` rows:
/// the struct, its sum and its labelled rows.
macro_rules! coverage {
    ($($(#[$doc:meta])* $name:ident $label:literal,)*) => {
        /// What a [`RecomputeOracle`] and the matrix runs around it have
        /// exercised, summed over their checks — so a property can assert
        /// that none of its axes was vacuous.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct OracleCoverage {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl OracleCoverage {
            /// Adds `other`'s counts to these.
            pub fn add(&mut self, other: &OracleCoverage) {
                $(self.$name += other.$name;)*
            }

            /// Every count with its label, in declaration order.
            pub fn rows(&self) -> Vec<(&'static str, u64)> {
                vec![$(($label, self.$name)),*]
            }

            /// Panics, naming them, unless every count in `labels` is
            /// nonzero (all of them when `labels` is empty).
            pub fn assert_exercised(&self, labels: &[&str]) {
                let zero: Vec<&str> = self
                    .rows()
                    .into_iter()
                    .filter(|&(label, n)| n == 0 && (labels.is_empty() || labels.contains(&label)))
                    .map(|(label, _)| label)
                    .collect();
                assert!(zero.is_empty(), "vacuous runs, nothing of {zero:?} in {self:#?}");
            }
        }
    };
}

coverage! {
    /// Pair-cache checks run (one per refresh tick).
    ticks "oracle ticks",
    /// Entities whose history was live at one check and gone at the next.
    removed_entities "entities removed",
    /// Removed entities whose history came back.
    reactivated_entities "entities re-activated",
    /// Entities whose bins had all expired from their arena at one check
    /// and that held bins again at a later one.
    revived_entities "entities revived after full expiry",
    /// Cached `(pair, window)` contributions equal to their recomputation.
    fresh_contributions "contributions equal to recomputation",
    /// Cached contributions carried over from an earlier tick with their
    /// window's bins unchanged — the lazily refreshed ones.
    carried_contributions "contributions carried across a tick",
    /// Parked entities (below the min-records filter) whose arena bins
    /// were checked, summed over checks.
    parked_entities "parked entities checked",
    /// Rings checked against a replay of their live events, summed over
    /// checks.
    rings "rings checked",
    /// [`crate::StreamStats::evicted_windows`], summed over runs.
    evicted_windows "windows evicted",
    /// [`crate::StreamStats::demoted_entities`], summed over runs.
    demoted_entities "entities demoted",
    /// [`crate::StreamStats::late_dropped`], summed over runs.
    late_dropped "events dropped late",
    /// [`crate::StreamStats::arena_compactions`], summed over runs.
    arena_compactions "arena compactions",
    /// Runs on more than one shard.
    sharded_runs "runs on several shards",
    /// [`crate::StreamStats::steal_events`], summed over runs: pool
    /// phases that were dispatched and rebalanced.
    steal_events "chunks stolen by pool workers",
    /// Direct runs fed one event or 37 events per call.
    chunked_runs "direct runs in chunks of 1 or 37",
    /// Ticks a `Watermark` policy fired from the pump.
    policy_ticks "watermark ticks",
    /// Periodic metrics snapshots checked against their cadence.
    snapshots "telemetry snapshots",
    /// Engines recovered from a killed run's checkpoint directory.
    recoveries "recoveries",
    /// Checkpoints recovery rejected as torn or corrupt.
    checkpoints_rejected "checkpoints rejected",
    /// Scripted connections that joined a fan-in drive.
    joins "connections joined",
    /// Those that joined after an earlier stage had left.
    staged_joins "connections joined mid-stream",
    /// Those that left cleanly.
    leaves "connections left",
    /// Those that died after their last event.
    deaths "connections died",
    /// Published epochs concurrent readers loaded and checked.
    reader_loads "reader loads",
}

/// The pair caches and the rebuilt histories as of the previous tick.
#[derive(Debug)]
struct TickState {
    sets: [Rebuilt; 2],
    cache: HashMap<PairKey, PairWindows>,
    edges: HashMap<PairKey, f64>,
}

/// Holds an engine's windowed state to **recomputation from the events
/// it was fed**: the maintained state must be a function of the live
/// event slice, however it was reached.
///
/// Drive the engine through [`RecomputeOracle::ingest`] and
/// [`RecomputeOracle::refresh`] only. After every tick the oracle cuts
/// the live slice — every fed event whose window is at or above
/// `watermark + 1 − window_capacity`, the engine's own expiry rule —
/// runs it through the batch path ([`HistorySet::build`] with the
/// engine's scheme and spatial level, before and after
/// `filter_min_records`) and compares, per side: every entity's columns
/// as its home arena exports them, parked or active, against the
/// unfiltered rebuild (windows, cells, counts and the record total, one
/// view equality) with its per-window record counts; the active entity
/// set and each active history as the engine serves it against
/// the filtered rebuild; the merged df statistics; and, under LSH, every
/// ring against a ring replayed from the entity's live events in stream
/// order, and the bucket partitions against the active entities' rings.
///
/// After every tick it also checks each cached pair. Contributions are
/// refreshed lazily (an untouched window keeps the idf it was last
/// scored with), so the contract is: a cached `(window, contribution)`
/// is bit-equal to [`SimilarityScorer::window_contribution`] over the
/// rebuilt histories, **or** it is bit-equal to what the cache held at
/// the previous tick *and* neither endpoint's bins in that window moved
/// since. The cached edge score is `Σ cached / pair_norm` over the
/// rebuilt sets under the same rule (stale only if nothing of the pair
/// moved), no cached pair has an endpoint outside the live slice, and
/// without LSH the cached pairs are exactly `active × active`.
#[derive(Debug, Default)]
pub struct RecomputeOracle {
    fed: Vec<StreamEvent>,
    rebuilds: Arc<Rebuilds>,
    /// Events accepted since the last tick — the engine's own counter,
    /// mirrored so that chunks can end on tick boundaries.
    since_tick: usize,
    prev: Option<TickState>,
    /// Per side: entities live at the previous check, those that were
    /// ever removed, those stored at the previous check, and those whose
    /// bins all expired.
    live: [BTreeSet<EntityId>; 2],
    removed: [BTreeSet<EntityId>; 2],
    stored: [BTreeSet<EntityId>; 2],
    expired: [BTreeSet<EntityId>; 2],
    coverage: OracleCoverage,
}

/// One side's live slice rebuilt through the batch path: its histories
/// before and after the min-records filter.
type Rebuilt = Arc<[HistorySet<'static>; 2]>;

/// Rebuilds of one event stream's live slices by events fed, watermark
/// and side, shared by the oracles of runs fed that stream in order:
/// they rebuild the same slice at every tick.
type Rebuilds = Mutex<HashMap<(usize, WindowIdx, Side), Rebuilt>>;

impl RecomputeOracle {
    /// An oracle for a fresh engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// An oracle that shares `rebuilds` with the other oracles of runs
    /// fed the same events in the same order.
    fn sharing(rebuilds: &Arc<Rebuilds>) -> Self {
        Self {
            rebuilds: Arc::clone(rebuilds),
            ..Self::default()
        }
    }

    /// What the checks so far have covered.
    pub fn coverage(&self) -> OracleCoverage {
        self.coverage
    }

    /// Feeds `events` through [`StreamEngine::ingest_batch`], cut so
    /// that an automatic tick can only fire on a chunk's last event, and
    /// checks the engine after every chunk that ticked.
    pub fn ingest(
        &mut self,
        engine: &mut StreamEngine,
        events: &[StreamEvent],
    ) -> Result<Vec<LinkUpdate>, String> {
        let every = engine.config().refresh_every;
        let mut updates = Vec::new();
        let mut rest = events;
        while !rest.is_empty() {
            // The tick fires on the `every`-th accepted event: a chunk
            // no longer than the rest of the interval ends at or before it.
            let room = match every {
                0 => rest.len(),
                n => (n - self.since_tick).min(rest.len()),
            };
            let (chunk, tail) = rest.split_at(room);
            rest = tail;
            let before = *engine.stats();
            updates.extend(engine.ingest_batch(chunk));
            self.fed.extend_from_slice(chunk);
            let ticked = engine.stats().ticks > before.ticks;
            self.since_tick = match ticked {
                true => 0,
                false => self.since_tick + (engine.stats().events - before.events) as usize,
            };
            if ticked {
                self.check(engine)?;
            }
        }
        Ok(updates)
    }

    /// Runs a manual tick and checks the engine after it.
    pub fn refresh(&mut self, engine: &mut StreamEngine) -> Result<Vec<LinkUpdate>, String> {
        let updates = engine.refresh();
        self.since_tick = 0;
        self.check(engine)?;
        Ok(updates)
    }

    fn check(&mut self, engine: &StreamEngine) -> Result<(), String> {
        if engine.scheme().is_none() {
            return Ok(());
        }
        let sets = [
            self.check_side(engine, Side::Left)?,
            self.check_side(engine, Side::Right)?,
        ];
        let (shards, ..) = engine.windowed_state();
        self.check_pairs(engine.config(), shards, sets)
    }

    /// Checks one side's entity sets, histories and df statistics
    /// against the rebuilt live slice, which it returns.
    fn check_side(&mut self, engine: &StreamEngine, side: Side) -> Result<Rebuilt, String> {
        let scheme = *engine.scheme().expect("checked by the caller");
        let cfg = engine.config();
        let (shards, df, watermark) = engine.windowed_state();
        let keep_from = cfg
            .window_capacity
            .map_or(0, |cap| watermark.saturating_add(1).saturating_sub(cap));
        let min_records = cfg.slim.min_records;
        let i = side.idx();
        let live = self
            .fed
            .iter()
            .filter(|ev| ev.side == side && scheme.window_of(ev.time) >= keep_from);
        let mut window_records: HashMap<EntityId, BTreeMap<WindowIdx, u32>> = HashMap::new();
        for ev in live.clone() {
            let counts = window_records.entry(ev.entity).or_default();
            *counts.entry(scheme.window_of(ev.time)).or_insert(0) += 1;
        }
        // Every live entity's bins sit in its home arena, parked or
        // active: the slice's histories built without the filter. The
        // filter then splits them into parked and active.
        let key = (self.fed.len(), watermark, side);
        let shared = self
            .rebuilds
            .lock()
            .expect("rebuilds lock")
            .get(&key)
            .cloned();
        let rebuilt = shared.unwrap_or_else(|| {
            let level = cfg.slim.spatial_level;
            let mut dataset =
                LocationDataset::from_records(live.clone().map(StreamEvent::to_record));
            let slice = HistorySet::build(&dataset, scheme, level, watermark + 1);
            dataset.filter_min_records(min_records);
            let set = HistorySet::build(&dataset, scheme, level, watermark + 1);
            let rebuilt = Arc::new([slice, set]);
            let mut rebuilds = self.rebuilds.lock().expect("rebuilds lock");
            rebuilds.insert(key, Arc::clone(&rebuilt));
            rebuilt
        });
        let [slice, set] = &*rebuilt;
        let want_active = set.entities_sorted();
        let stored = sorted(shards.iter().flat_map(|s| s.histories[i].entities()));
        let active = sorted(shards.iter().flat_map(|s| s.active[i].iter().copied()));
        if (&stored, &active) != (&slice.entities_sorted(), &want_active)
            || engine.tracked_entities_sorted(side) != want_active
        {
            return Err(format!(
                "{side:?} arena holds {stored:?}, active {active:?}, tracked {:?}; the live slice \
                 has {:?} and keeps {want_active:?}",
                engine.tracked_entities_sorted(side),
                slice.entities_sorted()
            ));
        }
        self.coverage.parked_entities += (stored.len() - active.len()) as u64;
        if df[i] != *set.df_stats() {
            return Err(format!(
                "{side:?} df statistics diverged: {} bins / {} entities maintained, {} / {} \
                 recomputed (or a per-bin frequency differs)",
                df[i].total_bins(),
                df[i].num_entities(),
                set.df_stats().total_bins(),
                set.df_stats().num_entities()
            ));
        }
        for &e in &stored {
            let want = slice.history(e).expect("listed by the slice");
            let (view, records) = shards[entity_shard(side, e, shards.len())].histories[i]
                .export_entity(e)
                .expect("listed by the arena");
            // Only an active entity's history is served.
            let served = engine.history(side, e).map(|h| h == want);
            if view != want || served != set.history(e).map(|_| true) {
                return Err(format!("{side:?} {e:?}: stored columns diverged"));
            }
            let counted = window_records[&e].iter().map(|(&w, &n)| (w, n));
            if !records.iter().copied().eq(counted) {
                return Err(format!(
                    "{side:?} {e:?}: per-window record counts {records:?}, the live slice has \
                     {:?}",
                    window_records[&e]
                ));
            }
        }
        self.coverage.rings += check_rings(engine, side, live)?;

        let now: BTreeSet<EntityId> = want_active.into_iter().collect();
        for &e in self.live[i].difference(&now) {
            self.removed[i].insert(e);
            self.coverage.removed_entities += 1;
        }
        let returned = now.difference(&self.live[i]);
        self.coverage.reactivated_entities +=
            returned.filter(|e| self.removed[i].contains(e)).count() as u64;
        self.live[i] = now;
        let stored: BTreeSet<EntityId> = stored.into_iter().collect();
        self.expired[i].extend(self.stored[i].difference(&stored));
        let revived = stored.difference(&self.stored[i]);
        self.coverage.revived_entities +=
            revived.filter(|e| self.expired[i].contains(e)).count() as u64;
        self.stored[i] = stored;
        Ok(rebuilt)
    }

    fn check_pairs(
        &mut self,
        cfg: &StreamConfig,
        shards: &[EngineShard],
        sets: [Rebuilt; 2],
    ) -> Result<(), String> {
        self.coverage.ticks += 1;
        // The filtered histories: the ones the engine scores.
        let (u, v) = (&sets[0][1], &sets[1][1]);
        let scorer = SimilarityScorer::new(&cfg.slim, u, v);
        let prev = self.prev.as_ref();
        let bits_at = |list: &[Contribution], w: WindowIdx| {
            let at = list.binary_search_by_key(&w, |&(cached, _)| cached).ok()?;
            Some(list[at].1.to_bits())
        };
        let mut unused = LinkageStats::default();
        let mut cache = HashMap::new();
        let mut edges = HashMap::new();
        for shard in shards {
            // An edge lives in its pair's slot, so no edge can lack a
            // cached pair; what can break is the table's bookkeeping.
            if let Some(why) = shard.pairs.violation() {
                return Err(format!("pair table: {why}"));
            }
            for (_, slot) in shard.pairs.slots() {
                let pair = slot.pair;
                let CachedPair {
                    windows: cached,
                    mark,
                } = &slot.cached;
                if let Some(score) = slot.edge {
                    edges.insert(pair, score);
                }
                let (Some(hu), Some(hv)) = (u.history(pair.0), v.history(pair.1)) else {
                    return Err(format!(
                        "cached pair {pair:?} has an endpoint outside the live slice"
                    ));
                };
                if cached.windows(2).any(|p| p[0].0 >= p[1].0) || cached.iter().any(|c| c.1 == 0.0)
                {
                    return Err(format!(
                        "pair {pair:?}: cache not ascending or holds a zero"
                    ));
                }
                if let Some(why) = mark_violation(cached, mark) {
                    return Err(format!("pair {pair:?}: {why}"));
                }
                let prev_cached = prev.and_then(|p| p.cache.get(&pair));
                let prev_u = prev.and_then(|p| p.sets[0][1].history(pair.0));
                let prev_v = prev.and_then(|p| p.sets[1][1].history(pair.1));
                // The common windows by lookup, not by the engine's walk.
                let mut windows: BTreeSet<WindowIdx> = cached.iter().map(|&(w, _)| w).collect();
                windows.extend(hu.windows().filter(|&w| !hv.window_run(w).0.is_empty()));
                for w in windows {
                    let (ru, rv) = (hu.window_run(w), hv.window_run(w));
                    let fresh = scorer.window_contribution(w, ru, rv, &mut unused);
                    let want = (fresh != 0.0).then(|| fresh.to_bits());
                    let have = bits_at(cached, w);
                    if have == want {
                        self.coverage.fresh_contributions += 1;
                        continue;
                    }
                    let carried = prev_cached.is_some_and(|p| bits_at(p, w) == have)
                        && prev_u.is_some_and(|p| p.window_run(w) == ru)
                        && prev_v.is_some_and(|p| p.window_run(w) == rv);
                    if !carried {
                        return Err(format!(
                            "pair {pair:?} window {w}: cached {:?}, recomputed {fresh:?}, and it \
                             is not a value carried over an unchanged window",
                            have.map(f64::from_bits)
                        ));
                    }
                    self.coverage.carried_contributions += 1;
                }
                let sum: f64 = cached.iter().map(|&(_, c)| c).sum();
                let score = sum / scorer.pair_norm(pair.0, pair.1);
                let want = (score > 0.0).then(|| score.to_bits());
                let have = slot.edge.map(|s| s.to_bits());
                let untouched = || {
                    prev.is_some_and(|p| p.edges.get(&pair).map(|s| s.to_bits()) == have)
                        && prev_cached == Some(cached)
                        && prev_u.is_some_and(|p| same_bins(p, hu))
                        && prev_v.is_some_and(|p| same_bins(p, hv))
                };
                if have != want && !untouched() {
                    return Err(format!(
                        "pair {pair:?}: edge {:?}, recomputed {score:?}, and the pair moved \
                         since the last tick",
                        have.map(f64::from_bits)
                    ));
                }
                cache.insert(pair, cached.clone());
            }
        }
        let cross = u.num_entities() * v.num_entities();
        if cfg.lsh.is_none() && cache.len() != cross {
            return Err(format!(
                "{} cached pairs, brute force over the live slice has {cross}",
                cache.len()
            ));
        }
        self.prev = Some(TickState { sets, cache, edges });
        Ok(())
    }
}

/// Holds one side's rings, parked and active, to the counts and slot
/// owners of rings replayed from the live events in stream order; each
/// ring's signature to the dominating cells of its own counts, summed
/// per cell by a plain aggregate, and its band buckets to the hashes of
/// that signature; and the bucket partitions to exactly the active
/// entities, each under its ring's buckets. The signature is never
/// taken from the replay: a replay runs the same incremental rule as
/// the engine, so it would repeat a wrong one rather than catch it.
/// Returns how many rings it checked.
fn check_rings<'e>(
    engine: &StreamEngine,
    side: Side,
    live: impl Iterator<Item = &'e StreamEvent>,
) -> Result<u64, String> {
    let Some((geom, partitions)) = engine.lsh_state() else {
        return Ok(0);
    };
    let (shards, ..) = engine.windowed_state();
    let (scheme, cfg) = (engine.scheme().expect("checked"), engine.config());
    let mut binned = BinnedColumns::default();
    for ev in live {
        binned.push(ev, scheme, cfg.slim.spatial_level, Some(geom.spatial_level));
    }
    let mut replayed = ShardRings::default();
    for i in 0..binned.len() {
        let b = binned.get(i);
        replayed.add(geom, side, b.entity, b.w, b.lsh_cells);
    }
    let want: BTreeMap<EntityId, RingDump> = rings_of(&replayed, side).collect();
    let have: BTreeMap<EntityId, RingDump> = shards
        .iter()
        .flat_map(|s| rings_of(&s.rings, side))
        .collect();
    let replays = |(e, d): (&EntityId, &RingDump)| same_counts(geom, &d.ring, &want[e].ring);
    if !have.keys().eq(want.keys()) || !have.iter().all(replays) {
        return Err(format!(
            "{side:?} rings {have:?}, replayed from the live events {want:?}"
        ));
    }
    for (e, d) in &have {
        if let Some(why) = signature_violation(geom, &d.ring) {
            return Err(format!("{side:?} {e:?}: {why}"));
        }
    }
    // Each partition against one fed only the active entities' rings.
    let placed = |index: &BucketIndex| -> BTreeMap<EntityId, Vec<Option<u64>>> {
        let mine = index
            .placements()
            .filter(|&((s, _), _)| s == side.index_side());
        mine.map(|((_, e), bands)| (e, bands.to_vec())).collect()
    };
    for (p, partition) in partitions.iter().enumerate() {
        let n = partitions.len() as u64;
        let mut want =
            BucketIndex::partitioned(geom.bands, geom.rows, geom.num_buckets, p as u64, n);
        for (&e, d) in &have {
            if shards[entity_shard(side, e, shards.len())].active[side.idx()].contains(&e) {
                want.upsert_hashed(side.index_side(), e, &d.ring.buckets);
            }
        }
        if placed(partition) != placed(&want) {
            return Err(format!(
                "{side:?} bucket partition {p} places {:?}, the active rings {:?}",
                placed(partition),
                placed(&want)
            ));
        }
    }
    Ok(have.len() as u64)
}

/// Entity ids, sorted.
fn sorted(ids: impl Iterator<Item = EntityId>) -> Vec<EntityId> {
    let mut ids: Vec<EntityId> = ids.collect();
    ids.sort_unstable();
    ids
}

/// One side's rings by entity, borrowed.
fn rings_of(rings: &ShardRings, side: Side) -> impl Iterator<Item = (EntityId, RingDump<'_>)> {
    rings
        .export()
        .filter(move |d| d.side == side)
        .map(|d| (d.entity, d))
}

/// Same counts; the same owner for every slot that holds counts. A slot
/// whose counts all expired keeps its last owner, which only refuses
/// events older than that owner's span — events the expiry horizon
/// already drops — so an empty slot's owner is free.
fn same_counts(geom: &LshGeometry, a: &SpanRing, b: &SpanRing) -> bool {
    let mut held = a.counts.keys().map(|&(_, _, w)| geom.slot_of(w));
    a.counts == b.counts && held.all(|slot| a.owners[slot] == b.owners[slot])
}

/// Why `ring`'s signature is not the dominating cells of its counts, or
/// its band buckets not that signature's (`None` when both hold). Each
/// slot's cell totals are summed in a map; the slot's cell is the one
/// with the highest total, ties to the smallest id, `None` for a slot
/// without counts.
fn signature_violation(geom: &LshGeometry, ring: &SpanRing) -> Option<String> {
    let mut totals: BTreeMap<(usize, geocell::CellId), u32> = BTreeMap::new();
    for (&(_, cell, w), &n) in &ring.counts {
        *totals.entry((geom.slot_of(w), cell)).or_insert(0) += n;
    }
    let sig: Vec<Option<geocell::CellId>> = (0..geom.spans)
        .map(|slot| {
            let cells = totals.range((slot, geocell::CellId::from_u64(1))..);
            let cells = cells.take_while(|(&(s, _), _)| s == slot);
            // Cells ascend, so the first with the highest total wins.
            let best = cells.fold(None, |best, (&(_, cell), &n)| match best {
                Some((_, most)) if most >= n => best,
                _ => Some((cell, n)),
            });
            best.map(|(cell, _)| cell)
        })
        .collect();
    if ring.sig != sig {
        return Some(format!(
            "signature {:?}, the counts dominate as {sig:?}",
            ring.sig
        ));
    }
    let hashed = slim_lsh::signature_buckets(
        &slim_lsh::Signature {
            entity: EntityId(0),
            cells: sig,
        },
        geom.bands,
        geom.rows,
        geom.num_buckets,
    );
    (ring.buckets != hashed).then(|| {
        format!(
            "band buckets {:?}, the signature hashes to {hashed:?}",
            ring.buckets
        )
    })
}

/// Same windows, same bins in each.
fn same_bins(a: EntityView<'_>, b: EntityView<'_>) -> bool {
    (a.wins, a.cells, a.counts) == (b.wins, b.cells, b.counts)
}

/// A manually advanced monotone clock for rate-control tests. Cloning
/// shares the underlying time, so a test can hold one handle while the
/// source owns another.
#[derive(Debug, Clone, Default)]
pub struct VirtualClock {
    now_ns: Arc<AtomicU64>,
}

impl VirtualClock {
    /// A clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock by `ns` nanoseconds.
    pub fn advance_ns(&self, ns: u64) {
        self.now_ns.fetch_add(ns, Ordering::SeqCst);
    }

    /// Advances the clock by `ms` milliseconds.
    pub fn advance_ms(&self, ms: u64) {
        self.advance_ns(ms * 1_000_000);
    }
}

impl Clock for VirtualClock {
    fn now_ns(&self) -> u64 {
        self.now_ns.load(Ordering::SeqCst)
    }
}

/// Out-of-order tolerance of every scripted delivery: each arrival is
/// displaced by less than this, so none is ever late.
const LAG_SECS: i64 = 2_000;

/// Checkpoint cadence of a killed run, in consumed events.
const CHECKPOINT_EVERY: u64 = 12;

/// SplitMix64: a [`Case`] and its variations are functions of one seed,
/// so a failure reproduces from the seed it names.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len() as u64) as usize]
    }

    fn one_in(&mut self, n: u64) -> bool {
        self.below(n) == 0
    }
}

/// How a direct run cuts the stream into [`StreamEngine::ingest_batch`]
/// calls. All but [`Chunks::Prime`] go through a [`RecomputeOracle`],
/// which cuts them again at every tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Chunks {
    /// One event per call.
    One,
    /// 37 events per call, fed as they are, so ticks and expiry fall
    /// inside calls.
    Prime,
    /// `refresh_every` events per call.
    Tick,
    /// The whole stream in one call.
    Whole,
}

/// How a run's events reach the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// [`StreamEngine::ingest_batch`] from the calling thread.
    Direct(Chunks),
    /// One [`ScriptedSource`] through [`StreamEngine::drive`]: batches of
    /// 1–16 with stalls, each arrival displaced by less than the lag.
    Source {
        /// Seeds the script.
        seed: u64,
    },
    /// [`ScriptedConnections`] through [`StreamEngine::drive_fan_in`]:
    /// time-contiguous stages, each dealt to its connections, which
    /// deliver like a source and some of which die after their last event.
    FanIn {
        /// Stages, each joining after the previous one has left.
        stages: usize,
        /// Connections per stage.
        connections: usize,
        /// Seeds the deal and the scripts.
        seed: u64,
    },
}

/// What a crash does to the newest checkpoint written before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Damage {
    /// Left intact.
    None,
    /// Truncated mid-write.
    Torn,
    /// One bit flipped under an intact length.
    BitFlip,
}

/// A [`FaultPlan`] kill, then recovery from the checkpoint directory and a
/// resumed drive over the same source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Kill {
    /// Events accepted before the crash.
    pub at: u64,
    /// What the crash does to the newest checkpoint.
    pub damage: Damage,
    /// Shards and workers of the recovering engine.
    pub recover_as: (usize, usize),
}

/// One way to run a [`Case`]. Every variation must observe exactly what
/// [`Variation::reference`] observes — links, updates, deterministic
/// [`crate::StreamStats`], every published epoch and `finalize()` —
/// except that a `watermark` run ticks where its frontier seals windows
/// and is held to a replay of the same prefixes instead, and a killed
/// run to the same variation unbroken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Variation {
    /// Engine shards.
    pub shards: usize,
    /// Pool workers.
    pub workers: usize,
    /// How the events arrive.
    pub delivery: Delivery,
    /// A drive ticks under [`crate::TickPolicy::Watermark`] instead of
    /// every `refresh_every` events.
    pub watermark: bool,
    /// A crash and recovery ([`Delivery::Source`] only).
    pub kill: Option<Kill>,
    /// `None`: telemetry off. `Some(n)`: on, and a drive emits a metrics
    /// snapshot every `n` delivered events (`0`: never).
    pub telemetry: Option<u64>,
    /// Threads loading the epoch pointer throughout the run.
    pub readers: usize,
}

impl Variation {
    /// One shard, one worker, the whole stream in one chunk, telemetry
    /// off, nothing else.
    pub fn reference() -> Self {
        Self {
            shards: 1,
            workers: 1,
            delivery: Delivery::Direct(Chunks::Whole),
            watermark: false,
            kill: None,
            telemetry: None,
            readers: 0,
        }
    }
}

/// Everything observable about one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// Every link update, through a last refresh after the stream.
    pub updates: Vec<LinkUpdate>,
    /// Every published epoch; a recovered run's are the crashed run's up
    /// to the checkpoint, then its own.
    pub epochs: Vec<LinkSnapshot>,
    /// The links served after the last refresh.
    pub served: Vec<Edge>,
    /// The counters; equality covers the deterministic ones.
    pub stats: StreamStats,
    /// The scoring counters.
    pub scoring: LinkageStats,
    /// Candidate pairs tracked at the end.
    pub candidate_pairs: usize,
    /// `finalize()`'s links.
    pub finalized: Vec<Edge>,
}

impl Observation {
    /// The first field, in that order, where `self` differs from `want`,
    /// with both values.
    pub fn first_difference(&self, want: &Observation) -> Option<String> {
        let (have, wanted) = (self.stats.rows(), want.stats.rows());
        let stats = have.iter().zip(&wanted).find(|((_, class, a), (_, _, b))| {
            *class == crate::engine::StatClass::Deterministic && a != b
        });
        let differs =
            |name: &str, a: &dyn Debug, b: &dyn Debug| format!("{name}: {a:?}, want {b:?}");
        entry_difference("updates", &self.updates, &want.updates)
            .or_else(|| entry_difference("epochs", &self.epochs, &want.epochs))
            .or_else(|| entry_difference("served", &self.served, &want.served))
            .or_else(|| {
                stats.map(|((name, _, a), (_, _, b))| differs(&format!("stats.{name}"), a, b))
            })
            .or_else(|| {
                (self.scoring != want.scoring)
                    .then(|| differs("scoring", &self.scoring, &want.scoring))
            })
            .or_else(|| {
                let (a, b) = (self.candidate_pairs, want.candidate_pairs);
                (a != b).then(|| differs("candidate_pairs", &a, &b))
            })
            .or_else(|| entry_difference("finalized", &self.finalized, &want.finalized))
    }
}

/// The first entry where `have` and `want` differ, or their lengths.
fn entry_difference<T: PartialEq + Debug>(name: &str, have: &[T], want: &[T]) -> Option<String> {
    match have.iter().zip(want).position(|(a, b)| a != b) {
        Some(i) => Some(format!("{name}[{i}]: {:?}, want {:?}", have[i], want[i])),
        None => (have.len() != want.len())
            .then(|| format!("{name}: {} entries, want {}", have.len(), want.len())),
    }
}

/// One event stream under one engine configuration: the thing every
/// [`Variation`] must answer identically.
#[derive(Debug, Clone, PartialEq)]
pub struct Case {
    /// The engine configuration (shards, workers and telemetry are the
    /// variation's).
    pub cfg: StreamConfig,
    /// The stream in the order the engine accepts it.
    pub events: Vec<StreamEvent>,
    /// `events` is in canonical `(time, side, entity)` order with unique
    /// keys — the order a drive's reorder buffer restores — so sources
    /// may deliver it.
    pub canonical: bool,
}

impl Case {
    /// The case `seed` draws. Entities orbit one of three regional
    /// anchors, so some cross-side pairs link and others never meet; one
    /// record in five is a region (several bins). Half the streams are
    /// canonical; the others advance through ~33 windows of 900 s, each
    /// event lagging its slot by up to ~3 windows and one in ten by up to
    /// half the span — out of order, and late for a sliding window. A
    /// quarter run LSH. With 8–24 entities around the min-records filter
    /// and an 8- or 16-window sliding window, demotion, re-activation,
    /// eviction to empty and arena compaction all happen.
    pub fn sample(seed: u64) -> Case {
        let mut d = Draw(seed);
        let canonical = d.one_in(2);
        let entities = d.pick(&[8, 10, 24]);
        let n = match entities {
            24 => 300 + d.below(500),
            _ => 40 + d.below(260),
        };
        let span = 30_000;
        let mut events: Vec<StreamEvent> = (0..n)
            .map(|k| {
                let side = d.pick(&[Side::Left, Side::Right]);
                let entity = d.below(entities);
                let jitter = d.below(1_000) as f64 * 1e-5;
                let t = match (canonical, d.below(span)) {
                    (true, t) => t,
                    (false, lag) if lag % 10 == 0 => (k * span / n).saturating_sub(lag / 2),
                    (false, lag) => (k * span / n).saturating_sub(lag / 10),
                };
                let region = (entity % 3) as f64;
                let at = LatLng::from_degrees(
                    -20.0 + 18.0 * region + jitter,
                    -100.0 + 40.0 * region + 100.0 * jitter,
                );
                let mut ev = StreamEvent::new(side, EntityId(entity), at, Timestamp(t as i64));
                if d.one_in(5) {
                    ev.accuracy_m = 2_000.0;
                }
                ev
            })
            .collect();
        if canonical {
            events.sort_by_key(|ev| (ev.time, ev.side, ev.entity));
            events.dedup_by_key(|ev| (ev.time, ev.side, ev.entity));
        }
        let lsh = d.one_in(4).then(ring);
        let cfg = StreamConfig {
            // The ring covers 8 windows, so an LSH window can hold no more.
            window_capacity: match lsh {
                Some(_) => Some(8),
                None => d.pick(&[Some(8), Some(16), None]),
            },
            refresh_every: d.pick(&[23, 31, 97]),
            slim: slim_core::SlimConfig {
                min_records: 2,
                ..slim_core::SlimConfig::default()
            },
            lsh,
            ..StreamConfig::default()
        };
        Case {
            cfg,
            events,
            canonical,
        }
    }

    /// The first case [`Case::sample`] draws from `seed` on that `keep`
    /// admits.
    pub fn sample_where(seed: u64, keep: impl Fn(&Case) -> bool) -> Case {
        let mut draws = (0..).map(|k| Case::sample(seed.wrapping_add(k)));
        draws.find(keep).expect("some seed admits a case")
    }

    /// This case under the LSH discovery a sampled LSH case runs, with
    /// the 8-window sliding window its ring covers.
    pub fn under_lsh(mut self) -> Case {
        (self.cfg.lsh, self.cfg.window_capacity) = (Some(ring()), Some(8));
        self
    }

    /// A fixed linkable workload: six co-located left/right pairs
    /// recording in each of `windows` windows, canonical, under an
    /// unbounded window with a tick every 23 events.
    pub fn fixed(windows: i64) -> Case {
        let mut events = Vec::new();
        for k in 0..windows {
            for e in 0..6u64 {
                let at = LatLng::from_degrees(5.0 + 7.0 * e as f64, -100.0 + 9.0 * e as f64);
                let t = k * 900 + 10 * e as i64;
                events.push(StreamEvent::new(Side::Left, EntityId(e), at, Timestamp(t)));
                events.push(StreamEvent::new(
                    Side::Right,
                    EntityId(100 + e),
                    at,
                    Timestamp(t + 400),
                ));
            }
        }
        events.sort_by_key(|e| (e.time, e.side, e.entity));
        let cfg = StreamConfig {
            refresh_every: 23,
            slim: slim_core::SlimConfig {
                min_records: 2,
                ..slim_core::SlimConfig::default()
            },
            ..StreamConfig::default()
        };
        Case {
            cfg,
            events,
            canonical: true,
        }
    }

    /// What one run of `v` observes, checked on the way as
    /// [`Case::check`] checks it.
    pub fn observe(&self, v: &Variation) -> Result<Observation, String> {
        self.run(v, &Arc::default(), &mut OracleCoverage::default())
    }

    /// `n` variations this case admits, drawn from `seed`. LSH runs vary
    /// shards, workers and telemetry only: candidate discovery follows
    /// `ingest_batch` boundaries. A stream out of canonical order is
    /// delivered directly: a drive would reorder it.
    pub fn variations(&self, seed: u64, n: usize) -> Vec<Variation> {
        let mut d = Draw(!seed);
        (0..n).map(|_| self.variation(&mut d)).collect()
    }

    fn variation(&self, d: &mut Draw) -> Variation {
        let mut v = Variation {
            shards: d.pick(&[1, 2, 3, 4, 7]),
            workers: d.pick(&[1, 2, 3, 4]),
            telemetry: d.pick(&[None, Some(0)]),
            ..Variation::reference()
        };
        if self.cfg.lsh.is_some() {
            return v;
        }
        v.readers = d.pick(&[0, 0, 1, 2]);
        v.delivery = match d.below(if self.canonical { 3 } else { 1 }) {
            0 => {
                Delivery::Direct(d.pick(&[Chunks::One, Chunks::Prime, Chunks::Tick, Chunks::Whole]))
            }
            1 => Delivery::Source { seed: d.next() },
            _ => Delivery::FanIn {
                stages: 1 + d.below(3) as usize,
                connections: 1 + d.below(4) as usize,
                seed: d.next(),
            },
        };
        if matches!(v.delivery, Delivery::Direct(_)) {
            return v;
        }
        v.watermark = d.one_in(3);
        v.telemetry = d.pick(&[None, Some(0), Some(7), Some(23)]);
        let n = self.events.len() as u64;
        if matches!(v.delivery, Delivery::Source { .. }) && n > CHECKPOINT_EVERY + 1 && !d.one_in(3)
        {
            let at = CHECKPOINT_EVERY + d.below(n - CHECKPOINT_EVERY);
            // Falling back past a damaged checkpoint needs an older one.
            let damage = match at > 2 * CHECKPOINT_EVERY {
                true => d.pick(&[Damage::None, Damage::Torn, Damage::BitFlip]),
                false => Damage::None,
            };
            let recover_as = (d.pick(&[1, 2, 4]), d.pick(&[1, 2, 4]));
            v.kill = Some(Kill {
                at,
                damage,
                recover_as,
            });
        }
        v
    }

    /// Runs every variation, holds each to the reference, and returns
    /// what the runs, the reference's included, exercised. An error
    /// names the variation and the first field that differed.
    pub fn check(&self, variations: &[Variation]) -> Result<OracleCoverage, String> {
        // The direct runs' oracles rebuild the same live slices.
        let rebuilds = Arc::default();
        let (reference, mut cover) = self.reference(&rebuilds)?;
        let mut unbroken = Vec::new();
        for v in variations {
            self.held(v, &reference, &rebuilds, &mut unbroken, &mut cover)?;
        }
        Ok(cover)
    }

    /// The one-shard, one-worker, whole-stream run and what it
    /// exercised. It runs once per process for equal cases, so the
    /// properties of a suite that draw the same seeds share it.
    fn reference(&self, rebuilds: &Arc<Rebuilds>) -> Result<(Observation, OracleCoverage), String> {
        type Cell = Arc<OnceLock<Result<(Observation, OracleCoverage), String>>>;
        static RUN: Mutex<Vec<(Case, Cell)>> = Mutex::new(Vec::new());
        let cell = {
            let mut run = RUN.lock().expect("reference lock");
            match run.iter().find(|(case, _)| case == self) {
                Some((_, cell)) => Arc::clone(cell),
                None => {
                    run.push((self.clone(), Cell::default()));
                    Arc::clone(&run[run.len() - 1].1)
                }
            }
        };
        let reference = cell.get_or_init(|| {
            let mut cover = OracleCoverage::default();
            let have = self.run(&Variation::reference(), rebuilds, &mut cover)?;
            well_formed(&have.epochs)?;
            Ok((have, cover))
        });
        reference.clone().map_err(|e| format!("reference run: {e}"))
    }

    /// Runs `v` and holds it to `reference`; returns what it observed.
    /// `unbroken` keeps the watermark drives held so far, which the
    /// kills of the same drive are held to.
    fn held(
        &self,
        v: &Variation,
        reference: &Observation,
        rebuilds: &Arc<Rebuilds>,
        unbroken: &mut Vec<(Variation, Observation)>,
        cover: &mut OracleCoverage,
    ) -> Result<Observation, String> {
        let have = self
            .run(v, rebuilds, cover)
            .map_err(|e| format!("{v:?}: {e}"))?;
        let mut want = match (v.kill, v.watermark) {
            // Tick for tick, a recovered drive is the same drive unbroken,
            // which under the event-count policy is the reference.
            (Some(_), true) => {
                let drive = Variation { kill: None, ..*v };
                match unbroken.iter().find(|(u, _)| *u == drive) {
                    Some((_, want)) => want.clone(),
                    None => {
                        let want = self.held(&drive, reference, rebuilds, unbroken, cover)?;
                        unbroken.push((drive, want.clone()));
                        want
                    }
                }
            }
            (None, true) => {
                let diff = entry_difference("finalized", &have.finalized, &reference.finalized);
                diff.map_or(Ok(()), |e| Err(format!("{v:?}: {e}")))?;
                self.replay_at(&have.epochs)?
            }
            (_, false) => reference.clone(),
        };
        // Checked against the script by the drive itself.
        want.stats.connections_served = have.stats.connections_served;
        if v.kill.is_some() {
            // The crashed drive's updates died with it.
            want.updates
                .drain(..want.updates.len().saturating_sub(have.updates.len()));
        }
        match have.first_difference(&want) {
            Some(diff) => Err(format!("{v:?}: {diff}")),
            None => Ok(have),
        }
    }

    /// The reference a run with its own tick schedule is held to: one
    /// shard and one worker fed the stream up to each of its epochs'
    /// event counts and refreshed there. No oracle: a first check after
    /// unchecked ticks could not tell a lazily carried contribution from
    /// a wrong one, and one at every epoch would double the cost of a
    /// watermark run; the reference's oracle holds the same engine over
    /// the same events to recomputation at every tick.
    fn replay_at(&self, epochs: &[LinkSnapshot]) -> Result<Observation, String> {
        let mut engine = StreamEngine::new(StreamConfig {
            refresh_every: 0,
            telemetry: false,
            ..self.cfg
        })?;
        let log = EpochLog::new();
        engine.set_epoch_log(log.clone());
        let (mut updates, mut fed) = (Vec::new(), 0);
        for snap in epochs {
            let Some(prefix) = self.events.get(fed..snap.events as usize) else {
                return Err(format!(
                    "epoch {} ends at event {}",
                    snap.epoch, snap.events
                ));
            };
            updates.extend(engine.ingest_batch(prefix));
            updates.extend(engine.refresh());
            fed = snap.events as usize;
        }
        let epochs = log.collected().iter().map(|s| (**s).clone()).collect();
        observe(engine, updates, epochs)
    }

    /// One run of `v`: fed, recovered if it is killed, refreshed once
    /// more, and checked on the way — the oracle in direct runs, the
    /// readers' loads, the snapshot cadence, the checkpoint directory.
    fn run(
        &self,
        v: &Variation,
        rebuilds: &Arc<Rebuilds>,
        cover: &mut OracleCoverage,
    ) -> Result<Observation, String> {
        let mut cfg = StreamConfig {
            num_shards: v.shards,
            num_workers: v.workers,
            telemetry: v.telemetry.is_some(),
            ..self.cfg
        };
        let opts = DriveOptions {
            // Small enough that backpressure occurs mid-run.
            queue_cap: 7,
            source_batch: 13,
            tick_policy: match v.watermark {
                true => TickPolicy::Watermark {
                    max_lag_secs: LAG_SECS,
                },
                false => TickPolicy::EveryN(cfg.refresh_every),
            },
            max_lag_secs: LAG_SECS,
            metrics_every: v.telemetry.unwrap_or(0),
            ..DriveOptions::default()
        };
        let mut engine = StreamEngine::new(cfg)?;
        let (mut log, sink) = (EpochLog::new(), VecSink::new());
        engine.set_epoch_log(log.clone());
        engine.set_metrics_sink(Box::new(sink.clone()));
        let mut oracle = RecomputeOracle::sharing(rebuilds);
        let mut feed = |e: &mut StreamEngine, cover: &mut OracleCoverage| {
            self.feed(e, v, &opts, &mut oracle, cover)
        };
        let (mut epochs, mut sightings, mut dir) = (Vec::new(), Vec::new(), None);
        if let Some(kill) = v.kill {
            let ckpt = TempDir::new();
            engine.set_checkpoint_policy(ckpt.0.clone(), CHECKPOINT_EVERY, 2);
            engine.set_fault_plan(FaultPlan {
                kill_at_event: Some(kill.at),
                torn_write_after: (kill.damage == Damage::Torn).then_some(97),
                bit_flip_at: (kill.damage == Damage::BitFlip).then_some(41),
            });
            let (crash, seen) = read_while(&mut engine, v.readers, |e| feed(e, cover));
            sightings.extend(seen);
            match crash {
                Err(e) if e.contains("killed at event") => {}
                Err(e) => return Err(format!("the killed drive failed otherwise: {e}")),
                Ok(_) => return Err("the fault plan did not kill the drive".into()),
            }
            let crashed = log.collected();
            drop(engine);
            if temp_files(&ckpt.0) > 0 {
                return Err("a completed checkpoint write left a temp file".into());
            }
            // What a SIGKILL mid-write leaves: recovery must not count it,
            // and the resumed drive's first checkpoint must sweep it.
            let stale = ckpt.0.join(format!("ckpt-{:020}.slim.tmp", kill.at));
            std::fs::write(stale, b"SLIMCKPT torn").map_err(|e| e.to_string())?;
            (cfg.num_shards, cfg.num_workers) = kill.recover_as;
            engine = StreamEngine::recover(cfg, &ckpt.0)?;
            let (woke, rejected) = (
                engine.stats().snapshots_published,
                engine.stats().checkpoints_rejected,
            );
            if (rejected > 0) != (kill.damage != Damage::None) {
                return Err(format!("recovery rejected {rejected} checkpoints"));
            }
            let Some(before) = crashed.get(..woke as usize) else {
                return Err(format!(
                    "recovered at epoch {woke}, {} were published",
                    crashed.len()
                ));
            };
            epochs.extend(before.iter().map(|s| (**s).clone()));
            cover.recoveries += 1;
            cover.checkpoints_rejected += rejected;
            engine.set_checkpoint_policy(ckpt.0.clone(), CHECKPOINT_EVERY, 2);
            log = EpochLog::new();
            engine.set_epoch_log(log.clone());
            engine.set_metrics_sink(Box::new(sink.clone()));
            dir = Some((ckpt, engine.stats().checkpoints_written));
        }
        let (fed, seen) = read_while(&mut engine, v.readers, |e| feed(e, cover));
        sightings.extend(seen);
        let mut updates = fed?;
        updates.extend(match v.delivery {
            Delivery::Direct(Chunks::Prime) | Delivery::Source { .. } | Delivery::FanIn { .. } => {
                engine.refresh()
            }
            Delivery::Direct(_) => oracle.refresh(&mut engine)?,
        });
        cover.add(&oracle.coverage());
        if let Some((ckpt, written)) = dir {
            if engine.stats().checkpoints_written > written && temp_files(&ckpt.0) > 0 {
                return Err("a stale temp file outlived a checkpoint".into());
            }
        }
        epochs.extend(log.collected().iter().map(|s| (**s).clone()));
        for seen in sightings {
            if !seen.windows(2).all(|w| w[0].epoch < w[1].epoch) {
                return Err("a reader loaded epochs out of order".into());
            }
            for snap in &seen {
                // Before the first tick the pointer serves the placeholder.
                let published = match snap.epoch {
                    0 => **snap == LinkSnapshot::empty(),
                    n => epochs.get(n as usize - 1) == Some(&**snap),
                };
                if !published {
                    return Err(format!("a reader loaded an unpublished {snap:?}"));
                }
                cover.reader_loads += u64::from(snap.epoch > 0);
            }
        }
        // The crashed and the resumed drive emit into the one sink.
        let snaps = sink.collected();
        match (v.telemetry, v.kill) {
            (Some(every @ 1..), None) => {
                let counts = snaps.iter().map(|s| s.counter("events").unwrap_or(0));
                let rising = counts.clone().zip(counts.skip(1)).all(|(a, b)| a <= b);
                let dense = snaps.iter().enumerate().all(|(i, s)| s.seq == i as u64);
                if snaps.len() as u64 != engine.stats().events / every || !dense || !rising {
                    return Err(format!("{} snapshots at cadence {every}", snaps.len()));
                }
                cover.snapshots += snaps.len() as u64;
            }
            (None | Some(0), _) if !snaps.is_empty() => {
                return Err(format!("{} snapshots with no cadence", snaps.len()));
            }
            _ => {}
        }
        let stats = engine.stats();
        cover.sharded_runs += u64::from(v.shards > 1);
        cover.chunked_runs += u64::from(matches!(
            v.delivery,
            Delivery::Direct(Chunks::One | Chunks::Prime)
        ));
        cover.evicted_windows += stats.evicted_windows;
        cover.demoted_entities += stats.demoted_entities;
        cover.late_dropped += stats.late_dropped;
        cover.arena_compactions += stats.arena_compactions;
        cover.steal_events += stats.steal_events;
        observe(engine, updates, epochs)
    }

    /// The stream as [`Delivery::FanIn`] scripts it: `stages`
    /// time-contiguous stages, each dealt to `connections` connections
    /// that deliver like a source, one in seven dying after its last
    /// event — `tier[stage][connection]`, drawn from `seed`.
    pub fn fan_in(
        &self,
        stages: usize,
        connections: usize,
        seed: u64,
    ) -> Vec<Vec<Vec<ScriptStep>>> {
        let (mut d, len) = (Draw(seed), self.events.len().div_ceil(stages).max(1));
        let mut tier = Vec::new();
        for stage in self.events.chunks(len) {
            let mut dealt = vec![Vec::new(); connections];
            for ev in stage {
                dealt[d.below(connections as u64) as usize].push(*ev);
            }
            let scripts = dealt.into_iter().map(|mine| {
                let mut steps = jittered(&mine, 8, &mut d);
                // Deaths after the last event lose nothing.
                if d.one_in(7) {
                    steps.push(ScriptStep::Error("scripted death".into()));
                }
                steps
            });
            tier.push(scripts.collect());
        }
        tier
    }

    /// Delivers the stream to `engine` as `v` says.
    fn feed(
        &self,
        engine: &mut StreamEngine,
        v: &Variation,
        opts: &DriveOptions,
        oracle: &mut RecomputeOracle,
        cover: &mut OracleCoverage,
    ) -> Result<Vec<LinkUpdate>, String> {
        let (report, connections) = match v.delivery {
            Delivery::Direct(chunks) => {
                let len = match chunks {
                    Chunks::One => 1,
                    Chunks::Prime => 37,
                    Chunks::Tick => self.cfg.refresh_every,
                    Chunks::Whole => self.events.len(),
                };
                let mut updates = Vec::new();
                for chunk in self.events.chunks(len.max(1)) {
                    updates.extend(match chunks {
                        Chunks::Prime => engine.ingest_batch(chunk),
                        _ => oracle.ingest(engine, chunk)?,
                    });
                }
                return Ok(updates);
            }
            Delivery::Source { seed } => {
                let steps = jittered(&self.events, 16, &mut Draw(seed));
                (engine.drive(ScriptedSource::new(steps), opts)?, 1)
            }
            Delivery::FanIn {
                stages,
                connections,
                seed,
            } => {
                let tier = self.fan_in(stages, connections, seed);
                for (s, stage) in tier.iter().enumerate() {
                    let died = stage
                        .iter()
                        .filter(|c| matches!(c.last(), Some(ScriptStep::Error(_))));
                    let (joined, died) = (stage.len() as u64, died.count() as u64);
                    cover.joins += joined;
                    cover.staged_joins += if s > 0 { joined } else { 0 };
                    cover.deaths += died;
                    cover.leaves += joined - died;
                }
                let joined = tier.iter().map(Vec::len).sum::<usize>() as u64;
                (
                    engine.drive_fan_in(ScriptedConnections::new(tier), opts)?,
                    joined,
                )
            }
        };
        if report.connections != connections {
            return Err(format!(
                "{} connections joined, {connections} were scripted",
                report.connections
            ));
        }
        cover.policy_ticks += report.policy_ticks;
        Ok(report.updates)
    }
}

/// The LSH discovery of sampled cases: an 8-window ring, one span per
/// window, level-10 cells.
fn ring() -> StreamLshConfig {
    StreamLshConfig {
        spans: 8,
        base: slim_lsh::LshConfig {
            step_windows: 1,
            spatial_level: 10,
            ..slim_lsh::LshConfig::default()
        },
    }
}

/// `events` as one connection's script: each displaced by less than the
/// lag, in batches of 1 to `batch`, one batch in five followed by a stall.
fn jittered(events: &[StreamEvent], batch: u64, d: &mut Draw) -> Vec<ScriptStep> {
    let mut order: Vec<(i64, usize)> = (0..events.len())
        .map(|i| (events[i].time.secs() + d.below(LAG_SECS as u64) as i64, i))
        .collect();
    order.sort_unstable();
    let mut steps = Vec::new();
    let mut rest = &order[..];
    while !rest.is_empty() {
        let (now, later) = rest.split_at((1 + d.below(batch) as usize).min(rest.len()));
        steps.push(ScriptStep::Batch(
            now.iter().map(|&(_, i)| events[i]).collect(),
        ));
        if d.one_in(5) {
            steps.push(ScriptStep::Stall(1 + d.below(3) as u32));
        }
        rest = later;
    }
    steps
}

/// Runs `work` on `engine` while `readers` threads load its epoch
/// pointer; returns what each reader loaded, consecutive repeats dropped.
fn read_while<T>(
    engine: &mut StreamEngine,
    readers: usize,
    work: impl FnOnce(&mut StreamEngine) -> T,
) -> (T, Vec<Vec<Arc<LinkSnapshot>>>) {
    let (pointer, stop) = (engine.epoch_pointer(), AtomicBool::new(false));
    std::thread::scope(|scope| {
        let load = || {
            let mut seen: Vec<Arc<LinkSnapshot>> = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let snap = pointer.load();
                if seen.last().map(|s| s.epoch) != Some(snap.epoch) {
                    seen.push(snap);
                }
                std::thread::yield_now();
            }
            seen
        };
        let handles: Vec<_> = (0..readers).map(|_| scope.spawn(load)).collect();
        let out = work(engine);
        stop.store(true, Ordering::Relaxed);
        let seen = handles
            .into_iter()
            .map(|h| h.join().expect("reader thread"));
        (out, seen.collect())
    })
}

/// What `engine` observably did, `updates` and `epochs` being what it
/// emitted and published.
fn observe(
    engine: StreamEngine,
    updates: Vec<LinkUpdate>,
    epochs: Vec<LinkSnapshot>,
) -> Result<Observation, String> {
    Ok(Observation {
        updates,
        epochs,
        served: engine.links().to_vec(),
        stats: *engine.stats(),
        scoring: *engine.scoring_stats(),
        candidate_pairs: engine.num_candidate_pairs(),
        finalized: engine.finalize()?.links,
    })
}

/// Why `epochs` is not a publication sequence: dense ids from 1, event
/// counts and frontiers that never go back, links heaviest-first and none
/// below its own epoch's threshold.
fn well_formed(epochs: &[LinkSnapshot]) -> Result<(), String> {
    for (i, snap) in epochs.iter().enumerate() {
        let prev = i.checked_sub(1).map(|p| &epochs[p]);
        let ordered = snap
            .links
            .windows(2)
            .all(|w| heaviest_first(&w[0], &w[1]).is_le());
        let above = snap
            .threshold
            .is_none_or(|t| snap.links.iter().all(|e| e.weight >= t));
        if snap.epoch != i as u64 + 1
            || prev.is_some_and(|p| p.events > snap.events || p.frontier > snap.frontier)
            || !ordered
            || !above
        {
            return Err(format!(
                "epoch {} of {} is malformed: {snap:?}",
                i + 1,
                epochs.len()
            ));
        }
    }
    Ok(())
}

/// A fresh checkpoint directory, removed when dropped.
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let name = format!("slim-matrix-{}-{n}", std::process::id());
        Self(std::env::temp_dir().join(name))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// How many `*.tmp` files `dir` holds.
fn temp_files(dir: &Path) -> usize {
    let entries = std::fs::read_dir(dir).into_iter().flatten().flatten();
    entries
        .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Side;
    use geocell::LatLng;
    use slim_core::{EntityId, Timestamp};

    fn ev(t: i64) -> StreamEvent {
        StreamEvent::new(
            Side::Left,
            EntityId(1),
            LatLng::from_degrees(0.0, 0.0),
            Timestamp(t),
        )
    }

    #[test]
    fn script_replays_batches_stalls_and_eof() {
        let mut src = ScriptedSource::new(vec![
            ScriptStep::Batch(vec![ev(1), ev(2), ev(3)]),
            ScriptStep::Stall(2),
            ScriptStep::Batch(vec![ev(4)]),
        ]);
        // A smaller `max` splits the batch; the remainder carries over.
        assert_eq!(
            src.next_batch(2).unwrap(),
            SourcePoll::Batch(vec![ev(1), ev(2)])
        );
        assert_eq!(src.next_batch(2).unwrap(), SourcePoll::Batch(vec![ev(3)]));
        assert_eq!(src.next_batch(2).unwrap(), SourcePoll::Pending);
        assert_eq!(src.next_batch(2).unwrap(), SourcePoll::Pending);
        assert_eq!(src.next_batch(2).unwrap(), SourcePoll::Batch(vec![ev(4)]));
        assert_eq!(src.next_batch(2).unwrap(), SourcePoll::End);
        assert_eq!(src.next_batch(2).unwrap(), SourcePoll::End);
    }

    #[test]
    fn scripted_error_fails_the_stream() {
        let mut src = ScriptedSource::new(vec![ScriptStep::Error("boom".into())]);
        assert_eq!(src.next_batch(1).unwrap_err(), "boom");
    }

    /// The fan-in protocol invariants the equivalence tests lean on:
    /// per-connection Join→events→Leave bracketing in channel FIFO
    /// order, all of a stage's Joins before any of its events, stage
    /// barriers (later Joins after all earlier messages), and `Error`
    /// as death churn (early Leave, remaining steps lost).
    #[test]
    fn scripted_connections_honor_the_protocol_order() {
        use crate::source::channel;

        let stage0 = vec![
            vec![
                ScriptStep::Batch(vec![ev(10), ev(20)]),
                ScriptStep::Stall(3),
                ScriptStep::Batch(vec![ev(30)]),
            ],
            vec![
                ScriptStep::Batch(vec![ev(15)]),
                ScriptStep::Error("dies".into()),
                ScriptStep::Batch(vec![ev(99)]), // never delivered
            ],
        ];
        let stage1 = vec![vec![ScriptStep::Batch(vec![ev(40)])]];
        let tier = ScriptedConnections::new(vec![stage0, stage1]);
        let (tx, rx) = channel::bounded::<ConnMessage>(8);
        let producer = std::thread::spawn(move || tier.run(tx));
        let mut msgs = Vec::new();
        let mut buf = Vec::new();
        while rx.recv_many(&mut buf, 16) {
            msgs.append(&mut buf);
        }
        producer.join().unwrap().unwrap();

        let pos = |pred: &dyn Fn(&ConnMessage) -> bool| msgs.iter().position(pred);
        let join_of = |c: u64| pos(&move |m| matches!(m, ConnMessage::Join { conn } if *conn == c));
        let leave_of =
            |c: u64| pos(&move |m| matches!(m, ConnMessage::Leave { conn, .. } if *conn == c));
        let first_event =
            pos(&|m| matches!(m, ConnMessage::Event { .. })).expect("events delivered");
        // Stage 0: both joins precede any event.
        assert!(join_of(0).unwrap() < first_event);
        assert!(join_of(1).unwrap() < first_event);
        // Stage barrier: conn 2 joins only after both stage-0 leaves.
        assert!(join_of(2).unwrap() > leave_of(0).unwrap());
        assert!(join_of(2).unwrap() > leave_of(1).unwrap());
        // Death churn: conn 1 left early, its post-error event is lost.
        let times: Vec<i64> = msgs
            .iter()
            .filter_map(|m| match m {
                ConnMessage::Event { event, .. } => Some(event.time.secs()),
                _ => None,
            })
            .collect();
        assert!(!times.contains(&99), "post-death events must be lost");
        let mut sorted = times;
        sorted.sort_unstable();
        assert_eq!(sorted, vec![10, 15, 20, 30, 40]);
    }

    #[test]
    fn virtual_clock_advances_on_demand() {
        let clock = VirtualClock::new();
        let handle = clock.clone();
        assert_eq!(clock.now_ns(), 0);
        handle.advance_ms(3);
        assert_eq!(clock.now_ns(), 3_000_000);
    }
}
