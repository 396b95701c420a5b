//! Deterministic test doubles for the ingestion front-end, shared by
//! unit tests, the integration suites (`tests/ingest_equivalence.rs`),
//! and the bench smoke paths.
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

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use slim_core::similarity::SimilarityScorer;
use slim_core::{EntityId, EntityView, HistorySet, LinkageStats, LocationDataset, WindowIdx};
use slim_lsh::BucketIndex;

use crate::adjacency::PairKey;
use crate::config::StreamConfig;
use crate::engine::{LinkUpdate, StreamEngine};
use crate::event::{Side, StreamEvent};
use crate::lsh::{LshGeometry, RingDump, ShardRings, SpanRing};
use crate::shard::{
    bin_event, entity_shard, mark_violation, CachedPair, Contribution, EngineShard, PairWindows,
};
use crate::source::channel::Sender;
use crate::source::{Clock, ConnMessage, FanIn, SourcePoll, StreamSource};

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

/// What a [`RecomputeOracle`] has seen the engine do, summed over its
/// checks — so a suite can assert that its runs were not vacuous.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleCoverage {
    /// Pair-cache checks run (one per refresh tick).
    pub ticks: u64,
    /// Entities whose history was live at one check and gone at the next.
    pub removed_entities: u64,
    /// Removed entities whose history came back.
    pub reactivated_entities: u64,
    /// Cached `(pair, window)` contributions equal to their recomputation.
    pub fresh_contributions: u64,
    /// Cached contributions carried over from an earlier tick with their
    /// window's bins unchanged — the lazily refreshed ones.
    pub carried_contributions: u64,
    /// Parked entities (below the min-records filter) whose arena bins
    /// were checked, summed over checks.
    pub parked_entities: u64,
    /// Rings checked against a replay of their live events, summed over
    /// checks.
    pub rings: u64,
}

/// The pair caches and the rebuilt histories as of the previous tick.
#[derive(Debug)]
struct TickState {
    sets: [HistorySet<'static>; 2],
    cache: HashMap<PairKey, PairWindows>,
    edges: HashMap<PairKey, f64>,
}

/// Holds an engine's windowed state to **recomputation from the events
/// it was fed**: the maintained state must be a function of the live
/// event slice, however it was reached.
///
/// Drive the engine through [`RecomputeOracle::ingest`] and
/// [`RecomputeOracle::refresh`] only. After every chunk the oracle cuts
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
    /// Events accepted since the last tick — the engine's own counter,
    /// mirrored so that chunks can end on tick boundaries.
    since_tick: usize,
    prev: Option<TickState>,
    /// Per side: entities live at the previous check, and those that
    /// were ever removed.
    live: [BTreeSet<EntityId>; 2],
    removed: [BTreeSet<EntityId>; 2],
    coverage: OracleCoverage,
}

impl RecomputeOracle {
    /// An oracle for a fresh engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// What the checks so far have covered.
    pub fn coverage(&self) -> OracleCoverage {
        self.coverage
    }

    /// Feeds `events` through [`StreamEngine::ingest_batch`], cut so
    /// that an automatic tick can only fire on a chunk's last event, and
    /// checks the engine after every chunk (pairs too when it ticked).
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
            self.check(engine, ticked)?;
        }
        Ok(updates)
    }

    /// Runs a manual tick and checks the engine after it.
    pub fn refresh(&mut self, engine: &mut StreamEngine) -> Result<Vec<LinkUpdate>, String> {
        let updates = engine.refresh();
        self.since_tick = 0;
        self.check(engine, true)?;
        Ok(updates)
    }

    fn check(&mut self, engine: &StreamEngine, ticked: bool) -> Result<(), String> {
        if engine.scheme().is_none() {
            return Ok(());
        }
        let sets = [
            self.check_side(engine, Side::Left)?,
            self.check_side(engine, Side::Right)?,
        ];
        if ticked {
            let (shards, ..) = engine.windowed_state();
            self.check_pairs(engine.config(), shards, sets)?;
        }
        Ok(())
    }

    /// Checks one side's entity sets, histories and df statistics
    /// against the rebuilt live slice, which it returns.
    fn check_side(
        &mut self,
        engine: &StreamEngine,
        side: Side,
    ) -> Result<HistorySet<'static>, String> {
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
        let mut dataset = LocationDataset::from_records(live.clone().map(StreamEvent::to_record));

        // Every live entity's bins sit in its home arena, parked or
        // active: the slice's histories built without the filter. The
        // filter then splits them into parked and active.
        let slice = HistorySet::build(&dataset, scheme, cfg.slim.spatial_level, watermark + 1);
        dataset.filter_min_records(min_records);
        let set = HistorySet::build(&dataset, scheme, cfg.slim.spatial_level, watermark + 1);
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
        Ok(set)
    }

    fn check_pairs(
        &mut self,
        cfg: &StreamConfig,
        shards: &[EngineShard],
        sets: [HistorySet<'static>; 2],
    ) -> Result<(), String> {
        self.coverage.ticks += 1;
        let scorer = SimilarityScorer::new(&cfg.slim, &sets[0], &sets[1]);
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
                let (Some(hu), Some(hv)) = (sets[0].history(pair.0), sets[1].history(pair.1))
                else {
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
                let prev_u = prev.and_then(|p| p.sets[0].history(pair.0));
                let prev_v = prev.and_then(|p| p.sets[1].history(pair.1));
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
        let cross = sets[0].num_entities() * sets[1].num_entities();
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

/// Holds one side's rings, parked and active, to rings replayed
/// from the live events in stream order, and the bucket partitions
/// to exactly the active entities, each under its ring's buckets.
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
    let mut replayed = ShardRings::default();
    for ev in live {
        let b = bin_event(ev, scheme, cfg.slim.spatial_level, Some(geom.spatial_level));
        replayed.add(geom, side, b.entity, b.w, &b.lsh_cells);
    }
    let want: BTreeMap<EntityId, RingDump> = rings_of(&replayed, side).collect();
    let have: BTreeMap<EntityId, RingDump> = shards
        .iter()
        .flat_map(|s| rings_of(&s.rings, side))
        .collect();
    let replays = |(e, d): (&EntityId, &RingDump)| same_ring(geom, &d.ring, &want[e].ring);
    if !have.keys().eq(want.keys()) || !have.iter().all(replays) {
        return Err(format!(
            "{side:?} rings {have:?}, replayed from the live events {want:?}"
        ));
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

/// Same counts, signature and band buckets; the same owner for every
/// slot that holds counts. A slot whose counts all expired keeps its
/// last owner, which only refuses events older than that owner's span —
/// events the expiry horizon already drops — so an empty slot's owner
/// is free.
fn same_ring(geom: &LshGeometry, a: &SpanRing, b: &SpanRing) -> bool {
    let mut held = a.counts.keys().map(|&(w, _)| geom.slot_of(w));
    (&a.counts, &a.sig, &a.buckets) == (&b.counts, &b.sig, &b.buckets)
        && held.all(|slot| a.owners[slot] == b.owners[slot])
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
