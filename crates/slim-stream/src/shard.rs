//! One shard of the engine state.
//!
//! The engine partitions every piece of per-entity and per-pair state by
//! a deterministic entity hash ([`entity_shard`]): a shard owns the
//! min-records buffers (with their window index), mobility histories,
//! dirty marks, LSH rings, and window membership of the entities homed
//! on it, plus the cached `(pair, window)` score contributions and the
//! entity→pair [`AdjacencyIndex`] of the pairs it owns (**owner = home
//! shard of the pair's Left entity**).
//!
//! Shard methods are designed for the engine's phase structure: during a
//! parallel phase each shard mutates only its own state and *describes*
//! every cross-shard effect (df/idf adjustments, changed LSH signatures,
//! activations, rebirths) in an effects value the engine folds in at the
//! next merge barrier. Every effect is either commutative (integer
//! deltas) or coalesced into ordered sets, so the barrier result — and
//! with it the whole engine — is bit-identical for any shard count.
//!
//! A cached pair ([`CachedPair`]) is its window-sorted contributions
//! plus a [`FoldMark`]: the partial left fold of a prefix of them. A
//! rescore whose patch starts at or above the mark resumes the score's
//! fold there ([`fold_patched`]) — the same additions in the same order
//! as the full fold, so the same bits — and a visit on a dense stream
//! reads the few windows it rescores instead of the pair's whole cache.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use geocell::CellId;
use slim_core::arena::{EntityView, HistoryArena};
use slim_core::df::DfDelta;
use slim_core::fasthash::{FastMap, FastSet};
use slim_core::history::record_cells;
use slim_core::{EntityId, WindowIdx, WindowScheme};

use crate::adjacency::{AdjacencyIndex, PairKey};
use crate::event::{Side, StreamEvent};
use crate::lsh::{LshGeometry, ShardRings};

/// An event with its temporal/spatial binning done — the unit of work
/// the sharded ingest path precomputes on worker threads.
#[derive(Debug, Clone)]
pub(crate) struct BinnedEvent {
    pub(crate) side: Side,
    pub(crate) entity: EntityId,
    pub(crate) w: WindowIdx,
    /// `record_cells` output at the similarity spatial level.
    pub(crate) cells: Vec<CellId>,
    /// `record_cells` output at the LSH spatial level (empty when LSH
    /// is disabled).
    pub(crate) lsh_cells: Vec<CellId>,
}

/// Bins one event: the trigonometry-heavy part of ingestion, safe to
/// run on any worker thread.
pub(crate) fn bin_event(
    ev: &StreamEvent,
    scheme: &WindowScheme,
    level: u8,
    lsh_level: Option<u8>,
) -> BinnedEvent {
    let record = ev.to_record();
    // Point records at a finer LSH level share the geometry work:
    // one fine lookup, coarsened exactly via the cell hierarchy.
    let (cells, lsh_cells) = match lsh_level {
        Some(l) if l >= level && !record.is_region() => {
            let fine = geocell::CellId::from_latlng(record.location, l);
            (vec![fine.parent(level)], vec![fine])
        }
        Some(l) => (record_cells(&record, level), record_cells(&record, l)),
        None => (record_cells(&record, level), Vec::new()),
    };
    BinnedEvent {
        side: ev.side,
        entity: ev.entity,
        w: scheme.window_of(ev.time),
        cells,
        lsh_cells,
    }
}

/// Deterministic entity→shard assignment (FNV-1a over side + id).
pub(crate) fn entity_shard(side: Side, entity: EntityId, shards: usize) -> usize {
    (slim_lsh::fnv1a([side.idx() as u64, entity.0].into_iter()) % shards as u64) as usize
}

/// Resolves an entity's history view across the shard partition.
pub(crate) fn lookup_view(
    shards: &[EngineShard],
    side: Side,
    entity: EntityId,
) -> Option<EntityView<'_>> {
    shards[entity_shard(side, entity, shards.len())].histories[side.idx()].view(entity)
}

/// The ascending union of two ascending, duplicate-free window lists.
fn union_sorted(a: &[WindowIdx], b: &[WindowIdx]) -> Vec<WindowIdx> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let w = a[i].min(b[j]);
        i += usize::from(a[i] == w);
        j += usize::from(b[j] == w);
        out.push(w);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Cross-shard effects of one shard's ingest phase, folded in at the
/// merge barrier.
#[derive(Debug, Default)]
pub(crate) struct IngestEffects {
    /// Per-side df/idf adjustments (commutative integer deltas).
    pub(crate) df: [DfDelta; 2],
    /// Entities whose LSH ring signature changed — coalesced: the
    /// barrier upserts each entity's *final* signature once.
    pub(crate) sig_changes: BTreeSet<(Side, EntityId)>,
    /// Entities that crossed the min-records filter, in shard-local
    /// stream order.
    pub(crate) activations: Vec<(Side, EntityId)>,
    /// Entities that died (expired away entirely) and re-activated
    /// before a refresh tick processed the death: their cached pairs
    /// hold ghost contributions and must be purged at the barrier —
    /// before new candidate registration, so freshly discovered pairs
    /// survive.
    pub(crate) rebirths: Vec<(Side, EntityId)>,
    /// Highest appended window + 1 (merged with `max`).
    pub(crate) domain: u32,
}

/// Cross-shard effects of one shard's expiry phase.
#[derive(Debug, Default)]
pub(crate) struct ExpiryEffects {
    /// Per-side df/idf adjustments.
    pub(crate) df: [DfDelta; 2],
    /// Entities whose ring signature changed (or whose ring vanished).
    pub(crate) sig_changes: BTreeSet<(Side, EntityId)>,
    /// Expired windows that had content on this shard; the engine
    /// counts the cross-shard union so `evicted_windows` is
    /// shard-count-independent.
    pub(crate) windows: Vec<WindowIdx>,
    /// Entities demoted below the min-records filter.
    pub(crate) demoted_entities: u64,
    /// Still-live records discarded by those demotions.
    pub(crate) demoted_records: u64,
}

/// A rescore work item: one owned pair plus the windows to recompute,
/// ascending (`None` = fresh pair, rescore all common windows). A pair
/// with one dirty endpoint borrows that entity's window list from the
/// tick's dirty list; only a pair dirty on both sides owns a merged one.
pub(crate) type RescoreJob<'d> = (PairKey, Option<Cow<'d, [WindowIdx]>>);

/// One window's unnormalized contribution to a pair's score.
pub(crate) type Contribution = (WindowIdx, f64);

/// One pair's cached contributions: strictly ascending by window, no
/// zero entries (a window contributing zero is absent). Flat, so a
/// rescore worker reads it as a borrowed slice and the owning shard
/// patches it in place.
pub(crate) type PairWindows = Vec<Contribution>;

/// The neutral element of the contribution fold: `-0.0 + x == x` for
/// every `x`, zeros included.
const FOLD_IDENTITY: f64 = -0.0;

/// Where a pair's score fold can resume: `sum` is the left fold of
/// `windows[..index]` of the pair's cache, every one of which is below
/// `window`; no entry from `index` on is. Derived state: never
/// checkpointed, and a fresh or recovered pair starts at
/// [`FoldMark::START`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FoldMark {
    pub(crate) window: WindowIdx,
    pub(crate) index: usize,
    pub(crate) sum: f64,
}

impl FoldMark {
    /// The empty prefix.
    pub(crate) const START: FoldMark = FoldMark {
        window: 0,
        index: 0,
        sum: FOLD_IDENTITY,
    };
}

impl Default for FoldMark {
    fn default() -> Self {
        Self::START
    }
}

/// One owned pair's cache entry: its contributions and their fold mark.
#[derive(Debug, Clone, Default)]
pub(crate) struct CachedPair {
    pub(crate) windows: PairWindows,
    pub(crate) mark: FoldMark,
}

impl CachedPair {
    /// A pair restored with its contributions (checkpoint recovery):
    /// the mark starts over.
    pub(crate) fn from_windows(windows: PairWindows) -> Self {
        Self {
            windows,
            mark: FoldMark::START,
        }
    }

    /// Applies a rescore outcome's patch and stores the mark the worker
    /// placed for the patched cache (`None`: the patch was empty and the
    /// cache, with its mark, is unchanged).
    fn apply(&mut self, patch: &[Contribution], mark: Option<FoldMark>) {
        apply_patch(&mut self.windows, patch);
        if let Some(mark) = mark {
            self.mark = mark;
        }
    }
}

/// Why `mark` does not mark `windows` (`None` when it does): its index
/// must split the cache below and at-or-above its window, and its sum
/// must have the bits of the left fold of the prefix.
pub(crate) fn mark_violation(windows: &[Contribution], mark: &FoldMark) -> Option<String> {
    let Some((below, rest)) = windows.split_at_checked(mark.index) else {
        return Some(format!(
            "mark {mark:?} past the cache's {} entries",
            windows.len()
        ));
    };
    if below.iter().any(|&(w, _)| w >= mark.window) || rest.iter().any(|&(w, _)| w < mark.window) {
        return Some(format!(
            "mark {mark:?} does not split the cache at its window"
        ));
    }
    let prefix = below.iter().fold(FOLD_IDENTITY, |sum, &(_, c)| sum + c);
    (prefix.to_bits() != mark.sum.to_bits())
        .then(|| format!("mark {mark:?}: the prefix folds to {prefix:e}"))
}

/// `Σ contributions` of the cache `cached` (marked by `mark`) will hold
/// once `patch` is applied, folded left in ascending window order —
/// plus the mark to store with the patched cache.
///
/// When the patch is empty or starts at or after the mark, the fold
/// resumes from the mark's partial sum over `cached[index..]` merged
/// with the patch: the marked prefix is untouched and comes first, so
/// this repeats the full fold's additions in the full fold's order and
/// gives its bits. Otherwise the fold starts from scratch. Either way
/// the new mark sits just before the patch's last window, where the
/// next tick's patch of a dense stream tends to begin.
pub(crate) fn fold_patched(
    cached: &[Contribution],
    mark: FoldMark,
    patch: &[Contribution],
) -> (f64, Option<FoldMark>) {
    let from = match patch.first() {
        Some(&(first, _)) if first < mark.window => FoldMark::START,
        _ => mark,
    };
    let tail = merged_contributions(&cached[from.index..], patch);
    let Some(&(last, _)) = patch.last() else {
        return (tail.fold(from.sum, |sum, (_, c)| sum + c), None);
    };
    let (mut sum, mut index) = (from.sum, from.index);
    let mut next = None;
    for (w, c) in tail {
        if w >= last && next.is_none() {
            next = Some(FoldMark {
                window: last,
                index,
                sum,
            });
        }
        sum += c;
        index += 1;
    }
    let next = next.unwrap_or(FoldMark {
        window: last,
        index,
        sum,
    });
    (sum, Some(next))
}

/// The result of rescoring one pair: only what changed — the *patch* —
/// plus the pair's re-assembled edge score, computed on the worker so
/// the barrier only patches. `None` = an endpoint history vanished;
/// drop the pair.
#[derive(Debug)]
pub(crate) struct ScoredPair {
    /// Every window recomputed this tick with its new contribution,
    /// strictly ascending; a zero contribution means "drop the window".
    pub(crate) patch: PairWindows,
    /// The normalized edge score over the patched cache (`Σ
    /// contributions / pair norm`, see [`fold_patched`]); an edge
    /// exists iff it is strictly positive.
    pub(crate) score: f64,
    /// The fold mark for the patched cache (`None`: keep the old one).
    pub(crate) mark: Option<FoldMark>,
}

/// See [`ScoredPair`].
pub(crate) type RescoreOutcome = (PairKey, Option<ScoredPair>);

/// The contributions a pair's cache will hold once `patch` is applied,
/// in ascending window order, without building that cache: a merge-walk
/// of the two window-sorted slices in which a patched window overrides
/// the cached one and a zero patch entry yields nothing. Summing it is
/// the same left fold, over the same values in the same order, as
/// summing the patched cache — which is what makes the worker-side edge
/// score bit-identical to a from-scratch assembly.
fn merged_contributions<'a>(
    cached: &'a [Contribution],
    patch: &'a [Contribution],
) -> impl Iterator<Item = Contribution> + 'a {
    // In streaming the patch lands at the cache's tail: everything
    // below its first window passes through untouched.
    let head = match patch.first() {
        Some(&(first, _)) => cached.partition_point(|&(w, _)| w < first),
        None => cached.len(),
    };
    let (untouched, mut cached) = cached.split_at(head);
    let mut patch = patch;
    let tail = std::iter::from_fn(move || loop {
        let Some(&(wp, p)) = patch.first() else {
            let (&entry, rest) = cached.split_first()?;
            cached = rest;
            return Some(entry);
        };
        match cached.first() {
            Some(&entry) if entry.0 < wp => {
                cached = &cached[1..];
                return Some(entry);
            }
            // Overridden: the cached value is not summed.
            Some(&(wc, _)) if wc == wp => cached = &cached[1..],
            _ => {}
        }
        patch = &patch[1..];
        if p != 0.0 {
            return Some((wp, p));
        }
    });
    untouched.iter().copied().chain(tail)
}

/// Applies a [`ScoredPair::patch`] to a pair's cache in place — by
/// binary search, except at the tail, where a streaming patch lands.
fn apply_patch(windows: &mut PairWindows, patch: &[Contribution]) {
    for &(w, c) in patch {
        if windows.last().is_none_or(|&(last, _)| last < w) {
            if c != 0.0 {
                windows.push((w, c));
            }
            continue;
        }
        match windows.binary_search_by_key(&w, |&(cached, _)| cached) {
            Ok(i) if c == 0.0 => {
                windows.remove(i);
            }
            Ok(i) => windows[i].1 = c,
            Err(i) if c != 0.0 => windows.insert(i, (w, c)),
            Err(_) => {}
        }
    }
}

/// What applying a tick's rescore outcomes changed on this shard.
#[derive(Debug, Default)]
pub(crate) struct ApplyReport {
    /// `(pair, window)` contributions recomputed.
    pub(crate) rescored_windows: u64,
    /// Owned pairs whose cached contributions ended the tick empty —
    /// the retirement candidates.
    pub(crate) emptied: Vec<PairKey>,
}

/// One shard of engine state. See the module docs for the ownership
/// rules and the phase/barrier contract.
#[derive(Debug)]
pub(crate) struct EngineShard {
    /// Min-records buffers: entities whose record count has not yet
    /// exceeded `slim.min_records` are parked here, exactly like the
    /// batch pipeline's sparse-entity filter.
    pending: [HashMap<EntityId, Vec<BinnedEvent>>; 2],
    /// Window → the entities that parked an event of that window in
    /// `pending`, so [`EngineShard::expire`] visits only the buffers
    /// that can hold an expiring event instead of sweeping all of them.
    /// **Invariant:** every event in a `pending` buffer has its
    /// `(side, entity)` listed under its window — which is why
    /// `pending` is private and only [`EngineShard::park`] adds to it.
    /// The index is a superset: an entity is listed once per parked
    /// event and stays listed after its buffer activated; a stale
    /// entry costs one failed lookup when its window expires. Derived
    /// state — rebuilt from `pending` on recovery, never serialized.
    pending_windows: BTreeMap<WindowIdx, Vec<(Side, EntityId)>>,
    /// Entities that crossed the min-records threshold.
    pub(crate) active: [HashSet<EntityId>; 2],
    /// This shard's slice of the per-side mobility histories.
    pub(crate) histories: [HistoryArena; 2],
    /// Raw still-live events of active homed entities, in stream order
    /// — the demotion re-buffer ring. Maintained only in
    /// sliding-window mode (`retain_live`): when expiry demotes an
    /// entity below the min-records filter, its live events move back
    /// into the pending buffer instead of being discarded, so they
    /// keep counting toward reactivation exactly like any other
    /// sparse entity's. Entries expire with their windows.
    pub(crate) live_events: [HashMap<EntityId, Vec<BinnedEvent>>; 2],
    /// Whether `live_events` is maintained (true iff the engine has a
    /// bounded window — unbounded engines never demote).
    retain_live: bool,
    /// Windows touched per homed entity since the last tick.
    pub(crate) dirty: [HashMap<EntityId, BTreeSet<WindowIdx>>; 2],
    /// Homed entities whose history expired entirely; their pairs are
    /// dropped at the next tick.
    pub(crate) dead: [HashSet<EntityId>; 2],
    /// Which homed entities have bins in which window — drives expiry.
    pub(crate) window_entities: BTreeMap<WindowIdx, [BTreeSet<EntityId>; 2]>,
    /// LSH rings of homed entities (empty when LSH is disabled).
    pub(crate) rings: ShardRings,
    /// Per owned candidate pair: its per-window unnormalized score
    /// contributions and their fold mark. Probed by every visit, so
    /// keyed under [`slim_core::fasthash`], like `fresh`.
    pub(crate) cache: FastMap<PairKey, CachedPair>,
    /// Owned pairs discovered since the last tick; their full common
    /// window set is scored at the next tick.
    pub(crate) fresh: FastSet<PairKey>,
    /// Entity→pair adjacency over the owned pairs.
    pub(crate) adjacency: AdjacencyIndex,
    /// The shard's **edge cache**: assembled, normalized scores of its
    /// owned pairs (strictly positive only), sorted by pair. Patched in
    /// place by rescore outcomes instead of being rebuilt at every
    /// barrier.
    pub(crate) edges: BTreeMap<PairKey, f64>,
    /// Edge-cache patches since the last barrier, coalesced by pair
    /// (last write wins): `Some(score)` upserted, `None` removed. The
    /// barrier drains these as one sorted run per shard and k-way
    /// merges the runs into the global delta batch.
    pub(crate) edge_deltas: BTreeMap<PairKey, Option<f64>>,
}

impl EngineShard {
    /// An empty shard. `retain_live` enables the demotion re-buffer
    /// ring (pointless — and therefore off — when the window is
    /// unbounded).
    pub(crate) fn new(retain_live: bool) -> Self {
        Self {
            pending: Default::default(),
            pending_windows: BTreeMap::new(),
            active: Default::default(),
            histories: Default::default(),
            live_events: Default::default(),
            retain_live,
            dirty: Default::default(),
            dead: Default::default(),
            window_entities: BTreeMap::new(),
            rings: ShardRings::default(),
            cache: FastMap::default(),
            fresh: FastSet::default(),
            adjacency: AdjacencyIndex::default(),
            edges: BTreeMap::new(),
            edge_deltas: BTreeMap::new(),
        }
    }

    /// Applies this shard's slice of one ingest segment, in stream
    /// order, describing all cross-shard effects.
    pub(crate) fn apply_events(
        &mut self,
        events: Vec<BinnedEvent>,
        min_records: usize,
        lsh: Option<&LshGeometry>,
    ) -> IngestEffects {
        let mut fx = IngestEffects::default();
        for b in events {
            let (side, entity) = (b.side, b.entity);
            if self.active[side.idx()].contains(&entity) {
                self.append_active(b, lsh, &mut fx);
            } else if self.park(b) > min_records {
                self.activate(side, entity, lsh, &mut fx);
            }
        }
        fx
    }

    /// Parks one event in its entity's min-records buffer and lists the
    /// entity under the event's window (the `pending_windows`
    /// invariant). Returns the buffer's new length. Also the recovery
    /// path: restoring `pending` event by event rebuilds the index.
    pub(crate) fn park(&mut self, b: BinnedEvent) -> usize {
        self.pending_windows
            .entry(b.w)
            .or_default()
            .push((b.side, b.entity));
        let buffer = self.pending[b.side.idx()].entry(b.entity).or_default();
        buffer.push(b);
        buffer.len()
    }

    /// The min-records buffers, `[left, right]` (read-only: the
    /// checkpoint export).
    pub(crate) fn pending(&self) -> &[HashMap<EntityId, Vec<BinnedEvent>>; 2] {
        &self.pending
    }

    /// Moves a buffered entity past the min-records filter: replays its
    /// buffer into the history slice and records the activation for
    /// barrier-time candidate registration.
    fn activate(
        &mut self,
        side: Side,
        entity: EntityId,
        lsh: Option<&LshGeometry>,
        fx: &mut IngestEffects,
    ) {
        let buffered = self.pending[side.idx()].remove(&entity).unwrap_or_default();
        self.active[side.idx()].insert(entity);
        if self.dead[side.idx()].remove(&entity) {
            fx.rebirths.push((side, entity));
        }
        for b in buffered {
            self.append_active(b, lsh, fx);
        }
        fx.activations.push((side, entity));
    }

    fn append_active(&mut self, b: BinnedEvent, lsh: Option<&LshGeometry>, fx: &mut IngestEffects) {
        let side = b.side;
        let (new_bins, created) = self.histories[side.idx()].append(b.entity, b.w, &b.cells);
        if created {
            fx.df[side.idx()].add_entity();
        }
        for c in new_bins {
            fx.df[side.idx()].add_bin(b.w, c);
        }
        fx.domain = fx.domain.max(b.w.saturating_add(1));
        self.dirty[side.idx()]
            .entry(b.entity)
            .or_default()
            .insert(b.w);
        self.window_entities.entry(b.w).or_default()[side.idx()].insert(b.entity);
        if let Some(geom) = lsh {
            if self.rings.add(geom, side, b.entity, b.w, &b.lsh_cells) {
                fx.sig_changes.insert((side, b.entity));
            }
        }
        if self.retain_live {
            // Park the consumed event in the re-buffer ring (no clone —
            // the event is moved, its cells already applied above).
            self.live_events[side.idx()]
                .entry(b.entity)
                .or_default()
                .push(b);
        }
    }

    /// Expires every window below `keep_from` on this shard: evicts the
    /// affected histories (marking them dirty), unwinds df statistics
    /// and rings, and demotes entities whose live evidence fell to the
    /// min-records filter — all per-entity work, independent across
    /// shards.
    pub(crate) fn expire(
        &mut self,
        keep_from: WindowIdx,
        min_records: usize,
        lsh: Option<&LshGeometry>,
    ) -> ExpiryEffects {
        let mut fx = ExpiryEffects::default();
        let expired: Vec<WindowIdx> = self
            .window_entities
            .range(..keep_from)
            .map(|(&win, _)| win)
            .collect();
        for win in expired {
            let sides = self.window_entities.remove(&win).expect("collected above");
            fx.windows.push(win);
            for side in [Side::Left, Side::Right] {
                for &e in &sides[side.idx()] {
                    self.evict_history_window(side, e, win, &mut fx.df);
                    // The re-buffer ring expires in lockstep with the
                    // history: only still-live raw events may re-buffer.
                    let mut ring_emptied = false;
                    if let Some(ring) = self.live_events[side.idx()].get_mut(&e) {
                        ring.retain(|b| b.w >= keep_from);
                        ring_emptied = ring.is_empty();
                    }
                    if ring_emptied {
                        self.live_events[side.idx()].remove(&e);
                    }
                    // Expiry can *change* a ring signature (a formerly
                    // dominated cell takes over the slot) — collisions
                    // surfacing from that are candidates like any other.
                    if let Some(geom) = lsh {
                        if self.rings.evict(geom, side, e, win) {
                            fx.sig_changes.insert((side, e));
                        }
                    }
                    // Approximate the batch filter on the *live* slice:
                    // an entity whose remaining records no longer exceed
                    // min_records would be excluded by `Slim::prepare`
                    // over the same window, so demote it — its leftover
                    // evidence is unwound from histories/df/rings
                    // (counted in `StreamStats::demoted_records`) and
                    // its pairs die at the next tick. The raw live
                    // events move back into the pending buffer, so they
                    // keep counting toward reactivation exactly like
                    // any other sparse entity's — the batch filter over
                    // the same live slice would make the same call once
                    // fresh records push it past min_records again.
                    let live = self.histories[side.idx()].num_records(e);
                    let demote = live as usize <= min_records;
                    if demote {
                        fx.demoted_entities += 1;
                        fx.demoted_records += live as u64;
                        let leftover: Vec<WindowIdx> = self.histories[side.idx()]
                            .view(e)
                            .map(|v| v.windows().collect())
                            .unwrap_or_default();
                        for lw in leftover {
                            self.evict_history_window(side, e, lw, &mut fx.df);
                            if let Some(sides) = self.window_entities.get_mut(&lw) {
                                sides[side.idx()].remove(&e);
                            }
                        }
                        if lsh.is_some() && self.rings.remove_entity(side, e) {
                            fx.sig_changes.insert((side, e));
                        }
                        self.active[side.idx()].remove(&e);
                        self.dead[side.idx()].insert(e);
                        self.dirty[side.idx()].remove(&e);
                        // Re-buffer the still-live raw events (pruned to
                        // the window above). `live <= min_records`, so
                        // the buffer cannot immediately re-activate.
                        for b in self.live_events[side.idx()].remove(&e).unwrap_or_default() {
                            self.park(b);
                        }
                    }
                }
            }
        }
        // Min-records buffers must not resurrect expired windows
        // either: prune exactly the buffers the index lists under an
        // expiring window (a listed entity may have activated since —
        // nothing to prune then).
        let live = self.pending_windows.split_off(&keep_from);
        for (_, parked) in std::mem::replace(&mut self.pending_windows, live) {
            for (side, e) in parked {
                let pending = &mut self.pending[side.idx()];
                if let Some(buffer) = pending.get_mut(&e) {
                    buffer.retain(|b| b.w >= keep_from);
                    if buffer.is_empty() {
                        pending.remove(&e);
                    }
                }
            }
        }
        fx
    }

    /// Evicts one window of one homed entity's history, unwinding the
    /// df delta and marking the entity dirty for the next tick.
    fn evict_history_window(
        &mut self,
        side: Side,
        e: EntityId,
        w: WindowIdx,
        df: &mut [DfDelta; 2],
    ) {
        if self.histories[side.idx()].view(e).is_none() {
            return;
        }
        let (bins, emptied) = self.histories[side.idx()].evict_window(e, w);
        for &(c, _) in &bins {
            df[side.idx()].remove_bin(w, c);
        }
        if emptied {
            df[side.idx()].remove_entity();
        }
        self.dirty[side.idx()].entry(e).or_default().insert(w);
    }

    /// Registers an owned candidate pair (idempotent): an empty
    /// contribution cache, a fresh mark, and both adjacency endpoints.
    pub(crate) fn add_candidate(&mut self, pair: PairKey) {
        if let std::collections::hash_map::Entry::Vacant(slot) = self.cache.entry(pair) {
            slot.insert(CachedPair::default());
            self.fresh.insert(pair);
            self.adjacency.insert(pair);
        }
    }

    /// Patches one owned pair's entry in the edge cache: upsert when
    /// the score is strictly positive, removal otherwise. Records a
    /// delta for the next barrier only when the cached edge actually
    /// changed, so no-op rescores cost nothing downstream.
    pub(crate) fn patch_edge(&mut self, pair: PairKey, score: Option<f64>) {
        let changed = match score {
            Some(s) => self.edges.insert(pair, s) != Some(s),
            None => self.edges.remove(&pair).is_some(),
        };
        if changed {
            self.edge_deltas.insert(pair, score);
        }
    }

    /// Drains the edge-cache patches accumulated since the last
    /// barrier, sorted by pair.
    pub(crate) fn take_edge_deltas(&mut self) -> BTreeMap<PairKey, Option<f64>> {
        std::mem::take(&mut self.edge_deltas)
    }

    /// Drops every owned pair adjacent to `(side, entity)` — the
    /// adjacency index makes this O(degree) instead of an O(cache)
    /// sweep. Used for dead-endpoint cleanup and rebirth purges.
    pub(crate) fn drop_pairs_of(&mut self, side: Side, entity: EntityId) -> usize {
        let pairs = self.adjacency.pairs_of_sorted(side, entity);
        for &pair in &pairs {
            self.cache.remove(&pair);
            self.fresh.remove(&pair);
            self.adjacency.remove(pair);
            self.patch_edge(pair, None);
        }
        pairs.len()
    }

    /// Builds this tick's rescore jobs: every owned fresh pair (all
    /// common windows) plus every owned pair adjacent to a globally
    /// dirty entity (exactly the union of its endpoints' dirty
    /// windows). `dirty` is sorted by `(side, entity)`; the jobs come
    /// back sorted by pair for reproducible work lists.
    pub(crate) fn gather_jobs<'d>(
        &self,
        dirty: &'d [(Side, EntityId, Vec<WindowIdx>)],
    ) -> Vec<RescoreJob<'d>> {
        let (left, right) = dirty.split_at(dirty.partition_point(|&(s, ..)| s == Side::Left));
        let windows_of = |block: &'d [(Side, EntityId, Vec<WindowIdx>)], e: EntityId| {
            let at = block.binary_search_by_key(&e, |&(_, e, _)| e).ok()?;
            Some(block[at].2.as_slice())
        };
        let mut jobs: Vec<RescoreJob> = self.fresh.iter().map(|&p| (p, None)).collect();
        // A pair has one Left and one Right endpoint, so it is adjacent
        // to at most one dirty entity per side: its window list is that
        // entity's list, or the union of the two.
        for (_, u, ws) in left {
            let pairs = self
                .adjacency
                .pairs_of(Side::Left, *u)
                .into_iter()
                .flatten();
            for &pair in pairs.filter(|p| !self.fresh.contains(p)) {
                let windows = match windows_of(right, pair.1) {
                    Some(other) => Cow::Owned(union_sorted(ws, other)),
                    None => Cow::Borrowed(ws.as_slice()),
                };
                jobs.push((pair, Some(windows)));
            }
        }
        for (_, v, ws) in right {
            let pairs = self
                .adjacency
                .pairs_of(Side::Right, *v)
                .into_iter()
                .flatten();
            for &pair in pairs.filter(|p| !self.fresh.contains(p)) {
                // A dirty Left endpoint already produced this pair's job.
                if windows_of(left, pair.0).is_none() {
                    jobs.push((pair, Some(Cow::Borrowed(ws.as_slice()))));
                }
            }
        }
        jobs.sort_unstable_by_key(|&(pair, _)| pair);
        jobs
    }

    /// Applies one tick's rescore outcomes to the owned pair cache —
    /// patching each visited pair's windows in place and its entry in
    /// the edge cache — and resets the fresh/dirty marks.
    pub(crate) fn apply_outcomes(&mut self, outcomes: Vec<RescoreOutcome>) -> ApplyReport {
        let mut report = ApplyReport::default();
        for (pair, scored) in outcomes {
            match scored {
                None => {
                    // An endpoint history vanished between discovery and
                    // scoring: drop the pair.
                    self.cache.remove(&pair);
                    self.fresh.remove(&pair);
                    self.adjacency.remove(pair);
                    self.patch_edge(pair, None);
                }
                Some(scored) => {
                    report.rescored_windows += scored.patch.len() as u64;
                    let entry = self.cache.entry(pair).or_default();
                    entry.apply(&scored.patch, scored.mark);
                    if entry.windows.is_empty() {
                        report.emptied.push(pair);
                    }
                    self.patch_edge(pair, (scored.score > 0.0).then_some(scored.score));
                }
            }
        }
        self.fresh.clear();
        self.dirty[0].clear();
        self.dirty[1].clear();
        report
    }

    /// Retires one owned pair (candidate-set retirement).
    pub(crate) fn retire(&mut self, pair: PairKey) {
        self.cache.remove(&pair);
        self.adjacency.remove(pair);
        self.patch_edge(pair, None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geocell::LatLng;

    /// A seeded xorshift generator: `next(n)` draws from `0..n`.
    fn xorshift(mut x: u64) -> impl FnMut(u64) -> u64 {
        move |n| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 33) % n
        }
    }

    /// Random `apply_events` / `expire` sequences over a handful of
    /// sparse entities (so buffers park, activate, demote and re-buffer
    /// all the time). After every step the index invariant holds —
    /// every pending event's entity is listed under the event's window
    /// — and after every expiry no pending buffer holds an event below
    /// `keep_from`, no emptied buffer survives, and the index has no
    /// entry below `keep_from`.
    #[test]
    fn pending_index_covers_every_parked_event_and_expires_with_the_window() {
        let cell = |k: u64| CellId::from_latlng(LatLng::from_degrees(20.0, k as f64), 12);
        let mut next = xorshift(0xD1B5_4A32_D192_ED03u64);
        for (min_records, capacity) in [(2usize, 6u32), (5, 4), (1, 3), (3, 12)] {
            let mut shard = EngineShard::new(true);
            let (mut watermark, mut keep_from) = (0u32, 0u32);
            let (mut activated, mut demoted, mut pruned) = (0usize, 0u64, 0usize);
            for step in 0..1200 {
                // A segment of events at or near the watermark, none
                // below the expiry horizon (the control scan drops
                // those before they reach a shard).
                watermark += next(3) as u32;
                let events: Vec<BinnedEvent> = (0..next(6))
                    .map(|_| BinnedEvent {
                        side: [Side::Left, Side::Right][next(2) as usize],
                        entity: EntityId(next(5)),
                        w: watermark.saturating_sub(next(3) as u32).max(keep_from),
                        cells: vec![cell(next(4))],
                        lsh_cells: Vec::new(),
                    })
                    .collect();
                activated += shard
                    .apply_events(events, min_records, None)
                    .activations
                    .len();
                assert_index_covers_pending(&shard, step);

                let target = (watermark + 1).saturating_sub(capacity);
                if target > keep_from {
                    keep_from = target;
                    pruned += shard
                        .pending
                        .iter()
                        .flat_map(HashMap::values)
                        .flatten()
                        .filter(|b| b.w < keep_from)
                        .count();
                    demoted += shard.expire(keep_from, min_records, None).demoted_entities;
                    assert_index_covers_pending(&shard, step);
                    for buffer in shard.pending.iter().flat_map(HashMap::values) {
                        assert!(!buffer.is_empty(), "step {step}: emptied buffer survived");
                        assert!(
                            buffer.iter().all(|b| b.w >= keep_from),
                            "step {step}: event below {keep_from} in {buffer:?}"
                        );
                    }
                    assert!(
                        shard.pending_windows.keys().all(|&w| w >= keep_from),
                        "step {step}: index entry below {keep_from}"
                    );
                }
            }
            // The sequence exercised what it claims to.
            assert!(
                activated > 0,
                "min_records {min_records}: nothing activated"
            );
            assert!(pruned > 0, "min_records {min_records}: nothing pruned");
            assert!(demoted > 0, "min_records {min_records}: nothing demoted");
        }
    }

    /// Random patch sequences against a `BTreeMap` oracle (the cache's
    /// previous representation): tail inserts, mid-range inserts,
    /// overwrites, zero-drops of present and absent windows, the empty
    /// patch, all-zero wipes. The cache carries its fold mark as the
    /// engine's does. After every step the flat cache holds the
    /// oracle's entries, is empty exactly when the oracle is, the mark
    /// marks the patched cache, and the fold a worker computes *before*
    /// the patch is applied — resumed from the mark, or from scratch
    /// when the patch reaches below it — equals the sum over the
    /// patched oracle bit for bit.
    #[test]
    fn flat_cache_patches_like_a_btreemap_and_folds_bit_identically() {
        let mut next = xorshift(0xA076_1D64_78BD_642Fu64);
        let (mut emptied, mut mid_inserts, mut absent_drops, mut all_zero) = (0, 0, 0, 0);
        let (mut resumed, mut fell_back, mut empty_patches) = (0, 0, 0);
        for _ in 0..60 {
            let mut entry = CachedPair::default();
            let mut oracle: BTreeMap<WindowIdx, f64> = BTreeMap::new();
            let mut frontier: WindowIdx = 0;
            for step in 0..200 {
                // 0..4 distinct ascending windows: mostly at or past the
                // frontier (the streaming shape), sometimes anywhere.
                let mut windows: BTreeSet<WindowIdx> = BTreeSet::new();
                for _ in 0..next(5) {
                    windows.insert(match next(3) {
                        0 => next(u64::from(frontier) + 1) as WindowIdx,
                        _ => frontier + next(3) as WindowIdx,
                    });
                }
                let wipe = next(12) == 0;
                let patch: PairWindows = if wipe {
                    oracle.keys().map(|&w| (w, 0.0)).collect()
                } else {
                    let value = |n: u64| match n {
                        0 => 0.0,
                        1 => -0.0,
                        // Mixed signs and magnitudes, so the fold's
                        // order shows in its low bits.
                        n => (n as f64 - 500.0) * 1.000_000_1e-3,
                    };
                    windows.iter().map(|&w| (w, value(next(1000)))).collect()
                };
                frontier = frontier.max(patch.last().map_or(0, |&(w, _)| w));
                all_zero += usize::from(!patch.is_empty() && patch.iter().all(|&(_, c)| c == 0.0));
                match patch.first() {
                    None => empty_patches += 1,
                    Some(&(w, _)) if w < entry.mark.window => fell_back += 1,
                    Some(_) => resumed += usize::from(entry.mark.index > 0),
                }

                let (folded, mark) = fold_patched(&entry.windows, entry.mark, &patch);
                let (full, full_mark) = fold_patched(&entry.windows, FoldMark::START, &patch);
                assert_eq!(
                    folded.to_bits(),
                    full.to_bits(),
                    "step {step}: resumed vs full"
                );
                assert_eq!(
                    mark, full_mark,
                    "step {step}: the mark must not depend on the path"
                );
                for &(w, c) in &patch {
                    let cached = oracle.contains_key(&w);
                    absent_drops += usize::from(c == 0.0 && !cached);
                    mid_inserts += usize::from(
                        c != 0.0 && !cached && oracle.keys().next_back().is_some_and(|&l| w < l),
                    );
                    if c == 0.0 {
                        oracle.remove(&w);
                    } else {
                        oracle.insert(w, c);
                    }
                }
                entry.apply(&patch, mark);

                let expected: Vec<(WindowIdx, u64)> =
                    oracle.iter().map(|(&w, c)| (w, c.to_bits())).collect();
                let got: Vec<(WindowIdx, u64)> = entry
                    .windows
                    .iter()
                    .map(|&(w, c)| (w, c.to_bits()))
                    .collect();
                assert_eq!(got, expected, "step {step}, patch {patch:?}");
                assert_eq!(entry.windows.is_empty(), oracle.is_empty(), "step {step}");
                if let Some(why) = mark_violation(&entry.windows, &entry.mark) {
                    panic!("step {step}, patch {patch:?}: {why}");
                }
                let summed: f64 = oracle.values().sum();
                assert_eq!(
                    folded.to_bits(),
                    summed.to_bits(),
                    "step {step}: fold {folded:e} vs oracle sum {summed:e}, patch {patch:?}"
                );
                emptied += usize::from(entry.windows.is_empty() && !patch.is_empty());
            }
        }
        // The sequences exercised what they claim to.
        assert!(emptied > 0 && mid_inserts > 0 && absent_drops > 0 && all_zero > 0);
        assert!(
            resumed > 0 && fell_back > 0 && empty_patches > 0,
            "{resumed} resumed / {fell_back} fell back / {empty_patches} empty"
        );
    }

    /// `gather_jobs` against the per-tick `HashMap<PairKey, BTreeSet>`
    /// union it replaced: same pairs, same window lists, same order —
    /// for pairs dirty on the Left, on the Right, on both, on neither,
    /// and fresh.
    #[test]
    fn gathered_jobs_are_the_union_of_the_endpoints_dirty_windows() {
        let mut next = xorshift(0x2545_F491_4F6C_DD1Du64);
        for round in 0..50 {
            let mut shard = EngineShard::new(false);
            for _ in 0..next(30) {
                shard.add_candidate((EntityId(next(6)), EntityId(next(6))));
            }
            // Some pairs stay fresh, the rest have been scored before.
            let scored: Vec<PairKey> = shard
                .fresh
                .iter()
                .copied()
                .filter(|_| next(3) > 0)
                .collect();
            for pair in &scored {
                shard.fresh.remove(pair);
            }
            let mut dirty: Vec<(Side, EntityId, Vec<WindowIdx>)> = Vec::new();
            for side in [Side::Left, Side::Right] {
                for e in 0..7 {
                    if next(2) == 0 {
                        continue;
                    }
                    let windows: BTreeSet<WindowIdx> =
                        (0..1 + next(4)).map(|_| next(8) as u32).collect();
                    dirty.push((side, EntityId(e), windows.into_iter().collect()));
                }
            }

            let mut union: HashMap<PairKey, BTreeSet<WindowIdx>> = HashMap::new();
            for (side, e, windows) in &dirty {
                for &pair in shard.adjacency.pairs_of(*side, *e).into_iter().flatten() {
                    if !shard.fresh.contains(&pair) {
                        union.entry(pair).or_default().extend(windows);
                    }
                }
            }
            let mut expected: Vec<(PairKey, Option<Vec<WindowIdx>>)> =
                shard.fresh.iter().map(|&p| (p, None)).collect();
            expected.extend(
                union
                    .into_iter()
                    .map(|(p, ws)| (p, Some(ws.into_iter().collect()))),
            );
            expected.sort_unstable();

            let got: Vec<(PairKey, Option<Vec<WindowIdx>>)> = shard
                .gather_jobs(&dirty)
                .into_iter()
                .map(|(p, ws)| (p, ws.map(Cow::into_owned)))
                .collect();
            assert_eq!(got, expected, "round {round}, dirty {dirty:?}");
        }
    }

    fn assert_index_covers_pending(shard: &EngineShard, step: usize) {
        for (side, buffers) in [Side::Left, Side::Right].into_iter().zip(&shard.pending) {
            for (&e, buffer) in buffers {
                for b in buffer {
                    let listed = shard
                        .pending_windows
                        .get(&b.w)
                        .is_some_and(|parked| parked.contains(&(side, e)));
                    assert!(
                        listed,
                        "step {step}: {side:?} {e:?} unlisted at window {}",
                        b.w
                    );
                }
            }
        }
    }
}
