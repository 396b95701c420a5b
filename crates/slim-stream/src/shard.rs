//! One shard of the engine state.
//!
//! The engine partitions every piece of per-entity and per-pair state by
//! a deterministic entity hash ([`entity_shard`]): a shard owns the
//! mobility histories (active or parked below the min-records filter),
//! dirty marks, LSH rings, and window membership of the entities homed
//! on it, plus the [`PairTable`] of the pairs it owns (**owner = home
//! shard of the pair's Left entity**): their cached `(pair, window)`
//! score contributions, served edges, fresh flags and entity→pair
//! adjacency, one slot per pair.
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
//! rescore whose patch starts at or above the mark patches the cache
//! and resumes the score's fold there ([`CachedPair::patch`]) — the
//! same additions in the same order as the full fold, so the same bits
//! — and a visit on a dense stream reads the few windows it rescores
//! instead of the pair's whole cache.
//!
//! A refresh tick's visit is two steps over the pair table: the shard
//! gathers its [`RescoreJob`]s (slot ids, sorted by slot), and the
//! rescore chunks — each owning a disjoint slot range — score and patch
//! them in place, handing the table only their [`SlotChanges`].

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use geocell::CellId;
use slim_core::arena::{EntityView, HistoryArena};
use slim_core::df::DfDelta;
use slim_core::history::record_cells;
use slim_core::{EntityId, WindowIdx, WindowScheme};

use crate::adjacency::{PairKey, PairTable, SlotChanges, SlotId};
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

/// Resolves an entity's history view across the shard partition, given
/// every shard's histories in shard order.
pub(crate) fn lookup_view<'a>(
    histories: &[&'a [HistoryArena; 2]],
    side: Side,
    entity: EntityId,
) -> Option<EntityView<'a>> {
    histories[entity_shard(side, entity, histories.len())][side.idx()].view(entity)
}

/// The ascending union of two ascending, duplicate-free window lists,
/// walked in place.
pub(crate) fn union_sorted<'a>(
    mut a: &'a [WindowIdx],
    mut b: &'a [WindowIdx],
) -> impl Iterator<Item = WindowIdx> + 'a {
    std::iter::from_fn(move || {
        let w = match (a.first(), b.first()) {
            (Some(&x), Some(&y)) => x.min(y),
            (Some(&x), None) => x,
            (None, Some(&y)) => y,
            (None, None) => return None,
        };
        a = a.strip_prefix(&[w]).unwrap_or(a);
        b = b.strip_prefix(&[w]).unwrap_or(b);
        Some(w)
    })
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

/// A rescore work item: one owned pair, by slot, plus the windows to
/// recompute — the union of its Left and its Right endpoint's dirty
/// windows, borrowed from the tick's dirty list (an endpoint that is
/// not dirty lends an empty list); `None` = a fresh pair, rescore all
/// common windows.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RescoreJob<'d> {
    pub(crate) slot: SlotId,
    pub(crate) pair: PairKey,
    pub(crate) windows: Option<[&'d [WindowIdx]; 2]>,
}

/// One window's unnormalized contribution to a pair's score.
pub(crate) type Contribution = (WindowIdx, f64);

/// One pair's cached contributions: strictly ascending by window, no
/// zero entries (a window contributing zero is absent). Flat, so a
/// rescore chunk patches it in place.
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

    /// Applies a rescore patch — every window recomputed this tick with
    /// its new contribution, strictly ascending, a zero meaning "drop the
    /// window" — in place, and returns `Σ contributions` of the patched
    /// cache, folded left in ascending window order.
    ///
    /// When the patch is empty or starts at or after the mark, the fold
    /// resumes from the mark's partial sum: the marked prefix is
    /// untouched by the patch and comes first, so this repeats the full
    /// fold's additions in the full fold's order and gives its bits.
    /// Otherwise the fold starts from scratch. A non-empty patch moves the
    /// mark to just before its last window, where the next tick's patch
    /// of a dense stream tends to begin.
    pub(crate) fn patch(&mut self, patch: &[Contribution]) -> f64 {
        let from = match patch.first() {
            Some(&(first, _)) if first < self.mark.window => FoldMark::START,
            _ => self.mark,
        };
        apply_patch(&mut self.windows, patch);
        let tail = &self.windows[from.index..];
        let fold =
            |from: f64, entries: &[Contribution]| entries.iter().fold(from, |sum, &(_, c)| sum + c);
        let Some(&(last, _)) = patch.last() else {
            return fold(from.sum, tail);
        };
        let split = tail.partition_point(|&(w, _)| w < last);
        self.mark = FoldMark {
            window: last,
            index: from.index + split,
            sum: fold(from.sum, &tail[..split]),
        };
        fold(self.mark.sum, &tail[split..])
    }

    /// `Σ contributions` folded from the first window: what
    /// [`CachedPair::patch`] must return, for the checks.
    pub(crate) fn full_fold(&self) -> f64 {
        self.windows
            .iter()
            .fold(FOLD_IDENTITY, |sum, &(_, c)| sum + c)
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

/// Applies a rescore patch to a pair's cache in place. A streaming
/// patch lands at the cache's tail, so each window is looked for by
/// galloping back from the end: the probes stay within the few entries
/// a dense pair's visit touches instead of halving the whole cache.
fn apply_patch(windows: &mut PairWindows, patch: &[Contribution]) {
    for &(w, c) in patch {
        if windows.last().is_none_or(|&(last, _)| last < w) {
            if c != 0.0 {
                windows.push((w, c));
            }
            continue;
        }
        // `windows[hi..]` is at or above `w`; gallop `lo` down until
        // `windows[lo]` is below it (or `lo` is 0).
        let (mut lo, mut hi, mut step) = (windows.len() - 1, windows.len(), 1);
        while lo > 0 && windows[lo].0 >= w {
            hi = lo;
            lo = lo.saturating_sub(step);
            step *= 2;
        }
        let i = lo + windows[lo..hi].partition_point(|&(cached, _)| cached < w);
        match windows.get(i) {
            Some(&(cached, _)) if cached == w && c == 0.0 => {
                windows.remove(i);
            }
            Some(&(cached, _)) if cached == w => windows[i].1 = c,
            _ if c != 0.0 => windows.insert(i, (w, c)),
            _ => {}
        }
    }
}

/// One shard of engine state. See the module docs for the ownership
/// rules and the phase/barrier contract.
#[derive(Debug, Default)]
pub(crate) struct EngineShard {
    /// Entities past the min-records filter: the bit that says whether
    /// an entity's bins count. Only active entities feed df statistics,
    /// dirty marks, the domain and the bucket partitions.
    pub(crate) active: [HashSet<EntityId>; 2],
    /// This shard's slice of the per-side mobility histories: every
    /// homed entity's live bins, active or parked below the min-records
    /// filter (like the batch pipeline's sparse-entity filter, a parked
    /// entity is counted, not linked).
    pub(crate) histories: [HistoryArena; 2],
    /// Windows touched per active homed entity since the last tick.
    pub(crate) dirty: [HashMap<EntityId, BTreeSet<WindowIdx>>; 2],
    /// Homed entities demoted (or expired away entirely) since the last
    /// tick; their pairs are dropped at the next tick.
    pub(crate) dead: [HashSet<EntityId>; 2],
    /// Which homed entities, active or parked, have bins in which
    /// window — drives expiry.
    pub(crate) window_entities: BTreeMap<WindowIdx, [BTreeSet<EntityId>; 2]>,
    /// Windows an active homed entity appended to — what
    /// [`crate::StreamStats::evicted_windows`] counts, as the union over
    /// shards, when they expire. A window only parked entities reached
    /// is not listed; one whose active entities were all demoted stays.
    /// Recovery puts the checkpointed union on the first shard.
    pub(crate) active_windows: BTreeSet<WindowIdx>,
    /// LSH rings of homed entities, active or parked (empty when LSH is
    /// disabled). A parked entity keeps its ring: its cells may sit at
    /// a finer level than its bins, so the arena cannot stand in for it.
    pub(crate) rings: ShardRings,
    /// The owned candidate pairs: per pair, its per-window
    /// unnormalized score contributions with their fold mark, its
    /// served edge (the assembled, normalized score, strictly positive
    /// only) and its fresh flag; the entity→pair adjacency; and the
    /// edge changes since the last barrier, which the barrier drains as
    /// one sorted run per shard and k-way merges into the global delta
    /// batch.
    pub(crate) pairs: PairTable,
}

impl EngineShard {
    /// Applies this shard's slice of one ingest segment, in stream
    /// order, describing all cross-shard effects. Every event lands in
    /// its entity's bins and ring; only an active entity's event counts
    /// beyond them, and a parked entity whose live records pass
    /// `min_records` activates.
    pub(crate) fn apply_events(
        &mut self,
        events: Vec<BinnedEvent>,
        min_records: usize,
        lsh: Option<&LshGeometry>,
    ) -> IngestEffects {
        let mut fx = IngestEffects::default();
        for b in events {
            let (side, entity, w, i) = (b.side, b.entity, b.w, b.side.idx());
            let (new_bins, sig_changed) = self.store(&b, lsh);
            if self.active[i].contains(&entity) {
                for c in new_bins {
                    fx.df[i].add_bin(w, c);
                }
                fx.domain = fx.domain.max(w.saturating_add(1));
                self.dirty[i].entry(entity).or_default().insert(w);
                self.active_windows.insert(w);
                if sig_changed {
                    fx.sig_changes.insert((side, entity));
                }
            } else if self.histories[i].num_records(entity) as usize > min_records {
                self.activate(side, entity, lsh.is_some(), &mut fx);
            }
        }
        fx
    }

    /// Appends one event to its entity's bins, window membership and
    /// ring, whether or not the entity is active — also the path that
    /// folds a version-1 checkpoint's min-records buffers in. Returns
    /// the cells that opened new bins and whether the ring's signature
    /// changed.
    pub(crate) fn store(
        &mut self,
        b: &BinnedEvent,
        lsh: Option<&LshGeometry>,
    ) -> (Vec<CellId>, bool) {
        let i = b.side.idx();
        let (new_bins, _) = self.histories[i].append(b.entity, b.w, &b.cells);
        self.window_entities.entry(b.w).or_default()[i].insert(b.entity);
        let sig_changed =
            lsh.is_some_and(|geom| self.rings.add(geom, b.side, b.entity, b.w, &b.lsh_cells));
        (new_bins, sig_changed)
    }

    /// Moves a parked entity past the min-records filter: its bins start
    /// to count. Walks its arena runs to emit what appending them one by
    /// one would have (the df delta, a dirty mark per window, the
    /// domain, a signature change) and records the activation for
    /// barrier-time candidate registration.
    fn activate(&mut self, side: Side, entity: EntityId, lsh: bool, fx: &mut IngestEffects) {
        let i = side.idx();
        self.active[i].insert(entity);
        if self.dead[i].remove(&entity) {
            fx.rebirths.push((side, entity));
        }
        let view = self.histories[i]
            .view(entity)
            .expect("an activating entity has bins");
        let dirty = self.dirty[i].entry(entity).or_default();
        fx.df[i].add_entity();
        for (w, cells, _) in view.runs() {
            for &c in cells {
                fx.df[i].add_bin(w, c);
            }
            dirty.insert(w);
            self.active_windows.insert(w);
            fx.domain = fx.domain.max(w.saturating_add(1));
        }
        if lsh {
            fx.sig_changes.insert((side, entity));
        }
        fx.activations.push((side, entity));
    }

    /// The per-band buckets an entity occupies in the bucket partitions:
    /// its ring's, while it is active; `None` (index removal) while it is
    /// parked or ringless.
    pub(crate) fn lsh_buckets(&self, side: Side, entity: EntityId) -> Option<&[Option<u64>]> {
        let active = self.active[side.idx()].contains(&entity);
        active.then(|| self.rings.buckets(side, entity)).flatten()
    }

    /// Expires every window below `keep_from` on this shard: evicts the
    /// affected bins and ring counts of every homed entity, and for an
    /// active one unwinds the df statistics, marks it dirty and demotes
    /// it once its live records fall to the min-records filter — all
    /// per-entity work, independent across shards.
    pub(crate) fn expire(
        &mut self,
        keep_from: WindowIdx,
        min_records: usize,
        lsh: Option<&LshGeometry>,
    ) -> ExpiryEffects {
        let mut fx = ExpiryEffects::default();
        let live = self.active_windows.split_off(&keep_from);
        fx.windows = std::mem::replace(&mut self.active_windows, live)
            .into_iter()
            .collect();
        let live = self.window_entities.split_off(&keep_from);
        for (win, sides) in std::mem::replace(&mut self.window_entities, live) {
            for side in [Side::Left, Side::Right] {
                let i = side.idx();
                for &e in &sides[i] {
                    let active = self.active[i].contains(&e);
                    let (bins, emptied) = self.histories[i].evict_window(e, win);
                    // Expiry can *change* a ring signature (a formerly
                    // dominated cell takes over the slot) — collisions
                    // surfacing from that are candidates like any other.
                    let sig_changed = lsh.is_some_and(|geom| self.rings.evict(geom, side, e, win));
                    if !active {
                        continue;
                    }
                    for &(c, _) in &bins {
                        fx.df[i].remove_bin(win, c);
                    }
                    if emptied {
                        fx.df[i].remove_entity();
                    }
                    self.dirty[i].entry(e).or_default().insert(win);
                    if sig_changed {
                        fx.sig_changes.insert((side, e));
                    }
                    // Approximate the batch filter on the *live* slice:
                    // an entity whose remaining records no longer exceed
                    // min_records would be excluded by `Slim::prepare`
                    // over the same window, so demote it. Its bins stop
                    // counting (the df delta unwinds them, counted in
                    // `StreamStats::demoted_records`) and its pairs die
                    // at the next tick, but the bins and the ring stay:
                    // they keep counting toward reactivation exactly
                    // like any other parked entity's, as the batch
                    // filter over the same live slice would.
                    let live = self.histories[i].num_records(e);
                    if live as usize <= min_records {
                        self.demote(side, e, lsh.is_some(), &mut fx);
                        fx.demoted_records += u64::from(live);
                    }
                }
            }
        }
        fx
    }

    /// Parks an active entity: unwinds its bins' df contribution, takes
    /// it out of the bucket partitions and marks it dead.
    fn demote(&mut self, side: Side, e: EntityId, lsh: bool, fx: &mut ExpiryEffects) {
        let i = side.idx();
        if let Some(view) = self.histories[i].view(e) {
            for (w, cells, _) in view.runs() {
                for &c in cells {
                    fx.df[i].remove_bin(w, c);
                }
            }
            fx.df[i].remove_entity();
        }
        if lsh && self.rings.buckets(side, e).is_some() {
            fx.sig_changes.insert((side, e));
        }
        self.active[i].remove(&e);
        self.dead[i].insert(e);
        self.dirty[i].remove(&e);
        fx.demoted_entities += 1;
    }

    /// Builds this tick's rescore jobs: every owned fresh pair (all
    /// common windows) plus every owned pair adjacent to a globally
    /// dirty entity (exactly the union of its endpoints' dirty
    /// windows). `dirty` is sorted by `(side, entity)`; the jobs come
    /// back sorted by slot, so a run of them covers a contiguous slot
    /// range that one rescore chunk can own.
    pub(crate) fn gather_jobs<'d>(
        &self,
        dirty: &'d [(Side, EntityId, Vec<WindowIdx>)],
    ) -> Vec<RescoreJob<'d>> {
        let (left, right) = dirty.split_at(dirty.partition_point(|&(s, ..)| s == Side::Left));
        let windows_of = |block: &'d [(Side, EntityId, Vec<WindowIdx>)], e: EntityId| {
            let at = block.binary_search_by_key(&e, |&(_, e, _)| e).ok()?;
            Some(block[at].2.as_slice())
        };
        let pairs = &self.pairs;
        // Fresh pairs are scored whole, so their adjacency is skipped;
        // between discovery bursts there are none to look for.
        let mut fresh = pairs.fresh().to_vec();
        fresh.sort_unstable();
        let stale = |slot: SlotId| fresh.is_empty() || fresh.binary_search(&slot).is_err();
        let mut jobs: Vec<RescoreJob> = fresh
            .iter()
            .map(|&slot| RescoreJob {
                slot,
                pair: pairs.slot(slot).pair,
                windows: None,
            })
            .collect();
        // A pair has one Left and one Right endpoint, so it is adjacent
        // to at most one dirty entity per side: its window list is the
        // union of those entities' lists.
        for (_, u, ws) in left {
            for &(slot, v) in pairs.pairs_of(Side::Left, *u) {
                if stale(slot) {
                    let other = windows_of(right, v).unwrap_or_default();
                    jobs.push(RescoreJob {
                        slot,
                        pair: (*u, v),
                        windows: Some([ws, other]),
                    });
                }
            }
        }
        for (_, v, ws) in right {
            for &(slot, u) in pairs.pairs_of(Side::Right, *v) {
                // A dirty Left endpoint already produced this pair's job.
                if stale(slot) && windows_of(left, u).is_none() {
                    jobs.push(RescoreJob {
                        slot,
                        pair: (u, *v),
                        windows: Some([&[], ws]),
                    });
                }
            }
        }
        jobs.sort_unstable_by_key(|job| job.slot);
        jobs
    }

    /// Absorbs one tick's rescore chunks — this shard's, in chunk
    /// order — into the owned pairs, then resets the fresh/dirty marks.
    /// Returns the `(pair, window)` contributions recomputed and the
    /// pairs whose cache ended the tick empty (the retirement
    /// candidates).
    pub(crate) fn finish_rescore(
        &mut self,
        chunks: Vec<SlotChanges>,
    ) -> (u64, Vec<(SlotId, PairKey)>) {
        let (mut rescored_windows, mut emptied) = (0, Vec::new());
        for mut changes in chunks {
            rescored_windows += changes.rescored_windows;
            emptied.append(&mut changes.emptied);
            self.pairs.absorb(changes);
        }
        self.pairs.clear_fresh();
        self.dirty[0].clear();
        self.dirty[1].clear();
        (rescored_windows, emptied)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A seeded xorshift generator: `next(n)` draws from `0..n`.
    fn xorshift(mut x: u64) -> impl FnMut(u64) -> u64 {
        move |n| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 33) % n
        }
    }

    /// Random patch sequences against a `BTreeMap` oracle (the cache's
    /// previous representation): tail inserts, mid-range inserts,
    /// overwrites, zero-drops of present and absent windows, the empty
    /// patch, all-zero wipes. The cache carries its fold mark as the
    /// engine's does. After every step the flat cache holds the
    /// oracle's entries, is empty exactly when the oracle is, the mark
    /// marks the patched cache, and the fold the patch returns — resumed
    /// from the mark, or from scratch when the patch reaches below it —
    /// equals the sum over the patched oracle bit for bit, and equals
    /// the fold and the mark of the same patch from an unmarked copy.
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

                let mut unmarked = CachedPair::from_windows(entry.windows.clone());
                let full = unmarked.patch(&patch);
                let folded = entry.patch(&patch);
                assert_eq!(
                    folded.to_bits(),
                    full.to_bits(),
                    "step {step}: resumed vs full"
                );
                assert!(
                    patch.is_empty() || entry.mark == unmarked.mark,
                    "step {step}: the mark must not depend on the path"
                );
                assert_eq!(folded.to_bits(), entry.full_fold().to_bits(), "step {step}");
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

    /// `gather_jobs` against a per-tick `HashMap<PairKey, BTreeSet>`
    /// union: same pairs, same slots, same window lists, in slot order —
    /// for pairs dirty on the Left, on the Right, on both, on neither,
    /// and fresh.
    #[test]
    fn gathered_jobs_are_the_union_of_the_endpoints_dirty_windows() {
        let mut next = xorshift(0x2545_F491_4F6C_DD1Du64);
        for round in 0..50 {
            let mut shard = EngineShard::default();
            for _ in 0..next(30) {
                let pair = (EntityId(next(6)), EntityId(next(6)));
                shard.pairs.insert(pair, CachedPair::default(), false);
            }
            // Some pairs are fresh, the rest have been scored before.
            let pairs: Vec<PairKey> = shard.pairs.slots().map(|(_, s)| s.pair).collect();
            for pair in pairs {
                if next(3) == 0 {
                    shard.pairs.restore_fresh(pair).unwrap();
                }
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

            let is_fresh = |pair: PairKey| shard.pairs.slot(shard.pairs.get(pair).unwrap()).fresh;
            let mut union: HashMap<PairKey, BTreeSet<WindowIdx>> = HashMap::new();
            for (side, e, windows) in &dirty {
                for &(slot, _) in shard.pairs.pairs_of(*side, *e) {
                    let pair = shard.pairs.slot(slot).pair;
                    if !is_fresh(pair) {
                        union.entry(pair).or_default().extend(windows);
                    }
                }
            }
            type Job = (PairKey, SlotId, Option<Vec<WindowIdx>>);
            let mut expected: Vec<Job> = shard
                .pairs
                .slots()
                .filter(|(_, s)| s.fresh)
                .map(|(id, s)| (s.pair, id, None))
                .collect();
            expected.extend(union.into_iter().map(|(p, ws)| {
                (
                    p,
                    shard.pairs.get(p).unwrap(),
                    Some(ws.into_iter().collect()),
                )
            }));
            expected.sort_unstable_by_key(|&(_, slot, _)| slot);

            let got: Vec<Job> = shard
                .gather_jobs(&dirty)
                .into_iter()
                .map(|job| {
                    let windows = job.windows.map(|[l, r]| union_sorted(l, r).collect());
                    (job.pair, job.slot, windows)
                })
                .collect();
            assert_eq!(got, expected, "round {round}, dirty {dirty:?}");
        }
    }

    /// Edge deltas against a `BTreeMap` last-write-wins reference (the
    /// run's previous representation): per tick, a few out-of-order
    /// writers — dead-endpoint drops, vanished endpoints, and
    /// registrations that reuse vacated slots — then a rescore in slot
    /// order, cut into chunks as the engine cuts it, then retirement. A
    /// write reaches the reference exactly when it changes the pair's
    /// served edge. After every tick the drained run
    /// (and the checkpoint's view of it) equals the reference, and the
    /// table stays consistent.
    #[test]
    fn edge_deltas_drain_like_a_last_write_wins_map() {
        struct Reference {
            writes: BTreeMap<PairKey, Option<f64>>,
            last: Option<PairKey>,
            unsorted: bool,
            overwrites: usize,
        }
        impl Reference {
            fn write(&mut self, pair: PairKey, old: Option<f64>, new: Option<f64>) {
                if old == new {
                    return;
                }
                self.unsorted |= self.last.is_some_and(|last| last >= pair);
                self.last = Some(pair);
                self.overwrites += usize::from(self.writes.insert(pair, new).is_some());
            }
        }
        let mut next = xorshift(0x5851_F42D_4C95_7F2Du64);
        let mut shard = EngineShard::default();
        let (mut unsorted_ticks, mut overwrites) = (0, 0);
        for tick in 0..400 {
            let mut reference = Reference {
                writes: BTreeMap::new(),
                last: None,
                unsorted: false,
                overwrites: 0,
            };
            let remove = |shard: &mut EngineShard, slot: SlotId, r: &mut Reference| {
                let edge = shard.pairs.slot(slot).edge;
                let pair = shard.pairs.remove(slot);
                r.write(pair, edge, None);
            };
            // Out-of-order writers before the apply.
            for _ in 0..next(4) {
                let pair = (EntityId(next(9)), EntityId(next(9)));
                match next(3) {
                    0 => {
                        shard.pairs.insert(pair, CachedPair::default(), true);
                    }
                    1 => {
                        let dead = shard.pairs.pairs_of(Side::Right, pair.1).to_vec();
                        for (slot, _) in dead {
                            remove(&mut shard, slot, &mut reference);
                        }
                    }
                    _ => {
                        if let Some(slot) = shard.pairs.get(pair) {
                            remove(&mut shard, slot, &mut reference);
                        }
                    }
                }
            }
            // The rescore: every fresh pair plus a random subset, in
            // slot order and random chunks, some vanishing, scores drawn
            // from a tiny palette so unchanged edges (no delta) are
            // common.
            let jobs: Vec<SlotId> = shard
                .pairs
                .slots()
                .filter(|(_, s)| s.fresh || next(2) == 0)
                .map(|(id, _)| id)
                .collect();
            let mut chunks = Vec::new();
            for chunk in jobs.chunks(1 + next(8) as usize) {
                let mut changes = SlotChanges::default();
                for &id in chunk {
                    let slot = shard.pairs.slots_mut()[id as usize].as_mut().unwrap();
                    let (pair, old) = (slot.pair, slot.edge);
                    if next(10) == 0 {
                        changes.vanished.push(id);
                        reference.write(pair, old, None);
                        continue;
                    }
                    let score = [0.0, 0.25, 0.5, 2.0][next(4) as usize];
                    let patch: PairWindows = match next(2) {
                        0 => vec![(next(5) as WindowIdx, 1.0)],
                        _ => Vec::new(),
                    };
                    slot.cached.patch(&patch);
                    changes.rescored_windows += patch.len() as u64;
                    slot.set_score(id, score, &mut changes);
                    reference.write(pair, old, (score > 0.0).then_some(score));
                }
                chunks.push(changes);
            }
            let (_, emptied) = shard.finish_rescore(chunks);
            // Retirement after the apply: some of the emptied pairs.
            for (slot, pair) in emptied {
                if next(2) == 0 {
                    assert_eq!(shard.pairs.slot(slot).pair, pair);
                    remove(&mut shard, slot, &mut reference);
                }
            }
            unsorted_ticks += usize::from(reference.unsorted);
            overwrites += reference.overwrites;
            let want: Vec<(PairKey, Option<f64>)> = reference.writes.into_iter().collect();
            assert_eq!(shard.pairs.edge_deltas(), want, "tick {tick}: export");
            assert_eq!(shard.pairs.take_edge_deltas(), want, "tick {tick}");
            if let Some(why) = shard.pairs.violation() {
                panic!("tick {tick}: {why}");
            }
        }
        // Runs came both in pair order and out of it, and pairs were
        // written twice in a tick.
        assert!(
            unsorted_ticks > 40 && unsorted_ticks < 360 && overwrites > 20,
            "{unsorted_ticks} unsorted ticks, {overwrites} overwrites"
        );
    }
}
