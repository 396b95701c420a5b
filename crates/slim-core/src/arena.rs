//! Columnar (struct-of-arrays) storage for mobility histories.
//!
//! A history is three parallel columns — the window of each bin
//! (ascending), its cell (sorted within a window run) and its record
//! count — and [`EntityView`] borrows them. A [`HistoryArena`] is the
//! one store of those columns: it holds *many* entities side by side —
//!
//! ```text
//! directory (per entity)        parallel column vecs
//! ┌─────────┬───────────────┐   wins:   [w0 w0 w1 w1 w1 | w0 w2 | …]
//! │ entity  │ off len cap   │   cells:  [c3 c9 c1 c4 c7 | c2 c5 | …]
//! │ 42      │ 0   5   8     │──► counts: [2  1  1  3  1 | 1  4  | …]
//! │ 17      │ 8   2   4     │   └── entity 42 ──┘ └─ 17 ─┘
//! └─────────┴───────────────┘
//! ```
//!
//! — with each entity a contiguous index range. The streaming engine
//! maintains its arenas record by record; a batch build
//! ([`crate::history::HistorySet::build`]) inserts each entity from all
//! its records at once and lands in the same columns, so one run walk
//! ([`EntityView::runs`], [`common_runs`]) and one scoring kernel read
//! both, to the same bits.
//!
//! * **Append** grows an entity in place while its range has slack and
//!   relocates it to the column tail with a doubled chunk otherwise
//!   (tail-chunk growth — an O(1) amortized copy, no global shifting).
//! * **Window eviction** is a *range advance* when the evicted window
//!   is the range's leading run (the common case: sliding-window expiry
//!   walks windows in ascending order), and an in-range shift
//!   otherwise.
//! * Abandoned slots (relocations, advanced-over prefixes, tombstoned
//!   entities) are reclaimed by a periodic **compaction** pass once
//!   they outnumber the live bins; [`HistoryArena::compactions`] counts
//!   the passes for telemetry.
//! * An entity evicted to empty is dropped: it leaves a tombstone in
//!   the directory whose **generation** counter is bumped if the entity
//!   returns — unit tests and (future) snapshot consumers can detect
//!   range reuse.

use geocell::CellId;

use crate::fasthash::FastMap;
use crate::history::visit_record_cells;
use crate::record::{EntityId, Record};
use crate::window::{WindowIdx, WindowScheme};

/// One window's bins as `(cell, record count)`, sorted by cell.
pub type CellCounts = Vec<(CellId, u32)>;

/// Smallest tail chunk allocated for a fresh or relocated entity.
const MIN_CHUNK: usize = 4;

/// Compaction floor: dead slots must exceed both this and the live bin
/// count before a pass runs, so small arenas never churn.
const COMPACT_MIN_DEAD: usize = 64;

/// Directory entry: one entity's contiguous column range plus the
/// per-window record counts eviction needs to unwind `num_records`.
#[derive(Debug, Clone, Default)]
struct EntitySlot {
    off: usize,
    len: usize,
    /// Physical slots reserved at `off` (`len ≤ cap`); the slack is
    /// in-place append room.
    cap: usize,
    /// Bumped every time an emptied entity is re-created.
    generation: u32,
    num_records: u32,
    /// Records per window, sorted by window.
    window_records: Vec<(WindowIdx, u32)>,
}

/// A struct-of-arrays arena holding the leaf bins of many mobility
/// histories. See the module docs for the layout.
#[derive(Debug, Clone, Default)]
pub struct HistoryArena {
    wins: Vec<WindowIdx>,
    cells: Vec<CellId>,
    counts: Vec<u32>,
    /// Keyed under [`crate::fasthash`]: every view, append and evict
    /// probes it.
    dir: FastMap<EntityId, EntitySlot>,
    /// Bins currently reachable through the directory.
    live_bins: usize,
    /// Physically abandoned slots (not reusable slack) awaiting
    /// compaction.
    dead_slots: usize,
    /// Directory entries that are not tombstones.
    live_entities: usize,
    compactions: u64,
}

/// A borrowed view of one entity's columns: `wins` ascending with one
/// entry per bin, `cells` sorted within each window run, `counts`
/// parallel to both. Equal views hold the same bins and record count;
/// the default view is a history without records.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EntityView<'a> {
    /// Window index of each bin (ascending, one entry per bin).
    pub wins: &'a [WindowIdx],
    /// Cell id of each bin (sorted within a window run).
    pub cells: &'a [CellId],
    /// Record count of each bin.
    pub counts: &'a [u32],
    pub(crate) num_records: u32,
}

/// The `(cells, counts)` column slices of one window run.
pub type Run<'a> = (&'a [CellId], &'a [u32]);

impl<'a> EntityView<'a> {
    /// Total bins, `|H_u|`.
    pub fn num_bins(&self) -> usize {
        self.wins.len()
    }

    /// Total records aggregated into this entity.
    pub fn num_records(&self) -> u32 {
        self.num_records
    }

    /// The `(cells, counts)` column slices of one window (both empty if
    /// the window has no bins).
    pub fn window_run(&self, w: WindowIdx) -> Run<'a> {
        let (r0, r1) = run_bounds(self.wins, w);
        (&self.cells[r0..r1], &self.counts[r0..r1])
    }

    /// Every non-empty window with its run, windows ascending — one pass
    /// over the columns, no lookups.
    pub fn runs(&self) -> impl Iterator<Item = (WindowIdx, &'a [CellId], &'a [u32])> + 'a {
        let view = *self;
        let mut i = 0;
        std::iter::from_fn(move || {
            let w = *view.wins.get(i)?;
            let start = i;
            i += run_len(&view.wins[i..], w);
            Some((w, &view.cells[start..i], &view.counts[start..i]))
        })
    }

    /// Non-empty windows, ascending.
    pub fn windows(&self) -> impl Iterator<Item = WindowIdx> + 'a {
        self.runs().map(|(w, ..)| w)
    }
}

/// How many leading entries of `wins` equal `w`. Runs are short (about
/// one and a half bins a window on dense data), so a scan beats a
/// binary search for the end.
fn run_len(wins: &[WindowIdx], w: WindowIdx) -> usize {
    wins.iter().take_while(|&&x| x == w).count()
}

/// The index range of window `w`'s run in an ascending window column
/// (empty, at the insertion point, if `w` has no bins).
fn run_bounds(wins: &[WindowIdx], w: WindowIdx) -> (usize, usize) {
    let r0 = wins.partition_point(|&x| x < w);
    (r0, r0 + run_len(&wins[r0..], w))
}

/// Calls `f(w, run_u, run_v)` for every window common to both views,
/// ascending — one linear merge over the two window columns. The batch
/// scorer and the streaming engine's fresh pairs both walk pairs
/// through it.
pub fn common_runs<'a>(
    u: &EntityView<'a>,
    v: &EntityView<'a>,
    mut f: impl FnMut(WindowIdx, Run<'a>, Run<'a>),
) {
    let (mut i, mut j) = (0, 0);
    while i < u.wins.len() && j < v.wins.len() {
        // Consume the smaller window's run on each side that holds it.
        let w = u.wins[i].min(v.wins[j]);
        let (iu, jv) = (i + run_len(&u.wins[i..], w), j + run_len(&v.wins[j..], w));
        if iu > i && jv > j {
            f(
                w,
                (&u.cells[i..iu], &u.counts[i..iu]),
                (&v.cells[j..jv], &v.counts[j..jv]),
            );
        }
        (i, j) = (iu, jv);
    }
}

impl HistoryArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one record's bins to `e` (creating or resurrecting the
    /// entity as needed): `cells` must be sorted and deduplicated
    /// ([`crate::history::record_cells`] output), `w` the record's
    /// window. Leaves the cells that created *new* bins (for document-
    /// frequency maintenance) in `new_bins`, which it clears first, so a
    /// caller that reuses the buffer appends without allocating; returns
    /// whether the entity was created by this call.
    pub fn append(
        &mut self,
        e: EntityId,
        w: WindowIdx,
        cells: &[CellId],
        new_bins: &mut Vec<CellId>,
    ) -> bool {
        let created = match self.dir.get_mut(&e) {
            Some(slot) if slot.len > 0 => false,
            Some(slot) => {
                // A tombstone (no bins, no slack): resurrect under a
                // new generation.
                slot.generation += 1;
                slot.off = self.wins.len();
                true
            }
            None => {
                self.dir.insert(
                    e,
                    EntitySlot {
                        off: self.wins.len(),
                        ..EntitySlot::default()
                    },
                );
                true
            }
        };
        if created {
            self.live_entities += 1;
        }
        new_bins.clear();
        for &c in cells {
            if self.insert_bin(e, w, c) {
                new_bins.push(c);
            }
        }
        let slot = self.dir.get_mut(&e).expect("slot created above");
        slot.num_records += 1;
        match slot
            .window_records
            .binary_search_by_key(&w, |&(win, _)| win)
        {
            Ok(i) => slot.window_records[i].1 += 1,
            Err(i) => slot.window_records.insert(i, (w, 1)),
        }
        self.maybe_compact();
        created
    }

    /// Bumps the bin `(e, w, c)` or inserts it; `true` if inserted.
    fn insert_bin(&mut self, e: EntityId, w: WindowIdx, c: CellId) -> bool {
        let slot = &self.dir[&e];
        let (off, len) = (slot.off, slot.len);
        let (r0, r1) = run_bounds(&self.wins[off..off + len], w);
        match self.cells[off + r0..off + r1].binary_search(&c) {
            Ok(i) => {
                self.counts[off + r0 + i] += 1;
                false
            }
            Err(i) => {
                self.insert_slot(e, r0 + i, w, c);
                true
            }
        }
    }

    /// Inserts a new bin at range-relative position `pos`, shifting
    /// within the slack when there is room and relocating the entity to
    /// the column tail with a doubled chunk otherwise.
    fn insert_slot(&mut self, e: EntityId, pos: usize, w: WindowIdx, c: CellId) {
        let slot = self.dir.get_mut(&e).expect("slot exists");
        let (off, len, cap) = (slot.off, slot.len, slot.cap);
        if len < cap {
            let abs = off + pos;
            self.wins.copy_within(abs..off + len, abs + 1);
            self.cells.copy_within(abs..off + len, abs + 1);
            self.counts.copy_within(abs..off + len, abs + 1);
            self.wins[abs] = w;
            self.cells[abs] = c;
            self.counts[abs] = 1;
            slot.len += 1;
        } else {
            // Tail-chunk growth: copy the range to the tail with the
            // new bin spliced in and a doubled slack behind it. The
            // slack is filled with copies of the inserted bin — never
            // read until overwritten.
            let new_cap = (len + 1).next_power_of_two().max(MIN_CHUNK);
            let new_off = self.wins.len();
            self.wins.extend_from_within(off..off + pos);
            self.cells.extend_from_within(off..off + pos);
            self.counts.extend_from_within(off..off + pos);
            self.wins.push(w);
            self.cells.push(c);
            self.counts.push(1);
            self.wins.extend_from_within(off + pos..off + len);
            self.cells.extend_from_within(off + pos..off + len);
            self.counts.extend_from_within(off + pos..off + len);
            self.wins.resize(new_off + new_cap, w);
            self.cells.resize(new_off + new_cap, c);
            self.counts.resize(new_off + new_cap, 0);
            self.dead_slots += cap;
            let slot = self.dir.get_mut(&e).expect("slot exists");
            slot.off = new_off;
            slot.len = len + 1;
            slot.cap = new_cap;
        }
        self.live_bins += 1;
    }

    /// Drops every bin of window `w` from entity `e`, unwinding the
    /// record counters, and drops the entity itself when that was its
    /// last window. Returns the removed bins (sorted by cell, for
    /// document-frequency maintenance) and whether the entity was
    /// removed; absent entities and windows yield `(empty, false)`.
    pub fn evict_window(&mut self, e: EntityId, w: WindowIdx) -> (CellCounts, bool) {
        let Some(slot) = self.dir.get_mut(&e) else {
            return (CellCounts::new(), false);
        };
        let (off, len) = (slot.off, slot.len);
        let (r0, r1) = run_bounds(&self.wins[off..off + len], w);
        if r0 == r1 {
            return (CellCounts::new(), false);
        }
        let run = r1 - r0;
        let out: CellCounts = (off + r0..off + r1)
            .map(|i| (self.cells[i], self.counts[i]))
            .collect();
        if r0 == 0 {
            // Range advance: expiry walks windows in ascending order,
            // so the evicted run is almost always the leading one.
            slot.off += run;
            slot.cap -= run;
            self.dead_slots += run;
        } else {
            // Mid-range eviction: shift the tail left; the freed slots
            // become slack at the end of the range.
            self.wins.copy_within(off + r1..off + len, off + r0);
            self.cells.copy_within(off + r1..off + len, off + r0);
            self.counts.copy_within(off + r1..off + len, off + r0);
        }
        slot.len -= run;
        if let Ok(i) = slot
            .window_records
            .binary_search_by_key(&w, |&(win, _)| win)
        {
            let (_, cnt) = slot.window_records.remove(i);
            slot.num_records -= cnt;
        }
        let emptied = slot.len == 0;
        if emptied {
            self.live_entities -= 1;
        }
        self.live_bins -= run;
        self.maybe_compact();
        if emptied {
            // The directory entry stays as a tombstone (preserving the
            // generation counter); its slack is abandoned. Compaction
            // is checked once for the evicted run and once for the
            // slack: `compactions()` feeds a pinned engine counter, so
            // the two checks are not folded into one.
            let slot = self.dir.get_mut(&e).expect("evicted above");
            self.dead_slots += slot.cap;
            slot.cap = 0;
            self.maybe_compact();
        }
        (out, emptied)
    }

    /// The live view of `e`'s columns, `None` for absent or tombstoned
    /// entities.
    pub fn view(&self, e: EntityId) -> Option<EntityView<'_>> {
        let slot = self.dir.get(&e)?;
        if slot.len == 0 {
            return None;
        }
        Some(EntityView {
            wins: &self.wins[slot.off..slot.off + slot.len],
            cells: &self.cells[slot.off..slot.off + slot.len],
            counts: &self.counts[slot.off..slot.off + slot.len],
            num_records: slot.num_records,
        })
    }

    /// Total records of `e` (0 for absent/tombstoned entities).
    pub fn num_records(&self, e: EntityId) -> u32 {
        self.dir.get(&e).map(|s| s.num_records).unwrap_or(0)
    }

    /// The generation of `e`'s directory entry (0 on first creation,
    /// bumped per tombstone resurrection); `None` if never seen.
    pub fn generation(&self, e: EntityId) -> Option<u32> {
        self.dir.get(&e).map(|s| s.generation)
    }

    /// Number of live entities.
    pub fn len(&self) -> usize {
        self.live_entities
    }

    /// Whether the arena holds no live entities.
    pub fn is_empty(&self) -> bool {
        self.live_entities == 0
    }

    /// Live entity ids, unordered.
    pub fn entities(&self) -> impl Iterator<Item = EntityId> + '_ {
        self.dir.iter().filter(|(_, s)| s.len > 0).map(|(&e, _)| e)
    }

    /// Compaction passes run so far.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// One entity's live columns plus the per-window record counts,
    /// borrowed — the checkpoint-serialization export. The columns are
    /// exactly what [`HistoryArena::view`] exposes, so
    /// [`HistoryArena::restore_entity`] round-trips them
    /// bit-identically. `None` for absent/tombstoned entities.
    pub fn export_entity(&self, e: EntityId) -> Option<(EntityView<'_>, &[(WindowIdx, u32)])> {
        Some((self.view(e)?, &self.dir[&e].window_records))
    }

    /// Inserts one entity built from all its records at once — the batch
    /// build. Each record counts in its window under `scheme`, clamped
    /// to the last of `domain` windows, and in every cell of
    /// [`crate::history::record_cells`] at `level`. The columns land
    /// contiguously at the tail, exactly as appending the records one by
    /// one in any order would leave them. `records` must not be empty
    /// and the entity must not already exist.
    pub(crate) fn insert_entity(
        &mut self,
        e: EntityId,
        records: &[Record],
        scheme: &WindowScheme,
        level: u8,
        domain: u32,
    ) {
        // Every (window, cell) occurrence, sorted: a bin is a run of
        // equal pairs and its record count the run's length.
        let last_window = domain.saturating_sub(1);
        let mut windows = Vec::with_capacity(records.len());
        let mut occurrences: Vec<(WindowIdx, CellId)> = Vec::with_capacity(records.len());
        for r in records {
            let w = scheme.window_of(r.time).min(last_window);
            windows.push(w);
            visit_record_cells(r, level, |cell| occurrences.push((w, cell)));
        }
        occurrences.sort_unstable();
        windows.sort_unstable();
        let off = self.wins.len();
        for bin in occurrences.chunk_by(|a, b| a == b) {
            let (w, cell) = bin[0];
            self.wins.push(w);
            self.cells.push(cell);
            self.counts.push(bin.len() as u32);
        }
        let window_records = windows.chunk_by(|a, b| a == b);
        let window_records = window_records.map(|run| (run[0], run.len() as u32));
        self.seal_entity(e, off, window_records.collect());
    }

    /// Restores one entity from a [`HistoryArena::export_entity`] dump:
    /// the columns land contiguously at the tail (no slack, generation
    /// 0) and the counters are rebuilt, so a recovered arena answers
    /// every query exactly like the checkpointed one. The entity must
    /// not already exist (recovery fills a fresh arena).
    pub fn restore_entity(
        &mut self,
        e: EntityId,
        wins: &[WindowIdx],
        cells: &[CellId],
        counts: &[u32],
        window_records: Vec<(WindowIdx, u32)>,
    ) {
        let n = wins.len();
        debug_assert!(cells.len() == n && counts.len() == n, "ragged columns");
        let off = self.wins.len();
        self.wins.extend_from_slice(wins);
        self.cells.extend_from_slice(cells);
        self.counts.extend_from_slice(counts);
        self.seal_entity(e, off, window_records);
    }

    /// Files the columns from `off` to the tail as `e`'s range — no
    /// slack, generation 0 — with its per-window record counts.
    fn seal_entity(&mut self, e: EntityId, off: usize, window_records: Vec<(WindowIdx, u32)>) {
        let n = self.wins.len() - off;
        debug_assert!(n > 0, "an entity without bins");
        debug_assert!(!self.dir.contains_key(&e), "entity inserted twice");
        let slot = EntitySlot {
            off,
            len: n,
            cap: n,
            generation: 0,
            num_records: window_records.iter().map(|&(_, c)| c).sum(),
            window_records,
        };
        self.dir.insert(e, slot);
        self.live_bins += n;
        self.live_entities += 1;
    }

    fn maybe_compact(&mut self) {
        if self.dead_slots >= COMPACT_MIN_DEAD && self.dead_slots > self.live_bins {
            self.compact();
        }
    }

    /// Rewrites the columns with every live range contiguous (in
    /// current-offset order) and no slack, dropping all dead slots.
    pub fn compact(&mut self) {
        let mut order: Vec<EntityId> = self
            .dir
            .iter()
            .filter(|(_, s)| s.len > 0)
            .map(|(&e, _)| e)
            .collect();
        order.sort_unstable_by_key(|e| self.dir[e].off);
        let mut wins = Vec::with_capacity(self.live_bins);
        let mut cells = Vec::with_capacity(self.live_bins);
        let mut counts = Vec::with_capacity(self.live_bins);
        for e in order {
            let slot = self.dir.get_mut(&e).expect("collected above");
            let (off, len) = (slot.off, slot.len);
            slot.off = wins.len();
            slot.cap = len;
            wins.extend_from_slice(&self.wins[off..off + len]);
            cells.extend_from_slice(&self.cells[off..off + len]);
            counts.extend_from_slice(&self.counts[off..off + len]);
        }
        self.wins = wins;
        self.cells = cells;
        self.counts = counts;
        self.dead_slots = 0;
        self.compactions += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    use geocell::LatLng;

    fn cell(k: u64) -> CellId {
        CellId::from_latlng(
            LatLng::from_degrees(10.0 + 0.01 * k as f64, 20.0 + 0.01 * k as f64),
            16,
        )
    }

    fn sorted(mut v: Vec<CellId>) -> Vec<CellId> {
        v.sort_unstable();
        v.dedup();
        v
    }

    /// The plain model the arena is held to: bin counts and per-window
    /// record counts in ordered maps, turned into a history's columns.
    #[derive(Default)]
    struct Model {
        bins: BTreeMap<(WindowIdx, CellId), u32>,
        records: BTreeMap<WindowIdx, u32>,
    }

    impl Model {
        /// Counts one record; returns the cells that created new bins.
        fn append(&mut self, w: WindowIdx, cells: &[CellId]) -> Vec<CellId> {
            *self.records.entry(w).or_insert(0) += 1;
            let mut new_bins = Vec::new();
            for &c in cells {
                let n = self.bins.entry((w, c)).or_insert(0);
                *n += 1;
                if *n == 1 {
                    new_bins.push(c);
                }
            }
            new_bins
        }

        /// Drops window `w`; returns its bins, sorted by cell.
        fn evict(&mut self, w: WindowIdx) -> CellCounts {
            self.records.remove(&w);
            let of_w = self.bins.iter().filter(|(&(bw, _), _)| bw == w);
            let out = of_w.map(|(&(_, c), &n)| (c, n)).collect();
            self.bins.retain(|&(bw, _), _| bw != w);
            out
        }

        /// The model's history as the only entity of an arena.
        fn arena(&self, e: EntityId) -> HistoryArena {
            let wins: Vec<_> = self.bins.keys().map(|&(w, _)| w).collect();
            let cells: Vec<_> = self.bins.keys().map(|&(_, c)| c).collect();
            let counts: Vec<_> = self.bins.values().copied().collect();
            let records = self.records.iter().map(|(&w, &n)| (w, n)).collect();
            let mut arena = HistoryArena::new();
            arena.restore_entity(e, &wins, &cells, &counts, records);
            arena
        }
    }

    /// Appends must mirror the model bin for bin.
    #[test]
    fn append_matches_mobility_history() {
        let mut arena = HistoryArena::new();
        let mut model = Model::default();
        let records: Vec<(WindowIdx, Vec<CellId>)> = vec![
            (3, sorted(vec![cell(1)])),
            (1, sorted(vec![cell(2), cell(3)])),
            (3, sorted(vec![cell(1), cell(4)])),
            (2, sorted(vec![cell(5)])),
            (1, sorted(vec![cell(2)])),
        ];
        // One buffer for every append: each call reports only its own
        // new bins.
        let mut new_a = Vec::new();
        for (w, cells) in &records {
            arena.append(EntityId(1), *w, cells, &mut new_a);
            let new_h = model.append(*w, cells);
            assert_eq!(new_a, new_h, "new-bin reports must agree");
        }
        let h = model.arena(EntityId(1));
        let v = arena.view(EntityId(1)).unwrap();
        assert_eq!(Some(v), h.view(EntityId(1)));
        assert_eq!(v.windows().collect::<Vec<_>>(), vec![1, 2, 3]);
        let runs: Vec<_> = v.runs().collect();
        for (w, cells, counts) in runs {
            assert_eq!(v.window_run(w), (cells, counts), "window {w}");
        }
        // Absent windows yield empty runs.
        for w in [0, 4, 99] {
            assert_eq!(v.window_run(w), (&[][..], &[][..]), "window {w}");
        }
    }

    /// Evicting the leading window advances the range; evicting a
    /// middle window shifts — both must match the model.
    #[test]
    fn evict_matches_mobility_history() {
        let mut arena = HistoryArena::new();
        let mut model = Model::default();
        for w in 0..5u32 {
            let cs = sorted(vec![cell(w as u64), cell(w as u64 + 1)]);
            arena.append(EntityId(7), w, &cs, &mut Vec::new());
            model.append(w, &cs);
        }
        // Leading run (range advance).
        assert_eq!(arena.evict_window(EntityId(7), 0), (model.evict(0), false));
        // Mid-range run (shift).
        assert_eq!(arena.evict_window(EntityId(7), 3), (model.evict(3), false));
        // Absent window is a no-op on both.
        assert_eq!(arena.evict_window(EntityId(7), 3), (model.evict(3), false));
        let h = model.arena(EntityId(7));
        let v = arena.view(EntityId(7)).unwrap();
        assert_eq!(Some(v), h.view(EntityId(7)));
        assert_eq!(v.windows().collect::<Vec<_>>(), vec![1, 2, 4]);
    }

    #[test]
    fn tombstone_and_generation_reuse() {
        let mut arena = HistoryArena::new();
        let cs = sorted(vec![cell(1)]);
        arena.append(EntityId(5), 0, &cs, &mut Vec::new());
        assert_eq!(arena.generation(EntityId(5)), Some(0));
        assert_eq!(arena.len(), 1);
        // Evicting the last window removes the entity.
        assert_eq!(arena.evict_window(EntityId(5), 0), (vec![(cs[0], 1)], true));
        assert!(arena.view(EntityId(5)).is_none());
        assert_eq!(arena.num_records(EntityId(5)), 0);
        assert_eq!(arena.len(), 0);
        // A second eviction is a no-op.
        assert_eq!(arena.evict_window(EntityId(5), 0), (Vec::new(), false));
        // Resurrection bumps the generation and reports creation.
        let created = arena.append(EntityId(5), 9, &cs, &mut Vec::new());
        assert!(created);
        assert_eq!(arena.generation(EntityId(5)), Some(1));
        assert_eq!(arena.len(), 1);
        assert_eq!(
            arena
                .view(EntityId(5))
                .unwrap()
                .windows()
                .collect::<Vec<_>>(),
            vec![9]
        );
    }

    /// Eviction churn beyond the floor triggers compaction, and a
    /// compacted arena answers every query unchanged.
    #[test]
    fn compaction_preserves_content() {
        let mut arena = HistoryArena::new();
        let mut models: Vec<Model> = Vec::new();
        for e in 0..8u64 {
            let mut model = Model::default();
            for w in 0..40u32 {
                let cs = sorted(vec![cell(e * 100 + w as u64)]);
                arena.append(EntityId(e), w, &cs, &mut Vec::new());
                model.append(w, &cs);
            }
            models.push(model);
        }
        // Slide a window over everything: lots of leading-run advances.
        for w in 0..35u32 {
            for e in 0..8u64 {
                arena.evict_window(EntityId(e), w);
                models[e as usize].evict(w);
            }
        }
        assert!(arena.compactions() > 0, "churn must have compacted");
        for e in 0..8u64 {
            let h = models[e as usize].arena(EntityId(e));
            assert_eq!(arena.view(EntityId(e)), h.view(EntityId(e)));
        }
        // Appending after compaction still works (ranges relocated).
        let mut new_bins = Vec::new();
        let created = arena.append(EntityId(3), 50, &sorted(vec![cell(999)]), &mut new_bins);
        assert!(!created);
        assert_eq!(new_bins.len(), 1);
    }

    /// An entity inserted from all its records at once holds the columns
    /// and per-window record counts that appending the same records one
    /// by one, in arrival order, leaves behind.
    #[test]
    fn batch_insert_matches_record_appends() {
        use crate::history::record_cells;
        use crate::record::Timestamp;

        let scheme = WindowScheme::new(Timestamp(0), 900);
        let center = LatLng::from_degrees(37.0, -122.0);
        // Out of time order, repeated cells, region records over several
        // cells, and several bins in most windows.
        let records: Vec<Record> = (0..40i64)
            .map(|k| {
                let at = center.offset(150.0 * (k % 5) as f64, k as f64);
                let t = Timestamp((k * 7 % 40) * 400);
                Record::with_accuracy(EntityId(2), at, t, (k % 3) as f64 * 120.0)
            })
            .collect();
        let mut arena = HistoryArena::new();
        let mut model = Model::default();
        for r in &records {
            let (w, cells) = (scheme.window_of(r.time), record_cells(r, 16));
            arena.append(EntityId(2), w, &cells, &mut Vec::new());
            model.append(w, &cells);
        }
        let mut built = HistoryArena::new();
        built.insert_entity(EntityId(2), &records, &scheme, 16, 64);
        let v = built.view(EntityId(2)).unwrap();
        assert_eq!(
            built.export_entity(EntityId(2)),
            arena.export_entity(EntityId(2))
        );
        assert_eq!(Some(v), model.arena(EntityId(2)).view(EntityId(2)));
        assert!(v.windows().count() > 5 && v.num_bins() > 20);
        assert_eq!(v.num_records(), 40);
        assert_eq!((built.len(), built.view(EntityId(99))), (1, None));
    }
}
