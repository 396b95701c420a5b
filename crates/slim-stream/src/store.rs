//! The shard-level history store: one representation switch between
//! the classic per-entity structs and the columnar arena.
//!
//! Every [`crate::shard::EngineShard`] owns two of these (one per
//! side). The engine code talks exclusively to this façade, so the
//! storage representation ([`StorageMode`]) is invisible above it: both
//! modes maintain the identical observable history content, and the
//! scoring helpers at the bottom of this module run the identical
//! floating-point sequences over either layout (see
//! `tests/arena_equivalence.rs` for the property pinning this).

use std::borrow::Cow;
use std::collections::HashMap;

use geocell::CellId;
use slim_core::arena::{EntityView, HistoryArena};
use slim_core::similarity::{common_windows, SimilarityScorer};
use slim_core::tree::CellCounts;
use slim_core::{EntityId, LinkageStats, MobilityHistory, WindowIdx};

use crate::config::StorageMode;

/// One side's history storage on one shard.
#[derive(Debug)]
pub(crate) enum HistoryStore {
    /// `HashMap<EntityId, MobilityHistory>` — the equivalence baseline.
    Legacy(HashMap<EntityId, MobilityHistory>),
    /// Struct-of-arrays columnar arena.
    Arena(HistoryArena),
}

impl HistoryStore {
    pub(crate) fn new(mode: StorageMode) -> Self {
        match mode {
            StorageMode::Legacy => Self::Legacy(HashMap::new()),
            StorageMode::Arena => Self::Arena(HistoryArena::new()),
        }
    }

    /// Appends one record's bins (creating the entity on first touch).
    /// Returns the cells that created new bins plus whether the entity
    /// was created — exactly the df-maintenance contract of
    /// [`MobilityHistory::append`] behind an entry-or-insert.
    pub(crate) fn append(
        &mut self,
        e: EntityId,
        w: WindowIdx,
        cells: &[CellId],
    ) -> (Vec<CellId>, bool) {
        match self {
            Self::Legacy(map) => {
                let mut created = false;
                let h = map.entry(e).or_insert_with(|| {
                    created = true;
                    MobilityHistory::empty(e)
                });
                (h.append(w, cells), created)
            }
            Self::Arena(arena) => arena.append(e, w, cells),
        }
    }

    /// Evicts one window of one entity, removing the entity entirely
    /// when its history empties. Returns the evicted bins and whether
    /// the entity was removed.
    pub(crate) fn evict_window(&mut self, e: EntityId, w: WindowIdx) -> (CellCounts, bool) {
        match self {
            Self::Legacy(map) => {
                let Some(h) = map.get_mut(&e) else {
                    return (CellCounts::new(), false);
                };
                let bins = h.evict_window(w);
                let emptied = h.num_records() == 0;
                if emptied {
                    map.remove(&e);
                }
                (bins, emptied)
            }
            Self::Arena(arena) => {
                if arena.view(e).is_none() {
                    return (CellCounts::new(), false);
                }
                let bins = arena.evict_window(e, w);
                let emptied = arena.num_records(e) == 0;
                if emptied {
                    arena.remove_entity(e);
                }
                (bins, emptied)
            }
        }
    }

    /// Whether the entity has live history content.
    pub(crate) fn contains(&self, e: EntityId) -> bool {
        match self {
            Self::Legacy(map) => map.contains_key(&e),
            Self::Arena(arena) => arena.view(e).is_some(),
        }
    }

    /// Total records of the entity (0 when absent).
    pub(crate) fn num_records(&self, e: EntityId) -> u32 {
        match self {
            Self::Legacy(map) => map.get(&e).map(|h| h.num_records()).unwrap_or(0),
            Self::Arena(arena) => arena.num_records(e),
        }
    }

    /// The entity's non-empty windows, ascending (empty when absent).
    pub(crate) fn windows_of(&self, e: EntityId) -> Vec<WindowIdx> {
        match self {
            Self::Legacy(map) => map
                .get(&e)
                .map(|h| h.windows().collect())
                .unwrap_or_default(),
            Self::Arena(arena) => arena
                .view(e)
                .map(|v| v.windows().collect())
                .unwrap_or_default(),
        }
    }

    /// A borrowed scoring view of the entity's history.
    pub(crate) fn view(&self, e: EntityId) -> Option<HistoryView<'_>> {
        match self {
            Self::Legacy(map) => map.get(&e).map(HistoryView::Legacy),
            Self::Arena(arena) => arena.view(e).map(HistoryView::Arena),
        }
    }

    /// Number of live entities.
    pub(crate) fn len(&self) -> usize {
        match self {
            Self::Legacy(map) => map.len(),
            Self::Arena(arena) => arena.len(),
        }
    }

    /// Live entity ids, unordered.
    pub(crate) fn entity_ids(&self) -> Vec<EntityId> {
        match self {
            Self::Legacy(map) => map.keys().copied().collect(),
            Self::Arena(arena) => arena.entities().collect(),
        }
    }

    /// An owned [`MobilityHistory`] of the entity (a clone for the
    /// legacy layout, a materialization for the arena).
    pub(crate) fn materialize(&self, e: EntityId) -> Option<MobilityHistory> {
        match self {
            Self::Legacy(map) => map.get(&e).cloned(),
            Self::Arena(arena) => arena.materialize(e),
        }
    }

    /// Owned histories of every live entity — the finalize-clone path.
    pub(crate) fn materialize_all(&self) -> HashMap<EntityId, MobilityHistory> {
        match self {
            Self::Legacy(map) => map.clone(),
            Self::Arena(arena) => arena
                .entities()
                .map(|e| (e, arena.materialize(e).expect("entity is live")))
                .collect(),
        }
    }

    /// Drains the store into owned histories (the consuming finalize).
    pub(crate) fn drain_map(&mut self) -> HashMap<EntityId, MobilityHistory> {
        match self {
            Self::Legacy(map) => std::mem::take(map),
            Self::Arena(arena) => {
                let out = arena
                    .entities()
                    .map(|e| (e, arena.materialize(e).expect("entity is live")))
                    .collect();
                *arena = HistoryArena::new();
                out
            }
        }
    }

    /// Arena compaction passes (0 for the legacy layout).
    pub(crate) fn compactions(&self) -> u64 {
        match self {
            Self::Legacy(_) => 0,
            Self::Arena(arena) => arena.compactions(),
        }
    }

    /// One entity's history as canonical columns — the checkpoint
    /// export, representation-independent: both layouts yield the same
    /// `wins` ascending / cells-sorted-per-run columns plus the true
    /// per-window record counts. The arena lends its column ranges; the
    /// legacy layout has no columns to lend and builds them. `None`
    /// when absent.
    pub(crate) fn export_entity(&self, e: EntityId) -> Option<HistoryDump<'_>> {
        match self {
            Self::Legacy(map) => {
                let h = map.get(&e)?;
                let (mut wins, mut cells, mut counts) = (Vec::new(), Vec::new(), Vec::new());
                for w in h.windows() {
                    for &(c, n) in h.bins_in(w) {
                        wins.push(w);
                        cells.push(c);
                        counts.push(n);
                    }
                }
                Some(HistoryDump {
                    wins: wins.into(),
                    cells: cells.into(),
                    counts: counts.into(),
                    window_records: h.window_record_counts().collect(),
                })
            }
            Self::Arena(arena) => {
                let (view, window_records) = arena.export_entity(e)?;
                Some(HistoryDump {
                    wins: view.wins.into(),
                    cells: view.cells.into(),
                    counts: view.counts.into(),
                    window_records: window_records.into(),
                })
            }
        }
    }

    /// Restores one entity from a [`HistoryStore::export_entity`] dump
    /// into a fresh store — the recovery inverse; round-trips
    /// bit-identically for either layout.
    pub(crate) fn restore_entity(&mut self, e: EntityId, dump: HistoryDump<'_>) {
        match self {
            Self::Legacy(map) => {
                let mut leaves: std::collections::BTreeMap<WindowIdx, CellCounts> =
                    std::collections::BTreeMap::new();
                for i in 0..dump.wins.len() {
                    leaves
                        .entry(dump.wins[i])
                        .or_default()
                        .push((dump.cells[i], dump.counts[i]));
                }
                let window_records = dump.window_records.iter().copied().collect();
                map.insert(e, MobilityHistory::from_leaves(e, leaves, window_records));
            }
            Self::Arena(arena) => {
                let records = dump.window_records.into_owned();
                arena.restore_entity(e, &dump.wins, &dump.cells, &dump.counts, records);
            }
        }
    }
}

/// One entity's history in canonical column form: `wins` ascending with
/// one entry per bin, `cells` sorted within each window run, `counts`
/// parallel, plus the true per-window record counts (they differ from
/// the bin-count sum for region records). The layout-independent unit a
/// checkpoint serializes: borrowed from a live arena on the write path,
/// owned when decoded from a file.
#[derive(Debug, Clone, Default)]
pub(crate) struct HistoryDump<'a> {
    pub(crate) wins: Cow<'a, [WindowIdx]>,
    pub(crate) cells: Cow<'a, [CellId]>,
    pub(crate) counts: Cow<'a, [u32]>,
    pub(crate) window_records: Cow<'a, [(WindowIdx, u32)]>,
}

/// A borrowed history usable by the rescore kernel: either a per-entity
/// struct or an arena column range.
#[derive(Debug, Clone, Copy)]
pub(crate) enum HistoryView<'a> {
    Legacy(&'a MobilityHistory),
    Arena(EntityView<'a>),
}

impl HistoryView<'_> {
    /// Total bins `|H_u|` (feeds the pair length normalization).
    pub(crate) fn num_bins(&self) -> usize {
        match self {
            Self::Legacy(h) => h.num_bins(),
            Self::Arena(v) => v.num_bins(),
        }
    }
}

/// Window indices present in both views, ascending — dispatches to the
/// layout-native merge (the two layouts store the same sorted window
/// sequences, so the result is identical).
pub(crate) fn common_windows_of(u: &HistoryView<'_>, v: &HistoryView<'_>) -> Vec<WindowIdx> {
    match (u, v) {
        (HistoryView::Legacy(hu), HistoryView::Legacy(hv)) => common_windows(hu, hv).collect(),
        (HistoryView::Arena(vu), HistoryView::Arena(vv)) => {
            let mut out = Vec::new();
            for_common_runs(vu, vv, |w, _, _| out.push(w));
            out
        }
        _ => unreachable!("both sides of an engine share one storage mode"),
    }
}

/// One window's unnormalized contribution, computed through the
/// layout's native access path — bit-identical between layouts (the
/// arena path hands the scorer the same sorted cell/count content
/// `bins_in` would, through
/// [`SimilarityScorer::window_contribution_cells`]).
pub(crate) fn window_contribution_view(
    scorer: &SimilarityScorer<'_>,
    u: &HistoryView<'_>,
    v: &HistoryView<'_>,
    w: WindowIdx,
    stats: &mut LinkageStats,
) -> f64 {
    match (u, v) {
        (HistoryView::Legacy(hu), HistoryView::Legacy(hv)) => {
            scorer.window_contribution(hu, hv, w, stats)
        }
        (HistoryView::Arena(vu), HistoryView::Arena(vv)) => {
            scorer.window_contribution_cells(w, vu.window_run(w), vv.window_run(w), stats)
        }
        _ => unreachable!("both sides of an engine share one storage mode"),
    }
}

/// Calls `f(w, (cells_u, counts_u), (cells_v, counts_v))` for every
/// window common to both arena views, ascending — one linear merge over
/// the two window columns, handing out contiguous column slices (the
/// batch-kernel gather: no hashing, no per-window binary search).
pub(crate) fn for_common_runs<'a>(
    u: &EntityView<'a>,
    v: &EntityView<'a>,
    mut f: impl FnMut(WindowIdx, (&'a [CellId], &'a [u32]), (&'a [CellId], &'a [u32])),
) {
    let (uw, vw) = (u.wins, v.wins);
    let (mut i, mut j) = (0, 0);
    while i < uw.len() && j < vw.len() {
        let (wi, wj) = (uw[i], vw[j]);
        if wi < wj {
            i += uw[i..].partition_point(|&x| x == wi);
        } else if wj < wi {
            j += vw[j..].partition_point(|&x| x == wj);
        } else {
            let ie = i + uw[i..].partition_point(|&x| x == wi);
            let je = j + vw[j..].partition_point(|&x| x == wi);
            f(
                wi,
                (&u.cells[i..ie], &u.counts[i..ie]),
                (&v.cells[j..je], &v.counts[j..je]),
            );
            i = ie;
            j = je;
        }
    }
}
