//! Mobility histories: the paper's summary representation.
//!
//! A mobility history distributes an entity's records over *time-location
//! bins*: each temporal window holds the set of spatial grid cells (at a
//! configured level) the entity visited in it, together with record
//! counts. A [`HistorySet`] owns all histories of one dataset plus the
//! dataset-level statistics the similarity score needs: average history
//! size (for BM25-style length normalization) and per-bin document
//! frequencies (for the IDF award).
//!
//! The bins are the whole representation: scoring, the df statistics and
//! the LSH signatures read nothing else. A history stores them as the
//! streaming engine's arena does — three parallel columns, the window of
//! each bin ascending, its cell sorted within the window's run, and its
//! record count — and [`MobilityHistory::view`] lends them out as the
//! same [`EntityView`] an arena range gives, so one run walk and one
//! scoring kernel serve both stores.
//!
//! The paper (§2.3) also keeps an aggregation tree above the bins to
//! answer dominating-cell queries over arbitrary window ranges. Nothing
//! here asks for arbitrary ranges: the LSH signature asks for fixed-step,
//! disjoint spans, once per entity, and one linear pass over the flat
//! bins answers those.

use std::collections::HashMap;

use geocell::CellId;

use crate::arena::EntityView;
use crate::dataset::LocationDataset;
use crate::df::DfStats;
use crate::record::{EntityId, Record};
use crate::window::{WindowIdx, WindowScheme};

/// The grid cells one record maps to at the given level.
///
/// Point records map to one cell. Region records (paper §2.1) are copied
/// into every cell their disc touches; the disc is approximated by its
/// center plus eight compass points on the boundary, which covers all
/// touched cells exactly while the region diameter is below ~3 cell
/// widths — GPS accuracy discs versus city-block cells in practice.
pub fn record_cells(r: &Record, level: u8) -> Vec<CellId> {
    let mut cells = Vec::with_capacity(if r.is_region() { 9 } else { 1 });
    visit_record_cells(r, level, |cell| cells.push(cell));
    cells
}

/// Calls `visit` with each distinct cell of [`record_cells`], ascending,
/// without allocating.
fn visit_record_cells(r: &Record, level: u8, mut visit: impl FnMut(CellId)) {
    let center = CellId::from_latlng(r.location, level);
    if !r.is_region() {
        return visit(center);
    }
    let mut cells = [center; 9];
    for (k, cell) in cells.iter_mut().enumerate().skip(1) {
        let bearing = (k - 1) as f64 * std::f64::consts::TAU / 8.0;
        *cell = CellId::from_latlng(r.location.offset(r.accuracy_m, bearing), level);
    }
    cells.sort_unstable();
    let mut last = None;
    for cell in cells {
        if last != Some(cell) {
            visit(cell);
            last = Some(cell);
        }
    }
}

/// One entity's mobility history: its bins as the columns an
/// [`EntityView`] borrows.
#[derive(Debug, Clone)]
pub struct MobilityHistory {
    entity: EntityId,
    /// The window of each bin, ascending (one entry per bin).
    wins: Vec<WindowIdx>,
    /// The cell of each bin, sorted within a window run.
    cells: Vec<CellId>,
    /// The record count of each bin. The column length is the number
    /// of time-location bins (`|H_u|` in the paper).
    counts: Vec<u32>,
    /// Total number of records aggregated.
    num_records: u32,
}

impl MobilityHistory {
    /// Builds a history from records, binning with `scheme` at the given
    /// spatial `level`. `domain` is the total number of windows covered by
    /// the linkage run (shared across both datasets); later records count
    /// in its last window.
    pub fn build(
        entity: EntityId,
        records: &[Record],
        scheme: &WindowScheme,
        level: u8,
        domain: u32,
    ) -> Self {
        // Every (window, cell) occurrence, sorted: a bin is a run of equal
        // pairs and its record count the run's length.
        let last_window = domain.saturating_sub(1);
        let mut occurrences: Vec<(WindowIdx, CellId)> = Vec::with_capacity(records.len());
        for r in records {
            let w = scheme.window_of(r.time).min(last_window);
            visit_record_cells(r, level, |cell| occurrences.push((w, cell)));
        }
        occurrences.sort_unstable();
        let mut history = Self {
            entity,
            wins: Vec::new(),
            cells: Vec::new(),
            counts: Vec::new(),
            num_records: records.len() as u32,
        };
        for bin in occurrences.chunk_by(|a, b| a == b) {
            let (w, cell) = bin[0];
            history.wins.push(w);
            history.cells.push(cell);
            history.counts.push(bin.len() as u32);
        }
        history
    }

    /// Copies a view's columns — how an arena range becomes an owned
    /// history.
    pub(crate) fn from_view(entity: EntityId, view: EntityView<'_>) -> Self {
        Self {
            entity,
            wins: view.wins.to_vec(),
            cells: view.cells.to_vec(),
            counts: view.counts.to_vec(),
            num_records: view.num_records(),
        }
    }

    /// The history's columns, as an arena range lends its own.
    pub fn view(&self) -> EntityView<'_> {
        EntityView {
            wins: &self.wins,
            cells: &self.cells,
            counts: &self.counts,
            num_records: self.num_records,
        }
    }

    /// The entity this history belongs to.
    pub fn entity(&self) -> EntityId {
        self.entity
    }

    /// Number of time-location bins, `|H_u|`.
    pub fn num_bins(&self) -> usize {
        self.wins.len()
    }

    /// Number of records aggregated into this history.
    pub fn num_records(&self) -> u32 {
        self.num_records
    }
}

/// All mobility histories of one dataset, plus dataset-level statistics.
#[derive(Debug, Clone)]
pub struct HistorySet {
    histories: HashMap<EntityId, MobilityHistory>,
    scheme: WindowScheme,
    spatial_level: u8,
    domain: u32,
    /// Document frequencies, total bins, entity count — kept in the
    /// shard-mergeable [`DfStats`] form so a sharded engine can maintain
    /// the same statistics as per-shard deltas (see [`crate::df`]).
    stats: DfStats,
}

impl HistorySet {
    /// Builds histories for every entity of `dataset`, on all available
    /// cores.
    ///
    /// `domain` must cover the whole linkage time span (use
    /// [`WindowScheme::num_windows`] on the max timestamp of *both*
    /// datasets so the two history sets agree).
    pub fn build(
        dataset: &LocationDataset,
        scheme: WindowScheme,
        spatial_level: u8,
        domain: u32,
    ) -> Self {
        let entities = dataset.entities_sorted();
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self::build_with_threads(dataset, &entities, scheme, spatial_level, domain, threads)
    }

    /// [`HistorySet::build`] over the listed `entities` of `dataset` only,
    /// their histories built on `threads` threads. The result does not
    /// depend on `threads`: the statistics are integer counters folded on
    /// the caller.
    pub(crate) fn build_with_threads(
        dataset: &LocationDataset,
        entities: &[EntityId],
        scheme: WindowScheme,
        spatial_level: u8,
        domain: u32,
        threads: usize,
    ) -> Self {
        let build_part = |part: &[EntityId]| -> Vec<MobilityHistory> {
            part.iter()
                .map(|&e| {
                    MobilityHistory::build(e, dataset.records_of(e), &scheme, spatial_level, domain)
                })
                .collect()
        };
        let chunk = entities.len().div_ceil(threads.max(1)).max(1);
        // The caller builds the first chunk itself: one thread spawns none.
        let mut parts = entities.chunks(chunk);
        let first = parts.next().unwrap_or(&[]);
        let built = std::thread::scope(|s| {
            let handles: Vec<_> = parts.map(|part| s.spawn(|| build_part(part))).collect();
            let mut built = build_part(first);
            for h in handles {
                built.extend(h.join().expect("history building does not panic"));
            }
            built
        });

        let mut histories = HashMap::with_capacity(entities.len());
        let mut stats = DfStats::new();
        for h in built {
            for (w, cells, _) in h.view().runs() {
                for &cell in cells {
                    stats.add_bin(w, cell);
                }
            }
            stats.add_entity();
            histories.insert(h.entity, h);
        }
        Self {
            histories,
            scheme,
            spatial_level,
            domain,
            stats,
        }
    }

    /// Assembles a set from externally maintained parts — the sharded
    /// streaming engine's finalization path: each shard owns a disjoint
    /// slice of the histories, and `stats` is the barrier-merged
    /// [`DfStats`] over all of them. The caller is responsible for
    /// `stats` being consistent with `histories` (the engine maintains
    /// both from the same append/evict events); `num_entities` is
    /// asserted as a cheap consistency check.
    pub fn from_parts(
        scheme: WindowScheme,
        spatial_level: u8,
        domain: u32,
        histories: HashMap<EntityId, MobilityHistory>,
        stats: DfStats,
    ) -> Self {
        assert_eq!(
            stats.num_entities(),
            histories.len(),
            "DfStats entity count must match the assembled histories"
        );
        Self {
            histories,
            scheme,
            spatial_level,
            domain,
            stats,
        }
    }

    /// The history of one entity.
    pub fn history(&self, e: EntityId) -> Option<&MobilityHistory> {
        self.histories.get(&e)
    }

    /// Iterator over all histories (arbitrary order).
    pub fn histories(&self) -> impl Iterator<Item = &MobilityHistory> {
        self.histories.values()
    }

    /// Entity ids, sorted for deterministic iteration.
    pub fn entities_sorted(&self) -> Vec<EntityId> {
        let mut v: Vec<_> = self.histories.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Number of entities, `|U|`.
    pub fn num_entities(&self) -> usize {
        self.histories.len()
    }

    /// The dataset-level statistics (df/idf, total bins, entity count)
    /// in their shard-mergeable form.
    pub fn df_stats(&self) -> &DfStats {
        &self.stats
    }

    /// Shared window scheme.
    pub fn scheme(&self) -> &WindowScheme {
        &self.scheme
    }

    /// Bin spatial level.
    pub fn spatial_level(&self) -> u8 {
        self.spatial_level
    }

    /// Total window domain.
    pub fn domain(&self) -> u32 {
        self.domain
    }

    /// Average bins per history (`Σ|H_u'| / |U|`, paper Eq. 2 denominator).
    pub fn avg_bins(&self) -> f64 {
        self.stats.avg_bins()
    }

    /// Inverse document frequency of a time-location bin (paper Eq. 3):
    /// `ln(|U| / df)` where `df` is the number of entities whose history
    /// contains the bin. Bins never seen get the maximal idf `ln(|U|)`.
    pub fn idf(&self, w: WindowIdx, cell: CellId) -> f64 {
        self.stats.idf(w, cell)
    }

    /// BM25-inspired length normalization `L(u, E)` (paper Eq. 2):
    /// `(1 − b) + b · |H_u| / avg_bins`.
    pub fn length_norm(&self, e: EntityId, b: f64) -> f64 {
        let bins = self.histories.get(&e).map(|h| h.num_bins()).unwrap_or(0);
        self.stats.length_norm_for(bins, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Record, Timestamp};
    use geocell::LatLng;

    const LEVEL: u8 = 12;

    fn rec(e: u64, t: i64, lat: f64, lng: f64) -> Record {
        Record::new(EntityId(e), LatLng::from_degrees(lat, lng), Timestamp(t))
    }

    fn scheme() -> WindowScheme {
        WindowScheme::new(Timestamp(0), 900)
    }

    #[test]
    fn history_bins_by_window_and_cell() {
        let records = vec![
            rec(1, 0, 37.0, -122.0),
            rec(1, 100, 37.0, -122.0),  // same window, same cell
            rec(1, 1000, 37.0, -122.0), // next window
            rec(1, 1000, 37.5, -121.5), // next window, different cell
        ];
        let h = MobilityHistory::build(EntityId(1), &records, &scheme(), LEVEL, 10);
        let v = h.view();
        assert_eq!(h.num_records(), 4);
        assert_eq!(v.windows().count(), 2);
        assert_eq!(h.num_bins(), 3);
        assert_eq!(v.window_run(0), (&v.cells[..1], &[2][..])); // two records in the bin
        assert_eq!(v.window_run(1).1, &[1, 1]);
    }

    #[test]
    fn empty_history() {
        let h = MobilityHistory::build(EntityId(7), &[], &scheme(), LEVEL, 4);
        assert_eq!(h.num_bins(), 0);
        assert_eq!(h.view().windows().count(), 0);
    }

    #[test]
    fn history_set_idf() {
        // Three entities; two share a bin, one is alone in another.
        let ds = LocationDataset::from_records(vec![
            rec(1, 0, 37.0, -122.0),
            rec(2, 0, 37.0, -122.0),
            rec(3, 0, 10.0, 10.0),
        ]);
        let hs = HistorySet::build(&ds, scheme(), LEVEL, 4);
        let shared = CellId::from_latlng(LatLng::from_degrees(37.0, -122.0), LEVEL);
        let unique = CellId::from_latlng(LatLng::from_degrees(10.0, 10.0), LEVEL);
        let idf_shared = hs.idf(0, shared);
        let idf_unique = hs.idf(0, unique);
        assert!((idf_shared - (3.0f64 / 2.0).ln()).abs() < 1e-12);
        assert!((idf_unique - 3.0f64.ln()).abs() < 1e-12);
        assert!(idf_unique > idf_shared, "rarer bins must score higher");
    }

    #[test]
    fn idf_of_unseen_bin_is_max() {
        let ds = LocationDataset::from_records(vec![rec(1, 0, 37.0, -122.0)]);
        let hs = HistorySet::build(&ds, scheme(), LEVEL, 4);
        let unseen = CellId::from_latlng(LatLng::from_degrees(-30.0, 60.0), LEVEL);
        assert!((hs.idf(0, unseen) - 1.0f64.ln()).abs() < 1e-12); // |U|=1 → ln 1 = 0
    }

    #[test]
    fn length_norm_limits() {
        let ds = LocationDataset::from_records(vec![
            rec(1, 0, 37.0, -122.0),
            rec(2, 0, 37.1, -122.1),
            rec(2, 1000, 37.2, -122.2),
            rec(2, 2000, 37.3, -122.3),
        ]);
        let hs = HistorySet::build(&ds, scheme(), LEVEL, 10);
        // b = 0 → normalization disabled (always 1).
        assert!((hs.length_norm(EntityId(1), 0.0) - 1.0).abs() < 1e-12);
        assert!((hs.length_norm(EntityId(2), 0.0) - 1.0).abs() < 1e-12);
        // b = 1 → exactly relative size. avg bins = (1 + 3)/2 = 2.
        assert!((hs.length_norm(EntityId(1), 1.0) - 0.5).abs() < 1e-12);
        assert!((hs.length_norm(EntityId(2), 1.0) - 1.5).abs() < 1e-12);
        // Longer history ⇒ larger norm ⇒ smaller per-pair contribution.
        assert!(hs.length_norm(EntityId(2), 0.5) > hs.length_norm(EntityId(1), 0.5));
    }

    /// Entity `e` of `n`: `3 + e % 4` records, neighbours sharing bins.
    fn spread(n: u64) -> LocationDataset {
        LocationDataset::from_records((0..n).flat_map(|e| {
            (0..3 + e % 4).map(move |k| {
                rec(
                    e,
                    (e as i64 % 3 + k as i64) * 900,
                    37.0 + 0.05 * (e / 2) as f64,
                    -122.0,
                )
            })
        }))
    }

    #[test]
    fn build_does_not_depend_on_the_thread_count() {
        // More entities than threads, fewer than threads, and none.
        for n in [23, 2, 0] {
            let ds = spread(n);
            let entities = ds.entities_sorted();
            let build = |t| HistorySet::build_with_threads(&ds, &entities, scheme(), LEVEL, 8, t);
            let one = build(1);
            assert_eq!(one.num_entities(), n as usize);
            for threads in [2, 3, 7] {
                let many = build(threads);
                assert_eq!(
                    many.entities_sorted(),
                    entities,
                    "{n} entities, {threads} threads"
                );
                for &e in &entities {
                    let (a, b) = (one.history(e).unwrap(), many.history(e).unwrap());
                    assert_eq!(a.view(), b.view(), "{e}, {threads} threads");
                }
                assert_eq!(
                    many.df_stats(),
                    one.df_stats(),
                    "{n} entities, {threads} threads"
                );
            }
            // The public entry point takes its count from the machine.
            let public = HistorySet::build(&ds, scheme(), LEVEL, 8);
            assert_eq!(public.df_stats(), one.df_stats());
            assert_eq!(public.entities_sorted(), entities);
        }
    }

    #[test]
    fn avg_bins_counts_bins_not_records() {
        let ds = LocationDataset::from_records(vec![
            rec(1, 0, 37.0, -122.0),
            rec(1, 1, 37.0, -122.0), // same bin, extra record
        ]);
        let hs = HistorySet::build(&ds, scheme(), LEVEL, 4);
        assert!((hs.avg_bins() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn region_record_spreads_over_cells() {
        // A region record at a fine level with a radius wider than a
        // cell must land in several cells; a point record in exactly one.
        let center = LatLng::from_degrees(37.0, -122.0);
        let point = Record::new(EntityId(1), center, Timestamp(0));
        let region = Record::with_accuracy(EntityId(1), center, Timestamp(0), 500.0);
        assert_eq!(record_cells(&point, 16).len(), 1);
        let cells = record_cells(&region, 16);
        assert!(cells.len() >= 2, "region covered {} cells", cells.len());
        // All covered cells are within the disc (plus one cell of slack).
        for c in &cells {
            assert!(c.center().distance_m(&center) < 500.0 + 2.0 * 200.0);
        }
        // At a coarse level the whole disc fits one cell.
        assert_eq!(record_cells(&region, 8).len(), 1);
    }

    #[test]
    fn region_records_enter_history_bins() {
        let center = LatLng::from_degrees(37.0, -122.0);
        let region = Record::with_accuracy(EntityId(1), center, Timestamp(0), 500.0);
        let h = MobilityHistory::build(EntityId(1), &[region], &scheme(), 16, 4);
        assert_eq!(h.num_records(), 1);
        assert!(h.num_bins() >= 2, "region must occupy several bins");
    }

    #[test]
    fn bins_in_finds_stored_windows_only() {
        // Windows 2, 5 (two cells) and 9 of a 12-window domain.
        let records = vec![
            rec(1, 2 * 900, 37.0, -122.0),
            rec(1, 5 * 900, 37.0, -122.0),
            rec(1, 5 * 900 + 1, 37.5, -121.5),
            rec(1, 5 * 900 + 2, 37.0, -122.0),
            rec(1, 9 * 900, 10.0, 10.0),
        ];
        let h = MobilityHistory::build(EntityId(1), &records, &scheme(), LEVEL, 12);
        let v = h.view();
        let cell = |lat, lng| CellId::from_latlng(LatLng::from_degrees(lat, lng), LEVEL);
        let (sf, east, far) = (cell(37.0, -122.0), cell(37.5, -121.5), cell(10.0, 10.0));
        let five = if sf < east {
            ([sf, east], [2, 1])
        } else {
            ([east, sf], [1, 2])
        };
        assert_eq!(v.window_run(2), (&[sf][..], &[1][..]));
        assert_eq!(v.window_run(5), (&five.0[..], &five.1[..]));
        assert_eq!(v.window_run(9), (&[far][..], &[1][..]));
        // Before the first, between stored ones, after the last, and far
        // past the domain.
        for w in [0, 1, 3, 4, 6, 8, 10, 11, u32::MAX] {
            assert_eq!(v.window_run(w), (&[][..], &[][..]), "window {w}");
        }
        let runs: Vec<_> = v.runs().collect();
        assert_eq!(
            runs,
            vec![
                (2, &[sf][..], &[1][..]),
                (5, &five.0[..], &five.1[..]),
                (9, &[far][..], &[1][..])
            ]
        );
        // A history without records answers every window with nothing.
        let empty = MobilityHistory::build(EntityId(2), &[], &scheme(), LEVEL, 12);
        assert!(empty.view().window_run(0).0.is_empty() && empty.view().runs().next().is_none());
    }

    #[test]
    fn domain_clamps_late_records() {
        // A record beyond the domain is clamped to the last window rather
        // than panicking in the tree build.
        let records = vec![rec(1, 900 * 50, 37.0, -122.0)];
        let h = MobilityHistory::build(EntityId(1), &records, &scheme(), LEVEL, 10);
        assert_eq!(h.view().windows().collect::<Vec<_>>(), vec![9]);
    }
}
