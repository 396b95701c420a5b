//! Mobility histories: the paper's summary representation.
//!
//! A mobility history distributes an entity's records over *time-location
//! bins*: each temporal window holds the set of spatial grid cells (at a
//! configured level) the entity visited in it, together with record
//! counts. A [`HistorySet`] holds all histories of one dataset plus the
//! dataset-level statistics the similarity score needs: average history
//! size (for BM25-style length normalization) and per-bin document
//! frequencies (for the IDF award).
//!
//! The bins are the whole representation: scoring, the df statistics and
//! the LSH signatures read nothing else. They have one store, the
//! [`HistoryArena`]: a batch build fills arena parts of its own, the
//! streaming engine lends its shard arenas, and a set hands out each
//! member's range as an [`EntityView`] — so one run walk and one scoring
//! kernel serve the batch pipeline and the engine.
//!
//! The paper (§2.3) also keeps an aggregation tree above the bins to
//! answer dominating-cell queries over arbitrary window ranges. Nothing
//! here asks for arbitrary ranges: the LSH signature asks for fixed-step,
//! disjoint spans, once per entity, and one linear pass over the flat
//! bins answers those.

use std::borrow::Cow;

use geocell::CellId;

use crate::arena::{EntityView, HistoryArena};
use crate::dataset::LocationDataset;
use crate::df::DfStats;
use crate::fasthash::FastMap;
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
pub(crate) fn visit_record_cells(r: &Record, level: u8, mut visit: impl FnMut(CellId)) {
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

/// All mobility histories of one dataset, plus dataset-level statistics.
///
/// The bins live in [`HistoryArena`] parts, each owned (a batch build
/// fills one per thread) or borrowed (the streaming engine lends its
/// shard arenas at finalization), and an index names each member
/// entity's part. A part may hold entities outside the index — the
/// engine's parked entities — and every reader skips them: a set is its
/// indexed entities only.
#[derive(Debug, Clone)]
pub struct HistorySet<'a> {
    parts: Vec<Cow<'a, HistoryArena>>,
    /// The part holding each member entity's bins.
    index: FastMap<EntityId, u32>,
    scheme: WindowScheme,
    spatial_level: u8,
    domain: u32,
    /// Document frequencies, total bins, entity count — kept in the
    /// shard-mergeable [`DfStats`] form so a sharded engine can maintain
    /// the same statistics as per-shard deltas (see [`crate::df`]).
    stats: DfStats,
}

impl<'a> HistorySet<'a> {
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
    /// their histories built on `threads` threads, one owned arena part
    /// each. The result does not depend on `threads`: the statistics are
    /// integer counters folded on the caller.
    pub(crate) fn build_with_threads(
        dataset: &LocationDataset,
        entities: &[EntityId],
        scheme: WindowScheme,
        spatial_level: u8,
        domain: u32,
        threads: usize,
    ) -> Self {
        let build_part = |part: &[EntityId]| {
            let mut arena = HistoryArena::new();
            for &e in part {
                arena.insert_entity(e, dataset.records_of(e), &scheme, spatial_level, domain);
            }
            arena
        };
        let chunk = entities.len().div_ceil(threads.max(1)).max(1);
        // The caller builds the first chunk itself: one thread spawns none.
        let mut chunks = entities.chunks(chunk);
        let first = chunks.next().unwrap_or(&[]);
        let parts = std::thread::scope(|s| {
            let handles: Vec<_> = chunks.map(|part| s.spawn(|| build_part(part))).collect();
            let mut parts = vec![build_part(first)];
            for h in handles {
                parts.push(h.join().expect("history building does not panic"));
            }
            parts
        });

        let mut stats = DfStats::new();
        for (arena, part) in parts.iter().zip(entities.chunks(chunk)) {
            for &e in part {
                let view = arena.view(e).expect("a listed entity has records");
                for (w, cells, _) in view.runs() {
                    for &cell in cells {
                        stats.add_bin(w, cell);
                    }
                }
                stats.add_entity();
            }
        }
        let members = entities.chunks(chunk).map(|part| part.iter().copied());
        let parts = parts.into_iter().map(Cow::Owned).zip(members);
        Self::from_arenas(scheme, spatial_level, domain, parts, stats)
    }

    /// Assembles a set over arena parts, each paired with the entities
    /// of it that belong to the set — how the sharded streaming engine
    /// finalizes: a part is a shard's arena, borrowed, its members the
    /// shard's active entities (its parked ones stay out), and `stats`
    /// the barrier-merged [`DfStats`] over all of them. The caller is
    /// responsible for `stats` being consistent with the members (the
    /// engine maintains both from the same append/evict events);
    /// `num_entities` is asserted as a cheap consistency check, and every
    /// member must have bins in its part.
    pub fn from_arenas<M: IntoIterator<Item = EntityId>>(
        scheme: WindowScheme,
        spatial_level: u8,
        domain: u32,
        parts: impl IntoIterator<Item = (Cow<'a, HistoryArena>, M)>,
        stats: DfStats,
    ) -> Self {
        let (parts, members): (Vec<_>, Vec<M>) = parts.into_iter().unzip();
        let index: FastMap<EntityId, u32> = (members.into_iter().enumerate())
            .flat_map(|(p, part)| part.into_iter().map(move |e| (e, p as u32)))
            .collect();
        assert_eq!(
            stats.num_entities(),
            index.len(),
            "DfStats entity count must match the assembled histories"
        );
        let set = Self {
            parts,
            index,
            scheme,
            spatial_level,
            domain,
            stats,
        };
        assert_eq!(
            set.histories().count(),
            set.num_entities(),
            "every member entity has bins in its part"
        );
        set
    }

    /// The history of one entity.
    pub fn history(&self, e: EntityId) -> Option<EntityView<'_>> {
        self.parts[*self.index.get(&e)? as usize].view(e)
    }

    /// Iterator over all histories (arbitrary order).
    pub fn histories(&self) -> impl Iterator<Item = EntityView<'_>> {
        self.index
            .iter()
            .filter_map(|(&e, &p)| self.parts[p as usize].view(e))
    }

    /// Entity ids, sorted for deterministic iteration.
    pub fn entities_sorted(&self) -> Vec<EntityId> {
        let mut v: Vec<_> = self.index.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Number of entities, `|U|`.
    pub fn num_entities(&self) -> usize {
        self.index.len()
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
        let bins = self.history(e).map_or(0, |h| h.num_bins());
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

    /// The set of `records`' histories, binned at `level` over `domain`
    /// windows.
    fn built(records: Vec<Record>, level: u8, domain: u32) -> HistorySet<'static> {
        HistorySet::build(
            &LocationDataset::from_records(records),
            scheme(),
            level,
            domain,
        )
    }

    #[test]
    fn history_bins_by_window_and_cell() {
        let records = vec![
            rec(1, 0, 37.0, -122.0),
            rec(1, 100, 37.0, -122.0),  // same window, same cell
            rec(1, 1000, 37.0, -122.0), // next window
            rec(1, 1000, 37.5, -121.5), // next window, different cell
        ];
        let hs = built(records, LEVEL, 10);
        let v = hs.history(EntityId(1)).unwrap();
        assert_eq!(v.num_records(), 4);
        assert_eq!(v.windows().count(), 2);
        assert_eq!(v.num_bins(), 3);
        assert_eq!(v.window_run(0), (&v.cells[..1], &[2][..])); // two records in the bin
        assert_eq!(v.window_run(1).1, &[1, 1]);
    }

    #[test]
    fn empty_history() {
        // An entity without records has no history, and a set without
        // entities has no statistics.
        let hs = built(Vec::new(), LEVEL, 4);
        assert_eq!(hs.history(EntityId(7)), None);
        assert_eq!((hs.num_entities(), hs.histories().count()), (0, 0));
        assert_eq!(
            (hs.avg_bins(), hs.length_norm(EntityId(7), 0.75)),
            (0.0, 1.0)
        );
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
                    assert_eq!(a, b, "{e}, {threads} threads");
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
        let hs = built(vec![region], 16, 4);
        let h = hs.history(EntityId(1)).unwrap();
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
        let hs = built(records, LEVEL, 12);
        let v = hs.history(EntityId(1)).unwrap();
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
        let empty = EntityView::default();
        assert!(empty.window_run(0).0.is_empty() && empty.runs().next().is_none());
    }

    #[test]
    fn domain_clamps_late_records() {
        // A record beyond the domain is clamped to the last window rather
        // than panicking in the tree build.
        let records = vec![rec(1, 900 * 50, 37.0, -122.0)];
        let hs = built(records, LEVEL, 10);
        let h = hs.history(EntityId(1)).unwrap();
        assert_eq!(h.windows().collect::<Vec<_>>(), vec![9]);
    }
}
