//! Mobility histories: the paper's hierarchical summary representation.
//!
//! A mobility history distributes an entity's records over *time-location
//! bins*: the leaf temporal windows each hold the set of spatial grid
//! cells (at a configured level) the entity visited in that window,
//! together with record counts; internal tree nodes aggregate those counts
//! (see [`crate::tree`]). A [`HistorySet`] owns all histories of one
//! dataset plus the dataset-level statistics the similarity score needs:
//! average history size (for BM25-style length normalization) and
//! per-bin document frequencies (for the IDF award).

use std::collections::{BTreeMap, HashMap};

use geocell::CellId;

use crate::dataset::LocationDataset;
use crate::df::DfStats;
use crate::record::EntityId;
use crate::tree::{CellCounts, TemporalTree};
use crate::window::{WindowIdx, WindowScheme};

/// The grid cells one record maps to at the given level.
///
/// Point records map to one cell. Region records (paper §2.1) are copied
/// into every cell their disc touches; the disc is approximated by its
/// center plus eight compass points on the boundary, which covers all
/// touched cells exactly while the region diameter is below ~3 cell
/// widths — GPS accuracy discs versus city-block cells in practice.
pub fn record_cells(r: &crate::record::Record, level: u8) -> Vec<CellId> {
    let center = CellId::from_latlng(r.location, level);
    if !r.is_region() {
        return vec![center];
    }
    let mut cells = Vec::with_capacity(9);
    cells.push(center);
    for k in 0..8 {
        let bearing = k as f64 * std::f64::consts::TAU / 8.0;
        cells.push(CellId::from_latlng(
            r.location.offset(r.accuracy_m, bearing),
            level,
        ));
    }
    cells.sort_unstable();
    cells.dedup();
    cells
}

/// One entity's mobility history.
#[derive(Debug, Clone)]
pub struct MobilityHistory {
    entity: EntityId,
    /// Leaf bins: window index → sorted `(cell, record count)`.
    leaves: BTreeMap<WindowIdx, CellCounts>,
    /// Total number of time-location bins (`|H_u|` in the paper).
    num_bins: usize,
    /// Total number of records aggregated.
    num_records: u32,
    /// Hierarchical aggregate for dominating-cell range queries.
    tree: TemporalTree,
}

impl MobilityHistory {
    /// Builds a history from records, binning with `scheme` at the given
    /// spatial `level`. `domain` is the total number of windows covered by
    /// the linkage run (shared across both datasets).
    pub fn build(
        entity: EntityId,
        records: &[crate::record::Record],
        scheme: &WindowScheme,
        level: u8,
        domain: u32,
    ) -> Self {
        let mut leaves: BTreeMap<WindowIdx, HashMap<CellId, u32>> = BTreeMap::new();
        let mut num_records = 0u32;
        for r in records {
            let w = scheme.window_of(r.time).min(domain.saturating_sub(1));
            for cell in record_cells(r, level) {
                *leaves.entry(w).or_default().entry(cell).or_insert(0) += 1;
            }
            num_records += 1;
        }
        let leaves: BTreeMap<WindowIdx, CellCounts> = leaves
            .into_iter()
            .map(|(w, cells)| {
                let mut v: CellCounts = cells.into_iter().collect();
                v.sort_by_key(|&(c, _)| c);
                (w, v)
            })
            .collect();
        let num_bins = leaves.values().map(Vec::len).sum();
        let tree = TemporalTree::build(domain, leaves.iter().map(|(&w, c)| (w, c.clone())));
        Self {
            entity,
            leaves,
            num_bins,
            num_records,
            tree,
        }
    }

    /// Rebuilds a history from externally maintained leaves — the
    /// materialization path of [`crate::arena::HistoryArena`]. `leaves`
    /// must hold sorted `(cell, count)` bins per window and
    /// `num_records` the true record count (it differs from the
    /// bin-count sum for region records). The bin counter is derived
    /// and the temporal tree built, so the result answers every query
    /// exactly like a history [`MobilityHistory::build`] makes from the
    /// same content.
    pub fn from_leaves(
        entity: EntityId,
        leaves: BTreeMap<WindowIdx, CellCounts>,
        num_records: u32,
    ) -> Self {
        let num_bins = leaves.values().map(Vec::len).sum();
        let domain = leaves.keys().next_back().map(|&w| w + 1).unwrap_or(1);
        let tree = TemporalTree::build(domain, leaves.iter().map(|(&w, c)| (w, c.clone())));
        Self {
            entity,
            leaves,
            num_bins,
            num_records,
            tree,
        }
    }

    /// The entity this history belongs to.
    pub fn entity(&self) -> EntityId {
        self.entity
    }

    /// All non-empty windows, ascending.
    pub fn windows(&self) -> impl Iterator<Item = WindowIdx> + '_ {
        self.leaves.keys().copied()
    }

    /// The bins of one window (sorted by cell id); empty if the window has
    /// no records.
    pub fn bins_in(&self, w: WindowIdx) -> &[(CellId, u32)] {
        self.leaves.get(&w).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of time-location bins, `|H_u|`.
    pub fn num_bins(&self) -> usize {
        self.num_bins
    }

    /// Number of records aggregated into this history.
    pub fn num_records(&self) -> u32 {
        self.num_records
    }

    /// Number of records in one window.
    pub fn records_in(&self, w: WindowIdx) -> u32 {
        self.bins_in(w).iter().map(|&(_, c)| c).sum()
    }

    /// Dominating grid cell over the window range `[lo, hi)`, coarsened to
    /// `level` (must be ≤ the history's bin level). `None` if no records.
    pub fn dominating_cell(&self, lo: WindowIdx, hi: WindowIdx, level: u8) -> Option<CellId> {
        self.tree.dominating_cell(lo, hi, level)
    }

    /// Number of non-empty windows.
    pub fn num_windows(&self) -> usize {
        self.leaves.len()
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
    /// Builds histories for every entity of `dataset`.
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
        let mut histories = HashMap::with_capacity(dataset.num_entities());
        let mut stats = DfStats::new();
        for e in dataset.entities() {
            let h =
                MobilityHistory::build(e, dataset.records_of(e), &scheme, spatial_level, domain);
            for w in h.windows().collect::<Vec<_>>() {
                for &(cell, _) in h.bins_in(w) {
                    stats.add_bin(w, cell);
                }
            }
            stats.add_entity();
            histories.insert(e, h);
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
        assert_eq!(h.num_records(), 4);
        assert_eq!(h.num_windows(), 2);
        assert_eq!(h.num_bins(), 3);
        assert_eq!(h.bins_in(0).len(), 1);
        assert_eq!(h.bins_in(0)[0].1, 2); // two records in the bin
        assert_eq!(h.bins_in(1).len(), 2);
        assert_eq!(h.records_in(1), 2);
    }

    #[test]
    fn empty_history() {
        let h = MobilityHistory::build(EntityId(7), &[], &scheme(), LEVEL, 4);
        assert_eq!(h.num_bins(), 0);
        assert_eq!(h.num_windows(), 0);
        assert!(h.dominating_cell(0, 4, LEVEL).is_none());
    }

    #[test]
    fn dominating_cell_via_tree() {
        let records = vec![
            rec(1, 0, 37.0, -122.0),
            rec(1, 10, 37.0, -122.0),
            rec(1, 20, 10.0, 10.0),
            rec(1, 1000, 10.0, 10.0),
        ];
        let h = MobilityHistory::build(EntityId(1), &records, &scheme(), LEVEL, 10);
        let sf = CellId::from_latlng(LatLng::from_degrees(37.0, -122.0), LEVEL);
        let other = CellId::from_latlng(LatLng::from_degrees(10.0, 10.0), LEVEL);
        // Window 0 only: SF appears twice, other once.
        assert_eq!(h.dominating_cell(0, 1, LEVEL), Some(sf));
        // Full range: other has 2, sf has 2 → deterministic tie-break.
        let dom = h.dominating_cell(0, 10, LEVEL).unwrap();
        assert!(dom == sf.min(other));
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
    fn domain_clamps_late_records() {
        // A record beyond the domain is clamped to the last window rather
        // than panicking in the tree build.
        let records = vec![rec(1, 900 * 50, 37.0, -122.0)];
        let h = MobilityHistory::build(EntityId(1), &records, &scheme(), LEVEL, 10);
        assert_eq!(h.windows().collect::<Vec<_>>(), vec![9]);
    }
}
