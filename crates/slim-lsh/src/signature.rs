//! Dominating-grid-cell signatures (paper §4).
//!
//! Each mobility history is queried over consecutive, non-overlapping
//! spans of `step` leaf windows; each query returns the *dominating grid
//! cell* — the spatial cell (at the LSH's own spatial level) holding the
//! most records in the span. The resulting cell list is the entity's
//! signature. Spans with no records get a placeholder (`None`) that never
//! matches anything.
//!
//! The definition is [`signature_from_records`]: every record counts once
//! in each distinct cell it touches at the LSH level, in the span of its
//! (domain-clamped) window. The LSH spatial level is a free parameter
//! that may be *finer* than the similarity bins' level (Fig. 8 sweeps it
//! past the default level 12), and bins can only coarsen, so that path
//! stays. When the two levels are equal — the default and the fig-11
//! settings — a history's bins hold exactly those counts, and
//! [`signature_from_bins`] reads the signature off them in one pass.
//! It reads an [`EntityView`], so a batch-built history and a streaming
//! engine's sign alike.
//!
//! The paper answers the spans with range queries on an aggregation
//! tree over the bins. The spans are fixed-step and disjoint and each
//! entity is signed once, so the one linear pass is all the tree would
//! compute.

use std::collections::HashMap;

use geocell::CellId;
use serde::{Deserialize, Serialize};
use slim_core::{EntityId, EntityView, LocationDataset, WindowScheme};

/// A signature: one optional dominating cell per query span.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Signature {
    /// The entity this signature describes.
    pub entity: EntityId,
    /// Dominating cell per query span; `None` = no records in the span.
    pub cells: Vec<Option<CellId>>,
}

impl Signature {
    /// Signature similarity as defined in the paper: the number of
    /// matching (equal, non-placeholder) dominating cells divided by the
    /// signature size.
    ///
    /// # Panics
    /// Panics if the signatures have different lengths.
    pub fn similarity(&self, other: &Signature) -> f64 {
        assert_eq!(
            self.cells.len(),
            other.cells.len(),
            "signatures must answer the same queries"
        );
        if self.cells.is_empty() {
            return 0.0;
        }
        let matching = self
            .cells
            .iter()
            .zip(&other.cells)
            .filter(|(a, b)| a.is_some() && a == b)
            .count();
        matching as f64 / self.cells.len() as f64
    }

    /// Number of non-placeholder slots.
    pub fn occupancy(&self) -> usize {
        self.cells.iter().filter(|c| c.is_some()).count()
    }
}

/// Number of query spans for a window domain and step.
pub fn num_queries(domain: u32, step: u32) -> usize {
    assert!(step > 0, "step must be positive");
    domain.div_ceil(step) as usize
}

/// Builds one entity's signature from raw records.
pub fn signature_from_records(
    entity: EntityId,
    records: &[slim_core::Record],
    scheme: &WindowScheme,
    domain: u32,
    step: u32,
    spatial_level: u8,
) -> Signature {
    let n = num_queries(domain, step);
    // Per query span: cell → record count.
    let mut counts: Vec<HashMap<CellId, u32>> = vec![HashMap::new(); n];
    for r in records {
        let w = scheme.window_of(r.time).min(domain.saturating_sub(1));
        let q = (w / step) as usize;
        for cell in slim_core::record_cells(r, spatial_level) {
            *counts[q].entry(cell).or_insert(0) += 1;
        }
    }
    let cells = counts
        .into_iter()
        .map(|m| {
            m.into_iter()
                .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
                .map(|(c, _)| c)
        })
        .collect();
    Signature { entity, cells }
}

/// Builds signatures for every entity of a dataset (sorted by entity id).
pub fn signatures_for_dataset(
    ds: &LocationDataset,
    scheme: &WindowScheme,
    domain: u32,
    step: u32,
    spatial_level: u8,
) -> Vec<Signature> {
    signatures_for_entities(
        ds,
        &ds.entities_sorted(),
        scheme,
        domain,
        step,
        spatial_level,
    )
}

/// Builds the signatures of the listed entities of a dataset, in list
/// order.
pub(crate) fn signatures_for_entities(
    ds: &LocationDataset,
    entities: &[EntityId],
    scheme: &WindowScheme,
    domain: u32,
    step: u32,
    spatial_level: u8,
) -> Vec<Signature> {
    entities
        .iter()
        .map(|&e| signature_from_records(e, ds.records_of(e), scheme, domain, step, spatial_level))
        .collect()
}

/// Builds the signature of `entity` from its bins, at their spatial
/// level: per span of `step` windows, the cell with the largest summed
/// count, ties to the smaller [`CellId`] — [`signature_from_records`]'
/// rule. Windows past `domain` count in the last span, as the records
/// path clamps them.
///
/// This is [`signature_from_records`] over the records the bins were
/// built from whenever they were built with the same window scheme and
/// domain and the LSH level is the bins' level: a bin's count is the
/// number of the window's records touching its cell, each counted once
/// per distinct cell, which is what the records path adds up.
pub fn signature_from_bins(
    entity: EntityId,
    bins: EntityView<'_>,
    domain: u32,
    step: u32,
) -> Signature {
    let n = num_queries(domain, step);
    let span_of = |w: u32| (w.min(domain.saturating_sub(1)) / step) as usize;
    let mut cells = vec![None; n];
    let mut counts: Vec<(CellId, u32)> = Vec::new();
    let mut runs = bins.runs().peekable();
    while let Some(&(first, ..)) = runs.peek() {
        let span = span_of(first);
        counts.clear();
        while let Some((_, run_cells, run_counts)) = runs.next_if(|&(w, ..)| span_of(w) == span) {
            counts.extend(run_cells.iter().copied().zip(run_counts.iter().copied()));
        }
        counts.sort_unstable_by_key(|&(cell, _)| cell);
        let mut best: Option<(CellId, u32)> = None;
        for run in counts.chunk_by(|a, b| a.0 == b.0) {
            let total = run.iter().map(|&(_, c)| c).sum();
            if best.is_none_or(|(_, most)| total > most) {
                best = Some((run[0].0, total));
            }
        }
        cells[span] = best.map(|(cell, _)| cell);
    }
    Signature { entity, cells }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geocell::LatLng;
    use slim_core::{HistorySet, Record, Timestamp};

    const LEVEL: u8 = 12;

    fn rec(e: u64, t: i64, lat: f64, lng: f64) -> Record {
        Record::new(EntityId(e), LatLng::from_degrees(lat, lng), Timestamp(t))
    }

    fn scheme() -> WindowScheme {
        WindowScheme::new(Timestamp(0), 900)
    }

    #[test]
    fn paper_figure3_example() {
        // 12 windows, queries of 3 windows → signature length 4. The
        // entity visits "circle" 3× and "square" 2× in the first span.
        let circle = (37.0, -122.0);
        let square = (37.5, -121.0);
        let records = vec![
            rec(1, 0, circle.0, circle.1),
            rec(1, 900, square.0, square.1),
            rec(1, 1000, circle.0, circle.1),
            rec(1, 1800, circle.0, circle.1),
            rec(1, 2000, square.0, square.1),
            // Span 2 (windows 3-5): square only.
            rec(1, 2700, square.0, square.1),
            // Span 3 (windows 6-8): empty → placeholder.
            // Span 4 (windows 9-11): circle.
            rec(1, 8100, circle.0, circle.1),
        ];
        let sig = signature_from_records(EntityId(1), &records, &scheme(), 12, 3, LEVEL);
        assert_eq!(sig.cells.len(), 4);
        let circle_cell = CellId::from_latlng(LatLng::from_degrees(circle.0, circle.1), LEVEL);
        let square_cell = CellId::from_latlng(LatLng::from_degrees(square.0, square.1), LEVEL);
        assert_eq!(sig.cells[0], Some(circle_cell), "circle dominates span 1");
        assert_eq!(sig.cells[1], Some(square_cell));
        assert_eq!(sig.cells[2], None, "empty span → placeholder");
        assert_eq!(sig.cells[3], Some(circle_cell));
        assert_eq!(sig.occupancy(), 3);
    }

    #[test]
    fn similarity_counts_matching_slots() {
        let c1 = CellId::from_latlng(LatLng::from_degrees(37.0, -122.0), LEVEL);
        let c2 = CellId::from_latlng(LatLng::from_degrees(10.0, 10.0), LEVEL);
        let a = Signature {
            entity: EntityId(1),
            cells: vec![Some(c1), Some(c2), None, Some(c1)],
        };
        let b = Signature {
            entity: EntityId(2),
            cells: vec![Some(c1), Some(c1), None, Some(c1)],
        };
        // Slots 0 and 3 match; placeholders never match (slot 2).
        assert!((a.similarity(&b) - 0.5).abs() < 1e-12);
        assert!(
            (a.similarity(&a) - 0.75).abs() < 1e-12,
            "self-sim skips placeholders"
        );
    }

    #[test]
    #[should_panic(expected = "same queries")]
    fn similarity_length_mismatch_panics() {
        let a = Signature {
            entity: EntityId(1),
            cells: vec![None],
        };
        let b = Signature {
            entity: EntityId(2),
            cells: vec![None, None],
        };
        let _ = a.similarity(&b);
    }

    /// A history built at a coarse level signs like the records at that
    /// level (point records; the region case is below).
    #[test]
    fn history_and_record_signatures_agree_at_coarse_levels() {
        let records: Vec<Record> = (0..50)
            .map(|k| {
                rec(
                    1,
                    k * 600,
                    37.0 + 0.01 * ((k % 7) as f64),
                    -122.0 - 0.02 * ((k % 3) as f64),
                )
            })
            .collect();
        let sch = scheme();
        let domain = 40;
        let ds = LocationDataset::from_records(records.clone());
        for (step, lsh_level) in [(4u32, 12u8), (8, 10), (5, 8)] {
            let hs = HistorySet::build(&ds, sch, lsh_level, domain);
            let via_records =
                signature_from_records(EntityId(1), &records, &sch, domain, step, lsh_level);
            let history = hs.history(EntityId(1)).unwrap();
            let via_history = signature_from_bins(EntityId(1), history, domain, step);
            assert_eq!(via_records, via_history, "step {step} level {lsh_level}");
            assert!(via_history.occupancy() > 1, "step {step} level {lsh_level}");
        }
    }

    #[test]
    fn bin_signatures_break_ties_to_the_smaller_cell_and_clamp_late_windows() {
        let (a, b) = ((37.0, -122.0), (37.5, -121.0));
        let cell_a = CellId::from_latlng(LatLng::from_degrees(a.0, a.1), LEVEL);
        let cell_b = CellId::from_latlng(LatLng::from_degrees(b.0, b.1), LEVEL);
        let records = vec![
            // Span 0 (windows 0–4): one record in each cell, a tie.
            rec(1, 0, a.0, a.1),
            rec(1, 4 * 900, b.0, b.1),
            // Span 1 (windows 5–9): empty.
            // Span 2 (windows 10–11 of a 12-window domain; step 5 does not
            // divide it): `b` once in window 10, `a` twice past the domain,
            // clamped into window 11.
            rec(1, 10 * 900, b.0, b.1),
            rec(1, 30 * 900, a.0, a.1),
            rec(1, 31 * 900, a.0, a.1),
        ];
        let (domain, step) = (12, 5);
        let hs = HistorySet::build(
            &LocationDataset::from_records(records.clone()),
            scheme(),
            LEVEL,
            domain,
        );
        let via_bins =
            signature_from_bins(EntityId(1), hs.history(EntityId(1)).unwrap(), domain, step);
        assert_eq!(
            via_bins.cells,
            vec![Some(cell_a.min(cell_b)), None, Some(cell_a)]
        );
        let via_records =
            signature_from_records(EntityId(1), &records, &scheme(), domain, step, LEVEL);
        assert_eq!(via_bins, via_records);
        assert_eq!(
            signature_from_bins(EntityId(2), Default::default(), domain, step).cells,
            vec![None; 3]
        );
    }

    #[test]
    fn history_signatures_count_region_records_per_bin_cell() {
        // Region records at the bin level: the bins, batch-built or
        // appended, and the records agree.
        let center = LatLng::from_degrees(37.0, -122.0);
        let records: Vec<Record> = (0..40)
            .map(|k| {
                let at = center.offset(90.0 * (k % 6) as f64, k as f64);
                let radius = [0.0, 150.0, 400.0][k as usize % 3];
                Record::with_accuracy(EntityId(1), at, Timestamp(k * 600), radius)
            })
            .collect();
        let (sch, domain) = (scheme(), 30);
        let ds = LocationDataset::from_records(records.clone());
        let hs = HistorySet::build(&ds, sch, 16, domain);
        let history = hs.history(EntityId(1)).unwrap();
        let mut arena = slim_core::HistoryArena::new();
        for r in &records {
            let w = sch.window_of(r.time).min(domain - 1);
            arena.append(
                EntityId(1),
                w,
                &slim_core::record_cells(r, 16),
                &mut Vec::new(),
            );
        }
        let appended = arena.view(EntityId(1)).unwrap();
        for step in [1, 3, 4, 7] {
            let via_records = signature_from_records(EntityId(1), &records, &sch, domain, step, 16);
            for bins in [history, appended] {
                assert_eq!(
                    signature_from_bins(EntityId(1), bins, domain, step),
                    via_records
                );
            }
        }
    }

    #[test]
    fn dataset_signatures_sorted_and_uniform_length() {
        let ds = LocationDataset::from_records(vec![
            rec(5, 0, 37.0, -122.0),
            rec(2, 5000, 37.0, -122.0),
        ]);
        let sigs = signatures_for_dataset(&ds, &scheme(), 12, 3, LEVEL);
        assert_eq!(sigs.len(), 2);
        assert_eq!(sigs[0].entity, EntityId(2));
        assert_eq!(sigs[1].entity, EntityId(5));
        assert!(sigs.iter().all(|s| s.cells.len() == 4));
    }

    #[test]
    fn num_queries_rounds_up() {
        assert_eq!(num_queries(12, 3), 4);
        assert_eq!(num_queries(13, 3), 5);
        assert_eq!(num_queries(1, 10), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_step_panics() {
        let _ = num_queries(10, 0);
    }
}
