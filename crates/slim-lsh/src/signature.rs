//! Dominating-grid-cell signatures (paper §4).
//!
//! Each mobility history is queried over consecutive, non-overlapping
//! spans of `step` leaf windows; each query returns the *dominating grid
//! cell* — the spatial cell (at the LSH's own spatial level) holding the
//! most records in the span. The resulting cell list is the entity's
//! signature. Spans with no records get a placeholder (`None`) that never
//! matches anything.
//!
//! Signatures are built straight from records, because the LSH spatial
//! level is a free parameter that may be *finer* than the similarity
//! bins' level (Fig. 8 sweeps it past the default level 12), and the
//! history tree can only coarsen. When the LSH level is at or above the
//! history level, [`signature_from_history`] produces an identical result
//! via `O(log n)` tree queries, demonstrating the paper's use of "the
//! appropriate level of the mobility history tree".

use std::collections::HashMap;

use geocell::CellId;
use serde::{Deserialize, Serialize};
use slim_core::{EntityId, LocationDataset, MobilityHistory, WindowScheme};

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

/// Builds a signature through the mobility-history tree's dominating-cell
/// range queries. Only valid when `spatial_level` is at or coarser than
/// the history's bin level.
pub fn signature_from_history(
    history: &MobilityHistory,
    domain: u32,
    step: u32,
    spatial_level: u8,
) -> Signature {
    let n = num_queries(domain, step);
    let cells = (0..n as u32)
        .map(|q| history.dominating_cell(q * step, ((q + 1) * step).min(domain), spatial_level))
        .collect();
    Signature {
        entity: history.entity(),
        cells,
    }
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
        let hs = HistorySet::build(&ds, sch, LEVEL, domain);
        for (step, lsh_level) in [(4u32, 12u8), (8, 10), (5, 8)] {
            let via_records =
                signature_from_records(EntityId(1), &records, &sch, domain, step, lsh_level);
            let via_history =
                signature_from_history(hs.history(EntityId(1)).unwrap(), domain, step, lsh_level);
            assert_eq!(via_records, via_history, "step {step} level {lsh_level}");
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
