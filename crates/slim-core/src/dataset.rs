//! Location datasets: collections of records grouped by entity.

use std::collections::HashMap;

use crate::record::{EntityId, Record, Timestamp};

/// An in-memory location dataset, with records grouped per entity and
/// sorted by time within each entity.
#[derive(Debug, Clone, Default)]
pub struct LocationDataset {
    /// Entity id → its records, time-sorted.
    per_entity: HashMap<EntityId, Vec<Record>>,
    total_records: usize,
}

impl LocationDataset {
    /// Builds a dataset from an unordered record stream.
    pub fn from_records(records: impl IntoIterator<Item = Record>) -> Self {
        let mut ds = Self::default();
        for r in records {
            ds.push(r);
        }
        ds.finish();
        ds
    }

    /// Appends one record to its entity's group. The groups are not
    /// time-sorted again until [`LocationDataset::finish`] runs.
    pub(crate) fn push(&mut self, r: Record) {
        self.per_entity.entry(r.entity).or_default().push(r);
        self.total_records += 1;
    }

    /// Time-sorts every group (stably: records of equal time keep their
    /// arrival order) and gives back the growth slack.
    pub(crate) fn finish(&mut self) {
        for recs in self.per_entity.values_mut() {
            recs.sort_by_key(|r| r.time);
            recs.shrink_to_fit();
        }
    }

    /// Number of entities.
    pub fn num_entities(&self) -> usize {
        self.per_entity.len()
    }

    /// Total number of records.
    pub fn num_records(&self) -> usize {
        self.total_records
    }

    /// Iterator over entity ids (arbitrary order).
    pub fn entities(&self) -> impl Iterator<Item = EntityId> + '_ {
        self.per_entity.keys().copied()
    }

    /// Entity ids, sorted — useful for deterministic iteration.
    pub fn entities_sorted(&self) -> Vec<EntityId> {
        let mut v: Vec<_> = self.per_entity.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Records of one entity (time-sorted), or an empty slice.
    pub fn records_of(&self, e: EntityId) -> &[Record] {
        self.per_entity.get(&e).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Whether an entity exists in the dataset.
    pub fn contains(&self, e: EntityId) -> bool {
        self.per_entity.contains_key(&e)
    }

    /// The min/max timestamps across all records, or `None` if empty.
    pub fn time_span(&self) -> Option<(Timestamp, Timestamp)> {
        let mut span: Option<(Timestamp, Timestamp)> = None;
        for recs in self.per_entity.values() {
            let (Some(first), Some(last)) = (recs.first(), recs.last()) else {
                continue;
            };
            span = Some(match span {
                None => (first.time, last.time),
                Some((lo, hi)) => (lo.min(first.time), hi.max(last.time)),
            });
        }
        span
    }

    /// Drops entities with `min_records` or fewer records. The paper
    /// ignores entities with ≤ 5 records after downsampling (§5.1).
    pub fn filter_min_records(&mut self, min_records: usize) {
        let mut removed = 0usize;
        self.per_entity.retain(|_, recs| {
            if recs.len() > min_records {
                true
            } else {
                removed += recs.len();
                false
            }
        });
        self.total_records -= removed;
    }

    /// Average number of records per entity (0 if empty).
    pub fn avg_records_per_entity(&self) -> f64 {
        if self.per_entity.is_empty() {
            0.0
        } else {
            self.total_records as f64 / self.per_entity.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geocell::LatLng;

    fn rec(e: u64, t: i64) -> Record {
        Record::new(EntityId(e), LatLng::from_degrees(0.0, 0.0), Timestamp(t))
    }

    #[test]
    fn groups_and_sorts() {
        let ds = LocationDataset::from_records(vec![rec(1, 30), rec(2, 10), rec(1, 10)]);
        assert_eq!(ds.num_entities(), 2);
        assert_eq!(ds.num_records(), 3);
        let times: Vec<i64> = ds
            .records_of(EntityId(1))
            .iter()
            .map(|r| r.time.secs())
            .collect();
        assert_eq!(times, vec![10, 30]);
    }

    #[test]
    fn time_span_across_entities() {
        let ds = LocationDataset::from_records(vec![rec(1, 30), rec(2, 5), rec(3, 99)]);
        assert_eq!(ds.time_span(), Some((Timestamp(5), Timestamp(99))));
    }

    #[test]
    fn empty_dataset() {
        let ds = LocationDataset::from_records(Vec::new());
        assert_eq!(ds.num_entities(), 0);
        assert!(ds.time_span().is_none());
        assert_eq!(ds.avg_records_per_entity(), 0.0);
    }

    #[test]
    fn filter_min_records_drops_small_entities() {
        let mut ds =
            LocationDataset::from_records(vec![rec(1, 1), rec(1, 2), rec(1, 3), rec(2, 1)]);
        ds.filter_min_records(2);
        assert!(ds.contains(EntityId(1)));
        assert!(!ds.contains(EntityId(2)));
        assert_eq!(ds.num_records(), 3);
    }

    #[test]
    fn records_of_missing_entity_is_empty() {
        let ds = LocationDataset::from_records(vec![rec(1, 1)]);
        assert!(ds.records_of(EntityId(9)).is_empty());
    }

    #[test]
    fn entities_sorted_is_sorted() {
        let ds = LocationDataset::from_records(vec![rec(5, 1), rec(2, 1), rec(9, 1)]);
        assert_eq!(
            ds.entities_sorted(),
            vec![EntityId(2), EntityId(5), EntityId(9)]
        );
    }
}
