//! CSV replay source: two batch datasets flattened into the canonical
//! time-ordered event stream, delivered in bounded batches.

use slim_core::LocationDataset;

use crate::event::{merge_datasets, StreamEvent};
use crate::source::{SourcePoll, StreamSource};

/// Replays two CSV datasets as the canonical merged event stream — the
/// `StreamSource` form of the direct replay path (`slim-link --stream
/// --source csv`). Delivery is already in canonical order, so any
/// reorder lag (including zero) passes it through untouched.
#[derive(Debug)]
pub struct CsvReplaySource {
    events: Vec<StreamEvent>,
    cursor: usize,
}

impl CsvReplaySource {
    /// Replays two already-loaded datasets.
    pub fn from_datasets(left: &LocationDataset, right: &LocationDataset) -> Self {
        Self::from_events(merge_datasets(left, right))
    }

    /// Replays a pre-built event sequence verbatim (delivery order =
    /// the given order).
    pub fn from_events(events: Vec<StreamEvent>) -> Self {
        Self { events, cursor: 0 }
    }

    /// The full event sequence this source will deliver.
    pub fn events(&self) -> &[StreamEvent] {
        &self.events
    }
}

impl StreamSource for CsvReplaySource {
    fn next_batch(&mut self, max: usize) -> Result<SourcePoll, String> {
        if self.cursor >= self.events.len() {
            return Ok(SourcePoll::End);
        }
        let end = (self.cursor + max.max(1)).min(self.events.len());
        let batch = self.events[self.cursor..end].to_vec();
        self.cursor = end;
        Ok(SourcePoll::Batch(batch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geocell::LatLng;
    use slim_core::{EntityId, Record, Timestamp};

    #[test]
    fn replays_merged_events_in_batches() {
        let rec =
            |e: u64, t: i64| Record::new(EntityId(e), LatLng::from_degrees(0.0, 0.0), Timestamp(t));
        let l = LocationDataset::from_records(vec![rec(1, 10), rec(1, 30)]);
        let r = LocationDataset::from_records(vec![rec(2, 20)]);
        let mut src = CsvReplaySource::from_datasets(&l, &r);
        assert_eq!(src.events().len(), 3);
        let mut seen = Vec::new();
        loop {
            match src.next_batch(2).unwrap() {
                SourcePoll::Batch(b) => seen.extend(b),
                SourcePoll::End => break,
                SourcePoll::Pending => unreachable!("replay never stalls"),
            }
        }
        let times: Vec<i64> = seen.iter().map(|e| e.time.secs()).collect();
        assert_eq!(times, vec![10, 20, 30]);
        // EOF is terminal.
        assert_eq!(src.next_batch(2).unwrap(), SourcePoll::End);
    }
}
