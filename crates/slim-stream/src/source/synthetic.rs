//! Synthetic feed: slim-datagen workloads — or any pre-built event
//! sequence, such as two CSV datasets merged for `slim-link --source
//! csv` — delivered as a live source, optionally paced to a target
//! event rate.
//!
//! Rate control is driven through the [`Clock`] abstraction so the
//! pacing logic itself is testable against a virtual clock
//! ([`crate::testing::VirtualClock`]) — CI never sleeps to observe it.

use std::time::Instant;

use crate::event::{merge_datasets, StreamEvent};
use crate::source::{SourcePoll, StreamSource};

/// A monotone nanosecond clock. [`WallClock`] for production pacing,
/// [`crate::testing::VirtualClock`] for deterministic tests.
pub trait Clock: Send {
    /// Nanoseconds since an arbitrary fixed origin.
    fn now_ns(&self) -> u64;
}

/// The real monotonic clock.
#[derive(Debug)]
pub struct WallClock(Instant);

impl WallClock {
    /// A wall clock anchored at construction time.
    pub fn new() -> Self {
        Self(Instant::now())
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Delivers a slim-datagen workload (or any pre-built event sequence)
/// as a stream source. Unpaced it produces maximal batches — the
/// highest-pressure feed the engine can face; with
/// [`SyntheticSource::with_rate`] it releases events against the clock
/// so a drained feed polls [`SourcePoll::Pending`] until more are due.
pub struct SyntheticSource {
    events: Vec<StreamEvent>,
    cursor: usize,
    /// Target sustained rate in events/second (`None` = unpaced).
    rate: Option<f64>,
    clock: Box<dyn Clock>,
    /// Pacing origin: the clock reading at the first poll.
    started_ns: Option<u64>,
}

impl SyntheticSource {
    /// A paper-workload feed: the named scenario (`"cab"` or `"sm"`)
    /// at the given scale/seed, both views merged into the canonical
    /// event stream.
    pub fn scenario(name: &str, scale: f64, seed: u64) -> Result<Self, String> {
        let scenario = match name {
            "cab" => slim_datagen::Scenario::cab(scale, seed),
            "sm" => slim_datagen::Scenario::sm(scale, seed),
            other => return Err(format!("unknown scenario `{other}` (cab | sm)")),
        };
        let sample = scenario.sample(0.5, seed);
        Ok(Self::from_events(merge_datasets(
            &sample.left,
            &sample.right,
        )))
    }

    /// A feed over a pre-built event sequence (delivered verbatim).
    pub fn from_events(events: Vec<StreamEvent>) -> Self {
        Self {
            events,
            cursor: 0,
            rate: None,
            clock: Box::new(WallClock::new()),
            started_ns: None,
        }
    }

    /// Paces delivery to `events_per_sec` (must be positive): by clock
    /// time `t` after the first poll, exactly `⌊t · rate⌋` events have
    /// been released.
    pub fn with_rate(mut self, events_per_sec: f64) -> Self {
        assert!(
            events_per_sec > 0.0 && events_per_sec.is_finite(),
            "rate must be positive"
        );
        self.rate = Some(events_per_sec);
        self
    }

    /// Substitutes the pacing clock (testing).
    pub fn with_clock(mut self, clock: impl Clock + 'static) -> Self {
        self.clock = Box::new(clock);
        self
    }

    /// The full event sequence this source will deliver.
    pub fn events(&self) -> &[StreamEvent] {
        &self.events
    }
}

impl std::fmt::Debug for SyntheticSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SyntheticSource")
            .field("events", &self.events.len())
            .field("cursor", &self.cursor)
            .field("rate", &self.rate)
            .finish()
    }
}

impl StreamSource for SyntheticSource {
    fn next_batch(&mut self, max: usize) -> Result<SourcePoll, String> {
        if self.cursor >= self.events.len() {
            return Ok(SourcePoll::End);
        }
        let available = match self.rate {
            None => self.events.len() - self.cursor,
            Some(rate) => {
                let now = self.clock.now_ns();
                let started = *self.started_ns.get_or_insert(now);
                let due = ((now - started) as f64 * rate / 1e9) as usize;
                let due = due.min(self.events.len());
                if due <= self.cursor {
                    return Ok(SourcePoll::Pending);
                }
                due - self.cursor
            }
        };
        let end = self.cursor + available.min(max.max(1));
        let batch = self.events[self.cursor..end].to_vec();
        self.cursor = end;
        Ok(SourcePoll::Batch(batch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::VirtualClock;

    #[test]
    fn scenario_feeds_the_whole_workload_unpaced() {
        let mut src = SyntheticSource::scenario("cab", 0.04, 5).unwrap();
        let total = src.events().len();
        assert!(total > 100, "workload too small: {total}");
        let mut got = 0;
        loop {
            match src.next_batch(1 << 14).unwrap() {
                SourcePoll::Batch(b) => got += b.len(),
                SourcePoll::End => break,
                SourcePoll::Pending => unreachable!("unpaced feed never stalls"),
            }
        }
        assert_eq!(got, total);
        assert!(SyntheticSource::scenario("nope", 0.1, 1).is_err());
    }

    /// Unpaced, a feed replays two datasets as the merged event stream
    /// in batches of at most `max` (the `slim-link --source csv` path).
    #[test]
    fn replays_merged_events_in_batches() {
        use geocell::LatLng;
        use slim_core::{EntityId, LocationDataset, Record, Timestamp};

        let rec =
            |e: u64, t: i64| Record::new(EntityId(e), LatLng::from_degrees(0.0, 0.0), Timestamp(t));
        let l = LocationDataset::from_records(vec![rec(1, 10), rec(1, 30)]);
        let r = LocationDataset::from_records(vec![rec(2, 20)]);
        let mut src = SyntheticSource::from_events(merge_datasets(&l, &r));
        assert_eq!(src.events().len(), 3);
        let mut batches = Vec::new();
        loop {
            match src.next_batch(2).unwrap() {
                SourcePoll::Batch(b) => batches.push(b),
                SourcePoll::End => break,
                SourcePoll::Pending => unreachable!("replay never stalls"),
            }
        }
        let times: Vec<Vec<i64>> = batches
            .iter()
            .map(|b| b.iter().map(|e| e.time.secs()).collect())
            .collect();
        assert_eq!(times, vec![vec![10, 20], vec![30]]);
        // EOF is terminal.
        assert_eq!(src.next_batch(2).unwrap(), SourcePoll::End);
    }

    /// Pacing against a virtual clock: release counts follow
    /// `⌊elapsed · rate⌋` exactly, with `Pending` in between — no wall
    /// clock, no sleeps.
    #[test]
    fn rate_control_follows_the_clock() {
        let events = SyntheticSource::scenario("cab", 0.04, 5)
            .unwrap()
            .events()
            .to_vec();
        let n = events.len().min(500);
        let clock = VirtualClock::new();
        let handle = clock.clone();
        let mut src = SyntheticSource::from_events(events[..n].to_vec())
            .with_rate(1000.0) // 1 event per virtual millisecond
            .with_clock(clock);
        // First poll anchors the pacing origin; nothing is due yet.
        assert_eq!(src.next_batch(100).unwrap(), SourcePoll::Pending);
        handle.advance_ms(5);
        match src.next_batch(100).unwrap() {
            SourcePoll::Batch(b) => assert_eq!(b.len(), 5),
            other => panic!("expected 5 due events, got {other:?}"),
        }
        assert_eq!(src.next_batch(100).unwrap(), SourcePoll::Pending);
        // `max` caps a large backlog; the rest stays due.
        handle.advance_ms(20);
        match src.next_batch(8).unwrap() {
            SourcePoll::Batch(b) => assert_eq!(b.len(), 8),
            other => panic!("expected a capped batch, got {other:?}"),
        }
        match src.next_batch(100).unwrap() {
            SourcePoll::Batch(b) => assert_eq!(b.len(), 12),
            other => panic!("expected the backlog remainder, got {other:?}"),
        }
        // Jumping the clock far ahead releases everything, then EOF.
        handle.advance_ms(10_000_000);
        let mut rest = 0;
        loop {
            match src.next_batch(1 << 12).unwrap() {
                SourcePoll::Batch(b) => rest += b.len(),
                SourcePoll::End => break,
                SourcePoll::Pending => panic!("everything is due"),
            }
        }
        assert_eq!(rest, n - 25);
    }
}
