//! Frontier-driven reordering of bounded out-of-order arrivals.
//!
//! The engine's bit-identity contracts (stream/batch equivalence,
//! shard-count invariance, deterministic update streams) are all stated
//! over the **canonical event order** `(time, side, entity)` that
//! [`crate::event::merge_datasets`] produces. A live feed does not
//! arrive in that order; this buffer restores it for any disorder within
//! a declared lag: the pump holds every in-lag arrival here and releases,
//! in canonical order, whatever the merged
//! [`crate::source::ConnectionFrontier`] has passed. Arrivals that broke
//! the lag contract (strictly below the frontier) can no longer be
//! ordered — the pump counts them as *late* here instead of corrupting
//! the order or panicking.

use std::collections::BTreeMap;

use slim_core::{EntityId, Timestamp};

use crate::event::{Side, StreamEvent};

/// Holds out-of-order events until the frontier passes them, releasing
/// in canonical `(time, side, entity)` order. The buffer has no
/// frontier of its own: the caller decides lateness against the merged
/// frontier, [`ReorderBuffer::hold`]s what is in time and drains with
/// [`ReorderBuffer::release_below`].
#[derive(Debug)]
pub struct ReorderBuffer {
    /// The drive's out-of-order tolerance: the distance between a
    /// connection's newest event time and its watermark, which is what
    /// converts between the frontier and the checkpoint format's
    /// `max_seen`.
    max_lag_secs: i64,
    /// Pending events keyed by canonical order, then by arrival: events
    /// with identical canonical keys keep arrival order (they are
    /// indistinguishable to the canonical sort anyway).
    pending: BTreeMap<(Timestamp, Side, EntityId, u64), StreamEvent>,
    /// Arrival number of the next held event.
    next_seq: u64,
    late_events: u64,
}

impl ReorderBuffer {
    /// A buffer for a drive tolerating event-time disorder up to
    /// `max_lag_secs`.
    pub fn new(max_lag_secs: i64) -> Self {
        Self {
            max_lag_secs,
            pending: BTreeMap::new(),
            next_seq: 0,
            late_events: 0,
        }
    }

    /// Buffers one arrival the caller found in time (at or above the
    /// frontier as it stood before the arrival's own advance).
    pub fn hold(&mut self, ev: StreamEvent) {
        self.pending
            .insert((ev.time, ev.side, ev.entity, self.next_seq), ev);
        self.next_seq += 1;
    }

    /// Moves every held event strictly below `frontier` to `out`, in
    /// canonical order. `None` (no frontier yet) releases nothing.
    pub fn release_below(&mut self, frontier: Option<Timestamp>, out: &mut Vec<StreamEvent>) {
        let Some(frontier) = frontier else { return };
        while let Some(entry) = self.pending.first_entry() {
            if entry.key().0 >= frontier {
                break;
            }
            out.push(entry.remove());
        }
    }

    /// Counts one arrival rejected as late.
    pub fn count_late(&mut self) {
        self.late_events += 1;
    }

    /// End of stream: releases everything still buffered, in canonical
    /// order.
    pub fn flush(&mut self, out: &mut Vec<StreamEvent>) {
        out.extend(std::mem::take(&mut self.pending).into_values());
    }

    /// Arrivals rejected for breaking the lag contract.
    pub fn late_events(&self) -> u64 {
        self.late_events
    }

    /// Events currently held back waiting for the frontier.
    pub fn buffered(&self) -> usize {
        self.pending.len()
    }

    /// The buffer's complete state for checkpoint serialization —
    /// `max_seen`, held events in canonical key order, late count;
    /// [`ReorderBuffer::restore`] is the inverse. The VERSION 1 format
    /// stores the newest event time seen rather than the frontier; with
    /// the one connection a checkpointing drive has, that is
    /// `frontier + lag`.
    pub(crate) fn export(
        &self,
        frontier: Option<Timestamp>,
    ) -> (Option<Timestamp>, Vec<StreamEvent>, u64) {
        let max_seen = frontier.map(|f| Timestamp(f.secs().saturating_add(self.max_lag_secs)));
        let held = self.pending.values().copied().collect();
        (max_seen, held, self.late_events)
    }

    /// Rebuilds a buffer from a [`ReorderBuffer::export`] dump, plus the
    /// frontier the dump was taken at (`max_seen − lag`): the held events
    /// are re-buffered without any release, so once the caller has put
    /// its connection back at that frontier the recovered pair answers
    /// every subsequent arrival exactly like the checkpointed one.
    pub(crate) fn restore(
        max_lag_secs: i64,
        max_seen: Option<Timestamp>,
        held: Vec<StreamEvent>,
        late_events: u64,
    ) -> (Self, Option<Timestamp>) {
        let mut buf = Self::new(max_lag_secs);
        for ev in held {
            buf.hold(ev);
        }
        buf.late_events = late_events;
        let frontier = max_seen.map(|t| Timestamp(t.secs().saturating_sub(max_lag_secs)));
        (buf, frontier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::ConnectionFrontier;
    use geocell::LatLng;

    fn ev(side: Side, entity: u64, t: i64) -> StreamEvent {
        StreamEvent::new(
            side,
            EntityId(entity),
            LatLng::from_degrees(0.0, 0.0),
            Timestamp(t),
        )
    }

    fn times(events: &[StreamEvent]) -> Vec<i64> {
        events.iter().map(|e| e.time.secs()).collect()
    }

    /// The pump's per-arrival rule over one connection: lateness
    /// against the frontier as it stood before the arrival, hold, advance
    /// the connection to `time − lag`, release what the frontier passed.
    struct OneConnection {
        buf: ReorderBuffer,
        frontier: ConnectionFrontier,
        lag: i64,
        out: Vec<StreamEvent>,
    }

    impl OneConnection {
        fn new(lag: i64) -> Self {
            let mut frontier = ConnectionFrontier::new(0);
            frontier.join(0, 0);
            Self {
                buf: ReorderBuffer::new(lag),
                frontier,
                lag,
                out: Vec::new(),
            }
        }

        fn arrive(&mut self, ev: StreamEvent) {
            if self.frontier.is_late(ev.time) {
                self.buf.count_late();
            } else {
                self.buf.hold(ev);
            }
            self.frontier
                .advance(0, Timestamp(ev.time.secs() - self.lag), 0);
            self.buf
                .release_below(self.frontier.frontier(), &mut self.out);
        }
    }

    #[test]
    fn bounded_disorder_is_restored_to_canonical_order() {
        let mut c = OneConnection::new(100);
        for &t in &[50i64, 30, 80, 60, 200, 150, 300] {
            c.arrive(ev(Side::Left, 1, t));
        }
        c.buf.flush(&mut c.out);
        assert_eq!(times(&c.out), vec![30, 50, 60, 80, 150, 200, 300]);
        assert_eq!(c.buf.late_events(), 0);
        assert_eq!(c.buf.buffered(), 0);
    }

    #[test]
    fn ties_sort_by_side_then_entity() {
        let mut c = OneConnection::new(10);
        c.arrive(ev(Side::Right, 5, 100));
        c.arrive(ev(Side::Left, 9, 100));
        c.arrive(ev(Side::Left, 2, 100));
        c.buf.flush(&mut c.out);
        let keys: Vec<(Side, u64)> = c.out.iter().map(|e| (e.side, e.entity.0)).collect();
        assert_eq!(
            keys,
            vec![(Side::Left, 2), (Side::Left, 9), (Side::Right, 5)]
        );
    }

    #[test]
    fn zero_lag_rejects_out_of_order_and_passes_in_order() {
        let mut c = OneConnection::new(0);
        for &t in &[10i64, 20, 20, 15, 30, 29] {
            c.arrive(ev(Side::Left, 1, t));
        }
        c.buf.flush(&mut c.out);
        // 15 and 29 arrived below the already-released frontier.
        assert_eq!(c.buf.late_events(), 2);
        assert_eq!(times(&c.out), vec![10, 20, 20, 30]);
    }

    #[test]
    fn releases_only_below_the_frontier() {
        let mut c = OneConnection::new(50);
        c.arrive(ev(Side::Left, 1, 100));
        assert!(c.out.is_empty(), "frontier 50 releases nothing");
        c.arrive(ev(Side::Left, 1, 200));
        // Frontier 150: the event at 100 is safe, 200 still held.
        assert_eq!(times(&c.out), vec![100]);
        assert_eq!(c.buf.buffered(), 1);
    }

    /// `hold` never releases on its own, `release_below` drains exactly
    /// the prefix strictly below the supplied frontier, and `flush`
    /// empties the rest.
    #[test]
    fn external_frontier_governs_release() {
        let mut buf = ReorderBuffer::new(0);
        let mut out = Vec::new();
        for &t in &[50i64, 30, 80, 60] {
            buf.hold(ev(Side::Left, 1, t));
        }
        assert_eq!(buf.buffered(), 4);
        assert!(out.is_empty());
        buf.release_below(None, &mut out);
        assert!(out.is_empty(), "no frontier, no release");
        buf.release_below(Some(Timestamp(60)), &mut out);
        assert_eq!(times(&out), vec![30, 50], "strictly below 60");
        assert_eq!(buf.buffered(), 2);
        buf.count_late();
        assert_eq!(buf.late_events(), 1);
        buf.flush(&mut out);
        assert_eq!(times(&out), vec![30, 50, 60, 80]);
        assert_eq!(buf.buffered(), 0);
    }

    /// Equal keys are data, not errors, and keep their arrival order.
    #[test]
    fn exact_duplicates_survive_with_arrival_order() {
        let mut c = OneConnection::new(0);
        let mut first = ev(Side::Left, 1, 10);
        let mut second = first;
        first.accuracy_m = 1.0;
        second.accuracy_m = 2.0;
        c.arrive(first);
        c.arrive(second);
        c.buf.flush(&mut c.out);
        let accuracies: Vec<f64> = c.out.iter().map(|e| e.accuracy_m).collect();
        assert_eq!(accuracies, vec![1.0, 2.0]);
    }

    /// A restored buffer, with its connection put back at the returned
    /// frontier, answers every later arrival like the exported one.
    #[test]
    fn export_restore_round_trips() {
        let mut live = OneConnection::new(100);
        for &t in &[50i64, 300, 250, 10, 280] {
            live.arrive(ev(Side::Left, 1, t));
        }
        let (max_seen, held, late) = live.buf.export(live.frontier.frontier());
        assert_eq!(max_seen, Some(Timestamp(300)), "frontier 200 + lag 100");
        assert_eq!(times(&held), vec![250, 280, 300], "canonical order");
        assert_eq!(late, 1, "the arrival at 10 was below frontier 200");

        let (buf, frontier) = ReorderBuffer::restore(100, max_seen, held, late);
        assert_eq!(frontier, live.frontier.frontier());
        let mut back = OneConnection::new(100);
        back.buf = buf;
        back.frontier
            .advance(0, frontier.expect("dumped after arrivals"), 0);
        for c in [&mut live, &mut back] {
            c.out.clear();
            for &t in &[150i64, 260, 420] {
                c.arrive(ev(Side::Right, 2, t));
            }
            c.buf.flush(&mut c.out);
        }
        assert_eq!(back.out, live.out);
        assert_eq!(back.buf.late_events(), live.buf.late_events());
        assert_eq!(back.buf.late_events(), 2, "150 is below the frontier");
    }
}
