//! Epoch snapshots: the immutable read path published at each tick
//! barrier.
//!
//! The engine's link set only changes at refresh ticks, so the tick
//! barrier is the natural publication point: after the matching and
//! threshold selection settle, [`crate::StreamEngine::refresh`] freezes
//! the served state into one immutable [`LinkSnapshot`] and swaps it
//! behind the [`EpochPointer`]. Readers — the query server in
//! [`crate::serve`], stress-test threads, anything holding a pointer
//! clone — load the current epoch as an `Arc` clone and answer every
//! query from that frozen view. Nothing a reader does can block the
//! worker pool or delay the next barrier: the pointer swap is the only
//! shared state, the lock around it is held for a pointer copy (an
//! arc-swap emulated with `std` primitives — no new dependencies), and
//! the snapshot itself is never mutated after publication.
//!
//! Epoch ids are dense and monotone (epoch `k` is the state after the
//! `k`-th tick), so a reader observing epochs `3, 3, 5` knows exactly
//! which ticks it saw and that nothing torn was ever visible: a
//! snapshot is either the complete output of a barrier or not published
//! at all.

use std::sync::{Arc, Mutex};

use slim_core::{Edge, EntityId, Timestamp};

/// One published epoch: the complete served state of a tick barrier,
/// frozen. Built by [`crate::StreamEngine::refresh`]; immutable
/// afterwards.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkSnapshot {
    /// Dense monotone epoch id: the number of refresh ticks that had
    /// run when this snapshot was published (`0` only for the
    /// pre-first-tick [`LinkSnapshot::empty`] placeholder).
    pub epoch: u64,
    /// Events the engine had accepted when this epoch was published —
    /// the exact stream prefix this snapshot is the linkage of.
    pub events: u64,
    /// The served link set, in the matcher's heaviest-first order
    /// (ties on `(left, right)`) — bit-identical across shard counts,
    /// worker counts, and claim interleavings for the same prefix + tick
    /// schedule.
    pub links: Vec<Edge>,
    /// The matched-weight stop threshold selected at this tick
    /// (`None` when the threshold method selected nothing — too few
    /// matched weights, or `ThresholdMethod::None`).
    pub threshold: Option<f64>,
    /// Event-time frontier: the exclusive end of the highest temporal
    /// window the engine had seen — every record this epoch links was
    /// timestamped strictly below it. `None` only on the epoch-0
    /// placeholder (no window scheme yet).
    pub frontier: Option<Timestamp>,
}

impl LinkSnapshot {
    /// The pre-first-tick placeholder a fresh [`EpochPointer`] serves:
    /// epoch 0, no events, no links, no threshold, no frontier.
    pub fn empty() -> Self {
        Self {
            epoch: 0,
            events: 0,
            links: Vec::new(),
            threshold: None,
            frontier: None,
        }
    }

    /// The links involving `entity` (on either side), in the snapshot's
    /// order. A linear scan: the snapshot is an immutable value, not an
    /// index — callers needing sub-linear lookups can build their own
    /// from `links`.
    pub fn links_of(&self, entity: EntityId) -> Vec<Edge> {
        self.links
            .iter()
            .filter(|e| e.left == entity || e.right == entity)
            .copied()
            .collect()
    }
}

/// The epoch pointer: one writer (the engine thread, at tick barriers)
/// publishes immutable [`LinkSnapshot`]s, any number of readers load
/// the current one. Clones share the pointer — the engine keeps one,
/// every server/reader holds another.
///
/// This is an arc-swap emulated with `std`: the `Mutex` guards only the
/// `Arc` pointer itself and is held exactly long enough to copy or
/// replace it (never while a snapshot is built or read), so a reader
/// can delay the barrier by at most one pointer copy — the
/// concurrent-reader stress test pins that the drive's output is
/// bit-identical with readers hammering this pointer or not.
#[derive(Debug, Clone)]
pub struct EpochPointer {
    current: Arc<Mutex<Arc<LinkSnapshot>>>,
}

impl Default for EpochPointer {
    fn default() -> Self {
        Self::new()
    }
}

impl EpochPointer {
    /// A pointer serving [`LinkSnapshot::empty`] until the first
    /// publication.
    pub fn new() -> Self {
        Self {
            current: Arc::new(Mutex::new(Arc::new(LinkSnapshot::empty()))),
        }
    }

    /// Loads the current epoch — an `Arc` clone under the pointer lock,
    /// never a data copy. The returned snapshot stays valid (and
    /// unchanged) for as long as the caller holds it, no matter how
    /// many epochs are published meanwhile.
    pub fn load(&self) -> Arc<LinkSnapshot> {
        Arc::clone(&self.current.lock().expect("epoch pointer poisoned"))
    }

    /// Publishes `snapshot` as the current epoch (a pointer swap under
    /// the lock). Called by the engine at each tick barrier; tests may
    /// publish directly to drive a server without an engine.
    pub fn publish(&self, snapshot: Arc<LinkSnapshot>) {
        *self.current.lock().expect("epoch pointer poisoned") = snapshot;
    }
}

/// An observation hook recording **every** published epoch, in order —
/// the epoch-path sibling of [`slim_telemetry::VecSink`]. A concurrent
/// reader polling the [`EpochPointer`] can miss epochs between loads;
/// the equivalence tests instead install a log with
/// [`crate::StreamEngine::set_epoch_log`] and compare the complete
/// publication sequence. Strictly observational: the engine pushes the
/// same `Arc` it publishes, so the log never changes what readers see.
#[derive(Debug, Clone, Default)]
pub struct EpochLog {
    inner: Arc<Mutex<Vec<Arc<LinkSnapshot>>>>,
}

impl EpochLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one published epoch (engine side).
    pub(crate) fn push(&self, snapshot: &Arc<LinkSnapshot>) {
        self.inner
            .lock()
            .expect("epoch log poisoned")
            .push(Arc::clone(snapshot));
    }

    /// Every epoch published so far, in publication order.
    pub fn collected(&self) -> Vec<Arc<LinkSnapshot>> {
        self.inner.lock().expect("epoch log poisoned").clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(l: u64, r: u64, w: f64) -> Edge {
        Edge {
            left: EntityId(l),
            right: EntityId(r),
            weight: w,
        }
    }

    #[test]
    fn fresh_pointer_serves_the_empty_epoch() {
        let p = EpochPointer::new();
        let snap = p.load();
        assert_eq!(*snap, LinkSnapshot::empty());
        assert_eq!(snap.epoch, 0);
        assert!(snap.links.is_empty() && snap.frontier.is_none());
    }

    #[test]
    fn publish_swaps_and_clones_share_the_pointer() {
        let p = EpochPointer::new();
        let reader = p.clone();
        let held = reader.load();
        p.publish(Arc::new(LinkSnapshot {
            epoch: 1,
            events: 10,
            links: vec![edge(1, 2, 0.9)],
            threshold: Some(0.5),
            frontier: Some(Timestamp(900)),
        }));
        // The clone observes the new epoch; the held Arc is unchanged.
        assert_eq!(reader.load().epoch, 1);
        assert_eq!(held.epoch, 0);
    }

    #[test]
    fn links_of_matches_either_side() {
        let snap = LinkSnapshot {
            epoch: 1,
            events: 3,
            links: vec![edge(1, 7, 0.9), edge(2, 1, 0.8), edge(3, 3, 0.7)],
            threshold: None,
            frontier: None,
        };
        assert_eq!(
            snap.links_of(EntityId(1)),
            vec![edge(1, 7, 0.9), edge(2, 1, 0.8)]
        );
        assert!(snap.links_of(EntityId(99)).is_empty());
    }

    #[test]
    fn epoch_log_records_publications_in_order() {
        let log = EpochLog::new();
        for k in 1..=3u64 {
            log.push(&Arc::new(LinkSnapshot {
                epoch: k,
                events: k * 5,
                links: Vec::new(),
                threshold: None,
                frontier: None,
            }));
        }
        let seen: Vec<u64> = log.collected().iter().map(|s| s.epoch).collect();
        assert_eq!(seen, vec![1, 2, 3]);
    }
}
