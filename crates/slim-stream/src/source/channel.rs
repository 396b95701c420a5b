//! A bounded MPSC channel with explicit backpressure accounting.
//!
//! The ingestion front-end needs exactly one property no `std` channel
//! offers out of the box: a **hard capacity** that blocks producers
//! (never drops, never grows unbounded) while *accounting* for the time
//! spent blocked — `blocked_producer_ns` is how a deployment sees that
//! the engine, not the feed, is the bottleneck. [`Sender`] is `Clone`:
//! every live connection of the multi-connection ingest tier holds one,
//! all fanning into a single [`Receiver`], and the channel closes only
//! when the *last* sender drops. Because the counters live in the
//! shared core, `blocked_producer_ns` is automatically the **aggregate**
//! pressure across all producers. Built on `Mutex<VecDeque>` + two
//! `Condvar`s; the shims-only build environment rules out `crossbeam`,
//! and the blocking fan-in shape of the pump does not need lock-free
//! cleverness.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Backpressure counters of one channel, snapshotted via
/// [`Receiver::stats`] (or [`Sender::stats`]). With multiple cloned
/// senders the counters aggregate over *all* of them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Total nanoseconds producers spent blocked on a full queue,
    /// summed across every sender.
    pub blocked_producer_ns: u64,
    /// Highest queue occupancy ever observed (≤ capacity).
    pub queue_high_watermark: u64,
}

struct Inner<T> {
    queue: VecDeque<T>,
    /// Capacity in items, fixed at creation.
    cap: usize,
    /// Live senders; the channel closes when the count reaches zero.
    senders: usize,
    /// Every producer dropped: no more items will arrive.
    closed: bool,
    /// Receiver dropped: sends can never be drained.
    rx_alive: bool,
    /// How many producers are currently parked on a full queue.
    producers_blocked: usize,
    stats: ChannelStats,
}

struct Shared<T> {
    inner: Mutex<Inner<T>>,
    not_full: Condvar,
    not_empty: Condvar,
}

/// The producing half. Cloning it adds a producer (MPSC fan-in);
/// dropping the *last* clone closes the channel, and the receiver
/// still drains whatever was queued.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The consuming half. Dropping it unblocks and fails the producer.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Creates a bounded channel holding at most `cap` in-flight items.
///
/// # Panics
/// Panics if `cap` is zero (a zero-capacity rendezvous channel would
/// deadlock the pump's drain-at-EOF path).
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    assert!(cap > 0, "channel capacity must be positive");
    let shared = Arc::new(Shared {
        inner: Mutex::new(Inner {
            queue: VecDeque::with_capacity(cap.min(65_536)),
            cap,
            senders: 1,
            closed: false,
            rx_alive: true,
            producers_blocked: 0,
            stats: ChannelStats::default(),
        }),
        not_full: Condvar::new(),
        not_empty: Condvar::new(),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

/// The receiver disappeared: the channel can never drain, and the item
/// (the first undeliverable one) is handed back.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Outcome of one [`Receiver::recv_many_timeout`] wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeout {
    /// At least one item was moved into `out`.
    Items,
    /// The wait elapsed with the channel open but empty — a liveness
    /// tick for consumers that must act on wall time even when no
    /// producer is delivering (the fan-in pump's idle eviction).
    TimedOut,
    /// Closed and fully drained: EOF.
    Closed,
}

impl<T> Sender<T> {
    /// Enqueues one item, blocking while the queue is full. Time spent
    /// blocked is added to [`ChannelStats::blocked_producer_ns`].
    pub fn send(&self, item: T) -> Result<(), SendError<T>> {
        let mut inner = self.shared.inner.lock().expect("channel poisoned");
        while inner.queue.len() >= inner.cap {
            if !inner.rx_alive {
                return Err(SendError(item));
            }
            inner.producers_blocked += 1;
            let t0 = Instant::now();
            inner = self.shared.not_full.wait(inner).expect("channel poisoned");
            inner.producers_blocked -= 1;
            inner.stats.blocked_producer_ns += t0.elapsed().as_nanos() as u64;
        }
        if !inner.rx_alive {
            return Err(SendError(item));
        }
        inner.queue.push_back(item);
        let len = inner.queue.len() as u64;
        inner.stats.queue_high_watermark = inner.stats.queue_high_watermark.max(len);
        drop(inner);
        self.shared.not_empty.notify_one();
        Ok(())
    }

    /// Enqueues a batch with one lock acquisition per capacity-sized
    /// run instead of one per item — the producer hot path. Blocks
    /// (with the same [`ChannelStats::blocked_producer_ns`] accounting)
    /// whenever the queue fills mid-batch; on a vanished receiver the
    /// first undeliverable item is handed back and the rest of the
    /// batch is dropped (the stream is dead either way).
    pub fn send_all<I: IntoIterator<Item = T>>(&self, items: I) -> Result<(), SendError<T>> {
        let mut items = items.into_iter();
        let mut inner = self.shared.inner.lock().expect("channel poisoned");
        loop {
            if !inner.rx_alive {
                return match items.next() {
                    Some(item) => Err(SendError(item)),
                    None => Ok(()),
                };
            }
            let mut pushed = false;
            while inner.queue.len() < inner.cap {
                match items.next() {
                    Some(item) => {
                        inner.queue.push_back(item);
                        pushed = true;
                    }
                    None => {
                        let len = inner.queue.len() as u64;
                        inner.stats.queue_high_watermark =
                            inner.stats.queue_high_watermark.max(len);
                        drop(inner);
                        self.shared.not_empty.notify_one();
                        return Ok(());
                    }
                }
            }
            let len = inner.queue.len() as u64;
            inner.stats.queue_high_watermark = inner.stats.queue_high_watermark.max(len);
            if pushed {
                // The consumer may be waiting while we block on the
                // full queue — hand over what is already queued.
                self.shared.not_empty.notify_one();
            }
            inner.producers_blocked += 1;
            let t0 = Instant::now();
            inner = self.shared.not_full.wait(inner).expect("channel poisoned");
            inner.producers_blocked -= 1;
            inner.stats.blocked_producer_ns += t0.elapsed().as_nanos() as u64;
        }
    }

    /// Backpressure counters so far (aggregated over every sender).
    pub fn stats(&self) -> ChannelStats {
        self.shared.inner.lock().expect("channel poisoned").stats
    }

    /// Current queue occupancy, observed from the producing side (`0`
    /// means the consumer has drained everything sent so far — how a
    /// test producer sequences phases against consumer progress).
    pub fn len(&self) -> usize {
        self.shared
            .inner
            .lock()
            .expect("channel poisoned")
            .queue
            .len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Sender<T> {
    /// Adds a producer. The channel now closes only after this clone
    /// (and every other sender) has dropped.
    fn clone(&self) -> Self {
        let mut inner = self.shared.inner.lock().expect("channel poisoned");
        inner.senders += 1;
        drop(inner);
        Sender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut inner = self.shared.inner.lock().expect("channel poisoned");
        inner.senders -= 1;
        if inner.senders == 0 {
            inner.closed = true;
            drop(inner);
            self.shared.not_empty.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Dequeues up to `max` items into `out`, blocking until at least
    /// one item is available or the channel is closed *and* drained.
    /// Returns `false` only in that final state — every queued item is
    /// delivered before EOF is reported, so nothing is ever dropped.
    pub fn recv_many(&self, out: &mut Vec<T>, max: usize) -> bool {
        self.recv_until(out, max, None) == RecvTimeout::Items
    }

    /// [`Receiver::recv_many`] with a bounded wait: where `recv_many`
    /// parks until items arrive or the channel closes, this also
    /// returns after `timeout` of open-but-empty quiet — which is what
    /// lets a consumer with wall-time duties (idle-connection eviction)
    /// stay live while every producer is stalled.
    pub fn recv_many_timeout(
        &self,
        out: &mut Vec<T>,
        max: usize,
        timeout: std::time::Duration,
    ) -> RecvTimeout {
        self.recv_until(out, max, Some(Instant::now() + timeout))
    }

    /// The one receive loop; `None` = no deadline.
    fn recv_until(&self, out: &mut Vec<T>, max: usize, deadline: Option<Instant>) -> RecvTimeout {
        let mut inner = self.shared.inner.lock().expect("channel poisoned");
        loop {
            if !inner.queue.is_empty() {
                let n = inner.queue.len().min(max.max(1));
                out.extend(inner.queue.drain(..n));
                drop(inner);
                // Space freed: wake every parked producer — with MPSC
                // fan-in more than one may fit in the drained slots.
                self.shared.not_full.notify_all();
                return RecvTimeout::Items;
            }
            if inner.closed {
                return RecvTimeout::Closed;
            }
            inner = match deadline {
                None => self.shared.not_empty.wait(inner).expect("channel poisoned"),
                Some(deadline) => {
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    if remaining.is_zero() {
                        return RecvTimeout::TimedOut;
                    }
                    let waited = self.shared.not_empty.wait_timeout(inner, remaining);
                    waited.expect("channel poisoned").0
                }
            };
        }
    }

    /// Current queue occupancy.
    pub fn len(&self) -> usize {
        self.shared
            .inner
            .lock()
            .expect("channel poisoned")
            .queue
            .len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether any producer is parked on a full queue right now.
    pub fn producer_blocked(&self) -> bool {
        self.producers_blocked() > 0
    }

    /// How many producers are parked on a full queue right now.
    pub fn producers_blocked(&self) -> usize {
        self.shared
            .inner
            .lock()
            .expect("channel poisoned")
            .producers_blocked
    }

    /// How many senders are currently alive.
    pub fn sender_count(&self) -> usize {
        self.shared.inner.lock().expect("channel poisoned").senders
    }

    /// Backpressure counters so far.
    pub fn stats(&self) -> ChannelStats {
        self.shared.inner.lock().expect("channel poisoned").stats
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut inner = self.shared.inner.lock().expect("channel poisoned");
        inner.rx_alive = false;
        drop(inner);
        self.shared.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The backpressure contract: a slow consumer on a tiny queue blocks
    /// the producer (counted), never drops an item, and drains fully at
    /// EOF. The consumer waits on *observable state* (full queue +
    /// parked producer), not on sleeps, so the test cannot flake on a
    /// loaded CI host.
    #[test]
    fn slow_consumer_blocks_producer_without_losing_items() {
        const N: u64 = 100;
        const CAP: usize = 4;
        let (tx, rx) = bounded::<u64>(CAP);
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                tx.send(i).expect("receiver alive");
            }
        });
        // Deterministic block: with capacity 4 and 100 items, the
        // producer must eventually fill the queue and park.
        while !(rx.len() == CAP && rx.producer_blocked()) {
            std::thread::yield_now();
        }
        let mut got = Vec::new();
        let mut buf = Vec::new();
        while rx.recv_many(&mut buf, 3) {
            got.append(&mut buf);
        }
        producer.join().expect("producer panicked");
        assert_eq!(got, (0..N).collect::<Vec<_>>(), "dropped or reordered");
        let stats = rx.stats();
        assert!(
            stats.blocked_producer_ns > 0,
            "producer never recorded blocked time"
        );
        assert_eq!(stats.queue_high_watermark, CAP as u64);
    }

    /// `send_all` with a batch far larger than the capacity: blocks at
    /// every fill (counted), hands items over mid-batch, and the full
    /// sequence arrives in order.
    #[test]
    fn send_all_streams_an_oversized_batch() {
        const N: u64 = 500;
        let (tx, rx) = bounded::<u64>(8);
        let producer = std::thread::spawn(move || {
            tx.send_all(0..N).expect("receiver alive");
        });
        let mut got = Vec::new();
        let mut buf = Vec::new();
        while rx.recv_many(&mut buf, 64) {
            got.append(&mut buf);
        }
        producer.join().expect("producer panicked");
        assert_eq!(got, (0..N).collect::<Vec<_>>());
        let stats = rx.stats();
        assert_eq!(stats.queue_high_watermark, 8);
        assert!(stats.blocked_producer_ns > 0, "must have hit backpressure");
    }

    #[test]
    fn send_all_to_dropped_receiver_errors() {
        let (tx, rx) = bounded::<u32>(2);
        drop(rx);
        assert_eq!(tx.send_all(vec![1, 2, 3]), Err(SendError(1)));
        // An empty batch to a dead receiver is a no-op, not an error.
        let (tx, rx) = bounded::<u32>(2);
        drop(rx);
        assert_eq!(tx.send_all(Vec::new()), Ok(()));
    }

    #[test]
    fn eof_after_drain() {
        let (tx, rx) = bounded::<u32>(8);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        let mut buf = Vec::new();
        assert!(rx.recv_many(&mut buf, 10));
        assert_eq!(buf, vec![1, 2]);
        assert!(!rx.recv_many(&mut buf, 10), "closed and drained");
    }

    #[test]
    fn dropped_receiver_fails_send() {
        let (tx, rx) = bounded::<u32>(1);
        tx.send(7).unwrap();
        drop(rx);
        assert_eq!(tx.send(8), Err(SendError(8)));
    }

    /// A producer parked on a full queue must wake (with an error, not a
    /// deadlock) when the receiver disappears.
    #[test]
    fn dropped_receiver_unblocks_parked_producer() {
        let (tx, rx) = bounded::<u32>(1);
        let producer = std::thread::spawn(move || {
            tx.send(1).unwrap();
            tx.send(2) // parks: queue is full
        });
        while !rx.producer_blocked() {
            std::thread::yield_now();
        }
        drop(rx);
        assert_eq!(producer.join().unwrap(), Err(SendError(2)));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = bounded::<u32>(0);
    }

    /// MPSC fan-in: eight cloned senders interleave disjoint ranges and
    /// the channel reports EOF only after the *last* clone drops —
    /// every item arrives exactly once.
    #[test]
    fn many_senders_fan_in_and_close_on_last_drop() {
        const PRODUCERS: u64 = 8;
        const PER: u64 = 200;
        let (tx, rx) = bounded::<u64>(16);
        assert_eq!(rx.sender_count(), 1);
        let handles: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    tx.send_all((p * PER)..((p + 1) * PER)).expect("rx alive");
                })
            })
            .collect();
        assert_eq!(rx.sender_count(), 1 + PRODUCERS as usize);
        drop(tx); // the original clone alone must not close the channel
        let mut got = Vec::new();
        let mut buf = Vec::new();
        while rx.recv_many(&mut buf, 32) {
            got.append(&mut buf);
        }
        for h in handles {
            h.join().expect("producer panicked");
        }
        got.sort_unstable();
        assert_eq!(got, (0..PRODUCERS * PER).collect::<Vec<_>>());
        assert_eq!(rx.sender_count(), 0);
    }

    /// The timed drain: items when there are items, `TimedOut` on an
    /// open-but-quiet channel, `Closed` only once closed *and* drained.
    #[test]
    fn recv_many_timeout_distinguishes_quiet_from_eof() {
        use std::time::Duration;
        let (tx, rx) = bounded::<u32>(4);
        let mut buf = Vec::new();
        assert_eq!(
            rx.recv_many_timeout(&mut buf, 4, Duration::from_millis(1)),
            RecvTimeout::TimedOut,
            "open and empty"
        );
        tx.send(9).unwrap();
        assert_eq!(
            rx.recv_many_timeout(&mut buf, 4, Duration::from_millis(1)),
            RecvTimeout::Items
        );
        assert_eq!(buf, vec![9]);
        tx.send(10).unwrap();
        drop(tx);
        // Closed but not yet drained: the queued item still arrives.
        assert_eq!(
            rx.recv_many_timeout(&mut buf, 4, Duration::from_millis(1)),
            RecvTimeout::Items
        );
        assert_eq!(
            rx.recv_many_timeout(&mut buf, 4, Duration::from_millis(1)),
            RecvTimeout::Closed
        );
    }

    /// Dropping one of several clones must *not* close the channel:
    /// items sent by the survivor still arrive, EOF only after it too
    /// is gone.
    #[test]
    fn one_dropped_clone_keeps_the_channel_open() {
        let (tx, rx) = bounded::<u32>(4);
        let tx2 = tx.clone();
        drop(tx);
        tx2.send(7).unwrap();
        let mut buf = Vec::new();
        assert!(rx.recv_many(&mut buf, 4), "survivor keeps channel open");
        assert_eq!(buf, vec![7]);
        drop(tx2);
        assert!(!rx.recv_many(&mut buf, 4), "last drop closes");
    }

    /// Fan-in pressure is one counter: with several producers parked on
    /// one tiny queue, the shared `blocked_producer_ns` aggregates all of
    /// their blocked time, and a drain releases every parked producer
    /// without losing an item.
    #[test]
    fn aggregate_producer_pressure_is_counted_on_the_receiver() {
        const PRODUCERS: usize = 3;
        let (tx, rx) = bounded::<u64>(2);
        let handles: Vec<_> = (0..PRODUCERS as u64)
            .map(|p| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for i in 0..4 {
                        tx.send(p * 100 + i).expect("rx alive");
                    }
                })
            })
            .collect();
        drop(tx);
        // Deterministic multi-producer park: the queue is full and at
        // least two producers wait on it simultaneously.
        while !(rx.len() == 2 && rx.producers_blocked() >= 2) {
            std::thread::yield_now();
        }
        let mut got = Vec::new();
        let mut buf = Vec::new();
        while rx.recv_many(&mut buf, 64) {
            got.append(&mut buf);
        }
        for h in handles {
            h.join().expect("producer panicked");
        }
        assert!(
            rx.stats().blocked_producer_ns > 0,
            "aggregate blocked time must be visible on the receiver"
        );
        assert_eq!(got.len(), PRODUCERS * 4, "nothing dropped under fan-in");
    }
}
