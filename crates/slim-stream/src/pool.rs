//! The persistent worker pool behind every parallel engine phase.
//!
//! `workers − 1` threads are spawned lazily on the first parallel phase
//! of a [`crate::StreamEngine`] and reused for every later ingest,
//! refresh and finalize phase; the engine thread itself takes part as
//! worker 0. (Spawning scoped threads per phase instead costs more than
//! the handoff on the sparse workloads, which dispatch hundreds of
//! small phases: see PERF.md.)
//!
//! **Claim rule.** A phase is a list of chunks with dense ids (slices
//! of the per-shard work queues). Worker `w` owns the contiguous block
//! `[⌈w·n/W⌉, ⌈(w+1)·n/W⌉)` of the `n` ids and claims its own block
//! from the front; once that is empty it takes the *back* of the next
//! non-empty block in rotation order `w+1, …, W−1, 0, …, w−1`, so a hot
//! shard's long run of chunks is eaten from both ends instead of
//! serializing on one thread. Each block is one atomic `(front, back)`
//! pair, claimed by compare-and-swap ([`Claims`]).
//!
//! **Determinism.** Chunk construction is a pure function of the work
//! lists (never of the worker count), every chunk computes a pure
//! function of its input, and [`WorkerPool::run`] returns outputs in
//! chunk-id order — so links, update streams, stats, and finalized
//! output are bit-identical for every worker count and every claim
//! interleaving. Only the scheduling telemetry
//! ([`WorkerPool::steal_events`], [`WorkerPool::busy_spread_ns`])
//! varies.
//!
//! **Safety.** Workers receive the phase closure as a type-erased raw
//! reference ([`TaskRef`]) — the only `unsafe` in the workspace. The
//! invariant making it sound: `run` does not return until every chunk
//! has *finished executing* (`Claims::is_done`), and a worker only
//! calls the task while executing a chunk it claimed — a
//! claimed-but-unfinished chunk keeps the phase incomplete, so the
//! borrow can never be outlived. A late-waking worker holding a stale
//! phase finds every block of it empty and never calls its task.

#![warn(clippy::undocumented_unsafe_blocks)]

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use slim_telemetry::Histogram;

use crate::source::{Clock, WallClock};
use crate::telemetry::PhaseId;

/// Splits `0..len` into contiguous ranges of at most `grain` — the
/// chunk shape every phase uses. Grain constants are fixed (never
/// derived from the worker count), which is what keeps chunk ids — and
/// with them the merged outputs — identical across worker counts.
pub(crate) fn chunk_ranges(len: usize, grain: usize) -> Vec<std::ops::Range<usize>> {
    let grain = grain.max(1);
    (0..len)
        .step_by(grain)
        .map(|s| s..(s + grain).min(len))
        .collect()
}

/// A type-erased borrow of the phase closure. Only called while a
/// claimed chunk is executing (see the module safety notes).
#[derive(Clone, Copy)]
struct TaskRef {
    data: *const (),
    // SAFETY: callable only with the `data` it was built with, while
    // that borrow is alive.
    call: unsafe fn(*const (), usize),
}

// SAFETY: `call` is a plain fn pointer. `data` points to an `F: Sync`,
// so calling it from another thread is sound while the borrow lives,
// and it is only dereferenced under the phase-lifetime invariant
// documented on the module.
unsafe impl Send for TaskRef {}

fn task_ref<F: Fn(usize) + Sync>(f: &F) -> TaskRef {
    /// # Safety
    /// `data` must be the `&F` this `TaskRef` erased, still borrowed:
    /// `drain` calls it only under the module's phase-lifetime
    /// invariant.
    unsafe fn call<F: Fn(usize) + Sync>(data: *const (), id: usize) {
        // SAFETY: the caller guarantees `data` is a live `&F`.
        (*(data as *const F))(id)
    }
    TaskRef {
        data: f as *const F as *const (),
        call: call::<F>,
    }
}

/// One phase's chunk claims (see the module docs for the rule). Block
/// `w` packs its unclaimed ids `front..back` as `front << 32 | back`.
struct Claims {
    blocks: Vec<AtomicU64>,
    /// Chunks not yet *executed* (claimed-but-running chunks still
    /// count): the phase-completion condition `run` waits on.
    remaining: AtomicUsize,
}

impl Claims {
    fn new(chunks: usize, workers: usize) -> Self {
        assert!(u32::try_from(chunks).is_ok(), "chunk ids must fit 32 bits");
        let bound = |w: usize| (w * chunks).div_ceil(workers) as u64;
        Self {
            blocks: (0..workers)
                .map(|w| AtomicU64::new(bound(w) << 32 | bound(w + 1)))
                .collect(),
            remaining: AtomicUsize::new(chunks),
        }
    }

    /// Claims the next chunk for `worker`: its own block's front, else
    /// the back of the next non-empty block in rotation order (a steal:
    /// the flag is `true`). `None` = every block is empty (chunks may
    /// still be *executing* elsewhere — see [`Claims::complete_one`]).
    fn claim(&self, worker: usize) -> Option<(usize, bool)> {
        if let Some(id) = self.take(worker, true) {
            return Some((id, false));
        }
        let mut victims = (worker + 1..self.blocks.len()).chain(0..worker);
        victims.find_map(|victim| Some((self.take(victim, false)?, true)))
    }

    /// Takes the front (or back) id of `block` with one compare-and-swap
    /// loop, `None` when the block is empty. `Relaxed` suffices: a claim
    /// publishes no data — chunk inputs and outputs sit behind their own
    /// mutexes, and the phase itself is published under `Shared::ctl`.
    fn take(&self, block: usize, front: bool) -> Option<usize> {
        let unpack = |packed: u64| (packed >> 32, packed & u64::from(u32::MAX));
        let seen = self.blocks[block].fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
            let (lo, hi) = unpack(cur);
            (lo < hi).then(|| if front { cur + (1 << 32) } else { cur - 1 })
        });
        let (lo, hi) = unpack(seen.ok()?);
        Some(if front { lo } else { hi - 1 } as usize)
    }

    /// Records one executed chunk; `true` when it was the last one.
    fn complete_one(&self) -> bool {
        self.remaining.fetch_sub(1, Ordering::AcqRel) == 1
    }

    fn is_done(&self) -> bool {
        self.remaining.load(Ordering::Acquire) == 0
    }
}

/// One published phase: the erased task, its chunk claims, and the
/// span-histogram slot its chunk timings land in.
#[derive(Clone)]
struct PhaseRef {
    task: TaskRef,
    claims: Arc<Claims>,
    phase: PhaseId,
}

struct Ctl {
    /// Bumped once per published phase; workers run each epoch once.
    epoch: u64,
    phase: Option<PhaseRef>,
    shutdown: bool,
}

struct Shared {
    ctl: Mutex<Ctl>,
    /// Workers wait here for the next epoch.
    work: Condvar,
    /// The submitter waits here for phase completion.
    done: Condvar,
    /// Pool-lifetime chunks taken from another worker's block.
    steal_events: AtomicU64,
    /// Pool-lifetime busy nanoseconds per worker — the skew telemetry:
    /// a hot block that the other workers could not take from would
    /// show as max ≫ min.
    busy_ns: Vec<AtomicU64>,
    /// The span clock. Swappable (a `VirtualClock` makes recorded spans
    /// exactly reproducible); read once per drain, never per chunk.
    clock: Mutex<Arc<dyn Clock + Sync>>,
    /// Gates the per-phase span histograms below (busy totals are
    /// always kept — they predate the phase recorders and stay cheap).
    record_spans: bool,
    /// Per-worker phase-span recorders, indexed `[worker][PhaseId]`.
    /// Each worker only ever locks its own slot while executing, so
    /// recording never makes one worker wait on another; the merged
    /// view is assembled in worker-id order at read time.
    recorders: Vec<Mutex<Vec<Histogram>>>,
    /// Per [`PhaseId`]: nanoseconds spent in below-threshold inline
    /// runs since the last [`WorkerPool::close_inline_spans`] (`None` =
    /// the phase has not run inline since). Only the submitting thread
    /// touches it, and only with `record_spans` on.
    inline_ns: Mutex<[Option<u64>; PhaseId::COUNT]>,
    panicked: AtomicBool,
}

/// See the module docs. One pool per [`crate::StreamEngine`].
pub(crate) struct WorkerPool {
    workers: usize,
    shared: Arc<Shared>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    /// Serializes whole phases: `run` holds this from publish to
    /// completion, so concurrent `&self` callers cannot interleave two
    /// phases on one pool.
    submit: Mutex<()>,
}

impl WorkerPool {
    /// A pool of `workers` total workers (the submitting thread counts
    /// as worker 0; `workers − 1` threads are spawned lazily on first
    /// use). `workers == 1` runs every phase inline. `record_spans`
    /// enables the per-phase span histograms.
    pub(crate) fn new(workers: usize, record_spans: bool) -> Self {
        let workers = workers.max(1);
        Self {
            workers,
            shared: Arc::new(Shared {
                ctl: Mutex::new(Ctl {
                    epoch: 0,
                    phase: None,
                    shutdown: false,
                }),
                work: Condvar::new(),
                done: Condvar::new(),
                steal_events: AtomicU64::new(0),
                busy_ns: (0..workers).map(|_| AtomicU64::new(0)).collect(),
                clock: Mutex::new(Arc::new(WallClock::new())),
                record_spans,
                recorders: (0..workers)
                    .map(|_| Mutex::new(vec![Histogram::new(); PhaseId::COUNT]))
                    .collect(),
                inline_ns: Mutex::new([None; PhaseId::COUNT]),
                panicked: AtomicBool::new(false),
            }),
            threads: Mutex::new(Vec::new()),
            submit: Mutex::new(()),
        }
    }

    /// Swaps the span clock (testing: a `VirtualClock` makes every
    /// recorded span an exact function of the test's clock advances).
    pub(crate) fn set_clock(&self, clock: Arc<dyn Clock + Sync>) {
        *self.shared.clock.lock().expect("pool poisoned") = clock;
    }

    /// Chunks taken from another worker's block, over the pool's
    /// lifetime.
    pub(crate) fn steal_events(&self) -> u64 {
        self.shared.steal_events.load(Ordering::Relaxed)
    }

    /// Histogram over the current per-worker lifetime busy totals (one
    /// sample per worker, idle workers contributing 0) — the full
    /// busy-time distribution the old bare max/min pair summarized.
    pub(crate) fn busy_histogram(&self) -> Histogram {
        let mut h = Histogram::new();
        for b in &self.shared.busy_ns {
            h.record(b.load(Ordering::Relaxed));
        }
        h
    }

    /// `(max, min)` busy nanoseconds across workers over the pool's
    /// lifetime — the legacy pair, now *derived* from
    /// [`WorkerPool::busy_histogram`] (which tracks min/max exactly, so
    /// the values are bit-identical to the old direct scan). `min`
    /// stays 0 until every worker has executed at least one chunk.
    pub(crate) fn busy_spread_ns(&self) -> (u64, u64) {
        let h = self.busy_histogram();
        (h.max(), h.min())
    }

    /// The merged per-phase span histograms, indexed by
    /// [`PhaseId::idx`]. Per-worker recorders are folded in worker-id
    /// order (merging commutes regardless — the order is fixed so the
    /// read itself is reproducible).
    pub(crate) fn phase_histograms(&self) -> Vec<Histogram> {
        let mut merged = vec![Histogram::new(); PhaseId::COUNT];
        for rec in &self.shared.recorders {
            let rec = rec.lock().expect("pool poisoned");
            for (m, h) in merged.iter_mut().zip(rec.iter()) {
                m.merge(h);
            }
        }
        merged
    }

    /// The work-size-gated form of [`WorkerPool::run`] — the single
    /// dispatch switch every engine phase shares. `parallel = false`
    /// (the phase's work is below its threshold) runs a plain inline
    /// map with no pool involvement, which is what keeps the
    /// single-event ingest path dispatch-free. With span recording on
    /// the inline map is still on the books, so a regime whose every
    /// phase stays below its threshold is not dark: its time collects
    /// per phase until [`WorkerPool::close_inline_spans`] books it as
    /// one span. (Not one span per call: how many inline calls a stream
    /// makes depends on how its arrivals were batched, and recorded
    /// histograms must be functions of the event sequence alone.) With
    /// recording off the path reads no clock. Busy totals count
    /// dispatched work only: they are kept with telemetry off too, and
    /// must not depend on whether spans are recorded.
    pub(crate) fn run_gated<I: Send, T: Send>(
        &self,
        phase: PhaseId,
        parallel: bool,
        items: Vec<I>,
        f: impl Fn(I) -> T + Sync,
    ) -> Vec<T> {
        if parallel && items.len() > 1 {
            return self.run(phase, items, f);
        }
        if !self.shared.record_spans {
            return items.into_iter().map(f).collect();
        }
        let clock = Arc::clone(&self.shared.clock.lock().expect("pool poisoned"));
        let t0 = clock.now_ns();
        let out: Vec<T> = items.into_iter().map(f).collect();
        let span = clock.now_ns().saturating_sub(t0);
        let mut open = self.shared.inline_ns.lock().expect("pool poisoned");
        *open[phase.idx()].get_or_insert(0) += span;
        out
    }

    /// Books the inline time collected since the last call: one span
    /// per phase that ran inline at all, on worker 0's recorder. The
    /// engine calls it at every tick barrier — a boundary fixed by the
    /// event sequence — so an inline phase's histogram reads "time per
    /// tick interval" and its sum is the phase's whole inline time.
    pub(crate) fn close_inline_spans(&self) {
        let mut open = self.shared.inline_ns.lock().expect("pool poisoned");
        let mut recorder = self.shared.recorders[0].lock().expect("pool poisoned");
        for (open, hist) in open.iter_mut().zip(recorder.iter_mut()) {
            if let Some(span) = open.take() {
                hist.record(span);
            }
        }
    }

    /// Executes `f` once per item, returning outputs in item order.
    /// Items are the phase's chunks: item `i` is chunk id `i`. Inline
    /// when the pool has one worker or one item; otherwise claimed by
    /// the workers per the module's claim rule. Chunk spans
    /// are recorded under `phase` (one whole-phase span on the inline
    /// path).
    pub(crate) fn run<I: Send, T: Send>(
        &self,
        phase: PhaseId,
        items: Vec<I>,
        f: impl Fn(I) -> T + Sync,
    ) -> Vec<T> {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        if self.workers == 1 || n == 1 {
            // Inline, but still on the books: busy time and the phase
            // span feed the same telemetry so 1-worker baselines are
            // comparable.
            let clock = Arc::clone(&self.shared.clock.lock().expect("pool poisoned"));
            let t0 = clock.now_ns();
            let out: Vec<T> = items.into_iter().map(f).collect();
            let span = clock.now_ns().saturating_sub(t0);
            self.shared.busy_ns[0].fetch_add(span, Ordering::Relaxed);
            if self.shared.record_spans {
                self.shared.recorders[0].lock().expect("pool poisoned")[phase.idx()].record(span);
            }
            return out;
        }
        self.ensure_spawned();

        // Chunk ids are claimed once, so each slot is locked once, by
        // its chunk.
        let input: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
        let output: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let runner = |id: usize| {
            let item = input[id].lock().expect("pool poisoned").take();
            let value = f(item.expect("chunk claimed once"));
            *output[id].lock().expect("pool poisoned") = Some(value);
        };

        let phase_guard = self.submit.lock().expect("pool poisoned");
        let claims = Arc::new(Claims::new(n, self.workers));
        let phase = PhaseRef {
            task: task_ref(&runner),
            claims: Arc::clone(&claims),
            phase,
        };
        {
            let mut ctl = self.shared.ctl.lock().expect("pool poisoned");
            ctl.epoch += 1;
            ctl.phase = Some(phase.clone());
            self.shared.work.notify_all();
        }
        // Participate as worker 0, then wait for the stragglers.
        Self::drain(&self.shared, &phase, 0);
        {
            let mut ctl = self.shared.ctl.lock().expect("pool poisoned");
            while !claims.is_done() {
                ctl = self.shared.done.wait(ctl).expect("pool poisoned");
            }
            ctl.phase = None;
        }
        if self.shared.panicked.swap(false, Ordering::Relaxed) {
            // Release the submit lock first: re-raising with it held
            // would poison it for every later phase of this pool.
            drop(phase_guard);
            panic!("pool worker panicked while executing a chunk");
        }
        output
            .into_iter()
            .map(|slot| slot.into_inner().expect("pool poisoned"))
            .collect::<Option<_>>()
            .expect("every chunk executed")
    }

    /// The chunk-execution loop shared by workers and the submitter.
    fn drain(shared: &Shared, phase: &PhaseRef, worker: usize) {
        let clock = Arc::clone(&shared.clock.lock().expect("pool poisoned"));
        while let Some((id, stolen)) = phase.claims.claim(worker) {
            if stolen {
                shared.steal_events.fetch_add(1, Ordering::Relaxed);
            }
            let t0 = clock.now_ns();
            let ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                // SAFETY: the task borrow is alive because this chunk is
                // claimed but not yet completed (module safety notes).
                unsafe { (phase.task.call)(phase.task.data, id) }
            }))
            .is_ok();
            let span = clock.now_ns().saturating_sub(t0);
            shared.busy_ns[worker].fetch_add(span, Ordering::Relaxed);
            if shared.record_spans {
                shared.recorders[worker].lock().expect("pool poisoned")[phase.phase.idx()]
                    .record(span);
            }
            if !ok {
                shared.panicked.store(true, Ordering::Relaxed);
            }
            if phase.claims.complete_one() {
                // Lock-then-notify so the submitter cannot miss the
                // final completion between its check and its wait.
                let _ctl = shared.ctl.lock().expect("pool poisoned");
                shared.done.notify_all();
            }
        }
    }

    fn worker_loop(shared: Arc<Shared>, worker: usize) {
        let mut seen = 0u64;
        loop {
            let phase = {
                let mut ctl = shared.ctl.lock().expect("pool poisoned");
                loop {
                    if ctl.shutdown {
                        return;
                    }
                    if ctl.epoch > seen {
                        seen = ctl.epoch;
                        break ctl.phase.clone();
                    }
                    ctl = shared.work.wait(ctl).expect("pool poisoned");
                }
            };
            if let Some(phase) = phase {
                Self::drain(&shared, &phase, worker);
            }
        }
    }

    fn ensure_spawned(&self) {
        let mut threads = self.threads.lock().expect("pool poisoned");
        if !threads.is_empty() {
            return;
        }
        for w in 1..self.workers {
            let shared = Arc::clone(&self.shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("slim-pool-{w}"))
                    .spawn(move || Self::worker_loop(shared, w))
                    .expect("spawn pool worker"),
            );
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut ctl = self.shared.ctl.lock().expect("pool poisoned");
            ctl.shutdown = true;
        }
        self.shared.work.notify_all();
        for h in self.threads.lock().expect("pool poisoned").drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outputs_come_back_in_chunk_order() {
        let pool = WorkerPool::new(4, true);
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for _ in 0..3 {
            // Repeated phases reuse the same workers.
            let got = pool.run(PhaseId::Bin, items.clone(), |x| x * x + 1);
            assert_eq!(got, expect);
        }
        let (max, min) = pool.busy_spread_ns();
        assert!(max > 0 && max >= min);
        // The legacy pair is derived from the busy histogram.
        let busy = pool.busy_histogram();
        assert_eq!((busy.max(), busy.min()), (max, min));
        assert_eq!(busy.count(), 4, "one sample per worker");
        // Every executed chunk left a span in the phase recorder.
        let spans = pool.phase_histograms();
        assert_eq!(spans[PhaseId::Bin.idx()].count(), 3 * 257);
        assert_eq!(spans[PhaseId::Rescore.idx()].count(), 0);
    }

    /// A below-threshold phase runs inline but is not dark: with span
    /// recording on, its calls collect into one span per
    /// `close_inline_spans`; with it off nothing is recorded — and no
    /// busy time either way (never dispatched).
    #[test]
    fn gated_inline_phases_book_one_span_per_close_iff_recording() {
        for (record, spans_per_close) in [(true, 1), (false, 0)] {
            let pool = WorkerPool::new(2, record);
            for closes in 1..=2 {
                for _ in 0..3 {
                    let out = pool.run_gated(PhaseId::Expire, false, vec![1u64, 2, 3], |x| x + 1);
                    assert_eq!(out, vec![2, 3, 4]);
                }
                assert_eq!(
                    pool.phase_histograms()[PhaseId::Expire.idx()].count(),
                    (closes - 1) * spans_per_close,
                    "open inline time is not a span yet"
                );
                pool.close_inline_spans();
                let spans = pool.phase_histograms();
                assert_eq!(
                    spans[PhaseId::Expire.idx()].count(),
                    closes * spans_per_close
                );
                assert_eq!(spans[PhaseId::Apply.idx()].count(), 0, "never ran");
            }
            pool.close_inline_spans();
            assert_eq!(
                pool.phase_histograms()[PhaseId::Expire.idx()].count(),
                2 * spans_per_close,
                "nothing ran inline since the last close"
            );
            assert_eq!(pool.busy_spread_ns(), (0, 0));
        }
    }

    #[test]
    fn mutable_borrows_ride_through_chunks() {
        // The engine's phase shape: chunks carry &mut slices of engine
        // state plus owned work, mutated on whichever worker runs them.
        let pool = WorkerPool::new(3, true);
        let mut cells: Vec<u64> = vec![0; 64];
        let work: Vec<(&mut u64, u64)> = cells.iter_mut().zip(0u64..).collect();
        let sums = pool.run(PhaseId::Apply, work, |(cell, add)| {
            *cell += add * 2;
            *cell
        });
        assert_eq!(sums, (0..64).map(|x| x * 2).collect::<Vec<u64>>());
        assert_eq!(cells[63], 126);
    }

    #[test]
    fn empty_and_singleton_phases_are_inline() {
        let pool = WorkerPool::new(4, true);
        assert_eq!(
            pool.run(PhaseId::Bin, Vec::<u8>::new(), |x| x),
            Vec::<u8>::new()
        );
        assert_eq!(pool.run(PhaseId::Bin, vec![9u8], |x| x + 1), vec![10]);
        // Neither dispatched to the workers, so nothing could be stolen.
        assert_eq!(pool.steal_events(), 0);
        // The singleton still recorded one whole-phase span inline.
        assert_eq!(pool.phase_histograms()[PhaseId::Bin.idx()].count(), 1);
    }

    #[test]
    fn disabled_recording_keeps_busy_totals_only() {
        let pool = WorkerPool::new(2, false);
        let got = pool.run(PhaseId::Rescore, (0..64u64).collect(), |x| x + 1);
        assert_eq!(got.len(), 64);
        assert!(pool.busy_spread_ns().0 > 0, "busy totals always accrue");
        assert!(pool.phase_histograms().iter().all(|h| h.count() == 0));
    }

    #[test]
    fn virtual_clock_makes_spans_exact() {
        use crate::testing::VirtualClock;
        let pool = WorkerPool::new(3, true);
        pool.set_clock(Arc::new(VirtualClock::new()));
        pool.run(PhaseId::Apply, (0..100u64).collect(), |x| x);
        let spans = &pool.phase_histograms()[PhaseId::Apply.idx()];
        // A constant clock times every chunk at exactly zero — the
        // histogram is a pure function of the chunk count.
        assert_eq!((spans.count(), spans.sum(), spans.max()), (100, 0, 0));
        assert_eq!(pool.busy_spread_ns(), (0, 0));
    }

    /// A 2-worker phase of 16 chunks whose chunk `bad` panics.
    fn panicking_phase(bad: u32) {
        let pool = WorkerPool::new(2, true);
        pool.run(PhaseId::Bin, (0..16).collect::<Vec<u32>>(), |x| {
            assert!(x != bad, "injected failure");
            x
        });
    }

    /// The first chunk is the submitting thread's first claim ...
    #[test]
    #[should_panic(expected = "pool worker panicked")]
    fn chunk_panics_propagate_to_the_submitter() {
        panicking_phase(0);
    }

    /// ... and the last chunk is the far end of the last block, run by
    /// its owner or stolen from the back.
    #[test]
    #[should_panic(expected = "pool worker panicked")]
    fn last_chunk_panics_propagate_to_the_submitter() {
        panicking_phase(15);
    }

    /// A caught chunk panic leaves the pool usable: the next phase on
    /// the same pool runs every chunk and returns every output, in
    /// order, instead of failing on a poisoned lock.
    #[test]
    fn the_pool_survives_a_caught_chunk_panic() {
        let pool = WorkerPool::new(2, true);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(PhaseId::Bin, (0..16).collect::<Vec<u32>>(), |x| {
                assert!(x != 3, "injected failure");
                x
            })
        }));
        let message = caught.expect_err("chunk 3 panics");
        assert_eq!(
            message.downcast_ref::<&str>(),
            Some(&"pool worker panicked while executing a chunk")
        );
        let out = pool.run(PhaseId::Bin, (0..64u64).collect(), |x| x * 2);
        assert_eq!(out, (0..64u64).map(|x| x * 2).collect::<Vec<_>>());
    }

    /// Drains every block as `worker`: the ids in claim order, and how
    /// many of them were steals.
    fn drain_as(claims: &Claims, worker: usize) -> (Vec<usize>, usize) {
        let (mut ids, mut steals) = (Vec::new(), 0);
        while let Some((id, stolen)) = claims.claim(worker) {
            claims.complete_one();
            ids.push(id);
            steals += usize::from(stolen);
        }
        (ids, steals)
    }

    #[test]
    fn owners_take_their_front_and_others_take_the_back() {
        let claims = Claims::new(8, 2);
        // Blocks [0, 4) and [4, 8): worker 1 drains its own front first,
        // then takes worker 0's back (3), not its front.
        let own = |id| Some((id, false));
        assert_eq!(
            (0..5).map(|_| claims.claim(1)).collect::<Vec<_>>(),
            [own(4), own(5), own(6), own(7), Some((3, true))]
        );
        assert_eq!(claims.claim(0), own(0), "owner still takes its front");

        // Three blocks of 10: [0, 4), [4, 7), [7, 10). Worker 0 alone
        // takes its front, then block 1's back, then block 2's back.
        let claims = Claims::new(10, 3);
        assert_eq!(
            drain_as(&claims, 0),
            (vec![0, 1, 2, 3, 6, 5, 4, 9, 8, 7], 10 - 4)
        );
        assert!(claims.is_done());
        // Rotation order: worker 1 visits block 2 before block 0.
        let claims = Claims::new(10, 3);
        assert_eq!(
            drain_as(&claims, 1),
            (vec![4, 5, 6, 9, 8, 7, 3, 2, 1, 0], 10 - 3)
        );
    }

    #[test]
    fn every_chunk_is_claimed_once_under_contention() {
        let (chunks, workers) = (10_000, 4);
        let claims = &Claims::new(chunks, workers);
        let start = &std::sync::Barrier::new(workers);
        let got: Vec<(Vec<usize>, usize)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    s.spawn(move || {
                        start.wait();
                        drain_as(claims, w)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(claims.is_done());
        // A steal is exactly a claim outside the claimer's own block.
        for (w, (ids, steals)) in got.iter().enumerate() {
            let outside = ids.iter().filter(|&&id| id * workers / chunks != w);
            assert_eq!(outside.count(), *steals, "worker {w}");
        }
        let mut all: Vec<usize> = got.into_iter().flat_map(|(ids, _)| ids).collect();
        all.sort_unstable();
        assert_eq!(all, (0..chunks).collect::<Vec<_>>());
    }

    #[test]
    fn phases_of_zero_and_one_chunk() {
        let claims = Claims::new(0, 3);
        assert!(claims.is_done());
        assert_eq!((0..3).find_map(|w| claims.claim(w)), None);
        // One chunk: block 0 = [0, 1), blocks 1 and 2 empty. Worker 2
        // steals it from block 0's back.
        let claims = Claims::new(1, 3);
        assert!(!claims.is_done());
        assert_eq!(claims.claim(2), Some((0, true)));
        assert_eq!((0..3).find_map(|w| claims.claim(w)), None);
        assert!(claims.complete_one(), "the only chunk completes the phase");
        assert!(claims.is_done());
    }
}
