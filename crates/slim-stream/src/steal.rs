//! Work-stealing chunk queues for the persistent worker pool.
//!
//! A parallel phase hands the pool a list of **chunks** (slices of a
//! shard's ingest / dirty-pair / rescore queues) identified by dense
//! chunk ids. Each worker owns a deque of chunk ids; it pops its own
//! front, and when that runs dry it steals from the *back* of another
//! worker's deque — so a hot shard's long chunk run is eaten from both
//! ends instead of serializing on its home worker. Built on
//! `Mutex<VecDeque>` like `source/channel.rs`: the shims-only build
//! environment rules out lock-free deque crates, and chunk granularity
//! keeps the lock traffic far off the hot path.
//!
//! **Determinism contract.** The queues only decide *where* a chunk
//! runs, never *what* it computes: chunk construction is a pure
//! function of the phase's work lists (never of the worker count), and
//! the pool merges chunk outputs in chunk-id order. Any placement, any
//! victim order, and any interleaving therefore produce bit-identical
//! results — which is what lets `PoolMode::Scripted` randomize the
//! schedule under a property test.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// How the persistent worker pool places and schedules chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PoolMode {
    /// Block placement plus work stealing (the default): worker `w`
    /// starts with the `w`-th contiguous block of chunk ids and steals
    /// from other workers once its block is drained. Wall-clock tracks
    /// total work, not the hottest shard.
    #[default]
    Stealing,
    /// Seeded pseudo-random chunk placement and per-worker victim
    /// order, with stealing enabled: a deterministic stand-in for an
    /// adversarial steal schedule. `tests/shard_equivalence.rs`
    /// property-tests that results are bit-identical across seeds.
    Scripted {
        /// Schedule seed: placement and victim order are pure functions
        /// of `(seed, chunk id / worker)`.
        seed: u64,
    },
}

/// A tiny splitmix-style mixer for scripted schedules (not hashing
/// quality critical — only schedule diversity).
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One phase's chunk distribution: per-worker deques, the steal policy,
/// and the completion countdown.
pub(crate) struct ChunkQueues {
    queues: Vec<Mutex<VecDeque<usize>>>,
    /// Per worker: the order other queues are scanned when its own runs
    /// dry.
    victims: Vec<Vec<usize>>,
    /// Chunks not yet *executed* (claimed-but-running chunks still
    /// count): the pool's phase-completion condition.
    remaining: AtomicUsize,
    /// Cross-queue pops in this phase.
    steals: AtomicU64,
}

impl ChunkQueues {
    /// Distributes `chunks` chunk ids over `workers` deques per `mode`.
    pub(crate) fn new(chunks: usize, workers: usize, mode: PoolMode) -> Self {
        assert!(workers > 0, "pool needs at least one worker");
        let mut queues: Vec<VecDeque<usize>> = (0..workers).map(|_| VecDeque::new()).collect();
        match mode {
            PoolMode::Stealing => {
                // Contiguous blocks: worker w owns ids
                // [w·n/W, (w+1)·n/W).
                for id in 0..chunks {
                    queues[id * workers / chunks.max(1)].push_back(id);
                }
            }
            PoolMode::Scripted { seed } => {
                for id in 0..chunks {
                    queues[(mix(seed ^ id as u64) % workers as u64) as usize].push_back(id);
                }
            }
        }
        let victims: Vec<Vec<usize>> = (0..workers)
            .map(|w| {
                // Rotation starting after the worker itself, so victim
                // scans of different workers don't all pile onto queue 0.
                let mut order: Vec<usize> = (w + 1..workers).chain(0..w).collect();
                if let PoolMode::Scripted { seed } = mode {
                    // Seeded Fisher-Yates: each worker scans victims in
                    // its own pseudo-random order.
                    let mut state = mix(seed ^ (w as u64).wrapping_mul(0x517C_C1B7_2722_0A95));
                    for i in (1..order.len()).rev() {
                        state = mix(state);
                        order.swap(i, (state % (i as u64 + 1)) as usize);
                    }
                }
                order
            })
            .collect();
        Self {
            queues: queues.into_iter().map(Mutex::new).collect(),
            victims,
            remaining: AtomicUsize::new(chunks),
            steals: AtomicU64::new(0),
        }
    }

    /// Claims the next chunk for `worker`: its own front, else a steal
    /// from the back of the first non-empty victim. `None` = every
    /// queue is empty (chunks may still be *executing* elsewhere — see
    /// [`ChunkQueues::complete_one`]).
    pub(crate) fn pop(&self, worker: usize) -> Option<usize> {
        if let Some(id) = self.queues[worker]
            .lock()
            .expect("queue poisoned")
            .pop_front()
        {
            return Some(id);
        }
        for &v in &self.victims[worker] {
            if let Some(id) = self.queues[v].lock().expect("queue poisoned").pop_back() {
                self.steals.fetch_add(1, Ordering::Relaxed);
                return Some(id);
            }
        }
        None
    }

    /// Records one executed chunk; `true` when it was the last one.
    pub(crate) fn complete_one(&self) -> bool {
        self.remaining.fetch_sub(1, Ordering::AcqRel) == 1
    }

    /// Whether every chunk has finished executing.
    pub(crate) fn is_done(&self) -> bool {
        self.remaining.load(Ordering::Acquire) == 0
    }

    /// Cross-queue pops so far.
    pub(crate) fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains every queue as `worker`, recording the claim order.
    fn drain_as(q: &ChunkQueues, worker: usize) -> Vec<usize> {
        let mut got = Vec::new();
        while let Some(id) = q.pop(worker) {
            got.push(id);
            q.complete_one();
        }
        got
    }

    #[test]
    fn block_placement_covers_every_chunk_once() {
        let q = ChunkQueues::new(10, 3, PoolMode::Stealing);
        let mut got = drain_as(&q, 0);
        got.sort_unstable();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        assert!(q.is_done());
        // Worker 0 owned the first block only; the rest were steals.
        assert_eq!(q.steals(), 10 - 10usize.div_ceil(3) as u64);
    }

    #[test]
    fn scripted_placement_is_seed_deterministic() {
        let claims = |seed| {
            let q = ChunkQueues::new(64, 4, PoolMode::Scripted { seed });
            (0..4).map(|w| drain_as(&q, w)).collect::<Vec<_>>()
        };
        assert_eq!(claims(7), claims(7), "same seed, same schedule");
        assert_ne!(claims(7), claims(8), "different seeds should differ");
        // Every chunk still claimed exactly once.
        let mut all: Vec<usize> = claims(7).into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn steals_come_from_the_back() {
        let q = ChunkQueues::new(8, 2, PoolMode::Stealing);
        // Worker 1 steals from worker 0's back (id 3), not its front.
        assert_eq!(q.pop(1), Some(4));
        assert_eq!(q.pop(1), Some(5));
        assert_eq!(q.pop(1), Some(6));
        assert_eq!(q.pop(1), Some(7));
        assert_eq!(q.pop(1), Some(3), "steal takes the victim's back");
        assert_eq!(q.steals(), 1);
        assert_eq!(q.pop(0), Some(0), "owner still pops its front");
    }
}
