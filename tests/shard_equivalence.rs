//! Shard- and worker-count invariance: shard boundaries and the pool's
//! steal schedule may only move work between threads, never change
//! results. Each property holds sampled [`Case`]s at several shard or
//! worker counts to the one-shard, one-worker reference through
//! [`Case::check`]: served links, update streams, deterministic stats,
//! scoring counters, candidate sets, published epochs and the finalized
//! output.

use slim::stream::testing::{Case, Chunks, Delivery, OracleCoverage, Variation};

/// `shards` × `workers`, fed in `chunks`.
fn split(shards: usize, workers: usize, chunks: Chunks) -> Variation {
    Variation {
        shards,
        workers,
        delivery: Delivery::Direct(chunks),
        ..Variation::reference()
    }
}

/// Brute-force candidates over a sliding window, ticks inside and at the
/// end of calls, at shard counts that split linked pairs.
#[test]
fn brute_force_engine_is_shard_count_invariant() {
    let shards = [
        split(2, 1, Chunks::Prime),
        split(4, 1, Chunks::Tick),
        split(7, 1, Chunks::One),
    ];
    for seed in 0..16 {
        let mut case = Case::sample_where(seed, |c| c.events.len() <= 300);
        case.cfg.lsh = None;
        case.check(&shards)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

/// LSH candidate discovery through the partitioned bucket index, and
/// candidate retirement.
#[test]
fn lsh_engine_is_shard_count_invariant() {
    let shards = [2, 4, 7].map(|s| split(s, 1, Chunks::Whole));
    for seed in 0..16 {
        Case::sample_where(seed, |c| c.events.len() <= 300)
            .under_lsh()
            .check(&shards)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

/// Dense streams on five shards across worker counts: each count cuts the
/// chunk ids into different per-worker blocks and the steal interleaving
/// varies from run to run, yet chunk outputs merge in chunk-id order, so
/// no schedule dependence is left behind.
#[test]
fn steal_schedules_and_worker_counts_are_invariant() {
    let workers = [2, 3, 4].map(|w| split(5, w, Chunks::Prime));
    let mut cover = OracleCoverage::default();
    for seed in 0..8 {
        let mut case = Case::sample_where(seed, |c| c.events.len() >= 300);
        case.cfg.lsh = None;
        let checked = case.check(&workers);
        cover.add(&checked.unwrap_or_else(|e| panic!("seed {seed}: {e}")));
    }
    cover.assert_exercised(&["chunks stolen by pool workers"]);
}
