//! Shard-count invariance: the sharded streaming engine must be
//! **observationally identical** for every shard count on arbitrary
//! event streams — served links, emitted update streams, work counters,
//! candidate sets, and the finalized output, all bit-for-bit. This is
//! the acceptance contract of the engine-state sharding refactor: shard
//! boundaries may only move work between threads, never change results.

use proptest::prelude::*;

use slim::core::{EntityId, LinkageStats, Timestamp};
use slim::geo::LatLng;
use slim::lsh::LshConfig;
use slim::stream::{
    LinkUpdate, Side, StreamConfig, StreamEngine, StreamEvent, StreamLshConfig, StreamStats,
};

/// Raw tuples → events. Entities orbit one of a few regional anchors
/// (so some cross-side pairs genuinely collide and link while others
/// never meet), timestamps land in ~33 windows of 900 s, and the stream
/// is deliberately left unsorted: out-of-order and late events are part
/// of the contract.
fn arb_events() -> impl Strategy<Value = Vec<StreamEvent>> {
    prop::collection::vec((0u8..2, 0u64..10, 0.0f64..0.01, 0i64..30_000), 40..300).prop_map(|raw| {
        raw.into_iter()
            .map(|(side, entity, jitter, t)| {
                let side = if side == 0 { Side::Left } else { Side::Right };
                // Region = entity % 3: cross-side entities sharing a
                // region are linkable, the rest are far apart.
                let region = (entity % 3) as f64;
                let lat = -20.0 + 18.0 * region + jitter;
                let lng = -100.0 + 40.0 * region + 100.0 * jitter;
                StreamEvent::new(
                    side,
                    EntityId(entity),
                    LatLng::from_degrees(lat, lng),
                    Timestamp(t),
                )
            })
            .collect()
    })
}

/// Everything observable about one replay.
#[derive(Debug, PartialEq)]
struct Observation {
    updates: Vec<LinkUpdate>,
    served: Vec<slim::core::Edge>,
    stats: StreamStats,
    scoring: LinkageStats,
    candidate_pairs: usize,
    finalized: Vec<(EntityId, EntityId, f64)>,
}

fn replay(events: &[StreamEvent], mut cfg: StreamConfig, shards: usize) -> Observation {
    cfg.num_shards = shards;
    let mut engine = StreamEngine::new(cfg).expect("valid config");
    let mut updates = Vec::new();
    // Mixed ingestion paths: batched chunks with ticks firing inside.
    for chunk in events.chunks(37) {
        updates.extend(engine.ingest_batch(chunk));
    }
    updates.extend(engine.refresh());
    let served = engine.links().to_vec();
    let stats = *engine.stats();
    let scoring = *engine.scoring_stats();
    let candidate_pairs = engine.num_candidate_pairs();
    let finalized = engine
        .finalize()
        .expect("finalize")
        .links
        .into_iter()
        .map(|e| (e.left, e.right, e.weight))
        .collect();
    Observation {
        updates,
        served,
        stats,
        scoring,
        candidate_pairs,
        finalized,
    }
}

/// Like [`replay`], but through the persistent worker pool: an
/// explicit worker count, and batches big enough (256 ≥ the engine's
/// parallel thresholds) that phases actually dispatch chunks to the
/// pool's workers instead of running inline.
fn replay_pool(events: &[StreamEvent], mut cfg: StreamConfig, workers: usize) -> Observation {
    cfg.num_workers = workers;
    let mut engine = StreamEngine::new(cfg).expect("valid config");
    let mut updates = Vec::new();
    for chunk in events.chunks(256) {
        updates.extend(engine.ingest_batch(chunk));
    }
    updates.extend(engine.refresh());
    let served = engine.links().to_vec();
    let stats = *engine.stats();
    let scoring = *engine.scoring_stats();
    let candidate_pairs = engine.num_candidate_pairs();
    let finalized = engine
        .finalize()
        .expect("finalize")
        .links
        .into_iter()
        .map(|e| (e.left, e.right, e.weight))
        .collect();
    Observation {
        updates,
        served,
        stats,
        scoring,
        candidate_pairs,
        finalized,
    }
}

/// A denser stream than [`arb_events`] so pool-sized batches carry
/// enough work to cross the engine's parallel-dispatch thresholds.
fn arb_dense_events() -> impl Strategy<Value = Vec<StreamEvent>> {
    prop::collection::vec((0u8..2, 0u64..24, 0.0f64..0.01, 0i64..60_000), 500..1100).prop_map(
        |raw| {
            raw.into_iter()
                .map(|(side, entity, jitter, t)| {
                    let side = if side == 0 { Side::Left } else { Side::Right };
                    let region = (entity % 3) as f64;
                    let lat = -20.0 + 18.0 * region + jitter;
                    let lng = -100.0 + 40.0 * region + 100.0 * jitter;
                    StreamEvent::new(
                        side,
                        EntityId(entity),
                        LatLng::from_degrees(lat, lng),
                        Timestamp(t),
                    )
                })
                .collect()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Brute-force candidates, sliding window, mid-stream ticks.
    #[test]
    fn brute_force_engine_is_shard_count_invariant(events in arb_events()) {
        let cfg = StreamConfig {
            window_capacity: Some(8),
            refresh_every: 23,
            slim: slim::core::SlimConfig {
                min_records: 2,
                ..slim::core::SlimConfig::default()
            },
            ..StreamConfig::default()
        };
        let reference = replay(&events, cfg, 1);
        for shards in [2usize, 4, 7] {
            let other = replay(&events, cfg, shards);
            prop_assert!(reference == other, "{} shards diverged from 1 shard:\n{:#?}\nvs\n{:#?}", shards, reference, other);
        }
    }

    // LSH candidate discovery through the partitioned bucket index,
    // plus candidate retirement.
    #[test]
    fn lsh_engine_is_shard_count_invariant(events in arb_events()) {
        let cfg = StreamConfig {
            window_capacity: Some(8),
            refresh_every: 31,
            slim: slim::core::SlimConfig {
                min_records: 2,
                ..slim::core::SlimConfig::default()
            },
            lsh: Some(StreamLshConfig {
                spans: 8,
                base: LshConfig {
                    step_windows: 1,
                    spatial_level: 10,
                    ..LshConfig::default()
                },
            }),
            ..StreamConfig::default()
        };
        let reference = replay(&events, cfg, 1);
        for shards in [2usize, 4, 7] {
            let other = replay(&events, cfg, shards);
            prop_assert!(reference == other, "{} shards diverged from 1 shard:\n{:#?}\nvs\n{:#?}", shards, reference, other);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // The execution pool across worker counts: each count cuts the
    // chunk ids into different per-worker blocks, and the claim
    // interleaving (who takes whose back) varies from run to run — yet
    // every worker count must be observationally identical to the
    // 1-worker replay. Chunk outputs merge in chunk-id order at the
    // barrier; this test is the contract that that merge leaves no
    // schedule dependence behind.
    #[test]
    fn steal_schedules_and_worker_counts_are_invariant(events in arb_dense_events()) {
        let cfg = StreamConfig {
            num_shards: 5,
            window_capacity: Some(16),
            refresh_every: 97,
            slim: slim::core::SlimConfig {
                min_records: 2,
                ..slim::core::SlimConfig::default()
            },
            ..StreamConfig::default()
        };
        let reference = replay_pool(&events, cfg, 1);
        for workers in [2usize, 3, 4] {
            let other = replay_pool(&events, cfg, workers);
            prop_assert!(
                reference == other,
                "{} workers diverged from 1 worker:\n{:#?}\nvs\n{:#?}",
                workers, reference, other
            );
        }
    }
}
