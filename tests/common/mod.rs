//! What `tick_footprint` and `accept_loop_scale` share: the sparse
//! check-in replay and the windowed-LSH engine configuration the
//! benchmark's SM workloads use, at about a seventh of their size.

use slim::datagen::Scenario;
use slim::lsh::LshConfig;
use slim::stream::{merge_datasets, StreamConfig, StreamEvent, StreamLshConfig};

/// ≈ 22k check-in events over 26 days in canonical order: 0.05 × 30k
/// users, half of them seen by both services, ≈ 12 records per view.
pub fn sm_replay() -> Vec<StreamEvent> {
    let sample = Scenario::sm(0.05, 42).sample(0.5, 42);
    merge_datasets(&sample.left, &sample.right)
}

/// Check-ins run ≈ 1 record per 2 days per entity, so a 14-day sliding
/// window (1,344 × 15 min) keeps entities above the min-records filter
/// while the 26-day replay still exercises expiry; the LSH ring
/// (28 × 48 windows) covers the same 14 days, and 2²⁰ buckets keep
/// ≈ 1.5k sparse entities from crowding into spurious candidates. No
/// automatic ticks: the caller refreshes by hand or a drive's tick
/// policy does. `topology` is both the shard and the worker count.
pub fn sm_config(topology: usize) -> StreamConfig {
    StreamConfig {
        window_capacity: Some(1344),
        refresh_every: 0,
        num_shards: topology,
        num_workers: topology,
        lsh: Some(StreamLshConfig {
            spans: 28,
            base: LshConfig {
                num_buckets: 1 << 20,
                threshold: 0.7,
                ..LshConfig::default()
            },
        }),
        ..StreamConfig::default()
    }
}
