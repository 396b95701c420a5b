//! Checkpoint format stability: `tests/fixtures/ckpt-v1.slim` is the
//! last checkpoint the commit *before* the write path was rebuilt
//! (table-driven CRC, borrowed image, in-place frames) wrote when driven
//! over [`workload`]. Driving today's engine over the same workload must
//! write the same bytes — at any shard count and worker count — which
//! is why the format `VERSION` is still 1. (The codec half
//! of the proof — the fixture decodes and re-encodes byte-identically —
//! is a unit test beside the codec in `checkpoint.rs`.)
//!
//! The workload stays below the engine's pool-dispatch thresholds, so
//! the scheduling counters the image carries (`steal_events`, worker
//! busy spread) are 0 on every topology.

use slim::core::{EntityId, SlimConfig, Timestamp};
use slim::geo::LatLng;
use slim::lsh::LshConfig;
use slim::stream::testing::script;
use slim::stream::{
    DriveOptions, Side, StreamConfig, StreamEngine, StreamEvent, StreamLshConfig, TickPolicy,
};

const FIXTURE: &[u8] = include_bytes!("fixtures/ckpt-v1.slim");

/// Three co-located left/right pairs over 14 quarter-hour windows, one
/// pair that goes quiet early (its entities expire out of the sliding
/// window) and one sparse entity per side that never clears the
/// min-records filter — so the last image holds histories, pending and
/// live-event buffers, rings, caches, edges and a held reorder tail.
fn workload() -> Vec<StreamEvent> {
    let mut events = Vec::new();
    for k in 0..14i64 {
        for e in 0..3u64 {
            if e == 2 && k >= 4 {
                continue;
            }
            let key = e as f64;
            let at =
                LatLng::from_degrees(5.0 + 7.0 * key + 0.002 * (k % 3) as f64, -100.0 + 9.0 * key);
            let t = k * 900 + 10 * e as i64;
            events.push(StreamEvent::new(Side::Left, EntityId(e), at, Timestamp(t)));
            events.push(StreamEvent::new(
                Side::Right,
                EntityId(100 + e),
                at,
                Timestamp(t + 400),
            ));
        }
        if k % 7 == 5 {
            let at = LatLng::from_degrees(-30.0, 140.0);
            events.push(StreamEvent::new(
                Side::Left,
                EntityId(50),
                at,
                Timestamp(k * 900 + 77),
            ));
            events.push(StreamEvent::new(
                Side::Right,
                EntityId(150),
                at,
                Timestamp(k * 900 + 477),
            ));
        }
    }
    events.sort_by_key(|e| (e.time, e.side, e.entity));
    events
}

fn config(shards: usize, workers: usize) -> StreamConfig {
    StreamConfig {
        refresh_every: 0,
        num_shards: shards,
        num_workers: workers,
        window_capacity: Some(8),
        slim: SlimConfig {
            min_records: 2,
            ..SlimConfig::default()
        },
        lsh: Some(StreamLshConfig {
            spans: 4,
            base: LshConfig {
                threshold: 0.3,
                step_windows: 2,
                spatial_level: 12,
                num_buckets: 64,
            },
        }),
        ..StreamConfig::default()
    }
}

/// Drives the workload with a checkpoint every 20 events, keeping one
/// file, and returns that file's bytes (the image at event 60 of 68).
fn written_image(shards: usize, workers: usize) -> Vec<u8> {
    let dir = std::env::temp_dir().join(format!(
        "slim-ckpt-format-{}-{shards}x{workers}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut engine = StreamEngine::new(config(shards, workers)).expect("valid config");
    engine.set_checkpoint_policy(dir.clone(), 20, 1);
    let opts = DriveOptions {
        queue_cap: 32,
        source_batch: 13,
        tick_policy: TickPolicy::Watermark { max_lag_secs: 900 },
        ..DriveOptions::default()
    };
    engine.drive(script(workload(), 17), &opts).expect("drive");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("checkpoint dir")
        .map(|e| e.expect("entry").path())
        .collect();
    assert_eq!(files.len(), 1, "keep = 1 leaves one file: {files:?}");
    let bytes = std::fs::read(files.pop().expect("one file")).expect("read checkpoint");
    std::fs::remove_dir_all(&dir).ok();
    bytes
}

#[test]
fn drive_writes_the_parent_commits_bytes_on_every_topology() {
    for (shards, workers) in [(1usize, 1usize), (4, 2)] {
        let bytes = written_image(shards, workers);
        assert!(
            bytes == FIXTURE,
            "{shards} shards x {workers} workers: wrote {} bytes that differ from the {}-byte \
             fixture",
            bytes.len(),
            FIXTURE.len()
        );
    }
}
