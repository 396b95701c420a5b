//! Checkpoint format stability: `tests/fixtures/ckpt-v2.slim` is the
//! last checkpoint a drive over [`workload`] writes. Driving the engine
//! over the same workload must write the same bytes — at any shard
//! count and worker count. (The codec half of the proof — the fixture
//! decodes and re-encodes byte-identically — is a unit test beside the
//! codec in `checkpoint.rs`.)
//!
//! `tests/fixtures/ckpt-v1.slim` is the version-1 checkpoint of the same
//! drive, written when parked entities' events sat in min-records
//! buffers beside a copy of every active entity's live events. It must
//! still recover, and the resumed drive must be indistinguishable from
//! an unbroken one.
//!
//! The workload stays below the engine's pool-dispatch thresholds, so
//! the scheduling counters the image carries (`steal_events`, worker
//! busy spread) are 0 on every topology.

use slim::core::{EntityId, SlimConfig, Timestamp};
use slim::geo::LatLng;
use slim::lsh::LshConfig;
use slim::stream::testing::{script, FaultPlan};
use slim::stream::{
    DriveOptions, EpochLog, Side, StreamConfig, StreamEngine, StreamEvent, StreamLshConfig,
    TickPolicy,
};

const FIXTURE: &[u8] = include_bytes!("fixtures/ckpt-v2.slim");
const V1_FIXTURE: &[u8] = include_bytes!("fixtures/ckpt-v1.slim");

/// Three co-located left/right pairs over 14 quarter-hour windows, one
/// pair that goes quiet early (its entities expire out of the sliding
/// window) and one sparse entity per side that never clears the
/// min-records filter — so the last image holds active and parked
/// histories and rings, caches, edges and a held reorder tail.
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

fn options() -> DriveOptions {
    DriveOptions {
        queue_cap: 32,
        source_batch: 13,
        tick_policy: TickPolicy::Watermark { max_lag_secs: 900 },
        ..DriveOptions::default()
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
    engine
        .drive(script(workload(), 17), &options())
        .expect("drive");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("checkpoint dir")
        .map(|e| e.expect("entry").path())
        .collect();
    assert_eq!(files.len(), 1, "keep = 1 leaves one file: {files:?}");
    let bytes = std::fs::read(files.pop().expect("one file")).expect("read checkpoint");
    std::fs::remove_dir_all(&dir).ok();
    bytes
}

/// Pins the version-2 writer's bytes at two topologies. (The name
/// predates version 2: `ckpt-v2.slim` was written by the version-2
/// writer itself. The file an earlier writer left is `ckpt-v1.slim`,
/// which `a_version_1_checkpoint_resumes_like_an_unbroken_run` resumes.)
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

/// Everything observable at the end of a drive: the epochs it
/// published, the served links, the stats, one more refresh's updates
/// and the finalized links.
fn observe(
    mut engine: StreamEngine,
    log: &EpochLog,
) -> (
    Vec<slim::stream::LinkSnapshot>,
    Vec<slim::core::Edge>,
    slim::stream::StreamStats,
    Vec<slim::stream::LinkUpdate>,
    Vec<slim::core::Edge>,
) {
    let updates = engine.refresh();
    let epochs = log.collected().iter().map(|s| (**s).clone()).collect();
    let served = engine.links().to_vec();
    let stats = *engine.stats();
    let finalized = engine.finalize().expect("finalize").links;
    (epochs, served, stats, updates, finalized)
}

#[test]
fn a_version_1_checkpoint_resumes_like_an_unbroken_run() {
    for (shards, workers) in [(1usize, 1usize), (4, 2)] {
        let mut engine = StreamEngine::new(config(shards, workers)).expect("valid config");
        let log = EpochLog::new();
        engine.set_epoch_log(log.clone());
        engine
            .drive(script(workload(), 17), &options())
            .expect("drive");
        let (epochs, served, stats, updates, finalized) = observe(engine, &log);

        let dir = std::env::temp_dir().join(format!(
            "slim-ckpt-v1-{}-{shards}x{workers}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("checkpoint dir");
        std::fs::write(dir.join(format!("ckpt-{:020}.slim", 60)), V1_FIXTURE).expect("write");
        let mut engine = StreamEngine::recover(config(shards, workers), &dir).expect("recover");
        std::fs::remove_dir_all(&dir).ok();
        let woke_at = engine.stats().snapshots_published as usize;
        let log = EpochLog::new();
        engine.set_epoch_log(log.clone());
        engine
            .drive(script(workload(), 17), &options())
            .expect("resumed drive");
        let resumed = observe(engine, &log);

        let topology = format!("{shards} shards x {workers} workers");
        assert!(
            woke_at > 0 && woke_at < epochs.len(),
            "{topology}: woke at {woke_at}"
        );
        assert_eq!(resumed.0, epochs[woke_at..], "{topology}: epochs");
        assert_eq!(resumed.1, served, "{topology}: served links");
        assert_eq!(resumed.2, stats, "{topology}: stats");
        assert_eq!(resumed.3, updates, "{topology}: final refresh");
        assert_eq!(resumed.4, finalized, "{topology}: finalized links");
    }
}

/// `evicted_windows` counts a window an active entity appended to even
/// after expiry demoted every active entity holding bins in it. A
/// checkpoint taken in between must carry that window: recovery cannot
/// derive it from the entities, which are parked by then.
#[test]
fn a_window_counts_after_recovery_though_its_active_entities_were_demoted() {
    let cfg = || StreamConfig {
        refresh_every: 0,
        window_capacity: Some(3),
        slim: SlimConfig {
            min_records: 2,
            ..SlimConfig::default()
        },
        ..StreamConfig::default()
    };
    // Left 1 and Right 1001 activate on their third record and end up
    // with too few live records once windows 0–2 expire; Left 2 carries
    // the watermark on until windows 3–5, theirs, expire too.
    let at = LatLng::from_degrees(10.0, 10.0);
    let event = |side, e: u64, w: i64| StreamEvent::new(side, EntityId(e), at, Timestamp(w * 900));
    let mut events: Vec<StreamEvent> = (0..4).map(|w| event(Side::Left, 1, w)).collect();
    events.extend([0, 1, 2, 4, 5].map(|w| event(Side::Right, 1001, w)));
    events.extend((6..13).map(|w| event(Side::Left, 2, w)));
    events.sort_by_key(|e| (e.time, e.side, e.entity));
    let opts = DriveOptions {
        source_batch: 1,
        tick_policy: TickPolicy::EveryN(4),
        ..DriveOptions::default()
    };

    let mut unbroken = StreamEngine::new(cfg()).expect("valid config");
    unbroken
        .drive(script(events.clone(), 1), &opts)
        .expect("drive");
    unbroken.refresh();
    assert!(
        unbroken.stats().demoted_entities > 0,
        "{:?}",
        unbroken.stats()
    );

    let dir = std::env::temp_dir().join(format!("slim-ckpt-demoted-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut engine = StreamEngine::new(cfg()).expect("valid config");
    engine.set_checkpoint_policy(dir.clone(), 9, 1);
    engine.set_fault_plan(FaultPlan::kill_at(10));
    engine
        .drive(script(events.clone(), 1), &opts)
        .expect_err("killed");
    let mut recovered = StreamEngine::recover(cfg(), &dir).expect("recover");
    std::fs::remove_dir_all(&dir).ok();
    recovered
        .drive(script(events, 1), &opts)
        .expect("resumed drive");
    recovered.refresh();
    assert_eq!(recovered.stats(), unbroken.stats());
}
