//! Epoch-snapshot equivalence: every [`LinkSnapshot`] a drive publishes
//! at its tick barriers must be **bit-identical** to what a
//! single-shard, single-worker replay of the same accepted event prefix
//! would publish at the same tick boundaries — and identical across
//! shard counts, worker counts, and tick policies. A second battery
//! pins the read path: concurrent readers hammering the epoch pointer
//! mid-drive only ever observe fully-formed published epochs (dense
//! monotone ids, links consistent with the snapshot's own threshold),
//! and their presence never perturbs the drive's observable output.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use slim::core::{matching::heaviest_first, EntityId, Timestamp};
use slim::geo::LatLng;
use slim::stream::testing::{ScriptStep, ScriptedSource};
use slim::stream::{
    DriveOptions, EpochLog, LinkSnapshot, LinkUpdate, Side, StreamConfig, StreamEngine,
    StreamEvent, StreamStats, TickPolicy,
};

/// Raw tuples → a canonical in-order event stream (the
/// `telemetry_equivalence` workload shape): entities orbit regional
/// anchors so some cross-side pairs actually link, timestamps span ~28
/// temporal windows, `(time, side, entity)` keys are deduplicated so
/// the canonical order is unambiguous.
fn arb_events() -> impl Strategy<Value = Vec<StreamEvent>> {
    prop::collection::vec(
        (
            0u8..2,       // side
            0u64..8,      // entity
            0.0f64..0.01, // position jitter
            0i64..25_000, // timestamp
        ),
        40..160,
    )
    .prop_map(|raw| {
        let mut events: Vec<StreamEvent> = raw
            .into_iter()
            .map(|(side, entity, jitter, t)| {
                let side = if side == 0 { Side::Left } else { Side::Right };
                let region = (entity % 3) as f64;
                StreamEvent::new(
                    side,
                    EntityId(entity),
                    LatLng::from_degrees(
                        -20.0 + 18.0 * region + jitter,
                        -100.0 + 40.0 * region + 100.0 * jitter,
                    ),
                    Timestamp(t),
                )
            })
            .collect();
        events.sort_by_key(|ev| (ev.time, ev.side, ev.entity));
        events.dedup_by_key(|ev| (ev.time, ev.side, ev.entity));
        events
    })
}

fn config(shards: usize, workers: usize) -> StreamConfig {
    StreamConfig {
        refresh_every: 0, // the drive's tick policy schedules ticks
        num_shards: shards,
        num_workers: workers,
        slim: slim::core::SlimConfig {
            min_records: 2,
            ..slim::core::SlimConfig::default()
        },
        ..StreamConfig::default()
    }
}

/// One full drive with an epoch log installed; returns the complete
/// publication sequence.
fn drive_with_log(
    events: &[StreamEvent],
    shards: usize,
    workers: usize,
    policy: TickPolicy,
) -> Vec<Arc<LinkSnapshot>> {
    let mut engine = StreamEngine::new(config(shards, workers)).expect("valid config");
    let log = EpochLog::new();
    engine.set_epoch_log(log.clone());
    let steps: Vec<ScriptStep> = events
        .chunks(17)
        .map(|c| ScriptStep::Batch(c.to_vec()))
        .collect();
    engine
        .drive(
            ScriptedSource::new(steps),
            &DriveOptions {
                queue_cap: 32,
                source_batch: 13,
                tick_policy: policy,
                ..DriveOptions::default()
            },
        )
        .expect("drive");
    log.collected()
}

/// The structural invariants every published sequence must satisfy:
/// dense monotone epoch ids starting at 1, non-decreasing event counts,
/// links in the matcher's heaviest-first order, and — when a threshold
/// was selected — no served link below it.
fn assert_well_formed(snapshots: &[Arc<LinkSnapshot>]) {
    for (i, snap) in snapshots.iter().enumerate() {
        assert_eq!(snap.epoch, i as u64 + 1, "epoch ids are dense from 1");
        if i > 0 {
            assert!(
                snap.events >= snapshots[i - 1].events,
                "event counts never decrease"
            );
            assert!(
                snap.frontier >= snapshots[i - 1].frontier,
                "the frontier never retreats"
            );
        }
        assert!(
            snap.links
                .windows(2)
                .all(|w| heaviest_first(&w[0], &w[1]) != std::cmp::Ordering::Greater),
            "links leave the barrier heaviest-first"
        );
        if let Some(t) = snap.threshold {
            assert!(
                snap.links.iter().all(|e| e.weight >= t),
                "a served link below the snapshot's own threshold"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Across shard counts, worker counts, and both tick policies, the
    // published epoch sequence is bit-identical to the single-shard,
    // single-worker reference for the same policy — snapshots inherit
    // the engine's bit-identity contract wholesale.
    #[test]
    fn published_epochs_agree_across_configs(events in arb_events()) {
        for policy in [
            TickPolicy::EveryN(23),
            TickPolicy::Watermark { max_lag_secs: 900 },
        ] {
            let reference = drive_with_log(&events, 1, 1, policy);
            assert_well_formed(&reference);
            for shards in [1usize, 4] {
                for workers in [1usize, 2, 4] {
                    let got = drive_with_log(&events, shards, workers, policy);
                    prop_assert!(
                        got.len() == reference.len(),
                        "tick counts diverged at shards={} workers={} policy={:?}",
                        shards,
                        workers,
                        policy
                    );
                    for (g, r) in got.iter().zip(&reference) {
                        prop_assert!(
                            **g == **r,
                            "epoch diverged at shards={} workers={} policy={:?}",
                            shards,
                            workers,
                            policy
                        );
                    }
                }
            }
        }
    }

    // The batch-prefix oracle: each published snapshot carries the
    // exact accepted-event count it is the linkage of, so a fresh
    // single-shard engine manually replaying the canonical events up to
    // each recorded boundary (ingest_batch + refresh) must publish the
    // same sequence — links, thresholds, epochs, events, frontiers.
    #[test]
    fn each_epoch_matches_a_replay_of_its_event_prefix(events in arb_events()) {
        for policy in [
            TickPolicy::EveryN(23),
            TickPolicy::Watermark { max_lag_secs: 900 },
        ] {
            let published = drive_with_log(&events, 3, 2, policy);
            let mut oracle = StreamEngine::new(config(1, 1)).expect("valid config");
            let oracle_log = EpochLog::new();
            oracle.set_epoch_log(oracle_log.clone());
            let mut fed = 0usize;
            for snap in &published {
                let upto = snap.events as usize;
                prop_assert!(upto >= fed && upto <= events.len(), "bad prefix boundary");
                oracle.ingest_batch(&events[fed..upto]);
                fed = upto;
                oracle.refresh();
            }
            let replayed = oracle_log.collected();
            prop_assert_eq!(replayed.len(), published.len());
            for (r, p) in replayed.iter().zip(&published) {
                prop_assert!(**r == **p, "prefix replay diverged under {:?}", policy);
            }
        }
    }
}

/// A deterministic linkable workload: co-located left/right pairs over
/// `windows` temporal windows.
fn fixed_workload(windows: i64) -> Vec<StreamEvent> {
    let mut events = Vec::new();
    for k in 0..windows {
        for e in 0..6u64 {
            let key = e as f64;
            let at = LatLng::from_degrees(5.0 + 7.0 * key, -100.0 + 9.0 * key);
            events.push(StreamEvent::new(
                Side::Left,
                EntityId(e),
                at,
                Timestamp(k * 900 + 10 * e as i64),
            ));
            events.push(StreamEvent::new(
                Side::Right,
                EntityId(100 + e),
                at,
                Timestamp(k * 900 + 10 * e as i64 + 400),
            ));
        }
    }
    events.sort_by_key(|e| (e.time, e.side, e.entity));
    events
}

/// Everything observable about one drive (the `StreamStats` equality
/// already excludes the scheduling and channel-flow telemetry).
#[derive(Debug, PartialEq)]
struct Observation {
    updates: Vec<LinkUpdate>,
    served: Vec<slim::core::Edge>,
    stats: StreamStats,
    epochs: Vec<LinkSnapshot>,
    finalized: Vec<(EntityId, EntityId, f64)>,
}

fn observe(events: &[StreamEvent], readers: usize) -> Observation {
    let mut engine = StreamEngine::new(config(3, 2)).expect("valid config");
    let log = EpochLog::new();
    engine.set_epoch_log(log.clone());

    // Reader threads hammer clones of the epoch pointer for the whole
    // drive, recording every observed epoch id + snapshot.
    let stop = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..readers)
        .map(|_| {
            let pointer = engine.epoch_pointer();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut seen: Vec<Arc<LinkSnapshot>> = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let snap = pointer.load();
                    if seen.last().map(|s| s.epoch) != Some(snap.epoch) {
                        seen.push(snap);
                    }
                }
                seen
            })
        })
        .collect();

    let steps: Vec<ScriptStep> = events
        .chunks(17)
        .map(|c| ScriptStep::Batch(c.to_vec()))
        .collect();
    let report = engine
        .drive(
            ScriptedSource::new(steps),
            &DriveOptions {
                queue_cap: 32,
                source_batch: 13,
                tick_policy: TickPolicy::EveryN(23),
                ..DriveOptions::default()
            },
        )
        .expect("drive");
    let mut updates = report.updates;
    updates.extend(engine.refresh());
    stop.store(true, Ordering::Relaxed);

    let published = log.collected();
    for handle in handles {
        let seen = handle.join().expect("reader thread");
        // A reader never sees a torn or unpublished epoch: ids are
        // strictly increasing (it deduplicated consecutive loads), and
        // every observed snapshot is byte-for-byte a published one.
        assert!(
            seen.windows(2).all(|w| w[0].epoch < w[1].epoch),
            "reader observed a non-monotone epoch sequence"
        );
        for snap in seen {
            if snap.epoch == 0 {
                assert_eq!(*snap, LinkSnapshot::empty());
            } else {
                let idx = (snap.epoch - 1) as usize;
                assert_eq!(
                    *snap, *published[idx],
                    "reader observed an epoch the barrier never published"
                );
            }
        }
    }

    let served = engine.links().to_vec();
    let stats = *engine.stats();
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
        epochs: published.iter().map(|s| (**s).clone()).collect(),
        finalized,
    }
}

/// The acceptance gate: a pack of readers loading the epoch pointer
/// throughout the drive never blocks a barrier or perturbs the output —
/// updates, served links, stats, the publication sequence, and the
/// finalized links are bit-identical with readers on and off.
#[test]
fn concurrent_readers_never_perturb_the_drive() {
    let events = fixed_workload(40);
    let with_readers = observe(&events, 4);
    let without_readers = observe(&events, 0);
    assert!(
        with_readers.epochs.len() > 1,
        "workload must publish several epochs"
    );
    assert_eq!(with_readers, without_readers);
}
