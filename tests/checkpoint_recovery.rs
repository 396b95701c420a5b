//! Crash-safe checkpointing: a drive killed mid-stream by deterministic
//! fault injection, recovered from its newest valid checkpoint, and
//! resumed over the same source must be **bit-identical** to a run that
//! was never interrupted — every post-recovery published epoch, the
//! served links, the stats, and the finalized output. The battery
//! sweeps shard counts × worker counts × tick policies, kills at an
//! arbitrary event, and includes the fall-back path: when the newest
//! checkpoint is torn or bit-flipped, recovery rejects it (counted in
//! `checkpoints_rejected`) and resumes from the next-older valid one.
//! No real process is killed and nothing sleeps — the faults are pure
//! functions of the event index, so the suite is CI-deterministic.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use slim::core::{EntityId, Timestamp};
use slim::geo::LatLng;
use slim::stream::testing::{FaultPlan, ScriptStep, ScriptedConnections, ScriptedSource};
use slim::stream::{
    DriveOptions, EpochLog, LinkSnapshot, LinkUpdate, Side, StreamConfig, StreamEngine,
    StreamEvent, StreamStats, TickPolicy,
};

/// Raw tuples → a canonical in-order event stream (the
/// `snapshot_equivalence` workload shape): entities orbit regional
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
        60..160,
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

fn options(policy: TickPolicy) -> DriveOptions {
    DriveOptions {
        queue_cap: 32,
        source_batch: 13,
        tick_policy: policy,
        ..DriveOptions::default()
    }
}

fn source(events: &[StreamEvent]) -> ScriptedSource {
    let steps: Vec<ScriptStep> = events
        .chunks(17)
        .map(|c| ScriptStep::Batch(c.to_vec()))
        .collect();
    ScriptedSource::new(steps)
}

/// A fresh checkpoint directory per crash/recover cycle, unique across
/// concurrently running test processes and cases.
fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "slim-ckpt-recovery-{}-{tag}-{n}",
        std::process::id()
    ))
}

/// Everything observable about a drive's tail (the flow and checkpoint
/// counters are observational: `StreamStats`'s own equality leaves them
/// out).
#[derive(Debug, PartialEq)]
struct Observation {
    served: Vec<slim::core::Edge>,
    stats: StreamStats,
    epochs: Vec<LinkSnapshot>,
    /// The link-update delta of one post-drive refresh — equal streams
    /// of prior state produce equal deltas.
    final_updates: Vec<LinkUpdate>,
    finalized: Vec<(EntityId, EntityId, f64)>,
}

fn finish(mut engine: StreamEngine, log: &EpochLog) -> Observation {
    let final_updates = engine.refresh();
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
        served,
        stats,
        epochs: log.collected().iter().map(|s| (**s).clone()).collect(),
        final_updates,
        finalized,
    }
}

/// The uninterrupted reference: one drive to EOF, no checkpointing.
fn unbroken(
    events: &[StreamEvent],
    shards: usize,
    workers: usize,
    policy: TickPolicy,
) -> Observation {
    let mut engine = StreamEngine::new(config(shards, workers)).expect("valid config");
    let log = EpochLog::new();
    engine.set_epoch_log(log.clone());
    engine
        .drive(source(events), &options(policy))
        .expect("drive");
    finish(engine, &log)
}

/// One crash/recover cycle: drive with checkpointing until the injected
/// fault kills the run at event `kill_at` (optionally corrupting the
/// last checkpoint written before the kill), discard the engine like a
/// dead process, recover from disk, and resume over the same source.
/// Returns the post-recovery observation plus the epoch count the
/// recovered engine woke up with and the checkpoints it rejected.
#[allow(clippy::too_many_arguments)]
fn crash_and_recover(
    events: &[StreamEvent],
    shards: usize,
    workers: usize,
    policy: TickPolicy,
    every: u64,
    kill_at: u64,
    corrupt: FaultPlan,
    dir: &Path,
) -> (Observation, u64, u64) {
    let mut engine = StreamEngine::new(config(shards, workers)).expect("valid config");
    engine.set_checkpoint_policy(dir.to_path_buf(), every, 2);
    engine.set_fault_plan(FaultPlan {
        kill_at_event: Some(kill_at),
        ..corrupt
    });
    let err = engine
        .drive(source(events), &options(policy))
        .expect_err("the fault plan must kill the drive");
    assert!(
        err.contains("killed at event"),
        "unexpected drive error: {err}"
    );
    drop(engine); // the crashed process
    assert_eq!(temp_files(dir), 0, "a completed write leaves no temp file");
    // What a real SIGKILL mid-write leaves behind: a partial temp file.
    // Recovery must not count it, and the resumed drive's first
    // checkpoint must sweep it.
    std::fs::write(
        dir.join(format!("ckpt-{kill_at:020}.slim.tmp")),
        b"SLIMCKPT torn",
    )
    .expect("plant a stale temp file");

    let mut engine =
        StreamEngine::recover(config(shards, workers), dir).expect("recover from checkpoint");
    let woke_at = engine.stats().snapshots_published;
    let rejected = engine.stats().checkpoints_rejected;
    let written_before = engine.stats().checkpoints_written;
    engine.set_checkpoint_policy(dir.to_path_buf(), every, 2);
    let log = EpochLog::new();
    engine.set_epoch_log(log.clone());
    engine
        .drive(source(events), &options(policy))
        .expect("resumed drive");
    if engine.stats().checkpoints_written > written_before {
        assert_eq!(
            temp_files(dir),
            0,
            "a stale temp file outlived a checkpoint"
        );
    }
    (finish(engine, &log), woke_at, rejected)
}

/// How many `*.tmp` files `dir` holds.
fn temp_files(dir: &Path) -> usize {
    std::fs::read_dir(dir)
        .expect("checkpoint dir")
        .filter(|e| {
            let name = e.as_ref().expect("entry").file_name();
            name.to_string_lossy().ends_with(".tmp")
        })
        .count()
}

/// Asserts one crash/recover cycle is bit-identical to the unbroken
/// reference from the recovery point on: the resumed drive republishes
/// exactly the reference's epoch suffix, and the final served links,
/// stats, refresh delta, and finalized output all match.
fn assert_recovery_matches(
    reference: &Observation,
    recovered: &Observation,
    woke_at: u64,
    label: &str,
) {
    let woke_at = woke_at as usize;
    assert!(
        woke_at <= reference.epochs.len(),
        "{label}: recovered engine claims more epochs than the reference published"
    );
    assert_eq!(
        recovered.epochs,
        reference.epochs[woke_at..],
        "{label}: post-recovery epoch sequence diverged"
    );
    assert_eq!(
        recovered.served, reference.served,
        "{label}: served links diverged"
    );
    assert_eq!(recovered.stats, reference.stats, "{label}: stats diverged");
    assert_eq!(
        recovered.final_updates, reference.final_updates,
        "{label}: final refresh delta diverged"
    );
    assert_eq!(
        recovered.finalized, reference.finalized,
        "{label}: finalized output diverged"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // The acceptance gate: randomized streams across shard counts,
    // worker counts, and both tick policies; a kill at an arbitrary
    // event followed by recovery is indistinguishable from never
    // having crashed. One extra cycle per policy corrupts the newest
    // checkpoint (a torn write) and must fall back to the next-older
    // valid one, counting the rejection.
    #[test]
    fn recovery_is_bit_identical_to_an_unbroken_run(
        events in arb_events(),
        kill_frac in 0.2f64..0.95,
    ) {
        // Dedup can shrink a small draw; skip degenerate streams (the
        // offline proptest shim has no `prop_assume`).
        if events.len() < 50 {
            return Ok(());
        }
        let n = events.len() as u64;
        let every = 12u64;
        let kill_at = ((n as f64 * kill_frac) as u64).clamp(every, n);
        for policy in [
            TickPolicy::EveryN(23),
            TickPolicy::Watermark { max_lag_secs: 900 },
        ] {
            let reference = unbroken(&events, 1, 1, policy);
            for shards in [1usize, 4] {
                for workers in [1usize, 2, 4] {
                    let dir = temp_dir("prop");
                    let (recovered, woke_at, rejected) = crash_and_recover(
                        &events, shards, workers, policy, every, kill_at,
                        FaultPlan::default(), &dir,
                    );
                    let label = format!(
                        "shards={shards} workers={workers} policy={policy:?} kill={kill_at}"
                    );
                    prop_assert!(rejected == 0, "no corruption injected ({})", label);
                    assert_recovery_matches(&reference, &recovered, woke_at, &label);
                    std::fs::remove_dir_all(&dir).ok();
                }
            }

            // Corrupted-newest: tear the last checkpoint before the
            // kill; recovery must skip past it to the older one. Needs
            // two checkpoints on disk, so the kill moves past 2·every.
            let kill_at = kill_at.max(2 * every + 1).min(n);
            let dir = temp_dir("torn");
            let (recovered, woke_at, rejected) = crash_and_recover(
                &events, 4, 2, policy, every, kill_at,
                FaultPlan { torn_write_after: Some(97), ..FaultPlan::default() },
                &dir,
            );
            let label = format!("torn-newest policy={policy:?} kill={kill_at}");
            prop_assert!(rejected >= 1, "the torn checkpoint must be rejected ({})", label);
            assert_recovery_matches(&reference, &recovered, woke_at, &label);
            std::fs::remove_dir_all(&dir).ok();
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

/// Checkpoints are shard-agnostic: state checkpointed by a 3-shard,
/// 2-worker engine recovers into 1×1 and 4×4 engines, and both resume
/// to the same bit-identical tail as the unbroken single-shard run.
#[test]
fn recovery_crosses_shard_and_worker_counts() {
    let events = fixed_workload(40);
    let policy = TickPolicy::EveryN(23);
    let reference = unbroken(&events, 1, 1, policy);
    let kill_at = events.len() as u64 / 2;

    let dir = temp_dir("xshard");
    let mut engine = StreamEngine::new(config(3, 2)).expect("valid config");
    engine.set_checkpoint_policy(dir.clone(), 16, 2);
    engine.set_fault_plan(FaultPlan::kill_at(kill_at));
    engine
        .drive(source(&events), &options(policy))
        .expect_err("killed");
    drop(engine);

    for (shards, workers) in [(1usize, 1usize), (4, 4)] {
        let mut engine =
            StreamEngine::recover(config(shards, workers), &dir).expect("cross-config recover");
        let woke_at = engine.stats().snapshots_published;
        let log = EpochLog::new();
        engine.set_epoch_log(log.clone());
        engine
            .drive(source(&events), &options(policy))
            .expect("resume");
        let recovered = finish(engine, &log);
        assert_recovery_matches(
            &reference,
            &recovered,
            woke_at,
            &format!("cross-config {shards}x{workers}"),
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A drive start that is rejected — the wrong tick policy, or a tier
/// that cannot replay the accepted prefix — must leave the recovery
/// state where it was: the corrected retry resumes from the checkpoint
/// and is bit-identical to the unbroken run, instead of replaying from
/// event 0 on top of the recovered engine.
#[test]
fn a_rejected_start_keeps_the_recovery_state_for_the_retry() {
    let events = fixed_workload(40);
    let policy = TickPolicy::EveryN(23);
    let reference = unbroken(&events, 1, 1, policy);

    let dir = temp_dir("retry");
    let mut engine = StreamEngine::new(config(2, 2)).expect("valid config");
    engine.set_checkpoint_policy(dir.clone(), 16, 2);
    engine.set_fault_plan(FaultPlan::kill_at(events.len() as u64 / 2));
    engine
        .drive(source(&events), &options(policy))
        .expect_err("killed");
    drop(engine);

    for wrong in ["tick policy", "tier"] {
        let mut engine = StreamEngine::recover(config(2, 2), &dir).expect("recover");
        let woke_at = engine.stats().snapshots_published;
        let recovered_events = engine.stats().events;
        let log = EpochLog::new();
        engine.set_epoch_log(log.clone());
        let err = match wrong {
            "tick policy" => engine.drive(
                source(&events),
                &options(TickPolicy::Watermark { max_lag_secs: 900 }),
            ),
            _ => engine.drive_fan_in(
                ScriptedConnections::single_stage(vec![vec![ScriptStep::Batch(events.clone())]]),
                &options(policy),
            ),
        }
        .expect_err("the mismatched start must be rejected");
        assert!(
            err.contains("does not match") || err.contains("replayable"),
            "wrong {wrong}: unexpected error: {err}"
        );
        assert_eq!(
            engine.stats().events,
            recovered_events,
            "wrong {wrong}: a rejected start consumes nothing"
        );
        engine
            .drive(source(&events), &options(policy))
            .expect("the corrected retry resumes");
        let recovered = finish(engine, &log);
        assert_recovery_matches(
            &reference,
            &recovered,
            woke_at,
            &format!("retry after a wrong {wrong}"),
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A bit-flipped newest checkpoint is rejected — recovery falls back
/// and still resumes bit-identically; with *every* checkpoint corrupt,
/// recovery reports an error instead of panicking or serving garbage.
#[test]
fn recovery_survives_bit_flips_and_rejects_total_corruption() {
    let events = fixed_workload(40);
    let policy = TickPolicy::Watermark { max_lag_secs: 900 };
    let reference = unbroken(&events, 1, 1, policy);
    let n = events.len() as u64;

    let dir = temp_dir("flip");
    let (recovered, woke_at, rejected) = crash_and_recover(
        &events,
        2,
        2,
        policy,
        16,
        (n * 3 / 4).max(33), // ≥ two checkpoints
        FaultPlan {
            bit_flip_at: Some(41),
            ..FaultPlan::default()
        },
        &dir,
    );
    assert!(rejected >= 1, "the flipped checkpoint must be rejected");
    assert_recovery_matches(&reference, &recovered, woke_at, "bit-flip fallback");
    // A quarter of the stream was left to resume, so the resumed drive
    // checkpointed and the planted temp file is certainly gone.
    assert_eq!(temp_files(&dir), 0, "stale temp file survived the resume");

    // Corrupt every surviving checkpoint in place: recovery errors out.
    for entry in std::fs::read_dir(&dir).expect("dir") {
        let path = entry.expect("entry").path();
        let mut bytes = std::fs::read(&path).expect("read checkpoint");
        if bytes.len() > 12 {
            bytes[12] ^= 0xFF;
        } else {
            bytes.clear();
        }
        std::fs::write(&path, &bytes).expect("rewrite checkpoint");
    }
    let err = match StreamEngine::recover(config(2, 2), &dir) {
        Err(e) => e,
        Ok(_) => panic!("recovery from a fully corrupt directory must fail"),
    };
    assert!(
        err.contains("no valid checkpoint") || err.contains("checkpoint"),
        "unexpected error: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
