//! Crash recovery: a drive killed by a [`FaultPlan`] at an exact event,
//! then recovered from its checkpoint directory and resumed over the same
//! source, is indistinguishable from the drive never having crashed —
//! epochs, served links, deterministic stats and the finalized output,
//! across shard and worker counts and both tick policies. A torn or
//! bit-flipped newest checkpoint is rejected and recovery falls back to
//! the older one.

use slim::stream::testing::{
    script, Case, Damage, Delivery, FaultPlan, Kill, OracleCoverage, ScriptStep,
    ScriptedConnections, Variation,
};
use slim::stream::{DriveOptions, EpochLog, LinkSnapshot, StreamConfig, StreamEngine, TickPolicy};

/// Sampled streams across shards {1, 4} × workers {1, 2, 4} and both tick
/// policies: a kill at an arbitrary event followed by recovery is
/// indistinguishable from never having crashed. One more kill per policy
/// tears the newest checkpoint, and recovery must fall back to the
/// next-older valid one, counting the rejection.
#[test]
fn recovery_is_bit_identical_to_an_unbroken_run() {
    let mut cover = OracleCoverage::default();
    for seed in 0..4 {
        let mut case = Case::sample_where(seed, |c| {
            c.canonical && (50..=300).contains(&c.events.len())
        });
        case.cfg.lsh = None;
        let n = case.events.len() as u64;
        // From a fifth of the stream to its end, at or past the first
        // checkpoint.
        let at = (n * (20 + 25 * seed) / 100).clamp(12, n - 1);
        let kill = |watermark, (shards, workers), at, damage| Variation {
            shards,
            workers,
            delivery: Delivery::Source { seed },
            watermark,
            kill: Some(Kill {
                at,
                damage,
                recover_as: (shards, workers),
            }),
            ..Variation::reference()
        };
        let mut kills = Vec::new();
        for watermark in [false, true] {
            for shards in [1, 4] {
                for workers in [1, 2, 4] {
                    kills.push(kill(watermark, (shards, workers), at, Damage::None));
                }
            }
            // Falling back needs two checkpoints on disk.
            kills.push(kill(watermark, (4, 2), at.max(25).min(n - 1), Damage::Torn));
        }
        let checked = case.check(&kills);
        let checked = checked.unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(checked.recoveries, kills.len() as u64, "seed {seed}");
        assert_eq!(checked.checkpoints_rejected, 2, "seed {seed}");
        cover.add(&checked);
    }
    cover.assert_exercised(&["recoveries", "checkpoints rejected", "watermark ticks"]);
}

/// Drive options of the corner cases' sources.
fn options(tick_policy: TickPolicy) -> DriveOptions {
    DriveOptions {
        queue_cap: 32,
        source_batch: 13,
        tick_policy,
        ..DriveOptions::default()
    }
}

/// Drives `case` on 2 × 2 with checkpoints every 16 events into a fresh
/// directory until a kill at `at`.
fn crash(case: &Case, at: u64) -> std::path::PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("slim-corner-{}-{n}", std::process::id()));
    let cfg = StreamConfig {
        num_shards: 2,
        num_workers: 2,
        ..case.cfg
    };
    let mut engine = StreamEngine::new(cfg).unwrap();
    engine.set_checkpoint_policy(dir.clone(), 16, 2);
    engine.set_fault_plan(FaultPlan::kill_at(at));
    let err = engine
        .drive(
            script(case.events.clone(), 17),
            &options(TickPolicy::EveryN(23)),
        )
        .expect_err("the fault plan kills the drive");
    assert!(err.contains("killed at event"), "{err}");
    dir
}

/// A rejected start — the wrong tick policy, or a tier that cannot replay
/// the accepted prefix — leaves the recovery state where it was: the
/// corrected retry resumes from the checkpoint like an unbroken run.
#[test]
fn a_rejected_start_keeps_the_recovery_state_for_the_retry() {
    let case = Case::fixed(40);
    let unbroken = Variation {
        delivery: Delivery::Source { seed: 1 },
        ..Variation::reference()
    };
    let want = case.observe(&unbroken).unwrap();
    let dir = crash(&case, case.events.len() as u64 / 2);
    for wrong in ["tick policy", "tier"] {
        let mut engine = StreamEngine::recover(case.cfg, &dir).unwrap();
        let (woke, events) = (
            engine.stats().snapshots_published as usize,
            engine.stats().events,
        );
        let log = EpochLog::new();
        engine.set_epoch_log(log.clone());
        let err = match wrong {
            "tick policy" => engine.drive(
                script(case.events.clone(), 17),
                &options(TickPolicy::Watermark { max_lag_secs: 900 }),
            ),
            _ => engine.drive_fan_in(
                ScriptedConnections::single_stage(vec![vec![ScriptStep::Batch(
                    case.events.clone(),
                )]]),
                &options(TickPolicy::EveryN(23)),
            ),
        }
        .expect_err("the mismatched start is rejected");
        assert!(
            err.contains("does not match") || err.contains("replayable"),
            "{wrong}: {err}"
        );
        assert_eq!(
            engine.stats().events,
            events,
            "{wrong}: a rejected start consumes nothing"
        );
        engine
            .drive(
                script(case.events.clone(), 17),
                &options(TickPolicy::EveryN(23)),
            )
            .expect("the corrected retry resumes");
        engine.refresh();
        let epochs: Vec<LinkSnapshot> = log.collected().iter().map(|s| (**s).clone()).collect();
        assert_eq!(epochs, want.epochs[woke..], "{wrong}: epochs");
        assert_eq!(engine.links(), &want.served[..], "{wrong}: served links");
        assert_eq!(*engine.stats(), want.stats, "{wrong}: stats");
        assert_eq!(
            engine.finalize().unwrap().links,
            want.finalized,
            "{wrong}: finalized"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A bit-flipped or torn newest checkpoint is rejected and recovery falls
/// back to the older one, bit-identically; with every checkpoint corrupt,
/// recovery is an error, not a panic or garbage.
#[test]
fn recovery_survives_bit_flips_and_rejects_total_corruption() {
    let case = Case::fixed(40);
    let kill = |damage| Variation {
        delivery: Delivery::Source { seed: 2 },
        watermark: true,
        kill: Some(Kill {
            at: case.events.len() as u64 * 3 / 4,
            damage,
            recover_as: (2, 2),
        }),
        ..Variation::reference()
    };
    let cover = case
        .check(&[kill(Damage::BitFlip), kill(Damage::Torn)])
        .unwrap();
    assert_eq!(
        cover.checkpoints_rejected, 2,
        "each damaged checkpoint is rejected"
    );

    let dir = crash(&case, case.events.len() as u64 * 3 / 4);
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[12] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
    }
    match StreamEngine::recover(case.cfg, &dir) {
        Err(e) => assert!(e.contains("checkpoint"), "unexpected error: {e}"),
        Ok(_) => panic!("recovery from a fully corrupt directory must fail"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Checkpoints are shard-agnostic: state a 3-shard, 2-worker drive
/// checkpointed recovers into 1 × 1 and 4 × 4 engines alike.
#[test]
fn recovery_crosses_shard_and_worker_counts() {
    let case = Case::fixed(40);
    let kill = |recover_as| Variation {
        shards: 3,
        workers: 2,
        delivery: Delivery::Source { seed: 3 },
        kill: Some(Kill {
            at: case.events.len() as u64 / 2,
            damage: Damage::None,
            recover_as,
        }),
        ..Variation::reference()
    };
    let cover = case.check(&[kill((1, 1)), kill((4, 4))]).unwrap();
    assert_eq!(cover.recoveries, 2);
}
