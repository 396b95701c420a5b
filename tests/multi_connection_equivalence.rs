//! Multi-connection fan-in: a tier of scripted connections — staged
//! joins, leaves and deaths, uneven batches, stalls — through
//! `StreamEngine::drive_fan_in` is bit-identical to the single merged
//! replay, the watermark over the merged frontier loses nothing, a
//! single source is the one-connection tier, and an idle timeout
//! unfreezes a frontier a stalled client holds back.

use std::sync::Arc;

use slim::core::{EntityId, Timestamp};
use slim::geo::LatLng;
use slim::stream::source::channel::Sender;
use slim::stream::testing::{
    Case, Delivery, OracleCoverage, ScriptStep, ScriptedConnections, ScriptedSource, Variation,
    VirtualClock,
};
use slim::stream::{
    ConnMessage, DriveOptions, FanIn, IngestReport, Side, StreamConfig, StreamEngine, StreamEvent,
    StreamStats, TickPolicy,
};

/// Cases each property checks.
const CASES: u64 = 10;

/// Stages (1–3) and connections per stage (1–4) of the tier drawn from
/// `seed`.
fn tier_shape(seed: u64) -> (usize, usize) {
    (1 + (seed % 3) as usize, 1 + (seed / 3 % 4) as usize)
}

/// A staged tier on `shards` × `workers`, dealt and scripted from `seed`.
fn staged(seed: u64, shards: usize, workers: usize, watermark: bool) -> Variation {
    let (stages, connections) = tier_shape(seed);
    Variation {
        shards,
        workers,
        delivery: Delivery::FanIn {
            stages,
            connections,
            seed,
        },
        watermark,
        ..Variation::reference()
    }
}

/// A canonical brute-force case: the order the frontier merge restores.
fn canonical(seed: u64) -> Case {
    let mut case = Case::sample_where(seed, |c| c.canonical && c.events.len() <= 300);
    case.cfg.lsh = None;
    case
}

/// Churn, stalls, deaths and uneven rates leave the update stream,
/// epochs, served links, stats and finalized output as the merged
/// replay's, across shards {1, 4} × workers {1, 2, 4}.
#[test]
fn interleaved_connections_match_a_merged_replay() {
    let mut cover = OracleCoverage::default();
    for seed in 0..CASES {
        let mut tiers = Vec::new();
        for shards in [1, 4] {
            for workers in [1, 2, 4] {
                tiers.push(staged(seed, shards, workers, false));
            }
        }
        let checked = canonical(seed).check(&tiers);
        cover.add(&checked.unwrap_or_else(|e| panic!("seed {seed}: {e}")));
    }
    cover.assert_exercised(&[
        "connections joined",
        "connections joined mid-stream",
        "connections left",
        "connections died",
    ]);
}

/// Tick positions follow the schedule-dependent frontier, but the
/// finalized output may not differ, and each epoch is a replay of its
/// event prefix.
#[test]
fn watermark_over_merged_frontier_preserves_finalized_output() {
    let mut cover = OracleCoverage::default();
    for seed in 0..CASES {
        let checked = canonical(seed).check(&[staged(seed, 1, 1, true)]);
        cover.add(&checked.unwrap_or_else(|e| panic!("seed {seed}: {e}")));
    }
    cover.assert_exercised(&["watermark ticks"]);
}

/// Two shards, two workers, an 8-window sliding window, no ticks but a
/// drive's.
fn two_by_two() -> StreamConfig {
    StreamConfig {
        window_capacity: Some(8),
        refresh_every: 0,
        num_shards: 2,
        num_workers: 2,
        ..Case::fixed(1).cfg
    }
}

/// A fan-in tier scripted against consumer progress, so that the idle
/// eviction below is deterministic across threads. The pump reads the
/// clock for a chunk after taking it off the channel, so an empty channel
/// alone does not mean the chunk is stamped; a second message drained
/// after it does.
struct StalledClientTier {
    clock: VirtualClock,
}

/// Events per healthy-connection burst in the stalled-client test.
const BURST: i64 = 20;

impl FanIn for StalledClientTier {
    fn run(self, tx: Sender<ConnMessage>) -> Result<(), String> {
        let send = |m: ConnMessage| tx.send(m).map_err(|_| "receiver gone".to_string());
        let event = |entity: u64, t: i64| ConnMessage::Event {
            conn: entity % 2,
            event: StreamEvent::new(
                [Side::Left, Side::Right][entity as usize % 2],
                EntityId(entity),
                LatLng::from_degrees(10.0, 20.0),
                Timestamp(t),
            ),
        };
        let drain = || {
            while !tx.is_empty() {
                std::thread::yield_now();
            }
        };
        send(ConnMessage::Join { conn: 0 })?;
        send(ConnMessage::Join { conn: 1 })?;
        for t in 0..BURST {
            send(event(0, 100 + t))?;
            send(event(1, 100 + t))?;
        }
        drain();
        send(event(0, 100 + BURST))?;
        drain();
        // Connection 1 freezes; virtual time jumps past the idle timeout
        // before connection 0's next burst, whose first chunk evicts it.
        self.clock.advance_ms(5_000);
        for t in 0..BURST {
            send(event(0, 10_000 + t))?;
        }
        drain();
        // The frozen client revives with an event from before the
        // resumed frontier, then catches up.
        send(event(1, 120))?;
        send(event(1, 10_000 + BURST))?;
        for conn in [1, 0] {
            send(ConnMessage::Leave {
                conn,
                malformed_lines: 0,
            })?;
        }
        Ok(())
    }
}

/// `StalledClientTier` through a watermark drive with this idle timeout:
/// its report and the engine's stats, every event the tier sent
/// delivered or counted late.
fn stalled_drive(idle_timeout_secs: u64) -> (IngestReport, StreamStats) {
    let clock = VirtualClock::new();
    let mut engine = StreamEngine::new(two_by_two()).unwrap();
    engine.set_telemetry_clock(Arc::new(clock.clone()));
    let opts = DriveOptions {
        tick_policy: TickPolicy::Watermark { max_lag_secs: 10 },
        idle_timeout_secs,
        ..DriveOptions::default()
    };
    let report = engine
        .drive_fan_in(StalledClientTier { clock }, &opts)
        .unwrap();
    assert_eq!(report.connections, 2);
    assert_eq!(
        report.events_delivered + report.late_events,
        3 * BURST as u64 + 3
    );
    (report, *engine.stats())
}

/// With an idle timeout, a frozen client is evicted, the frontier resumes
/// without it, and its revived pre-frontier event is counted late, never
/// lost silently.
#[test]
fn idle_timeout_unfreezes_the_frontier_and_counts_revived_late_events() {
    let (report, stats) = stalled_drive(1);
    assert_eq!(report.idle_evictions, 1, "the frozen client was evicted");
    assert_eq!(report.late_events, 1, "the revived event is late");
    assert_eq!((stats.idle_evictions, stats.late_events), (1, 1));
    assert!(report.policy_ticks > 0, "the frontier sealed windows alone");
}

/// Without an idle timeout the frontier waits for the stalled client, and
/// nothing it sends is late.
#[test]
fn zero_idle_timeout_waits_for_the_stalled_client() {
    let (report, stats) = stalled_drive(0);
    assert_eq!(report.idle_evictions, 0);
    assert_eq!(report.late_events, 0, "the frontier waited; nothing late");
    assert_eq!((stats.idle_evictions, stats.late_events), (0, 0));
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

/// One script through either drive entry, the report's thread-timing
/// observations zeroed.
fn drive_once(
    steps: &[ScriptStep],
    as_tier: bool,
    opts: &DriveOptions,
) -> (IngestReport, StreamStats) {
    let mut engine = StreamEngine::new(two_by_two()).unwrap();
    let mut report = match as_tier {
        true => engine.drive_fan_in(
            ScriptedConnections::single_stage(vec![steps.to_vec()]),
            opts,
        ),
        false => engine.drive(ScriptedSource::new(steps.to_vec()), opts),
    }
    .unwrap();
    (report.blocked_producer_ns, report.queue_high_watermark) = (0, 0);
    report.updates.extend(engine.refresh());
    (report, *engine.stats())
}

/// A single source is the one-connection tier: the same script through
/// `drive` and `drive_fan_in` gives the same report and stats under every
/// tick policy, at lag 0 — where each displaced arrival is late — and at
/// a lag covering the disorder. The script is one connection's delivery
/// of a staged tier: every stage's jittered scripts in turn, with their
/// stalls (deaths dropped: after one, a source's script ends). Only a
/// source reports its polls.
#[test]
fn a_single_source_is_the_one_connection_tier() {
    for seed in 0..CASES {
        let (stages, connections) = tier_shape(seed);
        let tier = canonical(seed).fan_in(stages, connections, seed);
        let steps: Vec<ScriptStep> = tier
            .into_iter()
            .flatten()
            .flatten()
            .filter(|s| !matches!(s, ScriptStep::Error(_)))
            .collect();
        let stalls: u64 = steps
            .iter()
            .map(|s| match s {
                ScriptStep::Stall(n) => u64::from(*n),
                _ => 0,
            })
            .sum();
        // At lag 0 the frontier is the newest time seen: an arrival
        // strictly older than it is late.
        let mut newest = i64::MIN;
        let mut displaced = 0;
        for step in &steps {
            if let ScriptStep::Batch(events) = step {
                for ev in events {
                    displaced += u64::from(ev.time.secs() < newest);
                    newest = newest.max(ev.time.secs());
                }
            }
        }
        for policy in [
            TickPolicy::EveryN(23),
            TickPolicy::EventTime {
                interval_secs: 1_800,
            },
            TickPolicy::Watermark { max_lag_secs: 0 },
        ] {
            // Played back to back, a stage's connections can displace an
            // arrival by up to the stage's span.
            for lag in [0, 40_000] {
                let opts = DriveOptions {
                    max_lag_secs: lag,
                    ..options(policy)
                };
                let (mut source, source_stats) = drive_once(&steps, false, &opts);
                let (tier, tier_stats) = drive_once(&steps, true, &opts);
                let tag = format!("seed {seed}, {policy:?} at lag {lag}");
                assert_eq!(
                    source.late_events,
                    if lag == 0 { displaced } else { 0 },
                    "{tag}"
                );
                assert_eq!(source.source_stalls, stalls, "{tag}");
                (source.source_batches, source.source_stalls) = (0, 0);
                assert_eq!(source, tier, "{tag}: reports");
                assert_eq!(source_stats, tier_stats, "{tag}: stats");
            }
        }
    }
}
