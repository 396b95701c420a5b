//! Multi-connection fan-in equivalence: N scripted connections with
//! interleaved schedules — uneven rates, stalls, staged joins and
//! leaves, mid-stream deaths — driven through the MPSC channel and the
//! [`slim::stream::ConnectionFrontier`] merge must be **bit-identical**
//! to a single merged replay of the same events, across shard and
//! worker counts. The fan-in tier may move events between connections,
//! threads, and moments; it may never change results.
//!
//! The schedules are generated so that no arrival is ever late: each
//! connection's own disorder stays within the lag bound (an event can
//! only be late if *its own* connection broke that bound — the merged
//! frontier is a minimum over live connections, so it is never ahead of
//! any one of them), and stages are time-contiguous so a later joiner's
//! events sit at or above the frontier its predecessors left behind.
//!
//! The stalled-connection test at the bottom is the deliberate
//! exception: a frozen client plus an idle timeout *manufactures*
//! lateness, and the contract is that the frontier resumes without it
//! and its revived events are counted late — never lost silently.

use proptest::prelude::*;

use slim::core::{EntityId, Timestamp};
use slim::geo::LatLng;
use slim::stream::source::channel::Sender;
use slim::stream::testing::{ScriptStep, ScriptedConnections, ScriptedSource, VirtualClock};
use slim::stream::{
    ConnMessage, DriveOptions, FanIn, IngestReport, LinkUpdate, Side, StreamConfig, StreamEngine,
    StreamEvent, StreamStats, TickPolicy,
};

/// Out-of-order tolerance of every schedule below; per-connection
/// delivery jitter is drawn strictly within it so nothing is late.
const LAG_SECS: i64 = 2_000;

struct Case {
    /// Canonical `(time, side, entity)`-sorted event stream — what the
    /// single merged replay ingests.
    canonical: Vec<StreamEvent>,
    /// The same events as a staged multi-connection schedule:
    /// `stages[s][c]` is stage `s`'s connection `c`.
    stages: Vec<Vec<Vec<ScriptStep>>>,
    connections: u64,
}

impl std::fmt::Debug for Case {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Case")
            .field("events", &self.canonical.len())
            .field("stages", &self.stages.len())
            .field("connections", &self.connections)
            .finish()
    }
}

/// Raw tuples → a canonical stream plus one staged multi-connection
/// schedule. Entities orbit regional anchors (so some cross-side pairs
/// link); `(time, side, entity)` keys are deduplicated so the canonical
/// order is unambiguous. The canonical stream is cut into 1–3
/// time-contiguous stages (connection churn: each stage's connections
/// join after the previous stage's have all left); within a stage,
/// events are dealt to 1–4 connections, each delivering its slice with
/// bounded jitter, uneven batch sizes, stalls, and — for some — a
/// scripted death *after* its last event (the lossless death path).
fn arb_case() -> impl Strategy<Value = Case> {
    (
        prop::collection::vec(
            (
                0u8..2,         // side
                0u64..10,       // entity
                0.0f64..0.01,   // position jitter
                0i64..30_000,   // timestamp
                0i64..LAG_SECS, // per-connection delivery jitter
                0u8..=255,      // connection / batch / stall selector
            ),
            60..250,
        ),
        1usize..=3, // stages
        1usize..=4, // connections per stage
    )
        .prop_map(|(raw, num_stages, conns_per_stage)| {
            let mut canonical: Vec<(StreamEvent, i64, u8)> = raw
                .into_iter()
                .map(|(side, entity, jitter, t, dj, mix)| {
                    let side = if side == 0 { Side::Left } else { Side::Right };
                    let region = (entity % 3) as f64;
                    let lat = -20.0 + 18.0 * region + jitter;
                    let lng = -100.0 + 40.0 * region + 100.0 * jitter;
                    (
                        StreamEvent::new(
                            side,
                            EntityId(entity),
                            LatLng::from_degrees(lat, lng),
                            Timestamp(t),
                        ),
                        dj,
                        mix,
                    )
                })
                .collect();
            canonical.sort_by_key(|(ev, _, _)| (ev.time, ev.side, ev.entity));
            canonical.dedup_by_key(|(ev, _, _)| (ev.time, ev.side, ev.entity));

            // Time-contiguous stages: a later stage's events are all ≥
            // every earlier event, so staged joins can never be late.
            let stage_len = canonical.len().div_ceil(num_stages);
            let mut stages = Vec::new();
            let mut connections = 0u64;
            for stage_events in canonical.chunks(stage_len) {
                // Deal the stage to its connections by the generated
                // selector — uneven rates by construction.
                let mut conns: Vec<Vec<(StreamEvent, i64, u8)>> = vec![Vec::new(); conns_per_stage];
                for (ev, dj, mix) in stage_events {
                    conns[(*mix as usize) % conns_per_stage].push((*ev, *dj, *mix));
                }
                let mut stage: Vec<Vec<ScriptStep>> = Vec::new();
                for mut delivery in conns.into_iter() {
                    // Bounded within-connection disorder: displace each
                    // event forward by its jitter (< lag).
                    delivery.sort_by_key(|(ev, dj, _)| (ev.time.secs() + dj, ev.side, ev.entity));
                    let mut steps = Vec::new();
                    let mut cursor = 0;
                    while cursor < delivery.len() {
                        let mix = delivery[cursor].2;
                        let len = 1 + (mix % 8) as usize;
                        let end = (cursor + len).min(delivery.len());
                        steps.push(ScriptStep::Batch(
                            delivery[cursor..end].iter().map(|(ev, ..)| *ev).collect(),
                        ));
                        if mix.is_multiple_of(5) {
                            steps.push(ScriptStep::Stall(1 + (mix % 3) as u32));
                        }
                        cursor = end;
                    }
                    // Some connections die instead of leaving cleanly —
                    // after their last event, so the multiset is intact.
                    if delivery.last().is_some_and(|(_, _, mix)| mix % 7 == 0) {
                        steps.push(ScriptStep::Error("scripted death".into()));
                    }
                    connections += 1;
                    stage.push(steps);
                }
                stages.push(stage);
            }
            Case {
                canonical: canonical.into_iter().map(|(ev, ..)| ev).collect(),
                stages,
                connections,
            }
        })
}

/// Everything observable about one run.
#[derive(Debug, PartialEq)]
struct Observation {
    updates: Vec<LinkUpdate>,
    served: Vec<slim::core::Edge>,
    finalized: Vec<(EntityId, EntityId, f64)>,
}

fn config(shards: usize, workers: usize, refresh_every: usize) -> StreamConfig {
    StreamConfig {
        window_capacity: Some(8),
        refresh_every,
        num_shards: shards,
        num_workers: workers,
        slim: slim::core::SlimConfig {
            min_records: 2,
            ..slim::core::SlimConfig::default()
        },
        ..StreamConfig::default()
    }
}

/// The single merged replay: caller pushes canonical-order batches, the
/// engine's internal counter ticks every 23 events.
fn run_merged(canonical: &[StreamEvent]) -> Observation {
    let mut engine = StreamEngine::new(config(1, 1, 23)).expect("valid config");
    let mut updates = Vec::new();
    for chunk in canonical.chunks(37) {
        updates.extend(engine.ingest_batch(chunk));
    }
    updates.extend(engine.refresh());
    let served = engine.links().to_vec();
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
        finalized,
    }
}

/// The fan-in path: the engine drains the staged scripted connections
/// through the MPSC channel and the frontier merge.
fn run_fan_in(case: &Case, shards: usize, workers: usize, policy: TickPolicy) -> Observation {
    let mut engine = StreamEngine::new(config(shards, workers, 0)).expect("valid config");
    let report = engine
        .drive_fan_in(
            ScriptedConnections::new(case.stages.clone()),
            &DriveOptions {
                // Small enough that real backpressure occurs mid-run.
                queue_cap: 7,
                source_batch: 13,
                tick_policy: policy,
                max_lag_secs: LAG_SECS,
                ..DriveOptions::default()
            },
        )
        .expect("drive_fan_in");
    assert_eq!(
        report.late_events, 0,
        "schedules are generated within the lag bound"
    );
    assert_eq!(report.connections, case.connections);
    assert_eq!(
        report.events_delivered,
        case.canonical.len() as u64,
        "every connection's events must arrive"
    );
    let mut updates = report.updates;
    updates.extend(engine.refresh());
    let served = engine.links().to_vec();
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
        finalized,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    // Any staged multi-connection schedule — churn, stalls, deaths,
    // uneven rates — is bit-identical to the single merged replay:
    // update stream, served links, and finalized output, across shards
    // {1, 4} × workers {1, 2, 4}.
    #[test]
    fn interleaved_connections_match_a_merged_replay(case in arb_case()) {
        let reference = run_merged(&case.canonical);
        for shards in [1usize, 4] {
            for workers in [1usize, 2, 4] {
                let fanned = run_fan_in(&case, shards, workers, TickPolicy::EveryN(23));
                prop_assert!(
                    reference == fanned,
                    "{shards}-shard {workers}-worker fan-in diverged from merged replay:\n\
                     {reference:#?}\nvs\n{fanned:#?}"
                );
            }
        }
    }

    // The watermark tick policy over the merged frontier: tick
    // *positions* follow the (schedule-dependent) frontier progression,
    // the finalized output may not differ.
    #[test]
    fn watermark_over_merged_frontier_preserves_finalized_output(case in arb_case()) {
        let reference = run_merged(&case.canonical);
        let wm = run_fan_in(
            &case,
            1,
            1,
            TickPolicy::Watermark { max_lag_secs: LAG_SECS },
        );
        prop_assert_eq!(&reference.finalized, &wm.finalized);
    }
}

/// One script through either entry of the drive loop. The report's flow
/// observations (`blocked_producer_ns`, `queue_high_watermark`) measure
/// thread interleaving, not the stream — zeroed before comparison
/// (`StreamStats`' equality leaves its own copies out).
fn run_one_script(
    steps: &[ScriptStep],
    as_tier: bool,
    policy: TickPolicy,
    lag: i64,
) -> (IngestReport, StreamStats, Vec<slim::core::Edge>) {
    let mut engine = StreamEngine::new(config(2, 2, 0)).expect("valid config");
    let opts = DriveOptions {
        queue_cap: 7,
        source_batch: 13,
        tick_policy: policy,
        max_lag_secs: lag,
        ..DriveOptions::default()
    };
    let mut report = if as_tier {
        engine.drive_fan_in(
            ScriptedConnections::single_stage(vec![steps.to_vec()]),
            &opts,
        )
    } else {
        engine.drive(ScriptedSource::new(steps.to_vec()), &opts)
    }
    .expect("drive");
    report.blocked_producer_ns = 0;
    report.queue_high_watermark = 0;
    let stats = *engine.stats();
    engine.refresh();
    (report, stats, engine.links().to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    // A single source *is* the one-connection tier: the same script
    // through `drive` and through `drive_fan_in` gives the same report,
    // stats and links under every tick policy — at lag 0, where each
    // displaced arrival is late, and at a lag that covers the disorder.
    // The one field a tier cannot fill in is the source's poll counts:
    // `drive` reports exactly the scripted stalls, a tier reports none.
    #[test]
    fn a_single_source_is_the_one_connection_tier(case in arb_case()) {
        // One connection's delivery: every stage's scripts in turn,
        // i.e. the canonical stream under bounded jitter with stalls
        // (scripted deaths dropped — after one, a source's script ends).
        let steps: Vec<ScriptStep> = case
            .stages
            .iter()
            .flatten()
            .flatten()
            .filter(|s| !matches!(s, ScriptStep::Error(_)))
            .cloned()
            .collect();
        let stalls: u64 = steps
            .iter()
            .map(|s| if let ScriptStep::Stall(n) = s { u64::from(*n) } else { 0 })
            .sum();
        // At lag 0 the frontier is the newest time seen: an arrival
        // strictly older than it is late.
        let mut newest = i64::MIN;
        let mut displaced = 0u64;
        for step in &steps {
            if let ScriptStep::Batch(events) = step {
                for ev in events {
                    displaced += u64::from(ev.time.secs() < newest);
                    newest = newest.max(ev.time.secs());
                }
            }
        }
        // Stages are time-contiguous but a stage's connections overlap,
        // so played back to back the displacement can reach a stage's
        // whole span.
        let covering = 40_000;
        for policy in [
            TickPolicy::EveryN(23),
            TickPolicy::EventTime { interval_secs: 1_800 },
            TickPolicy::Watermark { max_lag_secs: 0 },
        ] {
            for lag in [0, covering] {
                let (mut source, source_stats, source_links) =
                    run_one_script(&steps, false, policy, lag);
                let (tier, tier_stats, tier_links) = run_one_script(&steps, true, policy, lag);
                let tag = format!("{policy:?} at lag {lag}");
                prop_assert!(source.connections == 1, "{}: a source is one connection", tag);
                prop_assert!(
                    source.late_events == if lag == 0 { displaced } else { 0 },
                    "{}: {} late, {} displaced", tag, source.late_events, displaced
                );
                prop_assert!(source.source_stalls == stalls, "{}: scripted stalls", tag);
                source.source_batches = 0;
                source.source_stalls = 0;
                prop_assert!(
                    source == tier,
                    "{}: reports differ:\n{:#?}\nvs\n{:#?}", tag, source, tier
                );
                prop_assert!(
                    source_stats == tier_stats,
                    "{}: stats differ:\n{:#?}\nvs\n{:#?}", tag, source_stats, tier_stats
                );
                prop_assert_eq!(&source_links, &tier_links);
            }
        }
    }
}

/// A fan-in tier scripted against consumer progress: phase boundaries
/// wait for the channel to drain (`Sender::len() == 0`), so the
/// consumer has *processed* everything earlier before the next phase's
/// messages are enqueued — which makes the idle-eviction sequence below
/// deterministic even though it crosses threads.
struct StalledClientTier {
    clock: VirtualClock,
}

/// Events per healthy-connection burst in the stalled-client test.
const BURST: i64 = 20;

impl StalledClientTier {
    fn event(entity: u64, t: i64) -> ConnMessage {
        ConnMessage::Event {
            conn: entity % 2,
            event: StreamEvent::new(
                if entity.is_multiple_of(2) {
                    Side::Left
                } else {
                    Side::Right
                },
                EntityId(entity),
                LatLng::from_degrees(10.0, 20.0),
                Timestamp(t),
            ),
        }
    }

    fn drain(tx: &Sender<ConnMessage>) {
        while !tx.is_empty() {
            std::thread::yield_now();
        }
    }
}

impl FanIn for StalledClientTier {
    fn run(self, tx: Sender<ConnMessage>) -> Result<(), String> {
        let send = |m: ConnMessage| tx.send(m).map_err(|_| "receiver gone".to_string());
        send(ConnMessage::Join { conn: 0 })?;
        send(ConnMessage::Join { conn: 1 })?;
        // Phase 1: both connections deliver; the frontier merges both.
        for t in 0..BURST {
            send(Self::event(0, 100 + t))?;
            send(Self::event(1, 100 + t))?;
        }
        Self::drain(&tx);
        // Phase 2: connection 1 freezes. Virtual time jumps past the
        // idle timeout *before* connection 0's next burst, so the first
        // chunk drained after this line evicts connection 1 — the
        // frontier must resume on connection 0 alone.
        self.clock.advance_ms(5_000);
        for t in 0..BURST {
            send(Self::event(0, 10_000 + t))?;
        }
        Self::drain(&tx);
        // Phase 3: the frozen client revives. Its first event is from
        // before the resumed frontier — late by construction, counted,
        // not lost silently — then it catches up and re-merges.
        send(Self::event(1, 120))?;
        send(Self::event(1, 10_000 + BURST))?;
        send(ConnMessage::Leave {
            conn: 1,
            malformed_lines: 0,
        })?;
        send(ConnMessage::Leave {
            conn: 0,
            malformed_lines: 0,
        })?;
        Ok(())
    }
}

/// The stalled-connection acceptance contract: with `idle_timeout_secs`
/// set, one frozen client does not stall the global frontier — it is
/// evicted (counted), the frontier resumes (later windows seal and
/// tick), and the revived client's pre-frontier event is counted late,
/// never silently dropped.
#[test]
fn idle_timeout_unfreezes_the_frontier_and_counts_revived_late_events() {
    let clock = VirtualClock::new();
    let mut engine = StreamEngine::new(config(2, 2, 0)).expect("valid config");
    engine.set_telemetry_clock(std::sync::Arc::new(clock.clone()));
    let report = engine
        .drive_fan_in(
            StalledClientTier { clock },
            &DriveOptions {
                tick_policy: TickPolicy::Watermark { max_lag_secs: 10 },
                idle_timeout_secs: 1,
                ..DriveOptions::default()
            },
        )
        .expect("drive_fan_in");

    let fed = 2 * BURST as u64 + BURST as u64 + 2;
    assert_eq!(report.connections, 2);
    assert_eq!(report.idle_evictions, 1, "the frozen client was evicted");
    assert_eq!(
        report.late_events, 1,
        "exactly the revived client's pre-frontier event is late"
    );
    assert_eq!(
        report.events_delivered + report.late_events,
        fed,
        "every fed event is accounted for — delivered or counted late"
    );
    assert!(
        report.policy_ticks > 0,
        "the frontier resumed far enough to seal windows without conn 1"
    );
    assert_eq!(engine.stats().idle_evictions, 1);
    assert_eq!(engine.stats().late_events, 1);
}

/// Without an idle timeout the same tier never evicts: the frontier
/// waits for the slow client, and its "late" event is simply buffered
/// disorder — nothing is late, nothing is evicted.
#[test]
fn zero_idle_timeout_waits_for_the_stalled_client() {
    let clock = VirtualClock::new();
    let mut engine = StreamEngine::new(config(2, 2, 0)).expect("valid config");
    engine.set_telemetry_clock(std::sync::Arc::new(clock.clone()));
    let report = engine
        .drive_fan_in(
            StalledClientTier { clock },
            &DriveOptions {
                tick_policy: TickPolicy::Watermark { max_lag_secs: 10 },
                idle_timeout_secs: 0,
                ..DriveOptions::default()
            },
        )
        .expect("drive_fan_in");
    assert_eq!(report.idle_evictions, 0);
    assert_eq!(report.late_events, 0, "the frontier waited; nothing late");
    assert_eq!(report.events_delivered, 2 * BURST as u64 + BURST as u64 + 2);
}
