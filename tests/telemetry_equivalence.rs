//! Telemetry-transparency property: the engine's observable output —
//! the link-update stream, the served links, `StreamStats`, and the
//! finalized links — must be **bit-identical** with telemetry
//! disabled, enabled, and at any snapshot cadence, across worker
//! counts. Recording spans and emitting snapshots may observe the
//! engine; they may never perturb scheduling-visible results. A second
//! test pins exact reproducibility of the histograms themselves under
//! a `VirtualClock`: the recorded values are pure functions of the
//! clock readings, so telemetry is testable with zero sleeps.

use std::sync::Arc;

use proptest::prelude::*;

use slim::core::{EntityId, Timestamp};
use slim::geo::LatLng;
use slim::stream::testing::{ScriptStep, ScriptedSource, VirtualClock};
use slim::stream::{
    DriveOptions, LinkUpdate, Side, StreamConfig, StreamEngine, StreamEvent, StreamStats,
    TickPolicy,
};
use slim::telemetry::{Snapshot, VecSink};

/// Raw tuples → a canonical in-order event stream. Entities orbit
/// regional anchors (so some cross-side pairs actually link),
/// timestamps span ~28 temporal windows; `(time, side, entity)` keys
/// are deduplicated so the canonical order is unambiguous.
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

/// Everything observable about one run. `StreamStats` equality already
/// excludes the scheduling telemetry (steal counts, busy spread), so
/// comparing it across worker counts and telemetry modes is exact.
#[derive(Debug, PartialEq)]
struct Observation {
    updates: Vec<LinkUpdate>,
    served: Vec<slim::core::Edge>,
    stats: StreamStats,
    finalized: Vec<(EntityId, EntityId, f64)>,
}

fn config(workers: usize, telemetry: bool) -> StreamConfig {
    StreamConfig {
        window_capacity: Some(8),
        refresh_every: 0, // the drive's tick policy schedules ticks
        num_shards: 3,
        num_workers: workers,
        telemetry,
        slim: slim::core::SlimConfig {
            min_records: 2,
            ..slim::core::SlimConfig::default()
        },
        ..StreamConfig::default()
    }
}

/// One full drive through the ingestion front-end with the given
/// telemetry mode, collecting any emitted snapshots alongside the
/// observable output.
fn run(
    events: &[StreamEvent],
    workers: usize,
    telemetry: bool,
    metrics_every: u64,
) -> (Observation, Vec<Snapshot>) {
    let mut engine = StreamEngine::new(config(workers, telemetry)).expect("valid config");
    let sink = VecSink::new();
    engine.set_metrics_sink(Box::new(sink.clone()));
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
                metrics_every,
                ..DriveOptions::default()
            },
        )
        .expect("drive");
    let mut updates = report.updates;
    updates.extend(engine.refresh());
    let served = engine.links().to_vec();
    let stats = *engine.stats();
    let finalized = engine
        .finalize()
        .expect("finalize")
        .links
        .into_iter()
        .map(|e| (e.left, e.right, e.weight))
        .collect();
    (
        Observation {
            updates,
            served,
            stats,
            finalized,
        },
        sink.collected(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // The house invariant: telemetry off, on, and at two different
    // snapshot cadences — swept over 1, 2, and 4 pool workers — all
    // produce the same update stream, served links, stats, and
    // finalized output as the single-worker telemetry-free reference.
    // Snapshot streams themselves obey the cadence contract: one
    // snapshot per crossed boundary, dense sequence numbers,
    // non-decreasing counters.
    #[test]
    fn output_is_bit_identical_across_telemetry_modes(events in arb_events()) {
        let (reference, _) = run(&events, 1, false, 0);
        for workers in [1usize, 2, 4] {
            for (telemetry, cadence) in [(false, 0u64), (true, 0), (true, 7), (true, 23)] {
                let (obs, snaps) = run(&events, workers, telemetry, cadence);
                prop_assert!(
                    obs == reference,
                    "diverged at workers={} telemetry={} cadence={}",
                    workers,
                    telemetry,
                    cadence
                );
                if let Some(expected) = reference.stats.events.checked_div(cadence) {
                    prop_assert_eq!(snaps.len() as u64, expected);
                    let mut prev = 0u64;
                    for (i, snap) in snaps.iter().enumerate() {
                        prop_assert_eq!(snap.seq, i as u64);
                        let seen = snap.counter("events").expect("events counter");
                        prop_assert!(seen >= prev, "counters never decrease");
                        prev = seen;
                    }
                } else {
                    prop_assert!(snaps.is_empty(), "no cadence, no periodic snapshots");
                }
            }
        }
    }
}

/// A deterministic linkable workload for the clock test: co-located
/// left/right pairs over `windows` temporal windows.
fn fixed_workload(windows: i64) -> Vec<StreamEvent> {
    let mut events = Vec::new();
    for k in 0..windows {
        for e in 0..4u64 {
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

/// Under a constant `VirtualClock`, the phase-span and event-latency
/// histograms are exact: every span and latency is zero, the counts
/// are pure functions of the workload, and two identical runs produce
/// bit-identical histograms — no tolerance, no sleeps.
#[test]
fn histograms_reproduce_exactly_under_virtual_clock() {
    let events = fixed_workload(12);
    let run_once = || {
        let mut engine = StreamEngine::new(config(2, true)).expect("valid config");
        engine.set_telemetry_clock(Arc::new(VirtualClock::new()));
        let steps: Vec<ScriptStep> = events
            .chunks(17)
            .map(|c| ScriptStep::Batch(c.to_vec()))
            .collect();
        engine
            .drive(
                ScriptedSource::new(steps),
                &DriveOptions {
                    tick_policy: TickPolicy::EveryN(23),
                    ..DriveOptions::default()
                },
            )
            .expect("drive");
        engine.refresh();
        (
            engine.phase_histograms(),
            engine.event_latency_histogram(),
            engine.stats().ticks,
        )
    };
    let (phases, latency, ticks) = run_once();
    assert_eq!(
        (phases.clone(), latency.clone(), ticks),
        run_once(),
        "identical runs must produce bit-identical histograms"
    );
    // Constant virtual time: every event was admitted and served at
    // the same instant, every span is exactly zero.
    assert_eq!(latency.count(), events.len() as u64);
    assert_eq!((latency.sum(), latency.max()), (0, 0));
    for (name, h) in &phases {
        assert_eq!((h.sum(), h.max()), (0, 0), "nonzero span in {name}");
    }
    let tick = phases
        .iter()
        .find(|(name, _)| *name == "tick")
        .expect("tick histogram");
    assert_eq!(tick.1.count(), ticks, "one tick span per refresh tick");
    assert!(ticks > 0, "workload must tick");
}
