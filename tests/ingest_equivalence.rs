//! Ingestion-front-end equivalence: driving the engine from a
//! [`slim::stream::StreamSource`] — through the bounded channel, the
//! producer thread, and the watermark reorder buffer — must be
//! **observationally identical** to the direct replay path for *any*
//! delivery schedule whose event-time disorder stays within the
//! configured lag: arbitrary batch sizes, stalls, and bounded
//! out-of-order arrival, across shard counts. This is the acceptance
//! contract of the async front-end: transport may move events between
//! threads and moments, never change results.

use proptest::prelude::*;

use slim::core::{EntityId, Timestamp};
use slim::geo::LatLng;
use slim::stream::testing::{ScriptStep, ScriptedSource};
use slim::stream::{
    DriveOptions, LinkUpdate, Side, StreamConfig, StreamEngine, StreamEvent, TickPolicy,
};

/// Out-of-order tolerance used by every schedule below; delivery jitter
/// is drawn strictly within it so nothing is ever late.
const LAG_SECS: i64 = 2_000;

struct Case {
    /// Canonical `(time, side, entity)`-sorted event stream.
    canonical: Vec<StreamEvent>,
    /// A delivery schedule of the same events: bounded-jitter reorder,
    /// arbitrary batch sizes, interleaved stalls.
    steps: Vec<ScriptStep>,
}

impl std::fmt::Debug for Case {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Case")
            .field("events", &self.canonical.len())
            .field("steps", &self.steps.len())
            .finish()
    }
}

/// Raw tuples → a canonical stream plus one randomized delivery
/// schedule. Entities orbit regional anchors (so some cross-side pairs
/// link), timestamps span ~33 temporal windows; `(time, side, entity)`
/// keys are deduplicated so the canonical order is unambiguous.
fn arb_case() -> impl Strategy<Value = Case> {
    prop::collection::vec(
        (
            0u8..2,         // side
            0u64..10,       // entity
            0.0f64..0.01,   // position jitter
            0i64..30_000,   // timestamp
            0i64..LAG_SECS, // delivery jitter (strictly < lag)
            0u8..=255,      // batch/stall selector
        ),
        40..250,
    )
    .prop_map(|raw| {
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

        // Delivery order: displace each event forward by its jitter;
        // with jitter < lag nothing can arrive below the watermark.
        let mut delivery: Vec<(StreamEvent, i64, u8, usize)> = canonical
            .iter()
            .enumerate()
            .map(|(i, (ev, dj, mix))| (*ev, *dj, *mix, i))
            .collect();
        delivery.sort_by_key(|(ev, dj, _, i)| (ev.time.secs() + dj, *i));

        // Batches of 1..=16 with stalls sprinkled between them.
        let mut steps = Vec::new();
        let mut cursor = 0;
        while cursor < delivery.len() {
            let mix = delivery[cursor].2;
            let len = 1 + (mix % 16) as usize;
            let end = (cursor + len).min(delivery.len());
            steps.push(ScriptStep::Batch(
                delivery[cursor..end].iter().map(|(ev, ..)| *ev).collect(),
            ));
            if mix.is_multiple_of(5) {
                steps.push(ScriptStep::Stall(1 + (mix % 3) as u32));
            }
            cursor = end;
        }
        Case {
            canonical: canonical.into_iter().map(|(ev, ..)| ev).collect(),
            steps,
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

fn config(shards: usize, refresh_every: usize) -> StreamConfig {
    StreamConfig {
        window_capacity: Some(8),
        refresh_every,
        num_shards: shards,
        slim: slim::core::SlimConfig {
            min_records: 2,
            ..slim::core::SlimConfig::default()
        },
        ..StreamConfig::default()
    }
}

/// The direct replay path: caller pushes canonical-order batches, the
/// engine's internal counter ticks every 23 events.
fn run_direct(canonical: &[StreamEvent]) -> Observation {
    let mut engine = StreamEngine::new(config(1, 23)).expect("valid config");
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

/// The front-end path: the engine drains a scripted source through the
/// bounded channel and reorder buffer.
fn run_fronted(steps: Vec<ScriptStep>, shards: usize, policy: TickPolicy) -> Observation {
    let mut engine = StreamEngine::new(config(shards, 0)).expect("valid config");
    let report = engine
        .drive(
            ScriptedSource::new(steps),
            &DriveOptions {
                // Small enough that real backpressure occurs mid-run.
                queue_cap: 7,
                source_batch: 13,
                tick_policy: policy,
                max_lag_secs: LAG_SECS,
                ..DriveOptions::default()
            },
        )
        .expect("drive");
    assert_eq!(
        report.late_events, 0,
        "schedules are generated within the lag bound"
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

    // Any bounded-disorder delivery schedule through the front-end is
    // bit-identical to the direct canonical replay — update stream,
    // served links, and finalized output — for 1 and 4 shards.
    #[test]
    fn any_delivery_schedule_matches_direct_replay(case in arb_case()) {
        let reference = run_direct(&case.canonical);
        for shards in [1usize, 4] {
            let fronted = run_fronted(
                case.steps.clone(),
                shards,
                TickPolicy::EveryN(23),
            );
            prop_assert!(
                reference == fronted,
                "{shards}-shard front-end diverged from direct replay:\n{reference:#?}\nvs\n{fronted:#?}"
            );
        }
    }

    // The watermark tick policy buffers the same schedules without
    // loss: nothing late, and the finalized output (the exact batch
    // pipeline over the delivered events) is bit-identical to the
    // direct replay's — tick *positions* may differ, results may not.
    #[test]
    fn watermark_policy_preserves_finalized_output(case in arb_case()) {
        let reference = run_direct(&case.canonical);
        let wm = run_fronted(
            case.steps.clone(),
            1,
            TickPolicy::Watermark { max_lag_secs: LAG_SECS },
        );
        prop_assert_eq!(&reference.finalized, &wm.finalized);
    }
}
