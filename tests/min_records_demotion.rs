//! Regression coverage for **exact sliding-window min-records
//! semantics** (the former ROADMAP "min-records demotion gap").
//!
//! When sliding-window expiry leaves an entity with `min_records` or
//! fewer live records, the engine demotes it — its bins stop counting
//! toward df statistics, candidates and links — but the bins and the
//! LSH ring stay in the arena, parked, and keep expiring with their
//! windows like any other entity's. An entity *oscillating* around the
//! threshold therefore re-activates as soon as fresh records push its
//! live evidence past the filter again, exactly like a batch run over
//! the live slice would keep it.
//!
//! The first test pins the demote/park/re-activate cycle exactly
//! (counters included); the second asserts the headline equivalence:
//! the oscillating pair links just as the live-slice batch does.

use slim::core::{EntityId, LocationDataset, Record, Slim, SlimConfig, ThresholdMethod, Timestamp};
use slim::geo::LatLng;
use slim::stream::{Side, StreamConfig, StreamEngine, StreamEvent};

const WINDOW_SECS: i64 = 900;
const CAPACITY: u32 = 10;

/// Per-entity anchors: left entity `e` and right entity `1000 + e`
/// share one, distinct anchors are far apart.
fn anchor(key: u64) -> LatLng {
    let k = key as f64;
    LatLng::from_degrees(5.0 + 8.0 * k, -110.0 + 11.0 * k)
}

/// Thresholding is orthogonal to the filter semantics under test (and
/// the GMM would be fitting 3 edges); link every positive matched edge
/// so the comparison isolates the min-records behaviour.
fn slim_config() -> SlimConfig {
    SlimConfig {
        threshold_method: ThresholdMethod::None,
        ..SlimConfig::default()
    }
}

fn event(side: Side, entity: u64, window: i64, offset: i64) -> StreamEvent {
    StreamEvent::new(
        side,
        EntityId(entity),
        anchor(entity % 1000),
        Timestamp(window * WINDOW_SECS + offset),
    )
}

/// The fixture: two *stable* pairs (4 ↔ 1004, 5 ↔ 1005) record in every
/// window 0..=16 and drive the watermark; the *oscillating* pair
/// (1 ↔ 1001) records in windows 0..=8, goes silent, and resumes in
/// 13..=16. With a 10-window capacity and `min_records = 5` (the
/// default), the watermark reaching window 13 leaves the oscillating
/// entities exactly 5 live records (windows 4..=8) — at the threshold,
/// so both are demoted with their 5 live events re-buffered. Each
/// resumed record then tips the buffer over the filter and
/// re-activates them; each subsequent stable-pair-driven expiry drops
/// them back to exactly 5 live records and demotes them again — 4
/// demote/re-activate cycles per entity (watermarks 13..=16), ending
/// active with 6 live records (windows 7..=8, 13..=16).
fn fixture_events() -> Vec<StreamEvent> {
    let mut events = Vec::new();
    for w in 0..=16i64 {
        for (i, e) in [4u64, 5].into_iter().enumerate() {
            events.push(event(Side::Left, e, w, 50 * i as i64));
            events.push(event(Side::Right, 1000 + e, w, 50 * i as i64 + 25));
        }
        if (0..=8).contains(&w) || (13..=16).contains(&w) {
            // Later offsets than the stable pairs, so window 13's
            // expiry (driven by a stable-pair event) demotes the
            // oscillating entities *before* their window-13 records
            // arrive.
            events.push(event(Side::Left, 1, w, 500));
            events.push(event(Side::Right, 1001, w, 525));
        }
    }
    events.sort_by_key(|e| (e.time, e.side, e.entity));
    events
}

/// The batch pipeline over the live slice the engine's window covers at
/// end of stream (windows 7..=16).
fn live_slice_batch() -> slim::core::LinkageOutput {
    let keep_from = 16 + 1 - CAPACITY as i64;
    let (mut left, mut right) = (Vec::new(), Vec::new());
    for ev in fixture_events() {
        if ev.time.secs() / WINDOW_SECS >= keep_from {
            let rec = Record::new(ev.entity, ev.location, ev.time);
            match ev.side {
                Side::Left => left.push(rec),
                Side::Right => right.push(rec),
            }
        }
    }
    Slim::new(slim_config()).unwrap().link(
        &LocationDataset::from_records(left),
        &LocationDataset::from_records(right),
    )
}

fn run_stream() -> StreamEngine {
    let cfg = StreamConfig {
        window_capacity: Some(CAPACITY),
        refresh_every: 0,
        num_shards: 2,
        slim: slim_config(),
        ..StreamConfig::default()
    };
    let mut engine = StreamEngine::new(cfg).unwrap();
    engine.ingest_batch(&fixture_events());
    engine.refresh();
    engine
}

fn has_pair(links: &[slim::core::Edge], left: u64, right: u64) -> bool {
    links
        .iter()
        .any(|e| (e.left, e.right) == (EntityId(left), EntityId(right)))
}

/// The demote/re-buffer/re-activate cycle, pinned exactly: each of the
/// 4 stable-pair-driven expiries (watermarks 13..=16) demotes both
/// oscillating entities at exactly 5 live records, the re-buffered
/// events plus the next resumed record re-activate them, and they end
/// the stream active with their full live-slice history.
#[test]
fn oscillating_entity_rebuffers_and_reactivates() {
    let engine = run_stream();
    let stats = engine.stats();

    // 4 demote cycles × 2 entities, 5 still-live records re-buffered
    // each time — the counters still account every unwind.
    assert_eq!(stats.demoted_entities, 8, "4 cycles × the oscillating pair");
    assert_eq!(stats.demoted_records, 40, "5 re-buffered records per cycle");

    // The re-buffered evidence re-activated them: all three pairs end
    // the stream active, with the oscillating histories intact over
    // the live slice (windows 7..=8, 13..=16 → 6 records).
    assert_eq!(engine.num_active(Side::Left), 3, "oscillating left is back");
    assert_eq!(
        engine.num_active(Side::Right),
        3,
        "oscillating right is back"
    );
    let h = engine
        .history(Side::Left, EntityId(1))
        .expect("re-activated entity keeps its live history");
    assert_eq!(h.num_records(), 6, "windows 7..=8 and 13..=16");
    assert!(engine.history(Side::Right, EntityId(1001)).is_some());

    // Every pair links — served and finalized.
    assert!(has_pair(engine.links(), 4, 1004), "{:?}", engine.links());
    assert!(has_pair(engine.links(), 5, 1005), "{:?}", engine.links());
    assert!(has_pair(engine.links(), 1, 1001), "{:?}", engine.links());
    let finalized = engine.finalize().unwrap();
    assert!(has_pair(&finalized.links, 1, 1001));
}

/// The headline equivalence the re-buffer ring exists for: the
/// oscillating pair links exactly as the batch pipeline over the same
/// live slice does — the live slice holds 6 records per oscillating
/// entity, above the filter, and demotion no longer forgets them.
#[test]
fn oscillating_entity_links_like_live_slice_batch() {
    let engine = run_stream();
    let batch = live_slice_batch();
    assert!(
        has_pair(&batch.links, 1, 1001),
        "live slice must link the oscillating pair: {:?}",
        batch.links
    );
    assert!(
        has_pair(engine.links(), 1, 1001),
        "exact min-records semantics: the live slice holds 6 records \
         for the oscillating pair, above the filter"
    );
    let finalized = engine.finalize().unwrap();
    assert!(has_pair(&finalized.links, 1, 1001));
}
