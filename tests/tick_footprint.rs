//! A tick's work follows the update's footprint, not the size of the
//! maintained state — the contract of dynamic query evaluation under
//! updates (Berkholz et al.), stated here in the engine's own counters
//! with no clock in it. A populated engine (six sweep-scale ticks over
//! the sparse check-in replay, where nearly every cached pair is dirty)
//! then receives twenty bursts touching four linked entities. Each
//! localized tick may visit only the pairs adjacent to those entities,
//! patch only their edges, re-match only the components they touch and
//! refit the stop threshold warm: every one of those counters must move,
//! and stay under a tenth of what a sweep of the pair cache or of the
//! edge set would have cost. The counters are deterministic, so every
//! shard/worker topology must report the same ones.

mod common;

use std::collections::HashSet;

use slim::core::Edge;
use slim::geo::LatLng;
use slim::stream::{Side, StreamEngine, StreamEvent, StreamStats};

const SWEEP_TICKS: usize = 6;
const LOCALIZED_ROUNDS: u64 = 20;
const BURST_ENTITIES: usize = 4;

/// What one replay observed: the whole-replay counters and served links,
/// and the localized rounds' share of the footprint counters beside what
/// sweeping would have cost over the same rounds.
#[derive(Debug, PartialEq)]
struct Footprint {
    stats: StreamStats,
    links: Vec<Edge>,
    /// Pairs visited / edges patched / edges re-matched by the localized
    /// ticks.
    visited: u64,
    patched: u64,
    region: u64,
    /// Σ over the localized ticks of the cached-pair total and of the
    /// live-edge total: one sweep of each per tick.
    cached_pairs: u64,
    live_edges: u64,
    /// Localized ticks whose threshold fit ran warm.
    warm_fits: u64,
}

fn replay(events: &[StreamEvent], topology: usize) -> Footprint {
    let mut engine = StreamEngine::new(common::sm_config(topology)).expect("valid config");
    for chunk in events.chunks(events.len().div_ceil(SWEEP_TICKS)) {
        engine.ingest_batch(chunk);
        engine.refresh();
    }
    assert_eq!(engine.stats().ticks, SWEEP_TICKS as u64);

    // Burst over entities that carry links, so each localized tick has
    // real edges to patch; re-stamped at the newest time seen, so the
    // watermark stays put and no expiry rides along.
    let linked: HashSet<_> = engine.links().iter().map(|e| e.left).collect();
    let newest = events.last().expect("non-empty replay").time;
    let mut seen = HashSet::new();
    let burst: Vec<StreamEvent> = events
        .iter()
        .rev()
        .filter(|ev| ev.side == Side::Left && linked.contains(&ev.entity) && seen.insert(ev.entity))
        .take(BURST_ENTITIES)
        .map(|ev| StreamEvent {
            time: newest,
            ..*ev
        })
        .collect();
    assert_eq!(
        burst.len(),
        BURST_ENTITIES,
        "the sweep replay must serve links"
    );

    let before = *engine.stats();
    let (mut live_edges, mut warm_fits) = (0, 0);
    for round in 1..=LOCALIZED_ROUNDS {
        for ev in &burst {
            // Nudged every round, so the rescored contributions — and
            // with them the cached edge scores — genuinely change.
            let location = LatLng::from_degrees(
                ev.location.lat_deg() + 0.0004 * round as f64,
                ev.location.lng_deg(),
            );
            engine.ingest(&StreamEvent { location, ..*ev });
        }
        live_edges += engine.num_live_edges() as u64;
        let warm_before = engine.stats().em_warm_iters;
        engine.refresh();
        warm_fits += u64::from(engine.stats().em_warm_iters > warm_before);
    }
    let stats = *engine.stats();
    Footprint {
        stats,
        links: engine.links().to_vec(),
        visited: stats.dirty_pairs_visited - before.dirty_pairs_visited,
        patched: stats.edges_patched - before.edges_patched,
        region: stats.matching_region_size - before.matching_region_size,
        cached_pairs: stats.cached_pairs_at_ticks - before.cached_pairs_at_ticks,
        live_edges,
        warm_fits,
    }
}

#[test]
fn localized_ticks_pay_for_the_update_not_for_the_state() {
    let events = common::sm_replay();
    let f = replay(&events, 1);
    assert!(
        0 < f.visited && f.visited < f.cached_pairs / 10,
        "localized ticks visited {} pairs where sweeping the cache visits {}",
        f.visited,
        f.cached_pairs
    );
    assert!(
        0 < f.patched && f.patched < f.cached_pairs / 10,
        "localized ticks patched {} edges against a {}-pair cache sweep",
        f.patched,
        f.cached_pairs
    );
    assert!(
        0 < f.region && f.region < f.live_edges / 10,
        "localized ticks re-matched {} edges where re-matching everything takes {}",
        f.region,
        f.live_edges
    );
    assert_eq!(
        f.warm_fits, LOCALIZED_ROUNDS,
        "every localized tick must refit the threshold warm"
    );
    // Over the whole replay, sweep ticks included, a tick never visits
    // more than the cache holds.
    assert!(f.stats.dirty_pairs_visited <= f.stats.cached_pairs_at_ticks);

    for topology in [2, 4] {
        assert_eq!(
            replay(&events, topology),
            f,
            "{topology} shards × {topology} workers"
        );
    }
}
