//! Telemetry observes and never steers: with it off, on, or on at a
//! snapshot cadence, across worker counts, a drive's update stream,
//! epochs, served links, stats and finalized output are the
//! telemetry-free reference's, and its snapshots obey their cadence.
//! Under a virtual clock the histograms themselves reproduce exactly.

use std::sync::Arc;

use slim::stream::testing::{script, Case, Delivery, OracleCoverage, Variation, VirtualClock};
use slim::stream::{DriveOptions, StreamConfig, StreamEngine, TickPolicy};

/// Workers {1, 2, 4} × telemetry off, on, and on at cadences 7 and 23:
/// one snapshot per crossed boundary, dense sequence numbers, counters
/// that never decrease, and none without a cadence.
#[test]
fn output_is_bit_identical_across_telemetry_modes() {
    let mut cover = OracleCoverage::default();
    for seed in 0..6 {
        let mut case = Case::sample_where(seed, |c| c.canonical && c.events.len() <= 300);
        case.cfg.lsh = None;
        let mut modes = Vec::new();
        for workers in [1, 2, 4] {
            for telemetry in [None, Some(0), Some(7), Some(23)] {
                modes.push(Variation {
                    workers,
                    delivery: Delivery::Source { seed },
                    telemetry,
                    ..Variation::reference()
                });
            }
        }
        let checked = case.check(&modes);
        cover.add(&checked.unwrap_or_else(|e| panic!("seed {seed}: {e}")));
    }
    cover.assert_exercised(&["telemetry snapshots"]);
}

/// Under a constant `VirtualClock` the phase-span and event-latency
/// histograms are exact: every span and latency is zero, the counts are
/// functions of the workload, and two runs agree bit for bit.
#[test]
fn histograms_reproduce_exactly_under_virtual_clock() {
    let case = Case::fixed(12);
    let run_once = || {
        let mut engine = StreamEngine::new(StreamConfig {
            num_shards: 3,
            num_workers: 2,
            ..case.cfg
        })
        .unwrap();
        engine.set_telemetry_clock(Arc::new(VirtualClock::new()));
        let opts = DriveOptions {
            queue_cap: 32,
            source_batch: 13,
            tick_policy: TickPolicy::EveryN(23),
            ..DriveOptions::default()
        };
        engine
            .drive(script(case.events.clone(), 17), &opts)
            .unwrap();
        engine.refresh();
        let ticks = engine.stats().ticks;
        (
            engine.phase_histograms(),
            engine.event_latency_histogram(),
            ticks,
        )
    };
    let (phases, latency, ticks) = run_once();
    assert_eq!((phases.clone(), latency.clone(), ticks), run_once());
    assert_eq!(latency.count(), case.events.len() as u64);
    assert_eq!((latency.sum(), latency.max()), (0, 0));
    for (name, h) in &phases {
        assert_eq!((h.sum(), h.max()), (0, 0), "nonzero span in {name}");
    }
    let tick = phases.iter().find(|(name, _)| *name == "tick").unwrap();
    assert!(
        ticks > 0 && tick.1.count() == ticks,
        "one tick span per tick"
    );
}
