//! The ingestion front-end: any bounded-disorder delivery schedule of a
//! [`ScriptedSource`](slim::stream::testing::ScriptedSource) — uneven
//! batches, stalls, arrivals displaced by less than the lag — through
//! `StreamEngine::drive` is bit-identical to the direct canonical replay,
//! and the watermark tick policy buffers the same schedules without loss.

use slim::stream::testing::{Case, Delivery, OracleCoverage, Variation};

/// Cases each property checks.
const CASES: u64 = 10;

/// A canonical brute-force case: the order a drive's reorder buffer
/// restores.
fn canonical(seed: u64) -> Case {
    let mut case = Case::sample_where(seed, |c| c.canonical && c.events.len() <= 300);
    case.cfg.lsh = None;
    case
}

/// `case`'s stream through a scripted source drawn from `seed`.
fn sourced(seed: u64, shards: usize, watermark: bool) -> Variation {
    Variation {
        shards,
        delivery: Delivery::Source { seed },
        watermark,
        ..Variation::reference()
    }
}

/// Update stream, epochs, served links, stats and finalized output, for 1
/// and 4 shards.
#[test]
fn any_delivery_schedule_matches_direct_replay() {
    for seed in 0..CASES {
        let schedules = [sourced(seed, 1, false), sourced(!seed, 4, false)];
        canonical(seed)
            .check(&schedules)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

/// The finalized output (the exact batch pipeline over the delivered
/// events) is bit-identical to the direct replay's, and each epoch is a
/// replay of its event prefix: tick positions may differ, results may
/// not.
#[test]
fn watermark_policy_preserves_finalized_output() {
    let mut cover = OracleCoverage::default();
    for seed in 0..CASES {
        let checked = canonical(seed).check(&[sourced(seed, 1, true)]);
        cover.add(&checked.unwrap_or_else(|e| panic!("seed {seed}: {e}")));
    }
    cover.assert_exercised(&["watermark ticks"]);
}
