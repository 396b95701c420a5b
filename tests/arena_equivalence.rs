//! The engine's windowed state against **recomputation**: every direct
//! run [`Case::check`] makes goes through a `RecomputeOracle`, which
//! after every tick rebuilds the live event slice through the batch path
//! and compares it with what the engine maintained incrementally —
//! every entity's bins, parked or active, df statistics, the active
//! entity set, LSH rings and bucket partitions, and the cached per-pair
//! contributions and edge scores. On top of that, everything observable
//! must be bit-identical for every shard and worker count.
//!
//! The properties also assert that, summed over their cases, the runs
//! were not vacuous: windows were evicted, entities expired away and
//! came back, the min-records filter demoted and re-activated, events
//! arrived too late, arenas compacted, and lazily refreshed
//! contributions were actually carried across ticks.

use slim::core::{PairingMode, SlimConfig};
use slim::stream::testing::{Case, Chunks, Delivery, OracleCoverage, Variation};

/// Cases each property checks.
const CASES: u64 = 12;

/// What every brute-force property must have exercised.
const CHURN: [&str; 10] = [
    "oracle ticks",
    "parked entities checked",
    "entities removed",
    "entities re-activated",
    "contributions equal to recomputation",
    "contributions carried across a tick",
    "windows evicted",
    "entities demoted",
    "events dropped late",
    "arena compactions",
];

/// `shards` × `workers`, the whole stream in one call (cut at every tick
/// by the oracle).
fn split((shards, workers): (usize, usize)) -> Variation {
    Variation {
        shards,
        workers,
        delivery: Delivery::Direct(Chunks::Whole),
        ..Variation::reference()
    }
}

/// Brute-force candidates, sliding window (arena eviction, parking and
/// demotion in play), mid-stream ticks, at every shard × worker count
/// of {1, 2, 4, 7} × {1, 2, 4}: shard counts that split linked pairs
/// across shard boundaries, worker counts that dispatch rescore chunks
/// through the stealing pool, and the 1 × 1 reference run again.
#[test]
fn arena_is_bit_identical_to_recomputation() {
    let mut topologies = Vec::new();
    for shards in [1, 2, 4, 7] {
        for workers in [1, 2, 4] {
            topologies.push(split((shards, workers)));
        }
    }
    let mut cover = OracleCoverage::default();
    for seed in 0..CASES {
        let mut case = Case::sample_where(seed, |c| c.events.len() <= 300);
        (case.cfg.lsh, case.cfg.window_capacity) = (None, Some(8));
        let checked = case.check(&topologies);
        cover.add(&checked.unwrap_or_else(|e| panic!("seed {seed}: {e}")));
    }
    cover.assert_exercised(&CHURN);
}

/// LSH candidate discovery over the same churn: ring signatures, bucket
/// partition upserts and candidate retirement decide which pairs are
/// cached at all; whatever is cached is held to recomputation.
#[test]
fn arena_matches_recomputation_under_lsh() {
    let topologies = [(2, 1), (4, 2), (7, 4)].map(split);
    let mut cover = OracleCoverage::default();
    for seed in 0..CASES {
        let checked = Case::sample_where(seed, |c| c.events.len() <= 300)
            .under_lsh()
            .check(&topologies);
        cover.add(&checked.unwrap_or_else(|e| panic!("seed {seed}: {e}")));
    }
    cover.assert_exercised(&[&CHURN[..], &["rings checked"]].concat());
}

/// The Fig. 10 kernel variants — all pairs, no alibi pass, no idf — each
/// held to recomputation at shard and worker counts that split pairs and
/// dispatch rescore chunks.
#[test]
fn kernel_variants_match_recomputation() {
    let mut cover = OracleCoverage::default();
    for seed in 0..CASES {
        let mut case = Case::sample_where(seed, |c| c.events.len() <= 300);
        (case.cfg.lsh, case.cfg.window_capacity) = (None, Some(8));
        let base = case.cfg.slim;
        for slim in [
            SlimConfig {
                pairing: PairingMode::AllPairs,
                ..base
            },
            SlimConfig {
                use_mfn: false,
                ..base
            },
            SlimConfig {
                use_idf: false,
                ..base
            },
        ] {
            case.cfg.slim = slim;
            let split = |shards, workers| Variation {
                shards,
                workers,
                delivery: Delivery::Direct(Chunks::One),
                ..Variation::reference()
            };
            let checked = case.check(&[split(2, 2), split(4, 4)]);
            cover.add(&checked.unwrap_or_else(|e| panic!("seed {seed}, {slim:?}: {e}")));
        }
    }
    cover.assert_exercised(&[
        "oracle ticks",
        "contributions equal to recomputation",
        "contributions carried across a tick",
    ]);
}
