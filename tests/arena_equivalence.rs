//! The engine's windowed state against **recomputation**: every replay
//! here is driven through [`RecomputeOracle`], which after every chunk
//! rebuilds the live event slice through the batch path and compares it
//! with what the engine maintained incrementally — every entity's bins,
//! parked or active, df statistics, the active entity set, LSH rings and
//! bucket partitions, and at every tick the cached per-pair
//! contributions and edge scores (see the oracle's docs for the exact
//! contract). On top of that, everything observable about
//! a replay — served links, emitted update streams, work counters,
//! scoring statistics, candidate sets, the finalized output — must be
//! bit-identical for every shard count and worker count.
//!
//! The properties also assert that, summed over their cases, the runs
//! were not vacuous: windows were evicted, entities expired away and
//! came back, the min-records filter demoted and re-activated, events
//! arrived too late, arenas compacted, and lazily refreshed
//! contributions were actually carried across ticks.

use std::sync::Mutex;

use proptest::prelude::*;

use slim::core::{EntityId, LinkageStats, PairingMode, SlimConfig, Timestamp};
use slim::geo::LatLng;
use slim::lsh::LshConfig;
use slim::stream::testing::{OracleCoverage, RecomputeOracle};
use slim::stream::{
    LinkUpdate, Side, StreamConfig, StreamEngine, StreamEvent, StreamLshConfig, StreamStats,
};

const CASES: u32 = 12;

/// Raw tuples → events. Entities orbit one of a few regional anchors
/// (so some cross-side pairs genuinely collide and link while others
/// never meet). Event time advances through ~33 windows of 900 s over
/// the stream, each event lagging its slot by up to ~3 windows — so the
/// window slides steadily and arrivals are out of order inside it — and
/// one in ten by up to half the span, which is what arrives too late.
/// One event in five is a region record (one record, several bins: the
/// per-window record counts must stay exact). With ~20 entities and 8
/// live windows, most entities hover around the min-records threshold:
/// demotion, re-activation, eviction to empty, tombstones and arena
/// compaction all happen in a few hundred events.
fn arb_events() -> impl Strategy<Value = Vec<StreamEvent>> {
    let raw = (0u8..2, 0u64..10, 0.0f64..0.01, 0i64..30_000, 0u8..5);
    prop::collection::vec(raw, 40..300).prop_map(|raw| {
        let n = raw.len() as i64;
        raw.into_iter()
            .enumerate()
            .map(|(k, (side, entity, jitter, lag, region_die))| {
                let side = if side == 0 { Side::Left } else { Side::Right };
                let region = (entity % 3) as f64;
                let lat = -20.0 + 18.0 * region + jitter;
                let lng = -100.0 + 40.0 * region + 100.0 * jitter;
                let lag = if lag % 10 == 0 { lag / 2 } else { lag / 10 };
                let t = (k as i64 * 30_000 / n - lag).max(0);
                let mut ev = StreamEvent::new(
                    side,
                    EntityId(entity),
                    LatLng::from_degrees(lat, lng),
                    Timestamp(t),
                );
                if region_die == 0 {
                    ev.accuracy_m = 2_000.0;
                }
                ev
            })
            .collect()
    })
}

/// Everything observable about one replay. `StreamStats` participates
/// directly: its `PartialEq` already excludes the partition- and
/// schedule-dependent counters (`arena_compactions`, steal/busy
/// telemetry), so `==` here means "same results and same *semantic*
/// work", not "same memory layout".
#[derive(Debug, PartialEq)]
struct Observation {
    updates: Vec<LinkUpdate>,
    served: Vec<slim::core::Edge>,
    stats: StreamStats,
    scoring: LinkageStats,
    candidate_pairs: usize,
    finalized: Vec<(EntityId, EntityId, f64)>,
}

/// Every replay of one property, kept so that its last case can look at
/// the sums.
struct Exercised {
    cases: u32,
    replays: Vec<(OracleCoverage, StreamStats)>,
    /// Whether the property runs LSH, so rings were there to check.
    lsh: bool,
}

impl Exercised {
    const fn new(lsh: bool) -> Self {
        Self {
            cases: 0,
            replays: Vec::new(),
            lsh,
        }
    }

    /// Closes one case; after the last one, the sums over every replay
    /// must show that the oracle was looking at each maintenance path.
    fn close_case(&mut self) {
        self.cases += 1;
        if self.cases < CASES {
            return;
        }
        type Replay = (OracleCoverage, StreamStats);
        let sum = |of: fn(&Replay) -> u64| self.replays.iter().map(of).sum::<u64>();
        let sums = [
            ("ticks checked", sum(|r| r.0.ticks)),
            ("parked entities checked", sum(|r| r.0.parked_entities)),
            ("rings checked", sum(|r| r.0.rings) + u64::from(!self.lsh)),
            ("entities removed", sum(|r| r.0.removed_entities)),
            ("entities re-activated", sum(|r| r.0.reactivated_entities)),
            (
                "contributions equal to recomputation",
                sum(|r| r.0.fresh_contributions),
            ),
            (
                "contributions carried across a tick",
                sum(|r| r.0.carried_contributions),
            ),
            ("windows evicted", sum(|r| r.1.evicted_windows)),
            ("entities demoted", sum(|r| r.1.demoted_entities)),
            ("events dropped late", sum(|r| r.1.late_dropped)),
            ("arena compactions", sum(|r| r.1.arena_compactions)),
        ];
        assert!(sums.iter().all(|&(_, n)| n > 0), "vacuous runs: {sums:?}");
    }
}

/// Replays `events` through the oracle (every chunk and every tick is
/// checked against recomputation) and returns what was observable.
fn replay(
    events: &[StreamEvent],
    mut cfg: StreamConfig,
    shards: usize,
    workers: usize,
    exercised: &Mutex<Exercised>,
) -> Result<Observation, String> {
    cfg.num_shards = shards;
    cfg.num_workers = workers;
    let context = |e| format!("{shards} shards, {workers} workers: {e}");
    let mut engine = StreamEngine::new(cfg).expect("valid config");
    let mut oracle = RecomputeOracle::new();
    let mut updates = oracle.ingest(&mut engine, events).map_err(context)?;
    updates.extend(oracle.refresh(&mut engine).map_err(context)?);
    let served = engine.links().to_vec();
    let stats = *engine.stats();
    let scoring = *engine.scoring_stats();
    let candidate_pairs = engine.num_candidate_pairs();
    let coverage = (oracle.coverage(), stats);
    exercised
        .lock()
        .expect("coverage lock")
        .replays
        .push(coverage);
    let finalized = engine
        .finalize()
        .expect("finalize")
        .links
        .into_iter()
        .map(|e| (e.left, e.right, e.weight))
        .collect();
    Ok(Observation {
        updates,
        served,
        stats,
        scoring,
        candidate_pairs,
        finalized,
    })
}

static BRUTE: Mutex<Exercised> = Mutex::new(Exercised::new(false));
static LSH: Mutex<Exercised> = Mutex::new(Exercised::new(true));
static KERNELS: Mutex<Exercised> = Mutex::new(Exercised::new(false));

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    // Brute-force candidates, sliding window (arena eviction, parking
    // and demotion in play), mid-stream ticks. Every replay
    // is held to recomputation by the oracle, at every shard × worker
    // combination — including the shard counts that split linked pairs
    // across shard boundaries and the worker counts that dispatch
    // rescore chunks through the stealing pool — and they all observe
    // the same thing.
    #[test]
    fn arena_is_bit_identical_to_recomputation(events in arb_events()) {
        let cfg = StreamConfig {
            window_capacity: Some(8),
            refresh_every: 23,
            slim: slim::core::SlimConfig {
                min_records: 2,
                ..slim::core::SlimConfig::default()
            },
            ..StreamConfig::default()
        };
        let reference = replay(&events, cfg, 1, 1, &BRUTE);
        prop_assert!(reference.is_ok(), "{}", reference.unwrap_err());
        for shards in [1usize, 2, 4, 7] {
            for workers in [1usize, 2, 4] {
                let observed = replay(&events, cfg, shards, workers, &BRUTE);
                prop_assert!(
                    reference == observed,
                    "{} shards, {} workers diverged from 1 x 1:\n{:#?}\nvs\n{:#?}",
                    shards, workers, reference, observed
                );
            }
        }
        BRUTE.lock().expect("coverage lock").close_case();
    }

    // LSH candidate discovery over the same churn: ring signatures,
    // bucket-partition upserts, and candidate retirement decide which
    // pairs are cached at all; whatever is cached is held to
    // recomputation.
    #[test]
    fn arena_matches_recomputation_under_lsh(events in arb_events()) {
        let cfg = StreamConfig {
            window_capacity: Some(8),
            refresh_every: 31,
            slim: slim::core::SlimConfig {
                min_records: 2,
                ..slim::core::SlimConfig::default()
            },
            lsh: Some(StreamLshConfig {
                spans: 8,
                base: LshConfig {
                    step_windows: 1,
                    spatial_level: 10,
                    ..LshConfig::default()
                },
            }),
            ..StreamConfig::default()
        };
        let reference = replay(&events, cfg, 1, 1, &LSH);
        prop_assert!(reference.is_ok(), "{}", reference.unwrap_err());
        for (shards, workers) in [(2usize, 1usize), (4, 2), (7, 4)] {
            let observed = replay(&events, cfg, shards, workers, &LSH);
            prop_assert!(
                reference == observed,
                "LSH, {} shards, {} workers diverged from 1 x 1:\n{:#?}\nvs\n{:#?}",
                shards, workers, reference, observed
            );
        }
        LSH.lock().expect("coverage lock").close_case();
    }

    // The Fig. 10 kernel variants — all pairs, no alibi pass, no idf —
    // over the same churn: each selection mode's resolved-run path is
    // held to recomputation, not only the default's, at shard and
    // worker counts that split pairs and dispatch rescore chunks.
    #[test]
    fn kernel_variants_match_recomputation(events in arb_events()) {
        let base = SlimConfig {
            min_records: 2,
            ..SlimConfig::default()
        };
        for slim in [
            SlimConfig { pairing: PairingMode::AllPairs, ..base },
            SlimConfig { use_mfn: false, ..base },
            SlimConfig { use_idf: false, ..base },
        ] {
            let cfg = StreamConfig {
                window_capacity: Some(8),
                refresh_every: 23,
                slim,
                ..StreamConfig::default()
            };
            let reference = replay(&events, cfg, 1, 1, &KERNELS);
            prop_assert!(reference.is_ok(), "{:?}: {}", slim, reference.unwrap_err());
            for (shards, workers) in [(2usize, 2usize), (4, 4)] {
                let observed = replay(&events, cfg, shards, workers, &KERNELS);
                prop_assert!(
                    reference == observed,
                    "{:?}, {} shards, {} workers diverged from 1 x 1:\n{:#?}\nvs\n{:#?}",
                    slim, shards, workers, reference, observed
                );
            }
        }
        KERNELS.lock().expect("coverage lock").close_case();
    }
}
