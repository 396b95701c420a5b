//! Published epochs inherit the engine's bit-identity contract: the
//! epoch sequence a drive publishes is the same at every shard and worker
//! count under either tick policy, each epoch is the linkage of exactly
//! the event prefix it names, and readers loading the epoch pointer
//! throughout a drive never perturb it.

use slim::stream::testing::{Case, Delivery, Variation};

/// Cases each property checks.
const CASES: u64 = 6;

/// A canonical brute-force case: sources may deliver it.
fn canonical(seed: u64) -> Case {
    let mut case = Case::sample_where(seed, |c| c.canonical && c.events.len() <= 300);
    case.cfg.lsh = None;
    case
}

/// A scripted source drawn from `seed` on `shards` × `workers`.
fn sourced(seed: u64, (shards, workers): (usize, usize), watermark: bool) -> Variation {
    Variation {
        shards,
        workers,
        delivery: Delivery::Source { seed },
        watermark,
        ..Variation::reference()
    }
}

/// Shards {1, 4} × workers {1, 2, 4}.
const TOPOLOGIES: [(usize, usize); 6] = [(1, 1), (1, 2), (1, 4), (4, 1), (4, 2), (4, 4)];

/// Every count's epochs are the reference's under the event-count
/// policy; under the watermark every count publishes what one shard and
/// one worker publish for the same delivery.
#[test]
fn published_epochs_agree_across_configs() {
    for seed in 0..CASES {
        let case = canonical(seed);
        let observe = |v: &Variation| {
            let have = case.observe(v);
            have.unwrap_or_else(|e| panic!("seed {seed}: {v:?}: {e}"))
        };
        case.check(&TOPOLOGIES.map(|t| sourced(seed, t, false)))
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let want = observe(&sourced(seed, (1, 1), true));
        for topology in &TOPOLOGIES[1..] {
            let v = sourced(seed, *topology, true);
            if let Some(diff) = observe(&v).first_difference(&want) {
                panic!("seed {seed}: {v:?}: {diff}");
            }
        }
    }
}

/// Each published snapshot carries the accepted-event count it is the
/// linkage of, so one shard fed the events up to each recorded boundary
/// and refreshed there publishes the same sequence — links, thresholds,
/// epochs, events and frontiers — under either policy.
#[test]
fn each_epoch_matches_a_replay_of_its_event_prefix() {
    for seed in 0..CASES {
        let policies = [false, true].map(|watermark| sourced(seed, (3, 2), watermark));
        canonical(seed)
            .check(&policies)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

/// A pack of readers loading the epoch pointer throughout a drive only
/// ever sees published epochs, in order, and never perturbs the output.
#[test]
fn concurrent_readers_never_perturb_the_drive() {
    let case = Case::fixed(40);
    let readers = Variation {
        shards: 3,
        workers: 2,
        delivery: Delivery::Source { seed: 4 },
        readers: 4,
        ..Variation::reference()
    };
    let cover = case.check(&[readers]).unwrap();
    assert!(cover.reader_loads > 0, "readers must load published epochs");
}
