//! Incremental-vs-full matching equivalence: the streaming engine's
//! [`IncrementalMatcher`] repairs a greedy matching under edge deltas by
//! re-running selection over the affected conflict region only. Its
//! contract is exact — after **any** delta sequence, the maintained
//! matching must be edge-for-edge identical (same pairs, same weights,
//! same order) to [`greedy_max_matching`] over the full live edge set.
//! The generators lean on small id and weight palettes so weight ties,
//! re-weights, and removals of matched edges all occur constantly.
//!
//! Each batch's [`DeltaReport`] is held to the exact difference too:
//! `matched` is the new matching minus the old, `unmatched` the old
//! minus the new (by pair and weight bits), and `region_edges` the edge
//! count of the components the changed edges' endpoints flood — the
//! engine feeds its threshold state from nothing else.

use std::collections::BTreeMap;

use proptest::test_runner::TestCaseError;

use proptest::prelude::*;

use slim::core::matching::{greedy_max_matching, is_valid_matching, DeltaReport, Edge, EdgeDelta};
use slim::core::{EntityId, IncrementalMatcher};

/// One raw op: (left, right, action). Actions 0–1 remove the edge
/// (~29% of ops); 2–8 upsert a weight from a tiny palette, so
/// equal-weight conflicts are the norm, not the exception — exactly
/// where a sloppy tie-break would diverge.
type RawOp = (u64, u64, u8);

const WEIGHTS: [f64; 5] = [0.25, 0.5, 1.0, 1.0, 2.0];

fn op_weight(action: u8) -> Option<f64> {
    (action >= 2).then(|| WEIGHTS[(action - 2) as usize % WEIGHTS.len()])
}

fn arb_batches() -> impl Strategy<Value = Vec<Vec<RawOp>>> {
    prop::collection::vec(
        prop::collection::vec((0u64..6, 100u64..106, 0u8..9), 1..8),
        1..25,
    )
}

/// Coalesces one batch by pair, last write winning — the form the
/// engine's per-shard `BTreeMap` delta runs guarantee.
fn coalesce(batch: &[RawOp]) -> Vec<EdgeDelta> {
    let mut by_pair: BTreeMap<(u64, u64), Option<f64>> = BTreeMap::new();
    for &(l, r, action) in batch {
        by_pair.insert((l, r), op_weight(action));
    }
    by_pair
        .into_iter()
        .map(|((l, r), weight)| EdgeDelta {
            left: EntityId(l),
            right: EntityId(r),
            weight,
        })
        .collect()
}

/// The dense shape of a tick on a few-entity stream: every batch
/// reweights most edges of one component. Components are 4 × 4 complete
/// bipartite blocks (Left `4k..4k+4`, Right `100+4k..`); per edge of the
/// chosen block, action 0 removes it, 1 leaves it alone, and 2–9 upsert
/// a palette weight.
fn arb_dense_batches() -> impl Strategy<Value = Vec<(u64, Vec<u8>)>> {
    prop::collection::vec((0u64..3, prop::collection::vec(0u8..10, 16..17)), 1..20)
}

fn dense_batch(component: u64, actions: &[u8]) -> Vec<EdgeDelta> {
    actions
        .iter()
        .enumerate()
        .filter(|&(_, &action)| action != 1)
        .map(|(i, &action)| EdgeDelta {
            left: EntityId(4 * component + i as u64 / 4),
            right: EntityId(100 + 4 * component + i as u64 % 4),
            weight: (action >= 2).then(|| WEIGHTS[(action - 2) as usize % WEIGHTS.len()]),
        })
        .collect()
}

/// The live edge set, by pair.
type Reference = BTreeMap<(u64, u64), f64>;

fn greedy_of(reference: &Reference) -> Vec<Edge> {
    let edges: Vec<Edge> = reference
        .iter()
        .map(|(&(l, r), &weight)| Edge {
            left: EntityId(l),
            right: EntityId(r),
            weight,
        })
        .collect();
    greedy_max_matching(&edges)
}

/// Edges of the connected components of `reference` that contain a
/// seeded endpoint.
fn flooded_edges(reference: &Reference, seeds: &[(u64, u64)]) -> usize {
    let mut region: [std::collections::BTreeSet<u64>; 2] = Default::default();
    let mut frontier: Vec<(usize, u64)> =
        seeds.iter().flat_map(|&(l, r)| [(0, l), (1, r)]).collect();
    while let Some((side, e)) = frontier.pop() {
        if !region[side].insert(e) {
            continue;
        }
        for &(l, r) in reference.keys() {
            if [l, r][side] == e {
                frontier.extend([(0, l), (1, r)]);
            }
        }
    }
    reference
        .keys()
        .filter(|(l, _)| region[0].contains(l))
        .count()
}

/// `a` minus `b`, by pair and weight bits, sorted by pair.
fn minus(a: &[Edge], b: &[Edge]) -> Vec<(EntityId, EntityId, u64)> {
    let bits = |e: &Edge| (e.left, e.right, e.weight.to_bits());
    let mut out: Vec<_> = a
        .iter()
        .map(bits)
        .filter(|x| !b.iter().any(|e| bits(e) == *x))
        .collect();
    out.sort_unstable();
    out
}

/// Applies one coalesced batch to the matcher and to the reference, then
/// holds the maintained matching to greedy over the full edge set — pairs,
/// weights and emission order — and the report to the exact difference.
fn step(
    matcher: &mut IncrementalMatcher,
    reference: &mut Reference,
    deltas: &[EdgeDelta],
) -> Result<DeltaReport, TestCaseError> {
    let old = greedy_of(reference);
    let mut seeds = Vec::new();
    for d in deltas {
        let key = (d.left.0, d.right.0);
        let changed = match d.weight {
            Some(w) => reference.insert(key, w) != Some(w),
            None => reference.remove(&key).is_some(),
        };
        if changed {
            seeds.push(key);
        }
    }
    let report = matcher.apply_deltas(deltas);
    let new = greedy_of(reference);
    let got = matcher.matching();
    prop_assert!(
        got == new,
        "diverged after {:?} over edges {:?}: {:?} vs {:?}",
        deltas,
        reference,
        got,
        new
    );
    prop_assert!(is_valid_matching(&got));
    prop_assert!(matcher.num_edges() == reference.len());
    let bits = |edges: &[Edge]| -> Vec<(EntityId, EntityId, u64)> {
        edges
            .iter()
            .map(|e| (e.left, e.right, e.weight.to_bits()))
            .collect()
    };
    let (arrivals, departures) = (minus(&new, &old), minus(&old, &new));
    prop_assert!(
        bits(&report.matched) == arrivals,
        "reported arrivals {:?}, the matching gained {:?}",
        report.matched,
        arrivals
    );
    prop_assert!(
        bits(&report.unmatched) == departures,
        "reported departures {:?}, the matching lost {:?}",
        report.unmatched,
        departures
    );
    let region = flooded_edges(reference, &seeds);
    prop_assert!(
        report.region_edges == region,
        "region of {} edges, the seeds flood {region}",
        report.region_edges
    );
    Ok(report)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // After every applied batch, the incremental matching equals the
    // from-scratch greedy matching over the full maintained edge set —
    // pairs, weights, and emission order all identical — and the
    // report is the exact difference.
    #[test]
    fn incremental_equals_full_greedy_under_random_deltas(batches in arb_batches()) {
        let mut matcher = IncrementalMatcher::new();
        let mut reference = Reference::new();
        for batch in &batches {
            step(&mut matcher, &mut reference, &coalesce(batch))?;
        }
    }

    // The same contract when every batch rewrites most of one dense
    // component: the region is the whole component on every batch.
    #[test]
    fn incremental_equals_full_greedy_under_dense_reweights(batches in arb_dense_batches()) {
        let mut matcher = IncrementalMatcher::new();
        let mut reference = Reference::new();
        let mut whole = 0;
        for (component, actions) in &batches {
            let report = step(&mut matcher, &mut reference, &dense_batch(*component, actions))?;
            let block = reference.keys().filter(|&&(l, _)| l / 4 == *component).count();
            whole += usize::from(report.region_edges == block && block > 0);
        }
        prop_assert!(whole > 0 || batches.len() < 3, "no batch re-matched a whole component");
    }

    // Deltas that change nothing (re-upserting the current weight,
    // removing an absent edge) must not grow the conflict region.
    #[test]
    fn noop_deltas_cost_nothing(batch in prop::collection::vec((0u64..6, 100u64..106, 2u8..9), 1..8)) {
        let mut matcher = IncrementalMatcher::new();
        let deltas = coalesce(&batch);
        matcher.apply_deltas(&deltas);
        let before = matcher.matching();
        let report = matcher.apply_deltas(&deltas);
        prop_assert!(report.region_edges == 0, "re-upserting current weights re-matched");
        prop_assert!(report.matched.is_empty() && report.unmatched.is_empty());
        let absent = [EdgeDelta { left: EntityId(99), right: EntityId(999), weight: None }];
        let report = matcher.apply_deltas(&absent);
        prop_assert!(report.region_edges == 0, "removing an absent edge re-matched");
        prop_assert_eq!(matcher.matching(), before);
    }
}
