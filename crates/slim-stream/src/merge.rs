//! The single merge barrier of a refresh tick.
//!
//! Everything the sharded engine computes in parallel is per-entity or
//! per-pair; only the dataset-global steps meet here. The barrier never
//! sweeps the contribution caches: every shard keeps its owned pairs'
//! assembled scores (the edges) in its pair table and describes each
//! tick's changes as a pair-sorted delta run, and the barrier
//! k-way-merges those runs —
//! `O(dirty)` — into the batch the incremental matcher and the
//! warm-started threshold state consume. The full-assembly form
//! ([`kway_merge_edge_runs`]) remains for the exact Hungarian path.
//! Each helper is deterministic in the face of arbitrary shard counts
//! and thread interleavings: runs are keyed by pair (each pair owned by
//! exactly one shard), link diffs are sorted by pair, and every
//! statistic folded across shards is a commutative sum.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use slim_core::matching::exact_max_matching;
use slim_core::threshold::select_threshold;
use slim_core::{Edge, EdgeDelta, EntityId, SlimConfig};

use crate::adjacency::PairKey;
use crate::engine::LinkUpdate;

/// K-way merges per-shard runs sorted by pair key into one globally
/// sorted sequence. Pair ownership is exclusive, so no key appears in
/// two runs; ties (impossible by construction) would break by run
/// index to stay deterministic anyway.
pub(crate) fn kway_merge<T>(runs: Vec<Vec<(PairKey, T)>>) -> Vec<(PairKey, T)> {
    let total: usize = runs.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    let mut iters: Vec<std::vec::IntoIter<(PairKey, T)>> =
        runs.into_iter().map(Vec::into_iter).collect();
    let mut heap: BinaryHeap<Reverse<(PairKey, usize)>> = BinaryHeap::with_capacity(iters.len());
    let mut heads: Vec<Option<(PairKey, T)>> = Vec::with_capacity(iters.len());
    for (i, it) in iters.iter_mut().enumerate() {
        let head = it.next();
        if let Some((key, _)) = &head {
            heap.push(Reverse((*key, i)));
        }
        heads.push(head);
    }
    while let Some(Reverse((_, i))) = heap.pop() {
        let (key, value) = heads[i].take().expect("heap entry implies a head");
        out.push((key, value));
        heads[i] = iters[i].next();
        if let Some((next_key, _)) = &heads[i] {
            heap.push(Reverse((*next_key, i)));
        }
    }
    out
}

/// The barrier's delta assembly: takes every shard's edge-delta run
/// and k-way-merges them into one pair-sorted [`EdgeDelta`] batch —
/// `O(dirty · log shards)` work, independent of the cache size.
pub(crate) fn merge_delta_runs(runs: Vec<Vec<(PairKey, Option<f64>)>>) -> Vec<EdgeDelta> {
    kway_merge(runs)
        .into_iter()
        .map(|((left, right), weight)| EdgeDelta {
            left,
            right,
            weight,
        })
        .collect()
}

/// Full edge assembly from the per-shard edges, each run sorted by
/// pair — the cold-path form (exact Hungarian re-match), with no
/// rescoring.
pub(crate) fn kway_merge_edge_runs(runs: Vec<Vec<(PairKey, f64)>>) -> Vec<Edge> {
    kway_merge(runs)
        .into_iter()
        .map(|((left, right), weight)| Edge {
            left,
            right,
            weight,
        })
        .collect()
}

/// Exact matching + stateless stop thresholding over fully assembled
/// edges — the barrier path for [`slim_core::MatchingMethod::HungarianExact`],
/// which has no incremental form. Returns the links plus the selected
/// matched-weight threshold (`None` when no threshold was selected) so
/// the tick barrier can publish both into its epoch snapshot.
pub(crate) fn exact_match_and_threshold(
    cfg: &SlimConfig,
    edges: &[Edge],
) -> (Vec<Edge>, Option<f64>) {
    let matching = exact_max_matching(edges);
    let weights: Vec<f64> = matching.iter().map(|e| e.weight).collect();
    let threshold = select_threshold(&weights, cfg.threshold_method);
    let links = match &threshold {
        Some(t) => matching
            .into_iter()
            .filter(|e| e.weight >= t.threshold)
            .collect(),
        None => matching,
    };
    (links, threshold.map(|t| t.threshold))
}

/// Difference between two served link sets, ordered by `(left, right)`.
pub(crate) fn diff_links(old: &[Edge], new: &[Edge]) -> Vec<LinkUpdate> {
    let old_by_pair: HashMap<(EntityId, EntityId), Edge> =
        old.iter().map(|e| ((e.left, e.right), *e)).collect();
    let new_by_pair: HashMap<(EntityId, EntityId), Edge> =
        new.iter().map(|e| ((e.left, e.right), *e)).collect();
    let mut updates: Vec<((EntityId, EntityId), LinkUpdate)> = Vec::new();
    for (&pair, &edge) in &new_by_pair {
        match old_by_pair.get(&pair) {
            None => updates.push((pair, LinkUpdate::Added(edge))),
            Some(&prev) if prev.weight != edge.weight => updates.push((
                pair,
                LinkUpdate::Reweighted {
                    previous: prev,
                    current: edge,
                },
            )),
            Some(_) => {}
        }
    }
    for (&pair, &edge) in &old_by_pair {
        if !new_by_pair.contains_key(&pair) {
            updates.push((pair, LinkUpdate::Removed(edge)));
        }
    }
    updates.sort_by_key(|&(pair, _)| pair);
    updates.into_iter().map(|(_, u)| u).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(l: u64, r: u64, w: f64) -> Edge {
        Edge {
            left: EntityId(l),
            right: EntityId(r),
            weight: w,
        }
    }

    #[test]
    fn diff_links_reports_all_transitions() {
        let old = vec![e(1, 1, 1.0), e(2, 2, 2.0), e(3, 3, 3.0)];
        let new = vec![e(2, 2, 2.5), e(3, 3, 3.0), e(4, 4, 4.0)];
        let updates = diff_links(&old, &new);
        assert_eq!(
            updates,
            vec![
                LinkUpdate::Removed(e(1, 1, 1.0)),
                LinkUpdate::Reweighted {
                    previous: e(2, 2, 2.0),
                    current: e(2, 2, 2.5)
                },
                LinkUpdate::Added(e(4, 4, 4.0)),
            ]
        );
    }

    #[test]
    fn exact_match_and_threshold_without_method_keeps_matching() {
        let cfg = SlimConfig {
            threshold_method: slim_core::ThresholdMethod::None,
            ..SlimConfig::default()
        };
        let edges = vec![e(1, 1, 1.0), e(1, 2, 0.5), e(2, 2, 2.0)];
        let (links, threshold) = exact_match_and_threshold(&cfg, &edges);
        // One-to-one matching picks the heavy pairings; no threshold cut.
        assert_eq!(links.len(), 2);
        assert!(links.iter().all(|l| l.left == l.right));
        assert_eq!(threshold, None, "ThresholdMethod::None selects nothing");
    }

    fn key(l: u64, r: u64) -> PairKey {
        (EntityId(l), EntityId(r))
    }

    #[test]
    fn kway_merge_interleaves_disjoint_sorted_runs() {
        let runs = vec![
            vec![(key(1, 5), "a"), (key(4, 0), "d")],
            vec![],
            vec![(key(2, 9), "b"), (key(3, 1), "c"), (key(9, 9), "e")],
        ];
        let merged = kway_merge(runs);
        let order: Vec<&str> = merged.iter().map(|&(_, v)| v).collect();
        assert_eq!(order, vec!["a", "b", "c", "d", "e"]);
        assert!(merged.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(kway_merge::<()>(vec![]).is_empty());
    }

    #[test]
    fn merge_delta_runs_keeps_upserts_and_removals() {
        let runs = vec![
            vec![(key(1, 1), Some(2.0)), (key(3, 3), None)],
            vec![(key(2, 2), Some(1.0))],
        ];
        let deltas = merge_delta_runs(runs);
        assert_eq!(
            deltas,
            vec![
                EdgeDelta {
                    left: EntityId(1),
                    right: EntityId(1),
                    weight: Some(2.0)
                },
                EdgeDelta {
                    left: EntityId(2),
                    right: EntityId(2),
                    weight: Some(1.0)
                },
                EdgeDelta {
                    left: EntityId(3),
                    right: EntityId(3),
                    weight: None
                },
            ]
        );
    }
}
