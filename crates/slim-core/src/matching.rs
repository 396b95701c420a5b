//! Maximum-weight bipartite matching (paper §3.2).
//!
//! SLIM builds a weighted bipartite graph from positive similarity scores
//! and selects a matching so that no entity is linked twice. The paper
//! adapts "a simple greedy heuristic, which links the pair with the
//! highest similarity at each step" — implemented here; an exact
//! Hungarian solver lives in [`crate::hungarian`] for verification.
//!
//! For callers that maintain the edge set under updates (the streaming
//! engine), [`IncrementalMatcher`] keeps the greedy matching itself
//! incremental: a batch of edge deltas re-runs greedy selection only
//! over the affected conflict region — the connected components of the
//! delta endpoints — and is guaranteed edge-for-edge identical to
//! [`greedy_max_matching`] over the full edge set.

use std::collections::hash_map::Entry;
use std::collections::HashSet;

use serde::{Deserialize, Serialize};

use crate::fasthash::FastMap;
use crate::record::EntityId;

/// A weighted edge of the bipartite linkage graph.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Edge {
    /// Entity from the first dataset (`U_E`).
    pub left: EntityId,
    /// Entity from the second dataset (`U_I`).
    pub right: EntityId,
    /// Similarity score.
    pub weight: f64,
}

impl Edge {
    /// The one-line wire rendering of an edge — `left,right,weight` —
    /// the row format of the streaming query protocol's `LINKS`
    /// replies. The weight prints with `f64`'s shortest round-trip
    /// formatting, so parsing the text back recovers the exact score.
    pub fn wire_line(&self) -> String {
        format!("{},{},{}", self.left.0, self.right.0, self.weight)
    }
}

/// The total order every matching path emits edges in: heaviest first,
/// ties broken on `(left, right)` ids. Greedy selection consumes edges
/// in this order, and `exact_max_matching` / the incremental matcher
/// sort their outputs with it — one shared comparator, because
/// identical output order across all three is a bit-identity contract.
pub fn heaviest_first(a: &Edge, b: &Edge) -> std::cmp::Ordering {
    b.weight
        .partial_cmp(&a.weight)
        .unwrap_or(std::cmp::Ordering::Equal)
        .then_with(|| a.left.cmp(&b.left))
        .then_with(|| a.right.cmp(&b.right))
}

/// An integer key that orders weights as [`heaviest_first`] does —
/// heaviest first, `-0.0` equal to `0.0` — for every weight but NaN.
fn heaviest_first_key(weight: f64) -> u64 {
    // The sign-flip total-order trick, over `+0.0` for both zeros.
    let bits = (weight + 0.0).to_bits();
    let ascending = if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    };
    !ascending
}

/// Greedy maximum-weight matching: repeatedly select the heaviest edge
/// whose endpoints are both unmatched. Ties break deterministically on
/// `(left, right)` ids. Runs in `O(|E| log |E|)`.
pub fn greedy_max_matching(edges: &[Edge]) -> Vec<Edge> {
    let mut order: Vec<&Edge> = edges.iter().collect();
    order.sort_by(|a, b| heaviest_first(a, b));
    let mut left_used: HashSet<EntityId> = HashSet::new();
    let mut right_used: HashSet<EntityId> = HashSet::new();
    let mut out = Vec::new();
    for e in order {
        if left_used.contains(&e.left) || right_used.contains(&e.right) {
            continue;
        }
        left_used.insert(e.left);
        right_used.insert(e.right);
        out.push(*e);
    }
    out
}

/// Exact maximum-weight matching via the Hungarian solver in
/// [`crate::hungarian`]. Builds a dense matrix over the entities present
/// in `edges`, so memory is O(n·m) — use only at moderate scales.
pub fn exact_max_matching(edges: &[Edge]) -> Vec<Edge> {
    use std::collections::HashMap;
    let mut lefts: Vec<EntityId> = edges.iter().map(|e| e.left).collect();
    let mut rights: Vec<EntityId> = edges.iter().map(|e| e.right).collect();
    lefts.sort_unstable();
    lefts.dedup();
    rights.sort_unstable();
    rights.dedup();
    if lefts.is_empty() || rights.is_empty() {
        return Vec::new();
    }
    let lidx: HashMap<EntityId, usize> = lefts.iter().enumerate().map(|(i, &e)| (e, i)).collect();
    let ridx: HashMap<EntityId, usize> = rights.iter().enumerate().map(|(i, &e)| (e, i)).collect();
    let mut w = vec![vec![0.0f64; rights.len()]; lefts.len()];
    for e in edges {
        let (i, j) = (lidx[&e.left], ridx[&e.right]);
        w[i][j] = w[i][j].max(e.weight);
    }
    let (assignment, _) = crate::hungarian::max_weight_assignment(&w);
    let mut out: Vec<Edge> = assignment
        .into_iter()
        .enumerate()
        .filter_map(|(i, j)| {
            j.map(|j| Edge {
                left: lefts[i],
                right: rights[j],
                weight: w[i][j],
            })
        })
        .collect();
    // Heaviest first with the `(left, right)` tie-break greedy uses, so
    // equal-weight assignments come out in one deterministic order.
    out.sort_by(heaviest_first);
    out
}

/// One update to the bipartite edge set, keyed by pair: `Some(w)`
/// upserts the edge's weight, `None` removes the edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeDelta {
    /// Left endpoint of the pair.
    pub left: EntityId,
    /// Right endpoint of the pair.
    pub right: EntityId,
    /// New weight (`None` = the edge is gone).
    pub weight: Option<f64>,
}

/// What one [`IncrementalMatcher::apply_deltas`] call changed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeltaReport {
    /// Edges in the re-matched conflict region — the work bound: greedy
    /// selection ran over exactly these, never the full edge set.
    pub region_edges: usize,
    /// Matched edges that left the matching (including old versions of
    /// reweighted matches).
    pub unmatched: Vec<Edge>,
    /// Matched edges that entered the matching (including new versions
    /// of reweighted matches).
    pub matched: Vec<Edge>,
}

/// A greedy maximum-weight matching maintained under edge deltas.
///
/// The matcher owns a copy of the live edge set plus a per-endpoint
/// adjacency. Applying a delta batch re-runs greedy selection over the
/// *conflict region only*: the union of connected components (in the
/// updated graph, plus the endpoints of removed edges) that contain a
/// changed edge's endpoint. Greedy decisions never cross component
/// boundaries — an edge is taken iff no heavier edge in its own
/// component claimed an endpoint first — so the maintained matching is
/// **edge-for-edge identical** to a from-scratch [`greedy_max_matching`]
/// over the full edge set, in the same order.
///
/// Endpoints are numbered densely per side, so a repair floods the
/// region and runs its greedy pass over flat vectors — stamped per
/// repair instead of cleared — and keeps each Left endpoint's match in
/// a flat slot: a repair of the whole graph costs about one sort of the
/// region's edges. Only the pair and entity lookups of the deltas
/// themselves hash, under [`crate::fasthash`]; no output reads their
/// order.
#[derive(Debug, Default)]
pub struct IncrementalMatcher {
    /// Live edges by pair: their slot in `edges`.
    index: FastMap<(EntityId, EntityId), u32>,
    /// Edge slots; a vacant one (listed in `vacant`) is unreachable.
    edges: Vec<LiveEdge>,
    vacant: Vec<u32>,
    /// The Left and the Right endpoints.
    nodes: [Nodes; 2],
    /// Per Left node: its edge in the current matching.
    mate: Vec<Option<Edge>>,
    /// Repairs run so far — the stamp of the current one.
    repairs: u64,
    /// The greedy order of the last repair, kept for its capacity.
    order: Vec<(u64, EntityId, EntityId, u32)>,
}

/// A live edge and where its endpoints list it.
#[derive(Debug, Clone, Copy)]
struct LiveEdge {
    edge: Edge,
    /// Its Left and its Right node.
    nodes: [u32; 2],
    /// Its position in each node's edge list.
    at: [u32; 2],
}

/// One side's endpoints, numbered densely. A node whose last edge went
/// is recycled at the end of the repair.
#[derive(Debug, Default)]
struct Nodes {
    ids: FastMap<EntityId, u32>,
    /// Per node: its entity, its live edges (slots), and the last repair
    /// that flooded it and that matched it.
    entity: Vec<EntityId>,
    edges: Vec<Vec<u32>>,
    flooded: Vec<u64>,
    taken: Vec<u64>,
    vacant: Vec<u32>,
}

impl Nodes {
    /// The node of `e`, numbered now if it has none.
    fn node(&mut self, e: EntityId) -> u32 {
        *self
            .ids
            .entry(e)
            .or_insert_with(|| match self.vacant.pop() {
                Some(n) => {
                    self.entity[n as usize] = e;
                    n
                }
                None => {
                    self.entity.push(e);
                    self.edges.push(Vec::new());
                    self.flooded.push(0);
                    self.taken.push(0);
                    u32::try_from(self.entity.len() - 1).expect("fewer than 2^32 endpoints")
                }
            })
    }

    /// Unlists the edge at position `at` of `node`'s list; the edge
    /// moved into its place gets its position fixed in `edges`.
    fn unlist(&mut self, side: usize, node: u32, at: u32, edges: &mut [LiveEdge]) {
        let list = &mut self.edges[node as usize];
        list.swap_remove(at as usize);
        if let Some(&moved) = list.get(at as usize) {
            edges[moved as usize].at[side] = at;
        }
    }

    /// Recycles `node` if it has no edge left (at most once).
    fn release(&mut self, node: u32) {
        let e = self.entity[node as usize];
        if self.edges[node as usize].is_empty() && self.ids.get(&e) == Some(&node) {
            self.ids.remove(&e);
            self.vacant.push(node);
        }
    }
}

impl IncrementalMatcher {
    /// An empty matcher (no edges, empty matching).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live edges.
    pub fn num_edges(&self) -> usize {
        self.index.len()
    }

    /// The maintained matching, sorted heaviest-first with the
    /// `(left, right)` tie-break — exactly the order
    /// [`greedy_max_matching`] emits.
    pub fn matching(&self) -> Vec<Edge> {
        let mut out: Vec<Edge> = self.mate.iter().flatten().copied().collect();
        out.sort_by(heaviest_first);
        out
    }

    /// The live edge set sorted by `(left, right)` — the full-assembly
    /// form callers outside the greedy path (e.g. an exact Hungarian
    /// re-match) expect.
    pub fn edges_sorted(&self) -> Vec<Edge> {
        let mut out: Vec<Edge> = self
            .index
            .values()
            .map(|&slot| self.edges[slot as usize].edge)
            .collect();
        out.sort_by_key(|e| (e.left, e.right));
        out
    }

    /// Applies one coalesced delta batch (at most one delta per pair)
    /// and repairs the matching over the affected conflict region.
    pub fn apply_deltas(&mut self, deltas: &[EdgeDelta]) -> DeltaReport {
        let mut report = DeltaReport::default();
        // Seed the region with every endpoint a delta actually touched.
        let mut frontier: Vec<(usize, u32)> = Vec::new();
        let mut emptied: Vec<(usize, u32)> = Vec::new();
        let [lefts, rights] = &mut self.nodes;
        for d in deltas {
            let pair = (d.left, d.right);
            let touched = match (d.weight, self.index.entry(pair)) {
                (Some(w), Entry::Occupied(slot)) => {
                    let live = &mut self.edges[*slot.get() as usize];
                    (live.edge.weight != w).then(|| {
                        live.edge.weight = w;
                        live.nodes
                    })
                }
                (Some(weight), Entry::Vacant(entry)) => {
                    let nodes = [lefts.node(d.left), rights.node(d.right)];
                    let (ll, rl) = (
                        &mut lefts.edges[nodes[0] as usize],
                        &mut rights.edges[nodes[1] as usize],
                    );
                    let live = LiveEdge {
                        edge: Edge {
                            left: d.left,
                            right: d.right,
                            weight,
                        },
                        nodes,
                        at: [ll.len() as u32, rl.len() as u32],
                    };
                    let slot = match self.vacant.pop() {
                        Some(slot) => {
                            self.edges[slot as usize] = live;
                            slot
                        }
                        None => {
                            self.edges.push(live);
                            u32::try_from(self.edges.len() - 1).expect("fewer than 2^32 edges")
                        }
                    };
                    ll.push(slot);
                    rl.push(slot);
                    entry.insert(slot);
                    Some(nodes)
                }
                (None, Entry::Occupied(slot)) => {
                    let slot = slot.remove();
                    let LiveEdge { nodes, at, .. } = self.edges[slot as usize];
                    lefts.unlist(0, nodes[0], at[0], &mut self.edges);
                    rights.unlist(1, nodes[1], at[1], &mut self.edges);
                    self.vacant.push(slot);
                    emptied.extend([(0, nodes[0]), (1, nodes[1])]);
                    Some(nodes)
                }
                (None, Entry::Vacant(_)) => None,
            };
            if let Some([l, r]) = touched {
                frontier.extend([(0, l), (1, r)]);
            }
        }
        if frontier.is_empty() {
            return report;
        }
        self.mate.resize(lefts.entity.len(), None);
        self.repairs += 1;
        let stamp = self.repairs;

        // Flood the conflict region: connected components (in the
        // updated graph) of the touched endpoints. A removed edge's
        // endpoints are seeded even when now isolated, so their old
        // matches are still torn down. Every edge with an endpoint in
        // the region has both endpoints in it, so the region's edges are
        // exactly those of its Left nodes, each collected once, as its
        // Left node is reached.
        frontier.retain(|&(side, n)| {
            let flooded = &mut [&mut *lefts, &mut *rights][side].flooded[n as usize];
            std::mem::replace(flooded, stamp) != stamp
        });
        let mut region: Vec<u32> = Vec::new();
        let mut order = std::mem::take(&mut self.order);
        order.clear();
        while let Some((side, n)) = frontier.pop() {
            let (this, other) = match side {
                0 => (&*lefts, &mut *rights),
                _ => (&*rights, &mut *lefts),
            };
            if side == 0 {
                region.push(n);
            }
            for &slot in &this.edges[n as usize] {
                let live = &self.edges[slot as usize];
                if side == 0 {
                    let Edge {
                        left,
                        right,
                        weight,
                    } = live.edge;
                    order.push((heaviest_first_key(weight), left, right, slot));
                }
                let m = live.nodes[1 - side];
                if std::mem::replace(&mut other.flooded[m as usize], stamp) != stamp {
                    frontier.push((1 - side, m));
                }
            }
        }

        // Re-run greedy over exactly the region's edges in
        // [`heaviest_first`] order, swapping the region's slice of the
        // matching as it goes and reporting the churn: `unmatched` = old
        // region matches not reproduced bit-identically, `matched` = new
        // region matches that are not carried over.
        report.region_edges = order.len();
        order.sort_unstable_by_key(|&(key, left, right, _)| (key, left, right));
        for &(.., slot) in &order {
            let LiveEdge {
                edge,
                nodes: [l, r],
                ..
            } = self.edges[slot as usize];
            let (tl, tr) = (&mut lefts.taken[l as usize], &mut rights.taken[r as usize]);
            if *tl == stamp || *tr == stamp {
                continue;
            }
            (*tl, *tr) = (stamp, stamp);
            let old = self.mate[l as usize].replace(edge);
            if old != Some(edge) {
                report.matched.push(edge);
                report.unmatched.extend(old);
            }
        }
        for &l in &region {
            if lefts.taken[l as usize] != stamp {
                report.unmatched.extend(self.mate[l as usize].take());
            }
        }
        for (side, n) in emptied {
            [&mut *lefts, &mut *rights][side].release(n);
        }
        self.order = order;
        report.unmatched.sort_by_key(|e| (e.left, e.right));
        report.matched.sort_by_key(|e| (e.left, e.right));
        report
    }
}

/// Checks the one-to-one constraint of a matching — used in tests and
/// property checks.
pub fn is_valid_matching(matching: &[Edge]) -> bool {
    let mut left = HashSet::new();
    let mut right = HashSet::new();
    matching
        .iter()
        .all(|e| left.insert(e.left) && right.insert(e.right))
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
    fn empty_graph() {
        assert!(greedy_max_matching(&[]).is_empty());
    }

    /// The wire rendering round-trips the weight exactly: Rust's `f64`
    /// Display is shortest-round-trip, so parsing the text back yields
    /// the original bits.
    #[test]
    fn wire_line_round_trips_the_weight() {
        let edge = e(42, 1042, 0.1 + 0.2); // a classic non-representable sum
        let line = edge.wire_line();
        let mut parts = line.split(',');
        assert_eq!(parts.next(), Some("42"));
        assert_eq!(parts.next(), Some("1042"));
        let w: f64 = parts.next().unwrap().parse().unwrap();
        assert_eq!(w.to_bits(), edge.weight.to_bits());
        assert_eq!(parts.next(), None);
    }

    #[test]
    fn picks_heaviest_first() {
        let edges = vec![e(1, 1, 1.0), e(1, 2, 5.0), e(2, 1, 3.0)];
        let m = greedy_max_matching(&edges);
        assert!(is_valid_matching(&m));
        assert_eq!(m.len(), 2);
        assert_eq!(m[0].weight, 5.0);
        assert_eq!(m[1].weight, 3.0);
    }

    #[test]
    fn one_to_one_enforced() {
        let edges = vec![e(1, 1, 9.0), e(1, 2, 8.0), e(1, 3, 7.0)];
        let m = greedy_max_matching(&edges);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].right, EntityId(1));
    }

    #[test]
    fn greedy_is_not_always_optimal_but_valid() {
        // Classic greedy pitfall: greedy takes 10, losing 9+9=18 total.
        let edges = vec![e(1, 1, 10.0), e(1, 2, 9.0), e(2, 1, 9.0)];
        let m = greedy_max_matching(&edges);
        assert!(is_valid_matching(&m));
        let total: f64 = m.iter().map(|x| x.weight).sum();
        assert_eq!(total, 10.0);
    }

    #[test]
    fn deterministic_tie_break() {
        let edges = vec![e(2, 2, 1.0), e(1, 1, 1.0)];
        let m1 = greedy_max_matching(&edges);
        let rev: Vec<Edge> = edges.iter().rev().copied().collect();
        let m2 = greedy_max_matching(&rev);
        assert_eq!(m1.len(), 2);
        assert_eq!(m1[0].left, m2[0].left);
    }

    #[test]
    fn exact_matching_beats_greedy_counterexample() {
        let edges = vec![e(1, 1, 10.0), e(1, 2, 9.0), e(2, 1, 9.0)];
        let m = exact_max_matching(&edges);
        assert!(is_valid_matching(&m));
        let total: f64 = m.iter().map(|x| x.weight).sum();
        assert_eq!(total, 18.0);
    }

    #[test]
    fn exact_matching_empty() {
        assert!(exact_max_matching(&[]).is_empty());
    }

    #[test]
    fn validity_checker_rejects_duplicates() {
        assert!(!is_valid_matching(&[e(1, 1, 1.0), e(1, 2, 1.0)]));
        assert!(!is_valid_matching(&[e(1, 1, 1.0), e(2, 1, 1.0)]));
        assert!(is_valid_matching(&[e(1, 1, 1.0), e(2, 2, 1.0)]));
    }

    /// Regression: `exact_max_matching` used to sort its output by
    /// weight only, so equal-weight assignments came back in the
    /// Hungarian solver's internal order — input permutations of the
    /// same graph produced permuted outputs.
    #[test]
    fn exact_matching_output_order_is_deterministic_under_ties() {
        let edges = vec![e(1, 1, 2.0), e(2, 2, 2.0), e(3, 3, 2.0)];
        let rev: Vec<Edge> = edges.iter().rev().copied().collect();
        let m1 = exact_max_matching(&edges);
        let m2 = exact_max_matching(&rev);
        assert_eq!(m1, m2, "tie order must not depend on input order");
        let lefts: Vec<u64> = m1.iter().map(|x| x.left.0).collect();
        assert_eq!(lefts, vec![1, 2, 3], "(left, right) tie-break");
    }

    fn upsert(l: u64, r: u64, w: f64) -> EdgeDelta {
        EdgeDelta {
            left: EntityId(l),
            right: EntityId(r),
            weight: Some(w),
        }
    }

    fn drop_edge(l: u64, r: u64) -> EdgeDelta {
        EdgeDelta {
            left: EntityId(l),
            right: EntityId(r),
            weight: None,
        }
    }

    #[test]
    fn incremental_matches_full_greedy_from_scratch() {
        let mut m = IncrementalMatcher::new();
        let deltas = vec![
            upsert(1, 1, 1.0),
            upsert(1, 2, 5.0),
            upsert(2, 1, 3.0),
            upsert(3, 3, 2.0),
        ];
        let report = m.apply_deltas(&deltas);
        assert_eq!(report.region_edges, 4);
        let full: Vec<Edge> = deltas
            .iter()
            .map(|d| Edge {
                left: d.left,
                right: d.right,
                weight: d.weight.unwrap(),
            })
            .collect();
        assert_eq!(m.matching(), greedy_max_matching(&full));
        assert_eq!(m.num_edges(), 4);
    }

    #[test]
    fn incremental_region_stays_local() {
        let mut m = IncrementalMatcher::new();
        // Two disjoint components.
        m.apply_deltas(&[
            upsert(1, 1, 4.0),
            upsert(1, 2, 3.0),
            upsert(10, 10, 9.0),
            upsert(11, 10, 8.0),
        ]);
        // Touching only the small component re-matches only it.
        let report = m.apply_deltas(&[upsert(1, 2, 6.0)]);
        assert_eq!(report.region_edges, 2, "other component left alone");
        let expect =
            greedy_max_matching(&[e(1, 1, 4.0), e(1, 2, 6.0), e(10, 10, 9.0), e(11, 10, 8.0)]);
        assert_eq!(m.matching(), expect);
        // A no-op delta (same weight) re-matches nothing at all.
        let report = m.apply_deltas(&[upsert(1, 2, 6.0)]);
        assert_eq!(report.region_edges, 0);
        assert!(report.matched.is_empty() && report.unmatched.is_empty());
    }

    #[test]
    fn incremental_removal_tears_down_match() {
        let mut m = IncrementalMatcher::new();
        m.apply_deltas(&[upsert(1, 1, 10.0), upsert(1, 2, 9.0), upsert(2, 1, 9.0)]);
        assert_eq!(m.matching()[0].weight, 10.0);
        // Removing the matched edge lets the two 9.0 edges pair up.
        let report = m.apply_deltas(&[drop_edge(1, 1)]);
        assert_eq!(m.num_edges(), 2);
        let expect = greedy_max_matching(&[e(1, 2, 9.0), e(2, 1, 9.0)]);
        assert_eq!(m.matching(), expect);
        assert_eq!(report.unmatched, vec![e(1, 1, 10.0)]);
        assert_eq!(report.matched, vec![e(1, 2, 9.0), e(2, 1, 9.0)]);
        // Removing an absent edge is a no-op.
        let report = m.apply_deltas(&[drop_edge(7, 7)]);
        assert_eq!(report, DeltaReport::default());
    }

    #[test]
    fn incremental_churn_report_skips_carried_matches() {
        let mut m = IncrementalMatcher::new();
        m.apply_deltas(&[upsert(1, 1, 5.0), upsert(2, 2, 4.0)]);
        // 2↔2 joins the component of 1↔1 via a light bridge; both stay
        // matched at unchanged weights, so only the bridge's rejection
        // is silent and the report is empty.
        let report = m.apply_deltas(&[upsert(1, 2, 1.0)]);
        assert_eq!(report.region_edges, 3);
        assert!(report.matched.is_empty(), "{:?}", report.matched);
        assert!(report.unmatched.is_empty(), "{:?}", report.unmatched);
        assert_eq!(m.matching(), vec![e(1, 1, 5.0), e(2, 2, 4.0)]);
    }

    #[test]
    fn incremental_edges_sorted_by_pair() {
        let mut m = IncrementalMatcher::new();
        m.apply_deltas(&[upsert(2, 1, 1.0), upsert(1, 2, 2.0), upsert(1, 1, 3.0)]);
        let edges = m.edges_sorted();
        assert_eq!(edges, vec![e(1, 1, 3.0), e(1, 2, 2.0), e(2, 1, 1.0)]);
    }
}
