//! Hierarchical temporal aggregation tree.
//!
//! The mobility-history representation (paper §2.3, Fig. 1) organizes the
//! temporal windows as a binary tree: leaves hold the set of spatial cell
//! ids visited in one window, and every non-leaf node keeps the occurrence
//! counts of the cell ids in its subtree. The non-leaf counts exist to
//! answer *dominating grid cell* queries over arbitrary window ranges in
//! `O(log n)` node merges (paper §4), which is what the LSH signature
//! construction uses.
//!
//! The tree is stored sparsely: only nodes whose subtree contains at least
//! one record are materialized. Nothing but the dominating-cell query
//! reads it, so a [`crate::history::MobilityHistory`] does not build its
//! tree with its leaves: the first
//! [`dominating_cell`](crate::history::MobilityHistory::dominating_cell)
//! call does, from the leaves, and the history keeps it from then on.

use std::collections::HashMap;

use geocell::CellId;

use crate::window::WindowIdx;

/// Sorted `(cell, count)` vector — the aggregate stored at each node.
pub type CellCounts = Vec<(CellId, u32)>;

/// Merges `src` into `dst`, summing counts; both must be sorted by cell id
/// and `dst` remains sorted.
pub fn merge_counts(dst: &mut CellCounts, src: &[(CellId, u32)]) {
    if src.is_empty() {
        return;
    }
    if dst.is_empty() {
        dst.extend_from_slice(src);
        return;
    }
    let mut merged = Vec::with_capacity(dst.len() + src.len());
    let (mut i, mut j) = (0, 0);
    while i < dst.len() && j < src.len() {
        match dst[i].0.cmp(&src[j].0) {
            std::cmp::Ordering::Less => {
                merged.push(dst[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                merged.push(src[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                merged.push((dst[i].0, dst[i].1 + src[j].1));
                i += 1;
                j += 1;
            }
        }
    }
    merged.extend_from_slice(&dst[i..]);
    merged.extend_from_slice(&src[j..]);
    *dst = merged;
}

/// A sparse segment tree over window indices `[0, domain)`, aggregating
/// per-window cell counts at every internal node.
#[derive(Debug, Clone)]
pub struct TemporalTree {
    /// Power-of-two domain size.
    size: u32,
    /// 1-based implicit node index → aggregated counts. Only non-empty
    /// nodes are stored.
    nodes: HashMap<u64, CellCounts>,
}

impl TemporalTree {
    /// Builds the tree from per-window leaf counts. `domain` is the number
    /// of windows covered (leaves with indices `>= domain` are rejected).
    ///
    /// # Panics
    /// Panics if a leaf index is outside the domain.
    pub fn build(domain: u32, leaves: impl Iterator<Item = (WindowIdx, CellCounts)>) -> Self {
        let size = domain.max(1).next_power_of_two();
        let mut nodes: HashMap<u64, CellCounts> = HashMap::new();
        for (w, counts) in leaves {
            assert!(w < domain, "leaf window {w} outside domain {domain}");
            // Walk from the leaf node up to the root, merging counts.
            let mut node = size as u64 + w as u64;
            while node >= 1 {
                merge_counts(nodes.entry(node).or_default(), &counts);
                if node == 1 {
                    break;
                }
                node /= 2;
            }
        }
        Self { size, nodes }
    }

    /// Aggregated counts over the half-open window range `[lo, hi)`.
    pub fn query(&self, lo: WindowIdx, hi: WindowIdx) -> CellCounts {
        let mut out = CellCounts::new();
        if lo >= hi {
            return out;
        }
        self.query_rec(1, 0, self.size, lo, hi.min(self.size), &mut out);
        out
    }

    fn query_rec(
        &self,
        node: u64,
        node_lo: u32,
        node_hi: u32,
        lo: u32,
        hi: u32,
        out: &mut CellCounts,
    ) {
        if lo >= node_hi || hi <= node_lo {
            return;
        }
        let Some(counts) = self.nodes.get(&node) else {
            return; // empty subtree
        };
        if lo <= node_lo && node_hi <= hi {
            merge_counts(out, counts);
            return;
        }
        let mid = (node_lo + node_hi) / 2;
        self.query_rec(node * 2, node_lo, mid, lo, hi, out);
        self.query_rec(node * 2 + 1, mid, node_hi, lo, hi, out);
    }

    /// The *dominating grid cell* over `[lo, hi)` at spatial level
    /// `level`: the cell (coarsened to `level`) with the highest record
    /// count, ties broken towards the smallest cell id. Returns `None`
    /// when the range holds no records.
    ///
    /// `level` must be at or above (coarser than) the level the counts
    /// were recorded at; finer levels cannot be recovered from aggregates.
    pub fn dominating_cell(&self, lo: WindowIdx, hi: WindowIdx, level: u8) -> Option<CellId> {
        let counts = self.query(lo, hi);
        dominating_of(&counts, level)
    }

    /// Number of materialized tree nodes (diagnostics).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

/// Picks the dominating cell of an aggregate, coarsened to `level`.
pub fn dominating_of(counts: &[(CellId, u32)], level: u8) -> Option<CellId> {
    let mut agg: HashMap<CellId, u32> = HashMap::new();
    for &(cell, count) in counts {
        let key = if cell.level() > level {
            cell.parent(level)
        } else {
            cell
        };
        *agg.entry(key).or_insert(0) += count;
    }
    agg.into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
        .map(|(cell, _)| cell)
}

#[cfg(test)]
mod tests {
    use super::*;
    use geocell::LatLng;

    fn cell(lng: f64, level: u8) -> CellId {
        CellId::from_latlng(LatLng::from_degrees(10.0, lng), level)
    }

    fn counts(v: &[(CellId, u32)]) -> CellCounts {
        let mut c = v.to_vec();
        c.sort_by_key(|&(id, _)| id);
        c
    }

    #[test]
    fn merge_counts_sums_and_sorts() {
        let a = cell(0.0, 12);
        let b = cell(1.0, 12);
        let c = cell(2.0, 12);
        let mut dst = counts(&[(a, 1), (c, 2)]);
        merge_counts(&mut dst, &counts(&[(a, 3), (b, 5)]));
        let expect = counts(&[(a, 4), (b, 5), (c, 2)]);
        assert_eq!(dst, expect);
    }

    #[test]
    fn merge_into_empty() {
        let a = cell(0.0, 12);
        let mut dst = CellCounts::new();
        merge_counts(&mut dst, &[(a, 7)]);
        assert_eq!(dst, vec![(a, 7)]);
    }

    #[test]
    fn query_full_range_equals_total() {
        let a = cell(0.0, 12);
        let b = cell(1.0, 12);
        let tree = TemporalTree::build(
            8,
            vec![
                (0, counts(&[(a, 2)])),
                (3, counts(&[(a, 1), (b, 4)])),
                (7, counts(&[(b, 1)])),
            ]
            .into_iter(),
        );
        let total = tree.query(0, 8);
        assert_eq!(total, counts(&[(a, 3), (b, 5)]));
    }

    #[test]
    fn query_partial_ranges() {
        let a = cell(0.0, 12);
        let b = cell(1.0, 12);
        let tree = TemporalTree::build(
            10,
            vec![(0, counts(&[(a, 2)])), (5, counts(&[(b, 3)]))].into_iter(),
        );
        assert_eq!(tree.query(0, 5), counts(&[(a, 2)]));
        assert_eq!(tree.query(5, 10), counts(&[(b, 3)]));
        assert_eq!(tree.query(1, 5), CellCounts::new());
        assert_eq!(tree.query(3, 3), CellCounts::new());
    }

    #[test]
    fn query_beyond_domain_is_clamped() {
        let a = cell(0.0, 12);
        let tree = TemporalTree::build(3, vec![(2, counts(&[(a, 1)]))].into_iter());
        assert_eq!(tree.query(0, 100), counts(&[(a, 1)]));
    }

    #[test]
    fn dominating_cell_picks_max_count() {
        let a = cell(0.0, 12);
        let b = cell(20.0, 12);
        let tree = TemporalTree::build(
            4,
            vec![
                (0, counts(&[(a, 3), (b, 1)])),
                (1, counts(&[(b, 1)])),
                (2, counts(&[(b, 2)])),
            ]
            .into_iter(),
        );
        // Over the full range: b has 4, a has 3.
        assert_eq!(tree.dominating_cell(0, 4, 12), Some(b));
        // Over just window 0: a dominates.
        assert_eq!(tree.dominating_cell(0, 1, 12), Some(a));
        // Empty range.
        assert_eq!(tree.dominating_cell(3, 4, 12), None);
    }

    #[test]
    fn dominating_cell_coarsens_level() {
        // Two nearby fine cells share a coarse parent; together they
        // out-count a distant cell.
        let fine1 = CellId::from_latlng(LatLng::from_degrees(10.0, 0.0), 16);
        // A sibling of fine1 under the same level-15 parent, guaranteeing a
        // shared ancestor at level 8.
        let fine2 = (0..4)
            .map(|k| fine1.parent(15).child(k))
            .find(|&c| c != fine1)
            .unwrap();
        let far = CellId::from_latlng(LatLng::from_degrees(10.0, 40.0), 16);
        let tree = TemporalTree::build(
            2,
            vec![(0, counts(&[(fine1, 2), (fine2, 2), (far, 3)]))].into_iter(),
        );
        // At level 16 `far` dominates (3 vs 2 each)…
        assert_eq!(tree.dominating_cell(0, 2, 16), Some(far));
        // …but at level 8 the two nearby cells merge (4 > 3).
        let dom = tree.dominating_cell(0, 2, 8).unwrap();
        assert_eq!(dom.level(), 8);
        assert!(dom.contains(fine1));
    }

    #[test]
    fn deterministic_tie_break() {
        let a = cell(0.0, 12);
        let b = cell(30.0, 12);
        let tree = TemporalTree::build(1, vec![(0, counts(&[(a, 2), (b, 2)]))].into_iter());
        let dom = tree.dominating_cell(0, 1, 12).unwrap();
        assert_eq!(dom, a.min(b), "ties break to the smaller id");
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn leaf_outside_domain_panics() {
        let a = cell(0.0, 12);
        let _ = TemporalTree::build(2, vec![(5, counts(&[(a, 1)]))].into_iter());
    }

    #[test]
    fn node_count_is_sparse() {
        let a = cell(0.0, 12);
        let tree = TemporalTree::build(1024, vec![(512, counts(&[(a, 1)]))].into_iter());
        // One leaf → one root-to-leaf path: log2(1024)+1 = 11 nodes.
        assert_eq!(tree.node_count(), 11);
    }
}
