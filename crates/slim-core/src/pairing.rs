//! Bin pairing within a common temporal window (paper §3.1.2).
//!
//! Given the bins of two entities in the same window, the pairing
//! function `N` repeatedly extracts the pair of bins with the smallest
//! geographical distance, removes both bins, and continues until the
//! smaller side is exhausted — so every bin participates in at most one
//! pair (no over-counting). The mutually-furthest variant `N'` does the
//! same with the *largest* distance and feeds the alibi check of Alg. 1.
//! The Cartesian-product variant exists for the Fig. 10 ablation.
//!
//! Each side is one window's cells with their geometry (`Bins`): the
//! center, exact radius, and cosine of the center's latitude
//! ([`CellGeometry`]), so a distance is one haversine with no `cos` and
//! no map probe. The haversine is the body `LatLng::distance_m` runs, so
//! every distance keeps the bits of the uncached
//! [`geocell::bounded_distance_m`]. Callers resolve the geometry from a
//! per-thread memo keyed under [`crate::fasthash`], one borrow a window
//! (`with_geometry_memo`).
//!
//! A single-row or single-column window is paired in one scan: its `N`
//! is the first smallest distance in row-major order and its `N'` the
//! first largest, which is what one round of the greedy loop picks.
//! `N'` can be cut short (the cutoff of `Selection`'s furthest passes):
//! greedy picks never grow in distance, so once a pick is within the
//! cutoff every later one is too.

use std::cell::RefCell;

use geocell::{CellGeometry, CellId};

use crate::fasthash::FastMap;

/// One selected pair: indices into the two bin slices plus the cell
/// distance in metres.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BinPair {
    /// Index into the first entity's bins.
    pub e_idx: usize,
    /// Index into the second entity's bins.
    pub i_idx: usize,
    /// Minimum geographical distance between the two cells, metres.
    pub dist_m: f64,
}

/// One side of a window as the kernel reads it: each bin's cell, and
/// beside it that cell's geometry.
pub(crate) type Bins<'a> = (&'a [CellId], &'a [CellGeometry]);

/// Entries kept in the per-thread geometry memo before it is reset. The
/// working set of real workloads is the distinct cells of one city-ish
/// region (tens of thousands); the cap only guards against unbounded
/// growth on planet-scale id churn.
const GEOMETRY_CACHE_CAP: usize = 1 << 18;

thread_local! {
    /// Cell geometry memo: [`CellGeometry::of`] walks the cell's four
    /// vertices through trigonometry, and the same cells recur in every
    /// window of every pair that visits them. The function is pure, so
    /// memoized values are exact, and thread-locality keeps the scoring
    /// hot path lock-free. The memo lives as long as its thread: a batch
    /// scoring worker amortizes across its whole candidate chunk, and a
    /// streaming engine across all its ticks — on the engine thread and
    /// on its pool workers alike, since the pool's threads are spawned
    /// once per engine and persist until it is dropped. A pair's cells
    /// recur per window and per tick, so that is the dominant reuse.
    static CELL_GEOMETRY: RefCell<GeometryMemo> = RefCell::new(GeometryMemo::default());

    /// The pairing kernel's working buffers. Same lifetime as the memo
    /// above: they grow to the largest window a thread has paired and
    /// are reused from then on, so a warm thread pairs a window without
    /// touching the allocator.
    static SCRATCH: RefCell<PairingScratch> = RefCell::new(PairingScratch::default());
}

/// The calling thread's cell geometry memo, lent by
/// [`with_geometry_memo`].
#[derive(Default)]
pub(crate) struct GeometryMemo(FastMap<CellId, CellGeometry>);

impl GeometryMemo {
    /// Memoized [`CellGeometry::of`].
    pub(crate) fn of(&mut self, cell: CellId) -> CellGeometry {
        if self.0.len() >= GEOMETRY_CACHE_CAP {
            self.0.clear();
        }
        *self.0.entry(cell).or_insert_with(|| CellGeometry::of(cell))
    }
}

/// Lends the calling thread's geometry memo to `f`: one borrow for any
/// number of cells.
pub(crate) fn with_geometry_memo<R>(f: impl FnOnce(&mut GeometryMemo) -> R) -> R {
    CELL_GEOMETRY.with(|memo| f(&mut memo.borrow_mut()))
}

/// Memoized [`CellGeometry::of`].
pub fn cached_cell_geometry(cell: CellId) -> CellGeometry {
    with_geometry_memo(|memo| memo.of(cell))
}

/// Which pair lists [`with_window_pairs`] selects from a window's
/// distances. A cutoff keeps the prefix of `N'` farther than it
/// (`f64::NEG_INFINITY` keeps all of `N'`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Selection {
    /// `N` only.
    Nearest,
    /// `N`, then `N'` down to the cutoff (the alibi pass).
    NearestAndFurthest(f64),
    /// `N'` down to the cutoff only.
    Furthest(f64),
    /// The Cartesian product.
    All,
}

/// The distance the kernel pairs by, `a` first.
fn distance((ca, ga): (&CellId, &CellGeometry), (cb, gb): (&CellId, &CellGeometry)) -> f64 {
    // Same level on both sides: equality is the only containment.
    if ca == cb {
        0.0
    } else {
        ga.bounded_distance_m(gb)
    }
}

/// One window's distance matrix and selected pairs, in buffers that
/// outlive the window (see `SCRATCH`). Every buffer is cleared before
/// it is refilled — the pair lists by [`with_window_pairs`], the rest
/// where they are filled — so nothing of the previous window (a `used`
/// flag, a stride, a pair) is ever read.
#[derive(Default)]
struct PairingScratch {
    /// Row-major `|a| × |b|` cell distances, metres.
    dist: Vec<f64>,
    /// Per side: bins already consumed by the running greedy selection.
    used: [Vec<bool>; 2],
    /// `N` (or the Cartesian product).
    primary: Vec<BinPair>,
    /// `N'`.
    furthest: Vec<BinPair>,
}

impl PairingScratch {
    /// Runs `selection` over two non-empty sides.
    fn pair(&mut self, a: Bins<'_>, b: Bins<'_>, selection: Selection) {
        let (nearest, cutoff) = match selection {
            Selection::All => return self.select_all(a, b),
            Selection::Nearest => (true, None),
            Selection::NearestAndFurthest(cutoff) => (true, Some(cutoff)),
            Selection::Furthest(cutoff) => (false, Some(cutoff)),
        };
        if a.0.len() == 1 || b.0.len() == 1 {
            return self.scan(a, b, nearest, cutoff);
        }
        let largest = self.load(a, b);
        if nearest {
            self.select(b.0.len(), true, None);
        }
        // No pick of `N'` can beat the cutoff when no cell does.
        if let Some(cutoff) = cutoff.filter(|&c| largest > c) {
            self.select(b.0.len(), false, Some(cutoff));
        }
    }

    /// Fills the O(n·m) matrix and returns its largest distance.
    fn load(&mut self, a: Bins<'_>, b: Bins<'_>) -> f64 {
        self.dist.clear();
        self.dist.reserve(a.0.len() * b.0.len());
        let mut largest = f64::NEG_INFINITY;
        for pa in a.0.iter().zip(a.1) {
            for pb in b.0.iter().zip(b.1) {
                let d = distance(pa, pb);
                largest = largest.max(d);
                self.dist.push(d);
            }
        }
        largest
    }

    /// Greedy extremal matching over the loaded matrix of `m` columns:
    /// repeatedly takes the smallest (`want_min`) or largest remaining
    /// distance, first in row-major order on ties, and retires both
    /// bins. Appends to `N` (`want_min`) or `N'`, which ends at the
    /// first pick within `cutoff`: picks never grow, so none after it
    /// would be farther.
    fn select(&mut self, m: usize, want_min: bool, cutoff: Option<f64>) {
        let n = self.dist.len() / m;
        let out = if want_min {
            &mut self.primary
        } else {
            &mut self.furthest
        };
        let [a_used, b_used] = &mut self.used;
        a_used.clear();
        a_used.resize(n, false);
        b_used.clear();
        b_used.resize(m, false);
        for _ in 0..n.min(m) {
            let mut best: Option<(usize, usize, f64)> = None;
            for (ai, row) in self.dist.chunks_exact(m).enumerate() {
                if a_used[ai] {
                    continue;
                }
                for (bi, &dist) in row.iter().enumerate() {
                    if b_used[bi] {
                        continue;
                    }
                    let better = match best {
                        None => true,
                        Some((_, _, cur)) if want_min => dist < cur,
                        Some((_, _, cur)) => dist > cur,
                    };
                    if better {
                        best = Some((ai, bi, dist));
                    }
                }
            }
            let (ai, bi, dist) = best.expect("rounds bounded by remaining bins");
            if cutoff.is_some_and(|c| dist <= c) {
                break;
            }
            a_used[ai] = true;
            b_used[bi] = true;
            out.push(BinPair {
                e_idx: ai,
                i_idx: bi,
                dist_m: dist,
            });
        }
    }

    /// A single row or column in one scan, no matrix: `N` is its first
    /// smallest distance and `N'` its first largest — the one round the
    /// greedy loop would run, same tie rule.
    fn scan(&mut self, a: Bins<'_>, b: Bins<'_>, nearest: bool, cutoff: Option<f64>) {
        let row = a.0.len() == 1;
        let at = |k: usize| if row { (0, k) } else { (k, 0) };
        let dist = |k: usize| {
            let (ai, bi) = at(k);
            distance((&a.0[ai], &a.1[ai]), (&b.0[bi], &b.1[bi]))
        };
        let d0 = dist(0);
        let (mut near, mut far) = ((0, d0), (0, d0));
        for k in 1..a.0.len().max(b.0.len()) {
            let d = dist(k);
            if d < near.1 {
                near = (k, d);
            }
            if d > far.1 {
                far = (k, d);
            }
        }
        let pair = |(k, dist_m): (usize, f64)| {
            let (e_idx, i_idx) = at(k);
            BinPair {
                e_idx,
                i_idx,
                dist_m,
            }
        };
        if nearest {
            self.primary.push(pair(near));
        }
        if cutoff.is_some_and(|c| far.1 > c) {
            self.furthest.push(pair(far));
        }
    }

    /// Appends every cell pair to the primary list, row-major.
    fn select_all(&mut self, a: Bins<'_>, b: Bins<'_>) {
        for (e_idx, pa) in a.0.iter().zip(a.1).enumerate() {
            for (i_idx, pb) in b.0.iter().zip(b.1).enumerate() {
                self.primary.push(BinPair {
                    e_idx,
                    i_idx,
                    dist_m: distance(pa, pb),
                });
            }
        }
    }
}

/// The pairing kernel: runs the requested selections over the window's
/// distances — one matrix, built once, for a window of at least two
/// rows and two columns, one scan otherwise — and hands `f` the primary
/// list (`N`, or the Cartesian product) and the `N'` list (each empty
/// unless asked for). The lists live in the calling thread's scratch
/// buffers, so `f` must not pair another window.
pub(crate) fn with_window_pairs<R>(
    a: Bins<'_>,
    b: Bins<'_>,
    selection: Selection,
    f: impl FnOnce(&[BinPair], &[BinPair]) -> R,
) -> R {
    SCRATCH.with(|scratch| {
        let mut s = scratch.borrow_mut();
        s.primary.clear();
        s.furthest.clear();
        if !a.0.is_empty() && !b.0.is_empty() {
            s.pair(a, b, selection);
        }
        f(&s.primary, &s.furthest)
    })
}

/// [`with_window_pairs`] over bare cells, geometry from the memo.
fn cell_pairs(
    a: &[CellId],
    b: &[CellId],
    selection: Selection,
    pick: for<'p> fn(&'p [BinPair], &'p [BinPair]) -> &'p [BinPair],
) -> Vec<BinPair> {
    let (ga, gb): (Vec<_>, Vec<_>) = with_geometry_memo(|memo| {
        let mut geometry = |cells: &[CellId]| cells.iter().map(|&c| memo.of(c)).collect();
        (geometry(a), geometry(b))
    });
    with_window_pairs((a, &ga), (b, &gb), selection, |primary, furthest| {
        pick(primary, furthest).to_vec()
    })
}

/// The paper's pairing function `N_w` over two windows' cells: greedy
/// globally-closest pairs, each bin used at most once, `min(|a|, |b|)`
/// pairs total.
pub fn mutually_nearest(a: &[CellId], b: &[CellId]) -> Vec<BinPair> {
    cell_pairs(a, b, Selection::Nearest, |nearest, _| nearest)
}

/// The paper's `N'_w`: greedy globally-furthest pairs, used for the
/// optional alibi-detection pass.
pub fn mutually_furthest(a: &[CellId], b: &[CellId]) -> Vec<BinPair> {
    let whole = Selection::Furthest(f64::NEG_INFINITY);
    cell_pairs(a, b, whole, |_, furthest| furthest)
}

/// The Cartesian product of bins — the "All Pairs" ablation.
pub fn all_pairs(a: &[CellId], b: &[CellId]) -> Vec<BinPair> {
    cell_pairs(a, b, Selection::All, |all, _| all)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use geocell::{bounded_distance_m, cell_center_and_radius, LatLng};

    fn bins(coords: &[(f64, f64)]) -> Vec<CellId> {
        coords
            .iter()
            .map(|&(lat, lng)| CellId::from_latlng(LatLng::from_degrees(lat, lng), 14))
            .collect()
    }

    /// The prefix of `N'` farther apart than `cutoff`.
    fn furthest_beyond(a: &[CellId], b: &[CellId], cutoff: f64) -> Vec<BinPair> {
        cell_pairs(a, b, Selection::Furthest(cutoff), |_, furthest| furthest)
    }

    fn geometry(cells: &[CellId]) -> Vec<CellGeometry> {
        cells.iter().map(|&c| CellGeometry::of(c)).collect()
    }

    /// The kernel this module replaced, kept as the oracle: one distance
    /// matrix and one set of flags allocated per call.
    pub(crate) fn extremal_pairs_oracle(
        a: &[CellId],
        b: &[CellId],
        want_min: bool,
    ) -> Vec<BinPair> {
        let (n, m) = (a.len(), b.len());
        let geom = |cells: &[CellId]| -> Vec<_> {
            cells
                .iter()
                .map(|&c| (c, cell_center_and_radius(c)))
                .collect()
        };
        let (ga, gb) = (geom(a), geom(b));
        let mut d = Vec::with_capacity(n * m);
        for (ca, pa) in &ga {
            for (cb, pb) in &gb {
                d.push(if ca == cb {
                    0.0
                } else {
                    bounded_distance_m(pa, pb)
                });
            }
        }
        let mut a_used = vec![false; n];
        let mut b_used = vec![false; m];
        let mut out = Vec::new();
        for _ in 0..n.min(m) {
            let mut best: Option<(usize, usize, f64)> = None;
            for ai in (0..n).filter(|&ai| !a_used[ai]) {
                for bi in (0..m).filter(|&bi| !b_used[bi]) {
                    let dist = d[ai * m + bi];
                    let better = match best {
                        None => true,
                        Some((_, _, cur)) => {
                            if want_min {
                                dist < cur
                            } else {
                                dist > cur
                            }
                        }
                    };
                    if better {
                        best = Some((ai, bi, dist));
                    }
                }
            }
            let (ai, bi, dist) = best.expect("rounds bounded by remaining bins");
            a_used[ai] = true;
            b_used[bi] = true;
            out.push(BinPair {
                e_idx: ai,
                i_idx: bi,
                dist_m: dist,
            });
        }
        out
    }

    /// The kernel — one matrix, or one scan for a single row or column,
    /// with `N'` whole or cut — against the two-call oracle on random
    /// cell columns drawn from a small grid — so cells repeat within and
    /// across sides and distances tie — run back to back on this
    /// thread's one scratch through sizes that grow *and* shrink (1×1,
    /// n ≠ m, an empty side), so a stale `used` flag, pair or matrix
    /// stride from the previous window would show.
    #[test]
    fn one_matrix_kernel_matches_two_call_oracle() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 33) % n
        };
        let sizes = [
            (1, 1),
            (5, 2),
            (2, 5),
            (1, 4),
            (6, 6),
            (0, 3),
            (3, 1),
            (1, 1),
            (7, 3),
            (2, 2),
        ];
        let bits = |pairs: &[BinPair]| -> Vec<(usize, usize, u64)> {
            pairs
                .iter()
                .map(|p| (p.e_idx, p.i_idx, p.dist_m.to_bits()))
                .collect()
        };
        for round in 0..40 {
            for &(n, m) in &sizes {
                let mut column = |len: usize| -> Vec<CellId> {
                    (0..len)
                        .map(|_| {
                            // A 3×3 grid of equally spaced cells, one far
                            // outlier: ties and repeats are the norm.
                            let (i, j) = (next(3) as f64, next(3) as f64);
                            let far = if next(8) == 0 { 5.0 } else { 0.0 };
                            let at = LatLng::from_degrees(10.0 + 0.1 * i + far, 20.0 + 0.1 * j);
                            CellId::from_latlng(at, 12)
                        })
                        .collect()
                };
                let (a, b) = (column(n), column(m));
                let (ga, gb) = (geometry(&a), geometry(&b));
                let nearest = extremal_pairs_oracle(&a, &b, true);
                let furthest = extremal_pairs_oracle(&a, &b, false);
                let ctx = format!("round {round}, {n}×{m}");
                let full = Selection::NearestAndFurthest(f64::NEG_INFINITY);
                with_window_pairs((&a, &ga), (&b, &gb), full, |n1, f1| {
                    assert_eq!(bits(n1), bits(&nearest), "N, {ctx}");
                    assert_eq!(bits(f1), bits(&furthest), "N', {ctx}");
                });
                with_window_pairs((&a, &ga), (&b, &gb), Selection::Nearest, |n1, f1| {
                    assert_eq!(bits(n1), bits(&nearest), "N alone, {ctx}");
                    assert!(f1.is_empty(), "N' not asked for, {ctx}");
                });
                // Cut at each distance of `N'` in turn, and between
                // them: the cut list is the prefix farther than the cut.
                for cutoff in furthest.iter().flat_map(|p| [p.dist_m, p.dist_m - 1.0]) {
                    let beyond: Vec<BinPair> = furthest
                        .iter()
                        .copied()
                        .take_while(|p| p.dist_m > cutoff)
                        .collect();
                    let cut = Selection::NearestAndFurthest(cutoff);
                    with_window_pairs((&a, &ga), (&b, &gb), cut, |n1, f1| {
                        assert_eq!(bits(n1), bits(&nearest), "N, cut {cutoff}, {ctx}");
                        assert_eq!(bits(f1), bits(&beyond), "N' cut {cutoff}, {ctx}");
                    });
                    assert_eq!(
                        bits(&furthest_beyond(&a, &b, cutoff)),
                        bits(&beyond),
                        "{ctx}"
                    );
                }
                assert_eq!(
                    bits(&mutually_furthest(&a, &b)),
                    bits(&furthest),
                    "N' alone, {ctx}"
                );
                assert_eq!(bits(&mutually_nearest(&a, &b)), bits(&nearest), "{ctx}");
                let all = all_pairs(&a, &b);
                assert_eq!(all.len(), n * m, "{ctx}");
                for (k, p) in all.iter().enumerate() {
                    assert_eq!((p.e_idx, p.i_idx), (k / m, k % m), "{ctx}");
                }
            }
        }
    }

    /// A pick exactly at the cutoff is within it: `is_alibi` is strict,
    /// so the cut `N'` ends there, in the greedy loop and in the scan.
    #[test]
    fn furthest_cut_drops_a_pick_exactly_at_the_cutoff() {
        let base = LatLng::from_degrees(37.0, -122.0);
        let at = |m: f64, bearing: f64| {
            let p = base.offset(m, bearing);
            (p.lat_deg(), p.lng_deg())
        };
        let a = bins(&[at(0.0, 0.0), at(40_000.0, 0.0)]);
        let b = bins(&[at(10_000.0, 1.0), at(90_000.0, 2.0)]);
        let full = mutually_furthest(&a, &b);
        assert_eq!(full.len(), 2);
        assert!(full[0].dist_m > full[1].dist_m, "{full:?}");
        let cutoff = full[1].dist_m;
        assert!(!crate::proximity::is_alibi(cutoff, cutoff));
        assert_eq!(furthest_beyond(&a, &b, cutoff), full[..1]);
        assert_eq!(furthest_beyond(&a, &b, full[0].dist_m), []);
        let row = mutually_furthest(&a[..1], &b);
        assert_eq!(furthest_beyond(&a[..1], &b, row[0].dist_m), []);
        assert_eq!(furthest_beyond(&a[..1], &b, row[0].dist_m - 1.0), row);
    }

    #[test]
    fn empty_sides_yield_no_pairs() {
        let a = bins(&[(37.0, -122.0)]);
        assert!(mutually_nearest(&a, &[]).is_empty());
        assert!(mutually_nearest(&[], &a).is_empty());
        assert!(mutually_furthest(&[], &[]).is_empty());
        assert!(all_pairs(&a, &[]).is_empty());
    }

    #[test]
    fn pair_count_is_min_of_sides() {
        let a = bins(&[(37.0, -122.0), (37.5, -122.5), (38.0, -121.0)]);
        let b = bins(&[(37.0, -122.0), (10.0, 10.0)]);
        assert_eq!(mutually_nearest(&a, &b).len(), 2);
        assert_eq!(mutually_furthest(&a, &b).len(), 2);
        assert_eq!(all_pairs(&a, &b).len(), 6);
    }

    #[test]
    fn nearest_prefers_identical_cells() {
        let a = bins(&[(37.0, -122.0), (40.0, -100.0)]);
        let b = bins(&[(40.0, -100.0), (37.0, -122.0)]);
        let pairs = mutually_nearest(&a, &b);
        assert_eq!(pairs.len(), 2);
        for p in &pairs {
            assert_eq!(p.dist_m, 0.0, "identical cells should pair at distance 0");
        }
        // a[0] must pair with b[1], a[1] with b[0].
        assert!(pairs.iter().any(|p| p.e_idx == 0 && p.i_idx == 1));
        assert!(pairs.iter().any(|p| p.e_idx == 1 && p.i_idx == 0));
    }

    #[test]
    fn each_bin_used_at_most_once() {
        let a = bins(&[(37.0, -122.0), (37.1, -122.1), (37.2, -122.2)]);
        let b = bins(&[(37.05, -122.05), (37.15, -122.15)]);
        for pairs in [mutually_nearest(&a, &b), mutually_furthest(&a, &b)] {
            let mut e_seen = std::collections::HashSet::new();
            let mut i_seen = std::collections::HashSet::new();
            for p in &pairs {
                assert!(e_seen.insert(p.e_idx), "e bin reused");
                assert!(i_seen.insert(p.i_idx), "i bin reused");
            }
        }
    }

    #[test]
    fn furthest_catches_the_paper_alibi_example() {
        // Paper §3.1 example: e1 has a single bin b1; e2 has b2 (close)
        // and b3 (beyond runaway). MNN returns (b1,b2); MFN returns
        // (b1,b3), exposing the alibi.
        let b1 = LatLng::from_degrees(37.0, -122.0);
        let b2 = b1.offset(5_000.0, 1.0);
        let b3 = b1.offset(80_000.0, 2.0);
        let e1 = bins(&[(b1.lat_deg(), b1.lng_deg())]);
        let e2 = bins(&[(b2.lat_deg(), b2.lng_deg()), (b3.lat_deg(), b3.lng_deg())]);
        let nearest = mutually_nearest(&e1, &e2);
        assert_eq!(nearest.len(), 1);
        assert!(nearest[0].dist_m < 10_000.0, "MNN picks the close bin");
        let furthest = mutually_furthest(&e1, &e2);
        assert_eq!(furthest.len(), 1);
        assert!(furthest[0].dist_m > 60_000.0, "MFN exposes the distant bin");
    }

    #[test]
    fn cached_geometry_matches_direct_computation() {
        let mut cells = Vec::new();
        for &(lat, lng) in &[(37.0, -122.0), (37.3, -121.8), (10.0, 10.0), (-33.0, 151.0)] {
            for level in [8u8, 12, 16] {
                let c = CellId::from_latlng(LatLng::from_degrees(lat, lng), level);
                let (center, radius_m) = cell_center_and_radius(c);
                // First call populates the memo, second hits it; both must
                // be bit-identical to the uncached computation, the
                // cached cosine included.
                for cached in [cached_cell_geometry(c), cached_cell_geometry(c)] {
                    assert_eq!(cached.center, center);
                    assert_eq!(cached.radius_m.to_bits(), radius_m.to_bits());
                    assert_eq!(cached.cos_lat.to_bits(), center.lat_rad().cos().to_bits());
                }
                cells.push(c);
            }
        }
        // The distance from cached cosines is the uncached bound, bit for bit.
        for &a in &cells {
            for &b in &cells {
                let direct =
                    bounded_distance_m(&cell_center_and_radius(a), &cell_center_and_radius(b));
                let cached = cached_cell_geometry(a).bounded_distance_m(&cached_cell_geometry(b));
                assert_eq!(cached.to_bits(), direct.to_bits(), "{a:?} {b:?}");
            }
        }
    }

    #[test]
    fn nearest_total_distance_not_worse_than_reversed() {
        // Greedy-nearest is symmetric in argument order.
        let a = bins(&[(37.0, -122.0), (36.0, -121.0)]);
        let b = bins(&[(36.5, -121.5), (37.2, -122.2), (10.0, 10.0)]);
        let ab: f64 = mutually_nearest(&a, &b).iter().map(|p| p.dist_m).sum();
        let ba: f64 = mutually_nearest(&b, &a).iter().map(|p| p.dist_m).sum();
        assert!((ab - ba).abs() < 1e-6);
    }
}
