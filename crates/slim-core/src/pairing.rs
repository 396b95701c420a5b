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
//! Each side is one window's cell column
//! ([`crate::arena::EntityView::window_run`]); pairing reads nothing
//! else. The kernel reads each cell's geometry from a per-thread memo
//! keyed under [`crate::fasthash`]: center, exact radius, and the cosine of
//! the center's latitude ([`CellGeometry`]), so a distance is one
//! haversine with no `cos` and no SipHash probe. The haversine is the
//! body `LatLng::distance_m` runs, so every distance keeps the bits of
//! the uncached [`geocell::bounded_distance_m`].

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
    static CELL_GEOMETRY: RefCell<FastMap<CellId, CellGeometry>> =
        RefCell::new(FastMap::default());

    /// The pairing kernel's working buffers. Same lifetime as the memo
    /// above: they grow to the largest window a thread has paired and
    /// are reused from then on, so a warm thread pairs a window without
    /// touching the allocator.
    static SCRATCH: RefCell<PairingScratch> = RefCell::new(PairingScratch::default());
}

/// Memoized [`CellGeometry::of`].
pub fn cached_cell_geometry(cell: CellId) -> CellGeometry {
    CELL_GEOMETRY.with(|memo| {
        let mut memo = memo.borrow_mut();
        if memo.len() >= GEOMETRY_CACHE_CAP {
            memo.clear();
        }
        *memo.entry(cell).or_insert_with(|| CellGeometry::of(cell))
    })
}

/// Which pair lists [`with_window_pairs`] selects from a window's
/// distance matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Selection {
    /// `N` only.
    Nearest,
    /// `N`, then `N'` over the same matrix (the alibi pass).
    NearestAndFurthest,
    /// `N'` only.
    Furthest,
    /// The Cartesian product.
    All,
}

/// One window's geometry, distance matrix and selected pairs, in
/// buffers that outlive the window (see `SCRATCH`). Every buffer is
/// cleared before it is refilled — the pair lists by
/// [`with_window_pairs`], the rest where they are filled — so nothing
/// of the previous window (a `used` flag, a stride, a pair) is ever
/// read.
#[derive(Default)]
struct PairingScratch {
    /// Per side: each bin's cell with its geometry.
    geom: [Vec<(CellId, CellGeometry)>; 2],
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
    /// Looks up each cell's center + radius once per side — O(n + m)
    /// probes of the thread-local memo — and fills the O(n·m) matrix.
    fn load(&mut self, a: &[CellId], b: &[CellId]) {
        let [ga, gb] = &mut self.geom;
        ga.clear();
        ga.extend(a.iter().map(|&c| (c, cached_cell_geometry(c))));
        gb.clear();
        gb.extend(b.iter().map(|&c| (c, cached_cell_geometry(c))));
        self.dist.clear();
        self.dist.reserve(ga.len() * gb.len());
        for (ca, pa) in ga.iter() {
            for (cb, pb) in gb.iter() {
                // Same level on both sides: equality is the only containment.
                self.dist.push(if ca == cb {
                    0.0
                } else {
                    pa.bounded_distance_m(pb)
                });
            }
        }
    }

    /// Greedy extremal matching over the loaded matrix: repeatedly takes
    /// the smallest (`want_min`) or largest remaining distance, first in
    /// row-major order on ties, and retires both bins. Appends to `N`
    /// (`want_min`) or `N'`.
    fn select(&mut self, want_min: bool) {
        let (n, m) = (self.geom[0].len(), self.geom[1].len());
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
            a_used[ai] = true;
            b_used[bi] = true;
            out.push(BinPair {
                e_idx: ai,
                i_idx: bi,
                dist_m: dist,
            });
        }
    }

    /// Appends every cell of the loaded matrix to the primary list as a
    /// pair, row-major.
    fn select_all(&mut self) {
        let m = self.geom[1].len();
        self.primary
            .extend(self.dist.iter().enumerate().map(|(k, &dist_m)| BinPair {
                e_idx: k / m,
                i_idx: k % m,
                dist_m,
            }));
    }
}

/// The pairing kernel: builds the window's distance matrix **once** and
/// runs every requested selection over it, handing `f` the primary list
/// (`N`, or the Cartesian product) and the `N'` list (each empty unless
/// asked for). The lists live in the calling thread's scratch buffers,
/// so `f` must not pair another window.
pub(crate) fn with_window_pairs<R>(
    a: &[CellId],
    b: &[CellId],
    selection: Selection,
    f: impl FnOnce(&[BinPair], &[BinPair]) -> R,
) -> R {
    SCRATCH.with(|scratch| {
        let mut s = scratch.borrow_mut();
        s.load(a, b);
        s.primary.clear();
        s.furthest.clear();
        match selection {
            Selection::All => s.select_all(),
            Selection::Nearest => s.select(true),
            Selection::NearestAndFurthest => {
                s.select(true);
                s.select(false);
            }
            Selection::Furthest => s.select(false),
        }
        f(&s.primary, &s.furthest)
    })
}

/// The paper's pairing function `N_w` over two windows' cells: greedy
/// globally-closest pairs, each bin used at most once, `min(|a|, |b|)`
/// pairs total.
pub fn mutually_nearest(a: &[CellId], b: &[CellId]) -> Vec<BinPair> {
    with_window_pairs(a, b, Selection::Nearest, |nearest, _| nearest.to_vec())
}

/// The paper's `N'_w`: greedy globally-furthest pairs, used for the
/// optional alibi-detection pass.
pub fn mutually_furthest(a: &[CellId], b: &[CellId]) -> Vec<BinPair> {
    with_window_pairs(a, b, Selection::Furthest, |_, furthest| furthest.to_vec())
}

/// The Cartesian product of bins — the "All Pairs" ablation.
pub fn all_pairs(a: &[CellId], b: &[CellId]) -> Vec<BinPair> {
    with_window_pairs(a, b, Selection::All, |all, _| all.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use geocell::{bounded_distance_m, cell_center_and_radius, LatLng};

    fn bins(coords: &[(f64, f64)]) -> Vec<CellId> {
        coords
            .iter()
            .map(|&(lat, lng)| CellId::from_latlng(LatLng::from_degrees(lat, lng), 14))
            .collect()
    }

    /// The kernel this module replaced, kept as the oracle: one distance
    /// matrix and one set of flags allocated per call.
    fn extremal_pairs_oracle(a: &[CellId], b: &[CellId], want_min: bool) -> Vec<BinPair> {
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

    /// The one-matrix kernel against the two-call oracle on random cell
    /// columns drawn from a small grid — so cells repeat within and
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
                let nearest = extremal_pairs_oracle(&a, &b, true);
                let furthest = extremal_pairs_oracle(&a, &b, false);
                let ctx = format!("round {round}, {n}×{m}");
                with_window_pairs(&a, &b, Selection::NearestAndFurthest, |n1, f1| {
                    assert_eq!(bits(n1), bits(&nearest), "N, {ctx}");
                    assert_eq!(bits(f1), bits(&furthest), "N', {ctx}");
                });
                with_window_pairs(&a, &b, Selection::Nearest, |n1, f1| {
                    assert_eq!(bits(n1), bits(&nearest), "N alone, {ctx}");
                    assert!(f1.is_empty(), "N' not asked for, {ctx}");
                });
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
