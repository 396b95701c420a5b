//! Distance estimation between cells.
//!
//! SLIM's proximity function needs `d(c1, c2)`: "the minimum geographical
//! distance between two grid cells" (paper Eq. 1). We compute a
//! conservative lower bound: the great-circle distance between cell
//! centers minus both cells' circumradii, clamped at zero. This is exact
//! for identical cells (0) and asymptotically exact for distant cells,
//! which are the two regimes that drive the similarity score (full award
//! at distance 0, alibi penalty beyond the runaway distance).

use crate::cellid::CellId;
use crate::latlng::{haversine_m, LatLng};

/// Mean Earth radius in metres (the value used by S2).
pub const EARTH_RADIUS_M: f64 = 6_371_010.0;

/// Maximum cell-diagonal metric derivative for the quadratic projection,
/// taken from S2 (`kMaxDiag`). The diagonal of a level-`k` cell is at most
/// `MAX_DIAG_DERIV * 2^-k` radians.
const MAX_DIAG_DERIV: f64 = 1.219_327_231_124_852_6;

/// A loose analytic upper bound on a level-`level` cell's circumradius,
/// in metres: one full max-diagonal. Useful for sizing estimates; the
/// distance computation below uses the exact per-cell radius instead.
pub fn cell_circumradius_m(level: u8) -> f64 {
    MAX_DIAG_DERIV * (0.5f64).powi(level as i32) * EARTH_RADIUS_M
}

/// Exact circumradius of one cell: the farthest vertex from the cell's
/// center. Cell edges are great-circle arcs, so the cell is a convex
/// spherical quadrilateral and its farthest point from any interior
/// point is a vertex.
pub fn exact_cell_radius_m(cell: CellId) -> f64 {
    let center = cell.center();
    cell.vertices()
        .iter()
        .map(|v| center.distance_m(v))
        .fold(0.0, f64::max)
}

/// A cell's center and exact circumradius, bundled for callers that
/// compare one cell against many (computing vertices once per cell
/// instead of once per pair cuts the pairing hot path ~10×).
pub fn cell_center_and_radius(cell: CellId) -> (crate::latlng::LatLng, f64) {
    (cell.center(), exact_cell_radius_m(cell))
}

/// Distance lower bound from precomputed `(center, radius)` pairs; the
/// cells must be distinct and non-nested (callers working at one fixed
/// level need only check equality).
pub fn bounded_distance_m(
    a: &(crate::latlng::LatLng, f64),
    b: &(crate::latlng::LatLng, f64),
) -> f64 {
    // Radii are summed first so the result is exactly symmetric in the
    // arguments (IEEE addition commutes; chained subtraction does not).
    (a.0.distance_m(&b.0) - (a.1 + b.1)).max(0.0)
}

/// Everything [`bounded_distance_m`] reads of one cell — center, exact
/// circumradius, and the cosine of the center's latitude — computed
/// once, for callers that memoize per cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellGeometry {
    /// The cell's center.
    pub center: LatLng,
    /// The cell's exact circumradius, metres.
    pub radius_m: f64,
    /// `cos` of the center's latitude.
    pub cos_lat: f64,
}

impl CellGeometry {
    /// The geometry of `cell`.
    pub fn of(cell: CellId) -> Self {
        let (center, radius_m) = cell_center_and_radius(cell);
        Self {
            center,
            radius_m,
            cos_lat: center.lat_rad().cos(),
        }
    }

    /// [`bounded_distance_m`] from the cached cosines: the same
    /// haversine body, so the same bits.
    pub fn bounded_distance_m(&self, other: &CellGeometry) -> f64 {
        let d = haversine_m(&self.center, self.cos_lat, &other.center, other.cos_lat);
        (d - (self.radius_m + other.radius_m)).max(0.0)
    }
}

/// Lower bound on the minimum great-circle distance between two cells, in
/// metres: center distance minus both exact circumradii (triangle
/// inequality on the sphere). Returns 0 when either cell contains the
/// other (including equality).
pub fn cell_min_distance_m(a: CellId, b: CellId) -> f64 {
    if a.contains(b) || b.contains(a) {
        return 0.0;
    }
    bounded_distance_m(&cell_center_and_radius(a), &cell_center_and_radius(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latlng::LatLng;

    #[test]
    fn same_cell_distance_zero() {
        let c = CellId::from_latlng(LatLng::from_degrees(37.0, -122.0), 12);
        assert_eq!(cell_min_distance_m(c, c), 0.0);
    }

    #[test]
    fn nested_cells_distance_zero() {
        let ll = LatLng::from_degrees(37.0, -122.0);
        let coarse = CellId::from_latlng(ll, 8);
        let fine = CellId::from_latlng(ll, 16);
        assert_eq!(cell_min_distance_m(coarse, fine), 0.0);
        assert_eq!(cell_min_distance_m(fine, coarse), 0.0);
    }

    #[test]
    fn distance_is_lower_bound_on_point_distance() {
        // Any two points inside the cells must be at least this far apart.
        let a_pt = LatLng::from_degrees(37.7749, -122.4194);
        let b_pt = LatLng::from_degrees(34.0522, -118.2437);
        for level in [8u8, 12, 16, 20] {
            let a = CellId::from_latlng(a_pt, level);
            let b = CellId::from_latlng(b_pt, level);
            let bound = cell_min_distance_m(a, b);
            let actual = a_pt.distance_m(&b_pt);
            assert!(
                bound <= actual,
                "level {level}: bound {bound} exceeds point distance {actual}"
            );
            // At fine levels the bound should be close to the true distance.
            if level >= 12 {
                assert!(actual - bound < 2.0 * cell_circumradius_m(level) + 1.0);
            }
        }
    }

    #[test]
    fn circumradius_halves_per_level() {
        for level in 0..30u8 {
            let r0 = cell_circumradius_m(level);
            let r1 = cell_circumradius_m(level + 1);
            assert!((r0 / r1 - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn circumradius_magnitudes_are_sensible() {
        // Level 12 cells are a few km across; the conservative radius is
        // one diagonal, ~2 km.
        let r12 = cell_circumradius_m(12);
        assert!(r12 > 1_000.0 && r12 < 4_000.0, "r12 = {r12}");
        // Level 30 leaf cells ~ centimetres.
        let r30 = cell_circumradius_m(30);
        assert!(r30 < 0.02, "r30 = {r30}");
    }

    #[test]
    fn far_cells_distance_close_to_center_distance() {
        let sf = LatLng::from_degrees(37.7749, -122.4194);
        let nyc = LatLng::from_degrees(40.7128, -74.0060);
        let a = CellId::from_latlng(sf, 14);
        let b = CellId::from_latlng(nyc, 14);
        let d = cell_min_distance_m(a, b);
        let point_d = sf.distance_m(&nyc);
        assert!((d - point_d).abs() / point_d < 0.001);
    }

    #[test]
    fn adjacent_fine_cells_have_small_distance() {
        // Two points ~300 m apart at level 16 (cell size ~150 m): the bound
        // must be small (possibly 0) but definitely below the point distance.
        let a_pt = LatLng::from_degrees(37.7749, -122.4194);
        let b_pt = a_pt.offset(300.0, std::f64::consts::FRAC_PI_2);
        let a = CellId::from_latlng(a_pt, 16);
        let b = CellId::from_latlng(b_pt, 16);
        let d = cell_min_distance_m(a, b);
        assert!(d <= a_pt.distance_m(&b_pt));
        assert!(d < 400.0);
    }
}
