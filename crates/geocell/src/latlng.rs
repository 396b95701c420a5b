//! Geodetic latitude/longitude coordinates and great-circle distance.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::distance::EARTH_RADIUS_M;
use crate::point::Point;

/// A point on the Earth's surface expressed as latitude/longitude in
/// radians.
///
/// Latitude is clamped to `[-π/2, π/2]` and longitude normalized to
/// `[-π, π]` on construction via [`LatLng::from_degrees`] /
/// [`LatLng::from_radians`], so every constructed value is valid.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatLng {
    lat_rad: f64,
    lng_rad: f64,
}

impl LatLng {
    /// Creates a `LatLng` from degrees, clamping latitude to ±90° and
    /// wrapping longitude into (−180°, 180°].
    pub fn from_degrees(lat_deg: f64, lng_deg: f64) -> Self {
        Self::from_radians(lat_deg.to_radians(), lng_deg.to_radians())
    }

    /// Creates a `LatLng` from radians, clamping/normalizing as in
    /// [`LatLng::from_degrees`].
    pub fn from_radians(lat_rad: f64, lng_rad: f64) -> Self {
        use std::f64::consts::PI;
        let lat = lat_rad.clamp(-PI / 2.0, PI / 2.0);
        let mut lng = lng_rad;
        if !(-PI..=PI).contains(&lng) {
            lng = lng.rem_euclid(2.0 * PI);
            if lng > PI {
                lng -= 2.0 * PI;
            }
        }
        Self {
            lat_rad: lat,
            lng_rad: lng,
        }
    }

    /// Latitude in radians.
    #[inline]
    pub fn lat_rad(&self) -> f64 {
        self.lat_rad
    }

    /// Longitude in radians.
    #[inline]
    pub fn lng_rad(&self) -> f64 {
        self.lng_rad
    }

    /// Latitude in degrees.
    #[inline]
    pub fn lat_deg(&self) -> f64 {
        self.lat_rad.to_degrees()
    }

    /// Longitude in degrees.
    #[inline]
    pub fn lng_deg(&self) -> f64 {
        self.lng_rad.to_degrees()
    }

    /// Converts to a unit vector on the sphere.
    pub fn to_point(self) -> Point {
        let (sin_lat, cos_lat) = self.lat_rad.sin_cos();
        let (sin_lng, cos_lng) = self.lng_rad.sin_cos();
        Point::new(cos_lat * cos_lng, cos_lat * sin_lng, sin_lat)
    }

    /// Great-circle (haversine) distance to `other` in metres.
    ///
    /// Numerically stable for both tiny and antipodal separations.
    pub fn distance_m(&self, other: &LatLng) -> f64 {
        haversine_m(self, self.lat_rad.cos(), other, other.lat_rad.cos())
    }

    /// Returns the point obtained by moving `dist_m` metres from `self`
    /// along the initial bearing `bearing_rad` (0 = north, π/2 = east),
    /// following a great circle.
    pub fn offset(&self, dist_m: f64, bearing_rad: f64) -> LatLng {
        let ang = dist_m / EARTH_RADIUS_M;
        let (sin_lat1, cos_lat1) = self.lat_rad.sin_cos();
        let (sin_ang, cos_ang) = ang.sin_cos();
        let sin_lat2 = sin_lat1 * cos_ang + cos_lat1 * sin_ang * bearing_rad.cos();
        let lat2 = sin_lat2.clamp(-1.0, 1.0).asin();
        let y = bearing_rad.sin() * sin_ang * cos_lat1;
        let x = cos_ang - sin_lat1 * sin_lat2;
        let lng2 = self.lng_rad + y.atan2(x);
        LatLng::from_radians(lat2, lng2)
    }
}

/// The haversine body behind [`LatLng::distance_m`], with each point's
/// `cos(lat)` passed in: a caller that caches the cosines (one per cell,
/// see [`crate::CellGeometry`]) runs the same operations in the same
/// order, so it gets the same bits without the two `cos` calls.
pub(crate) fn haversine_m(a: &LatLng, cos_lat_a: f64, b: &LatLng, cos_lat_b: f64) -> f64 {
    let dlat = b.lat_rad - a.lat_rad;
    let dlng = b.lng_rad - a.lng_rad;
    let h = (dlat / 2.0).sin().powi(2) + cos_lat_a * cos_lat_b * (dlng / 2.0).sin().powi(2);
    let c = 2.0 * h.sqrt().clamp(0.0, 1.0).asin();
    EARTH_RADIUS_M * c
}

impl fmt::Display for LatLng {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.6}, {:.6})", self.lat_deg(), self.lng_deg())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-9;

    #[test]
    fn from_degrees_roundtrip() {
        let ll = LatLng::from_degrees(37.7749, -122.4194);
        assert!((ll.lat_deg() - 37.7749).abs() < EPS);
        assert!((ll.lng_deg() - (-122.4194)).abs() < EPS);
    }

    #[test]
    fn latitude_is_clamped() {
        let ll = LatLng::from_degrees(95.0, 0.0);
        assert!((ll.lat_deg() - 90.0).abs() < EPS);
        let ll = LatLng::from_degrees(-100.0, 0.0);
        assert!((ll.lat_deg() + 90.0).abs() < EPS);
    }

    #[test]
    fn longitude_wraps() {
        let ll = LatLng::from_degrees(0.0, 190.0);
        assert!((ll.lng_deg() + 170.0).abs() < 1e-6, "got {}", ll.lng_deg());
        let ll = LatLng::from_degrees(0.0, -190.0);
        assert!((ll.lng_deg() - 170.0).abs() < 1e-6);
    }

    #[test]
    fn distance_to_self_is_zero() {
        let ll = LatLng::from_degrees(51.5, -0.12);
        assert!(ll.distance_m(&ll) < EPS);
    }

    #[test]
    fn distance_sf_to_la_plausible() {
        // SF to LA is roughly 559 km great-circle.
        let sf = LatLng::from_degrees(37.7749, -122.4194);
        let la = LatLng::from_degrees(34.0522, -118.2437);
        let d = sf.distance_m(&la);
        assert!((d - 559_000.0).abs() < 10_000.0, "distance {d}");
    }

    #[test]
    fn distance_is_symmetric() {
        let a = LatLng::from_degrees(10.0, 20.0);
        let b = LatLng::from_degrees(-33.0, 151.0);
        assert!((a.distance_m(&b) - b.distance_m(&a)).abs() < 1e-6);
    }

    #[test]
    fn quarter_meridian() {
        let equator = LatLng::from_degrees(0.0, 0.0);
        let pole = LatLng::from_degrees(90.0, 0.0);
        let d = equator.distance_m(&pole);
        let expected = EARTH_RADIUS_M * std::f64::consts::FRAC_PI_2;
        assert!((d - expected).abs() < 1.0);
    }

    #[test]
    fn antipodal_distance() {
        let a = LatLng::from_degrees(0.0, 0.0);
        let b = LatLng::from_degrees(0.0, 180.0);
        let d = a.distance_m(&b);
        let expected = EARTH_RADIUS_M * std::f64::consts::PI;
        assert!((d - expected).abs() < 1.0);
    }

    #[test]
    fn to_point_is_unit_length() {
        for &(lat, lng) in &[(0.0, 0.0), (45.0, 45.0), (-89.0, 179.0), (13.3, -77.7)] {
            let p = LatLng::from_degrees(lat, lng).to_point();
            assert!((p.norm() - 1.0).abs() < EPS);
        }
    }

    #[test]
    fn offset_north_moves_latitude() {
        let start = LatLng::from_degrees(0.0, 0.0);
        let moved = start.offset(111_195.0, 0.0); // ~1 degree of latitude
        assert!((moved.lat_deg() - 1.0).abs() < 0.01, "{}", moved.lat_deg());
        assert!(moved.lng_deg().abs() < 1e-9);
    }

    #[test]
    fn offset_distance_consistency() {
        let start = LatLng::from_degrees(37.0, -122.0);
        for bearing_deg in [0.0, 45.0, 90.0, 180.0, 270.0] {
            let moved = start.offset(5_000.0, f64::to_radians(bearing_deg));
            let d = start.distance_m(&moved);
            assert!((d - 5_000.0).abs() < 1.0, "bearing {bearing_deg}: {d}");
        }
    }
}
