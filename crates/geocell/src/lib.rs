//! # geocell — hierarchical spherical cell decomposition
//!
//! A from-scratch, dependency-light reimplementation of the parts of the
//! Google S2 geometry library that the SLIM mobility-linkage paper
//! (SIGMOD'20) relies on:
//!
//! * a 31-level hierarchical decomposition of the Earth's surface into
//!   cells, addressed by compact 64-bit [`CellId`]s;
//! * mapping a latitude/longitude point to the cell containing it at any
//!   level, and walking the hierarchy (parent/child/level);
//! * estimating the minimum great-circle distance between two cells, which
//!   SLIM's proximity function uses to award close record pairs and to
//!   detect *alibi* pairs (same time window, impossibly distant cells).
//!
//! ## Differences from S2 (documented substitutions)
//!
//! * Children are ordered by a Morton (Z-order) curve rather than S2's
//!   Hilbert curve. SLIM never exploits id adjacency — cell ids are hashed —
//!   so only the containment hierarchy matters, which is identical.
//! * Cell-to-cell distance is a conservative lower bound: great-circle
//!   distance between cell centers minus the two circumradii, clamped at
//!   zero. S2's exact `S2Cell::GetDistance` is tighter for elongated cells
//!   near face corners, but both are exact for the common case the paper
//!   depends on (equal cells → 0, far cells → ≈ center distance).
//!
//! ## Quick example
//!
//! ```
//! use geocell::{CellId, LatLng};
//!
//! let soma = LatLng::from_degrees(37.7785, -122.3975);
//! let cell = CellId::from_latlng(soma, 12);
//! assert_eq!(cell.level(), 12);
//! assert!(cell.parent(10).contains(cell));
//! // A point a few metres away lands in the same level-12 cell.
//! let nearby = LatLng::from_degrees(37.7786, -122.3974);
//! assert_eq!(CellId::from_latlng(nearby, 12), cell);
//! ```

#![forbid(unsafe_code)]

mod cellid;
mod distance;
mod face;
mod latlng;
mod point;

pub use cellid::{CellId, MAX_LEVEL, NUM_FACES};
pub use distance::{
    bounded_distance_m, cell_center_and_radius, cell_circumradius_m, cell_min_distance_m,
    exact_cell_radius_m, CellGeometry, EARTH_RADIUS_M,
};
pub use face::{face_uv_to_xyz, st_to_uv, uv_to_st, xyz_to_face_uv};
pub use latlng::LatLng;
pub use point::Point;
