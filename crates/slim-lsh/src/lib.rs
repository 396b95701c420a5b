//! # slim-lsh — LSH candidate filtering for mobility linkage
//!
//! The scalability layer of the SLIM reproduction (paper §4): instead of
//! scoring all `|U_E| × |U_I|` entity pairs, each mobility history is
//! summarized as a *signature* of dominating grid cells (one per query
//! time span), signatures are cut into bands, and bands are hashed into
//! buckets. Only cross-dataset pairs sharing a bucket in at least one
//! band are scored. The band count solves `t = (1/b)^{b/s}` via the
//! Lambert W function.
//!
//! ```
//! use slim_lsh::{LshConfig, LshFilter};
//! use slim_core::{LocationDataset, Record, EntityId, Timestamp};
//! use geocell::LatLng;
//!
//! let trace = |id: u64, lat: f64| -> Vec<Record> {
//!     (0..32)
//!         .map(|k| Record::new(
//!             EntityId(id),
//!             LatLng::from_degrees(lat, -120.0 + 0.001 * (k % 3) as f64),
//!             Timestamp(k * 900),
//!         ))
//!         .collect()
//! };
//! let left = LocationDataset::from_records(
//!     [trace(1, 35.0), trace(2, 52.0)].concat(),
//! );
//! let right = LocationDataset::from_records(
//!     [trace(10, 35.0), trace(20, -20.0)].concat(),
//! );
//! let cfg = LshConfig { step_windows: 8, spatial_level: 12, ..Default::default() };
//! let filter = LshFilter::build_auto(cfg, &left, &right, 900);
//! let cands = filter.candidates();
//! // Entity 1 and 10 share their dominating cells → candidate pair;
//! // nothing pairs with the Southern-hemisphere entity 20.
//! assert!(cands.contains(&(EntityId(1), EntityId(10))));
//! assert!(cands.iter().all(|&(_, r)| r != EntityId(20)));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod banding;
pub mod lambertw;
pub mod lsh;
pub mod signature;

pub use banding::{
    band_bucket_of, bands_for_threshold, buckets_collide, candidate_pairs, collision_probability,
    effective_threshold, fnv1a, signature_buckets, BucketIndex, IndexSide,
};
pub use lambertw::lambert_w0;
pub use lsh::{LshConfig, LshFilter};
pub use signature::{
    num_queries, signature_from_bins, signature_from_records, signatures_for_dataset, Signature,
};
