//! # slim-datagen — synthetic mobility workloads with ground truth
//!
//! The SLIM paper evaluates on two real datasets we cannot ship: GPS
//! traces of San Francisco taxis ("Cab") and joined Twitter/Foursquare
//! check-ins ("SM"). This crate builds synthetic equivalents that
//! preserve the linkage-relevant structure (density, sparsity, speed
//! bounds, heavy-tailed venue popularity, cross-service asynchrony) and
//! — unlike the real data — come with exact ground truth:
//!
//! 1. A generator produces a [`trajectory::World`]: one *continuous*
//!    ground-truth trajectory per entity ([`taxi`], [`checkin`]).
//! 2. [`sampling::sample_two_views`] observes that world twice, the way
//!    two independent services would: per-service Poisson sampling
//!    times, GPS noise, record-inclusion thinning, controlled entity
//!    overlap, re-anonymized ids.
//!
//! [`scenario::Scenario`] wraps both steps behind the paper's "Cab" and
//! "SM" setups with a scale knob.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod checkin;
pub mod rng;
pub mod sampling;
pub mod scenario;
pub mod taxi;
pub mod trajectory;

pub use checkin::{checkin_world, CheckinConfig};
pub use sampling::{sample_two_views, SamplingMode, TwoViewSample, ViewConfig};
pub use scenario::Scenario;
pub use taxi::{taxi_world, TaxiConfig};
pub use trajectory::{Segment, Trajectory, World};
