//! # slim-baselines — the two baselines SLIM is compared against
//!
//! Reimplementations (from their published descriptions) of the linkage
//! algorithms in the SLIM paper's comparison (§5.5):
//!
//! * [`mod@stlink`] — ST-Link (Basık et al., IEEE TMC 2018): sliding-window
//!   co-occurrence counting with location-diversity and alibi cuts,
//!   elbow-selected `k`/`l`, ambiguity rejection. No blocking, so its
//!   record-comparison count is quadratic in entities × windows.
//! * [`mod@gm`] — GM (Wang et al., NDSS 2018): per-entity Gaussian-mixture +
//!   Markov mobility models scored by cross-likelihood; awards pairs
//!   across temporal windows; no scalability mechanism at all. Pair
//!   scores are fed through SLIM's matching + stop threshold exactly as
//!   the paper does.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod gm;
pub mod kmeans;
pub mod stlink;

pub use gm::{gm, GmConfig, GmOutput, MobilityModel};
pub use stlink::{stlink, StLinkConfig, StLinkOutput};
