//! # slim-core — SLIM mobility-linkage core
//!
//! A from-scratch Rust implementation of *SLIM: Scalable Linkage of
//! Mobility Data* (Basık, Ferhatosmanoğlu, Gedik — SIGMOD 2020): linking
//! the entities of two location datasets using only their spatio-temporal
//! records.
//!
//! The pipeline (paper §2.4):
//!
//! 1. Records are aggregated into mobility histories — time-location bins
//!    over a shared [`window::WindowScheme`] and a spatial grid level (see
//!    `geocell`), stored as [`arena::HistoryArena`] columns and gathered
//!    per dataset in a [`history::HistorySet`].
//! 2. Candidate entity pairs are scored with the
//!    [`similarity::SimilarityScorer`]: mutually-nearest-neighbour bin
//!    pairs are awarded by proximity ([`proximity`]), weighted by bin
//!    rarity (IDF) and BM25-style length normalization, and
//!    mutually-furthest *alibi* pairs are penalized.
//! 3. Scores become a weighted bipartite graph; a greedy maximum-weight
//!    [`matching`] selects one-to-one links.
//! 4. A two-component [`gmm`] fitted over the matched edge weights gives
//!    an automated stop [`threshold`] maximizing the expected F1 — no
//!    ground truth required.
//!
//! Entry point: [`slim::Slim`].
//!
//! ```
//! use slim_core::{LocationDataset, Record, EntityId, Timestamp, Slim, SlimConfig};
//! use geocell::LatLng;
//!
//! // Two tiny datasets: entities 1/2 are seen (with different anonymous
//! // ids 77/78) by the second service as well.
//! let trace = |id: u64, lat0: f64, offs: f64| -> Vec<Record> {
//!     (0..12)
//!         .map(|k| Record::new(
//!             EntityId(id),
//!             LatLng::from_degrees(lat0 + 0.001 * k as f64, -122.0 + offs),
//!             Timestamp(k * 900),
//!         ))
//!         .collect()
//! };
//! let left = LocationDataset::from_records(
//!     trace(1, 37.0, 0.0).into_iter().chain(trace(2, 38.5, 0.0)).collect::<Vec<_>>(),
//! );
//! let right = LocationDataset::from_records(
//!     trace(77, 37.0, 0.0002).into_iter().chain(trace(78, 38.5, 0.0002)).collect::<Vec<_>>(),
//! );
//! let out = Slim::new(SlimConfig::default()).unwrap().link(&left, &right);
//! assert_eq!(out.matching.len(), 2); // 1 ↔ 77 and 2 ↔ 78
//! assert!(out.matching.iter().all(|e| e.right.0 == e.left.0 + 76));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arena;
pub mod config;
pub mod dataset;
pub mod df;
pub mod erf;
pub mod fasthash;
pub mod gmm;
pub mod history;
pub mod hungarian;
pub mod io;
pub mod matching;
pub mod pairing;
pub mod proximity;
pub mod record;
pub mod similarity;
pub mod slim;
pub mod stats;
pub mod threshold;
pub mod time;
pub mod tuning;
pub mod window;

pub use arena::{common_runs, EntityView, HistoryArena};
pub use config::{MatchingMethod, PairingMode, SlimConfig, ThresholdMethod};
pub use dataset::LocationDataset;
pub use df::{DfDelta, DfStats};
pub use history::{record_cells, HistorySet};
pub use matching::{DeltaReport, Edge, EdgeDelta, IncrementalMatcher};
pub use record::{EntityId, Record, Timestamp};
pub use slim::{LinkageOutput, PreparedLinkage, Slim};
pub use stats::LinkageStats;
pub use threshold::{StopThreshold, ThresholdState, WarmSelection};
pub use time::Watermark;
pub use window::{WindowIdx, WindowScheme};
