//! # slim — Scalable Linkage of Mobility Data
//!
//! A complete Rust reproduction of *SLIM: Scalable Linkage of Mobility
//! Data* (Basık, Ferhatosmanoğlu, Gedik — SIGMOD 2020): identifying the
//! entities that appear in two location datasets using nothing but their
//! spatio-temporal records.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`geo`] — S2-style hierarchical spatial cells (substrate).
//! * [`core`] — mobility histories, similarity scoring, bipartite
//!   matching, GMM stop-threshold, auto-tuning: the SLIM algorithm.
//! * [`lsh`] — dominating-grid-cell signatures + banding: the paper's
//!   scalability layer.
//! * [`stream`] — incremental sliding-window linkage over timestamped
//!   event streams, with stream/batch equivalence at finalization.
//! * [`baselines`] — ST-Link and GM, the compared-against systems.
//! * [`datagen`] — synthetic Cab/SM workloads with exact ground truth.
//! * [`eval`] — metrics and drivers regenerating every paper figure.
//!
//! ## Quickstart
//!
//! ```
//! use slim::core::{Slim, SlimConfig};
//! use slim::datagen::Scenario;
//! use slim::eval::evaluate_edges;
//!
//! // A small taxi world observed by two independent services.
//! let scenario = Scenario::cab(0.05, 99);
//! let sample = scenario.sample(0.5, 99); // 50% of entities overlap
//!
//! let out = Slim::new(SlimConfig::default()).unwrap()
//!     .link(&sample.left, &sample.right);
//! let metrics = evaluate_edges(&out.links, &sample.ground_truth);
//! assert!(metrics.precision > 0.5);
//! ```
//!
//! See `examples/` for end-to-end scenarios and `examples/reproduce.rs`
//! for the harness regenerating the paper's figures.

#![forbid(unsafe_code)]

/// S2-style hierarchical spatial cells.
pub use geocell as geo;

/// The SLIM core: histories, similarity, matching, thresholding.
pub use slim_core as core;

/// LSH candidate filtering.
pub use slim_lsh as lsh;

/// ST-Link and GM baselines.
pub use slim_baselines as baselines;

/// Incremental sliding-window linkage engine.
pub use slim_stream as stream;

/// Synthetic workload generators with ground truth.
pub use slim_datagen as datagen;

/// Metrics and per-figure experiment drivers.
pub use slim_eval as eval;

/// Telemetry substrate: histograms, metric registries, snapshots, and
/// the scrape endpoint.
pub use slim_telemetry as telemetry;
