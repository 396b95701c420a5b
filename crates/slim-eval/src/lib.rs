//! # slim-eval — experiment harness for the SLIM reproduction
//!
//! Ground-truth metrics ([`metrics`]) and drivers ([`figures`])
//! regenerating every figure of the paper's evaluation section (§5) on
//! the synthetic Cab/SM workloads from `slim-datagen`:
//!
//! | Paper figure | Driver |
//! |---|---|
//! | Fig 2 (GMM fit) | [`figures::fig2`] |
//! | Fig 4 (Cab spatio-temporal grid) | [`figures::fig4_5::run_cab`] |
//! | Fig 5 (SM spatio-temporal grid) | [`figures::fig4_5::run_sm`] |
//! | Fig 6 (score histograms) | [`figures::fig6`] |
//! | Fig 7 (workload sensitivity) | [`figures::fig7`] |
//! | Fig 8 (LSH grid) | [`figures::fig8`] |
//! | Fig 9 (bucket sweep) | [`figures::fig9`] |
//! | Fig 10 (ablations) | [`figures::fig10`] |
//! | Fig 11 (vs ST-Link / GM) | [`figures::fig11`] |
//!
//! Each driver returns structured points plus a [`table::Table`]
//! rendering the same series the paper plots. The repository-level
//! `reproduce` example (`examples/reproduce.rs`) prints all of them.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod figures;
pub mod metrics;
pub mod table;

pub use figures::RunSettings;
pub use metrics::{evaluate_edges, evaluate_links, hit_precision_at_k, LinkageMetrics};
pub use table::Table;
