//! Figure 6 — similarity-score histograms and GMM fits for spatial
//! detail 4, 8, 12, 16 at a 90-minute window (Cab).
//!
//! The paper's point: with increasing spatial detail the true-positive
//! and false-positive score clusters separate, and the detected stop
//! threshold tightens.

use slim_core::gmm::Gmm2;
use slim_core::{SlimConfig, StopThreshold};

use crate::figures::{run_slim, split_by_truth, RunSettings};
use crate::table::{f1 as fmt1, f3, Table};

/// The fit at one spatial level.
#[derive(Debug, Clone)]
pub struct LevelFit {
    /// Spatial level.
    pub spatial_level: u8,
    /// Fitted mixture (None when degenerate).
    pub gmm: Option<Gmm2>,
    /// Detected threshold.
    pub threshold: Option<StopThreshold>,
    /// True-positive matched weights.
    pub tp_weights: Vec<f64>,
    /// False-positive matched weights.
    pub fp_weights: Vec<f64>,
    /// Separation between component means in pooled-σ units (a proxy for
    /// the paper's "distance between two components of GMM").
    pub separation: f64,
}

/// Runs the driver.
pub fn run(settings: &RunSettings) -> Vec<LevelFit> {
    run_with_levels(settings, &[4, 8, 12, 16])
}

/// Runs with explicit levels (tests use fewer).
pub fn run_with_levels(settings: &RunSettings, levels: &[u8]) -> Vec<LevelFit> {
    let sample = settings.cab().sample(0.5, settings.seed ^ 0x6);
    levels
        .iter()
        .map(|&level| {
            let cfg = SlimConfig {
                spatial_level: level,
                window_width_secs: 90 * 60,
                ..SlimConfig::default()
            };
            let (out, _) = run_slim(&sample, &cfg);
            let weights: Vec<f64> = out.matching.iter().map(|e| e.weight).collect();
            let gmm = Gmm2::fit(&weights);
            let separation = gmm
                .as_ref()
                .map(|g| {
                    let pooled = ((g.low.std_dev.powi(2) + g.high.std_dev.powi(2)) / 2.0).sqrt();
                    (g.high.mean - g.low.mean) / pooled.max(1e-12)
                })
                .unwrap_or(0.0);
            let (tp, fp) = split_by_truth(&out.matching, &sample.ground_truth);
            LevelFit {
                spatial_level: level,
                gmm,
                threshold: out.threshold,
                tp_weights: tp,
                fp_weights: fp,
                separation,
            }
        })
        .collect()
}

/// Renders one row per level.
pub fn render(fits: &[LevelFit]) -> Table {
    let mut t = Table::new(
        "Fig 6 — score histograms & GMM fits, window 90 min (Cab)",
        &[
            "spatial",
            "tp_links",
            "fp_links",
            "fp_mean",
            "tp_mean",
            "separation",
            "threshold",
        ],
    );
    for f in fits {
        let (lo_m, hi_m) = f
            .gmm
            .as_ref()
            .map(|g| (g.low.mean, g.high.mean))
            .unwrap_or((f64::NAN, f64::NAN));
        t.row(vec![
            f.spatial_level.to_string(),
            f.tp_weights.len().to_string(),
            f.fp_weights.len().to_string(),
            fmt1(lo_m),
            fmt1(hi_m),
            f3(f.separation),
            f.threshold
                .map(|t| fmt1(t.threshold))
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_are_well_formed() {
        let fits = run_with_levels(&RunSettings::tiny(), &[6, 14]);
        assert_eq!(fits.len(), 2);
        for f in &fits {
            assert!(f.separation >= 0.0 && f.separation.is_finite());
            assert!(!f.tp_weights.is_empty(), "true pairs must match");
        }
        // At the fine level the TP cluster must clearly out-score FPs
        // (the full separation-grows-with-detail claim needs paper-scale
        // data: see the fig-6 table `examples/reproduce.rs` prints).
        let fine = &fits[1];
        if !fine.fp_weights.is_empty() {
            let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
            assert!(mean(&fine.tp_weights) > mean(&fine.fp_weights));
        }
        let table = render(&fits);
        assert_eq!(table.len(), 2);
    }
}
