//! Figure 8 — LSH accuracy (relative F1) and speed-up as a function of
//! the signature spatial level and temporal step size (Cab & SM).
//!
//! Relative F1 = F1 with LSH / F1 of brute force; speed-up = pairwise
//! record comparisons without LSH / with LSH (both as defined in §5.3).

use slim_core::SlimConfig;
use slim_datagen::Scenario;
use slim_lsh::{LshConfig, LshFilter};

use crate::figures::{run_slim, run_slim_with_candidates, RunSettings};
use crate::table::{f3, human, Table};

/// One LSH grid point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LshPoint {
    /// Signature spatial level.
    pub spatial_level: u8,
    /// Temporal step size (leaf windows per dominating-cell query).
    pub step_windows: u32,
    /// F1 with LSH / F1 brute force.
    pub relative_f1: f64,
    /// Comparison-count speed-up.
    pub speedup: f64,
    /// Candidate pairs produced by the filter.
    pub candidates: usize,
    /// Record comparisons with LSH.
    pub record_comparisons: u64,
}

/// Default grid (paper: levels 4-20 × steps up to ~200).
pub fn default_grid() -> (Vec<u8>, Vec<u32>) {
    (vec![8, 12, 16, 20], vec![6, 24, 48, 96])
}

/// Runs the LSH grid for one scenario.
pub fn run_grid(
    scenario: &Scenario,
    levels: &[u8],
    steps: &[u32],
    settings: &RunSettings,
) -> Vec<LshPoint> {
    run_grid_with_threshold(scenario, levels, steps, 0.6, settings)
}

/// Runs the LSH grid with an explicit similarity threshold. The sparse
/// SM scenario needs a lower `t`: with ~12 records over dozens of query
/// spans, placeholders cap even a true pair's signature similarity near
/// 0.2 under this crate's strict placeholder-counting similarity (the
/// paper's definition is ambiguous on whether placeholders count toward
/// the signature size).
pub fn run_grid_with_threshold(
    scenario: &Scenario,
    levels: &[u8],
    steps: &[u32],
    threshold: f64,
    settings: &RunSettings,
) -> Vec<LshPoint> {
    let sample = scenario.sample(0.5, settings.seed ^ 0x8);
    let base_cfg = SlimConfig::default();
    let (brute, brute_metrics) = run_slim(&sample, &base_cfg);
    let brute_cmp = brute.stats.record_pair_comparisons.max(1);

    let mut out = Vec::new();
    for &level in levels {
        for &step in steps {
            let lsh_cfg = LshConfig {
                threshold,
                step_windows: step,
                spatial_level: level,
                num_buckets: 4096,
            };
            let filter = LshFilter::build_auto(
                lsh_cfg,
                &sample.left,
                &sample.right,
                base_cfg.window_width_secs,
            );
            let candidates = filter.candidates();
            let (res, metrics) = run_slim_with_candidates(&sample, &base_cfg, &candidates);
            let rel_f1 = if brute_metrics.f1 > 0.0 {
                metrics.f1 / brute_metrics.f1
            } else {
                1.0
            };
            out.push(LshPoint {
                spatial_level: level,
                step_windows: step,
                relative_f1: rel_f1,
                speedup: brute_cmp as f64 / res.stats.record_pair_comparisons.max(1) as f64,
                candidates: candidates.len(),
                record_comparisons: res.stats.record_pair_comparisons,
            });
        }
    }
    out
}

/// Fig. 8a/8b: Cab.
pub fn run_cab(settings: &RunSettings) -> Vec<LshPoint> {
    let (levels, steps) = default_grid();
    run_grid(&settings.cab(), &levels, &steps, settings)
}

/// Fig. 8c/8d: SM (lower threshold — see [`run_grid_with_threshold`]).
pub fn run_sm(settings: &RunSettings) -> Vec<LshPoint> {
    let (levels, steps) = default_grid();
    run_grid_with_threshold(&settings.sm(), &levels, &steps, 0.25, settings)
}

/// Renders the grid.
pub fn render(name: &str, points: &[LshPoint]) -> Table {
    let mut t = Table::new(
        format!("{name} — LSH relative F1 and speed-up"),
        &[
            "spatial",
            "step",
            "relative_f1",
            "speedup",
            "candidates",
            "record_cmp",
        ],
    );
    for p in points {
        t.row(vec![
            p.spatial_level.to_string(),
            p.step_windows.to_string(),
            f3(p.relative_f1),
            format!("{:.1}x", p.speedup),
            p.candidates.to_string(),
            human(p.record_comparisons),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lsh_speeds_up_and_mostly_preserves_f1() {
        let settings = RunSettings::tiny();
        // Long step: tiny samples span few windows, so short steps give
        // unstable dominating cells (see lsh_integration.rs).
        let pts = run_grid(&settings.cab(), &[12], &[96], &settings);
        assert_eq!(pts.len(), 1);
        let p = pts[0];
        // Paper shape: at a fine signature level, LSH prunes pairs (>1×
        // speedup) while preserving most of the F1.
        assert!(p.speedup >= 1.0, "speedup {}", p.speedup);
        assert!(p.relative_f1 > 0.5, "relative F1 {}", p.relative_f1);
    }

    #[test]
    fn coarse_levels_give_no_speedup() {
        // At a very coarse level all dominating cells coincide, LSH
        // cannot prune (paper: "Cab … spatially too dense").
        let settings = RunSettings::tiny();
        let pts = run_grid(&settings.cab(), &[4, 14], &[96], &settings);
        assert!(
            pts[0].speedup <= pts[1].speedup + 1e-9,
            "coarse {} vs fine {}",
            pts[0].speedup,
            pts[1].speedup
        );
    }
}
