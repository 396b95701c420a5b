//! Linkage configuration.

use serde::{Deserialize, Serialize};

/// How time-location bin pairs are formed inside a common window
/// (paper §3.1.2 and the Fig. 10 ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PairingMode {
    /// Mutually-nearest-neighbour pairing `N` — the paper's default.
    MutuallyNearest,
    /// Cartesian product of bins — the "All Pairs" ablation baseline.
    AllPairs,
}

/// How the stop threshold over matched-edge weights is chosen (§3.2;
/// the paper's default is the GMM, with Otsu and 2-means mentioned as
/// alternatives giving similar results).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ThresholdMethod {
    /// Two-component Gaussian mixture + expected-F1 maximization.
    GmmExpectedF1,
    /// Otsu's between-class-variance threshold on a histogram.
    Otsu,
    /// 1-D 2-means; threshold at the midpoint of the two centroids.
    TwoMeans,
    /// No stop threshold: keep the full matching (ablation / recall bound).
    None,
}

/// How the bipartite matching over positive-score edges is solved
/// (§3.2: the assignment problem has "many optimal and approximate
/// solutions"; the paper adopts the greedy heuristic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MatchingMethod {
    /// Greedy heaviest-edge-first (the paper's choice; a 1/2-
    /// approximation in theory, near-optimal on real score matrices).
    Greedy,
    /// Exact O(n³) Hungarian assignment. Useful to quantify the greedy
    /// regret; impractical beyond a few thousand entities.
    HungarianExact,
}

/// Full configuration of the SLIM pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlimConfig {
    /// Leaf temporal window width in seconds (paper default: 15 min).
    pub window_width_secs: i64,
    /// Spatial grid level for time-location bins (paper default: 12).
    pub spatial_level: u8,
    /// BM25-style length-normalization strength `b ∈ [0, 1]`
    /// (paper default: 0.5).
    pub b: f64,
    /// Maximum entity speed `α`, metres per second, used for the runaway
    /// distance `R = |w| · α` (paper: 2 km/minute).
    pub max_speed_m_per_s: f64,
    /// Bin pairing mode (ablation switch).
    pub pairing: PairingMode,
    /// Whether the optional mutually-furthest-neighbour alibi pass runs
    /// (Alg. 1 inner loop; ablation switch).
    pub use_mfn: bool,
    /// Whether the IDF multiplier is applied (ablation switch).
    pub use_idf: bool,
    /// Whether length normalization is applied (ablation switch).
    pub use_normalization: bool,
    /// Entities with this many records or fewer are ignored (paper: 5).
    pub min_records: usize,
    /// Stop-threshold selection method.
    pub threshold_method: ThresholdMethod,
    /// Bipartite matching solver.
    pub matching_method: MatchingMethod,
}

impl Default for SlimConfig {
    fn default() -> Self {
        Self {
            window_width_secs: 15 * 60,
            spatial_level: 12,
            b: 0.5,
            max_speed_m_per_s: 2_000.0 / 60.0,
            pairing: PairingMode::MutuallyNearest,
            use_mfn: true,
            use_idf: true,
            use_normalization: true,
            min_records: 5,
            threshold_method: ThresholdMethod::GmmExpectedF1,
            matching_method: MatchingMethod::Greedy,
        }
    }
}

impl SlimConfig {
    /// The runaway distance `R = |w| · α` in metres: the farthest an
    /// entity can travel within one temporal window.
    pub fn runaway_m(&self) -> f64 {
        self.window_width_secs as f64 * self.max_speed_m_per_s
    }

    /// Validates parameter ranges, returning a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.window_width_secs <= 0 {
            return Err("window_width_secs must be positive".into());
        }
        if self.spatial_level > geocell::MAX_LEVEL {
            return Err(format!(
                "spatial_level {} exceeds max {}",
                self.spatial_level,
                geocell::MAX_LEVEL
            ));
        }
        if !(0.0..=1.0).contains(&self.b) {
            return Err(format!("b = {} outside [0, 1]", self.b));
        }
        if self.max_speed_m_per_s.is_nan() || self.max_speed_m_per_s <= 0.0 {
            return Err("max_speed_m_per_s must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = SlimConfig::default();
        assert_eq!(c.window_width_secs, 900);
        assert_eq!(c.spatial_level, 12);
        assert!((c.b - 0.5).abs() < 1e-12);
        // 2 km/min over a 15-minute window → 30 km runaway distance.
        assert!((c.runaway_m() - 30_000.0).abs() < 1e-6);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_params() {
        let bad_b = SlimConfig {
            b: 1.5,
            ..SlimConfig::default()
        };
        assert!(bad_b.validate().is_err());
        let bad_window = SlimConfig {
            window_width_secs: 0,
            ..SlimConfig::default()
        };
        assert!(bad_window.validate().is_err());
        let bad_level = SlimConfig {
            spatial_level: 31,
            ..SlimConfig::default()
        };
        assert!(bad_level.validate().is_err());
        let bad_speed = SlimConfig {
            max_speed_m_per_s: -1.0,
            ..SlimConfig::default()
        };
        assert!(bad_speed.validate().is_err());
        // `v <= 0.0` is false for NaN; it must be rejected anyway.
        let nan_speed = SlimConfig {
            max_speed_m_per_s: f64::NAN,
            ..SlimConfig::default()
        };
        assert!(nan_speed.validate().is_err());
    }
}
