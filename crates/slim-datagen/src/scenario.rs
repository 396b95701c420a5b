//! Canned experiment scenarios mirroring the paper's two setups (§5.1).
//!
//! * [`Scenario::cab`] — the Cab analogue: few entities, dense traces
//!   (paper: 265 entities/view, ~10,700 records each).
//! * [`Scenario::sm`] — the SM analogue: many entities, ~12 records each.
//!
//! Both accept a `scale` factor so benches can trade fidelity for
//! runtime; `scale = 1.0` approaches paper-sized inputs, the defaults
//! used by the experiment drivers are smaller (`examples/reproduce.rs`
//! prints the scales it runs at).

use crate::checkin::{checkin_world, CheckinConfig};
use crate::sampling::SamplingMode;

/// The SM per-stay observation mode (60% of stays captured, ≤10 min
/// posting jitter).
fn slim_datagen_mode_per_stay() -> SamplingMode {
    SamplingMode::PerStay {
        capture_prob: 0.6,
        jitter_secs: 600,
    }
}
use crate::sampling::{sample_two_views, TwoViewSample, ViewConfig};
use crate::taxi::{taxi_world, TaxiConfig};
use crate::trajectory::World;

/// A named workload scenario: a ground-truth world plus per-view
/// observation models.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name ("cab" / "sm").
    pub name: &'static str,
    /// The ground-truth world.
    pub world: World,
    /// Left-view observation model.
    pub left_view: ViewConfig,
    /// Right-view observation model.
    pub right_view: ViewConfig,
}

impl Scenario {
    /// The Cab-dataset analogue. `scale ∈ (0, 1]` scales entity count and
    /// time span; `scale = 0.25` (default in the drivers) gives ~66 taxis
    /// over ~6 days with high record densities.
    pub fn cab(scale: f64, seed: u64) -> Self {
        assert!(scale > 0.0 && scale <= 4.0, "unreasonable scale {scale}");
        let span_days = (24.0 * scale).round().clamp(1.0, 24.0) as i64;
        let cfg = TaxiConfig {
            num_taxis: ((265.0 * scale).round() as usize).max(8),
            span_secs: span_days * 24 * 3600,
            seed,
            ..TaxiConfig::default()
        };
        let world = taxi_world(&cfg);
        // Dense usage: the paper's taxis report every ~3 minutes.
        let view = ViewConfig {
            mean_interval_secs: 240.0,
            gps_noise_m: 20.0,
            inclusion_prob: 0.5,
            mode: SamplingMode::Poisson,
        };
        Self {
            name: "cab",
            world,
            left_view: view,
            right_view: view,
        }
    }

    /// The SM-dataset analogue. `scale = 1.0` gives 30,000 users (as in
    /// the paper's sampled setup); the drivers default to ~3,000.
    pub fn sm(scale: f64, seed: u64) -> Self {
        assert!(scale > 0.0 && scale <= 4.0, "unreasonable scale {scale}");
        let cfg = CheckinConfig {
            num_users: ((30_000.0 * scale).round() as usize).max(50),
            seed,
            ..CheckinConfig::default()
        };
        let world = checkin_world(&cfg);
        // Check-in services capture a stay when the user posts; users
        // cross-post the same venue visit to both services within
        // minutes, which is what makes the real Twitter/Foursquare data
        // linkable at ~12 records/entity. Tuned so inclusion 0.5 matches
        // the paper's density.
        let view = ViewConfig {
            mean_interval_secs: 5_400.0,
            gps_noise_m: 40.0,
            inclusion_prob: 0.5,
            mode: slim_datagen_mode_per_stay(),
        };
        Self {
            name: "sm",
            world,
            left_view: view,
            right_view: view,
        }
    }

    /// Samples the two views at the paper's default intersection ratio
    /// (0.5) or any other.
    pub fn sample(&self, intersection_ratio: f64, seed: u64) -> TwoViewSample {
        sample_two_views(
            &self.world,
            intersection_ratio,
            &self.left_view,
            &self.right_view,
            seed,
        )
    }

    /// Samples with overridden record-inclusion probabilities (the Fig. 7
    /// sweep).
    pub fn sample_with_inclusion(
        &self,
        intersection_ratio: f64,
        inclusion_prob: f64,
        seed: u64,
    ) -> TwoViewSample {
        let l = ViewConfig {
            inclusion_prob,
            ..self.left_view
        };
        let r = ViewConfig {
            inclusion_prob,
            ..self.right_view
        };
        sample_two_views(&self.world, intersection_ratio, &l, &r, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cab_scenario_is_dense() {
        let sc = Scenario::cab(0.05, 1);
        let s = sc.sample(0.5, 1);
        assert!(s.left.num_entities() >= 4);
        assert!(
            s.left.avg_records_per_entity() > 50.0,
            "cab should be dense, got {}",
            s.left.avg_records_per_entity()
        );
    }

    #[test]
    fn sm_scenario_is_sparse_and_large() {
        let sc = Scenario::sm(0.01, 2);
        let s = sc.sample(0.5, 2);
        assert!(s.left.num_entities() > 50);
        assert!(
            s.left.avg_records_per_entity() < 40.0,
            "sm should be sparse, got {}",
            s.left.avg_records_per_entity()
        );
    }

    #[test]
    fn sample_with_inclusion_thins() {
        let sc = Scenario::cab(0.05, 3);
        let dense = sc.sample_with_inclusion(0.5, 0.9, 3);
        let sparse = sc.sample_with_inclusion(0.5, 0.1, 3);
        assert!(sparse.left.num_records() < dense.left.num_records() / 2);
    }

    #[test]
    #[should_panic(expected = "unreasonable scale")]
    fn absurd_scale_panics() {
        let _ = Scenario::cab(100.0, 1);
    }
}
