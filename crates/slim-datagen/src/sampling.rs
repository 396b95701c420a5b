//! Two-view sampling with ground truth (paper §5.1).
//!
//! From one ground-truth world, two location datasets ("views") are
//! sampled the way two independent services would observe it:
//!
//! * **Entity intersection ratio** controls which entities appear in
//!   both views: `ratio = |common| / |smaller view|`.
//! * Each view samples records at its *own* Poisson arrival times
//!   (services are not used synchronously) and adds GPS noise.
//! * **Record inclusion probability** thins each view's records
//!   independently, modelling differing usage frequencies.
//! * Entity ids are re-drawn per view, so ids carry no linkage signal;
//!   the returned ground truth maps left ids to right ids.

use std::collections::HashMap;

use rand::{rngs::StdRng, seq::SliceRandom, Rng, SeedableRng};
use slim_core::{EntityId, LocationDataset, Record, Timestamp};

use crate::rng::exponential;
use crate::trajectory::{Trajectory, World};

/// How a service decides *when* to record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SamplingMode {
    /// Poisson arrivals over the whole trajectory span (continuous
    /// tracking, e.g. taxi GPS loggers).
    Poisson,
    /// One potential record per *stay* segment, near the stay's start.
    /// Models check-in services: a user checking in at a venue often
    /// posts on several services within minutes — which is exactly how
    /// the paper's Twitter/Foursquare SM dataset came to be linkable.
    PerStay {
        /// Probability the service captures a given stay.
        capture_prob: f64,
        /// Uniform timestamp jitter after the stay start, seconds.
        jitter_secs: i64,
    },
}

/// How one service observes trajectories.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ViewConfig {
    /// Mean seconds between usage events (Poisson mode).
    pub mean_interval_secs: f64,
    /// GPS noise standard deviation, metres.
    pub gps_noise_m: f64,
    /// Record inclusion probability (paper parameter; default 0.5).
    pub inclusion_prob: f64,
    /// When the service records.
    pub mode: SamplingMode,
}

impl Default for ViewConfig {
    fn default() -> Self {
        Self {
            mean_interval_secs: 600.0,
            gps_noise_m: 25.0,
            inclusion_prob: 0.5,
            mode: SamplingMode::Poisson,
        }
    }
}

/// A linked pair of sampled views plus ground truth.
#[derive(Debug, Clone)]
pub struct TwoViewSample {
    /// First view (the paper's `E`).
    pub left: LocationDataset,
    /// Second view (the paper's `I`).
    pub right: LocationDataset,
    /// Ground truth: left entity id → right entity id for every entity
    /// present in both views.
    pub ground_truth: HashMap<EntityId, EntityId>,
}

impl TwoViewSample {
    /// Number of truly-common entities.
    pub fn num_common(&self) -> usize {
        self.ground_truth.len()
    }
}

/// Samples one entity's records as seen by one service.
fn sample_records(
    entity: EntityId,
    traj: &Trajectory,
    view: &ViewConfig,
    rng: &mut StdRng,
) -> Vec<Record> {
    let mut out = Vec::new();
    let mut push = |pos: geocell::LatLng, t: i64, rng: &mut StdRng| {
        if rng.random_range(0.0..1.0) < view.inclusion_prob {
            let noisy = pos.offset(
                crate::rng::normal(rng, 0.0, view.gps_noise_m).abs(),
                rng.random_range(0.0..std::f64::consts::TAU),
            );
            out.push(Record::new(entity, noisy, Timestamp(t)));
        }
    };
    match view.mode {
        SamplingMode::Poisson => {
            let Some((lo, hi)) = traj.span() else {
                return Vec::new();
            };
            let mut t = lo.secs() + exponential(rng, view.mean_interval_secs) as i64;
            while t <= hi.secs() {
                if let Some(pos) = traj.position_at(Timestamp(t)) {
                    push(pos, t, rng);
                }
                t += exponential(rng, view.mean_interval_secs).max(1.0) as i64;
            }
        }
        SamplingMode::PerStay {
            capture_prob,
            jitter_secs,
        } => {
            for seg in traj.segments() {
                if seg.from != seg.to {
                    continue; // moving segment, not a stay
                }
                if rng.random_range(0.0..1.0) >= capture_prob {
                    continue;
                }
                let span = (seg.t1.secs() - seg.t0.secs()).max(1);
                let t = seg.t0.secs() + rng.random_range(0..jitter_secs.max(1).min(span));
                push(seg.from, t, rng);
            }
        }
    }
    out
}

/// Samples two overlapping views of a world.
///
/// `intersection_ratio ∈ [0, 1]` is the ratio of common entities to the
/// (equal) view size; both views get `m = ⌊N / (2 − ratio)⌋` entities of
/// which `⌊ratio · m⌋` are shared. Left entities keep ids `0..`, right
/// entities get ids `1_000_000 +` a per-view shuffle, so ids are
/// uninformative.
///
/// # Panics
/// Panics if `intersection_ratio` is outside `[0, 1]`.
pub fn sample_two_views(
    world: &World,
    intersection_ratio: f64,
    left_view: &ViewConfig,
    right_view: &ViewConfig,
    seed: u64,
) -> TwoViewSample {
    assert!(
        (0.0..=1.0).contains(&intersection_ratio),
        "intersection ratio {intersection_ratio} outside [0, 1]"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let n = world.len();
    let m = ((n as f64) / (2.0 - intersection_ratio)).floor() as usize;
    let common = ((intersection_ratio * m as f64).round() as usize).min(m);
    let extra = m - common;

    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut rng);
    let common_idx = &order[..common];
    let left_only = &order[common..common + extra.min(n.saturating_sub(common))];
    let right_start = common + left_only.len();
    let right_only = &order[right_start..(right_start + extra).min(n)];

    let mut left_records = Vec::new();
    let mut right_records = Vec::new();
    let mut ground_truth = HashMap::with_capacity(common);

    // Right ids are shuffled into 1_000_000.. so the numeric order of ids
    // carries no cross-view signal.
    let mut right_ids: Vec<u64> = (0..(common + right_only.len()) as u64)
        .map(|k| 1_000_000 + k)
        .collect();
    right_ids.shuffle(&mut rng);
    let mut next_right = right_ids.into_iter();

    for (k, &idx) in common_idx.iter().enumerate() {
        let (gt_id, traj) = &world.entities[idx];
        let left_id = EntityId(*gt_id);
        let right_id = EntityId(next_right.next().expect("enough right ids"));
        let mut lrng = StdRng::seed_from_u64(seed ^ (0xA5A5_0000 + k as u64));
        let mut rrng = StdRng::seed_from_u64(seed ^ (0x5A5A_0000 + k as u64));
        left_records.extend(sample_records(left_id, traj, left_view, &mut lrng));
        let right_sampled = sample_records(right_id, traj, right_view, &mut rrng);
        if !right_sampled.is_empty() {
            right_records.extend(right_sampled);
        }
        ground_truth.insert(left_id, right_id);
    }
    for (k, &idx) in left_only.iter().enumerate() {
        let (gt_id, traj) = &world.entities[idx];
        let mut lrng = StdRng::seed_from_u64(seed ^ (0xBEEF_0000 + k as u64));
        left_records.extend(sample_records(EntityId(*gt_id), traj, left_view, &mut lrng));
    }
    for (k, &idx) in right_only.iter().enumerate() {
        let (_, traj) = &world.entities[idx];
        let right_id = EntityId(next_right.next().expect("enough right ids"));
        let mut rrng = StdRng::seed_from_u64(seed ^ (0xC0DE_0000 + k as u64));
        right_records.extend(sample_records(right_id, traj, right_view, &mut rrng));
    }

    TwoViewSample {
        left: LocationDataset::from_records(left_records),
        right: LocationDataset::from_records(right_records),
        ground_truth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taxi::{taxi_world, TaxiConfig};

    fn world() -> World {
        taxi_world(&TaxiConfig {
            num_taxis: 20,
            span_secs: 24 * 3600,
            num_pois: 60,
            seed: 3,
            ..TaxiConfig::default()
        })
    }

    fn view() -> ViewConfig {
        ViewConfig {
            mean_interval_secs: 300.0,
            gps_noise_m: 15.0,
            inclusion_prob: 0.8,
            mode: SamplingMode::Poisson,
        }
    }

    #[test]
    fn intersection_ratio_respected() {
        let w = world();
        for ratio in [0.0, 0.3, 0.5, 1.0] {
            let s = sample_two_views(&w, ratio, &view(), &view(), 1);
            let m = ((20.0) / (2.0 - ratio)).floor() as usize;
            let expect_common = (ratio * m as f64).round() as usize;
            assert_eq!(s.num_common(), expect_common, "ratio {ratio}");
        }
    }

    #[test]
    fn views_are_asynchronous() {
        let w = world();
        let s = sample_two_views(&w, 1.0, &view(), &view(), 2);
        // Pick a common entity and verify the two views' timestamps differ.
        let (&l, &r) = s.ground_truth.iter().next().unwrap();
        let lt: Vec<i64> = s.left.records_of(l).iter().map(|x| x.time.secs()).collect();
        let rt: Vec<i64> = s
            .right
            .records_of(r)
            .iter()
            .map(|x| x.time.secs())
            .collect();
        assert!(!lt.is_empty() && !rt.is_empty());
        assert_ne!(lt, rt, "views must sample at independent times");
    }

    #[test]
    fn inclusion_probability_thins_records() {
        let w = world();
        let dense = ViewConfig {
            inclusion_prob: 1.0,
            ..view()
        };
        let sparse = ViewConfig {
            inclusion_prob: 0.2,
            ..view()
        };
        let a = sample_two_views(&w, 0.5, &dense, &dense, 3);
        let b = sample_two_views(&w, 0.5, &sparse, &sparse, 3);
        assert!(
            (b.left.num_records() as f64) < 0.5 * a.left.num_records() as f64,
            "thinning failed: {} vs {}",
            b.left.num_records(),
            a.left.num_records()
        );
    }

    #[test]
    fn right_ids_are_anonymized() {
        let w = world();
        let s = sample_two_views(&w, 0.5, &view(), &view(), 4);
        for e in s.right.entities() {
            assert!(e.0 >= 1_000_000, "right id {e} not anonymized");
        }
        for (l, r) in &s.ground_truth {
            assert!(s.left.contains(*l));
            assert!(s.right.contains(*r));
        }
    }

    #[test]
    fn ground_truth_is_one_to_one() {
        let w = world();
        let s = sample_two_views(&w, 0.7, &view(), &view(), 5);
        let mut rights: Vec<EntityId> = s.ground_truth.values().copied().collect();
        rights.sort_unstable();
        rights.dedup();
        assert_eq!(rights.len(), s.ground_truth.len());
    }

    #[test]
    fn deterministic_per_seed() {
        let w = world();
        let a = sample_two_views(&w, 0.5, &view(), &view(), 6);
        let b = sample_two_views(&w, 0.5, &view(), &view(), 6);
        assert_eq!(a.left.num_records(), b.left.num_records());
        assert_eq!(a.right.num_records(), b.right.num_records());
        assert_eq!(a.ground_truth, b.ground_truth);
        let c = sample_two_views(&w, 0.5, &view(), &view(), 7);
        assert_ne!(a.ground_truth, c.ground_truth);
    }

    #[test]
    fn gps_noise_stays_bounded() {
        let w = world();
        let quiet = ViewConfig {
            gps_noise_m: 5.0,
            ..view()
        };
        let s = sample_two_views(&w, 1.0, &quiet, &quiet, 8);
        let (&l, &r) = s.ground_truth.iter().next().unwrap();
        // Records of the same entity at close times should be close.
        let lr = s.left.records_of(l);
        let rr = s.right.records_of(r);
        let mut checked = 0;
        for a in lr.iter().take(50) {
            if let Some(b) = rr
                .iter()
                .find(|b| (b.time.secs() - a.time.secs()).abs() < 30)
            {
                let d = a.location.distance_m(&b.location);
                assert!(d < 2_000.0, "same entity {d} m apart within 30 s");
                checked += 1;
            }
        }
        let _ = checked; // may be zero for very asynchronous samples — fine
    }
}
