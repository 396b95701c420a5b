//! Check-in linkage: the sparse, planet-scale scenario.
//!
//! ```text
//! cargo run --release --example checkin_linkage
//! ```
//!
//! Links two social check-in services (the paper's SM setup: thousands
//! of users with only ~12 geotagged records each), showing the effect of
//! the LSH filter on a workload where brute force is quadratic in a
//! large entity count, and demonstrating spatial-level auto-tuning.

use std::time::Instant;

use slim::core::{tuning, Slim, SlimConfig};
use slim::datagen::Scenario;
use slim::eval::evaluate_edges;
use slim::lsh::{LshConfig, LshFilter};

fn main() {
    // ~900 users across the globe, ~12 records each.
    let scenario = Scenario::sm(0.03, 7);
    let sample = scenario.sample(0.5, 7);
    println!(
        "left {} entities / {} records (avg {:.1}/entity); right {} entities; {} common",
        sample.left.num_entities(),
        sample.left.num_records(),
        sample.left.avg_records_per_entity(),
        sample.right.num_entities(),
        sample.num_common(),
    );

    // Auto-tune the spatial level on the data itself (paper §3.3) —
    // check-in services have no labeled pairs to tune on.
    let base = SlimConfig::default();
    let levels = [8u8, 10, 12, 14, 16];
    let tuned = tuning::auto_tune_linkage_level(&sample.left, &sample.right, &base, &levels, 5);
    println!("auto-tuned spatial level: {tuned}");
    let cfg = SlimConfig {
        spatial_level: tuned,
        ..base
    };
    let slim = Slim::new(cfg).expect("tuned config is valid");

    // Brute force.
    let t0 = Instant::now();
    let brute = slim.link(&sample.left, &sample.right);
    let brute_time = t0.elapsed();
    let brute_m = evaluate_edges(&brute.links, &sample.ground_truth);

    // LSH-filtered: the filter is cut at the prepared linkage's own
    // windows and signs only the entities `prepare` kept, so no
    // candidate names an entity the scorer dropped.
    let t0 = Instant::now();
    let prepared = slim.prepare(&sample.left, &sample.right);
    let filter = LshFilter::for_prepared(
        // Sparse check-ins need long query spans (24 h) so a span holds a
        // record at all, city-scale cells so co-captured stays agree, and
        // a low similarity threshold: with ~11 records over 26 spans most
        // signature slots are placeholders, capping even a true pair's
        // signature similarity near 0.2.
        LshConfig {
            threshold: 0.2,
            step_windows: 96,
            spatial_level: 12,
            num_buckets: 4096,
        },
        &sample.left,
        &sample.right,
        &prepared,
    );
    let candidates = filter.candidates();
    let lsh = prepared.link_with_candidates(&candidates);
    let lsh_time = t0.elapsed();
    let lsh_m = evaluate_edges(&lsh.links, &sample.ground_truth);

    let total_pairs = sample.left.num_entities() as u64 * sample.right.num_entities() as u64;
    println!("\n                   brute-force        LSH-filtered");
    println!(
        "entity pairs     {:>12}      {:>12}  ({:.1}% of all)",
        total_pairs,
        candidates.len(),
        100.0 * candidates.len() as f64 / total_pairs.max(1) as f64
    );
    println!(
        "record cmps      {:>12}      {:>12}  ({:.0}x speed-up)",
        brute.stats.record_pair_comparisons,
        lsh.stats.record_pair_comparisons,
        brute.stats.record_pair_comparisons as f64
            / lsh.stats.record_pair_comparisons.max(1) as f64
    );
    println!(
        "wall time        {:>10.2?}        {:>10.2?}",
        brute_time, lsh_time
    );
    println!(
        "P / R            {:>5.3} / {:>5.3}     {:>5.3} / {:>5.3}",
        brute_m.precision, brute_m.recall, lsh_m.precision, lsh_m.recall
    );
    println!(
        "F1               {:>12.3}      {:>12.3}  (relative {:.3})",
        brute_m.f1,
        lsh_m.f1,
        if brute_m.f1 > 0.0 {
            lsh_m.f1 / brute_m.f1
        } else {
            1.0
        }
    );
}
