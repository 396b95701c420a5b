//! Stream/batch equivalence: replaying a full synthetic dataset through
//! `slim-stream` with an unbounded window must produce exactly the links
//! of batch `Slim::link` on the same data — the acceptance contract of
//! the streaming subsystem.

use slim::core::{LinkageOutput, Slim, SlimConfig};
use slim::datagen::Scenario;
use slim::stream::{merge_datasets, StreamConfig, StreamEngine};

/// The batch output a replay must finalize to, bit for bit.
fn assert_same_output(streamed: &LinkageOutput, batch: &LinkageOutput) {
    assert_eq!(streamed.num_edges, batch.num_edges, "edge sets differ");
    assert_eq!(streamed.matching, batch.matching, "matchings differ");
    assert_eq!(streamed.links, batch.links, "links differ");
    let threshold = |o: &LinkageOutput| o.threshold.as_ref().map(|t| t.threshold);
    assert_eq!(threshold(streamed), threshold(batch), "thresholds differ");
}

/// With an unbounded window a replay finalizes to batch `Slim::link` on
/// the same data, and the links it serves after a last refresh are at
/// least as precise and complete as batch's.
#[test]
fn cab_replay_equals_batch() {
    let sample = Scenario::cab(0.04, 11).sample(0.5, 11);
    let batch = Slim::new(SlimConfig::default())
        .unwrap()
        .link(&sample.left, &sample.right);
    assert!(!batch.links.is_empty(), "fixture must produce links");
    let cfg = StreamConfig {
        refresh_every: 0,
        ..StreamConfig::default()
    };
    let mut engine = StreamEngine::new(cfg).unwrap();
    engine.ingest_batch(&merge_datasets(&sample.left, &sample.right));
    engine.refresh();
    let served = slim::eval::evaluate_edges(engine.links(), &sample.ground_truth);
    let batched = slim::eval::evaluate_edges(&batch.links, &sample.ground_truth);
    assert!(
        served.precision >= batched.precision - 1e-12 && served.recall >= batched.recall - 1e-12,
        "served {served:?} below batch {batched:?}"
    );
    assert_same_output(&engine.finalize().unwrap(), &batch);
}

/// Ticks along the way are serving state only: finalizing still runs the
/// exact pipeline over the incrementally built histories.
#[test]
fn sm_replay_with_intermediate_ticks_equals_batch() {
    let sample = Scenario::sm(0.004, 23).sample(0.5, 23);
    let batch = Slim::new(SlimConfig::default())
        .unwrap()
        .link(&sample.left, &sample.right);
    let cfg = StreamConfig {
        refresh_every: 500,
        ..StreamConfig::default()
    };
    let mut engine = StreamEngine::new(cfg).unwrap();
    for chunk in merge_datasets(&sample.left, &sample.right).chunks(256) {
        engine.ingest_batch(chunk);
    }
    assert!(engine.stats().ticks > 0, "ticks must have fired");
    assert_same_output(&engine.finalize().unwrap(), &batch);
}

/// The serving path itself (refresh ticks, not finalize) ends up at least
/// as good as batch linkage once the stream has played out, on a second
/// Cab draw.
#[test]
fn served_links_converge_to_truth_under_replay() {
    let sample = Scenario::cab(0.04, 7).sample(0.6, 7);
    let batch = Slim::new(SlimConfig::default())
        .unwrap()
        .link(&sample.left, &sample.right);
    let batched = slim::eval::evaluate_edges(&batch.links, &sample.ground_truth);
    let cfg = StreamConfig {
        refresh_every: 0,
        ..StreamConfig::default()
    };
    let mut engine = StreamEngine::new(cfg).unwrap();
    engine.ingest_batch(&merge_datasets(&sample.left, &sample.right));
    engine.refresh();
    assert!(!engine.links().is_empty(), "the replay must serve links");
    let served = slim::eval::evaluate_edges(engine.links(), &sample.ground_truth);
    assert!(
        served.precision >= batched.precision - 1e-12,
        "served precision {} below batch {}",
        served.precision,
        batched.precision
    );
    assert!(
        served.recall >= batched.recall - 1e-12,
        "served recall {} below batch {}",
        served.recall,
        batched.recall
    );
}
