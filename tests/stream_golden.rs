//! The streaming engine's served output, bit for bit. A small Cab
//! replay runs through a two-shard engine whose sliding window is a
//! fraction of the replay, so head expiry keeps patching pairs below
//! their fold marks while fresh windows patch above them. The served
//! links — weights printed with `{:?}`, which round-trips an `f64`
//! exactly — and the deterministic `StreamStats` rows must equal the
//! fixture written by the build before the fold marks, the fast hasher
//! and the idf table. The equivalence suites compare incremental with
//! recomputed state within one build, so a kernel change that moved the
//! bits of both would pass them; it fails here.

use slim::datagen::Scenario;
use slim::lsh::LshConfig;
use slim::stream::{merge_datasets, StreamConfig, StreamEngine, StreamLshConfig, StreamStats};

/// The deterministic `StreamStats` rows, by name.
fn deterministic_rows(s: &StreamStats) -> [(&'static str, u64); 18] {
    [
        ("events", s.events),
        ("late_dropped", s.late_dropped),
        ("ticks", s.ticks),
        ("rescored_windows", s.rescored_windows),
        ("dirty_pairs_visited", s.dirty_pairs_visited),
        ("cached_pairs_at_ticks", s.cached_pairs_at_ticks),
        ("retired_pairs", s.retired_pairs),
        ("evicted_windows", s.evicted_windows),
        ("edges_patched", s.edges_patched),
        ("matching_region_size", s.matching_region_size),
        ("em_warm_iters", s.em_warm_iters),
        ("late_events", s.late_events),
        ("demoted_entities", s.demoted_entities),
        ("demoted_records", s.demoted_records),
        ("malformed_lines", s.malformed_lines),
        ("connections_served", s.connections_served),
        ("snapshots_published", s.snapshots_published),
        ("queries_served", s.queries_served),
    ]
}

/// Replays the fixture stream and renders what the engine served.
fn served() -> (String, StreamStats) {
    let sample = Scenario::cab(0.15, 29).sample(0.5, 29);
    let events = merge_datasets(&sample.left, &sample.right);
    // A 12-hour window over a four-day replay; the fig-11 ring, at a
    // step that fits the window.
    let cfg = StreamConfig {
        window_capacity: Some(48),
        refresh_every: 0,
        num_shards: 2,
        num_workers: 2,
        lsh: Some(StreamLshConfig {
            spans: 6,
            base: LshConfig {
                threshold: 0.4,
                step_windows: 8,
                spatial_level: 12,
                num_buckets: 4096,
            },
        }),
        ..StreamConfig::default()
    };
    let mut engine = StreamEngine::new(cfg).expect("valid config");
    let mut out = String::new();
    for (tick, chunk) in events.chunks(200).enumerate() {
        engine.ingest_batch(chunk);
        engine.refresh();
        // Every 25th tick and the last: the served set, in serving order.
        if tick % 25 == 24 || chunk.len() < 200 {
            out.push_str(&format!("# tick {}\nleft,right,weight\n", tick + 1));
            for e in engine.links() {
                out.push_str(&format!("{},{},{:?}\n", e.left.0, e.right.0, e.weight));
            }
        }
    }
    for (name, value) in deterministic_rows(engine.stats()) {
        out.push_str(&format!("# {name} {value}\n"));
    }
    (out, *engine.stats())
}

#[test]
fn served_links_and_counters_equal_the_golden_file() {
    let (out, stats) = served();
    // The replay exercises what it is for: links, and expiry under them.
    assert!(
        out.lines().filter(|l| !l.starts_with('#')).count() > 3,
        "{out}"
    );
    assert!(stats.evicted_windows > 0 && stats.ticks > 20, "{stats:?}");
    assert_eq!(out, include_str!("fixtures/stream_golden.txt"));
}
