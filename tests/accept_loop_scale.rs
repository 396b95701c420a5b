//! The accept loop at scale: 64 real loopback clients, dealt the sparse
//! check-in replay round-robin, through `TcpIngestTier` and
//! `drive_fan_in`. The reorder lag covers the replay's whole event-time
//! span, so however the clients race the frontier holds every event
//! until the last feed closes and the engine sees the canonical order:
//! nothing may be lost, late, malformed or evicted, all 64 connections
//! must be counted, and the served links and deterministic counters must
//! equal the same wire events through the single-source `drive` under
//! the same options — for every shard/worker topology.

mod common;

use std::io::Write;
use std::net::TcpStream;

use slim::core::Edge;
use slim::stream::source::{format_event_line, parse_wire_line, SyntheticSource};
use slim::stream::{
    DriveOptions, IngestReport, StreamEngine, StreamEvent, StreamStats, TcpIngestTier, TickPolicy,
    WireFormat,
};

const CLIENTS: usize = 64;
const TICK_EVERY: usize = 5_000;

/// Closes a drive the way both sides of the comparison do and reads off
/// what must agree.
fn observe(mut engine: StreamEngine, report: &IngestReport) -> (Vec<Edge>, StreamStats) {
    assert_eq!(report.late_events, 0, "the lag covers the whole span");
    assert_eq!(report.malformed_lines, 0, "the feeds are clean");
    assert_eq!(report.idle_evictions, 0, "no idle timeout is set");
    engine.refresh();
    let stats = *engine.stats();
    assert_eq!(
        stats.snapshots_published, stats.ticks,
        "every tick publishes exactly one epoch"
    );
    (engine.links().to_vec(), stats)
}

#[test]
fn sixty_four_loopback_clients_match_the_single_source_drive() {
    // What the engine is fed is what crosses the wire: the CSV line
    // keeps seven decimals of a coordinate.
    let lines: Vec<String> = common::sm_replay().iter().map(format_event_line).collect();
    let events: Vec<StreamEvent> = lines
        .iter()
        .map(|line| {
            parse_wire_line(WireFormat::Csv, line)
                .expect("own line")
                .expect("an event")
        })
        .collect();
    let span = events.last().expect("non-empty replay").time.secs() - events[0].time.secs();
    let opts = DriveOptions {
        queue_cap: 8_192,
        tick_policy: TickPolicy::EveryN(TICK_EVERY),
        max_lag_secs: span + 1,
        ..DriveOptions::default()
    };

    let mut engine = StreamEngine::new(common::sm_config(1)).expect("valid config");
    let report = engine
        .drive(SyntheticSource::from_events(events.clone()), &opts)
        .expect("drive");
    assert_eq!(report.events_delivered, events.len() as u64);
    let (links, stats) = observe(engine, &report);
    assert!(
        !links.is_empty() && stats.ticks > 1,
        "the replay must tick and link"
    );
    assert_eq!(stats.connections_served, 1);

    let mut feeds = vec![Vec::new(); CLIENTS];
    for (i, line) in lines.iter().enumerate() {
        writeln!(feeds[i % CLIENTS], "{line}").expect("write to a Vec");
    }
    for topology in [1, 2, 4] {
        let tier = TcpIngestTier::bind("127.0.0.1:0", WireFormat::Csv, CLIENTS).expect("bind");
        let addr = tier.local_addr().expect("bound address");
        let mut engine = StreamEngine::new(common::sm_config(topology)).expect("valid config");
        let report = std::thread::scope(|scope| {
            for feed in &feeds {
                scope.spawn(move || {
                    let mut client = TcpStream::connect(addr).expect("connect");
                    client.write_all(feed).expect("write feed");
                });
            }
            engine.drive_fan_in(tier, &opts).expect("drive_fan_in")
        });
        assert_eq!(
            report.events_delivered,
            events.len() as u64,
            "every client's events must arrive ({topology} shards × {topology} workers)"
        );
        assert_eq!(report.connections, CLIENTS as u64);
        let (fan_in_links, mut fan_in_stats) = observe(engine, &report);
        assert_eq!(fan_in_stats.connections_served, CLIENTS as u64);
        // The one counter that tells the two drives apart.
        fan_in_stats.connections_served = stats.connections_served;
        assert_eq!(
            fan_in_stats, stats,
            "{topology} shards × {topology} workers"
        );
        assert_eq!(
            fan_in_links, links,
            "{topology} shards × {topology} workers"
        );
    }
}
