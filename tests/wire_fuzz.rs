//! Wire-parsing hardening under fuzzed input: a lenient connection
//! survives arbitrary garbage, truncated lines, and corrupt bytes —
//! malformed lines are counted and skipped, never fatal to the
//! connection — and every line the parser accepts still arrives intact.
//!
//! The expected classification of each line is computed with
//! [`slim::stream::source::parse_wire_line`] as the oracle (a truncated
//! CSV line can still be valid — `L,1,10.0,20.0,100` cut after the
//! `10` parses fine — so the test must not re-derive the grammar), and
//! the end-to-end claim is about the *tier*: delivered events match the
//! oracle's accepted lines in order, the `Leave` carries exactly the
//! oracle's error count, and the connection reaches a clean EOF no
//! matter what was thrown at it.

use std::io::Write;
use std::net::TcpStream;

use proptest::prelude::*;

use slim::stream::source::{channel, parse_wire_line, SourcePoll, MAX_WIRE_LINE};
use slim::stream::{ConnMessage, FanIn, StreamSource, TcpIngestTier, TcpLineSource, WireFormat};

/// One scripted feed line: built from generated parts, possibly
/// mangled. The raw string never contains `\n`/`\r` — line framing
/// belongs to the feeder.
fn arb_line() -> impl Strategy<Value = (u8, String)> {
    (
        0u8..=4,                                 // shape selector
        0u64..1_000,                             // entity
        0i64..100_000,                           // timestamp
        0usize..64,                              // truncation cut
        prop::collection::vec(0u8..=255, 0..24), // garbage bytes
    )
        .prop_map(|(shape, entity, ts, cut, noise)| {
            let lat = 10.0 + (entity % 50) as f64;
            let csv = format!("L,{entity},{lat},20.5,{ts}");
            let jsonl = format!(
                "{{\"side\":\"R\",\"entity\":{entity},\"lat\":{lat},\"lng\":20.5,\"ts\":{ts}}}"
            );
            let line = match shape {
                0 => csv,
                1 => jsonl,
                2 => {
                    // Truncate a well-formed line mid-byte (ASCII, so
                    // any cut is a char boundary).
                    let base = if entity % 2 == 0 { csv } else { jsonl };
                    base[..cut % base.len()].to_string()
                }
                3 => String::new(), // blank: skipped, not malformed
                _ => noise
                    .into_iter()
                    .map(|b| (b' ' + b % 95) as char) // printable ASCII
                    .collect(),
            };
            (shape, line.replace(['\n', '\r'], " "))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // The oracle itself must be total: no panic on any single line, in
    // either wire format.
    #[test]
    fn parsing_any_line_never_panics(case in arb_line()) {
        let (_, line) = case;
        let _ = parse_wire_line(WireFormat::Csv, &line);
        let _ = parse_wire_line(WireFormat::Jsonl, &line);
    }

    // A lenient connection fed a fuzzed mix of valid, truncated, blank,
    // and garbage lines delivers exactly the oracle-accepted events in
    // order, reports exactly the oracle-rejected count on its `Leave`,
    // and never dies early.
    #[test]
    fn lenient_connection_counts_and_skips_fuzzed_lines(
        lines in prop::collection::vec(arb_line(), 1..80),
        wire_pick in 0u8..2,
    ) {
        let wire = if wire_pick == 0 { WireFormat::Csv } else { WireFormat::Jsonl };
        let mut expected_events = Vec::new();
        let mut expected_malformed = 0u64;
        for (_, line) in &lines {
            match parse_wire_line(wire, line) {
                Ok(Some(ev)) => expected_events.push(ev),
                Ok(None) => {}
                Err(_) => expected_malformed += 1,
            }
        }

        let tier = TcpIngestTier::bind("127.0.0.1:0", wire, 1).unwrap();
        let addr = tier.local_addr().unwrap();
        let (tx, rx) = channel::bounded::<ConnMessage>(64);
        let tier_thread = std::thread::spawn(move || tier.run(tx));
        let feeder = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            for (_, line) in &lines {
                s.write_all(line.as_bytes()).expect("write line");
                s.write_all(b"\n").expect("write newline");
            }
        });

        let mut msgs = Vec::new();
        let mut buf = Vec::new();
        while rx.recv_many(&mut buf, 32) {
            msgs.append(&mut buf);
        }
        feeder.join().unwrap();
        tier_thread.join().unwrap().unwrap();

        let delivered: Vec<_> = msgs
            .iter()
            .filter_map(|m| match m {
                ConnMessage::Event { event, .. } => Some(*event),
                _ => None,
            })
            .collect();
        // Accepted lines must arrive intact and in order.
        prop_assert_eq!(&delivered, &expected_events);
        let leave_malformed: Vec<u64> = msgs
            .iter()
            .filter_map(|m| match m {
                ConnMessage::Leave { malformed_lines, .. } => Some(*malformed_lines),
                _ => None,
            })
            .collect();
        // One clean Leave carrying the oracle's rejection count.
        prop_assert_eq!(leave_malformed, vec![expected_malformed]);
    }
}

/// The wire bounds a line to [`MAX_WIRE_LINE`] bytes the way the query
/// port bounds its own: megabytes without a newline are one malformed
/// line to a lenient connection (the valid line after them still
/// arrives), and to a strict reader an error that names the bound
/// instead of quoting the line back.
#[test]
fn an_endless_line_is_one_malformed_line() {
    let valid = "L,7,10.0,20.5,300";
    let feed = move |addr: std::net::SocketAddr| {
        std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            let junk = vec![b'x'; 64 * 1024];
            for _ in 0..48 {
                // 3 MiB; a strict reader hangs up at the bound.
                if s.write_all(&junk).is_err() {
                    return;
                }
            }
            let _ = s.write_all(format!("\n{valid}\n").as_bytes());
        })
    };

    let tier = TcpIngestTier::bind("127.0.0.1:0", WireFormat::Csv, 1).unwrap();
    let feeder = feed(tier.local_addr().unwrap());
    let (tx, rx) = channel::bounded::<ConnMessage>(64);
    let tier_thread = std::thread::spawn(move || tier.run(tx));
    let mut msgs = Vec::new();
    let mut buf = Vec::new();
    while rx.recv_many(&mut buf, 32) {
        msgs.append(&mut buf);
    }
    feeder.join().unwrap();
    tier_thread.join().unwrap().unwrap();
    let expected = parse_wire_line(WireFormat::Csv, valid).unwrap().unwrap();
    assert_eq!(
        msgs,
        vec![
            ConnMessage::Join { conn: 0 },
            ConnMessage::Event {
                conn: 0,
                event: expected
            },
            ConnMessage::Leave {
                conn: 0,
                malformed_lines: 1
            },
        ]
    );

    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let feeder = feed(listener.local_addr().unwrap());
    let (stream, _) = listener.accept().unwrap();
    let mut strict = TcpLineSource::from_stream(stream);
    let err = loop {
        match strict.next_batch(16) {
            Ok(SourcePoll::End) => panic!("a strict reader must reject the line"),
            Ok(_) => {}
            Err(e) => break e,
        }
    };
    assert!(err.contains(&format!("{MAX_WIRE_LINE} bytes")), "{err}");
    drop(strict);
    feeder.join().unwrap();
}

/// The wire bounds a timestamp to ±2^53 s in every spelling — CSV
/// field, JSON number, JSON quoted integer — so `i64::MAX` / `i64::MIN`
/// are malformed lines, not frontier-poisoning events.
#[test]
fn unbounded_timestamps_are_malformed_in_every_spelling() {
    let bound = 1i64 << 53;
    for (ts, ok) in [
        (i64::MAX, false),
        (i64::MIN, false),
        // (Two past the bound: the JSON number scanner reads through an
        // f64, where 2^53 + 1 is not representable.)
        (bound + 2, false),
        (-bound - 2, false),
        (bound, true),
        (-bound, true),
    ] {
        let spellings = [
            (WireFormat::Csv, format!("L,1,10.0,20.5,{ts}")),
            (
                WireFormat::Jsonl,
                format!("{{\"side\":\"L\",\"entity\":1,\"lat\":10.0,\"lng\":20.5,\"ts\":{ts}}}"),
            ),
            (
                WireFormat::Jsonl,
                format!(
                    "{{\"side\":\"L\",\"entity\":1,\"lat\":10.0,\"lng\":20.5,\"ts\":\"{ts}\"}}"
                ),
            ),
        ];
        for (wire, line) in spellings {
            match parse_wire_line(wire, &line) {
                Ok(Some(ev)) => assert!(ok && ev.time.secs() == ts, "accepted `{line}`"),
                Ok(None) => panic!("`{line}` is not skippable"),
                Err(_) => assert!(!ok, "rejected `{line}`"),
            }
        }
    }
}

/// Everything the wire does accept is safe window arithmetic, in debug
/// (overflow panics) and release (overflow wraps) alike: the two
/// extremes of the accepted range against each other — as origin and as
/// event, either way round — saturate at the last window or clamp to
/// the first instead of wrapping into an arbitrary one.
#[test]
fn extreme_accepted_timestamps_neither_panic_nor_wrap() {
    use slim::stream::{StreamConfig, StreamEngine, StreamLshConfig};
    let bound = 1i64 << 53;
    let event = |entity: u64, ts: i64| {
        let line = format!("L,{entity},10.0,20.5,{ts}");
        parse_wire_line(WireFormat::Csv, &line)
            .expect("within the wire bound")
            .expect("an event line")
    };
    for (first, then) in [(-bound, bound), (bound, -bound)] {
        let mut engine = StreamEngine::new(StreamConfig {
            window_capacity: Some(4),
            refresh_every: 3,
            lsh: Some(StreamLshConfig::default()),
            ..StreamConfig::default()
        })
        .expect("valid config");
        // The first event pins the window origin at one extreme.
        engine.ingest(&event(1, first));
        engine.ingest(&event(2, first - 900 * first.signum()));
        engine.ingest(&event(1, then));
        engine.ingest(&event(2, then));
        engine.ingest(&event(1, first));
        engine.refresh();
        let stats = engine.stats();
        if then > first {
            // Far future: the watermark saturates, everything before
            // it expires, and the straggler at the origin is late.
            assert_eq!((stats.events, stats.late_dropped), (4, 1));
        } else {
            // Far past clamps to window 0: nothing is late.
            assert_eq!((stats.events, stats.late_dropped), (5, 0));
        }
    }
}
