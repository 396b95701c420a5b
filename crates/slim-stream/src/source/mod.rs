//! The async ingestion front-end: sources, the bounded channel, and the
//! pump that drains them into the engine.
//!
//! Everything upstream of [`crate::StreamEngine::ingest_batch`] lives
//! here, and there is one path through it. A **tier** ([`FanIn`]) feeds
//! its connections into a **bounded MPSC channel** ([`channel`]) whose
//! backpressure is explicit (`blocked_producer_ns`,
//! `queue_high_watermark`); the pump (`pump.rs`) merges the
//! per-connection watermarks into the global minimum
//! ([`ConnectionFrontier`], `frontier`), which decides lateness and
//! governs release from the **reorder buffer** (`reorder`), and fires
//! refresh ticks according to a [`TickPolicy`]:
//!
//! ```text
//!  conn 0 ──► reader ─┐
//!  conn 1 ──► reader ─┼──► MPSC channel ──► frontier merge ──► reorder
//!  conn N ──► reader ─┘    (backpressure)   (min watermark     buffer
//!                                            over live conns)    │ canonical
//!                                                                ▼ order
//!                                     tick policy ──► engine control scan
//! ```
//!
//! A connection is a [`StreamSource`] (a replay of merged datasets or a
//! synthetic workload through [`SyntheticSource`], a live TCP feed, a
//! script) polled by the one producer loop in
//! `listener`. [`crate::StreamEngine::drive`] takes a single source
//! and runs it as the tier with one connection;
//! [`crate::StreamEngine::drive_fan_in`] takes a whole tier, such as a
//! [`TcpIngestTier`] accept loop serving many concurrent clients. Same
//! channel, same frontier, same loop — with one connection the minimum
//! is over one watermark.
//!
//! The reorder buffer is what preserves the engine's bit-identity
//! contracts under a live feed: any delivery schedule whose
//! per-connection event-time disorder stays within the configured lag
//! reaches the engine in exactly the canonical `(time, side, entity)`
//! order a sorted replay would use, so links, update streams, and
//! finalized output match the direct replay path bit for bit
//! (`tests/ingest_equivalence.rs`,
//! `tests/multi_connection_equivalence.rs`).

pub mod channel;
mod frontier;
pub(crate) mod listener;
pub(crate) mod pump;
mod reorder;
mod synthetic;
mod tcp;

pub use channel::{ChannelStats, SendError};
pub use frontier::ConnectionFrontier;
pub use listener::{ConnMessage, FanIn, TcpIngestTier};
pub use pump::{DriveOptions, IngestReport};
pub use reorder::ReorderBuffer;
pub use synthetic::{Clock, SyntheticSource, WallClock};
pub use tcp::{TcpLineSource, MAX_WIRE_LINE};

use geocell::LatLng;
use slim_core::{EntityId, Timestamp};
use slim_telemetry::JsonValue;

use crate::event::{Side, StreamEvent};

/// One poll of a [`StreamSource`].
#[derive(Debug, Clone, PartialEq)]
pub enum SourcePoll {
    /// Events, in delivery order (not necessarily event-time order).
    Batch(Vec<StreamEvent>),
    /// No events available right now; the stream is not over. The pump
    /// yields and polls again.
    Pending,
    /// End of stream: no further events will ever be produced.
    End,
}

/// A pull-based producer of stream events. The producer loop owns the
/// source on a dedicated thread and polls it for batches, pushing every
/// event through the bounded channel — so an implementation may block
/// (e.g. on a socket read) without stalling the engine's consumer side.
pub trait StreamSource {
    /// Produces the next batch of at most `max` events.
    fn next_batch(&mut self, max: usize) -> Result<SourcePoll, String>;
}

impl<S: StreamSource + ?Sized> StreamSource for Box<S> {
    fn next_batch(&mut self, max: usize) -> Result<SourcePoll, String> {
        (**self).next_batch(max)
    }
}

/// When the pump fires refresh ticks while draining a source. Replaces
/// the engine's hard-coded every-N-events counter as the CLI-facing
/// policy; `EveryN` reproduces it exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TickPolicy {
    /// Refresh after every `n` accepted events (the legacy
    /// `--refresh-every` behaviour; `0` = no automatic ticks).
    EveryN(usize),
    /// Refresh when released event time crosses a boundary of the
    /// `interval_secs` grid (anchored at the engine's window origin):
    /// ticks track the *stream's* clock, not the arrival count.
    EventTime {
        /// Tick-grid width in event-time seconds (must be positive).
        interval_secs: i64,
    },
    /// Buffer out-of-order arrivals up to `max_lag_secs` of event-time
    /// disorder, and refresh whenever the watermark frontier seals a
    /// temporal window of the engine's scheme — every tick therefore
    /// serves links over fully-delivered windows only.
    Watermark {
        /// Out-of-order tolerance in event-time seconds.
        max_lag_secs: i64,
    },
}

impl Default for TickPolicy {
    /// The engine's own ingest-count default
    /// ([`crate::StreamConfig::default`]'s `refresh_every`).
    fn default() -> Self {
        TickPolicy::EveryN(crate::StreamConfig::default().refresh_every)
    }
}

/// Line formats a [`TcpLineSource`] feed can speak (`--wire`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireFormat {
    /// Comma-separated values, one event per line — see
    /// [`parse_event_line`].
    #[default]
    Csv,
    /// JSON lines: one flat JSON object per line — see
    /// [`parse_event_jsonl`].
    Jsonl,
}

impl WireFormat {
    /// The `--wire` spelling.
    pub fn label(self) -> &'static str {
        match self {
            WireFormat::Csv => "csv",
            WireFormat::Jsonl => "jsonl",
        }
    }
}

/// The largest timestamp magnitude the wire accepts, in every spelling
/// (CSV field, JSON number, JSON quoted integer): ±2^53 seconds, f64's
/// exactly-representable integer range. A corrupt line must error —
/// accepted, a timestamp near `i64::MAX` would poison the watermark
/// frontier for the rest of the stream and push the window arithmetic
/// to its overflow edge.
const MAX_WIRE_TIMESTAMP: u128 = 1 << 53;

/// Checks a parsed wire timestamp against [`MAX_WIRE_TIMESTAMP`]. Takes
/// the widest integer a wire spelling can carry, so the one bound is
/// the only narrowing there is.
fn wire_timestamp(ts: i128) -> Result<Timestamp, String> {
    if ts.unsigned_abs() > MAX_WIRE_TIMESTAMP {
        return Err(format!(
            "field `timestamp` out of range (|t| > 2^53 s): {ts}"
        ));
    }
    Ok(Timestamp(ts as i64))
}

/// Parses one feed line in the given [`WireFormat`]. `Ok(None)` =
/// skippable line (blank, or a CSV header).
pub fn parse_wire_line(format: WireFormat, line: &str) -> Result<Option<StreamEvent>, String> {
    match format {
        WireFormat::Csv => parse_event_line(line),
        WireFormat::Jsonl => parse_event_jsonl(line),
    }
}

/// The side-tagged event line format shared by CSV feeds and
/// [`TcpLineSource`]:
///
/// ```text
/// side,entity_id,latitude,longitude,timestamp[,accuracy_m]
/// ```
///
/// `side` is `L`/`R` (also accepted: `left`/`right`/`0`/`1`, any case).
/// Blank lines and a `side,...` header are skipped (`Ok(None)`).
pub fn parse_event_line(line: &str) -> Result<Option<StreamEvent>, String> {
    let trimmed = line.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    let mut fields = trimmed.split(',').map(str::trim);
    let mut next = |name: &str| {
        fields
            .next()
            .filter(|f| !f.is_empty())
            .ok_or_else(|| format!("missing field `{name}` in `{trimmed}`"))
    };
    let side = match next("side")? {
        "L" | "l" | "left" | "LEFT" | "Left" | "0" => Side::Left,
        "R" | "r" | "right" | "RIGHT" | "Right" | "1" => Side::Right,
        "side" => return Ok(None), // header line
        other => return Err(format!("bad side `{other}` (expected L or R)")),
    };
    let num = |name: &str, v: &str| -> Result<f64, String> {
        v.parse()
            .map_err(|_| format!("field `{name}` is not a number: `{v}`"))
    };
    let entity_s = next("entity_id")?;
    let entity: u64 = entity_s
        .parse()
        .map_err(|_| format!("field `entity_id` is not an integer: `{entity_s}`"))?;
    let lat = num("latitude", next("latitude")?)?;
    let lng = num("longitude", next("longitude")?)?;
    let ts_s = next("timestamp")?;
    let ts: i64 = ts_s
        .parse()
        .map_err(|_| format!("field `timestamp` is not an integer: `{ts_s}`"))?;
    let time = wire_timestamp(ts.into())?;
    if !(-90.0..=90.0).contains(&lat) || !(-180.0..=180.0).contains(&lng) {
        return Err(format!("coordinates out of range: ({lat}, {lng})"));
    }
    let accuracy = match fields.next().map(str::trim).filter(|f| !f.is_empty()) {
        Some(a) => {
            let v = num("accuracy_m", a)?;
            if !(v.is_finite() && v >= 0.0) {
                return Err(format!("accuracy must be non-negative, got {v}"));
            }
            v
        }
        None => 0.0,
    };
    Ok(Some(StreamEvent {
        side,
        entity: EntityId(entity),
        location: LatLng::from_degrees(lat, lng),
        time,
        accuracy_m: accuracy,
    }))
}

/// The JSON-lines event wire format, one flat object per line, read
/// through the workspace's one flat-JSON reader
/// ([`slim_telemetry::parse_flat_jsonl`]):
///
/// ```text
/// {"side":"L","entity":42,"lat":37.5,"lng":-122.25,"ts":12345,"acc":80.0}
/// ```
///
/// Accepted key aliases: `lat`/`latitude`, `lng`/`lon`/`longitude`,
/// `ts`/`time`/`timestamp`, `acc`/`accuracy`/`accuracy_m` (optional).
/// `side` takes the same spellings as the CSV format (`L`, `right`,
/// `0`, …) as a string, or the numbers `0`/`1`. Integers are exact: a
/// bare or quoted `entity` may be any `u64`, exactly as the CSV wire
/// and [`format_event_jsonl`] have it. Key order is free, unknown keys
/// are ignored whatever their value (forward compatibility), and blank
/// lines are skipped (`Ok(None)`). A known key holding `true`, `false`
/// or `null` is an error — `null` is not the number 0. Range
/// validation matches [`parse_event_line`].
pub fn parse_event_jsonl(line: &str) -> Result<Option<StreamEvent>, String> {
    let trimmed = line.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    let fields =
        slim_telemetry::parse_flat_jsonl(trimmed).map_err(|e| format!("{e} in `{trimmed}`"))?;
    let mut side: Option<Side> = None;
    let mut entity: Option<u64> = None;
    let mut lat: Option<f64> = None;
    let mut lng: Option<f64> = None;
    let mut ts: Option<Timestamp> = None;
    let mut accuracy = 0.0f64;
    let as_int = |v: &JsonValue, name: &str| -> Result<i128, String> {
        match v {
            JsonValue::U64(n) => Ok(i128::from(*n)),
            // A signed, fractional or exponent spelling arrives as an
            // f64: bound it to f64's exactly-representable integer
            // range, or an `as` cast of e.g. 1e300 would saturate
            // instead of erroring.
            JsonValue::F64(n) if n.fract() == 0.0 && n.abs() <= 9_007_199_254_740_992.0 => {
                Ok(*n as i128)
            }
            JsonValue::Str(s) => s
                .parse()
                .map_err(|_| format!("field `{name}` is not an integer: `{s}`")),
            _ => Err(format!("field `{name}` is not an integer: {v:?}")),
        }
    };
    let as_num = |v: &JsonValue, name: &str| -> Result<f64, String> {
        match v {
            JsonValue::Str(s) => s
                .parse()
                .map_err(|_| format!("field `{name}` is not a number: `{s}`")),
            _ => v
                .as_f64()
                .ok_or_else(|| format!("field `{name}` is not a number: {v:?}")),
        }
    };
    for (key, value) in &fields {
        match key.as_str() {
            "side" => {
                let spelled = match value {
                    JsonValue::Str(s) => s.clone(),
                    JsonValue::U64(n) => n.to_string(),
                    JsonValue::F64(n) => n.to_string(),
                    other => format!("{other:?}"),
                };
                side = Some(match spelled.as_str() {
                    "L" | "l" | "left" | "LEFT" | "Left" | "0" => Side::Left,
                    "R" | "r" | "right" | "RIGHT" | "Right" | "1" => Side::Right,
                    other => return Err(format!("bad side `{other}` (expected L or R)")),
                });
            }
            "entity" | "entity_id" => {
                let v = as_int(value, "entity")?;
                if v < 0 {
                    return Err(format!("field `entity` must be non-negative, got {v}"));
                }
                entity = Some(
                    u64::try_from(v)
                        .map_err(|_| format!("field `entity` does not fit 64 bits: {v}"))?,
                );
            }
            "lat" | "latitude" => lat = Some(as_num(value, "lat")?),
            "lng" | "lon" | "longitude" => lng = Some(as_num(value, "lng")?),
            "ts" | "time" | "timestamp" => ts = Some(wire_timestamp(as_int(value, "ts")?)?),
            "acc" | "accuracy" | "accuracy_m" => {
                let v = as_num(value, "acc")?;
                if !(v.is_finite() && v >= 0.0) {
                    return Err(format!("accuracy must be non-negative, got {v}"));
                }
                accuracy = v;
            }
            _ => {} // unknown keys tolerated
        }
    }
    let missing = |name: &str| format!("missing field `{name}` in `{trimmed}`");
    let side = side.ok_or_else(|| missing("side"))?;
    let entity = entity.ok_or_else(|| missing("entity"))?;
    let lat = lat.ok_or_else(|| missing("lat"))?;
    let lng = lng.ok_or_else(|| missing("lng"))?;
    let time = ts.ok_or_else(|| missing("ts"))?;
    if !(-90.0..=90.0).contains(&lat) || !(-180.0..=180.0).contains(&lng) {
        return Err(format!("coordinates out of range: ({lat}, {lng})"));
    }
    Ok(Some(StreamEvent {
        side,
        entity: EntityId(entity),
        location: LatLng::from_degrees(lat, lng),
        time,
        accuracy_m: accuracy,
    }))
}

/// Renders an event in the [`parse_event_jsonl`] wire format (no
/// trailing newline).
pub fn format_event_jsonl(ev: &StreamEvent) -> String {
    format!(
        "{{\"side\":\"{}\",\"entity\":{},\"lat\":{:.7},\"lng\":{:.7},\"ts\":{}{}}}",
        match ev.side {
            Side::Left => 'L',
            Side::Right => 'R',
        },
        ev.entity.0,
        ev.location.lat_deg(),
        ev.location.lng_deg(),
        ev.time.secs(),
        if ev.accuracy_m > 0.0 {
            format!(",\"acc\":{}", ev.accuracy_m)
        } else {
            String::new()
        }
    )
}

/// Renders an event in the [`parse_event_line`] wire format (no
/// trailing newline).
pub fn format_event_line(ev: &StreamEvent) -> String {
    format!(
        "{},{},{:.7},{:.7},{}{}",
        match ev.side {
            Side::Left => 'L',
            Side::Right => 'R',
        },
        ev.entity.0,
        ev.location.lat_deg(),
        ev.location.lng_deg(),
        ev.time.secs(),
        if ev.accuracy_m > 0.0 {
            format!(",{}", ev.accuracy_m)
        } else {
            String::new()
        }
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_line_roundtrip() {
        let ev = StreamEvent {
            side: Side::Right,
            entity: EntityId(42),
            location: LatLng::from_degrees(37.5, -122.25),
            time: Timestamp(12345),
            accuracy_m: 80.0,
        };
        let back = parse_event_line(&format_event_line(&ev)).unwrap().unwrap();
        assert_eq!(back.side, ev.side);
        assert_eq!(back.entity, ev.entity);
        assert_eq!(back.time, ev.time);
        assert!((back.location.lat_deg() - 37.5).abs() < 1e-6);
        assert!((back.accuracy_m - 80.0).abs() < 1e-9);
    }

    #[test]
    fn header_and_blank_lines_skip() {
        assert_eq!(parse_event_line("").unwrap(), None);
        assert_eq!(parse_event_line("  \t ").unwrap(), None);
        assert_eq!(
            parse_event_line("side,entity_id,latitude,longitude,timestamp").unwrap(),
            None
        );
    }

    #[test]
    fn side_aliases_parse() {
        for (s, side) in [("L", Side::Left), ("right", Side::Right), ("0", Side::Left)] {
            let ev = parse_event_line(&format!("{s},1,0.0,0.0,5"))
                .unwrap()
                .unwrap();
            assert_eq!(ev.side, side, "alias {s}");
        }
    }

    #[test]
    fn malformed_lines_error() {
        assert!(parse_event_line("X,1,0.0,0.0,5").is_err());
        assert!(parse_event_line("L,abc,0.0,0.0,5").is_err());
        assert!(parse_event_line("L,1,95.0,0.0,5").is_err());
        assert!(parse_event_line("L,1,0.0").is_err());
        assert!(parse_event_line("L,1,0.0,0.0,5,-3").is_err());
        // The timestamp bound (±2^53 s) holds for the CSV field too.
        assert!(parse_event_line("L,1,0.0,0.0,9223372036854775807").is_err());
        assert!(parse_event_line("L,1,0.0,0.0,-9223372036854775808").is_err());
        assert!(parse_event_line("L,1,0.0,0.0,9007199254740993").is_err());
        let edge = parse_event_line("L,1,0.0,0.0,-9007199254740992").unwrap();
        assert_eq!(edge.unwrap().time, Timestamp(-(1 << 53)));
    }

    #[test]
    fn jsonl_roundtrip() {
        let ev = StreamEvent {
            side: Side::Right,
            entity: EntityId(42),
            location: LatLng::from_degrees(37.5, -122.25),
            time: Timestamp(12345),
            accuracy_m: 80.0,
        };
        let line = format_event_jsonl(&ev);
        let back = parse_event_jsonl(&line).unwrap().unwrap();
        assert_eq!(back.side, ev.side);
        assert_eq!(back.entity, ev.entity);
        assert_eq!(back.time, ev.time);
        assert!((back.location.lat_deg() - 37.5).abs() < 1e-6);
        assert!((back.accuracy_m - 80.0).abs() < 1e-9);
        // Wire-format dispatch reaches the same parser.
        assert_eq!(
            parse_wire_line(WireFormat::Jsonl, &line).unwrap().unwrap(),
            back
        );
        assert_eq!(WireFormat::Jsonl.label(), "jsonl");
        assert_eq!(WireFormat::default(), WireFormat::Csv);
        // Render → parse is the identity on ids over all of `u64`, on
        // both wires: no spelling passes an id through an f64.
        for id in [(1 << 53) + 1, u64::MAX] {
            let ev = StreamEvent {
                entity: EntityId(id),
                ..ev
            };
            for wire in [WireFormat::Jsonl, WireFormat::Csv] {
                let line = match wire {
                    WireFormat::Jsonl => format_event_jsonl(&ev),
                    WireFormat::Csv => format_event_line(&ev),
                };
                let back = parse_wire_line(wire, &line).unwrap().unwrap();
                assert_eq!(back.entity, EntityId(id), "{} wire", wire.label());
            }
        }
    }

    #[test]
    fn jsonl_accepts_aliases_reordering_and_unknown_keys() {
        let ev = parse_event_jsonl(
            r#" { "timestamp": 9, "longitude": -1.5, "latitude": 2.25,
                  "entity_id": "7", "side": "left", "source": "gps-v2" } "#,
        )
        .unwrap()
        .unwrap();
        assert_eq!(ev.side, Side::Left);
        assert_eq!(ev.entity, EntityId(7));
        assert_eq!(ev.time, Timestamp(9));
        assert!((ev.location.lng_deg() - -1.5).abs() < 1e-9);
        assert_eq!(ev.accuracy_m, 0.0);
        // Numeric side spelling, escaped string values tolerated.
        let ev = parse_event_jsonl(r#"{"side":1,"entity":3,"lat":0,"lng":0,"ts":-5}"#)
            .unwrap()
            .unwrap();
        assert_eq!(ev.side, Side::Right);
        assert_eq!(ev.time, Timestamp(-5));
        // Blank lines skip like the CSV wire.
        assert_eq!(parse_event_jsonl("   ").unwrap(), None);
        // Integer ids are exact: two ids one apart above 2^53 stay two
        // entities, bare or quoted, up to `u64::MAX`.
        for (spelled, id) in [
            ("9007199254740993", (1u64 << 53) + 1),
            ("18446744073709551615", u64::MAX),
            (r#""18446744073709551615""#, u64::MAX),
        ] {
            let line = format!(r#"{{"side":"L","entity":{spelled},"lat":0,"lng":0,"ts":1}}"#);
            let ev = parse_event_jsonl(&line).unwrap().unwrap();
            assert_eq!(ev.entity, EntityId(id), "`{line}`");
        }
        // An unknown key is ignored whatever JSON scalar it holds.
        for extra in [r#""live":true"#, r#""device":null"#, r#""tag":"\u0041b""#] {
            let line = format!(r#"{{"side":"L","entity":1,{extra},"lat":0,"lng":0,"ts":1}}"#);
            let ev = parse_event_jsonl(&line).unwrap().unwrap();
            assert_eq!(
                (ev.entity, ev.time),
                (EntityId(1), Timestamp(1)),
                "`{line}`"
            );
        }
    }

    #[test]
    fn jsonl_malformed_lines_error() {
        for bad in [
            "not json at all",
            r#"{"side":"L","entity":1,"lat":0,"lng":0}"#, // missing ts
            r#"{"side":"X","entity":1,"lat":0,"lng":0,"ts":1}"#, // bad side
            r#"{"side":"L","entity":1.5,"lat":0,"lng":0,"ts":1}"#, // fractional id
            r#"{"side":"L","entity":1,"lat":95,"lng":0,"ts":1}"#, // out of range
            r#"{"side":"L","entity":1,"lat":0,"lng":0,"ts":1} trailing"#,
            r#"{"side":"L","entity":1,"lat":0,"lng":0,"ts":1,"acc":-2}"#,
            r#"{"side":"L","entity":-3,"lat":0,"lng":0,"ts":1}"#,
            r#"{"side":"L" "entity":1}"#, // missing comma
            // `null` is not 0 and a boolean is not a value of any known
            // key.
            r#"{"side":"L","entity":1,"lat":null,"lng":0,"ts":1}"#,
            r#"{"side":"L","entity":null,"lat":0,"lng":0,"ts":1}"#,
            r#"{"side":"L","entity":1,"lat":0,"lng":0,"ts":1,"acc":null}"#,
            r#"{"side":"L","entity":1,"lat":0,"lng":true,"ts":1}"#,
            r#"{"side":false,"entity":1,"lat":0,"lng":0,"ts":1}"#,
            r#"{"side":"L","entity":1,"lat":0,"lng":0,"ts":true}"#,
            // One past `u64::MAX`, bare and quoted.
            r#"{"side":"L","entity":18446744073709551616,"lat":0,"lng":0,"ts":1}"#,
            r#"{"side":"L","entity":"18446744073709551616","lat":0,"lng":0,"ts":1}"#,
            // Integers beyond f64's exact range must error, not
            // saturate into a frontier-poisoning timestamp.
            r#"{"side":"L","entity":1,"lat":0,"lng":0,"ts":1e300}"#,
            r#"{"side":"L","entity":1e300,"lat":0,"lng":0,"ts":1}"#,
            // The same bound on the quoted spelling, which never
            // passes through an f64.
            r#"{"side":"L","entity":1,"lat":0,"lng":0,"ts":"9223372036854775807"}"#,
            r#"{"side":"L","entity":1,"lat":0,"lng":0,"ts":"-9223372036854775808"}"#,
            r#"{"side":"L","entity":1,"lat":0,"lng":0,"time":"9007199254740993"}"#,
            r#"{"side":"L","entity":1,"lat":0,"lng":0,"ts":9223372036854775807}"#,
            r#"{"side":"L","entity":1,"lat":0,"lng":0,"ts":-9223372036854775808}"#,
        ] {
            assert!(parse_event_jsonl(bad).is_err(), "`{bad}` must be rejected");
        }
        // Both spellings accept the bound itself.
        for edge in [
            r#"{"side":"L","entity":1,"lat":0,"lng":0,"ts":9007199254740992}"#,
            r#"{"side":"L","entity":1,"lat":0,"lng":0,"ts":"9007199254740992"}"#,
        ] {
            let ev = parse_event_jsonl(edge).unwrap().unwrap();
            assert_eq!(ev.time, Timestamp(1 << 53), "`{edge}`");
        }
    }

    #[test]
    fn default_tick_policy_matches_engine_default() {
        assert_eq!(
            TickPolicy::default(),
            TickPolicy::EveryN(crate::StreamConfig::default().refresh_every)
        );
    }
}
