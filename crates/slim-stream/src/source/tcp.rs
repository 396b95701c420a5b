//! Live TCP feed: tail a loopback socket of side-tagged event lines.
//!
//! The feeder writes one record per `\n`-terminated line, in either the
//! CSV wire format ([`crate::source::parse_event_line`]) or JSON lines
//! ([`crate::source::parse_event_jsonl`]) — chosen per connection via
//! [`WireFormat`]. The source parses whatever the socket delivers
//! (chunk boundaries never have to align with lines) and reports EOF
//! when the peer closes. Reads block on the producer thread — the
//! pump's bounded channel keeps the engine side decoupled — so no
//! timeouts, polling, or async runtime are needed.

use std::io::Read;
use std::net::TcpStream;

use crate::event::StreamEvent;
use crate::source::{parse_wire_line, SourcePoll, StreamSource, WireFormat};

/// Read-buffer growth unit: large enough that a healthy feed needs few
/// syscalls, small enough not to matter per connection.
const READ_CHUNK: usize = 64 * 1024;

/// Longest line the ingest wire buffers. A valid event line is under
/// 200 bytes in either format; anything longer is malformed by
/// definition and is discarded up to its newline without being kept,
/// so a peer that never sends one costs neither memory nor rescans.
pub const MAX_WIRE_LINE: usize = 4 * 1024;

/// Tails a TCP connection of newline-delimited event lines.
#[derive(Debug)]
pub struct TcpLineSource {
    stream: TcpStream,
    format: WireFormat,
    /// Raw bytes received but not yet split into complete lines: at
    /// most [`MAX_WIRE_LINE`] between reads, plus one read chunk during
    /// one.
    buf: Vec<u8>,
    /// Inside an over-long line (already counted or reported): bytes
    /// are dropped until its newline arrives.
    discarding: bool,
    /// Parsed events not yet handed out (a single read can complete
    /// more lines than one `next_batch` asks for).
    parsed: std::collections::VecDeque<StreamEvent>,
    peer_closed: bool,
    /// Count-and-skip malformed lines instead of failing the stream
    /// (the multi-connection listener's hardening mode — one garbage
    /// client line must not kill the connection).
    lenient: bool,
    /// Malformed lines skipped so far (lenient mode only).
    malformed_lines: u64,
}

impl TcpLineSource {
    /// Connects to a CSV-wire feeder at `addr` (e.g. `127.0.0.1:9999`).
    pub fn connect(addr: &str) -> Result<Self, String> {
        Self::connect_with(addr, WireFormat::Csv)
    }

    /// Connects to a feeder speaking the given wire format.
    pub fn connect_with(addr: &str, format: WireFormat) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
        Ok(Self::from_stream_with(stream, format))
    }

    /// Wraps an already-established CSV-wire connection (e.g. one
    /// accepted from a listener).
    pub fn from_stream(stream: TcpStream) -> Self {
        Self::from_stream_with(stream, WireFormat::Csv)
    }

    /// Wraps an established connection speaking the given wire format.
    pub fn from_stream_with(stream: TcpStream, format: WireFormat) -> Self {
        Self {
            stream,
            format,
            buf: Vec::new(),
            discarding: false,
            parsed: std::collections::VecDeque::new(),
            peer_closed: false,
            lenient: false,
            malformed_lines: 0,
        }
    }

    /// Switches to lenient parsing: malformed lines (bad wire syntax,
    /// out-of-range fields, non-UTF-8 bytes) are counted in
    /// [`TcpLineSource::malformed_lines`] and skipped instead of
    /// failing the stream. I/O errors still fail it — a dead socket is
    /// not a parse problem.
    pub fn lenient(mut self) -> Self {
        self.lenient = true;
        self
    }

    /// Malformed lines skipped so far (only advances in
    /// [`TcpLineSource::lenient`] mode).
    pub fn malformed_lines(&self) -> u64 {
        self.malformed_lines
    }

    /// Parses `self.buf[start..end]` as one line into `self.parsed`;
    /// a line over [`MAX_WIRE_LINE`] is malformed without a look.
    fn take_line(&mut self, start: usize, end: usize) -> Result<(), String> {
        let parsed = if end - start > MAX_WIRE_LINE {
            Err(format!("feed sent a line over {MAX_WIRE_LINE} bytes"))
        } else {
            std::str::from_utf8(&self.buf[start..end])
                .map_err(|_| "feed sent non-UTF-8 line".to_string())
                .and_then(|l| parse_wire_line(self.format, l))
        };
        match parsed {
            Ok(Some(ev)) => self.parsed.push_back(ev),
            Ok(None) => {}
            Err(_) if self.lenient => self.malformed_lines += 1,
            Err(e) => return Err(e),
        }
        Ok(())
    }

    /// Splits complete lines off `self.buf` into parsed events. Every
    /// call consumes the buffer up to its last newline and keeps at
    /// most [`MAX_WIRE_LINE`] bytes of unterminated tail; the caller
    /// passes that tail's length back as `scanned` (it holds no
    /// newline), so no byte is searched twice.
    fn drain_lines(&mut self, scanned: usize, include_partial_tail: bool) -> Result<(), String> {
        let (mut start, mut from) = (0, scanned);
        while let Some(nl) = self.buf[from..].iter().position(|&b| b == b'\n') {
            let end = from + nl;
            if self.discarding {
                // The rest of an over-long line, judged when its head
                // crossed the bound.
                self.discarding = false;
            } else {
                self.take_line(start, end)?;
            }
            start = end + 1;
            from = start;
        }
        let len = self.buf.len();
        if self.discarding {
            start = len;
        } else if len - start > MAX_WIRE_LINE {
            // Over the bound with no newline in sight: judge the line
            // now and drop it as it arrives.
            self.discarding = true;
            self.take_line(start, len)?;
            start = len;
        } else if include_partial_tail && start < len {
            // Peer closed mid-line: treat the unterminated tail as a
            // final line rather than silently dropping data.
            self.take_line(start, len)?;
            start = len;
        }
        self.buf.drain(..start);
        Ok(())
    }
}

impl StreamSource for TcpLineSource {
    fn next_batch(&mut self, max: usize) -> Result<SourcePoll, String> {
        let max = max.max(1);
        loop {
            if !self.parsed.is_empty() {
                let n = self.parsed.len().min(max);
                return Ok(SourcePoll::Batch(self.parsed.drain(..n).collect()));
            }
            if self.peer_closed {
                return Ok(SourcePoll::End);
            }
            let old_len = self.buf.len();
            self.buf.resize(old_len + READ_CHUNK, 0);
            let got = self
                .stream
                .read(&mut self.buf[old_len..])
                .map_err(|e| format!("reading feed: {e}"))?;
            self.buf.truncate(old_len + got);
            if got == 0 {
                self.peer_closed = true;
            }
            self.drain_lines(old_len, self.peer_closed)?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Side;
    use crate::source::format_event_line;
    use geocell::LatLng;
    use slim_core::{EntityId, Timestamp};
    use std::io::Write;
    use std::net::TcpListener;

    fn ev(side: Side, entity: u64, t: i64) -> StreamEvent {
        StreamEvent::new(
            side,
            EntityId(entity),
            LatLng::from_degrees(10.0, 20.0),
            Timestamp(t),
        )
    }

    /// Feed events over a real loopback socket in ragged write chunks
    /// (splitting lines mid-byte) and check the source reassembles the
    /// exact sequence and reports EOF once the feeder hangs up.
    #[test]
    fn tails_a_loopback_feed_to_eof() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().unwrap().to_string();
        let events: Vec<StreamEvent> = (0..25)
            .map(|k| {
                ev(
                    if k % 2 == 0 { Side::Left } else { Side::Right },
                    k % 5,
                    100 + k as i64,
                )
            })
            .collect();
        let lines: String = events.iter().map(|e| format_event_line(e) + "\n").collect();
        // A header plus a blank line must be skipped, not fatal.
        let payload = format!("side,entity_id,latitude,longitude,timestamp\n\n{lines}");
        let feeder = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            // Ragged chunking: no write boundary aligns with a line.
            for chunk in payload.as_bytes().chunks(17) {
                conn.write_all(chunk).expect("write");
            }
            // Dropping the connection is the EOF signal.
        });

        let mut src = TcpLineSource::connect(&addr).expect("connect");
        let mut got = Vec::new();
        loop {
            match src.next_batch(7).expect("healthy feed") {
                SourcePoll::Batch(b) => got.extend(b),
                SourcePoll::End => break,
                SourcePoll::Pending => unreachable!("blocking reads never return Pending"),
            }
        }
        feeder.join().expect("feeder");
        assert_eq!(got.len(), events.len());
        for (a, b) in got.iter().zip(&events) {
            assert_eq!((a.side, a.entity, a.time), (b.side, b.entity, b.time));
        }
    }

    /// The JSONL wire over a real loopback socket with ragged write
    /// chunks (lines split mid-object): exact reassembly, EOF on
    /// hangup, and the unterminated final object still delivered.
    #[test]
    fn tails_a_jsonl_feed_in_ragged_chunks() {
        use crate::source::format_event_jsonl;

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().unwrap().to_string();
        let events: Vec<StreamEvent> = (0..30)
            .map(|k| {
                ev(
                    if k % 3 == 0 { Side::Left } else { Side::Right },
                    k % 7,
                    500 + k as i64,
                )
            })
            .collect();
        let mut payload: String = events
            .iter()
            .map(|e| format_event_jsonl(e) + "\n")
            .collect();
        // Blank line mid-stream must be skipped; the final newline is
        // dropped so the last object arrives unterminated.
        payload.insert(payload.len() / 2, '\n');
        payload.pop();
        let feeder = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            // 13-byte chunks: no write boundary aligns with an object.
            for chunk in payload.as_bytes().chunks(13) {
                conn.write_all(chunk).expect("write");
            }
        });

        let mut src = TcpLineSource::connect_with(&addr, WireFormat::Jsonl).expect("connect");
        let mut got = Vec::new();
        loop {
            match src.next_batch(4).expect("healthy feed") {
                SourcePoll::Batch(b) => got.extend(b),
                SourcePoll::End => break,
                SourcePoll::Pending => unreachable!("blocking reads never return Pending"),
            }
        }
        feeder.join().expect("feeder");
        assert_eq!(got.len(), events.len());
        for (a, b) in got.iter().zip(&events) {
            assert_eq!((a.side, a.entity, a.time), (b.side, b.entity, b.time));
        }
    }

    #[test]
    fn malformed_jsonl_line_surfaces_an_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let feeder = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            conn.write_all(
                b"{\"side\":\"L\",\"entity\":1,\"lat\":0,\"lng\":0,\"ts\":5}\n{broken\n",
            )
            .unwrap();
        });
        let mut src = TcpLineSource::connect_with(&addr, WireFormat::Jsonl).unwrap();
        let mut saw_err = false;
        for _ in 0..4 {
            match src.next_batch(10) {
                Ok(SourcePoll::End) => break,
                Ok(_) => {}
                Err(e) => {
                    assert!(e.contains("broken") || e.contains("expected"), "{e}");
                    saw_err = true;
                    break;
                }
            }
        }
        feeder.join().unwrap();
        assert!(saw_err, "malformed JSONL line must error");
    }

    #[test]
    fn unterminated_final_line_is_delivered() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let feeder = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            conn.write_all(b"L,1,0.0,0.0,5\nR,2,0.0,0.0,6").unwrap();
        });
        let mut src = TcpLineSource::connect(&addr).unwrap();
        let mut got = Vec::new();
        loop {
            match src.next_batch(10).unwrap() {
                SourcePoll::Batch(b) => got.extend(b),
                SourcePoll::End => break,
                SourcePoll::Pending => unreachable!(),
            }
        }
        feeder.join().unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[1].entity, EntityId(2));
    }

    #[test]
    fn malformed_line_surfaces_an_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let feeder = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            conn.write_all(b"L,1,0.0,0.0,5\nnot,an,event,line,at_all\n")
                .unwrap();
        });
        let mut src = TcpLineSource::connect(&addr).unwrap();
        // First batch delivers the good line; the poll that reaches the
        // bad line errors instead of panicking or dropping it.
        let mut saw_err = false;
        for _ in 0..4 {
            match src.next_batch(10) {
                Ok(SourcePoll::End) => break,
                Ok(_) => {}
                Err(e) => {
                    assert!(e.contains("not"), "{e}");
                    saw_err = true;
                    break;
                }
            }
        }
        feeder.join().unwrap();
        assert!(saw_err, "malformed line must error");
    }

    /// Lenient mode (the listener's hardening): garbage lines — bad
    /// syntax, out-of-range fields, non-UTF-8 bytes, truncated JSON —
    /// are counted and skipped, and every valid line around them still
    /// arrives. The strict default above keeps erroring.
    #[test]
    fn lenient_mode_counts_and_skips_garbage() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let feeder = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            conn.write_all(b"L,1,0.0,0.0,5\n").unwrap();
            conn.write_all(b"not,an,event,line,at_all\n").unwrap();
            conn.write_all(b"L,2,95.0,0.0,6\n").unwrap(); // lat out of range
            conn.write_all(&[0xFF, 0xFE, b'\n']).unwrap(); // non-UTF-8
            conn.write_all(b"R,3,0.0,0.0,7\n").unwrap();
        });
        let mut src = TcpLineSource::connect(&addr).unwrap().lenient();
        let mut got = Vec::new();
        loop {
            match src.next_batch(10).expect("lenient feed never parse-fails") {
                SourcePoll::Batch(b) => got.extend(b),
                SourcePoll::End => break,
                SourcePoll::Pending => unreachable!(),
            }
        }
        feeder.join().unwrap();
        assert_eq!(got.len(), 2, "both valid lines around the garbage");
        assert_eq!(got[0].entity, EntityId(1));
        assert_eq!(got[1].entity, EntityId(3));
        assert_eq!(src.malformed_lines(), 3);
    }
    /// A peer that streams megabytes without a newline costs one
    /// malformed line and a bounded buffer, and the valid line after
    /// the newline it finally sends still arrives. In strict mode the
    /// same feed is an error that names the bound, not the line.
    #[test]
    fn endless_line_is_discarded_within_a_bounded_buffer() {
        for lenient in [true, false] {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap().to_string();
            let feeder = std::thread::spawn(move || {
                let (mut conn, _) = listener.accept().unwrap();
                conn.write_all(b"L,1,0.0,0.0,5\n").unwrap();
                let junk = vec![b'x'; 256 * 1024];
                for _ in 0..12 {
                    // The strict reader hangs up at the bound.
                    if conn.write_all(&junk).is_err() {
                        return;
                    }
                }
                let _ = conn.write_all(b"\nR,3,0.0,0.0,7\n");
            });
            let mut src = TcpLineSource::connect(&addr).unwrap();
            if lenient {
                src = src.lenient();
            }
            let mut got = Vec::new();
            let outcome = loop {
                match src.next_batch(10) {
                    Ok(SourcePoll::Batch(b)) => got.extend(b),
                    Ok(SourcePoll::End) => break Ok(()),
                    Ok(SourcePoll::Pending) => unreachable!(),
                    Err(e) => break Err(e),
                }
            };
            // `drain` keeps capacity, so it bounds the high-water mark
            // (doubling growth can overshoot the length by 2x).
            assert!(
                src.buf.capacity() <= 2 * (MAX_WIRE_LINE + READ_CHUNK),
                "buffer grew to {} bytes",
                src.buf.capacity()
            );
            if lenient {
                outcome.expect("lenient feed never parse-fails");
                let entities: Vec<u64> = got.iter().map(|e| e.entity.0).collect();
                assert_eq!(entities, vec![1, 3], "the lines around the junk");
                assert_eq!(src.malformed_lines(), 1, "one line, however long");
            } else {
                let err = outcome.expect_err("strict mode rejects the line");
                assert!(err.contains(&format!("{MAX_WIRE_LINE} bytes")), "{err}");
            }
            drop(src);
            feeder.join().unwrap();
        }
    }
}
