//! The link-query server: answers `LINKS` / `THRESHOLD` / `EPOCH`
//! queries from the current epoch snapshot while the engine ingests.
//!
//! Architecture mirrors [`slim_telemetry::MetricsServer`] (bind
//! `127.0.0.1:0`-style, a named accept thread, a shutdown flag plus a
//! self-connect to wake the final accept), with two differences: each
//! connection gets its own handler thread running a request/response
//! **line protocol** (many queries per connection, not one-shot HTTP),
//! and every answer comes from [`EpochPointer::load`] — an `Arc` clone
//! of the immutable snapshot the last tick barrier published, so
//! serving never touches engine state and never blocks a barrier.
//!
//! ## Protocol
//!
//! One request per line, one reply per request; replies start with
//! `OK` or `ERR`:
//!
//! ```text
//! → EPOCH
//! ← OK epoch=4 links=17 events=4200 frontier=12600
//! → THRESHOLD
//! ← OK 0.3271
//! → LINKS 42
//! ← OK 2
//! ← 42,1042,0.8312
//! ← 42,977,0.4519
//! → anything else
//! ← ERR unknown command
//! ```
//!
//! `LINKS` replies carry a count header followed by that many
//! [`slim_core::matching::Edge::wire_line`] rows (snapshot order,
//! heaviest first). Malformed input never panics and never wedges a
//! connection: garbage and truncated lines get a one-line `ERR` reply
//! and the connection keeps serving; only a line longer than
//! [`MAX_QUERY_LINE`] closes the connection (after an `ERR` reply),
//! because an unframed byte stream cannot be resynchronized past it.

use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use slim_core::EntityId;
use slim_telemetry::Histogram;

use crate::snapshot::EpochPointer;
use crate::source::{Clock, WallClock};

/// Longest accepted request line in bytes (newline excluded). Longer
/// lines are answered with `ERR line too long` and the connection is
/// closed.
pub const MAX_QUERY_LINE: usize = 1024;

/// How long a connection handler blocks on a read before re-checking
/// the shutdown flag — bounds how long [`LinkQueryServer`]'s drop can
/// wait on an idle connection.
const READ_POLL: Duration = Duration::from_millis(100);

/// What one server run did: the counters the CLI folds into
/// [`crate::StreamStats`] via
/// [`crate::StreamEngine::absorb_serve_report`].
#[derive(Debug, Clone, Default)]
pub struct ServeReport {
    /// Query lines answered (with `OK` or `ERR`).
    pub queries_served: u64,
    /// Per-query server-side handling spans (nanoseconds from a parsed
    /// request line to its reply handed to the socket).
    pub query_latency: Histogram,
}

/// State shared between the accept loop, the connection handlers, and
/// the owning [`LinkQueryServer`].
struct ServeShared {
    epoch: EpochPointer,
    shutdown: AtomicBool,
    queries: AtomicU64,
    latency: Mutex<Histogram>,
    clock: Arc<dyn Clock + Sync>,
}

/// A loopback TCP server answering the query protocol from the current
/// epoch. Bind it with the engine's [`crate::StreamEngine::epoch_pointer`]
/// before a drive starts: it serves epoch 0 (empty) until the first
/// tick, tracks every published epoch during the drive, and keeps
/// serving the final epoch until dropped. Dropping stops the accept
/// loop and joins every connection handler.
pub struct LinkQueryServer {
    addr: SocketAddr,
    shared: Arc<ServeShared>,
    accept_loop: Option<JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl LinkQueryServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts accepting query connections against `epoch`.
    pub fn bind(addr: &str, epoch: EpochPointer) -> Result<Self, String> {
        let listener =
            TcpListener::bind(addr).map_err(|e| format!("serve: binding {addr}: {e}"))?;
        let local = listener
            .local_addr()
            .map_err(|e| format!("serve: local addr: {e}"))?;
        let shared = Arc::new(ServeShared {
            epoch,
            shutdown: AtomicBool::new(false),
            queries: AtomicU64::new(0),
            latency: Mutex::new(Histogram::new()),
            clock: Arc::new(WallClock::new()),
        });
        let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept_loop = {
            let shared = Arc::clone(&shared);
            let handlers = Arc::clone(&handlers);
            std::thread::Builder::new()
                .name("slim-serve".into())
                .spawn(move || {
                    for conn in listener.incoming() {
                        if shared.shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(conn) = conn else { continue };
                        let shared = Arc::clone(&shared);
                        let handler = std::thread::Builder::new()
                            .name("slim-serve-conn".into())
                            .spawn(move || serve_connection(conn, &shared));
                        if let Ok(handler) = handler {
                            let mut handlers = handlers.lock().expect("handler list poisoned");
                            // A finished handler's handle still holds its
                            // thread's stack; dropping it lets that go, so
                            // the list holds live connections only.
                            handlers.retain(|h| !h.is_finished());
                            handlers.push(handler);
                        }
                    }
                })
                .map_err(|e| format!("serve: spawning accept loop: {e}"))?
        };
        Ok(Self {
            addr: local,
            shared,
            accept_loop: Some(accept_loop),
            handlers,
        })
    }

    /// The bound address (the resolved port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Query lines answered so far (live — readable mid-drive).
    pub fn queries_served(&self) -> u64 {
        self.shared.queries.load(Ordering::SeqCst)
    }

    /// A point-in-time copy of the serve counters — fold into the
    /// engine with [`crate::StreamEngine::absorb_serve_report`] once
    /// serving is done.
    pub fn report(&self) -> ServeReport {
        ServeReport {
            queries_served: self.queries_served(),
            query_latency: self
                .shared
                .latency
                .lock()
                .expect("latency histogram poisoned")
                .clone(),
        }
    }
}

impl Drop for LinkQueryServer {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking accept so the loop observes the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_loop.take() {
            let _ = h.join();
        }
        // Handlers observe the flag within one read-poll interval.
        let handlers = std::mem::take(&mut *self.handlers.lock().expect("handler list poisoned"));
        for h in handlers {
            let _ = h.join();
        }
    }
}

/// Outcome of one bounded line read.
enum LineRead {
    /// A complete line (newline stripped) is in the buffer.
    Line,
    /// The read timed out mid-line; the partial line stays buffered.
    Poll,
    /// Clean EOF (or EOF mid-line — a truncated final line is not a
    /// query, matching the lenient ingest framing).
    Eof,
    /// The line exceeded [`MAX_QUERY_LINE`] bytes.
    Oversized,
    /// The connection failed.
    Err,
}

/// Reads one `\n`-terminated line into `buf` (appending to whatever a
/// previous [`LineRead::Poll`] left there), never more than
/// [`MAX_QUERY_LINE`] bytes of it. Byte-at-a-time over the
/// `BufReader` — the buffering makes that cheap, and it keeps the
/// bound exact without reading past the newline.
fn read_bounded_line(reader: &mut BufReader<TcpStream>, buf: &mut Vec<u8>) -> LineRead {
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => return LineRead::Eof,
            Ok(_) => {
                if byte[0] == b'\n' {
                    return LineRead::Line;
                }
                if buf.len() >= MAX_QUERY_LINE {
                    return LineRead::Oversized;
                }
                buf.push(byte[0]);
            }
            Err(e) => {
                return match e.kind() {
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => LineRead::Poll,
                    std::io::ErrorKind::Interrupted => continue,
                    _ => LineRead::Err,
                }
            }
        }
    }
}

/// One connection's life: read query lines, answer each from the
/// current epoch, until EOF, an IO error, an oversized line, or server
/// shutdown. Never panics on any input; errors are answered, not
/// thrown.
fn serve_connection(conn: TcpStream, shared: &ServeShared) {
    let _ = conn.set_read_timeout(Some(READ_POLL));
    let _ = conn.set_nodelay(true);
    let Ok(read_half) = conn.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = conn;
    let mut buf: Vec<u8> = Vec::new();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match read_bounded_line(&mut reader, &mut buf) {
            LineRead::Poll => continue,
            LineRead::Eof | LineRead::Err => return,
            LineRead::Oversized => {
                let _ = writer.write_all(b"ERR line too long\n");
                return;
            }
            LineRead::Line => {
                let t0 = shared.clock.now_ns();
                let line = String::from_utf8_lossy(&buf).into_owned();
                buf.clear();
                let reply = answer(&line, &shared.epoch);
                // Count + record before the reply hits the socket, so a
                // client that has read its reply always observes the
                // query in the counters.
                shared.queries.fetch_add(1, Ordering::SeqCst);
                shared
                    .latency
                    .lock()
                    .expect("latency histogram poisoned")
                    .record(shared.clock.now_ns().saturating_sub(t0));
                if writer.write_all(reply.as_bytes()).is_err() {
                    return;
                }
            }
        }
    }
}

/// Answers one query line from the current epoch. Total: every input —
/// valid, truncated, or garbage — maps to exactly one `OK`/`ERR` reply
/// string (newline-terminated; `LINKS` appends its rows).
fn answer(line: &str, epoch: &EpochPointer) -> String {
    let mut parts = line.split_whitespace();
    match (parts.next(), parts.next(), parts.next()) {
        (Some("EPOCH"), None, _) => {
            let snap = epoch.load();
            let frontier = snap
                .frontier
                .map_or_else(|| "none".to_string(), |t| t.secs().to_string());
            format!(
                "OK epoch={} links={} events={} frontier={}\n",
                snap.epoch,
                snap.links.len(),
                snap.events,
                frontier
            )
        }
        (Some("THRESHOLD"), None, _) => {
            let snap = epoch.load();
            match snap.threshold {
                Some(t) => format!("OK {t}\n"),
                None => "OK none\n".to_string(),
            }
        }
        (Some("LINKS"), Some(entity), None) => match entity.parse::<u64>() {
            Ok(id) => {
                let snap = epoch.load();
                let links = snap.links_of(EntityId(id));
                let mut reply = format!("OK {}\n", links.len());
                for e in &links {
                    reply.push_str(&e.wire_line());
                    reply.push('\n');
                }
                reply
            }
            Err(_) => "ERR LINKS takes one entity id\n".to_string(),
        },
        (Some("LINKS"), _, _) => "ERR LINKS takes one entity id\n".to_string(),
        (None, _, _) => "ERR empty query\n".to_string(),
        _ => "ERR unknown command\n".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, Write};
    use std::sync::Arc;

    use slim_core::{Edge, Timestamp};

    use crate::snapshot::LinkSnapshot;

    fn edge(l: u64, r: u64, w: f64) -> Edge {
        Edge {
            left: EntityId(l),
            right: EntityId(r),
            weight: w,
        }
    }

    fn published() -> EpochPointer {
        let pointer = EpochPointer::new();
        pointer.publish(Arc::new(LinkSnapshot {
            epoch: 4,
            events: 4200,
            links: vec![edge(42, 1042, 0.75), edge(7, 8, 0.5), edge(9, 42, 0.25)],
            threshold: Some(0.25),
            frontier: Some(Timestamp(12600)),
        }));
        pointer
    }

    /// One connection, every command, replies read line-by-line.
    #[test]
    fn answers_the_protocol_over_loopback() {
        let server = LinkQueryServer::bind("127.0.0.1:0", published()).expect("bind");
        let conn = TcpStream::connect(server.local_addr()).expect("connect");
        let mut reader = std::io::BufReader::new(conn.try_clone().unwrap());
        let mut writer = conn;
        let mut ask = |query: &str, reply_lines: usize| -> Vec<String> {
            writer.write_all(query.as_bytes()).unwrap();
            writer.write_all(b"\n").unwrap();
            (0..reply_lines)
                .map(|_| {
                    let mut line = String::new();
                    reader.read_line(&mut line).unwrap();
                    line.trim_end().to_string()
                })
                .collect()
        };
        assert_eq!(
            ask("EPOCH", 1),
            vec!["OK epoch=4 links=3 events=4200 frontier=12600"]
        );
        assert_eq!(ask("THRESHOLD", 1), vec!["OK 0.25"]);
        assert_eq!(
            ask("LINKS 42", 3),
            vec!["OK 2", "42,1042,0.75", "9,42,0.25"]
        );
        assert_eq!(ask("LINKS 12345", 1), vec!["OK 0"]);
        assert_eq!(
            ask("LINKS forty-two", 1),
            vec!["ERR LINKS takes one entity id"]
        );
        assert_eq!(ask("NOPE", 1), vec!["ERR unknown command"]);
        // The connection survives the errors: a valid query still works.
        assert_eq!(ask("THRESHOLD", 1), vec!["OK 0.25"]);
        drop(writer);
        drop(reader);
        assert_eq!(server.queries_served(), 7);
        let report = server.report();
        assert_eq!(report.queries_served, 7);
        assert_eq!(report.query_latency.count(), 7);
    }

    /// Publications are visible to later queries on the same
    /// connection: the server always answers from the *current* epoch.
    #[test]
    fn later_epochs_are_served_as_published() {
        let pointer = EpochPointer::new();
        let server = LinkQueryServer::bind("127.0.0.1:0", pointer.clone()).expect("bind");
        let conn = TcpStream::connect(server.local_addr()).expect("connect");
        let mut reader = std::io::BufReader::new(conn.try_clone().unwrap());
        let mut writer = conn;
        let mut ask = |query: &str| -> String {
            writer.write_all(query.as_bytes()).unwrap();
            writer.write_all(b"\n").unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            line.trim_end().to_string()
        };
        assert_eq!(ask("EPOCH"), "OK epoch=0 links=0 events=0 frontier=none");
        assert_eq!(ask("THRESHOLD"), "OK none");
        pointer.publish(Arc::new(LinkSnapshot {
            epoch: 1,
            events: 10,
            links: vec![edge(1, 2, 0.9)],
            threshold: Some(0.5),
            frontier: Some(Timestamp(900)),
        }));
        assert_eq!(ask("EPOCH"), "OK epoch=1 links=1 events=10 frontier=900");
    }

    /// Closed connections do not pile up: each accept drops the handles
    /// of handlers that have finished, so after many short connections
    /// the list holds a few at most, not one per connection ever made.
    #[test]
    fn finished_handlers_are_not_kept() {
        let server = LinkQueryServer::bind("127.0.0.1:0", published()).expect("bind");
        for _ in 0..100 {
            let conn = TcpStream::connect(server.local_addr()).expect("connect");
            let mut reader = std::io::BufReader::new(conn.try_clone().unwrap());
            (&conn).write_all(b"EPOCH\n").unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            assert!(reply.starts_with("OK epoch=4"), "{reply:?}");
        }
        let kept = server.handlers.lock().unwrap().len();
        assert!(
            kept < 20,
            "{kept} handles kept after 100 closed connections"
        );
        assert_eq!(server.queries_served(), 100);
    }

    /// An oversized line gets one `ERR` reply and the connection is
    /// closed — never a hang, never a panic.
    #[test]
    fn oversized_line_is_answered_and_closed() {
        let server = LinkQueryServer::bind("127.0.0.1:0", published()).expect("bind");
        let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
        let long = vec![b'A'; MAX_QUERY_LINE + 64];
        conn.write_all(&long).unwrap();
        conn.write_all(b"\n").unwrap();
        let mut reply = String::new();
        let mut reader = std::io::BufReader::new(&mut conn);
        reader.read_line(&mut reply).unwrap();
        assert_eq!(reply.trim_end(), "ERR line too long");
        // EOF follows: the server closed its side.
        let mut rest = String::new();
        let n = reader.read_line(&mut rest).unwrap();
        assert_eq!(n, 0, "connection must be closed after an oversized line");
    }

    /// The answer function is total over arbitrary text: every input
    /// maps to exactly one newline-terminated `OK`/`ERR` reply.
    #[test]
    fn answer_is_total() {
        let pointer = published();
        let cases = ["", " ", "LINKS", "LINKS 1 2", "EPOCH extra", "\u{1F600}"];
        for line in cases {
            let reply = answer(line, &pointer);
            assert!(reply.starts_with("ERR"), "{line:?} → {reply:?}");
            assert!(reply.ends_with('\n'));
        }
        // Commands are case-sensitive: lowercase is unknown.
        assert!(answer("links 42", &pointer).starts_with("ERR"));
    }
}
