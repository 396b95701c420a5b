//! The producer side of the pump: the fan-in wire protocol, the one
//! loop that feeds a connection into it, and the two tiers that run
//! that loop — a multi-connection TCP accept loop and the
//! one-connection adapter around a single [`StreamSource`].
//!
//! A tier pushes [`ConnMessage`]s into one bounded MPSC channel. The
//! channel's global FIFO is what makes the protocol work without any
//! out-of-band synchronization — a connection's `Join` always reaches
//! the consumer before its first `Event`, and its `Leave` after its
//! last, because each sender enqueues its own messages in program order.
//!
//! A [`TcpIngestTier`] binds one listening socket, accepts a declared
//! number of client connections, and serves each on its own reader
//! thread: lines are parsed leniently (malformed input is counted and
//! skipped, never fatal). [`SingleSource`] is what
//! [`crate::StreamEngine::drive`] wraps its source in: the same loop on
//! the tier's own thread, as connection 0.
//!
//! Watermarks are deliberately *not* part of the wire protocol: the
//! consumer derives each connection's watermark from the event times it
//! delivers (`time − lag`), so the merged frontier can never race ahead
//! of events still queued behind it.
//!
//! [`FanIn`] is the seam between these tiers and the scripted
//! deterministic tier ([`crate::testing::ScriptedConnections`]) the
//! equivalence tests drive — the pump consumes any of them through the
//! same trait.

use std::net::{SocketAddr, TcpListener};

use crate::event::StreamEvent;
use crate::source::channel::Sender;
use crate::source::tcp::TcpLineSource;
use crate::source::{SourcePoll, StreamSource, WireFormat};

/// One message of the fan-in protocol, tagged with the tier-local
/// connection id it came from.
#[derive(Debug, Clone, PartialEq)]
pub enum ConnMessage {
    /// A connection entered the tier. Always precedes the connection's
    /// first `Event` (per-sender FIFO), so the frontier merge learns of
    /// a participant before consuming anything from it.
    Join {
        /// Tier-local connection id.
        conn: u64,
    },
    /// One parsed event.
    Event {
        /// The delivering connection.
        conn: u64,
        /// The event, exactly as parsed off the wire.
        event: StreamEvent,
    },
    /// The connection is gone — clean EOF, IO error, or death are all
    /// the same churn to the consumer. Always the connection's last
    /// message.
    Leave {
        /// The departing connection.
        conn: u64,
        /// Malformed lines this connection counted and skipped.
        malformed_lines: u64,
    },
}

/// A producer tier the pump can drive: spawns however many
/// producers it represents, fans their [`ConnMessage`] streams into
/// `tx` (cloning the sender per producer), and returns when every
/// producer is done. Dropping the last sender clone is the tier's EOF.
///
/// Implemented by [`TcpIngestTier`] (real sockets), [`SingleSource`]
/// (one pulled source) and [`crate::testing::ScriptedConnections`]
/// (deterministic replay).
pub trait FanIn {
    /// Runs the tier to completion. An `Err` aborts the drive (the
    /// pump surfaces it); per-connection failures should instead be
    /// reported as that connection's `Leave` — churn, not failure.
    fn run(self, tx: Sender<ConnMessage>) -> Result<(), String>;
}

/// Events per read batch on a connection reader thread.
const READ_BATCH: usize = 1_024;

/// The accept loop: binds an address, accepts exactly `connections`
/// clients (each served by a dedicated reader thread for its whole
/// life), and finishes when all of them have disconnected. The fixed
/// connection budget is what gives the tier a well-defined EOF — the
/// CLI and the bench both know how many feeds they attached.
pub struct TcpIngestTier {
    listener: TcpListener,
    wire: WireFormat,
    connections: usize,
}

impl TcpIngestTier {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port),
    /// expecting exactly `connections` clients.
    pub fn bind(addr: &str, wire: WireFormat, connections: usize) -> Result<Self, String> {
        if connections == 0 {
            return Err("tcp ingest: --connections must be positive".into());
        }
        let listener =
            TcpListener::bind(addr).map_err(|e| format!("tcp ingest: bind {addr}: {e}"))?;
        Ok(Self {
            listener,
            wire,
            connections,
        })
    }

    /// The bound address (the ephemeral port clients should dial).
    pub fn local_addr(&self) -> Result<SocketAddr, String> {
        self.listener
            .local_addr()
            .map_err(|e| format!("tcp ingest: local_addr: {e}"))
    }

    /// How many connections the tier will accept.
    pub fn connections(&self) -> usize {
        self.connections
    }
}

impl FanIn for TcpIngestTier {
    fn run(self, tx: Sender<ConnMessage>) -> Result<(), String> {
        std::thread::scope(|scope| {
            for conn in 0..self.connections as u64 {
                let (stream, _) = self
                    .listener
                    .accept()
                    .map_err(|e| format!("tcp ingest: accept: {e}"))?;
                let tx = tx.clone();
                let wire = self.wire;
                scope.spawn(move || {
                    let source = TcpLineSource::from_stream_with(stream, wire).lenient();
                    // A dying client is churn the frontier merge must
                    // absorb, not a drive failure: its error ends the
                    // connection like a clean EOF does.
                    let _churn = feed_connection(
                        conn,
                        source,
                        READ_BATCH,
                        &tx,
                        TcpLineSource::malformed_lines,
                    );
                });
            }
            Ok(())
        })
    }
}

/// How often [`feed_connection`] polled its source.
#[derive(Debug, Default)]
pub(crate) struct Polls {
    /// Polls that returned a batch.
    pub(crate) batches: u64,
    /// Polls that returned [`SourcePoll::Pending`].
    pub(crate) stalls: u64,
}

/// One connection's life, the only producer loop there is: `Join`, then
/// every batch the source yields as `Event`s, then `Leave` — on clean
/// EOF *and* on a source error alike (returned, for the caller to judge),
/// so the frontier merge always sees the departure. `malformed_lines`
/// reads the count the `Leave` carries off the finished source. Only a
/// vanished receiver ends the loop silently: the drive is already over.
pub(crate) fn feed_connection<S: StreamSource>(
    conn: u64,
    mut source: S,
    batch_max: usize,
    tx: &Sender<ConnMessage>,
    malformed_lines: impl FnOnce(&S) -> u64,
) -> (Result<(), String>, Polls) {
    let mut polls = Polls::default();
    if tx.send(ConnMessage::Join { conn }).is_err() {
        return (Ok(()), polls);
    }
    let result = loop {
        match source.next_batch(batch_max) {
            Ok(SourcePoll::Batch(events)) => {
                polls.batches += 1;
                // One lock per batch (not per event); blocks under
                // backpressure.
                let batch = events
                    .into_iter()
                    .map(|event| ConnMessage::Event { conn, event });
                if tx.send_all(batch).is_err() {
                    return (Ok(()), polls);
                }
            }
            Ok(SourcePoll::Pending) => {
                // A stalled source (e.g. rate pacing between due
                // events) must not busy-spin a core; a short bounded
                // sleep caps the poll rate without affecting delivered
                // order.
                polls.stalls += 1;
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            Ok(SourcePoll::End) => break Ok(()),
            Err(e) => break Err(e),
        }
    };
    let _ = tx.send(ConnMessage::Leave {
        conn,
        malformed_lines: malformed_lines(&source),
    });
    (result, polls)
}

/// A single [`StreamSource`] as a tier of one connection (id 0), fed on
/// the tier's own thread. Unlike a socket's, the source's error fails
/// the drive: there is no other connection to carry on with.
pub(crate) struct SingleSource<'a, S> {
    pub(crate) source: S,
    /// Maximum events per source poll.
    pub(crate) batch_max: usize,
    /// Where the poll counts go for the drive's
    /// [`crate::source::IngestReport`]: the fan-in protocol has no
    /// message for them, and [`FanIn::run`] consumes the tier.
    pub(crate) polls: &'a mut Polls,
}

impl<S: StreamSource> FanIn for SingleSource<'_, S> {
    fn run(self, tx: Sender<ConnMessage>) -> Result<(), String> {
        let (result, polls) = feed_connection(0, self.source, self.batch_max, &tx, |_| 0);
        *self.polls = polls;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::channel;
    use std::io::Write;
    use std::net::TcpStream;

    /// Two loopback clients with interleaved lives: every connection
    /// brackets its events with `Join`/`Leave` in FIFO order, garbage
    /// lines are counted on the connection that sent them, and the
    /// channel closes once both clients (and the accept loop) are done.
    #[test]
    fn accept_loop_brackets_each_connection() {
        let tier = TcpIngestTier::bind("127.0.0.1:0", WireFormat::Csv, 2).unwrap();
        let addr = tier.local_addr().unwrap();
        let (tx, rx) = channel::bounded::<ConnMessage>(64);
        let tier_thread = std::thread::spawn(move || tier.run(tx));

        let feeder = |lines: Vec<String>| {
            std::thread::spawn(move || {
                let mut s = TcpStream::connect(addr).expect("connect");
                for line in lines {
                    s.write_all(line.as_bytes()).expect("write");
                }
            })
        };
        let a = feeder(vec![
            "side,entity,lat,lng,timestamp\n".into(), // header: skipped, not malformed
            "L,1,10.0,20.0,100\n".into(),
            "this is not an event\n".into(),
            "R,2,11.0,21.0,200\n".into(),
        ]);
        let b = feeder(vec!["L,3,12.0,22.0,300\n".into()]);

        let mut msgs = Vec::new();
        let mut buf = Vec::new();
        while rx.recv_many(&mut buf, 16) {
            msgs.append(&mut buf);
        }
        a.join().unwrap();
        b.join().unwrap();
        tier_thread.join().unwrap().unwrap();

        // Per-connection protocol order: Join, events, Leave.
        for conn in 0..2u64 {
            let of_conn: Vec<&ConnMessage> = msgs
                .iter()
                .filter(|m| match m {
                    ConnMessage::Join { conn: c }
                    | ConnMessage::Event { conn: c, .. }
                    | ConnMessage::Leave { conn: c, .. } => *c == conn,
                })
                .collect();
            assert!(
                matches!(of_conn.first(), Some(ConnMessage::Join { .. })),
                "conn {conn} must open with Join"
            );
            assert!(
                matches!(of_conn.last(), Some(ConnMessage::Leave { .. })),
                "conn {conn} must close with Leave"
            );
        }
        let events: Vec<i64> = msgs
            .iter()
            .filter_map(|m| match m {
                ConnMessage::Event { event, .. } => Some(event.time.secs()),
                _ => None,
            })
            .collect();
        let mut sorted = events.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![100, 200, 300], "all valid events delivered");
        let malformed: u64 = msgs
            .iter()
            .filter_map(|m| match m {
                ConnMessage::Leave {
                    malformed_lines, ..
                } => Some(*malformed_lines),
                _ => None,
            })
            .sum();
        assert_eq!(malformed, 1, "the garbage line was counted, not fatal");
    }

    #[test]
    fn zero_connections_rejected() {
        assert!(TcpIngestTier::bind("127.0.0.1:0", WireFormat::Csv, 0).is_err());
    }
}
