//! The pump: the one loop that drives an engine from its feed. A
//! producer tier ([`FanIn`]) fans its connections' `Join`/`Event`/
//! `Leave` messages into the bounded channel; the calling thread drains
//! the channel, decides each arrival's lateness against the merged
//! [`ConnectionFrontier`], holds the in-time ones in the reorder
//! buffer, releases what the frontier passes in canonical order and
//! feeds it to the engine, firing refresh ticks per [`TickPolicy`]. A
//! single [`crate::source::StreamSource`] is the one-connection tier
//! ([`crate::source::listener::SingleSource`]) — there is no second
//! loop for it.
//!
//! Each connection's watermark is derived here as `event time − lag`,
//! *after* the event is buffered — so the frontier can never release
//! past an event still in flight, and any delivery schedule whose
//! per-connection disorder stays within the lag reaches the engine in
//! canonical order.
//!
//! Determinism: the events the engine sees — and for `EveryN` the exact
//! tick positions — depend only on the *canonical order* restored by
//! the reorder buffer, never on producer/consumer interleaving, so any
//! delivery schedule within the lag bound is bit-identical to a sorted
//! replay. `EventTime` ticks are a function of released event times,
//! equally schedule-independent. `Watermark` ticks follow the frontier,
//! whose *final* state (and therefore the post-drive link set, after
//! one refresh) is schedule-independent even though intermediate tick
//! count is not (with one connection the frontier is a function of the
//! delivery order alone, so there the tick positions are too).

use slim_core::{Timestamp, WindowIdx, WindowScheme};

use crate::checkpoint::ResumeState;
use crate::engine::{LinkUpdate, StreamEngine};
use crate::event::StreamEvent;
use crate::source::channel::{self, RecvTimeout};
use crate::source::reorder::ReorderBuffer;
use crate::source::{ConnMessage, ConnectionFrontier, FanIn, TickPolicy};

/// Pump configuration: the bounded channel and the tick policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriveOptions {
    /// Bounded-channel capacity in events: the producer blocks (never
    /// drops) when this many events are in flight.
    pub queue_cap: usize,
    /// Maximum events per source poll and per channel drain.
    pub source_batch: usize,
    /// When to fire refresh ticks while draining.
    pub tick_policy: TickPolicy,
    /// Out-of-order tolerance (event-time seconds) of the reorder
    /// buffer for the `EveryN`/`EventTime` policies; `Watermark` uses
    /// the larger of this and its own `max_lag_secs`. `0` asserts
    /// time-nondecreasing delivery — disordered arrivals are counted
    /// late and dropped.
    pub max_lag_secs: i64,
    /// Emit one metrics snapshot to the engine's installed sink per
    /// this many delivered events (`0` = never). Snapshot *timing* —
    /// and therefore a mid-drive snapshot's contents — follows the
    /// channel's delivery chunking, which is OS-schedule-dependent;
    /// that is fine because snapshots are pure observations: the
    /// engine's links, updates, stats, and finalized output are
    /// bit-identical at every cadence.
    pub metrics_every: u64,
    /// A connection with no traffic for this many clock seconds is
    /// evicted from the frontier merge so one stalled client cannot
    /// freeze event time (it revives on its next event; events now
    /// below the frontier are counted late). `0` disables eviction —
    /// the frontier waits for the slowest connection forever. With one
    /// connection there is nobody to wait for and eviction changes
    /// nothing.
    pub idle_timeout_secs: u64,
}

impl Default for DriveOptions {
    fn default() -> Self {
        Self {
            queue_cap: 65_536,
            source_batch: 4_096,
            tick_policy: TickPolicy::default(),
            max_lag_secs: 0,
            metrics_every: 0,
            idle_timeout_secs: 0,
        }
    }
}

/// What one [`StreamEngine::drive`] or [`StreamEngine::drive_fan_in`]
/// run did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IngestReport {
    /// Events released into the engine (the engine may still count some
    /// as `late_dropped` if their window expired — that is sliding-
    /// window lateness, distinct from delivery lateness below).
    pub events_delivered: u64,
    /// Arrivals rejected for exceeding the out-of-order lag bound
    /// (strictly below the merged frontier when they arrived).
    pub late_events: u64,
    /// Nanoseconds the producer spent blocked on a full channel.
    pub blocked_producer_ns: u64,
    /// Highest channel occupancy observed (≤ `queue_cap`).
    pub queue_high_watermark: u64,
    /// Source polls that returned a batch ([`StreamEngine::drive`]
    /// only: a tier does not report its connections' polls).
    pub source_batches: u64,
    /// Source polls that returned [`crate::source::SourcePoll::Pending`]
    /// ([`StreamEngine::drive`] only).
    pub source_stalls: u64,
    /// Refresh ticks fired by the pump itself (`EventTime`/`Watermark`
    /// policies; `EveryN` ticks run inside the engine and are counted
    /// in [`crate::StreamStats::ticks`] only).
    pub policy_ticks: u64,
    /// Connections that joined the frontier merge (`1` for a single
    /// source: it is the one-connection tier).
    pub connections: u64,
    /// Malformed wire lines counted and skipped across all connections
    /// (lenient parsing).
    pub malformed_lines: u64,
    /// Connections evicted from the frontier merge for exceeding the
    /// idle timeout (revivals can re-evict, so this may exceed the
    /// connection count).
    pub idle_evictions: u64,
    /// Every link update emitted while draining, in order.
    pub updates: Vec<LinkUpdate>,
}

/// Per-policy tick state over the released (canonically ordered)
/// stream. This is also the form a checkpoint stores
/// ([`ResumeState::ticker`]), so the tick grids are kept as their
/// origin: a recovered ticker that re-anchored lazily at its first
/// *post-resume* event would shift every later boundary and break
/// bit-identity.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Ticker {
    /// Engine-internal counter (configured via `refresh_every`).
    EveryN,
    /// Tick when released event time crosses a boundary of the
    /// `interval` grid anchored at `origin` (the engine's pinned window
    /// origin, else the first released event).
    EventTime {
        interval: i64,
        origin: Option<i64>,
        last_cell: Option<WindowIdx>,
    },
    /// Tick when the frontier seals a window of the `width` grid
    /// anchored at `origin`; events of unsealed windows wait in
    /// `pending`.
    Watermark {
        width: i64,
        origin: Option<i64>,
        sealed_below: WindowIdx,
        pending: Vec<StreamEvent>,
    },
}

impl Ticker {
    fn new(policy: TickPolicy, window_width_secs: i64, origin: Option<Timestamp>) -> Ticker {
        let origin = origin.map(|o| o.secs());
        match policy {
            TickPolicy::EveryN(_) => Ticker::EveryN,
            TickPolicy::EventTime { interval_secs } => Ticker::EventTime {
                interval: interval_secs,
                origin,
                last_cell: None,
            },
            TickPolicy::Watermark { .. } => Ticker::Watermark {
                width: window_width_secs,
                origin,
                sealed_below: 0,
                pending: Vec::new(),
            },
        }
    }

    /// Whether a drive under `policy` may resume from this checkpointed
    /// ticker: it must be the checkpointed drive's policy.
    fn check_resumes_under(&self, policy: TickPolicy) -> Result<(), String> {
        use TickPolicy as P;
        let (same, checkpointed) = match self {
            Ticker::EveryN => (matches!(policy, P::EveryN(_)), "EveryN".into()),
            Ticker::EventTime { interval, .. } => (
                matches!(policy, P::EventTime { interval_secs } if interval_secs == *interval),
                format!("EventTime({interval})"),
            ),
            Ticker::Watermark { .. } => (matches!(policy, P::Watermark { .. }), "Watermark".into()),
        };
        if same {
            return Ok(());
        }
        Err(format!(
            "drive: resume tick policy {policy:?} does not match the checkpointed \
             {checkpointed} ticker"
        ))
    }

    /// Ingests the newly released events, refreshing at policy
    /// boundaries. `frontier` is the merged frontier (for the
    /// `Watermark` policy's sealing check).
    fn feed(
        &mut self,
        engine: &mut StreamEngine,
        released: &mut Vec<StreamEvent>,
        frontier: Option<Timestamp>,
        report: &mut IngestReport,
    ) {
        // Both grids anchor lazily at the first event ever released.
        let anchor = |origin: &mut Option<i64>, width: i64| {
            if origin.is_none() {
                *origin = released.first().map(|first| first.time.secs());
            }
            origin.map(|o| WindowScheme::new(Timestamp(o), width))
        };
        match self {
            Ticker::EveryN => {
                report.events_delivered += released.len() as u64;
                report.updates.extend(engine.ingest_batch(released));
            }
            Ticker::EventTime {
                interval,
                origin,
                last_cell,
            } => {
                let Some(scheme) = anchor(origin, *interval) else {
                    return;
                };
                let mut start = 0usize;
                for (i, ev) in released.iter().enumerate() {
                    let cell = scheme.window_of(ev.time);
                    if last_cell.is_some_and(|last| cell > last) {
                        // The grid boundary between `last` and `cell`
                        // was crossed: serve everything strictly before
                        // it, then tick.
                        if i > start {
                            report.events_delivered += (i - start) as u64;
                            report
                                .updates
                                .extend(engine.ingest_batch(&released[start..i]));
                            start = i;
                        }
                        report.policy_ticks += 1;
                        report.updates.extend(engine.refresh());
                    }
                    *last_cell = Some(cell);
                }
                report.events_delivered += (released.len() - start) as u64;
                report
                    .updates
                    .extend(engine.ingest_batch(&released[start..]));
            }
            Ticker::Watermark {
                width,
                origin,
                sealed_below,
                pending,
            } => {
                let scheme = anchor(origin, *width);
                pending.append(released);
                let Some(scheme) = scheme else { return };
                let newly_sealed = frontier.map_or(0, |f| scheme.window_of(f));
                if newly_sealed > *sealed_below {
                    // Serve exactly the sealed windows' events (a
                    // prefix: `pending` is canonically ordered).
                    let cut =
                        pending.partition_point(|ev| scheme.window_of(ev.time) < newly_sealed);
                    if cut > 0 {
                        report.events_delivered += cut as u64;
                        report.updates.extend(engine.ingest_batch(&pending[..cut]));
                        pending.drain(..cut);
                    }
                    *sealed_below = newly_sealed;
                    report.policy_ticks += 1;
                    report.updates.extend(engine.refresh());
                }
            }
        }
        released.clear();
    }

    /// End of stream: everything still pending is served (without a
    /// closing tick — callers decide whether to refresh or finalize).
    fn finish(&mut self, engine: &mut StreamEngine, report: &mut IngestReport) {
        if let Ticker::Watermark { pending, .. } = self {
            if !pending.is_empty() {
                report.events_delivered += pending.len() as u64;
                report.updates.extend(engine.ingest_batch(pending));
                pending.clear();
            }
        }
    }
}

/// Per-drive telemetry bookkeeping: event-latency accounting (source
/// admit → served-at-tick) and the snapshot cadence. Strictly
/// observational — it reads the engine's counters and clock, never
/// influences what is delivered or when ticks fire.
struct PumpTelemetry {
    clock: std::sync::Arc<dyn crate::source::Clock + Sync>,
    /// Latency recording on (the engine's telemetry flag).
    latency_on: bool,
    /// Snapshot cadence in delivered events (`0` = off).
    metrics_every: u64,
    /// Clock reading when the current channel chunk was drained — the
    /// admit timestamp its events inherit.
    admit_ns: u64,
    /// Delivered count already attributed to an admit group.
    delivered_seen: u64,
    /// Tick count already credited with serving its admits.
    served_ticks: u64,
    /// Delivered-but-unserved admit groups: `(admit_ns, events)`.
    admits: Vec<(u64, u64)>,
    /// Snapshot boundaries already emitted.
    snapshot_marks: u64,
}

impl PumpTelemetry {
    fn new(engine: &StreamEngine, metrics_every: u64) -> Self {
        Self {
            clock: engine.telemetry_clock(),
            latency_on: engine.telemetry_enabled(),
            metrics_every,
            admit_ns: 0,
            delivered_seen: 0,
            served_ticks: engine.stats().ticks,
            admits: Vec::new(),
            snapshot_marks: 0,
        }
    }

    /// Stamps the admit time for the arrivals about to be fed.
    fn stamp_admit(&mut self) {
        if self.latency_on {
            self.admit_ns = self.clock.now_ns();
        }
    }

    /// After a `Ticker::feed`: attribute newly delivered events to the
    /// current admit stamp, settle latencies if a tick served them, and
    /// emit snapshots at crossed cadence boundaries.
    fn observe(&mut self, engine: &mut StreamEngine, report: &IngestReport) {
        if self.latency_on {
            if report.events_delivered > self.delivered_seen {
                let n = report.events_delivered - self.delivered_seen;
                self.delivered_seen = report.events_delivered;
                self.admits.push((self.admit_ns, n));
            }
            let ticks = engine.stats().ticks;
            if ticks > self.served_ticks && !self.admits.is_empty() {
                self.served_ticks = ticks;
                self.settle(engine);
            }
        } else {
            self.delivered_seen = report.events_delivered;
        }
        if let Some(marks_due) = self.delivered_seen.checked_div(self.metrics_every) {
            while marks_due > self.snapshot_marks {
                self.snapshot_marks += 1;
                engine.emit_snapshot();
            }
        }
    }

    /// Records every waiting admit group as served now.
    fn settle(&mut self, engine: &mut StreamEngine) {
        let now = self.clock.now_ns();
        for (admit, n) in self.admits.drain(..) {
            engine.record_event_latency(now.saturating_sub(admit), n);
        }
    }

    /// EOF: events delivered after the last tick are counted as served
    /// now — the stream is over, nothing later can serve them.
    fn finish(&mut self, engine: &mut StreamEngine, report: &IngestReport) {
        self.stamp_admit();
        self.observe(engine, report);
        if !self.admits.is_empty() {
            self.settle(engine);
        }
    }
}

/// Validates the drive options and resolves the effective reorder lag.
/// Touches nothing: a rejected drive leaves the engine as it found it.
fn validate(opts: &DriveOptions) -> Result<i64, String> {
    if opts.queue_cap == 0 {
        return Err("drive: queue_cap must be positive".into());
    }
    if opts.source_batch == 0 {
        return Err("drive: source_batch must be positive".into());
    }
    if opts.max_lag_secs < 0 {
        return Err("drive: max_lag_secs must be non-negative".into());
    }
    match opts.tick_policy {
        TickPolicy::EventTime { interval_secs } if interval_secs <= 0 => {
            Err("drive: EventTime interval must be positive".into())
        }
        TickPolicy::Watermark { max_lag_secs } if max_lag_secs < 0 => {
            Err("drive: watermark lag must be non-negative".into())
        }
        TickPolicy::Watermark { max_lag_secs } => Ok(max_lag_secs.max(opts.max_lag_secs)),
        TickPolicy::EveryN(_) | TickPolicy::EventTime { .. } => Ok(opts.max_lag_secs),
    }
}

/// How long the consumer waits on an empty channel before checking for
/// idle connections (only when an idle timeout is set — without one it
/// parks until the next message).
const IDLE_POLL: std::time::Duration = std::time::Duration::from_millis(10);

/// The consumer's state between the channel and the engine.
struct Pump<'e> {
    engine: &'e mut StreamEngine,
    frontier: ConnectionFrontier,
    reorder: ReorderBuffer,
    ticker: Ticker,
    tel: PumpTelemetry,
    /// Released but not yet fed to the ticker.
    released: Vec<StreamEvent>,
    report: IngestReport,
}

impl Pump<'_> {
    /// Moves what the frontier has passed out of the reorder buffer.
    fn release(&mut self) {
        self.reorder
            .release_below(self.frontier.frontier(), &mut self.released);
    }

    /// Releases, then hands everything released to the ticker (which
    /// ingests it and fires due ticks) and lets telemetry observe.
    fn serve(&mut self) {
        self.release();
        self.ticker.feed(
            self.engine,
            &mut self.released,
            self.frontier.frontier(),
            &mut self.report,
        );
        self.tel.observe(self.engine, &self.report);
    }
}

/// See [`StreamEngine::drive`] and [`StreamEngine::drive_fan_in`], its
/// two entries. `replayable` is the one per-drive fact they pass in:
/// whether the tier can replay its accepted prefix from event 0 (one
/// [`crate::source::StreamSource`] can; N sockets cannot). Checkpoints
/// and recovery are stated in "source events consumed", so only a
/// replayable tier may write or resume from them.
pub(crate) fn run<F: FanIn + Send>(
    engine: &mut StreamEngine,
    fan_in: F,
    opts: &DriveOptions,
    replayable: bool,
) -> Result<IngestReport, String> {
    let lag = validate(opts)?;
    let ckpt = engine.checkpoint_policy().cloned();
    if !replayable && ckpt.is_some() {
        return Err(
            "drive: checkpointing needs a replayable source, and a multi-connection \
             tier cannot replay its accepted prefix"
                .into(),
        );
    }
    // A recovered engine hands back the checkpointed pump state. Every
    // check that can reject the drive runs while that state is only
    // borrowed: the corrected retry must still find it.
    if let Some(rs) = engine.resume_state() {
        if !replayable {
            return Err(
                "drive: a recovered engine must resume over a replayable source \
                 (a single-source drive)"
                    .into(),
            );
        }
        rs.ticker.check_resumes_under(opts.tick_policy)?;
    }
    // The pump owns external ticking for the non-`EveryN` policies.
    engine.set_refresh_every(match opts.tick_policy {
        TickPolicy::EveryN(n) => n,
        _ => 0,
    });

    // Tick grids anchor at the engine's pinned origin when there is
    // one, else at the first released event (which is also what the
    // engine will adopt as its window origin). On resume the reorder
    // buffer and ticker stand exactly where the crashed drive's did,
    // the connection re-enters the frontier at the checkpointed
    // watermark, and the `resume_base`-event accepted prefix (already
    // inside the engine) is skipped on replay.
    let origin = engine.scheme().map(|s| s.window_start(0));
    let width = engine.config().slim.window_width_secs;
    let (reorder, mut resume_watermark, ticker, resume_base) = match engine.take_resume_state() {
        Some(rs) => {
            let (reorder, watermark) = ReorderBuffer::restore(
                lag,
                rs.reorder_max_seen.map(Timestamp),
                rs.reorder_held,
                rs.reorder_late,
            );
            (reorder, watermark, rs.ticker, rs.consumed)
        }
        None => {
            let ticker = Ticker::new(opts.tick_policy, width, origin);
            (ReorderBuffer::new(lag), None, ticker, 0)
        }
    };
    let watermark_ticks = matches!(ticker, Ticker::Watermark { .. });
    let kill_at = engine.fault_plan().kill_at_event;
    let idle_ns = opts.idle_timeout_secs.saturating_mul(1_000_000_000);
    let mut pump = Pump {
        frontier: ConnectionFrontier::new(idle_ns),
        reorder,
        ticker,
        tel: PumpTelemetry::new(engine, opts.metrics_every),
        released: Vec::new(),
        report: IngestReport::default(),
        engine,
    };
    // Source events consumed so far, counting the skipped resume
    // prefix — the checkpoint cadence and the kill fault are both
    // stated in this coordinate.
    let mut consumed: u64 = 0;
    // Why the drive stopped before EOF (fault injection or a failed
    // checkpoint write); `Some` skips the EOF flush and fails the run.
    let mut fault: Option<String> = None;

    let (producer_result, channel_stats) = std::thread::scope(|scope| {
        let (tx, rx) = channel::bounded::<ConnMessage>(opts.queue_cap);
        let producer = scope.spawn(move || fan_in.run(tx));

        let mut arrivals: Vec<ConnMessage> = Vec::new();
        'drain: loop {
            if idle_ns == 0 {
                if !rx.recv_many(&mut arrivals, opts.source_batch) {
                    break;
                }
            } else {
                match rx.recv_many_timeout(&mut arrivals, opts.source_batch, IDLE_POLL) {
                    RecvTimeout::Closed => break,
                    // Total quiet: eviction is then the only way the
                    // frontier can move; the end of the (empty) chunk
                    // below checks it.
                    RecvTimeout::Items | RecvTimeout::TimedOut => {}
                }
            }
            pump.tel.stamp_admit();
            let now = pump.tel.clock.now_ns();
            for msg in arrivals.drain(..) {
                let (frontier_before, consumed_before) = (pump.frontier.frontier(), consumed);
                match msg {
                    ConnMessage::Join { conn } => {
                        pump.frontier.join(conn, now);
                        if let Some(watermark) = resume_watermark.take() {
                            pump.frontier.advance(conn, watermark, now);
                        }
                        pump.report.connections += 1;
                        pump.engine
                            .set_live_connections(pump.frontier.live() as u64);
                    }
                    ConnMessage::Event { conn, event } => {
                        consumed += 1;
                        if consumed <= resume_base {
                            // Replaying the accepted prefix of a
                            // recovered drive: the engine already holds
                            // these events (and the restored reorder
                            // buffer their held tail), so they are
                            // counted and discarded.
                            continue;
                        }
                        // Lateness is decided against the frontier as
                        // it stood *before* this event's own advance —
                        // an in-lag event can therefore never be late.
                        // (The sequenced input log will attach here:
                        // after this decision, before `hold`, the
                        // arrival order is fixed for 1 or N
                        // connections alike.)
                        if pump.frontier.is_late(event.time) {
                            pump.reorder.count_late();
                        } else {
                            pump.reorder.hold(event);
                        }
                        let watermark = Timestamp(event.time.secs().saturating_sub(lag));
                        if let Some(lag_secs) = pump.frontier.advance(conn, watermark, now) {
                            pump.engine.record_frontier_lag(lag_secs);
                        }
                    }
                    ConnMessage::Leave {
                        conn,
                        malformed_lines,
                    } => {
                        pump.report.malformed_lines += malformed_lines;
                        pump.frontier.leave(conn);
                        pump.engine
                            .set_live_connections(pump.frontier.live() as u64);
                    }
                }
                // Release whenever the merged frontier moves, so the
                // buffer holds only what the lag requires. Watermark
                // sealing is a function of the frontier and must be
                // checked as it advances, not per channel chunk — that
                // is what keeps its tick positions a function of the
                // delivery schedule rather than of channel timing. The
                // other policies are chunking-independent and are fed
                // once per drained chunk.
                if pump.frontier.frontier() != frontier_before {
                    if watermark_ticks {
                        pump.serve();
                    } else {
                        pump.release();
                    }
                }
                // The checkpoint cadence and the kill point are positions
                // in the consumed-event sequence: only a message that
                // consumed one can reach them.
                if consumed == consumed_before {
                    continue;
                }
                if let Some(p) = &ckpt {
                    if consumed.is_multiple_of(p.every) {
                        // Feed the engine first so the checkpoint
                        // captures every consumed event either fully
                        // applied or held in the serialized
                        // reorder/ticker state.
                        pump.serve();
                        let (max_seen, held, late) = pump.reorder.export(pump.frontier.frontier());
                        let state = ResumeState {
                            consumed,
                            reorder_max_seen: max_seen.map(|t| t.secs()),
                            reorder_held: held,
                            reorder_late: late,
                            ticker: pump.ticker.clone(),
                        };
                        // Fault injection corrupts exactly the last
                        // checkpoint written before the kill point, so
                        // recovery exercises the fall-back path.
                        let corrupt = kill_at.is_some_and(|k| consumed + p.every > k);
                        if let Err(e) = pump.engine.write_checkpoint(state, corrupt) {
                            fault = Some(e);
                            break 'drain;
                        }
                    }
                }
                if kill_at == Some(consumed) {
                    fault = Some(format!("fault: killed at event {consumed}"));
                    break 'drain;
                }
            }
            pump.frontier.evict_idle(now);
            pump.serve();
        }
        if fault.is_none() {
            // EOF: every sender (one per connection, plus the tier's
            // own) has dropped and the queue is drained — release the
            // buffered tail in canonical order.
            pump.reorder.flush(&mut pump.released);
            pump.serve();
            pump.ticker.finish(pump.engine, &mut pump.report);
            pump.tel.finish(pump.engine, &pump.report);
        }
        let stats = rx.stats();
        // On an early stop a producer may still be blocked on a full
        // channel; dropping the receiver errors its next send, which it
        // treats as a clean exit.
        drop(rx);
        let result = producer
            .join()
            .unwrap_or_else(|_| Err("drive: producer tier thread panicked".into()));
        (result, stats)
    });
    producer_result?;
    if let Some(fault) = fault {
        // A simulated crash: the engine is left exactly as the fault
        // found it — no EOF flush, no report absorption — so tests can
        // model a process that died mid-drive.
        return Err(fault);
    }

    let mut report = pump.report;
    report.late_events = pump.reorder.late_events();
    report.blocked_producer_ns = channel_stats.blocked_producer_ns;
    report.queue_high_watermark = channel_stats.queue_high_watermark;
    report.idle_evictions = pump.frontier.idle_evictions();
    pump.engine.absorb_ingest_report(&report);
    pump.engine.set_live_connections(0);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StreamConfig;
    use crate::event::Side;
    use crate::testing::{script, ScriptStep, ScriptedSource};
    use geocell::LatLng;
    use slim_core::{EntityId, Timestamp};

    fn ev(side: Side, entity: u64, t: i64) -> StreamEvent {
        // Left entity `e` and right entity `100 + e` share a distinct
        // anchor, so exactly the e ↔ 100+e pairs are linkable.
        let key = (entity % 100) as f64;
        StreamEvent::new(
            side,
            EntityId(entity),
            LatLng::from_degrees(5.0 + 7.0 * key, -100.0 + 9.0 * key),
            Timestamp(t),
        )
    }

    fn engine() -> StreamEngine {
        let cfg = StreamConfig {
            num_shards: 2,
            refresh_every: 0,
            ..StreamConfig::default()
        };
        StreamEngine::new(cfg).unwrap()
    }

    /// A linkable canonical-order workload: left/right co-located pairs.
    fn workload(windows: i64) -> Vec<StreamEvent> {
        let mut events = Vec::new();
        for k in 0..windows {
            for e in 0..4u64 {
                events.push(ev(Side::Left, e, k * 900 + 10 * e as i64));
                events.push(ev(Side::Right, 100 + e, k * 900 + 10 * e as i64 + 400));
            }
        }
        events.sort_by_key(|e| (e.time, e.side, e.entity));
        events
    }

    /// Backpressure path: a queue far smaller than the workload still
    /// delivers every event — nothing dropped, fully drained at EOF —
    /// and the scripted stalls are surfaced in the report.
    #[test]
    fn tiny_queue_delivers_everything() {
        let events = workload(12);
        let total = events.len() as u64;
        let mut steps = Vec::new();
        for chunk in events.chunks(23) {
            steps.push(ScriptStep::Batch(chunk.to_vec()));
            steps.push(ScriptStep::Stall(2));
        }
        let mut engine = engine();
        let report = engine
            .drive(
                ScriptedSource::new(steps),
                &DriveOptions {
                    queue_cap: 4,
                    source_batch: 16,
                    tick_policy: TickPolicy::EveryN(0),
                    ..DriveOptions::default()
                },
            )
            .unwrap();
        assert_eq!(report.events_delivered, total);
        assert_eq!(engine.stats().events, total);
        assert_eq!(report.late_events, 0);
        assert!(report.source_stalls >= 2, "stalls not surfaced");
        assert!(report.queue_high_watermark >= 1);
        assert!(report.queue_high_watermark <= 4);
        // Channel counters land in the engine's stats too.
        assert_eq!(
            engine.stats().queue_high_watermark,
            report.queue_high_watermark
        );
        engine.refresh();
        assert!(!engine.links().is_empty(), "workload must link");
    }

    /// Zero-lag + out-of-order delivery: the disordered arrivals are
    /// counted late and dropped — no panic, no order corruption.
    #[test]
    fn zero_lag_counts_late_events() {
        let mut events = workload(6);
        let n = events.len();
        // Deliver two mid-stream events only after the newest one: with
        // zero lag they arrive below the watermark and must be rejected
        // (counted), never reordered into the past.
        let b = events.remove(10);
        let a = events.remove(5);
        events.push(a);
        events.push(b);
        let mut engine = engine();
        let report = engine
            .drive(script(events.clone(), 16), &DriveOptions::default())
            .unwrap();
        assert_eq!(report.late_events, 2, "both displaced arrivals are late");
        assert_eq!(report.events_delivered, n as u64 - 2);
        assert_eq!(engine.stats().late_events, 2);
    }

    /// The watermark policy buffers bounded disorder, serves only
    /// sealed windows at each tick, and loses nothing at EOF.
    #[test]
    fn watermark_policy_seals_windows() {
        let mut events = workload(8);
        // Bounded shuffle: displace some events by < 900 s of disorder.
        for i in (3..events.len() - 4).step_by(7) {
            events.swap(i, i + 3);
        }
        let mut engine = engine();
        let report = engine
            .drive(
                script(events.clone(), 32),
                &DriveOptions {
                    tick_policy: TickPolicy::Watermark { max_lag_secs: 900 },
                    ..DriveOptions::default()
                },
            )
            .unwrap();
        assert_eq!(report.late_events, 0, "disorder stayed within the lag");
        assert_eq!(report.events_delivered, events.len() as u64);
        assert!(report.policy_ticks > 0, "frontier must seal windows");
        assert_eq!(engine.stats().ticks, report.policy_ticks);
        engine.refresh();
        assert!(!engine.links().is_empty());
    }

    /// EventTime ticks follow released event time: one tick per crossed
    /// grid boundary, independent of delivery chunking.
    #[test]
    fn event_time_ticks_once_per_interval() {
        let events = workload(10); // spans 10 engine windows of 900 s
        let run = |chunk: usize| {
            let mut engine = engine();
            let report = engine
                .drive(
                    script(events.clone(), chunk),
                    &DriveOptions {
                        tick_policy: TickPolicy::EventTime {
                            interval_secs: 1800,
                        },
                        ..DriveOptions::default()
                    },
                )
                .unwrap();
            (report.policy_ticks, engine.stats().ticks)
        };
        let (ticks_a, engine_ticks_a) = run(7);
        let (ticks_b, engine_ticks_b) = run(111);
        assert_eq!(ticks_a, ticks_b, "chunking must not move ticks");
        assert_eq!(engine_ticks_a, engine_ticks_b);
        // 10 windows of 900 s = 5 grid cells of 1800 s = 4 crossings.
        assert_eq!(ticks_a, 4);
    }

    #[test]
    fn source_errors_propagate() {
        let mut engine = engine();
        let steps = vec![
            ScriptStep::Batch(workload(2)),
            ScriptStep::Error("feed fell over".into()),
        ];
        let err = engine
            .drive(ScriptedSource::new(steps), &DriveOptions::default())
            .unwrap_err();
        assert!(err.contains("fell over"), "{err}");
        // Events before the error were still delivered.
        assert!(engine.stats().events > 0);
    }

    /// Snapshot cadence: `metrics_every = N` emits one snapshot per N
    /// delivered events (boundary-crossing, robust to chunking), with
    /// monotonic sequence numbers and non-decreasing counters — and the
    /// end-to-end latency histogram under a constant [`VirtualClock`]
    /// holds exactly one zero-valued sample per delivered event.
    #[test]
    fn metrics_cadence_and_event_latency() {
        use crate::testing::VirtualClock;
        use slim_telemetry::VecSink;
        use std::sync::Arc;

        let events = workload(10);
        let total = events.len() as u64;
        let mut engine = engine();
        engine.set_telemetry_clock(Arc::new(VirtualClock::new()));
        let sink = VecSink::new();
        engine.set_metrics_sink(Box::new(sink.clone()));
        let report = engine
            .drive(
                script(events, 16),
                &DriveOptions {
                    tick_policy: TickPolicy::EveryN(10),
                    metrics_every: 25,
                    ..DriveOptions::default()
                },
            )
            .unwrap();
        assert_eq!(report.events_delivered, total);
        let snaps = sink.collected();
        assert_eq!(
            snaps.len() as u64,
            total / 25,
            "one snapshot per crossed 25-event boundary"
        );
        let mut prev_events = 0;
        for (i, snap) in snaps.iter().enumerate() {
            assert_eq!(snap.seq, i as u64, "sequence numbers are dense");
            let events = snap.counter("events").unwrap();
            assert!(events >= prev_events, "counters never decrease");
            prev_events = events;
        }
        // Constant virtual time: every delivered event was admitted and
        // served at the same instant.
        let lat = engine.event_latency_histogram();
        assert_eq!(lat.count(), total);
        assert_eq!((lat.sum(), lat.max()), (0, 0));
    }

    /// A single source is the one-connection tier, and says so: its
    /// drive reports one connection, counts it as served, and shows it
    /// live while it runs (and gone afterwards).
    #[test]
    fn a_single_source_counts_as_one_connection() {
        use slim_telemetry::VecSink;

        let mut engine = engine();
        let sink = VecSink::new();
        engine.set_metrics_sink(Box::new(sink.clone()));
        let report = engine
            .drive(
                script(workload(6), 16),
                &DriveOptions {
                    // Chunks of at most 16 messages: the one in which
                    // the 10th event is delivered cannot also hold the
                    // `Leave` that ends the 50-message stream.
                    source_batch: 16,
                    metrics_every: 10,
                    ..DriveOptions::default()
                },
            )
            .unwrap();
        assert_eq!(report.connections, 1);
        assert_eq!(engine.stats().connections_served, 1);
        let snaps = sink.collected();
        assert_eq!(snaps[0].gauge("live_connections"), Some(1.0));
        engine.emit_snapshot();
        let after = sink.collected();
        assert_eq!(after.last().unwrap().gauge("live_connections"), Some(0.0));
    }

    /// Checkpoints are positions in a replayable input: a tier that
    /// cannot replay its accepted prefix is refused while the policy is
    /// set — at the start, before anything is consumed — and drives
    /// normally once it is cleared.
    #[test]
    fn a_non_replayable_tier_cannot_checkpoint() {
        use crate::testing::ScriptedConnections;

        let events = workload(4);
        let tier =
            || ScriptedConnections::single_stage(vec![vec![ScriptStep::Batch(events.clone())]]);
        let dir = std::env::temp_dir().join(format!("slim-pump-noreplay-{}", std::process::id()));
        let mut engine = engine();
        engine.set_checkpoint_policy(dir.clone(), 8, 2);
        let err = engine
            .drive_fan_in(tier(), &DriveOptions::default())
            .unwrap_err();
        assert!(err.contains("replayable"), "{err}");
        assert_eq!(engine.stats().events, 0, "nothing was consumed");
        assert_eq!(engine.stats().connections_served, 0);
        assert!(!dir.exists(), "nothing was written");
        engine.set_checkpoint_policy(dir, 0, 2);
        let report = engine
            .drive_fan_in(tier(), &DriveOptions::default())
            .unwrap();
        assert_eq!(report.events_delivered, events.len() as u64);
    }

    /// Three connections vs one source on the same workload: identical
    /// update stream and links, with the connection counters
    /// landing in the report and the engine stats. Per-connection
    /// delivery is in-order here, so no arrival is ever late no matter
    /// how the three producer threads interleave.
    #[test]
    fn fan_in_matches_the_single_source_drive() {
        use crate::testing::ScriptedConnections;

        let events = workload(10);
        let total = events.len() as u64;
        // Round-robin partition: each connection plays its slice (still
        // time-sorted) in small batches with scheduling stalls.
        let conns: Vec<Vec<ScriptStep>> = (0..3usize)
            .map(|c| {
                events
                    .iter()
                    .skip(c)
                    .step_by(3)
                    .copied()
                    .collect::<Vec<_>>()
                    .chunks(5)
                    .flat_map(|ch| [ScriptStep::Batch(ch.to_vec()), ScriptStep::Stall(1)])
                    .collect()
            })
            .collect();
        let opts = DriveOptions {
            tick_policy: TickPolicy::EveryN(50),
            max_lag_secs: 2_000,
            ..DriveOptions::default()
        };
        let mut fan = engine();
        let fan_report = fan
            .drive_fan_in(ScriptedConnections::single_stage(conns), &opts)
            .unwrap();
        assert_eq!(fan_report.events_delivered, total);
        assert_eq!(fan_report.connections, 3);
        assert_eq!(fan_report.late_events, 0);
        assert_eq!(fan_report.malformed_lines, 0);
        assert_eq!(fan_report.idle_evictions, 0, "no timeout configured");
        assert_eq!(fan.stats().connections_served, 3);

        let mut direct = engine();
        let direct_report = direct.drive(script(events, 16), &opts).unwrap();
        assert_eq!(fan_report.updates, direct_report.updates);
        assert_eq!(fan.links(), direct.links());
        assert_eq!(fan.stats().events, direct.stats().events);
        assert_eq!(fan.stats().ticks, direct.stats().ticks);
    }

    /// A dying connection (scripted `Error`) is churn, not a drive
    /// failure: the survivors' events all arrive and the drive reports
    /// every connection that joined.
    #[test]
    fn fan_in_tolerates_a_dying_connection() {
        use crate::testing::ScriptedConnections;

        let events = workload(6);
        let survivor: Vec<StreamEvent> = events.iter().step_by(2).copied().collect();
        let victim_delivers: Vec<StreamEvent> =
            events.iter().skip(1).step_by(2).take(4).copied().collect();
        let delivered = (survivor.len() + victim_delivers.len()) as u64;
        let conns = vec![
            survivor
                .chunks(7)
                .map(|c| ScriptStep::Batch(c.to_vec()))
                .collect(),
            vec![
                ScriptStep::Batch(victim_delivers),
                ScriptStep::Error("connection reset".into()),
                ScriptStep::Batch(events.clone()), // lost with the connection
            ],
        ];
        let mut engine = engine();
        let report = engine
            .drive_fan_in(
                ScriptedConnections::single_stage(conns),
                &DriveOptions {
                    tick_policy: TickPolicy::EveryN(0),
                    max_lag_secs: 10_000,
                    ..DriveOptions::default()
                },
            )
            .unwrap();
        assert_eq!(report.connections, 2);
        assert_eq!(report.events_delivered + report.late_events, delivered);
        assert_eq!(engine.stats().connections_served, 2);
    }

    #[test]
    fn invalid_options_rejected() {
        let mut engine = engine();
        let opts = DriveOptions {
            queue_cap: 0,
            ..DriveOptions::default()
        };
        assert!(engine.drive(script(Vec::new(), 1), &opts).is_err());
        let opts = DriveOptions {
            tick_policy: TickPolicy::EventTime { interval_secs: 0 },
            ..DriveOptions::default()
        };
        assert!(engine.drive(script(Vec::new(), 1), &opts).is_err());
        let opts = DriveOptions {
            max_lag_secs: -1,
            ..DriveOptions::default()
        };
        assert!(engine.drive(script(Vec::new(), 1), &opts).is_err());
    }
}
