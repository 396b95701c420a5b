//! What the workloads share: sizes, seeded input generation, the two
//! engine configurations, the in-memory source, and process-level
//! helpers (peak RSS, scratch space).

use std::path::PathBuf;
use std::time::Instant;

use slim::core::{LocationDataset, Record};
use slim::datagen::{Scenario, TwoViewSample};
use slim::lsh::LshConfig;
use slim::stream::source::{
    format_event_jsonl, parse_wire_line, SourcePoll, StreamSource, TickPolicy, WireFormat,
};
use slim::stream::{merge_datasets, DriveOptions, StreamConfig, StreamEvent, StreamLshConfig};

use crate::trace::Tracer;

/// The five named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BatchCab,
    StreamSm,
    StreamCab,
    ServiceSm,
    DurableSm,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::BatchCab,
        Workload::StreamSm,
        Workload::StreamCab,
        Workload::ServiceSm,
        Workload::DurableSm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchCab => "batch_cab",
            Workload::StreamSm => "stream_sm",
            Workload::StreamCab => "stream_cab",
            Workload::ServiceSm => "service_sm",
            Workload::DurableSm => "durable_sm",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. The full profile is sized so that on a 2-core box the
/// `run_seconds` of one run hold at least three whole repetitions of the
/// timed part (five or more on the SM workloads), for the median to be
/// taken over, while every drive still fires ≥ 200 ticks; the smoke
/// profile is about a tenth of that.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// `Scenario::sm` scale shared by the three SM workloads.
    pub sm_scale: f64,
    /// Refresh tick interval (events) on the SM workloads.
    pub sm_tick: usize,
    /// `Scenario::cab` scale of `stream_cab`.
    pub cab_scale: f64,
    /// Share of that scenario's event stream `stream_cab` replays (a
    /// time prefix).
    pub cab_prefix: f64,
    /// Refresh tick interval (events) on `stream_cab`.
    pub cab_tick: usize,
    /// `Scenario::cab` scale of `batch_cab`.
    pub batch_scale: f64,
    /// Open-loop feed rate of `service_sm`, events/s.
    pub rate: f64,
    /// Events per open-loop burst.
    pub burst: usize,
    /// Checkpoint cadence of `durable_sm`, consumed events.
    pub ckpt_every: u64,
    /// Queries of the isolated hot serve loop.
    pub hot_queries: usize,
    /// Fewest timed repetitions of any workload but `service_sm`.
    pub min_reps: usize,
    /// Times set-up is repeated (the median is reported).
    pub setups: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            sm_scale: 0.35,
            sm_tick: 750,
            cab_scale: 0.5,
            cab_prefix: 0.5,
            cab_tick: 900,
            batch_scale: 0.4,
            rate: 30_000.0,
            burst: 200,
            ckpt_every: 20_000,
            hot_queries: 100_000,
            min_reps: 3,
            setups: 5,
        }
    }

    pub fn smoke() -> Sizes {
        Sizes {
            sm_scale: 0.07,
            sm_tick: 150,
            cab_scale: 0.12,
            cab_prefix: 1.0,
            cab_tick: 100,
            batch_scale: 0.2,
            rate: 30_000.0,
            burst: 200,
            ckpt_every: 2_000,
            hot_queries: 10_000,
            min_reps: 1,
            setups: 1,
        }
    }
}

/// What one run was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub sizes: Sizes,
}

/// Out-of-order tolerance of the `service_sm` fan-in, event-time
/// seconds; a shuffle block must span less than half of it.
pub const MAX_LAG_SECS: i64 = 900;
/// Bounded-channel capacity of every drive.
pub const QUEUE_CAP: usize = 8_192;

/// A generated two-view dataset and its canonical event stream.
pub struct Views {
    pub sample: TwoViewSample,
    pub events: Vec<StreamEvent>,
}

impl Views {
    /// Every record of both views, for per-record probes.
    pub fn records(&self) -> Vec<Record> {
        self.events.iter().map(StreamEvent::to_record).collect()
    }
}

/// Which scenario family to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Sm,
    Cab,
}

/// Generates the seeded world, samples its two views at intersection
/// ratio 0.5 and merges them into canonical event order.
pub fn generate(family: Family, scale: f64, seed: u64, tr: &mut Tracer) -> Views {
    let scenario = tr.span("datagen.world", || match family {
        Family::Sm => Scenario::sm(scale, seed),
        Family::Cab => Scenario::cab(scale, seed),
    });
    let sample = tr.span("datagen.sample", || scenario.sample(0.5, seed));
    let events = tr.span("datagen.merge", || {
        merge_datasets(&sample.left, &sample.right)
    });
    Views { sample, events }
}

/// Renders every event as a JSONL wire line and parses the lines back.
/// All SM workloads run on the parsed events: the wire prints
/// coordinates with seven decimals, so `service_sm` (which ingests the
/// lines) and the in-memory workloads would otherwise differ.
pub fn wire_round_trip(events: &[StreamEvent], tr: &mut Tracer) -> (Vec<String>, Vec<StreamEvent>) {
    let lines: Vec<String> = tr.span("wire.render", || {
        events.iter().map(format_event_jsonl).collect()
    });
    let parsed = tr.span("wire.parse", || {
        lines
            .iter()
            .map(|l| {
                parse_wire_line(WireFormat::Jsonl, l)
                    .expect("a rendered event parses")
                    .expect("a rendered event is not blank")
            })
            .collect()
    });
    (lines, parsed)
}

/// The SM engine: a 14-day sliding window over 15-minute windows with
/// the wide-bucket LSH ring of `benches/streaming.rs::bench_config`.
/// Telemetry off, as every end-to-end number is taken; the traced runs
/// switch it on with [`with_telemetry`].
pub fn sm_config() -> StreamConfig {
    StreamConfig {
        window_capacity: Some(1344),
        refresh_every: 0,
        telemetry: false,
        lsh: Some(StreamLshConfig {
            spans: 28,
            base: LshConfig {
                num_buckets: 1 << 20,
                threshold: 0.7,
                ..LshConfig::default()
            },
        }),
        ..StreamConfig::default()
    }
}

/// The paper's fig-11 LSH settings, shared by `batch_cab` and the
/// `stream_cab` ring.
pub const FIG11_LSH: LshConfig = LshConfig {
    threshold: 0.4,
    step_windows: 48,
    spatial_level: 12,
    num_buckets: 4096,
};

/// The Cab engine: a 7-day sliding window, LSH ring of 14 fig-11 spans.
pub fn cab_config() -> StreamConfig {
    StreamConfig {
        window_capacity: Some(672),
        refresh_every: 0,
        telemetry: false,
        lsh: Some(StreamLshConfig {
            spans: 14,
            base: FIG11_LSH,
        }),
        ..StreamConfig::default()
    }
}

/// `cfg` with the engine's own telemetry on (the traced runs).
pub fn with_telemetry(cfg: StreamConfig) -> StreamConfig {
    StreamConfig {
        telemetry: true,
        ..cfg
    }
}

/// The single-shard single-worker variant of `cfg` (the house
/// shard/worker invariant's other side, and the pool's baseline).
pub fn one_worker(cfg: StreamConfig) -> StreamConfig {
    StreamConfig {
        num_shards: 1,
        num_workers: 1,
        ..cfg
    }
}

/// Drive options of every closed-loop drive.
pub fn drive_opts(tick: usize, max_lag_secs: i64) -> DriveOptions {
    DriveOptions {
        queue_cap: QUEUE_CAP,
        tick_policy: TickPolicy::EveryN(tick),
        max_lag_secs,
        ..DriveOptions::default()
    }
}

/// An unpaced in-memory source over a fixed event list. `mark` names an
/// event index; the instant the batch containing it is handed to the
/// pump is written to `marked_at` (used to time how long a resumed
/// drive spends skipping its checkpointed prefix).
pub struct VecSource {
    events: Vec<StreamEvent>,
    next: usize,
    mark: Option<usize>,
    marked_at: std::sync::Arc<std::sync::Mutex<Option<Instant>>>,
}

impl VecSource {
    pub fn new(events: Vec<StreamEvent>) -> VecSource {
        VecSource {
            events,
            next: 0,
            mark: None,
            marked_at: Default::default(),
        }
    }

    /// Asks for the hand-out instant of event `index`; read it from the
    /// returned cell after the drive.
    pub fn with_mark(
        mut self,
        index: usize,
    ) -> (VecSource, std::sync::Arc<std::sync::Mutex<Option<Instant>>>) {
        self.mark = Some(index);
        let cell = self.marked_at.clone();
        (self, cell)
    }
}

impl StreamSource for VecSource {
    fn next_batch(&mut self, max: usize) -> Result<SourcePoll, String> {
        if self.next >= self.events.len() {
            return Ok(SourcePoll::End);
        }
        let end = (self.next + max).min(self.events.len());
        if let Some(mark) = self.mark {
            if (self.next..end).contains(&mark) {
                *self.marked_at.lock().expect("mark cell poisoned") = Some(Instant::now());
            }
        }
        let batch = self.events[self.next..end].to_vec();
        self.next = end;
        Ok(SourcePoll::Batch(batch))
    }
}

/// All records of a dataset in entity order (CSV dump order).
pub fn dataset_records(ds: &LocationDataset) -> Vec<Record> {
    let mut records = Vec::with_capacity(ds.num_records());
    for e in ds.entities_sorted() {
        records.extend_from_slice(ds.records_of(e));
    }
    records
}

/// `VmHWM` of this process in MB (peak resident set).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The benchmark's output directory, `bench/out/`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A scratch directory for CSVs and checkpoints, removed on drop. It
/// lives under `bench/out/` rather than the system temp dir because a
/// benchmark run may only write inside its checkout.
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    pub fn new(label: &str) -> Scratch {
        let path = out_dir().join(format!("scratch-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("creating the scratch directory");
        Scratch { path }
    }

    pub fn path(&self) -> &std::path::Path {
        &self.path
    }

    /// A fresh empty sub-directory.
    pub fn subdir(&self, name: &str) -> PathBuf {
        let p = self.path.join(name);
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).expect("creating a scratch sub-directory");
        p
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Runs set-up `n` times and returns the last product with the median
/// set-up time.
pub fn timed_setups<T>(n: usize, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (
        last.expect("at least one set-up ran"),
        crate::stats::median(&times),
    )
}

/// Runs `rep` at least `min_reps` times and until the timed work is as
/// close to `seconds` as whole repetitions get: it stops once one more
/// repetition would overshoot the budget by more than stopping
/// undershoots it. `rep` returns the seconds it timed.
pub fn repeat_for(seconds: f64, min_reps: usize, mut rep: impl FnMut(usize) -> f64) -> usize {
    let mut spent = 0.0;
    let mut n = 0;
    while n < min_reps.max(1) || spent + spent / (2.0 * n as f64) < seconds {
        spent += rep(n);
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_for_honours_both_floors() {
        let mut calls = 0;
        assert_eq!(
            repeat_for(0.0, 3, |_| {
                calls += 1;
                1.0
            }),
            3
        );
        assert_eq!(calls, 3);
        // 1 s repetitions: 2.4 s of budget is nearer two of them, 2.6 s
        // nearer three.
        assert_eq!(repeat_for(2.4, 1, |_| 1.0), 2);
        assert_eq!(repeat_for(2.6, 1, |_| 1.0), 3);
        // 4.9 s repetitions against 10 s: two (9.8 s), not three.
        assert_eq!(repeat_for(10.0, 1, |_| 4.9), 2);
    }

    #[test]
    fn vec_source_hands_out_everything_once_and_marks() {
        let views = generate(Family::Sm, 0.01, 1, &mut Tracer::new(false));
        let n = views.events.len();
        let (mut src, cell) = VecSource::new(views.events.clone()).with_mark(n - 1);
        let mut got = 0;
        while let SourcePoll::Batch(b) = src.next_batch(100).unwrap() {
            got += b.len();
        }
        assert_eq!(got, n);
        assert!(cell.lock().unwrap().is_some());
    }

    #[test]
    fn wire_round_trip_is_a_fixed_point() {
        let views = generate(Family::Sm, 0.01, 2, &mut Tracer::new(false));
        let mut tr = Tracer::new(false);
        let (lines, once) = wire_round_trip(&views.events, &mut tr);
        let (again, twice) = wire_round_trip(&once, &mut tr);
        assert_eq!(lines, again, "parsed events render to the same lines");
        assert_eq!(once, twice);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        let registry: Vec<&str> = crate::report::WORKLOADS.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, registry);
    }
}
