//! # slim-cli — command-line mobility linkage
//!
//! Library backing the `slim-link` binary: argument parsing (hand-rolled
//! — no CLI dependency is sanctioned for this project) and the run logic,
//! split out so both can be unit-tested.
//!
//! Every flag is one row of a table: `(flag, value name, mode, help)`,
//! where the mode says whether the flag turns on the LSH filter, the
//! streaming engine, or neither. `parse_args` looks each argument up in
//! the table and hands its value to one setter `match`; `--help`
//! ([`USAGE`]) is rendered from the same rows, with every
//! `[default: …]` read back from the `Default` impls of the options it
//! sets, so the text cannot drift from the code.
//!
//! ```text
//! slim-link LEFT.csv RIGHT.csv [options]
//! slim-link --stream LEFT.csv RIGHT.csv [options]   # replay as an event stream
//! slim-link --stream --source tcp HOST:PORT         # tail a live feed
//! slim-link --stream --source synthetic             # generated live workload
//! slim-link --demo out-dir            # generate a linkable sample pair
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::sync::LazyLock;

use slim_core::{MatchingMethod, SlimConfig, ThresholdMethod};
use slim_stream::TickPolicy;

/// Which ingestion front-end feeds the streaming engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SourceKind {
    /// Replay the two CSV datasets as the canonical merged stream.
    #[default]
    Csv,
    /// Tail a live TCP feed of side-tagged event lines (the positional
    /// argument is the `host:port` to connect to).
    Tcp,
    /// A slim-datagen workload delivered as a live source.
    Synthetic,
}

impl SourceKind {
    /// The `--source` spelling (also used in the summary line).
    pub fn label(self) -> &'static str {
        match self {
            SourceKind::Csv => "csv",
            SourceKind::Tcp => "tcp",
            SourceKind::Synthetic => "synthetic",
        }
    }
}

/// Streaming options (`--stream`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamOptions {
    /// Sliding-window capacity in temporal windows (`None` = unbounded).
    pub window_capacity: Option<u32>,
    /// Refresh-tick interval in events (the `every:N` tick policy;
    /// superseded by an explicit `--tick-policy`).
    pub refresh_every: usize,
    /// Ingest batch size: source poll size and channel drain size.
    pub batch_size: usize,
    /// Engine state shards (`0` = one per available core; at most
    /// 1,024). Output is bit-identical for every value; this only
    /// changes how state is partitioned.
    pub num_shards: usize,
    /// Persistent worker-pool size, decoupled from `num_shards`: shard
    /// work is split into chunks, each worker claims a block of them
    /// and then takes from the back of the others' blocks, so a hot
    /// shard does not pin tick latency to one thread. `0` = one worker
    /// per core; at most 1,024. Output is bit-identical for every value.
    pub num_workers: usize,
    /// The ingestion front-end.
    pub source: SourceKind,
    /// Line format of a `--source tcp` feed.
    pub wire: slim_stream::WireFormat,
    /// `--source tcp` multi-connection mode: listen at the given
    /// address and accept exactly this many client feeds, fanned into
    /// the engine through the MPSC channel with per-connection
    /// watermarks merged into a global frontier. `0` = classic
    /// single-connection mode (dial the address as a client).
    pub connections: usize,
    /// Evict a connection from the watermark frontier after this many
    /// seconds without an event, so one stalled client cannot freeze
    /// event time for everyone (`0` = never evict; revived connections
    /// re-merge, their too-old events are counted late).
    pub idle_timeout_secs: u64,
    /// Explicit tick policy (`None` = `every:refresh_every`).
    pub tick_policy: Option<TickPolicy>,
    /// Bounded ingest queue capacity in events; a full queue blocks the
    /// feed (counted backpressure), never drops.
    pub queue_cap: usize,
    /// Out-of-order tolerance of the reorder buffer in event-time
    /// seconds, independent of the tick policy (a `watermark:LAG`
    /// policy uses the larger of the two). `0` = feed must be in
    /// order; disordered arrivals are counted late and dropped.
    pub max_lag_secs: i64,
    /// Synthetic source pacing in events/s (`0` = unthrottled).
    pub rate: f64,
    /// Synthetic workload scale factor.
    pub synthetic_scale: f64,
    /// Synthetic workload seed.
    pub synthetic_seed: u64,
    /// Events between telemetry snapshots (`0` = no periodic
    /// snapshots). Each snapshot is one flat JSONL line on stderr (or
    /// the `--metrics-file`) and refreshes the `--metrics-addr` scrape
    /// page. Purely observational: engine output is bit-identical for
    /// every cadence.
    pub metrics_every: u64,
    /// Write a crash-recovery checkpoint every this many consumed
    /// events into the `--checkpoint-dir` (`0` = checkpointing off).
    /// Purely additive: the served links and finalized output are
    /// bit-identical at every cadence.
    pub checkpoint_every: u64,
    /// Checkpoint retention: keep the newest K checkpoint files,
    /// pruning older ones after each successful write. At least 2 is
    /// recommended so a checkpoint torn mid-write leaves a valid
    /// predecessor to fall back to.
    pub checkpoint_keep: usize,
}

impl Default for StreamOptions {
    fn default() -> Self {
        Self {
            window_capacity: None,
            refresh_every: 10_000,
            batch_size: 8_192,
            num_shards: 0,
            num_workers: 0,
            source: SourceKind::Csv,
            wire: slim_stream::WireFormat::Csv,
            connections: 0,
            idle_timeout_secs: 0,
            tick_policy: None,
            queue_cap: 65_536,
            max_lag_secs: 0,
            rate: 0.0,
            synthetic_scale: 0.05,
            synthetic_seed: 42,
            metrics_every: 0,
            checkpoint_every: 0,
            checkpoint_keep: 2,
        }
    }
}

/// Parsed command-line options.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CliOptions {
    /// Left dataset path (unless `--demo`).
    pub left: Option<PathBuf>,
    /// Right dataset path.
    pub right: Option<PathBuf>,
    /// Write a synthetic demo dataset pair into this directory and link it.
    pub demo: Option<PathBuf>,
    /// Linkage configuration.
    pub config: SlimConfig,
    /// Enable the LSH candidate filter.
    pub lsh: Option<slim_lsh::LshConfig>,
    /// Replay the datasets as a timestamped event stream (`--stream`).
    pub stream: Option<StreamOptions>,
    /// The `host:port` of a live feed (`--source tcp`).
    pub tcp_addr: Option<String>,
    /// Write JSONL metrics snapshots here instead of stderr
    /// (`--metrics-file`; implies `--stream`).
    pub metrics_file: Option<PathBuf>,
    /// Serve the latest snapshot as Prometheus text exposition at this
    /// `host:port` (`--metrics-addr`; implies `--stream`).
    pub metrics_addr: Option<String>,
    /// Answer link queries over TCP at this `host:port` from the
    /// engine's published epoch snapshots while ingesting (`--serve`;
    /// implies `--stream`).
    pub serve_addr: Option<String>,
    /// Directory for crash-recovery checkpoints (`--checkpoint-dir`;
    /// implies `--stream`). Writes happen at the `--checkpoint-every`
    /// cadence; `--recover` reads the newest valid one back.
    pub checkpoint_dir: Option<PathBuf>,
    /// Resume from the newest valid checkpoint in `--checkpoint-dir`
    /// instead of starting fresh (`--recover`; implies `--stream`).
    pub recover: bool,
    /// Output CSV path (stdout when `None`).
    pub out: Option<PathBuf>,
    /// Print per-step progress.
    pub verbose: bool,
}

/// Which run mode a flag turns on: `Batch` flags turn on none (they
/// configure the linkage every mode runs, or the output).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Batch,
    Lsh,
    Stream,
}
use Mode::{Batch, Lsh, Stream};

/// The flag table, one `(flag, value name, mode, help)` row per flag; a
/// switch has an empty value name. `parse_args` looks flags up here,
/// [`set`] writes their values, and [`USAGE`] is rendered from it with
/// the defaults [`shown_default`] reads back from the `Default` impls.
#[rustfmt::skip]
const FLAGS: &[(&str, &str, Mode, &str)] = &[
    ("--window-mins", "N", Batch, "temporal window width in minutes"),
    ("--level", "N", Batch, "spatial grid level (0-30)"),
    ("--b", "F", Batch, "length-normalization strength"),
    ("--speed-kmh", "F", Batch, "max entity speed for alibis"),
    ("--threshold", "METHOD", Batch, "gmm | otsu | 2means | none"),
    ("--exact-matching", "", Batch, "exact Hungarian instead of greedy"),
    ("--lsh", "", Lsh, "enable the LSH candidate filter"),
    ("--lsh-threshold", "F", Lsh, "LSH similarity threshold"),
    ("--lsh-step", "N", Lsh, "query span in windows"),
    ("--lsh-level", "N", Lsh, "dominating-cell spatial level"),
    ("--buckets", "N", Lsh, "LSH bucket count"),
    ("--stream", "", Stream, "replay the CSVs as a timestamped event stream through the \
        incremental engine, reporting link updates at each refresh tick"),
    ("--stream-window", "N", Stream, "sliding window in temporal windows; 0 keeps the full \
        history"),
    ("--refresh-every", "N", Stream, "events between refresh ticks"),
    ("--batch-size", "N", Stream, "ingest batch size for sharded binning"),
    ("--shards", "N", Stream, "engine state shards (the state partition); output is \
        bit-identical for every value; 0 = one per core; at most 1024"),
    ("--workers", "N", Stream, "persistent worker-pool size: each worker claims its own block of \
        a phase's chunks, then takes from the back of busier workers' blocks — decoupled from \
        --shards, so a hot shard is drained by every free worker; output is bit-identical for \
        every value; 0 = one per core; at most 1024"),
    ("--source", "MODE", Stream, "ingestion front-end: csv (replay the two CSVs), tcp (tail a \
        live feed at the HOST:PORT given in place of the dataset paths), or synthetic (a \
        generated live workload)"),
    ("--wire", "FORMAT", Stream, "--source tcp line format: csv (side,entity,lat,lng,ts[,acc]) \
        or jsonl (one flat JSON object per line)"),
    ("--connections", "N", Stream, "--source tcp multi-connection mode: listen at HOST:PORT and \
        accept exactly N client feeds, fanned into the engine with per-connection watermarks \
        merged into a global frontier; 0 = dial HOST:PORT as a single client"),
    ("--idle-timeout", "SECS", Stream, "evict a connection from the watermark frontier after \
        SECS without an event, so one stalled client cannot freeze event time; revived \
        connections re-merge, their too-old events are counted late; 0 = wait forever"),
    ("--tick-policy", "SPEC", Stream, "when refresh ticks fire while draining the source: \
        every:N (ingested events), event-time:S (stream seconds), or watermark:LAG (buffer \
        out-of-order events up to LAG seconds and tick as temporal windows seal)"),
    ("--queue-cap", "N", Stream, "bounded ingest queue capacity in events; a full queue blocks \
        the feed — counted backpressure, never dropped events"),
    ("--max-lag", "SECS", Stream, "out-of-order tolerance of the ingest reorder buffer in \
        event-time seconds, independent of the tick policy; older arrivals are counted late \
        and dropped"),
    ("--rate", "F", Stream, "synthetic source pacing in events/s; 0 = unthrottled"),
    ("--synthetic-scale", "F", Stream, "synthetic workload scale"),
    ("--synthetic-seed", "N", Stream, "synthetic workload seed"),
    ("--metrics-every", "N", Stream, "events between telemetry snapshots while streaming; each \
        snapshot is one flat JSONL line on stderr (or --metrics-file) and refreshes the \
        --metrics-addr page; output is bit-identical for every cadence; 0 = periodic snapshots \
        off"),
    ("--metrics-file", "FILE", Stream, "write JSONL metrics snapshots to FILE instead of \
        stderr; a final snapshot matching the summary counters closes the stream (implies \
        --stream)"),
    ("--metrics-addr", "ADDR", Stream, "serve the latest snapshot as Prometheus text exposition \
        over HTTP at ADDR (host:port, e.g. 127.0.0.1:9898; port 0 picks one — the bound address \
        is logged with --verbose; implies --stream)"),
    ("--serve", "ADDR", Stream, "answer link queries over TCP at ADDR while ingesting, from the \
        epoch snapshot published at each refresh tick (line protocol: LINKS ENTITY, THRESHOLD, \
        EPOCH; one reply per line; port 0 picks one — the bound address is logged with \
        --verbose; implies --stream)"),
    ("--checkpoint-dir", "DIR", Stream, "write crash-recovery checkpoints into DIR (CRC-framed, \
        written atomically: temp file + fsync + rename; implies --stream)"),
    ("--checkpoint-every", "N", Stream, "events between checkpoints; requires --checkpoint-dir; \
        output is bit-identical at every cadence; 0 = off"),
    ("--checkpoint-keep", "K", Stream, "keep the newest K checkpoint files, pruning older ones \
        after each write; >= 2 leaves a fall-back for a torn newest"),
    ("--recover", "", Stream, "resume from the newest valid checkpoint in --checkpoint-dir \
        (falling back past torn or corrupt files), skip the already-consumed event prefix, and \
        continue bit-identically to a run that never crashed"),
    ("--out", "FILE", Batch, "write links CSV here (default: stdout)"),
    ("--demo", "DIR", Batch, "generate a synthetic dataset pair in DIR, then link it"),
    ("--verbose", "", Batch, "progress output on stderr"),
    ("--help", "", Batch, "this text"),
];

/// The `--threshold` spellings.
const THRESHOLDS: [(&str, ThresholdMethod); 4] = [
    ("gmm", ThresholdMethod::GmmExpectedF1),
    ("otsu", ThresholdMethod::Otsu),
    ("2means", ThresholdMethod::TwoMeans),
    ("none", ThresholdMethod::None),
];

/// Usage text: a fixed head, then one entry per [`FLAGS`] row with its
/// help wrapped from column 25 and its `[default: …]` at column 60.
pub static USAGE: LazyLock<String> = LazyLock::new(|| {
    let mut text = String::from(
        "\
slim-link — link the entities of two location datasets (SLIM, SIGMOD'20)

USAGE:
    slim-link LEFT.csv RIGHT.csv [OPTIONS]
    slim-link --stream LEFT.csv RIGHT.csv [OPTIONS]
    slim-link --stream --source tcp HOST:PORT [OPTIONS]
    slim-link --stream --source synthetic [OPTIONS]
    slim-link --demo DIR [OPTIONS]

CSV format: entity_id,latitude,longitude,timestamp[,accuracy_m]
TCP feed format (one event per line): side(L|R),entity_id,latitude,longitude,timestamp[,accuracy_m]

OPTIONS:
",
    );
    let width = |s: &str| s.chars().count();
    for &(flag, value, _, help) in FLAGS {
        let mut line = format!("    {:<20}", format!("{flag} {value}").trim_end());
        for word in help.split_whitespace() {
            if width(&line) + 1 + width(word) > 76 {
                text += &format!("{line}\n");
                line = " ".repeat(24);
            }
            line += &format!(" {word}");
        }
        if let Some(default) = shown_default(flag) {
            if width(&line) >= 60 {
                text += &format!("{line}\n");
                line.clear();
            }
            line = format!("{line:60}[default: {default}]");
        }
        text += &format!("{line}\n");
    }
    text
});

/// The `[default: …]` a flag's `--help` entry shows, read from the
/// `Default` impls (`None` for a switch or an unset path).
fn shown_default(flag: &str) -> Option<String> {
    let (c, l, s) = (
        SlimConfig::default(),
        slim_lsh::LshConfig::default(),
        StreamOptions::default(),
    );
    Some(match flag {
        "--window-mins" => (c.window_width_secs / 60).to_string(),
        "--level" => c.spatial_level.to_string(),
        "--b" => c.b.to_string(),
        // m/s → km/h, rounded past the conversion's float noise.
        "--speed-kmh" => ((c.max_speed_m_per_s * 3.6e6).round() / 1e6).to_string(),
        "--threshold" => THRESHOLDS
            .iter()
            .find(|t| t.1 == c.threshold_method)?
            .0
            .to_string(),
        "--lsh-threshold" => l.threshold.to_string(),
        "--lsh-step" => l.step_windows.to_string(),
        "--lsh-level" => l.spatial_level.to_string(),
        "--buckets" => l.num_buckets.to_string(),
        "--stream-window" => s.window_capacity.unwrap_or(0).to_string(),
        "--refresh-every" => s.refresh_every.to_string(),
        "--batch-size" => s.batch_size.to_string(),
        "--shards" => s.num_shards.to_string(),
        "--workers" => s.num_workers.to_string(),
        "--source" => s.source.label().to_string(),
        "--wire" => s.wire.label().to_string(),
        "--connections" => s.connections.to_string(),
        "--idle-timeout" => s.idle_timeout_secs.to_string(),
        "--tick-policy" => format!("every:{}", s.refresh_every),
        "--queue-cap" => s.queue_cap.to_string(),
        "--max-lag" => s.max_lag_secs.to_string(),
        "--rate" => s.rate.to_string(),
        "--synthetic-scale" => s.synthetic_scale.to_string(),
        "--synthetic-seed" => s.synthetic_seed.to_string(),
        "--metrics-every" => s.metrics_every.to_string(),
        "--checkpoint-every" => s.checkpoint_every.to_string(),
        "--checkpoint-keep" => s.checkpoint_keep.to_string(),
        _ => return None,
    })
}

/// Writes one flag's value (`""` for a switch) into the options it
/// configures, rejecting a value outside the flag's range.
fn set(
    flag: &str,
    v: &str,
    o: &mut CliOptions,
    lsh: &mut slim_lsh::LshConfig,
    s: &mut StreamOptions,
) -> Result<(), String> {
    fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
        v.parse().map_err(|_| format!("bad {flag} `{v}`"))
    }
    fn pick<T: Copy>(flag: &str, v: &str, names: &[(&str, T)]) -> Result<T, String> {
        let names_list: Vec<&str> = names.iter().map(|n| n.0).collect();
        let found = names.iter().find(|n| n.0 == v).map(|n| n.1);
        found.ok_or_else(|| format!("unknown {flag} `{v}` ({})", names_list.join(" | ")))
    }
    fn checked<T>(flag: &str, v: T, ok: impl Fn(&T) -> bool, rule: &str) -> Result<T, String> {
        ok(&v).then_some(v).ok_or(format!("{flag} must be {rule}"))
    }
    match flag {
        "--window-mins" => {
            let secs = num::<i64>(flag, v)?.checked_mul(60);
            o.config.window_width_secs = secs.ok_or(format!("{flag} `{v}` is too large"))?;
        }
        "--level" => o.config.spatial_level = num(flag, v)?,
        "--b" => o.config.b = num(flag, v)?,
        "--speed-kmh" => o.config.max_speed_m_per_s = num::<f64>(flag, v)? * 1000.0 / 3600.0,
        "--threshold" => o.config.threshold_method = pick(flag, v, &THRESHOLDS)?,
        "--exact-matching" => o.config.matching_method = MatchingMethod::HungarianExact,
        "--lsh-threshold" => lsh.threshold = num(flag, v)?,
        "--lsh-step" => lsh.step_windows = num(flag, v)?,
        "--lsh-level" => lsh.spatial_level = num(flag, v)?,
        "--buckets" => lsh.num_buckets = num(flag, v)?,
        "--stream-window" => s.window_capacity = Some(num(flag, v)?).filter(|&w| w > 0),
        "--refresh-every" => s.refresh_every = num(flag, v)?,
        "--batch-size" => s.batch_size = checked(flag, num(flag, v)?, |&n| n > 0, "positive")?,
        "--shards" => s.num_shards = num(flag, v)?,
        "--workers" => s.num_workers = num(flag, v)?,
        "--source" => {
            let kinds = [SourceKind::Csv, SourceKind::Tcp, SourceKind::Synthetic];
            s.source = pick(flag, v, &kinds.map(|k| (k.label(), k)))?;
        }
        "--wire" => {
            let wires = [slim_stream::WireFormat::Csv, slim_stream::WireFormat::Jsonl];
            s.wire = pick(flag, v, &wires.map(|w| (w.label(), w)))?;
        }
        "--connections" => s.connections = num(flag, v)?,
        "--idle-timeout" => s.idle_timeout_secs = num(flag, v)?,
        "--tick-policy" => s.tick_policy = Some(parse_tick_policy(v)?),
        "--queue-cap" => s.queue_cap = checked(flag, num(flag, v)?, |&n| n > 0, "positive")?,
        "--max-lag" => s.max_lag_secs = checked(flag, num(flag, v)?, |&l| l >= 0, "non-negative")?,
        "--rate" => {
            let ok = |r: &f64| r.is_finite() && *r >= 0.0;
            s.rate = checked(flag, num(flag, v)?, ok, "a non-negative number")?;
        }
        "--synthetic-scale" => {
            let ok = |x: &f64| *x > 0.0 && *x <= 4.0;
            s.synthetic_scale = checked(flag, num(flag, v)?, ok, "in (0, 4]")?;
        }
        "--synthetic-seed" => s.synthetic_seed = num(flag, v)?,
        "--metrics-every" => s.metrics_every = num(flag, v)?,
        "--metrics-file" => o.metrics_file = Some(PathBuf::from(v)),
        "--metrics-addr" => o.metrics_addr = Some(v.to_string()),
        "--serve" => o.serve_addr = Some(v.to_string()),
        "--checkpoint-dir" => o.checkpoint_dir = Some(PathBuf::from(v)),
        "--checkpoint-every" => s.checkpoint_every = num(flag, v)?,
        "--checkpoint-keep" => {
            s.checkpoint_keep = checked(flag, num(flag, v)?, |&k| k > 0, "positive")?;
        }
        "--recover" => o.recover = true,
        "--out" => o.out = Some(PathBuf::from(v)),
        "--demo" => o.demo = Some(PathBuf::from(v)),
        "--verbose" => o.verbose = true,
        // These only turn their mode on.
        "--lsh" | "--stream" => {}
        _ => unreachable!("{flag} has a FLAGS row but no setter"),
    }
    Ok(())
}

/// Parses arguments (excluding `argv[0]`).
pub fn parse_args(args: &[String]) -> Result<CliOptions, String> {
    let mut opts = CliOptions::default();
    let mut lsh_cfg = slim_lsh::LshConfig::default();
    let mut stream_opts = StreamOptions::default();
    let (mut want_lsh, mut want_stream) = (false, false);
    let mut positional: Vec<PathBuf> = Vec::new();

    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let name = match arg.as_str() {
            "-h" => "--help",
            "-v" => "--verbose",
            other => other,
        };
        let Some(&(flag, value, mode, _)) = FLAGS.iter().find(|row| row.0 == name) else {
            if name.starts_with('-') {
                return Err(format!("unknown option `{name}`\n\n{}", *USAGE));
            }
            positional.push(PathBuf::from(arg));
            continue;
        };
        if flag == "--help" {
            return Err(USAGE.to_string());
        }
        let v = match value {
            "" => "",
            _ => args.next().ok_or(format!("{flag} requires a value"))?,
        };
        set(flag, v, &mut opts, &mut lsh_cfg, &mut stream_opts)?;
        want_lsh |= mode == Lsh;
        want_stream |= mode == Stream;
    }

    if opts.demo.is_none() {
        // What the positional arguments mean depends on the stream
        // source: csv links two datasets, tcp connects to an address,
        // synthetic needs nothing.
        let source = if want_stream {
            stream_opts.source
        } else {
            SourceKind::Csv
        };
        match source {
            SourceKind::Csv => {
                if positional.len() != 2 {
                    return Err(format!(
                        "expected exactly two dataset paths, got {}\n\n{}",
                        positional.len(),
                        *USAGE
                    ));
                }
                opts.right = Some(positional.pop().unwrap());
                opts.left = Some(positional.pop().unwrap());
            }
            SourceKind::Tcp => {
                if positional.len() != 1 {
                    return Err(format!(
                        "--source tcp expects exactly one HOST:PORT argument, got {}",
                        positional.len()
                    ));
                }
                opts.tcp_addr = Some(positional.pop().unwrap().to_string_lossy().into_owned());
            }
            SourceKind::Synthetic => {
                if !positional.is_empty() {
                    return Err("--source synthetic takes no dataset paths".to_string());
                }
            }
        }
    } else if !positional.is_empty() {
        return Err("--demo takes no dataset paths".to_string());
    }
    if want_lsh {
        lsh_cfg.validate()?;
        opts.lsh = Some(lsh_cfg);
    }
    if want_stream {
        let s = &stream_opts;
        let no_dir = opts.checkpoint_dir.is_none();
        // The cross-flag rules, first broken one reported.
        #[rustfmt::skip]
        let rules = [
            (opts.demo.is_some(), "--stream cannot be combined with --demo"),
            (s.connections > 0 && s.source != SourceKind::Tcp, "--connections requires --source tcp"),
            (s.idle_timeout_secs > 0 && s.connections == 0, "--idle-timeout requires --connections \
                (a single feed has no other connection to hold up)"),
            (s.checkpoint_every > 0 && no_dir, "--checkpoint-every requires --checkpoint-dir"),
            (opts.recover && no_dir, "--recover requires --checkpoint-dir"),
            (!no_dir && s.connections > 0, "checkpointing needs a replayable source: \
                --checkpoint-dir cannot be combined with --connections (N sockets cannot replay \
                their accepted prefix)"),
        ];
        if let Some((_, broken)) = rules.iter().find(|rule| rule.0) {
            return Err(broken.to_string());
        }
        // The engine's own bounds on --shards / --workers, checked
        // before anything is read or spawned.
        slim_stream::StreamConfig {
            num_shards: s.num_shards,
            num_workers: s.num_workers,
            ..slim_stream::StreamConfig::default()
        }
        .validate()?;
        opts.stream = Some(stream_opts);
    }
    opts.config.validate()?;
    Ok(opts)
}

/// Parses a `--tick-policy` spec: `every:N`, `event-time:SECS`, or
/// `watermark:LAG_SECS`.
pub fn parse_tick_policy(spec: &str) -> Result<TickPolicy, String> {
    let (kind, value) = spec
        .split_once(':')
        .ok_or_else(|| format!("bad --tick-policy `{spec}` (expected kind:value)"))?;
    match kind {
        "every" => {
            let n: usize = value
                .parse()
                .map_err(|_| format!("bad tick count `{value}`"))?;
            Ok(TickPolicy::EveryN(n))
        }
        "event-time" => {
            let s: i64 = value
                .parse()
                .map_err(|_| format!("bad interval `{value}`"))?;
            if s <= 0 {
                return Err("event-time interval must be positive".to_string());
            }
            Ok(TickPolicy::EventTime { interval_secs: s })
        }
        "watermark" => {
            let s: i64 = value.parse().map_err(|_| format!("bad lag `{value}`"))?;
            if s < 0 {
                return Err("watermark lag must be non-negative".to_string());
            }
            Ok(TickPolicy::Watermark { max_lag_secs: s })
        }
        other => Err(format!(
            "unknown tick policy `{other}` (every | event-time | watermark)"
        )),
    }
}

/// Runs the linkage described by `opts`, returning the rendered summary
/// (links go to `opts.out` or are included in the summary for stdout).
pub fn run(opts: &CliOptions) -> Result<String, String> {
    use slim_core::io;
    use slim_core::Slim;

    // Live sources have no datasets to load up front: hand off to the
    // streaming front-end immediately.
    if let Some(stream_opts) = &opts.stream {
        if stream_opts.source != SourceKind::Csv {
            return run_stream(opts, stream_opts, None);
        }
    }

    let (left, right) = if let Some(dir) = &opts.demo {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let scenario = slim_datagen::Scenario::cab(0.08, 7);
        let sample = scenario.sample(0.5, 7);
        let dump = |ds: &slim_core::LocationDataset, name: &str| -> Result<PathBuf, String> {
            let mut records = Vec::new();
            for e in ds.entities_sorted() {
                records.extend_from_slice(ds.records_of(e));
            }
            let path = dir.join(name);
            let file = std::fs::File::create(&path).map_err(|e| e.to_string())?;
            io::write_records_csv(std::io::BufWriter::new(file), &records)
                .map_err(|e| e.to_string())?;
            Ok(path)
        };
        let l = dump(&sample.left, "left.csv")?;
        let r = dump(&sample.right, "right.csv")?;
        (l, r)
    } else {
        (
            opts.left.clone().expect("validated by parse_args"),
            opts.right.clone().expect("validated by parse_args"),
        )
    };

    let log = |msg: &str| {
        if opts.verbose {
            eprintln!("[slim-link] {msg}");
        }
    };

    log(&format!(
        "loading {} and {}",
        left.display(),
        right.display()
    ));
    let load = |path: &std::path::Path| {
        io::load_dataset_csv(path).map_err(|e| format!("{}: {e}", path.display()))
    };
    // Side by side; the right loader is joined before either error is
    // looked at.
    let (left_ds, right_ds) = std::thread::scope(|s| {
        let right_loader = s.spawn(|| load(&right));
        let left_ds = load(&left);
        let right_ds = right_loader.join().expect("the CSV loader does not panic");
        (left_ds, right_ds)
    });
    let (left_ds, right_ds) = (left_ds?, right_ds?);
    log(&format!(
        "left: {} entities / {} records; right: {} entities / {} records",
        left_ds.num_entities(),
        left_ds.num_records(),
        right_ds.num_entities(),
        right_ds.num_records()
    ));

    if let Some(stream_opts) = &opts.stream {
        return run_stream(opts, stream_opts, Some((&left_ds, &right_ds)));
    }

    // Histories are prepared once; the LSH filter takes its window scheme
    // and its entities from them, so it cuts spans where the scorer does.
    let prepared = Slim::new(opts.config)?.prepare(&left_ds, &right_ds);
    let output = match &opts.lsh {
        Some(lsh_cfg) => {
            log("building LSH signatures");
            let filter =
                slim_lsh::LshFilter::for_prepared(*lsh_cfg, &left_ds, &right_ds, &prepared);
            let candidates = filter.candidates();
            log(&format!(
                "LSH: {} candidate pairs of {} possible",
                candidates.len(),
                left_ds.num_entities() * right_ds.num_entities()
            ));
            prepared.link_with_candidates(&candidates)
        }
        None => prepared.link(),
    };

    let summary = format!(
        "{} links ({} matched, {} positive edges, {} pairs scored) in {:.2?}\n",
        output.links.len(),
        output.matching.len(),
        output.num_edges,
        output.stats.scored_entity_pairs,
        output.elapsed
    );
    finish(summary, &output, opts)
}

/// The tail both modes share: the stop-threshold line, then the links
/// CSV, written to `--out` or appended to the summary.
fn finish(
    mut summary: String,
    output: &slim_core::LinkageOutput,
    opts: &CliOptions,
) -> Result<String, String> {
    use slim_core::io::write_links_csv;
    if let Some(t) = &output.threshold {
        summary.push_str(&format!(
            "stop threshold {:.2} (expected precision {:.3}, recall {:.3})\n",
            t.threshold, t.expected_precision, t.expected_recall
        ));
    }
    match &opts.out {
        Some(path) => {
            let file = std::fs::File::create(path)
                .map_err(|e| format!("creating {}: {e}", path.display()))?;
            write_links_csv(std::io::BufWriter::new(file), &output.links)
                .map_err(|e| e.to_string())?;
            summary.push_str(&format!("links written to {}\n", path.display()));
        }
        None => {
            let mut buf = Vec::new();
            write_links_csv(&mut buf, &output.links).map_err(|e| e.to_string())?;
            summary.push_str(&String::from_utf8_lossy(&buf));
        }
    }
    Ok(summary)
}

/// The `--metrics-*` snapshot sink: every snapshot becomes one flat
/// JSONL line (stderr or `--metrics-file`) and, when `--metrics-addr`
/// is live, republishes the scrape page — one serialization path for
/// both faces of the same snapshot.
struct CliMetricsSink {
    out: Option<Box<dyn std::io::Write + Send>>,
    page: Option<slim_telemetry::PublishedPage>,
}

impl slim_telemetry::SnapshotSink for CliMetricsSink {
    fn emit(&mut self, snapshot: &slim_telemetry::Snapshot) {
        use std::io::Write;
        if let Some(w) = &mut self.out {
            // Line-at-a-time with an explicit flush: a tailing consumer
            // (or a crashed run's post-mortem) only ever sees whole
            // JSONL lines.
            let _ = writeln!(w, "{}", snapshot.to_jsonl());
            let _ = w.flush();
        }
        if let Some(page) = &self.page {
            page.publish(snapshot.to_exposition());
        }
    }
}

/// Streaming mode: builds the configured ingestion front-end (CSV
/// replay, live TCP feed, or synthetic workload), lets the engine drain
/// it through the bounded backpressured channel with the configured
/// tick policy, and closes with the exact finalized link set.
fn run_stream(
    opts: &CliOptions,
    stream_opts: &StreamOptions,
    datasets: Option<(&slim_core::LocationDataset, &slim_core::LocationDataset)>,
) -> Result<String, String> {
    use slim_core::LocationDataset;
    use slim_stream::source::{SyntheticSource, TcpLineSource};
    use slim_stream::{
        batch_equivalent_origin, merge_datasets, DriveOptions, LinkUpdate, StreamConfig,
        StreamEngine, StreamLshConfig, TickPolicy,
    };

    let log = |msg: &str| {
        if opts.verbose {
            eprintln!("[slim-link] {msg}");
        }
    };

    let lsh = opts.lsh.map(|base| {
        // The ring must cover the sliding window; widen `spans` to fit.
        // A zero step is left for StreamConfig::validate to reject with
        // a proper error rather than dividing by it here.
        let spans = match (stream_opts.window_capacity, base.step_windows) {
            (Some(w), step) if step > 0 => {
                (w.div_ceil(step) as usize).max(StreamLshConfig::default().spans)
            }
            _ => StreamLshConfig::default().spans,
        };
        StreamLshConfig { base, spans }
    });
    let cfg = StreamConfig {
        slim: opts.config,
        window_capacity: stream_opts.window_capacity,
        refresh_every: stream_opts.refresh_every,
        num_shards: stream_opts.num_shards,
        num_workers: stream_opts.num_workers,
        lsh,
        ..StreamConfig::default()
    };
    let drive_opts = DriveOptions {
        queue_cap: stream_opts.queue_cap,
        source_batch: stream_opts.batch_size.max(1),
        tick_policy: stream_opts
            .tick_policy
            .unwrap_or(TickPolicy::EveryN(stream_opts.refresh_every)),
        max_lag_secs: stream_opts.max_lag_secs,
        metrics_every: stream_opts.metrics_every,
        idle_timeout_secs: stream_opts.idle_timeout_secs,
    };

    /// Which entry to the drive loop the configured front-end takes:
    /// one (replayable) source, or a multi-connection tier.
    enum FrontEnd {
        Single(Box<dyn slim_stream::StreamSource + Send>),
        FanIn(slim_stream::TcpIngestTier),
    }

    // The engine. A recovered one restores its origin, counters and link
    // state from the newest valid checkpoint. Replay-style sources know
    // their data up front, so a fresh engine's window origin is pinned to
    // what the batch pipeline would use — an unbounded replay then
    // finalizes bit-identically even when the earliest record belongs to
    // a sparse entity the min-records filter drops. A live TCP feed
    // cannot be pinned; its origin is the first event.
    let open_engine = |pinned: Option<(&LocationDataset, &LocationDataset)>| {
        if opts.recover {
            let dir = opts.checkpoint_dir.as_ref();
            return StreamEngine::recover(cfg, dir.ok_or("--recover requires --checkpoint-dir")?);
        }
        let min_records = opts.config.min_records;
        match pinned.and_then(|(l, r)| batch_equivalent_origin(l, r, min_records)) {
            Some(origin) => StreamEngine::with_origin(cfg, origin),
            None => StreamEngine::new(cfg),
        }
    };
    let (mut engine, source): (StreamEngine, FrontEnd) = match stream_opts.source {
        SourceKind::Csv => {
            let (left_ds, right_ds) = datasets.expect("csv streams load datasets first");
            let engine = open_engine(Some((left_ds, right_ds)))?;
            let source = SyntheticSource::from_events(merge_datasets(left_ds, right_ds));
            log(&format!("replaying {} events", source.events().len()));
            (engine, FrontEnd::Single(Box::new(source)))
        }
        SourceKind::Tcp => {
            let addr = opts.tcp_addr.as_deref().expect("validated by parse_args");
            if stream_opts.connections > 0 {
                // Multi-connection mode: the address is where *we*
                // listen; exactly `connections` clients dial in and
                // are merged through the watermark frontier.
                let tier = slim_stream::TcpIngestTier::bind(
                    addr,
                    stream_opts.wire,
                    stream_opts.connections,
                )?;
                log(&format!(
                    "listening at {} for {} feed connections ({} wire)",
                    tier.local_addr()?,
                    tier.connections(),
                    stream_opts.wire.label()
                ));
                (StreamEngine::new(cfg)?, FrontEnd::FanIn(tier))
            } else {
                log(&format!(
                    "tailing live feed at {addr} ({} wire)",
                    stream_opts.wire.label()
                ));
                (
                    open_engine(None)?,
                    FrontEnd::Single(Box::new(TcpLineSource::connect_with(
                        addr,
                        stream_opts.wire,
                    )?)),
                )
            }
        }
        SourceKind::Synthetic => {
            let scenario = slim_datagen::Scenario::cab(
                stream_opts.synthetic_scale,
                stream_opts.synthetic_seed,
            );
            let synthetic_sample = scenario.sample(0.5, stream_opts.synthetic_seed);
            let engine = open_engine(Some((&synthetic_sample.left, &synthetic_sample.right)))?;
            let events = merge_datasets(&synthetic_sample.left, &synthetic_sample.right);
            let (n, rate) = (events.len(), stream_opts.rate);
            let mut source = SyntheticSource::from_events(events);
            if rate > 0.0 {
                source = source.with_rate(rate);
                log(&format!("feeding {n} synthetic events at {rate} events/s"));
            } else {
                log(&format!("feeding {n} synthetic events"));
            }
            (engine, FrontEnd::Single(Box::new(source)))
        }
    };

    if opts.recover {
        let s = engine.stats();
        log(&format!(
            "recovered {} events, {} links, epoch {} ({} corrupt checkpoint file(s) skipped)",
            s.events,
            engine.links().len(),
            s.snapshots_published,
            s.checkpoints_rejected
        ));
    }
    if let Some(dir) = &opts.checkpoint_dir {
        if stream_opts.checkpoint_every > 0 {
            engine.set_checkpoint_policy(
                dir.clone(),
                stream_opts.checkpoint_every,
                stream_opts.checkpoint_keep,
            );
            log(&format!(
                "checkpointing every {} events into {} (keep {})",
                stream_opts.checkpoint_every,
                dir.display(),
                stream_opts.checkpoint_keep
            ));
        }
    }

    // Telemetry outputs. The scrape endpoint binds before the drive so
    // it serves throughout; publishing the zeroed pre-drive snapshot
    // means an early scrape reads a valid exposition page rather than
    // an empty body.
    let metrics_server = match &opts.metrics_addr {
        Some(addr) => {
            let server = slim_telemetry::MetricsServer::bind(addr)?;
            log(&format!(
                "serving metrics at http://{}/metrics",
                server.local_addr()
            ));
            server.handle().publish(engine.snapshot().to_exposition());
            Some(server)
        }
        None => None,
    };
    // The link-query endpoint also binds before the drive: clients can
    // connect and query mid-ingest, reading whatever epoch the tick
    // barriers have published so far (epoch 0 — empty — until the
    // first tick).
    let link_server = match &opts.serve_addr {
        Some(addr) => {
            let server = slim_stream::LinkQueryServer::bind(addr, engine.epoch_pointer())?;
            log(&format!("serving link queries at {}", server.local_addr()));
            Some(server)
        }
        None => None,
    };
    let metrics_on =
        stream_opts.metrics_every > 0 || opts.metrics_file.is_some() || metrics_server.is_some();
    if metrics_on {
        let out: Option<Box<dyn std::io::Write + Send>> = match &opts.metrics_file {
            Some(path) => Some(Box::new(std::io::BufWriter::new(
                std::fs::File::create(path)
                    .map_err(|e| format!("creating {}: {e}", path.display()))?,
            ))),
            // Periodic snapshots without a file go to stderr; an
            // address alone only feeds the scrape page.
            None if stream_opts.metrics_every > 0 => Some(Box::new(std::io::stderr())),
            None => None,
        };
        engine.set_metrics_sink(Box::new(CliMetricsSink {
            out,
            page: metrics_server.as_ref().map(|s| s.handle()),
        }));
    }

    let start = std::time::Instant::now();
    let report = match source {
        FrontEnd::Single(source) => engine.drive(source, &drive_opts)?,
        FrontEnd::FanIn(tier) => engine.drive_fan_in(tier, &drive_opts)?,
    };
    let replay_elapsed = start.elapsed();
    // Tear the query endpoint down (joining its handler threads) and
    // fold its counters into the engine before the summary snapshot.
    if let Some(server) = link_server {
        let serve_report = server.report();
        drop(server);
        engine.absorb_serve_report(serve_report.queries_served, &serve_report.query_latency);
    }
    let (mut added, mut removed, mut reweighted) = (0usize, 0usize, 0usize);
    for update in &report.updates {
        match update {
            LinkUpdate::Added(_) => added += 1,
            LinkUpdate::Removed(_) => removed += 1,
            LinkUpdate::Reweighted { .. } => reweighted += 1,
        }
    }
    let stats = *engine.stats();
    let num_shards = engine.num_shards();
    let num_workers = engine.num_workers();
    log(&format!(
        "drained in {replay_elapsed:.2?} on {num_shards} shard(s): {} ticks, \
         {} rescored (pair, window) terms ({} of {} tick-time cached pairs visited, \
         {} retired), {} edge patches, matching region {} edges, {} warm EM iters, \
         {} windows expired, {} late events dropped",
        stats.ticks,
        stats.rescored_windows,
        stats.dirty_pairs_visited,
        stats.cached_pairs_at_ticks,
        stats.retired_pairs,
        stats.edges_patched,
        stats.matching_region_size,
        stats.em_warm_iters,
        stats.evicted_windows,
        stats.late_dropped
    ));

    if metrics_on {
        // The final snapshot closes the JSONL stream (and the scrape
        // page) with exactly the counters the summary prints below.
        engine.emit_snapshot();
    }
    let ms = |ns: u64| ns as f64 / 1e6;
    let span_digest = {
        let parts: Vec<String> = engine
            .phase_histograms()
            .into_iter()
            .filter(|(name, h)| h.count() > 0 && *name != "score_kernel_ns")
            .map(|(name, h)| {
                format!(
                    "{} {:.2}/{:.2}/{:.2}",
                    name.trim_start_matches("phase."),
                    ms(h.p50()),
                    ms(h.p95()),
                    ms(h.max())
                )
            })
            .collect();
        if parts.is_empty() {
            "none".to_string()
        } else {
            parts.join(", ")
        }
    };
    let latency = engine.event_latency_histogram();
    let query_latency = engine.query_latency_histogram();
    let ckpt_write = engine.checkpoint_write_histogram();
    // The scoring kernel is reported in ns/window, not in the ms span
    // digest: its spans are per (pair, window) contribution.
    let kernel = engine.score_kernel_histogram();
    let kernel_mean_ns = if kernel.count() > 0 {
        kernel.sum() as f64 / kernel.count() as f64
    } else {
        0.0
    };

    let output = engine.finalize()?;
    let events_per_sec = if replay_elapsed.as_secs_f64() > 0.0 {
        stats.events as f64 / replay_elapsed.as_secs_f64()
    } else {
        0.0
    };
    let summary = format!(
        "stream: {} events via {} source at {:.0} events/s, {} ticks \
         ({added} added / {removed} removed / {reweighted} reweighted updates)\n\
         ingest: queue high-watermark {} of {}, producer blocked {:.2} ms, \
         {} late events, {} source stalls\n\
         conns: {} connections served, {} malformed lines skipped, \
         {} idle evictions\n\
         serve: {} epochs published, {} link queries answered, \
         query p50/p95 {:.2}/{:.2} ms\n\
         ckpt: {} checkpoints written ({} bytes), {} rejected at recovery, \
         write p50/p95 {:.2}/{:.2} ms\n\
         pool: {} shards on {} workers, {} chunk steals, \
         worker busy max/min {:.2}/{:.2} ms\n\
         ticks: {} of {} cached pairs visited, {} retired, {} edges patched, \
         matching region {} edges, {} warm EM iters\n\
         spans (ms p50/p95/max): {span_digest}\n\
         kernel: {kernel_mean_ns:.0} ns/window mean over {} rescored windows \
         (p50/p95 {}/{} ns)\n\
         latency: admit→serve p50/p95/max {:.2}/{:.2}/{:.2} ms over {} events\n\
         {} links ({} matched, {} positive edges, {} pairs scored) at finalization in {:.2?}\n",
        stats.events,
        stream_opts.source.label(),
        events_per_sec,
        stats.ticks,
        report.queue_high_watermark,
        stream_opts.queue_cap,
        report.blocked_producer_ns as f64 / 1e6,
        report.late_events,
        report.source_stalls,
        stats.connections_served,
        stats.malformed_lines,
        stats.idle_evictions,
        stats.snapshots_published,
        stats.queries_served,
        ms(query_latency.p50()),
        ms(query_latency.p95()),
        stats.checkpoints_written,
        stats.checkpoint_bytes,
        stats.checkpoints_rejected,
        ms(ckpt_write.p50()),
        ms(ckpt_write.p95()),
        num_shards,
        num_workers,
        stats.steal_events,
        stats.max_worker_busy_ns as f64 / 1e6,
        stats.min_worker_busy_ns as f64 / 1e6,
        stats.dirty_pairs_visited,
        stats.cached_pairs_at_ticks,
        stats.retired_pairs,
        stats.edges_patched,
        stats.matching_region_size,
        stats.em_warm_iters,
        kernel.count(),
        kernel.p50(),
        kernel.p95(),
        ms(latency.p50()),
        ms(latency.p95()),
        ms(latency.max()),
        latency.count(),
        output.links.len(),
        output.matching.len(),
        output.num_edges,
        output.stats.scored_entity_pairs,
        output.elapsed
    );
    finish(summary, &output, opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CliOptions, String> {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_args(&v)
    }

    #[test]
    fn parses_positional_paths() {
        let o = parse(&["a.csv", "b.csv"]).unwrap();
        assert_eq!(o.left.unwrap().to_str().unwrap(), "a.csv");
        assert_eq!(o.right.unwrap().to_str().unwrap(), "b.csv");
        assert!(o.lsh.is_none());
    }

    #[test]
    fn parses_config_flags() {
        let o = parse(&[
            "a.csv",
            "b.csv",
            "--window-mins",
            "30",
            "--level",
            "14",
            "--b",
            "0.7",
            "--speed-kmh",
            "90",
            "--threshold",
            "otsu",
            "--exact-matching",
        ])
        .unwrap();
        assert_eq!(o.config.window_width_secs, 1800);
        assert_eq!(o.config.spatial_level, 14);
        assert!((o.config.b - 0.7).abs() < 1e-12);
        assert!((o.config.max_speed_m_per_s - 25.0).abs() < 1e-9);
        assert_eq!(o.config.threshold_method, ThresholdMethod::Otsu);
        assert_eq!(o.config.matching_method, MatchingMethod::HungarianExact);
    }

    #[test]
    fn lsh_flags_enable_lsh() {
        let o = parse(&["a.csv", "b.csv", "--lsh"]).unwrap();
        assert!(o.lsh.is_some());
        let o = parse(&["a.csv", "b.csv", "--lsh-step", "96"]).unwrap();
        assert_eq!(o.lsh.unwrap().step_windows, 96);
    }

    #[test]
    fn missing_paths_rejected() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["only_one.csv"]).is_err());
        assert!(parse(&["a.csv", "b.csv", "c.csv"]).is_err());
    }

    #[test]
    fn unknown_flags_rejected() {
        let err = parse(&["a.csv", "b.csv", "--frobnicate"]).unwrap_err();
        assert!(err.contains("unknown option"));
    }

    #[test]
    fn invalid_config_rejected_at_parse_time() {
        let err = parse(&["a.csv", "b.csv", "--b", "3.0"]).unwrap_err();
        assert!(err.contains("outside"), "{err}");
        // Values the library would panic on, wrap, or silently accept.
        for bad in [
            &["--lsh-step", "0"][..],
            &["--lsh-threshold", "0"],
            &["--lsh-threshold", "1.5"],
            &["--lsh-threshold", "nan"],
            &["--lsh-level", "40"],
            &["--stream", "--lsh-level", "40"],
            &["--speed-kmh", "nan"],
            &["--window-mins", "153722867280912931"],
        ] {
            let args = [&["a.csv", "b.csv"][..], bad].concat();
            assert!(parse(&args).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn help_returns_usage() {
        let err = parse(&["--help"]).unwrap_err();
        assert!(err.contains("USAGE"));
    }

    #[test]
    fn demo_mode_needs_no_paths() {
        let o = parse(&["--demo", "/tmp/slim-demo"]).unwrap();
        assert!(o.demo.is_some());
        assert!(o.left.is_none());
        assert!(parse(&["a.csv", "--demo", "/tmp/x"]).is_err());
    }

    /// Audit: every `[default: …]` in the USAGE text must match the
    /// actual `Default` impls, so the docs can never drift from the code.
    #[test]
    fn usage_defaults_match_default_impls() {
        let slim = SlimConfig::default();
        let lsh = slim_lsh::LshConfig::default();
        let stream = StreamOptions::default();
        let documented = [
            ("--window-mins", format!("{}", slim.window_width_secs / 60)),
            ("--level", format!("{}", slim.spatial_level)),
            ("--b", format!("{}", slim.b)),
            (
                "--speed-kmh",
                format!("{}", slim.max_speed_m_per_s * 3600.0 / 1000.0),
            ),
            ("--lsh-threshold", format!("{}", lsh.threshold)),
            ("--lsh-step", format!("{}", lsh.step_windows)),
            ("--lsh-level", format!("{}", lsh.spatial_level)),
            ("--buckets", format!("{}", lsh.num_buckets)),
            (
                "--stream-window",
                format!("{}", stream.window_capacity.unwrap_or(0)),
            ),
            ("--refresh-every", format!("{}", stream.refresh_every)),
            ("--batch-size", format!("{}", stream.batch_size)),
            ("--shards", format!("{}", stream.num_shards)),
            ("--workers", format!("{}", stream.num_workers)),
            ("--metrics-every", format!("{}", stream.metrics_every)),
            ("--connections", format!("{}", stream.connections)),
            ("--idle-timeout", format!("{}", stream.idle_timeout_secs)),
            ("--checkpoint-every", format!("{}", stream.checkpoint_every)),
            ("--checkpoint-keep", format!("{}", stream.checkpoint_keep)),
        ];
        for (flag, value) in documented {
            // The flag's doc entry spans from its line to the next flag.
            let start = USAGE
                .find(&format!("\n    {flag} "))
                .unwrap_or_else(|| panic!("{flag} missing from USAGE"));
            let entry = &USAGE[start + 1..];
            let entry = &entry[..entry.find("\n    --").unwrap_or(entry.len())];
            let default = entry
                .rsplit_once("[default: ")
                .and_then(|(_, rest)| rest.split_once(']').map(|(v, _)| v))
                .unwrap_or_else(|| panic!("{flag} entry has no [default: …]: {entry}"));
            // Compare numerically: unit conversions (e.g. m/s → km/h)
            // may carry float noise the docs rightly round away.
            let (doc, code) = (
                default.parse::<f64>().unwrap_or(f64::NAN),
                value.parse::<f64>().unwrap_or(f64::NAN),
            );
            assert!(
                (doc - code).abs() <= 1e-9 * doc.abs().max(1.0),
                "{flag} documents `{default}`, code says `{value}`"
            );
        }
        // The threshold method default is symbolic.
        assert_eq!(slim.threshold_method, ThresholdMethod::GmmExpectedF1);
        assert!(USAGE
            .contains("--threshold METHOD   gmm | otsu | 2means | none         [default: gmm]"));
        // Parsing no flags must yield exactly the documented defaults.
        let parsed = parse(&["a.csv", "b.csv"]).unwrap();
        assert_eq!(parsed.config, slim);
    }

    #[test]
    fn stream_flags_parse() {
        let o = parse(&["a.csv", "b.csv", "--stream"]).unwrap();
        assert_eq!(o.stream, Some(StreamOptions::default()));
        let o = parse(&[
            "a.csv",
            "b.csv",
            "--stream-window",
            "96",
            "--refresh-every",
            "500",
        ])
        .unwrap();
        let s = o.stream.unwrap();
        assert_eq!(s.window_capacity, Some(96));
        assert_eq!(s.refresh_every, 500);
        // --stream-window 0 means unbounded.
        let o = parse(&["a.csv", "b.csv", "--stream", "--stream-window", "0"]).unwrap();
        assert_eq!(o.stream.unwrap().window_capacity, None);
        let o = parse(&["a.csv", "b.csv", "--batch-size", "1024"]).unwrap();
        assert_eq!(o.stream.unwrap().batch_size, 1024);
        assert!(parse(&["a.csv", "b.csv", "--batch-size", "0"]).is_err());
        // --shards implies --stream; 0 means one shard per core.
        let o = parse(&["a.csv", "b.csv", "--shards", "4"]).unwrap();
        assert_eq!(o.stream.unwrap().num_shards, 4);
        assert!(parse(&["a.csv", "b.csv", "--shards", "x"]).is_err());
        // --workers is decoupled from --shards and also implies --stream.
        let o = parse(&["a.csv", "b.csv", "--shards", "8", "--workers", "4"]).unwrap();
        let s = o.stream.unwrap();
        assert_eq!((s.num_shards, s.num_workers), (8, 4));
        assert!(parse(&["a.csv", "b.csv", "--workers", "x"]).is_err());
        // Both are bounded at parse time; nothing is spawned to find out.
        for flag in ["--shards", "--workers"] {
            let err = parse(&["a.csv", "b.csv", "--stream", flag, "5000"]).unwrap_err();
            assert!(err.contains("must be at most 1024"), "{flag}: {err}");
            assert!(parse(&["a.csv", "b.csv", flag, "1024"]).is_ok(), "{flag}");
        }
        assert!(parse(&["--demo", "/tmp/x", "--stream"]).is_err());
    }

    #[test]
    fn metrics_flags_parse() {
        // Each metrics flag implies --stream, like the other streaming
        // knobs.
        let o = parse(&["a.csv", "b.csv", "--metrics-every", "500"]).unwrap();
        assert_eq!(o.stream.unwrap().metrics_every, 500);
        let o = parse(&["a.csv", "b.csv", "--metrics-file", "/tmp/m.jsonl"]).unwrap();
        assert!(o.stream.is_some());
        assert_eq!(o.metrics_file.unwrap().to_str().unwrap(), "/tmp/m.jsonl");
        let o = parse(&["a.csv", "b.csv", "--metrics-addr", "127.0.0.1:0"]).unwrap();
        assert!(o.stream.is_some());
        assert_eq!(o.metrics_addr.as_deref(), Some("127.0.0.1:0"));
        // --serve implies --stream the same way.
        let o = parse(&["a.csv", "b.csv", "--serve", "127.0.0.1:0"]).unwrap();
        assert!(o.stream.is_some());
        assert_eq!(o.serve_addr.as_deref(), Some("127.0.0.1:0"));
        assert!(parse(&["a.csv", "b.csv", "--serve"]).is_err());
        assert!(parse(&["a.csv", "b.csv", "--metrics-every", "x"]).is_err());
        assert!(parse(&["a.csv", "b.csv", "--metrics-every"]).is_err());
    }

    #[test]
    fn stream_replay_end_to_end_matches_batch() {
        // Generate a demo pair, then link it both ways: the unbounded
        // streaming replay must produce the same links CSV as batch.
        let dir = std::env::temp_dir().join("slim_cli_stream_test");
        let _ = std::fs::remove_dir_all(&dir);
        let batch_out = dir.join("batch.csv");
        let opts = CliOptions {
            demo: Some(dir.clone()),
            out: Some(batch_out.clone()),
            ..CliOptions::default()
        };
        run(&opts).unwrap();

        let stream_out = dir.join("stream.csv");
        let opts = CliOptions {
            left: Some(dir.join("left.csv")),
            right: Some(dir.join("right.csv")),
            stream: Some(StreamOptions {
                refresh_every: 2_000,
                // An explicit multi-shard, multi-worker run must still
                // match batch output byte for byte.
                num_shards: 3,
                num_workers: 2,
                ..StreamOptions::default()
            }),
            out: Some(stream_out.clone()),
            ..CliOptions::default()
        };
        let summary = run(&opts).unwrap();
        assert!(summary.contains("stream:"), "{summary}");
        // The incremental-maintenance and pool counters are part of the
        // summary.
        for needle in [
            "edges patched",
            "conns:",
            "matching region",
            "warm EM iters",
            "chunk steals",
            "worker busy max/min",
            "spans (ms p50/p95/max)",
            "ns/window mean over",
            "latency: admit→serve",
        ] {
            assert!(summary.contains(needle), "missing `{needle}`: {summary}");
        }
        let batch_links = std::fs::read_to_string(&batch_out).unwrap();
        let stream_links = std::fs::read_to_string(&stream_out).unwrap();
        assert_eq!(batch_links, stream_links, "stream/batch equivalence");

        // A zero LSH step with a sliding window must surface the config
        // error, not a divide-by-zero panic in the spans computation.
        let bad = CliOptions {
            left: Some(dir.join("left.csv")),
            right: Some(dir.join("right.csv")),
            stream: Some(StreamOptions {
                window_capacity: Some(96),
                ..StreamOptions::default()
            }),
            lsh: Some(slim_lsh::LshConfig {
                step_windows: 0,
                ..slim_lsh::LshConfig::default()
            }),
            ..CliOptions::default()
        };
        let err = run(&bad).unwrap_err();
        assert!(err.contains("step_windows"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `--checkpoint-dir` + `--checkpoint-every` write recoverable
    /// checkpoints during a CSV replay, and a `--recover` run over the
    /// same datasets resumes from the newest one and produces the
    /// byte-identical links CSV and the same summary counters as the
    /// uninterrupted run — the CLI face of the crash-recovery contract.
    #[test]
    fn stream_checkpoint_and_recover_match_the_unbroken_run() {
        let dir = std::env::temp_dir().join("slim_cli_ckpt_test");
        let _ = std::fs::remove_dir_all(&dir);
        let opts = CliOptions {
            demo: Some(dir.clone()),
            out: Some(dir.join("demo.csv")),
            ..CliOptions::default()
        };
        run(&opts).unwrap();

        let ckpt_dir = dir.join("ckpts");
        let stream_opts = StreamOptions {
            refresh_every: 2_000,
            num_shards: 2,
            num_workers: 2,
            checkpoint_every: 500,
            ..StreamOptions::default()
        };
        let unbroken_out = dir.join("unbroken.csv");
        let opts = CliOptions {
            left: Some(dir.join("left.csv")),
            right: Some(dir.join("right.csv")),
            stream: Some(stream_opts),
            checkpoint_dir: Some(ckpt_dir.clone()),
            out: Some(unbroken_out.clone()),
            ..CliOptions::default()
        };
        let unbroken_summary = run(&opts).unwrap();
        assert!(unbroken_summary.contains("ckpt:"), "{unbroken_summary}");
        assert!(
            !unbroken_summary.contains("ckpt: 0 checkpoints"),
            "no checkpoints were written:\n{unbroken_summary}"
        );
        let files: Vec<_> = std::fs::read_dir(&ckpt_dir)
            .expect("checkpoint dir exists")
            .filter_map(|e| e.ok())
            .collect();
        assert!(
            !files.is_empty() && files.len() <= 2,
            "retention keeps at most --checkpoint-keep files, found {}",
            files.len()
        );

        // "Crash" after the newest checkpoint: recover and replay the
        // same datasets — the already-consumed prefix is skipped and
        // the run finishes exactly like the unbroken one.
        let recovered_out = dir.join("recovered.csv");
        let opts = CliOptions {
            recover: true,
            out: Some(recovered_out.clone()),
            ..opts
        };
        let recovered_summary = run(&opts).unwrap();
        let unbroken_links = std::fs::read_to_string(&unbroken_out).unwrap();
        let recovered_links = std::fs::read_to_string(&recovered_out).unwrap();
        assert_eq!(unbroken_links, recovered_links, "recovered links diverged");
        // The headline counters agree: total events (prefix included)
        // and ticks. The update counts rightly differ — a recovered
        // run's report covers only the post-recovery deltas — and the
        // events/s rate is wall-clock.
        let head = |summary: &str| {
            let line = summary.lines().next().expect("summary line");
            let (events, rest) = line.split_once(" at ").expect("rate");
            let ticks = rest
                .split_once(", ")
                .and_then(|(_, t)| t.split_once(" ("))
                .expect("ticks")
                .0;
            (events.to_string(), ticks.to_string())
        };
        assert_eq!(
            head(&unbroken_summary),
            head(&recovered_summary),
            "recovered stream counters diverged"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_flags_parse() {
        let o = parse(&[
            "a.csv",
            "b.csv",
            "--checkpoint-dir",
            "/tmp/ck",
            "--checkpoint-every",
            "5000",
            "--checkpoint-keep",
            "3",
        ])
        .unwrap();
        assert!(o.stream.is_some(), "--checkpoint-dir implies --stream");
        assert_eq!(
            o.checkpoint_dir.as_deref(),
            Some(std::path::Path::new("/tmp/ck"))
        );
        let s = o.stream.unwrap();
        assert_eq!((s.checkpoint_every, s.checkpoint_keep), (5000, 3));
        assert!(!o.recover);
        let o = parse(&["a.csv", "b.csv", "--checkpoint-dir", "/tmp/ck", "--recover"]).unwrap();
        assert!(o.recover);
        // Cadence and recovery both need a directory; keep must be
        // positive; a multi-connection tier is not replayable, so it
        // cannot checkpoint.
        assert!(parse(&["a.csv", "b.csv", "--checkpoint-every", "100"]).is_err());
        assert!(parse(&["a.csv", "b.csv", "--recover"]).is_err());
        assert!(parse(&[
            "a.csv",
            "b.csv",
            "--checkpoint-dir",
            "/tmp/ck",
            "--checkpoint-keep",
            "0"
        ])
        .is_err());
        assert!(parse(&[
            "127.0.0.1:0",
            "--source",
            "tcp",
            "--connections",
            "2",
            "--checkpoint-dir",
            "/tmp/ck"
        ])
        .is_err());
    }

    #[test]
    fn ingest_flags_parse() {
        // --source implies --stream; tcp repurposes the positional
        // argument as the feed address.
        let o = parse(&["--source", "tcp", "127.0.0.1:4455"]).unwrap();
        assert_eq!(o.stream.unwrap().source, SourceKind::Tcp);
        assert_eq!(o.tcp_addr.as_deref(), Some("127.0.0.1:4455"));
        assert!(parse(&["--source", "tcp"]).is_err(), "tcp needs an addr");
        assert!(parse(&["--source", "tcp", "a", "b"]).is_err());
        // synthetic takes no paths at all.
        let o = parse(&["--source", "synthetic", "--rate", "50000"]).unwrap();
        let s = o.stream.unwrap();
        assert_eq!(s.source, SourceKind::Synthetic);
        assert!((s.rate - 50_000.0).abs() < 1e-9);
        assert!(parse(&["--source", "synthetic", "x.csv"]).is_err());
        assert!(parse(&["--source", "carrier-pigeon", "a", "b"]).is_err());
        // Tick policies parse into the pump's enum.
        let o = parse(&["a.csv", "b.csv", "--tick-policy", "every:500"]).unwrap();
        assert_eq!(o.stream.unwrap().tick_policy, Some(TickPolicy::EveryN(500)));
        let o = parse(&["a.csv", "b.csv", "--tick-policy", "event-time:3600"]).unwrap();
        assert_eq!(
            o.stream.unwrap().tick_policy,
            Some(TickPolicy::EventTime {
                interval_secs: 3600
            })
        );
        let o = parse(&["a.csv", "b.csv", "--tick-policy", "watermark:900"]).unwrap();
        assert_eq!(
            o.stream.unwrap().tick_policy,
            Some(TickPolicy::Watermark { max_lag_secs: 900 })
        );
        for bad in [
            "nonsense",
            "every:x",
            "event-time:0",
            "event-time:-5",
            "watermark:-1",
            "cron:*",
        ] {
            assert!(
                parse(&["a.csv", "b.csv", "--tick-policy", bad]).is_err(),
                "`{bad}` must be rejected"
            );
        }
        // Queue capacity and synthetic knobs.
        let o = parse(&["a.csv", "b.csv", "--queue-cap", "128"]).unwrap();
        assert_eq!(o.stream.unwrap().queue_cap, 128);
        assert!(parse(&["a.csv", "b.csv", "--queue-cap", "0"]).is_err());
        assert!(parse(&["a.csv", "b.csv", "--rate", "-1"]).is_err());
        let o = parse(&["--source", "synthetic", "--synthetic-scale", "0.2"]).unwrap();
        assert!((o.stream.unwrap().synthetic_scale - 0.2).abs() < 1e-12);
        assert!(parse(&["--source", "synthetic", "--synthetic-scale", "9"]).is_err());
        let o = parse(&["--source", "synthetic", "--synthetic-seed", "7"]).unwrap();
        assert_eq!(o.stream.unwrap().synthetic_seed, 7);
        // Reorder tolerance decoupled from the tick policy.
        let o = parse(&["a.csv", "b.csv", "--max-lag", "900"]).unwrap();
        assert_eq!(o.stream.unwrap().max_lag_secs, 900);
        assert!(parse(&["a.csv", "b.csv", "--max-lag", "-1"]).is_err());
        // The tcp wire format.
        let o = parse(&["--source", "tcp", "127.0.0.1:4455", "--wire", "jsonl"]).unwrap();
        assert_eq!(o.stream.unwrap().wire, slim_stream::WireFormat::Jsonl);
        assert!(parse(&["a.csv", "b.csv", "--wire", "xml"]).is_err());
    }

    /// The new ingest flags' documented defaults must match
    /// `StreamOptions::default()` — same drift guard as the original
    /// audit, for the front-end knobs.
    #[test]
    fn usage_defaults_cover_ingest_flags() {
        let stream = StreamOptions::default();
        assert!(
            USAGE.contains("--source MODE") && USAGE.contains("[default: csv]"),
            "source mode default undocumented"
        );
        assert_eq!(stream.source, SourceKind::Csv);
        assert!(USAGE.contains(&format!("[default: every:{}]", stream.refresh_every)));
        assert_eq!(
            stream.tick_policy, None,
            "default policy is every:refresh_every"
        );
        assert!(USAGE.contains(&format!("[default: {}]", stream.queue_cap)));
        assert!(USAGE.contains("--max-lag SECS"));
        assert_eq!(stream.max_lag_secs, 0);
        assert!(USAGE.contains(&format!("[default: {}]", stream.synthetic_seed)));
        assert!(USAGE.contains(&format!("[default: {}]", stream.synthetic_scale)));
        assert_eq!(stream.rate, 0.0);
        // The tcp wire format defaults to the CSV line wire.
        assert!(USAGE.contains("--wire FORMAT"));
        assert_eq!(stream.wire, slim_stream::WireFormat::Csv);
        // Multi-connection mode is opt-in; idle eviction is opt-in.
        assert!(USAGE.contains("--connections N"));
        assert_eq!(stream.connections, 0);
        assert!(USAGE.contains("--idle-timeout SECS"));
        assert_eq!(stream.idle_timeout_secs, 0);
    }

    #[test]
    fn connection_flags_parse() {
        // --connections implies --stream; only the tcp source listens.
        let o = parse(&["--source", "tcp", "127.0.0.1:0", "--connections", "8"]).unwrap();
        assert_eq!(o.stream.unwrap().connections, 8);
        let o = parse(&[
            "--source",
            "tcp",
            "127.0.0.1:0",
            "--connections",
            "4",
            "--idle-timeout",
            "30",
        ])
        .unwrap();
        let s = o.stream.unwrap();
        assert_eq!((s.connections, s.idle_timeout_secs), (4, 30));
        assert!(parse(&["--source", "tcp", "x:1", "--connections", "nope"]).is_err());
        assert!(parse(&["--source", "tcp", "x:1", "--idle-timeout", "-3"]).is_err());
        // A fan-in over a CSV replay makes no sense.
        let err = parse(&["a.csv", "b.csv", "--connections", "4"]).unwrap_err();
        assert!(err.contains("requires --source tcp"), "{err}");
        // Idle eviction only matters with several connections.
        let err = parse(&["--source", "tcp", "127.0.0.1:0", "--idle-timeout", "30"]).unwrap_err();
        assert!(err.contains("requires --connections"), "{err}");
    }

    /// `--source tcp` end to end over a loopback socket: a listener
    /// feeds side-tagged event lines, the CLI tails the feed to EOF,
    /// and the summary reports the source type plus the queue
    /// high-watermark and late/blocked backpressure counters.
    #[test]
    fn tcp_source_end_to_end() {
        use std::io::Write;

        let scenario = slim_datagen::Scenario::cab(0.04, 9);
        let sample = scenario.sample(0.5, 9);
        let events = slim_stream::merge_datasets(&sample.left, &sample.right);
        assert!(events.len() > 1_000, "fixture too small");

        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().unwrap().to_string();
        let feeder = std::thread::spawn(move || {
            let (conn, _) = listener.accept().expect("accept");
            let mut w = std::io::BufWriter::new(conn);
            writeln!(w, "side,entity_id,latitude,longitude,timestamp").unwrap();
            for ev in &events {
                writeln!(w, "{}", slim_stream::source::format_event_line(ev)).unwrap();
            }
            events.len()
        });

        let dir = std::env::temp_dir().join("slim_cli_tcp_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("links.csv");
        let opts = CliOptions {
            tcp_addr: Some(addr),
            stream: Some(StreamOptions {
                source: SourceKind::Tcp,
                refresh_every: 2_000,
                num_shards: 2,
                queue_cap: 512,
                ..StreamOptions::default()
            }),
            out: Some(out.clone()),
            ..CliOptions::default()
        };
        let summary = run(&opts).unwrap();
        let fed = feeder.join().expect("feeder");

        assert!(summary.contains("via tcp source"), "{summary}");
        assert!(
            summary.contains(&format!("stream: {fed} events")),
            "{summary}"
        );
        assert!(summary.contains("queue high-watermark"), "{summary}");
        assert!(summary.contains("late events"), "{summary}");
        assert!(summary.contains("producer blocked"), "{summary}");
        let links = std::fs::read_to_string(&out).unwrap();
        assert!(
            links.lines().count() > 1,
            "live feed produced no links:\n{summary}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `--source tcp --connections 3` end to end: the CLI listens, three
    /// loopback clients each deliver a round-robin slice of the demo
    /// events (one of them salted with garbage lines), the fan-in
    /// frontier merges their watermarks, and the summary's `conns:` line
    /// reports the served connection and malformed-line counts.
    #[test]
    fn multi_connection_tcp_end_to_end() {
        use std::io::Write;

        let scenario = slim_datagen::Scenario::cab(0.04, 9);
        let sample = scenario.sample(0.5, 9);
        let events = slim_stream::merge_datasets(&sample.left, &sample.right);
        assert!(events.len() > 1_000, "fixture too small");
        // A lag covering the whole event-time span makes every
        // cross-connection interleaving deterministic: nothing is late.
        let span = events.last().unwrap().time.secs() - events.first().unwrap().time.secs();

        // Reserve a port by binding :0 and releasing it; nothing else
        // in the test process binds ports in between.
        let addr = {
            let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe");
            probe.local_addr().unwrap().to_string()
        };

        let mut feeders = Vec::new();
        for conn in 0..3usize {
            let addr = addr.clone();
            let slice: Vec<slim_stream::StreamEvent> = events
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 3 == conn)
                .map(|(_, ev)| *ev)
                .collect();
            feeders.push(std::thread::spawn(move || {
                // The CLI binds after this thread starts: dial until the
                // listener is up.
                let mut stream = loop {
                    match std::net::TcpStream::connect(&addr) {
                        Ok(s) => break s,
                        Err(_) => std::thread::sleep(std::time::Duration::from_millis(5)),
                    }
                };
                let mut w = std::io::BufWriter::new(&mut stream);
                for (i, ev) in slice.iter().enumerate() {
                    if conn == 0 && i % 500 == 0 {
                        writeln!(w, "not an event at all").unwrap();
                    }
                    writeln!(w, "{}", slim_stream::source::format_event_line(ev)).unwrap();
                }
                slice.len()
            }));
        }

        let dir = std::env::temp_dir().join("slim_cli_multi_conn_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("links.csv");
        let opts = CliOptions {
            tcp_addr: Some(addr),
            stream: Some(StreamOptions {
                source: SourceKind::Tcp,
                connections: 3,
                refresh_every: 2_000,
                max_lag_secs: span + 1,
                num_shards: 2,
                queue_cap: 512,
                ..StreamOptions::default()
            }),
            out: Some(out.clone()),
            ..CliOptions::default()
        };
        let summary = run(&opts).unwrap();
        let fed: usize = feeders.into_iter().map(|f| f.join().expect("feeder")).sum();

        assert_eq!(fed, events.len());
        assert!(
            summary.contains(&format!("stream: {fed} events")),
            "every connection's events must arrive:\n{summary}"
        );
        assert!(summary.contains("via tcp source"), "{summary}");
        let garbage = events.len().div_ceil(3).div_ceil(500);
        assert!(
            summary.contains(&format!(
                "conns: 3 connections served, {garbage} malformed lines skipped, \
                 0 idle evictions"
            )),
            "{summary}"
        );
        assert!(summary.contains(" 0 late events"), "{summary}");
        let links = std::fs::read_to_string(&out).unwrap();
        assert!(
            links.lines().count() > 1,
            "fan-in feed produced no links:\n{summary}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `--metrics-every` + `--metrics-file` end to end: every line of
    /// the file parses as flat JSONL, timestamps and sequence numbers
    /// are monotonic, counters never decrease, and the final snapshot
    /// agrees with the summary counters exactly.
    #[test]
    fn metrics_jsonl_snapshots_end_to_end() {
        use slim_telemetry::{parse_flat_jsonl, JsonValue};

        let dir = std::env::temp_dir().join("slim_cli_metrics_jsonl_test");
        let _ = std::fs::remove_dir_all(&dir);
        let opts = CliOptions {
            demo: Some(dir.clone()),
            out: Some(dir.join("batch.csv")),
            ..CliOptions::default()
        };
        run(&opts).unwrap();

        let metrics = dir.join("metrics.jsonl");
        let opts = CliOptions {
            left: Some(dir.join("left.csv")),
            right: Some(dir.join("right.csv")),
            stream: Some(StreamOptions {
                refresh_every: 1_000,
                metrics_every: 500,
                // Multi-shard so the binning phase actually dispatches
                // (a single shard takes the span-free gated path).
                num_shards: 3,
                num_workers: 2,
                ..StreamOptions::default()
            }),
            metrics_file: Some(metrics.clone()),
            out: Some(dir.join("links.csv")),
            ..CliOptions::default()
        };
        let summary = run(&opts).unwrap();

        let text = std::fs::read_to_string(&metrics).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 3, "expected several snapshots:\n{text}");
        let field = |fields: &[(String, JsonValue)], name: &str| -> u64 {
            fields
                .iter()
                .find(|(n, _)| n == name)
                .and_then(|(_, v)| v.as_u64())
                .unwrap_or_else(|| panic!("snapshot missing `{name}`"))
        };
        let (mut prev_ts, mut prev_events, mut prev_ticks) = (0u64, 0u64, 0u64);
        let mut last = Vec::new();
        for (i, line) in lines.iter().enumerate() {
            let fields = parse_flat_jsonl(line).unwrap_or_else(|e| panic!("line {i}: {e}"));
            assert_eq!(field(&fields, "seq"), i as u64, "dense sequence numbers");
            let ts = field(&fields, "ts_ns");
            assert!(ts >= prev_ts, "timestamps must be monotonic");
            prev_ts = ts;
            let events = field(&fields, "events");
            let ticks = field(&fields, "ticks");
            assert!(events >= prev_events, "counters never decrease");
            assert!(ticks >= prev_ticks, "counters never decrease");
            (prev_events, prev_ticks) = (events, ticks);
            last = fields;
        }
        // The final snapshot is the summary, serialized: same event and
        // tick counts as the rendered report.
        assert!(
            summary.contains(&format!("stream: {prev_events} events")),
            "final snapshot disagrees with the summary:\n{summary}"
        );
        assert!(
            summary.contains(&format!("{prev_ticks} ticks")),
            "final snapshot disagrees with the summary:\n{summary}"
        );
        // Phase histograms ride along in flattened digest form.
        assert!(field(&last, "phase.bin.count") > 0);
        assert!(field(&last, "tick.count") >= prev_ticks);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `--metrics-addr` end to end: while the drive is provably alive
    /// (the TCP feed is held open), a raw loopback GET reads the
    /// Prometheus text exposition page — counters, summaries, and the
    /// snapshot sequence gauge.
    #[test]
    fn metrics_addr_serves_exposition() {
        use std::io::{Read, Write};

        let scenario = slim_datagen::Scenario::cab(0.04, 11);
        let sample = scenario.sample(0.5, 11);
        let events = slim_stream::merge_datasets(&sample.left, &sample.right);
        assert!(events.len() > 1_000, "fixture too small");

        let feed = std::net::TcpListener::bind("127.0.0.1:0").expect("bind feed");
        let feed_addr = feed.local_addr().unwrap().to_string();
        // Reserve a port for the scrape endpoint by binding :0 and
        // releasing it; nothing else in the test process binds ports in
        // between.
        let metrics_addr = {
            let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe");
            probe.local_addr().unwrap().to_string()
        };
        let scrape_target = metrics_addr.clone();
        let feeder = std::thread::spawn(move || {
            let (conn, _) = feed.accept().expect("accept");
            let mut w = std::io::BufWriter::new(conn);
            let half = events.len() / 2;
            for ev in &events[..half] {
                writeln!(w, "{}", slim_stream::source::format_event_line(ev)).unwrap();
            }
            w.flush().unwrap();
            // The feed stays open, so the engine (and its scrape
            // endpoint) cannot exit; poll until the server answers.
            let mut body = String::new();
            for _ in 0..400 {
                if let Ok(mut conn) = std::net::TcpStream::connect(&scrape_target) {
                    conn.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
                    let mut response = String::new();
                    if conn.read_to_string(&mut response).is_ok() {
                        if let Some(b) = response.split("\r\n\r\n").nth(1) {
                            if b.contains("slim_events") {
                                body = b.to_string();
                                break;
                            }
                        }
                    }
                }
                std::thread::sleep(std::time::Duration::from_millis(25));
            }
            for ev in &events[half..] {
                writeln!(w, "{}", slim_stream::source::format_event_line(ev)).unwrap();
            }
            body
        });

        let opts = CliOptions {
            tcp_addr: Some(feed_addr),
            metrics_addr: Some(metrics_addr),
            stream: Some(StreamOptions {
                source: SourceKind::Tcp,
                refresh_every: 1_000,
                metrics_every: 200,
                queue_cap: 65_536,
                ..StreamOptions::default()
            }),
            out: Some(std::env::temp_dir().join("slim_cli_metrics_addr_links.csv")),
            // Keep the periodic snapshots off the test's stderr.
            metrics_file: Some(std::env::temp_dir().join("slim_cli_metrics_addr_metrics.jsonl")),
            ..CliOptions::default()
        };
        let summary = run(&opts).unwrap();
        let body = feeder.join().expect("feeder");

        assert!(
            body.contains("# TYPE slim_events counter"),
            "no exposition page scraped:\n{body}"
        );
        assert!(body.contains("slim_snapshot_seq"), "{body}");
        assert!(body.contains("# TYPE slim_event_latency summary"), "{body}");
        assert!(summary.contains("spans (ms p50/p95/max)"), "{summary}");
        let _ = std::fs::remove_file(std::env::temp_dir().join("slim_cli_metrics_addr_links.csv"));
        let _ =
            std::fs::remove_file(std::env::temp_dir().join("slim_cli_metrics_addr_metrics.jsonl"));
    }

    /// `--serve` end to end: while the drive is provably alive (the
    /// TCP feed is held open after the first half of the events), a
    /// loopback client walks the query protocol against the epoch
    /// snapshots published mid-ingest, and the summary reports the
    /// folded-in serve counters.
    #[test]
    fn serve_answers_link_queries_mid_drive() {
        use std::io::{BufRead, BufReader, Write};

        let scenario = slim_datagen::Scenario::cab(0.04, 11);
        let sample = scenario.sample(0.5, 11);
        let events = slim_stream::merge_datasets(&sample.left, &sample.right);
        assert!(events.len() > 1_000, "fixture too small");

        let feed = std::net::TcpListener::bind("127.0.0.1:0").expect("bind feed");
        let feed_addr = feed.local_addr().unwrap().to_string();
        // Reserve a port for the query endpoint by binding :0 and
        // releasing it; nothing else in the test process binds ports in
        // between.
        let serve_addr = {
            let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe");
            probe.local_addr().unwrap().to_string()
        };
        let query_target = serve_addr.clone();
        let feeder = std::thread::spawn(move || {
            let (conn, _) = feed.accept().expect("accept");
            let mut w = std::io::BufWriter::new(conn);
            let half = events.len() / 2;
            for ev in &events[..half] {
                writeln!(w, "{}", slim_stream::source::format_event_line(ev)).unwrap();
            }
            w.flush().unwrap();
            // The feed stays open, so the engine (and its query
            // endpoint) cannot exit; poll until a post-tick epoch
            // answers, then walk the protocol on that connection.
            let mut observed = String::new();
            'poll: for _ in 0..400 {
                if let Ok(conn) = std::net::TcpStream::connect(&query_target) {
                    let mut r = BufReader::new(conn.try_clone().expect("clone"));
                    let mut q = conn;
                    let mut line = String::new();
                    if q.write_all(b"EPOCH\n").is_err() || r.read_line(&mut line).is_err() {
                        std::thread::sleep(std::time::Duration::from_millis(25));
                        continue;
                    }
                    let epoch: u64 = line
                        .split_whitespace()
                        .find_map(|t| t.strip_prefix("epoch=").and_then(|v| v.parse().ok()))
                        .unwrap_or(0);
                    if epoch == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(25));
                        continue;
                    }
                    q.write_all(b"THRESHOLD\nLINKS 0\n").unwrap();
                    let mut thresh = String::new();
                    r.read_line(&mut thresh).unwrap();
                    assert!(thresh.starts_with("OK "), "bad THRESHOLD reply: {thresh}");
                    let mut head = String::new();
                    r.read_line(&mut head).unwrap();
                    assert!(head.starts_with("OK "), "bad LINKS reply: {head}");
                    let rows: usize = head.trim()[3..].parse().expect("LINKS count");
                    for _ in 0..rows {
                        let mut row = String::new();
                        r.read_line(&mut row).unwrap();
                        assert_eq!(row.trim().split(',').count(), 3, "bad link row: {row}");
                    }
                    observed = line;
                    break 'poll;
                }
                std::thread::sleep(std::time::Duration::from_millis(25));
            }
            for ev in &events[half..] {
                writeln!(w, "{}", slim_stream::source::format_event_line(ev)).unwrap();
            }
            observed
        });

        let opts = CliOptions {
            tcp_addr: Some(feed_addr),
            serve_addr: Some(serve_addr),
            stream: Some(StreamOptions {
                source: SourceKind::Tcp,
                refresh_every: 200,
                queue_cap: 65_536,
                ..StreamOptions::default()
            }),
            out: Some(std::env::temp_dir().join("slim_cli_serve_links.csv")),
            ..CliOptions::default()
        };
        let summary = run(&opts).unwrap();
        let observed = feeder.join().expect("feeder");

        assert!(
            observed.starts_with("OK epoch="),
            "no live epoch observed mid-drive:\n{observed}"
        );
        let serve_line = summary
            .lines()
            .find(|l| l.contains("link queries answered"))
            .expect("serve summary line");
        assert!(
            !serve_line.trim_start().starts_with("serve: 0 epochs"),
            "{serve_line}"
        );
        // The feeder issued at least EPOCH + THRESHOLD + LINKS.
        let queries: u64 = serve_line
            .split(',')
            .nth(1)
            .and_then(|part| part.trim().split(' ').next())
            .and_then(|n| n.parse().ok())
            .expect("query count in serve line");
        assert!(queries >= 3, "{serve_line}");
        let _ = std::fs::remove_file(std::env::temp_dir().join("slim_cli_serve_links.csv"));
    }

    /// Writes `records` as a CSV the CLI can load.
    fn write_csv(path: &std::path::Path, records: &[slim_core::Record]) {
        let file = std::fs::File::create(path).unwrap();
        slim_core::io::write_records_csv(file, records).unwrap();
    }

    #[test]
    fn lsh_spans_are_cut_at_the_scorers_windows() {
        use geocell::LatLng;
        use slim_core::{EntityId, Record, Timestamp};

        // Six entities seen by both services (ids + 1000 on the right),
        // in a new level-12 cell every 15-minute window: left at :00:30,
        // right at :10:00 of the same window.
        let (mut left, mut right) = (Vec::new(), Vec::new());
        let place = |e: u64, k: i64| {
            LatLng::from_degrees(30.0 + 0.5 * e as f64, -100.0).offset(4_000.0 * k as f64, 1.0)
        };
        for e in 0..6u64 {
            for k in 0..30i64 {
                left.push(Record::new(
                    EntityId(e),
                    place(e, k),
                    Timestamp(k * 900 + 30),
                ));
                right.push(Record::new(
                    EntityId(1000 + e),
                    place(e, k).offset(25.0, 2.0),
                    Timestamp(k * 900 + 600),
                ));
            }
        }
        // A left entity the scorer drops (3 records ≤ min_records) whose
        // first record is 7 minutes before everyone else's, walking right
        // entity 1000's first cells. A window scheme started at *its*
        // first record puts each right record one window after its left
        // twin.
        for (k, t) in [(0, -390), (0, 510), (1, 1410)] {
            left.push(Record::new(EntityId(9000), place(0, k), Timestamp(t)));
        }
        let dir = std::env::temp_dir().join("slim_cli_lsh_scheme_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (left_csv, right_csv) = (dir.join("left.csv"), dir.join("right.csv"));
        write_csv(&left_csv, &left);
        write_csv(&right_csv, &right);

        // One span per window, one row per band: a signature slot is a
        // band, so a one-window shift breaks every collision.
        let lsh = slim_lsh::LshConfig {
            threshold: 0.1,
            step_windows: 1,
            spatial_level: 12,
            num_buckets: 1 << 20,
        };
        let links_of = |lsh: Option<slim_lsh::LshConfig>| {
            let out = dir.join("links.csv");
            let opts = CliOptions {
                left: Some(left_csv.clone()),
                right: Some(right_csv.clone()),
                lsh,
                out: Some(out.clone()),
                ..CliOptions::default()
            };
            run(&opts).unwrap();
            std::fs::read_to_string(&out).unwrap()
        };
        let brute = links_of(None);
        assert!(brute.lines().count() > 3, "brute force links:\n{brute}");
        assert_eq!(links_of(Some(lsh)), brute);

        // What `run` builds: the filter shares the prepared scheme and
        // never names the dropped entity; `build_auto` does both.
        let left_ds = slim_core::io::load_dataset_csv(&left_csv).unwrap();
        let right_ds = slim_core::io::load_dataset_csv(&right_csv).unwrap();
        let config = CliOptions::default().config;
        let prepared = slim_core::Slim::new(config)
            .unwrap()
            .prepare(&left_ds, &right_ds);
        assert!(prepared.left().history(EntityId(9000)).is_none());
        let filter = slim_lsh::LshFilter::for_prepared(lsh, &left_ds, &right_ds, &prepared);
        assert_eq!(filter.banding().1, 1, "one row per band");
        assert_eq!(filter.scheme(), prepared.left().scheme());
        let candidates = filter.candidates();
        assert!(candidates.iter().all(|(l, _)| *l != EntityId(9000)));
        for e in 0..6 {
            assert!(candidates.contains(&(EntityId(e), EntityId(1000 + e))));
        }
        let auto =
            slim_lsh::LshFilter::build_auto(lsh, &left_ds, &right_ds, config.window_width_secs);
        assert_ne!(auto.scheme(), prepared.left().scheme());
        assert!(auto.candidates().iter().any(|(l, _)| *l == EntityId(9000)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_missing_input_is_reported_under_its_own_path() {
        use geocell::LatLng;
        use slim_core::{EntityId, Record, Timestamp};

        let dir = std::env::temp_dir().join("slim_cli_missing_input_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.csv");
        let at = LatLng::from_degrees(37.0, -122.0);
        write_csv(&good, &[Record::new(EntityId(1), at, Timestamp(0))]);
        let (gone, also_gone) = (dir.join("gone.csv"), dir.join("also_gone.csv"));
        // Whichever loader thread meets the missing file, the error names
        // that file; with both missing, the left one.
        for (left, right, named) in [
            (&gone, &good, &gone),
            (&good, &gone, &gone),
            (&gone, &also_gone, &gone),
        ] {
            let opts = CliOptions {
                left: Some(left.clone()),
                right: Some(right.clone()),
                ..CliOptions::default()
            };
            let err = run(&opts).unwrap_err();
            assert!(
                err.starts_with(&format!("{}: I/O error", named.display())),
                "{err}"
            );
        }
        // A parse error carries the path and the line.
        let bad = dir.join("bad.csv");
        std::fs::write(
            &bad,
            "entity_id,latitude,longitude,timestamp\n1,0.0,0.0,0\n1,x,0.0,0\n",
        )
        .unwrap();
        let opts = CliOptions {
            left: Some(good.clone()),
            right: Some(bad.clone()),
            ..CliOptions::default()
        };
        let err = run(&opts).unwrap_err();
        assert!(
            err.starts_with(&format!("{}: line 3:", bad.display())),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn demo_end_to_end() {
        let dir = std::env::temp_dir().join("slim_cli_demo_test");
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.join("links.csv");
        let opts = CliOptions {
            demo: Some(dir.clone()),
            out: Some(out.clone()),
            ..CliOptions::default()
        };
        let summary = run(&opts).unwrap();
        assert!(summary.contains("links"), "{summary}");
        let links = std::fs::read_to_string(&out).unwrap();
        assert!(links.starts_with("left_entity,right_entity,score"));
        assert!(links.lines().count() > 1, "no links produced:\n{links}");
        // Demo dir contains the two generated datasets.
        assert!(dir.join("left.csv").exists());
        assert!(dir.join("right.csv").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
