//! Crash-safe checkpointing: the durable on-disk image of a running
//! engine, written at a configurable event cadence and read back by
//! [`crate::StreamEngine::recover`] into a state whose every subsequent
//! observable — published epochs, served links, stats, finalized
//! output — is **bit-identical to an unbroken run**.
//!
//! # File format
//!
//! A checkpoint file is a magic header followed by CRC-framed sections:
//!
//! ```text
//! "SLIMCKPT" | version u32
//! [tag u32 | len u64 | crc32 u32 | payload]   META   (cadence + config fingerprint)
//! [tag u32 | len u64 | crc32 u32 | payload]   ENGINE (links, matcher, df, threshold…)
//! [tag u32 | len u64 | crc32 u32 | payload]   SHARDS (histories, rings, caches…)
//! [tag u32 | len u64 | crc32 u32 | payload]   PUMP   (reorder buffer, ticker, offset)
//! [tag u32 | len u64 | crc32 u32 | (empty)]   END
//! ```
//!
//! All integers are little-endian; floats travel as IEEE-754 bit
//! patterns (`to_bits`/`from_bits`), so recovery reproduces them
//! exactly. Every frame carries the CRC-32 of its payload (IEEE 802.3,
//! reflected polynomial `0xEDB88320` — the zlib/PNG checksum), computed
//! eight bytes per step from compile-time tables ([`crc32`]; a bitwise
//! reference loop pins it in the unit tests). The CRC is verified
//! *before* the payload is parsed, so a torn or bit-flipped file is
//! rejected with an error — never a panic — and the loader falls back
//! to the next-older file. A length the file claims is never trusted
//! for more than the bytes actually present.
//!
//! # Write path
//!
//! There is one encoder, [`encode_into`], and it serializes an
//! [`Image`] straight into a caller-owned buffer that the engine keeps
//! across checkpoints (cleared, capacity retained). A frame is opened
//! by reserving its 16-byte header and closed by patching length and
//! CRC over the payload range in place, so no section is staged in a
//! buffer of its own. The image *borrows* the engine: every shard
//! collection is a `Cow::Borrowed` view of the live maps, arena columns
//! and rings, and only [`decode`] produces the owned form (which
//! recovery consumes and the codec tests re-encode through the same
//! encoder).
//!
//! # Atomic writes
//!
//! A checkpoint is written to a `.slim.tmp` sibling, fsynced, then
//! renamed into place (`ckpt-<consumed-events, zero-padded>.slim` — the
//! padding makes lexical order equal numeric order), followed by a
//! best-effort directory fsync. A crash mid-write therefore leaves at
//! worst a stale temp file, never a half-renamed checkpoint; a crash
//! mid-*fsync* can leave a torn frame, which the CRC catches at load.
//! A failed write removes its own temp file, and [`prune_old`] sweeps
//! up any temp file a killed writer left behind.
//!
//! # Sharding
//!
//! Checkpoints are **shard-agnostic**: the engine gathers, per
//! collection, one index of references into every shard and sorts it by
//! key (entity, pair, or `(side, entity)`), and the encoder walks that
//! index — merged by sorted reference, not by copy. The bytes are the
//! same for every shard count, and recovery redistributes them by the
//! deterministic entity hash ([`crate::shard::entity_shard`]). A
//! checkpoint written by a 4-shard engine recovers bit-identically on a
//! 1-shard one and vice versa.

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use geocell::{CellId, LatLng};
use slim_core::gmm::{Component, Gmm2};
use slim_core::{Edge, EntityId, LinkageStats, Timestamp, WindowIdx};

use crate::adjacency::PairKey;
use crate::config::StreamConfig;
use crate::engine::StreamStats;
use crate::event::{Side, StreamEvent};
use crate::lsh::{RingDump, SpanRing};
use crate::shard::{BinnedEvent, Contribution};
use crate::source::pump::Ticker;
use crate::testing::FaultPlan;

/// File magic: the first 8 bytes of every checkpoint.
pub(crate) const MAGIC: &[u8; 8] = b"SLIMCKPT";
/// Format version; bumped on any wire-layout change.
pub(crate) const VERSION: u32 = 1;

const TAG_META: u32 = 1;
const TAG_ENGINE: u32 = 2;
const TAG_SHARDS: u32 = 3;
const TAG_PUMP: u32 = 4;
const TAG_END: u32 = 5;

/// When and where the engine checkpoints, set via
/// [`crate::StreamEngine::set_checkpoint_policy`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Directory checkpoint files are written into (created on first
    /// write if absent).
    pub dir: PathBuf,
    /// Write a checkpoint every `every` consumed events (> 0).
    pub every: u64,
    /// Retain the newest `keep` checkpoints; older ones are pruned
    /// after each successful write.
    pub keep: usize,
}

// ---------------------------------------------------------------------
// Checkpointed state
// ---------------------------------------------------------------------

/// Everything a checkpoint persists: the image handed between the
/// engine ([`crate::StreamEngine`]) and this module's codec. On the
/// write path it borrows the live engine (`'a` is the engine borrow and
/// every [`ShardsDump`] collection is `Cow::Borrowed`); [`decode`]
/// yields the owned `Image<'static>` recovery consumes.
#[derive(Debug, Clone)]
pub(crate) struct Image<'a> {
    pub(crate) meta: MetaDump,
    pub(crate) engine: EngineDump,
    pub(crate) shards: ShardsDump<'a>,
    pub(crate) pump: ResumeState,
}

/// Header section: the resume offset and the configuration fingerprint
/// recovery validates against.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct MetaDump {
    /// Source events consumed (accepted prefix) at checkpoint time —
    /// the pump skips exactly this many arrivals on resume.
    pub(crate) consumed: u64,
    pub(crate) fingerprint: ConfigFingerprint,
}

/// The configuration parameters that shape checkpointed state. A
/// recovery under a config with a different fingerprint is an error —
/// the serialized windows, bins, and rings would be meaningless.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ConfigFingerprint {
    pub(crate) window_width_secs: i64,
    pub(crate) spatial_level: u8,
    pub(crate) min_records: u64,
    pub(crate) window_capacity: Option<u32>,
    pub(crate) lsh: Option<LshFingerprint>,
}

/// The LSH geometry half of the fingerprint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LshFingerprint {
    pub(crate) spans: u64,
    pub(crate) step_windows: u32,
    pub(crate) spatial_level: u8,
    pub(crate) threshold_bits: u64,
    pub(crate) num_buckets: u64,
}

impl ConfigFingerprint {
    /// The fingerprint of `cfg`.
    pub(crate) fn of(cfg: &StreamConfig) -> Self {
        Self {
            window_width_secs: cfg.slim.window_width_secs,
            spatial_level: cfg.slim.spatial_level,
            min_records: cfg.slim.min_records as u64,
            window_capacity: cfg.window_capacity,
            lsh: cfg.lsh.map(|l| LshFingerprint {
                spans: l.spans as u64,
                step_windows: l.base.step_windows,
                spatial_level: l.base.spatial_level,
                threshold_bits: l.base.threshold.to_bits(),
                num_buckets: l.base.num_buckets,
            }),
        }
    }

    /// Errors unless `cfg` fingerprints identically to this checkpoint.
    pub(crate) fn check(&self, cfg: &StreamConfig) -> Result<(), String> {
        let now = Self::of(cfg);
        if *self == now {
            Ok(())
        } else {
            Err(format!(
                "checkpoint was written under a different configuration \
                 (checkpoint {self:?}, requested {now:?})"
            ))
        }
    }
}

/// Engine-global state: the barrier outputs and warm state that cannot
/// be rederived from the shard dumps.
#[derive(Debug, Clone)]
pub(crate) struct EngineDump {
    /// Window-scheme origin (`None` if no event was ever ingested).
    pub(crate) origin: Option<i64>,
    /// Highest appended window + 1.
    pub(crate) domain: u32,
    /// Expiry watermark (first retained window).
    pub(crate) watermark: WindowIdx,
    /// Windows already expired (strictly below).
    pub(crate) expired_below: WindowIdx,
    /// Events since the last automatic refresh tick.
    pub(crate) events_since_refresh: u64,
    pub(crate) stats: StreamStats,
    pub(crate) scoring: LinkageStats,
    /// The links of the last refresh (== the published snapshot's).
    pub(crate) links: Vec<Edge>,
    /// The published epoch's event count.
    pub(crate) epoch_events: u64,
    /// The published epoch's stop threshold.
    pub(crate) epoch_threshold: Option<f64>,
    /// The published epoch's watermark frontier.
    pub(crate) epoch_frontier: Option<i64>,
    /// The incremental matcher's full edge set (its caches lag the
    /// shard `edges` caches by the unconsumed deltas, so it must travel
    /// separately).
    pub(crate) matcher_edges: Vec<Edge>,
    /// The threshold fitter's warm-start seed.
    pub(crate) warm_seed: Option<Gmm2>,
    /// Per-side document-frequency statistics.
    pub(crate) df: [DfDump; 2],
}

/// One side's df-stats as sorted parallel entries.
#[derive(Debug, Clone, Default)]
pub(crate) struct DfDump {
    pub(crate) entries: Vec<(WindowIdx, CellId, u32)>,
    pub(crate) total_bins: u64,
    pub(crate) num_entities: u64,
}

/// One entity's history in canonical column form: `wins` ascending with
/// one entry per bin, `cells` strictly ascending within each window run,
/// `counts` parallel, plus the true per-window record counts (they
/// differ from the bin-count sum for region records). Borrowed from a
/// live arena on the write path, owned — and validated, see
/// [`check_history`] — when decoded from a file.
#[derive(Debug, Clone, Default)]
pub(crate) struct HistoryDump<'a> {
    pub(crate) wins: Cow<'a, [WindowIdx]>,
    pub(crate) cells: Cow<'a, [CellId]>,
    pub(crate) counts: Cow<'a, [u32]>,
    pub(crate) window_records: Cow<'a, [(WindowIdx, u32)]>,
}

/// Per-shard state, merged across shards into globally sorted
/// collections (sorted by entity, pair, or `(side, entity)` key) so the
/// dump is identical for every shard count. The sorted `Vec`s are the
/// index; what they point at stays in the shards (`Cow::Borrowed`)
/// unless the dump was decoded from a file (`Cow::Owned`).
#[derive(Debug, Clone, Default)]
pub(crate) struct ShardsDump<'a> {
    /// Per-side mobility histories (columnar arena contents).
    pub(crate) histories: [Vec<(EntityId, HistoryDump<'a>)>; 2],
    /// Per-side min-records pending buffers.
    pub(crate) pending: [Vec<(EntityId, Cow<'a, [BinnedEvent]>)>; 2],
    /// Per-side live-event retention buffers (sliding-window mode).
    pub(crate) live_events: [Vec<(EntityId, Cow<'a, [BinnedEvent]>)>; 2],
    /// Per-side activated entities.
    pub(crate) active: [Vec<EntityId>; 2],
    /// Per-side dirty window marks.
    pub(crate) dirty: [Vec<(EntityId, Cow<'a, BTreeSet<WindowIdx>>)>; 2],
    /// Per-side dead (fully expired) entities.
    pub(crate) dead: [Vec<EntityId>; 2],
    /// LSH ring signatures, sorted by `(side, entity)`.
    pub(crate) rings: Vec<RingDump<'a>>,
    /// Cached `(pair, window)` score contributions. These deliberately
    /// lag drifting idf, so they are restored verbatim — never
    /// recomputed.
    pub(crate) cache: Vec<(PairKey, Cow<'a, [Contribution]>)>,
    /// Pairs whose cache is not yet complete.
    pub(crate) fresh: Vec<PairKey>,
    /// Last emitted edge weight per pair.
    pub(crate) edges: Vec<(PairKey, f64)>,
    /// Edge deltas queued but not yet consumed by a tick.
    pub(crate) edge_deltas: Vec<(PairKey, Option<f64>)>,
}

/// The pump-side state a resumed drive needs: the reorder buffer, the
/// ticker, and the accepted-prefix offset. Also the handoff value
/// [`crate::StreamEngine::take_resume_state`] gives the pump.
#[derive(Debug, Clone)]
pub(crate) struct ResumeState {
    /// Source events consumed at checkpoint time.
    pub(crate) consumed: u64,
    /// Reorder-buffer watermark high point.
    pub(crate) reorder_max_seen: Option<i64>,
    /// Events held in the reorder buffer, in canonical key order.
    pub(crate) reorder_held: Vec<StreamEvent>,
    /// Arrivals already rejected as late.
    pub(crate) reorder_late: u64,
    /// The tick scheduler's state.
    pub(crate) ticker: Ticker,
}

// ---------------------------------------------------------------------
// CRC-32 (IEEE)
// ---------------------------------------------------------------------

/// Slicing-by-8 lookup tables: `CRC_TABLES[k][b]` is the CRC state
/// after byte `b` followed by `k` zero bytes, so eight input bytes fold
/// into the state with eight independent lookups.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) of `bytes`.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------
// Wire primitives
// ---------------------------------------------------------------------

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_opt<T>(out: &mut Vec<u8>, v: &Option<T>, f: impl Fn(&mut Vec<u8>, &T)) {
    match v {
        None => put_u8(out, 0),
        Some(x) => {
            put_u8(out, 1);
            f(out, x);
        }
    }
}

/// A length-prefixed sequence, straight from whatever holds it (slice,
/// `BTreeMap`, `BTreeSet`) — nothing is collected first.
fn put_seq<I: ExactSizeIterator>(
    out: &mut Vec<u8>,
    items: impl IntoIterator<IntoIter = I>,
    f: impl Fn(&mut Vec<u8>, I::Item),
) {
    let items = items.into_iter();
    put_u64(out, items.len() as u64);
    for it in items {
        f(out, it);
    }
}

/// Most elements [`Dec::vec`] reserves room for before any has parsed.
const MAX_PREALLOC: usize = 4096;

/// Bounds-checked little-endian reader over a frame payload. Every
/// overrun is an `Err`, never a panic — the corruption-tolerance
/// contract of the loader.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.remaining() < n {
            return Err(format!(
                "truncated payload: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, String> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn opt<T>(&mut self, f: impl Fn(&mut Self) -> Result<T, String>) -> Result<Option<T>, String> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(f(self)?)),
            t => Err(format!("invalid option tag {t}")),
        }
    }

    /// A sequence length. Every element costs at least one byte on the
    /// wire, so a length beyond the remaining payload is corrupt.
    fn len(&mut self) -> Result<usize, String> {
        let n = self.u64()? as usize;
        if n > self.remaining() {
            return Err(format!("corrupt sequence length {n} exceeds payload"));
        }
        Ok(n)
    }

    fn vec<T>(&mut self, f: impl Fn(&mut Self) -> Result<T, String>) -> Result<Vec<T>, String> {
        let n = self.len()?;
        // The one-byte-per-element bound above still lets a CRC-valid
        // file claim millions of elements that are ~100 bytes each in
        // memory; reserve for a bounded number up front and let the
        // vector grow only as elements actually parse.
        let mut v = Vec::with_capacity(n.min(MAX_PREALLOC));
        for _ in 0..n {
            v.push(f(self)?);
        }
        Ok(v)
    }

    /// [`Dec::vec`] into a map or set (which allocate per element
    /// parsed, so need no reservation cap).
    fn collect<T, C: FromIterator<T>>(
        &mut self,
        f: impl Fn(&mut Self) -> Result<T, String>,
    ) -> Result<C, String> {
        (0..self.len()?).map(|_| f(self)).collect()
    }

    fn done(&self) -> Result<(), String> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(format!("{} trailing bytes in payload", self.remaining()))
        }
    }
}

// ---------------------------------------------------------------------
// Composite encodings
// ---------------------------------------------------------------------

fn put_side(out: &mut Vec<u8>, s: Side) {
    put_u8(
        out,
        match s {
            Side::Left => 0,
            Side::Right => 1,
        },
    );
}

fn dec_side(d: &mut Dec) -> Result<Side, String> {
    match d.u8()? {
        0 => Ok(Side::Left),
        1 => Ok(Side::Right),
        t => Err(format!("invalid side tag {t}")),
    }
}

fn put_event(out: &mut Vec<u8>, ev: &StreamEvent) {
    put_side(out, ev.side);
    put_u64(out, ev.entity.0);
    put_f64(out, ev.location.lat_rad());
    put_f64(out, ev.location.lng_rad());
    put_i64(out, ev.time.secs());
    put_f64(out, ev.accuracy_m);
}

fn dec_event(d: &mut Dec) -> Result<StreamEvent, String> {
    let side = dec_side(d)?;
    let entity = EntityId(d.u64()?);
    let lat = d.f64()?;
    let lng = d.f64()?;
    let time = Timestamp(d.i64()?);
    let accuracy_m = d.f64()?;
    Ok(StreamEvent {
        side,
        entity,
        location: LatLng::from_radians(lat, lng),
        time,
        accuracy_m,
    })
}

fn put_edge(out: &mut Vec<u8>, e: &Edge) {
    put_u64(out, e.left.0);
    put_u64(out, e.right.0);
    put_f64(out, e.weight);
}

fn dec_edge(d: &mut Dec) -> Result<Edge, String> {
    Ok(Edge {
        left: EntityId(d.u64()?),
        right: EntityId(d.u64()?),
        weight: d.f64()?,
    })
}

fn put_pair(out: &mut Vec<u8>, p: &PairKey) {
    put_u64(out, p.0 .0);
    put_u64(out, p.1 .0);
}

fn dec_pair(d: &mut Dec) -> Result<PairKey, String> {
    Ok((EntityId(d.u64()?), EntityId(d.u64()?)))
}

fn put_cell(out: &mut Vec<u8>, c: &CellId) {
    put_u64(out, c.to_u64());
}

/// Decodes a cell id. The CRC has already vouched for the bytes, so
/// invalid bits can only mean a writer bug — but return an error
/// rather than panicking all the same.
fn dec_cell(d: &mut Dec) -> Result<CellId, String> {
    let raw = d.u64()?;
    CellId::try_from_u64(raw).ok_or_else(|| format!("invalid cell id {raw:#x}"))
}

fn put_gmm(out: &mut Vec<u8>, g: &Gmm2) {
    for c in [&g.low, &g.high] {
        put_f64(out, c.weight);
        put_f64(out, c.mean);
        put_f64(out, c.std_dev);
    }
    put_f64(out, g.avg_log_likelihood);
    put_u32(out, g.iterations);
}

fn dec_gmm(d: &mut Dec) -> Result<Gmm2, String> {
    let comp = |d: &mut Dec| -> Result<Component, String> {
        Ok(Component {
            weight: d.f64()?,
            mean: d.f64()?,
            std_dev: d.f64()?,
        })
    };
    let low = comp(d)?;
    let high = comp(d)?;
    Ok(Gmm2 {
        low,
        high,
        avg_log_likelihood: d.f64()?,
        iterations: d.u32()?,
    })
}

fn put_binned(out: &mut Vec<u8>, b: &BinnedEvent) {
    put_side(out, b.side);
    put_u64(out, b.entity.0);
    put_u32(out, b.w);
    put_seq(out, &b.cells, put_cell);
    put_seq(out, &b.lsh_cells, put_cell);
}

fn dec_binned(d: &mut Dec) -> Result<BinnedEvent, String> {
    Ok(BinnedEvent {
        side: dec_side(d)?,
        entity: EntityId(d.u64()?),
        w: d.u32()?,
        cells: d.vec(dec_cell)?,
        lsh_cells: d.vec(dec_cell)?,
    })
}

fn put_history(out: &mut Vec<u8>, h: &HistoryDump) {
    put_seq(out, h.wins.iter(), |o, w| put_u32(o, *w));
    put_seq(out, h.cells.iter(), put_cell);
    put_seq(out, h.counts.iter(), |o, c| put_u32(o, *c));
    put_seq(out, h.window_records.iter(), |o, (w, n)| {
        put_u32(o, *w);
        put_u32(o, *n);
    });
}

fn dec_history(d: &mut Dec) -> Result<HistoryDump<'static>, String> {
    Ok(HistoryDump {
        wins: d.vec(|d| d.u32())?.into(),
        cells: d.vec(dec_cell)?.into(),
        counts: d.vec(|d| d.u32())?.into(),
        window_records: d.vec(|d| Ok((d.u32()?, d.u32()?)))?.into(),
    })
}

/// Refuses a decoded history the arena could not hold. The arena takes
/// restored columns as they are — it binary-searches `wins`, slices all
/// three columns by one range, and unwinds `num_records` from the
/// per-window counts on eviction — so they must arrive exactly as an
/// arena would have exported them.
fn check_history(e: EntityId, h: &HistoryDump) -> Result<(), String> {
    let fail = |what: &str| Err(format!("history of {e:?}: {what}"));
    let n = h.wins.len();
    if n == 0 {
        return fail("no bins");
    }
    if h.cells.len() != n || h.counts.len() != n {
        return fail("ragged columns");
    }
    if (1..n).any(|i| (h.wins[i - 1], h.cells[i - 1]) >= (h.wins[i], h.cells[i])) {
        return fail("bins not ascending by (window, cell)");
    }
    if h.counts.contains(&0) || h.window_records.iter().any(|&(_, records)| records == 0) {
        return fail("a zero count");
    }
    let mut windows = h.wins.to_vec();
    windows.dedup();
    if !h.window_records.iter().map(|&(w, _)| w).eq(windows) {
        return fail("record counts do not list exactly the windows of the bins");
    }
    Ok(())
}

fn put_ring(out: &mut Vec<u8>, r: &RingDump) {
    put_side(out, r.side);
    put_u64(out, r.entity.0);
    put_seq(out, &r.ring.slots, |o, slot| {
        put_seq(o, slot, |o, ((w, c), n)| {
            put_u32(o, *w);
            put_cell(o, c);
            put_u32(o, *n);
        });
    });
    put_seq(out, &r.ring.owners, |o, own| {
        put_opt(o, own, |o, w| put_u32(o, *w));
    });
    put_seq(out, &r.ring.sig, |o, s| put_opt(o, s, put_cell));
}

fn dec_ring(d: &mut Dec) -> Result<RingDump<'static>, String> {
    Ok(RingDump {
        side: dec_side(d)?,
        entity: EntityId(d.u64()?),
        ring: Cow::Owned(SpanRing {
            slots: d.vec(|d| d.collect(|d| Ok(((d.u32()?, dec_cell(d)?), d.u32()?))))?,
            owners: d.vec(|d| d.opt(|d| d.u32()))?,
            sig: d.vec(|d| d.opt(dec_cell))?,
            // Derived from `sig`; `ShardRings::restore` rebuilds it.
            buckets: Vec::new(),
        }),
    })
}

fn put_ticker(out: &mut Vec<u8>, t: &Ticker) {
    match t {
        Ticker::EveryN => put_u8(out, 0),
        Ticker::EventTime {
            interval,
            origin,
            last_cell,
        } => {
            put_u8(out, 1);
            put_i64(out, *interval);
            put_opt(out, origin, |o, v| put_i64(o, *v));
            put_opt(out, last_cell, |o, v| put_u32(o, *v));
        }
        Ticker::Watermark {
            width,
            origin,
            sealed_below,
            pending,
        } => {
            put_u8(out, 2);
            put_i64(out, *width);
            put_opt(out, origin, |o, v| put_i64(o, *v));
            put_u32(out, *sealed_below);
            put_seq(out, pending, put_event);
        }
    }
}

fn dec_ticker(d: &mut Dec) -> Result<Ticker, String> {
    match d.u8()? {
        0 => Ok(Ticker::EveryN),
        1 => Ok(Ticker::EventTime {
            interval: d.i64()?,
            origin: d.opt(|d| d.i64())?,
            last_cell: d.opt(|d| d.u32())?,
        }),
        2 => Ok(Ticker::Watermark {
            width: d.i64()?,
            origin: d.opt(|d| d.i64())?,
            sealed_below: d.u32()?,
            pending: d.vec(dec_event)?,
        }),
        t => Err(format!("invalid ticker tag {t}")),
    }
}

/// Every [`StreamStats`] row in declaration order — which is therefore
/// the wire layout: a row may only be appended, with a [`VERSION`] bump.
fn put_stats(out: &mut Vec<u8>, s: &StreamStats) {
    for (_, _, value) in s.rows() {
        put_u64(out, value);
    }
}

fn dec_stats(d: &mut Dec) -> Result<StreamStats, String> {
    let mut stats = StreamStats::default();
    for (_, _, value) in stats.rows_mut() {
        *value = d.u64()?;
    }
    Ok(stats)
}

fn put_scoring(out: &mut Vec<u8>, s: &LinkageStats) {
    let LinkageStats {
        scored_entity_pairs,
        bin_pair_comparisons,
        record_pair_comparisons,
        alibi_pairs,
    } = *s;
    for v in [
        scored_entity_pairs,
        bin_pair_comparisons,
        record_pair_comparisons,
        alibi_pairs,
    ] {
        put_u64(out, v);
    }
}

fn dec_scoring(d: &mut Dec) -> Result<LinkageStats, String> {
    Ok(LinkageStats {
        scored_entity_pairs: d.u64()?,
        bin_pair_comparisons: d.u64()?,
        record_pair_comparisons: d.u64()?,
        alibi_pairs: d.u64()?,
    })
}

fn put_df(out: &mut Vec<u8>, df: &DfDump) {
    put_seq(out, &df.entries, |o, (w, c, n)| {
        put_u32(o, *w);
        put_cell(o, c);
        put_u32(o, *n);
    });
    put_u64(out, df.total_bins);
    put_u64(out, df.num_entities);
}

fn dec_df(d: &mut Dec) -> Result<DfDump, String> {
    Ok(DfDump {
        entries: d.vec(|d| Ok((d.u32()?, dec_cell(d)?, d.u32()?)))?,
        total_bins: d.u64()?,
        num_entities: d.u64()?,
    })
}

// ---------------------------------------------------------------------
// Section codecs
// ---------------------------------------------------------------------

fn encode_meta(out: &mut Vec<u8>, m: &MetaDump) {
    put_u64(out, m.consumed);
    let f = &m.fingerprint;
    put_i64(out, f.window_width_secs);
    put_u8(out, f.spatial_level);
    put_u64(out, f.min_records);
    put_opt(out, &f.window_capacity, |o, v| put_u32(o, *v));
    put_opt(out, &f.lsh, |o, l| {
        put_u64(o, l.spans);
        put_u32(o, l.step_windows);
        put_u8(o, l.spatial_level);
        put_u64(o, l.threshold_bits);
        put_u64(o, l.num_buckets);
    });
}

fn decode_meta(payload: &[u8]) -> Result<MetaDump, String> {
    let mut d = Dec::new(payload);
    let consumed = d.u64()?;
    let fingerprint = ConfigFingerprint {
        window_width_secs: d.i64()?,
        spatial_level: d.u8()?,
        min_records: d.u64()?,
        window_capacity: d.opt(|d| d.u32())?,
        lsh: d.opt(|d| {
            Ok(LshFingerprint {
                spans: d.u64()?,
                step_windows: d.u32()?,
                spatial_level: d.u8()?,
                threshold_bits: d.u64()?,
                num_buckets: d.u64()?,
            })
        })?,
    };
    d.done()?;
    Ok(MetaDump {
        consumed,
        fingerprint,
    })
}

fn encode_engine(out: &mut Vec<u8>, e: &EngineDump) {
    put_opt(out, &e.origin, |o, v| put_i64(o, *v));
    put_u32(out, e.domain);
    put_u32(out, e.watermark);
    put_u32(out, e.expired_below);
    put_u64(out, e.events_since_refresh);
    put_stats(out, &e.stats);
    put_scoring(out, &e.scoring);
    put_seq(out, &e.links, put_edge);
    put_u64(out, e.epoch_events);
    put_opt(out, &e.epoch_threshold, |o, v| put_f64(o, *v));
    put_opt(out, &e.epoch_frontier, |o, v| put_i64(o, *v));
    put_seq(out, &e.matcher_edges, put_edge);
    put_opt(out, &e.warm_seed, put_gmm);
    put_df(out, &e.df[0]);
    put_df(out, &e.df[1]);
}

fn decode_engine(payload: &[u8]) -> Result<EngineDump, String> {
    let mut d = Dec::new(payload);
    let e = EngineDump {
        origin: d.opt(|d| d.i64())?,
        domain: d.u32()?,
        watermark: d.u32()?,
        expired_below: d.u32()?,
        events_since_refresh: d.u64()?,
        stats: dec_stats(&mut d)?,
        scoring: dec_scoring(&mut d)?,
        links: d.vec(dec_edge)?,
        epoch_events: d.u64()?,
        epoch_threshold: d.opt(|d| d.f64())?,
        epoch_frontier: d.opt(|d| d.i64())?,
        matcher_edges: d.vec(dec_edge)?,
        warm_seed: d.opt(dec_gmm)?,
        df: [dec_df(&mut d)?, dec_df(&mut d)?],
    };
    d.done()?;
    Ok(e)
}

fn encode_shards(out: &mut Vec<u8>, s: &ShardsDump) {
    for side in 0..2 {
        put_seq(out, &s.histories[side], |o, (e, h)| {
            put_u64(o, e.0);
            put_history(o, h);
        });
        for buffers in [&s.pending[side], &s.live_events[side]] {
            put_seq(out, buffers, |o, (e, evs)| {
                put_u64(o, e.0);
                put_seq(o, evs.iter(), put_binned);
            });
        }
        put_seq(out, &s.active[side], |o, e| put_u64(o, e.0));
        put_seq(out, &s.dirty[side], |o, (e, ws)| {
            put_u64(o, e.0);
            put_seq(o, ws.iter(), |o, w| put_u32(o, *w));
        });
        put_seq(out, &s.dead[side], |o, e| put_u64(o, e.0));
    }
    put_seq(out, &s.rings, put_ring);
    put_seq(out, &s.cache, |o, (p, wins)| {
        put_pair(o, p);
        put_seq(o, wins.iter(), |o, &(w, v)| {
            put_u32(o, w);
            put_f64(o, v);
        });
    });
    put_seq(out, &s.fresh, put_pair);
    put_seq(out, &s.edges, |o, (p, w)| {
        put_pair(o, p);
        put_f64(o, *w);
    });
    put_seq(out, &s.edge_deltas, |o, (p, w)| {
        put_pair(o, p);
        put_opt(o, w, |o, v| put_f64(o, *v));
    });
}

fn decode_shards(payload: &[u8]) -> Result<ShardsDump<'static>, String> {
    let mut d = Dec::new(payload);
    let mut s = ShardsDump::default();
    let buffers = |d: &mut Dec| Ok((EntityId(d.u64()?), d.vec(dec_binned)?.into()));
    for side in 0..2 {
        s.histories[side] = d.vec(|d| {
            let (e, h) = (EntityId(d.u64()?), dec_history(d)?);
            check_history(e, &h)?;
            Ok((e, h))
        })?;
        if let Some(p) = s.histories[side].windows(2).find(|p| p[0].0 >= p[1].0) {
            return Err(format!(
                "history of {:?}: listed twice or out of order",
                p[1].0
            ));
        }
        s.pending[side] = d.vec(buffers)?;
        s.live_events[side] = d.vec(buffers)?;
        s.active[side] = d.vec(|d| Ok(EntityId(d.u64()?)))?;
        s.dirty[side] = d.vec(|d| Ok((EntityId(d.u64()?), Cow::Owned(d.collect(|d| d.u32())?))))?;
        s.dead[side] = d.vec(|d| Ok(EntityId(d.u64()?)))?;
    }
    s.rings = d.vec(dec_ring)?;
    s.cache = d.vec(|d| {
        let pair = dec_pair(d)?;
        let wins = d.vec(|d| Ok((d.u32()?, d.f64()?)))?;
        // The shard binary-searches this list: it must arrive sorted.
        if wins.windows(2).any(|p| p[0].0 >= p[1].0) {
            return Err(format!("pair {pair:?}: cached windows not ascending"));
        }
        Ok((pair, Cow::Owned(wins)))
    })?;
    s.fresh = d.vec(dec_pair)?;
    s.edges = d.vec(|d| Ok((dec_pair(d)?, d.f64()?)))?;
    s.edge_deltas = d.vec(|d| Ok((dec_pair(d)?, d.opt(|d| d.f64())?)))?;
    d.done()?;
    Ok(s)
}

fn encode_pump(out: &mut Vec<u8>, p: &ResumeState) {
    put_u64(out, p.consumed);
    put_opt(out, &p.reorder_max_seen, |o, v| put_i64(o, *v));
    put_seq(out, &p.reorder_held, put_event);
    put_u64(out, p.reorder_late);
    put_ticker(out, &p.ticker);
}

fn decode_pump(payload: &[u8]) -> Result<ResumeState, String> {
    let mut d = Dec::new(payload);
    let p = ResumeState {
        consumed: d.u64()?,
        reorder_max_seen: d.opt(|d| d.i64())?,
        reorder_held: d.vec(dec_event)?,
        reorder_late: d.u64()?,
        ticker: dec_ticker(&mut d)?,
    };
    d.done()?;
    Ok(p)
}

// ---------------------------------------------------------------------
// Whole-file codec
// ---------------------------------------------------------------------

/// Bytes of a frame header after its tag: payload length, then CRC.
const FRAME_LEN_CRC: usize = 12;

/// Appends one frame whose payload `body` writes directly into `out`:
/// the length and CRC slots are reserved first and patched once the
/// payload range is known.
fn frame(out: &mut Vec<u8>, tag: u32, body: impl FnOnce(&mut Vec<u8>)) {
    put_u32(out, tag);
    let header = out.len();
    out.extend_from_slice(&[0; FRAME_LEN_CRC]);
    let payload = out.len();
    body(out);
    let len = (out.len() - payload) as u64;
    let crc = crc32(&out[payload..]);
    out[header..header + 8].copy_from_slice(&len.to_le_bytes());
    out[header + 8..payload].copy_from_slice(&crc.to_le_bytes());
}

/// Serializes a complete checkpoint image to its wire form in `out`
/// (cleared first; its capacity is what a caller that keeps the buffer
/// saves on the next call). The only encoder.
pub(crate) fn encode_into(out: &mut Vec<u8>, image: &Image) {
    out.clear();
    out.extend_from_slice(MAGIC);
    put_u32(out, VERSION);
    frame(out, TAG_META, |o| encode_meta(o, &image.meta));
    frame(out, TAG_ENGINE, |o| encode_engine(o, &image.engine));
    frame(out, TAG_SHARDS, |o| encode_shards(o, &image.shards));
    frame(out, TAG_PUMP, |o| encode_pump(o, &image.pump));
    frame(out, TAG_END, |_| {});
}

/// Parses and validates a checkpoint file image. Strict: bad magic or
/// version, any frame CRC mismatch, a missing or duplicated section, a
/// missing END frame, or trailing bytes are all errors — and *never*
/// panics, whatever the input.
pub(crate) fn decode(bytes: &[u8]) -> Result<Image<'static>, String> {
    let mut d = Dec::new(bytes);
    if d.take(MAGIC.len())? != MAGIC {
        return Err("bad magic: not a checkpoint file".into());
    }
    let version = d.u32()?;
    if version != VERSION {
        return Err(format!(
            "unsupported checkpoint version {version} (expected {VERSION})"
        ));
    }
    let mut meta = None;
    let mut engine = None;
    let mut shards = None;
    let mut pump = None;
    loop {
        let tag = d.u32()?;
        let len = d.u64()? as usize;
        let crc = d.u32()?;
        let payload = d.take(len)?;
        if crc32(payload) != crc {
            return Err(format!("CRC mismatch in frame tag {tag}"));
        }
        match tag {
            TAG_END => {
                if len != 0 {
                    return Err("non-empty END frame".into());
                }
                break;
            }
            TAG_META if meta.is_none() => meta = Some(decode_meta(payload)?),
            TAG_ENGINE if engine.is_none() => engine = Some(decode_engine(payload)?),
            TAG_SHARDS if shards.is_none() => shards = Some(decode_shards(payload)?),
            TAG_PUMP if pump.is_none() => pump = Some(decode_pump(payload)?),
            TAG_META | TAG_ENGINE | TAG_SHARDS | TAG_PUMP => {
                return Err(format!("duplicate frame tag {tag}"));
            }
            _ => return Err(format!("unknown frame tag {tag}")),
        }
    }
    d.done()?;
    Ok(Image {
        meta: meta.ok_or("missing META frame")?,
        engine: engine.ok_or("missing ENGINE frame")?,
        shards: shards.ok_or("missing SHARDS frame")?,
        pump: pump.ok_or("missing PUMP frame")?,
    })
}

// ---------------------------------------------------------------------
// File management
// ---------------------------------------------------------------------

/// The file name of the checkpoint taken after `consumed` events.
/// Zero-padded so lexical order is numeric order.
pub(crate) fn checkpoint_file_name(consumed: u64) -> String {
    format!("ckpt-{consumed:020}.slim")
}

/// Extension of the sibling a checkpoint is staged in before its
/// rename (`ckpt-<consumed>.slim.tmp`).
const TMP_EXT: &str = ".slim.tmp";

/// Files in `dir` named `ckpt-*<suffix>`, sorted (oldest → newest).
/// A missing directory is an empty list.
fn list_files(dir: &Path, suffix: &str) -> Vec<PathBuf> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut files: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("ckpt-") && n.ends_with(suffix))
        })
        .collect();
    files.sort();
    files
}

/// Checkpoint files in `dir`, sorted oldest → newest. Non-checkpoint
/// names (including temp files) are ignored; a missing directory is an
/// empty list.
pub(crate) fn list_checkpoints(dir: &Path) -> Vec<PathBuf> {
    list_files(dir, ".slim")
}

/// Applies a deterministic corruption from `plan` to an encoded image:
/// a torn write truncates, a bit flip XORs one bit (clamped into
/// range). The fault-injection half of the crash/recover harness.
pub(crate) fn apply_fault(bytes: &mut Vec<u8>, plan: &FaultPlan) {
    if let Some(n) = plan.torn_write_after {
        bytes.truncate(n as usize);
    }
    if let Some(off) = plan.bit_flip_at {
        if !bytes.is_empty() {
            let i = (off as usize).min(bytes.len() - 1);
            bytes[i] ^= 0x01;
        }
    }
}

/// Atomically installs `bytes` as the checkpoint for `consumed` events:
/// temp file in the same directory, fsync, rename, best-effort
/// directory fsync. Returns the installed size in bytes. On any error
/// the temp file is removed, so a failed write leaves nothing behind.
pub(crate) fn write_atomic(dir: &Path, consumed: u64, bytes: &[u8]) -> Result<u64, String> {
    fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let final_path = dir.join(checkpoint_file_name(consumed));
    let tmp_path = dir.join(format!("ckpt-{consumed:020}{TMP_EXT}"));
    let install = || -> Result<(), String> {
        let mut f = fs::File::create(&tmp_path)
            .map_err(|e| format!("creating {}: {e}", tmp_path.display()))?;
        f.write_all(bytes)
            .and_then(|()| f.sync_all())
            .map_err(|e| format!("writing {}: {e}", tmp_path.display()))?;
        drop(f);
        fs::rename(&tmp_path, &final_path)
            .map_err(|e| format!("installing {}: {e}", final_path.display()))
    };
    if let Err(e) = install() {
        let _ = fs::remove_file(&tmp_path);
        return Err(e);
    }
    // Persist the rename itself; failure here only risks losing the
    // *newest* checkpoint to a power cut, which recovery tolerates.
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(bytes.len() as u64)
}

/// Prunes all but the newest `keep` checkpoints in `dir` (oldest
/// first), and every stale temp file: one exists only if a writer was
/// killed mid-write, and nothing would ever read or replace it. Only
/// call this with no write in flight (the engine calls it right after
/// its own). Returns how many checkpoints were removed.
pub(crate) fn prune_old(dir: &Path, keep: usize) -> u64 {
    for stale in list_files(dir, TMP_EXT) {
        let _ = fs::remove_file(stale);
    }
    let files = list_checkpoints(dir);
    let excess = files.len().saturating_sub(keep.max(1));
    let mut removed = 0;
    for path in &files[..excess] {
        if fs::remove_file(path).is_ok() {
            removed += 1;
        }
    }
    removed
}

/// Loads the newest checkpoint in `dir` that passes validation,
/// falling back file by file toward older ones. Returns the state and
/// the number of rejected (torn / corrupt / unreadable) newer files.
/// Errors only when no file validates.
pub(crate) fn load_latest(dir: &Path) -> Result<(Image<'static>, u64), String> {
    let files = list_checkpoints(dir);
    if files.is_empty() {
        return Err(format!("no checkpoints in {}", dir.display()));
    }
    let mut rejected = 0u64;
    for path in files.iter().rev() {
        let bytes = match fs::read(path) {
            Ok(b) => b,
            Err(_) => {
                rejected += 1;
                continue;
            }
        };
        match decode(&bytes) {
            Ok(state) => return Ok((state, rejected)),
            Err(_) => rejected += 1,
        }
    }
    Err(format!(
        "all {} checkpoint files in {} failed validation",
        files.len(),
        dir.display()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// A checkpoint the parent of the borrow-don't-clone write path
    /// wrote (see `tests/checkpoint_format.rs` for the workload).
    const V1_FIXTURE: &[u8] = include_bytes!("../../../tests/fixtures/ckpt-v1.slim");

    /// The image as a fresh file's bytes, through the one encoder.
    fn encode(image: &Image) -> Vec<u8> {
        let mut out = Vec::new();
        encode_into(&mut out, image);
        out
    }

    /// The bit-at-a-time CRC-32 the table-driven [`crc32`] replaced,
    /// kept as its oracle.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_known_answers() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Table == bitwise on pseudo-random bytes at every length
    /// 0..=4099 from every start offset 0..8 of one allocation — the
    /// eight-byte main loop plus tail is where slicing goes wrong.
    #[test]
    fn crc32_tables_match_the_bitwise_oracle() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..4099 + 8)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect();
        for start in 0..8 {
            for len in 0..=4099 {
                let bytes = &buf[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bitwise(bytes),
                    "start {start}, length {len}"
                );
            }
        }
    }

    fn sample_state() -> Image<'static> {
        let ev = StreamEvent::new(
            Side::Left,
            EntityId(7),
            LatLng::from_degrees(41.0, 29.0),
            Timestamp(1234),
        );
        let cell = CellId::from_latlng(LatLng::from_degrees(41.0, 29.0), 12);
        Image {
            meta: MetaDump {
                consumed: 42,
                fingerprint: ConfigFingerprint::of(&StreamConfig::default()),
            },
            engine: EngineDump {
                origin: Some(1000),
                domain: 5,
                watermark: 2,
                expired_below: 1,
                events_since_refresh: 3,
                stats: StreamStats {
                    events: 42,
                    ticks: 2,
                    ..StreamStats::default()
                },
                scoring: LinkageStats {
                    scored_entity_pairs: 9,
                    ..LinkageStats::default()
                },
                links: vec![Edge {
                    left: EntityId(1),
                    right: EntityId(2),
                    weight: 0.75,
                }],
                epoch_events: 40,
                epoch_threshold: Some(0.5),
                epoch_frontier: Some(999),
                matcher_edges: vec![Edge {
                    left: EntityId(1),
                    right: EntityId(2),
                    weight: 0.75,
                }],
                warm_seed: Some(Gmm2 {
                    low: Component {
                        weight: 0.4,
                        mean: 0.1,
                        std_dev: 0.05,
                    },
                    high: Component {
                        weight: 0.6,
                        mean: 0.8,
                        std_dev: 0.1,
                    },
                    avg_log_likelihood: -1.25,
                    iterations: 17,
                }),
                df: [
                    DfDump {
                        entries: vec![(0, cell, 3)],
                        total_bins: 3,
                        num_entities: 1,
                    },
                    DfDump::default(),
                ],
            },
            shards: ShardsDump {
                histories: [
                    vec![(
                        EntityId(7),
                        HistoryDump {
                            wins: vec![0, 1].into(),
                            cells: vec![cell, cell].into(),
                            counts: vec![2, 1].into(),
                            window_records: vec![(0, 2), (1, 1)].into(),
                        },
                    )],
                    Vec::new(),
                ],
                pending: [
                    vec![(
                        EntityId(9),
                        vec![BinnedEvent {
                            side: Side::Left,
                            entity: EntityId(9),
                            w: 1,
                            cells: vec![cell],
                            lsh_cells: Vec::new(),
                        }]
                        .into(),
                    )],
                    Vec::new(),
                ],
                live_events: [Vec::new(), Vec::new()],
                active: [vec![EntityId(7)], vec![EntityId(3)]],
                dirty: [
                    vec![(EntityId(7), Cow::Owned(BTreeSet::from([0, 1])))],
                    Vec::new(),
                ],
                dead: [Vec::new(), vec![EntityId(5)]],
                rings: vec![RingDump {
                    side: Side::Left,
                    entity: EntityId(7),
                    ring: Cow::Owned(SpanRing {
                        slots: vec![BTreeMap::from([((0, cell), 2)]), BTreeMap::new()],
                        owners: vec![Some(0), None],
                        sig: vec![Some(cell), None],
                        buckets: Vec::new(),
                    }),
                }],
                cache: vec![(
                    (EntityId(7), EntityId(3)),
                    Cow::Owned(vec![(0, 0.5), (1, 0.25)]),
                )],
                fresh: vec![(EntityId(7), EntityId(3))],
                edges: vec![((EntityId(7), EntityId(3)), 0.75)],
                edge_deltas: vec![((EntityId(7), EntityId(3)), Some(0.8))],
            },
            pump: ResumeState {
                consumed: 42,
                reorder_max_seen: Some(1234),
                reorder_held: vec![ev],
                reorder_late: 1,
                ticker: Ticker::Watermark {
                    width: 3600,
                    origin: Some(1000),
                    sealed_below: 2,
                    pending: vec![ev],
                },
            },
        }
    }

    /// Field-by-field equality of two checkpoint states, via the
    /// canonical wire form (the structs hold floats, so the bit-exact
    /// comparison the format guarantees *is* encoded equality).
    fn assert_same(a: &Image, b: &Image) {
        assert_eq!(encode(a), encode(b));
    }

    #[test]
    fn encode_decode_round_trips() {
        let state = sample_state();
        let bytes = encode(&state);
        let back = decode(&bytes).expect("round trip");
        assert_same(&state, &back);
        assert_eq!(back.meta.consumed, 42);
        assert_eq!(back.pump.reorder_held.len(), 1);
    }

    #[test]
    fn every_single_bit_flip_is_detected_or_harmless() {
        let state = sample_state();
        let bytes = encode(&state);
        // Flip one bit at a sample of offsets across the file: decode
        // must either reject (Err) or — never — silently change state.
        for off in (0..bytes.len()).step_by(7) {
            let mut corrupt = bytes.clone();
            corrupt[off] ^= 0x10;
            match decode(&corrupt) {
                Err(_) => {}
                Ok(back) => panic!(
                    "bit flip at offset {off} decoded successfully ({})",
                    if encode(&back) == bytes {
                        "same state?!"
                    } else {
                        "DIFFERENT state"
                    }
                ),
            }
        }
    }

    #[test]
    fn truncation_at_any_length_is_an_error_not_a_panic() {
        let state = sample_state();
        let bytes = encode(&state);
        for len in (0..bytes.len()).step_by(11) {
            assert!(decode(&bytes[..len]).is_err(), "truncated to {len}");
        }
        assert!(decode(&[]).is_err(), "zero-length");
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = encode(&sample_state());
        bytes.push(0);
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn fingerprint_detects_config_drift() {
        let base = StreamConfig::default();
        let fp = ConfigFingerprint::of(&base);
        assert!(fp.check(&base).is_ok());
        let mut other = base;
        other.slim.window_width_secs += 1;
        assert!(fp.check(&other).is_err());
        // Shard/worker counts are *not* fingerprinted: checkpoints are
        // shard-agnostic.
        let mut sharded = base;
        sharded.num_shards = 7;
        sharded.num_workers = 3;
        assert!(fp.check(&sharded).is_ok());
    }

    #[test]
    fn atomic_write_lists_and_prunes_in_order() {
        let dir = std::env::temp_dir().join(format!("slim-ckpt-gc-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let bytes = encode(&sample_state());
        for consumed in [100u64, 300, 200, 400] {
            write_atomic(&dir, consumed, &bytes).unwrap();
        }
        let names: Vec<String> = list_checkpoints(&dir)
            .iter()
            .map(|p| p.file_name().unwrap().to_str().unwrap().to_string())
            .collect();
        assert_eq!(
            names,
            vec![
                checkpoint_file_name(100),
                checkpoint_file_name(200),
                checkpoint_file_name(300),
                checkpoint_file_name(400),
            ],
            "lexical order is numeric order"
        );
        assert_eq!(prune_old(&dir, 2), 2, "two oldest pruned");
        let names: Vec<String> = list_checkpoints(&dir)
            .iter()
            .map(|p| p.file_name().unwrap().to_str().unwrap().to_string())
            .collect();
        assert_eq!(
            names,
            vec![checkpoint_file_name(300), checkpoint_file_name(400)],
            "newest K survive"
        );
        // No temp files left behind.
        assert!(fs::read_dir(&dir).unwrap().all(|e| !e
            .unwrap()
            .file_name()
            .to_str()
            .unwrap()
            .ends_with(".tmp")));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_latest_falls_back_past_corruption() {
        let dir = std::env::temp_dir().join(format!("slim-ckpt-fb-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut good = sample_state();
        good.meta.consumed = 100;
        write_atomic(&dir, 100, &encode(&good)).unwrap();
        // Newest checkpoint: torn mid-frame.
        let mut torn = encode(&sample_state());
        let plan = FaultPlan {
            torn_write_after: Some(torn.len() as u64 / 2),
            ..FaultPlan::default()
        };
        apply_fault(&mut torn, &plan);
        write_atomic(&dir, 200, &torn).unwrap();
        // Even newer: bit-flipped.
        let mut flipped = encode(&sample_state());
        let flip_plan = FaultPlan {
            bit_flip_at: Some(flipped.len() as u64 - 30),
            ..FaultPlan::default()
        };
        apply_fault(&mut flipped, &flip_plan);
        write_atomic(&dir, 300, &flipped).unwrap();
        // And a zero-length file.
        write_atomic(&dir, 400, &[]).unwrap();

        let (state, rejected) = load_latest(&dir).expect("fallback finds the good one");
        assert_eq!(state.meta.consumed, 100);
        assert_eq!(rejected, 3, "three newer files rejected");

        // All-corrupt directory: an error, not a panic.
        fs::remove_file(dir.join(checkpoint_file_name(100))).unwrap();
        assert!(load_latest(&dir).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_directory_is_an_error() {
        let dir = std::env::temp_dir().join("slim-ckpt-definitely-absent");
        assert!(load_latest(&dir).is_err());
        assert!(list_checkpoints(&dir).is_empty());
    }

    /// `VERSION` did not move: a file the previous write path produced
    /// decodes, and the one encoder reproduces it byte for byte.
    #[test]
    fn parent_written_fixture_decodes_and_re_encodes_byte_identically() {
        let image = decode(V1_FIXTURE).expect("a version-1 file decodes");
        assert_eq!(image.meta.consumed, 60);
        // The fixture is only a witness if the collections are there.
        let s = &image.shards;
        for side in 0..2 {
            assert!(!s.histories[side].is_empty(), "histories[{side}]");
            assert!(!s.pending[side].is_empty(), "pending[{side}]");
            assert!(!s.live_events[side].is_empty(), "live_events[{side}]");
            assert!(!s.active[side].is_empty(), "active[{side}]");
        }
        assert!(!s.rings.is_empty() && !s.cache.is_empty() && !s.edges.is_empty());
        assert!(!image.engine.links.is_empty() && !image.engine.matcher_edges.is_empty());
        assert!(!image.pump.reorder_held.is_empty());
        assert!(encode(&image) == V1_FIXTURE, "re-encoded bytes differ");
    }

    /// A CRC-valid file may claim any sequence length up to its own
    /// size. 11 MB of zeros parse as 33-byte empty rings, so the count
    /// below passes the bytes-remaining guard; pre-sizing for it would
    /// ask for over a gigabyte of `RingDump`s before the payload runs
    /// out (an abort where memory is capped). [`Dec::vec`] reserves at
    /// most [`MAX_PREALLOC`] elements ahead, and the result is the
    /// promised `Err`.
    #[test]
    fn crafted_sequence_length_is_an_error_not_a_giant_allocation() {
        const CLAIMED: usize = 11_000_000;
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        put_u32(&mut bytes, VERSION);
        let sample = sample_state();
        frame(&mut bytes, TAG_META, |o| encode_meta(o, &sample.meta));
        frame(&mut bytes, TAG_ENGINE, |o| encode_engine(o, &sample.engine));
        frame(&mut bytes, TAG_SHARDS, |o| {
            for _ in 0..12 {
                put_u64(o, 0); // six empty per-side collections, twice
            }
            put_u64(o, CLAIMED as u64); // rings
            o.resize(o.len() + CLAIMED, 0);
        });
        frame(&mut bytes, TAG_PUMP, |o| encode_pump(o, &sample.pump));
        frame(&mut bytes, TAG_END, |_| {});
        let err = decode(&bytes).expect_err("the rings run out of payload");
        assert!(err.contains("truncated"), "unexpected error: {err}");
    }

    /// The shard binary-searches a pair's cached windows, so a
    /// CRC-valid image that lists them out of order, or twice, is
    /// refused at the door rather than restored.
    #[test]
    fn unsorted_cached_windows_are_rejected() {
        for wins in [vec![(1, 0.25), (0, 0.5)], vec![(0, 0.5), (0, 0.25)]] {
            let mut state = sample_state();
            state.shards.cache[0].1 = Cow::Owned(wins);
            let err = decode(&encode(&state)).expect_err("windows must ascend");
            assert!(err.contains("not ascending"), "unexpected error: {err}");
        }
    }

    /// The arena restores history columns as they arrive, so a
    /// CRC-valid image whose columns an arena could not have exported is
    /// refused at the door — by name — rather than restored into
    /// misaligned columns.
    #[test]
    fn malformed_history_columns_are_rejected() {
        let cell = |k: u64| CellId::from_latlng(LatLng::from_degrees(1.0, k as f64), 12);
        let (a, b) = (cell(1).min(cell(2)), cell(1).max(cell(2)));
        let dump =
            |wins: &[u32], cells: &[CellId], counts: &[u32], records: &[(u32, u32)]| HistoryDump {
                wins: wins.to_vec().into(),
                cells: cells.to_vec().into(),
                counts: counts.to_vec().into(),
                window_records: records.to_vec().into(),
            };
        // Window 0 holds a region record over both cells plus a point
        // record, window 1 one point record.
        let good = || dump(&[0, 0, 1], &[a, b, a], &[2, 1, 1], &[(0, 2), (1, 1)]);
        let decode_with = |histories: Vec<(EntityId, HistoryDump<'static>)>| {
            let mut state = sample_state();
            state.shards.histories[0] = histories;
            decode(&encode(&state)).map(|_| ())
        };
        assert_eq!(decode_with(vec![(EntityId(7), good())]), Ok(()));

        let records = [(0, 2), (1, 1)];
        let cases = [
            ("ragged", dump(&[0, 0, 1], &[a, b], &[2, 1, 1], &records)),
            (
                "ragged",
                dump(&[0, 0, 1], &[a, b, a], &[2, 1, 1, 1], &records),
            ),
            ("no bins", dump(&[], &[], &[], &[])),
            (
                "not ascending",
                dump(&[0, 1, 0], &[a, a, b], &[2, 1, 1], &records),
            ),
            (
                "not ascending",
                dump(&[0, 0, 1], &[b, a, a], &[2, 1, 1], &records),
            ),
            (
                "not ascending",
                dump(&[0, 0, 1], &[a, a, a], &[2, 1, 1], &records),
            ),
            (
                "zero count",
                dump(&[0, 0, 1], &[a, b, a], &[2, 0, 1], &records),
            ),
            (
                "zero count",
                dump(&[0, 0, 1], &[a, b, a], &[2, 1, 1], &[(0, 2), (1, 0)]),
            ),
            (
                "exactly the windows",
                dump(&[0, 0, 1], &[a, b, a], &[2, 1, 1], &[(1, 1), (0, 2)]),
            ),
            (
                "exactly the windows",
                dump(&[0, 0, 1], &[a, b, a], &[2, 1, 1], &[(0, 2)]),
            ),
            (
                "exactly the windows",
                dump(
                    &[0, 0, 1],
                    &[a, b, a],
                    &[2, 1, 1],
                    &[(0, 2), (1, 1), (2, 1)],
                ),
            ),
        ];
        for (i, (expect, malformed)) in cases.into_iter().enumerate() {
            let err = decode_with(vec![(EntityId(7), malformed)]).expect_err("malformed columns");
            assert!(
                err.contains("EntityId(7)") && err.contains(expect),
                "case {i}: unexpected error: {err}"
            );
        }
        // The same entity twice on one side.
        let err = decode_with(vec![(EntityId(7), good()), (EntityId(7), good())])
            .expect_err("an entity restored twice");
        assert!(
            err.contains("EntityId(7)") && err.contains("listed twice"),
            "unexpected error: {err}"
        );
    }

    /// A failed write removes its own temp file; a temp file a killed
    /// writer left behind is swept by the next prune.
    #[test]
    fn temp_files_do_not_outlive_a_failed_or_killed_write() {
        let dir = std::env::temp_dir().join(format!("slim-ckpt-tmp-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let bytes = encode(&sample_state());
        let temp_files = |dir: &Path| list_files(dir, TMP_EXT);

        // Make the install step fail: the final name is taken by a
        // non-empty directory, which `rename` cannot replace.
        let blocked = dir.join(checkpoint_file_name(100));
        fs::create_dir_all(blocked.join("occupied")).unwrap();
        let err = write_atomic(&dir, 100, &bytes).expect_err("rename onto a directory");
        assert!(err.contains("installing"), "unexpected error: {err}");
        assert!(
            temp_files(&dir).is_empty(),
            "failed write left its temp file"
        );
        fs::remove_dir_all(&blocked).unwrap();

        // A writer killed mid-write: its temp file is on disk and no
        // checkpoint lists it.
        write_atomic(&dir, 200, &bytes).unwrap();
        let stale = dir.join(format!("ckpt-{:020}{TMP_EXT}", 300));
        fs::write(&stale, &bytes[..bytes.len() / 2]).unwrap();
        assert_eq!(
            list_checkpoints(&dir).len(),
            1,
            "temp files are not checkpoints"
        );
        assert_eq!(prune_old(&dir, 2), 0, "nothing beyond retention");
        assert!(!stale.exists(), "prune sweeps the stale temp file");
        assert_eq!(list_checkpoints(&dir).len(), 1, "the checkpoint survives");
        let _ = fs::remove_dir_all(&dir);
    }
}
