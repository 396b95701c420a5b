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
//! eight bytes per step from compile-time tables (`crc32`; a bitwise
//! reference loop pins it in the unit tests). The CRC is verified
//! *before* the payload is parsed, so a torn or bit-flipped file is
//! rejected with an error — never a panic — and the loader falls back
//! to the next-older file. A length the file claims is never trusted
//! for more than the bytes actually present.
//!
//! # Codec
//!
//! Every type on the wire has one `Wire` impl whose `put` and `get`
//! spell its layout once; a record goes through `wire_struct!`, whose
//! field list is both the write order and the read order. Adding a
//! field is therefore one edit — plus a `VERSION` bump, because the
//! bytes change.
//!
//! # Write path
//!
//! There is one encoder, `encode_into`, and it serializes an
//! `Image` straight into a caller-owned buffer that the engine keeps
//! across checkpoints (cleared, capacity retained). A frame is opened
//! by reserving its 16-byte header and closed by patching length and
//! CRC over the payload range in place, so no section is staged in a
//! buffer of its own. The image *borrows* the engine: every shard
//! collection is a `Cow::Borrowed` view of the live maps, arena columns
//! and rings, and only `decode` produces the owned form (which
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
//! A failed write removes its own temp file, and `prune_old` sweeps
//! up any temp file a killed writer left behind.
//!
//! # Sharding
//!
//! Checkpoints are **shard-agnostic**: the engine gathers, per
//! collection, one index of references into every shard and sorts it by
//! key (entity, pair, or `(side, entity)`), and the encoder walks that
//! index — merged by sorted reference, not by copy. The bytes are the
//! same for every shard count, and recovery redistributes them by the
//! deterministic entity hash (`shard::entity_shard`). A
//! checkpoint written by a 4-shard engine recovers bit-identically on a
//! 1-shard one and vice versa.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
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
/// Format version; bumped on any wire-layout change. Version 1 files,
/// which kept parked entities' events in min-records buffers beside a
/// copy of every active entity's live events, still decode.
pub(crate) const VERSION: u32 = 2;

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

/// One binned event of a version-1 min-records buffer, as that version
/// wrote it.
#[derive(Debug, Clone)]
pub(crate) struct PendingEvent {
    pub(crate) side: Side,
    pub(crate) entity: EntityId,
    pub(crate) w: WindowIdx,
    cells: Vec<CellId>,
    lsh_cells: Vec<CellId>,
}

impl PendingEvent {
    /// The event as ingest's binning would have left it.
    pub(crate) fn binned(&self) -> BinnedEvent<'_> {
        BinnedEvent {
            side: self.side,
            entity: self.entity,
            w: self.w,
            cells: &self.cells,
            lsh_cells: &self.lsh_cells,
        }
    }
}

/// Per-shard state, merged across shards into globally sorted
/// collections (sorted by entity, pair, or `(side, entity)` key) so the
/// dump is identical for every shard count. The sorted `Vec`s are the
/// index; what they point at stays in the shards (`Cow::Borrowed`)
/// unless the dump was decoded from a file (`Cow::Owned`).
#[derive(Debug, Clone, Default)]
pub(crate) struct ShardsDump<'a> {
    /// Per-side mobility histories (columnar arena contents), active
    /// and parked entities alike.
    pub(crate) histories: [Vec<(EntityId, HistoryDump<'a>)>; 2],
    /// The windows [`crate::StreamStats::evicted_windows`] will count,
    /// ascending: every window an active entity appended to, across
    /// shards. A version-1 file lacks them; its decoder lists the
    /// windows its histories, all of active entities, hold bins in.
    pub(crate) active_windows: Vec<WindowIdx>,
    /// Read from a version-1 file only, never written: its per-side
    /// min-records buffers, which recovery folds into the parked arena.
    pub(crate) v1_pending: [Vec<(EntityId, Vec<PendingEvent>)>; 2],
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
// Codec
// ---------------------------------------------------------------------

/// One type's wire layout, written once: `put` appends it and `get`
/// reads it back in the same order, so the two halves cannot drift.
trait Wire: Sized {
    fn put(&self, out: &mut Vec<u8>);
    fn get(d: &mut Dec) -> Result<Self, String>;
}

/// Most elements [`Dec::vec`] reserves room for before any has parsed.
const MAX_PREALLOC: usize = 4096;

/// Bounds-checked little-endian reader over a frame payload. Every
/// overrun is an `Err`, never a panic — the corruption-tolerance
/// contract of the loader.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    /// The file's format version, for the layouts that changed.
    version: u32,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8], version: u32) -> Self {
        Self {
            buf,
            pos: 0,
            version,
        }
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

    /// A sequence length. Every element costs at least one byte on the
    /// wire, so a length beyond the remaining payload is corrupt.
    fn len(&mut self) -> Result<usize, String> {
        let n = u64::get(self)? as usize;
        if n > self.remaining() {
            return Err(format!("corrupt sequence length {n} exceeds payload"));
        }
        Ok(n)
    }

    fn vec<T: Wire>(&mut self) -> Result<Vec<T>, String> {
        self.vec_checked(|_| Ok(()))
    }

    /// [`Dec::vec`], refusing an element `check` rejects as soon as it
    /// has parsed.
    fn vec_checked<T: Wire>(
        &mut self,
        check: impl Fn(&T) -> Result<(), String>,
    ) -> Result<Vec<T>, String> {
        let n = self.len()?;
        // The one-byte-per-element bound above still lets a CRC-valid
        // file claim millions of elements that are ~100 bytes each in
        // memory; reserve for a bounded number up front and let the
        // vector grow only as elements actually parse.
        let mut v = Vec::with_capacity(n.min(MAX_PREALLOC));
        for _ in 0..n {
            let item = T::get(self)?;
            check(&item)?;
            v.push(item);
        }
        Ok(v)
    }

    /// [`Dec::vec`] into a map or set (which allocate per element
    /// parsed, so need no reservation cap).
    fn collect<T: Wire, C: FromIterator<T>>(&mut self) -> Result<C, String> {
        (0..self.len()?).map(|_| T::get(self)).collect()
    }

    fn done(&self) -> Result<(), String> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(format!("{} trailing bytes in payload", self.remaining()))
        }
    }
}

/// Decodes one frame payload of a version-`version` file: exactly one
/// `T`, nothing after it.
fn section<T: Wire>(payload: &[u8], version: u32) -> Result<T, String> {
    let mut d = Dec::new(payload, version);
    let v = T::get(&mut d)?;
    d.done()?;
    Ok(v)
}

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn get(d: &mut Dec) -> Result<Self, String> {
                let bytes = d.take(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("took its size")))
            }
        }
    )*};
}
wire_int!(u8, u32, u64, i64);

impl Wire for f64 {
    fn put(&self, out: &mut Vec<u8>) {
        self.to_bits().put(out);
    }
    fn get(d: &mut Dec) -> Result<Self, String> {
        Ok(f64::from_bits(u64::get(d)?))
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            None => 0u8.put(out),
            Some(x) => {
                1u8.put(out);
                x.put(out);
            }
        }
    }
    fn get(d: &mut Dec) -> Result<Self, String> {
        match u8::get(d)? {
            0 => Ok(None),
            1 => Ok(Some(T::get(d)?)),
            t => Err(format!("invalid option tag {t}")),
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn get(d: &mut Dec) -> Result<Self, String> {
        Ok((A::get(d)?, B::get(d)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
        self.2.put(out);
    }
    fn get(d: &mut Dec) -> Result<Self, String> {
        Ok((A::get(d)?, B::get(d)?, C::get(d)?))
    }
}

impl<T: Wire> Wire for [T; 2] {
    fn put(&self, out: &mut Vec<u8>) {
        self[0].put(out);
        self[1].put(out);
    }
    fn get(d: &mut Dec) -> Result<Self, String> {
        Ok([T::get(d)?, T::get(d)?])
    }
}

/// A length-prefixed sequence, straight from whatever holds it (`Vec`,
/// borrowed slice, `BTreeSet`) — nothing is collected first.
fn write_seq<'a, T: Wire + 'a>(out: &mut Vec<u8>, items: impl ExactSizeIterator<Item = &'a T>) {
    (items.len() as u64).put(out);
    for it in items {
        it.put(out);
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        write_seq(out, self.iter());
    }
    fn get(d: &mut Dec) -> Result<Self, String> {
        d.vec()
    }
}

impl<T: Wire + Clone> Wire for Cow<'_, [T]> {
    fn put(&self, out: &mut Vec<u8>) {
        write_seq(out, self.iter());
    }
    fn get(d: &mut Dec) -> Result<Self, String> {
        Ok(Cow::Owned(d.vec()?))
    }
}

impl<T: Wire + Clone> Wire for Cow<'_, T> {
    fn put(&self, out: &mut Vec<u8>) {
        (**self).put(out);
    }
    fn get(d: &mut Dec) -> Result<Self, String> {
        Ok(Cow::Owned(T::get(d)?))
    }
}

impl<T: Wire + Ord> Wire for BTreeSet<T> {
    fn put(&self, out: &mut Vec<u8>) {
        write_seq(out, self.iter());
    }
    fn get(d: &mut Dec) -> Result<Self, String> {
        d.collect()
    }
}

impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u64).put(out);
        for (k, v) in self {
            k.put(out);
            v.put(out);
        }
    }
    fn get(d: &mut Dec) -> Result<Self, String> {
        d.collect()
    }
}

/// A record whose wire layout is its fields in the order listed: the
/// one list is both the write order and the read order.
macro_rules! wire_struct {
    ($($ty:ty { $($field:ident),* $(,)? })*) => {$(
        impl Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$field.put(out);)*
            }
            fn get(d: &mut Dec) -> Result<Self, String> {
                Ok(Self { $($field: Wire::get(d)?),* })
            }
        }
    )*};
}

wire_struct! {
    Edge { left, right, weight }
    Component { weight, mean, std_dev }
    Gmm2 { low, high, avg_log_likelihood, iterations }
    LinkageStats {
        scored_entity_pairs,
        bin_pair_comparisons,
        record_pair_comparisons,
        alibi_pairs,
    }
    PendingEvent { side, entity, w, cells, lsh_cells }
    HistoryDump<'_> { wins, cells, counts, window_records }
    RingDump<'_> { side, entity, ring }
    DfDump { entries, total_bins, num_entities }
    LshFingerprint { spans, step_windows, spatial_level, threshold_bits, num_buckets }
    ConfigFingerprint { window_width_secs, spatial_level, min_records, window_capacity, lsh }
    MetaDump { consumed, fingerprint }
    EngineDump {
        origin,
        domain,
        watermark,
        expired_below,
        events_since_refresh,
        stats,
        scoring,
        links,
        epoch_events,
        epoch_threshold,
        epoch_frontier,
        matcher_edges,
        warm_seed,
        df,
    }
    ResumeState { consumed, reorder_max_seen, reorder_held, reorder_late, ticker }
}

impl Wire for Side {
    fn put(&self, out: &mut Vec<u8>) {
        (self.idx() as u8).put(out);
    }
    fn get(d: &mut Dec) -> Result<Self, String> {
        match u8::get(d)? {
            0 => Ok(Side::Left),
            1 => Ok(Side::Right),
            t => Err(format!("invalid side tag {t}")),
        }
    }
}

impl Wire for EntityId {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
    }
    fn get(d: &mut Dec) -> Result<Self, String> {
        Ok(EntityId(u64::get(d)?))
    }
}

/// A cell id. The CRC has already vouched for the bytes, so invalid
/// bits can only mean a writer bug — but return an error rather than
/// panicking all the same.
impl Wire for CellId {
    fn put(&self, out: &mut Vec<u8>) {
        self.to_u64().put(out);
    }
    fn get(d: &mut Dec) -> Result<Self, String> {
        let raw = u64::get(d)?;
        CellId::try_from_u64(raw).ok_or_else(|| format!("invalid cell id {raw:#x}"))
    }
}

/// An event with its location in radians, exactly as it was built.
impl Wire for StreamEvent {
    fn put(&self, out: &mut Vec<u8>) {
        self.side.put(out);
        self.entity.put(out);
        self.location.lat_rad().put(out);
        self.location.lng_rad().put(out);
        self.time.secs().put(out);
        self.accuracy_m.put(out);
    }
    fn get(d: &mut Dec) -> Result<Self, String> {
        Ok(StreamEvent {
            side: Wire::get(d)?,
            entity: Wire::get(d)?,
            location: LatLng::from_radians(f64::get(d)?, f64::get(d)?),
            time: Timestamp(i64::get(d)?),
            accuracy_m: f64::get(d)?,
        })
    }
}

/// The ring without its band-bucket cache: that is derived from `sig`,
/// and `ShardRings::restore` rebuilds it. The counts travel as one
/// `(window, cell)`-ordered map, which is how version 2 kept them; they
/// decode keyed as one-window spans, and `ShardRings::restore` re-keys
/// them. Version 1 wrote them as one map per slot.
impl Wire for SpanRing {
    fn put(&self, out: &mut Vec<u8>) {
        let mut counts: Vec<((WindowIdx, CellId), u32)> = self
            .counts
            .iter()
            .map(|(&(_, cell, w), &n)| ((w, cell), n))
            .collect();
        counts.sort_unstable_by_key(|&(key, _)| key);
        counts.put(out);
        self.owners.put(out);
        self.sig.put(out);
    }
    fn get(d: &mut Dec) -> Result<Self, String> {
        let counts: BTreeMap<(WindowIdx, CellId), u32> = match d.version {
            1 => d.vec::<BTreeMap<_, _>>()?.into_iter().flatten().collect(),
            _ => Wire::get(d)?,
        };
        Ok(SpanRing {
            counts: counts
                .into_iter()
                .map(|((w, cell), n)| ((w, cell, w), n))
                .collect(),
            owners: Wire::get(d)?,
            sig: Wire::get(d)?,
            buckets: Vec::new(),
        })
    }
}

/// A tag byte, then the variant's fields.
impl Wire for Ticker {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Ticker::EveryN => 0u8.put(out),
            Ticker::EventTime {
                interval,
                origin,
                last_cell,
            } => {
                1u8.put(out);
                interval.put(out);
                origin.put(out);
                last_cell.put(out);
            }
            Ticker::Watermark {
                width,
                origin,
                sealed_below,
                pending,
            } => {
                2u8.put(out);
                width.put(out);
                origin.put(out);
                sealed_below.put(out);
                pending.put(out);
            }
        }
    }
    fn get(d: &mut Dec) -> Result<Self, String> {
        match u8::get(d)? {
            0 => Ok(Ticker::EveryN),
            1 => Ok(Ticker::EventTime {
                interval: Wire::get(d)?,
                origin: Wire::get(d)?,
                last_cell: Wire::get(d)?,
            }),
            2 => Ok(Ticker::Watermark {
                width: Wire::get(d)?,
                origin: Wire::get(d)?,
                sealed_below: Wire::get(d)?,
                pending: Wire::get(d)?,
            }),
            t => Err(format!("invalid ticker tag {t}")),
        }
    }
}

/// Every [`StreamStats`] row in declaration order — which is therefore
/// the wire layout: a row may only be appended, with a [`VERSION`] bump.
impl Wire for StreamStats {
    fn put(&self, out: &mut Vec<u8>) {
        for (_, _, value) in self.rows() {
            value.put(out);
        }
    }
    fn get(d: &mut Dec) -> Result<Self, String> {
        let mut stats = StreamStats::default();
        for (_, _, value) in stats.rows_mut() {
            *value = u64::get(d)?;
        }
        Ok(stats)
    }
}

/// Side 0's four per-side collections, then side 1's, then the
/// cross-side ones (the counted windows first). A version-1 file has
/// two more per side after the histories: the min-records buffers,
/// kept for recovery to fold in, and the live-event copies, dropped.
/// Decoding refuses what a shard could not hold: a malformed history
/// ([`check_history`]), an entity listed twice or out of order, and a
/// pair's cached windows out of order (the shard binary-searches them).
impl Wire for ShardsDump<'_> {
    fn put(&self, out: &mut Vec<u8>) {
        for i in 0..2 {
            self.histories[i].put(out);
            self.active[i].put(out);
            self.dirty[i].put(out);
            self.dead[i].put(out);
        }
        self.active_windows.put(out);
        self.rings.put(out);
        self.cache.put(out);
        self.fresh.put(out);
        self.edges.put(out);
        self.edge_deltas.put(out);
    }
    fn get(d: &mut Dec) -> Result<Self, String> {
        let mut s = ShardsDump::default();
        for i in 0..2 {
            s.histories[i] = d.vec_checked(|(e, h)| check_history(*e, h))?;
            if let Some(p) = s.histories[i].windows(2).find(|p| p[0].0 >= p[1].0) {
                return Err(format!(
                    "history of {:?}: listed twice or out of order",
                    p[1].0
                ));
            }
            if d.version == 1 {
                s.v1_pending[i] = d.vec()?;
                d.vec::<(EntityId, Vec<PendingEvent>)>()?;
            }
            s.active[i] = d.vec()?;
            s.dirty[i] = d.vec()?;
            s.dead[i] = d.vec()?;
        }
        s.active_windows = match d.version {
            // Version 1 kept only active entities' histories.
            1 => {
                let held = s
                    .histories
                    .iter()
                    .flatten()
                    .flat_map(|(_, h)| h.window_records.iter());
                let windows: BTreeSet<WindowIdx> = held.map(|&(w, _)| w).collect();
                windows.into_iter().collect()
            }
            _ => d.vec()?,
        };
        s.rings = d.vec()?;
        s.cache = d.vec_checked(|(pair, wins): &(PairKey, Cow<[Contribution]>)| {
            if wins.windows(2).any(|p| p[0].0 >= p[1].0) {
                return Err(format!("pair {pair:?}: cached windows not ascending"));
            }
            Ok(())
        })?;
        s.fresh = d.vec()?;
        s.edges = d.vec()?;
        s.edge_deltas = d.vec()?;
        Ok(s)
    }
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

// ---------------------------------------------------------------------
// Whole-file codec
// ---------------------------------------------------------------------

/// Bytes of a frame header after its tag: payload length, then CRC.
const FRAME_LEN_CRC: usize = 12;

/// Appends one frame whose payload `body` writes directly into `out`:
/// the length and CRC slots are reserved first and patched once the
/// payload range is known.
fn frame(out: &mut Vec<u8>, tag: u32, body: impl FnOnce(&mut Vec<u8>)) {
    tag.put(out);
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
    VERSION.put(out);
    frame(out, TAG_META, |o| image.meta.put(o));
    frame(out, TAG_ENGINE, |o| image.engine.put(o));
    frame(out, TAG_SHARDS, |o| image.shards.put(o));
    frame(out, TAG_PUMP, |o| image.pump.put(o));
    frame(out, TAG_END, |_| {});
}

/// Parses and validates a checkpoint file image. Strict: bad magic or
/// version, any frame CRC mismatch, a missing or duplicated section, a
/// missing END frame, or trailing bytes are all errors — and *never*
/// panics, whatever the input.
pub(crate) fn decode(bytes: &[u8]) -> Result<Image<'static>, String> {
    let mut d = Dec::new(bytes, VERSION);
    if d.take(MAGIC.len())? != MAGIC {
        return Err("bad magic: not a checkpoint file".into());
    }
    let version = u32::get(&mut d)?;
    if !(1..=VERSION).contains(&version) {
        return Err(format!(
            "unsupported checkpoint version {version} (expected 1 to {VERSION})"
        ));
    }
    let mut meta = None;
    let mut engine = None;
    let mut shards = None;
    let mut pump = None;
    loop {
        let tag = u32::get(&mut d)?;
        let len = u64::get(&mut d)? as usize;
        let crc = u32::get(&mut d)?;
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
            TAG_META if meta.is_none() => meta = Some(section(payload, version)?),
            TAG_ENGINE if engine.is_none() => engine = Some(section(payload, version)?),
            TAG_SHARDS if shards.is_none() => shards = Some(section(payload, version)?),
            TAG_PUMP if pump.is_none() => pump = Some(section(payload, version)?),
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

    /// The last version-1 checkpoint of the workload in
    /// `tests/checkpoint_format.rs`, and the version-2 checkpoint the same
    /// drive writes.
    const V1_FIXTURE: &[u8] = include_bytes!("../../../tests/fixtures/ckpt-v1.slim");
    const V2_FIXTURE: &[u8] = include_bytes!("../../../tests/fixtures/ckpt-v2.slim");

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
                active_windows: vec![0, 1],
                v1_pending: Default::default(),
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
                        counts: BTreeMap::from([((0, cell, 0), 2)]),
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

    /// `sample_state()` encoded three times — with its own `Watermark`
    /// ticker, with `EveryN` and with `EventTime` — one file after the
    /// other. It pins the layouts the fixtures never reach (a warm seed,
    /// an epoch threshold, dirty marks, dead entities, fresh pairs, edge
    /// deltas, empty ring slots, the other two tickers), so an edit made
    /// the same way to both halves of a layout cannot pass as a round
    /// trip.
    const LAYOUT_PIN: &[u8] = include_bytes!("../../../tests/fixtures/ckpt-v2-layouts.bin");

    /// The same three images as version 1 wrote them, when every layout
    /// still had a hand-mirrored decoder and the sample also parked one
    /// event of `EntityId(9)` in a min-records buffer.
    const V1_LAYOUT_PIN: &[u8] = include_bytes!("../../../tests/fixtures/ckpt-v1-layouts.bin");

    /// The sample's three tickers, in pinned order.
    fn sample_tickers() -> [Ticker; 3] {
        [
            sample_state().pump.ticker,
            Ticker::EveryN,
            Ticker::EventTime {
                interval: 600,
                origin: Some(1000),
                last_cell: Some(3),
            },
        ]
    }

    /// Splits concatenated checkpoint files at their END frames.
    fn split_files(mut bytes: &[u8]) -> Vec<&[u8]> {
        let mut files = Vec::new();
        while !bytes.is_empty() {
            let mut at = MAGIC.len() + 4;
            loop {
                let tag = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
                let len = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap());
                at += 4 + FRAME_LEN_CRC + len as usize;
                if tag == TAG_END {
                    break;
                }
            }
            let (file, rest) = bytes.split_at(at);
            files.push(file);
            bytes = rest;
        }
        files
    }

    #[test]
    fn sample_images_encode_to_the_pinned_bytes() {
        let mut rest = LAYOUT_PIN;
        for ticker in sample_tickers() {
            let mut image = sample_state();
            image.pump.ticker = ticker;
            let bytes = encode(&image);
            let (pinned, tail) = rest.split_at(bytes.len().min(rest.len()));
            assert!(
                bytes == pinned,
                "{:?}: encoded bytes changed",
                image.pump.ticker
            );
            let back = decode(pinned).expect("the pinned image decodes");
            assert!(
                encode(&back) == pinned,
                "{:?}: re-encoded",
                image.pump.ticker
            );
            rest = tail;
        }
        assert!(rest.is_empty(), "{} pinned bytes left over", rest.len());
    }

    /// A version-1 image decodes with its min-records buffer kept for
    /// recovery to fold in, and the one encoder writes it as the
    /// version-2 image of the same state: the buffer is the only
    /// difference, and version 2 keeps parked bins in the histories.
    #[test]
    fn v1_layouts_decode_and_re_encode_as_the_v2_layouts() {
        let v1 = split_files(V1_LAYOUT_PIN);
        let v2 = split_files(LAYOUT_PIN);
        assert_eq!((v1.len(), v2.len()), (3, 3));
        for ((old, new), ticker) in v1.into_iter().zip(v2).zip(sample_tickers()) {
            let image = decode(old).expect("a version-1 image decodes");
            let parked: Vec<(EntityId, WindowIdx)> = image.shards.v1_pending[0]
                .iter()
                .flat_map(|(e, events)| events.iter().map(move |b| (*e, b.w)))
                .collect();
            assert_eq!(parked, [(EntityId(9), 1)], "{ticker:?}");
            assert!(image.shards.v1_pending[1].is_empty(), "{ticker:?}");
            assert!(encode(&image) == new, "{ticker:?}: re-encoded");
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

    /// The pinned version-2 file decodes, and the one encoder
    /// reproduces it byte for byte; a version-1 file decodes with its
    /// min-records buffers. (The name predates version 2: `ckpt-v2.slim`
    /// was written by the version-2 writer itself, so it pins that
    /// writer's bytes. The file an earlier writer left is `ckpt-v1.slim`,
    /// and `tests/checkpoint_format.rs` resumes a drive from it.)
    #[test]
    fn parent_written_fixture_decodes_and_re_encodes_byte_identically() {
        let image = decode(V2_FIXTURE).expect("a version-2 file decodes");
        assert_eq!(image.meta.consumed, 60);
        // The fixture is only a witness if the collections are there,
        // parked entities' histories and rings among them.
        let s = &image.shards;
        for side in 0..2 {
            assert!(!s.active[side].is_empty(), "active[{side}]");
            let parked = s.histories[side]
                .iter()
                .filter(|(e, _)| !s.active[side].contains(e))
                .count();
            assert!(
                parked > 0 && parked < s.histories[side].len(),
                "histories[{side}]"
            );
            assert!(s.v1_pending[side].is_empty(), "v1_pending[{side}]");
        }
        let parked_ring = |d: &RingDump| !s.active[d.side.idx()].contains(&d.entity);
        assert!(s.rings.iter().any(parked_ring) && !s.rings.iter().all(parked_ring));
        assert!(!s.cache.is_empty() && !s.edges.is_empty());
        assert!(!image.engine.links.is_empty() && !image.engine.matcher_edges.is_empty());
        assert!(!image.pump.reorder_held.is_empty());
        assert!(encode(&image) == V2_FIXTURE, "re-encoded bytes differ");

        let v1 = decode(V1_FIXTURE).expect("a version-1 file decodes");
        assert_eq!(v1.meta.consumed, 60);
        for side in 0..2 {
            assert!(!v1.shards.v1_pending[side].is_empty(), "v1 pending[{side}]");
        }
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
        VERSION.put(&mut bytes);
        let sample = sample_state();
        frame(&mut bytes, TAG_META, |o| sample.meta.put(o));
        frame(&mut bytes, TAG_ENGINE, |o| sample.engine.put(o));
        frame(&mut bytes, TAG_SHARDS, |o| {
            for _ in 0..9 {
                0u64.put(o); // four empty per-side collections, twice; no windows
            }
            (CLAIMED as u64).put(o); // rings
            o.resize(o.len() + CLAIMED, 0);
        });
        frame(&mut bytes, TAG_PUMP, |o| sample.pump.put(o));
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

    /// `sample_state()` as `cfg` recovers it: its active right entity,
    /// which the pinned layouts list with no bins, gets a history.
    fn recoverable_state(cfg: &StreamConfig) -> Image<'static> {
        let mut state = sample_state();
        state.meta.fingerprint = ConfigFingerprint::of(cfg);
        let left = state.shards.histories[0][0].1.clone();
        state.shards.histories[1] = vec![(EntityId(3), left)];
        state
    }

    /// An active entity's bins count, so finalizing reads them: a
    /// CRC-valid image that lists an active entity with no history is
    /// refused by recovery rather than restored into a panic there.
    #[test]
    fn active_entities_without_a_history_are_rejected() {
        let cfg = StreamConfig::default();
        let dir = std::env::temp_dir().join(format!("slim-ckpt-active-{}", std::process::id()));
        let recover_with = |cut: fn(&mut ShardsDump)| {
            let _ = fs::remove_dir_all(&dir);
            let mut state = recoverable_state(&cfg);
            cut(&mut state.shards);
            write_atomic(&dir, 42, &encode(&state)).unwrap();
            crate::StreamEngine::recover(cfg, &dir).map(|_| ())
        };
        assert_eq!(recover_with(|_| {}), Ok(()));
        type Cut = fn(&mut ShardsDump);
        let cuts: [(&str, Cut); 2] = [
            ("Left EntityId(8)", |s| s.active[0].push(EntityId(8))),
            ("Right EntityId(3)", |s| s.histories[1].clear()),
        ];
        for (lacking, cut) in cuts {
            let err = recover_with(cut).expect_err("an active entity with no history");
            assert!(
                err.contains(lacking) && err.contains("no history"),
                "unexpected error: {err}"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A ring keyed `(span, cell, window)` travels as version 2 wrote
    /// it: its counts as one `(window, cell)`-ordered map. Decoded and
    /// restored, it holds the same counts, signature and band buckets,
    /// and re-derives them like the ring it came from when a window
    /// expires and when a record arrives.
    #[test]
    fn a_rekeyed_ring_travels_in_window_cell_order() {
        use crate::lsh::{LshGeometry, ShardRings};
        let geom = LshGeometry::new(&crate::StreamLshConfig {
            spans: 3,
            base: slim_lsh::LshConfig {
                step_windows: 4,
                spatial_level: 12,
                ..slim_lsh::LshConfig::default()
            },
        });
        let mut cells: Vec<CellId> = [29.0, 29.5, 30.0]
            .iter()
            .map(|&lng| CellId::from_latlng(LatLng::from_degrees(41.0, lng), 12))
            .collect();
        cells.sort_unstable();
        let [a, b, c] = [cells[0], cells[1], cells[2]];
        // Span 0 holds each cell in its own windows, in an order where
        // `(cell, window)` and `(window, cell)` disagree; span 1 ties `a`
        // and `c` over two windows each.
        let records = [
            (0, c),
            (1, a),
            (2, b),
            (2, c),
            (3, a),
            (3, c),
            (4, c),
            (5, a),
            (6, a),
            (7, c),
        ];
        let (side, entity) = (Side::Left, EntityId(7));
        let mut rings = ShardRings::default();
        let mut wire_order: BTreeMap<(WindowIdx, CellId), u32> = BTreeMap::new();
        for (w, cell) in records {
            rings.add(&geom, side, entity, w, &[cell]);
            *wire_order.entry((w, cell)).or_insert(0) += 1;
        }
        let ring = rings.export().next().expect("one ring").ring.into_owned();
        assert_eq!(
            ring.sig,
            [Some(c), Some(a), None],
            "the counts' dominating cells"
        );

        let mut bytes = Vec::new();
        ring.put(&mut bytes);
        let mut want = Vec::new();
        wire_order.put(&mut want);
        ring.owners.put(&mut want);
        ring.sig.put(&mut want);
        assert_eq!(bytes, want, "counts in (window, cell) order");

        let mut d = Dec::new(&bytes, VERSION);
        let decoded = SpanRing::get(&mut d).expect("the ring decodes");
        let mut restored = ShardRings::default();
        let dump = RingDump {
            side,
            entity,
            ring: Cow::Owned(decoded),
        };
        restored.restore(&geom, dump).expect("the ring fits");
        let same = |x: &ShardRings, y: &ShardRings, what: &str| {
            let (x, y) = (
                x.export().next().unwrap().ring,
                y.export().next().unwrap().ring,
            );
            assert_eq!(
                (&x.counts, &x.owners, &x.sig, &x.buckets),
                (&y.counts, &y.owners, &y.sig, &y.buckets),
                "{what}"
            );
        };
        same(&restored, &rings, "restored");
        // Expiring window 0 leaves `a` and `c` tied in span 0, which
        // goes to `a`; a second `b` ties all three, and a third wins.
        for x in [&mut rings, &mut restored] {
            assert!(x.evict(&geom, side, entity, 0));
        }
        same(&restored, &rings, "after expiry");
        assert_eq!(rings.export().next().unwrap().ring.sig[0], Some(a));
        for (changes, dominating) in [(false, a), (true, b)] {
            for x in [&mut rings, &mut restored] {
                assert_eq!(x.add(&geom, side, entity, 1, &[b]), changes);
            }
            same(&restored, &rings, "after a record");
            assert_eq!(rings.export().next().unwrap().ring.sig[0], Some(dominating));
        }
    }

    /// A ring's columns are indexed by slot, so a CRC-valid image whose
    /// ring has more or fewer owners or signature cells than the
    /// configured spans is refused by recovery rather than restored
    /// into a panic at the first hash or `add`.
    #[test]
    fn misshapen_rings_are_rejected() {
        let cfg = StreamConfig {
            lsh: Some(crate::StreamLshConfig {
                spans: 2,
                ..Default::default()
            }),
            ..StreamConfig::default()
        };
        let dir = std::env::temp_dir().join(format!("slim-ckpt-ring-{}", std::process::id()));
        let recover_with = |cut: fn(&mut SpanRing)| {
            let _ = fs::remove_dir_all(&dir);
            let mut state = recoverable_state(&cfg);
            cut(state.shards.rings[0].ring.to_mut());
            write_atomic(&dir, 42, &encode(&state)).unwrap();
            crate::StreamEngine::recover(cfg, &dir).map(|_| ())
        };
        assert_eq!(recover_with(|_| {}), Ok(()));
        let cuts: [fn(&mut SpanRing); 3] = [
            |r| r.sig.truncate(1),
            |r| r.owners.truncate(1),
            |r| r.sig.push(None),
        ];
        for (i, cut) in cuts.into_iter().enumerate() {
            let err = recover_with(cut).expect_err("a misshapen ring");
            assert!(
                err.contains("ring of Left EntityId(7)") && err.contains("2 spans"),
                "case {i}: unexpected error: {err}"
            );
        }
        let _ = fs::remove_dir_all(&dir);
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
