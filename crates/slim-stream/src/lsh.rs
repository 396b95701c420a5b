//! Incrementally maintained LSH signatures over a ring of query spans.
//!
//! The batch LSH filter derives one dominating-cell query per fixed span
//! of the (known) time axis. A stream has no known end, so each entity's
//! signature here is a **ring**: slot `s` of the signature holds the
//! dominating cell of the span currently mapped to `s = (w / step) mod
//! spans`. As the watermark advances and old windows expire, slots roll
//! over to newer spans.
//!
//! The state is split to match the sharded engine:
//!
//! * [`ShardRings`] — the per-entity ring counters, owned by the
//!   entity's home [`crate::shard::EngineShard`] and mutated lock-free
//!   during shard-parallel phases. Ring updates report whether the
//!   derived signature *changed*; the shard coalesces changed entities
//!   and the engine reads their final band buckets at the next merge
//!   barrier.
//! * [`LshGeometry`] — the banding parameters shared by every shard and
//!   every partition of the engine's partitioned
//!   [`slim_lsh::BucketIndex`] (see the engine for the partition
//!   upsert/handoff protocol).
//!
//! ## Counts and the dominating cell
//!
//! A ring keeps one count per `(span, cell, window)`, in key order, so
//! one cell's tally in a slot is one contiguous key range and the slot
//! itself is the range of its owning span. [`ShardRings::add`] only
//! increments counts, and under increments the dominating cell can only
//! move to a cell that was incremented: it compares the tallies of the
//! record's cells with the slot's current dominating cell and touches
//! nothing else. Expiry and a slot's rollover to a newer span remove
//! counts; [`ShardRings::evict`] then re-derives the slot in one pass
//! over the span's keys. Ties go to the smaller cell id, as in the batch
//! signature.
//!
//! ## Cached band buckets
//!
//! Beside its signature each ring keeps the signature's **per-band
//! bucket ids** — `slim_lsh::signature_buckets` of the current
//! signature, maintained instead of recomputed. The only writers of a
//! signature slot are [`ShardRings::add`] and [`ShardRings::evict`];
//! whenever one of them changes a slot's dominating cell it re-hashes
//! the one band that slot belongs to (`slot / rows`), on the shard
//! worker, inside the Apply / Expire phase. Everything downstream reads
//! the cache through [`ShardRings::buckets`]: candidate registration at
//! the barrier, the retirement check of a refresh tick, and the
//! re-upsert after recovery — none of them clones a signature or hashes
//! a band. The cache is derived state: it is never serialized, and
//! [`ShardRings::restore`] rebuilds it from the restored signature.

use std::borrow::Cow;
use std::collections::BTreeMap;

use geocell::CellId;
use slim_core::fasthash::FastMap;
use slim_core::{EntityId, WindowIdx};
use slim_lsh::{band_bucket_of, bands_for_threshold, IndexSide};

use crate::config::StreamLshConfig;
use crate::event::Side;

impl Side {
    pub(crate) fn index_side(self) -> IndexSide {
        match self {
            Side::Left => IndexSide::Left,
            Side::Right => IndexSide::Right,
        }
    }
}

/// The banding/ring geometry every shard and bucket partition shares.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LshGeometry {
    pub(crate) spans: usize,
    pub(crate) step_windows: u32,
    pub(crate) spatial_level: u8,
    pub(crate) bands: usize,
    pub(crate) rows: usize,
    pub(crate) num_buckets: u64,
}

impl LshGeometry {
    pub(crate) fn new(cfg: &StreamLshConfig) -> Self {
        let (bands, rows) = bands_for_threshold(cfg.spans, cfg.base.threshold);
        Self {
            spans: cfg.spans,
            step_windows: cfg.base.step_windows,
            spatial_level: cfg.base.spatial_level,
            bands,
            rows,
            num_buckets: cfg.base.num_buckets,
        }
    }

    pub(crate) fn slot_of(&self, w: WindowIdx) -> usize {
        self.span_of(w) as usize % self.spans
    }

    /// The span (epoch) window `w` belongs to.
    pub(crate) fn span_of(&self, w: WindowIdx) -> u32 {
        w / self.step_windows
    }
}

/// A ring count's key: `(span, cell, window)`.
pub(crate) type RingKey = (u32, CellId, WindowIdx);

/// The smallest key of span `span`: raw id 1, face 0's first leaf, is
/// the smallest valid cell id.
fn first_key(span: u32) -> RingKey {
    (span, CellId::from_u64(1), 0)
}

/// Per-entity ring state: raw counts plus the current signature derived
/// from them. The fields are crate-visible for the checkpoint codec,
/// which serializes a ring as it stands.
#[derive(Debug, Clone)]
pub(crate) struct SpanRing {
    /// `(span, cell, window)` → record count, for every slot at once: a
    /// slot's counts are the key range of the span that owns it, and
    /// within it one cell's counts are one range. Keeping the window in
    /// the key lets expiry remove exactly one window's contribution.
    /// The checkpoint writes them in `(window, cell)` order and a
    /// decoded ring holds them keyed as one-window spans (`span =
    /// window`) until [`ShardRings::restore`] re-keys them.
    pub(crate) counts: BTreeMap<RingKey, u32>,
    /// Which span (epoch `w / step`) currently owns each slot. Slots
    /// alias every `spans` spans; when a newer span claims a slot its
    /// stale content is cleared, so a slot never blends distant epochs
    /// (and per-slot memory stays bounded) even without window expiry.
    pub(crate) owners: Vec<Option<u32>>,
    /// Per slot: the dominating cell of the owning span's counts (`None`
    /// = the slot holds no counts).
    pub(crate) sig: Vec<Option<CellId>>,
    /// Per band: the bucket `sig`'s band hashes to (`None` = the band
    /// is all placeholders). Derived from `sig` — see the module docs;
    /// the checkpoint codec neither writes nor reads it (a decoded ring
    /// carries it empty until [`ShardRings::restore`] rebuilds it).
    pub(crate) buckets: Vec<Option<u64>>,
}

/// Whether `cell`, with `tally` records, dominates `best` (`(cell,
/// tally)` of the dominating cell so far): a higher tally, or an equal
/// one and a smaller cell id — the batch signature's tie-break.
fn dominates(cell: CellId, tally: u32, best: Option<(CellId, u32)>) -> bool {
    best.is_none_or(|(d, most)| tally > most || (tally == most && cell < d))
}

impl SpanRing {
    fn new(geom: &LshGeometry) -> Self {
        Self {
            counts: BTreeMap::new(),
            owners: vec![None; geom.spans],
            sig: vec![None; geom.spans],
            buckets: vec![None; geom.bands],
        }
    }

    /// The counts of span `span`, in `(cell, window)` order.
    fn span_counts(&self, span: u32) -> impl Iterator<Item = (&RingKey, &u32)> {
        let keys = self.counts.range(first_key(span)..);
        keys.take_while(move |(&(s, ..), _)| s == span)
    }

    /// Cell `cell`'s records in span `span`: one key range.
    fn tally(&self, span: u32, cell: CellId) -> u32 {
        let keys = self
            .counts
            .range((span, cell, 0)..=(span, cell, WindowIdx::MAX));
        keys.map(|(_, &n)| n).sum()
    }

    /// Drops every count of window `w` of span `span`; `true` if there
    /// were any. One pass over the span's keys: each search resumes at
    /// the key it removed.
    fn drop_window(&mut self, span: u32, w: WindowIdx) -> bool {
        let (mut from, mut dropped) = (first_key(span), false);
        while let Some(key) = self
            .counts
            .range(from..)
            .map(|(&k, _)| k)
            .take_while(|k| k.0 == span)
            .find(|k| k.2 == w)
        {
            self.counts.remove(&key);
            (from, dropped) = (key, true);
        }
        dropped
    }

    /// Drops every count of span `span` (a slot's rollover).
    fn drop_span(&mut self, span: u32) {
        loop {
            let Some((&key, _)) = self.span_counts(span).next() else {
                return;
            };
            self.counts.remove(&key);
        }
    }

    /// The dominating cell of span `span`'s counts, in one pass over
    /// them, a cell's range at a time.
    fn dominating(&self, span: u32) -> Option<CellId> {
        let mut best = None;
        let mut keys = self.span_counts(span).peekable();
        while let Some((&(_, cell, _), &n)) = keys.next() {
            let mut tally = n;
            while let Some((_, &more)) = keys.next_if(|(&(_, c, _), _)| c == cell) {
                tally += more;
            }
            if dominates(cell, tally, best) {
                best = Some((cell, tally));
            }
        }
        best.map(|(cell, _)| cell)
    }

    /// Stores a slot's dominating cell and, when it changed, re-hashes
    /// the band the slot belongs to — the one place a signature slot is
    /// written. `true` if it changed.
    fn store(&mut self, geom: &LshGeometry, slot: usize, dom: Option<CellId>) -> bool {
        if dom == self.sig[slot] {
            return false;
        }
        self.sig[slot] = dom;
        let band = slot / geom.rows;
        self.buckets[band] = band_bucket_of(&self.sig, band, geom.rows, geom.num_buckets);
        true
    }
}

/// One shard's ring state: the rings of every `(side, entity)` homed on
/// that shard. All methods are shard-local; bucket-index effects are
/// deferred to the engine's merge barrier via the returned
/// changed-signature flags.
#[derive(Debug, Clone, Default)]
pub(crate) struct ShardRings {
    /// Keyed under [`slim_core::fasthash`]: every ingested event probes
    /// it.
    rings: FastMap<(Side, EntityId), SpanRing>,
}

impl ShardRings {
    /// Records one observation's cells for `(side, entity)` in window
    /// `w`. Returns `true` when the entity's derived signature changed
    /// (the engine must re-upsert it into the bucket partitions at the
    /// next barrier).
    ///
    /// Each slot is owned by one span epoch at a time: content from an
    /// older epoch is cleared when a newer one claims the slot, and
    /// events older than the slot's current epoch are ignored — the ring
    /// is a recency signature by construction, with or without
    /// sliding-window expiry.
    ///
    /// The counts only grow here (a claimed slot starts empty), so the
    /// new dominating cell is the old one or one of `cells`: their
    /// tallies are the only ones read.
    pub(crate) fn add(
        &mut self,
        geom: &LshGeometry,
        side: Side,
        entity: EntityId,
        w: WindowIdx,
        cells: &[CellId],
    ) -> bool {
        let slot = geom.slot_of(w);
        let span = geom.span_of(w);
        let ring = self
            .rings
            .entry((side, entity))
            .or_insert_with(|| SpanRing::new(geom));
        let prior = match ring.owners[slot] {
            Some(owner) if owner > span => return false, // pre-ring straggler
            Some(owner) if owner == span => ring.sig[slot],
            Some(owner) => {
                ring.drop_span(owner);
                None
            }
            None => None,
        };
        ring.owners[slot] = Some(span);
        for &c in cells {
            *ring.counts.entry((span, c, w)).or_insert(0) += 1;
        }
        let mut best = prior.map(|d| (d, ring.tally(span, d)));
        for &c in cells {
            let tally = ring.tally(span, c);
            if dominates(c, tally, best) {
                best = Some((c, tally));
            }
        }
        ring.store(geom, slot, best.map(|(c, _)| c))
    }

    /// Expires window `w` for `(side, entity)`: removes its counts from
    /// the ring, re-deriving the affected slot. Returns `true` when the
    /// signature changed — including the ring emptying out entirely
    /// (the entity's [`ShardRings::buckets`] then resolve to `None` and
    /// the barrier removes it from the bucket partitions).
    pub(crate) fn evict(
        &mut self,
        geom: &LshGeometry,
        side: Side,
        entity: EntityId,
        w: WindowIdx,
    ) -> bool {
        let Some(ring) = self.rings.get_mut(&(side, entity)) else {
            return false;
        };
        // Counts of `w` exist only under the span that owns its slot.
        let span = geom.span_of(w);
        if !ring.drop_window(span, w) {
            return false;
        }
        if ring.counts.is_empty() {
            self.rings.remove(&(side, entity));
            return true;
        }
        let dom = ring.dominating(span);
        ring.store(geom, geom.slot_of(w), dom)
    }

    /// The per-band bucket ids of the entity's current signature, read
    /// from the ring's cache (`None` = no live ring; the barrier
    /// translates that into a bucket-index removal).
    pub(crate) fn buckets(&self, side: Side, entity: EntityId) -> Option<&[Option<u64>]> {
        self.rings
            .get(&(side, entity))
            .map(|ring| ring.buckets.as_slice())
    }

    /// The entity's current signature, materialized — what the cached
    /// [`ShardRings::buckets`] must always be the hashes of.
    #[cfg(test)]
    fn signature(&self, side: Side, entity: EntityId) -> Option<slim_lsh::Signature> {
        self.rings
            .get(&(side, entity))
            .map(|ring| slim_lsh::Signature {
                entity,
                cells: ring.sig.clone(),
            })
    }

    /// Every ring, lent as it stands and in hash order — the checkpoint
    /// export (the engine sorts the cross-shard union by
    /// `(side, entity)`).
    pub(crate) fn export(&self) -> impl Iterator<Item = RingDump<'_>> {
        self.rings.iter().map(|(&(side, entity), ring)| RingDump {
            side,
            entity,
            ring: Cow::Borrowed(ring),
        })
    }

    /// Restores one ring from a [`ShardRings::export`] dump — the
    /// recovery inverse. The counts are keyed under the geometry's spans
    /// (a decoded ring holds them by window), and the band-bucket cache,
    /// which does not travel in the dump, is rebuilt from the restored
    /// signature, so the ring answers `buckets` and every subsequent
    /// `add`/`evict` exactly like the checkpointed one. A ring with a
    /// column of any length but `spans` is an error: hashing or filling
    /// it would index past its end.
    pub(crate) fn restore(&mut self, geom: &LshGeometry, dump: RingDump<'_>) -> Result<(), String> {
        let r = &dump.ring;
        let lens = [r.owners.len(), r.sig.len()];
        if lens != [geom.spans; 2] {
            return Err(format!(
                "ring of {:?} {:?}: {lens:?} owners, signature cells for {} spans",
                dump.side, dump.entity, geom.spans
            ));
        }
        let mut ring = dump.ring.into_owned();
        ring.counts = std::mem::take(&mut ring.counts)
            .into_iter()
            .map(|((_, cell, w), n)| ((geom.span_of(w), cell, w), n))
            .collect();
        ring.buckets = (0..geom.bands)
            .map(|band| band_bucket_of(&ring.sig, band, geom.rows, geom.num_buckets))
            .collect();
        self.rings.insert((dump.side, dump.entity), ring);
        Ok(())
    }

    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.rings.is_empty()
    }
}

/// One entity's ring with its key — the unit [`ShardRings::export`]
/// lends and [`ShardRings::restore`] consumes.
#[derive(Debug, Clone)]
pub(crate) struct RingDump<'a> {
    pub(crate) side: Side,
    pub(crate) entity: EntityId,
    pub(crate) ring: Cow<'a, SpanRing>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use geocell::LatLng;
    use slim_lsh::LshConfig;

    fn cell(lng: f64) -> CellId {
        CellId::from_latlng(LatLng::from_degrees(20.0, lng), 16)
    }

    fn geom(spans: usize, step: u32) -> LshGeometry {
        LshGeometry::new(&StreamLshConfig {
            spans,
            base: LshConfig {
                step_windows: step,
                spatial_level: 16,
                ..LshConfig::default()
            },
        })
    }

    /// Barrier-style collision check: upsert both current signatures
    /// into one unpartitioned index and report the second one's
    /// partners — what the engine's merge step computes.
    fn collide(g: &LshGeometry, rings: &ShardRings) -> Vec<EntityId> {
        let mut index = slim_lsh::BucketIndex::new(g.bands, g.rows, g.num_buckets);
        let left = rings.signature(Side::Left, EntityId(1));
        let right = rings.signature(Side::Right, EntityId(100));
        if let Some(sig) = &left {
            index.upsert(IndexSide::Left, sig);
        }
        match &right {
            Some(sig) => index.upsert(IndexSide::Right, sig),
            None => Vec::new(),
        }
    }

    #[test]
    fn matching_rings_collide() {
        let g = geom(4, 2);
        let mut rings = ShardRings::default();
        for w in 0..8 {
            rings.add(&g, Side::Left, EntityId(1), w, &[cell(0.0 + w as f64)]);
            rings.add(&g, Side::Right, EntityId(100), w, &[cell(0.0 + w as f64)]);
        }
        assert_eq!(
            collide(&g, &rings),
            vec![EntityId(1)],
            "identical rings must collide"
        );
    }

    #[test]
    fn disjoint_rings_do_not_collide() {
        let g = geom(4, 2);
        let mut rings = ShardRings::default();
        for w in 0..8 {
            rings.add(&g, Side::Left, EntityId(1), w, &[cell(w as f64)]);
            rings.add(&g, Side::Right, EntityId(100), w, &[cell(90.0 + w as f64)]);
        }
        assert!(collide(&g, &rings).is_empty());
    }

    #[test]
    fn eviction_rolls_slots_over() {
        let g = geom(2, 1);
        let mut rings = ShardRings::default();
        rings.add(&g, Side::Left, EntityId(1), 0, &[cell(0.0)]);
        rings.add(&g, Side::Left, EntityId(1), 1, &[cell(1.0)]);
        // Window 2 aliases slot 0; evict window 0 first (as the engine
        // does before reusing the slot), then fill it with new content.
        rings.evict(&g, Side::Left, EntityId(1), 0);
        rings.add(&g, Side::Left, EntityId(1), 2, &[cell(2.0)]);
        let sig = rings.signature(Side::Left, EntityId(1)).unwrap();
        assert_eq!(sig.cells[0], Some(cell(2.0)));
        assert_eq!(sig.cells[1], Some(cell(1.0)));
        // Evicting everything drops the ring; the signature resolves to
        // None, which the barrier turns into a bucket-index removal.
        rings.evict(&g, Side::Left, EntityId(1), 1);
        rings.evict(&g, Side::Left, EntityId(1), 2);
        assert!(rings.signature(Side::Left, EntityId(1)).is_none());
        assert!(rings.is_empty());
    }

    /// Without sliding-window expiry (unbounded engine), slot aliasing
    /// must not blend distant epochs: a newer span claims the slot and
    /// clears the stale counts, and pre-ring stragglers are ignored.
    #[test]
    fn slot_epochs_roll_without_eviction() {
        let g = geom(2, 1);
        let mut rings = ShardRings::default();
        rings.add(&g, Side::Left, EntityId(1), 0, &[cell(0.0)]);
        rings.add(&g, Side::Left, EntityId(1), 1, &[cell(1.0)]);
        // Window 2 aliases slot 0 (epoch 2 > epoch 0): old content must
        // be dropped, not merged.
        assert!(rings.add(&g, Side::Left, EntityId(1), 2, &[cell(2.0)]));
        let sig = rings.signature(Side::Left, EntityId(1)).unwrap();
        assert_eq!(sig.cells[0], Some(cell(2.0)));
        // A straggler for the long-gone window 0 must not resurrect it.
        assert!(!rings.add(&g, Side::Left, EntityId(1), 0, &[cell(0.0)]));
        let sig = rings.signature(Side::Left, EntityId(1)).unwrap();
        assert_eq!(sig.cells[0], Some(cell(2.0)));
        // Repeated visits within the live epoch still accumulate.
        rings.add(&g, Side::Left, EntityId(1), 2, &[cell(5.0)]);
        rings.add(&g, Side::Left, EntityId(1), 2, &[cell(5.0)]);
        let sig = rings.signature(Side::Left, EntityId(1)).unwrap();
        assert_eq!(sig.cells[0], Some(cell(5.0)));
    }

    #[test]
    fn dominating_cell_tracks_counts() {
        let g = geom(1, 4);
        let mut rings = ShardRings::default();
        rings.add(&g, Side::Left, EntityId(1), 0, &[cell(0.0)]);
        rings.add(&g, Side::Left, EntityId(1), 1, &[cell(5.0)]);
        let first = rings.signature(Side::Left, EntityId(1)).unwrap().cells[0];
        // A second visit to cell(5.0) makes it dominate.
        rings.add(&g, Side::Left, EntityId(1), 2, &[cell(5.0)]);
        let sig = rings.signature(Side::Left, EntityId(1)).unwrap();
        assert_eq!(sig.cells[0], Some(cell(5.0)));
        assert!(first.is_some());
    }

    /// Equal counts: the smaller cell id dominates, whichever order the
    /// cells arrived in and however their counts are spread over the
    /// slot's windows; one more record breaks the tie.
    #[test]
    fn dominating_cell_tie_goes_to_the_smaller_cell_id() {
        let g = geom(1, 4);
        let (a, b) = (cell(0.0), cell(5.0));
        let (small, large) = (a.min(b), a.max(b));
        let first = |r: &ShardRings| r.signature(Side::Left, EntityId(1)).unwrap().cells[0];
        for order in [[small, large], [large, small]] {
            let mut rings = ShardRings::default();
            // Two records each, spread over different windows of the
            // one slot: (w0, x), (w1, y), (w2, x), (w3, y).
            for (w, &c) in order.iter().cycle().take(4).enumerate() {
                rings.add(&g, Side::Left, EntityId(1), w as u32, &[c]);
            }
            assert_eq!(first(&rings), Some(small), "arrival order {order:?}");
            rings.add(&g, Side::Left, EntityId(1), 0, &[large]);
            assert_eq!(first(&rings), Some(large), "3 records beat 2");
            // Expiring that window's records restores the tie.
            rings.evict(&g, Side::Left, EntityId(1), 0);
            rings.add(&g, Side::Left, EntityId(1), 0, &[order[0]]);
            assert_eq!(first(&rings), Some(small), "tie again");
        }
    }

    /// A ring as plain maps: per slot, its owning span and the
    /// `(window, cell)` counts it holds.
    type ModelRing = BTreeMap<usize, (u32, BTreeMap<(WindowIdx, CellId), u32>)>;

    /// The model's signature: per slot, the cell with the highest total
    /// over the slot's counts, ties to the smallest id.
    fn model_signature(g: &LshGeometry, ring: &ModelRing) -> Vec<Option<CellId>> {
        (0..g.spans)
            .map(|slot| {
                let mut totals: BTreeMap<CellId, u32> = BTreeMap::new();
                for (&(_, cell), &n) in ring.get(&slot).map(|(_, c)| c).into_iter().flatten() {
                    *totals.entry(cell).or_insert(0) += n;
                }
                let most = totals.values().copied().max()?;
                totals.into_iter().find(|&(_, n)| n == most).map(|(c, _)| c)
            })
            .collect()
    }

    /// After every step of a random `add` / `evict` / `restore`
    /// sequence, every ring's signature is the dominating cells of a
    /// `BTreeMap` model of the ring (the counts a slot's owning span
    /// holds, summed per cell by a plain aggregate), and its cached band
    /// buckets are exactly `signature_buckets` of that signature — over
    /// geometries whose last band is full, short (`spans` not a multiple
    /// of `rows`) and a single row.
    #[test]
    fn cached_buckets_track_the_signature() {
        type Model = BTreeMap<(Side, u64), ModelRing>;
        let check = |g: &LshGeometry, rings: &ShardRings, model: &Model, what: &str| {
            for side in [Side::Left, Side::Right] {
                for e in 0..4 {
                    let sig = rings.signature(side, EntityId(e));
                    let want = model.get(&(side, e)).map(|ring| model_signature(g, ring));
                    assert_eq!(
                        sig.as_ref().map(|s| &s.cells),
                        want.as_ref(),
                        "{what}: {side:?} entity {e}"
                    );
                    let from_sig = sig.map(|sig| {
                        slim_lsh::signature_buckets(&sig, g.bands, g.rows, g.num_buckets)
                    });
                    let cached = rings.buckets(side, EntityId(e)).map(<[_]>::to_vec);
                    assert_eq!(cached, from_sig, "{what}: {side:?} entity {e}");
                }
            }
        };
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 33) % n
        };
        let (mut ties, mut rollovers) = (0, 0);
        for (spans, step) in [(8usize, 2u32), (7, 1), (28, 3), (3, 4)] {
            let g = geom(spans, step);
            let horizon = spans as u64 * step as u64 * 3;
            let mut rings = ShardRings::default();
            let mut model = Model::new();
            for i in 0..2500 {
                let side = [Side::Left, Side::Right][next(2) as usize];
                let entity = EntityId(next(4));
                let w = next(horizon) as WindowIdx;
                let (slot, span) = (g.slot_of(w), g.span_of(w));
                let what = match next(16) {
                    // A checkpoint round trip: the cache does not travel
                    // (the codec decodes it empty), the counts come back
                    // keyed by window, and both must be rebuilt.
                    1 => {
                        let dumps: Vec<RingDump<'static>> = rings
                            .export()
                            .map(|d| {
                                let mut ring = d.ring.into_owned();
                                ring.buckets = Vec::new();
                                ring.counts = ring
                                    .counts
                                    .into_iter()
                                    .map(|((_, c, w), n)| ((w, c, w), n))
                                    .collect();
                                RingDump {
                                    side: d.side,
                                    entity: d.entity,
                                    ring: Cow::Owned(ring),
                                }
                            })
                            .collect();
                        rings = ShardRings::default();
                        for d in dumps {
                            rings.restore(&g, d).expect("an exported ring fits");
                        }
                        "restore"
                    }
                    0 | 2..=5 => {
                        rings.evict(&g, side, entity, w);
                        if let Some(ring) = model.get_mut(&(side, entity.0)) {
                            let dropped = ring.get_mut(&slot).is_some_and(|(_, counts)| {
                                let before = counts.len();
                                counts.retain(|&(win, _), _| win != w);
                                counts.len() < before
                            });
                            if dropped && ring.values().all(|(_, c)| c.is_empty()) {
                                model.remove(&(side, entity.0));
                            }
                        }
                        "evict"
                    }
                    _ => {
                        let mut cells: Vec<CellId> =
                            (0..next(3)).map(|_| cell(next(4) as f64)).collect();
                        cells.sort_unstable();
                        cells.dedup();
                        rings.add(&g, side, entity, w, &cells);
                        let ring = model.entry((side, entity.0)).or_default();
                        let (owner, counts) = ring.entry(slot).or_insert((span, BTreeMap::new()));
                        if *owner < span {
                            rollovers += usize::from(!counts.is_empty());
                            (*owner, *counts) = (span, BTreeMap::new());
                        }
                        if *owner == span {
                            for &c in &cells {
                                *counts.entry((w, c)).or_insert(0) += 1;
                            }
                        }
                        let mut totals: BTreeMap<CellId, u32> = BTreeMap::new();
                        for (&(_, c), &n) in counts.iter() {
                            *totals.entry(c).or_insert(0) += n;
                        }
                        let mut n: Vec<u32> = totals.into_values().collect();
                        n.sort_unstable();
                        ties += usize::from(n.len() > 1 && n[n.len() - 1] == n[n.len() - 2]);
                        "add"
                    }
                };
                check(
                    &g,
                    &rings,
                    &model,
                    &format!("spans {spans}, step {i} ({what})"),
                );
            }
        }
        // The sequences reached tied slots and slots rolled over.
        assert!(
            ties > 100 && rollovers > 100,
            "{ties} ties, {rollovers} rollovers"
        );
    }
}
