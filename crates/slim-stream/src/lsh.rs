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
use std::collections::{BTreeMap, HashMap};

use geocell::CellId;
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

    fn slot_of(&self, w: WindowIdx) -> usize {
        (w / self.step_windows) as usize % self.spans
    }
}

/// Per-entity ring state: raw counts per slot plus the current
/// signature derived from them. The fields are crate-visible for the
/// checkpoint codec, which serializes a ring as it stands.
#[derive(Debug, Clone)]
pub(crate) struct SpanRing {
    /// Per slot: `(window, cell)` → record count. Keeping the window in
    /// the key lets expiry remove exactly one window's contribution.
    pub(crate) slots: Vec<BTreeMap<(WindowIdx, CellId), u32>>,
    /// Which span (epoch `w / step`) currently owns each slot. Slots
    /// alias every `spans` spans; when a newer span claims a slot its
    /// stale content is cleared, so a slot never blends distant epochs
    /// (and per-slot memory stays bounded) even without window expiry.
    pub(crate) owners: Vec<Option<u32>>,
    pub(crate) sig: Vec<Option<CellId>>,
    /// Per band: the bucket `sig`'s band hashes to (`None` = the band
    /// is all placeholders). Derived from `sig` — see the module docs;
    /// the checkpoint codec neither writes nor reads it (a decoded ring
    /// carries it empty until [`ShardRings::restore`] rebuilds it).
    pub(crate) buckets: Vec<Option<u64>>,
}

impl SpanRing {
    fn new(geom: &LshGeometry) -> Self {
        Self {
            slots: vec![BTreeMap::new(); geom.spans],
            owners: vec![None; geom.spans],
            sig: vec![None; geom.spans],
            buckets: vec![None; geom.bands],
        }
    }

    /// Stores a slot's new dominating cell and re-hashes the band the
    /// slot belongs to — the one place a signature slot is written.
    fn set_slot(&mut self, geom: &LshGeometry, slot: usize, dom: Option<CellId>) {
        self.sig[slot] = dom;
        let band = slot / geom.rows;
        self.buckets[band] = band_bucket_of(&self.sig, band, geom.rows, geom.num_buckets);
    }

    fn is_empty(&self) -> bool {
        self.slots.iter().all(BTreeMap::is_empty)
    }
}

/// The dominating cell of one slot's counts (mirroring the batch
/// tie-break: highest count, then smallest cell id). The keys are
/// `(window, cell)`-sorted, so one cell's counts are scattered across
/// windows; they are summed per cell in `scratch` — the shard's reused
/// buffer, so the recount allocates nothing. Slots hold a handful of
/// cells, so a linear aggregate beats a hash map here.
fn dominating(
    slot: &BTreeMap<(WindowIdx, CellId), u32>,
    scratch: &mut Vec<(CellId, u32)>,
) -> Option<CellId> {
    scratch.clear();
    for (&(_, cell), &n) in slot {
        match scratch.iter_mut().find(|(c, _)| *c == cell) {
            Some((_, count)) => *count += n,
            None => scratch.push((cell, n)),
        }
    }
    scratch
        .iter()
        .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
        .map(|&(c, _)| c)
}

/// One shard's ring state: the rings of every `(side, entity)` homed on
/// that shard. All methods are shard-local; bucket-index effects are
/// deferred to the engine's merge barrier via the returned
/// changed-signature flags.
#[derive(Debug, Clone, Default)]
pub(crate) struct ShardRings {
    rings: HashMap<(Side, EntityId), SpanRing>,
    /// Per-cell count scratch of [`dominating`], reused across calls.
    scratch: Vec<(CellId, u32)>,
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
    pub(crate) fn add(
        &mut self,
        geom: &LshGeometry,
        side: Side,
        entity: EntityId,
        w: WindowIdx,
        cells: &[CellId],
    ) -> bool {
        let slot = geom.slot_of(w);
        let span = w / geom.step_windows;
        let ring = self
            .rings
            .entry((side, entity))
            .or_insert_with(|| SpanRing::new(geom));
        match ring.owners[slot] {
            Some(owner) if owner > span => return false, // pre-ring straggler
            Some(owner) if owner < span => {
                ring.slots[slot].clear();
                ring.owners[slot] = Some(span);
            }
            Some(_) => {}
            None => ring.owners[slot] = Some(span),
        }
        for &c in cells {
            *ring.slots[slot].entry((w, c)).or_insert(0) += 1;
        }
        let dom = dominating(&ring.slots[slot], &mut self.scratch);
        if dom == ring.sig[slot] {
            return false;
        }
        ring.set_slot(geom, slot, dom);
        true
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
        let slot = geom.slot_of(w);
        let Some(ring) = self.rings.get_mut(&(side, entity)) else {
            return false;
        };
        let before = ring.slots[slot].len();
        ring.slots[slot].retain(|&(win, _), _| win != w);
        if ring.slots[slot].len() == before {
            return false;
        }
        if ring.is_empty() {
            self.rings.remove(&(side, entity));
            return true;
        }
        let dom = dominating(&ring.slots[slot], &mut self.scratch);
        if dom == ring.sig[slot] {
            return false;
        }
        ring.set_slot(geom, slot, dom);
        true
    }

    /// Drops an entity's ring entirely (the engine demoted it). Returns
    /// `true` if a ring existed — the barrier must then remove the
    /// entity from the bucket partitions.
    pub(crate) fn remove_entity(&mut self, side: Side, entity: EntityId) -> bool {
        self.rings.remove(&(side, entity)).is_some()
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
    /// recovery inverse. The band-bucket cache does not travel in the
    /// dump and is rebuilt here from the restored signature, so the
    /// ring answers `buckets` and every subsequent `add`/`evict`
    /// exactly like the checkpointed one. A ring with a column of any
    /// length but `spans` is an error: hashing or filling it would index
    /// past its end.
    pub(crate) fn restore(&mut self, geom: &LshGeometry, dump: RingDump<'_>) -> Result<(), String> {
        let r = &dump.ring;
        let lens = [r.slots.len(), r.owners.len(), r.sig.len()];
        if lens != [geom.spans; 3] {
            return Err(format!(
                "ring of {:?} {:?}: {lens:?} slots, owners, signature cells for {} spans",
                dump.side, dump.entity, geom.spans
            ));
        }
        let mut ring = dump.ring.into_owned();
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

    /// After every step of a random `add` / `evict` / `remove_entity` /
    /// `restore` sequence, every ring's cached band buckets are exactly
    /// `signature_buckets` of its signature — over geometries whose
    /// last band is full, short (`spans` not a multiple of `rows`) and
    /// a single row.
    #[test]
    fn cached_buckets_track_the_signature() {
        let check = |g: &LshGeometry, rings: &ShardRings, what: &str| {
            for side in [Side::Left, Side::Right] {
                for e in 0..4 {
                    let from_sig = rings.signature(side, EntityId(e)).map(|sig| {
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
        for (spans, step) in [(8usize, 2u32), (7, 1), (28, 3), (3, 4)] {
            let g = geom(spans, step);
            let horizon = spans as u64 * step as u64 * 3;
            let mut rings = ShardRings::default();
            for i in 0..2500 {
                let side = [Side::Left, Side::Right][next(2) as usize];
                let entity = EntityId(next(4));
                let w = next(horizon) as WindowIdx;
                let what = match next(16) {
                    0 => {
                        rings.remove_entity(side, entity);
                        "remove_entity"
                    }
                    // A checkpoint round trip: the cache does not travel
                    // (the codec decodes it empty) and must come back.
                    1 => {
                        let dumps: Vec<RingDump<'static>> = rings
                            .export()
                            .map(|d| {
                                let mut ring = d.ring.into_owned();
                                ring.buckets = Vec::new();
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
                    2..=5 => {
                        rings.evict(&g, side, entity, w);
                        "evict"
                    }
                    _ => {
                        let cells: Vec<CellId> =
                            (0..next(3)).map(|_| cell(next(4) as f64)).collect();
                        rings.add(&g, side, entity, w, &cells);
                        "add"
                    }
                };
                check(&g, &rings, &format!("spans {spans}, step {i} ({what})"));
            }
        }
    }

    #[test]
    fn remove_entity_reports_presence() {
        let g = geom(2, 1);
        let mut rings = ShardRings::default();
        assert!(!rings.remove_entity(Side::Left, EntityId(9)));
        rings.add(&g, Side::Left, EntityId(9), 0, &[cell(0.0)]);
        assert!(rings.remove_entity(Side::Left, EntityId(9)));
        assert!(rings.signature(Side::Left, EntityId(9)).is_none());
    }
}
