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
//!   and the engine resolves their final signatures at the next merge
//!   barrier.
//! * [`LshGeometry`] — the banding parameters shared by every shard and
//!   every partition of the engine's partitioned
//!   [`slim_lsh::BucketIndex`] (see the engine for the partition
//!   upsert/handoff protocol).

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};

use geocell::CellId;
use slim_core::{EntityId, WindowIdx};
use slim_lsh::{bands_for_threshold, IndexSide, Signature};

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
}

impl SpanRing {
    fn new(spans: usize) -> Self {
        Self {
            slots: vec![BTreeMap::new(); spans],
            owners: vec![None; spans],
            sig: vec![None; spans],
        }
    }

    /// Recomputes the dominating cell of one slot (mirroring the batch
    /// tie-break: highest count, then smallest cell id). Slots hold a
    /// handful of cells, so a linear aggregate beats a hash map here.
    fn dominating(&self, slot: usize) -> Option<CellId> {
        let mut agg: Vec<(CellId, u32)> = Vec::new();
        for (&(_, cell), &n) in &self.slots[slot] {
            match agg.iter_mut().find(|(c, _)| *c == cell) {
                Some((_, count)) => *count += n,
                None => agg.push((cell, n)),
            }
        }
        agg.into_iter()
            .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
            .map(|(c, _)| c)
    }

    fn is_empty(&self) -> bool {
        self.slots.iter().all(BTreeMap::is_empty)
    }
}

/// One shard's ring state: the rings of every `(side, entity)` homed on
/// that shard. All methods are shard-local; bucket-index effects are
/// deferred to the engine's merge barrier via the returned
/// changed-signature flags.
#[derive(Debug, Clone, Default)]
pub(crate) struct ShardRings {
    rings: HashMap<(Side, EntityId), SpanRing>,
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
            .or_insert_with(|| SpanRing::new(geom.spans));
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
        let dom = ring.dominating(slot);
        if dom == ring.sig[slot] {
            return false;
        }
        ring.sig[slot] = dom;
        true
    }

    /// Expires window `w` for `(side, entity)`: removes its counts from
    /// the ring, re-deriving the affected slot. Returns `true` when the
    /// signature changed — including the ring emptying out entirely
    /// (the entity's [`ShardRings::signature`] then resolves to `None`
    /// and the barrier removes it from the bucket partitions).
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
        let dom = ring.dominating(slot);
        if dom == ring.sig[slot] {
            return false;
        }
        ring.sig[slot] = dom;
        true
    }

    /// Drops an entity's ring entirely (the engine demoted it). Returns
    /// `true` if a ring existed — the barrier must then remove the
    /// entity from the bucket partitions.
    pub(crate) fn remove_entity(&mut self, side: Side, entity: EntityId) -> bool {
        self.rings.remove(&(side, entity)).is_some()
    }

    /// The entity's current signature (`None` = no live ring; the
    /// barrier translates that into a bucket-index removal).
    pub(crate) fn signature(&self, side: Side, entity: EntityId) -> Option<Signature> {
        self.rings.get(&(side, entity)).map(|ring| Signature {
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
    /// recovery inverse; the rebuilt ring answers `signature` and every
    /// subsequent `add`/`evict` exactly like the checkpointed one.
    pub(crate) fn restore(&mut self, dump: RingDump<'_>) {
        self.rings
            .insert((dump.side, dump.entity), dump.ring.into_owned());
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
