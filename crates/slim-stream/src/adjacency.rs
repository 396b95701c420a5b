//! The owned pairs of one shard: one slot table for all per-pair state,
//! and the entity→pair adjacency that makes a refresh tick's work
//! proportional to the *update footprint* instead of the table size.
//!
//! Every candidate pair a shard owns (owner = home shard of the pair's
//! Left entity) lives in one [`PairSlot`]: its cached contributions and
//! fold mark, its served edge weight and its fresh flag. A
//! `FastMap<PairKey, SlotId>` indexes the slots, and everything that
//! addresses a pair after its registration — the adjacency lists, the
//! fresh list, rescore jobs and their outcomes — carries the [`SlotId`]
//! instead, so a rescore visit reaches the pair's state by array index
//! and never hashes its key. A vacated slot is reused by the next
//! registration, so ids stay stable for a pair's whole life.
//!
//! The adjacency inverts the table: per endpoint entity, the owned
//! pairs containing it, each as its slot id and the other endpoint, so
//! a refresh tick walks `Σ degree(dirty entity)` list entries — without
//! touching a slot — instead of probing every pair against the dirty
//! sets. Both endpoints are indexed: a Right entity's pairs may be owned
//! by any shard, so every shard resolves the globally gathered
//! dirty-entity list against its local adjacency. Each slot records its
//! position in both of its endpoints' lists, so removing a pair is a
//! `swap_remove` plus one position fix-up.
//!
//! A refresh tick's rescore chunks each own a disjoint range of the
//! slots (`split_at_mut` over [`PairTable::slots_mut`]) and patch their
//! pairs in place right after scoring them. What else changed — edge
//! deltas, pairs whose endpoint vanished, emptied caches — comes back in
//! a [`SlotChanges`] that the table absorbs in chunk order.
//!
//! Every change to a served edge is appended to the table's edge-delta
//! run for the next merge barrier. Its writers — rescore chunks in slot
//! order, retirement, dead and reborn endpoints, vanished histories —
//! append in no particular pair order, so
//! [`PairTable::take_edge_deltas`] sorts the run stably by pair and
//! keeps the last write per pair (the same last-write-wins an ordered
//! map would give).

use slim_core::fasthash::FastMap;
use slim_core::EntityId;

use crate::event::Side;
use crate::shard::CachedPair;

/// A candidate pair as keyed in the engine's pair tables: `(left, right)`.
pub(crate) type PairKey = (EntityId, EntityId);

/// The index of a pair's slot in its owning shard's [`PairTable`].
pub(crate) type SlotId = u32;

/// An adjacency entry: a pair's slot and its other endpoint.
pub(crate) type Adjacent = (SlotId, EntityId);

/// One served-edge change: `Some(score)` upserted, `None` removed.
pub(crate) type EdgeDeltaEntry = (PairKey, Option<f64>);

/// All per-pair state of one owned candidate pair.
#[derive(Debug, Clone)]
pub(crate) struct PairSlot {
    pub(crate) pair: PairKey,
    /// The per-window unnormalized score contributions and their fold
    /// mark.
    pub(crate) cached: CachedPair,
    /// The served edge: the assembled, normalized score as of the
    /// pair's last rescore, when strictly positive.
    pub(crate) edge: Option<f64>,
    /// Discovered since the last tick: its full common window set is
    /// scored at the next tick.
    pub(crate) fresh: bool,
    /// This slot's position in its Left and its Right endpoint's
    /// adjacency list.
    at: [u32; 2],
    /// This slot's position in the fresh list, while `fresh` is set.
    fresh_at: u32,
}

impl PairSlot {
    /// Records a rescore's score, the cache already patched: sets the
    /// edge to `score` when strictly positive (removes it otherwise) and
    /// notes in `changes` the edge change, if any, and an emptied cache.
    pub(crate) fn set_score(&mut self, id: SlotId, score: f64, changes: &mut SlotChanges) {
        if self.cached.windows.is_empty() {
            changes.emptied.push((id, self.pair));
        }
        let edge = (score > 0.0).then_some(score);
        let old = std::mem::replace(&mut self.edge, edge);
        if old != edge {
            changes.live_edges += isize::from(edge.is_some()) - isize::from(old.is_some());
            changes.deltas.push((self.pair, edge));
        }
    }
}

/// What one rescore chunk did to the slots it patched, for the owning
/// table to [absorb](PairTable::absorb).
#[derive(Debug, Default)]
pub(crate) struct SlotChanges {
    /// Edge changes, in the chunk's job order.
    pub(crate) deltas: Vec<EdgeDeltaEntry>,
    /// Net change of the number of slots with an edge.
    pub(crate) live_edges: isize,
    /// Pairs an endpoint history vanished from: to drop.
    pub(crate) vanished: Vec<SlotId>,
    /// Pairs whose cache the patch emptied — the retirement candidates.
    pub(crate) emptied: Vec<(SlotId, PairKey)>,
    /// `(pair, window)` contributions recomputed.
    pub(crate) rescored_windows: u64,
}

/// One shard's owned pairs. See the module docs.
#[derive(Debug, Default)]
pub(crate) struct PairTable {
    index: FastMap<PairKey, SlotId>,
    /// `None` = vacant, listed in `vacant`.
    slots: Vec<Option<PairSlot>>,
    vacant: Vec<SlotId>,
    /// Per side: entity → the owned pairs containing it, as their slot
    /// and other endpoint (never an empty list: an emptied entity is
    /// dropped).
    adjacency: [FastMap<EntityId, Vec<Adjacent>>; 2],
    /// The slots whose `fresh` flag is set, each listed once, in no
    /// particular order.
    fresh: Vec<SlotId>,
    /// Slots whose `edge` is set.
    live_edges: usize,
    /// Edge changes since the last barrier, in write order.
    deltas: Vec<EdgeDeltaEntry>,
}

impl PairTable {
    /// Number of owned pairs.
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    /// Number of owned pairs with a served edge.
    pub(crate) fn live_edges(&self) -> usize {
        self.live_edges
    }

    /// The slot of an owned pair.
    pub(crate) fn get(&self, pair: PairKey) -> Option<SlotId> {
        self.index.get(&pair).copied()
    }

    /// A live slot.
    pub(crate) fn slot(&self, id: SlotId) -> &PairSlot {
        self.slots[id as usize].as_ref().expect("live slot")
    }

    fn slot_mut(&mut self, id: SlotId) -> &mut PairSlot {
        self.slots[id as usize].as_mut().expect("live slot")
    }

    /// Every live slot, in slot order.
    pub(crate) fn slots(&self) -> impl Iterator<Item = (SlotId, &PairSlot)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(id, s)| Some((id as SlotId, s.as_ref()?)))
    }

    /// The fresh slots.
    pub(crate) fn fresh(&self) -> &[SlotId] {
        &self.fresh
    }

    /// The owned pairs containing `entity` on `side`, with their other
    /// endpoints.
    pub(crate) fn pairs_of(&self, side: Side, entity: EntityId) -> &[Adjacent] {
        self.adjacency[side.idx()]
            .get(&entity)
            .map_or(&[], Vec::as_slice)
    }

    /// Registers a pair with `cached` contributions and no edge, under
    /// both of its endpoints; `None` when it is already owned.
    pub(crate) fn insert(
        &mut self,
        pair: PairKey,
        cached: CachedPair,
        fresh: bool,
    ) -> Option<SlotId> {
        let std::collections::hash_map::Entry::Vacant(entry) = self.index.entry(pair) else {
            return None;
        };
        let id = match self.vacant.pop() {
            Some(id) => id,
            None => {
                self.slots.push(None);
                SlotId::try_from(self.slots.len() - 1).expect("fewer than 2^32 pairs per shard")
            }
        };
        entry.insert(id);
        let mut at = [0; 2];
        for (side, e, other) in [(Side::Left, pair.0, pair.1), (Side::Right, pair.1, pair.0)] {
            let list = self.adjacency[side.idx()].entry(e).or_default();
            at[side.idx()] = list.len() as u32;
            list.push((id, other));
        }
        let fresh_at = self.fresh.len() as u32;
        if fresh {
            self.fresh.push(id);
        }
        self.slots[id as usize] = Some(PairSlot {
            pair,
            cached,
            edge: None,
            fresh,
            at,
            fresh_at,
        });
        Some(id)
    }

    /// Drops a pair: its slot, its adjacency entries, its fresh listing
    /// and — when it had one — its served edge (a removal delta).
    pub(crate) fn remove(&mut self, id: SlotId) -> PairKey {
        let slot = self.slots[id as usize].take().expect("live slot");
        self.index.remove(&slot.pair);
        self.vacant.push(id);
        for (side, e) in [(Side::Left, slot.pair.0), (Side::Right, slot.pair.1)] {
            let lists = &mut self.adjacency[side.idx()];
            let list = lists.get_mut(&e).expect("an owned pair is listed");
            let at = slot.at[side.idx()] as usize;
            list.swap_remove(at);
            if let Some(&(moved, _)) = list.get(at) {
                self.slots[moved as usize]
                    .as_mut()
                    .expect("listed slots are live")
                    .at[side.idx()] = at as u32;
            } else if list.is_empty() {
                lists.remove(&e);
            }
        }
        if slot.fresh {
            let at = slot.fresh_at as usize;
            self.fresh.swap_remove(at);
            if let Some(&moved) = self.fresh.get(at) {
                self.slot_mut(moved).fresh_at = at as u32;
            }
        }
        if slot.edge.is_some() {
            self.live_edges -= 1;
            self.deltas.push((slot.pair, None));
        }
        slot.pair
    }

    /// Drops every owned pair adjacent to `(side, entity)` —
    /// O(degree). Returns how many.
    pub(crate) fn remove_pairs_of(&mut self, side: Side, entity: EntityId) -> usize {
        let pairs = self.adjacency[side.idx()]
            .get(&entity)
            .cloned()
            .unwrap_or_default();
        for &(id, _) in &pairs {
            self.remove(id);
        }
        pairs.len()
    }

    /// The slots themselves, for rescore chunks that patch disjoint
    /// ranges of them in place and report the rest of their changes in
    /// a [`SlotChanges`] for [`PairTable::absorb`].
    pub(crate) fn slots_mut(&mut self) -> &mut [Option<PairSlot>] {
        &mut self.slots
    }

    /// Takes in what a rescore chunk did to its slots: their edge
    /// changes (appended to the delta run), their edge count, and the
    /// pairs whose endpoint vanished (dropped now).
    pub(crate) fn absorb(&mut self, changes: SlotChanges) {
        self.live_edges = (self.live_edges as isize + changes.live_edges) as usize;
        self.deltas.extend(changes.deltas);
        for id in changes.vanished {
            self.remove(id);
        }
    }

    /// Ends a tick's visit: no slot is fresh any more.
    pub(crate) fn clear_fresh(&mut self) {
        for id in std::mem::take(&mut self.fresh) {
            self.slot_mut(id).fresh = false;
        }
    }

    /// Drains the edge changes since the last barrier: sorted by pair,
    /// one per pair, the last write winning.
    pub(crate) fn take_edge_deltas(&mut self) -> Vec<EdgeDeltaEntry> {
        let mut deltas = std::mem::take(&mut self.deltas);
        last_write_per_pair(&mut deltas);
        deltas
    }

    /// The pending edge changes as [`PairTable::take_edge_deltas`] would
    /// drain them, left in place (the checkpoint export).
    pub(crate) fn edge_deltas(&self) -> Vec<EdgeDeltaEntry> {
        let mut deltas = self.deltas.clone();
        last_write_per_pair(&mut deltas);
        deltas
    }

    /// Restores a served edge of an owned pair (checkpoint recovery):
    /// no delta.
    pub(crate) fn restore_edge(&mut self, pair: PairKey, score: f64) -> Result<(), String> {
        let id = self
            .get(pair)
            .ok_or(format!("edge {pair:?} has no cached pair"))?;
        let slot = self.slot_mut(id);
        if slot.edge.replace(score).is_none() {
            self.live_edges += 1;
        }
        Ok(())
    }

    /// Restores a pending edge change (checkpoint recovery).
    pub(crate) fn restore_delta(&mut self, pair: PairKey, edge: Option<f64>) {
        self.deltas.push((pair, edge));
    }

    /// Marks an owned pair fresh (checkpoint recovery).
    pub(crate) fn restore_fresh(&mut self, pair: PairKey) -> Result<(), String> {
        let id = self
            .get(pair)
            .ok_or(format!("fresh pair {pair:?} has no cached pair"))?;
        let at = self.fresh.len() as u32;
        let slot = self.slot_mut(id);
        if !std::mem::replace(&mut slot.fresh, true) {
            slot.fresh_at = at;
            self.fresh.push(id);
        }
        Ok(())
    }

    /// Why the table's bookkeeping is inconsistent (`None` when it is
    /// not): the index, the slots, the adjacency positions, the fresh
    /// list and the edge count must all describe the same pairs.
    pub(crate) fn violation(&self) -> Option<String> {
        let live = self.slots().count();
        if live != self.index.len() || live + self.vacant.len() != self.slots.len() {
            return Some(format!(
                "{live} live slots, {} indexed, {} vacant of {}",
                self.index.len(),
                self.vacant.len(),
                self.slots.len()
            ));
        }
        let mut listed = 0;
        for (id, slot) in self.slots() {
            if self.get(slot.pair) != Some(id) {
                return Some(format!("slot {id} ({:?}) is not indexed", slot.pair));
            }
            for (side, e) in [(Side::Left, slot.pair.0), (Side::Right, slot.pair.1)] {
                let listed = self.pairs_of(side, e).get(slot.at[side.idx()] as usize);
                if listed.map(|&(listed, _)| listed) != Some(id) {
                    return Some(format!(
                        "slot {id} ({:?}) misplaced in {side:?} adjacency",
                        slot.pair
                    ));
                }
            }
            listed += usize::from(slot.fresh);
        }
        let adjacent: usize = self.adjacency[0].values().map(Vec::len).sum();
        if adjacent != live || self.adjacency[1].values().map(Vec::len).sum::<usize>() != live {
            return Some(format!(
                "adjacency lists {adjacent} entries for {live} pairs"
            ));
        }
        let misplaced = self.fresh.iter().enumerate().any(|(at, &id)| {
            let slot = self.slot(id);
            !slot.fresh || slot.fresh_at as usize != at
        });
        if listed != self.fresh.len() || misplaced {
            return Some(format!("{listed} fresh slots, {} listed", self.fresh.len()));
        }
        let edges = self.slots().filter(|(_, s)| s.edge.is_some()).count();
        (edges != self.live_edges).then(|| format!("{edges} edges, {} counted", self.live_edges))
    }
}

/// Sorts `deltas` by pair, keeping only the last write of each pair:
/// reversed, a stable sort puts each pair's last write first.
fn last_write_per_pair(deltas: &mut Vec<EdgeDeltaEntry>) {
    deltas.reverse();
    deltas.sort_by_key(|&(pair, _)| pair);
    deltas.dedup_by_key(|&mut (pair, _)| pair);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(l: u64, r: u64) -> PairKey {
        (EntityId(l), EntityId(r))
    }

    /// The owned pairs of `table` adjacent to `(side, entity)`, sorted.
    fn pairs_of_sorted(table: &PairTable, side: Side, entity: EntityId) -> Vec<PairKey> {
        let mut pairs: Vec<PairKey> = table
            .pairs_of(side, entity)
            .iter()
            .map(|&(id, _)| table.slot(id).pair)
            .collect();
        pairs.sort_unstable();
        pairs
    }

    fn add(table: &mut PairTable, p: PairKey) -> Option<SlotId> {
        table.insert(p, CachedPair::default(), true)
    }

    fn degree(table: &PairTable, side: Side, e: u64) -> usize {
        table.pairs_of(side, EntityId(e)).len()
    }

    fn checked(table: &PairTable) {
        if let Some(why) = table.violation() {
            panic!("{why}");
        }
    }

    #[test]
    fn indexes_both_endpoints() {
        let mut table = PairTable::default();
        add(&mut table, pair(1, 100));
        add(&mut table, pair(1, 101));
        add(&mut table, pair(2, 100));
        checked(&table);
        assert_eq!(degree(&table, Side::Left, 1), 2);
        assert_eq!(degree(&table, Side::Left, 2), 1);
        assert_eq!(degree(&table, Side::Right, 100), 2);
        assert_eq!(degree(&table, Side::Right, 101), 1);
        assert_eq!(
            pairs_of_sorted(&table, Side::Right, EntityId(100)),
            vec![pair(1, 100), pair(2, 100)]
        );
        assert!(table.pairs_of(Side::Left, EntityId(99)).is_empty());
        assert_eq!(table.fresh().len(), 3);
    }

    #[test]
    fn remove_drops_emptied_entities() {
        let mut table = PairTable::default();
        let a = add(&mut table, pair(1, 100)).unwrap();
        let b = add(&mut table, pair(1, 101)).unwrap();
        table.remove(a);
        checked(&table);
        assert_eq!(degree(&table, Side::Left, 1), 1);
        assert_eq!(
            table.adjacency[Side::Right.idx()].len(),
            1,
            "100 must be dropped"
        );
        table.remove(b);
        checked(&table);
        assert!(table.adjacency.iter().all(FastMap::is_empty));
        assert!(table.fresh().is_empty() && table.len() == 0);
        assert_eq!(table.remove_pairs_of(Side::Left, EntityId(7)), 0);
    }

    #[test]
    fn reinsert_after_remove() {
        let mut table = PairTable::default();
        let id = add(&mut table, pair(3, 300)).unwrap();
        table.remove(id);
        // The vacated slot is reused.
        assert_eq!(add(&mut table, pair(3, 300)), Some(id));
        assert_eq!(degree(&table, Side::Left, 3), 1);
        // Registration is idempotent.
        assert_eq!(add(&mut table, pair(3, 300)), None);
        assert_eq!(degree(&table, Side::Right, 300), 1);
        assert_eq!(table.fresh(), &[id]);
        checked(&table);
    }

    /// Random inserts, removals by slot and by endpoint, patches and
    /// fresh resets: after every step the table's bookkeeping agrees
    /// with itself and with a plain map of the owned pairs.
    #[test]
    fn random_churn_keeps_the_table_consistent() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 33) % n
        };
        let mut table = PairTable::default();
        let mut owned: std::collections::BTreeMap<PairKey, Option<f64>> = Default::default();
        for step in 0..4000 {
            let p = pair(next(8), next(8));
            match next(6) {
                0 | 1 => {
                    let added = add(&mut table, p).is_some();
                    assert_eq!(added, !owned.contains_key(&p), "step {step}");
                    owned.entry(p).or_insert(None);
                }
                2 => {
                    if let Some(id) = table.get(p) {
                        assert_eq!(table.remove(id), p);
                        owned.remove(&p);
                    }
                }
                3 => {
                    let e = EntityId(next(8));
                    let n = table.remove_pairs_of(Side::Right, e);
                    let before = owned.len();
                    owned.retain(|q, _| q.1 != e);
                    assert_eq!(n, before - owned.len(), "step {step}");
                }
                4 => {
                    if let Some(id) = table.get(p) {
                        let score = [0.0, 0.5, 1.5][next(3) as usize];
                        let mut changes = SlotChanges::default();
                        table.slots_mut()[id as usize].as_mut().unwrap().set_score(
                            id,
                            score,
                            &mut changes,
                        );
                        table.absorb(changes);
                        owned.insert(p, (score > 0.0).then_some(score));
                    }
                }
                _ => table.clear_fresh(),
            }
            checked(&table);
            let got: Vec<(PairKey, Option<f64>)> = {
                let mut v: Vec<_> = table.slots().map(|(_, s)| (s.pair, s.edge)).collect();
                v.sort_by_key(|&(p, _)| p);
                v
            };
            let want: Vec<(PairKey, Option<f64>)> = owned.iter().map(|(&p, &e)| (p, e)).collect();
            assert_eq!(got, want, "step {step}");
        }
    }
}
