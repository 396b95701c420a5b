//! Entity→pair adjacency: the index that makes a refresh tick's work
//! proportional to the *update footprint* instead of the cache size.
//!
//! The engine's pair cache maps `(left, right)` candidate pairs to their
//! per-window score contributions. A refresh tick must rescore exactly
//! the pairs adjacent to entities dirtied since the last tick; before
//! this index existed, it discovered them by probing every cached pair
//! against the dirty sets — two hash probes per pair per tick, O(cache)
//! even for a single-entity update. The adjacency index inverts the
//! cache: for each endpoint entity it records the owned pairs containing
//! it, so a tick walks `Σ degree(dirty entity)` entries instead.
//!
//! Each [`crate::shard::EngineShard`] keeps one `AdjacencyIndex` over
//! the pairs *it owns* (owner = home shard of the Left entity). Both
//! endpoints are indexed: a Right entity's pairs may be owned by any
//! shard, so every shard resolves the globally gathered dirty-entity
//! list against its local adjacency — the lookups that miss cost one
//! hash probe per (shard, dirty entity), not one per pair. Both levels
//! are keyed under [`slim_core::fasthash`].

use slim_core::fasthash::{FastMap, FastSet};
use slim_core::EntityId;

use crate::event::Side;

/// A candidate pair as keyed in the engine's cache: `(left, right)`.
pub(crate) type PairKey = (EntityId, EntityId);

/// Maps each endpoint entity of one shard's owned pairs to those pairs.
#[derive(Debug, Clone, Default)]
pub(crate) struct AdjacencyIndex {
    /// Per side: entity → owned pairs containing it.
    by_entity: [FastMap<EntityId, FastSet<PairKey>>; 2],
}

impl AdjacencyIndex {
    /// Registers a pair under both of its endpoints.
    pub(crate) fn insert(&mut self, pair: PairKey) {
        self.by_entity[Side::Left.idx()]
            .entry(pair.0)
            .or_default()
            .insert(pair);
        self.by_entity[Side::Right.idx()]
            .entry(pair.1)
            .or_default()
            .insert(pair);
    }

    /// Unregisters a pair from both endpoints, dropping emptied entity
    /// entries so the index never outgrows the live cache.
    pub(crate) fn remove(&mut self, pair: PairKey) {
        for (side, e) in [(Side::Left, pair.0), (Side::Right, pair.1)] {
            if let Some(set) = self.by_entity[side.idx()].get_mut(&e) {
                set.remove(&pair);
                if set.is_empty() {
                    self.by_entity[side.idx()].remove(&e);
                }
            }
        }
    }

    /// The owned pairs containing `entity` on `side` (`None` = no owned
    /// pair touches it).
    pub(crate) fn pairs_of(&self, side: Side, entity: EntityId) -> Option<&FastSet<PairKey>> {
        self.by_entity[side.idx()].get(&entity)
    }

    /// The owned pairs containing `entity`, collected and sorted — the
    /// deterministic-order variant for barrier-time removals.
    pub(crate) fn pairs_of_sorted(&self, side: Side, entity: EntityId) -> Vec<PairKey> {
        let mut pairs: Vec<PairKey> = self
            .pairs_of(side, entity)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        pairs.sort_unstable();
        pairs
    }

    /// Number of pairs adjacent to `entity` on `side`.
    #[cfg(test)]
    pub(crate) fn degree(&self, side: Side, entity: EntityId) -> usize {
        self.pairs_of(side, entity).map(FastSet::len).unwrap_or(0)
    }

    /// Number of indexed endpoint entities on `side`.
    #[cfg(test)]
    pub(crate) fn num_entities(&self, side: Side) -> usize {
        self.by_entity[side.idx()].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(l: u64, r: u64) -> PairKey {
        (EntityId(l), EntityId(r))
    }

    #[test]
    fn indexes_both_endpoints() {
        let mut adj = AdjacencyIndex::default();
        adj.insert(pair(1, 100));
        adj.insert(pair(1, 101));
        adj.insert(pair(2, 100));
        assert_eq!(adj.degree(Side::Left, EntityId(1)), 2);
        assert_eq!(adj.degree(Side::Left, EntityId(2)), 1);
        assert_eq!(adj.degree(Side::Right, EntityId(100)), 2);
        assert_eq!(adj.degree(Side::Right, EntityId(101)), 1);
        assert_eq!(
            adj.pairs_of_sorted(Side::Right, EntityId(100)),
            vec![pair(1, 100), pair(2, 100)]
        );
        assert!(adj.pairs_of(Side::Left, EntityId(99)).is_none());
    }

    #[test]
    fn remove_drops_emptied_entities() {
        let mut adj = AdjacencyIndex::default();
        adj.insert(pair(1, 100));
        adj.insert(pair(1, 101));
        adj.remove(pair(1, 100));
        assert_eq!(adj.degree(Side::Left, EntityId(1)), 1);
        assert_eq!(adj.num_entities(Side::Right), 1, "100 must be dropped");
        adj.remove(pair(1, 101));
        assert_eq!(adj.num_entities(Side::Left), 0);
        assert_eq!(adj.num_entities(Side::Right), 0);
        // Removing an absent pair is a no-op.
        adj.remove(pair(7, 7));
    }

    #[test]
    fn reinsert_after_remove() {
        let mut adj = AdjacencyIndex::default();
        adj.insert(pair(3, 300));
        adj.remove(pair(3, 300));
        adj.insert(pair(3, 300));
        assert_eq!(adj.degree(Side::Left, EntityId(3)), 1);
        // Duplicate insert is idempotent (set semantics).
        adj.insert(pair(3, 300));
        assert_eq!(adj.degree(Side::Right, EntityId(300)), 1);
    }
}
