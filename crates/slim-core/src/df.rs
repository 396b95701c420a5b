//! Dataset-level document-frequency statistics, factored out of
//! [`crate::history::HistorySet`] so they can be maintained as
//! **shard-mergeable deltas**.
//!
//! The similarity score depends on three dataset-level quantities: the
//! per-bin document frequencies (idf, paper Eq. 3), the total bin count
//! (BM25 length normalization, Eq. 2), and the entity count (both). A
//! sharded engine partitions the *histories* by entity hash but the
//! score still needs these statistics over the whole dataset — so each
//! shard accumulates a [`DfDelta`] while it mutates its slice of the
//! histories, and the deltas are applied to one authoritative
//! [`DfStats`] at a merge barrier. All three quantities are integer
//! counters, so delta application is commutative and the merged state is
//! bit-identical to what a serial engine (or the batch
//! [`crate::history::HistorySet::build`]) would hold.
//!
//! Every scored bin pair probes two document frequencies and every
//! applied or expired bin one delta, so both maps are keyed under
//! [`crate::fasthash`]. The scorer reads idf through an [`IdfTable`]:
//! idf depends only on `(|U|, df)`, so the `ln` of every df below
//! [`IDF_TABLE_LEN`] is taken once when the table is built, by the same
//! expression [`DfStats::idf`] evaluates.

use geocell::CellId;

use crate::fasthash::FastMap;
use crate::window::WindowIdx;

/// df values below this bound read their idf from an [`IdfTable`]; a
/// fixed constant, not a tuning option.
pub const IDF_TABLE_LEN: usize = 64;

/// `ln(|U| / df)`: paper Eq. 3, the one expression behind
/// [`DfStats::idf`] and [`IdfTable`].
fn idf_of(num_entities: usize, df: u32) -> f64 {
    (num_entities as f64 / df as f64).ln()
}

/// Dataset-level statistics the similarity score reads: per-bin document
/// frequencies, total bins, entity count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DfStats {
    /// `(window, cell)` → number of distinct entities with that bin.
    bin_df: FastMap<(WindowIdx, CellId), u32>,
    /// Total bins across all histories (`Σ |H_u|`).
    total_bins: usize,
    /// Number of entities with a (non-empty) history (`|U|`).
    num_entities: usize,
}

impl DfStats {
    /// Empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entities, `|U|`.
    pub fn num_entities(&self) -> usize {
        self.num_entities
    }

    /// Total bins across all histories.
    pub fn total_bins(&self) -> usize {
        self.total_bins
    }

    /// Document frequency of one bin (0 if never seen).
    pub fn df(&self, w: WindowIdx, cell: CellId) -> u32 {
        self.bin_df.get(&(w, cell)).copied().unwrap_or(0)
    }

    /// Inverse document frequency of a time-location bin (paper Eq. 3):
    /// `ln(|U| / df)`. Bins never seen get the maximal idf `ln(|U|)`.
    pub fn idf(&self, w: WindowIdx, cell: CellId) -> f64 {
        idf_of(self.num_entities, self.idf_df(w, cell))
    }

    /// The df [`DfStats::idf`] divides by: at least 1.
    fn idf_df(&self, w: WindowIdx, cell: CellId) -> u32 {
        self.bin_df.get(&(w, cell)).copied().unwrap_or(1).max(1)
    }

    /// Average bins per history (`Σ|H_u'| / |U|`, paper Eq. 2
    /// denominator).
    pub fn avg_bins(&self) -> f64 {
        if self.num_entities == 0 {
            0.0
        } else {
            self.total_bins as f64 / self.num_entities as f64
        }
    }

    /// BM25-inspired length normalization `L(u, E)` (paper Eq. 2) for an
    /// entity with `num_bins` bins: `(1 − b) + b · |H_u| / avg_bins`.
    pub fn length_norm_for(&self, num_bins: usize, b: f64) -> f64 {
        let avg = self.avg_bins();
        if avg == 0.0 {
            return 1.0;
        }
        (1.0 - b) + b * num_bins as f64 / avg
    }

    /// Direct single-bin increment (a new `(window, cell)` bin appeared
    /// in some history) — the non-delta maintenance path.
    pub fn add_bin(&mut self, w: WindowIdx, cell: CellId) {
        *self.bin_df.entry((w, cell)).or_insert(0) += 1;
        self.total_bins += 1;
    }

    /// Direct single-bin decrement (a `(window, cell)` bin was evicted
    /// from some history).
    pub fn remove_bin(&mut self, w: WindowIdx, cell: CellId) {
        if let Some(df) = self.bin_df.get_mut(&(w, cell)) {
            *df -= 1;
            if *df == 0 {
                self.bin_df.remove(&(w, cell));
            }
        }
        self.total_bins -= 1;
    }

    /// Records an entity gaining its first bin (history created).
    pub fn add_entity(&mut self) {
        self.num_entities += 1;
    }

    /// Records an entity losing its last bin (history removed).
    pub fn remove_entity(&mut self) {
        self.num_entities -= 1;
    }

    /// The per-bin document frequencies in sorted `(window, cell)`
    /// order — a canonical dump for checkpoint serialization (the
    /// internal map iterates in hash order).
    pub fn sorted_entries(&self) -> Vec<(WindowIdx, CellId, u32)> {
        let mut out: Vec<(WindowIdx, CellId, u32)> = self
            .bin_df
            .iter()
            .map(|(&(w, cell), &df)| (w, cell, df))
            .collect();
        out.sort_unstable();
        out
    }

    /// Reconstructs statistics from a [`DfStats::sorted_entries`] dump
    /// plus the two scalar counters — the checkpoint-recovery inverse.
    pub fn from_parts(
        entries: Vec<(WindowIdx, CellId, u32)>,
        total_bins: usize,
        num_entities: usize,
    ) -> Self {
        Self {
            bin_df: entries
                .into_iter()
                .map(|(w, cell, df)| ((w, cell), df))
                .collect(),
            total_bins,
            num_entities,
        }
    }

    /// Applies one shard's accumulated delta. Deltas are integer
    /// adjustments, so application order across shards does not affect
    /// the merged state.
    pub fn apply(&mut self, delta: &DfDelta) {
        for (&key, &d) in &delta.bin_df {
            if d == 0 {
                continue;
            }
            let slot = self.bin_df.entry(key).or_insert(0);
            let next = *slot as i64 + d as i64;
            debug_assert!(next >= 0, "df underflow at {key:?}");
            if next <= 0 {
                self.bin_df.remove(&key);
            } else {
                *slot = next as u32;
            }
        }
        self.total_bins = (self.total_bins as i64 + delta.total_bins) as usize;
        self.num_entities = (self.num_entities as i64 + delta.num_entities) as usize;
    }
}

/// [`DfStats::idf`] with the `ln` of every df below [`IDF_TABLE_LEN`]
/// taken once, at construction (one per df, per side and scorer: once
/// per batch scoring pass and once per streaming tick). A larger df
/// falls back to [`DfStats::idf`]. Both evaluate the one expression on
/// the same operands, so every idf keeps its bits.
#[derive(Debug, Clone)]
pub struct IdfTable<'a> {
    stats: &'a DfStats,
    by_df: [f64; IDF_TABLE_LEN],
}

impl<'a> IdfTable<'a> {
    /// The table over `stats`' current `|U|`.
    pub fn new(stats: &'a DfStats) -> Self {
        Self {
            stats,
            by_df: std::array::from_fn(|df| idf_of(stats.num_entities, df as u32)),
        }
    }

    /// [`DfStats::idf`], bit for bit.
    #[inline]
    pub fn idf(&self, w: WindowIdx, cell: CellId) -> f64 {
        let df = self.stats.idf_df(w, cell);
        match self.by_df.get(df as usize) {
            Some(&idf) => idf,
            None => idf_of(self.stats.num_entities, df),
        }
    }
}

/// One shard's pending adjustments to a [`DfStats`], accumulated during
/// a parallel phase and applied (in any order) at the merge barrier.
#[derive(Debug, Clone, Default)]
pub struct DfDelta {
    bin_df: FastMap<(WindowIdx, CellId), i32>,
    total_bins: i64,
    num_entities: i64,
}

impl DfDelta {
    /// Empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the delta carries no adjustments.
    pub fn is_empty(&self) -> bool {
        self.bin_df.is_empty() && self.total_bins == 0 && self.num_entities == 0
    }

    /// A new `(window, cell)` bin appeared in some history.
    pub fn add_bin(&mut self, w: WindowIdx, cell: CellId) {
        *self.bin_df.entry((w, cell)).or_insert(0) += 1;
        self.total_bins += 1;
    }

    /// A `(window, cell)` bin was evicted from some history.
    pub fn remove_bin(&mut self, w: WindowIdx, cell: CellId) {
        *self.bin_df.entry((w, cell)).or_insert(0) -= 1;
        self.total_bins -= 1;
    }

    /// An entity gained its first bin (history created).
    pub fn add_entity(&mut self) {
        self.num_entities += 1;
    }

    /// An entity lost its last bin (history removed).
    pub fn remove_entity(&mut self) {
        self.num_entities -= 1;
    }

    /// Folds another delta into this one (shard-tree merges).
    pub fn merge(&mut self, other: &DfDelta) {
        for (&key, &d) in &other.bin_df {
            *self.bin_df.entry(key).or_insert(0) += d;
        }
        self.total_bins += other.total_bins;
        self.num_entities += other.num_entities;
    }

    /// Drains this delta, returning it and leaving an empty one behind.
    pub fn take(&mut self) -> DfDelta {
        std::mem::take(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geocell::LatLng;

    fn cell(lng: f64) -> CellId {
        CellId::from_latlng(LatLng::from_degrees(10.0, lng), 12)
    }

    #[test]
    fn direct_and_delta_maintenance_agree() {
        // Base state: entity 1 (shard A) holds bins (0, c0) and (0, c1).
        let mut base = DfStats::new();
        base.add_entity();
        base.add_bin(0, cell(0.0));
        base.add_bin(0, cell(1.0));

        // Direct (serial) continuation: entity 2 (shard B) gains (0, c0),
        // entity 1 evicts (0, c1). Each shard only ever removes bins its
        // own entities hold — the invariant the delta form relies on.
        let mut direct = base.clone();
        direct.add_entity();
        direct.add_bin(0, cell(0.0));
        direct.remove_bin(0, cell(1.0));

        let mut a = DfDelta::new();
        a.remove_bin(0, cell(1.0));
        let mut b = DfDelta::new();
        b.add_entity();
        b.add_bin(0, cell(0.0));

        // Application order across shards must not matter.
        for order in [[&a, &b], [&b, &a]] {
            let mut merged = base.clone();
            for d in order {
                merged.apply(d);
            }
            assert_eq!(direct, merged);
            assert_eq!(merged.df(0, cell(0.0)), 2);
            assert_eq!(merged.df(0, cell(1.0)), 0);
            assert_eq!(merged.total_bins(), 2);
            assert_eq!(merged.num_entities(), 2);
        }
    }

    #[test]
    fn idf_and_norm_match_reference_arithmetic() {
        let mut s = DfStats::new();
        for _ in 0..3 {
            s.add_entity();
        }
        s.add_bin(0, cell(0.0));
        s.add_bin(0, cell(0.0));
        s.add_bin(5, cell(2.0));
        assert!((s.idf(0, cell(0.0)) - (3.0f64 / 2.0).ln()).abs() < 1e-15);
        assert!((s.idf(5, cell(2.0)) - 3.0f64.ln()).abs() < 1e-15);
        // Unseen bins take df = 1 (maximal idf).
        assert!((s.idf(9, cell(9.0)) - 3.0f64.ln()).abs() < 1e-15);
        assert!((s.avg_bins() - 1.0).abs() < 1e-15);
        assert!((s.length_norm_for(2, 0.5) - 1.5).abs() < 1e-15);
        assert!((s.length_norm_for(0, 0.5) - 0.5).abs() < 1e-15);
    }

    #[test]
    fn delta_merge_folds_adjustments() {
        let mut a = DfDelta::new();
        a.add_bin(0, cell(0.0));
        a.add_entity();
        let mut b = DfDelta::new();
        b.remove_bin(0, cell(0.0));
        b.add_bin(1, cell(1.0));
        a.merge(&b);
        let mut s = DfStats::new();
        s.apply(&a);
        assert_eq!(s.df(0, cell(0.0)), 0);
        assert_eq!(s.df(1, cell(1.0)), 1);
        assert_eq!(s.total_bins(), 1);
        assert_eq!(s.num_entities(), 1);
        assert!(!a.is_empty());
        assert!(DfDelta::new().is_empty());
    }

    /// The table's idf is `DfStats::idf`'s, bit for bit, for every df
    /// from 1 to 200 — below, at and above the table bound — and for
    /// an unseen bin, over several entity counts.
    #[test]
    fn idf_table_is_bit_identical_to_the_direct_idf() {
        for entities in [1usize, 7, 100] {
            let mut s = DfStats::new();
            for _ in 0..entities {
                s.add_entity();
            }
            for df in 1..=200u32 {
                for _ in 0..df {
                    s.add_bin(df, cell(0.0));
                }
            }
            let table = IdfTable::new(&s);
            for df in 1..=200u32 {
                assert_eq!(s.df(df, cell(0.0)), df);
                let (direct, tabled) = (s.idf(df, cell(0.0)), table.idf(df, cell(0.0)));
                assert_eq!(
                    tabled.to_bits(),
                    direct.to_bits(),
                    "|U| {entities}, df {df}"
                );
            }
            let unseen = table.idf(999, cell(5.0));
            assert_eq!(unseen.to_bits(), s.idf(999, cell(5.0)).to_bits());
        }
    }

    #[test]
    fn empty_stats_norm_is_one() {
        let s = DfStats::new();
        assert_eq!(s.avg_bins(), 0.0);
        assert_eq!(s.length_norm_for(5, 0.5), 1.0);
    }
}
