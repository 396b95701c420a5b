//! Mobility-history similarity score (paper Eq. 2 and Alg. 1 inner loop).
//!
//! For two entities `u ∈ U_E`, `v ∈ U_I`:
//!
//! ```text
//! S(u, v) = Σ_{(e,i) ∈ N(u,v)}  P(e,i) · min(idf(e,E), idf(i,I)) / (L(u,E) · L(v,I))
//! ```
//!
//! plus, per common window, the negative contributions of mutually-
//! furthest (alibi) pairs. The IDF and normalization factors are ablation
//! switches so the Fig. 10 variants are pure configuration.

use std::cell::RefCell;

use geocell::{CellGeometry, CellId};

use crate::arena::{common_runs, EntityView, Run};
use crate::config::{PairingMode, SlimConfig};
use crate::df::{DfStats, IdfTable};
use crate::history::HistorySet;
use crate::pairing::{with_geometry_memo, with_window_pairs, BinPair, Bins, Selection};
use crate::proximity::{is_alibi, proximity_of_distance};
use crate::record::EntityId;
use crate::stats::LinkageStats;
use crate::window::WindowIdx;

/// One side's run of a window, resolved for the window kernel
/// ([`SimilarityScorer::resolved_contribution`]): each bin's cell, its
/// geometry and its idf, and the run's record total.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResolvedRun<'a> {
    /// The run's cells.
    pub cells: &'a [CellId],
    /// Each cell's geometry.
    pub geometry: &'a [CellGeometry],
    /// Each bin's idf (all 1 when idf is switched off).
    pub idf: &'a [f64],
    /// Records aggregated into the run's bins.
    pub records: u32,
}

/// Resolved runs laid end to end, so a memo of them is three columns
/// and a [`RunSpan`] per run.
#[derive(Debug, Default)]
pub struct ResolvedRuns {
    cells: Vec<CellId>,
    geometry: Vec<CellGeometry>,
    idf: Vec<f64>,
}

/// Where one run sits in a [`ResolvedRuns`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSpan {
    start: u32,
    len: u32,
    records: u32,
}

impl ResolvedRuns {
    /// Forgets every run; their spans must not be read again.
    pub fn clear(&mut self) {
        self.cells.clear();
        self.geometry.clear();
        self.idf.clear();
    }

    /// Bins held, over all runs.
    pub fn bins(&self) -> usize {
        self.cells.len()
    }

    /// The run at `span`.
    pub fn get(&self, span: RunSpan) -> ResolvedRun<'_> {
        let range = span.start as usize..(span.start + span.len) as usize;
        ResolvedRun {
            cells: &self.cells[range.clone()],
            geometry: &self.geometry[range.clone()],
            idf: &self.idf[range],
            records: span.records,
        }
    }
}

thread_local! {
    /// Each side's cell geometry for
    /// [`SimilarityScorer::window_contribution`], in buffers that live
    /// as long as the thread.
    static WINDOW_GEOMETRY: RefCell<[Vec<CellGeometry>; 2]> = RefCell::default();
}

/// Scores entity pairs across two datasets under one configuration.
///
/// The scoring arithmetic reads only the dataset-level [`DfStats`] (df /
/// idf, average bins, entity count) plus the two endpoint histories, so
/// the scorer comes in two flavours: over whole [`HistorySet`]s (the
/// batch pipeline — entity-id lookups work) or over bare stats
/// ([`SimilarityScorer::from_df_stats`], the sharded streaming engine —
/// the caller resolves histories itself, e.g. across shard-partitioned
/// arenas). Both read histories as [`EntityView`]s, so they produce
/// bit-identical scores for the same bins, whichever arena holds them.
///
/// Construction builds each side's [`IdfTable`], so a scorer is meant to
/// live for a whole scoring pass (a batch `score_pairs`, a streaming
/// tick), not for one pair.
pub struct SimilarityScorer<'a> {
    cfg: &'a SlimConfig,
    left_df: &'a DfStats,
    right_df: &'a DfStats,
    /// Left then right.
    idf: [IdfTable<'a>; 2],
    left: Option<&'a HistorySet<'a>>,
    right: Option<&'a HistorySet<'a>>,
    runaway_m: f64,
}

impl<'a> SimilarityScorer<'a> {
    /// Creates a scorer over the two datasets' history sets.
    ///
    /// # Panics
    /// Panics if the two sets use different window schemes or levels —
    /// bins would not be comparable.
    pub fn new(cfg: &'a SlimConfig, left: &'a HistorySet<'a>, right: &'a HistorySet<'a>) -> Self {
        assert_eq!(
            left.scheme(),
            right.scheme(),
            "history sets must share a window scheme"
        );
        assert_eq!(
            left.spatial_level(),
            right.spatial_level(),
            "history sets must share a spatial level"
        );
        Self {
            left: Some(left),
            right: Some(right),
            ..Self::from_df_stats(cfg, left.df_stats(), right.df_stats())
        }
    }

    /// Creates a scorer from bare dataset-level statistics — for callers
    /// that own the histories themselves (the sharded streaming engine
    /// keeps them in per-shard columnar arenas). Only the history-explicit
    /// methods ([`SimilarityScorer::score_histories`],
    /// [`SimilarityScorer::window_contribution`],
    /// [`SimilarityScorer::resolve_run`],
    /// [`SimilarityScorer::resolved_contribution`],
    /// [`SimilarityScorer::pair_norm_bins`]) are usable; the caller must
    /// guarantee both datasets share one window scheme and spatial level.
    pub fn from_df_stats(cfg: &'a SlimConfig, left_df: &'a DfStats, right_df: &'a DfStats) -> Self {
        Self {
            cfg,
            left_df,
            right_df,
            idf: [IdfTable::new(left_df), IdfTable::new(right_df)],
            left: None,
            right: None,
            runaway_m: cfg.runaway_m(),
        }
    }

    /// The similarity score `S(u, v)`. Returns `None` when either entity
    /// has no history. Work counters are accumulated into `stats`.
    ///
    /// # Panics
    /// Panics on a scorer built with
    /// [`SimilarityScorer::from_df_stats`] — there are no history sets
    /// to look the entities up in.
    pub fn score(&self, u: EntityId, v: EntityId, stats: &mut LinkageStats) -> Option<f64> {
        let left = self.left.expect("score-by-id needs history sets");
        let right = self.right.expect("score-by-id needs history sets");
        let hu = left.history(u)?;
        let hv = right.history(v)?;
        Some(self.score_histories(&hu, &hv, stats))
    }

    /// Scores two explicit histories, from any arena: the sum of
    /// per-window [`SimilarityScorer::window_contribution`]s over the
    /// common windows, ascending, divided by the pair's length
    /// normalization. One merge walk ([`common_runs`]) over both
    /// histories' window runs finds the common windows and their bins
    /// together.
    pub fn score_histories(
        &self,
        hu: &EntityView<'_>,
        hv: &EntityView<'_>,
        stats: &mut LinkageStats,
    ) -> f64 {
        stats.scored_entity_pairs += 1;
        let norm = self.pair_norm_bins(hu.num_bins(), hv.num_bins());
        let mut total = 0.0;
        common_runs(hu, hv, |w, ru, rv| {
            total += self.window_contribution(w, ru, rv, stats);
        });
        total / norm
    }

    /// The joint length normalization `L(u, E) · L(v, I)` of a pair
    /// under this configuration (1 when normalization is disabled).
    ///
    /// # Panics
    /// Panics on a scorer built with
    /// [`SimilarityScorer::from_df_stats`]; use
    /// [`SimilarityScorer::pair_norm_bins`] with resolved bin counts.
    pub fn pair_norm(&self, u: EntityId, v: EntityId) -> f64 {
        let left = self.left.expect("norm-by-id needs history sets");
        let right = self.right.expect("norm-by-id needs history sets");
        if self.cfg.use_normalization {
            left.length_norm(u, self.cfg.b) * right.length_norm(v, self.cfg.b)
        } else {
            1.0
        }
    }

    /// [`SimilarityScorer::pair_norm`] from explicit history sizes (the
    /// entity-id-free form): pass each endpoint's `|H_u|`, with 0 for a
    /// missing history — exactly what the id lookup would resolve.
    pub fn pair_norm_bins(&self, left_bins: usize, right_bins: usize) -> f64 {
        if self.cfg.use_normalization {
            self.left_df.length_norm_for(left_bins, self.cfg.b)
                * self.right_df.length_norm_for(right_bins, self.cfg.b)
        } else {
            1.0
        }
    }

    /// The *unnormalized* contribution of one temporal window to a
    /// pair's score: mutually-nearest (or all-pairs) proximity·idf
    /// awards plus mutually-furthest alibi penalties. `(cu, nu)` and
    /// `(cv, nv)` are the window's runs in each history
    /// ([`EntityView::window_run`]); the contribution is 0 when either
    /// is empty, i.e. when the window is not common to both.
    ///
    /// This is the incremental-maintenance primitive: a streamed score
    /// is a per-window contribution cache, and an update to window `w`
    /// of either history only requires recomputing this term — the full
    /// score is the contribution sum over common windows divided by
    /// [`SimilarityScorer::pair_norm`], exactly as
    /// [`SimilarityScorer::score_histories`] computes it. It reads both
    /// runs' geometry on the fly — one geometry-memo borrow for the
    /// window — and a selected pair's idf when the kernel asks for it.
    pub fn window_contribution(
        &self,
        w: WindowIdx,
        (cu, nu): Run<'_>,
        (cv, nv): Run<'_>,
        stats: &mut LinkageStats,
    ) -> f64 {
        if cu.is_empty() || cv.is_empty() {
            return 0.0;
        }
        WINDOW_GEOMETRY.with(|geometry| {
            let [gu, gv] = &mut *geometry.borrow_mut();
            with_geometry_memo(|memo| {
                for (cells, g) in [(cu, &mut *gu), (cv, &mut *gv)] {
                    g.clear();
                    g.extend(cells.iter().map(|&c| memo.of(c)));
                }
            });
            let pair_idf = |e: usize, i: usize| {
                if self.cfg.use_idf {
                    self.idf[0].idf(w, cu[e]).min(self.idf[1].idf(w, cv[i]))
                } else {
                    1.0
                }
            };
            let records = (nu.iter().sum(), nv.iter().sum());
            self.kernel((cu, gu), (cv, gv), records, pair_idf, stats)
        })
    }

    /// Appends window `w`'s run of one history to `into`, resolved for
    /// [`SimilarityScorer::resolved_contribution`], and returns where it
    /// sits. `side` is 0 for a left-dataset history, 1 for a right one.
    /// A resolved run holds for as long as the scorer's df statistics
    /// and the history's run do, so a caller may reuse it for every
    /// partner of the history within one scoring pass.
    pub fn resolve_run(
        &self,
        side: usize,
        w: WindowIdx,
        (cells, counts): Run<'_>,
        into: &mut ResolvedRuns,
    ) -> RunSpan {
        let start = into.cells.len() as u32;
        into.cells.extend_from_slice(cells);
        with_geometry_memo(|memo| into.geometry.extend(cells.iter().map(|&c| memo.of(c))));
        if self.cfg.use_idf {
            into.idf
                .extend(cells.iter().map(|&c| self.idf[side].idf(w, c)));
        } else {
            into.idf.resize(into.cells.len(), 1.0);
        }
        RunSpan {
            start,
            len: cells.len() as u32,
            records: counts.iter().sum(),
        }
    }

    /// [`SimilarityScorer::window_contribution`] over the two sides'
    /// resolved runs ([`SimilarityScorer::resolve_run`]): the same
    /// contribution bits and work counters as for the runs they were
    /// resolved from.
    pub fn resolved_contribution(
        &self,
        u: ResolvedRun<'_>,
        v: ResolvedRun<'_>,
        stats: &mut LinkageStats,
    ) -> f64 {
        let pair_idf = |e: usize, i: usize| u.idf[e].min(v.idf[i]);
        let records = (u.records, v.records);
        self.kernel(
            (u.cells, u.geometry),
            (v.cells, v.geometry),
            records,
            pair_idf,
            stats,
        )
    }

    /// The window kernel, over each side's cells with their geometry and
    /// record total; `pair_idf(e, i)` is the idf term of the bin pair
    /// `(e, i)`.
    ///
    /// Pairs the window's bins and sums the selected pairs'
    /// contributions — `N` (or all pairs) in selection order, then the
    /// mutually-furthest alibi pass (Alg. 1), which adds only negative
    /// deltas and skips pairs already selected by `N` to avoid double
    /// counting. The alibi pass reads only the prefix of `N'` farther
    /// apart than the runaway distance: a pair within it has
    /// `prox >= 0` (the correctly rounded `d / r` is at most 1 when
    /// `d <= r`) and `idf >= 0` (`df <= |U|`), so its delta is never
    /// negative, it is no alibi, and the full pass would not have added
    /// it either.
    fn kernel(
        &self,
        bu: Bins<'_>,
        bv: Bins<'_>,
        (ru, rv): (u32, u32),
        pair_idf: impl Fn(usize, usize) -> f64,
        stats: &mut LinkageStats,
    ) -> f64 {
        if bu.0.is_empty() || bv.0.is_empty() {
            return 0.0;
        }
        stats.bin_pair_comparisons += (bu.0.len() * bv.0.len()) as u64;
        stats.record_pair_comparisons += ru as u64 * rv as u64;
        let selection = match self.cfg.pairing {
            PairingMode::MutuallyNearest if self.cfg.use_mfn => {
                Selection::NearestAndFurthest(self.runaway_m)
            }
            PairingMode::MutuallyNearest => Selection::Nearest,
            PairingMode::AllPairs => Selection::All,
        };
        with_window_pairs(bu, bv, selection, |pairs, alibis| {
            let mut total = 0.0;
            for p in pairs {
                total += self.contribution(p, &pair_idf, stats);
            }
            for p in alibis {
                if pairs
                    .iter()
                    .any(|q| q.e_idx == p.e_idx && q.i_idx == p.i_idx)
                {
                    continue;
                }
                let delta = self.contribution(p, &pair_idf, stats);
                if delta < 0.0 {
                    total += delta;
                }
            }
            total
        })
    }

    /// One bin pair's weighted proximity contribution (unnormalized).
    fn contribution(
        &self,
        p: &BinPair,
        pair_idf: &impl Fn(usize, usize) -> f64,
        stats: &mut LinkageStats,
    ) -> f64 {
        if is_alibi(p.dist_m, self.runaway_m) {
            stats.alibi_pairs += 1;
        }
        let prox = proximity_of_distance(p.dist_m, self.runaway_m);
        let idf = pair_idf(p.e_idx, p.i_idx);
        // The cut alibi pass relies on it.
        debug_assert!(idf >= 0.0, "negative idf {idf}");
        prox * idf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::HistoryArena;
    use crate::dataset::LocationDataset;
    use crate::history::record_cells;
    use crate::record::{Record, Timestamp};
    use crate::window::WindowScheme;
    use geocell::LatLng;

    const LEVEL: u8 = 12;
    const DOMAIN: u32 = 32;

    fn rec(e: u64, t: i64, lat: f64, lng: f64) -> Record {
        Record::new(EntityId(e), LatLng::from_degrees(lat, lng), Timestamp(t))
    }

    fn sets(left: Vec<Record>, right: Vec<Record>) -> (HistorySet<'static>, HistorySet<'static>) {
        let scheme = WindowScheme::new(Timestamp(0), 900);
        let l = HistorySet::build(&LocationDataset::from_records(left), scheme, LEVEL, DOMAIN);
        let r = HistorySet::build(&LocationDataset::from_records(right), scheme, LEVEL, DOMAIN);
        (l, r)
    }

    fn cfg() -> SlimConfig {
        SlimConfig::default()
    }

    /// The arena the streaming engine would hold for `records`: each
    /// record's cells appended to its entity in arrival order, in the
    /// window the batch build clamps it to.
    fn arena_of(records: &[Record]) -> HistoryArena {
        let scheme = WindowScheme::new(Timestamp(0), 900);
        let mut arena = HistoryArena::new();
        for r in records {
            let w = scheme.window_of(r.time).min(DOMAIN - 1);
            arena.append(r.entity, w, &record_cells(r, LEVEL), &mut Vec::new());
        }
        arena
    }

    /// The windows both views hold, found by per-window lookup rather
    /// than by the merge walk.
    fn shared_windows(u: &EntityView<'_>, v: &EntityView<'_>) -> Vec<WindowIdx> {
        u.windows()
            .filter(|&w| !v.window_run(w).0.is_empty())
            .collect()
    }

    /// Background entities in remote, mutually distant cells. Without
    /// them, `|U| = df` for every bin and the idf term (Eq. 3) zeroes all
    /// contributions — correct behaviour, but it would make single-pair
    /// tests vacuous.
    fn fillers(base_id: u64) -> Vec<Record> {
        (0..4)
            .flat_map(|k| {
                let lat = -40.0 + 3.0 * k as f64;
                vec![
                    rec(base_id + k, 0, lat, 150.0),
                    rec(base_id + k, 5000, lat, 150.2),
                ]
            })
            .collect()
    }

    #[test]
    fn identical_traces_score_positive() {
        let mut trace = vec![
            rec(1, 0, 37.0, -122.0),
            rec(1, 1000, 37.1, -122.1),
            rec(1, 2000, 37.2, -122.2),
        ];
        let mut other: Vec<Record> = trace
            .iter()
            .map(|r| Record::new(EntityId(2), r.location, r.time))
            .collect();
        trace.extend(fillers(500));
        other.extend(fillers(600));
        let (l, r) = sets(trace, other);
        let c = cfg();
        let scorer = SimilarityScorer::new(&c, &l, &r);
        let mut stats = LinkageStats::default();
        let s = scorer.score(EntityId(1), EntityId(2), &mut stats).unwrap();
        assert!(s > 0.0, "score {s}");
        assert_eq!(stats.scored_entity_pairs, 1);
        assert_eq!(stats.alibi_pairs, 0);
        assert!(stats.record_pair_comparisons >= 3);
    }

    #[test]
    fn disjoint_windows_score_zero() {
        // Activity in different windows: temporal asynchrony must NOT be
        // penalized (desired property 2) — the score is exactly 0.
        let left = vec![rec(1, 0, 37.0, -122.0)];
        let right = vec![rec(2, 10_000, 10.0, 10.0)];
        let (l, r) = sets(left, right);
        let c = cfg();
        let scorer = SimilarityScorer::new(&c, &l, &r);
        let mut stats = LinkageStats::default();
        let s = scorer.score(EntityId(1), EntityId(2), &mut stats).unwrap();
        assert_eq!(s, 0.0);
        assert_eq!(stats.bin_pair_comparisons, 0);
    }

    #[test]
    fn alibi_pairs_score_negative() {
        // Same window, ~400 km apart with a 30 km runaway: strong alibi.
        let mut left = vec![rec(1, 0, 37.0, -122.0)];
        let mut right = vec![rec(2, 10, 37.0, -117.0)];
        left.extend(fillers(500));
        right.extend(fillers(600));
        let (l, r) = sets(left, right);
        let c = cfg();
        let scorer = SimilarityScorer::new(&c, &l, &r);
        let mut stats = LinkageStats::default();
        let s = scorer.score(EntityId(1), EntityId(2), &mut stats).unwrap();
        assert!(s < 0.0, "score {s}");
        assert!(stats.alibi_pairs >= 1);
    }

    #[test]
    fn mfn_pass_catches_hidden_alibi() {
        // Paper's example: v has a close bin AND a far (alibi) bin in the
        // same window. With MFN the score must drop.
        let base = LatLng::from_degrees(37.0, -122.0);
        let near = base.offset(2_000.0, 1.0);
        let far = base.offset(120_000.0, 2.0);
        let mut left = vec![rec(1, 0, base.lat_deg(), base.lng_deg())];
        let mut right = vec![
            rec(2, 10, near.lat_deg(), near.lng_deg()),
            rec(2, 20, far.lat_deg(), far.lng_deg()),
        ];
        left.extend(fillers(500));
        right.extend(fillers(600));
        let (l, r) = sets(left.clone(), right.clone());

        let mut with_mfn = cfg();
        with_mfn.use_mfn = true;
        let mut without_mfn = cfg();
        without_mfn.use_mfn = false;

        let mut stats = LinkageStats::default();
        let s_with = SimilarityScorer::new(&with_mfn, &l, &r)
            .score(EntityId(1), EntityId(2), &mut stats)
            .unwrap();
        let s_without = SimilarityScorer::new(&without_mfn, &l, &r)
            .score(EntityId(1), EntityId(2), &mut stats)
            .unwrap();
        assert!(
            s_with < s_without,
            "MFN must lower the score: {s_with} vs {s_without}"
        );
    }

    #[test]
    fn idf_awards_rare_bins() {
        // Entity pair matching in a crowded bin scores lower than a pair
        // matching in a unique bin.
        // Both scenarios have 21 left entities; in the crowded one the
        // probe's bin is shared by all, in the unique one by nobody else.
        let crowded: Vec<Record> = (0..20)
            .map(|e| rec(e, 0, 37.0, -122.0))
            .chain([rec(100, 0, 37.0, -122.0)])
            .collect();
        let unique: Vec<Record> = (1..=20)
            .map(|e| rec(e, 0, -40.0 + e as f64, 150.0))
            .chain([rec(100, 0, 10.0, 10.0)])
            .collect();

        // Crowded scenario.
        let (l1, r1) = sets(
            crowded,
            vec![rec(200, 0, 37.0, -122.0), rec(201, 0, -10.0, 30.0)],
        );
        // Unique scenario (same structure, probe bin unshared).
        let (l2, r2) = sets(
            unique,
            vec![rec(200, 0, 10.0, 10.0), rec(201, 0, -10.0, 30.0)],
        );
        let c = cfg();
        let mut stats = LinkageStats::default();
        let s_crowded = SimilarityScorer::new(&c, &l1, &r1)
            .score(EntityId(100), EntityId(200), &mut stats)
            .unwrap();
        let s_unique = SimilarityScorer::new(&c, &l2, &r2)
            .score(EntityId(100), EntityId(200), &mut stats)
            .unwrap();
        assert!(
            s_unique > s_crowded,
            "unique bin {s_unique} must beat crowded bin {s_crowded}"
        );
    }

    #[test]
    fn normalization_penalizes_long_histories() {
        // Two candidate left entities match the right entity equally well
        // in one window, but one has a much longer history. With
        // normalization on, the long history scores lower.
        let mut records = vec![rec(1, 0, 37.0, -122.0), rec(2, 0, 37.0, -122.0)];
        for k in 0..20 {
            records.push(rec(2, 900 * (k + 2), 36.0 + k as f64 * 0.01, -121.0));
        }
        records.extend(fillers(500));
        let mut right = vec![rec(9, 0, 37.0, -122.0)];
        right.extend(fillers(600));
        let (l, r) = sets(records, right);
        let c = cfg();
        let scorer = SimilarityScorer::new(&c, &l, &r);
        let mut stats = LinkageStats::default();
        let s_short = scorer.score(EntityId(1), EntityId(9), &mut stats).unwrap();
        let s_long = scorer.score(EntityId(2), EntityId(9), &mut stats).unwrap();
        assert!(
            s_short > s_long,
            "short history {s_short} must beat long {s_long}"
        );
    }

    #[test]
    fn all_pairs_mode_counts_every_combination() {
        let left = vec![rec(1, 0, 37.0, -122.0), rec(1, 10, 37.3, -122.3)];
        let right = vec![rec(2, 0, 37.0, -122.0), rec(2, 10, 37.6, -122.6)];
        let (l, r) = sets(left, right);
        let mut c = cfg();
        c.pairing = PairingMode::AllPairs;
        let scorer = SimilarityScorer::new(&c, &l, &r);
        let mut stats = LinkageStats::default();
        let _ = scorer.score(EntityId(1), EntityId(2), &mut stats).unwrap();
        assert_eq!(stats.bin_pair_comparisons, 4);
    }

    #[test]
    fn missing_entity_returns_none() {
        let (l, r) = sets(vec![rec(1, 0, 37.0, -122.0)], vec![rec(2, 0, 37.0, -122.0)]);
        let c = cfg();
        let scorer = SimilarityScorer::new(&c, &l, &r);
        let mut stats = LinkageStats::default();
        assert!(scorer
            .score(EntityId(99), EntityId(2), &mut stats)
            .is_none());
    }

    /// The incremental primitive must reassemble the full score exactly:
    /// Σ window_contribution / pair_norm == score_histories.
    #[test]
    fn window_contributions_reassemble_score() {
        let mut left = vec![
            rec(1, 0, 37.0, -122.0),
            rec(1, 1000, 37.1, -122.1),
            rec(1, 2000, 37.2, -122.2),
            rec(1, 2100, 40.0, -100.0), // alibi material
        ];
        let mut right = vec![
            rec(2, 10, 37.0, -122.0),
            rec(2, 1100, 37.1, -122.1),
            rec(2, 2050, 37.2, -122.2),
        ];
        left.extend(fillers(500));
        right.extend(fillers(600));
        let (l, r) = sets(left, right);
        let c = cfg();
        let scorer = SimilarityScorer::new(&c, &l, &r);
        let (hu, hv) = (
            l.history(EntityId(1)).unwrap(),
            r.history(EntityId(2)).unwrap(),
        );
        let mut stats = LinkageStats::default();
        let full = scorer.score_histories(&hu, &hv, &mut stats);
        let contribution = |w, stats: &mut _| {
            scorer.window_contribution(w, hu.window_run(w), hv.window_run(w), stats)
        };
        let sum: f64 = shared_windows(&hu, &hv)
            .into_iter()
            .map(|w| contribution(w, &mut stats))
            .sum();
        let reassembled = sum / scorer.pair_norm(EntityId(1), EntityId(2));
        assert_eq!(full, reassembled, "must be the identical arithmetic");
        // Windows of one side only, or of neither, contribute exactly zero.
        for w in hu.windows().chain(hv.windows()).chain([9999]) {
            if !shared_windows(&hu, &hv).contains(&w) {
                assert_eq!(contribution(w, &mut stats), 0.0, "window {w}");
            }
        }
    }

    /// The merge walk must be the per-window definition exactly: the
    /// contributions of the common windows folded in ascending order,
    /// divided by the pair norm — same bits, same stats bumps — on
    /// histories whose windows overlap, interleave, touch one side only,
    /// or miss each other entirely. The arena the streaming engine
    /// appends the same records into scores through the same walk to
    /// the same bits.
    #[test]
    fn merge_walk_equals_the_per_window_sum() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(25);
        let (mut common, mut disjoint, mut one_sided) = (0, 0, 0);
        for case in 0..16 {
            // Left activity in windows [0, 24), right in [shift, shift + 24):
            // from the same band to past the left's end (and clamped into
            // the last window of the domain).
            let shift = rng.random_range(0i64..40);
            let mut side = |base: u64, first: i64| {
                let mut records = Vec::new();
                for e in 0..5 {
                    for _ in 0..rng.random_range(1..30) {
                        let t = rng.random_range(first * 900..(first + 24) * 900);
                        let (dlat, dlng) = (rng.random_range(0.0..0.4), rng.random_range(0.0..0.4));
                        records.push(rec(base + e, t, 37.0 + dlat, -122.0 - dlng));
                    }
                }
                records
            };
            let (left, right) = (side(0, 0), side(100, shift));
            let arenas = [arena_of(&left), arena_of(&right)];
            let (l, r) = sets(left, right);
            for (pairing, use_mfn) in [
                (PairingMode::MutuallyNearest, true),
                (PairingMode::AllPairs, false),
            ] {
                let c = SlimConfig {
                    pairing,
                    use_mfn,
                    ..cfg()
                };
                let scorer = SimilarityScorer::new(&c, &l, &r);
                for u in l.entities_sorted() {
                    for v in r.entities_sorted() {
                        let (hu, hv) = (l.history(u).unwrap(), r.history(v).unwrap());
                        let mut walked = LinkageStats::default();
                        let score = scorer.score_histories(&hu, &hv, &mut walked);
                        let mut defined = LinkageStats {
                            scored_entity_pairs: 1,
                            ..LinkageStats::default()
                        };
                        let shared = shared_windows(&hu, &hv);
                        let sum = shared.iter().fold(0.0, |total, &w| {
                            let (ru, rv) = (hu.window_run(w), hv.window_run(w));
                            total + scorer.window_contribution(w, ru, rv, &mut defined)
                        });
                        let want = sum / scorer.pair_norm(u, v);
                        assert_eq!(score.to_bits(), want.to_bits(), "case {case}, {u}-{v}");
                        assert_eq!(walked, defined, "case {case}, {u}-{v}");

                        let (au, av) = (arenas[0].view(u).unwrap(), arenas[1].view(v).unwrap());
                        let mut streamed = LinkageStats::default();
                        let arena_score = scorer.score_histories(&au, &av, &mut streamed);
                        assert_eq!(
                            arena_score.to_bits(),
                            want.to_bits(),
                            "arena, case {case}, {u}-{v}"
                        );
                        assert_eq!(streamed, defined, "arena, case {case}, {u}-{v}");
                        let mut walked_windows = Vec::new();
                        common_runs(&au, &av, |w, ru, rv| {
                            assert_eq!(
                                (ru, rv),
                                (hu.window_run(w), hv.window_run(w)),
                                "window {w}"
                            );
                            walked_windows.push(w);
                        });
                        assert_eq!(walked_windows, shared, "case {case}, {u}-{v}");

                        common += usize::from(!shared.is_empty());
                        disjoint += usize::from(shared.is_empty());
                        one_sided +=
                            usize::from(!shared.is_empty() && shared.len() < hu.windows().count());
                    }
                }
            }
        }
        assert!(
            common > 0 && disjoint > 0 && one_sided > 0,
            "{common} / {disjoint} / {one_sided}"
        );
    }

    /// The kernel reads the streaming arena's column runs and the batch
    /// history's to bit-identical contributions and stats bumps, in
    /// every pairing/ablation mode, and not vacuously.
    #[test]
    fn cells_kernel_matches_window_contribution() {
        let mut left = vec![
            rec(1, 0, 37.0, -122.0),
            rec(1, 100, 37.01, -122.01),
            rec(1, 1000, 37.1, -122.1),
            rec(1, 2100, 40.0, -100.0), // alibi material
        ];
        let mut right = vec![
            rec(2, 10, 37.0, -122.0),
            rec(2, 20, 37.02, -122.0),
            rec(2, 1100, 37.1, -122.1),
            rec(2, 2050, 37.2, -122.2),
        ];
        left.extend(fillers(500));
        right.extend(fillers(600));
        let (al, ar) = (arena_of(&left), arena_of(&right));
        let (l, r) = sets(left, right);
        let (hu, hv) = (
            l.history(EntityId(1)).unwrap(),
            r.history(EntityId(2)).unwrap(),
        );
        let (au, av) = (al.view(EntityId(1)).unwrap(), ar.view(EntityId(2)).unwrap());
        for (pairing, use_mfn) in [
            (PairingMode::MutuallyNearest, true),
            (PairingMode::MutuallyNearest, false),
            (PairingMode::AllPairs, false),
        ] {
            let mut c = cfg();
            c.pairing = pairing;
            c.use_mfn = use_mfn;
            let scorer = SimilarityScorer::new(&c, &l, &r);
            let mut bumped = LinkageStats::default();
            for w in shared_windows(&hu, &hv).into_iter().chain([9999]) {
                let mut s1 = LinkageStats::default();
                let mut s2 = LinkageStats::default();
                let batch =
                    scorer.window_contribution(w, hu.window_run(w), hv.window_run(w), &mut s1);
                let arena =
                    scorer.window_contribution(w, au.window_run(w), av.window_run(w), &mut s2);
                assert_eq!(batch.to_bits(), arena.to_bits(), "window {w}");
                assert_eq!(s1, s2, "stats must bump identically, window {w}");
                bumped.merge(&s1);
            }
            // ... and not vacuously: the windows above exercise every
            // counter the kernel touches, in every mode.
            assert!(
                bumped.bin_pair_comparisons > 0
                    && bumped.record_pair_comparisons > bumped.bin_pair_comparisons
                    && bumped.alibi_pairs > 0,
                "{pairing:?}: {bumped:?}"
            );
        }
    }

    /// The window kernel as it was before runs were resolved: full
    /// greedy `N'` from the pairing oracle, idf read per pair.
    fn oracle_contribution(
        scorer: &SimilarityScorer<'_>,
        w: WindowIdx,
        (cu, nu): Run<'_>,
        (cv, nv): Run<'_>,
        stats: &mut LinkageStats,
    ) -> f64 {
        use crate::pairing::tests::extremal_pairs_oracle;
        if cu.is_empty() || cv.is_empty() {
            return 0.0;
        }
        stats.bin_pair_comparisons += (cu.len() * cv.len()) as u64;
        let (ru, rv): (u32, u32) = (nu.iter().sum(), nv.iter().sum());
        stats.record_pair_comparisons += ru as u64 * rv as u64;
        let cfg = scorer.cfg;
        let (pairs, furthest) = match cfg.pairing {
            PairingMode::MutuallyNearest if cfg.use_mfn => (
                extremal_pairs_oracle(cu, cv, true),
                extremal_pairs_oracle(cu, cv, false),
            ),
            PairingMode::MutuallyNearest => (extremal_pairs_oracle(cu, cv, true), vec![]),
            PairingMode::AllPairs => {
                let all = (0..cu.len() * cv.len()).map(|k| {
                    let (e_idx, i_idx) = (k / cv.len(), k % cv.len());
                    let d = extremal_pairs_oracle(&cu[e_idx..=e_idx], &cv[i_idx..=i_idx], true);
                    BinPair {
                        e_idx,
                        i_idx,
                        ..d[0]
                    }
                });
                (all.collect(), vec![])
            }
        };
        let mut contribution = |p: &BinPair| {
            if is_alibi(p.dist_m, scorer.runaway_m) {
                stats.alibi_pairs += 1;
            }
            let prox = proximity_of_distance(p.dist_m, scorer.runaway_m);
            let idf = if cfg.use_idf {
                let idf_e = scorer.left_df.idf(w, cu[p.e_idx]);
                idf_e.min(scorer.right_df.idf(w, cv[p.i_idx]))
            } else {
                1.0
            };
            prox * idf
        };
        let mut total = 0.0;
        for p in &pairs {
            total += contribution(p);
        }
        for p in &furthest {
            if pairs
                .iter()
                .any(|q| (q.e_idx, q.i_idx) == (p.e_idx, p.i_idx))
            {
                continue;
            }
            let delta = contribution(p);
            if delta < 0.0 {
                total += delta;
            }
        }
        total
    }

    /// The resolved-run kernel — cut alibi pass, one-scan shapes, idf
    /// resolved per bin — returns the oracle's contribution bits and
    /// counters on random windows from 1×1 to 6×6 with repeated cells
    /// (ties and same-cell pairs) and distances on both sides of the
    /// runaway, for every pairing mode × `use_mfn` × `use_idf`; through
    /// `window_contribution` and through runs resolved ahead into one
    /// shared column set. Not vacuously: alibis are counted, and `N'`
    /// picks within the runaway are cut.
    #[test]
    fn resolved_kernel_matches_the_full_pass_oracle() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(36);
        let grid: Vec<CellId> = (0..16)
            .map(|k| {
                let far = if k == 15 { 0.5 } else { 0.0 };
                let at = (
                    37.0 + 0.08 * (k / 4) as f64 + far,
                    -122.0 + 0.08 * (k % 4) as f64,
                );
                CellId::from_latlng(LatLng::from_degrees(at.0, at.1), LEVEL)
            })
            .collect();
        // df from 1 to |U| = 12 per (window, cell) and side; a cell left
        // out reads df 1.
        let df = |rng: &mut StdRng| {
            let mut df = DfStats::new();
            for _ in 0..12 {
                df.add_entity();
            }
            for w in 0..4 {
                for &c in &grid[..14] {
                    for _ in 0..rng.random_range(1..=12) {
                        df.add_bin(w, c);
                    }
                }
            }
            df
        };
        let (left_df, right_df) = (df(&mut rng), df(&mut rng));
        let column = |rng: &mut StdRng, len: usize| -> (Vec<CellId>, Vec<u32>) {
            let mut cells: Vec<CellId> = (0..len)
                .map(|_| grid[rng.random_range(0..16usize)])
                .collect();
            cells.sort_unstable();
            let counts = cells.iter().map(|_| rng.random_range(1..4)).collect();
            (cells, counts)
        };
        let mut sums = LinkageStats::default();
        let mut cut = 0;
        for case in 0..300 {
            let (n, m) = (rng.random_range(1..=6), rng.random_range(1..=6));
            let ((cu, nu), (cv, nv)) = (column(&mut rng, n), column(&mut rng, m));
            let w = rng.random_range(0..4);
            let full = crate::pairing::mutually_furthest(&cu, &cv);
            cut += full
                .iter()
                .filter(|p| p.dist_m <= cfg().runaway_m())
                .count();
            for pairing in [PairingMode::MutuallyNearest, PairingMode::AllPairs] {
                for (use_mfn, use_idf) in
                    [(true, true), (true, false), (false, true), (false, false)]
                {
                    let c = SlimConfig {
                        pairing,
                        use_mfn,
                        use_idf,
                        ..cfg()
                    };
                    let scorer = SimilarityScorer::from_df_stats(&c, &left_df, &right_df);
                    let ctx =
                        format!("case {case}, {n}×{m}, {pairing:?}, mfn {use_mfn}, idf {use_idf}");
                    let mut want_stats = LinkageStats::default();
                    let want =
                        oracle_contribution(&scorer, w, (&cu, &nu), (&cv, &nv), &mut want_stats);
                    let mut stats = LinkageStats::default();
                    let got = scorer.window_contribution(w, (&cu, &nu), (&cv, &nv), &mut stats);
                    assert_eq!(got.to_bits(), want.to_bits(), "{ctx}");
                    assert_eq!(stats, want_stats, "{ctx}");
                    // Resolved ahead, behind another run in the columns.
                    let mut runs = ResolvedRuns::default();
                    let other = scorer.resolve_run(0, w, (&grid[..3], &[1, 1, 1]), &mut runs);
                    let (su, sv) = (
                        scorer.resolve_run(0, w, (&cu, &nu), &mut runs),
                        scorer.resolve_run(1, w, (&cv, &nv), &mut runs),
                    );
                    assert_eq!(runs.get(other).cells, &grid[..3]);
                    let mut ahead = LinkageStats::default();
                    let got = scorer.resolved_contribution(runs.get(su), runs.get(sv), &mut ahead);
                    assert_eq!(got.to_bits(), want.to_bits(), "ahead, {ctx}");
                    assert_eq!(ahead, want_stats, "ahead, {ctx}");
                    sums.merge(&stats);
                }
            }
        }
        assert!(sums.alibi_pairs > 0 && cut > 0, "{sums:?}, {cut} cut");
    }

    #[test]
    fn score_is_symmetric_for_mirrored_inputs() {
        let trace_a = vec![rec(1, 0, 37.0, -122.0), rec(1, 1000, 37.2, -122.2)];
        let trace_b = vec![rec(2, 0, 37.05, -122.05), rec(2, 1000, 37.25, -122.25)];
        let (l, r) = sets(trace_a.clone(), trace_b.clone());
        let (l2, r2) = sets(trace_b, trace_a);
        let c = cfg();
        let mut stats = LinkageStats::default();
        let s1 = SimilarityScorer::new(&c, &l, &r)
            .score(EntityId(1), EntityId(2), &mut stats)
            .unwrap();
        let s2 = SimilarityScorer::new(&c, &l2, &r2)
            .score(EntityId(2), EntityId(1), &mut stats)
            .unwrap();
        assert!((s1 - s2).abs() < 1e-9, "{s1} vs {s2}");
    }
}
