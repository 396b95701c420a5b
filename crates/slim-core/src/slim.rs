//! The SLIM linkage pipeline (paper Alg. 1 + §3.2).
//!
//! ```text
//! datasets → mobility histories → (optional candidate filter)
//!          → pairwise similarity → bipartite matching
//!          → GMM stop threshold → links
//! ```
//!
//! The candidate filter is injected as a plain list of entity pairs so
//! the LSH crate (and any other blocking scheme) can plug in without a
//! dependency cycle; `None` means brute-force all pairs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::config::MatchingMethod;
use crate::config::SlimConfig;
use crate::dataset::LocationDataset;
use crate::history::HistorySet;
use crate::matching::{exact_max_matching, greedy_max_matching, Edge};
use crate::record::{EntityId, Timestamp};
use crate::similarity::SimilarityScorer;
use crate::stats::LinkageStats;
use crate::threshold::{select_threshold, StopThreshold};
use crate::window::WindowScheme;

/// Everything a linkage run produces.
#[derive(Debug, Clone)]
pub struct LinkageOutput {
    /// Final links: matched edges at or above the stop threshold.
    pub links: Vec<Edge>,
    /// The full matching before thresholding (paper: "full matching").
    pub matching: Vec<Edge>,
    /// Number of positive-score edges in the bipartite graph.
    pub num_edges: usize,
    /// The selected stop threshold, if one was identifiable.
    pub threshold: Option<StopThreshold>,
    /// Work counters.
    pub stats: LinkageStats,
    /// Wall time of scoring + matching + thresholding.
    pub elapsed: Duration,
}

/// Histories and configuration prepared for (possibly repeated) linkage,
/// over history sets that may borrow their bins for `'a`.
pub struct PreparedLinkage<'a> {
    cfg: SlimConfig,
    left: HistorySet<'a>,
    right: HistorySet<'a>,
}

/// The SLIM algorithm, parameterized by a [`SlimConfig`].
#[derive(Debug, Clone)]
pub struct Slim {
    cfg: SlimConfig,
}

impl Slim {
    /// Creates the pipeline after validating the configuration.
    pub fn new(cfg: SlimConfig) -> Result<Self, String> {
        cfg.validate()?;
        Ok(Self { cfg })
    }

    /// The active configuration.
    pub fn config(&self) -> &SlimConfig {
        &self.cfg
    }

    /// Builds mobility histories for both datasets over a shared window
    /// scheme, the two sides concurrently. Entities with too few records
    /// are dropped here (paper §5.1): they get no history, and the scheme
    /// starts at the earliest record of the entities that stay.
    pub fn prepare(
        &self,
        left: &LocationDataset,
        right: &LocationDataset,
    ) -> PreparedLinkage<'static> {
        let (left_kept, left_span) = kept_entities(left, self.cfg.min_records);
        let (right_kept, right_span) = kept_entities(right, self.cfg.min_records);
        let (lo, hi) = match (left_span, right_span) {
            (Some((l0, l1)), Some((r0, r1))) => (l0.min(r0), l1.max(r1)),
            (Some(s), None) | (None, Some(s)) => s,
            (None, None) => (Timestamp(0), Timestamp(0)),
        };
        let scheme = WindowScheme::new(lo, self.cfg.window_width_secs);
        let domain = scheme.num_windows(hi);
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let build = |dataset: &LocationDataset, kept: &[EntityId]| {
            let level = self.cfg.spatial_level;
            HistorySet::build_with_threads(dataset, kept, scheme, level, domain, threads)
        };
        let (left_hs, right_hs) = std::thread::scope(|s| {
            let right_side = s.spawn(|| build(right, &right_kept));
            let left_hs = build(left, &left_kept);
            let right_hs = right_side.join().expect("history building does not panic");
            (left_hs, right_hs)
        });
        PreparedLinkage {
            cfg: self.cfg,
            left: left_hs,
            right: right_hs,
        }
    }

    /// End-to-end linkage with brute-force candidate generation.
    pub fn link(&self, left: &LocationDataset, right: &LocationDataset) -> LinkageOutput {
        self.prepare(left, right).link()
    }

    /// End-to-end linkage over an explicit candidate pair list (e.g. the
    /// output of the LSH filter).
    pub fn link_with_candidates(
        &self,
        left: &LocationDataset,
        right: &LocationDataset,
        candidates: &[(EntityId, EntityId)],
    ) -> LinkageOutput {
        self.prepare(left, right).link_with_candidates(candidates)
    }
}

/// The entities of `dataset` holding more than `min_records` records,
/// sorted, and the time span of their records — what
/// [`LocationDataset::filter_min_records`] then
/// [`LocationDataset::time_span`] would leave, without copying a record.
fn kept_entities(
    dataset: &LocationDataset,
    min_records: usize,
) -> (Vec<EntityId>, Option<(Timestamp, Timestamp)>) {
    let mut kept = dataset.entities_sorted();
    kept.retain(|&e| dataset.records_of(e).len() > min_records);
    // Each group is time-sorted, so its ends are its span.
    let span = kept
        .iter()
        .filter_map(|&e| {
            let records = dataset.records_of(e);
            Some((records.first()?.time, records.last()?.time))
        })
        .reduce(|(lo, hi), (first, last)| (lo.min(first), hi.max(last)));
    (kept, span)
}

impl<'a> PreparedLinkage<'a> {
    /// Wraps already-built history sets — the entry point for callers
    /// that maintain histories themselves (the `slim-stream` engine
    /// builds them incrementally and runs this exact batch pipeline over
    /// them at finalization, its arenas lent for `'a`). Validates the
    /// configuration and that the two sets are comparable.
    pub fn from_history_sets(
        cfg: SlimConfig,
        left: HistorySet<'a>,
        right: HistorySet<'a>,
    ) -> Result<Self, String> {
        cfg.validate()?;
        if left.scheme() != right.scheme() {
            return Err("history sets must share a window scheme".into());
        }
        if left.spatial_level() != right.spatial_level() {
            return Err("history sets must share a spatial level".into());
        }
        Ok(Self { cfg, left, right })
    }

    /// The left (first dataset) history set.
    pub fn left(&self) -> &HistorySet<'a> {
        &self.left
    }

    /// The right (second dataset) history set.
    pub fn right(&self) -> &HistorySet<'a> {
        &self.right
    }

    /// All cross-dataset entity pairs (brute force).
    pub fn all_pairs(&self) -> Vec<(EntityId, EntityId)> {
        let ls = self.left.entities_sorted();
        let rs = self.right.entities_sorted();
        let mut out = Vec::with_capacity(ls.len() * rs.len());
        for &u in &ls {
            for &v in &rs {
                out.push((u, v));
            }
        }
        out
    }

    /// Brute-force linkage.
    pub fn link(&self) -> LinkageOutput {
        let pairs = self.all_pairs();
        self.link_with_candidates(&pairs)
    }

    /// Scores the given candidate pairs (in parallel), builds the
    /// bipartite graph, matches greedily, and applies the stop threshold.
    pub fn link_with_candidates(&self, candidates: &[(EntityId, EntityId)]) -> LinkageOutput {
        let start = Instant::now();
        let (edges, stats) = self.score_pairs(candidates);
        let matching = match self.cfg.matching_method {
            MatchingMethod::Greedy => greedy_max_matching(&edges),
            MatchingMethod::HungarianExact => exact_max_matching(&edges),
        };
        let weights: Vec<f64> = matching.iter().map(|e| e.weight).collect();
        let threshold = select_threshold(&weights, self.cfg.threshold_method);
        let links = match &threshold {
            Some(t) => matching
                .iter()
                .filter(|e| e.weight >= t.threshold)
                .copied()
                .collect(),
            None => matching.clone(),
        };
        LinkageOutput {
            links,
            num_edges: edges.len(),
            matching,
            threshold,
            stats,
            elapsed: start.elapsed(),
        }
    }

    /// Computes similarity scores for candidate pairs, keeping only
    /// positive-score edges (paper: "If the score is negative, no edges
    /// are added to the graph"). Work is shared by all available cores.
    pub fn score_pairs(&self, candidates: &[(EntityId, EntityId)]) -> (Vec<Edge>, LinkageStats) {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.score_pairs_with_threads(candidates, threads)
    }

    /// [`PreparedLinkage::score_pairs`] on `threads` threads, the caller
    /// one of them. A pair's cost varies by orders of magnitude (a true
    /// pair shares hundreds of windows, a false one few), so the threads
    /// claim small blocks of candidates until none are left instead of
    /// taking fixed shares. The result does not depend on `threads` or on
    /// which thread scored what: edges are sorted, stats are integer sums.
    pub(crate) fn score_pairs_with_threads(
        &self,
        candidates: &[(EntityId, EntityId)],
        threads: usize,
    ) -> (Vec<Edge>, LinkageStats) {
        const BLOCK: usize = 4;
        let scorer = SimilarityScorer::new(&self.cfg, &self.left, &self.right);
        // The next unclaimed candidate. `Relaxed`: it hands out indices
        // and publishes nothing; the candidates and histories are shared
        // read-only, and the scope's joins order the results.
        let claimed = AtomicUsize::new(0);
        let work = || {
            let mut local_stats = LinkageStats::default();
            let mut local_edges = Vec::new();
            loop {
                let start = claimed.fetch_add(BLOCK, Ordering::Relaxed);
                if start >= candidates.len() {
                    break;
                }
                for &(u, v) in &candidates[start..(start + BLOCK).min(candidates.len())] {
                    if let Some(score) = scorer.score(u, v, &mut local_stats) {
                        if score > 0.0 {
                            local_edges.push(Edge {
                                left: u,
                                right: v,
                                weight: score,
                            });
                        }
                    }
                }
            }
            (local_edges, local_stats)
        };
        let helpers = threads
            .min(candidates.len().div_ceil(BLOCK))
            .saturating_sub(1);
        let results: Vec<(Vec<Edge>, LinkageStats)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..helpers).map(|_| s.spawn(work)).collect();
            let mut results = vec![work()];
            results.extend(
                handles
                    .into_iter()
                    .map(|h| h.join().expect("scoring threads must not panic")),
            );
            results
        });

        let mut edges = Vec::new();
        let mut stats = LinkageStats::default();
        for (mut e, s) in results {
            edges.append(&mut e);
            stats.merge(&s);
        }
        // Deterministic order regardless of thread interleaving.
        edges.sort_by_key(|a| (a.left, a.right));
        (edges, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ThresholdMethod;
    use crate::record::{Record, Timestamp};
    use geocell::LatLng;

    /// Builds two views of `n` entities; entities 0..common exist in both
    /// (with jittered records), the rest are distinct.
    fn two_views(n: u64, common: u64) -> (LocationDataset, LocationDataset) {
        let mut left = Vec::new();
        let mut right = Vec::new();
        for e in 0..n {
            let anchor = LatLng::from_degrees(37.0 + 0.02 * e as f64, -122.0 - 0.015 * e as f64);
            for k in 0..30i64 {
                let pos = anchor.offset(300.0 * ((k % 4) as f64), k as f64);
                left.push(Record::new(EntityId(e), pos, Timestamp(k * 900 + 30)));
                if e < common {
                    // Same entity seen by the other service, asynchronously.
                    let pos2 = anchor.offset(300.0 * ((k % 4) as f64) + 40.0, k as f64 + 0.1);
                    right.push(Record::new(
                        EntityId(1000 + e),
                        pos2,
                        Timestamp(k * 900 + 400),
                    ));
                }
            }
            if e >= common {
                // Right-only entity in a different neighbourhood.
                let anchor2 =
                    LatLng::from_degrees(36.0 - 0.02 * e as f64, -121.0 + 0.01 * e as f64);
                for k in 0..30i64 {
                    let pos = anchor2.offset(250.0 * ((k % 3) as f64), k as f64 * 0.5);
                    right.push(Record::new(
                        EntityId(1000 + e),
                        pos,
                        Timestamp(k * 900 + 200),
                    ));
                }
            }
        }
        (
            LocationDataset::from_records(left),
            LocationDataset::from_records(right),
        )
    }

    #[test]
    fn links_common_entities() {
        let (l, r) = two_views(10, 6);
        let slim = Slim::new(SlimConfig::default()).unwrap();
        let out = slim.link(&l, &r);
        assert!(!out.links.is_empty());
        // Every surviving link must be a true pair (e ↔ 1000 + e).
        for link in &out.links {
            assert_eq!(link.right.0, 1000 + link.left.0, "false link {:?}", link);
        }
        assert!(crate::matching::is_valid_matching(&out.links));
        // The full matching must rank all six true pairs above any false
        // pair (the GMM threshold on such a tiny sample may prune
        // conservatively, which is why `links` is only checked for purity).
        let mut by_weight = out.matching.clone();
        by_weight.sort_by(|a, b| b.weight.partial_cmp(&a.weight).unwrap());
        for link in by_weight.iter().take(6) {
            assert_eq!(
                link.right.0,
                1000 + link.left.0,
                "true pairs must rank first"
            );
        }
    }

    #[test]
    fn threshold_prunes_matching() {
        let (l, r) = two_views(12, 6);
        let slim = Slim::new(SlimConfig::default()).unwrap();
        let out = slim.link(&l, &r);
        assert!(out.links.len() <= out.matching.len());
        if let Some(t) = &out.threshold {
            for link in &out.links {
                assert!(link.weight >= t.threshold);
            }
        }
    }

    #[test]
    fn candidate_filter_restricts_scoring() {
        let (l, r) = two_views(8, 8);
        let cfg = SlimConfig {
            threshold_method: ThresholdMethod::None,
            ..SlimConfig::default()
        };
        let slim = Slim::new(cfg).unwrap();
        let prepared = slim.prepare(&l, &r);
        let candidates: Vec<_> = (0..8u64)
            .map(|e| (EntityId(e), EntityId(1000 + e)))
            .collect();
        let out = prepared.link_with_candidates(&candidates);
        assert_eq!(out.stats.scored_entity_pairs, 8);
        assert_eq!(out.links.len(), 8);
    }

    #[test]
    fn no_threshold_method_keeps_matching() {
        let (l, r) = two_views(6, 3);
        let cfg = SlimConfig {
            threshold_method: ThresholdMethod::None,
            ..SlimConfig::default()
        };
        let out = Slim::new(cfg).unwrap().link(&l, &r);
        assert_eq!(out.links.len(), out.matching.len());
        assert!(out.threshold.is_none());
    }

    #[test]
    fn empty_datasets_produce_empty_output() {
        let empty = LocationDataset::from_records(Vec::new());
        let slim = Slim::new(SlimConfig::default()).unwrap();
        let out = slim.link(&empty, &empty);
        assert!(out.links.is_empty());
        assert_eq!(out.num_edges, 0);
    }

    #[test]
    fn min_records_filter_applies() {
        let (l, mut r_records) = {
            let (l, r) = two_views(4, 4);
            (l, r)
        };
        // Add a right entity with only 2 records: must be ignored.
        let sparse = vec![
            Record::new(
                EntityId(2000),
                LatLng::from_degrees(37.0, -122.0),
                Timestamp(0),
            ),
            Record::new(
                EntityId(2000),
                LatLng::from_degrees(37.0, -122.0),
                Timestamp(900),
            ),
        ];
        let mut recs: Vec<Record> = Vec::new();
        for e in r_records.entities_sorted() {
            recs.extend_from_slice(r_records.records_of(e));
        }
        recs.extend(sparse);
        r_records = LocationDataset::from_records(recs);
        let slim = Slim::new(SlimConfig::default()).unwrap();
        let prepared = slim.prepare(&l, &r_records);
        assert!(prepared.right().history(EntityId(2000)).is_none());
    }

    /// `Slim::prepare` as it was before it stopped copying datasets:
    /// clone, drop the sparse entities, span what is left, build each
    /// side on one thread.
    fn prepare_by_copy(
        cfg: &SlimConfig,
        left: &LocationDataset,
        right: &LocationDataset,
    ) -> (HistorySet<'static>, HistorySet<'static>) {
        let (mut left, mut right) = (left.clone(), right.clone());
        left.filter_min_records(cfg.min_records);
        right.filter_min_records(cfg.min_records);
        let (lo, hi) = match (left.time_span(), right.time_span()) {
            (Some((l0, l1)), Some((r0, r1))) => (l0.min(r0), l1.max(r1)),
            (Some(s), None) | (None, Some(s)) => s,
            (None, None) => (Timestamp(0), Timestamp(0)),
        };
        let scheme = WindowScheme::new(lo, cfg.window_width_secs);
        let domain = scheme.num_windows(hi);
        let build = |ds: &LocationDataset| {
            let entities = ds.entities_sorted();
            HistorySet::build_with_threads(ds, &entities, scheme, cfg.spatial_level, domain, 1)
        };
        (build(&left), build(&right))
    }

    #[test]
    fn prepare_equals_the_copying_reference() {
        let cfg = SlimConfig::default();
        assert_eq!(cfg.min_records, 5, "the boundary below is 5 | 6 records");
        let (l, r) = two_views(5, 3);
        let dense = |ds: &LocationDataset| -> Vec<Record> {
            ds.entities_sorted()
                .into_iter()
                .flat_map(|e| ds.records_of(e).to_vec())
                .collect()
        };
        // Left gains an entity of exactly 5 records (dropped) that starts
        // and ends outside everyone else's span, so keeping it would move
        // both the origin and the domain; right gains one of exactly 6
        // (kept) that does the same and must move them.
        let at = LatLng::from_degrees(37.3, -122.3);
        let sparse = |e: u64, n: i64, t0: i64| {
            (0..n).map(move |k| Record::new(EntityId(e), at, Timestamp(t0 + k * 9_000)))
        };
        let mut l_recs = dense(&l);
        l_recs.extend(sparse(3000, 5, -5_000));
        let mut r_recs = dense(&r);
        r_recs.extend(sparse(4000, 6, -2_000));
        let cases = [
            (
                LocationDataset::from_records(l_recs),
                LocationDataset::from_records(r_recs),
            ),
            (l, LocationDataset::from_records(Vec::new())),
            (
                LocationDataset::from_records(sparse(1, 5, 0)),
                LocationDataset::from_records(sparse(2, 5, 70)),
            ),
        ];
        for (left, right) in &cases {
            let prepared = Slim::new(cfg).unwrap().prepare(left, right);
            let (want_l, want_r) = prepare_by_copy(&cfg, left, right);
            for (got, want) in [(prepared.left(), &want_l), (prepared.right(), &want_r)] {
                assert_eq!(got.scheme(), want.scheme());
                assert_eq!(got.domain(), want.domain());
                assert_eq!(got.entities_sorted(), want.entities_sorted());
                assert_eq!(got.avg_bins(), want.avg_bins());
                assert_eq!(got.df_stats(), want.df_stats());
            }
        }
        let prepared = Slim::new(cfg).unwrap().prepare(&cases[0].0, &cases[0].1);
        assert!(prepared.left().history(EntityId(3000)).is_none());
        assert!(prepared.right().history(EntityId(4000)).is_some());
        assert_eq!(
            prepared.left().scheme(),
            &WindowScheme::new(Timestamp(-2_000), cfg.window_width_secs)
        );
    }

    #[test]
    fn scoring_does_not_depend_on_the_thread_count() {
        let (l, r) = two_views(9, 5);
        let prepared = Slim::new(SlimConfig::default()).unwrap().prepare(&l, &r);
        // Every pair, a second copy of every seventh, one entity missing
        // on each side, all in reverse order.
        let mut all = prepared.all_pairs();
        let again: Vec<_> = all.iter().step_by(7).copied().collect();
        all.extend(again);
        all.extend([
            (EntityId(77), EntityId(1000)),
            (EntityId(0), EntityId(5555)),
        ]);
        all.reverse();
        let bits = |edges: &[Edge]| -> Vec<(EntityId, EntityId, u64)> {
            edges
                .iter()
                .map(|e| (e.left, e.right, e.weight.to_bits()))
                .collect()
        };
        for candidates in [&all[..], &all[..5], &[]] {
            let (want_edges, want_stats) = prepared.score_pairs_with_threads(candidates, 1);
            for threads in [2, 3, 7] {
                let (edges, stats) = prepared.score_pairs_with_threads(candidates, threads);
                assert_eq!(bits(&edges), bits(&want_edges), "{threads} threads");
                assert_eq!(stats, want_stats, "{threads} threads");
            }
            let (edges, stats) = prepared.score_pairs(candidates);
            assert_eq!((bits(&edges), stats), (bits(&want_edges), want_stats));
        }
        // Not vacuous: the missing entities are skipped, a duplicate pair
        // is scored twice into two equal edges, and edges come sorted.
        let (edges, stats) = prepared.score_pairs_with_threads(&all, 1);
        assert_eq!(stats.scored_entity_pairs as usize, all.len() - 2);
        assert!(edges
            .windows(2)
            .all(|p| (p[0].left, p[0].right) <= (p[1].left, p[1].right)));
        assert!(edges
            .windows(2)
            .any(|p| (p[0].left, p[0].right) == (p[1].left, p[1].right)));
    }

    #[test]
    fn invalid_config_rejected() {
        let cfg = SlimConfig {
            b: 2.0,
            ..SlimConfig::default()
        };
        assert!(Slim::new(cfg).is_err());
    }

    #[test]
    fn deterministic_across_runs() {
        let (l, r) = two_views(9, 5);
        let slim = Slim::new(SlimConfig::default()).unwrap();
        let a = slim.link(&l, &r);
        let b = slim.link(&l, &r);
        assert_eq!(a.links.len(), b.links.len());
        for (x, y) in a.links.iter().zip(&b.links) {
            assert_eq!(x.left, y.left);
            assert_eq!(x.right, y.right);
            assert!((x.weight - y.weight).abs() < 1e-12);
        }
    }

    /// A set lent over arena parts serves only its indexed entities: the
    /// other entities of a part (the streaming engine's parked ones)
    /// reach no reader, and the set scores to the same bits as a batch
    /// build over the indexed entities' records.
    #[test]
    fn a_lent_set_sees_only_its_indexed_entities() {
        use std::borrow::Cow;

        use crate::arena::HistoryArena;
        use crate::df::DfStats;
        use crate::history::record_cells;

        let cfg = SlimConfig::default();
        let (l, r) = two_views(8, 5);
        let prepared = Slim::new(cfg).unwrap().prepare(&l, &r);
        let batch = prepared.left();
        let (scheme, level, domain) = (*batch.scheme(), batch.spatial_level(), batch.domain());
        // Two arenas fed record by record, as the engine feeds them: the
        // even entities in one, the odd ones in the other, and beside
        // entities 0 and 1 unindexed twins 100 and 101 holding the same
        // records — counted, they would move df, avg_bins and scores.
        let mut arenas = [HistoryArena::new(), HistoryArena::new()];
        for e in l.entities_sorted() {
            let arena = &mut arenas[(e.0 % 2) as usize];
            for rec in l.records_of(e) {
                let (w, cells) = (scheme.window_of(rec.time), record_cells(rec, level));
                arena.append(e, w, &cells, &mut Vec::new());
                if e.0 < 2 {
                    arena.append(EntityId(100 + e.0), w, &cells, &mut Vec::new());
                }
            }
        }
        let members = |p: u64| {
            l.entities_sorted()
                .into_iter()
                .filter(move |e| e.0 % 2 == p)
        };
        let mut stats = DfStats::new();
        for e in l.entities_sorted() {
            let view = arenas[(e.0 % 2) as usize].view(e).unwrap();
            for (w, cells, _) in view.runs() {
                cells.iter().for_each(|&c| stats.add_bin(w, c));
            }
            stats.add_entity();
        }
        assert_eq!(&stats, batch.df_stats());
        let [even, odd] = &arenas;
        let parts = [
            (Cow::Borrowed(even), members(0)),
            (Cow::Owned(odd.clone()), members(1)),
        ];
        let lent = HistorySet::from_arenas(scheme, level, domain, parts, stats);

        let twins = [EntityId(100), EntityId(101)];
        assert!(twins
            .iter()
            .all(|&t| arenas[(t.0 % 2) as usize].view(t).is_some()));
        assert!(twins.iter().all(|&t| lent.history(t).is_none()));
        assert_eq!(lent.entities_sorted(), batch.entities_sorted());
        assert_eq!(lent.num_entities(), 8);
        for e in batch.entities_sorted() {
            assert_eq!(lent.history(e), batch.history(e), "{e:?}");
        }
        let bins = |set: &HistorySet<'_>| -> Vec<usize> {
            let mut bins: Vec<_> = set.histories().map(|h| h.num_bins()).collect();
            bins.sort_unstable();
            bins
        };
        assert_eq!(bins(&lent), bins(batch));
        assert_eq!(lent.avg_bins().to_bits(), batch.avg_bins().to_bits());
        for e in batch.entities_sorted().into_iter().chain(twins) {
            let norm = |set: &HistorySet<'_>| set.length_norm(e, cfg.b).to_bits();
            assert_eq!(norm(&lent), norm(batch), "{e:?}");
        }

        let scored = |p: &PreparedLinkage<'_>, candidates: &[(EntityId, EntityId)]| {
            let (edges, stats) = p.score_pairs(candidates);
            let bits: Vec<_> = edges
                .iter()
                .map(|e| (e.left, e.right, e.weight.to_bits()))
                .collect();
            (bits, stats)
        };
        let lent = PreparedLinkage::from_history_sets(cfg, lent, prepared.right().clone()).unwrap();
        let mut candidates = prepared.all_pairs();
        assert_eq!(lent.all_pairs(), candidates);
        candidates.extend(twins.map(|t| (t, EntityId(1000))));
        let got = scored(&lent, &candidates);
        assert_eq!(got, scored(&prepared, &candidates));
        assert_eq!(got.1.scored_entity_pairs as usize, candidates.len() - 2);
        assert!(got.0.len() >= 5, "the true pairs score");
    }
}
