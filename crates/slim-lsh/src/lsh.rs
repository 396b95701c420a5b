//! The end-to-end LSH candidate filter.
//!
//! Ties together signatures ([`crate::signature`]) and banding
//! ([`crate::banding`]) behind one configuration struct, producing the
//! candidate entity-pair list that [`slim_core::PreparedLinkage::
//! link_with_candidates`] consumes.

use serde::{Deserialize, Serialize};
use slim_core::{EntityId, HistorySet, LocationDataset, PreparedLinkage, Timestamp, WindowScheme};

use crate::banding::{bands_for_threshold, candidate_pairs};
use crate::signature::{num_queries, signature_from_bins, signatures_for_entities, Signature};

/// LSH parameters (paper §4): the similarity threshold `t`, the query
/// step (how many leaf windows one dominating-cell query spans), the
/// spatial level of the dominating cells, and the bucket count.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LshConfig {
    /// Target signature-similarity threshold `t ∈ (0, 1)`; pairs above it
    /// should become candidates (default 0.6, as in §5.3).
    pub threshold: f64,
    /// Query span in leaf windows (the paper's "temporal step size").
    pub step_windows: u32,
    /// Spatial level of dominating cells (independent of the similarity
    /// bins' level).
    pub spatial_level: u8,
    /// Number of hash buckets per band (default 4096, as in §5.3).
    pub num_buckets: u64,
}

impl Default for LshConfig {
    fn default() -> Self {
        Self {
            threshold: 0.6,
            step_windows: 48,
            spatial_level: 16,
            num_buckets: 4096,
        }
    }
}

impl LshConfig {
    /// Checks the ranges the filter relies on, returning a description
    /// of the first problem found: a positive step, a threshold inside
    /// `(0, 1)` (NaN is not), and a level the cell grid has.
    pub fn validate(&self) -> Result<(), String> {
        if self.step_windows == 0 {
            return Err("lsh step_windows must be positive".into());
        }
        if !(self.threshold > 0.0 && self.threshold < 1.0) {
            return Err(format!("lsh threshold {} outside (0, 1)", self.threshold));
        }
        if self.spatial_level > geocell::MAX_LEVEL {
            return Err(format!(
                "lsh spatial_level {} exceeds max {}",
                self.spatial_level,
                geocell::MAX_LEVEL
            ));
        }
        Ok(())
    }
}

/// The built filter: signatures for both datasets plus the banding
/// parameters derived from the signature size and threshold.
#[derive(Debug, Clone)]
pub struct LshFilter {
    cfg: LshConfig,
    scheme: WindowScheme,
    left: Vec<Signature>,
    right: Vec<Signature>,
    bands: usize,
    rows: usize,
}

impl LshFilter {
    /// Builds signatures for both datasets over a shared window scheme,
    /// the two sides concurrently.
    ///
    /// `scheme`/`domain` must match the ones the linkage pipeline uses so
    /// the signature queries align with the leaf windows;
    /// [`LshFilter::for_prepared`] takes them from the pipeline itself.
    pub fn build(
        cfg: LshConfig,
        left: &LocationDataset,
        right: &LocationDataset,
        scheme: &WindowScheme,
        domain: u32,
    ) -> Self {
        let (l, r) = (left.entities_sorted(), right.entities_sorted());
        Self::build_sides(cfg, (left, &l), (right, &r), scheme, domain)
    }

    /// The filter for a prepared linkage: cut at the scorer's own window
    /// scheme and domain, with signatures for exactly the entities the
    /// scorer kept. `left`/`right` are the datasets `prepared` was made
    /// from. At the histories' own spatial level the signatures are read
    /// off their bins ([`signature_from_bins`]), which hold exactly the
    /// counts the records would give; at any other level they come from
    /// the records.
    pub fn for_prepared(
        cfg: LshConfig,
        left: &LocationDataset,
        right: &LocationDataset,
        prepared: &PreparedLinkage<'_>,
    ) -> Self {
        let (lh, rh) = (prepared.left(), prepared.right());
        let (scheme, domain) = (lh.scheme(), lh.domain());
        if cfg.spatial_level != lh.spatial_level() {
            let (l, r) = (lh.entities_sorted(), rh.entities_sorted());
            return Self::build_sides(cfg, (left, &l), (right, &r), scheme, domain);
        }
        let sign = |side: &HistorySet<'_>| -> Vec<Signature> {
            side.entities_sorted()
                .into_iter()
                .map(|e| {
                    let history = side.history(e).expect("a listed entity has a history");
                    signature_from_bins(e, history, domain, cfg.step_windows)
                })
                .collect()
        };
        Self::signed(cfg, scheme, domain, || sign(lh), || sign(rh))
    }

    /// Convenience: derives the window scheme from the joint time span of
    /// *all* records of both datasets and `window_width_secs`. That is
    /// the scheme [`slim_core::Slim::prepare`] derives only while no
    /// entity is dropped for having too few records: `prepare` starts its
    /// scheme at the earliest record of the entities it keeps, and a
    /// candidate from here can name an entity `prepare` dropped. Use
    /// [`LshFilter::for_prepared`] wherever the two must agree.
    ///
    /// Remaining callers: figures 8, 9 and 11 (`slim-eval`), four test
    /// files (`tests/lsh_integration.rs`, `tests/robustness.rs`,
    /// `tests/baseline_comparison.rs`, and the `slim-cli` test that
    /// contrasts the two schemes), and the benchmark's decomposed LSH
    /// stage (`bench/src/batch.rs`). It stays until the benchmark moves
    /// to [`LshFilter::for_prepared`] in a change of its own.
    pub fn build_auto(
        cfg: LshConfig,
        left: &LocationDataset,
        right: &LocationDataset,
        window_width_secs: i64,
    ) -> Self {
        let (lo, hi) = match (left.time_span(), right.time_span()) {
            (Some((l0, l1)), Some((r0, r1))) => (l0.min(r0), l1.max(r1)),
            (Some(s), None) | (None, Some(s)) => s,
            (None, None) => (Timestamp(0), Timestamp(0)),
        };
        let scheme = WindowScheme::new(lo, window_width_secs);
        let domain = scheme.num_windows(hi);
        Self::build(cfg, left, right, &scheme, domain)
    }

    /// Signatures of each side's listed entities, from their records.
    fn build_sides(
        cfg: LshConfig,
        left: (&LocationDataset, &[EntityId]),
        right: (&LocationDataset, &[EntityId]),
        scheme: &WindowScheme,
        domain: u32,
    ) -> Self {
        let sign = |(ds, entities): (&LocationDataset, &[EntityId])| {
            let (step, level) = (cfg.step_windows, cfg.spatial_level);
            signatures_for_entities(ds, entities, scheme, domain, step, level)
        };
        Self::signed(cfg, scheme, domain, || sign(left), || sign(right))
    }

    /// The filter over the signatures `left` and `right` build, the right
    /// side on a thread of its own.
    fn signed(
        cfg: LshConfig,
        scheme: &WindowScheme,
        domain: u32,
        left: impl FnOnce() -> Vec<Signature>,
        right: impl FnOnce() -> Vec<Signature> + Send,
    ) -> Self {
        let s = num_queries(domain, cfg.step_windows);
        let (bands, rows) = bands_for_threshold(s, cfg.threshold);
        let (left, right) = std::thread::scope(|s| {
            let right_side = s.spawn(right);
            let left = left();
            let right = right_side
                .join()
                .expect("signature building does not panic");
            (left, right)
        });
        Self {
            cfg,
            scheme: *scheme,
            left,
            right,
            bands,
            rows,
        }
    }

    /// The window scheme the signature spans are cut at.
    pub fn scheme(&self) -> &WindowScheme {
        &self.scheme
    }

    /// Candidate entity pairs (sorted, deduplicated).
    pub fn candidates(&self) -> Vec<(EntityId, EntityId)> {
        candidate_pairs(
            &self.left,
            &self.right,
            self.bands,
            self.rows,
            self.cfg.num_buckets,
        )
    }

    /// Banding actually used: `(bands, rows)`.
    pub fn banding(&self) -> (usize, usize) {
        (self.bands, self.rows)
    }

    /// Signature length (number of dominating-cell queries).
    pub fn signature_size(&self) -> usize {
        self.left.first().map(|s| s.cells.len()).unwrap_or(0)
    }

    /// Signatures of the left dataset (sorted by entity).
    pub fn left_signatures(&self) -> &[Signature] {
        &self.left
    }

    /// Signatures of the right dataset (sorted by entity).
    pub fn right_signatures(&self) -> &[Signature] {
        &self.right
    }

    /// The filter's configuration.
    pub fn config(&self) -> &LshConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geocell::LatLng;
    use slim_core::Record;

    /// `n` entities, first `common` shared across views (ids offset by
    /// 1000 on the right), each orbiting its own anchor.
    fn views(n: u64, common: u64) -> (LocationDataset, LocationDataset) {
        let mut l = Vec::new();
        let mut r = Vec::new();
        for e in 0..n {
            let anchor = LatLng::from_degrees(35.0 + 0.5 * e as f64, -120.0);
            for k in 0..96i64 {
                let pos = anchor.offset(200.0 * ((k % 3) as f64), k as f64 * 0.3);
                l.push(Record::new(EntityId(e), pos, Timestamp(k * 900)));
                if e < common {
                    let pos2 = anchor.offset(200.0 * ((k % 3) as f64) + 30.0, k as f64 * 0.3);
                    r.push(Record::new(
                        EntityId(1000 + e),
                        pos2,
                        Timestamp(k * 900 + 450),
                    ));
                }
            }
            if e >= common {
                let far = LatLng::from_degrees(-30.0 - 0.5 * e as f64, 140.0);
                for k in 0..96i64 {
                    r.push(Record::new(
                        EntityId(1000 + e),
                        far.offset(150.0 * ((k % 2) as f64), 0.5),
                        Timestamp(k * 900),
                    ));
                }
            }
        }
        (
            LocationDataset::from_records(l),
            LocationDataset::from_records(r),
        )
    }

    fn cfg() -> LshConfig {
        LshConfig {
            threshold: 0.6,
            step_windows: 8,
            spatial_level: 12,
            num_buckets: 4096,
        }
    }

    #[test]
    fn true_pairs_survive_the_filter() {
        let (l, r) = views(6, 4);
        let filter = LshFilter::build_auto(cfg(), &l, &r, 900);
        let cands = filter.candidates();
        for e in 0..4u64 {
            assert!(
                cands.contains(&(EntityId(e), EntityId(1000 + e))),
                "true pair {e} filtered out; candidates: {cands:?}"
            );
        }
    }

    #[test]
    fn filter_prunes_most_false_pairs() {
        let (l, r) = views(8, 4);
        let filter = LshFilter::build_auto(cfg(), &l, &r, 900);
        let cands = filter.candidates();
        let brute = 8 * 8;
        assert!(
            cands.len() < brute / 2,
            "expected pruning below {}, got {}",
            brute / 2,
            cands.len()
        );
    }

    #[test]
    fn banding_consistent_with_signature_size() {
        let (l, r) = views(3, 3);
        let filter = LshFilter::build_auto(cfg(), &l, &r, 900);
        let (bands, rows) = filter.banding();
        assert!(bands * rows >= filter.signature_size());
        assert!(filter.signature_size() == filter.left_signatures()[0].cells.len());
    }

    #[test]
    fn prepared_signatures_are_the_records_signatures_at_every_level() {
        // Region records of 0–400 m, and a left entity of 3 records that
        // `prepare` drops.
        let (l, r) = views(6, 4);
        let regions = |ds: &LocationDataset, extra: Vec<Record>| {
            let mut records = extra;
            for e in ds.entities_sorted() {
                for (k, rec) in ds.records_of(e).iter().enumerate() {
                    let radius = (k % 5) as f64 * 100.0;
                    records.push(Record::with_accuracy(e, rec.location, rec.time, radius));
                }
            }
            LocationDataset::from_records(records)
        };
        let at = LatLng::from_degrees(35.0, -120.0);
        let sparse = (0..3)
            .map(|k| Record::new(EntityId(77), at, Timestamp(k * 900)))
            .collect();
        let (l, r) = (regions(&l, sparse), regions(&r, Vec::new()));
        let slim = slim_core::Slim::new(slim_core::SlimConfig::default()).unwrap();
        let prepared = slim.prepare(&l, &r);
        assert!(prepared.left().history(EntityId(77)).is_none());
        assert_eq!(prepared.left().spatial_level(), 12);
        for level in [12, 10, 16] {
            let lsh = LshConfig {
                spatial_level: level,
                step_windows: 7,
                ..cfg()
            };
            let filter = LshFilter::for_prepared(lsh, &l, &r, &prepared);
            let records_path = |ds: &LocationDataset, side: &HistorySet| -> Vec<Signature> {
                side.entities_sorted()
                    .into_iter()
                    .map(|e| {
                        crate::signature_from_records(
                            e,
                            ds.records_of(e),
                            side.scheme(),
                            side.domain(),
                            lsh.step_windows,
                            level,
                        )
                    })
                    .collect()
            };
            assert_eq!(filter.left_signatures(), records_path(&l, prepared.left()));
            assert_eq!(
                filter.right_signatures(),
                records_path(&r, prepared.right())
            );
            assert_eq!(filter.scheme(), prepared.left().scheme());
            assert!(filter.left_signatures().iter().any(|s| s.occupancy() > 0));
        }
    }

    #[test]
    fn empty_datasets_yield_no_candidates() {
        let empty = LocationDataset::from_records(Vec::new());
        let filter = LshFilter::build_auto(cfg(), &empty, &empty, 900);
        assert!(filter.candidates().is_empty());
    }

    #[test]
    fn signature_similarity_of_true_pairs_is_high() {
        let (l, r) = views(3, 3);
        let filter = LshFilter::build_auto(cfg(), &l, &r, 900);
        for e in 0..3usize {
            let sl = &filter.left_signatures()[e];
            let sr = &filter.right_signatures()[e];
            let sim = sl.similarity(sr);
            assert!(sim > 0.8, "true pair {e} signature similarity {sim}");
        }
    }
}
