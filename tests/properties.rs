//! Property-based tests (proptest) over the core data structures and
//! invariants of the reproduction.

use proptest::prelude::*;

use slim::core::erf::{erf, normal_cdf};
use slim::core::gmm::Gmm2;
use slim::core::matching::{greedy_max_matching, is_valid_matching, Edge};
use slim::core::pairing::{all_pairs, mutually_furthest, mutually_nearest};
use slim::core::proximity::proximity_of_distance;
use slim::core::threshold::{otsu, two_means};
use slim::core::{
    record_cells, EntityId, HistorySet, LocationDataset, Record, Slim, SlimConfig, Timestamp,
    WindowScheme,
};
use slim::geo::{cell_min_distance_m, CellId, LatLng};
use slim::lsh::{
    bands_for_threshold, collision_probability, lambert_w0, signature_from_bins,
    signature_from_records,
};

fn arb_latlng() -> impl Strategy<Value = LatLng> {
    (-85.0f64..85.0, -179.9f64..179.9).prop_map(|(lat, lng)| LatLng::from_degrees(lat, lng))
}

/// The leaves of a history by definition, built the way
/// `MobilityHistory::build` did before it sorted runs: one `HashMap` of
/// cell counts per window, every record's cells counted into it.
fn leaves_by_definition(
    records: &[Record],
    scheme: &WindowScheme,
    level: u8,
    domain: u32,
) -> std::collections::BTreeMap<u32, Vec<(CellId, u32)>> {
    use std::collections::{BTreeMap, HashMap};
    let mut leaves: BTreeMap<u32, HashMap<CellId, u32>> = BTreeMap::new();
    for r in records {
        let w = scheme.window_of(r.time).min(domain.saturating_sub(1));
        for cell in record_cells(r, level) {
            *leaves.entry(w).or_default().entry(cell).or_insert(0) += 1;
        }
    }
    leaves
        .into_iter()
        .map(|(w, cells)| {
            let mut bins: Vec<(CellId, u32)> = cells.into_iter().collect();
            bins.sort_by_key(|&(c, _)| c);
            (w, bins)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---- geocell ----

    #[test]
    fn cellid_level_roundtrip(ll in arb_latlng(), level in 0u8..=30) {
        let id = CellId::from_latlng(ll, level);
        prop_assert_eq!(id.level(), level);
        prop_assert!(id.is_valid());
    }

    #[test]
    fn cellid_parent_contains_point(ll in arb_latlng(), level in 1u8..=30) {
        let id = CellId::from_latlng(ll, level);
        let parent = id.parent(level - 1);
        prop_assert!(parent.contains(id));
        prop_assert_eq!(parent, CellId::from_latlng(ll, level - 1));
    }

    #[test]
    fn cellid_center_relookup(ll in arb_latlng(), level in 0u8..=30) {
        let id = CellId::from_latlng(ll, level);
        prop_assert_eq!(CellId::from_latlng(id.center(), level), id);
    }

    #[test]
    fn cell_distance_lower_bounds_point_distance(a in arb_latlng(), b in arb_latlng(), level in 4u8..=20) {
        let ca = CellId::from_latlng(a, level);
        let cb = CellId::from_latlng(b, level);
        let bound = cell_min_distance_m(ca, cb);
        prop_assert!(bound <= a.distance_m(&b) + 1e-6,
            "bound {} exceeds point distance {}", bound, a.distance_m(&b));
    }

    #[test]
    fn cell_distance_is_symmetric(a in arb_latlng(), b in arb_latlng(), level in 4u8..=20) {
        let ca = CellId::from_latlng(a, level);
        let cb = CellId::from_latlng(b, level);
        prop_assert_eq!(cell_min_distance_m(ca, cb), cell_min_distance_m(cb, ca));
    }

    #[test]
    fn haversine_triangle_inequality(a in arb_latlng(), b in arb_latlng(), c in arb_latlng()) {
        let ab = a.distance_m(&b);
        let bc = b.distance_m(&c);
        let ac = a.distance_m(&c);
        prop_assert!(ac <= ab + bc + 1e-6);
    }

    // ---- windows ----

    #[test]
    fn window_of_its_start_is_identity(origin in -1_000_000i64..1_000_000, width in 1i64..100_000, w in 0u32..10_000) {
        let s = WindowScheme::new(Timestamp(origin), width);
        prop_assert_eq!(s.window_of(s.window_start(w)), w);
    }

    // ---- proximity ----

    #[test]
    fn proximity_bounded_and_monotone(d1 in 0.0f64..1e8, d2 in 0.0f64..1e8, r in 1.0f64..1e6) {
        let p1 = proximity_of_distance(d1, r);
        let p2 = proximity_of_distance(d2, r);
        prop_assert!(p1 <= 1.0 && p1.is_finite());
        if d1 <= d2 {
            prop_assert!(p1 >= p2 - 1e-12);
        }
    }

    #[test]
    fn proximity_sign_matches_runaway(d in 0.0f64..1e8, r in 1.0f64..1e6) {
        let p = proximity_of_distance(d, r);
        if d < r * 0.999 {
            prop_assert!(p > 0.0);
        } else if d > r * 1.001 {
            prop_assert!(p < 0.0);
        }
    }

    // ---- pairing ----

    #[test]
    fn pairing_counts_and_uniqueness(
        a in prop::collection::vec(arb_latlng(), 0..8),
        b in prop::collection::vec(arb_latlng(), 0..8),
    ) {
        let bins = |v: &[LatLng]| -> Vec<CellId> {
            v.iter().map(|&ll| CellId::from_latlng(ll, 12)).collect()
        };
        let (ba, bb) = (bins(&a), bins(&b));
        let nn = mutually_nearest(&ba, &bb);
        let ff = mutually_furthest(&ba, &bb);
        let ap = all_pairs(&ba, &bb);
        prop_assert_eq!(nn.len(), ba.len().min(bb.len()));
        prop_assert_eq!(ff.len(), ba.len().min(bb.len()));
        prop_assert_eq!(ap.len(), ba.len() * bb.len());
        // No bin reused within nn / ff.
        for pairs in [&nn, &ff] {
            let mut es: Vec<_> = pairs.iter().map(|p| p.e_idx).collect();
            let mut is: Vec<_> = pairs.iter().map(|p| p.i_idx).collect();
            es.sort_unstable(); es.dedup();
            is.sort_unstable(); is.dedup();
            prop_assert_eq!(es.len(), pairs.len());
            prop_assert_eq!(is.len(), pairs.len());
        }
        // Total nearest distance ≤ total furthest distance.
        let sum = |v: &[slim::core::pairing::BinPair]| v.iter().map(|p| p.dist_m).sum::<f64>();
        prop_assert!(sum(&nn) <= sum(&ff) + 1e-6);
    }

    // ---- matching ----

    #[test]
    fn greedy_matching_is_valid_and_half_optimal(
        edges in prop::collection::vec((0u64..8, 0u64..8, 0.01f64..100.0), 0..40)
    ) {
        let edges: Vec<Edge> = edges
            .into_iter()
            .map(|(l, r, w)| Edge { left: EntityId(l), right: EntityId(r), weight: w })
            .collect();
        let m = greedy_max_matching(&edges);
        prop_assert!(is_valid_matching(&m));
        // Greedy is a 1/2-approximation of max-weight matching.
        let mut w = vec![vec![0.0f64; 8]; 8];
        for e in &edges {
            let (i, j) = (e.left.0 as usize, e.right.0 as usize);
            w[i][j] = w[i][j].max(e.weight);
        }
        let (_, opt) = slim::core::hungarian::max_weight_assignment(&w);
        let greedy_total: f64 = m.iter().map(|e| e.weight).sum();
        prop_assert!(greedy_total >= 0.5 * opt - 1e-9, "greedy {} opt {}", greedy_total, opt);
        prop_assert!(greedy_total <= opt + 1e-9);
    }

    // ---- mobility histories ----

    #[test]
    fn history_build_equals_the_definition(
        // (time slot, east step, north step, accuracy choice): arrival
        // order is random, slots repeat (equal timestamps), slots from 45 on
        // lie beyond the 32-window domain (the clamp), and the radii span
        // one to several level-16 cells.
        raw in prop::collection::vec((0i64..64, 0u8..5, 0u8..5, 0usize..5), 0..60),
    ) {
        const LEVEL: u8 = 16;
        const DOMAIN: u32 = 32;
        let scheme = WindowScheme::new(Timestamp(0), 900);
        let home = LatLng::from_degrees(37.0, -122.0);
        let records: Vec<Record> = raw
            .iter()
            .map(|&(slot, east, north, acc)| {
                let at = home.offset(120.0 * east as f64, 0.0).offset(120.0 * north as f64, 1.5);
                let accuracy = [0.0, 0.0, 40.0, 150.0, 400.0][acc];
                Record::with_accuracy(EntityId(1), at, Timestamp(slot * 640), accuracy)
            })
            .collect();
        let want = leaves_by_definition(&records, &scheme, LEVEL, DOMAIN);

        let set = HistorySet::build(&LocationDataset::from_records(records.clone()), scheme, LEVEL, DOMAIN);
        let built = set.history(EntityId(1)).unwrap_or_default();
        let view = built;
        prop_assert_eq!(view.windows().collect::<Vec<_>>(), want.keys().copied().collect::<Vec<_>>());
        for (w, cells, counts) in view.runs() {
            let run: Vec<(CellId, u32)> = cells.iter().copied().zip(counts.iter().copied()).collect();
            prop_assert_eq!(&run, &want[&w]);
        }
        prop_assert_eq!(built.num_bins(), want.values().map(Vec::len).sum::<usize>());
        prop_assert_eq!(built.num_records() as usize, records.len());
    }

    #[test]
    fn signatures_from_bins_equal_the_records_path(
        // (entity, time slot, east step, north step, accuracy choice):
        // slots from 45 on lie beyond the 32-window domain, a few records
        // over few cells make tied counts common, and entities of 5
        // records or fewer are dropped by `prepare`.
        raw in prop::collection::vec((0u64..4, 0i64..64, 0u8..4, 0u8..4, 0usize..5), 0..80),
        fine in 0usize..2,
        step in 1u32..12,
    ) {
        let (level, spacing) = [(12, 1_500.0), (16, 120.0)][fine];
        let home = LatLng::from_degrees(37.0, -122.0);
        let records: Vec<Record> = raw
            .iter()
            .map(|&(e, slot, east, north, acc)| {
                let at = home.offset(spacing * east as f64, 0.0).offset(spacing * north as f64, 1.5);
                let accuracy = [0.0, 0.0, 40.0, 150.0, 400.0][acc];
                Record::with_accuracy(EntityId(e), at, Timestamp(slot * 640), accuracy)
            })
            .collect();
        let left = LocationDataset::from_records(records);
        let right = LocationDataset::from_records(Vec::new());
        let cfg = SlimConfig { spatial_level: level, ..SlimConfig::default() };
        let prepared = Slim::new(cfg).unwrap().prepare(&left, &right);
        let side = prepared.left();
        // The domain the histories were built with, and a shorter one
        // that leaves records past its end.
        for domain in [side.domain(), 32] {
            for e in side.entities_sorted() {
                let via_records = signature_from_records(
                    e, left.records_of(e), side.scheme(), domain, step, level,
                );
                if domain == side.domain() {
                    let history = side.history(e).unwrap();
                    prop_assert_eq!(signature_from_bins(e, history, domain, step), via_records);
                } else {
                    let set = HistorySet::build(&LocationDataset::from_records(left.records_of(e).to_vec()), *side.scheme(), level, domain);
                    let history = set.history(e).unwrap();
                    prop_assert_eq!(signature_from_bins(e, history, domain, step), via_records);
                }
            }
        }
    }

    // ---- numerics ----

    #[test]
    fn erf_is_odd_and_bounded(x in -5.0f64..5.0) {
        prop_assert!((erf(x) + erf(-x)).abs() < 1e-7);
        prop_assert!(erf(x).abs() <= 1.0);
    }

    #[test]
    fn normal_cdf_monotone(a in -50.0f64..50.0, b in -50.0f64..50.0, mean in -10.0f64..10.0, sd in 0.1f64..10.0) {
        if a <= b {
            prop_assert!(normal_cdf(a, mean, sd) <= normal_cdf(b, mean, sd) + 1e-12);
        }
    }

    #[test]
    fn lambert_w_inverse(x in 0.0f64..500.0) {
        let w = lambert_w0(x);
        prop_assert!((w * w.exp() - x).abs() < 1e-6 * (1.0 + x));
    }

    #[test]
    fn banding_covers_signature(s in 1usize..500, t in 0.05f64..0.95) {
        let (bands, rows) = bands_for_threshold(s, t);
        prop_assert!(bands * rows >= s);
        prop_assert!(rows >= 1 && bands >= 1);
        // The collision probability is monotone in similarity.
        let p_lo = collision_probability(0.1, bands, rows);
        let p_hi = collision_probability(0.9, bands, rows);
        prop_assert!(p_lo <= p_hi + 1e-12);
    }

    // ---- thresholds ----

    #[test]
    fn thresholds_lie_within_score_range(
        scores in prop::collection::vec(0.0f64..1000.0, 8..200)
    ) {
        let lo = scores.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if hi > lo {
            if let Some(t) = otsu(&scores) {
                prop_assert!(t >= lo && t <= hi + 1e-9, "otsu {} outside [{}, {}]", t, lo, hi);
            }
            if let Some(t) = two_means(&scores) {
                prop_assert!(t >= lo - 1e-9 && t <= hi + 1e-9);
            }
        }
    }

    #[test]
    fn gmm_fit_orders_components(
        lo_mean in 0.0f64..10.0,
        hi_offset in 5.0f64..50.0,
        n in 20usize..100,
    ) {
        // Deterministic pseudo-bimodal data.
        let data: Vec<f64> = (0..n)
            .flat_map(|i| {
                let jitter = (i as f64 * 0.7).sin();
                [lo_mean + jitter, lo_mean + hi_offset + 5.0 + jitter]
            })
            .collect();
        if let Some(g) = Gmm2::fit(&data) {
            prop_assert!(g.low.mean <= g.high.mean);
            prop_assert!(g.low.std_dev > 0.0 && g.high.std_dev > 0.0);
            prop_assert!((g.low.weight + g.high.weight - 1.0).abs() < 1e-6);
        }
    }
}
