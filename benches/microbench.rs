//! Kernel microbenchmarks: the hot operations of the linkage pipeline.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use slim::core::gmm::Gmm2;
use slim::core::pairing::{mutually_furthest, mutually_nearest};
use slim::core::proximity::proximity_of_distance;
use slim::core::{
    HistorySet, LinkageStats, LocationDataset, Record, SlimConfig, Timestamp, WindowScheme,
};
use slim::geo::{cell_min_distance_m, CellId, LatLng};
use slim::lsh::{bands_for_threshold, signature_from_records};

fn sf_points(n: usize) -> Vec<LatLng> {
    (0..n)
        .map(|k| {
            LatLng::from_degrees(
                37.5 + 0.3 * ((k * 37 % 101) as f64 / 101.0),
                -122.6 + 0.4 * ((k * 61 % 97) as f64 / 97.0),
            )
        })
        .collect()
}

fn bench_cell_lookup(c: &mut Criterion) {
    let pts = sf_points(1024);
    c.bench_function("cellid_from_latlng_level12", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % pts.len();
            black_box(CellId::from_latlng(pts[i], 12))
        })
    });
}

fn bench_cell_distance(c: &mut Criterion) {
    let pts = sf_points(256);
    let cells: Vec<CellId> = pts.iter().map(|&p| CellId::from_latlng(p, 12)).collect();
    c.bench_function("cell_min_distance", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % (cells.len() - 1);
            black_box(cell_min_distance_m(cells[i], cells[i + 1]))
        })
    });
}

fn bench_proximity(c: &mut Criterion) {
    c.bench_function("proximity_of_distance", |b| {
        let mut d = 0.0f64;
        b.iter(|| {
            d = (d + 731.0) % 70_000.0;
            black_box(proximity_of_distance(d, 30_000.0))
        })
    });
}

fn bench_pairing(c: &mut Criterion) {
    let pts = sf_points(16);
    let bins_a: Vec<CellId> = pts[..8]
        .iter()
        .map(|&p| CellId::from_latlng(p, 12))
        .collect();
    let bins_b: Vec<CellId> = pts[8..]
        .iter()
        .map(|&p| CellId::from_latlng(p, 12))
        .collect();
    c.bench_function("mnn_pairing_8x8", |b| {
        b.iter(|| black_box(mutually_nearest(&bins_a, &bins_b)))
    });
    c.bench_function("mfn_pairing_8x8", |b| {
        b.iter(|| black_box(mutually_furthest(&bins_a, &bins_b)))
    });
}

fn scoring_fixture() -> (HistorySet<'static>, HistorySet<'static>, SlimConfig) {
    let mk = |base: u64, offs: f64| -> LocationDataset {
        let mut records = Vec::new();
        for e in 0..16u64 {
            for k in 0..200i64 {
                let ll = LatLng::from_degrees(
                    37.3 + 0.02 * e as f64 + 0.001 * ((k % 7) as f64) + offs,
                    -122.3 + 0.015 * e as f64,
                );
                records.push(Record::new(
                    slim::core::EntityId(base + e),
                    ll,
                    Timestamp(k * 450),
                ));
            }
        }
        LocationDataset::from_records(records)
    };
    let left = mk(0, 0.0);
    let right = mk(1000, 0.0002);
    let scheme = WindowScheme::new(Timestamp(0), 900);
    let domain = scheme.num_windows(Timestamp(200 * 450));
    let cfg = SlimConfig::default();
    (
        HistorySet::build(&left, scheme, cfg.spatial_level, domain),
        HistorySet::build(&right, scheme, cfg.spatial_level, domain),
        cfg,
    )
}

fn bench_similarity(c: &mut Criterion) {
    let (l, r, cfg) = scoring_fixture();
    let scorer = slim::core::similarity::SimilarityScorer::new(&cfg, &l, &r);
    c.bench_function("similarity_score_one_pair_200records", |b| {
        let mut stats = LinkageStats::default();
        b.iter(|| {
            black_box(scorer.score(
                slim::core::EntityId(3),
                slim::core::EntityId(1003),
                &mut stats,
            ))
        })
    });
}

fn bench_gmm(c: &mut Criterion) {
    let data: Vec<f64> = (0..500)
        .map(|i| {
            if i % 2 == 0 {
                100.0 + (i as f64 * 0.37).sin() * 20.0
            } else {
                1000.0 + (i as f64 * 0.53).cos() * 100.0
            }
        })
        .collect();
    c.bench_function("gmm2_fit_500_points", |b| {
        b.iter(|| black_box(Gmm2::fit(&data)))
    });
}

fn bench_lsh_kernels(c: &mut Criterion) {
    let records: Vec<Record> = sf_points(2000)
        .into_iter()
        .enumerate()
        .map(|(k, ll)| Record::new(slim::core::EntityId(1), ll, Timestamp(k as i64 * 120)))
        .collect();
    let scheme = WindowScheme::new(Timestamp(0), 900);
    c.bench_function("lsh_signature_2000_records", |b| {
        b.iter(|| {
            black_box(signature_from_records(
                slim::core::EntityId(1),
                &records,
                &scheme,
                300,
                24,
                16,
            ))
        })
    });
    c.bench_function("lsh_bands_for_threshold", |b| {
        b.iter(|| black_box(bands_for_threshold(black_box(48), black_box(0.6))))
    });
}

/// The window kernel by window shape: a one-scan row (1×1, 1×2) and the
/// greedy matrix (2×2, 4×4), each window resolved on the fly as the
/// batch scorer does. Half the cells lie beyond the runaway distance
/// of the other side's, so the alibi pass runs.
fn bench_window_shapes(c: &mut Criterion) {
    let (l, r, cfg) = scoring_fixture();
    let scorer = slim::core::similarity::SimilarityScorer::new(&cfg, &l, &r);
    let cells = |lat: f64, n: usize| -> Vec<CellId> {
        let mut cells: Vec<CellId> = (0..n)
            .map(|k| CellId::from_latlng(LatLng::from_degrees(lat + 0.3 * k as f64, -122.3), 12))
            .collect();
        cells.sort_unstable();
        cells
    };
    for (n, m) in [(1, 1), (1, 2), (2, 2), (4, 4)] {
        let (a, b) = (cells(37.3, n), cells(37.31, m));
        let (na, nb) = (vec![1u32; n], vec![1u32; m]);
        c.bench_function(&format!("window_contribution_{n}x{m}"), |bench| {
            let mut stats = LinkageStats::default();
            bench
                .iter(|| black_box(scorer.window_contribution(4, (&a, &na), (&b, &nb), &mut stats)))
        });
    }
}

criterion_group! {
    name = kernels;
    config = Criterion::default();
    targets =
        bench_cell_lookup,
        bench_cell_distance,
        bench_proximity,
        bench_pairing,
        bench_similarity,
        bench_window_shapes,
        bench_gmm,
        bench_lsh_kernels,
}
criterion_main!(kernels);
