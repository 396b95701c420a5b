//! The benchmark's own arithmetic: percentile selection, summaries over
//! repetitions, the link digest, and the due-time map behind the
//! freshness metric. Everything here is pure and unit-tested, because a
//! wrong percentile would silently move every latency number.

use slim::core::Edge;

/// The percentile ladder the benchmark reports from, ascending, each
/// with its per-mille value so the "samples beyond" count is integer
/// arithmetic (200 samples × 5 % must be exactly ten).
const LADDER: [(f64, u64); 5] = [
    (0.50, 500),
    (0.90, 900),
    (0.95, 950),
    (0.99, 990),
    (0.999, 999),
];

/// Nearest-rank percentile of an ascending slice (`0` when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    // The guard keeps a product such as 200 × 0.95 = 190.00000000000003
    // from being pushed up a rank by its representation error.
    let rank = ((sorted.len() as f64) * p - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest ladder percentile that still has at least ten samples
/// beyond it among `n` samples — the highest percentile `n` samples can
/// support. `None` below twenty samples (not even the median has ten
/// samples on each side).
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .find(|&&(_, per_mille)| (n as u64) * (1000 - per_mille) >= 10_000)
        .map(|&(p, _)| p)
}

/// `p` when the sample supports it, otherwise the highest supported
/// ladder percentile below it (the median when nothing is supported).
pub fn supported_percentile(sorted: &[f64], p: f64) -> f64 {
    let p = match highest_supported(sorted.len()) {
        Some(best) => p.min(best),
        None => 0.50,
    };
    percentile(sorted, p)
}

/// Median, extremes and count of one metric over repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// Summarizes `values` (any order). The median of an even count is
    /// the mean of the two middle values.
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("metrics are never NaN"));
        let n = v.len();
        let median = match n {
            0 => 0.0,
            _ if n % 2 == 1 => v[n / 2],
            _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        };
        Summary {
            median,
            min: v.first().copied().unwrap_or(0.0),
            max: v.last().copied().unwrap_or(0.0),
            n,
        }
    }
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

/// FNV-1a over `(left, right, weight bits)` of the links in served
/// order, truncated to 48 bits so it survives a trip through an `f64`
/// metric value exactly. Two link sets agree iff their digests do
/// (up to hash collisions); any reordering, re-weighting, added or
/// removed link changes it.
pub fn link_digest(links: &[Edge]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for e in links {
        eat(e.left.0);
        eat(e.right.0);
        eat(e.weight.to_bits());
    }
    h & 0xffff_ffff_ffff
}

/// `out[n]` = the latest send slot among the first `n` events in
/// canonical order, given each canonical event's send slot. An epoch
/// that covers the first `n` events cannot exist before all of them
/// were sent, so its freshness is timed from slot `out[n]` — a shuffle
/// that sends canonical event 3 after event 7 delays the prefix of 4.
/// `out[0]` is `0`.
pub fn prefix_max_slot(send_slot: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(send_slot.len() + 1);
    let mut max = 0u32;
    out.push(0);
    for &slot in send_slot {
        max = max.max(slot);
        out.push(max);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use slim::core::EntityId;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.999), 100.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn supported_percentile_needs_ten_samples_beyond() {
        // 200 samples: p95 leaves exactly ten beyond, p99 leaves two.
        assert_eq!(highest_supported(200), Some(0.95));
        assert_eq!(highest_supported(199), Some(0.90));
        assert_eq!(highest_supported(1_000), Some(0.99));
        assert_eq!(highest_supported(10_000), Some(0.999));
        assert_eq!(highest_supported(20), Some(0.50));
        assert_eq!(highest_supported(19), None);
        let v = ramp(100);
        // 100 samples support p90 at most: a p99 request degrades.
        assert_eq!(supported_percentile(&v, 0.99), 90.0);
        assert_eq!(supported_percentile(&v, 0.50), 50.0);
        // Too few samples for anything: the median is all there is.
        assert_eq!(supported_percentile(&ramp(5), 0.95), 3.0);
    }

    #[test]
    fn summary_takes_median_and_extremes() {
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (2.0, 1.0, 3.0, 3));
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (2.5, 1.0, 4.0, 4));
        assert_eq!(Summary::of(&[]).n, 0);
        assert_eq!(median(&[9.0]), 9.0);
    }

    fn edge(l: u64, r: u64, w: f64) -> Edge {
        Edge {
            left: EntityId(l),
            right: EntityId(r),
            weight: w,
        }
    }

    #[test]
    fn digest_sees_order_weight_and_membership() {
        let a = [edge(1, 2, 0.5), edge(3, 4, 0.25)];
        let base = link_digest(&a);
        assert_eq!(base, link_digest(&a), "digest is a pure function");
        assert!(base < 1 << 48, "fits an f64 exactly");
        assert_ne!(base, link_digest(&[a[1], a[0]]), "order");
        assert_ne!(base, link_digest(&[edge(1, 2, 0.5), edge(3, 4, 0.26)]));
        assert_ne!(base, link_digest(&a[..1]), "membership");
        assert_ne!(link_digest(&[]), 0);
    }

    #[test]
    fn prefix_max_follows_the_latest_straggler() {
        // Canonical events 0..6 sent in slots 0,0,2,1,1,3: the prefix of
        // three events is complete only once slot 2 went out.
        let out = prefix_max_slot(&[0, 0, 2, 1, 1, 3]);
        assert_eq!(out, vec![0, 0, 0, 2, 2, 2, 3]);
        assert_eq!(prefix_max_slot(&[]), vec![0]);
    }
}
