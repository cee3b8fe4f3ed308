//! Order statistics on exact samples: nearest-rank percentiles, the
//! "enough samples beyond it" rule, and the `trav` rank-placement check.

/// A percentile in basis points (`9900` = p99), so ranks are computed in
/// integers: `0.99 * 100.0` is `99.00000000000001` in floating point and
/// would round a rank up.
pub type BasisPoints = u64;

pub const P50: BasisPoints = 5_000;
pub const P95: BasisPoints = 9_500;
pub const P99: BasisPoints = 9_900;

/// Percentiles tried, highest first, for the printed (ungated) tail.
const LADDER: [BasisPoints; 4] = [9_999, 9_990, 9_900, 9_500];

/// A percentile is reported only with this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank: the 1-based rank of the smallest sample with at least
/// `p` of all `n` samples at or below it.
pub fn rank(n: usize, p: BasisPoints) -> usize {
    assert!(n > 0 && p <= 10_000);
    let r = (p as u128 * n as u128).div_ceil(10_000) as usize;
    r.clamp(1, n)
}

/// Samples strictly above the percentile's rank.
pub fn beyond(n: usize, p: BasisPoints) -> usize {
    n - rank(n, p)
}

/// The nearest-rank percentile of ascending `sorted`.
pub fn percentile<T: Copy>(sorted: &[T], p: BasisPoints) -> T {
    sorted[rank(sorted.len(), p) - 1]
}

/// The highest percentile of the ladder that `n` samples support, i.e.
/// that leaves at least [`MIN_BEYOND`] samples beyond it.
pub fn highest_supported(n: usize) -> Option<BasisPoints> {
    LADDER
        .into_iter()
        .find(|&p| n > 0 && beyond(n, p) >= MIN_BEYOND)
}

/// `9990` → `"p99.9"`.
pub fn label(p: BasisPoints) -> String {
    let s = format!("{}.{:02}", p / 100, p % 100);
    format!("p{}", s.trim_end_matches('0').trim_end_matches('.'))
}

/// Median of unordered values (mean of the two middle ones when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty());
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Quartiles by the exclusive method, as Python's
/// `statistics.quantiles(values, n=4)` computes them.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2);
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let q = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (q(1), q(2), q(3))
}

/// Where the p50 and p95 ranks of a `trav` run land, as `(below, above)`
/// margins inside the class of ops they are meant to fall in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Margins of the p50 rank inside the point class.
    pub p50: (usize, usize),
    /// Margins of the p95 rank inside the set class.
    pub p95: (usize, usize),
}

/// `trav` runs `groups` groups of `points_per_group` point traversals and
/// one set traversal. Provided every point traversal is faster than every
/// set traversal, the sorted latencies are `[point class][set class]`;
/// this places the p50 and p95 ranks in that order and fails unless p50
/// lies in the point class and p95 in the set class, each with
/// `min_margin` ops on either side.
pub fn trav_placement(
    groups: usize,
    points_per_group: usize,
    min_margin: usize,
) -> Result<Placement, String> {
    let points = groups * points_per_group;
    let n = points + groups;
    if n == 0 {
        return Err("no ops".into());
    }
    let (r50, r95) = (rank(n, P50), rank(n, P95));
    if r50 > points {
        return Err(format!(
            "p50 rank {r50} is outside the point class (ranks 1..={points})"
        ));
    }
    if r95 <= points {
        return Err(format!(
            "p95 rank {r95} is outside the set class (ranks {}..={n})",
            points + 1
        ));
    }
    let placement = Placement {
        p50: (r50 - 1, points - r50),
        p95: (r95 - points - 1, n - r95),
    };
    let least = [
        placement.p50.0,
        placement.p50.1,
        placement.p95.0,
        placement.p95.1,
    ]
    .into_iter()
    .min()
    .expect("four margins");
    if least < min_margin {
        return Err(format!(
            "rank margins {placement:?} fall below {min_margin} ops"
        ));
    }
    Ok(placement)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_one_to_hundred() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, P50), 50);
        assert_eq!(percentile(&v, P99), 99);
        assert_eq!(percentile(&v, 10_000), 100);
        assert_eq!(percentile(&v, 0), 1);
        // 0.99 * 1680 = 1663.2 → rank 1664, not 1663.
        assert_eq!(rank(1680, P99), 1664);
        // An exact product must not round up: 0.99 * 100 is rank 99.
        assert_eq!(rank(100, P99), 99);
        assert_eq!(percentile(&[7u32], P99), 7);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert_eq!(beyond(1_000, P99), 10);
        assert_eq!(highest_supported(1_000), Some(9_900));
        // 999 samples leave 9 beyond p99 → fall back to p95.
        assert_eq!(beyond(999, P99), 9);
        assert_eq!(highest_supported(999), Some(9_500));
        assert_eq!(highest_supported(10_000), Some(9_990));
        assert_eq!(highest_supported(100_000), Some(9_999));
        assert_eq!(highest_supported(199), None);
        assert_eq!(highest_supported(0), None);
        assert_eq!(label(9_990), "p99.9");
        assert_eq!(label(9_900), "p99");
        assert_eq!(label(9_999), "p99.99");
        assert_eq!(label(5_000), "p50");
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn trav_rank_placement() {
        // The issue's full count: 1 260 groups of 3 + 1.
        let full = trav_placement(1_260, 3, 10).expect("full count places");
        assert_eq!(full.p50, (2_519, 1_260));
        assert_eq!(full.p95, (1_007, 252));
        // Half of it, which the time cap asks for.
        let half = trav_placement(630, 3, 10).expect("half count places");
        assert_eq!(half.p95, (503, 126));
        // One point traversal per group puts p50 on the class boundary.
        assert!(trav_placement(1_260, 1, 10).is_err());
        // Nineteen point traversals per group leave exactly 5 % set ops,
        // so the p95 rank is the last point op.
        assert!(trav_placement(1_000, 19, 0)
            .unwrap_err()
            .contains("outside the set class"));
        // Too few ops for the margin.
        assert!(trav_placement(20, 3, 10).is_err());
        assert!(trav_placement(20, 3, 0).is_ok());
        assert!(trav_placement(0, 3, 0).is_err());
    }
}
