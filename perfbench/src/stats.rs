//! Order statistics for the benchmark's timings.
//!
//! Quantiles use the nearest-rank definition: the `p`-quantile of `n`
//! sorted samples is the sample at rank `ceil(p · n)` (1-based), so every
//! reported value is a latency that was actually observed.

/// Percentiles the tail report may choose from, highest first.
const TAIL_CANDIDATES: [f64; 6] = [0.9999, 0.999, 0.99, 0.95, 0.90, 0.75];

/// How close (as a share of all ops) a reported quantile may come to an
/// op-class boundary before the mix guard warns.
pub const BOUNDARY_MARGIN: f64 = 0.03;

/// The nearest-rank `p`-quantile of `samples` (any order). `None` when
/// there are no samples.
#[must_use]
pub fn quantile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p)])
}

/// The median, or 0 for an empty sample.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(0.0)
}

/// 0-based index of the nearest-rank `p`-quantile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps `0.99 · 1000` from rounding up to rank 991.
    let r = (p * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Number of samples ranked strictly above the `p`-quantile.
#[must_use]
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p) - 1
}

/// The highest candidate percentile that still has at least ten samples
/// beyond it — the tail a sample of this size supports. `None` below the
/// 75th percentile's requirement (fewer than 40 samples).
#[must_use]
pub fn highest_supported(n: usize) -> Option<f64> {
    TAIL_CANDIDATES.into_iter().find(|&p| beyond(n, p) >= 10)
}

/// One op class of a workload mix: its share of all ops and its median.
#[derive(Debug, Clone)]
pub struct ClassShare {
    /// Class name as printed in warnings.
    pub name: &'static str,
    /// Ops of this class.
    pub count: usize,
    /// Median latency of this class.
    pub median: f64,
}

/// The mode-boundary guard. Sorting classes by median latency stacks
/// their shares into a CDF; each running total is a place where the mixed
/// distribution switches class, so a quantile reported there jumps between
/// two classes on a few ops' difference. Returns one warning per reported
/// quantile lying within [`BOUNDARY_MARGIN`] of such a boundary.
#[must_use]
pub fn boundary_warnings(classes: &[ClassShare], quantiles: &[f64]) -> Vec<String> {
    let total: usize = classes.iter().map(|c| c.count).sum();
    if total == 0 || classes.len() < 2 {
        return Vec::new();
    }
    let mut ordered: Vec<&ClassShare> = classes.iter().filter(|c| c.count > 0).collect();
    ordered.sort_by(|a, b| a.median.total_cmp(&b.median));
    let mut warnings = Vec::new();
    let mut cumulative = 0usize;
    for pair in ordered.windows(2) {
        cumulative += pair[0].count;
        let boundary = cumulative as f64 / total as f64;
        for &q in quantiles {
            if (q - boundary).abs() < BOUNDARY_MARGIN {
                warnings.push(format!(
                    "p{} lies within {:.0}% of the {}|{} boundary at {:.3}",
                    q * 100.0,
                    BOUNDARY_MARGIN * 100.0,
                    pair[0].name,
                    pair[1].name,
                    boundary
                ));
            }
        }
    }
    warnings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_observed_samples() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&samples, 0.5), Some(50.0));
        assert_eq!(quantile(&samples, 0.99), Some(99.0));
        assert_eq!(quantile(&samples, 1.0), Some(100.0));
        assert_eq!(quantile(&samples, 0.0), Some(1.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn beyond_counts_samples_above_the_rank() {
        assert_eq!(beyond(100, 0.99), 1);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(1, 0.5), 0);
        assert_eq!(beyond(0, 0.5), 0);
    }

    #[test]
    fn highest_supported_needs_ten_beyond() {
        assert_eq!(highest_supported(100_000), Some(0.9999));
        assert_eq!(highest_supported(10_000), Some(0.999));
        assert_eq!(highest_supported(9_999), Some(0.99));
        assert_eq!(highest_supported(1_000), Some(0.99));
        assert_eq!(highest_supported(999), Some(0.95));
        assert_eq!(highest_supported(40), Some(0.75));
        assert_eq!(highest_supported(39), None);
    }

    #[test]
    fn guard_flags_quantiles_on_a_class_boundary() {
        let classes = [
            ClassShare {
                name: "fast",
                count: 80,
                median: 1.0,
            },
            ClassShare {
                name: "slow",
                count: 20,
                median: 10.0,
            },
        ];
        assert!(boundary_warnings(&classes, &[0.5, 0.99]).is_empty());
        let warnings = boundary_warnings(&classes, &[0.79]);
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("fast|slow"), "{warnings:?}");
        // Order of the input does not matter; medians decide the stack.
        let reversed = [classes[1].clone(), classes[0].clone()];
        assert_eq!(boundary_warnings(&reversed, &[0.81]).len(), 1);
    }

    #[test]
    fn guard_ignores_single_class_mixes() {
        let one = [ClassShare {
            name: "only",
            count: 10,
            median: 1.0,
        }];
        assert!(boundary_warnings(&one, &[0.5]).is_empty());
    }
}
