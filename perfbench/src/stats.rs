//! The benchmark's own arithmetic: medians, tail percentiles with a
//! sample-count rule, failure accounting and the process's peak resident
//! set.

/// Median of `values` (mean of the middle pair for an even count);
/// `0.0` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Samples that must lie beyond a percentile before it is reported: a
/// tail read off fewer points is one outlier, not a distribution.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest rank (1-based) of the `pct`-percentile among `n` samples,
/// in exact integer arithmetic on tenths of a percent.
fn rank(n: usize, pct: f64) -> usize {
    let per_mille = (pct * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000)
}

/// Nearest-rank `pct`-percentile of `sorted` (ascending, non-empty).
fn nearest_rank(sorted: &[f64], pct: f64) -> f64 {
    sorted[rank(sorted.len(), pct).clamp(1, sorted.len()) - 1]
}

/// A tail read: the percentile actually reported and its value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile the value belongs to (≤ the one asked for).
    pub percentile: f64,
    /// The value at that percentile.
    pub value: f64,
    /// Number of samples the value was read from.
    pub samples: usize,
}

/// The highest percentile ≤ `wanted` that `n` samples can report with
/// at least [`MIN_TAIL_SAMPLES`] beyond it, stepping down through
/// 99.9/99/95/90/75 and ending at the median (reported whatever the
/// count). The same rule reads tails off a histogram whose raw samples
/// are gone.
pub fn reportable_percentile(n: usize, wanted: f64) -> f64 {
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .filter(|&p| p <= wanted)
        .find(|&p| n - rank(n, p).min(n) >= MIN_TAIL_SAMPLES)
        .unwrap_or(50.0_f64.min(wanted))
}

/// The [`reportable_percentile`] of `values` for `wanted`, with its
/// value. `None` without samples.
pub fn tail(values: &[f64], wanted: f64) -> Option<Tail> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let percentile = reportable_percentile(sorted.len(), wanted);
    Some(Tail {
        percentile,
        value: nearest_rank(&sorted, percentile),
        samples: sorted.len(),
    })
}

/// Outcome of one timed engine run, as the failure accounting sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Queries the run issued.
    pub issued: u64,
    /// Queries no shard could take.
    pub unallocated: u64,
    /// Waves that completed with a reply degraded to indifference.
    pub degraded_waves: u64,
    /// Whether the run's output check (digest, accounting) passed.
    pub check_passed: bool,
}

/// Attempted and failed query counts over a set of runs: every issued
/// query is attempted; unallocated queries and degraded waves fail, and
/// a run whose output check failed fails all its queries.
pub fn failure_counts(runs: &[RunOutcome]) -> (u64, u64) {
    let attempted = runs.iter().map(|r| r.issued).sum();
    let failed = runs
        .iter()
        .map(|r| {
            if r.check_passed {
                (r.unallocated + r.degraded_waves).min(r.issued)
            } else {
                r.issued
            }
        })
        .sum();
    (attempted, failed)
}

/// `failed ÷ attempted` (`0.0` when nothing was attempted).
pub fn failed_ratio(runs: &[RunOutcome]) -> f64 {
    let (attempted, failed) = failure_counts(runs);
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB. `None` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: 10 lie beyond the 99th percentile, so p99 stands.
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&values, 99.0).unwrap();
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.samples, 1000);
        // 999 samples leave only 9 beyond p99: step down to p95.
        let t = tail(&values[..999], 99.0).unwrap();
        assert_eq!(t.percentile, 95.0);
        assert_eq!(t.value, 950.0);
        assert_eq!(t.samples, 999);
    }

    #[test]
    fn small_sets_fall_back_to_the_median_and_p50_is_plain() {
        let values = [5.0, 1.0, 3.0];
        let t = tail(&values, 99.0).unwrap();
        assert_eq!((t.percentile, t.value, t.samples), (50.0, 3.0, 3));
        // Asking for the median never steps up.
        let many: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&many, 50.0).unwrap();
        assert_eq!((t.percentile, t.value), (50.0, 50.0));
        assert!(tail(&[], 99.0).is_none());
    }

    #[test]
    fn reportable_percentile_steps_down_with_the_sample_count() {
        assert_eq!(reportable_percentile(10_000, 99.9), 99.9);
        assert_eq!(reportable_percentile(9_999, 99.9), 99.0);
        assert_eq!(reportable_percentile(1_000, 99.0), 99.0);
        assert_eq!(reportable_percentile(200, 99.0), 95.0);
        assert_eq!(reportable_percentile(100, 99.0), 90.0);
        assert_eq!(reportable_percentile(40, 99.0), 75.0);
        assert_eq!(reportable_percentile(39, 99.0), 50.0);
        assert_eq!(reportable_percentile(0, 99.0), 50.0);
    }

    #[test]
    fn failed_ratio_counts_unallocated_degraded_and_failed_checks() {
        let ok = RunOutcome {
            issued: 100,
            unallocated: 2,
            degraded_waves: 3,
            check_passed: true,
        };
        let bad = RunOutcome {
            issued: 50,
            unallocated: 1,
            degraded_waves: 0,
            check_passed: false,
        };
        assert_eq!(failure_counts(&[ok]), (100, 5));
        // A failed check fails every query of its run, not just its
        // unallocated ones.
        assert_eq!(failure_counts(&[ok, bad]), (150, 55));
        assert!((failed_ratio(&[ok, bad]) - 55.0 / 150.0).abs() < 1e-12);
        assert_eq!(failed_ratio(&[]), 0.0);
        // Failures never exceed the run's own queries.
        let worst = RunOutcome {
            issued: 4,
            unallocated: 4,
            degraded_waves: 4,
            check_passed: true,
        };
        assert_eq!(failure_counts(&[worst]), (4, 4));
    }
}
