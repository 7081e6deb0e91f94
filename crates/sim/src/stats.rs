//! Statistics helpers over simulation reports: throughput, performance
//! timelines (GFLOP/s over time, Fig. 6) and summary aggregates.

use crate::engine::SimReport;
use serde::{Deserialize, Serialize};

/// One bin of the performance-over-time series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimelineBin {
    /// Start of the bin in seconds.
    pub start: f64,
    /// End of the bin in seconds.
    pub end: f64,
    /// Average delivered performance in GFLOP/s during the bin.
    pub gflops_per_second: f64,
}

/// Computes the delivered GFLOP/s in fixed-width bins over the whole
/// simulation (the series plotted in the paper's Fig. 6).
///
/// Compute work is attributed uniformly over each task's execution interval.
/// Returns an empty vector when `bin_seconds` is not positive or the report
/// is empty.
pub fn performance_timeline(report: &SimReport, bin_seconds: f64) -> Vec<TimelineBin> {
    if bin_seconds <= 0.0 || bin_seconds.is_nan() || report.makespan <= 0.0 {
        return Vec::new();
    }
    let bins = (report.makespan / bin_seconds).ceil() as usize;
    let mut flops_per_bin = vec![0.0f64; bins.max(1)];
    for record in &report.records {
        if record.flops == 0 || record.duration() <= 0.0 {
            continue;
        }
        let rate = record.flops as f64 / record.duration();
        let first_bin = (record.start / bin_seconds).floor() as usize;
        let last_bin = ((record.finish / bin_seconds).ceil() as usize).min(bins);
        for (bin, slot) in flops_per_bin
            .iter_mut()
            .enumerate()
            .take(last_bin)
            .skip(first_bin)
        {
            let bin_start = bin as f64 * bin_seconds;
            let bin_end = bin_start + bin_seconds;
            let overlap = (record.finish.min(bin_end) - record.start.max(bin_start)).max(0.0);
            *slot += rate * overlap;
        }
    }
    flops_per_bin
        .into_iter()
        .enumerate()
        .map(|(i, flops)| TimelineBin {
            start: i as f64 * bin_seconds,
            end: (i + 1) as f64 * bin_seconds,
            gflops_per_second: flops / bin_seconds / 1e9,
        })
        .collect()
}

/// Number of completed inferences per `window_seconds`, assuming the
/// simulated request pattern repeats back-to-back (the paper reports
/// inferences per 100 s). Returns zero for an empty report.
pub fn throughput_per_window(report: &SimReport, window_seconds: f64) -> f64 {
    if report.makespan <= 0.0 || window_seconds <= 0.0 || window_seconds.is_nan() {
        return 0.0;
    }
    report.request_completion.len() as f64 * window_seconds / report.makespan
}

/// The `p`-th percentile (0–100) of a slice using linear interpolation
/// between order statistics, `None` when the slice is empty or `p` is
/// outside 0..=100. Used for the latency tail metrics (p50/p95/p99) of the
/// Poisson stress experiment.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let mut sorted = values.to_vec();
    sort_samples(&mut sorted);
    percentile_sorted(&sorted, p)
}

/// Sorts samples ascending, the order [`percentile_sorted`] expects
/// (stable, so equal values such as `-0.0` and `0.0` keep their order).
///
/// # Panics
///
/// Panics when a value is NaN.
pub(crate) fn sort_samples(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("values are comparable"));
}

/// [`percentile`] of a slice already sorted ascending: the one
/// interpolation rule, so a caller reading several percentiles of one set
/// sorts it once.
pub(crate) fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lower = rank.floor() as usize;
    let upper = rank.ceil() as usize;
    let weight = rank - lower as f64;
    Some(sorted[lower] * (1.0 - weight) + sorted[upper] * weight)
}

/// An exponentially weighted moving average over a stream of samples —
/// the online effective-rate estimator the adaptive serving loop keeps per
/// node. Plain `Copy` state (a level, the smoothing factor and a count), so
/// per-resource vectors of these reset and update without touching the
/// heap, and two identical observation sequences produce bit-identical
/// levels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ewma {
    level: f64,
    alpha: f64,
    count: u64,
}

impl Ewma {
    /// Creates an estimator at `initial` with smoothing factor `alpha`
    /// (0 < α ≤ 1; larger α weights recent samples more).
    pub fn new(alpha: f64, initial: f64) -> Self {
        Self {
            level: initial + 0.0,
            alpha,
            count: 0,
        }
    }

    /// Folds one sample in: `level ← (1 − α)·level + α·sample`.
    pub fn observe(&mut self, sample: f64) {
        self.level = (1.0 - self.alpha) * self.level + self.alpha * sample;
        self.count += 1;
    }

    /// The current smoothed level.
    pub fn value(&self) -> f64 {
        self.level
    }

    /// Samples folded in since construction or the last reset.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Rewinds to `initial` with the sample count cleared, keeping α.
    pub fn reset(&mut self, initial: f64) {
        self.level = initial + 0.0;
        self.count = 0;
    }
}

/// Mean of a slice, `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// Geometric-mean speedup of `baseline` over `candidate` latencies
/// (values > 1 mean the candidate is faster). `None` when the slices are
/// empty or of different lengths.
pub fn geomean_speedup(baseline: &[f64], candidate: &[f64]) -> Option<f64> {
    if baseline.is_empty() || baseline.len() != candidate.len() {
        return None;
    }
    let log_sum: f64 = baseline
        .iter()
        .zip(candidate.iter())
        .map(|(b, c)| (b / c).ln())
        .sum();
    Some((log_sum / baseline.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ExecutionPlan;
    use crate::simulate;
    use hidp_platform::{presets, NodeIndex, ProcessorAddr, ProcessorIndex};

    fn addr(node: usize, proc: usize) -> ProcessorAddr {
        ProcessorAddr {
            node: NodeIndex(node),
            processor: ProcessorIndex(proc),
        }
    }

    fn sample_report() -> SimReport {
        let cluster = presets::paper_cluster();
        let mut plan = ExecutionPlan::new();
        plan.add_compute("a", addr(0, 1), 1_880_000_000, 1.0, &[]);
        simulate(&plan, &cluster).unwrap()
    }

    #[test]
    fn ewma_converges_geometrically_and_resets() {
        let mut e = Ewma::new(0.25, 1.0);
        for _ in 0..64 {
            e.observe(3.0);
        }
        assert!((e.value() - 3.0).abs() < 1e-6, "level {}", e.value());
        assert_eq!(e.count(), 64);
        // Identical streams produce bit-identical estimators.
        let mut f = Ewma::new(0.25, 1.0);
        for _ in 0..64 {
            f.observe(3.0);
        }
        assert_eq!(e, f);
        // Convergence is geometric: the gap shrinks by (1 − α) per sample.
        let mut g = Ewma::new(0.5, 1.0);
        g.observe(2.0);
        assert_eq!(g.value(), 1.5);
        g.observe(2.0);
        assert_eq!(g.value(), 1.75);
        e.reset(1.0);
        assert_eq!(e.value(), 1.0);
        assert_eq!(e.count(), 0);
    }

    #[test]
    fn timeline_integrates_to_total_flops() {
        let report = sample_report();
        let bins = performance_timeline(&report, 0.1);
        let integrated: f64 = bins
            .iter()
            .map(|b| b.gflops_per_second * 1e9 * (b.end - b.start))
            .sum();
        let total: u64 = report.records.iter().map(|r| r.flops).sum();
        assert!((integrated - total as f64).abs() / (total as f64) < 1e-6);
    }

    #[test]
    fn timeline_handles_invalid_bins() {
        let report = sample_report();
        assert!(performance_timeline(&report, 0.0).is_empty());
        assert!(performance_timeline(&report, -1.0).is_empty());
    }

    #[test]
    fn throughput_scales_with_window() {
        let report = sample_report();
        let per_100 = throughput_per_window(&report, 100.0);
        let per_10 = throughput_per_window(&report, 10.0);
        assert!((per_100 / per_10 - 10.0).abs() < 1e-9);
        assert_eq!(throughput_per_window(&report, 0.0), 0.0);
    }

    #[test]
    fn percentile_interpolates_order_statistics() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&values, 0.0), Some(1.0));
        assert_eq!(percentile(&values, 100.0), Some(4.0));
        assert_eq!(percentile(&values, 50.0), Some(2.5));
        assert_eq!(percentile(&[7.0], 95.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&values, 101.0), None);
        assert_eq!(percentile(&values, -1.0), None);
    }

    #[test]
    fn mean_and_geomean() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[2.0, 4.0]), Some(3.0));
        let s = geomean_speedup(&[2.0, 8.0], &[1.0, 2.0]).unwrap();
        assert!((s - (2.0f64 * 4.0).sqrt()).abs() < 1e-12);
        assert_eq!(geomean_speedup(&[1.0], &[]), None);
    }
}
