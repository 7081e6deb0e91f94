//! Serving-quality accounting: SLA classes, per-request queueing metrics and
//! latency-tail summaries.
//!
//! The serving runtime (hidp-core's `ServingScenario`) admits requests onto
//! the cluster at times later than their arrival — batching, priority
//! scheduling and capacity limits all introduce queueing. This module holds
//! the vocabulary for reporting that regime: the [`SlaClass`] a request is
//! served under (priority + latency deadline), one [`ServedRequestRecord`]
//! per request (arrival → admitted → completed), and the aggregate
//! [`ServingMetrics`] (p50/p95/p99 latency overall and per class, queueing
//! delay, deadline hits/misses) every serving experiment reports.
//!
//! All aggregates are plain deterministic functions of the records, so any
//! consumer — `TraceDetail::Summary` sweeps included — gets bit-identical
//! numbers from the same served stream.
//!
//! # The deadline rule
//!
//! An SLA miss is always measured **arrival → final completion**. A
//! request's latency runs from its original arrival to the completion of
//! whichever attempt finally served it, so everything the client actually
//! waited through is inside the measured window: queueing delay, every
//! retry backoff after an in-flight node failure (a retried request keeps
//! its original arrival — its deadline does not reset), and, at the fleet
//! tier, the WAN round trip of the final serving route.
//!
//! Every cluster ranks and sheds by one absolute deadline, the instant the
//! reply must *leave* the cluster: `arrival + deadline − wan_round_trip`.
//! The WAN toll is paid outside the cluster, so the cluster-local slack is
//! smaller by exactly that much; on the serving tier the round trip is 0.
//! Earliest-deadline admission orders by it, and load shedding drops a
//! queued request whose earliest possible completion already overruns it.
//! A killed request is aborted instead of retried when its backoff release
//! lands after `arrival + deadline`. Requests that never complete (shed at
//! admission, aborted as unmeetable, or permanently lost after exhausting
//! retries) are accounted as drops in the robustness counters, never as
//! latency samples.

use crate::stats::{percentile, P2Quantile};
use serde::{Deserialize, Serialize};

/// The service-level class of a request: a scheduling priority and a
/// completion deadline (seconds from arrival).
///
/// Classes order from most to least urgent; [`SlaClass::priority`] is the
/// numeric rank (lower = more urgent) admission policies sort by.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
)]
pub enum SlaClass {
    /// Interactive traffic: tightest deadline, served first under priority
    /// admission.
    Premium,
    /// The default class for ordinary requests.
    #[default]
    Standard,
    /// Throughput traffic (batch jobs, prefetches): loosest deadline.
    BestEffort,
}

impl SlaClass {
    /// All classes, most urgent first.
    pub const ALL: [SlaClass; 3] = [SlaClass::Premium, SlaClass::Standard, SlaClass::BestEffort];

    /// Canonical lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            SlaClass::Premium => "premium",
            SlaClass::Standard => "standard",
            SlaClass::BestEffort => "best_effort",
        }
    }

    /// Scheduling priority: lower is more urgent.
    pub fn priority(&self) -> u8 {
        match self {
            SlaClass::Premium => 0,
            SlaClass::Standard => 1,
            SlaClass::BestEffort => 2,
        }
    }

    /// The class deadline: a request meets its SLA when
    /// `completion - arrival <= deadline_seconds()`.
    pub fn deadline_seconds(&self) -> f64 {
        match self {
            SlaClass::Premium => 0.25,
            SlaClass::Standard => 1.0,
            SlaClass::BestEffort => 4.0,
        }
    }
}

impl std::fmt::Display for SlaClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The served life cycle of one request: when it arrived, when the admission
/// layer released it onto the cluster, when its (possibly batched) plan
/// finished, and the SLA class it was served under.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServedRequestRecord {
    /// Arrival time, seconds since scenario start.
    pub arrival: f64,
    /// Admission time (`>= arrival`); the subgraph starts here, not at
    /// arrival.
    pub admitted: f64,
    /// Completion time of the plan serving this request.
    pub completion: f64,
    /// The SLA class the request was served under.
    pub sla: SlaClass,
}

impl ServedRequestRecord {
    /// Time spent queueing before admission, seconds.
    pub fn queueing_delay(&self) -> f64 {
        self.admitted - self.arrival
    }

    /// End-to-end latency (completion − arrival, queueing included), seconds.
    pub fn latency(&self) -> f64 {
        self.completion - self.arrival
    }

    /// Whether the request met its class deadline.
    pub fn deadline_met(&self) -> bool {
        self.latency() <= self.sla.deadline_seconds()
    }
}

/// Latency-tail summary of a set of requests, seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Number of requests summarised.
    pub count: usize,
    /// Median latency.
    pub p50: f64,
    /// 95th-percentile latency.
    pub p95: f64,
    /// 99th-percentile latency.
    pub p99: f64,
    /// Mean latency.
    pub mean: f64,
}

impl LatencySummary {
    /// Summarises a latency slice; `None` when it is empty.
    pub fn of(latencies: &[f64]) -> Option<Self> {
        if latencies.is_empty() {
            return None;
        }
        Some(Self {
            count: latencies.len(),
            p50: percentile(latencies, 50.0).expect("non-empty"),
            p95: percentile(latencies, 95.0).expect("non-empty"),
            p99: percentile(latencies, 99.0).expect("non-empty"),
            mean: latencies.iter().sum::<f64>() / latencies.len() as f64,
        })
    }
}

/// Streaming latency-tail accumulator: mean, max and P²-estimated
/// p50/p95/p99 in constant memory. This is the bounded-memory counterpart of
/// [`LatencySummary::of`] — feed it one latency at a time and take a
/// [`LatencySummary`] at the end, without ever materialising the latency
/// vector. Below five observations the summary is exact; beyond that the
/// percentiles are [`P2Quantile`] estimates (accuracy pinned in
/// `stats::tests`), while `count`, `mean` and the separately tracked maximum
/// stay exact at any scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamingTail {
    sum: f64,
    max: f64,
    p50: P2Quantile,
    p95: P2Quantile,
    p99: P2Quantile,
}

impl StreamingTail {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self {
            sum: 0.0,
            max: 0.0,
            p50: P2Quantile::new(50.0),
            p95: P2Quantile::new(95.0),
            p99: P2Quantile::new(99.0),
        }
    }

    /// Feeds one observation (a latency or delay, seconds).
    pub fn observe(&mut self, value: f64) {
        self.sum += value;
        if value > self.max {
            self.max = value;
        }
        self.p50.observe(value);
        self.p95.observe(value);
        self.p99.observe(value);
    }

    /// Observations seen so far.
    pub fn count(&self) -> usize {
        self.p50.count()
    }

    /// Mean of all observations, 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count() == 0 {
            0.0
        } else {
            self.sum / self.count() as f64
        }
    }

    /// Largest observation, 0 when empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The tail summary, `None` before the first observation.
    pub fn summary(&self) -> Option<LatencySummary> {
        Some(LatencySummary {
            count: self.count(),
            p50: self.p50.value()?,
            p95: self.p95.value()?,
            p99: self.p99.value()?,
            mean: self.mean(),
        })
    }

    /// Forgets all observations.
    pub fn reset(&mut self) {
        *self = Self::new();
    }
}

impl Default for StreamingTail {
    fn default() -> Self {
        Self::new()
    }
}

/// A mergeable log-binned latency histogram: the fleet tier's per-cluster
/// metrics rollup.
///
/// [`StreamingTail`]'s P² sketches cannot be combined across clusters — two
/// sketches do not merge into the sketch of the union — so a fleet that
/// advances many per-cluster serving loops in parallel needs an accumulator
/// whose merge is *exact* and order-independent: bin counts add. Each
/// cluster worker feeds its own histogram; the rollup merges them in cluster
/// index order, which makes the fleet summary bit-identical at any worker
/// thread count.
///
/// 256 logarithmic bins span 100 µs to 10⁴ s (~7.5% relative width);
/// `count`, `mean`, `min` and `max` are exact, quantiles are bin-resolution
/// estimates (the geometric mean of the containing bin's bounds, clamped to
/// the observed range). Everything is `Copy` — no heap, ~2 KB.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyHistogram {
    bins: [u64; Self::BINS],
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl LatencyHistogram {
    const BINS: usize = 256;
    const LO: f64 = 1e-4;
    const HI: f64 = 1e4;

    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            bins: [0; Self::BINS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: 0.0,
        }
    }

    /// The bin a value lands in: 0 is the underflow bucket, `BINS - 1` the
    /// overflow bucket, everything between log-spaced over `LO..HI`.
    fn bin_of(value: f64) -> usize {
        // NaN deliberately lands in the underflow bucket too.
        if value.is_nan() || value <= Self::LO {
            return 0;
        }
        if value >= Self::HI {
            return Self::BINS - 1;
        }
        let t = (value / Self::LO).ln() / (Self::HI / Self::LO).ln();
        1 + (t * (Self::BINS - 2) as f64) as usize
    }

    /// The lower and upper bounds of a bin.
    fn bin_bounds(bin: usize) -> (f64, f64) {
        if bin == 0 {
            return (0.0, Self::LO);
        }
        let span = (Self::HI / Self::LO).ln();
        let per = span / (Self::BINS - 2) as f64;
        let lo = Self::LO * ((bin - 1) as f64 * per).exp();
        let hi = if bin == Self::BINS - 1 {
            f64::INFINITY
        } else {
            Self::LO * (bin as f64 * per).exp()
        };
        (lo, hi)
    }

    /// Feeds one observation (a latency, seconds).
    pub fn observe(&mut self, value: f64) {
        self.bins[Self::bin_of(value)] += 1;
        self.count += 1;
        self.sum += value;
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
    }

    /// Merges another histogram in: bin counts add, so
    /// `a.merge(&b)` summarises exactly the union of the two observation
    /// streams — the property P² sketches lack.
    pub fn merge(&mut self, other: &Self) {
        for (mine, theirs) in self.bins.iter_mut().zip(other.bins.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
    }

    /// Observations seen so far.
    pub fn count(&self) -> usize {
        self.count as usize
    }

    /// Mean of all observations, 0 when empty (exact).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Largest observation, 0 when empty (exact).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Smallest observation, 0 when empty (exact).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// The `q`-th percentile (0–100), `None` when empty: the geometric mean
    /// of the containing bin's bounds, clamped to the observed min/max.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (bin, &n) in self.bins.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let (lo, hi) = Self::bin_bounds(bin);
                if !hi.is_finite() {
                    // Overflow bucket: the exact max is the best estimate.
                    return Some(self.max);
                }
                let mid = (lo * hi).sqrt().max(lo);
                return Some(mid.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// The tail summary (p50/p95/p99 at bin resolution; count and mean
    /// exact), `None` before the first observation.
    pub fn summary(&self) -> Option<LatencySummary> {
        Some(LatencySummary {
            count: self.count(),
            p50: self.quantile(50.0)?,
            p95: self.quantile(95.0)?,
            p99: self.quantile(99.0)?,
            mean: self.mean(),
        })
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Aggregates for one SLA class present in a served stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlaClassReport {
    /// The class.
    pub class: SlaClass,
    /// Latency tail of the class's requests.
    pub latency: LatencySummary,
    /// Mean queueing delay of the class's requests, seconds.
    pub mean_queueing_delay: f64,
    /// Requests of this class that missed their deadline.
    pub deadline_misses: usize,
}

impl SlaClassReport {
    /// Fraction of this class's requests that missed their deadline.
    pub fn miss_rate(&self) -> f64 {
        self.deadline_misses as f64 / self.latency.count as f64
    }
}

/// The serving-quality report of one served stream: overall latency tail,
/// queueing delay, deadline accounting, and per-class breakdowns (classes
/// absent from the stream are omitted; present classes appear in
/// [`SlaClass::ALL`] order).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingMetrics {
    /// Total requests served.
    pub requests: usize,
    /// Latency tail over all requests.
    pub latency: LatencySummary,
    /// Mean queueing delay over all requests, seconds.
    pub mean_queueing_delay: f64,
    /// Worst queueing delay, seconds.
    pub max_queueing_delay: f64,
    /// Requests that missed their class deadline.
    pub deadline_misses: usize,
    /// Per-class breakdowns, most urgent class first.
    pub per_class: Vec<SlaClassReport>,
}

impl ServingMetrics {
    /// Aggregates a set of served-request records; `None` when empty.
    pub fn from_records(records: &[ServedRequestRecord]) -> Option<Self> {
        if records.is_empty() {
            return None;
        }
        let latencies: Vec<f64> = records.iter().map(ServedRequestRecord::latency).collect();
        let queueing: Vec<f64> = records
            .iter()
            .map(ServedRequestRecord::queueing_delay)
            .collect();
        let per_class = SlaClass::ALL
            .iter()
            .filter_map(|&class| {
                let class_latencies: Vec<f64> = records
                    .iter()
                    .filter(|r| r.sla == class)
                    .map(ServedRequestRecord::latency)
                    .collect();
                let latency = LatencySummary::of(&class_latencies)?;
                let class_records = records.iter().filter(|r| r.sla == class);
                Some(SlaClassReport {
                    class,
                    latency,
                    mean_queueing_delay: class_records
                        .clone()
                        .map(ServedRequestRecord::queueing_delay)
                        .sum::<f64>()
                        / class_latencies.len() as f64,
                    deadline_misses: class_records.filter(|r| !r.deadline_met()).count(),
                })
            })
            .collect();
        Some(Self {
            requests: records.len(),
            latency: LatencySummary::of(&latencies).expect("non-empty"),
            mean_queueing_delay: queueing.iter().sum::<f64>() / queueing.len() as f64,
            max_queueing_delay: queueing.iter().copied().fold(0.0, f64::max),
            deadline_misses: records.iter().filter(|r| !r.deadline_met()).count(),
            per_class,
        })
    }

    /// Fraction of all requests that missed their deadline.
    pub fn sla_miss_rate(&self) -> f64 {
        self.deadline_misses as f64 / self.requests as f64
    }

    /// The report for one class, if any of its requests were served.
    pub fn class(&self, class: SlaClass) -> Option<&SlaClassReport> {
        self.per_class.iter().find(|c| c.class == class)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(arrival: f64, admitted: f64, completion: f64, sla: SlaClass) -> ServedRequestRecord {
        ServedRequestRecord {
            arrival,
            admitted,
            completion,
            sla,
        }
    }

    #[test]
    fn classes_order_by_urgency_and_deadline() {
        assert_eq!(SlaClass::ALL.len(), 3);
        for pair in SlaClass::ALL.windows(2) {
            assert!(pair[0].priority() < pair[1].priority());
            assert!(pair[0].deadline_seconds() < pair[1].deadline_seconds());
        }
        assert_eq!(SlaClass::default(), SlaClass::Standard);
        assert_eq!(SlaClass::Premium.to_string(), "premium");
        assert_eq!(SlaClass::BestEffort.name(), "best_effort");
    }

    #[test]
    fn record_derives_queueing_latency_and_deadline() {
        let r = record(1.0, 1.5, 1.7, SlaClass::Premium);
        assert!((r.queueing_delay() - 0.5).abs() < 1e-12);
        assert!((r.latency() - 0.7).abs() < 1e-12);
        // 0.7 s > the 0.25 s premium deadline.
        assert!(!r.deadline_met());
        assert!(record(1.0, 1.0, 1.2, SlaClass::Premium).deadline_met());
    }

    #[test]
    fn metrics_aggregate_per_class_in_urgency_order() {
        let records = vec![
            record(0.0, 0.0, 0.1, SlaClass::BestEffort),
            record(0.0, 0.2, 0.5, SlaClass::Premium), // misses 0.25 s
            record(0.1, 0.1, 0.2, SlaClass::Premium),
            record(0.2, 0.2, 0.4, SlaClass::Standard),
        ];
        let metrics = ServingMetrics::from_records(&records).unwrap();
        assert_eq!(metrics.requests, 4);
        assert_eq!(metrics.deadline_misses, 1);
        assert!((metrics.sla_miss_rate() - 0.25).abs() < 1e-12);
        assert!((metrics.max_queueing_delay - 0.2).abs() < 1e-12);
        // Present classes in ALL order.
        let classes: Vec<SlaClass> = metrics.per_class.iter().map(|c| c.class).collect();
        assert_eq!(
            classes,
            vec![SlaClass::Premium, SlaClass::Standard, SlaClass::BestEffort]
        );
        let premium = metrics.class(SlaClass::Premium).unwrap();
        assert_eq!(premium.latency.count, 2);
        assert_eq!(premium.deadline_misses, 1);
        assert!((premium.miss_rate() - 0.5).abs() < 1e-12);
        assert!((premium.mean_queueing_delay - 0.1).abs() < 1e-12);
        assert!(metrics.class(SlaClass::Standard).is_some());
    }

    #[test]
    fn empty_inputs_yield_none() {
        assert!(ServingMetrics::from_records(&[]).is_none());
        assert!(LatencySummary::of(&[]).is_none());
        let one = LatencySummary::of(&[0.3]).unwrap();
        assert_eq!(one.count, 1);
        assert_eq!(one.p50, 0.3);
        assert_eq!(one.p99, 0.3);
        assert_eq!(one.mean, 0.3);
    }

    #[test]
    fn streaming_tail_is_exact_below_five_and_tracks_beyond() {
        let mut tail = StreamingTail::new();
        assert_eq!(tail.summary(), None);
        assert_eq!(tail.count(), 0);
        assert_eq!(tail.mean(), 0.0);
        let small = [0.4, 0.1, 0.3, 0.2];
        for v in small {
            tail.observe(v);
        }
        let summary = tail.summary().unwrap();
        let exact = LatencySummary::of(&small).unwrap();
        assert_eq!(summary, exact);
        assert!((tail.max() - 0.4).abs() < 1e-12);

        // Larger stream: mean and max stay exact, percentiles stay close.
        let values: Vec<f64> = (0..1_000).map(|i| 0.001 * (i % 97 + 1) as f64).collect();
        tail.reset();
        assert_eq!(tail.count(), 0);
        for &v in &values {
            tail.observe(v);
        }
        let summary = tail.summary().unwrap();
        let exact = LatencySummary::of(&values).unwrap();
        assert_eq!(summary.count, exact.count);
        assert!((summary.mean - exact.mean).abs() < 1e-12);
        assert!((tail.max() - 0.097).abs() < 1e-12);
        for (estimated, reference) in [
            (summary.p50, exact.p50),
            (summary.p95, exact.p95),
            (summary.p99, exact.p99),
        ] {
            assert!(
                (estimated - reference).abs() / reference < 0.05,
                "estimated {estimated} vs exact {reference}"
            );
        }
    }

    #[test]
    fn absent_classes_are_omitted() {
        let records = vec![record(0.0, 0.0, 0.1, SlaClass::Standard)];
        let metrics = ServingMetrics::from_records(&records).unwrap();
        assert_eq!(metrics.per_class.len(), 1);
        assert!(metrics.class(SlaClass::Premium).is_none());
    }

    #[test]
    fn histogram_tracks_exact_moments_and_bin_resolution_quantiles() {
        let mut hist = LatencyHistogram::new();
        assert_eq!(hist.summary(), None);
        assert_eq!(hist.quantile(50.0), None);
        assert_eq!(hist.mean(), 0.0);
        assert_eq!(hist.min(), 0.0);
        let values: Vec<f64> = (0..1_000).map(|i| 0.001 * (i % 97 + 1) as f64).collect();
        for &v in &values {
            hist.observe(v);
        }
        let summary = hist.summary().unwrap();
        let exact = LatencySummary::of(&values).unwrap();
        assert_eq!(summary.count, exact.count);
        assert!((summary.mean - exact.mean).abs() < 1e-12);
        assert!((hist.max() - 0.097).abs() < 1e-12);
        assert!((hist.min() - 0.001).abs() < 1e-12);
        // Bins are ~7.5% wide, so quantiles land within ~8% of exact.
        for (estimated, reference) in [
            (summary.p50, exact.p50),
            (summary.p95, exact.p95),
            (summary.p99, exact.p99),
        ] {
            assert!(
                (estimated - reference).abs() / reference < 0.08,
                "estimated {estimated} vs exact {reference}"
            );
        }
        // Out-of-range observations land in the clamp buckets, still exact
        // in count/mean/min/max.
        hist.observe(0.0);
        hist.observe(5e4);
        assert_eq!(hist.count(), 1_002);
        assert_eq!(hist.max(), 5e4);
        assert_eq!(hist.min(), 0.0);
        assert_eq!(hist.quantile(100.0), Some(5e4));
    }

    #[test]
    fn histogram_merge_equals_union_stream() {
        // The rollup property StreamingTail lacks: merging per-cluster
        // histograms is exactly the histogram of the concatenated stream.
        let all: Vec<f64> = (0..500).map(|i| 0.002 * (i % 41 + 1) as f64).collect();
        let mut merged = LatencyHistogram::new();
        for (half, chunk) in all.chunks(250).enumerate() {
            let mut part = LatencyHistogram::new();
            for &v in chunk {
                part.observe(v);
            }
            assert_eq!(part.count(), 250, "half {half}");
            merged.merge(&part);
        }
        let mut whole = LatencyHistogram::new();
        for &v in &all {
            whole.observe(v);
        }
        assert_eq!(merged.count(), whole.count());
        assert_eq!(merged.quantile(50.0), whole.quantile(50.0));
        assert_eq!(merged.quantile(99.0), whole.quantile(99.0));
        assert_eq!(merged.max(), whole.max());
        assert_eq!(merged.min(), whole.min());
        assert!((merged.mean() - whole.mean()).abs() < 1e-12);
        // Merging an empty histogram is the identity.
        let before = merged;
        merged.merge(&LatencyHistogram::new());
        assert_eq!(merged, before);
    }
}
