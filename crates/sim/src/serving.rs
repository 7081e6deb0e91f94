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

use crate::stats::{percentile_sorted, sort_samples};
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
        Self::sorting(&mut latencies.to_vec())
    }

    /// [`LatencySummary::of`] that sorts `latencies` in place: the mean
    /// sums them in the given order, then one sort serves all three
    /// percentiles.
    fn sorting(latencies: &mut [f64]) -> Option<Self> {
        let mean = latencies.iter().sum::<f64>() / latencies.len() as f64;
        sort_samples(latencies);
        Some(Self {
            count: latencies.len(),
            p50: percentile_sorted(latencies, 50.0)?,
            p95: percentile_sorted(latencies, 95.0)?,
            p99: percentile_sorted(latencies, 99.0)?,
            mean,
        })
    }
}

/// The former name of [`LatencyHistogram`], the one latency sketch of both tiers.
pub type StreamingTail = LatencyHistogram;

/// A mergeable log-linear latency histogram: the one latency sketch of the
/// serving and fleet tiers.
///
/// Bins are indexed straight from the bits of the `f64`, HdrHistogram-style:
/// the exponent picks the octave and the top six mantissa bits pick one of
/// 64 equal-width sub-buckets inside it, so observing is a shift, a clamp
/// and an increment — no `ln()`, no search.
/// Octaves span 2⁻¹⁶ s (~15 µs) to 2²⁴ s (~194 days); below and above sit
/// one underflow and one overflow bucket (zero, negatives and NaN land in
/// the underflow bucket).
///
/// `count`, `mean`, `min` and `max` are exact. A quantile is the midpoint of
/// the bin holding the nearest-rank order statistic, clamped to the observed
/// range, so it is within half a sub-bucket — under 0.8% — of that order
/// statistic; the smallest and largest ranks report the exact min and max.
/// Bin counts add, so [`LatencyHistogram::merge`] yields exactly the
/// histogram of the union of the two streams, in any merge order: a fleet
/// merges its per-cluster histograms in cluster index order and its summary
/// is bit-identical at any worker thread count. Everything is `Copy` — no
/// heap, ~20 KB.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyHistogram {
    bins: [u64; Self::BINS],
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl LatencyHistogram {
    /// Mantissa bits per octave: 2⁶ = 64 linear sub-buckets.
    const SUB_BITS: u32 = 6;
    /// Shifting an `f64`'s bits right by this leaves `exponent | sub-bucket`.
    const SHIFT: u32 = f64::MANTISSA_DIGITS - 1 - Self::SUB_BITS;
    /// The key (`exponent | sub-bucket`) of 2⁻¹⁶, the first in-range bin.
    const KEY_LO: u64 = ((1023 - 16) as u64) << Self::SUB_BITS;
    /// The key of 2²⁴, the first value in the overflow bucket.
    const KEY_HI: u64 = ((1023 + 24) as u64) << Self::SUB_BITS;
    /// In-range bins plus the underflow and overflow buckets.
    const BINS: usize = (Self::KEY_HI - Self::KEY_LO) as usize + 2;

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
    /// overflow bucket.
    fn bin_of(value: f64) -> usize {
        let key = if value > 0.0 {
            value.to_bits() >> Self::SHIFT
        } else {
            0
        };
        key.saturating_sub(Self::KEY_LO - 1)
            .min(Self::BINS as u64 - 1) as usize
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

    /// Merges another histogram in: bin counts add, so `a.merge(&b)`
    /// summarises exactly the union of the two observation streams.
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

    /// Forgets all observations.
    pub fn reset(&mut self) {
        *self = Self::new();
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

    /// The `q`-th percentile (0–100), `None` when empty: the midpoint of the
    /// bin holding order statistic `round(q/100 · (count − 1))`, clamped to
    /// the observed min/max; the first and last order statistics are the
    /// exact min and max.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let last = self.count - 1;
        let rank = ((q.clamp(0.0, 100.0) / 100.0) * last as f64).round() as u64;
        if rank == 0 {
            return Some(self.min);
        }
        if rank == last {
            return Some(self.max);
        }
        let mut seen = 0u64;
        for (bin, &n) in self.bins.iter().enumerate() {
            seen += n;
            if seen > rank {
                if bin == 0 {
                    return Some(self.min);
                }
                if bin == Self::BINS - 1 {
                    return Some(self.max);
                }
                let key = Self::KEY_LO + bin as u64 - 1;
                let lo = f64::from_bits(key << Self::SHIFT);
                let hi = f64::from_bits((key + 1) << Self::SHIFT);
                return Some((0.5 * (lo + hi)).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// The tail summary (p50/p95/p99 within a sub-bucket; count and mean
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
        /// One class's share of the records.
        struct ClassTally {
            latencies: Vec<f64>,
            queueing_sum: f64,
            misses: usize,
        }
        // One pass in record order splits the classes; every sum adds in
        // record order from -0.0, the neutral element `Iterator::sum` uses.
        let mut latencies = Vec::with_capacity(records.len());
        let mut classes: [ClassTally; 3] = std::array::from_fn(|_| ClassTally {
            latencies: Vec::new(),
            queueing_sum: -0.0,
            misses: 0,
        });
        let mut queueing_sum = -0.0f64;
        let mut max_queueing_delay = 0.0f64;
        let mut deadline_misses = 0;
        for record in records {
            let latency = record.latency();
            let queueing = record.queueing_delay();
            let missed = usize::from(!record.deadline_met());
            latencies.push(latency);
            queueing_sum += queueing;
            max_queueing_delay = max_queueing_delay.max(queueing);
            deadline_misses += missed;
            let class = &mut classes[usize::from(record.sla.priority())];
            class.latencies.push(latency);
            class.queueing_sum += queueing;
            class.misses += missed;
        }
        let per_class = SlaClass::ALL
            .iter()
            .zip(&mut classes)
            .filter_map(|(&class, tally)| {
                Some(SlaClassReport {
                    class,
                    latency: LatencySummary::sorting(&mut tally.latencies)?,
                    mean_queueing_delay: tally.queueing_sum / tally.latencies.len() as f64,
                    deadline_misses: tally.misses,
                })
            })
            .collect();
        Some(Self {
            requests: records.len(),
            latency: LatencySummary::sorting(&mut latencies)?,
            mean_queueing_delay: queueing_sum / records.len() as f64,
            max_queueing_delay,
            deadline_misses,
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
    use crate::stats::percentile;

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
    fn summary_equals_three_percentiles_and_the_record_order_mean() {
        // One sort per set must read exactly what three independent
        // `percentile` calls read, and the mean must sum in slice order:
        // random slices of 1–40 values on a coarse grid (duplicates), with
        // zeros mixed in.
        for seed in 0..200u64 {
            let raw = uniform_stream(seed, 41);
            let len = 1 + (raw[0] * 40.0) as usize;
            let values: Vec<f64> = raw[1..=len]
                .iter()
                .map(|&u| {
                    if u < 0.2 {
                        0.0
                    } else {
                        (u * 8.0).floor() * 0.125
                    }
                })
                .collect();
            let summary = LatencySummary::of(&values).unwrap();
            assert_eq!(summary.count, len, "seed {seed}");
            assert_eq!(
                summary.p50,
                percentile(&values, 50.0).unwrap(),
                "seed {seed}"
            );
            assert_eq!(
                summary.p95,
                percentile(&values, 95.0).unwrap(),
                "seed {seed}"
            );
            assert_eq!(
                summary.p99,
                percentile(&values, 99.0).unwrap(),
                "seed {seed}"
            );
            let mean = values.iter().sum::<f64>() / len as f64;
            assert_eq!(summary.mean.to_bits(), mean.to_bits(), "seed {seed}");
        }
        let two = LatencySummary::of(&[0.4, 0.0]).unwrap();
        assert_eq!(two.p50, 0.2);
        assert_eq!(two.mean, 0.2);
    }

    #[test]
    fn absent_classes_are_omitted() {
        let records = vec![record(0.0, 0.0, 0.1, SlaClass::Standard)];
        let metrics = ServingMetrics::from_records(&records).unwrap();
        assert_eq!(metrics.per_class.len(), 1);
        assert!(metrics.class(SlaClass::Premium).is_none());
    }

    /// Deterministic splitmix64 stream mapped to `[0, 1)`; keeps the
    /// accuracy tests free of external RNG dependencies.
    fn uniform_stream(seed: u64, count: usize) -> Vec<f64> {
        let mut state = seed;
        (0..count)
            .map(|_| {
                state = state.wrapping_add(0x9e3779b97f4a7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
                z ^= z >> 31;
                (z >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect()
    }

    /// Feeds `values` in order and asserts the histogram's exact moments,
    /// p50/p95/p99 within 1% of [`percentile`], and `quantile(100) == max`.
    fn assert_tracks_exact(name: &str, values: &[f64]) -> LatencyHistogram {
        let mut hist = LatencyHistogram::new();
        for &v in values {
            hist.observe(v);
        }
        let exact_max = values.iter().copied().fold(f64::MIN, f64::max);
        let exact_min = values.iter().copied().fold(f64::MAX, f64::min);
        assert_eq!(hist.count(), values.len(), "{name}");
        assert_eq!(hist.max(), exact_max, "{name}");
        assert_eq!(hist.min(), exact_min, "{name}");
        let exact_mean = values.iter().sum::<f64>() / values.len() as f64;
        assert!(
            (hist.mean() - exact_mean).abs() <= 1e-12 * exact_mean,
            "{name}"
        );
        for p in [50.0, 95.0, 99.0] {
            let estimated = hist.quantile(p).unwrap();
            let reference = percentile(values, p).unwrap();
            let err = (estimated - reference).abs() / reference;
            assert!(
                err < 0.01,
                "{name} p{p}: estimated {estimated} vs exact {reference} ({err})"
            );
        }
        assert_eq!(hist.quantile(100.0), Some(exact_max), "{name}");
        assert_eq!(hist.quantile(0.0), Some(exact_min), "{name}");
        hist
    }

    /// A heavy-tailed (Pareto, α = 0.5) stream from 100 µs up to ~10⁶ s.
    fn heavy_tailed(seed: u64, count: usize) -> Vec<f64> {
        uniform_stream(seed, count)
            .into_iter()
            .map(|u| (1e-4 / (1.0 - u).powi(2)).min(1e7))
            .collect()
    }

    #[test]
    fn histogram_tracks_uniform_bimodal_and_heavy_tailed_streams() {
        let mut hist = LatencyHistogram::new();
        assert_eq!(hist.summary(), None);
        assert_eq!(hist.quantile(50.0), None);
        assert_eq!(hist.mean(), 0.0);
        assert_eq!(hist.min(), 0.0);

        let uniform: Vec<f64> = uniform_stream(1, 50_000)
            .into_iter()
            .map(|u| 1e-4 + u * (1e7 - 1e-4))
            .collect();
        // 90% fast requests in 100 µs–1 ms, a 10% slow tail in 10⁶–10⁷ s:
        // p50 sits in the fast mode, p95/p99 in the slow one.
        let bimodal: Vec<f64> = uniform_stream(3, 50_000)
            .iter()
            .zip(uniform_stream(4, 50_000))
            .map(|(&pick, u)| {
                let scale = if pick < 0.9 { 1e-4 } else { 1e6 };
                scale * (1.0 + 9.0 * u)
            })
            .collect();
        for (name, values) in [
            ("uniform", uniform),
            ("bimodal", bimodal),
            ("heavy-tailed", heavy_tailed(5, 100_000)),
        ] {
            hist = assert_tracks_exact(name, &values);
        }
        hist.reset();
        assert_eq!(hist, LatencyHistogram::new());

        // Out-of-range observations land in the clamp buckets; count, mean,
        // min and max stay exact and the extreme quantiles report them.
        for v in [0.0, 1e-9, 0.5, 2.0, 5e10] {
            hist.observe(v);
        }
        assert_eq!(hist.count(), 5);
        assert_eq!(hist.min(), 0.0);
        assert_eq!(hist.max(), 5e10);
        assert_eq!(hist.quantile(0.0), Some(0.0));
        assert_eq!(hist.quantile(100.0), Some(5e10));
        assert!((hist.quantile(50.0).unwrap() - 0.5).abs() < 0.005);
    }

    #[test]
    fn histogram_quantiles_are_independent_of_arrival_order() {
        // Sorted ascending, sorted descending, and an interleave of extremes:
        // the orderings that drift marker-based streaming estimators the
        // furthest. Bin counts do not depend on order, so all three agree.
        let mut ascending = heavy_tailed(9, 100_000);
        ascending.sort_by(f64::total_cmp);
        let descending: Vec<f64> = ascending.iter().rev().copied().collect();
        let n = ascending.len();
        let interleaved: Vec<f64> = (0..n / 2)
            .flat_map(|i| [ascending[i], ascending[n - 1 - i]])
            .collect();
        let reference = assert_tracks_exact("ascending", &ascending);
        for (name, values) in [("descending", &descending), ("interleaved", &interleaved)] {
            let hist = assert_tracks_exact(name, values);
            for p in [50.0, 95.0, 99.0] {
                assert_eq!(hist.quantile(p), reference.quantile(p), "{name} p{p}");
            }
        }
    }

    #[test]
    fn histogram_merge_equals_union_stream() {
        // Merging per-cluster histograms is exactly the histogram of the concatenated stream.
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

    #[test]
    fn histogram_merge_equals_union_beyond_ten_thousand_seconds() {
        // Latencies up to 10⁶ s: every quantile resolves to its sub-bucket,
        // none collapses onto the maximum.
        let all: Vec<f64> = uniform_stream(11, 20_000)
            .into_iter()
            .map(|u| 10f64.powf(-3.0 + 9.0 * u))
            .collect();
        assert!(all.iter().any(|&v| v > 0.9e6));
        let mut merged = LatencyHistogram::new();
        for chunk in all.chunks(7_000) {
            let mut part = LatencyHistogram::new();
            for &v in chunk {
                part.observe(v);
            }
            merged.merge(&part);
        }
        let whole = assert_tracks_exact("log-uniform to 1e6 s", &all);
        for p in [0.0, 50.0, 95.0, 99.0, 99.9, 100.0] {
            assert_eq!(merged.quantile(p), whole.quantile(p), "p{p}");
        }
        assert_eq!(merged.count(), whole.count());
        assert_eq!(merged.min(), whole.min());
        assert_eq!(merged.max(), whole.max());
        assert!(merged.quantile(99.9).unwrap() < merged.max());
    }
}
