//! The adaptive drift loop: online effective-rate estimation per node,
//! hysteresis-bounded re-planning against a *believed* cluster, and a small
//! deterministic bandit over strategies.
//!
//! The serving loop's drift model ([`hidp_platform::DriftModel`]) slows the
//! *truth* — estimated completions stretch under throttle, background-load
//! and contention windows — while planning still assumes nominal rates. The
//! adaptive loop closes that gap without peeking at the drift trace:
//!
//! 1. every primary dispatch estimate reports, per compute task, the ratio
//!    of effective to nominal duration; an [`Ewma`] per node (and one for
//!    the interconnect) folds those ratios into an effective-rate estimate;
//! 2. when an estimate leaves the hysteresis band around the level planning
//!    currently assumes, the loop *re-plans*: estimates are quantised onto
//!    a coarse grid, a **believed cluster** is materialised by derating the
//!    base cluster's peak rates accordingly, and subsequent admissions plan
//!    (and cache-key) against the belief while completions keep running on
//!    the truth;
//! 3. the quantised grid plus the hysteresis band bound both the number of
//!    re-plans per run ([`AdaptiveConfig::max_replans`]) and the number of
//!    distinct believed fingerprints, so the plan cache converges to an
//!    all-hit steady state and the warm path stays zero-alloc.
//!
//! When drift decays, the estimates fall back inside the band around 1.0,
//! a final re-plan restores unit factors, and the believed cluster becomes
//! bit-identical to the base again — cached plans for the original
//! fingerprint are reused, not re-planned.

use crate::CoreError;
use hidp_platform::Cluster;
use hidp_sim::Ewma;
use serde::{Deserialize, Serialize};

/// Tuning of the adaptive loop. All-`Copy`; the default is the
/// configuration the drift experiment runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveConfig {
    /// EWMA smoothing factor for the per-node rate estimators (0 < α ≤ 1;
    /// larger α weights recent observations more).
    pub ewma_alpha: f64,
    /// Half-width of the relative hysteresis band: a re-plan triggers only
    /// when an estimate leaves `[planned/(1+h), planned·(1+h)]`.
    pub hysteresis: f64,
    /// Quantisation step for believed slowdown levels: estimates are
    /// rounded onto the grid `1 + k·quantum` before planning, so small
    /// estimate wiggles map to the same believed cluster (and the same
    /// plan-cache fingerprint).
    pub quantum: f64,
    /// Hard cap on hysteresis-triggered re-plans per run (epoch-forced
    /// rebuilds after availability flips do not count).
    pub max_replans: u32,
    /// Slowdown ratio folded into a node's estimator when a kill event
    /// lands on it — failures down-weight a node ahead of its timeline.
    pub kill_penalty: f64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self {
            ewma_alpha: 0.2,
            // A wide band on purpose: re-planning is worth its cost only
            // for *sustained* drift. Narrow bands chase transient bursts,
            // burn the re-plan budget early and leave the run stuck on an
            // over-derated belief (measurably worse than static plans in
            // the drift experiment's bandit sweep).
            hysteresis: 0.5,
            quantum: 0.25,
            max_replans: 8,
            kill_penalty: 2.0,
        }
    }
}

impl AdaptiveConfig {
    /// Checks the tuning is usable.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Infeasible`] when α is outside `(0, 1]`, the
    /// hysteresis or quantum is not positive and finite, the kill penalty
    /// is below 1 or `max_replans` is 0.
    pub fn validate(&self) -> Result<(), CoreError> {
        let ok = self.ewma_alpha.is_finite()
            && self.ewma_alpha > 0.0
            && self.ewma_alpha <= 1.0
            && self.hysteresis.is_finite()
            && self.hysteresis > 0.0
            && self.quantum.is_finite()
            && self.quantum > 0.0
            && self.kill_penalty.is_finite()
            && self.kill_penalty >= 1.0
            && self.max_replans >= 1;
        if ok {
            Ok(())
        } else {
            Err(CoreError::Infeasible {
                what: format!(
                    "adaptive config needs 0 < alpha ≤ 1, positive finite \
                     hysteresis and quantum, kill penalty ≥ 1 and \
                     max_replans ≥ 1 (got {self:?})"
                ),
            })
        }
    }

    /// Rounds a slowdown level onto the believed grid `1 + k·quantum`,
    /// clamped to ≥ 1 (drift only ever slows).
    pub(crate) fn quantize(&self, level: f64) -> f64 {
        (1.0 + ((level - 1.0) / self.quantum).round() * self.quantum).max(1.0)
    }
}

/// Counters the adaptive loop reports per run: how often it re-planned,
/// how many task-level rate observations fed the estimators, and the
/// dynamic compute energy the dispatch model accrued (drift stretches
/// busy time at unchanged power, so energy is where slowdown shows up
/// even when latency is hidden by slack).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DriftStats {
    /// Hysteresis-triggered re-plans (bounded by
    /// [`AdaptiveConfig::max_replans`]).
    pub replans: u32,
    /// Task-level rate observations folded into the estimators (0 when
    /// the adaptive loop is off).
    pub observations: u64,
    /// Dynamic compute energy of all dispatched work, joules (busy time ×
    /// per-processor dynamic power, under whatever slowdowns and drift
    /// applied).
    pub energy_j: f64,
}

impl DriftStats {
    /// Field-wise accumulation (fleet rollup, cluster index order).
    pub fn merge(&mut self, other: &Self) {
        self.replans += other.replans;
        self.observations += other.observations;
        self.energy_j += other.energy_j;
    }
}

/// Per-run state of the adaptive loop: one rate estimator per node plus
/// one for the interconnect, the levels planning currently assumes, and
/// the lazily materialised believed cluster. Lives in the serving/fleet
/// scratch so warm passes reuse every buffer.
#[derive(Debug)]
pub(crate) struct AdaptiveState {
    /// Effective-rate estimate per node (ratio ≥ 1; 1 = nominal).
    pub(crate) est: Vec<Ewma>,
    /// Quantised slowdown level per node the current plans assume.
    pub(crate) planned: Vec<f64>,
    /// Effective interconnect slowdown estimate.
    pub(crate) bw_est: Ewma,
    /// Quantised interconnect level the current plans assume.
    pub(crate) bw_planned: f64,
    /// Hysteresis-triggered re-plans so far this run.
    pub(crate) replans: u32,
    /// Task-level observations folded in so far this run.
    pub(crate) observations: u64,
    /// The derated cluster planning runs against (`None` until the first
    /// re-plan ever; the allocation is kept across runs so warm passes
    /// rescale in place — [`AdaptiveState::belief`] gates on `active`).
    pub(crate) believed: Option<Cluster>,
    /// Whether the believed cluster is live for *this* run. Reset clears
    /// it without dropping the storage: a steady-state pass must rediscover
    /// the belief exactly like the warm pass did, not inherit its endpoint.
    pub(crate) active: bool,
    /// Set when an availability flip invalidates the believed cluster —
    /// the next admission rebuilds it from the new epoch base without
    /// consuming a re-plan.
    pub(crate) stale: bool,
}

impl Default for AdaptiveState {
    fn default() -> Self {
        Self {
            est: Vec::new(),
            planned: Vec::new(),
            bw_est: Ewma::new(1.0, 1.0),
            bw_planned: 1.0,
            replans: 0,
            observations: 0,
            believed: None,
            active: false,
            stale: false,
        }
    }
}

impl AdaptiveState {
    /// Rewinds for a run over `node_count` nodes: estimators at 1.0 with
    /// the configured α, unit planned levels, counters cleared. The
    /// believed cluster's allocation is kept for in-place rescaling.
    pub(crate) fn reset(&mut self, config: &AdaptiveConfig, node_count: usize) {
        self.est.clear();
        self.est
            .resize(node_count, Ewma::new(config.ewma_alpha, 1.0));
        self.planned.clear();
        self.planned.resize(node_count, 1.0);
        self.bw_est = Ewma::new(config.ewma_alpha, 1.0);
        self.bw_planned = 1.0;
        self.replans = 0;
        self.observations = 0;
        self.active = false;
        self.stale = false;
    }

    /// The believed cluster, when one is live for this run.
    pub(crate) fn belief(&self) -> Option<&Cluster> {
        if self.active {
            self.believed.as_ref()
        } else {
            None
        }
    }

    /// Folds one compute observation in: `ratio` is effective over nominal
    /// duration on `node` (clamped to ≥ 1 — drift only ever slows).
    pub(crate) fn observe_compute(&mut self, node: usize, ratio: f64) {
        if let Some(e) = self.est.get_mut(node) {
            e.observe(ratio.max(1.0));
            self.observations += 1;
        }
    }

    /// Folds one transfer observation into the interconnect estimator.
    pub(crate) fn observe_transfer(&mut self, ratio: f64) {
        self.bw_est.observe(ratio.max(1.0));
        self.observations += 1;
    }

    /// Folds a kill event on `node` in as a `kill_penalty` slowdown
    /// sample — repeated failures push the estimate out of the band and
    /// trigger a re-plan away from the node before its timeline recovers.
    pub(crate) fn observe_kill(&mut self, node: usize, config: &AdaptiveConfig) {
        if let Some(e) = self.est.get_mut(node) {
            e.observe(config.kill_penalty.max(1.0));
            self.observations += 1;
        }
    }

    /// Whether any estimate has left the hysteresis band around its
    /// planned level.
    pub(crate) fn should_replan(&self, config: &AdaptiveConfig) -> bool {
        let h = 1.0 + config.hysteresis;
        let outside = |est: f64, planned: f64| est > planned * h || est < planned / h;
        self.est
            .iter()
            .zip(&self.planned)
            .any(|(e, &p)| outside(e.value(), p))
            || outside(self.bw_est.value(), self.bw_planned)
    }

    /// Re-plans: quantises the current estimates into the planned levels
    /// (when `requantize`), then materialises the believed cluster by
    /// derating `base` — peak compute per node and the default link — by
    /// those levels. Unit levels reproduce `base` bit-for-bit, so a decay
    /// back to nominal restores the original plan-cache fingerprint.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError::Platform`] when the factors are rejected
    /// (cannot happen for quantised levels, which are finite and ≥ 1).
    pub(crate) fn rebuild_believed(
        &mut self,
        base: &Cluster,
        requantize: bool,
        config: &AdaptiveConfig,
    ) -> Result<(), CoreError> {
        if requantize {
            for (p, e) in self.planned.iter_mut().zip(&self.est) {
                *p = config.quantize(e.value());
            }
            self.bw_planned = config.quantize(self.bw_est.value());
        }
        match &mut self.believed {
            Some(c) => {
                // In-place rescale keeps warm passes zero-alloc; a base of
                // a different shape falls back to a full clone.
                if c.apply_rate_factors(base, &self.planned, self.bw_planned)
                    .is_err()
                {
                    c.clone_from(base);
                    c.apply_rate_factors(base, &self.planned, self.bw_planned)?;
                }
            }
            None => {
                let mut c = base.clone();
                c.apply_rate_factors(base, &self.planned, self.bw_planned)?;
                self.believed = Some(c);
            }
        }
        self.active = true;
        self.stale = false;
        Ok(())
    }
}

/// A deterministic UCB1 bandit over at most [`StrategyBandit::MAX_ARMS`]
/// strategy arms, for episode-level strategy selection in the drift
/// experiment. Rewards are "higher is better" (callers feed e.g. negated
/// p99 latency); ties break toward the lowest arm index, so identical
/// inputs replay identical pulls — no randomness anywhere.
#[derive(Debug, Clone, Copy)]
pub struct StrategyBandit {
    arms: usize,
    pulls: [u64; Self::MAX_ARMS],
    rewards: [f64; Self::MAX_ARMS],
    total: u64,
}

impl StrategyBandit {
    /// The fixed arm capacity (state is inline, no heap).
    pub const MAX_ARMS: usize = 8;

    /// A bandit over `arms` arms (clamped to `1..=MAX_ARMS`).
    pub fn new(arms: usize) -> Self {
        Self {
            arms: arms.clamp(1, Self::MAX_ARMS),
            pulls: [0; Self::MAX_ARMS],
            rewards: [0.0; Self::MAX_ARMS],
            total: 0,
        }
    }

    /// The arm to pull next: the lowest-index unplayed arm, else the arm
    /// maximising `mean + sqrt(2·ln(total)/pulls)` (ties → lowest index).
    pub fn select(&self) -> usize {
        for arm in 0..self.arms {
            if self.pulls[arm] == 0 {
                return arm;
            }
        }
        let mut best = 0usize;
        let mut best_score = f64::NEG_INFINITY;
        for arm in 0..self.arms {
            let mean = self.rewards[arm] / self.pulls[arm] as f64;
            let bonus = (2.0 * (self.total as f64).ln() / self.pulls[arm] as f64).sqrt();
            let score = mean + bonus;
            if score > best_score {
                best_score = score;
                best = arm;
            }
        }
        best
    }

    /// Records `reward` for a pull of `arm` (out-of-range arms are
    /// ignored).
    pub fn update(&mut self, arm: usize, reward: f64) {
        if arm < self.arms {
            self.pulls[arm] += 1;
            self.rewards[arm] += reward;
            self.total += 1;
        }
    }

    /// The arm with the best empirical mean so far (unplayed arms rank
    /// last; ties → lowest index).
    pub fn best(&self) -> usize {
        let mut best = 0usize;
        let mut best_mean = f64::NEG_INFINITY;
        for arm in 0..self.arms {
            if self.pulls[arm] == 0 {
                continue;
            }
            let mean = self.rewards[arm] / self.pulls[arm] as f64;
            if mean > best_mean {
                best_mean = mean;
                best = arm;
            }
        }
        best
    }

    /// Number of pulls recorded for `arm`.
    pub fn pulls(&self, arm: usize) -> u64 {
        if arm < self.arms {
            self.pulls[arm]
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidp_platform::presets;

    #[test]
    fn config_validation_rejects_bad_tunings() {
        assert!(AdaptiveConfig::default().validate().is_ok());
        for bad in [
            AdaptiveConfig {
                ewma_alpha: 0.0,
                ..AdaptiveConfig::default()
            },
            AdaptiveConfig {
                ewma_alpha: 1.5,
                ..AdaptiveConfig::default()
            },
            AdaptiveConfig {
                hysteresis: 0.0,
                ..AdaptiveConfig::default()
            },
            AdaptiveConfig {
                quantum: f64::NAN,
                ..AdaptiveConfig::default()
            },
            AdaptiveConfig {
                kill_penalty: 0.5,
                ..AdaptiveConfig::default()
            },
            AdaptiveConfig {
                max_replans: 0,
                ..AdaptiveConfig::default()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn quantisation_snaps_to_the_grid_and_never_goes_below_one() {
        let config = AdaptiveConfig::default();
        assert_eq!(config.quantize(1.0), 1.0);
        assert_eq!(config.quantize(1.1), 1.0);
        assert_eq!(config.quantize(1.2), 1.25);
        assert_eq!(config.quantize(1.9), 2.0);
        assert_eq!(config.quantize(0.3), 1.0);
    }

    #[test]
    fn hysteresis_band_gates_replans_and_believed_tracks_the_levels() {
        let config = AdaptiveConfig {
            ewma_alpha: 1.0, // estimates follow samples immediately
            ..AdaptiveConfig::default()
        };
        let base = presets::paper_cluster();
        let mut state = AdaptiveState::default();
        state.reset(&config, base.len());
        assert!(!state.should_replan(&config), "nominal estimates stay in");

        // A 2× slowdown on node 3 leaves the band; re-planning derates the
        // believed cluster and the fingerprint moves.
        state.observe_compute(3, 2.0);
        assert!(state.should_replan(&config));
        state.rebuild_believed(&base, true, &config).unwrap();
        let believed_fp = state.believed.as_ref().unwrap().fingerprint();
        assert_ne!(believed_fp, base.fingerprint());
        assert_eq!(state.planned[3], 2.0);
        assert!(!state.should_replan(&config), "band re-centres after");

        // Decay back to nominal: the next rebuild restores the base
        // fingerprint bit-for-bit (unit factors divide exactly).
        for _ in 0..64 {
            state.observe_compute(3, 1.0);
        }
        assert!(state.should_replan(&config));
        state.rebuild_believed(&base, true, &config).unwrap();
        assert_eq!(
            state.believed.as_ref().unwrap().fingerprint(),
            base.fingerprint()
        );
        assert!(state.observations >= 65);
    }

    #[test]
    fn kill_observations_push_a_node_out_of_the_band() {
        let config = AdaptiveConfig {
            ewma_alpha: 0.5,
            ..AdaptiveConfig::default()
        };
        let mut state = AdaptiveState::default();
        state.reset(&config, 4);
        state.observe_kill(2, &config);
        state.observe_kill(2, &config);
        assert!(state.should_replan(&config));
        // Out-of-range nodes are ignored, not a panic.
        state.observe_kill(99, &config);
    }

    #[test]
    fn bandit_explores_every_arm_then_exploits_deterministically() {
        let mut bandit = StrategyBandit::new(3);
        // First pulls sweep the arms in index order.
        for expect in 0..3 {
            let arm = bandit.select();
            assert_eq!(arm, expect);
            bandit.update(arm, if arm == 1 { 1.0 } else { 0.0 });
        }
        // Arm 1 dominates; repeated plays keep preferring it while the
        // bonus still forces occasional revisits of the others.
        let mut wins = [0usize; 3];
        for _ in 0..64 {
            let arm = bandit.select();
            bandit.update(arm, if arm == 1 { 1.0 } else { 0.0 });
            wins[arm] += 1;
        }
        assert!(wins[1] > wins[0] && wins[1] > wins[2]);
        assert_eq!(bandit.best(), 1);
        assert!(bandit.pulls(1) > 1);
        // Two bandits fed identical rewards replay identical choices.
        let mut a = StrategyBandit::new(2);
        let mut b = StrategyBandit::new(2);
        for i in 0..32 {
            let (x, y) = (a.select(), b.select());
            assert_eq!(x, y, "pull {i} diverged");
            a.update(x, (x == 0) as u64 as f64);
            b.update(y, (y == 0) as u64 as f64);
        }
    }
}
