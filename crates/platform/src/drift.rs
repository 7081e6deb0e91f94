//! Continuous drift sources: DVFS/thermal throttling curves, contention on
//! the shared network, and background-load windows.
//!
//! The fault vocabulary in [`crate::SlowdownWindow`] models *discrete*
//! degradation — a straggler that is slow by a fixed factor for a while.
//! Real edge platforms drift *continuously*: a board heats up and the DVFS
//! governor walks the clock down (a ramp, not a step), co-located tenants
//! contend for the radio, and background daemons steal cycles in bursts.
//! [`DriftModel`] packages those three sources as pure data that the
//! dispatch estimator evaluates per task, exactly like slowdown windows:
//! a duration is multiplied **only** when a window applies, so a drift-free
//! model leaves every estimate bit-identical to the drift-free arithmetic.
//!
//! Like [`crate::SlowdownWindow`] and [`crate::WanDegradation`], the seeded
//! generator that composes drift models into reproducible traces lives in
//! `hidp_workloads` next to the chaos recipes; this module is evaluation
//! only.

use crate::error::PlatformError;
use crate::faultplan::SlowdownWindow;
use crate::node::NodeIndex;
use serde::{Deserialize, Serialize};

/// A throttling window on one node: compute durations are multiplied by a
/// factor that ramps linearly from `from_factor` at `start` to `to_factor`
/// at `end` (a DVFS step when the two are equal, a thermal ramp otherwise).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThrottleWindow {
    /// The throttled node.
    pub node: NodeIndex,
    /// Window start, seconds (inclusive).
    pub start: f64,
    /// Window end, seconds (exclusive).
    pub end: f64,
    /// Duration multiplier at `start` (≥ 1 slows compute down).
    pub from_factor: f64,
    /// Duration multiplier approached at `end`.
    pub to_factor: f64,
}

impl ThrottleWindow {
    /// Whether a compute task on `node` starting at `at` is throttled by
    /// this window.
    #[must_use]
    pub fn applies(&self, node: NodeIndex, at: f64) -> bool {
        node == self.node && at >= self.start && at < self.end
    }

    /// The duration multiplier at `at`, linearly interpolated across the
    /// window. Callers must check [`ThrottleWindow::applies`] first; the
    /// value outside the window is an extrapolation.
    #[must_use]
    pub fn factor_at(&self, at: f64) -> f64 {
        let span = self.end - self.start;
        let t = ((at - self.start) / span).clamp(0.0, 1.0);
        self.from_factor + (self.to_factor - self.from_factor) * t
    }

    /// Validates the window: finite non-negative times, `start < end`, and
    /// factors ≥ 1 (throttling never speeds compute up).
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::InvalidParameter`] describing the first
    /// violated constraint.
    pub fn validate(&self) -> Result<(), PlatformError> {
        if !(self.start.is_finite() && self.start >= 0.0 && self.end.is_finite()) {
            return Err(PlatformError::InvalidParameter {
                what: format!(
                    "throttle window times must be finite and non-negative \
                     (got [{}, {}))",
                    self.start, self.end
                ),
            });
        }
        if self.start >= self.end {
            return Err(PlatformError::InvalidParameter {
                what: format!(
                    "throttle window must be non-empty (got [{}, {}))",
                    self.start, self.end
                ),
            });
        }
        for (name, f) in [("from", self.from_factor), ("to", self.to_factor)] {
            if !(f.is_finite() && f >= 1.0) {
                return Err(PlatformError::InvalidParameter {
                    what: format!("throttle {name}_factor must be ≥ 1 (got {f})"),
                });
            }
        }
        Ok(())
    }
}

/// A contention window on the shared network: every inter-node transfer
/// starting in `[start, end)` takes `factor`× as long (the effective
/// bandwidth drops to `1/factor` of nominal).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BandwidthContention {
    /// Window start, seconds (inclusive).
    pub start: f64,
    /// Window end, seconds (exclusive).
    pub end: f64,
    /// Transfer-duration multiplier inside the window (≥ 1).
    pub factor: f64,
}

impl BandwidthContention {
    /// Whether a transfer starting at `at` pays the contention factor.
    #[must_use]
    pub fn applies(&self, at: f64) -> bool {
        at >= self.start && at < self.end
    }

    /// Validates the window: finite non-negative times, `start < end`, a
    /// factor ≥ 1.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::InvalidParameter`] describing the first
    /// violated constraint.
    pub fn validate(&self) -> Result<(), PlatformError> {
        if !(self.start.is_finite() && self.start >= 0.0 && self.end.is_finite()) {
            return Err(PlatformError::InvalidParameter {
                what: format!(
                    "contention window times must be finite and non-negative \
                     (got [{}, {}))",
                    self.start, self.end
                ),
            });
        }
        if self.start >= self.end {
            return Err(PlatformError::InvalidParameter {
                what: format!(
                    "contention window must be non-empty (got [{}, {}))",
                    self.start, self.end
                ),
            });
        }
        if !(self.factor.is_finite() && self.factor >= 1.0) {
            return Err(PlatformError::InvalidParameter {
                what: format!("contention factor must be ≥ 1 (got {})", self.factor),
            });
        }
        Ok(())
    }
}

/// Everything one cluster drifts by: throttling curves per node, background
/// load (reusing the [`SlowdownWindow`] vocabulary, but *unknown to the
/// planner* — it only reaches plans through the online estimates), and
/// contention on the shared network.
///
/// The model is evaluated, never planned against: the serving loop's
/// dispatch estimator applies it to "measured" task durations, and the
/// adaptive layer in `hidp_core` recovers it from those observations.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DriftModel {
    /// Throttling curves (DVFS steps and thermal ramps).
    pub throttles: Vec<ThrottleWindow>,
    /// Background-load windows: flat compute slowdowns from co-located
    /// work, reusing the straggler vocabulary.
    pub background: Vec<SlowdownWindow>,
    /// Contention windows on the shared network.
    pub bandwidth: Vec<BandwidthContention>,
}

impl DriftModel {
    /// Whether the model injects nothing (the drift-free default).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.throttles.is_empty() && self.background.is_empty() && self.bandwidth.is_empty()
    }

    /// Scales a compute duration for a task on `node` starting at `at`.
    /// Multiplies only by windows that apply — a drift-free model (or an
    /// instant outside every window) returns `duration` bit-identically.
    #[must_use]
    pub fn scale_compute(&self, node: NodeIndex, at: f64, duration: f64) -> f64 {
        let mut d = duration;
        for w in &self.throttles {
            if w.applies(node, at) {
                d *= w.factor_at(at);
            }
        }
        for w in &self.background {
            if w.applies(node, at) {
                d *= w.factor;
            }
        }
        d
    }

    /// Scales an inter-node transfer duration starting at `at`. Multiplies
    /// only by windows that apply (bit-identity as for
    /// [`DriftModel::scale_compute`]).
    #[must_use]
    pub fn scale_transfer(&self, at: f64, duration: f64) -> f64 {
        let mut d = duration;
        for w in &self.bandwidth {
            if w.applies(at) {
                d *= w.factor;
            }
        }
        d
    }

    /// The last instant any window is active (0 for an empty model).
    #[must_use]
    pub fn horizon(&self) -> f64 {
        let mut h = 0.0f64;
        for w in &self.throttles {
            h = h.max(w.end);
        }
        for w in &self.background {
            h = h.max(w.end);
        }
        for w in &self.bandwidth {
            h = h.max(w.end);
        }
        h
    }

    /// Validates every window and checks that each names a node inside a
    /// cluster of `node_count` nodes.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::InvalidParameter`] for malformed windows or
    /// [`PlatformError::UnknownNode`] for out-of-range node indices.
    pub fn validate(&self, node_count: usize) -> Result<(), PlatformError> {
        for w in &self.throttles {
            w.validate()?;
            if w.node.0 >= node_count {
                return Err(PlatformError::UnknownNode { index: w.node.0 });
            }
        }
        for w in &self.background {
            w.validate()?;
            if w.node.0 >= node_count {
                return Err(PlatformError::UnknownNode { index: w.node.0 });
            }
        }
        for w in &self.bandwidth {
            w.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> ThrottleWindow {
        ThrottleWindow {
            node: NodeIndex(2),
            start: 10.0,
            end: 20.0,
            from_factor: 1.0,
            to_factor: 3.0,
        }
    }

    #[test]
    fn throttle_ramp_interpolates_linearly() {
        let w = ramp();
        w.validate().unwrap();
        assert!(w.applies(NodeIndex(2), 10.0));
        assert!(!w.applies(NodeIndex(2), 20.0));
        assert!(!w.applies(NodeIndex(1), 15.0));
        assert_eq!(w.factor_at(10.0), 1.0);
        assert_eq!(w.factor_at(15.0), 2.0);
        assert_eq!(w.factor_at(20.0), 3.0);
        // A DVFS step holds its factor across the window.
        let step = ThrottleWindow {
            from_factor: 2.5,
            to_factor: 2.5,
            ..w
        };
        assert_eq!(step.factor_at(12.0), 2.5);
        assert_eq!(step.factor_at(19.9), 2.5);
    }

    #[test]
    fn invalid_windows_are_rejected() {
        let w = ramp();
        assert!(ThrottleWindow { end: 5.0, ..w }.validate().is_err());
        assert!(ThrottleWindow {
            from_factor: 0.5,
            ..w
        }
        .validate()
        .is_err());
        assert!(ThrottleWindow {
            to_factor: f64::NAN,
            ..w
        }
        .validate()
        .is_err());
        let c = BandwidthContention {
            start: 0.0,
            end: 5.0,
            factor: 2.0,
        };
        assert!(c.validate().is_ok());
        assert!(BandwidthContention { end: 0.0, ..c }.validate().is_err());
        assert!(BandwidthContention { factor: 0.9, ..c }.validate().is_err());
    }

    #[test]
    fn empty_model_is_the_identity() {
        let model = DriftModel::default();
        assert!(model.is_empty());
        assert_eq!(model.scale_compute(NodeIndex(0), 5.0, 0.125), 0.125);
        assert_eq!(model.scale_transfer(5.0, 0.25), 0.25);
        assert_eq!(model.horizon(), 0.0);
        model.validate(1).unwrap();
    }

    #[test]
    fn windows_compose_multiplicatively_only_when_applying() {
        let model = DriftModel {
            throttles: vec![ramp()],
            background: vec![SlowdownWindow {
                node: NodeIndex(2),
                start: 0.0,
                end: 100.0,
                factor: 2.0,
            }],
            bandwidth: vec![BandwidthContention {
                start: 10.0,
                end: 20.0,
                factor: 4.0,
            }],
        };
        assert!(!model.is_empty());
        assert_eq!(model.horizon(), 100.0);
        // At t = 15 node 2 pays the ramp (2×) and the background load (2×).
        assert_eq!(model.scale_compute(NodeIndex(2), 15.0, 1.0), 4.0);
        // Outside the ramp only the background window applies.
        assert_eq!(model.scale_compute(NodeIndex(2), 50.0, 1.0), 2.0);
        // Other nodes are untouched — bit-identically.
        assert_eq!(model.scale_compute(NodeIndex(0), 15.0, 0.3), 0.3);
        assert_eq!(model.scale_transfer(15.0, 1.0), 4.0);
        assert_eq!(model.scale_transfer(25.0, 0.7), 0.7);
        model.validate(5).unwrap();
        // Node bounds are enforced.
        assert!(model.validate(2).is_err());
    }
}
