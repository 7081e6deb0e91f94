//! Fault-injection vocabulary: the degradation windows a chaos plan is made
//! of, beyond the up/down [`crate::ClusterTimeline`] flips.
//!
//! Availability flips model *binary* failure — a node is gone and in-flight
//! work on it is killed. The two window types here model the softer failure
//! modes real edge fleets see: a straggling node that still serves but
//! slowly ([`SlowdownWindow`], consumed by the serving tier's dispatch
//! estimator), and a degraded WAN segment that inflates cross-region
//! round trips without dropping them ([`WanDegradation`], consumed by the
//! fleet tier's delivery path). Both are pure data — the seeded generator
//! that composes them into a full `FaultPlan` lives in `hidp_workloads`,
//! next to the other trace generators.

use crate::error::PlatformError;
use crate::node::NodeIndex;
use serde::{Deserialize, Serialize};

/// A straggler window: compute on `node` runs `factor`× slower for tasks
/// starting in `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlowdownWindow {
    /// The straggling node.
    pub node: NodeIndex,
    /// Window start, seconds (inclusive).
    pub start: f64,
    /// Window end, seconds (exclusive).
    pub end: f64,
    /// Duration multiplier for compute starting inside the window (> 1 is
    /// a slowdown; must be positive and finite).
    pub factor: f64,
}

impl SlowdownWindow {
    /// Whether a compute task on `node` starting at `at` falls inside this
    /// window.
    #[must_use]
    pub fn applies(&self, node: NodeIndex, at: f64) -> bool {
        node == self.node && at >= self.start && at < self.end
    }

    /// Validates the window: finite non-negative times, `start < end`, a
    /// positive finite factor.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::InvalidParameter`] describing the first
    /// violated constraint.
    pub fn validate(&self) -> Result<(), PlatformError> {
        validate_span("slowdown window", self.start, self.end)?;
        if !(self.factor.is_finite() && self.factor > 0.0) {
            return Err(PlatformError::InvalidParameter {
                what: format!("slowdown factor must be positive (got {})", self.factor),
            });
        }
        Ok(())
    }
}

/// A WAN degradation window: every cross-site round trip paid by a request
/// delivered in `[start, end)` is multiplied by `factor`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WanDegradation {
    /// Window start, seconds (inclusive).
    pub start: f64,
    /// Window end, seconds (exclusive).
    pub end: f64,
    /// Round-trip multiplier inside the window (> 1 is a degradation; must
    /// be positive and finite).
    pub factor: f64,
}

impl WanDegradation {
    /// Whether a delivery at time `at` pays the degraded round trip.
    #[must_use]
    pub fn applies(&self, at: f64) -> bool {
        at >= self.start && at < self.end
    }

    /// Validates the window: finite non-negative times, `start < end`, a
    /// positive finite factor.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::InvalidParameter`] describing the first
    /// violated constraint.
    pub fn validate(&self) -> Result<(), PlatformError> {
        validate_span("WAN degradation window", self.start, self.end)?;
        if !(self.factor.is_finite() && self.factor > 0.0) {
            return Err(PlatformError::InvalidParameter {
                what: format!(
                    "WAN degradation factor must be positive (got {})",
                    self.factor
                ),
            });
        }
        Ok(())
    }
}

/// Rejects the span `[start, end)` of a `noun` (say, "slowdown window")
/// unless both times are finite, `start` is non-negative and `start < end`.
pub(crate) fn validate_span(noun: &str, start: f64, end: f64) -> Result<(), PlatformError> {
    if !(start.is_finite() && start >= 0.0 && end.is_finite()) {
        return Err(PlatformError::InvalidParameter {
            what: format!("{noun} times must be finite and non-negative (got [{start}, {end}))"),
        });
    }
    if start >= end {
        return Err(PlatformError::InvalidParameter {
            what: format!("{noun} must be non-empty (got [{start}, {end}))"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_window_applies_half_open() {
        let w = SlowdownWindow {
            node: NodeIndex(2),
            start: 1.0,
            end: 2.0,
            factor: 3.0,
        };
        assert!(w.validate().is_ok());
        assert!(w.applies(NodeIndex(2), 1.0));
        assert!(w.applies(NodeIndex(2), 1.5));
        assert!(!w.applies(NodeIndex(2), 2.0));
        assert!(!w.applies(NodeIndex(1), 1.5));
    }

    #[test]
    fn invalid_windows_are_rejected() {
        let base = SlowdownWindow {
            node: NodeIndex(0),
            start: 1.0,
            end: 2.0,
            factor: 2.0,
        };
        assert!(SlowdownWindow { end: 1.0, ..base }.validate().is_err());
        assert!(SlowdownWindow {
            factor: 0.0,
            ..base
        }
        .validate()
        .is_err());
        assert!(SlowdownWindow {
            start: f64::NAN,
            ..base
        }
        .validate()
        .is_err());
        let wan = WanDegradation {
            start: 0.0,
            end: 5.0,
            factor: 4.0,
        };
        assert!(wan.validate().is_ok());
        assert!(WanDegradation { end: 0.0, ..wan }.validate().is_err());
        assert!(WanDegradation {
            factor: f64::INFINITY,
            ..wan
        }
        .validate()
        .is_err());
    }
}
