//! The two-phase proactivity model.
//!
//! The paper builds on Woerndl et al.'s model for proactivity in
//! mobile recommender systems (its reference [13]): phase 1 decides
//! *whether the current situation warrants a recommendation at all*,
//! phase 2 decides *what* to recommend. This module is phase 1. A
//! recommendation is triggered when:
//!
//! * a trip has started (sustained driving speed),
//! * the destination prediction is confident enough,
//! * the predicted remaining time ΔT is long enough to be worth
//!   interrupting,
//! * the driver is not currently inside a distraction zone,
//! * a cooldown since the previous proactive delivery has elapsed.

use crate::context::ListenerContext;
use pphcr_geo::{TimePoint, TimeSpan};
use serde::{Deserialize, Serialize};

/// Why the proactivity model fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Trigger {
    /// A predicted trip with enough remaining time started.
    TripStarted,
    /// An existing schedule ran dry mid-trip and can be refilled.
    ScheduleUnderrun,
}

impl Trigger {
    /// Every trigger.
    pub const ALL: [Trigger; 2] = [Trigger::TripStarted, Trigger::ScheduleUnderrun];

    /// Stable lower-kebab name used in the decision trace.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Trigger::TripStarted => "trip-started",
            Trigger::ScheduleUnderrun => "schedule-underrun",
        }
    }
}

/// Phase-1 configuration and state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProactivityModel {
    /// Minimum sustained driving time before acting.
    pub min_driving: TimeSpan,
    /// Minimum prediction confidence.
    pub min_confidence: f64,
    /// Minimum remaining ΔT worth interrupting for.
    pub min_delta_t: TimeSpan,
    /// Cooldown between proactive deliveries.
    pub cooldown: TimeSpan,
    driving_since: Option<TimePoint>,
    last_delivery: Option<TimePoint>,
}

impl Default for ProactivityModel {
    fn default() -> Self {
        ProactivityModel {
            min_driving: TimeSpan::minutes(2),
            min_confidence: 0.4,
            min_delta_t: TimeSpan::minutes(5),
            cooldown: TimeSpan::minutes(10),
            driving_since: None,
            last_delivery: None,
        }
    }
}

impl ProactivityModel {
    /// Feeds one context observation; returns a trigger when a
    /// proactive recommendation should be generated *now*.
    pub fn observe(&mut self, ctx: &ListenerContext) -> Option<Trigger> {
        // Track sustained driving.
        if ctx.is_driving() {
            self.driving_since.get_or_insert(ctx.now);
        } else {
            self.driving_since = None;
        }
        let driving_since = self.driving_since?;
        if ctx.now.since(driving_since) < self.min_driving {
            return None;
        }
        let drive = ctx.drive.as_ref()?;
        if drive.prediction.confidence < self.min_confidence {
            return None;
        }
        if drive.delta_t() < self.min_delta_t {
            return None;
        }
        // Not while threading a junction: a zone whose window starts at
        // 0 seconds from now means the driver is inside it.
        if drive.zone_windows().iter().any(|&(a, _)| a == 0) {
            return None;
        }
        if let Some(last) = self.last_delivery {
            if ctx.now.since(last) < self.cooldown {
                return None;
            }
        }
        self.last_delivery = Some(ctx.now);
        Some(Trigger::TripStarted)
    }

    /// Non-mutating peek: would [`Self::observe`] fire for `ctx`?
    /// Replicates the same gate sequence without touching the driving
    /// clock or the cooldown state, so batch pipelines can decide
    /// whether candidate generation is worth speculating for a user
    /// before the authoritative sequential `observe` call.
    #[must_use]
    pub fn would_trigger(&self, ctx: &ListenerContext) -> bool {
        let driving_since = if ctx.is_driving() {
            match self.driving_since {
                Some(t) => Some(t),
                None => Some(ctx.now),
            }
        } else {
            None
        };
        let Some(driving_since) = driving_since else { return false };
        if ctx.now.since(driving_since) < self.min_driving {
            return false;
        }
        let Some(drive) = ctx.drive.as_ref() else { return false };
        if drive.prediction.confidence < self.min_confidence {
            return false;
        }
        if drive.delta_t() < self.min_delta_t {
            return false;
        }
        if drive.zone_windows().iter().any(|&(a, _)| a == 0) {
            return false;
        }
        if let Some(last) = self.last_delivery {
            if ctx.now.since(last) < self.cooldown {
                return false;
            }
        }
        true
    }

    /// Resets the driving state (trip ended, app restarted).
    pub fn reset(&mut self) {
        self.driving_since = None;
    }

    /// When the model last fired.
    #[must_use]
    pub fn last_delivery(&self) -> Option<TimePoint> {
        self.last_delivery
    }

    /// When sustained driving began, if the model currently believes
    /// the listener is driving.
    #[must_use]
    pub fn driving_since(&self) -> Option<TimePoint> {
        self.driving_since
    }

    /// Restores the mutable trigger state after a snapshot reload.
    pub fn restore_state(
        &mut self,
        driving_since: Option<TimePoint>,
        last_delivery: Option<TimePoint>,
    ) {
        self.driving_since = driving_since;
        self.last_delivery = last_delivery;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{Ambient, DriveContext};
    use pphcr_geo::{DistractionZone, NodeId, NodeKind, ProjectedPoint};
    use pphcr_trajectory::TripPrediction;

    fn prediction(confidence: f64, remaining_min: u64) -> TripPrediction {
        TripPrediction {
            destination: 1,
            confidence,
            total_duration: TimeSpan::minutes(remaining_min + 2),
            remaining: TimeSpan::minutes(remaining_min),
            route_ahead: vec![
                ProjectedPoint::new(0.0, 0.0),
                ProjectedPoint::new(remaining_min as f64 * 600.0, 0.0),
            ],
            complexity: 1.0,
            posterior: vec![(1, confidence)],
        }
    }

    fn driving_ctx(t: TimePoint, confidence: f64, remaining_min: u64) -> ListenerContext {
        ListenerContext {
            now: t,
            position: Some(ProjectedPoint::new(0.0, 0.0)),
            speed_mps: 10.0,
            drive: Some(DriveContext::new(prediction(confidence, remaining_min), vec![])),
            ambient: Ambient::default(),
        }
    }

    #[test]
    fn fires_after_sustained_driving() {
        let mut model = ProactivityModel::default();
        let t0 = TimePoint::at(0, 8, 0, 0);
        assert_eq!(model.observe(&driving_ctx(t0, 0.8, 20)), None, "just started");
        assert_eq!(
            model.observe(&driving_ctx(t0.advance(TimeSpan::minutes(1)), 0.8, 20)),
            None,
            "still under min driving time"
        );
        assert_eq!(
            model.observe(&driving_ctx(t0.advance(TimeSpan::minutes(2)), 0.8, 19)),
            Some(Trigger::TripStarted)
        );
    }

    #[test]
    fn stop_resets_driving_clock() {
        let mut model = ProactivityModel::default();
        let t0 = TimePoint::at(0, 8, 0, 0);
        model.observe(&driving_ctx(t0, 0.8, 20));
        // Red light: speed 0.
        let mut stopped = driving_ctx(t0.advance(TimeSpan::minutes(1)), 0.8, 19);
        stopped.speed_mps = 0.0;
        assert_eq!(model.observe(&stopped), None);
        // Moving again: the 2-minute clock restarts.
        let t2 = t0.advance(TimeSpan::minutes(2));
        assert_eq!(model.observe(&driving_ctx(t2, 0.8, 18)), None);
        let t4 = t0.advance(TimeSpan::minutes(4));
        assert_eq!(model.observe(&driving_ctx(t4, 0.8, 16)), Some(Trigger::TripStarted));
    }

    #[test]
    fn low_confidence_blocks() {
        let mut model = ProactivityModel::default();
        let t0 = TimePoint::at(0, 8, 0, 0);
        model.observe(&driving_ctx(t0, 0.2, 20));
        assert_eq!(model.observe(&driving_ctx(t0.advance(TimeSpan::minutes(3)), 0.2, 17)), None);
    }

    #[test]
    fn short_delta_t_blocks() {
        let mut model = ProactivityModel::default();
        let t0 = TimePoint::at(0, 8, 0, 0);
        model.observe(&driving_ctx(t0, 0.9, 4));
        assert_eq!(model.observe(&driving_ctx(t0.advance(TimeSpan::minutes(3)), 0.9, 4)), None);
    }

    #[test]
    fn cooldown_prevents_rapid_refire() {
        let mut model = ProactivityModel::default();
        let t0 = TimePoint::at(0, 8, 0, 0);
        model.observe(&driving_ctx(t0, 0.8, 30));
        let t3 = t0.advance(TimeSpan::minutes(3));
        assert_eq!(model.observe(&driving_ctx(t3, 0.8, 27)), Some(Trigger::TripStarted));
        let t5 = t0.advance(TimeSpan::minutes(5));
        assert_eq!(model.observe(&driving_ctx(t5, 0.8, 25)), None, "cooldown");
        let t14 = t0.advance(TimeSpan::minutes(14));
        assert_eq!(
            model.observe(&driving_ctx(t14, 0.8, 16)),
            Some(Trigger::TripStarted),
            "cooldown elapsed"
        );
    }

    #[test]
    fn no_drive_context_blocks() {
        let mut model = ProactivityModel::default();
        let t0 = TimePoint::at(0, 8, 0, 0);
        let mut ctx = ListenerContext::stationary(t0);
        ctx.speed_mps = 10.0; // moving but unpredicted
        model.observe(&ctx);
        let mut later = ListenerContext::stationary(t0.advance(TimeSpan::minutes(3)));
        later.speed_mps = 10.0;
        assert_eq!(model.observe(&later), None);
    }

    #[test]
    fn would_trigger_peek_matches_observe_without_mutating() {
        let mut model = ProactivityModel::default();
        let t0 = TimePoint::at(0, 8, 0, 0);
        // Peek repeatedly before any observe: must not start the
        // driving clock.
        for _ in 0..3 {
            assert!(!model.would_trigger(&driving_ctx(t0, 0.8, 20)));
        }
        assert_eq!(model.observe(&driving_ctx(t0, 0.8, 20)), None);
        let steps = [
            (1u64, 0.8, 20u64),
            (2, 0.8, 19),
            (3, 0.2, 18), // confidence dip
            (4, 0.8, 17),
            (5, 0.8, 16), // inside cooldown after the minute-2 fire
            (13, 0.8, 8),
        ];
        for (min, conf, rem) in steps {
            let ctx = driving_ctx(t0.advance(TimeSpan::minutes(min)), conf, rem);
            let predicted = model.would_trigger(&ctx);
            let fired = model.observe(&ctx).is_some();
            assert_eq!(predicted, fired, "peek disagrees with observe at minute {min}");
        }
    }

    #[test]
    fn inside_zone_blocks() {
        let mut model = ProactivityModel::default();
        let t0 = TimePoint::at(0, 8, 0, 0);
        // A zone starting right here (0 m along).
        let zones = vec![DistractionZone {
            node: NodeId(0),
            kind: NodeKind::Roundabout,
            start_m: 0.0,
            end_m: 80.0,
        }];
        let mk = |t| ListenerContext {
            now: t,
            position: Some(ProjectedPoint::new(0.0, 0.0)),
            speed_mps: 10.0,
            drive: Some(DriveContext::new(prediction(0.9, 20), zones.clone())),
            ambient: Ambient::default(),
        };
        model.observe(&mk(t0));
        assert_eq!(model.observe(&mk(t0.advance(TimeSpan::minutes(3)))), None);
    }
}
