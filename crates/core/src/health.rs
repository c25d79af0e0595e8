//! The graceful-degradation ladder.
//!
//! Under chaos the platform never falls over — it climbs down a
//! ladder, one explicit rung at a time, and climbs back up when the
//! network recovers:
//!
//! 1. [`HealthState::Healthy`] — personalized slots are fetched over
//!    unicast and played as packed.
//! 2. [`HealthState::Degraded`] — a unicast fetch failed or timed out;
//!    the player replays the last acknowledged schedule instead of the
//!    fresh one, and stale mobility models are reused when Tracking
//!    fixes are lost.
//! 3. [`HealthState::BroadcastOnly`] — repeated failures; the player
//!    abandons personalization and pins to the live broadcast until
//!    the link recovers.
//!
//! Transitions are hysteretic, like the bearer selector: one failure
//! is enough to step down, but several consecutive successes are
//! required to step back up, so a flapping link cannot make the player
//! oscillate.

use pphcr_geo::TimePoint;
use serde::{Deserialize, Serialize};

/// Consecutive failures before stepping down a second rung
/// (Degraded → `BroadcastOnly`).
pub const FAILS_TO_BROADCAST_ONLY: u32 = 3;

/// Consecutive successes required to climb one rung back up.
pub const OKS_TO_RECOVER: u32 = 4;

/// A listener's position on the degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HealthState {
    /// Full personalization over a working unicast link.
    Healthy,
    /// Delivery trouble: replaying the last acknowledged schedule.
    Degraded,
    /// Personalization suspended; pinned to the live broadcast.
    BroadcastOnly,
}

impl std::fmt::Display for HealthState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::BroadcastOnly => "broadcast-only",
        })
    }
}

/// Listeners per ladder rung, as reported by
/// [`crate::engine::Engine::health_counts`] and serialized into both
/// the platform snapshot and the observability snapshot's gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HealthCounts {
    /// Listeners on the [`HealthState::Healthy`] rung.
    pub healthy: u64,
    /// Listeners on the [`HealthState::Degraded`] rung.
    pub degraded: u64,
    /// Listeners on the [`HealthState::BroadcastOnly`] rung.
    pub broadcast_only: u64,
}

impl HealthCounts {
    /// Tallies an iterator of ladder positions.
    #[must_use]
    pub fn tally(states: impl Iterator<Item = HealthState>) -> Self {
        let mut counts = HealthCounts::default();
        for state in states {
            match state {
                HealthState::Healthy => counts.healthy += 1,
                HealthState::Degraded => counts.degraded += 1,
                HealthState::BroadcastOnly => counts.broadcast_only += 1,
            }
        }
        counts
    }
}

/// Per-listener health: ladder position, hysteresis streaks and
/// resilience counters surfaced on the dashboard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UserHealth {
    pub(crate) state: HealthState,
    pub(crate) fail_streak: u32,
    pub(crate) ok_streak: u32,
    /// When the state last changed.
    pub since: TimePoint,
    /// Unicast fetch failures or timeouts observed.
    pub fetch_failures: u64,
    /// Times the last-acknowledged schedule was replayed.
    pub replays: u64,
    /// Times a stale mobility model was reused for prediction.
    pub stale_model_reuses: u64,
    /// Duplicate deliveries filtered for this listener.
    pub dup_deliveries: u64,
    /// Ladder transitions (up or down).
    pub transitions: u64,
}

impl UserHealth {
    /// A fresh, healthy listener at `now`.
    #[must_use]
    pub fn new(now: TimePoint) -> Self {
        UserHealth {
            state: HealthState::Healthy,
            fail_streak: 0,
            ok_streak: 0,
            since: now,
            fetch_failures: 0,
            replays: 0,
            stale_model_reuses: 0,
            dup_deliveries: 0,
            transitions: 0,
        }
    }

    /// Current ladder position.
    #[must_use]
    pub fn state(&self) -> HealthState {
        self.state
    }

    fn transition(&mut self, to: HealthState, now: TimePoint) {
        if self.state != to {
            self.state = to;
            self.since = now;
            self.transitions += 1;
        }
    }

    /// Records a delivery failure (unicast fetch failed, delivery
    /// unacknowledged, …): one failure steps down to Degraded, a
    /// streak of [`FAILS_TO_BROADCAST_ONLY`] steps down to
    /// `BroadcastOnly`.
    pub fn record_failure(&mut self, now: TimePoint) {
        self.ok_streak = 0;
        self.fail_streak += 1;
        match self.state {
            HealthState::Healthy => self.transition(HealthState::Degraded, now),
            HealthState::Degraded if self.fail_streak >= FAILS_TO_BROADCAST_ONLY => {
                self.transition(HealthState::BroadcastOnly, now);
            }
            _ => {}
        }
    }

    /// Records a delivery success: a streak of [`OKS_TO_RECOVER`]
    /// climbs exactly one rung (hysteresis — recovery is gradual even
    /// if the link looks perfect again).
    pub fn record_success(&mut self, now: TimePoint) {
        self.fail_streak = 0;
        self.ok_streak += 1;
        if self.ok_streak >= OKS_TO_RECOVER {
            self.ok_streak = 0;
            match self.state {
                HealthState::BroadcastOnly => self.transition(HealthState::Degraded, now),
                HealthState::Degraded => self.transition(HealthState::Healthy, now),
                HealthState::Healthy => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_buckets_every_state() {
        let states = [
            HealthState::Healthy,
            HealthState::Degraded,
            HealthState::Healthy,
            HealthState::BroadcastOnly,
        ];
        let counts = HealthCounts::tally(states.into_iter());
        assert_eq!(counts, HealthCounts { healthy: 2, degraded: 1, broadcast_only: 1 });
    }

    #[test]
    fn one_failure_degrades() {
        let mut h = UserHealth::new(TimePoint(0));
        h.record_failure(TimePoint(10));
        assert_eq!(h.state(), HealthState::Degraded);
        assert_eq!(h.since, TimePoint(10));
    }

    #[test]
    fn failure_streak_reaches_broadcast_only() {
        let mut h = UserHealth::new(TimePoint(0));
        for i in 0..FAILS_TO_BROADCAST_ONLY {
            h.record_failure(TimePoint(u64::from(i)));
        }
        assert_eq!(h.state(), HealthState::BroadcastOnly);
    }

    #[test]
    fn recovery_climbs_one_rung_per_ok_streak() {
        let mut h = UserHealth::new(TimePoint(0));
        for i in 0..10 {
            h.record_failure(TimePoint(i));
        }
        assert_eq!(h.state(), HealthState::BroadcastOnly);
        for i in 10..(10 + u64::from(OKS_TO_RECOVER)) {
            h.record_success(TimePoint(i));
        }
        assert_eq!(h.state(), HealthState::Degraded, "one rung per streak");
        for i in 20..(20 + u64::from(OKS_TO_RECOVER)) {
            h.record_success(TimePoint(i));
        }
        assert_eq!(h.state(), HealthState::Healthy);
    }

    #[test]
    fn flapping_link_does_not_recover() {
        let mut h = UserHealth::new(TimePoint(0));
        for i in 0..3 {
            h.record_failure(TimePoint(i));
        }
        // ok, ok, fail, ok, ok, fail … never 4 in a row.
        for i in 0..20u64 {
            if i % 3 == 2 {
                h.record_failure(TimePoint(100 + i));
            } else {
                h.record_success(TimePoint(100 + i));
            }
        }
        assert_eq!(h.state(), HealthState::BroadcastOnly, "hysteresis holds the rung");
    }
}
