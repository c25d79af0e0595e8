//! Platform snapshots: one structured view of the whole engine state
//! for operations and the dashboard's header bar.
//!
//! The original deployment exposed its health through the control
//! website; here a [`PlatformSnapshot`] carries the same numbers as a
//! serializable value (JSON via [`pphcr_obs::json`]), so an operator —
//! or a test — can diff two snapshots and see what a scenario did to
//! the platform.

use crate::bus::Topic;
use crate::engine::Engine;
use crate::health::HealthCounts;
use pphcr_geo::TimePoint;
use pphcr_obs::json::JsonWriter;
use serde::{Deserialize, Serialize};

/// Aggregate platform statistics at one instant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlatformSnapshot {
    /// When the snapshot was taken (simulation clock).
    pub at: TimePoint,
    /// Registered listeners.
    pub users: usize,
    /// Clips in the repository.
    pub clips: usize,
    /// Scheduled programmes in the EPG.
    pub programmes: usize,
    /// Live services.
    pub services: usize,
    /// Stored GPS fixes.
    pub fixes: usize,
    /// Invalid fixes dropped.
    pub fixes_dropped: u64,
    /// Classifier training documents seen.
    pub classifier_docs: u64,
    /// Bus messages published / delivered.
    pub bus_published: u64,
    /// Bus messages delivered.
    pub bus_delivered: u64,
    /// Pending bus messages per topic of interest.
    pub pending_recommendations: usize,
    /// Editorial injections: (submitted, delivered).
    pub injections: (u64, u64),
    /// Closed listening sessions.
    pub sessions_closed: u64,
    /// Proactive decisions made.
    pub decisions: usize,
    /// Messages in the bus's dead-letter store.
    pub dead_letters: usize,
    /// Messages evicted from bounded queues (drop-oldest policy).
    pub bus_overflowed: u64,
    /// Publishes refused by bounded queues (reject policy).
    pub bus_rejected: u64,
    /// Messages lost on the wire.
    pub wire_dropped: u64,
    /// Extra copies created on the wire.
    pub wire_duplicated: u64,
    /// Delivery retries performed.
    pub delivery_retries: u64,
    /// Wire duplicates filtered before application.
    pub duplicates_filtered: u64,
    /// Listeners per ladder rung.
    pub health: HealthCounts,
}

impl PlatformSnapshot {
    /// Captures the engine's current state.
    #[must_use]
    pub fn capture(engine: &Engine, at: TimePoint) -> Self {
        PlatformSnapshot {
            at,
            users: engine.profiles.len(),
            clips: engine.repo.len(),
            programmes: engine.epg.len(),
            services: engine.services.len(),
            fixes: engine.tracking.total_fixes(),
            fixes_dropped: engine.tracking.dropped_invalid(),
            classifier_docs: engine.classifier_docs(),
            bus_published: engine.bus.published(),
            bus_delivered: engine.bus.delivered(),
            pending_recommendations: engine.bus.pending(Topic::Recommendation),
            injections: engine.injections.counters(),
            sessions_closed: engine.sessions_closed,
            decisions: engine.decisions().len(),
            dead_letters: engine.bus.dead_letters().len(),
            bus_overflowed: engine.bus.overflowed(),
            bus_rejected: engine.bus.rejected(),
            wire_dropped: engine.bus.wire_stats().dropped,
            wire_duplicated: engine.bus.wire_stats().duplicated,
            delivery_retries: engine.delivery.retries(),
            duplicates_filtered: engine.delivery.duplicates_filtered(),
            health: engine.health_counts(),
        }
    }

    /// Serializes to pretty JSON (the dashboard's export format).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_u64("at", self.at.seconds());
        w.field_u64("users", self.users as u64);
        w.field_u64("clips", self.clips as u64);
        w.field_u64("programmes", self.programmes as u64);
        w.field_u64("services", self.services as u64);
        w.field_u64("fixes", self.fixes as u64);
        w.field_u64("fixes_dropped", self.fixes_dropped);
        w.field_u64("classifier_docs", self.classifier_docs);
        w.field_u64("bus_published", self.bus_published);
        w.field_u64("bus_delivered", self.bus_delivered);
        w.field_u64("pending_recommendations", self.pending_recommendations as u64);
        w.begin_named_array("injections");
        w.item_u64(self.injections.0).item_u64(self.injections.1);
        w.end_array();
        w.field_u64("sessions_closed", self.sessions_closed);
        w.field_u64("decisions", self.decisions as u64);
        w.field_u64("dead_letters", self.dead_letters as u64);
        w.field_u64("bus_overflowed", self.bus_overflowed);
        w.field_u64("bus_rejected", self.bus_rejected);
        w.field_u64("wire_dropped", self.wire_dropped);
        w.field_u64("wire_duplicated", self.wire_duplicated);
        w.field_u64("delivery_retries", self.delivery_retries);
        w.field_u64("duplicates_filtered", self.duplicates_filtered);
        w.begin_named_array("health");
        w.item_u64(self.health.healthy)
            .item_u64(self.health.degraded)
            .item_u64(self.health.broadcast_only);
        w.end_array();
        w.end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use pphcr_catalog::{CategoryId, ClipKind, ServiceIndex};
    use pphcr_geo::TimeSpan;
    use pphcr_userdata::{AgeBand, UserId, UserProfile};

    fn populated_engine() -> Engine {
        let mut e = Engine::new(EngineConfig::default());
        let t = TimePoint::at(0, 8, 0, 0);
        e.register_user(
            UserProfile {
                id: UserId(1),
                name: "u".into(),
                age_band: AgeBand::Adult,
                favourite_service: ServiceIndex(0),
            },
            t,
        );
        for i in 0..3u64 {
            e.ingest_clip(
                format!("c{i}"),
                ClipKind::Podcast,
                TimeSpan::minutes(5),
                t,
                None,
                &[],
                Some(CategoryId::new(1)),
            );
        }
        e
    }

    #[test]
    fn capture_counts_platform_state() {
        let e = populated_engine();
        let snap = PlatformSnapshot::capture(&e, TimePoint::at(0, 9, 0, 0));
        assert_eq!(snap.users, 1);
        assert_eq!(snap.clips, 3);
        assert_eq!(snap.services, 10);
        assert!(snap.bus_published >= 4, "tune + 3 ingests: {}", snap.bus_published);
        assert_eq!(snap.decisions, 0);
        assert_eq!(
            snap.health,
            HealthCounts { healthy: 1, degraded: 0, broadcast_only: 0 },
            "one healthy listener"
        );
        assert_eq!(snap.dead_letters, 0);
        assert_eq!(snap.wire_dropped, 0);
    }

    #[test]
    fn json_round_trip() {
        let e = populated_engine();
        let snap = PlatformSnapshot::capture(&e, TimePoint::at(0, 9, 0, 0));
        let json = snap.to_json();
        assert_eq!(json, PLATFORM_JSON);
    }

    #[test]
    fn snapshots_diff_after_activity() {
        let mut e = populated_engine();
        let before = PlatformSnapshot::capture(&e, TimePoint::at(0, 9, 0, 0));
        let t = TimePoint::at(0, 9, 30, 0);
        // First skip queues reactive content; the second skips a playing
        // clip, which emits feedback onto the bus.
        e.skip(UserId(1), t);
        e.skip(UserId(1), t.advance(TimeSpan::seconds(30)));
        let after = PlatformSnapshot::capture(&e, t.advance(TimeSpan::seconds(30)));
        assert!(after.bus_published > before.bus_published);
    }

    /// `to_json` of the `json_round_trip` snapshot, byte for byte.
    const PLATFORM_JSON: &str = r#"{
  "at": 32400,
  "users": 1,
  "clips": 3,
  "programmes": 0,
  "services": 10,
  "fixes": 0,
  "fixes_dropped": 0,
  "classifier_docs": 0,
  "bus_published": 4,
  "bus_delivered": 0,
  "pending_recommendations": 0,
  "injections": [
    0,
    0
  ],
  "sessions_closed": 0,
  "decisions": 0,
  "dead_letters": 0,
  "bus_overflowed": 0,
  "bus_rejected": 0,
  "wire_dropped": 0,
  "wire_duplicated": 0,
  "delivery_retries": 0,
  "duplicates_filtered": 0,
  "health": [
    1,
    0,
    0
  ]
}"#;
}
