//! The unified engine mutation surface.
//!
//! [`EngineCommand`] is the *one* shape every externally-driven engine
//! mutation takes. Historically each mutation was its own method on
//! [`Engine`](crate::Engine) (`register_user`, `change_service`, …)
//! and the WAL mirrored them with a parallel `WalOp` enum; three
//! consumers — the durable write-ahead path, WAL replay, and now the
//! multi-process shard router — each had to enumerate that per-method
//! RPC zoo independently. This module collapses the three surfaces
//! into one:
//!
//! * the typed command enum below (the former `WalOp`, which is now an
//!   alias for it),
//! * a single entry point, [`Engine::apply`](crate::Engine::apply),
//!   that executes any command,
//! * one binary codec in [`persist::wal`](crate::persist) — the same
//!   `[seq][kind][body]` payload whether the bytes are headed for a
//!   WAL file or a shard agent's stdin.
//!
//! The named methods remain as thin wrappers (they are the readable
//! call-site spelling), but `DurableEngine`, `restore_engine` and the
//! `pphcr-shard` router all forward `EngineCommand` values and nothing
//! else. The set is closed: replaying a command log reproduces the
//! engine bit-for-bit, which is what the crash-recovery sweep and the
//! shard differential test both pin.

use pphcr_audio::ClipId;
use pphcr_catalog::{CategoryId, ClipKind, Gazetteer, GeoTag, ServiceIndex};
use pphcr_geo::{RoadNetwork, TimePoint, TimeSpan};
use pphcr_trajectory::GpsFix;
use pphcr_userdata::{FeedbackEvent, UserId, UserProfile};

/// One engine mutation. The set is closed: every externally-driven
/// mutation of the engine flows through exactly one of these (via
/// [`Engine::apply`](crate::Engine::apply)), so a replayed command log
/// reproduces the engine bit-for-bit and a shard router can forward
/// commands without knowing what they do.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineCommand {
    /// `Engine::register_user`.
    RegisterUser {
        /// The listener profile being registered (or re-registered).
        profile: UserProfile,
        /// Logical time of the registration.
        now: TimePoint,
    },
    /// `Engine::change_service`.
    ChangeService {
        /// The listener switching service.
        user: UserId,
        /// Target service index in the line-up.
        service: ServiceIndex,
        /// Logical time of the switch.
        now: TimePoint,
    },
    /// `Engine::train_classifier`.
    TrainClassifier {
        /// Category the document is labelled with.
        category: CategoryId,
        /// Transcript tokens of the training document.
        tokens: Vec<String>,
    },
    /// `Engine::ingest_clip`.
    IngestClip {
        /// Clip title.
        title: String,
        /// Clip kind.
        kind: ClipKind,
        /// Clip duration.
        duration: TimeSpan,
        /// Publication time.
        published: TimePoint,
        /// Optional geo-reference.
        geo: Option<GeoTag>,
        /// Transcript tokens.
        tokens: Vec<String>,
        /// Editorial category override, if any.
        editorial: Option<CategoryId>,
    },
    /// `Engine::record_fix`.
    RecordFix {
        /// The listener the fix belongs to.
        user: UserId,
        /// The GPS fix.
        fix: GpsFix,
    },
    /// `Engine::record_feedback`.
    RecordFeedback {
        /// The feedback event.
        event: FeedbackEvent,
    },
    /// `Engine::inject`.
    Inject {
        /// Target listener.
        user: UserId,
        /// Clip to inject.
        clip: ClipId,
        /// Submission time.
        at: TimePoint,
        /// Editor's note.
        note: String,
    },
    /// `Engine::skip`.
    Skip {
        /// The listener pressing skip.
        user: UserId,
        /// Logical time of the skip.
        now: TimePoint,
    },
    /// `Engine::run_tick`.
    Tick {
        /// Users ticked this round.
        users: Vec<UserId>,
        /// Logical time of the tick.
        now: TimePoint,
        /// Whether the batch (sharded) path was requested.
        batch: bool,
        /// Explicit worker count, if pinned.
        workers: Option<u64>,
    },
    /// `Engine::advance_player` — steps one listener's player against
    /// the broadcast schedule and feeds the resulting player events
    /// (feedback, clip-started bookkeeping) back into the engine.
    ///
    /// This is the durable replacement for the historical `player_mut`
    /// escape hatch: driving a player through a command keeps the
    /// mutation inside the append-before-apply envelope, so player
    /// state survives crash recovery like every other store.
    AdvancePlayer {
        /// The listener whose player advances.
        user: UserId,
        /// Logical time the player advances to.
        now: TimePoint,
    },
    /// `Engine::set_road_network` — attaches the road network used for
    /// distraction zones.
    SetRoadNetwork {
        /// The directed weighted road graph.
        network: RoadNetwork,
    },
    /// `Engine::set_gazetteer` — attaches the gazetteer used to
    /// geo-tag untagged archive clips from their transcripts.
    SetGazetteer {
        /// The place-name dictionary.
        gazetteer: Gazetteer,
    },
}

impl EngineCommand {
    /// The single listener this command targets, when it targets one.
    ///
    /// This is the shard router's partition key: a `Some(user)` command
    /// is routed to `splitmix64(user) % N`; a `None` command (catalog
    /// and environment mutations, batch ticks) is broadcast to every
    /// shard so replicated state stays identical across the fleet.
    #[must_use]
    pub fn target_user(&self) -> Option<UserId> {
        match self {
            EngineCommand::RegisterUser { profile, .. } => Some(profile.id),
            EngineCommand::ChangeService { user, .. }
            | EngineCommand::RecordFix { user, .. }
            | EngineCommand::Inject { user, .. }
            | EngineCommand::Skip { user, .. }
            | EngineCommand::AdvancePlayer { user, .. } => Some(*user),
            EngineCommand::RecordFeedback { event } => Some(event.user),
            EngineCommand::TrainClassifier { .. }
            | EngineCommand::IngestClip { .. }
            | EngineCommand::Tick { .. }
            | EngineCommand::SetRoadNetwork { .. }
            | EngineCommand::SetGazetteer { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pphcr_userdata::AgeBand;

    #[test]
    fn target_user_routes_user_commands_and_broadcasts_the_rest() {
        let u = UserId(9);
        let targeted = [
            EngineCommand::ChangeService { user: u, service: ServiceIndex(1), now: TimePoint(0) },
            EngineCommand::Skip { user: u, now: TimePoint(0) },
            EngineCommand::AdvancePlayer { user: u, now: TimePoint(0) },
            EngineCommand::Inject { user: u, clip: ClipId(1), at: TimePoint(0), note: "n".into() },
        ];
        for cmd in targeted {
            assert_eq!(cmd.target_user(), Some(u), "{cmd:?}");
        }
        let profile = UserProfile {
            id: u,
            name: "Greg".into(),
            age_band: AgeBand::Adult,
            favourite_service: ServiceIndex(0),
        };
        assert_eq!(
            EngineCommand::RegisterUser { profile, now: TimePoint(0) }.target_user(),
            Some(u)
        );
        let broadcast = [
            EngineCommand::TrainClassifier { category: CategoryId(1), tokens: vec![] },
            EngineCommand::Tick { users: vec![u], now: TimePoint(0), batch: true, workers: None },
            EngineCommand::SetRoadNetwork { network: RoadNetwork::new() },
            EngineCommand::SetGazetteer { gazetteer: Gazetteer::new() },
        ];
        for cmd in broadcast {
            assert_eq!(cmd.target_user(), None, "{cmd:?}");
        }
    }
}
