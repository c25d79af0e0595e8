//! The client session state machine.
//!
//! Models the PPHCR Android app of §1.3: "The listener can choose one
//! of the live radio services, change service, pause, or skip content.
//! While the user is listening to the service, a positive implicit
//! feedback is periodically sent for that audio content. In contrast,
//! each skip action generates a negative feedback."
//!
//! The player is a deterministic state machine driven by `tick(now)`:
//! it advances playback (live → clip → time-shifted live), maintains
//! the accumulated displacement, and emits the feedback events the
//! paper describes.

use pphcr_audio::ClipId;
use pphcr_catalog::{CategoryId, Schedule, ServiceIndex};
use pphcr_geo::{TimePoint, TimeSpan};
use pphcr_userdata::{FeedbackEvent, FeedbackKind, UserId};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A clip queued for playback.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QueuedClip {
    /// The clip.
    pub clip: ClipId,
    /// Its duration.
    pub duration: TimeSpan,
    /// Its category (for feedback attribution).
    pub category: CategoryId,
}

/// What the player is currently doing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PlaybackMode {
    /// Live stream in real time.
    Live,
    /// Playing a recommended clip.
    Clip {
        /// The clip.
        clip: QueuedClip,
        /// When it started.
        started: TimePoint,
    },
    /// Live stream delayed by the accumulated displacement.
    Shifted,
    /// Paused.
    Paused,
}

/// Events the player emits towards the platform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PlayerEvent {
    /// Feedback to record (implicit or explicit).
    Feedback(FeedbackEvent),
    /// A clip started playing.
    ClipStarted(ClipId),
    /// A clip finished naturally.
    ClipFinished(ClipId),
    /// Playback returned to the (possibly shifted) live stream.
    ResumedLive {
        /// Accumulated displacement behind real time.
        shifted: TimeSpan,
    },
    /// The listener changed service (channel surf).
    ChangedService(ServiceIndex),
}

/// The client player.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Player {
    /// The listener.
    pub user: UserId,
    pub(crate) service: ServiceIndex,
    pub(crate) mode: PlaybackMode,
    pub(crate) queue: VecDeque<QueuedClip>,
    pub(crate) displacement: TimeSpan,
    /// Implicit positive feedback cadence while listening.
    pub(crate) feedback_period: TimeSpan,
    pub(crate) last_feedback: TimePoint,
    pub(crate) skips: u32,
    pub(crate) surfs: u32,
}

impl Player {
    /// Creates a player tuned to `service`.
    #[must_use]
    pub fn new(user: UserId, service: ServiceIndex, now: TimePoint) -> Self {
        Player {
            user,
            service,
            mode: PlaybackMode::Live,
            queue: VecDeque::new(),
            displacement: TimeSpan::ZERO,
            feedback_period: TimeSpan::minutes(2),
            last_feedback: now,
            skips: 0,
            surfs: 0,
        }
    }

    /// Current playback mode.
    #[must_use]
    pub fn mode(&self) -> PlaybackMode {
        self.mode
    }

    /// Accumulated displacement behind real time.
    #[must_use]
    // lint: allow(dead) — tests/failure_injection.rs::queue_underflow_resumes_live checks the shifted resume through it
    pub fn displacement(&self) -> TimeSpan {
        self.displacement
    }

    /// Queued clips not yet played.
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Lifetime counters: (skips, channel surfs).
    #[must_use]
    pub fn counters(&self) -> (u32, u32) {
        (self.skips, self.surfs)
    }

    /// Enqueues recommended clips (end of queue).
    pub fn enqueue(&mut self, clips: impl IntoIterator<Item = QueuedClip>) {
        self.queue.extend(clips);
    }

    /// Pushes an injected clip to the *front* of the queue (editorial
    /// injections outrank organic recommendations).
    pub fn enqueue_front(&mut self, clip: QueuedClip) {
        self.queue.push_front(clip);
    }

    /// Advances playback to `now`, returning emitted events.
    pub fn tick(&mut self, now: TimePoint, epg: &Schedule) -> Vec<PlayerEvent> {
        let mut events = Vec::new();
        // Finish clips that ran out.
        if let PlaybackMode::Clip { clip, started } = self.mode {
            let end = started.advance(clip.duration);
            if now >= end {
                self.displacement = self.displacement.plus(clip.duration);
                events.push(PlayerEvent::ClipFinished(clip.clip));
                events.push(PlayerEvent::Feedback(FeedbackEvent {
                    user: self.user,
                    clip: Some(clip.clip),
                    category: clip.category,
                    kind: FeedbackKind::ListenedThrough,
                    time: end,
                }));
                self.start_next(end, &mut events);
            }
        }
        // Start queued content when idle on (possibly shifted) live and
        // something is queued.
        if matches!(self.mode, PlaybackMode::Live | PlaybackMode::Shifted) && !self.queue.is_empty()
        {
            self.start_next(now, &mut events);
        }
        // Periodic implicit positive feedback for whatever is playing.
        // Catch up in one step across spans where no period can emit:
        // off the clip queue with an empty EPG there is no audible
        // category, so each elapsed period would only advance the
        // marker. A player first ticked days after registration
        // otherwise walks every idle 2-minute period one at a time —
        // at fleet scale that serial catch-up dwarfs the tick itself.
        if epg.is_empty() && !matches!(self.mode, PlaybackMode::Clip { .. }) {
            let period_s = self.feedback_period.as_seconds().max(1);
            let whole = now.since(self.last_feedback).as_seconds() / period_s;
            self.last_feedback = self.last_feedback.advance(TimeSpan::seconds(whole * period_s));
        }
        while now.since(self.last_feedback) >= self.feedback_period {
            self.last_feedback = self.last_feedback.advance(self.feedback_period);
            if let Some(category) = self.current_category(self.last_feedback, epg) {
                let clip = match self.mode {
                    PlaybackMode::Clip { clip, .. } => Some(clip.clip),
                    _ => None,
                };
                events.push(PlayerEvent::Feedback(FeedbackEvent {
                    user: self.user,
                    clip,
                    category,
                    kind: FeedbackKind::PartialListen(1.0),
                    time: self.last_feedback,
                }));
            }
        }
        events
    }

    fn start_next(&mut self, at: TimePoint, events: &mut Vec<PlayerEvent>) {
        match self.queue.pop_front() {
            Some(next) => {
                self.mode = PlaybackMode::Clip { clip: next, started: at };
                events.push(PlayerEvent::ClipStarted(next.clip));
            }
            None => {
                self.mode = if self.displacement.is_zero() {
                    PlaybackMode::Live
                } else {
                    PlaybackMode::Shifted
                };
                events.push(PlayerEvent::ResumedLive { shifted: self.displacement });
            }
        }
    }

    /// The category audible right now (clip category, or the EPG
    /// programme's at the shifted stream time).
    fn current_category(&self, now: TimePoint, epg: &Schedule) -> Option<CategoryId> {
        match self.mode {
            PlaybackMode::Clip { clip, .. } => Some(clip.category),
            PlaybackMode::Live => epg.programme_at(self.service, now).map(|p| p.category),
            PlaybackMode::Shifted => {
                epg.programme_at(self.service, now.rewind(self.displacement)).map(|p| p.category)
            }
            PlaybackMode::Paused => None,
        }
    }

    /// Skip: negative feedback for the current content, then advance —
    /// to the next queued clip, or past the current live programme
    /// (which is only possible because of buffering; the displacement
    /// does not change when skipping *forward* on live, it changes when
    /// clips displace live audio).
    pub fn skip(&mut self, now: TimePoint, epg: &Schedule) -> Vec<PlayerEvent> {
        let mut events = Vec::new();
        self.skips += 1;
        if let Some(category) = self.current_category(now, epg) {
            let clip = match self.mode {
                PlaybackMode::Clip { clip, .. } => Some(clip.clip),
                _ => None,
            };
            events.push(PlayerEvent::Feedback(FeedbackEvent {
                user: self.user,
                clip,
                category,
                kind: FeedbackKind::Skip,
                time: now,
            }));
        }
        self.start_next(now, &mut events);
        events
    }

    /// Graceful-degradation fallback: personalization is suspended, so
    /// drop the queue and pin to the real-time live stream of the
    /// *current* service. Unlike [`Player::change_service`] this is not
    /// a listener action — no surf is counted.
    pub fn fallback_live(&mut self) {
        self.mode = PlaybackMode::Live;
        self.displacement = TimeSpan::ZERO;
        self.queue.clear();
    }

    /// Channel surf: tune to another service, dropping queue, shift and
    /// buffered audio (the paper's behaviour PPHCR tries to prevent).
    pub fn change_service(&mut self, service: ServiceIndex) -> PlayerEvent {
        self.surfs += 1;
        self.service = service;
        self.mode = PlaybackMode::Live;
        self.displacement = TimeSpan::ZERO;
        self.queue.clear();
        PlayerEvent::ChangedService(service)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pphcr_catalog::{Programme, ProgrammeId};
    use pphcr_geo::time::TimeInterval;

    fn epg() -> Schedule {
        let mut s = Schedule::new();
        s.add(Programme {
            id: ProgrammeId(1),
            service: ServiceIndex(0),
            title: "Morning talk".into(),
            category: CategoryId::new(5), // football
            interval: TimeInterval::new(TimePoint::at(0, 8, 0, 0), TimePoint::at(0, 12, 0, 0)),
        })
        .unwrap();
        s
    }

    fn clip(id: u64, minutes: u64, cat: u16) -> QueuedClip {
        QueuedClip {
            clip: ClipId(id),
            duration: TimeSpan::minutes(minutes),
            category: CategoryId::new(cat),
        }
    }

    #[test]
    fn clip_lifecycle_and_displacement() {
        let epg = epg();
        let t0 = TimePoint::at(0, 9, 0, 0);
        let mut p = Player::new(UserId(1), ServiceIndex(0), t0);
        assert_eq!(p.mode(), PlaybackMode::Live);
        p.enqueue([clip(1, 10, 8)]);
        let ev = p.tick(t0, &epg);
        assert!(ev.contains(&PlayerEvent::ClipStarted(ClipId(1))));
        // Mid-clip.
        let ev = p.tick(t0.advance(TimeSpan::minutes(5)), &epg);
        assert!(matches!(p.mode(), PlaybackMode::Clip { .. }));
        assert!(ev
            .iter()
            .any(|e| matches!(e, PlayerEvent::Feedback(f) if matches!(f.kind, FeedbackKind::PartialListen(_)))));
        // Past the end: finished + listened-through + shifted resume.
        let ev = p.tick(t0.advance(TimeSpan::minutes(10)), &epg);
        assert!(ev.contains(&PlayerEvent::ClipFinished(ClipId(1))));
        assert!(ev.iter().any(
            |e| matches!(e, PlayerEvent::Feedback(f) if f.kind == FeedbackKind::ListenedThrough)
        ));
        assert!(ev.contains(&PlayerEvent::ResumedLive { shifted: TimeSpan::minutes(10) }));
        assert_eq!(p.mode(), PlaybackMode::Shifted);
        assert_eq!(p.displacement(), TimeSpan::minutes(10));
    }

    #[test]
    fn skip_generates_negative_feedback_and_advances() {
        let epg = epg();
        let t0 = TimePoint::at(0, 9, 0, 0);
        let mut p = Player::new(UserId(1), ServiceIndex(0), t0);
        p.enqueue([clip(1, 10, 8), clip(2, 5, 9)]);
        p.tick(t0, &epg);
        let ev = p.skip(t0.advance(TimeSpan::minutes(2)), &epg);
        let fb = ev
            .iter()
            .find_map(|e| match e {
                PlayerEvent::Feedback(f) => Some(f),
                _ => None,
            })
            .unwrap();
        assert_eq!(fb.kind, FeedbackKind::Skip);
        assert_eq!(fb.clip, Some(ClipId(1)));
        assert!(ev.contains(&PlayerEvent::ClipStarted(ClipId(2))));
        assert_eq!(p.counters().0, 1);
    }

    #[test]
    fn skip_on_live_uses_programme_category() {
        let epg = epg();
        let t0 = TimePoint::at(0, 9, 0, 0);
        let mut p = Player::new(UserId(7), ServiceIndex(0), t0);
        let ev = p.skip(t0, &epg);
        let fb = ev
            .iter()
            .find_map(|e| match e {
                PlayerEvent::Feedback(f) => Some(f),
                _ => None,
            })
            .unwrap();
        assert_eq!(fb.category, CategoryId::new(5), "football programme skipped");
        assert_eq!(fb.clip, None);
    }

    #[test]
    fn periodic_feedback_cadence() {
        let epg = epg();
        let t0 = TimePoint::at(0, 9, 0, 0);
        let mut p = Player::new(UserId(1), ServiceIndex(0), t0);
        // 10 minutes of live listening at 2-minute cadence → 5 events.
        let ev = p.tick(t0.advance(TimeSpan::minutes(10)), &epg);
        let n = ev
            .iter()
            .filter(|e| matches!(e, PlayerEvent::Feedback(f) if matches!(f.kind, FeedbackKind::PartialListen(_))))
            .count();
        assert_eq!(n, 5);
        // No double emission on a second tick at the same instant.
        let again = p.tick(t0.advance(TimeSpan::minutes(10)), &epg);
        assert!(again.is_empty());
    }

    #[test]
    fn change_service_resets_session() {
        let epg = epg();
        let t0 = TimePoint::at(0, 9, 0, 0);
        let mut p = Player::new(UserId(1), ServiceIndex(0), t0);
        p.enqueue([clip(1, 10, 8)]);
        p.tick(t0, &epg);
        p.tick(t0.advance(TimeSpan::minutes(10)), &epg);
        assert!(!p.displacement().is_zero());
        let ev = p.change_service(ServiceIndex(3));
        assert_eq!(ev, PlayerEvent::ChangedService(ServiceIndex(3)));
        assert_eq!(p.displacement(), TimeSpan::ZERO);
        assert_eq!(p.queue_len(), 0);
        assert_eq!(p.mode(), PlaybackMode::Live);
        assert_eq!(p.counters().1, 1);
    }

    #[test]
    fn injected_clip_jumps_the_queue() {
        let epg = epg();
        let t0 = TimePoint::at(0, 9, 0, 0);
        let mut p = Player::new(UserId(1), ServiceIndex(0), t0);
        p.enqueue([clip(1, 5, 8), clip(2, 5, 9)]);
        p.enqueue_front(clip(99, 3, 0));
        let ev = p.tick(t0, &epg);
        assert!(ev.contains(&PlayerEvent::ClipStarted(ClipId(99))));
    }

    #[test]
    fn empty_queue_live_stays_live() {
        let epg = epg();
        let t0 = TimePoint::at(0, 9, 0, 0);
        let mut p = Player::new(UserId(1), ServiceIndex(0), t0);
        let ev = p.tick(t0.advance(TimeSpan::seconds(30)), &epg);
        assert!(ev.is_empty());
        assert_eq!(p.mode(), PlaybackMode::Live);
    }
}
