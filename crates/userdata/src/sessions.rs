//! Listening-session logs.
//!
//! The feedbacks DB holds per-item events; the *session* log holds the
//! unit the dashboard and the evaluation reason about: one continuous
//! listening spell on one service — when it started and ended, what
//! played, how often the listener skipped, and whether the session
//! ended in a channel surf (the outcome PPHCR exists to prevent).

use crate::profile::UserId;
use pphcr_audio::ClipId;
use pphcr_catalog::ServiceIndex;
use pphcr_geo::{TimePoint, TimeSpan};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// How a session ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SessionEnd {
    /// The listener stopped / closed the app.
    Stopped,
    /// The listener changed to another service (channel surf).
    Surfed {
        /// The service surfed to.
        to: ServiceIndex,
    },
    /// Still in progress.
    Open,
}

/// One listening session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ListeningSession {
    /// The listener.
    pub user: UserId,
    /// The tuned service.
    pub service: ServiceIndex,
    /// Session start.
    pub started: TimePoint,
    /// Session end (equals `started` while open).
    pub ended: TimePoint,
    /// Clips played (in order).
    pub clips_played: Vec<ClipId>,
    /// Skip presses.
    pub skips: u32,
    /// Explicit likes.
    pub likes: u32,
    /// How the session ended.
    pub end: SessionEnd,
}

impl ListeningSession {
    /// Session length.
    #[must_use]
    pub fn duration(&self) -> TimeSpan {
        self.ended.since(self.started)
    }
}

/// The session log: an open session per user plus the closed history.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SessionStore {
    open: HashMap<UserId, ListeningSession>,
    closed: Vec<ListeningSession>,
}

impl SessionStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        SessionStore::default()
    }

    /// Starts a session; an already-open one for the user is closed as
    /// [`SessionEnd::Stopped`] first.
    pub fn start(&mut self, user: UserId, service: ServiceIndex, now: TimePoint) {
        self.close(user, now, SessionEnd::Stopped);
        self.open.insert(
            user,
            ListeningSession {
                user,
                service,
                started: now,
                ended: now,
                clips_played: Vec::new(),
                skips: 0,
                likes: 0,
                end: SessionEnd::Open,
            },
        );
    }

    /// Records a clip start in the user's open session (no-op without
    /// one — robustness over strictness for late events).
    pub fn clip_played(&mut self, user: UserId, clip: ClipId, now: TimePoint) {
        if let Some(s) = self.open.get_mut(&user) {
            s.clips_played.push(clip);
            s.ended = s.ended.max(now);
        }
    }

    /// Records a skip press.
    pub fn skip(&mut self, user: UserId, now: TimePoint) {
        if let Some(s) = self.open.get_mut(&user) {
            s.skips += 1;
            s.ended = s.ended.max(now);
        }
    }

    /// Records a like press.
    pub fn like(&mut self, user: UserId, now: TimePoint) {
        if let Some(s) = self.open.get_mut(&user) {
            s.likes += 1;
            s.ended = s.ended.max(now);
        }
    }

    /// Closes the user's open session (no-op without one).
    pub fn close(&mut self, user: UserId, now: TimePoint, end: SessionEnd) {
        if let Some(mut s) = self.open.remove(&user) {
            s.ended = s.ended.max(now);
            s.end = end;
            self.closed.push(s);
        }
    }

    /// Total closed sessions.
    #[must_use]
    pub fn closed_count(&self) -> usize {
        self.closed.len()
    }

    /// Open sessions in deterministic order (sorted by user id), for
    /// persistence.
    #[must_use]
    // lint: allow(reach-hash-iter) — result fully sorted by user id before return
    pub fn export_open(&self) -> Vec<&ListeningSession> {
        let mut open: Vec<&ListeningSession> = self.open.values().collect();
        open.sort_by_key(|s| s.user);
        open
    }

    /// Closed sessions in log order, for persistence.
    #[must_use]
    pub fn export_closed(&self) -> &[ListeningSession] {
        &self.closed
    }

    /// Rebuilds the store from persisted sessions: `open` holds at most
    /// one session per user, `closed` is the history in log order.
    #[must_use]
    // lint: allow(reach-hash-iter) — `open` here is the persisted Vec in snapshot order; it is collected into a map keyed by user
    pub fn restore(open: Vec<ListeningSession>, closed: Vec<ListeningSession>) -> Self {
        SessionStore { open: open.into_iter().map(|s| (s.user, s)).collect(), closed }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const U: UserId = UserId(1);

    #[test]
    fn session_lifecycle() {
        let mut store = SessionStore::new();
        let t0 = TimePoint::at(0, 8, 0, 0);
        store.start(U, ServiceIndex(0), t0);
        store.clip_played(U, ClipId(1), t0.advance(TimeSpan::minutes(2)));
        store.skip(U, t0.advance(TimeSpan::minutes(3)));
        store.clip_played(U, ClipId(2), t0.advance(TimeSpan::minutes(3)));
        store.like(U, t0.advance(TimeSpan::minutes(5)));
        store.close(U, t0.advance(TimeSpan::minutes(20)), SessionEnd::Stopped);
        let hist = store.closed.iter().filter(|s| s.user == U).collect::<Vec<_>>();
        assert_eq!(hist.len(), 1);
        let s = hist[0];
        assert_eq!(s.clips_played, vec![ClipId(1), ClipId(2)]);
        assert_eq!(s.skips, 1);
        assert_eq!(s.likes, 1);
        assert_eq!(s.duration(), TimeSpan::minutes(20));
        assert_eq!(s.end, SessionEnd::Stopped);
        assert!(!store.open.contains_key(&U));
    }

    #[test]
    fn restart_closes_previous() {
        let mut store = SessionStore::new();
        let t0 = TimePoint::at(0, 8, 0, 0);
        store.start(U, ServiceIndex(0), t0);
        store.start(U, ServiceIndex(2), t0.advance(TimeSpan::minutes(10)));
        assert_eq!(store.closed_count(), 1);
        assert_eq!(
            store.closed.iter().filter(|s| s.user == U).collect::<Vec<_>>()[0].end,
            SessionEnd::Stopped
        );
        assert_eq!(store.open.get(&U).unwrap().service, ServiceIndex(2));
    }

    #[test]
    fn events_without_open_session_are_ignored() {
        let mut store = SessionStore::new();
        let t = TimePoint::at(0, 9, 0, 0);
        store.clip_played(U, ClipId(1), t);
        store.skip(U, t);
        store.like(U, t);
        store.close(U, t, SessionEnd::Stopped);
        assert_eq!(store.closed_count(), 0);
        assert!(store.closed.iter().filter(|s| s.user == U).collect::<Vec<_>>().is_empty());
    }
}
