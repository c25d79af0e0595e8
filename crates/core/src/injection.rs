//! Editorial recommendation injection (paper Fig. 6).
//!
//! "The editor can selectively choose and inject recommended audio
//! content to specific users" (§2, *editorial recommendations
//! injection*). Injections are queued per listener and merged ahead of
//! organic recommendations at the next delivery; the dashboard lists
//! what is pending.

use pphcr_audio::ClipId;
use pphcr_geo::TimePoint;
use pphcr_userdata::UserId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One pending editorial injection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PendingInjection {
    /// Target listener.
    pub user: UserId,
    /// Clip to deliver.
    pub clip: ClipId,
    /// When the editor submitted it.
    pub submitted_at: TimePoint,
    /// Editor's note (shown on the dashboard).
    pub note: String,
}

/// Per-listener injection queues.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct InjectionQueue {
    pub(crate) queues: HashMap<UserId, Vec<PendingInjection>>,
    pub(crate) total_submitted: u64,
    pub(crate) total_delivered: u64,
}

impl InjectionQueue {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        InjectionQueue::default()
    }

    /// Submits an injection for a listener.
    pub fn submit(&mut self, user: UserId, clip: ClipId, now: TimePoint, note: impl Into<String>) {
        self.queues.entry(user).or_default().push(PendingInjection {
            user,
            clip,
            submitted_at: now,
            note: note.into(),
        });
        self.total_submitted += 1;
    }

    /// Takes every pending injection for `user` (FIFO), marking them
    /// delivered.
    pub fn take(&mut self, user: UserId) -> Vec<PendingInjection> {
        let out = self.queues.remove(&user).unwrap_or_default();
        self.total_delivered += out.len() as u64;
        out
    }

    /// Pending injections for `user` without delivering them (the
    /// dashboard view).
    #[must_use]
    pub fn pending(&self, user: UserId) -> &[PendingInjection] {
        self.queues.get(&user).map_or(&[], Vec::as_slice)
    }

    /// Counters: (submitted, delivered).
    #[must_use]
    pub fn counters(&self) -> (u64, u64) {
        (self.total_submitted, self.total_delivered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_take_fifo() {
        let mut q = InjectionQueue::new();
        q.submit(UserId(1), ClipId(10), TimePoint(5), "decanter special");
        q.submit(UserId(1), ClipId(11), TimePoint(6), "follow-up");
        q.submit(UserId(2), ClipId(12), TimePoint(7), "other listener");
        assert_eq!(q.pending(UserId(1)).len(), 2);
        let taken = q.take(UserId(1));
        assert_eq!(taken.len(), 2);
        assert_eq!(taken[0].clip, ClipId(10));
        assert_eq!(taken[1].clip, ClipId(11));
        assert!(q.pending(UserId(1)).is_empty());
        assert_eq!(q.pending(UserId(2)).len(), 1);
        assert_eq!(q.counters(), (3, 2));
    }

    #[test]
    fn take_unknown_user_is_empty() {
        let mut q = InjectionQueue::new();
        assert!(q.take(UserId(42)).is_empty());
        assert_eq!(q.counters(), (0, 0));
    }

    #[test]
    fn notes_preserved() {
        let mut q = InjectionQueue::new();
        q.submit(UserId(1), ClipId(1), TimePoint(0), "test this clip");
        assert_eq!(q.pending(UserId(1))[0].note, "test this clip");
    }
}
