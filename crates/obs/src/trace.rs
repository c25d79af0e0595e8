//! The decision trace: a bounded ring buffer of per-decision pipeline
//! records.
//!
//! Every proactive decision the engine takes — trigger fired,
//! candidates generated, cuts applied, schedule packed (or not) — is
//! summarized into one [`DecisionTraceEntry`]. The buffer holds the
//! most recent [`DecisionTrace::capacity`] entries and counts what it
//! evicted, so memory stays bounded (lint family B) no matter how long
//! the engine runs.
//!
//! Entries are plain integers: user ids and clip ids as raw `u64`s,
//! sim-time as epoch seconds, and score components in micro-units
//! (`round(score × 1e6)`), keeping the snapshot encoding float-free.

use std::collections::VecDeque;

/// Default ring capacity used by the engine.
pub const DEFAULT_TRACE_CAPACITY: usize = 256;

/// The outcome of one proactive decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Candidates survived and a playlist was scheduled.
    Scheduled,
    /// The trigger fired but every candidate was cut.
    NoCandidates,
    /// Candidates existed but schedule packing produced nothing
    /// (e.g. the predicted drive was shorter than every clip).
    EmptySchedule,
}

impl Verdict {
    /// Every verdict.
    pub const ALL: [Verdict; 3] =
        [Verdict::Scheduled, Verdict::NoCandidates, Verdict::EmptySchedule];

    /// Stable lower-kebab encoding used in the JSON snapshot.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Scheduled => "scheduled",
            Verdict::NoCandidates => "no-candidates",
            Verdict::EmptySchedule => "empty-schedule",
        }
    }
}

/// One pipeline decision, stage by stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionTraceEntry {
    /// Raw user id.
    pub user: u64,
    /// Sim-time of the decision, epoch seconds.
    pub at_s: u64,
    /// What fired the pipeline (e.g. `"drive-predicted"`).
    pub trigger: &'static str,
    /// Catalog entries the retrieval stage looked at (postings on the
    /// indexed path, whole catalog on the scan path).
    pub considered: u64,
    /// Candidates cut because their freshness window had lapsed.
    pub cut_freshness: u64,
    /// Candidates cut by the preference threshold (disliked
    /// categories / below score floor).
    pub cut_preference: u64,
    /// Candidates that carried no geo relevance along the predicted
    /// route (informational cut: geo only boosts, never excludes).
    pub cut_geo: u64,
    /// Candidates cut because the listener already heard them.
    pub cut_heard: u64,
    /// Candidates that reached the scoring stage.
    pub scored: u64,
    /// Items the scheduler packed into the playlist.
    pub scheduled: u64,
    /// Raw clip id of the top-ranked candidate (absent when no
    /// candidate survived).
    pub top_clip: Option<u64>,
    /// Content-score component of the top candidate, micro-units.
    pub top_content_micro: i64,
    /// Context-score component of the top candidate, micro-units.
    pub top_context_micro: i64,
    /// Combined score of the top candidate, micro-units.
    pub top_total_micro: i64,
    /// Final outcome of the decision.
    pub verdict: Verdict,
}

/// A bounded ring buffer of [`DecisionTraceEntry`] records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionTrace {
    capacity: usize,
    entries: VecDeque<DecisionTraceEntry>,
    dropped: u64,
}

impl Default for DecisionTrace {
    fn default() -> Self {
        DecisionTrace::with_capacity(DEFAULT_TRACE_CAPACITY)
    }
}

impl DecisionTrace {
    /// An empty trace holding at most `capacity` entries (minimum 1).
    /// Nothing is reserved up front: the ring grows on push, so a
    /// capacity decoded from a snapshot never sizes an allocation.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        DecisionTrace { capacity: capacity.max(1), entries: VecDeque::new(), dropped: 0 }
    }

    /// Rebuilds a trace from persisted parts: its bound, the eviction
    /// count and the retained entries, oldest first. `None` when the
    /// bound is zero or the entries exceed it — corrupt persisted state
    /// must surface as a decode error, not as a different ring.
    #[must_use]
    pub fn from_parts(
        capacity: usize,
        dropped: u64,
        entries: Vec<DecisionTraceEntry>,
    ) -> Option<Self> {
        (capacity > 0 && entries.len() <= capacity).then(|| DecisionTrace {
            capacity,
            entries: entries.into(),
            dropped,
        })
    }

    /// The fixed bound on retained entries.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the trace holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// How many entries were evicted to respect the bound.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Appends a decision, evicting the oldest entry when full.
    pub fn push(&mut self, entry: DecisionTraceEntry) {
        while self.entries.len() >= self.capacity {
            self.entries.pop_front();
            self.dropped += 1;
        }
        self.entries.push_back(entry);
    }

    /// Retained entries, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &DecisionTraceEntry> {
        self.entries.iter()
    }

    /// Drops all entries and resets the eviction counter.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(user: u64) -> DecisionTraceEntry {
        DecisionTraceEntry {
            user,
            at_s: 100 + user,
            trigger: "drive-predicted",
            considered: 10,
            cut_freshness: 1,
            cut_preference: 2,
            cut_geo: 3,
            cut_heard: 1,
            scored: 6,
            scheduled: 3,
            top_clip: Some(7),
            top_content_micro: 550_000,
            top_context_micro: 210_000,
            top_total_micro: 760_000,
            verdict: Verdict::Scheduled,
        }
    }

    #[test]
    fn ring_never_exceeds_its_bound() {
        let mut t = DecisionTrace::with_capacity(4);
        for u in 0..100 {
            t.push(entry(u));
            assert!(t.len() <= t.capacity());
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.dropped(), 96);
        let users: Vec<u64> = t.entries().map(|e| e.user).collect();
        assert_eq!(users, vec![96, 97, 98, 99]);
    }

    #[test]
    fn from_parts_rebuilds_the_ring_or_refuses() {
        let mut t = DecisionTrace::with_capacity(2);
        for u in 0..5 {
            t.push(entry(u));
        }
        let rebuilt = DecisionTrace::from_parts(2, t.dropped(), t.entries().cloned().collect());
        assert_eq!(rebuilt, Some(t));
        assert_eq!(DecisionTrace::from_parts(1, 0, vec![entry(1), entry(2)]), None);
        assert_eq!(DecisionTrace::from_parts(0, 0, Vec::new()), None);
    }

    #[test]
    fn capacity_floor_is_one() {
        let mut t = DecisionTrace::with_capacity(0);
        t.push(entry(1));
        t.push(entry(2));
        assert_eq!(t.len(), 1);
        assert_eq!(t.dropped(), 1);
    }

    #[test]
    fn verdict_encodings_are_stable() {
        assert_eq!(Verdict::Scheduled.as_str(), "scheduled");
        assert_eq!(Verdict::NoCandidates.as_str(), "no-candidates");
        assert_eq!(Verdict::EmptySchedule.as_str(), "empty-schedule");
    }
}
