//! The audio clip store.
//!
//! The paper's content repository receives "the editorial version of
//! more than 100 podcasts created every day" over FTP. This store is its
//! audio half: clips are registered with a duration and fetched as
//! bounded [`ClipSource`]s. Metadata (title, category, geo tags) lives
//! in `pphcr-catalog`; the two sides share the [`ClipId`].

use crate::bitrate::Bitrate;
use crate::sample::SampleClock;
use crate::source::ClipSource;
use pphcr_geo::TimeSpan;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Identifier of an audio clip, shared with the metadata catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ClipId(pub u64);

impl std::fmt::Display for ClipId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "clip:{}", self.0)
    }
}

/// A stored clip's audio-side record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AudioClip {
    /// The clip's id.
    pub id: ClipId,
    /// Playback duration.
    pub duration: TimeSpan,
    /// Encoded bit rate (drives download-size accounting).
    pub bitrate: Bitrate,
}

/// In-memory store of clip audio.
#[derive(Debug, Clone, Default)]
pub struct ClipStore {
    clips: HashMap<ClipId, AudioClip>,
}

impl ClipStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        ClipStore::default()
    }

    /// Registers a clip; returns the previous record when replacing.
    pub fn insert(&mut self, clip: AudioClip) -> Option<AudioClip> {
        self.clips.insert(clip.id, clip)
    }

    /// Registers a clip with the default live bit rate.
    pub fn insert_simple(&mut self, id: ClipId, duration: TimeSpan) {
        self.insert(AudioClip { id, duration, bitrate: Bitrate::LIVE_STREAM });
    }

    /// Looks up a clip record.
    #[must_use]
    pub fn get(&self, id: ClipId) -> Option<&AudioClip> {
        self.clips.get(&id)
    }

    /// A playable source for the clip at the given sample rate.
    #[must_use]
    pub fn source(&self, id: ClipId, clock: SampleClock) -> Option<ClipSource> {
        self.get(id).map(|c| ClipSource::new(id.0, clock.samples_in(c.duration)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::AudioSource;

    #[test]
    fn insert_get_roundtrip() {
        let mut store = ClipStore::new();
        store.insert_simple(ClipId(7), TimeSpan::minutes(4));
        assert_eq!(store.get(ClipId(7)).unwrap().duration, TimeSpan::minutes(4));
        assert!(store.get(ClipId(8)).is_none());
    }

    #[test]
    fn replacing_returns_old() {
        let mut store = ClipStore::new();
        store.insert_simple(ClipId(1), TimeSpan::minutes(1));
        let old = store.insert(AudioClip {
            id: ClipId(1),
            duration: TimeSpan::minutes(2),
            bitrate: Bitrate(64_000),
        });
        assert_eq!(old.unwrap().duration, TimeSpan::minutes(1));
        assert_eq!(store.get(ClipId(1)).unwrap().duration, TimeSpan::minutes(2));
    }

    #[test]
    fn source_has_right_length() {
        let mut store = ClipStore::new();
        store.insert_simple(ClipId(5), TimeSpan::seconds(10));
        let clock = SampleClock::new(1_000);
        let src = store.source(ClipId(5), clock).unwrap();
        assert_eq!(src.len_samples(), 10_000);
        assert_ne!(src.sample(9_999), 0.0);
        assert_eq!(src.sample(10_000), 0.0);
        assert!(store.source(ClipId(99), clock).is_none());
    }
}
