//! The time-shift ring buffer.
//!
//! Paper Fig. 4 / §2.1.2: after the recommended clip, Lilly hears "the
//! time shifted live 'The rabbit's roar': the program began 20 minutes
//! ago, but the app can still smoothly present it". That requires the
//! client to have *recorded* the live stream while something else was
//! playing. [`TimeShiftBuffer`] is that recorder: a bounded ring over a
//! live source, written in real time, readable at any delay up to its
//! capacity.
//!
//! Unlike the deterministic sources, the buffer stores real samples —
//! its capacity is the honest memory cost of the feature on the device.

use crate::source::{AudioSource, SourceId};

/// A bounded recording of the most recent samples of a live source.
#[derive(Debug, Clone)]
pub struct TimeShiftBuffer {
    source_id: SourceId,
    capacity: usize,
    ring: Vec<f32>,
    /// Absolute sample index one past the newest recorded sample.
    head: u64,
    /// Absolute sample index of the oldest retained sample.
    tail: u64,
}

/// Why a time-shifted read failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeShiftError {
    /// The requested range reaches before the oldest retained sample —
    /// the shift exceeds the buffer capacity (or recording started too
    /// late).
    Evicted {
        /// Oldest absolute sample still available.
        oldest_available: u64,
    },
    /// The requested range reaches past the newest recorded sample —
    /// reading into the future of the recording.
    NotYetRecorded {
        /// One past the newest absolute sample available.
        newest_available: u64,
    },
}

impl std::fmt::Display for TimeShiftError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TimeShiftError::Evicted { oldest_available } => {
                write!(
                    f,
                    "requested samples already evicted (oldest available: {oldest_available})"
                )
            }
            TimeShiftError::NotYetRecorded { newest_available } => {
                write!(
                    f,
                    "requested samples not yet recorded (newest available: {newest_available})"
                )
            }
        }
    }
}

impl std::error::Error for TimeShiftError {}

impl TimeShiftBuffer {
    /// Creates a buffer over `source_id` retaining up to
    /// `capacity_samples` samples. Recording starts at absolute sample
    /// `start`.
    ///
    /// # Panics
    /// Panics if `capacity_samples` is zero.
    #[must_use]
    // lint: allow(dead) — E1 (DESIGN.md §4) names audio::timeshift; tests/properties.rs::timeshift_reads_are_exact checks it
    pub fn new(source_id: SourceId, capacity_samples: usize, start: u64) -> Self {
        assert!(capacity_samples > 0, "time-shift capacity must be positive");
        TimeShiftBuffer {
            source_id,
            capacity: capacity_samples,
            ring: vec![0.0; capacity_samples],
            head: start,
            tail: start,
        }
    }

    /// Maximum retained samples.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Oldest absolute sample still retained.
    #[must_use]
    // lint: allow(dead) — E1 (DESIGN.md §4) names audio::timeshift; tests/properties.rs::timeshift_reads_are_exact checks it
    pub fn oldest(&self) -> u64 {
        self.tail
    }

    /// One past the newest absolute sample recorded.
    #[must_use]
    // lint: allow(dead) — E1 (DESIGN.md §4) names audio::timeshift; tests/properties.rs::timeshift_reads_are_exact checks it
    pub fn newest(&self) -> u64 {
        self.head
    }

    /// Number of samples currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        (self.head - self.tail) as usize
    }

    /// True when nothing has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// Records the live source up to absolute sample `until`
    /// (exclusive). Called by the player as wall-clock time advances;
    /// recording beyond capacity evicts the oldest samples.
    // lint: allow(dead) — E1 (DESIGN.md §4) names audio::timeshift; tests/properties.rs::timeshift_reads_are_exact checks it
    pub fn record_until(&mut self, source: &impl AudioSource, until: u64) {
        debug_assert_eq!(source.id(), self.source_id, "recording a different source");
        while self.head < until {
            let slot = (self.head % self.capacity as u64) as usize;
            self.ring[slot] = source.sample(self.head);
            self.head += 1;
        }
        if self.head - self.tail > self.capacity as u64 {
            self.tail = self.head - self.capacity as u64;
        }
    }

    /// Reads `out.len()` samples starting at absolute sample `start`.
    ///
    /// # Errors
    /// [`TimeShiftError::Evicted`] when part of the range has been
    /// overwritten; [`TimeShiftError::NotYetRecorded`] when it reaches
    /// past the recording head.
    // lint: allow(dead) — E1 (DESIGN.md §4) names audio::timeshift; tests/properties.rs::timeshift_reads_are_exact checks it
    pub fn read(&self, start: u64, out: &mut [f32]) -> Result<(), TimeShiftError> {
        let end = start + out.len() as u64;
        if start < self.tail {
            return Err(TimeShiftError::Evicted { oldest_available: self.tail });
        }
        if end > self.head {
            return Err(TimeShiftError::NotYetRecorded { newest_available: self.head });
        }
        for (i, o) in out.iter_mut().enumerate() {
            let pos = start + i as u64;
            *o = self.ring[(pos % self.capacity as u64) as usize];
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::LiveSource;

    #[test]
    fn recorded_samples_match_source() {
        let live = LiveSource::new(2);
        let mut buf = TimeShiftBuffer::new(live.id(), 1_000, 0);
        buf.record_until(&live, 500);
        let mut out = vec![0.0f32; 100];
        buf.read(200, &mut out).unwrap();
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, live.sample(200 + i as u64));
        }
    }

    #[test]
    fn eviction_moves_tail() {
        let live = LiveSource::new(2);
        let mut buf = TimeShiftBuffer::new(live.id(), 100, 0);
        buf.record_until(&live, 250);
        assert_eq!(buf.oldest(), 150);
        assert_eq!(buf.newest(), 250);
        assert_eq!(buf.len(), 100);
        // Still-retained range reads correctly after wrap-around.
        let mut out = vec![0.0f32; 50];
        buf.read(180, &mut out).unwrap();
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, live.sample(180 + i as u64));
        }
    }

    #[test]
    fn reading_evicted_range_errors() {
        let live = LiveSource::new(0);
        let mut buf = TimeShiftBuffer::new(live.id(), 100, 0);
        buf.record_until(&live, 300);
        let mut out = vec![0.0f32; 10];
        let err = buf.read(100, &mut out).unwrap_err();
        assert_eq!(err, TimeShiftError::Evicted { oldest_available: 200 });
    }

    #[test]
    fn reading_future_errors() {
        let live = LiveSource::new(0);
        let mut buf = TimeShiftBuffer::new(live.id(), 100, 0);
        buf.record_until(&live, 50);
        let mut out = vec![0.0f32; 10];
        let err = buf.read(45, &mut out).unwrap_err();
        assert_eq!(err, TimeShiftError::NotYetRecorded { newest_available: 50 });
    }

    #[test]
    fn recording_started_late_misses_earlier_audio() {
        let live = LiveSource::new(1);
        // Tuned in at sample 1000; the programme started at 0.
        let mut buf = TimeShiftBuffer::new(live.id(), 10_000, 1_000);
        buf.record_until(&live, 2_000);
        let mut out = vec![0.0f32; 10];
        assert!(matches!(buf.read(500, &mut out), Err(TimeShiftError::Evicted { .. })));
        assert!(buf.read(1_500, &mut out).is_ok());
    }

    /// The Lilly scenario in miniature: record the live stream while a
    /// clip plays, then replay the missed programme from its start.
    #[test]
    fn lilly_timeshift_replay() {
        let live = LiveSource::new(4);
        let program_start = 10_000u64;
        // 20 "minutes" later (here: 2 000 samples) the clip ends and the
        // programme should replay from its start.
        let mut buf = TimeShiftBuffer::new(live.id(), 5_000, program_start);
        buf.record_until(&live, 12_000);
        assert!(buf.newest() - buf.oldest() >= 2_000);
        let mut out = vec![0.0f32; 2_000];
        buf.read(program_start, &mut out).unwrap();
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, live.sample(program_start + i as u64));
        }
    }

    #[test]
    fn incremental_recording_is_contiguous() {
        let live = LiveSource::new(9);
        let mut buf = TimeShiftBuffer::new(live.id(), 1_000, 0);
        for step in 1..=20 {
            buf.record_until(&live, step * 37);
        }
        assert_eq!(buf.newest(), 740);
        let mut out = vec![0.0f32; 740];
        buf.read(0, &mut out).unwrap();
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, live.sample(i as u64));
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = TimeShiftBuffer::new(SourceId(1), 0, 0);
    }
}
