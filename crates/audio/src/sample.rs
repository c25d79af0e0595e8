//! Sample-rate math: converting between the platform clock (seconds)
//! and sample indices.
//!
//! The whole audio substrate is indexed in *samples since the simulation
//! epoch*. A [`SampleClock`] fixes the sample rate and performs the
//! conversions; keeping it explicit (instead of a global constant) lets
//! benches run the splicer at radio rates (48 kHz) while unit tests use
//! small rates for speed without changing any code path.

use pphcr_geo::{TimePoint, TimeSpan};
use serde::{Deserialize, Serialize};

/// A fixed sample rate plus conversions between clock time and samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SampleClock {
    rate_hz: u32,
}

impl SampleClock {
    /// Broadcast-grade rate used by the benchmarks.
    pub const BROADCAST: SampleClock = SampleClock { rate_hz: 48_000 };

    /// Creates a clock at `rate_hz` samples per second.
    ///
    /// # Panics
    /// Panics if `rate_hz` is zero.
    #[must_use]
    pub fn new(rate_hz: u32) -> Self {
        assert!(rate_hz > 0, "sample rate must be positive");
        SampleClock { rate_hz }
    }

    /// The first sample at or after the instant `t`.
    #[must_use]
    pub fn sample_at(self, t: TimePoint) -> u64 {
        t.seconds() * u64::from(self.rate_hz)
    }

    /// Number of samples in a span.
    #[must_use]
    pub fn samples_in(self, span: TimeSpan) -> u64 {
        span.as_seconds() * u64::from(self.rate_hz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip_on_second_boundaries() {
        let c = SampleClock::new(8_000);
        let t = TimePoint::at(0, 1, 2, 3);
        let s = c.sample_at(t);
        assert_eq!(s, 3_723 * 8_000);
    }

    #[test]
    fn samples_in_span() {
        let c = SampleClock::new(100);
        assert_eq!(c.samples_in(TimeSpan::minutes(2)), 12_000);
    }

    #[test]
    fn broadcast_rate() {
        assert_eq!(SampleClock::BROADCAST.rate_hz, 48_000);
    }

    #[test]
    #[should_panic(expected = "sample rate must be positive")]
    fn zero_rate_panics() {
        let _ = SampleClock::new(0);
    }
}
