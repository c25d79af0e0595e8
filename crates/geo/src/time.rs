//! The platform clock.
//!
//! PPHCR is a real-time system (live radio, moving listeners) that we
//! reproduce as a deterministic simulation. All components — schedule
//! metadata, GPS fixes, feedback events, audio buffering — share one
//! clock: simulated seconds since the simulation epoch (midnight of
//! day 0). [`TimePoint`] is an instant on that clock and [`TimeSpan`] a
//! non-negative duration.
//!
//! Seconds-granularity matches the paper's artefacts: the Fig. 4 timeline
//! is labelled in `hh:mm:ss` and schedule metadata carries per-second
//! boundaries. Sub-second audio alignment is handled in sample space by
//! `pphcr-audio`, not on this clock.

use serde::{Deserialize, Serialize};

/// Seconds in a minute.
pub const MINUTE: u64 = 60;
/// Seconds in an hour.
pub const HOUR: u64 = 3_600;
/// Seconds in a day.
pub const DAY: u64 = 86_400;

/// An instant on the simulation clock, in whole seconds since the epoch.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct TimePoint(pub u64);

impl TimePoint {
    /// The simulation epoch (midnight of day 0).
    pub const EPOCH: TimePoint = TimePoint(0);

    /// Builds an instant from a day index and an `hh:mm:ss` wall-clock time.
    ///
    /// This mirrors the labels on the paper's Fig. 4 timeline
    /// (e.g. `10:42:30`).
    #[must_use]
    pub fn at(day: u64, hour: u64, minute: u64, second: u64) -> Self {
        TimePoint(day * DAY + hour * HOUR + minute * MINUTE + second)
    }

    /// Seconds since the epoch.
    #[must_use]
    pub fn seconds(self) -> u64 {
        self.0
    }

    /// The day index this instant falls in.
    #[must_use]
    pub fn day(self) -> u64 {
        self.0 / DAY
    }

    /// Seconds since midnight of the instant's day.
    #[must_use]
    pub fn seconds_of_day(self) -> u64 {
        self.0 % DAY
    }

    /// The hour-of-day (0–23), the paper's time-of-day context feature.
    #[must_use]
    pub fn hour_of_day(self) -> u64 {
        self.seconds_of_day() / HOUR
    }

    /// Instant advanced by `span`.
    #[must_use]
    pub fn advance(self, span: TimeSpan) -> Self {
        TimePoint(self.0 + span.0)
    }

    /// Instant moved back by `span`, saturating at the epoch.
    #[must_use]
    pub fn rewind(self, span: TimeSpan) -> Self {
        TimePoint(self.0.saturating_sub(span.0))
    }

    /// Span from `earlier` to `self`; zero if `earlier` is in the future.
    #[must_use]
    pub fn since(self, earlier: TimePoint) -> TimeSpan {
        TimeSpan(self.0.saturating_sub(earlier.0))
    }

    /// Formats as `d+hh:mm:ss` (day prefix omitted for day 0).
    #[must_use]
    pub fn wall_clock(self) -> String {
        let s = self.seconds_of_day();
        let (h, m, sec) = (s / HOUR, (s % HOUR) / MINUTE, s % MINUTE);
        if self.day() == 0 {
            format!("{h:02}:{m:02}:{sec:02}")
        } else {
            format!("{}+{h:02}:{m:02}:{sec:02}", self.day())
        }
    }
}

impl std::fmt::Display for TimePoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.wall_clock())
    }
}

/// A non-negative duration on the simulation clock, in whole seconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct TimeSpan(pub u64);

impl TimeSpan {
    /// The zero-length span.
    pub const ZERO: TimeSpan = TimeSpan(0);

    /// A span of `n` seconds.
    #[must_use]
    pub fn seconds(n: u64) -> Self {
        TimeSpan(n)
    }

    /// A span of `n` minutes.
    #[must_use]
    pub fn minutes(n: u64) -> Self {
        TimeSpan(n * MINUTE)
    }

    /// A span of `n` hours.
    #[must_use]
    pub fn hours(n: u64) -> Self {
        TimeSpan(n * HOUR)
    }

    /// Length in seconds.
    #[must_use]
    pub fn as_seconds(self) -> u64 {
        self.0
    }

    /// Length in (fractional) minutes.
    #[must_use]
    pub fn as_minutes_f64(self) -> f64 {
        self.0 as f64 / MINUTE as f64
    }

    /// Sum of two spans.
    #[must_use]
    pub fn plus(self, other: TimeSpan) -> Self {
        TimeSpan(self.0 + other.0)
    }

    /// Difference of two spans, saturating at zero.
    #[must_use]
    pub fn minus(self, other: TimeSpan) -> Self {
        TimeSpan(self.0.saturating_sub(other.0))
    }

    /// True when the span is zero.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl std::fmt::Display for TimeSpan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (h, m, s) = (self.0 / HOUR, (self.0 % HOUR) / MINUTE, self.0 % MINUTE);
        if h > 0 {
            write!(f, "{h}h{m:02}m{s:02}s")
        } else if m > 0 {
            write!(f, "{m}m{s:02}s")
        } else {
            write!(f, "{s}s")
        }
    }
}

/// A half-open interval `[start, end)` on the simulation clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TimeInterval {
    /// Inclusive start.
    pub start: TimePoint,
    /// Exclusive end.
    pub end: TimePoint,
}

impl TimeInterval {
    /// Builds an interval; `end` is clamped up to `start` so the interval
    /// is never negative.
    #[must_use]
    pub fn new(start: TimePoint, end: TimePoint) -> Self {
        TimeInterval { start, end: end.max(start) }
    }

    /// True when `t` lies inside `[start, end)`.
    #[must_use]
    pub fn contains(self, t: TimePoint) -> bool {
        self.start <= t && t < self.end
    }

    /// True when the two intervals share at least one instant.
    #[must_use]
    pub fn overlaps(self, other: TimeInterval) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// True for zero-length intervals.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.start == self.end
    }
}

impl std::fmt::Display for TimeInterval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{} .. {})", self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_builds_wall_clock_instants() {
        let t = TimePoint::at(0, 10, 42, 30);
        assert_eq!(t.seconds(), 10 * HOUR + 42 * MINUTE + 30);
        assert_eq!(t.wall_clock(), "10:42:30");
        assert_eq!(t.hour_of_day(), 10);
    }

    #[test]
    fn day_rollover() {
        let t = TimePoint::at(2, 1, 0, 0);
        assert_eq!(t.day(), 2);
        assert_eq!(t.seconds_of_day(), HOUR);
        assert_eq!(t.wall_clock(), "2+01:00:00");
    }

    #[test]
    fn advance_and_since_round_trip() {
        let t = TimePoint::at(0, 9, 0, 0);
        let later = t.advance(TimeSpan::minutes(25));
        assert_eq!(later.since(t), TimeSpan::minutes(25));
        assert_eq!(t.since(later), TimeSpan::ZERO);
    }

    #[test]
    fn rewind_saturates() {
        assert_eq!(TimePoint(5).rewind(TimeSpan::seconds(10)), TimePoint(0));
    }

    #[test]
    fn interval_contains_is_half_open() {
        let i = TimeInterval::new(TimePoint(100), TimePoint(150));
        assert!(i.contains(TimePoint(100)));
        assert!(i.contains(TimePoint(149)));
        assert!(!i.contains(TimePoint(150)));
    }

    #[test]
    fn interval_overlap() {
        let a = TimeInterval::new(TimePoint(0), TimePoint(100));
        let b = TimeInterval::new(TimePoint(50), TimePoint(150));
        let c = TimeInterval::new(TimePoint(100), TimePoint(200));
        assert!(a.overlaps(b));
        assert!(!a.overlaps(c), "half-open intervals touching at 100 do not overlap");
    }

    #[test]
    fn negative_interval_is_clamped_empty() {
        let i = TimeInterval::new(TimePoint(10), TimePoint(5));
        assert!(i.is_empty());
    }

    #[test]
    fn span_display_formats() {
        assert_eq!(TimeSpan::seconds(5).to_string(), "5s");
        assert_eq!(TimeSpan::minutes(3).plus(TimeSpan::seconds(4)).to_string(), "3m04s");
        assert_eq!(TimeSpan::hours(1).plus(TimeSpan::seconds(61)).to_string(), "1h01m01s");
    }

    #[test]
    fn span_arithmetic_saturates() {
        assert_eq!(TimeSpan::seconds(3).minus(TimeSpan::seconds(10)), TimeSpan::ZERO);
        assert_eq!(TimeSpan::seconds(3).plus(TimeSpan::seconds(4)), TimeSpan::seconds(7));
    }
}
