//! Bit-rate and byte accounting.
//!
//! The paper's hybrid delivery argument (§1) is an accounting argument:
//! the shared linear stream rides the broadcast channel once for all
//! listeners, while personalized clips travel the Internet per listener.
//! [`Bitrate`] provides the byte math the network-cost model
//! (`pphcr-core::netcost`) builds on. Rai's live streams are 96 kbps,
//! which is the default used throughout.

use pphcr_geo::TimeSpan;
use serde::{Deserialize, Serialize};

/// A constant bit rate, in bits per second.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Bitrate(pub u64);

impl Bitrate {
    /// The paper's live stream rate: 96 kbps.
    pub const LIVE_STREAM: Bitrate = Bitrate(96_000);

    /// Bytes needed to carry `span` of audio at this rate (rounded up).
    #[must_use]
    pub fn bytes_for(self, span: TimeSpan) -> u64 {
        (self.0 * span.as_seconds()).div_ceil(8)
    }
}

impl std::fmt::Display for Bitrate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0.is_multiple_of(1_000) {
            write!(f, "{} kbps", self.0 / 1_000)
        } else {
            write!(f, "{} bps", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_rate_one_hour() {
        // 96 kbps × 3600 s = 43.2 MB/h.
        let bytes = Bitrate::LIVE_STREAM.bytes_for(TimeSpan::hours(1));
        assert_eq!(bytes, 43_200_000);
    }

    #[test]
    fn rounding_up_partial_bytes() {
        // 1 bps for 1 s = 1 bit → 1 byte.
        assert_eq!(Bitrate(1).bytes_for(TimeSpan::seconds(1)), 1);
        assert_eq!(Bitrate(9).bytes_for(TimeSpan::seconds(1)), 2);
    }

    #[test]
    fn zero_span_is_zero_bytes() {
        assert_eq!(Bitrate::LIVE_STREAM.bytes_for(TimeSpan::ZERO), 0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Bitrate(96_000).to_string(), "96 kbps");
        assert_eq!(Bitrate(1_500).to_string(), "1500 bps");
    }
}
