//! Radio services and their bearers.
//!
//! A hybrid-radio service is the *same* programme reachable over
//! several bearers — FM, DAB+ or an IP stream — identified in the
//! `RadioDNS` manner (ETSI TS 103 270, the paper's reference [9]): an FM
//! bearer is keyed by country code + PI code + frequency, a DAB bearer
//! by EId/SId, an IP bearer by stream URL. The client picks the cheapest
//! bearer that carries the service; that choice is what the paper's
//! network-resource-optimization claim rests on.

use pphcr_audio::Bitrate;
use serde::{Deserialize, Serialize};

/// Dense index of a service within the platform (Rai runs 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ServiceIndex(pub u32);

impl std::fmt::Display for ServiceIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "service:{}", self.0)
    }
}

/// One way of receiving a service.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Bearer {
    /// Analogue FM: extended country code, PI code, frequency in kHz —
    /// the key fields of a `RadioDNS` `fm/` lookup.
    Fm {
        /// Global country code (GCC) as in `RadioDNS`, e.g. "5e0" for Italy.
        gcc: String,
        /// RDS programme identification code.
        pi: u16,
        /// Carrier frequency, kHz.
        frequency_khz: u32,
    },
    /// DAB+: ensemble id and service id.
    Dab {
        /// Ensemble identifier.
        eid: u16,
        /// Service identifier.
        sid: u32,
    },
    /// Internet stream.
    Ip {
        /// Stream URL.
        url: String,
    },
}

/// A live radio service.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Service {
    /// Platform-local index.
    pub index: ServiceIndex,
    /// Human name ("Rai Radio1", …).
    pub name: String,
    /// Ways of receiving the service, preferred first.
    pub bearers: Vec<Bearer>,
    /// Stream bit rate (96 kbps for Rai's streams).
    pub bitrate: Bitrate,
}

impl Service {
    /// Builds the paper's 10-service Rai-like line-up, each with an FM,
    /// a DAB and an IP bearer at 96 kbps.
    #[must_use]
    pub fn rai_lineup() -> Vec<Service> {
        (0..10u32)
            .map(|i| Service {
                index: ServiceIndex(i),
                name: format!("Radio {}", i + 1),
                bearers: vec![
                    Bearer::Fm {
                        gcc: "5e0".to_string(),
                        pi: 0x5201 + i as u16,
                        frequency_khz: 89_300 + i * 400,
                    },
                    Bearer::Dab { eid: 0x5064, sid: 0x0005_2010 + i },
                    Bearer::Ip { url: format!("http://stream.example/radio{}", i + 1) },
                ],
                bitrate: Bitrate::LIVE_STREAM,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lineup_has_ten_hybrid_services() {
        let lineup = Service::rai_lineup();
        assert_eq!(lineup.len(), 10);
        for s in &lineup {
            assert!(s.bearers.iter().any(|b| !matches!(b, Bearer::Ip { .. })));
            assert!(s.bearers.iter().any(|b| matches!(b, Bearer::Ip { .. })));
            assert_eq!(s.bitrate, Bitrate::LIVE_STREAM);
        }
    }

    #[test]
    fn lineup_bearers_are_unique() {
        let lineup = Service::rai_lineup();
        let bearers: Vec<&Bearer> = lineup.iter().flat_map(|s| &s.bearers).collect();
        for (i, b) in bearers.iter().enumerate() {
            assert!(!bearers[i + 1..].contains(b), "duplicate bearer {b:?}");
        }
    }
}
