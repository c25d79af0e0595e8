//! Bearer selection and broadcast coverage.
//!
//! A hybrid-radio client (ETSI TS 103 270) keeps the *same service*
//! while switching between its bearers: FM or DAB where the broadcast
//! signal reaches, IP elsewhere. The paper's efficiency argument
//! (§1.1: "the efficiency of content delivery can be optimized, if the
//! device allows using a broadcast technology") only materializes where
//! coverage exists — this module models that: transmitter footprints
//! and per-position bearer choice with hysteresis (no flapping at the
//! cell edge).

use pphcr_geo::ProjectedPoint;
use serde::{Deserialize, Serialize};

/// A broadcast transmitter footprint (disc model).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Transmitter {
    /// Position in the projected frame.
    pub position: ProjectedPoint,
    /// Usable signal radius, meters.
    pub radius_m: f64,
}

/// The coverage map of the broadcast network.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CoverageMap {
    pub(crate) transmitters: Vec<Transmitter>,
}

impl CoverageMap {
    /// Creates an empty map (no broadcast coverage anywhere).
    #[must_use]
    pub fn new() -> Self {
        CoverageMap::default()
    }

    /// Adds a transmitter.
    pub fn add(&mut self, position: ProjectedPoint, radius_m: f64) {
        self.transmitters.push(Transmitter { position, radius_m });
    }

    /// Number of transmitters.
    #[must_use]
    pub fn len(&self) -> usize {
        self.transmitters.len()
    }

    /// True when the map has no transmitters.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.transmitters.is_empty()
    }

    /// Signal margin at `pos`: positive inside coverage (meters to the
    /// nearest cell edge), negative outside (distance beyond the edge).
    #[must_use]
    pub fn margin_m(&self, pos: ProjectedPoint) -> f64 {
        self.transmitters
            .iter()
            .map(|t| t.radius_m - t.position.distance_m(pos))
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// Which bearer class the client currently uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BearerClass {
    /// FM or DAB.
    Broadcast,
    /// Internet stream.
    Ip,
}

/// Per-position bearer selection with edge hysteresis.
///
/// Switching bearers interrupts audio for a re-tune, so the selector
/// only leaves broadcast when the signal margin drops below
/// `-hysteresis_m` and only returns when it exceeds `+hysteresis_m`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BearerSelector {
    pub(crate) coverage: CoverageMap,
    /// Hysteresis band half-width, meters.
    pub hysteresis_m: f64,
    pub(crate) current: BearerClass,
    pub(crate) switches: u32,
}

impl BearerSelector {
    /// Creates a selector over `coverage`, starting on broadcast when
    /// available anywhere.
    #[must_use]
    pub fn new(coverage: CoverageMap) -> Self {
        let current = if coverage.is_empty() { BearerClass::Ip } else { BearerClass::Broadcast };
        BearerSelector { coverage, hysteresis_m: 150.0, current, switches: 0 }
    }

    /// Observes the listener's position; returns the bearer to use and
    /// records a switch when it changes.
    pub fn observe(&mut self, pos: ProjectedPoint) -> BearerClass {
        let margin = self.coverage.margin_m(pos);
        let next = match self.current {
            BearerClass::Broadcast if margin < -self.hysteresis_m => BearerClass::Ip,
            BearerClass::Ip if margin > self.hysteresis_m => BearerClass::Broadcast,
            same => same,
        };
        if next != self.current {
            self.switches += 1;
            self.current = next;
        }
        self.current
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn city_coverage() -> CoverageMap {
        let mut c = CoverageMap::new();
        c.add(ProjectedPoint::new(0.0, 0.0), 5_000.0);
        c.add(ProjectedPoint::new(12_000.0, 0.0), 4_000.0);
        c
    }

    #[test]
    fn margin_and_coverage() {
        let c = city_coverage();
        assert!(c.margin_m(ProjectedPoint::new(1_000.0, 0.0)) >= 0.0);
        assert!(c.margin_m(ProjectedPoint::new(7_000.0, 0.0)) < 0.0, "gap between cells");
        assert!(c.margin_m(ProjectedPoint::new(11_000.0, 0.0)) >= 0.0);
        assert!(c.margin_m(ProjectedPoint::new(0.0, 0.0)) > 4_999.0);
        let empty = CoverageMap::new();
        assert_eq!(empty.margin_m(ProjectedPoint::new(0.0, 0.0)), f64::NEG_INFINITY);
    }

    #[test]
    fn selector_switches_in_the_gap_and_back() {
        let mut sel = BearerSelector::new(city_coverage());
        assert_eq!(sel.current, BearerClass::Broadcast);
        // Drive east through the coverage gap.
        for x in (0..=12_000).step_by(500) {
            sel.observe(ProjectedPoint::new(f64::from(x), 0.0));
        }
        assert_eq!(sel.current, BearerClass::Broadcast, "back inside cell 2");
        assert_eq!(sel.switches, 2, "one drop to IP in the gap, one return");
    }

    #[test]
    fn hysteresis_prevents_flapping_at_the_edge() {
        let mut sel = BearerSelector::new(city_coverage());
        // Oscillate ±100 m around the 5 km edge — inside the 150 m band.
        for i in 0..50 {
            let x = 5_000.0 + if i % 2 == 0 { 100.0 } else { -100.0 };
            sel.observe(ProjectedPoint::new(x, 0.0));
        }
        assert_eq!(sel.switches, 0, "no switch inside the hysteresis band");
        // A decisive exit does switch.
        sel.observe(ProjectedPoint::new(6_000.0, 0.0));
        assert_eq!(sel.switches, 1);
        assert_eq!(sel.current, BearerClass::Ip);
    }

    #[test]
    fn no_coverage_starts_on_ip() {
        let sel = BearerSelector::new(CoverageMap::new());
        assert_eq!(sel.current, BearerClass::Ip);
    }
}
