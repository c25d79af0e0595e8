//! The electronic programme guide (EPG).
//!
//! Schedule metadata is what makes the replacement of Fig. 4 possible:
//! the client knows that "Program 2" runs 10:55–11:10, so it can align
//! clip boundaries with programme boundaries and time-shift the live
//! stream by exactly the displacement the replacement introduced. The
//! schedule is a per-service, non-overlapping sequence of programmes on
//! the platform clock.

use crate::category::CategoryId;
use crate::service::ServiceIndex;
use pphcr_geo::time::TimeInterval;
use pphcr_geo::TimePoint;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Identifier of a scheduled programme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ProgrammeId(pub u64);

impl std::fmt::Display for ProgrammeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "programme:{}", self.0)
    }
}

/// One scheduled programme on one service.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Programme {
    /// The programme's id.
    pub id: ProgrammeId,
    /// Service it airs on.
    pub service: ServiceIndex,
    /// Editorial title ("Wikiradio", "Decanter", …).
    pub title: String,
    /// Editorial category.
    pub category: CategoryId,
    /// Air time.
    pub interval: TimeInterval,
}

/// Why a programme could not be scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleError {
    /// The programme overlaps an existing one on the same service.
    Overlaps {
        /// The already-scheduled programme it collides with.
        existing: ProgrammeId,
    },
    /// The programme interval is empty.
    EmptyInterval,
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::Overlaps { existing } => {
                write!(f, "programme overlaps {existing}")
            }
            ScheduleError::EmptyInterval => write!(f, "programme interval is empty"),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// The EPG: per-service programme timelines.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Schedule {
    /// Programmes per service, kept sorted by start time.
    by_service: HashMap<ServiceIndex, Vec<Programme>>,
}

impl Schedule {
    /// Creates an empty schedule.
    #[must_use]
    pub fn new() -> Self {
        Schedule::default()
    }

    /// Adds a programme, rejecting overlaps on its service.
    ///
    /// # Errors
    /// [`ScheduleError::Overlaps`] or [`ScheduleError::EmptyInterval`].
    pub fn add(&mut self, programme: Programme) -> Result<(), ScheduleError> {
        if programme.interval.is_empty() {
            return Err(ScheduleError::EmptyInterval);
        }
        let slots = self.by_service.entry(programme.service).or_default();
        if let Some(existing) = slots.iter().find(|p| p.interval.overlaps(programme.interval)) {
            return Err(ScheduleError::Overlaps { existing: existing.id });
        }
        let idx = slots.partition_point(|p| p.interval.start < programme.interval.start);
        slots.insert(idx, programme);
        Ok(())
    }

    /// The programme airing on `service` at instant `t`.
    #[must_use]
    pub fn programme_at(&self, service: ServiceIndex, t: TimePoint) -> Option<&Programme> {
        let slots = self.by_service.get(&service)?;
        let idx = slots.partition_point(|p| p.interval.start <= t);
        idx.checked_sub(1).map(|i| &slots[i]).filter(|p| p.interval.contains(t))
    }

    /// The first programme on `service` starting at or after `t`.
    #[must_use]
    pub fn next_programme(&self, service: ServiceIndex, t: TimePoint) -> Option<&Programme> {
        let slots = self.by_service.get(&service)?;
        let idx = slots.partition_point(|p| p.interval.start < t);
        slots.get(idx)
    }

    /// Total number of scheduled programmes.
    #[must_use]
    // lint: allow(reach-hash-iter) — a sum over per-service lengths is visit-order insensitive
    pub fn len(&self) -> usize {
        self.by_service.values().map(Vec::len).sum()
    }

    /// True when nothing is scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks a programme up by id. Nothing stops the same id being
    /// scheduled on two services, so the scan visits services in
    /// ascending order to make the winner deterministic.
    #[must_use]
    pub fn get(&self, id: ProgrammeId) -> Option<&Programme> {
        // lint: allow(hash-iter) — service keys are collected and sorted before the scan
        let mut services: Vec<ServiceIndex> = self.by_service.keys().copied().collect();
        services.sort_unstable();
        services.into_iter().find_map(|s| self.by_service[&s].iter().find(|p| p.id == id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prog(id: u64, service: u32, start: TimePoint, end: TimePoint) -> Programme {
        Programme {
            id: ProgrammeId(id),
            service: ServiceIndex(service),
            title: format!("Programme {id}"),
            category: CategoryId::new((id % 30) as u16),
            interval: TimeInterval::new(start, end),
        }
    }

    /// The Fig. 4 morning on one service.
    fn fig4_schedule() -> Schedule {
        let mut s = Schedule::new();
        s.add(prog(1, 0, TimePoint::at(0, 10, 42, 30), TimePoint::at(0, 10, 55, 0))).unwrap();
        s.add(prog(2, 0, TimePoint::at(0, 10, 55, 0), TimePoint::at(0, 11, 10, 0))).unwrap();
        s.add(prog(3, 0, TimePoint::at(0, 11, 10, 0), TimePoint::at(0, 11, 20, 0))).unwrap();
        s
    }

    #[test]
    fn programme_at_boundaries() {
        let s = fig4_schedule();
        let svc = ServiceIndex(0);
        assert_eq!(s.programme_at(svc, TimePoint::at(0, 10, 50, 0)).unwrap().id, ProgrammeId(1));
        // Boundary belongs to the next programme (half-open intervals).
        assert_eq!(s.programme_at(svc, TimePoint::at(0, 10, 55, 0)).unwrap().id, ProgrammeId(2));
        assert_eq!(s.programme_at(svc, TimePoint::at(0, 11, 19, 59)).unwrap().id, ProgrammeId(3));
        assert!(s.programme_at(svc, TimePoint::at(0, 11, 20, 0)).is_none());
        assert!(s.programme_at(svc, TimePoint::at(0, 9, 0, 0)).is_none());
    }

    #[test]
    fn overlap_rejected() {
        let mut s = fig4_schedule();
        let err =
            s.add(prog(9, 0, TimePoint::at(0, 11, 0, 0), TimePoint::at(0, 11, 5, 0))).unwrap_err();
        assert_eq!(err, ScheduleError::Overlaps { existing: ProgrammeId(2) });
        // Same time on another service is fine.
        s.add(prog(9, 1, TimePoint::at(0, 11, 0, 0), TimePoint::at(0, 11, 5, 0))).unwrap();
    }

    #[test]
    fn empty_interval_rejected() {
        let mut s = Schedule::new();
        let t = TimePoint::at(0, 10, 0, 0);
        assert_eq!(s.add(prog(1, 0, t, t)).unwrap_err(), ScheduleError::EmptyInterval);
    }

    #[test]
    fn next_programme_lookup() {
        let s = fig4_schedule();
        let svc = ServiceIndex(0);
        let next = s.next_programme(svc, TimePoint::at(0, 10, 50, 0)).unwrap();
        assert_eq!(next.id, ProgrammeId(2));
        // At an exact start, that programme is "next".
        let at = s.next_programme(svc, TimePoint::at(0, 10, 55, 0)).unwrap();
        assert_eq!(at.id, ProgrammeId(2));
        assert!(s.next_programme(svc, TimePoint::at(0, 12, 0, 0)).is_none());
    }

    #[test]
    fn out_of_order_insertion_stays_sorted() {
        let mut s = Schedule::new();
        s.add(prog(2, 0, TimePoint(200), TimePoint(300))).unwrap();
        s.add(prog(1, 0, TimePoint(0), TimePoint(100))).unwrap();
        s.add(prog(3, 0, TimePoint(100), TimePoint(200))).unwrap();
        let ids: Vec<u64> = s.by_service[&ServiceIndex(0)].iter().map(|p| p.id.0).collect();
        assert_eq!(ids, vec![1, 3, 2]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn get_by_id() {
        let s = fig4_schedule();
        assert_eq!(s.get(ProgrammeId(2)).unwrap().title, "Programme 2");
        assert!(s.get(ProgrammeId(77)).is_none());
    }

    #[test]
    fn get_with_duplicate_id_prefers_lowest_service() {
        // Regression: T3 witness `candidates… → Schedule::get` — with
        // the same id scheduled on two services, the winner used to be
        // hash-map visit order.
        let mut s = Schedule::new();
        for service in [4u32, 0, 2] {
            let mut p = prog(7, service, TimePoint(0), TimePoint(100));
            p.title = format!("on service {service}");
            s.add(p).unwrap();
        }
        assert_eq!(s.get(ProgrammeId(7)).unwrap().title, "on service 0");
    }
}
