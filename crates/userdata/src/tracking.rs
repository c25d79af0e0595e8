//! The tracking data DB.
//!
//! Stand-in for the paper's "`PostGIS` based spatial DB with the
//! listener's geographical information": per-user GPS traces and the
//! periodic compaction job that turns raw fixes into each user's
//! [`MobilityModel`].

use crate::profile::UserId;
use pphcr_geo::{GeoPoint, LocalProjection};
use pphcr_trajectory::fix::{GpsFix, Trace};
use pphcr_trajectory::model::{MobilityModel, ModelConfig};
use std::collections::HashMap;

/// Why a tracking query could not be answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackingError {
    /// The user has no recorded fixes, so no mobility model exists.
    NoFixes(UserId),
}

impl std::fmt::Display for TrackingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrackingError::NoFixes(user) => {
                write!(f, "user {} has no recorded fixes", user.0)
            }
        }
    }
}

impl std::error::Error for TrackingError {}

/// The tracking store.
#[derive(Debug)]
pub struct TrackingStore {
    projection: LocalProjection,
    traces: HashMap<UserId, Trace>,
    /// Cached compact models, invalidated by new fixes.
    models: HashMap<UserId, (usize, MobilityModel)>,
    config: ModelConfig,
    dropped_invalid: u64,
}

impl TrackingStore {
    /// Creates a store projecting around `origin` with the default
    /// compaction configuration.
    #[must_use]
    pub fn new(origin: GeoPoint) -> Self {
        TrackingStore::with_config(origin, ModelConfig::default())
    }

    /// Creates a store with an explicit compaction configuration.
    #[must_use]
    pub fn with_config(origin: GeoPoint, config: ModelConfig) -> Self {
        TrackingStore {
            projection: LocalProjection::new(origin),
            traces: HashMap::new(),
            models: HashMap::new(),
            config,
            dropped_invalid: 0,
        }
    }

    /// The store's projection (shared with repository and recommender).
    #[must_use]
    pub fn projection(&self) -> &LocalProjection {
        &self.projection
    }

    /// Ingests one fix from a device. Invalid fixes (NaN coordinates,
    /// negative speed — GPS cold-start garbage) are counted and
    /// dropped.
    pub fn record(&mut self, user: UserId, fix: GpsFix) {
        if !fix.point.is_valid() || !fix.speed_mps.is_finite() || fix.speed_mps < 0.0 {
            self.dropped_invalid += 1;
            return;
        }
        self.traces.entry(user).or_default().push(fix);
        self.models.remove(&user);
    }

    /// Number of invalid fixes dropped so far.
    #[must_use]
    pub fn dropped_invalid(&self) -> u64 {
        self.dropped_invalid
    }

    /// Restores the invalid-fix counter after a snapshot reload.
    /// Stored fixes are re-recorded through [`TrackingStore::record`]
    /// (they were validated on first ingest, so none are re-dropped),
    /// but the drop counter itself is history that cannot be rebuilt
    /// from surviving state.
    pub fn restore_dropped_invalid(&mut self, dropped: u64) {
        self.dropped_invalid = dropped;
    }

    /// The user's full raw trace.
    #[must_use]
    pub fn trace(&self, user: UserId) -> Option<&Trace> {
        self.traces.get(&user)
    }

    /// Total stored fixes across users.
    #[must_use]
    pub fn total_fixes(&self) -> usize {
        self.traces.values().map(Trace::len).sum()
    }

    /// Stored fixes for one user. Monotonically increasing per user, so
    /// it doubles as a cheap revision counter for caches keyed on a
    /// user's mobility state.
    #[must_use]
    pub fn fix_count(&self, user: UserId) -> usize {
        self.traces.get(&user).map_or(0, Trace::len)
    }

    /// The user's most recent `n` fixes (oldest first).
    #[must_use]
    pub fn recent_fixes(&self, user: UserId, n: usize) -> Vec<GpsFix> {
        self.traces
            .get(&user)
            .map(|t| {
                let fixes = t.fixes();
                fixes[fixes.len().saturating_sub(n)..].to_vec()
            })
            .unwrap_or_default()
    }

    /// The user's compact mobility model, rebuilt only when new fixes
    /// arrived since the last build (the paper's "periodically process
    /// and simplify" job, run on demand).
    ///
    /// # Errors
    /// [`TrackingError::NoFixes`] for a user without any recorded fix —
    /// previously this silently built an empty model; an engine asking
    /// for the mobility of an untracked listener is a caller bug worth
    /// surfacing.
    pub fn mobility_model(&mut self, user: UserId) -> Result<&MobilityModel, TrackingError> {
        let fix_count = match self.traces.get(&user) {
            Some(t) => t.len(),
            None => return Err(TrackingError::NoFixes(user)),
        };
        let needs_build = match self.models.get(&user) {
            Some((count, _)) => *count != fix_count,
            None => true,
        };
        if needs_build {
            let trace = self.traces.get(&user).cloned().unwrap_or_default();
            let model = MobilityModel::build(&trace, &self.projection, &self.config);
            self.models.insert(user, (fix_count, model));
        }
        match self.models.get(&user) {
            Some((_, model)) => Ok(model),
            None => Err(TrackingError::NoFixes(user)),
        }
    }

    /// The compaction configuration models are built with — exposed so
    /// a parallel pipeline can run [`MobilityModel::build`] off-thread
    /// with the exact parameters [`TrackingStore::mobility_model`]
    /// would use.
    #[must_use]
    pub fn model_config(&self) -> &ModelConfig {
        &self.config
    }

    /// The user's cached mobility model, only when it is current (built
    /// from every stored fix). A read-only twin of
    /// [`TrackingStore::mobility_model`] for pipelines that must not
    /// hold `&mut self`: a stale or missing cache returns `None` and
    /// the caller rebuilds off-thread from [`TrackingStore::trace`].
    #[must_use]
    pub fn cached_model(&self, user: UserId) -> Option<&MobilityModel> {
        let fix_count = self.traces.get(&user)?.len();
        match self.models.get(&user) {
            Some((count, model)) if *count == fix_count => Some(model),
            _ => None,
        }
    }

    /// Installs a model built off-thread as the user's cached model,
    /// stamped with the current fix count. The model must have been
    /// built from the user's full trace with [`Self::model_config`] —
    /// [`MobilityModel::build`] is pure, so such a model is
    /// indistinguishable from one built by
    /// [`TrackingStore::mobility_model`] itself.
    pub fn install_model(&mut self, user: UserId, model: MobilityModel) {
        let fix_count = self.fix_count(user);
        self.models.insert(user, (fix_count, model));
    }

    /// Users with at least one fix.
    #[must_use]
    // lint: allow(reach-hash-iter) — user ids are sorted before return
    pub fn known_users(&self) -> Vec<UserId> {
        let mut users: Vec<UserId> = self.traces.keys().copied().collect();
        users.sort_unstable();
        users
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pphcr_geo::{TimePoint, TimeSpan};

    const TORINO: GeoPoint = GeoPoint { lat: 45.0703, lon: 7.6869 };

    fn store_with_drive() -> TrackingStore {
        let mut s = TrackingStore::new(TORINO);
        for i in 0..60u64 {
            s.record(
                UserId(1),
                GpsFix::new(TORINO.destination(90.0, i as f64 * 200.0), TimePoint(i * 30), 7.0),
            );
        }
        s
    }

    #[test]
    fn record_and_trace() {
        let s = store_with_drive();
        assert_eq!(s.trace(UserId(1)).unwrap().len(), 60);
        assert!(s.trace(UserId(2)).is_none());
        assert_eq!(s.total_fixes(), 60);
        assert_eq!(s.known_users(), vec![UserId(1)]);
    }

    #[test]
    fn invalid_fixes_dropped() {
        let mut s = TrackingStore::new(TORINO);
        s.record(UserId(1), GpsFix::new(GeoPoint::new(f64::NAN, 7.0), TimePoint(0), 1.0));
        s.record(UserId(1), GpsFix::new(TORINO, TimePoint(1), -5.0));
        s.record(UserId(1), GpsFix::new(TORINO, TimePoint(2), 1.0));
        assert_eq!(s.dropped_invalid(), 2);
        assert_eq!(s.total_fixes(), 1);
    }

    #[test]
    fn recent_fixes_tail() {
        let s = store_with_drive();
        let recent = s.recent_fixes(UserId(1), 5);
        assert_eq!(recent.len(), 5);
        assert_eq!(recent[4].time, TimePoint(59 * 30));
        assert_eq!(recent[0].time, TimePoint(55 * 30));
        // Asking for more than stored returns all.
        assert_eq!(s.recent_fixes(UserId(1), 500).len(), 60);
        assert!(s.recent_fixes(UserId(9), 5).is_empty());
    }

    #[test]
    fn mobility_model_caches_until_new_fix() {
        let mut s = TrackingStore::new(TORINO);
        let work = TORINO.destination(90.0, 8_000.0);
        // Two commuting days.
        for day in 0..2u64 {
            let d0 = TimePoint::at(day, 0, 0, 0);
            for i in 0..80u64 {
                s.record(UserId(1), GpsFix::new(TORINO, d0.advance(TimeSpan::minutes(i * 5)), 0.1));
            }
            for i in 0..30u64 {
                let frac = i as f64 / 29.0;
                s.record(
                    UserId(1),
                    GpsFix::new(
                        TORINO.destination(90.0, frac * 8_000.0),
                        d0.advance(TimeSpan::hours(8)).advance(TimeSpan::seconds(i * 40)),
                        7.0,
                    ),
                );
            }
            for i in 0..60u64 {
                s.record(
                    UserId(1),
                    GpsFix::new(work, d0.advance(TimeSpan::minutes(540 + i * 8)), 0.1),
                );
            }
        }
        let stays = s.mobility_model(UserId(1)).expect("has fixes").stay_points.len();
        assert!(stays >= 2, "home and work expected, got {stays}");
        // Cached: building again without new fixes is the same object
        // (checked via pointer equality of the stored model).
        let p1 = std::ptr::addr_of!(*s.mobility_model(UserId(1)).expect("has fixes"));
        let p2 = std::ptr::addr_of!(*s.mobility_model(UserId(1)).expect("has fixes"));
        assert_eq!(p1, p2);
        // New fix invalidates.
        s.record(UserId(1), GpsFix::new(TORINO, TimePoint::at(3, 0, 0, 0), 0.1));
        assert!(s.mobility_model(UserId(1)).is_ok());
    }

    #[test]
    fn cold_user_is_a_typed_error_not_a_panic() {
        let mut s = TrackingStore::new(TORINO);
        // Regression for the `.expect("just inserted")` this replaced:
        // an untracked user must surface as a typed error, not an
        // invisible empty model (and certainly not a panic).
        assert!(matches!(s.mobility_model(UserId(42)), Err(TrackingError::NoFixes(UserId(42)))));
        // One valid fix is enough to make the query answerable.
        s.record(UserId(42), GpsFix::new(TORINO, TimePoint::at(0, 8, 0, 0), 1.0));
        let model = s.mobility_model(UserId(42)).expect("has a fix now");
        assert!(model.trips.is_empty());
    }
}
