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
    /// Each user's last compacted model, always of a prefix of the
    /// user's trace: an appended fix keeps it for the next compaction
    /// to reuse, and a fix inserted before a stored one drops it.
    models: HashMap<UserId, MobilityModel>,
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
    /// dropped. A fix that lands before a stored one drops the user's
    /// model, which no longer describes a prefix of the trace.
    pub fn record(&mut self, user: UserId, fix: GpsFix) {
        if fix.validate().is_err() {
            self.dropped_invalid += 1;
            return;
        }
        if !self.traces.entry(user).or_default().push(fix) {
            self.models.remove(&user);
        }
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

    /// The user's compact mobility model, compacted again only when
    /// new fixes arrived since the last compaction (the paper's
    /// "periodically process and simplify" job, run on demand), and
    /// then from the last model through [`MobilityModel::compact`].
    ///
    /// # Errors
    /// [`TrackingError::NoFixes`] for a user without any recorded fix —
    /// previously this silently built an empty model; an engine asking
    /// for the mobility of an untracked listener is a caller bug worth
    /// surfacing.
    pub fn mobility_model(&mut self, user: UserId) -> Result<&MobilityModel, TrackingError> {
        let Some(trace) = self.traces.get(&user) else {
            return Err(TrackingError::NoFixes(user));
        };
        if self.models.get(&user).is_none_or(|model| model.fix_count() != trace.len()) {
            let prev = self.models.remove(&user);
            let model = MobilityModel::compact(prev, trace, &self.projection, &self.config);
            self.models.insert(user, model);
        }
        self.models.get(&user).ok_or(TrackingError::NoFixes(user))
    }

    /// The compaction configuration models are built with — exposed so
    /// a parallel pipeline can run [`MobilityModel::compact`] off-thread
    /// with the exact parameters [`TrackingStore::mobility_model`]
    /// would use.
    #[must_use]
    pub fn model_config(&self) -> &ModelConfig {
        &self.config
    }

    /// The user's last compacted model: current when its
    /// [`MobilityModel::fix_count`] equals the trace's length, else
    /// compacted from a prefix of the trace.
    #[must_use]
    pub fn last_model(&self, user: UserId) -> Option<&MobilityModel> {
        self.models.get(&user)
    }

    /// Takes the user's last model out of the store when it is stale
    /// (compacted from a shorter prefix). Pipelines that must not hold
    /// `&mut self` while they compact take it first, compact it
    /// off-thread through [`MobilityModel::compact`] with
    /// [`TrackingStore::trace`], then [`TrackingStore::install_model`]
    /// the result.
    pub fn take_stale_model(&mut self, user: UserId) -> Option<MobilityModel> {
        let fixes = self.fix_count(user);
        if self.models.get(&user)?.fix_count() == fixes {
            return None;
        }
        self.models.remove(&user)
    }

    /// Installs a model compacted off-thread as the user's model. It
    /// must have been compacted from the user's trace, or a prefix of
    /// it, with [`Self::model_config`] — [`MobilityModel::compact`] is
    /// pure, so such a model is indistinguishable from one
    /// [`TrackingStore::mobility_model`] would have compacted itself.
    pub fn install_model(&mut self, user: UserId, model: MobilityModel) {
        self.models.insert(user, model);
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
    fn appended_fixes_keep_the_model_for_reuse_and_late_ones_drop_it() {
        let mut s = store_with_drive();
        let built = s.mobility_model(UserId(1)).expect("has fixes").fix_count();
        assert_eq!(built, 60);
        let fix = |t: u64| GpsFix::new(TORINO.destination(90.0, 12_000.0), TimePoint(t), 7.0);
        // Appended: the stored model stays, now of a 60-fix prefix.
        s.record(UserId(1), fix(60 * 30));
        assert_eq!(s.last_model(UserId(1)).map(MobilityModel::fix_count), Some(60));
        let grown = s.mobility_model(UserId(1)).expect("has fixes").clone();
        assert_eq!(grown.fix_count(), 61);
        let trace = s.trace(UserId(1)).expect("has fixes");
        let scratch = MobilityModel::build(trace, s.projection(), s.model_config());
        assert_eq!((grown.trips.len(), &grown.trips), (1, &scratch.trips));
        // Inserted before a stored fix: the model describes no prefix
        // of the trace any more and goes.
        s.record(UserId(1), fix(15));
        assert!(s.last_model(UserId(1)).is_none());
        assert_eq!(s.mobility_model(UserId(1)).expect("has fixes").fix_count(), 62);
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
