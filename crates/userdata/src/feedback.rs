//! The feedbacks DB and the learned preference model.
//!
//! Paper §1.3/§2: "While the user is listening to the service, a
//! positive implicit feedback is periodically sent for that audio
//! content. In contrast, each skip action generates a negative
//! feedback", plus explicit like/dislike buttons. The store keeps the
//! raw navigation log; [`FeedbackStore::preferences`] folds it into a
//! per-category preference vector with exponential time decay — recent
//! taste outweighs last month's — which is the content-based half of
//! the recommender's compound score.

use crate::profile::UserId;
use pphcr_audio::ClipId;
use pphcr_catalog::{CategoryId, CATEGORY_COUNT};
use pphcr_geo::{TimePoint, TimeSpan};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// The kind (and sign) of one feedback event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FeedbackKind {
    /// Explicit like button.
    Like,
    /// Explicit dislike button.
    Dislike,
    /// The listener skipped the item.
    Skip,
    /// The listener heard the item to the end.
    ListenedThrough,
    /// Periodic implicit positive while listening (fraction of the item
    /// heard so far, in `(0, 1]`).
    PartialListen(f64),
}

impl FeedbackKind {
    /// The signed weight this event contributes to its category.
    #[must_use]
    pub fn weight(self) -> f64 {
        match self {
            FeedbackKind::Like => 1.0,
            FeedbackKind::Dislike => -1.0,
            FeedbackKind::Skip => -0.7,
            // Passive completion is weak evidence: people leave the
            // radio on. Explicit likes must dominate it by far, or the
            // learner latches onto whatever it happened to play first.
            FeedbackKind::ListenedThrough => 0.25,
            FeedbackKind::PartialListen(fraction) => 0.1 * fraction.clamp(0.0, 1.0),
        }
    }
}

/// One entry of the navigation log.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FeedbackEvent {
    /// Who.
    pub user: UserId,
    /// The clip the feedback is about, when it is about a clip (skips
    /// of live programmes carry `None`).
    pub clip: Option<ClipId>,
    /// The content category the feedback applies to.
    pub category: CategoryId,
    /// What happened.
    pub kind: FeedbackKind,
    /// When.
    pub time: TimePoint,
}

/// A listener's decayed per-category preference scores.
///
/// Scores are squashed into `[-1, 1]` by `tanh`; 0 means "no signal".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PreferenceVector {
    scores: Vec<f64>,
}

impl PreferenceVector {
    /// The neutral (cold-start) vector.
    #[must_use]
    pub fn neutral() -> Self {
        PreferenceVector { scores: vec![0.0; CATEGORY_COUNT as usize] }
    }

    /// The preference for one category, in `[-1, 1]`.
    #[must_use]
    pub fn score(&self, category: CategoryId) -> f64 {
        self.scores[category.0 as usize]
    }

    /// Categories sorted by descending preference.
    #[must_use]
    pub fn ranked(&self) -> Vec<(CategoryId, f64)> {
        let mut out: Vec<(CategoryId, f64)> =
            (0..CATEGORY_COUNT).map(|c| (CategoryId(c), self.scores[c as usize])).collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }
}

/// Decayed per-category accumulator (raw, pre-squash).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
struct DecayedSum {
    value: f64,
    last: TimePoint,
}

/// The feedbacks DB.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FeedbackStore {
    /// Raw navigation log per user (append order = time order expected
    /// from the client, but not enforced).
    log: HashMap<UserId, Vec<FeedbackEvent>>,
    /// Decayed per-(user, category) accumulators.
    sums: HashMap<UserId, Vec<DecayedSum>>,
    /// Preference half-life.
    half_life: TimeSpan,
}

impl Default for FeedbackStore {
    fn default() -> Self {
        FeedbackStore::new(TimeSpan::hours(24 * 14))
    }
}

impl FeedbackStore {
    /// Creates a store whose preference signal halves every
    /// `half_life`.
    ///
    /// # Panics
    /// Panics on a zero half-life.
    #[must_use]
    pub fn new(half_life: TimeSpan) -> Self {
        assert!(!half_life.is_zero(), "half-life must be positive");
        FeedbackStore { log: HashMap::new(), sums: HashMap::new(), half_life }
    }

    fn decay_factor(&self, from: TimePoint, to: TimePoint) -> f64 {
        let dt = to.since(from).as_seconds() as f64;
        0.5f64.powf(dt / self.half_life.as_seconds() as f64)
    }

    /// Records one event and updates the decayed accumulator.
    pub fn record(&mut self, event: FeedbackEvent) {
        self.log.entry(event.user).or_default().push(event);
        let half_life_s = self.half_life.as_seconds() as f64;
        let sums = self
            .sums
            .entry(event.user)
            .or_insert_with(|| vec![DecayedSum::default(); CATEGORY_COUNT as usize]);
        let slot = &mut sums[event.category.0 as usize];
        let dt = event.time.since(slot.last).as_seconds() as f64;
        slot.value = slot.value * 0.5f64.powf(dt / half_life_s) + event.kind.weight();
        slot.last = slot.last.max(event.time);
    }

    /// The user's raw navigation log (chronological as recorded).
    #[must_use]
    pub fn events(&self, user: UserId) -> &[FeedbackEvent] {
        self.log.get(&user).map_or(&[], Vec::as_slice)
    }

    /// Number of events recorded for `user`.
    #[must_use]
    pub fn event_count(&self, user: UserId) -> usize {
        self.log.get(&user).map_or(0, Vec::len)
    }

    /// The user's preference vector as of `now`. Cold-start users get
    /// the neutral vector.
    #[must_use]
    // lint: allow(reach-hash-iter) — `sums` binds one user's Vec of decayed sums, not the map itself
    pub fn preferences(&self, user: UserId, now: TimePoint) -> PreferenceVector {
        let Some(sums) = self.sums.get(&user) else {
            return PreferenceVector::neutral();
        };
        let scores =
            sums.iter().map(|s| (s.value * self.decay_factor(s.last, now)).tanh()).collect();
        PreferenceVector { scores }
    }

    /// Users with at least one event.
    #[must_use]
    // lint: allow(reach-hash-iter) — user ids are sorted before return
    pub fn known_users(&self) -> Vec<UserId> {
        let mut users: Vec<UserId> = self.log.keys().copied().collect();
        users.sort_unstable();
        users
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WINE: CategoryId = CategoryId(8);
    const FOOTBALL: CategoryId = CategoryId(5);

    fn ev(user: u64, cat: CategoryId, kind: FeedbackKind, t: TimePoint) -> FeedbackEvent {
        FeedbackEvent { user: UserId(user), clip: None, category: cat, kind, time: t }
    }

    #[test]
    fn likes_raise_skips_lower() {
        let mut store = FeedbackStore::default();
        let t = TimePoint::at(0, 9, 0, 0);
        store.record(ev(1, WINE, FeedbackKind::Like, t));
        store.record(ev(1, FOOTBALL, FeedbackKind::Skip, t));
        let prefs = store.preferences(UserId(1), t);
        assert!(prefs.score(WINE) > 0.5);
        assert!(prefs.score(FOOTBALL) < -0.3);
        assert_eq!(prefs.score(CategoryId(0)), 0.0);
    }

    #[test]
    fn cold_start_is_neutral() {
        let store = FeedbackStore::default();
        let prefs = store.preferences(UserId(99), TimePoint::EPOCH);
        assert!(prefs.scores.iter().all(|&s| s == 0.0));
    }

    #[test]
    fn preferences_decay_towards_neutral() {
        let mut store = FeedbackStore::new(TimeSpan::hours(24));
        let t0 = TimePoint::at(0, 9, 0, 0);
        store.record(ev(1, WINE, FeedbackKind::Like, t0));
        let fresh = store.preferences(UserId(1), t0).score(WINE);
        let later = store.preferences(UserId(1), t0.advance(TimeSpan::hours(24))).score(WINE);
        let much_later = store.preferences(UserId(1), t0.advance(TimeSpan::hours(240))).score(WINE);
        assert!(fresh > later && later > much_later);
        assert!(much_later > 0.0 && much_later < 0.01);
    }

    #[test]
    fn repeated_signals_accumulate_but_saturate() {
        let mut store = FeedbackStore::default();
        let mut t = TimePoint::at(0, 9, 0, 0);
        for _ in 0..3 {
            store.record(ev(1, WINE, FeedbackKind::ListenedThrough, t));
            t = t.advance(TimeSpan::minutes(20));
        }
        let three = store.preferences(UserId(1), t).score(WINE);
        for _ in 0..30 {
            store.record(ev(1, WINE, FeedbackKind::ListenedThrough, t));
            t = t.advance(TimeSpan::minutes(20));
        }
        let many = store.preferences(UserId(1), t).score(WINE);
        assert!(many > three);
        assert!(many <= 1.0, "tanh keeps scores bounded: {many}");
    }

    #[test]
    fn recent_dislike_outweighs_old_likes() {
        let mut store = FeedbackStore::new(TimeSpan::hours(24));
        let t0 = TimePoint::at(0, 9, 0, 0);
        // Two likes long ago…
        store.record(ev(1, FOOTBALL, FeedbackKind::Like, t0));
        store.record(ev(1, FOOTBALL, FeedbackKind::Like, t0.advance(TimeSpan::hours(1))));
        // …then ten days of silence and a dislike now.
        let now = t0.advance(TimeSpan::hours(240));
        store.record(ev(1, FOOTBALL, FeedbackKind::Dislike, now));
        assert!(store.preferences(UserId(1), now).score(FOOTBALL) < 0.0);
    }

    #[test]
    fn partial_listen_scales_with_fraction() {
        let mut store = FeedbackStore::default();
        let t = TimePoint::at(0, 9, 0, 0);
        store.record(ev(1, WINE, FeedbackKind::PartialListen(0.9), t));
        store.record(ev(2, WINE, FeedbackKind::PartialListen(0.1), t));
        let big = store.preferences(UserId(1), t).score(WINE);
        let small = store.preferences(UserId(2), t).score(WINE);
        assert!(big > small && small > 0.0);
    }

    #[test]
    fn ranked_orders_categories() {
        let mut store = FeedbackStore::default();
        let t = TimePoint::at(0, 9, 0, 0);
        store.record(ev(1, WINE, FeedbackKind::Like, t));
        store.record(ev(1, CategoryId(7), FeedbackKind::ListenedThrough, t));
        store.record(ev(1, FOOTBALL, FeedbackKind::Dislike, t));
        let ranked = store.preferences(UserId(1), t).ranked();
        assert_eq!(ranked[0].0, WINE);
        assert_eq!(ranked[1].0, CategoryId(7));
        assert_eq!(ranked.last().unwrap().0, FOOTBALL);
        assert_eq!(ranked.len(), 30);
    }

    #[test]
    fn log_and_known_users() {
        let mut store = FeedbackStore::default();
        let t = TimePoint::at(0, 9, 0, 0);
        store.record(ev(3, WINE, FeedbackKind::Like, t));
        store.record(ev(1, WINE, FeedbackKind::Skip, t));
        store.record(ev(3, FOOTBALL, FeedbackKind::Skip, t));
        assert_eq!(store.event_count(UserId(3)), 2);
        assert_eq!(store.events(UserId(1)).len(), 1);
        assert_eq!(store.known_users(), vec![UserId(1), UserId(3)]);
    }

    #[test]
    fn weights_have_expected_signs() {
        assert!(FeedbackKind::Like.weight() > 0.0);
        assert!(FeedbackKind::ListenedThrough.weight() > 0.0);
        assert!(FeedbackKind::Skip.weight() < 0.0);
        assert!(FeedbackKind::Dislike.weight() < 0.0);
    }
}
