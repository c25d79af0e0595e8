//! Content-based, context-based and compound relevance.
//!
//! The compound score is the weighted combination named in §1.2:
//!
//! ```text
//! S(clip) = w_c · S_content(clip, prefs) + (1 − w_c) · S_context(clip, ctx)
//! ```
//!
//! `S_content` comes from the listener's decayed per-category
//! preferences; `S_context` mixes geographic proximity to the route
//! ahead, freshness, time-of-day affinity and a complexity/duration fit
//! (short, light items while threading a dense urban route). All
//! components live in `[0, 1]`, so the compound score does too and
//! weight sweeps (experiment E9) are interpretable.

use crate::context::ListenerContext;
use pphcr_catalog::category::CATEGORY_NAMES;
use pphcr_catalog::{CategoryId, ClipKind, ClipMetadata, CATEGORY_COUNT};
use pphcr_geo::TimeSpan;
use pphcr_userdata::PreferenceVector;
use serde::{Deserialize, Serialize};

/// A category's editorial time-of-day prior.
#[derive(Debug, Clone, Copy)]
enum Daypart {
    /// News and service content: wanted in commute hours.
    News,
    /// Light content: wanted in the evening.
    Leisure,
    /// No time-of-day preference.
    Neutral,
}

/// A category's editorial priors.
#[derive(Debug, Clone, Copy)]
struct Priors {
    daypart: Daypart,
    /// Weather and traffic content turns urgent in adverse conditions.
    weather_topical: bool,
}

/// The priors of every category, indexed by [`CategoryId`]: resolved
/// from [`CATEGORY_NAMES`] at compile time so scoring a clip reads one
/// table entry instead of matching names.
const PRIORS: [Priors; CATEGORY_COUNT as usize] = {
    let mut out =
        [Priors { daypart: Daypart::Neutral, weather_topical: false }; CATEGORY_COUNT as usize];
    let mut i = 0;
    while i < out.len() {
        let name = CATEGORY_NAMES[i].as_bytes();
        out[i] = Priors {
            daypart: match name {
                b"local-news" | b"national-news" | b"world-news" | b"traffic" | b"weather" => {
                    Daypart::News
                }
                b"comedy" | b"entertainment" | b"music" => Daypart::Leisure,
                _ => Daypart::Neutral,
            },
            weather_topical: matches!(name, b"weather" | b"traffic"),
        };
        i += 1;
    }
    out
};

/// Weights of the compound relevance score.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScoringWeights {
    /// Weight of content-based relevance (`w_c`); context gets `1 − w_c`.
    pub content_weight: f64,
    /// Within the context score: weight of geographic relevance.
    pub geo_weight: f64,
    /// Within the context score: weight of freshness.
    pub freshness_weight: f64,
    /// Within the context score: weight of the time-of-day affinity.
    pub time_weight: f64,
    /// Within the context score: weight of the complexity/duration fit.
    pub fit_weight: f64,
    /// Within the context score: weight of the weather affinity.
    pub weather_weight: f64,
    /// Freshness half-life.
    pub freshness_half_life: TimeSpan,
    /// Distance scale of geographic relevance decay, meters.
    pub geo_scale_m: f64,
}

impl Default for ScoringWeights {
    fn default() -> Self {
        ScoringWeights {
            content_weight: 0.55,
            geo_weight: 0.35,
            freshness_weight: 0.25,
            time_weight: 0.15,
            fit_weight: 0.25,
            weather_weight: 0.1,
            freshness_half_life: TimeSpan::hours(24),
            geo_scale_m: 1_500.0,
        }
    }
}

impl ScoringWeights {
    /// Content-based relevance in `[0, 1]`: the listener's preference
    /// for the clip's category (rescaled from `[-1, 1]`), attenuated by
    /// the classifier's confidence in that category.
    #[must_use]
    pub fn content_relevance(&self, prefs: &PreferenceVector, meta: &ClipMetadata) -> f64 {
        let pref = prefs.score(meta.category); // [-1, 1]
        let neutral = 0.5;
        let conf = meta.category_confidence.clamp(0.0, 1.0);
        // With zero classifier confidence the category tells us nothing:
        // fall back to neutral.
        neutral + (pref / 2.0) * conf
    }

    /// Geographic kernel over a precomputed distance (meters) from the
    /// clip's tag to the route ahead.
    #[must_use]
    pub fn geo_kernel(&self, distance_m: f64) -> f64 {
        (-distance_m.max(0.0) / self.geo_scale_m).exp()
    }

    /// Freshness in `[0, 1]`: exponential decay from publication, with
    /// news decaying at the configured half-life and evergreen kinds
    /// (podcasts, music) at 8× that.
    #[must_use]
    pub fn freshness(&self, meta: &ClipMetadata, ctx: &ListenerContext) -> f64 {
        let hl = match meta.kind {
            ClipKind::NewsBulletin => self.freshness_half_life,
            ClipKind::Advertisement => self.freshness_half_life,
            ClipKind::Podcast | ClipKind::MusicTrack => {
                TimeSpan::seconds(self.freshness_half_life.as_seconds() * 8)
            }
        };
        meta.freshness(ctx.now, hl)
    }

    /// Time-of-day affinity in `[0, 1]`: a small editorial prior (news
    /// and traffic in commute hours, comedy and music in the evening,
    /// neutral otherwise).
    #[must_use]
    pub fn time_affinity(&self, category: CategoryId, hour: u64) -> f64 {
        let commute = matches!(hour, 7..=9 | 17..=19);
        let evening = matches!(hour, 19..=23);
        match PRIORS[category.0 as usize].daypart {
            Daypart::News if commute => 1.0,
            Daypart::News => 0.5,
            Daypart::Leisure if evening => 1.0,
            Daypart::Leisure => 0.6,
            Daypart::Neutral => 0.5,
        }
    }

    /// Weather affinity in `[0, 1]`: weather and traffic content is
    /// urgent in adverse conditions; everything else is weather-neutral
    /// (the future-work "richer contexts" hook, §3).
    #[must_use]
    pub fn weather_affinity(&self, category: CategoryId, ctx: &ListenerContext) -> f64 {
        if PRIORS[category.0 as usize].weather_topical && ctx.ambient.weather.is_adverse() {
            1.0
        } else {
            0.5
        }
    }

    /// Complexity/duration fit in `[0, 1]`: when the route ahead is
    /// complex (dense urban driving), long clips score low — the paper's
    /// "non-distracting" requirement; on a simple highway run, length is
    /// free. Adverse weather raises the pressure further.
    #[must_use]
    pub fn complexity_fit(&self, meta: &ClipMetadata, ctx: &ListenerContext) -> f64 {
        let Some(drive) = ctx.drive.as_ref() else { return 1.0 };
        let complexity = drive.prediction.complexity.max(0.0);
        // Normalized pressure: 0 on straight routes, →1 on very twisty,
        // scaled up when the weather is bad.
        let pressure = (complexity / 6.0 * ctx.ambient.weather.distraction_multiplier()).min(1.0);
        let minutes = meta.duration.as_minutes_f64();
        // A 3-minute clip is always fine; a 30-minute talk scores ~0.2
        // under full pressure.
        let length_penalty = (minutes / 30.0).min(1.0);
        1.0 - pressure * length_penalty * 0.8
    }

    /// The context-based relevance: weighted mix of the context
    /// components, normalized back to `[0, 1]`.
    ///
    /// `geo_distance_m` is the precomputed distance from the clip's tag
    /// to the route ahead (`None` for untagged clips).
    #[must_use]
    pub fn context_relevance(
        &self,
        meta: &ClipMetadata,
        ctx: &ListenerContext,
        geo_distance_m: Option<f64>,
    ) -> f64 {
        let geo = match geo_distance_m {
            Some(d) => self.geo_kernel(d),
            None => {
                if meta.geo.is_some() {
                    0.1 // tagged but nowhere near the listener's world
                } else {
                    0.5 // untagged content is geographically neutral
                }
            }
        };
        let fresh = self.freshness(meta, ctx);
        let time = self.time_affinity(meta.category, ctx.hour());
        let fit = self.complexity_fit(meta, ctx);
        let weather = self.weather_affinity(meta.category, ctx);
        let total_w = self.geo_weight
            + self.freshness_weight
            + self.time_weight
            + self.fit_weight
            + self.weather_weight;
        (self.geo_weight * geo
            + self.freshness_weight * fresh
            + self.time_weight * time
            + self.fit_weight * fit
            + self.weather_weight * weather)
            / total_w
    }

    /// The compound score of §1.2 from its two components, as
    /// computed by [`Self::content_relevance`] and
    /// [`Self::context_relevance`].
    #[must_use]
    pub fn compound(&self, content: f64, context: f64) -> f64 {
        let w = self.content_weight.clamp(0.0, 1.0);
        w * content + (1.0 - w) * context
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{Ambient, DriveContext};
    use pphcr_audio::ClipId;
    use pphcr_catalog::GeoTag;
    use pphcr_geo::{GeoPoint, ProjectedPoint, TimePoint};
    use pphcr_trajectory::TripPrediction;
    use pphcr_userdata::{FeedbackEvent, FeedbackKind, FeedbackStore, UserId};

    fn meta(cat: u16, kind: ClipKind, minutes: u64) -> ClipMetadata {
        ClipMetadata {
            id: ClipId(1),
            title: "t".into(),
            kind,
            category: CategoryId::new(cat),
            category_confidence: 1.0,
            duration: TimeSpan::minutes(minutes),
            published: TimePoint::at(0, 6, 0, 0),
            geo: None,
            transcript: Vec::new(),
        }
    }

    /// The compound score of one clip, both components computed fresh.
    fn compound(
        w: &ScoringWeights,
        prefs: &PreferenceVector,
        meta: &ClipMetadata,
        ctx: &ListenerContext,
        geo_distance_m: Option<f64>,
    ) -> f64 {
        w.compound(w.content_relevance(prefs, meta), w.context_relevance(meta, ctx, geo_distance_m))
    }

    fn prefs_liking(cat: u16) -> PreferenceVector {
        let mut store = FeedbackStore::default();
        let t = TimePoint::at(0, 8, 0, 0);
        for _ in 0..3 {
            store.record(FeedbackEvent {
                user: UserId(1),
                clip: None,
                category: CategoryId::new(cat),
                kind: FeedbackKind::Like,
                time: t,
            });
        }
        store.preferences(UserId(1), t)
    }

    fn driving_ctx(complexity: f64) -> ListenerContext {
        let prediction = TripPrediction {
            destination: 1,
            confidence: 0.8,
            total_duration: TimeSpan::minutes(25),
            remaining: TimeSpan::minutes(20),
            route_ahead: vec![ProjectedPoint::new(0.0, 0.0), ProjectedPoint::new(12_000.0, 0.0)],
            complexity,
            posterior: vec![(1, 1.0)],
        };
        ListenerContext {
            now: TimePoint::at(0, 8, 10, 0),
            position: Some(ProjectedPoint::new(0.0, 0.0)),
            speed_mps: 10.0,
            drive: Some(DriveContext::new(prediction, vec![])),
            ambient: Ambient::default(),
        }
    }

    #[test]
    fn content_relevance_tracks_preferences() {
        let w = ScoringWeights::default();
        let prefs = prefs_liking(8);
        let liked = meta(8, ClipKind::Podcast, 10);
        let neutral = meta(3, ClipKind::Podcast, 10);
        assert!(w.content_relevance(&prefs, &liked) > 0.8);
        assert!((w.content_relevance(&prefs, &neutral) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn low_classifier_confidence_pulls_to_neutral() {
        let w = ScoringWeights::default();
        let prefs = prefs_liking(8);
        let mut m = meta(8, ClipKind::Podcast, 10);
        m.category_confidence = 0.1;
        let score = w.content_relevance(&prefs, &m);
        assert!(score > 0.5 && score < 0.6);
    }

    #[test]
    fn geo_kernel_decays() {
        let w = ScoringWeights::default();
        assert!((w.geo_kernel(0.0) - 1.0).abs() < 1e-12);
        assert!(w.geo_kernel(1_500.0) < w.geo_kernel(100.0));
        assert!(w.geo_kernel(20_000.0) < 0.01);
    }

    #[test]
    fn news_decays_faster_than_podcasts() {
        let w = ScoringWeights::default();
        let mut ctx = ListenerContext::stationary(TimePoint::at(2, 6, 0, 0));
        ctx.now = TimePoint::at(2, 6, 0, 0); // 48 h after publication
        let news = meta(14, ClipKind::NewsBulletin, 5);
        let podcast = meta(1, ClipKind::Podcast, 5);
        assert!(w.freshness(&news, &ctx) < w.freshness(&podcast, &ctx));
    }

    #[test]
    fn time_affinity_priors() {
        let w = ScoringWeights::default();
        let news = CategoryId::from_name("local-news").unwrap();
        let comedy = CategoryId::from_name("comedy").unwrap();
        assert!(w.time_affinity(news, 8) > w.time_affinity(news, 14));
        assert!(w.time_affinity(comedy, 21) > w.time_affinity(comedy, 8));
        assert_eq!(w.time_affinity(CategoryId::new(0), 12), 0.5);
    }

    #[test]
    fn category_priors_match_the_names() {
        use crate::context::Weather;
        // The name-matching priors the id table replaced.
        fn time_by_name(category: CategoryId, hour: u64) -> f64 {
            let commute = matches!(hour, 7..=9 | 17..=19);
            let evening = matches!(hour, 19..=23);
            match category.name() {
                "local-news" | "national-news" | "world-news" | "traffic" | "weather"
                    if commute =>
                {
                    1.0
                }
                "local-news" | "national-news" | "world-news" | "traffic" | "weather" => 0.5,
                "comedy" | "entertainment" | "music" if evening => 1.0,
                "comedy" | "entertainment" | "music" => 0.6,
                _ => 0.5,
            }
        }
        fn weather_by_name(category: CategoryId, weather: Weather) -> f64 {
            let topical = matches!(category.name(), "weather" | "traffic");
            if topical && weather.is_adverse() {
                1.0
            } else {
                0.5
            }
        }
        let w = ScoringWeights::default();
        let weathers = [Weather::Clear, Weather::Rain, Weather::Snow, Weather::Fog];
        for category in CategoryId::all() {
            for hour in 0..24 {
                let got = w.time_affinity(category, hour);
                assert_eq!(
                    got.to_bits(),
                    time_by_name(category, hour).to_bits(),
                    "{category} {hour}h"
                );
                for weather in weathers {
                    let mut ctx = ListenerContext::stationary(TimePoint::at(0, hour, 0, 0));
                    ctx.ambient.weather = weather;
                    assert_eq!(
                        w.weather_affinity(category, &ctx).to_bits(),
                        weather_by_name(category, weather).to_bits(),
                        "{category} {weather:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn complexity_penalizes_long_clips_only_when_twisty() {
        let w = ScoringWeights::default();
        let long = meta(1, ClipKind::Podcast, 30);
        let short = meta(1, ClipKind::Podcast, 3);
        let twisty = driving_ctx(8.0);
        let straight = driving_ctx(0.0);
        assert!(w.complexity_fit(&long, &twisty) < w.complexity_fit(&short, &twisty));
        assert!((w.complexity_fit(&long, &straight) - 1.0).abs() < 1e-9);
        // Stationary: no penalty at all.
        let stationary = ListenerContext::stationary(TimePoint::at(0, 9, 0, 0));
        assert_eq!(w.complexity_fit(&long, &stationary), 1.0);
    }

    #[test]
    fn compound_is_convex_combination() {
        let prefs = prefs_liking(8);
        let ctx = driving_ctx(1.0);
        let m = meta(8, ClipKind::Podcast, 10);
        for wc in [0.0, 0.3, 0.7, 1.0] {
            let w = ScoringWeights { content_weight: wc, ..Default::default() };
            let s = compound(&w, &prefs, &m, &ctx, None);
            assert!((0.0..=1.0).contains(&s), "wc={wc}: {s}");
        }
        // Pure content weight: compound equals content relevance.
        let w = ScoringWeights { content_weight: 1.0, ..Default::default() };
        assert!(
            (compound(&w, &prefs, &m, &ctx, None) - w.content_relevance(&prefs, &m)).abs() < 1e-12
        );
    }

    #[test]
    fn adverse_weather_boosts_traffic_and_penalizes_length() {
        let w = ScoringWeights::default();
        let mut rainy = driving_ctx(4.0);
        rainy.ambient.weather = crate::context::Weather::Snow;
        let clear = driving_ctx(4.0);
        let traffic = meta(CategoryId::from_name("traffic").unwrap().0, ClipKind::NewsBulletin, 2);
        assert!(
            w.weather_affinity(traffic.category, &rainy)
                > w.weather_affinity(traffic.category, &clear)
        );
        // Long clips get harder to justify in snow.
        let long = meta(1, ClipKind::Podcast, 30);
        assert!(w.complexity_fit(&long, &rainy) < w.complexity_fit(&long, &clear));
        // And the overall context relevance of the traffic bulletin rises.
        let prefs = PreferenceVector::neutral();
        assert!(
            compound(&w, &prefs, &traffic, &rainy, None)
                > compound(&w, &prefs, &traffic, &clear, None)
        );
    }

    #[test]
    fn activity_classification() {
        use crate::context::Activity;
        let mut ctx = ListenerContext::stationary(TimePoint::at(0, 9, 0, 0));
        assert_eq!(ctx.activity(), Activity::Still);
        ctx.speed_mps = 1.5;
        assert_eq!(ctx.activity(), Activity::Walking);
        ctx.speed_mps = 12.0;
        assert_eq!(ctx.activity(), Activity::Driving);
        assert!(ctx.is_driving());
    }

    #[test]
    fn geo_pinned_item_gains_from_proximity() {
        let w = ScoringWeights::default();
        let prefs = PreferenceVector::neutral();
        let ctx = driving_ctx(1.0);
        let mut tagged = meta(13, ClipKind::NewsBulletin, 4);
        tagged.geo = Some(GeoTag { point: GeoPoint::new(45.1, 7.7), radius_m: 1_000.0 });
        let near = compound(&w, &prefs, &tagged, &ctx, Some(200.0));
        let far = compound(&w, &prefs, &tagged, &ctx, Some(30_000.0));
        let unknown = compound(&w, &prefs, &tagged, &ctx, None);
        assert!(near > far);
        assert!(far >= unknown - 0.05);
    }
}
