//! Property-based tests for the recommender's scoring and scheduling
//! invariants.

use pphcr_audio::ClipId;
use pphcr_catalog::{CategoryId, ClipKind, ClipMetadata, ContentRepository, GeoTag};
use pphcr_geo::{GeoPoint, LocalProjection, ProjectedPoint, TimePoint, TimeSpan};
use pphcr_recommender::{
    category_entropy, diversify, sanitize_score, Ambient, CandidateFilter, DriveContext,
    ListenerContext, SchedulerConfig, ScoredClip, ScoringWeights,
};
use pphcr_trajectory::TripPrediction;
use pphcr_userdata::{FeedbackEvent, FeedbackKind, FeedbackStore, UserId};
use proptest::prelude::*;
use std::collections::HashSet;

fn meta(id: u64, cat: u16, minutes: u64, confidence: f64) -> ClipMetadata {
    ClipMetadata {
        id: ClipId(id),
        title: format!("clip {id}"),
        kind: ClipKind::Podcast,
        category: CategoryId::new(cat),
        category_confidence: confidence,
        duration: TimeSpan::minutes(minutes),
        published: TimePoint::at(0, 6, 0, 0),
        geo: None,
        transcript: Vec::new(),
    }
}

fn scored(id: u64, seconds: u64, score: f64) -> ScoredClip {
    ScoredClip {
        clip: ClipId(id),
        duration: TimeSpan::seconds(seconds),
        score,
        content_score: score,
        context_score: score,
        geo_distance_m: None,
        along_route_m: None,
    }
}

fn drive(minutes: u64) -> DriveContext {
    DriveContext::new(
        TripPrediction {
            destination: 1,
            confidence: 0.9,
            total_duration: TimeSpan::minutes(minutes + 2),
            remaining: TimeSpan::minutes(minutes),
            route_ahead: vec![
                ProjectedPoint::new(0.0, 0.0),
                ProjectedPoint::new(minutes as f64 * 600.0, 0.0),
            ],
            complexity: 1.0,
            posterior: vec![(1, 0.9)],
        },
        vec![],
    )
}

proptest! {
    /// The compound score is always in [0, 1] for any preferences,
    /// weights mix, classifier confidence and geo distance.
    #[test]
    fn compound_always_bounded(
        wc in 0.0f64..1.0,
        cat in 0u16..30,
        conf in 0.0f64..1.0,
        minutes in 1u64..45,
        geo_d in proptest::option::of(0.0f64..50_000.0),
        likes in 0u32..6,
        dislikes in 0u32..6,
    ) {
        let weights = ScoringWeights { content_weight: wc, ..Default::default() };
        let mut fb = FeedbackStore::default();
        let t = TimePoint::at(0, 8, 0, 0);
        for _ in 0..likes {
            fb.record(FeedbackEvent { user: UserId(1), clip: None, category: CategoryId::new(cat), kind: FeedbackKind::Like, time: t });
        }
        for _ in 0..dislikes {
            fb.record(FeedbackEvent { user: UserId(1), clip: None, category: CategoryId::new(cat), kind: FeedbackKind::Dislike, time: t });
        }
        let prefs = fb.preferences(UserId(1), t);
        let m = meta(1, cat, minutes, conf);
        let ctx = ListenerContext::stationary(t);
        let s = weights.compound(
            weights.content_relevance(&prefs, &m),
            weights.context_relevance(&m, &ctx, geo_d),
        );
        prop_assert!((0.0..=1.0).contains(&s), "score {}", s);
    }

    /// Packing invariants for arbitrary candidate sets: no overlap,
    /// within budget, at most max_items, total score equals the sum of
    /// the items' scores.
    #[test]
    fn pack_invariants(
        specs in prop::collection::vec((30u64..1_200, 0.01f64..1.0), 0..20),
        trip_min in 5u64..45,
        max_items in 1usize..8,
    ) {
        let clips: Vec<ScoredClip> = specs
            .iter()
            .enumerate()
            .map(|(i, (d, s))| scored(i as u64, *d, *s))
            .collect();
        let cfg = SchedulerConfig { max_items, ..Default::default() };
        let d = drive(trip_min);
        let schedule = cfg.pack(&clips, &d, TimePoint::at(0, 8, 0, 0));
        prop_assert!(schedule.is_well_formed());
        prop_assert!(schedule.items.len() <= max_items);
        let budget = d.delta_t().minus(cfg.reserve).as_seconds();
        for item in &schedule.items {
            prop_assert!(item.end_s() <= budget);
        }
        let sum: f64 = schedule.items.iter().map(|i| i.score).sum();
        prop_assert!((schedule.total_score - sum).abs() < 1e-9);
        // No duplicate clips.
        let mut ids: Vec<u64> = schedule.items.iter().map(|i| i.clip.0).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), schedule.items.len());
    }

    /// MMR diversification never invents items, never duplicates, and
    /// λ = 1 preserves the relevance prefix.
    #[test]
    fn mmr_invariants(
        cats in prop::collection::vec(0u16..10, 1..25),
        lambda in 0.0f64..1.0,
        k in 1usize..10,
    ) {
        let mut repo = ContentRepository::new(LocalProjection::new(GeoPoint::new(45.07, 7.69)));
        let ranked: Vec<ScoredClip> = cats
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                repo.ingest(meta(i as u64, c, 5, 1.0));
                scored(i as u64, 300, 1.0 - i as f64 * 0.01)
            })
            .collect();
        let out = diversify(&ranked, &repo, lambda, k);
        prop_assert!(out.len() <= k.min(ranked.len()));
        let mut ids: Vec<u64> = out.iter().map(|c| c.clip.0).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), out.len(), "no duplicates");
        for c in &out {
            prop_assert!(ranked.iter().any(|r| r.clip == c.clip), "invented item");
        }
        // Entropy is bounded by log2 of the list length.
        let h = category_entropy(&out, &repo);
        prop_assert!(h <= (out.len().max(1) as f64).log2() + 1e-9);
    }

    /// Differential: index-backed retrieval is bit-identical to the
    /// reference linear scan over random repositories, preferences,
    /// routes and exclusion sets, shortlist and stats alike, and every
    /// clip is counted exactly once as cut or scored.
    #[test]
    fn indexed_retrieval_equals_linear_scan(
        clip_specs in prop::collection::vec((0u16..30, 0u64..400, 1u64..30), 1..60),
        geo_specs in prop::collection::vec(
            (0usize..60, -3_000.0f64..3_000.0, 0.0f64..12_000.0),
            0..10,
        ),
        likes in prop::collection::vec(0u16..30, 0..5),
        dislikes in prop::collection::vec(0u16..30, 0..5),
        exclude_sel in prop::collection::vec(0usize..60, 0..10),
        with_drive in 0u32..2,
        max_candidates in 1usize..30,
    ) {
        let now = TimePoint::at(20, 8, 0, 0);
        let mut repo = ContentRepository::new(LocalProjection::new(GeoPoint::new(45.07, 7.69)));
        let proj = *repo.projection();
        for (i, (cat, age_h, dur)) in clip_specs.iter().enumerate() {
            let mut m = meta(i as u64, *cat, *dur, 1.0);
            m.published = now.rewind(TimeSpan::hours(*age_h));
            if let Some((_, dy, dx)) =
                geo_specs.iter().find(|(idx, _, _)| *idx == i)
            {
                m.geo = Some(GeoTag {
                    point: proj.unproject(ProjectedPoint::new(*dx, *dy)),
                    radius_m: 500.0,
                });
            }
            repo.ingest(m);
        }
        let mut fb = FeedbackStore::default();
        for &c in &likes {
            for _ in 0..3 {
                fb.record(FeedbackEvent { user: UserId(1), clip: None, category: CategoryId::new(c), kind: FeedbackKind::Like, time: now });
            }
        }
        for &c in &dislikes {
            for _ in 0..3 {
                fb.record(FeedbackEvent { user: UserId(1), clip: None, category: CategoryId::new(c), kind: FeedbackKind::Dislike, time: now });
            }
        }
        let prefs = fb.preferences(UserId(1), now);
        let ctx = if with_drive == 1 {
            ListenerContext {
                now,
                position: Some(ProjectedPoint::new(0.0, 0.0)),
                speed_mps: 10.0,
                drive: Some(drive(18)),
                ambient: Ambient::default(),
            }
        } else {
            ListenerContext::stationary(now)
        };
        let exclude: HashSet<ClipId> =
            exclude_sel.iter().map(|&i| ClipId(i as u64)).collect();
        let filter = CandidateFilter { max_candidates, ..Default::default() };
        let weights = ScoringWeights::default();
        let (scan, scan_stats) = filter.reference_scan(&repo, &prefs, &ctx, &weights, &exclude);
        let (indexed, indexed_stats) =
            filter.candidates_indexed_excluding_stats(&repo, &prefs, &ctx, &weights, &exclude);
        prop_assert_eq!(scan, indexed);
        prop_assert_eq!(scan_stats, indexed_stats);
        let s = indexed_stats;
        prop_assert_eq!(
            s.cut_freshness + s.cut_preference + s.cut_heard + s.scored,
            repo.len() as u64,
            "{:?}", s
        );
        prop_assert_eq!(s.considered, s.cut_heard + s.scored, "{:?}", s);
    }

    /// `sanitize_score` always lands in [0, 1] and never passes a NaN
    /// through, including for the IEEE specials.
    #[test]
    fn sanitize_score_is_total(sel in 0u32..6, v in -100.0f64..100.0) {
        let input = match sel {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => -0.0,
            4 => f64::MIN_POSITIVE,
            _ => v,
        };
        let s = sanitize_score(input);
        prop_assert!(!s.is_nan());
        prop_assert!((0.0..=1.0).contains(&s), "{} -> {}", input, s);
        // Idempotent and order-preserving on the valid range.
        prop_assert_eq!(sanitize_score(s), s);
        if (0.0..=1.0).contains(&input) {
            prop_assert_eq!(s, input);
        }
    }
}
