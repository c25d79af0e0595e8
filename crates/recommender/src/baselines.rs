//! Baseline recommenders for the evaluation harness.
//!
//! The paper has no open-source comparator, so the benches compare the
//! compound context-aware recommender against the standard internal
//! baselines: global popularity and seeded random.

use crate::candidates::ScoredClip;
use pphcr_audio::ClipId;
use pphcr_catalog::ContentRepository;
use pphcr_userdata::FeedbackStore;
use std::collections::HashMap;

/// Ranks all repository clips by global like/listen counts — what a
/// non-personalized "most popular" rail would play.
#[must_use]
pub fn popularity_ranking(repo: &ContentRepository, feedback: &FeedbackStore) -> Vec<ScoredClip> {
    // Count positive events per clip over the whole population.
    let mut counts: HashMap<ClipId, f64> = HashMap::new();
    let mut max_count = 0.0f64;
    for user in feedback.known_users() {
        for ev in feedback.events(user) {
            if let Some(clip) = ev.clip {
                if ev.kind.weight() > 0.0 {
                    let c = counts.entry(clip).or_insert(0.0);
                    *c += 1.0;
                    max_count = max_count.max(*c);
                }
            }
        }
    }
    let denom = max_count.max(1.0);
    // The floor score keeps the baseline operational on a cold
    // population: "most popular" rails play *something* even before any
    // likes arrive.
    let mut out: Vec<ScoredClip> = repo
        .iter()
        .map(|meta| ScoredClip {
            clip: meta.id,
            duration: meta.duration,
            score: 0.05 + 0.95 * (counts.get(&meta.id).copied().unwrap_or(0.0) / denom),
            content_score: 0.0,
            context_score: 0.0,
            geo_distance_m: None,
            along_route_m: None,
        })
        .collect();
    out.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.clip.cmp(&b.clip)));
    out
}

/// Seeded pseudo-random ranking (uniform shuffle) — the floor any
/// learned method must clear.
#[must_use]
pub fn random_ranking(repo: &ContentRepository, seed: u64) -> Vec<ScoredClip> {
    let mut out: Vec<ScoredClip> = repo
        .iter()
        .map(|meta| {
            // SplitMix-style hash of (seed, id) as the sort key.
            let mut z = seed ^ meta.id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            let score = (z >> 11) as f64 / (1u64 << 53) as f64;
            ScoredClip {
                clip: meta.id,
                duration: meta.duration,
                score,
                content_score: 0.0,
                context_score: 0.0,
                geo_distance_m: None,
                along_route_m: None,
            }
        })
        .collect();
    out.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.clip.cmp(&b.clip)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pphcr_catalog::{CategoryId, ClipKind, ClipMetadata};
    use pphcr_geo::{GeoPoint, LocalProjection, TimePoint, TimeSpan};
    use pphcr_userdata::{FeedbackEvent, FeedbackKind, UserId};

    const TORINO: GeoPoint = GeoPoint { lat: 45.0703, lon: 7.6869 };

    fn repo(n: u64) -> ContentRepository {
        let mut r = ContentRepository::new(LocalProjection::new(TORINO));
        for i in 0..n {
            r.ingest(ClipMetadata {
                id: ClipId(i),
                title: format!("clip {i}"),
                kind: ClipKind::Podcast,
                category: CategoryId::new((i % 30) as u16),
                category_confidence: 1.0,
                duration: TimeSpan::minutes(5),
                published: TimePoint::at(0, 6, 0, 0),
                geo: None,
                transcript: Vec::new(),
            });
        }
        r
    }

    #[test]
    fn popularity_ranks_liked_clips_first() {
        let r = repo(10);
        let mut fb = FeedbackStore::default();
        let t = TimePoint::at(0, 9, 0, 0);
        for user in 0..5 {
            fb.record(FeedbackEvent {
                user: UserId(user),
                clip: Some(ClipId(7)),
                category: CategoryId::new(7),
                kind: FeedbackKind::Like,
                time: t,
            });
        }
        fb.record(FeedbackEvent {
            user: UserId(0),
            clip: Some(ClipId(3)),
            category: CategoryId::new(3),
            kind: FeedbackKind::Like,
            time: t,
        });
        // Skips do not add popularity.
        fb.record(FeedbackEvent {
            user: UserId(1),
            clip: Some(ClipId(5)),
            category: CategoryId::new(5),
            kind: FeedbackKind::Skip,
            time: t,
        });
        let ranking = popularity_ranking(&r, &fb);
        assert_eq!(ranking[0].clip, ClipId(7));
        assert_eq!(ranking[1].clip, ClipId(3));
        assert!((ranking[0].score - 1.0).abs() < 1e-12);
    }

    #[test]
    fn random_is_deterministic_per_seed_and_varies_across_seeds() {
        let r = repo(20);
        let a = random_ranking(&r, 1);
        let b = random_ranking(&r, 1);
        let c = random_ranking(&r, 2);
        let ids = |v: &[ScoredClip]| v.iter().map(|x| x.clip).collect::<Vec<_>>();
        assert_eq!(ids(&a), ids(&b));
        assert_ne!(ids(&a), ids(&c));
        assert_eq!(a.len(), 20);
    }

    #[test]
    fn empty_world_degrades_gracefully() {
        let r = repo(0);
        let fb = FeedbackStore::default();
        assert!(popularity_ranking(&r, &fb).is_empty());
        assert!(random_ranking(&r, 5).is_empty());
    }
}
