//! Candidate filtering.
//!
//! §1.2: "For each user the recommender filters a candidate set of
//! media items using content-based relevance based on past listener's
//! feedbacks." The filter narrows the repository (thousands of clips)
//! to a scored shortlist: recent clips in categories the listener does
//! not dislike, clips fitting the available time, plus every geo-tagged
//! clip near the route ahead (those may win on context alone — Fig. 2's
//! item B).
//!
//! Retrieval is one walk,
//! [`CandidateFilter::candidates_indexed_excluding_stats`]: the
//! repository's per-category posting lists (freshness cutoff by binary
//! search) unioned with grid-bucketed route geo hits, scoring only that
//! set. [`CandidateFilter::reference_scan`] tests every clip in the
//! repository instead; it is the oracle the tests and E13 compare the
//! walk against, and no production path calls it.
//!
//! The two are differentially tested to be identical, shortlist and
//! [`RetrievalStats`] alike: both apply the same inclusion predicate in
//! the same order (category preference, then freshness, then heard),
//! the same [`score_one`] arithmetic and the same total-order ranking,
//! so the only difference is how the candidate set is *found*.

use crate::context::ListenerContext;
use crate::score::ScoringWeights;
use pphcr_audio::ClipId;
use pphcr_catalog::{ClipMetadata, ContentRepository};
use pphcr_geo::polyline::PathProjection;
use pphcr_geo::TimeSpan;
use pphcr_userdata::PreferenceVector;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// Maps a raw compound score into the ranking domain: NaN collapses to
/// zero, everything else clamps into `[0, 1]`. Ranking runs on
/// `total_cmp`, and a NaN entering it would sort *above* every real
/// score (positive NaN is `total_cmp`'s maximum), silently promoting a
/// broken candidate to the top — so reject it at the boundary instead.
#[must_use]
pub fn sanitize_score(score: f64) -> f64 {
    if score.is_nan() {
        0.0
    } else {
        score.clamp(0.0, 1.0)
    }
}

/// Stage counters from one retrieval: how many catalog entries were
/// looked at and why the rest never reached scoring. The engine copies
/// these into its decision trace.
///
/// Every clip lands in exactly one of `cut_preference`,
/// `cut_freshness`, `cut_heard` and `scored`, so those four sum to the
/// catalog size. A clip is charged to the first test it fails, in the
/// order the index walk cuts structurally: first the category
/// preference (a skipped category charges its whole posting list),
/// then freshness (a posting list's stale prefix, never visited), then
/// heard. Route geo hits are exempt from the first two. `considered`
/// counts the clips that clear the first two, so
/// `considered = cut_heard + scored`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetrievalStats {
    /// Clips that cleared the preference and freshness tests (or rode
    /// in as route geo hits) and were examined individually.
    pub considered: u64,
    /// Clips in a category that clears the preference floor, cut by
    /// the freshness window (and not rescued by geo).
    pub cut_freshness: u64,
    /// Clips cut by the category-preference floor (and not rescued by
    /// geo).
    pub cut_preference: u64,
    /// Geo-tagged clips inside the corridor whose tag could not be
    /// placed on the route (missing tag or non-finite projection).
    pub cut_geo: u64,
    /// Clips that cleared the preference and freshness tests but that
    /// the exclusion (heard) set already held.
    pub cut_heard: u64,
    /// Route geo matches that entered (or stayed in) the candidate set
    /// on geographic relevance alone.
    pub geo_hits: u64,
    /// Candidates that reached the scoring stage.
    pub scored: u64,
    /// Scored candidates dropped by the `max_candidates` cap.
    pub truncated: u64,
}

/// A candidate clip with its relevance breakdown.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScoredClip {
    /// The clip.
    pub clip: ClipId,
    /// Clip duration (copied out for the scheduler).
    pub duration: TimeSpan,
    /// Compound relevance score in `[0, 1]`.
    pub score: f64,
    /// Content-based component.
    pub content_score: f64,
    /// Context-based component.
    pub context_score: f64,
    /// Distance from the clip's geo tag to the route ahead, if tagged
    /// and near.
    pub geo_distance_m: Option<f64>,
    /// Along-route position of the tag (meters from the current
    /// position), for geo-pinned scheduling.
    pub along_route_m: Option<f64>,
}

impl ScoredClip {
    /// Builds a scored candidate, guarding the ranking invariant at the
    /// constructor: the compound score must not be NaN (debug builds
    /// assert; release builds sanitize into `[0, 1]`).
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        clip: ClipId,
        duration: TimeSpan,
        score: f64,
        content_score: f64,
        context_score: f64,
        geo_distance_m: Option<f64>,
        along_route_m: Option<f64>,
    ) -> Self {
        debug_assert!(!score.is_nan(), "NaN compound score for {clip:?}");
        ScoredClip {
            clip,
            duration,
            score: sanitize_score(score),
            content_score,
            context_score,
            geo_distance_m,
            along_route_m,
        }
    }
}

/// Candidate filtering parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CandidateFilter {
    /// Ignore clips older than this.
    pub max_age: TimeSpan,
    /// Drop clips whose category preference is below this (strong
    /// dislikes never reach the scheduler).
    pub min_category_pref: f64,
    /// Corridor width for route geo matches, meters.
    pub route_corridor_m: f64,
    /// Keep at most this many candidates (by score).
    pub max_candidates: usize,
}

impl Default for CandidateFilter {
    fn default() -> Self {
        CandidateFilter {
            max_age: TimeSpan::hours(24 * 7),
            min_category_pref: -0.5,
            route_corridor_m: 2_000.0,
            max_candidates: 50,
        }
    }
}

impl CandidateFilter {
    /// Index-backed retrieval: the scored shortlist, best first, with
    /// `exclude` (already-played clips) left out, plus the per-stage
    /// [`RetrievalStats`]. Candidates are the union of (a)
    /// posting-list suffixes (binary-searched freshness cutoff) of
    /// every category whose preference clears the threshold, and (b)
    /// grid-bucketed geo hits along the route ahead. Only that set is
    /// scored. Freshness and preference cuts are counted structurally
    /// from posting-list lengths, so the stats cost O(categories) on
    /// top of the clips actually visited.
    #[must_use]
    pub fn candidates_indexed_excluding_stats(
        &self,
        repo: &ContentRepository,
        prefs: &PreferenceVector,
        ctx: &ListenerContext,
        weights: &ScoringWeights,
        exclude: &HashSet<ClipId>,
    ) -> (Vec<ScoredClip>, RetrievalStats) {
        let mut stats = RetrievalStats::default();
        let cutoff = ctx.now.rewind(self.max_age);
        let geo_hits = self.geo_hits_for(repo, ctx, &mut stats);
        let mut out: Vec<ScoredClip> = Vec::new();
        for category in repo.indexed_categories() {
            let posted = repo.category_len(category) as u64;
            if prefs.score(category) < self.min_category_pref {
                stats.cut_preference += posted;
                continue;
            }
            let mut fresh = 0u64;
            for meta in repo.fresh_in_category(category, cutoff) {
                fresh += 1;
                stats.considered += 1;
                if exclude.contains(&meta.id) {
                    stats.cut_heard += 1;
                    continue;
                }
                out.push(score_one(meta, prefs, ctx, weights, geo_hit(meta, &geo_hits)));
            }
            stats.cut_freshness += posted - fresh;
        }
        // Geo hits ride along regardless of freshness or preference.
        // The pass above visited exactly the hits published at or after
        // the cutoff (the posting cut is inclusive) in a category that
        // clears the preference floor: skip those. Every other hit was
        // charged to the cut of its category there: credit that cut
        // back before counting the clip once more.
        // lint: allow(hash-iter) — finalize() re-sorts by (score desc, clip id); visit order cannot reach the output
        for (&id, &hit) in &geo_hits {
            let Some(meta) = repo.get(id) else { continue };
            if prefs.score(meta.category) < self.min_category_pref {
                stats.cut_preference -= 1;
            } else if meta.published >= cutoff {
                continue;
            } else {
                stats.cut_freshness -= 1;
            }
            stats.considered += 1;
            if exclude.contains(&id) {
                stats.cut_heard += 1;
                continue;
            }
            out.push(score_one(meta, prefs, ctx, weights, Some(hit)));
        }
        (self.finalize(out, &mut stats), stats)
    }

    /// The reference linear scan: every clip in the repository is
    /// tested against the inclusion predicate, in the order
    /// [`RetrievalStats`] charges cuts. It returns the same shortlist
    /// and the same stats as
    /// [`Self::candidates_indexed_excluding_stats`], and is kept as the
    /// oracle that tests and E13 compare that walk against; no
    /// production path calls it.
    #[must_use]
    pub fn reference_scan(
        &self,
        repo: &ContentRepository,
        prefs: &PreferenceVector,
        ctx: &ListenerContext,
        weights: &ScoringWeights,
        exclude: &HashSet<ClipId>,
    ) -> (Vec<ScoredClip>, RetrievalStats) {
        let mut stats = RetrievalStats::default();
        let cutoff = ctx.now.rewind(self.max_age);
        let geo_hits = self.geo_hits_for(repo, ctx, &mut stats);
        let mut out: Vec<ScoredClip> = Vec::new();
        for meta in repo.iter() {
            let hit = geo_hit(meta, &geo_hits);
            if prefs.score(meta.category) < self.min_category_pref && hit.is_none() {
                stats.cut_preference += 1;
                continue;
            }
            if meta.published < cutoff && hit.is_none() {
                stats.cut_freshness += 1;
                continue;
            }
            stats.considered += 1;
            if exclude.contains(&meta.id) {
                stats.cut_heard += 1;
                continue;
            }
            out.push(score_one(meta, prefs, ctx, weights, hit));
        }
        (self.finalize(out, &mut stats), stats)
    }

    /// Route geo matches for the drive ahead: each hit's projection
    /// onto the route. A tag whose projection is non-finite cannot be
    /// placed on the drive, so it is *not* a geo hit — the clip falls
    /// back to the ordinary freshness/preference predicate instead of
    /// carrying an infinite distance into scoring.
    fn geo_hits_for(
        &self,
        repo: &ContentRepository,
        ctx: &ListenerContext,
        stats: &mut RetrievalStats,
    ) -> HashMap<ClipId, PathProjection> {
        let mut geo_hits = HashMap::new();
        let Some(drive) = ctx.drive.as_ref() else { return geo_hits };
        for (meta, hit) in repo.geo_along_route(&drive.route_ahead, self.route_corridor_m) {
            if hit.distance_m.is_finite() && hit.along_m.is_finite() {
                geo_hits.insert(meta.id, hit);
            } else {
                stats.cut_geo += 1;
            }
        }
        stats.geo_hits = geo_hits.len() as u64;
        geo_hits
    }

    /// Keeps the `max_candidates` best plus every route geo match below
    /// them, best first. Route geo matches are never dropped (Fig. 2's
    /// item B must reach the scheduler even when its compound score is
    /// mid-pack — the *scheduler* decides whether it fits), but they
    /// must not break the "best first" contract either: callers such
    /// as the engine's skip path take a prefix of this list directly.
    ///
    /// `(score desc, clip id)` is a total order over distinct clips, so
    /// selecting the best `max_candidates` and then sorting only the
    /// survivors yields exactly the list a full sort and truncation
    /// would.
    fn finalize(&self, mut out: Vec<ScoredClip>, stats: &mut RetrievalStats) -> Vec<ScoredClip> {
        stats.scored = out.len() as u64;
        let by_score_desc =
            |a: &ScoredClip, b: &ScoredClip| b.score.total_cmp(&a.score).then(a.clip.cmp(&b.clip));
        if out.len() > self.max_candidates {
            out.select_nth_unstable_by(self.max_candidates, by_score_desc);
            let mut rank = 0;
            out.retain(|c| {
                rank += 1;
                rank <= self.max_candidates || c.along_route_m.is_some()
            });
        }
        out.sort_unstable_by(by_score_desc);
        stats.truncated = stats.scored - out.len() as u64;
        out
    }
}

/// The route geo match of `meta`, if any. Only tagged clips can match,
/// so untagged ones skip the lookup.
fn geo_hit(
    meta: &ClipMetadata,
    geo_hits: &HashMap<ClipId, PathProjection>,
) -> Option<PathProjection> {
    if meta.geo.is_some() {
        geo_hits.get(&meta.id).copied()
    } else {
        None
    }
}

/// Scores one candidate, `hit` being its route geo match.
fn score_one(
    meta: &ClipMetadata,
    prefs: &PreferenceVector,
    ctx: &ListenerContext,
    weights: &ScoringWeights,
    hit: Option<PathProjection>,
) -> ScoredClip {
    let geo_distance_m = hit.map(|h| h.distance_m);
    let content_score = weights.content_relevance(prefs, meta);
    let context_score = weights.context_relevance(meta, ctx, geo_distance_m);
    ScoredClip::new(
        meta.id,
        meta.duration,
        weights.compound(content_score, context_score),
        content_score,
        context_score,
        geo_distance_m,
        hit.map(|h| h.along_m),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{Ambient, DriveContext};
    use pphcr_catalog::{CategoryId, ClipKind, GeoTag};
    use pphcr_geo::{GeoPoint, LocalProjection, ProjectedPoint, TimePoint};
    use pphcr_trajectory::TripPrediction;
    use pphcr_userdata::{FeedbackEvent, FeedbackKind, FeedbackStore, UserId};

    const TORINO: GeoPoint = GeoPoint { lat: 45.0703, lon: 7.6869 };

    fn meta(id: u64, cat: u16, published: TimePoint, minutes: u64) -> ClipMetadata {
        ClipMetadata {
            id: ClipId(id),
            title: format!("clip {id}"),
            kind: ClipKind::Podcast,
            category: CategoryId::new(cat),
            category_confidence: 1.0,
            duration: TimeSpan::minutes(minutes),
            published,
            geo: None,
            transcript: Vec::new(),
        }
    }

    fn repo() -> ContentRepository {
        let mut r = ContentRepository::new(LocalProjection::new(TORINO));
        let morning = TimePoint::at(0, 6, 0, 0);
        r.ingest(meta(1, 8, morning, 15)); // wine
        r.ingest(meta(2, 5, morning, 10)); // football
        r.ingest(meta(3, 9, morning, 5)); // technology
        r
    }

    fn prefs(user: u64, likes: &[u16], dislikes: &[u16]) -> PreferenceVector {
        let mut store = FeedbackStore::default();
        let t = TimePoint::at(0, 7, 0, 0);
        for &c in likes {
            for _ in 0..3 {
                store.record(FeedbackEvent {
                    user: UserId(user),
                    clip: None,
                    category: CategoryId::new(c),
                    kind: FeedbackKind::Like,
                    time: t,
                });
            }
        }
        for &c in dislikes {
            for _ in 0..3 {
                store.record(FeedbackEvent {
                    user: UserId(user),
                    clip: None,
                    category: CategoryId::new(c),
                    kind: FeedbackKind::Dislike,
                    time: t,
                });
            }
        }
        store.preferences(UserId(user), t)
    }

    fn ctx() -> ListenerContext {
        ListenerContext::stationary(TimePoint::at(0, 9, 0, 0))
    }

    fn driving_ctx(now: TimePoint) -> ListenerContext {
        let prediction = TripPrediction {
            destination: 1,
            confidence: 0.9,
            total_duration: TimeSpan::minutes(20),
            remaining: TimeSpan::minutes(18),
            route_ahead: vec![ProjectedPoint::new(0.0, 0.0), ProjectedPoint::new(10_000.0, 0.0)],
            complexity: 0.5,
            posterior: vec![(1, 1.0)],
        };
        ListenerContext {
            now,
            position: Some(ProjectedPoint::new(0.0, 0.0)),
            speed_mps: 10.0,
            drive: Some(DriveContext::new(prediction, vec![])),
            ambient: Ambient::default(),
        }
    }

    /// The production walk's shortlist with nothing excluded.
    fn shortlist(
        filter: &CandidateFilter,
        repo: &ContentRepository,
        prefs: &PreferenceVector,
        ctx: &ListenerContext,
        weights: &ScoringWeights,
    ) -> Vec<ScoredClip> {
        filter.candidates_indexed_excluding_stats(repo, prefs, ctx, weights, &HashSet::new()).0
    }

    #[test]
    fn liked_category_ranks_first_disliked_is_dropped() {
        let filter = CandidateFilter::default();
        let weights = ScoringWeights::default();
        let p = prefs(1, &[8], &[5]);
        let cands = shortlist(&filter, &repo(), &p, &ctx(), &weights);
        assert_eq!(cands[0].clip, ClipId(1), "wine first");
        assert!(
            cands.iter().all(|c| c.clip != ClipId(2)),
            "disliked football filtered out: {cands:?}"
        );
    }

    #[test]
    fn stale_clips_filtered() {
        let mut r = repo();
        r.ingest(meta(9, 8, TimePoint::EPOCH, 5));
        let mut late_ctx = ctx();
        late_ctx.now = TimePoint::at(10, 9, 0, 0); // ten days later
        let filter = CandidateFilter::default();
        let cands = shortlist(
            &filter,
            &r,
            &PreferenceVector::neutral(),
            &late_ctx,
            &ScoringWeights::default(),
        );
        assert!(cands.iter().all(|c| c.clip != ClipId(9)));
    }

    #[test]
    fn exclusion_set_respected() {
        let filter = CandidateFilter::default();
        let p = PreferenceVector::neutral();
        let exclude: HashSet<ClipId> = [ClipId(1)].into_iter().collect();
        let (cands, _) = filter.candidates_indexed_excluding_stats(
            &repo(),
            &p,
            &ctx(),
            &ScoringWeights::default(),
            &exclude,
        );
        assert!(cands.iter().all(|c| c.clip != ClipId(1)));
        assert_eq!(cands.len(), 2);
    }

    #[test]
    fn max_candidates_truncates() {
        let mut r = ContentRepository::new(LocalProjection::new(TORINO));
        for i in 0..100 {
            r.ingest(meta(i, (i % 30) as u16, TimePoint::at(0, 6, 0, 0), 5));
        }
        let filter = CandidateFilter { max_candidates: 10, ..Default::default() };
        let cands = shortlist(
            &filter,
            &r,
            &PreferenceVector::neutral(),
            &ctx(),
            &ScoringWeights::default(),
        );
        assert_eq!(cands.len(), 10);
    }

    #[test]
    fn scores_sorted_descending() {
        let filter = CandidateFilter::default();
        let p = prefs(1, &[8, 9], &[]);
        let cands = shortlist(&filter, &repo(), &p, &ctx(), &ScoringWeights::default());
        assert!(cands.windows(2).all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn geo_hit_survives_dislike_and_staleness() {
        let mut r = repo();
        let proj = *r.projection();
        // A disliked-category, stale clip pinned right on the route.
        let mut pinned = meta(42, 5, TimePoint::EPOCH, 4);
        pinned.geo = Some(GeoTag {
            point: proj.unproject(ProjectedPoint::new(5_000.0, 0.0)),
            radius_m: 800.0,
        });
        r.ingest(pinned);
        let drive_ctx = driving_ctx(TimePoint::at(10, 8, 0, 0)); // clip is 10 days old
        let p = prefs(1, &[], &[5]);
        let cands =
            shortlist(&CandidateFilter::default(), &r, &p, &drive_ctx, &ScoringWeights::default());
        let hit = cands.iter().find(|c| c.clip == ClipId(42));
        let hit = hit.expect("geo-pinned clip must remain a candidate");
        assert!(hit.along_route_m.is_some());
        assert!((hit.along_route_m.unwrap() - 5_000.0).abs() < 10.0);
        assert!(hit.geo_distance_m.unwrap() < 10.0);
    }

    #[test]
    fn spared_geo_hits_stay_in_score_order() {
        // Regression: geo hits spared from truncation must be merged
        // back in descending-score order, not tacked on however they
        // came — callers take a prefix of this list directly.
        let mut r = ContentRepository::new(LocalProjection::new(TORINO));
        let proj = *r.projection();
        let drive_ctx = driving_ctx(TimePoint::at(10, 8, 0, 0));
        for i in 0..40 {
            // Fresh clips in liked categories: these fill the cut.
            r.ingest(meta(i, (i % 4) as u16, drive_ctx.now.rewind(TimeSpan::hours(2)), 5));
        }
        // Two stale, disliked, far-off-corridor geo-pinned clips:
        // below the cut on score, spared for being near the route.
        for (id, along) in [(100u64, 3_000.0), (101u64, 7_000.0)] {
            let mut pinned = meta(id, 5, TimePoint::EPOCH, 4);
            pinned.geo = Some(GeoTag {
                point: proj.unproject(ProjectedPoint::new(along, 1_900.0)),
                radius_m: 500.0,
            });
            r.ingest(pinned);
        }
        let filter = CandidateFilter { max_candidates: 10, ..Default::default() };
        let p = prefs(1, &[0, 1, 2, 3], &[5]);
        let cands = shortlist(&filter, &r, &p, &drive_ctx, &ScoringWeights::default());
        assert!(cands.len() > filter.max_candidates, "geo hits spared");
        for id in [100u64, 101] {
            assert!(cands.iter().any(|c| c.clip == ClipId(id)), "spared {id}");
        }
        assert!(
            cands.windows(2).all(|w| w[0].score >= w[1].score),
            "best-first broken: {:?}",
            cands.iter().map(|c| (c.clip, c.score)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn tag_past_route_end_scores_finite() {
        // Regression: a tag beyond the end of the route projects onto
        // the final vertex; its distance must stay finite and must not
        // poison the compound score with infinities.
        let mut r = ContentRepository::new(LocalProjection::new(TORINO));
        let proj = *r.projection();
        let mut past_end = meta(7, 5, TimePoint::EPOCH, 4);
        past_end.geo = Some(GeoTag {
            point: proj.unproject(ProjectedPoint::new(10_400.0, 0.0)),
            radius_m: 800.0,
        });
        r.ingest(past_end);
        let drive_ctx = driving_ctx(TimePoint::at(10, 8, 0, 0));
        let cands = shortlist(
            &CandidateFilter::default(),
            &r,
            &PreferenceVector::neutral(),
            &drive_ctx,
            &ScoringWeights::default(),
        );
        let hit = cands.iter().find(|c| c.clip == ClipId(7)).expect("tag in corridor");
        let dist = hit.geo_distance_m.expect("still a geo hit");
        assert!(dist.is_finite(), "distance must be finite, got {dist}");
        assert!((dist - 400.0).abs() < 10.0, "clamped to route end");
        assert!((hit.along_route_m.unwrap() - 10_000.0).abs() < 10.0);
        assert!(hit.score.is_finite() && (0.0..=1.0).contains(&hit.score));
    }

    /// The ranking `finalize` replaced: sort everything, truncate, then
    /// merge the spared route geo matches back in score order.
    fn finalize_by_full_sort(max_candidates: usize, mut out: Vec<ScoredClip>) -> Vec<ScoredClip> {
        let by_score_desc =
            |a: &ScoredClip, b: &ScoredClip| b.score.total_cmp(&a.score).then(a.clip.cmp(&b.clip));
        out.sort_by(by_score_desc);
        if out.len() > max_candidates {
            let spared: Vec<ScoredClip> = out
                .split_off(max_candidates)
                .into_iter()
                .filter(|c| c.along_route_m.is_some())
                .collect();
            out.extend(spared);
            out.sort_by(by_score_desc);
        }
        out
    }

    proptest::proptest! {
        #[test]
        fn finalize_equals_full_sort(
            specs in proptest::collection::vec(
                (0u8..8, 0.0f64..1.0, proptest::option::of(0.0f64..10_000.0)),
                0..60,
            ),
        ) {
            // Half the scores come from four fixed values, forcing ties
            // that only the clip id breaks; ids are a bijection of the
            // index, so input order is not id order.
            let scored: Vec<ScoredClip> = specs
                .iter()
                .enumerate()
                .map(|(i, &(tie, score, along))| {
                    let score = [0.0, 0.25, 0.5, 1.0].get(usize::from(tie)).copied().unwrap_or(score);
                    ScoredClip {
                        clip: ClipId((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                        duration: TimeSpan::minutes(5),
                        score,
                        content_score: score,
                        context_score: score,
                        geo_distance_m: along.map(|_| 10.0),
                        along_route_m: along,
                    }
                })
                .collect();
            let n = scored.len();
            for max_candidates in [0, 1, n / 2, n, n + 1] {
                let filter = CandidateFilter { max_candidates, ..CandidateFilter::default() };
                let mut stats = RetrievalStats::default();
                let got = filter.finalize(scored.clone(), &mut stats);
                let want = finalize_by_full_sort(max_candidates, scored.clone());
                proptest::prop_assert_eq!(&got, &want, "max_candidates {}", max_candidates);
                proptest::prop_assert_eq!(stats.scored, n as u64);
                proptest::prop_assert_eq!(stats.truncated, (n - want.len()) as u64);
            }
        }

        #[test]
        fn score_one_matches_the_component_triple(
            cat in 0u16..30,
            confidence in 0.0f64..1.0,
            minutes in 1u64..45,
            age_h in 0u64..400,
            tagged in 0u8..2,
            hit in proptest::option::of((0.0f64..2_000.0, 0.0f64..10_000.0)),
            content_weight in -0.5f64..1.5,
            liked in 0u16..30,
        ) {
            let ctx = driving_ctx(TimePoint::at(20, 8, 0, 0));
            let mut m = meta(1, cat, ctx.now.rewind(TimeSpan::hours(age_h)), minutes);
            m.category_confidence = confidence;
            if tagged == 1 {
                m.geo = Some(GeoTag { point: TORINO, radius_m: 500.0 });
            }
            let p = prefs(1, &[liked], &[(liked + 7) % 30]);
            let weights = ScoringWeights { content_weight, ..ScoringWeights::default() };
            let hit = hit.map(|(distance_m, along_m)| PathProjection { along_m, distance_m });
            let got = score_one(&m, &p, &ctx, &weights, hit);
            // The compound score as computed before `score_one` reused
            // the two components: every term evaluated afresh.
            let geo_distance_m = hit.map(|h| h.distance_m);
            let w = weights.content_weight.clamp(0.0, 1.0);
            let score = w * weights.content_relevance(&p, &m)
                + (1.0 - w) * weights.context_relevance(&m, &ctx, geo_distance_m);
            let want = ScoredClip::new(
                m.id,
                m.duration,
                score,
                weights.content_relevance(&p, &m),
                weights.context_relevance(&m, &ctx, geo_distance_m),
                geo_distance_m,
                hit.map(|h| h.along_m),
            );
            proptest::prop_assert_eq!(got.score.to_bits(), want.score.to_bits());
            proptest::prop_assert_eq!(got.content_score.to_bits(), want.content_score.to_bits());
            proptest::prop_assert_eq!(got.context_score.to_bits(), want.context_score.to_bits());
            proptest::prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn sanitize_score_rejects_nan_and_clamps() {
        assert_eq!(sanitize_score(f64::NAN), 0.0);
        assert_eq!(sanitize_score(f64::INFINITY), 1.0);
        assert_eq!(sanitize_score(f64::NEG_INFINITY), 0.0);
        assert_eq!(sanitize_score(-0.25), 0.0);
        assert_eq!(sanitize_score(1.75), 1.0);
        assert_eq!(sanitize_score(0.42), 0.42);
    }

    #[test]
    fn stats_account_for_every_cut() {
        let mut r = repo();
        r.ingest(meta(9, 8, TimePoint::EPOCH, 5)); // stale wine clip
        let mut late_ctx = ctx();
        late_ctx.now = TimePoint::at(10, 9, 0, 0);
        let filter = CandidateFilter::default();
        let weights = ScoringWeights::default();
        let p = prefs(1, &[8], &[5]);
        let exclude: HashSet<ClipId> = [ClipId(3)].into_iter().collect();
        let (indexed, stats) =
            filter.candidates_indexed_excluding_stats(&r, &p, &late_ctx, &weights, &exclude);
        assert_eq!(
            stats.cut_preference + stats.cut_freshness + stats.cut_heard + stats.scored,
            r.len() as u64,
            "every clip is cut or scored: {stats:?}"
        );
        assert_eq!(stats.considered, stats.cut_heard + stats.scored, "{stats:?}");
        assert!(stats.cut_preference > 0, "the disliked football category: {stats:?}");
        assert_eq!(indexed.len() as u64, stats.scored - stats.truncated);
        let (scan, scan_stats) = filter.reference_scan(&r, &p, &late_ctx, &weights, &exclude);
        assert_eq!(scan, indexed);
        assert_eq!(scan_stats, stats);
    }

    #[test]
    fn indexed_retrieval_matches_scan_on_fixture() {
        let mut r = repo();
        let proj = *r.projection();
        let mut pinned = meta(42, 5, TimePoint::EPOCH, 4);
        pinned.geo = Some(GeoTag {
            point: proj.unproject(ProjectedPoint::new(5_000.0, 0.0)),
            radius_m: 800.0,
        });
        r.ingest(pinned);
        let filter = CandidateFilter::default();
        let weights = ScoringWeights::default();
        let p = prefs(1, &[8], &[5]);
        let exclude: HashSet<ClipId> = [ClipId(3)].into_iter().collect();
        for c in [ctx(), driving_ctx(TimePoint::at(10, 8, 0, 0))] {
            let scan = filter.reference_scan(&r, &p, &c, &weights, &exclude);
            let indexed = filter.candidates_indexed_excluding_stats(&r, &p, &c, &weights, &exclude);
            assert_eq!(scan, indexed);
        }
    }

    /// A clip is charged to the first test it fails: category
    /// preference, then freshness, then heard; a route geo hit skips
    /// the first two. Both walks charge it the same way.
    #[test]
    fn cuts_are_charged_preference_then_freshness_then_heard() {
        let drive_ctx = driving_ctx(TimePoint::at(10, 8, 0, 0));
        let fresh = drive_ctx.now.rewind(TimeSpan::hours(2));
        let mut r = ContentRepository::new(LocalProjection::new(TORINO));
        let proj = *r.projection();
        r.ingest(meta(1, 8, TimePoint::EPOCH, 5)); // stale, heard, liked
        r.ingest(meta(2, 8, fresh, 5)); // fresh, heard, liked
        r.ingest(meta(3, 5, TimePoint::EPOCH, 5)); // stale, heard, disliked
        r.ingest(meta(4, 8, fresh, 5)); // fresh, liked
        let mut pinned = meta(42, 5, TimePoint::EPOCH, 4); // stale, disliked, on the route
        pinned.geo = Some(GeoTag {
            point: proj.unproject(ProjectedPoint::new(5_000.0, 0.0)),
            radius_m: 800.0,
        });
        r.ingest(pinned);
        let filter = CandidateFilter::default();
        let weights = ScoringWeights::default();
        let p = prefs(1, &[8], &[5]);
        let exclude: HashSet<ClipId> = [1, 2, 3].into_iter().map(ClipId).collect();
        let want = RetrievalStats {
            considered: 3,
            cut_freshness: 1,
            cut_preference: 1,
            cut_geo: 0,
            cut_heard: 1,
            geo_hits: 1,
            scored: 2,
            truncated: 0,
        };
        let (indexed, indexed_stats) =
            filter.candidates_indexed_excluding_stats(&r, &p, &drive_ctx, &weights, &exclude);
        let (scan, scan_stats) = filter.reference_scan(&r, &p, &drive_ctx, &weights, &exclude);
        assert_eq!(indexed_stats, want);
        assert_eq!(scan_stats, want);
        let mut ids: Vec<u64> = indexed.iter().map(|c| c.clip.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, [4, 42]);
        assert_eq!(scan, indexed);
    }
}
