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
//! Two retrieval paths produce the same shortlist:
//!
//! * [`CandidateFilter::candidates_excluding`] — the reference linear
//!   scan over every clip in the repository;
//! * [`CandidateFilter::candidates_indexed_excluding`] — index-backed
//!   retrieval over the repository's per-category posting lists
//!   (freshness cutoff by binary search) unioned with grid-bucketed
//!   route geo hits, then scoring only that set.
//!
//! The two are differentially tested to be bit-identical: both apply
//! the same inclusion predicate, the same [`score_one`] arithmetic and
//! the same total-order sort, so the only difference is how the
//! candidate set is *found*.

use crate::context::ListenerContext;
use crate::score::ScoringWeights;
use pphcr_audio::ClipId;
use pphcr_catalog::{ClipMetadata, ContentRepository};
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
/// On both retrieval paths every clip lands in exactly one of
/// `cut_freshness`, `cut_preference`, `cut_heard` and `scored`, so
/// those four sum to the catalog size. Which cut a clip lands in can
/// differ between the paths: the linear scan tests every clip against
/// the predicate in order (heard, then freshness, then preference),
/// while the indexed path cuts structurally — a skipped category
/// charges its whole posting list to `cut_preference`, and a posting
/// list's stale prefix is charged to `cut_freshness` without visiting
/// the clips.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetrievalStats {
    /// Clips the retrieval stage examined individually.
    pub considered: u64,
    /// Clips cut by the freshness window (and not rescued by geo).
    pub cut_freshness: u64,
    /// Clips cut by the category-preference floor (and not rescued by
    /// geo).
    pub cut_preference: u64,
    /// Geo-tagged clips inside the corridor whose tag could not be
    /// placed on the route (missing tag or non-finite projection).
    pub cut_geo: u64,
    /// Clips cut because the exclusion (heard) set already held them.
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
    /// Catalog size below which the indexed entry points fall back to
    /// the linear scan. The index only pays off once posting-list
    /// pruning skips enough clips to beat the scan's branch-predictable
    /// sweep — measured at ~0.97x (a net loss) on a 1k-clip catalog —
    /// so small repositories take the scan path; the shortlist is
    /// differentially tested identical either way. `0` disables the
    /// fallback.
    #[serde(default = "default_scan_below")]
    pub scan_below: usize,
}

/// Serde default for [`CandidateFilter::scan_below`] so filters
/// serialized before the field existed keep deserializing.
fn default_scan_below() -> usize {
    2_000
}

/// Which retrieval walk the indexed entry points will actually run for
/// a given repository size — the production dispatch decision, exposed
/// so benchmarks report what they measured instead of guessing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetrievalPath {
    /// Below [`CandidateFilter::scan_below`]: the linear scan.
    Scan,
    /// At or above the threshold: the posting-list index walk.
    Index,
}

impl RetrievalPath {
    /// Stable label used in experiment tables and JSON artifacts.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            RetrievalPath::Scan => "scan-fallback",
            RetrievalPath::Index => "index",
        }
    }
}

impl std::fmt::Display for RetrievalPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl Default for CandidateFilter {
    fn default() -> Self {
        CandidateFilter {
            max_age: TimeSpan::hours(24 * 7),
            min_category_pref: -0.5,
            route_corridor_m: 2_000.0,
            max_candidates: 50,
            scan_below: default_scan_below(),
        }
    }
}

impl CandidateFilter {
    /// Builds the scored candidate list, best first.
    #[must_use]
    pub fn candidates(
        &self,
        repo: &ContentRepository,
        prefs: &PreferenceVector,
        ctx: &ListenerContext,
        weights: &ScoringWeights,
    ) -> Vec<ScoredClip> {
        self.candidates_excluding(repo, prefs, ctx, weights, &HashSet::new())
    }

    /// Like [`Self::candidates`], excluding already-played clips.
    /// Reference linear scan: every clip in the repository is tested
    /// against the inclusion predicate.
    #[must_use]
    pub fn candidates_excluding(
        &self,
        repo: &ContentRepository,
        prefs: &PreferenceVector,
        ctx: &ListenerContext,
        weights: &ScoringWeights,
        exclude: &HashSet<ClipId>,
    ) -> Vec<ScoredClip> {
        self.candidates_excluding_stats(repo, prefs, ctx, weights, exclude).0
    }

    /// [`Self::candidates_excluding`] plus the per-stage
    /// [`RetrievalStats`] of the scan.
    #[must_use]
    pub fn candidates_excluding_stats(
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
            stats.considered += 1;
            if exclude.contains(&meta.id) {
                stats.cut_heard += 1;
                continue;
            }
            let is_geo_hit = geo_hits.contains_key(&meta.id);
            if meta.published < cutoff && !is_geo_hit {
                stats.cut_freshness += 1;
                continue;
            }
            if prefs.score(meta.category) < self.min_category_pref && !is_geo_hit {
                stats.cut_preference += 1;
                continue;
            }
            out.push(self.score_one(meta, prefs, ctx, weights, &geo_hits));
        }
        (self.finalize(out, &mut stats), stats)
    }

    /// Index-backed retrieval: the same shortlist as
    /// [`Self::candidates_excluding`], found without scanning the
    /// repository. Candidates are the union of (a) posting-list
    /// suffixes (binary-searched freshness cutoff) of every category
    /// whose preference clears the threshold, and (b) grid-bucketed
    /// geo hits along the route ahead. Only that set is scored.
    #[must_use]
    pub fn candidates_indexed(
        &self,
        repo: &ContentRepository,
        prefs: &PreferenceVector,
        ctx: &ListenerContext,
        weights: &ScoringWeights,
    ) -> Vec<ScoredClip> {
        self.candidates_indexed_excluding(repo, prefs, ctx, weights, &HashSet::new())
    }

    /// Like [`Self::candidates_indexed`], excluding already-played
    /// clips.
    #[must_use]
    pub fn candidates_indexed_excluding(
        &self,
        repo: &ContentRepository,
        prefs: &PreferenceVector,
        ctx: &ListenerContext,
        weights: &ScoringWeights,
        exclude: &HashSet<ClipId>,
    ) -> Vec<ScoredClip> {
        self.candidates_indexed_excluding_stats(repo, prefs, ctx, weights, exclude).0
    }

    /// The walk [`Self::candidates_indexed_excluding_stats`] will run
    /// for a repository of `repo_len` clips. The dispatch below routes
    /// through this predicate, so callers that report it (e.g. the e13
    /// retrieval bench) cannot drift from what actually executed.
    #[must_use]
    pub fn retrieval_path(&self, repo_len: usize) -> RetrievalPath {
        if repo_len < self.scan_below {
            RetrievalPath::Scan
        } else {
            RetrievalPath::Index
        }
    }

    /// [`Self::candidates_indexed_excluding`] plus the per-stage
    /// [`RetrievalStats`] of the index walk. Freshness and preference
    /// cuts are counted structurally from posting-list lengths, so the
    /// stats cost O(categories) on top of the clips actually visited.
    ///
    /// Below [`Self::scan_below`] clips the call delegates to the
    /// linear scan, which is faster there; the shortlist is identical,
    /// though the per-stage stats reflect whichever walk actually ran.
    #[must_use]
    pub fn candidates_indexed_excluding_stats(
        &self,
        repo: &ContentRepository,
        prefs: &PreferenceVector,
        ctx: &ListenerContext,
        weights: &ScoringWeights,
        exclude: &HashSet<ClipId>,
    ) -> (Vec<ScoredClip>, RetrievalStats) {
        if self.retrieval_path(repo.len()) == RetrievalPath::Scan {
            return self.candidates_excluding_stats(repo, prefs, ctx, weights, exclude);
        }
        let mut stats = RetrievalStats::default();
        let cutoff = ctx.now.rewind(self.max_age);
        let geo_hits = self.geo_hits_for(repo, ctx, &mut stats);
        let mut out: Vec<ScoredClip> = Vec::new();
        let mut seen: HashSet<ClipId> = HashSet::new();
        for category in repo.indexed_categories().collect::<Vec<_>>() {
            let posted = repo.category_len(category) as u64;
            if prefs.score(category) < self.min_category_pref {
                stats.cut_preference += posted;
                continue;
            }
            let mut fresh = 0u64;
            for meta in repo.fresh_in_category(category, cutoff) {
                fresh += 1;
                stats.considered += 1;
                seen.insert(meta.id);
                if exclude.contains(&meta.id) {
                    stats.cut_heard += 1;
                    continue;
                }
                out.push(self.score_one(meta, prefs, ctx, weights, &geo_hits));
            }
            stats.cut_freshness += posted - fresh;
        }
        // Geo hits ride along regardless of freshness or preference;
        // skip the ones the category pass already visited. Every other
        // hit was charged to the cut of its category above: credit that
        // cut back before counting the clip once more.
        // lint: allow(hash-iter) — finalize() re-sorts by (score desc, clip id); visit order cannot reach the output
        for &id in geo_hits.keys() {
            if seen.contains(&id) {
                continue;
            }
            let Some(meta) = repo.get(id) else { continue };
            if prefs.score(meta.category) < self.min_category_pref {
                stats.cut_preference -= 1;
            } else {
                stats.cut_freshness -= 1;
            }
            stats.considered += 1;
            if exclude.contains(&id) {
                stats.cut_heard += 1;
                continue;
            }
            out.push(self.score_one(meta, prefs, ctx, weights, &geo_hits));
        }
        (self.finalize(out, &mut stats), stats)
    }

    /// Route geo matches for the drive ahead (id → (distance, along)).
    /// A tag whose projection onto the route is missing or non-finite
    /// cannot be placed on the drive, so it is *not* a geo hit — the
    /// clip falls back to the ordinary freshness/preference predicate
    /// instead of carrying an infinite distance into scoring.
    fn geo_hits_for(
        &self,
        repo: &ContentRepository,
        ctx: &ListenerContext,
        stats: &mut RetrievalStats,
    ) -> HashMap<ClipId, (f64, f64)> {
        let mut geo_hits = HashMap::new();
        let Some(drive) = ctx.drive.as_ref() else { return geo_hits };
        for (meta, along) in repo.geo_along_route(&drive.route_ahead, self.route_corridor_m) {
            let Some(tag) = meta.geo else {
                stats.cut_geo += 1;
                continue;
            };
            match drive.route_ahead.distance_to(repo.projection().project(tag.point)) {
                Some(dist) if dist.is_finite() && along.is_finite() => {
                    geo_hits.insert(meta.id, (dist, along));
                }
                _ => stats.cut_geo += 1,
            }
        }
        stats.geo_hits = geo_hits.len() as u64;
        geo_hits
    }

    /// Sorts best-first, truncates to `max_candidates`, then re-merges
    /// geo hits spared from truncation back into descending-score
    /// order. Route geo matches are never dropped (Fig. 2's item B must
    /// reach the scheduler even when its compound score is mid-pack —
    /// the *scheduler* decides whether it fits), but they must not
    /// break the "best first" contract either: callers such as the
    /// engine's skip path take a prefix of this list directly.
    fn finalize(&self, mut out: Vec<ScoredClip>, stats: &mut RetrievalStats) -> Vec<ScoredClip> {
        stats.scored = out.len() as u64;
        let by_score_desc =
            |a: &ScoredClip, b: &ScoredClip| b.score.total_cmp(&a.score).then(a.clip.cmp(&b.clip));
        out.sort_by(by_score_desc);
        if out.len() > self.max_candidates {
            let spared: Vec<ScoredClip> = out
                .split_off(self.max_candidates)
                .into_iter()
                .filter(|c| c.along_route_m.is_some())
                .collect();
            if !spared.is_empty() {
                out.extend(spared);
                out.sort_by(by_score_desc);
            }
        }
        stats.truncated = stats.scored - out.len() as u64;
        out
    }

    fn score_one(
        &self,
        meta: &ClipMetadata,
        prefs: &PreferenceVector,
        ctx: &ListenerContext,
        weights: &ScoringWeights,
        geo_hits: &HashMap<ClipId, (f64, f64)>,
    ) -> ScoredClip {
        let hit = geo_hits.get(&meta.id).copied();
        let geo_distance_m = hit.map(|(d, _)| d);
        let along_route_m = hit.map(|(_, a)| a);
        let content_score = weights.content_relevance(prefs, meta);
        let context_score = weights.context_relevance(meta, ctx, geo_distance_m);
        let score = weights.compound(prefs, meta, ctx, geo_distance_m);
        ScoredClip::new(
            meta.id,
            meta.duration,
            score,
            content_score,
            context_score,
            geo_distance_m,
            along_route_m,
        )
    }
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

    #[test]
    fn liked_category_ranks_first_disliked_is_dropped() {
        let filter = CandidateFilter::default();
        let weights = ScoringWeights::default();
        let p = prefs(1, &[8], &[5]);
        let cands = filter.candidates(&repo(), &p, &ctx(), &weights);
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
        let cands = filter.candidates(
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
        let cands =
            filter.candidates_excluding(&repo(), &p, &ctx(), &ScoringWeights::default(), &exclude);
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
        let cands =
            filter.candidates(&r, &PreferenceVector::neutral(), &ctx(), &ScoringWeights::default());
        assert_eq!(cands.len(), 10);
    }

    #[test]
    fn scores_sorted_descending() {
        let filter = CandidateFilter::default();
        let p = prefs(1, &[8, 9], &[]);
        let cands = filter.candidates(&repo(), &p, &ctx(), &ScoringWeights::default());
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
            CandidateFilter::default().candidates(&r, &p, &drive_ctx, &ScoringWeights::default());
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
        let cands = filter.candidates(&r, &p, &drive_ctx, &ScoringWeights::default());
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
        let cands = CandidateFilter::default().candidates(
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
        // Force the index path: the fixture sits far below the default
        // scan-fallback threshold.
        let filter = CandidateFilter { scan_below: 0, ..CandidateFilter::default() };
        let weights = ScoringWeights::default();
        let p = prefs(1, &[8], &[5]);
        let exclude: HashSet<ClipId> = [ClipId(3)].into_iter().collect();
        let (scan, scan_stats) =
            filter.candidates_excluding_stats(&r, &p, &late_ctx, &weights, &exclude);
        // Four clips total: 1 survives (wine #1... also stale!), so
        // derive expectations from the scan semantics directly.
        assert_eq!(scan_stats.considered, 4, "scan examines the whole repo");
        assert_eq!(scan_stats.cut_heard, 1, "clip 3 excluded");
        assert_eq!(
            scan_stats.cut_freshness + scan_stats.cut_preference + scan_stats.scored,
            3,
            "remaining clips are cut or scored: {scan_stats:?}"
        );
        assert_eq!(scan.len() as u64, scan_stats.scored - scan_stats.truncated);

        let (indexed, indexed_stats) =
            filter.candidates_indexed_excluding_stats(&r, &p, &late_ctx, &weights, &exclude);
        assert_eq!(scan, indexed, "stats ride along without changing the shortlist");
        assert_eq!(indexed_stats.scored, scan_stats.scored);
        assert_eq!(indexed_stats.truncated, scan_stats.truncated);
        assert!(
            indexed_stats.considered <= scan_stats.considered,
            "index visits no more clips than the scan"
        );
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
        // Force the index path: the fixture sits far below the default
        // scan-fallback threshold.
        let filter = CandidateFilter { scan_below: 0, ..CandidateFilter::default() };
        let weights = ScoringWeights::default();
        let p = prefs(1, &[8], &[5]);
        let exclude: HashSet<ClipId> = [ClipId(3)].into_iter().collect();
        for c in [ctx(), driving_ctx(TimePoint::at(10, 8, 0, 0))] {
            let scan = filter.candidates_excluding(&r, &p, &c, &weights, &exclude);
            let indexed = filter.candidates_indexed_excluding(&r, &p, &c, &weights, &exclude);
            assert_eq!(scan, indexed);
        }
    }

    #[test]
    fn scan_fallback_engages_below_threshold_with_identical_shortlist() {
        let mut r = repo();
        let proj = *r.projection();
        let mut pinned = meta(42, 5, TimePoint::EPOCH, 4);
        pinned.geo = Some(GeoTag {
            point: proj.unproject(ProjectedPoint::new(5_000.0, 0.0)),
            radius_m: 800.0,
        });
        r.ingest(pinned);
        let weights = ScoringWeights::default();
        let p = prefs(1, &[8], &[5]);
        let exclude: HashSet<ClipId> = [ClipId(3)].into_iter().collect();
        let falling_back = CandidateFilter::default();
        assert!(r.len() < falling_back.scan_below, "fixture must sit below the default crossover");
        let indexed_only = CandidateFilter { scan_below: 0, ..falling_back };
        for c in [ctx(), driving_ctx(TimePoint::at(10, 8, 0, 0))] {
            // The fallback's stats are scan stats (whole repo
            // considered), proving the scan path actually ran…
            let (via_fallback, fb_stats) =
                falling_back.candidates_indexed_excluding_stats(&r, &p, &c, &weights, &exclude);
            let (via_scan, scan_stats) =
                falling_back.candidates_excluding_stats(&r, &p, &c, &weights, &exclude);
            assert_eq!(fb_stats, scan_stats, "fallback must report the scan's stats");
            assert_eq!(fb_stats.considered, r.len() as u64, "scan examines the whole repo");
            // …while the shortlist stays identical to the index walk's.
            let via_index =
                indexed_only.candidates_indexed_excluding(&r, &p, &c, &weights, &exclude);
            assert_eq!(via_fallback, via_scan);
            assert_eq!(via_fallback, via_index);
        }
    }

    #[test]
    fn retrieval_path_predicate_matches_the_walk_that_runs() {
        let r = repo();
        let weights = ScoringWeights::default();
        let p = prefs(1, &[8], &[5]);
        let exclude = HashSet::new();
        // Boundary semantics: strictly-below falls back, at-threshold indexes.
        let at_threshold = CandidateFilter { scan_below: r.len(), ..CandidateFilter::default() };
        assert_eq!(at_threshold.retrieval_path(r.len()), RetrievalPath::Index);
        assert_eq!(at_threshold.retrieval_path(r.len() - 1), RetrievalPath::Scan);
        assert_eq!(RetrievalPath::Scan.label(), "scan-fallback");
        assert_eq!(RetrievalPath::Index.to_string(), "index");
        // The predicate describes the walk that actually executes: a
        // scan considers every clip in the repo, the index walk skips
        // whole categories cut by preference and so considers fewer.
        for scan_below in [0, r.len(), r.len() + 1] {
            let filter = CandidateFilter { scan_below, ..CandidateFilter::default() };
            let (_, stats) =
                filter.candidates_indexed_excluding_stats(&r, &p, &ctx(), &weights, &exclude);
            match filter.retrieval_path(r.len()) {
                RetrievalPath::Scan => {
                    assert_eq!(stats.considered, r.len() as u64);
                }
                RetrievalPath::Index => {
                    assert!(stats.considered < r.len() as u64);
                    assert!(stats.cut_preference > 0);
                }
            }
        }
    }
}
