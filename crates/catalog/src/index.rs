//! The incremental query index over the content repository.
//!
//! The platform ingests "more than 100 podcasts created every day"
//! (§1.2) and answers candidate queries for *every listener on every
//! engine tick*. A full scan per query is O(users × clips) per
//! wall-clock step; this index turns the two retrieval shapes the
//! recommender needs into sub-linear lookups, following the
//! retrieve-then-score split of contextual re-ranking pipelines:
//!
//! * **per-category posting lists ordered by publication time** — the
//!   freshness cutoff becomes a binary search (`partition_point`), so
//!   "recent clips in liked categories" costs O(log n + hits) per
//!   category instead of O(clips);
//! * **a uniform spatial grid** (reusing [`pphcr_geo::grid`]) over
//!   projected geo-tag positions — route-corridor queries visit only
//!   the occupied cells under the route's padded bounding box.
//!
//! The index is maintained incrementally on ingest and exposes an
//! **epoch** counter that bumps on every mutation; caches layered above
//! (the engine's per-user candidate cache) invalidate on epoch change.

use crate::category::CategoryId;
use crate::clipmeta::ClipMetadata;
use pphcr_audio::ClipId;
use pphcr_geo::grid::GridIndex;
use pphcr_geo::{LocalProjection, ProjectedPoint, TimePoint};
use std::collections::HashMap;

/// One posting-list entry: publication instant and clip id, ordered by
/// `(published, id)` so equal timestamps still have a total order.
pub type Posting = (TimePoint, ClipId);

/// The incremental repository index.
#[derive(Debug, Clone)]
pub struct RepositoryIndex {
    /// Per-category posting lists, each sorted ascending by
    /// `(published, id)`.
    by_category: HashMap<CategoryId, Vec<Posting>>,
    /// Geo-tagged clips indexed by projected tag position.
    geo: GridIndex<ClipId>,
    /// Largest tag radius ingested; route queries pad their candidate
    /// window by it so wide-coverage tags are never missed.
    max_tag_radius_m: f64,
    /// Bumped on every mutation (insert, remove, geo rebuild).
    epoch: u64,
}

impl RepositoryIndex {
    /// Creates an empty index with the given geo cell size (meters).
    #[must_use]
    pub fn new(geo_cell_m: f64) -> Self {
        RepositoryIndex {
            by_category: HashMap::new(),
            geo: GridIndex::new(geo_cell_m),
            max_tag_radius_m: 0.0,
            epoch: 0,
        }
    }

    /// The current index epoch. Any mutation bumps it, so a consumer
    /// holding results derived from the index can detect staleness by
    /// comparing epochs.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Indexes one clip's metadata. The caller guarantees the clip id
    /// is not currently indexed (remove first on replacement).
    pub fn insert(&mut self, meta: &ClipMetadata, projection: &LocalProjection) {
        let list = self.by_category.entry(meta.category).or_default();
        let posting = (meta.published, meta.id);
        let at = list.partition_point(|&p| p < posting);
        list.insert(at, posting);
        if let Some(tag) = meta.geo {
            self.geo.insert(projection.project(tag.point), meta.id);
            self.max_tag_radius_m = self.max_tag_radius_m.max(tag.radius_m);
        }
        self.epoch += 1;
    }

    /// Drops one clip's posting-list entry (the category side). Grid
    /// entries are append-only; the repository rebuilds the geo side
    /// via [`Self::rebuild_geo`] when a tagged clip is replaced.
    pub fn remove(&mut self, meta: &ClipMetadata) {
        if let Some(list) = self.by_category.get_mut(&meta.category) {
            list.retain(|&(_, id)| id != meta.id);
            if list.is_empty() {
                self.by_category.remove(&meta.category);
            }
        }
        self.epoch += 1;
    }

    /// Rebuilds the geo grid from `clips`, skipping `skip` (the clip
    /// being replaced). Matches the paper's periodic batch compaction.
    pub fn rebuild_geo<'a>(
        &mut self,
        clips: impl Iterator<Item = &'a ClipMetadata>,
        skip: ClipId,
        projection: &LocalProjection,
    ) {
        self.geo.clear();
        // Grid cells keep entries in insertion order and queries echo
        // that order, so the rebuild must visit clips in a fixed order
        // or query results depend on the caller's (possibly
        // hash-ordered) iteration.
        let mut metas: Vec<&ClipMetadata> = clips.filter(|m| m.id != skip).collect();
        metas.sort_unstable_by_key(|m| m.id.0);
        for m in metas {
            if let Some(tag) = m.geo {
                self.geo.insert(projection.project(tag.point), m.id);
            }
        }
        self.epoch += 1;
    }

    /// All categories that currently hold at least one clip, in
    /// ascending id order.
    pub fn categories(&self) -> impl Iterator<Item = CategoryId> + '_ {
        // lint: allow(hash-iter) — keys are collected and sorted before the iterator is handed out
        let mut out: Vec<CategoryId> = self.by_category.keys().copied().collect();
        out.sort_unstable();
        out.into_iter()
    }

    /// The full posting list of one category (ascending by published).
    #[must_use]
    pub fn postings(&self, category: CategoryId) -> &[Posting] {
        self.by_category.get(&category).map_or(&[], Vec::as_slice)
    }

    /// Postings of `category` published at or after `since`, found by
    /// binary search over the ordered posting list — O(log n + hits).
    #[must_use]
    pub fn postings_since(&self, category: CategoryId, since: TimePoint) -> &[Posting] {
        let list = self.postings(category);
        let from = list.partition_point(|&(published, _)| published < since);
        &list[from..]
    }

    /// Largest geo-tag radius ever indexed, meters.
    #[must_use]
    pub fn max_tag_radius_m(&self) -> f64 {
        self.max_tag_radius_m
    }

    /// Overwrites the epoch and radius watermark after a snapshot
    /// restore. Rebuilding the index by re-inserting surviving clips
    /// reproduces the posting lists and geo grid exactly, but the
    /// epoch also counts removals and rebuilds from the previous
    /// incarnation — caches keyed on it must not see the clock run
    /// backwards.
    pub fn restore_meta(&mut self, epoch: u64, max_tag_radius_m: f64) {
        self.epoch = epoch;
        self.max_tag_radius_m = max_tag_radius_m;
    }

    /// Geo-tagged clip ids whose projected tag falls inside the padded
    /// rectangle `[min, max]`.
    #[must_use]
    pub fn geo_in_rect(
        &self,
        min: ProjectedPoint,
        max: ProjectedPoint,
    ) -> Vec<(ProjectedPoint, ClipId)> {
        self.geo.query_rect(min, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clipmeta::{ClipKind, GeoTag};
    use pphcr_geo::{GeoPoint, TimeSpan};

    const TORINO: GeoPoint = GeoPoint { lat: 45.0703, lon: 7.6869 };

    fn meta(id: u64, cat: u16, published: TimePoint) -> ClipMetadata {
        ClipMetadata {
            id: ClipId(id),
            title: format!("clip {id}"),
            kind: ClipKind::Podcast,
            category: CategoryId::new(cat),
            category_confidence: 1.0,
            duration: TimeSpan::minutes(5),
            published,
            geo: None,
            transcript: Vec::new(),
        }
    }

    #[test]
    fn postings_stay_sorted_regardless_of_ingest_order() {
        let proj = LocalProjection::new(TORINO);
        let mut idx = RepositoryIndex::new(2_000.0);
        idx.insert(&meta(3, 5, TimePoint::at(0, 9, 0, 0)), &proj);
        idx.insert(&meta(1, 5, TimePoint::at(0, 6, 0, 0)), &proj);
        idx.insert(&meta(2, 5, TimePoint::at(0, 7, 30, 0)), &proj);
        let ids: Vec<u64> = idx.postings(CategoryId::new(5)).iter().map(|&(_, id)| id.0).collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn postings_since_is_a_suffix_cut() {
        let proj = LocalProjection::new(TORINO);
        let mut idx = RepositoryIndex::new(2_000.0);
        for i in 0..10u64 {
            idx.insert(&meta(i, 2, TimePoint::at(0, i, 0, 0)), &proj);
        }
        let fresh = idx.postings_since(CategoryId::new(2), TimePoint::at(0, 6, 0, 0));
        let ids: Vec<u64> = fresh.iter().map(|&(_, id)| id.0).collect();
        assert_eq!(ids, vec![6, 7, 8, 9], "inclusive at the cutoff instant");
        assert!(idx.postings_since(CategoryId::new(2), TimePoint::at(1, 0, 0, 0)).is_empty());
        assert_eq!(idx.postings_since(CategoryId::new(2), TimePoint::EPOCH).len(), 10);
    }

    #[test]
    fn equal_publish_instants_are_ordered_by_id() {
        let proj = LocalProjection::new(TORINO);
        let mut idx = RepositoryIndex::new(2_000.0);
        let t = TimePoint::at(0, 8, 0, 0);
        idx.insert(&meta(9, 1, t), &proj);
        idx.insert(&meta(4, 1, t), &proj);
        idx.insert(&meta(7, 1, t), &proj);
        let ids: Vec<u64> = idx.postings(CategoryId::new(1)).iter().map(|&(_, id)| id.0).collect();
        assert_eq!(ids, vec![4, 7, 9]);
    }

    #[test]
    fn epoch_bumps_on_every_mutation() {
        let proj = LocalProjection::new(TORINO);
        let mut idx = RepositoryIndex::new(2_000.0);
        assert_eq!(idx.epoch(), 0);
        let m = meta(1, 3, TimePoint::at(0, 6, 0, 0));
        idx.insert(&m, &proj);
        assert_eq!(idx.epoch(), 1);
        idx.remove(&m);
        assert_eq!(idx.epoch(), 2);
        assert!(idx.postings(CategoryId::new(3)).is_empty());
    }

    #[test]
    fn geo_side_tracks_tags_and_radius() {
        let proj = LocalProjection::new(TORINO);
        let mut idx = RepositoryIndex::new(2_000.0);
        let mut m = meta(1, 3, TimePoint::at(0, 6, 0, 0));
        m.geo = Some(GeoTag { point: TORINO.destination(90.0, 1_000.0), radius_m: 750.0 });
        idx.insert(&m, &proj);
        assert_eq!(idx.geo.len(), 1);
        assert!((idx.max_tag_radius_m() - 750.0).abs() < 1e-12);
        idx.rebuild_geo([m.clone()].iter(), ClipId(1), &proj);
        assert!(idx.geo.is_empty());
    }

    #[test]
    fn rebuild_geo_is_iteration_order_independent() {
        // Regression: T3 witness `apply_record → ingest_clip → ingest →
        // rebuild_geo` — grid cells echo insertion order into query
        // results, so the rebuild must not echo hash-map order.
        let proj = LocalProjection::new(TORINO);
        let tag = |brg: f64| GeoTag { point: TORINO.destination(brg, 500.0), radius_m: 100.0 };
        let mut a = meta(1, 3, TimePoint::at(0, 6, 0, 0));
        a.geo = Some(tag(10.0));
        let mut b = meta(2, 3, TimePoint::at(0, 7, 0, 0));
        b.geo = Some(tag(11.0));
        let ids_after = |order: Vec<&ClipMetadata>| {
            let mut idx = RepositoryIndex::new(50_000.0);
            idx.rebuild_geo(order.into_iter(), ClipId(99), &proj);
            let mut ids = Vec::new();
            idx.geo.for_each_in_radius(proj.project(TORINO), 10_000.0, |_, id| ids.push(id.0));
            ids
        };
        assert_eq!(ids_after(vec![&a, &b]), vec![1, 2]);
        assert_eq!(ids_after(vec![&b, &a]), vec![1, 2], "rebuild must not echo caller order");
    }

    #[test]
    fn categories_come_out_sorted() {
        // Regression: T3 witness `candidates_indexed_excluding_stats →
        // indexed_categories → categories` — the category sweep order
        // must not depend on hash-map key order.
        let proj = LocalProjection::new(TORINO);
        let mut idx = RepositoryIndex::new(2_000.0);
        for (id, cat) in [(1u64, 9u16), (2, 3), (3, 7), (4, 3)] {
            idx.insert(&meta(id, cat, TimePoint::at(0, 6, 0, 0)), &proj);
        }
        let cats: Vec<CategoryId> = idx.categories().collect();
        assert_eq!(cats, vec![CategoryId::new(3), CategoryId::new(7), CategoryId::new(9)]);
    }
}
