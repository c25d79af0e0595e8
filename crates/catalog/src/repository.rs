//! The queryable content repository.
//!
//! Ingests the day's clips (paper: "more than 100 podcasts created
//! every day") and answers the recommender's candidate queries: by
//! category, by freshness, by duration window, and by geographic
//! relevance to a point or a projected route. All index structures
//! live in [`RepositoryIndex`] and are maintained incrementally on
//! ingest: per-category posting lists ordered by publication time
//! (freshness cutoffs are binary searches) and a uniform grid over
//! geo-tagged clips (route queries do not scan the archive).

use crate::category::CategoryId;
use crate::clipmeta::ClipMetadata;
use crate::index::RepositoryIndex;
use pphcr_audio::ClipId;
use pphcr_geo::polyline::PathProjection;
use pphcr_geo::{LocalProjection, Polyline, TimePoint};
use std::collections::HashMap;

/// The content repository (metadata side).
#[derive(Debug)]
pub struct ContentRepository {
    clips: HashMap<ClipId, ClipMetadata>,
    index: RepositoryIndex,
    projection: LocalProjection,
}

impl ContentRepository {
    /// Creates an empty repository using `projection` for geo queries.
    #[must_use]
    pub fn new(projection: LocalProjection) -> Self {
        ContentRepository {
            clips: HashMap::new(),
            index: RepositoryIndex::new(2_000.0),
            projection,
        }
    }

    /// The repository's projection.
    #[must_use]
    pub fn projection(&self) -> &LocalProjection {
        &self.projection
    }

    /// The index epoch: bumped on every ingest, so caches derived from
    /// repository contents can detect staleness cheaply.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.index.epoch()
    }

    /// Ingests one clip. Re-ingesting an id replaces the metadata but
    /// keeps index entries consistent.
    pub fn ingest(&mut self, meta: ClipMetadata) {
        if let Some(old) = self.clips.remove(&meta.id) {
            self.index.remove(&old);
            // Grid entries are append-only; rebuild lazily on replace.
            if old.geo.is_some() {
                // lint: allow(hash-iter) — rebuild_geo sorts the collected clips by id before touching the grid
                self.index.rebuild_geo(self.clips.values(), meta.id, &self.projection);
            }
        }
        self.index.insert(&meta, &self.projection);
        self.clips.insert(meta.id, meta);
    }

    /// Looks a clip up.
    #[must_use]
    pub fn get(&self, id: ClipId) -> Option<&ClipMetadata> {
        self.clips.get(&id)
    }

    /// Number of stored clips.
    #[must_use]
    pub fn len(&self) -> usize {
        self.clips.len()
    }

    /// True when the repository holds no clips.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.clips.is_empty()
    }

    /// Number of indexed clips in one category — the posting-list
    /// length, read in O(1) without visiting any clip.
    #[must_use]
    pub fn category_len(&self, category: CategoryId) -> usize {
        self.index.postings(category).len()
    }

    /// All categories that currently hold at least one clip
    /// (unspecified order).
    pub fn indexed_categories(&self) -> impl Iterator<Item = CategoryId> + '_ {
        self.index.categories()
    }

    /// Clips of `category` published at or after `since`, oldest first.
    /// Binary search over the category's posting list: O(log n + hits).
    pub fn fresh_in_category(
        &self,
        category: CategoryId,
        since: TimePoint,
    ) -> impl Iterator<Item = &ClipMetadata> {
        self.index.postings_since(category, since).iter().filter_map(|&(_, id)| self.clips.get(&id))
    }

    /// Geo-tagged clips relevant to a route: tags within `corridor_m`
    /// of the polyline, each with its tag's projection onto the route
    /// (along-route position in meters from the route start, and
    /// distance from the route). Sorted by along-route position. This
    /// is how Fig. 2's item B (relevant to the location `L_B` the user
    /// will reach) is found.
    #[must_use]
    pub fn geo_along_route(
        &self,
        route: &Polyline,
        corridor_m: f64,
    ) -> Vec<(&ClipMetadata, PathProjection)> {
        let mut out = Vec::new();
        if route.is_empty() {
            return out;
        }
        // Candidate window: route bbox padded by the corridor. The grid
        // clamps to occupied cells, so an oversized rect stays cheap.
        let (mut min_x, mut min_y, mut max_x, mut max_y) =
            (f64::INFINITY, f64::INFINITY, f64::NEG_INFINITY, f64::NEG_INFINITY);
        for p in route.points() {
            min_x = min_x.min(p.x);
            min_y = min_y.min(p.y);
            max_x = max_x.max(p.x);
            max_y = max_y.max(p.y);
        }
        let pad = corridor_m.max(self.index.max_tag_radius_m());
        let candidates = self.index.geo_in_rect(
            pphcr_geo::ProjectedPoint::new(min_x - pad, min_y - pad),
            pphcr_geo::ProjectedPoint::new(max_x + pad, max_y + pad),
        );
        for (pos, id) in candidates {
            let Some(meta) = self.clips.get(&id) else { continue };
            let Some(tag) = meta.geo else { continue };
            let Some(projection) = route.project_point(pos) else { continue };
            // Within the corridor, or within the tag's own radius.
            if projection.distance_m <= corridor_m.max(tag.radius_m) {
                out.push((meta, projection));
            }
        }
        out.sort_by(|a, b| a.1.along_m.total_cmp(&b.1.along_m).then(a.0.id.cmp(&b.0.id)));
        out
    }

    /// Iterates over all clips (unspecified order).
    // lint: allow(reach-hash-iter) — every caller sorts (snapshot, by clip id) or feeds an order-insensitive fold (finalize re-sorts by score then id)
    pub fn iter(&self) -> impl Iterator<Item = &ClipMetadata> {
        self.clips.values()
    }

    /// Largest geo-tag radius ever indexed, meters (persisted alongside
    /// the epoch because a removed clip can still hold the watermark).
    #[must_use]
    pub fn max_tag_radius_m(&self) -> f64 {
        self.index.max_tag_radius_m()
    }

    /// Restores the index epoch and radius watermark after rebuilding
    /// the repository from persisted clip metadata. See
    /// [`RepositoryIndex::restore_meta`].
    pub fn restore_index_meta(&mut self, epoch: u64, max_tag_radius_m: f64) {
        self.index.restore_meta(epoch, max_tag_radius_m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clipmeta::{ClipKind, GeoTag};
    use pphcr_geo::{GeoPoint, ProjectedPoint, TimeSpan};

    const TORINO: GeoPoint = GeoPoint { lat: 45.0703, lon: 7.6869 };

    fn meta(id: u64, cat: u16, published: TimePoint, dur_min: u64) -> ClipMetadata {
        ClipMetadata {
            id: ClipId(id),
            title: format!("Clip {id}"),
            kind: ClipKind::Podcast,
            category: CategoryId::new(cat),
            category_confidence: 1.0,
            duration: TimeSpan::minutes(dur_min),
            published,
            geo: None,
            transcript: Vec::new(),
        }
    }

    fn repo() -> ContentRepository {
        let mut r = ContentRepository::new(LocalProjection::new(TORINO));
        r.ingest(meta(1, 8, TimePoint::at(0, 6, 0, 0), 15));
        r.ingest(meta(2, 8, TimePoint::at(0, 9, 0, 0), 5));
        r.ingest(meta(3, 5, TimePoint::at(0, 7, 0, 0), 30));
        r
    }

    #[test]
    fn category_query() {
        let r = repo();
        assert_eq!(r.category_len(CategoryId::new(8)), 2);
        assert_eq!(r.category_len(CategoryId::new(9)), 0);
    }

    #[test]
    fn fresh_in_category_uses_the_posting_cut() {
        let r = repo();
        let fresh: Vec<u64> = r
            .fresh_in_category(CategoryId::new(8), TimePoint::at(0, 7, 0, 0))
            .map(|m| m.id.0)
            .collect();
        assert_eq!(fresh, vec![2]);
        let all: Vec<u64> =
            r.fresh_in_category(CategoryId::new(8), TimePoint::EPOCH).map(|m| m.id.0).collect();
        assert_eq!(all, vec![1, 2], "oldest first");
    }

    #[test]
    fn epoch_advances_with_ingest() {
        let mut r = repo();
        let before = r.epoch();
        r.ingest(meta(4, 5, TimePoint::at(0, 11, 0, 0), 7));
        assert!(r.epoch() > before);
    }

    #[test]
    fn reingest_replaces_cleanly() {
        let mut r = repo();
        let mut m = meta(1, 9, TimePoint::at(0, 10, 0, 0), 10);
        m.title = "Updated".into();
        r.ingest(m);
        assert_eq!(r.len(), 3);
        assert_eq!(r.get(ClipId(1)).unwrap().title, "Updated");
        assert_eq!(r.category_len(CategoryId::new(8)), 1, "old index entry removed");
        assert_eq!(r.category_len(CategoryId::new(9)), 1);
    }

    #[test]
    fn geo_along_route_orders_by_position() {
        let mut r = ContentRepository::new(LocalProjection::new(TORINO));
        // Route: 10 km due east of Torino.
        let proj = *r.projection();
        let route =
            Polyline::new(vec![ProjectedPoint::new(0.0, 0.0), ProjectedPoint::new(10_000.0, 0.0)]);
        // Tag at 7 km, 200 m off the road.
        let mut late = meta(20, 13, TimePoint::EPOCH, 3);
        late.geo = Some(GeoTag {
            point: proj.unproject(ProjectedPoint::new(7_000.0, 200.0)),
            radius_m: 300.0,
        });
        // Tag at 2 km, on the road.
        let mut early = meta(21, 13, TimePoint::EPOCH, 3);
        early.geo = Some(GeoTag {
            point: proj.unproject(ProjectedPoint::new(2_000.0, 0.0)),
            radius_m: 300.0,
        });
        // Tag 5 km off the corridor.
        let mut off = meta(22, 13, TimePoint::EPOCH, 3);
        off.geo = Some(GeoTag {
            point: proj.unproject(ProjectedPoint::new(5_000.0, 5_000.0)),
            radius_m: 300.0,
        });
        r.ingest(late);
        r.ingest(early);
        r.ingest(off);
        let hits = r.geo_along_route(&route, 500.0);
        let ids: Vec<u64> = hits.iter().map(|(m, _)| m.id.0).collect();
        assert_eq!(ids, vec![21, 20]);
        assert!((hits[0].1.along_m - 2_000.0).abs() < 1.0);
        assert!((hits[1].1.along_m - 7_000.0).abs() < 1.0);
        assert!(hits[0].1.distance_m < 1.0);
        assert!((hits[1].1.distance_m - 200.0).abs() < 1.0);
    }

    #[test]
    fn geo_along_route_respects_tag_radius() {
        let mut r = ContentRepository::new(LocalProjection::new(TORINO));
        let proj = *r.projection();
        let route =
            Polyline::new(vec![ProjectedPoint::new(0.0, 0.0), ProjectedPoint::new(10_000.0, 0.0)]);
        // A stadium-sized tag 2 km off the road still covers the route.
        let mut big = meta(30, 6, TimePoint::EPOCH, 3);
        big.geo = Some(GeoTag {
            point: proj.unproject(ProjectedPoint::new(5_000.0, 2_000.0)),
            radius_m: 3_000.0,
        });
        r.ingest(big);
        let hits = r.geo_along_route(&route, 500.0);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn empty_route_is_empty() {
        let r = repo();
        assert!(r.geo_along_route(&Polyline::new(vec![]), 500.0).is_empty());
    }
}
