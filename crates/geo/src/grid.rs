//! A uniform-grid spatial index over projected points.
//!
//! The paper's tracking DB is "a `PostGIS` based spatial DB with the
//! listener's geographical information" whose GPS volume "requires to
//! periodically process and simplify" it. This index is our in-process
//! stand-in: it supports the two query shapes the analytics need —
//! radius queries (DBSCAN ε-neighbourhoods, geo-relevance of clips) and
//! rectangle queries (dashboard map windows) — in expected O(points in
//! the queried cells) instead of a full scan.

use crate::point::ProjectedPoint;
use std::collections::HashMap;

/// A uniform grid over the projected plane indexing `(ProjectedPoint, T)`
/// entries by cell.
///
/// `T` is a caller-chosen payload (a fix index, a clip id, …). Entries
/// are append-only; the tracking pipeline compacts by rebuilding, which
/// matches the paper's periodic batch simplification.
#[derive(Debug, Clone)]
pub struct GridIndex<T> {
    cell_m: f64,
    cells: HashMap<(i64, i64), Vec<(ProjectedPoint, T)>>,
    len: usize,
    /// Bounds of the occupied cells, kept so oversized query windows can
    /// be clamped instead of sweeping astronomically many empty cells.
    occupied: Option<((i64, i64), (i64, i64))>,
}

impl<T: Clone> GridIndex<T> {
    /// Creates an index with square cells of side `cell_m` meters.
    ///
    /// # Panics
    /// Panics if `cell_m` is not strictly positive and finite.
    #[must_use]
    pub fn new(cell_m: f64) -> Self {
        assert!(cell_m.is_finite() && cell_m > 0.0, "cell size must be positive, got {cell_m}");
        GridIndex { cell_m, cells: HashMap::new(), len: 0, occupied: None }
    }

    /// Number of indexed entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are indexed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn cell_of(&self, p: ProjectedPoint) -> (i64, i64) {
        ((p.x / self.cell_m).floor() as i64, (p.y / self.cell_m).floor() as i64)
    }

    /// Inserts an entry.
    pub fn insert(&mut self, p: ProjectedPoint, value: T) {
        let cell = self.cell_of(p);
        self.cells.entry(cell).or_default().push((p, value));
        self.len += 1;
        self.occupied = Some(match self.occupied {
            None => (cell, cell),
            Some(((x0, y0), (x1, y1))) => {
                ((x0.min(cell.0), y0.min(cell.1)), (x1.max(cell.0), y1.max(cell.1)))
            }
        });
    }

    /// Removes all entries.
    pub fn clear(&mut self) {
        self.cells.clear();
        self.len = 0;
        self.occupied = None;
    }

    /// Clamps a candidate cell window to the occupied bounds; `None`
    /// when the index is empty or the window misses every occupied cell.
    fn clamp_window(&self, lo: (i64, i64), hi: (i64, i64)) -> Option<((i64, i64), (i64, i64))> {
        let ((ox0, oy0), (ox1, oy1)) = self.occupied?;
        let x0 = lo.0.max(ox0);
        let y0 = lo.1.max(oy0);
        let x1 = hi.0.min(ox1);
        let y1 = hi.1.min(oy1);
        (x0 <= x1 && y0 <= y1).then_some(((x0, y0), (x1, y1)))
    }

    /// Visits every entry within `radius_m` of `center` (inclusive)
    /// without allocating a result vector.
    pub fn for_each_in_radius(
        &self,
        center: ProjectedPoint,
        radius_m: f64,
        mut visit: impl FnMut(ProjectedPoint, &T),
    ) {
        if radius_m.is_nan() || radius_m < 0.0 {
            return;
        }
        let r_sq = radius_m * radius_m;
        let lo = self.cell_of(ProjectedPoint::new(center.x - radius_m, center.y - radius_m));
        let hi = self.cell_of(ProjectedPoint::new(center.x + radius_m, center.y + radius_m));
        let Some(((cx0, cy0), (cx1, cy1))) = self.clamp_window(lo, hi) else { return };
        for cx in cx0..=cx1 {
            for cy in cy0..=cy1 {
                if let Some(entries) = self.cells.get(&(cx, cy)) {
                    for (p, v) in entries {
                        if p.distance_sq(center) <= r_sq {
                            visit(*p, v);
                        }
                    }
                }
            }
        }
    }

    /// Collects every entry inside the axis-aligned rectangle
    /// `[min, max]` (inclusive).
    #[must_use]
    pub fn query_rect(&self, min: ProjectedPoint, max: ProjectedPoint) -> Vec<(ProjectedPoint, T)> {
        let mut out = Vec::new();
        if min.x > max.x || min.y > max.y {
            return out;
        }
        let Some(((cx0, cy0), (cx1, cy1))) =
            self.clamp_window(self.cell_of(min), self.cell_of(max))
        else {
            return out;
        };
        for cx in cx0..=cx1 {
            for cy in cy0..=cy1 {
                if let Some(entries) = self.cells.get(&(cx, cy)) {
                    for (p, v) in entries {
                        if p.x >= min.x && p.x <= max.x && p.y >= min.y && p.y <= max.y {
                            out.push((*p, v.clone()));
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query_radius<T: Clone>(
        g: &GridIndex<T>,
        center: ProjectedPoint,
        radius_m: f64,
    ) -> Vec<(ProjectedPoint, T)> {
        let mut out = Vec::new();
        g.for_each_in_radius(center, radius_m, |p, v| out.push((p, v.clone())));
        out
    }

    fn sample_index() -> GridIndex<usize> {
        let mut g = GridIndex::new(100.0);
        let pts = [(0.0, 0.0), (50.0, 50.0), (150.0, 0.0), (-120.0, -30.0), (1_000.0, 1_000.0)];
        for (i, (x, y)) in pts.iter().enumerate() {
            g.insert(ProjectedPoint::new(*x, *y), i);
        }
        g
    }

    #[test]
    fn radius_query_matches_linear_scan() {
        let g = sample_index();
        let center = ProjectedPoint::new(10.0, 10.0);
        // Distances from (10,10): #0 ≈ 14.1, #1 ≈ 56.6, #2 ≈ 140.4,
        // #3 ≈ 136.0, #4 ≈ 1400. Radius 138 keeps {0, 1, 3}.
        let mut got: Vec<usize> =
            query_radius(&g, center, 138.0).into_iter().map(|(_, v)| v).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 3]);
        let mut wider: Vec<usize> =
            query_radius(&g, center, 160.0).into_iter().map(|(_, v)| v).collect();
        wider.sort_unstable();
        assert_eq!(wider, vec![0, 1, 2, 3]);
    }

    #[test]
    fn radius_query_is_inclusive_at_boundary() {
        let mut g = GridIndex::new(10.0);
        g.insert(ProjectedPoint::new(3.0, 4.0), ());
        assert_eq!(query_radius(&g, ProjectedPoint::new(0.0, 0.0), 5.0).len(), 1);
        assert_eq!(query_radius(&g, ProjectedPoint::new(0.0, 0.0), 4.999).len(), 0);
    }

    #[test]
    fn zero_radius_finds_exact_point() {
        let mut g = GridIndex::new(25.0);
        g.insert(ProjectedPoint::new(7.0, 7.0), 42);
        let hits = query_radius(&g, ProjectedPoint::new(7.0, 7.0), 0.0);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].1, 42);
    }

    #[test]
    fn negative_coordinates_hash_to_correct_cells() {
        let mut g = GridIndex::new(100.0);
        g.insert(ProjectedPoint::new(-1.0, -1.0), 0);
        g.insert(ProjectedPoint::new(-99.0, -99.0), 1);
        // Both fall in cell (-1,-1); a query near the origin must find the
        // first without scanning unrelated cells.
        assert_eq!(query_radius(&g, ProjectedPoint::new(0.0, 0.0), 2.0).len(), 1);
        assert_eq!(query_radius(&g, ProjectedPoint::new(-100.0, -100.0), 2.0).len(), 1);
    }

    #[test]
    fn rect_query_inclusive_bounds() {
        let g = sample_index();
        let hits = g.query_rect(ProjectedPoint::new(0.0, 0.0), ProjectedPoint::new(150.0, 50.0));
        let mut ids: Vec<usize> = hits.into_iter().map(|(_, v)| v).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn inverted_rect_is_empty() {
        let g = sample_index();
        assert!(g
            .query_rect(ProjectedPoint::new(10.0, 10.0), ProjectedPoint::new(-10.0, -10.0))
            .is_empty());
    }

    #[test]
    fn len_and_clear() {
        let mut g = sample_index();
        assert_eq!(g.len(), 5);
        assert!(!g.is_empty());
        g.clear();
        assert!(g.is_empty());
        assert!(query_radius(&g, ProjectedPoint::new(0.0, 0.0), 1e9).is_empty());
    }

    #[test]
    #[should_panic(expected = "cell size must be positive")]
    fn zero_cell_size_panics() {
        let _ = GridIndex::<()>::new(0.0);
    }

    /// Regression: a radius vastly larger than the data extent must not
    /// sweep empty cells (this used to loop over ~1e14 candidate cells).
    #[test]
    fn huge_radius_clamps_to_occupied_cells() {
        let g = sample_index();
        assert_eq!(query_radius(&g, ProjectedPoint::new(0.0, 0.0), 1e12).len(), 5);
        let hits = g.query_rect(ProjectedPoint::new(-1e12, -1e12), ProjectedPoint::new(1e12, 1e12));
        assert_eq!(hits.len(), 5);
    }

    #[test]
    fn empty_index_queries_return_nothing() {
        let g: GridIndex<u8> = GridIndex::new(10.0);
        assert!(query_radius(&g, ProjectedPoint::new(0.0, 0.0), 1e9).is_empty());
        assert!(g
            .query_rect(ProjectedPoint::new(-1e9, -1e9), ProjectedPoint::new(1e9, 1e9))
            .is_empty());
    }
}
