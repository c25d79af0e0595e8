//! Destination, route and travel-time (ΔT) prediction.
//!
//! Paper Fig. 2: *"When the user's car starts moving, the system
//! predicts a travel duration ΔT, and tries to allocate the most
//! relevant content for the available time ΔT."* [`TripPredictor`]
//! feeds that step: it matches an in-progress trip against the
//! listener's [`MobilityModel`] with a Bayesian posterior over known
//! destinations combining route frequency (prior), departure-hour
//! affinity and geometric agreement of the driven prefix. It yields the
//! destination, remaining ΔT and the projected route geometry.

use crate::model::{MobilityModel, RouteProfile};
use pphcr_geo::{Polyline, ProjectedPoint, TimePoint, TimeSpan};
use serde::{Deserialize, Serialize};

/// Prediction for an in-progress trip.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TripPrediction {
    /// Predicted destination staying point.
    pub destination: u32,
    /// Posterior probability of that destination among known routes.
    pub confidence: f64,
    /// Predicted total trip duration from departure.
    pub total_duration: TimeSpan,
    /// Predicted time still to drive from `now` (the recommender's ΔT).
    pub remaining: TimeSpan,
    /// Expected remaining route geometry (from the current position to
    /// the destination), in the projected frame.
    pub route_ahead: Vec<ProjectedPoint>,
    /// Mean complexity of the predicted route.
    pub complexity: f64,
    /// Full posterior over destinations, highest first.
    pub posterior: Vec<(u32, f64)>,
}

/// Predicts destination and ΔT by matching trip prefixes to route
/// profiles.
#[derive(Debug, Clone)]
pub struct TripPredictor {
    /// Weight of the departure-hour affinity in the match score.
    pub hour_weight: f64,
    /// Scale (meters) of the geometric prefix-agreement kernel: the mean
    /// distance between the driven prefix and a candidate route is
    /// passed through `exp(-d/scale)`.
    pub geometry_scale_m: f64,
    /// Minimum posterior mass required to commit to a destination.
    pub min_confidence: f64,
}

impl Default for TripPredictor {
    fn default() -> Self {
        TripPredictor { hour_weight: 1.0, geometry_scale_m: 400.0, min_confidence: 0.35 }
    }
}

impl TripPredictor {
    /// Predicts the destination and remaining travel time.
    ///
    /// * `model` — the listener's compacted history,
    /// * `origin` — staying point the trip departed from,
    /// * `departure` — when the car started moving,
    /// * `now` — current time,
    /// * `prefix` — positions driven so far (projected frame, oldest
    ///   first).
    ///
    /// Returns `None` when the model has no route leaving `origin` or no
    /// candidate reaches `min_confidence`.
    #[must_use]
    pub fn predict(
        &self,
        model: &MobilityModel,
        origin: u32,
        departure: TimePoint,
        now: TimePoint,
        prefix: &[ProjectedPoint],
    ) -> Option<TripPrediction> {
        let candidates = model.routes_from(origin);
        if candidates.is_empty() {
            return None;
        }
        let hour = departure.hour_of_day();
        let mut scored: Vec<(&RouteProfile, f64)> = candidates
            .iter()
            .map(|p| {
                let prior = p.trip_count as f64;
                let hour_aff = p.hour_affinity(hour).powf(self.hour_weight);
                let geo = self.geometry_agreement(prefix, p);
                (*p, prior * hour_aff * geo)
            })
            .collect();
        let total: f64 = scored.iter().map(|(_, s)| s).sum();
        if total <= 0.0 {
            return None;
        }
        for (_, s) in &mut scored {
            *s /= total;
        }
        scored.sort_by(|a, b| b.1.total_cmp(&a.1));
        let (best, confidence) = (scored[0].0, scored[0].1);
        if confidence < self.min_confidence {
            return None;
        }
        let total_duration = best.mean_duration();
        let elapsed = now.since(departure);
        let remaining = total_duration.minus(elapsed);
        let route_ahead = self.route_ahead(prefix, best);
        Some(TripPrediction {
            destination: best.destination,
            confidence,
            total_duration,
            remaining,
            route_ahead,
            complexity: best.mean_complexity,
            posterior: scored.iter().map(|(p, s)| (p.destination, *s)).collect(),
        })
    }

    /// Mean-distance kernel between the driven prefix and a candidate
    /// route's representative geometry. 1.0 when the prefix is empty
    /// (pure prior) or lies exactly on the route.
    fn geometry_agreement(&self, prefix: &[ProjectedPoint], profile: &RouteProfile) -> f64 {
        if prefix.is_empty() || profile.representative.len() < 2 {
            return 1.0;
        }
        let pl = Polyline::new(profile.representative.clone());
        let mean_d =
            prefix.iter().map(|p| pl.distance_to(*p).unwrap_or(f64::INFINITY)).sum::<f64>()
                / prefix.len() as f64;
        (-mean_d / self.geometry_scale_m).exp()
    }

    /// The part of the representative route still ahead of the driver:
    /// from the projection of the last prefix point onwards.
    fn route_ahead(
        &self,
        prefix: &[ProjectedPoint],
        profile: &RouteProfile,
    ) -> Vec<ProjectedPoint> {
        let rep = &profile.representative;
        if rep.len() < 2 {
            return rep.clone();
        }
        let Some(cur) = prefix.last() else { return rep.clone() };
        let pl = Polyline::new(rep.clone());
        let along = pl.project_point(*cur).map_or(0.0, |pr| pr.along_m);
        let mut out = Vec::new();
        if let Some(start) = pl.point_at(along) {
            out.push(start);
        }
        // Keep the vertices strictly after `along`.
        let mut cum = 0.0;
        for w in rep.windows(2) {
            cum += w[0].distance_m(w[1]);
            if cum > along {
                out.push(w[1]);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{MobilityModel, ModelConfig};
    use pphcr_geo::LocalProjection;

    fn commuter_model() -> (MobilityModel, LocalProjection) {
        let (trace, proj, _, _) = crate::model::tests::commuter_trace(7);
        (MobilityModel::build(&trace, &proj, &ModelConfig::default()), proj)
    }

    #[test]
    fn morning_departure_predicts_work() {
        let (model, _) = commuter_model();
        let predictor = TripPredictor::default();
        // Day 8, 08:01, just left home (stay 0), no prefix yet.
        let dep = TimePoint::at(8, 8, 0, 0);
        let pred = predictor
            .predict(&model, 0, dep, dep.advance(TimeSpan::minutes(1)), &[])
            .expect("commute is well known");
        assert_eq!(pred.destination, 1, "work");
        assert!(pred.confidence > 0.5, "{}", pred.confidence);
        // ~20 min commute minus 1 min elapsed.
        let rem = pred.remaining.as_seconds();
        assert!((900..=1_300).contains(&rem), "remaining {rem}s");
    }

    #[test]
    fn remaining_shrinks_with_elapsed_time() {
        let (model, _) = commuter_model();
        let predictor = TripPredictor::default();
        let dep = TimePoint::at(8, 8, 0, 0);
        let early = predictor.predict(&model, 0, dep, dep.advance(TimeSpan::minutes(2)), &[]);
        let late = predictor.predict(&model, 0, dep, dep.advance(TimeSpan::minutes(10)), &[]);
        let (early, late) = (early.unwrap(), late.unwrap());
        assert!(late.remaining < early.remaining);
        assert_eq!(late.total_duration, early.total_duration);
    }

    #[test]
    fn unknown_origin_yields_none() {
        let (model, _) = commuter_model();
        let predictor = TripPredictor::default();
        let dep = TimePoint::at(8, 8, 0, 0);
        assert!(predictor.predict(&model, 99, dep, dep, &[]).is_none());
    }

    #[test]
    fn prefix_on_route_raises_confidence() {
        let (model, _) = commuter_model();
        let predictor = TripPredictor::default();
        let dep = TimePoint::at(8, 8, 0, 0);
        let profile = model.profiles.get(&(0, 1)).unwrap();
        let on_route: Vec<ProjectedPoint> =
            profile.representative.iter().take(3).copied().collect();
        let with_prefix =
            predictor.predict(&model, 0, dep, dep.advance(TimeSpan::minutes(3)), &on_route);
        assert!(with_prefix.is_some());
        assert!(with_prefix.unwrap().confidence > 0.5);
    }

    #[test]
    fn route_ahead_starts_near_current_position() {
        let (model, _) = commuter_model();
        let predictor = TripPredictor::default();
        let dep = TimePoint::at(8, 8, 0, 0);
        let profile = model.profiles.get(&(0, 1)).unwrap();
        let rep = Polyline::new(profile.representative.clone());
        let midway = rep.point_at(rep.length_m() / 2.0).unwrap();
        let pred = predictor
            .predict(&model, 0, dep, dep.advance(TimeSpan::minutes(10)), &[midway])
            .unwrap();
        let first = pred.route_ahead.first().copied().unwrap();
        assert!(first.distance_m(midway) < 100.0);
        // Remaining geometry should be roughly half the route.
        let ahead_len = Polyline::new(pred.route_ahead.clone()).length_m();
        assert!(ahead_len < rep.length_m() * 0.75, "{ahead_len} vs {}", rep.length_m());
    }

    #[test]
    fn posterior_sums_to_one() {
        let (model, _) = commuter_model();
        let predictor = TripPredictor { min_confidence: 0.0, ..Default::default() };
        let dep = TimePoint::at(8, 18, 0, 0);
        let pred = predictor.predict(&model, 1, dep, dep, &[]).unwrap();
        let sum: f64 = pred.posterior.iter().map(|(_, p)| p).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cold_start_no_profiles_predicts_none() {
        let empty = MobilityModel::default();
        let predictor = TripPredictor::default();
        assert!(predictor.predict(&empty, 0, TimePoint(0), TimePoint(0), &[]).is_none());
    }
}
