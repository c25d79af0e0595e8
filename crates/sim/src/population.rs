//! The commuter population and its mobility traces.
//!
//! Each commuter has a home, a workplace, preferred departure times
//! with day-to-day jitter, a favourite service, and ground-truth tastes
//! over the 30 categories. [`Population::day_trace`] renders a day of
//! noisy GPS fixes (driving along the road network at edge speeds,
//! dwelling at home/work) — the input the tracking pipeline compacts.

use crate::world::SyntheticCity;
use pphcr_catalog::{ServiceIndex, CATEGORY_COUNT};
use pphcr_geo::{GeoPoint, NodeId, TimePoint, TimeSpan};
use pphcr_trajectory::GpsFix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One simulated listener.
#[derive(Debug, Clone)]
pub struct Commuter {
    /// Listener index (maps to `UserId(index)`).
    pub index: u64,
    /// Home node.
    pub home: NodeId,
    /// Workplace node.
    pub work: NodeId,
    /// Preferred outbound departure, seconds of day.
    pub departure_out_s: u64,
    /// Preferred return departure, seconds of day.
    pub departure_back_s: u64,
    /// Favourite service.
    pub service: ServiceIndex,
    /// Ground-truth taste per category, in `[-1, 1]`.
    pub tastes: Vec<f64>,
}

impl Commuter {
    /// The commuter's taste for one category.
    #[must_use]
    pub fn taste(&self, category: u16) -> f64 {
        self.tastes[category as usize % self.tastes.len()]
    }
}

/// GPS noise model parameters.
#[derive(Debug, Clone, Copy)]
pub struct GpsNoise {
    /// Position noise standard deviation, meters.
    pub sigma_m: f64,
    /// Fix cadence, seconds.
    pub cadence_s: u64,
    /// Probability a fix is dropped (tunnel, urban canyon).
    pub dropout: f64,
}

impl Default for GpsNoise {
    fn default() -> Self {
        GpsNoise { sigma_m: 8.0, cadence_s: 30, dropout: 0.02 }
    }
}

/// The population generator.
#[derive(Debug)]
pub struct Population {
    /// Commuters.
    pub commuters: Vec<Commuter>,
    seed: u64,
}

impl Population {
    /// Generates `n` commuters living in `city`.
    #[must_use]
    pub fn generate(city: &SyntheticCity, n: usize, seed: u64) -> Self {
        let mut commuters = Vec::with_capacity(n);
        for index in 0..n as u64 {
            let mut rng = StdRng::seed_from_u64(seed ^ (index.wrapping_mul(0x9E37_79B9)));
            let mut tastes = vec![0.0f64; CATEGORY_COUNT as usize];
            // Each commuter loves 3 categories, dislikes 3, is lukewarm
            // on a few, neutral elsewhere.
            for _ in 0..3 {
                let c = rng.gen_range(0..CATEGORY_COUNT as usize);
                tastes[c] = rng.gen_range(0.7..1.0);
            }
            for _ in 0..3 {
                let c = rng.gen_range(0..CATEGORY_COUNT as usize);
                if tastes[c] == 0.0 {
                    tastes[c] = rng.gen_range(-1.0..-0.6);
                }
            }
            for _ in 0..4 {
                let c = rng.gen_range(0..CATEGORY_COUNT as usize);
                if tastes[c] == 0.0 {
                    tastes[c] = rng.gen_range(-0.3..0.3);
                }
            }
            commuters.push(Commuter {
                index,
                home: city.home_node(index),
                work: city.work_node(index),
                departure_out_s: 7 * 3_600 + rng.gen_range(0..5_400), // 07:00–08:30
                departure_back_s: 17 * 3_600 + rng.gen_range(0..7_200), // 17:00–19:00
                service: ServiceIndex(rng.gen_range(0..10)),
                tastes,
            });
        }
        Population { commuters, seed }
    }

    /// Renders one day of GPS fixes for a commuter: dwell at home,
    /// drive to work, dwell, drive home, dwell. Day-to-day departure
    /// jitter of ±5 minutes; route follows the time-optimal path at
    /// edge speeds with Gaussian-ish position noise.
    #[must_use]
    pub fn day_trace(
        &self,
        city: &SyntheticCity,
        commuter: &Commuter,
        day: u64,
        noise: GpsNoise,
    ) -> Vec<GpsFix> {
        let mut rng = StdRng::seed_from_u64(
            self.seed ^ commuter.index.wrapping_mul(31) ^ day.wrapping_mul(0x5_DEEC_E66D),
        );
        let jitter = i64::from(rng.gen_range(0..600)) - 300;
        let dep_out = (commuter.departure_out_s as i64 + jitter).max(0) as u64;
        let dep_back = (commuter.departure_back_s as i64 + jitter).max(0) as u64;
        let mut fixes = Vec::new();
        let day0 = TimePoint::at(day, 0, 0, 0);
        let home_pos = city.network.node(commuter.home).pos;
        let work_pos = city.network.node(commuter.work).pos;
        // Home dwell from 00:00 to departure.
        self.dwell(&mut fixes, city, home_pos, day0, TimeSpan::seconds(dep_out), &mut rng, noise);
        // Outbound drive.
        let out_end = self.drive(
            &mut fixes,
            city,
            commuter.home,
            commuter.work,
            day0.advance(TimeSpan::seconds(dep_out)),
            &mut rng,
            noise,
        );
        // Work dwell until return departure.
        let back_at = day0.advance(TimeSpan::seconds(dep_back));
        if back_at > out_end {
            self.dwell(
                &mut fixes,
                city,
                work_pos,
                out_end,
                back_at.since(out_end),
                &mut rng,
                noise,
            );
        }
        // Return drive.
        let back_end =
            self.drive(&mut fixes, city, commuter.work, commuter.home, back_at, &mut rng, noise);
        // Evening dwell until midnight.
        let midnight = TimePoint::at(day + 1, 0, 0, 0);
        if midnight > back_end {
            self.dwell(
                &mut fixes,
                city,
                home_pos,
                back_end,
                midnight.since(back_end),
                &mut rng,
                noise,
            );
        }
        fixes
    }

    fn noisy(
        &self,
        city: &SyntheticCity,
        pos: pphcr_geo::ProjectedPoint,
        rng: &mut StdRng,
        sigma: f64,
    ) -> GeoPoint {
        // Cheap normal-ish noise: sum of three uniforms.
        let n = |rng: &mut StdRng| {
            (rng.gen::<f64>() + rng.gen::<f64>() + rng.gen::<f64>() - 1.5) * sigma
        };
        let p = pphcr_geo::ProjectedPoint::new(pos.x + n(rng), pos.y + n(rng));
        city.projection.unproject(p)
    }

    #[allow(clippy::too_many_arguments)]
    fn dwell(
        &self,
        fixes: &mut Vec<GpsFix>,
        city: &SyntheticCity,
        pos: pphcr_geo::ProjectedPoint,
        from: TimePoint,
        span: TimeSpan,
        rng: &mut StdRng,
        noise: GpsNoise,
    ) {
        // Dwell fixes arrive at 10× the driving cadence (battery saving).
        let cadence = noise.cadence_s * 10;
        let mut t = 0u64;
        while t < span.as_seconds() {
            if rng.gen::<f64>() >= noise.dropout {
                fixes.push(GpsFix::new(
                    self.noisy(city, pos, rng, noise.sigma_m),
                    from.advance(TimeSpan::seconds(t)),
                    rng.gen_range(0.0..0.4),
                ));
            }
            t += cadence;
        }
    }

    /// Drives the time-optimal route emitting fixes; returns arrival.
    #[allow(clippy::too_many_arguments)]
    fn drive(
        &self,
        fixes: &mut Vec<GpsFix>,
        city: &SyntheticCity,
        from: NodeId,
        to: NodeId,
        start: TimePoint,
        rng: &mut StdRng,
        noise: GpsNoise,
    ) -> TimePoint {
        let Some(route) = city.network.shortest_path(from, to) else {
            return start;
        };
        let polyline = city.network.route_polyline(&route);
        // Walk the route edge by edge at edge speed.
        let mut t = 0.0f64;
        let mut next_fix = 0.0f64;
        let mut along = 0.0f64;
        for &eid in &route.edges {
            let edge = city.network.edge(eid);
            let edge_time = edge.travel_time_s();
            let mut edge_t = 0.0;
            while edge_t < edge_time {
                if t + (edge_time - edge_t) < next_fix {
                    // No fix due before this edge ends.
                    break;
                }
                let dt = (next_fix - t).max(0.0);
                edge_t += dt;
                t = next_fix;
                along = (along + dt * edge.speed_mps).min(polyline.length_m());
                if let Some(pos) = polyline.point_at(along) {
                    if rng.gen::<f64>() >= noise.dropout {
                        fixes.push(GpsFix::new(
                            self.noisy(city, pos, rng, noise.sigma_m),
                            start.advance(TimeSpan::seconds(t.round() as u64)),
                            edge.speed_mps * rng.gen_range(0.9..1.1),
                        ));
                    }
                }
                next_fix += noise.cadence_s as f64;
            }
            let remaining = edge_time - edge_t;
            t += remaining;
            along += remaining * edge.speed_mps;
        }
        // Always emit an arrival fix at the destination so the trip's
        // endpoint anchors to the staying point there.
        let arrival = start.advance(TimeSpan::seconds(route.travel_time_s.ceil() as u64));
        let dest_pos = city.network.node(to).pos;
        fixes.push(GpsFix::new(
            self.noisy(city, dest_pos, rng, noise.sigma_m),
            arrival,
            4.0, // rolling to a stop, still above the dwell threshold
        ));
        arrival
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pphcr_trajectory::model::ModelConfig;
    use pphcr_trajectory::{MobilityModel, Trace};

    fn setup() -> (SyntheticCity, Population) {
        let city = SyntheticCity::generate(10, 400.0, 11);
        let pop = Population::generate(&city, 5, 22);
        (city, pop)
    }

    #[test]
    fn tastes_have_likes_and_dislikes() {
        let (_, pop) = setup();
        for c in &pop.commuters {
            assert!(c.tastes.iter().any(|&t| t > 0.5), "commuter {} has no likes", c.index);
            assert!(c.tastes.iter().any(|&t| t < -0.5), "commuter {} has no dislikes", c.index);
            assert!(c.tastes.iter().all(|&t| (-1.0..=1.0).contains(&t)));
        }
    }

    #[test]
    fn day_trace_covers_the_day() {
        let (city, pop) = setup();
        let c = &pop.commuters[0];
        let fixes = pop.day_trace(&city, c, 0, GpsNoise::default());
        assert!(fixes.len() > 100, "got {}", fixes.len());
        // Chronological.
        assert!(fixes.windows(2).all(|w| w[0].time <= w[1].time));
        // Contains both dwell (slow) and driving (fast) fixes.
        assert!(fixes.iter().any(|f| f.speed_mps < 0.5));
        assert!(fixes.iter().any(|f| f.speed_mps > 8.0));
    }

    #[test]
    fn trace_compacts_to_home_work_model() {
        let (city, pop) = setup();
        let c = &pop.commuters[1];
        let mut all = Vec::new();
        for day in 0..5 {
            all.extend(pop.day_trace(&city, c, day, GpsNoise::default()));
        }
        let trace = Trace::from_fixes(all);
        let model = MobilityModel::build(&trace, &city.projection, &ModelConfig::default());
        assert!(model.stay_points.len() >= 2, "home+work: {:?}", model.stay_points.len());
        assert!(!model.profiles.is_empty(), "at least one recurring route");
        let best = model.profiles.values().max_by_key(|p| p.trip_count).unwrap();
        assert!(best.trip_count >= 4, "the commute recurs: {}", best.trip_count);
    }

    #[test]
    fn departure_times_are_morning_and_evening() {
        let (_, pop) = setup();
        for c in &pop.commuters {
            assert!((7 * 3_600..9 * 3_600).contains(&c.departure_out_s));
            assert!((17 * 3_600..19 * 3_600 + 1).contains(&c.departure_back_s));
        }
    }

    #[test]
    fn traces_differ_across_days_but_route_is_stable() {
        let (city, pop) = setup();
        let c = &pop.commuters[2];
        let a = pop.day_trace(&city, c, 0, GpsNoise::default());
        let b = pop.day_trace(&city, c, 1, GpsNoise::default());
        // Jitter shifts departures.
        assert_ne!(a.first().map(|f| f.time), b.first().map(|f| f.time));
        // Same day regenerates identically (determinism).
        let a2 = pop.day_trace(&city, c, 0, GpsNoise::default());
        assert_eq!(a.len(), a2.len());
        assert_eq!(
            a.first().map(|f| f.point.lat.to_bits()),
            a2.first().map(|f| f.point.lat.to_bits())
        );
    }

    #[test]
    fn dropout_reduces_fix_count() {
        let (city, pop) = setup();
        let c = &pop.commuters[0];
        let clean = pop.day_trace(&city, c, 0, GpsNoise { dropout: 0.0, ..Default::default() });
        let lossy = pop.day_trace(&city, c, 0, GpsNoise { dropout: 0.5, ..Default::default() });
        assert!(lossy.len() < clean.len() * 7 / 10, "{} vs {}", lossy.len(), clean.len());
    }
}
