//! Property-based tests over the platform's core invariants.
//!
//! Each property encodes a guarantee a downstream component relies on:
//! the RDP error bound (the tracking DB may drop raw fixes), grid-index
//! completeness (DBSCAN correctness depends on it), splice-plan
//! validation (the player trusts plans blindly), knapsack optimality
//! (the scheduler's objective function), and the replacement timeline's
//! contiguity (no silent gaps on air).

use pphcr::audio::source::{ClipSource, LiveSource};
use pphcr::audio::splice::{PlannedSegment, SegmentSource, SplicePlan};
use pphcr::audio::{AudioSource, TimeShiftBuffer};
use pphcr::catalog::CategoryId;
use pphcr::geo::grid::GridIndex;
use pphcr::geo::{Polyline, ProjectedPoint, TimePoint, TimeSpan};
use pphcr::trajectory::{dbscan, rdp_indices, simplify, ClusterLabel, DbscanParams};
use pphcr::userdata::{FeedbackEvent, FeedbackKind, FeedbackStore, UserId};
use proptest::prelude::*;

fn arb_points(max_len: usize) -> impl Strategy<Value = Vec<ProjectedPoint>> {
    prop::collection::vec((-10_000.0f64..10_000.0, -10_000.0f64..10_000.0), 0..max_len)
        .prop_map(|v| v.into_iter().map(|(x, y)| ProjectedPoint::new(x, y)).collect())
}

proptest! {
    // ---------------- RDP ----------------

    /// Every dropped point stays within ε of the simplified polyline,
    /// and the endpoints always survive.
    #[test]
    fn rdp_error_bound(points in arb_points(120), eps in 0.5f64..500.0) {
        let kept = simplify(&points, eps);
        if points.len() >= 2 {
            prop_assert_eq!(kept.first(), points.first());
            prop_assert_eq!(kept.last(), points.last());
            let pl = Polyline::new(kept);
            for p in &points {
                let d = pl.distance_to(*p).unwrap();
                prop_assert!(d <= eps + 1e-6, "point {:?} deviates {} > {}", p, d, eps);
            }
        } else {
            prop_assert_eq!(kept.len(), points.len());
        }
    }

    /// Larger tolerance never keeps more points.
    #[test]
    fn rdp_monotone_in_epsilon(points in arb_points(80), eps in 1.0f64..100.0) {
        let fine = rdp_indices(&points, eps);
        let coarse = rdp_indices(&points, eps * 3.0);
        prop_assert!(coarse.len() <= fine.len());
        // Indices strictly increase in both.
        prop_assert!(fine.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(coarse.windows(2).all(|w| w[0] < w[1]));
    }

    // ---------------- Grid index ----------------

    /// Radius queries return exactly what a linear scan returns.
    #[test]
    fn grid_matches_linear_scan(
        points in arb_points(150),
        cell in 10.0f64..2_000.0,
        cx in -10_000.0f64..10_000.0,
        cy in -10_000.0f64..10_000.0,
        radius in 0.0f64..15_000.0,
    ) {
        let mut index = GridIndex::new(cell);
        for (i, p) in points.iter().enumerate() {
            index.insert(*p, i);
        }
        let center = ProjectedPoint::new(cx, cy);
        let mut got: Vec<usize> = Vec::new();
        index.for_each_in_radius(center, radius, |_, &i| got.push(i));
        got.sort_unstable();
        let mut expected: Vec<usize> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.distance_m(center) <= radius)
            .map(|(i, _)| i)
            .collect();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    // ---------------- DBSCAN ----------------

    /// Labels cover every input; a point with ≥ min_pts neighbours
    /// (itself included) is never noise.
    #[test]
    fn dbscan_core_points_never_noise(
        points in arb_points(120),
        eps in 10.0f64..1_000.0,
        min_pts in 1usize..6,
    ) {
        let labels = dbscan(&points, DbscanParams { eps_m: eps, min_pts });
        prop_assert_eq!(labels.len(), points.len());
        for (i, p) in points.iter().enumerate() {
            let neighbours =
                points.iter().filter(|q| q.distance_m(*p) <= eps).count();
            if neighbours >= min_pts {
                prop_assert!(
                    labels[i] != ClusterLabel::Noise,
                    "core point {} with {} neighbours labelled noise",
                    i,
                    neighbours
                );
            }
        }
    }

    /// Two points in the same cluster are density-connected in the
    /// ε-graph restricted through core points — weaker but checkable:
    /// cluster ids are dense starting from zero.
    #[test]
    fn dbscan_cluster_ids_dense(points in arb_points(100), eps in 10.0f64..500.0) {
        let labels = dbscan(&points, DbscanParams { eps_m: eps, min_pts: 3 });
        let mut ids: Vec<u32> = labels.iter().filter_map(|l| l.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        for (expect, got) in ids.iter().enumerate() {
            prop_assert_eq!(*got, expect as u32);
        }
    }

    // ---------------- Polyline ----------------

    /// `point_at` is a contraction onto the path: the returned point is
    /// on the polyline (distance 0), and `project_point` of it returns
    /// (approximately) the queried arc length.
    #[test]
    fn polyline_point_at_round_trip(points in arb_points(40), frac in 0.0f64..1.0) {
        prop_assume!(points.len() >= 2);
        let pl = Polyline::new(points);
        prop_assume!(pl.length_m() > 1.0);
        let along = pl.length_m() * frac;
        let p = pl.point_at(along).unwrap();
        let d = pl.distance_to(p).unwrap();
        prop_assert!(d < 1e-6, "point_at landed {} m off the path", d);
    }

    // ---------------- Splicing ----------------

    /// A randomly segmented contiguous plan validates, covers exactly
    /// its range, and body samples are bit-exact with their sources.
    #[test]
    fn splice_contiguous_plans_validate(
        lens in prop::collection::vec(200u64..5_000, 1..8),
        fade in 0u32..50,
    ) {
        let mut segments = Vec::new();
        let mut cursor = 0u64;
        for (i, len) in lens.iter().enumerate() {
            let source = if i % 2 == 0 {
                SegmentSource::Live(LiveSource::new(1))
            } else {
                SegmentSource::Clip { source: ClipSource::new(i as u64, *len), offset: 0 }
            };
            segments.push(PlannedSegment { start: cursor, end: cursor + len, source });
            cursor += len;
        }
        let plan = SplicePlan::new(segments.clone(), fade).unwrap();
        prop_assert_eq!(plan.start(), 0);
        prop_assert_eq!(plan.end(), cursor);
        // Mid-segment samples match the source exactly.
        for seg in &segments {
            let mid = seg.start + (seg.end - seg.start) / 2;
            if mid >= seg.start + u64::from(fade) && mid + u64::from(fade) < seg.end {
                let expected = match seg.source {
                    SegmentSource::Live(s) => s.sample(mid),
                    SegmentSource::Clip { source, offset } => source.sample(offset + mid - seg.start),
                    _ => unreachable!(),
                };
                prop_assert_eq!(plan.sample_at(mid), expected);
            }
        }
    }

    /// Shuffling segment order away from contiguity is always rejected.
    #[test]
    fn splice_gaps_rejected(gap in 1u64..1_000) {
        let live = SegmentSource::Live(LiveSource::new(0));
        let plan = SplicePlan::new(
            vec![
                PlannedSegment { start: 0, end: 1_000, source: live },
                PlannedSegment { start: 1_000 + gap, end: 3_000 + gap, source: live },
            ],
            0,
        );
        prop_assert!(plan.is_err());
    }

    // ---------------- Time shift ----------------

    /// Any in-window read returns exactly the recorded stream.
    #[test]
    fn timeshift_reads_are_exact(
        capacity in 100usize..2_000,
        recorded in 100u64..5_000,
        start_frac in 0.0f64..1.0,
        len in 1usize..200,
    ) {
        let live = LiveSource::new(6);
        let mut buf = TimeShiftBuffer::new(live.id(), capacity, 0);
        buf.record_until(&live, recorded);
        let window = buf.newest() - buf.oldest();
        prop_assume!(window as usize >= len);
        let span = window - len as u64;
        let start = buf.oldest() + (span as f64 * start_frac) as u64;
        let mut out = vec![0.0f32; len];
        buf.read(start, &mut out).unwrap();
        for (i, &v) in out.iter().enumerate() {
            prop_assert_eq!(v, live.sample(start + i as u64));
        }
    }

    // ---------------- Preferences ----------------

    /// Scores stay in [-1, 1] under any event sequence, and decay moves
    /// them towards zero, never across it.
    #[test]
    fn preference_scores_bounded_and_decaying(
        events in prop::collection::vec((0u16..30, 0u8..5, 0u64..100_000), 1..60),
        gap in 1u64..10_000_000,
    ) {
        let mut store = FeedbackStore::default();
        let mut last_t = 0;
        for (cat, kind, dt) in &events {
            last_t += dt;
            let kind = match kind {
                0 => FeedbackKind::Like,
                1 => FeedbackKind::Dislike,
                2 => FeedbackKind::Skip,
                3 => FeedbackKind::ListenedThrough,
                _ => FeedbackKind::PartialListen(0.5),
            };
            store.record(FeedbackEvent {
                user: UserId(1),
                clip: None,
                category: CategoryId::new(*cat),
                kind,
                time: TimePoint(last_t),
            });
        }
        let now = TimePoint(last_t);
        let later = now.advance(TimeSpan::seconds(gap));
        let prefs_now = store.preferences(UserId(1), now);
        let prefs_later = store.preferences(UserId(1), later);
        for c in 0..30u16 {
            let a = prefs_now.score(CategoryId::new(c));
            let b = prefs_later.score(CategoryId::new(c));
            prop_assert!((-1.0..=1.0).contains(&a));
            prop_assert!(b.abs() <= a.abs() + 1e-12, "decay grew |{}| -> |{}|", a, b);
            prop_assert!(a * b >= 0.0 || b.abs() < 1e-12, "decay crossed zero");
        }
    }
}

// ---------------- Scheduler (non-proptest brute force comparison) -----

mod scheduler_props {
    use super::*;
    use pphcr::recommender::{DriveContext, ScheduledItem, SchedulerConfig, ScoredClip};
    use pphcr::trajectory::TripPrediction;

    fn drive(minutes: u64) -> DriveContext {
        let prediction = TripPrediction {
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
        };
        DriveContext::new(prediction, vec![])
    }

    fn clip(id: u64, seconds: u64, score: f64) -> ScoredClip {
        ScoredClip {
            clip: pphcr::audio::ClipId(id),
            duration: TimeSpan::seconds(seconds),
            score,
            content_score: score,
            context_score: score,
            geo_distance_m: None,
            along_route_m: None,
        }
    }

    fn overlaps(items: &[ScheduledItem]) -> bool {
        items.windows(2).any(|w| w[0].end_s() > w[1].start_s)
    }

    proptest! {
        /// The DP selection is optimal (vs brute force on ≤ 10 items),
        /// within budget, and the packed schedule never overlaps.
        #[test]
        fn dp_selection_is_optimal(
            specs in prop::collection::vec((60u64..900, 0.01f64..1.0), 1..10),
            trip_min in 8u64..40,
        ) {
            let clips: Vec<ScoredClip> = specs
                .iter()
                .enumerate()
                .map(|(i, (dur, score))| clip(i as u64, *dur, *score))
                .collect();
            let d = drive(trip_min);
            let cfg = SchedulerConfig { max_items: 10, ..Default::default() };
            let schedule = cfg.pack(&clips, &d, TimePoint::at(0, 8, 0, 0));
            prop_assert!(!overlaps(&schedule.items));
            let budget = d.delta_t().minus(cfg.reserve).as_seconds();
            prop_assert!(schedule.filled().as_seconds() <= budget);
            // Brute force on quantized durations (the DP quantizes to
            // 10 s blocks, so compare against the quantized optimum).
            let mut best = 0.0f64;
            for mask in 0u32..(1 << clips.len()) {
                let dur: u64 = clips
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, c)| c.duration.as_seconds().div_ceil(10) * 10)
                    .sum();
                if dur <= budget {
                    let score: f64 = clips
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| mask & (1 << i) != 0)
                        .map(|(_, c)| c.score)
                        .sum();
                    best = best.max(score);
                }
            }
            prop_assert!(
                schedule.total_score >= best - 1e-9,
                "dp {} < brute {}",
                schedule.total_score,
                best
            );
        }

        /// With distraction avoidance on, no boundary lands in a zone,
        /// whatever the zones are.
        #[test]
        fn boundaries_never_in_zones(
            zone_starts in prop::collection::vec(200.0f64..9_000.0, 0..5),
            n_clips in 1usize..8,
        ) {
            let zones: Vec<pphcr::geo::DistractionZone> = zone_starts
                .iter()
                .map(|&s| pphcr::geo::DistractionZone {
                    node: pphcr::geo::NodeId(0),
                    kind: pphcr::geo::NodeKind::Intersection,
                    start_m: s,
                    end_m: s + 80.0,
                })
                .collect();
            let prediction = TripPrediction {
                destination: 1,
                confidence: 0.9,
                total_duration: TimeSpan::minutes(22),
                remaining: TimeSpan::minutes(20),
                route_ahead: vec![
                    ProjectedPoint::new(0.0, 0.0),
                    ProjectedPoint::new(12_000.0, 0.0),
                ],
                complexity: 1.0,
                posterior: vec![(1, 0.9)],
            };
            let d = DriveContext::new(prediction, zones);
            let clips: Vec<ScoredClip> =
                (0..n_clips).map(|i| clip(i as u64, 180 + i as u64 * 60, 0.5)).collect();
            let cfg = SchedulerConfig::default();
            let schedule = cfg.pack(&clips, &d, TimePoint::at(0, 8, 0, 0));
            let windows = d.zone_windows();
            for item in &schedule.items {
                for &(a, b) in &windows {
                    prop_assert!(!(item.start_s >= a && item.start_s < b));
                    let e = item.end_s();
                    prop_assert!(!(e > a && e <= b));
                }
            }
            prop_assert!(!overlaps(&schedule.items));
        }
    }
}

// ---------------- Replacement timeline ----------------

mod timeline_props {
    use super::*;
    use pphcr::audio::{ClipId, ClipStore, SampleClock};
    use pphcr::catalog::{Schedule, ServiceIndex};
    use pphcr::core::ReplacementPlanner;

    proptest! {
        /// For any clip set that fits, the planned timeline is
        /// contiguous, displacement equals the clips' total duration,
        /// and the splice plan covers the session exactly.
        #[test]
        fn timeline_contiguous_and_displaced(
            clip_minutes in prop::collection::vec(1u64..20, 0..5),
            lead_min in 0u64..30,
            tail_min in 1u64..40,
        ) {
            let total_clip: u64 = clip_minutes.iter().sum();
            let mut store = ClipStore::new();
            let ids: Vec<ClipId> = clip_minutes
                .iter()
                .enumerate()
                .map(|(i, &m)| {
                    let id = ClipId(i as u64);
                    store.insert_simple(id, TimeSpan::minutes(m));
                    id
                })
                .collect();
            let start = TimePoint::at(0, 9, 0, 0);
            let insert = start.advance(TimeSpan::minutes(lead_min));
            let horizon = insert.advance(TimeSpan::minutes(total_clip + tail_min));
            let planner = ReplacementPlanner { clock: SampleClock::new(50), fade_samples: 10 };
            let (plan, timeline) = planner
                .plan(ServiceIndex(0), &store, &Schedule::new(), start, insert, &ids, horizon)
                .unwrap();
            prop_assert_eq!(timeline.displacement, TimeSpan::minutes(total_clip));
            for w in timeline.spans.windows(2) {
                prop_assert_eq!(w[0].interval.end, w[1].interval.start);
            }
            if let (Some(first), Some(last)) = (timeline.spans.first(), timeline.spans.last()) {
                prop_assert_eq!(first.interval.start, start);
                prop_assert_eq!(last.interval.end, horizon);
            }
            prop_assert_eq!(plan.start(), planner.clock.sample_at(start));
            prop_assert_eq!(plan.end(), planner.clock.sample_at(horizon));
        }
    }
}

// ---------------- Resilience: backoff & exactly-once ----------------

mod resilience {
    use super::*;
    use pphcr::catalog::ServiceIndex;
    use pphcr::core::{
        BackoffPolicy, Bus, BusMessage, ChaosRng, DeliveryTracker, Envelope, FaultProfile,
        FaultyTransport, Topic,
    };
    use pphcr::obs::Registry;

    proptest! {
        /// Without jitter the retry delay never shrinks between
        /// attempts and never exceeds the configured ceiling.
        #[test]
        fn backoff_delay_monotone_without_jitter(
            base_s in 1u64..60,
            factor in 1.0f64..4.0,
            max_s in 60u64..600,
            seed in 0u64..1_000,
        ) {
            let policy = BackoffPolicy {
                base: TimeSpan::seconds(base_s),
                factor,
                max_delay: TimeSpan::seconds(max_s),
                jitter_frac: 0.0,
                budget: 4,
            };
            let mut rng = ChaosRng::new(seed);
            let mut prev = TimeSpan::ZERO;
            for attempt in 1..=12u32 {
                let d = policy.delay_for(attempt, &mut rng);
                prop_assert!(d >= prev, "delay shrank at attempt {}: {:?} < {:?}", attempt, d, prev);
                prop_assert!(d <= policy.max_delay, "delay {:?} above ceiling", d);
                prev = d;
            }
        }

        /// Jitter only ever shortens the delay: the jittered value stays
        /// within `[(1 - jitter) * capped, capped]` up to rounding, with
        /// a one-second floor.
        #[test]
        fn backoff_jitter_bounded(
            attempt in 1u32..10,
            jitter in 0.0f64..1.0,
            seed in 0u64..1_000,
        ) {
            let policy = BackoffPolicy { jitter_frac: jitter, ..BackoffPolicy::default() };
            let mut rng = ChaosRng::new(seed);
            let capped = (policy.base.as_seconds() as f64
                * policy.factor.powi(attempt.saturating_sub(1).min(63) as i32))
                .min(policy.max_delay.as_seconds() as f64);
            let d = policy.delay_for(attempt, &mut rng).as_seconds() as f64;
            prop_assert!(d >= 1.0, "one-second floor violated: {}", d);
            prop_assert!(d <= capped + 0.5, "jitter lengthened the delay: {} > {}", d, capped);
            prop_assert!(
                d + 0.5 >= (1.0 - jitter) * capped,
                "jitter cut too deep: {} < {}", d, (1.0 - jitter) * capped
            );
        }

        /// A delivery that is never acknowledged is retried exactly
        /// `budget` times, then dead-lettered exactly once, leaving the
        /// ledger empty — the budget is never exceeded.
        #[test]
        fn retry_budget_never_exceeded(budget in 0u32..8, seed in 0u64..1_000) {
            let policy = BackoffPolicy { budget, ..BackoffPolicy::default() };
            let mut rng = ChaosRng::new(seed);
            let mut tracker = DeliveryTracker::new();
            let mut obs = Registry::new();
            let t0 = TimePoint::at(0, 9, 0, 0);
            let envelope = Envelope {
                message: BusMessage::Tuned { user: UserId(1), service: ServiceIndex(0) },
                published_at: t0,
                hops: 0,
                seq: 1,
            };
            tracker.register(UserId(1), envelope, t0, &policy, &mut rng, &mut obs);
            let mut now = t0;
            let (mut retries, mut dead) = (0u64, 0u64);
            for _ in 0..64 {
                // Stride past max_delay so every armed timer has fired.
                now = now.advance(TimeSpan::minutes(5));
                let (due, exhausted) = tracker.due_retries(now, &policy, &mut rng, &mut obs);
                retries += due.len() as u64;
                dead += exhausted.len() as u64;
            }
            prop_assert_eq!(retries, u64::from(budget));
            prop_assert_eq!(dead, 1);
            prop_assert_eq!(tracker.outstanding_count(), 0);
            prop_assert_eq!(tracker.retries(), u64::from(budget));
            prop_assert_eq!(obs.counter("retry.exhausted"), 1);
        }

        /// Duplication and reordering on the wire never defeat the
        /// seq-based duplicate filter of the engine's receive path
        /// (`seen`, `note_duplicate`, `mark_delivered`): with no loss,
        /// every published message is applied exactly once and every
        /// wire duplicate is filtered.
        #[test]
        fn bus_exactly_once_under_reorder_and_duplication(
            n in 1u64..40,
            dup in 0.0f64..0.9,
            reorder in 0.0f64..0.9,
            seed in 0u64..10_000,
        ) {
            let profile = FaultProfile {
                duplicate_rate: dup,
                reorder_rate: reorder,
                ..FaultProfile::none()
            };
            let mut bus = Bus::new();
            bus.set_transport(Box::new(FaultyTransport::new(profile, seed)));
            let mut tracker = DeliveryTracker::new();
            let t0 = TimePoint::at(0, 9, 0, 0);
            for u in 0..n {
                bus.publish(
                    Topic::Recommendation,
                    BusMessage::Tuned { user: UserId(u), service: ServiceIndex(0) },
                    t0.advance(TimeSpan::seconds(u)),
                );
            }
            let mut applied = std::collections::HashSet::new();
            for round in 0..4u64 {
                bus.advance_clock(t0.advance(TimeSpan::minutes(1 + round)));
                for env in bus.drain(Topic::Recommendation) {
                    if tracker.seen(env.seq) {
                        tracker.note_duplicate();
                        continue;
                    }
                    prop_assert!(applied.insert(env.seq), "seq {} applied twice", env.seq);
                    tracker.mark_delivered(env.seq);
                }
            }
            prop_assert_eq!(applied.len() as u64, n, "a message was lost without a drop fault");
            prop_assert_eq!(bus.pending(Topic::Recommendation), 0);
            prop_assert_eq!(
                tracker.duplicates_filtered(), bus.wire_stats().duplicated,
                "every wire duplicate is filtered, nothing else is"
            );
        }
    }
}
