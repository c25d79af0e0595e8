//! The experiment harness: one function per experiment in `DESIGN.md`.
//!
//! Each function reproduces one figure or claim of the paper and
//! returns printable rows. The `experiments` binary prints the E1–E12
//! tables recorded in `EXPERIMENTS.md`; `pphcr-bench` runs the E13
//! functions and gates on their rows.

use crate::corpus::CorpusGenerator;
use crate::listener::{ListenerModel, SessionMetrics};
use crate::population::{Commuter, GpsNoise, Population};
use crate::world::SyntheticCity;
use pphcr_audio::source::{ClipSource, LiveSource};
use pphcr_audio::splice::{PlannedSegment, SegmentSource, SplicePlan};
use pphcr_audio::SampleClock;
use pphcr_catalog::ServiceIndex;
use pphcr_catalog::{CategoryId, ClipKind, ContentRepository, CATEGORY_COUNT};
use pphcr_core::{
    CacheQuanta, DeliveryPlanKind, Engine, EngineConfig, EngineEvent, HealthCounts,
    NetworkCostModel, PlayerEvent, TickRequest,
};
use pphcr_geo::{GeoPoint, ProjectedPoint, TimePoint, TimeSpan};
use pphcr_nlp::{AsrConfig, NaiveBayes, SimulatedAsr, Vocabulary};
use pphcr_recommender::{
    baselines, Ambient, CandidateFilter, DriveContext, ListenerContext, Recommender, RetrievalPath,
    SchedulerConfig, ScoringWeights,
};
use pphcr_trajectory::model::ModelConfig;
use pphcr_trajectory::{rdp_indices, GpsFix, MobilityModel, Trace};
use pphcr_userdata::{AgeBand, FeedbackEvent, FeedbackKind, FeedbackStore, UserId, UserProfile};
use std::fmt;

// ---------------------------------------------------------------------
// E1 — Fig. 1: seamless replacement.
// ---------------------------------------------------------------------

/// One row of E1: seam quality for a clip length, faded vs hard cut.
#[derive(Debug, Clone, Copy)]
pub struct E1Row {
    /// Clip length, seconds.
    pub clip_s: u64,
    /// Samples rendered.
    pub samples: u64,
    /// Max seam jump with 20 ms fades.
    pub faded_jump: f32,
    /// Max seam jump with a hard cut.
    pub hard_jump: f32,
}

impl fmt::Display for E1Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "clip={:>4}s samples={:>9} faded_jump={:.4} hard_jump={:.4}",
            self.clip_s, self.samples, self.faded_jump, self.hard_jump
        )
    }
}

/// Builds the Fig. 1 replacement plan at `rate_hz` for one clip length.
#[must_use]
pub fn e1_replacement_plan(rate_hz: u32, clip_s: u64, fade_samples: u32) -> SplicePlan {
    let clock = SampleClock::new(rate_hz);
    let live = LiveSource::new(1);
    let lead = clock.samples_in(TimeSpan::seconds(30));
    let clip_len = clock.samples_in(TimeSpan::seconds(clip_s));
    let clip = ClipSource::new(7, clip_len);
    SplicePlan::new(
        vec![
            PlannedSegment { start: 0, end: lead, source: SegmentSource::Live(live) },
            PlannedSegment {
                start: lead,
                end: lead + clip_len,
                source: SegmentSource::Clip { source: clip, offset: 0 },
            },
            PlannedSegment {
                start: lead + clip_len,
                end: lead + clip_len + lead,
                source: SegmentSource::Live(live),
            },
        ],
        fade_samples,
    )
    .expect("static plan is valid")
}

/// E1: seam quality across clip lengths.
#[must_use]
pub fn e1_seam_quality(rate_hz: u32, clip_lengths_s: &[u64]) -> Vec<E1Row> {
    clip_lengths_s
        .iter()
        .map(|&clip_s| {
            let faded = e1_replacement_plan(rate_hz, clip_s, rate_hz / 50);
            let hard = e1_replacement_plan(rate_hz, clip_s, 0);
            let (_, fs) = faded.render(0, faded.end());
            let (_, hs) = hard.render(0, hard.end());
            E1Row {
                clip_s,
                samples: fs.samples,
                faded_jump: fs.max_seam_jump,
                hard_jump: hs.max_seam_jump,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// E2 — Fig. 2: proactive trip fill.
// ---------------------------------------------------------------------

/// One row of E2: a strategy's trip-fill quality.
#[derive(Debug, Clone)]
pub struct E2Row {
    /// Strategy name.
    pub strategy: String,
    /// Mean true-taste of scheduled items, `[-1, 1]`.
    pub mean_taste: f64,
    /// Mean ΔT fill ratio.
    pub fill_ratio: f64,
    /// Mean geo-tagged (route-relevant) items scheduled per trip.
    pub geo_items_per_trip: f64,
    /// Among scheduled geo-pinned items, the fraction whose playback
    /// covered the moment the driver passed the tagged location.
    pub geo_hit_rate: f64,
}

impl fmt::Display for E2Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<16} taste={:+.3} fill={:.2} geo_items/trip={:.2} pin_coverage={:.2}",
            self.strategy,
            self.mean_taste,
            self.fill_ratio,
            self.geo_items_per_trip,
            self.geo_hit_rate
        )
    }
}

/// The shared E2/E9 world: a city, commuters with learned preference
/// stores, and a repository with one day's batch.
pub struct TripWorld {
    /// The city.
    pub city: SyntheticCity,
    /// The population.
    pub population: Population,
    /// Clip metadata.
    pub repo: ContentRepository,
    /// Learned feedback (seeded from ground-truth tastes).
    pub feedback: FeedbackStore,
    /// Simulated "now".
    pub now: TimePoint,
}

/// Builds the E2/E9 world: each commuter's feedback store is warmed up
/// with events consistent with their ground-truth tastes (what the
/// platform would have learned from previous weeks).
#[must_use]
pub fn trip_world(n_commuters: usize, clips: usize, seed: u64) -> TripWorld {
    // Block size chosen so commutes run 6–16 minutes — the ΔT regime
    // of Fig. 2 (a morning drive worth filling with several items).
    let city = SyntheticCity::generate(16, 700.0, seed);
    let population = Population::generate(&city, n_commuters, seed ^ 1);
    let gen = CorpusGenerator::new(seed ^ 2);
    let mut repo = ContentRepository::new(city.projection);
    let batch = gen.daily_batch(&city, 10, clips, 0.15);
    for (i, clip) in batch.into_iter().enumerate() {
        repo.ingest(pphcr_catalog::ClipMetadata {
            id: pphcr_audio::ClipId(i as u64),
            title: clip.title,
            kind: clip.kind,
            category: clip.doc.category,
            category_confidence: 1.0,
            duration: clip.duration,
            published: clip.published,
            geo: clip.geo,
            transcript: Vec::new(),
        });
    }
    let mut feedback = FeedbackStore::default();
    let warm = TimePoint::at(10, 6, 0, 0);
    for commuter in &population.commuters {
        for (cat, &taste) in commuter.tastes.iter().enumerate() {
            let kind = if taste > 0.5 {
                FeedbackKind::Like
            } else if taste < -0.5 {
                FeedbackKind::Dislike
            } else {
                continue;
            };
            for _ in 0..3 {
                feedback.record(FeedbackEvent {
                    user: UserId(commuter.index),
                    clip: None,
                    category: CategoryId::new(cat as u16),
                    kind,
                    time: warm,
                });
            }
        }
    }
    TripWorld { city, population, repo, feedback, now: TimePoint::at(10, 8, 0, 0) }
}

/// A commuter's morning drive context over the synthetic city.
#[must_use]
pub fn morning_drive_context(world: &TripWorld, commuter: &Commuter) -> Option<ListenerContext> {
    let route = world.city.network.shortest_path(commuter.home, commuter.work)?;
    let polyline = world.city.network.route_polyline(&route);
    let zones = world.city.network.distraction_zones(&route);
    let prediction = pphcr_trajectory::TripPrediction {
        destination: 1,
        confidence: 0.85,
        total_duration: TimeSpan::seconds(route.travel_time_s.round() as u64),
        remaining: TimeSpan::seconds(route.travel_time_s.round() as u64),
        route_ahead: polyline.points().to_vec(),
        complexity: 2.0,
        posterior: vec![(1, 0.85)],
    };
    Some(ListenerContext {
        now: world.now,
        position: polyline.points().first().copied(),
        speed_mps: 11.0,
        drive: Some(DriveContext::new(prediction, zones)),
        ambient: Ambient::default(),
    })
}

/// E2: compare trip-fill strategies over the population.
#[must_use]
pub fn e2_trip_fill(world: &TripWorld) -> Vec<E2Row> {
    let strategies: Vec<(&str, f64)> =
        vec![("compound (PPHCR)", 0.55), ("content-only", 1.0), ("context-only", 0.0)];
    let mut rows = Vec::new();
    for (name, wc) in strategies {
        let recommender = Recommender {
            weights: ScoringWeights { content_weight: wc, ..Default::default() },
            filter: CandidateFilter::default(),
            scheduler: SchedulerConfig::default(),
        };
        rows.push(run_trip_strategy(world, name, &recommender, None));
    }
    // Popularity and random baselines reuse the same scheduler on their
    // own rankings.
    rows.push(run_trip_strategy(
        world,
        "popularity",
        &Recommender::default(),
        Some(Ranking::Popularity),
    ));
    rows.push(run_trip_strategy(world, "random", &Recommender::default(), Some(Ranking::Random)));
    rows
}

enum Ranking {
    Popularity,
    Random,
}

fn run_trip_strategy(
    world: &TripWorld,
    name: &str,
    recommender: &Recommender,
    override_ranking: Option<Ranking>,
) -> E2Row {
    let mut taste_sum = 0.0;
    let mut taste_n = 0u32;
    let mut fill_sum = 0.0;
    let mut trips = 0u32;
    let mut geo_scheduled = 0u32;
    let mut pinned_total = 0u32;
    let mut pinned_covered = 0u32;
    for commuter in &world.population.commuters {
        let Some(ctx) = morning_drive_context(world, commuter) else { continue };
        let ranked = match override_ranking {
            Some(Ranking::Popularity) => {
                baselines::popularity_ranking(&world.repo, &world.feedback)
            }
            Some(Ranking::Random) => baselines::random_ranking(&world.repo, commuter.index),
            None => recommender.rank(&world.repo, &world.feedback, UserId(commuter.index), &ctx),
        };
        // Clips whose geo tag lies near this route (route-relevant).
        let geo_near: std::collections::HashSet<_> =
            ranked.iter().filter(|c| c.along_route_m.is_some()).map(|c| c.clip).collect();
        let drive = ctx.drive.as_ref().expect("driving context");
        let schedule = recommender.scheduler.pack(&ranked, drive, world.now);
        trips += 1;
        fill_sum += schedule.fill_ratio();
        for item in &schedule.items {
            if let Some(meta) = world.repo.get(item.clip) {
                taste_sum += commuter.taste(meta.category.0);
                taste_n += 1;
            }
            if geo_near.contains(&item.clip) {
                geo_scheduled += 1;
            }
            if let Some(along) = item.pinned_along_m {
                pinned_total += 1;
                let eta = drive.eta_seconds(along);
                if item.start_s <= eta + 120 && item.end_s() + 120 >= eta {
                    pinned_covered += 1;
                }
            }
        }
    }
    E2Row {
        strategy: name.to_string(),
        mean_taste: if taste_n == 0 { 0.0 } else { taste_sum / f64::from(taste_n) },
        fill_ratio: if trips == 0 { 0.0 } else { fill_sum / f64::from(trips) },
        geo_items_per_trip: if trips == 0 {
            0.0
        } else {
            f64::from(geo_scheduled) / f64::from(trips)
        },
        geo_hit_rate: if pinned_total == 0 {
            0.0
        } else {
            f64::from(pinned_covered) / f64::from(pinned_total)
        },
    }
}

// ---------------------------------------------------------------------
// E3 — Fig. 3: pipeline throughput at paper scale.
// ---------------------------------------------------------------------

/// One row of E3: a pipeline stage's throughput.
#[derive(Debug, Clone)]
pub struct E3Row {
    /// Stage name.
    pub stage: String,
    /// Items processed.
    pub items: u64,
    /// Wall time, seconds.
    pub seconds: f64,
    /// Items per second.
    pub rate: f64,
}

impl fmt::Display for E3Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<22} items={:>6} time={:>8.3}s rate={:>10.1}/s",
            self.stage, self.items, self.seconds, self.rate
        )
    }
}

/// E3: run the full ingest→classify→recommend pipeline at paper scale
/// (10 services, `podcasts_per_day` clips, `users` listeners) and time
/// each stage.
#[must_use]
pub fn e3_pipeline(podcasts_per_day: usize, users: usize, seed: u64) -> Vec<E3Row> {
    let mut rows = Vec::new();
    let city = SyntheticCity::generate(12, 400.0, seed);
    let gen = CorpusGenerator::new(seed);
    let mut engine = Engine::new(EngineConfig::default());

    // Stage 1: classifier training (editorial ground truth).
    let t = crate::timing::stopwatch();
    let train = gen.training_set(8, 150);
    for doc in &train {
        engine.train_classifier(doc.category, &doc.tokens);
    }
    let dt = t.elapsed_s();
    rows.push(E3Row {
        stage: "train-classifier".into(),
        items: train.len() as u64,
        seconds: dt,
        rate: train.len() as f64 / dt.max(1e-9),
    });

    // Stage 2: ASR + classification + ingest of the day's batch.
    let batch = gen.daily_batch(&city, 0, podcasts_per_day, 0.15);
    let pool: Vec<String> = (0..100).map(|i| format!("common{i}")).collect();
    let mut asr = SimulatedAsr::new(AsrConfig { wer: 0.15, seed, ..Default::default() });
    let t = crate::timing::stopwatch();
    for clip in &batch {
        let transcript = asr.transcribe(&clip.doc.tokens, &pool);
        engine.ingest_clip(
            clip.title.clone(),
            clip.kind,
            clip.duration,
            clip.published,
            clip.geo,
            &transcript,
            None,
        );
    }
    let dt = t.elapsed_s();
    rows.push(E3Row {
        stage: "asr+classify+ingest".into(),
        items: batch.len() as u64,
        seconds: dt,
        rate: batch.len() as f64 / dt.max(1e-9),
    });

    // Stage 3: recommendation ranking for every listener.
    let population = Population::generate(&city, users, seed ^ 9);
    let now = TimePoint::at(0, 21, 0, 0);
    for commuter in &population.commuters {
        for (cat, &taste) in commuter.tastes.iter().enumerate() {
            if taste.abs() > 0.5 {
                engine.record_feedback(FeedbackEvent {
                    user: UserId(commuter.index),
                    clip: None,
                    category: CategoryId::new(cat as u16),
                    kind: if taste > 0.0 { FeedbackKind::Like } else { FeedbackKind::Dislike },
                    time: now,
                });
            }
        }
    }
    let recommender = Recommender::default();
    let t = crate::timing::stopwatch();
    let mut produced = 0u64;
    for commuter in &population.commuters {
        let ctx = ListenerContext::stationary(now);
        let ranked = recommender.rank(&engine.repo, &engine.feedback, UserId(commuter.index), &ctx);
        produced += ranked.len() as u64;
    }
    let dt = t.elapsed_s();
    rows.push(E3Row {
        stage: "rank-all-users".into(),
        items: users as u64,
        seconds: dt,
        rate: users as f64 / dt.max(1e-9),
    });
    let _ = produced;
    rows
}

// ---------------------------------------------------------------------
// E4 — Fig. 4: skip propensity with vs without personalization.
// ---------------------------------------------------------------------

/// One row of E4: a listening arm's behaviour metrics.
#[derive(Debug, Clone)]
pub struct E4Row {
    /// Arm name.
    pub arm: String,
    /// Aggregated metrics.
    pub metrics: SessionMetrics,
}

impl fmt::Display for E4Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<18} items={:>5} finished={:>5} skips={:>5} surfs={:>4} skip_rate={:.3}",
            self.arm,
            self.metrics.items,
            self.metrics.finished,
            self.metrics.skips,
            self.metrics.surfs,
            self.metrics.skip_rate()
        )
    }
}

/// E4: simulate `mornings` mornings × `n` commuters under linear radio
/// vs PPHCR. The PPHCR arm starts cold, explores (already-played clips
/// are excluded) and learns from every observed outcome. Metrics are
/// recorded only after a warm-up of `mornings / 3` mornings — the paper
/// compares the *steady state* experience, not the cold start.
#[must_use]
pub fn e4_skip_propensity(
    n: usize,
    mornings: u32,
    items_per_morning: u32,
    seed: u64,
) -> Vec<E4Row> {
    let world = trip_world(n, 400, seed);
    let warmup = mornings / 3;
    let mut linear = SessionMetrics::default();
    let mut pphcr = SessionMetrics::default();
    // The PPHCR arm starts cold and learns: its own feedback store.
    let mut learned = FeedbackStore::default();
    // The multi-week simulation reuses one catalogue batch, so the
    // freshness window must span the whole simulated period.
    let recommender = Recommender {
        filter: CandidateFilter { max_age: TimeSpan::hours(24 * 60), ..Default::default() },
        ..Default::default()
    };
    for (ci, commuter) in world.population.commuters.iter().enumerate() {
        let mut model_linear = ListenerModel::new(seed ^ ((ci as u64) << 1));
        let mut model_pphcr = ListenerModel::new(seed ^ ((ci as u64) << 1)); // same wobble
        let mut heard = std::collections::HashSet::new();
        for morning in 0..mornings {
            let now = TimePoint::at(10 + u64::from(morning), 8, 0, 0);
            let measuring = morning >= warmup;
            // Linear arm: whatever the station airs (seeded pseudo-random
            // categories — broadcast is one-size-fits-all).
            for k in 0..items_per_morning {
                let cat = ((seed as u32)
                    .wrapping_mul(2_654_435_761)
                    .wrapping_add(morning * 97 + k * 31 + ci as u32 * 13)
                    >> 7)
                    % u32::from(CATEGORY_COUNT);
                let outcome = model_linear.outcome(commuter, cat as u16);
                if measuring {
                    linear.record(outcome);
                }
            }
            // PPHCR arm: ranked clips under the learned profile,
            // excluding clips this listener already played.
            let ctx = ListenerContext::stationary(now);
            let prefs = learned.preferences(UserId(commuter.index), now);
            let ranked = recommender.filter.candidates_excluding(
                &world.repo,
                &prefs,
                &ctx,
                &recommender.weights,
                &heard,
            );
            for item in ranked.iter().take(items_per_morning as usize) {
                let Some(meta) = world.repo.get(item.clip) else { continue };
                heard.insert(item.clip);
                let outcome = model_pphcr.outcome(commuter, meta.category.0);
                if measuring {
                    pphcr.record(outcome);
                }
                // The platform learns from what it observed.
                let kind = match outcome {
                    crate::listener::ListeningOutcome::LikedIt => FeedbackKind::Like,
                    crate::listener::ListeningOutcome::ListenedThrough => {
                        FeedbackKind::ListenedThrough
                    }
                    crate::listener::ListeningOutcome::Skipped { .. } => FeedbackKind::Skip,
                    // Driving the listener off the channel is the worst
                    // outcome the paper cares about: strongest signal.
                    crate::listener::ListeningOutcome::Surfed => FeedbackKind::Dislike,
                };
                learned.record(FeedbackEvent {
                    user: UserId(commuter.index),
                    clip: Some(item.clip),
                    category: meta.category,
                    kind,
                    time: now,
                });
            }
        }
    }
    vec![
        E4Row { arm: "linear-radio".into(), metrics: linear },
        E4Row { arm: "pphcr".into(), metrics: pphcr },
    ]
}

// ---------------------------------------------------------------------
// E5 — Fig. 5: trajectory compaction.
// ---------------------------------------------------------------------

/// One row of E5: RDP compaction at one tolerance.
#[derive(Debug, Clone, Copy)]
pub struct E5Row {
    /// RDP ε, meters.
    pub epsilon_m: f64,
    /// Raw fixes.
    pub raw_points: usize,
    /// Kept vertices.
    pub kept_points: usize,
    /// Compression ratio.
    pub ratio: f64,
    /// Max deviation of dropped points from the simplified path, m.
    pub max_error_m: f64,
}

impl fmt::Display for E5Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "eps={:>6.1}m raw={:>6} kept={:>5} ratio={:>7.1}x max_err={:>6.2}m",
            self.epsilon_m, self.raw_points, self.kept_points, self.ratio, self.max_error_m
        )
    }
}

/// E5 summary of staying-point recovery.
#[derive(Debug, Clone)]
pub struct E5Stays {
    /// Staying points found.
    pub found: usize,
    /// Distance from the best staying point to the true home, m.
    pub home_error_m: f64,
    /// Distance from the second staying point to the true work, m.
    pub work_error_m: f64,
    /// Trips compacted.
    pub trips: usize,
    /// Route profiles discovered.
    pub profiles: usize,
}

impl fmt::Display for E5Stays {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stays={} home_err={:.0}m work_err={:.0}m trips={} profiles={}",
            self.found, self.home_error_m, self.work_error_m, self.trips, self.profiles
        )
    }
}

/// E5: run the compaction pipeline on `days` days of one commuter.
#[must_use]
pub fn e5_trajectory(days: u64, epsilons: &[f64], seed: u64) -> (Vec<E5Row>, E5Stays) {
    let city = SyntheticCity::generate(12, 400.0, seed);
    let pop = Population::generate(&city, 1, seed ^ 3);
    let commuter = &pop.commuters[0];
    let mut fixes = Vec::new();
    // Dense 5-second fixes: the volume regime that forces the paper's
    // tracking DB to "periodically process and simplify".
    let noise = GpsNoise { cadence_s: 5, ..Default::default() };
    for day in 0..days {
        fixes.extend(pop.day_trace(&city, commuter, day, noise));
    }
    let trace = Trace::from_fixes(fixes);
    let raw = trace.len();
    // RDP sweep over the drive fixes only (ε applies to the path).
    let driving: Vec<pphcr_geo::ProjectedPoint> = trace
        .fixes()
        .iter()
        .filter(|f| f.speed_mps > 2.0)
        .map(|f| city.projection.project(f.point))
        .collect();
    let rows = epsilons
        .iter()
        .map(|&eps| {
            let kept_idx = rdp_indices(&driving, eps);
            let kept: Vec<pphcr_geo::ProjectedPoint> =
                kept_idx.iter().map(|&i| driving[i]).collect();
            let pl = pphcr_geo::Polyline::new(kept.clone());
            let max_error_m =
                driving.iter().map(|p| pl.distance_to(*p).unwrap_or(0.0)).fold(0.0f64, f64::max);
            E5Row {
                epsilon_m: eps,
                raw_points: driving.len(),
                kept_points: kept.len(),
                ratio: driving.len() as f64 / kept.len().max(1) as f64,
                max_error_m,
            }
        })
        .collect();
    // Staying points and profiles.
    let model = MobilityModel::build(&trace, &city.projection, &ModelConfig::default());
    let home = city.network.node(commuter.home).pos;
    let work = city.network.node(commuter.work).pos;
    let err = |target: pphcr_geo::ProjectedPoint| {
        model
            .stay_points
            .iter()
            .map(|s| city.projection.project(s.center).distance_m(target))
            .fold(f64::INFINITY, f64::min)
    };
    let stays = E5Stays {
        found: model.stay_points.len(),
        home_error_m: err(home),
        work_error_m: err(work),
        trips: model.trips.len(),
        profiles: model.profiles.len(),
    };
    let _ = raw;
    (rows, stays)
}

// ---------------------------------------------------------------------
// E6 — Fig. 6: editorial injection.
// ---------------------------------------------------------------------

/// The E6 report.
#[derive(Debug, Clone)]
pub struct E6Report {
    /// Bus hops from editor submission to player queue.
    pub hops: u32,
    /// Engine ticks until delivery.
    pub ticks_to_delivery: u32,
    /// True when the injected clip played before organic content.
    pub played_first: bool,
}

impl fmt::Display for E6Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hops={} ticks_to_delivery={} played_first={}",
            self.hops, self.ticks_to_delivery, self.played_first
        )
    }
}

/// E6: inject a clip and measure its delivery path.
#[must_use]
pub fn e6_injection(seed: u64) -> E6Report {
    let mut engine = Engine::new(EngineConfig::default());
    let t0 = TimePoint::at(0, 9, 0, 0);
    engine.register_user(
        UserProfile {
            id: UserId(1),
            name: "target".into(),
            age_band: AgeBand::Adult,
            favourite_service: ServiceIndex(0),
        },
        t0,
    );
    // Organic content.
    for i in 0..5u64 {
        engine.ingest_clip(
            format!("organic {i}"),
            ClipKind::Podcast,
            TimeSpan::minutes(5),
            t0,
            None,
            &[],
            Some(CategoryId::new((seed % 30) as u16)),
        );
    }
    let (injected, _) = engine.ingest_clip(
        "editorial pick",
        ClipKind::Podcast,
        TimeSpan::minutes(4),
        t0,
        None,
        &[],
        Some(CategoryId::new(2)),
    );
    let _ = engine.inject(UserId(1), injected, t0, "demo injection");
    let mut hops = 0;
    let mut ticks = 0;
    for i in 1..=5u32 {
        let now = t0.advance(TimeSpan::seconds(u64::from(i) * 10));
        let events = engine.run_tick(&TickRequest::single(&UserId(1), now)).unwrap_or_default();
        if let Some(EngineEvent::InjectionDelivered { hops: h, .. }) =
            events.iter().find(|e| matches!(e, EngineEvent::InjectionDelivered { .. }))
        {
            hops = *h;
            ticks = i;
            break;
        }
    }
    // Does it play before organic content? Trigger a skip-driven session.
    let now = t0.advance(TimeSpan::minutes(2));
    let events = engine.advance_player(UserId(1), now).unwrap_or_default();
    let played_first = events
        .iter()
        .any(|e| matches!(e, pphcr_core::PlayerEvent::ClipStarted(c) if *c == injected));
    E6Report { hops, ticks_to_delivery: ticks, played_first }
}

// ---------------------------------------------------------------------
// E7 — network resource optimization.
// ---------------------------------------------------------------------

/// One row of E7.
#[derive(Debug, Clone, Copy)]
pub struct E7Row {
    /// The plan.
    pub plan: DeliveryPlanKind,
    /// Audience size.
    pub listeners: u64,
    /// Total megabytes moved.
    pub total_mb: f64,
    /// Unicast megabytes per listener.
    pub unicast_mb_per_listener: f64,
}

impl fmt::Display for E7Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<14} n={:>8} total={:>12.1}MB unicast/listener={:>8.2}MB",
            self.plan.to_string(),
            self.listeners,
            self.total_mb,
            self.unicast_mb_per_listener
        )
    }
}

/// E7: traffic for every plan across audience sizes, plus crossover
/// audiences per personalized fraction.
#[must_use]
pub fn e7_netcost(
    audiences: &[u64],
    personalized_fraction: f64,
    listen: TimeSpan,
) -> (Vec<E7Row>, Vec<(f64, Option<u64>)>) {
    let model = NetworkCostModel::default();
    let mut rows = Vec::new();
    for &n in audiences {
        for plan in
            [DeliveryPlanKind::AllBroadcast, DeliveryPlanKind::AllIp, DeliveryPlanKind::Hybrid]
        {
            let r = model.traffic(plan, n, listen, personalized_fraction);
            rows.push(E7Row {
                plan,
                listeners: n,
                total_mb: r.total_bytes() as f64 / 1e6,
                unicast_mb_per_listener: r.unicast_per_listener() / 1e6,
            });
        }
    }
    let crossovers = [0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 1.0]
        .iter()
        .map(|&p| (p, model.hybrid_crossover(listen, p, 1_000_000)))
        .collect();
    (rows, crossovers)
}

// ---------------------------------------------------------------------
// E8 — classifier accuracy vs WER and training size.
// ---------------------------------------------------------------------

/// One row of E8.
#[derive(Debug, Clone, Copy)]
pub struct E8Row {
    /// ASR word-error rate applied to test transcripts.
    pub wer: f64,
    /// Training documents per category.
    pub train_per_category: usize,
    /// Test accuracy in `[0, 1]`.
    pub accuracy: f64,
}

impl fmt::Display for E8Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "wer={:.2} train/cat={:>3} accuracy={:.3}",
            self.wer, self.train_per_category, self.accuracy
        )
    }
}

/// E8: classifier accuracy over a WER × training-size grid.
#[must_use]
pub fn e8_classifier(
    wers: &[f64],
    train_sizes: &[usize],
    test_per_category: usize,
    seed: u64,
) -> Vec<E8Row> {
    let gen = CorpusGenerator::new(seed);
    // The ASR confusion pool is the recognizer's whole language model:
    // mishearing a word yields another *real* word, frequently one that
    // is evidence for a different category. This is what actually makes
    // WER hurt classification.
    let mut pool: Vec<String> = (0..50).map(|i| format!("common{i}")).collect();
    for c in CategoryId::all() {
        for r in 0..10 {
            pool.push(CorpusGenerator::category_word(c, r));
        }
    }
    let mut rows = Vec::new();
    for &train_per_category in train_sizes {
        // Train on clean editorial text.
        let mut vocab = Vocabulary::new();
        let mut nb = NaiveBayes::new(u32::from(CATEGORY_COUNT), 1.0);
        for doc in gen.training_set(train_per_category, 150) {
            let ids = vocab.intern_all(&doc.tokens);
            nb.train(u32::from(doc.category.0), &ids);
        }
        for &wer in wers {
            let mut asr =
                SimulatedAsr::new(AsrConfig { wer, seed: seed ^ 77, ..Default::default() });
            let mut correct = 0u32;
            let mut total = 0u32;
            for c in CategoryId::all() {
                for k in 0..test_per_category {
                    // Short bulletins (~15 s of speech) — the regime
                    // where ASR noise actually bites.
                    let doc = gen.document(c, 25, 5_000_000 + u64::from(c.0) * 1_000 + k as u64);
                    let noisy = asr.transcribe(&doc.tokens, &pool);
                    if let Some(pred) = nb.predict_tokens(&vocab, &noisy) {
                        total += 1;
                        if pred.category == u32::from(c.0) {
                            correct += 1;
                        }
                    }
                }
            }
            rows.push(E8Row {
                wer,
                train_per_category,
                accuracy: f64::from(correct) / f64::from(total.max(1)),
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------
// E9 — compound-weight ablation.
// ---------------------------------------------------------------------

/// One row of E9.
#[derive(Debug, Clone, Copy)]
pub struct E9Row {
    /// Content weight `w_c`.
    pub content_weight: f64,
    /// Mean true taste of scheduled items.
    pub mean_taste: f64,
    /// Mean geo-relevant items scheduled per trip.
    pub geo_items_per_trip: f64,
    /// Simulated skip rate over the scheduled items.
    pub skip_rate: f64,
}

impl fmt::Display for E9Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "w_c={:.2} taste={:+.3} geo_items/trip={:.2} skip_rate={:.3}",
            self.content_weight, self.mean_taste, self.geo_items_per_trip, self.skip_rate
        )
    }
}

/// E9: sweep the content/context weight.
#[must_use]
pub fn e9_weight_sweep(world: &TripWorld, weights: &[f64]) -> Vec<E9Row> {
    let mut rows = Vec::new();
    for &wc in weights {
        let recommender = Recommender {
            weights: ScoringWeights { content_weight: wc, ..Default::default() },
            filter: CandidateFilter::default(),
            scheduler: SchedulerConfig::default(),
        };
        let row = run_trip_strategy(world, "sweep", &recommender, None);
        // Skip rate under the behaviour model.
        let mut metrics = SessionMetrics::default();
        for commuter in &world.population.commuters {
            let Some(ctx) = morning_drive_context(world, commuter) else { continue };
            let ranked =
                recommender.rank(&world.repo, &world.feedback, UserId(commuter.index), &ctx);
            let drive = ctx.drive.as_ref().expect("driving");
            let schedule = recommender.scheduler.pack(&ranked, drive, world.now);
            let mut lm = ListenerModel::new(commuter.index ^ 0xE9);
            for item in &schedule.items {
                if let Some(meta) = world.repo.get(item.clip) {
                    metrics.record(lm.outcome(commuter, meta.category.0));
                }
            }
        }
        rows.push(E9Row {
            content_weight: wc,
            mean_taste: row.mean_taste,
            geo_items_per_trip: row.geo_items_per_trip,
            skip_rate: metrics.skip_rate(),
        });
    }
    rows
}

// ---------------------------------------------------------------------
// E10 — distraction-constraint ablation.
// ---------------------------------------------------------------------

/// One row of E10.
#[derive(Debug, Clone)]
pub struct E10Row {
    /// Arm name.
    pub arm: String,
    /// Item boundaries falling inside distraction zones (total).
    pub zone_violations: u32,
    /// Mean schedule relevance.
    pub mean_score: f64,
    /// Mean fill ratio.
    pub fill_ratio: f64,
}

impl fmt::Display for E10Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<22} violations={:>4} score={:.3} fill={:.2}",
            self.arm, self.zone_violations, self.mean_score, self.fill_ratio
        )
    }
}

/// E10: schedules with and without the distraction constraint.
#[must_use]
pub fn e10_distraction(world: &TripWorld) -> Vec<E10Row> {
    let mut rows = Vec::new();
    for (arm, avoid) in [("distraction-aware", true), ("unconstrained", false)] {
        let recommender = Recommender {
            scheduler: SchedulerConfig { avoid_distraction: avoid, ..Default::default() },
            ..Default::default()
        };
        let mut violations = 0u32;
        let mut score_sum = 0.0;
        let mut fill_sum = 0.0;
        let mut trips = 0u32;
        for commuter in &world.population.commuters {
            let Some(ctx) = morning_drive_context(world, commuter) else { continue };
            let drive = ctx.drive.as_ref().expect("driving");
            let ranked =
                recommender.rank(&world.repo, &world.feedback, UserId(commuter.index), &ctx);
            let schedule = recommender.scheduler.pack(&ranked, drive, world.now);
            let zones = drive.zone_windows();
            for item in &schedule.items {
                for &(a, b) in &zones {
                    if item.start_s > a && item.start_s < b {
                        violations += 1;
                    }
                    let e = item.end_s();
                    if e > a && e < b {
                        violations += 1;
                    }
                }
            }
            score_sum += schedule.total_score;
            fill_sum += schedule.fill_ratio();
            trips += 1;
        }
        rows.push(E10Row {
            arm: arm.to_string(),
            zone_violations: violations,
            mean_score: if trips == 0 { 0.0 } else { score_sum / f64::from(trips) },
            fill_ratio: if trips == 0 { 0.0 } else { fill_sum / f64::from(trips) },
        });
    }
    rows
}

// ---------------------------------------------------------------------
// E11 — ensemble effect of the recommendation list (paper §3 future
// work).
// ---------------------------------------------------------------------

/// One row of E11: the relevance/variety trade at one MMR λ.
#[derive(Debug, Clone, Copy)]
pub struct E11Row {
    /// MMR λ (1 = pure relevance, 0 = pure variety).
    pub lambda: f64,
    /// Mean relevance of the produced lists.
    pub mean_score: f64,
    /// Mean category entropy of the lists, bits.
    pub entropy_bits: f64,
    /// Mean distinct categories per list.
    pub distinct_categories: f64,
}

impl fmt::Display for E11Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "lambda={:.2} score={:.3} entropy={:.2}bits distinct={:.1}",
            self.lambda, self.mean_score, self.entropy_bits, self.distinct_categories
        )
    }
}

/// E11: sweep the MMR diversity parameter over the population's
/// morning lists (top `k` of each ranking).
#[must_use]
pub fn e11_ensemble(world: &TripWorld, lambdas: &[f64], k: usize) -> Vec<E11Row> {
    use pphcr_recommender::{category_entropy, diversify};
    let recommender = Recommender::default();
    let mut rows = Vec::new();
    for &lambda in lambdas {
        let mut score_sum = 0.0;
        let mut entropy_sum = 0.0;
        let mut distinct_sum = 0.0;
        let mut lists = 0u32;
        for commuter in &world.population.commuters {
            let Some(ctx) = morning_drive_context(world, commuter) else { continue };
            let ranked =
                recommender.rank(&world.repo, &world.feedback, UserId(commuter.index), &ctx);
            let list = diversify(&ranked, &world.repo, lambda, k);
            if list.is_empty() {
                continue;
            }
            score_sum += list.iter().map(|c| c.score).sum::<f64>() / list.len() as f64;
            entropy_sum += category_entropy(&list, &world.repo);
            let distinct: std::collections::HashSet<u16> =
                list.iter().filter_map(|c| world.repo.get(c.clip).map(|m| m.category.0)).collect();
            distinct_sum += distinct.len() as f64;
            lists += 1;
        }
        let n = f64::from(lists.max(1));
        rows.push(E11Row {
            lambda,
            mean_score: score_sum / n,
            entropy_bits: entropy_sum / n,
            distinct_categories: distinct_sum / n,
        });
    }
    rows
}

// ---------------------------------------------------------------------
// E12 — chaos resilience: delivery under a hostile network.
// ---------------------------------------------------------------------

/// One row of E12: end-to-end delivery outcomes for one chaos profile.
#[derive(Debug, Clone)]
pub struct E12Row {
    /// The chaos profile name.
    pub profile: String,
    /// Editorial injections submitted.
    pub submitted: u64,
    /// Injections that reached a player queue.
    pub delivered: u64,
    /// Injections abandoned to the dead-letter store.
    pub dead_lettered: u64,
    /// Delivery retries performed.
    pub retries: u64,
    /// Wire duplicates filtered before application.
    pub duplicates_filtered: u64,
    /// Messages lost on the wire.
    pub wire_dropped: u64,
    /// Final listener count per ladder rung.
    pub health: HealthCounts,
}

impl fmt::Display for E12Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<14} submitted={:>3} delivered={:>3} dead={:>3} retries={:>4} dups={:>3} \
             dropped={:>4} health=({}/{}/{})",
            self.profile,
            self.submitted,
            self.delivered,
            self.dead_lettered,
            self.retries,
            self.duplicates_filtered,
            self.wire_dropped,
            self.health.healthy,
            self.health.degraded,
            self.health.broadcast_only,
        )
    }
}

/// E12: submits a stream of editorial injections to a small listener
/// population under each chaos profile and measures what the
/// resilience layer does about it: retries, duplicate filtering,
/// dead-lettering and the final degradation-ladder mix. Every delivery
/// is accounted for — applied exactly once or dead-lettered, never
/// lost silently.
#[must_use]
pub fn e12_resilience(users: u64, injections_per_user: u64, seed: u64) -> Vec<E12Row> {
    let profiles = [crate::chaos::ChaosProfile::calm(), crate::chaos::ChaosProfile::lossy_mobile()];
    let mut rows = Vec::new();
    for profile in &profiles {
        let mut engine = Engine::new(EngineConfig::default());
        profile.apply(&mut engine, seed);
        let t0 = TimePoint::at(0, 9, 0, 0);
        for u in 1..=users {
            engine.register_user(
                UserProfile {
                    id: UserId(u),
                    name: format!("listener {u}"),
                    age_band: AgeBand::Adult,
                    favourite_service: ServiceIndex(0),
                },
                t0,
            );
        }
        let mut clips = Vec::new();
        for i in 0..(users * injections_per_user) {
            let (clip, _) = engine.ingest_clip(
                format!("push {i}"),
                ClipKind::Podcast,
                TimeSpan::minutes(3),
                t0,
                None,
                &[],
                Some(CategoryId::new((i % 30) as u16)),
            );
            clips.push(clip);
        }
        let mut submitted = 0u64;
        let mut delivered = 0u64;
        let mut clip_iter = clips.into_iter();
        let user_ids: Vec<UserId> = (1..=users).map(UserId).collect();
        // Interleave submissions with ticks over a long horizon so
        // retries and backoff timers get to fire. Population steps go
        // through the batch path (bit-identical to per-user ticks).
        for step in 0..240u64 {
            let now = t0.advance(TimeSpan::seconds(step * 30));
            if step % 8 == 0 {
                for u in 1..=users {
                    if let Some(clip) = clip_iter.next() {
                        if engine.inject(UserId(u), clip, now, "e12").is_ok() {
                            submitted += 1;
                        }
                    }
                }
            }
            let events = engine.run_tick(&TickRequest::batch(&user_ids, now)).unwrap_or_default();
            delivered += events
                .iter()
                .filter(|e| matches!(e, EngineEvent::InjectionDelivered { .. }))
                .count() as u64;
        }
        let dead_lettered = engine
            .bus
            .dead_letters()
            .iter()
            .filter(|d| {
                d.reason == pphcr_core::DeadLetterReason::RetryBudgetExhausted
                    && matches!(d.envelope.message, pphcr_core::BusMessage::Inject { .. })
            })
            .count() as u64;
        rows.push(E12Row {
            profile: profile.name.to_string(),
            submitted,
            delivered,
            dead_lettered,
            retries: engine.delivery.retries(),
            duplicates_filtered: engine.delivery.duplicates_filtered(),
            wire_dropped: engine.bus.wire_stats().dropped,
            health: engine.health_counts(),
        });
    }
    rows
}

// ---------------------------------------------------------------------
// E13 — retrieval index + sharded batch ticks: throughput.
// ---------------------------------------------------------------------

/// One row of E13's retrieval half: the reference linear scan vs the
/// posting-list index, ranking every listener over one archive size.
#[derive(Debug, Clone, Copy)]
pub struct E13Row {
    /// Archive size, clips.
    pub clips: usize,
    /// Listeners ranked.
    pub users: usize,
    /// Linear-scan wall time, seconds (min of the post-warmup passes).
    pub scan_s: f64,
    /// Production-dispatch wall time, seconds (min of the post-warmup
    /// passes) — the walk named by `dispatch`, not always the index.
    pub indexed_s: f64,
    /// `scan_s / indexed_s`.
    pub speedup: f64,
    /// Total candidates produced (identical on both paths).
    pub candidates: u64,
    /// The walk the production dispatch actually ran for this archive
    /// size; below `scan_below` the "indexed" column is the scan
    /// fallback and a ~1.0x "speedup" is the expected, correct result.
    pub dispatch: RetrievalPath,
}

impl fmt::Display for E13Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "clips={:>6} users={:>5} scan={:>8.3}s dispatched={:>8.3}s ({}) speedup={:>6.1}x \
             cands={}",
            self.clips,
            self.users,
            self.scan_s,
            self.indexed_s,
            self.dispatch,
            self.speedup,
            self.candidates
        )
    }
}

/// One row of E13's engine half: a full batched morning-commute window
/// at one worker count.
#[derive(Debug, Clone, Copy)]
pub struct E13TickRow {
    /// Commuters ticked.
    pub users: u64,
    /// Worker threads used by the batched tick.
    pub workers: usize,
    /// Wall time for the whole window, seconds.
    pub seconds: f64,
    /// User-ticks per second.
    pub user_ticks_per_s: f64,
    /// Events emitted (must not vary with the worker count).
    pub events: u64,
}

impl fmt::Display for E13TickRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "users={:>5} workers={:>2} time={:>7.3}s ticks/s={:>9.1} events={}",
            self.users, self.workers, self.seconds, self.user_ticks_per_s, self.events
        )
    }
}

/// Builds the E13 world: `trip_world`'s city and population, but the
/// repository holds a deep archive — ~20 clips/day accumulated over
/// `clips / 20` days — of which only the freshness window is live, and
/// a small fraction carries geo tags. The linear scan still pays for
/// every archived clip on every request; that asymmetry is what the
/// posting index removes.
#[must_use]
pub fn e13_archive_world(clips: usize, users: usize, seed: u64) -> TripWorld {
    let city = SyntheticCity::generate(16, 700.0, seed);
    let population = Population::generate(&city, users, seed ^ 1);
    let archive_days = (clips as u64 / 20).max(14);
    let now = TimePoint::at(archive_days, 8, 0, 0);
    let mut repo = ContentRepository::new(city.projection);
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    };
    for i in 0..clips {
        // Even spread over the archive, newest ~2 h old.
        let age_h = 2 + (i as u64 * (archive_days * 24 - 4)) / clips.max(1) as u64;
        let geo = if next() % 64 == 0 {
            let dx = (next() % 12_000) as f64 - 6_000.0;
            let dy = (next() % 12_000) as f64 - 6_000.0;
            Some(pphcr_catalog::GeoTag {
                point: city.projection.unproject(ProjectedPoint::new(dx, dy)),
                radius_m: 400.0,
            })
        } else {
            None
        };
        repo.ingest(pphcr_catalog::ClipMetadata {
            id: pphcr_audio::ClipId(i as u64),
            title: format!("archive clip {i}"),
            kind: ClipKind::Podcast,
            category: CategoryId::new((next() % u64::from(CATEGORY_COUNT)) as u16),
            category_confidence: 1.0,
            duration: TimeSpan::minutes(3 + next() % 20),
            published: now.rewind(TimeSpan::hours(age_h)),
            geo,
            transcript: Vec::new(),
        });
    }
    let mut feedback = FeedbackStore::default();
    let warm = now.rewind(TimeSpan::hours(2));
    for commuter in &population.commuters {
        for (cat, &taste) in commuter.tastes.iter().enumerate() {
            let kind = if taste > 0.5 {
                FeedbackKind::Like
            } else if taste < -0.5 {
                FeedbackKind::Dislike
            } else {
                continue;
            };
            for _ in 0..3 {
                feedback.record(FeedbackEvent {
                    user: UserId(commuter.index),
                    clip: None,
                    category: CategoryId::new(cat as u16),
                    kind,
                    time: warm,
                });
            }
        }
    }
    TripWorld { city, population, repo, feedback, now }
}

/// E13 (retrieval): ranks every listener's morning drive against the
/// archive twice — reference linear scan, then the posting-list index —
/// timing each pass. Both paths must agree on the candidate count here;
/// the property suite pins down bit-identical contents.
///
/// Each pass runs `1 + rounds` times — the first discarded as warmup,
/// the minimum of the rest reported — so allocator warm-up and cold
/// caches cannot contaminate the comparison. The "indexed" column
/// times the production dispatch ([`CandidateFilter::candidates_indexed`]
/// including its `scan_below` fallback); the row's `dispatch` field
/// records which walk that actually was.
#[must_use]
pub fn e13_retrieval(grid: &[(usize, usize)], seed: u64, rounds: usize) -> Vec<E13Row> {
    let mut rows = Vec::new();
    for &(clips, users) in grid {
        let world = e13_archive_world(clips, users, seed);
        let filter = CandidateFilter::default();
        let weights = ScoringWeights::default();
        let jobs: Vec<_> = world
            .population
            .commuters
            .iter()
            .map(|c| {
                let prefs = world.feedback.preferences(UserId(c.index), world.now);
                let ctx = morning_drive_context(&world, c)
                    .unwrap_or_else(|| ListenerContext::stationary(world.now));
                (prefs, ctx)
            })
            .collect();
        let mut scan_cands = 0u64;
        let scan_s = crate::timing::sample_min_s(1, rounds, || {
            scan_cands = 0;
            for (prefs, ctx) in &jobs {
                scan_cands += filter.candidates(&world.repo, prefs, ctx, &weights).len() as u64;
            }
        });
        let mut indexed_cands = 0u64;
        let indexed_s = crate::timing::sample_min_s(1, rounds, || {
            indexed_cands = 0;
            for (prefs, ctx) in &jobs {
                indexed_cands +=
                    filter.candidates_indexed(&world.repo, prefs, ctx, &weights).len() as u64;
            }
        });
        assert_eq!(scan_cands, indexed_cands, "index diverged from scan at {clips} clips");
        rows.push(E13Row {
            clips,
            users,
            scan_s,
            indexed_s,
            speedup: scan_s / indexed_s.max(1e-9),
            candidates: indexed_cands,
            dispatch: filter.retrieval_path(world.repo.len()),
        });
    }
    rows
}

/// The E13 city anchor the fleet builders grow their commutes from.
pub(crate) const ORIGIN: GeoPoint = GeoPoint { lat: 45.0703, lon: 7.6869 };

/// An engine with `users` commuters, each with seven days of
/// home→work→home history on their own bearing, plus a fresh batch of
/// content for day 8. Deterministic: rebuilt identically per worker
/// count so only speed may differ between rows.
fn e13_commuter_fleet(users: u64, config: EngineConfig) -> Engine {
    let mut engine = Engine::new(config);
    let t0 = TimePoint::at(0, 0, 0, 0);
    for u in 1..=users {
        engine.register_user(
            UserProfile {
                id: UserId(u),
                name: format!("commuter {u}"),
                age_band: AgeBand::Adult,
                favourite_service: ServiceIndex(0),
            },
            t0,
        );
    }
    for u in 1..=users {
        let home = ORIGIN.destination(30.0 * u as f64, 1_500.0 * u as f64);
        let bearing = 80.0 + 15.0 * u as f64;
        let work = home.destination(bearing, 9_000.0);
        for day in 0..7u64 {
            let d0 = TimePoint::at(day, 0, 0, 0);
            for i in 0..90u64 {
                engine.record_fix(
                    UserId(u),
                    GpsFix::new(home, d0.advance(TimeSpan::minutes(i * 5)), 0.1),
                );
            }
            for i in 0..40u64 {
                let frac = i as f64 / 39.0;
                engine.record_fix(
                    UserId(u),
                    GpsFix::new(
                        home.destination(bearing, frac * 9_000.0),
                        d0.advance(TimeSpan::hours(8)).advance(TimeSpan::seconds(i * 30)),
                        7.5,
                    ),
                );
            }
            for i in 0..57u64 {
                engine.record_fix(
                    UserId(u),
                    GpsFix::new(work, d0.advance(TimeSpan::minutes(510 + i * 10)), 0.2),
                );
            }
            for i in 0..66u64 {
                engine.record_fix(
                    UserId(u),
                    GpsFix::new(home, d0.advance(TimeSpan::minutes(1105 + i * 5)), 0.1),
                );
            }
        }
    }
    for i in 0..30u64 {
        engine.ingest_clip(
            format!("morning clip {i}"),
            ClipKind::Podcast,
            TimeSpan::minutes(4),
            TimePoint::at(7, 5, 0, 0),
            None,
            &[],
            Some(CategoryId::new((i % u64::from(CATEGORY_COUNT)) as u16)),
        );
    }
    engine
}

/// Replays the day-8 commute window through batched ticks, returning
/// the wall time and the number of events emitted.
fn e13_commute_window(engine: &mut Engine, users: u64, workers: usize) -> (f64, u64) {
    let ids: Vec<UserId> = (1..=users).map(UserId).collect();
    let d8 = TimePoint::at(7, 8, 0, 0);
    let t = crate::timing::stopwatch();
    let mut events = 0u64;
    for i in 0..12u64 {
        let now = d8.advance(TimeSpan::seconds(i * 30));
        for &u in &ids {
            let home = ORIGIN.destination(30.0 * u.0 as f64, 1_500.0 * u.0 as f64);
            let bearing = 80.0 + 15.0 * u.0 as f64;
            engine.record_fix(
                u,
                GpsFix::new(home.destination(bearing, i as f64 / 39.0 * 9_000.0), now, 7.5),
            );
        }
        let request = TickRequest::batch(&ids, now).with_workers(workers);
        events += engine.run_tick(&request).map_or(0, |events| events.len()) as u64;
    }
    (t.elapsed_s(), events)
}

/// E13 (engine): replays the same day-8 commute window through
/// batched ticks once per worker count. The engine is rebuilt
/// identically each time, so the event count must not vary across rows
/// — only the wall time may.
///
/// Each worker count runs the window `1 + rounds` times on freshly
/// rebuilt engines; the first run is discarded as warmup and the
/// minimum of the rest is reported, so the first row measured no
/// longer eats process start-up cost on behalf of the others. Event
/// counts must agree across every round.
#[must_use]
pub fn e13_tick_scaling(users: u64, worker_counts: &[usize], rounds: usize) -> Vec<E13TickRow> {
    let rounds = rounds.max(1);
    let mut rows = Vec::new();
    for &workers in worker_counts {
        let mut times = Vec::with_capacity(1 + rounds);
        let mut events = 0u64;
        for round in 0..=rounds {
            let mut engine = e13_commuter_fleet(users, EngineConfig::default());
            let (seconds, ev) = e13_commute_window(&mut engine, users, workers);
            if round > 0 {
                assert_eq!(ev, events, "event count varied across rounds at {workers} workers");
            }
            events = ev;
            times.push(seconds);
        }
        let seconds = crate::timing::min_after_warmup(&times, 1).expect("rounds >= 1");
        let ticks = users * 12;
        rows.push(E13TickRow {
            users,
            workers,
            seconds,
            user_ticks_per_s: ticks as f64 / seconds.max(1e-9),
            events,
        });
    }
    rows
}

/// One row of E13's observability half: the same batched commute
/// window with instrumentation enabled and disabled.
#[derive(Debug, Clone)]
pub struct E13ObsRow {
    /// Commuters ticked.
    pub users: u64,
    /// Worker threads for the batched ticks.
    pub workers: usize,
    /// Timed rounds per variant (best-of).
    pub rounds: usize,
    /// Best wall time with `obs_enabled: false`, seconds.
    pub bare_s: f64,
    /// Best wall time with the default instrumented engine, seconds.
    pub instrumented_s: f64,
    /// `(instrumented_s / bare_s - 1) * 100`.
    pub overhead_pct: f64,
    /// Events emitted (must be identical for both variants).
    pub events: u64,
    /// The instrumented run's exported snapshot (stable JSON).
    pub snapshot_json: String,
}

impl fmt::Display for E13ObsRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "users={:>5} workers={:>2} bare={:>7.3}s instrumented={:>7.3}s overhead={:>+6.2}% \
             events={}",
            self.users,
            self.workers,
            self.bare_s,
            self.instrumented_s,
            self.overhead_pct,
            self.events
        )
    }
}

/// E13 (observability): times the day-8 commute window with the obs
/// layer on and off, best-of-`rounds` per variant to damp scheduler
/// noise. Both variants must emit identical events — instrumentation
/// is observation, never behaviour — and the instrumented run's
/// snapshot rides along for the CI artifact.
#[must_use]
pub fn e13_obs_overhead(users: u64, workers: usize, rounds: usize) -> E13ObsRow {
    let rounds = rounds.max(1);
    let run = |obs_enabled: bool| -> (f64, u64, String) {
        let mut best = f64::INFINITY;
        let mut events = 0u64;
        let mut snapshot = String::new();
        for _ in 0..rounds {
            let config = EngineConfig { obs_enabled, ..EngineConfig::default() };
            let mut engine = e13_commuter_fleet(users, config);
            let (seconds, ev) = e13_commute_window(&mut engine, users, workers);
            best = best.min(seconds);
            events = ev;
            snapshot = engine.obs_snapshot().to_json();
        }
        (best, events, snapshot)
    };
    let (bare_s, bare_events, _) = run(false);
    let (instrumented_s, events, snapshot_json) = run(true);
    assert_eq!(events, bare_events, "instrumentation changed engine behaviour");
    E13ObsRow {
        users,
        workers,
        rounds,
        bare_s,
        instrumented_s,
        overhead_pct: (instrumented_s / bare_s.max(1e-9) - 1.0) * 100.0,
        events,
        snapshot_json,
    }
}

// ---------------------------------------------------------------------
// E13 (population scale) — the 1k/10k/100k × workers grid.
// ---------------------------------------------------------------------

/// One row of E13's population-scale half: a morning-commute window at
/// one fleet size and worker count, with the warm-phase wall share and
/// the candidate-cache counters that prove the component-wise keys do
/// their job across ticks.
#[derive(Debug, Clone, Copy)]
pub struct E13ScaleRow {
    /// Registered listeners ticked per batch.
    pub users: u64,
    /// Worker threads used by the batched tick.
    pub workers: usize,
    /// Ticks in the window.
    pub ticks: u64,
    /// Wall time for the whole window, seconds.
    pub seconds: f64,
    /// User-ticks per second.
    pub user_ticks_per_s: f64,
    /// Events emitted (must not vary with the worker count).
    pub events: u64,
    /// Cumulative wall time inside the `engine.warm` span — the
    /// parallelizable region of every tick.
    pub warm_s: f64,
    /// `warm_s / seconds`: the Amdahl parallel fraction. On a
    /// single-core host the measured speedup is meaningless, but this
    /// fraction still bounds the multi-core speedup from below:
    /// `1 / ((1 - p) + p / 8) >= 3` needs `p >= 0.77`.
    pub parallel_fraction: f64,
    /// Ranked lists computed from scratch over the window.
    pub cache_misses: u64,
    /// Cache serves warmed by the same tick's parallel phase.
    pub warm_serves: u64,
    /// Cache serves that survived from an earlier tick — the counter
    /// the old `now`-keyed cache pinned at zero.
    pub cross_tick_hits: u64,
}

impl fmt::Display for E13ScaleRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "users={:>6} workers={:>2} time={:>8.3}s ticks/s={:>10.1} warm={:>7.3}s p={:.3} \
             miss={} warm_serve={} cross_tick={} events={}",
            self.users,
            self.workers,
            self.seconds,
            self.user_ticks_per_s,
            self.warm_s,
            self.parallel_fraction,
            self.cache_misses,
            self.warm_serves,
            self.cross_tick_hits,
            self.events
        )
    }
}

/// Cache quanta for the population bench: the morning window sits well
/// inside one freshness bucket, so entries live or die by the *context*
/// revision alone — which is what lets re-fires inside a commute serve
/// from the cross-tick cache instead of re-ranking.
#[must_use]
pub fn e13_coarse_quanta() -> CacheQuanta {
    CacheQuanta {
        freshness: TimeSpan::hours(1),
        decay: TimeSpan::hours(24),
        phase: TimeSpan::hours(1),
        position_m: 50_000.0,
    }
}

/// Builds the population-scale fleet: `users` registered listeners, of
/// which one in five is a commuter with three days of compressed
/// home→work history (the drivers the proactive loop fires for), and
/// every fourth driver has already heard the whole catalog — their
/// re-fires inside the window are the deterministic cross-tick cache
/// hits. Everyone else is stationary with a single seed fix, so the
/// warm phase still builds a context (and a trivial mobility model)
/// for the entire fleet.
#[must_use]
pub fn e13_scale_fleet(users: u64, config: EngineConfig) -> Engine {
    let mut engine = Engine::new(config);
    let t0 = TimePoint::at(0, 0, 0, 0);
    for u in 1..=users {
        engine.register_user(
            UserProfile {
                id: UserId(u),
                name: format!("listener {u}"),
                age_band: AgeBand::Adult,
                favourite_service: ServiceIndex(0),
            },
            t0,
        );
    }
    let drivers = e13_driver_count(users);
    for u in 1..=drivers {
        let home = ORIGIN.destination(30.0 * u as f64, 1_000.0 + 37.0 * u as f64);
        let bearing = 80.0 + (u % 24) as f64 * 15.0;
        let work = home.destination(bearing, 9_000.0);
        // Three compressed days: home dwell, the 20-minute drive at
        // 30 s cadence, work dwell — ~170 fixes per driver. The replay
        // window opens on day 3, so history must stop at day 2: fixes
        // stamped after the window would run the clock backwards.
        for day in 0..3u64 {
            let d0 = TimePoint::at(day, 0, 0, 0);
            for i in 0..15u64 {
                engine.record_fix(
                    UserId(u),
                    GpsFix::new(home, d0.advance(TimeSpan::minutes(i * 30)), 0.1),
                );
            }
            for i in 0..40u64 {
                let frac = i as f64 / 39.0;
                engine.record_fix(
                    UserId(u),
                    GpsFix::new(
                        home.destination(bearing, frac * 9_000.0),
                        d0.advance(TimeSpan::hours(8)).advance(TimeSpan::seconds(i * 30)),
                        7.5,
                    ),
                );
            }
            for i in 0..14u64 {
                engine.record_fix(
                    UserId(u),
                    GpsFix::new(work, d0.advance(TimeSpan::minutes(520 + i * 60)), 0.2),
                );
            }
        }
    }
    // Stationary bulk: one seed fix each, so day-8 contexts have a
    // position without any driving history.
    for u in (drivers + 1)..=users {
        let spot = ORIGIN.destination((u % 360) as f64, 500.0 + (u % 97) as f64 * 40.0);
        engine.record_fix(UserId(u), GpsFix::new(spot, TimePoint::at(2, 20, 0, 0), 0.1));
    }
    let clips: Vec<pphcr_audio::ClipId> = (0..30u64)
        .map(|i| {
            engine
                .ingest_clip(
                    format!("morning clip {i}"),
                    ClipKind::Podcast,
                    TimeSpan::minutes(4),
                    TimePoint::at(3, 5, 0, 0),
                    None,
                    &[],
                    Some(CategoryId::new((i % u64::from(CATEGORY_COUNT)) as u16)),
                )
                .0
        })
        .collect();
    // Sated drivers: the whole catalog is already heard, so their
    // proactive re-fires rank an empty shortlist — no delivery, no
    // heard-set movement, and therefore a stable cache key.
    for u in 1..=drivers {
        if u % 4 == 0 {
            for &clip in &clips {
                engine.apply_player_events(UserId(u), &[PlayerEvent::ClipStarted(clip)]);
            }
        }
    }
    engine
}

/// Drivers in an E13 scale fleet: one in five listeners (a morning
/// commute wave), at least 16.
#[must_use]
pub fn e13_driver_count(users: u64) -> u64 {
    (users / 5).max(16).min(users)
}

/// Replays a day-3 morning window of `ticks` batched ticks at 30 s
/// cadence. Every driver streams a fix per tick (1 Hz-ish GPS scaled
/// to the tick cadence); a rotating 1-in-977 slice of the whole fleet
/// files feedback mid-window, exercising component-wise invalidation
/// under churn.
fn e13_scale_window(engine: &mut Engine, users: u64, workers: usize, ticks: u64) -> (f64, u64) {
    let ids: Vec<UserId> = (1..=users).map(UserId).collect();
    let drivers = e13_driver_count(users);
    let d3 = TimePoint::at(3, 8, 0, 0);
    let t = crate::timing::stopwatch();
    let mut events = 0u64;
    for i in 0..ticks {
        let now = d3.advance(TimeSpan::seconds(i * 30));
        for u in 1..=drivers {
            let home = ORIGIN.destination(30.0 * u as f64, 1_000.0 + 37.0 * u as f64);
            let bearing = 80.0 + (u % 24) as f64 * 15.0;
            let frac = (i as f64 / 39.0).min(1.0);
            engine.record_fix(
                UserId(u),
                GpsFix::new(home.destination(bearing, frac * 9_000.0), now, 7.5),
            );
        }
        for u in 1..=users {
            if u % 977 == i % 977 {
                engine.record_feedback(FeedbackEvent {
                    user: UserId(u),
                    clip: None,
                    category: CategoryId::new((u % u64::from(CATEGORY_COUNT)) as u16),
                    kind: FeedbackKind::Like,
                    time: now,
                });
            }
        }
        let request = TickRequest::batch(&ids, now).with_workers(workers);
        events += engine.run_tick(&request).map_or(0, |events| events.len()) as u64;
    }
    (t.elapsed_s(), events)
}

/// E13 (population scale): the full `user_counts` × `worker_counts`
/// grid. Each cell rebuilds the fleet identically, so within one fleet
/// size only wall time may vary across worker counts — the event
/// stream and the exported [`ObsSnapshot`](pphcr_core) JSON must be
/// byte-identical, and this function asserts both. Each fleet size
/// runs one discarded warmup window first so first-iteration allocator
/// and page-fault costs do not contaminate the workers=1 base cell.
#[must_use]
pub fn e13_tick_grid(user_counts: &[u64], worker_counts: &[usize], ticks: u64) -> Vec<E13ScaleRow> {
    let mut rows = Vec::new();
    for &users in user_counts {
        // One discarded warmup window per fleet size: the first window
        // at a new memory footprint pays allocator growth and page
        // faults in the serial commit loop, which deflates the measured
        // warm-phase share of the workers=1 cell (the Amdahl gate's
        // base row) by several points. Same first-iteration discipline
        // as `timing::sample_min_s`.
        {
            let config =
                EngineConfig { cache_quanta: e13_coarse_quanta(), ..EngineConfig::default() };
            let mut engine = e13_scale_fleet(users, config);
            let _ = e13_scale_window(
                &mut engine,
                users,
                worker_counts.first().copied().unwrap_or(1),
                ticks,
            );
        }
        let mut reference: Option<(u64, String)> = None;
        for &workers in worker_counts {
            let config =
                EngineConfig { cache_quanta: e13_coarse_quanta(), ..EngineConfig::default() };
            let mut engine = e13_scale_fleet(users, config);
            let (seconds, events) = e13_scale_window(&mut engine, users, workers, ticks);
            let snapshot = engine.obs_snapshot().to_json();
            match &reference {
                None => reference = Some((events, snapshot)),
                Some((ref_events, ref_snapshot)) => {
                    assert_eq!(
                        events, *ref_events,
                        "event stream diverged at {users} users, {workers} workers"
                    );
                    assert!(
                        snapshot == *ref_snapshot,
                        "obs snapshot diverged at {users} users, {workers} workers"
                    );
                }
            }
            let warm_s =
                engine.obs().timing("engine.warm").map_or(0.0, |t| t.total_ns as f64 / 1e9);
            rows.push(E13ScaleRow {
                users,
                workers,
                ticks,
                seconds,
                user_ticks_per_s: (users * ticks) as f64 / seconds.max(1e-9),
                events,
                warm_s,
                parallel_fraction: warm_s / seconds.max(1e-9),
                cache_misses: engine.obs().counter("candidates.cache_misses"),
                warm_serves: engine.obs().counter("candidates.warm_serve"),
                cross_tick_hits: engine.obs().counter("candidates.cross_tick_hit"),
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e11_diversity_tradeoff_is_monotone() {
        let world = trip_world(10, 150, 5);
        let rows = e11_ensemble(&world, &[1.0, 0.6, 0.2], 6);
        // Lower λ: entropy up, relevance down (weakly).
        assert!(rows[2].entropy_bits >= rows[0].entropy_bits, "{rows:?}");
        assert!(rows[2].mean_score <= rows[0].mean_score + 1e-9, "{rows:?}");
        assert!(rows[2].distinct_categories >= rows[0].distinct_categories);
    }

    #[test]
    fn e1_fades_beat_hard_cuts() {
        let rows = e1_seam_quality(8_000, &[10, 60]);
        for r in &rows {
            assert!(r.faded_jump < r.hard_jump, "{r}");
            assert!(r.faded_jump < 0.2, "{r}");
        }
    }

    #[test]
    fn e2_compound_beats_baselines_on_taste() {
        let world = trip_world(12, 150, 42);
        let rows = e2_trip_fill(&world);
        let get = |name: &str| rows.iter().find(|r| r.strategy.contains(name)).unwrap().clone();
        let compound = get("compound");
        let random = get("random");
        assert!(
            compound.mean_taste > random.mean_taste + 0.1,
            "compound {compound} vs random {random}"
        );
        assert!(compound.fill_ratio > 0.5, "{compound}");
    }

    #[test]
    fn e4_personalization_cuts_skip_rate() {
        let rows = e4_skip_propensity(8, 15, 8, 7);
        let linear = &rows[0];
        let pphcr = &rows[1];
        assert!(
            pphcr.metrics.skip_rate() < linear.metrics.skip_rate() - 0.08,
            "pphcr {} vs linear {}",
            pphcr.metrics.skip_rate(),
            linear.metrics.skip_rate()
        );
        assert!(
            pphcr.metrics.surfs * 2 < linear.metrics.surfs,
            "channel-surf propensity drops: {} vs {}",
            pphcr.metrics.surfs,
            linear.metrics.surfs
        );
    }

    #[test]
    fn e5_compaction_bounds_error() {
        let (rows, stays) = e5_trajectory(5, &[5.0, 15.0, 50.0], 3);
        for r in &rows {
            assert!(r.max_error_m <= r.epsilon_m + 1e-6, "{r}");
            assert!(r.ratio >= 1.0);
        }
        // Larger ε compresses more.
        assert!(rows[2].kept_points <= rows[0].kept_points);
        assert!(stays.found >= 2, "{stays}");
        assert!(stays.home_error_m < 150.0, "{stays}");
        assert!(stays.work_error_m < 150.0, "{stays}");
    }

    #[test]
    fn e6_injection_delivers_first() {
        let report = e6_injection(1);
        assert_eq!(report.hops, 2);
        assert!(report.ticks_to_delivery >= 1);
        assert!(report.played_first);
    }

    #[test]
    fn e7_shapes_hold() {
        let (rows, crossovers) = e7_netcost(&[100, 10_000], 0.2, TimeSpan::hours(1));
        let total = |plan: DeliveryPlanKind, n: u64| {
            rows.iter().find(|r| r.plan == plan && r.listeners == n).unwrap().total_mb
        };
        assert!(total(DeliveryPlanKind::Hybrid, 10_000) < total(DeliveryPlanKind::AllIp, 10_000));
        assert_eq!(
            total(DeliveryPlanKind::AllBroadcast, 100),
            total(DeliveryPlanKind::AllBroadcast, 10_000)
        );
        // Crossovers monotonically increase with p (None sorts last).
        let xs: Vec<u64> = crossovers.iter().filter_map(|(_, c)| *c).collect();
        assert!(xs.windows(2).all(|w| w[0] <= w[1]), "{crossovers:?}");
        assert_eq!(crossovers.last().unwrap().1, None, "p=1.0 never crosses");
    }

    #[test]
    fn e8_accuracy_degrades_gracefully() {
        let rows = e8_classifier(&[0.0, 0.5], &[2, 8], 2, 5);
        let acc = |wer: f64, n: usize| {
            rows.iter()
                .find(|r| (r.wer - wer).abs() < 1e-9 && r.train_per_category == n)
                .unwrap()
                .accuracy
        };
        assert!(acc(0.0, 8) > 0.9, "clean accuracy high: {}", acc(0.0, 8));
        assert!(acc(0.0, 8) >= acc(0.5, 8) - 0.05, "noise hurts");
        assert!(acc(0.0, 8) >= acc(0.0, 2) - 0.05, "more training helps");
        assert!(acc(0.5, 8) > 0.5, "even at 50% WER the signal survives");
    }

    #[test]
    fn e9_extremes_tradeoff() {
        let world = trip_world(10, 150, 99);
        let rows = e9_weight_sweep(&world, &[0.0, 1.0]);
        let context_only = rows[0];
        let content_only = rows[1];
        assert!(
            content_only.mean_taste >= context_only.mean_taste,
            "content weight maximizes taste: {content_only} vs {context_only}"
        );
    }

    #[test]
    fn e10_constraint_removes_violations() {
        let world = trip_world(10, 150, 12);
        let rows = e10_distraction(&world);
        let aware = &rows[0];
        let unconstrained = &rows[1];
        assert_eq!(aware.zone_violations, 0, "{aware}");
        assert!(aware.mean_score <= unconstrained.mean_score + 1e-9);
    }

    #[test]
    fn e3_pipeline_runs_at_small_scale() {
        let rows = e3_pipeline(20, 10, 2);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.rate > 0.0, "{r}");
        }
    }

    #[test]
    fn e12_calm_delivers_everything_without_resilience_machinery() {
        let rows = e12_resilience(3, 4, 7);
        let calm = &rows[0];
        assert_eq!(calm.profile, "calm");
        assert_eq!(calm.delivered, calm.submitted, "{calm}");
        assert_eq!(calm.retries, 0, "{calm}");
        assert_eq!(calm.dead_lettered, 0, "{calm}");
        assert_eq!(calm.wire_dropped, 0, "{calm}");
        assert_eq!(
            calm.health,
            HealthCounts { healthy: 3, degraded: 0, broadcast_only: 0 },
            "{calm}"
        );
    }

    #[test]
    fn e12_lossy_engages_retries_and_accounts_for_every_delivery() {
        let rows = e12_resilience(3, 4, 7);
        let lossy = &rows[1];
        assert_eq!(lossy.profile, "lossy-mobile");
        assert!(lossy.retries > 0, "{lossy}");
        assert!(lossy.wire_dropped > 0, "{lossy}");
        assert!(lossy.delivered > 0, "some injections survive the chaos: {lossy}");
        assert!(
            lossy.delivered + lossy.dead_lettered <= lossy.submitted,
            "nothing applied twice: {lossy}"
        );
        let h = lossy.health;
        assert_eq!(
            h.healthy + h.degraded + h.broadcast_only,
            3,
            "every listener has an explicit health state: {lossy}"
        );
    }

    #[test]
    fn e13_index_agrees_with_scan_at_small_scale() {
        let rows = e13_retrieval(&[(400, 6)], 11, 1);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert!(r.candidates > 0, "{r}");
        assert!(r.scan_s > 0.0 && r.indexed_s > 0.0, "{r}");
        // 400 clips sits below the default crossover, so the production
        // dispatch this row timed was the scan fallback — and the row
        // says so instead of posing as an index measurement.
        assert_eq!(r.dispatch, RetrievalPath::Scan, "{r}");
    }

    #[test]
    fn e13_tick_scaling_event_counts_agree_across_workers() {
        let rows = e13_tick_scaling(2, &[1, 2], 1);
        assert_eq!(rows[0].events, rows[1].events, "{rows:?}");
        assert!(rows.iter().all(|r| r.user_ticks_per_s > 0.0), "{rows:?}");
    }
}
