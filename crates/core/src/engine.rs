//! The top-level PPHCR engine.
//!
//! Owns every store of the Fig. 3 architecture and runs the
//! recommendation loop: fixes and feedback arrive from players, the
//! trip tracker detects departures, the proactivity model decides when
//! to act, the recommender packs the predicted ΔT, and the resulting
//! clips are queued on the listener's player (editorial injections
//! first). All state is in-process and deterministic.

use crate::bus::{Bus, BusMessage, PublishError, Topic};
use crate::command::EngineCommand;
use crate::fault::ChaosRng;
use crate::health::{HealthCounts, HealthState, UserHealth};
use crate::hotstate::HotState;
use crate::injection::InjectionQueue;
use crate::netcost::UnicastLink;
use crate::player::{Player, PlayerEvent, QueuedClip};
use crate::retry::{BackoffPolicy, DeliveryTracker};
use pphcr_audio::ClipId;
use pphcr_catalog::{
    CategoryId, ClipKind, ClipMetadata, ContentRepository, Gazetteer, GeoTag, Schedule, Service,
    CATEGORY_COUNT,
};
use pphcr_geo::{
    DistractionZone, GeoPoint, LocalProjection, NodeKind, Polyline, ProjectedPoint, RoadNetwork,
    TimePoint, TimeSpan,
};
use pphcr_nlp::{NaiveBayes, Vocabulary};
use pphcr_obs::{
    DecisionTrace, DecisionTraceEntry, ObsSnapshot, Registry, Span, Verdict, DEFAULT_TRACE_CAPACITY,
};
use pphcr_recommender::{
    Activity, Ambient, DriveContext, ListenerContext, ProactivityModel, Recommender,
    RetrievalStats, ScoredClip, SlotSchedule, Trigger, Weather,
};
use pphcr_trajectory::model::ModelConfig;
use pphcr_trajectory::{GpsFix, MobilityModel, Trace, TripPredictor};
use pphcr_userdata::{
    FeedbackEvent, FeedbackStore, ProfileStore, TrackingStore, UserId, UserProfile,
};
use std::collections::{HashMap, HashSet};

/// Quantization grid for the time- and context-dependent components of
/// the candidate-cache key.
///
/// The cache key used to embed the raw tick instant, so a warmed entry
/// could never survive to the next tick and every tick recomputed every
/// user from scratch. Instead, each time-dependent input is bucketed at
/// the grain below which the ranked list is considered equivalent; a
/// cached entry stays valid until a bucket boundary is actually
/// crossed. Equal keys therefore guarantee a list whose inputs moved by
/// *less than one bucket* — bounded staleness, chosen per deployment —
/// rather than bit-equal inputs. Every serve path shares the same key
/// function, so worker count and batch shape cannot change which
/// entries are considered valid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheQuanta {
    /// Freshness-window bucket: the freshness revision is `now` divided
    /// by this span, so ranked lists are recomputed when the
    /// publication-age scores have drifted by at most one bucket.
    pub freshness: TimeSpan,
    /// Preference-decay bucket: preferences decay with a half-life of
    /// days, so their revision advances at this much coarser grain.
    pub decay: TimeSpan,
    /// Trip-phase bucket: the predicted remaining time ΔT is quantized
    /// at this grain inside the context revision.
    pub phase: TimeSpan,
    /// Position grid pitch in meters for the context revision; route
    /// corridors and geo kernels drift with position, so a listener
    /// crossing a grid line invalidates their entry.
    pub position_m: f64,
}

impl Default for CacheQuanta {
    fn default() -> Self {
        CacheQuanta {
            freshness: TimeSpan::minutes(5),
            decay: TimeSpan::hours(1),
            phase: TimeSpan::minutes(2),
            position_m: 500.0,
        }
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Projection origin (the deployment city).
    pub origin: GeoPoint,
    /// Trip predictor parameters.
    pub predictor: TripPredictor,
    /// Naive Bayes smoothing.
    pub classifier_alpha: f64,
    /// Max distance from the route at which a junction creates a
    /// distraction zone, meters.
    pub junction_snap_m: f64,
    /// Retry schedule for acknowledged Recommendation deliveries.
    pub backoff: BackoffPolicy,
    /// Seed of the engine-side chaos generator (backoff jitter).
    pub chaos_seed: u64,
    /// A fix older than this at prediction time counts as a stale
    /// mobility input (lossy Tracking topic).
    pub stale_fix_after: TimeSpan,
    /// Worker threads for a batch [`Engine::run_tick`]'s speculative
    /// candidate-scoring phase. `1` disables threading.
    pub worker_threads: usize,
    /// Observability master switch: `false` swaps in a no-op registry
    /// and skips the decision trace — the bare baseline the e13
    /// overhead gate measures the instrumented path against.
    pub obs_enabled: bool,
    /// Capacity of the bounded decision-trace ring buffer.
    pub trace_capacity: usize,
    /// Quantization grid for the candidate-cache key's time-dependent
    /// components (see [`CacheQuanta`]).
    pub cache_quanta: CacheQuanta,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            origin: GeoPoint::new(45.0703, 7.6869), // Torino
            predictor: TripPredictor::default(),
            classifier_alpha: 1.0,
            junction_snap_m: 60.0,
            backoff: BackoffPolicy::default(),
            chaos_seed: 0x5EED,
            stale_fix_after: TimeSpan::minutes(2),
            worker_threads: std::thread::available_parallelism().map_or(1, |n| n.get().min(8)),
            obs_enabled: true,
            trace_capacity: DEFAULT_TRACE_CAPACITY,
            cache_quanta: CacheQuanta::default(),
        }
    }
}

/// Typed errors from engine entry points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The listener has never been registered.
    UnknownUser(UserId),
    /// The clip is not in the content repository.
    UnknownClip(ClipId),
    /// The bus refused the message (bounded queue full).
    BusRejected(PublishError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::UnknownUser(u) => write!(f, "unknown user {u}"),
            EngineError::UnknownClip(c) => write!(f, "unknown clip {c:?}"),
            EngineError::BusRejected(e) => write!(f, "bus rejected message: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<PublishError> for EngineError {
    fn from(e: PublishError) -> Self {
        EngineError::BusRejected(e)
    }
}

/// Events the engine reports to its caller (simulation or example).
#[derive(Debug, Clone, PartialEq)]
pub enum EngineEvent {
    /// A trip was detected and predicted.
    TripPredicted {
        /// The listener.
        user: UserId,
        /// Predicted destination staying point.
        destination: u32,
        /// Prediction confidence.
        confidence: f64,
        /// Predicted remaining time.
        delta_t: TimeSpan,
    },
    /// A proactive recommendation was delivered.
    Recommended {
        /// The listener.
        user: UserId,
        /// The packed schedule.
        schedule: SlotSchedule,
    },
    /// An editorial injection reached the listener's queue.
    InjectionDelivered {
        /// The listener.
        user: UserId,
        /// The clip.
        clip: ClipId,
        /// Bus hops from submission to delivery.
        hops: u32,
    },
    /// A reactive (manual-skip) recommendation was queued.
    ReactiveQueued {
        /// The listener.
        user: UserId,
        /// The clip.
        clip: ClipId,
    },
}

impl EngineEvent {
    /// The listener this event concerns. Every event variant is
    /// user-scoped, which is what lets a shard router merge per-shard
    /// event queues back into global request order.
    #[must_use]
    pub fn user(&self) -> UserId {
        match self {
            EngineEvent::TripPredicted { user, .. }
            | EngineEvent::Recommended { user, .. }
            | EngineEvent::InjectionDelivered { user, .. }
            | EngineEvent::ReactiveQueued { user, .. } => *user,
        }
    }
}

/// One recommendation decision, kept for the dashboard trace (Fig. 6's
/// "details of the recommendation process").
#[derive(Debug, Clone)]
pub struct DecisionRecord {
    /// The listener.
    pub user: UserId,
    /// When the decision was made.
    pub at: TimePoint,
    /// What triggered it.
    pub trigger: Trigger,
    /// The delivered schedule.
    pub schedule: SlotSchedule,
    /// Prediction confidence at decision time.
    pub confidence: f64,
}

/// Per-user trip detection state.
#[derive(Debug, Clone, Default)]
pub(crate) struct TripTracker {
    pub(crate) driving_since: Option<TimePoint>,
    pub(crate) origin_stay: Option<u32>,
    pub(crate) path: Vec<ProjectedPoint>,
}

/// Cache key for a user's ranked candidate list. Every input that can
/// change the list is represented by a component-wise revision, so the
/// entry is invalidated only when a component it actually depends on
/// moves:
///
/// * `epoch` — repository index epoch, bumped on every ingest;
/// * `feedback_events` — the user's feedback log length;
/// * `heard_len` — the user's heard-set size (the set only grows, so
///   its size doubles as a revision);
/// * `freshness_rev` — `now` quantized by [`CacheQuanta::freshness`]
///   (publication-age scores drift with the clock);
/// * `decay_rev` — `now` quantized by [`CacheQuanta::decay`]
///   (preference decay has a half-life of days);
/// * `context_rev` — a digest of the quantized listener context:
///   activity, hour of day, weather, position grid cell, predicted
///   destination and trip-phase bucket.
///
/// The key deliberately does **not** embed the raw tick instant or the
/// raw fix count: a new fix that leaves every quantized context
/// component in place keeps the entry valid. Equal keys guarantee a
/// list whose inputs moved by less than one [`CacheQuanta`] bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CandidateCacheKey {
    pub(crate) epoch: u64,
    pub(crate) feedback_events: usize,
    pub(crate) heard_len: usize,
    pub(crate) freshness_rev: u64,
    pub(crate) decay_rev: u64,
    pub(crate) context_rev: u64,
}

impl CandidateCacheKey {
    /// Composes the key from its already-gathered inputs. Free of
    /// `&Engine` so the parallel warm phase and the sequential serve
    /// path share one definition by construction.
    pub(crate) fn compose(
        epoch: u64,
        feedback_events: usize,
        heard_len: usize,
        now: TimePoint,
        ctx: &ListenerContext,
        quanta: &CacheQuanta,
    ) -> Self {
        CandidateCacheKey {
            epoch,
            feedback_events,
            heard_len,
            freshness_rev: now.seconds() / quanta.freshness.as_seconds().max(1),
            decay_rev: now.seconds() / quanta.decay.as_seconds().max(1),
            context_rev: context_rev(ctx, quanta),
        }
    }
}

/// Digest of the quantized listener context for the cache key: a
/// `SplitMix64` chain over each discretized component. Chaining (rather
/// than a symmetric XOR of parts) keeps distinct component sequences
/// from cancelling each other out.
fn context_rev(ctx: &ListenerContext, quanta: &CacheQuanta) -> u64 {
    fn chain(h: u64, v: u64) -> u64 {
        splitmix64(h ^ v)
    }
    fn grid(coord_m: f64, pitch_m: f64) -> u64 {
        // Bit-stable floor-division bucket; sign-extends through i64 so
        // negative coordinates get their own buckets.
        (coord_m / pitch_m.max(1.0)).floor() as i64 as u64
    }
    let mut h = chain(
        0,
        match ctx.activity() {
            Activity::Still => 1,
            Activity::Walking => 2,
            Activity::Driving => 3,
        },
    );
    h = chain(h, ctx.hour());
    h = chain(
        h,
        match ctx.ambient.weather {
            Weather::Clear => 0,
            Weather::Rain => 1,
            Weather::Fog => 2,
            Weather::Snow => 3,
        },
    );
    match ctx.position {
        Some(p) => {
            h = chain(h, 1);
            h = chain(h, grid(p.x, quanta.position_m));
            h = chain(h, grid(p.y, quanta.position_m));
        }
        None => h = chain(h, 2),
    }
    match ctx.drive.as_ref() {
        Some(drive) => {
            h = chain(h, 1);
            h = chain(h, u64::from(drive.prediction.destination));
            h = chain(h, drive.delta_t().as_seconds() / quanta.phase.as_seconds().max(1));
        }
        None => h = chain(h, 2),
    }
    h
}

/// A memoized ranked candidate list plus the key it was computed under
/// and the retrieval-stage counters of that computation (replayed into
/// the decision trace on cache hits, so a warmed tick traces the same
/// numbers as a cold one). `warmed_at` records the engine tick sequence
/// at fill time, separating same-tick serves (`candidates.warm_serve`)
/// from genuine cross-tick reuse (`candidates.cross_tick_hit`).
#[derive(Debug, Clone)]
pub(crate) struct CachedCandidates {
    pub(crate) key: CandidateCacheKey,
    pub(crate) ranked: Vec<ScoredClip>,
    pub(crate) stats: RetrievalStats,
    pub(crate) warmed_at: u64,
}

/// One engine-step request for [`Engine::run_tick`], the single tick
/// entry point.
#[derive(Debug, Clone)]
pub struct TickRequest<'a> {
    /// Listeners to step, in order.
    pub users: &'a [UserId],
    /// The tick instant.
    pub now: TimePoint,
    /// Run the shared batch preamble (bus clock advance, telemetry
    /// pump, parallel candidate-cache warm) once before the sequential
    /// user loop. `false` steps each user on its own: each user's step
    /// performs its own clock advance and pumps.
    pub batch: bool,
    /// Worker threads for the warm phase; `None` uses
    /// [`EngineConfig::worker_threads`]. Ignored unless `batch`.
    pub workers: Option<usize>,
}

impl<'a> TickRequest<'a> {
    /// A single-listener step.
    #[must_use]
    pub fn single(user: &'a UserId, now: TimePoint) -> Self {
        TickRequest { users: std::slice::from_ref(user), now, batch: false, workers: None }
    }

    /// A population step with the shared preamble and warm phase.
    #[must_use]
    pub fn batch(users: &'a [UserId], now: TimePoint) -> Self {
        TickRequest { users, now, batch: true, workers: None }
    }

    /// Overrides the warm-phase worker count (`1` runs it inline).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }
}

/// Number of logical user shards; shard → worker assignment is
/// `shard % worker_count`, so any worker count divides the same stable
/// shard space and per-user placement never depends on batch order.
const USER_SHARDS: u64 = 64;

/// A score in `[0, 1]` as exact micro-units, keeping the decision
/// trace (and hence the observability snapshot) float-free.
fn micro(score: f64) -> i64 {
    (score * 1e6).round() as i64
}

/// Builds the decision-trace entry for one fired trigger: retrieval
/// stage counters plus the top candidate's score breakdown. The
/// verdict starts pessimistic (`NoCandidates` / `EmptySchedule`) and
/// is upgraded by the caller once a schedule is actually packed.
fn trace_entry(
    user: UserId,
    now: TimePoint,
    trigger: Trigger,
    stats: &RetrievalStats,
    ranked: &[ScoredClip],
) -> DecisionTraceEntry {
    let top = ranked.first();
    DecisionTraceEntry {
        user: user.0,
        at_s: now.seconds(),
        trigger: trigger.as_str(),
        considered: stats.considered,
        cut_freshness: stats.cut_freshness,
        cut_preference: stats.cut_preference,
        cut_geo: stats.cut_geo,
        cut_heard: stats.cut_heard,
        scored: stats.scored,
        scheduled: 0,
        top_clip: top.map(|c| c.clip.0),
        top_content_micro: top.map_or(0, |c| micro(c.content_score)),
        top_context_micro: top.map_or(0, |c| micro(c.context_score)),
        top_total_micro: top.map_or(0, |c| micro(c.score)),
        verdict: if ranked.is_empty() { Verdict::NoCandidates } else { Verdict::EmptySchedule },
    }
}

/// Warm jobs a worker thread must amortize before spawning it pays:
/// below this, thread spawn + join costs more than the work itself.
/// The E13 24-user fleet at 8 requested workers ran at 0.65x of the
/// 1-worker row purely on spawn overhead — three jobs per thread,
/// twelve spawns per window — so tiny batches collapse to the inline
/// path. At 1 000+ users the clamp never binds (1 000 / 64 > 8).
const WARM_JOBS_PER_WORKER: usize = 64;

/// Effective worker count for a warm batch of `jobs` jobs spread over
/// `populated_shards` distinct user shards.
///
/// Two clamps on the requested count, both pure functions of the work
/// list (never of thread timing, so the choice is deterministic):
/// workers beyond the populated shard count would own no shard and
/// spawn idle, and workers below the [`WARM_JOBS_PER_WORKER`]
/// amortization floor cost more in spawn/join than they parallelize.
/// Worker count only partitions work — outcomes are committed in
/// request order and registries merge commutatively — so clamping
/// cannot change the event stream, only the wall time.
fn effective_warm_workers(requested: usize, jobs: usize, populated_shards: usize) -> usize {
    requested.min(populated_shards.max(1)).min((jobs / WARM_JOBS_PER_WORKER).max(1))
}

/// `SplitMix64` finalizer — a cheap, well-mixed hash from `UserId` to a
/// shard, stable across runs and platforms.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The shard a user belongs to in an `shards`-way partition:
/// `splitmix64(user) % shards`. This is the *same* hash the in-process
/// warm phase uses for its worker shards, exported so the multi-process
/// router partitions users identically to every other shard space.
///
/// # Panics
/// Panics when `shards` is zero.
#[must_use]
pub fn user_shard(user: UserId, shards: u64) -> u64 {
    assert!(shards > 0, "shard count must be positive");
    splitmix64(user.0) % shards
}

/// Distraction zones where non-plain junctions lie near the route —
/// free of `&Engine` so the parallel warm phase shares the exact
/// definition [`Engine::zones_for`] uses.
fn zones_for_route(
    net: Option<&RoadNetwork>,
    snap_m: f64,
    route: &Polyline,
) -> Vec<DistractionZone> {
    let Some(net) = net else { return Vec::new() };
    let mut zones = Vec::new();
    for node in net.nodes() {
        if node.kind == NodeKind::Plain {
            continue;
        }
        let Some(projection) = route.project_point(node.pos) else { continue };
        if projection.distance_m <= snap_m {
            let r = node.kind.distraction_radius_m();
            zones.push(DistractionZone {
                node: node.id,
                kind: node.kind,
                start_m: (projection.along_m - r).max(0.0),
                end_m: (projection.along_m + r).min(route.length_m()),
            });
        }
    }
    zones.sort_by(|a, b| a.start_m.total_cmp(&b.start_m));
    zones
}

/// The pure core of [`Engine::context_for`]: builds one listener
/// context from already-borrowed tracking state, so the parallel warm
/// phase can run it off-thread against `&` borrows and hand the result
/// (plus the memoizations a sequential build would have committed —
/// a newly resolved trip origin and a freshly compacted mobility model)
/// back to the apply-only commit.
///
/// The store's model arrives borrowed when it is current, or by value
/// when the caller took it out of the store as stale; a stale model not
/// needed here is handed back untouched for install.
/// [`MobilityModel::compact`] is pure, so a model compacted here is
/// indistinguishable from one the tracking store would have compacted
/// itself — which is what keeps the batch event stream bit-identical
/// to the sequential one.
#[allow(clippy::too_many_arguments)]
fn build_context(
    now: TimePoint,
    fix: Option<GpsFix>,
    proj: &LocalProjection,
    tracker: Option<&TripTracker>,
    current_model: Option<&MobilityModel>,
    mut stale_model: Option<MobilityModel>,
    trace: Option<&Trace>,
    model_config: &ModelConfig,
    predictor: &TripPredictor,
    net: Option<&RoadNetwork>,
    snap_m: f64,
) -> (ListenerContext, Option<u32>, Option<MobilityModel>) {
    let (position, speed) = match fix {
        Some(f) => (Some(proj.project(f.point)), f.speed_mps),
        None => (None, 0.0),
    };
    let mut ctx = ListenerContext {
        now,
        position,
        speed_mps: speed,
        drive: None,
        ambient: Ambient::default(),
    };
    // Resolve trip state.
    let Some(tracker) = tracker else { return (ctx, None, stale_model) };
    let Some(departure) = tracker.driving_since else { return (ctx, None, stale_model) };
    // Reuse the store's model when it is current; compact the trace from
    // the stale one otherwise, handing the fresh model back for install.
    let mut fresh_model: Option<MobilityModel> = None;
    let model: Option<&MobilityModel> = match (current_model, trace) {
        (Some(m), _) => Some(m),
        (None, Some(t)) if !t.is_empty() => {
            fresh_model = Some(MobilityModel::compact(stale_model.take(), t, proj, model_config));
            fresh_model.as_ref()
        }
        _ => None,
    };
    let mut origin_resolved = None;
    let origin_stay = match tracker.origin_stay {
        Some(o) => Some(o),
        None => {
            let start_pos = tracker.path.first().copied();
            let resolved = model
                .and_then(|m| start_pos.and_then(|p| m.stay_near(p, proj, 400.0)).map(|s| s.id));
            origin_resolved = resolved;
            resolved
        }
    };
    if let Some(origin) = origin_stay {
        if let Some(model) = model {
            if let Some(prediction) =
                predictor.predict(model, origin, departure, now, &tracker.path)
            {
                let route = Polyline::new(prediction.route_ahead.clone());
                let zones = zones_for_route(net, snap_m, &route);
                ctx.drive = Some(DriveContext::new(prediction, zones));
            }
        }
    }
    (ctx, origin_resolved, fresh_model.or(stale_model))
}

/// Per-user output of the parallel warm phase, consumed slot-by-slot by
/// the sequential user loop: the listener context the worker built.
/// Identical to what [`Engine::context_for`] would compute at the same
/// point, because no telemetry can arrive between the batch preamble
/// and the user's sequential turn.
struct Warmed {
    ctx: ListenerContext,
}

/// The engine.
pub struct Engine {
    /// Service line-up.
    pub services: Vec<Service>,
    /// The EPG.
    pub epg: Schedule,
    /// Clip metadata repository.
    pub repo: ContentRepository,
    /// Profiles DB.
    pub profiles: ProfileStore,
    /// Feedbacks DB.
    pub feedback: FeedbackStore,
    /// Tracking DB.
    pub tracking: TrackingStore,
    /// Listening sessions closed so far: one per channel surf and one
    /// per re-registration of a listener already registered.
    pub(crate) sessions_closed: u64,
    /// The recommender (weights, filter, scheduler). It starts at its
    /// defaults; callers may tune it in place, and snapshots carry it.
    pub recommender: Recommender,
    /// Editorial injections.
    pub injections: InjectionQueue,
    /// The message bus.
    pub bus: Bus,
    /// Ack/retry ledger and duplicate filter for deliveries.
    pub delivery: DeliveryTracker,
    /// The unicast clip-fetch link (perfect by default; swap in a
    /// flaky one for chaos runs).
    pub unicast: UnicastLink,
    pub(crate) config: EngineConfig,
    pub(crate) vocab: Vocabulary,
    pub(crate) classifier: NaiveBayes,
    pub(crate) classifier_docs: u64,
    pub(crate) road_network: Option<RoadNetwork>,
    pub(crate) gazetteer: Option<Gazetteer>,
    pub(crate) players: HashMap<UserId, Player>,
    pub(crate) proactivity: HashMap<UserId, ProactivityModel>,
    pub(crate) trips: HashMap<UserId, TripTracker>,
    /// Struct-of-arrays per-user hot state (heard sets, revision
    /// mirrors, candidate cache) — everything the warm phase reads
    /// per-user without cloning.
    pub(crate) hot: HotState,
    pub(crate) decisions: Vec<DecisionRecord>,
    pub(crate) next_clip_id: u64,
    pub(crate) chaos_rng: ChaosRng,
    pub(crate) health: HashMap<UserId, UserHealth>,
    pub(crate) last_acked: HashMap<UserId, SlotSchedule>,
    /// Monotonic count of completed [`Engine::run_tick`] calls; cache
    /// entries stamp it at fill time to classify later hits as same-
    /// tick serves vs cross-tick reuse. Persisted, so recovery replays
    /// the same counter classifications.
    pub(crate) tick_seq: u64,
    pub(crate) obs: Registry,
    pub(crate) obs_trace: DecisionTrace,
    /// Recovery banner surfaced on the dashboard after a restore
    /// ("recovered at seq N, dropped M torn bytes"). Kept outside the
    /// obs registry and the platform snapshot on purpose: recovery is
    /// an operational fact about *this* process, and folding it into
    /// replayable state would break byte-identity with the unkilled
    /// run.
    pub(crate) recovery_banner: Option<String>,
}

impl Engine {
    /// Creates an engine with the Rai-like 10-service line-up.
    #[must_use]
    pub fn new(config: EngineConfig) -> Self {
        Engine {
            services: Service::rai_lineup(),
            epg: Schedule::new(),
            repo: ContentRepository::new(pphcr_geo::LocalProjection::new(config.origin)),
            profiles: ProfileStore::new(),
            feedback: FeedbackStore::default(),
            tracking: TrackingStore::new(config.origin),
            sessions_closed: 0,
            recommender: Recommender::default(),
            injections: InjectionQueue::new(),
            bus: Bus::new(),
            vocab: Vocabulary::new(),
            classifier: NaiveBayes::new(u32::from(CATEGORY_COUNT), config.classifier_alpha),
            classifier_docs: 0,
            road_network: None,
            gazetteer: None,
            players: HashMap::new(),
            proactivity: HashMap::new(),
            trips: HashMap::new(),
            hot: HotState::new(),
            decisions: Vec::new(),
            next_clip_id: 0,
            delivery: DeliveryTracker::new(),
            unicast: UnicastLink::perfect(),
            chaos_rng: ChaosRng::new(config.chaos_seed),
            health: HashMap::new(),
            last_acked: HashMap::new(),
            tick_seq: 0,
            obs: if config.obs_enabled { Registry::new() } else { Registry::disabled() },
            obs_trace: DecisionTrace::with_capacity(config.trace_capacity),
            recovery_banner: None,
            config,
        }
    }

    /// The dashboard's recovery banner, set by
    /// [`crate::persist::restore_engine`] ("recovered at seq N, dropped
    /// M torn bytes"). `None` for an engine that never restarted.
    #[must_use]
    pub fn recovery_banner(&self) -> Option<&str> {
        self.recovery_banner.as_deref()
    }

    /// The listener's position on the degradation ladder (`None` for
    /// unregistered users).
    #[must_use]
    pub fn health_of(&self, user: UserId) -> Option<HealthState> {
        self.health.get(&user).map(UserHealth::state)
    }

    /// Full per-listener health record.
    #[must_use]
    pub fn user_health(&self, user: UserId) -> Option<&UserHealth> {
        self.health.get(&user)
    }

    /// Listeners per ladder rung.
    #[must_use]
    pub fn health_counts(&self) -> HealthCounts {
        // lint: allow(hash-iter) — order-independent tally; counts do not depend on visit order
        HealthCounts::tally(self.health.values().map(UserHealth::state))
    }

    /// Attaches the road network used for distraction zones.
    pub fn set_road_network(&mut self, network: RoadNetwork) {
        self.road_network = Some(network);
    }

    /// Attaches the gazetteer used to estimate geographic relevance of
    /// untagged archive clips from their transcripts (the paper's §3
    /// future work).
    pub fn set_gazetteer(&mut self, gazetteer: Gazetteer) {
        self.gazetteer = Some(gazetteer);
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Executes one [`EngineCommand`] — the single entry point every
    /// externally-driven mutation funnels through.
    ///
    /// The named methods (`register_user`, `inject`, …) remain the
    /// readable call-site spelling, but they are now the *only* other
    /// spelling: `DurableEngine`'s write-ahead path, WAL replay and the
    /// shard router all pass commands here, so the three surfaces
    /// cannot drift apart. Commands that emit engine events (ticks,
    /// skips) return them; the rest return an empty vector.
    ///
    /// # Errors
    /// Propagates the underlying entry point's [`EngineError`]
    /// unchanged: unknown user/clip on targeted commands, bus
    /// rejection on editorial injections.
    pub fn apply(&mut self, cmd: &EngineCommand) -> Result<Vec<EngineEvent>, EngineError> {
        match cmd {
            EngineCommand::RegisterUser { profile, now } => {
                self.register_user(profile.clone(), *now);
                Ok(Vec::new())
            }
            EngineCommand::ChangeService { user, service, now } => {
                self.change_service(*user, *service, *now)?;
                Ok(Vec::new())
            }
            EngineCommand::TrainClassifier { category, tokens } => {
                self.train_classifier(*category, tokens);
                Ok(Vec::new())
            }
            EngineCommand::IngestClip {
                title,
                kind,
                duration,
                published,
                geo,
                tokens,
                editorial,
            } => {
                let _ = self.ingest_clip(
                    title.clone(),
                    *kind,
                    *duration,
                    *published,
                    *geo,
                    tokens,
                    *editorial,
                );
                Ok(Vec::new())
            }
            EngineCommand::RecordFix { user, fix } => {
                self.record_fix(*user, *fix);
                Ok(Vec::new())
            }
            EngineCommand::RecordFeedback { event } => {
                self.record_feedback(*event);
                Ok(Vec::new())
            }
            EngineCommand::Inject { user, clip, at, note } => {
                self.inject(*user, *clip, *at, note.clone())?;
                Ok(Vec::new())
            }
            EngineCommand::Skip { user, now } => Ok(self.skip(*user, *now)),
            EngineCommand::Tick { users, now, batch, workers } => {
                let request = TickRequest {
                    users,
                    now: *now,
                    batch: *batch,
                    workers: workers.map(|w| w as usize),
                };
                self.run_tick(&request)
            }
            EngineCommand::AdvancePlayer { user, now } => {
                self.advance_player(*user, *now)?;
                Ok(Vec::new())
            }
            EngineCommand::SetRoadNetwork { network } => {
                self.set_road_network(network.clone());
                Ok(Vec::new())
            }
            EngineCommand::SetGazetteer { gazetteer } => {
                self.set_gazetteer(gazetteer.clone());
                Ok(Vec::new())
            }
        }
    }

    /// Registers a listener and creates their player session. A
    /// listener who is already registered gets a fresh player, which
    /// closes their listening session.
    pub fn register_user(&mut self, profile: UserProfile, now: TimePoint) {
        let user = profile.id;
        let service = profile.favourite_service;
        self.profiles.upsert(profile);
        if self.players.insert(user, Player::new(user, service, now)).is_some() {
            self.sessions_closed += 1;
        }
        self.proactivity.insert(user, ProactivityModel::default());
        self.health.insert(user, UserHealth::new(now));
        self.bus.publish(Topic::Tracking, BusMessage::Tuned { user, service }, now);
    }

    /// Channel surf: tune the listener to another service, which closes
    /// their listening session.
    ///
    /// # Errors
    /// [`EngineError::UnknownUser`] when the listener was never
    /// registered.
    pub fn change_service(
        &mut self,
        user: UserId,
        service: pphcr_catalog::ServiceIndex,
        now: TimePoint,
    ) -> Result<(), EngineError> {
        let Some(player) = self.players.get_mut(&user) else {
            return Err(EngineError::UnknownUser(user));
        };
        player.change_service(service);
        self.sessions_closed += 1;
        self.bus.publish(Topic::Tracking, BusMessage::Tuned { user, service }, now);
        Ok(())
    }

    // `player_mut` is gone on purpose: handing out `&mut Player` let
    // callers mutate player state outside the WAL's append-before-apply
    // envelope, so those mutations silently vanished on crash recovery.
    // External callers drive players through `advance_player` (or the
    // `EngineCommand::AdvancePlayer` command), which is logged like
    // every other input.

    /// Advances a listener's player to `now` against the broadcast
    /// schedule and feeds the resulting player events (feedback and
    /// heard-set bookkeeping) back into the engine.
    ///
    /// This is the command-shaped replacement for handing out `&mut
    /// Player`: the same step a tick performs for the player, available
    /// on its own so editors and tests can audition playback without
    /// running a full tick — and durably, since
    /// [`EngineCommand::AdvancePlayer`] flows through the WAL.
    ///
    /// # Errors
    /// [`EngineError::UnknownUser`] when the listener was never
    /// registered.
    pub fn advance_player(
        &mut self,
        user: UserId,
        now: TimePoint,
    ) -> Result<Vec<PlayerEvent>, EngineError> {
        let Some(player) = self.players.get_mut(&user) else {
            return Err(EngineError::UnknownUser(user));
        };
        let events = player.tick(now, &self.epg, &mut self.obs);
        self.apply_player_events(user, &events);
        Ok(events)
    }

    /// Read access to a listener's player.
    #[must_use]
    pub fn player(&self, user: UserId) -> Option<&Player> {
        self.players.get(&user)
    }

    /// Trains the clip classifier with one labelled document.
    pub fn train_classifier(&mut self, category: CategoryId, tokens: &[String]) {
        let ids = self.vocab.intern_all(tokens);
        self.classifier.train(u32::from(category.0), &ids);
        self.classifier_docs += 1;
    }

    /// Number of classifier training documents.
    #[must_use]
    pub fn classifier_docs(&self) -> u64 {
        self.classifier_docs
    }

    /// Ingests a clip: classify the transcript (unless an editorial
    /// label is supplied), store its metadata, announce on the bus.
    /// Returns the clip id and the category it was filed under.
    #[allow(clippy::too_many_arguments)]
    pub fn ingest_clip(
        &mut self,
        title: impl Into<String>,
        kind: ClipKind,
        duration: TimeSpan,
        published: TimePoint,
        geo: Option<GeoTag>,
        transcript_tokens: &[String],
        editorial_category: Option<CategoryId>,
    ) -> (ClipId, CategoryId) {
        let id = ClipId(self.next_clip_id);
        self.next_clip_id += 1;
        // Estimate geographic relevance from the transcript when the
        // editor supplied no tag.
        let geo = geo.or_else(|| self.gazetteer.as_ref().and_then(|g| g.tag(transcript_tokens)));
        let token_ids: Vec<u32> =
            transcript_tokens.iter().filter_map(|t| self.vocab.get(t)).collect();
        let (category, confidence) = match editorial_category {
            Some(c) => (c, 1.0),
            None => match self.classifier.predict(&token_ids) {
                Some(pred) => (CategoryId::new(pred.category as u16), pred.confidence),
                None => (CategoryId::new(1), 1.0 / f64::from(CATEGORY_COUNT)),
            },
        };
        self.repo.ingest(ClipMetadata {
            id,
            title: title.into(),
            kind,
            category,
            category_confidence: confidence,
            duration,
            published,
            geo,
            transcript: token_ids,
        });
        self.bus.publish(Topic::Ingest, BusMessage::Ingested { clip: id, confidence }, published);
        (id, category)
    }

    /// Records a GPS fix from a listener's device.
    ///
    /// The fix travels the bus's Tracking topic: on a faulty transport
    /// it may be lost, delayed or reordered before it reaches the
    /// tracking store. Telemetry from unregistered devices is accepted
    /// (users may stream fixes before completing registration).
    pub fn record_fix(&mut self, user: UserId, fix: GpsFix) {
        self.bus.publish(Topic::Tracking, BusMessage::Fix { user, fix }, fix.time);
        self.pump_tracking();
    }

    /// Drains the Tracking topic and applies every fix that actually
    /// arrived.
    fn pump_tracking(&mut self) {
        for envelope in self.bus.drain(Topic::Tracking) {
            if let BusMessage::Fix { user, fix } = envelope.message {
                self.apply_fix(user, fix);
            }
            // Tuned announcements need no engine-side handling.
        }
    }

    /// Applies one arrived fix: tracking store, then trip tracker. A
    /// fix the tracking store drops as invalid stops there.
    fn apply_fix(&mut self, user: UserId, fix: GpsFix) {
        self.tracking.record(user, fix);
        // Keep the hot-state revision mirror in sync (reading the count
        // back rather than incrementing: invalid fixes are dropped).
        self.hot.note_fix_count(user, self.tracking.fix_count(user));
        if fix.validate().is_err() {
            return;
        }
        let pos = self.tracking.projection().project(fix.point);
        let tracker = self.trips.entry(user).or_default();
        if fix.speed_mps > 2.5 {
            if tracker.driving_since.is_none() {
                tracker.driving_since = Some(fix.time);
                tracker.path.clear();
                tracker.origin_stay = None; // resolved lazily at tick
            }
            if tracker.path.len() < 2_048 {
                tracker.path.push(pos);
            }
        } else if fix.speed_mps < 1.0 {
            if tracker.driving_since.is_some() {
                self.proactivity.entry(user).or_default().reset();
            }
            *tracker = TripTracker::default();
        }
    }

    /// Records a feedback event (from a player or synthetic). Like
    /// fixes, feedback rides the bus and is only learned from once it
    /// arrives.
    pub fn record_feedback(&mut self, event: FeedbackEvent) {
        self.bus.publish(Topic::Feedback, BusMessage::Feedback(event), event.time);
        self.pump_feedback();
    }

    /// Drains the Feedback topic into the feedback store.
    fn pump_feedback(&mut self) {
        for envelope in self.bus.drain(Topic::Feedback) {
            if let BusMessage::Feedback(event) = envelope.message {
                self.feedback.record(event);
                self.hot.note_feedback_len(event.user, self.feedback.event_count(event.user));
            }
        }
    }

    /// Re-derives the hot-state revision mirrors (fix counts,
    /// feedback-log lengths) from the authoritative stores. Called once
    /// after a snapshot restore, which rebuilds the stores wholesale
    /// instead of going through the per-event mirror updates.
    pub(crate) fn rebuild_hot_mirrors(&mut self) {
        for user in self.tracking.known_users() {
            let count = self.tracking.fix_count(user);
            self.hot.note_fix_count(user, count);
        }
        for user in self.feedback.known_users() {
            let len = self.feedback.event_count(user);
            self.hot.note_feedback_len(user, len);
        }
    }

    /// Editor-side injection (the Fig. 6 dashboard action).
    ///
    /// # Errors
    /// [`EngineError::UnknownUser`] / [`EngineError::UnknownClip`] for
    /// a bad target, [`EngineError::BusRejected`] when the bounded
    /// Editorial queue refuses the submission (the editor must see the
    /// failure, not lose the push silently).
    pub fn inject(
        &mut self,
        user: UserId,
        clip: ClipId,
        now: TimePoint,
        note: impl Into<String>,
    ) -> Result<(), EngineError> {
        if !self.players.contains_key(&user) {
            return Err(EngineError::UnknownUser(user));
        }
        if self.repo.get(clip).is_none() {
            return Err(EngineError::UnknownClip(clip));
        }
        self.bus.publish_checked(
            Topic::Editorial,
            BusMessage::Inject { user, clip, at: now },
            now,
        )?;
        self.injections.submit(user, clip, now, note);
        Ok(())
    }

    /// Clips this listener has already had queued (never
    /// re-recommend), sorted by id so consumers iterate
    /// deterministically.
    #[must_use]
    pub fn heard(&self, user: UserId) -> Vec<ClipId> {
        let mut out: Vec<ClipId> =
            self.hot.heard_ref(user).map_or_else(Vec::new, |set| set.iter().copied().collect());
        out.sort_unstable();
        out
    }

    /// The dashboard's decision trace.
    #[must_use]
    pub fn decisions(&self) -> &[DecisionRecord] {
        &self.decisions
    }

    /// Applies player events: feedback into the store, heard-set
    /// bookkeeping.
    pub fn apply_player_events(&mut self, user: UserId, events: &[PlayerEvent]) {
        for ev in events {
            match ev {
                PlayerEvent::Feedback(f) => self.record_feedback(*f),
                PlayerEvent::ClipStarted(clip) => self.hot.heard_insert(user, *clip),
                _ => {}
            }
        }
    }

    /// Distraction zones where non-plain junctions lie near the route.
    #[must_use]
    pub fn zones_for(&self, route: &Polyline) -> Vec<DistractionZone> {
        zones_for_route(self.road_network.as_ref(), self.config.junction_snap_m, route)
    }

    /// Builds the listener context at `now` from tracking state, then
    /// commits the memoizations the build produced (resolved trip
    /// origin, freshly compacted mobility model) back into the stores.
    /// The pure build itself lives in [`build_context`], which the
    /// parallel warm phase calls directly off-thread.
    pub fn context_for(&mut self, user: UserId, now: TimePoint) -> ListenerContext {
        let proj = *self.tracking.projection();
        let fix = self.tracking.recent_fixes(user, 1).last().copied();
        let stale_model = self.tracking.take_stale_model(user);
        let (ctx, origin_resolved, model) = build_context(
            now,
            fix,
            &proj,
            self.trips.get(&user),
            self.tracking.last_model(user),
            stale_model,
            self.tracking.trace(user),
            self.tracking.model_config(),
            &self.config.predictor,
            self.road_network.as_ref(),
            self.config.junction_snap_m,
        );
        if let Some(model) = model {
            self.tracking.install_model(user, model);
        }
        if let Some(origin) = origin_resolved {
            if let Some(t) = self.trips.get_mut(&user) {
                t.origin_stay = Some(origin);
            }
        }
        ctx
    }

    /// The single-user step body: advance the player, learn from its
    /// events, send editorial injections and proactive schedules as
    /// acknowledged deliveries over the bus, and sweep the retry
    /// ledger. A batch tick hands in the context its warm phase already
    /// built via `warmed`; [`Engine::run_tick`] guarantees the user is
    /// registered before this runs.
    fn tick_user(
        &mut self,
        user: UserId,
        now: TimePoint,
        warmed: Option<Warmed>,
        sweep: bool,
    ) -> Vec<EngineEvent> {
        let mut out = Vec::new();
        self.bus.advance_clock(now);
        // 0. Collect telemetry that was still on the wire.
        self.pump_tracking();
        self.pump_feedback();
        // 1. Advance the player.
        if let Some(player) = self.players.get_mut(&user) {
            let events = player.tick(now, &self.epg, &mut self.obs);
            self.apply_player_events(user, &events);
        }
        // 2. Send pending editorial injections as tracked deliveries.
        let pending = self.injections.take(user);
        for inj in pending {
            if let Some(meta) = self.repo.get(inj.clip) {
                if self.players.contains_key(&user) {
                    // Sender-side heard bookkeeping: never re-recommend a
                    // clip an editor already pushed, delivered or not.
                    self.hot.heard_insert(user, meta.id);
                    self.obs.inc("injection.sent");
                    self.send_tracked(
                        user,
                        BusMessage::Inject { user, clip: meta.id, at: inj.submitted_at },
                        now,
                    );
                }
            }
        }
        self.pump_recommendations(now, &mut out);
        // 3. Proactive loop. A warm-phase context is identical to what
        // `context_for` would compute here — nothing that feeds it can
        // change between the batch preamble and this user's turn — so
        // reusing it is pure memoization, not a behavioral fork.
        let ctx = match warmed {
            Some(w) => w.ctx,
            None => self.context_for(user, now),
        };
        self.note_stale_model(user, &ctx, now);
        if let Some(drive) = ctx.drive.as_ref() {
            self.obs.inc("trip.predicted");
            out.push(EngineEvent::TripPredicted {
                user,
                destination: drive.prediction.destination,
                confidence: drive.prediction.confidence,
                delta_t: drive.delta_t(),
            });
        }
        let trigger = self.proactivity.entry(user).or_default().observe(&ctx);
        if let Some(trigger) = trigger {
            self.obs.inc("proactive.triggers");
            let (ranked, stats) = self.ranked_candidates_stats(user, &ctx, now);
            let mut entry = trace_entry(user, now, trigger, &stats, &ranked);
            if let Some(drive) = ctx.drive.as_ref() {
                let schedule = self.recommender.scheduler.pack(&ranked, drive, now);
                if !schedule.items.is_empty() {
                    entry.scheduled = schedule.items.len() as u64;
                    entry.verdict = Verdict::Scheduled;
                    self.obs.inc("schedule.delivered");
                    self.obs.observe("schedule.items", entry.scheduled);
                    if self.players.contains_key(&user) {
                        for item in &schedule.items {
                            self.hot.heard_insert(user, item.clip);
                        }
                        self.send_tracked(
                            user,
                            BusMessage::Delivery { user, schedule: schedule.clone() },
                            now,
                        );
                    }
                    self.decisions.push(DecisionRecord {
                        user,
                        at: now,
                        trigger,
                        schedule,
                        confidence: ctx.drive.as_ref().map_or(0.0, |d| d.prediction.confidence),
                    });
                }
            }
            match entry.verdict {
                Verdict::Scheduled => {}
                Verdict::NoCandidates => self.obs.inc("proactive.no_candidates"),
                Verdict::EmptySchedule => self.obs.inc("proactive.empty_schedule"),
            }
            if self.obs.is_enabled() {
                self.obs_trace.push(entry);
            }
        }
        self.pump_recommendations(now, &mut out);
        // 4. Retry sweep: re-send unacknowledged deliveries whose
        // backoff timer fired; dead-letter the ones out of budget. The
        // first sweep at a given `now` re-arms everything due, so a
        // batch runs it for its first user only — per-user sweeps were
        // guaranteed no-ops that still scanned the whole ledger,
        // O(users × outstanding) per batch tick.
        if sweep {
            self.sweep_retries(now);
        }
        out
    }

    /// The engine step, for one listener ([`TickRequest::single`]) or a
    /// population ([`TickRequest::batch`]). Returns the events in
    /// delivery order.
    ///
    /// For batch requests the telemetry is drained once for the whole
    /// batch — exactly what the first sequential step would do, so
    /// contexts are stable from here through the user loop — and the
    /// listener contexts plus ranked candidate lists are computed by
    /// the sharded worker pool. The event stream is bit-identical to
    /// stepping each user in order: the parallel phase only *memoizes*
    /// — workers hand back fully built contexts and scored lists keyed
    /// by component-wise revisions, and the sequential loop becomes
    /// apply-only, recomputing anything the key cannot vouch for.
    /// Worker count therefore cannot change observable behavior, only
    /// wall-clock time — and because per-shard metric registries merge
    /// by exact integer addition, it cannot change the observability
    /// snapshot either.
    ///
    /// # Errors
    /// [`EngineError::UnknownUser`] for the first unregistered user in
    /// request order. Validation happens up front, before any clock
    /// advance, pump, or tick-sequence bump — a rejected request leaves
    /// the engine untouched, so batch and single-user callers see one
    /// typed contract instead of the old silent skip.
    pub fn run_tick(&mut self, request: &TickRequest<'_>) -> Result<Vec<EngineEvent>, EngineError> {
        if let Some(&user) = request.users.iter().find(|u| !self.players.contains_key(u)) {
            return Err(EngineError::UnknownUser(user));
        }
        self.tick_seq += 1;
        let span = Span::enter("engine.tick");
        let mut warmed: Vec<Option<Warmed>> = Vec::new();
        if request.batch {
            self.bus.advance_clock(request.now);
            self.pump_tracking();
            self.pump_feedback();
            let workers = request.workers.unwrap_or(self.config.worker_threads).max(1);
            warmed = self.warm_users(request.users, request.now, workers);
        }
        let mut events = Vec::new();
        for (idx, &user) in request.users.iter().enumerate() {
            let warm = warmed.get_mut(idx).and_then(Option::take);
            events.extend(self.tick_user(user, request.now, warm, idx == 0));
        }
        span.finish(&mut self.obs);
        self.obs.inc("engine.ticks");
        self.obs.add("engine.tick_users", request.users.len() as u64);
        Ok(events)
    }

    /// The cache key for `user`'s ranked candidates at `now` under
    /// context `ctx` (see [`CandidateCacheKey`] for the components).
    fn candidate_cache_key(
        &self,
        user: UserId,
        ctx: &ListenerContext,
        now: TimePoint,
    ) -> CandidateCacheKey {
        CandidateCacheKey::compose(
            self.repo.epoch(),
            self.hot.feedback_len(user),
            self.hot.heard_len(user),
            now,
            ctx,
            &self.config.cache_quanta,
        )
    }

    /// The user's ranked candidate list: served from the per-user cache
    /// when every input revision matches, recomputed (and re-cached)
    /// otherwise. Uses the index-backed retrieval path, which is
    /// differentially tested to be bit-identical to the linear scan.
    fn ranked_candidates(
        &mut self,
        user: UserId,
        ctx: &ListenerContext,
        now: TimePoint,
    ) -> Vec<ScoredClip> {
        self.ranked_candidates_stats(user, ctx, now).0
    }

    /// [`Self::ranked_candidates`] plus the retrieval-stage counters —
    /// replayed from the cache on a hit, so the decision trace records
    /// the same numbers whether the warm phase ran or not.
    fn ranked_candidates_stats(
        &mut self,
        user: UserId,
        ctx: &ListenerContext,
        now: TimePoint,
    ) -> (Vec<ScoredClip>, RetrievalStats) {
        let key = self.candidate_cache_key(user, ctx, now);
        if let Some(entry) = self.hot.cache(user) {
            if entry.key == key {
                let hit = (entry.ranked.clone(), entry.stats);
                // Same-tick serves of a just-warmed entry and genuine
                // cross-tick reuse are different claims; count them
                // apart (the old blended "cache_hits" read as reuse
                // even when nothing survived a tick).
                if entry.warmed_at == self.tick_seq {
                    self.obs.inc("candidates.warm_serve");
                } else {
                    self.obs.inc("candidates.cross_tick_hit");
                }
                return hit;
            }
        }
        self.obs.inc("candidates.cache_misses");
        let prefs = self.feedback.preferences(user, now);
        let empty = HashSet::new();
        let heard = self.hot.heard_ref(user).unwrap_or(&empty);
        let (ranked, stats) = self.recommender.filter.candidates_indexed_excluding_stats(
            &self.repo,
            &prefs,
            ctx,
            &self.recommender.weights,
            heard,
        );
        self.obs.observe("candidates.ranked_len", ranked.len() as u64);
        let warmed_at = self.tick_seq;
        self.hot
            .insert_cache(user, CachedCandidates { key, ranked: ranked.clone(), stats, warmed_at });
        (ranked, stats)
    }

    /// The parallel warm phase: builds every registered user's listener
    /// context off-thread — mobility-model compaction, trip prediction,
    /// distraction zones — and, for users whose proactivity model is
    /// about to fire, a fully scored ranked candidate list, unless a
    /// cached entry's component-wise key already vouches for one.
    ///
    /// Workers only read (`&` borrows of the stores plus the hot-state
    /// columns — no heard-set cloning); everything they produce comes
    /// back as a [`WarmOutcome`] and is committed by this thread in
    /// request order, so the sequential loop is apply-only. Users are
    /// assigned to one of [`USER_SHARDS`] logical shards by a `UserId`
    /// hash and each worker owns the shards congruent to its slot, so
    /// user→worker placement is deterministic and independent of batch
    /// composition; per-shard metric registries merge by exact integer
    /// addition in slot order.
    ///
    /// Returns one slot per requested user, `Some` for registered ones.
    fn warm_users(
        &mut self,
        users: &[UserId],
        now: TimePoint,
        workers: usize,
    ) -> Vec<Option<Warmed>> {
        /// Inputs for one user's warm job: borrowed from the stores for
        /// the lifetime of the scoped workers, except a stale model,
        /// which the job owns.
        struct WarmJob<'a> {
            idx: usize,
            user: UserId,
            fix: Option<GpsFix>,
            tracker: Option<&'a TripTracker>,
            current_model: Option<&'a MobilityModel>,
            stale_model: Option<MobilityModel>,
            trace: Option<&'a Trace>,
            proactivity: Option<&'a ProactivityModel>,
            heard: Option<&'a HashSet<ClipId>>,
            feedback_events: usize,
            heard_len: usize,
            existing_key: Option<CandidateCacheKey>,
        }
        /// Everything a worker hands back for the apply-only commit.
        struct WarmOutcome {
            idx: usize,
            user: UserId,
            ctx: ListenerContext,
            origin_resolved: Option<u32>,
            model: Option<MobilityModel>,
            cache_fill: Option<CachedCandidates>,
        }
        let mut warmed: Vec<Option<Warmed>> = Vec::new();
        warmed.resize_with(users.len(), || None);
        // A driving listener's stale model moves into its job, so
        // compaction reuses it without copying and the commit drops
        // nothing. `run_tick` has checked that every user is
        // registered, so every model taken here reaches a job.
        let mut stale_models: Vec<Option<MobilityModel>> = users
            .iter()
            .map(|&user| {
                let driving = self.hot.fix_count(user) > 0
                    && self.trips.get(&user).is_some_and(|t| t.driving_since.is_some());
                if driving {
                    self.tracking.take_stale_model(user)
                } else {
                    None
                }
            })
            .collect();
        let (runs, warm_span) = {
            let repo = &self.repo;
            let feedback = &self.feedback;
            let tracking = &self.tracking;
            let trips = &self.trips;
            let proactivity = &self.proactivity;
            let players = &self.players;
            let hot = &self.hot;
            let weights = self.recommender.weights;
            let filter = self.recommender.filter;
            let predictor = &self.config.predictor;
            let net = self.road_network.as_ref();
            let snap_m = self.config.junction_snap_m;
            let quanta = self.config.cache_quanta;
            let epoch = repo.epoch();
            let tick_seq = self.tick_seq;
            let proj = *tracking.projection();
            let model_config = tracking.model_config();
            let obs_enabled = self.obs.is_enabled();
            let mut jobs: Vec<WarmJob<'_>> = Vec::with_capacity(users.len());
            for (idx, &user) in users.iter().enumerate() {
                if !players.contains_key(&user) {
                    continue;
                }
                // The hot fix-count column answers "any GPS at all?"
                // without probing the tracking store's maps; fixless
                // users (the stationary bulk of a large fleet) skip
                // them entirely.
                let has_fixes = hot.fix_count(user) > 0;
                jobs.push(WarmJob {
                    idx,
                    user,
                    fix: if has_fixes {
                        tracking.recent_fixes(user, 1).last().copied()
                    } else {
                        None
                    },
                    tracker: trips.get(&user),
                    current_model: if has_fixes { tracking.last_model(user) } else { None },
                    stale_model: stale_models[idx].take(),
                    trace: if has_fixes { tracking.trace(user) } else { None },
                    proactivity: proactivity.get(&user),
                    heard: hot.heard_ref(user),
                    feedback_events: hot.feedback_len(user),
                    heard_len: hot.heard_len(user),
                    existing_key: hot.cache(user).map(|e| e.key),
                });
            }
            let shard_registry =
                move || if obs_enabled { Registry::new() } else { Registry::disabled() };
            let warm_one = |job: WarmJob<'_>, reg: &mut Registry| -> WarmOutcome {
                let (ctx, origin_resolved, model) = build_context(
                    now,
                    job.fix,
                    &proj,
                    job.tracker,
                    job.current_model,
                    job.stale_model,
                    job.trace,
                    model_config,
                    predictor,
                    net,
                    snap_m,
                );
                let fires = match job.proactivity {
                    Some(model) => model.would_trigger(&ctx),
                    None => ProactivityModel::default().would_trigger(&ctx),
                };
                let mut cache_fill = None;
                if fires {
                    let key = CandidateCacheKey::compose(
                        epoch,
                        job.feedback_events,
                        job.heard_len,
                        now,
                        &ctx,
                        &quanta,
                    );
                    if job.existing_key != Some(key) {
                        let prefs = feedback.preferences(job.user, now);
                        let empty = HashSet::new();
                        let heard = job.heard.unwrap_or(&empty);
                        let (ranked, stats) = filter.candidates_indexed_excluding_stats(
                            repo, &prefs, &ctx, &weights, heard,
                        );
                        reg.inc("candidates.warmed");
                        reg.observe("candidates.ranked_len", ranked.len() as u64);
                        cache_fill =
                            Some(CachedCandidates { key, ranked, stats, warmed_at: tick_seq });
                    }
                }
                WarmOutcome {
                    idx: job.idx,
                    user: job.user,
                    ctx,
                    origin_resolved,
                    model,
                    cache_fill,
                }
            };
            // Clamp the thread fan-out to what the job list can
            // amortize: tiny fleets (fewer jobs than the per-worker
            // floor) run inline, and no thread is spawned for a shard
            // range that holds no user. `USER_SHARDS` is 64, so one
            // bit per shard covers the space.
            let mut shard_mask = 0u64;
            for job in &jobs {
                shard_mask |= 1u64 << (splitmix64(job.user.0) % USER_SHARDS);
            }
            let workers =
                effective_warm_workers(workers, jobs.len(), shard_mask.count_ones() as usize);
            // Each worker owns the jobs of the shards congruent to its
            // slot, in request order.
            let parts: Vec<Vec<WarmJob<'_>>> = if workers <= 1 {
                vec![jobs]
            } else {
                let mut parts: Vec<Vec<WarmJob<'_>>> = (0..workers).map(|_| Vec::new()).collect();
                for job in jobs {
                    let shard = splitmix64(job.user.0) % USER_SHARDS;
                    parts[(shard % workers as u64) as usize].push(job);
                }
                parts
            };
            let warm_span = Span::enter("engine.warm");
            let runs: Vec<(Vec<WarmOutcome>, Registry)> = if workers <= 1 {
                let mut reg = shard_registry();
                let out = parts.into_iter().flatten().map(|job| warm_one(job, &mut reg)).collect();
                vec![(out, reg)]
            } else {
                std::thread::scope(|s| {
                    let warm_one = &warm_one;
                    let handles: Vec<_> = parts
                        .into_iter()
                        .map(|part| {
                            s.spawn(move || {
                                let mut reg = shard_registry();
                                let out = part
                                    .into_iter()
                                    .map(|job| warm_one(job, &mut reg))
                                    .collect::<Vec<_>>();
                                (out, reg)
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        // lint: allow(expect) — re-raising a worker panic; the closure runs lint-clean code
                        .map(|h| h.join().expect("warm worker panicked"))
                        .collect()
                })
            };
            (runs, warm_span)
        };
        // The span brackets exactly the worker fan-out — the
        // parallelizable region, whose 1-worker over w-worker time is
        // the warm-phase speedup E13 gates.
        warm_span.finish(&mut self.obs);
        // Commit per-shard registries in slot order. Counter and
        // histogram merging is exact integer addition — commutative and
        // associative — so the merged totals are identical for any
        // worker count over the same work list. Each worker's run is in
        // request order, and one run is already the whole batch; a
        // stable sort merges several.
        let mut outcomes: Vec<WarmOutcome> = Vec::new();
        for (out, reg) in runs {
            self.obs.merge_from(&reg);
            if outcomes.is_empty() {
                outcomes = out;
            } else {
                outcomes.extend(out);
            }
        }
        outcomes.sort_by_key(|o| o.idx);
        // Apply-only commit, in request order: install memoized models
        // and trip origins, fill the candidate cache, hand contexts to
        // the sequential loop.
        for o in outcomes {
            if let Some(model) = o.model {
                self.tracking.install_model(o.user, model);
            }
            if let Some(origin) = o.origin_resolved {
                if let Some(t) = self.trips.get_mut(&o.user) {
                    t.origin_stay = Some(origin);
                }
            }
            if let Some(fill) = o.cache_fill {
                self.hot.insert_cache(o.user, fill);
            }
            warmed[o.idx] = Some(Warmed { ctx: o.ctx });
        }
        warmed
    }

    /// Publishes a message on the Recommendation topic and registers it
    /// in the ack/retry ledger.
    fn send_tracked(&mut self, user: UserId, message: BusMessage, now: TimePoint) {
        if let Ok(envelope) = self.bus.publish_checked(Topic::Recommendation, message, now) {
            // The registration jitter is keyed on the delivery itself
            // (seed ⊕ user ⊕ send time), not drawn from the shared
            // chaos stream: a listener's first backoff must not depend
            // on how many unrelated deliveries preceded it globally,
            // or a sharded deployment (which splits that global order)
            // could not reproduce the single-process timings.
            let mut jitter_rng = ChaosRng::new(
                self.config
                    .chaos_seed
                    .wrapping_add(user.0.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    .wrapping_add(now.seconds().wrapping_mul(0xBF58_476D_1CE4_E5B9)),
            );
            self.delivery.register(
                user,
                envelope,
                now,
                &self.config.backoff,
                &mut jitter_rng,
                &mut self.obs,
            );
        }
    }

    /// Counts a prediction made from stale tracking input (the latest
    /// stored fix is older than the configured threshold — fixes were
    /// lost or delayed on the wire, and the mobility model is reused
    /// as-is).
    fn note_stale_model(&mut self, user: UserId, ctx: &ListenerContext, now: TimePoint) {
        if ctx.drive.is_none() {
            return;
        }
        let stale = self
            .tracking
            .recent_fixes(user, 1)
            .last()
            .is_some_and(|f| now.since(f.time) > self.config.stale_fix_after);
        if stale {
            if let Some(h) = self.health.get_mut(&user) {
                h.stale_model_reuses += 1;
            }
            self.obs.inc("health.stale_model_reuse");
        }
    }

    /// Records a delivery failure for the listener and applies the
    /// ladder's side effects: stepping onto `BroadcastOnly` abandons
    /// personalization and pins the player to the live stream.
    fn note_failure(&mut self, user: UserId, now: TimePoint) {
        let health = self.health.entry(user).or_insert_with(|| UserHealth::new(now));
        let before = health.state();
        health.record_failure(now);
        let after = health.state();
        if after != before {
            self.obs.inc("health.transitions");
            self.obs.inc("health.step_down");
        }
        if after == HealthState::BroadcastOnly && before != HealthState::BroadcastOnly {
            if let Some(player) = self.players.get_mut(&user) {
                player.fallback_live();
            }
        }
    }

    /// Drains arrived Recommendation deliveries and applies them to the
    /// target players: duplicate-filtered by sequence number, guarded
    /// by the unicast clip fetch, acknowledged on success, and mapped
    /// onto the degradation ladder on failure.
    fn pump_recommendations(&mut self, now: TimePoint, out: &mut Vec<EngineEvent>) {
        for envelope in self.bus.drain(Topic::Recommendation) {
            let target = match &envelope.message {
                BusMessage::Inject { user, .. } | BusMessage::Delivery { user, .. } => *user,
                _ => continue,
            };
            if self.delivery.seen(envelope.seq) {
                self.delivery.note_duplicate();
                self.obs.inc("delivery.duplicates");
                if let Some(h) = self.health.get_mut(&target) {
                    h.dup_deliveries += 1;
                }
                continue;
            }
            if !self.players.contains_key(&target) {
                // No device to deliver to; acknowledge so the ledger
                // does not retry into the void.
                self.delivery.mark_delivered(envelope.seq);
                continue;
            }
            // The personalized audio itself travels over unicast; a
            // failed or timed-out fetch means the delivery did not
            // complete and will be retried.
            let fetched = self.unicast.fetch().is_ok();
            if !fetched {
                self.obs.inc("delivery.fetch_failures");
                if let Some(h) = self.health.get_mut(&target) {
                    h.fetch_failures += 1;
                }
                self.note_failure(target, now);
                self.replay_last_acked(target, out);
                continue;
            }
            let was_broadcast_only = self.health_of(target) == Some(HealthState::BroadcastOnly);
            let mut stepped_up = false;
            if let Some(h) = self.health.get_mut(&target) {
                let before = h.state();
                h.record_success(now);
                stepped_up = h.state() != before;
            }
            if stepped_up {
                self.obs.inc("health.transitions");
                self.obs.inc("health.step_up");
            }
            self.obs.inc("delivery.success");
            self.delivery.mark_delivered(envelope.seq);
            if was_broadcast_only {
                // The fetch doubled as a recovery probe; the listener
                // stays pinned to live until the ok-streak climbs the
                // ladder, so the content is not queued.
                continue;
            }
            match envelope.message {
                BusMessage::Inject { user, clip, .. } => {
                    if let Some(meta) = self.repo.get(clip) {
                        let queued = QueuedClip {
                            clip: meta.id,
                            duration: meta.duration,
                            category: meta.category,
                        };
                        if let Some(player) = self.players.get_mut(&user) {
                            player.enqueue_front(queued);
                            self.hot.heard_insert(user, clip);
                            // Editorial → Recommendation is one forward hop.
                            out.push(EngineEvent::InjectionDelivered {
                                user,
                                clip,
                                hops: envelope.hops + 1,
                            });
                        }
                    }
                }
                BusMessage::Delivery { user, schedule } => {
                    let queued: Vec<QueuedClip> = schedule
                        .items
                        .iter()
                        .filter_map(|item| {
                            self.repo.get(item.clip).map(|meta| QueuedClip {
                                clip: meta.id,
                                duration: meta.duration,
                                category: meta.category,
                            })
                        })
                        .collect();
                    if let Some(player) = self.players.get_mut(&user) {
                        for q in &queued {
                            self.hot.heard_insert(user, q.clip);
                        }
                        player.enqueue(queued);
                    }
                    self.last_acked.insert(user, schedule.clone());
                    out.push(EngineEvent::Recommended { user, schedule });
                }
                _ => {}
            }
        }
    }

    /// Degraded rung: replay the last acknowledged schedule from the
    /// device's local cache when a fresh delivery could not be fetched
    /// and the queue has run dry.
    fn replay_last_acked(&mut self, user: UserId, out: &mut Vec<EngineEvent>) {
        if self.health_of(user) != Some(HealthState::Degraded) {
            return;
        }
        let Some(schedule) = self.last_acked.get(&user).cloned() else { return };
        let Some(player) = self.players.get_mut(&user) else { return };
        if player.queue_len() > 0 {
            return;
        }
        let queued: Vec<QueuedClip> = schedule
            .items
            .iter()
            .filter_map(|item| {
                self.repo.get(item.clip).map(|meta| QueuedClip {
                    clip: meta.id,
                    duration: meta.duration,
                    category: meta.category,
                })
            })
            .collect();
        if queued.is_empty() {
            return;
        }
        if let Some(player) = self.players.get_mut(&user) {
            player.enqueue(queued);
        }
        if let Some(h) = self.health.get_mut(&user) {
            h.replays += 1;
        }
        self.obs.inc("delivery.replays");
        out.push(EngineEvent::Recommended { user, schedule });
    }

    /// Re-sends unacknowledged deliveries whose backoff timer fired and
    /// dead-letters those that exhausted the retry budget. Every retry
    /// and every abandonment counts as a failure on the listener's
    /// ladder. The `tick.sweep` span's count is the number of sweeps,
    /// which E13 pins to one per tick.
    fn sweep_retries(&mut self, now: TimePoint) {
        let span = Span::enter("tick.sweep");
        let (to_retry, to_dead_letter) = self.delivery.due_retries(
            now,
            &self.config.backoff,
            &mut self.chaos_rng,
            &mut self.obs,
        );
        for d in to_retry {
            self.note_failure(d.user, now);
            self.bus.resend(Topic::Recommendation, d.envelope, now);
        }
        for d in to_dead_letter {
            self.note_failure(d.user, now);
            self.bus.dead_letter_exhausted(Topic::Recommendation, d.envelope, now);
        }
        span.finish(&mut self.obs);
    }

    /// Manual skip (the Greg scenario, §2.1.1): negative feedback, then
    /// — if the queue is empty — a reactive recommendation so the
    /// listener "surfs a list of suggested audio clips" instead of
    /// changing channel.
    pub fn skip(&mut self, user: UserId, now: TimePoint) -> Vec<EngineEvent> {
        let mut out = Vec::new();
        // Refill the queue first if needed, so the skip lands on content.
        let needs_refill = self.players.get(&user).is_some_and(|p| p.queue_len() == 0);
        if needs_refill {
            let ctx = self.context_for(user, now);
            let ranked = self.ranked_candidates(user, &ctx, now);
            for cand in ranked.iter().take(3) {
                if let Some(meta) = self.repo.get(cand.clip) {
                    if let Some(player) = self.players.get_mut(&user) {
                        player.enqueue([QueuedClip {
                            clip: meta.id,
                            duration: meta.duration,
                            category: meta.category,
                        }]);
                        self.hot.heard_insert(user, meta.id);
                        out.push(EngineEvent::ReactiveQueued { user, clip: meta.id });
                    }
                }
            }
        }
        if let Some(player) = self.players.get_mut(&user) {
            let events = player.skip(now, &self.epg);
            self.apply_player_events(user, &events);
        }
        out
    }

    /// Read access to the observability registry (counters, gauges,
    /// histograms, span timings).
    #[must_use]
    pub fn obs(&self) -> &Registry {
        &self.obs
    }

    /// The bounded per-decision trace ring.
    #[must_use]
    pub fn obs_trace(&self) -> &DecisionTrace {
        &self.obs_trace
    }

    /// Captures the deterministic observability snapshot: every
    /// registry counter/gauge/histogram, platform-level gauges (bus,
    /// delivery ledger, health ladder, catalog) and the decision
    /// trace. Bit-identical across runs and warm-phase worker counts
    /// for the same seeded inputs — wall-clock span timings are
    /// deliberately excluded.
    #[must_use]
    pub fn obs_snapshot(&self) -> ObsSnapshot {
        let mut snap = ObsSnapshot::capture(&self.obs, &self.obs_trace);
        let health = self.health_counts();
        snap.set_gauge("bus.dead_letters", self.bus.dead_letters().len() as i64);
        snap.set_gauge("bus.delivered", self.bus.delivered() as i64);
        snap.set_gauge("bus.overflowed", self.bus.overflowed() as i64);
        snap.set_gauge("bus.published", self.bus.published() as i64);
        snap.set_gauge("bus.rejected", self.bus.rejected() as i64);
        snap.set_gauge("catalog.clips", self.repo.len() as i64);
        snap.set_gauge("catalog.epoch", self.repo.epoch() as i64);
        snap.set_gauge("delivery.duplicates_filtered", self.delivery.duplicates_filtered() as i64);
        snap.set_gauge("delivery.outstanding", self.delivery.outstanding_count() as i64);
        snap.set_gauge("delivery.retries", self.delivery.retries() as i64);
        snap.set_gauge("health.broadcast_only", health.broadcast_only as i64);
        snap.set_gauge("health.degraded", health.degraded as i64);
        snap.set_gauge("health.healthy", health.healthy as i64);
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pphcr_catalog::ServiceIndex;
    use pphcr_userdata::{AgeBand, FeedbackKind};

    fn torino() -> GeoPoint {
        GeoPoint::new(45.0703, 7.6869)
    }

    fn engine() -> Engine {
        Engine::new(EngineConfig::default())
    }

    fn profile(id: u64) -> UserProfile {
        UserProfile {
            id: UserId(id),
            name: format!("user {id}"),
            age_band: AgeBand::Adult,
            favourite_service: ServiceIndex(0),
        }
    }

    fn tokens(words: &str) -> Vec<String> {
        words.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn effective_workers_collapse_tiny_fleets_to_inline() {
        // The BENCH_e13 regression: 24 users over 8 requested workers
        // gave each thread ~3 jobs and ran at 0.65x of 1 worker. Below
        // the amortization floor the warm phase must run inline.
        assert_eq!(effective_warm_workers(8, 24, 20), 1);
        assert_eq!(effective_warm_workers(8, 0, 0), 1);
        assert_eq!(effective_warm_workers(1, 24, 20), 1);
        // One full floor's worth of jobs still isn't worth two threads.
        assert_eq!(effective_warm_workers(8, WARM_JOBS_PER_WORKER, 40), 1);
        assert_eq!(effective_warm_workers(8, 2 * WARM_JOBS_PER_WORKER, 40), 2);
    }

    #[test]
    fn effective_workers_keep_full_fan_out_for_large_fleets() {
        // 1 000 jobs over all 64 shards: the clamp must not bind.
        assert_eq!(effective_warm_workers(8, 1_000, 64), 8);
        assert_eq!(effective_warm_workers(2, 100_000, 64), 2);
        // Workers beyond the populated shard count would idle.
        assert_eq!(effective_warm_workers(8, 1_000, 3), 3);
        assert_eq!(effective_warm_workers(64, 100_000, 64), 64);
    }

    #[test]
    fn tiny_fleet_events_are_identical_across_requested_worker_counts() {
        // The clamp only repartitions work; the emitted stream must be
        // byte-identical whether 1 or 8 workers were requested.
        let run = |workers: usize| -> Vec<String> {
            let mut e = engine();
            let t = TimePoint::at(0, 9, 0, 0);
            for u in 1..=5u64 {
                e.register_user(profile(u), t);
            }
            for i in 0..6u64 {
                e.ingest_clip(
                    format!("clip {i}"),
                    ClipKind::Podcast,
                    TimeSpan::minutes(4),
                    t,
                    None,
                    &[],
                    Some(CategoryId::new((i % 30) as u16)),
                );
            }
            let ids: Vec<UserId> = (1..=5).map(UserId).collect();
            let mut out = Vec::new();
            for step in 1..=4u64 {
                let now = t.advance(TimeSpan::seconds(step * 30));
                let request = TickRequest::batch(&ids, now).with_workers(workers);
                let events = e.run_tick(&request).expect("registered users");
                out.extend(events.into_iter().map(|ev| format!("{ev:?}")));
            }
            out
        };
        assert_eq!(run(1), run(8));
    }

    #[test]
    fn ingest_with_editorial_label() {
        let mut e = engine();
        let (id, cat) = e.ingest_clip(
            "Decanter",
            ClipKind::Podcast,
            TimeSpan::minutes(15),
            TimePoint::at(0, 6, 0, 0),
            None,
            &[],
            Some(CategoryId::new(8)),
        );
        assert_eq!(cat, CategoryId::new(8));
        assert!(e.repo.get(id).is_some());
        assert_eq!(e.bus.pending(Topic::Ingest), 1);
    }

    #[test]
    fn ingest_classifies_with_trained_model() {
        let mut e = engine();
        for _ in 0..3 {
            e.train_classifier(CategoryId::new(8), &tokens("vino prosecco cantina degustazione"));
            e.train_classifier(CategoryId::new(5), &tokens("goal partita calcio campionato"));
        }
        let (_, cat) = e.ingest_clip(
            "wine talk",
            ClipKind::Podcast,
            TimeSpan::minutes(10),
            TimePoint::at(0, 7, 0, 0),
            None,
            &tokens("degustazione di vino e prosecco"),
            None,
        );
        assert_eq!(cat, CategoryId::new(8));
    }

    #[test]
    fn ingest_without_classifier_files_low_confidence() {
        let mut e = engine();
        let (id, _) = e.ingest_clip(
            "mystery",
            ClipKind::Podcast,
            TimeSpan::minutes(5),
            TimePoint::at(0, 7, 0, 0),
            None,
            &tokens("parole sconosciute"),
            None,
        );
        let meta = e.repo.get(id).unwrap();
        assert!(meta.category_confidence < 0.1);
    }

    #[test]
    fn register_and_player_access() {
        let mut e = engine();
        e.register_user(profile(1), TimePoint::at(0, 8, 0, 0));
        assert!(e.player(UserId(1)).is_some());
        assert!(e.player(UserId(2)).is_none());
        assert_eq!(e.profiles.len(), 1);
    }

    #[test]
    fn injection_reaches_player_front() {
        let mut e = engine();
        let t = TimePoint::at(0, 9, 0, 0);
        e.register_user(profile(1), t);
        let (clip, _) = e.ingest_clip(
            "pushed",
            ClipKind::Podcast,
            TimeSpan::minutes(5),
            t,
            None,
            &[],
            Some(CategoryId::new(2)),
        );
        e.inject(UserId(1), clip, t, "try this").unwrap();
        let events = e
            .run_tick(&TickRequest::single(&UserId(1), t.advance(TimeSpan::seconds(30))))
            .expect("registered");
        assert!(events
            .iter()
            .any(|ev| matches!(ev, EngineEvent::InjectionDelivered { clip: c, .. } if *c == clip)));
        // Next player advance starts the injected clip.
        let pe = e.advance_player(UserId(1), t.advance(TimeSpan::minutes(1))).unwrap();
        assert!(pe.contains(&PlayerEvent::ClipStarted(clip)));
    }

    #[test]
    fn manual_skip_queues_reactive_recommendations() {
        let mut e = engine();
        let t = TimePoint::at(0, 9, 0, 0);
        e.register_user(profile(1), t);
        for i in 0..5u64 {
            e.ingest_clip(
                format!("clip {i}"),
                ClipKind::Podcast,
                TimeSpan::minutes(5),
                t,
                None,
                &[],
                Some(CategoryId::new(9)),
            );
        }
        let events = e.skip(UserId(1), t);
        assert!(
            events.iter().any(|ev| matches!(ev, EngineEvent::ReactiveQueued { .. })),
            "{events:?}"
        );
        // The skip recorded negative feedback? There is no EPG programme,
        // so only the reactive queueing matters; the player started a clip.
        assert!(matches!(
            e.player(UserId(1)).unwrap().mode(),
            crate::player::PlaybackMode::Clip { .. }
        ));
        // Skipping again cycles to the next suggestion (Greg's two skips).
        let _ = e.skip(UserId(1), t.advance(TimeSpan::seconds(30)));
        assert!(matches!(
            e.player(UserId(1)).unwrap().mode(),
            crate::player::PlaybackMode::Clip { .. }
        ));
        assert!(e.feedback.event_count(UserId(1)) >= 1, "skip feedback recorded");
    }

    #[test]
    fn heard_clips_are_not_requeued() {
        let mut e = engine();
        let t = TimePoint::at(0, 9, 0, 0);
        e.register_user(profile(1), t);
        let (only, _) = e.ingest_clip(
            "only clip",
            ClipKind::Podcast,
            TimeSpan::minutes(5),
            t,
            None,
            &[],
            Some(CategoryId::new(9)),
        );
        e.skip(UserId(1), t);
        assert!(e.heard(UserId(1)).contains(&only));
        // Second skip: nothing left to queue.
        let events = e.skip(UserId(1), t.advance(TimeSpan::minutes(1)));
        assert!(events.is_empty());
    }

    #[test]
    fn change_service_logs_surfed_session() {
        let mut e = engine();
        let t0 = TimePoint::at(0, 9, 0, 0);
        e.register_user(profile(1), t0);
        assert_eq!(e.sessions_closed, 0);
        e.change_service(UserId(1), ServiceIndex(4), t0.advance(TimeSpan::minutes(7))).unwrap();
        assert_eq!(e.player(UserId(1)).unwrap().service, ServiceIndex(4));
        assert_eq!(e.sessions_closed, 1, "the surf closes a session");
        e.register_user(profile(1), t0.advance(TimeSpan::minutes(9)));
        assert_eq!(e.sessions_closed, 2, "re-registering closes the open session");
        let ghost =
            e.change_service(UserId(99), ServiceIndex(2), t0.advance(TimeSpan::minutes(10)));
        assert_eq!(ghost, Err(EngineError::UnknownUser(UserId(99))));
        assert_eq!(e.sessions_closed, 2, "an unknown listener has no session to close");
    }

    #[test]
    fn invalid_fix_leaves_the_trip_tracker_alone() {
        let mut e = engine();
        let t0 = TimePoint::at(0, 8, 0, 0);
        let (driver, parked) = (UserId(1), UserId(2));
        e.register_user(profile(1), t0);
        e.register_user(profile(2), t0);
        for i in 0..3u64 {
            let at = t0.advance(TimeSpan::seconds(i * 30));
            e.record_fix(
                driver,
                GpsFix::new(torino().destination(90.0, 400.0 * i as f64), at, 14.0),
            );
        }
        e.record_fix(parked, GpsFix::new(torino(), t0, 0.0));
        e.proactivity.get_mut(&driver).unwrap().restore_state(Some(t0), None);
        let later = t0.advance(TimeSpan::minutes(2));
        // A negative speed mid-drive, a latitude beyond the pole, and a
        // NaN latitude at motorway speed for a parked listener: none may
        // end, stretch or start a trip.
        e.record_fix(driver, GpsFix::new(torino(), later, -1.0));
        e.record_fix(driver, GpsFix::new(GeoPoint::new(200.0, 7.6869), later, 14.0));
        e.record_fix(parked, GpsFix::new(GeoPoint::new(f64::NAN, 7.6869), later, 30.0));
        assert_eq!(e.tracking.dropped_invalid(), 3);
        let trip = &e.trips[&driver];
        assert_eq!(trip.driving_since, Some(t0));
        assert_eq!(trip.path.len(), 3);
        assert!(trip.path.iter().all(|p| p.distance_m(trip.path[0]) < 1_000.0));
        assert_eq!(e.proactivity[&driver].driving_since(), Some(t0));
        let parked_trip = &e.trips[&parked];
        assert_eq!(parked_trip.driving_since, None);
        assert!(parked_trip.path.is_empty());
    }

    #[test]
    fn gazetteer_tags_untagged_ingest() {
        let mut e = engine();
        let mut g = Gazetteer::new();
        g.add_place("stadio", GeoPoint::new(45.1096, 7.6413), 1_500.0);
        e.set_gazetteer(g);
        let (tagged, _) = e.ingest_clip(
            "derby preview",
            ClipKind::NewsBulletin,
            TimeSpan::minutes(4),
            TimePoint::at(0, 7, 0, 0),
            None,
            &tokens("derby allo stadio lo stadio apre presto"),
            Some(CategoryId::new(5)),
        );
        let meta = e.repo.get(tagged).unwrap();
        let tag = meta.geo.expect("gazetteer estimated a tag");
        assert!((tag.point.lat - 45.1096).abs() < 1e-9);
        // Editorial tags always win over estimation.
        let editorial = GeoTag { point: GeoPoint::new(45.0, 7.0), radius_m: 100.0 };
        let (kept, _) = e.ingest_clip(
            "explicit",
            ClipKind::NewsBulletin,
            TimeSpan::minutes(2),
            TimePoint::at(0, 7, 0, 0),
            Some(editorial),
            &tokens("stadio stadio stadio"),
            Some(CategoryId::new(5)),
        );
        assert_eq!(e.repo.get(kept).unwrap().geo, Some(editorial));
    }

    #[test]
    fn zones_require_network() {
        let e = engine();
        let route =
            Polyline::new(vec![ProjectedPoint::new(0.0, 0.0), ProjectedPoint::new(5_000.0, 0.0)]);
        assert!(e.zones_for(&route).is_empty());
    }

    #[test]
    fn zones_found_near_route() {
        let mut e = engine();
        let mut net = RoadNetwork::new();
        let a = net.add_node(ProjectedPoint::new(0.0, 0.0), NodeKind::Plain);
        let b = net.add_node(ProjectedPoint::new(2_000.0, 10.0), NodeKind::Roundabout);
        let c = net.add_node(ProjectedPoint::new(4_000.0, 3_000.0), NodeKind::Intersection);
        net.add_two_way(a, b, 14.0);
        net.add_two_way(b, c, 14.0);
        e.set_road_network(net);
        let route =
            Polyline::new(vec![ProjectedPoint::new(0.0, 0.0), ProjectedPoint::new(5_000.0, 0.0)]);
        let zones = e.zones_for(&route);
        assert_eq!(zones.len(), 1, "only the roundabout is near the route: {zones:?}");
        assert!((zones[0].start_m - (2_000.0 - 60.0)).abs() < 15.0);
    }

    #[test]
    fn context_without_fixes_is_stationary() {
        let mut e = engine();
        e.register_user(profile(1), TimePoint::at(0, 8, 0, 0));
        let ctx = e.context_for(UserId(1), TimePoint::at(0, 8, 5, 0));
        assert!(ctx.position.is_none());
        assert!(ctx.drive.is_none());
        assert_eq!(ctx.speed_mps, 0.0);
    }

    #[test]
    fn candidate_cache_invalidates_component_wise() {
        let mut e = engine();
        let t = TimePoint::at(0, 9, 0, 0);
        e.register_user(profile(1), t);
        for i in 0..5u64 {
            e.ingest_clip(
                format!("clip {i}"),
                ClipKind::Podcast,
                TimeSpan::minutes(5),
                t,
                None,
                &[],
                Some(CategoryId::new(9)),
            );
        }
        let ctx = e.context_for(UserId(1), t);
        let first = e.ranked_candidates(UserId(1), &ctx, t);
        assert_eq!(first.len(), 5);
        let cached_key = e.hot.cache(UserId(1)).unwrap().key;
        assert_eq!(e.ranked_candidates(UserId(1), &ctx, t), first, "cache hit");
        assert_eq!(e.hot.cache(UserId(1)).unwrap().key, cached_key);
        // Ingest bumps the repo epoch: the new clip must appear.
        e.ingest_clip(
            "new clip",
            ClipKind::Podcast,
            TimeSpan::minutes(5),
            t,
            None,
            &[],
            Some(CategoryId::new(9)),
        );
        assert_eq!(e.ranked_candidates(UserId(1), &ctx, t).len(), 6, "epoch invalidates");
        // A feedback write changes the user's event count.
        let key_before = e.hot.cache(UserId(1)).unwrap().key;
        e.record_feedback(FeedbackEvent {
            user: UserId(1),
            clip: None,
            category: CategoryId::new(9),
            kind: FeedbackKind::Like,
            time: t,
        });
        let _ = e.ranked_candidates(UserId(1), &ctx, t);
        assert_ne!(e.hot.cache(UserId(1)).unwrap().key, key_before, "feedback");
        // A GPS fix alone moves no key component: same context, same
        // ranked list, same key. (The old key hashed the raw fix count,
        // which forced a re-rank on every 1 Hz fix — the flat-scaling
        // bug this key replaced.)
        let key_before = e.hot.cache(UserId(1)).unwrap().key;
        let misses_before = e.obs.counter("candidates.cache_misses");
        e.record_fix(UserId(1), GpsFix::new(torino(), t, 0.1));
        let _ = e.ranked_candidates(UserId(1), &ctx, t);
        assert_eq!(e.hot.cache(UserId(1)).unwrap().key, key_before, "fix alone keeps key");
        assert_eq!(e.obs.counter("candidates.cache_misses"), misses_before);
        // A `now` step inside the freshness quantum keeps the key…
        let _ = e.ranked_candidates(UserId(1), &ctx, t.advance(TimeSpan::seconds(30)));
        assert_eq!(e.hot.cache(UserId(1)).unwrap().key, key_before, "sub-quantum step");
        // …and crossing the quantum boundary invalidates.
        let _ = e.ranked_candidates(UserId(1), &ctx, t.advance(e.config.cache_quanta.freshness));
        assert_ne!(e.hot.cache(UserId(1)).unwrap().key, key_before, "freshness quantum");
        // A context change (position appears) moves the context digest.
        let key_before = e.hot.cache(UserId(1)).unwrap().key;
        let moved =
            ListenerContext { position: Some(ProjectedPoint::new(5_000.0, 0.0)), ..ctx.clone() };
        let _ = e.ranked_candidates(UserId(1), &moved, t);
        assert_ne!(e.hot.cache(UserId(1)).unwrap().key, key_before, "context rev");
    }

    #[test]
    fn cache_entry_survives_across_ticks_when_quanta_hold() {
        // Regression for the all-or-nothing `now`-keyed cache: with no
        // revision component moving between two consecutive ticks, the
        // second serve must come from the cross-tick cache, not a miss.
        let mut e = engine();
        let t = TimePoint::at(0, 9, 0, 0);
        e.register_user(profile(1), t);
        for i in 0..5u64 {
            e.ingest_clip(
                format!("clip {i}"),
                ClipKind::Podcast,
                TimeSpan::minutes(5),
                t,
                None,
                &[],
                Some(CategoryId::new(9)),
            );
        }
        let ctx = e.context_for(UserId(1), t);
        // Tick once so tick_seq advances past the warm epoch of the
        // first fill, then fill the cache.
        let _ = e.run_tick(&TickRequest::single(&UserId(1), t)).expect("registered");
        let _ = e.ranked_candidates(UserId(1), &ctx, t);
        assert_eq!(e.obs.counter("candidates.cache_misses"), 1);
        // Next tick: tick_seq moves, the entry does not.
        let _ = e
            .run_tick(&TickRequest::single(&UserId(1), t.advance(TimeSpan::seconds(30))))
            .expect("registered");
        let hits_before = e.obs.counter("candidates.cross_tick_hit");
        let _ = e.ranked_candidates(UserId(1), &ctx, t.advance(TimeSpan::seconds(30)));
        assert_eq!(e.obs.counter("candidates.cache_misses"), 1, "no new miss");
        assert_eq!(
            e.obs.counter("candidates.cross_tick_hit"),
            hits_before + 1,
            "the surviving entry is a cross-tick hit"
        );
    }

    #[test]
    fn tick_batch_rejects_unregistered_users() {
        let mut e = engine();
        let t = TimePoint::at(0, 9, 0, 0);
        assert_eq!(
            e.run_tick(&TickRequest::batch(&[UserId(1), UserId(2)], t)),
            Err(EngineError::UnknownUser(UserId(1)))
        );
        // A mixed batch is rejected before any user ticks.
        e.register_user(profile(1), t);
        assert_eq!(
            e.run_tick(&TickRequest::batch(&[UserId(1), UserId(2)], t)),
            Err(EngineError::UnknownUser(UserId(2)))
        );
        assert!(e.run_tick(&TickRequest::batch(&[UserId(1)], t)).expect("registered").is_empty());
    }

    /// End-to-end proactive flow: a commuter with history starts the
    /// morning drive; the engine predicts the trip and queues clips.
    #[test]
    fn proactive_flow_for_known_commuter() {
        let mut e = engine();
        let t0 = TimePoint::at(0, 0, 0, 0);
        e.register_user(profile(1), t0);
        let home = torino();
        let work = home.destination(80.0, 9_000.0);
        // Seven days of history.
        for day in 0..7u64 {
            let d0 = TimePoint::at(day, 0, 0, 0);
            for i in 0..90u64 {
                e.record_fix(
                    UserId(1),
                    GpsFix::new(home, d0.advance(TimeSpan::minutes(i * 5)), 0.1),
                );
            }
            for i in 0..40u64 {
                let frac = i as f64 / 39.0;
                e.record_fix(
                    UserId(1),
                    GpsFix::new(
                        home.destination(80.0, frac * 9_000.0),
                        d0.advance(TimeSpan::hours(8)).advance(TimeSpan::seconds(i * 30)),
                        7.5,
                    ),
                );
            }
            for i in 0..57u64 {
                e.record_fix(
                    UserId(1),
                    GpsFix::new(work, d0.advance(TimeSpan::minutes(510 + i * 10)), 0.2),
                );
            }
            for i in 0..40u64 {
                let frac = i as f64 / 39.0;
                e.record_fix(
                    UserId(1),
                    GpsFix::new(
                        work.destination(260.0, frac * 9_000.0),
                        d0.advance(TimeSpan::hours(18)).advance(TimeSpan::seconds(i * 30)),
                        7.5,
                    ),
                );
            }
            for i in 0..66u64 {
                e.record_fix(
                    UserId(1),
                    GpsFix::new(home, d0.advance(TimeSpan::minutes(1105 + i * 5)), 0.1),
                );
            }
        }
        // Content to recommend.
        for i in 0..10u64 {
            e.ingest_clip(
                format!("morning clip {i}"),
                ClipKind::Podcast,
                TimeSpan::minutes(4),
                TimePoint::at(7, 5, 0, 0),
                None,
                &[],
                Some(CategoryId::new((i % 5) as u16)),
            );
        }
        // Day 8: the drive starts.
        let d8 = TimePoint::at(7, 8, 0, 0);
        let mut recommended = false;
        for i in 0..12u64 {
            let now = d8.advance(TimeSpan::seconds(i * 30));
            let frac = i as f64 / 39.0;
            e.record_fix(UserId(1), GpsFix::new(home.destination(80.0, frac * 9_000.0), now, 7.5));
            let events = e.run_tick(&TickRequest::single(&UserId(1), now)).expect("registered");
            if events.iter().any(|ev| matches!(ev, EngineEvent::Recommended { .. })) {
                recommended = true;
                break;
            }
        }
        assert!(recommended, "the proactive loop must fire during the commute");
        assert!(
            e.player(UserId(1)).unwrap().queue_len() > 0
                || matches!(
                    e.player(UserId(1)).unwrap().mode(),
                    crate::player::PlaybackMode::Clip { .. }
                )
        );
        assert_eq!(e.decisions().len(), 1);
    }
}
