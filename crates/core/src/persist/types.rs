//! One encode/decode pair per persisted type.
//!
//! Every binary layout of a value type is decided here, once. The WAL
//! op codec ([`super::wal`]) and the snapshot sections
//! ([`super::snapshot`]) call these pairs, and the shard wire carries
//! WAL payloads and the [`ObsSnapshot`] pair, so a type is the same
//! bytes wherever it is written. Each `put_*` sits directly above its
//! `get_*`; no `get_*` panics on hostile bytes.

use super::codec::{ByteReader, ByteWriter};
use super::PersistError;
use crate::bus::{BusMessage, DeadLetter, DeadLetterReason, Envelope, Topic};
use crate::engine::{CachedCandidates, CandidateCacheKey, DecisionRecord, TripTracker};
use crate::health::{HealthState, UserHealth};
use crate::injection::PendingInjection;
use crate::player::{PlaybackMode, Player, QueuedClip};
use crate::retry::OutstandingDelivery;
use pphcr_audio::ClipId;
use pphcr_catalog::{
    CategoryId, ClipKind, ClipMetadata, Gazetteer, GeoTag, Place, ServiceIndex, CATEGORY_COUNT,
};
use pphcr_geo::{GeoPoint, NodeId, NodeKind, ProjectedPoint, RoadNetwork, TimePoint, TimeSpan};
use pphcr_obs::{DecisionTraceEntry, HistogramSnapshot, ObsSnapshot, Verdict};
use pphcr_recommender::{
    CandidateFilter, ProactivityModel, Recommender, RetrievalStats, ScheduledItem, SchedulerConfig,
    ScoredClip, ScoringWeights, SlotSchedule, Trigger,
};
use pphcr_trajectory::GpsFix;
use pphcr_userdata::{AgeBand, FeedbackEvent, FeedbackKind, UserId, UserProfile};

// ---------------------------------------------------------------------
// Geography
// ---------------------------------------------------------------------

pub(crate) fn put_geo_point(w: &mut ByteWriter, p: &GeoPoint) {
    w.put_f64(p.lat);
    w.put_f64(p.lon);
}

pub(crate) fn get_geo_point(r: &mut ByteReader<'_>) -> Result<GeoPoint, PersistError> {
    Ok(GeoPoint { lat: r.f64()?, lon: r.f64()? })
}

fn put_point(w: &mut ByteWriter, p: &ProjectedPoint) {
    w.put_f64(p.x);
    w.put_f64(p.y);
}

fn get_point(r: &mut ByteReader<'_>) -> Result<ProjectedPoint, PersistError> {
    Ok(ProjectedPoint { x: r.f64()?, y: r.f64()? })
}

pub(crate) fn put_geo_tag(w: &mut ByteWriter, tag: &GeoTag) {
    put_geo_point(w, &tag.point);
    w.put_f64(tag.radius_m);
}

pub(crate) fn get_geo_tag(r: &mut ByteReader<'_>) -> Result<GeoTag, PersistError> {
    Ok(GeoTag { point: get_geo_point(r)?, radius_m: r.f64()? })
}

pub(crate) fn put_fix(w: &mut ByteWriter, fix: &GpsFix) {
    put_geo_point(w, &fix.point);
    w.put_u64(fix.time.0);
    w.put_f64(fix.speed_mps);
}

pub(crate) fn get_fix(r: &mut ByteReader<'_>) -> Result<GpsFix, PersistError> {
    Ok(GpsFix { point: get_geo_point(r)?, time: TimePoint(r.u64()?), speed_mps: r.f64()? })
}

pub(crate) fn put_road_network(w: &mut ByteWriter, net: &RoadNetwork) {
    w.put_seq(net.nodes(), |w, node| {
        put_point(w, &node.pos);
        w.put_u8(match node.kind {
            NodeKind::Plain => 0,
            NodeKind::Intersection => 1,
            NodeKind::Roundabout => 2,
        });
    });
    w.put_seq(net.edges(), |w, edge| {
        w.put_u32(edge.from.0);
        w.put_u32(edge.to.0);
        w.put_f64(edge.speed_mps);
    });
}

/// Decodes [`put_road_network`] output, validating edge endpoints and
/// speeds.
pub(crate) fn get_road_network(r: &mut ByteReader<'_>) -> Result<RoadNetwork, PersistError> {
    let mut net = RoadNetwork::new();
    let nodes = r.seq(|r| {
        let pos = get_point(r)?;
        let kind = match r.u8()? {
            0 => NodeKind::Plain,
            1 => NodeKind::Intersection,
            2 => NodeKind::Roundabout,
            _ => return Err(PersistError::Corrupt { what: "road node kind" }),
        };
        net.add_node(pos, kind);
        Ok(())
    })?;
    let bounds = nodes.len() as u32;
    r.seq(|r| {
        let (from, to, speed) = (r.u32()?, r.u32()?, r.f64()?);
        if from >= bounds || to >= bounds || !speed.is_finite() || speed <= 0.0 {
            return Err(PersistError::Corrupt { what: "road edge" });
        }
        net.add_edge(NodeId(from), NodeId(to), speed);
        Ok(())
    })?;
    Ok(net)
}

pub(crate) fn put_gazetteer(w: &mut ByteWriter, gaz: &Gazetteer) {
    w.put_u64(gaz.min_mentions as u64);
    w.put_seq(gaz.places_sorted(), |w, place| {
        w.put_str(&place.name);
        put_geo_point(w, &place.point);
        w.put_f64(place.radius_m);
    });
}

pub(crate) fn get_gazetteer(r: &mut ByteReader<'_>) -> Result<Gazetteer, PersistError> {
    let mut gaz = Gazetteer::new();
    gaz.min_mentions = r.u64()? as usize;
    for place in
        r.seq(|r| Ok(Place { name: r.string()?, point: get_geo_point(r)?, radius_m: r.f64()? }))?
    {
        gaz.add(place);
    }
    Ok(gaz)
}

// ---------------------------------------------------------------------
// Listeners and content
// ---------------------------------------------------------------------

/// A category id, written as its raw `u16`. Ids at or above
/// [`CATEGORY_COUNT`] are corruption: every per-category table is
/// indexed by them.
pub(crate) fn get_category(r: &mut ByteReader<'_>) -> Result<CategoryId, PersistError> {
    let id = r.u16()?;
    if id < CATEGORY_COUNT {
        Ok(CategoryId(id))
    } else {
        Err(PersistError::Corrupt { what: "category id" })
    }
}

pub(crate) fn put_clip_kind(w: &mut ByteWriter, kind: ClipKind) {
    w.put_u8(match kind {
        ClipKind::Podcast => 0,
        ClipKind::NewsBulletin => 1,
        ClipKind::MusicTrack => 2,
        ClipKind::Advertisement => 3,
    });
}

pub(crate) fn get_clip_kind(r: &mut ByteReader<'_>) -> Result<ClipKind, PersistError> {
    match r.u8()? {
        0 => Ok(ClipKind::Podcast),
        1 => Ok(ClipKind::NewsBulletin),
        2 => Ok(ClipKind::MusicTrack),
        3 => Ok(ClipKind::Advertisement),
        _ => Err(PersistError::Corrupt { what: "clip kind tag" }),
    }
}

pub(crate) fn put_clip_meta(w: &mut ByteWriter, clip: &ClipMetadata) {
    w.put_u64(clip.id.0);
    w.put_str(&clip.title);
    put_clip_kind(w, clip.kind);
    w.put_u16(clip.category.0);
    w.put_f64(clip.category_confidence);
    w.put_u64(clip.duration.0);
    w.put_u64(clip.published.0);
    w.put_opt(clip.geo.as_ref(), put_geo_tag);
    w.put_seq(&clip.transcript, |w, token| w.put_u32(*token));
}

pub(crate) fn get_clip_meta(r: &mut ByteReader<'_>) -> Result<ClipMetadata, PersistError> {
    Ok(ClipMetadata {
        id: ClipId(r.u64()?),
        title: r.string()?,
        kind: get_clip_kind(r)?,
        category: get_category(r)?,
        category_confidence: r.f64()?,
        duration: TimeSpan(r.u64()?),
        published: TimePoint(r.u64()?),
        geo: r.opt(get_geo_tag)?,
        transcript: r.seq(ByteReader::u32)?,
    })
}

pub(crate) fn put_feedback_event(w: &mut ByteWriter, e: &FeedbackEvent) {
    w.put_u64(e.user.0);
    w.put_opt(e.clip.as_ref(), |w, c| w.put_u64(c.0));
    w.put_u16(e.category.0);
    match e.kind {
        FeedbackKind::Like => w.put_u8(0),
        FeedbackKind::Dislike => w.put_u8(1),
        FeedbackKind::Skip => w.put_u8(2),
        FeedbackKind::ListenedThrough => w.put_u8(3),
        FeedbackKind::PartialListen(frac) => {
            w.put_u8(4);
            w.put_f64(frac);
        }
    }
    w.put_u64(e.time.0);
}

pub(crate) fn get_feedback_event(r: &mut ByteReader<'_>) -> Result<FeedbackEvent, PersistError> {
    let user = UserId(r.u64()?);
    let clip = r.opt(|r| Ok(ClipId(r.u64()?)))?;
    let category = get_category(r)?;
    let kind = match r.u8()? {
        0 => FeedbackKind::Like,
        1 => FeedbackKind::Dislike,
        2 => FeedbackKind::Skip,
        3 => FeedbackKind::ListenedThrough,
        4 => FeedbackKind::PartialListen(r.f64()?),
        _ => return Err(PersistError::Corrupt { what: "feedback kind tag" }),
    };
    Ok(FeedbackEvent { user, clip, category, kind, time: TimePoint(r.u64()?) })
}

pub(crate) fn put_profile(w: &mut ByteWriter, p: &UserProfile) {
    w.put_u64(p.id.0);
    w.put_str(&p.name);
    w.put_u8(match p.age_band {
        AgeBand::Young => 0,
        AgeBand::Adult => 1,
        AgeBand::Middle => 2,
        AgeBand::Senior => 3,
    });
    w.put_u32(p.favourite_service.0);
}

pub(crate) fn get_profile(r: &mut ByteReader<'_>) -> Result<UserProfile, PersistError> {
    Ok(UserProfile {
        id: UserId(r.u64()?),
        name: r.string()?,
        age_band: match r.u8()? {
            0 => AgeBand::Young,
            1 => AgeBand::Adult,
            2 => AgeBand::Middle,
            3 => AgeBand::Senior,
            _ => return Err(PersistError::Corrupt { what: "age band tag" }),
        },
        favourite_service: ServiceIndex(r.u32()?),
    })
}

fn put_queued(w: &mut ByteWriter, q: &QueuedClip) {
    w.put_u64(q.clip.0);
    w.put_u64(q.duration.0);
    w.put_u16(q.category.0);
}

fn get_queued(r: &mut ByteReader<'_>) -> Result<QueuedClip, PersistError> {
    Ok(QueuedClip {
        clip: ClipId(r.u64()?),
        duration: TimeSpan(r.u64()?),
        category: get_category(r)?,
    })
}

pub(crate) fn put_player(w: &mut ByteWriter, p: &Player) {
    w.put_u64(p.user.0);
    w.put_u32(p.service.0);
    match p.mode {
        PlaybackMode::Live => w.put_u8(0),
        PlaybackMode::Clip { clip, started } => {
            w.put_u8(1);
            put_queued(w, &clip);
            w.put_u64(started.0);
        }
        PlaybackMode::Shifted => w.put_u8(2),
        PlaybackMode::Paused => w.put_u8(3),
    }
    w.put_seq(&p.queue, put_queued);
    w.put_u64(p.displacement.0);
    w.put_u64(p.feedback_period.0);
    w.put_u64(p.last_feedback.0);
    w.put_u32(p.skips);
    w.put_u32(p.surfs);
}

pub(crate) fn get_player(r: &mut ByteReader<'_>) -> Result<Player, PersistError> {
    Ok(Player {
        user: UserId(r.u64()?),
        service: ServiceIndex(r.u32()?),
        mode: match r.u8()? {
            0 => PlaybackMode::Live,
            1 => PlaybackMode::Clip { clip: get_queued(r)?, started: TimePoint(r.u64()?) },
            2 => PlaybackMode::Shifted,
            3 => PlaybackMode::Paused,
            _ => return Err(PersistError::Corrupt { what: "playback mode tag" }),
        },
        queue: r.seq(get_queued)?.into(),
        displacement: TimeSpan(r.u64()?),
        feedback_period: TimeSpan(r.u64()?),
        last_feedback: TimePoint(r.u64()?),
        skips: r.u32()?,
        surfs: r.u32()?,
    })
}

pub(crate) fn put_proactivity(w: &mut ByteWriter, m: &ProactivityModel) {
    w.put_u64(m.min_driving.0);
    w.put_f64(m.min_confidence);
    w.put_u64(m.min_delta_t.0);
    w.put_u64(m.cooldown.0);
    w.put_opt(m.driving_since().as_ref(), |w, t| w.put_u64(t.0));
    w.put_opt(m.last_delivery().as_ref(), |w, t| w.put_u64(t.0));
}

pub(crate) fn get_proactivity(r: &mut ByteReader<'_>) -> Result<ProactivityModel, PersistError> {
    let mut model = ProactivityModel::default();
    model.min_driving = TimeSpan(r.u64()?);
    model.min_confidence = r.f64()?;
    model.min_delta_t = TimeSpan(r.u64()?);
    model.cooldown = TimeSpan(r.u64()?);
    let driving_since = r.opt(|r| Ok(TimePoint(r.u64()?)))?;
    let last_delivery = r.opt(|r| Ok(TimePoint(r.u64()?)))?;
    model.restore_state(driving_since, last_delivery);
    Ok(model)
}

pub(crate) fn put_trip(w: &mut ByteWriter, t: &TripTracker) {
    w.put_opt(t.driving_since.as_ref(), |w, v| w.put_u64(v.0));
    w.put_opt(t.origin_stay.as_ref(), |w, v| w.put_u32(*v));
    w.put_seq(&t.path, put_point);
}

pub(crate) fn get_trip(r: &mut ByteReader<'_>) -> Result<TripTracker, PersistError> {
    Ok(TripTracker {
        driving_since: r.opt(|r| Ok(TimePoint(r.u64()?)))?,
        origin_stay: r.opt(ByteReader::u32)?,
        path: r.seq(get_point)?,
    })
}

pub(crate) fn put_health(w: &mut ByteWriter, h: &UserHealth) {
    w.put_u8(match h.state {
        HealthState::Healthy => 0,
        HealthState::Degraded => 1,
        HealthState::BroadcastOnly => 2,
    });
    w.put_u32(h.fail_streak);
    w.put_u32(h.ok_streak);
    w.put_u64(h.since.0);
    w.put_u64(h.fetch_failures);
    w.put_u64(h.replays);
    w.put_u64(h.stale_model_reuses);
    w.put_u64(h.dup_deliveries);
    w.put_u64(h.transitions);
}

pub(crate) fn get_health(r: &mut ByteReader<'_>) -> Result<UserHealth, PersistError> {
    Ok(UserHealth {
        state: match r.u8()? {
            0 => HealthState::Healthy,
            1 => HealthState::Degraded,
            2 => HealthState::BroadcastOnly,
            _ => return Err(PersistError::Corrupt { what: "health state tag" }),
        },
        fail_streak: r.u32()?,
        ok_streak: r.u32()?,
        since: TimePoint(r.u64()?),
        fetch_failures: r.u64()?,
        replays: r.u64()?,
        stale_model_reuses: r.u64()?,
        dup_deliveries: r.u64()?,
        transitions: r.u64()?,
    })
}

// ---------------------------------------------------------------------
// Recommendation
// ---------------------------------------------------------------------

pub(crate) fn put_schedule(w: &mut ByteWriter, s: &SlotSchedule) {
    w.put_seq(&s.items, |w, item| {
        w.put_u64(item.clip.0);
        w.put_u64(item.start_s);
        w.put_u64(item.duration.0);
        w.put_f64(item.score);
        w.put_opt(item.pinned_along_m.as_ref(), |w, v| w.put_f64(*v));
    });
    w.put_f64(s.total_score);
    w.put_u64(s.budget.0);
    w.put_u64(s.computed_at.0);
}

pub(crate) fn get_schedule(r: &mut ByteReader<'_>) -> Result<SlotSchedule, PersistError> {
    Ok(SlotSchedule {
        items: r.seq(|r| {
            Ok(ScheduledItem {
                clip: ClipId(r.u64()?),
                start_s: r.u64()?,
                duration: TimeSpan(r.u64()?),
                score: r.f64()?,
                pinned_along_m: r.opt(ByteReader::f64)?,
            })
        })?,
        total_score: r.f64()?,
        budget: TimeSpan(r.u64()?),
        computed_at: TimePoint(r.u64()?),
    })
}

fn put_scored(w: &mut ByteWriter, c: &ScoredClip) {
    w.put_u64(c.clip.0);
    w.put_u64(c.duration.0);
    w.put_f64(c.score);
    w.put_f64(c.content_score);
    w.put_f64(c.context_score);
    w.put_opt(c.geo_distance_m.as_ref(), |w, v| w.put_f64(*v));
    w.put_opt(c.along_route_m.as_ref(), |w, v| w.put_f64(*v));
}

fn get_scored(r: &mut ByteReader<'_>) -> Result<ScoredClip, PersistError> {
    Ok(ScoredClip {
        clip: ClipId(r.u64()?),
        duration: TimeSpan(r.u64()?),
        score: r.f64()?,
        content_score: r.f64()?,
        context_score: r.f64()?,
        geo_distance_m: r.opt(ByteReader::f64)?,
        along_route_m: r.opt(ByteReader::f64)?,
    })
}

fn put_retrieval_stats(w: &mut ByteWriter, s: &RetrievalStats) {
    w.put_u64(s.considered);
    w.put_u64(s.cut_freshness);
    w.put_u64(s.cut_preference);
    w.put_u64(s.cut_geo);
    w.put_u64(s.cut_heard);
    w.put_u64(s.geo_hits);
    w.put_u64(s.scored);
    w.put_u64(s.truncated);
}

fn get_retrieval_stats(r: &mut ByteReader<'_>) -> Result<RetrievalStats, PersistError> {
    Ok(RetrievalStats {
        considered: r.u64()?,
        cut_freshness: r.u64()?,
        cut_preference: r.u64()?,
        cut_geo: r.u64()?,
        cut_heard: r.u64()?,
        geo_hits: r.u64()?,
        scored: r.u64()?,
        truncated: r.u64()?,
    })
}

pub(crate) fn put_cached(w: &mut ByteWriter, c: &CachedCandidates) {
    w.put_u64(c.key.epoch);
    w.put_u64(c.key.feedback_events as u64);
    w.put_u64(c.key.heard_len as u64);
    w.put_u64(c.key.freshness_rev);
    w.put_u64(c.key.decay_rev);
    w.put_u64(c.key.context_rev);
    w.put_u64(c.warmed_at);
    w.put_seq(&c.ranked, put_scored);
    put_retrieval_stats(w, &c.stats);
}

pub(crate) fn get_cached(r: &mut ByteReader<'_>) -> Result<CachedCandidates, PersistError> {
    Ok(CachedCandidates {
        key: CandidateCacheKey {
            epoch: r.u64()?,
            feedback_events: r.u64()? as usize,
            heard_len: r.u64()? as usize,
            freshness_rev: r.u64()?,
            decay_rev: r.u64()?,
            context_rev: r.u64()?,
        },
        warmed_at: r.u64()?,
        ranked: r.seq(get_scored)?,
        stats: get_retrieval_stats(r)?,
    })
}

pub(crate) fn put_recommender(w: &mut ByteWriter, rec: &Recommender) {
    let weights = &rec.weights;
    w.put_f64(weights.content_weight);
    w.put_f64(weights.geo_weight);
    w.put_f64(weights.freshness_weight);
    w.put_f64(weights.time_weight);
    w.put_f64(weights.fit_weight);
    w.put_f64(weights.weather_weight);
    w.put_u64(weights.freshness_half_life.0);
    w.put_f64(weights.geo_scale_m);
    let filter = &rec.filter;
    w.put_u64(filter.max_age.0);
    w.put_f64(filter.min_category_pref);
    w.put_f64(filter.route_corridor_m);
    w.put_u64(filter.max_candidates as u64);
    let sched = &rec.scheduler;
    w.put_u64(sched.reserve.0);
    w.put_u64(sched.max_items as u64);
    w.put_u64(sched.pin_tolerance_s);
    w.put_bool(sched.avoid_distraction);
}

pub(crate) fn get_recommender(r: &mut ByteReader<'_>) -> Result<Recommender, PersistError> {
    let weights = ScoringWeights {
        content_weight: r.f64()?,
        geo_weight: r.f64()?,
        freshness_weight: r.f64()?,
        time_weight: r.f64()?,
        fit_weight: r.f64()?,
        weather_weight: r.f64()?,
        freshness_half_life: TimeSpan(r.u64()?),
        geo_scale_m: r.f64()?,
    };
    let filter = CandidateFilter {
        max_age: TimeSpan(r.u64()?),
        min_category_pref: r.f64()?,
        route_corridor_m: r.f64()?,
        max_candidates: r.u64()? as usize,
    };
    let scheduler = SchedulerConfig {
        reserve: TimeSpan(r.u64()?),
        max_items: r.u64()? as usize,
        pin_tolerance_s: r.u64()?,
        avoid_distraction: r.bool()?,
    };
    Ok(Recommender { weights, filter, scheduler })
}

pub(crate) fn put_decision(w: &mut ByteWriter, d: &DecisionRecord) {
    w.put_u64(d.user.0);
    w.put_u64(d.at.0);
    w.put_u8(match d.trigger {
        Trigger::TripStarted => 0,
        Trigger::ScheduleUnderrun => 1,
    });
    put_schedule(w, &d.schedule);
    w.put_f64(d.confidence);
}

pub(crate) fn get_decision(r: &mut ByteReader<'_>) -> Result<DecisionRecord, PersistError> {
    Ok(DecisionRecord {
        user: UserId(r.u64()?),
        at: TimePoint(r.u64()?),
        trigger: match r.u8()? {
            0 => Trigger::TripStarted,
            1 => Trigger::ScheduleUnderrun,
            _ => return Err(PersistError::Corrupt { what: "trigger tag" }),
        },
        schedule: get_schedule(r)?,
        confidence: r.f64()?,
    })
}

// ---------------------------------------------------------------------
// Bus and delivery
// ---------------------------------------------------------------------

pub(crate) fn put_topic(w: &mut ByteWriter, t: Topic) {
    w.put_u8(match t {
        Topic::Tracking => 0,
        Topic::Feedback => 1,
        Topic::Recommendation => 2,
        Topic::Editorial => 3,
        Topic::Ingest => 4,
    });
}

pub(crate) fn get_topic(r: &mut ByteReader<'_>) -> Result<Topic, PersistError> {
    match r.u8()? {
        0 => Ok(Topic::Tracking),
        1 => Ok(Topic::Feedback),
        2 => Ok(Topic::Recommendation),
        3 => Ok(Topic::Editorial),
        4 => Ok(Topic::Ingest),
        _ => Err(PersistError::Corrupt { what: "topic tag" }),
    }
}

pub(crate) fn put_envelope(w: &mut ByteWriter, e: &Envelope) {
    match &e.message {
        BusMessage::Fix { user, fix } => {
            w.put_u8(0);
            w.put_u64(user.0);
            put_fix(w, fix);
        }
        BusMessage::Feedback(event) => {
            w.put_u8(1);
            put_feedback_event(w, event);
        }
        BusMessage::Delivery { user, schedule } => {
            w.put_u8(2);
            w.put_u64(user.0);
            put_schedule(w, schedule);
        }
        BusMessage::Inject { user, clip, at } => {
            w.put_u8(3);
            w.put_u64(user.0);
            w.put_u64(clip.0);
            w.put_u64(at.0);
        }
        BusMessage::Ingested { clip, confidence } => {
            w.put_u8(4);
            w.put_u64(clip.0);
            w.put_f64(*confidence);
        }
        BusMessage::Tuned { user, service } => {
            w.put_u8(5);
            w.put_u64(user.0);
            w.put_u32(service.0);
        }
    }
    w.put_u64(e.published_at.0);
    w.put_u32(e.hops);
    w.put_u64(e.seq);
}

pub(crate) fn get_envelope(r: &mut ByteReader<'_>) -> Result<Envelope, PersistError> {
    let message = match r.u8()? {
        0 => BusMessage::Fix { user: UserId(r.u64()?), fix: get_fix(r)? },
        1 => BusMessage::Feedback(get_feedback_event(r)?),
        2 => BusMessage::Delivery { user: UserId(r.u64()?), schedule: get_schedule(r)? },
        3 => BusMessage::Inject {
            user: UserId(r.u64()?),
            clip: ClipId(r.u64()?),
            at: TimePoint(r.u64()?),
        },
        4 => BusMessage::Ingested { clip: ClipId(r.u64()?), confidence: r.f64()? },
        5 => BusMessage::Tuned { user: UserId(r.u64()?), service: ServiceIndex(r.u32()?) },
        _ => return Err(PersistError::Corrupt { what: "bus message tag" }),
    };
    Ok(Envelope { message, published_at: TimePoint(r.u64()?), hops: r.u32()?, seq: r.u64()? })
}

pub(crate) fn put_dead_letter(w: &mut ByteWriter, dl: &DeadLetter) {
    put_topic(w, dl.topic);
    put_envelope(w, &dl.envelope);
    w.put_u8(match dl.reason {
        DeadLetterReason::Overflow => 0,
        DeadLetterReason::Rejected => 1,
        DeadLetterReason::RetryBudgetExhausted => 2,
    });
    w.put_u64(dl.at.0);
}

pub(crate) fn get_dead_letter(r: &mut ByteReader<'_>) -> Result<DeadLetter, PersistError> {
    Ok(DeadLetter {
        topic: get_topic(r)?,
        envelope: get_envelope(r)?,
        reason: match r.u8()? {
            0 => DeadLetterReason::Overflow,
            1 => DeadLetterReason::Rejected,
            2 => DeadLetterReason::RetryBudgetExhausted,
            _ => return Err(PersistError::Corrupt { what: "dead letter reason tag" }),
        },
        at: TimePoint(r.u64()?),
    })
}

pub(crate) fn put_outstanding(w: &mut ByteWriter, o: &OutstandingDelivery) {
    w.put_u64(o.user.0);
    put_envelope(w, &o.envelope);
    w.put_u32(o.attempts);
    w.put_u64(o.next_retry_at.0);
}

pub(crate) fn get_outstanding(r: &mut ByteReader<'_>) -> Result<OutstandingDelivery, PersistError> {
    Ok(OutstandingDelivery {
        user: UserId(r.u64()?),
        envelope: get_envelope(r)?,
        attempts: r.u32()?,
        next_retry_at: TimePoint(r.u64()?),
    })
}

pub(crate) fn put_injection(w: &mut ByteWriter, p: &PendingInjection) {
    w.put_u64(p.user.0);
    w.put_u64(p.clip.0);
    w.put_u64(p.submitted_at.0);
    w.put_str(&p.note);
}

pub(crate) fn get_injection(r: &mut ByteReader<'_>) -> Result<PendingInjection, PersistError> {
    Ok(PendingInjection {
        user: UserId(r.u64()?),
        clip: ClipId(r.u64()?),
        submitted_at: TimePoint(r.u64()?),
        note: r.string()?,
    })
}

// ---------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------

/// An [`ObsSnapshot`] in exact integers, so a restored registry or the
/// shard router's merge works on the very numbers the engine held.
pub fn put_obs_snapshot(w: &mut ByteWriter, snap: &ObsSnapshot) {
    w.put_seq(&snap.counters, |w, (name, v)| {
        w.put_str(name);
        w.put_u64(*v);
    });
    w.put_seq(&snap.gauges, |w, (name, v)| {
        w.put_str(name);
        w.put_i64(*v);
    });
    w.put_seq(&snap.histograms, |w, (name, h)| {
        w.put_str(name);
        w.put_u64(h.count);
        w.put_u64(h.sum);
        w.put_seq(&h.buckets, |w, (idx, c)| {
            w.put_u32(*idx as u32);
            w.put_u64(*c);
        });
    });
    w.put_u64(snap.trace_capacity);
    w.put_u64(snap.trace_dropped);
    w.put_seq(&snap.trace, put_trace_entry);
}

/// Decodes [`put_obs_snapshot`] output.
///
/// # Errors
/// [`PersistError`] on truncated input, an unknown trace trigger or
/// verdict name.
pub fn get_obs_snapshot(r: &mut ByteReader<'_>) -> Result<ObsSnapshot, PersistError> {
    Ok(ObsSnapshot {
        counters: r.seq(|r| Ok((r.string()?, r.u64()?)))?,
        gauges: r.seq(|r| Ok((r.string()?, r.i64()?)))?,
        histograms: r.seq(|r| {
            let name = r.string()?;
            let (count, sum) = (r.u64()?, r.u64()?);
            let buckets = r.seq(|r| Ok((r.u32()? as usize, r.u64()?)))?;
            Ok((name, HistogramSnapshot { count, sum, buckets }))
        })?,
        trace_capacity: r.u64()?,
        trace_dropped: r.u64()?,
        trace: r.seq(get_trace_entry)?,
    })
}

fn put_trace_entry(w: &mut ByteWriter, e: &DecisionTraceEntry) {
    w.put_u64(e.user);
    w.put_u64(e.at_s);
    w.put_str(e.trigger);
    w.put_u64(e.considered);
    w.put_u64(e.cut_freshness);
    w.put_u64(e.cut_preference);
    w.put_u64(e.cut_geo);
    w.put_u64(e.cut_heard);
    w.put_u64(e.scored);
    w.put_u64(e.scheduled);
    w.put_opt(e.top_clip.as_ref(), |w, c| w.put_u64(*c));
    w.put_i64(e.top_content_micro);
    w.put_i64(e.top_context_micro);
    w.put_i64(e.top_total_micro);
    w.put_str(e.verdict.as_str());
}

/// Trace triggers and verdicts travel by name; decoding maps a name
/// back onto the closed set the engine emits.
fn get_trace_entry(r: &mut ByteReader<'_>) -> Result<DecisionTraceEntry, PersistError> {
    Ok(DecisionTraceEntry {
        user: r.u64()?,
        at_s: r.u64()?,
        trigger: {
            let name = r.string()?;
            Trigger::ALL
                .iter()
                .map(|t| t.as_str())
                .find(|t| *t == name)
                .ok_or(PersistError::Corrupt { what: "trace trigger" })?
        },
        considered: r.u64()?,
        cut_freshness: r.u64()?,
        cut_preference: r.u64()?,
        cut_geo: r.u64()?,
        cut_heard: r.u64()?,
        scored: r.u64()?,
        scheduled: r.u64()?,
        top_clip: r.opt(ByteReader::u64)?,
        top_content_micro: r.i64()?,
        top_context_micro: r.i64()?,
        top_total_micro: r.i64()?,
        verdict: {
            let name = r.string()?;
            Verdict::ALL
                .into_iter()
                .find(|v| v.as_str() == name)
                .ok_or(PersistError::Corrupt { what: "trace verdict" })?
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pphcr_obs::{DecisionTrace, Registry};
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// Encodes `value`, decodes it and encodes the result again: the
    /// decoder must consume exactly the bytes, and they must come back
    /// unchanged.
    fn round_trip<T>(
        value: &T,
        put: impl Fn(&mut ByteWriter, &T),
        get: impl Fn(&mut ByteReader<'_>) -> Result<T, PersistError>,
    ) -> Result<(), TestCaseError> {
        let mut w = ByteWriter::new();
        put(&mut w, value);
        let bytes = w.into_inner();
        let mut r = ByteReader::new(&bytes);
        let back = get(&mut r).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert!(r.is_empty(), "decoder left bytes unread");
        let mut again = ByteWriter::new();
        put(&mut again, &back);
        prop_assert_eq!(again.into_inner(), bytes);
        Ok(())
    }

    proptest! {
        /// Every pair in this module round-trips; `pick` walks each
        /// enum through all of its variants across the cases.
        #[test]
        fn every_pair_round_trips(
            ids in proptest::collection::vec(0u64..u64::MAX, 8..9),
            xs in proptest::collection::vec(-1.0e7f64..1.0e7, 8..9),
            name in ".{0,12}",
            n in 0usize..4,
            pick in 0usize..60,
        ) {
            let id = |i: usize| ids[i % 8];
            let x = |i: usize| xs[i % 8];
            let t = |i: usize| TimePoint(id(i) % 4_000_000_000);
            let point = GeoPoint { lat: x(0), lon: x(1) };
            let pos = ProjectedPoint { x: x(2), y: x(3) };
            let fix = GpsFix { point, time: t(0), speed_mps: x(4) };
            round_trip(&point, put_geo_point, get_geo_point)?;
            round_trip(&pos, put_point, get_point)?;
            round_trip(&GeoTag { point, radius_m: x(5) }, put_geo_tag, get_geo_tag)?;
            round_trip(&fix, put_fix, get_fix)?;
            let mut net = RoadNetwork::new();
            for i in 0..n {
                let kinds = [NodeKind::Plain, NodeKind::Intersection, NodeKind::Roundabout];
                net.add_node(pos, kinds[(pick + i) % 3]);
                if i > 0 {
                    net.add_edge(NodeId(i as u32 - 1), NodeId(i as u32), 1.0 + x(i).abs());
                }
            }
            round_trip(&net, put_road_network, get_road_network)?;
            let mut gaz = Gazetteer::new();
            gaz.min_mentions = n;
            for i in 0..n {
                gaz.add(Place { name: format!("{name}{i}"), point, radius_m: x(i) });
            }
            round_trip(&gaz, put_gazetteer, get_gazetteer)?;

            let kinds = [
                ClipKind::Podcast,
                ClipKind::NewsBulletin,
                ClipKind::MusicTrack,
                ClipKind::Advertisement,
            ];
            let kind = kinds[pick % 4];
            round_trip(&kind, |w, k| put_clip_kind(w, *k), get_clip_kind)?;
            let clip = ClipMetadata {
                id: ClipId(id(1)),
                title: name.clone(),
                kind,
                category: CategoryId(pick as u16 % CATEGORY_COUNT),
                category_confidence: x(6),
                duration: TimeSpan(id(2)),
                published: t(3),
                geo: (pick % 2 == 0).then_some(GeoTag { point, radius_m: x(7) }),
                transcript: (0..n).map(|i| id(i) as u32).collect(),
            };
            round_trip(&clip, put_clip_meta, get_clip_meta)?;
            let feedback = FeedbackEvent {
                user: UserId(id(0)),
                clip: (pick % 3 > 0).then_some(ClipId(id(1))),
                category: CategoryId(3),
                kind: [
                    FeedbackKind::Like,
                    FeedbackKind::Dislike,
                    FeedbackKind::Skip,
                    FeedbackKind::ListenedThrough,
                    FeedbackKind::PartialListen(x(0)),
                ][pick % 5],
                time: t(2),
            };
            round_trip(&feedback, put_feedback_event, get_feedback_event)?;
            let bands = [AgeBand::Young, AgeBand::Adult, AgeBand::Middle, AgeBand::Senior];
            let profile = UserProfile {
                id: UserId(id(3)),
                name: name.clone(),
                age_band: bands[pick % 4],
                favourite_service: ServiceIndex(pick as u32),
            };
            round_trip(&profile, put_profile, get_profile)?;
            let queued =
                QueuedClip { clip: ClipId(id(5)), duration: TimeSpan(600), category: CategoryId(1) };
            let modes = [
                PlaybackMode::Live,
                PlaybackMode::Clip { clip: queued, started: t(4) },
                PlaybackMode::Shifted,
                PlaybackMode::Paused,
            ];
            let player = Player {
                user: UserId(id(6)),
                service: ServiceIndex(0),
                mode: modes[pick % 4],
                queue: VecDeque::from(vec![queued; n]),
                displacement: TimeSpan(id(7)),
                feedback_period: TimeSpan(30),
                last_feedback: t(5),
                skips: 1,
                surfs: 2,
            };
            round_trip(&player, put_player, get_player)?;
            let mut model = ProactivityModel::default();
            model.min_confidence = x(1);
            model.restore_state(Some(t(1)), (pick % 2 == 0).then_some(t(2)));
            round_trip(&model, put_proactivity, get_proactivity)?;
            let trip = TripTracker {
                driving_since: (pick % 3 > 0).then_some(t(3)),
                origin_stay: (pick % 2 == 1).then_some(pick as u32),
                path: vec![pos; n],
            };
            round_trip(&trip, put_trip, get_trip)?;
            let health = UserHealth {
                state: [HealthState::Healthy, HealthState::Degraded, HealthState::BroadcastOnly]
                    [pick % 3],
                fail_streak: 1,
                ok_streak: 2,
                since: t(0),
                fetch_failures: id(1),
                replays: id(2),
                stale_model_reuses: 3,
                dup_deliveries: 4,
                transitions: 5,
            };
            round_trip(&health, put_health, get_health)?;

            let items = (0..n)
                .map(|i| ScheduledItem {
                    clip: ClipId(id(i)),
                    start_s: id(i) % 999,
                    duration: TimeSpan(60),
                    score: x(i),
                    pinned_along_m: (i % 2 == 0).then_some(x(i + 1)),
                })
                .collect();
            let schedule =
                SlotSchedule { items, total_score: x(3), budget: TimeSpan(600), computed_at: t(6) };
            round_trip(&schedule, put_schedule, get_schedule)?;
            let scored = ScoredClip {
                clip: ClipId(id(2)),
                duration: TimeSpan(90),
                score: x(0),
                content_score: x(1),
                context_score: x(2),
                geo_distance_m: Some(x(3)),
                along_route_m: (pick % 2 == 0).then_some(x(4)),
            };
            let cached = CachedCandidates {
                key: CandidateCacheKey {
                    epoch: id(0),
                    feedback_events: n,
                    heard_len: pick,
                    freshness_rev: id(1),
                    decay_rev: id(2),
                    context_rev: id(3),
                },
                ranked: vec![scored; n],
                stats: RetrievalStats { considered: id(4), scored: id(5), ..RetrievalStats::default() },
                warmed_at: id(6),
            };
            round_trip(&cached, put_cached, get_cached)?;
            let mut rec = Recommender::default();
            rec.weights.geo_weight = x(4);
            rec.scheduler.avoid_distraction = pick % 2 == 0;
            round_trip(&rec, put_recommender, get_recommender)?;
            let decision = DecisionRecord {
                user: UserId(id(7)),
                at: t(7),
                trigger: Trigger::ALL[pick % 2],
                schedule: schedule.clone(),
                confidence: x(5),
            };
            round_trip(&decision, put_decision, get_decision)?;

            let topic = [
                Topic::Tracking,
                Topic::Feedback,
                Topic::Recommendation,
                Topic::Editorial,
                Topic::Ingest,
            ][pick % 5];
            round_trip(&topic, |w, t| put_topic(w, *t), get_topic)?;
            let message = match pick % 6 {
                0 => BusMessage::Fix { user: UserId(id(0)), fix },
                1 => BusMessage::Feedback(feedback),
                2 => BusMessage::Delivery { user: UserId(id(1)), schedule },
                3 => BusMessage::Inject { user: UserId(id(2)), clip: ClipId(id(3)), at: t(4) },
                4 => BusMessage::Ingested { clip: ClipId(id(5)), confidence: x(6) },
                _ => BusMessage::Tuned { user: UserId(id(6)), service: ServiceIndex(3) },
            };
            let envelope = Envelope { message, published_at: t(1), hops: pick as u32, seq: id(2) };
            round_trip(&envelope, put_envelope, get_envelope)?;
            let reasons = [
                DeadLetterReason::Overflow,
                DeadLetterReason::Rejected,
                DeadLetterReason::RetryBudgetExhausted,
            ];
            let dead =
                DeadLetter { topic, envelope: envelope.clone(), reason: reasons[pick % 3], at: t(3) };
            round_trip(&dead, put_dead_letter, get_dead_letter)?;
            let outstanding =
                OutstandingDelivery { user: UserId(id(4)), envelope, attempts: 2, next_retry_at: t(5) };
            round_trip(&outstanding, put_outstanding, get_outstanding)?;
            let injection = PendingInjection {
                user: UserId(id(5)),
                clip: ClipId(id(6)),
                submitted_at: t(6),
                note: name.clone(),
            };
            round_trip(&injection, put_injection, get_injection)?;

            let mut registry = Registry::new();
            registry.add("engine.ticks", id(0));
            registry.gauge("health.healthy", x(0) as i64);
            for i in 0..n {
                registry.observe("schedule.items", id(i));
            }
            let mut trace = DecisionTrace::with_capacity(1 + pick % 3);
            for i in 0..n {
                trace.push(DecisionTraceEntry {
                    user: id(i),
                    at_s: id(i + 1),
                    trigger: Trigger::ALL[(pick + i) % 2].as_str(),
                    considered: id(i + 2),
                    cut_freshness: 1,
                    cut_preference: 2,
                    cut_geo: 3,
                    cut_heard: 4,
                    scored: 5,
                    scheduled: 6,
                    top_clip: (i % 2 == 0).then_some(id(i + 3)),
                    top_content_micro: x(i) as i64,
                    top_context_micro: -(x(i + 1) as i64),
                    top_total_micro: 7,
                    verdict: Verdict::ALL[(pick + i) % 3],
                });
            }
            let snap = ObsSnapshot::capture(&registry, &trace);
            round_trip(&snap, put_obs_snapshot, get_obs_snapshot)?;
        }
    }

    /// Snapshot clip metadata and queued clips naming a category past
    /// `CATEGORY_COUNT` decode as corruption.
    #[test]
    fn out_of_range_category_is_corrupt() {
        let corrupt = Some(PersistError::Corrupt { what: "category id" });
        let clip = ClipMetadata {
            id: ClipId(1),
            title: "t".into(),
            kind: ClipKind::Podcast,
            category: CategoryId(CATEGORY_COUNT),
            category_confidence: 1.0,
            duration: TimeSpan(60),
            published: TimePoint(0),
            geo: None,
            transcript: Vec::new(),
        };
        let mut w = ByteWriter::new();
        put_clip_meta(&mut w, &clip);
        assert_eq!(get_clip_meta(&mut ByteReader::new(&w.into_inner())).err(), corrupt);
        let queued =
            QueuedClip { clip: ClipId(1), duration: TimeSpan(60), category: CategoryId(u16::MAX) };
        let mut w = ByteWriter::new();
        put_queued(&mut w, &queued);
        assert_eq!(get_queued(&mut ByteReader::new(&w.into_inner())).err(), corrupt);
    }
}
