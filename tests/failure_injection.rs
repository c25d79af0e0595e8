//! Failure-injection tests: the platform must degrade gracefully under
//! the faults a deployed system actually sees — GPS dropouts and
//! garbage, cold-start users, clip underflow, schedule drift, and
//! time-shift buffers that are too small for the displacement.

use pphcr::audio::source::{AudioSource, LiveSource};
use pphcr::audio::{ClipId, ClipStore, SampleClock, TimeShiftBuffer};
use pphcr::catalog::{CategoryId, ClipKind, Schedule, ServiceIndex};
use pphcr::core::{
    Engine, EngineConfig, EngineError, HealthCounts, PlaybackMode, ReplacementPlanner, TickRequest,
};
use pphcr::geo::{GeoPoint, TimePoint, TimeSpan};
use pphcr::sim::population::GpsNoise;
use pphcr::sim::{Population, SyntheticCity};
use pphcr::trajectory::model::ModelConfig;
use pphcr::trajectory::{GpsFix, MobilityModel, Trace};
use pphcr::userdata::{AgeBand, UserId, UserProfile};

fn register(engine: &mut Engine, id: u64) -> UserId {
    let user = UserId(id);
    engine.register_user(
        UserProfile {
            id: user,
            name: format!("user {id}"),
            age_band: AgeBand::Adult,
            favourite_service: ServiceIndex(0),
        },
        TimePoint::EPOCH,
    );
    user
}

/// Heavy GPS dropout (40 % of fixes lost) must still yield a usable
/// mobility model: staying points survive, routes may thin but the
/// pipeline never panics.
#[test]
fn gps_dropout_degrades_gracefully() {
    let city = SyntheticCity::generate(10, 400.0, 11);
    let pop = Population::generate(&city, 1, 22);
    let commuter = &pop.commuters[0];
    let lossy = GpsNoise { dropout: 0.4, ..Default::default() };
    let mut fixes = Vec::new();
    for day in 0..7 {
        fixes.extend(pop.day_trace(&city, commuter, day, lossy));
    }
    let trace = Trace::from_fixes(fixes);
    let model = MobilityModel::build(&trace, &city.projection, &ModelConfig::default());
    assert!(model.stay_points.len() >= 2, "home/work survive 40% dropout");
}

/// A flood of invalid fixes (NaN, negative speed) is counted and
/// dropped; valid fixes after the flood still work.
#[test]
fn invalid_fix_flood_is_contained() {
    let mut engine = Engine::new(EngineConfig::default());
    let user = register(&mut engine, 1);
    for i in 0..500u64 {
        engine.record_fix(
            user,
            GpsFix::new(GeoPoint::new(f64::NAN, f64::INFINITY), TimePoint(i), -1.0),
        );
    }
    assert_eq!(engine.tracking.dropped_invalid(), 500);
    assert_eq!(engine.tracking.total_fixes(), 0);
    engine.record_fix(user, GpsFix::new(GeoPoint::new(45.07, 7.69), TimePoint(501), 1.0));
    assert_eq!(engine.tracking.total_fixes(), 1);
    // The engine still ticks without a panic.
    let _ = engine.run_tick(&TickRequest::single(&user, TimePoint(502)));
}

/// Cold start: a brand-new user with no history, no fixes and an empty
/// repository gets no recommendation — and no panic — from every entry
/// point.
#[test]
fn cold_start_everything_empty() {
    let mut engine = Engine::new(EngineConfig::default());
    let user = register(&mut engine, 9);
    let now = TimePoint::at(0, 9, 0, 0);
    assert!(engine.run_tick(&TickRequest::single(&user, now)).expect("registered").is_empty());
    let events = engine.skip(user, now);
    assert!(events.is_empty(), "nothing to recommend: {events:?}");
    // The player falls back to live, not to a crash.
    assert_eq!(engine.player(user).unwrap().mode(), PlaybackMode::Live);
    // Ticking an unregistered user is a typed rejection, not a panic.
    assert_eq!(
        engine.run_tick(&TickRequest::single(&UserId(777), now)),
        Err(EngineError::UnknownUser(UserId(777)))
    );
}

/// Clip underflow: the queue runs dry mid-session; the player resumes
/// the (shifted) live stream rather than going silent.
#[test]
fn queue_underflow_resumes_live() {
    let mut engine = Engine::new(EngineConfig::default());
    let user = register(&mut engine, 2);
    let now = TimePoint::at(0, 9, 0, 0);
    let (clip, _) = engine.ingest_clip(
        "only one",
        ClipKind::Podcast,
        TimeSpan::minutes(4),
        now,
        None,
        &[],
        Some(CategoryId::new(1)),
    );
    engine.inject(user, clip, now, "seed the queue").unwrap();
    let _ = engine.run_tick(&TickRequest::single(&user, now.advance(TimeSpan::seconds(10))));
    engine.advance_player(user, now.advance(TimeSpan::seconds(20))).unwrap();
    assert!(matches!(engine.player(user).unwrap().mode(), PlaybackMode::Clip { .. }));
    // The clip ends; nothing else queued.
    let events = engine.advance_player(user, now.advance(TimeSpan::minutes(10))).unwrap();
    assert!(events.iter().any(|e| matches!(e, pphcr::core::PlayerEvent::ResumedLive { .. })));
    let player = engine.player(user).unwrap();
    assert_eq!(player.mode(), PlaybackMode::Shifted);
    assert_eq!(player.displacement(), TimeSpan::minutes(4));
}

/// Schedule drift: the replacement planner is asked to fit clips that
/// overrun the horizon (the programme ran long). It must refuse with a
/// typed error instead of producing an over-long plan.
#[test]
fn schedule_drift_rejected_not_mangled() {
    let planner = ReplacementPlanner { clock: SampleClock::new(50), fade_samples: 10 };
    let mut store = ClipStore::new();
    store.insert_simple(ClipId(1), TimeSpan::minutes(30));
    let err = planner
        .plan(
            ServiceIndex(0),
            &store,
            &Schedule::new(),
            TimePoint::at(0, 10, 0, 0),
            TimePoint::at(0, 10, 5, 0),
            &[ClipId(1)],
            TimePoint::at(0, 10, 20, 0), // 15 min of room for a 30 min clip
        )
        .unwrap_err();
    assert!(matches!(err, pphcr::core::replacement::ReplacementError::HorizonTooShort));
}

/// Time-shift buffer undersized for the displacement: the read fails
/// loudly (typed error) instead of returning wrong audio.
#[test]
fn undersized_timeshift_buffer_fails_loudly() {
    let live = LiveSource::new(0);
    let clock = SampleClock::new(100);
    // 5 minutes of displacement, but only 2 minutes of buffer.
    let capacity = clock.samples_in(TimeSpan::minutes(2)) as usize;
    let mut buf = TimeShiftBuffer::new(live.id(), capacity, 0);
    buf.record_until(&live, clock.samples_in(TimeSpan::minutes(10)));
    let mut out = vec![0.0f32; 100];
    let delayed_start = clock.samples_in(TimeSpan::minutes(5));
    let result = buf.read(delayed_start, &mut out);
    assert!(result.is_err(), "evicted audio must not read silently");
    // In-window reads still work and are exact.
    let ok_start = buf.oldest();
    buf.read(ok_start, &mut out).unwrap();
    for (i, &v) in out.iter().enumerate() {
        assert_eq!(v, live.sample(ok_start + i as u64));
    }
}

/// A listener whose trips never match a profile (erratic movement)
/// never triggers proactive recommendations — the proactivity gate
/// holds rather than guessing.
#[test]
fn erratic_movement_never_triggers() {
    let mut engine = Engine::new(EngineConfig::default());
    let user = register(&mut engine, 3);
    for i in 0..5u64 {
        engine.ingest_clip(
            format!("clip {i}"),
            ClipKind::Podcast,
            TimeSpan::minutes(5),
            TimePoint::EPOCH,
            None,
            &[],
            Some(CategoryId::new(1)),
        );
    }
    let origin = GeoPoint::new(45.07, 7.69);
    // Random-walk drives: every day a different bearing, no dwell
    // structure at the endpoints.
    let mut events_seen = 0;
    for day in 0..4u64 {
        for i in 0..30u64 {
            let now = TimePoint::at(day, 9, 0, 0).advance(TimeSpan::seconds(i * 30));
            let bearing = (day * 83 + i * 29) as f64 % 360.0;
            engine.record_fix(
                user,
                GpsFix::new(origin.destination(bearing, i as f64 * 300.0), now, 9.0),
            );
            events_seen += engine
                .run_tick(&TickRequest::single(&user, now))
                .expect("registered")
                .iter()
                .filter(|e| matches!(e, pphcr::core::EngineEvent::Recommended { .. }))
                .count();
        }
    }
    assert_eq!(events_seen, 0, "no profile, no proactive recommendation");
}

/// Every user-keyed entry point is total for an unregistered listener:
/// a typed error where the caller must know, an empty result or a no-op
/// everywhere else — never a panic.
#[test]
fn unregistered_user_is_total_at_every_entry_point() {
    use pphcr::core::EngineError;
    use pphcr::userdata::{FeedbackEvent, FeedbackKind};

    let mut engine = Engine::new(EngineConfig::default());
    let registered = register(&mut engine, 1);
    let now = TimePoint::at(0, 9, 0, 0);
    let (clip, _) = engine.ingest_clip(
        "real clip",
        ClipKind::Podcast,
        TimeSpan::minutes(3),
        now,
        None,
        &[],
        Some(CategoryId::new(1)),
    );
    let ghost = UserId(404);

    // Typed errors where silently dropping the request would hide a bug.
    assert_eq!(
        engine.change_service(ghost, ServiceIndex(1), now),
        Err(EngineError::UnknownUser(ghost))
    );
    assert_eq!(engine.inject(ghost, clip, now, "push"), Err(EngineError::UnknownUser(ghost)));
    assert_eq!(
        engine.inject(registered, ClipId(9_999), now, "push"),
        Err(EngineError::UnknownClip(ClipId(9_999)))
    );

    // Typed rejection from the tick path; no-ops everywhere else.
    assert_eq!(
        engine.run_tick(&TickRequest::single(&ghost, now)),
        Err(EngineError::UnknownUser(ghost))
    );
    assert!(engine.skip(ghost, now).is_empty());
    assert!(engine.heard(ghost).is_empty());
    assert!(engine.player(ghost).is_none());
    assert!(matches!(engine.advance_player(ghost, now), Err(EngineError::UnknownUser(_))));
    assert!(engine.health_of(ghost).is_none());
    assert!(engine.user_health(ghost).is_none());
    engine.record_fix(ghost, GpsFix::new(GeoPoint::new(45.07, 7.69), now, 1.0));
    engine.record_feedback(FeedbackEvent {
        user: ghost,
        clip: Some(clip),
        category: CategoryId::new(1),
        kind: FeedbackKind::Like,
        time: now,
    });
    engine.apply_player_events(ghost, &[]);

    // Nothing above disturbed the registered listener.
    assert!(engine.player(registered).is_some());
    assert_eq!(engine.health_counts(), HealthCounts { healthy: 1, degraded: 0, broadcast_only: 0 });
}
