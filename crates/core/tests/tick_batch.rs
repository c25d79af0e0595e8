//! Batch-tick equivalence: a batch `Engine::run_tick` must emit a
//! bit-identical event stream to ticking each user sequentially, for
//! any worker count. The warm workers make the serial stages'
//! read-only decisions, and one commit writes what they resolved, so
//! this holds by construction — these tests pin the construction down,
//! on a perfect wire, under a bandwidth cap and on a lossy wire.

use pphcr_audio::clip::ClipId;
use pphcr_catalog::{CategoryId, ClipKind, ServiceIndex};
use pphcr_core::{
    CacheQuanta, Engine, EngineConfig, EngineEvent, FaultProfile, FaultyTransport, PlayerEvent,
    TickRequest, Topic,
};
use pphcr_geo::{GeoPoint, TimePoint, TimeSpan};
use pphcr_trajectory::GpsFix;
use pphcr_userdata::{AgeBand, FeedbackEvent, FeedbackKind, UserId, UserProfile};

const TORINO: GeoPoint = GeoPoint { lat: 45.0703, lon: 7.6869 };

fn profile(id: u64) -> UserProfile {
    UserProfile {
        id: UserId(id),
        name: format!("user {id}"),
        age_band: AgeBand::Adult,
        favourite_service: ServiceIndex(0),
    }
}

/// Builds an engine with `n_users` commuters, each with seven days of
/// home→work→home history on their own bearing, plus fresh content.
/// Deterministic: two calls produce identical engines.
fn commuter_engine(n_users: u64) -> Engine {
    commuter_engine_with(n_users, EngineConfig::default()).0
}

/// Same fleet under a caller-supplied config; also hands back the
/// ingested clip ids so tests can pre-sate a listener's heard set.
fn commuter_engine_with(n_users: u64, config: EngineConfig) -> (Engine, Vec<ClipId>) {
    let mut e = Engine::new(config);
    let t0 = TimePoint::at(0, 0, 0, 0);
    for u in 1..=n_users {
        e.register_user(profile(u), t0);
    }
    for u in 1..=n_users {
        let home = TORINO.destination(30.0 * u as f64, 1_500.0 * u as f64);
        let bearing = 80.0 + 15.0 * u as f64;
        for day in 0..7u64 {
            let d0 = TimePoint::at(day, 0, 0, 0);
            for i in 0..90u64 {
                e.record_fix(
                    UserId(u),
                    GpsFix::new(home, d0.advance(TimeSpan::minutes(i * 5)), 0.1),
                );
            }
            for i in 0..40u64 {
                let frac = i as f64 / 39.0;
                e.record_fix(
                    UserId(u),
                    GpsFix::new(
                        home.destination(bearing, frac * 9_000.0),
                        d0.advance(TimeSpan::hours(8)).advance(TimeSpan::seconds(i * 30)),
                        7.5,
                    ),
                );
            }
            let work = home.destination(bearing, 9_000.0);
            for i in 0..57u64 {
                e.record_fix(
                    UserId(u),
                    GpsFix::new(work, d0.advance(TimeSpan::minutes(510 + i * 10)), 0.2),
                );
            }
            for i in 0..40u64 {
                let frac = i as f64 / 39.0;
                e.record_fix(
                    UserId(u),
                    GpsFix::new(
                        work.destination(bearing + 180.0, frac * 9_000.0),
                        d0.advance(TimeSpan::hours(18)).advance(TimeSpan::seconds(i * 30)),
                        7.5,
                    ),
                );
            }
            for i in 0..66u64 {
                e.record_fix(
                    UserId(u),
                    GpsFix::new(home, d0.advance(TimeSpan::minutes(1105 + i * 5)), 0.1),
                );
            }
        }
    }
    let mut clips = Vec::new();
    for i in 0..20u64 {
        let (id, _) = e.ingest_clip(
            format!("morning clip {i}"),
            ClipKind::Podcast,
            TimeSpan::minutes(4),
            TimePoint::at(7, 5, 0, 0),
            None,
            &[],
            Some(CategoryId::new((i % 7) as u16)),
        );
        clips.push(id);
    }
    (e, clips)
}

/// The same fleet, switched to `wire` for the day-8 window.
fn commuter_engine_on(n_users: u64, wire: FaultyTransport) -> Engine {
    let mut e = commuter_engine(n_users);
    e.bus.set_transport(Box::new(wire));
    e
}

/// Drives day-8 commutes through `step`, collecting every event.
fn run_day8<F>(e: &mut Engine, n_users: u64, step: F) -> Vec<EngineEvent>
where
    F: FnMut(&mut Engine, &[UserId], TimePoint) -> Vec<EngineEvent>,
{
    run_day8_surfing(e, n_users, false, step)
}

/// [`run_day8`], where with `surf` every listener changes service
/// before each step's fixes: a `Tuned` announcement on the Tracking
/// topic that nothing pumps until the next fix or tick.
fn run_day8_surfing<F>(e: &mut Engine, n_users: u64, surf: bool, mut step: F) -> Vec<EngineEvent>
where
    F: FnMut(&mut Engine, &[UserId], TimePoint) -> Vec<EngineEvent>,
{
    let users: Vec<UserId> = (1..=n_users).map(UserId).collect();
    let d8 = TimePoint::at(7, 8, 0, 0);
    let mut out = Vec::new();
    for i in 0..12u64 {
        let now = d8.advance(TimeSpan::seconds(i * 30));
        if surf {
            for &u in &users {
                e.change_service(u, ServiceIndex(1 + (i % 2) as u32), now).expect("registered");
            }
        }
        for &u in &users {
            let home = TORINO.destination(30.0 * u.0 as f64, 1_500.0 * u.0 as f64);
            let bearing = 80.0 + 15.0 * u.0 as f64;
            let frac = i as f64 / 39.0;
            e.record_fix(u, GpsFix::new(home.destination(bearing, frac * 9_000.0), now, 7.5));
        }
        out.extend(step(e, &users, now));
    }
    out
}

#[test]
fn tick_batch_matches_sequential_ticks_across_worker_counts() {
    let n = 3;
    let reference = run_day8(&mut commuter_engine(n), n, single_ticks);
    assert!(
        reference.iter().any(|ev| matches!(ev, EngineEvent::Recommended { .. })),
        "scenario must exercise the proactive path"
    );
    for workers in [1usize, 2, 8] {
        let mut batched = commuter_engine(n);
        let events = run_day8(&mut batched, n, |e, users, now| {
            e.run_tick(&TickRequest::batch(users, now).with_workers(workers)).expect("registered")
        });
        assert_eq!(
            events, reference,
            "batch tick with {workers} workers diverged from sequential ticks"
        );
    }
}

#[test]
fn tick_batch_default_workers_matches_sequential() {
    let n = 2;
    let reference = run_day8(&mut commuter_engine(n), n, single_ticks);
    let mut batched = commuter_engine(n);
    let events = run_day8(&mut batched, n, |e, users, now| {
        e.run_tick(&TickRequest::batch(users, now)).expect("registered")
    });
    assert_eq!(events, reference);
}

/// Single ticks, one listener per request, as the reference stream.
fn single_ticks(e: &mut Engine, users: &[UserId], now: TimePoint) -> Vec<EngineEvent> {
    let mut evs = Vec::new();
    for &u in users {
        evs.extend(e.run_tick(&TickRequest::single(&u, now)).expect("registered"));
    }
    evs
}

/// Under a Tracking bandwidth cap each receive call releases one
/// message, so how often a tick pumps decides which fixes land in it.
/// Surfing listeners keep a backlog on the wire. A tick pumps once,
/// before its warm phase: a second pump per step would release fixes
/// after the warm phase built those listeners' contexts, and the batch
/// would serve the stale ones.
#[test]
fn tick_batch_matches_unwarmed_ticks_under_a_tracking_bandwidth_cap() {
    let n = 3;
    let run = |batch: bool, workers: usize| {
        let mut profile = FaultProfile::none();
        profile.bandwidth_caps.insert(Topic::Tracking, 1);
        let mut e = commuter_engine_on(n, FaultyTransport::new(profile, 1));
        run_day8_surfing(&mut e, n, true, |e, users, now| {
            let request = TickRequest { users, now, batch, workers: None }.with_workers(workers);
            e.run_tick(&request).expect("registered")
        })
    };
    let reference = run(false, 1);
    assert!(
        reference.iter().any(|ev| matches!(ev, EngineEvent::TripPredicted { .. })),
        "scenario must predict trips"
    );
    for workers in [1usize, 2, 8] {
        assert_eq!(
            run(true, workers),
            reference,
            "batch tick with {workers} workers diverged from the unwarmed tick under a cap"
        );
    }
}

/// Batch ticks equal single ticks on a lossy wire too — loss,
/// duplication, reordering and delay — under `CHAOS_SEED` (default 1),
/// which the nightly sweep varies.
#[test]
fn tick_batch_matches_sequential_ticks_on_a_lossy_wire() {
    let seed = std::env::var("CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(1u64);
    let n = 4;
    let lossy = || commuter_engine_on(n, FaultyTransport::new(FaultProfile::lossy_mobile(), seed));
    let reference = run_day8(&mut lossy(), n, single_ticks);
    assert!(
        reference.iter().any(|ev| matches!(ev, EngineEvent::TripPredicted { .. })),
        "scenario must predict trips under seed {seed}"
    );
    for workers in [1usize, 2, 8] {
        let events = run_day8(&mut lossy(), n, |e, users, now| {
            e.run_tick(&TickRequest::batch(users, now).with_workers(workers)).expect("registered")
        });
        assert_eq!(
            events, reference,
            "batch tick with {workers} workers diverged from single ticks under seed {seed}"
        );
    }
}

/// Coarse quanta so the freshness/phase/position buckets hold across a
/// whole morning window — the regime where ranked lists can survive
/// from one tick to the next.
fn coarse_quanta_config() -> EngineConfig {
    EngineConfig {
        cache_quanta: CacheQuanta {
            freshness: TimeSpan::hours(1),
            decay: TimeSpan::hours(24),
            phase: TimeSpan::hours(1),
            position_m: 50_000.0,
        },
        ..EngineConfig::default()
    }
}

/// One churny morning window at a given worker count: three commuters
/// tick in batches for 15 minutes (past the 10-minute proactive
/// cooldown) while feedback lands mid-run, one listener skips, and
/// user 1 — who has already heard the whole catalog — re-fires onto an
/// empty shortlist with a stable cache key. Returns the full event
/// stream, the `ObsSnapshot` JSON, and the cross-tick hit counter.
fn churn_window(workers: usize) -> (Vec<EngineEvent>, String, u64) {
    let n = 3u64;
    let (mut e, clips) = commuter_engine_with(n, coarse_quanta_config());
    for &clip in &clips {
        e.apply_player_events(UserId(1), &[PlayerEvent::ClipStarted(clip)]);
    }
    let users: Vec<UserId> = (1..=n).map(UserId).collect();
    let d8 = TimePoint::at(7, 8, 0, 0);
    let mut events = Vec::new();
    for i in 0..30u64 {
        let now = d8.advance(TimeSpan::seconds(i * 30));
        for &u in &users {
            let home = TORINO.destination(30.0 * u.0 as f64, 1_500.0 * u.0 as f64);
            let bearing = 80.0 + 15.0 * u.0 as f64;
            let frac = (i as f64 / 39.0).min(1.0);
            e.record_fix(u, GpsFix::new(home.destination(bearing, frac * 9_000.0), now, 7.5));
        }
        if i == 7 {
            e.record_feedback(FeedbackEvent {
                user: UserId(2),
                clip: None,
                category: CategoryId::new(2),
                kind: FeedbackKind::Like,
                time: now,
            });
        }
        if i == 9 {
            events.extend(e.skip(UserId(3), now));
        }
        events.extend(
            e.run_tick(&TickRequest::batch(&users, now).with_workers(workers)).expect("registered"),
        );
    }
    let hits = e.obs().counter("candidates.cross_tick_hit");
    (events, e.obs_snapshot().to_json(), hits)
}

#[test]
fn tick_batch_byte_identical_under_churn_with_cache_survival() {
    let (reference_events, reference_snapshot, hits) = churn_window(1);
    assert!(
        hits >= 1,
        "a fully-heard listener re-firing under coarse quanta must reuse its cached \
         (empty) ranked list across ticks; got {hits} cross-tick hits"
    );
    assert!(
        reference_events.iter().any(|ev| matches!(ev, EngineEvent::Recommended { .. })),
        "scenario must exercise the proactive path"
    );
    for workers in [2usize, 8] {
        let (events, snapshot, _) = churn_window(workers);
        assert_eq!(
            events, reference_events,
            "event stream with {workers} workers diverged from 1 worker under churn"
        );
        assert_eq!(
            snapshot, reference_snapshot,
            "ObsSnapshot JSON with {workers} workers diverged from 1 worker under churn"
        );
    }
}
