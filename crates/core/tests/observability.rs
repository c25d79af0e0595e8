//! Observability acceptance suite: the obs layer must be invisible to
//! the platform's semantics and deterministic in its own right.
//!
//! * the exported [`ObsSnapshot`] JSON is byte-identical across worker
//!   counts — per-shard registries merge by exact integer addition, so
//!   partitioning cannot leak into the numbers,
//! * the decision-trace ring never exceeds its configured bound, no
//!   matter how many decisions fire,
//! * the snapshot wire format is pinned by a golden file, so schema
//!   drift is a reviewed change rather than an accident.

use pphcr_catalog::{CategoryId, ClipKind};
use pphcr_core::{Engine, EngineConfig, EngineEvent, TickRequest};
use pphcr_geo::{GeoPoint, TimePoint, TimeSpan};
use pphcr_trajectory::GpsFix;
use pphcr_userdata::{AgeBand, UserId, UserProfile};

const TORINO: GeoPoint = GeoPoint { lat: 45.0703, lon: 7.6869 };

fn profile(id: u64) -> UserProfile {
    UserProfile {
        id: UserId(id),
        name: format!("user {id}"),
        age_band: AgeBand::Adult,
        favourite_service: pphcr_catalog::ServiceIndex(0),
    }
}

/// Builds an engine with `n_users` commuters, each with seven days of
/// home→work→home history on their own bearing, plus fresh content.
/// Deterministic: two calls produce identical engines.
fn commuter_engine(n_users: u64, config: EngineConfig) -> Engine {
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
    for i in 0..20u64 {
        e.ingest_clip(
            format!("morning clip {i}"),
            ClipKind::Podcast,
            TimeSpan::minutes(4),
            TimePoint::at(7, 5, 0, 0),
            None,
            &[],
            Some(CategoryId::new((i % 7) as u16)),
        );
    }
    e
}

/// Drives day-8 commutes through batch ticks with the given worker
/// count, collecting every event.
fn run_day8(e: &mut Engine, n_users: u64, workers: usize) -> Vec<EngineEvent> {
    let users: Vec<UserId> = (1..=n_users).map(UserId).collect();
    let d8 = TimePoint::at(7, 8, 0, 0);
    let mut out = Vec::new();
    for i in 0..12u64 {
        let now = d8.advance(TimeSpan::seconds(i * 30));
        for &u in &users {
            let home = TORINO.destination(30.0 * u.0 as f64, 1_500.0 * u.0 as f64);
            let bearing = 80.0 + 15.0 * u.0 as f64;
            let frac = i as f64 / 39.0;
            e.record_fix(u, GpsFix::new(home.destination(bearing, frac * 9_000.0), now, 7.5));
        }
        out.extend(
            e.run_tick(&TickRequest::batch(&users, now).with_workers(workers)).expect("registered"),
        );
    }
    out
}

/// The tentpole invariant: the snapshot JSON — counters, gauges,
/// histograms and the decision trace — is byte-identical whether the
/// warm phase ran on 1, 2 or 8 workers.
#[test]
fn obs_snapshot_bit_identical_across_worker_counts() {
    let n = 3;
    let mut reference_engine = commuter_engine(n, EngineConfig::default());
    let reference_events = run_day8(&mut reference_engine, n, 1);
    let reference = reference_engine.obs_snapshot().to_json();
    assert!(
        reference_events.iter().any(|ev| matches!(ev, EngineEvent::Recommended { .. })),
        "scenario must exercise the proactive path"
    );
    assert!(
        reference_engine.obs_snapshot().counter("candidates.warmed") > 0,
        "scenario must exercise the parallel warm phase"
    );
    for workers in [2usize, 8] {
        let mut engine = commuter_engine(n, EngineConfig::default());
        let events = run_day8(&mut engine, n, workers);
        assert_eq!(events, reference_events, "{workers}-worker events diverged");
        assert_eq!(
            engine.obs_snapshot().to_json(),
            reference,
            "{workers}-worker snapshot diverged from the single-worker run"
        );
    }
}

/// The decision-trace ring never exceeds its configured bound; once
/// full it evicts oldest-first and counts what it dropped.
#[test]
fn decision_trace_never_exceeds_configured_bound() {
    let config = EngineConfig { trace_capacity: 2, ..EngineConfig::default() };
    let n = 3;
    let mut engine = commuter_engine(n, config);
    let events = run_day8(&mut engine, n, 1);
    assert!(
        events.iter().any(|ev| matches!(ev, EngineEvent::Recommended { .. })),
        "scenario must generate decisions to trace"
    );
    assert!(engine.obs_trace().len() <= 2, "ring exceeded its bound");
    assert_eq!(engine.obs_trace().capacity(), 2);
    let traced = engine.obs_trace().len() as u64 + engine.obs_trace().dropped();
    assert!(traced > 2, "scenario must overflow the ring to prove eviction: traced={traced}");
}

/// With observability disabled, the engine emits the same events and
/// keeps the registry and trace empty — instrumentation can be turned
/// off without changing platform behaviour.
#[test]
fn disabled_observability_changes_no_events() {
    let n = 2;
    let mut instrumented = commuter_engine(n, EngineConfig::default());
    let reference = run_day8(&mut instrumented, n, 2);
    let mut bare =
        commuter_engine(n, EngineConfig { obs_enabled: false, ..EngineConfig::default() });
    let events = run_day8(&mut bare, n, 2);
    assert_eq!(events, reference, "obs_enabled=false changed engine behaviour");
    assert_eq!(bare.obs().counter("engine.ticks"), 0, "disabled registry must stay empty");
    assert!(bare.obs_trace().is_empty(), "disabled trace must stay empty");
}

/// Golden wire format: the snapshot JSON for a pinned miniature
/// scenario must match the checked-in fixture byte for byte. Regenerate
/// with `OBS_BLESS=1 cargo test -p pphcr-core --test observability`.
#[test]
fn obs_snapshot_matches_golden_file() {
    let mut engine = commuter_engine(1, EngineConfig::default());
    let events = run_day8(&mut engine, 1, 1);
    assert!(
        events.iter().any(|ev| matches!(ev, EngineEvent::Recommended { .. })),
        "golden scenario must trace at least one decision"
    );
    let got = engine.obs_snapshot().to_json();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/obs_snapshot.json");
    if std::env::var_os("OBS_BLESS").is_some() {
        std::fs::write(path, &got).expect("write golden fixture");
        return;
    }
    let want = std::fs::read_to_string(path).expect("golden fixture present");
    assert_eq!(got, want, "snapshot schema drifted — rerun with OBS_BLESS=1 if intended");
}
