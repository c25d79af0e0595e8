//! Chaos acceptance suite: the platform under a hostile network.
//!
//! Everything here is deterministic — the wire and the unicast link
//! draw faults from seeded generators — so each scenario is exactly
//! reproducible. The suite pins the contract of the resilience layer:
//!
//! * the engine never panics under loss, duplication, reordering,
//!   delay and fetch failures,
//! * every listener converges to an explicit health state,
//! * editorial injections are applied exactly once or dead-lettered
//!   with a reason — never silently lost, never applied twice,
//! * with every fault disabled the chaos machinery is invisible: a
//!   `FaultyTransport` with a zero-rate profile produces byte-identical
//!   behaviour to the default perfect transport.

use pphcr::audio::ClipId;
use pphcr::catalog::{CategoryId, ClipKind, ServiceIndex};
use pphcr::core::{
    BusMessage, DeadLetterReason, Engine, EngineConfig, EngineEvent, FaultProfile, FaultyTransport,
    HealthCounts, PlatformSnapshot, TickRequest, Topic, UnicastLink,
};
use pphcr::geo::{TimePoint, TimeSpan};
use pphcr::userdata::{AgeBand, UserId, UserProfile};
use std::collections::HashMap;

const USERS: u64 = 4;

fn build_engine() -> Engine {
    build_engine_with(|_| {})
}

/// Builds the listener population after `configure` has run, so a
/// swapped transport sees the registration traffic too.
fn build_engine_with(configure: impl FnOnce(&mut Engine)) -> Engine {
    let mut engine = Engine::new(EngineConfig::default());
    configure(&mut engine);
    let t0 = TimePoint::at(0, 9, 0, 0);
    for u in 1..=USERS {
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
    engine
}

/// Submits injections and ticks every listener over a two-hour horizon,
/// then keeps ticking a quiet tail so retries and backoff timers
/// settle. Returns all events per clip plus the submission count.
fn drive(engine: &mut Engine) -> (HashMap<ClipId, u64>, u64) {
    let t0 = TimePoint::at(0, 9, 0, 0);
    let mut clips = Vec::new();
    for i in 0..16u64 {
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
    let mut deliveries: HashMap<ClipId, u64> = HashMap::new();
    let mut clip_iter = clips.into_iter();
    for step in 0..300u64 {
        let now = t0.advance(TimeSpan::seconds(step * 30));
        // Submissions stop early; the long tail lets retries drain.
        if step % 10 == 0 && step < 40 {
            for u in 1..=USERS {
                if let Some(clip) = clip_iter.next() {
                    if engine.inject(UserId(u), clip, now, "chaos").is_ok() {
                        submitted += 1;
                    }
                }
            }
        }
        for u in 1..=USERS {
            for event in engine.run_tick(&TickRequest::single(&UserId(u), now)).expect("registered")
            {
                if let EngineEvent::InjectionDelivered { clip, .. } = event {
                    *deliveries.entry(clip).or_default() += 1;
                }
            }
        }
    }
    (deliveries, submitted)
}

/// 20 % loss + 10 % duplication + reordering + delay + intermittent
/// unicast failures: the engine survives, every listener lands on an
/// explicit health rung, and the delivery ledger fully settles.
#[test]
fn lossy_mobile_never_panics_and_health_converges() {
    let mut engine = build_engine_with(|e| {
        e.bus.set_transport(Box::new(FaultyTransport::new(FaultProfile::lossy_mobile(), 99)));
        e.unicast = UnicastLink::flaky(0.3, TimeSpan::seconds(2), TimeSpan::seconds(10), 7);
    });
    let (deliveries, submitted) = drive(&mut engine);

    assert!(submitted > 0);
    for u in 1..=USERS {
        assert!(
            engine.health_of(UserId(u)).is_some(),
            "listener {u} must have an explicit health state"
        );
    }
    assert_eq!(
        engine.health_counts().total(),
        USERS,
        "health covers exactly the registered listeners"
    );
    assert_eq!(
        engine.delivery.outstanding_count(),
        0,
        "every tracked delivery settled: acknowledged or dead-lettered"
    );
    assert!(engine.delivery.retries() > 0, "the lossy wire must engage retries");
    assert!(!deliveries.is_empty(), "some injections survive the chaos");
}

/// Under duplication and retries, no injection is ever applied twice;
/// the rest of the budget-exhausted ones land in the dead-letter store
/// with an explicit reason.
#[test]
fn injections_exactly_once_or_dead_lettered() {
    let mut engine = build_engine_with(|e| {
        e.bus.set_transport(Box::new(FaultyTransport::new(FaultProfile::lossy_mobile(), 4242)));
        e.unicast = UnicastLink::flaky(0.25, TimeSpan::seconds(1), TimeSpan::seconds(10), 11);
    });
    let (deliveries, submitted) = drive(&mut engine);

    for (clip, count) in &deliveries {
        assert_eq!(*count, 1, "clip {clip:?} applied {count} times — exactly-once violated");
    }
    let dead_injections = engine
        .bus
        .dead_letters()
        .iter()
        .filter(|dl| {
            dl.topic == Topic::Recommendation
                && matches!(dl.envelope.message, BusMessage::Inject { .. })
        })
        .collect::<Vec<_>>();
    for dl in &dead_injections {
        assert_eq!(dl.reason, DeadLetterReason::RetryBudgetExhausted);
    }
    assert!(
        deliveries.len() as u64 + dead_injections.len() as u64 <= submitted,
        "no delivery invented out of thin air"
    );
    assert_eq!(engine.delivery.outstanding_count(), 0, "ledger fully settled");
    assert!(
        engine.delivery.duplicates_filtered() > 0,
        "10% duplication must exercise the dedup filter"
    );
}

/// The same seed reproduces the same chaos, byte for byte.
#[test]
fn chaos_is_deterministic_per_seed() {
    let run = |seed: u64| {
        let mut engine = build_engine_with(|e| {
            e.bus.set_transport(Box::new(FaultyTransport::new(FaultProfile::lossy_mobile(), seed)));
            e.unicast = UnicastLink::flaky(0.3, TimeSpan::seconds(2), TimeSpan::seconds(10), seed);
        });
        let (deliveries, submitted) = drive(&mut engine);
        let snap = PlatformSnapshot::capture(&engine, TimePoint::at(0, 12, 0, 0));
        (deliveries, submitted, snap.to_json())
    };
    let a = run(31);
    let b = run(31);
    assert_eq!(a, b, "same seed, same run");
    let c = run(32);
    assert_ne!(a.2, c.2, "different seed, different faults");
}

/// A `FaultyTransport` with every rate at zero — and no bandwidth caps —
/// is indistinguishable from the default perfect transport: identical
/// events, identical snapshot. Chaos machinery off = seed behaviour.
#[test]
fn zero_fault_profile_is_byte_identical_to_perfect_transport() {
    let run = |chaotic: bool| {
        let mut engine = build_engine_with(|e| {
            if chaotic {
                e.bus.set_transport(Box::new(FaultyTransport::new(FaultProfile::none(), 555)));
            }
        });
        let (deliveries, submitted) = drive(&mut engine);
        let snap = PlatformSnapshot::capture(&engine, TimePoint::at(0, 12, 0, 0));
        (deliveries, submitted, snap.to_json())
    };
    assert_eq!(run(false), run(true));
}

/// On the perfect transport every injection is delivered exactly once
/// with no resilience machinery engaged, and every listener stays
/// healthy.
#[test]
fn perfect_transport_needs_no_resilience() {
    let mut engine = build_engine();
    let (deliveries, submitted) = drive(&mut engine);
    assert_eq!(deliveries.len() as u64, submitted, "all delivered");
    assert!(deliveries.values().all(|&n| n == 1));
    assert_eq!(engine.delivery.retries(), 0);
    assert_eq!(engine.delivery.duplicates_filtered(), 0);
    assert!(engine.bus.dead_letters().is_empty());
    assert_eq!(
        engine.health_counts(),
        HealthCounts { healthy: USERS, degraded: 0, broadcast_only: 0 }
    );
}

/// Seed-independent invariants, parameterised for CI's scheduled
/// multi-seed sweep: `CHAOS_SEED=n cargo test --test chaos` drives the
/// whole hostile scenario under seed `n` (default 1) and checks every
/// property that must hold for *any* seed — unlike the pinned-seed
/// tests above, nothing here depends on how one particular fault
/// stream happens to unfold.
#[test]
fn chaos_invariants_hold_for_env_seed() {
    let seed = std::env::var("CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(1u64);
    let mut engine = build_engine_with(|e| {
        e.bus.set_transport(Box::new(FaultyTransport::new(FaultProfile::lossy_mobile(), seed)));
        e.unicast = UnicastLink::flaky(0.3, TimeSpan::seconds(2), TimeSpan::seconds(10), seed);
    });
    let (deliveries, submitted) = drive(&mut engine);

    assert!(submitted > 0);
    for count in deliveries.values() {
        assert_eq!(*count, 1, "exactly-once violated under seed {seed}");
    }
    assert!(
        deliveries.len() as u64 <= submitted,
        "no delivery invented out of thin air under seed {seed}"
    );
    assert_eq!(engine.delivery.outstanding_count(), 0, "ledger did not settle under seed {seed}");
    assert_eq!(
        engine.health_counts().total(),
        USERS,
        "health must cover all listeners under seed {seed}"
    );
}
