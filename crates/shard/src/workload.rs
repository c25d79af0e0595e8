//! The deterministic differential workload and its single-process
//! baseline.
//!
//! [`commands`] scripts a seeded mixed day — registrations, classifier
//! training, environment configuration, catalog ingest, GPS drives,
//! feedback, editorial injections (including a rejected one), skips,
//! player advances (including a rejected one) and interleaved batch
//! ticks — exercising every [`EngineCommand`] variant. The script is
//! built for *N-invariance*: it runs on the default clean transport
//! (retries and chaos leak events across tick turns and are exercised
//! by the crash sweep instead), keeps injections far below the
//! editorial queue's reject threshold, and ends with a drain tick so
//! no bus message is still in flight when snapshots are captured.
//!
//! [`run_single`] folds the script through one engine via
//! [`Engine::apply`] — the exact function every shard agent applies
//! forwarded commands with — recording the identity lines and the
//! observability snapshot the sharded deployment must reproduce
//! byte-for-byte.

use pphcr_catalog::{CategoryId, ClipKind, Gazetteer, GeoTag, ServiceIndex};
use pphcr_core::{Engine, EngineCommand, EngineConfig};
use pphcr_geo::{GeoPoint, NodeKind, ProjectedPoint, RoadNetwork, TimePoint, TimeSpan};
use pphcr_trajectory::GpsFix;
use pphcr_userdata::{AgeBand, FeedbackEvent, FeedbackKind, UserId, UserProfile};

/// Listeners in the scripted workload — enough that every shard of a
/// four-way split owns several.
pub const USERS: u64 = 12;

/// The scenario origin (central Torino, like the paper's pilot).
const ORIGIN: (f64, f64) = (45.0703, 7.6869);

fn t0() -> TimePoint {
    TimePoint::at(0, 9, 0, 0)
}

fn fix(user: u64, point: GeoPoint, time: TimePoint, speed_mps: f64) -> EngineCommand {
    EngineCommand::RecordFix { user: UserId(user), fix: GpsFix { point, time, speed_mps } }
}

/// The scripted command sequence: a deterministic function of `seed`
/// covering every [`EngineCommand`] variant under clean-transport
/// N-invariance constraints.
#[must_use]
pub fn commands(seed: u64) -> Vec<EngineCommand> {
    let start = t0();
    let mut ops = Vec::new();

    for u in 1..=USERS {
        ops.push(EngineCommand::RegisterUser {
            profile: UserProfile {
                id: UserId(u),
                name: format!("listener {u}"),
                age_band: if u % 2 == 0 { AgeBand::Adult } else { AgeBand::Young },
                favourite_service: ServiceIndex(0),
            },
            now: start,
        });
    }

    ops.push(EngineCommand::TrainClassifier {
        category: CategoryId::new(1),
        tokens: vec!["traffic".into(), "ring".into(), "road".into(), "queue".into()],
    });
    ops.push(EngineCommand::TrainClassifier {
        category: CategoryId::new(2),
        tokens: vec!["football".into(), "derby".into(), "goal".into(), "league".into()],
    });

    // Replicated environment: a toy road network and a gazetteer,
    // broadcast to every shard by the router.
    let mut network = RoadNetwork::new();
    let a = network.add_node(ProjectedPoint::new(0.0, 0.0), NodeKind::Intersection);
    let b = network.add_node(ProjectedPoint::new(1_500.0, 400.0), NodeKind::Roundabout);
    network.add_edge(a, b, 13.9);
    ops.push(EngineCommand::SetRoadNetwork { network });
    let mut gazetteer = Gazetteer::new();
    gazetteer.add_place("torino", GeoPoint::new(ORIGIN.0, ORIGIN.1), 5_000.0);
    ops.push(EngineCommand::SetGazetteer { gazetteer });

    // Corpus: a dozen clips, half editorially labelled, a third
    // geo-tagged, publication jitter derived from the seed.
    for i in 0..12u64 {
        let jitter = (seed.wrapping_mul(2_654_435_761).wrapping_add(i * 97)) % 600;
        let geo = (i % 3 == 0).then(|| GeoTag {
            point: GeoPoint::new(ORIGIN.0 + 0.001 * i as f64, ORIGIN.1 - 0.0005 * i as f64),
            radius_m: 800.0,
        });
        ops.push(EngineCommand::IngestClip {
            title: format!("clip {i} (seed {seed})"),
            kind: if i % 4 == 0 { ClipKind::NewsBulletin } else { ClipKind::Podcast },
            duration: TimeSpan::seconds(120 + (i % 5) * 30),
            published: TimePoint::at(8, 7, 0, 0).advance(TimeSpan::seconds(jitter)),
            geo,
            tokens: vec![
                if i % 2 == 0 { "traffic".into() } else { "football".into() },
                format!("token{i}"),
                "torino".into(),
            ],
            editorial: (i % 2 == 0).then(|| CategoryId::new((i % 3) as u16 + 1)),
        });
    }

    // A week of commutes for two listeners (who land on different
    // shards of a two-way split), so trip prediction is armed and the
    // ticks below produce real proactive schedules — the events the
    // identity check feeds on. Geometry mirrors the §2.1.2 scenario:
    // home, a 9 km drive at ~7.5 m/s, a work stay, and the return.
    let home = GeoPoint::new(ORIGIN.0, ORIGIN.1);
    let bearing = |u: u64| 60.0 + 20.0 * u as f64;
    for u in 1..=2u64 {
        let work = home.destination(bearing(u), 9_000.0);
        for day in 1..=7u64 {
            let d0 = TimePoint::at(day, 0, 0, 0);
            for i in 0..90 {
                ops.push(fix(u, home, d0.advance(TimeSpan::minutes(i * 5)), 0.1));
            }
            for i in 0..40u64 {
                let frac = i as f64 / 39.0;
                ops.push(fix(
                    u,
                    home.destination(bearing(u), frac * 9_000.0),
                    d0.advance(TimeSpan::hours(8)).advance(TimeSpan::seconds(i * 30)),
                    7.5,
                ));
            }
            for i in 0..57 {
                ops.push(fix(u, work, d0.advance(TimeSpan::minutes(510 + i * 10)), 0.2));
            }
            for i in 0..40u64 {
                let frac = i as f64 / 39.0;
                ops.push(fix(
                    u,
                    work.destination(bearing(u) + 180.0, frac * 9_000.0),
                    d0.advance(TimeSpan::hours(18)).advance(TimeSpan::seconds(i * 30)),
                    7.5,
                ));
            }
            for i in 0..66 {
                ops.push(fix(u, home, d0.advance(TimeSpan::minutes(1105 + i * 5)), 0.1));
            }
        }
    }

    // Tastes for the commuters: likes on the editorially labelled
    // categories, so the scheduler has ranked candidates to pack.
    for u in 1..=2u64 {
        for cat in [1u16, 2] {
            for rep in 0..3u64 {
                ops.push(EngineCommand::RecordFeedback {
                    event: FeedbackEvent {
                        user: UserId(u),
                        clip: None,
                        category: CategoryId::new(cat),
                        kind: FeedbackKind::Like,
                        time: TimePoint::at(8, 6, 0, 0)
                            .advance(TimeSpan::seconds(u * 60 + u64::from(cat) * 10 + rep)),
                    },
                });
            }
        }
    }

    // Day 8, 08:00 — the live morning drive the ticks run against.
    let live0 = TimePoint::at(8, 8, 0, 0);
    let mut mixed = Vec::new();

    for (i, kind) in [
        FeedbackKind::Like,
        FeedbackKind::Dislike,
        FeedbackKind::ListenedThrough,
        FeedbackKind::PartialListen(0.5),
    ]
    .into_iter()
    .enumerate()
    {
        mixed.push(EngineCommand::RecordFeedback {
            event: FeedbackEvent {
                user: UserId(i as u64 % USERS + 1),
                clip: (i % 2 == 0).then(|| pphcr_audio::ClipId(i as u64 + 1)),
                category: CategoryId::new((i % 3) as u16 + 1),
                kind,
                time: live0.advance(TimeSpan::seconds(40 + i as u64 * 10)),
            },
        });
    }

    // Editorial pushes: two valid, one to a ghost listener — the
    // rejection is itself an identity line both deployments must emit.
    mixed.push(EngineCommand::Inject {
        user: UserId(1),
        clip: pphcr_audio::ClipId(1),
        at: live0.advance(TimeSpan::seconds(70)),
        note: "breaking".into(),
    });
    mixed.push(EngineCommand::Inject {
        user: UserId(7),
        clip: pphcr_audio::ClipId(2),
        at: live0.advance(TimeSpan::seconds(75)),
        note: "weather".into(),
    });
    mixed.push(EngineCommand::Inject {
        user: UserId(99),
        clip: pphcr_audio::ClipId(1),
        at: live0.advance(TimeSpan::seconds(80)),
        note: "ghost".into(),
    });

    mixed.push(EngineCommand::ChangeService {
        user: UserId(2),
        service: ServiceIndex(1),
        now: live0.advance(TimeSpan::seconds(90)),
    });
    mixed.push(EngineCommand::Skip { user: UserId(1), now: live0.advance(TimeSpan::seconds(95)) });
    mixed.push(EngineCommand::AdvancePlayer {
        user: UserId(1),
        now: live0.advance(TimeSpan::seconds(97)),
    });
    mixed.push(EngineCommand::AdvancePlayer {
        user: UserId(99),
        now: live0.advance(TimeSpan::seconds(98)),
    });

    // Interleave the mixed ops with batch ticks over a ~30-step
    // horizon, then a final drain tick so nothing is in flight when
    // the observability snapshots are captured.
    let users: Vec<UserId> = (1..=USERS).map(UserId).collect();
    let mut mixed_iter = mixed.into_iter();
    for step in 0..30u64 {
        if step % 2 == 0 {
            if let Some(cmd) = mixed_iter.next() {
                ops.push(cmd);
            }
        }
        // The live drive: the two trained commuters leave home along
        // their learned routes (users 3 and 4 wander without history),
        // one fix per listener per tick step, stamped at the tick time.
        let now = live0.advance(TimeSpan::seconds(100 + step * 30));
        let frac = step as f64 / 39.0;
        for u in 1..=4u64 {
            ops.push(fix(u, home.destination(bearing(u), frac * 9_000.0), now, 7.5));
        }
        ops.push(EngineCommand::Tick {
            users: users.clone(),
            now: live0.advance(TimeSpan::seconds(100 + step * 30)),
            batch: true,
            workers: Some(2),
        });
    }
    ops.extend(mixed_iter);
    ops.push(EngineCommand::Tick {
        users,
        now: live0.advance(TimeSpan::seconds(100 + 30 * 30)),
        batch: true,
        workers: Some(2),
    });
    ops
}

/// A tick-dominated script for the shard scaling curve: `users`
/// commuters each with a full week of history, then a live window of
/// `ticks` batch ticks (plus a drain tick). Returned as `(setup,
/// window)` so a bench can time the window alone — setup is
/// single-user traffic that serialises on the router's round-trips
/// whatever the shard count, while the window's tick fan-out is where
/// sharding can actually win. Ticks run with `workers: Some(1)` so the
/// only parallelism in play is the process sharding itself.
#[must_use]
pub fn tick_heavy(seed: u64, users: u64, ticks: u64) -> (Vec<EngineCommand>, Vec<EngineCommand>) {
    let start = t0();
    let mut setup = Vec::new();
    for u in 1..=users {
        setup.push(EngineCommand::RegisterUser {
            profile: UserProfile {
                id: UserId(u),
                name: format!("commuter {u}"),
                age_band: AgeBand::Adult,
                favourite_service: ServiceIndex(0),
            },
            now: start,
        });
    }
    for i in 0..12u64 {
        let jitter = (seed.wrapping_mul(2_654_435_761).wrapping_add(i * 131)) % 600;
        setup.push(EngineCommand::IngestClip {
            title: format!("morning clip {i} (seed {seed})"),
            kind: ClipKind::Podcast,
            duration: TimeSpan::minutes(4),
            published: TimePoint::at(7, 5, 0, 0).advance(TimeSpan::seconds(jitter)),
            geo: None,
            tokens: vec![],
            editorial: Some(CategoryId::new((i % 3) as u16 + 1)),
        });
    }
    let origin = GeoPoint::new(ORIGIN.0, ORIGIN.1);
    let route = |u: u64| {
        let home = origin.destination(30.0 * u as f64, 1_500.0 * u as f64);
        (home, 80.0 + 15.0 * u as f64)
    };
    for u in 1..=users {
        let (home, bearing) = route(u);
        let work = home.destination(bearing, 9_000.0);
        for day in 0..7u64 {
            let d0 = TimePoint::at(day, 0, 0, 0);
            for i in 0..90 {
                setup.push(fix(u, home, d0.advance(TimeSpan::minutes(i * 5)), 0.1));
            }
            for i in 0..40u64 {
                let frac = i as f64 / 39.0;
                setup.push(fix(
                    u,
                    home.destination(bearing, frac * 9_000.0),
                    d0.advance(TimeSpan::hours(8)).advance(TimeSpan::seconds(i * 30)),
                    7.5,
                ));
            }
            for i in 0..57 {
                setup.push(fix(u, work, d0.advance(TimeSpan::minutes(510 + i * 10)), 0.2));
            }
            for i in 0..66 {
                setup.push(fix(u, home, d0.advance(TimeSpan::minutes(1105 + i * 5)), 0.1));
            }
        }
    }

    // Day 8, 08:00: the live commute — one fix per listener per tick
    // step, then the batch tick over the whole fleet.
    let d8 = TimePoint::at(7, 8, 0, 0);
    let ids: Vec<UserId> = (1..=users).map(UserId).collect();
    let mut window = Vec::new();
    for step in 0..ticks {
        let now = d8.advance(TimeSpan::seconds(step * 30));
        let frac = step as f64 / 39.0;
        for u in 1..=users {
            let (home, bearing) = route(u);
            window.push(fix(u, home.destination(bearing, (frac * 9_000.0).min(9_000.0)), now, 7.5));
        }
        window.push(EngineCommand::Tick { users: ids.clone(), now, batch: true, workers: Some(1) });
    }
    window.push(EngineCommand::Tick {
        users: ids,
        now: d8.advance(TimeSpan::seconds(ticks * 30 + 900)),
        batch: true,
        workers: Some(1),
    });
    (setup, window)
}

/// The identity artefacts of one single-process run of the script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SingleRun {
    /// `op=<i> event=…` / `op=<i> rejected=…` lines, in order.
    pub lines: Vec<String>,
    /// The final `ObsSnapshot` JSON.
    pub obs_json: String,
}

/// Runs the script through one default-config engine via
/// [`Engine::apply`], producing the baseline the sharded deployment
/// is diffed against.
#[must_use]
pub fn run_single(ops: &[EngineCommand]) -> SingleRun {
    let mut engine = Engine::new(EngineConfig::default());
    let mut lines = Vec::new();
    for (op, cmd) in ops.iter().enumerate() {
        match engine.apply(cmd) {
            Ok(events) => {
                lines.extend(events.iter().map(|e| format!("op={op} event={e:?}")));
            }
            Err(e) => lines.push(format!("op={op} rejected={e}")),
        }
    }
    SingleRun { lines, obs_json: engine.obs_snapshot().to_json() }
}

/// Like [`run_single`], but splits the script into an untimed `setup`
/// prefix and a timed `window`, returning the window wall time in
/// milliseconds alongside the identity artefacts of the whole run.
#[must_use]
pub fn run_single_windowed(setup: &[EngineCommand], window: &[EngineCommand]) -> (SingleRun, f64) {
    let mut engine = Engine::new(EngineConfig::default());
    let mut lines = Vec::new();
    let apply =
        |engine: &mut Engine, op0: usize, ops: &[EngineCommand], lines: &mut Vec<String>| {
            for (i, cmd) in ops.iter().enumerate() {
                let op = op0 + i;
                match engine.apply(cmd) {
                    Ok(events) => {
                        lines.extend(events.iter().map(|e| format!("op={op} event={e:?}")));
                    }
                    Err(e) => lines.push(format!("op={op} rejected={e}")),
                }
            }
        };
    apply(&mut engine, 0, setup, &mut lines);
    let started = pphcr_obs::timing::stopwatch();
    apply(&mut engine, setup.len(), window, &mut lines);
    let window_ms = started.elapsed_s() * 1e3;
    (SingleRun { lines, obs_json: engine.obs_snapshot().to_json() }, window_ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_is_seed_deterministic_and_covers_all_variants() {
        assert_eq!(commands(3), commands(3));
        assert_ne!(commands(1), commands(2));
        let ops = commands(1);
        let mut seen = [false; 12];
        for cmd in &ops {
            let idx = match cmd {
                EngineCommand::RegisterUser { .. } => 0,
                EngineCommand::ChangeService { .. } => 1,
                EngineCommand::TrainClassifier { .. } => 2,
                EngineCommand::IngestClip { .. } => 3,
                EngineCommand::RecordFix { .. } => 4,
                EngineCommand::RecordFeedback { .. } => 5,
                EngineCommand::Inject { .. } => 6,
                EngineCommand::Skip { .. } => 7,
                EngineCommand::Tick { .. } => 8,
                EngineCommand::AdvancePlayer { .. } => 9,
                EngineCommand::SetRoadNetwork { .. } => 10,
                EngineCommand::SetGazetteer { .. } => 11,
            };
            if let Some(slot) = seen.get_mut(idx) {
                *slot = true;
            }
        }
        assert!(seen.iter().all(|s| *s), "coverage: {seen:?}");
    }

    #[test]
    fn baseline_produces_events_and_rejections() {
        let run = run_single(&commands(1));
        assert!(run.lines.iter().any(|l| l.contains("event=")), "no events at all");
        assert!(run.lines.iter().any(|l| l.contains("rejected=")), "ghost ops not rejected");
        assert!(run.obs_json.contains("\"engine.ticks\": 31"));
    }
}
