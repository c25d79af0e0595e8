//! The seeded command scripts every identity sweep replays, and the
//! in-process run each sweep is diffed against.
//!
//! [`script`] builds every [`Shape`] from the same pieces: listener
//! registrations, classifier training, the road network and gazetteer,
//! the seeded corpus, a commuter week with its tastes, the mixed op
//! list with its ghost-listener rejections, and the tick interleave
//! that ends in a drain tick. The crash and differential scripts cover
//! every [`EngineCommand`] variant, with ticks between the mutations so
//! deliveries, retries and health transitions happen mid-log.
//!
//! [`run_in_process`] folds a script through one engine with
//! [`Engine::apply`], the function a shard agent and WAL replay apply
//! commands with, and renders each outcome as the identity lines the
//! shard router renders too ([`push_outcome`]).

use pphcr_audio::ClipId;
use pphcr_catalog::{CategoryId, ClipKind, Gazetteer, GeoTag, ServiceIndex};
use pphcr_core::{Engine, EngineCommand, EngineConfig, EngineEvent};
use pphcr_geo::{GeoPoint, NodeKind, ProjectedPoint, RoadNetwork, TimePoint, TimeSpan};
use pphcr_trajectory::GpsFix;
use pphcr_userdata::{AgeBand, FeedbackEvent, FeedbackKind, UserId, UserProfile};

/// The scenario origin (central Torino, like the paper's pilot): every
/// commuter's home and the corpus's geo tags.
const ORIGIN: GeoPoint = GeoPoint { lat: 45.0703, lon: 7.6869 };

/// A listener no script registers: its injection and its player
/// advance are rejections both deployments must log.
const GHOST: UserId = UserId(99);

/// Clips in every script's corpus.
const CLIPS: u64 = 12;

/// Batch ticks in the [`Shape::TickHeavy`] window, before its drain
/// tick.
pub const TICK_HEAVY_STEPS: u64 = 12;

/// Which sweep a script feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// The E14 kill-point sweep, over a hostile wire: four listeners,
    /// a short drive and the mixed ops between 35 batch ticks. It stays
    /// small because the sweep's cost grows with the square of its
    /// records.
    Crash,
    /// The E16 shard differential, on a clean wire: twelve listeners,
    /// two of them commuters with a trained week, four live drivers
    /// and the mixed ops between 30 batch ticks. Every event and
    /// rejection must come out the same at any shard count.
    Differential,
    /// The tick-heavy window of E13 and E16: `users` commuters, each
    /// with a trained week, driving live through
    /// [`TICK_HEAVY_STEPS`] single-worker batch ticks over the whole
    /// fleet, with no mixed ops.
    TickHeavy {
        /// Listeners registered, all of them commuters.
        users: u64,
    },
}

/// A script: the untimed setup, then the window of ticks a bench times.
#[derive(Debug, PartialEq)]
pub struct Script {
    /// Registrations, training, environment, corpus and history.
    pub setup: Vec<EngineCommand>,
    /// The tick interleave, ending in a drain tick.
    pub window: Vec<EngineCommand>,
}

impl Script {
    /// The whole script, setup then window.
    #[must_use]
    pub fn into_ops(self) -> Vec<EngineCommand> {
        let mut ops = self.setup;
        ops.extend(self.window);
        ops
    }
}

/// The counts that tell the shapes apart.
struct Sizes {
    /// Listeners registered and ticked.
    users: u64,
    /// Listeners `1..=commuters` with a week of history and tastes.
    commuters: u64,
    /// Listeners `1..=drivers` that send a fix before every tick.
    drivers: u64,
    /// Batch ticks before the drain tick.
    steps: u64,
    /// Worker threads of every tick.
    workers: u64,
}

/// The script of `shape`: a deterministic function of `seed`, which
/// jitters the corpus's publication times.
#[must_use]
pub fn script(seed: u64, shape: Shape) -> Script {
    let sizes = match shape {
        Shape::Crash => Sizes { users: 4, commuters: 0, drivers: 0, steps: 35, workers: 2 },
        Shape::Differential => Sizes { users: 12, commuters: 2, drivers: 4, steps: 30, workers: 2 },
        Shape::TickHeavy { users } => {
            Sizes { users, commuters: users, drivers: users, steps: TICK_HEAVY_STEPS, workers: 1 }
        }
    };
    let mut setup: Vec<EngineCommand> = (1..=sizes.users).map(register).collect();
    setup.extend(training());
    setup.extend(environment());
    setup.extend((0..CLIPS).map(|i| clip(seed, i)));
    setup.extend((1..=sizes.commuters).flat_map(week));
    setup.extend((1..=sizes.commuters).flat_map(tastes));
    let mixed = match shape {
        // The crash script's drive rides in the mixed list: a fix
        // before every one of its ticks would double the records the
        // kill sweep cuts at.
        Shape::Crash => (0..6)
            .flat_map(|step| (1..=2).map(move |u| drive(u, step, live(step * 30 + u))))
            .chain(mixed(sizes.users))
            .collect(),
        Shape::Differential => mixed(sizes.users),
        Shape::TickHeavy { .. } => Vec::new(),
    };
    Script { setup, window: interleave(&sizes, mixed) }
}

/// `live(s)`: `s` seconds into the live window, day 8 at 08:00.
fn live(seconds: u64) -> TimePoint {
    TimePoint::at(8, 8, 0, 0).advance(TimeSpan::seconds(seconds))
}

fn register(u: u64) -> EngineCommand {
    EngineCommand::RegisterUser {
        profile: UserProfile {
            id: UserId(u),
            name: format!("listener {u}"),
            age_band: if u.is_multiple_of(2) { AgeBand::Adult } else { AgeBand::Young },
            favourite_service: ServiceIndex(0),
        },
        now: TimePoint::at(0, 9, 0, 0),
    }
}

/// One labelled document per category, so ingest classifies the
/// corpus's unlabelled clips.
fn training() -> [EngineCommand; 2] {
    let doc = |category: u16, tokens: [&str; 4]| EngineCommand::TrainClassifier {
        category: CategoryId::new(category),
        tokens: tokens.map(String::from).to_vec(),
    };
    [doc(1, ["traffic", "ring", "road", "queue"]), doc(2, ["football", "derby", "goal", "league"])]
}

/// The replicated environment: a two-junction road network and a
/// gazetteer, both state that replay and the router must carry.
fn environment() -> [EngineCommand; 2] {
    let mut network = RoadNetwork::new();
    let a = network.add_node(ProjectedPoint::new(0.0, 0.0), NodeKind::Intersection);
    let b = network.add_node(ProjectedPoint::new(1_500.0, 400.0), NodeKind::Roundabout);
    network.add_edge(a, b, 13.9);
    let mut gazetteer = Gazetteer::new();
    gazetteer.add_place("torino", ORIGIN, 5_000.0);
    [EngineCommand::SetRoadNetwork { network }, EngineCommand::SetGazetteer { gazetteer }]
}

/// Corpus clip `i`: half the clips are editorially labelled and a
/// third geo-tagged, published in the hour before the live window with
/// a jitter drawn from `seed`.
fn clip(seed: u64, i: u64) -> EngineCommand {
    let jitter = (seed.wrapping_mul(2_654_435_761).wrapping_add(i * 97)) % 600;
    EngineCommand::IngestClip {
        title: format!("clip {i} (seed {seed})"),
        kind: if i.is_multiple_of(4) { ClipKind::NewsBulletin } else { ClipKind::Podcast },
        duration: TimeSpan::seconds(120 + (i % 5) * 30),
        published: TimePoint::at(8, 7, 0, 0).advance(TimeSpan::seconds(jitter)),
        geo: i.is_multiple_of(3).then(|| GeoTag {
            point: GeoPoint::new(ORIGIN.lat + 0.001 * i as f64, ORIGIN.lon - 0.0005 * i as f64),
            radius_m: 800.0,
        }),
        tokens: vec![
            if i.is_multiple_of(2) { "traffic".into() } else { "football".into() },
            format!("token{i}"),
            "torino".into(),
        ],
        editorial: i.is_multiple_of(2).then(|| CategoryId::new((i % 3) as u16 + 1)),
    }
}

fn fix(user: u64, point: GeoPoint, time: TimePoint, speed_mps: f64) -> EngineCommand {
    EngineCommand::RecordFix { user: UserId(user), fix: GpsFix { point, time, speed_mps } }
}

/// Bearing of listener `u`'s drive to work, degrees.
fn bearing(u: u64) -> f64 {
    60.0 + 20.0 * u as f64
}

/// Listener `u`'s fix `step` 30-second steps into the 9 km drive to
/// work at ~7.5 m/s, stamped `now`; the drive ends at step 39.
fn drive(u: u64, step: u64, now: TimePoint) -> EngineCommand {
    let frac = (step as f64 / 39.0).min(1.0);
    fix(u, ORIGIN.destination(bearing(u), frac * 9_000.0), now, 7.5)
}

/// Days 1–7 of commuter `u`, as in the §2.1.2 scenario: home, the
/// drive to work, a work stay, the drive home and the evening at home,
/// so trip prediction is armed for the day-8 window.
fn week(u: u64) -> Vec<EngineCommand> {
    let work = ORIGIN.destination(bearing(u), 9_000.0);
    let mut ops = Vec::new();
    for day in 1..=7u64 {
        let d0 = TimePoint::at(day, 0, 0, 0);
        let drive_at = |hour: u64, i: u64| {
            d0.advance(TimeSpan::hours(hour)).advance(TimeSpan::seconds(i * 30))
        };
        ops.extend((0..90).map(|i| fix(u, ORIGIN, d0.advance(TimeSpan::minutes(i * 5)), 0.1)));
        ops.extend((0..40).map(|i| drive(u, i, drive_at(8, i))));
        ops.extend((0..57).map(|i| fix(u, work, d0.advance(TimeSpan::minutes(510 + i * 10)), 0.2)));
        ops.extend((0..40u64).map(|i| {
            let home_bound = work.destination(bearing(u) + 180.0, i as f64 / 39.0 * 9_000.0);
            fix(u, home_bound, drive_at(18, i), 7.5)
        }));
        ops.extend(
            (0..66).map(|i| fix(u, ORIGIN, d0.advance(TimeSpan::minutes(1105 + i * 5)), 0.1)),
        );
    }
    ops
}

/// Commuter `u`'s likes of the two trained categories, so the
/// scheduler has ranked candidates to pack.
fn tastes(u: u64) -> impl Iterator<Item = EngineCommand> {
    [1u16, 2].into_iter().flat_map(move |category| {
        (0..3u64).map(move |rep| EngineCommand::RecordFeedback {
            event: FeedbackEvent {
                user: UserId(u),
                clip: None,
                category: CategoryId::new(category),
                kind: FeedbackKind::Like,
                time: TimePoint::at(8, 6, 0, 0)
                    .advance(TimeSpan::seconds(u * 60 + u64::from(category) * 10 + rep)),
            },
        })
    })
}

/// The live mutations over `users` listeners: feedback of every kind,
/// two valid editorial pushes and one to [`GHOST`], a service change,
/// a skip, and player advances for a listener and for [`GHOST`]. The
/// pushes stay far below the editorial queue's reject threshold.
fn mixed(users: u64) -> Vec<EngineCommand> {
    let kinds = [
        FeedbackKind::Like,
        FeedbackKind::Dislike,
        FeedbackKind::ListenedThrough,
        FeedbackKind::PartialListen(0.5),
    ];
    let mut ops: Vec<EngineCommand> = (0..4u64)
        .zip(kinds)
        .map(|(i, kind)| EngineCommand::RecordFeedback {
            event: FeedbackEvent {
                user: UserId(i % users + 1),
                clip: i.is_multiple_of(2).then_some(ClipId(i + 1)),
                category: CategoryId::new((i % 3) as u16 + 1),
                kind,
                time: live(40 + i * 10),
            },
        })
        .collect();
    let inject = |user: UserId, clip: u64, at: u64, note: &str| EngineCommand::Inject {
        user,
        clip: ClipId(clip),
        at: live(at),
        note: note.into(),
    };
    ops.extend([
        inject(UserId(1), 1, 70, "breaking"),
        inject(UserId(users / 2 + 1), 2, 75, "weather"),
        inject(GHOST, 1, 80, "ghost"),
        EngineCommand::ChangeService { user: UserId(2), service: ServiceIndex(1), now: live(90) },
        EngineCommand::Skip { user: UserId(1), now: live(95) },
        EngineCommand::AdvancePlayer { user: UserId(1), now: live(97) },
        EngineCommand::AdvancePlayer { user: GHOST, now: live(98) },
    ]);
    ops
}

/// The window: at every 30-second step, the next mixed op on even
/// steps, then a fix from each live driver, then a batch tick over
/// every listener; the mixed ops left over; and a drain tick, so no
/// bus message is in flight when the identity snapshots are taken.
fn interleave(sizes: &Sizes, mixed: Vec<EngineCommand>) -> Vec<EngineCommand> {
    let users: Vec<UserId> = (1..=sizes.users).map(UserId).collect();
    let tick = |now| EngineCommand::Tick {
        users: users.clone(),
        now,
        batch: true,
        workers: Some(sizes.workers),
    };
    let mut window = Vec::new();
    let mut mixed = mixed.into_iter();
    for step in 0..sizes.steps {
        if step.is_multiple_of(2) {
            window.extend(mixed.next());
        }
        let now = live(100 + step * 30);
        window.extend((1..=sizes.drivers).map(|u| drive(u, step, now)));
        window.push(tick(now));
    }
    window.extend(mixed);
    window.push(tick(live(100 + sizes.steps * 30)));
    window
}

/// The identity artefacts of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Run {
    /// Every command's outcome lines ([`push_outcome`]), in order.
    pub lines: Vec<String>,
    /// The final `ObsSnapshot` JSON.
    pub obs_json: String,
}

/// Appends command `op`'s outcome: an `op=<op> event=<event:?>` line
/// per event, then `op=<op> rejected=<error>` if it was rejected.
pub fn push_outcome(
    lines: &mut Vec<String>,
    op: usize,
    events: &[EngineEvent],
    error: Option<&str>,
) {
    lines.extend(events.iter().map(|e| format!("op={op} event={e:?}")));
    lines.extend(error.map(|e| format!("op={op} rejected={e}")));
}

/// Applies `setup`, then `window`, to a default-config engine with
/// [`Engine::apply`], numbering commands from 0 across both. Returns
/// the run and the window's wall time in milliseconds; the setup is
/// not timed.
#[must_use]
pub fn run_in_process(setup: &[EngineCommand], window: &[EngineCommand]) -> (Run, f64) {
    let mut engine = Engine::new(EngineConfig::default());
    let mut lines = Vec::new();
    let mut apply = |engine: &mut Engine, op0: usize, ops: &[EngineCommand]| {
        for (i, cmd) in ops.iter().enumerate() {
            match engine.apply(cmd) {
                Ok(events) => push_outcome(&mut lines, op0 + i, &events, None),
                Err(e) => push_outcome(&mut lines, op0 + i, &[], Some(&e.to_string())),
            }
        }
    };
    apply(&mut engine, 0, setup);
    let started = crate::timing::stopwatch();
    apply(&mut engine, setup.len(), window);
    let window_ms = started.elapsed_s() * 1e3;
    (Run { lines, obs_json: engine.obs_snapshot().to_json() }, window_ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPES: [Shape; 3] = [Shape::Crash, Shape::Differential, Shape::TickHeavy { users: 3 }];

    /// The variant index of `cmd`; a new variant fails to compile here
    /// until the scripts cover it.
    fn kind(cmd: &EngineCommand) -> usize {
        match cmd {
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
        }
    }

    #[test]
    fn every_shape_covers_its_op_kinds() {
        for shape in SHAPES {
            let ops = script(1, shape).into_ops();
            let mut seen = [false; 12];
            for cmd in &ops {
                seen[kind(cmd)] = true;
            }
            // The tick-heavy window carries no mixed ops by design.
            let expected = match shape {
                Shape::TickHeavy { .. } => [0, 2, 3, 4, 5, 8, 10, 11].as_slice(),
                Shape::Crash | Shape::Differential => &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
            };
            let covered: Vec<usize> = (0..12).filter(|&k| seen[k]).collect();
            assert_eq!(covered, expected, "{shape:?}");
        }
    }

    #[test]
    fn scripts_are_seed_deterministic() {
        for shape in SHAPES {
            assert_eq!(script(7, shape), script(7, shape), "{shape:?}");
            assert_ne!(script(1, shape), script(2, shape), "{shape:?}");
        }
    }

    #[test]
    fn ticks_interleave_the_window_and_a_drain_tick_ends_it() {
        for shape in SHAPES {
            let Script { setup, window } = script(1, shape);
            assert!(setup.iter().all(|c| kind(c) != 8), "{shape:?}: a tick in the setup");
            let ticks: Vec<usize> = (0..window.len()).filter(|&i| kind(&window[i]) == 8).collect();
            assert_eq!(ticks.last(), Some(&(window.len() - 1)), "{shape:?}");
            let first_mutation = window.iter().position(|c| kind(c) != 8 && kind(c) != 4);
            if let Some(at) = first_mutation {
                assert!(ticks.iter().any(|&t| t > at), "{shape:?}: no tick after the mutations");
            }
        }
    }

    #[test]
    fn crash_script_stays_small() {
        let ops = script(1, Shape::Crash).into_ops();
        assert!((60..=80).contains(&ops.len()), "{} records", ops.len());
    }

    #[test]
    fn in_process_run_logs_events_and_rejections() {
        let ops = script(1, Shape::Differential).into_ops();
        let (run, _) = run_in_process(&[], &ops);
        assert!(run.lines.iter().any(|l| l.contains("Recommended")), "no schedule at all");
        assert!(run.lines.iter().any(|l| l.contains("rejected=")), "ghost ops not rejected");
        assert!(run.obs_json.contains("\"engine.ticks\": 31"));
        let Script { setup, window } = script(1, Shape::Differential);
        let (split, _) = run_in_process(&setup, &window);
        assert_eq!(split, run, "the timed split must not change the run");
    }
}
