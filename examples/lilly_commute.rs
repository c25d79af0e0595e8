//! The Lilly scenario (paper §2.1.2, Figs. 2 and 4): a commuter with a
//! week of history starts her morning drive; the platform predicts the
//! trip, packs the predicted ΔT with relevant clips, and reassembles
//! the live programme time-shifted after them.
//!
//! Run with `cargo run --example lilly_commute`.

use pphcr::audio::ClipStore;
use pphcr::catalog::{CategoryId, ClipKind, Programme, ProgrammeId, ServiceIndex};
use pphcr::core::{Dashboard, Engine, EngineConfig, EngineEvent, ReplacementPlanner, TickRequest};
use pphcr::geo::time::TimeInterval;
use pphcr::geo::{GeoPoint, TimePoint, TimeSpan};
use pphcr::trajectory::GpsFix;
use pphcr::userdata::{AgeBand, FeedbackEvent, FeedbackKind, UserId, UserProfile};

fn main() {
    let mut engine = Engine::new(EngineConfig::default());
    let lilly = UserId(7);
    engine.register_user(
        UserProfile {
            id: lilly,
            name: "Lilly".into(),
            age_band: AgeBand::Young,
            favourite_service: ServiceIndex(2),
        },
        TimePoint::EPOCH,
    );

    // --- A week of commuting history --------------------------------
    let home = GeoPoint::new(45.0703, 7.6869);
    let work = home.destination(80.0, 9_000.0);
    for day in 0..7u64 {
        let d0 = TimePoint::at(day, 0, 0, 0);
        for i in 0..90 {
            engine.record_fix(lilly, GpsFix::new(home, d0.advance(TimeSpan::minutes(i * 5)), 0.1));
        }
        for i in 0..40u64 {
            let frac = i as f64 / 39.0;
            engine.record_fix(
                lilly,
                GpsFix::new(
                    home.destination(80.0, frac * 9_000.0),
                    d0.advance(TimeSpan::hours(8)).advance(TimeSpan::seconds(i * 30)),
                    7.5,
                ),
            );
        }
        for i in 0..57 {
            engine.record_fix(
                lilly,
                GpsFix::new(work, d0.advance(TimeSpan::minutes(510 + i * 10)), 0.2),
            );
        }
        for i in 0..40u64 {
            let frac = i as f64 / 39.0;
            engine.record_fix(
                lilly,
                GpsFix::new(
                    work.destination(260.0, frac * 9_000.0),
                    d0.advance(TimeSpan::hours(18)).advance(TimeSpan::seconds(i * 30)),
                    7.5,
                ),
            );
        }
        for i in 0..66 {
            engine.record_fix(
                lilly,
                GpsFix::new(home, d0.advance(TimeSpan::minutes(1105 + i * 5)), 0.1),
            );
        }
    }

    // --- Her tastes: food, wine, comedy ------------------------------
    let warm = TimePoint::at(6, 20, 0, 0);
    for cat in ["food", "wine", "comedy"] {
        for _ in 0..3 {
            engine.record_feedback(FeedbackEvent {
                user: lilly,
                clip: None,
                category: CategoryId::from_name(cat).unwrap(),
                kind: FeedbackKind::Like,
                time: warm,
            });
        }
    }

    // --- This morning's content --------------------------------------
    let morning = TimePoint::at(7, 6, 0, 0);
    for (title, cat, minutes) in [
        ("Morning news", "national-news", 3),
        ("Decanter: Champagne, Cava e Prosecco", "wine", 15),
        ("Kitchen secrets", "food", 8),
        ("Traffic watch", "traffic", 2),
        ("Transfer rumours", "football", 12),
    ] {
        engine.ingest_clip(
            title,
            ClipKind::Podcast,
            TimeSpan::minutes(minutes),
            morning,
            None,
            &[],
            Some(CategoryId::from_name(cat).unwrap()),
        );
    }

    // --- Day 8: the drive begins --------------------------------------
    let depart = TimePoint::at(7, 8, 0, 0);
    println!("Lilly pulls out of her driveway at {depart}…\n");
    for i in 0..12u64 {
        let now = depart.advance(TimeSpan::seconds(i * 30));
        let frac = i as f64 / 39.0;
        engine.record_fix(lilly, GpsFix::new(home.destination(80.0, frac * 9_000.0), now, 7.5));
        for event in
            engine.run_tick(&TickRequest::single(&lilly, now)).expect("lilly is registered")
        {
            match event {
                EngineEvent::TripPredicted { destination, confidence, delta_t, .. } => {
                    println!("[{now}] trip predicted → stay #{destination} (confidence {confidence:.2}), ΔT = {delta_t}");
                }
                EngineEvent::Recommended { schedule, .. } => {
                    println!(
                        "[{now}] proactive recommendation: {} items filling {:.0}% of ΔT",
                        schedule.items.len(),
                        schedule.fill_ratio() * 100.0
                    );
                    for item in &schedule.items {
                        let meta = engine.repo.get(item.clip).unwrap();
                        println!(
                            "        +{:>4}s  \"{}\" [{}] ({})",
                            item.start_s, meta.title, meta.category, meta.duration
                        );
                    }
                }
                other => println!("[{now}] {other:?}"),
            }
        }
    }

    // --- The Fig. 4 timeline -------------------------------------------
    // Reassemble the audio: live until 11:00, a 15-minute clip, then the
    // displaced programme time-shifted.
    println!("\nFig. 4 timeline reconstruction:");
    let mut epg = pphcr::catalog::Schedule::new();
    for (id, title, start, end) in [
        (1, "Program 1", TimePoint::at(7, 10, 42, 30), TimePoint::at(7, 10, 55, 0)),
        (2, "Program 2", TimePoint::at(7, 10, 55, 0), TimePoint::at(7, 11, 10, 0)),
        (3, "The rabbit's roar", TimePoint::at(7, 11, 10, 0), TimePoint::at(7, 11, 20, 0)),
    ] {
        epg.add(Programme {
            id: ProgrammeId(id),
            service: ServiceIndex(2),
            title: title.into(),
            category: CategoryId::from_name("comedy").unwrap(),
            interval: TimeInterval::new(start, end),
        })
        .unwrap();
    }
    let mut store = ClipStore::new();
    store.insert_simple(pphcr::audio::ClipId(100), TimeSpan::minutes(15));
    let planner = ReplacementPlanner::default();
    let (plan, timeline) = planner
        .plan(
            ServiceIndex(2),
            &store,
            &epg,
            TimePoint::at(7, 10, 42, 30),
            TimePoint::at(7, 11, 0, 0),
            &[pphcr::audio::ClipId(100)],
            TimePoint::at(7, 11, 30, 0),
        )
        .expect("plan is valid");
    for span in &timeline.spans {
        let what = match span.entry {
            pphcr::core::TimelineEntry::Live => "LIVE     ".to_string(),
            pphcr::core::TimelineEntry::Clip(c) => format!("CLIP {c}"),
            pphcr::core::TimelineEntry::Shifted { delay } => format!("SHIFT -{delay}"),
        };
        let programme = span.programme.and_then(|id| epg.get(id)).map_or("-", |p| p.title.as_str());
        println!("  {} {:<12} {}", span.interval, what, programme);
    }
    println!(
        "  displacement after clips: {} (buffer needed: {})",
        timeline.displacement, timeline.required_buffer
    );
    println!(
        "  splice plan: {} segments, seams faded over {} samples",
        plan.segments().len(),
        plan.fade_samples()
    );

    // --- Dashboard -------------------------------------------------------
    println!(
        "\n{}",
        Dashboard::render_text(&mut engine, lilly, depart.advance(TimeSpan::minutes(10)))
    );
}
