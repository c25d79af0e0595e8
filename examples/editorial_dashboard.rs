//! The control dashboard walkthrough (paper §2.2, Figs. 5–6): an
//! editor watches a listener's trajectories and preferences, then
//! manually injects a recommendation and watches it take precedence.
//!
//! Run with `cargo run --example editorial_dashboard`.

use pphcr::catalog::{CategoryId, ClipKind, Gazetteer, ServiceIndex};
use pphcr::core::{Dashboard, Engine, EngineConfig, PlaybackMode, TickRequest};
use pphcr::geo::{GeoPoint, TimePoint, TimeSpan};
use pphcr::trajectory::GpsFix;
use pphcr::userdata::{AgeBand, FeedbackEvent, FeedbackKind, UserId, UserProfile};

fn main() {
    let center = GeoPoint::new(45.0703, 7.6869);
    // The gazetteer feeds geo estimation of untagged archive clips
    // (the paper's future-work feature).
    let mut gazetteer = Gazetteer::new();
    gazetteer.add_place("fairground", center.destination(45.0, 4_000.0), 1_200.0);
    let mut engine = Engine::new(EngineConfig::default());
    engine.set_gazetteer(gazetteer);
    let listener = UserId(42);
    let t0 = TimePoint::at(0, 7, 0, 0);
    engine.register_user(
        UserProfile {
            id: listener,
            name: "Trial listener".into(),
            age_band: AgeBand::Adult,
            favourite_service: ServiceIndex(1),
        },
        t0,
    );

    // The listener moves around town and reacts to content for a few
    // hours — the raw material of the dashboard panels.
    for i in 0..40u64 {
        let p = center.destination((i * 25) as f64 % 360.0, (i % 7) as f64 * 900.0);
        engine.record_fix(listener, GpsFix::new(p, t0.advance(TimeSpan::minutes(i * 3)), 6.0));
    }
    for (cat, kind) in [
        ("history", FeedbackKind::Like),
        ("history", FeedbackKind::Like),
        ("science", FeedbackKind::ListenedThrough),
        ("football", FeedbackKind::Skip),
        ("football", FeedbackKind::Skip),
    ] {
        engine.record_feedback(FeedbackEvent {
            user: listener,
            clip: None,
            category: CategoryId::from_name(cat).unwrap(),
            kind,
            time: t0.advance(TimeSpan::hours(1)),
        });
    }

    // Archive ingest with gazetteer-based geo estimation: the
    // transcript mentions the fairground twice, so the clip is tagged
    // there automatically.
    let tokens: Vec<String> =
        "storia della città vista dal fairground il fairground compie cento anni"
            .split_whitespace()
            .map(str::to_string)
            .collect();
    let (geo_clip, cat) = engine.ingest_clip(
        "One hundred years of the fairground",
        ClipKind::Podcast,
        TimeSpan::minutes(9),
        t0,
        None,
        &tokens,
        Some(CategoryId::from_name("history").unwrap()),
    );
    println!(
        "archive clip ingested: category={cat}, geo tag estimated: {}",
        engine.repo.get(geo_clip).unwrap().geo.is_some()
    );

    // Some organic content too.
    for (title, c) in [("Science hour", "science"), ("Derby recap", "football")] {
        engine.ingest_clip(
            title,
            ClipKind::Podcast,
            TimeSpan::minutes(6),
            t0,
            None,
            &[],
            Some(CategoryId::from_name(c).unwrap()),
        );
    }

    // --- Fig. 5: the dashboard panels -------------------------------
    let now = t0.advance(TimeSpan::hours(3));
    println!("\n{}", Dashboard::render_text(&mut engine, listener, now));

    // --- Fig. 6: manual injection ------------------------------------
    println!("editor injects \"One hundred years of the fairground\" to {listener}…");
    engine
        .inject(listener, geo_clip, now, "trial: test geo clip on this listener")
        .expect("valid injection target");
    println!("pending injections now: {}", engine.injections.pending(listener).len());
    let events = engine
        .run_tick(&TickRequest::single(&listener, now.advance(TimeSpan::seconds(30))))
        .expect("listener is registered");
    for e in &events {
        println!("engine: {e:?}");
    }
    // The injected clip plays next, ahead of anything organic.
    engine.advance_player(listener, now.advance(TimeSpan::minutes(1))).unwrap();
    match engine.player(listener).unwrap().mode() {
        PlaybackMode::Clip { clip, .. } => {
            println!(
                "listener now hears: \"{}\" (the injected clip: {})",
                engine.repo.get(clip.clip).unwrap().title,
                clip.clip == geo_clip
            );
        }
        other => println!("unexpected mode: {other:?}"),
    }
    println!(
        "\n{}",
        Dashboard::render_text(&mut engine, listener, now.advance(TimeSpan::minutes(2)))
    );
}
