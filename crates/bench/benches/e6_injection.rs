//! E6 — Fig. 6: editorial recommendation injection.
//!
//! Prints the injection delivery report (hops, ticks, precedence) and
//! benchmarks the submit→deliver path.

use criterion::{criterion_group, criterion_main, Criterion};
use pphcr_catalog::{CategoryId, ClipKind, ServiceIndex};
use pphcr_core::{Engine, EngineConfig, TickRequest};
use pphcr_geo::{TimePoint, TimeSpan};
use pphcr_sim::experiments::e6_injection;
use pphcr_userdata::{AgeBand, UserId, UserProfile};
use std::hint::black_box;

fn bench_e6(c: &mut Criterion) {
    pphcr_bench::print_once(|| {
        println!("\n=== E6 (Fig. 6): editorial injection ===");
        println!("{}", e6_injection(1));
        println!();
    });

    // Benchmark the full submit→tick→deliver loop.
    c.bench_function("e6_inject_and_deliver", |b| {
        let t0 = TimePoint::at(0, 9, 0, 0);
        let mut engine = Engine::new(EngineConfig::default());
        engine.register_user(
            UserProfile {
                id: UserId(1),
                name: "target".into(),
                age_band: AgeBand::Adult,
                favourite_service: ServiceIndex(0),
            },
            t0,
        );
        let (clip, _) = engine.ingest_clip(
            "pick",
            ClipKind::Podcast,
            TimeSpan::minutes(3),
            t0,
            None,
            &[],
            Some(CategoryId::new(2)),
        );
        let mut t = t0;
        b.iter(|| {
            t = t.advance(TimeSpan::seconds(30));
            engine.inject(UserId(1), clip, t, "bench").unwrap();
            black_box(engine.run_tick(&TickRequest::single(&UserId(1), t)))
        });
    });

    c.bench_function("e6_report", |b| {
        b.iter(|| black_box(e6_injection(1)));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_e6
}
criterion_main!(benches);
