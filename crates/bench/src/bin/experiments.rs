//! Prints every paper experiment table of `DESIGN.md` (E1–E12).
//! `EXPERIMENTS.md` records this output; the E13 and E16 tables come
//! from `pphcr-bench`.
//!
//! ```text
//! cargo run -p pphcr-bench --release --bin experiments
//! ```

use pphcr_geo::TimeSpan;
use pphcr_sim::experiments as exp;

fn main() {
    println!("PPHCR experiment suite — reproduction of EDBT 2017 paper artifacts");
    println!("{:=<78}", "");

    println!("\n=== E1 (Fig. 1): seamless replacement — seam quality at 48 kHz ===");
    for row in exp::e1_seam_quality(48_000, &[10, 60, 300, 900]) {
        println!("{row}");
    }

    println!("\n=== E2 (Fig. 2): proactive trip fill — 30 commuters × 300 clips ===");
    let world = exp::trip_world(30, 300, 42);
    for row in exp::e2_trip_fill(&world) {
        println!("{row}");
    }

    println!("\n=== E3 (Fig. 3): pipeline throughput — 110 podcasts/day, 100 users ===");
    for row in exp::e3_pipeline(110, 100, 7) {
        println!("{row}");
    }

    println!("\n=== E4 (Fig. 4): skip propensity — 10 commuters × 15 mornings × 8 items ===");
    for row in exp::e4_skip_propensity(10, 15, 8, 7) {
        println!("{row}");
    }

    println!("\n=== E5 (Fig. 5): trajectory compaction — 7 days of commuting ===");
    let (rows, stays) = exp::e5_trajectory(7, &[5.0, 15.0, 50.0, 150.0], 3);
    for row in rows {
        println!("{row}");
    }
    println!("{stays}");

    println!("\n=== E6 (Fig. 6): editorial injection ===");
    println!("{}", exp::e6_injection(1));

    println!("\n=== E7: network cost — 1 listening hour, p=0.2 ===");
    let (rows, crossovers) =
        exp::e7_netcost(&[100, 1_000, 10_000, 100_000], 0.2, TimeSpan::hours(1));
    for row in rows {
        println!("{row}");
    }
    println!("crossover audiences (hybrid beats all-IP):");
    for (p, n) in crossovers {
        match n {
            Some(n) => println!("  p={p:.2} -> {n} listeners"),
            None => println!("  p={p:.2} -> never"),
        }
    }

    println!("\n=== E8: classifier accuracy vs ASR WER × training size ===");
    for row in exp::e8_classifier(&[0.0, 0.1, 0.2, 0.35, 0.5], &[2, 8, 32], 4, 5) {
        println!("{row}");
    }

    println!("\n=== E9: compound-weight sweep ===");
    let world9 = exp::trip_world(30, 300, 99);
    for row in exp::e9_weight_sweep(&world9, &[0.0, 0.25, 0.5, 0.55, 0.75, 1.0]) {
        println!("{row}");
    }

    println!("\n=== E10: distraction-aware scheduling ablation ===");
    let world10 = exp::trip_world(30, 300, 12);
    for row in exp::e10_distraction(&world10) {
        println!("{row}");
    }

    println!("\n=== E11: ensemble diversity sweep (MMR λ) ===");
    let world11 = exp::trip_world(30, 300, 5);
    for row in exp::e11_ensemble(&world11, &[1.0, 0.8, 0.6, 0.4, 0.2, 0.0], 6) {
        println!("{row}");
    }

    println!("\n=== E12: chaos resilience — delivery under a hostile wire ===");
    for row in exp::e12_resilience(5, 4, 42) {
        println!("{row}");
    }

    println!("\n{:=<78}", "");
    println!("done.");
}
