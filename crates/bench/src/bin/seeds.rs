//! Seed-robustness study: re-run the whole reproduction under different
//! random seeds and report how many of the paper's shape checks hold in
//! each universe. The claims are about *structure* (who walks most, which
//! corridor dominates), so they should survive reseeding of every noise
//! source — RF shadowing, sensor noise, behavioural choices, clock drifts.
use ares_crew::roster::AstronautId;
use ares_icares::{calibration, figures, MissionRunner, ScenarioConfig};

fn main() {
    let seeds: Vec<u64> = std::env::args()
        .skip(1)
        .map(|s| s.parse().expect("seed must be a u64"))
        .collect();
    let seeds = if seeds.is_empty() {
        vec![0x1CA7E5, 7, 42, 20_261_006, 987_654_321]
    } else {
        seeds
    };
    let mut overall_pass = 0usize;
    let mut overall_total = 0usize;
    for seed in seeds {
        let t0 = std::time::Instant::now();
        let runner = MissionRunner::new(ScenarioConfig {
            seed,
            behavior: ares_crew::behavior::BehaviorConfig {
                seed,
                ..Default::default()
            },
            ..Default::default()
        });
        let mut death_day = None;
        let mission = runner.run_days(2, 14, |d| {
            if d.day == 4 {
                death_day = Some(d.clone());
            }
        });
        let fig2 = figures::figure2(&mission);
        let fig3 = figures::figure3(
            &mission,
            &runner.pipeline().context().plan,
            &runner.world().beacons,
            AstronautId::A,
        );
        let fig4 = figures::figure4(&mission);
        let fig5 = figures::figure5(&death_day.expect("day 4 analyzed"));
        let fig6 = figures::figure6(&mission);
        let table1 = ares_sociometrics::report::table_one(&mission);
        let stats = figures::stats_report(&mission);
        let claims = calibration::check_claims(&calibration::Artifacts {
            fig2: &fig2,
            center_distance_m: &fig3.center_distance_m,
            fig4: &fig4,
            fig5: &fig5,
            fig6: &fig6,
            table1: &table1,
            stats: &stats,
        });
        let passed = claims.iter().filter(|c| c.pass).count();
        overall_pass += passed;
        overall_total += claims.len();
        let failing: Vec<&str> = claims
            .iter()
            .filter(|c| !c.pass)
            .map(|c| c.id.as_str())
            .collect();
        for c in claims.iter().filter(|c| !c.pass) {
            eprintln!("  seed {seed} {}: {}", c.id, c.measured.replace('\n', "; "));
        }
        println!(
            "seed {seed:>12}: {passed}/{} shape checks hold in {:?}{}",
            claims.len(),
            t0.elapsed(),
            if failing.is_empty() {
                String::new()
            } else {
                format!("  (failing: {})", failing.join(", "))
            }
        );
    }
    println!("\noverall: {overall_pass}/{overall_total} claim evaluations held across seeds");
}
