//! Full-mission replay: run all thirteen instrumented days through the
//! pipeline and watch the paper's findings emerge, incident by incident.
//!
//! ```sh
//! cargo run --release --example mission_replay
//! ```

use ares::crew::roster::AstronautId;
use ares::icares::{figures, MissionRunner};
use ares::sociometrics::engine::MissionEngine;
use ares::sociometrics::report;

fn main() {
    let runner = MissionRunner::icares();
    println!("replaying ICAres-1, days 2–14 (day 1 was acclimatization)…\n");

    let mut death_day = None;
    let mission = runner.run_days(2, 14, |day| {
        // A one-line mission log as each day is processed.
        let mean_speech: f64 = AstronautId::ALL
            .iter()
            .filter_map(|a| day.daily[a.index()].map(|d| d.heard_fraction))
            .sum::<f64>()
            / 6.0;
        let mut notes: Vec<String> = Vec::new();
        for &(badge, nominal, resolved) in &day.swaps {
            notes.push(format!(
                "identity anomaly: {badge} ({nominal}'s) worn by {resolved}"
            ));
        }
        if day
            .meetings
            .iter()
            .any(|m| !m.planned && m.participants.len() >= 5)
        {
            notes.push("large unplanned gathering".to_string());
        }
        println!(
            "day {:>2}: {:>3} meetings, {:>3} passages, mean speech {:.2}  {}",
            day.day,
            day.meetings.len(),
            day.passages.total(),
            mean_speech,
            notes.join("; ")
        );
        if day.day == 4 {
            death_day = Some(day.clone());
        }
    });

    // The incident timeline the pipeline saw.
    println!("\n=== the day-4 incident, as detected ===");
    let fig5 = figures::figure5(&death_day.expect("day 4 processed"));
    if let Some((start, level)) = fig5.consolation() {
        println!(
            "unplanned whole-crew gathering in the kitchen at {start}, mean level {level:.1} dB"
        );
        if let Some(lunch) = fig5.lunch_level_db {
            println!("for comparison, the same day's lunch ran at {lunch:.1} dB");
        }
    }

    // Mission-level outputs.
    println!("\n=== Table I ===");
    println!("{}", report::table_one(&mission).render());

    println!("=== mission statistics ===");
    println!("{}", figures::stats_report(&mission).render());

    println!("=== Fig. 6 (speech fraction per day) ===");
    println!("{}", figures::figure6(&mission).render());

    // What the analysis itself cost, stage by stage: replay one
    // representative day through the staged engine with every core.
    let engine = MissionEngine::new(runner.pipeline().context_arc());
    let stores = runner.record_day_stores(3);
    let _ = engine.analyze_day_stores(3, &stores);
    println!(
        "=== engine workload (day 3, {} worker(s)) ===",
        engine.workers()
    );
    println!("{}", report::engine_section(&engine.metrics()));

    // Close the loop the way the deployment did: verify the sensor story
    // against the crew's evening self-reports.
    let surveys = ares::crew::surveys::generate(
        runner.roster(),
        &runner.world().incidents,
        &ares::crew::surveys::SurveyConfig::default(),
        &ares::simkit::rng::SeedTree::new(0x1CA7E5),
    );
    let check = ares::sociometrics::validation::cross_check(&mission, &surveys);
    println!("=== sensor ↔ survey cross-check ===");
    println!("{}", check.render());
}
