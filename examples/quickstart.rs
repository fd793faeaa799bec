//! Quick start: simulate one mission day end-to-end and inspect what the
//! sociometric pipeline extracts from the badge recordings.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use ares::crew::roster::AstronautId;
use ares::icares::MissionRunner;

fn main() {
    // The canonical ICAres-1 scenario: Lunares floor plan, 27 beacons,
    // six astronauts, the full incident script, default seed.
    println!("setting up the ICAres-1 scenario (generating ground truth)…");
    let runner = MissionRunner::icares();

    // Record and analyze mission day 3: every badge samples its sensors at
    // the configured rates, stamps records with its own drifting clock, and
    // the offline pipeline reconstructs the day.
    println!("recording and analyzing mission day 3…\n");
    let (stores, analysis) = runner.run_day(3);

    println!(
        "raw data written to SD cards: {:.2} GiB across {} badge units",
        stores.iter().map(|s| s.bytes_written).sum::<u64>() as f64 / (1u64 << 30) as f64,
        stores.len()
    );

    // Identity resolution: which badge was which astronaut actually wearing?
    println!("\nbadge → astronaut resolution (schedule-matching):");
    for a in AstronautId::ALL {
        match analysis.carrier_of[a.index()] {
            Some(idx) => {
                let b = &analysis.badges[idx];
                println!(
                    "  {a}: {} (match score {:.2}, clock skew {:+.1} ppm)",
                    b.badge, b.identification.score, b.corr.skew_ppm
                );
            }
            None => println!("  {a}: no badge data"),
        }
    }

    // Daily aggregates per astronaut.
    println!("\nper-astronaut day summary:");
    for a in AstronautId::ALL {
        if let Some(d) = &analysis.daily[a.index()] {
            println!(
                "  {a}: worn {:>4.0} %, walking {:>5.3}, speech-heard {:>4.2}, self-talk {:>4.2} h",
                d.worn_fraction * 100.0,
                d.walking_fraction,
                d.heard_fraction,
                d.self_talk_h
            );
        }
    }

    // Detected meetings.
    println!("\nmeetings detected ({}):", analysis.meetings.len());
    for m in analysis.meetings.iter().take(12) {
        let names: Vec<String> = m.participants.iter().map(ToString::to_string).collect();
        println!(
            "  {} in the {:<9} {} for {:>8}  ({}, speech {:.0} %)",
            names.join(""),
            m.room.label(),
            m.interval.start,
            m.duration(),
            if m.planned { "planned" } else { "unplanned" },
            m.speech_fraction * 100.0
        );
    }
    if analysis.meetings.len() > 12 {
        println!("  … and {} more", analysis.meetings.len() - 12);
    }

    // Day-level passage counts.
    let (from, to, n) = analysis.passages.hottest();
    println!(
        "\nroom passages today: {} total; busiest corridor {from} → {to} ({n}×)",
        analysis.passages.total()
    );
}
