//! A single-badge deep dive: what one unit's firmware actually records over
//! a day — sensor streams, clock drift and its offline correction, storage
//! volume and battery margins.
//!
//! ```sh
//! cargo run --release --example badge_firmware
//! ```

use ares::badge::power::{Battery, PowerModel};
use ares::badge::records::{BadgeId, BeaconScan};
use ares::badge::storage;
use ares::crew::roster::AstronautId;
use ares::icares::MissionRunner;
use ares::simkit::time::{SimDuration, SimTime};
use ares::sociometrics::sync::SyncCorrection;

fn main() {
    let runner = MissionRunner::icares();
    let (stores, analysis) = runner.run_day(3);
    let unit = BadgeId(3); // D's badge
    let log = stores
        .iter()
        .find(|s| s.badge == unit)
        .expect("unit recorded");

    println!("=== {unit} (worn by D) on mission day 3 ===\n");
    println!("record streams:");
    println!("  BLE beacon scans      {:>8}", log.scans.len());
    println!("  audio feature frames  {:>8}", log.audio.len());
    println!("  IMU windows           {:>8}", log.imu.len());
    println!("  environmental samples {:>8}", log.env.len());
    println!("  proximity packets     {:>8}", log.proximity.len());
    println!("  infrared contacts     {:>8}", log.ir.len());
    println!("  time-sync exchanges   {:>8}", log.sync.len());
    println!(
        "  raw SD volume         {:>8.2} GiB",
        log.bytes_written as f64 / (1u64 << 30) as f64
    );

    // Clock drift: what the fitted correction recovered.
    let corr = SyncCorrection::fit_view(log.sync.view());
    println!("\nclock correction (fitted offline against the reference badge):");
    println!(
        "  offset {:+.3} s, skew {:+.2} ppm, {} samples, RMS residual {:.1} ms",
        corr.offset_s,
        corr.skew_ppm,
        corr.samples,
        corr.rms_residual_s * 1000.0
    );
    let end_of_mission = SimTime::from_day_hms(14, 21, 0, 0);
    println!(
        "  uncorrected, this clock would be {:+.1} s off by mission end",
        corr.shift_at(end_of_mission).as_secs_f64()
    );

    // A peek at the first scan — what localization works from.
    if let Some((t_local, hits)) = log.view().scan_hits().find(|(_, h)| h.len() >= 3) {
        println!("\na beacon scan (local time {t_local}):");
        for (beacon, rssi) in hits {
            println!("  {beacon}: {rssi:>6.1} dBm");
        }
    }

    // The on-card codec round-trips the day's scans.
    let scans: Vec<BeaconScan> = log.view().beacon_scans().collect();
    let image = storage::encode_scan_stream(&scans);
    let decoded = storage::decode_scan_stream(image.clone()).expect("card image parses");
    println!(
        "\non-card scan image: {} bytes for {} scans (round-trips: {})",
        image.len(),
        log.scans.len(),
        decoded.len() == log.scans.len()
    );

    // Battery: does the duty day fit one charge?
    let model = PowerModel::default();
    let mut battery = Battery::full(model);
    let survived = battery.drain_active(SimDuration::from_hours(14));
    println!(
        "\npower: {:.0} mW active draw, {:.1} h runtime per charge — 14 h duty day {} (SoC left {:.0} %)",
        model.active_draw_mw(),
        model.active_runtime().as_hours_f64(),
        if survived { "fits" } else { "DOES NOT FIT" },
        battery.soc() * 100.0
    );
    battery.charge(SimDuration::from_hours(10));
    println!(
        "overnight charging restores SoC to {:.0} %",
        battery.soc() * 100.0
    );

    // What the pipeline concluded about this unit today.
    if let Some(bd) = analysis.badges.iter().find(|b| b.badge == unit) {
        println!("\npipeline verdict for {unit}:");
        println!(
            "  resolved carrier {:?} (score {:.2}), {} stays, {} walking bouts",
            bd.identification.carrier,
            bd.identification.score,
            bd.stays.len(),
            bd.activity.walking.len()
        );
        let d = AstronautId::D;
        if let Some(daily) = &analysis.daily[d.index()] {
            println!(
                "  worn {:.0} % of daytime, {:.2} h of own speech",
                daily.worn_fraction * 100.0,
                daily.self_talk_h
            );
        }
    }
}
