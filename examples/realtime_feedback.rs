//! Real-time feedback — the paper's headline wish, running live.
//!
//! "What we learned would be even more desirable is real-time feedback to
//! the astronauts on the results of the analyses." This example multiplexes
//! one mission day's badge records into a single time-ordered feed, pushes
//! it through the bounded-memory [`StreamingAnalyzer`], and prints the live
//! event ticker the habitat's displays would show — then reports how much
//! faster than real time the analyzer runs.
//!
//! ```sh
//! cargo run --release --example realtime_feedback
//! ```

use ares::badge::records::BadgeId;
use ares::icares::MissionRunner;
use ares::sociometrics::streaming::{LiveEvent, StreamingAnalyzer};

enum Record {
    Scan(ares::badge::records::BeaconScan),
    Audio(ares::badge::records::AudioFrame),
    Imu(ares::badge::records::ImuSample),
}

fn main() {
    let runner = MissionRunner::icares();
    println!("recording mission day 4 (the day astronaut C leaves)…");
    let stores = runner.record_day_stores(4);

    // Build the multiplexed feed the habitat radio network would deliver.
    let mut sa = StreamingAnalyzer::icares();
    let mut feed: Vec<(i64, BadgeId, Record)> = Vec::new();
    for store in &stores {
        let v = store.view();
        for s in v.sync_samples() {
            sa.ingest_sync(store.badge, &s);
        }
        for s in v.beacon_scans() {
            feed.push((s.t_local.as_micros(), store.badge, Record::Scan(s)));
        }
        for f in v.audio_frames() {
            feed.push((f.t_local.as_micros(), store.badge, Record::Audio(f)));
        }
        for s in v.imu_samples() {
            feed.push((s.t_local.as_micros(), store.badge, Record::Imu(s)));
        }
    }
    feed.sort_by_key(|&(t, _, _)| t);
    println!("feed: {} records from {} units\n", feed.len(), stores.len());

    let started = std::time::Instant::now();
    let mut ticker: Vec<String> = Vec::new();
    let mut counts = [0usize; 5];
    for (_, badge, record) in &feed {
        let events = match record {
            Record::Scan(s) => sa.ingest_scan(*badge, s),
            Record::Audio(f) => sa.ingest_audio(*badge, f),
            Record::Imu(s) => sa.ingest_imu(*badge, s),
        };
        for e in events {
            let idx = match &e {
                LiveEvent::RoomChanged { .. } => 0,
                LiveEvent::SpeechDetected { .. } => 1,
                LiveEvent::MeetingStarted { .. } => 2,
                LiveEvent::MeetingEnded { .. } => 3,
                LiveEvent::WearChanged { .. } => 4,
            };
            counts[idx] += 1;
            // Keep a sample of the interesting moments for display.
            match &e {
                LiveEvent::MeetingStarted { room, badges, at } if badges.len() >= 5 => {
                    ticker.push(format!(
                        "{at}  ⚑ whole-crew gathering forming in the {room} ({} badges)",
                        badges.len()
                    ));
                }
                LiveEvent::MeetingEnded { room, at, duration } if duration.as_hours_f64() > 0.4 => {
                    ticker.push(format!(
                        "{at}  meeting in the {room} ended after {duration}"
                    ));
                }
                _ => {}
            }
        }
    }
    let elapsed = started.elapsed();

    println!("live events emitted:");
    println!("  room changes     {:>6}", counts[0]);
    println!("  speech intervals {:>6}", counts[1]);
    println!("  meeting starts   {:>6}", counts[2]);
    println!("  meeting ends     {:>6}", counts[3]);
    println!("  wear changes     {:>6}", counts[4]);

    println!("\nticker highlights:");
    for line in ticker.iter().take(12) {
        println!("  {line}");
    }

    let day_seconds = 14.0 * 3600.0;
    let speedup = day_seconds / elapsed.as_secs_f64();
    println!(
        "\nprocessed a {:.0}-hour day in {:.2?} — {:.0}× real time, retaining only {} records of state",
        day_seconds / 3600.0,
        elapsed,
        speedup,
        sa.retained_records()
    );
    println!(
        "(the paper's point exactly: the raw stream is too large to ship to Earth,\n but a habitat-local analyzer keeps up with it easily)"
    );
}
