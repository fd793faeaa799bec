//! Property tests for the sociometric pipeline's kernels.

use ares_badge::records::{AudioFrame, BadgeId, ImuSample};
use ares_badge::telemetry::TelemetryStore;
use ares_crew::roster::AstronautId;
use ares_habitat::rooms::RoomId;
use ares_simkit::geometry::Point2;
use ares_simkit::time::{SimDuration, SimTime};
use ares_sociometrics::localization::{Fix, PositionTrack};
use ares_sociometrics::occupancy::{segment_stays, PassageMatrix, MIN_STAY};
use ares_sociometrics::speech::{analyze_view, SpeechParams};
use ares_sociometrics::sync::SyncCorrection;
use ares_sociometrics::wear::{detect_wear_iter, WearParams};
use proptest::prelude::*;

/// A random room walk as 1 Hz fixes: `(room_index, dwell_seconds)` runs.
fn room_runs() -> impl Strategy<Value = Vec<(usize, i64)>> {
    prop::collection::vec((0usize..10, 1i64..600), 1..30)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn stays_cover_only_observed_rooms_and_respect_min_stay(runs in room_runs()) {
        let mut track = PositionTrack::default();
        let mut t = SimTime::EPOCH;
        let mut seen = std::collections::BTreeSet::new();
        for &(ri, dwell) in &runs {
            let room = RoomId::ALL[ri];
            for _ in 0..dwell {
                track.fixes.push(t, Fix { room, position: Point2::ORIGIN, hits: 3 });
                t += SimDuration::from_secs(1);
            }
            if dwell >= 10 {
                seen.insert(room);
            }
        }
        let stays = segment_stays(&track, SimDuration::from_secs(5));
        for s in &stays {
            prop_assert!(s.duration() >= MIN_STAY);
            prop_assert!(seen.contains(&s.room) || runs.iter().any(|&(ri, _)| RoomId::ALL[ri] == s.room));
        }
        // Stays are chronologically ordered and non-overlapping.
        for w in stays.windows(2) {
            prop_assert!(w[1].interval.start >= w[0].interval.end);
        }
        // Total stay time never exceeds observation time (+1 s closure per stay).
        let total: i64 = stays.iter().map(|s| s.duration().as_micros() / 1_000_000).collect::<Vec<_>>().iter().sum();
        let observed: i64 = runs.iter().map(|&(_, d)| d).sum();
        prop_assert!(total <= observed + stays.len() as i64);
    }

    #[test]
    fn passage_counts_are_bounded_by_stay_transitions(runs in room_runs()) {
        let mut track = PositionTrack::default();
        let mut t = SimTime::EPOCH;
        for &(ri, dwell) in &runs {
            let room = RoomId::ALL[ri];
            for _ in 0..dwell {
                track.fixes.push(t, Fix { room, position: Point2::ORIGIN, hits: 3 });
                t += SimDuration::from_secs(1);
            }
        }
        let stays = segment_stays(&track, SimDuration::from_secs(5));
        let mut m = PassageMatrix::new();
        m.accumulate(&stays);
        let peripheral = stays.iter().filter(|s| s.room.in_fig2()).count();
        prop_assert!(m.total() as usize <= peripheral.saturating_sub(0));
    }

    #[test]
    fn wear_fractions_are_fractions(
        blocks in prop::collection::vec((prop::bool::ANY, 10usize..120), 1..20),
    ) {
        let mut log = TelemetryStore::new(BadgeId(0));
        let mut t = 0i64;
        for &(worn, n) in &blocks {
            for _ in 0..n {
                log.push_imu(ImuSample {
                    t_local: SimTime::from_secs(t),
                    accel_var: if worn { 0.05 } else { 0.0004 },
                    accel_mean: 9.81,
                    step_hz: None,
                });
                t += 1;
            }
        }
        let track = detect_wear_iter(log.view().imu_samples(), &SyncCorrection::identity(), &WearParams::default());
        let total = SimTime::from_secs(t) - SimTime::EPOCH;
        prop_assert!(track.worn.total_duration() <= track.active.total_duration());
        prop_assert!(track.active.total_duration() <= total + SimDuration::from_secs(60));
    }

    #[test]
    fn speech_interval_rule_is_monotone_in_threshold(
        frames in prop::collection::vec((40.0f64..80.0, prop::bool::ANY), 30..120),
    ) {
        let mut log = TelemetryStore::new(BadgeId(0));
        for (i, &(level, voiced)) in frames.iter().enumerate() {
            log.push_audio(AudioFrame {
                t_local: SimTime::from_micros(i as i64 * 500_000),
                level_db: level,
                voiced,
                f0_hz: voiced.then_some(180.0),
            });
        }
        let strict = SpeechParams { level_threshold_db: 65.0, ..Default::default() };
        let lax = SpeechParams { level_threshold_db: 55.0, ..Default::default() };
        let t_strict = analyze_view(log.view().audio, &SyncCorrection::identity(), &strict);
        let t_lax = analyze_view(log.view().audio, &SyncCorrection::identity(), &lax);
        // A stricter threshold can only reduce heard speech.
        prop_assert!(t_strict.heard.total_duration() <= t_lax.heard.total_duration());
        // And interval counts match the same time grid.
        prop_assert_eq!(t_strict.intervals.len(), t_lax.intervals.len());
    }

    #[test]
    fn normalized_scores_are_in_unit_range(scores in prop::collection::vec(0.0f64..1000.0, 6)) {
        let arr: [f64; 6] = scores.clone().try_into().unwrap();
        let n = ares_sociometrics::social::normalize_scores(&arr, &[]);
        let mut saw_one = false;
        for a in AstronautId::ALL {
            let v = n[a.index()].expect("no exclusions");
            prop_assert!((0.0..=1.0 + 1e-12).contains(&v));
            if (v - 1.0).abs() < 1e-12 {
                saw_one = true;
            }
        }
        prop_assert!(saw_one || arr.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn sync_fit_never_worsens_identity_on_clean_pairs(
        offset_ms in -5_000i64..5_000,
        skew in -60.0f64..60.0,
    ) {
        use ares_badge::records::SyncSample;
        use ares_simkit::clock::DriftingClock;
        let badge = DriftingClock::new(SimDuration::from_millis(offset_ms), skew);
        let samples: Vec<SyncSample> = (0..24)
            .map(|i| {
                let t = SimTime::from_hours_true(f64::from(i) * 14.0);
                SyncSample { t_local: badge.local_time(t), t_reference: t }
            })
            .collect();
        let corr = SyncCorrection::fit(&samples);
        let probe = SimTime::from_hours_true(170.0);
        let corrected_err = (corr.to_reference(badge.local_time(probe)) - probe).abs();
        let raw_err = (badge.local_time(probe) - probe).abs();
        prop_assert!(corrected_err <= raw_err + SimDuration::from_millis(1));
        prop_assert!(corrected_err < SimDuration::from_millis(10));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn streaming_checkpoint_resume_is_transparent(
        rooms in prop::collection::vec(0usize..4, 24..100),
        split_frac in 0.1f64..0.9,
    ) {
        // Checkpoint → serde round-trip → restore into a fresh analyzer →
        // resume must be indistinguishable from an uninterrupted run, for
        // arbitrary room walks and an arbitrary split point.
        use ares_habitat::beacons::BeaconDeployment;
        use ares_habitat::floorplan::FloorPlan;
        use ares_sociometrics::streaming::{AnalyzerCheckpoint, StreamingAnalyzer};
        const ROOM_CHOICES: [RoomId; 4] =
            [RoomId::Office, RoomId::Kitchen, RoomId::Biolab, RoomId::Workshop];
        let dep = BeaconDeployment::icares(&FloorPlan::lunares());
        let t0 = SimTime::from_day_hms(4, 9, 0, 0);
        let feed = |sa: &mut StreamingAnalyzer, range: std::ops::Range<usize>| {
            let mut events = Vec::new();
            for i in range {
                let t = t0 + SimDuration::from_secs(i as i64 * 30);
                let scan = ares_badge::records::BeaconScan {
                    t_local: t,
                    hits: dep.in_room(ROOM_CHOICES[rooms[i]]).map(|b| (b.id, -55.0)).collect(),
                };
                events.extend(sa.ingest_scan(BadgeId(0), &scan));
                let anchor = ares_badge::records::BeaconScan {
                    t_local: t,
                    hits: dep.in_room(RoomId::Office).map(|b| (b.id, -55.0)).collect(),
                };
                events.extend(sa.ingest_scan(BadgeId(1), &anchor));
                let talking = i % 3 == 0;
                events.extend(sa.ingest_audio(BadgeId(0), &AudioFrame {
                    t_local: t,
                    level_db: if talking { 66.0 } else { 41.0 },
                    voiced: talking,
                    f0_hz: if talking { Some(170.0) } else { None },
                }));
                events.extend(sa.ingest_imu(BadgeId(1), &ImuSample {
                    t_local: t,
                    accel_var: if (i / 8) % 2 == 0 { 0.05 } else { 0.0002 },
                    accel_mean: 9.81,
                    step_hz: None,
                }));
            }
            events
        };
        let split = ((rooms.len() as f64 * split_frac) as usize).clamp(1, rooms.len() - 1);
        let mut whole = StreamingAnalyzer::icares();
        let expected = feed(&mut whole, 0..rooms.len());
        let mut first = StreamingAnalyzer::icares();
        let mut got = feed(&mut first, 0..split);
        let ckpt = first.checkpoint(t0 + SimDuration::from_secs(split as i64 * 30));
        let wire = serde::Serialize::to_value(&ckpt);
        let restored: AnalyzerCheckpoint = serde::Deserialize::from_value(&wire)
            .expect("checkpoint must round-trip");
        prop_assert_eq!(&ckpt, &restored);
        let mut second = StreamingAnalyzer::icares();
        second.restore(&restored);
        got.extend(feed(&mut second, split..rooms.len()));
        prop_assert_eq!(got, expected);
        prop_assert_eq!(second.records_ingested(), whole.records_ingested());
        prop_assert_eq!(second.events_emitted(), whole.events_emitted());
    }
}
