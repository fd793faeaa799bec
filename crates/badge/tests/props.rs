//! Property tests for the badge device model.

use ares_badge::clockdrift::ClockSet;
use ares_badge::records::{
    BadgeId, BeaconScan, EnvSample, IrContact, ProximityObs, SamplingConfig, SyncSample,
};
use ares_badge::sensors::{ImuModel, OFF_BODY_VAR_THRESHOLD, WALK_VAR_THRESHOLD};
use ares_badge::storage::{decode_scan, encode_scan, StorageMeter};
use ares_badge::telemetry::{Column, ScanColumn, ScanView, TelemetryStore};
use ares_crew::truth::WearState;
use ares_habitat::beacons::BeaconId;
use ares_simkit::geometry::Point2;
use ares_simkit::rng::SeedTree;
use ares_simkit::time::{SimDuration, SimTime};
use bytes::BytesMut;
use proptest::prelude::*;

/// One generated record: kind, feed time (s), lateness (s), RSSI, the other
/// party's id and a scan's hit count.
type GenRecord = (u8, i64, i64, f64, u8, u8);

/// Pushes one generated record into a store. `t` advances monotonically with
/// the feed; IR contacts land `back` seconds in the past, the out-of-order
/// mirrored-contact case, and scans up to 3 s in the past with 0–7 hits.
fn push_generated(store: &mut TelemetryStore, (kind, t, back, rssi, other, n): GenRecord) {
    let at = SimTime::from_secs(t);
    match kind {
        0 => store.push_scan(&BeaconScan {
            t_local: SimTime::from_secs(t - back / 10),
            hits: (0..n)
                .map(|h| (BeaconId(other + h), rssi - 3.5 * f64::from(h)))
                .collect(),
        }),
        1 => store.push_proximity(ProximityObs {
            t_local: at,
            other: BadgeId(other),
            rssi,
        }),
        2 => store.push_ir(IrContact {
            t_local: SimTime::from_secs(t - back),
            other: BadgeId(other),
        }),
        3 => store.push_env(EnvSample {
            t_local: at,
            temperature_c: rssi + 120.0,
            pressure_hpa: 1013.0,
            light_lux: f64::from(other),
        }),
        _ => store.push_sync(SyncSample {
            t_local: at,
            t_reference: SimTime::from_secs(t + i64::from(other)),
        }),
    }
}

/// Every RSSI in a store, as bit patterns (stricter than `f64` equality).
fn rssi_bits(store: &TelemetryStore) -> Vec<u64> {
    let v = store.view();
    v.scan_hits()
        .flat_map(|(_, hits)| hits.iter().map(|&(_, r)| r.to_bits()))
        .chain(v.proximity.payloads().iter().map(|p| p.rssi.to_bits()))
        .collect()
}

/// A scan view's rows with RSSI as bit patterns.
fn scan_bits(view: ScanView<'_>) -> Vec<(SimTime, Vec<(BeaconId, u64)>)> {
    view.iter()
        .map(|(t, hits)| (t, hits.iter().map(|&(b, r)| (b, r.to_bits())).collect()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn appending_segments_equals_pushing_into_one_store(
        ops in prop::collection::vec(
            (0u8..5, 0i64..4, 0i64..40, -100.0f64..-30.0, 0u8..12, 0u8..8),
            0..240,
        ),
        cuts in prop::collection::vec(0usize..10_000, 0..6),
    ) {
        let mut clock = 1_000i64;
        let records: Vec<GenRecord> = ops
            .iter()
            .map(|&(kind, dt, back, rssi, other, n)| {
                clock += dt;
                (kind, clock, back, rssi, other, n)
            })
            .collect();
        let mut one = TelemetryStore::new(BadgeId(3));
        for &r in &records {
            push_generated(&mut one, r);
        }
        let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (records.len() + 1)).collect();
        bounds.push(0);
        bounds.push(records.len());
        bounds.sort_unstable();
        let mut joined = TelemetryStore::new(BadgeId(3));
        for w in bounds.windows(2) {
            let mut segment = TelemetryStore::new(BadgeId(3));
            for &r in &records[w[0]..w[1]] {
                push_generated(&mut segment, r);
            }
            joined.append(segment);
        }
        prop_assert_eq!(rssi_bits(&joined), rssi_bits(&one));
        prop_assert_eq!(joined, one);
    }

    #[test]
    fn scan_frames_decode_to_what_was_encoded(
        t in i64::MIN / 4..i64::MAX / 4,
        hits in prop::collection::vec((0u8..32, -120.0f64..0.0), 0..=32),
    ) {
        let scan = BeaconScan {
            t_local: SimTime::from_micros(t),
            hits: hits.iter().map(|&(b, r)| (BeaconId(b), r)).collect(),
        };
        let mut buf = BytesMut::new();
        encode_scan(&scan, &mut buf);
        let back = decode_scan(&mut buf.freeze()).expect("well-formed frame");
        prop_assert_eq!(back.t_local, scan.t_local);
        prop_assert_eq!(back.hits.len(), scan.hits.len());
        for ((ba, ra), (bb, rb)) in scan.hits.iter().zip(&back.hits) {
            prop_assert_eq!(ba, bb);
            prop_assert!((ra - rb).abs() <= 0.0051);
        }
    }

    #[test]
    fn truncated_frames_never_panic(
        t in 0i64..1_000_000,
        hits in prop::collection::vec((0u8..32, -120.0f64..0.0), 0..=32),
        cut in 0usize..64,
    ) {
        let scan = BeaconScan {
            t_local: SimTime::from_micros(t),
            hits: hits.iter().map(|&(b, r)| (BeaconId(b), r)).collect(),
        };
        let mut buf = BytesMut::new();
        encode_scan(&scan, &mut buf);
        let full = buf.freeze();
        let cut = cut.min(full.len());
        let mut prefix = full.slice(..cut);
        // Either decodes (cut == full length) or returns a structured error.
        match decode_scan(&mut prefix) {
            Ok(s) => prop_assert_eq!(s.hits.len(), scan.hits.len()),
            Err(_) => prop_assert!(cut < full.len()),
        }
    }

    #[test]
    fn clock_sets_are_deterministic_and_bounded(seed in 0u64..100_000) {
        let a = ClockSet::generate(&SeedTree::new(seed));
        let b = ClockSet::generate(&SeedTree::new(seed));
        prop_assert_eq!(a.clone(), b);
        for i in 0..13u8 {
            let c = a.clock(BadgeId(i));
            prop_assert!(c.skew_ppm().abs() < 200.0, "skew {}", c.skew_ppm());
            prop_assert!(c.offset().abs() < SimDuration::from_secs(15));
        }
        // The reference is always the most stable unit.
        let worst_field = (0..6)
            .map(|i| a.clock(BadgeId(i)).skew_ppm().abs())
            .fold(0.0f64, f64::max);
        prop_assert!(a.reference().skew_ppm().abs() <= worst_field.max(0.5));
    }

    #[test]
    fn imu_feature_classes_never_bleed(energy in 0.7f64..1.4, seed in 0u64..10_000) {
        let model = ImuModel::default();
        let mut rng = SeedTree::new(seed).stream("prop-imu");
        let t = SimTime::EPOCH;
        for _ in 0..20 {
            let walk = model.sample(t, WearState::Worn, true, energy, &mut rng);
            prop_assert!(walk.accel_var > WALK_VAR_THRESHOLD);
            let off = model.sample(t, WearState::LeftAt(Point2::ORIGIN), false, energy, &mut rng);
            prop_assert!(off.accel_var < OFF_BODY_VAR_THRESHOLD);
            let still = model.sample(t, WearState::Worn, false, energy, &mut rng);
            prop_assert!(still.accel_var > OFF_BODY_VAR_THRESHOLD);
            prop_assert!(still.accel_var < WALK_VAR_THRESHOLD);
        }
    }

    #[test]
    fn storage_meter_is_additive(
        spans in prop::collection::vec((0i64..86_400, prop::bool::ANY), 1..20),
    ) {
        let cfg = SamplingConfig::default();
        let mut one = StorageMeter::new();
        let mut parts = 0u64;
        for &(secs, active) in &spans {
            let mut m = StorageMeter::new();
            let d = SimDuration::from_secs(secs);
            if active {
                one.record_active(&cfg, d);
                m.record_active(&cfg, d);
            } else {
                one.record_docked(&cfg, d);
                m.record_docked(&cfg, d);
            }
            parts += m.bytes();
        }
        prop_assert_eq!(one.bytes(), parts);
    }

    #[test]
    fn scan_column_matches_a_naive_row_model(
        ops in prop::collection::vec(
            (0i64..4, 0i64..6, 0u8..8, -100.0f64..-30.0, 0u8..20),
            0..200,
        ),
        outer in (0i64..1_500, 0i64..1_500),
        inner in (0i64..1_500, 0i64..1_500),
    ) {
        let mut col = ScanColumn::new();
        let mut model: Vec<(SimTime, Vec<(BeaconId, f64)>)> = Vec::new();
        let mut clock = 1_000i64;
        for &(dt, back, n, rssi, first) in &ops {
            clock += dt;
            // Up to 5 s late: out-of-order and equal timestamps both occur.
            let t = SimTime::from_secs(clock - back);
            let hits: Vec<(BeaconId, f64)> = (0..n)
                .map(|h| (BeaconId(first + h), rssi - f64::from(h)))
                .collect();
            col.push(t, hits.iter().copied());
            // Stable insert: after every row stamped at or before `t`.
            let at = model.partition_point(|&(x, _)| x <= t);
            model.insert(at, (t, hits));
        }
        prop_assert_eq!(col.len(), model.len());
        let span = |(a, b): (i64, i64)| {
            (SimTime::from_secs(1_000 + a.min(b)), SimTime::from_secs(1_000 + a.max(b)))
        };
        let (o0, o1) = span(outer);
        let (i0, i1) = span(inner);
        // A window of a window starts mid-column: its offsets do not start
        // at zero and still index the column's whole hit array.
        let views = [
            (col.view(), SimTime::from_secs(0), SimTime::from_secs(1_000_000)),
            (col.view().window(o0, o1), o0, o1),
            (col.view().window(o0, o1).window(i0, i1), o0.max(i0), o1.min(i1)),
        ];
        for (view, start, end) in views {
            let expect: Vec<_> = model
                .iter()
                .filter(|&&(t, _)| start <= t && t < end)
                .map(|(t, hits)| (*t, hits.iter().map(|&(b, r)| (b, r.to_bits())).collect()))
                .collect();
            prop_assert_eq!(scan_bits(view), expect);
            prop_assert_eq!(view.offsets().len(), view.len() + 1);
        }
    }

    #[test]
    fn telemetry_window_matches_naive_filter(
        ts in prop::collection::vec(0i64..2_000, 0..160),
        a in 0i64..2_100,
        b in 0i64..2_100,
    ) {
        let mut col = Column::new();
        for (i, &t) in ts.iter().enumerate() {
            col.push(SimTime::from_secs(t), i);
        }
        let (start, end) = (
            SimTime::from_secs(a.min(b)),
            SimTime::from_secs(a.max(b)),
        );
        let mut rows: Vec<(SimTime, usize)> = ts
            .iter()
            .enumerate()
            .map(|(i, &t)| (SimTime::from_secs(t), i))
            .collect();
        rows.sort_by_key(|&(t, _)| t); // stable, like the column's insert
        let expect: Vec<(SimTime, usize)> = rows
            .into_iter()
            .filter(|&(t, _)| start <= t && t < end)
            .collect();
        let got: Vec<(SimTime, usize)> =
            col.window(start, end).iter().map(|(t, &p)| (t, p)).collect();
        prop_assert_eq!(got, expect);
    }
}
