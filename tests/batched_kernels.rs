//! Bit-identity contract of the batched SoA kernels.
//!
//! The batched localization and speech kernels are *drop-in* replacements
//! for their scalar references: for any telemetry column — not just mission
//! recordings — every produced `f64` must match the scalar path down to the
//! last bit (`to_bits`, not tolerance). These properties drive arbitrary
//! scan/audio columns through both paths, and the deterministic lane-tail
//! test pins column lengths that straddle the `LANES = 8` boundary, where a
//! transpose or remainder-loop bug would hide from round-count testing.

use ares::badge::records::{AudioFrame, BadgeId, BeaconScan};
use ares::badge::telemetry::TelemetryStore;
use ares::habitat::beacons::{BeaconDeployment, BeaconId};
use ares::habitat::floorplan::FloorPlan;
use ares::habitat::rooms::RoomId;
use ares::simkit::time::{SimDuration, SimTime};
use ares::sociometrics::engine::MissionContext;
use ares::sociometrics::localization::{localize_scans, localize_scans_scalar};
use ares::sociometrics::speech::{analyze_iter, analyze_view};
use ares::sociometrics::sync::SyncCorrection;
use proptest::prelude::*;
use std::sync::OnceLock;

fn ctx() -> &'static MissionContext {
    static CTX: OnceLock<MissionContext> = OnceLock::new();
    CTX.get_or_init(MissionContext::icares)
}

fn corr_strategy() -> impl Strategy<Value = SyncCorrection> {
    (-5.0f64..5.0, -200.0f64..200.0).prop_map(|(offset_s, skew_ppm)| SyncCorrection {
        offset_s,
        skew_ppm,
        samples: 4,
        rms_residual_s: 0.0,
    })
}

fn scans_strategy() -> impl Strategy<Value = Vec<BeaconScan>> {
    prop::collection::vec(
        (
            0i64..30,
            prop::collection::vec((0u8..40, -95.0f64..-35.0), 0..8),
        ),
        0..60,
    )
    .prop_map(|raw| {
        let mut t = SimTime::from_secs(1_000);
        raw.into_iter()
            .map(|(gap, hits)| {
                t += SimDuration::from_secs(gap);
                BeaconScan {
                    t_local: t,
                    hits: hits
                        .into_iter()
                        .map(|(id, rssi)| (BeaconId(id), rssi))
                        .collect(),
                }
            })
            .collect()
    })
}

fn audio_strategy() -> impl Strategy<Value = Vec<AudioFrame>> {
    prop::collection::vec(
        (
            1i64..4_000,
            30.0f64..95.0,
            prop::bool::ANY,
            prop::option::of(80.0f64..300.0),
        ),
        0..80,
    )
    .prop_map(|raw| {
        let mut t = SimTime::from_secs(2_000);
        raw.into_iter()
            .map(|(gap_ms, level_db, voiced, f0_hz)| {
                t += SimDuration::from_millis(gap_ms);
                AudioFrame {
                    t_local: t,
                    level_db,
                    voiced,
                    f0_hz,
                }
            })
            .collect()
    })
}

fn store_with(scans: Vec<BeaconScan>, audio: Vec<AudioFrame>) -> TelemetryStore {
    let mut store = TelemetryStore::new(BadgeId(0));
    for s in scans {
        store.push_scan(&s);
    }
    for a in audio {
        store.push_audio(a);
    }
    store
}

fn assert_localize_bits_match(store: &TelemetryStore, corr: &SyncCorrection) {
    let ctx = ctx();
    let view = store.view();
    let scalar = localize_scans_scalar(
        view.scans,
        corr,
        ctx.beacon_index(),
        &ctx.plan,
        &ctx.params.localization,
    );
    let batched = localize_scans(
        view.scans,
        corr,
        ctx.beacon_index(),
        &ctx.plan,
        &ctx.params.localization,
    );
    assert_eq!(
        scalar.fixes.samples().len(),
        batched.fixes.samples().len(),
        "fix count diverged"
    );
    for (a, b) in scalar.fixes.samples().iter().zip(batched.fixes.samples()) {
        assert_eq!(a.t, b.t, "fix time diverged");
        assert_eq!(a.value.room, b.value.room, "fix room diverged");
        assert_eq!(a.value.hits, b.value.hits, "fix hit count diverged");
        assert_eq!(
            a.value.position.x.to_bits(),
            b.value.position.x.to_bits(),
            "fix x bits diverged at t={:?}",
            a.t
        );
        assert_eq!(
            a.value.position.y.to_bits(),
            b.value.position.y.to_bits(),
            "fix y bits diverged at t={:?}",
            a.t
        );
    }
}

fn assert_speech_bits_match(store: &TelemetryStore, corr: &SyncCorrection) {
    let ctx = ctx();
    let view = store.view();
    let scalar = analyze_iter(view.audio_frames(), corr, &ctx.params.speech);
    let batched = analyze_view(view.audio, corr, &ctx.params.speech);
    assert_eq!(scalar, batched, "speech track diverged");
    for (a, b) in scalar.intervals.iter().zip(&batched.intervals) {
        assert_eq!(a.mean_level_db.to_bits(), b.mean_level_db.to_bits());
        assert_eq!(a.mean_voiced_db.to_bits(), b.mean_voiced_db.to_bits());
    }
    assert_eq!(scalar.self_f0_hz.to_bits(), batched.self_f0_hz.to_bits());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn batched_localize_matches_scalar_bits_on_arbitrary_columns(
        scans in scans_strategy(),
        corr in corr_strategy(),
    ) {
        let store = store_with(scans, Vec::new());
        assert_localize_bits_match(&store, &corr);
    }

    #[test]
    fn batched_speech_matches_scalar_bits_on_arbitrary_columns(
        audio in audio_strategy(),
        corr in corr_strategy(),
    ) {
        let store = store_with(Vec::new(), audio);
        assert_speech_bits_match(&store, &corr);
    }
}

/// Column lengths that straddle every lane boundary of the batched kernels:
/// below one lane group, exactly one, one over, just under/over two, and the
/// block-flush edge. Scans sit in one room so the whole column funnels into
/// a single anchor-count bucket — the worst case for transpose tail-padding.
#[test]
fn lane_tail_counts_are_bit_identical() {
    let dep = BeaconDeployment::icares(&FloorPlan::lunares());
    let office: Vec<BeaconId> = dep.in_room(RoomId::Office).map(|b| b.id).collect();
    assert!(office.len() >= 2, "sanity: office has beacons");
    let corr = SyncCorrection {
        offset_s: 0.75,
        skew_ppm: -35.0,
        samples: 4,
        rms_residual_s: 0.0,
    };
    for n in [1usize, 2, 3, 7, 8, 9, 15, 16, 17, 31, 33, 40] {
        let scans: Vec<BeaconScan> = (0..n)
            .map(|i| BeaconScan {
                t_local: SimTime::from_secs(500 + 2 * i as i64),
                hits: office
                    .iter()
                    .enumerate()
                    .map(|(k, &id)| (id, -48.0 - 3.0 * k as f64 - 0.1 * i as f64))
                    .collect(),
            })
            .collect();
        let audio: Vec<AudioFrame> = (0..n)
            .map(|i| AudioFrame {
                t_local: SimTime::from_secs(500 + 2 * i as i64),
                level_db: 55.0 + (i % 23) as f64,
                voiced: i % 3 != 0,
                f0_hz: (i % 4 != 0).then_some(120.0 + (i % 80) as f64),
            })
            .collect();
        let store = store_with(scans, audio);
        assert_localize_bits_match(&store, &corr);
        assert_speech_bits_match(&store, &corr);
    }
}
