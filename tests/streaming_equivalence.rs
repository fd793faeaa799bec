//! The streaming analyzer must agree with the offline batch pipeline on the
//! same recorded day — same rooms, same speech intervals, same wear story —
//! while holding only bounded state.

use ares::badge::records::{BadgeId, BeaconScan};
use ares::icares::MissionRunner;
use ares::simkit::time::{SimDuration, SimTime};
use ares::sociometrics::engine::MissionContext;
use ares::sociometrics::streaming::{LiveEvent, StreamingAnalyzer};
use ares::support::ingest::TelemetryRecord;
use proptest::prelude::*;
use std::sync::OnceLock;

#[test]
fn streaming_matches_batch_on_a_real_day() {
    let runner = MissionRunner::icares();
    let (stores, batch) = runner.run_day(3);
    let unit = BadgeId(4); // E's badge
    let log = stores
        .iter()
        .find(|s| s.badge == unit)
        .expect("recorded")
        .view();
    let batch_day = batch
        .badges
        .iter()
        .find(|b| b.badge == unit)
        .expect("analyzed");

    let mut sa = StreamingAnalyzer::icares();
    // Replay in the order the badge produced records: sync first (the badge
    // syncs opportunistically from the very start of the day), then the
    // sensor streams interleaved by timestamp.
    for s in log.sync_samples() {
        sa.ingest_sync(unit, &s);
    }
    let mut room_events: Vec<(SimTime, ares::habitat::rooms::RoomId)> = Vec::new();
    let mut speech_events = 0usize;
    for scan in log.beacon_scans() {
        for e in sa.ingest_scan(unit, &scan) {
            if let LiveEvent::RoomChanged { room, at, .. } = e {
                room_events.push((at, room));
            }
        }
    }
    for frame in log.audio_frames() {
        for e in sa.ingest_audio(unit, &frame) {
            if matches!(e, LiveEvent::SpeechDetected { .. }) {
                speech_events += 1;
            }
        }
    }

    // 1. Room agreement: sample the streaming room timeline against the
    //    batch track every minute.
    let mut agree = 0;
    let mut total = 0;
    let mut t = SimTime::from_day_hms(3, 7, 30, 0);
    while t < SimTime::from_day_hms(3, 20, 30, 0) {
        let streamed = room_events
            .iter()
            .rev()
            .find(|&&(at, _)| at <= t)
            .map(|&(_, r)| r);
        let batched = batch_day.track.room_at(t);
        if let (Some(a), Some(b)) = (streamed, batched) {
            total += 1;
            if a == b {
                agree += 1;
            }
        }
        t += SimDuration::from_mins(1);
    }
    assert!(total > 350, "too few comparable minutes: {total}");
    let accuracy = f64::from(agree) / f64::from(total);
    assert!(
        accuracy > 0.97,
        "streaming rooms diverge from batch: {accuracy:.3}"
    );

    // 2. Speech agreement: live interval count within 15 % of the batch
    //    count (the final open bucket is the only structural difference).
    let batch_speech = batch_day
        .speech
        .intervals
        .iter()
        .filter(|iv| iv.speech)
        .count();
    let diff = (speech_events as f64 - batch_speech as f64).abs();
    assert!(
        diff <= 0.15 * batch_speech as f64 + 2.0,
        "speech intervals: streaming {speech_events} vs batch {batch_speech}"
    );

    // 3. Bounded memory after a full day of records.
    assert!(
        sa.retained_records() < 64,
        "retained {} records",
        sa.retained_records()
    );
    assert!(sa.records_ingested() > 50_000);
}

#[test]
fn streaming_meeting_events_bracket_batch_meetings() {
    let runner = MissionRunner::icares();
    let (stores, batch) = runner.run_day(2);
    let mut sa = StreamingAnalyzer::icares();
    // Interleave all badges' scans by local timestamp (true multiplexed feed).
    let mut feed: Vec<(BadgeId, BeaconScan)> = Vec::new();
    for store in &stores {
        let v = store.view();
        for s in v.sync_samples() {
            sa.ingest_sync(store.badge, &s);
        }
        feed.extend(v.beacon_scans().map(|scan| (store.badge, scan)));
    }
    feed.sort_by_key(|(_, s)| s.t_local);
    let mut started = 0usize;
    let mut ended = 0usize;
    for (badge, scan) in &feed {
        for e in sa.ingest_scan(*badge, scan) {
            match e {
                LiveEvent::MeetingStarted { .. } => started += 1,
                LiveEvent::MeetingEnded { .. } => ended += 1,
                _ => {}
            }
        }
    }
    // The streaming detector fires on raw co-presence, so it sees at least
    // as many episodes as the batch detector's (merged, filtered) meetings.
    assert!(
        started >= batch.meetings.len(),
        "streaming {} starts vs batch {} meetings",
        started,
        batch.meetings.len()
    );
    assert!(ended <= started);
    assert!(started > 10, "a normal day has many gatherings: {started}");
}

/// A recorded multi-badge day flattened into one analyzer-facing feed,
/// interleaved by badge-local timestamp. Recorded once and shared across
/// property cases — recording a day is the expensive part, not replaying it.
fn day2_feed() -> &'static (MissionContext, Vec<(BadgeId, TelemetryRecord)>) {
    static FEED: OnceLock<(MissionContext, Vec<(BadgeId, TelemetryRecord)>)> = OnceLock::new();
    FEED.get_or_init(|| {
        let runner = MissionRunner::icares();
        let ctx = runner.pipeline().context().clone();
        let stores = runner.record_day_stores(2);
        let mut feed: Vec<(BadgeId, TelemetryRecord)> = Vec::new();
        // Five badges give genuine cross-badge interleaving (room handoffs,
        // shared meetings) while keeping each property case fast.
        for store in stores.iter().take(5) {
            let v = store.view();
            for s in v.beacon_scans() {
                feed.push((store.badge, TelemetryRecord::Scan(s)));
            }
            for a in v.audio_frames() {
                feed.push((store.badge, TelemetryRecord::Audio(a)));
            }
            for s in v.imu_samples() {
                feed.push((store.badge, TelemetryRecord::Imu(s)));
            }
            for s in v.sync_samples() {
                feed.push((store.badge, TelemetryRecord::Sync(s)));
            }
        }
        feed.sort_by_key(|(_, r)| r.t_local());
        (ctx, feed)
    })
}

/// Feeds one record into the analyzer, collecting any emitted events.
fn apply_record(
    sa: &mut StreamingAnalyzer,
    badge: BadgeId,
    record: &TelemetryRecord,
    events: &mut Vec<LiveEvent>,
) {
    match record {
        TelemetryRecord::Scan(s) => events.extend(sa.ingest_scan(badge, s)),
        TelemetryRecord::Audio(a) => events.extend(sa.ingest_audio(badge, a)),
        TelemetryRecord::Imu(s) => events.extend(sa.ingest_imu(badge, s)),
        TelemetryRecord::Sync(s) => sa.ingest_sync(badge, s),
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Checkpoint at an arbitrary cut of an interleaved multi-badge feed,
    /// restore into a fresh analyzer, replay the tail — and the result must
    /// be bit-identical to never having been interrupted: same event stream,
    /// same counters, same serialized checkpoint bytes. This is the contract
    /// the ingest shards' recovery path stands on.
    #[test]
    fn checkpoint_restore_replay_matches_uninterrupted_ingest_bit_for_bit(
        frac in 0u32..=1_000,
    ) {
        let (ctx, feed) = day2_feed();
        let cut = feed.len() * frac as usize / 1_000;
        let end = SimTime::from_day_hms(3, 0, 0, 0);

        let mut whole = StreamingAnalyzer::with_context(ctx.clone());
        let mut whole_events = Vec::new();
        for (badge, r) in feed {
            apply_record(&mut whole, *badge, r, &mut whole_events);
        }

        let mut first = StreamingAnalyzer::with_context(ctx.clone());
        let mut split_events = Vec::new();
        for (badge, r) in &feed[..cut] {
            apply_record(&mut first, *badge, r, &mut split_events);
        }
        let mid_at = feed[..cut]
            .last()
            .map_or(SimTime::EPOCH, |(_, r)| r.t_local());
        let mid = first.checkpoint(mid_at);

        let mut resumed = StreamingAnalyzer::with_context(ctx.clone());
        resumed.restore(&mid);
        for (badge, r) in &feed[cut..] {
            apply_record(&mut resumed, *badge, r, &mut split_events);
        }

        prop_assert_eq!(
            split_events.len(),
            whole_events.len(),
            "event counts diverged at cut {}/{}",
            cut,
            feed.len()
        );
        prop_assert_eq!(&split_events, &whole_events);
        prop_assert_eq!(resumed.records_ingested(), whole.records_ingested());
        prop_assert_eq!(resumed.events_emitted(), whole.events_emitted());
        let uninterrupted = serde_json::to_string(&whole.checkpoint(end)).expect("ckpt");
        let recovered = serde_json::to_string(&resumed.checkpoint(end)).expect("ckpt");
        prop_assert_eq!(
            uninterrupted,
            recovered,
            "checkpoint bytes diverged at cut {}",
            cut
        );
    }
}
