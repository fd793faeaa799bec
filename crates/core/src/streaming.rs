//! The real-time (streaming) analyzer — the paper's future-work pitch made
//! concrete.
//!
//! "What we learned would be even more desirable is real-time feedback to
//! the astronauts on the results of the analyses. … the estimated amount of
//! information collected by a sensor network similar to the one deployed in
//! ICAres-1 might be prohibitively large to transfer in time. Thus, support
//! technology … should rather function autonomously."
//!
//! Where [`crate::engine`] batches a whole day, [`StreamingAnalyzer`]
//! ingests records one at a time with **bounded memory** and emits live
//! events (room changes, speech onsets, meeting starts/ends, wear changes)
//! the moment the evidence is in. Clock correction is fitted *incrementally*
//! — running regression sums, one update per sync exchange — so the analyzer
//! never needs to revisit old data.
//!
//! Every classification rule here is a **shared stage kernel** from the
//! batch path: room smoothing is [`ScanSmoother`] (the same type the
//! scalar localize oracle runs on), the speech-interval rule is
//! [`crate::speech::frame_qualifies`] + [`crate::speech::interval_is_speech`],
//! and the wear vote is [`crate::wear::window_on_body`] +
//! [`crate::wear::block_worn`]. The streaming analyzer cannot drift from the
//! pipeline because there is no second copy of the logic to drift.

use crate::engine::MissionContext;
use crate::localization::{MergeScratch, ScanSmoother};
use crate::speech::{frame_qualifies, interval_is_speech};
use crate::wear::{block_worn, window_on_body};
use ares_badge::records::{AudioFrame, BadgeId, BeaconScan, ImuSample, SyncSample};
use ares_habitat::rooms::RoomId;
use ares_simkit::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

pub use crate::sync::IncrementalSync;

/// An event emitted by the streaming analyzer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LiveEvent {
    /// A badge moved to a different room.
    RoomChanged {
        /// The badge.
        badge: BadgeId,
        /// New room.
        room: RoomId,
        /// When (reference time).
        at: SimTime,
    },
    /// A 15-second interval completed as speech (the paper's rule, applied
    /// on the fly).
    SpeechDetected {
        /// The badge that heard it.
        badge: BadgeId,
        /// Interval start.
        at: SimTime,
        /// Mean level of qualifying frames (dB).
        level_db: f64,
    },
    /// At least two badges are now sharing a room.
    MeetingStarted {
        /// Where.
        room: RoomId,
        /// Who (badge units).
        badges: Vec<BadgeId>,
        /// When.
        at: SimTime,
    },
    /// A room dropped back below two occupants.
    MeetingEnded {
        /// Where.
        room: RoomId,
        /// When.
        at: SimTime,
        /// How long the gathering lasted.
        duration: SimDuration,
    },
    /// A badge transitioned between worn and off-body.
    WearChanged {
        /// The badge.
        badge: BadgeId,
        /// Now worn?
        worn: bool,
        /// When.
        at: SimTime,
    },
}

#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
struct BadgeState {
    sync: IncrementalSync,
    smoother: ScanSmoother,
    // Speech interval under construction: (bucket, frames, qualifying, Σlevel).
    speech_bucket: Option<(SimTime, usize, usize, f64)>,
    // Wear block under construction: (bucket, on_body, total).
    wear_bucket: Option<(SimTime, usize, usize)>,
    worn: bool,
}

/// A serializable snapshot of a [`StreamingAnalyzer`]'s mutable state.
///
/// Maps are stored as sorted pair vectors (the offline serde stub round-trips
/// sequences, not maps), which also makes two checkpoints of equal state
/// byte-identical when serialized.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalyzerCheckpoint {
    /// Reference time at which the snapshot was taken.
    pub taken_at: SimTime,
    badges: Vec<(BadgeId, BadgeState)>,
    occupancy: Vec<(RoomId, Vec<BadgeId>)>,
    meeting_since: Vec<(RoomId, SimTime)>,
    events_emitted: u64,
    records_ingested: u64,
}

impl AnalyzerCheckpoint {
    /// Records the analyzer had ingested when the snapshot was taken — the
    /// **replay cursor**: a recovering replica that restores this checkpoint
    /// must re-feed exactly the WAL records *after* this count to converge
    /// on the crashed primary's state.
    #[must_use]
    pub fn records_ingested(&self) -> u64 {
        self.records_ingested
    }

    /// Events the analyzer had emitted when the snapshot was taken. Replaying
    /// the gap regenerates events past this count; anything before it is a
    /// duplicate a downstream sink has already seen.
    #[must_use]
    pub fn events_emitted(&self) -> u64 {
        self.events_emitted
    }
}

/// A checkpoint schedule on the sim clock: arms at `start + every` and fires
/// once per call to [`CheckpointCadence::due`] whenever the deadline has
/// passed, then re-arms past `now`. Long gaps (an idle stream, a stalled
/// shard) collapse into a single firing instead of a burst of stale
/// checkpoints.
///
/// Serializable so a shard can carry its cadence inside its own checkpoint
/// and resume the schedule after a promotion.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CheckpointCadence {
    every: SimDuration,
    next: SimTime,
}

impl CheckpointCadence {
    /// A cadence firing every `every`, first due at `start + every`.
    ///
    /// # Panics
    ///
    /// Panics if `every` is not a positive duration.
    #[must_use]
    pub fn new(start: SimTime, every: SimDuration) -> Self {
        assert!(
            every > SimDuration::ZERO,
            "checkpoint cadence must be positive"
        );
        CheckpointCadence {
            every,
            next: start + every,
        }
    }

    /// Whether a checkpoint is due at `now`; if so, re-arms strictly past
    /// `now` (one firing, however late the caller is).
    pub fn due(&mut self, now: SimTime) -> bool {
        if now < self.next {
            return false;
        }
        while self.next <= now {
            self.next += self.every;
        }
        true
    }

    /// The next scheduled firing instant.
    #[must_use]
    pub fn next_at(&self) -> SimTime {
        self.next
    }

    /// The configured period.
    #[must_use]
    pub fn every(&self) -> SimDuration {
        self.every
    }
}

/// The bounded-memory streaming analyzer.
#[derive(Debug)]
pub struct StreamingAnalyzer {
    ctx: MissionContext,
    badges: BTreeMap<BadgeId, BadgeState>,
    occupancy: BTreeMap<RoomId, Vec<BadgeId>>,
    meeting_since: BTreeMap<RoomId, SimTime>,
    events_emitted: u64,
    records_ingested: u64,
    // Persistent per-beacon accumulator for `merged_scan_of` — the same
    // allocation-free merge the batched localizer uses, kept out of
    // checkpoints (pure scratch, always left zeroed between calls).
    merge_scratch: MergeScratch,
}

impl StreamingAnalyzer {
    /// Creates an analyzer for the canonical deployment.
    #[must_use]
    pub fn icares() -> Self {
        StreamingAnalyzer::with_context(MissionContext::icares())
    }

    /// Creates an analyzer over a shared mission context — the same context
    /// type (and thus the same parameters) the batch pipeline runs on.
    #[must_use]
    pub fn with_context(ctx: MissionContext) -> Self {
        StreamingAnalyzer {
            ctx,
            badges: BTreeMap::new(),
            occupancy: BTreeMap::new(),
            meeting_since: BTreeMap::new(),
            events_emitted: 0,
            records_ingested: 0,
            merge_scratch: MergeScratch::default(),
        }
    }

    /// The mission context in use.
    #[must_use]
    pub fn context(&self) -> &MissionContext {
        &self.ctx
    }

    /// Records ingested so far (all streams).
    #[must_use]
    pub fn records_ingested(&self) -> u64 {
        self.records_ingested
    }

    /// Events emitted so far.
    #[must_use]
    pub fn events_emitted(&self) -> u64 {
        self.events_emitted
    }

    /// Upper bound on retained state, in records: the per-badge smoothing
    /// window plus the open buckets — *independent of stream length*.
    #[must_use]
    pub fn retained_records(&self) -> usize {
        self.badges
            .values()
            .map(|b| b.smoother.len() + 2)
            .sum::<usize>()
    }

    /// Folds in a sync exchange (improves this badge's clock mapping).
    pub fn ingest_sync(&mut self, badge: BadgeId, s: &SyncSample) {
        self.records_ingested += 1;
        self.badges.entry(badge).or_default().sync.update(s);
    }

    /// Ingests one BLE scan; may emit room-change and meeting events.
    ///
    /// Room smoothing runs on the shared [`ScanSmoother`] kernel — the same
    /// window/flush rules as the batch localizer. The smoothed position is
    /// available on demand via [`ScanSmoother::merged`]; the event stream
    /// carries rooms.
    pub fn ingest_scan(&mut self, badge: BadgeId, scan: &BeaconScan) -> Vec<LiveEvent> {
        self.records_ingested += 1;
        let mut events = Vec::new();
        let state = self.badges.entry(badge).or_default();
        let previous = state.smoother.room();
        let Some(room) = state.smoother.push(
            scan.t_local,
            &scan.hits,
            self.ctx.beacon_index(),
            &self.ctx.params.localization,
        ) else {
            return events;
        };
        let at = state.sync.to_reference(scan.t_local);
        if previous != Some(room) {
            events.push(LiveEvent::RoomChanged { badge, room, at });
            self.move_badge(badge, previous, room, at, &mut events);
        }
        self.events_emitted += events.len() as u64;
        events
    }

    fn move_badge(
        &mut self,
        badge: BadgeId,
        from: Option<RoomId>,
        to: RoomId,
        at: SimTime,
        events: &mut Vec<LiveEvent>,
    ) {
        if let Some(old) = from {
            if let Some(list) = self.occupancy.get_mut(&old) {
                list.retain(|&b| b != badge);
                if list.len() < 2 {
                    if let Some(since) = self.meeting_since.remove(&old) {
                        events.push(LiveEvent::MeetingEnded {
                            room: old,
                            at,
                            duration: at - since,
                        });
                    }
                }
            }
        }
        let list = self.occupancy.entry(to).or_default();
        if !list.contains(&badge) {
            list.push(badge);
        }
        if list.len() >= 2 && !self.meeting_since.contains_key(&to) {
            self.meeting_since.insert(to, at);
            events.push(LiveEvent::MeetingStarted {
                room: to,
                badges: list.clone(),
                at,
            });
        }
    }

    /// Ingests one audio frame; may emit a speech-interval event when the
    /// 15-second bucket closes. Frame and interval classification are the
    /// shared [`frame_qualifies`] / [`interval_is_speech`] kernels.
    pub fn ingest_audio(&mut self, badge: BadgeId, frame: &AudioFrame) -> Vec<LiveEvent> {
        self.records_ingested += 1;
        let params = self.ctx.params.speech;
        let state = self.badges.entry(badge).or_default();
        let at = state.sync.to_reference(frame.t_local);
        let bucket = at.floor_to(params.interval);
        let mut events = Vec::new();
        match &mut state.speech_bucket {
            Some((b, frames, qualifying, level_sum)) if *b == bucket => {
                *frames += 1;
                if frame_qualifies(frame, &params) {
                    *qualifying += 1;
                    *level_sum += frame.level_db;
                }
            }
            open => {
                // Close the previous bucket, if it qualified.
                if let Some((b, frames, qualifying, level_sum)) = open.take() {
                    if interval_is_speech(frames, qualifying, &params) {
                        events.push(LiveEvent::SpeechDetected {
                            badge,
                            at: b,
                            level_db: level_sum / qualifying.max(1) as f64,
                        });
                    }
                }
                let q = usize::from(frame_qualifies(frame, &params));
                *open = Some((bucket, 1, q, if q > 0 { frame.level_db } else { 0.0 }));
            }
        }
        self.events_emitted += events.len() as u64;
        events
    }

    /// Ingests one IMU window; may emit wear transitions when the 60-second
    /// block closes. Window and block classification are the shared
    /// [`window_on_body`] / [`block_worn`] kernels.
    pub fn ingest_imu(&mut self, badge: BadgeId, sample: &ImuSample) -> Vec<LiveEvent> {
        self.records_ingested += 1;
        let params = self.ctx.params.wear;
        let state = self.badges.entry(badge).or_default();
        let at = state.sync.to_reference(sample.t_local);
        let bucket = at.floor_to(params.block);
        let mut events = Vec::new();
        match &mut state.wear_bucket {
            Some((b, on_body, total)) if *b == bucket => {
                *total += 1;
                if window_on_body(sample, &params) {
                    *on_body += 1;
                }
            }
            open => {
                if let Some((b, on_body, total)) = open.take() {
                    let worn = block_worn(on_body, total, &params);
                    if worn != state.worn {
                        state.worn = worn;
                        events.push(LiveEvent::WearChanged { badge, worn, at: b });
                    }
                }
                let ob = usize::from(window_on_body(sample, &params));
                *open = Some((bucket, ob, 1));
            }
        }
        self.events_emitted += events.len() as u64;
        events
    }

    /// Snapshots the analyzer's full mutable state: per-badge regression
    /// sums, smoothing windows, open speech/wear buckets, room occupancy and
    /// meeting-in-progress markers. The snapshot is serde-serializable, so a
    /// backup replica can hold it as plain data and resume from it after a
    /// promotion — the paper's "partial failure … does not hinder the
    /// mission" requirement made concrete.
    #[must_use]
    pub fn checkpoint(&self, now: SimTime) -> AnalyzerCheckpoint {
        AnalyzerCheckpoint {
            taken_at: now,
            badges: self
                .badges
                .iter()
                .map(|(&id, state)| (id, state.clone()))
                .collect(),
            occupancy: self
                .occupancy
                .iter()
                .map(|(&room, list)| (room, list.clone()))
                .collect(),
            meeting_since: self
                .meeting_since
                .iter()
                .map(|(&room, &since)| (room, since))
                .collect(),
            events_emitted: self.events_emitted,
            records_ingested: self.records_ingested,
        }
    }

    /// Restores the analyzer to a checkpointed state, replacing all mutable
    /// state. Static configuration (floor plan, beacons, thresholds) is kept
    /// from `self` — checkpoints carry data, not deployment.
    pub fn restore(&mut self, ckpt: &AnalyzerCheckpoint) {
        self.badges = ckpt.badges.iter().cloned().collect();
        self.occupancy = ckpt.occupancy.iter().cloned().collect();
        self.meeting_since = ckpt.meeting_since.iter().copied().collect();
        self.events_emitted = ckpt.events_emitted;
        self.records_ingested = ckpt.records_ingested;
    }

    /// The current room of a badge, if localized.
    #[must_use]
    pub fn room_of(&self, badge: BadgeId) -> Option<RoomId> {
        self.badges.get(&badge).and_then(|s| s.smoother.room())
    }

    /// The RSSI-averaged merge of a badge's current smoothing window —
    /// what the batch localizer would range and solve from at this instant.
    ///
    /// Runs [`ScanSmoother::merge_into`] on the analyzer's persistent
    /// [`MergeScratch`], so repeated live queries (e.g. a habitat dashboard
    /// polling every badge each second) allocate nothing per call beyond the
    /// returned hit list.
    pub fn merged_scan_of(&mut self, badge: BadgeId) -> Option<BeaconScan> {
        let state = self.badges.get(&badge)?;
        if state.smoother.is_empty() {
            return None;
        }
        let mut hits = Vec::new();
        state
            .smoother
            .merge_into(&mut self.merge_scratch, &mut hits);
        Some(BeaconScan {
            t_local: state.smoother.latest_t()?,
            hits,
        })
    }

    /// The rooms currently hosting gatherings of two or more badges.
    #[must_use]
    pub fn active_meetings(&self) -> Vec<(RoomId, usize)> {
        self.meeting_since
            .keys()
            .map(|&r| (r, self.occupancy.get(&r).map_or(0, Vec::len)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ares_habitat::beacons::BeaconDeployment;
    use ares_habitat::floorplan::FloorPlan;
    use ares_simkit::clock::DriftingClock;

    #[test]
    fn incremental_sync_matches_batch_fit() {
        use crate::sync::SyncCorrection;
        let clock = DriftingClock::new(SimDuration::from_secs_f64(2.1), -35.0);
        let samples: Vec<SyncSample> = (0..40)
            .map(|i| {
                let t = SimTime::from_hours_true(f64::from(i) * 7.0);
                SyncSample {
                    t_local: clock.local_time(t),
                    t_reference: t,
                }
            })
            .collect();
        let batch = SyncCorrection::fit(&samples);
        let mut inc = IncrementalSync::default();
        for s in &samples {
            inc.update(s);
        }
        let (offset, skew) = inc.estimate();
        assert!((offset - batch.offset_s).abs() < 1e-6);
        assert!((skew - batch.skew_ppm).abs() < 1e-3);
    }

    fn scan_at(t: SimTime, room: RoomId, dep: &BeaconDeployment) -> BeaconScan {
        BeaconScan {
            t_local: t,
            hits: dep.in_room(room).map(|b| (b.id, -55.0)).collect(),
        }
    }

    #[test]
    fn merged_scan_query_reuses_scratch_and_matches_window() {
        let mut sa = StreamingAnalyzer::icares();
        let dep = BeaconDeployment::icares(&FloorPlan::lunares());
        let t0 = SimTime::from_day_hms(3, 9, 0, 0);
        assert!(sa.merged_scan_of(BadgeId(7)).is_none());
        for i in 0..3 {
            let t = t0 + SimDuration::from_secs(i);
            sa.ingest_scan(BadgeId(7), &scan_at(t, RoomId::Office, &dep));
        }
        let m1 = sa.merged_scan_of(BadgeId(7)).expect("window non-empty");
        let m2 = sa.merged_scan_of(BadgeId(7)).expect("repeat query");
        // The persistent scratch must come back zeroed: identical answers.
        assert_eq!(m1, m2);
        assert_eq!(m1.t_local, t0 + SimDuration::from_secs(2));
        assert!(!m1.hits.is_empty());
        for &(_, rssi) in &m1.hits {
            assert!((rssi - -55.0).abs() < 1e-12);
        }
    }

    #[test]
    fn room_changes_and_meetings_stream_out() {
        let mut sa = StreamingAnalyzer::icares();
        let dep = BeaconDeployment::icares(&FloorPlan::lunares());
        let t0 = SimTime::from_day_hms(3, 9, 0, 0);
        // Badge 0 enters the office.
        let ev = sa.ingest_scan(BadgeId(0), &scan_at(t0, RoomId::Office, &dep));
        assert!(matches!(
            ev[0],
            LiveEvent::RoomChanged {
                room: RoomId::Office,
                ..
            }
        ));
        assert_eq!(sa.room_of(BadgeId(0)), Some(RoomId::Office));
        // Badge 1 joins: a meeting starts.
        let ev = sa.ingest_scan(
            BadgeId(1),
            &scan_at(t0 + SimDuration::from_secs(30), RoomId::Office, &dep),
        );
        assert!(ev.iter().any(|e| matches!(
            e,
            LiveEvent::MeetingStarted {
                room: RoomId::Office,
                ..
            }
        )));
        assert_eq!(sa.active_meetings(), vec![(RoomId::Office, 2)]);
        // Badge 1 leaves for the kitchen: the meeting ends.
        let ev = sa.ingest_scan(
            BadgeId(1),
            &scan_at(t0 + SimDuration::from_mins(10), RoomId::Kitchen, &dep),
        );
        assert!(ev.iter().any(|e| matches!(
            e,
            LiveEvent::MeetingEnded { room: RoomId::Office, duration, .. }
                if *duration >= SimDuration::from_mins(9)
        )));
        assert!(sa.active_meetings().is_empty());
    }

    #[test]
    fn speech_buckets_close_on_the_grid() {
        let mut sa = StreamingAnalyzer::icares();
        let t0 = SimTime::from_day_hms(3, 12, 30, 0);
        // 30 frames of loud voiced audio = one full 15-s interval.
        for i in 0..30 {
            let ev = sa.ingest_audio(
                BadgeId(2),
                &AudioFrame {
                    t_local: t0 + SimDuration::from_millis(i * 500),
                    level_db: 66.0,
                    voiced: true,
                    f0_hz: Some(130.0),
                },
            );
            assert!(ev.is_empty(), "bucket must not close early");
        }
        // First frame of the next interval closes the previous one.
        let ev = sa.ingest_audio(
            BadgeId(2),
            &AudioFrame {
                t_local: t0 + SimDuration::from_secs(15),
                level_db: 40.0,
                voiced: false,
                f0_hz: None,
            },
        );
        assert_eq!(ev.len(), 1);
        assert!(matches!(ev[0], LiveEvent::SpeechDetected { level_db, .. } if level_db > 60.0));
    }

    #[test]
    fn wear_transitions_stream_out() {
        let mut sa = StreamingAnalyzer::icares();
        let t0 = SimTime::from_day_hms(4, 8, 0, 0);
        let mut events = Vec::new();
        // Two minutes worn, two minutes on the desk.
        for i in 0..240 {
            let var = if i < 120 { 0.05 } else { 0.0004 };
            events.extend(sa.ingest_imu(
                BadgeId(3),
                &ImuSample {
                    t_local: t0 + SimDuration::from_secs(i),
                    accel_var: var,
                    accel_mean: 9.81,
                    step_hz: None,
                },
            ));
        }
        let transitions: Vec<bool> = events
            .iter()
            .filter_map(|e| match e {
                LiveEvent::WearChanged { worn, .. } => Some(*worn),
                _ => None,
            })
            .collect();
        assert_eq!(transitions, vec![true, false], "{events:?}");
    }

    #[test]
    fn memory_stays_bounded() {
        let mut sa = StreamingAnalyzer::icares();
        let dep = BeaconDeployment::icares(&FloorPlan::lunares());
        let t0 = SimTime::from_day_hms(2, 7, 0, 0);
        for i in 0..5_000i64 {
            let t = t0 + SimDuration::from_secs(i);
            sa.ingest_scan(BadgeId(0), &scan_at(t, RoomId::Biolab, &dep));
            sa.ingest_audio(
                BadgeId(0),
                &AudioFrame {
                    t_local: t,
                    level_db: 45.0,
                    voiced: false,
                    f0_hz: None,
                },
            );
        }
        assert_eq!(sa.records_ingested(), 10_000);
        assert!(
            sa.retained_records() < 32,
            "retained {} records after a 10k-record stream",
            sa.retained_records()
        );
    }

    #[test]
    fn checkpoint_restore_resume_equals_uninterrupted() {
        let dep = BeaconDeployment::icares(&FloorPlan::lunares());
        let t0 = SimTime::from_day_hms(3, 9, 0, 0);
        let feed = |sa: &mut StreamingAnalyzer, range: std::ops::Range<i64>| {
            let mut events = Vec::new();
            for i in range {
                let t = t0 + SimDuration::from_secs(i);
                let room = if (i / 300) % 2 == 0 {
                    RoomId::Office
                } else {
                    RoomId::Kitchen
                };
                events.extend(sa.ingest_scan(BadgeId(0), &scan_at(t, room, &dep)));
                events.extend(sa.ingest_scan(BadgeId(1), &scan_at(t, RoomId::Office, &dep)));
                events.extend(sa.ingest_audio(
                    BadgeId(0),
                    &AudioFrame {
                        t_local: t,
                        level_db: if (i / 20) % 3 == 0 { 66.0 } else { 45.0 },
                        voiced: (i / 20) % 3 == 0,
                        f0_hz: Some(180.0),
                    },
                ));
                events.extend(sa.ingest_imu(
                    BadgeId(1),
                    &ImuSample {
                        t_local: t,
                        accel_var: if i < 600 { 0.05 } else { 0.0002 },
                        accel_mean: 9.81,
                        step_hz: None,
                    },
                ));
            }
            events
        };
        // Uninterrupted run.
        let mut whole = StreamingAnalyzer::icares();
        let mut expected = feed(&mut whole, 0..1200);
        // Interrupted run: checkpoint at the split, restore into a *fresh*
        // analyzer, resume.
        let mut first = StreamingAnalyzer::icares();
        let mut got = feed(&mut first, 0..700);
        let ckpt = first.checkpoint(t0 + SimDuration::from_secs(700));
        // Serde round-trip: the backup holds data, not a live object.
        let wire = serde::Serialize::to_value(&ckpt);
        let ckpt2: AnalyzerCheckpoint = serde::Deserialize::from_value(&wire).unwrap();
        assert_eq!(ckpt, ckpt2, "checkpoint must round-trip");
        let mut second = StreamingAnalyzer::icares();
        second.restore(&ckpt2);
        got.extend(feed(&mut second, 700..1200));
        expected.truncate(got.len().min(expected.len()));
        assert_eq!(got, expected, "resumed stream must match uninterrupted");
        assert_eq!(second.records_ingested(), whole.records_ingested());
        assert_eq!(second.events_emitted(), whole.events_emitted());
    }

    #[test]
    fn cadence_fires_once_per_deadline_and_collapses_gaps() {
        let t0 = SimTime::from_day_hms(3, 0, 0, 0);
        let mut c = CheckpointCadence::new(t0, SimDuration::from_mins(15));
        assert!(!c.due(t0 + SimDuration::from_mins(14)));
        assert!(c.due(t0 + SimDuration::from_mins(15)));
        assert_eq!(c.next_at(), t0 + SimDuration::from_mins(30));
        // Nothing more until the next deadline.
        assert!(!c.due(t0 + SimDuration::from_mins(16)));
        // A long stall collapses to one firing, re-armed past `now`.
        assert!(c.due(t0 + SimDuration::from_mins(100)));
        assert_eq!(c.next_at(), t0 + SimDuration::from_mins(105));
        assert!(!c.due(t0 + SimDuration::from_mins(104)));
        // The replay cursor rides the checkpoint.
        let mut sa = StreamingAnalyzer::icares();
        sa.ingest_sync(
            BadgeId(0),
            &SyncSample {
                t_local: t0,
                t_reference: t0,
            },
        );
        let ckpt = sa.checkpoint(t0);
        assert_eq!(ckpt.records_ingested(), 1);
        assert_eq!(ckpt.events_emitted(), 0);
    }

    #[test]
    fn drifted_timestamps_are_mapped_back() {
        let mut sa = StreamingAnalyzer::icares();
        let clock = DriftingClock::new(SimDuration::from_secs(4), 50.0);
        // Feed sync samples first.
        for i in 0..20 {
            let t = SimTime::from_hours_true(f64::from(i) * 10.0);
            sa.ingest_sync(
                BadgeId(0),
                &SyncSample {
                    t_local: clock.local_time(t),
                    t_reference: t,
                },
            );
        }
        let dep = BeaconDeployment::icares(&FloorPlan::lunares());
        let true_t = SimTime::from_day_hms(8, 12, 0, 0);
        let ev = sa.ingest_scan(
            BadgeId(0),
            &scan_at(clock.local_time(true_t), RoomId::Kitchen, &dep),
        );
        match &ev[0] {
            LiveEvent::RoomChanged { at, .. } => {
                assert!(
                    (*at - true_t).abs() < SimDuration::from_millis(100),
                    "event time {} vs true {}",
                    at,
                    true_t
                );
            }
            other => panic!("expected a room change, got {other:?}"),
        }
    }
}
