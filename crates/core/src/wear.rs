//! Badge wear detection: worn vs. merely active.
//!
//! "An average badge was worn for 63 % of daytime and for 84 % of daytime it
//! was active but not necessarily worn on the neck." A badge on a neck shows
//! continuous micro-motion (posture sway, breathing); a badge on a desk shows
//! only electronic noise. The classifier thresholds the inertial variance
//! over minute-scale blocks.

use crate::sync::SyncCorrection;
use ares_badge::records::ImuSample;
use ares_badge::sensors::OFF_BODY_VAR_THRESHOLD;
use ares_simkit::series::{Interval, IntervalSet};
use ares_simkit::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Wear-detector parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WearParams {
    /// Variance above which a window shows on-body micro-motion.
    pub on_body_var: f64,
    /// Block length over which windows are voted.
    pub block: SimDuration,
    /// Fraction of on-body windows for a block to count as worn.
    pub block_quorum: f64,
}

impl Default for WearParams {
    fn default() -> Self {
        WearParams {
            on_body_var: OFF_BODY_VAR_THRESHOLD,
            block: SimDuration::from_secs(60),
            block_quorum: 0.5,
        }
    }
}

/// Stage kernel: whether one inertial window shows on-body micro-motion.
/// Shared verbatim by the batch classifier and the streaming analyzer.
#[must_use]
pub fn window_on_body(sample: &ImuSample, params: &WearParams) -> bool {
    sample.accel_var > params.on_body_var
}

/// Stage kernel: the block vote — a minute-scale block counts as worn when
/// at least `block_quorum` of its windows show on-body motion. Shared by
/// batch and streaming.
#[must_use]
pub fn block_worn(on_body: usize, total: usize, params: &WearParams) -> bool {
    total > 0 && on_body as f64 / total as f64 >= params.block_quorum
}

/// The wear state of one badge over a span, on reference time.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct WearTrack {
    /// Intervals the badge was worn on-body.
    pub worn: IntervalSet,
    /// Intervals the badge was recording at all (worn or not).
    pub active: IntervalSet,
}

/// Classifies wear from a badge's inertial window stream (the engine feeds
/// it `TelemetryView::imu_samples()`).
#[must_use]
pub fn detect_wear_iter(
    samples: impl Iterator<Item = ImuSample>,
    corr: &SyncCorrection,
    params: &WearParams,
) -> WearTrack {
    let mut worn_blocks = Vec::new();
    let mut active_blocks = Vec::new();
    let mut block_start: Option<SimTime> = None;
    let mut on_body = 0usize;
    let mut total = 0usize;
    let flush = |start: Option<SimTime>,
                 on_body: usize,
                 total: usize,
                 worn_blocks: &mut Vec<Interval>,
                 active_blocks: &mut Vec<Interval>,
                 params: &WearParams| {
        if let Some(s) = start {
            if total > 0 {
                let end = s + params.block;
                active_blocks.push(Interval::new(s, end));
                if block_worn(on_body, total, params) {
                    worn_blocks.push(Interval::new(s, end));
                }
            }
        }
    };
    for s in samples {
        let t = corr.to_reference(s.t_local);
        let this_block = t.floor_to(params.block);
        if block_start != Some(this_block) {
            flush(
                block_start,
                on_body,
                total,
                &mut worn_blocks,
                &mut active_blocks,
                params,
            );
            block_start = Some(this_block);
            on_body = 0;
            total = 0;
        }
        total += 1;
        if window_on_body(&s, params) {
            on_body += 1;
        }
    }
    flush(
        block_start,
        on_body,
        total,
        &mut worn_blocks,
        &mut active_blocks,
        params,
    );
    WearTrack {
        worn: IntervalSet::from_intervals(worn_blocks),
        active: IntervalSet::from_intervals(active_blocks),
    }
}

/// Fraction of a window the badge was worn.
#[must_use]
pub fn worn_fraction(track: &WearTrack, from: SimTime, to: SimTime) -> f64 {
    track.worn.clip(from, to).total_duration() / (to - from)
}

/// Fraction of a window the badge was active.
#[must_use]
pub fn active_fraction(track: &WearTrack, from: SimTime, to: SimTime) -> f64 {
    track.active.clip(from, to).total_duration() / (to - from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ares_badge::records::{BadgeId, ImuSample};
    use ares_badge::telemetry::TelemetryStore;

    fn log_worn_then_desk(worn_s: i64, desk_s: i64) -> TelemetryStore {
        let mut log = TelemetryStore::new(BadgeId(0));
        for t in 0..worn_s {
            log.push_imu(ImuSample {
                t_local: SimTime::from_secs(t),
                accel_var: 0.04,
                accel_mean: 9.8,
                step_hz: None,
            });
        }
        for t in worn_s..worn_s + desk_s {
            log.push_imu(ImuSample {
                t_local: SimTime::from_secs(t),
                accel_var: 0.0004,
                accel_mean: 9.8,
                step_hz: None,
            });
        }
        log
    }

    #[test]
    fn separates_worn_from_desk() {
        let log = log_worn_then_desk(600, 600);
        let track = detect_wear_iter(
            log.view().imu_samples(),
            &SyncCorrection::identity(),
            &WearParams::default(),
        );
        let worn = worn_fraction(&track, SimTime::from_secs(0), SimTime::from_secs(1200));
        let active = active_fraction(&track, SimTime::from_secs(0), SimTime::from_secs(1200));
        assert!((worn - 0.5).abs() < 0.1, "worn {worn}");
        assert!(active > 0.95, "active {active}");
    }

    #[test]
    fn empty_log_has_no_wear() {
        let log = TelemetryStore::new(BadgeId(0));
        let track = detect_wear_iter(
            log.view().imu_samples(),
            &SyncCorrection::identity(),
            &WearParams::default(),
        );
        assert!(track.worn.is_empty());
        assert!(track.active.is_empty());
    }

    #[test]
    fn block_voting_tolerates_noise() {
        // 70 % on-body windows inside a block → worn.
        let mut log = TelemetryStore::new(BadgeId(0));
        for t in 0..60 {
            log.push_imu(ImuSample {
                t_local: SimTime::from_secs(t),
                accel_var: if t % 10 < 7 { 0.05 } else { 0.0003 },
                accel_mean: 9.8,
                step_hz: None,
            });
        }
        let track = detect_wear_iter(
            log.view().imu_samples(),
            &SyncCorrection::identity(),
            &WearParams::default(),
        );
        assert!(worn_fraction(&track, SimTime::from_secs(0), SimTime::from_secs(60)) > 0.9);
    }
}
