//! Physical-activity analysis from the inertial stream: walking detection
//! and the Fig. 4 daily walking fractions.

use crate::sync::SyncCorrection;
use crate::wear::WearTrack;
use ares_badge::records::ImuSample;
use ares_badge::sensors::WALK_VAR_THRESHOLD;
use ares_simkit::series::{Interval, IntervalSet};
use ares_simkit::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Walking-detector parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ActivityParams {
    /// Acceleration-magnitude variance above which a window is a walking
    /// candidate ((m/s²)²).
    pub walk_var_threshold: f64,
    /// Step-band frequency range accepted as gait (Hz).
    pub step_band_hz: (f64, f64),
    /// Gap below which adjacent walking windows merge into one bout.
    pub merge_gap: SimDuration,
}

impl Default for ActivityParams {
    fn default() -> Self {
        ActivityParams {
            walk_var_threshold: WALK_VAR_THRESHOLD,
            step_band_hz: (1.0, 2.8),
            merge_gap: SimDuration::from_secs(3),
        }
    }
}

/// The detected activity of one badge over a span.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ActivityTrack {
    /// Walking bouts (reference time).
    pub walking: IntervalSet,
    /// Mean acceleration variance over worn windows — the paper's "average
    /// daily acceleration" proxy.
    pub mean_accel_var: f64,
    /// Number of worn IMU windows analyzed.
    pub worn_windows: usize,
}

/// Detects walking bouts from a badge's inertial window stream (the engine
/// feeds it [`ares_badge::telemetry::TelemetryView::imu_samples`]).
///
/// Only windows during which the badge was actually worn count (a badge
/// carried in a bag or left on a cart would pollute the statistic; wear
/// detection is the upstream filter).
#[must_use]
pub fn detect_walking_iter(
    samples: impl Iterator<Item = ImuSample>,
    corr: &SyncCorrection,
    wear: &WearTrack,
    params: &ActivityParams,
) -> ActivityTrack {
    let mut bouts = Vec::new();
    let mut var_sum = 0.0;
    let mut worn_windows = 0usize;
    for s in samples {
        let t = corr.to_reference(s.t_local);
        if !wear.worn.contains(t) {
            continue;
        }
        worn_windows += 1;
        var_sum += s.accel_var;
        let stepping = s
            .step_hz
            .is_some_and(|f| f >= params.step_band_hz.0 && f <= params.step_band_hz.1);
        if s.accel_var > params.walk_var_threshold && stepping {
            bouts.push(Interval::new(t, t + SimDuration::from_secs(1)));
        }
    }
    ActivityTrack {
        walking: IntervalSet::from_intervals(bouts).close_gaps(params.merge_gap),
        mean_accel_var: if worn_windows > 0 {
            var_sum / worn_windows as f64
        } else {
            0.0
        },
        worn_windows,
    }
}

/// The fraction of recorded (worn) time spent walking within a window —
/// one point of Fig. 4.
#[must_use]
pub fn walking_fraction(
    activity: &ActivityTrack,
    wear: &WearTrack,
    from: SimTime,
    to: SimTime,
) -> f64 {
    let worn = wear.worn.clip(from, to).total_duration();
    if worn.is_zero() {
        return 0.0;
    }
    let walking = activity.walking.clip(from, to).total_duration();
    walking / worn
}

#[cfg(test)]
mod tests {
    use super::*;
    use ares_badge::records::{BadgeId, ImuSample};
    use ares_badge::telemetry::TelemetryStore;
    use ares_simkit::series::Interval;

    fn log_with_pattern(walk_secs: i64, still_secs: i64) -> TelemetryStore {
        let mut log = TelemetryStore::new(BadgeId(0));
        for t in 0..walk_secs {
            log.push_imu(ImuSample {
                t_local: SimTime::from_secs(t),
                accel_var: 1.2,
                accel_mean: 9.8,
                step_hz: Some(1.8),
            });
        }
        for t in walk_secs..walk_secs + still_secs {
            log.push_imu(ImuSample {
                t_local: SimTime::from_secs(t),
                accel_var: 0.03,
                accel_mean: 9.8,
                step_hz: None,
            });
        }
        log
    }

    fn worn_all(until: i64) -> WearTrack {
        WearTrack {
            worn: IntervalSet::from_intervals(vec![Interval::new(
                SimTime::from_secs(0),
                SimTime::from_secs(until),
            )]),
            active: IntervalSet::from_intervals(vec![Interval::new(
                SimTime::from_secs(0),
                SimTime::from_secs(until),
            )]),
        }
    }

    #[test]
    fn detects_walking_fraction() {
        let log = log_with_pattern(30, 70);
        let corr = SyncCorrection::identity();
        let wear = worn_all(100);
        let act = detect_walking_iter(
            log.view().imu_samples(),
            &corr,
            &wear,
            &ActivityParams::default(),
        );
        let f = walking_fraction(&act, &wear, SimTime::from_secs(0), SimTime::from_secs(100));
        assert!((f - 0.3).abs() < 0.05, "fraction {f}");
        assert_eq!(act.worn_windows, 100);
    }

    #[test]
    fn off_body_windows_are_ignored() {
        let log = log_with_pattern(30, 70);
        let corr = SyncCorrection::identity();
        // Badge only worn for the still part.
        let wear = WearTrack {
            worn: IntervalSet::from_intervals(vec![Interval::new(
                SimTime::from_secs(30),
                SimTime::from_secs(100),
            )]),
            active: worn_all(100).active,
        };
        let act = detect_walking_iter(
            log.view().imu_samples(),
            &corr,
            &wear,
            &ActivityParams::default(),
        );
        assert!(act.walking.is_empty());
        assert_eq!(act.worn_windows, 70);
    }

    #[test]
    fn high_variance_without_steps_is_not_walking() {
        // Vibration (workshop tools) has variance but no gait band.
        let mut log = TelemetryStore::new(BadgeId(0));
        for t in 0..50 {
            log.push_imu(ImuSample {
                t_local: SimTime::from_secs(t),
                accel_var: 2.0,
                accel_mean: 9.8,
                step_hz: None,
            });
        }
        let act = detect_walking_iter(
            log.view().imu_samples(),
            &SyncCorrection::identity(),
            &worn_all(50),
            &ActivityParams::default(),
        );
        assert!(act.walking.is_empty());
    }

    #[test]
    fn bouts_merge_across_small_gaps() {
        let mut log = TelemetryStore::new(BadgeId(0));
        for t in [0, 1, 2, 5, 6] {
            log.push_imu(ImuSample {
                t_local: SimTime::from_secs(t),
                accel_var: 1.0,
                accel_mean: 9.8,
                step_hz: Some(1.7),
            });
        }
        let act = detect_walking_iter(
            log.view().imu_samples(),
            &SyncCorrection::identity(),
            &worn_all(10),
            &ActivityParams::default(),
        );
        assert_eq!(act.walking.len(), 1, "gap of 2 s merges: {:?}", act.walking);
    }
}
