//! Environmental analytics from the badges' thermometer/light/pressure
//! streams.
//!
//! Two of the paper's observations live here:
//!
//! * "The kitchen was also favored by the crew as the cosiest room with the
//!   highest temperatures" — recovered by joining each badge's environmental
//!   samples with its localized room at the same instant (the join runs in
//!   [`crate::engine::assemble_day`] and accumulates in
//!   [`crate::pipeline::MissionAnalysis::warmest_room`]).
//! * The mission "aimed at gaining insight into perception of time in
//!   response to clock shifts" and ran the habitat's lighting on Martian
//!   time: the artificial day length is *estimated from the light-sensor
//!   stream alone*, by timing the lights-on transitions drifting through the
//!   terrestrial day.

use crate::sync::SyncCorrection;
use ares_badge::records::EnvSample;
use ares_simkit::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// A detected lights-on transition.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LightsOn {
    /// When the lights came up (reference time).
    pub at: SimTime,
}

/// Detects upward illuminance crossings (night → day) with hysteresis.
///
/// `low`/`high` bracket the crossing: a transition fires when lux rises above
/// `high` after having been below `low`, and re-arms only after falling back
/// below `low` — robust to flicker at the threshold.
#[must_use]
pub fn detect_lights_on(
    env: &[EnvSample],
    corr: &SyncCorrection,
    low: f64,
    high: f64,
) -> Vec<LightsOn> {
    let mut out = Vec::new();
    let mut armed = false;
    let mut initialized = false;
    for s in env {
        if !initialized {
            armed = s.light_lux < low;
            initialized = true;
            continue;
        }
        if armed && s.light_lux > high {
            out.push(LightsOn {
                at: corr.to_reference(s.t_local),
            });
            armed = false;
        } else if !armed && s.light_lux < low {
            armed = true;
        }
    }
    out
}

/// The estimated artificial day length and its evidence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DayLengthEstimate {
    /// Estimated day length.
    pub day_length: SimDuration,
    /// Number of consecutive transition pairs used.
    pub pairs: usize,
    /// Daily shift against the terrestrial 24-hour clock (positive = the
    /// habitat's morning drifts later each day — a Martian sol).
    pub daily_shift: SimDuration,
}

/// Estimates the artificial day length from lights-on transitions: the
/// median spacing between consecutive mornings.
///
/// Returns `None` with fewer than two transitions. Spacings wildly off a
/// day (missed transitions) are discarded before the median.
#[must_use]
pub fn estimate_day_length(transitions: &[LightsOn]) -> Option<DayLengthEstimate> {
    if transitions.len() < 2 {
        return None;
    }
    let mut spacings: Vec<f64> = transitions
        .windows(2)
        .map(|w| (w[1].at - w[0].at).as_secs_f64())
        .filter(|&s| (20.0 * 3600.0..28.0 * 3600.0).contains(&s))
        .collect();
    if spacings.is_empty() {
        return None;
    }
    spacings.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let median = spacings[spacings.len() / 2];
    let day_length = SimDuration::from_secs_f64(median);
    Some(DayLengthEstimate {
        day_length,
        pairs: spacings.len(),
        daily_shift: day_length - SimDuration::from_hours(24),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ares_badge::records::{BadgeId, EnvSample};
    use ares_badge::telemetry::TelemetryStore;
    use ares_habitat::environment::SOL;
    use ares_habitat::rooms::RoomId;

    fn env_of(store: &TelemetryStore) -> Vec<EnvSample> {
        store.view().env_samples().collect()
    }

    fn log_with_light_cycle(days: u32, day_length: SimDuration) -> TelemetryStore {
        // Synthetic light stream: on for 55 % of the cycle starting at 29 %.
        let mut log = TelemetryStore::new(BadgeId::REFERENCE);
        let step = SimDuration::from_secs(60);
        let mut t = SimTime::EPOCH;
        let end = SimTime::EPOCH + SimDuration::from_days(i64::from(days));
        while t < end {
            let phase = ((t - SimTime::EPOCH) % day_length) / day_length;
            let lux = if (0.29..0.875).contains(&phase) {
                420.0
            } else {
                8.0
            };
            log.push_env(EnvSample {
                t_local: t,
                temperature_c: 21.0,
                pressure_hpa: 1003.0,
                light_lux: lux,
            });
            t += step;
        }
        log
    }

    #[test]
    fn detects_one_transition_per_cycle() {
        let log = log_with_light_cycle(10, SOL);
        let tr = detect_lights_on(&env_of(&log), &SyncCorrection::identity(), 50.0, 100.0);
        // 10 terrestrial days ≈ 9.7 sols → 9 or 10 mornings.
        assert!((9..=10).contains(&tr.len()), "{} transitions", tr.len());
    }

    #[test]
    fn recovers_the_martian_sol() {
        let log = log_with_light_cycle(14, SOL);
        let tr = detect_lights_on(&env_of(&log), &SyncCorrection::identity(), 50.0, 100.0);
        let est = estimate_day_length(&tr).expect("enough mornings");
        let err = (est.day_length - SOL).abs();
        assert!(
            err < SimDuration::from_mins(3),
            "estimated {} vs sol {}",
            est.day_length,
            SOL
        );
        // The daily shift is the famous ~39.6 minutes.
        assert!(est.daily_shift > SimDuration::from_mins(35));
        assert!(est.daily_shift < SimDuration::from_mins(45));
    }

    #[test]
    fn terrestrial_lighting_shows_no_shift() {
        let log = log_with_light_cycle(10, SimDuration::from_hours(24));
        let tr = detect_lights_on(&env_of(&log), &SyncCorrection::identity(), 50.0, 100.0);
        let est = estimate_day_length(&tr).expect("enough mornings");
        assert!(est.daily_shift.abs() < SimDuration::from_mins(2));
    }

    #[test]
    fn hysteresis_ignores_flicker() {
        let mut log = TelemetryStore::new(BadgeId::REFERENCE);
        // Hover around the threshold: 90, 110, 95, 105 … then solid daylight.
        let seq = [8.0, 90.0, 110.0, 95.0, 105.0, 420.0, 420.0, 8.0, 420.0];
        for (i, &lux) in seq.iter().enumerate() {
            log.push_env(EnvSample {
                t_local: SimTime::from_secs(i as i64 * 60),
                temperature_c: 21.0,
                pressure_hpa: 1003.0,
                light_lux: lux,
            });
        }
        let tr = detect_lights_on(&env_of(&log), &SyncCorrection::identity(), 50.0, 100.0);
        // One transition at the 110 reading, one after the 8.0 dip.
        assert_eq!(tr.len(), 2, "{tr:?}");
    }

    #[test]
    fn too_few_transitions_yield_none() {
        assert!(estimate_day_length(&[]).is_none());
        assert!(estimate_day_length(&[LightsOn { at: SimTime::EPOCH }]).is_none());
    }

    #[test]
    fn climate_join_attributes_rooms() {
        use crate::anomaly::Identification;
        use crate::engine::{assemble_day, EngineMetrics, MissionContext};
        use crate::localization::{Fix, PositionTrack};
        use crate::pipeline::{BadgeDay, MissionAnalysis};
        use ares_simkit::geometry::Point2;
        let mut log = TelemetryStore::new(BadgeId(0));
        let mut track = PositionTrack::default();
        // First 50 samples in the kitchen at 24.5°, next 50 in storage at 18.5°.
        for i in 0..100i64 {
            let (room, temp) = if i < 50 {
                (RoomId::Kitchen, 24.5)
            } else {
                (RoomId::Storage, 18.5)
            };
            track.fixes.push(
                SimTime::from_secs(i * 60),
                Fix {
                    room,
                    position: Point2::ORIGIN,
                    hits: 3,
                },
            );
            log.push_env(EnvSample {
                t_local: SimTime::from_secs(i * 60),
                temperature_c: temp,
                pressure_hpa: 1003.0,
                light_lux: 400.0,
            });
        }
        let badge = BadgeDay {
            badge: BadgeId(0),
            corr: SyncCorrection::identity(),
            track,
            wear: Default::default(),
            activity: Default::default(),
            speech: Default::default(),
            stays: Vec::new(),
            identification: Identification {
                carrier: None,
                score: 0.0,
                mismatch: false,
            },
        };
        let ctx = MissionContext::icares();
        let day = assemble_day(&ctx, 1, &[log], vec![badge], &mut EngineMetrics::new());
        assert_eq!(day.climate_sums[RoomId::Kitchen.index()].1, 50);
        let mut mission = MissionAnalysis::new(&ctx.plan);
        mission.absorb(day);
        let (room, temp) = mission.warmest_room().expect("data present");
        assert_eq!(room, RoomId::Kitchen);
        assert!((temp - 24.5).abs() < 0.1);
    }
}
