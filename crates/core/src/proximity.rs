//! Inter-badge proximity analysis from the 868 MHz radio.
//!
//! "The two radios, with omnidirectional antennas and different signal
//! attenuation properties, serve as proximity sensors, used for detecting
//! nearby badges and for indoor localization." Beacon-based localization
//! gives *where*; the badge-to-badge radio independently gives *with whom* —
//! and because the two modalities fail differently, each validates the
//! other. This module mines pairwise co-location from proximity RSSI and
//! cross-checks the meeting detector against it.

use crate::meetings::MeetingObs;
use crate::sync::SyncCorrection;
use ares_badge::records::BadgeId;
use ares_badge::telemetry::TelemetryView;
use ares_crew::roster::AstronautId;
use ares_simkit::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Proximity-analysis parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProximityParams {
    /// RSSI above which two badges count as sharing a space (dBm). With the
    /// calibrated 868 MHz channel, −60 dBm corresponds to a same-room-scale
    /// link; metal walls put cross-room links far below it.
    pub near_rssi_dbm: f64,
    /// Quantization window for co-location minutes.
    pub window: SimDuration,
}

impl Default for ProximityParams {
    fn default() -> Self {
        ProximityParams {
            near_rssi_dbm: -60.0,
            window: SimDuration::from_secs(60),
        }
    }
}

/// Pairwise co-location evidence: which minute-windows each badge pair spent
/// near each other.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ColocationIndex {
    /// `(lower badge, higher badge)` → set of window indices.
    windows: BTreeMap<(BadgeId, BadgeId), BTreeSet<i64>>,
    window_len: SimDuration,
}

impl ColocationIndex {
    /// Builds the index from badge telemetry views (each with its clock
    /// correction).
    #[must_use]
    pub fn build(
        views: &[(TelemetryView<'_>, &SyncCorrection)],
        params: &ProximityParams,
    ) -> ColocationIndex {
        let mut windows: BTreeMap<(BadgeId, BadgeId), BTreeSet<i64>> = BTreeMap::new();
        for (view, corr) in views {
            for (t_local, obs) in view.proximity.iter() {
                if obs.rssi < params.near_rssi_dbm {
                    continue;
                }
                let t = corr.to_reference(t_local);
                let w = t.as_micros().div_euclid(params.window.as_micros());
                let key = if view.badge <= obs.other {
                    (view.badge, obs.other)
                } else {
                    (obs.other, view.badge)
                };
                windows.entry(key).or_default().insert(w);
            }
        }
        ColocationIndex {
            windows,
            window_len: params.window,
        }
    }

    /// Co-location hours of a badge pair.
    #[must_use]
    pub fn pair_hours(&self, a: BadgeId, b: BadgeId) -> f64 {
        let key = if a <= b { (a, b) } else { (b, a) };
        self.windows
            .get(&key)
            .map_or(0.0, |s| s.len() as f64 * self.window_len.as_hours_f64())
    }

    /// Whether the pair was near each other during the given window-instant.
    #[must_use]
    pub fn near_at(&self, a: BadgeId, b: BadgeId, t: SimTime) -> bool {
        let key = if a <= b { (a, b) } else { (b, a) };
        let w = t.as_micros().div_euclid(self.window_len.as_micros());
        self.windows.get(&key).is_some_and(|s| s.contains(&w))
    }

    /// Number of distinct pairs with any co-location.
    #[must_use]
    pub fn pair_count(&self) -> usize {
        self.windows.len()
    }
}

/// Cross-validation verdict: how much of the localization-based meeting time
/// the independent proximity modality confirms.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProximityConfirmation {
    /// Meeting minutes checked.
    pub checked: usize,
    /// Minutes with at least one confirming proximity pair.
    pub confirmed: usize,
}

impl ProximityConfirmation {
    /// The confirmation rate in `[0, 1]`.
    #[must_use]
    pub fn rate(&self) -> f64 {
        if self.checked == 0 {
            0.0
        } else {
            self.confirmed as f64 / self.checked as f64
        }
    }
}

/// Checks each detected meeting minute against the proximity index: during a
/// true gathering, at least one pair of attending badges should be radio-near.
#[must_use]
pub fn confirm_meetings(
    meetings: &[MeetingObs],
    index: &ColocationIndex,
    badge_of: &dyn Fn(AstronautId) -> Option<BadgeId>,
) -> ProximityConfirmation {
    let mut checked = 0;
    let mut confirmed = 0;
    for m in meetings {
        let badges: Vec<BadgeId> = m.participants.iter().filter_map(|&a| badge_of(a)).collect();
        if badges.len() < 2 {
            continue;
        }
        let mut t = m.interval.start;
        while t < m.interval.end {
            checked += 1;
            let mut any = false;
            'outer: for (i, &a) in badges.iter().enumerate() {
                for &b in &badges[i + 1..] {
                    if index.near_at(a, b, t) {
                        any = true;
                        break 'outer;
                    }
                }
            }
            if any {
                confirmed += 1;
            }
            t += SimDuration::from_secs(60);
        }
    }
    ProximityConfirmation { checked, confirmed }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ares_badge::records::ProximityObs;
    use ares_badge::telemetry::TelemetryStore;

    fn log_with_obs(badge: BadgeId, obs: Vec<(i64, BadgeId, f64)>) -> TelemetryStore {
        let mut log = TelemetryStore::new(badge);
        for (t, other, rssi) in obs {
            log.push_proximity(ProximityObs {
                t_local: SimTime::from_secs(t),
                other,
                rssi,
            });
        }
        log
    }

    #[test]
    fn near_windows_accumulate_symmetrically() {
        let a = log_with_obs(
            BadgeId(0),
            vec![(10, BadgeId(1), -50.0), (70, BadgeId(1), -52.0)],
        );
        let b = log_with_obs(BadgeId(1), vec![(15, BadgeId(0), -51.0)]);
        let corr = SyncCorrection::identity();
        let idx = ColocationIndex::build(
            &[(a.view(), &corr), (b.view(), &corr)],
            &ProximityParams::default(),
        );
        // Windows 0 and 1 → 2 minutes.
        assert!((idx.pair_hours(BadgeId(0), BadgeId(1)) - 2.0 / 60.0).abs() < 1e-9);
        assert_eq!(
            idx.pair_hours(BadgeId(0), BadgeId(1)),
            idx.pair_hours(BadgeId(1), BadgeId(0))
        );
        assert!(idx.near_at(BadgeId(0), BadgeId(1), SimTime::from_secs(30)));
        assert!(!idx.near_at(BadgeId(0), BadgeId(1), SimTime::from_secs(150)));
    }

    #[test]
    fn weak_links_are_ignored() {
        let a = log_with_obs(BadgeId(0), vec![(10, BadgeId(1), -75.0)]);
        let corr = SyncCorrection::identity();
        let idx = ColocationIndex::build(&[(a.view(), &corr)], &ProximityParams::default());
        assert_eq!(idx.pair_count(), 0);
    }

    #[test]
    fn confirmation_rate_math() {
        use ares_habitat::rooms::RoomId;
        use ares_simkit::series::Interval;
        let a = log_with_obs(
            BadgeId(0),
            (0..5).map(|i| (i * 60, BadgeId(1), -50.0)).collect(),
        );
        let corr = SyncCorrection::identity();
        let idx = ColocationIndex::build(&[(a.view(), &corr)], &ProximityParams::default());
        let meeting = MeetingObs {
            room: RoomId::Kitchen,
            interval: Interval::new(SimTime::from_secs(0), SimTime::from_secs(600)),
            participants: vec![AstronautId::A, AstronautId::B],
            planned: true,
            speech_fraction: 0.5,
            mean_level_db: 60.0,
        };
        let badge_of = |a: AstronautId| -> Option<BadgeId> { Some(BadgeId(a.index() as u8)) };
        let conf = confirm_meetings(&[meeting], &idx, &badge_of);
        // 10 minutes checked, the first 5 confirmed.
        assert_eq!(conf.checked, 10);
        assert_eq!(conf.confirmed, 5);
        assert!((conf.rate() - 0.5).abs() < 1e-9);
    }
}
